//! The Figure-9 tool applied to the *actual attack programs*: detect the
//! gadget, build the graph, patch with a fence, and verify on the simulator
//! that the patched program no longer leaks.

use analyzer::{AnalysisConfig, Analyzer, GadgetClass};
use attacks::common::{
    machine_with_channel, measure, probe_channel, BOUND_CELL, BOUND_PTR, PROBE_BASE, SECRET,
    VICTIM_ARRAY,
};
use specgraph::prelude::*;

/// Re-create the Spectre v1 attack environment around an arbitrary victim
/// program and report whether the secret leaked.
fn leaks(program: &isa::Program) -> bool {
    let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
    m.map_user_page(VICTIM_ARRAY).unwrap();
    m.map_user_page(BOUND_PTR).unwrap();
    m.write_u64(BOUND_PTR, BOUND_CELL).unwrap();
    m.write_u64(BOUND_CELL, 8).unwrap();
    m.write_u64(VICTIM_ARRAY + 64 * 8, SECRET).unwrap();
    for i in 0..8 {
        m.write_u64(VICTIM_ARRAY + i * 8, 1).unwrap();
    }
    // Train.
    for i in 0..4 {
        m.set_reg(Reg::R0, i % 8);
        m.set_reg(Reg::R1, VICTIM_ARRAY);
        m.set_reg(Reg::R2, BOUND_PTR);
        m.set_reg(Reg::R3, PROBE_BASE);
        m.run(program).unwrap();
    }
    // Attack.
    m.flush_line(BOUND_PTR).unwrap();
    m.flush_line(BOUND_CELL).unwrap();
    probe_channel().prepare(&mut m).unwrap();
    m.set_reg(Reg::R0, 64);
    m.set_reg(Reg::R1, VICTIM_ARRAY);
    m.set_reg(Reg::R2, BOUND_PTR);
    m.set_reg(Reg::R3, PROBE_BASE);
    measure(&mut m, program, SECRET, None).unwrap().leaked
}

#[test]
fn tool_finds_the_gadget_in_the_real_spectre_v1_program() {
    let program = attacks::spectre_v1::SpectreV1::program().unwrap();
    let report = Analyzer::new(AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    assert!(
        report
            .gadgets
            .iter()
            .any(|g| g.class == GadgetClass::SpectreType),
        "{:?}",
        report.gadgets
    );
    assert!(!report.vulnerabilities.is_empty());
}

#[test]
fn fence_patch_stops_the_real_leak() {
    let program = attacks::spectre_v1::SpectreV1::program().unwrap();
    assert!(leaks(&program), "unpatched program must leak");

    let report = Analyzer::new(AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    let patched = report.patch_with_fences(&program).unwrap();
    assert!(patched.len() > program.len(), "fences were inserted");
    assert!(!leaks(&patched), "patched program must not leak");

    // And the tool agrees with itself: the patched program's graph is
    // secure.
    let report2 = Analyzer::new(AnalysisConfig::default())
        .analyze(&patched)
        .unwrap();
    assert!(report2.vulnerabilities.is_empty());
}

#[test]
fn address_masking_patch_stops_the_real_leak() {
    // The V8/Linux-style mitigation: mask the index right after the bounds
    // check so out-of-bounds addresses are unrepresentable. The in-bounds
    // size is 8 words, so mask = 7.
    let program = attacks::spectre_v1::SpectreV1::program().unwrap();
    let report = Analyzer::new(AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    let gadget = &report.gadgets[0];
    let masked = analyzer::mask_index(&program, gadget.auth_pc + 1, Reg::R0, 0x7).unwrap();
    assert!(!leaks(&masked), "masked program must not leak the secret");
}

#[test]
fn sabc_data_dependency_patch_stops_the_real_leak() {
    // §V-B: SABC serializes the branch and the access by *data dependency*
    // instead of a fence. Tie the index register (r0) to the slow bound
    // (r4) right after the bounds check.
    let program = attacks::spectre_v1::SpectreV1::program().unwrap();
    let report = Analyzer::new(AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    let gadget = report
        .gadgets
        .iter()
        .find(|g| g.class == GadgetClass::SpectreType)
        .unwrap();
    let patched = analyzer::sabc_serialize(
        &program,
        gadget.auth_pc + 1,
        Reg::R0,  // the index feeding the access address
        Reg::R4,  // the (slow) bound the branch waits for
        Reg::R13, // scratch
    )
    .unwrap();
    assert!(leaks(&program), "unpatched leaks");
    assert!(!leaks(&patched), "SABC-patched program must not leak");
}

#[test]
fn tool_classifies_meltdown_gadget_as_intra_instruction() {
    // The Meltdown gadget, analyzed in user mode, is Meltdown-type: the
    // tool must decompose it rather than propose a (useless) fence.
    let program = isa::asm::assemble(
        "load r6, [r5]\nbeq r6, zero, done\nmul r7, r6, 0x1040\nadd r7, r7, r3\nload r8, [r7]\ndone: halt",
    )
    .unwrap();
    let report = Analyzer::new(AnalysisConfig {
        user_mode: true,
        ..AnalysisConfig::default()
    })
    .analyze(&program)
    .unwrap();
    assert!(report
        .gadgets
        .iter()
        .any(|g| g.class == GadgetClass::MeltdownType));
    // Fences don't change the program for Meltdown-type gadgets.
    let patched = report.patch_with_fences(&program).unwrap();
    assert_eq!(patched.len(), program.len());
}

#[test]
fn tool_graph_matches_handwritten_figure_for_spectre_v1() {
    // Both the hand-modeled Figure 1 and the tool-generated graph must
    // agree on the verdict: the authorization races with access, use and
    // send.
    let hand = attacks::spectre_v1::SpectreV1.graph();
    let hand_vulns = hand.vulnerabilities().unwrap().len();
    let program = attacks::spectre_v1::SpectreV1::program().unwrap();
    let tool = Analyzer::new(AnalysisConfig::default())
        .analyze(&program)
        .unwrap();
    let tool_vulns = tool.vulnerabilities.len();
    assert_eq!(hand_vulns, 3);
    // The tool models each ALU transform as its own "use" node, where the
    // hand-drawn Figure 1 merges them into one "Compute load address R" —
    // so the tool reports at least as many races, never fewer.
    assert!(
        tool_vulns >= hand_vulns,
        "tool found {tool_vulns} < {hand_vulns}"
    );
    // Both agree on the critical pair: an access and a send race with the
    // authorization.
    use tsg::NodeKind;
    assert!(tool
        .vulnerabilities
        .iter()
        .any(|v| v.protected_kind.is_secret_access()));
    assert!(tool
        .vulnerabilities
        .iter()
        .any(|v| matches!(v.protected_kind, NodeKind::Send)));
}
