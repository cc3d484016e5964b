//! The paper's six numbered Insights (§VI), each as an executable
//! assertion over the whole system.

use specgraph::prelude::*;
use uarch::UarchConfig;

/// Insight 1: "The root cause of speculative attacks succeeding is a
/// missing edge in the attack graph between the authorization operation
/// and the secret access operation."
#[test]
fn insight1_missing_edge_is_the_root_cause() {
    for attack in attacks::registry() {
        let sa = attack.graph();
        let g = sa.graph();
        let auths = g.nodes_of_kind(NodeKind::is_authorization);
        let accesses = g.nodes_of_kind(NodeKind::is_secret_access);
        let has_missing_edge = auths.iter().any(|&a| {
            accesses
                .iter()
                .any(|&s| g.has_race(a, s).expect("nodes exist"))
        });
        // The graph predicts the attack; the simulator confirms it.
        let leaked = attack.run(&UarchConfig::default()).expect("runs").leaked;
        assert!(has_missing_edge, "{}", attack.info().name);
        assert!(leaked, "{}", attack.info().name);
    }
}

/// Insight 2: a security dependency ≡ the missing edge enforcing
/// authorization-before-access.
#[test]
fn insight2_security_dependency_is_the_missing_edge() {
    let mut sa = attacks::spectre_v1::SpectreV1.graph();
    let before = sa.vulnerabilities().expect("analyzable").len();
    assert!(before > 0);
    let inserted = sa.patch_all().expect("patchable");
    assert_eq!(inserted, before, "one edge per missing dependency");
    assert!(sa.is_secure().expect("analyzable"));
}

/// Insight 3: the security dependencies give the defense strategies, and
/// every cataloged defense falls under one of the four.
#[test]
fn insight3_every_defense_has_a_strategy() {
    let registry = defenses::registry();
    assert!(registry.len() >= 25, "the catalog covers Table II + §V-B");
    for s in Strategy::all() {
        assert!(
            registry.iter().any(|d| d.strategy == s),
            "strategy {s} unrepresented"
        );
    }
}

/// Insight 4: falling under a strategy *explains why* the defense works —
/// the graph patch removes the race and the machine verdict agrees.
#[test]
fn insight4_strategy_explains_the_defense() {
    // NDA (strategy ②) vs Meltdown: the graph patch closes the use/send
    // path, and the machine run is blocked with an attributable event.
    let mut sa = attacks::meltdown::Meltdown.graph();
    defenses::patch_strategy(&mut sa, Strategy::PreventUse).expect("applicable");
    let vulns = sa.vulnerabilities().expect("analyzable");
    assert!(vulns
        .iter()
        .all(|v| !matches!(v.protected_kind, NodeKind::Send)));
    let out = attacks::meltdown::Meltdown
        .run(&UarchConfig::builder().nda(true).build())
        .expect("runs");
    assert!(!out.leaked);
    assert!(out.defense_blocks > 0, "the block is attributable");
}

/// Insight 5: security dependencies can be relaxed (allow access, prevent
/// leak) for performance — strategy ① costs more than ②/③ on benign code.
#[test]
fn insight5_relaxation_trades_performance() {
    use isa::{AluOp, Cond, ProgramBuilder, Reg};
    // A benign branchy loop with loads.
    let p = ProgramBuilder::new()
        .imm(Reg::R0, 0x9000)
        .imm(Reg::R1, 24)
        .label("loop")
        .expect("fresh")
        .load(Reg::R3, Reg::R0, 0)
        .branch_if(Cond::Eq, Reg::R3, Reg::ZERO, "skip")
        .alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R3)
        .label("skip")
        .expect("fresh")
        .alu_imm(AluOp::Add, Reg::R0, Reg::R0, 8)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch_if(Cond::Ne, Reg::R1, Reg::ZERO, "loop")
        .halt()
        .build()
        .expect("builds");
    let run = |cfg: &UarchConfig| {
        let mut m = uarch::Machine::new(cfg.clone());
        m.map_user_page(0x9000).expect("mappable");
        for i in 0..32 {
            m.write_u64(0x9000 + i * 8, i + 1).expect("mapped");
        }
        m.run(&p).expect("runs").cycles
    };
    let strict = run(&UarchConfig::builder().no_speculative_loads(true).build());
    let relaxed_use = run(&UarchConfig::builder().nda(true).build());
    let relaxed_send = run(&UarchConfig::builder().stt(true).build());
    assert!(strict > relaxed_use, "① {strict} vs ② {relaxed_use}");
    assert!(strict > relaxed_send, "① {strict} vs ③ {relaxed_send}");
    assert!(
        relaxed_use >= relaxed_send,
        "② {relaxed_use} vs ③ {relaxed_send}"
    );
}

/// Insight 6: Spectre-type attacks need only inter-instruction modeling;
/// Meltdown-type attacks need intra-instruction (micro-op) modeling — and
/// the Figure-9 tool exploits exactly that split.
#[test]
fn insight6_modeling_level_split() {
    use analyzer::{AnalysisConfig, Analyzer, GadgetClass};
    let spectre_count = attacks::registry()
        .iter()
        .filter(|a| a.info().class() == AttackClass::Spectre)
        .count();
    let meltdown_count = attacks::registry()
        .iter()
        .filter(|a| a.info().class() == AttackClass::Meltdown)
        .count();
    // v1, v1.1, v1.2, v2, v4, RSB, Retbleed, BHI, Zenbleed, Inception
    assert_eq!(spectre_count, 10);
    assert_eq!(meltdown_count, 12);

    // The tool keeps Spectre-type inputs at the instruction level (node
    // count == instruction count) and expands Meltdown-type inputs
    // (node count > instruction count: micro-op decomposition).
    let src = "load r6, [r5]\nadd r7, r6, r3\nload r8, [r7]\nhalt";
    let p = isa::asm::assemble(src).expect("assembles");
    let kernel = Analyzer::new(AnalysisConfig::default())
        .analyze(&p)
        .expect("ok");
    assert!(kernel.gadgets.is_empty(), "no authorization, no gadget");
    let user = Analyzer::new(AnalysisConfig {
        user_mode: true,
        ..AnalysisConfig::default()
    })
    .analyze(&p)
    .expect("ok");
    assert_eq!(user.gadgets[0].class, GadgetClass::MeltdownType);
    assert_eq!(
        user.graph.graph().node_count(),
        p.len() + 1,
        "the faulting load split into check + read"
    );
}

/// Insight 6 on the machine: a Meltdown-type attack races the permission
/// check *inside* one instruction, so a check that completes at once
/// (`permlat=0`) closes its window, while a Spectre-type attack races a
/// different, older instruction and still leaks. At the default latency
/// every registry attack leaks.
#[test]
fn insight6_instant_permission_check_stops_exactly_the_meltdown_class() {
    let spec = CampaignSpec::builder(UarchConfig::default())
        .defenses([])
        .axis(Knob::PermissionCheckLatency, [0usize, 30])
        .build();
    let matrix = CampaignMatrix::run(&spec).expect("undefended registry runs");
    assert_eq!(matrix.attacks.len(), 22);
    for attack in &matrix.attacks {
        let at = |config| {
            matrix
                .baseline(attack.name, config)
                .expect("baseline row")
                .leaked
        };
        assert!(at(1), "{} leaks at permlat=30", attack.name);
        assert_eq!(
            at(0),
            attack.class() == AttackClass::Spectre,
            "{} ({}) at permlat=0",
            attack.name,
            attack.class()
        );
    }
}
