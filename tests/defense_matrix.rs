//! The defense-effectiveness matrix: Table II pairs verified by execution,
//! and the paper's claim that each defense works exactly where its inserted
//! security dependency matches the attack's missing edge.

use specgraph::prelude::*;
use uarch::UarchConfig;

/// The singleton stack of one registry defense.
fn single(name: &str) -> DefenseStack {
    DefenseStack::single(
        *defenses::find(name).unwrap_or_else(|| panic!("defense {name} not in catalog")),
    )
}

fn verify(stack: &DefenseStack, attack: &dyn Attack) -> Verdict {
    defenses::verify_stack(stack, attack, &UarchConfig::default()).unwrap()
}

fn check(defense_name: &str, attack: &dyn Attack, expect_blocked: bool) {
    let v = verify(&single(defense_name), attack);
    let expected = if expect_blocked {
        Verdict::Blocked
    } else {
        Verdict::Leaked
    };
    assert_eq!(v, expected, "{} vs {}", defense_name, attack.info().name);
}

#[test]
fn table2_row_serialization() {
    check("LFENCE", &attacks::spectre_v1::SpectreV1, true);
    check("MFENCE", &attacks::spectre_v1::SpectreV1_1, true);
}

#[test]
fn table2_row_kernel_isolation() {
    check("KAISER/KPTI", &attacks::meltdown::Meltdown, true);
    // KPTI targets the kernel datapath only: user-space Spectre unaffected.
    check("KAISER/KPTI", &attacks::spectre_v1::SpectreV1, false);
}

#[test]
fn table2_row_prevent_mistraining() {
    for d in [
        "IBRS",
        "STIBP",
        "IBPB",
        "BTB invalidation on context switch",
    ] {
        check(d, &attacks::spectre_v2::SpectreV2, true);
    }
    check("Retpoline", &attacks::spectre_v2::SpectreV2, true);
    // Predictor flushing does not address same-context conditional
    // mis-training (v1 trains within one context here), nor Meltdown.
    check("IBPB", &attacks::meltdown::Meltdown, false);
}

#[test]
fn table2_row_store_load_serialization() {
    check("SSBB", &attacks::spectre_v4::SpectreV4, true);
    check("SSBS", &attacks::spectre_v4::SpectreV4, true);
    // SSB disable is irrelevant to Meltdown's intra-instruction race.
    check("SSBS", &attacks::meltdown::Meltdown, false);
}

#[test]
fn table2_row_rsb_stuffing() {
    check("RSB stuffing", &attacks::spectre_rsb::SpectreRsb, true);
    check("RSB stuffing", &attacks::spectre_v2::SpectreV2, false);
}

#[test]
fn academia_strategy2_blocks_everything() {
    // NDA-style "prevent use" sits at the chokepoint every variant must
    // pass through.
    for d in ["NDA", "SpecShield", "SpectreGuard", "ConTExT"] {
        let def = single(d);
        for &a in attacks::registry() {
            let v = verify(&def, a);
            assert_eq!(v, Verdict::Blocked, "{d} vs {}", a.info().name);
        }
    }
}

#[test]
fn academia_strategy3_blocks_cache_channel_variants() {
    for d in [
        "STT",
        "InvisiSpec",
        "SafeSpec",
        "CleanupSpec",
        "Conditional Speculation",
    ] {
        let def = single(d);
        for a in [
            &attacks::spectre_v1::SpectreV1 as &dyn Attack,
            &attacks::meltdown::Meltdown,
            &attacks::spectre_v2::SpectreV2,
        ] {
            let v = verify(&def, a);
            assert_eq!(v, Verdict::Blocked, "{d} vs {}", a.info().name);
        }
    }
}

#[test]
fn eager_permission_check_blocks_meltdown_family_only() {
    let def = single("Eager permission check");
    for a in [
        &attacks::meltdown::Meltdown as &dyn Attack,
        &attacks::meltdown::SpectreV3a,
        &attacks::foreshadow::Foreshadow::sgx(),
        &attacks::mds::Fallout,
        &attacks::tsx::Taa,
    ] {
        let v = verify(&def, a);
        assert_eq!(v, Verdict::Blocked, "eager check vs {}", a.info().name);
    }
    // …but not Spectre v1: its authorization is a *branch*, not the
    // intra-instruction permission check.
    let v = verify(&def, &attacks::spectre_v1::SpectreV1);
    assert_eq!(v, Verdict::Leaked);
    // The Cascade Lake in-silicon fix enforces the same ordering in
    // hardware: it blocks the Meltdown family too.
    let silicon = single("In-silicon fix (Cascade Lake)");
    for a in [
        &attacks::meltdown::Meltdown as &dyn Attack,
        &attacks::foreshadow::Foreshadow::sgx(),
        &attacks::mds::Fallout,
    ] {
        let v = verify(&silicon, a);
        assert_eq!(v, Verdict::Blocked, "silicon fix vs {}", a.info().name);
    }
}

#[test]
fn full_matrix_has_no_simulator_failures() {
    // Smoke-run the complete registry × catalog matrix on the campaign
    // executor: every baseline and cell completes, and every modeled
    // defense gets a machine verdict (the table3/table2 benches print it).
    let matrix = CampaignMatrix::run(&CampaignSpec::default()).unwrap();
    for b in matrix.baselines() {
        assert_eq!(b.outcome, CellOutcome::Ok, "{} baseline", b.info.name);
    }
    // One config slice: the cells walk the defense axis once per attack.
    for (cell, stack) in matrix.cells().iter().zip(matrix.defenses.iter().cycle()) {
        let what = format!("{} vs {}", cell.defense, cell.attack);
        assert_eq!(cell.outcome, CellOutcome::Ok, "{what}");
        assert_eq!(cell.defense, stack.name(), "{what}");
        if stack.is_modeled() {
            assert_ne!(cell.evaluation.mechanism, Verdict::GraphOnly, "{what}");
        }
    }
}

#[test]
fn graph_level_and_machine_level_agree_for_strategy1() {
    // For Spectre v1: patching strategy ① in the graph removes the race;
    // the corresponding machine knob removes the leak.
    let mut sa = attacks::spectre_v1::SpectreV1.graph();
    defenses::patch_strategy(&mut sa, Strategy::PreventAccess).unwrap();
    assert!(sa.is_secure().unwrap());
    let cfg = UarchConfig::builder().no_speculative_loads(true).build();
    let out = attacks::spectre_v1::SpectreV1.run(&cfg).unwrap();
    assert!(!out.leaked);
}
