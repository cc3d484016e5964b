//! Cross-crate integration: every Table-III attack variant runs end-to-end
//! on the vulnerable baseline and is neutralized on hardened silicon.

use specgraph::prelude::*;

#[test]
fn every_variant_leaks_on_the_vulnerable_baseline() {
    let cfg = UarchConfig::default();
    for attack in attacks::registry() {
        let out = attack.run(&cfg).expect("simulation runs");
        assert!(
            out.leaked,
            "{} must leak on the baseline: {out}",
            attack.info().name
        );
        assert!(out.recovered.is_some());
    }
}

#[test]
fn no_variant_leaks_on_hardened_silicon() {
    let cfg = UarchConfig::hardened();
    for attack in attacks::registry() {
        let out = attack.run(&cfg).expect("simulation runs");
        assert!(
            !out.leaked,
            "{} must be blocked on hardened hardware: {out}",
            attack.info().name
        );
    }
}

#[test]
fn every_variant_squashes_its_transient_path() {
    // The architectural contract: mis-speculation is rolled back. Every
    // attack run must observe at least one squash or transaction abort —
    // the leak happens *despite* correct architectural behavior.
    let cfg = UarchConfig::default();
    for attack in attacks::registry() {
        let out = attack.run(&cfg).expect("simulation runs");
        assert!(
            out.squashes > 0,
            "{} must squash its transient window",
            attack.info().name
        );
    }
}

#[test]
fn spectre_type_attacks_mispredict_meltdown_type_fault() {
    // Insight 6: the two families differ in where the authorization lives.
    for attack in attacks::registry() {
        let info = attack.info();
        match info.class() {
            AttackClass::Spectre => {
                // Spectre-type authorizations are resolutions of predicted
                // control/data flow.
                assert!(
                    info.authorization.contains("resolution")
                        || info.authorization.contains("check"),
                    "{}: {}",
                    info.name,
                    info.authorization
                );
            }
            AttackClass::Meltdown => {
                assert!(
                    info.authorization.to_lowercase().contains("check")
                        || info.authorization.contains("Abort"),
                    "{}: {}",
                    info.name,
                    info.authorization
                );
            }
        }
    }
}

#[test]
fn defense_blocks_are_observable_when_defended() {
    // When NDA blocks an attack, the event log says *why* (DefenseBlocked),
    // matching the paper's explanation requirement.
    let cfg = UarchConfig::builder().nda(true).build();
    let out = attacks::spectre_v1::SpectreV1.run(&cfg).unwrap();
    assert!(!out.leaked);
    assert!(out.defense_blocks > 0, "the block must be attributable");
}

#[test]
fn insufficiency_experiment_reproduces_section_5b() {
    let r = specgraph::insufficiency::run_experiment().unwrap();
    assert!(r.baseline.leaked);
    assert!(!r.partial_blocks_baseline.leaked);
    assert!(r.partial_bypassed_via_cache.leaked);
    assert!(!r.full_blocks_everything.leaked);
}

#[test]
fn deterministic_replay() {
    // The simulator is deterministic: two identical runs give identical
    // outcomes cycle-for-cycle.
    let cfg = UarchConfig::default();
    let a = attacks::meltdown::Meltdown.run(&cfg).unwrap();
    let b = attacks::meltdown::Meltdown.run(&cfg).unwrap();
    assert_eq!(a, b);
}

/// FNV-1a over the Debug rendering of everything a run leaves behind.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The default config, every preset stack deployed on it, and the
/// Figure-8 hardening slices, in that order.
fn preset_and_figure8_configs() -> Vec<UarchConfig> {
    let base = UarchConfig::default();
    let mut configs = vec![base.clone()];
    configs.extend(
        defenses::presets::all()
            .iter()
            .filter_map(|(_, stack)| stack.apply(&base)),
    );
    configs.extend(
        CampaignSpec::builder(base.clone())
            .axis(Knob::Hardening, Hardening::figure8())
            .build()
            .configs
            .into_iter()
            .map(|nc| nc.config),
    );
    configs
}

/// Runs `attack` on a fresh machine under `cfg`, folds the outcome, the
/// final cycle counter and the full event log into `hash`, and returns
/// the switches the run consulted.
fn hash_run(hash: &mut u64, attack: &dyn Attack, cfg: &UarchConfig) -> uarch::Switches {
    let mut m = Machine::new(cfg.clone());
    attacks::common::prepare_channel(&mut m).unwrap();
    let out = attack.run_in(&mut m);
    fnv1a(hash, format!("{out:?}").as_bytes());
    fnv1a(hash, &m.cycle().to_le_bytes());
    fnv1a(hash, &m.events_dropped().to_le_bytes());
    for e in m.events() {
        fnv1a(hash, format!("{e:?}").as_bytes());
    }
    m.consulted()
}

#[test]
fn simulation_event_log_digest_is_pinned() {
    // The exactness contract of the simulator's cycle loop: for every
    // registry attack under the default config, every preset stack and
    // every Figure-8 hardening, the outcome, the final cycle counter and
    // the full event log hash to one pinned value. A change to how the
    // loop advances time (or to any stage) that moves a single event, a
    // cycle stamp or a verdict changes this digest.
    let configs = preset_and_figure8_configs();
    let mut hash = FNV_OFFSET;
    let mut runs = 0;
    for attack in attacks::registry() {
        for cfg in &configs {
            hash_run(&mut hash, *attack, cfg);
            runs += 1;
        }
    }
    assert_eq!(runs, attacks::registry().len() * configs.len());
    assert_eq!(
        hash, 0x29a8_9467_547a_7353,
        "event-log digest over {runs} runs: {hash:#018x}"
    );
}

#[test]
fn small_buffer_event_log_digest_is_pinned() {
    // The pinned digest above runs only the default buffer capacities
    // (LFB 8, store buffer 16, load ports 4, RSB 16). Here every registry
    // attack runs with each of those four capacities cut to 1 and to 2,
    // one at a time and all together, so each bounded buffer evicts on
    // nearly every push and its eviction order shows in the event log.
    type Field = fn(&mut UarchConfig) -> &mut usize;
    let fields: [Field; 4] = [
        |c| &mut c.lfb_entries,
        |c| &mut c.store_buffer_entries,
        |c| &mut c.load_port_entries,
        |c| &mut c.rsb_depth,
    ];
    let mut configs = Vec::new();
    for capacity in [1, 2] {
        let mut all = UarchConfig::default();
        for field in fields {
            let mut one = UarchConfig::default();
            *field(&mut one) = capacity;
            configs.push(one);
            *field(&mut all) = capacity;
        }
        configs.push(all);
    }
    let mut hash = FNV_OFFSET;
    for attack in attacks::registry() {
        for cfg in &configs {
            hash_run(&mut hash, *attack, cfg);
        }
    }
    assert_eq!(
        hash,
        0x74d5_5077_dff7_953b,
        "small-buffer event-log digest over {} runs: {hash:#018x}",
        attacks::registry().len() * configs.len()
    );
}

#[test]
fn switches_a_run_never_read_cannot_change_it() {
    // The campaign executor's sharing rule: a run depends only on the
    // non-switch fields and on the switches it consulted. Flipping any
    // other switch must leave the outcome, the final cycle counter and
    // the event log exactly as they were.
    let mut flips = 0;
    for attack in attacks::registry() {
        for cfg in preset_and_figure8_configs() {
            let mut digest = FNV_OFFSET;
            let consulted = hash_run(&mut digest, *attack, &cfg);
            for &s in uarch::Switch::ALL {
                if consulted.contains(s) {
                    continue;
                }
                let mut flipped = cfg.clone();
                s.write(&mut flipped, !s.read(&cfg));
                let mut again = FNV_OFFSET;
                hash_run(&mut again, *attack, &flipped);
                assert_eq!(
                    again,
                    digest,
                    "{} changed when unconsulted {s} flipped on {cfg:?}",
                    attack.info().name
                );
                flips += 1;
            }
        }
    }
    // Most switches go unread by most attacks.
    let runs = attacks::registry().len() * preset_and_figure8_configs().len();
    assert!(flips > runs * uarch::Switch::ALL.len() / 2, "{flips} flips");
}
