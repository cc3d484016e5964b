//! Campaign-engine acceptance: one `core::campaign` run must reproduce
//! the Table-III × defense-catalog verdicts of the seed's per-pair
//! `scenario::evaluate` path, cell for cell, and stay deterministic under
//! parallelism.

use specgraph::prelude::*;
use std::sync::OnceLock;
use uarch::UarchConfig;

/// The registry × catalog matrix on the default config, run once and
/// shared by the tests that only read it.
fn default_matrix() -> &'static CampaignMatrix {
    static MATRIX: OnceLock<CampaignMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        CampaignMatrix::run(&CampaignSpec::builder(UarchConfig::default()).build()).unwrap()
    })
}

#[test]
fn one_campaign_call_reproduces_the_per_pair_evaluation_path() {
    let base = UarchConfig::default();
    let matrix = default_matrix();
    let (a, d, c) = matrix.shape();
    assert_eq!(a, attacks::registry().len());
    assert_eq!(d, defenses::registry().len());
    assert_eq!(c, 1);

    // Cell-for-cell identity with the seed's nested per-pair loop.
    let mut cells = matrix.cells().iter();
    for attack in attacks::registry() {
        for defense in defenses::registry() {
            let expected = scenario::evaluate(*attack, defense, &base).unwrap();
            let cell = cells.next().expect("campaign covers the full matrix");
            assert_eq!(
                cell.evaluation,
                expected,
                "campaign disagrees with per-pair evaluate for {} vs {}",
                defense.name,
                attack.info().name
            );
        }
    }
    assert!(cells.next().is_none(), "campaign produced extra cells");

    // The paper's warning is not hypothetical (KPTI vs Spectre v1, …), and
    // the extraction agrees with the per-cell flag.
    let false_senses = matrix.false_senses();
    assert!(!false_senses.is_empty());
    assert_eq!(
        false_senses.len(),
        matrix
            .cells()
            .iter()
            .filter(|cell| cell.false_sense_of_security())
            .count()
    );
}

#[test]
fn evaluate_all_is_a_thin_campaign_consumer_with_the_seed_shape() {
    // The flattened matrix is the seed's `(evaluations, false_sense)`
    // shape: one evaluation per pair, attack-major like its nested loop.
    let evals: Vec<&Evaluation> = default_matrix()
        .cells()
        .iter()
        .map(|cell| &cell.evaluation)
        .collect();
    assert_eq!(
        evals.len(),
        attacks::registry().len() * defenses::registry().len()
    );
    assert_eq!(evals[0].attack, attacks::names::SPECTRE_V1);
    assert_eq!(evals[0].defense(), defenses::names::LFENCE);
    assert_eq!(evals[1].attack, attacks::names::SPECTRE_V1);
    assert_eq!(
        evals[defenses::registry().len()].defense(),
        defenses::names::LFENCE
    );
}

#[test]
fn parallel_and_serial_campaigns_agree_exactly() {
    let serial = CampaignSpec {
        threads: 1,
        ..CampaignSpec::default()
    };
    let parallel = CampaignSpec {
        threads: 8,
        ..CampaignSpec::default()
    };
    let a = CampaignMatrix::run(&serial).unwrap();
    let b = CampaignMatrix::run(&parallel).unwrap();
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn known_verdicts_surface_through_matrix_lookups() {
    let matrix = CampaignMatrix::run(&CampaignSpec::default()).unwrap();
    // KPTI blocks Meltdown but is the canonical false sense vs Spectre v1.
    let kpti_meltdown = matrix
        .cell(attacks::names::MELTDOWN, defenses::names::KPTI, 0)
        .unwrap();
    assert_eq!(kpti_meltdown.evaluation.mechanism, Verdict::Blocked);
    let kpti_v1 = matrix
        .cell(attacks::names::SPECTRE_V1, defenses::names::KPTI, 0)
        .unwrap();
    assert!(kpti_v1.false_sense_of_security());
    assert!(matrix
        .false_senses()
        .iter()
        .any(|cell| cell.attack == attacks::names::SPECTRE_V1
            && cell.defense == defenses::names::KPTI));
    // NDA blocks everything (strategy ② at the use chokepoint).
    for a in attacks::registry() {
        let cell = matrix.cell(a.info().name, defenses::names::NDA, 0).unwrap();
        assert_eq!(
            cell.evaluation.mechanism,
            Verdict::Blocked,
            "NDA must block {}",
            a.info().name
        );
    }
    // Baselines: every variant leaks undefended and its graph races.
    for b in matrix.baselines() {
        assert!(b.leaked, "{} must leak on the baseline", b.info.name);
        assert!(b.graph_race, "{} graph must race", b.info.name);
    }
}

#[test]
fn filter_extracts_strategy_slices() {
    let matrix = CampaignMatrix::run(&CampaignSpec::default()).unwrap();
    let send_cells = matrix.filter(|cell| cell.evaluation.strategies() == [Strategy::PreventSend]);
    let send_defenses = defenses::registry()
        .iter()
        .filter(|d| d.strategy == Strategy::PreventSend)
        .count();
    assert_eq!(send_cells.len(), send_defenses * attacks::registry().len());
}

mod defense_stacks {
    use proptest::prelude::*;
    use specgraph::prelude::*;
    use uarch::UarchConfig;

    /// A deterministic permutation of `names` drawn from `seed`.
    fn permuted(names: &[&str], mut seed: u64) -> Vec<Defense> {
        let mut pool: Vec<Defense> = names
            .iter()
            .map(|n| *defenses::resolve(n).expect("registered"))
            .collect();
        let mut out = Vec::with_capacity(pool.len());
        while !pool.is_empty() {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let idx = usize::try_from(seed % pool.len() as u64).unwrap();
            out.push(pool.swap_remove(idx));
        }
        out
    }

    fn verdicts_for(members: Vec<Defense>) -> Vec<(&'static str, Verdict, Option<bool>)> {
        let stack = DefenseStack::new(members).expect("catalog members compose");
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(4))
            .defense_stacks([stack])
            .build();
        CampaignMatrix::run(&spec)
            .expect("campaign runs")
            .cells()
            .iter()
            .map(|cell| {
                (
                    cell.attack,
                    cell.evaluation.mechanism,
                    cell.evaluation.strategy_sufficient,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Deploying the same members in any order yields the same
        /// machine and graph verdicts: stacking is declarative, not
        /// procedural.
        #[test]
        fn stack_order_never_changes_verdicts(seed in 0u64..u64::MAX) {
            let pool = ["kpti", "retpoline", "ibpb", "ssbs", "eager-fpu"];
            let baseline = verdicts_for(permuted(&pool, 0));
            prop_assert_eq!(verdicts_for(permuted(&pool, seed)), baseline);
        }
    }

    #[test]
    fn conflicting_members_are_rejected_not_folded() {
        // Duplicates are the API-level conflict every consumer can hit;
        // opposing overlay writes are covered by the defenses crate's
        // ConflictingKnob tests (they need a non-catalog member).
        assert!(matches!(
            DefenseStack::parse("nda+nda"),
            Err(StackError::Duplicate(_))
        ));
        assert!(matches!(
            DefenseStack::new(Vec::new()),
            Err(StackError::Empty)
        ));
    }

    #[test]
    fn singleton_stacks_reproduce_the_legacy_artifacts_bit_for_bit() {
        // One spec built through the legacy .defenses() path, one through
        // explicit singleton stacks: CSV and JSON must be identical, and
        // the JSON must load back under the v3 header too.
        let defenses_list: Vec<Defense> = defenses::registry().iter().copied().take(4).collect();
        let legacy = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(defenses_list.clone())
            .build();
        let stacked = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defense_stacks(defenses_list.into_iter().map(DefenseStack::single))
            .build();
        let a = CampaignMatrix::run(&legacy).unwrap();
        let b = CampaignMatrix::run(&stacked).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());

        // v3 → v5 round trip: rewriting the version header yields exactly
        // what a pre-stack build wrote for singleton campaigns, and it
        // loads, re-serializes as v5, and feeds incremental reuse.
        let v3 = a.to_json().replacen("\"version\": 7", "\"version\": 3", 1);
        let loaded = CampaignMatrix::from_json(&v3).expect("v3 loads");
        assert_eq!(loaded.to_json(), a.to_json());
        let (_, report) = CampaignMatrix::run_incremental(&legacy, Some(&loaded), None).unwrap();
        assert_eq!(report.evaluated, 0);
    }
}

mod sharding_and_incremental {
    use proptest::prelude::*;
    use specgraph::campaign::{CampaignShard, Knob};
    use specgraph::prelude::*;
    use uarch::UarchConfig;

    /// A 3×2×2 subcube: big enough that every shard split is non-trivial,
    /// small enough for repeated property cases.
    fn grid_spec() -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(defenses::registry().iter().copied().take(2))
            .axis(Knob::CacheSets, [64usize, 32])
            .build()
    }

    #[test]
    fn acceptance_merge_is_bit_identical_for_2_3_7_shards() {
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(5))
            .defenses(defenses::registry().iter().copied().take(4))
            .axis(Knob::RobDepth, [32usize, 64])
            .build();
        let whole = CampaignMatrix::run(&spec).unwrap();
        for n in [2usize, 3, 7] {
            let parts = spec
                .shards(n)
                .iter()
                .map(|s| s.run(None).expect("shard runs"))
                .collect::<Vec<_>>();
            let merged = CampaignMatrix::merge(parts).expect("shards merge");
            assert_eq!(merged.to_csv(), whole.to_csv(), "CSV differs for n={n}");
            assert_eq!(merged.to_json(), whole.to_json(), "JSON differs for n={n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// merge(shards(n)) equals one single-shot run cell for cell, for
        /// arbitrary shard counts (including more shards than tasks).
        #[test]
        fn merge_of_any_shard_split_equals_single_shot(n in 1usize..40) {
            let spec = grid_spec();
            let whole = CampaignMatrix::run(&spec).unwrap();
            let shards = spec.shards(n);
            prop_assert_eq!(shards.len(), n);
            prop_assert_eq!(
                shards.iter().map(CampaignShard::len).sum::<usize>(),
                spec.total_tasks()
            );
            let parts = shards
                .iter()
                .map(|s| s.run(None).expect("shard runs"))
                .collect::<Vec<_>>();
            let merged = CampaignMatrix::merge(parts).expect("shards merge");
            prop_assert_eq!(merged.to_json(), whole.to_json());
        }

        /// Re-running an unchanged spec against its own saved matrix
        /// recomputes zero cells, regardless of shard-split history.
        #[test]
        fn incremental_rerun_against_saved_matrix_is_free(n in 1usize..8) {
            let spec = grid_spec();
            let parts = spec
                .shards(n)
                .iter()
                .map(|s| s.run(None).expect("shard runs"))
                .collect::<Vec<_>>();
            let merged = CampaignMatrix::merge(parts).expect("shards merge");
            let (again, report) =
                CampaignMatrix::run_incremental(&spec, Some(&merged), None).unwrap();
            prop_assert_eq!(report.evaluated, 0);
            prop_assert_eq!(report.reused, spec.total_tasks());
            prop_assert_eq!(again.to_json(), merged.to_json());
        }
    }

    #[test]
    fn knob_grid_campaign_hoists_graph_verdicts_to_attack_stack_pairs() {
        // Graph verdicts are config-invariant: a full run of an A×S×C
        // cube must compute exactly A×S strategy-sufficiency verdicts
        // (one per (attack, stack) pair), not A×S×C — the counter on the
        // report is the proof.
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(4))
            .defenses(defenses::registry().iter().copied().take(3))
            .axis(Knob::RobDepth, [16usize, 48])
            .axis(Knob::CacheWays, [4usize, 8])
            .build();
        let (a, d, c) = (spec.attacks.len(), spec.defenses.len(), spec.configs.len());
        assert_eq!((a, d, c), (4, 3, 4), "grid expands to 4 config slices");

        let (matrix, report) = CampaignMatrix::run_incremental(&spec, None, None).unwrap();
        assert_eq!(report.evaluated, spec.total_tasks());
        assert_eq!(
            report.graph_verdicts,
            a * d,
            "graph verdicts must be per (attack, stack) pair, not per cell"
        );

        // The hoisted verdict is genuinely shared: every config slice of a
        // pair carries the identical strategy_sufficient answer, and it
        // matches the per-pair evaluation path.
        for attack in &spec.attacks {
            for defense in &spec.defenses {
                let expected =
                    scenario::evaluate_stack(*attack, defense, &spec.configs[0].config).unwrap();
                for config in 0..c {
                    let cell = matrix
                        .cell(attack.info().name, defense.name(), config)
                        .expect("cell exists");
                    assert_eq!(
                        cell.evaluation.strategy_sufficient,
                        expected.strategy_sufficient,
                        "{} vs {} @ slice {config}",
                        defense.name(),
                        attack.info().name
                    );
                }
            }
        }

        // An unchanged incremental rerun reuses everything and computes
        // zero strategy verdicts.
        let (_, report) = CampaignMatrix::run_incremental(&spec, Some(&matrix), None).unwrap();
        assert_eq!(report.evaluated, 0);
        assert_eq!(report.graph_verdicts, 0);
    }

    #[test]
    fn acceptance_incremental_via_json_file_round_trip() {
        let spec = grid_spec();
        let first = CampaignMatrix::run(&spec).unwrap();
        let path =
            std::env::temp_dir().join(format!("specgraph-campaign-{}.json", std::process::id()));
        first.save_json(&path).expect("matrix saves");
        let loaded = CampaignMatrix::load_json(&path).expect("matrix loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.to_json(), first.to_json());

        // Unchanged spec against the *file-loaded* matrix: zero evaluations.
        let (_, report) = CampaignMatrix::run_incremental(&spec, Some(&loaded), None).unwrap();
        assert_eq!(report.evaluated, 0);

        // One knob value changes: exactly the new config slice is
        // recomputed (its baselines plus its cells), everything else reused.
        let changed = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(defenses::registry().iter().copied().take(2))
            .axis(Knob::CacheSets, [64usize, 16]) // 32 -> 16
            .build();
        let (matrix, report) =
            CampaignMatrix::run_incremental(&changed, Some(&loaded), None).unwrap();
        let (a, d, _) = matrix.shape();
        assert_eq!(
            report.evaluated,
            a + a * d,
            "only the sets=16 slice is stale"
        );
        assert_eq!(report.reused, changed.total_tasks() - report.evaluated);
        assert_eq!(
            matrix.to_json(),
            CampaignMatrix::run(&changed).unwrap().to_json(),
            "incremental result must equal a fresh run"
        );
    }
}
