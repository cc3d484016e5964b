//! Campaign-engine acceptance: one `core::campaign` run must reproduce
//! the Table-III × defense-catalog verdicts of the per-pair
//! `scenario::evaluate_stack` path, cell for cell, and stay deterministic
//! under parallelism.

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
            let stack = DefenseStack::single(*defense);
            let expected = scenario::evaluate_stack(*attack, &stack, &base).unwrap();
            let cell = cells.next().expect("campaign covers the full matrix");
            assert_eq!(cell.attack, attack.info().name);
            assert_eq!(cell.defense, stack.name());
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
    let cells = default_matrix().cells();
    assert_eq!(
        cells.len(),
        attacks::registry().len() * defenses::registry().len()
    );
    assert_eq!(cells[0].attack, attacks::names::SPECTRE_V1);
    assert_eq!(cells[0].defense, defenses::names::LFENCE);
    assert_eq!(cells[1].attack, attacks::names::SPECTRE_V1);
    assert_eq!(
        cells[defenses::registry().len()].defense,
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

/// A receive sweep that left each missed slot filled evicted its own
/// signal on small caches: only 48 of these 198 baselines leaked. The
/// Flush+Reload receive flushes each slot after timing it, so every
/// undefended attack leaks down to 8 sets × 2 ways.
#[test]
fn undefended_registry_leaks_on_small_caches() {
    use specgraph::campaign::Knob;
    let spec = CampaignSpec::builder(UarchConfig::default())
        .defenses([])
        .axis(Knob::CacheSets, [64usize, 16, 8])
        .axis(Knob::CacheWays, [8usize, 4, 2])
        .build();
    let matrix = CampaignMatrix::run(&spec).unwrap();
    assert_eq!(matrix.baselines().len(), attacks::registry().len() * 9);
    let blocked: Vec<String> = matrix
        .baselines()
        .iter()
        .filter(|b| !b.leaked)
        .map(|b| format!("{} @ {}", b.info.name, matrix.configs[b.config]))
        .collect();
    assert!(
        blocked.is_empty(),
        "undefended runs read blocked: {blocked:?}"
    );
}

#[test]
fn filter_extracts_strategy_slices() {
    let matrix = CampaignMatrix::run(&CampaignSpec::default()).unwrap();
    let send_cells = matrix.filter(|cell| {
        let stack = matrix.defenses.iter().find(|s| s.name() == cell.defense);
        stack.is_some_and(|s| s.strategies().eq([Strategy::PreventSend]))
    });
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
        let (_, report) = Scheduler::new(&legacy).prev(&loaded).run().unwrap();
        assert_eq!(report.evaluated, 0);
    }
}

mod sharding_and_incremental {
    use proptest::prelude::*;
    use specgraph::campaign::Knob;
    use specgraph::prelude::*;
    use uarch::UarchConfig;

    /// Every chunk of `spec` cut into `n`, each run on its own as a shard.
    fn shards(spec: &CampaignSpec, n: usize) -> Vec<CampaignPart> {
        (0..n)
            .map(|i| Scheduler::new(spec).run_chunk(i, n).expect("shard runs"))
            .collect()
    }

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
            let merged = CampaignMatrix::merge(shards(&spec, n)).expect("shards merge");
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
            let parts = shards(&spec, n);
            prop_assert_eq!(
                parts.iter().map(CampaignPart::len).sum::<usize>(),
                spec.total_tasks()
            );
            let merged = CampaignMatrix::merge(parts).expect("shards merge");
            prop_assert_eq!(merged.to_json(), whole.to_json());
        }

        /// Re-running an unchanged spec against its own saved matrix
        /// recomputes zero cells, regardless of shard-split history.
        #[test]
        fn incremental_rerun_against_saved_matrix_is_free(n in 1usize..8) {
            let spec = grid_spec();
            let merged = CampaignMatrix::merge(shards(&spec, n)).expect("shards merge");
            let (again, report) =
                Scheduler::new(&spec).prev(&merged).run().unwrap();
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

        let (matrix, report) = Scheduler::new(&spec).run().unwrap();
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
        let (_, report) = Scheduler::new(&spec).prev(&matrix).run().unwrap();
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
        let (_, report) = Scheduler::new(&spec).prev(&loaded).run().unwrap();
        assert_eq!(report.evaluated, 0);

        // One knob value changes: exactly the new config slice is
        // recomputed (its baselines plus its cells), everything else reused.
        let changed = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(defenses::registry().iter().copied().take(2))
            .axis(Knob::CacheSets, [64usize, 16]) // 32 -> 16
            .build();
        let (matrix, report) = Scheduler::new(&changed).prev(&loaded).run().unwrap();
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

/// One simulation per distinct (attack, effective config): tasks whose
/// defense or hardening sets the same machine knobs share a run, and the
/// rows must be exactly what per-task evaluation would give.
mod shared_runs {
    use specgraph::prelude::*;
    use std::sync::Mutex;
    use uarch::UarchConfig;

    /// Singletons covering every alias group of the catalog (fencing,
    /// the NDA family, predictor flushing, taint tracking) plus one
    /// graph-only defense, which never simulates.
    fn aliasing_defenses() -> Vec<Defense> {
        use defenses::names::*;
        [
            LFENCE,
            MFENCE,
            CONTEXT_SENSITIVE_FENCING,
            NDA,
            SPECSHIELD,
            CONTEXT,
            IBRS,
            STIBP,
            STT,
            SPECSHIELD_ERP,
            ADDRESS_MASKING_COARSE,
        ]
        .iter()
        .map(|n| *defenses::find(n).expect("catalog defense"))
        .collect()
    }

    fn aliasing_spec(threads: usize) -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .defenses(aliasing_defenses())
            .axis(Knob::Hardening, Hardening::figure8())
            .threads(threads)
            .build()
    }

    /// The preset bundles plus KPTI, an all-software stack and NDA: one
    /// warm machine per worker runs heterogeneous bundles back to back,
    /// and the graph-only cells must neither dirty nor depend on it.
    fn bundle_spec() -> CampaignSpec {
        let extra = ["kpti", "mask-coarse", "nda"].map(|t| DefenseStack::parse(t).unwrap());
        let stacks = defenses::presets::all().into_iter().map(|(_, s)| s);
        CampaignSpec::builder(UarchConfig::default())
            .defense_stacks(stacks.chain(extra))
            .threads(2)
            .build()
    }

    /// The full registry × catalog × Figure-8 cube.
    fn figure8_cube_spec() -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::Hardening, Hardening::figure8())
            .threads(2)
            .build()
    }

    /// Runs `spec` and checks every row against cold per-task evaluation:
    /// a fresh machine per baseline, [`defenses::verify_stack`]'s run per
    /// cell. A matrix cell publishes no cycle count, but when its machine
    /// config is a baseline's (the two tasks share a run), the baseline's
    /// published cycles must be the cell's cold cycles too.
    fn run_matching_cold_reference(spec: &CampaignSpec) -> CampaignMatrix {
        let matrix = CampaignMatrix::run(spec).unwrap();
        for b in matrix.baselines() {
            let attack = attacks::find(b.info.name).expect("registry attack");
            let cold = attack.run(&spec.configs[b.config].config).unwrap();
            let what = format!("{} @ {}", b.info.name, spec.configs[b.config].name);
            assert_eq!(b.leaked, cold.leaked, "{what} leak verdict");
            assert_eq!(b.recovered, cold.recovered, "{what} recovery");
            assert_eq!(b.cycles, cold.cycles, "{what} cycle count");
        }
        let mut shared_cycles = 0;
        for cell in matrix.cells() {
            let attack = attacks::find(cell.attack).expect("registry attack");
            let stack = matrix
                .defenses
                .iter()
                .find(|s| s.name() == cell.defense)
                .expect("a cell's stack is on the defense axis");
            let config = &spec.configs[cell.config];
            let what = format!("{} × {} @ {}", cell.attack, cell.defense, config.name);
            let Some(effective) = stack.apply(&config.config) else {
                assert_eq!(cell.evaluation.mechanism, Verdict::GraphOnly, "{what}");
                continue;
            };
            let cold = attack.run(&effective).unwrap();
            assert_eq!(cell.evaluation.mechanism, Verdict::of_run(&cold), "{what}");
            let sharing = spec.configs.iter().position(|c| c.config == effective);
            if let Some(slice) = sharing {
                let b = matrix.baseline(cell.attack, slice).expect("baseline row");
                assert_eq!(b.cycles, cold.cycles, "{what} cycle count");
                shared_cycles += 1;
            }
        }
        assert!(
            spec.configs.len() == 1 || shared_cycles > 0,
            "no cell shares a baseline's machine"
        );
        matrix
    }

    #[test]
    fn shared_runs_match_per_task_reference() {
        run_matching_cold_reference(&figure8_cube_spec());
        run_matching_cold_reference(&bundle_spec());
        let matrix = run_matching_cold_reference(&aliasing_spec(2));
        let serial = CampaignMatrix::run(&aliasing_spec(1)).unwrap();
        assert_eq!(serial.to_json(), matrix.to_json());
    }

    #[test]
    fn figure8_grid_simulates_each_distinct_machine_once() {
        // Per attack, 140 simulated tasks run on 66 distinct machine
        // configs, and most of those differ only in switches the attack
        // never reads: far fewer machines run, as many at one thread as
        // at two.
        let spec = |threads| {
            CampaignSpec::builder(UarchConfig::default())
                .axis(Knob::Hardening, Hardening::figure8())
                .threads(threads)
                .build()
        };
        for threads in [1, 2] {
            let spec = spec(threads);
            let (_, report) = Scheduler::new(&spec).run().unwrap();
            assert_eq!(report.evaluated, spec.total_tasks());
            assert_eq!(report.machine_runs, 398, "threads {threads}");
        }
    }

    #[test]
    fn aliasing_and_graph_only_stacks_add_no_machine_run() {
        // lfence and mfence write the same overlay; lfence+mask-coarse
        // adds a graph-only member to it; mask-coarse alone is
        // graph-only. So the wide spec runs no machine the narrow one
        // does not.
        let spec = |stacks: &[&str]| {
            CampaignSpec::builder(UarchConfig::default())
                .attacks(attacks::registry().iter().copied().take(4))
                .defense_stacks(stacks.iter().map(|t| DefenseStack::parse(t).unwrap()))
                .axis(Knob::Hardening, [Hardening::None, Hardening::Nda])
                .threads(2)
                .build()
        };
        let narrow = spec(&["lfence", "nda"]);
        let wide = spec(&[
            "lfence",
            "mfence",
            "lfence+mask-coarse",
            "nda",
            "mask-coarse",
        ]);
        let (_, narrow_report) = Scheduler::new(&narrow).run().unwrap();
        let (matrix, report) = Scheduler::new(&wide).run().unwrap();
        assert_eq!(report.evaluated, wide.total_tasks());
        assert_eq!(report.machine_runs, narrow_report.machine_runs);
        let graph_only: Vec<_> = matrix
            .cells()
            .iter()
            .filter(|c| c.defense == defenses::names::ADDRESS_MASKING_COARSE)
            .collect();
        assert_eq!(graph_only.len(), 4 * 2);
        assert!(graph_only
            .iter()
            .all(|c| c.evaluation.mechanism == Verdict::GraphOnly));
    }

    #[test]
    fn a_non_switch_difference_is_never_shared() {
        // The ROB depth is no switch: every baseline runs its own machine.
        let spec = CampaignSpec::builder(UarchConfig::default())
            .defense_stacks([])
            .axis(Knob::RobDepth, [16usize, 64])
            .build();
        let (_, report) = Scheduler::new(&spec).run().unwrap();
        assert_eq!(report.evaluated, 2 * attacks::registry().len());
        assert_eq!(report.machine_runs, report.evaluated);
    }

    #[test]
    fn progress_sees_every_task_once_graph_only_included() {
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(aliasing_defenses())
            .axis(Knob::Hardening, [Hardening::None, Hardening::Nda])
            .threads(2)
            .build();
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        let observer = |e: TaskEvent| events.lock().unwrap().push(e);
        let (_, report) = Scheduler::new(&spec).progress(&observer).run().unwrap();
        assert!(report.machine_runs < report.evaluated, "the spec aliases");
        let seen = events.into_inner().unwrap();
        let total = spec.total_tasks();
        assert!(seen.iter().all(|e| e.total == total));
        let mut completed: Vec<usize> = seen.iter().map(|e| e.completed).collect();
        completed.sort_unstable();
        assert_eq!(completed, (1..=total).collect::<Vec<_>>());
        // One event per task: each config slice is reported as often as it
        // has tasks, graph-only cells included.
        for config in 0..spec.configs.len() {
            let per_slice = seen.iter().filter(|e| e.config == config).count();
            assert_eq!(per_slice, total / spec.configs.len(), "slice {config}");
        }
    }
}
