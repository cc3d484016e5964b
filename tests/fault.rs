//! Integration tests for the fault-injection harness (`specgraph::fault`)
//! and the graceful-degradation paths it exercises: crash-consistent
//! artifacts under every write-prefix fault, panic quarantine with
//! incremental healing, cycle-budget timeouts, and the typed recovery of
//! half-written corpora and checkpoints.

use specgraph::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// The fault-injection write layer is process-global (one armed plan at a
/// time), so every test in this binary that writes artifacts — armed or
/// not — takes this lock first. Without it a parallel test's innocent
/// save could absorb a sweep's injected fault.
static IO_LOCK: Mutex<()> = Mutex::new(());

fn io_lock() -> std::sync::MutexGuard<'static, ()> {
    IO_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specgraph-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// 2 attacks × 1 defense × 2 ROB depths = 8 tasks; the first attack is
/// the given one (a `PanickingAttack` double in the quarantine tests).
fn spec_with(first: &'static dyn Attack) -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .attacks([
            first,
            attacks::find(attacks::names::RETBLEED).expect("registry attack"),
        ])
        .defenses([*defenses::find("NDA").expect("catalog defense")])
        .axis(campaign::Knob::RobDepth, [16usize, 64])
        .threads(1)
        .build()
}

fn meltdown() -> &'static dyn Attack {
    attacks::find(attacks::names::MELTDOWN).expect("registry attack")
}

// ---------------------------------------------------------------------------
// Quarantine: panic isolation, typed rows, incremental healing
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_quarantines_instead_of_aborting_and_heals_incrementally() {
    let _io = io_lock();
    let oracle = CampaignMatrix::run(&spec_with(meltdown())).unwrap();

    // A panicking Meltdown is quarantined, the degraded matrix
    // round-trips, and an incremental re-run with the fault removed heals
    // it back to `oracle`.
    let double = PanickingAttack::wrap(meltdown());
    let spec = spec_with(double as &'static dyn Attack);
    let matrix = CampaignMatrix::run(&spec).expect("campaign completes despite the panicking cell");

    // Every Meltdown row (baseline + NDA cell, two configs each) is a
    // typed quarantined row; the sibling attack is untouched.
    assert_eq!(matrix.quarantined(), 4);
    assert_eq!(matrix.timed_out(), 0);
    assert_eq!(
        matrix.baselines().len() + matrix.cells().len(),
        oracle.baselines().len() + oracle.cells().len(),
        "degradation must not drop rows"
    );
    for cell in matrix.cells() {
        match &cell.outcome {
            CellOutcome::Quarantined { reason } => {
                assert!(reason.contains("injected fault"), "{reason}");
                // Machine truth is gone, but the static graph verdicts
                // survive degradation.
                assert_eq!(cell.evaluation.mechanism, Verdict::GraphOnly);
            }
            CellOutcome::Ok => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    // The degraded schema round-trips: save, load, same degraded counts.
    let dir = tempdir("quarantine");
    let path = dir.join("matrix.json");
    matrix.save_json(&path).unwrap();
    let loaded = CampaignMatrix::load_json(&path).unwrap();
    assert_eq!(loaded.quarantined(), 4);
    assert_eq!(loaded.to_json(), matrix.to_json());

    // Remove the fault and re-run incrementally: exactly the quarantined
    // rows re-simulate, and the healed matrix equals the fault-free one.
    double.disarm();
    let (healed, report) = Scheduler::new(&spec).prev(&matrix).run().unwrap();
    assert_eq!(report.evaluated, 4, "only quarantined rows re-run");
    assert_eq!(report.reused, 4);
    assert_eq!(healed.quarantined(), 0);
    assert_eq!(healed.to_json(), oracle.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_quarantined_shared_run_degrades_every_row_that_shares_it() {
    // NDA and SpecShield both write `nda`, so on the `hardening=nda` slice
    // the baseline and both cells are one machine run, as are both cells
    // on the unhardened slice: one panic quarantines every sharing row.
    let _io = io_lock();
    let spec_for = |first: &'static dyn Attack| {
        CampaignSpec::builder(UarchConfig::default())
            .attacks([
                first,
                attacks::find(attacks::names::RETBLEED).expect("registry attack"),
            ])
            .defenses(
                [defenses::names::NDA, defenses::names::SPECSHIELD]
                    .map(|n| *defenses::find(n).expect("catalog defense")),
            )
            .axis(campaign::Knob::Hardening, [Hardening::None, Hardening::Nda])
            .threads(2)
            .build()
    };
    let oracle = CampaignMatrix::run(&spec_for(meltdown())).unwrap();

    let double = PanickingAttack::wrap(meltdown());
    let spec = spec_for(double as &'static dyn Attack);
    let (matrix, report) = Scheduler::new(&spec).run().unwrap();
    // Per attack: the unhardened baseline, plus one `nda` machine shared
    // by the other five rows.
    assert_eq!(report.evaluated, 12);
    assert_eq!(report.machine_runs, 4);
    assert_eq!(matrix.quarantined(), 6);
    let name = meltdown().info().name;
    let reasons: Vec<&CellOutcome> = matrix
        .baselines()
        .iter()
        .filter(|b| b.info.name == name)
        .map(|b| &b.outcome)
        .chain(
            matrix
                .cells()
                .iter()
                .filter(|c| c.attack == name)
                .map(|c| &c.outcome),
        )
        .collect();
    assert_eq!(reasons.len(), 6);
    for outcome in &reasons {
        assert!(
            matches!(outcome, CellOutcome::Quarantined { reason } if reason.contains("injected fault")),
            "{outcome:?}"
        );
    }
    let nda_slice = 1;
    let nda_baseline = matrix.baseline(name, nda_slice).expect("baseline row");
    for defense in [defenses::names::NDA, defenses::names::SPECSHIELD] {
        for config in 0..2 {
            let cell = matrix.cell(name, defense, config).expect("cell row");
            assert_eq!(cell.outcome, nda_baseline.outcome, "{defense} @ {config}");
        }
    }

    // Healing re-runs exactly the quarantined rows, on their two runs.
    double.disarm();
    let (healed, report) = Scheduler::new(&spec).prev(&matrix).run().unwrap();
    assert_eq!(report.evaluated, 6, "only quarantined rows re-run");
    assert_eq!(report.machine_runs, 2);
    assert_eq!(healed.quarantined(), 0);
    assert_eq!(healed.to_json(), oracle.to_json());
}

#[test]
fn scheduler_completes_with_quarantined_cells_and_store_skips_them() {
    let _io = io_lock();
    let double = PanickingAttack::wrap(meltdown());
    let spec = spec_with(double as &'static dyn Attack);

    let (matrix, report) = Scheduler::new(&spec)
        .workers(2)
        .chunk_tasks(2)
        .run()
        .unwrap();
    assert_eq!(report.chunks, 4);
    assert_eq!(matrix.quarantined(), 4);

    // Memoized verdicts must stay machine truth: quarantined rows are
    // not ingested, so a later fault-free run can heal the store.
    let store = VerdictStore::new();
    let total = matrix.baselines().len() + matrix.cells().len();
    assert_eq!(store.ingest_matrix(&matrix), total - 4);
    assert_eq!(store.len(), total - 4);
}

#[test]
fn exhausted_cycle_budget_degrades_to_timed_out_rows() {
    let _io = io_lock();
    let config = UarchConfig {
        max_cycles: 3, // no attack finishes in three cycles
        ..UarchConfig::default()
    };
    let mut spec = CampaignSpec::builder(config)
        .attacks([meltdown()])
        .defenses([*defenses::find("NDA").expect("catalog defense")])
        .threads(1)
        .build();

    // Without degradation the budget is a hard error...
    let err = CampaignMatrix::run(&spec).unwrap_err();
    assert!(err.to_string().contains("cycle"), "{err}");

    // ...with it, every row becomes a typed timed-out row that keeps its
    // graph verdicts and round-trips through the schema.
    spec.degrade_timeouts = true;
    let matrix = CampaignMatrix::run(&spec).unwrap();
    assert_eq!(matrix.timed_out(), 2);
    assert_eq!(matrix.quarantined(), 0);
    for cell in matrix.cells() {
        assert_eq!(cell.outcome, CellOutcome::TimedOut { limit: 3 });
    }
    let reloaded = CampaignMatrix::from_json(&matrix.to_json()).unwrap();
    assert_eq!(reloaded.timed_out(), 2);
    assert_eq!(reloaded.to_json(), matrix.to_json());

    // A timeout is deterministic up to its limit: the NDA cell differs
    // from the baseline only in `nda`, which three cycles of Meltdown
    // never read, so both rows share one machine run.
    let (scheduled, report) = Scheduler::new(&spec).run().unwrap();
    assert_eq!(report.machine_runs, 1);
    assert_eq!(scheduled.to_json(), matrix.to_json());
}

#[test]
fn fault_free_matrices_still_load_as_schema_v5() {
    let _io = io_lock();
    let matrix = CampaignMatrix::run(&spec_with(meltdown())).unwrap();
    let json = matrix.to_json();
    // A fault-free v7 document differs from v5 only in the header.
    let v5 = json.replacen("\"version\": 7", "\"version\": 5", 1);
    assert_ne!(v5, json, "version literal must be present");
    let loaded = CampaignMatrix::from_json(&v5).unwrap();
    assert_eq!(loaded.to_json(), json);
}

// ---------------------------------------------------------------------------
// Crash sweeps: every write prefix leaves a resumable state
// ---------------------------------------------------------------------------

#[test]
fn scheduler_run_is_crash_consistent_at_every_write_prefix() {
    let _io = io_lock();
    // The plan seed picks the fault kind injected at each write.
    for seed in [0xC0FFEE, 42] {
        let dir = tempdir(&format!("sweep-serve-{seed}"));
        // Every resume reuses each intact checkpoint and covers every chunk.
        let report =
            fault::sweep_scheduler(&spec_with(meltdown()), &dir, seed).expect("sweep passes");
        // 4 chunk checkpoints + 1 final matrix.
        assert_eq!(report.writes, 5, "seed {seed}");
        assert_eq!(report.fired, 5, "seed {seed}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn fuzz_corpus_run_is_crash_consistent_at_every_checkpoint_cadence() {
    let _io = io_lock();
    // (fuzz seed, budget, cadence, plan seed): checkpoints after
    // candidates 8 and 16 of 24, or 16 and 32 of 48, plus the final save.
    for (seed, budget, checkpoint_every, plan_seed) in [(11, 24, 8, 0xFA17), (42, 48, 16, 42)] {
        let cfg = FuzzConfig {
            seed,
            budget,
            checkpoint_every,
            threads: 1,
            ..FuzzConfig::default()
        };
        let dir = tempdir(&format!("sweep-fuzz-{seed}"));
        // Every resume re-classifies exactly the candidates the surviving
        // corpus does not cover.
        let report = fault::sweep_fuzz(&cfg, &dir, plan_seed).expect("sweep passes");
        assert_eq!(report.writes, 3, "seed {seed}");
        assert_eq!(report.fired, 3, "seed {seed}");
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Typed recovery of half-written artifacts
// ---------------------------------------------------------------------------

#[test]
fn half_written_corpus_is_reported_recoverable_not_a_parse_error() {
    let _io = io_lock();
    let cfg = FuzzConfig {
        seed: 5,
        budget: 16,
        threads: 1,
        ..FuzzConfig::default()
    };
    let dir = tempdir("torn-corpus");
    let oracle = fuzz::fuzz(&cfg, Some(&dir)).unwrap();
    assert!(oracle.recovered.is_none());
    let bytes = fs::read(Corpus::path_in(&dir)).unwrap();

    // Tear the corpus mid-write, as a crash would.
    fs::write(Corpus::path_in(&dir), &bytes[..bytes.len() / 2]).unwrap();
    let err = Corpus::load(&dir).unwrap_err();
    assert!(
        err.is_recoverable(),
        "truncation is typed, not generic: {err}"
    );

    // The loop re-classifies from budget zero and says so.
    let healed = fuzz::fuzz(&cfg, Some(&dir)).unwrap();
    let why = healed.recovered.expect("recovery is reported");
    assert!(why.contains("truncated"), "{why}");
    assert_eq!(healed.newly_classified, cfg.budget);
    assert_eq!(fs::read(Corpus::path_in(&dir)).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}
