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

fn wipe(dir: &PathBuf) -> Result<(), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| e.to_string())
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

    let double = PanickingAttack::wrap(meltdown());
    let mut spec = spec_with(double as &'static dyn Attack);
    spec.resilience.retries = 1;
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
    let (healed, report) = CampaignMatrix::run_incremental(&spec, Some(&matrix), None).unwrap();
    assert_eq!(report.evaluated, 4, "only quarantined rows re-run");
    assert_eq!(report.reused, 4);
    assert_eq!(healed.quarantined(), 0);
    assert_eq!(healed.to_json(), oracle.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scheduler_completes_with_quarantined_cells_and_store_skips_them() {
    let _io = io_lock();
    let double = PanickingAttack::wrap(meltdown());
    let mut spec = spec_with(double as &'static dyn Attack);
    spec.resilience.retries = 0;

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
    spec.resilience.degrade_timeouts = true;
    let matrix = CampaignMatrix::run(&spec).unwrap();
    assert_eq!(matrix.timed_out(), 2);
    assert_eq!(matrix.quarantined(), 0);
    for cell in matrix.cells() {
        assert_eq!(cell.outcome, CellOutcome::TimedOut { limit: 3 });
    }
    let reloaded = CampaignMatrix::from_json(&matrix.to_json()).unwrap();
    assert_eq!(reloaded.timed_out(), 2);
    assert_eq!(reloaded.to_json(), matrix.to_json());
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
    let spec = spec_with(meltdown());
    let dir = tempdir("sweep-serve");
    let ckpt = dir.join("ckpt");
    let out = dir.join("matrix.json");

    let run = || {
        Scheduler::new(&spec)
            .workers(1)
            .chunk_tasks(2)
            .checkpoint(&ckpt)
            .run()
            .map_err(|e| e.to_string())
    };
    let report = fault::crash_sweep(
        0xC0FFEE,
        || wipe(&dir),
        || {
            let (matrix, _) = run()?;
            fault::write_atomic(&out, &matrix.to_json()).map_err(|e| e.to_string())?;
            fs::read(&out).map_err(|e| e.to_string())
        },
        |k| {
            // Zero re-simulation of completed cells: every checkpoint
            // that still loads must be resumed, not re-run.
            let intact = (0..4)
                .filter(|i| {
                    CampaignPart::load_checkpoint_json(ckpt.join(format!("chunk-{i:05}.json")))
                        .is_ok()
                })
                .count();
            let (matrix, rep) = run()?;
            if rep.resumed < intact {
                return Err(format!(
                    "write #{k}: resumed {} of {intact} intact checkpoint(s)",
                    rep.resumed
                ));
            }
            fault::write_atomic(&out, &matrix.to_json()).map_err(|e| e.to_string())?;
            fs::read(&out).map_err(|e| e.to_string())
        },
    )
    .expect("sweep passes");
    // 4 chunk checkpoints + 1 final matrix.
    assert_eq!(report.writes, 5);
    assert_eq!(report.fired, 5);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_corpus_run_is_crash_consistent_at_every_checkpoint_cadence() {
    let _io = io_lock();
    let cfg = FuzzConfig {
        seed: 11,
        budget: 24,
        checkpoint_every: 8,
        threads: 1,
        ..FuzzConfig::default()
    };
    let dir = tempdir("sweep-fuzz");

    let report = fault::crash_sweep(
        0xFA17,
        || wipe(&dir),
        || {
            fuzz::fuzz(&cfg, Some(&dir)).map_err(|e| e.to_string())?;
            fs::read(Corpus::path_in(&dir)).map_err(|e| e.to_string())
        },
        |k| {
            let on_disk = match Corpus::load(&dir) {
                Ok(Some(corpus)) => corpus.classified,
                Ok(None) => 0,
                Err(e) if e.is_recoverable() => 0,
                Err(e) => return Err(format!("write #{k}: unrecoverable corpus: {e}")),
            };
            let resumed = fuzz::fuzz(&cfg, Some(&dir)).map_err(|e| e.to_string())?;
            // Zero re-classification of candidates the surviving corpus
            // already covers.
            if resumed.newly_classified != cfg.budget - on_disk {
                return Err(format!(
                    "write #{k}: re-classified {} candidate(s), expected {}",
                    resumed.newly_classified,
                    cfg.budget - on_disk
                ));
            }
            fs::read(Corpus::path_in(&dir)).map_err(|e| e.to_string())
        },
    )
    .expect("sweep passes");
    // Checkpoints after candidates 8 and 16, plus the final save at 24.
    assert_eq!(report.writes, 3);
    let _ = fs::remove_dir_all(&dir);
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
