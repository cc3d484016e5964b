//! Integration tests for the serving layer (`specgraph::serve`): the
//! memoized verdict store with single-flight simulate-on-miss, and the
//! resumable checkpointing scheduler.

use specgraph::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;

fn small_spec() -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .attacks(attacks::registry().iter().copied().take(4))
        .defenses(defenses::registry().iter().copied().take(3))
        .build()
}

fn grid_spec() -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .attacks(attacks::registry().iter().copied().take(3))
        .defenses(defenses::registry().iter().copied().take(2))
        .axis(campaign::Knob::RobDepth, [16usize, 64])
        .build()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specgraph-serve-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tempdir");
    dir
}

// ---------------------------------------------------------------------------
// Verdict store: ingest + hit path
// ---------------------------------------------------------------------------

#[test]
fn ingested_rows_answer_hits_without_simulation() {
    let spec = small_spec();
    let matrix = CampaignMatrix::run(&spec).unwrap();
    let store = VerdictStore::new();
    let ingested = store.ingest_matrix(&matrix);
    assert_eq!(ingested, matrix.baselines().len() + matrix.cells().len());
    assert_eq!(store.len(), ingested);

    let cfg = UarchConfig::default();
    // Every matrix cell must be answerable as a pure hit, with the
    // verdict the matrix recorded and the baseline's cycles attached.
    for cell in matrix.cells() {
        let answer = store
            .lookup(cell.attack, Some(&cell.evaluation.stack), &cfg)
            .expect("ingested cell is a hit");
        assert_eq!(answer.verdict, cell.evaluation.mechanism);
        assert_eq!(answer.graph, cell.evaluation.strategy_sufficient);
        assert_eq!(answer.source, serve::AnswerSource::Hit);
        assert!(answer.cycles.is_some(), "baseline row was ingested too");
    }
    for b in matrix.baselines() {
        let answer = store
            .lookup(b.info.name, None, &cfg)
            .expect("ingested baseline is a hit");
        let expect = if b.leaked {
            Verdict::Leaked
        } else {
            Verdict::Blocked
        };
        assert_eq!(answer.verdict, expect);
        assert_eq!(answer.graph, Some(b.graph_race));
        assert_eq!(answer.cycles, Some(b.cycles));
    }
    assert_eq!(store.simulations(), 0, "hit path never simulates");
    assert!(store.hits() >= ingested as u64);
}

#[test]
fn keyed_get_is_the_raw_hit_path() {
    let spec = small_spec();
    let matrix = CampaignMatrix::run(&spec).unwrap();
    let store = VerdictStore::new();
    store.ingest_matrix(&matrix);
    let cfg = UarchConfig::default();
    let cell = &matrix.cells()[0];
    let key = VerdictStore::cell_key(cell.attack, &cell.evaluation.stack, &cfg);
    match store.get(key) {
        Some(StoredVerdict::Cell { mechanism, .. }) => {
            assert_eq!(mechanism, cell.evaluation.mechanism);
        }
        other => panic!("expected a cell row, got {other:?}"),
    }
    assert_eq!(store.get(key ^ 1), None, "foreign keys miss");
}

// ---------------------------------------------------------------------------
// Simulate-on-miss + single-flight
// ---------------------------------------------------------------------------

#[test]
fn miss_simulates_and_matches_the_campaign_engine() {
    let spec = small_spec();
    let matrix = CampaignMatrix::run(&spec).unwrap();
    let store = VerdictStore::new();
    // Nothing ingested: every query is a miss that simulates, and the
    // simulated verdicts must agree with the campaign rows cell by cell.
    let cfg = UarchConfig::default();
    for cell in matrix.cells().iter().take(6) {
        let attack = *spec
            .attacks
            .iter()
            .find(|a| a.info().name == cell.attack)
            .unwrap();
        let answer = store
            .query(attack, Some(&cell.evaluation.stack), &cfg)
            .unwrap();
        assert_eq!(answer.verdict, cell.evaluation.mechanism);
        assert_eq!(answer.graph, cell.evaluation.strategy_sufficient);
        assert_eq!(answer.source, serve::AnswerSource::Simulated);
    }
    assert_eq!(store.simulations(), 6);
    // The same queries again are hits: memoized, no new simulations.
    for cell in matrix.cells().iter().take(6) {
        let attack = *spec
            .attacks
            .iter()
            .find(|a| a.info().name == cell.attack)
            .unwrap();
        let answer = store
            .query(attack, Some(&cell.evaluation.stack), &cfg)
            .unwrap();
        assert_eq!(answer.source, serve::AnswerSource::Hit);
    }
    assert_eq!(store.simulations(), 6);
}

#[test]
fn concurrent_misses_for_one_cell_run_exactly_one_simulation() {
    // The single-flight property test: N threads released by a barrier
    // all query the same missing cell; the counting hook must show
    // exactly one simulation, and every caller the identical verdict.
    const THREADS: usize = 8;
    let store = VerdictStore::new();
    let attack = attacks::registry()[0];
    let stack = DefenseStack::parse("kpti+retpoline").unwrap();
    let cfg = UarchConfig::default();
    let barrier = Barrier::new(THREADS);

    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (store, stack, cfg, barrier) = (&store, &stack, &cfg, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    store.query(attack, Some(stack), cfg).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        store.simulations(),
        1,
        "N concurrent misses for one cell must coalesce onto one flight"
    );
    let leader_count = answers
        .iter()
        .filter(|a| a.source == serve::AnswerSource::Simulated)
        .count();
    assert_eq!(leader_count, 1, "exactly one caller runs the simulation");
    for pair in answers.windows(2) {
        assert_eq!(pair[0].verdict, pair[1].verdict);
        assert_eq!(pair[0].graph, pair[1].graph);
    }
    // Afterwards the cell is memoized: one more query, still 1 simulation.
    let again = store.query(attack, Some(&stack), &cfg).unwrap();
    assert_eq!(again.source, serve::AnswerSource::Hit);
    assert_eq!(again.verdict, answers[0].verdict);
    assert_eq!(store.simulations(), 1);
}

#[test]
fn distinct_cells_do_not_coalesce() {
    // Single-flight keys on the cell fingerprint: concurrent misses for
    // *different* cells each run their own simulation.
    let store = VerdictStore::new();
    let cfg = UarchConfig::default();
    let stacks = ["kpti", "retpoline", "nda"];
    std::thread::scope(|scope| {
        for name in stacks {
            let (store, cfg) = (&store, &cfg);
            scope.spawn(move || {
                let stack = DefenseStack::parse(name).unwrap();
                store
                    .query(attacks::registry()[0], Some(&stack), cfg)
                    .unwrap();
            });
        }
    });
    assert_eq!(store.simulations(), 3);
}

// ---------------------------------------------------------------------------
// Checkpointing scheduler
// ---------------------------------------------------------------------------

#[test]
fn scheduled_run_is_bit_identical_to_single_shot() {
    let spec = grid_spec();
    let single = CampaignMatrix::run(&spec).unwrap();
    for workers in [1, 3] {
        let (scheduled, report) = Scheduler::new(&spec)
            .workers(workers)
            .chunk_tasks(5)
            .run()
            .unwrap();
        assert_eq!(scheduled.to_json(), single.to_json());
        assert_eq!(scheduled.to_csv(), single.to_csv());
        assert_eq!(report.chunks, spec.total_tasks().div_ceil(5));
        assert_eq!(report.executed, report.chunks, "no checkpoints: all run");
        assert_eq!(report.resumed, 0);
    }
}

#[test]
fn scheduler_streams_chunks_into_the_store() {
    let spec = small_spec();
    let store = VerdictStore::new();
    let (matrix, _) = Scheduler::new(&spec)
        .workers(2)
        .chunk_tasks(4)
        .run_observed(Some(&store), None)
        .unwrap();
    assert_eq!(store.len(), matrix.baselines().len() + matrix.cells().len());
    // Every cell the scheduler computed is now a hit.
    let cfg = UarchConfig::default();
    let cell = &matrix.cells()[0];
    let answer = store
        .lookup(cell.attack, Some(&cell.evaluation.stack), &cfg)
        .unwrap();
    assert_eq!(answer.verdict, cell.evaluation.mechanism);
    assert_eq!(store.simulations(), 0);
}

#[test]
fn killed_run_resumes_from_checkpoints_without_resimulating() {
    let spec = grid_spec();
    let dir = tempdir("resume");
    let single = CampaignMatrix::run(&spec).unwrap();

    // First run: complete, checkpointing every chunk.
    let (first, report) = Scheduler::new(&spec)
        .chunk_tasks(3)
        .checkpoint(&dir)
        .run()
        .unwrap();
    assert_eq!(first.to_json(), single.to_json());
    let chunks = report.chunks;
    assert!(chunks >= 4, "grid must split into several chunks");
    assert_eq!(report.executed, chunks);

    // Simulate a kill: delete one finished chunk and truncate another
    // mid-write (the half-written file a SIGKILL leaves behind).
    let victim = dir.join("chunk-00001.json");
    fs::remove_file(&victim).unwrap();
    let half = dir.join("chunk-00002.json");
    let text = fs::read_to_string(&half).unwrap();
    fs::write(&half, &text[..text.len() / 2]).unwrap();

    // Resume: only the two damaged chunks re-run, rest load from disk.
    let (second, report) = Scheduler::new(&spec)
        .chunk_tasks(3)
        .checkpoint(&dir)
        .run()
        .unwrap();
    assert_eq!(report.chunks, chunks);
    assert_eq!(report.resumed, chunks - 2);
    assert_eq!(report.executed, 2);
    assert_eq!(second.to_json(), single.to_json());
    assert_eq!(second.to_csv(), single.to_csv());
    // The half-written checkpoint is surfaced, not silently re-run; the
    // cleanly deleted one is an ordinary miss, so it is not "repaired".
    let [repair] = report.repaired.as_slice() else {
        panic!(
            "expected exactly one repaired checkpoint, got {:?}",
            report.repaired
        );
    };
    assert_eq!(repair.index, 2);
    assert_eq!(repair.path, half);
    assert!(
        repair.reason.contains("truncated"),
        "reason should surface the typed truncation: {}",
        repair.reason
    );

    // A third run resumes everything: zero cells re-simulated.
    let (third, report) = Scheduler::new(&spec)
        .chunk_tasks(3)
        .checkpoint(&dir)
        .run()
        .unwrap();
    assert_eq!(report.executed, 0);
    assert_eq!(report.resumed, chunks);
    assert!(report.repaired.is_empty());
    assert_eq!(third.to_json(), single.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_adopts_chunk_geometry_from_the_checkpoint_directory() {
    // A changed chunk-size flag must not re-tile a half-finished run:
    // the on-disk chunk count wins.
    let spec = small_spec();
    let dir = tempdir("geometry");
    let (_, report) = Scheduler::new(&spec)
        .chunk_tasks(4)
        .checkpoint(&dir)
        .run()
        .unwrap();
    let chunks = report.chunks;
    let (_, report) = Scheduler::new(&spec)
        .chunk_tasks(9) // different flag, same directory
        .checkpoint(&dir)
        .run()
        .unwrap();
    assert_eq!(report.chunks, chunks);
    assert_eq!(report.resumed, chunks);
    assert_eq!(report.executed, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_checkpoints_are_a_typed_mismatch() {
    // A checkpoint directory written by a different campaign must not be
    // silently re-run or merged — it is a hard, typed error.
    let dir = tempdir("foreign");
    Scheduler::new(&small_spec())
        .chunk_tasks(4)
        .checkpoint(&dir)
        .run()
        .unwrap();
    let err = Scheduler::new(&grid_spec())
        .chunk_tasks(4)
        .checkpoint(&dir)
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ServeError::CheckpointMismatch { .. }),
        "expected CheckpointMismatch, got {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn progress_observer_sees_every_chunk_once() {
    use std::sync::Mutex;
    let spec = small_spec();
    let seen = Mutex::new(Vec::new());
    let (_, report) = Scheduler::new(&spec)
        .workers(2)
        .chunk_tasks(4)
        .run_observed(
            None,
            Some(&|e: ChunkEvent| {
                seen.lock().unwrap().push(e.index);
            }),
        )
        .unwrap();
    let mut seen = seen.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(seen, (0..report.chunks).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// Throughput floor
// ---------------------------------------------------------------------------

/// The interactive-rate contract: the keyed hit path sustains at least a
/// million lookups per second. Measured only on optimized builds (CI runs
/// this with `--release`); the criterion `verdict_store` bench reports
/// the real (much higher) rate.
#[test]
#[cfg_attr(debug_assertions, ignore = "throughput floor holds for release builds")]
fn hit_path_sustains_a_million_lookups_per_second() {
    let spec = small_spec();
    let matrix = CampaignMatrix::run(&spec).unwrap();
    let store = VerdictStore::new();
    store.ingest_matrix(&matrix);
    let cfg = &spec.configs[0].config;
    let keys: Vec<u64> = spec
        .attacks
        .iter()
        .flat_map(|a| {
            let name = a.info().name;
            spec.defenses
                .iter()
                .map(move |s| VerdictStore::cell_key(name, s, cfg))
        })
        .collect();
    assert!(keys.iter().all(|k| store.get(*k).is_some()));

    const LOOKUPS: usize = 4_000_000;
    let start = std::time::Instant::now();
    let mut found = 0usize;
    for i in 0..LOOKUPS {
        if store.get(keys[i % keys.len()]).is_some() {
            found += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(found, LOOKUPS);
    #[allow(clippy::cast_precision_loss)] // counts << 2^52
    let rate = LOOKUPS as f64 / elapsed.as_secs_f64();
    assert!(
        rate >= 1_000_000.0,
        "hit path must sustain >=1M lookups/sec, measured {rate:.0}/sec"
    );
}
