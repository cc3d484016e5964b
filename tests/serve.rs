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

/// A cell key the way it was first defined: FNV-1a over `"cell\0"`, the
/// attack, the stack's name and its joined strategy token (each behind a
/// NUL), then the config digest's little-endian bytes. Saved matrices carry
/// these keys, so the store must keep producing them bit for bit.
fn reference_cell_key(attack: &str, stack: &DefenseStack, cfg: &UarchConfig) -> u64 {
    let (token, digest) = (
        stack.strategy_token(),
        campaign::config_digest(cfg).to_le_bytes(),
    );
    let fields: [&[u8]; 8] = [
        b"cell\0",
        attack.as_bytes(),
        b"\0",
        stack.name().as_bytes(),
        b"\0",
        token.as_bytes(),
        b"\0",
        &digest,
    ];
    fields
        .iter()
        .flat_map(|f| f.iter())
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A cell's defense stack, looked up by name on the matrix's axis.
fn stack_of<'m>(matrix: &'m CampaignMatrix, cell: &campaign::MatrixCell) -> &'m DefenseStack {
    matrix
        .defenses
        .iter()
        .find(|s| s.name() == cell.defense)
        .expect("a cell's stack is on the defense axis")
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
            .lookup(cell.attack, Some(stack_of(&matrix, cell)), &cfg)
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
    let key = VerdictStore::cell_key(cell.attack, stack_of(&matrix, cell), &cfg);
    assert_eq!(store.get(key), Some(StoredVerdict::Cell(cell.evaluation)));
    assert_eq!(store.get(key ^ 1), None, "foreign keys miss");

    // Across a config axis too, every seeded (attack, stack, config) key
    // is a keyed hit.
    let grid = grid_spec();
    store.ingest_matrix(&CampaignMatrix::run(&grid).unwrap());
    for a in &grid.attacks {
        for s in &grid.defenses {
            for nc in &grid.configs {
                let key = VerdictStore::cell_key(a.info().name, s, &nc.config);
                assert!(store.get(key).is_some(), "{} / {s} missed", a.info().name);
            }
        }
    }

    // The key bytes are pinned: every preset bundle, every catalog
    // singleton and a stack whose members repeat a strategy key exactly as
    // the joined-token definition does, and so do the campaign's own rows.
    let repeats = DefenseStack::parse("kpti+retpoline+ibpb+rsb-stuffing").unwrap();
    assert_eq!(repeats.strategy_token(), "prevent_access+clear_predictions");
    let stacks: Vec<DefenseStack> = defenses::presets::all()
        .into_iter()
        .map(|(_, s)| s)
        .chain(
            defenses::registry()
                .iter()
                .map(|d| DefenseStack::single(*d)),
        )
        .chain([repeats])
        .collect();
    let tweaked = UarchConfig::builder().rob_capacity(16).nda(true).build();
    for s in &stacks {
        for c in [&cfg, &tweaked] {
            assert_eq!(
                VerdictStore::cell_key(cell.attack, s, c),
                reference_cell_key(cell.attack, s, c),
                "{s}"
            );
        }
    }
    for c in matrix.cells() {
        let reference = reference_cell_key(c.attack, stack_of(&matrix, c), &cfg);
        assert_eq!(c.fingerprint, reference, "{} / {}", c.attack, c.defense);
    }

    // The digest memo keys on the config's contents: a separately built
    // equal config hits the row it seeded, a one-knob tweak misses. Each
    // is asked twice, so the second answer comes from the memo.
    let stack = stack_of(&matrix, cell);
    let rebuilt = UarchConfig::builder().build();
    assert_eq!(rebuilt, cfg);
    let one_knob = UarchConfig {
        rob_capacity: cfg.rob_capacity + 1,
        ..cfg.clone()
    };
    for _ in 0..2 {
        let answer = store
            .lookup(cell.attack, Some(stack), &rebuilt)
            .expect("equal config hits");
        assert_eq!(answer.verdict, cell.evaluation.mechanism);
        assert!(store.lookup(cell.attack, Some(stack), &one_knob).is_none());
    }
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
            .query(attack, Some(stack_of(&matrix, cell)), &cfg)
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
            .query(attack, Some(stack_of(&matrix, cell)), &cfg)
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

#[test]
fn a_panicking_leader_releases_its_flight() {
    // A miss whose simulation panics must not wedge its key: the leader
    // and a follower get a typed error, a retry fails the same way instead
    // of blocking on the dead flight, and once the fault is gone the query
    // simulates and answers.
    let inner = attacks::registry()[0];
    let double = PanickingAttack::wrap(inner);
    let stack = DefenseStack::parse("kpti").unwrap();
    let cfg = UarchConfig::default();
    let reference = VerdictStore::new()
        .query(inner, Some(&stack), &cfg)
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let store = VerdictStore::new();
        let query = || store.query(double, Some(&stack), &cfg);
        let barrier = Barrier::new(2);
        let armed = std::thread::scope(|scope| {
            let follower = scope.spawn(|| {
                barrier.wait();
                query()
            });
            barrier.wait();
            [query(), follower.join().unwrap(), query()]
        });
        double.disarm();
        let _ = tx.send((armed, query(), store.len()));
    });
    let (armed, healed, rows) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("a query still blocked after 10 s");
    client.join().unwrap();
    for result in armed {
        assert!(
            matches!(&result, Err(ServeError::Panicked(reason)) if reason.contains("injected fault")),
            "{result:?}"
        );
    }
    let answer = healed.unwrap();
    assert_eq!(answer.source, serve::AnswerSource::Simulated);
    assert_eq!(
        (answer.verdict, answer.graph),
        (reference.verdict, reference.graph)
    );
    assert_eq!(rows, 1, "only the healed answer is memoized");
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

        // Each checkpoint is byte for byte the part its shard runs alone.
        let dir = tempdir(&format!("bytes-{workers}"));
        let (checkpointed, report) = Scheduler::new(&spec)
            .workers(workers)
            .chunk_tasks(5)
            .checkpoint(&dir)
            .run()
            .unwrap();
        assert_eq!(checkpointed.to_json(), single.to_json());
        for i in 0..report.chunks {
            let written = fs::read_to_string(serve::chunk_path(&dir, i)).unwrap();
            let part = Scheduler::new(&spec).run_chunk(i, report.chunks).unwrap();
            assert_eq!(
                written,
                part.to_checkpoint_json(),
                "chunk {i}, {workers} worker(s)"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn scheduled_matrix_ingests_into_the_store() {
    let spec = small_spec();
    let store = VerdictStore::new();
    let (matrix, _) = Scheduler::new(&spec)
        .workers(2)
        .chunk_tasks(4)
        .run()
        .unwrap();
    let rows = matrix.baselines().len() + matrix.cells().len();
    assert_eq!(store.ingest_matrix(&matrix), rows);
    assert_eq!(store.len(), rows);
    // Every cell the scheduler computed is now a hit.
    let cfg = UarchConfig::default();
    let cell = &matrix.cells()[0];
    let answer = store
        .lookup(cell.attack, Some(stack_of(&matrix, cell)), &cfg)
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
    let victim = serve::chunk_path(&dir, 1);
    fs::remove_file(&victim).unwrap();
    let half = serve::chunk_path(&dir, 2);
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
fn the_worker_count_cannot_change_what_resume_reports() {
    // The checkpoints are parsed on the workers; what a resume adopts,
    // repairs and reports must not depend on how many there are.
    let spec = grid_spec();
    let src = tempdir("workers-src");
    let (single, report) = Scheduler::new(&spec)
        .chunk_tasks(2)
        .checkpoint(&src)
        .run()
        .unwrap();
    let chunks = report.chunks;
    assert!(chunks > 7, "room for foreign chunks at 3 and 7");
    for index in [1, 4] {
        fs::remove_file(serve::chunk_path(&src, index)).unwrap();
    }
    for index in [2, 5] {
        let path = serve::chunk_path(&src, index);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
    }
    fs::write(serve::chunk_path(&src, 6), "").unwrap();

    let foreign = Scheduler::new(&small_spec());
    let mut outcomes = Vec::new();
    for workers in 1..=3 {
        let dir = tempdir(&format!("workers-{workers}"));
        for entry in fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        let resume = || {
            Scheduler::new(&spec)
                .workers(workers)
                .checkpoint(&dir)
                .run()
        };
        let (matrix, report) = resume().unwrap();
        assert_eq!(matrix.to_json(), single.to_json(), "{workers} workers");
        let repaired: Vec<(usize, PathBuf, String)> = report
            .repaired
            .iter()
            .map(|r| {
                let name = r.path.strip_prefix(&dir).unwrap().to_path_buf();
                (r.index, name, r.reason.clone())
            })
            .collect();
        let files: Vec<String> = (0..chunks)
            .map(|i| fs::read_to_string(serve::chunk_path(&dir, i)).unwrap())
            .collect();
        outcomes.push((report.resumed, report.executed, repaired, files));

        for index in [3, 7] {
            let part = foreign.run_chunk(index, chunks).unwrap();
            part.save_checkpoint_json(serve::chunk_path(&dir, index))
                .unwrap();
        }
        let err = resume().unwrap_err();
        assert!(
            matches!(err, ServeError::CheckpointMismatch { index: 3, .. }),
            "{workers} workers: expected a mismatch at chunk 3, got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let (resumed, executed, repaired, _) = &outcomes[0];
    assert_eq!((*resumed, *executed), (chunks - 5, 5));
    let indices: Vec<usize> = repaired.iter().map(|r| r.0).collect();
    assert_eq!(indices, [2, 5, 6], "repairs in index order");
    assert!(outcomes.iter().all(|o| *o == outcomes[0]));
    let _ = fs::remove_dir_all(&src);
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
fn synthesized_chunks_resume_without_resimulating() {
    // A checkpoint names a fuzz finding that is on the spec's attack axis
    // but not in the registry: resume must still adopt it.
    let corpus = Corpus::from_json(include_str!("data/fuzz-seed-corpus.json")).unwrap();
    let spectre_v1 = attacks::find(attacks::names::SPECTRE_V1).unwrap();
    let spec = CampaignSpec::builder(UarchConfig::default())
        .attacks(std::iter::once(spectre_v1).chain(corpus.attacks().unwrap()))
        .defenses(defenses::registry().iter().copied().take(2))
        .build();
    let dir = tempdir("synthesized");
    let run = || {
        Scheduler::new(&spec)
            .chunk_tasks(4)
            .checkpoint(&dir)
            .run()
            .unwrap()
    };
    let (first, report) = run();
    assert!(report.chunks > 1 && report.executed == report.chunks);
    let (again, report) = run();
    assert_eq!((report.executed, report.resumed), (0, report.chunks));
    assert!(report.repaired.is_empty(), "{:?}", report.repaired);
    assert_eq!(again.to_json(), first.to_json());

    // The same spec shipped as two shards assembles with nothing re-run.
    let shards = tempdir("synthesized-shards");
    for i in 0..2 {
        Scheduler::new(&spec)
            .checkpoint(&shards)
            .run_chunk(i, 2)
            .unwrap();
    }
    let (assembled, report) = Scheduler::new(&spec).checkpoint(&shards).run().unwrap();
    assert_eq!((report.executed, report.resumed), (0, 2));
    assert_eq!(assembled.to_json(), first.to_json());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&shards);
}

#[test]
fn a_chunk_naming_findings_of_another_corpus_is_foreign_not_damaged() {
    // Spectre v1 plus one corpus's findings, undefended: the spec of
    // `campaign run --attacks 'Spectre v1' --synthesized CORPUS --defenses none`.
    let spec_of = |corpus: &str| {
        let corpus = Corpus::from_json(corpus).unwrap();
        let spectre_v1 = attacks::find(attacks::names::SPECTRE_V1).unwrap();
        CampaignSpec::builder(UarchConfig::default())
            .attacks(std::iter::once(spectre_v1).chain(corpus.attacks().unwrap()))
            .defenses([])
            .build()
    };
    let budget512 = spec_of(include_str!("data/fuzz-seed42-budget512-corpus.json"));
    let budget64 = spec_of(include_str!("data/fuzz-seed-corpus.json"));
    let dir = tempdir("other-corpus");
    Scheduler::new(&budget512)
        .checkpoint(&dir)
        .run_chunk(0, 2)
        .unwrap();
    let chunk = serve::chunk_path(&dir, 0);
    let bytes = fs::read(&chunk).unwrap();
    // The chunk names a finding the budget-64 spec cannot resolve.
    assert!(matches!(
        CampaignPart::load_checkpoint_json(&chunk),
        Err(CampaignIoError::UnknownAttack(_))
    ));

    let mismatch = |err: ServeError| {
        matches!(
            err,
            ServeError::CheckpointMismatch { index: 0, expected, found }
                if expected == budget64.fingerprint() && found == budget512.fingerprint()
        )
    };
    let err = Scheduler::new(&budget64)
        .checkpoint(&dir)
        .run_chunk(1, 2)
        .unwrap_err();
    assert!(mismatch(err), "the second shard must be refused");
    assert!(!serve::chunk_path(&dir, 1).exists());
    let err = Scheduler::new(&budget64)
        .checkpoint(&dir)
        .run()
        .unwrap_err();
    assert!(mismatch(err), "the assembling run must be refused");
    assert_eq!(fs::read(&chunk).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn incremental_checkpointed_run_reuses_prev_and_writes_shard_bytes() {
    // The previous matrix differs in one axis value (rob=48 for rob=64),
    // so only the rob=64 slice (config 1) is stale.
    let spec = grid_spec();
    let old = CampaignSpec::builder(UarchConfig::default())
        .attacks(attacks::registry().iter().copied().take(3))
        .defenses(defenses::registry().iter().copied().take(2))
        .axis(campaign::Knob::RobDepth, [16usize, 48])
        .build();
    let prev = CampaignMatrix::run(&old).unwrap();
    let single = CampaignMatrix::run(&spec).unwrap();
    let dir = tempdir("prev-checkpoint");
    let run = || {
        Scheduler::new(&spec)
            .workers(2)
            .chunk_tasks(5)
            .prev(&prev)
            .checkpoint(&dir)
            .run()
            .unwrap()
    };

    let (matrix, report) = run();
    assert_eq!(matrix.to_json(), single.to_json());
    let (a, d, _) = matrix.shape();
    let stale = a + a * d;
    assert_eq!(report.evaluated, stale, "3 baselines + 3×2 cells");
    assert_eq!(report.reused, spec.total_tasks() - stale);
    assert_eq!((report.resumed, report.resumed_tasks), (0, 0));
    assert_eq!(report.executed, report.chunks);
    let shard = |i| Scheduler::new(&spec).run_chunk(i, report.chunks).unwrap();
    for i in 0..report.chunks {
        let written = fs::read_to_string(serve::chunk_path(&dir, i)).unwrap();
        assert_eq!(written, shard(i).to_checkpoint_json(), "chunk {i}");
    }

    // Delete one chunk: the re-run evaluates only that chunk's stale
    // tasks, reuses its other tasks from `prev`, and resumes the rest.
    fs::remove_file(serve::chunk_path(&dir, 1)).unwrap();
    let part = shard(1);
    let chunk_stale = part.baselines().iter().filter(|b| b.config == 1).count()
        + part.cells().iter().filter(|c| c.config == 1).count();
    assert!(
        chunk_stale > 0 && chunk_stale < part.len(),
        "chunk 1 mixes slices"
    );
    let (again, rerun) = run();
    assert_eq!(again.to_json(), single.to_json());
    assert_eq!((rerun.resumed, rerun.executed), (report.chunks - 1, 1));
    assert_eq!(rerun.evaluated, chunk_stale);
    assert_eq!(rerun.reused, part.len() - chunk_stale);
    assert_eq!(rerun.resumed_tasks, spec.total_tasks() - part.len());
    assert_eq!(
        fs::read_to_string(serve::chunk_path(&dir, 1)).unwrap(),
        part.to_checkpoint_json()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn progress_observer_sees_every_evaluated_task_once() {
    use std::sync::Mutex;
    let spec = grid_spec();
    let dir = tempdir("progress");
    let seen = Mutex::new(Vec::new());
    let observer = |e: TaskEvent| seen.lock().unwrap().push(e);
    let scheduler = Scheduler::new(&spec)
        .workers(2)
        .chunk_tasks(4)
        .checkpoint(&dir)
        .progress(&observer);
    let (_, report) = scheduler.run().unwrap();
    let total = spec.total_tasks();
    let mut events = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(report.executed, report.chunks);
    assert_eq!(events.len(), total, "one event per task");
    events.sort_by_key(|e| e.completed);
    for (i, e) in events.iter().enumerate() {
        assert_eq!((e.completed, e.total), (i + 1, total));
    }

    // Resumed tasks are silent: only the re-run chunk reports, with its
    // tasks as the run's total.
    fs::remove_file(serve::chunk_path(&dir, 1)).unwrap();
    let (_, report) = scheduler.run().unwrap();
    assert_eq!((report.resumed, report.executed), (report.chunks - 1, 1));
    let events = seen.into_inner().unwrap();
    assert_eq!(events.len(), 4);
    assert!(events.iter().all(|e| e.total == 4));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Throughput floor
// ---------------------------------------------------------------------------

/// The interactive-rate contract: the keyed hit path sustains at least a
/// million lookups per second. Measured only on optimized builds (CI runs
/// this with `--release`); perfbench's `query` workload reports the real
/// (much higher) rate.
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

    // The full hit path: `lookup` by (attack, stack, config), which
    // derives the key (digest memo probe, cell key) before the probe.
    let queries: Vec<(&str, &DefenseStack)> = spec
        .attacks
        .iter()
        .flat_map(|a| spec.defenses.iter().map(move |s| (a.info().name, s)))
        .collect();
    let start = std::time::Instant::now();
    let mut found = 0usize;
    for i in 0..LOOKUPS {
        let (attack, stack) = queries[i % queries.len()];
        if store.lookup(attack, Some(stack), cfg).is_some() {
            found += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(found, LOOKUPS);
    #[allow(clippy::cast_precision_loss)] // counts << 2^52
    let rate = LOOKUPS as f64 / elapsed.as_secs_f64();
    assert!(
        rate >= 1_000_000.0,
        "lookup (key derivation included) must sustain >=1M/sec, measured {rate:.0}/sec"
    );
}
