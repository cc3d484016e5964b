//! Campaign-as-a-service: the serving layer over the shard/part/merge
//! pipeline.
//!
//! The campaign engine answers *batch* questions — run a whole
//! attack × stack × config cube, save the matrix. This module answers
//! *interactive* ones:
//!
//! - [`VerdictStore`] ingests saved [`CampaignMatrix`]/[`CampaignPart`]
//!   artifacts into a memoized index keyed by the same content
//!   fingerprints the incremental runner uses, and answers point queries
//!   ("is config X safe under stack Y against attack Z?") at memory
//!   speed on hits. A miss falls back to **simulate-on-miss** on a warm
//!   [`RunnerPool`] machine, with **single-flight dedup**: N concurrent
//!   misses for one cell run exactly one simulation and all callers
//!   observe the identical verdict.
//! - [`Scheduler`] decomposes a [`CampaignSpec`] into fine-grained chunk
//!   ranges that workers claim from a shared cursor, streams each completed
//!   chunk into a store, **checkpoints** every chunk to disk as a
//!   `campaign-checkpoint` document, and resumes a killed run without
//!   redoing completed cells — the merged result stays bit-identical to
//!   a single-shot [`CampaignMatrix::run`].
//!
//! Verdicts computed on the miss path use exactly the campaign runner's
//! recipe (graph verdict from a [`defenses::PatchSession`], machine
//! verdict from [`defenses::verify_stack_warm`]), so a simulated answer
//! can never disagree with an ingested one.

use crate::campaign::{
    baseline_fingerprint, cell_fingerprint, config_digest, BaselineCell, CampaignMatrix,
    CampaignPart, CampaignSpec, MatrixCell, MergeError,
};
use attacks::{Attack, AttackError, RunnerPool};
use defenses::{DefenseStack, Verdict};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use uarch::UarchConfig;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serve-layer operation failed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServeError {
    /// A simulation failed (miss path or scheduler chunk). Shared so
    /// every caller coalesced onto one failed flight sees the same error.
    Attack(Arc<AttackError>),
    /// Reading or writing a checkpoint file failed.
    Io(Arc<std::io::Error>),
    /// A checkpoint file loaded cleanly but belongs to a different
    /// campaign: its spec fingerprint or shard geometry does not match
    /// the spec being scheduled. Resuming it would corrupt the matrix,
    /// so it is a hard error rather than a silent re-run.
    CheckpointMismatch {
        /// Chunk index of the offending file.
        index: usize,
        /// Fingerprint of the spec being scheduled.
        expected: u64,
        /// Fingerprint the checkpoint declares.
        found: u64,
    },
    /// The completed chunks failed to merge — an internal invariant
    /// violation (the scheduler constructs chunks that tile the cube).
    Merge(Arc<MergeError>),
}

impl From<AttackError> for ServeError {
    fn from(e: AttackError) -> Self {
        ServeError::Attack(Arc::new(e))
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(Arc::new(e))
    }
}

impl From<MergeError> for ServeError {
    fn from(e: MergeError) -> Self {
        ServeError::Merge(Arc::new(e))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Attack(e) => write!(f, "simulation failed: {e}"),
            ServeError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ServeError::CheckpointMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "checkpoint chunk {index} belongs to a different campaign \
                 (spec fingerprint {found:#018x}, expected {expected:#018x}); \
                 point --checkpoint at an empty or matching directory"
            ),
            ServeError::Merge(e) => write!(f, "chunk merge failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Attack(e) => Some(e.as_ref()),
            ServeError::Io(e) => Some(e.as_ref()),
            ServeError::Merge(e) => Some(e.as_ref()),
            ServeError::CheckpointMismatch { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Verdict store
// ---------------------------------------------------------------------------

/// One memoized row: either an undefended baseline run or a defended
/// matrix cell, exactly as the campaign engine computes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredVerdict {
    /// An undefended baseline run of one attack on one config.
    Baseline {
        /// Whether the attack recovered the planted secret.
        leaked: bool,
        /// Cycles the undefended run consumed.
        cycles: u64,
        /// Theorem 1 on the attack graph: does an authorization race
        /// with a secret access?
        graph_race: bool,
    },
    /// One attack × defense-stack × config evaluation.
    Cell {
        /// Machine verdict from running the attack under the stack.
        mechanism: Verdict,
        /// Graph verdict: would the stack's strategies close the leak
        /// path? `None` when no member strategy has an insertion point.
        strategy_sufficient: Option<bool>,
    },
}

/// Where a query answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// Served from the memoized index — no simulation.
    Hit,
    /// This caller ran the simulation (miss-path flight leader).
    Simulated,
    /// Another caller's in-flight simulation of the same cell was
    /// awaited and its result shared (single-flight follower).
    Coalesced,
}

/// A point-query answer: the verdict plus what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Machine-level verdict. For a baseline (no-stack) query this is
    /// [`Verdict::Leaked`]/[`Verdict::Blocked`] of the undefended run.
    pub verdict: Verdict,
    /// Graph-level verdict: the baseline race for a no-stack query,
    /// strategy sufficiency for a stacked one (`None` when the graph has
    /// no insertion point for the stack).
    pub graph: Option<bool>,
    /// Undefended baseline cycles for this attack × config, when the
    /// store knows them (always for a baseline answer; for a cell answer
    /// only if the matching baseline row was ingested or simulated).
    pub cycles: Option<u64>,
    /// How the answer was produced.
    pub source: AnswerSource,
}

/// The result slot one miss-path flight publishes to its followers.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<StoredVerdict, ServeError>>>,
    cv: Condvar,
}

/// An indexed, memoized verdict store with simulate-on-miss.
///
/// Ingest saved matrices or parts ([`VerdictStore::ingest_matrix`] /
/// [`VerdictStore::ingest_part`]); answer point lookups from the index at
/// millions of queries per second ([`VerdictStore::lookup`], or
/// [`VerdictStore::get`] with a precomputed [`VerdictStore::cell_key`]);
/// and let [`VerdictStore::query`] fall back to one warm-machine
/// simulation per missing cell, deduplicating concurrent misses through a
/// single-flight table. [`VerdictStore::simulations`] counts exactly how
/// many miss flights ran — the hook the single-flight tests pin to 1.
#[derive(Debug, Default)]
pub struct VerdictStore {
    rows: RwLock<HashMap<u64, StoredVerdict>>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    pool: RunnerPool,
    simulations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for Flight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flight").finish_non_exhaustive()
    }
}

impl VerdictStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized rows (baselines + cells).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.read().map(|r| r.len()).unwrap_or(0)
    }

    /// Whether the store holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many simulate-on-miss flights have run. Single-flight dedup
    /// means N concurrent queries for one missing cell advance this by
    /// exactly 1.
    #[must_use]
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// How many lookups/queries were answered from the index.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many queries missed the index (counting coalesced followers).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Ingests every row of a saved matrix; returns the number of rows
    /// added or replaced. Rows are keyed by the content fingerprints the
    /// incremental runner uses, so re-ingesting the same artifact is
    /// idempotent and matrices from different specs coexist.
    pub fn ingest_matrix(&self, matrix: &CampaignMatrix) -> usize {
        self.ingest_rows(matrix.baselines(), matrix.cells())
    }

    /// Ingests every row of a shard part (or checkpoint chunk); returns
    /// the number of rows added or replaced.
    pub fn ingest_part(&self, part: &CampaignPart) -> usize {
        self.ingest_rows(part.baselines(), part.cells())
    }

    fn ingest_rows(&self, baselines: &[BaselineCell], cells: &[MatrixCell]) -> usize {
        let Ok(mut rows) = self.rows.write() else {
            return 0;
        };
        rows.reserve(baselines.len() + cells.len());
        let mut ingested = 0;
        // Degraded rows (quarantined / timed-out) never enter the store:
        // a memoized verdict must be machine truth, and skipping them lets
        // a later fault-free run heal the store incrementally.
        for b in baselines.iter().filter(|b| b.outcome.is_ok()) {
            rows.insert(
                b.fingerprint,
                StoredVerdict::Baseline {
                    leaked: b.leaked,
                    cycles: b.cycles,
                    graph_race: b.graph_race,
                },
            );
            ingested += 1;
        }
        for c in cells.iter().filter(|c| c.outcome.is_ok()) {
            rows.insert(
                c.fingerprint,
                StoredVerdict::Cell {
                    mechanism: c.evaluation.mechanism,
                    strategy_sufficient: c.evaluation.strategy_sufficient,
                },
            );
            ingested += 1;
        }
        ingested
    }

    /// The index key for an undefended baseline row. Key construction
    /// hashes the config contents; hoist it out of a query loop with
    /// [`config_digest`] + [`VerdictStore::baseline_key_for_digest`] when
    /// hammering the hit path.
    #[must_use]
    pub fn baseline_key(attack: &str, cfg: &UarchConfig) -> u64 {
        baseline_fingerprint(attack, config_digest(cfg))
    }

    /// [`VerdictStore::baseline_key`] with the config digest precomputed.
    #[must_use]
    pub fn baseline_key_for_digest(attack: &str, digest: u64) -> u64 {
        baseline_fingerprint(attack, digest)
    }

    /// The index key for a defended cell row.
    #[must_use]
    pub fn cell_key(attack: &str, stack: &DefenseStack, cfg: &UarchConfig) -> u64 {
        Self::cell_key_for_digest(attack, stack, config_digest(cfg))
    }

    /// [`VerdictStore::cell_key`] with the config digest precomputed.
    #[must_use]
    pub fn cell_key_for_digest(attack: &str, stack: &DefenseStack, digest: u64) -> u64 {
        cell_fingerprint(attack, stack.name(), &stack.strategy_token(), digest)
    }

    /// The raw indexed hit path: the memoized row under `key`, if any.
    /// This is the operation the `verdict_store` bench drives at millions
    /// of lookups per second.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<StoredVerdict> {
        let row = self.rows.read().ok()?.get(&key).copied();
        match row {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => None,
        }
    }

    /// Hit-only point lookup: `None` on a miss (no simulation). `stack =
    /// None` asks for the undefended baseline.
    #[must_use]
    pub fn lookup(
        &self,
        attack: &str,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Option<Answer> {
        let digest = config_digest(cfg);
        let key = match stack {
            None => Self::baseline_key_for_digest(attack, digest),
            Some(s) => Self::cell_key_for_digest(attack, s, digest),
        };
        let stored = self.get(key)?;
        Some(self.answer(attack, digest, stored, AnswerSource::Hit))
    }

    /// Point query with simulate-on-miss.
    ///
    /// A hit is a lock-free-read index probe. A miss checks out a warm
    /// [`RunnerPool`] machine and computes the row exactly as the
    /// campaign engine would — graph verdict from a
    /// [`defenses::PatchSession`], machine verdict from
    /// [`defenses::verify_stack_warm`] — then memoizes it. Concurrent
    /// misses for the same cell coalesce onto a single flight: one
    /// caller simulates, the rest block on its result and return the
    /// identical verdict with [`AnswerSource::Coalesced`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Attack`] when the simulation fails; every coalesced
    /// caller of the failed flight receives the same (shared) error.
    /// Failures are not memoized — a later query retries.
    pub fn query(
        &self,
        attack: &'static dyn Attack,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Result<Answer, ServeError> {
        let name = attack.info().name;
        let digest = config_digest(cfg);
        let key = match stack {
            None => Self::baseline_key_for_digest(name, digest),
            Some(s) => Self::cell_key_for_digest(name, s, digest),
        };
        if let Some(stored) = self.get(key) {
            return Ok(self.answer(name, digest, stored, AnswerSource::Hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Single-flight: the first thread to register the key becomes the
        // leader and simulates; everyone else waits on its flight. The
        // index is re-probed under the flight-table lock so a result
        // published between our probe and here cannot be missed.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().expect("flight table poisoned");
            if let Some(stored) = self.rows.read().ok().and_then(|r| r.get(&key).copied()) {
                return Ok(self.answer(name, digest, stored, AnswerSource::Hit));
            }
            match inflight.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    inflight.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        let result = if leader {
            self.simulations.fetch_add(1, Ordering::Relaxed);
            let result = self.simulate(attack, stack, cfg);
            if let Ok(stored) = &result {
                if let Ok(mut rows) = self.rows.write() {
                    rows.insert(key, *stored);
                }
            }
            *flight.done.lock().expect("flight poisoned") = Some(result.clone());
            flight.cv.notify_all();
            self.inflight
                .lock()
                .expect("flight table poisoned")
                .remove(&key);
            result
        } else {
            let mut done = flight.done.lock().expect("flight poisoned");
            while done.is_none() {
                done = flight.cv.wait(done).expect("flight poisoned");
            }
            done.clone().expect("checked is_some")
        };
        let source = if leader {
            AnswerSource::Simulated
        } else {
            AnswerSource::Coalesced
        };
        result.map(|stored| self.answer(name, digest, stored, source))
    }

    /// Computes one missing row with the campaign engine's exact recipe.
    fn simulate(
        &self,
        attack: &'static dyn Attack,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Result<StoredVerdict, ServeError> {
        let mut runner = self.pool.checkout();
        let result = match stack {
            None => {
                let out = runner.run(attack, cfg)?;
                let graph_race = defenses::PatchSession::new(attack).graph_race();
                Ok(StoredVerdict::Baseline {
                    leaked: out.leaked,
                    cycles: out.cycles,
                    graph_race,
                })
            }
            Some(stack) => {
                let mut session = defenses::PatchSession::new(attack);
                let strategy_sufficient = session.graph_sufficient(stack)?;
                let mechanism = defenses::verify_stack_warm(stack, attack, cfg, &mut runner)?;
                Ok(StoredVerdict::Cell {
                    mechanism,
                    strategy_sufficient,
                })
            }
        };
        self.pool.checkin(runner);
        result
    }

    fn answer(
        &self,
        attack: &str,
        digest: u64,
        stored: StoredVerdict,
        source: AnswerSource,
    ) -> Answer {
        match stored {
            StoredVerdict::Baseline {
                leaked,
                cycles,
                graph_race,
            } => Answer {
                verdict: if leaked {
                    Verdict::Leaked
                } else {
                    Verdict::Blocked
                },
                graph: Some(graph_race),
                cycles: Some(cycles),
                source,
            },
            StoredVerdict::Cell {
                mechanism,
                strategy_sufficient,
            } => {
                let base = Self::baseline_key_for_digest(attack, digest);
                let cycles = self
                    .rows
                    .read()
                    .ok()
                    .and_then(|rows| match rows.get(&base) {
                        Some(StoredVerdict::Baseline { cycles, .. }) => Some(*cycles),
                        _ => None,
                    });
                Answer {
                    verdict: mechanism,
                    graph: strategy_sufficient,
                    cycles,
                    source,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointing scheduler
// ---------------------------------------------------------------------------

/// How many tasks a scheduler chunk carries by default: fine enough that
/// a killed run loses little and the workers finish close together,
/// coarse enough that the per-chunk graph-verdict precompute amortizes.
pub const DEFAULT_CHUNK_TASKS: usize = 16;

/// One completed chunk, as reported to a [`ChunkObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEvent {
    /// Chunk index in `0..of`.
    pub index: usize,
    /// Total chunks in this schedule.
    pub of: usize,
    /// Chunks completed so far (resumed chunks count from the start).
    pub completed: usize,
}

/// Live progress callback: invoked once per chunk as it completes,
/// possibly concurrently from worker threads.
pub type ChunkObserver<'a> = &'a (dyn Fn(ChunkEvent) + Sync);

/// A checkpoint file that existed on disk but could not be used for
/// resume — zero-length, torn mid-write, or otherwise unreadable — and
/// whose chunk was therefore re-run. Surfaced in
/// [`ScheduleReport::repaired`] so a damaged checkpoint is never silently
/// swallowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRepair {
    /// Index of the chunk that was re-run.
    pub index: usize,
    /// The unusable checkpoint file.
    pub path: PathBuf,
    /// Why it could not be loaded (e.g. a typed truncation offset).
    pub reason: String,
}

/// What a scheduled run did, alongside the merged matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleReport {
    /// Chunks the cube was decomposed into.
    pub chunks: usize,
    /// Chunks restored from checkpoint files without any re-simulation.
    pub resumed: usize,
    /// Chunks simulated by this run's workers.
    pub executed: usize,
    /// Always 0: every chunk runs exactly once. Kept so that existing
    /// readers of this report, such as the benchmark, keep compiling.
    pub stolen: usize,
    /// Tasks (baselines + cells) restored from checkpoints.
    pub resumed_tasks: usize,
    /// Checkpoint files that existed but were unusable (zero-length,
    /// truncated, unreadable); their chunks were re-run and their
    /// checkpoints rewritten.
    pub repaired: Vec<ChunkRepair>,
}

/// What [`Scheduler::load_chunk`] found on disk for one chunk.
enum ChunkLoad {
    /// No checkpoint file; the chunk simply runs.
    Missing,
    /// A file exists but cannot be used for resume; the chunk re-runs and
    /// the repair is reported.
    Damaged { path: PathBuf, reason: String },
    /// A verified checkpoint: adopted with zero re-simulation.
    Loaded(CampaignPart),
}

/// A resumable, checkpointing campaign scheduler.
///
/// The cube is split into fine-grained contiguous chunks
/// ([`CampaignSpec::shards`] with one task-thread per chunk, so chunk
/// results are bit-identical to the corresponding slice of a single-shot
/// run). Workers claim pending chunks from one shared cursor, so a fast
/// worker keeps claiming while a slow one finishes its chunk. With a
/// checkpoint directory every finished chunk is written as a
/// `campaign-checkpoint` document, and the next run resumes: completed
/// chunks load from disk (zero re-simulation), half-written or
/// zero-length ones surface as typed
/// [`Truncated`](crate::jsonio::JsonErrorKind) errors, are re-run, and
/// are reported in [`ScheduleReport::repaired`], and chunks from a
/// *different* campaign are a hard [`ServeError::CheckpointMismatch`].
#[derive(Debug, Clone)]
pub struct Scheduler {
    spec: CampaignSpec,
    workers: usize,
    chunk_tasks: usize,
    checkpoint: Option<PathBuf>,
}

impl Scheduler {
    /// Schedules `spec` with default workers (all available
    /// parallelism), [`DEFAULT_CHUNK_TASKS`]-task chunks, and no
    /// checkpointing.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        Scheduler {
            spec: spec.clone(),
            workers: 0,
            chunk_tasks: DEFAULT_CHUNK_TASKS,
            checkpoint: None,
        }
    }

    /// Worker-thread count; `0` (the default) means all available
    /// parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Tasks per chunk (minimum 1). Ignored when resuming from a
    /// checkpoint directory, which fixes the chunk geometry.
    #[must_use]
    pub fn chunk_tasks(mut self, tasks: usize) -> Self {
        self.chunk_tasks = tasks.max(1);
        self
    }

    /// Checkpoint directory: every completed chunk is persisted here as
    /// `chunk-NNNNN.json`, and a later run over the same spec resumes
    /// from whatever completed. The directory is created if absent.
    #[must_use]
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Runs the schedule to completion and merges the chunks.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on simulation failure, checkpoint I/O failure, or
    /// a checkpoint directory belonging to a different campaign.
    pub fn run(&self) -> Result<(CampaignMatrix, ScheduleReport), ServeError> {
        self.run_observed(None, None)
    }

    /// [`Scheduler::run`] with optional streaming ingest into `store`
    /// (resumed chunks are ingested up front, executed ones as they land)
    /// and per-chunk progress observation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scheduler::run`]. When several chunks fail,
    /// the error of the lowest-index one is returned.
    pub fn run_observed(
        &self,
        store: Option<&VerdictStore>,
        progress: Option<ChunkObserver<'_>>,
    ) -> Result<(CampaignMatrix, ScheduleReport), ServeError> {
        // Chunk results must be bit-identical to the matching slice of a
        // single-shot run regardless of the serving worker count, so the
        // inner task executor is pinned to one thread per chunk.
        let mut spec = self.spec.clone();
        spec.threads = 1;
        let fingerprint = spec.fingerprint();
        let chunks = self.chunk_count(&spec)?;
        let shards = spec.shards(chunks);
        let mut report = ScheduleReport {
            chunks,
            ..ScheduleReport::default()
        };

        // Resume: adopt every completed chunk on disk before starting.
        let total = spec.total_tasks();
        let mut parts: Vec<Option<CampaignPart>> = Vec::with_capacity(chunks);
        let mut pending: Vec<usize> = Vec::new();
        for index in 0..chunks {
            let range = (index * total / chunks, (index + 1) * total / chunks);
            match self.load_chunk(index, chunks, range, fingerprint)? {
                ChunkLoad::Loaded(part) => {
                    report.resumed += 1;
                    report.resumed_tasks += part.len();
                    if let Some(store) = store {
                        store.ingest_part(&part);
                    }
                    parts.push(Some(part));
                    continue;
                }
                ChunkLoad::Damaged { path, reason } => report.repaired.push(ChunkRepair {
                    index,
                    path,
                    reason,
                }),
                ChunkLoad::Missing => {}
            }
            pending.push(index);
            parts.push(None);
        }

        if let Some(f) = progress {
            let resumed = parts.iter().enumerate().filter(|(_, p)| p.is_some());
            for (seen, (index, _)) in resumed.enumerate() {
                f(ChunkEvent {
                    index,
                    of: chunks,
                    completed: seen + 1,
                });
            }
        }

        let completed = AtomicUsize::new(report.resumed);
        let executed = crate::exec::map_indexed(
            pending.len(),
            self.workers,
            || (),
            |(), k| -> Result<CampaignPart, ServeError> {
                let index = pending[k];
                let part = shards[index].run(None)?;
                self.save_chunk(index, &part)?;
                if let Some(store) = store {
                    store.ingest_part(&part);
                }
                if let Some(f) = progress {
                    f(ChunkEvent {
                        index,
                        of: chunks,
                        completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                    });
                }
                Ok(part)
            },
        )?;
        report.executed = executed.len();
        for (index, part) in pending.into_iter().zip(executed) {
            parts[index] = Some(part);
        }
        let parts = parts
            .into_iter()
            .map(|p| p.expect("every chunk resumed or executed"))
            .collect();
        Ok((CampaignMatrix::merge(parts)?, report))
    }

    /// The chunk count for this run: adopted from an existing checkpoint
    /// directory when one holds a loadable chunk (so a changed chunk-size
    /// flag cannot silently re-tile a half-finished run), derived from
    /// [`Scheduler::chunk_tasks`] otherwise.
    fn chunk_count(&self, spec: &CampaignSpec) -> Result<usize, ServeError> {
        let fresh = spec.total_tasks().max(1).div_ceil(self.chunk_tasks);
        let Some(dir) = &self.checkpoint else {
            return Ok(fresh);
        };
        std::fs::create_dir_all(dir)?;
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("chunk-") && n.ends_with(".json"))
            })
            .collect();
        names.sort();
        for path in names {
            // A truncated file (worker killed mid-write) is unusable for
            // geometry; keep probing for any chunk that finished.
            if let Ok(part) = CampaignPart::load_checkpoint_json(&path) {
                return Ok(part.of().max(1));
            }
        }
        Ok(fresh)
    }

    fn chunk_path(dir: &Path, index: usize) -> PathBuf {
        dir.join(format!("chunk-{index:05}.json"))
    }

    /// Loads chunk `index` from the checkpoint directory, if present and
    /// usable. A damaged file (zero-length, truncated mid-write, or
    /// otherwise unreadable) is "not done" — the chunk re-runs — but the
    /// file and the reason are surfaced ([`ChunkLoad::Damaged`] →
    /// [`ScheduleReport::repaired`]) instead of being silently swallowed.
    /// A cleanly-loading chunk from a different spec — or with foreign
    /// shard geometry — is a hard mismatch.
    fn load_chunk(
        &self,
        index: usize,
        of: usize,
        range: (usize, usize),
        fingerprint: u64,
    ) -> Result<ChunkLoad, ServeError> {
        let Some(dir) = &self.checkpoint else {
            return Ok(ChunkLoad::Missing);
        };
        let path = Self::chunk_path(dir, index);
        if !path.exists() {
            return Ok(ChunkLoad::Missing);
        }
        match CampaignPart::load_checkpoint_json(&path) {
            Ok(part) => {
                let geometry_ok =
                    part.index() == index && part.of() == of && (part.start(), part.end()) == range;
                if part.spec_fingerprint() != fingerprint || !geometry_ok {
                    return Err(ServeError::CheckpointMismatch {
                        index,
                        expected: fingerprint,
                        found: part.spec_fingerprint(),
                    });
                }
                Ok(ChunkLoad::Loaded(part))
            }
            Err(e) => Ok(ChunkLoad::Damaged {
                path,
                reason: e.to_string(),
            }),
        }
    }

    fn save_chunk(&self, index: usize, part: &CampaignPart) -> Result<(), ServeError> {
        let Some(dir) = &self.checkpoint else {
            return Ok(());
        };
        part.save_checkpoint_json(Self::chunk_path(dir, index))?;
        Ok(())
    }
}
