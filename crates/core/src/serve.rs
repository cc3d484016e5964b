//! Campaign-as-a-service: the serving layer over the campaign engine.
//!
//! The campaign engine answers *batch* questions — run a whole
//! attack × stack × config cube, save the matrix. This module answers
//! *interactive* ones:
//!
//! - [`VerdictStore`] ingests saved matrices and checkpoint chunks into a
//!   memoized index keyed by the same content fingerprints the
//!   incremental runner uses, and answers point queries ("is config X
//!   safe under stack Y against attack Z?") at memory speed on hits. A
//!   miss falls back to **simulate-on-miss** on a warm [`RunnerPool`]
//!   machine, with **single-flight dedup**: N concurrent misses for one
//!   cell run exactly one simulation and all callers observe the
//!   identical verdict.
//! - [`Scheduler`] cuts a [`CampaignSpec`] into fine-grained chunk
//!   ranges, **checkpoints** every chunk to disk as a
//!   `campaign-checkpoint` document the moment its last row exists, and
//!   resumes a killed run without redoing completed cells. Chunks not on
//!   disk are evaluated together on the campaign engine's one executor,
//!   which keeps every row a previous matrix holds ([`Scheduler::prev`]),
//!   so the merged result stays bit-identical to a single-shot
//!   [`CampaignMatrix::run`]. A chunk is also the unit of cross-process
//!   sharding: [`Scheduler::run_chunk`]`(I, N)` evaluates chunk `I` of `N`
//!   alone and writes it to [`chunk_path`]`(DIR, I)`, so a run over a
//!   directory of such chunks assembles them with zero re-simulation.
//!   The scheduler is the one configurable whole-cube run, and
//!   [`ScheduleReport`] is its one report.
//!
//! Verdicts computed on the miss path use exactly the campaign runner's
//! recipe (graph verdict from a [`defenses::PatchSession`], machine
//! verdict from the executor's own warm simulation step), so a simulated
//! answer can never disagree with an ingested one.

use crate::campaign::{
    baseline_fingerprint, cell_fingerprint, chunk_range, config_digest, evaluate_tasks,
    panic_reason, simulate, AttackNames, BaselineCell, CampaignMatrix, CampaignPart, CampaignSpec,
    CellOutcome, CheckpointError, MatrixCell, Measured, MergeError, ProgressObserver, ShardHeader,
};
use crate::scenario::Evaluation;
use attacks::{Attack, AttackError, RunnerPool};
use defenses::{DefenseStack, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use uarch::{FxMap, UarchConfig};

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
    /// A miss-path simulation panicked. Its flight is released with this
    /// error, so coalesced callers return instead of waiting forever, and
    /// a later query for the key simulates afresh.
    Panicked(String),
    /// Reading or writing a checkpoint file failed.
    Io(Arc<std::io::Error>),
    /// A checkpoint file loaded cleanly but belongs to a different
    /// campaign: its spec fingerprint or shard geometry does not match
    /// the spec being scheduled (`found == expected` when only the
    /// geometry differs). Resuming it would corrupt the matrix, so it is
    /// a hard error rather than a silent re-run.
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
            ServeError::Panicked(reason) => write!(f, "simulation panicked: {reason}"),
            ServeError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ServeError::CheckpointMismatch {
                index,
                expected,
                found,
            } if found == expected => write!(
                f,
                "checkpoint chunk {index} cuts this campaign into another \
                 number of chunks; point --checkpoint at an empty or \
                 matching directory"
            ),
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
            ServeError::Panicked(_) | ServeError::CheckpointMismatch { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Verdict store
// ---------------------------------------------------------------------------

/// One memoized row: either an undefended baseline run or a defended
/// matrix cell's two verdicts, exactly as the campaign engine computes
/// them.
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
    /// One attack × defense-stack × config evaluation: the same two
    /// verdicts a [`MatrixCell`] carries.
    Cell(Evaluation),
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

/// The result slot one miss-path flight publishes to its followers: the
/// caller whose initializer runs is the leader, the rest block in
/// `get_or_init` until it returns.
type Flight = OnceLock<Result<StoredVerdict, ServeError>>;

/// An indexed, memoized verdict store with simulate-on-miss.
///
/// Ingest saved matrices or checkpoint chunks
/// ([`VerdictStore::ingest_matrix`] / [`VerdictStore::ingest_part`]);
/// answer point lookups from the index at millions of queries per second
/// ([`VerdictStore::lookup`], or [`VerdictStore::get`] with a precomputed
/// [`VerdictStore::cell_key`]);
/// and let [`VerdictStore::query`] fall back to one warm-machine
/// simulation per missing cell, deduplicating concurrent misses through a
/// single-flight table. [`VerdictStore::simulations`] counts exactly how
/// many miss flights ran — the hook the single-flight tests pin to 1.
///
/// A `lookup`/`query` hit is hash-map probes and no allocation (the
/// digest memo, the row, and for a cell the baseline row's cycles): the
/// store memoizes each distinct config's [`config_digest`] (so the
/// config's `Debug` rendering is hashed once per config, not once per
/// query), and the cell key hashes the stack's strategy tokens in place.
/// The memo holds one entry per distinct config the store was asked
/// about, and has its own lock, so a memo insert never blocks a row probe.
#[derive(Debug, Default)]
pub struct VerdictStore {
    rows: RwLock<HashMap<u64, StoredVerdict>>,
    /// [`config_digest`] per distinct config asked about. Fx rather than
    /// SipHash: the keys are configs this process's callers build, not
    /// input from a network peer, and SipHash over ~40 fields costs more
    /// than the rest of a hit.
    digests: RwLock<FxMap<UarchConfig, u64>>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    pool: RunnerPool,
    simulations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
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

    /// Ingests every row of a checkpoint chunk (or an in-memory shard
    /// part); returns the number of rows added or replaced.
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
            rows.insert(c.fingerprint, StoredVerdict::Cell(c.evaluation));
            ingested += 1;
        }
        ingested
    }

    /// The index key for an undefended baseline row of `attack` on the
    /// config with [`config_digest`] `digest`. The digest hashes the
    /// config's `Debug` rendering, the costly part of a key: a caller
    /// keying many rows of one config computes it once, and
    /// [`VerdictStore::lookup`]/[`VerdictStore::query`] memoize it per
    /// distinct config, so a hit never renders one.
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
        cell_fingerprint(attack, stack, digest)
    }

    /// `config_digest(cfg)`, memoized per distinct config: a read-locked
    /// probe on every call after the first for `cfg`.
    fn digest(&self, cfg: &UarchConfig) -> u64 {
        if let Some(digest) = self.digests.read().ok().and_then(|m| m.get(cfg).copied()) {
            return digest;
        }
        let digest = config_digest(cfg);
        if let Ok(mut memo) = self.digests.write() {
            memo.insert(cfg.clone(), digest);
        }
        digest
    }

    /// The config's digest and the row key for `attack` under `stack` (a
    /// baseline when `None`) on it.
    fn key(&self, attack: &str, stack: Option<&DefenseStack>, cfg: &UarchConfig) -> (u64, u64) {
        let digest = self.digest(cfg);
        let key = match stack {
            None => Self::baseline_key_for_digest(attack, digest),
            Some(s) => Self::cell_key_for_digest(attack, s, digest),
        };
        (digest, key)
    }

    /// The raw indexed hit path: the memoized row under `key`, if any.
    /// perfbench's `query` workload drives it, and the release-build test
    /// `hit_path_sustains_a_million_lookups_per_second` holds it, and
    /// [`VerdictStore::lookup`] with its key derivation, to at least a
    /// million lookups per second.
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
    /// None` asks for the undefended baseline. The key costs a probe of
    /// the digest memo; only a config the store has never seen is hashed.
    #[must_use]
    pub fn lookup(
        &self,
        attack: &str,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Option<Answer> {
        let (digest, key) = self.key(attack, stack, cfg);
        let stored = self.get(key)?;
        Some(self.answer(attack, digest, stored, AnswerSource::Hit))
    }

    /// Point query with simulate-on-miss.
    ///
    /// A hit is [`VerdictStore::lookup`]'s path: a digest-memo probe and a
    /// read-locked index probe, with nothing formatted or allocated. A
    /// miss checks out a warm [`RunnerPool`] machine and computes the row
    /// exactly as the campaign engine would — graph verdict from a
    /// [`defenses::PatchSession`], machine verdict from the executor's
    /// warm simulation step — then memoizes it. Concurrent
    /// misses for the same cell coalesce onto a single flight: one
    /// caller simulates, the rest block on its result and return the
    /// identical verdict with [`AnswerSource::Coalesced`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Attack`] when the simulation fails and
    /// [`ServeError::Panicked`] when it panics; every coalesced caller of
    /// the failed flight receives the same (shared) error. Failures are
    /// not memoized — a later query retries.
    pub fn query(
        &self,
        attack: &'static dyn Attack,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Result<Answer, ServeError> {
        let name = attack.info().name;
        let (digest, key) = self.key(name, stack, cfg);
        if let Some(stored) = self.get(key) {
            return Ok(self.answer(name, digest, stored, AnswerSource::Hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Single-flight: every caller for the key shares one flight; the
        // one whose initializer runs is the leader and simulates, the rest
        // wait on it. The index is re-probed under the flight-table lock
        // so a result published between our probe and here cannot be
        // missed.
        let flight = {
            let mut inflight = self.inflight.lock().expect("flight table poisoned");
            if let Some(stored) = self.rows.read().ok().and_then(|r| r.get(&key).copied()) {
                return Ok(self.answer(name, digest, stored, AnswerSource::Hit));
            }
            Arc::clone(inflight.entry(key).or_default())
        };
        let mut leader = false;
        let result = flight
            .get_or_init(|| {
                leader = true;
                self.simulations.fetch_add(1, Ordering::Relaxed);
                // A panic must still set the flight, or its followers and
                // every later query for this key would wait forever. The
                // simulate step quarantines machine panics itself; this
                // net catches the rest (the graph session).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.simulate(attack, stack, cfg)
                }))
                .unwrap_or_else(|payload| {
                    Err(ServeError::Panicked(panic_reason(payload.as_ref())))
                });
                if let Ok(stored) = &result {
                    if let Ok(mut rows) = self.rows.write() {
                        rows.insert(key, *stored);
                    }
                }
                result
            })
            .clone();
        if leader {
            // Retire the flight: a failure is not memoized, so the next
            // query for the key starts a new one.
            self.inflight
                .lock()
                .expect("flight table poisoned")
                .remove(&key);
        }
        let source = if leader {
            AnswerSource::Simulated
        } else {
            AnswerSource::Coalesced
        };
        result.map(|stored| self.answer(name, digest, stored, source))
    }

    /// Computes one missing row with the campaign engine's exact recipe:
    /// the graph verdict from a [`defenses::PatchSession`], the machine
    /// verdict from the executor's warm simulation step on a pooled runner
    /// (which goes back to the pool on success or error). A panicking run
    /// is quarantined by that step and answers [`ServeError::Panicked`].
    fn simulate(
        &self,
        attack: &'static dyn Attack,
        stack: Option<&DefenseStack>,
        cfg: &UarchConfig,
    ) -> Result<StoredVerdict, ServeError> {
        let run = |config: &UarchConfig| -> Result<attacks::AttackOutcome, ServeError> {
            let mut runner = self.pool.checkout();
            let measured = simulate(attack, config, false, &mut runner);
            self.pool.checkin(runner);
            match measured? {
                Measured::Ran(outcome) => Ok(outcome),
                Measured::Degraded(CellOutcome::Quarantined { reason }) => {
                    Err(ServeError::Panicked(reason))
                }
                Measured::Degraded(other) => unreachable!("only panics degrade: {other:?}"),
            }
        };
        let mut session = defenses::PatchSession::new(attack);
        Ok(match stack {
            None => {
                let out = run(cfg)?;
                StoredVerdict::Baseline {
                    leaked: out.leaked,
                    cycles: out.cycles,
                    graph_race: session.graph_race(),
                }
            }
            Some(stack) => StoredVerdict::Cell(Evaluation {
                strategy_sufficient: session.graph_sufficient(stack)?,
                mechanism: match stack.apply(cfg) {
                    Some(config) => Verdict::of_run(&run(&config)?),
                    None => Verdict::GraphOnly,
                },
            }),
        })
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
            StoredVerdict::Cell(Evaluation {
                mechanism,
                strategy_sufficient,
            }) => {
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
/// a killed run loses little, coarse enough that the checkpoint files
/// stay few.
pub const DEFAULT_CHUNK_TASKS: usize = 16;

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

/// What a scheduled run did, alongside the merged matrix. Every task is
/// counted once: `resumed_tasks + reused + evaluated` is the whole cube.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleReport {
    /// Chunks the cube was decomposed into.
    pub chunks: usize,
    /// Chunks restored from checkpoint files without any re-simulation.
    pub resumed: usize,
    /// Chunks this run evaluated (every chunk not resumed).
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
    /// Tasks of the executed chunks that this run computed: every one the
    /// [`Scheduler::prev`] matrix does not hold by fingerprint.
    pub evaluated: usize,
    /// Tasks of the executed chunks reused from the previous matrix.
    pub reused: usize,
    /// Machine runs simulated for the evaluated tasks. A task whose
    /// config differs from an earlier run of the same attack only in
    /// switches that run never read takes that run's result, and
    /// graph-only cells need none, so this is at most `evaluated`. It
    /// does not depend on the thread count.
    pub machine_runs: usize,
    /// Strategy-sufficiency graph verdicts computed for this run. Graph
    /// verdicts are config-invariant and hoisted out of the config loop,
    /// so a full run of an `A×S×C` cube computes exactly `A×S` of these
    /// (one per (attack, stack) pair), and an all-reused run computes
    /// zero.
    pub graph_verdicts: usize,
}

/// Every `chunk-*.json` file of a checkpoint directory, by name, with
/// what parsing it gave.
type Checkpoints = BTreeMap<PathBuf, Result<CampaignPart, CheckpointError>>;

/// What [`adopt_chunk`] made of one chunk's checkpoint file.
enum ChunkLoad {
    /// No checkpoint file; the chunk simply runs.
    Missing,
    /// A file exists but cannot be used for resume; the chunk re-runs and
    /// the repair is reported.
    Damaged { path: PathBuf, reason: String },
    /// A verified checkpoint: adopted with zero re-simulation.
    Loaded(CampaignPart),
}

/// A resumable, checkpointing, incremental campaign run: the one
/// configurable way to evaluate a whole cube.
///
/// The cube is cut into fine-grained, contiguous, balanced chunks, and
/// [`Scheduler::run_chunk`] evaluates one of them alone (a shard of a
/// cross-process run). With a checkpoint directory, a run
/// first resumes: it lists the directory once and parses every chunk file
/// once, on its workers; completed chunks are adopted (zero re-simulation),
/// half-written or zero-length ones surface as typed
/// [`Truncated`](crate::jsonio::JsonErrorKind) errors, are re-run and
/// reported in [`ScheduleReport::repaired`], and chunks of a *different*
/// campaign are a hard [`ServeError::CheckpointMismatch`]. The other
/// chunks go through one pass of the campaign executor, which keeps every
/// row the [`Scheduler::prev`] matrix holds, and each is checkpointed by
/// whichever worker finishes its last row.
#[derive(Clone)]
pub struct Scheduler<'a> {
    /// The spec, with the worker count as its `threads`.
    spec: CampaignSpec,
    chunk_tasks: usize,
    checkpoint: Option<PathBuf>,
    prev: Option<&'a CampaignMatrix>,
    progress: Option<ProgressObserver<'a>>,
}

impl fmt::Debug for Scheduler<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("spec", &self.spec)
            .field("chunk_tasks", &self.chunk_tasks)
            .field("checkpoint", &self.checkpoint)
            .field("prev", &self.prev.is_some())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl<'a> Scheduler<'a> {
    /// Schedules `spec` on its own `threads` workers, in
    /// [`DEFAULT_CHUNK_TASKS`]-task chunks, with no checkpointing and no
    /// previous matrix.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        Scheduler {
            spec: spec.clone(),
            chunk_tasks: DEFAULT_CHUNK_TASKS,
            checkpoint: None,
            prev: None,
            progress: None,
        }
    }

    /// Worker-thread count, overriding the spec's `threads`; `0` means
    /// all available parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.spec.threads = workers;
        self
    }

    /// Tasks per chunk (minimum 1). Ignored when resuming from a
    /// checkpoint directory, which fixes the chunk geometry.
    #[must_use]
    pub fn chunk_tasks(mut self, tasks: usize) -> Self {
        self.chunk_tasks = tasks.max(1);
        self
    }

    /// Checkpoint directory: every completed chunk is persisted here at
    /// its [`chunk_path`], and a later run over the same spec resumes
    /// from whatever completed. The directory is created if absent.
    #[must_use]
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Incremental run: every task whose content fingerprint (attack
    /// name, defense name and strategy, config contents) matches a row of
    /// `prev` keeps that row instead of re-simulating. With an unchanged
    /// spec this evaluates **zero** tasks; changing one knob value
    /// re-evaluates exactly the affected config slices. `prev` typically
    /// comes from [`CampaignMatrix::load_json`]. Fingerprints cover the
    /// *spec*, not the simulator: discard saved matrices when the
    /// simulator or an attack PoC changes.
    #[must_use]
    pub fn prev(mut self, prev: &'a CampaignMatrix) -> Self {
        self.prev = Some(prev);
        self
    }

    /// Live progress: `observer` sees one [`TaskEvent`] per evaluated
    /// task, possibly from worker threads. Tasks resumed from checkpoints
    /// or reused from [`Scheduler::prev`] are silent.
    ///
    /// [`TaskEvent`]: crate::campaign::TaskEvent
    #[must_use]
    pub fn progress(mut self, observer: ProgressObserver<'a>) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Runs the schedule to completion and merges the chunks.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on simulation failure, checkpoint I/O failure, or
    /// a checkpoint directory belonging to a different campaign (the
    /// lowest such chunk is named). A failed simulation reports the first
    /// error of the first failing attack (attacks in first-task order,
    /// each attack's tasks in task order); chunks finished before it stay
    /// checkpointed for the next run.
    pub fn run(&self) -> Result<(CampaignMatrix, ScheduleReport), ServeError> {
        let spec = &self.spec;
        let (fingerprint, total) = (spec.fingerprint(), spec.total_tasks());
        let mut on_disk = self.read_checkpoints()?;
        // The lowest-named loadable chunk fixes the geometry, so a changed
        // chunk-size flag cannot silently re-tile a half-finished run. A
        // truncated file (worker killed mid-write) is unusable for it.
        let chunks = match on_disk.values().find_map(|r| r.as_ref().ok()) {
            Some(part) => part.of().max(1),
            None => total.max(1).div_ceil(self.chunk_tasks),
        };

        // Resume: adopt every completed chunk on disk; evaluate the rest.
        let dir = self.checkpoint.as_deref();
        let mut parts: Vec<CampaignPart> = Vec::with_capacity(chunks);
        let mut pending: Vec<usize> = Vec::new();
        let mut repaired: Vec<ChunkRepair> = Vec::new();
        for index in 0..chunks {
            let file = dir.and_then(|dir| on_disk.remove_entry(&chunk_path(dir, index)));
            match adopt_chunk(index, chunks, total, fingerprint, file)? {
                ChunkLoad::Loaded(part) => {
                    parts.push(part);
                    continue;
                }
                ChunkLoad::Damaged { path, reason } => repaired.push(ChunkRepair {
                    index,
                    path,
                    reason,
                }),
                ChunkLoad::Missing => {}
            }
            pending.push(index);
        }
        let resumed = parts.len();
        let resumed_tasks = parts.iter().map(CampaignPart::len).sum();

        let save = |part: &CampaignPart| self.save_chunk(part);
        let (executed, report) = evaluate_tasks(
            spec,
            chunks,
            &pending,
            self.prev,
            self.progress,
            Some(&save),
        )?;
        parts.extend(executed);
        let report = ScheduleReport {
            chunks,
            resumed,
            resumed_tasks,
            repaired,
            ..report
        };
        Ok((CampaignMatrix::merge(parts)?, report))
    }

    /// Evaluates chunk `index` of the cube cut into `of` chunks on its
    /// own: one shard of a cross-process run, keeping the rows the
    /// [`Scheduler::prev`] matrix holds and reporting each evaluated task
    /// to [`Scheduler::progress`]. With a checkpoint directory, it first
    /// refuses a directory that holds a loadable chunk of another spec or
    /// chunk count, before anything is simulated, and then writes the chunk
    /// at its [`chunk_path`], where a [`Scheduler::run`] over the directory
    /// resumes it.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on simulation failure, checkpoint I/O failure, or a
    /// directory holding a chunk of another campaign (the lowest such
    /// chunk is named).
    ///
    /// # Panics
    ///
    /// If `index >= of`.
    pub fn run_chunk(&self, index: usize, of: usize) -> Result<CampaignPart, ServeError> {
        assert!(index < of, "chunk {index} of {of} does not exist");
        let (fingerprint, total) = (self.spec.fingerprint(), self.spec.total_tasks());
        for file in self.read_checkpoints()?.values() {
            if let Some(header) = judged_header(file, fingerprint) {
                check_chunk(header, header.index, of, total, fingerprint)?;
            }
        }
        let save = |part: &CampaignPart| self.save_chunk(part);
        let (mut parts, _) = evaluate_tasks(
            &self.spec,
            of,
            &[index],
            self.prev,
            self.progress,
            Some(&save),
        )?;
        Ok(parts.pop().expect("one part per chunk"))
    }

    /// Lists the checkpoint directory (created if absent) once and parses
    /// each chunk file in it once, on the run's workers, resolving attack
    /// names through the spec's attack axis before the registry. No
    /// directory, or an empty one, starts no worker.
    fn read_checkpoints(&self) -> Result<Checkpoints, ServeError> {
        let Some(dir) = &self.checkpoint else {
            return Ok(Checkpoints::new());
        };
        std::fs::create_dir_all(dir)?;
        let paths = chunk_files(dir)?;
        let names: AttackNames = self
            .spec
            .attacks
            .iter()
            .map(|a| (a.info().name, a.info()))
            .collect();
        let Ok(parsed) = crate::exec::map_indexed(
            paths.len(),
            self.spec.threads,
            || (),
            |(), i| Ok::<_, Infallible>(CampaignPart::load_checkpoint_with(&paths[i], &names)),
        );
        Ok(paths.into_iter().zip(parsed).collect())
    }

    fn save_chunk(&self, part: &CampaignPart) -> Result<(), ServeError> {
        let Some(dir) = &self.checkpoint else {
            return Ok(());
        };
        part.save_checkpoint_json(chunk_path(dir, part.index()))?;
        Ok(())
    }
}

/// Judges chunk `index`'s checkpoint `file`, as
/// [`Scheduler::read_checkpoints`] parsed it. A damaged file (zero-length,
/// truncated mid-write, or otherwise unreadable) is "not done" — the chunk
/// re-runs — but the file and the reason are surfaced
/// ([`ChunkLoad::Damaged`] → [`ScheduleReport::repaired`]) instead of being
/// silently swallowed. A chunk whose [`judged_header`] fails
/// [`check_chunk`] is a hard mismatch.
fn adopt_chunk(
    index: usize,
    of: usize,
    total: usize,
    fingerprint: u64,
    file: Option<(PathBuf, Result<CampaignPart, CheckpointError>)>,
) -> Result<ChunkLoad, ServeError> {
    let Some((path, file)) = file else {
        return Ok(ChunkLoad::Missing);
    };
    if let Some(header) = judged_header(&file, fingerprint) {
        check_chunk(header, index, of, total, fingerprint)?;
    }
    match file {
        Ok(part) => Ok(ChunkLoad::Loaded(part)),
        // A listed name that resolves to nothing (a dangling link, a file
        // removed since the listing) holds no checkpoint.
        Err(_) if !path.exists() => Ok(ChunkLoad::Missing),
        Err(e) => Ok(ChunkLoad::Damaged {
            path,
            reason: e.error.to_string(),
        }),
    }
}

/// The shard header a checkpoint `file` is judged by: a loaded chunk's,
/// and that of a chunk that did not load but whose header names another
/// spec — its unresolved names are that campaign's, so it is foreign, not
/// damaged. A chunk of this spec that did not load has none.
fn judged_header(
    file: &Result<CampaignPart, CheckpointError>,
    fingerprint: u64,
) -> Option<&ShardHeader> {
    match file {
        Ok(part) => Some(&part.shard),
        Err(e) => e
            .header
            .as_ref()
            .filter(|h| h.spec_fingerprint != fingerprint),
    }
}

/// Refuses a chunk's shard `header` unless it is chunk `index` of `of` of
/// the spec with `fingerprint` and `total` tasks: the one rule that keeps a
/// chunk of another campaign (another spec or chunk geometry) out of a run.
fn check_chunk(
    header: &ShardHeader,
    index: usize,
    of: usize,
    total: usize,
    fingerprint: u64,
) -> Result<(), ServeError> {
    let own = header.spec_fingerprint == fingerprint
        && header.index == index
        && header.of == of
        && header.range() == chunk_range(total, index, of);
    if own {
        return Ok(());
    }
    Err(ServeError::CheckpointMismatch {
        index,
        expected: fingerprint,
        found: header.spec_fingerprint,
    })
}

/// The checkpoint file of chunk `index` in `dir`: `chunk-NNNNN.json`. A
/// scheduler run writes and resumes its chunks here, and
/// [`Scheduler::run_chunk`] writes its one chunk here.
#[must_use]
pub fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:05}.json"))
}

/// Every `chunk-*.json` file in `dir`, sorted by name (so by chunk index).
/// Whether each one loads is for the caller to find out.
pub(crate) fn chunk_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("chunk-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}
