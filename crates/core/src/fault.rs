//! Deterministic fault injection for the artifact pipeline.
//!
//! Production campaigns die in boring ways: the process is killed after an
//! arbitrary write, a file is half-flushed, the disk fills, a rename never
//! lands. This module makes those deaths *injectable, seeded and replayable*
//! so the recovery paths ([`crate::serve::Scheduler`] resume, fuzz-corpus
//! reload, incremental matrix reuse) are exercised for **every** write prefix
//! of a run, not just one hand-crafted kill scenario.
//!
//! Three pieces:
//!
//! 1. [`write_atomic`] — the single choke point through which every campaign
//!    artifact (matrix JSON, chunk checkpoints, fuzz corpus) is persisted.
//!    Unarmed it is a plain crash-consistent tmp+rename write. Armed with a
//!    [`FaultPlan`] it counts writes and injects exactly one fault at the
//!    planned index, then behaves as if the process had died: every later
//!    write fails.
//! 2. `crash_sweep` — the harness: run a workload once fault-free to learn
//!    its write count `W` and oracle output, then re-run it `W` times, each
//!    time crashing at a different write index `k`, resuming, and asserting
//!    the recovered output is bit-identical to the oracle. Two workloads
//!    are built in: [`sweep_scheduler`] (a checkpointed scheduler run) and
//!    [`sweep_fuzz`] (the fuzz-corpus checkpoint cadence), which the
//!    integration tests in `tests/fault.rs` run.
//! 3. [`PanickingAttack`] — a registry-wrapping test double whose simulation
//!    panics while armed, for driving the campaign quarantine path
//!    ([`crate::campaign::CellOutcome::Quarantined`]) end to end.
//!
//! Fault state is process-global (the write layer is called from deep inside
//! the campaign engine), so [`arm`]/[`observe`] also serialize armers: the
//! returned [`ArmedFault`] guard holds a global gate for its lifetime,
//! keeping concurrent tests from trampling each other's plans. A guard sees
//! only the writes of the thread that armed it and of the executor workers
//! that thread starts; writers on other threads (an unarmed test running
//! alongside) are neither counted nor faulted.

use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::campaign::{CampaignMatrix, CampaignPart, CampaignSpec};
use crate::discovery::fuzz::rng::mix;
use crate::discovery::fuzz::{self, Corpus, FuzzConfig};
use crate::serve::{chunk_files, Scheduler};
use attacks::{Attack, AttackError, AttackInfo, AttackOutcome};
use tsg::SecurityAnalysis;
use uarch::Machine;

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// The way a planned write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The write itself lands completely — the process dies immediately
    /// after. Models `kill -9` between two artifact saves.
    CrashAfterWrite,
    /// A prefix of the payload reaches the *destination* path and nothing
    /// more. Models a non-atomic writer (or a filesystem without atomic
    /// rename) killed mid-`write(2)` — the on-disk file is torn.
    TornWrite,
    /// Nothing reaches disk; the write fails with an out-of-space error.
    Enospc,
    /// The temporary file is fully written but the publishing rename never
    /// happens: the destination keeps its old contents (or stays absent) and
    /// a stray `.tmp` sibling is left behind.
    FailedRename,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::CrashAfterWrite => "crash-after-write",
            FaultKind::TornWrite => "torn-write",
            FaultKind::Enospc => "enospc",
            FaultKind::FailedRename => "failed-rename",
        };
        f.write_str(name)
    }
}

/// A replayable plan: fail write number `at` (0-based) with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    kind: FaultKind,
    at: usize,
}

impl FaultPlan {
    /// A seeded plan for write `k`: the fault kind is chosen by hashing
    /// `(seed, k)`, so a sweep over `k = 0..writes` with a fixed seed
    /// exercises a deterministic, replayable mix of all four kinds.
    #[must_use]
    pub fn seeded(seed: u64, k: usize) -> Self {
        // One SplitMix64 step from the state `seed ^ k·γ`: enough mixing to
        // spread `(seed, k)` over the four kinds.
        let gamma = 0x9e37_79b9_7f4a_7c15;
        let kind = match mix((seed ^ (k as u64).wrapping_mul(gamma)).wrapping_add(gamma)) % 4 {
            0 => FaultKind::CrashAfterWrite,
            1 => FaultKind::TornWrite,
            2 => FaultKind::Enospc,
            _ => FaultKind::FailedRename,
        };
        FaultPlan { kind, at: k }
    }

    /// The fault kind this plan injects.
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The 0-based write index at which the fault fires.
    #[must_use]
    pub fn at(&self) -> usize {
        self.at
    }
}

// ---------------------------------------------------------------------------
// Global armed state
// ---------------------------------------------------------------------------

struct ArmedState {
    plan: Option<FaultPlan>,
    writes: usize,
    fired: bool,
    crashed: bool,
}

static ARMED: Mutex<Option<ArmedState>> = Mutex::new(None);
/// Serializes armers: only one `ArmedFault` guard exists at a time, so
/// concurrent tests cannot observe each other's write counts or plans.
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's writes belong to the armed guard: set on the
    /// thread that arms (only one guard exists at a time, see [`GATE`]) and
    /// carried into executor workers by [`set_in_scope`].
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread writes in the armed guard's scope, for
/// handing to the worker threads it starts.
pub(crate) fn in_scope() -> bool {
    IN_SCOPE.with(Cell::get)
}

/// Puts the calling (worker) thread in or out of the armed guard's scope.
pub(crate) fn set_in_scope(in_scope: bool) {
    IN_SCOPE.with(|s| s.set(in_scope));
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while armed (e.g. an assertion failure in a sweep closure)
    // poisons the mutex; the state itself is still coherent, so recover it.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Guard for an armed fault plan (or a plan-less observation). While alive it
/// owns the process-global fault slot; dropping it disarms and resets the
/// write counter.
#[derive(Debug)]
pub struct ArmedFault {
    _gate: MutexGuard<'static, ()>,
}

impl ArmedFault {
    /// Number of writes [`write_atomic`] has seen in this guard's scope
    /// (see the [module docs](self)) since arming.
    #[must_use]
    pub fn writes(&self) -> usize {
        lock(&ARMED).as_ref().map_or(0, |s| s.writes)
    }

    /// Whether the planned fault has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        lock(&ARMED).as_ref().is_some_and(|s| s.fired)
    }
}

impl Drop for ArmedFault {
    fn drop(&mut self) {
        *lock(&ARMED) = None;
        set_in_scope(false);
    }
}

/// Arm `plan`: the `plan.at()`-th call to [`write_atomic`] (0-based) fails
/// with `plan.kind()`, after which every further write fails as if the
/// process had crashed. Blocks until any other armed guard is dropped.
#[must_use]
pub fn arm(plan: FaultPlan) -> ArmedFault {
    arm_state(Some(plan))
}

/// Arm in observation-only mode: writes are counted (see
/// [`ArmedFault::writes`]) but never fail. Used by `crash_sweep` to learn a
/// workload's write count before sweeping it.
#[must_use]
pub fn observe() -> ArmedFault {
    arm_state(None)
}

fn arm_state(plan: Option<FaultPlan>) -> ArmedFault {
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    set_in_scope(true);
    *lock(&ARMED) = Some(ArmedState {
        plan,
        writes: 0,
        fired: false,
        crashed: false,
    });
    ArmedFault { _gate: gate }
}

// ---------------------------------------------------------------------------
// Injected errors
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct InjectedFault {
    kind: FaultKind,
    write: usize,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Enospc => write!(
                f,
                "injected fault: no space left on device at write #{}",
                self.write
            ),
            kind => write!(f, "injected fault: {kind} at write #{}", self.write),
        }
    }
}

impl Error for InjectedFault {}

#[derive(Debug)]
struct CrashedProcess;

impl fmt::Display for CrashedProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("injected fault: process already crashed; write refused")
    }
}

impl Error for CrashedProcess {}

/// Whether an I/O error was injected by this module (as opposed to a real
/// filesystem failure): "the planned fault fired", not "something actually
/// broke".
#[cfg(test)]
fn is_injected(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.is::<InjectedFault>() || inner.is::<CrashedProcess>())
}

// ---------------------------------------------------------------------------
// The write choke point
// ---------------------------------------------------------------------------

/// What the armed state tells this write to do. Computed under the lock,
/// executed outside it (no filesystem work while holding the mutex).
enum WriteAction {
    Plain,
    Refused,
    Fault(FaultKind, usize),
}

fn next_action() -> WriteAction {
    if !in_scope() {
        return WriteAction::Plain;
    }
    let mut guard = lock(&ARMED);
    let Some(state) = guard.as_mut() else {
        return WriteAction::Plain;
    };
    let index = state.writes;
    state.writes += 1;
    if state.crashed {
        return WriteAction::Refused;
    }
    match state.plan {
        Some(plan) if plan.at == index => {
            state.fired = true;
            state.crashed = true;
            WriteAction::Fault(plan.kind, index)
        }
        _ => WriteAction::Plain,
    }
}

/// Crash-consistent artifact write: the payload lands at `path` completely or
/// not at all, via a same-directory `.tmp` sibling and an atomic rename.
///
/// This is the single write path for every campaign artifact — matrix JSON,
/// scheduler chunk checkpoints, the fuzz corpus — which is what makes a
/// [`FaultPlan`] armed via [`arm`] able to fail *any* write in a run:
///
/// * [`FaultKind::CrashAfterWrite`] — this write succeeds, all later ones
///   fail (`Ok` is returned here).
/// * [`FaultKind::TornWrite`] — a prefix of the payload is written directly
///   to `path` (bypassing the rename), then the error is returned.
/// * [`FaultKind::Enospc`] — nothing is written; an out-of-space-flavoured
///   error is returned.
/// * [`FaultKind::FailedRename`] — the `.tmp` file is fully written but the
///   rename is skipped; the destination keeps its previous state.
///
/// # Errors
///
/// Real filesystem errors from creating, writing or renaming the temporary
/// file, or an injected error (`is_injected`) when an armed plan fires.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    match next_action() {
        WriteAction::Plain => plain_atomic(path, contents),
        WriteAction::Refused => Err(io::Error::other(CrashedProcess)),
        WriteAction::Fault(kind, write) => {
            let injected = || io::Error::other(InjectedFault { kind, write });
            match kind {
                FaultKind::CrashAfterWrite => plain_atomic(path, contents),
                FaultKind::TornWrite => {
                    fs::write(path, &contents.as_bytes()[..contents.len() / 2])?;
                    Err(injected())
                }
                FaultKind::Enospc => Err(injected()),
                FaultKind::FailedRename => {
                    fs::write(tmp_path(path), contents)?;
                    Err(injected())
                }
            }
        }
    }
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_owned());
    name.push(".tmp");
    path.with_file_name(name)
}

fn plain_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = tmp_path(path);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Crash sweep
// ---------------------------------------------------------------------------

/// Result of a full `crash_sweep`: how many write points were swept and
/// how many injected faults actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Write count of the fault-free oracle run — one sweep case per write.
    pub writes: usize,
    /// Injected faults that fired across the sweep (crash-after-write at the
    /// final write index completes the run, so this can be < `writes`).
    pub fired: usize,
}

/// Prove a workload is crash-consistent at **every** write prefix.
///
/// The contract, for three closures over the same on-disk workspace:
///
/// * `fresh()` — wipe the workspace back to a blank slate;
/// * `attempt()` — run the workload end to end and return the final artifact
///   bytes (it runs with a fault armed, so it may fail);
/// * `resume(k)` — re-run the workload *without* wiping (faults disarmed),
///   returning the final artifact bytes; `k` is the write index that was
///   faulted, for error reporting. Callers put their "zero re-simulated
///   cells" assertions inside this closure, returning `Err` to fail the
///   sweep.
///
/// The harness first runs `fresh` + `attempt` under [`observe`] to learn the
/// write count `W` and the oracle bytes. Then for each `k in 0..W` it wipes,
/// arms [`FaultPlan::seeded`]`(seed, k)`, attempts, resumes if the attempt
/// died, and requires the surviving bytes to be bit-identical to the oracle.
///
/// # Errors
///
/// A message naming the failing write index and fault kind when any sweep
/// case diverges from the oracle (or when oracle/resume runs themselves
/// fail).
fn crash_sweep<E: fmt::Display>(
    seed: u64,
    mut fresh: impl FnMut() -> Result<(), E>,
    mut attempt: impl FnMut() -> Result<Vec<u8>, E>,
    mut resume: impl FnMut(usize) -> Result<Vec<u8>, E>,
) -> Result<SweepReport, String> {
    fresh().map_err(|e| format!("crash sweep: initial wipe failed: {e}"))?;
    let (oracle, writes) = {
        let guard = observe();
        let bytes =
            attempt().map_err(|e| format!("crash sweep: fault-free oracle run failed: {e}"))?;
        (bytes, guard.writes())
    };

    let mut fired = 0;
    for k in 0..writes {
        let plan = FaultPlan::seeded(seed, k);
        fresh().map_err(|e| format!("crash sweep: wipe before write #{k} failed: {e}"))?;
        let outcome = {
            let guard = arm(plan);
            let outcome = attempt();
            if guard.fired() {
                fired += 1;
            }
            outcome
        };
        let bytes = match outcome {
            Ok(bytes) => bytes,
            Err(_) => resume(k).map_err(|e| {
                format!(
                    "crash sweep: resume after {} at write #{k} failed: {e}",
                    plan.kind()
                )
            })?,
        };
        if bytes != oracle {
            return Err(format!(
                "crash sweep: output diverged from oracle after {} at write #{k}",
                plan.kind()
            ));
        }
    }
    Ok(SweepReport { writes, fired })
}

/// Wipes and recreates a sweep workspace directory.
fn wipe(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// Counts the checkpoint files in `ckpt` that still load as valid chunks —
/// a resume must reuse at least these.
fn intact_chunks(ckpt: &Path) -> usize {
    chunk_files(ckpt).map_or(0, |paths| {
        paths
            .iter()
            .filter(|p| CampaignPart::load_checkpoint_json(p).is_ok())
            .count()
    })
}

/// `crash_sweep` over a checkpointed [`Scheduler`] run of `spec` (one
/// worker, 2-task chunks, checkpoints in `dir/ckpt`, final matrix written
/// to `dir/matrix.json`). `dir` is a scratch workspace the sweep wipes.
///
/// Every resume must reuse at least every checkpoint that survived the
/// fault intact (zero completed cells re-simulated) and cover the whole
/// cube: `resumed + executed == chunks`.
///
/// # Errors
///
/// The `crash_sweep` message of the first failing write index.
pub fn sweep_scheduler(spec: &CampaignSpec, dir: &Path, seed: u64) -> Result<SweepReport, String> {
    let ckpt = dir.join("ckpt");
    let out = dir.join("matrix.json");
    let run = || {
        Scheduler::new(spec)
            .workers(1)
            .chunk_tasks(2)
            .checkpoint(&ckpt)
            .run()
            .map_err(|e| e.to_string())
    };
    let save = |matrix: &CampaignMatrix| {
        write_atomic(&out, &matrix.to_json()).map_err(|e| e.to_string())?;
        fs::read(&out).map_err(|e| e.to_string())
    };
    crash_sweep(
        seed,
        || wipe(dir).map_err(|e| e.to_string()),
        || save(&run()?.0),
        |k| {
            let intact = intact_chunks(&ckpt);
            let (matrix, rep) = run()?;
            if rep.resumed < intact {
                return Err(format!(
                    "resume after write #{k} reused {} chunk(s) but {intact} \
                     checkpoint(s) were intact — completed cells were re-simulated",
                    rep.resumed,
                ));
            }
            if rep.resumed + rep.executed != rep.chunks {
                return Err(format!(
                    "resume after write #{k} covered {} of {} chunk(s)",
                    rep.resumed + rep.executed,
                    rep.chunks,
                ));
            }
            save(&matrix)
        },
    )
}

/// `crash_sweep` over a fuzz run of `cfg` whose corpus lives in `dir`, a
/// scratch workspace the sweep wipes.
///
/// Every resume must re-classify exactly the candidates the surviving
/// corpus does not cover: `budget − on_disk`, where a torn or missing
/// corpus counts as 0.
///
/// # Errors
///
/// The `crash_sweep` message of the first failing write index.
pub fn sweep_fuzz(cfg: &FuzzConfig, dir: &Path, seed: u64) -> Result<SweepReport, String> {
    let run = || {
        let report = fuzz::fuzz(cfg, Some(dir)).map_err(|e| e.to_string())?;
        let bytes = fs::read(Corpus::path_in(dir)).map_err(|e| e.to_string())?;
        Ok::<_, String>((report, bytes))
    };
    crash_sweep(
        seed,
        || wipe(dir).map_err(|e| e.to_string()),
        || Ok(run()?.1),
        |k| {
            // How far the surviving corpus actually got: a torn or missing
            // file recovers from zero, an intact checkpoint from its budget.
            let on_disk = match Corpus::load(dir) {
                Ok(Some(corpus)) => corpus.classified,
                Ok(None) => 0,
                Err(e) if e.is_recoverable() => 0,
                Err(e) => return Err(format!("corpus after write #{k} is unrecoverable: {e}")),
            };
            let (resumed, bytes) = run()?;
            if resumed.newly_classified != cfg.budget - on_disk {
                return Err(format!(
                    "resume after write #{k} re-classified {} candidate(s), \
                     expected {} (the corpus on disk already had {on_disk})",
                    resumed.newly_classified,
                    cfg.budget - on_disk,
                ));
            }
            Ok(bytes)
        },
    )
}

// ---------------------------------------------------------------------------
// Panicking attack double
// ---------------------------------------------------------------------------

/// A registry-wrapping [`Attack`] whose simulation panics while armed.
///
/// Catalog metadata and the attack graph pass through to the wrapped attack
/// unchanged — only `run_in` is hijacked — so a campaign over a
/// `PanickingAttack` exercises exactly the quarantine path: graph verdicts
/// stay available while the machine-truth cell degrades to
/// [`crate::campaign::CellOutcome::Quarantined`]. Call [`disarm`] and re-run
/// to drive the incremental-healing path.
///
/// [`disarm`]: PanickingAttack::disarm
#[derive(Debug)]
pub struct PanickingAttack {
    inner: &'static dyn Attack,
    armed: AtomicBool,
}

impl PanickingAttack {
    /// Wrap `inner`, armed. The double is leaked to `'static` so it can sit
    /// in a [`crate::campaign::CampaignSpec`] attack list.
    #[must_use]
    pub fn wrap(inner: &'static dyn Attack) -> &'static Self {
        Box::leak(Box::new(PanickingAttack {
            inner,
            armed: AtomicBool::new(true),
        }))
    }

    /// Re-arm the fault: subsequent simulations panic.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Remove the fault: subsequent simulations delegate to the wrapped
    /// attack, allowing quarantined cells to heal on the next run.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the next simulation will panic.
    fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

impl Attack for PanickingAttack {
    fn info(&self) -> AttackInfo {
        self.inner.info()
    }

    fn graph(&self) -> SecurityAnalysis {
        self.inner.graph()
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        if self.is_armed() {
            panic!(
                "injected fault: {} simulation panicked",
                self.inner.info().name
            );
        }
        self.inner.run_in(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-kind plan for the per-kind tests; the sweeps use
    /// [`FaultPlan::seeded`].
    fn plan(kind: FaultKind, at: usize) -> FaultPlan {
        FaultPlan { kind, at }
    }

    fn dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("specgraph-fault-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn unarmed_write_is_atomic_and_clean() {
        let path = dir().join("plain.json");
        write_atomic(&path, "{\"ok\": true}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"ok\": true}");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn seeded_plans_are_replayable_and_mixed() {
        let a: Vec<_> = (0..32).map(|k| FaultPlan::seeded(7, k).kind()).collect();
        let b: Vec<_> = (0..32).map(|k| FaultPlan::seeded(7, k).kind()).collect();
        assert_eq!(a, b);
        for kind in [
            FaultKind::CrashAfterWrite,
            FaultKind::TornWrite,
            FaultKind::Enospc,
            FaultKind::FailedRename,
        ] {
            assert!(a.contains(&kind), "seed 7 never produces {kind}");
        }
    }

    #[test]
    fn seeded_plan_kinds_are_pinned() {
        // `campaign fault sweep --seed N` replays these plans, so the
        // (seed, k) -> kind map is part of the sweep's reproducibility.
        use FaultKind::{CrashAfterWrite as C, Enospc as E, FailedRename as R, TornWrite as T};
        let kinds = |seed| (0..6).map(move |k| FaultPlan::seeded(seed, k).kind());
        let got: Vec<Vec<FaultKind>> = [0, 1, 7, 42, u64::MAX]
            .into_iter()
            .map(|seed| kinds(seed).collect())
            .collect();
        let want = [
            [R, C, R, C, R, E],
            [T, T, E, E, T, R],
            [R, T, T, E, E, C],
            [T, R, R, C, E, T],
            [C, R, C, R, C, T],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn each_fault_kind_leaves_its_signature_on_disk() {
        let d = dir();
        let payload = "{\"version\": 7, \"cells\": [1, 2, 3]}";

        // Torn write: destination holds a strict prefix.
        let torn = d.join("torn.json");
        {
            let _g = arm(plan(FaultKind::TornWrite, 0));
            let err = write_atomic(&torn, payload).unwrap_err();
            assert!(is_injected(&err), "{err}");
        }
        let got = fs::read_to_string(&torn).unwrap();
        assert_eq!(got, &payload[..payload.len() / 2]);

        // ENOSPC: destination untouched.
        let gone = d.join("enospc.json");
        {
            let _g = arm(plan(FaultKind::Enospc, 0));
            assert!(write_atomic(&gone, payload).is_err());
        }
        assert!(!gone.exists());

        // Failed rename: tmp present, destination absent.
        let lost = d.join("lost.json");
        {
            let _g = arm(plan(FaultKind::FailedRename, 0));
            assert!(write_atomic(&lost, payload).is_err());
        }
        assert!(!lost.exists());
        assert_eq!(fs::read_to_string(tmp_path(&lost)).unwrap(), payload);

        // Crash-after: this write lands, the next is refused.
        let last = d.join("last.json");
        let after = d.join("after.json");
        {
            let g = arm(plan(FaultKind::CrashAfterWrite, 0));
            write_atomic(&last, payload).unwrap();
            let err = write_atomic(&after, payload).unwrap_err();
            assert!(is_injected(&err));
            assert_eq!(g.writes(), 2);
            assert!(g.fired());
        }
        assert_eq!(fs::read_to_string(&last).unwrap(), payload);
        assert!(!after.exists());

        for p in [torn, lost, tmp_path(&d.join("lost.json")), last] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn observe_counts_without_failing() {
        let d = dir();
        let p = d.join("observed.json");
        let g = observe();
        write_atomic(&p, "1").unwrap();
        write_atomic(&p, "2").unwrap();
        assert_eq!(g.writes(), 2);
        assert!(!g.fired());
        drop(g);
        let _ = fs::remove_file(p);
    }

    #[test]
    fn armed_scope_spans_executor_workers_but_not_other_threads() {
        let d = dir().join("scope");
        fs::create_dir_all(&d).unwrap();
        let g = arm(plan(FaultKind::Enospc, 4));
        // A thread the arming thread did not start through the executor
        // writes outside the plan: not counted, not faulted.
        let outsider = d.join("outsider.json");
        std::thread::scope(|s| {
            s.spawn(|| write_atomic(&outsider, "x").unwrap());
        });
        assert_eq!(g.writes(), 0);
        // Executor workers write inside it.
        crate::exec::map_indexed(
            4,
            2,
            || (),
            |(), i| write_atomic(d.join(format!("w{i}.json")), "y"),
        )
        .unwrap();
        assert_eq!(g.writes(), 4);
        assert!(write_atomic(d.join("w4.json"), "y").is_err());
        assert!(g.fired());
        drop(g);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_sweep_passes_on_a_two_write_workload() {
        let d = dir().join("sweep-two-write");
        let a = d.join("a.json");
        let b = d.join("b.json");
        let report = crash_sweep::<io::Error>(
            11,
            || {
                let _ = fs::remove_dir_all(&d);
                fs::create_dir_all(&d)
            },
            || {
                write_atomic(&a, "alpha")?;
                write_atomic(&b, "beta")?;
                Ok(b"alphabeta".to_vec())
            },
            |_k| {
                // Resume: redo whichever writes didn't land (both are
                // idempotent, so just redo any missing/damaged one).
                for (p, want) in [(&a, "alpha"), (&b, "beta")] {
                    if fs::read_to_string(p).ok().as_deref() != Some(want) {
                        write_atomic(p, want)?;
                    }
                }
                Ok(b"alphabeta".to_vec())
            },
        )
        .expect("sweep passes");
        assert_eq!(report.writes, 2);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn panicking_attack_delegates_metadata_and_panics_armed() {
        let inner = attacks::find(attacks::names::MELTDOWN).expect("registry attack");
        let double = PanickingAttack::wrap(inner);
        assert_eq!(double.info().name, inner.info().name);
        assert!(double.is_armed());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = uarch::UarchConfig::default();
            let _ = double.run(&cfg);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        double.disarm();
        let out = double
            .run(&uarch::UarchConfig::default())
            .expect("delegates");
        assert!(out.leaked);
    }
}
