//! The campaign engine: batch evaluation of the full
//! attack × defense × configuration cube.
//!
//! The paper's deliverables are *matrices* — Table III's attack variants,
//! Figure 8's four strategies, Table II's defense catalog — and the seed
//! evaluated them one `(attack, defense)` pair at a time with hand-copied
//! attack lists in every binary. A campaign instead takes the registries
//! ([`attacks::registry`], [`defenses::registry`]) plus a *configuration
//! grid*, evaluates every cell in parallel, and returns a
//! [`CampaignMatrix`] with deterministic ordering, O(1) lookups, the §V-B
//! "false sense of security" extraction, and JSON/CSV export.
//!
//! The defense axis is a list of [`DefenseStack`]s: singleton stacks give
//! the classic one-defense-per-column sweep (the registry default), and
//! curated bundles — [`defenses::presets::linux_default`], parsed
//! `"kpti+retpoline"` expressions — make the **attack × stack** matrix the
//! paper's §V-B discussion calls for, via
//! [`CampaignSpecBuilder::defense_stacks`].
//!
//! The configuration axis is built from **typed knobs** over
//! [`UarchConfig`]: each [`Knob`] axis contributes its values to a full
//! cartesian grid, with auto-generated config names:
//!
//! ```
//! use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
//! use uarch::UarchConfig;
//!
//! # fn main() -> Result<(), attacks::AttackError> {
//! let spec = CampaignSpec::builder(UarchConfig::default())
//!     .attacks(attacks::registry().iter().copied().take(2))
//!     .defenses(defenses::registry().iter().copied().take(2))
//!     .axis(Knob::RobDepth, [16usize, 64])
//!     .axis(Knob::Hardening, [Hardening::None, Hardening::FlushPredictors])
//!     .build();
//! let matrix = CampaignMatrix::run(&spec)?;
//! assert_eq!(matrix.shape(), (2, 2, 4)); // 2×2 knob grid = 4 config slices
//! assert_eq!(matrix.configs[0], "rob=16 baseline");
//! # Ok(())
//! # }
//! ```
//!
//! Tasks that run the same attack on machines that differ only in
//! switches the run never read — a baseline on a hardened slice and the
//! cells whose defenses set the same knob, two aliasing defenses such as
//! NDA and SpecShield, or a defense whose switch the attack never reaches
//! — share one simulation. Worker threads take the tasks one attack at a
//! time, and rows are reassembled by cell index, so the output is
//! byte-identical regardless of thread count or scheduling. That
//! index-addressed, deterministic cell order is also what makes the cube
//! **shardable** ([`Scheduler::run_chunk`](crate::serve::Scheduler::run_chunk)
//! / [`CampaignMatrix::merge`]: merging is validated concatenation) and
//! **incrementally re-evaluable**
//! ([`Scheduler::prev`](crate::serve::Scheduler::prev): every cell
//! carries a content fingerprint — attack name, defense name + strategy,
//! config contents — and cells whose fingerprint appears in a previous
//! matrix, e.g. one loaded with [`CampaignMatrix::load_json`], are reused
//! instead of re-simulated).
//!
//! ## Cross-process sharding
//!
//! A shard is a [`Scheduler`](crate::serve::Scheduler) chunk:
//! [`Scheduler::run_chunk`](crate::serve::Scheduler::run_chunk)`(i, n)`
//! evaluates exactly the task range of chunk `i` of a cube cut into `n`
//! chunks, and with a checkpoint directory writes its [`CampaignPart`] there
//! as the same checkpoint document a whole run writes (schema version
//! [`SCHEMA_VERSION`], with a shard header carrying the spec fingerprint
//! and the chunk's slot in the task range). So `n` independent processes —
//! or machines — can each run one chunk into one directory, and a final
//! scheduler run over that directory resumes every chunk and assembles the
//! matrix bit-identically to a single-shot run, simulating nothing. A
//! directory holding chunks of a *different* spec (different attack lists,
//! knob values, or base configurations) or chunk count is a typed
//! [`CheckpointMismatch`](crate::serve::ServeError::CheckpointMismatch),
//! never a silent merge:
//!
//! ```
//! use specgraph::campaign::{CampaignMatrix, CampaignSpec};
//! use specgraph::serve::Scheduler;
//! use uarch::UarchConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec::builder(UarchConfig::default())
//!     .attacks(attacks::registry().iter().copied().take(2))
//!     .defenses(defenses::registry().iter().copied().take(1))
//!     .build();
//! let dir = std::env::temp_dir().join(format!("campaign-doc-{}", std::process::id()));
//!
//! // Each of these runs could happen in its own process:
//! for i in 0..2 {
//!     Scheduler::new(&spec).checkpoint(&dir).run_chunk(i, 2)?;
//! }
//! // A run over the directory resumes both chunks and simulates nothing.
//! let (merged, report) = Scheduler::new(&spec).checkpoint(&dir).run()?;
//! assert_eq!((report.resumed, report.executed), (2, 0));
//! assert_eq!(merged.to_json(), CampaignMatrix::run(&spec)?.to_json());
//! std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! Saved matrices feed an incremental
//! [`Scheduler`](crate::serve::Scheduler) run across the same process
//! boundary: re-running an unchanged spec against a loaded matrix
//! evaluates zero cells.

use crate::jsonio::{self, push_escaped, push_json_list, push_json_str, Json, JsonError};
use crate::scenario::Evaluation;
use crate::serve::ScheduleReport;
use attacks::{Attack, AttackError, AttackInfo, BatchRunner};
use defenses::{Defense, DefenseStack, Verdict};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use uarch::{Switches, UarchConfig};

/// Schema version stamped on every matrix and checkpoint document this
/// module writes (`"version"` plus a `"kind"` discriminator:
/// `"campaign-matrix"` or `"campaign-checkpoint"`). A `"campaign-part"`
/// document, the shard file of older builds, is a typed
/// [`CampaignIoError::Kind`]: shards are checkpoint chunks now.
/// Version 7 adds degraded-cell outcomes: rows whose simulation was
/// quarantined after a panic or timed out against the cycle budget carry
/// a typed [`CellOutcome`] (`"mechanism": "quarantined"`/`"timed_out"`
/// plus a reason/budget field) instead of aborting the producing run.
/// Fault-free rows are byte-identical to version 5 apart from the
/// version number, so version-5 documents still load, as do version-4
/// stack matrices and version-3 single-defense documents. Any other
/// version is a typed [`CampaignIoError::Version`]. (Version 6 is
/// skipped: the fuzz corpus namespace owns it.)
pub const SCHEMA_VERSION: u64 = 7;

/// The pre-outcome schema (no degraded rows, `campaign-checkpoint` kind
/// present). Accepted on load, never written.
const PRE_OUTCOME_VERSION: u64 = 5;

/// The pre-checkpoint schema (stack-valued defense axis, no
/// `campaign-checkpoint` kind). Accepted on load, never written.
const STACK_MATRIX_VERSION: u64 = 4;

/// The pre-stack schema: single-defense documents with `kind` headers.
/// Accepted on load (a single defense name parses as a singleton stack),
/// never written.
const SINGLE_DEFENSE_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// Typed configuration knobs
// ---------------------------------------------------------------------------

/// A named [`UarchConfig`] dimension a campaign can sweep.
///
/// Each knob maps one grid-axis value onto the simulator configuration;
/// the builder ([`CampaignSpec::builder`]) expands the cartesian product
/// of all declared axes into the campaign's config slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Knob {
    /// Re-order buffer capacity (`rob_capacity`).
    RobDepth,
    /// Instructions fetched per cycle (`fetch_width`).
    FetchWidth,
    /// Instructions issued per cycle (`issue_width`).
    IssueWidth,
    /// Cache geometry: number of sets (`cache_sets`).
    CacheSets,
    /// Cache geometry: associativity (`cache_ways`).
    CacheWays,
    /// Line fill buffer entries (`lfb_entries`).
    LfbEntries,
    /// Store buffer entries (`store_buffer_entries`).
    StoreBufferEntries,
    /// Return stack buffer depth (`rsb_depth`).
    RsbDepth,
    /// L1 hit latency in cycles (`cache_hit_latency`).
    CacheHitLatency,
    /// Miss-to-memory latency in cycles (`cache_miss_latency`).
    CacheMissLatency,
    /// Privilege/permission check latency (`permission_check_latency`).
    PermissionCheckLatency,
    /// A Figure-8 global hardening mechanism (the axis behind the old
    /// 5-slice strategy sweep, now one knob among many).
    Hardening,
}

impl Knob {
    const ALL: [Knob; 12] = [
        Knob::RobDepth,
        Knob::FetchWidth,
        Knob::IssueWidth,
        Knob::CacheSets,
        Knob::CacheWays,
        Knob::LfbEntries,
        Knob::StoreBufferEntries,
        Knob::RsbDepth,
        Knob::CacheHitLatency,
        Knob::CacheMissLatency,
        Knob::PermissionCheckLatency,
        Knob::Hardening,
    ];

    /// Stable axis token: how the `campaign` CLI spells `--axis KNOB=…`,
    /// and the prefix of auto-generated config names (`"rob=16"`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Knob::RobDepth => "rob",
            Knob::FetchWidth => "fetch",
            Knob::IssueWidth => "issue",
            Knob::CacheSets => "sets",
            Knob::CacheWays => "ways",
            Knob::LfbEntries => "lfb",
            Knob::StoreBufferEntries => "stbuf",
            Knob::RsbDepth => "rsb",
            Knob::CacheHitLatency => "hitlat",
            Knob::CacheMissLatency => "misslat",
            Knob::PermissionCheckLatency => "permlat",
            Knob::Hardening => "hardening",
        }
    }

    /// The knob for a [`Knob::token`] string.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Knob> {
        Self::ALL.into_iter().find(|k| k.token() == token)
    }

    /// Applies `value` to `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the value kind does not fit the knob (e.g. a numeric
    /// value for [`Knob::Hardening`]) — a spec-construction bug, caught at
    /// [`CampaignSpecBuilder::build`] time.
    fn apply(self, cfg: &mut UarchConfig, value: KnobValue) {
        match (self, value) {
            (Knob::RobDepth, KnobValue::Num(n)) => cfg.rob_capacity = to_usize(n),
            (Knob::FetchWidth, KnobValue::Num(n)) => cfg.fetch_width = to_usize(n),
            (Knob::IssueWidth, KnobValue::Num(n)) => cfg.issue_width = to_usize(n),
            (Knob::CacheSets, KnobValue::Num(n)) => cfg.cache_sets = to_usize(n),
            (Knob::CacheWays, KnobValue::Num(n)) => cfg.cache_ways = to_usize(n),
            (Knob::LfbEntries, KnobValue::Num(n)) => cfg.lfb_entries = to_usize(n),
            (Knob::StoreBufferEntries, KnobValue::Num(n)) => {
                cfg.store_buffer_entries = to_usize(n);
            }
            (Knob::RsbDepth, KnobValue::Num(n)) => cfg.rsb_depth = to_usize(n),
            (Knob::CacheHitLatency, KnobValue::Num(n)) => cfg.cache_hit_latency = n,
            (Knob::CacheMissLatency, KnobValue::Num(n)) => cfg.cache_miss_latency = n,
            (Knob::PermissionCheckLatency, KnobValue::Num(n)) => {
                cfg.permission_check_latency = n;
            }
            (Knob::Hardening, KnobValue::Hardening(h)) => h.apply(cfg),
            (knob, value) => panic!("knob {knob:?} cannot take value {value:?}"),
        }
    }

    /// The part this knob contributes to auto-generated config names.
    /// Called after [`Knob::apply`] accepted the value.
    fn label(self, value: KnobValue) -> String {
        match value {
            KnobValue::Num(n) => format!("{}={n}", self.token()),
            // Hardening labels stand alone so single-axis Figure-8 sweeps
            // keep the paper's slice names ("baseline", "② NDA", …).
            KnobValue::Hardening(h) => h.label().to_owned(),
        }
    }
}

fn to_usize(n: u64) -> usize {
    usize::try_from(n).expect("knob value fits in usize")
}

/// One value on a [`Knob`] axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KnobValue {
    /// A numeric knob setting (sizes, widths, latencies).
    Num(u64),
    /// A hardening mechanism (for [`Knob::Hardening`]).
    Hardening(Hardening),
}

impl From<usize> for KnobValue {
    fn from(n: usize) -> Self {
        KnobValue::Num(n as u64)
    }
}

impl From<Hardening> for KnobValue {
    fn from(h: Hardening) -> Self {
        KnobValue::Hardening(h)
    }
}

/// A globally applied Figure-8 hardening mechanism (one per distinct
/// simulator knob) — the configuration axis behind the overhead and
/// insufficiency discussions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Hardening {
    /// No hardening: the vulnerable baseline.
    None,
    /// ① loads wait for all older control flow (ubiquitous fencing).
    NoSpeculativeLoads,
    /// ① intra-instruction: permission checks complete before forwarding.
    EagerPermissionCheck,
    /// ② speculative load results are not forwarded (NDA family).
    Nda,
    /// ③ tainted transmitters wait until non-speculative (STT).
    Stt,
    /// ③ speculative misses are delayed (Conditional Speculation).
    DelayOnMiss,
    /// ③ speculative fills go to shadow structures (InvisiSpec/SafeSpec).
    InvisibleSpec,
    /// ③ speculative cache changes undone on squash (CleanupSpec).
    CleanupSpec,
    /// ④ predictor state flushed on context switches (IBPB).
    FlushPredictors,
}

impl Hardening {
    /// Every mechanism, baseline first.
    #[must_use]
    pub fn all() -> [Hardening; 9] {
        [
            Hardening::None,
            Hardening::NoSpeculativeLoads,
            Hardening::EagerPermissionCheck,
            Hardening::Nda,
            Hardening::Stt,
            Hardening::DelayOnMiss,
            Hardening::InvisibleSpec,
            Hardening::CleanupSpec,
            Hardening::FlushPredictors,
        ]
    }

    /// The paper's Figure-8 five-slice sweep: baseline plus one machine
    /// per strategy ①–④ (the old hand-rolled `strategy_sweep`).
    #[must_use]
    pub fn figure8() -> [Hardening; 5] {
        [
            Hardening::None,
            Hardening::NoSpeculativeLoads,
            Hardening::Nda,
            Hardening::Stt,
            Hardening::FlushPredictors,
        ]
    }

    fn apply(self, cfg: &mut UarchConfig) {
        match self {
            Hardening::None => {}
            Hardening::NoSpeculativeLoads => cfg.no_speculative_loads = true,
            Hardening::EagerPermissionCheck => cfg.eager_permission_check = true,
            Hardening::Nda => cfg.nda = true,
            Hardening::Stt => cfg.stt = true,
            Hardening::DelayOnMiss => cfg.delay_on_miss = true,
            Hardening::InvisibleSpec => cfg.invisible_spec = true,
            Hardening::CleanupSpec => cfg.cleanup_spec = true,
            Hardening::FlushPredictors => cfg.flush_predictors_on_switch = true,
        }
    }

    /// Display label (the paper's circled-strategy slice names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Hardening::None => "baseline",
            Hardening::NoSpeculativeLoads => "① no speculative loads",
            Hardening::EagerPermissionCheck => "① eager permission check",
            Hardening::Nda => "② NDA",
            Hardening::Stt => "③ STT",
            Hardening::DelayOnMiss => "③ delay-on-miss",
            Hardening::InvisibleSpec => "③ InvisiSpec",
            Hardening::CleanupSpec => "③ CleanupSpec",
            Hardening::FlushPredictors => "④ flush predictors",
        }
    }

    /// Stable ASCII token (how the `campaign` CLI spells `--axis
    /// hardening=…` values; the display [`Hardening::label`] keeps the
    /// paper's circled-strategy names).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Hardening::None => "baseline",
            Hardening::NoSpeculativeLoads => "no-spec-loads",
            Hardening::EagerPermissionCheck => "eager-permcheck",
            Hardening::Nda => "nda",
            Hardening::Stt => "stt",
            Hardening::DelayOnMiss => "delay-on-miss",
            Hardening::InvisibleSpec => "invisispec",
            Hardening::CleanupSpec => "cleanup-spec",
            Hardening::FlushPredictors => "flush-predictors",
        }
    }

    /// The mechanism for a [`Hardening::token`] string.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Hardening> {
        Self::all().into_iter().find(|h| h.token() == token)
    }
}

// ---------------------------------------------------------------------------
// Spec and builder
// ---------------------------------------------------------------------------

/// A machine configuration with a human-readable name (one slice of the
/// campaign cube's third axis). Produced by the builder's grid expansion;
/// hand-construction remains possible for irregular slices.
#[derive(Debug, Clone)]
pub struct NamedConfig {
    /// Display name, e.g. `"baseline"` or `"rob=16 sets=32"`.
    pub name: String,
    /// The simulator configuration evaluated under that name.
    pub config: UarchConfig,
}

impl NamedConfig {
    /// Names a configuration.
    pub fn new(name: impl Into<String>, config: UarchConfig) -> Self {
        NamedConfig {
            name: name.into(),
            config,
        }
    }
}

/// What to evaluate: the three axes of the cube plus the worker count.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Attack axis; defaults to the full [`attacks::registry`].
    pub attacks: Vec<&'static dyn Attack>,
    /// Defense axis: each entry is a [`DefenseStack`] — a singleton for a
    /// classic one-defense column, or a bundle
    /// (`"KAISER/KPTI+Retpoline+IBPB"`) evaluated as one deployment.
    /// Defaults to the full [`defenses::registry`], one singleton each.
    pub defenses: Vec<DefenseStack>,
    /// Configuration axis; defaults to one baseline machine.
    pub configs: Vec<NamedConfig>,
    /// Worker threads; `0` means "all available parallelism".
    pub threads: usize,
    /// When set, a cell that exhausts its [`UarchConfig::max_cycles`]
    /// budget degrades to [`CellOutcome::TimedOut`] instead of failing the
    /// run — the runaway-cell watchdog. A panicking cell is always
    /// quarantined as [`CellOutcome::Quarantined`]. Like
    /// [`threads`](Self::threads), excluded from
    /// [`fingerprint`](Self::fingerprint) — it changes how failures are
    /// handled, never what a successful cell evaluates to.
    pub degrade_timeouts: bool,
}

/// How a cell's simulation concluded. `Ok` rows carry machine truth;
/// degraded rows keep their (config-invariant) graph verdicts but report
/// the mechanism column as `"quarantined"`/`"timed_out"` so downstream
/// consumers can tell degraded data from real verdicts. Degraded rows are
/// never reused by incremental runs — a re-run with the fault gone heals
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CellOutcome {
    /// The simulation ran to completion; verdicts are machine truth.
    #[default]
    Ok,
    /// The runaway-cell watchdog fired: the simulation exceeded its cycle
    /// budget and was degraded so the campaign terminates.
    TimedOut {
        /// The [`UarchConfig::max_cycles`] budget that was exhausted.
        limit: u64,
    },
    /// The cell's simulation panicked and was quarantined.
    Quarantined {
        /// The (truncated) panic payload.
        reason: String,
    },
}

impl CellOutcome {
    /// Whether this is a completed, machine-truth outcome.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok)
    }

    /// The degraded-outcome token rows carry; `None` for `Ok`.
    fn token(&self) -> Option<&'static str> {
        match self {
            CellOutcome::Ok => None,
            CellOutcome::TimedOut { .. } => Some("timed_out"),
            CellOutcome::Quarantined { .. } => Some("quarantined"),
        }
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec::builder(UarchConfig::default()).build()
    }
}

impl CampaignSpec {
    /// Starts building a campaign over `base`: full registries, no grid
    /// axes yet. Without any [`axis`](CampaignSpecBuilder::axis) call the
    /// spec has the single config slice `"baseline"`.
    #[must_use]
    pub fn builder(base: UarchConfig) -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            base,
            attacks: attacks::registry().to_vec(),
            defenses: defenses::registry()
                .iter()
                .map(|d| DefenseStack::single(*d))
                .collect(),
            axes: Vec::new(),
            threads: 0,
        }
    }

    /// Total number of evaluation tasks (baseline runs + matrix cells).
    #[must_use]
    pub fn total_tasks(&self) -> usize {
        Layout::of(self).total()
    }

    /// A stable 64-bit digest of the spec's *contents*: attack names,
    /// defense names + strategies, and config names + full config
    /// contents ([`config_digest`]), all in axis order. The worker-thread
    /// count and [`degrade_timeouts`](Self::degrade_timeouts) are
    /// deliberately excluded — they change scheduling and failure
    /// handling, never results.
    ///
    /// Every [`CampaignPart`] records its producing spec's fingerprint.
    /// [`CampaignMatrix::merge`] refuses to combine parts whose
    /// fingerprints differ, and the [`Scheduler`](crate::serve::Scheduler)
    /// refuses a checkpoint chunk of another fingerprint: chunks are only
    /// meaningful relative to one exact task order, and that order is a
    /// function of these contents.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(b"campaign-spec\0", FNV_OFFSET);
        for at in &self.attacks {
            h = fnv1a(at.info().name.as_bytes(), h);
            h = fnv1a(b"\0", h);
        }
        h = fnv1a(b"\x01", h);
        for d in &self.defenses {
            h = fnv1a(b"\0", fnv1a_stack(d, h));
        }
        h = fnv1a(b"\x01", h);
        for nc in &self.configs {
            h = fnv1a(nc.name.as_bytes(), h);
            h = fnv1a(b"\0", h);
            h = fnv1a(&config_digest(&nc.config).to_le_bytes(), h);
        }
        h
    }
}

/// Attack names a document reader resolves before the registry.
pub(crate) type AttackNames = HashMap<&'static str, AttackInfo>;

/// Builder for [`CampaignSpec`]: registries by default, restrictable
/// attack/defense axes, and a cartesian configuration grid over typed
/// [`Knob`] axes.
#[derive(Debug)]
pub struct CampaignSpecBuilder {
    base: UarchConfig,
    attacks: Vec<&'static dyn Attack>,
    defenses: Vec<DefenseStack>,
    axes: Vec<(Knob, Vec<KnobValue>)>,
    threads: usize,
}

impl CampaignSpecBuilder {
    /// Replaces the attack axis (defaults to the full registry).
    #[must_use]
    pub fn attacks(mut self, attacks: impl IntoIterator<Item = &'static dyn Attack>) -> Self {
        self.attacks = attacks.into_iter().collect();
        self
    }

    /// Replaces the defense axis with *singleton* stacks, one per given
    /// defense (the classic one-defense-per-column sweep); pass `[]` for
    /// baseline-only campaigns (Tables I and III). For bundles, use
    /// [`defense_stacks`](Self::defense_stacks).
    #[must_use]
    pub fn defenses(mut self, defenses: impl IntoIterator<Item = Defense>) -> Self {
        self.defenses = defenses.into_iter().map(DefenseStack::single).collect();
        self
    }

    /// Replaces the defense axis with explicit [`DefenseStack`]s —
    /// curated bundles ([`defenses::presets`]), parsed
    /// `"kpti+retpoline"` expressions, and singletons can mix freely:
    ///
    /// ```
    /// use specgraph::campaign::CampaignSpec;
    /// use specgraph::defenses::{presets, DefenseStack};
    /// use uarch::UarchConfig;
    ///
    /// let spec = CampaignSpec::builder(UarchConfig::default())
    ///     .defense_stacks([
    ///         presets::linux_default(),
    ///         DefenseStack::parse("stt").unwrap(),
    ///     ])
    ///     .build();
    /// assert_eq!(spec.defenses.len(), 2);
    /// ```
    #[must_use]
    pub fn defense_stacks(mut self, stacks: impl IntoIterator<Item = DefenseStack>) -> Self {
        self.defenses = stacks.into_iter().collect();
        self
    }

    /// Sets the worker-thread count (`0` = all available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Declares a configuration axis: the grid sweeps `knob` over
    /// `values`. Axes multiply — each `axis` call multiplies the config
    /// count by `values.len()`, first-declared axis varying slowest.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a duplicate (the duplicate
    /// slices would share one name and fingerprint), or `knob` was already
    /// declared.
    #[must_use]
    pub fn axis<V: Into<KnobValue>>(
        mut self,
        knob: Knob,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        let values: Vec<KnobValue> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis {knob:?} needs at least one value");
        for (i, v) in values.iter().enumerate() {
            assert!(
                !values[..i].contains(v),
                "axis {knob:?} lists value {v:?} twice — the duplicate slices \
                 would share one name and one fingerprint"
            );
        }
        assert!(
            self.axes.iter().all(|(k, _)| *k != knob),
            "axis {knob:?} declared twice"
        );
        self.axes.push((knob, values));
        self
    }

    /// Expands the declared axes into the full cartesian configuration
    /// grid and finishes the spec.
    ///
    /// # Panics
    ///
    /// Panics if an axis value does not fit its knob (e.g. a numeric
    /// value on [`Knob::Hardening`]).
    #[must_use]
    pub fn build(self) -> CampaignSpec {
        let configs = if self.axes.is_empty() {
            vec![NamedConfig::new("baseline", self.base.clone())]
        } else {
            let count: usize = self.axes.iter().map(|(_, v)| v.len()).product();
            (0..count)
                .map(|index| {
                    // Mixed-radix decode of the grid index: first axis is
                    // the most significant digit (varies slowest).
                    let mut rest = index;
                    let mut positions = vec![0usize; self.axes.len()];
                    for (pos, (_, values)) in positions.iter_mut().zip(&self.axes).rev() {
                        *pos = rest % values.len();
                        rest /= values.len();
                    }
                    let mut cfg = self.base.clone();
                    let mut parts = Vec::with_capacity(self.axes.len());
                    for (pos, (knob, values)) in positions.iter().zip(&self.axes) {
                        let value = values[*pos];
                        knob.apply(&mut cfg, value);
                        parts.push(knob.label(value));
                    }
                    NamedConfig::new(parts.join(" "), cfg)
                })
                .collect()
        };
        CampaignSpec {
            attacks: self.attacks,
            defenses: self.defenses,
            configs,
            threads: self.threads,
            degrade_timeouts: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over everything formatted into it, so a rendering is hashed
/// as it streams out and never built as a `String`.
struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(s.as_bytes(), self.0);
        Ok(())
    }
}

/// A stable 64-bit digest of a machine configuration's *contents* (every
/// field, in declaration order).
///
/// Hashing the canonical `Debug` rendering covers all knobs, so any
/// change — a grid-axis value or a base-field tweak — changes the digest;
/// adding a field to `UarchConfig` deliberately invalidates every stored
/// fingerprint (the conservative direction for incremental re-evaluation).
#[must_use]
pub fn config_digest(cfg: &UarchConfig) -> u64 {
    let mut h = FnvWriter(FNV_OFFSET);
    write!(h, "{cfg:?}").expect("hashing into FNV cannot fail");
    h.0
}

pub(crate) fn baseline_fingerprint(attack: &str, digest: u64) -> u64 {
    let h = fnv1a(b"baseline\0", FNV_OFFSET);
    let h = fnv1a(attack.as_bytes(), h);
    fnv1a(&digest.to_le_bytes(), fnv1a(b"\0", h))
}

/// How a stack enters every fingerprint: its display name, a NUL, then
/// its [`DefenseStack::strategy_token`]. FNV is sequential over bytes, so
/// hashing the token's pieces in place equals hashing the joined string,
/// and no `String` is built.
fn fnv1a_stack(stack: &DefenseStack, hash: u64) -> u64 {
    let h = fnv1a(b"\0", fnv1a(stack.name().as_bytes(), hash));
    stack
        .strategy_token_pieces()
        .fold(h, |h, piece| fnv1a(piece.as_bytes(), h))
}

/// The cell fingerprint hashes the stack's display name and joined
/// strategy token, so a singleton stack's fingerprint equals the
/// pre-stack (schema v3) single-defense fingerprint — saved matrices keep
/// feeding incremental runs across the schema bump.
pub(crate) fn cell_fingerprint(attack: &str, stack: &DefenseStack, digest: u64) -> u64 {
    let h = fnv1a(b"cell\0", FNV_OFFSET);
    let h = fnv1a(attack.as_bytes(), h);
    let h = fnv1a_stack(stack, fnv1a(b"\0", h));
    fnv1a(&digest.to_le_bytes(), fnv1a(b"\0", h))
}

// ---------------------------------------------------------------------------
// Task order
// ---------------------------------------------------------------------------

/// The cube's task order, and the only code that knows it. Task ids
/// `0..A·C` are the baselines, attack-major (`a·C + c`); the `A·D·C`
/// cells follow in `((a·D)+d)·C + c` order. Runs, shard ranges, the rows
/// of every document, merges and O(1) lookups all decode through here,
/// which is what keeps sharded, resumed and single-shot artifacts
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    attacks: usize,
    defenses: usize,
    configs: usize,
}

/// One decoded task id: axis positions of an attack on a config slice,
/// undefended (`defense: None`, a baseline) or behind one defense stack
/// (a cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    attack: usize,
    defense: Option<usize>,
    config: usize,
}

impl Layout {
    fn new(attacks: usize, defenses: usize, configs: usize) -> Self {
        Layout {
            attacks,
            defenses,
            configs,
        }
    }

    fn of(spec: &CampaignSpec) -> Self {
        Layout::new(spec.attacks.len(), spec.defenses.len(), spec.configs.len())
    }

    /// Baseline tasks, which come first.
    fn baselines(self) -> usize {
        self.attacks * self.configs
    }

    /// (attack, stack) pairs — the unit graph verdicts are computed for.
    fn pairs(self) -> usize {
        self.attacks * self.defenses
    }

    /// Baselines plus cells.
    fn total(self) -> usize {
        self.baselines() + self.pairs() * self.configs
    }

    /// Decodes task id `i < total()`.
    fn task(self, i: usize) -> Task {
        let c = self.configs;
        match i.checked_sub(self.baselines()) {
            None => Task {
                attack: i / c,
                defense: None,
                config: i % c,
            },
            Some(j) => Task {
                attack: j / (self.defenses * c),
                defense: Some((j / c) % self.defenses),
                config: j % c,
            },
        }
    }

    /// The pair index `a·D + d`.
    fn pair(self, attack: usize, defense: usize) -> usize {
        attack * self.defenses + defense
    }

    /// A baseline's position among the baselines (and its task id).
    fn baseline_index(self, attack: usize, config: usize) -> usize {
        attack * self.configs + config
    }

    /// A cell's position among the cells (its task id minus
    /// [`Layout::baselines`]).
    fn cell_index(self, attack: usize, defense: usize, config: usize) -> usize {
        self.pair(attack, defense) * self.configs + config
    }

    /// How many baseline and cell rows the task range holds.
    fn rows_in(self, range: &Range<usize>) -> (usize, usize) {
        let b = self.baselines();
        let baselines = range.end.min(b).saturating_sub(range.start.min(b));
        (baselines, range.len() - baselines)
    }
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// One attack run with *no* defense on one configuration: the leak ground
/// truth (Table I/III rows), plus the Theorem-1 graph verdict.
#[derive(Debug, Clone)]
pub struct BaselineCell {
    /// Catalog metadata of the attack.
    pub info: AttackInfo,
    /// Index into [`CampaignMatrix::configs`].
    pub config: usize,
    /// Whether the attack recovered the planted secret.
    pub leaked: bool,
    /// The recovered symbol, if any.
    pub recovered: Option<u64>,
    /// Cycles the run consumed.
    pub cycles: u64,
    /// Theorem 1 on the variant's attack graph: does an authorization
    /// race with a secret access? (Answered from the graph's cached
    /// reachability index.)
    pub graph_race: bool,
    /// Content fingerprint (attack name + config contents) keying
    /// incremental reuse.
    pub fingerprint: u64,
    /// How the simulation concluded. Degraded outcomes zero the machine
    /// fields (`leaked`/`recovered`/`cycles`) but keep `graph_race`.
    pub outcome: CellOutcome,
}

/// One (attack, defense stack, configuration) evaluation.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Attack name (row).
    pub attack: &'static str,
    /// Defense-stack display name (column): a defense name for singleton
    /// stacks, members joined with `+` for bundles.
    pub defense: String,
    /// Index into [`CampaignMatrix::configs`] (slice).
    pub config: usize,
    /// The cell's two verdicts. Its [`DefenseStack`] is the one the
    /// cube's defense axis holds at this cell's position.
    pub evaluation: Evaluation,
    /// Content fingerprint (attack + stack name/strategies + config
    /// contents) keying incremental reuse.
    pub fingerprint: u64,
    /// How the simulation concluded. Degraded outcomes report the
    /// mechanism as [`Verdict::GraphOnly`] but keep the (config-invariant)
    /// `strategy_sufficient` graph verdict.
    pub outcome: CellOutcome,
}

impl MatrixCell {
    /// The §V-B "false sense of security" pattern for this cell.
    #[must_use]
    pub fn false_sense_of_security(&self) -> bool {
        self.evaluation.false_sense_of_security()
    }

    /// The token written to the CSV/JSON mechanism column: the verdict
    /// token for completed cells, `"quarantined"`/`"timed_out"` for
    /// degraded ones.
    #[must_use]
    pub fn mechanism_token(&self) -> &'static str {
        self.outcome
            .token()
            .unwrap_or_else(|| verdict_token(self.evaluation.mechanism))
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

enum TaskOut {
    Base(BaselineCell),
    Cell(MatrixCell),
}

/// Every graph-level verdict a run needs, hoisted out of the config loop.
///
/// Both kinds of graph verdict — the baseline Theorem-1 race and a
/// stack's strategy sufficiency — depend only on the attack's graph and
/// the stack's strategies, never on the machine configuration. A knob
/// grid therefore needs `A + A×S` graph verdicts, not `A×C + A×S×C`:
/// they are computed here once, per (attack) and per (attack, stack)
/// pair, and shared across every config slice (the workers then only
/// simulate).
struct GraphVerdicts {
    /// Per attack: does an authorization race with a secret access?
    /// Positions never requested stay `false`.
    races: Vec<bool>,
    /// Per [`Layout::pair`]: the hoisted `strategy_sufficient` verdict.
    /// `None` for pairs no requested task needs.
    pairs: Vec<Option<Option<bool>>>,
    /// How many (attack, stack) strategy verdicts were actually computed
    /// — exactly the number of needed pairs, surfaced as
    /// [`ScheduleReport::graph_verdicts`] so tests can pin the A×S
    /// (not A×S×C) bound.
    evaluated: usize,
}

/// Computes the graph verdicts a run needs: the baseline race of every
/// attack flagged in `race_needed` (the matrix path stamps races onto
/// *reused* baselines too), and one strategy-sufficiency verdict per
/// (attack, stack) pair with at least one cell in `stale`. One
/// [`defenses::PatchSession`] per attack serves all of its stacks: the
/// graph is built and indexed once, and every stack's strategy edges are
/// applied and rolled back incrementally.
fn graph_verdicts_for(
    spec: &CampaignSpec,
    race_needed: &[bool],
    stale: &[KeyedTask],
) -> Result<GraphVerdicts, AttackError> {
    let layout = Layout::of(spec);
    let mut pair_needed = vec![false; layout.pairs()];
    for &(task, _) in stale {
        if let Some(d) = task.defense {
            pair_needed[layout.pair(task.attack, d)] = true;
        }
    }
    let mut races = vec![false; spec.attacks.len()];
    let mut pairs: Vec<Option<Option<bool>>> = vec![None; layout.pairs()];
    let mut evaluated = 0usize;
    for (ai, attack) in spec.attacks.iter().enumerate() {
        let wanted = |di: usize| pair_needed[layout.pair(ai, di)];
        if !race_needed[ai] && !(0..spec.defenses.len()).any(wanted) {
            continue;
        }
        let mut session = defenses::PatchSession::new(*attack);
        if race_needed[ai] {
            races[ai] = session.graph_race();
        }
        for (di, defense) in spec.defenses.iter().enumerate() {
            if wanted(di) {
                pairs[layout.pair(ai, di)] = Some(session.graph_sufficient(defense)?);
                evaluated += 1;
            }
        }
    }
    Ok(GraphVerdicts {
        races,
        pairs,
        evaluated,
    })
}

/// A decoded task with its content fingerprint, computed once: the
/// incremental reuse lookup and the row builder share it.
type KeyedTask = (Task, u64);

/// Every task of `ids`, in order, decoded and fingerprinted.
fn keyed_tasks<'a>(
    spec: &'a CampaignSpec,
    ids: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = KeyedTask> + 'a {
    let layout = Layout::of(spec);
    let digests: Vec<u64> = spec
        .configs
        .iter()
        .map(|nc| config_digest(&nc.config))
        .collect();
    ids.map(move |i| {
        let task = layout.task(i);
        let (name, digest) = (spec.attacks[task.attack].info().name, digests[task.config]);
        let fingerprint = match task.defense {
            None => baseline_fingerprint(name, digest),
            Some(d) => cell_fingerprint(name, &spec.defenses[d], digest),
        };
        (task, fingerprint)
    })
}

/// What one machine run reported — or why it could not.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Measured {
    /// The run completed.
    Ran(attacks::AttackOutcome),
    /// The run was quarantined or timed out.
    Degraded(CellOutcome),
}

/// The machine a task simulates on: its config, and that config split
/// into its non-switch fields and the switches it turns on.
struct TaskMachine {
    config: UarchConfig,
    plain: UarchConfig,
    on: Switches,
}

/// The machines `tasks` simulate on, and the tasks that simulate grouped
/// by attack.
///
/// A machine depends only on (stack or baseline, slice), so each such
/// pair is resolved once, on its first task. The second list maps each
/// task to its machine in the first: `None` for a graph-only cell, which
/// never simulates. Each group holds its simulating tasks in order, and the
/// groups come in the order of their first tasks.
fn task_machines(
    spec: &CampaignSpec,
    tasks: &[KeyedTask],
) -> (Vec<TaskMachine>, Vec<Option<usize>>, Vec<Vec<usize>>) {
    let slices = spec.configs.len();
    let mut resolved: Vec<Option<Option<usize>>> = vec![None; (spec.defenses.len() + 1) * slices];
    let mut machines: Vec<TaskMachine> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; spec.attacks.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let machine_of = tasks
        .iter()
        .enumerate()
        .map(|(k, &(task, _))| {
            let pair = task.defense.map_or(0, |d| d + 1) * slices + task.config;
            let m = *resolved[pair].get_or_insert_with(|| {
                let base = &spec.configs[task.config].config;
                let config = match task.defense {
                    None => base.clone(),
                    Some(d) => spec.defenses[d].apply(base)?,
                };
                machines.push(TaskMachine {
                    plain: config.without_switches(),
                    on: config.switches(),
                    config,
                });
                Some(machines.len() - 1)
            });
            if m.is_some() {
                let g = *group_of[task.attack].get_or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(k);
            }
            m
        })
        .collect();
    (machines, machine_of, groups)
}

/// A machine run of one attack, with what its result depends on: the
/// config's non-switch fields, the switches that were on, and the
/// switches the run read ([`uarch::Machine::switch`]).
///
/// The simulator is deterministic and reads every switch through
/// `Machine::switch`, so a config that agrees on the non-switch fields
/// and on every consulted switch takes the same branch at every read: it
/// gives the same result, cycle for cycle. That holds for a timeout too,
/// up to its limit. A panicking run leaves a fresh [`BatchRunner`], which
/// reports every switch consulted, so only an identical config shares a
/// quarantine.
struct SharedRun {
    plain: UarchConfig,
    on: Switches,
    consulted: Switches,
    measured: Measured,
}

impl SharedRun {
    /// Whether this run's outcome is the outcome on the config with
    /// non-switch fields `plain` and switches `on`.
    fn covers(&self, plain: &UarchConfig, on: Switches) -> bool {
        self.on.symmetric_difference(on).is_disjoint(self.consulted) && self.plain == *plain
    }
}

/// Builds a task's row from what its run measured (`None` for a
/// graph-only cell). A baseline takes the run's outcome, a cell its
/// [`Verdict::of_run`]. A degraded task gets zeroed machine fields and a
/// [`Verdict::GraphOnly`] mechanism; every row keeps the hoisted graph
/// verdicts (`graph_race`, `strategy_sufficient` — they never needed the
/// machine) and the fingerprint the reuse lookup used, so an incremental
/// re-run recognises (and, because degraded rows are never reused,
/// re-evaluates) the cell.
fn build_row(
    spec: &CampaignSpec,
    graph: &GraphVerdicts,
    (task, fingerprint): KeyedTask,
    measured: Option<&Measured>,
) -> TaskOut {
    let (run, outcome) = match measured {
        Some(Measured::Ran(run)) => (Some(run), CellOutcome::Ok),
        Some(Measured::Degraded(outcome)) => (None, outcome.clone()),
        None => (None, CellOutcome::Ok),
    };
    let Task { attack, config, .. } = task;
    let Some(defense) = task.defense else {
        return TaskOut::Base(BaselineCell {
            info: spec.attacks[attack].info(),
            config,
            leaked: run.is_some_and(|r| r.leaked),
            recovered: run.and_then(|r| r.recovered),
            cycles: run.map_or(0, |r| r.cycles),
            graph_race: graph.races[attack],
            fingerprint,
            outcome,
        });
    };
    TaskOut::Cell(MatrixCell {
        attack: spec.attacks[attack].info().name,
        defense: spec.defenses[defense].name().to_owned(),
        config,
        evaluation: Evaluation {
            strategy_sufficient: graph.pairs[Layout::of(spec).pair(attack, defense)]
                .expect("pair verdict precomputed"),
            mechanism: run.map_or(Verdict::GraphOnly, Verdict::of_run),
        },
        fingerprint,
        outcome,
    })
}

/// Renders a panic payload into a quarantine reason, truncated so a
/// pathological payload cannot bloat the matrix document.
pub(crate) fn panic_reason(payload: &dyn std::any::Any) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("worker panicked (non-string payload)");
    msg.chars().take(200).collect()
}

/// Runs `attack` on `config` on a warm machine: a panic is caught and
/// quarantined, and the warm runner is replaced by a fresh one (the old
/// one may be poisoned mid-simulation); cycle-budget exhaustion degrades
/// to [`CellOutcome::TimedOut`] when `degrade_timeouts` is set.
/// Non-timeout simulator errors keep their existing fail-the-run
/// semantics — they indicate a broken spec, not a flaky worker. This is
/// the one warm simulation step: every campaign run and every verdict-store
/// miss goes through it.
pub(crate) fn simulate(
    attack: &dyn Attack,
    config: &UarchConfig,
    degrade_timeouts: bool,
    runner: &mut BatchRunner,
) -> Result<Measured, AttackError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(|| runner.run(attack, config))) {
        Ok(Ok(outcome)) => Ok(Measured::Ran(outcome)),
        Ok(Err(AttackError::Uarch(uarch::UarchError::CycleLimitExceeded { limit })))
            if degrade_timeouts =>
        {
            Ok(Measured::Degraded(CellOutcome::TimedOut { limit }))
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            *runner = BatchRunner::new();
            Ok(Measured::Degraded(CellOutcome::Quarantined {
                reason: panic_reason(payload.as_ref()),
            }))
        }
    }
}

/// One completed evaluation task, as reported to a [`ProgressObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEvent {
    /// Tasks completed so far in this run, including this one. Completion
    /// order is scheduling-dependent; the counter is monotonic.
    pub completed: usize,
    /// Tasks this run evaluates in total (stale tasks only, for an
    /// incremental or resumed run).
    pub total: usize,
    /// Config-slice index (into [`CampaignSpec::configs`]) of the
    /// completed task.
    pub config: usize,
}

/// Live progress callback for campaign runs: invoked once per evaluated
/// task, possibly concurrently from worker threads (hence `Sync`). Reused
/// (fingerprint-matched) and resumed (checkpointed) tasks are never
/// reported — they cost nothing.
pub type ProgressObserver<'a> = &'a (dyn Fn(TaskEvent) + Sync);

/// Rows an incremental run can take from its previous matrix, keyed by
/// content fingerprint. Degraded rows (quarantined / timed-out) are
/// deliberately absent: a re-run with the fault gone must heal them.
#[derive(Default)]
struct Reuse<'p> {
    baselines: HashMap<u64, &'p BaselineCell>,
    cells: HashMap<u64, &'p MatrixCell>,
}

impl<'p> Reuse<'p> {
    fn new(prev: Option<&'p CampaignMatrix>) -> Self {
        let mut reuse = Reuse::default();
        for b in prev.iter().flat_map(|p| &p.baselines) {
            if b.outcome.is_ok() {
                reuse.baselines.insert(b.fingerprint, b);
            }
        }
        for cell in prev.iter().flat_map(|p| &p.cells) {
            if cell.outcome.is_ok() {
                reuse.cells.insert(cell.fingerprint, cell);
            }
        }
        reuse
    }

    /// The previous row with this task's fingerprint, moved to the task's
    /// config slice.
    fn row(&self, (task, fingerprint): KeyedTask) -> Option<TaskOut> {
        let config = task.config;
        Some(match task.defense {
            None => TaskOut::Base(BaselineCell {
                config,
                ..(*self.baselines.get(&fingerprint)?).clone()
            }),
            Some(_) => TaskOut::Cell(MatrixCell {
                config,
                ..(*self.cells.get(&fingerprint)?).clone()
            }),
        })
    }
}

/// Where a checkpointing run sends each finished chunk.
type ChunkSink<'a, E> = &'a (dyn Fn(&CampaignPart) -> Result<(), E> + Sync);

/// The one campaign executor: evaluates chunks `chunks` (ascending) of
/// the cube cut into `of` ranges ([`chunk_range`] geometry) and returns
/// their parts in that order.
///
/// Rows `prev` holds (by fingerprint) are kept; every other task goes
/// into one pass: the hoisted graph verdicts ([`graph_verdicts_for`];
/// races are live for every baseline, reused ones too), then the machine
/// runs. The simulating tasks of one attack form a group
/// ([`task_machines`]), and [`crate::exec::map_indexed`] workers, each
/// with one warm [`BatchRunner`], take whole groups. A group goes through
/// its tasks in order, and a task takes the result of the first earlier
/// run of the group whose config differs from its own only in switches
/// that run never read ([`SharedRun`]); otherwise it simulates. So the
/// runs shared, and [`ScheduleReport::machine_runs`], do not depend on
/// the thread count. Debug builds simulate a shared task again when its
/// switches differ from the run's, and assert the same result.
///
/// With a `sink`, the worker that finishes a chunk's last row hands its
/// part over at once; without one, the caller builds the parts after the
/// runs. The first error in group order wins, and within a group the
/// first by task order. `progress` sees each evaluated task once:
/// graph-only cells up front, the others as their run finishes.
pub(crate) fn evaluate_tasks<E>(
    spec: &CampaignSpec,
    of: usize,
    chunks: &[usize],
    prev: Option<&CampaignMatrix>,
    progress: Option<ProgressObserver<'_>>,
    sink: Option<ChunkSink<'_, E>>,
) -> Result<(Vec<CampaignPart>, ScheduleReport), E>
where
    E: From<AttackError> + Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    let (layout, reuse) = (Layout::of(spec), Reuse::new(prev));
    let fingerprint = spec.fingerprint();
    let headers: Vec<ShardHeader> = chunks
        .iter()
        .map(|&i| ShardHeader::chunk(fingerprint, layout.total(), i, of))
        .collect();

    // Per chunk, its rows in task order with `None` for a stale task; the
    // stale tasks of chunk `c` are `stale[stale_of[c]]`.
    let mut race_needed = vec![false; spec.attacks.len()];
    let mut stale: Vec<KeyedTask> = Vec::new();
    let mut chunk_of: Vec<usize> = Vec::new();
    let mut stale_of: Vec<Range<usize>> = Vec::with_capacity(headers.len());
    let mut known: Vec<Mutex<Vec<Option<TaskOut>>>> = Vec::with_capacity(headers.len());
    let mut keyed = keyed_tasks(spec, headers.iter().flat_map(ShardHeader::range));
    for (c, header) in headers.iter().enumerate() {
        let (first, len) = (stale.len(), header.range().len());
        let mut rows = Vec::with_capacity(len);
        rows.extend((&mut keyed).take(len).map(|keyed| {
            race_needed[keyed.0.attack] |= keyed.0.defense.is_none();
            let row = reuse.row(keyed);
            if row.is_none() {
                stale.push(keyed);
                chunk_of.push(c);
            }
            row
        }));
        known.push(Mutex::new(rows));
        stale_of.push(first..stale.len());
    }

    let graph = graph_verdicts_for(spec, &race_needed, &stale)?;
    let (machines, machine_of, groups) = task_machines(spec, &stale);
    // Simulated rows each chunk still waits for; graph-only cells never do.
    let waiting: Vec<AtomicUsize> = stale_of
        .iter()
        .map(|r| AtomicUsize::new(machine_of[r.clone()].iter().flatten().count()))
        .collect();
    let measured: Vec<OnceLock<Measured>> = stale.iter().map(|_| OnceLock::new()).collect();
    let parts: Vec<OnceLock<CampaignPart>> = headers.iter().map(|_| OnceLock::new()).collect();
    let finish = |c: usize| -> Result<(), E> {
        let header = headers[c];
        let rows = std::mem::take(&mut *known[c].lock().expect("chunk rows poisoned"));
        let mut fresh = stale_of[c]
            .clone()
            .map(|k| build_row(spec, &graph, stale[k], measured[k].get()));
        let outs = rows
            .into_iter()
            .zip(header.range())
            .map(|(row, i)| match row {
                Some(TaskOut::Base(b)) => TaskOut::Base(BaselineCell {
                    graph_race: graph.races[layout.task(i).attack],
                    ..b
                }),
                Some(cell) => cell,
                None => fresh.next().expect("one row per stale task"),
            });
        let part = CampaignPart {
            shard: header,
            body: Cube::new(spec, header.range(), outs),
        };
        if let Some(sink) = sink {
            sink(&part)?;
        }
        parts[c].set(part).expect("each chunk finishes once");
        Ok(())
    };

    let done = AtomicUsize::new(0);
    let report = |k: usize| {
        if let Some(f) = progress {
            f(TaskEvent {
                completed: done.fetch_add(1, Ordering::Relaxed) + 1,
                total: stale.len(),
                config: stale[k].0.config,
            });
        }
    };
    (0..stale.len())
        .filter(|&k| machine_of[k].is_none())
        .for_each(report);
    // Only a sink needs a part early. Rows built on a worker stay in that
    // thread's malloc arena, which raises peak RSS for nothing otherwise.
    let eager = sink.is_some();
    if eager {
        for c in (0..headers.len()).filter(|&c| waiting[c].load(Ordering::Relaxed) == 0) {
            finish(c)?;
        }
    }
    let machine_runs =
        crate::exec::map_indexed(groups.len(), spec.threads, BatchRunner::new, |runner, g| {
            let mut shared: Vec<SharedRun> = Vec::new();
            for &k in &groups[g] {
                let attack = spec.attacks[stale[k].0.attack];
                let m = &machines[machine_of[k].expect("grouped tasks simulate")];
                let out = match shared.iter().find(|s| s.covers(&m.plain, m.on)) {
                    Some(s) => {
                        debug_assert!(
                            s.on == m.on
                                || simulate(attack, &m.config, spec.degrade_timeouts, runner)?
                                    == s.measured,
                            "{} shared a run it differs from on {:?}",
                            attack.info().name,
                            m.config
                        );
                        s.measured.clone()
                    }
                    None => {
                        let out = simulate(attack, &m.config, spec.degrade_timeouts, runner)?;
                        shared.push(SharedRun {
                            plain: m.plain.clone(),
                            on: m.on,
                            consulted: runner.consulted(),
                            measured: out.clone(),
                        });
                        out
                    }
                };
                measured[k].set(out).expect("each task is claimed once");
                report(k);
                // AcqRel: the worker that takes a chunk's count to zero
                // sees every other worker's measurement for that chunk.
                if eager && waiting[chunk_of[k]].fetch_sub(1, Ordering::AcqRel) == 1 {
                    finish(chunk_of[k])?;
                }
            }
            Ok::<usize, E>(shared.len())
        })?;
    for (c, part) in parts.iter().enumerate() {
        if part.get().is_none() {
            finish(c)?;
        }
    }

    let report = ScheduleReport {
        executed: headers.len(),
        evaluated: stale.len(),
        reused: headers.iter().map(|h| h.range().len()).sum::<usize>() - stale.len(),
        machine_runs: machine_runs.into_iter().sum(),
        graph_verdicts: graph.evaluated,
        ..ScheduleReport::default()
    };
    let parts = parts
        .into_iter()
        .map(|p| p.into_inner().expect("every chunk finished"));
    Ok((parts.collect(), report))
}

/// The axes and rows of an evaluated cube, or of one shard's slice of it.
#[derive(Debug, Clone)]
struct Cube {
    attacks: Vec<AttackInfo>,
    defenses: Vec<DefenseStack>,
    configs: Vec<String>,
    baselines: Vec<BaselineCell>,
    cells: Vec<MatrixCell>,
}

impl Cube {
    /// The spec's axes with the rows `outs` of task range `range`, in
    /// task order.
    fn new(spec: &CampaignSpec, range: Range<usize>, outs: impl Iterator<Item = TaskOut>) -> Self {
        let (bases, cells) = Layout::of(spec).rows_in(&range);
        let mut cube = Cube {
            attacks: spec.attacks.iter().map(|at| at.info()).collect(),
            defenses: spec.defenses.clone(),
            configs: spec.configs.iter().map(|nc| nc.name.clone()).collect(),
            baselines: Vec::with_capacity(bases),
            cells: Vec::with_capacity(cells),
        };
        for out in outs {
            match out {
                TaskOut::Base(b) => cube.baselines.push(b),
                TaskOut::Cell(cell) => cube.cells.push(cell),
            }
        }
        cube
    }

    fn layout(&self) -> Layout {
        Layout::new(self.attacks.len(), self.defenses.len(), self.configs.len())
    }
}

/// The evaluated output of one scheduler chunk: a shard header (spec
/// fingerprint plus the chunk's slot in the task range), the axis
/// metadata, and the cells of its task range, in task order.
///
/// A part is the unit of **cross-process** shard transport: it is
/// written as a checkpoint document
/// ([`CampaignPart::save_checkpoint_json`], schema version
/// [`SCHEMA_VERSION`] with `"kind": "campaign-checkpoint"`) to its
/// [`chunk_path`](crate::serve::chunk_path), so each chunk can run in its
/// own process ([`Scheduler::run_chunk`](crate::serve::Scheduler::run_chunk))
/// — or on its own machine — and a final
/// [`Scheduler`](crate::serve::Scheduler) run over the directory resumes
/// every part and merges them bit-identically to a single-shot run.
#[derive(Debug, Clone)]
pub struct CampaignPart {
    pub(crate) shard: ShardHeader,
    body: Cube,
}

/// Where a part sits in its campaign: the producing spec's fingerprint
/// and the part's slot in the task range. Written ahead of the axes in
/// part and checkpoint documents.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardHeader {
    pub(crate) spec_fingerprint: u64,
    pub(crate) index: usize,
    pub(crate) of: usize,
    start: usize,
    end: usize,
    total: usize,
}

/// Task range `index` of `total` tasks cut into `of` balanced,
/// contiguous ranges: the geometry of scheduler chunks, and so of
/// `campaign run --shard I/N`.
pub(crate) fn chunk_range(total: usize, index: usize, of: usize) -> Range<usize> {
    index * total / of..(index + 1) * total / of
}

impl ShardHeader {
    fn chunk(spec_fingerprint: u64, total: usize, index: usize, of: usize) -> Self {
        let Range { start, end } = chunk_range(total, index, of);
        ShardHeader {
            spec_fingerprint,
            index,
            of,
            start,
            end,
            total,
        }
    }

    pub(crate) fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

impl CampaignPart {
    /// This part's shard position.
    #[must_use]
    pub fn index(&self) -> usize {
        self.shard.index
    }

    /// How many shards the cube was split into.
    #[must_use]
    pub fn of(&self) -> usize {
        self.shard.of
    }

    /// The [`CampaignSpec::fingerprint`] of the spec that produced this
    /// part. [`CampaignMatrix::merge`] only combines parts that agree.
    #[must_use]
    pub fn spec_fingerprint(&self) -> u64 {
        self.shard.spec_fingerprint
    }

    /// First task index (inclusive) of this part's range.
    #[must_use]
    pub fn start(&self) -> usize {
        self.shard.start
    }

    /// One past the last task index of this part's range.
    #[must_use]
    pub fn end(&self) -> usize {
        self.shard.end
    }

    /// Number of tasks (baselines + cells) this part evaluated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shard.end - self.shard.start
    }

    /// Whether this part's task range is empty (more shards than tasks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shard.start == self.shard.end
    }

    /// The baseline rows this part evaluated.
    #[must_use]
    pub fn baselines(&self) -> &[BaselineCell] {
        &self.body.baselines
    }

    /// The matrix cells this part evaluated.
    #[must_use]
    pub fn cells(&self) -> &[MatrixCell] {
        &self.body.cells
    }

    /// The part as a **checkpoint** document (`"kind":
    /// "campaign-checkpoint"`): shard header first, then axes and rows in
    /// the matrix row format. The [`serve`](crate::serve) scheduler writes
    /// one after each completed chunk so a killed run resumes without
    /// redoing the range, and a shard written to its chunk path is resumed
    /// the same way. Round-trips through
    /// [`CampaignPart::load_checkpoint_json`].
    #[must_use]
    pub fn to_checkpoint_json(&self) -> String {
        let b = &self.body;
        let axes = (&b.attacks[..], &b.defenses[..], &b.configs[..]);
        write_document(
            "campaign-checkpoint",
            Some(&self.shard),
            axes,
            &b.baselines,
            &b.cells,
        )
    }

    /// Writes [`CampaignPart::to_checkpoint_json`] to `path`, atomically
    /// (tmp + rename via [`crate::fault::write_atomic`]) so a crash never
    /// leaves a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn save_checkpoint_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::fault::write_atomic(path, &self.to_checkpoint_json())
    }

    /// Reads a checkpoint saved with
    /// [`CampaignPart::save_checkpoint_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on I/O failure, malformed or truncated JSON
    /// (a worker killed mid-write leaves a
    /// [`Truncated`](jsonio::JsonErrorKind::Truncated) prefix, which the
    /// scheduler treats as "chunk not done"), a wrong version/kind, or
    /// names that no longer resolve in the registries.
    pub fn load_checkpoint_json(path: impl AsRef<Path>) -> Result<Self, CampaignIoError> {
        Self::load_checkpoint_with(path, &AttackNames::new()).map_err(|e| e.error)
    }

    /// [`CampaignPart::load_checkpoint_json`], resolving attack names
    /// through `names` before the registry.
    pub(crate) fn load_checkpoint_with(
        path: impl AsRef<Path>,
        names: &AttackNames,
    ) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(CampaignIoError::Io)?;
        Self::from_checkpoint_json(&text, names)
    }

    /// Parses a checkpoint from its [`CampaignPart::to_checkpoint_json`]
    /// document. The shard header is validated for internal consistency
    /// (index within the shard count, task range within — and consistent
    /// with — the declared axes), and every row's names are checked
    /// against the task position it claims, exactly like
    /// [`CampaignMatrix::from_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on malformed JSON, a wrong version or kind
    /// (a matrix, or an older build's `campaign-part` document), unknown
    /// names/tokens, or an inconsistent header; with the header when it
    /// was read.
    fn from_checkpoint_json(text: &str, names: &AttackNames) -> Result<Self, CheckpointError> {
        let (doc, shard) = read_head(text, "campaign-checkpoint")?;
        let shard = shard.expect("checkpoint documents carry a shard header");
        let body = read_body(&doc, Some(shard), names).map_err(|error| CheckpointError {
            header: Some(shard),
            error,
        })?;
        Ok(CampaignPart { shard, body })
    }
}

/// A checkpoint that did not load: why, and its shard header when the
/// document was read that far. The header comes before the names, so a
/// chunk of another campaign whose attacks this build cannot resolve (a
/// synthesized finding of another corpus) still says whose it is.
#[derive(Debug)]
pub(crate) struct CheckpointError {
    pub(crate) header: Option<ShardHeader>,
    pub(crate) error: CampaignIoError,
}

impl From<CampaignIoError> for CheckpointError {
    fn from(error: CampaignIoError) -> Self {
        CheckpointError {
            header: None,
            error,
        }
    }
}

/// Why [`CampaignMatrix::merge`] rejected a set of parts.
#[derive(Debug)]
#[non_exhaustive]
pub enum MergeError {
    /// No parts were given.
    Empty,
    /// The number of parts does not match their declared shard count.
    WrongCount {
        /// Shard count declared by the parts.
        expected: usize,
        /// Parts actually given.
        got: usize,
    },
    /// After sorting, a shard index is missing or duplicated.
    ShardIndex {
        /// The index expected at this position.
        expected: usize,
        /// The index found.
        got: usize,
    },
    /// A part was produced by a spec with a different
    /// [`CampaignSpec::fingerprint`] (different attacks, defenses, knob
    /// values, or base configuration — even when the axis *names* agree).
    SpecMismatch {
        /// Shard index of the offending part.
        index: usize,
        /// Fingerprint of the first part's spec.
        expected: u64,
        /// Fingerprint the offending part declares.
        got: u64,
    },
    /// A part's attack/defense/config axes differ from the first part's.
    AxisMismatch {
        /// Shard index of the offending part.
        index: usize,
    },
    /// The parts' task ranges do not tile the cube exactly.
    Coverage {
        /// Task index where contiguous coverage was expected.
        expected: usize,
        /// Task index actually found.
        got: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => f.write_str("no campaign parts to merge"),
            MergeError::WrongCount { expected, got } => {
                write!(f, "expected {expected} parts, got {got}")
            }
            MergeError::ShardIndex { expected, got } => {
                write!(f, "expected shard index {expected}, got {got}")
            }
            MergeError::SpecMismatch {
                index,
                expected,
                got,
            } => {
                write!(
                    f,
                    "shard {index} was produced by a different campaign spec \
                     (fingerprint {got:#018x}, expected {expected:#018x}); \
                     re-run every shard with identical attack/defense/axis \
                     settings before merging"
                )
            }
            MergeError::AxisMismatch { index } => {
                write!(f, "shard {index} was evaluated over different axes")
            }
            MergeError::Coverage { expected, got } => {
                write!(
                    f,
                    "parts do not tile the cube: expected task {expected}, got {got}"
                )
            }
        }
    }
}

impl Error for MergeError {}

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

/// The evaluated cube, in deterministic attack-major order.
#[derive(Debug, Clone)]
pub struct CampaignMatrix {
    /// Attack axis metadata, in evaluation order.
    pub attacks: Vec<AttackInfo>,
    /// Defense-stack axis, in evaluation order (singleton stacks for
    /// classic single-defense campaigns).
    pub defenses: Vec<DefenseStack>,
    /// Configuration axis names, in evaluation order.
    pub configs: Vec<String>,
    /// Undefended runs: `attacks.len() × configs.len()`, attack-major.
    baselines: Vec<BaselineCell>,
    /// Defense evaluations: `attacks.len() × defenses.len() ×
    /// configs.len()`, ordered `((a·D)+d)·C + c`.
    cells: Vec<MatrixCell>,
    /// Name → axis position, for O(1) [`CampaignMatrix::cell`] lookups.
    attack_index: HashMap<&'static str, usize>,
    /// Stack name → axis position, for O(1) [`CampaignMatrix::cell`]
    /// lookups.
    defense_index: HashMap<String, usize>,
}

impl CampaignMatrix {
    fn assemble(cube: Cube) -> Self {
        let layout = cube.layout();
        debug_assert_eq!(cube.baselines.len(), layout.baselines());
        debug_assert_eq!(cube.baselines.len() + cube.cells.len(), layout.total());
        let Cube {
            attacks,
            defenses,
            configs,
            baselines,
            cells,
        } = cube;
        let attack_index = attacks
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name, i))
            .collect();
        let defense_index = defenses
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name().to_owned(), i))
            .collect();
        CampaignMatrix {
            attacks,
            defenses,
            configs,
            baselines,
            cells,
            attack_index,
            defense_index,
        }
    }

    /// Evaluates the full cube described by `spec`.
    ///
    /// Worker threads take the tasks (one per baseline run, one per
    /// matrix cell) one attack at a time, and rows are reassembled by
    /// index, so the result — including cell order — is independent of
    /// scheduling. For an incremental, checkpointed or observed run, use
    /// the [`Scheduler`](crate::serve::Scheduler).
    ///
    /// # Errors
    ///
    /// The first [`AttackError`] of the first failing attack (attacks in
    /// first-task order, each attack's tasks in task order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (i.e. a bug, not a
    /// simulation failure).
    pub fn run(spec: &CampaignSpec) -> Result<Self, AttackError> {
        let (mut parts, _) = evaluate_tasks::<AttackError>(spec, 1, &[0], None, None, None)?;
        let part = parts.pop().expect("one part per chunk");
        Ok(Self::assemble(part.body))
    }

    /// Reassembles a full matrix from every shard's [`CampaignPart`].
    ///
    /// Because the cell order is index-addressed and deterministic, the
    /// merge is *validated concatenation*: parts are sorted by shard
    /// index, checked for identical axes and exact contiguous coverage of
    /// the task range, then concatenated. The result is bit-identical
    /// (CSV and JSON) to a single-shot [`CampaignMatrix::run`].
    ///
    /// # Errors
    ///
    /// [`MergeError`] if the parts are incomplete, overlapping, or were
    /// produced from different specs.
    pub fn merge(mut parts: Vec<CampaignPart>) -> Result<Self, MergeError> {
        if parts.is_empty() {
            return Err(MergeError::Empty);
        }
        parts.sort_by_key(|p| p.shard.index);
        let first = parts[0].shard;
        if parts.len() != first.of {
            return Err(MergeError::WrongCount {
                expected: first.of,
                got: parts.len(),
            });
        }
        for (i, p) in parts.iter().enumerate() {
            let h = p.shard;
            if h.index != i || h.of != first.of {
                return Err(MergeError::ShardIndex {
                    expected: i,
                    got: h.index,
                });
            }
            if h.spec_fingerprint != first.spec_fingerprint {
                return Err(MergeError::SpecMismatch {
                    index: h.index,
                    expected: first.spec_fingerprint,
                    got: h.spec_fingerprint,
                });
            }
            let (a, b) = (&p.body, &parts[0].body);
            let same_axes = a.attacks == b.attacks
                && a.configs == b.configs
                && h.total == first.total
                && a.defenses == b.defenses;
            if !same_axes {
                return Err(MergeError::AxisMismatch { index: h.index });
            }
        }
        let mut next = 0;
        for p in &parts {
            if p.shard.start != next {
                return Err(MergeError::Coverage {
                    expected: next,
                    got: p.shard.start,
                });
            }
            next = p.shard.end;
        }
        if next != first.total {
            return Err(MergeError::Coverage {
                expected: first.total,
                got: next,
            });
        }
        let mut parts = parts.into_iter().map(|p| p.body);
        let mut cube = parts.next().expect("checked non-empty");
        for p in parts {
            cube.baselines.extend(p.baselines);
            cube.cells.extend(p.cells);
        }
        Ok(Self::assemble(cube))
    }

    /// `(attacks, defenses, configs)` axis lengths.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.attacks.len(), self.defenses.len(), self.configs.len())
    }

    /// All matrix cells in deterministic attack-major order.
    #[must_use]
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// All undefended baseline runs, attack-major.
    #[must_use]
    pub fn baselines(&self) -> &[BaselineCell] {
        &self.baselines
    }

    /// The cell for `(attack, defense)` under configuration index
    /// `config` — O(1): hash-map axis lookups plus index arithmetic into
    /// the attack-major cell layout.
    #[must_use]
    pub fn cell(&self, attack: &str, defense: &str, config: usize) -> Option<&MatrixCell> {
        let a = *self.attack_index.get(attack)?;
        let d = *self.defense_index.get(defense)?;
        if config >= self.configs.len() {
            return None;
        }
        self.cells.get(self.layout().cell_index(a, d, config))
    }

    /// The undefended run of `attack` under configuration index `config`
    /// — O(1), like [`CampaignMatrix::cell`].
    #[must_use]
    pub fn baseline(&self, attack: &str, config: usize) -> Option<&BaselineCell> {
        let a = *self.attack_index.get(attack)?;
        if config >= self.configs.len() {
            return None;
        }
        self.baselines.get(self.layout().baseline_index(a, config))
    }

    fn layout(&self) -> Layout {
        let (a, d, c) = self.shape();
        Layout::new(a, d, c)
    }

    /// The cells matching a predicate (e.g. one strategy, one verdict).
    pub fn filter(&self, pred: impl Fn(&MatrixCell) -> bool) -> Vec<&MatrixCell> {
        self.cells.iter().filter(|cell| pred(cell)).collect()
    }

    /// Every §V-B "false sense of security" cell: the strategy would close
    /// this attack's leak path, but the mechanism still leaked.
    #[must_use]
    pub fn false_senses(&self) -> Vec<&MatrixCell> {
        self.filter(MatrixCell::false_sense_of_security)
    }

    /// The matrix as CSV (`attack,defense,config,strategy,…`), one row per
    /// cell, deterministic order.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "attack,defense,config,strategy,strategy_sufficient,mechanism,false_sense\n",
        );
        let layout = self.layout();
        for (i, cell) in self.cells.iter().enumerate() {
            let task = layout.task(layout.baselines() + i);
            let stack = &self.defenses[task.defense.expect("cells follow the baselines")];
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                csv_field(cell.attack),
                csv_field(&cell.defense),
                csv_field(&self.configs[cell.config]),
                stack.strategy_token(),
                cell.evaluation
                    .strategy_sufficient
                    .map_or("n/a", |b| if b { "yes" } else { "no" }),
                cell.mechanism_token(),
                cell.false_sense_of_security(),
            );
        }
        out
    }

    /// The matrix as a JSON document (axes, baselines, cells, and the
    /// per-cell fingerprints that key incremental re-evaluation).
    /// Round-trips through [`CampaignMatrix::from_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let axes = (&self.attacks[..], &self.defenses[..], &self.configs[..]);
        write_document("campaign-matrix", None, axes, &self.baselines, &self.cells)
    }

    /// Writes [`CampaignMatrix::to_json`] to `path`, atomically (tmp +
    /// rename via [`crate::fault::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::fault::write_atomic(path, &self.to_json())
    }

    /// How many rows (baselines + cells) were quarantined after a panic.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.count_outcomes(|o| matches!(o, CellOutcome::Quarantined { .. }))
    }

    /// How many rows (baselines + cells) were degraded by the runaway-cell
    /// watchdog.
    #[must_use]
    pub fn timed_out(&self) -> usize {
        self.count_outcomes(|o| matches!(o, CellOutcome::TimedOut { .. }))
    }

    fn count_outcomes(&self, pred: impl Fn(&CellOutcome) -> bool) -> usize {
        let baselines = self.baselines.iter().map(|b| &b.outcome);
        let cells = self.cells.iter().map(|cell| &cell.outcome);
        baselines.chain(cells).filter(|o| pred(o)).count()
    }

    /// Reads a matrix saved with [`CampaignMatrix::save_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on I/O failure, malformed JSON, or names that
    /// no longer resolve in the attack/defense registries.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, CampaignIoError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Parses a matrix from its [`CampaignMatrix::to_json`] document.
    ///
    /// Attack and defense names are resolved against the live registries
    /// (the matrix stores `&'static` metadata); axis order and cell counts
    /// are validated against the attack-major layout.
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on malformed JSON, a wrong version or kind
    /// (e.g. a checkpoint chunk — assemble the chunks first), unknown
    /// names/tokens, or a cell count that does not match the declared
    /// axes.
    pub fn from_json(text: &str) -> Result<Self, CampaignIoError> {
        let (doc, _) = read_head(text, "campaign-matrix")?;
        Ok(Self::assemble(read_body(&doc, None, &AttackNames::new())?))
    }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// One cell whose verdict changed between two matrices — the machine
/// verdict, the graph (strategy-sufficiency) verdict, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFlip {
    /// Attack name.
    pub attack: String,
    /// Defense-stack name.
    pub defense: String,
    /// Config-slice name.
    pub config: String,
    /// Machine verdict in the older matrix.
    pub from: Verdict,
    /// Machine verdict in the newer matrix.
    pub to: Verdict,
    /// Graph sufficiency verdict in the older matrix.
    pub sufficient_from: Option<bool>,
    /// Graph sufficiency verdict in the newer matrix.
    pub sufficient_to: Option<bool>,
    /// Whether the cell was a §V-B false sense of security before.
    pub false_sense_from: bool,
    /// Whether it is one now.
    pub false_sense_to: bool,
}

impl fmt::Display for VerdictFlip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sufficiency = |s: Option<bool>| match s {
            Some(true) => "sufficient",
            Some(false) => "insufficient",
            None => "n/a",
        };
        write!(f, "{} vs {} @ {}:", self.defense, self.attack, self.config)?;
        if self.from != self.to {
            write!(
                f,
                " {} -> {}",
                verdict_token(self.from),
                verdict_token(self.to)
            )?;
        }
        if self.sufficient_from != self.sufficient_to {
            write!(
                f,
                " (strategy: {} -> {})",
                sufficiency(self.sufficient_from),
                sufficiency(self.sufficient_to)
            )?;
        }
        if self.false_sense_from != self.false_sense_to {
            write!(
                f,
                " (false sense: {} -> {})",
                self.false_sense_from, self.false_sense_to
            )?;
        }
        Ok(())
    }
}

/// One undefended baseline whose leak verdict changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineFlip {
    /// Attack name.
    pub attack: String,
    /// Config-slice name.
    pub config: String,
    /// Whether the attack leaked in the older matrix.
    pub from_leaked: bool,
    /// Whether it leaks in the newer matrix.
    pub to_leaked: bool,
}

/// One undefended baseline whose cycle count changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleDelta {
    /// Attack name.
    pub attack: String,
    /// Config-slice name.
    pub config: String,
    /// Cycles in the older matrix.
    pub from: u64,
    /// Cycles in the newer matrix.
    pub to: u64,
}

impl CycleDelta {
    /// Relative change, `to` vs `from` (`0.05` = 5 % slower).
    #[must_use]
    pub fn relative(&self) -> f64 {
        if self.from == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)] // cycle counts << 2^52
            {
                (self.to as f64 - self.from as f64) / self.from as f64
            }
        }
    }
}

/// Everything that changed between two campaign matrices — the engine
/// behind `campaign diff OLD.json NEW.json`.
///
/// Cells and baselines are matched by *content key* (attack, defense
/// stack, config name), so the two matrices may have different axes:
/// keys present on one side only are reported as added/removed rather
/// than compared.
#[derive(Debug, Clone, Default)]
pub struct MatrixDiff {
    /// Cells whose machine verdict or graph sufficiency changed.
    pub flips: Vec<VerdictFlip>,
    /// Baselines whose leak verdict changed.
    pub baseline_flips: Vec<BaselineFlip>,
    /// Baselines whose cycle count changed (leak verdict aside).
    pub cycle_deltas: Vec<CycleDelta>,
    /// Keys present only in the newer matrix.
    pub added: Vec<String>,
    /// Keys present only in the older matrix.
    pub removed: Vec<String>,
    /// Cells and baselines present in both and identical.
    pub unchanged: usize,
}

impl MatrixDiff {
    /// Whether the two matrices are identical over their shared keys and
    /// have the same keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
            && self.baseline_flips.is_empty()
            && self.cycle_deltas.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }

    /// A human-readable multi-line report (one summary line, then one
    /// line per change, deterministic order).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "campaign diff: {} verdict flip(s), {} baseline flip(s), \
             {} cycle delta(s), {} added, {} removed, {} unchanged\n",
            self.flips.len(),
            self.baseline_flips.len(),
            self.cycle_deltas.len(),
            self.added.len(),
            self.removed.len(),
            self.unchanged
        );
        for flip in &self.flips {
            let _ = writeln!(out, "  flip: {flip}");
        }
        for b in &self.baseline_flips {
            let _ = writeln!(
                out,
                "  baseline: {} @ {}: leaked {} -> {}",
                b.attack, b.config, b.from_leaked, b.to_leaked
            );
        }
        for d in &self.cycle_deltas {
            let _ = writeln!(
                out,
                "  cycles: {} @ {}: {} -> {} ({:+.1}%)",
                d.attack,
                d.config,
                d.from,
                d.to,
                d.relative() * 100.0
            );
        }
        for key in &self.added {
            let _ = writeln!(out, "  added: {key}");
        }
        for key in &self.removed {
            let _ = writeln!(out, "  removed: {key}");
        }
        out
    }
}

impl CampaignMatrix {
    /// Compares `self` (the older matrix) against `newer`, by content key.
    /// See [`MatrixDiff`].
    #[must_use]
    pub fn diff(&self, newer: &CampaignMatrix) -> MatrixDiff {
        let mut diff = MatrixDiff::default();
        let cell_key = |m: &'_ CampaignMatrix, c: &MatrixCell| {
            format!("{} vs {} @ {}", c.defense, c.attack, m.configs[c.config])
        };
        let (added, removed) = match_rows(
            (self, &self.cells),
            (newer, &newer.cells),
            cell_key,
            |old, cell| {
                let (oe, ne) = (&old.evaluation, &cell.evaluation);
                if oe.mechanism == ne.mechanism && oe.strategy_sufficient == ne.strategy_sufficient
                {
                    diff.unchanged += 1;
                    return;
                }
                diff.flips.push(VerdictFlip {
                    attack: cell.attack.to_owned(),
                    defense: cell.defense.clone(),
                    config: newer.configs[cell.config].clone(),
                    from: oe.mechanism,
                    to: ne.mechanism,
                    sufficient_from: oe.strategy_sufficient,
                    sufficient_to: ne.strategy_sufficient,
                    false_sense_from: old.false_sense_of_security(),
                    false_sense_to: cell.false_sense_of_security(),
                });
            },
        );
        let base_key = |m: &'_ CampaignMatrix, b: &BaselineCell| {
            format!("{} @ {} (baseline)", b.info.name, m.configs[b.config])
        };
        let (added_bases, removed_bases) = match_rows(
            (self, &self.baselines),
            (newer, &newer.baselines),
            base_key,
            |old, b| {
                let (attack, config) = (b.info.name.to_owned(), newer.configs[b.config].clone());
                if old.leaked != b.leaked {
                    diff.baseline_flips.push(BaselineFlip {
                        attack,
                        config,
                        from_leaked: old.leaked,
                        to_leaked: b.leaked,
                    });
                } else if old.cycles != b.cycles {
                    diff.cycle_deltas.push(CycleDelta {
                        attack,
                        config,
                        from: old.cycles,
                        to: b.cycles,
                    });
                } else {
                    diff.unchanged += 1;
                }
            },
        );
        diff.added = [added, added_bases].concat();
        diff.removed = [removed, removed_bases].concat();
        diff
    }
}

/// Matches the rows of two matrices by content `key`: `shared(old, new)`
/// for every key both have, in `new` order; returns the keys only `new`
/// has (in `new` order) and those only `old` has (in `old` order).
fn match_rows<'a, T>(
    (old_m, old): (&'a CampaignMatrix, &'a [T]),
    (new_m, new): (&'a CampaignMatrix, &'a [T]),
    key: impl Fn(&'a CampaignMatrix, &'a T) -> String,
    mut shared: impl FnMut(&'a T, &'a T),
) -> (Vec<String>, Vec<String>) {
    let old_rows: HashMap<String, &T> = old.iter().map(|r| (key(old_m, r), r)).collect();
    let mut new_keys = std::collections::HashSet::new();
    let mut added = Vec::new();
    for row in new {
        let k = key(new_m, row);
        match old_rows.get(&k) {
            Some(old_row) => shared(old_row, row),
            None => added.push(k.clone()),
        }
        new_keys.insert(k);
    }
    let removed = old
        .iter()
        .map(|r| key(old_m, r))
        .filter(|k| !new_keys.contains(k))
        .collect();
    (added, removed)
}

/// Reads the head of a campaign document of `kind`: the version, the
/// kind and, unless it is a matrix, the shard header. With
/// [`read_body`], the one reader behind [`CampaignMatrix::from_json`] and
/// [`CampaignPart::load_checkpoint_json`].
fn read_head(
    text: &str,
    kind: &'static str,
) -> Result<(Json, Option<ShardHeader>), CampaignIoError> {
    let doc = jsonio::parse(text)?;
    match doc.get("version").and_then(Json::as_u64) {
        Some(
            SCHEMA_VERSION | PRE_OUTCOME_VERSION | STACK_MATRIX_VERSION | SINGLE_DEFENSE_VERSION,
        ) => {}
        found => return Err(CampaignIoError::Version { found }),
    }
    let found = field(&doc, "kind", Json::as_str)?;
    if found != kind {
        return Err(CampaignIoError::Kind {
            expected: kind,
            found: found.to_owned(),
        });
    }
    let shard = (kind != "campaign-matrix")
        .then(|| read_shard_header(&doc))
        .transpose()?;
    Ok((doc, shard))
}

/// Reads the axes and rows of a document whose head [`read_head`] read.
/// Defense entries are stack expressions (`"NDA"`,
/// `"KAISER/KPTI+Retpoline"`), so version-3 single-defense documents load
/// as singleton stacks. A shard header must be consistent with the axes,
/// and every row must name exactly the attack, stack, strategy and config
/// its task position implies. An attack name resolves through `names`
/// first, then the registry.
fn read_body(
    doc: &Json,
    shard: Option<ShardHeader>,
    names: &AttackNames,
) -> Result<Cube, CampaignIoError> {
    let axis = |key: &str| -> Result<Vec<&str>, CampaignIoError> {
        field(doc, key, Json::as_arr)?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| CampaignIoError::Parse(format!("non-string in '{key}'")))
            })
            .collect()
    };
    let mut cube = Cube {
        attacks: axis("attacks")?
            .into_iter()
            .map(|name| {
                names
                    .get(name)
                    .copied()
                    .or_else(|| attacks::find(name).map(|a| a.info()))
                    .ok_or_else(|| CampaignIoError::UnknownAttack(name.to_owned()))
            })
            .collect::<Result<_, _>>()?,
        defenses: axis("defenses")?
            .into_iter()
            .map(|name| {
                DefenseStack::parse(name)
                    .map_err(|_| CampaignIoError::UnknownDefense(name.to_owned()))
            })
            .collect::<Result<_, _>>()?,
        configs: axis("configs")?.into_iter().map(str::to_owned).collect(),
        baselines: Vec::new(),
        cells: Vec::new(),
    };
    let layout = cube.layout();
    let range = match shard {
        None => 0..layout.total(),
        Some(h) if h.total == layout.total() => h.start..h.end,
        Some(h) => {
            return Err(CampaignIoError::Shape(format!(
                "shard header declares {} total tasks, axes imply {}",
                h.total,
                layout.total()
            )))
        }
    };
    read_rows(doc, &mut cube, range)?;
    Ok(cube)
}

/// Reads and checks the `spec_fingerprint` and `shard` headers of a part
/// or checkpoint document.
fn read_shard_header(doc: &Json) -> Result<ShardHeader, CampaignIoError> {
    let shard = doc
        .get("shard")
        .ok_or_else(|| CampaignIoError::Parse("missing 'shard' header".to_owned()))?;
    let number = |key: &str| -> Result<usize, CampaignIoError> {
        usize::try_from(field(shard, key, Json::as_u64)?)
            .map_err(|_| CampaignIoError::Parse(format!("shard field '{key}' out of range")))
    };
    let h = ShardHeader {
        spec_fingerprint: field_hex(doc, "spec_fingerprint")?,
        index: number("index")?,
        of: number("of")?,
        start: number("start")?,
        end: number("end")?,
        total: number("total")?,
    };
    if h.of == 0 || h.index >= h.of || h.start > h.end || h.end > h.total {
        return Err(CampaignIoError::Shape(format!(
            "inconsistent shard header: index {} of {}, tasks {}..{} of {}",
            h.index, h.of, h.start, h.end, h.total
        )));
    }
    Ok(h)
}

/// Reads the baseline/cell rows covering task `range`, checking each row
/// against the task [`Layout`] decodes at its position.
fn read_rows(doc: &Json, cube: &mut Cube, range: Range<usize>) -> Result<(), CampaignIoError> {
    let layout = cube.layout();
    let (want_baselines, want_cells) = layout.rows_in(&range);
    let rows = |key: &str, want: usize| {
        let Some(Json::Arr(rows)) = doc.get(key) else {
            return Err(CampaignIoError::Parse(format!("missing '{key}' list")));
        };
        if rows.len() != want {
            return Err(CampaignIoError::Shape(format!(
                "expected {want} {key}, found {}",
                rows.len()
            )));
        }
        Ok(rows.iter())
    };
    let mut baseline_rows = rows("baselines", want_baselines)?;
    let mut cell_rows = rows("cells", want_cells)?;
    cube.baselines.reserve(want_baselines);
    cube.cells.reserve(want_cells);
    for i in range {
        let task = layout.task(i);
        let (row, stack) = match task.defense {
            None => (baseline_rows.next(), None),
            Some(d) => (cell_rows.next(), Some(&cube.defenses[d])),
        };
        let row = row.expect("row counts checked");
        let expect = |key: &str, want: &str| -> Result<(), CampaignIoError> {
            let got = field(row, key, Json::as_str)?;
            if got == want {
                return Ok(());
            }
            Err(CampaignIoError::Shape(format!(
                "row for task {i} has {key} '{got}', expected '{want}' (attack-major order)"
            )))
        };
        let (info, config) = (cube.attacks[task.attack], task.config);
        expect("attack", info.name)?;
        expect("config", &cube.configs[config])?;
        let fingerprint = field_hex(row, "fingerprint")?;
        let Some(stack) = stack else {
            cube.baselines.push(BaselineCell {
                info,
                config,
                leaked: field(row, "leaked", Json::as_bool)?,
                recovered: field_opt(row, "recovered", Json::as_u64)?,
                cycles: field(row, "cycles", Json::as_u64)?,
                graph_race: field(row, "graph_race", Json::as_bool)?,
                fingerprint,
                outcome: match field_opt(row, "outcome", Json::as_str)? {
                    None => CellOutcome::Ok,
                    Some(token) => degraded_outcome(row, token)?
                        .ok_or_else(|| CampaignIoError::UnknownToken(token.to_owned()))?,
                },
            });
            continue;
        };
        expect("defense", stack.name())?;
        // A strategy other than the stack's own joined token means the row
        // was written for a different stack.
        expect("strategy", &stack.strategy_token())?;
        // Degraded outcome tokens ride in the mechanism column; a degraded
        // cell has no machine verdict, only the graph one.
        let token = field(row, "mechanism", Json::as_str)?;
        let (mechanism, outcome) = match degraded_outcome(row, token)? {
            Some(outcome) => (Verdict::GraphOnly, outcome),
            None => (
                verdict_from_token(token)
                    .ok_or_else(|| CampaignIoError::UnknownToken(token.to_owned()))?,
                CellOutcome::Ok,
            ),
        };
        cube.cells.push(MatrixCell {
            attack: info.name,
            defense: stack.name().to_owned(),
            config,
            evaluation: Evaluation {
                strategy_sufficient: field_opt(row, "strategy_sufficient", Json::as_bool)?,
                mechanism,
            },
            fingerprint,
            outcome,
        });
    }
    Ok(())
}

/// The degraded outcome `token` names (`"timed_out"`/`"quarantined"`,
/// with the budget/reason field it implies), or `None` for any other
/// token.
fn degraded_outcome(row: &Json, token: &str) -> Result<Option<CellOutcome>, CampaignIoError> {
    Ok(Some(match token {
        "timed_out" => CellOutcome::TimedOut {
            limit: field(row, "budget", Json::as_u64)?,
        },
        "quarantined" => CellOutcome::Quarantined {
            reason: field(row, "quarantine_reason", Json::as_str)?.to_owned(),
        },
        _ => return Ok(None),
    }))
}

/// Writes a campaign document: the version and `kind` headers, the shard
/// header (checkpoints only), then axes and rows. Matrices and
/// checkpoints both go through here, so their row format cannot
/// drift apart. A cell's strategy token comes from its stack on the
/// defense axis, at the cell's task position: a matrix's cells start
/// right after the baselines, a chunk's at its range start or there,
/// whichever is later. Fault-free rows are byte-identical to the version-5
/// format; a degraded row carries its outcome token (baselines in an
/// `"outcome"` field, cells in the mechanism column) plus its
/// budget/reason field.
fn write_document(
    kind: &str,
    shard: Option<&ShardHeader>,
    (attacks, defenses, configs): (&[AttackInfo], &[DefenseStack], &[String]),
    baselines: &[BaselineCell],
    cells: &[MatrixCell],
) -> String {
    let mut out = String::from("{\n  \"version\": ");
    let _ = write!(out, "{SCHEMA_VERSION},\n  \"kind\": \"{kind}\",");
    if let Some(h) = shard {
        let _ = write!(
            out,
            "\n  \"spec_fingerprint\": \"{:#018x}\",\
             \n  \"shard\": {{\"index\": {}, \"of\": {}, \"start\": {}, \"end\": {}, \"total\": {}}},",
            h.spec_fingerprint, h.index, h.of, h.start, h.end, h.total
        );
    }
    out.push_str("\n  \"configs\": [");
    push_json_list(&mut out, configs.iter().map(String::as_str));
    out.push_str("],\n  \"attacks\": [");
    push_json_list(&mut out, attacks.iter().map(|i| i.name));
    out.push_str("],\n  \"defenses\": [");
    push_json_list(&mut out, defenses.iter().map(DefenseStack::name));
    out.push_str("],\n  \"baselines\": [");
    for (i, b) in baselines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"attack\": ");
        push_json_str(&mut out, b.info.name);
        out.push_str(", \"config\": ");
        push_json_str(&mut out, &configs[b.config]);
        let _ = write!(out, ", \"leaked\": {}, \"recovered\": ", b.leaked);
        match b.recovered {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"cycles\": {}, \"graph_race\": {}, \"fingerprint\": \"{:#018x}\"",
            b.cycles, b.graph_race, b.fingerprint,
        );
        if let Some(token) = b.outcome.token() {
            let _ = write!(out, ", \"outcome\": \"{token}\"");
        }
        close_row(&mut out, &b.outcome);
    }
    out.push_str("\n  ],\n  \"cells\": [");
    let layout = Layout::new(attacks.len(), defenses.len(), configs.len());
    let first = shard.map_or(0, |h| h.start).max(layout.baselines());
    for (i, cell) in cells.iter().enumerate() {
        let task = layout.task(first + i);
        let stack = &defenses[task.defense.expect("cells follow the baselines")];
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"attack\": ");
        push_json_str(&mut out, cell.attack);
        out.push_str(", \"defense\": ");
        push_json_str(&mut out, &cell.defense);
        out.push_str(", \"config\": ");
        push_json_str(&mut out, &configs[cell.config]);
        out.push_str(", \"strategy\": \"");
        for piece in stack.strategy_token_pieces() {
            push_escaped(&mut out, piece);
        }
        out.push_str("\", \"strategy_sufficient\": ");
        out.push_str(match cell.evaluation.strategy_sufficient {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        });
        out.push_str(", \"mechanism\": ");
        push_json_str(&mut out, cell.mechanism_token());
        let _ = write!(
            out,
            ", \"false_sense\": {}, \"fingerprint\": \"{:#018x}\"",
            cell.false_sense_of_security(),
            cell.fingerprint,
        );
        close_row(&mut out, &cell.outcome);
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Closes a row: a degraded outcome's budget/reason field, then `}`.
fn close_row(out: &mut String, outcome: &CellOutcome) {
    match outcome {
        CellOutcome::Ok => {}
        CellOutcome::TimedOut { limit } => {
            let _ = write!(out, ", \"budget\": {limit}");
        }
        CellOutcome::Quarantined { reason } => {
            out.push_str(", \"quarantine_reason\": ");
            push_json_str(out, reason);
        }
    }
    out.push('}');
}

/// A required field of the type `get` extracts.
fn field<'a, T>(
    row: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, CampaignIoError> {
    row.get(key)
        .and_then(get)
        .ok_or_else(|| CampaignIoError::Parse(format!("missing or mistyped field '{key}'")))
}

/// An optional field: absent or `null` reads as `None`.
fn field_opt<'a, T>(
    row: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, CampaignIoError> {
    match row.get(key) {
        Some(Json::Null) | None => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| CampaignIoError::Parse(format!("mistyped field '{key}'"))),
    }
}

/// A `0x`-prefixed hex fingerprint field.
fn field_hex(row: &Json, key: &str) -> Result<u64, CampaignIoError> {
    let s = field(row, key, Json::as_str)?;
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| CampaignIoError::Parse(format!("bad {key} '{s}'")))
}

/// Errors from campaign persistence ([`CampaignMatrix::save_json`] /
/// [`CampaignMatrix::load_json`] and the [`CampaignPart`] checkpoint
/// equivalents).
///
/// Every failure mode is typed: callers (the `campaign` CLI in
/// particular) can distinguish a truncated file ([`Json`](Self::Json))
/// from a version skew ([`Version`](Self::Version)) from handing a
/// checkpoint to a matrix reader ([`Kind`](Self::Kind)) and say so.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignIoError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The document is not syntactically valid JSON (malformed or
    /// truncated input; the error carries the byte offset).
    Json(JsonError),
    /// The document is valid JSON but not a valid campaign document.
    Parse(String),
    /// The document declares an unsupported schema version (or none).
    Version {
        /// The version the document declares, if any.
        found: Option<u64>,
    },
    /// The document is a different kind of campaign artifact (e.g. a
    /// checkpoint handed to the matrix reader, or vice versa).
    Kind {
        /// The kind the reader needed.
        expected: &'static str,
        /// The kind the document declares.
        found: String,
    },
    /// An attack name no longer resolves in [`attacks::registry`].
    UnknownAttack(String),
    /// A defense name no longer resolves in [`defenses::registry`].
    UnknownDefense(String),
    /// An unknown strategy/verdict token.
    UnknownToken(String),
    /// Cell counts do not match the declared axes.
    Shape(String),
}

impl fmt::Display for CampaignIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignIoError::Io(e) => write!(f, "campaign I/O failed: {e}"),
            CampaignIoError::Json(e) => write!(f, "malformed JSON: {e}"),
            CampaignIoError::Parse(msg) => write!(f, "malformed campaign document: {msg}"),
            CampaignIoError::Version { found: Some(v) } => write!(
                f,
                "unsupported schema version {v} (this build reads versions \
                 {SINGLE_DEFENSE_VERSION}, {STACK_MATRIX_VERSION}, \
                 {PRE_OUTCOME_VERSION} and {SCHEMA_VERSION})"
            ),
            CampaignIoError::Version { found: None } => {
                f.write_str("missing schema version header")
            }
            CampaignIoError::Kind { expected, found } => write!(
                f,
                "expected a '{expected}' document, found '{found}' \
                 (checkpoints and matrices do not interchange; a run over \
                 the checkpoint directory assembles its chunks into a \
                 matrix)"
            ),
            CampaignIoError::UnknownAttack(name) => {
                write!(f, "attack '{name}' is not in the registry")
            }
            CampaignIoError::UnknownDefense(name) => {
                write!(f, "defense '{name}' is not in the registry")
            }
            CampaignIoError::UnknownToken(token) => write!(f, "unknown token '{token}'"),
            CampaignIoError::Shape(msg) => write!(f, "inconsistent campaign shape: {msg}"),
        }
    }
}

impl Error for CampaignIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignIoError::Io(e) => Some(e),
            CampaignIoError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignIoError {
    fn from(e: std::io::Error) -> Self {
        CampaignIoError::Io(e)
    }
}

impl From<JsonError> for CampaignIoError {
    fn from(e: JsonError) -> Self {
        CampaignIoError::Json(e)
    }
}

/// Stable machine-readable token for a verdict.
#[must_use]
fn verdict_token(v: Verdict) -> &'static str {
    match v {
        Verdict::Blocked => "blocked",
        Verdict::Leaked => "leaked",
        Verdict::GraphOnly => "graph_only",
    }
}

/// The [`Verdict`] for a [`verdict_token`] string.
#[must_use]
fn verdict_from_token(token: &str) -> Option<Verdict> {
    [Verdict::Blocked, Verdict::Leaked, Verdict::GraphOnly]
        .into_iter()
        .find(|&v| verdict_token(v) == token)
}

/// `s` as one CSV field: quoted, with its quotes doubled, when it holds a
/// comma, a quote or a newline; as is otherwise.
#[must_use]
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Scheduler;

    fn small_spec(threads: usize) -> CampaignSpec {
        let mut spec = CampaignSpec::default();
        spec.attacks.truncate(4);
        spec.defenses.truncate(3);
        spec.threads = threads;
        spec
    }

    fn tiny_grid(threads: usize) -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(defenses::registry().iter().copied().take(2))
            .axis(Knob::RobDepth, [16usize, 64])
            .axis(
                Knob::Hardening,
                [Hardening::None, Hardening::FlushPredictors],
            )
            .threads(threads)
            .build()
    }

    /// Chunk `index` of `spec` cut into `of` chunks, run on its own.
    fn chunk(spec: &CampaignSpec, index: usize, of: usize) -> CampaignPart {
        Scheduler::new(spec).run_chunk(index, of).unwrap()
    }

    /// Every chunk of `spec` cut into `of` chunks.
    fn chunks(spec: &CampaignSpec, of: usize) -> Vec<CampaignPart> {
        (0..of).map(|i| chunk(spec, i, of)).collect()
    }

    #[test]
    fn shape_and_order_are_attack_major() {
        let m = CampaignMatrix::run(&small_spec(2)).unwrap();
        assert_eq!(m.shape(), (4, 3, 1));
        assert_eq!(m.cells().len(), 12);
        assert_eq!(m.baselines().len(), 4);
        let mut expected = Vec::new();
        for a in &m.attacks {
            for d in &m.defenses {
                expected.push((a.name, d.name().to_owned()));
            }
        }
        let got: Vec<_> = m
            .cells()
            .iter()
            .map(|c| (c.attack, c.defense.clone()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn layout_orders_baselines_then_cells_and_inverts() {
        let sizes = [0, 1, 2, 5];
        for (a, d, c) in sizes
            .iter()
            .flat_map(|&a| sizes.iter().flat_map(move |&d| sizes.map(|c| (a, d, c))))
        {
            let layout = Layout::new(a, d, c);
            let mut expected = Vec::new();
            for attack in 0..a {
                for config in 0..c {
                    expected.push(Task {
                        attack,
                        defense: None,
                        config,
                    });
                }
            }
            for attack in 0..a {
                for defense in 0..d {
                    for config in 0..c {
                        expected.push(Task {
                            attack,
                            defense: Some(defense),
                            config,
                        });
                    }
                }
            }
            let decoded: Vec<Task> = (0..layout.total()).map(|i| layout.task(i)).collect();
            assert_eq!(decoded, expected, "{a}×{d}×{c}");
            for (i, task) in decoded.into_iter().enumerate() {
                let index = match task.defense {
                    None => layout.baseline_index(task.attack, task.config),
                    Some(d) => layout.baselines() + layout.cell_index(task.attack, d, task.config),
                };
                assert_eq!(index, i, "{a}×{d}×{c} task {i}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = CampaignMatrix::run(&small_spec(1)).unwrap();
        let parallel = CampaignMatrix::run(&small_spec(4)).unwrap();
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn warm_pool_matches_per_cell_rebuild() {
        // The executor runs every task on a worker's pooled, reset machine.
        // Re-derive each cell with a cold per-cell machine (the pre-pool
        // semantics) and demand identical observables — leak verdicts,
        // recovered bytes, *and* cycle counts, the strictest reset ≡ new
        // witness the campaign can express.
        let spec = tiny_grid(2);
        let m = CampaignMatrix::run(&spec).unwrap();
        for b in m.baselines() {
            let attack = spec
                .attacks
                .iter()
                .find(|a| a.info().name == b.info.name)
                .expect("baseline attack registered");
            let cold = attack.run(&spec.configs[b.config].config).unwrap();
            assert_eq!(b.leaked, cold.leaked, "{} leak verdict", b.info.name);
            assert_eq!(b.recovered, cold.recovered, "{} recovery", b.info.name);
            assert_eq!(b.cycles, cold.cycles, "{} cycle count", b.info.name);
        }
        let layout = Layout::of(&spec);
        for (k, cell) in m.cells().iter().enumerate() {
            let task = layout.task(layout.baselines() + k);
            let defense = task.defense.expect("cells come after the baselines");
            let (attack, stack) = (spec.attacks[task.attack], &spec.defenses[defense]);
            let cold =
                defenses::verify_stack(stack, attack, &spec.configs[cell.config].config).unwrap();
            assert_eq!(
                cell.evaluation.mechanism, cold,
                "{} × {} verdict",
                cell.attack, cell.defense
            );
        }
    }

    #[test]
    fn lookups_resolve_cells_and_baselines() {
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let cell = m
            .cell(attacks::names::SPECTRE_V1, defenses::names::LFENCE, 0)
            .expect("cell exists");
        assert_eq!(cell.evaluation.mechanism, Verdict::Blocked);
        assert!(m.cell("nope", defenses::names::LFENCE, 0).is_none());
        assert!(m
            .cell(attacks::names::SPECTRE_V1, defenses::names::LFENCE, 9)
            .is_none());
        let b = m.baseline(attacks::names::SPECTRE_V1, 0).expect("baseline");
        assert!(b.leaked && b.graph_race);
        assert!(b.cycles > 0);
        assert!(m.baseline(attacks::names::SPECTRE_V1, 9).is_none());
        assert!(m.baseline("nope", 0).is_none());
    }

    #[test]
    fn builder_expands_cartesian_grids_with_stable_names() {
        let spec = tiny_grid(0);
        assert_eq!(spec.configs.len(), 4);
        let names: Vec<&str> = spec.configs.iter().map(|nc| nc.name.as_str()).collect();
        // First axis varies slowest.
        assert_eq!(
            names,
            [
                "rob=16 baseline",
                "rob=16 ④ flush predictors",
                "rob=64 baseline",
                "rob=64 ④ flush predictors",
            ]
        );
        assert_eq!(spec.configs[0].config.rob_capacity, 16);
        assert!(!spec.configs[0].config.flush_predictors_on_switch);
        assert!(spec.configs[1].config.flush_predictors_on_switch);
        assert_eq!(spec.configs[2].config.rob_capacity, 64);
    }

    #[test]
    fn hardening_axis_reproduces_the_figure8_sweep() {
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(2))
            .defenses(defenses::registry().iter().copied().take(1))
            .axis(Knob::Hardening, Hardening::figure8())
            .build();
        let m = CampaignMatrix::run(&spec).unwrap();
        assert_eq!(m.shape(), (2, 1, 5));
        assert_eq!(m.configs[0], "baseline");
        assert_eq!(m.configs[2], "② NDA");
        // Hardened slices must not report more leaks than the baseline.
        for a in &m.attacks {
            let base = m.baseline(a.name, 0).unwrap();
            let nda = m.baseline(a.name, 2).unwrap();
            assert!(base.leaked);
            assert!(!nda.leaked, "{} leaks under global NDA", a.name);
        }
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_axis_panics() {
        let _ = CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::RobDepth, [16usize])
            .axis(Knob::RobDepth, [32usize]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_axis_value_panics() {
        let _ = CampaignSpec::builder(UarchConfig::default()).axis(Knob::RobDepth, [16usize, 16]);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_axis_panics() {
        let _ = CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::CacheSets, Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "cannot take value")]
    fn mismatched_knob_value_panics() {
        let _ = CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::Hardening, [KnobValue::Num(3)])
            .build();
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_axes() {
        let base = UarchConfig::default();
        let digest = config_digest(&base);
        assert_eq!(digest, config_digest(&base.clone()));
        let other = UarchConfig::builder().rob_capacity(16).build();
        assert_ne!(digest, config_digest(&other));
        assert_ne!(
            baseline_fingerprint("Spectre v1", digest),
            baseline_fingerprint("Spectre v2", digest)
        );
        let nda = DefenseStack::parse("nda").unwrap();
        assert_ne!(
            cell_fingerprint("Spectre v1", &nda, digest),
            cell_fingerprint("Spectre v1", &nda, config_digest(&other))
        );
        assert_ne!(
            cell_fingerprint("Spectre v1", &nda, digest),
            baseline_fingerprint("Spectre v1", digest)
        );
    }

    #[test]
    fn config_digests_are_pinned() {
        // Saved matrices and verdict-store keys carry these digests, so the
        // streamed hash must reproduce the `fnv1a(format!("{cfg:?}"))`
        // values exactly.
        let base = UarchConfig::default();
        assert_eq!(config_digest(&base), 0x5ab9_f9d1_5224_ae8d);
        let tweaked = UarchConfig {
            rob_capacity: 16,
            nda: true,
            ..base
        };
        assert_eq!(config_digest(&tweaked), 0x57ad_8619_4c74_9eb9);
        for cfg in [&base, &tweaked] {
            assert_eq!(
                config_digest(cfg),
                fnv1a(format!("{cfg:?}").as_bytes(), FNV_OFFSET)
            );
        }
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let spec = small_spec(2);
        let whole = CampaignMatrix::run(&spec).unwrap();
        for n in [1, 2, 5, 16, 100] {
            let parts = chunks(&spec, n);
            assert_eq!(
                parts.iter().map(CampaignPart::len).sum::<usize>(),
                spec.total_tasks()
            );
            let merged = CampaignMatrix::merge(parts).unwrap();
            assert_eq!(merged.to_csv(), whole.to_csv());
            assert_eq!(merged.to_json(), whole.to_json());
        }
    }

    #[test]
    fn merge_rejects_bad_part_sets() {
        let spec = small_spec(1);
        let parts = chunks(&spec, 3);
        assert!(matches!(
            CampaignMatrix::merge(Vec::new()),
            Err(MergeError::Empty)
        ));
        assert!(matches!(
            CampaignMatrix::merge(parts[..2].to_vec()),
            Err(MergeError::WrongCount {
                expected: 3,
                got: 2
            })
        ));
        let mut dup = parts.clone();
        dup[2] = dup[1].clone();
        assert!(matches!(
            CampaignMatrix::merge(dup),
            Err(MergeError::ShardIndex { .. })
        ));
        // A shard of a different spec cannot sneak in: the fingerprint
        // check catches it before any axis comparison.
        let mut mixed = parts.clone();
        let mut foreign = chunk(&tiny_grid(1), 1, 3);
        foreign.shard.index = 1;
        mixed[1] = foreign;
        assert!(matches!(
            CampaignMatrix::merge(mixed),
            Err(MergeError::SpecMismatch { index: 1, .. })
        ));
        // Same axis *names*, different base config: only the fingerprint
        // (which digests config contents) can tell these shards apart.
        let mut sneaky_spec = small_spec(1);
        for nc in &mut sneaky_spec.configs {
            nc.config.rob_capacity = 7;
        }
        let mut sneaky = parts.clone();
        let mut foreign = chunk(&sneaky_spec, 1, 3);
        foreign.shard.index = 1;
        sneaky[1] = foreign;
        assert!(matches!(
            CampaignMatrix::merge(sneaky),
            Err(MergeError::SpecMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn spec_fingerprints_cover_every_axis_but_not_threads() {
        let spec = small_spec(1);
        assert_eq!(spec.fingerprint(), small_spec(8).fingerprint());
        let mut fewer = spec.clone();
        fewer.attacks.truncate(3);
        assert_ne!(spec.fingerprint(), fewer.fingerprint());
        let mut fewer = spec.clone();
        fewer.defenses.truncate(2);
        assert_ne!(spec.fingerprint(), fewer.fingerprint());
        let mut rebased = spec.clone();
        rebased.configs[0].config.rob_capacity = 7;
        assert_ne!(spec.fingerprint(), rebased.fingerprint());
    }

    #[test]
    fn part_json_round_trips_and_merges_bit_identically() {
        let spec = small_spec(2);
        let whole = CampaignMatrix::run(&spec).unwrap();
        let parts: Vec<CampaignPart> = chunks(&spec, 3)
            .into_iter()
            .map(|part| {
                let reloaded = CampaignPart::from_checkpoint_json(
                    &part.to_checkpoint_json(),
                    &AttackNames::new(),
                )
                .unwrap();
                assert_eq!(reloaded.to_checkpoint_json(), part.to_checkpoint_json());
                assert_eq!(reloaded.spec_fingerprint(), spec.fingerprint());
                assert_eq!(reloaded.len(), part.len());
                reloaded
            })
            .collect();
        let merged = CampaignMatrix::merge(parts).unwrap();
        assert_eq!(merged.to_json(), whole.to_json());
        assert_eq!(merged.to_csv(), whole.to_csv());
    }

    #[test]
    fn part_reader_rejects_inconsistent_headers() {
        let spec = small_spec(1);
        let part = chunk(&spec, 0, 2);
        let doc = part.to_checkpoint_json();
        // Tampered shard slot: index out of the declared count.
        let bad = doc.replacen("\"index\": 0, \"of\": 2", "\"index\": 5, \"of\": 2", 1);
        assert!(matches!(
            CampaignPart::from_checkpoint_json(&bad, &AttackNames::new()).map_err(|e| e.error),
            Err(CampaignIoError::Shape(_))
        ));
        // Tampered total: header disagrees with the axes.
        let bad = doc.replacen(
            &format!("\"total\": {}", spec.total_tasks()),
            "\"total\": 9999",
            1,
        );
        assert!(matches!(
            CampaignPart::from_checkpoint_json(&bad, &AttackNames::new()).map_err(|e| e.error),
            Err(CampaignIoError::Shape(_))
        ));
        // A matrix document is not a checkpoint, and vice versa.
        let matrix = CampaignMatrix::run(&spec).unwrap();
        assert!(matches!(
            CampaignPart::from_checkpoint_json(&matrix.to_json(), &AttackNames::new())
                .map_err(|e| e.error),
            Err(CampaignIoError::Kind {
                expected: "campaign-checkpoint",
                ..
            })
        ));
        assert!(matches!(
            CampaignMatrix::from_json(&doc),
            Err(CampaignIoError::Kind {
                expected: "campaign-matrix",
                ..
            })
        ));
    }

    #[test]
    fn version2_matrices_are_a_typed_version_error() {
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let legacy = m.to_json().replacen(
            "\"version\": 7,\n  \"kind\": \"campaign-matrix\",",
            "\"version\": 2,",
            1,
        );
        let err = CampaignMatrix::from_json(&legacy).unwrap_err();
        assert!(
            matches!(err, CampaignIoError::Version { found: Some(2) }),
            "{err}"
        );
        assert!(
            err.to_string().ends_with("reads versions 3, 4, 5 and 7)"),
            "{err}"
        );
    }

    #[test]
    fn version3_single_defense_documents_still_load() {
        // A singleton-stack campaign writes byte-identical rows to the
        // pre-stack schema, so rewriting the version header alone yields
        // exactly what a version-3 build produced — and it must load.
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let v3 = m.to_json().replacen("\"version\": 7", "\"version\": 3", 1);
        let loaded = CampaignMatrix::from_json(&v3).unwrap();
        assert_eq!(loaded.to_json(), m.to_json());
        // And a v3 matrix feeds incremental reuse without re-simulation.
        let v3 = m.to_json().replacen("\"version\": 7", "\"version\": 3", 1);
        let prev = CampaignMatrix::from_json(&v3).unwrap();
        let (_, report) = Scheduler::new(&small_spec(0)).prev(&prev).run().unwrap();
        assert_eq!(report.evaluated, 0);
    }

    #[test]
    fn version4_stack_matrices_still_load() {
        // Versions 5 and 7 only add the checkpoint document kind and the
        // degraded-outcome fields; fault-free matrix rows are unchanged,
        // so a version-4 header must keep loading (and re-serialize at
        // version 7).
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let v4 = m.to_json().replacen("\"version\": 7", "\"version\": 4", 1);
        let loaded = CampaignMatrix::from_json(&v4).unwrap();
        assert_eq!(loaded.to_json(), m.to_json());
    }

    #[test]
    fn checkpoint_documents_round_trip_but_do_not_interchange() {
        let part = chunk(&small_spec(0), 1, 3);
        let doc = part.to_checkpoint_json();
        assert!(doc.contains("\"kind\": \"campaign-checkpoint\""));
        let loaded = CampaignPart::from_checkpoint_json(&doc, &AttackNames::new()).unwrap();
        assert_eq!(loaded.to_checkpoint_json(), doc);
        assert_eq!((loaded.start(), loaded.end()), (part.start(), part.end()));
        // A part file of an older build is a typed kind error, not an
        // alias of a checkpoint.
        let old_part = doc.replacen("\"campaign-checkpoint\"", "\"campaign-part\"", 1);
        match CampaignPart::from_checkpoint_json(&old_part, &AttackNames::new())
            .map_err(|e| e.error)
        {
            Err(CampaignIoError::Kind {
                expected: "campaign-checkpoint",
                found,
            }) => assert_eq!(found, "campaign-part"),
            other => panic!("expected a kind error, got {other:?}"),
        }
    }

    #[test]
    fn a_checkpoint_reads_the_same_in_any_member_order() {
        let part = chunk(&tiny_grid(0), 1, 3);
        let doc = part.to_checkpoint_json();
        // Each top-level member opens its own line, two spaces in; rows
        // sit deeper and open with `{`.
        let body = doc.strip_prefix("{\n  \"").unwrap();
        let body = body.strip_suffix("\n}\n").unwrap();
        let mut members: Vec<&str> = body.split(",\n  \"").collect();
        assert_eq!(members.len(), 9, "version … cells");
        members.reverse();
        let reversed = format!("{{\n  \"{}\n}}\n", members.join(",\n  \""));
        assert!(reversed.starts_with("{\n  \"cells\": ["));
        let loaded = CampaignPart::from_checkpoint_json(&reversed, &AttackNames::new()).unwrap();
        assert_eq!(loaded.to_checkpoint_json(), doc);
    }

    #[test]
    fn version_and_syntax_errors_are_typed() {
        assert!(matches!(
            CampaignMatrix::from_json("{}"),
            Err(CampaignIoError::Version { found: None })
        ));
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let doc = m.to_json().replacen("\"version\": 7", "\"version\": 99", 1);
        assert!(matches!(
            CampaignMatrix::from_json(&doc),
            Err(CampaignIoError::Version { found: Some(99) })
        ));
        // Truncation surfaces the JSON layer's typed error with an offset,
        // and it is distinguishable from a syntax error — the scheduler
        // relies on this to treat a half-written checkpoint as "not done".
        let whole = m.to_json();
        match CampaignMatrix::from_json(&whole[..whole.len() / 2]) {
            Err(CampaignIoError::Json(e)) => {
                assert!(e.offset() <= whole.len() / 2);
                assert!(e.is_truncated());
            }
            other => panic!("expected a Json error, got {other:?}"),
        }
    }

    #[test]
    fn incremental_rerun_of_unchanged_spec_evaluates_nothing() {
        let spec = small_spec(0);
        let (first, initial) = Scheduler::new(&spec).run().unwrap();
        assert_eq!(initial.evaluated, spec.total_tasks());
        assert_eq!(initial.reused, 0);
        let (again, report) = Scheduler::new(&spec).prev(&first).run().unwrap();
        assert_eq!(report.evaluated, 0);
        assert_eq!(report.reused, spec.total_tasks());
        assert_eq!(again.to_json(), first.to_json());
    }

    #[test]
    fn incremental_reevaluates_only_the_changed_config_slice() {
        let grid = |rob2: usize| {
            CampaignSpec::builder(UarchConfig::default())
                .attacks(attacks::registry().iter().copied().take(3))
                .defenses(defenses::registry().iter().copied().take(2))
                .axis(Knob::RobDepth, [16usize, rob2])
                .build()
        };
        let (first, _) = Scheduler::new(&grid(64)).run().unwrap();
        let changed = grid(48);
        let (second, report) = Scheduler::new(&changed).prev(&first).run().unwrap();
        // Only the rob=48 slice is stale: 3 baselines + 3×2 cells.
        let (a, d, _) = second.shape();
        assert_eq!(report.evaluated, a + a * d);
        assert_eq!(report.reused, changed.total_tasks() - report.evaluated);
        // The reused slice is byte-identical to a fresh run.
        let fresh = CampaignMatrix::run(&changed).unwrap();
        assert_eq!(second.to_json(), fresh.to_json());
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let loaded = CampaignMatrix::from_json(&m.to_json()).unwrap();
        assert_eq!(loaded.to_json(), m.to_json());
        assert_eq!(loaded.to_csv(), m.to_csv());
        // A loaded matrix feeds an incremental run exactly like a live one.
        let spec = small_spec(0);
        let (_, report) = Scheduler::new(&spec).prev(&loaded).run().unwrap();
        assert_eq!(report.evaluated, 0);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(matches!(
            CampaignMatrix::from_json("not json"),
            Err(CampaignIoError::Json(_))
        ));
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let doc = m.to_json().replace("Spectre v1", "Spectre v99");
        assert!(matches!(
            CampaignMatrix::from_json(&doc),
            Err(CampaignIoError::UnknownAttack(_))
        ));
        // A reordered/renamed configs list must not silently remap rows.
        let grid = CampaignMatrix::run(&tiny_grid(0)).unwrap();
        let doc = grid.to_json().replacen(
            "\"rob=16 baseline\", \"rob=16 ④ flush predictors\"",
            "\"rob=16 ④ flush predictors\", \"rob=16 baseline\"",
            1,
        );
        assert!(matches!(
            CampaignMatrix::from_json(&doc),
            Err(CampaignIoError::Shape(_))
        ));
    }

    #[test]
    fn names_that_need_escaping_round_trip_byte_for_byte() {
        // Stack names are catalog names (a `Defense` is only made in the
        // catalog), so a config name carries the characters to escape;
        // stack names and strategy tokens go through the same escaper.
        let odd = "q\"b\\s\nn\u{1}c\t\u{7f}é";
        let mut spec = small_spec(0);
        spec.configs[0].name = format!("cfg {odd}");
        let json = CampaignMatrix::run(&spec).unwrap().to_json();
        assert!(json.contains("\"cfg q\\\"b\\\\s\\nn\\u0001c\\t\u{7f}é\""));
        assert_eq!(CampaignMatrix::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn full_catalog_matrix_round_trips() {
        // The default defense axis includes names ending in '+'
        // (SpecShieldERP+); its matrix must reload byte-identically.
        let spec = CampaignSpec::builder(UarchConfig::default())
            .attacks([attacks::find(attacks::names::MELTDOWN).unwrap()])
            .build();
        let json = CampaignMatrix::run(&spec).unwrap().to_json();
        assert_eq!(CampaignMatrix::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn exports_are_well_formed() {
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let csv = m.to_csv();
        assert_eq!(csv.lines().count(), 1 + 12);
        assert!(csv.starts_with("attack,defense,config,"));
        let json = m.to_json();
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"version\": 7"));
        assert!(json.contains("\"kind\": \"campaign-matrix\""));
        assert_eq!(json.matches("{\"attack\"").count(), 12 + 4);
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn token_round_trips() {
        for v in [Verdict::Blocked, Verdict::Leaked, Verdict::GraphOnly] {
            assert_eq!(verdict_from_token(verdict_token(v)), Some(v));
        }
        assert!(verdict_from_token("nope").is_none());
    }

    fn stack_spec() -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .attacks([
                attacks::find(attacks::names::SPECTRE_V1).unwrap(),
                attacks::find(attacks::names::SPECTRE_V2).unwrap(),
                attacks::find(attacks::names::MELTDOWN).unwrap(),
            ])
            .defense_stacks([
                defenses::presets::linux_default(),
                DefenseStack::parse("stt").unwrap(),
            ])
            .build()
    }

    #[test]
    fn defense_stack_axis_runs_and_round_trips() {
        let m = CampaignMatrix::run(&stack_spec()).unwrap();
        assert_eq!(m.shape(), (3, 2, 1));
        let linux = "KAISER/KPTI+Retpoline+IBPB+RSB stuffing";
        // O(1) lookup by stack name.
        let v2 = m.cell(attacks::names::SPECTRE_V2, linux, 0).unwrap();
        assert_eq!(v2.evaluation.mechanism, Verdict::Blocked);
        assert_eq!(m.defenses[0].name(), v2.defense);
        assert_eq!(m.defenses[0].members().len(), 4);
        // The bundle is the §V-B false sense vs Spectre v1.
        let v1 = m.cell(attacks::names::SPECTRE_V1, linux, 0).unwrap();
        assert!(v1.false_sense_of_security());
        // CSV carries the stack name and the joined strategy token.
        let csv = m.to_csv();
        assert!(csv.contains(linux));
        assert!(csv.contains("prevent_access+clear_predictions"));
        // JSON round-trips: the stack expression resolves on load.
        let loaded = CampaignMatrix::from_json(&m.to_json()).unwrap();
        assert_eq!(loaded.to_json(), m.to_json());
        assert_eq!(loaded.to_csv(), m.to_csv());
        // …and feeds incremental reuse.
        let (_, report) = Scheduler::new(&stack_spec()).prev(&loaded).run().unwrap();
        assert_eq!(report.evaluated, 0);
    }

    #[test]
    fn stack_member_order_never_changes_verdicts() {
        let spec_for = |expr: &str| {
            CampaignSpec::builder(UarchConfig::default())
                .attacks(attacks::registry().iter().copied().take(4))
                .defense_stacks([DefenseStack::parse(expr).unwrap()])
                .build()
        };
        let fwd = CampaignMatrix::run(&spec_for("kpti+retpoline+ibpb")).unwrap();
        let rev = CampaignMatrix::run(&spec_for("ibpb+retpoline+kpti")).unwrap();
        let verdicts = |m: &CampaignMatrix| -> Vec<(String, Verdict, Option<bool>)> {
            m.cells()
                .iter()
                .map(|cell| {
                    (
                        cell.attack.to_owned(),
                        cell.evaluation.mechanism,
                        cell.evaluation.strategy_sufficient,
                    )
                })
                .collect()
        };
        assert_eq!(verdicts(&fwd), verdicts(&rev));
        // Only the display name differs.
        assert_ne!(fwd.cells()[0].defense, rev.cells()[0].defense);
    }

    #[test]
    fn singleton_stack_sweep_is_identical_to_defense_sweep() {
        // The .defenses() path (singleton stacks) and an explicit
        // singleton .defense_stacks() path are byte-identical artifacts.
        let picked: Vec<Defense> = defenses::registry().iter().copied().take(3).collect();
        let via_defenses = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defenses(picked.clone())
            .build();
        let via_stacks = CampaignSpec::builder(UarchConfig::default())
            .attacks(attacks::registry().iter().copied().take(3))
            .defense_stacks(picked.into_iter().map(DefenseStack::single))
            .build();
        assert_eq!(via_defenses.fingerprint(), via_stacks.fingerprint());
        let a = CampaignMatrix::run(&via_defenses).unwrap();
        let b = CampaignMatrix::run(&via_stacks).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn progress_observer_sees_every_evaluated_task() {
        use std::sync::Mutex;
        let spec = small_spec(2);
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        let observer = |e: TaskEvent| events.lock().unwrap().push(e);
        let (m, report) = Scheduler::new(&spec).progress(&observer).run().unwrap();
        let seen = events.into_inner().unwrap();
        assert_eq!(seen.len(), spec.total_tasks());
        assert_eq!(report.evaluated, spec.total_tasks());
        // The completion counter covers 1..=total exactly once, and every
        // event names a real config slice.
        let mut completed: Vec<usize> = seen.iter().map(|e| e.completed).collect();
        completed.sort_unstable();
        assert_eq!(completed, (1..=spec.total_tasks()).collect::<Vec<_>>());
        assert!(seen.iter().all(|e| e.total == spec.total_tasks()));
        assert!(seen.iter().all(|e| e.config < spec.configs.len()));
        // A no-op incremental rerun reports nothing: nothing is evaluated.
        let again: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        let observer = |e: TaskEvent| again.lock().unwrap().push(e);
        Scheduler::new(&spec)
            .prev(&m)
            .progress(&observer)
            .run()
            .unwrap();
        assert!(again.into_inner().unwrap().is_empty());
    }

    #[test]
    fn diff_reports_flips_deltas_and_axis_changes() {
        let spec = small_spec(0);
        let m1 = CampaignMatrix::run(&spec).unwrap();
        // Identical runs: an empty diff, everything unchanged.
        let same = m1.diff(&CampaignMatrix::run(&spec).unwrap());
        assert!(same.is_empty(), "{}", same.to_text());
        assert_eq!(same.unchanged, spec.total_tasks());
        // A hardened base flips baselines (leak → no leak) and cells,
        // under the *same* config name.
        let hardened = CampaignSpec {
            configs: vec![NamedConfig::new(
                "baseline",
                UarchConfig::builder().nda(true).build(),
            )],
            ..small_spec(0)
        };
        let m2 = CampaignMatrix::run(&hardened).unwrap();
        let diff = m1.diff(&m2);
        assert!(!diff.is_empty());
        assert!(!diff.baseline_flips.is_empty());
        assert!(diff
            .baseline_flips
            .iter()
            .all(|b| b.from_leaked && !b.to_leaked));
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        let text = diff.to_text();
        assert!(text.starts_with("campaign diff:"));
        assert!(text.contains("baseline:"));
        // A different defense axis shows up as added + removed cells.
        let fewer = CampaignSpec {
            defenses: spec.defenses[..2].to_vec(),
            ..small_spec(0)
        };
        let m3 = CampaignMatrix::run(&fewer).unwrap();
        let diff = m1.diff(&m3);
        assert!(diff.added.is_empty());
        assert_eq!(diff.removed.len(), spec.attacks.len());
        assert!(diff.to_text().contains("removed:"));
    }
}
