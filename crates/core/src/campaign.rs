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
//! use specgraph::campaign::{CampaignMatrix, CampaignSpec, Knob, PredictorFlavor};
//! use uarch::UarchConfig;
//!
//! # fn main() -> Result<(), attacks::AttackError> {
//! let spec = CampaignSpec::builder(UarchConfig::default())
//!     .attacks(attacks::registry().iter().copied().take(2))
//!     .defenses(defenses::registry().iter().copied().take(2))
//!     .axis(Knob::RobDepth, [16usize, 64])
//!     .axis(
//!         Knob::Predictor,
//!         [PredictorFlavor::Shared, PredictorFlavor::FlushOnSwitch],
//!     )
//!     .build();
//! let matrix = CampaignMatrix::run(&spec)?;
//! assert_eq!(matrix.shape(), (2, 2, 4)); // 2×2 knob grid = 4 config slices
//! assert_eq!(matrix.configs[0], "rob=16 pred=shared");
//! # Ok(())
//! # }
//! ```
//!
//! Worker threads claim tasks from one shared cursor, and results are
//! reassembled by cell index, so the output is byte-identical
//! regardless of thread count or scheduling. That index-addressed,
//! deterministic cell order is also what makes the cube **shardable**
//! ([`CampaignSpec::shards`] / [`CampaignMatrix::merge`]: merging is
//! validated concatenation) and **incrementally re-evaluable**
//! ([`CampaignMatrix::run_incremental`]: every cell carries a content
//! fingerprint — attack name, defense name + strategy, config contents —
//! and cells whose fingerprint appears in a previous matrix, e.g. one
//! loaded with [`CampaignMatrix::load_json`], are reused instead of
//! re-simulated).
//!
//! ## Cross-process sharding
//!
//! Shards are *artifacts*, not just in-process values: a
//! [`CampaignPart`] serializes to JSON (schema version
//! [`SCHEMA_VERSION`], with a shard header carrying the spec fingerprint
//! and the shard's slot in the task range), so `n` independent processes
//! — or machines — can each run one shard, write its part file, and a
//! final process can merge the parts bit-identically to a single-shot
//! run. [`CampaignMatrix::merge`] refuses parts whose
//! [`CampaignSpec::fingerprint`] differs, so shards of *different*
//! campaigns (different attack lists, knob values, or base
//! configurations) cannot be combined silently:
//!
//! ```
//! use specgraph::campaign::{CampaignMatrix, CampaignPart, CampaignSpec};
//! use uarch::UarchConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec::builder(UarchConfig::default())
//!     .attacks(attacks::registry().iter().copied().take(2))
//!     .defenses(defenses::registry().iter().copied().take(1))
//!     .build();
//!
//! // Each of these runs could happen in its own process:
//! // `part.save_json(path)` there, `CampaignPart::load_json(path)` here.
//! let parts: Vec<CampaignPart> = spec
//!     .shards(2)
//!     .iter()
//!     .map(|shard| {
//!         let part = shard.run(None)?;
//!         Ok(CampaignPart::from_json(&part.to_json())?) // disk round trip
//!     })
//!     .collect::<Result<_, Box<dyn std::error::Error>>>()?;
//!
//! let merged = CampaignMatrix::merge(parts)?;
//! assert_eq!(merged.to_json(), CampaignMatrix::run(&spec)?.to_json());
//! # Ok(())
//! # }
//! ```
//!
//! Saved matrices feed [`CampaignMatrix::run_incremental`] across the
//! same process boundary: re-running an unchanged spec against a loaded
//! matrix evaluates zero cells.

use crate::jsonio::{self, Json, JsonError};
use crate::scenario::Evaluation;
use attacks::{Attack, AttackError, AttackInfo, BatchRunner};
use defenses::{Defense, DefenseStack, Strategy, Verdict};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::thread;
use uarch::UarchConfig;

/// Schema version stamped on every matrix, part, and checkpoint document
/// this module writes (`"version"` plus a `"kind"` discriminator:
/// `"campaign-matrix"`, `"campaign-part"`, or `"campaign-checkpoint"`).
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
    /// Predictor flavor (shared / flushed / retpoline-style / stuffed RSB).
    Predictor,
    /// A Figure-8 global hardening mechanism (the axis behind the old
    /// 5-slice strategy sweep, now one knob among many).
    Hardening,
}

impl Knob {
    /// Applies `value` to `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the value kind does not fit the knob (e.g. a numeric
    /// value for [`Knob::Predictor`]) — a spec-construction bug, caught at
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
            (Knob::Predictor, KnobValue::Predictor(p)) => p.apply(cfg),
            (Knob::Hardening, KnobValue::Hardening(h)) => h.apply(cfg),
            (knob, value) => panic!("knob {knob:?} cannot take value {value:?}"),
        }
    }

    /// The axis token this knob contributes to auto-generated config names.
    fn label(self, value: KnobValue) -> String {
        match (self, value) {
            (Knob::RobDepth, KnobValue::Num(n)) => format!("rob={n}"),
            (Knob::FetchWidth, KnobValue::Num(n)) => format!("fetch={n}"),
            (Knob::IssueWidth, KnobValue::Num(n)) => format!("issue={n}"),
            (Knob::CacheSets, KnobValue::Num(n)) => format!("sets={n}"),
            (Knob::CacheWays, KnobValue::Num(n)) => format!("ways={n}"),
            (Knob::LfbEntries, KnobValue::Num(n)) => format!("lfb={n}"),
            (Knob::StoreBufferEntries, KnobValue::Num(n)) => format!("stbuf={n}"),
            (Knob::RsbDepth, KnobValue::Num(n)) => format!("rsb={n}"),
            (Knob::CacheHitLatency, KnobValue::Num(n)) => format!("hitlat={n}"),
            (Knob::CacheMissLatency, KnobValue::Num(n)) => format!("misslat={n}"),
            (Knob::PermissionCheckLatency, KnobValue::Num(n)) => format!("permlat={n}"),
            (Knob::Predictor, KnobValue::Predictor(p)) => format!("pred={}", p.token()),
            // Hardening labels stand alone so single-axis Figure-8 sweeps
            // keep the paper's slice names ("baseline", "② NDA", …).
            (Knob::Hardening, KnobValue::Hardening(h)) => h.label().to_owned(),
            (knob, value) => panic!("knob {knob:?} cannot take value {value:?}"),
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
    /// A predictor flavor (for [`Knob::Predictor`]).
    Predictor(PredictorFlavor),
    /// A hardening mechanism (for [`Knob::Hardening`]).
    Hardening(Hardening),
}

impl From<usize> for KnobValue {
    fn from(n: usize) -> Self {
        KnobValue::Num(n as u64)
    }
}

impl From<PredictorFlavor> for KnobValue {
    fn from(p: PredictorFlavor) -> Self {
        KnobValue::Predictor(p)
    }
}

impl From<Hardening> for KnobValue {
    fn from(h: Hardening) -> Self {
        KnobValue::Hardening(h)
    }
}

/// How the front-end predictors behave across contexts — the axis the
/// branch-history attacks (Spectre v2, Spectre-RSB, Retbleed) are
/// sensitive to.
///
/// A [`Knob::Predictor`] axis *pins* the slice's predictor behavior: it
/// assigns all three predictor flags
/// (`flush_predictors_on_switch`/`no_indirect_prediction`/`rsb_stuffing`),
/// overriding whatever the base configuration set, so every slice is
/// exactly the flavor its name claims. Because
/// [`Hardening::FlushPredictors`] sets one of those same flags, the
/// builder rejects combining the two axes rather than letting one
/// silently cancel the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PredictorFlavor {
    /// Untagged predictors shared across contexts (vulnerable baseline).
    Shared,
    /// All predictor state flushed on context switch (IBPB-style, ④).
    FlushOnSwitch,
    /// No indirect-branch prediction at all (retpoline effect).
    NoIndirect,
    /// RSB refilled with benign entries on switches (RSB stuffing).
    StuffedRsb,
}

impl PredictorFlavor {
    /// All flavors, baseline first.
    #[must_use]
    pub fn all() -> [PredictorFlavor; 4] {
        [
            PredictorFlavor::Shared,
            PredictorFlavor::FlushOnSwitch,
            PredictorFlavor::NoIndirect,
            PredictorFlavor::StuffedRsb,
        ]
    }

    /// Pins the predictor flags to exactly this flavor (see the type-level
    /// docs: the axis overrides the base, it does not compose with it).
    fn apply(self, cfg: &mut UarchConfig) {
        cfg.flush_predictors_on_switch = self == PredictorFlavor::FlushOnSwitch;
        cfg.no_indirect_prediction = self == PredictorFlavor::NoIndirect;
        cfg.rsb_stuffing = self == PredictorFlavor::StuffedRsb;
    }

    /// Stable machine-readable token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            PredictorFlavor::Shared => "shared",
            PredictorFlavor::FlushOnSwitch => "flush",
            PredictorFlavor::NoIndirect => "no-indirect",
            PredictorFlavor::StuffedRsb => "stuffed-rsb",
        }
    }

    /// The flavor for a [`PredictorFlavor::token`] string (how the
    /// `campaign` CLI parses `--axis pred=…` values).
    #[must_use]
    pub fn from_token(token: &str) -> Option<PredictorFlavor> {
        Self::all().into_iter().find(|f| f.token() == token)
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
    /// Display name, e.g. `"baseline"` or `"rob=16 pred=shared"`.
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
    /// Worker-failure policy: panic retries, backoff, and timeout
    /// degradation. Like [`threads`](Self::threads), excluded from
    /// [`fingerprint`](Self::fingerprint) — it changes how failures are
    /// handled, never what a successful cell evaluates to.
    pub resilience: Resilience,
}

/// How the campaign engine handles failing workers — the LHCb-on-HPC
/// posture: workers are *expected* to fail; the campaign completes anyway
/// with typed, degraded rows rather than aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resilience {
    /// How many times a panicking cell is retried (on a fresh machine)
    /// before it is quarantined as [`CellOutcome::Quarantined`]. `0`
    /// quarantines on the first panic.
    pub retries: u32,
    /// Sleep between panic retries, scaled linearly by attempt number.
    pub backoff: std::time::Duration,
    /// When set, a cell that exhausts its [`UarchConfig::max_cycles`]
    /// budget degrades to [`CellOutcome::TimedOut`] instead of failing the
    /// run — the runaway-cell watchdog.
    pub degrade_timeouts: bool,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            retries: 0,
            backoff: std::time::Duration::from_millis(10),
            degrade_timeouts: false,
        }
    }
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
    /// The cell panicked through every retry and was quarantined.
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
        let (a, d, c) = (self.attacks.len(), self.defenses.len(), self.configs.len());
        a * c + a * d * c
    }

    /// A stable 64-bit digest of the spec's *contents*: attack names,
    /// defense names + strategies, and config names + full config
    /// contents ([`config_digest`]), all in axis order. The worker-thread
    /// count and the [`Resilience`] policy are deliberately excluded —
    /// they change scheduling and failure handling, never results.
    ///
    /// Every [`CampaignPart`] records its producing spec's fingerprint,
    /// and [`CampaignMatrix::merge`] refuses to combine parts whose
    /// fingerprints differ: shards are only meaningful relative to one
    /// exact task order, and that order is a function of these contents.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(b"campaign-spec\0", FNV_OFFSET);
        for at in &self.attacks {
            h = fnv1a(at.info().name.as_bytes(), h);
            h = fnv1a(b"\0", h);
        }
        h = fnv1a(b"\x01", h);
        for d in &self.defenses {
            h = fnv1a(d.name().as_bytes(), h);
            h = fnv1a(b"\0", h);
            h = fnv1a(d.strategy_token().as_bytes(), h);
            h = fnv1a(b"\0", h);
        }
        h = fnv1a(b"\x01", h);
        for nc in &self.configs {
            h = fnv1a(nc.name.as_bytes(), h);
            h = fnv1a(b"\0", h);
            h = fnv1a(&config_digest(&nc.config).to_le_bytes(), h);
        }
        h
    }

    /// Splits the cube into `n` independently runnable shards covering
    /// contiguous, balanced ranges of the deterministic task order.
    /// `CampaignMatrix::merge` over all the parts reproduces
    /// [`CampaignMatrix::run`] bit for bit. `n = 0` is treated as 1.
    #[must_use]
    pub fn shards(&self, n: usize) -> Vec<CampaignShard> {
        let n = n.max(1);
        let total = self.total_tasks();
        (0..n)
            .map(|i| CampaignShard {
                index: i,
                of: n,
                start: i * total / n,
                end: (i + 1) * total / n,
                spec: self.clone(),
            })
            .collect()
    }
}

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
    /// slices would share one name and fingerprint), `knob` was already
    /// declared, or the
    /// grid would combine a [`Knob::Predictor`] axis with a
    /// [`Hardening::FlushPredictors`] value — the predictor axis pins the
    /// very flag that hardening sets, so such a slice would not be the
    /// machine its name claims.
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
        let has_predictor = self.axes.iter().any(|(k, _)| *k == Knob::Predictor);
        let has_flush_hardening = self
            .axes
            .iter()
            .any(|(_, vs)| vs.contains(&KnobValue::Hardening(Hardening::FlushPredictors)));
        assert!(
            !(has_predictor && has_flush_hardening),
            "Knob::Predictor pins the predictor flags and would silently \
             override Hardening::FlushPredictors; drop one of the two axes \
             (PredictorFlavor::FlushOnSwitch covers the ④ slice)"
        );
        self
    }

    /// Expands the declared axes into the full cartesian configuration
    /// grid and finishes the spec.
    ///
    /// # Panics
    ///
    /// Panics if an axis value does not fit its knob (e.g. a numeric
    /// value on [`Knob::Predictor`]).
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
            resilience: Resilience::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
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
    fnv1a(format!("{cfg:?}").as_bytes(), FNV_OFFSET)
}

pub(crate) fn baseline_fingerprint(attack: &str, digest: u64) -> u64 {
    let h = fnv1a(b"baseline\0", FNV_OFFSET);
    let h = fnv1a(attack.as_bytes(), h);
    fnv1a(&digest.to_le_bytes(), fnv1a(b"\0", h))
}

/// The cell fingerprint hashes the stack's display name and joined
/// strategy token, so a singleton stack's fingerprint equals the
/// pre-stack (schema v3) single-defense fingerprint — saved matrices keep
/// feeding incremental runs across the schema bump.
pub(crate) fn cell_fingerprint(
    attack: &str,
    defense: &str,
    strategy_token: &str,
    digest: u64,
) -> u64 {
    let h = fnv1a(b"cell\0", FNV_OFFSET);
    let h = fnv1a(attack.as_bytes(), h);
    let h = fnv1a(defense.as_bytes(), fnv1a(b"\0", h));
    let h = fnv1a(strategy_token.as_bytes(), fnv1a(b"\0", h));
    fnv1a(&digest.to_le_bytes(), fnv1a(b"\0", h))
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
    /// The two-level verdict for the cell (carries the full
    /// [`DefenseStack`]).
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
        match self.outcome {
            CellOutcome::Ok => verdict_token(self.evaluation.mechanism),
            CellOutcome::TimedOut { .. } => "timed_out",
            CellOutcome::Quarantined { .. } => "quarantined",
        }
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
    /// Per `(attack, stack)` pair (`attack_index * defenses + defense_index`):
    /// the hoisted `strategy_sufficient` verdict. `None` for pairs no
    /// requested task needs.
    pairs: Vec<Option<Option<bool>>>,
    /// How many (attack, stack) strategy verdicts were actually computed
    /// — exactly the number of needed pairs, surfaced as
    /// [`IncrementalReport::graph_verdicts`] so tests can pin the A×S
    /// (not A×S×C) bound.
    evaluated: usize,
}

/// Computes the graph verdicts the task list `ids` needs: baseline races
/// for attacks with baseline tasks (or all attacks when `races_for_all` —
/// the matrix path stamps races onto *reused* baselines too), and one
/// strategy-sufficiency verdict per (attack, stack) pair with at least
/// one cell task. One [`defenses::PatchSession`] per attack serves all of
/// its stacks: the graph is built and indexed once, and every stack's
/// strategy edges are applied and rolled back incrementally.
fn graph_verdicts_for(
    spec: &CampaignSpec,
    ids: &[usize],
    races_for_all: bool,
) -> Result<GraphVerdicts, AttackError> {
    let (a, d, c) = (spec.attacks.len(), spec.defenses.len(), spec.configs.len());
    let base_tasks = a * c;
    let mut race_needed = vec![races_for_all; a];
    let mut pair_needed = vec![false; a * d];
    for &task in ids {
        if task < base_tasks {
            race_needed[task / c] = true;
        } else {
            pair_needed[task_pair(spec, task)] = true;
        }
    }
    let mut races = vec![false; a];
    let mut pairs: Vec<Option<Option<bool>>> = vec![None; a * d];
    let mut evaluated = 0usize;
    for (ai, attack) in spec.attacks.iter().enumerate() {
        let wants_pairs = pair_needed[ai * d..(ai + 1) * d].iter().any(|&n| n);
        if !race_needed[ai] && !wants_pairs {
            continue;
        }
        let mut session = defenses::PatchSession::new(*attack);
        if race_needed[ai] {
            races[ai] = session.graph_race();
        }
        for (di, defense) in spec.defenses.iter().enumerate() {
            if pair_needed[ai * d + di] {
                pairs[ai * d + di] = Some(session.graph_sufficient(defense)?);
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

fn run_task(
    spec: &CampaignSpec,
    graph: &GraphVerdicts,
    digests: &[u64],
    task: usize,
    runner: &mut BatchRunner,
) -> Result<TaskOut, AttackError> {
    let c = spec.configs.len();
    let d = spec.defenses.len();
    let base_tasks = spec.attacks.len() * c;
    if task < base_tasks {
        let attack = spec.attacks[task / c];
        let config = task % c;
        let out = runner.run(attack, &spec.configs[config].config)?;
        let info = attack.info();
        Ok(TaskOut::Base(BaselineCell {
            config,
            leaked: out.leaked,
            recovered: out.recovered,
            cycles: out.cycles,
            graph_race: graph.races[task / c],
            fingerprint: baseline_fingerprint(info.name, digests[config]),
            info,
            outcome: CellOutcome::Ok,
        }))
    } else {
        let j = task - base_tasks;
        let attack = spec.attacks[j / (d * c)];
        let defense = &spec.defenses[(j / c) % d];
        let config = j % c;
        // The graph verdict was hoisted out of the config loop (it is
        // config-invariant); only the machine runs per slice.
        let strategy_sufficient =
            graph.pairs[task_pair(spec, task)].expect("pair verdict precomputed");
        let mechanism =
            defenses::verify_stack_warm(defense, attack, &spec.configs[config].config, runner)?;
        let evaluation = Evaluation {
            attack: attack.info().name,
            stack: defense.clone(),
            strategy_sufficient,
            mechanism,
        };
        let fingerprint = cell_fingerprint(
            evaluation.attack,
            defense.name(),
            &defense.strategy_token(),
            digests[config],
        );
        Ok(TaskOut::Cell(MatrixCell {
            attack: evaluation.attack,
            defense: defense.name().to_owned(),
            config,
            evaluation,
            fingerprint,
            outcome: CellOutcome::Ok,
        }))
    }
}

/// Builds the degraded row for a task whose simulation could not complete:
/// machine fields are zeroed, the mechanism is [`Verdict::GraphOnly`], and
/// the hoisted graph verdicts (`graph_race`, `strategy_sufficient`) are
/// kept — they never needed the machine. Fingerprints are computed as
/// usual so an incremental re-run recognises (and, because degraded rows
/// are never reused, re-evaluates) the cell.
fn degraded_task(
    spec: &CampaignSpec,
    graph: &GraphVerdicts,
    digests: &[u64],
    task: usize,
    outcome: CellOutcome,
) -> TaskOut {
    let c = spec.configs.len();
    let d = spec.defenses.len();
    let base_tasks = spec.attacks.len() * c;
    if task < base_tasks {
        let attack = spec.attacks[task / c];
        let config = task % c;
        let info = attack.info();
        TaskOut::Base(BaselineCell {
            fingerprint: baseline_fingerprint(info.name, digests[config]),
            info,
            config,
            leaked: false,
            recovered: None,
            cycles: 0,
            graph_race: graph.races[task / c],
            outcome,
        })
    } else {
        let j = task - base_tasks;
        let attack = spec.attacks[j / (d * c)];
        let defense = &spec.defenses[(j / c) % d];
        let config = j % c;
        let strategy_sufficient =
            graph.pairs[task_pair(spec, task)].expect("pair verdict precomputed");
        let evaluation = Evaluation {
            attack: attack.info().name,
            stack: defense.clone(),
            strategy_sufficient,
            mechanism: Verdict::GraphOnly,
        };
        let fingerprint = cell_fingerprint(
            evaluation.attack,
            defense.name(),
            &defense.strategy_token(),
            digests[config],
        );
        TaskOut::Cell(MatrixCell {
            attack: evaluation.attack,
            defense: defense.name().to_owned(),
            config,
            evaluation,
            fingerprint,
            outcome,
        })
    }
}

/// Renders a panic payload into a quarantine reason, truncated so a
/// pathological payload cannot bloat the matrix document.
fn panic_reason(payload: &dyn std::any::Any) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("worker panicked (non-string payload)");
    const MAX: usize = 200;
    let mut reason = String::with_capacity(msg.len().min(MAX));
    reason.extend(msg.chars().take(MAX));
    reason
}

/// [`run_task`] hardened by the spec's [`Resilience`] policy: panics are
/// caught and retried with backoff on a fresh machine (the old one may be
/// poisoned mid-simulation), then quarantined; cycle-budget exhaustion
/// degrades to [`CellOutcome::TimedOut`] when the watchdog is enabled.
/// Non-timeout simulator errors keep their existing fail-the-run
/// semantics — they indicate a broken spec, not a flaky worker.
fn run_task_resilient(
    spec: &CampaignSpec,
    graph: &GraphVerdicts,
    digests: &[u64],
    task: usize,
    runner: &mut BatchRunner,
) -> Result<TaskOut, AttackError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let policy = &spec.resilience;
    let mut attempt = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| {
            run_task(spec, graph, digests, task, runner)
        })) {
            Ok(Ok(out)) => return Ok(out),
            Ok(Err(AttackError::Uarch(e))) if e.is_cycle_limit() && policy.degrade_timeouts => {
                let uarch::UarchError::CycleLimitExceeded { limit } = e else {
                    unreachable!("is_cycle_limit");
                };
                return Ok(degraded_task(
                    spec,
                    graph,
                    digests,
                    task,
                    CellOutcome::TimedOut { limit },
                ));
            }
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                *runner = BatchRunner::new();
                if attempt >= policy.retries {
                    return Ok(degraded_task(
                        spec,
                        graph,
                        digests,
                        task,
                        CellOutcome::Quarantined {
                            reason: panic_reason(payload.as_ref()),
                        },
                    ));
                }
                attempt += 1;
                if !policy.backoff.is_zero() {
                    thread::sleep(policy.backoff * attempt);
                }
            }
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
    /// incremental run).
    pub total: usize,
    /// Config-slice index (into [`CampaignSpec::configs`]) of the
    /// completed task.
    pub config: usize,
}

/// Live progress callback for campaign runs: invoked once per evaluated
/// task, possibly concurrently from worker threads (hence `Sync`). Reused
/// (fingerprint-matched) tasks are never reported — they cost nothing.
pub type ProgressObserver<'a> = &'a (dyn Fn(TaskEvent) + Sync);

/// The config-slice index of a task id (baseline or cell region).
fn task_config(spec: &CampaignSpec, task: usize) -> usize {
    let c = spec.configs.len();
    let base_tasks = spec.attacks.len() * c;
    if task < base_tasks {
        task % c
    } else {
        (task - base_tasks) % c
    }
}

/// The `(attack, stack)` pair index (`attack_index * defenses +
/// defense_index`) of a *cell-region* task id — the key into
/// [`GraphVerdicts::pairs`], shared by the precompute and the workers so
/// the two decodes cannot drift.
///
/// Callers guarantee `task` lies in the cell region (`task >= A×C`).
fn task_pair(spec: &CampaignSpec, task: usize) -> usize {
    let (d, c) = (spec.defenses.len(), spec.configs.len());
    let j = task - spec.attacks.len() * c;
    (j / (d * c)) * d + (j / c) % d
}

/// Evaluates the given task ids (need not be contiguous, must be sorted
/// for the error-order guarantee): config digests, then the hoisted graph
/// verdicts (see [`graph_verdicts_for`] for `races_for_all`), then the
/// simulations on [`crate::exec::map_indexed`] workers, each owning one
/// warm [`BatchRunner`] that every task resets instead of rebuilding.
/// Results come back in list order; the first error by task order wins.
/// `progress`, if given, observes every completed task as it finishes.
fn evaluate_tasks(
    spec: &CampaignSpec,
    ids: &[usize],
    races_for_all: bool,
    progress: Option<ProgressObserver<'_>>,
) -> Result<(Vec<TaskOut>, GraphVerdicts), AttackError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let digests = config_digests(spec);
    let graph = graph_verdicts_for(spec, ids, races_for_all)?;
    let done = AtomicUsize::new(0);
    let outs = crate::exec::map_indexed(ids.len(), spec.threads, BatchRunner::new, |runner, k| {
        let out = run_task_resilient(spec, &graph, &digests, ids[k], runner);
        if let Some(f) = progress {
            f(TaskEvent {
                completed: done.fetch_add(1, Ordering::Relaxed) + 1,
                total: ids.len(),
                config: task_config(spec, ids[k]),
            });
        }
        out
    })?;
    Ok((outs, graph))
}

/// [`config_digest`] of every config slice, in axis order.
fn config_digests(spec: &CampaignSpec) -> Vec<u64> {
    spec.configs
        .iter()
        .map(|nc| config_digest(&nc.config))
        .collect()
}

fn split_outputs(outs: Vec<TaskOut>) -> (Vec<BaselineCell>, Vec<MatrixCell>) {
    let mut baselines = Vec::new();
    let mut cells = Vec::new();
    for out in outs {
        match out {
            TaskOut::Base(b) => baselines.push(b),
            TaskOut::Cell(cell) => cells.push(cell),
        }
    }
    (baselines, cells)
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// One independently runnable slice of a campaign cube — a contiguous
/// range of the deterministic task order. Produced by
/// [`CampaignSpec::shards`].
#[derive(Debug, Clone)]
pub struct CampaignShard {
    index: usize,
    of: usize,
    start: usize,
    end: usize,
    spec: CampaignSpec,
}

impl CampaignShard {
    /// This shard's position in `0..of`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// How many shards the cube was split into.
    #[must_use]
    pub fn of(&self) -> usize {
        self.of
    }

    /// Number of tasks this shard evaluates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard has no tasks (more shards than tasks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Evaluates this shard's task range (in parallel, like
    /// [`CampaignMatrix::run`]) and returns the partial result for
    /// [`CampaignMatrix::merge`]. `progress`, if given, is a live
    /// [`ProgressObserver`] reporting each completed task.
    ///
    /// # Errors
    ///
    /// The first [`AttackError`] any simulation produced (by task order).
    pub fn run(&self, progress: Option<ProgressObserver<'_>>) -> Result<CampaignPart, AttackError> {
        let ids: Vec<usize> = (self.start..self.end).collect();
        // Graph verdicts only for this shard's attacks and (attack, stack)
        // pairs — a shard whose range misses an attack builds no graph
        // for it; pairs are computed once and shared across the shard's
        // config slices.
        let (outs, _) = evaluate_tasks(&self.spec, &ids, false, progress)?;
        let (baselines, cells) = split_outputs(outs);
        Ok(CampaignPart {
            spec_fingerprint: self.spec.fingerprint(),
            index: self.index,
            of: self.of,
            start: self.start,
            end: self.end,
            total: self.spec.total_tasks(),
            attacks: self.spec.attacks.iter().map(|at| at.info()).collect(),
            defenses: self.spec.defenses.clone(),
            configs: self.spec.configs.iter().map(|nc| nc.name.clone()).collect(),
            baselines,
            cells,
        })
    }
}

/// The evaluated output of one [`CampaignShard`]: a shard header (spec
/// fingerprint plus the shard's slot in the task range), the axis
/// metadata, and the cells of its task range, in task order.
///
/// A part is the unit of **cross-process** shard transport: it
/// serializes to JSON ([`CampaignPart::save_json`], schema version
/// [`SCHEMA_VERSION`] with `"kind": "campaign-part"`), so each shard can
/// run in its own process — or on its own machine — and a final process
/// can [`CampaignPart::load_json`] every part and
/// [`CampaignMatrix::merge`] them bit-identically to a single-shot run.
#[derive(Debug, Clone)]
pub struct CampaignPart {
    spec_fingerprint: u64,
    index: usize,
    of: usize,
    start: usize,
    end: usize,
    total: usize,
    attacks: Vec<AttackInfo>,
    defenses: Vec<DefenseStack>,
    configs: Vec<String>,
    baselines: Vec<BaselineCell>,
    cells: Vec<MatrixCell>,
}

impl CampaignPart {
    /// This part's shard position.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// How many shards the cube was split into.
    #[must_use]
    pub fn of(&self) -> usize {
        self.of
    }

    /// The [`CampaignSpec::fingerprint`] of the spec that produced this
    /// part. [`CampaignMatrix::merge`] only combines parts that agree.
    #[must_use]
    pub fn spec_fingerprint(&self) -> u64 {
        self.spec_fingerprint
    }

    /// First task index (inclusive) of this part's range.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last task index of this part's range.
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of tasks (baselines + cells) this part evaluated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this part's task range is empty (more shards than tasks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The baseline rows this part evaluated.
    #[must_use]
    pub fn baselines(&self) -> &[BaselineCell] {
        &self.baselines
    }

    /// The matrix cells this part evaluated.
    #[must_use]
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }

    /// The part as a JSON document: shard header first, then axes and
    /// rows. Round-trips through [`CampaignPart::from_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_kind("campaign-part")
    }

    /// The part as a **checkpoint** document (`"kind":
    /// "campaign-checkpoint"`, same row format): the unit the
    /// [`serve`](crate::serve) scheduler writes after each completed chunk
    /// so a killed run resumes without redoing the range. Round-trips
    /// through [`CampaignPart::from_checkpoint_json`]; the two kinds do
    /// not interchange, so a checkpoint directory can never be merged as
    /// if it were a complete part set by accident.
    #[must_use]
    pub fn to_checkpoint_json(&self) -> String {
        self.to_json_kind("campaign-checkpoint")
    }

    fn to_json_kind(&self, kind: &str) -> String {
        let mut out = String::from("{\n  \"version\": ");
        let _ = write!(out, "{SCHEMA_VERSION},\n  \"kind\": \"{kind}\",");
        let _ = write!(
            out,
            "\n  \"spec_fingerprint\": \"{:#018x}\",",
            self.spec_fingerprint
        );
        let _ = write!(
            out,
            "\n  \"shard\": {{\"index\": {}, \"of\": {}, \"start\": {}, \"end\": {}, \"total\": {}}},",
            self.index, self.of, self.start, self.end, self.total
        );
        out.push_str("\n  \"configs\": [");
        push_json_list(&mut out, self.configs.iter().map(String::as_str));
        out.push_str("],\n  \"attacks\": [");
        push_json_list(&mut out, self.attacks.iter().map(|i| i.name));
        out.push_str("],\n  \"defenses\": [");
        push_json_list(&mut out, self.defenses.iter().map(DefenseStack::name));
        out.push_str("],\n  \"baselines\": [");
        for (i, b) in self.baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_baseline_row(&mut out, b, &self.configs);
        }
        out.push_str("\n  ],\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_cell_row(&mut out, cell, &self.configs);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`CampaignPart::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::fault::write_atomic(path, &self.to_json())
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

    /// Reads a part saved with [`CampaignPart::save_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on I/O failure, malformed JSON, a wrong
    /// version/kind, or names that no longer resolve in the registries.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, CampaignIoError> {
        Self::from_json(&std::fs::read_to_string(path)?)
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
        Self::from_checkpoint_json(&std::fs::read_to_string(path)?)
    }

    /// Parses a part from its [`CampaignPart::to_json`] document.
    ///
    /// The shard header is validated for internal consistency (index
    /// within the shard count, task range within — and consistent with —
    /// the declared axes), and every row's names are checked against the
    /// task position it claims, exactly like
    /// [`CampaignMatrix::from_json`].
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on malformed JSON, a wrong version or kind
    /// (e.g. a *matrix* document — parts and matrices do not
    /// interchange), unknown names/tokens, or an inconsistent header.
    pub fn from_json(text: &str) -> Result<Self, CampaignIoError> {
        Self::from_json_kind(text, "campaign-part")
    }

    /// Parses a checkpoint from its [`CampaignPart::to_checkpoint_json`]
    /// document. Identical validation to [`CampaignPart::from_json`],
    /// keyed on the `"campaign-checkpoint"` kind.
    ///
    /// # Errors
    ///
    /// [`CampaignIoError`] on malformed JSON, a wrong version or kind,
    /// unknown names/tokens, or an inconsistent header.
    pub fn from_checkpoint_json(text: &str) -> Result<Self, CampaignIoError> {
        Self::from_json_kind(text, "campaign-checkpoint")
    }

    fn from_json_kind(text: &str, kind: &'static str) -> Result<Self, CampaignIoError> {
        let doc = jsonio::parse(text)?;
        check_version_and_kind(&doc, kind)?;
        let spec_fingerprint = header_fingerprint(&doc)?;
        let shard = doc
            .get("shard")
            .ok_or_else(|| CampaignIoError::Parse("missing 'shard' header".to_owned()))?;
        let shard_field = |key: &str| -> Result<usize, CampaignIoError> {
            let n = shard
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| CampaignIoError::Parse(format!("missing shard field '{key}'")))?;
            usize::try_from(n)
                .map_err(|_| CampaignIoError::Parse(format!("shard field '{key}' out of range")))
        };
        let (index, of) = (shard_field("index")?, shard_field("of")?);
        let (start, end, total) = (
            shard_field("start")?,
            shard_field("end")?,
            shard_field("total")?,
        );
        if of == 0 || index >= of || start > end || end > total {
            return Err(CampaignIoError::Shape(format!(
                "inconsistent shard header: index {index} of {of}, tasks {start}..{end} of {total}"
            )));
        }
        let (attacks, defenses, configs) = parse_axes(&doc)?;
        let (a, d, c) = (attacks.len(), defenses.len(), configs.len());
        if total != a * c + a * d * c {
            return Err(CampaignIoError::Shape(format!(
                "shard header declares {total} total tasks, axes imply {}",
                a * c + a * d * c
            )));
        }
        let (baselines, cells) = parse_rows(
            &attacks,
            &defenses,
            &configs,
            start,
            end,
            entries(&doc, "baselines")?,
            entries(&doc, "cells")?,
        )?;
        Ok(CampaignPart {
            spec_fingerprint,
            index,
            of,
            start,
            end,
            total,
            attacks,
            defenses,
            configs,
            baselines,
            cells,
        })
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

/// How much work an incremental run actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Tasks (baselines + cells) that were re-simulated.
    pub evaluated: usize,
    /// Tasks reused from the previous matrix by fingerprint.
    pub reused: usize,
    /// Strategy-sufficiency graph verdicts computed for this run. Graph
    /// verdicts are config-invariant and hoisted out of the config loop,
    /// so a full run of an `A×S×C` cube computes exactly `A×S` of these
    /// (one per (attack, stack) pair), and an all-reused incremental run
    /// computes zero.
    pub graph_verdicts: usize,
}

impl CampaignMatrix {
    fn assemble(
        attacks: Vec<AttackInfo>,
        defenses: Vec<DefenseStack>,
        configs: Vec<String>,
        baselines: Vec<BaselineCell>,
        cells: Vec<MatrixCell>,
    ) -> Self {
        debug_assert_eq!(baselines.len(), attacks.len() * configs.len());
        debug_assert_eq!(cells.len(), attacks.len() * defenses.len() * configs.len());
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
    /// Tasks (one per baseline run, one per matrix cell) are claimed by
    /// worker threads from a shared cursor and reassembled by index, so
    /// the result — including cell order — is independent of scheduling.
    ///
    /// # Errors
    ///
    /// The first [`AttackError`] any simulation produced (by task order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics (i.e. a bug, not a
    /// simulation failure).
    pub fn run(spec: &CampaignSpec) -> Result<Self, AttackError> {
        Ok(Self::run_incremental(spec, None, None)?.0)
    }

    /// Evaluates the cube, reusing every cell of `prev` whose content
    /// fingerprint (attack name + defense name/strategy + config
    /// contents) matches a cell of the new spec; only stale cells are
    /// re-simulated. With an unchanged spec this evaluates **zero** cells;
    /// changing one knob value re-evaluates exactly the affected config
    /// slices. `prev` typically comes from [`CampaignMatrix::load_json`].
    /// `progress`, if given, is a live [`ProgressObserver`] that sees
    /// every *evaluated* task as it completes (reused tasks are silent —
    /// they cost nothing).
    ///
    /// Fingerprints cover the *spec*, not the simulator implementation:
    /// discard saved matrices when the simulator or an attack PoC changes.
    ///
    /// # Errors
    ///
    /// The first [`AttackError`] any re-simulation produced (by task
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics.
    pub fn run_incremental(
        spec: &CampaignSpec,
        prev: Option<&CampaignMatrix>,
        progress: Option<ProgressObserver<'_>>,
    ) -> Result<(Self, IncrementalReport), AttackError> {
        let (a, d, c) = (spec.attacks.len(), spec.defenses.len(), spec.configs.len());
        let total = a * c + a * d * c;
        let digests = config_digests(spec);

        let mut prev_bases: HashMap<u64, &BaselineCell> = HashMap::new();
        let mut prev_cells: HashMap<u64, &MatrixCell> = HashMap::new();
        if let Some(p) = prev {
            // Degraded rows (quarantined / timed-out) are deliberately not
            // reusable: a re-run with the fault gone must re-evaluate and
            // heal them.
            for b in p.baselines.iter().filter(|b| b.outcome.is_ok()) {
                prev_bases.insert(b.fingerprint, b);
            }
            for cell in p.cells.iter().filter(|cell| cell.outcome.is_ok()) {
                prev_cells.insert(cell.fingerprint, cell);
            }
        }

        let mut slots: Vec<Option<TaskOut>> = Vec::with_capacity(total);
        let mut stale: Vec<usize> = Vec::new();
        for task in 0..total {
            let reused = if task < a * c {
                let name = spec.attacks[task / c].info().name;
                let config = task % c;
                prev_bases
                    .get(&baseline_fingerprint(name, digests[config]))
                    .map(|b| {
                        TaskOut::Base(BaselineCell {
                            config,
                            ..(*b).clone()
                        })
                    })
            } else {
                let j = task - a * c;
                let name = spec.attacks[j / (d * c)].info().name;
                let defense = &spec.defenses[(j / c) % d];
                let config = j % c;
                prev_cells
                    .get(&cell_fingerprint(
                        name,
                        defense.name(),
                        &defense.strategy_token(),
                        digests[config],
                    ))
                    .map(|cell| {
                        TaskOut::Cell(MatrixCell {
                            config,
                            ..(*cell).clone()
                        })
                    })
            };
            if reused.is_none() {
                stale.push(task);
            }
            slots.push(reused);
        }

        // Graph verdicts, hoisted: strategy sufficiency only for the
        // (attack, stack) pairs with stale cells, Theorem-1 races for
        // *every* attack — races are recomputed live (cheap) and stamped
        // onto reused baselines below, so a changed graph() never serves
        // a stale verdict even when the simulation itself is reused.
        let (fresh, graph) = evaluate_tasks(spec, &stale, true, progress)?;
        for (task, slot) in slots.iter_mut().enumerate() {
            if let Some(TaskOut::Base(b)) = slot {
                b.graph_race = graph.races[task / c];
            }
        }
        for (&task, out) in stale.iter().zip(fresh) {
            slots[task] = Some(out);
        }
        let (baselines, cells) = split_outputs(
            slots
                .into_iter()
                .map(|s| s.expect("every task filled"))
                .collect(),
        );
        let report = IncrementalReport {
            evaluated: stale.len(),
            reused: total - stale.len(),
            graph_verdicts: graph.evaluated,
        };
        Ok((
            Self::assemble(
                spec.attacks.iter().map(|at| at.info()).collect(),
                spec.defenses.clone(),
                spec.configs.iter().map(|nc| nc.name.clone()).collect(),
                baselines,
                cells,
            ),
            report,
        ))
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
        parts.sort_by_key(|p| p.index);
        let of = parts[0].of;
        if parts.len() != of {
            return Err(MergeError::WrongCount {
                expected: of,
                got: parts.len(),
            });
        }
        for (i, p) in parts.iter().enumerate() {
            if p.index != i || p.of != of {
                return Err(MergeError::ShardIndex {
                    expected: i,
                    got: p.index,
                });
            }
            let first = &parts[0];
            if p.spec_fingerprint != first.spec_fingerprint {
                return Err(MergeError::SpecMismatch {
                    index: p.index,
                    expected: first.spec_fingerprint,
                    got: p.spec_fingerprint,
                });
            }
            let same_axes = p.attacks == first.attacks
                && p.configs == first.configs
                && p.total == first.total
                && p.defenses == first.defenses;
            if !same_axes {
                return Err(MergeError::AxisMismatch { index: p.index });
            }
        }
        let mut next = 0;
        for p in &parts {
            if p.start != next {
                return Err(MergeError::Coverage {
                    expected: next,
                    got: p.start,
                });
            }
            next = p.end;
        }
        if next != parts[0].total {
            return Err(MergeError::Coverage {
                expected: parts[0].total,
                got: next,
            });
        }
        let attacks = parts[0].attacks.clone();
        let defenses = parts[0].defenses.clone();
        let configs = parts[0].configs.clone();
        let mut baselines = Vec::new();
        let mut cells = Vec::new();
        for p in parts {
            baselines.extend(p.baselines);
            cells.extend(p.cells);
        }
        Ok(Self::assemble(attacks, defenses, configs, baselines, cells))
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
        self.cells
            .get((a * self.defenses.len() + d) * self.configs.len() + config)
    }

    /// The undefended run of `attack` under configuration index `config`
    /// — O(1), like [`CampaignMatrix::cell`].
    #[must_use]
    pub fn baseline(&self, attack: &str, config: usize) -> Option<&BaselineCell> {
        let a = *self.attack_index.get(attack)?;
        if config >= self.configs.len() {
            return None;
        }
        self.baselines.get(a * self.configs.len() + config)
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
        for cell in &self.cells {
            let e = &cell.evaluation;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                csv_field(cell.attack),
                csv_field(&cell.defense),
                csv_field(&self.configs[cell.config]),
                e.stack.strategy_token(),
                e.strategy_sufficient
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
        let mut out = String::from("{\n  \"version\": ");
        let _ = write!(out, "{SCHEMA_VERSION},\n  \"kind\": \"campaign-matrix\",");
        out.push_str("\n  \"configs\": [");
        push_json_list(&mut out, self.configs.iter().map(String::as_str));
        out.push_str("],\n  \"attacks\": [");
        push_json_list(&mut out, self.attacks.iter().map(|i| i.name));
        out.push_str("],\n  \"defenses\": [");
        push_json_list(&mut out, self.defenses.iter().map(DefenseStack::name));
        out.push_str("],\n  \"baselines\": [");
        for (i, b) in self.baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_baseline_row(&mut out, b, &self.configs);
        }
        out.push_str("\n  ],\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_cell_row(&mut out, cell, &self.configs);
        }
        out.push_str("\n  ]\n}\n");
        out
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

    /// How many rows (baselines + cells) were quarantined after exhausting
    /// panic retries.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.baselines
            .iter()
            .filter(|b| matches!(b.outcome, CellOutcome::Quarantined { .. }))
            .count()
            + self
                .cells
                .iter()
                .filter(|cell| matches!(cell.outcome, CellOutcome::Quarantined { .. }))
                .count()
    }

    /// How many rows (baselines + cells) were degraded by the runaway-cell
    /// watchdog.
    #[must_use]
    pub fn timed_out(&self) -> usize {
        self.baselines
            .iter()
            .filter(|b| matches!(b.outcome, CellOutcome::TimedOut { .. }))
            .count()
            + self
                .cells
                .iter()
                .filter(|cell| matches!(cell.outcome, CellOutcome::TimedOut { .. }))
                .count()
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
    /// (e.g. a shard *part* document — merge parts first), unknown
    /// names/tokens, or a cell count that does not match the declared
    /// axes.
    pub fn from_json(text: &str) -> Result<Self, CampaignIoError> {
        let doc = jsonio::parse(text)?;
        check_version_and_kind(&doc, "campaign-matrix")?;
        let (attacks, defenses, configs) = parse_axes(&doc)?;
        let (a, d, c) = (attacks.len(), defenses.len(), configs.len());
        let total = a * c + a * d * c;
        let (baselines, cells) = parse_rows(
            &attacks,
            &defenses,
            &configs,
            0,
            total,
            entries(&doc, "baselines")?,
            entries(&doc, "cells")?,
        )?;
        Ok(Self::assemble(attacks, defenses, configs, baselines, cells))
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
        type CellKey<'a> = (&'a str, &'a str, &'a str);
        let cell_key = |cell: &MatrixCell, configs: &[String]| -> String {
            format!(
                "{} vs {} @ {}",
                cell.defense, cell.attack, configs[cell.config]
            )
        };
        let mut diff = MatrixDiff::default();

        let old_cells: HashMap<CellKey<'_>, &MatrixCell> = self
            .cells
            .iter()
            .map(|cell| {
                (
                    (
                        cell.attack,
                        cell.defense.as_str(),
                        self.configs[cell.config].as_str(),
                    ),
                    cell,
                )
            })
            .collect();
        let mut seen_cells: std::collections::HashSet<CellKey<'_>> =
            std::collections::HashSet::new();
        for cell in &newer.cells {
            let key = (
                cell.attack,
                cell.defense.as_str(),
                newer.configs[cell.config].as_str(),
            );
            match old_cells.get(&key) {
                None => diff.added.push(cell_key(cell, &newer.configs)),
                Some(old) => {
                    seen_cells.insert(key);
                    let (oe, ne) = (&old.evaluation, &cell.evaluation);
                    if oe.mechanism != ne.mechanism
                        || oe.strategy_sufficient != ne.strategy_sufficient
                    {
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
                    } else {
                        diff.unchanged += 1;
                    }
                }
            }
        }
        for cell in &self.cells {
            let key = (
                cell.attack,
                cell.defense.as_str(),
                self.configs[cell.config].as_str(),
            );
            if !seen_cells.contains(&key) {
                diff.removed.push(cell_key(cell, &self.configs));
            }
        }

        let old_bases: HashMap<(&str, &str), &BaselineCell> = self
            .baselines
            .iter()
            .map(|b| ((b.info.name, self.configs[b.config].as_str()), b))
            .collect();
        let mut seen_bases: std::collections::HashSet<(&str, &str)> =
            std::collections::HashSet::new();
        for b in &newer.baselines {
            let key = (b.info.name, newer.configs[b.config].as_str());
            match old_bases.get(&key) {
                None => diff.added.push(format!("{} @ {} (baseline)", key.0, key.1)),
                Some(old) => {
                    seen_bases.insert(key);
                    if old.leaked != b.leaked {
                        diff.baseline_flips.push(BaselineFlip {
                            attack: b.info.name.to_owned(),
                            config: key.1.to_owned(),
                            from_leaked: old.leaked,
                            to_leaked: b.leaked,
                        });
                    } else if old.cycles != b.cycles {
                        diff.cycle_deltas.push(CycleDelta {
                            attack: b.info.name.to_owned(),
                            config: key.1.to_owned(),
                            from: old.cycles,
                            to: b.cycles,
                        });
                    } else {
                        diff.unchanged += 1;
                    }
                }
            }
        }
        for b in &self.baselines {
            let key = (b.info.name, self.configs[b.config].as_str());
            if !seen_bases.contains(&key) {
                diff.removed
                    .push(format!("{} @ {} (baseline)", key.0, key.1));
            }
        }
        diff
    }
}

/// Checks the `version`/`kind` headers of a campaign document.
/// Version-3 documents (single-defense columns) load too: their defense
/// names parse as singleton stacks.
fn check_version_and_kind(doc: &Json, kind: &'static str) -> Result<(), CampaignIoError> {
    match doc.get("version").and_then(Json::as_u64) {
        Some(
            SCHEMA_VERSION | PRE_OUTCOME_VERSION | STACK_MATRIX_VERSION | SINGLE_DEFENSE_VERSION,
        ) => {}
        found => return Err(CampaignIoError::Version { found }),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => Ok(()),
        Some(other) => Err(CampaignIoError::Kind {
            expected: kind,
            found: other.to_owned(),
        }),
        None => Err(CampaignIoError::Parse("missing 'kind' header".to_owned())),
    }
}

/// Reads the `spec_fingerprint` header of a part document.
fn header_fingerprint(doc: &Json) -> Result<u64, CampaignIoError> {
    let s = doc
        .get("spec_fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| CampaignIoError::Parse("missing 'spec_fingerprint' header".to_owned()))?;
    parse_hex_u64(s).ok_or_else(|| CampaignIoError::Parse(format!("bad spec fingerprint '{s}'")))
}

/// The resolved `(attacks, defenses, configs)` axis lists of a campaign
/// document.
type ParsedAxes = (Vec<AttackInfo>, Vec<DefenseStack>, Vec<String>);

/// Resolves the `attacks`/`defenses`/`configs` axis lists of a campaign
/// document against the live registries. Defense entries are stack
/// expressions (`"NDA"`, `"KAISER/KPTI+Retpoline"`), so version-3
/// single-defense documents resolve to singleton stacks.
fn parse_axes(doc: &Json) -> Result<ParsedAxes, CampaignIoError> {
    let str_list = |key: &str| -> Result<Vec<String>, CampaignIoError> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| CampaignIoError::Parse(format!("missing '{key}' list")))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| CampaignIoError::Parse(format!("non-string in '{key}'")))
            })
            .collect()
    };
    let configs = str_list("configs")?;
    let attacks: Vec<AttackInfo> = str_list("attacks")?
        .into_iter()
        .map(|name| {
            attacks::find(&name)
                .map(|a| a.info())
                .ok_or(CampaignIoError::UnknownAttack(name))
        })
        .collect::<Result<_, _>>()?;
    let defenses: Vec<DefenseStack> = str_list("defenses")?
        .into_iter()
        .map(|name| DefenseStack::parse(&name).map_err(|_| CampaignIoError::UnknownDefense(name)))
        .collect::<Result<_, _>>()?;
    Ok((attacks, defenses, configs))
}

/// The array under `key`, as parsed rows.
fn entries<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], CampaignIoError> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| CampaignIoError::Parse(format!("missing '{key}' list")))
}

/// Parses the baseline/cell rows covering tasks `start..end` of the cube
/// described by the axes, validating that every row names exactly the
/// attack/defense/config its task position implies (attack-major order).
/// For a full matrix `start..end` is the whole task range; for a part it
/// is the shard's slice.
fn parse_rows(
    attacks: &[AttackInfo],
    defenses: &[DefenseStack],
    configs: &[String],
    start: usize,
    end: usize,
    baseline_rows: &[Json],
    cell_rows: &[Json],
) -> Result<(Vec<BaselineCell>, Vec<MatrixCell>), CampaignIoError> {
    let (d, c) = (defenses.len(), configs.len());
    let base_tasks = attacks.len() * c;
    let expected_baselines = end.min(base_tasks).saturating_sub(start.min(base_tasks));
    let expected_cells = (end - start) - expected_baselines;
    if baseline_rows.len() != expected_baselines {
        return Err(CampaignIoError::Shape(format!(
            "expected {expected_baselines} baselines, found {}",
            baseline_rows.len()
        )));
    }
    if cell_rows.len() != expected_cells {
        return Err(CampaignIoError::Shape(format!(
            "expected {expected_cells} cells, found {}",
            cell_rows.len()
        )));
    }
    let mut baselines = Vec::with_capacity(expected_baselines);
    let mut cells = Vec::with_capacity(expected_cells);
    for task in start..end {
        if task < base_tasks {
            let row = &baseline_rows[task - start];
            let info = attacks[task / c];
            let config = task % c;
            let name = field_str(row, "attack")?;
            if name != info.name {
                return Err(CampaignIoError::Shape(format!(
                    "baseline for task {task} names '{name}', expected '{}' \
                     (attack-major order)",
                    info.name
                )));
            }
            let cfg_name = field_str(row, "config")?;
            if cfg_name != configs[config] {
                return Err(CampaignIoError::Shape(format!(
                    "baseline for task {task} names config '{cfg_name}', expected '{}' \
                     (attack-major order)",
                    configs[config]
                )));
            }
            baselines.push(BaselineCell {
                info,
                config,
                leaked: field_bool(row, "leaked")?,
                recovered: match row.get("recovered") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        CampaignIoError::Parse("non-integer 'recovered'".to_owned())
                    })?),
                },
                cycles: field_u64(row, "cycles")?,
                graph_race: field_bool(row, "graph_race")?,
                fingerprint: field_fingerprint(row)?,
                outcome: baseline_outcome(row)?,
            });
        } else {
            let j = task - base_tasks;
            let row = &cell_rows[task - base_tasks.max(start)];
            let info = attacks[j / (d * c)];
            let defense = &defenses[(j / c) % d];
            let config = j % c;
            let (aname, dname) = (field_str(row, "attack")?, field_str(row, "defense")?);
            if aname != info.name || dname != defense.name() {
                return Err(CampaignIoError::Shape(format!(
                    "cell for task {task} names ('{aname}', '{dname}'), \
                     expected ('{}', '{}')",
                    info.name,
                    defense.name()
                )));
            }
            let cfg_name = field_str(row, "config")?;
            if cfg_name != configs[config] {
                return Err(CampaignIoError::Shape(format!(
                    "cell for task {task} names config '{cfg_name}', expected '{}' \
                     (attack-major order)",
                    configs[config]
                )));
            }
            // The declared strategy must be the stack's own joined token —
            // a mismatch means the row was written for a different stack.
            let strategy = field_str(row, "strategy")?;
            if strategy != defense.strategy_token() {
                return Err(CampaignIoError::Shape(format!(
                    "cell for task {task} declares strategy '{strategy}', \
                     stack '{}' implements '{}'",
                    defense.name(),
                    defense.strategy_token()
                )));
            }
            // Degraded outcome tokens ride in the mechanism column; a
            // degraded cell has no machine verdict, only the graph one.
            let mech_token = field_str(row, "mechanism")?;
            let (mechanism, outcome) = match mech_token {
                "timed_out" => (
                    Verdict::GraphOnly,
                    CellOutcome::TimedOut {
                        limit: field_u64(row, "budget")?,
                    },
                ),
                "quarantined" => (
                    Verdict::GraphOnly,
                    CellOutcome::Quarantined {
                        reason: field_str(row, "quarantine_reason")?.to_owned(),
                    },
                ),
                token => (
                    verdict_from_token(token)
                        .ok_or_else(|| CampaignIoError::UnknownToken(token.to_owned()))?,
                    CellOutcome::Ok,
                ),
            };
            let strategy_sufficient = match row.get("strategy_sufficient") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_bool().ok_or_else(|| {
                    CampaignIoError::Parse("non-boolean 'strategy_sufficient'".to_owned())
                })?),
            };
            cells.push(MatrixCell {
                attack: info.name,
                defense: defense.name().to_owned(),
                config,
                evaluation: Evaluation {
                    attack: info.name,
                    stack: defense.clone(),
                    strategy_sufficient,
                    mechanism,
                },
                fingerprint: field_fingerprint(row)?,
                outcome,
            });
        }
    }
    Ok((baselines, cells))
}

/// Writes one baseline row in the shared matrix/part JSON row format.
/// Fault-free rows are byte-identical to the version-5 format; degraded
/// rows append an `"outcome"` token plus its reason/budget field.
fn write_baseline_row(out: &mut String, b: &BaselineCell, configs: &[String]) {
    let _ = write!(
        out,
        "\n    {{\"attack\": {}, \"config\": {}, \"leaked\": {}, \"recovered\": {}, \"cycles\": {}, \"graph_race\": {}, \"fingerprint\": \"{:#018x}\"",
        json_str(b.info.name),
        json_str(&configs[b.config]),
        b.leaked,
        b.recovered
            .map_or_else(|| "null".to_owned(), |v| v.to_string()),
        b.cycles,
        b.graph_race,
        b.fingerprint,
    );
    match &b.outcome {
        CellOutcome::Ok => {}
        CellOutcome::TimedOut { limit } => {
            let _ = write!(out, ", \"outcome\": \"timed_out\", \"budget\": {limit}");
        }
        CellOutcome::Quarantined { reason } => {
            let _ = write!(
                out,
                ", \"outcome\": \"quarantined\", \"quarantine_reason\": {}",
                json_str(reason)
            );
        }
    }
    out.push('}');
}

/// Writes one matrix-cell row in the shared matrix/part JSON row format.
/// A degraded cell's outcome token rides in the mechanism column
/// (`"quarantined"`/`"timed_out"`), followed by its reason/budget field;
/// fault-free rows are byte-identical to the version-5 format.
fn write_cell_row(out: &mut String, cell: &MatrixCell, configs: &[String]) {
    let e = &cell.evaluation;
    let _ = write!(
        out,
        "\n    {{\"attack\": {}, \"defense\": {}, \"config\": {}, \"strategy\": {}, \"strategy_sufficient\": {}, \"mechanism\": {}, \"false_sense\": {}, \"fingerprint\": \"{:#018x}\"",
        json_str(cell.attack),
        json_str(&cell.defense),
        json_str(&configs[cell.config]),
        json_str(&e.stack.strategy_token()),
        e.strategy_sufficient
            .map_or_else(|| "null".to_owned(), |b| b.to_string()),
        json_str(cell.mechanism_token()),
        cell.false_sense_of_security(),
        cell.fingerprint,
    );
    match &cell.outcome {
        CellOutcome::Ok => {}
        CellOutcome::TimedOut { limit } => {
            let _ = write!(out, ", \"budget\": {limit}");
        }
        CellOutcome::Quarantined { reason } => {
            let _ = write!(out, ", \"quarantine_reason\": {}", json_str(reason));
        }
    }
    out.push('}');
}

/// Parses a baseline row's optional `"outcome"` token (absent in
/// version ≤ 5 documents and in fault-free version-7 rows).
fn baseline_outcome(row: &Json) -> Result<CellOutcome, CampaignIoError> {
    let Some(value) = row.get("outcome") else {
        return Ok(CellOutcome::Ok);
    };
    match value.as_str() {
        Some("timed_out") => Ok(CellOutcome::TimedOut {
            limit: field_u64(row, "budget")?,
        }),
        Some("quarantined") => Ok(CellOutcome::Quarantined {
            reason: field_str(row, "quarantine_reason")?.to_owned(),
        }),
        Some(other) => Err(CampaignIoError::UnknownToken(other.to_owned())),
        None => Err(CampaignIoError::Parse(
            "non-string 'outcome' field".to_owned(),
        )),
    }
}

fn field_str<'a>(row: &'a Json, key: &str) -> Result<&'a str, CampaignIoError> {
    row.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| CampaignIoError::Parse(format!("missing string field '{key}'")))
}

fn field_bool(row: &Json, key: &str) -> Result<bool, CampaignIoError> {
    row.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| CampaignIoError::Parse(format!("missing boolean field '{key}'")))
}

fn field_u64(row: &Json, key: &str) -> Result<u64, CampaignIoError> {
    row.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignIoError::Parse(format!("missing integer field '{key}'")))
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}

fn field_fingerprint(row: &Json) -> Result<u64, CampaignIoError> {
    let s = field_str(row, "fingerprint")?;
    parse_hex_u64(s).ok_or_else(|| CampaignIoError::Parse(format!("bad fingerprint '{s}'")))
}

/// Errors from campaign persistence ([`CampaignMatrix::save_json`] /
/// [`CampaignMatrix::load_json`] and the [`CampaignPart`] equivalents).
///
/// Every failure mode is typed: callers (the `campaign` CLI in
/// particular) can distinguish a truncated file ([`Json`](Self::Json))
/// from a version skew ([`Version`](Self::Version)) from handing a part
/// to a matrix reader ([`Kind`](Self::Kind)) and say so.
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
    /// shard part handed to the matrix reader, or vice versa).
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
                 (campaign parts and matrices do not interchange; merge \
                 parts into a matrix first)"
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

/// Stable machine-readable token for a strategy (delegates to
/// [`Strategy::token`]; a stack's `strategy` column joins its distinct
/// members' tokens with `+`).
#[must_use]
pub fn strategy_token(s: Strategy) -> &'static str {
    s.token()
}

/// The [`Strategy`] for a [`strategy_token`] string.
#[must_use]
pub fn strategy_from_token(token: &str) -> Option<Strategy> {
    Strategy::from_token(token)
}

/// Stable machine-readable token for a verdict.
#[must_use]
pub fn verdict_token(v: Verdict) -> &'static str {
    match v {
        Verdict::Blocked => "blocked",
        Verdict::Leaked => "leaked",
        Verdict::GraphOnly => "graph_only",
    }
}

/// The [`Verdict`] for a [`verdict_token`] string.
#[must_use]
pub fn verdict_from_token(token: &str) -> Option<Verdict> {
    [Verdict::Blocked, Verdict::Leaked, Verdict::GraphOnly]
        .into_iter()
        .find(|&v| verdict_token(v) == token)
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", ch as u32);
            }
            ch => out.push(ch),
        }
    }
    out.push('"');
    out
}

pub(crate) fn push_json_list<'a>(out: &mut String, items: impl Iterator<Item = &'a str>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                Knob::Predictor,
                [PredictorFlavor::Shared, PredictorFlavor::FlushOnSwitch],
            )
            .threads(threads)
            .build()
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
        let (d, c) = (spec.defenses.len(), spec.configs.len());
        for (k, cell) in m.cells().iter().enumerate() {
            let attack = spec.attacks[k / (d * c)];
            let stack = &spec.defenses[(k / c) % d];
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
                "rob=16 pred=shared",
                "rob=16 pred=flush",
                "rob=64 pred=shared",
                "rob=64 pred=flush",
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
            .axis(Knob::Predictor, [KnobValue::Num(3)])
            .build();
    }

    #[test]
    #[should_panic(expected = "pins the predictor flags")]
    fn predictor_axis_rejects_flush_hardening_axis() {
        // A "④ flush predictors pred=shared" slice would be a lie: the
        // predictor axis pins the very flag the hardening sets.
        let _ = CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::Hardening, Hardening::figure8())
            .axis(Knob::Predictor, [PredictorFlavor::Shared]);
    }

    #[test]
    fn predictor_axis_pins_the_flavor_over_the_base() {
        // The axis overrides base predictor flags, so every slice is the
        // machine its name claims regardless of the base configuration.
        let hardened_base = UarchConfig::builder()
            .flush_predictors_on_switch(true)
            .rsb_stuffing(true)
            .build();
        let spec = CampaignSpec::builder(hardened_base)
            .axis(Knob::Predictor, [PredictorFlavor::Shared])
            .build();
        let cfg = &spec.configs[0].config;
        assert!(!cfg.flush_predictors_on_switch);
        assert!(!cfg.no_indirect_prediction);
        assert!(!cfg.rsb_stuffing);
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
        assert_ne!(
            cell_fingerprint("Spectre v1", "NDA", "prevent_use", digest),
            cell_fingerprint("Spectre v1", "NDA", "prevent_use", config_digest(&other))
        );
        assert_ne!(
            cell_fingerprint("Spectre v1", "NDA", "prevent_use", digest),
            baseline_fingerprint("Spectre v1", digest)
        );
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let spec = small_spec(2);
        let whole = CampaignMatrix::run(&spec).unwrap();
        for n in [1, 2, 5, 16, 100] {
            let shards = spec.shards(n);
            assert_eq!(shards.len(), n.max(1));
            assert_eq!(
                shards.iter().map(CampaignShard::len).sum::<usize>(),
                spec.total_tasks()
            );
            let parts: Vec<CampaignPart> = shards.iter().map(|s| s.run(None).unwrap()).collect();
            let merged = CampaignMatrix::merge(parts).unwrap();
            assert_eq!(merged.to_csv(), whole.to_csv());
            assert_eq!(merged.to_json(), whole.to_json());
        }
    }

    #[test]
    fn merge_rejects_bad_part_sets() {
        let spec = small_spec(1);
        let parts: Vec<CampaignPart> = spec
            .shards(3)
            .iter()
            .map(|s| s.run(None).unwrap())
            .collect();
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
        let mut foreign = tiny_grid(1).shards(3)[1].run(None).unwrap();
        foreign.index = 1;
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
        let mut foreign = sneaky_spec.shards(3)[1].run(None).unwrap();
        foreign.index = 1;
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
        let parts: Vec<CampaignPart> = spec
            .shards(3)
            .iter()
            .map(|s| {
                let part = s.run(None).unwrap();
                let reloaded = CampaignPart::from_json(&part.to_json()).unwrap();
                assert_eq!(reloaded.to_json(), part.to_json());
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
        let part = spec.shards(2)[0].run(None).unwrap();
        let doc = part.to_json();
        // Tampered shard slot: index out of the declared count.
        let bad = doc.replacen("\"index\": 0, \"of\": 2", "\"index\": 5, \"of\": 2", 1);
        assert!(matches!(
            CampaignPart::from_json(&bad),
            Err(CampaignIoError::Shape(_))
        ));
        // Tampered total: header disagrees with the axes.
        let bad = doc.replacen(
            &format!("\"total\": {}", spec.total_tasks()),
            "\"total\": 9999",
            1,
        );
        assert!(matches!(
            CampaignPart::from_json(&bad),
            Err(CampaignIoError::Shape(_))
        ));
        // A matrix document is not a part, and vice versa.
        let matrix = CampaignMatrix::run(&spec).unwrap();
        assert!(matches!(
            CampaignPart::from_json(&matrix.to_json()),
            Err(CampaignIoError::Kind {
                expected: "campaign-part",
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
        // The same holds for shard parts.
        let part = small_spec(0).shards(2)[0].run(None).unwrap();
        let v3 = part
            .to_json()
            .replacen("\"version\": 7", "\"version\": 3", 1);
        let loaded = CampaignPart::from_json(&v3).unwrap();
        assert_eq!(loaded.to_json(), part.to_json());
        // And a v3 matrix feeds incremental reuse without re-simulation.
        let v3 = m.to_json().replacen("\"version\": 7", "\"version\": 3", 1);
        let prev = CampaignMatrix::from_json(&v3).unwrap();
        let (_, report) =
            CampaignMatrix::run_incremental(&small_spec(0), Some(&prev), None).unwrap();
        assert_eq!(report.evaluated, 0);
    }

    #[test]
    fn version4_stack_matrices_still_load() {
        // Versions 5 and 7 only add the checkpoint document kind and the
        // degraded-outcome fields; fault-free matrix and part rows are
        // unchanged, so a version-4 header must keep loading (and
        // re-serialize at version 7).
        let m = CampaignMatrix::run(&small_spec(0)).unwrap();
        let v4 = m.to_json().replacen("\"version\": 7", "\"version\": 4", 1);
        let loaded = CampaignMatrix::from_json(&v4).unwrap();
        assert_eq!(loaded.to_json(), m.to_json());
        let part = small_spec(0).shards(2)[1].run(None).unwrap();
        let v4 = part
            .to_json()
            .replacen("\"version\": 7", "\"version\": 4", 1);
        let loaded = CampaignPart::from_json(&v4).unwrap();
        assert_eq!(loaded.to_json(), part.to_json());
    }

    #[test]
    fn checkpoint_documents_round_trip_but_do_not_interchange() {
        let part = small_spec(0).shards(3)[1].run(None).unwrap();
        let doc = part.to_checkpoint_json();
        assert!(doc.contains("\"kind\": \"campaign-checkpoint\""));
        let loaded = CampaignPart::from_checkpoint_json(&doc).unwrap();
        assert_eq!(loaded.to_json(), part.to_json());
        assert_eq!((loaded.start(), loaded.end()), (part.start(), part.end()));
        // A checkpoint is not a part and vice versa.
        assert!(matches!(
            CampaignPart::from_json(&doc),
            Err(CampaignIoError::Kind {
                expected: "campaign-part",
                ..
            })
        ));
        assert!(matches!(
            CampaignPart::from_checkpoint_json(&part.to_json()),
            Err(CampaignIoError::Kind {
                expected: "campaign-checkpoint",
                ..
            })
        ));
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
        let (first, initial) = CampaignMatrix::run_incremental(&spec, None, None).unwrap();
        assert_eq!(initial.evaluated, spec.total_tasks());
        assert_eq!(initial.reused, 0);
        let (again, report) = CampaignMatrix::run_incremental(&spec, Some(&first), None).unwrap();
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
        let (first, _) = CampaignMatrix::run_incremental(&grid(64), None, None).unwrap();
        let changed = grid(48);
        let (second, report) =
            CampaignMatrix::run_incremental(&changed, Some(&first), None).unwrap();
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
        // A loaded matrix feeds run_incremental exactly like a live one.
        let spec = small_spec(0);
        let (_, report) = CampaignMatrix::run_incremental(&spec, Some(&loaded), None).unwrap();
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
            "\"rob=16 pred=shared\", \"rob=16 pred=flush\"",
            "\"rob=16 pred=flush\", \"rob=16 pred=shared\"",
            1,
        );
        assert!(matches!(
            CampaignMatrix::from_json(&doc),
            Err(CampaignIoError::Shape(_))
        ));
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
        // Escaping: a quote in a config name must not break the document.
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn token_round_trips() {
        for s in Strategy::all() {
            assert_eq!(strategy_from_token(strategy_token(s)), Some(s));
        }
        for v in [Verdict::Blocked, Verdict::Leaked, Verdict::GraphOnly] {
            assert_eq!(verdict_from_token(verdict_token(v)), Some(v));
        }
        assert!(strategy_from_token("nope").is_none());
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
        assert_eq!(v2.evaluation.stack.members().len(), 4);
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
        let (_, report) =
            CampaignMatrix::run_incremental(&stack_spec(), Some(&loaded), None).unwrap();
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
        let (m, report) = CampaignMatrix::run_incremental(&spec, None, Some(&observer)).unwrap();
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
        CampaignMatrix::run_incremental(&spec, Some(&m), Some(&observer)).unwrap();
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
