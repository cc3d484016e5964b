//! The `campaign` command-line tool: campaigns as a **multi-process
//! artifact pipeline**.
//!
//! ```text
//! campaign run    --axis hardening=figure8 --shard 0/2 --out part0.json
//! campaign run    --axis hardening=figure8 --shard 1/2 --out part1.json
//! campaign merge  part0.json part1.json --out matrix.json
//! campaign render --figure8 matrix.json --csv fig8.csv --svg fig8.svg
//! campaign run    --axis hardening=figure8 --incremental --prev matrix.json --out matrix.json
//! campaign serve  --axis hardening=figure8 --workers 4 --checkpoint ckpt/ --out matrix.json
//! campaign query  matrix.json --queries batch.txt --simulate
//! campaign fuzz   --seed 42 --budget 512 --corpus corpus/ --registry-out found.json
//! campaign run    --synthesized found.json --axis hardening=figure8 --out matrix.json
//! ```
//!
//! Every subcommand is a thin wrapper over `specgraph::campaign` (and,
//! for `serve`/`query`, `specgraph::serve`): `run` evaluates a whole cube
//! (or one `--shard i/n` slice, written as a [`CampaignPart`] file),
//! `merge` validates and concatenates part files into a matrix
//! (spec-fingerprint, shard-index and coverage mismatches are hard
//! errors), and `render --figure8` regenerates the Figure-8 hardening
//! heatmaps from a *saved* matrix with zero re-simulation. `serve` runs
//! the cube on the resumable checkpointing scheduler — kill it mid-run
//! and the next invocation resumes from the `--checkpoint` directory
//! without re-simulating a single completed cell. `query` answers point
//! lookups (`ATTACK | STACK | KNOBS` lines) from saved artifacts through
//! the memoized [`VerdictStore`], optionally simulating misses. `fuzz`
//! runs the §V-A discovery loop (`specgraph::discovery::fuzz`): a seeded
//! generator over the design-space dimensions, the differential
//! Theorem-1-vs-simulation oracle, and the shrinking minimizer; novel
//! leaking shapes land in a [`SynthesizedRegistry`] file that
//! `--synthesized` feeds back into any campaign as extra attack rows.
//!
//! Argument parsing is hand-rolled (the workspace builds offline, no
//! `clap`), and lives here — in the library — so the integration tests
//! drive the exact code path the binary runs.

use crate::heatmap::Figure8View;
use specgraph::attacks::{self, Attack, AttackError};
use specgraph::campaign::{
    CampaignIoError, CampaignMatrix, CampaignPart, CampaignSpec, Hardening, IncrementalReport,
    Knob, KnobValue, MatrixDiff, MergeError, PredictorFlavor, ProgressObserver, TaskEvent,
};
use specgraph::defenses::{self, presets, DefenseStack};
use specgraph::discovery::fuzz::{
    self, Corpus, CorpusError, FuzzConfig, FuzzError, SynthesizedRegistry,
};
use specgraph::fault::{self, PanickingAttack};
use specgraph::serve::{
    AnswerSource, ChunkEvent, ChunkObserver, Scheduler, ServeError, VerdictStore,
};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use uarch::UarchConfig;

/// The usage text `campaign --help` (and every usage error) prints.
pub const USAGE: &str = "\
campaign — run, shard, merge, render, diff, serve, query, fuzz and
           fault-test attack×defense-stack×config campaigns

USAGE:
  campaign run    [SPEC] [--shard I/N] [--out FILE] [--csv FILE] [--progress]
                  [--incremental --prev MATRIX.json]
  campaign merge  PART.json... --out FILE [--csv FILE]
  campaign render --figure8 MATRIX.json [--csv FILE] [--svg FILE]
  campaign diff   OLD.json NEW.json
  campaign serve  [SPEC] [--workers N] [--chunk T] [--checkpoint DIR]
                  [--out FILE] [--csv FILE] [--progress]
  campaign query  ARTIFACT.json... [--queries FILE] [--simulate]
  campaign fuzz   [--seed N] [--budget N] [--corpus DIR] [--threads N]
                  [--checkpoint-every N] [--minimize|--no-minimize]
                  [--registry-out FILE]
  campaign fault  sweep|sweep-fuzz|quarantine --dir DIR [--seed N]
                  [--retries N]

SPEC (must be identical for every shard of one campaign):
  --attacks NAMES    comma-separated attack names (default: full registry)
  --defenses STACKS  comma-separated defense stacks, or 'none'
                     (default: full registry, one singleton stack each).
                     Each stack joins catalog defenses with '+', by short
                     token or full name: kpti+retpoline+ibpb. Preset
                     bundles: linux-default, microcode-only, academic-stt,
                     academic-invisible.
  --synthesized F    add the attacks of a fuzz-grown registry file
                     (written by `campaign fuzz --registry-out`) to the
                     attack axis, after the named/registry rows
  --axis KNOB=V,V..  add a config axis (repeatable; axes multiply):
                     numeric: rob fetch issue sets ways lfb stbuf rsb
                              hitlat misslat permlat
                     pred=shared|flush|no-indirect|stuffed-rsb|all
                     hardening=baseline|no-spec-loads|eager-permcheck|nda|stt|
                               delay-on-miss|invisispec|cleanup-spec|
                               flush-predictors|figure8|all
  --threads N        worker threads (default: all cores)
  --retries N        retry a cell whose simulation panics N times (with
                     backoff) before quarantining it as a typed degraded
                     row instead of aborting the campaign (default: 0)
  --max-cell-cycles N  per-cell cycle budget: a simulation exceeding it
                     degrades to a typed timed-out row (graph verdicts
                     kept) instead of failing the run
  --progress         print per-slice completed/total + ETA lines to stderr

  `campaign run --shard I/N` writes shard I of N as a part file; run all
  N shards (any machines, any order), then `campaign merge` the parts —
  the result is bit-identical to a single-process run. With
  `--incremental --prev`, only cells whose fingerprint is absent from
  the previous matrix are re-simulated. `campaign diff` compares two
  saved matrices: verdict flips, baseline cycle deltas, added/removed
  cells.

  `campaign serve` runs the cube on a resumable scheduler: the cube
  splits into --chunk T-task chunks that --workers threads claim from
  one shared cursor, so every chunk runs exactly once. With
  --checkpoint DIR every finished chunk is written to disk, and a
  killed run's next invocation resumes from DIR, re-simulating zero
  completed cells — the final matrix is bit-identical to `campaign run`
  either way.

  `campaign query` ingests saved matrices/parts/checkpoints into a
  memoized verdict store and answers one query per line from --queries
  FILE (or stdin):  ATTACK | STACK | KNOB=V KNOB=V…
  where STACK is a stack expression, preset, or 'none' (undefended
  baseline), and the knob tokens are the --axis vocabulary, one value
  each (empty = default config). Misses report 'miss' unless --simulate
  is given, which computes the missing cell on a warm machine exactly as
  the campaign engine would (concurrent identical misses coalesce onto
  one flight).

  `campaign fuzz` grows the attack catalog automatically: a seeded
  generator walks the paper's (secret source × delay × channel) design
  space with biased mutations, every candidate is classified by BOTH
  Theorem 1 on the lifted graph and a batched simulation, divergences
  are recorded as first-class findings, and novel leaking shapes —
  deduplicated by graph fingerprint, shrunk to 1-minimal — are saved.
  The loop is deterministic for a given --seed (independent of
  --threads); with --corpus DIR the corpus persists and a re-run with a
  larger --budget resumes where the last one stopped. --registry-out
  writes the findings as a registry file for `run --synthesized`.

  `campaign fault` self-tests the pipeline's failure model inside --dir
  (a scratch workspace it wipes). `sweep` runs a seeded crash sweep over
  a small checkpointed serve grid: every write index k in the run's
  write sequence gets one pass with an injected fault (crash, torn
  write, ENOSPC, failed rename — chosen by --seed) at write #k, and the
  resumed output must be bit-identical to a fault-free run with zero
  completed cells re-simulated. `sweep-fuzz` proves the same for the
  fuzz corpus checkpoint cadence. `quarantine` injects a panicking cell
  and shows --retries exhausting into a typed quarantined row, then the
  incremental re-run healing it.
";

/// What a successfully executed subcommand did (the binary prints this;
/// tests assert on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `run` over the full cube (fresh or incremental).
    Ran {
        /// Tasks actually simulated.
        evaluated: usize,
        /// Tasks reused from `--prev` by fingerprint.
        reused: usize,
    },
    /// `run --shard i/n`: one part evaluated.
    RanShard {
        /// Shard position.
        index: usize,
        /// Shard count.
        of: usize,
        /// Tasks this shard evaluated.
        tasks: usize,
    },
    /// `merge`: parts combined into a matrix.
    Merged {
        /// Number of part files merged.
        parts: usize,
        /// Total tasks in the merged matrix.
        tasks: usize,
    },
    /// `render`: heatmaps regenerated from a saved matrix.
    Rendered {
        /// Heatmap rows (defense stacks + the undefended row).
        rows: usize,
        /// Config-slice columns.
        configs: usize,
    },
    /// `diff`: two saved matrices compared.
    Diffed {
        /// Cells whose verdict changed.
        flips: usize,
        /// Baselines whose leak verdict changed.
        baseline_flips: usize,
        /// Baselines whose cycle count changed.
        cycle_deltas: usize,
        /// Cell/baseline keys only in the newer matrix.
        added: usize,
        /// Cell/baseline keys only in the older matrix.
        removed: usize,
        /// Whether the matrices are identical.
        identical: bool,
    },
    /// `serve`: the cube ran on the resumable checkpointing scheduler.
    Served {
        /// Chunks the cube was decomposed into.
        chunks: usize,
        /// Chunks restored from checkpoint files (zero re-simulation).
        resumed: usize,
        /// Chunks simulated by this invocation's workers.
        executed: usize,
    },
    /// `query`: a batch of point queries was answered.
    Queried {
        /// Queries answered (hits + simulations + coalesced).
        answered: usize,
        /// Answers served from the memoized index.
        hits: usize,
        /// Answers computed by a miss-path simulation (`--simulate`).
        simulated: usize,
        /// Queries that missed without `--simulate`.
        misses: usize,
    },
    /// `fuzz`: the discovery loop classified a corpus of synthesized
    /// scenarios.
    Fuzzed {
        /// Candidates classified in total (including resumed ones).
        classified: u64,
        /// Candidates classified by this invocation.
        newly_classified: u64,
        /// Oracle divergences recorded (all causally explained).
        divergences: usize,
        /// Known catalog attacks rediscovered from scratch.
        rediscovered: usize,
        /// Novel 1-minimal leaking shapes in the corpus.
        findings: usize,
    },
    /// `fault`: a fault-injection self-test ran to completion.
    FaultTested {
        /// Which mode ran: `sweep`, `sweep-fuzz` or `quarantine`.
        mode: &'static str,
        /// Sweep cases proven (write points) or cells quarantined.
        cases: usize,
    },
    /// `--help` was requested; usage was printed.
    Help,
}

/// Why a `campaign` invocation failed.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the message says what to fix.
    Usage(String),
    /// A simulation failed.
    Attack(AttackError),
    /// Reading or writing a campaign artifact failed.
    Artifact {
        /// The file involved.
        path: PathBuf,
        /// What went wrong.
        source: CampaignIoError,
    },
    /// Part files do not assemble into one campaign.
    Merge(MergeError),
    /// The serving layer failed (scheduler or verdict store).
    Serve(ServeError),
    /// The fuzzing loop failed (oracle, corpus I/O, or resume mismatch).
    Fuzz(FuzzError),
    /// A synthesized-registry file could not be read or re-assembled.
    Registry {
        /// The file involved.
        path: PathBuf,
        /// What went wrong.
        source: CorpusError,
    },
    /// Plain file I/O (e.g. writing a CSV) failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// What went wrong.
        source: std::io::Error,
    },
    /// A `campaign fault` self-test found the pipeline not crash-safe.
    Fault(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Attack(e) => write!(f, "simulation failed: {e}"),
            CliError::Artifact { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CliError::Merge(e) => write!(f, "cannot merge parts: {e}"),
            CliError::Serve(e) => write!(f, "serving failed: {e}"),
            CliError::Fuzz(e) => write!(f, "fuzzing failed: {e}"),
            CliError::Registry { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CliError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CliError::Fault(msg) => write!(f, "fault self-test failed: {msg}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Attack(e) => Some(e),
            CliError::Artifact { source, .. } => Some(source),
            CliError::Merge(e) => Some(e),
            CliError::Serve(e) => Some(e),
            CliError::Fuzz(e) => Some(e),
            CliError::Registry { source, .. } => Some(source),
            CliError::Io { source, .. } => Some(source),
            CliError::Usage(_) | CliError::Fault(_) => None,
        }
    }
}

impl From<AttackError> for CliError {
    fn from(e: AttackError) -> Self {
        CliError::Attack(e)
    }
}

impl From<MergeError> for CliError {
    fn from(e: MergeError) -> Self {
        CliError::Merge(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<FuzzError> for CliError {
    fn from(e: FuzzError) -> Self {
        CliError::Fuzz(e)
    }
}

/// Parses and executes one `campaign` invocation (everything after the
/// program name). This is the exact entry point the binary calls.
///
/// # Errors
///
/// [`CliError`] — usage problems, simulation failures, artifact I/O, or
/// merge validation.
pub fn main_with(args: &[String]) -> Result<Outcome, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("--help" | "-h" | "help") => {
            write_stdout(USAGE)?;
            write_stdout("\n")?;
            Ok(Outcome::Help)
        }
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("fault") => cmd_fault(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (expected run, merge, render, diff, \
             serve, query, fuzz or fault)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Spec flags
// ---------------------------------------------------------------------------

/// The spec-defining flags, collected before expansion so every shard
/// process can rebuild the identical [`CampaignSpec`] (enforced at merge
/// time by the spec fingerprint).
#[derive(Debug, Default)]
struct SpecArgs {
    attacks: Option<Vec<String>>,
    synthesized: Option<PathBuf>,
    defenses: Option<Vec<String>>,
    axes: Vec<(Knob, Vec<KnobValue>)>,
    threads: usize,
    retries: Option<u32>,
    max_cell_cycles: Option<u64>,
}

impl SpecArgs {
    /// Consumes a spec flag if `flag` is one; returns whether it was.
    fn take(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut() -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        // A repeated flag silently overriding (or surprising a user who
        // expected accumulation) would produce a shard of a different
        // spec than intended — reject repeats outright, like a repeated
        // axis knob.
        let once = |taken: bool| -> Result<(), CliError> {
            if taken {
                Err(CliError::Usage(format!("flag '{flag}' given twice")))
            } else {
                Ok(())
            }
        };
        match flag {
            "--attacks" => {
                once(self.attacks.is_some())?;
                self.attacks = Some(split_list(&value()?));
            }
            "--synthesized" => {
                once(self.synthesized.is_some())?;
                self.synthesized = Some(PathBuf::from(value()?));
            }
            "--defenses" => {
                once(self.defenses.is_some())?;
                let v = value()?;
                self.defenses = Some(if v == "none" {
                    Vec::new()
                } else {
                    split_list(&v)
                });
            }
            "--axis" => {
                let v = value()?;
                let (knob, values) = parse_axis(&v)?;
                if self.axes.iter().any(|(k, _)| *k == knob) {
                    return Err(CliError::Usage(format!(
                        "axis '{}' given twice",
                        knob_token(knob)
                    )));
                }
                self.axes.push((knob, values));
            }
            "--threads" => {
                once(self.threads != 0)?;
                let v = value()?;
                self.threads = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--threads needs a number, got '{v}'")))?;
            }
            "--retries" => {
                once(self.retries.is_some())?;
                let v = value()?;
                self.retries = Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("--retries needs a number, got '{v}'"))
                })?);
            }
            "--max-cell-cycles" => {
                once(self.max_cell_cycles.is_some())?;
                let v = value()?;
                self.max_cell_cycles =
                    Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::Usage(format!(
                            "--max-cell-cycles needs a positive cycle count, got '{v}'"
                        ))
                    })?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Expands the flags into a spec, with every builder panic turned
    /// into a usage error first.
    fn build(self) -> Result<CampaignSpec, CliError> {
        let mut base = UarchConfig::default();
        if let Some(budget) = self.max_cell_cycles {
            base.max_cycles = budget;
        }
        let mut builder = CampaignSpec::builder(base);
        if self.attacks.is_some() || self.synthesized.is_some() {
            let mut list: Vec<&'static dyn Attack> = match &self.attacks {
                // `--synthesized` alone extends the default full registry.
                None => attacks::registry().to_vec(),
                Some(names) => Vec::with_capacity(names.len()),
            };
            for name in self.attacks.as_deref().unwrap_or_default() {
                list.push(attacks::find(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown attack '{name}'; the registry has: {}",
                        attacks::registry()
                            .iter()
                            .map(|a| a.info().name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?);
            }
            if let Some(path) = &self.synthesized {
                let text = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                    path: path.clone(),
                    source,
                })?;
                let registry =
                    SynthesizedRegistry::from_json(&text).map_err(|source| CliError::Registry {
                        path: path.clone(),
                        source,
                    })?;
                list.extend(registry.attacks().map_err(|source| CliError::Registry {
                    path: path.clone(),
                    source,
                })?);
            }
            builder = builder.attacks(list);
        }
        if let Some(exprs) = &self.defenses {
            let mut list: Vec<DefenseStack> = Vec::new();
            for expr in exprs {
                list.push(resolve_stack(expr)?);
            }
            builder = builder.defense_stacks(list);
        }
        let pins_predictor = self.axes.iter().any(|(k, _)| *k == Knob::Predictor);
        let flush_hardening = self
            .axes
            .iter()
            .any(|(_, vs)| vs.contains(&KnobValue::Hardening(Hardening::FlushPredictors)));
        if pins_predictor && flush_hardening {
            return Err(CliError::Usage(
                "--axis pred=… pins the predictor flags and cannot combine with \
                 an 'flush-predictors' hardening value (pred=flush covers that \
                 slice)"
                    .to_owned(),
            ));
        }
        for (knob, values) in self.axes {
            builder = builder.axis(knob, values);
        }
        let mut spec = builder.threads(self.threads).build();
        if let Some(retries) = self.retries {
            spec.resilience.retries = retries;
        }
        // An explicit budget means the user wants runaway cells degraded,
        // not the whole campaign failed.
        spec.resilience.degrade_timeouts = self.max_cell_cycles.is_some();
        Ok(spec)
    }
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(|p| p.trim().to_owned())
        .filter(|p| !p.is_empty())
        .collect()
}

/// Resolves one `--defenses` item: a preset token (`linux-default`) or a
/// `+`-joined stack expression over catalog tokens/names
/// (`kpti+retpoline`, `NDA`).
fn resolve_stack(expr: &str) -> Result<DefenseStack, CliError> {
    if let Some(preset) = presets::find(expr) {
        return Ok(preset);
    }
    DefenseStack::parse(expr).map_err(|e| {
        CliError::Usage(format!(
            "bad defense stack '{expr}': {e}\n  catalog tokens: {}\n  presets: {}",
            defenses::registry()
                .iter()
                .map(|d| d.token)
                .collect::<Vec<_>>()
                .join(", "),
            presets::all()
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

fn knob_token(knob: Knob) -> &'static str {
    match knob {
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
        Knob::Predictor => "pred",
        Knob::Hardening => "hardening",
        _ => "?",
    }
}

fn parse_axis(arg: &str) -> Result<(Knob, Vec<KnobValue>), CliError> {
    let (token, list) = arg
        .split_once('=')
        .ok_or_else(|| CliError::Usage(format!("--axis needs KNOB=V1,V2,…, got '{arg}'")))?;
    let numeric = |knob: Knob| -> Result<(Knob, Vec<KnobValue>), CliError> {
        let values = split_list(list)
            .iter()
            .map(|v| {
                v.parse::<u64>().map(KnobValue::Num).map_err(|_| {
                    CliError::Usage(format!("axis '{token}' needs numbers, got '{v}'"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((knob, values))
    };
    let (knob, values) = match token {
        "rob" => numeric(Knob::RobDepth)?,
        "fetch" => numeric(Knob::FetchWidth)?,
        "issue" => numeric(Knob::IssueWidth)?,
        "sets" => numeric(Knob::CacheSets)?,
        "ways" => numeric(Knob::CacheWays)?,
        "lfb" => numeric(Knob::LfbEntries)?,
        "stbuf" => numeric(Knob::StoreBufferEntries)?,
        "rsb" => numeric(Knob::RsbDepth)?,
        "hitlat" => numeric(Knob::CacheHitLatency)?,
        "misslat" => numeric(Knob::CacheMissLatency)?,
        "permlat" => numeric(Knob::PermissionCheckLatency)?,
        "pred" => {
            let values = if list == "all" {
                PredictorFlavor::all().map(KnobValue::Predictor).to_vec()
            } else {
                split_list(list)
                    .iter()
                    .map(|v| {
                        PredictorFlavor::from_token(v)
                            .map(KnobValue::Predictor)
                            .ok_or_else(|| {
                                CliError::Usage(format!(
                                    "unknown predictor flavor '{v}' (shared, flush, \
                                     no-indirect, stuffed-rsb, all)"
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            (Knob::Predictor, values)
        }
        "hardening" => {
            let values = match list {
                "figure8" => Hardening::figure8().map(KnobValue::Hardening).to_vec(),
                "all" => Hardening::all().map(KnobValue::Hardening).to_vec(),
                _ => split_list(list)
                    .iter()
                    .map(|v| {
                        Hardening::from_token(v)
                            .map(KnobValue::Hardening)
                            .ok_or_else(|| {
                                CliError::Usage(format!(
                                    "unknown hardening '{v}' (try one of: {}, figure8, all)",
                                    Hardening::all().map(Hardening::token).join(", ")
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            (Knob::Hardening, values)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown axis knob '{other}' (see campaign --help)"
            )))
        }
    };
    if values.is_empty() {
        return Err(CliError::Usage(format!("axis '{token}' has no values")));
    }
    for (i, v) in values.iter().enumerate() {
        if values[..i].contains(v) {
            return Err(CliError::Usage(format!(
                "axis '{token}' lists a value twice"
            )));
        }
    }
    Ok((knob, values))
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<Outcome, CliError> {
    let mut spec_args = SpecArgs::default();
    let mut shard: Option<(usize, usize)> = None;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut incremental = false;
    let mut progress = false;
    let mut prev: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("flag '{flag}' needs a value")))
        };
        let once = |taken: bool| -> Result<(), CliError> {
            if taken {
                Err(CliError::Usage(format!("flag '{flag}' given twice")))
            } else {
                Ok(())
            }
        };
        match flag {
            "--shard" => {
                once(shard.is_some())?;
                let v = value()?;
                shard = Some(parse_shard(&v)?);
            }
            "--out" => {
                once(out.is_some())?;
                out = Some(PathBuf::from(value()?));
            }
            "--csv" => {
                once(csv.is_some())?;
                csv = Some(PathBuf::from(value()?));
            }
            "--incremental" => incremental = true,
            "--progress" => progress = true,
            "--prev" => {
                once(prev.is_some())?;
                prev = Some(PathBuf::from(value()?));
            }
            other => {
                if !spec_args.take(other, &mut value)? {
                    return Err(CliError::Usage(format!(
                        "unknown flag '{other}' for 'campaign run'"
                    )));
                }
            }
        }
        i += 1;
    }
    if incremental != prev.is_some() {
        return Err(CliError::Usage(
            "--incremental and --prev MATRIX.json go together".to_owned(),
        ));
    }
    let spec = spec_args.build()?;
    if let Some((index, of)) = shard {
        if incremental {
            return Err(CliError::Usage(
                "--shard and --incremental do not combine; merge the parts, \
                 then re-run incrementally against the merged matrix"
                    .to_owned(),
            ));
        }
        if csv.is_some() {
            return Err(CliError::Usage(
                "--csv applies to full matrices; merge the parts first".to_owned(),
            ));
        }
        // Within one shard the per-slice quota is range-dependent: report
        // milestone progress only.
        let printer = progress.then(|| ProgressPrinter::new(&spec, None));
        let observer = printer.as_ref().map(ProgressPrinter::observer);
        let part = spec
            .shards(of)
            .swap_remove(index)
            .run(observer.as_ref().map(|f| f as ProgressObserver))?;
        emit(out.as_deref(), &part.to_json())?;
        eprintln!(
            "campaign: shard {index}/{of} evaluated {} of {} task(s) \
             (spec fingerprint {:#018x})",
            part.len(),
            spec.total_tasks(),
            part.spec_fingerprint(),
        );
        Ok(Outcome::RanShard {
            index,
            of,
            tasks: part.len(),
        })
    } else {
        let previous = prev.as_deref().map(load_matrix).transpose()?;
        // A fresh full run evaluates every slice completely, so the
        // per-slice quota is known; an incremental run's stale counts are
        // fingerprint-dependent, so fall back to milestone lines.
        let per_slice = (previous.is_none())
            .then(|| spec.attacks.len() + spec.attacks.len() * spec.defenses.len());
        let printer = progress.then(|| ProgressPrinter::new(&spec, per_slice));
        let observer = printer.as_ref().map(ProgressPrinter::observer);
        let (matrix, report) = CampaignMatrix::run_incremental(
            &spec,
            previous.as_ref(),
            observer.as_ref().map(|f| f as ProgressObserver),
        )?;
        emit(out.as_deref(), &matrix.to_json())?;
        if let Some(path) = &csv {
            write_file(path, &matrix.to_csv())?;
        }
        describe_report(report);
        describe_degraded(&matrix);
        Ok(Outcome::Ran {
            evaluated: report.evaluated,
            reused: report.reused,
        })
    }
}

fn cmd_diff(args: &[String]) -> Result<Outcome, CliError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in args {
        if arg.starts_with("--") {
            return Err(CliError::Usage(format!(
                "unknown flag '{arg}' for 'campaign diff'"
            )));
        }
        paths.push(PathBuf::from(arg));
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(CliError::Usage(
            "campaign diff needs exactly two files: OLD.json NEW.json".to_owned(),
        ));
    };
    let old = load_matrix(old_path)?;
    let new = load_matrix(new_path)?;
    let diff = old.diff(&new);
    write_stdout(&diff.to_text())?;
    summarize_diff(&diff, old_path, new_path);
    Ok(Outcome::Diffed {
        flips: diff.flips.len(),
        baseline_flips: diff.baseline_flips.len(),
        cycle_deltas: diff.cycle_deltas.len(),
        added: diff.added.len(),
        removed: diff.removed.len(),
        identical: diff.is_empty(),
    })
}

fn summarize_diff(diff: &MatrixDiff, old_path: &Path, new_path: &Path) {
    if diff.is_empty() {
        eprintln!(
            "campaign: {} and {} agree on every cell",
            old_path.display(),
            new_path.display()
        );
    } else {
        eprintln!(
            "campaign: {} change(s) between {} and {}",
            diff.flips.len()
                + diff.baseline_flips.len()
                + diff.cycle_deltas.len()
                + diff.added.len()
                + diff.removed.len(),
            old_path.display(),
            new_path.display()
        );
    }
}

/// Stderr progress for `campaign run --progress`: one line per completed
/// config slice when the per-slice quota is known (fresh full runs), and
/// ~10 milestone lines otherwise (shards, incremental runs), each with an
/// elapsed-rate ETA.
struct ProgressPrinter {
    start: std::time::Instant,
    configs: Vec<String>,
    per_slice: Option<usize>,
    slice_done: Mutex<Vec<usize>>,
}

impl ProgressPrinter {
    fn new(spec: &CampaignSpec, per_slice: Option<usize>) -> Self {
        ProgressPrinter {
            start: std::time::Instant::now(),
            configs: spec.configs.iter().map(|nc| nc.name.clone()).collect(),
            per_slice,
            slice_done: Mutex::new(vec![0; spec.configs.len()]),
        }
    }

    /// The observer closure to hand to the campaign engine.
    fn observer(&self) -> impl Fn(TaskEvent) + Sync + '_ {
        move |event| {
            if let Some(line) = self.line_for(event) {
                eprintln!("{line}");
            }
        }
    }

    /// The progress line for one completed task, if it is worth printing.
    fn line_for(&self, event: TaskEvent) -> Option<String> {
        let slice_done = {
            let mut done = self.slice_done.lock().expect("progress lock");
            done[event.config] += 1;
            done[event.config]
        };
        let worth_printing = match self.per_slice {
            Some(quota) => slice_done == quota,
            None => {
                let step = (event.total / 10).max(1);
                event.completed % step == 0 || event.completed == event.total
            }
        };
        if !worth_printing {
            return None;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = if event.completed == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)] // task counts << 2^52
            {
                elapsed * (event.total - event.completed) as f64 / event.completed as f64
            }
        };
        Some(match self.per_slice {
            Some(quota) => format!(
                "campaign: slice '{}' {slice_done}/{quota} task(s) done — \
                 {}/{} total, ETA {eta:.1}s",
                self.configs[event.config], event.completed, event.total
            ),
            None => format!(
                "campaign: {}/{} task(s) done (last slice '{}'), ETA {eta:.1}s",
                event.completed, event.total, self.configs[event.config]
            ),
        })
    }
}

fn cmd_merge(args: &[String]) -> Result<Outcome, CliError> {
    let mut part_paths: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::Usage("flag '--out' needs a value".to_owned())
                })?));
            }
            "--csv" => {
                i += 1;
                csv = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::Usage("flag '--csv' needs a value".to_owned())
                })?));
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{flag}' for 'campaign merge'"
                )))
            }
            path => part_paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if part_paths.is_empty() {
        return Err(CliError::Usage(
            "campaign merge needs at least one PART.json".to_owned(),
        ));
    }
    let parts = part_paths
        .iter()
        .map(|p| {
            CampaignPart::load_json(p).map_err(|source| CliError::Artifact {
                path: p.clone(),
                source,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let n = parts.len();
    let matrix = CampaignMatrix::merge(parts)?;
    let (a, d, c) = matrix.shape();
    emit(out.as_deref(), &matrix.to_json())?;
    if let Some(path) = &csv {
        write_file(path, &matrix.to_csv())?;
    }
    let tasks = a * c + a * d * c;
    eprintln!("campaign: merged {n} part(s) into a {a}×{d}×{c} matrix ({tasks} task(s))");
    Ok(Outcome::Merged { parts: n, tasks })
}

fn cmd_render(args: &[String]) -> Result<Outcome, CliError> {
    let mut figure8 = false;
    let mut matrix_path: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut svg: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--figure8" => figure8 = true,
            "--csv" => {
                i += 1;
                csv = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::Usage("flag '--csv' needs a value".to_owned())
                })?));
            }
            "--svg" => {
                i += 1;
                svg = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::Usage("flag '--svg' needs a value".to_owned())
                })?));
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{flag}' for 'campaign render'"
                )))
            }
            path if matrix_path.is_none() => matrix_path = Some(PathBuf::from(path)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected extra argument '{extra}'"
                )))
            }
        }
        i += 1;
    }
    if !figure8 {
        return Err(CliError::Usage(
            "campaign render needs a mode; only --figure8 exists today".to_owned(),
        ));
    }
    let path = matrix_path.ok_or_else(|| {
        CliError::Usage("campaign render needs a MATRIX.json to render".to_owned())
    })?;
    let matrix = load_matrix(&path)?;
    let view = Figure8View::from_matrix(&matrix);
    write_stdout(&view.to_ascii())?;
    if let Some(p) = &csv {
        write_file(p, &view.to_csv())?;
    }
    if let Some(p) = &svg {
        write_file(p, &view.to_svg())?;
    }
    eprintln!(
        "campaign: rendered {} row(s) × {} config(s) from the saved matrix — \
         0 cell(s) re-simulated",
        view.rows.len(),
        view.configs.len()
    );
    Ok(Outcome::Rendered {
        rows: view.rows.len(),
        configs: view.configs.len(),
    })
}

fn cmd_serve(args: &[String]) -> Result<Outcome, CliError> {
    let mut spec_args = SpecArgs::default();
    let mut workers = 0usize;
    let mut chunk: Option<usize> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut progress = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("flag '{flag}' needs a value")))
        };
        let once = |taken: bool| -> Result<(), CliError> {
            if taken {
                Err(CliError::Usage(format!("flag '{flag}' given twice")))
            } else {
                Ok(())
            }
        };
        match flag {
            "--workers" => {
                once(workers != 0)?;
                let v = value()?;
                workers = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!("--workers needs a positive number, got '{v}'"))
                })?;
            }
            "--chunk" => {
                once(chunk.is_some())?;
                let v = value()?;
                chunk = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!("--chunk needs a positive task count, got '{v}'"))
                })?);
            }
            "--checkpoint" => {
                once(checkpoint.is_some())?;
                checkpoint = Some(PathBuf::from(value()?));
            }
            "--out" => {
                once(out.is_some())?;
                out = Some(PathBuf::from(value()?));
            }
            "--csv" => {
                once(csv.is_some())?;
                csv = Some(PathBuf::from(value()?));
            }
            "--progress" => progress = true,
            other => {
                if !spec_args.take(other, &mut value)? {
                    return Err(CliError::Usage(format!(
                        "unknown flag '{other}' for 'campaign serve'"
                    )));
                }
            }
        }
        i += 1;
    }
    let spec = spec_args.build()?;
    let mut scheduler = Scheduler::new(&spec);
    if workers != 0 {
        scheduler = scheduler.workers(workers);
    }
    if let Some(tasks) = chunk {
        scheduler = scheduler.chunk_tasks(tasks);
    }
    if let Some(dir) = &checkpoint {
        scheduler = scheduler.checkpoint(dir);
    }
    let observer = |event: ChunkEvent| {
        eprintln!(
            "campaign: chunk {} done ({}/{} chunk(s))",
            event.index, event.completed, event.of
        );
    };
    let (matrix, report) =
        scheduler.run_observed(None, progress.then_some(&observer as ChunkObserver))?;
    emit(out.as_deref(), &matrix.to_json())?;
    if let Some(path) = &csv {
        write_file(path, &matrix.to_csv())?;
    }
    for repair in &report.repaired {
        eprintln!(
            "campaign: checkpoint {} was unusable ({}) — re-ran chunk {}",
            repair.path.display(),
            repair.reason,
            repair.index,
        );
    }
    eprintln!(
        "campaign: served {} task(s) in {} chunk(s) — resumed {} chunk(s) \
         ({} task(s), 0 re-simulated), executed {}",
        spec.total_tasks(),
        report.chunks,
        report.resumed,
        report.resumed_tasks,
        report.executed,
    );
    describe_degraded(&matrix);
    Ok(Outcome::Served {
        chunks: report.chunks,
        resumed: report.resumed,
        executed: report.executed,
    })
}

fn cmd_query(args: &[String]) -> Result<Outcome, CliError> {
    let mut artifacts: Vec<PathBuf> = Vec::new();
    let mut queries: Option<PathBuf> = None;
    let mut simulate = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--queries" => {
                i += 1;
                queries = Some(PathBuf::from(args.get(i).ok_or_else(|| {
                    CliError::Usage("flag '--queries' needs a value".to_owned())
                })?));
            }
            "--simulate" => simulate = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{flag}' for 'campaign query'"
                )))
            }
            path => artifacts.push(PathBuf::from(path)),
        }
        i += 1;
    }
    let store = VerdictStore::new();
    for path in &artifacts {
        ingest_artifact(&store, path)?;
    }
    let text = match &queries {
        Some(path) if path.as_os_str() != "-" => {
            std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?
        }
        _ => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|source| CliError::Io {
                    path: PathBuf::from("<stdin>"),
                    source,
                })?;
            buf
        }
    };
    let mut answered = 0;
    let mut hits = 0;
    let mut simulated = 0;
    let mut misses = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let q = parse_query_line(line)
            .map_err(|msg| CliError::Usage(format!("query line {}: {msg}", lineno + 1)))?;
        let answer = if simulate {
            Some(store.query(q.attack, q.stack.as_ref(), &q.config)?)
        } else {
            store.lookup(q.attack.info().name, q.stack.as_ref(), &q.config)
        };
        match answer {
            Some(a) => {
                answered += 1;
                match a.source {
                    AnswerSource::Hit => hits += 1,
                    AnswerSource::Simulated | AnswerSource::Coalesced => simulated += 1,
                }
                let graph = a.graph.map_or("-".to_owned(), |g| g.to_string());
                let cycles = a.cycles.map_or("-".to_owned(), |c| c.to_string());
                write_stdout(&format!(
                    "{} {} graph={graph} cycles={cycles}\t{line}\n",
                    source_token(a.source),
                    a.verdict,
                ))?;
            }
            None => {
                misses += 1;
                write_stdout(&format!("miss - graph=- cycles=-\t{line}\n"))?;
            }
        }
    }
    eprintln!(
        "campaign: {answered} answer(s) from {} stored row(s) — {hits} hit(s), \
         {simulated} simulated, {misses} miss(es)",
        store.len(),
    );
    Ok(Outcome::Queried {
        answered,
        hits,
        simulated,
        misses,
    })
}

fn source_token(source: AnswerSource) -> &'static str {
    match source {
        AnswerSource::Hit => "hit",
        AnswerSource::Simulated => "simulated",
        AnswerSource::Coalesced => "coalesced",
    }
}

/// One parsed `ATTACK | STACK | KNOBS` query line.
struct Query {
    attack: &'static dyn Attack,
    stack: Option<DefenseStack>,
    config: UarchConfig,
}

/// Parses one query line: `ATTACK | STACK | KNOB=V KNOB=V…`. The third
/// field may be empty or absent (default config); `STACK` may be `none`
/// for the undefended baseline.
fn parse_query_line(line: &str) -> Result<Query, String> {
    let mut fields = line.splitn(3, '|').map(str::trim);
    let attack_name = fields
        .next()
        .filter(|s| !s.is_empty())
        .ok_or("empty attack field (want ATTACK | STACK | KNOBS)")?;
    let stack_expr = fields
        .next()
        .ok_or("missing stack field (want ATTACK | STACK | KNOBS; STACK may be 'none')")?;
    let knobs = fields.next().unwrap_or("");
    let attack =
        attacks::find(attack_name).ok_or_else(|| format!("unknown attack '{attack_name}'"))?;
    let stack = if stack_expr == "none" {
        None
    } else {
        Some(resolve_stack(stack_expr).map_err(|e| e.to_string())?)
    };
    Ok(Query {
        attack,
        stack,
        config: config_from_tokens(knobs)?,
    })
}

/// Builds a [`UarchConfig`] from whitespace-separated `KNOB=V` tokens in
/// the `--axis` vocabulary, each with exactly one value, applied to the
/// default config. The token list may be empty.
fn config_from_tokens(tokens: &str) -> Result<UarchConfig, String> {
    // Reuse the axis grammar and the spec builder's knob application: a
    // throwaway single-point spec's lone config slice *is* the requested
    // configuration (and the guarantee it matches what a campaign over
    // the same axes simulated falls out for free).
    let mut builder = CampaignSpec::builder(UarchConfig::default()).defense_stacks([]);
    let mut seen: Vec<Knob> = Vec::new();
    for token in tokens.split_whitespace() {
        let (knob, values) = parse_axis(token).map_err(|e| e.to_string())?;
        let [value] = values.as_slice() else {
            return Err(format!("token '{token}' must pin exactly one value"));
        };
        if seen.contains(&knob) {
            return Err(format!("knob '{}' given twice", knob_token(knob)));
        }
        seen.push(knob);
        builder = builder.axis(knob, [*value]);
    }
    let spec = builder.build();
    let [config] = spec.configs.as_slice() else {
        return Err("internal: single-point spec expanded to multiple configs".to_owned());
    };
    Ok(config.config.clone())
}

/// Loads one `campaign query` artifact — a saved matrix, part, or
/// scheduler checkpoint, distinguished by its `kind` — into the store.
fn ingest_artifact(store: &VerdictStore, path: &Path) -> Result<usize, CliError> {
    let artifact = |source| CliError::Artifact {
        path: path.to_path_buf(),
        source,
    };
    match CampaignMatrix::load_json(path) {
        Ok(matrix) => Ok(store.ingest_matrix(&matrix)),
        Err(CampaignIoError::Kind { .. }) => match CampaignPart::load_json(path) {
            Ok(part) => Ok(store.ingest_part(&part)),
            Err(CampaignIoError::Kind { .. }) => CampaignPart::load_checkpoint_json(path)
                .map(|part| store.ingest_part(&part))
                .map_err(artifact),
            Err(e) => Err(artifact(e)),
        },
        Err(e) => Err(artifact(e)),
    }
}

fn cmd_fuzz(args: &[String]) -> Result<Outcome, CliError> {
    let mut cfg = FuzzConfig::default();
    let mut seed_set = false;
    let mut budget_set = false;
    let mut minimize_set = false;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut registry_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("flag '{flag}' needs a value")))
        };
        let once = |taken: bool| -> Result<(), CliError> {
            if taken {
                Err(CliError::Usage(format!("flag '{flag}' given twice")))
            } else {
                Ok(())
            }
        };
        match flag {
            "--seed" => {
                once(seed_set)?;
                seed_set = true;
                let v = value()?;
                cfg.seed = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--seed needs a number, got '{v}'")))?;
            }
            "--budget" => {
                once(budget_set)?;
                budget_set = true;
                let v = value()?;
                cfg.budget = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!("--budget needs a positive count, got '{v}'"))
                })?;
            }
            "--threads" => {
                once(cfg.threads != 0)?;
                let v = value()?;
                cfg.threads = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!("--threads needs a positive number, got '{v}'"))
                })?;
            }
            "--checkpoint-every" => {
                once(cfg.checkpoint_every != 0)?;
                let v = value()?;
                cfg.checkpoint_every = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!(
                        "--checkpoint-every needs a positive count, got '{v}'"
                    ))
                })?;
            }
            "--minimize" | "--no-minimize" => {
                once(minimize_set)?;
                minimize_set = true;
                cfg.minimize = flag == "--minimize";
            }
            "--corpus" => {
                once(corpus_dir.is_some())?;
                corpus_dir = Some(PathBuf::from(value()?));
            }
            "--registry-out" => {
                once(registry_out.is_some())?;
                registry_out = Some(PathBuf::from(value()?));
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{other}' for 'campaign fuzz'"
                )))
            }
        }
        i += 1;
    }
    let report = fuzz::fuzz(&cfg, corpus_dir.as_deref())?;
    let corpus = &report.corpus;
    if let Some(why) = &report.recovered {
        eprintln!(
            "campaign: corpus was damaged but recoverable ({why}) — \
             re-classified from budget 0"
        );
    }
    for r in &corpus.rediscovered {
        eprintln!(
            "campaign: rediscovered {} (candidate #{}, fingerprint {:016x})",
            r.name, r.index, r.fingerprint
        );
    }
    for f in &corpus.findings {
        eprintln!(
            "campaign: NEW {} — {} [{}]{}",
            f.name(),
            f.combo,
            f.mutations
                .iter()
                .map(|m| m.tag())
                .collect::<Vec<_>>()
                .join(", "),
            if f.removed > 0 {
                format!(", {} instruction(s) shrunk away", f.removed)
            } else {
                String::new()
            },
        );
    }
    eprintln!(
        "campaign: fuzzed {} candidate(s) ({} new) — {} agree-leak, {} \
         agree-safe, {} divergence(s) ({} unexplained), {} known attack(s) \
         rediscovered, {} novel finding(s)",
        corpus.classified,
        report.newly_classified,
        corpus.agree_leak,
        corpus.agree_safe,
        corpus.divergences.len(),
        corpus.unexplained().len(),
        corpus.rediscovered.len(),
        corpus.findings.len(),
    );
    if let Some(path) = &registry_out {
        write_file(path, &corpus.registry().to_json())?;
    }
    // Without a corpus directory nothing persists on its own — emit the
    // corpus to stdout so the run is still inspectable/pipeable.
    if corpus_dir.is_none() {
        write_stdout(&corpus.to_json())?;
    }
    Ok(Outcome::Fuzzed {
        classified: corpus.classified,
        newly_classified: report.newly_classified,
        divergences: corpus.divergences.len(),
        rediscovered: corpus.rediscovered.len(),
        findings: corpus.findings.len(),
    })
}

// ---------------------------------------------------------------------------
// Fault self-tests
// ---------------------------------------------------------------------------

fn cmd_fault(args: &[String]) -> Result<Outcome, CliError> {
    let mut mode: Option<String> = None;
    let mut seed: u64 = 0xFA17;
    let mut dir: Option<PathBuf> = None;
    let mut retries: u32 = 2;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, CliError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("flag '{flag}' needs a value")))
        };
        match flag {
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--seed needs a number, got '{v}'")))?;
            }
            "--dir" => {
                dir = Some(PathBuf::from(value()?));
            }
            "--retries" => {
                let v = value()?;
                retries = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--retries needs a number, got '{v}'")))?;
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{other}' for 'campaign fault'"
                )));
            }
            positional => {
                if mode.is_some() {
                    return Err(CliError::Usage(format!(
                        "campaign fault takes one mode, got '{positional}' too"
                    )));
                }
                mode = Some(positional.to_owned());
            }
        }
        i += 1;
    }
    let mode = mode.ok_or_else(|| {
        CliError::Usage("campaign fault needs a mode: sweep, sweep-fuzz or quarantine".to_owned())
    })?;
    match mode.as_str() {
        "quarantine" => return fault_quarantine(retries),
        "sweep" | "sweep-fuzz" => {}
        other => {
            return Err(CliError::Usage(format!(
                "unknown fault mode '{other}' (expected sweep, sweep-fuzz or quarantine)"
            )))
        }
    }
    let dir = dir.ok_or_else(|| {
        CliError::Usage(
            "campaign fault sweeps need --dir DIR (a scratch workspace they wipe)".to_owned(),
        )
    })?;
    match mode.as_str() {
        "sweep" => fault_sweep_scheduler(seed, &dir),
        _ => fault_sweep_fuzz(seed, &dir),
    }
}

/// The small serve grid every scheduler crash-sweep runs: 2 attacks ×
/// 1 defense × 2 ROB depths = 8 tasks, chunked 2 per checkpoint file.
fn sweep_spec() -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .attacks([
            attacks::find(attacks::names::MELTDOWN).expect("Meltdown is in the registry"),
            attacks::find(attacks::names::RETBLEED).expect("Retbleed is in the registry"),
        ])
        .defenses([*defenses::find("NDA").expect("NDA is in the catalog")])
        .axis(Knob::RobDepth, [16usize, 64])
        .threads(1)
        .build()
}

/// Wipes and recreates a sweep workspace directory.
fn wipe_dir(dir: &Path) -> Result<(), CliError> {
    let io = |source| CliError::Io {
        path: dir.to_path_buf(),
        source,
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)
}

/// Counts checkpoint files in `ckpt` that still load as valid chunks —
/// the resume report must reuse exactly these, never fewer.
fn intact_chunks(ckpt: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(ckpt) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("chunk-")
                && name.ends_with(".json")
                && CampaignPart::load_checkpoint_json(e.path()).is_ok()
        })
        .count()
}

fn fault_sweep_scheduler(seed: u64, dir: &Path) -> Result<Outcome, CliError> {
    let spec = sweep_spec();
    let ckpt = dir.join("ckpt");
    let out = dir.join("matrix.json");
    let run = |spec: &CampaignSpec| {
        Scheduler::new(spec)
            .workers(1)
            .chunk_tasks(2)
            .checkpoint(&ckpt)
            .run()
    };
    let read_out = || {
        std::fs::read(&out).map_err(|source| CliError::Io {
            path: out.clone(),
            source,
        })
    };
    let report = fault::crash_sweep(
        seed,
        || wipe_dir(dir),
        || {
            let (matrix, _) = run(&spec)?;
            write_file(&out, &matrix.to_json())?;
            read_out()
        },
        |k| {
            let intact = intact_chunks(&ckpt);
            let (matrix, rep) = run(&spec)?;
            if rep.resumed < intact {
                return Err(CliError::Fault(format!(
                    "resume after write #{k} reused {} chunk(s) but {intact} \
                     checkpoint(s) were intact — completed cells were re-simulated",
                    rep.resumed,
                )));
            }
            if rep.resumed + rep.executed != rep.chunks {
                return Err(CliError::Fault(format!(
                    "resume after write #{k} covered {} of {} chunk(s)",
                    rep.resumed + rep.executed,
                    rep.chunks,
                )));
            }
            write_file(&out, &matrix.to_json())?;
            read_out()
        },
    )
    .map_err(CliError::Fault)?;
    eprintln!(
        "campaign: fault sweep (scheduler) passed — {} write point(s), {} \
         fault(s) fired, every resume bit-identical with 0 completed cell(s) \
         re-simulated",
        report.writes, report.fired,
    );
    Ok(Outcome::FaultTested {
        mode: "sweep",
        cases: report.writes,
    })
}

fn fault_sweep_fuzz(seed: u64, dir: &Path) -> Result<Outcome, CliError> {
    let cfg = FuzzConfig {
        seed,
        budget: 48,
        checkpoint_every: 16,
        threads: 1,
        ..FuzzConfig::default()
    };
    let read_out = || {
        let path = Corpus::path_in(dir);
        std::fs::read(&path).map_err(|source| CliError::Io { path, source })
    };
    let report = fault::crash_sweep(
        seed,
        || wipe_dir(dir),
        || {
            fuzz::fuzz(&cfg, Some(dir))?;
            read_out()
        },
        |k| {
            // How far the surviving corpus actually got: a torn or missing
            // file recovers from zero, an intact checkpoint from its budget.
            let on_disk = match Corpus::load(dir) {
                Ok(Some(corpus)) => corpus.classified,
                Ok(None) => 0,
                Err(e) if e.is_recoverable() => 0,
                Err(e) => {
                    return Err(CliError::Fault(format!(
                        "corpus after write #{k} is unrecoverable: {e}"
                    )))
                }
            };
            let resumed = fuzz::fuzz(&cfg, Some(dir))?;
            if resumed.newly_classified != cfg.budget - on_disk {
                return Err(CliError::Fault(format!(
                    "resume after write #{k} re-classified {} candidate(s), \
                     expected {} (the corpus on disk already had {on_disk})",
                    resumed.newly_classified,
                    cfg.budget - on_disk,
                )));
            }
            read_out()
        },
    )
    .map_err(CliError::Fault)?;
    eprintln!(
        "campaign: fault sweep (fuzz corpus) passed — {} write point(s), {} \
         fault(s) fired, every resume bit-identical with 0 completed \
         candidate(s) re-classified",
        report.writes, report.fired,
    );
    Ok(Outcome::FaultTested {
        mode: "sweep-fuzz",
        cases: report.writes,
    })
}

fn fault_quarantine(retries: u32) -> Result<Outcome, CliError> {
    let panicking = PanickingAttack::wrap(
        attacks::find(attacks::names::MELTDOWN).expect("Meltdown is in the registry"),
    );
    let mut spec = CampaignSpec::builder(UarchConfig::default())
        .attacks([
            panicking as &'static dyn Attack,
            attacks::find(attacks::names::RETBLEED).expect("Retbleed is in the registry"),
        ])
        .defenses([*defenses::find("NDA").expect("NDA is in the catalog")])
        .axis(Knob::RobDepth, [16usize, 64])
        .threads(1)
        .build();
    spec.resilience.retries = retries;
    let matrix = CampaignMatrix::run(&spec)?;
    let quarantined = matrix.quarantined();
    if quarantined == 0 {
        return Err(CliError::Fault(
            "injected panicking cell produced no quarantined rows".to_owned(),
        ));
    }
    eprintln!(
        "campaign: quarantined {quarantined} cell(s) after {retries} \
         retry(ies) each — the campaign still completed all {} task(s)",
        spec.total_tasks(),
    );
    panicking.disarm();
    let (healed, report) = CampaignMatrix::run_incremental(&spec, Some(&matrix), None)?;
    if healed.quarantined() != 0 {
        return Err(CliError::Fault(format!(
            "{} cell(s) still quarantined after the fault was removed",
            healed.quarantined(),
        )));
    }
    if report.evaluated != quarantined {
        return Err(CliError::Fault(format!(
            "healing run re-evaluated {} task(s), expected exactly the \
             {quarantined} quarantined one(s)",
            report.evaluated,
        )));
    }
    eprintln!(
        "campaign: re-run with the fault removed healed all {quarantined} \
         quarantined cell(s) incrementally ({} task(s) reused)",
        report.reused,
    );
    Ok(Outcome::FaultTested {
        mode: "quarantine",
        cases: quarantined,
    })
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

fn parse_shard(v: &str) -> Result<(usize, usize), CliError> {
    let bad = || CliError::Usage(format!("--shard needs I/N with I < N, got '{v}'"));
    let (i, n) = v.split_once('/').ok_or_else(bad)?;
    let (i, n): (usize, usize) = (i.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?);
    if n == 0 || i >= n {
        return Err(bad());
    }
    Ok((i, n))
}

fn load_matrix(path: &Path) -> Result<CampaignMatrix, CliError> {
    CampaignMatrix::load_json(path).map_err(|source| CliError::Artifact {
        path: path.to_path_buf(),
        source,
    })
}

/// Writes through the fault-injectable atomic layer (tmp + rename), so
/// every CLI artifact — CSV, SVG, registry — is crash-consistent and
/// covered by `campaign fault` sweeps.
fn write_file(path: &Path, content: &str) -> Result<(), CliError> {
    fault::write_atomic(path, content).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Writes `content` to `path`, or to stdout when no path was given.
fn emit(path: Option<&Path>, content: &str) -> Result<(), CliError> {
    match path {
        Some(p) => write_file(p, content),
        None => write_stdout(content),
    }
}

/// Writes to stdout, treating a closed pipe (`campaign … | head`) as
/// normal early termination instead of the default `print!` panic.
fn write_stdout(content: &str) -> Result<(), CliError> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match out.write_all(content.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(source) => Err(CliError::Io {
            path: PathBuf::from("<stdout>"),
            source,
        }),
    }
}

fn describe_report(report: IncrementalReport) {
    eprintln!(
        "campaign: evaluated {} task(s), reused {} from the previous matrix",
        report.evaluated, report.reused
    );
}

/// One stderr line when a matrix carries degraded rows, so a scripted
/// campaign can grep for partial results.
fn describe_degraded(matrix: &CampaignMatrix) {
    let quarantined = matrix.quarantined();
    let timed_out = matrix.timed_out();
    if quarantined > 0 || timed_out > 0 {
        eprintln!(
            "campaign: quarantined {quarantined} cell(s), timed out \
             {timed_out} — degraded rows keep their graph verdicts and \
             re-simulate on the next run"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::builder(UarchConfig::default())
            .attacks([attacks::find("Meltdown").unwrap()])
            .defenses([*defenses::find("NDA").unwrap()])
            .axis(Knob::RobDepth, [16usize, 64])
            .build()
    }

    #[test]
    fn progress_lines_fire_per_completed_slice() {
        let spec = tiny_spec();
        // Per-slice quota: 1 baseline + 1 cell per config slice.
        let printer = ProgressPrinter::new(&spec, Some(2));
        let event = |completed, config| TaskEvent {
            completed,
            total: 4,
            config,
        };
        // First task of slice 0: below quota, silent.
        assert!(printer.line_for(event(1, 0)).is_none());
        // Second task of slice 0 completes the slice: a line, with the
        // slice name and per-slice + total counts.
        let line = printer.line_for(event(2, 0)).expect("slice-done line");
        assert!(line.contains("slice 'rob=16'"), "{line}");
        assert!(line.contains("2/2"), "{line}");
        assert!(line.contains("2/4 total"), "{line}");
        assert!(line.contains("ETA"), "{line}");
        // Slice 1 likewise.
        assert!(printer.line_for(event(3, 1)).is_none());
        assert!(printer
            .line_for(event(4, 1))
            .expect("final line")
            .contains("slice 'rob=64'"));
    }

    #[test]
    fn progress_without_quota_prints_milestones() {
        let spec = tiny_spec();
        let printer = ProgressPrinter::new(&spec, None);
        // total 40 → step 4: only every 4th completion (and the last)
        // prints.
        let mut lines = 0;
        for completed in 1..=40usize {
            if let Some(line) = printer.line_for(TaskEvent {
                completed,
                total: 40,
                config: completed % 2,
            }) {
                lines += 1;
                assert!(line.contains("task(s) done"), "{line}");
            }
        }
        assert_eq!(lines, 10);
    }

    #[test]
    fn stack_expressions_resolve_like_the_library_grammar() {
        assert_eq!(
            resolve_stack("kpti+retpoline").unwrap().name(),
            "KAISER/KPTI+Retpoline"
        );
        assert_eq!(
            resolve_stack("linux-default").unwrap(),
            presets::linux_default()
        );
        let err = resolve_stack("kpti+warp-drive").unwrap_err();
        assert!(err.to_string().contains("catalog tokens"));
        assert!(err.to_string().contains("presets"));
    }
}
