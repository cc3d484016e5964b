//! The `campaign` command-line tool: campaigns as a **multi-process
//! artifact pipeline**.
//!
//! ```text
//! campaign run    --axis hardening=figure8 --shard 0/2 --checkpoint ckpt/
//! campaign run    --axis hardening=figure8 --shard 1/2 --checkpoint ckpt/
//! campaign run    --axis hardening=figure8 --checkpoint ckpt/ --out matrix.json
//! campaign render matrix.json --csv fig8.csv --svg fig8.svg
//! campaign run    --axis hardening=figure8 --prev matrix.json --out matrix.json
//! campaign run    --axis hardening=figure8 --threads 4 --checkpoint ckpt/ --out matrix.json
//! campaign query  matrix.json --queries batch.txt --simulate
//! campaign fuzz   --seed 42 --budget 512 --corpus corpus/
//! campaign run    --synthesized corpus/fuzz-corpus.json --axis hardening=figure8 --out matrix.json
//! ```
//!
//! Every subcommand is a thin wrapper over `specgraph::campaign` and
//! `specgraph::serve`: `run` evaluates a whole cube on the [`Scheduler`];
//! with `--checkpoint` a killed run resumes from the checkpoint directory
//! without re-simulating a single completed cell, and with `--prev` only
//! the cells a saved matrix lacks are evaluated. `run --shard i/n
//! --checkpoint DIR` evaluates one slice and writes it into `DIR` as
//! chunk `i` of `n`, so a later `run --checkpoint DIR` over all the shards
//! resumes every chunk and assembles the matrix (a chunk of another spec
//! or shard count is a hard error). `render` regenerates the
//! Figure-8 hardening heatmaps from a *saved* matrix with zero
//! re-simulation. `query` answers point lookups (`ATTACK | STACK | KNOBS`
//! lines) from saved artifacts through the memoized [`VerdictStore`],
//! optionally simulating misses. `fuzz` runs the §V-A discovery loop
//! (`specgraph::discovery::fuzz`): a seeded generator over the
//! design-space dimensions, the differential Theorem-1-vs-simulation
//! oracle, and the shrinking minimizer; novel leaking shapes land in the
//! fuzz [`Corpus`] file, which `--synthesized` feeds back into any
//! campaign as extra attack rows.
//!
//! Argument parsing is hand-rolled (the workspace builds offline, no
//! `clap`), and lives here — in the library — so the integration tests
//! drive the exact code path the binary runs.

use crate::heatmap::Figure8View;
use specgraph::attacks::{self, Attack, AttackError};
use specgraph::campaign::{
    CampaignIoError, CampaignMatrix, CampaignPart, CampaignSpec, Hardening, Knob, KnobValue,
    MatrixDiff, TaskEvent,
};
use specgraph::defenses::{self, presets, DefenseStack};
use specgraph::discovery::fuzz::{self, Corpus, CorpusError, FuzzConfig, FuzzError};
use specgraph::fault;
use specgraph::serve::{
    self, AnswerSource, ScheduleReport, Scheduler, ServeError, VerdictStore, DEFAULT_CHUNK_TASKS,
};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Mutex;
use uarch::UarchConfig;

/// The usage text `campaign --help` (and every usage error) prints.
pub const USAGE: &str = "\
campaign — run, shard, render, diff, query and fuzz
           attack×defense-stack×config campaigns

USAGE:
  campaign run    [SPEC] [--out FILE] [--csv FILE] [--progress]
                  [--prev MATRIX.json] [--checkpoint DIR] [--chunk T]
  campaign run    [SPEC] --shard I/N --checkpoint DIR [--progress]
  campaign render MATRIX.json [--csv FILE] [--svg FILE]
  campaign diff   OLD.json NEW.json
  campaign query  ARTIFACT.json... [--queries FILE] [--simulate]
  campaign fuzz   [--seed N] [--budget N] [--corpus DIR] [--threads N]
                  [--checkpoint-every N]

SPEC (must be identical for every shard of one campaign):
  --attacks NAMES    comma-separated attack names (default: full registry)
  --defenses STACKS  comma-separated defense stacks, or 'none'
                     (default: full registry, one singleton stack each).
                     Each stack joins catalog defenses with '+', by short
                     token or full name: kpti+retpoline+ibpb. Preset
                     bundles: linux-default, microcode-only, academic-stt,
                     academic-invisible.
  --synthesized F    add the findings of a fuzz corpus file (written by
                     `campaign fuzz` as DIR/fuzz-corpus.json) to the
                     attack axis, after the named/registry rows
  --axis KNOB=V,V..  add a config axis (repeatable; axes multiply):
                     numeric: rob fetch issue sets ways lfb stbuf rsb
                              (sizes, 1..=65536)
                              hitlat misslat permlat (latencies, from 0)
                     hardening=baseline|no-spec-loads|eager-permcheck|nda|stt|
                               delay-on-miss|invisispec|cleanup-spec|
                               flush-predictors|figure8|all
  --threads N        worker threads (default: all cores)
  --max-cell-cycles N  per-cell cycle budget: a simulation exceeding it
                     degrades to a typed timed-out row (graph verdicts
                     kept) instead of failing the run
  --progress         print per-slice completed/total + ETA lines to stderr

  `campaign run --shard I/N --checkpoint DIR` writes shard I of N into
  DIR as checkpoint chunk I of N; run all N shards (any machines, any
  order, one shared DIR), then `campaign run --checkpoint DIR` resumes
  every chunk and writes the matrix, bit-identical to a single-process
  run ('executed 0'; a missing or damaged shard is re-run). A DIR
  holding a chunk of another spec or another N is refused before
  anything is simulated. With --prev, only cells whose fingerprint is
  absent from the previous matrix are re-simulated. `campaign diff`
  compares two saved matrices: verdict flips, baseline cycle deltas,
  added/removed cells.

  A whole-cube `campaign run` splits the cube into --chunk T-task chunks
  (default: one chunk, or 16 tasks with --checkpoint), evaluated on
  --threads workers. With --checkpoint DIR each chunk is written to disk
  as soon as its last cell is done, and a killed run's next invocation
  resumes from DIR, re-simulating zero completed cells — the matrix is
  bit-identical for every chunk size, thread count and resume.

  `campaign query` ingests saved matrices and checkpoints into a
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
  larger --budget resumes where the last one stopped. Without --corpus
  the corpus document is printed to stdout. `run --synthesized` reads
  the corpus file's findings as attack rows.
";

/// What a successfully executed subcommand did (the binary prints this;
/// tests assert on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `run` over the full cube (fresh, incremental or checkpointed).
    Ran(ScheduleReport),
    /// `run --shard i/n --checkpoint DIR`: one chunk evaluated and
    /// written.
    RanShard {
        /// Shard position.
        index: usize,
        /// Shard count.
        of: usize,
        /// Tasks this shard evaluated.
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
    /// The serving layer failed (scheduler or verdict store).
    Serve(ServeError),
    /// The fuzzing loop failed (oracle, corpus I/O, or resume mismatch).
    Fuzz(FuzzError),
    /// A `--synthesized` fuzz corpus could not be read or re-assembled.
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
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Attack(e) => write!(f, "simulation failed: {e}"),
            CliError::Artifact { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CliError::Serve(e) => write!(f, "serving failed: {e}"),
            CliError::Fuzz(e) => write!(f, "fuzzing failed: {e}"),
            CliError::Registry { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CliError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Attack(e) => Some(e),
            CliError::Artifact { source, .. } => Some(source),
            CliError::Serve(e) => Some(e),
            CliError::Fuzz(e) => Some(e),
            CliError::Registry { source, .. } => Some(source),
            CliError::Io { source, .. } => Some(source),
            CliError::Usage(_) => None,
        }
    }
}

impl From<AttackError> for CliError {
    fn from(e: AttackError) -> Self {
        CliError::Attack(e)
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
/// a checkpoint directory of another campaign.
pub fn main_with(args: &[String]) -> Result<Outcome, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("--help" | "-h" | "help") => {
            write_stdout(USAGE)?;
            write_stdout("\n")?;
            Ok(Outcome::Help)
        }
        Some("run") => cmd_run(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (expected run, render, diff, query \
             or fuzz)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Spec flags
// ---------------------------------------------------------------------------

/// The spec-defining flags, collected before expansion so every shard
/// process can rebuild the identical [`CampaignSpec`] (enforced through
/// the spec fingerprint every checkpoint chunk carries).
#[derive(Debug, Default)]
struct SpecArgs {
    attacks: Option<Vec<String>>,
    synthesized: Option<PathBuf>,
    defenses: Option<Vec<String>>,
    axes: Vec<(Knob, Vec<KnobValue>)>,
    threads: usize,
    max_cell_cycles: Option<u64>,
}

impl SpecArgs {
    /// Consumes a spec flag if `flag` is one; returns whether it was.
    /// Repeats are rejected (by [`Flags::value`]), like a repeated axis
    /// knob: a silently overridden flag would produce a shard of a
    /// different spec than intended.
    fn take<'a>(&mut self, flag: &'a str, flags: &mut Flags<'a>) -> Result<bool, CliError> {
        match flag {
            "--attacks" => self.attacks = Some(split_list(flags.value(flag)?)),
            "--synthesized" => self.synthesized = Some(flags.path(flag)?),
            "--defenses" => {
                let v = flags.value(flag)?;
                self.defenses = Some(if v == "none" {
                    Vec::new()
                } else {
                    split_list(v)
                });
            }
            "--axis" => {
                let (knob, values) = parse_axis(flags.repeated_value(flag)?)?;
                if self.axes.iter().any(|(k, _)| *k == knob) {
                    return Err(CliError::Usage(format!(
                        "axis '{}' given twice",
                        knob.token()
                    )));
                }
                self.axes.push((knob, values));
            }
            "--threads" => self.threads = flags.number(flag)?,
            "--max-cell-cycles" => {
                self.max_cell_cycles = Some(flags.positive(flag, "cycle count")?);
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
                let synthesized = std::fs::read_to_string(path)
                    .map_err(CorpusError::Io)
                    .and_then(|text| Corpus::from_json(&text)?.attacks())
                    .map_err(|source| CliError::Registry {
                        path: path.clone(),
                        source,
                    })?;
                list.extend(synthesized);
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
        for (knob, values) in self.axes {
            builder = builder.axis(knob, values);
        }
        let mut spec = builder.threads(self.threads).build();
        // An explicit budget means the user wants runaway cells degraded,
        // not the whole campaign failed.
        spec.degrade_timeouts = self.max_cell_cycles.is_some();
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

/// The largest structure size (`rob`, `sets`, `lfb`, …) an axis or a
/// query line accepts: the machine allocates every structure up front.
const MAX_STRUCTURE_SIZE: u64 = 65_536;

fn parse_axis(arg: &str) -> Result<(Knob, Vec<KnobValue>), CliError> {
    let (token, list) = arg
        .split_once('=')
        .ok_or_else(|| CliError::Usage(format!("--axis needs KNOB=V1,V2,…, got '{arg}'")))?;
    let knob = Knob::from_token(token).ok_or_else(|| {
        CliError::Usage(format!("unknown axis knob '{token}' (see campaign --help)"))
    })?;
    let values = match knob {
        Knob::Hardening => match list {
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
        },
        _ => split_list(list)
            .iter()
            .map(|v| {
                let n = v.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("axis '{token}' needs numbers, got '{v}'"))
                })?;
                // Latencies may be 0; a structure of size 0 (ROB, widths,
                // cache geometry, buffers, RSB) cannot simulate at all, and
                // one above the ceiling would be allocated before a single
                // cycle runs.
                let latency = matches!(
                    knob,
                    Knob::CacheHitLatency | Knob::CacheMissLatency | Knob::PermissionCheckLatency
                );
                if !latency && !(1..=MAX_STRUCTURE_SIZE).contains(&n) {
                    return Err(CliError::Usage(format!(
                        "axis '{token}' is a structure size and must be in \
                         1..={MAX_STRUCTURE_SIZE}, got {n}"
                    )));
                }
                Ok(KnobValue::Num(n))
            })
            .collect::<Result<Vec<_>, _>>()?,
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
    let mut progress = false;
    let mut prev: Option<PathBuf> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut chunk: Option<usize> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--shard" => shard = Some(parse_shard(flags.value(flag)?)?),
            "--out" => out = Some(flags.path(flag)?),
            "--csv" => csv = Some(flags.path(flag)?),
            "--progress" => progress = true,
            "--prev" => prev = Some(flags.path(flag)?),
            "--checkpoint" => checkpoint = Some(flags.path(flag)?),
            "--chunk" => chunk = Some(flags.positive(flag, "task count")?),
            other => {
                if !spec_args.take(other, &mut flags)? {
                    return Err(CliError::Usage(format!(
                        "unknown flag '{other}' for 'campaign run'"
                    )));
                }
            }
        }
    }
    if shard.is_some() && checkpoint.is_none() {
        return Err(CliError::Usage(
            "--shard needs --checkpoint DIR: shard I of N is written there \
             as checkpoint chunk I of N"
                .to_owned(),
        ));
    }
    if shard.is_some() && (out.is_some() || csv.is_some() || prev.is_some() || chunk.is_some()) {
        return Err(CliError::Usage(
            "--shard does not combine with --out, --csv, --prev or --chunk; \
             run every shard, then `campaign run --checkpoint DIR` to \
             assemble the matrix"
                .to_owned(),
        ));
    }
    let spec = spec_args.build()?;
    let previous = prev.as_deref().map(load_matrix).transpose()?;
    // Unless chunks are checkpointed, one chunk covers the cube.
    let chunk = chunk.unwrap_or(if checkpoint.is_some() {
        DEFAULT_CHUNK_TASKS
    } else {
        spec.total_tasks().max(1)
    });
    // A fresh, checkpoint-free run evaluates every slice completely, so
    // the per-slice quota is known. Reused and resumed tasks are silent,
    // and a shard's quota depends on its range, so otherwise fall back to
    // milestone lines.
    let per_slice = if previous.is_none() && checkpoint.is_none() {
        spec.total_tasks().checked_div(spec.configs.len())
    } else {
        None
    };
    let printer = progress.then(|| ProgressPrinter::new(&spec, per_slice));
    let observer = printer.as_ref().map(ProgressPrinter::observer);
    let mut scheduler = Scheduler::new(&spec).chunk_tasks(chunk);
    if let Some(f) = &observer {
        scheduler = scheduler.progress(f);
    }
    if let Some(matrix) = &previous {
        scheduler = scheduler.prev(matrix);
    }
    if let Some(dir) = &checkpoint {
        scheduler = scheduler.checkpoint(dir);
    }
    if let (Some((index, of)), Some(dir)) = (shard, &checkpoint) {
        let part = scheduler.run_chunk(index, of)?;
        eprintln!(
            "campaign: shard {index}/{of} evaluated {} of {} task(s) into {} \
             (spec fingerprint {:#018x})",
            part.len(),
            spec.total_tasks(),
            serve::chunk_path(dir, index).display(),
            part.spec_fingerprint(),
        );
        return Ok(Outcome::RanShard {
            index,
            of,
            tasks: part.len(),
        });
    }
    let (matrix, report) = scheduler.run()?;
    emit(out.as_deref(), &matrix.to_json())?;
    if let Some(path) = &csv {
        write_file(path, &matrix.to_csv())?;
    }
    describe_degraded(&matrix);
    for repair in &report.repaired {
        eprintln!(
            "campaign: checkpoint {} was unusable ({}) — re-ran chunk {}",
            repair.path.display(),
            repair.reason,
            repair.index,
        );
    }
    if checkpoint.is_some() {
        eprintln!(
            "campaign: {} chunk(s) — resumed {} chunk(s) ({} task(s), 0 \
             re-simulated), executed {}",
            report.chunks, report.resumed, report.resumed_tasks, report.executed,
        );
    }
    eprintln!(
        "campaign: evaluated {} task(s) on {} machine run(s), reused {} from the previous matrix",
        report.evaluated, report.machine_runs, report.reused
    );
    Ok(Outcome::Ran(report))
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
/// config slice when the per-slice quota is known (fresh runs without
/// checkpoints), and ~10 milestone
/// lines otherwise (shards, incremental and checkpointed runs), each with
/// an elapsed-rate ETA.
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

fn cmd_render(args: &[String]) -> Result<Outcome, CliError> {
    let mut matrix_path: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut svg: Option<PathBuf> = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--csv" => csv = Some(flags.path(arg)?),
            "--svg" => svg = Some(flags.path(arg)?),
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

fn cmd_query(args: &[String]) -> Result<Outcome, CliError> {
    let mut artifacts: Vec<PathBuf> = Vec::new();
    let mut queries: Option<PathBuf> = None;
    let mut simulate = false;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--queries" => queries = Some(flags.path(arg)?),
            "--simulate" => simulate = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{flag}' for 'campaign query'"
                )))
            }
            path => artifacts.push(PathBuf::from(path)),
        }
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
            return Err(format!("knob '{}' given twice", knob.token()));
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

/// Loads one `campaign query` artifact — a saved matrix or a checkpoint
/// chunk, distinguished by its `kind` — into the store.
fn ingest_artifact(store: &VerdictStore, path: &Path) -> Result<usize, CliError> {
    let artifact = |source| CliError::Artifact {
        path: path.to_path_buf(),
        source,
    };
    match CampaignMatrix::load_json(path) {
        Ok(matrix) => Ok(store.ingest_matrix(&matrix)),
        Err(CampaignIoError::Kind { .. }) => CampaignPart::load_checkpoint_json(path)
            .map(|part| store.ingest_part(&part))
            .map_err(artifact),
        Err(e) => Err(artifact(e)),
    }
}

fn cmd_fuzz(args: &[String]) -> Result<Outcome, CliError> {
    let mut cfg = FuzzConfig::default();
    let mut corpus_dir: Option<PathBuf> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => cfg.seed = flags.number(flag)?,
            "--budget" => cfg.budget = flags.positive(flag, "count")?,
            "--threads" => cfg.threads = flags.positive(flag, "number")?,
            "--checkpoint-every" => cfg.checkpoint_every = flags.positive(flag, "count")?,
            "--corpus" => corpus_dir = Some(flags.path(flag)?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{other}' for 'campaign fuzz'"
                )))
            }
        }
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
// Small helpers
// ---------------------------------------------------------------------------

/// A cursor over one subcommand's arguments. Every subcommand reads its
/// flags through it, so a missing value and a repeated value flag are the
/// same usage error everywhere.
struct Flags<'a> {
    args: &'a [String],
    pos: usize,
    seen: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            pos: 0,
            seen: Vec::new(),
        }
    }

    /// The next argument: a flag or a positional.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    /// The value of a flag that may be given only once.
    fn value(&mut self, flag: &'a str) -> Result<&'a str, CliError> {
        if self.seen.contains(&flag) {
            return Err(CliError::Usage(format!("flag '{flag}' given twice")));
        }
        self.seen.push(flag);
        self.repeated_value(flag)
    }

    /// The value of a flag that may repeat (`--axis`).
    fn repeated_value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| CliError::Usage(format!("flag '{flag}' needs a value")))
    }

    fn path(&mut self, flag: &'a str) -> Result<PathBuf, CliError> {
        self.value(flag).map(PathBuf::from)
    }

    fn number<T: FromStr>(&mut self, flag: &'a str) -> Result<T, CliError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| CliError::Usage(format!("{flag} needs a number, got '{v}'")))
    }

    /// A number that must be above zero; `what` names it in the error.
    fn positive<T: FromStr + Default + PartialOrd>(
        &mut self,
        flag: &'a str,
        what: &str,
    ) -> Result<T, CliError> {
        let v = self.value(flag)?;
        v.parse()
            .ok()
            .filter(|n| *n > T::default())
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a positive {what}, got '{v}'")))
    }
}

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
/// every CLI artifact — matrix, shard chunk, CSV, SVG — is crash-consistent.
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
