//! # Synthesized-scenario fuzzing: growing the attack catalog automatically
//!
//! §V-A of the paper argues that *new attacks are new combinations*: pick
//! a secret source, an authorization-delaying mechanism, and a covert
//! channel, and the composition is an attack nobody has named yet. This
//! module family turns that observation into a discovery loop:
//!
//! ```text
//!  seed ─▶ generator ─▶ Scenario ─▶ analyzer::lift ─▶ TSG ──┬─▶ Theorem 1 (PatchSession)
//!            (gen)                                          └─▶ simulation (BatchRunner)
//!                                                                  │
//!                    divergence? ◀─ classify (oracle) ◀─ verdicts ──┘
//!                         │                │
//!                  first-class finding   both leak + unseen shape
//!                  (missed_leak /          │
//!                   false_sense)        shrink to 1-minimal ─▶ Corpus / SynthesizedRegistry
//! ```
//!
//! * [`gen`] — the seeded deterministic generator: free composition over
//!   the three §V-A dimensions plus biased mutation of the composed
//!   gadget. Candidate `i` is a pure function of `(seed, i)`.
//! * [`oracle`] — the differential classifier: Theorem 1 over the lifted
//!   graph vs. end-to-end simulation, divergences explained or flagged.
//! * [`shrink`] — the minimizer: deletion passes replayed against both
//!   oracles until 1-minimal.
//! * [`corpus`] — the resumable on-disk corpus (schema v6) and the
//!   [`SynthesizedRegistry`] that plugs findings into a campaign's attack
//!   axis.
//!
//! The loop itself is [`fuzz`]: bit-identical across runs, `--threads`
//! values, and save/resume splits, because candidates derive from
//! `(seed, index)` alone and the merge is by index.

pub mod corpus;
pub mod gen;
pub mod oracle;
mod rng;
pub mod shrink;

pub use corpus::{
    Corpus, CorpusError, DivergenceRecord, Finding, Rediscovery, SynthesizedRegistry, CORPUS_FILE,
    FUZZ_SCHEMA_VERSION,
};
pub use gen::{ChannelDim, Combo, DelayDim, Mutation, Scenario, SourceDim};
pub use oracle::{Agreement, DualOracle, FalseSenseCause, MissedLeakCause, Verdicts};
pub use rng::{candidate_rng, FuzzRng};
pub use shrink::{is_one_minimal, minimize, ShrinkStats};

use analyzer::AnalyzerError;
use attacks::AttackError;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

/// A fuzzing-loop failure.
#[derive(Debug)]
pub enum FuzzError {
    /// The analyzer rejected a candidate program (never for generated
    /// candidates; possible for hand-edited corpus entries).
    Analyzer(AnalyzerError),
    /// The simulator rejected a candidate run.
    Attack(AttackError),
    /// Corpus persistence failed.
    Corpus(CorpusError),
    /// An on-disk corpus is incompatible with the requested run.
    Resume(String),
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::Analyzer(e) => write!(f, "lift failed: {e}"),
            FuzzError::Attack(e) => write!(f, "simulation failed: {e}"),
            FuzzError::Corpus(e) => write!(f, "{e}"),
            FuzzError::Resume(m) => write!(f, "cannot resume: {m}"),
        }
    }
}

impl std::error::Error for FuzzError {}

impl From<AnalyzerError> for FuzzError {
    fn from(e: AnalyzerError) -> Self {
        FuzzError::Analyzer(e)
    }
}

impl From<AttackError> for FuzzError {
    fn from(e: AttackError) -> Self {
        FuzzError::Attack(e)
    }
}

impl From<CorpusError> for FuzzError {
    fn from(e: CorpusError) -> Self {
        FuzzError::Corpus(e)
    }
}

/// Parameters of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed every candidate derives from.
    pub seed: u64,
    /// Total candidate budget (a resumed run classifies from the corpus
    /// checkpoint up to this).
    pub budget: u64,
    /// Whether novel leakers are minimized to 1-minimality.
    pub minimize: bool,
    /// Classification worker threads; `0` means all available
    /// parallelism. Results are identical for every value.
    pub threads: usize,
    /// Checkpoint the corpus to disk every this many classified
    /// candidates (`0`, the default, saves only at the end). A killed run
    /// resumes from the last checkpoint instead of budget 0; the final
    /// corpus is bit-identical for every value.
    pub checkpoint_every: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            budget: 512,
            minimize: true,
            threads: 0,
            checkpoint_every: 0,
        }
    }
}

/// The outcome of one [`fuzz`] call.
#[derive(Debug)]
pub struct FuzzReport {
    /// The corpus after this run (also saved to disk when a directory
    /// was given).
    pub corpus: Corpus,
    /// How many candidates this call classified (0 on a fully resumed
    /// corpus — the satellite CI check pins this).
    pub newly_classified: u64,
    /// When the on-disk corpus was damaged but recoverable (typed
    /// truncation — a writer killed mid-save), the reason it was
    /// discarded; classification restarted from the last good budget
    /// (budget 0 when no complete corpus survived).
    pub recovered: Option<String>,
}

/// The catalog the fuzzer measures novelty against: the hand-built
/// registry rows' graph shapes plus the lifted (and, when minimizing,
/// minimized) shapes of the five known-combo templates.
#[derive(Debug)]
struct KnownCatalog {
    /// Fingerprints that disqualify a shape from being "novel".
    known_shapes: HashSet<u64>,
    /// Raw template fingerprint → catalog name, for rediscovery records.
    rediscovery: HashMap<u64, &'static str>,
}

impl KnownCatalog {
    fn build(minimize: bool) -> Result<Self, FuzzError> {
        let mut known_shapes = HashSet::new();
        let mut rediscovery = HashMap::new();
        for attack in attacks::registry() {
            known_shapes.insert(attack.graph().graph().shape_fingerprint());
        }
        let mut oracle = DualOracle::new();
        for combo in Combo::all() {
            let Some(name) = combo.known_name() else {
                continue;
            };
            let template = Scenario::template(combo);
            let v = oracle.classify(&template)?;
            known_shapes.insert(v.raw_fingerprint);
            rediscovery.insert(v.raw_fingerprint, name);
            if minimize {
                known_shapes.insert(minimized_fingerprint(&mut oracle, &template)?);
            }
        }
        Ok(KnownCatalog {
            known_shapes,
            rediscovery,
        })
    }
}

/// Minimizes `s` and fingerprints the minimized lifted shape.
fn minimized_fingerprint(oracle: &mut DualOracle, s: &Scenario) -> Result<u64, FuzzError> {
    let (min, _) = shrink::minimize(oracle, s);
    Ok(analyzer::lift(&min.program, &min.lift_config())?
        .graph()
        .shape_fingerprint())
}

/// Runs the discovery loop: classify candidates `corpus.classified..budget`,
/// record divergences and rediscoveries, shrink and register novel
/// leakers, and (when `corpus_dir` is given) persist the corpus.
///
/// Deterministic by construction: candidate `i` is a pure function of
/// `(seed, i)`, workers merge by index, and the dedup/shrink phase is
/// sequential in index order — so runs are bit-identical across thread
/// counts and across save/resume splits.
///
/// # Errors
///
/// [`FuzzError`] on oracle failure for a *generated* candidate (a bug,
/// not an expected outcome), on corpus persistence failure, or when the
/// on-disk corpus was produced with a different seed or minimize flag.
pub fn fuzz(config: &FuzzConfig, corpus_dir: Option<&Path>) -> Result<FuzzReport, FuzzError> {
    let mut recovered = None;
    let mut corpus = match corpus_dir {
        Some(dir) => match Corpus::load(dir) {
            Ok(Some(existing)) => {
                if existing.seed != config.seed {
                    return Err(FuzzError::Resume(format!(
                        "corpus seed {} != requested seed {}",
                        existing.seed, config.seed
                    )));
                }
                if existing.minimize != config.minimize {
                    return Err(FuzzError::Resume(
                        "corpus minimize flag differs from request".into(),
                    ));
                }
                existing
            }
            Ok(None) => Corpus::new(config.seed, config.minimize),
            // A half-written corpus (writer killed mid-save) is typed
            // truncation, not a fatal parse error: discard it, report the
            // recovery, and re-classify from the last good budget — here
            // budget 0, since no complete corpus survived.
            Err(e) if e.is_recoverable() => {
                recovered = Some(e.to_string());
                Corpus::new(config.seed, config.minimize)
            }
            Err(e) => return Err(e.into()),
        },
        None => Corpus::new(config.seed, config.minimize),
    };

    let start = corpus.classified;
    let end = config.budget.max(start);
    let newly_classified = end - start;
    if newly_classified > 0 {
        let catalog = KnownCatalog::build(config.minimize)?;
        let mut oracle = DualOracle::new();
        let mut seen: HashSet<u64> = corpus.raw_seen.iter().copied().collect();
        let mut found: HashSet<u64> = corpus
            .findings
            .iter()
            .map(|f| f.minimized_fingerprint)
            .collect();
        // Classification proceeds in checkpoint-sized batches (one batch
        // when checkpointing is off); per-candidate work is identical
        // either way, so the final corpus is bit-identical for every
        // checkpoint cadence.
        let step = match config.checkpoint_every {
            0 => newly_classified,
            every => every,
        };
        let mut next = start;
        while next < end {
            let stop = end.min(next + step);
            classify_batch(
                config,
                &catalog,
                &mut oracle,
                &mut seen,
                &mut found,
                &mut corpus,
                next,
                stop,
            )?;
            next = stop;
            if next < end {
                if let Some(dir) = corpus_dir {
                    corpus.save(dir)?;
                }
            }
        }
    }

    if let Some(dir) = corpus_dir {
        corpus.save(dir)?;
    }
    Ok(FuzzReport {
        corpus,
        newly_classified,
        recovered,
    })
}

/// Classifies candidates `[start, stop)` into `corpus`, sequentially in
/// index order (the classification itself fans out across workers). One
/// batch of [`fuzz`]'s loop — split out so checkpointed and single-shot
/// runs share one code path.
#[allow(clippy::too_many_arguments)]
fn classify_batch(
    config: &FuzzConfig,
    catalog: &KnownCatalog,
    oracle: &mut DualOracle,
    seen: &mut HashSet<u64>,
    found: &mut HashSet<u64>,
    corpus: &mut Corpus,
    start: u64,
    stop: u64,
) -> Result<(), FuzzError> {
    {
        let classified = classify_range(config, start, stop)?;
        for (index, scenario, verdicts) in classified {
            let agreement = verdicts.agreement(&scenario);
            match agreement {
                Agreement::AgreeLeak => corpus.agree_leak += 1,
                Agreement::AgreeSafe => corpus.agree_safe += 1,
                _ => corpus.divergences.push(DivergenceRecord {
                    index,
                    combo: scenario.combo.label(),
                    mutations: scenario.mutations.clone(),
                    agreement: agreement.tag().into(),
                }),
            }
            let fresh = seen.insert(verdicts.raw_fingerprint);
            if fresh {
                corpus.raw_seen.push(verdicts.raw_fingerprint);
            }
            if !(verdicts.graph_leak && verdicts.sim_leak) {
                continue;
            }
            if let Some(&name) = catalog.rediscovery.get(&verdicts.raw_fingerprint) {
                if !corpus.rediscovered.iter().any(|r| r.name == name) {
                    corpus.rediscovered.push(Rediscovery {
                        name: name.into(),
                        index,
                        fingerprint: verdicts.raw_fingerprint,
                    });
                }
                continue;
            }
            if !fresh || catalog.known_shapes.contains(&verdicts.raw_fingerprint) {
                continue;
            }
            // A novel leaking shape: minimize and register.
            let (minimized_fingerprint, min, removed) = if config.minimize {
                let (min, stats) = shrink::minimize(oracle, &scenario);
                let fp = analyzer::lift(&min.program, &min.lift_config())?
                    .graph()
                    .shape_fingerprint();
                (fp, min, stats.removed)
            } else {
                (verdicts.raw_fingerprint, scenario.clone(), 0)
            };
            if catalog.known_shapes.contains(&minimized_fingerprint)
                || !found.insert(minimized_fingerprint)
            {
                continue;
            }
            corpus.findings.push(Finding {
                index,
                combo: scenario.combo.label(),
                mutations: scenario.mutations.clone(),
                raw_fingerprint: verdicts.raw_fingerprint,
                minimized_fingerprint,
                program: isa::asm::disassemble(&min.program),
                access_pc: min.access_pc as u64,
                gadget_pc: min.gadget_pc as u64,
                benign_pc: min.benign_pc as u64,
                removed: removed as u64,
            });
        }
        corpus.classified = stop;
    }
    Ok(())
}

/// Classifies candidates `[start, end)` and returns them in index order.
/// Parallel across `config.threads` workers of the shared executor, each
/// owning a warm [`DualOracle`].
#[allow(clippy::type_complexity)]
fn classify_range(
    config: &FuzzConfig,
    start: u64,
    end: u64,
) -> Result<Vec<(u64, Scenario, Verdicts)>, FuzzError> {
    crate::exec::map_indexed(
        (end - start) as usize,
        config.threads,
        DualOracle::new,
        |oracle, k| {
            let i = start + k as u64;
            let s = Scenario::generate(config.seed, i);
            let v = oracle.classify(&s)?;
            Ok((i, s, v))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budget_run_is_deterministic_across_threads() {
        let base = FuzzConfig {
            seed: 7,
            budget: 24,
            minimize: false,
            threads: 1,
            checkpoint_every: 0,
        };
        let a = fuzz(&base, None).unwrap();
        let b = fuzz(
            &FuzzConfig {
                threads: 4,
                ..base.clone()
            },
            None,
        )
        .unwrap();
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.corpus.to_json(), b.corpus.to_json());
        assert_eq!(a.newly_classified, 24);
    }

    #[test]
    fn budget_below_checkpoint_classifies_nothing() {
        let dir = std::env::temp_dir().join(format!("fuzz-resume-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = FuzzConfig {
            seed: 11,
            budget: 12,
            minimize: false,
            threads: 1,
            checkpoint_every: 0,
        };
        let first = fuzz(&cfg, Some(&dir)).unwrap();
        assert_eq!(first.newly_classified, 12);
        let resumed = fuzz(&cfg, Some(&dir)).unwrap();
        assert_eq!(resumed.newly_classified, 0);
        assert_eq!(resumed.corpus, first.corpus);
        // A different seed refuses to reuse the corpus.
        let err = fuzz(
            &FuzzConfig {
                seed: 12,
                ..cfg.clone()
            },
            Some(&dir),
        )
        .unwrap_err();
        assert!(matches!(err, FuzzError::Resume(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
