//! # Synthesized-scenario fuzzing: growing the attack catalog automatically
//!
//! §V-A of the paper argues that *new attacks are new combinations*: pick
//! a secret source, an authorization-delaying mechanism, and a covert
//! channel, and the composition is an attack nobody has named yet. This
//! module family turns that observation into a discovery loop:
//!
//! ```text
//!  seed ─▶ generator ─▶ Scenario ─▶ analyzer::lift ─▶ TSG ──┬─▶ Theorem 1 (graph_race)
//!            (gen)                                          └─▶ simulation (BatchRunner)
//!                                                                  │
//!                    divergence? ◀─ classify (oracle) ◀─ verdicts ──┘
//!                         │                │
//!                  first-class finding   both leak + unseen shape
//!                  (missed_leak /          │
//!                   false_sense)        shrink to 1-minimal ─▶ dedup ─▶ Corpus
//! ```
//!
//! * [`gen`] — the seeded deterministic generator: free composition over
//!   the three §V-A dimensions plus biased mutation of the composed
//!   gadget. Candidate `i` is a pure function of `(seed, i)`.
//! * [`oracle`] — the differential classifier: Theorem 1 over the lifted
//!   graph vs. end-to-end simulation, divergences explained or flagged.
//! * [`shrink`] — the minimizer: deletion passes replayed against both
//!   oracles until 1-minimal.
//! * [`corpus`] — the resumable on-disk corpus (schema v6), whose
//!   [`Corpus::attacks`] plug findings into a campaign's attack axis.
//!
//! The loop itself is [`fuzz`]: bit-identical across runs, `--threads`
//! values, and save/resume splits, because candidates derive from
//! `(seed, index)` alone. The classify and minimize phases fan out across
//! the shared executor's workers; dedup and merge are by index. Within a
//! batch each distinct question reaches the oracles once: identical
//! candidates share one classification, and the minimizations share one
//! memo of shrink-step answers.

pub mod corpus;
pub mod gen;
mod memo;
pub mod oracle;
pub(crate) mod rng;
pub mod shrink;

pub use corpus::{
    Corpus, CorpusError, DivergenceRecord, Finding, Rediscovery, CORPUS_FILE, FUZZ_SCHEMA_VERSION,
};
pub use gen::{Combo, Mutation, Scenario};
pub use oracle::{Agreement, DualOracle, FalseSenseCause, MissedLeakCause, Verdicts};
pub use rng::{candidate_rng, FuzzRng};
pub use shrink::{is_one_minimal, minimize, ShrinkStats};

use analyzer::AnalyzerError;
use attacks::AttackError;
use memo::LeakMemo;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};

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
/// minimized) shapes of the templates at the five executable points a
/// registry attack occupies.
#[derive(Debug)]
struct KnownCatalog {
    /// Fingerprints that disqualify a shape from being "novel".
    known_shapes: HashSet<u64>,
    /// Raw template fingerprint → catalog name, for rediscovery records.
    rediscovery: HashMap<u64, &'static str>,
}

impl KnownCatalog {
    /// The catalog for `config.minimize`, built on first use and kept for
    /// the life of the process: it depends on nothing else.
    fn get(config: &FuzzConfig) -> Result<&'static Self, FuzzError> {
        static CATALOGS: [OnceLock<KnownCatalog>; 2] = [OnceLock::new(), OnceLock::new()];
        let slot = &CATALOGS[usize::from(config.minimize)];
        if let Some(catalog) = slot.get() {
            return Ok(catalog);
        }
        let built = Self::build(config)?;
        Ok(slot.get_or_init(|| built))
    }

    /// Builds the catalog, classifying (and minimizing) the templates on
    /// `config.threads` workers of the shared executor.
    fn build(config: &FuzzConfig) -> Result<Self, FuzzError> {
        let mut known_shapes = HashSet::new();
        let mut rediscovery = HashMap::new();
        for attack in attacks::registry() {
            known_shapes.insert(attack.graph().graph().shape_fingerprint());
        }
        let templates: Vec<(&'static str, Scenario)> = Combo::all()
            .iter()
            .filter_map(|&combo| Some((combo.known_variants().next()?, Scenario::template(combo))))
            .collect();
        let shapes = crate::exec::map_indexed(
            templates.len(),
            config.threads,
            DualOracle::new,
            |oracle, k| {
                let template = &templates[k].1;
                let raw = oracle.classify(template)?.raw_fingerprint;
                let minimized = if config.minimize {
                    Some(minimize_and_fingerprint(oracle, template)?.0)
                } else {
                    None
                };
                Ok::<_, FuzzError>((raw, minimized))
            },
        )?;
        for (&(name, _), (raw, minimized)) in templates.iter().zip(shapes) {
            known_shapes.insert(raw);
            rediscovery.insert(raw, name);
            known_shapes.extend(minimized);
        }
        Ok(KnownCatalog {
            known_shapes,
            rediscovery,
        })
    }
}

/// Minimizes `s` and fingerprints the minimized lifted shape. Returns the
/// fingerprint, the minimized scenario and how many instructions the
/// shrinker removed.
fn minimize_and_fingerprint(
    oracle: &mut DualOracle,
    s: &Scenario,
) -> Result<(u64, Scenario, usize), FuzzError> {
    let (min, stats) = shrink::minimize(oracle, s);
    let fp = analyzer::lift(&min.program, &min.lift_config())?
        .graph()
        .shape_fingerprint();
    Ok((fp, min, stats.removed))
}

/// Runs the discovery loop: classify candidates `corpus.classified..budget`,
/// record divergences and rediscoveries, shrink and register novel
/// leakers, and (when `corpus_dir` is given) persist the corpus.
///
/// Deterministic by construction: candidate `i` is a pure function of
/// `(seed, i)`, the classify and minimize phases fan out across workers
/// (a verdict or a minimization depends only on its scenario, so sharing
/// one between identical questions changes no answer), and dedup and
/// merge are by index — so runs are bit-identical across thread counts
/// and across save/resume splits. The known-attack catalog is built once
/// per process and `minimize` flag.
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
        let catalog = KnownCatalog::get(config)?;
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
                catalog,
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

/// Classifies candidates `[start, stop)` into `corpus`. One batch of
/// [`fuzz`]'s loop — split out so checkpointed and single-shot runs share
/// one code path — in three steps:
///
/// 1. a serial pre-pass in index order over the classified candidates
///    (counts, divergences, `seen`, rediscoveries) that collects the novel
///    leakers;
/// 2. the minimizations, fanned out across workers of the shared executor
///    (each depends only on its scenario, and the lowest-index error
///    wins, as in a serial loop); their oracles share one [`LeakMemo`],
///    so a shrink step two minimizations reach is evaluated once, and the
///    memo (about one digest per distinct shrink step) is dropped with
///    the batch;
/// 3. a serial merge in index order: dedup by minimized shape and record
///    the findings.
fn classify_batch(
    config: &FuzzConfig,
    catalog: &KnownCatalog,
    seen: &mut HashSet<u64>,
    found: &mut HashSet<u64>,
    corpus: &mut Corpus,
    start: u64,
    stop: u64,
) -> Result<(), FuzzError> {
    let mut novel = Vec::new();
    for (index, scenario, verdicts) in classify_range(config, start, stop)? {
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
        if fresh && !catalog.known_shapes.contains(&verdicts.raw_fingerprint) {
            novel.push((index, scenario, verdicts.raw_fingerprint));
        }
    }

    // Minimize every novel leaking shape; the merge below registers it.
    let shrunk = if config.minimize {
        let memo = Arc::new(LeakMemo::default());
        crate::exec::map_indexed(
            novel.len(),
            config.threads,
            || DualOracle::sharing(Arc::clone(&memo)),
            |oracle, k| minimize_and_fingerprint(oracle, &novel[k].1),
        )?
    } else {
        novel
            .iter()
            .map(|(_, scenario, raw)| (*raw, scenario.clone(), 0))
            .collect()
    };

    for ((index, scenario, raw_fingerprint), (minimized_fingerprint, min, removed)) in
        novel.into_iter().zip(shrunk)
    {
        if catalog.known_shapes.contains(&minimized_fingerprint)
            || !found.insert(minimized_fingerprint)
        {
            continue;
        }
        corpus.findings.push(Finding {
            index,
            combo: scenario.combo.label(),
            mutations: scenario.mutations,
            raw_fingerprint,
            minimized_fingerprint,
            program: isa::asm::disassemble(&min.program),
            access_pc: min.access_pc as u64,
            gadget_pc: min.gadget_pc as u64,
            benign_pc: min.benign_pc as u64,
            removed: removed as u64,
        });
    }
    corpus.classified = stop;
    Ok(())
}

/// Classified candidates in index order: index, scenario, verdicts.
type Classified = Vec<(u64, Scenario, Verdicts)>;

/// Classifies candidates `[start, end)` and returns them in index order.
/// Identical candidates (same combo, program and pcs; the mutation list
/// is not read by either oracle) are classified once and share their
/// [`Verdicts`]. The distinct ones run in first-index order across
/// `config.threads` workers of the shared executor, each owning a warm
/// [`DualOracle`], so the error returned is still the lowest-index one.
fn classify_range(config: &FuzzConfig, start: u64, end: u64) -> Result<Classified, FuzzError> {
    let scenarios: Vec<Scenario> = (start..end)
        .map(|i| Scenario::generate(config.seed, i))
        .collect();
    let (firsts, group_of) = memo::distinct_questions(&scenarios);
    let verdicts = crate::exec::map_indexed(
        firsts.len(),
        config.threads,
        DualOracle::new,
        |oracle, g| oracle.classify(&scenarios[firsts[g]]),
    )?;
    Ok((start..)
        .zip(scenarios)
        .zip(group_of)
        .map(|((i, s), g)| (i, s, verdicts[g].clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 42's budget-512 batch on 2 threads, where identical candidates
    /// and shared shrink steps are common.
    fn batch() -> &'static (FuzzConfig, Classified) {
        static BATCH: OnceLock<(FuzzConfig, Classified)> = OnceLock::new();
        BATCH.get_or_init(|| {
            let config = FuzzConfig {
                threads: 2,
                ..FuzzConfig::default()
            };
            let classified = classify_range(&config, 0, config.budget).unwrap();
            (config, classified)
        })
    }

    #[test]
    fn catalog_is_built_once_per_minimize_flag() {
        let on = FuzzConfig::default();
        let off = FuzzConfig {
            minimize: false,
            ..FuzzConfig::default()
        };
        let first = KnownCatalog::get(&on).unwrap();
        assert!(std::ptr::eq(first, KnownCatalog::get(&on).unwrap()));
        assert!(!std::ptr::eq(first, KnownCatalog::get(&off).unwrap()));
    }

    #[test]
    fn deduplicated_classify_matches_per_candidate_classify() {
        let (config, classified) = batch();
        let mut oracle = DualOracle::new();
        for (k, (index, scenario, verdicts)) in classified.iter().enumerate() {
            let want = oracle.classify(scenario).unwrap();
            assert_eq!(*index, k as u64);
            assert_eq!(*scenario, Scenario::generate(config.seed, *index));
            assert_eq!(
                (
                    verdicts.raw_fingerprint,
                    verdicts.graph_leak,
                    verdicts.sim_leak,
                    &verdicts.outcome
                ),
                (
                    want.raw_fingerprint,
                    want.graph_leak,
                    want.sim_leak,
                    &want.outcome
                ),
                "candidate {index}"
            );
        }
        // Deduplication has work to do: fewer than half are distinct.
        let scenarios: Vec<Scenario> = classified.iter().map(|(_, s, _)| s.clone()).collect();
        let distinct = memo::distinct_questions(&scenarios).0.len();
        assert!(distinct * 2 < classified.len(), "{distinct} distinct");
    }

    #[test]
    fn memo_sharing_minimize_matches_memo_free_minimize() {
        let (config, classified) = batch();
        let catalog = KnownCatalog::get(config).unwrap();
        let mut seen = HashSet::new();
        let novel: Vec<&Scenario> = classified
            .iter()
            .filter(|(_, _, v)| {
                seen.insert(v.raw_fingerprint)
                    && v.graph_leak
                    && v.sim_leak
                    && !catalog.known_shapes.contains(&v.raw_fingerprint)
            })
            .map(|(_, s, _)| s)
            .collect();
        let memo = Arc::new(LeakMemo::default());
        let shared = crate::exec::map_indexed(
            novel.len(),
            2,
            || DualOracle::sharing(Arc::clone(&memo)),
            |oracle, k| Ok::<_, ()>(minimize(oracle, novel[k])),
        )
        .unwrap();
        let mut plain = DualOracle::new();
        let mut evaluations = 0;
        for (s, got) in novel.iter().zip(shared) {
            evaluations += got.1.evaluations;
            assert_eq!(got, minimize(&mut plain, s), "{:?}", s.program);
        }
        // The minimizations overlap: far fewer distinct questions than asks.
        assert!(novel.len() >= 40, "{} novel leakers", novel.len());
        assert!(
            memo.len() * 3 < evaluations * 2,
            "{} of {evaluations}",
            memo.len()
        );
    }

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
