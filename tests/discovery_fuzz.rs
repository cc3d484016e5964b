//! Satellite battery for the synthesized-scenario fuzzing loop
//! (`specgraph::discovery::fuzz`): a fixed-seed corpus with every
//! divergence explicitly classified, bit-identity across runs / thread
//! counts / save-resume splits, rediscovery of the known §V-A attacks,
//! and the shrinker's still-leaks + 1-minimality + determinism contract.

use proptest::prelude::*;
use specgraph::discovery::fuzz::{
    self, fuzz, is_one_minimal, minimize, DualOracle, FuzzConfig, FuzzError, Scenario, ShrinkStats,
};
use std::path::PathBuf;

/// The acceptance run every assertion below shares: default seed, default
/// budget, minimization on. Computed once (it is the expensive part) and
/// reused across the tests in this binary.
fn acceptance_corpus() -> &'static fuzz::Corpus {
    static CORPUS: std::sync::OnceLock<fuzz::Corpus> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        fuzz(&FuzzConfig::default(), None)
            .expect("generated candidates never fail the oracles")
            .corpus
    })
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specgraph-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn fixed_seed_corpus_classifies_every_candidate_with_no_unexplained_divergence() {
    let corpus = acceptance_corpus();
    assert_eq!(corpus.seed, 42);
    assert!(
        corpus.classified >= 500,
        "default budget must classify at least 500 scenarios, got {}",
        corpus.classified
    );
    // Every candidate lands in exactly one bucket: agreement counters
    // plus divergence records account for the full budget.
    assert_eq!(
        corpus.agree_leak + corpus.agree_safe + corpus.divergences.len() as u64,
        corpus.classified,
        "every candidate must be classified"
    );
    assert!(corpus.agree_leak > 0, "some candidates must agree-leak");
    assert!(corpus.agree_safe > 0, "some candidates must agree-safe");
    // Divergences are first-class findings, never silently passed: each
    // one carries an explanation, and nothing is unexplained.
    assert!(
        !corpus.divergences.is_empty(),
        "the mutation menu is designed to produce divergences"
    );
    assert!(
        corpus.unexplained().is_empty(),
        "unexplained divergences: {:?}",
        corpus.unexplained()
    );
    let tags: std::collections::HashSet<&str> = corpus
        .divergences
        .iter()
        .map(|d| d.agreement.as_str())
        .collect();
    // Both divergence directions appear: the simulation missing a
    // graph-predicted leak, and the graph blessing a simulated leak.
    assert!(
        tags.iter().any(|t| t.starts_with("missed-leak/")),
        "{tags:?}"
    );
    assert!(
        tags.iter().any(|t| t.starts_with("false-sense/")),
        "{tags:?}"
    );
}

#[test]
fn default_run_discovers_novel_minimal_leakers() {
    let corpus = acceptance_corpus();
    assert!(
        corpus.findings.len() >= 3,
        "default budget must grow the catalog by at least 3 novel shapes, got {}",
        corpus.findings.len()
    );
    // Fingerprints are distinct among themselves and disjoint from every
    // hand-built registry row's graph shape.
    let mut fps: Vec<u64> = corpus
        .findings
        .iter()
        .map(|f| f.minimized_fingerprint)
        .collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), corpus.findings.len(), "duplicate finding shapes");
    for attack in specgraph::attacks::registry() {
        let known = attack.graph().graph().shape_fingerprint();
        assert!(
            !fps.contains(&known),
            "finding collides with catalog row {}",
            attack.info().name
        );
    }
    // Each finding still leaks under both oracles and is 1-minimal.
    let mut oracle = DualOracle::new();
    for f in &corpus.findings {
        let s = f.scenario().expect("stored finding re-assembles");
        let v = oracle.classify(&s).expect("stored finding classifies");
        assert!(
            v.graph_leak && v.sim_leak,
            "finding {} must leak under both oracles",
            f.name()
        );
        assert!(
            is_one_minimal(&mut oracle, &s),
            "finding {} is not 1-minimal",
            f.name()
        );
    }
}

#[test]
fn default_run_rediscovers_the_known_attacks() {
    let corpus = acceptance_corpus();
    let found: Vec<&str> = corpus
        .rediscovered
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    for name in [
        specgraph::attacks::names::SPECTRE_V1,
        specgraph::attacks::names::SPECTRE_V2,
        specgraph::attacks::names::SPECTRE_RSB,
        specgraph::attacks::names::MELTDOWN,
        specgraph::attacks::names::SPECTRE_V3A,
    ] {
        assert!(
            found.contains(&name),
            "default seed+budget must rediscover {name}; found {found:?}"
        );
    }
    assert!(found.len() >= 5);
}

#[test]
fn checked_in_seed_corpus_manifest_is_reproduced() {
    // tests/data/fuzz-seed-corpus.json is the pinned regression artifact:
    // the exact corpus `campaign fuzz --seed 42 --budget 64` writes. Any
    // change to the generator, oracles, fingerprint, or shrinker shows up
    // here as a diff that must be reviewed (and the file regenerated
    // deliberately), never as silent drift.
    let fresh = fuzz(
        &FuzzConfig {
            seed: 42,
            budget: 64,
            minimize: true,
            threads: 0,
            checkpoint_every: 0,
        },
        None,
    )
    .unwrap()
    .corpus
    .to_json();
    assert_eq!(
        fresh,
        include_str!("data/fuzz-seed-corpus.json"),
        "seed corpus drifted from the checked-in manifest; if intentional, \
         regenerate tests/data/fuzz-seed-corpus.json with \
         `campaign fuzz --seed 42 --budget 64 --corpus DIR`"
    );
}

#[test]
fn budget_512_corpus_manifest_is_reproduced_at_one_and_two_threads() {
    // tests/data/fuzz-seed42-budget512-corpus.json is the exact corpus
    // `campaign fuzz --seed 42 --budget 512` writes. At this budget many
    // candidates are identical and many shrink steps recur across
    // minimizations, so it pins that sharing those answers changes no
    // byte, whether one thread or two ask the questions.
    for threads in [1, 2] {
        let fresh = fuzz(
            &FuzzConfig {
                threads,
                ..FuzzConfig::default()
            },
            None,
        )
        .unwrap()
        .corpus
        .to_json();
        assert_eq!(
            fresh,
            include_str!("data/fuzz-seed42-budget512-corpus.json"),
            "--threads {threads}: budget-512 corpus drifted from the checked-in manifest"
        );
    }
}

#[test]
fn pinned_corpora_load_and_reserialize_byte_identically() {
    // The corpus reader checks every divergence's agreement and combo
    // tags; both checked-in corpora pass it and come back unchanged.
    for pinned in [
        include_str!("data/fuzz-seed-corpus.json"),
        include_str!("data/fuzz-seed42-budget512-corpus.json"),
    ] {
        let corpus = fuzz::Corpus::from_json(pinned).unwrap();
        assert!(corpus.unexplained().is_empty());
        assert_eq!(corpus.to_json(), pinned);
    }
}

#[test]
fn fuzz_loop_is_bit_identical_across_runs_and_thread_counts() {
    let cfg = FuzzConfig {
        seed: 1234,
        budget: 96,
        minimize: true,
        threads: 1,
        checkpoint_every: 0,
    };
    let corpus = fuzz(&cfg, None).unwrap().corpus;
    // Several findings, so the parallel minimize phase runs more than one
    // job and the thread counts below exercise its fan-out.
    assert!(
        corpus.findings.len() >= 2,
        "the pinned run must shrink at least 2 findings, got {}",
        corpus.findings.len()
    );
    let single = corpus.to_json();
    let again = fuzz(&cfg, None).unwrap().corpus.to_json();
    assert_eq!(single, again, "same config must reproduce bit-identically");
    let checkpointed = fuzz(
        &FuzzConfig {
            checkpoint_every: 16,
            threads: 2,
            ..cfg.clone()
        },
        None,
    )
    .unwrap()
    .corpus
    .to_json();
    assert_eq!(
        single, checkpointed,
        "16-candidate batches on 2 threads changed the corpus"
    );
    for threads in [2, 3, 8] {
        let parallel = fuzz(
            &FuzzConfig {
                threads,
                ..cfg.clone()
            },
            None,
        )
        .unwrap()
        .corpus
        .to_json();
        assert_eq!(single, parallel, "--threads {threads} changed the corpus");
    }
}

#[test]
fn save_resume_split_matches_the_uninterrupted_run() {
    let dir = tmp_dir("fuzz-split");
    let full = fuzz(
        &FuzzConfig {
            seed: 9,
            budget: 80,
            minimize: true,
            threads: 0,
            checkpoint_every: 0,
        },
        None,
    )
    .unwrap()
    .corpus;
    // Same work split into 30 + 50, checkpointed on disk in between.
    let half = FuzzConfig {
        seed: 9,
        budget: 30,
        minimize: true,
        threads: 0,
        checkpoint_every: 0,
    };
    fuzz(&half, Some(&dir)).unwrap();
    let resumed = fuzz(&FuzzConfig { budget: 80, ..half }, Some(&dir)).unwrap();
    assert_eq!(resumed.newly_classified, 50);
    assert_eq!(resumed.corpus.to_json(), full.to_json());
    // Resuming at the same budget re-classifies nothing.
    let noop = fuzz(&FuzzConfig { budget: 80, ..half }, Some(&dir)).unwrap();
    assert_eq!(noop.newly_classified, 0);
    assert_eq!(noop.corpus.to_json(), full.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_resume_parameters_are_refused() {
    let dir = tmp_dir("fuzz-mismatch");
    let cfg = FuzzConfig {
        seed: 5,
        budget: 8,
        minimize: true,
        threads: 1,
        checkpoint_every: 0,
    };
    fuzz(&cfg, Some(&dir)).unwrap();
    let seed_err = fuzz(
        &FuzzConfig {
            seed: 6,
            ..cfg.clone()
        },
        Some(&dir),
    )
    .unwrap_err();
    assert!(matches!(seed_err, FuzzError::Resume(_)), "{seed_err}");
    let min_err = fuzz(
        &FuzzConfig {
            minimize: false,
            ..cfg.clone()
        },
        Some(&dir),
    )
    .unwrap_err();
    assert!(matches!(min_err, FuzzError::Resume(_)), "{min_err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The shrinker as it was written against [`DualOracle::classify`]: the
/// reference [`minimize`] must reproduce step for step.
fn reference_minimize(oracle: &mut DualOracle, scenario: &Scenario) -> (Scenario, ShrinkStats) {
    let mut still_leaks = |s: &Scenario| {
        oracle
            .classify(s)
            .map(|v| v.graph_leak && v.sim_leak)
            .unwrap_or(false)
    };
    let mut current = scenario.clone();
    let mut stats = ShrinkStats::default();
    loop {
        let mut accepted_this_pass = false;
        let mut pc = 0;
        while pc < current.program.len() {
            match current.with_removed(pc) {
                Some(candidate) => {
                    stats.evaluations += 1;
                    if still_leaks(&candidate) {
                        current = candidate;
                        stats.removed += 1;
                        accepted_this_pass = true;
                    } else {
                        pc += 1;
                    }
                }
                None => pc += 1,
            }
        }
        if !accepted_this_pass {
            return (current, stats);
        }
    }
}

/// [`DualOracle::both_leak`] gives `classify`'s both-oracle answer (an
/// error meaning "no") on generated scenarios and on every single-instruction
/// deletion of each and of its minimized form, and [`minimize`] built on it
/// shrinks exactly as the `classify`-based reference does.
#[test]
fn both_leak_matches_classify_on_every_single_deletion() {
    // Separate oracles: the `both_leak` side skips the simulations the
    // graph rules out, so its warm machine sees a different run sequence.
    let mut fast = DualOracle::new();
    let mut reference = DualOracle::new();
    let (mut judged, mut leaks, mut errors, mut shrunk) = (0, 0, 0, 0);
    for i in 0..48 {
        let s = Scenario::generate(42, i);
        let mut roots = vec![s.clone()];
        if reference
            .classify(&s)
            .is_ok_and(|v| v.graph_leak && v.sim_leak)
        {
            let (min, stats) = reference_minimize(&mut reference, &s);
            assert_eq!(
                minimize(&mut fast, &s),
                (min.clone(), stats),
                "candidate {i}"
            );
            shrunk += 1;
            // Deleting from a minimal program is where candidates start
            // to fail.
            roots.push(min);
        }
        let deletions = roots
            .iter()
            .flat_map(|r| (0..r.program.len()).filter_map(|pc| r.with_removed(pc)));
        for c in std::iter::once(s.clone()).chain(deletions) {
            let want = match reference.classify(&c) {
                Ok(v) => v.graph_leak && v.sim_leak,
                Err(_) => {
                    errors += 1;
                    false
                }
            };
            assert_eq!(fast.both_leak(&c), want, "candidate {i}: {:?}", c.program);
            judged += 1;
            leaks += usize::from(want);
        }
    }
    // The set covers every answer: leaks, clean runs and failures (a
    // return-family program shrunk past its call site fails to simulate;
    // the analyzer lifts every valid program).
    assert!(
        leaks > 0 && judged - leaks - errors > 0 && errors > 0 && shrunk >= 4,
        "{judged} judged, {leaks} leaks, {errors} errors, {shrunk} shrunk"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shrinker's contract on arbitrary both-oracle leakers: the
    /// minimized scenario still leaks under both oracles, is 1-minimal,
    /// and minimization is deterministic for a given input.
    #[test]
    fn shrinker_preserves_the_leak_and_reaches_one_minimality(seed in any::<u64>()) {
        let mut oracle = DualOracle::new();
        // Find the first both-oracle leaker in this seed's stream.
        let mut candidate = None;
        for i in 0..32u64 {
            let s = Scenario::generate(seed, i);
            let v = oracle.classify(&s).expect("generated candidates classify");
            if v.graph_leak && v.sim_leak {
                candidate = Some(s);
                break;
            }
        }
        let s = candidate.expect("32 candidates always contain a leaker");
        let (min_a, stats) = minimize(&mut oracle, &s);
        let v = oracle.classify(&min_a).expect("minimized scenario classifies");
        prop_assert!(v.graph_leak && v.sim_leak, "minimization broke the leak");
        prop_assert!(is_one_minimal(&mut oracle, &min_a), "not 1-minimal");
        prop_assert!(min_a.program.len() + stats.removed == s.program.len());
        // Deterministic: a second minimization of the same input agrees.
        let (min_b, _) = minimize(&mut oracle, &s);
        prop_assert_eq!(min_a, min_b);
    }
}
