//! Cross-process campaign acceptance: drive the `campaign` CLI code path
//! (the same [`bench::campaign_cli::main_with`] entry the binary calls)
//! to write shard part files to a temp dir, merge them, and assert the
//! merged CSV/JSON is **bit-identical** to a single-shot `spec.run()` —
//! for n ∈ {1, 2, 5} and a seeded-random n — plus the incremental no-op
//! and the merge/render failure modes.

use bench::campaign_cli::{main_with, CliError, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specgraph::campaign::{CampaignIoError, CampaignMatrix, CampaignSpec, Knob, MergeError};
use specgraph::{attacks, defenses};
use std::fs;
use std::path::PathBuf;
use uarch::UarchConfig;

/// The spec flags under test: 3 attacks × 2 defenses × 2 ROB depths.
const SPEC_FLAGS: &[&str] = &[
    "--attacks",
    "Spectre v1,Spectre v2,Meltdown",
    "--defenses",
    "LFENCE,NDA",
    "--axis",
    "rob=16,64",
];

/// The equivalent in-process spec, for the single-shot oracle.
fn oracle_spec() -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .attacks(
            ["Spectre v1", "Spectre v2", "Meltdown"]
                .iter()
                .map(|n| attacks::find(n).expect("registered")),
        )
        .defenses(
            ["LFENCE", "NDA"]
                .iter()
                .map(|n| *defenses::find(n).expect("registered")),
        )
        .axis(Knob::RobDepth, [16usize, 64])
        .build()
}

fn run(list: &[&str]) -> Result<Outcome, CliError> {
    main_with(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
}

/// `extra` (subcommand first) followed by the shared spec flags.
fn with_spec<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    extra
        .iter()
        .copied()
        .chain(SPEC_FLAGS.iter().copied())
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("tempdir");
    dir
}

#[test]
fn sharded_cli_pipeline_is_bit_identical_to_single_shot() {
    let spec = oracle_spec();
    let whole = CampaignMatrix::run(&spec).unwrap();
    let (expected_json, expected_csv) = (whole.to_json(), whole.to_csv());
    let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));
    let random_n = usize::try_from(rng.gen_range(6..20)).unwrap();
    let dir = tempdir("shards");
    for n in [1usize, 2, 5, random_n] {
        let mut part_args: Vec<String> = vec!["merge".to_owned()];
        for i in 0..n {
            let part = dir.join(format!("part-{i}-of-{n}.json"));
            let shard = format!("{i}/{n}");
            let outcome = run(&with_spec(&[
                "run",
                "--shard",
                &shard,
                "--out",
                part.to_str().unwrap(),
            ]))
            .expect("shard runs");
            assert!(
                matches!(outcome, Outcome::RanShard { index, of, .. } if index == i && of == n),
                "unexpected outcome {outcome:?}"
            );
            part_args.push(part.to_str().unwrap().to_owned());
        }
        let (matrix, csv) = (dir.join("matrix.json"), dir.join("matrix.csv"));
        part_args.extend([
            "--out".to_owned(),
            matrix.to_str().unwrap().to_owned(),
            "--csv".to_owned(),
            csv.to_str().unwrap().to_owned(),
        ]);
        let outcome = main_with(&part_args).expect("parts merge");
        assert_eq!(
            outcome,
            Outcome::Merged {
                parts: n,
                tasks: spec.total_tasks()
            }
        );
        assert_eq!(
            fs::read_to_string(&matrix).unwrap(),
            expected_json,
            "JSON differs from single-shot for n={n}"
        );
        assert_eq!(
            fs::read_to_string(&csv).unwrap(),
            expected_csv,
            "CSV differs from single-shot for n={n}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_rerun_across_the_cli_boundary_is_free() {
    let dir = tempdir("incremental");
    let matrix = dir.join("matrix.json");
    let outcome = run(&with_spec(&["run", "--out", matrix.to_str().unwrap()])).expect("full run");
    let total = oracle_spec().total_tasks();
    assert_eq!(
        outcome,
        Outcome::Ran {
            evaluated: total,
            reused: 0
        }
    );
    let first = fs::read_to_string(&matrix).unwrap();

    // Unchanged spec, previous matrix from disk: zero cells evaluated,
    // byte-identical output.
    let again = dir.join("again.json");
    let outcome = run(&with_spec(&[
        "run",
        "--incremental",
        "--prev",
        matrix.to_str().unwrap(),
        "--out",
        again.to_str().unwrap(),
    ]))
    .expect("incremental run");
    assert_eq!(
        outcome,
        Outcome::Ran {
            evaluated: 0,
            reused: total
        }
    );
    assert_eq!(fs::read_to_string(&again).unwrap(), first);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn render_regenerates_heatmaps_from_disk() {
    let dir = tempdir("render");
    let matrix = dir.join("matrix.json");
    run(&with_spec(&["run", "--out", matrix.to_str().unwrap()])).expect("full run");
    let (csv, svg) = (dir.join("fig8.csv"), dir.join("fig8.svg"));
    let outcome = run(&[
        "render",
        "--figure8",
        matrix.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ])
    .expect("render");
    // 1 undefended row + 2 defenses; 2 config slices (rob=16, rob=64).
    assert_eq!(
        outcome,
        Outcome::Rendered {
            rows: 3,
            configs: 2
        }
    );
    let csv = fs::read_to_string(&csv).unwrap();
    assert!(csv.starts_with("defense,config,attacks,leaked,leak_rate,"));
    assert_eq!(csv.lines().count(), 1 + 3 * 2);
    let svg = fs::read_to_string(&svg).unwrap();
    assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_gaps_foreign_parts_and_non_parts() {
    let dir = tempdir("badmerge");
    let p0 = dir.join("p0.json");
    let p1 = dir.join("p1.json");
    run(&with_spec(&[
        "run",
        "--shard",
        "0/2",
        "--out",
        p0.to_str().unwrap(),
    ]))
    .unwrap();
    run(&with_spec(&[
        "run",
        "--shard",
        "1/2",
        "--out",
        p1.to_str().unwrap(),
    ]))
    .unwrap();

    // A missing shard is a hard error naming the count mismatch.
    let out = dir.join("m.json");
    match run(&[
        "merge",
        p0.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]) {
        Err(CliError::Merge(MergeError::WrongCount {
            expected: 2,
            got: 1,
        })) => {}
        other => panic!("expected WrongCount, got {other:?}"),
    }

    // A shard of a *different* spec (one knob value changed) is refused
    // by spec fingerprint even though shard geometry matches.
    let foreign = dir.join("foreign.json");
    run(&[
        "run",
        "--attacks",
        "Spectre v1,Spectre v2,Meltdown",
        "--defenses",
        "LFENCE,NDA",
        "--axis",
        "rob=16,48",
        "--shard",
        "1/2",
        "--out",
        foreign.to_str().unwrap(),
    ])
    .unwrap();
    match run(&[
        "merge",
        p0.to_str().unwrap(),
        foreign.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]) {
        Err(CliError::Merge(MergeError::SpecMismatch { index: 1, .. })) => {}
        other => panic!("expected SpecMismatch, got {other:?}"),
    }

    // Handing a matrix where a part belongs is a typed kind error.
    let matrix = dir.join("matrix.json");
    run(&with_spec(&["run", "--out", matrix.to_str().unwrap()])).unwrap();
    match run(&[
        "merge",
        matrix.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]) {
        Err(CliError::Artifact {
            source: CampaignIoError::Kind { expected, .. },
            ..
        }) => assert_eq!(expected, "campaign-part"),
        other => panic!("expected a Kind error, got {other:?}"),
    }

    // …and rendering a part instead of a matrix is equally typed.
    match run(&["render", "--figure8", p0.to_str().unwrap()]) {
        Err(CliError::Artifact {
            source: CampaignIoError::Kind { expected, .. },
            ..
        }) => assert_eq!(expected, "campaign-matrix"),
        other => panic!("expected a Kind error, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_are_actionable() {
    for (args, needle) in [
        (vec!["run", "--shard", "3/2"], "I < N"),
        (vec!["run", "--shard", "nope"], "I < N"),
        (vec!["run", "--attacks", "NoSuchAttack"], "registry has"),
        (vec!["run", "--defenses", "NoSuchDefense"], "catalog tokens"),
        (
            // A conflicting or malformed stack expression is caught in
            // argument parsing, with the grammar spelled out.
            vec!["run", "--defenses", "kpti+kpti"],
            "appears twice",
        ),
        (vec!["diff", "only-one.json"], "exactly two"),
        (vec!["diff", "a.json", "b.json", "--flag"], "unknown flag"),
        (vec!["run", "--axis", "rob"], "KNOB=V1,V2"),
        (vec!["run", "--axis", "warp=9"], "unknown axis knob"),
        (vec!["run", "--axis", "rob=16,16"], "twice"),
        (
            vec!["run", "--axis", "pred=quantum"],
            "unknown predictor flavor",
        ),
        (
            vec!["run", "--axis", "hardening=magic"],
            "unknown hardening",
        ),
        (vec!["run", "--incremental"], "--prev"),
        (
            // Repeated flags never silently override each other.
            vec!["run", "--attacks", "Meltdown", "--attacks", "RIDL"],
            "given twice",
        ),
        (
            vec!["run", "--shard", "0/2", "--shard", "1/2"],
            "given twice",
        ),
        (
            vec!["run", "--shard", "0/2", "--incremental", "--prev", "x.json"],
            "merge the parts",
        ),
        (vec!["render", "matrix.json"], "--figure8"),
        (vec!["merge"], "at least one"),
        (vec!["explode"], "unknown subcommand"),
    ] {
        match run(&args) {
            Err(CliError::Usage(msg)) => {
                assert!(
                    msg.contains(needle),
                    "usage message for {args:?} should mention '{needle}', got: {msg}"
                );
            }
            other => panic!("expected a usage error for {args:?}, got {other:?}"),
        }
    }
    // Conflicting predictor/hardening axes are caught before the builder
    // could panic.
    match run(&[
        "run",
        "--axis",
        "pred=shared",
        "--axis",
        "hardening=flush-predictors",
    ]) {
        Err(CliError::Usage(msg)) => assert!(msg.contains("pred=flush")),
        other => panic!("expected a usage error, got {other:?}"),
    }
}

#[test]
fn stacked_defense_pipeline_shards_merges_and_renders() {
    // `--defenses` takes stack expressions (token grammar) and preset
    // names; the cross-process pipeline stays bit-identical to the
    // in-process stack oracle.
    let stack_flags: &[&str] = &[
        "--attacks",
        "Spectre v1,Spectre v2,BHI",
        "--defenses",
        "kpti+retpoline+ibpb,stt,linux-default",
    ];
    let oracle = CampaignSpec::builder(UarchConfig::default())
        .attacks(
            ["Spectre v1", "Spectre v2", "BHI"]
                .iter()
                .map(|n| attacks::find(n).expect("registered")),
        )
        .defense_stacks([
            defenses::DefenseStack::parse("kpti+retpoline+ibpb").unwrap(),
            defenses::DefenseStack::parse("stt").unwrap(),
            defenses::presets::linux_default(),
        ])
        .build();
    let expected = CampaignMatrix::run(&oracle).unwrap();

    let dir = tempdir("stacks");
    let with_stack_spec = |extra: &[&str]| -> Vec<String> {
        extra
            .iter()
            .chain(stack_flags.iter())
            .map(|s| (*s).to_owned())
            .collect()
    };
    let (p0, p1) = (dir.join("s0.json"), dir.join("s1.json"));
    main_with(&with_stack_spec(&[
        "run",
        "--shard",
        "0/2",
        "--out",
        p0.to_str().unwrap(),
    ]))
    .expect("stack shard 0");
    main_with(&with_stack_spec(&[
        "run",
        "--shard",
        "1/2",
        "--out",
        p1.to_str().unwrap(),
    ]))
    .expect("stack shard 1");
    let (matrix, csv) = (dir.join("m.json"), dir.join("m.csv"));
    main_with(
        &[
            "merge",
            p0.to_str().unwrap(),
            p1.to_str().unwrap(),
            "--out",
            matrix.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ]
        .map(str::to_owned),
    )
    .expect("stack parts merge");
    assert_eq!(fs::read_to_string(&matrix).unwrap(), expected.to_json());
    let csv = fs::read_to_string(&csv).unwrap();
    assert_eq!(csv, expected.to_csv());
    assert!(csv.contains("KAISER/KPTI+Retpoline+IBPB"));
    assert!(csv.contains("prevent_access+clear_predictions"));

    // Render: stack names become heatmap rows.
    let fig_csv = dir.join("fig8.csv");
    let outcome = run(&[
        "render",
        "--figure8",
        matrix.to_str().unwrap(),
        "--csv",
        fig_csv.to_str().unwrap(),
    ])
    .expect("render stacks");
    assert_eq!(
        outcome,
        Outcome::Rendered {
            rows: 1 + 3,
            configs: 1
        }
    );
    let fig = fs::read_to_string(&fig_csv).unwrap();
    assert!(fig.contains("KAISER/KPTI+Retpoline+IBPB+RSB stuffing"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_saved_matrices() {
    let dir = tempdir("diff");
    let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
    run(&with_spec(&["run", "--out", a.to_str().unwrap()])).expect("run a");
    run(&with_spec(&["run", "--out", b.to_str().unwrap()])).expect("run b");
    // Same spec twice: identical.
    let outcome = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]).expect("diff");
    assert_eq!(
        outcome,
        Outcome::Diffed {
            flips: 0,
            baseline_flips: 0,
            cycle_deltas: 0,
            added: 0,
            removed: 0,
            identical: true
        }
    );
    // A third matrix over a different knob grid: the rob=64 slice is
    // shared, the rob=16 vs rob=48 slices appear as removed/added.
    main_with(
        &[
            "run",
            "--attacks",
            "Spectre v1,Spectre v2,Meltdown",
            "--defenses",
            "LFENCE,NDA",
            "--axis",
            "rob=48,64",
            "--out",
            c.to_str().unwrap(),
        ]
        .map(str::to_owned),
    )
    .expect("run c");
    match run(&["diff", a.to_str().unwrap(), c.to_str().unwrap()]).expect("diff a c") {
        Outcome::Diffed {
            added,
            removed,
            identical,
            ..
        } => {
            // 3 baselines + 6 cells per config slice.
            assert_eq!(added, 9);
            assert_eq!(removed, 9);
            assert!(!identical);
        }
        other => panic!("expected Diffed, got {other:?}"),
    }
    // Diffing a missing file is a typed artifact error.
    match run(&["diff", a.to_str().unwrap(), "no-such.json"]) {
        Err(CliError::Artifact { .. }) => {}
        other => panic!("expected an artifact error, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_is_bit_identical_and_resumes_from_checkpoints() {
    let expected = CampaignMatrix::run(&oracle_spec()).unwrap().to_json();
    let dir = tempdir("serve");
    let ckpt = dir.join("ckpt");
    let served = dir.join("served.json");
    let serve_to = |path: &PathBuf| -> Outcome {
        run(&with_spec(&[
            "serve",
            "--workers",
            "3",
            "--chunk",
            "3",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("serve")
    };
    // Fresh scheduled run: nothing to resume, output bit-identical to the
    // in-process single-shot oracle.
    let outcome = serve_to(&served);
    let Outcome::Served {
        chunks,
        resumed: 0,
        executed,
    } = outcome
    else {
        panic!("unexpected outcome {outcome:?}");
    };
    assert_eq!(executed, chunks);
    assert!(chunks >= 4, "the cube must split into several chunks");
    assert_eq!(fs::read_to_string(&served).unwrap(), expected);

    // Simulate a mid-run kill: drop one chunk file, leaving the rest.
    fs::remove_file(ckpt.join("chunk-00001.json")).expect("checkpoint file exists");
    let resumed_out = dir.join("resumed.json");
    let outcome = serve_to(&resumed_out);
    assert!(
        matches!(
            outcome,
            Outcome::Served {
                chunks: c,
                resumed: r,
                executed: 1,
            } if c == chunks && r == chunks - 1
        ),
        "unexpected outcome {outcome:?}"
    );
    assert_eq!(fs::read_to_string(&resumed_out).unwrap(), expected);

    // Everything checkpointed now: a third run re-simulates nothing.
    let third = dir.join("third.json");
    let outcome = serve_to(&third);
    assert_eq!(
        outcome,
        Outcome::Served {
            chunks,
            resumed: chunks,
            executed: 0,
        }
    );
    assert_eq!(fs::read_to_string(&third).unwrap(), expected);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_serves_hits_reports_misses_and_simulates_on_request() {
    let dir = tempdir("query");
    let matrix = dir.join("matrix.json");
    run(&with_spec(&["run", "--out", matrix.to_str().unwrap()])).expect("full run");

    // Two hits (a cell and a baseline), one cell outside the matrix's
    // knob grid, plus a comment and a blank line.
    let batch = dir.join("batch.txt");
    fs::write(
        &batch,
        "# verdict batch\n\
         Meltdown | NDA | rob=16\n\
         \n\
         Meltdown | none | rob=64\n\
         Meltdown | LFENCE | rob=32\n",
    )
    .unwrap();

    // Without --simulate the out-of-grid cell is a reported miss.
    let outcome = run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        batch.to_str().unwrap(),
    ])
    .expect("query");
    assert_eq!(
        outcome,
        Outcome::Queried {
            answered: 2,
            hits: 2,
            simulated: 0,
            misses: 1
        }
    );

    // With --simulate the miss is computed on a warm machine and the
    // other answers still come from the index.
    let outcome = run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        batch.to_str().unwrap(),
        "--simulate",
    ])
    .expect("query --simulate");
    assert_eq!(
        outcome,
        Outcome::Queried {
            answered: 3,
            hits: 2,
            simulated: 1,
            misses: 0
        }
    );

    // Part files ingest too: a half-cube artifact still answers its rows.
    let part = dir.join("part.json");
    run(&with_spec(&[
        "run",
        "--shard",
        "0/2",
        "--out",
        part.to_str().unwrap(),
    ]))
    .expect("shard");
    let one = dir.join("one.txt");
    fs::write(&one, "Meltdown | NDA | rob=16\n").unwrap();
    match run(&[
        "query",
        part.to_str().unwrap(),
        "--queries",
        one.to_str().unwrap(),
    ])
    .expect("query part")
    {
        Outcome::Queried { answered, .. } => assert!(answered <= 1),
        other => panic!("expected Queried, got {other:?}"),
    }

    // A malformed query line is a usage error naming the line.
    let bad = dir.join("bad.txt");
    fs::write(&bad, "Meltdown\n").unwrap();
    match run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        bad.to_str().unwrap(),
    ]) {
        Err(CliError::Usage(msg)) => {
            assert!(msg.contains("query line 1"), "{msg}");
            assert!(msg.contains("stack field"), "{msg}");
        }
        other => panic!("expected a usage error, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_query_usage_errors_are_actionable() {
    for (args, needle) in [
        (vec!["serve", "--workers", "0"], "positive number"),
        (vec!["serve", "--workers", "lots"], "positive number"),
        (vec!["serve", "--chunk", "0"], "positive task count"),
        (vec!["serve", "--nope"], "unknown flag"),
        (vec!["query", "m.json", "--nope"], "unknown flag"),
        (vec!["query", "--queries"], "needs a value"),
    ] {
        match run(&args) {
            Err(CliError::Usage(msg)) => {
                assert!(
                    msg.contains(needle),
                    "usage message for {args:?} should mention '{needle}', got: {msg}"
                );
            }
            other => panic!("expected a usage error for {args:?}, got {other:?}"),
        }
    }
    // Querying a missing artifact is a typed artifact error, not a panic.
    match run(&["query", "no-such.json", "--queries", "also-missing.txt"]) {
        Err(CliError::Artifact { .. }) => {}
        other => panic!("expected an artifact error, got {other:?}"),
    }
}

#[test]
fn progress_flag_is_accepted_on_every_run_mode() {
    // --progress must not change any outcome or artifact; the lines go to
    // stderr. (Line formatting is unit-tested in bench::campaign_cli.)
    let dir = tempdir("progress");
    let quiet = dir.join("quiet.json");
    let loud = dir.join("loud.json");
    run(&with_spec(&["run", "--out", quiet.to_str().unwrap()])).expect("quiet run");
    let outcome = run(&with_spec(&[
        "run",
        "--progress",
        "--out",
        loud.to_str().unwrap(),
    ]))
    .expect("progress run");
    assert!(matches!(outcome, Outcome::Ran { .. }));
    assert_eq!(
        fs::read_to_string(&quiet).unwrap(),
        fs::read_to_string(&loud).unwrap()
    );
    // Shard mode takes it too.
    let part = dir.join("p.json");
    run(&with_spec(&[
        "run",
        "--progress",
        "--shard",
        "0/2",
        "--out",
        part.to_str().unwrap(),
    ]))
    .expect("progress shard");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_cli_discovers_deterministically_resumes_and_feeds_campaigns() {
    use specgraph::discovery::fuzz::CORPUS_FILE;
    let dir = tempdir("fuzz");
    let (c1, c2) = (dir.join("c1"), dir.join("c2"));
    let registry = dir.join("registry.json");
    let flags = |corpus: &PathBuf| {
        vec![
            "fuzz".to_owned(),
            "--seed".to_owned(),
            "42".to_owned(),
            "--budget".to_owned(),
            "64".to_owned(),
            "--corpus".to_owned(),
            corpus.to_str().unwrap().to_owned(),
        ]
    };
    let mut first = flags(&c1);
    first.extend([
        "--registry-out".to_owned(),
        registry.to_str().unwrap().to_owned(),
    ]);
    let outcome = main_with(&first).expect("fuzz run");
    let Outcome::Fuzzed {
        classified,
        newly_classified,
        rediscovered,
        findings,
        ..
    } = outcome
    else {
        panic!("expected Fuzzed, got {outcome:?}");
    };
    assert_eq!(classified, 64);
    assert_eq!(newly_classified, 64);
    assert!(rediscovered >= 1, "no known attack rediscovered");
    assert!(findings >= 1, "no novel finding in 64 candidates");

    // A second run with the same seed and budget into a fresh directory
    // produces a byte-identical corpus file (the acceptance `cmp`).
    main_with(&flags(&c2)).expect("second fuzz run");
    assert_eq!(
        fs::read(c1.join(CORPUS_FILE)).unwrap(),
        fs::read(c2.join(CORPUS_FILE)).unwrap(),
        "fuzz corpus is not deterministic"
    );

    // Resuming at the same budget re-classifies nothing and leaves the
    // corpus untouched.
    let before = fs::read(c1.join(CORPUS_FILE)).unwrap();
    let resumed = main_with(&flags(&c1)).expect("resume");
    assert!(
        matches!(
            resumed,
            Outcome::Fuzzed {
                newly_classified: 0,
                ..
            }
        ),
        "{resumed:?}"
    );
    assert_eq!(before, fs::read(c1.join(CORPUS_FILE)).unwrap());

    // The grown registry feeds straight back into a campaign run as extra
    // attack rows.
    let matrix_path = dir.join("matrix.json");
    run(&[
        "run",
        "--attacks",
        "Spectre v1",
        "--synthesized",
        registry.to_str().unwrap(),
        "--defenses",
        "none",
        "--out",
        matrix_path.to_str().unwrap(),
    ])
    .expect("synthesized campaign run");
    let matrix = fs::read_to_string(&matrix_path).expect("saved matrix");
    assert!(
        matrix.contains("synth-"),
        "synthesized rows missing from the campaign"
    );

    // Usage errors are actionable.
    let err = run(&["fuzz", "--seed", "not-a-number"]).unwrap_err();
    assert!(err.to_string().contains("--seed"), "{err}");
    let err = run(&["fuzz", "--frobnicate"]).unwrap_err();
    assert!(err.to_string().contains("campaign fuzz"), "{err}");
    // A mismatched resume is refused rather than silently rebuilt.
    let mut mismatch = flags(&c1);
    mismatch[2] = "43".to_owned();
    let err = main_with(&mismatch).unwrap_err();
    assert!(matches!(err, CliError::Fuzz(_)), "{err:?}");
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fault self-tests
// ---------------------------------------------------------------------------

#[test]
fn fault_quarantine_mode_degrades_and_heals() {
    let outcome = run(&["fault", "quarantine", "--retries", "1"]).expect("quarantine self-test");
    assert_eq!(
        outcome,
        Outcome::FaultTested {
            mode: "quarantine",
            cases: 4
        }
    );
}

#[test]
fn fault_usage_errors_are_actionable() {
    let err = run(&["fault"]).unwrap_err();
    assert!(err.to_string().contains("mode"), "{err}");
    let err = run(&["fault", "meltdown-everything"]).unwrap_err();
    assert!(err.to_string().contains("sweep"), "{err}");
    let err = run(&["fault", "sweep"]).unwrap_err();
    assert!(err.to_string().contains("--dir"), "{err}");
    let err = run(&["fault", "sweep", "--frobnicate"]).unwrap_err();
    assert!(err.to_string().contains("campaign fault"), "{err}");
}

#[test]
fn resilience_flags_parse_and_reject_garbage() {
    let err = run(&with_spec(&["run", "--retries", "many"])).unwrap_err();
    assert!(err.to_string().contains("--retries"), "{err}");
    let err = run(&with_spec(&["run", "--max-cell-cycles", "0"])).unwrap_err();
    assert!(err.to_string().contains("--max-cell-cycles"), "{err}");
}
