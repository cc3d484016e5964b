//! Cross-process campaign acceptance: drive the `campaign` CLI code path
//! (the same [`bench::campaign_cli::main_with`] entry the binary calls)
//! to write shards into a checkpoint directory, assemble them with `run
//! --checkpoint`, and assert the matrix CSV/JSON is **bit-identical** to
//! a single-shot `spec.run()` — for n ∈ {1, 2, 3, 7}, a seeded-random n
//! and an n above the task count — plus the incremental no-op and the
//! shard/render failure modes.

use bench::campaign_cli::{main_with, CliError, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specgraph::campaign::{CampaignIoError, CampaignMatrix, CampaignSpec, Knob};
use specgraph::serve::{self, ScheduleReport, ServeError};
use specgraph::{attacks, defenses};
use std::fs;
use std::path::{Path, PathBuf};
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

/// Runs every shard `i/n` of `spec` (the CLI flags after the subcommand)
/// into checkpoint directory `dir`.
fn run_shards(spec: &[&str], n: usize, dir: &Path) {
    for i in 0..n {
        let shard = format!("{i}/{n}");
        let mut args = vec!["run", "--shard", &shard, "--checkpoint"];
        args.push(dir.to_str().unwrap());
        args.extend_from_slice(spec);
        let outcome = run(&args).expect("shard runs");
        assert!(
            matches!(outcome, Outcome::RanShard { index, of, .. } if index == i && of == n),
            "unexpected outcome {outcome:?}"
        );
    }
}

#[test]
fn sharded_cli_pipeline_is_bit_identical_to_single_shot() {
    let spec = oracle_spec();
    let whole = CampaignMatrix::run(&spec).unwrap();
    let (expected_json, expected_csv) = (whole.to_json(), whole.to_csv());
    let total = spec.total_tasks();
    let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));
    let random_n = usize::try_from(rng.gen_range(4..20)).unwrap();
    let dir = tempdir("shards");
    let (matrix, csv) = (dir.join("matrix.json"), dir.join("matrix.csv"));
    let assemble = |ckpt: &Path| -> ScheduleReport {
        let flags = [
            "run",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            matrix.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ];
        match run(&with_spec(&flags)).expect("shards assemble") {
            Outcome::Ran(report) => report,
            other => panic!("unexpected outcome {other:?}"),
        }
    };
    // `total + 3` shards leave some chunks empty.
    for n in [1usize, 2, 3, 7, random_n, total + 3] {
        let ckpt = dir.join(format!("ckpt-{n}"));
        run_shards(SPEC_FLAGS, n, &ckpt);
        let report = assemble(&ckpt);
        assert_eq!(
            (report.chunks, report.resumed, report.executed),
            (n, n, 0),
            "{report:?}"
        );
        assert_eq!(report.resumed_tasks, total);
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
    // A missing empty chunk (with more shards than tasks, chunk 0 is
    // empty) is re-run and written again by the assembling run.
    let n = total + 3;
    let ckpt = dir.join(format!("ckpt-{n}"));
    let empty = serve::chunk_path(&ckpt, 0);
    let bytes = fs::read(&empty).unwrap();
    fs::remove_file(&empty).unwrap();
    let report = assemble(&ckpt);
    assert_eq!(
        (report.resumed, report.executed, report.evaluated),
        (n - 1, 1, 0)
    );
    assert_eq!(fs::read_to_string(&matrix).unwrap(), expected_json);
    assert_eq!(fs::read(&empty).unwrap(), bytes);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_rerun_across_the_cli_boundary_is_free() {
    let dir = tempdir("incremental");
    let matrix = dir.join("matrix.json");
    let outcome = run(&with_spec(&["run", "--out", matrix.to_str().unwrap()])).expect("full run");
    let total = oracle_spec().total_tasks();
    assert!(
        matches!(outcome, Outcome::Ran(ref r) if r.evaluated == total && r.reused == 0),
        "{outcome:?}"
    );
    let first = fs::read_to_string(&matrix).unwrap();

    // Unchanged spec, previous matrix from disk: zero cells evaluated,
    // byte-identical output.
    let again = dir.join("again.json");
    let outcome = run(&with_spec(&[
        "run",
        "--prev",
        matrix.to_str().unwrap(),
        "--out",
        again.to_str().unwrap(),
    ]))
    .expect("incremental run");
    assert!(
        matches!(outcome, Outcome::Ran(ref r) if r.evaluated == 0 && r.reused == total),
        "{outcome:?}"
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

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn shard_into_a_foreign_checkpoint_dir_is_refused_before_simulating() {
    let dir = tempdir("foreign");
    let ckpt = dir.join("ckpt");
    run_shards(SPEC_FLAGS, 2, &ckpt);
    let before = snapshot(&ckpt);
    let mismatch = |args: &[&str]| match run(args) {
        Err(CliError::Serve(ServeError::CheckpointMismatch { .. })) => {}
        other => panic!("expected CheckpointMismatch for {args:?}, got {other:?}"),
    };
    // Another spec (one knob value changed), same shard geometry: even a
    // shard index whose chunk is not on disk yet is refused.
    let foreign: Vec<&str> = with_spec(&[])
        .into_iter()
        .map(|f| if f == "rob=16,64" { "rob=16,48" } else { f })
        .collect();
    for shard in ["0/2", "1/2"] {
        let mut args = vec!["run", "--shard", shard, "--checkpoint"];
        args.push(ckpt.to_str().unwrap());
        mismatch(&[args, foreign.clone()].concat());
    }
    // The same spec cut into another number of shards.
    for shard in ["0/3", "2/3"] {
        mismatch(&with_spec(&[
            "run",
            "--shard",
            shard,
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]));
    }
    assert_eq!(
        snapshot(&ckpt),
        before,
        "a refused shard touched the directory"
    );

    // A checkpoint chunk is not a matrix: rendering one is a typed error.
    let chunk = serve::chunk_path(&ckpt, 0);
    match run(&["render", chunk.to_str().unwrap()]) {
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
        // A zero-sized structure cannot be simulated: each size knob
        // rejects 0 by name instead of panicking, quarantining every cell
        // or running into the cycle limit.
        (vec!["run", "--axis", "rob=0"], "axis 'rob'"),
        (vec!["run", "--axis", "fetch=0"], "axis 'fetch'"),
        (vec!["run", "--axis", "issue=0"], "axis 'issue'"),
        (vec!["run", "--axis", "sets=0"], "axis 'sets'"),
        (vec!["run", "--axis", "ways=0"], "axis 'ways'"),
        (vec!["run", "--axis", "lfb=0"], "axis 'lfb'"),
        (vec!["run", "--axis", "stbuf=16,0"], "axis 'stbuf'"),
        (vec!["run", "--axis", "rsb=0"], "axis 'rsb'"),
        // Every structure is allocated up front, so a size above the
        // ceiling is refused before any machine is built.
        (vec!["run", "--axis", "sets=65537"], "1..=65536"),
        (
            vec!["run", "--axis", "hardening=magic"],
            "unknown hardening",
        ),
        // Retired subcommands, knobs and flags are gone.
        (
            vec!["run", "--axis", "pred=shared"],
            "unknown axis knob 'pred'",
        ),
        (vec!["run", "--retries", "1"], "unknown flag '--retries'"),
        (vec!["serve"], "unknown subcommand"),
        (vec!["merge", "p0.json", "p1.json"], "unknown subcommand"),
        (vec!["fault", "sweep"], "unknown subcommand"),
        (vec!["run", "--incremental"], "unknown flag"),
        (vec!["render", "--figure8", "m.json"], "unknown flag"),
        (vec!["fuzz", "--registry-out", "r.json"], "unknown flag"),
        (vec!["fuzz", "--minimize"], "unknown flag"),
        (vec!["fuzz", "--no-minimize"], "unknown flag"),
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
            vec!["run", "--out", "a.json", "--out", "b.json"],
            "given twice",
        ),
        (
            vec!["render", "m.json", "--svg", "a", "--svg", "b"],
            "given twice",
        ),
        (vec!["fuzz", "--seed", "1", "--seed", "2"], "given twice"),
        (vec!["run", "--shard", "0/2"], "needs --checkpoint"),
        (
            vec!["run", "--shard", "0/2", "--out", "p.json"],
            "needs --checkpoint",
        ),
        (vec!["render"], "MATRIX.json"),
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
    // A shard writes only its chunk: every whole-matrix flag is refused.
    for flag in ["--out", "--csv", "--prev", "--chunk"] {
        match run(&["run", "--shard", "0/2", "--checkpoint", "d", flag, "3"]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("assemble"), "{flag}: {msg}"),
            other => panic!("expected a usage error for --shard {flag}, got {other:?}"),
        }
    }
}

#[test]
fn stacked_defense_pipeline_shards_merges_and_renders() {
    // `--defenses` takes stack expressions (token grammar) and preset
    // names; the cross-process pipeline (shards into one checkpoint
    // directory, assembled by a run over it) stays bit-identical to the
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
    let ckpt = dir.join("ckpt");
    run_shards(stack_flags, 2, &ckpt);
    let (matrix, csv) = (dir.join("m.json"), dir.join("m.csv"));
    main_with(&with_stack_spec(&[
        "run",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        matrix.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]))
    .expect("stack shards assemble");
    assert_eq!(fs::read_to_string(&matrix).unwrap(), expected.to_json());
    let csv = fs::read_to_string(&csv).unwrap();
    assert_eq!(csv, expected.to_csv());
    assert!(csv.contains("KAISER/KPTI+Retpoline+IBPB"));
    assert!(csv.contains("prevent_access+clear_predictions"));

    // Render: stack names become heatmap rows.
    let fig_csv = dir.join("fig8.csv");
    let outcome = run(&[
        "render",
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
    // `run --checkpoint` drives the serving layer's resumable scheduler.
    let expected = CampaignMatrix::run(&oracle_spec()).unwrap().to_json();
    let dir = tempdir("serve");
    let ckpt = dir.join("ckpt");
    let served = dir.join("served.json");
    let run_to = |path: &PathBuf| -> ScheduleReport {
        let outcome = run(&with_spec(&[
            "run",
            "--threads",
            "3",
            "--chunk",
            "3",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("checkpointed run");
        let Outcome::Ran(report) = outcome else {
            panic!("unexpected outcome {outcome:?}");
        };
        report
    };
    // Fresh scheduled run: nothing to resume, output bit-identical to the
    // in-process single-shot oracle.
    let report = run_to(&served);
    let chunks = report.chunks;
    assert_eq!(report.resumed, 0, "{report:?}");
    assert_eq!(report.executed, chunks);
    assert!(chunks >= 4, "the cube must split into several chunks");
    assert_eq!(fs::read_to_string(&served).unwrap(), expected);

    // Simulate a mid-run kill: drop one chunk file, leaving the rest.
    fs::remove_file(serve::chunk_path(&ckpt, 1)).expect("checkpoint file exists");
    let resumed_out = dir.join("resumed.json");
    let report = run_to(&resumed_out);
    assert_eq!(
        (report.chunks, report.resumed, report.executed),
        (chunks, chunks - 1, 1),
        "{report:?}"
    );
    assert_eq!(fs::read_to_string(&resumed_out).unwrap(), expected);

    // Everything checkpointed now: a third run re-simulates nothing.
    let third = dir.join("third.json");
    let report = run_to(&third);
    assert_eq!(
        (report.chunks, report.resumed, report.executed),
        (chunks, chunks, 0)
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

    // Checkpoint chunks ingest too: a half-cube shard still answers its
    // rows.
    let ckpt = dir.join("ckpt");
    run(&with_spec(&[
        "run",
        "--shard",
        "0/2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]))
    .expect("shard");
    let part = serve::chunk_path(&ckpt, 0);
    let one = dir.join("one.txt");
    fs::write(&one, "Meltdown | NDA | rob=16\n").unwrap();
    match run(&[
        "query",
        part.to_str().unwrap(),
        "--queries",
        one.to_str().unwrap(),
    ])
    .expect("query chunk")
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
    // A zero-sized structure in a query line is a usage error too, even
    // with --simulate (it would otherwise reach the simulator).
    fs::write(&bad, "Meltdown | NDA | lfb=0\n").unwrap();
    match run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        bad.to_str().unwrap(),
        "--simulate",
    ]) {
        Err(CliError::Usage(msg)) => {
            assert!(msg.contains("query line 1"), "{msg}");
            assert!(msg.contains("axis 'lfb'"), "{msg}");
        }
        other => panic!("expected a usage error, got {other:?}"),
    }
    // So is a structure size above the ceiling: it would be allocated
    // before the first simulated cycle.
    fs::write(&bad, "Meltdown | NDA | sets=4294967296\n").unwrap();
    match run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        bad.to_str().unwrap(),
        "--simulate",
    ]) {
        Err(CliError::Usage(msg)) => {
            assert!(msg.contains("query line 1"), "{msg}");
            assert!(msg.contains("axis 'sets'"), "{msg}");
        }
        other => panic!("expected a usage error, got {other:?}"),
    }
    // Latencies may be 0: a zero hit latency simulates normally.
    let zero_latency = dir.join("zero-latency.txt");
    fs::write(&zero_latency, "Meltdown | NDA | hitlat=0\n").unwrap();
    let outcome = run(&[
        "query",
        matrix.to_str().unwrap(),
        "--queries",
        zero_latency.to_str().unwrap(),
        "--simulate",
    ])
    .expect("a zero latency simulates");
    assert_eq!(
        outcome,
        Outcome::Queried {
            answered: 1,
            hits: 0,
            simulated: 1,
            misses: 0
        }
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_query_usage_errors_are_actionable() {
    for (args, needle) in [
        (vec!["run", "--threads", "lots"], "needs a number"),
        (vec!["run", "--chunk", "0"], "positive task count"),
        (vec!["run", "--nope"], "unknown flag"),
        (vec!["run", "--workers", "3"], "unknown flag"),
        (vec!["query", "m.json", "--nope"], "unknown flag"),
        (vec!["query", "--queries"], "needs a value"),
        (
            vec!["query", "--queries", "a", "--queries", "b"],
            "given twice",
        ),
        (
            vec!["run", "--threads", "2", "--threads", "3"],
            "given twice",
        ),
        (
            vec!["run", "--axis", "rob=16", "--axis", "rob=32"],
            "given twice",
        ),
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
    assert!(matches!(outcome, Outcome::Ran(_)));
    assert_eq!(
        fs::read_to_string(&quiet).unwrap(),
        fs::read_to_string(&loud).unwrap()
    );
    // Shard mode takes it too.
    run(&with_spec(&[
        "run",
        "--progress",
        "--shard",
        "0/2",
        "--checkpoint",
        dir.join("ckpt").to_str().unwrap(),
    ]))
    .expect("progress shard");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_cli_discovers_deterministically_resumes_and_feeds_campaigns() {
    use specgraph::discovery::fuzz::{CorpusError, CORPUS_FILE};
    let dir = tempdir("fuzz");
    let (c1, c2) = (dir.join("c1"), dir.join("c2"));
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
    let outcome = main_with(&flags(&c1)).expect("fuzz run");
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

    // The corpus's findings feed straight back into a campaign run as
    // extra attack rows.
    let matrix_path = dir.join("matrix.json");
    let corpus = c1.join(CORPUS_FILE);
    run(&[
        "run",
        "--attacks",
        "Spectre v1",
        "--synthesized",
        corpus.to_str().unwrap(),
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
    // A matrix is not a corpus: a typed error, not a panic.
    match run(&["run", "--synthesized", matrix_path.to_str().unwrap()]) {
        Err(CliError::Registry {
            source: CorpusError::Schema(_),
            ..
        }) => {}
        other => panic!("expected a corpus schema error, got {other:?}"),
    }

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

#[test]
fn resilience_flags_parse_and_reject_garbage() {
    let err = run(&with_spec(&["run", "--max-cell-cycles", "0"])).unwrap_err();
    assert!(err.to_string().contains("--max-cell-cycles"), "{err}");
}
