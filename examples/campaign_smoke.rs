//! CI smoke for the campaign pipeline: run a tiny two-axis knob grid,
//! save the matrix as JSON, load it back, and re-run incrementally —
//! asserting the load round-trips bit-for-bit and the incremental pass
//! evaluates zero cells. Also assembles shards from checkpoint chunks.
//!
//! Run with: `cargo run --release --example campaign_smoke`

use specgraph::prelude::*;
use uarch::UarchConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-axis grid: 2 ROB depths × {unhardened, ④ flush predictors} = 4
    // config slices.
    let spec = CampaignSpec::builder(UarchConfig::default())
        .attacks([
            attacks::find(attacks::names::SPECTRE_V1).expect("registered"),
            attacks::find(attacks::names::SPECTRE_V2).expect("registered"),
            attacks::find(attacks::names::RETBLEED).expect("registered"),
        ])
        .defenses(
            [defenses::names::LFENCE, defenses::names::NDA]
                .iter()
                .map(|n| *defenses::find(n).expect("registered")),
        )
        .axis(Knob::RobDepth, [32usize, 64])
        .axis(
            Knob::Hardening,
            [Hardening::None, Hardening::FlushPredictors],
        )
        .build();
    println!("grid: {} configs", spec.configs.len());
    for nc in &spec.configs {
        println!("  - {}", nc.name);
    }

    let matrix = CampaignMatrix::run(&spec)?;
    let (a, d, c) = matrix.shape();
    println!("matrix: {a} attacks × {d} defenses × {c} configs");
    assert_eq!((a, d, c), (3, 2, 4));

    // Sharded execution assembles to the identical matrix: every shard is
    // one chunk, written into one checkpoint directory exactly as `campaign
    // run --shard I/N --checkpoint DIR` ships shards between processes, and
    // a resumed scheduler run over the directory simulates nothing.
    let dir = std::env::temp_dir().join(format!("campaign-smoke-{}", std::process::id()));
    for i in 0..3 {
        Scheduler::new(&spec).checkpoint(&dir).run_chunk(i, 3)?;
    }
    let (merged, report) = Scheduler::new(&spec).checkpoint(&dir).run()?;
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((report.resumed, report.executed), (3, 0));
    assert_eq!(merged.to_json(), matrix.to_json());
    println!("shards: 3 checkpoint chunks assembled bit-identically, 0 executed");

    // JSON round trip through a file.
    let path = std::env::temp_dir().join(format!("campaign-smoke-{}.json", std::process::id()));
    matrix.save_json(&path)?;
    let loaded = CampaignMatrix::load_json(&path)?;
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_json(), matrix.to_json());
    println!("save/load: JSON round trip is bit-identical");

    // Incremental re-run against the loaded matrix: nothing to do.
    let (again, report) = Scheduler::new(&spec).prev(&loaded).run()?;
    assert_eq!(report.evaluated, 0, "unchanged spec must reuse every cell");
    assert_eq!(report.reused, spec.total_tasks());
    assert_eq!(again.to_json(), matrix.to_json());
    println!(
        "incremental: 0 evaluated, {} reused — campaign smoke OK",
        report.reused
    );

    // Defense-stack sweep: the Linux bundle and STT side by side, with
    // the stack cells round-tripping through JSON like singletons do.
    let stacked = CampaignSpec::builder(UarchConfig::default())
        .attacks([
            attacks::find(attacks::names::SPECTRE_V1).expect("registered"),
            attacks::find(attacks::names::SPECTRE_V2).expect("registered"),
            attacks::find(attacks::names::BHI).expect("registered"),
        ])
        .defense_stacks([
            defenses::presets::linux_default(),
            DefenseStack::parse("stt").expect("parses"),
        ])
        .build();
    let stack_matrix = CampaignMatrix::run(&stacked)?;
    let linux = defenses::presets::linux_default();
    let v2 = stack_matrix
        .cell(attacks::names::SPECTRE_V2, linux.name(), 0)
        .expect("stack cell");
    assert_eq!(v2.evaluation.mechanism, Verdict::Blocked);
    let v1 = stack_matrix
        .cell(attacks::names::SPECTRE_V1, linux.name(), 0)
        .expect("stack cell");
    assert!(
        v1.false_sense_of_security(),
        "the Linux bundle is the stack-level §V-B false sense vs v1"
    );
    let reloaded = CampaignMatrix::from_json(&stack_matrix.to_json())?;
    assert_eq!(reloaded.to_json(), stack_matrix.to_json());
    println!(
        "stacks: '{}' blocks Spectre v2, still leaks Spectre v1 (false sense) — stack smoke OK",
        linux.name()
    );
    Ok(())
}
