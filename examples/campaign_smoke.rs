//! CI smoke for the campaign pipeline: run a tiny two-axis knob grid,
//! save the matrix as JSON, load it back, and re-run incrementally —
//! asserting the load round-trips bit-for-bit and the incremental pass
//! evaluates zero cells. Also exercises the shard/merge path.
//!
//! Run with: `cargo run --release --example campaign_smoke`

use specgraph::prelude::*;
use uarch::UarchConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-axis grid: 2 ROB depths × 2 predictor flavors = 4 config slices.
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
            Knob::Predictor,
            [PredictorFlavor::Shared, PredictorFlavor::FlushOnSwitch],
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

    // Sharded execution merges to the identical matrix — with every part
    // round-tripped through its JSON file, exactly as the `campaign` CLI
    // ships shards between processes.
    let parts = spec
        .shards(3)
        .iter()
        .enumerate()
        .map(
            |(i, shard)| -> Result<CampaignPart, Box<dyn std::error::Error>> {
                let path = std::env::temp_dir().join(format!(
                    "campaign-smoke-part{i}-{}.json",
                    std::process::id()
                ));
                shard.run(None)?.save_json(&path)?;
                let part = CampaignPart::load_json(&path)?;
                std::fs::remove_file(&path).ok();
                assert_eq!(part.spec_fingerprint(), spec.fingerprint());
                Ok(part)
            },
        )
        .collect::<Result<Vec<_>, _>>()?;
    let merged = CampaignMatrix::merge(parts)?;
    assert_eq!(merged.to_json(), matrix.to_json());
    println!("shard/merge: 3 part files merged bit-identically");

    // JSON round trip through a file.
    let path = std::env::temp_dir().join(format!("campaign-smoke-{}.json", std::process::id()));
    matrix.save_json(&path)?;
    let loaded = CampaignMatrix::load_json(&path)?;
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_json(), matrix.to_json());
    println!("save/load: JSON round trip is bit-identical");

    // Incremental re-run against the loaded matrix: nothing to do.
    let (again, report) = CampaignMatrix::run_incremental(&spec, Some(&loaded), None)?;
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
