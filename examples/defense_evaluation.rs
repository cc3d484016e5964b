//! The full defense-effectiveness matrix: every Table-III attack run under
//! every Table-II/§V-B defense, verdicts printed as a grid — the executable
//! version of the paper's claim that each defense works exactly where its
//! inserted security dependency matches the attack's missing edge.
//!
//! A thin consumer of the campaign engine: one parallel
//! `CampaignMatrix::run` call produces every verdict, the grid below is
//! pure formatting, and the §V-B false-sense list is a matrix query.
//!
//! Run with: `cargo run --release --example defense_evaluation`

use specgraph::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let matrix = CampaignMatrix::run(&CampaignSpec::builder(UarchConfig::default()).build())?;
    let (attacks_n, defenses_n, _) = matrix.shape();

    println!("Defense-effectiveness matrix ({defenses_n} defenses × {attacks_n} attacks)\n");
    println!("legend: '#' blocked, '!' leaked, '.' software-only (graph-level)\n");

    // Column header: defense indices.
    println!(
        "{:32} {}",
        "attack \\ defense",
        (0..defenses_n)
            .map(|i| format!("{i:>2}"))
            .collect::<String>()
    );
    for a in &matrix.attacks {
        let mut row = String::new();
        for d in &matrix.defenses {
            let cell = matrix.cell(a.name, d.name(), 0).expect("full matrix");
            row.push_str(match cell.evaluation.mechanism {
                Verdict::Blocked => " #",
                Verdict::Leaked => " !",
                Verdict::GraphOnly => " .",
            });
        }
        println!("{:32}{row}", a.name);
    }

    println!("\ndefense key:");
    for (i, d) in matrix.defenses.iter().enumerate() {
        let member = &d.members()[0];
        println!(
            "  {:>2}  {} — strategy {} ({})",
            i,
            d.name(),
            member.strategy.label(),
            member.origin
        );
    }

    let false_senses = matrix.false_senses();
    println!(
        "\n{} of {} cells are §V-B 'false sense of security' pairs — the",
        false_senses.len(),
        matrix.cells().len()
    );
    println!("strategy would close the leak path, but the mechanism inserts its");
    println!("ordering at a different node than this attack's missing edge:");
    for cell in false_senses.iter().take(8) {
        println!("  - {} vs {}", cell.defense, cell.attack);
    }
    if false_senses.len() > 8 {
        println!(
            "  … and {} more (see CampaignMatrix::to_csv)",
            false_senses.len() - 8
        );
    }

    // The branch-history rows (Spectre v2 / Retbleed) against Figure 8's
    // strategy-④ defenses, which clear or bypass the shared predictors:
    // the slice where the two variants diverge from their undefended
    // baseline. IBPB and retpoline stop both; RSB stuffing stops neither a
    // poisoned BTB nor Retbleed's underflow fallback.
    let clear = CampaignSpec::builder(UarchConfig::default())
        .attacks([
            attacks::find(attacks::names::SPECTRE_V2).expect("registered"),
            attacks::find(attacks::names::RETBLEED).expect("registered"),
        ])
        .defense_stacks(
            ["ibpb", "retpoline", "rsb-stuffing"].map(|t| DefenseStack::parse(t).expect("token")),
        )
        .build();
    let clear_matrix = CampaignMatrix::run(&clear)?;
    println!(
        "
clear-predictions slice (④):"
    );
    for row in clear_matrix.baselines() {
        let verdict = if row.leaked { "leaked" } else { "blocked" };
        println!("  {:<12} {:<14} {verdict}", row.info.name, "undefended");
    }
    for cell in clear_matrix.cells() {
        println!(
            "  {:<12} {:<14} {}",
            cell.attack,
            cell.defense,
            cell.mechanism_token()
        );
    }
    Ok(())
}
