//! Regenerates **Table III** of the paper: the authorization and
//! illegal-access nodes of every speculative attack variant — extended with
//! two verification columns: the Theorem-1 race check on the variant's
//! attack graph (answered from the reachability index), and the simulated
//! leak verdict.
//!
//! A thin consumer of the campaign engine: the baseline rows already carry
//! both verification columns.

use attacks::AttackClass;
use specgraph::campaign::{CampaignMatrix, CampaignSpec};
use uarch::UarchConfig;

fn main() {
    // Table III verifies the undefended graphs: no defense axis.
    let spec = CampaignSpec::builder(UarchConfig::default())
        .defenses(Vec::new())
        .build();
    let matrix = CampaignMatrix::run(&spec).unwrap_or_else(|e| panic!("campaign failed: {e}"));

    println!("Table III: Authorization and Access Nodes of Speculative Attacks");
    println!("(extended: graph race detected by Theorem 1; leak verified by simulation)\n");
    println!(
        "{:<16} {:<38} {:<52} {:<12} {:>6} {:>7}",
        "Attack", "Authorization", "Illegal Access", "Class", "Race?", "Leaks?"
    );
    println!("{}", "-".repeat(135));
    for row in matrix.baselines() {
        let class = match row.info.class() {
            AttackClass::Spectre => "inter-inst",
            AttackClass::Meltdown => "intra-inst",
        };
        println!(
            "{:<16} {:<38} {:<52} {:<12} {:>6} {:>7}",
            row.info.name,
            row.info.authorization,
            row.info.illegal_access,
            class,
            if row.graph_race { "yes" } else { "NO" },
            if row.leaked { "yes" } else { "NO" }
        );
    }
    println!("\nEvery row shows race=yes (the missing security dependency) and");
    println!("leaks=yes (the executable proof that the race is exploitable).");
}
