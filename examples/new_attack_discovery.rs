//! §V-A: systematic discovery of *new* attacks as unexplored points in the
//! (secret source × delay mechanism × covert channel) design space, plus a
//! live demonstration of one of them: Spectre v1 exfiltrating through
//! Prime+Probe instead of Flush+Reload.
//!
//! Run with: `cargo run --example new_attack_discovery`

use specgraph::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = discovery::design_space();
    let novel = discovery::novel_points();
    println!(
        "design space: {} points ({} published, {} candidate new attacks)\n",
        space.len(),
        space.len() - novel.len(),
        novel.len()
    );

    println!("published variants and their coordinates:");
    for p in &space {
        let names: Vec<&str> = p.known_variants().collect();
        if !names.is_empty() {
            println!("  {:55} -> {}", p.to_string(), names.join(", "));
        }
    }

    println!("\na few candidate new attacks (unexplored combinations):");
    for p in novel.iter().take(8) {
        let sa = p.graph();
        let vulns = sa.vulnerabilities()?.len();
        println!("  {:60} ({} races)", p.to_string(), vulns);
    }

    // Every candidate's graph exhibits the same root cause…
    for p in &novel {
        assert_eq!(p.graph().vulnerabilities()?.len(), 3);
    }
    println!(
        "\nall {} candidates exhibit the authorization/access race",
        novel.len()
    );

    // …and the same defenses close it.
    let mut sa = novel[0].graph();
    defenses::patch_strategy(&mut sa, Strategy::PreventAccess)?;
    assert!(sa.is_secure()?);
    println!("strategy ① secures candidate 0: {}", novel[0]);

    // A DOT rendering of one novel point, ready for `dot -Tpdf`:
    let p = discovery::AttackPoint::new(
        SecretSource::Fpu,
        discovery::DelayMechanism::TransactionAbort,
        discovery::Channel::PrimeProbe,
    );
    println!(
        "\nattack graph for '{}' (novel: {}):\n{}",
        p,
        p.known_variants().next().is_none(),
        p.graph().graph().to_dot("novel attack candidate")
    );
    Ok(())
}
