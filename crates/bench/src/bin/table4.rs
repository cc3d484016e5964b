//! **Table IV** (a new artifact, not in the paper): minimal sufficient
//! defense stacks, answering the paper's headline §V-B question by
//! exhaustive machine-checked search — *which combination of defenses
//! closes every leak path, and what is the cheapest such combination?*
//!
//! Three searches over [`specgraph::cover`]:
//!
//! 1. the **full catalog** (a singleton suffices — at ubiquitous-fencing
//!    or NDA-class cost);
//! 2. the **practical industry** set (no ubiquitous fencing): provably
//!    cannot cover the bounds-bypass family — the reason address masking
//!    exists;
//! 3. the practical industry set on its own turf (the attacks it *can*
//!    block): the provably smallest real-world bundle.
//!
//! Plus the preset-bundle audit ([`specgraph::cover::audit_stacks`]) with
//! the stack-level "false sense of security" rows called out.
//!
//! Usage: `cargo run --release -p bench --bin table4`

use specgraph::attacks::{self, Attack};
use specgraph::cover::{self, practical_industry};
use specgraph::defenses::{self, presets};
use uarch::UarchConfig;

fn main() {
    let base = UarchConfig::default();
    let attacks_list = attacks::registry();

    println!("Table IV: minimal sufficient defense stacks");
    println!(
        "(exhaustive search, every candidate stack verified by simulation \
         against all {} registry attacks)\n",
        attacks_list.len()
    );

    // 1. Full catalog.
    let full = cover::minimal_cover(attacks_list, defenses::registry(), &base)
        .unwrap_or_else(|e| panic!("cover search failed: {e}"));
    println!("over the full Table-II/§V-B catalog:");
    println!("  {full}");

    // 2. Practical industry: where coverage breaks.
    let industry = practical_industry();
    let report = cover::minimal_cover(attacks_list, &industry, &base)
        .unwrap_or_else(|e| panic!("cover search failed: {e}"));
    println!("\nover practical industry defenses (no ubiquitous fencing):");
    println!("  {report}");
    println!("  (the paper's point: those escapes are left to software address masking)");

    // 3. Practical industry on its coverable subset.
    let coverable: Vec<&'static dyn Attack> = attacks_list
        .iter()
        .filter(|a| !report.uncovered.contains(&a.info().name))
        .copied()
        .collect();
    let turf = cover::minimal_cover(&coverable, &industry, &base)
        .unwrap_or_else(|e| panic!("cover search failed: {e}"));
    println!("\nover the {} industry-coverable attacks:", coverable.len());
    println!("  {turf}");
    if let Some(stack) = &turf.minimal {
        println!("  members ({}):", stack.tokens());
        for d in stack.members() {
            println!(
                "    {:<36} {} — {}",
                d.name,
                d.strategy.label(),
                d.mechanism
            );
        }
    }

    if !turf.false_sense_stacks.is_empty() {
        println!(
            "  ({} candidate bundle(s) were sufficient on paper but leaked in \
             simulation — §V-B false senses the union arithmetic missed)",
            turf.false_sense_stacks.len()
        );
    }

    // Preset audit: the bundles people actually deploy, as one cube.
    println!("\npreset bundles vs all {} attacks:", attacks_list.len());
    let (tokens, stacks): (Vec<_>, Vec<_>) = presets::all().into_iter().unzip();
    let audits = cover::audit_stacks(&stacks, attacks_list, &base)
        .unwrap_or_else(|e| panic!("audit failed: {e}"));
    for (token, audit) in tokens.iter().zip(&audits) {
        println!("  [{token}] {audit}");
    }

    println!("\nper-defense singleton coverage (what each candidate blocks alone):");
    let mut singles = full.singletons.clone();
    singles.sort_by_key(|s| std::cmp::Reverse(s.blocks.len()));
    for s in &singles {
        println!(
            "  {:<40} blocks {:>2}/{}",
            s.defense,
            s.blocks.len(),
            attacks_list.len()
        );
    }
}
