//! §V-B: the **insufficient defense** demonstration.
//!
//! The paper's cautionary example: a defense that adds the security
//! dependency ① ("authorization → read from memory") stops the baseline
//! Meltdown, but an attacker who arranges an L1 hit for the secret (the
//! L1-terminal-fault trick) bypasses it — the secret now flows through the
//! *cache* datapath that the defense never ordered. Only adding dependency
//! ④ ("authorization → read from cache") as well yields a valid defense.
//! Misplaced security dependencies give a false sense of security.
//!
//! Both the graph-level argument and the executable demonstration live
//! here.

use attacks::common::{machine_with_channel, measure, KERNEL_SECRET, PROBE_BASE, SECRET};
use attacks::meltdown::Meltdown;
use attacks::{Attack, AttackError, AttackOutcome};
use isa::Reg;
use tsg::{EdgeKind, NodeKind, SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege, UarchConfig};

/// Result of the three-configuration experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsufficiencyResult {
    /// Baseline (no defense), secret uncached: leaks.
    pub baseline: AttackOutcome,
    /// Partial defense (memory path only), secret uncached: blocked.
    pub partial_blocks_baseline: AttackOutcome,
    /// Partial defense, secret **cached** by the attacker-induced hit:
    /// leaks again — the false sense of security.
    pub partial_bypassed_via_cache: AttackOutcome,
    /// Full defense (both datapaths): blocked even with the cache hit.
    pub full_blocks_everything: AttackOutcome,
}

/// Runs Meltdown with the secret optionally pre-loaded into the L1.
fn run_meltdown_with_residency(
    cfg: &UarchConfig,
    secret_in_l1: bool,
) -> Result<AttackOutcome, AttackError> {
    let mut m = machine_with_channel(cfg)?;
    run_meltdown_with_residency_in(&mut m, secret_in_l1)
}

/// [`run_meltdown_with_residency`] on an already-prepared machine.
fn run_meltdown_with_residency_in(
    m: &mut Machine,
    secret_in_l1: bool,
) -> Result<AttackOutcome, AttackError> {
    m.map_kernel_page(KERNEL_SECRET)?;
    m.write_u64(KERNEL_SECRET, SECRET)?;
    if secret_in_l1 {
        m.touch(KERNEL_SECRET)?;
    }
    m.set_privilege(Privilege::User);
    let program = Meltdown::program()?;
    m.set_exception_behavior(ExceptionBehavior::Handler(
        program.label("done").expect("label exists"),
    ));
    m.set_reg(Reg::R5, KERNEL_SECRET);
    m.set_reg(Reg::R3, PROBE_BASE);
    measure(m, &program, SECRET, None)
}

/// Runs the full four-configuration §V-B experiment.
///
/// # Errors
///
/// Propagates [`AttackError`] from the simulations.
pub fn run_experiment() -> Result<InsufficiencyResult, AttackError> {
    let baseline_cfg = UarchConfig::default();
    let partial_cfg = UarchConfig::builder()
        .meltdown_fix_memory_path_only(true)
        .build();
    let full_cfg = UarchConfig::builder()
        .transient_forwarding(false)
        .mds_forwarding(false)
        .l1tf_forwarding(false)
        .build();
    Ok(InsufficiencyResult {
        baseline: run_meltdown_with_residency(&baseline_cfg, false)?,
        partial_blocks_baseline: run_meltdown_with_residency(&partial_cfg, false)?,
        partial_bypassed_via_cache: run_meltdown_with_residency(&partial_cfg, true)?,
        full_blocks_everything: run_meltdown_with_residency(&full_cfg, true)?,
    })
}

/// The graph-level version of the same argument: a Figure-4 graph with
/// *both* "Read from Memory" and "Read from Cache" access nodes. Patching
/// only the memory edge leaves the cache race; patching both secures it.
#[must_use]
pub fn graph_argument() -> (SecurityAnalysis, usize, usize) {
    let mut sa = SecurityAnalysis::new();
    let g = sa.graph_mut();
    let load = g.add_node("Load instruction", NodeKind::Compute);
    let check = g.add_node("Load Permission Check", NodeKind::Authorization);
    let mem = g.add_node(
        "Read from Memory",
        NodeKind::SecretAccess(SecretSource::Memory),
    );
    let cache = g.add_node(
        "Read from Cache",
        NodeKind::SecretAccess(SecretSource::Cache),
    );
    let send = g.add_node("Load R to Cache", NodeKind::Send);
    for (u, v) in [(load, check), (load, mem), (load, cache)] {
        g.add_edge(u, v, EdgeKind::Data).expect("acyclic");
    }
    for (u, v) in [(mem, send), (cache, send)] {
        g.add_edge(u, v, EdgeKind::Data).expect("acyclic");
    }
    sa.require(check, mem).expect("nodes exist");
    sa.require(check, cache).expect("nodes exist");
    let before = sa.vulnerabilities().expect("analyzable").len();
    // The "insufficient" patch: only the memory edge (the paper's ①).
    sa.graph_mut()
        .add_edge(check, mem, EdgeKind::Security)
        .expect("acyclic");
    let after_partial = sa.vulnerabilities().expect("analyzable").len();
    (sa, before, after_partial)
}

/// Demonstration attack wrapper so the experiment appears in catalogs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeltdownL1Hit;

impl Attack for MeltdownL1Hit {
    fn info(&self) -> attacks::AttackInfo {
        attacks::AttackInfo {
            name: "Meltdown + attacker-induced L1 hit",
            cve: None,
            impact: "Bypasses memory-path-only Meltdown defenses (§V-B)",
            authorization: "Kernel privilege check",
            illegal_access: "Read from cache",
            point: attacks::AttackPoint::new(
                SecretSource::Cache,
                attacks::DelayMechanism::DelayedException,
                attacks::Channel::FlushReload,
            ),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        graph_argument().0
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        run_meltdown_with_residency_in(m, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_s_insufficiency_story_holds() {
        let r = run_experiment().unwrap();
        assert!(r.baseline.leaked, "baseline Meltdown leaks");
        assert!(
            !r.partial_blocks_baseline.leaked,
            "partial fix blocks DRAM-resident secrets"
        );
        assert!(
            r.partial_bypassed_via_cache.leaked,
            "partial fix is bypassed when the secret hits in L1"
        );
        assert!(
            !r.full_blocks_everything.leaked,
            "ordering *every* datapath closes the hole"
        );
    }

    #[test]
    fn graph_argument_matches() {
        let (mut sa, before, after_partial) = graph_argument();
        assert_eq!(before, 2, "both datapaths race initially");
        assert_eq!(after_partial, 1, "the cache datapath still races");
        // Adding the second edge (the paper's ④) secures it.
        let check = sa.graph().find_by_label("Load Permission Check").unwrap();
        let cache = sa.graph().find_by_label("Read from Cache").unwrap();
        sa.graph_mut()
            .add_edge(check, cache, tsg::EdgeKind::Security)
            .unwrap();
        assert!(sa.is_secure().unwrap());
    }

    #[test]
    fn wrapper_attack_runs() {
        let out = MeltdownL1Hit.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked);
        assert!(MeltdownL1Hit.info().name.contains("L1"));
        assert!(!MeltdownL1Hit.graph().is_secure().unwrap());
    }
}
