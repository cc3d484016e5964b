//! Executable verification: does defense stack S stop attack A on the
//! simulator?
//!
//! This is the crate's answer to the paper's question ③ ("are the recently
//! proposed defenses effective?"): instead of asserting effectiveness, we
//! *run* every attack under every modeled defense and report the verdict.

use crate::DefenseStack;
use attacks::{Attack, AttackError, AttackOutcome};
use std::fmt;
use uarch::UarchConfig;

/// Outcome of running one attack under one defense stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The attack failed to recover the secret.
    Blocked,
    /// The attack still recovered the secret — the defense does not insert
    /// the security dependency this attack's race needs (the paper's
    /// "false sense of security" case).
    Leaked,
    /// The defense is software-only (no hardware model); its effect is
    /// shown at the graph/program level instead.
    GraphOnly,
}

impl Verdict {
    /// The verdict of a completed defended run: [`Verdict::Leaked`] when
    /// the attack still recovered its secret, [`Verdict::Blocked`]
    /// otherwise.
    #[must_use]
    pub fn of_run(outcome: &AttackOutcome) -> Verdict {
        if outcome.leaked {
            Verdict::Leaked
        } else {
            Verdict::Blocked
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Blocked => "blocked",
            Verdict::Leaked => "LEAKED",
            Verdict::GraphOnly => "(graph-only)",
        })
    }
}

/// Runs `attack` on a fresh machine with the whole `stack` deployed over
/// `base`, and reports the verdict. A single defense is evaluated as
/// [`DefenseStack::single`].
///
/// # Errors
///
/// Propagates [`AttackError`] if the simulation itself fails.
pub fn verify_stack(
    stack: &DefenseStack,
    attack: &dyn Attack,
    base: &UarchConfig,
) -> Result<Verdict, AttackError> {
    let Some(cfg) = stack.apply(base) else {
        return Ok(Verdict::GraphOnly);
    };
    Ok(Verdict::of_run(&attack.run(&cfg)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The singleton stack of one registry defense.
    fn single(name: &str) -> DefenseStack {
        DefenseStack::single(*crate::find(name).unwrap_or_else(|| panic!("defense {name} missing")))
    }

    #[test]
    fn kpti_blocks_meltdown_but_not_spectre_v1() {
        let base = UarchConfig::default();
        let kpti = single("KAISER/KPTI");
        assert_eq!(
            verify_stack(&kpti, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Blocked
        );
        // The paper's point: the defense must match the missing dependency.
        assert_eq!(
            verify_stack(&kpti, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn lfence_blocks_spectre_v1() {
        assert_eq!(
            verify_stack(
                &single("LFENCE"),
                &attacks::spectre_v1::SpectreV1,
                &UarchConfig::default()
            )
            .unwrap(),
            Verdict::Blocked
        );
    }

    #[test]
    fn ibpb_blocks_v2_and_rsb_but_not_meltdown() {
        let base = UarchConfig::default();
        let ibpb = single("IBPB");
        assert_eq!(
            verify_stack(&ibpb, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify_stack(&ibpb, &attacks::spectre_rsb::SpectreRsb, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify_stack(&ibpb, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn nda_blocks_every_cataloged_attack() {
        // Strategy ② at the data-use chokepoint blocks all variants: every
        // attack must *use* the secret to send it.
        let base = UarchConfig::default();
        let nda = single("NDA");
        for a in attacks::registry() {
            assert_eq!(
                verify_stack(&nda, *a, &base).unwrap(),
                Verdict::Blocked,
                "NDA must block {}",
                a.info().name
            );
        }
    }

    #[test]
    fn dawg_blocks_cross_domain_attacks_only() {
        let base = UarchConfig::default();
        let dawg = single("DAWG");
        // Cross-context: the receiver cannot observe the victim-domain fill.
        assert_eq!(
            verify_stack(&dawg, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        // Same-context Spectre v1 is *not* affected by cache partitioning —
        // sender and receiver share the domain (paper: DAWG protects
        // cross-domain cache timing only).
        assert_eq!(
            verify_stack(&dawg, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn software_defense_reports_graph_only() {
        assert_eq!(
            verify_stack(
                &single("Address masking (coarse)"),
                &attacks::spectre_v1::SpectreV1,
                &UarchConfig::default()
            )
            .unwrap(),
            Verdict::GraphOnly
        );
    }

    #[test]
    fn stack_verify_matches_singleton_and_evaluates_bundles() {
        let base = UarchConfig::default();
        // A singleton stack deploys exactly its defense's recorded overlay:
        // verdict for verdict, it is the attack run on that configuration.
        let kpti = crate::find("KAISER/KPTI").unwrap();
        let kpti_stack = DefenseStack::single(*kpti);
        let mut kpti_cfg = base.clone();
        kpti.overlay().unwrap().apply(&mut kpti_cfg);
        for attack in [
            &attacks::meltdown::Meltdown as &dyn Attack,
            &attacks::spectre_v1::SpectreV1,
        ] {
            let leaked = attack.run(&kpti_cfg).unwrap().leaked;
            assert_eq!(
                verify_stack(&kpti_stack, attack, &base).unwrap() == Verdict::Leaked,
                leaked
            );
        }
        // The Linux bundle blocks what its members block…
        let linux = crate::presets::linux_default();
        assert_eq!(
            verify_stack(&linux, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify_stack(&linux, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        // …but same-context bounds bypass still leaks through the bundle
        // (address masking is software): the §V-B point, now stack-shaped.
        assert_eq!(
            verify_stack(&linux, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
        // All-software stacks are graph-only, like software-only defenses.
        let software = DefenseStack::parse("mask-coarse").unwrap();
        assert_eq!(
            verify_stack(&software, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::GraphOnly
        );
    }

    #[test]
    fn warm_verify_matches_cold_across_stacks_and_attacks() {
        // One shared runner across heterogeneous (stack, attack) pairs — the
        // campaign worker's shape — must reproduce the cold verdicts for every
        // registry attack under the preset bundles, KPTI, an all-software
        // stack (GraphOnly, which never touches the machine) and NDA.
        let base = UarchConfig::default();
        let extra = ["kpti", "mask-coarse", "nda"].map(|t| DefenseStack::parse(t).unwrap());
        let stacks = crate::presets::all().into_iter().map(|(_, s)| s);
        let mut runner = attacks::BatchRunner::new();
        for stack in stacks.chain(extra) {
            for &attack in attacks::registry() {
                let warm = stack.apply(&base).map_or(Verdict::GraphOnly, |cfg| {
                    Verdict::of_run(&runner.run(attack, &cfg).unwrap())
                });
                let cold = verify_stack(&stack, attack, &base).unwrap();
                assert_eq!(warm, cold, "{} under {stack}", attack.info().name);
            }
        }
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Blocked.to_string(), "blocked");
        assert_eq!(Verdict::Leaked.to_string(), "LEAKED");
        assert!(Verdict::GraphOnly.to_string().contains("graph"));
    }
}
