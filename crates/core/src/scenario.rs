//! High-level scenario API: evaluate one attack × defense-stack pair
//! with both the graph-level and machine-level verdicts side by side — the
//! paper's methodology ("show *why* a defense works") as a library call.
//!
//! The unit of evaluation is a [`DefenseStack`] — an ordered bundle of
//! catalog defenses. A single defense is just a singleton stack
//! ([`DefenseStack::single`]); a real bundle
//! (`"KAISER/KPTI+Retpoline+IBPB"`) is patched into the graph with *all*
//! its member strategies and deployed onto the machine as one folded,
//! conflict-checked configuration.
//!
//! [`evaluate_stack`] is the cold per-pair reference: a fresh graph and a
//! fresh machine for every call. The campaign engine computes the same
//! [`Evaluation`] for every cell of a cube with shared graph verdicts and
//! warm machines, and its acceptance tests check it against this path.

use attacks::{Attack, AttackError};
use defenses::{DefenseStack, Verdict};
use uarch::UarchConfig;

/// The two verdicts for one (attack, defense stack) pair. Which pair they
/// belong to is the caller's to keep: a campaign cell names its attack and
/// stack, and the stack itself lives once, on the cube's defense axis.
///
/// `strategy_sufficient` answers the *graph-level* question: "if this
/// stack's strategy edges were enforced on this attack's graph, would the
/// leak path close?" — an idealized claim about the strategies, proved by
/// Theorem 1. `mechanism` answers the *machine-level* question: "does this
/// concrete bundle actually stop this attack?". When the strategies would
/// suffice but the mechanisms leak, the stack is a **false sense of
/// security** for this attack (the paper's §V-B warning): the bundle
/// inserts its ordering somewhere other than this attack's missing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evaluation {
    /// Graph verdict: would the stack's strategies, enforced on this
    /// graph, close the leak path? `None` when no member strategy has an
    /// insertion point in this graph.
    pub strategy_sufficient: Option<bool>,
    /// Machine verdict from actually running the attack under the
    /// deployed stack.
    pub mechanism: Verdict,
}

impl Evaluation {
    /// The §V-B "false sense of security" pattern: the strategies would
    /// work here, but this bundle does not implement them *for this
    /// attack* (e.g. KPTI is strategy ① for kernel pages — useless against
    /// the user-space Spectre v1 access; stacking retpoline next to it
    /// does not change that).
    #[must_use]
    pub fn false_sense_of_security(&self) -> bool {
        self.strategy_sufficient == Some(true) && self.mechanism == Verdict::Leaked
    }
}

/// Evaluates one (attack, defense stack) pair at both levels: the cold
/// per-pair reference the campaign engine's cells are checked against.
///
/// The *graph* level inserts every distinct member strategy's edges into
/// the attack's graph and asks Theorem 1 whether the leak path closes
/// ([`DefenseStack::graph_sufficient`]). The *machine* level folds the
/// stack's overlays onto the simulator configuration and re-runs the
/// attack ([`defenses::verify_stack`]).
///
/// A strategy-② or -③ graph patch leaves the access race by design (the
/// paper's relaxed security model), so graph sufficiency for those is
/// defined as "no race on the *send* node" — the exfiltration is what they
/// promise to stop. A stack containing a ① member must close every race.
///
/// # Errors
///
/// Propagates [`AttackError`] from the simulation.
pub fn evaluate_stack(
    attack: &dyn Attack,
    stack: &DefenseStack,
    base: &UarchConfig,
) -> Result<Evaluation, AttackError> {
    Ok(Evaluation {
        strategy_sufficient: stack.graph_sufficient(attack)?,
        mechanism: defenses::verify_stack(stack, attack, base)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use defenses::Strategy;

    /// An evaluation is its two verdicts and nothing that owns memory: a
    /// stack copied into it again would stop it being `Copy`.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<Evaluation>();
    };

    /// The singleton stack of one registry defense.
    fn single(name: &str) -> DefenseStack {
        DefenseStack::single(*defenses::find(name).expect("defense exists"))
    }

    #[test]
    fn nda_vs_spectre_v1_agrees_at_both_levels() {
        let nda = single("NDA");
        let e = evaluate_stack(
            &attacks::spectre_v1::SpectreV1,
            &nda,
            &UarchConfig::default(),
        )
        .unwrap();
        assert_eq!(e.strategy_sufficient, Some(true));
        assert_eq!(e.mechanism, Verdict::Blocked);
        assert!(!e.false_sense_of_security());
        assert_eq!(nda.name(), "NDA");
        assert_eq!(nda.strategies().collect::<Vec<_>>(), [Strategy::PreventUse]);
    }

    #[test]
    fn eager_check_vs_meltdown_graph_predicts_machine() {
        let e = evaluate_stack(
            &attacks::meltdown::Meltdown,
            &single("Eager permission check"),
            &UarchConfig::default(),
        )
        .unwrap();
        assert_eq!(e.strategy_sufficient, Some(true));
        assert_eq!(e.mechanism, Verdict::Blocked);
    }

    #[test]
    fn kpti_vs_spectre_v1_is_the_canonical_false_sense() {
        // Strategy ① *would* secure Spectre v1's graph; KPTI's mechanism
        // inserts that ordering only for kernel pages — useless here.
        let e = evaluate_stack(
            &attacks::spectre_v1::SpectreV1,
            &single("KAISER/KPTI"),
            &UarchConfig::default(),
        )
        .unwrap();
        assert!(e.false_sense_of_security());
    }

    #[test]
    fn singleton_stack_evaluation_is_identical_to_single_defense() {
        // A singleton stack is the single defense: its name, its strategy,
        // and the verdict of the attack run under exactly its overlay.
        let base = UarchConfig::default();
        let attack = &attacks::spectre_v2::SpectreV2;
        for d in defenses::registry().iter().take(6) {
            let stack = DefenseStack::single(*d);
            let e = evaluate_stack(attack, &stack, &base).unwrap();
            assert_eq!(stack.name(), d.name);
            assert_eq!(stack.strategies().collect::<Vec<_>>(), [d.strategy]);
            let direct = d.overlay().map(|overlay| {
                let mut cfg = base.clone();
                overlay.apply(&mut cfg);
                attack.run(&cfg).unwrap().leaked
            });
            let expected = match direct {
                None => Verdict::GraphOnly,
                Some(true) => Verdict::Leaked,
                Some(false) => Verdict::Blocked,
            };
            assert_eq!(e.mechanism, expected, "{}", d.name);
        }
    }

    #[test]
    fn bundle_evaluation_is_a_first_class_citizen() {
        let base = UarchConfig::default();
        let linux = defenses::presets::linux_default();
        // Blocked by the bundle even though KPTI alone leaks it: the
        // retpoline member closes Spectre v2's edge.
        let v2 = evaluate_stack(&attacks::spectre_v2::SpectreV2, &linux, &base).unwrap();
        assert_eq!(v2.mechanism, Verdict::Blocked);
        assert_eq!(linux.name(), "KAISER/KPTI+Retpoline+IBPB+RSB stuffing");
        assert!(!v2.false_sense_of_security());
        // Stack-level false sense: the bundle's ① member would close
        // Spectre v1's graph, but none of the mechanisms does.
        let v1 = evaluate_stack(&attacks::spectre_v1::SpectreV1, &linux, &base).unwrap();
        assert_eq!(v1.mechanism, Verdict::Leaked);
        assert!(v1.false_sense_of_security());
    }

    #[test]
    fn whole_matrix_evaluates_and_flags_mismatched_mechanisms() {
        let base = UarchConfig::default();
        let mut evals = Vec::new();
        for attack in attacks::registry() {
            for defense in defenses::registry() {
                let stack = DefenseStack::single(*defense);
                evals.push(evaluate_stack(*attack, &stack, &base).unwrap());
            }
        }
        assert_eq!(
            evals.len(),
            attacks::registry().len() * defenses::registry().len()
        );
        // The paper's warning is not hypothetical: many (attack, defense)
        // pairs share a strategy but not a missing edge.
        assert!(evals.iter().any(Evaluation::false_sense_of_security));
        // And the converse sanity: every blocked pair with a sufficient
        // strategy is *not* flagged.
        for e in &evals {
            if e.mechanism == Verdict::Blocked {
                assert!(!e.false_sense_of_security());
            }
        }
    }
}
