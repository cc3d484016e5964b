//! High-level scenario API: evaluate attack × defense-stack combinations
//! with both the graph-level and machine-level verdicts side by side — the
//! paper's methodology ("show *why* a defense works") as a library call.
//!
//! The unit of evaluation is a [`DefenseStack`] — an ordered bundle of
//! catalog defenses. A single defense is just a singleton stack
//! ([`evaluate`] wraps one for you), and a singleton evaluation is
//! byte-identical to the historical single-defense output; a real bundle
//! (`"KAISER/KPTI+Retpoline+IBPB"`) is patched into the graph with *all*
//! its member strategies and deployed onto the machine as one folded,
//! conflict-checked configuration.

use attacks::{Attack, AttackError};
use defenses::{Defense, DefenseStack, Strategy, Verdict};
use std::fmt;
use uarch::UarchConfig;

/// The two verdicts for one (attack, defense stack) pair.
///
/// `strategy_sufficient` answers the *graph-level* question: "if this
/// stack's strategy edges were enforced on this attack's graph, would the
/// leak path close?" — an idealized claim about the strategies, proved by
/// Theorem 1. `mechanism` answers the *machine-level* question: "does this
/// concrete bundle actually stop this attack?". When the strategies would
/// suffice but the mechanisms leak, the stack is a **false sense of
/// security** for this attack (the paper's §V-B warning): the bundle
/// inserts its ordering somewhere other than this attack's missing edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    /// Attack name.
    pub attack: &'static str,
    /// The evaluated defense stack (a singleton for classic single-defense
    /// cells).
    pub stack: DefenseStack,
    /// Graph verdict: would the stack's strategies, enforced on this
    /// graph, close the leak path? `None` when no member strategy has an
    /// insertion point in this graph.
    pub strategy_sufficient: Option<bool>,
    /// Machine verdict from actually running the attack under the
    /// deployed stack.
    pub mechanism: Verdict,
}

impl Evaluation {
    /// The stack's canonical display name (`"NDA"`,
    /// `"KAISER/KPTI+Retpoline"`): the `defense` column of every table.
    #[must_use]
    pub fn defense(&self) -> &str {
        self.stack.name()
    }

    /// The distinct strategies the stack exercises, in member order.
    #[must_use]
    pub fn strategies(&self) -> Vec<Strategy> {
        self.stack.strategies()
    }

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

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: strategy-sufficient={} mechanism={}{}",
            self.defense(),
            self.attack,
            self.strategy_sufficient
                .map_or_else(|| "n/a".to_owned(), |b| b.to_string()),
            self.mechanism,
            if self.false_sense_of_security() {
                "  <-- false sense of security"
            } else {
                ""
            }
        )
    }
}

/// Evaluates one (attack, defense stack) pair at both levels.
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
    let strategy_sufficient = stack.graph_sufficient(attack)?;
    let mechanism = defenses::verify_stack(stack, attack, base)?;
    Ok(Evaluation {
        attack: attack.info().name,
        stack: stack.clone(),
        strategy_sufficient,
        mechanism,
    })
}

/// Evaluates one (attack, single defense) pair: a singleton-stack
/// [`evaluate_stack`], bit-identical to the historical per-defense path.
///
/// # Errors
///
/// Propagates [`AttackError`] from the simulation.
pub fn evaluate(
    attack: &dyn Attack,
    defense: &Defense,
    base: &UarchConfig,
) -> Result<Evaluation, AttackError> {
    evaluate_stack(attack, &DefenseStack::single(*defense), base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defense(name: &str) -> Defense {
        defenses::catalog()
            .into_iter()
            .find(|d| d.name == name)
            .expect("defense exists")
    }

    #[test]
    fn nda_vs_spectre_v1_agrees_at_both_levels() {
        let e = evaluate(
            &attacks::spectre_v1::SpectreV1,
            &defense("NDA"),
            &UarchConfig::default(),
        )
        .unwrap();
        assert_eq!(e.strategy_sufficient, Some(true));
        assert_eq!(e.mechanism, Verdict::Blocked);
        assert!(!e.false_sense_of_security());
        assert!(e.to_string().contains("NDA"));
        assert_eq!(e.defense(), "NDA");
        assert_eq!(e.strategies(), vec![Strategy::PreventUse]);
    }

    #[test]
    fn eager_check_vs_meltdown_graph_predicts_machine() {
        let e = evaluate(
            &attacks::meltdown::Meltdown,
            &defense("Eager permission check"),
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
        let e = evaluate(
            &attacks::spectre_v1::SpectreV1,
            &defense("KAISER/KPTI"),
            &UarchConfig::default(),
        )
        .unwrap();
        assert!(e.false_sense_of_security());
        assert!(e.to_string().contains("false sense"));
    }

    #[test]
    fn singleton_stack_evaluation_is_identical_to_single_defense() {
        let base = UarchConfig::default();
        for d in defenses::registry().iter().take(6) {
            let single = evaluate(&attacks::spectre_v2::SpectreV2, d, &base).unwrap();
            let stacked = evaluate_stack(
                &attacks::spectre_v2::SpectreV2,
                &DefenseStack::single(*d),
                &base,
            )
            .unwrap();
            assert_eq!(single, stacked, "{}", d.name);
            assert_eq!(single.defense(), d.name);
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
        assert_eq!(v2.defense(), "KAISER/KPTI+Retpoline+IBPB+RSB stuffing");
        assert!(!v2.false_sense_of_security());
        // Stack-level false sense: the bundle's ① member would close
        // Spectre v1's graph, but none of the mechanisms does.
        let v1 = evaluate_stack(&attacks::spectre_v1::SpectreV1, &linux, &base).unwrap();
        assert_eq!(v1.mechanism, Verdict::Leaked);
        assert!(v1.false_sense_of_security());
        assert!(v1.to_string().contains("false sense"));
    }

    #[test]
    fn whole_matrix_evaluates_and_flags_mismatched_mechanisms() {
        let base = UarchConfig::default();
        let mut evals = Vec::new();
        for attack in attacks::registry() {
            for defense in defenses::registry() {
                evals.push(evaluate(*attack, defense, &base).unwrap());
            }
        }
        assert_eq!(
            evals.len(),
            attacks::catalog().len() * defenses::catalog().len()
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
