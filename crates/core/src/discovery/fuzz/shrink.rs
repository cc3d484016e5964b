//! The minimizer: instruction-deletion passes replayed against *both*
//! oracles until the leaking scenario is 1-minimal.
//!
//! A deletion is accepted only when the shrunk program still leaks under
//! Theorem 1 **and** under simulation ([`DualOracle::both_leak`]) — a
//! candidate that degrades into an architectural leak (no squashes), loses
//! the graph race, or fails to lift or simulate is rejected, so minimized
//! scenarios stay genuine transient attacks. The outer loop
//! repeats full passes until one completes with no accepted deletion,
//! which is exactly the 1-minimality condition: removing any single
//! remaining instruction breaks the leak.

use super::gen::Scenario;
use super::oracle::DualOracle;

/// Statistics from one minimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Instructions deleted from the original program.
    pub removed: usize,
    /// Oracle evaluations spent.
    pub evaluations: usize,
}

/// Minimizes a both-oracle leaker to 1-minimality by repeated deletion
/// passes. The input must leak under both oracles; the result does too.
#[must_use]
pub fn minimize(oracle: &mut DualOracle, scenario: &Scenario) -> (Scenario, ShrinkStats) {
    let mut current = scenario.clone();
    let mut stats = ShrinkStats::default();
    loop {
        let mut accepted_this_pass = false;
        let mut pc = 0;
        while pc < current.program.len() {
            match current.with_removed(pc) {
                Some(candidate) => {
                    stats.evaluations += 1;
                    if oracle.both_leak(&candidate) {
                        current = candidate;
                        stats.removed += 1;
                        accepted_this_pass = true;
                        // Stay at `pc`: the next instruction shifted in.
                    } else {
                        pc += 1;
                    }
                }
                // Deletion left the program invalid (dangling target).
                None => pc += 1,
            }
        }
        if !accepted_this_pass {
            return (current, stats);
        }
    }
}

/// Checks 1-minimality: every single-instruction deletion either breaks
/// the program or breaks the leak. Used by the test suite to pin the
/// shrinker's contract.
#[must_use]
pub fn is_one_minimal(oracle: &mut DualOracle, scenario: &Scenario) -> bool {
    (0..scenario.program.len()).all(|pc| match scenario.with_removed(pc) {
        Some(candidate) => !oracle.both_leak(&candidate),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::super::gen::{Combo, Mutation, Scenario};
    use super::*;

    #[test]
    fn minimizing_a_padded_leaker_strips_the_padding() {
        let combo = Combo::from_label("kernel-memory/delayed-exception/flush-reload").unwrap();
        let padded = Scenario::compose(combo, vec![Mutation::NopPad, Mutation::NopPad]);
        let mut oracle = DualOracle::new();
        let (min, stats) = minimize(&mut oracle, &padded);
        assert!(stats.removed >= 2, "{stats:?}");
        assert!(min.program.len() <= padded.program.len() - 2);
        assert!(oracle.both_leak(&min));
        assert!(is_one_minimal(&mut oracle, &min));
    }
}
