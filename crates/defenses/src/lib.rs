//! # `defenses` — defense strategies and the defense catalog
//!
//! Implements Section V-B of "New Models for Understanding and Reasoning
//! about Speculative Execution Attacks" (HPCA 2021):
//!
//! * the four **defense strategies** of Figure 8 ([`Strategy`]) — prevent
//!   *access* / *use* / *send* before authorization, and *clear
//!   predictions*;
//! * a [`Defense`] catalog covering every industry defense of Table II and
//!   every academic defense discussed in §V-B, each mapped to its strategy;
//! * graph-level application ([`patch_strategy`]): inserting the
//!   missing security-dependency edge the strategy corresponds to, so
//!   Theorem 1 can *prove* the race is gone;
//! * machine-level application ([`DefenseStack::apply`]): the corresponding
//!   [`uarch`] configuration knob, so the very same defense can be *tested*
//!   against the executable attacks of the [`attacks`] crate.
//!
//! ```
//! use defenses::{registry, Strategy};
//! let lfence = registry().iter().find(|d| d.name == "LFENCE").unwrap();
//! assert_eq!(lfence.strategy, Strategy::PreventAccess);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apply;
mod catalog;
mod overlay;
mod session;
mod stack;
mod verify;

pub use apply::{patch_strategy, PatchError};
pub use catalog::{find, industry_rows, names, registry, resolve, Defense, IndustryRow, Origin};
pub use overlay::{KnobWrite, Overlay};
pub use session::{graph_race, PatchSession};
pub use stack::{presets, DefenseStack, StackError};
pub use verify::{verify_stack, Verdict};

use std::fmt;

/// The four defense strategies of Figure 8 (and Figure 4's ①–④ arrows).
///
/// Each strategy is an *edge-insertion point*: which protected node
/// receives the new security dependency from the authorization node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ① Prevent **access** before authorization: serialize the
    /// authorization and the secret access (fences, eager permission
    /// checks, KPTI removing the data path entirely).
    PreventAccess,
    /// ② Prevent data **use** before authorization: the secret may be
    /// fetched but not forwarded to dependents (NDA, SpecShield,
    /// SpectreGuard, ConTExT).
    PreventUse,
    /// ③ Prevent **send** before authorization: the micro-architectural
    /// state change that exfiltrates the secret is blocked, hidden or
    /// undone (STT, delay-on-miss, InvisiSpec/SafeSpec, CleanupSpec, DAWG).
    PreventSend,
    /// ④ **Clear predictions**: predictor state does not survive context
    /// switches, so cross-context mis-training is impossible (IBPB, STIBP,
    /// RSB stuffing, retpoline's prediction avoidance).
    ClearPredictions,
}

impl Strategy {
    /// The paper's circled-number label for the strategy.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::PreventAccess => "①",
            Strategy::PreventUse => "②",
            Strategy::PreventSend => "③",
            Strategy::ClearPredictions => "④",
        }
    }

    /// All four strategies, in the paper's order.
    #[must_use]
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::PreventAccess,
            Strategy::PreventUse,
            Strategy::PreventSend,
            Strategy::ClearPredictions,
        ]
    }

    /// Stable machine-readable token, used in campaign CSV/JSON artifacts
    /// and joined with `+` for multi-strategy defense stacks.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Strategy::PreventAccess => "prevent_access",
            Strategy::PreventUse => "prevent_use",
            Strategy::PreventSend => "prevent_send",
            Strategy::ClearPredictions => "clear_predictions",
        }
    }

    /// The [`Strategy`] for a [`Strategy::token`] string.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Strategy> {
        Self::all().into_iter().find(|s| s.token() == token)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::PreventAccess => "prevent access before authorization",
            Strategy::PreventUse => "prevent data usage before authorization",
            Strategy::PreventSend => "prevent send before authorization",
            Strategy::ClearPredictions => "clearing predictions",
        };
        write!(f, "{} {}", self.label(), s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_and_display() {
        assert_eq!(Strategy::PreventAccess.label(), "①");
        assert_eq!(Strategy::ClearPredictions.label(), "④");
        assert!(Strategy::PreventUse.to_string().contains("usage"));
        assert_eq!(Strategy::all().len(), 4);
    }
}
