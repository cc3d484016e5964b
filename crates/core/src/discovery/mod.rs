//! §V-A: finding **new attacks** by composing the three dimensions.
//!
//! The paper's takeaway: *"any new combination of these three dimensions of
//! an attack gives a new attack"* — (1) where the secret comes from,
//! (2) which hardware feature delays the authorization, and (3) which
//! covert channel carries the secret out. The dimensions and the point type
//! live in [`attacks::space`], where every registry attack carries its
//! point; this module enumerates the design space and splits it into the
//! points the registry occupies and the candidate *new* attacks.

pub mod fuzz;

use attacks::space::{CHANNELS, DELAYS, SOURCES};
pub use attacks::{AttackPoint, Channel, DelayMechanism};

/// Enumerates the full design space (8 × 6 × 4 = 192 points).
#[must_use]
pub fn design_space() -> Vec<AttackPoint> {
    let mut v = Vec::new();
    for source in SOURCES {
        for delay in DELAYS {
            for channel in CHANNELS {
                v.push(AttackPoint::new(source, delay, channel));
            }
        }
    }
    v
}

/// The points not occupied by a published variant: candidate new attacks.
#[must_use]
pub fn novel_points() -> Vec<AttackPoint> {
    design_space()
        .into_iter()
        .filter(|p| p.known_variants().next().is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_has_192_points() {
        assert_eq!(design_space().len(), 8 * 6 * 4);
    }

    #[test]
    fn known_variants_are_marked() {
        let known: Vec<AttackPoint> = design_space()
            .into_iter()
            .filter(|p| p.known_variants().next().is_some())
            .collect();
        assert_eq!(known.len(), 14, "14 occupied Flush+Reload points");
        assert!(novel_points().len() == 192 - 14);
    }

    #[test]
    fn every_point_graph_has_the_race() {
        for p in design_space() {
            let sa = p.graph();
            let v = sa.vulnerabilities().unwrap();
            assert_eq!(v.len(), 3, "point {p} must race");
        }
    }

    #[test]
    fn every_point_graph_is_securable() {
        for p in design_space().into_iter().take(24) {
            let mut sa = p.graph();
            sa.patch_all().unwrap();
            assert!(sa.is_secure().unwrap());
        }
    }

    #[test]
    fn intra_instruction_classification() {
        assert!(DelayMechanism::DelayedException.is_intra_instruction());
        assert!(DelayMechanism::TransactionAbort.is_intra_instruction());
        assert!(!DelayMechanism::ConditionalBranch.is_intra_instruction());
    }

    #[test]
    fn display_is_informative() {
        let p = AttackPoint::new(
            tsg::SecretSource::Fpu,
            DelayMechanism::DelayedException,
            Channel::PrimeProbe,
        );
        let s = p.to_string();
        assert!(s.contains("FPU"));
        assert!(s.contains("Prime+Probe"));
        assert!(
            p.known_variants().next().is_none(),
            "channel substitution = new"
        );
    }
}
