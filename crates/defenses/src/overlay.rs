//! Recorded configuration overlays: the machine-level effect of a defense
//! as *data* instead of an opaque `fn(&mut UarchConfig)`.
//!
//! Every modeled defense carries an [`Overlay`] — an ordered list of
//! [`KnobWrite`]s, each naming the [`uarch`] knob it sets and the value it
//! writes. Because the writes are recorded rather than executed behind a
//! function pointer, overlays are
//!
//! * **inspectable**: `defense.overlay()` lists exactly what the defense
//!   changes on the machine;
//! * **diffable**: [`Overlay::diff`] reports which writes would actually
//!   change a given base configuration;
//! * **fingerprintable**: [`Overlay::fingerprint`] is a stable digest of
//!   the writes, independent of how the catalog spells them;
//! * **composable with conflict detection**: folding two overlays that
//!   write the same knob *differently* is a typed
//!   [`StackError::ConflictingKnob`](crate::StackError::ConflictingKnob)
//!   instead of a silent last-writer-wins.

use std::fmt;
use uarch::{Switch, UarchConfig};

/// One recorded knob write: `knob = value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnobWrite {
    /// The configuration knob written.
    pub knob: Switch,
    /// The value written.
    pub value: bool,
}

impl fmt::Display for KnobWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.knob, self.value)
    }
}

/// A defense's machine-level effect: an ordered, `'static` list of
/// recorded knob writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overlay(pub &'static [KnobWrite]);

impl Overlay {
    /// The recorded writes, in catalog order.
    #[must_use]
    pub fn writes(&self) -> &'static [KnobWrite] {
        self.0
    }

    /// Applies every write to `cfg`, in order.
    pub fn apply(&self, cfg: &mut UarchConfig) {
        for w in self.0 {
            w.knob.write(cfg, w.value);
        }
    }

    /// The writes that would actually *change* `base` (knobs already at
    /// the written value are omitted).
    #[must_use]
    pub fn diff(&self, base: &UarchConfig) -> Vec<KnobWrite> {
        self.0
            .iter()
            .copied()
            .filter(|w| w.knob.read(base) != w.value)
            .collect()
    }

    /// A stable 64-bit FNV-1a digest of the writes (knob tokens and
    /// values, in order). Two defenses with the same machine effect — e.g.
    /// LFENCE and MFENCE — share a fingerprint, which the cover search
    /// uses to deduplicate candidates.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for w in self.0 {
            eat(w.knob.token().as_bytes());
            eat(&[b'=', u8::from(w.value), 0]);
        }
        h
    }
}

impl fmt::Display for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KPTI: Overlay = Overlay(&[KnobWrite {
        knob: Switch::Kpti,
        value: true,
    }]);

    const SILICON: Overlay = Overlay(&[
        KnobWrite {
            knob: Switch::TransientForwarding,
            value: false,
        },
        KnobWrite {
            knob: Switch::MdsForwarding,
            value: false,
        },
    ]);

    #[test]
    fn apply_writes_the_named_fields() {
        let mut cfg = UarchConfig::default();
        KPTI.apply(&mut cfg);
        assert!(cfg.kpti);
        SILICON.apply(&mut cfg);
        assert!(!cfg.transient_forwarding);
        assert!(!cfg.mds_forwarding);
    }

    #[test]
    fn read_round_trips_every_knob() {
        let mut cfg = UarchConfig::default();
        for &knob in Switch::ALL {
            let before = knob.read(&cfg);
            knob.write(&mut cfg, !before);
            assert_eq!(knob.read(&cfg), !before, "{knob}");
            knob.write(&mut cfg, before);
            assert_eq!(cfg, UarchConfig::default(), "{knob} restored");
        }
    }

    #[test]
    fn diff_reports_only_effective_writes() {
        let base = UarchConfig::default();
        assert_eq!(KPTI.diff(&base).len(), 1);
        let mut hardened = base.clone();
        KPTI.apply(&mut hardened);
        assert!(KPTI.diff(&hardened).is_empty());
        // The silicon fix writes `false` to knobs that default to `true`.
        assert_eq!(SILICON.diff(&base).len(), 2);
    }

    #[test]
    fn fingerprints_distinguish_knob_and_value() {
        const KPTI_OFF: Overlay = Overlay(&[KnobWrite {
            knob: Switch::Kpti,
            value: false,
        }]);
        assert_ne!(KPTI.fingerprint(), KPTI_OFF.fingerprint());
        assert_ne!(KPTI.fingerprint(), SILICON.fingerprint());
        assert_eq!(KPTI.fingerprint(), KPTI.fingerprint());
    }

    #[test]
    fn display_forms() {
        assert_eq!(KPTI.to_string(), "kpti=true");
        assert_eq!(
            SILICON.to_string(),
            "transient_forwarding=false mds_forwarding=false"
        );
    }
}
