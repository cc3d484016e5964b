//! Receiver measurement results.

use std::fmt;

/// The outcome of one receive pass over an access-based channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    /// Measured latency per slot.
    pub latencies: Vec<u64>,
    /// The decision threshold used (latencies strictly below it count as
    /// hits).
    pub threshold: u64,
    /// The recovered symbol: the single slot that hit, if exactly one did.
    /// `None` when zero or multiple slots hit (no clean signal).
    pub recovered: Option<usize>,
}

impl Reading {
    /// Classifies latencies against a threshold and derives the recovered
    /// symbol.
    #[must_use]
    pub fn classify(latencies: Vec<u64>, threshold: u64) -> Self {
        let mut hits = latencies
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l < threshold)
            .map(|(i, _)| i);
        let recovered = match (hits.next(), hits.next()) {
            (Some(slot), None) => Some(slot),
            _ => None,
        };
        Reading {
            latencies,
            threshold,
            recovered,
        }
    }

    /// The slots classified as cache hits.
    #[must_use]
    pub fn hit_slots(&self) -> Vec<usize> {
        self.latencies
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l < self.threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.recovered {
            Some(i) => write!(f, "recovered symbol {i}"),
            None => write!(f, "no clean signal ({} hits)", self.hit_slots().len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hit_recovers() {
        let r = Reading::classify(vec![80, 80, 4, 80], 42);
        assert_eq!(r.recovered, Some(2));
        assert_eq!(r.hit_slots(), vec![2]);
        assert!(r.to_string().contains("2"));
    }

    #[test]
    fn zero_or_multiple_hits_is_none() {
        assert_eq!(Reading::classify(vec![80, 80], 42).recovered, None);
        let r = Reading::classify(vec![4, 4, 80], 42);
        assert_eq!(r.recovered, None);
        assert_eq!(r.hit_slots(), vec![0, 1]);
        assert!(r.to_string().contains("no clean signal"));
    }

    #[test]
    fn threshold_is_strict() {
        let r = Reading::classify(vec![42, 41], 42);
        assert_eq!(r.recovered, Some(1));
    }
}
