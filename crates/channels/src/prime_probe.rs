//! Prime+Probe: the *miss + access* channel (§II-C).
//!
//! The receiver fills ("primes") cache sets with its own lines, waits for
//! the sender, then probes its lines: a set where the sender's access
//! evicted a primed line probes slow, revealing which set — and hence which
//! symbol — the sender touched. Unlike Flush+Reload it needs no shared
//! memory.

use crate::reading::Reading;
use uarch::cache::LINE_SIZE;
use uarch::{Machine, UarchError};

/// A Prime+Probe channel over a contiguous range of cache sets.
///
/// Symbol `i` is carried by an access that maps to cache set
/// `base_set + i`. The receiver owns a prime buffer whose lines cover every
/// monitored set across the full associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeProbe {
    prime_base: u64,
    symbols: usize,
    base_set: usize,
}

impl PrimeProbe {
    /// Creates a channel whose prime buffer starts at `prime_base`
    /// (must be 4 KiB aligned so that it starts at cache set 0) carrying
    /// `symbols` distinct symbols on consecutive sets.
    ///
    /// # Panics
    ///
    /// Panics if `prime_base` is not page aligned.
    #[must_use]
    pub fn new(prime_base: u64, symbols: usize) -> Self {
        Self::with_base_set(prime_base, symbols, 0)
    }

    /// Creates a channel monitoring sets `base_set .. base_set + symbols`.
    ///
    /// Offsetting the monitored range away from the sets the victim's own
    /// working data maps to removes self-interference noise — the receiver
    /// tuning every real Prime+Probe attack performs.
    ///
    /// # Panics
    ///
    /// Panics if `prime_base` is not page aligned.
    #[must_use]
    pub fn with_base_set(prime_base: u64, symbols: usize, base_set: usize) -> Self {
        assert_eq!(prime_base % 4096, 0, "prime buffer must be page aligned");
        PrimeProbe {
            prime_base,
            symbols,
            base_set,
        }
    }

    /// Number of symbols (monitored sets).
    #[must_use]
    pub fn symbols(&self) -> usize {
        self.symbols
    }

    /// The attacker's prime-line address covering set
    /// `symbol` at way-slot `k` for machine `m`'s geometry.
    fn prime_address(&self, m: &Machine, symbol: usize, k: usize) -> u64 {
        let sets = m.cache().set_count() as u64;
        self.prime_base + ((k as u64) * sets + (self.base_set + symbol) as u64) * LINE_SIZE
    }

    /// Primes: fills every monitored set with the receiver's own lines.
    ///
    /// # Errors
    ///
    /// Propagates [`UarchError`] from mapping/reads.
    pub fn prime(&self, m: &mut Machine) -> Result<(), UarchError> {
        let ways = m.cache().way_count();
        for sym in 0..self.symbols {
            for k in 0..ways {
                let addr = self.prime_address(m, sym, k);
                m.map_user_page(addr)?;
                m.timed_read(addr)?;
            }
        }
        Ok(())
    }

    /// Probes: re-reads every primed line; the symbol whose set shows the
    /// most misses is the recovered value.
    ///
    /// # Errors
    ///
    /// Propagates [`UarchError`] from the timed reads.
    pub fn probe(&self, m: &mut Machine) -> Result<Reading, UarchError> {
        let ways = m.cache().way_count() as u64;
        let (hit, miss) = m.cache_latencies();
        // A set is "victim-disturbed" when at least one of its primed ways
        // misses: total latency ≥ (ways-1)*hit + miss.
        let threshold = ways * hit + (miss - hit) / 2;
        let mut totals = Vec::with_capacity(self.symbols);
        for sym in 0..self.symbols {
            let mut total = 0;
            // Probe in reverse priming order so the probe itself does not
            // evict yet-unprobed ways.
            for k in (0..m.cache().way_count()).rev() {
                total += m.timed_read(self.prime_address(m, sym, k))?;
            }
            totals.push(total);
        }
        // Invert the classification: *slow* sets are the signal.
        let hits: Vec<usize> = totals
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t >= threshold)
            .map(|(i, _)| i)
            .collect();
        let recovered = if hits.len() == 1 { Some(hits[0]) } else { None };
        Ok(Reading {
            latencies: totals,
            threshold,
            recovered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush_reload::FlushReload;
    use uarch::UarchConfig;

    impl PrimeProbe {
        /// The *sender's* address for symbol `i` given any sender-side
        /// buffer base (page aligned): an address that maps to the same
        /// set the receiver monitors for `i` (with this channel's set
        /// offset).
        fn sender_address(&self, sender_base: u64, i: usize) -> u64 {
            assert_eq!(sender_base % 4096, 0, "sender buffer must be page aligned");
            sender_base + ((self.base_set + i) as u64) * LINE_SIZE
        }
    }

    #[test]
    fn roundtrip_recovers_symbol() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = PrimeProbe::new(0x40_0000, 8);
        for sym in 0..ch.symbols() {
            ch.prime(&mut m).unwrap();
            // Sender (no shared memory with receiver) touches its own line
            // that maps to monitored set `sym`.
            let sender = ch.sender_address(0x80_0000, sym);
            m.map_user_page(sender).unwrap();
            m.timed_read(sender).unwrap();
            let r = ch.probe(&mut m).unwrap();
            assert_eq!(r.recovered, Some(sym));
        }
    }

    #[test]
    fn flush_reload_is_faster_per_symbol() {
        // §II-C: Flush+Reload is the faster channel — one probe line per
        // symbol against ways × sets of prime/probe traffic. Both channels
        // carry the same message exactly, so total cycles compare per symbol.
        let message: Vec<usize> = (0..8).map(|i| (i * 7 + 3) % 8).collect();

        let mut m = Machine::new(UarchConfig::default());
        let fr = FlushReload::new(0x10_0000, 8);
        let start = m.cycle();
        for &sym in &message {
            fr.prepare(&mut m).unwrap();
            m.touch(fr.slot_address(sym)).unwrap();
            assert_eq!(fr.receive(&mut m).unwrap().recovered, Some(sym));
        }
        let fr_cycles = m.cycle() - start;

        let pp = PrimeProbe::with_base_set(0x40_0000, 8, 32);
        let start = m.cycle();
        for &sym in &message {
            pp.prime(&mut m).unwrap();
            let sender = pp.sender_address(0x80_0000, sym);
            m.map_user_page(sender).unwrap();
            m.timed_read(sender).unwrap();
            assert_eq!(pp.probe(&mut m).unwrap().recovered, Some(sym));
        }
        let pp_cycles = m.cycle() - start;

        assert!(
            fr_cycles < pp_cycles,
            "F+R {fr_cycles} vs P+P {pp_cycles} cycles"
        );
    }

    #[test]
    fn silence_means_no_signal() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = PrimeProbe::new(0x40_0000, 4);
        ch.prime(&mut m).unwrap();
        let r = ch.probe(&mut m).unwrap();
        assert_eq!(r.recovered, None);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_base_panics() {
        let _ = PrimeProbe::new(0x40_0040, 4);
    }

    #[test]
    fn sender_addresses_stride_by_line() {
        let ch = PrimeProbe::new(0x40_0000, 4);
        assert_eq!(
            ch.sender_address(0x1000, 1) - ch.sender_address(0x1000, 0),
            LINE_SIZE
        );
    }

    #[test]
    fn base_set_offsets_the_monitored_range() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = PrimeProbe::with_base_set(0x40_0000, 4, 16);
        ch.prime(&mut m).unwrap();
        let sender = ch.sender_address(0x80_0000, 2); // set 18
        m.map_user_page(sender).unwrap();
        m.timed_read(sender).unwrap();
        let r = ch.probe(&mut m).unwrap();
        assert_eq!(r.recovered, Some(2));
    }
}
