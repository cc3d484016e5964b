//! Flush+Reload: the *hit + access* channel (§II-C), the default covert
//! channel of most speculative attacks and of this reproduction.
//!
//! The receiver flushes a shared probe array (one page per symbol to defeat
//! prefetching, as in the paper's Listing 1), waits for the sender to touch
//! the slot indexed by the secret, then reloads every slot, times it and
//! flushes it again: one fast (hit) slot reveals the secret.
//!
//! The flush after each timed reload is the textbook loop. Without it every
//! missed slot would stay filled, and on a small cache a slot read early
//! could evict the secret's slot from its set before that slot is read.
//! With it, the receive leaves the channel re-armed: no probe line is
//! resident afterwards.

use crate::reading::Reading;
use uarch::{Machine, UarchError};

/// Bytes between consecutive probe slots: one 4 KiB page per symbol (as in
/// `Array_A[secret * 4096]` of the paper's Listing 1) **plus one cache
/// line**. The extra line skews consecutive slots into distinct cache sets
/// of the simulator's single-level 64-set cache; real attacks get the same
/// property from the many-set last-level cache, where page-strided probes
/// do not collide.
pub const SLOT_STRIDE: u64 = 4096 + 64;

/// A Flush+Reload channel over `slots` page-strided probe lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReload {
    base: u64,
    slots: usize,
}

impl FlushReload {
    /// Creates a channel with probe array at `base` (page aligned
    /// recommended) and `slots` symbols.
    #[must_use]
    pub fn new(base: u64, slots: usize) -> Self {
        FlushReload { base, slots }
    }

    /// The probe array base address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of symbol slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The virtual address of probe slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.slots()`.
    #[must_use]
    pub fn slot_address(&self, i: usize) -> u64 {
        assert!(i < self.slots, "slot {i} out of range");
        self.base + (i as u64) * SLOT_STRIDE
    }

    /// The hit/miss decision threshold for `m`'s latency configuration.
    #[must_use]
    pub fn threshold(m: &Machine) -> u64 {
        let (hit, miss) = m.cache_latencies();
        (hit + miss) / 2
    }

    /// Step 1(a) of the paper's attack flow: maps the probe pages and
    /// flushes every slot, establishing the channel.
    ///
    /// # Errors
    ///
    /// Propagates [`UarchError`] from mapping/flushing.
    pub fn prepare(&self, m: &mut Machine) -> Result<(), UarchError> {
        for i in 0..self.slots {
            let addr = self.slot_address(i);
            m.map_user_page(addr)?;
            m.flush_line(addr)?;
        }
        Ok(())
    }

    /// Re-arms a [`prepare`](FlushReload::prepare)d channel between runs:
    /// flushes every slot ([`Machine::flush_lines`]) and leaves the
    /// mappings as they are.
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] for the first slot whose page was never
    /// mapped (the channel was not prepared on `m`); the cache is then
    /// unchanged.
    pub fn rearm(&self, m: &mut Machine) -> Result<(), UarchError> {
        m.flush_lines((0..self.slots).map(|i| self.slot_address(i)))
    }

    /// Step 5 (receive): reloads every slot, times it and flushes it
    /// ([`Machine::reload_and_flush`]), then classifies the latencies. The
    /// channel is re-armed afterwards.
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if a slot's page was never mapped (the
    /// channel was not prepared on `m`); `m` is then unchanged.
    pub fn receive(&self, m: &mut Machine) -> Result<Reading, UarchError> {
        let threshold = Self::threshold(m);
        let mut latencies = Vec::with_capacity(self.slots);
        m.reload_and_flush(
            (0..self.slots).map(|i| self.slot_address(i)),
            &mut latencies,
        )?;
        Ok(Reading::classify(latencies, threshold))
    }

    /// Convenience: which slots are currently resident, via the cache
    /// oracle (no state perturbation) — useful in tests.
    ///
    /// # Errors
    ///
    /// Propagates [`UarchError`] from translation.
    pub fn resident_slots(&self, m: &Machine) -> Result<Vec<usize>, UarchError> {
        let mut v = Vec::new();
        for i in 0..self.slots {
            if m.cache_contains(self.slot_address(i))? {
                v.push(i);
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::UarchConfig;

    #[test]
    fn roundtrip_recovers_symbol() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 32);
        for sym in 0..ch.slots() {
            ch.prepare(&mut m).unwrap();
            assert!(ch.resident_slots(&m).unwrap().is_empty());
            m.touch(ch.slot_address(sym)).unwrap();
            let r = ch.receive(&mut m).unwrap();
            assert_eq!(r.recovered, Some(sym));
        }
    }

    #[test]
    fn no_send_means_no_signal() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        ch.prepare(&mut m).unwrap();
        let r = ch.receive(&mut m).unwrap();
        assert_eq!(r.recovered, None);
        assert!(r.hit_slots().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range_panics() {
        let _ = FlushReload::new(0, 4).slot_address(4);
    }

    #[test]
    fn reprepare_clears_previous_send() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        ch.prepare(&mut m).unwrap();
        m.touch(ch.slot_address(3)).unwrap();
        ch.prepare(&mut m).unwrap();
        let r = ch.receive(&mut m).unwrap();
        assert_eq!(r.recovered, None);
    }

    #[test]
    fn rearm_clears_previous_send() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        ch.prepare(&mut m).unwrap();
        m.touch(ch.slot_address(3)).unwrap();
        ch.rearm(&mut m).unwrap();
        assert!(ch.resident_slots(&m).unwrap().is_empty());
        let r = ch.receive(&mut m).unwrap();
        assert_eq!(r.recovered, None);
    }

    #[test]
    fn receive_rearms_its_own_channel() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        ch.prepare(&mut m).unwrap();
        m.touch(ch.slot_address(5)).unwrap();
        assert_eq!(ch.receive(&mut m).unwrap().recovered, Some(5));
        assert!(ch.resident_slots(&m).unwrap().is_empty());
        // So a second receive sees no signal.
        assert_eq!(ch.receive(&mut m).unwrap().recovered, None);
    }

    #[test]
    fn rearm_of_a_partly_mapped_array_fails_before_it_flushes() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        let mapped = [0, 1, 2, 4, 6];
        for i in mapped {
            m.map_user_page(ch.slot_address(i)).unwrap();
            m.touch(ch.slot_address(i)).unwrap();
        }
        assert!(matches!(
            ch.rearm(&mut m),
            Err(UarchError::Unmapped { vaddr }) if vaddr == ch.slot_address(3)
        ));
        for i in mapped {
            assert!(m.cache_contains(ch.slot_address(i)).unwrap(), "slot {i}");
        }
    }

    #[test]
    fn rearm_on_an_unprepared_machine_is_unmapped() {
        let mut m = Machine::new(UarchConfig::default());
        let ch = FlushReload::new(0x10_0000, 8);
        assert!(matches!(
            ch.rearm(&mut m),
            Err(UarchError::Unmapped { vaddr: 0x10_0000 })
        ));
    }
}
