//! Leaky micro-architectural buffers: line fill buffer, store buffer and
//! load ports, each one [`Fifo`] of recent entries.
//!
//! These are the *sources of secrets* for the MDS attack family in the
//! paper's Figure 4: a faulting load on a vulnerable machine aggressively
//! forwards stale data from one of these structures instead of the correct
//! memory value — RIDL (load port / line fill buffer), ZombieLoad (line fill
//! buffer), Fallout (store buffer), and LVI (attacker-planted values in any
//! of them). The return stack buffer
//! ([`ReturnStackBuffer`](crate::predictor::ReturnStackBuffer)) is the same
//! `Fifo`, read from its newest end.

use crate::cache::WORDS_PER_LINE;
use std::collections::VecDeque;

/// A bounded queue of recent entries: a push into a full `Fifo` drops the
/// oldest entry, and the reads look at the newest end.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    entries: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates an empty `Fifo` holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let mut fifo = Fifo {
            entries: VecDeque::new(),
            capacity,
        };
        fifo.reset(capacity);
        fifo
    }

    /// Empties the `Fifo` and adopts a (possibly different) capacity,
    /// keeping the heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        self.entries.clear();
        self.capacity = capacity;
    }

    /// The most entries the `Fifo` holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `entry`, first dropping the oldest entry if the `Fifo` is
    /// full.
    pub fn push(&mut self, entry: T) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// Removes and returns the newest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.entries.pop_back()
    }

    /// Empties the `Fifo` (e.g. VERW-style buffer overwriting).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The newest entry.
    #[must_use]
    pub fn newest(&self) -> Option<&T> {
        self.entries.back()
    }

    /// The entries, newest first.
    pub fn newest_first(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().rev()
    }
}

/// One line-fill-buffer entry: a line in flight (or recently completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfbEntry {
    /// Line-aligned physical address.
    pub base: u64,
    /// Line data.
    pub data: [u64; WORDS_PER_LINE],
}

/// The line fill buffer: recently-filled lines whose stale contents remain
/// visible to faulting loads (ZombieLoad/RIDL).
pub type LineFillBuffer = Fifo<LfbEntry>;

impl LineFillBuffer {
    /// The *stale* word a faulting load at line offset `offset` would
    /// sample: the most recent entry's word at that offset.
    #[must_use]
    pub fn sample(&self, offset: u64) -> Option<u64> {
        let word = ((offset % 64) / 8) as usize;
        self.newest().map(|e| e.data[word])
    }
}

/// One store-buffer entry: a retired store not yet drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEntry {
    /// Full physical address of the store.
    pub paddr: u64,
    /// Stored value.
    pub value: u64,
}

/// The store buffer: retired stores, which a faulting load samples by a
/// match in the low address bits (Fallout).
pub type StoreBuffer = Fifo<StoreEntry>;

impl StoreBuffer {
    /// The value a *faulting* load would transiently sample (Fallout):
    /// the newest entry whose **page offset** matches the load's page
    /// offset — the partial-address match of real store buffers.
    #[must_use]
    pub fn sample_by_offset(&self, page_offset: u64) -> Option<u64> {
        let off = (page_offset % 4096) & !7;
        self.newest_first()
            .find(|e| (e.paddr % 4096) & !7 == off)
            .map(|e| e.value)
    }
}

/// Load-port residue: values recently moved through the load ports, of
/// which a faulting load samples the newest (RIDL).
pub type LoadPorts = Fifo<u64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_drops_oldest_and_pops_newest() {
        let mut f = Fifo::new(2);
        assert_eq!(f.pop(), None);
        f.push(1);
        f.push(2);
        f.push(3); // drops 1
        assert_eq!(f.newest(), Some(&3));
        assert_eq!(f.newest_first().copied().collect::<Vec<_>>(), [3, 2]);
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn fifo_reset_adopts_capacity() {
        let mut f = Fifo::new(1);
        f.push(1);
        f.reset(2);
        assert_eq!((f.capacity(), f.newest()), (2, None));
        f.push(2);
        f.push(3);
        assert_eq!(f.newest_first().copied().collect::<Vec<_>>(), [3, 2]);
        f.clear();
        assert_eq!(f.newest(), None);
    }

    #[test]
    fn lfb_records_and_samples_most_recent() {
        let mut l = LineFillBuffer::new(2);
        assert_eq!(l.sample(0), None);
        l.push(LfbEntry {
            base: 0x000,
            data: [1; WORDS_PER_LINE],
        });
        l.push(LfbEntry {
            base: 0x040,
            data: [2; WORDS_PER_LINE],
        });
        assert_eq!(l.sample(8), Some(2));
    }

    #[test]
    fn lfb_sample_respects_word_offset() {
        let mut l = LineFillBuffer::new(1);
        let mut data = [0u64; WORDS_PER_LINE];
        data[3] = 0xdead;
        l.push(LfbEntry { base: 0x100, data });
        assert_eq!(l.sample(24), Some(0xdead));
        assert_eq!(l.sample(0), Some(0));
        // Offsets wrap at line size.
        assert_eq!(l.sample(64 + 24), Some(0xdead));
    }

    fn store(paddr: u64, value: u64) -> StoreEntry {
        StoreEntry { paddr, value }
    }

    #[test]
    fn store_buffer_fallout_offset_match() {
        let mut s = StoreBuffer::new(4);
        // Victim stores a secret at kernel address 0xffff_1238.
        s.push(store(0xffff_1238, 0x5ec2e7));
        // Attacker's faulting load at user address with same page offset
        // 0x238 samples it.
        assert_eq!(s.sample_by_offset(0x238), Some(0x5ec2e7));
        assert_eq!(s.sample_by_offset(0x240), None);
    }

    #[test]
    fn store_buffer_capacity() {
        let mut s = StoreBuffer::new(2);
        s.push(store(0, 1));
        s.push(store(8, 2));
        s.push(store(0x1008, 3));
        assert_eq!(s.sample_by_offset(0), None); // oldest evicted
        assert_eq!(s.sample_by_offset(8), Some(3)); // newest match wins
    }

    #[test]
    fn load_ports_sample_latest() {
        let mut p = LoadPorts::new(2);
        assert_eq!(p.newest(), None);
        p.push(5);
        p.push(6);
        p.push(7);
        assert_eq!(p.newest(), Some(&7));
        assert_eq!(p.newest_first().count(), 2);
    }
}
