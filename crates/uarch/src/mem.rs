//! Flat physical memory.

use crate::cache::{LINE_SIZE, WORDS_PER_LINE};
use crate::fxmap::FxMap;

/// Sparse physical memory, stored as 64-byte lines.
///
/// All word accesses are 8-byte and 8-byte aligned (the attack models never
/// need sub-word granularity); unaligned addresses are rounded down.
/// Unwritten memory reads as zero. A line is stored only while one of its
/// words is non-zero, so a cache-line fill is one table probe.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Lines with at least one non-zero word, keyed by `paddr / LINE_SIZE`.
    lines: FxMap<u64, [u64; WORDS_PER_LINE]>,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The line number and word index of the word containing `addr`.
    fn locate(addr: u64) -> (u64, usize) {
        (addr / LINE_SIZE, (addr % LINE_SIZE / 8) as usize)
    }

    /// Reads the 8-byte word containing `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (line, word) = Self::locate(addr);
        self.lines.get(&line).map_or(0, |l| l[word])
    }

    /// Reads the 64-byte line containing `addr`, lowest address first.
    #[must_use]
    pub fn read_line(&self, addr: u64) -> [u64; WORDS_PER_LINE] {
        self.lines
            .get(&(addr / LINE_SIZE))
            .copied()
            .unwrap_or([0; WORDS_PER_LINE])
    }

    /// Writes the 8-byte word containing `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (line, word) = Self::locate(addr);
        if value != 0 {
            self.lines.entry(line).or_insert([0; WORDS_PER_LINE])[word] = value;
        } else if let Some(l) = self.lines.get_mut(&line) {
            l[word] = 0;
            if l.iter().all(|&w| w == 0) {
                self.lines.remove(&line);
            }
        }
    }

    /// Number of non-zero words stored.
    #[cfg(test)]
    fn populated_words(&self) -> usize {
        self.lines
            .values()
            .map(|l| l.iter().filter(|&&w| w != 0).count())
            .sum()
    }

    /// Zeroes all of memory, keeping the heap capacity.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn zero_by_default() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x1234), 0);
    }

    #[test]
    fn roundtrip_and_alignment() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 42);
        assert_eq!(m.read_u64(0x1000), 42);
        assert_eq!(m.read_u64(0x1007), 42); // same word
        assert_eq!(m.read_u64(0x1008), 0); // next word
        m.write_u64(0x1003, 7); // rounds down to 0x1000
        assert_eq!(m.read_u64(0x1000), 7);
    }

    #[test]
    fn writing_zero_reclaims_storage() {
        let mut m = Memory::new();
        m.write_u64(8, 5);
        assert_eq!(m.populated_words(), 1);
        m.write_u64(8, 0);
        assert_eq!(m.populated_words(), 0);
        assert_eq!(m.read_u64(8), 0);
    }

    /// A write to any byte address in a four-line window, with a value that
    /// is zero one time in three so lines empty out again.
    fn arb_write() -> impl Strategy<Value = (u64, u64)> {
        (0u64..4 * LINE_SIZE, 0u64..3, 1u64..u64::MAX)
            .prop_map(|(addr, pick, v)| (0x40_0000 + addr, if pick == 0 { 0 } else { v }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The line store behaves exactly like a map of aligned non-zero
        /// words, through `read_u64`, `read_line`, `populated_words` and
        /// `clear`.
        #[test]
        fn lines_match_a_word_map(writes in proptest::collection::vec(arb_write(), 0..64)) {
            let mut m = Memory::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for &(addr, value) in &writes {
                m.write_u64(addr, value);
                if value == 0 {
                    model.remove(&(addr & !7));
                } else {
                    model.insert(addr & !7, value);
                }
                prop_assert_eq!(m.populated_words(), model.len());
            }
            let word = |a: u64| model.get(&a).copied().unwrap_or(0);
            for addr in (0x40_0000 - LINE_SIZE..0x40_0000 + 5 * LINE_SIZE).step_by(4) {
                prop_assert_eq!(m.read_u64(addr), word(addr & !7), "word at {:#x}", addr);
                let base = addr & !(LINE_SIZE - 1);
                let want: Vec<u64> = (0..LINE_SIZE).step_by(8).map(|o| word(base + o)).collect();
                prop_assert_eq!(m.read_line(addr).to_vec(), want, "line at {:#x}", addr);
            }
            m.clear();
            prop_assert_eq!(m.populated_words(), 0);
            prop_assert_eq!(m.read_line(0x40_0000), [0; WORDS_PER_LINE]);
        }
    }
}
