//! A set-associative, physically-indexed data cache with LRU replacement.
//!
//! The cache is the covert-channel medium of most speculative attacks: its
//! state is *not* rolled back on a squash (unless the CleanupSpec defense is
//! active), so a transiently-executed "Load R" leaves an observable hit.
//!
//! The cache stores presence and data per 64-byte line; data is kept so the
//! Foreshadow model can read stale secrets *from the L1* after a terminal
//! fault.

/// Cache line size in bytes.
pub const LINE_SIZE: u64 = 64;

/// Words (u64) per line.
pub const WORDS_PER_LINE: usize = (LINE_SIZE / 8) as usize;

/// One resident cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Line {
    /// Line-aligned physical base address.
    base: u64,
    /// Data words.
    data: [u64; WORDS_PER_LINE],
    /// LRU stamp; larger = more recently used.
    lru: u64,
    /// Protection domain that owns the line (DAWG way-partitioning).
    domain: u32,
}

/// A set-associative L1 data cache.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
    /// DAWG-style partitioning: when enabled, hits require the accessing
    /// domain to own the line, so one domain can neither observe nor evict
    /// another domain's cache state through timing.
    partitioned: bool,
    /// The protection domain performing accesses (the current context).
    active_domain: u32,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` lines each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache dimensions must be non-zero");
        Cache {
            sets: vec![Vec::new(); sets],
            ways,
            tick: 0,
            partitioned: false,
            active_domain: 0,
        }
    }

    /// Enables/disables DAWG-style domain partitioning.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Restores the cache to its pristine post-[`new`](Cache::new) state for
    /// a possibly different geometry, reusing the per-set allocations where
    /// the set count allows.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn reset(&mut self, sets: usize, ways: usize) {
        assert!(sets > 0 && ways > 0, "cache dimensions must be non-zero");
        for set in &mut self.sets {
            set.clear();
        }
        self.sets.resize_with(sets, Vec::new);
        self.ways = ways;
        self.tick = 0;
        self.partitioned = false;
        self.active_domain = 0;
    }

    /// Sets the protection domain performing subsequent accesses.
    pub fn set_active_domain(&mut self, domain: u32) {
        self.active_domain = domain;
    }

    fn visible(&self, line_domain: u32) -> bool {
        !self.partitioned || line_domain == self.active_domain
    }

    /// The set of `paddr`'s line: `line % sets`, as a mask when the set
    /// count is a power of two (every default geometry), so the probe
    /// sweeps' per-slot lookups skip a division.
    fn set_index(&self, paddr: u64) -> usize {
        let (line, sets) = (paddr / LINE_SIZE, self.sets.len() as u64);
        if sets.is_power_of_two() {
            (line & (sets - 1)) as usize
        } else {
            (line % sets) as usize
        }
    }

    fn line_base(paddr: u64) -> u64 {
        paddr & !(LINE_SIZE - 1)
    }

    /// Whether the line containing `paddr` is resident *and visible to the
    /// active domain*. Does not update LRU or statistics (an *oracle* probe
    /// for tests and channel math).
    #[must_use]
    pub fn contains(&self, paddr: u64) -> bool {
        let base = Self::line_base(paddr);
        self.sets[self.set_index(paddr)]
            .iter()
            .any(|l| l.base == base && self.visible(l.domain))
    }

    /// Looks up the word at `paddr`. On a hit returns the data and updates
    /// LRU; on a miss returns `None`.
    pub fn lookup(&mut self, paddr: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let base = Self::line_base(paddr);
        let set = self.set_index(paddr);
        let word = ((paddr - base) / 8) as usize;
        let (partitioned, dom) = (self.partitioned, self.active_domain);
        let line = self.sets[set]
            .iter_mut()
            .find(|l| l.base == base && (!partitioned || l.domain == dom))?;
        line.lru = tick;
        Some(line.data[word])
    }

    /// Inserts (fills) the line containing `paddr` with `data` words.
    /// Returns the base address and data of an evicted line, if any.
    pub fn fill(
        &mut self,
        paddr: u64,
        data: [u64; WORDS_PER_LINE],
    ) -> Option<(u64, [u64; WORDS_PER_LINE])> {
        self.tick += 1;
        let tick = self.tick;
        let base = Self::line_base(paddr);
        let set = self.set_index(paddr);
        let (partitioned, dom) = (self.partitioned, self.active_domain);
        let lines = &mut self.sets[set];
        if let Some(line) = lines
            .iter_mut()
            .find(|l| l.base == base && (!partitioned || l.domain == dom))
        {
            line.data = data;
            line.lru = tick;
            return None;
        }
        let new_line = Line {
            base,
            data,
            lru: tick,
            domain: dom,
        };
        if lines.len() < self.ways {
            lines.push(new_line);
            None
        } else {
            let victim_idx = lru_victim(lines, partitioned, dom);
            let victim = std::mem::replace(&mut lines[victim_idx], new_line);
            Some((victim.base, victim.data))
        }
    }

    /// Writes the word at `paddr` through to the resident line (no
    /// allocation on write miss). Returns whether the line was resident.
    pub fn write_through(&mut self, paddr: u64, value: u64) -> bool {
        let base = Self::line_base(paddr);
        let set = self.set_index(paddr);
        let word = ((paddr - base) / 8) as usize;
        // Writes update the line regardless of domain (coherence), without
        // changing timing-observable ownership.
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.base == base) {
            line.data[word] = value;
            true
        } else {
            false
        }
    }

    /// Flushes (evicts) the line containing `paddr` (clflush). Returns the
    /// evicted data if the line was resident.
    pub fn flush(&mut self, paddr: u64) -> Option<[u64; WORDS_PER_LINE]> {
        let base = Self::line_base(paddr);
        let set = self.set_index(paddr);
        let (partitioned, dom) = (self.partitioned, self.active_domain);
        let lines = &mut self.sets[set];
        // Under partitioning a domain may only flush its own lines.
        let i = lines
            .iter()
            .position(|l| l.base == base && (!partitioned || l.domain == dom))?;
        Some(lines.swap_remove(i).data)
    }

    /// One reload-and-flush probe of the line containing `paddr`: exactly
    /// the effect of [`lookup`](Cache::lookup), then [`fill`](Cache::fill)
    /// on a miss, then [`flush`](Cache::flush), without reading or writing
    /// line data. Returns whether the reload hit.
    ///
    /// A hit removes the line. A miss leaves no line behind, but its fill
    /// still evicted the set's replacement victim when the set was full.
    pub fn reload_flush(&mut self, paddr: u64) -> bool {
        let base = Self::line_base(paddr);
        let set = self.set_index(paddr);
        let (partitioned, dom) = (self.partitioned, self.active_domain);
        let lines = &mut self.sets[set];
        if let Some(i) = lines
            .iter()
            .position(|l| l.base == base && (!partitioned || l.domain == dom))
        {
            self.tick += 1;
            lines.swap_remove(i);
            return true;
        }
        self.tick += 2;
        if lines.len() >= self.ways {
            lines.swap_remove(lru_victim(lines, partitioned, dom));
        }
        false
    }

    /// All resident line base addresses, sorted.
    #[must_use]
    pub fn resident_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .sets
            .iter()
            .flat_map(|s| s.iter().map(|l| l.base))
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    #[must_use]
    pub fn way_count(&self) -> usize {
        self.ways
    }
}

/// The replacement victim of a full set: its least recently used line.
/// Under partitioning the victim is chosen within the accessing domain's
/// own ways where possible — the DAWG property that one domain cannot
/// evict another's lines.
fn lru_victim(lines: &[Line], partitioned: bool, dom: u32) -> usize {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !partitioned || l.domain == dom)
        .min_by_key(|(_, l)| l.lru)
        .or_else(|| lines.iter().enumerate().min_by_key(|(_, l)| l.lru))
        .map(|(i, _)| i)
        .expect("non-empty set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.lookup(0x100), None);
        c.fill(0x100, [7; WORDS_PER_LINE]);
        assert_eq!(c.lookup(0x100), Some(7));
        assert_eq!(c.lookup(0x108), Some(7)); // same line, next word
    }

    #[test]
    fn line_granularity() {
        let mut c = Cache::new(4, 2);
        c.fill(0x1000, [1; WORDS_PER_LINE]);
        assert!(c.contains(0x1000));
        assert!(c.contains(0x103f));
        assert!(!c.contains(0x1040)); // next line
    }

    #[test]
    fn lru_eviction() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.fill(0x000, [1; WORDS_PER_LINE]);
        c.fill(0x040, [2; WORDS_PER_LINE]);
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(c.lookup(0x000), Some(1));
        let evicted = c.fill(0x080, [3; WORDS_PER_LINE]);
        assert_eq!(evicted.map(|(b, _)| b), Some(0x040));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
    }

    #[test]
    fn flush_evicts_line() {
        let mut c = Cache::new(4, 2);
        c.fill(0x200, [9; WORDS_PER_LINE]);
        assert!(c.contains(0x200));
        assert_eq!(c.flush(0x210).map(|d| d[0]), Some(9)); // any addr in line
        assert!(!c.contains(0x200));
        assert_eq!(c.flush(0x200), None); // already gone
    }

    #[test]
    fn write_through_updates_resident_only() {
        let mut c = Cache::new(4, 2);
        assert!(!c.write_through(0x300, 5));
        c.fill(0x300, [0; WORDS_PER_LINE]);
        assert!(c.write_through(0x308, 5));
        assert_eq!(c.lookup(0x308), Some(5));
        assert_eq!(c.lookup(0x300), Some(0));
    }

    #[test]
    fn refill_updates_data_without_eviction() {
        let mut c = Cache::new(2, 2);
        c.fill(0x40, [1; WORDS_PER_LINE]);
        let e = c.fill(0x40, [2; WORDS_PER_LINE]);
        assert!(e.is_none());
        assert_eq!(c.lookup(0x40), Some(2));
    }

    #[test]
    fn resident_lines_and_occupancy() {
        let mut c = Cache::new(2, 2);
        c.fill(0x00, [0; WORDS_PER_LINE]);
        c.fill(0x40, [0; WORDS_PER_LINE]);
        assert_eq!(c.resident_lines(), vec![0x00, 0x40]);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1);
        c.fill(0x00, [0; WORDS_PER_LINE]); // set 0
        c.fill(0x40, [0; WORDS_PER_LINE]); // set 1
        assert!(c.contains(0x00));
        assert!(c.contains(0x40));
        // Same set as 0x00 with 1 way: evicts.
        c.fill(0x80, [0; WORDS_PER_LINE]);
        assert!(!c.contains(0x00));
        assert!(c.contains(0x80));
    }

    #[test]
    fn set_index_is_the_line_modulo_the_set_count() {
        let mut c = Cache::new(1, 1);
        for sets in 1..=130 {
            c.reset(sets, 1);
            for paddr in (0..3 * 131 * LINE_SIZE).step_by(24) {
                assert_eq!(
                    c.set_index(paddr) as u64,
                    (paddr / LINE_SIZE) % sets as u64,
                    "sets {sets}, paddr {paddr:#x}"
                );
            }
            let far = u64::MAX - 7;
            assert_eq!(c.set_index(far) as u64, (far / LINE_SIZE) % sets as u64);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Cache::new(0, 1);
    }
}
