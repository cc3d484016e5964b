//! Hardware predictors — the mis-trainable state that opens Spectre-type
//! speculation windows.
//!
//! * [`PatternHistoryTable`] — 2-bit-counter conditional branch predictor
//!   (Spectre v1/v1.1/v1.2 mis-train "not taken" or "taken").
//! * [`BranchTargetBuffer`] — indirect-branch target predictor, indexed by
//!   pc with no context tag (the sharing that Spectre v2 exploits and that
//!   IBPB-style flushing removes).
//! * [`ReturnStackBuffer`] — return-address predictor (Spectre-RSB).
//! * [`DisambiguationPredictor`] — store-load alias predictor; the
//!   optimistic "no alias" default is the Spectre v4 authorization bypass.

use crate::buffers::Fifo;
use crate::fxmap::FxMap;

/// Saturating 2-bit counter states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::enum_variant_names)] // the textbook state names end in Taken
enum Counter2 {
    StrongNotTaken = 0,
    WeakNotTaken = 1,
    WeakTaken = 2,
    StrongTaken = 3,
}

impl Counter2 {
    fn predict_taken(self) -> bool {
        self >= Counter2::WeakTaken
    }

    fn update(self, taken: bool) -> Self {
        use Counter2::{StrongNotTaken, StrongTaken, WeakNotTaken, WeakTaken};
        match (self, taken) {
            (StrongNotTaken, true) => WeakNotTaken,
            (WeakNotTaken, true) => WeakTaken,
            (WeakTaken, true) | (StrongTaken, true) => StrongTaken,
            (StrongTaken, false) => WeakTaken,
            (WeakTaken, false) => WeakNotTaken,
            (WeakNotTaken, false) | (StrongNotTaken, false) => StrongNotTaken,
        }
    }
}

/// Per-pc 2-bit-counter conditional branch direction predictor.
#[derive(Debug, Clone, Default)]
pub struct PatternHistoryTable {
    counters: FxMap<usize, Counter2>,
}

impl PatternHistoryTable {
    /// Creates an empty (weakly-not-taken) table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicts whether the branch at `pc` is taken.
    #[must_use]
    pub fn predict(&self, pc: usize) -> bool {
        self.counters
            .get(&pc)
            .copied()
            .unwrap_or(Counter2::WeakNotTaken)
            .predict_taken()
    }

    /// Trains the predictor with the actual outcome.
    pub fn update(&mut self, pc: usize, taken: bool) {
        let c = self.counters.entry(pc).or_insert(Counter2::WeakNotTaken);
        *c = c.update(taken);
    }

    /// Clears all state (predictor flush, defense strategy ④).
    pub fn clear(&mut self) {
        self.counters.clear();
    }

    /// Number of tracked branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Indirect-branch target predictor shared across contexts (no ASID tag).
#[derive(Debug, Clone, Default)]
pub struct BranchTargetBuffer {
    targets: FxMap<usize, usize>,
}

impl BranchTargetBuffer {
    /// Creates an empty BTB.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted target for the indirect branch at `pc`, if trained.
    #[must_use]
    pub fn predict(&self, pc: usize) -> Option<usize> {
        self.targets.get(&pc).copied()
    }

    /// Records the resolved target.
    pub fn update(&mut self, pc: usize, target: usize) {
        self.targets.insert(pc, target);
    }

    /// Clears all state (IBPB / predictor invalidation on context switch).
    pub fn clear(&mut self) {
        self.targets.clear();
    }

    /// Number of trained entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the BTB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Return stack buffer of bounded depth: a [`Fifo`] of return addresses.
///
/// A `call` pushes, discarding the *oldest* entry when full; a `ret` pops the
/// newest, and a pop from an empty RSB returns `None` (underfill — the
/// Spectre-RSB trigger).
pub type ReturnStackBuffer = Fifo<usize>;

impl ReturnStackBuffer {
    /// Refills the RSB with `depth` copies of a benign address
    /// (RSB *stuffing*, the Spectre-RSB industry defense).
    pub fn stuff(&mut self, benign: usize) {
        self.clear();
        for _ in 0..self.capacity() {
            self.push(benign);
        }
    }
}

/// Store-load memory disambiguation predictor.
///
/// Predicts, per load pc, whether the load may *bypass* older stores with
/// unresolved addresses. The optimistic default (bypass) is the performance
/// feature Spectre v4 abuses; after an observed alias misprediction the
/// entry flips to conservative.
#[derive(Debug, Clone, Default)]
pub struct DisambiguationPredictor {
    /// pcs that have mispredicted and must not bypass.
    conservative: FxMap<usize, bool>,
}

impl DisambiguationPredictor {
    /// Creates an optimistic predictor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the load at `pc` may bypass unresolved older stores.
    #[must_use]
    pub fn may_bypass(&self, pc: usize) -> bool {
        !self.conservative.get(&pc).copied().unwrap_or(false)
    }

    /// Records an alias misprediction at `pc` (flips to conservative).
    pub fn record_alias(&mut self, pc: usize) {
        self.conservative.insert(pc, true);
    }

    /// Clears all state.
    pub fn clear(&mut self) {
        self.conservative.clear();
    }
}

/// All predictor state of the machine.
#[derive(Debug, Clone)]
pub struct Predictors {
    /// Conditional direction predictor.
    pub pht: PatternHistoryTable,
    /// Indirect target predictor.
    pub btb: BranchTargetBuffer,
    /// Return address predictor.
    pub rsb: ReturnStackBuffer,
    /// Store-load alias predictor.
    pub disambiguation: DisambiguationPredictor,
}

impl Predictors {
    /// Creates fresh predictors with the given RSB depth.
    #[must_use]
    pub fn new(rsb_depth: usize) -> Self {
        Predictors {
            pht: PatternHistoryTable::new(),
            btb: BranchTargetBuffer::new(),
            rsb: ReturnStackBuffer::new(rsb_depth),
            disambiguation: DisambiguationPredictor::new(),
        }
    }

    /// Flushes everything (defense strategy ④).
    pub fn flush(&mut self) {
        self.pht.clear();
        self.btb.clear();
        self.rsb.clear();
        self.disambiguation.clear();
    }

    /// Restores all predictors to their pristine post-[`new`](Predictors::new)
    /// state for a (possibly different) RSB depth, keeping heap capacity.
    pub fn reset(&mut self, rsb_depth: usize) {
        self.pht.clear();
        self.btb.clear();
        self.rsb.reset(rsb_depth);
        self.disambiguation.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pht_default_not_taken_and_trains() {
        let mut p = PatternHistoryTable::new();
        assert!(!p.predict(5));
        p.update(5, true);
        assert!(p.predict(5)); // weak-nt -> weak-taken
        p.update(5, true);
        p.update(5, false);
        assert!(p.predict(5)); // strong-taken -> weak-taken
        p.update(5, false);
        assert!(!p.predict(5));
        assert_eq!(p.len(), 1);
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn pht_saturates() {
        let mut p = PatternHistoryTable::new();
        for _ in 0..10 {
            p.update(1, false);
        }
        // One taken observation cannot flip a strongly-not-taken branch.
        p.update(1, true);
        assert!(!p.predict(1));
    }

    #[test]
    fn btb_trains_and_flushes() {
        let mut b = BranchTargetBuffer::new();
        assert_eq!(b.predict(3), None);
        b.update(3, 42);
        assert_eq!(b.predict(3), Some(42));
        b.update(3, 7);
        assert_eq!(b.predict(3), Some(7));
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn rsb_lifo_and_underfill() {
        let mut r = ReturnStackBuffer::new(2);
        assert_eq!(r.pop(), None); // underfill
        r.push(10);
        r.push(20);
        r.push(30); // evicts oldest (10)
        assert_eq!(r.pop(), Some(30));
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn rsb_stuffing_fills_with_benign() {
        let mut r = ReturnStackBuffer::new(4);
        r.push(99);
        r.stuff(0);
        for _ in 0..4 {
            assert_eq!(r.pop(), Some(0));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rsb_zero_depth_panics() {
        let _ = ReturnStackBuffer::new(0);
    }

    #[test]
    fn disambiguation_optimistic_until_alias() {
        let mut d = DisambiguationPredictor::new();
        assert!(d.may_bypass(7));
        d.record_alias(7);
        assert!(!d.may_bypass(7));
        assert!(d.may_bypass(8));
        d.clear();
        assert!(d.may_bypass(7));
    }

    #[test]
    fn predictors_flush_clears_all() {
        let mut p = Predictors::new(8);
        p.pht.update(1, true);
        p.btb.update(1, 2);
        p.rsb.push(3);
        p.disambiguation.record_alias(4);
        p.flush();
        assert!(p.pht.is_empty());
        assert!(p.btb.is_empty());
        assert_eq!(p.rsb.pop(), None);
        assert!(p.disambiguation.may_bypass(4));
    }
}
