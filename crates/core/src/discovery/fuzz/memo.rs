//! Asking each distinct question once per batch.
//!
//! Both oracles read a scenario's combo, its program (instructions and
//! labels) and its three pcs, and nothing else: the mutation list only
//! explains a divergence after the fact. Two scenarios that agree on
//! those fields get the same verdicts, so a batch classifies each
//! [`Question`] once, and its minimizations share one [`LeakMemo`] of
//! [`DualOracle::both_leak`](super::DualOracle::both_leak) answers.

use super::gen::Scenario;
use crate::campaign::{fnv1a, FNV_OFFSET};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, PoisonError};
use uarch::{FxHasher, FxMap};

/// Feeds everything the oracles read of `s` into `h`: the combo, every
/// instruction, every label (sorted) and the three pcs.
fn hash_question<H: Hasher>(s: &Scenario, h: &mut H) {
    s.combo.hash(h);
    s.program.instructions().hash(h);
    let mut labels = s.program.labels();
    labels.sort_unstable();
    labels.hash(h);
    (s.access_pc, s.gadget_pc, s.benign_pc).hash(h);
}

/// A scenario as the oracles see it: two are equal exactly when their
/// combos, programs and pcs are, whatever their mutation lists say.
struct Question<'a>(&'a Scenario);

impl PartialEq for Question<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.combo == b.combo
            && a.program == b.program
            && (a.access_pc, a.gadget_pc, a.benign_pc) == (b.access_pc, b.gadget_pc, b.benign_pc)
    }
}

impl Eq for Question<'_> {}

impl Hash for Question<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        hash_question(self.0, h);
    }
}

/// Groups `scenarios` into their distinct questions, keyed by exact
/// content (never a digest), in first-index order. The first list holds
/// each group's first index; the second maps every index to its group.
pub(crate) fn distinct_questions(scenarios: &[Scenario]) -> (Vec<usize>, Vec<usize>) {
    let mut index: FxMap<Question<'_>, usize> = FxMap::default();
    let mut firsts = Vec::new();
    let group_of = scenarios
        .iter()
        .enumerate()
        .map(|(k, s)| {
            *index.entry(Question(s)).or_insert_with(|| {
                firsts.push(k);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, group_of)
}

/// Two independent 64-bit hashes of one byte stream: FNV-1a and Fx.
struct Digest {
    fnv: u64,
    fx: FxHasher,
}

impl Hasher for Digest {
    fn write(&mut self, bytes: &[u8]) {
        self.fnv = fnv1a(bytes, self.fnv);
        self.fx.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.fnv
    }
}

/// The 128-bit content digest of `s`'s question.
fn digest(s: &Scenario) -> u128 {
    let mut d = Digest {
        fnv: FNV_OFFSET,
        fx: FxHasher::default(),
    };
    hash_question(s, &mut d);
    u128::from(d.fnv) << 64 | u128::from(d.fx.finish())
}

/// `both_leak` answers shared by one batch's minimizations: one digest
/// and one `bool` per distinct question asked, dropped with the batch.
/// Keys are [`digest`]s rather than programs, so an entry costs the same
/// whatever the program's length.
#[derive(Debug, Default)]
pub(crate) struct LeakMemo {
    answers: Mutex<FxMap<u128, bool>>,
}

impl LeakMemo {
    /// The memoized answer to `s`, running `evaluate` on a miss. Debug
    /// builds re-evaluate every hit, so the test suite checks that the
    /// digest covers everything the answer depends on.
    pub(crate) fn answer(&self, s: &Scenario, evaluate: impl FnOnce(&Scenario) -> bool) -> bool {
        let key = digest(s);
        let hit = self.lock().get(&key).copied();
        match hit {
            Some(answer) => {
                debug_assert_eq!(answer, evaluate(s), "memo hit disagrees: {s:?}");
                answer
            }
            None => {
                let answer = evaluate(s);
                self.lock().insert(key, answer);
                answer
            }
        }
    }

    /// How many distinct questions have been answered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// The answer map; a panicking worker cannot leave it half-updated.
    fn lock(&self) -> std::sync::MutexGuard<'_, FxMap<u128, bool>> {
        self.answers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen::{Combo, Mutation};
    use super::*;

    #[test]
    fn questions_ignore_mutations_and_see_every_pc() {
        let combo = Combo::from_label("kernel-memory/indirect-branch/flush-reload").unwrap();
        let a = Scenario::template(combo);
        let relabelled = Scenario {
            mutations: vec![Mutation::Launder],
            ..a.clone()
        };
        let moved = Scenario {
            benign_pc: a.benign_pc + 1,
            ..a.clone()
        };
        let shorter = a.with_removed(0).unwrap();
        let all = [
            a.clone(),
            relabelled.clone(),
            moved.clone(),
            shorter.clone(),
            a.clone(),
        ];
        assert_eq!(
            distinct_questions(&all),
            (vec![0, 2, 3], vec![0, 0, 1, 2, 0])
        );
        assert_eq!(digest(&a), digest(&relabelled));
        assert_ne!(digest(&a), digest(&moved));
        assert_ne!(digest(&a), digest(&shorter));
    }
}
