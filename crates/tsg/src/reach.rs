//! The reachability index: a bitset transitive closure answering
//! "does `u` reach `v`?" in O(1) after one O(V·E/64) build, and kept
//! *live* across edge insertions via [`ReachabilityIndex::insert_edge`].
//!
//! Theorem 1 reduces race detection to reachability, so *every* verdict
//! this crate produces — [`Tsg::has_race`](crate::Tsg::has_race), all-pairs
//! race scans, security-dependency checks — is at heart a reachability
//! query. The seed implementation paid a fresh DFS per query; campaign
//! workloads (attack × defense × config matrices) ask thousands of queries
//! against the same graph, so the closure is computed once per graph and
//! cached on the [`Tsg`].
//!
//! Mutation is two-tier. A full [`ReachabilityIndex::build`] is the oracle
//! and the fallback after the one structural change the incremental path
//! does not cover: a node addition. (The graph is grow-only; rolling back
//! to a checkpoint restores that checkpoint's snapshot of the index.)
//! An *edge* insertion into an already-indexed graph — the patch-heavy
//! campaign case: security-dependency edges applied and rolled back per
//! candidate defense stack — updates the closure in place instead
//! (Italiano-style incremental transitive closure): every row that reaches
//! the edge's source absorbs the target's descendant row, `O(affected
//! rows · V/64)` word operations per edge instead of a full rebuild.
//!
//! Representation: one `u64` row-slice per vertex, `words = ⌈V/64⌉` words
//! each, row `u` holding the (reflexive) descendant set of `u`. Rows are
//! filled in reverse topological order, so each vertex ORs its successors'
//! already-complete rows — `O(V·E/64)` word operations total.

use crate::graph::Tsg;
use crate::node::NodeId;

/// A bitset transitive closure of a [`Tsg`].
///
/// Built once per graph state via [`ReachabilityIndex::build`] (or lazily
/// through [`Tsg::reachability`](crate::Tsg::reachability)); queries are
/// single word-and-mask probes.
///
/// ```
/// use tsg::{Tsg, NodeKind, EdgeKind, ReachabilityIndex};
/// # fn main() -> Result<(), tsg::TsgError> {
/// let mut g = Tsg::new();
/// let a = g.add_node("a", NodeKind::Compute);
/// let b = g.add_node("b", NodeKind::Compute);
/// let c = g.add_node("c", NodeKind::Compute);
/// g.add_edge(a, b, EdgeKind::Data)?;
/// g.add_edge(b, c, EdgeKind::Data)?;
/// let idx = ReachabilityIndex::build(&g);
/// assert!(idx.reaches(a, c));      // transitive
/// assert!(!idx.reaches(c, a));     // directed
/// assert!(!idx.races(a, c));       // connected ⇒ no race (Theorem 1)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityIndex {
    nodes: usize,
    words: usize,
    /// `nodes × words` row-major closure bits; bit `v` of row `u` means
    /// `u` reaches `v` (reflexively).
    bits: Vec<u64>,
}

impl ReachabilityIndex {
    /// Computes the transitive closure of `g`.
    ///
    /// One pass over the vertices in reverse topological order; each vertex
    /// ORs the rows of its direct successors.
    #[must_use]
    pub fn build(g: &Tsg) -> Self {
        let nodes = g.node_count();
        let words = nodes.div_ceil(64);
        let mut bits = vec![0u64; nodes * words];
        // Any topological order works here (rows only need complete
        // successors); the unordered Kahn pass skips the public sort's
        // deterministic-tie-break heap.
        let topo = g.topo_order_unordered();
        debug_assert_eq!(topo.len(), nodes, "DAG invariant violated");
        for &u in topo.iter().rev() {
            let ui = u.index();
            bits[ui * words + ui / 64] |= 1 << (ui % 64);
            // Walk the adjacency list by index — no per-node successor
            // collection; `bits` is local so the shared borrow of `g`
            // never conflicts.
            for s in g.successor_indices(ui) {
                debug_assert_ne!(s, ui, "self-loop in DAG");
                or_row(&mut bits, words, ui, s);
            }
        }
        ReachabilityIndex { nodes, words, bits }
    }

    /// Incrementally folds a newly inserted edge `from → to` into the
    /// closure: every row whose bit `from` is set — and that does not
    /// already contain `to` (such rows are supersets of `to`'s row by
    /// transitivity) — absorbs `to`'s descendant row. `O(affected rows ·
    /// V/64)` word operations; a no-op when `from` already reached `to`.
    ///
    /// The caller must have inserted the edge into the graph this index
    /// describes (or do so atomically with this call, as
    /// [`Tsg::add_edge`](crate::Tsg::add_edge) does) and guarantee the
    /// graph stays acyclic — this is checked in debug builds only.
    ///
    /// # Panics
    ///
    /// Panics if either id is outside the indexed graph or the edge is a
    /// self-loop.
    pub fn insert_edge(&mut self, from: NodeId, to: NodeId) {
        let (u, v) = (from.index(), to.index());
        assert!(u < self.nodes && v < self.nodes, "node outside index");
        assert_ne!(u, v, "self-loop in DAG");
        let words = self.words;
        debug_assert!(
            self.bits[v * words + u / 64] & (1 << (u % 64)) == 0,
            "edge {from} -> {to} would close a cycle"
        );
        let (u_word, u_mask) = (u / 64, 1u64 << (u % 64));
        let (v_word, v_mask) = (v / 64, 1u64 << (v % 64));
        if self.bits[u * words + v_word] & v_mask != 0 {
            return; // `from` already reaches `to`: closure unchanged.
        }
        // `to`'s row is never itself a destination (that would need
        // `to` to reach `from` — a cycle), so a copy breaks the alias.
        let src: Vec<u64> = self.bits[v * words..(v + 1) * words].to_vec();
        for row in self.bits.chunks_exact_mut(words) {
            if row[u_word] & u_mask != 0 && row[v_word] & v_mask == 0 {
                for (d, s) in row.iter_mut().zip(&src) {
                    *d |= s;
                }
            }
        }
    }

    /// Number of vertices the index covers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Whether `from` reaches `to` (reflexive: every node reaches itself).
    ///
    /// # Panics
    ///
    /// Panics if either id is outside the indexed graph; callers go through
    /// [`Tsg`] query methods, which validate ids first.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let (u, v) = (from.index(), to.index());
        assert!(u < self.nodes && v < self.nodes, "node outside index");
        self.bits[u * self.words + v / 64] & (1 << (v % 64)) != 0
    }

    /// Whether a directed path connects the pair in either direction.
    #[must_use]
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        self.reaches(u, v) || self.reaches(v, u)
    }

    /// Theorem 1: whether `u` and `v` race (distinct and unconnected).
    #[must_use]
    pub fn races(&self, u: NodeId, v: NodeId) -> bool {
        u != v && !self.connected(u, v)
    }

    /// Iterates the descendants of `from` — every vertex it reaches,
    /// **excluding** itself — in ascending [`NodeId`] order.
    ///
    /// One word-scan over the closure row: enumerating all targets this way
    /// costs `O(V/64 + |descendants|)`, where probing each candidate
    /// individually with `has_path`/[`reaches`](ReachabilityIndex::reaches)
    /// pays the per-query dispatch `V` times.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the indexed graph.
    pub fn descendants(&self, from: NodeId) -> Descendants<'_> {
        let u = from.index();
        assert!(u < self.nodes, "node outside index");
        Descendants {
            row: &self.bits[u * self.words..(u + 1) * self.words],
            skip: u,
            word: 0,
            current: self.bits.get(u * self.words).copied().unwrap_or(0),
        }
    }
}

/// ORs row `src` of the row-major closure `bits` into row `dst` (disjoint
/// row slices carved out via `split_at_mut`).
fn or_row(bits: &mut [u64], words: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    let (do_, so) = (dst * words, src * words);
    let (d, s) = if do_ < so {
        let (lo, hi) = bits.split_at_mut(so);
        (&mut lo[do_..do_ + words], &hi[..words])
    } else {
        let (lo, hi) = bits.split_at_mut(do_);
        (&mut hi[..words], &lo[so..so + words])
    };
    for (d, s) in d.iter_mut().zip(s) {
        *d |= s;
    }
}

/// Iterator over the descendant set of one vertex, ascending by id.
/// Created by [`ReachabilityIndex::descendants`].
#[derive(Debug, Clone)]
pub struct Descendants<'a> {
    row: &'a [u64],
    /// The origin's own index (the closure is reflexive; the origin is
    /// skipped so "descendants" means *proper* descendants).
    skip: usize,
    word: usize,
    current: u64,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            while self.current == 0 {
                self.word += 1;
                if self.word >= self.row.len() {
                    return None;
                }
                self.current = self.row[self.word];
            }
            let bit = self.current.trailing_zeros() as usize;
            self.current &= self.current - 1;
            let v = self.word * 64 + bit;
            if v != self.skip {
                return Some(NodeId::from_index(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeKind, NodeKind};

    fn diamond() -> (Tsg, [NodeId; 4]) {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        let c = g.add_node("c", NodeKind::Compute);
        let d = g.add_node("d", NodeKind::Compute);
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(a, c, EdgeKind::Data).unwrap();
        g.add_edge(b, d, EdgeKind::Data).unwrap();
        g.add_edge(c, d, EdgeKind::Data).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn closure_matches_dfs_on_diamond() {
        let (g, ids) = diamond();
        let idx = ReachabilityIndex::build(&g);
        for &u in &ids {
            for &v in &ids {
                assert_eq!(
                    idx.reaches(u, v),
                    g.has_path(u, v).unwrap(),
                    "closure disagrees with DFS for ({u}, {v})"
                );
            }
        }
        assert!(idx.races(ids[1], ids[2])); // b ⟂ c
        assert!(!idx.races(ids[0], ids[3]));
    }

    #[test]
    fn descendants_iterator_is_proper_and_ascending() {
        let (g, ids) = diamond();
        let idx = ReachabilityIndex::build(&g);
        let d: Vec<NodeId> = idx.descendants(ids[0]).collect();
        assert_eq!(d, vec![ids[1], ids[2], ids[3]]); // excludes the origin
        assert_eq!(idx.descendants(ids[3]).count(), 0); // sink: none
                                                        // With the origin, a reaches all 4 vertices, b and c two, d itself.
        let counts: Vec<usize> = ids
            .iter()
            .map(|&u| idx.descendants(u).count() + 1)
            .collect();
        assert_eq!(counts, [4, 2, 2, 1]);
    }

    #[test]
    fn descendants_iterator_crosses_word_boundaries() {
        let mut g = Tsg::new();
        let ids: Vec<NodeId> = (0..130)
            .map(|i| g.add_node(format!("n{i}"), NodeKind::Compute))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], EdgeKind::Data).unwrap();
        }
        let idx = ReachabilityIndex::build(&g);
        let d: Vec<NodeId> = idx.descendants(ids[63]).collect();
        assert_eq!(d.len(), 66);
        assert_eq!(d.first(), Some(&ids[64]));
        assert_eq!(d.last(), Some(&ids[129]));
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = Tsg::new();
        let idx = ReachabilityIndex::build(&g);
        assert_eq!(idx.node_count(), 0);
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let idx = ReachabilityIndex::build(&g);
        assert!(idx.reaches(a, a));
        assert!(!idx.races(a, a));
    }

    #[test]
    fn wide_graph_crosses_word_boundaries() {
        // 130 nodes in a chain: closure rows span 3 words.
        let mut g = Tsg::new();
        let ids: Vec<NodeId> = (0..130)
            .map(|i| g.add_node(format!("n{i}"), NodeKind::Compute))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], EdgeKind::Data).unwrap();
        }
        let idx = ReachabilityIndex::build(&g);
        assert!(idx.reaches(ids[0], ids[129]));
        assert!(!idx.reaches(ids[129], ids[0]));
        assert_eq!(idx.descendants(ids[0]).count() + 1, 130);
        assert_eq!(idx.descendants(ids[64]).count() + 1, 66);
    }

    #[test]
    #[should_panic(expected = "node outside index")]
    fn out_of_range_panics() {
        let (g, _) = diamond();
        let idx = ReachabilityIndex::build(&g);
        let _ = idx.reaches(NodeId(7), NodeId(0));
    }

    #[test]
    fn insert_edge_matches_full_rebuild() {
        // Two disconnected chains a→b, c→d; bridge them edge by edge and
        // compare the maintained closure to a fresh build after each step.
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        let c = g.add_node("c", NodeKind::Compute);
        let d = g.add_node("d", NodeKind::Compute);
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(c, d, EdgeKind::Data).unwrap();
        let mut idx = ReachabilityIndex::build(&g);
        for (from, to) in [(b, c), (a, d)] {
            g.add_edge(from, to, EdgeKind::Security).unwrap();
            idx.insert_edge(from, to);
            assert_eq!(idx, ReachabilityIndex::build(&g), "after {from}->{to}");
        }
        assert!(idx.reaches(a, d));
        assert!(!idx.reaches(d, a));
    }

    #[test]
    fn insert_edge_already_reachable_is_a_noop() {
        let (g, ids) = diamond();
        let mut idx = ReachabilityIndex::build(&g);
        let before = idx.clone();
        idx.insert_edge(ids[0], ids[3]); // a already reaches d
        assert_eq!(idx, before);
    }

    #[test]
    fn insert_edge_updates_rows_across_word_boundaries() {
        // 130-node chain missing its middle link; inserting it must update
        // all 65 upstream rows, whose tails live in later words.
        let mut g = Tsg::new();
        let ids: Vec<NodeId> = (0..130)
            .map(|i| g.add_node(format!("n{i}"), NodeKind::Compute))
            .collect();
        for w in ids.windows(2) {
            if w[0] != ids[64] {
                g.add_edge(w[0], w[1], EdgeKind::Data).unwrap();
            }
        }
        let mut idx = ReachabilityIndex::build(&g);
        assert!(!idx.reaches(ids[0], ids[129]));
        g.add_edge(ids[64], ids[65], EdgeKind::Data).unwrap();
        idx.insert_edge(ids[64], ids[65]);
        assert_eq!(idx, ReachabilityIndex::build(&g));
        assert!(idx.reaches(ids[0], ids[129]));
        assert_eq!(idx.descendants(ids[0]).count() + 1, 130);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn insert_edge_rejects_self_loop() {
        let (g, ids) = diamond();
        let mut idx = ReachabilityIndex::build(&g);
        idx.insert_edge(ids[0], ids[0]);
    }
}
