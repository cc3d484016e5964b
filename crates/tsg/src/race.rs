//! Race conditions and Theorem 1.
//!
//! The paper defines: *a race condition exists between vertices `u` and `v`
//! iff there are two valid orderings that disagree on their relative order*,
//! and proves (**Theorem 1**, Appendix A): *`u` and `v` are race-free iff a
//! directed path connects them (in either direction)*.
//!
//! [`Tsg::has_race`] implements the efficient reachability form;
//! [`Tsg::has_race_by_enumeration`] implements the definition literally (for
//! small graphs) and serves as the oracle in the crate's property tests.

use crate::error::TsgError;
use crate::graph::Tsg;
use crate::node::NodeId;
use std::fmt;

/// An unordered pair of vertices that race (no path connects them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RacePair {
    /// The lower-id endpoint.
    pub a: NodeId,
    /// The higher-id endpoint.
    pub b: NodeId,
}

impl RacePair {
    /// Creates a normalized pair (`a` is always the lower id).
    #[must_use]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        if u <= v {
            RacePair { a: u, b: v }
        } else {
            RacePair { a: v, b: u }
        }
    }
}

impl fmt::Display for RacePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "race({}, {})", self.a, self.b)
    }
}

impl Tsg {
    /// Whether `u` and `v` race, by **Theorem 1**: they race iff *no*
    /// directed path connects them in either direction.
    ///
    /// Answered from the graph's cached
    /// [`ReachabilityIndex`](crate::ReachabilityIndex): the first query
    /// after a mutation builds the closure (`O(V·E/64)`); every further
    /// query is `O(1)`.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either id is not in this graph.
    ///
    /// ```
    /// use tsg::{Tsg, NodeKind, EdgeKind};
    /// # fn main() -> Result<(), tsg::TsgError> {
    /// let mut g = Tsg::new();
    /// let u = g.add_node("u", NodeKind::Compute);
    /// let v = g.add_node("v", NodeKind::Compute);
    /// assert!(g.has_race(u, v)?);
    /// g.add_edge(u, v, EdgeKind::Data)?;
    /// assert!(!g.has_race(u, v)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn has_race(&self, u: NodeId, v: NodeId) -> Result<bool, TsgError> {
        self.check_node(u)?;
        self.check_node(v)?;
        Ok(self.reachability().races(u, v))
    }

    /// [`Tsg::has_race`] answered by two fresh DFS walks, bypassing the
    /// reachability index.
    ///
    /// This is the seed implementation, kept as the baseline the criterion
    /// benches compare the indexed path against, and as an independent
    /// cross-check in tests.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either id is not in this graph.
    pub fn has_race_dfs(&self, u: NodeId, v: NodeId) -> Result<bool, TsgError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Ok(false);
        }
        Ok(!self.reaches(u, v) && !self.reaches(v, u))
    }

    /// Whether `u` and `v` race, by the paper's *definition*: enumerate all
    /// valid orderings and look for two that disagree.
    ///
    /// Exponential; only usable on small graphs. This is the oracle used to
    /// validate [`Tsg::has_race`] (Theorem 1) in tests.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] for unknown ids;
    /// [`TsgError::TooLargeToEnumerate`] if the graph exceeds `limit` nodes.
    pub fn has_race_by_enumeration(
        &self,
        u: NodeId,
        v: NodeId,
        limit: usize,
    ) -> Result<bool, TsgError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Ok(false);
        }
        let orderings = self.valid_orderings(limit)?;
        let mut saw_uv = false;
        let mut saw_vu = false;
        for o in &orderings {
            let pu = o.iter().position(|&n| n == u).expect("u in ordering");
            let pv = o.iter().position(|&n| n == v).expect("v in ordering");
            if pu < pv {
                saw_uv = true;
            } else {
                saw_vu = true;
            }
            if saw_uv && saw_vu {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// All racing pairs in the graph.
    ///
    /// One cached closure build plus an `O(V²)` pair scan of `O(1)`
    /// probes.
    #[must_use]
    pub fn all_races(&self) -> Vec<RacePair> {
        let idx = self.reachability();
        let n = self.node_count();
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                if idx.races(u, v) {
                    out.push(RacePair::new(u, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeKind, NodeKind};

    #[test]
    fn no_race_with_self() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        assert!(!g.has_race(a, a).unwrap());
    }

    #[test]
    fn disconnected_pair_races() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        assert!(g.has_race(a, b).unwrap());
        assert!(g.has_race_by_enumeration(a, b, 12).unwrap());
        assert_eq!(g.all_races(), vec![RacePair::new(a, b)]);
    }

    #[test]
    fn connected_pair_does_not_race() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        assert!(!g.has_race(a, b).unwrap());
        assert!(!g.has_race(b, a).unwrap());
        assert!(!g.has_race_by_enumeration(a, b, 12).unwrap());
        assert!(g.all_races().is_empty());
    }

    #[test]
    fn transitive_connection_kills_race() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        let c = g.add_node("c", NodeKind::Compute);
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(b, c, EdgeKind::Data).unwrap();
        assert!(!g.has_race(a, c).unwrap());
    }

    #[test]
    fn paper_fig2_race_between_d_and_e() {
        // Figure 2 of the paper: race(D, E) holds.
        let g = crate::examples::fig2();
        let d = g.find_by_label("D").unwrap();
        let e = g.find_by_label("E").unwrap();
        assert!(g.has_race(d, e).unwrap());
        assert!(g.has_race_by_enumeration(d, e, 12).unwrap());
    }

    #[test]
    fn all_races_matches_pairwise_check() {
        let g = crate::examples::fig2();
        let brute: Vec<RacePair> = {
            let ids: Vec<NodeId> = g.nodes().map(|n| n.id()).collect();
            let mut v = Vec::new();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if g.has_race(a, b).unwrap() {
                        v.push(RacePair::new(a, b));
                    }
                }
            }
            v
        };
        assert_eq!(g.all_races(), brute);
    }

    #[test]
    fn race_pair_normalizes() {
        let p1 = RacePair::new(NodeId(5), NodeId(2));
        let p2 = RacePair::new(NodeId(2), NodeId(5));
        assert_eq!(p1, p2);
        assert_eq!(p1.a, NodeId(2));
        assert_eq!(p1.to_string(), "race(n2, n5)");
    }

    #[test]
    fn unknown_node_rejected() {
        let g = Tsg::new();
        assert!(g.has_race(NodeId(0), NodeId(1)).is_err());
        assert!(g.has_race_dfs(NodeId(0), NodeId(1)).is_err());
    }

    #[test]
    fn indexed_and_dfs_verdicts_agree() {
        let g = crate::examples::fig2();
        let ids: Vec<NodeId> = g.nodes().map(|n| n.id()).collect();
        for &u in &ids {
            for &v in &ids {
                assert_eq!(g.has_race(u, v).unwrap(), g.has_race_dfs(u, v).unwrap());
            }
        }
    }

    #[test]
    fn mutation_after_query_invalidates_the_index() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        // Query first so the closure is built and cached…
        assert!(g.has_race(a, b).unwrap());
        // …then mutate: the stale index must not answer the next query.
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        assert!(!g.has_race(a, b).unwrap());
        // add_node invalidates too: a fresh node races with everything.
        let c = g.add_node("c", NodeKind::Compute);
        assert!(g.has_race(a, c).unwrap());
        assert!(g.has_race(b, c).unwrap());
    }
}
