//! The Topological Sort Graph itself.

use crate::edge::{Edge, EdgeId, EdgeKind};
use crate::error::TsgError;
use crate::node::{Node, NodeId, NodeKind};
use crate::reach::ReachabilityIndex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// A Topological Sort Graph: a DAG of operations and dependencies.
///
/// This is the paper's attack-graph representation (§IV-B). Vertices are
/// operations; a directed edge `u → v` means the machine guarantees `u`
/// completes before `v`. Orderings of all vertices that respect every edge
/// are *valid orderings*; two vertices *race* when valid orderings disagree
/// on their relative order, and by **Theorem 1** that happens exactly when
/// neither can reach the other.
///
/// The graph rejects edge insertions that would create a cycle, so it is a
/// DAG by construction. It is also grow-only: nodes and edges are only ever
/// appended, and [`Tsg::rollback`] to a [`Tsg::checkpoint`] is the one way
/// to take them away again.
///
/// ```
/// use tsg::{Tsg, NodeKind, EdgeKind};
/// # fn main() -> Result<(), tsg::TsgError> {
/// let mut g = Tsg::new();
/// let a = g.add_node("A", NodeKind::Compute);
/// let b = g.add_node("B", NodeKind::Compute);
/// let c = g.add_node("C", NodeKind::Compute);
/// g.add_edge(a, b, EdgeKind::Data)?;
/// g.add_edge(b, c, EdgeKind::Data)?;
/// assert!(g.has_path(a, c)?);           // transitive reachability
/// assert!(g.add_edge(c, a, EdgeKind::Data).is_err()); // cycle rejected
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tsg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing adjacency: `succ[u]` lists edge indices leaving `u`.
    succ: Vec<Vec<u32>>,
    /// Incoming adjacency: `pred[v]` lists edge indices entering `v`.
    pred: Vec<Vec<u32>>,
    /// Lazily built transitive closure, maintained on exactly three paths:
    /// an edge insertion into an already-built index updates it in place
    /// ([`ReachabilityIndex::insert_edge`]); a node addition drops it and
    /// the next query pays a full build; [`Tsg::rollback`] restores the
    /// checkpoint's snapshot.
    reach: OnceLock<ReachabilityIndex>,
}

/// A restore point for [`Tsg::rollback`]: the graph's size at
/// [`Tsg::checkpoint`] time plus a snapshot of its transitive closure (if
/// one was built). The patch-heavy loops — campaign graph verdicts, the
/// defense-cover search — apply candidate security-edge sets on top of a
/// checkpoint and roll back per candidate instead of cloning and
/// re-indexing the graph every time.
#[derive(Debug, Clone)]
pub struct TsgCheckpoint {
    nodes: usize,
    edges: usize,
    reach: Option<ReachabilityIndex>,
}

impl Tsg {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with preallocated capacity.
    #[must_use]
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Tsg {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            succ: Vec::with_capacity(nodes),
            pred: Vec::with_capacity(nodes),
            reach: OnceLock::new(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds an operation vertex and returns its id.
    pub fn add_node(&mut self, label: impl Into<String>, kind: NodeKind) -> NodeId {
        // Node additions take the full-rebuild tier of the cache: the row
        // layout changes, so the cached closure is dropped rather than
        // patched (edge insertions are the incrementally maintained tier).
        self.reach.take();
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count fits in u32"));
        self.nodes.push(Node {
            id,
            label: label.into(),
            kind,
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds a dependency edge `from → to` of the given kind.
    ///
    /// Parallel edges of different kinds are allowed (e.g. a data dependency
    /// that is *also* declared a security dependency); an exact duplicate
    /// (same endpoints and kind) is silently deduplicated and the existing
    /// edge id is returned.
    ///
    /// # Errors
    ///
    /// * [`TsgError::UnknownNode`] if either endpoint does not exist.
    /// * [`TsgError::SelfLoop`] if `from == to`.
    /// * [`TsgError::WouldCycle`] if the edge would create a directed cycle.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: EdgeKind,
    ) -> Result<EdgeId, TsgError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(TsgError::SelfLoop(from));
        }
        if let Some(existing) = self.succ[from.index()]
            .iter()
            .map(|&ei| &self.edges[ei as usize])
            .find(|e| e.to == to && e.kind == kind)
        {
            return Ok(existing.id);
        }
        // Cycle check: the new edge closes a cycle iff `to` already reaches
        // `from` — an O(1) probe when the closure is cached, a DFS otherwise.
        let would_cycle = match self.reach.get() {
            Some(idx) => idx.reaches(to, from),
            None => self.reaches(to, from),
        };
        if would_cycle {
            return Err(TsgError::WouldCycle { from, to });
        }
        // Keep the cached closure *live*: fold the edge in incrementally
        // instead of discarding the index and rebuilding on the next query.
        if let Some(idx) = self.reach.get_mut() {
            idx.insert_edge(from, to);
        }
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count fits in u32"));
        self.edges.push(Edge { id, from, to, kind });
        self.succ[from.index()].push(id.0);
        self.pred[to.index()].push(id.0);
        Ok(id)
    }

    /// Captures a restore point: the current node/edge counts plus a
    /// snapshot of the cached transitive closure (if built). Pair with
    /// [`Tsg::rollback`] to undo a batch of [`Tsg::add_node`] /
    /// [`Tsg::add_edge`] mutations cheaply. To make the later rollbacks
    /// restore a *warm* cache, query the graph (e.g.
    /// [`Tsg::reachability`]) before checkpointing.
    #[must_use]
    pub fn checkpoint(&self) -> TsgCheckpoint {
        TsgCheckpoint {
            nodes: self.nodes.len(),
            edges: self.edges.len(),
            reach: self.reach.get().cloned(),
        }
    }

    /// Restores the graph to a [`Tsg::checkpoint`]: nodes and edges added
    /// since are removed, and the checkpoint's closure snapshot (if any)
    /// becomes the cached index again — so a patch/rollback cycle never
    /// pays a closure rebuild.
    ///
    /// The graph is grow-only, so a checkpoint always describes a prefix
    /// of its nodes and edges.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is newer than the graph (more nodes or
    /// edges than currently present).
    pub fn rollback(&mut self, cp: &TsgCheckpoint) {
        assert!(
            cp.nodes <= self.nodes.len() && cp.edges <= self.edges.len(),
            "checkpoint is newer than the graph"
        );
        // Edges are append-only, so each endpoint's adjacency entries for
        // the removed edges form a suffix.
        for k in (cp.edges..self.edges.len()).rev() {
            let e = self.edges[k];
            let out = self.succ[e.from.index()].pop();
            debug_assert_eq!(out, Some(e.id.0), "adjacency is not append-only");
            let inc = self.pred[e.to.index()].pop();
            debug_assert_eq!(inc, Some(e.id.0), "adjacency is not append-only");
        }
        self.edges.truncate(cp.edges);
        self.nodes.truncate(cp.nodes);
        self.succ.truncate(cp.nodes);
        self.pred.truncate(cp.nodes);
        self.reach = OnceLock::new();
        if let Some(idx) = &cp.reach {
            let _ = self.reach.set(idx.clone());
        }
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if the id is not in this graph.
    pub fn node(&self, id: NodeId) -> Result<&Node, TsgError> {
        self.nodes.get(id.index()).ok_or(TsgError::UnknownNode(id))
    }

    /// Looks up an edge by id. Returns `None` if out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index())
    }

    /// Iterates over all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Iterates over the direct successors of `id` (with the connecting edge).
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if the id is not in this graph.
    pub fn successors(&self, id: NodeId) -> Result<impl Iterator<Item = &Edge> + '_, TsgError> {
        self.check_node(id)?;
        Ok(self.succ[id.index()]
            .iter()
            .map(move |&ei| &self.edges[ei as usize]))
    }

    /// Iterates over the direct predecessors of `id` (with the connecting edge).
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if the id is not in this graph.
    pub fn predecessors(&self, id: NodeId) -> Result<impl Iterator<Item = &Edge> + '_, TsgError> {
        self.check_node(id)?;
        Ok(self.pred[id.index()]
            .iter()
            .map(move |&ei| &self.edges[ei as usize]))
    }

    /// Returns the first node whose label equals `label`, if any.
    #[must_use]
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.label == label).map(|n| n.id)
    }

    /// Returns all nodes of the given kind.
    #[must_use]
    pub fn nodes_of_kind(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| pred(n.kind))
            .map(|n| n.id)
            .collect()
    }

    /// Whether a directed path (length ≥ 1, or 0 when `from == to`) exists
    /// from `from` to `to`.
    ///
    /// Answered from the cached [`ReachabilityIndex`]: the first query
    /// after a mutation pays the `O(V·E/64)` closure build, every further
    /// query is `O(1)`.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either id is not in this graph.
    pub fn has_path(&self, from: NodeId, to: NodeId) -> Result<bool, TsgError> {
        self.check_node(from)?;
        self.check_node(to)?;
        Ok(self.reachability().reaches(from, to))
    }

    /// The graph's transitive closure, built on first use and then kept
    /// current: [`Tsg::add_edge`] folds the new edge into the index in
    /// place ([`ReachabilityIndex::insert_edge`]), [`Tsg::add_node`] clears
    /// it so the next query pays a full build, and [`Tsg::rollback`]
    /// restores the checkpoint's snapshot.
    ///
    /// All query APIs ([`Tsg::has_path`], [`Tsg::has_race`],
    /// [`Tsg::all_races`], the security-dependency analysis) share this
    /// one index; matrix-style workloads that ask many verdicts of the
    /// same graph therefore pay one closure build total — and patch-heavy
    /// workloads that *mutate* between verdicts no longer pay one rebuild
    /// per patch.
    #[must_use]
    pub fn reachability(&self) -> &ReachabilityIndex {
        self.reach.get_or_init(|| ReachabilityIndex::build(self))
    }

    /// Internal unchecked reachability (`from` reaches `to`, reflexive).
    pub(crate) fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        visited[from.index()] = true;
        while let Some(u) = stack.pop() {
            for &ei in &self.succ[u.index()] {
                let v = self.edges[ei as usize].to;
                if v == to {
                    return true;
                }
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// The set of all nodes reachable from `from` (excluding `from` itself),
    /// ascending by id — answered from the cached reachability index's
    /// [`descendants`](crate::ReachabilityIndex::descendants) iterator.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if the id is not in this graph.
    pub fn descendants(&self, from: NodeId) -> Result<Vec<NodeId>, TsgError> {
        self.check_node(from)?;
        Ok(self.reachability().descendants(from).collect())
    }

    /// One shortest directed path from `from` to `to` (inclusive), if any.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either id is not in this graph.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Result<Option<Vec<NodeId>>, TsgError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Ok(Some(vec![from]));
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        visited[from.index()] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.succ[u.index()] {
                let v = self.edges[ei as usize].to;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    if v == to {
                        let mut path = vec![v];
                        let mut cur = u;
                        loop {
                            path.push(cur);
                            match parent[cur.index()] {
                                Some(p) => cur = p,
                                None => break,
                            }
                        }
                        path.reverse();
                        return Ok(Some(path));
                    }
                    queue.push_back(v);
                }
            }
        }
        Ok(None)
    }

    /// A topological ordering of all vertices (Kahn's algorithm).
    ///
    /// Ties are broken by node id, so the result is deterministic. Since the
    /// graph is a DAG by construction, this never fails.
    #[must_use]
    pub fn topological_sort(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.pred[v].len()).collect();
        // Min-heap-by-id behaviour via a sorted ready list kept as a binary
        // heap of Reverse(ids).
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n)
            .filter(|&v| indeg[v] == 0)
            .map(|v| Reverse(v as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(NodeId(u));
            for &ei in &self.succ[u as usize] {
                let v = self.edges[ei as usize].to;
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(Reverse(v.0));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "DAG invariant violated");
        order
    }

    /// A topological ordering with *no* tie-break guarantee: plain Kahn
    /// over a `Vec` work list, skipping [`Tsg::topological_sort`]'s
    /// by-id `BinaryHeap`. The closure build only needs *some* valid
    /// order, and repeated builds in patch-heavy loops were dominated by
    /// the heap's `O(V log V)` ordering.
    pub(crate) fn topo_order_unordered(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.pred[v].len()).collect();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            order.push(NodeId(u));
            for &ei in &self.succ[u as usize] {
                let v = self.edges[ei as usize].to;
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v.0);
                }
            }
        }
        order
    }

    /// The direct-successor node indices of vertex index `u`, straight off
    /// the adjacency list (duplicates possible for parallel edges of
    /// different kinds — harmless for the closure build's ORs).
    pub(crate) fn successor_indices(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ[u]
            .iter()
            .map(move |&ei| self.edges[ei as usize].to.index())
    }

    pub(crate) fn check_node(&self, id: NodeId) -> Result<(), TsgError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TsgError::UnknownNode(id))
        }
    }
}

impl fmt::Display for Tsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TSG ({} nodes, {} edges)",
            self.node_count(),
            self.edge_count()
        )?;
        for n in &self.nodes {
            writeln!(f, "  {}: {}", n.id, n)?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Tsg, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        let c = g.add_node("c", NodeKind::Compute);
        let d = g.add_node("d", NodeKind::Compute);
        g.add_edge(a, b, EdgeKind::Data).unwrap();
        g.add_edge(a, c, EdgeKind::Data).unwrap();
        g.add_edge(b, d, EdgeKind::Data).unwrap();
        g.add_edge(c, d, EdgeKind::Data).unwrap();
        (g, a, b, c, d)
    }

    #[test]
    fn empty_graph() {
        let g = Tsg::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.topological_sort(), Vec::<NodeId>::new());
    }

    #[test]
    fn reachability_in_diamond() {
        let (g, a, b, c, d) = diamond();
        assert!(g.has_path(a, d).unwrap());
        assert!(g.has_path(a, a).unwrap());
        assert!(!g.has_path(b, c).unwrap());
        assert!(!g.has_path(d, a).unwrap());
        assert_eq!(g.descendants(a).unwrap(), vec![b, c, d]);
    }

    #[test]
    fn cycle_rejected() {
        let (mut g, a, _, _, d) = diamond();
        let err = g.add_edge(d, a, EdgeKind::Data).unwrap_err();
        assert_eq!(err, TsgError::WouldCycle { from: d, to: a });
        // Graph unchanged.
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        assert_eq!(g.add_edge(a, a, EdgeKind::Data), Err(TsgError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_edge_dedup() {
        let mut g = Tsg::new();
        let a = g.add_node("a", NodeKind::Compute);
        let b = g.add_node("b", NodeKind::Compute);
        let e1 = g.add_edge(a, b, EdgeKind::Data).unwrap();
        let e2 = g.add_edge(a, b, EdgeKind::Data).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        // Different kind between same endpoints is a distinct edge.
        let e3 = g.add_edge(a, b, EdgeKind::Security).unwrap();
        assert_ne!(e1, e3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn unknown_node_errors() {
        let g = Tsg::new();
        let ghost = NodeId(9);
        assert_eq!(g.node(ghost).unwrap_err(), TsgError::UnknownNode(ghost));
        assert!(g.has_path(ghost, ghost).is_err());
    }

    #[test]
    fn shortest_path_in_diamond() {
        let (g, a, _, _, d) = diamond();
        let p = g.shortest_path(a, d).unwrap().unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], a);
        assert_eq!(p[2], d);
        assert!(g.shortest_path(d, a).unwrap().is_none());
        assert_eq!(g.shortest_path(a, a).unwrap().unwrap(), vec![a]);
    }

    #[test]
    fn topological_sort_respects_edges() {
        let (g, _, _, _, _) = diamond();
        let order = g.topological_sort();
        assert_eq!(order.len(), 4);
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|n| n.index() == i).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.from().index()] < pos[e.to().index()]);
        }
    }

    #[test]
    fn find_by_label_and_kinds() {
        let mut g = Tsg::new();
        let auth = g.add_node("bounds check", NodeKind::Authorization);
        g.add_node("x", NodeKind::Compute);
        assert_eq!(g.find_by_label("bounds check"), Some(auth));
        assert_eq!(g.find_by_label("nope"), None);
        assert_eq!(g.nodes_of_kind(NodeKind::is_authorization), vec![auth]);
    }

    #[test]
    fn display_lists_everything() {
        let (g, ..) = diamond();
        let s = g.to_string();
        assert!(s.contains("4 nodes"));
        assert!(s.contains("4 edges"));
        assert!(s.contains("-[data]->"));
    }

    #[test]
    fn add_edge_keeps_cached_closure_live() {
        let (mut g, a, b, c, d) = diamond();
        assert!(!g.has_path(b, c).unwrap()); // closure built and cached here
        g.add_edge(b, c, EdgeKind::Security).unwrap();
        // The maintained index equals a from-scratch build…
        assert_eq!(*g.reachability(), ReachabilityIndex::build(&g));
        // …and answers the new transitive facts.
        assert!(g.has_path(b, c).unwrap());
        assert!(g.has_path(a, d).unwrap());
        assert!(g.add_edge(d, a, EdgeKind::Data).is_err()); // cycle check via index
    }

    #[test]
    fn rollback_restores_graph_and_warm_index() {
        let (mut g, a, b, c, d) = diamond();
        let _ = g.reachability(); // warm the cache so the checkpoint carries it
        let cp = g.checkpoint();
        let before = g.reachability().clone();

        let e = g.add_node("e", NodeKind::Compute);
        g.add_edge(b, c, EdgeKind::Security).unwrap();
        g.add_edge(d, e, EdgeKind::Data).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);

        g.rollback(&cp);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.reachability(), before);
        assert!(!g.has_path(b, c).unwrap());
        // Adjacency lists were unwound too: the graph accepts the same
        // mutations again and behaves identically.
        g.add_edge(b, c, EdgeKind::Security).unwrap();
        assert!(g.has_path(a, c).unwrap());
        assert_eq!(*g.reachability(), ReachabilityIndex::build(&g));
    }

    #[test]
    fn rollback_without_cached_index_leaves_cache_cold() {
        let (mut g, _, b, c, _) = diamond();
        let cp = g.checkpoint(); // no closure built yet
        g.add_edge(b, c, EdgeKind::Security).unwrap();
        g.rollback(&cp);
        assert_eq!(g.edge_count(), 4);
        // Queries still work (lazy rebuild) and agree with a fresh build.
        assert!(!g.has_path(b, c).unwrap());
        assert_eq!(*g.reachability(), ReachabilityIndex::build(&g));
    }

    #[test]
    #[should_panic(expected = "checkpoint is newer")]
    fn rollback_rejects_newer_checkpoint() {
        let (mut g, _, b, c, _) = diamond();
        g.add_edge(b, c, EdgeKind::Security).unwrap();
        let cp = g.checkpoint();
        let mut older = diamond().0;
        older.rollback(&cp);
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, a, b, c, d) = diamond();
        let succ_a: Vec<NodeId> = g.successors(a).unwrap().map(Edge::to).collect();
        assert_eq!(succ_a, vec![b, c]);
        let pred_d: Vec<NodeId> = g.predecessors(d).unwrap().map(Edge::from).collect();
        assert_eq!(pred_d, vec![b, c]);
    }
}
