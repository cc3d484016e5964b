//! Edges of a Topological Sort Graph: dependencies between operations.

use crate::node::NodeId;
use std::fmt;

/// Identifier of an edge within one [`Tsg`](crate::Tsg).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The dense index of this edge (its insertion order within the graph).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Why one operation must happen before another.
///
/// The paper distinguishes the classical *data* and *control* dependencies —
/// which hardware already honors for correctness — from the new **security
/// dependency** (Definition 2), which hardware must additionally honor to
/// prevent authorization/access races.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EdgeKind {
    /// A true (read-after-write) data dependency.
    Data,
    /// A control-flow dependency (e.g. an instruction after a resolved branch).
    Control,
    /// An address dependency: the target address of a memory operation is
    /// produced by the source operation.
    Address,
    /// An explicit serialization inserted by a fence instruction
    /// (LFENCE/MFENCE or hardware micro-op fences).
    Fence,
    /// A **security dependency** (paper Definition 2): authorization `u` must
    /// complete before protected operation `v`.
    Security,
    /// A program-order or other structural ordering the modeled machine
    /// guarantees (e.g. in-order commit, sequential steps of one μ-op flow).
    Program,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Data => "data",
            EdgeKind::Control => "control",
            EdgeKind::Address => "address",
            EdgeKind::Fence => "fence",
            EdgeKind::Security => "security",
            EdgeKind::Program => "program",
        };
        f.write_str(s)
    }
}

/// A directed edge `from → to`: `from` is guaranteed to complete before `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub(crate) id: EdgeId,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) kind: EdgeKind,
}

impl Edge {
    /// This edge's identifier.
    #[must_use]
    pub fn id(&self) -> EdgeId {
        self.id
    }

    /// Source node (the operation that happens first).
    #[must_use]
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Destination node (the operation that must wait).
    #[must_use]
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// The dependency type of this edge.
    #[must_use]
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -[{}]-> {}", self.from, self.kind, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_display() {
        let e = Edge {
            id: EdgeId(0),
            from: NodeId(1),
            to: NodeId(2),
            kind: EdgeKind::Security,
        };
        assert_eq!(e.to_string(), "n1 -[security]-> n2");
        assert_eq!(e.id().index(), 0);
    }

    #[test]
    fn edge_id_display() {
        assert_eq!(EdgeId(3).to_string(), "e3");
    }
}
