//! Fluent construction of attack graphs.

use crate::edge::EdgeKind;
use crate::error::TsgError;
use crate::graph::Tsg;
use crate::node::{NodeId, NodeKind};
use std::collections::HashMap;

/// A label-keyed builder for [`Tsg`]s.
///
/// Attack graphs in the paper are drawn with human-readable node names
/// ("Load S", "Branch resolution"); the builder lets code read the same way:
///
/// ```
/// use tsg::{TsgBuilder, NodeKind, EdgeKind, SecretSource};
/// # fn main() -> Result<(), tsg::TsgError> {
/// let g = TsgBuilder::new()
///     .node("Branch", NodeKind::Authorization)
///     .node("Load S", NodeKind::SecretAccess(SecretSource::ArchitecturalMemory))
///     .node("Load R", NodeKind::Send)
///     .edge("Load S", "Load R", EdgeKind::Data)?
///     .build();
/// assert_eq!(g.node_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TsgBuilder {
    graph: Tsg,
    by_label: HashMap<String, NodeId>,
}

impl TsgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with a unique label. If the label already exists the
    /// existing node is kept (its kind is *not* changed).
    #[must_use]
    pub fn node(mut self, label: impl Into<String>, kind: NodeKind) -> Self {
        let label = label.into();
        if !self.by_label.contains_key(&label) {
            let id = self.graph.add_node(label.clone(), kind);
            self.by_label.insert(label, id);
        }
        self
    }

    /// Adds an edge between two labeled nodes.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either label has not been declared, plus
    /// any error from [`Tsg::add_edge`].
    pub fn edge(mut self, from: &str, to: &str, kind: EdgeKind) -> Result<Self, TsgError> {
        let f = self.id_of(from)?;
        let t = self.id_of(to)?;
        self.graph.add_edge(f, t, kind)?;
        Ok(self)
    }

    /// Adds a chain of `Program` edges through the listed labels.
    ///
    /// # Errors
    ///
    /// Same as [`TsgBuilder::edge`].
    pub fn chain(mut self, labels: &[&str], kind: EdgeKind) -> Result<Self, TsgError> {
        for w in labels.windows(2) {
            let f = self.id_of(w[0])?;
            let t = self.id_of(w[1])?;
            self.graph.add_edge(f, t, kind)?;
        }
        Ok(self)
    }

    /// Resolves a label to its node id.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] (with a placeholder id) if the label is not
    /// declared. The placeholder refers to the would-be next node index.
    fn id_of(&self, label: &str) -> Result<NodeId, TsgError> {
        self.by_label
            .get(label)
            .copied()
            .ok_or(TsgError::UnknownNode(crate::node::NodeId(
                self.graph.node_count() as u32,
            )))
    }

    /// Finishes construction.
    #[must_use]
    pub fn build(self) -> Tsg {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_by_label() {
        let g = TsgBuilder::new()
            .node("a", NodeKind::Compute)
            .node("b", NodeKind::Compute)
            .edge("a", "b", EdgeKind::Data)
            .unwrap()
            .build();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        assert!(g.has_path(a, b).unwrap());
    }

    #[test]
    fn duplicate_label_reuses_node() {
        let g = TsgBuilder::new()
            .node("a", NodeKind::Compute)
            .node("a", NodeKind::Authorization)
            .build();
        assert_eq!(g.node_count(), 1);
        // The first kind wins.
        let a = g.find_by_label("a").unwrap();
        assert_eq!(g.node(a).unwrap().kind(), NodeKind::Compute);
    }

    #[test]
    fn unknown_label_errors() {
        let r = TsgBuilder::new()
            .node("a", NodeKind::Compute)
            .edge("a", "ghost", EdgeKind::Data);
        assert!(r.is_err());
    }

    #[test]
    fn chain_builds_sequence() {
        let g = TsgBuilder::new()
            .node("a", NodeKind::Compute)
            .node("b", NodeKind::Compute)
            .node("c", NodeKind::Compute)
            .chain(&["a", "b", "c"], EdgeKind::Program)
            .unwrap()
            .build();
        let a = g.find_by_label("a").unwrap();
        let c = g.find_by_label("c").unwrap();
        assert!(g.has_path(a, c).unwrap());
        assert_eq!(g.edge_count(), 2);
    }
}
