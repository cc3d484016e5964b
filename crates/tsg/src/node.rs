//! Vertices of a Topological Sort Graph.

use std::fmt;

/// Identifier of a node within one [`Tsg`](crate::Tsg).
///
/// Node ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that created them.
///
/// ```
/// use tsg::{Tsg, NodeKind};
/// let mut g = Tsg::new();
/// let a = g.add_node("a", NodeKind::Compute);
/// let b = g.add_node("b", NodeKind::Compute);
/// assert_ne!(a, b);
/// assert_eq!(a.index(), 0);
/// assert_eq!(b.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node (its insertion order within the graph).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a dense index.
    ///
    /// Ids are only meaningful for the graph that assigned them; graph
    /// methods validate ids and return
    /// [`TsgError::UnknownNode`](crate::TsgError::UnknownNode) for indices
    /// that are out of range.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where a secret can be read from during transient execution.
///
/// Section V-A of the paper observes that every new source of a secret yields
/// a new attack variant; Figure 4 enumerates the micro-architectural buffers
/// exploited by the Meltdown/Foreshadow/MDS families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SecretSource {
    /// Main memory (baseline Meltdown).
    Memory,
    /// L1 data cache (Foreshadow / L1 Terminal Fault, TAA).
    Cache,
    /// Line fill buffer (RIDL, ZombieLoad, Cacheout).
    LineFillBuffer,
    /// Store buffer (Fallout).
    StoreBuffer,
    /// Load port (RIDL).
    LoadPort,
    /// A privileged special register (Spectre v3a / Rogue System Register Read).
    SpecialRegister,
    /// Stale floating-point unit state (Lazy FP).
    Fpu,
    /// Architectural memory within the victim's own address space, reached
    /// out-of-bounds (Spectre v1-family) or via stale store-to-load data
    /// (Spectre v4).
    ArchitecturalMemory,
}

impl fmt::Display for SecretSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SecretSource::Memory => "memory",
            SecretSource::Cache => "L1 cache",
            SecretSource::LineFillBuffer => "line fill buffer",
            SecretSource::StoreBuffer => "store buffer",
            SecretSource::LoadPort => "load port",
            SecretSource::SpecialRegister => "special register",
            SecretSource::Fpu => "FPU state",
            SecretSource::ArchitecturalMemory => "architectural memory",
        };
        f.write_str(s)
    }
}

/// The role an operation plays in an attack graph.
///
/// Section IV-B of the paper defines four node types that *must* be present
/// in an attack graph — authorization, the sender's secret access, the
/// sender's micro-architectural state change (*send*), and the receiver's
/// retrieval. We additionally type the remaining supporting operations so the
/// analysis in [`crate::analysis`] can locate the critical nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum NodeKind {
    /// A permission / bounds / disambiguation check whose completion
    /// authorizes some other operation ("Authorization Operations", §IV-B).
    ///
    /// Examples: branch resolution of a bounds check (Spectre v1), kernel
    /// page-privilege check (Meltdown), store-load address disambiguation
    /// (Spectre v4), TSX abort completion (TAA).
    Authorization,
    /// The sender's (possibly illegal) access of the secret, annotated with
    /// the micro-architectural source it reads from.
    SecretAccess(SecretSource),
    /// The sender transforms/uses the secret, e.g. computing a covert-channel
    /// address from it ("Compute load address R" in Fig. 1).
    UseSecret,
    /// The sender's micro-architectural state change that encodes the secret
    /// ("Load R to Cache" in Fig. 1).
    Send,
    /// The receiver's retrieval of the transformed secret from the covert
    /// channel ("Reload Array_A / Measure time" in Fig. 1).
    Receive,
    /// Attacker setup: establishing the channel (flush) or mis-training a
    /// predictor (step 1 of §III).
    Setup,
    /// Resolution of the speculation: squash on mis-speculation or commit.
    Resolution,
    /// Any other computation, address generation, or book-keeping operation.
    Compute,
}

impl NodeKind {
    /// Whether this node is an authorization operation.
    #[must_use]
    pub fn is_authorization(self) -> bool {
        matches!(self, NodeKind::Authorization)
    }

    /// Whether this node is a secret access (of any source).
    #[must_use]
    pub fn is_secret_access(self) -> bool {
        matches!(self, NodeKind::SecretAccess(_))
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Authorization => f.write_str("authorization"),
            NodeKind::SecretAccess(src) => write!(f, "secret access ({src})"),
            NodeKind::UseSecret => f.write_str("use secret"),
            NodeKind::Send => f.write_str("send"),
            NodeKind::Receive => f.write_str("receive"),
            NodeKind::Setup => f.write_str("setup"),
            NodeKind::Resolution => f.write_str("resolution"),
            NodeKind::Compute => f.write_str("compute"),
        }
    }
}

/// A vertex of a [`Tsg`](crate::Tsg): one operation in the modeled execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) label: String,
    pub(crate) kind: NodeKind,
}

impl Node {
    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable label, e.g. `"Load S"` or `"Branch resolution"`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The role this operation plays in the attack.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.label, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Authorization.is_authorization());
        assert!(!NodeKind::Compute.is_authorization());
        assert!(NodeKind::SecretAccess(SecretSource::Memory).is_secret_access());
    }

    #[test]
    fn secret_source_display_is_nonempty() {
        for src in [
            SecretSource::Memory,
            SecretSource::Cache,
            SecretSource::LineFillBuffer,
            SecretSource::StoreBuffer,
            SecretSource::LoadPort,
            SecretSource::SpecialRegister,
            SecretSource::Fpu,
            SecretSource::ArchitecturalMemory,
        ] {
            assert!(!src.to_string().is_empty());
        }
    }

    #[test]
    fn kind_display_mentions_source() {
        let k = NodeKind::SecretAccess(SecretSource::StoreBuffer);
        assert!(k.to_string().contains("store buffer"));
    }
}
