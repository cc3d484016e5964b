//! # `tsg` — Topological Sort Graphs for speculative-execution attack modeling
//!
//! This crate implements the *attack graph* formalism of
//! "New Models for Understanding and Reasoning about Speculative Execution
//! Attacks" (He, Hu, Lee — HPCA 2021).
//!
//! An attack graph is a **Topological Sort Graph (TSG)**: a directed acyclic
//! graph whose vertices are operations (instructions or micro-ops) and whose
//! edges are *dependencies* — orderings the hardware is guaranteed to respect.
//! The paper's central results, all implemented here:
//!
//! * **Valid orderings** ([`Tsg::is_valid_ordering`], [`Tsg::valid_orderings`])
//!   are the linear extensions of the partial order induced by the edges.
//! * **Race condition** ([`Tsg::has_race`]): vertices `u`, `v` race iff two valid
//!   orderings disagree on their relative order.
//! * **Theorem 1** ([`Tsg::has_race`]): `u` and `v` are race-free **iff** a
//!   directed path connects them. Race detection therefore reduces to two
//!   reachability queries.
//! * **Security dependency** ([`SecurityDependency`], [`analysis`]): a required
//!   ordering from an *authorization* operation to a protected *access*,
//!   *use*, or *send* operation. A missing security dependency is a race
//!   between authorization and access — the root cause of Spectre/Meltdown-
//!   class attacks.
//!
//! ## Quick example
//!
//! ```
//! use tsg::{Tsg, NodeKind, EdgeKind, SecretSource};
//!
//! # fn main() -> Result<(), tsg::TsgError> {
//! let mut g = Tsg::new();
//! let auth = g.add_node("bounds check", NodeKind::Authorization);
//! let access = g.add_node(
//!     "load secret",
//!     NodeKind::SecretAccess(SecretSource::ArchitecturalMemory),
//! );
//! // No edge between them: they race (Theorem 1), so the access can
//! // complete before the authorization — a speculative-execution hole.
//! assert!(g.has_race(auth, access)?);
//!
//! // Inserting the missing security dependency serializes them.
//! g.add_edge(auth, access, EdgeKind::Security)?;
//! assert!(!g.has_race(auth, access)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod dot;
mod edge;
mod error;
pub mod examples;
mod fingerprint;
mod graph;
mod node;
pub mod ordering;
pub mod race;
pub mod reach;

pub use edge::{Edge, EdgeId, EdgeKind};
pub use error::TsgError;
pub use fingerprint::shape_fingerprint;
pub use graph::{Tsg, TsgCheckpoint};
pub use node::{Node, NodeId, NodeKind, SecretSource};
pub use race::RacePair;
pub use reach::{Descendants, ReachabilityIndex};

pub use analysis::{SecurityAnalysis, SecurityDependency, Vulnerability};
