//! Security-dependency analysis: finding the missing edges that make attacks.
//!
//! Definition 2 of the paper: a **security dependency** of operation `v` on
//! operation `u` is a required ordering "`u` completes before `v`" whose
//! absence permits a security breach. `u` is an *authorization* and `v` is a
//! protected *access*, *use*, or *send*.
//!
//! An attack graph declares which authorization guards which operations (the
//! [`SecurityDependency`] requirements). The analysis then checks each
//! requirement with Theorem 1: if the authorization and the protected
//! operation race, the security dependency is *missing* and the pair is
//! reported as a [`Vulnerability`]. Patching a vulnerability inserts the
//! missing [`EdgeKind::Security`] edge — exactly
//! what the paper's defense strategies ①–③ do at different nodes.

use crate::edge::EdgeKind;
use crate::error::TsgError;
use crate::graph::Tsg;
use crate::node::{NodeId, NodeKind};
use std::fmt;

/// A *required* ordering: `authorization` must complete before `protected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecurityDependency {
    /// The authorization operation (bounds check, permission check, …).
    pub authorization: NodeId,
    /// The operation that must not complete before the authorization
    /// (secret access, secret use, or covert send).
    pub protected: NodeId,
}

impl fmt::Display for SecurityDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must-precede {}", self.authorization, self.protected)
    }
}

/// A security dependency found to be missing: the pair races (Theorem 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vulnerability {
    /// The violated requirement.
    pub dependency: SecurityDependency,
    /// Label of the authorization node (for reporting).
    pub authorization_label: String,
    /// Label of the unprotected node (for reporting).
    pub protected_label: String,
    /// Kind of the unprotected node; tells which defense strategy
    /// (access/use/send) the missing edge corresponds to.
    pub protected_kind: NodeKind,
}

impl fmt::Display for Vulnerability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "missing security dependency: '{}' races with '{}' ({})",
            self.authorization_label, self.protected_label, self.protected_kind
        )
    }
}

/// An attack graph plus its declared security-dependency requirements.
///
/// This couples a [`Tsg`] with the *policy* ("no access without
/// authorization", §IV-C) so that vulnerabilities can be detected and
/// patched.
///
/// ```
/// use tsg::{SecurityAnalysis, NodeKind, SecretSource, EdgeKind};
/// # fn main() -> Result<(), tsg::TsgError> {
/// let mut sa = SecurityAnalysis::new();
/// let auth = sa.graph_mut().add_node("bounds check", NodeKind::Authorization);
/// let load = sa
///     .graph_mut()
///     .add_node("Load S", NodeKind::SecretAccess(SecretSource::ArchitecturalMemory));
/// sa.require(auth, load)?;
/// assert_eq!(sa.vulnerabilities()?.len(), 1);
/// let patched = sa.patch_all()?;
/// assert_eq!(patched, 1);
/// assert!(sa.vulnerabilities()?.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SecurityAnalysis {
    graph: Tsg,
    requirements: Vec<SecurityDependency>,
}

impl SecurityAnalysis {
    /// Creates an analysis over an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying attack graph.
    #[must_use]
    pub fn graph(&self) -> &Tsg {
        &self.graph
    }

    /// Mutable access to the underlying attack graph.
    pub fn graph_mut(&mut self) -> &mut Tsg {
        &mut self.graph
    }

    /// Consumes the analysis, returning the graph.
    #[must_use]
    pub fn into_graph(self) -> Tsg {
        self.graph
    }

    /// Declares that `authorization` must complete before `protected`.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if either node is absent.
    pub fn require(&mut self, authorization: NodeId, protected: NodeId) -> Result<(), TsgError> {
        self.graph.check_node(authorization)?;
        self.graph.check_node(protected)?;
        let dep = SecurityDependency {
            authorization,
            protected,
        };
        if !self.requirements.contains(&dep) {
            self.requirements.push(dep);
        }
        Ok(())
    }

    /// The declared requirements.
    #[must_use]
    pub fn requirements(&self) -> &[SecurityDependency] {
        &self.requirements
    }

    /// Finds every requirement whose ordering the graph does **not**
    /// enforce, i.e. where authorization and protected operation race
    /// (Theorem 1), or where the protected operation can even *precede*
    /// the authorization outright.
    ///
    /// # Errors
    ///
    /// [`TsgError::UnknownNode`] if a requirement references a node that
    /// has been removed (cannot happen through this API, but kept for
    /// robustness).
    pub fn vulnerabilities(&self) -> Result<Vec<Vulnerability>, TsgError> {
        let mut out = Vec::new();
        // One cached closure build answers every requirement check below.
        for dep in &self.requirements {
            self.graph.check_node(dep.authorization)?;
            self.graph.check_node(dep.protected)?;
            let idx = self.graph.reachability();
            let enforced = idx.reaches(dep.authorization, dep.protected)
                && !idx.reaches(dep.protected, dep.authorization);
            if !enforced {
                let auth = self.graph.node(dep.authorization)?;
                let prot = self.graph.node(dep.protected)?;
                out.push(Vulnerability {
                    dependency: *dep,
                    authorization_label: auth.label().to_owned(),
                    protected_label: prot.label().to_owned(),
                    protected_kind: prot.kind(),
                });
            }
        }
        Ok(out)
    }

    /// Whether every declared security dependency is enforced by the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`TsgError`] from [`SecurityAnalysis::vulnerabilities`].
    pub fn is_secure(&self) -> Result<bool, TsgError> {
        Ok(self.vulnerabilities()?.is_empty())
    }

    /// Inserts the missing [`EdgeKind::Security`] edge for one vulnerability.
    ///
    /// # Errors
    ///
    /// [`TsgError::WouldCycle`] if the protected operation already
    /// (transitively) precedes the authorization — in that case the
    /// requirement is unsatisfiable by edge insertion and the modeled
    /// machine must be restructured instead.
    pub fn patch(&mut self, dep: SecurityDependency) -> Result<(), TsgError> {
        self.graph
            .add_edge(dep.authorization, dep.protected, EdgeKind::Security)?;
        Ok(())
    }

    /// Patches every current vulnerability; returns how many edges were
    /// inserted.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SecurityAnalysis::patch`].
    pub fn patch_all(&mut self) -> Result<usize, TsgError> {
        let vulns = self.vulnerabilities()?;
        for v in &vulns {
            self.patch(v.dependency)?;
        }
        Ok(vulns.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SecretSource;

    fn spectre_skeleton() -> (SecurityAnalysis, NodeId, NodeId, NodeId) {
        // auth (branch resolution), access (Load S), send (Load R)
        let mut sa = SecurityAnalysis::new();
        let g = sa.graph_mut();
        let auth = g.add_node("Branch resolution", NodeKind::Authorization);
        let access = g.add_node(
            "Load S",
            NodeKind::SecretAccess(SecretSource::ArchitecturalMemory),
        );
        let send = g.add_node("Load R to Cache", NodeKind::Send);
        g.add_edge(access, send, EdgeKind::Data).unwrap();
        (sa, auth, access, send)
    }

    #[test]
    fn missing_dependency_detected() {
        let (mut sa, auth, access, _) = spectre_skeleton();
        sa.require(auth, access).unwrap();
        let v = sa.vulnerabilities().unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].dependency.authorization, auth);
        assert!(v[0].to_string().contains("Load S"));
        assert!(!sa.is_secure().unwrap());
    }

    #[test]
    fn patch_inserts_security_edge_and_protects_chain() {
        let (mut sa, auth, access, send) = spectre_skeleton();
        sa.require(auth, access).unwrap();
        sa.require(auth, send).unwrap();
        assert_eq!(sa.vulnerabilities().unwrap().len(), 2);
        // Patching only the access→ the send is transitively protected too.
        sa.patch(SecurityDependency {
            authorization: auth,
            protected: access,
        })
        .unwrap();
        assert!(sa.is_secure().unwrap());
        assert_eq!(
            sa.graph()
                .edges()
                .filter(|e| e.kind() == EdgeKind::Security)
                .count(),
            1
        );
    }

    #[test]
    fn enforced_dependency_not_reported() {
        let (mut sa, auth, access, _) = spectre_skeleton();
        sa.graph_mut()
            .add_edge(auth, access, EdgeKind::Security)
            .unwrap();
        sa.require(auth, access).unwrap();
        assert!(sa.is_secure().unwrap());
    }

    #[test]
    fn patch_all_counts() {
        let (mut sa, auth, access, send) = spectre_skeleton();
        sa.require(auth, access).unwrap();
        sa.require(auth, send).unwrap();
        let n = sa.patch_all().unwrap();
        // Both vulnerable at detection time; both get explicit edges.
        assert_eq!(n, 2);
        assert!(sa.is_secure().unwrap());
        assert_eq!(sa.patch_all().unwrap(), 0);
    }

    #[test]
    fn unsatisfiable_requirement_errors_on_patch() {
        let mut sa = SecurityAnalysis::new();
        let g = sa.graph_mut();
        let access = g.add_node("access", NodeKind::SecretAccess(SecretSource::Memory));
        let auth = g.add_node("auth", NodeKind::Authorization);
        g.add_edge(access, auth, EdgeKind::Program).unwrap();
        sa.require(auth, access).unwrap();
        // Reported as vulnerable (auth does not precede access)…
        assert_eq!(sa.vulnerabilities().unwrap().len(), 1);
        // …but cannot be fixed by edge insertion.
        let err = sa
            .patch(SecurityDependency {
                authorization: auth,
                protected: access,
            })
            .unwrap_err();
        assert!(matches!(err, TsgError::WouldCycle { .. }));
    }

    #[test]
    fn duplicate_requirements_deduplicated() {
        let (mut sa, auth, access, _) = spectre_skeleton();
        sa.require(auth, access).unwrap();
        sa.require(auth, access).unwrap();
        assert_eq!(sa.requirements().len(), 1);
    }

    #[test]
    fn display_formats() {
        let dep = SecurityDependency {
            authorization: NodeId(0),
            protected: NodeId(1),
        };
        assert_eq!(dep.to_string(), "n0 must-precede n1");
    }
}
