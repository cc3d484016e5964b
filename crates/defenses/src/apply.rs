//! Graph-level defense application: inserting the missing security
//! dependency edge at the node a strategy protects.

use crate::Strategy;
use std::error::Error;
use std::fmt;
use tsg::{EdgeKind, NodeKind, SecurityAnalysis, TsgError};

/// Errors from graph patching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatchError {
    /// The graph has no node of the kind the strategy protects.
    NoTargetNode(Strategy),
    /// The graph has no authorization node.
    NoAuthorization,
    /// The underlying graph rejected the edge.
    Graph(TsgError),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NoTargetNode(s) => {
                write!(f, "graph has no node for strategy {s}")
            }
            PatchError::NoAuthorization => f.write_str("graph has no authorization node"),
            PatchError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for PatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PatchError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TsgError> for PatchError {
    fn from(e: TsgError) -> Self {
        PatchError::Graph(e)
    }
}

/// Applies a strategy to an attack graph by inserting the corresponding
/// security-dependency edge(s) (the paper's red dashed arrows):
///
/// * ① authorization → every secret-access node,
/// * ② authorization → every use node,
/// * ③ authorization → every send node,
/// * ④ a new "Flush predictor" setup node ordered before the victim's
///   speculation trigger, severing predictor reuse (modeled as an edge from
///   the flush to every authorization-triggering node, plus removing the
///   mis-training setup's influence — represented by the `Security` edge
///   from the flush node to the mistrain node's successors).
///
/// Returns the number of security edges inserted. An edge whose target
/// already reaches the authorization (an authorization that reads the
/// accessed value) would close a cycle, so it is skipped: the dependency
/// stays violated and [`SecurityAnalysis::vulnerabilities`] reports it.
///
/// # Errors
///
/// [`PatchError::NoTargetNode`] if the graph lacks a node of the protected
/// kind, [`PatchError::NoAuthorization`] if it lacks an authorization node.
pub fn patch_strategy(sa: &mut SecurityAnalysis, strategy: Strategy) -> Result<usize, PatchError> {
    let auths = sa.graph().nodes_of_kind(NodeKind::is_authorization);
    if auths.is_empty() {
        return Err(PatchError::NoAuthorization);
    }
    let targets = match strategy {
        Strategy::PreventAccess => sa.graph().nodes_of_kind(NodeKind::is_secret_access),
        Strategy::PreventUse => sa
            .graph()
            .nodes_of_kind(|k| matches!(k, NodeKind::UseSecret)),
        Strategy::PreventSend => sa.graph().nodes_of_kind(|k| matches!(k, NodeKind::Send)),
        Strategy::ClearPredictions => {
            // Insert a flush-predictor node before the whole victim flow.
            let setups = sa.graph().nodes_of_kind(|k| matches!(k, NodeKind::Setup));
            let flush = sa
                .graph_mut()
                .add_node("Flush predictor (context switch)", NodeKind::Setup);
            let mut inserted = 0;
            // The flush is ordered after the attacker's setup (mis-training)
            // and before the victim's authorization: whatever the attacker
            // trained is gone when the victim runs.
            for s in setups {
                if s != flush {
                    sa.graph_mut().add_edge(s, flush, EdgeKind::Program)?;
                    inserted += 1;
                }
            }
            for &a in &auths {
                sa.graph_mut().add_edge(flush, a, EdgeKind::Security)?;
                inserted += 1;
            }
            return Ok(inserted);
        }
    };
    if targets.is_empty() {
        return Err(PatchError::NoTargetNode(strategy));
    }
    let mut inserted = 0;
    for &a in &auths {
        for &t in &targets {
            match sa.graph_mut().add_edge(a, t, EdgeKind::Security) {
                Ok(_) => inserted += 1,
                Err(TsgError::WouldCycle { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacks::Attack;
    use tsg::SecretSource;

    /// Whether the declared (access/use/send) requirement of the given node
    /// kind still races after patching.
    fn still_races(sa: &SecurityAnalysis, kind_is: fn(NodeKind) -> bool) -> bool {
        sa.vulnerabilities()
            .unwrap()
            .iter()
            .any(|v| kind_is(v.protected_kind))
    }

    #[test]
    fn strategy1_closes_access_race_and_downstream() {
        let mut sa = attacks::spectre_v1::SpectreV1.graph();
        assert!(!sa.is_secure().unwrap());
        let n = patch_strategy(&mut sa, Strategy::PreventAccess).unwrap();
        assert!(n >= 1);
        // Access protected ⇒ use and send are transitively protected too.
        assert!(sa.is_secure().unwrap());
    }

    #[test]
    fn strategy2_closes_use_and_send_but_not_access() {
        let mut sa = attacks::spectre_v1::SpectreV1.graph();
        patch_strategy(&mut sa, Strategy::PreventUse).unwrap();
        // The access still races (the paper's relaxed security model)…
        assert!(still_races(&sa, NodeKind::is_secret_access));
        // …but the use and send no longer do.
        assert!(!still_races(&sa, |k| matches!(k, NodeKind::UseSecret)));
        assert!(!still_races(&sa, |k| matches!(k, NodeKind::Send)));
    }

    #[test]
    fn strategy3_closes_only_the_send() {
        let mut sa = attacks::meltdown::Meltdown.graph();
        patch_strategy(&mut sa, Strategy::PreventSend).unwrap();
        assert!(still_races(&sa, NodeKind::is_secret_access));
        assert!(still_races(&sa, |k| matches!(k, NodeKind::UseSecret)));
        assert!(!still_races(&sa, |k| matches!(k, NodeKind::Send)));
    }

    #[test]
    fn strategy4_inserts_flush_node() {
        let mut sa = attacks::spectre_v2::SpectreV2.graph();
        let before = sa.graph().node_count();
        patch_strategy(&mut sa, Strategy::ClearPredictions).unwrap();
        assert_eq!(sa.graph().node_count(), before + 1);
        let flush = sa
            .graph()
            .find_by_label("Flush predictor (context switch)")
            .unwrap();
        // The flush precedes the authorization.
        let auth = sa.graph().nodes_of_kind(NodeKind::is_authorization)[0];
        assert!(sa.graph().has_path(flush, auth).unwrap());
    }

    #[test]
    fn an_edge_that_would_close_a_cycle_is_skipped_and_the_race_stays() {
        // An authorization that reads the accessed value: access → auth.
        let mut sa = SecurityAnalysis::new();
        let g = sa.graph_mut();
        let access = g.add_node("access", NodeKind::SecretAccess(SecretSource::Memory));
        let auth = g.add_node("auth", NodeKind::Authorization);
        g.add_edge(access, auth, EdgeKind::Data).unwrap();
        sa.require(auth, access).unwrap();
        let mut patched = sa.clone();
        assert_eq!(patch_strategy(&mut patched, Strategy::PreventAccess), Ok(0));
        assert!(!patched.is_secure().unwrap());
        // A ① defense's graph verdict (`DefenseStack::graph_sufficient`).
        let defense = crate::registry()
            .iter()
            .find(|d| d.strategy == Strategy::PreventAccess)
            .unwrap();
        let stack = crate::DefenseStack::single(*defense);
        let verdict = crate::session::graph_verdict(&mut sa, &stack);
        assert_eq!(verdict.unwrap(), Some(false));
    }

    #[test]
    fn missing_nodes_reported() {
        let mut sa = SecurityAnalysis::new();
        assert_eq!(
            patch_strategy(&mut sa, Strategy::PreventAccess).unwrap_err(),
            PatchError::NoAuthorization
        );
        sa.graph_mut().add_node("auth", NodeKind::Authorization);
        assert_eq!(
            patch_strategy(&mut sa, Strategy::PreventUse).unwrap_err(),
            PatchError::NoTargetNode(Strategy::PreventUse)
        );
    }

    #[test]
    fn patch_error_display() {
        assert!(PatchError::NoAuthorization
            .to_string()
            .contains("authorization"));
        assert!(PatchError::NoTargetNode(Strategy::PreventSend)
            .to_string()
            .contains("③"));
    }
}
