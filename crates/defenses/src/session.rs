//! Reusable patched-analysis sessions: one indexed attack graph, many
//! candidate defense stacks.
//!
//! Every graph-level verdict in this crate is "insert the stack's strategy
//! edges, re-ask Theorem 1". The one-shot path
//! ([`DefenseStack::graph_sufficient`]) rebuilds the attack's graph — and
//! its reachability closure — per call, which is fine for a single
//! question but dominates patch-heavy loops: a campaign asks the same
//! attack about every defense stack, and the cover search asks it about
//! every candidate combination of an exponential search.
//!
//! A [`PatchSession`] builds the attack's graph **once**, forces its
//! closure, and takes a [`Tsg::checkpoint`](tsg::Tsg::checkpoint). Each
//! [`PatchSession::graph_sufficient`] call then applies the candidate
//! stack's edge set *incrementally* (the live index absorbs each inserted
//! edge in place) and rolls back to the checkpoint afterwards — restoring
//! the warm closure — so the per-candidate cost is the handful of strategy
//! edges, not a graph construction plus a full `O(V·E/64)` closure
//! rebuild.

use crate::{patch_strategy, DefenseStack, PatchError, Strategy};
use attacks::{Attack, AttackError};
use tsg::{NodeKind, SecurityAnalysis, TsgCheckpoint};

/// A reusable graph-verdict evaluator for one attack: the attack's
/// indexed graph plus a rollback checkpoint, amortizing graph
/// construction and closure building over many candidate stacks.
///
/// ```
/// use defenses::{DefenseStack, PatchSession};
///
/// let mut session = PatchSession::new(&attacks::spectre_v1::SpectreV1);
/// for stack in ["lfence", "nda", "kpti+retpoline"] {
///     let stack = DefenseStack::parse(stack).unwrap();
///     let verdict = session.graph_sufficient(&stack).unwrap();
///     assert_eq!(verdict, stack.graph_sufficient(&attacks::spectre_v1::SpectreV1).unwrap());
/// }
/// ```
#[derive(Debug)]
pub struct PatchSession {
    analysis: SecurityAnalysis,
    base: TsgCheckpoint,
}

impl PatchSession {
    /// Builds `attack`'s graph, forces its reachability closure, and
    /// checkpoints — the one-time cost every later candidate amortizes.
    #[must_use]
    pub fn new(attack: &dyn Attack) -> Self {
        let analysis = attack.graph();
        // Force the closure *before* checkpointing so every rollback
        // restores a warm index.
        let _ = analysis.graph().reachability();
        let base = analysis.graph().checkpoint();
        PatchSession { analysis, base }
    }

    /// The attack's unpatched analysis (the state between candidates).
    #[must_use]
    pub fn analysis(&self) -> &SecurityAnalysis {
        &self.analysis
    }

    /// Theorem 1 on the *unpatched* graph: does an authorization race
    /// with a secret access? This is the campaign's per-attack baseline
    /// graph verdict, answered from the session's warm index.
    #[must_use]
    pub fn graph_race(&self) -> bool {
        graph_race(&self.analysis)
    }

    /// [`DefenseStack::graph_sufficient`] against this session's attack:
    /// applies the stack's distinct strategy edge sets incrementally,
    /// reads the verdict, and rolls the graph (and its warm closure) back
    /// to the unpatched checkpoint.
    ///
    /// # Errors
    ///
    /// [`AttackError::Tsg`] if the graph rejects an inserted edge; the
    /// session is rolled back and stays usable either way.
    pub fn graph_sufficient(&mut self, stack: &DefenseStack) -> Result<Option<bool>, AttackError> {
        let verdict = graph_verdict(&mut self.analysis, stack);
        self.analysis.graph_mut().rollback(&self.base);
        verdict
    }
}

/// Theorem 1 on an unpatched analysis: does an authorization race with a
/// secret access? A one-shot question needs no [`PatchSession`]: this
/// builds the closure on first use and checkpoints nothing.
#[must_use]
pub fn graph_race(analysis: &SecurityAnalysis) -> bool {
    let g = analysis.graph();
    let idx = g.reachability();
    let auths = g.nodes_of_kind(NodeKind::is_authorization);
    let accesses = g.nodes_of_kind(NodeKind::is_secret_access);
    auths
        .iter()
        .any(|&a| accesses.iter().any(|&s| idx.races(a, s)))
}

/// The graph-level sufficiency verdict for `stack` on an attack analysis,
/// mutating `sa` in place (callers either discard the analysis —
/// [`DefenseStack::graph_sufficient`] — or roll it back —
/// [`PatchSession`]). This is the single definition of the verdict rule;
/// see [`DefenseStack::graph_sufficient`] for its semantics.
pub(crate) fn graph_verdict(
    sa: &mut SecurityAnalysis,
    stack: &DefenseStack,
) -> Result<Option<bool>, AttackError> {
    let mut inserted: Vec<Strategy> = Vec::new();
    for strategy in stack.strategies() {
        match patch_strategy(sa, strategy) {
            Ok(_) => inserted.push(strategy),
            Err(PatchError::Graph(e)) => return Err(AttackError::Tsg(e)),
            // No insertion point for this strategy in this graph.
            Err(_) => {}
        }
    }
    if inserted.is_empty() {
        return Ok(None);
    }
    let vulns = sa.vulnerabilities()?;
    let secure = if inserted.contains(&Strategy::PreventAccess) {
        vulns.is_empty()
    } else if inserted
        .iter()
        .any(|s| matches!(s, Strategy::PreventUse | Strategy::PreventSend))
    {
        !vulns
            .iter()
            .any(|v| matches!(v.protected_kind, tsg::NodeKind::Send))
    } else {
        // ④ only: see DefenseStack::graph_sufficient.
        true
    };
    Ok(Some(secure))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, presets};

    fn stack(expr: &str) -> DefenseStack {
        DefenseStack::parse(expr).expect("valid stack expression")
    }

    #[test]
    fn session_verdicts_match_one_shot_for_every_catalog_stack() {
        for attack in [
            &attacks::spectre_v1::SpectreV1 as &dyn Attack,
            &attacks::spectre_v2::SpectreV2,
            &attacks::meltdown::Meltdown,
        ] {
            let mut session = PatchSession::new(attack);
            for d in crate::registry() {
                let s = DefenseStack::single(*d);
                assert_eq!(
                    session.graph_sufficient(&s).unwrap(),
                    s.graph_sufficient(attack).unwrap(),
                    "{} vs {}",
                    d.name,
                    attack.info().name
                );
            }
        }
    }

    #[test]
    fn session_is_reusable_across_bundles_and_orders() {
        // Same session, many stacks — including ④ patches that add a
        // node — must keep answering like fresh evaluations.
        let mut session = PatchSession::new(&attacks::spectre_v2::SpectreV2);
        let stacks = [
            stack("lfence"),
            presets::linux_default(),
            stack("ibpb"),
            presets::linux_default(),
            stack("stt+retpoline"),
            stack("lfence"),
        ];
        for s in &stacks {
            assert_eq!(
                session.graph_sufficient(s).unwrap(),
                s.graph_sufficient(&attacks::spectre_v2::SpectreV2).unwrap(),
                "{s}"
            );
        }
        // The session's graph is back to its unpatched size every time.
        let fresh = attacks::spectre_v2::SpectreV2.graph();
        assert_eq!(
            session.analysis().graph().node_count(),
            fresh.graph().node_count()
        );
        assert_eq!(
            session.analysis().graph().edge_count(),
            fresh.graph().edge_count()
        );
    }

    #[test]
    fn graph_race_matches_the_campaign_definition() {
        // Undefended catalog graphs race by construction.
        for attack in attacks::registry().iter().take(6) {
            let session = PatchSession::new(*attack);
            assert!(session.graph_race(), "{}", attack.info().name);
        }
        // A ① patch that closes everything removes the race — on a fresh
        // graph, not through the session (which always rolls back).
        let mut session = PatchSession::new(&attacks::spectre_v1::SpectreV1);
        let lfence = DefenseStack::single(*crate::find(names::LFENCE).unwrap());
        assert_eq!(session.graph_sufficient(&lfence).unwrap(), Some(true));
        assert!(session.graph_race(), "rollback must restore the race");
    }
}
