//! Paper-level invariants on the attack graphs, checked across the whole
//! catalog and with property-based exploration of the discovery space.

use proptest::prelude::*;
use specgraph::prelude::*;

#[test]
fn every_attack_graph_races_between_authorization_and_access() {
    // Insight 1: the root cause is a missing edge between the authorization
    // operation and the secret access operation.
    for attack in attacks::registry() {
        let sa = attack.graph();
        let g = sa.graph();
        let auths = g.nodes_of_kind(NodeKind::is_authorization);
        let accesses = g.nodes_of_kind(NodeKind::is_secret_access);
        assert!(!auths.is_empty(), "{}", attack.info().name);
        assert!(!accesses.is_empty(), "{}", attack.info().name);
        let mut found = false;
        for &a in &auths {
            for &s in &accesses {
                if g.has_race(a, s).unwrap() {
                    found = true;
                }
            }
        }
        assert!(
            found,
            "{}: no authorization/access race in its graph",
            attack.info().name
        );
    }
}

#[test]
fn patching_the_access_edge_secures_every_catalog_graph() {
    // Insight 2/3: inserting the missing security dependency (strategy ①)
    // removes the race, for every variant.
    for attack in attacks::registry() {
        let mut sa = attack.graph();
        defenses::patch_strategy(&mut sa, defenses::Strategy::PreventAccess).unwrap();
        assert!(
            sa.is_secure().unwrap(),
            "{}: strategy ① did not secure the graph",
            attack.info().name
        );
    }
}

#[test]
fn strategies_2_and_3_leave_the_access_race_but_close_the_leak_path() {
    // Insight 5: relaxed strategies allow the access but stop use/send.
    for attack in attacks::registry() {
        let mut sa = attack.graph();
        defenses::patch_strategy(&mut sa, defenses::Strategy::PreventSend).unwrap();
        let vulns = sa.vulnerabilities().unwrap();
        assert!(
            vulns
                .iter()
                .all(|v| !matches!(v.protected_kind, NodeKind::Send)),
            "{}: send still races after strategy ③",
            attack.info().name
        );
    }
}

#[test]
fn every_registry_attack_sits_at_a_known_point_its_graph_reads() {
    // §V-A: the point's source is the one the graph's secret access reads.
    for attack in attacks::registry() {
        let (info, sa) = (attack.info(), attack.graph());
        let kinds: Vec<NodeKind> = sa.graph().nodes().map(|n| n.kind()).collect();
        assert!(
            kinds.contains(&NodeKind::SecretAccess(info.point.source)),
            "{}",
            info.name
        );
        assert!(kinds.contains(&NodeKind::Authorization), "{}", info.name);
        assert!(info.point.known_variants().any(|name| name == info.name));
    }
}

#[test]
fn the_fuzzers_known_points_are_the_five_executable_registry_points() {
    let names: Vec<&str> = fuzz::Combo::all()
        .iter()
        .filter_map(|c| c.known_variants().next())
        .collect();
    let want = "Spectre v1, Spectre v2, Spectre-RSB, Meltdown, Spectre v3a";
    assert_eq!(names.join(", "), want);
}

#[test]
fn meltdown_type_graphs_decompose_one_instruction() {
    // Insight 6: Meltdown-type graphs contain the intra-instruction pair —
    // both the check and the read hang off the same load/register-access
    // instruction node.
    for attack in attacks::registry() {
        if attack.info().class() != AttackClass::Meltdown {
            continue;
        }
        let sa = attack.graph();
        let g = sa.graph();
        // Find the instruction node that issues both the authorization and
        // the access.
        let instr = g
            .nodes()
            .find(|n| {
                let id = n.id();
                let succ_kinds: Vec<NodeKind> = g
                    .successors(id)
                    .unwrap()
                    .map(|e| g.node(e.to()).unwrap().kind())
                    .collect();
                succ_kinds.iter().any(|k| k.is_authorization())
                    && succ_kinds.iter().any(|k| k.is_secret_access())
            })
            .map(|n| n.label().to_owned());
        assert!(
            instr.is_some(),
            "{}: no intra-instruction decomposition found",
            attack.info().name
        );
    }
}

#[test]
fn dot_export_of_all_figures_is_renderable() {
    for attack in attacks::registry() {
        let dot = attack.graph().into_graph().to_dot(attack.info().name);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Discovery space: every point's template graph races, and the race is
    /// always fixable by strategy ①.
    #[test]
    fn discovery_points_race_and_are_securable(idx in 0usize..192) {
        let points = discovery::design_space();
        let p = points[idx];
        let mut sa = p.graph();
        prop_assert_eq!(sa.vulnerabilities().unwrap().len(), 3);
        defenses::patch_strategy(&mut sa, defenses::Strategy::PreventAccess).unwrap();
        prop_assert!(sa.is_secure().unwrap());
    }

    /// Random subsets of requirements: patching all reported vulnerabilities
    /// always converges to a secure graph (no oscillation).
    #[test]
    fn patch_all_converges(idx in 0usize..18) {
        let registry = attacks::registry();
        let mut sa = registry[idx % registry.len()].graph();
        let n = sa.patch_all().unwrap();
        prop_assert!(n >= 1);
        prop_assert!(sa.is_secure().unwrap());
        prop_assert_eq!(sa.patch_all().unwrap(), 0);
    }
}
