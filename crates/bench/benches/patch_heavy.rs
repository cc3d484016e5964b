//! Criterion: the patch-heavy loops that dominate campaign runtime —
//! graph mutation with a live reachability index vs the full-rebuild
//! path, the per-attack patch session vs fresh graphs in the
//! `graph_sufficient` loop, the Table-IV cover search, and the end-to-end
//! knob-grid campaign wall clock.
//!
//! The "rebuild" arms reproduce the pre-incremental cost model (every
//! patch discards the closure; every candidate rebuilds the graph), so
//! the before/after speedup is measured honestly in one tree — the same
//! guardrail style as `race_detection`'s DFS-vs-index comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use defenses::{DefenseStack, PatchSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
use std::hint::black_box;
use tsg::{EdgeKind, NodeId, NodeKind, RacePair, ReachabilityIndex, Tsg};
use uarch::UarchConfig;

fn random_dag(nodes: usize, edge_prob: f64, seed: u64) -> Tsg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Tsg::with_capacity(nodes, nodes * 4);
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| g.add_node(format!("n{i}"), NodeKind::Compute))
        .collect();
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            if rng.gen_bool(edge_prob) {
                g.add_edge(ids[i], ids[j], EdgeKind::Data)
                    .expect("forward edges are acyclic");
            }
        }
    }
    g
}

/// The campaign-shaped patch/unpatch loop at the `tsg` level: patch one
/// racing pair, ask a reachability verdict, undo — once per candidate.
/// The rebuild arm pays a full `ReachabilityIndex::build` per patch (the
/// pre-incremental cost: every mutation invalidated the cache); the
/// incremental arm folds the edge into the live index and rolls back to a
/// warm checkpoint.
fn bench_patch_unpatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("patch_unpatch");
    for &n in &[128usize, 512] {
        let mut g = random_dag(n, 4.0 / n as f64, 5);
        let pairs: Vec<RacePair> = g.all_races().into_iter().take(32).collect();
        assert!(!pairs.is_empty(), "DAG has no races to patch");

        // Cold checkpoint: no cached closure, so every verdict below is a
        // fresh full build — the old cost model.
        let cold = random_dag(n, 4.0 / n as f64, 5);
        let cold_cp = cold.checkpoint();
        let mut cold = cold;
        group.bench_with_input(BenchmarkId::new("full_rebuild", n), &(), |b, ()| {
            b.iter(|| {
                let mut races = 0usize;
                for pair in &pairs {
                    cold.add_edge(pair.a, pair.b, EdgeKind::Security).unwrap();
                    let idx = ReachabilityIndex::build(&cold);
                    races += usize::from(idx.races(black_box(pair.b), black_box(pair.a)));
                    cold.rollback(&cold_cp);
                }
                races
            });
        });

        // Warm checkpoint: the live index absorbs each patch and rollback
        // restores it by memcpy — no rebuild anywhere in the loop.
        let expected = ReachabilityIndex::build(&g);
        let _ = g.reachability();
        let cp = g.checkpoint();
        group.bench_with_input(BenchmarkId::new("incremental_rollback", n), &(), |b, ()| {
            b.iter(|| {
                let mut races = 0usize;
                for pair in &pairs {
                    g.add_edge(pair.a, pair.b, EdgeKind::Security).unwrap();
                    races +=
                        usize::from(g.reachability().races(black_box(pair.b), black_box(pair.a)));
                    g.rollback(&cp);
                }
                races
            });
        });
        assert_eq!(
            *g.reachability(),
            expected,
            "rollback must restore the index"
        );
    }
    group.finish();
}

/// The defense layer's patch loop: every registry stack's graph verdict
/// against one attack. The fresh-graph arm is the pre-session cost
/// (`DefenseStack::graph_sufficient` constructs and indexes the attack
/// graph per candidate); the session arm builds it once and patches and
/// rolls back incrementally.
fn bench_graph_sufficient_catalog(c: &mut Criterion) {
    let stacks: Vec<DefenseStack> = defenses::registry()
        .iter()
        .map(|d| DefenseStack::single(*d))
        .collect();
    let attack = &attacks::spectre_v2::SpectreV2;
    let expected: Vec<Option<bool>> = stacks
        .iter()
        .map(|s| s.graph_sufficient(attack).unwrap())
        .collect();

    let mut group = c.benchmark_group("graph_sufficient_catalog");
    group.bench_function("fresh_graph_per_stack", |b| {
        b.iter(|| {
            let verdicts: Vec<Option<bool>> = stacks
                .iter()
                .map(|s| s.graph_sufficient(black_box(attack)).unwrap())
                .collect();
            assert_eq!(verdicts, expected);
            verdicts
        });
    });
    group.bench_function("patch_session", |b| {
        b.iter(|| {
            let mut session = PatchSession::new(black_box(attack));
            let verdicts: Vec<Option<bool>> = stacks
                .iter()
                .map(|s| session.graph_sufficient(s).unwrap())
                .collect();
            assert_eq!(verdicts, expected);
            verdicts
        });
    });
    group.finish();
}

/// The Table-IV cover search over the practical industry candidates: its
/// singleton cube on the campaign executor.
fn bench_cover_search(c: &mut Criterion) {
    let base = UarchConfig::default();
    let industry = specgraph::cover::practical_industry();
    let mut group = c.benchmark_group("cover_search");
    group.bench_function("practical_industry", |b| {
        b.iter(|| {
            let report =
                specgraph::cover::minimal_cover(attacks::registry(), &industry, &base).unwrap();
            assert!(report.minimal.is_none());
            report.stacks_verified
        });
    });
    group.finish();
}

/// End-to-end knob-grid campaign wall clock (single-threaded for stable
/// numbers): graph verdicts are hoisted to one per (attack, stack) pair
/// and shared across all four config slices.
fn bench_campaign_grid(c: &mut Criterion) {
    let spec = CampaignSpec::builder(UarchConfig::default())
        .attacks(attacks::registry().iter().copied().take(6))
        .defenses(defenses::registry().iter().copied().take(6))
        .axis(Knob::RobDepth, [16usize, 48])
        .axis(
            Knob::Hardening,
            [Hardening::None, Hardening::FlushPredictors],
        )
        .threads(1)
        .build();
    let mut group = c.benchmark_group("campaign_grid");
    group.bench_function("6x6x4_single_thread", |b| {
        b.iter(|| {
            let matrix = CampaignMatrix::run(black_box(&spec)).unwrap();
            assert_eq!(matrix.shape(), (6, 6, 4));
            matrix.cells().len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_patch_unpatch,
    bench_graph_sufficient_catalog,
    bench_cover_search,
    bench_campaign_grid
);
criterion_main!(benches);
