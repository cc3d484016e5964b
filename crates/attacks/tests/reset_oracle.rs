//! Property: a warm [`BatchRunner`] is observationally equal to a cold
//! per-call run — `runner.run(attack, cfg) == attack.run(cfg)` for every
//! registered attack under randomized configurations, even when the pooled
//! machine was just dirtied by a *different* attack under a *different*
//! configuration.
//!
//! This is the oracle that licenses the campaign executor's warm-machine
//! pooling: [`uarch::Machine::reset`] must erase every trace of the
//! previous run (caches, buffers, predictors, page tables, FPU ownership,
//! contexts, event log) and adopt the new configuration's geometry.

use attacks::{registry, BatchRunner};
use proptest::prelude::*;
use uarch::UarchConfig;

/// Decodes a bitmask into a configuration, mixing structural knobs (cache
/// geometry, ROB depth) with defense knobs so resets cross *shape*
/// boundaries, not just flag flips. Forwarding stays on by default (bit
/// clear) so leak-path behavior varies but programs still complete.
fn config_from(bits: u32) -> UarchConfig {
    let mut b = UarchConfig::builder()
        .nda(bits & 1 != 0)
        .stt(bits & 2 != 0)
        .kpti(bits & 4 != 0)
        .transient_forwarding(bits & 8 == 0)
        .lazy_fpu(bits & 16 == 0)
        .delay_on_miss(bits & 32 != 0)
        .rsb_stuffing(bits & 64 != 0)
        .flush_predictors_on_switch(bits & 128 != 0)
        .eager_permission_check(bits & 256 != 0)
        .dawg(bits & 512 != 0);
    if bits & 1024 != 0 {
        b = b.cache_sets(32).cache_ways(2).rob_capacity(24);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dirty-then-reset runner reproduces the cold run bit for bit:
    /// same `Result`, same outcome fields (including cycle counts).
    #[test]
    fn warm_reset_run_equals_cold_run(
        bits in 0u32..2048,
        dirty_bits in 0u32..2048,
        ai in 0usize..attacks::registry().len(),
        di in 0usize..attacks::registry().len(),
    ) {
        let cfg = config_from(bits);
        let attack = registry()[ai];
        let dirtier = registry()[di];

        let mut runner = BatchRunner::new();
        // Dirty the pooled machine: an unrelated attack under an unrelated
        // configuration leaves caches, predictors, contexts and FPU state
        // behind for reset to erase.
        let _ = runner.run(dirtier, &config_from(dirty_bits));

        let warm = runner.run(attack, &cfg);
        let cold = attack.run(&cfg);
        match (warm, cold) {
            (Ok(w), Ok(c)) => prop_assert_eq!(
                w, c, "warm != cold for {} (bits {:#x})", attack.info().name, bits
            ),
            (w, c) => prop_assert_eq!(
                format!("{w:?}"),
                format!("{c:?}"),
                "error divergence for {}",
                attack.info().name
            ),
        }
    }
}

/// Every attack under the default config, KPTI, and DAWG with a small
/// cache geometry: a warm runner whose probe-page snapshot was already
/// taken (by a different attack under a different config) reproduces the
/// cold run exactly. An explicit loop, so every pair is covered.
#[test]
fn warm_snapshot_run_equals_cold_run_for_every_attack() {
    let configs = [
        UarchConfig::default(),
        UarchConfig::builder().kpti(true).build(),
        UarchConfig::builder()
            .dawg(true)
            .cache_sets(32)
            .cache_ways(2)
            .build(),
    ];
    let mut runner = BatchRunner::new();
    let dirtier = *registry().last().expect("the registry is not empty");
    runner
        .run(dirtier, &config_from(0x7ff))
        .expect("warm-up run");
    for attack in registry() {
        for cfg in &configs {
            let warm = runner.run(*attack, cfg);
            let cold = attack.run(cfg);
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "warm != cold for {} under {cfg:?}",
                attack.info().name
            );
        }
    }
}
