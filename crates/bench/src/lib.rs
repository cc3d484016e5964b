//! # `bench` — experiment harness
//!
//! Regenerates every table and figure of "New Models for Understanding and
//! Reasoning about Speculative Execution Attacks" (HPCA 2021):
//!
//! * `cargo run -p bench --bin table1` — Table I (attacks, CVEs, impact)
//!   with simulated outcomes,
//! * `cargo run -p bench --bin table2` — Table II (industry defenses) with
//!   executable verification,
//! * `cargo run -p bench --bin table3` — Table III (authorization/access
//!   nodes) with Theorem-1 race detection and leak verdicts,
//! * `cargo run -p bench --bin figures [figN…]` — Figures 1–9 as DOT plus
//!   race/ordering analysis,
//! * `cargo run -p bench --bin insufficiency` — the §V-B insufficient
//!   defense experiment,
//! * `cargo run -p bench --bin overhead` — the security/performance
//!   trade-off across the four defense strategies (Insight 5),
//! * `cargo run -p bench --bin campaign` — the campaign pipeline CLI:
//!   run a campaign (whole, one `--shard i/n` slice, checkpointed, or
//!   incrementally against a saved `--prev` matrix), merge part files,
//!   and re-render the Figure-8 hardening heatmaps from a saved matrix
//!   ([`campaign_cli`], [`heatmap`]),
//! * `cargo bench -p bench` — Criterion micro-benchmarks (race detection
//!   scaling, simulator throughput, channel performance, attack costs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign_cli;
pub mod heatmap;

use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use uarch::{Machine, UarchConfig, UarchError};

/// A benign workload for overhead measurement: sums a `len`-word array with
/// a data-dependent branch (taken ~50%), modeling branchy integer code.
///
/// # Panics
///
/// Panics only if the internal program fails to assemble (it cannot).
#[must_use]
pub fn workload_array_sum(len: u64) -> Program {
    ProgramBuilder::new()
        .imm(Reg::R0, 0x1000) // base
        .imm(Reg::R1, len) // remaining
        .imm(Reg::R2, 0) // sum
        .label("loop")
        .expect("fresh label")
        .load(Reg::R3, Reg::R0, 0)
        .branch_if(Cond::Eq, Reg::R3, Reg::ZERO, "skip")
        .alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R3)
        .label("skip")
        .expect("fresh label")
        .alu_imm(AluOp::Add, Reg::R0, Reg::R0, 8)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch_if(Cond::Ne, Reg::R1, Reg::ZERO, "loop")
        .halt()
        .build()
        .expect("workload assembles")
}

/// A pointer-chasing workload (`len` dependent loads), modeling
/// memory-latency-bound code.
///
/// # Panics
///
/// Panics only if the internal program fails to assemble (it cannot).
#[must_use]
pub fn workload_pointer_chase(len: u64) -> Program {
    let mut b = ProgramBuilder::new().imm(Reg::R0, 0x1000);
    for _ in 0..len {
        b = b.load(Reg::R0, Reg::R0, 0);
    }
    b.halt().build().expect("workload assembles")
}

/// Prepares a machine with the workload's memory mapped and initialized.
///
/// # Errors
///
/// Propagates [`UarchError`] from memory setup.
fn prepare_workload_memory(m: &mut Machine, words: u64) -> Result<(), UarchError> {
    for i in 0..words {
        let addr = 0x1000 + i * 8;
        m.map_user_page(addr)?;
        // Pointer chase: each word points at the next (and 0 terminates
        // nothing — the chase length is bounded by the program).
        m.write_u64(addr, addr + 8)?;
    }
    m.map_user_page(0x1000 + words * 8)?;
    Ok(())
}

/// Runs a workload under a configuration and returns total cycles.
///
/// # Errors
///
/// Propagates [`UarchError`] from the run.
pub fn measure_cycles(cfg: &UarchConfig, program: &Program, words: u64) -> Result<u64, UarchError> {
    let mut m = Machine::new(cfg.clone());
    prepare_workload_memory(&mut m, words)?;
    Ok(m.run(program)?.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_to_completion() {
        let cfg = UarchConfig::default();
        let sum = measure_cycles(&cfg, &workload_array_sum(32), 64).unwrap();
        let chase = measure_cycles(&cfg, &workload_pointer_chase(16), 64).unwrap();
        assert!(sum > 0);
        assert!(chase > 0);
    }

    #[test]
    fn defenses_cost_cycles_in_the_expected_order() {
        // Insight 5: strategy ① (serialize everything) costs the most;
        // relaxed strategies cost less; predictor flushing is ~free for a
        // single-context workload.
        let words = 64;
        let p = workload_array_sum(48);
        let base = measure_cycles(&UarchConfig::default(), &p, words).unwrap();
        let s1 = measure_cycles(
            &UarchConfig::builder().no_speculative_loads(true).build(),
            &p,
            words,
        )
        .unwrap();
        let s2 = measure_cycles(&UarchConfig::builder().nda(true).build(), &p, words).unwrap();
        let s3 = measure_cycles(&UarchConfig::builder().stt(true).build(), &p, words).unwrap();
        let s4 = measure_cycles(
            &UarchConfig::builder()
                .flush_predictors_on_switch(true)
                .build(),
            &p,
            words,
        )
        .unwrap();
        assert!(s1 >= s2, "① {s1} should cost at least ② {s2}");
        assert!(s2 >= s3, "② {s2} should cost at least ③ (STT) {s3}");
        assert!(s1 > base, "strategy ① must slow the workload");
        assert_eq!(s4, base, "④ is free without context switches");
    }
}
