//! Spectre v4 (Speculative Store Bypass, Spectre-STL) — Figure 6: the
//! memory-disambiguation predictor lets a load bypass an older store whose
//! address is still unresolved, transiently reading *stale* data the store
//! should have overwritten.

use crate::common::{measure, PROBE_BASE, PROBE_STRIDE, SECRET};
use crate::graphs::fig6_disambiguation;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::Disambiguation};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::SecurityAnalysis;
use uarch::Machine;

/// The shared location X: holds the stale secret, about to be overwritten.
const LOCATION_X: u64 = 0x58_0000;

/// Cell holding X's address; flushed so the store's address resolves late.
const ADDR_CELL: u64 = 0x59_0000;

/// The value the (slow-addressed) store writes over the secret.
const NEW_VALUE: u64 = 0x11;

/// Victim sequence: overwrite X (via a slowly-computed pointer), then read
/// X and use the result. The disambiguation predictor lets the read bypass
/// the pending store.
///
/// `r2` = `&ADDR_CELL` (flushed), `r10` = X directly, `r11` = new value,
/// `r12` = new value (guard compare), `r3` = probe base.
fn program() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .load(Reg::R4, Reg::R2, 0) // slow: the store's address
        .store(Reg::R11, Reg::R4, 0) // store NEW to X, address pending
        .load(Reg::R6, Reg::R10, 0) // bypasses the store: reads stale SECRET
        .branch_if(Cond::Eq, Reg::R6, Reg::R12, "out") // replay guard
        .alu_imm(AluOp::Mul, Reg::R7, Reg::R6, PROBE_STRIDE)
        .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
        .load(Reg::R8, Reg::R7, 0)
        .label("out")?
        .halt()
        .build()?)
}

fn setup(m: &mut Machine) -> Result<(), AttackError> {
    m.map_user_page(LOCATION_X)?;
    m.map_user_page(ADDR_CELL)?;
    m.write_u64(LOCATION_X, SECRET)?; // the stale data
    m.write_u64(ADDR_CELL, LOCATION_X)?;
    // The victim touched X recently — the stale read hits in L1 fast
    // enough to beat the disambiguation resolution.
    m.touch(LOCATION_X)?;
    m.flush_line(ADDR_CELL)?;
    Ok(())
}

/// Spectre v4: speculative store bypass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV4;

impl Attack for SpectreV4 {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V4,
            cve: Some("CVE-2018-3639"),
            impact: "Speculative store bypass, read stale data in memory",
            authorization: "Store-load address dependency resolution",
            illegal_access: "Read stale data",
            point: AttackPoint::new(ArchitecturalMemory, Disambiguation, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig6_disambiguation()
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        setup(m)?;
        let p = program()?;
        m.set_reg(Reg::R2, ADDR_CELL);
        m.set_reg(Reg::R10, LOCATION_X);
        m.set_reg(Reg::R11, NEW_VALUE);
        m.set_reg(Reg::R12, NEW_VALUE);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &p, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::TraceEvent;
    use uarch::UarchConfig;

    #[test]
    fn v4_leaks_stale_data_on_baseline() {
        let out = SpectreV4.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
    }

    #[test]
    fn v4_architectural_result_is_the_new_value() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup(&mut m).unwrap();
        let p = program().unwrap();
        m.set_reg(Reg::R2, ADDR_CELL);
        m.set_reg(Reg::R10, LOCATION_X);
        m.set_reg(Reg::R11, NEW_VALUE);
        m.set_reg(Reg::R12, NEW_VALUE);
        m.set_reg(Reg::R3, PROBE_BASE);
        m.run(&p).unwrap();
        // After replay the load architecturally observes the store.
        assert_eq!(m.reg(Reg::R6), NEW_VALUE);
        assert_eq!(m.read_u64(LOCATION_X).unwrap(), NEW_VALUE);
        // And the machine recorded the bypass + the disambiguation squash.
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::DisambiguationBypass { .. })));
    }

    #[test]
    fn v4_blocked_by_ssb_disable() {
        let out = SpectreV4
            .run(&UarchConfig::builder().ssb_disable(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v4_blocked_by_ssbb_barrier_in_program() {
        // The ARM SSBB industry defense: a barrier between the store and
        // the load forbids the bypass.
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup(&mut m).unwrap();
        let p = ProgramBuilder::new()
            .load(Reg::R4, Reg::R2, 0)
            .store(Reg::R11, Reg::R4, 0)
            .fence(isa::FenceKind::Ssbb)
            .load(Reg::R6, Reg::R10, 0)
            .branch_if(Cond::Eq, Reg::R6, Reg::R12, "out")
            .alu_imm(AluOp::Mul, Reg::R7, Reg::R6, PROBE_STRIDE)
            .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
            .load(Reg::R8, Reg::R7, 0)
            .label("out")
            .unwrap()
            .halt()
            .build()
            .unwrap();
        m.set_reg(Reg::R2, ADDR_CELL);
        m.set_reg(Reg::R10, LOCATION_X);
        m.set_reg(Reg::R11, NEW_VALUE);
        m.set_reg(Reg::R12, NEW_VALUE);
        m.set_reg(Reg::R3, PROBE_BASE);
        let out = measure(&mut m, &p, SECRET, None).unwrap();
        assert!(!out.leaked, "SSBB must forbid the bypass: {out}");
    }

    #[test]
    fn v4_blocked_by_stt_and_nda() {
        for cfg in [
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().nda(true).build(),
        ] {
            let out = SpectreV4.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn v4_trains_the_disambiguation_predictor() {
        // After one aliasing mispredict, the predictor turns conservative
        // for that load pc: a second identical run does not bypass.
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup(&mut m).unwrap();
        let p = program().unwrap();
        for pass in 0..2 {
            m.write_u64(LOCATION_X, SECRET).unwrap();
            m.touch(LOCATION_X).unwrap();
            m.flush_line(ADDR_CELL).unwrap();
            m.set_reg(Reg::R2, ADDR_CELL);
            m.set_reg(Reg::R10, LOCATION_X);
            m.set_reg(Reg::R11, NEW_VALUE);
            m.set_reg(Reg::R12, NEW_VALUE);
            m.set_reg(Reg::R3, PROBE_BASE);
            m.clear_events();
            m.run(&p).unwrap();
            let bypassed = m
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::DisambiguationBypass { .. }));
            if pass == 0 {
                assert!(bypassed, "first pass speculates");
            } else {
                assert!(!bypassed, "predictor learned the alias");
            }
        }
    }
}
