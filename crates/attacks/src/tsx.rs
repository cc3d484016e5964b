//! TSX-based attacks — TAA (TSX Asynchronous Abort) and CacheOut: a fault
//! inside a transaction never raises architecturally; the abort plays the
//! role of the delayed authorization, and the in-flight transient window
//! samples the L1 (TAA) or the line fill buffer (CacheOut).

use crate::common::{measure, KERNEL_SECRET, PROBE_BASE, PROBE_STRIDE, SECRET, UNMAPPED};
use crate::graphs::fig4_faulting_load;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::TransactionAbort};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use tsg::SecretSource::{Cache, LineFillBuffer};
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{Machine, Privilege, Switch};

/// The transactional sampling gadget: fault inside the transaction, use and
/// send before the asynchronous abort completes.
fn tx_program() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .tx_begin()
        .load(Reg::R6, Reg::R5, 0) // faults; abort is asynchronous
        .branch_if(Cond::Eq, Reg::R6, Reg::ZERO, "inside_done")
        .alu_imm(AluOp::Mul, Reg::R7, Reg::R6, PROBE_STRIDE)
        .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
        .load(Reg::R8, Reg::R7, 0) // send, still inside the transaction
        .label("inside_done")?
        .tx_end()
        .halt() // abort fallback lands here (after TxEnd)
        .build()?)
}

/// TAA — TSX Asynchronous Abort: reads a privileged, L1-resident secret
/// inside a transaction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Taa;

impl Attack for Taa {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::TAA,
            cve: Some("CVE-2019-11135"),
            impact: "Transactional sampling of L1/store/load buffers",
            authorization: "TSX Asynchronous Abort Completion",
            illegal_access: "Load data from L1D cache, store or load buffers",
            point: AttackPoint::new(Cache, TransactionAbort, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "TSX Asynchronous Abort Completion",
            "Read from Cache",
            SecretSource::Cache,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.map_kernel_page(KERNEL_SECRET)?;
        if m.switch(Switch::Kpti) {
            m.map_user_page(KERNEL_SECRET)?;
            m.write_u64(KERNEL_SECRET, SECRET)?;
            m.touch(KERNEL_SECRET)?;
            m.map_kernel_page(KERNEL_SECRET)?;
        } else {
            m.write_u64(KERNEL_SECRET, SECRET)?;
            m.touch(KERNEL_SECRET)?; // the secret is L1-resident
        }
        m.set_privilege(Privilege::User);
        let p = tx_program()?;
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &p, SECRET, None)
    }
}

/// CacheOut — transactional sampling of the **line fill buffer** after the
/// victim's data transited it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheOut;

impl Attack for CacheOut {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::CACHEOUT,
            cve: Some("CVE-2020-0549"),
            impact: "Leak data via cache evictions through the fill buffer",
            authorization: "TSX Asynchronous Abort Completion",
            illegal_access: "Forward data from fill buffer",
            point: AttackPoint::new(LineFillBuffer, TransactionAbort, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "TSX Asynchronous Abort Completion",
            "Read from line fill buffer",
            SecretSource::LineFillBuffer,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.clear_leaky_buffers();
        // The victim's secret transits the LFB (evicted then re-read, as in
        // the CacheOut eviction trick; here: a missing load pulls it
        // through the fill buffer).
        m.map_kernel_page(KERNEL_SECRET)?;
        m.write_u64(KERNEL_SECRET, SECRET)?;
        let victim = ProgramBuilder::new()
            .load(Reg::R1, Reg::R0, 0)
            .halt()
            .build()?;
        m.set_reg(Reg::R0, KERNEL_SECRET);
        m.run(&victim)?;

        // Attacker: transactional faulting load at an unmapped address.
        m.set_privilege(Privilege::User);
        let p = tx_program()?;
        m.set_reg(Reg::R5, UNMAPPED);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &p, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::{TraceEvent, UarchConfig};

    #[test]
    fn taa_leaks_and_suppresses_the_fault() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.map_kernel_page(KERNEL_SECRET).unwrap();
        m.write_u64(KERNEL_SECRET, SECRET).unwrap();
        m.touch(KERNEL_SECRET).unwrap();
        m.set_privilege(Privilege::User);
        let p = tx_program().unwrap();
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        let out = measure(&mut m, &p, SECRET, None).unwrap();
        assert!(out.leaked, "{out}");
        let aborts = m
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TxAborted { .. }))
            .count();
        assert_eq!(aborts, 1, "the fault must abort the transaction");
        assert!(
            !m.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::FaultRaised { .. })),
            "the fault is suppressed, not raised"
        );
    }

    #[test]
    fn taa_via_public_api() {
        let out = Taa.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn cacheout_leaks_via_lfb() {
        let out = CacheOut.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn taa_blocked_by_hardening() {
        for cfg in [
            UarchConfig::builder()
                .transient_forwarding(false)
                .mds_forwarding(false)
                .build(),
            UarchConfig::builder().eager_permission_check(true).build(),
            UarchConfig::builder().nda(true).build(),
        ] {
            let out = Taa.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn cacheout_blocked_by_mds_fix() {
        let out = CacheOut
            .run(&UarchConfig::builder().mds_forwarding(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }
}
