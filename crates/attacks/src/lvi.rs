//! Load Value Injection (LVI) — the *inverted* MDS attack of Figure 7: the
//! attacker plants a malicious value `M` in the leaky buffers; the
//! **victim's** faulting load transiently consumes `M`, diverting the
//! victim's own dataflow so that the victim leaks its own secret to the
//! attacker's channel.

use crate::common::{
    measure, send_epilogue, KERNEL_SECRET, PROBE_BASE, SECRET, UNMAPPED, USER_SCRATCH,
};
use crate::graphs::fig7_lvi;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::DelayedException};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{AluOp, Cond, ProgramBuilder, Reg};
use tsg::SecretSource::StoreBuffer;
use tsg::SecurityAnalysis;
use uarch::{ExceptionBehavior, Machine, Privilege};

/// The index the attacker injects: it steers the victim's table lookup to
/// the secret's slot.
const MALICIOUS_INDEX: u64 = 5;

/// Page offset shared by the attacker's planting store and the victim's
/// faulting load (the store-buffer partial-address match).
const PLANT_OFFSET: u64 = 0x3C0;

/// Load Value Injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lvi;

impl Attack for Lvi {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::LVI,
            cve: Some("CVE-2020-0551"),
            impact: "Transient injection hijacks victim dataflow",
            authorization: "Load fault check",
            illegal_access: "Forward data from micro-architectural buffers",
            point: AttackPoint::new(StoreBuffer, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig7_lvi()
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.clear_leaky_buffers();

        // Victim-side data: a table whose slot MALICIOUS_INDEX holds the
        // secret the attacker wants.
        m.map_kernel_page(KERNEL_SECRET)?;
        m.write_u64(KERNEL_SECRET + MALICIOUS_INDEX * 8, SECRET)?;
        // The victim's table is its working data, resident in L1 — the
        // two-level transient gadget (index → table → send) must fit in the
        // window opened by the delayed fault.
        m.touch(KERNEL_SECRET + MALICIOUS_INDEX * 8)?;

        // Step 1: the attacker plants M in the store buffer with the page
        // offset the victim's faulting load will use.
        m.map_user_page(USER_SCRATCH)?;
        m.set_privilege(Privilege::User);
        let plant = ProgramBuilder::new()
            .store(Reg::R1, Reg::R0, 0)
            .halt()
            .build()?;
        m.set_reg(Reg::R0, USER_SCRATCH + PLANT_OFFSET);
        m.set_reg(Reg::R1, MALICIOUS_INDEX);
        m.run(&plant)?;

        // Step 2: the *victim* (kernel) runs a gadget containing a faulting
        // load (e.g. a lazily-unmapped page). The injected M replaces the
        // loaded index; the victim then indexes its own table and touches a
        // probe line — becoming a confused-deputy sender.
        m.set_privilege(Privilege::Kernel);
        let b = ProgramBuilder::new()
            .load(Reg::R6, Reg::R5, 0) // faulting load: consumes injected M
            .branch_if(Cond::Eq, Reg::R6, Reg::ZERO, "done")
            .alu_imm(AluOp::Shl, Reg::R6, Reg::R6, 3)
            .alu(AluOp::Add, Reg::R6, Reg::R6, Reg::R4) // &table[M]
            .load(Reg::R6, Reg::R6, 0); // Load S: the victim's secret
        let victim = send_epilogue(b, "done")?;
        m.set_exception_behavior(ExceptionBehavior::Handler(
            victim.label("done").expect("label exists"),
        ));
        m.set_reg(Reg::R5, UNMAPPED + PLANT_OFFSET); // the faulting address
        m.set_reg(Reg::R4, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &victim, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::UarchConfig;
    use uarch::{TraceEvent, TransientSource};

    #[test]
    fn lvi_injects_and_leaks_victim_secret() {
        let out = Lvi.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
    }

    #[test]
    fn injection_comes_from_store_buffer() {
        // Run with a probe on events: the faulting load must forward the
        // *attacker's index*, not the secret, from the store buffer.
        let mut observed = false;
        let cfg = UarchConfig::default();
        // Re-run and inspect via a custom harness replicating run();
        // simplest: run the attack and verify it both leaked and recorded a
        // StoreBuffer forward of MALICIOUS_INDEX.
        let mut m = machine_with_channel(&cfg).unwrap();
        m.clear_leaky_buffers();
        m.map_kernel_page(KERNEL_SECRET).unwrap();
        m.write_u64(KERNEL_SECRET + MALICIOUS_INDEX * 8, SECRET)
            .unwrap();
        m.map_user_page(USER_SCRATCH).unwrap();
        m.set_privilege(Privilege::User);
        let plant = ProgramBuilder::new()
            .store(Reg::R1, Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        m.set_reg(Reg::R0, USER_SCRATCH + PLANT_OFFSET);
        m.set_reg(Reg::R1, MALICIOUS_INDEX);
        m.run(&plant).unwrap();
        m.set_privilege(Privilege::Kernel);
        let victim = ProgramBuilder::new()
            .load(Reg::R6, Reg::R5, 0)
            .halt()
            .build()
            .unwrap();
        m.set_exception_behavior(ExceptionBehavior::Handler(1));
        m.set_reg(Reg::R5, UNMAPPED + PLANT_OFFSET);
        m.clear_events();
        m.run(&victim).unwrap();
        for e in m.events() {
            if let TraceEvent::TransientForward { source, value, .. } = e {
                if *source == TransientSource::StoreBuffer && *value == MALICIOUS_INDEX {
                    observed = true;
                }
            }
        }
        assert!(observed, "victim's faulting load must consume injected M");
    }

    #[test]
    fn blocked_by_mds_fix_or_buffer_clearing() {
        let out = Lvi
            .run(&UarchConfig::builder().mds_forwarding(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_nda_and_stt() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
        ] {
            let out = Lvi.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }
}
