//! Meltdown (Spectre v3) and the Rogue System Register Read variant
//! (Spectre v3a) — Figure 3 / Figure 5 of the paper: the authorization
//! (privilege check) and the access are micro-ops of the *same*
//! instruction.

use crate::common::{measure, send_epilogue, KERNEL_SECRET, PROBE_BASE, SECRET};
use crate::graphs::{fig4_faulting_load, fig5_special_register};
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::DelayedException};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Msr, Program, ProgramBuilder, Reg};
use tsg::SecretSource::{Memory, SpecialRegister};
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege, Switch};

/// The MSR number whose content Spectre v3a steals.
const TARGET_MSR: Msr = Msr(0x10);

/// Meltdown: an unprivileged load of kernel memory transiently forwards
/// the data before the page-privilege check (the delayed authorization)
/// squashes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Meltdown;

impl Meltdown {
    /// The Meltdown gadget of Listing 2: faulting kernel read, then
    /// transform and send. `r5` = kernel secret address, `r3` = probe
    /// base. The zero guard keeps the post-fault handler path from
    /// polluting the channel.
    ///
    /// # Errors
    ///
    /// [`AttackError::Isa`] if assembly fails (it cannot for this fixed
    /// gadget).
    pub fn program() -> Result<Program, AttackError> {
        // Authorize-and-access in one instruction, then use and send.
        send_epilogue(ProgramBuilder::new().load(Reg::R6, Reg::R5, 0), "done")
    }
}

impl Attack for Meltdown {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::MELTDOWN,
            cve: Some("CVE-2017-5754"),
            impact: "Kernel content leakage to unprivileged attacker",
            authorization: "Kernel privilege check",
            illegal_access: "Read from kernel memory",
            point: AttackPoint::new(Memory, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "Load Permission Check",
            "Read from Memory",
            SecretSource::Memory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.map_kernel_page(KERNEL_SECRET)?;
        // Plant the kernel secret. Under KPTI the page has no user-visible
        // PTE, so the secret lives in physical memory only — write it
        // through a temporary kernel mapping trick: the host accessor needs
        // a PTE, so plant before unmapping is not possible; instead plant
        // via a scratch identity mapping of the same frame.
        if m.switch(Switch::Kpti) {
            // Map temporarily, write, then restore the KPTI state (unmap).
            m.map_user_page(KERNEL_SECRET)?;
            m.write_u64(KERNEL_SECRET, SECRET)?;
            m.map_kernel_page(KERNEL_SECRET)?;
        } else {
            m.write_u64(KERNEL_SECRET, SECRET)?;
        }
        m.set_privilege(Privilege::User);
        let program = Meltdown::program()?;
        m.set_exception_behavior(ExceptionBehavior::Handler(
            program.label("done").expect("label exists"),
        ));
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &program, SECRET, None)
    }
}

/// Spectre v3a: rogue system register read — `rdmsr` at user privilege
/// transiently forwards the MSR value before its privilege check resolves.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV3a;

impl Attack for SpectreV3a {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V3A,
            cve: Some("CVE-2018-3640"),
            impact: "System register value leakage to unprivileged attacker",
            authorization: "RDMSR instruction privilege check",
            illegal_access: "Read system register",
            point: AttackPoint::new(SpecialRegister, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig5_special_register(
            "Permission Check",
            "Read from Special Register",
            SecretSource::SpecialRegister,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.set_msr(TARGET_MSR.0, SECRET);
        m.set_privilege(Privilege::User);
        // Authorize-and-access in one instruction, then use and send.
        let program = send_epilogue(ProgramBuilder::new().rdmsr(Reg::R6, TARGET_MSR), "done")?;
        m.set_exception_behavior(ExceptionBehavior::Handler(
            program.label("done").expect("label exists"),
        ));
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &program, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::UarchConfig;

    #[test]
    fn meltdown_leaks_on_baseline() {
        let out = Meltdown.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert!(out.transient_forwards >= 1);
        assert!(out.squashes >= 1, "the fault must squash the pipe");
    }

    #[test]
    fn meltdown_blocked_by_kpti() {
        let out = Meltdown
            .run(&UarchConfig::builder().kpti(true).build())
            .unwrap();
        assert!(!out.leaked, "KPTI removes the transient data path: {out}");
    }

    #[test]
    fn meltdown_blocked_by_eager_permission_check() {
        let out = Meltdown
            .run(&UarchConfig::builder().eager_permission_check(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn meltdown_blocked_by_no_transient_forwarding() {
        // The silicon fix: faulting loads return zeros.
        let cfg = UarchConfig::builder()
            .transient_forwarding(false)
            .mds_forwarding(false)
            .build();
        let out = Meltdown.run(&cfg).unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn meltdown_blocked_by_strategy2_and_3() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().invisible_spec(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
            UarchConfig::builder().delay_on_miss(true).build(),
        ] {
            let out = Meltdown.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn meltdown_fault_is_architecturally_raised() {
        let mut observed = false;
        let out = Meltdown.run(&UarchConfig::default()).unwrap();
        // finish() counts events; a cheap re-check: the attack still
        // recovered the secret *and* squashed at least once due to the
        // fault.
        if out.squashes > 0 {
            observed = true;
        }
        assert!(observed);
    }

    #[test]
    fn v3a_leaks_on_baseline() {
        let out = SpectreV3a.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
    }

    #[test]
    fn v3a_blocked_by_eager_check_or_no_forwarding() {
        for cfg in [
            UarchConfig::builder().eager_permission_check(true).build(),
            UarchConfig::builder()
                .transient_forwarding(false)
                .mds_forwarding(false)
                .build(),
        ] {
            let out = SpectreV3a.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn v3a_blocked_by_nda() {
        let out = SpectreV3a
            .run(&UarchConfig::builder().nda(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn meltdown_in_kernel_mode_is_legal_not_an_attack() {
        // Sanity: the same program run *with* privilege reads the value
        // architecturally and no fault occurs.
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.map_kernel_page(KERNEL_SECRET).unwrap();
        m.write_u64(KERNEL_SECRET, SECRET).unwrap();
        let p = Meltdown::program().unwrap();
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert!(r.faults.is_empty());
        assert_eq!(m.reg(Reg::R6), SECRET);
    }
}
