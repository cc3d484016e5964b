//! Lazy FP — stale floating-point register leakage (Figure 5): on a lazy
//! FPU context switch, the first FP instruction of the new context faults
//! ("FPU owner check"), but transiently reads the *previous* context's
//! physical FP registers.

use crate::common::{measure, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig5_special_register;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::DelayedException};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{FReg, ProgramBuilder, Reg};
use tsg::SecretSource::Fpu;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Lazy FP state leakage.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyFp;

impl Attack for LazyFp {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::LAZY_FP,
            cve: Some("CVE-2018-3665"),
            impact: "Leak of FPU state",
            authorization: "FPU owner check",
            illegal_access: "Read stale FPU state",
            point: AttackPoint::new(Fpu, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig5_special_register("Permission Check", "Read from FPU", SecretSource::Fpu)
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        // The victim computes with the secret in f0…
        let victim = m.current_context();
        m.set_fpu_reg(victim, 0, SECRET);
        // …then the OS switches to the attacker. Under lazy switching the
        // physical FPU still holds the victim's registers.
        let attacker = m.add_context(Privilege::User, ExceptionBehavior::Halt);
        m.switch_context(attacker)?;

        // FPU owner check races with the read.
        let program = send_epilogue(ProgramBuilder::new().fpmov(Reg::R6, FReg::new(0)), "done")?;
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
    fn lazy_fp_leaks_on_baseline() {
        let out = LazyFp.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.transient_forwards >= 1);
    }

    #[test]
    fn blocked_by_eager_fpu_switch() {
        // The industry fix: save/restore FP state eagerly on every context
        // switch — there is no stale state to read.
        let out = LazyFp
            .run(&UarchConfig::builder().lazy_fpu(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_no_transient_forwarding() {
        let out = LazyFp
            .run(&UarchConfig::builder().transient_forwarding(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_nda() {
        let out = LazyFp
            .run(&UarchConfig::builder().nda(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn architectural_read_after_switch_sees_zero() {
        // After the #NM-style fault the FPU is switched eagerly and the
        // attacker's own (zero) registers are read architecturally.
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        let victim = m.current_context();
        m.set_fpu_reg(victim, 0, SECRET);
        let attacker = m.add_context(Privilege::User, ExceptionBehavior::Halt);
        m.switch_context(attacker).unwrap();
        let p = ProgramBuilder::new()
            .fpmov(Reg::R6, FReg::new(0))
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.reg(Reg::R6), 0);
    }
}
