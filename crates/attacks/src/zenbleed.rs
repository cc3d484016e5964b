//! Zenbleed (CVE-2023-20593) — stale vector-register leakage in the shadow
//! of a mispredicted branch.
//!
//! On affected Zen 2 cores, a `vzeroupper` executed speculatively and then
//! rolled back leaves the physical upper-ymm halves marked free while the
//! register file still holds another sibling's data; the next consumer
//! reads a stale value. In this model the analog is the lazy-FPU register
//! file: the victim's FP state is still physically resident while the
//! attacker runs, and an `fpmov` placed behind a slow-resolving,
//! mistrained branch reads it *transiently* — a Figure-1-shaped graph
//! (branch-resolution authorization) over a Figure-5 secret source
//! (stale FPU registers).
//!
//! Unlike [`crate::lazy_fp::LazyFp`], the faulting read never retires:
//! the branch squash both hides the fault *and* provides the window, which
//! is what lets the attack be replayed indefinitely without tripping the
//! eager #NM-handler switch.

use crate::common::{
    measure, probe_channel, send_epilogue, BOUND_CELL, BOUND_PTR, PROBE_BASE, SECRET,
};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::ConditionalBranch};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Cond, FReg, Program, ProgramBuilder, Reg};
use tsg::SecretSource::Fpu;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Zenbleed: use-after-free of a physical vector register.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZenBleed;

/// The "feature flag" value stored at [`BOUND_CELL`]; trigger values below
/// it fall through into the gadget (the training direction), values at or
/// above it resolve the branch taken (the attack direction).
const FLAG: u64 = 1;

/// Trigger value used by the attack run: `TRIGGER >= FLAG`, so the branch
/// architecturally skips the gadget — it only ever runs transiently.
const TRIGGER: u64 = 8;

impl ZenBleed {
    /// The attacker's own gadget. Register conventions: `r0` — trigger,
    /// `r2` — `&flag_ptr` (two flushed hops: the speculation window),
    /// `r3` — probe array base.
    ///
    /// # Errors
    ///
    /// [`AttackError::Isa`] if assembly fails (it cannot for this fixed
    /// program).
    pub fn program() -> Result<Program, AttackError> {
        let b = ProgramBuilder::new()
            .load(Reg::R4, Reg::R2, 0) // flag_ptr -> &flag (miss)
            .load(Reg::R4, Reg::R4, 0) // &flag -> flag     (miss)
            .branch_if(Cond::Ge, Reg::R0, Reg::R4, "out") // rollback point
            .fpmov(Reg::R6, FReg::new(0)); // read stale physical FP state
        send_epilogue(b, "out")
    }
}

impl Attack for ZenBleed {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::ZENBLEED,
            cve: Some("CVE-2023-20593"),
            impact: "Leak of stale vector-register state",
            authorization: "Branch resolution: vzeroupper rollback",
            illegal_access: "Read stale FP/SIMD register",
            point: AttackPoint::new(Fpu, ConditionalBranch, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Branch resolution: vzeroupper rollback",
            "Read stale FP register",
            SecretSource::Fpu,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.map_user_page(BOUND_PTR)?;
        m.write_u64(BOUND_PTR, BOUND_CELL)?;
        m.write_u64(BOUND_CELL, FLAG)?;
        let program = Self::program()?;

        // Step 1: the attacker trains its own branch not-taken. It still
        // owns the FPU, so the gadget's fpmov reads the attacker's own
        // (zero) f0 and the zero-guard keeps the channel clean.
        for _ in 0..4 {
            m.set_reg(Reg::R0, 0);
            m.set_reg(Reg::R2, BOUND_PTR);
            m.set_reg(Reg::R3, PROBE_BASE);
            m.run(&program)?;
        }

        // Step 2: the victim computes with the secret in f0. Writing FP
        // state switches the physical FPU to the victim; under lazy
        // switching the attacker's next run leaves it resident — the
        // use-after-free window.
        let victim = m.add_context(Privilege::User, ExceptionBehavior::Halt);
        m.set_fpu_reg(victim, 0, SECRET);

        // Step 3: flush the flag chain (delay the branch resolution), pass
        // a trigger that resolves the branch taken, and run. The fpmov
        // executes only in the mispredicted shadow: the stale read forwards
        // and is sent before the squash.
        m.flush_line(BOUND_PTR)?;
        m.flush_line(BOUND_CELL)?;
        probe_channel().rearm(m)?;
        m.set_reg(Reg::R0, TRIGGER);
        m.set_reg(Reg::R2, BOUND_PTR);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &program, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::UarchConfig;

    #[test]
    fn zenbleed_leaks_on_baseline() {
        let out = ZenBleed.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.transient_forwards >= 1);
        assert!(out.squashes >= 1);
    }

    #[test]
    fn fault_never_retires() {
        // The branch squash hides the #NM fault: the run reports no
        // architectural faults at all (contrast with Lazy FP, whose
        // faulting fpmov retires and triggers the eager handler switch).
        let mut m = crate::common::machine_with_channel(&UarchConfig::default()).unwrap();
        let out = ZenBleed.run_in(&mut m).unwrap();
        assert!(out.leaked, "{out}");
        // The attacker still does not own the FPU: no handler ran.
        assert!(!m.fpu().owned_by(m.current_context()));
    }

    #[test]
    fn blocked_by_eager_fpu_switch() {
        let out = ZenBleed
            .run(&UarchConfig::builder().lazy_fpu(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_no_transient_forwarding() {
        let out = ZenBleed
            .run(&UarchConfig::builder().transient_forwarding(false).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_data_use_defenses() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
        ] {
            let out = ZenBleed.run(&cfg).unwrap();
            assert!(!out.leaked, "{cfg:?}");
        }
    }

    #[test]
    fn graph_names_the_fpu_source() {
        let sa = ZenBleed.graph();
        assert!(sa.graph().find_by_label("Read stale FP register").is_some());
    }
}
