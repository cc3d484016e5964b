//! BHI — Branch History Injection (CVE-2022-0001): cross-privilege
//! history aliasing on the indirect-branch predictor, *without* any RSB
//! underflow. The attacker runs in the same context as the victim branch
//! (the real-world shape: unprivileged syscall/eBPF-reachable code
//! steering an in-kernel indirect branch), so the shared branch history
//! it poisons is **not** cleared by context-switch barriers — eIBRS/IBPB
//! flush predictor state *between* contexts, and there is no switch
//! between training and victim here.
//!
//! That makes BHI the predictor-flavor discriminator the stack-cover
//! search needs:
//!
//! * flush-on-switch (IBPB/IBRS/STIBP, strategy ④) does **not** block it
//!   — unlike Spectre v2, where training crosses a switch;
//! * RSB stuffing is irrelevant — unlike Retbleed, no return and no
//!   underflow is involved;
//! * retpoline-style prediction avoidance (`no_indirect_prediction`)
//!   blocks it, as do the strategy-①/②/③ data-path defenses.
//!
//! The graph is the same Figure-1 shape as Spectre v2: the authorization
//! is the indirect branch's target resolution.

use crate::common::{measure, probe_channel, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::IndirectBranch};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::Machine;

/// Victim-private page whose contents the gadget exfiltrates.
const VICTIM_SECRET: u64 = 0x60_0000;

/// Cell holding the indirect target (first hop of the slow chain).
const TARGET_PTR: u64 = 0x61_0000;

/// Second hop: the actual target value lives here.
const TARGET_CELL: u64 = 0x61_1000;

/// Attacker-readable dummy the gadget reads during history training.
const ATTACKER_DUMMY: u64 = 0x62_0000;

/// The shared victim/attacker binary (BHI steers an *existing* in-kernel
/// branch, so training executes the very same code):
///
/// ```text
/// 0: load rA,[r9]   ; slow double-chase to the indirect target
/// 1: load r1,[rA]
/// 2: jmpi r1        ; the steered indirect branch
/// 3: halt           ; legitimate target
/// 4: gadget: load r6,[r5] …send…  ; history-aliased target
/// ```
fn binary() -> Result<Program, AttackError> {
    let b = ProgramBuilder::new()
        .load(Reg::R4, Reg::R9, 0)
        .load(Reg::R1, Reg::R4, 0)
        .jump_indirect(Reg::R1)
        .halt() // 3: legitimate target
        // 4: the gadget
        .load(Reg::R6, Reg::R5, 0);
    send_epilogue(b, "out")
}

/// The gadget's instruction index in [`binary`].
const GADGET_PC: u64 = 4;

/// The legitimate target's index.
const BENIGN_PC: u64 = 3;

fn setup_memory(m: &mut Machine) -> Result<(), AttackError> {
    m.map_user_page(VICTIM_SECRET)?;
    m.map_user_page(TARGET_PTR)?;
    m.map_user_page(TARGET_CELL)?;
    m.map_user_page(ATTACKER_DUMMY)?;
    m.write_u64(TARGET_PTR, TARGET_CELL)?;
    m.write_u64(VICTIM_SECRET, SECRET)?;
    // Non-zero dummy so training does not mis-train the zero guard.
    m.write_u64(ATTACKER_DUMMY, 1)?;
    Ok(())
}

/// BHI: same-context branch history injection (no RSB involvement).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bhi;

impl Attack for Bhi {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::BHI,
            cve: Some("CVE-2022-0001"),
            impact: "Intra-mode branch history injection",
            authorization: "Indirect branch target resolution",
            illegal_access: "Execute code not intended to be executed",
            point: AttackPoint::new(ArchitecturalMemory, IndirectBranch, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Indirect branch target resolution",
            "Load S (gadget)",
            SecretSource::ArchitecturalMemory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        setup_memory(m)?;
        let binary = binary()?;

        // --- History training: attacker-reachable code drives the *same*
        // indirect branch at the gadget, in the *same* context as the
        // victim run below. No context switch follows, so strategy-④
        // flush-on-switch barriers never fire — the BHI discriminator.
        m.write_u64(TARGET_CELL, GADGET_PC)?;
        for _ in 0..3 {
            m.set_reg(Reg::R9, TARGET_PTR);
            m.set_reg(Reg::R5, ATTACKER_DUMMY);
            m.set_reg(Reg::R3, PROBE_BASE);
            m.run(&binary)?;
        }

        // The receiver re-arms the channel after training.
        probe_channel().rearm(m)?;

        // --- Victim invocation (still the same context): the legitimate
        // target is restored but resolves slowly (flushed chain); the
        // poisoned history steers fetch into the gadget, which now reads
        // the victim's secret.
        m.write_u64(TARGET_CELL, BENIGN_PC)?;
        m.flush_line(TARGET_PTR)?;
        m.flush_line(TARGET_CELL)?;
        m.touch(VICTIM_SECRET)?; // the victim's own working data
        m.set_reg(Reg::R9, TARGET_PTR);
        m.set_reg(Reg::R5, VICTIM_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);

        // --- The attacker reloads and times (step 5); no switch needed.
        measure(m, &binary, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::UarchConfig;

    #[test]
    fn bhi_leaks_on_baseline() {
        let out = Bhi.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.squashes >= 1, "the steered branch must squash");
    }

    #[test]
    fn flush_on_switch_is_not_enough() {
        // The discriminator: IBPB-style barriers act on context switches,
        // and BHI's training and victim run share one context — the reason
        // eIBRS machines still needed retpoline-style fixes.
        let out = Bhi
            .run(
                &UarchConfig::builder()
                    .flush_predictors_on_switch(true)
                    .build(),
            )
            .unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn rsb_stuffing_is_irrelevant() {
        // No return, no underflow: the RSB never participates.
        let out = Bhi
            .run(&UarchConfig::builder().rsb_stuffing(true).build())
            .unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_retpoline_effect() {
        // No BTB/history prediction for indirect branches: fetch stalls
        // until the target resolves.
        let out = Bhi
            .run(&UarchConfig::builder().no_indirect_prediction(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
        assert_eq!(out.squashes, 0, "no transient path is ever fetched");
    }

    #[test]
    fn blocked_by_data_path_strategies() {
        for cfg in [
            UarchConfig::builder().no_speculative_loads(true).build(),
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
        ] {
            let out = Bhi.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn architecturally_jumps_to_benign_target() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup_memory(&mut m).unwrap();
        let binary = binary().unwrap();
        m.write_u64(TARGET_CELL, BENIGN_PC).unwrap();
        m.set_reg(Reg::R9, TARGET_PTR);
        m.set_reg(Reg::R5, VICTIM_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        let r = m.run(&binary).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R6), 0, "gadget never ran architecturally");
    }
}
