//! Spectre v2 — branch target injection (Figure 1 with an indirect
//! branch): the attacker mis-trains the shared BTB so the victim's indirect
//! jump transiently executes an attacker-chosen gadget.

use crate::common::{measure, probe_channel, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::IndirectBranch};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Victim-private page whose contents the gadget exfiltrates.
const VICTIM_SECRET: u64 = 0x50_0000;

/// Cell holding the indirect target (first hop of the slow chain).
const TARGET_PTR: u64 = 0x51_0000;

/// Second hop: the actual target value lives here.
const TARGET_CELL: u64 = 0x51_1000;

/// Attacker-owned dummy the gadget reads during training.
const ATTACKER_DUMMY: u64 = 0x52_0000;

/// Builds the victim binary. Layout (instruction indices matter — the BTB
/// is indexed by pc):
///
/// ```text
/// 0: load rA,[r9]   ; slow double-chase to the indirect target
/// 1: load r1,[rA]
/// 2: jmpi r1        ; the victim's indirect branch
/// 3: halt           ; legitimate target
/// 4: gadget: load r6,[r5] …send…  ; attacker-chosen target
/// ```
fn victim_binary() -> Result<Program, AttackError> {
    let b = ProgramBuilder::new()
        .load(Reg::R4, Reg::R9, 0)
        .load(Reg::R1, Reg::R4, 0)
        .jump_indirect(Reg::R1)
        .halt() // 3: legitimate target
        // 4: the gadget
        .load(Reg::R6, Reg::R5, 0);
    send_epilogue(b, "out")
}

/// The gadget's instruction index in [`victim_binary`].
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

/// Spectre v2: branch target injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV2;

impl Attack for SpectreV2 {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V2,
            cve: Some("CVE-2017-5715"),
            impact: "Branch target injection",
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
        let binary = victim_binary()?;
        // (The current context is the attacker.)
        let victim = m.add_context(Privilege::User, ExceptionBehavior::Halt);

        // --- Training (attacker context): the attacker executes the same
        // binary with the indirect target aimed at the gadget, and the
        // gadget reading the attacker's own dummy. The shared, untagged BTB
        // learns pc 2 → gadget.
        m.write_u64(TARGET_CELL, GADGET_PC)?;
        for _ in 0..3 {
            m.set_reg(Reg::R9, TARGET_PTR);
            m.set_reg(Reg::R5, ATTACKER_DUMMY);
            m.set_reg(Reg::R3, PROBE_BASE);
            m.run(&binary)?;
        }

        // The receiver (attacker) re-arms the channel before yielding.
        probe_channel().rearm(m)?;
        let attacker = m.current_context();

        // --- Victim run: the OS switches to the victim (strategy-④
        // defenses act here). The legitimate target is restored but its
        // resolution is slow (flushed chain); the poisoned BTB redirects
        // fetch to the gadget, which now reads the *victim's* secret.
        m.switch_context(victim)?;
        m.write_u64(TARGET_CELL, BENIGN_PC)?;
        m.flush_line(TARGET_PTR)?;
        m.flush_line(TARGET_CELL)?;
        // The victim touched its secret recently (it is its working data).
        m.touch(VICTIM_SECRET)?;
        m.set_reg(Reg::R9, TARGET_PTR);
        m.set_reg(Reg::R5, VICTIM_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);

        // --- Back to the attacker, who reloads and times (step 5).
        measure(m, &binary, SECRET, Some(attacker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::UarchConfig;

    #[test]
    fn v2_leaks_on_baseline() {
        let out = SpectreV2.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.squashes >= 1);
    }

    #[test]
    fn v2_blocked_by_predictor_flush_on_switch() {
        // Strategy ④ (IBPB / predictor invalidation on context switch).
        let out = SpectreV2
            .run(
                &UarchConfig::builder()
                    .flush_predictors_on_switch(true)
                    .build(),
            )
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v2_blocked_by_retpoline_effect() {
        // No BTB prediction: fetch stalls until the target resolves.
        let out = SpectreV2
            .run(&UarchConfig::builder().no_indirect_prediction(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
        assert_eq!(out.squashes, 0, "no transient path is ever fetched");
    }

    #[test]
    fn v2_blocked_by_strategy_2_and_3() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().invisible_spec(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
        ] {
            let out = SpectreV2.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }

    #[test]
    fn v2_architecturally_jumps_to_benign_target() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup_memory(&mut m).unwrap();
        let binary = victim_binary().unwrap();
        m.write_u64(TARGET_CELL, BENIGN_PC).unwrap();
        m.set_reg(Reg::R9, TARGET_PTR);
        m.set_reg(Reg::R5, VICTIM_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        let r = m.run(&binary).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R6), 0, "gadget never ran architecturally");
    }
}
