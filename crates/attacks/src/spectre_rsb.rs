//! Spectre-RSB — return address mis-prediction (Figure 1 with the return
//! stack buffer as the mis-trained predictor): the attacker leaves stale
//! entries in the shared RSB; the victim's `ret` transiently "returns" into
//! an attacker-chosen gadget.

use crate::common::{measure, probe_channel, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::ReturnAddress};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Victim-private secret page.
const VICTIM_SECRET: u64 = 0x5A_0000;

/// Cell whose (flushed) load delays the victim's return resolution.
const DELAY_CELL: u64 = 0x5B_0000;

/// The victim binary. The gadget sits at index 3 — the value the attacker
/// plants in the RSB.
///
/// ```text
/// 0: load r4,[r2]  ; slow — the ret below resolves only at ROB head
/// 1: ret           ; no matching call: predicts from the polluted RSB
/// 2: halt
/// 3: gadget: load r6,[r5] …send…
/// ```
fn victim_binary() -> Result<Program, AttackError> {
    let b = ProgramBuilder::new()
        .load(Reg::R4, Reg::R2, 0)
        .ret()
        .halt()
        // 3: the gadget
        .load(Reg::R6, Reg::R5, 0);
    send_epilogue(b, "out")
}

/// The gadget's index in [`victim_binary`]; the attacker's `call` sits at
/// index 2 of its own binary so the pushed return address equals this.
#[cfg(test)]
const GADGET_PC: usize = 3;

/// The attacker binary: a call at pc `GADGET_PC - 1` pushes `GADGET_PC`
/// onto the RSB and never returns, leaving the entry stale.
fn attacker_binary() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .nop() // 0
        .nop() // 1
        .call("f") // 2: pushes return address 3 == GADGET_PC
        .halt() // 3 (never reached in the attacker binary)
        .label("f")?
        .halt() // 4: the callee exits without `ret`
        .build()?)
}

/// Spectre-RSB: return mis-prediction into an attacker gadget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreRsb;

impl Attack for SpectreRsb {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_RSB,
            cve: Some("CVE-2018-15572"),
            impact: "Return mis-predict, execute wrong code",
            authorization: "Return target resolution",
            illegal_access: "Execute code not intended to be executed",
            point: AttackPoint::new(ArchitecturalMemory, ReturnAddress, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Return target resolution",
            "Load S (gadget)",
            SecretSource::ArchitecturalMemory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.map_user_page(VICTIM_SECRET)?;
        m.map_user_page(DELAY_CELL)?;
        m.write_u64(VICTIM_SECRET, SECRET)?;
        let victim_ctx = m.add_context(Privilege::User, ExceptionBehavior::Halt);

        // --- Attacker pollutes the RSB, re-arms the channel, yields.
        m.run(&attacker_binary()?)?;
        probe_channel().rearm(m)?;
        let attacker = m.current_context();

        // --- Context switch to the victim (strategy-④ defenses and RSB
        // stuffing act here).
        m.switch_context(victim_ctx)?;
        m.flush_line(DELAY_CELL)?;
        m.touch(VICTIM_SECRET)?; // the victim's own working data
        m.set_reg(Reg::R2, DELAY_CELL);
        m.set_reg(Reg::R5, VICTIM_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);

        // --- Back to the attacker, who reloads and times (step 5).
        measure(m, &victim_binary()?, SECRET, Some(attacker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::UarchConfig;

    #[test]
    fn rsb_attack_leaks_on_baseline() {
        let out = SpectreRsb.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
    }

    #[test]
    fn attacker_binary_plants_gadget_pc() {
        let p = attacker_binary().unwrap();
        // The call sits at index 2, so its pushed return address is 3.
        match p[2] {
            isa::Instruction::Call { target } => assert_eq!(target, 4),
            ref other => panic!("unexpected {other}"),
        }
        assert_eq!(GADGET_PC, 3);
    }

    #[test]
    fn blocked_by_rsb_stuffing() {
        let out = SpectreRsb
            .run(&UarchConfig::builder().rsb_stuffing(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_predictor_flush() {
        let out = SpectreRsb
            .run(
                &UarchConfig::builder()
                    .flush_predictors_on_switch(true)
                    .build(),
            )
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_strategy_2_and_3() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
        ] {
            let out = SpectreRsb.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }
}
