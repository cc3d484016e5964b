//! Retbleed — BTB-fallback return target injection (CVE-2022-29901):
//! when the return stack buffer underflows, the front-end predicts the
//! `ret` like an ordinary indirect branch, from the *untagged, shared*
//! branch target buffer. The attacker therefore trains the BTB at the
//! victim return's pc (BHI-style cross-context history aliasing) and the
//! victim's return transiently "returns" into an attacker-chosen gadget —
//! Spectre v2 reach through an instruction every mitigation list treated
//! as covered by RSB stuffing alone.
//!
//! The variant post-dates the paper, but its graph is the same Figure-1
//! shape: the authorization is the return target resolution; the
//! predictor-flavor knob of the campaign grid decides the verdict.
//! A shared BTB leaks; flush-on-switch and retpoline-style prediction
//! avoidance block; RSB *stuffing* — sufficient for Spectre-RSB — does
//! **not**: the transient path drains the stuffed entries and still
//! reaches the BTB fallback, mirroring why the real-world fix was
//! retpoline-on-ret/IBPB rather than stuffing.

use crate::common::{measure, probe_channel, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::ReturnAddress};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Victim-private secret page.
const VICTIM_SECRET: u64 = 0x5C_0000;

/// Cell whose (flushed) load delays the victim's return resolution.
const DELAY_CELL: u64 = 0x5D_0000;

/// The victim binary. Its RSB is *empty* at the `ret` (no matching call,
/// and — unlike Spectre-RSB — the attacker leaves no stale entries), so
/// prediction falls back to the BTB the attacker poisoned.
///
/// ```text
/// 0: load r4,[r2]  ; slow — the ret below resolves only at ROB head
/// 1: ret           ; RSB underflow: predicts from the shared BTB
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

/// The victim `ret`'s instruction index — the BTB slot the attacker trains.
#[cfg(test)]
const RET_PC: usize = 1;

/// The gadget's index in [`victim_binary`] — the trained target.
const GADGET_PC: u64 = 3;

/// The attacker binary: an indirect jump at the *same pc* as the victim's
/// `ret`, aimed at the gadget. Resolving it writes the untagged BTB entry
/// `RET_PC → GADGET_PC` that the victim's underflowed return will consume.
///
/// ```text
/// 0: imm  r1, GADGET_PC
/// 1: jmpi r1           ; trains BTB[1] = 3
/// 2: halt
/// 3: halt              ; the jump target inside the attacker binary
/// ```
fn attacker_binary() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .imm(Reg::R1, GADGET_PC)
        .jump_indirect(Reg::R1)
        .halt()
        .halt()
        .build()?)
}

/// Retbleed: return target injection via the BTB fallback on RSB underflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Retbleed;

impl Attack for Retbleed {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::RETBLEED,
            cve: Some("CVE-2022-29901"),
            impact: "Return target injection via BTB fallback",
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

        // --- Attacker trains the BTB at the victim return's pc (no calls,
        // so the RSB stays empty), re-arms the channel, and yields.
        for _ in 0..3 {
            m.run(&attacker_binary()?)?;
        }
        probe_channel().rearm(m)?;
        let attacker = m.current_context();

        // --- Context switch to the victim (strategy-④ flushing and RSB
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
    fn retbleed_leaks_on_baseline() {
        let out = Retbleed.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.squashes >= 1, "the poisoned return must squash");
    }

    #[test]
    fn attacker_trains_the_ret_slot() {
        let p = attacker_binary().unwrap();
        match p[RET_PC] {
            isa::Instruction::JumpIndirect { .. } => {}
            ref other => panic!("unexpected {other}"),
        }
        match victim_binary().unwrap()[RET_PC] {
            isa::Instruction::Ret => {}
            ref other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn blocked_by_predictor_flush_on_switch() {
        // Strategy ④: the poisoned BTB entry does not survive the switch.
        let out = Retbleed
            .run(
                &UarchConfig::builder()
                    .flush_predictors_on_switch(true)
                    .build(),
            )
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_retpoline_effect() {
        // No BTB fallback: the underflowed return stalls until it resolves.
        let out = Retbleed
            .run(&UarchConfig::builder().no_indirect_prediction(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn rsb_stuffing_is_not_enough() {
        // The mitigation that stopped Spectre-RSB does *not* stop Retbleed:
        // the stuffed benign entries send the return into a transient loop
        // that pops one entry per iteration, drains the RSB inside the
        // resolution window, and then falls back to the poisoned BTB — the
        // reason the real-world fix was retpoline-on-ret/IBPB, not
        // stuffing.
        let out = Retbleed
            .run(&UarchConfig::builder().rsb_stuffing(true).build())
            .unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_strategy_2_and_3() {
        for cfg in [
            UarchConfig::builder().nda(true).build(),
            UarchConfig::builder().stt(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
        ] {
            let out = Retbleed.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }
}
