//! Inception — recursive RSB injection / Speculative Return Stack
//! Overflow (CVE-2023-20569): the attacker *floods* the shared return
//! stack buffer with gadget addresses by spraying calls from a call site
//! whose pushed return address aliases the victim gadget, overflowing the
//! RSB until every live entry is attacker-chosen. Unlike Spectre-RSB's
//! single stale entry, the poison survives partial RSB consumption (the
//! victim may execute returns of its own before reaching the vulnerable
//! one), and unlike Retbleed the prediction comes from the RSB *pop*
//! path, not the BTB fallback — so retpoline-style
//! `no_indirect_prediction`, which kills Retbleed, does **not** help.
//! The mitigations that do are the RSB-scrubbing ones: stuffing benign
//! entries on context switch, or flushing predictor state entirely
//! (AMD's "safe RET"/IBPB guidance for real hardware).
//!
//! The graph is the Figure-1 shape with return target resolution as the
//! authorization — same race as the other return-predictor variants; the
//! campaign's predictor-flavor knob decides the verdict.

use crate::common::{measure, probe_channel, send_epilogue, PROBE_BASE, SECRET};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::ReturnAddress};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Victim-private secret page.
const VICTIM_SECRET: u64 = 0x5E_0000;

/// Cell whose (flushed) load delays the victim's return resolution.
const DELAY_CELL: u64 = 0x5F_0000;

/// Spray iterations: comfortably more than any configured RSB depth
/// (default 16), so the buffer overflows and holds *only* gadget entries.
const SPRAY: u64 = 24;

/// The gadget's index in [`victim_binary`]; the attacker's spray `call`
/// sits at index 2 of its own binary so every pushed return address
/// equals this. (Pinned by the layout test; not read on the hot path.)
#[cfg(test)]
const GADGET_PC: usize = 3;

/// The attacker binary: a call loop that pushes `GADGET_PC` onto the RSB
/// [`SPRAY`] times. The callee never returns — it decrements the counter
/// and branches straight back to the call site — so nothing pops what the
/// spray pushed and the RSB overflows into an all-gadget state.
///
/// ```text
/// 0: imm  r9, SPRAY
/// 1: nop
/// 2: call f        ; pushes 3 == GADGET_PC, every iteration
/// 3: halt          ; (call target is f; never falls through here)
/// f:
/// 4: sub  r9, r9, 1
/// 5: bne  r9, 2    ; back to the call — no ret, the entries stay
/// 6: halt
/// ```
fn attacker_binary() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .imm(Reg::R9, SPRAY)
        .nop()
        .label("spray")?
        .call("f") // 2: pushed return address 3 == GADGET_PC
        .halt()
        .label("f")?
        .alu_imm(AluOp::Sub, Reg::R9, Reg::R9, 1)
        .branch_if(Cond::Ne, Reg::R9, Reg::ZERO, "spray")
        .halt()
        .build()?)
}

/// A victim warm-up routine: one unrelated `ret` that consumes the
/// youngest RSB entry before the vulnerable return runs. A single-entry
/// poison (Spectre-RSB) would be spent here; the overflowed RSB still
/// holds a gadget address for the return that matters.
fn victim_warmup() -> Result<Program, AttackError> {
    Ok(ProgramBuilder::new()
        .ret() // 0: pops one poisoned entry; transient target 3 is a halt
        .halt()
        .halt()
        .halt()
        .build()?)
}

/// The victim binary proper — the same vulnerable shape as the other
/// return-predictor variants: a slow load delays the return's resolution
/// while the front-end speculates into whatever the RSB supplies.
///
/// ```text
/// 0: load r4,[r2]  ; slow — the ret below resolves only at ROB head
/// 1: ret           ; pops a sprayed entry: transiently enters the gadget
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

/// Inception: recursive RSB overflow with attacker-chosen return targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inception;

impl Attack for Inception {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::INCEPTION,
            cve: Some("CVE-2023-20569"),
            impact: "RSB overflow: every return predicts attacker code",
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

        // --- Attacker floods the RSB past capacity with gadget entries,
        // re-arms the channel, and yields.
        m.run(&attacker_binary()?)?;
        probe_channel().rearm(m)?;
        let attacker = m.current_context();

        // --- Context switch to the victim (RSB stuffing and strategy-④
        // flushing act here).
        m.switch_context(victim_ctx)?;
        // The victim first runs an unrelated return: one poisoned entry
        // is consumed harmlessly. Overflow is what keeps the attack alive
        // past this point — a lone stale entry would now be gone.
        m.run(&victim_warmup()?)?;
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
    fn inception_leaks_on_baseline() {
        let out = Inception.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
    }

    #[test]
    fn spray_call_pushes_the_gadget_pc() {
        let p = attacker_binary().unwrap();
        // The spray call sits at index 2, so every pushed return address
        // is 3 — the victim gadget's pc.
        match p[GADGET_PC - 1] {
            isa::Instruction::Call { .. } => {}
            ref other => panic!("unexpected {other:?}"),
        }
        // The loop-back branch targets the call site, not the callee.
        match p[5] {
            isa::Instruction::BranchIf { target, .. } => assert_eq!(target, 2),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn survives_partial_rsb_consumption() {
        // run_in always routes through the warm-up return, so the
        // baseline leak already proves the poison outlives one pop; this
        // pins the deeper claim — the spray exceeds the RSB depth, so
        // *every* live entry is the gadget, not just the youngest.
        assert!(SPRAY as usize > UarchConfig::default().rsb_depth);
        let out = Inception.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        // Only the victim window is counted (the warm-up's own squash
        // lands before `clear_events`): exactly the vulnerable return.
        assert!(
            out.squashes >= 1,
            "the victim return must mispredict: {out}"
        );
    }

    #[test]
    fn retpoline_alone_does_not_help() {
        // The prediction comes from the RSB pop path, not the BTB
        // fallback — `no_indirect_prediction` (which blocks Retbleed)
        // leaves Inception intact. The fix must scrub the RSB itself.
        let out = Inception
            .run(&UarchConfig::builder().no_indirect_prediction(true).build())
            .unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_rsb_stuffing() {
        let out = Inception
            .run(&UarchConfig::builder().rsb_stuffing(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_predictor_flush() {
        let out = Inception
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
            let out = Inception.run(&cfg).unwrap();
            assert!(!out.leaked, "{out}");
        }
    }
}
