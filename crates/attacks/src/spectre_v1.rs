//! Spectre v1 (bounds check bypass), v1.1 (speculative buffer overflow) and
//! v1.2 (read-only overwrite) — the conditional-branch-triggered family of
//! Figure 1 and Listing 1 of the paper.

use crate::common::{
    measure, probe_channel, send_epilogue, BOUND_CELL, BOUND_PTR, PROBE_BASE, SECRET, USER_SCRATCH,
    VICTIM_ARRAY,
};
use crate::graphs::fig1_branch_attack;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::ConditionalBranch};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use tsg::SecretSource::ArchitecturalMemory;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::mmu::PageEntry;
use uarch::Machine;

/// In-bounds length of the victim array (in 8-byte words).
const BOUND: u64 = 8;

/// Out-of-bounds index used by the attack: `VICTIM_ARRAY + X*8` is the
/// secret's address.
const OOB_INDEX: u64 = 64;

/// Register conventions shared by the v1-family gadgets.
///
/// * `r0` — attacker-controlled index `x`
/// * `r1` — `&Array_Victim`
/// * `r2` — `&bound_ptr` (two flushed hops to the length: the window)
/// * `r3` — probe array base
fn victim_prologue() -> ProgramBuilder {
    // The two chained loads delay the bounds check — the *delayed
    // authorization* (step 2). The branch is trained not-taken (in-bounds).
    ProgramBuilder::new()
        .load(Reg::R4, Reg::R2, 0) // bound_ptr -> &bound (miss)
        .load(Reg::R4, Reg::R4, 0) // &bound -> bound     (miss)
        .branch_if(Cond::Ge, Reg::R0, Reg::R4, "out") // authorization
}

fn setup_victim_memory(m: &mut Machine) -> Result<(), AttackError> {
    m.map_user_page(VICTIM_ARRAY)?;
    m.map_user_page(BOUND_PTR)?;
    m.write_u64(BOUND_PTR, BOUND_CELL)?;
    m.write_u64(BOUND_CELL, BOUND)?;
    // Plant the secret out of bounds (within the same mapped page).
    m.write_u64(VICTIM_ARRAY + OOB_INDEX * 8, SECRET)?;
    // In-bounds words are non-zero so the training runs do not mis-train
    // the zero-guard branch of the send gadget.
    for i in 0..BOUND {
        m.write_u64(VICTIM_ARRAY + i * 8, 1)?;
    }
    Ok(())
}

fn train_branch(m: &mut Machine, program: &Program) -> Result<(), AttackError> {
    // Step 1(b): run the victim with in-bounds indices so the bounds-check
    // branch learns "not taken".
    for i in 0..4 {
        m.set_reg(Reg::R0, i % BOUND);
        m.set_reg(Reg::R1, VICTIM_ARRAY);
        m.set_reg(Reg::R2, BOUND_PTR);
        m.set_reg(Reg::R3, PROBE_BASE);
        m.run(program)?;
    }
    Ok(())
}

/// Stages the attack run (step 2 onward): flushes the bound chain to delay
/// the authorization, re-arms the channel and passes the out-of-bounds
/// index. The caller then measures the victim program.
fn attack_run(m: &mut Machine) -> Result<(), AttackError> {
    m.flush_line(BOUND_PTR)?;
    m.flush_line(BOUND_CELL)?;
    probe_channel().rearm(m)?;
    m.set_reg(Reg::R0, OOB_INDEX);
    m.set_reg(Reg::R1, VICTIM_ARRAY);
    m.set_reg(Reg::R2, BOUND_PTR);
    m.set_reg(Reg::R3, PROBE_BASE);
    Ok(())
}

/// Spectre v1: bounds-check bypass — transiently **reads** out-of-bounds
/// memory (Listing 1 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV1;

impl SpectreV1 {
    /// The victim gadget of Listing 1:
    /// `if (x < size) y = Array_A[Array_Victim[x] * stride];`.
    ///
    /// # Errors
    ///
    /// [`AttackError::Isa`] if assembly fails (it cannot for this fixed
    /// program).
    pub fn program() -> Result<Program, AttackError> {
        let b = victim_prologue()
            .alu_imm(AluOp::Shl, Reg::R5, Reg::R0, 3) // x * 8
            .alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R1)
            .load(Reg::R6, Reg::R5, 0); // Load S: out-of-bounds read
        send_epilogue(b, "out")
    }
}

impl Attack for SpectreV1 {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V1,
            cve: Some("CVE-2017-5753"),
            impact: "Boundary check bypass",
            authorization: "Boundary-check branch resolution",
            illegal_access: "Read out-of-bounds memory",
            point: AttackPoint::new(ArchitecturalMemory, ConditionalBranch, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Branch resolution: correct flow",
            "Load S",
            SecretSource::ArchitecturalMemory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        setup_victim_memory(m)?;
        let program = Self::program()?;
        train_branch(m, &program)?;
        attack_run(m)?;
        measure(m, &program, SECRET, None)
    }
}

/// Spectre v1.1: speculative buffer overflow — a transient **out-of-bounds
/// store** plants an attacker value that younger transient code consumes
/// (via store-to-load forwarding) and leaks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV1_1;

/// The attacker-chosen value the transient overflow writes; its appearance
/// on the covert channel proves the overflow steered transient dataflow.
const INJECTED: u64 = 0x5B;

impl SpectreV1_1 {
    /// Victim gadget with a write primitive: `if (x < size)
    /// Array_Victim[x] = v; y = Array_A[Array_Victim[x] * stride];`.
    ///
    /// # Errors
    ///
    /// [`AttackError::Isa`] if assembly fails.
    pub fn program() -> Result<Program, AttackError> {
        let b = victim_prologue()
            .alu_imm(AluOp::Shl, Reg::R5, Reg::R0, 3)
            .alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R1)
            .imm(Reg::R9, INJECTED)
            .store(Reg::R9, Reg::R5, 0) // transient OOB write
            .load(Reg::R6, Reg::R5, 0); // forwarded back: dataflow hijacked
        send_epilogue(b, "out")
    }
}

impl Attack for SpectreV1_1 {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V1_1,
            cve: Some("CVE-2018-3693"),
            impact: "Speculative buffer overflow",
            authorization: "Boundary-check branch resolution",
            illegal_access: "Write out-of-bounds memory",
            point: AttackPoint::new(ArchitecturalMemory, ConditionalBranch, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Branch resolution: correct flow",
            "Store S (out of bounds)",
            SecretSource::ArchitecturalMemory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        setup_victim_memory(m)?;
        let program = Self::program()?;
        train_branch(m, &program)?;
        attack_run(m)?;
        let mut out = measure(m, &program, INJECTED, None)?;
        // Success = the *injected* value crossed the channel; the planted
        // OOB word must meanwhile be architecturally unmodified.
        let intact = m.read_u64(VICTIM_ARRAY + OOB_INDEX * 8)? == SECRET;
        out.leaked = out.leaked && intact;
        Ok(out)
    }
}

/// Spectre v1.2: transient **store to read-only memory** — the write
/// bypasses the page's write-protection inside the window; store-to-load
/// forwarding makes the overwrite visible to transient readers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectreV1_2;

impl SpectreV1_2 {
    /// Victim gadget: transiently overwrite a read-only word (`r10` points
    /// into the read-only page) and leak the forwarded result.
    ///
    /// # Errors
    ///
    /// [`AttackError::Isa`] if assembly fails.
    pub fn program() -> Result<Program, AttackError> {
        let b = victim_prologue()
            .imm(Reg::R9, INJECTED)
            .store(Reg::R9, Reg::R10, 0) // transient write to read-only page
            .load(Reg::R6, Reg::R10, 0); // forwarded: protection bypassed
        send_epilogue(b, "out")
    }
}

impl Attack for SpectreV1_2 {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::SPECTRE_V1_2,
            cve: None,
            impact: "Overwrite read-only memory",
            authorization: "Page read-only bit check",
            illegal_access: "Write read-only memory",
            point: AttackPoint::new(ArchitecturalMemory, ConditionalBranch, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig1_branch_attack(
            "Read-only bit check resolution",
            "Store S (read-only page)",
            SecretSource::ArchitecturalMemory,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        setup_victim_memory(m)?;
        // A read-only page the transient store will violate.
        let ro_page = USER_SCRATCH;
        m.map_page(
            ro_page,
            PageEntry {
                writable: false,
                ..PageEntry::user_rw(ro_page / 4096)
            },
        );
        m.write_u64(ro_page, 0)?;
        let program = Self::program()?;
        // Train with the write target pointed at a harmless writable word;
        // only the attack run aims it at the read-only page.
        m.set_reg(Reg::R10, BOUND_PTR + 64);
        train_branch(m, &program)?;
        m.set_reg(Reg::R10, ro_page);
        attack_run(m)?;
        let mut out = measure(m, &program, INJECTED, None)?;
        // The read-only word must be architecturally untouched.
        let intact = m.read_u64(ro_page)? == 0;
        out.leaked = out.leaked && intact;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::TraceEvent;
    use uarch::UarchConfig;

    #[test]
    fn v1_leaks_on_baseline() {
        let out = SpectreV1.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.squashes >= 1, "the mis-speculation must squash");
    }

    #[test]
    fn v1_architectural_state_is_clean() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup_victim_memory(&mut m).unwrap();
        let p = SpectreV1::program().unwrap();
        train_branch(&mut m, &p).unwrap();
        attack_run(&mut m).unwrap();
        measure(&mut m, &p, SECRET, None).unwrap();
        // The out-of-bounds value never reached an architectural register:
        // the attack run's branch was *taken* architecturally, skipping the
        // gadget, so r6 still holds the last training run's in-bounds value.
        assert_eq!(m.reg(Reg::R6), 1);
        assert_ne!(m.reg(Reg::R6), SECRET);
        assert_ne!(m.reg(Reg::R8), SECRET);
    }

    #[test]
    fn v1_blocked_by_nda() {
        let cfg = UarchConfig::builder().nda(true).build();
        let out = SpectreV1.run(&cfg).unwrap();
        assert!(!out.leaked, "{out}");
        assert!(out.defense_blocks > 0);
    }

    #[test]
    fn v1_blocked_by_stt() {
        let out = SpectreV1
            .run(&UarchConfig::builder().stt(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v1_blocked_by_strategy3_variants() {
        for cfg in [
            UarchConfig::builder().delay_on_miss(true).build(),
            UarchConfig::builder().invisible_spec(true).build(),
            UarchConfig::builder().cleanup_spec(true).build(),
        ] {
            let out = SpectreV1.run(&cfg).unwrap();
            assert!(!out.leaked, "strategy ③ must block v1: {out}");
        }
    }

    #[test]
    fn v1_blocked_by_no_speculative_loads() {
        let out = SpectreV1
            .run(&UarchConfig::builder().no_speculative_loads(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v1_not_blocked_by_meltdown_only_defenses() {
        // Strategy ① at the intra-instruction level (eager permission
        // checks) and KPTI do not address Spectre v1 — the paper's point
        // that defenses must match the missing dependency.
        for cfg in [
            UarchConfig::builder().eager_permission_check(true).build(),
            UarchConfig::builder().kpti(true).build(),
        ] {
            let out = SpectreV1.run(&cfg).unwrap();
            assert!(out.leaked, "v1 must still leak: {out}");
        }
    }

    #[test]
    fn v1_1_overflow_leaks_injected_value() {
        let out = SpectreV1_1.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(INJECTED));
    }

    #[test]
    fn v1_1_blocked_by_nda() {
        let out = SpectreV1_1
            .run(&UarchConfig::builder().nda(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v1_2_overwrites_read_only_transiently() {
        let out = SpectreV1_2.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
        assert_eq!(out.recovered, Some(INJECTED));
    }

    #[test]
    fn v1_2_blocked_by_invisible_spec() {
        let out = SpectreV1_2
            .run(&UarchConfig::builder().invisible_spec(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn v1_emits_speculative_execution_events() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        setup_victim_memory(&mut m).unwrap();
        let p = SpectreV1::program().unwrap();
        train_branch(&mut m, &p).unwrap();
        attack_run(&mut m).unwrap();
        measure(&mut m, &p, SECRET, None).unwrap();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::SpeculativeExecute { .. })));
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::SpeculativeFill { .. })));
    }
}
