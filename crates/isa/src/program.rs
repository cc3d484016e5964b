//! Programs and the label-resolving builder.

use crate::error::IsaError;
use crate::inst::{AluOp, Cond, FenceKind, Instruction, Operand};
use crate::reg::{FReg, Msr, Reg};
use std::collections::HashMap;
use std::fmt;
use std::ops::Index;

/// An immutable, validated sequence of instructions.
///
/// All control-flow targets are guaranteed to be in range.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    insts: Vec<Instruction>,
    labels: HashMap<String, usize>,
}

impl Program {
    /// Builds a program from raw instructions, validating targets.
    ///
    /// # Errors
    ///
    /// [`IsaError::TargetOutOfRange`] if any branch/jump/call target is
    /// outside the program.
    pub fn from_instructions(insts: Vec<Instruction>) -> Result<Self, IsaError> {
        let len = insts.len();
        for inst in &insts {
            let target = match *inst {
                Instruction::BranchIf { target, .. }
                | Instruction::Jump { target }
                | Instruction::Call { target } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if t >= len {
                    return Err(IsaError::TargetOutOfRange { target: t, len });
                }
            }
        }
        Ok(Program {
            insts,
            labels: HashMap::new(),
        })
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`, if in range.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<&Instruction> {
        self.insts.get(pc)
    }

    /// Iterates over `(pc, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Instruction)> + '_ {
        self.insts.iter().enumerate()
    }

    /// All instructions as a slice.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// The instruction index a label resolves to, if the label exists.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// All labels and their targets, sorted by target.
    #[must_use]
    pub fn labels(&self) -> Vec<(&str, usize)> {
        let mut v: Vec<(&str, usize)> = self.labels.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        v.sort_by_key(|&(_, t)| t);
        v
    }

    /// A copy of this program with the instruction at `pc` deleted.
    ///
    /// Branch/jump/call targets and labels after `pc` shift down by one;
    /// a target or label *at* `pc` stays put, pointing at the deleted
    /// instruction's successor. Used by mutation and shrinking passes.
    ///
    /// # Errors
    ///
    /// [`IsaError::TargetOutOfRange`] if `pc` is out of range, or if the
    /// deletion leaves some control-flow target dangling past the end
    /// (e.g. a branch to the deleted final instruction).
    pub fn with_removed(&self, pc: usize) -> Result<Self, IsaError> {
        if pc >= self.insts.len() {
            return Err(IsaError::TargetOutOfRange {
                target: pc,
                len: self.insts.len(),
            });
        }
        let remap = |t: usize| if t > pc { t - 1 } else { t };
        let insts = self
            .insts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pc)
            .map(|(_, inst)| retarget(inst, remap))
            .collect();
        let mut p = Program::from_instructions(insts)?;
        p.labels = self
            .labels
            .iter()
            .map(|(k, &t)| (k.clone(), remap(t)))
            .collect();
        Ok(p)
    }

    /// A copy of this program with `inst` inserted before the instruction
    /// at `pc` (`pc == len` appends). Targets and labels at or after `pc`
    /// shift up by one, so a branch that used to reach `pc` now reaches
    /// the inserted instruction and falls through to the old target.
    /// Any target carried by `inst` itself is taken in post-insertion
    /// coordinates.
    ///
    /// # Errors
    ///
    /// [`IsaError::TargetOutOfRange`] if `pc > len` or `inst` carries an
    /// out-of-range target.
    pub fn with_inserted(&self, pc: usize, inst: Instruction) -> Result<Self, IsaError> {
        if pc > self.insts.len() {
            return Err(IsaError::TargetOutOfRange {
                target: pc,
                len: self.insts.len(),
            });
        }
        let remap = |t: usize| if t >= pc { t + 1 } else { t };
        let mut insts: Vec<Instruction> = self.insts.iter().map(|i| retarget(i, remap)).collect();
        insts.insert(pc, inst);
        let mut p = Program::from_instructions(insts)?;
        p.labels = self
            .labels
            .iter()
            .map(|(k, &t)| (k.clone(), remap(t)))
            .collect();
        Ok(p)
    }
}

/// `inst` with its control-flow target (if any) passed through `remap`.
fn retarget(inst: &Instruction, remap: impl Fn(usize) -> usize) -> Instruction {
    let mut out = *inst;
    match &mut out {
        Instruction::BranchIf { target, .. }
        | Instruction::Jump { target }
        | Instruction::Call { target } => *target = remap(*target),
        _ => {}
    }
    out
}

impl Index<usize> for Program {
    type Output = Instruction;

    fn index(&self, pc: usize) -> &Instruction {
        &self.insts[pc]
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by_target: HashMap<usize, &str> =
            self.labels.iter().map(|(k, &v)| (v, k.as_str())).collect();
        for (pc, inst) in self.iter() {
            if let Some(l) = by_target.get(&pc) {
                writeln!(f, "{l}:")?;
            }
            writeln!(f, "  {pc:4}: {inst}")?;
        }
        Ok(())
    }
}

/// Reference to a branch target: either a resolved index or a label.
#[derive(Debug, Clone)]
enum TargetRef {
    Label(String),
}

/// Incrementally builds a [`Program`] with symbolic labels.
///
/// Forward references are allowed; all labels are resolved by
/// [`ProgramBuilder::build`].
///
/// ```
/// use isa::{ProgramBuilder, Reg, Cond};
/// # fn main() -> Result<(), isa::IsaError> {
/// let p = ProgramBuilder::new()
///     .imm(Reg::R0, 1)
///     .branch_if(Cond::Eq, Reg::R0, Reg::ZERO, "done")
///     .imm(Reg::R1, 2)
///     .label("done")?
///     .halt()
///     .build()?;
/// assert_eq!(p.label("done"), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Instruction>,
    targets: Vec<Option<TargetRef>>,
    labels: HashMap<String, usize>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction count (= the pc of the next pushed instruction).
    #[must_use]
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    fn push(mut self, inst: Instruction) -> Self {
        self.insts.push(inst);
        self.targets.push(None);
        self
    }

    fn push_with_target(mut self, inst: Instruction, target: TargetRef) -> Self {
        self.insts.push(inst);
        self.targets.push(Some(target));
        self
    }

    /// Defines a label at the current position.
    ///
    /// # Errors
    ///
    /// [`IsaError::DuplicateLabel`] if the label already exists.
    pub fn label(mut self, name: impl Into<String>) -> Result<Self, IsaError> {
        let name = name.into();
        if self.labels.contains_key(&name) {
            return Err(IsaError::DuplicateLabel(name));
        }
        self.labels.insert(name, self.insts.len());
        Ok(self)
    }

    /// `dst = value`.
    #[must_use]
    pub fn imm(self, dst: Reg, value: u64) -> Self {
        self.push(Instruction::Imm { dst, value })
    }

    /// `dst = op(a, b)` with a register operand.
    #[must_use]
    pub fn alu(self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> Self {
        self.push(Instruction::Alu {
            op,
            dst,
            a,
            b: Operand::Reg(b),
        })
    }

    /// `dst = op(a, imm)` with an immediate operand.
    #[must_use]
    pub fn alu_imm(self, op: AluOp, dst: Reg, a: Reg, imm: u64) -> Self {
        self.push(Instruction::Alu {
            op,
            dst,
            a,
            b: Operand::Imm(imm),
        })
    }

    /// `dst = mem[base + offset]`.
    #[must_use]
    pub fn load(self, dst: Reg, base: Reg, offset: i64) -> Self {
        self.push(Instruction::Load { dst, base, offset })
    }

    /// `mem[base + offset] = src`.
    #[must_use]
    pub fn store(self, src: Reg, base: Reg, offset: i64) -> Self {
        self.push(Instruction::Store { src, base, offset })
    }

    /// Conditional branch to a label.
    #[must_use]
    pub fn branch_if(self, cond: Cond, a: Reg, b: Reg, label: impl Into<String>) -> Self {
        self.push_with_target(
            Instruction::BranchIf {
                cond,
                a,
                b,
                target: usize::MAX,
            },
            TargetRef::Label(label.into()),
        )
    }

    /// Unconditional jump to a label.
    #[must_use]
    pub fn jump(self, label: impl Into<String>) -> Self {
        self.push_with_target(
            Instruction::Jump { target: usize::MAX },
            TargetRef::Label(label.into()),
        )
    }

    /// Indirect jump through a register.
    #[must_use]
    pub fn jump_indirect(self, reg: Reg) -> Self {
        self.push(Instruction::JumpIndirect { reg })
    }

    /// Call a label.
    #[must_use]
    pub fn call(self, label: impl Into<String>) -> Self {
        self.push_with_target(
            Instruction::Call { target: usize::MAX },
            TargetRef::Label(label.into()),
        )
    }

    /// Return.
    #[must_use]
    pub fn ret(self) -> Self {
        self.push(Instruction::Ret)
    }

    /// Serialization fence.
    #[must_use]
    pub fn fence(self, kind: FenceKind) -> Self {
        self.push(Instruction::Fence(kind))
    }

    /// Flush the cacheline containing `base + offset`.
    #[must_use]
    pub fn clflush(self, base: Reg, offset: i64) -> Self {
        self.push(Instruction::CacheFlush { base, offset })
    }

    /// `dst = current cycle`.
    #[must_use]
    pub fn rdtsc(self, dst: Reg) -> Self {
        self.push(Instruction::ReadTime { dst })
    }

    /// Privileged MSR read.
    #[must_use]
    pub fn rdmsr(self, dst: Reg, msr: Msr) -> Self {
        self.push(Instruction::ReadMsr { dst, msr })
    }

    /// Move FP register bits into a GPR.
    #[must_use]
    pub fn fpmov(self, dst: Reg, fsrc: FReg) -> Self {
        self.push(Instruction::FpMove { dst, fsrc })
    }

    /// Begin a transaction.
    #[must_use]
    pub fn tx_begin(self) -> Self {
        self.push(Instruction::TxBegin)
    }

    /// Commit a transaction.
    #[must_use]
    pub fn tx_end(self) -> Self {
        self.push(Instruction::TxEnd)
    }

    /// Stop the machine.
    #[must_use]
    pub fn halt(self) -> Self {
        self.push(Instruction::Halt)
    }

    /// No-op.
    #[must_use]
    pub fn nop(self) -> Self {
        self.push(Instruction::Nop)
    }

    /// Pushes a raw instruction (targets must already be resolved indices).
    #[must_use]
    pub fn raw(self, inst: Instruction) -> Self {
        self.push(inst)
    }

    /// Resolves all labels and validates the program.
    ///
    /// # Errors
    ///
    /// [`IsaError::UndefinedLabel`] for dangling references and
    /// [`IsaError::TargetOutOfRange`] for bad explicit targets.
    pub fn build(mut self) -> Result<Program, IsaError> {
        for (i, tref) in self.targets.iter().enumerate() {
            let resolved = match tref {
                None => continue,
                Some(TargetRef::Label(l)) => *self
                    .labels
                    .get(l)
                    .ok_or_else(|| IsaError::UndefinedLabel(l.clone()))?,
            };
            match &mut self.insts[i] {
                Instruction::BranchIf { target, .. }
                | Instruction::Jump { target }
                | Instruction::Call { target } => *target = resolved,
                _ => unreachable!("only control flow carries targets"),
            }
        }
        // A label at the very end (== len) is allowed only if some
        // instruction follows… we permit it pointing one-past-the-end only
        // when nothing references it; references were resolved above, so
        // validate targets now.
        let mut p = Program::from_instructions(self.insts)?;
        p.labels = self.labels;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let p = ProgramBuilder::new()
            .label("top")
            .unwrap()
            .imm(Reg::R0, 5)
            .branch_if(Cond::Ne, Reg::R0, Reg::ZERO, "end")
            .jump("top")
            .label("end")
            .unwrap()
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.len(), 4);
        match p[1] {
            Instruction::BranchIf { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other}"),
        }
        match p[2] {
            Instruction::Jump { target } => assert_eq!(target, 0),
            ref other => panic!("unexpected {other}"),
        }
        assert_eq!(p.label("top"), Some(0));
        assert_eq!(p.label("end"), Some(3));
    }

    #[test]
    fn undefined_label_errors() {
        let e = ProgramBuilder::new()
            .jump("ghost")
            .halt()
            .build()
            .unwrap_err();
        assert_eq!(e, IsaError::UndefinedLabel("ghost".into()));
    }

    #[test]
    fn duplicate_label_errors() {
        let e = ProgramBuilder::new()
            .label("a")
            .unwrap()
            .nop()
            .label("a")
            .unwrap_err();
        assert_eq!(e, IsaError::DuplicateLabel("a".into()));
    }

    #[test]
    fn out_of_range_target_rejected() {
        let e = Program::from_instructions(vec![Instruction::Jump { target: 5 }]).unwrap_err();
        assert_eq!(e, IsaError::TargetOutOfRange { target: 5, len: 1 });
    }

    #[test]
    fn label_pointing_past_end_rejected_when_referenced() {
        // A branch to a label defined after the last instruction resolves to
        // len, which is out of range.
        let e = ProgramBuilder::new()
            .jump("end")
            .label("end")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(e, IsaError::TargetOutOfRange { .. }));
    }

    #[test]
    fn display_includes_labels() {
        let p = ProgramBuilder::new()
            .label("main")
            .unwrap()
            .imm(Reg::R1, 7)
            .halt()
            .build()
            .unwrap();
        let s = p.to_string();
        assert!(s.contains("main:"));
        assert!(s.contains("imm r1, 0x7"));
    }

    #[test]
    fn iteration_and_indexing() {
        let p = ProgramBuilder::new().nop().halt().build().unwrap();
        assert!(!p.is_empty());
        assert_eq!(p.get(0), Some(&Instruction::Nop));
        assert_eq!(p.get(9), None);
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p[1], Instruction::Halt);
        assert_eq!(p.instructions().len(), 2);
    }

    #[test]
    fn labels_listing_sorted_by_target() {
        let p = ProgramBuilder::new()
            .label("a")
            .unwrap()
            .nop()
            .label("b")
            .unwrap()
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.labels(), vec![("a", 0), ("b", 1)]);
    }

    #[test]
    fn empty_program_builds() {
        let p = ProgramBuilder::new().build().unwrap();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn with_removed_shifts_targets_and_labels() {
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 1) // 0
            .nop() // 1 — removed
            .branch_if(Cond::Eq, Reg::R0, Reg::ZERO, "end") // 2
            .imm(Reg::R1, 2) // 3
            .label("end")
            .unwrap()
            .halt() // 4
            .build()
            .unwrap();
        let q = p.with_removed(1).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.label("end"), Some(3));
        match q[1] {
            Instruction::BranchIf { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn with_removed_target_at_pc_points_at_successor() {
        // jump 2; halt; nop — removing pc 2's predecessor keeps jump valid,
        // and removing the *target* makes the jump land on its successor.
        let p = Program::from_instructions(vec![
            Instruction::Jump { target: 1 },
            Instruction::Nop,
            Instruction::Halt,
        ])
        .unwrap();
        let q = p.with_removed(1).unwrap();
        assert_eq!(q[0], Instruction::Jump { target: 1 });
        assert_eq!(q[1], Instruction::Halt);
    }

    #[test]
    fn with_removed_dangling_final_target_errors() {
        let p =
            Program::from_instructions(vec![Instruction::Jump { target: 1 }, Instruction::Halt])
                .unwrap();
        // Removing the halt leaves the jump aimed one past the end.
        assert!(matches!(
            p.with_removed(1),
            Err(IsaError::TargetOutOfRange { .. })
        ));
        assert!(matches!(
            p.with_removed(7),
            Err(IsaError::TargetOutOfRange { target: 7, len: 2 })
        ));
    }

    #[test]
    fn with_inserted_shifts_targets_and_labels() {
        let p = ProgramBuilder::new()
            .branch_if(Cond::Eq, Reg::R0, Reg::ZERO, "end") // 0
            .imm(Reg::R1, 2) // 1
            .label("end")
            .unwrap()
            .halt() // 2
            .build()
            .unwrap();
        let q = p.with_inserted(1, Instruction::Nop).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q[1], Instruction::Nop);
        assert_eq!(q.label("end"), Some(3));
        match q[0] {
            Instruction::BranchIf { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other}"),
        }
        // Appending works; past-end insertion errors.
        assert_eq!(p.with_inserted(3, Instruction::Nop).unwrap().len(), 4);
        assert!(p.with_inserted(4, Instruction::Nop).is_err());
    }

    #[test]
    fn all_builder_methods_emit() {
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 1)
            .alu(AluOp::Add, Reg::R1, Reg::R0, Reg::R0)
            .alu_imm(AluOp::Shl, Reg::R1, Reg::R1, 2)
            .load(Reg::R2, Reg::R1, 0)
            .store(Reg::R2, Reg::R1, 8)
            .jump_indirect(Reg::R3)
            .ret()
            .fence(FenceKind::MFence)
            .clflush(Reg::R1, 0)
            .rdtsc(Reg::R4)
            .rdmsr(Reg::R5, Msr::SCRATCH)
            .fpmov(Reg::R6, FReg::new(0))
            .tx_begin()
            .tx_end()
            .nop()
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.len(), 16);
    }
}
