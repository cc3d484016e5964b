//! Instruction definitions.

use crate::reg::{FReg, Msr, Reg};
use std::fmt;

/// A register or immediate ALU operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(u64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v:#x}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Mul,
}

impl AluOp {
    /// Applies the operation with wrapping semantics.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Mul => a.wrapping_mul(b),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Mul => "mul",
        };
        f.write_str(s)
    }
}

/// Branch conditions (unsigned comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl Cond {
    /// Evaluates the condition on two unsigned values.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Serialization fences.
///
/// These are the *industry defense* primitives of Table II: a fence inserts
/// the missing security dependency by serializing execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// LFENCE: no later instruction begins execution until the fence retires.
    LFence,
    /// MFENCE: orders all memory operations across the fence.
    MFence,
    /// SSBB (Speculative Store Bypass Barrier): loads after the barrier may
    /// not bypass stores before it (defeats Spectre v4).
    Ssbb,
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FenceKind::LFence => "lfence",
            FenceKind::MFence => "mfence",
            FenceKind::Ssbb => "ssbb",
        };
        f.write_str(s)
    }
}

/// One architectural instruction.
///
/// Memory addressing is always `base register + signed immediate offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `dst = imm`.
    Imm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: u64,
    },
    /// `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First (register) operand.
        a: Reg,
        /// Second operand (register or immediate).
        b: Operand,
    },
    /// `dst = mem[base + offset]` (1 byte, zero-extended… conceptually; the
    /// simulator loads 8 bytes — byte-granularity is not needed for the
    /// attack models).
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement added to the base.
        offset: i64,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Source register providing the stored value.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement added to the base.
        offset: i64,
    },
    /// Conditional branch to `target` (an instruction index) when
    /// `cond(a, b)` holds.
    BranchIf {
        /// Condition code.
        cond: Cond,
        /// Left comparison operand.
        a: Reg,
        /// Right comparison operand.
        b: Reg,
        /// Taken-path target (instruction index).
        target: usize,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump through a register (Spectre v2's victim instruction).
    JumpIndirect {
        /// Register holding the target instruction index.
        reg: Reg,
    },
    /// Direct call: pushes the return address on the (architectural) stack
    /// and the Return Stack Buffer.
    Call {
        /// Target instruction index.
        target: usize,
    },
    /// Return: pops the return address; *predicted* via the RSB
    /// (Spectre-RSB's victim instruction).
    Ret,
    /// Serialization fence.
    Fence(FenceKind),
    /// Flush the cacheline containing `base + offset` (clflush).
    CacheFlush {
        /// Base address register.
        base: Reg,
        /// Signed displacement added to the base.
        offset: i64,
    },
    /// `dst = current cycle` (rdtsc): the receiver's timing primitive.
    ReadTime {
        /// Destination register.
        dst: Reg,
    },
    /// Privileged read of a model-specific register (Spectre v3a).
    ReadMsr {
        /// Destination register.
        dst: Reg,
        /// The MSR to read.
        msr: Msr,
    },
    /// Floating-point move to a GPR: `dst = bits(fsrc)`. Touches FPU state,
    /// triggering the lazy-FPU switch logic (Lazy FP attack).
    FpMove {
        /// Destination general-purpose register.
        dst: Reg,
        /// Source floating-point register.
        fsrc: FReg,
    },
    /// Begin a transactional region (TSX). Faults inside the region abort
    /// asynchronously instead of raising exceptions (TAA/CacheOut).
    TxBegin,
    /// End (commit) a transactional region.
    TxEnd,
    /// Stop the machine.
    Halt,
    /// Do nothing.
    Nop,
}

impl Instruction {
    /// Whether the instruction is a control-flow operation subject to
    /// prediction (branch, indirect jump, call or return).
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instruction::BranchIf { .. }
                | Instruction::Jump { .. }
                | Instruction::JumpIndirect { .. }
                | Instruction::Call { .. }
                | Instruction::Ret
        )
    }

    /// Whether the instruction accesses memory.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instruction::Load { .. } | Instruction::Store { .. } | Instruction::CacheFlush { .. }
        )
    }

    /// The registers this instruction reads.
    #[must_use]
    pub fn sources(&self) -> Vec<Reg> {
        let (regs, n) = self.sources_fixed();
        regs[..n].to_vec()
    }

    /// The registers this instruction reads, without allocating: a fixed
    /// two-slot array plus the number of valid leading slots (no instruction
    /// reads more than two registers). Unused slots hold [`Reg::ZERO`].
    #[must_use]
    pub fn sources_fixed(&self) -> ([Reg; 2], usize) {
        match *self {
            Instruction::Alu { a, b, .. } => match b {
                Operand::Reg(r) => ([a, r], 2),
                Operand::Imm(_) => ([a, Reg::ZERO], 1),
            },
            Instruction::Load { base, .. } | Instruction::CacheFlush { base, .. } => {
                ([base, Reg::ZERO], 1)
            }
            Instruction::Store { src, base, .. } => ([src, base], 2),
            Instruction::BranchIf { a, b, .. } => ([a, b], 2),
            Instruction::JumpIndirect { reg } => ([reg, Reg::ZERO], 1),
            _ => ([Reg::ZERO, Reg::ZERO], 0),
        }
    }

    /// The register this instruction writes, if any.
    #[must_use]
    pub fn destination(&self) -> Option<Reg> {
        match *self {
            Instruction::Imm { dst, .. }
            | Instruction::Alu { dst, .. }
            | Instruction::Load { dst, .. }
            | Instruction::ReadTime { dst }
            | Instruction::ReadMsr { dst, .. }
            | Instruction::FpMove { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Imm { dst, value } => write!(f, "imm {dst}, {value:#x}"),
            Instruction::Alu { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Instruction::Load { dst, base, offset } => {
                write!(f, "load {dst}, [{base}{offset:+}]")
            }
            Instruction::Store { src, base, offset } => {
                write!(f, "store {src}, [{base}{offset:+}]")
            }
            Instruction::BranchIf { cond, a, b, target } => {
                write!(f, "b{cond} {a}, {b}, @{target}")
            }
            Instruction::Jump { target } => write!(f, "jmp @{target}"),
            Instruction::JumpIndirect { reg } => write!(f, "jmpi {reg}"),
            Instruction::Call { target } => write!(f, "call @{target}"),
            Instruction::Ret => f.write_str("ret"),
            Instruction::Fence(k) => write!(f, "{k}"),
            Instruction::CacheFlush { base, offset } => {
                write!(f, "clflush [{base}{offset:+}]")
            }
            Instruction::ReadTime { dst } => write!(f, "rdtsc {dst}"),
            Instruction::ReadMsr { dst, msr } => write!(f, "rdmsr {dst}, {msr}"),
            Instruction::FpMove { dst, fsrc } => write!(f, "fpmov {dst}, {fsrc}"),
            Instruction::TxBegin => f.write_str("txbegin"),
            Instruction::TxEnd => f.write_str("txend"),
            Instruction::Halt => f.write_str("halt"),
            Instruction::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX); // wrapping
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 12), 4096);
        assert_eq!(AluOp::Shr.apply(4096, 12), 1);
        assert_eq!(AluOp::Mul.apply(6, 7), 42);
        // Shift counts are masked to 6 bits.
        assert_eq!(AluOp::Shl.apply(1, 64), 1);
    }

    #[test]
    fn cond_eval_and_negate() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(1, 2));
        assert!(Cond::Ge.eval(2, 2));
        // The conditions come in negated pairs.
        for (c, negated) in [(Cond::Eq, Cond::Ne), (Cond::Lt, Cond::Ge)] {
            for (a, b) in [(0u64, 0u64), (1, 2), (2, 1)] {
                assert_eq!(negated.eval(a, b), !c.eval(a, b));
            }
        }
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instruction::Ret.is_control_flow());
        assert!(Instruction::Jump { target: 0 }.is_control_flow());
        assert!(!Instruction::Nop.is_control_flow());
        assert!(Instruction::Load {
            dst: Reg::R0,
            base: Reg::R1,
            offset: 0
        }
        .is_memory());
        assert!(!Instruction::Halt.is_memory());
    }

    #[test]
    fn sources_and_destination() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            dst: Reg::R0,
            a: Reg::R1,
            b: Operand::Reg(Reg::R2),
        };
        assert_eq!(i.sources(), vec![Reg::R1, Reg::R2]);
        assert_eq!(i.destination(), Some(Reg::R0));

        let s = Instruction::Store {
            src: Reg::R3,
            base: Reg::R4,
            offset: 8,
        };
        assert_eq!(s.sources(), vec![Reg::R3, Reg::R4]);
        assert_eq!(s.destination(), None);
    }

    #[test]
    fn display_forms() {
        let i = Instruction::Load {
            dst: Reg::R1,
            base: Reg::R2,
            offset: -8,
        };
        assert_eq!(i.to_string(), "load r1, [r2-8]");
        assert_eq!(
            Instruction::BranchIf {
                cond: Cond::Lt,
                a: Reg::R0,
                b: Reg::R1,
                target: 7
            }
            .to_string(),
            "blt r0, r1, @7"
        );
        assert_eq!(Instruction::Fence(FenceKind::LFence).to_string(), "lfence");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg::R1), Operand::Reg(Reg::R1));
        assert_eq!(Operand::from(5u64), Operand::Imm(5));
        assert_eq!(Operand::Imm(255).to_string(), "0xff");
    }
}
