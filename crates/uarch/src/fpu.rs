//! FPU state with lazy context switching (the Lazy FP attack surface).

use crate::fxmap::FxMap;
use crate::machine::ContextId;

/// Number of FP registers (matches [`isa::FReg::COUNT`]).
pub const FP_REG_COUNT: usize = 8;

/// The physical FPU register file plus ownership tracking.
///
/// Under *lazy* switching the register file is **not** saved/restored on a
/// context switch; the `owner` field keeps pointing at the old context and
/// the first FP instruction of the new context faults ("FPU owner check" in
/// Table III). On the vulnerable baseline that faulting instruction
/// transiently reads the *previous* context's values — the Lazy FP leak.
#[derive(Debug, Clone)]
pub struct FpuState {
    /// The physical register values currently in the FPU.
    regs: [u64; FP_REG_COUNT],
    /// The context whose values are physically loaded.
    owner: ContextId,
    /// Saved register files per context (filled on eager switch / on demand).
    saved: FxMap<ContextId, [u64; FP_REG_COUNT]>,
}

impl FpuState {
    /// Creates an FPU owned by `owner` with zeroed registers.
    #[must_use]
    pub fn new(owner: ContextId) -> Self {
        FpuState {
            regs: [0; FP_REG_COUNT],
            owner,
            saved: FxMap::default(),
        }
    }

    /// The context whose values are physically resident.
    #[must_use]
    pub fn owner(&self) -> ContextId {
        self.owner
    }

    /// Restores the FPU to its pristine post-[`new`](FpuState::new) state:
    /// zeroed registers owned by `owner`, no saved register files.
    pub fn reset(&mut self, owner: ContextId) {
        self.regs = [0; FP_REG_COUNT];
        self.owner = owner;
        self.saved.clear();
    }

    /// Reads the *physical* register — regardless of owner. This is the
    /// transient datapath of Lazy FP.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= FP_REG_COUNT`.
    #[must_use]
    pub fn read_physical(&self, idx: usize) -> u64 {
        self.regs[idx]
    }

    /// Writes a register on behalf of `ctx`, switching ownership eagerly if
    /// needed (used by the test/setup API).
    pub fn write(&mut self, ctx: ContextId, idx: usize, value: u64) {
        self.switch_to(ctx);
        self.regs[idx] = value;
    }

    /// Whether an FP access by `ctx` is authorized without a switch.
    #[must_use]
    pub fn owned_by(&self, ctx: ContextId) -> bool {
        self.owner == ctx
    }

    /// Performs the (expensive) FPU switch to `ctx`: saves the current
    /// owner's registers and restores `ctx`'s.
    pub fn switch_to(&mut self, ctx: ContextId) {
        if self.owner == ctx {
            return;
        }
        self.saved.insert(self.owner, self.regs);
        self.regs = self.saved.get(&ctx).copied().unwrap_or([0; FP_REG_COUNT]);
        self.owner = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_leak_window() {
        let victim = ContextId(0);
        let attacker = ContextId(1);
        let mut fpu = FpuState::new(victim);
        fpu.write(victim, 0, 0x5ec2e7);
        assert!(fpu.owned_by(victim));
        // Lazy switch: attacker context starts running but FPU still holds
        // the victim's values.
        assert!(!fpu.owned_by(attacker));
        assert_eq!(fpu.read_physical(0), 0x5ec2e7); // the transient read
                                                    // Eager switch clears the window.
        fpu.switch_to(attacker);
        assert_eq!(fpu.read_physical(0), 0);
        assert!(fpu.owned_by(attacker));
    }

    #[test]
    fn switch_roundtrip_preserves_values() {
        let a = ContextId(0);
        let b = ContextId(1);
        let mut fpu = FpuState::new(a);
        fpu.write(a, 1, 111);
        fpu.switch_to(b);
        fpu.write(b, 1, 222);
        fpu.switch_to(a);
        assert_eq!(fpu.read_physical(1), 111);
        fpu.switch_to(b);
        assert_eq!(fpu.read_physical(1), 222);
    }

    #[test]
    fn switch_to_self_is_noop() {
        let a = ContextId(0);
        let mut fpu = FpuState::new(a);
        fpu.write(a, 2, 9);
        fpu.switch_to(a);
        assert_eq!(fpu.read_physical(2), 9);
        assert_eq!(fpu.owner(), a);
    }
}
