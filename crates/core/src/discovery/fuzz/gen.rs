//! The seeded scenario generator: free composition over §V-A's three
//! dimensions plus biased mutation of the composed gadgets.
//!
//! A [`Scenario`] is an executable attack candidate: a victim program
//! whose *shape* is determined by a [`Combo`] — which micro-architectural
//! store the secret comes from, which hardware mechanism delays the
//! authorization, and which covert channel carries the stolen value out —
//! plus a list of [`Mutation`]s spliced in between the secret access and
//! the send. Five combos are points of registry attacks (Spectre v1/v2/RSB,
//! Meltdown, Spectre v3a); the rest of the space is where novel variants
//! and oracle divergences live.

use super::rng::{candidate_rng, FuzzRng};
use crate::discovery::design_space;
use analyzer::AnalysisConfig;
use attacks::{AttackPoint, Channel, DelayMechanism};
use isa::{AluOp, Cond, FenceKind, Instruction, Msr, Operand, Program, ProgramBuilder, Reg};
use std::ops::Deref;
use std::sync::OnceLock;
use tsg::SecretSource;

/// One point of the executable design space: an [`AttackPoint`] the
/// generator has a program shape for and the driver a harness for.
/// Derefs to its point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo(AttackPoint);

impl Combo {
    /// `point` as a combo if it is executable: the secret is architectural
    /// memory, kernel memory or a special register; the delay a
    /// conditional, indirect or return branch, or a delayed exception,
    /// which presupposes a privileged access; the channel Flush+Reload or
    /// Prime+Probe.
    #[must_use]
    pub fn new(point: AttackPoint) -> Option<Combo> {
        use DelayMechanism as D;
        use SecretSource as S;
        let source = matches!(
            point.source,
            S::ArchitecturalMemory | S::Memory | S::SpecialRegister
        );
        let delay = match point.delay {
            D::ConditionalBranch | D::IndirectBranch | D::ReturnAddress => true,
            D::DelayedException => point.source != S::ArchitecturalMemory,
            _ => false,
        };
        let channel = matches!(point.channel, Channel::FlushReload | Channel::PrimeProbe);
        (source && delay && channel).then_some(Combo(point))
    }

    /// Every executable combo in design-space order — 22 points, built
    /// once.
    #[must_use]
    pub fn all() -> &'static [Combo] {
        static ALL: OnceLock<Vec<Combo>> = OnceLock::new();
        ALL.get_or_init(|| design_space().into_iter().filter_map(Combo::new).collect())
    }

    /// Parses an [`AttackPoint::label`] back; `None` for a point that is
    /// not executable.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Combo> {
        AttackPoint::from_label(label).and_then(Combo::new)
    }
}

impl Deref for Combo {
    type Target = AttackPoint;

    fn deref(&self) -> &AttackPoint {
        &self.0
    }
}

/// A splice applied to the composed gadget between access and send. The
/// tag is the key the divergence classifier uses to explain Theorem-1-vs-
/// simulation disagreements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// A `nop` — leak-preserving padding (shrinks away).
    NopPad,
    /// An identity transform on the stolen value (`or r6, r6, zero`).
    ExtendTransform,
    /// Launder the stolen value through memory (`store r6; load r6`):
    /// breaks register-level taint without breaking the leak.
    Launder,
    /// Zero the stolen value (`and r6, r6, 0`): the simulator's leak
    /// dies, the graph race does not — an expected `missed_leak`.
    DeadValue,
    /// An `lfence` between access and send: the simulated send stalls
    /// until the authorization resolves — an expected `missed_leak`.
    FencedSend,
    /// Replace the address-dependent send with secret-dependent *control
    /// flow* into a fixed-address load: invisible to register dataflow —
    /// the expected `false_sense` divergence.
    ImplicitFlow,
}

impl Mutation {
    /// Stable corpus tag.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Mutation::NopPad => "nop-pad",
            Mutation::ExtendTransform => "extend-transform",
            Mutation::Launder => "launder",
            Mutation::DeadValue => "dead-value",
            Mutation::FencedSend => "fenced-send",
            Mutation::ImplicitFlow => "implicit-flow",
        }
    }

    /// Parses a [`Mutation::tag`] back.
    #[must_use]
    pub fn from_tag(t: &str) -> Option<Mutation> {
        Some(match t {
            "nop-pad" => Mutation::NopPad,
            "extend-transform" => Mutation::ExtendTransform,
            "launder" => Mutation::Launder,
            "dead-value" => Mutation::DeadValue,
            "fenced-send" => Mutation::FencedSend,
            "implicit-flow" => Mutation::ImplicitFlow,
            _ => return None,
        })
    }
}

/// Shared memory layout of every generated driver. The probe-array and
/// window constants reuse `attacks::common`; the rest live on pages no
/// catalog PoC maps.
pub mod layout {
    /// In-bounds victim array for the indexed (Spectre-v1-style) access.
    pub const VICTIM_ARRAY: u64 = attacks::common::VICTIM_ARRAY;
    /// First hop of the flushed bound chain (the speculation window).
    pub const BOUND_PTR: u64 = attacks::common::BOUND_PTR;
    /// Second hop of the bound chain.
    pub const BOUND_CELL: u64 = attacks::common::BOUND_CELL;
    /// In-bounds length of the victim array, in words.
    pub const BOUND: u64 = 8;
    /// Out-of-bounds index whose word holds the planted secret.
    pub const OOB_INDEX: u64 = 64;
    /// Kernel page holding the privileged secret.
    pub const KERNEL_SECRET: u64 = attacks::common::KERNEL_SECRET;
    /// Scratch user page: legal training source and launder target.
    pub const USER_SCRATCH: u64 = attacks::common::USER_SCRATCH;
    /// Victim-private user page for the direct-load (v2/RSB-style) access.
    pub const VICTIM_SECRET: u64 = 0x5A_0000;
    /// Flushed cell whose load delays the victim's `ret`.
    pub const DELAY_CELL: u64 = 0x5B_0000;
    /// Pointer cell naming the indirect branch's target cell.
    pub const TARGET_PTR: u64 = 0x51_0000;
    /// Cell holding the indirect branch target.
    pub const TARGET_CELL: u64 = 0x51_1000;
    /// Flush+Reload probe array base.
    pub const PROBE_BASE: u64 = attacks::common::PROBE_BASE;
    /// Flush+Reload slot stride.
    pub const PROBE_STRIDE: u64 = attacks::common::PROBE_STRIDE;
    /// Prime+Probe receiver buffer.
    pub const PRIME_BASE: u64 = 0x200_0000;
    /// Prime+Probe sender buffer.
    pub const SENDER_BASE: u64 = 0x300_0000;
    /// First monitored cache set (clear of the victim's own lines).
    pub const PP_BASE_SET: usize = 16;
    /// Monitored set count = Prime+Probe symbol space.
    pub const PP_SYMBOLS: usize = 8;
    /// The planted secret for Flush+Reload scenarios.
    pub const FR_SECRET: u64 = attacks::common::SECRET;
    /// The planted secret for Prime+Probe scenarios (must index a set).
    pub const PP_SECRET: u64 = 5;
    /// The MSR the special-register scenarios steal.
    pub const TARGET_MSR: u32 = 0x10;
}

/// An executable attack candidate: a combo-shaped victim program plus the
/// mutations spliced into it, with the pcs the driver needs to steer
/// training and mis-prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The design-space point this candidate instantiates.
    pub combo: Combo,
    /// Splices applied between access and send, in application order.
    pub mutations: Vec<Mutation>,
    /// The victim program (the gadget-bearing binary).
    pub program: Program,
    /// The pc of the instruction that moves the secret into `r6`.
    pub access_pc: usize,
    /// Where mis-prediction must land: the gadget's first pc
    /// (indirect/return families; equals `access_pc` here).
    pub gadget_pc: usize,
    /// The architecturally-correct target of the attack run (indirect
    /// family: the benign halt).
    pub benign_pc: usize,
}

impl Scenario {
    /// The identity (mutation-free) instance of `combo` — the template
    /// whose lifted fingerprint defines the combo's canonical shape.
    #[must_use]
    pub fn template(combo: Combo) -> Scenario {
        Scenario::compose(combo, Vec::new())
    }

    /// The candidate at `(seed, index)`: a pure function of the pair.
    #[must_use]
    pub fn generate(seed: u64, index: u64) -> Scenario {
        let mut rng = candidate_rng(seed, index);
        let combos = Combo::all();
        let combo = combos[rng.below(combos.len() as u64) as usize];
        let mutations = draw_mutations(&mut rng, combo);
        Scenario::compose(combo, mutations)
    }

    /// Builds the program for `combo` with `mutations` applied.
    ///
    /// # Panics
    ///
    /// Never: the program shapes are fixed and the splice points always
    /// valid.
    #[must_use]
    pub fn compose(combo: Combo, mutations: Vec<Mutation>) -> Scenario {
        let implicit = mutations.contains(&Mutation::ImplicitFlow);
        let (program, access_pc, gadget_pc, benign_pc) = build_program(combo, implicit);
        let mut s = Scenario {
            combo,
            mutations,
            program,
            access_pc,
            gadget_pc,
            benign_pc,
        };
        for m in s.mutations.clone() {
            s.apply(m);
        }
        s
    }

    /// The value the driver plants as the secret.
    #[must_use]
    pub fn secret_value(&self) -> u64 {
        if self.combo.channel == Channel::PrimeProbe {
            layout::PP_SECRET
        } else {
            layout::FR_SECRET
        }
    }

    /// The lift configuration matching the driver's privilege level:
    /// privileged sources run (and are analyzed) in user mode, so their
    /// accesses decompose into permission-check + data-read micro-ops.
    #[must_use]
    pub fn lift_config(&self) -> AnalysisConfig {
        AnalysisConfig {
            user_mode: self.combo.source != SecretSource::ArchitecturalMemory,
            protected_accesses: Vec::new(),
        }
    }

    /// This scenario with the instruction at `pc` deleted and all pc
    /// bookkeeping shifted accordingly; `None` if the deletion leaves the
    /// program invalid. The shrinker's single step.
    #[must_use]
    pub fn with_removed(&self, pc: usize) -> Option<Scenario> {
        let program = self.program.with_removed(pc).ok()?;
        let shift = |f: usize| if pc < f { f - 1 } else { f };
        Some(Scenario {
            combo: self.combo,
            mutations: self.mutations.clone(),
            program,
            access_pc: shift(self.access_pc),
            gadget_pc: shift(self.gadget_pc),
            benign_pc: shift(self.benign_pc),
        })
    }

    /// Splices `mutation` in right after the access.
    fn apply(&mut self, mutation: Mutation) {
        let at = self.access_pc + 1;
        let insert = |p: &Program, inst: Instruction| {
            p.with_inserted(at, inst).expect("splice point is in range")
        };
        self.program = match mutation {
            // ImplicitFlow shapes the epilogue in build_program instead.
            Mutation::ImplicitFlow => return,
            Mutation::NopPad => insert(&self.program, Instruction::Nop),
            Mutation::ExtendTransform => insert(
                &self.program,
                Instruction::Alu {
                    op: AluOp::Or,
                    dst: Reg::R6,
                    a: Reg::R6,
                    b: Operand::Reg(Reg::ZERO),
                },
            ),
            Mutation::DeadValue => insert(
                &self.program,
                Instruction::Alu {
                    op: AluOp::And,
                    dst: Reg::R6,
                    a: Reg::R6,
                    b: Operand::Imm(0),
                },
            ),
            Mutation::FencedSend => insert(&self.program, Instruction::Fence(FenceKind::LFence)),
            Mutation::Launder => {
                // store r6, [r10]; load r6, [r10] — in that order.
                let p = insert(
                    &self.program,
                    Instruction::Load {
                        dst: Reg::R6,
                        base: Reg::R10,
                        offset: 0,
                    },
                );
                p.with_inserted(
                    at,
                    Instruction::Store {
                        src: Reg::R6,
                        base: Reg::R10,
                        offset: 0,
                    },
                )
                .expect("splice point is in range")
            }
        };
    }
}

/// Draws this candidate's mutation list: identity often enough that every
/// known combo is rediscovered within a small budget, with a bias toward
/// single leak-preserving splices and a steady trickle of the
/// divergence-inducing ones.
fn draw_mutations(rng: &mut FuzzRng, combo: Combo) -> Vec<Mutation> {
    // Secret-dependent control flow needs the conditional-branch driver's
    // registers and a slot-addressable channel.
    let implicit_ok =
        combo.delay == DelayMechanism::ConditionalBranch && combo.channel == Channel::FlushReload;
    let implicit = implicit_ok && rng.chance(1, 4);
    let menu = [
        Mutation::NopPad,
        Mutation::ExtendTransform,
        Mutation::Launder,
        Mutation::DeadValue,
        Mutation::FencedSend,
    ];
    let count = match rng.below(20) {
        0..=9 => 0,
        10..=16 => 1,
        _ => 2,
    };
    // ImplicitFlow composes freely with the insertion mutations: combined
    // with DeadValue or FencedSend the scenario goes quiet under *both*
    // oracles, which is the only route to an agree-safe candidate.
    let mut mutations: Vec<Mutation> = Vec::with_capacity(count as usize + 1);
    if implicit {
        mutations.push(Mutation::ImplicitFlow);
    }
    mutations.extend((0..count).map(|_| menu[rng.below(menu.len() as u64) as usize]));
    mutations
}

/// Builds the combo's program: delay prologue, source access, channel
/// epilogue. Returns `(program, access_pc, gadget_pc, benign_pc)`.
fn build_program(combo: Combo, implicit_flow: bool) -> (Program, usize, usize, usize) {
    let mut b = ProgramBuilder::new();
    let mut benign_pc = 0;
    // Delay prologue.
    match combo.delay {
        DelayMechanism::ConditionalBranch => {
            b = b
                .load(Reg::R4, Reg::R2, 0)
                .load(Reg::R4, Reg::R4, 0)
                .branch_if(Cond::Ge, Reg::R0, Reg::R4, "out");
        }
        DelayMechanism::IndirectBranch => {
            b = b
                .load(Reg::R4, Reg::R9, 0)
                .load(Reg::R1, Reg::R4, 0)
                .jump_indirect(Reg::R1);
            benign_pc = b.here();
            b = b.halt();
        }
        DelayMechanism::ReturnAddress => {
            b = b.load(Reg::R4, Reg::R2, 0).ret().halt();
        }
        // A delayed exception: the access faults by itself.
        _ => {}
    }
    let gadget_pc = b.here();
    // Source access, leaving the secret in r6.
    let indexed = combo.source == SecretSource::ArchitecturalMemory
        && combo.delay == DelayMechanism::ConditionalBranch;
    b = match combo.source {
        SecretSource::ArchitecturalMemory if indexed => b
            .alu_imm(AluOp::Shl, Reg::R5, Reg::R0, 3)
            .alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R1)
            .load(Reg::R6, Reg::R5, 0),
        SecretSource::SpecialRegister => b.rdmsr(Reg::R6, Msr(layout::TARGET_MSR)),
        // Architectural or kernel memory.
        _ => b.load(Reg::R6, Reg::R5, 0),
    };
    let access_pc = b.here() - 1;
    // Channel epilogue.
    if implicit_flow {
        b = b
            .branch_if(Cond::Ne, Reg::R6, Reg::R12, "out")
            .load(Reg::R8, Reg::R13, 0);
    } else {
        b = b.branch_if(Cond::Eq, Reg::R6, Reg::ZERO, "out");
        b = if combo.channel == Channel::PrimeProbe {
            b.alu_imm(AluOp::Mul, Reg::R7, Reg::R6, uarch::cache::LINE_SIZE)
                .alu_imm(
                    AluOp::Add,
                    Reg::R7,
                    Reg::R7,
                    layout::PP_BASE_SET as u64 * uarch::cache::LINE_SIZE,
                )
        } else {
            b.alu_imm(AluOp::Mul, Reg::R7, Reg::R6, layout::PROBE_STRIDE)
        };
        b = b
            .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
            .load(Reg::R8, Reg::R7, 0);
    }
    let program = b
        .label("out")
        .expect("single out label")
        .halt()
        .build()
        .expect("fixed shapes always assemble");
    (program, access_pc, gadget_pc, benign_pc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_space_has_22_executable_points_and_5_known() {
        let all = Combo::all();
        assert_eq!(all.len(), 22);
        let known = all.iter().filter(|c| c.known_variants().next().is_some());
        assert_eq!(known.count(), 5);
        for c in all {
            assert_eq!(Combo::from_label(&c.label()), Some(*c));
        }
        let fault = "architectural-memory/delayed-exception/flush-reload";
        assert!(AttackPoint::from_label(fault).is_some());
        assert_eq!(Combo::from_label(fault), None);
    }

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for i in 0..64 {
            assert_eq!(Scenario::generate(42, i), Scenario::generate(42, i));
        }
        let programs: std::collections::HashSet<String> = (0..64)
            .map(|i| Scenario::generate(42, i).program.to_string())
            .collect();
        assert!(
            programs.len() > 5,
            "only {} distinct programs",
            programs.len()
        );
    }

    #[test]
    fn templates_mirror_the_catalog_gadgets() {
        let v1 = Scenario::template(Combo::all()[0]);
        assert_eq!(
            v1.program.to_string(),
            attacks::spectre_v1::SpectreV1::program()
                .unwrap()
                .to_string()
        );
        assert_eq!(v1.access_pc, 5);
    }

    #[test]
    fn mutations_splice_after_the_access() {
        let combo = Combo::from_label("kernel-memory/delayed-exception/flush-reload").unwrap();
        let base = Scenario::template(combo);
        let padded = Scenario::compose(combo, vec![Mutation::NopPad]);
        assert_eq!(padded.program.len(), base.program.len() + 1);
        assert_eq!(padded.program[padded.access_pc + 1], Instruction::Nop);
        let laundered = Scenario::compose(combo, vec![Mutation::Launder]);
        assert_eq!(laundered.program.len(), base.program.len() + 2);
        assert!(matches!(
            laundered.program[laundered.access_pc + 1],
            Instruction::Store { .. }
        ));
        assert!(matches!(
            laundered.program[laundered.access_pc + 2],
            Instruction::Load { .. }
        ));
    }

    #[test]
    fn with_removed_shifts_the_bookkeeping() {
        let combo = Combo::from_label("kernel-memory/indirect-branch/flush-reload").unwrap();
        let s = Scenario::template(combo);
        assert_eq!((s.gadget_pc, s.benign_pc, s.access_pc), (4, 3, 4));
        let t = s.with_removed(0).unwrap();
        assert_eq!((t.gadget_pc, t.benign_pc, t.access_pc), (3, 2, 3));
    }
}
