//! The differential oracle: every candidate is judged twice — by
//! Theorem 1 over its lifted graph (via [`defenses::graph_race`]) and by
//! end-to-end simulation (via a warm
//! [`attacks::common::BatchRunner`]) — and the two verdicts are compared.
//!
//! Agreement in either direction is evidence the models line up;
//! divergence is a first-class finding. Each divergence is *classified*:
//! the fuzzer knows which mutations are expected to fool which oracle
//! (a dead value or fence silences the simulation but not the graph; a
//! launder or implicit flow evades register dataflow but still leaks on
//! hardware), and anything it cannot explain is reported as
//! [`MissedLeakCause::Unexplained`]/[`FalseSenseCause::Unexplained`] —
//! which the test suite asserts never happens.

use super::gen::{layout, Mutation, Scenario};
use super::memo::LeakMemo;
use super::FuzzError;
use attacks::common::{self, BatchRunner};
use attacks::{Attack, AttackError, AttackInfo, AttackOutcome, Channel, DelayMechanism};
use channels::prime_probe::PrimeProbe;
use isa::{Program, ProgramBuilder, Reg};
use std::sync::Arc;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ContextId, ExceptionBehavior, Machine, Privilege, UarchConfig};

/// Why the graph predicts a leak the simulation does not reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissedLeakCause {
    /// A [`Mutation::DeadValue`] zeroed the secret before the send:
    /// taint tracking keeps the dependence, the value is gone.
    DeadValue,
    /// A [`Mutation::FencedSend`] stalls the send past resolution: the
    /// graph race (authorization vs. *access*) is untouched.
    FencedSend,
    /// No mutation explains it — a genuine model gap. Tests fail on it.
    Unexplained,
}

/// Why the simulation leaks where the graph predicts safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FalseSenseCause {
    /// A [`Mutation::Launder`] broke register-level taint through
    /// memory; the hardware value survives the round-trip.
    Launder,
    /// A [`Mutation::ImplicitFlow`] carries the secret on control flow;
    /// there is no address-dependent send for the analyzer to find.
    ImplicitFlow,
    /// No mutation explains it — a genuine model gap. Tests fail on it.
    Unexplained,
}

/// The comparison of the two oracles' verdicts on one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agreement {
    /// Both predict a leak.
    AgreeLeak,
    /// Both predict safety.
    AgreeSafe,
    /// Theorem 1 races, the simulation stays clean: the *simulation*
    /// missed the predicted leak.
    MissedLeak(MissedLeakCause),
    /// Theorem 1 sees no race, the simulation leaks: the *graph* gives a
    /// false sense of security.
    FalseSense(FalseSenseCause),
}

impl Agreement {
    /// Stable corpus tag for the bucket.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Agreement::AgreeLeak => "agree-leak",
            Agreement::AgreeSafe => "agree-safe",
            Agreement::MissedLeak(MissedLeakCause::DeadValue) => "missed-leak/dead-value",
            Agreement::MissedLeak(MissedLeakCause::FencedSend) => "missed-leak/fenced-send",
            Agreement::MissedLeak(MissedLeakCause::Unexplained) => "missed-leak/unexplained",
            Agreement::FalseSense(FalseSenseCause::Launder) => "false-sense/launder",
            Agreement::FalseSense(FalseSenseCause::ImplicitFlow) => "false-sense/implicit-flow",
            Agreement::FalseSense(FalseSenseCause::Unexplained) => "false-sense/unexplained",
        }
    }

    /// Parses an [`Agreement::tag`] back.
    #[must_use]
    pub fn from_tag(t: &str) -> Option<Agreement> {
        Some(match t {
            "agree-leak" => Agreement::AgreeLeak,
            "agree-safe" => Agreement::AgreeSafe,
            "missed-leak/dead-value" => Agreement::MissedLeak(MissedLeakCause::DeadValue),
            "missed-leak/fenced-send" => Agreement::MissedLeak(MissedLeakCause::FencedSend),
            "missed-leak/unexplained" => Agreement::MissedLeak(MissedLeakCause::Unexplained),
            "false-sense/launder" => Agreement::FalseSense(FalseSenseCause::Launder),
            "false-sense/implicit-flow" => Agreement::FalseSense(FalseSenseCause::ImplicitFlow),
            "false-sense/unexplained" => Agreement::FalseSense(FalseSenseCause::Unexplained),
            _ => return None,
        })
    }

    /// Whether this is a divergence the classifier could not explain.
    #[must_use]
    pub fn is_unexplained(&self) -> bool {
        matches!(
            self,
            Agreement::MissedLeak(MissedLeakCause::Unexplained)
                | Agreement::FalseSense(FalseSenseCause::Unexplained)
        )
    }
}

/// Both oracles' verdicts on one scenario, plus the lifted shape.
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// Canonical fingerprint of the lifted graph (pre-minimization).
    pub raw_fingerprint: u64,
    /// Theorem 1 on the lifted graph: authorization races secret access.
    pub graph_leak: bool,
    /// The simulation leaked *transiently* (recovered the secret with at
    /// least one squash, i.e. not through an architectural path).
    pub sim_leak: bool,
    /// The raw simulation outcome.
    pub outcome: AttackOutcome,
}

impl Verdicts {
    /// Classifies the verdict pair against the scenario's mutation list.
    #[must_use]
    pub fn agreement(&self, scenario: &Scenario) -> Agreement {
        classify_agreement(self.graph_leak, self.sim_leak, &scenario.mutations)
    }
}

/// The pure classification rule: verdict pair × mutation tags → bucket.
/// Mutations are checked in priority order — the strongest suppressor of
/// each oracle wins (a dead value silences the simulation even when a
/// launder is also present).
#[must_use]
fn classify_agreement(graph_leak: bool, sim_leak: bool, mutations: &[Mutation]) -> Agreement {
    match (graph_leak, sim_leak) {
        (true, true) => Agreement::AgreeLeak,
        (false, false) => Agreement::AgreeSafe,
        (true, false) => Agreement::MissedLeak(if mutations.contains(&Mutation::DeadValue) {
            MissedLeakCause::DeadValue
        } else if mutations.contains(&Mutation::FencedSend) {
            MissedLeakCause::FencedSend
        } else {
            MissedLeakCause::Unexplained
        }),
        (false, true) => Agreement::FalseSense(if mutations.contains(&Mutation::ImplicitFlow) {
            FalseSenseCause::ImplicitFlow
        } else if mutations.contains(&Mutation::Launder) {
            FalseSenseCause::Launder
        } else {
            FalseSenseCause::Unexplained
        }),
    }
}

/// The dual classifier: one warm pooled machine for the simulation side,
/// one lift per question for the graph side. [`DualOracle::new`]
/// evaluates every question it is asked; inside [`super::fuzz`], a
/// batch classifies each distinct candidate once, and the oracles of its
/// minimizations share one memo of [`DualOracle::both_leak`] answers.
#[derive(Debug, Default)]
pub struct DualOracle {
    runner: BatchRunner,
    cfg: UarchConfig,
    /// Both-leak answers shared with the batch's other minimizations
    /// (`None`: every question is evaluated).
    memo: Option<Arc<LeakMemo>>,
}

impl DualOracle {
    /// An oracle over the default micro-architecture.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An oracle whose [`DualOracle::both_leak`] answers go through
    /// `memo`, shared with other oracles of the same batch.
    pub(crate) fn sharing(memo: Arc<LeakMemo>) -> Self {
        DualOracle {
            memo: Some(memo),
            ..Self::default()
        }
    }

    /// Runs both oracles on `scenario`.
    ///
    /// # Errors
    ///
    /// [`FuzzError`] if the lift or the simulation rejects the program —
    /// generated candidates never do; shrink candidates may, and the
    /// shrinker treats an error as "mutation rejected".
    pub fn classify(&mut self, scenario: &Scenario) -> Result<Verdicts, FuzzError> {
        let analysis = analyzer::lift(&scenario.program, &scenario.lift_config())?;
        let raw_fingerprint = analysis.graph().shape_fingerprint();
        let graph_leak = defenses::graph_race(&analysis);
        let outcome = self.runner.run(scenario, &self.cfg)?;
        Ok(Verdicts {
            raw_fingerprint,
            graph_leak,
            sim_leak: transient_leak(&outcome),
            outcome,
        })
    }

    /// Whether both oracles call `scenario` a leak: the answer
    /// `classify(scenario).map(|v| v.graph_leak && v.sim_leak)` gives,
    /// with any error meaning "no". Cheaper than [`DualOracle::classify`]
    /// because it skips the fingerprint and simulates only when the graph
    /// races — the shrinker's yes/no question. A memo-sharing oracle
    /// evaluates only questions its batch has not answered yet.
    #[must_use]
    pub fn both_leak(&mut self, scenario: &Scenario) -> bool {
        let (runner, cfg) = (&mut self.runner, &self.cfg);
        let mut evaluate = |s: &Scenario| {
            analyzer::lift(&s.program, &s.lift_config())
                .is_ok_and(|analysis| defenses::graph_race(&analysis))
                && runner
                    .run(s, cfg)
                    .is_ok_and(|outcome| transient_leak(&outcome))
        };
        match &self.memo {
            Some(memo) => memo.answer(scenario, evaluate),
            None => evaluate(scenario),
        }
    }
}

/// The simulation verdict: the secret was recovered *transiently* (with at
/// least one squash), not through an architectural path.
fn transient_leak(outcome: &AttackOutcome) -> bool {
    outcome.leaked && outcome.squashes > 0
}

impl Attack for Scenario {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: "Synthesized scenario",
            cve: None,
            impact: "Fuzzer-composed transient leak candidate",
            authorization: self.combo.delay.authorization_label(),
            illegal_access: self.combo.access_label(),
            point: *self.combo,
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        analyzer::lift(&self.program, &self.lift_config()).expect("valid programs always lift")
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        drive(self, m)
    }
}

/// The covert-channel half of the driver, dispatching on dimension 3.
struct ChannelDriver {
    /// Prime+Probe; Flush+Reload otherwise.
    prime_probe: bool,
}

impl ChannelDriver {
    fn new(channel: Channel) -> Self {
        ChannelDriver {
            prime_probe: channel == Channel::PrimeProbe,
        }
    }

    /// The base address the gadget's `r3` must hold.
    fn base(&self) -> u64 {
        if self.prime_probe {
            layout::SENDER_BASE
        } else {
            layout::PROBE_BASE
        }
    }

    fn receiver(&self) -> PrimeProbe {
        PrimeProbe::with_base_set(layout::PRIME_BASE, layout::PP_SYMBOLS, layout::PP_BASE_SET)
    }

    /// Maps whatever sender-side memory the channel needs.
    fn map(&self, m: &mut Machine) -> Result<(), AttackError> {
        if self.prime_probe {
            m.map_user_page(layout::SENDER_BASE)?;
        }
        Ok(())
    }

    /// (Re-)establishes the receiver right before the attack run —
    /// training runs execute the send architecturally and would otherwise
    /// pollute the measurement. The probe pages are already mapped (the
    /// runner prepared the channel), so Flush+Reload only re-flushes.
    fn pre_attack(&self, m: &mut Machine) -> Result<(), AttackError> {
        if self.prime_probe {
            self.receiver().prime(m)?;
        } else {
            common::probe_channel().rearm(m)?;
        }
        Ok(())
    }

    /// The driver's one measured step: runs the victim `program`,
    /// switches to `receiver` if given, and receives over this channel.
    fn measure(
        &self,
        m: &mut Machine,
        program: &Program,
        secret: u64,
        receiver: Option<ContextId>,
    ) -> Result<AttackOutcome, AttackError> {
        if self.prime_probe {
            common::measure_with(m, program, secret, receiver, |m| self.receiver().probe(m))
        } else {
            common::measure(m, program, secret, receiver)
        }
    }
}

/// Where the secret was planted and what `r5` must hold in each phase.
struct SourcePlan {
    /// `r5` during training runs (a legal address / unused).
    train_r5: u64,
    /// `r5` during the attack run (the out-of-reach address / unused).
    attack_r5: u64,
    /// Whether the victim runs unprivileged with an exception handler.
    privileged: bool,
}

/// Maps and plants the secret for dimension 1. Must run while the machine
/// is still privileged (the kernel plant needs it).
fn plant_source(s: &Scenario, m: &mut Machine) -> Result<SourcePlan, AttackError> {
    let secret = s.secret_value();
    match s.combo.source {
        SecretSource::ArchitecturalMemory if s.combo.delay == DelayMechanism::ConditionalBranch => {
            // The indexed (bounds-check bypass) shape: secret out of
            // bounds, in-bounds words non-zero for training.
            m.map_user_page(layout::VICTIM_ARRAY)?;
            m.write_u64(layout::VICTIM_ARRAY + layout::OOB_INDEX * 8, secret)?;
            for i in 0..layout::BOUND {
                m.write_u64(layout::VICTIM_ARRAY + i * 8, 1)?;
            }
            Ok(SourcePlan {
                train_r5: 0,
                attack_r5: 0,
                privileged: false,
            })
        }
        SecretSource::ArchitecturalMemory => {
            // Direct load of a victim-private cell.
            m.map_user_page(layout::VICTIM_SECRET)?;
            m.write_u64(layout::VICTIM_SECRET, secret)?;
            Ok(SourcePlan {
                train_r5: layout::VICTIM_SECRET,
                attack_r5: layout::VICTIM_SECRET,
                privileged: false,
            })
        }
        SecretSource::Memory => {
            m.map_kernel_page(layout::KERNEL_SECRET)?;
            m.write_u64(layout::KERNEL_SECRET, secret)?;
            // Legal training cell, non-zero so the send guard is trained.
            m.write_u64(layout::USER_SCRATCH, 1)?;
            Ok(SourcePlan {
                train_r5: layout::USER_SCRATCH,
                attack_r5: layout::KERNEL_SECRET,
                privileged: true,
            })
        }
        // A special register: the only other executable source.
        _ => {
            m.set_msr(layout::TARGET_MSR, secret);
            Ok(SourcePlan {
                train_r5: 0,
                attack_r5: 0,
                privileged: true,
            })
        }
    }
}

/// Register file for one victim run. `r12`/`r13` feed the implicit-flow
/// epilogue and are harmless otherwise.
fn set_victim_regs(m: &mut Machine, chan_base: u64, r0: u64, r5: u64, secret: u64) {
    m.set_reg(Reg::R0, r0);
    m.set_reg(Reg::R1, layout::VICTIM_ARRAY);
    m.set_reg(Reg::R2, layout::BOUND_PTR);
    m.set_reg(Reg::R3, chan_base);
    m.set_reg(Reg::R5, r5);
    m.set_reg(Reg::R9, layout::TARGET_PTR);
    m.set_reg(Reg::R10, layout::USER_SCRATCH + 0x200);
    m.set_reg(Reg::R12, secret);
    m.set_reg(Reg::R13, layout::PROBE_BASE + secret * layout::PROBE_STRIDE);
}

/// Runs the scenario end-to-end on a prepared machine — the `run_in`
/// body, dispatching the delay-family driver.
fn drive(s: &Scenario, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
    let chan = ChannelDriver::new(s.combo.channel);
    let secret = s.secret_value();
    m.map_user_page(layout::USER_SCRATCH)?;
    chan.map(m)?;
    let out_pc = s.program.label("out").unwrap_or(s.program.len() - 1);
    match s.combo.delay {
        DelayMechanism::ConditionalBranch => {
            m.map_user_page(layout::BOUND_PTR)?;
            m.write_u64(layout::BOUND_PTR, layout::BOUND_CELL)?;
            m.write_u64(layout::BOUND_CELL, layout::BOUND)?;
            let plan = plant_source(s, m)?;
            if plan.privileged {
                m.set_privilege(Privilege::User);
                m.set_exception_behavior(ExceptionBehavior::Handler(out_pc));
            }
            // Train the bounds check in-bounds.
            for i in 0..4 {
                set_victim_regs(m, chan.base(), i % layout::BOUND, plan.train_r5, secret);
                m.run(&s.program)?;
            }
            // Attack: delayed authorization + out-of-bounds index.
            m.flush_line(layout::BOUND_PTR)?;
            m.flush_line(layout::BOUND_CELL)?;
            chan.pre_attack(m)?;
            set_victim_regs(m, chan.base(), layout::OOB_INDEX, plan.attack_r5, secret);
            chan.measure(m, &s.program, secret, None)
        }
        DelayMechanism::IndirectBranch => {
            m.map_user_page(layout::TARGET_PTR)?;
            m.map_user_page(layout::TARGET_CELL)?;
            m.write_u64(layout::TARGET_PTR, layout::TARGET_CELL)?;
            let plan = plant_source(s, m)?;
            if plan.privileged {
                m.set_privilege(Privilege::User);
                m.set_exception_behavior(ExceptionBehavior::Handler(out_pc));
            }
            // Train the BTB onto the gadget (legal r5 keeps it benign).
            m.write_u64(layout::TARGET_CELL, s.gadget_pc as u64)?;
            for _ in 0..3 {
                set_victim_regs(m, chan.base(), 0, plan.train_r5, secret);
                m.run(&s.program)?;
            }
            // Attack: benign architectural target, stale prediction,
            // delayed resolution via the flushed target chain.
            m.write_u64(layout::TARGET_CELL, s.benign_pc as u64)?;
            m.flush_line(layout::TARGET_PTR)?;
            m.flush_line(layout::TARGET_CELL)?;
            chan.pre_attack(m)?;
            set_victim_regs(m, chan.base(), 0, plan.attack_r5, secret);
            chan.measure(m, &s.program, secret, None)
        }
        DelayMechanism::ReturnAddress => {
            if s.gadget_pc == 0 {
                // A shrink candidate deleted the whole prologue: there is
                // no call site to pollute the RSB from.
                return Err(AttackError::Isa(isa::IsaError::TargetOutOfRange {
                    target: 0,
                    len: 0,
                }));
            }
            m.map_user_page(layout::DELAY_CELL)?;
            let plan = plant_source(s, m)?;
            let behavior = if plan.privileged {
                ExceptionBehavior::Handler(out_pc)
            } else {
                ExceptionBehavior::Halt
            };
            let victim_ctx = m.add_context(Privilege::User, behavior);
            // Attacker pollutes the RSB with the gadget pc and yields.
            m.run(&attacker_binary(s.gadget_pc)?)?;
            chan.pre_attack(m)?;
            let attacker_ctx = m.current_context();
            // Victim: slow delay load, then a `ret` predicted from the
            // stale RSB entry.
            m.switch_context(victim_ctx)?;
            m.flush_line(layout::DELAY_CELL)?;
            if s.combo.source == SecretSource::ArchitecturalMemory {
                m.touch(layout::VICTIM_SECRET)?;
            }
            set_victim_regs(m, chan.base(), 0, plan.attack_r5, secret);
            m.set_reg(Reg::R2, layout::DELAY_CELL);
            chan.measure(m, &s.program, secret, Some(attacker_ctx))
        }
        // A delayed exception: the only other executable delay.
        _ => {
            let plan = plant_source(s, m)?;
            m.set_privilege(Privilege::User);
            m.set_exception_behavior(ExceptionBehavior::Handler(out_pc));
            chan.pre_attack(m)?;
            set_victim_regs(m, chan.base(), 0, plan.attack_r5, secret);
            chan.measure(m, &s.program, secret, None)
        }
    }
}

/// The return-family attacker: a `call` at `gadget_pc - 1` pushes
/// `gadget_pc` onto the RSB; the callee exits without returning, leaving
/// the entry stale for the victim's `ret`.
fn attacker_binary(gadget_pc: usize) -> Result<Program, AttackError> {
    let mut b = ProgramBuilder::new();
    for _ in 0..gadget_pc - 1 {
        b = b.nop();
    }
    Ok(b.call("f").halt().label("f")?.halt().build()?)
}

#[cfg(test)]
mod tests {
    use super::super::gen::Combo;
    use super::*;

    #[test]
    fn every_identity_combo_agrees_on_leak() {
        let mut oracle = DualOracle::new();
        for &c in Combo::all() {
            let s = Scenario::template(c);
            let v = oracle.classify(&s).unwrap();
            assert_eq!(
                v.agreement(&s),
                Agreement::AgreeLeak,
                "{}: graph={} sim={} outcome={:?}",
                c.label(),
                v.graph_leak,
                v.sim_leak,
                v.outcome
            );
        }
    }

    #[test]
    fn known_combos_reproduce_catalog_outcomes() {
        let mut oracle = DualOracle::new();
        let c = Combo::from_label("architectural-memory/conditional-branch/flush-reload").unwrap();
        let v = oracle.classify(&Scenario::template(c)).unwrap();
        assert!(v.sim_leak && v.graph_leak);
        assert_eq!(v.outcome.recovered, Some(layout::FR_SECRET));
    }

    #[test]
    fn divergence_mutations_classify_as_designed() {
        let mut oracle = DualOracle::new();
        let base =
            Combo::from_label("architectural-memory/conditional-branch/flush-reload").unwrap();
        for (mutations, want) in [
            (
                vec![Mutation::DeadValue],
                Agreement::MissedLeak(MissedLeakCause::DeadValue),
            ),
            (
                vec![Mutation::FencedSend],
                Agreement::MissedLeak(MissedLeakCause::FencedSend),
            ),
            (
                vec![Mutation::ImplicitFlow],
                Agreement::FalseSense(FalseSenseCause::ImplicitFlow),
            ),
        ] {
            let s = Scenario::compose(base, mutations.clone());
            let v = oracle.classify(&s).unwrap();
            assert_eq!(v.agreement(&s), want, "{mutations:?}: {v:?}");
        }
    }

    #[test]
    fn leak_preserving_mutations_keep_agreement() {
        let mut oracle = DualOracle::new();
        let base = Combo::from_label("kernel-memory/delayed-exception/flush-reload").unwrap();
        for mutations in [vec![Mutation::NopPad], vec![Mutation::ExtendTransform]] {
            let s = Scenario::compose(base, mutations.clone());
            let v = oracle.classify(&s).unwrap();
            assert!(!v.agreement(&s).is_unexplained(), "{mutations:?}: {v:?}");
            assert!(v.sim_leak, "{mutations:?} must keep the sim leak: {v:?}");
        }
    }

    #[test]
    fn agreement_tags_round_trip() {
        for a in [
            Agreement::AgreeLeak,
            Agreement::AgreeSafe,
            Agreement::MissedLeak(MissedLeakCause::DeadValue),
            Agreement::MissedLeak(MissedLeakCause::FencedSend),
            Agreement::MissedLeak(MissedLeakCause::Unexplained),
            Agreement::FalseSense(FalseSenseCause::Launder),
            Agreement::FalseSense(FalseSenseCause::ImplicitFlow),
            Agreement::FalseSense(FalseSenseCause::Unexplained),
        ] {
            assert_eq!(Agreement::from_tag(a.tag()), Some(a));
        }
    }
}
