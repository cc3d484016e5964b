//! Shared plumbing for the attack PoCs: memory layout, the Flush+Reload
//! send gadget, and the measured step ([`measure`]) that runs the victim,
//! receives over the covert channel and builds the outcome.

use crate::{Attack, AttackError, AttackOutcome};
use channels::flush_reload::{FlushReload, SLOT_STRIDE};
use channels::Reading;
use isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use uarch::mmu::PageTable;
use uarch::{ContextId, Machine, Switches, TraceEvent, UarchConfig, UarchError};

/// Probe array base for the Flush+Reload channel (step 1a).
pub const PROBE_BASE: u64 = 0x100_0000;

/// Number of probe slots: one byte of secret per pass.
pub const PROBE_SLOTS: usize = 256;

/// Victim in-bounds array (Spectre v1 family).
pub const VICTIM_ARRAY: u64 = 0x1000;

/// Two-level pointer chain that delays the bounds check: `BOUND_PTR`
/// holds the address of `BOUND_CELL`, which holds the array length.
/// Flushing both lines makes the *authorization* ~2 misses slow — the
/// speculation window.
pub const BOUND_PTR: u64 = 0x2000;

/// Second hop of the bound pointer chain.
pub const BOUND_CELL: u64 = 0x2100;

/// Kernel page holding the Meltdown/Foreshadow secret.
pub const KERNEL_SECRET: u64 = 0x20_0000;

/// A scratch user page various PoCs use.
pub const USER_SCRATCH: u64 = 0x30_0000;

/// An *unmapped* virtual page used by MDS PoCs for their faulting loads.
pub const UNMAPPED: u64 = 0x66_0000;

/// The byte value planted as the secret in every PoC (non-zero so the
/// architectural re-execution guard `beq r, zero` can filter dead paths).
pub const SECRET: u64 = 0xA7;

/// The Flush+Reload channel every PoC uses by default.
#[must_use]
pub fn probe_channel() -> FlushReload {
    FlushReload::new(PROBE_BASE, PROBE_SLOTS)
}

/// The slot stride as an immediate for attack programs
/// (`send_addr = PROBE_BASE + secret * PROBE_STRIDE`).
pub const PROBE_STRIDE: u64 = SLOT_STRIDE;

/// The Flush+Reload send gadget (§II-C steps 3–4): turns the value in `r6`
/// into a fill of its probe slot (`r3` holds [`PROBE_BASE`]), then halts
/// at `exit`. The `beq r6, zero` guard keeps architectural re-executions
/// (which see 0) from polluting the channel.
///
/// # Errors
///
/// [`AttackError::Isa`] if `exit` is already a label of `b` or a branch
/// of `b` targets a label that does not exist.
pub(crate) fn send_epilogue(b: ProgramBuilder, exit: &str) -> Result<Program, AttackError> {
    Ok(b.branch_if(Cond::Eq, Reg::R6, Reg::ZERO, exit)
        .alu_imm(AluOp::Mul, Reg::R7, Reg::R6, PROBE_STRIDE) // use secret
        .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
        .load(Reg::R8, Reg::R7, 0) // send: Load R to cache
        .label(exit)?
        .halt()
        .build()?)
}

/// Fails with [`AttackError::EventLogOverflow`] when the machine's event log
/// dropped events: counts taken from a truncated log would be wrong.
fn check_event_log(m: &Machine) -> Result<(), AttackError> {
    match m.events_dropped() {
        0 => Ok(()),
        dropped => Err(AttackError::EventLogOverflow { dropped }),
    }
}

/// The measured part of every attack run: clears the event log, marks the
/// start cycle, runs `victim` (the delayed authorization, the transient
/// access, the use and the send), switches to `receiver` if one is given,
/// and does the Flush+Reload receive (step 5): reload, time and flush each
/// probe slot. The outcome's event counts are the victim run's; its
/// `cycles` span the run and the receive's reloads (the flushes cost
/// none).
///
/// Everything before the call — set-up, training, re-arming the channel —
/// is outside the measurement. The receive logs no events, so afterwards
/// [`Machine::events`] still holds exactly the victim run's events, and it
/// leaves no probe slot resident.
///
/// # Errors
///
/// [`AttackError::EventLogOverflow`] if the event log dropped events;
/// otherwise propagates [`AttackError`] from the run, the context switch
/// or the receive pass.
pub fn measure(
    m: &mut Machine,
    victim: &Program,
    secret: u64,
    receiver: Option<ContextId>,
) -> Result<AttackOutcome, AttackError> {
    measure_with(m, victim, secret, receiver, |m| probe_channel().receive(m))
}

/// [`measure`] for any covert channel: the channel [`Reading`] comes from
/// `receive`, which runs after the victim run and the switch to
/// `receiver`.
///
/// # Errors
///
/// As [`measure`], with `receive`'s errors in place of the Flush+Reload
/// receive's.
pub fn measure_with(
    m: &mut Machine,
    victim: &Program,
    secret: u64,
    receiver: Option<ContextId>,
    receive: impl FnOnce(&mut Machine) -> Result<Reading, UarchError>,
) -> Result<AttackOutcome, AttackError> {
    m.clear_events();
    let start = m.cycle();
    m.run(victim)?;
    if let Some(ctx) = receiver {
        m.switch_context(ctx)?;
    }
    check_event_log(m)?;
    let reading = receive(m)?;
    let recovered = reading.recovered.map(|s| s as u64);
    let mut transient_forwards = 0;
    let mut squashes = 0;
    let mut defense_blocks = 0;
    for e in m.events() {
        match e {
            TraceEvent::TransientForward { .. } => transient_forwards += 1,
            TraceEvent::Squash { .. } => squashes += 1,
            TraceEvent::DefenseBlocked { .. } => defense_blocks += 1,
            _ => {}
        }
    }
    Ok(AttackOutcome {
        secret,
        recovered,
        leaked: recovered == Some(secret),
        transient_forwards,
        squashes,
        defense_blocks,
        cycles: m.cycle() - start,
    })
}

/// Prepares the probe channel (mapped + flushed) on a pristine machine —
/// fresh from [`Machine::new`] or [`Machine::reset`] — and clears the event
/// log: the common step-1 setup shared by the per-call and batched paths.
///
/// # Errors
///
/// Propagates [`AttackError`] from channel preparation.
pub fn prepare_channel(m: &mut Machine) -> Result<(), AttackError> {
    probe_channel().prepare(m)?;
    m.clear_events();
    Ok(())
}

/// Creates a machine with the probe channel prepared (mapped + flushed) and
/// the event log cleared — the common step-1 setup.
///
/// # Errors
///
/// Propagates [`AttackError`] from channel preparation.
pub fn machine_with_channel(cfg: &UarchConfig) -> Result<Machine, AttackError> {
    let mut m = Machine::new(cfg.clone());
    prepare_channel(&mut m)?;
    Ok(m)
}

/// A warm-machine pool of one: runs attacks back-to-back on a single
/// reusable [`Machine`], resetting (never rebuilding) between runs.
///
/// [`BatchRunner::run`] is observationally identical to [`Attack::run`] —
/// [`Machine::reset`] restores pristine post-`new` state and the covert
/// channel is re-established — but skips every per-cell heap allocation,
/// which dominates campaign setup cost. Each campaign worker thread owns
/// one `BatchRunner`.
///
/// The first run prepares the channel with [`prepare_channel`] and keeps
/// the page table it produced. Later runs restore that snapshot after the
/// reset instead of re-mapping and re-flushing every probe page: the
/// mappings do not depend on the configuration, and flushing lines out of
/// a reset (empty) cache changes nothing.
#[derive(Debug, Default)]
pub struct BatchRunner {
    machine: Option<Machine>,
    prepared_pages: Option<PageTable>,
}

impl BatchRunner {
    /// Creates an empty pool; the machine is built lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `attack` under `cfg` on the pooled machine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Attack::run`].
    pub fn run(
        &mut self,
        attack: &dyn Attack,
        cfg: &UarchConfig,
    ) -> Result<AttackOutcome, AttackError> {
        let m = match self.machine.as_mut() {
            Some(m) => {
                m.reset(cfg);
                m
            }
            None => self.machine.insert(Machine::new(cfg.clone())),
        };
        match &self.prepared_pages {
            Some(pages) => {
                m.restore_page_table(pages);
                m.clear_events();
            }
            None => {
                prepare_channel(m)?;
                self.prepared_pages = Some(m.page_table().clone());
            }
        }
        attack.run_in(m)
    }

    /// The switches the last [`BatchRunner::run`] read
    /// ([`Machine::consulted`]); every switch before the first run. A
    /// deterministic attack gives the same outcome on any configuration
    /// that agrees with the last one on these and on every non-switch
    /// field.
    #[must_use]
    pub fn consulted(&self) -> Switches {
        self.machine
            .as_ref()
            .map_or(Switches::ALL, Machine::consulted)
    }
}

/// A shared checkout/checkin pool of warm [`BatchRunner`]s for callers
/// whose workers are not long-lived threads — e.g. a verdict-store
/// simulate-on-miss path where any request thread may need a machine for
/// one run.
///
/// `checkout` hands back an idle warm runner when one exists (its machine
/// survives from the previous user, so the next [`BatchRunner::run`] is a
/// reset, not a rebuild) and a cold one otherwise; `checkin` returns the
/// runner for the next caller. The pool never blocks: contention degrades
/// to building a fresh runner, never to waiting.
#[derive(Debug, Default)]
pub struct RunnerPool {
    idle: std::sync::Mutex<Vec<BatchRunner>>,
}

impl RunnerPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a runner out of the pool — warm if one is idle, freshly
    /// built otherwise.
    #[must_use]
    pub fn checkout(&self) -> BatchRunner {
        self.idle
            .lock()
            .map(|mut idle| idle.pop())
            .unwrap_or_default()
            .unwrap_or_default()
    }

    /// Returns a runner to the pool so its warm machine serves the next
    /// [`RunnerPool::checkout`].
    pub fn checkin(&self, runner: BatchRunner) {
        if let Ok(mut idle) = self.idle.lock() {
            idle.push(runner);
        }
    }

    /// How many warm runners are currently idle in the pool.
    #[cfg(test)]
    fn idle_runners(&self) -> usize {
        self.idle.lock().map(|idle| idle.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::{ExceptionBehavior, Privilege};

    #[test]
    fn runner_pool_checkout_checkin_keeps_machines_warm() {
        let pool = RunnerPool::new();
        assert_eq!(pool.idle_runners(), 0);
        let mut r = pool.checkout();
        let out = r
            .run(crate::registry()[0], &uarch::UarchConfig::default())
            .unwrap();
        assert!(out.cycles > 0);
        pool.checkin(r);
        assert_eq!(pool.idle_runners(), 1);
        // The next checkout reuses the warm runner instead of building one.
        let _warm = pool.checkout();
        assert_eq!(pool.idle_runners(), 0);
    }

    #[test]
    fn event_log_overflow_fails_the_run() {
        let cfg = UarchConfig::builder().max_events(2).build();
        let attack = crate::registry()[0];
        let overflowed = |r: Result<AttackOutcome, AttackError>| match r {
            Err(AttackError::EventLogOverflow { dropped }) => dropped > 0,
            _ => false,
        };
        assert!(overflowed(attack.run(&cfg)));
        let mut runner = BatchRunner::new();
        // The cold first run and a warm run on the restored snapshot.
        assert!(overflowed(runner.run(attack, &cfg)));
        assert!(overflowed(runner.run(attack, &cfg)));
        // The same runner with a roomy log succeeds again.
        assert!(runner.run(attack, &UarchConfig::default()).unwrap().leaked);
    }

    /// A victim whose send gadget fills the probe slot of `SECRET`.
    fn sending_victim() -> Program {
        send_epilogue(ProgramBuilder::new().imm(Reg::R6, SECRET), "out").unwrap()
    }

    #[test]
    fn channel_setup_is_clean() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        assert!(probe_channel().resident_slots(&m).unwrap().is_empty());
        assert!(m.events().is_empty());
        // A victim that sends the secret: measure() recovers it.
        m.set_reg(Reg::R3, PROBE_BASE);
        let out = measure(&mut m, &sending_victim(), SECRET, None).unwrap();
        assert!(out.leaked);
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.cycles > 0);
    }

    #[test]
    fn measure_reports_miss_when_nothing_sent() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        let halt = ProgramBuilder::new().halt().build().unwrap();
        let out = measure(&mut m, &halt, SECRET, None).unwrap();
        assert!(!out.leaked);
        assert_eq!(out.recovered, None);
    }

    #[test]
    fn measure_receives_in_the_receivers_cache_domain() {
        // Under DAWG partitioning the victim's fill is visible only in its
        // own domain: receiving there recovers the secret, receiving after
        // the switch back to the attacker's domain does not.
        let cfg = UarchConfig::builder().dawg(true).build();
        let run = |receive_in_victim_domain: bool| {
            let mut m = machine_with_channel(&cfg).unwrap();
            let attacker = m.current_context();
            let victim = m.add_context(Privilege::User, ExceptionBehavior::Halt);
            m.switch_context(victim).unwrap();
            m.set_reg(Reg::R3, PROBE_BASE);
            let receiver = (!receive_in_victim_domain).then_some(attacker);
            measure(&mut m, &sending_victim(), SECRET, receiver).unwrap()
        };
        assert!(run(true).leaked);
        let out = run(false);
        assert!(!out.leaked, "{out}");
        assert_eq!(out.recovered, None);
    }
}
