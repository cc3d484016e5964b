//! Shared plumbing for the attack PoCs: memory layout, the covert-channel
//! receiver harness, and event accounting.

use crate::{Attack, AttackError, AttackOutcome};
use channels::flush_reload::{FlushReload, SLOT_STRIDE};
use channels::Reading;
use uarch::mmu::PageTable;
use uarch::{Machine, TraceEvent, UarchConfig, UarchError};

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

/// Fails with [`AttackError::EventLogOverflow`] when the machine's event log
/// dropped events: counts taken from a truncated log would be wrong.
///
/// # Errors
///
/// [`AttackError::EventLogOverflow`] if any event was dropped.
pub fn check_event_log(m: &Machine) -> Result<(), AttackError> {
    match m.events_dropped() {
        0 => Ok(()),
        dropped => Err(AttackError::EventLogOverflow { dropped }),
    }
}

/// Builds the outcome from the machine's event log and the Flush+Reload
/// channel verdict.
///
/// # Errors
///
/// [`AttackError::EventLogOverflow`] if the event log dropped events;
/// otherwise propagates [`AttackError`] from the receive pass.
pub fn finish(
    m: &mut Machine,
    secret: u64,
    start_cycle: u64,
) -> Result<AttackOutcome, AttackError> {
    finish_with(m, secret, start_cycle, |m| probe_channel().receive(m))
}

/// [`finish`] for any covert channel: checks the event log, takes the
/// channel [`Reading`] from `receive`, and builds the outcome from the
/// reading and the log's event counts.
///
/// # Errors
///
/// [`AttackError::EventLogOverflow`] if the event log dropped events;
/// otherwise propagates [`AttackError`] from `receive`.
pub fn finish_with(
    m: &mut Machine,
    secret: u64,
    start_cycle: u64,
    receive: impl FnOnce(&mut Machine) -> Result<Reading, UarchError>,
) -> Result<AttackOutcome, AttackError> {
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
        cycles: m.cycle() - start_cycle,
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

    #[test]
    fn channel_setup_is_clean() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        let ch = probe_channel();
        assert!(ch.resident_slots(&m).unwrap().is_empty());
        assert!(m.events().is_empty());
        // A send then finish() recovers it.
        m.touch(ch.slot_address(SECRET as usize)).unwrap();
        let start = m.cycle();
        let out = finish(&mut m, SECRET, start).unwrap();
        assert!(out.leaked);
        assert_eq!(out.recovered, Some(SECRET));
        assert!(out.cycles > 0);
    }

    #[test]
    fn finish_reports_miss_when_nothing_sent() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        let start = m.cycle();
        let out = finish(&mut m, SECRET, start).unwrap();
        assert!(!out.leaked);
        assert_eq!(out.recovered, None);
    }
}
