//! The Micro-architectural Data Sampling family — RIDL (load port /
//! line fill buffer), ZombieLoad (line fill buffer) and Fallout (store
//! buffer). A *hard-faulting* load aggressively forwards stale data from a
//! leaky buffer instead of memory (Figure 4, branches ②③④).

use crate::common::{measure, send_epilogue, KERNEL_SECRET, PROBE_BASE, SECRET, UNMAPPED};
use crate::graphs::fig4_faulting_load;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::DelayedException};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::{LineFillBuffer, LoadPort, StoreBuffer};
use tsg::{SecretSource, SecurityAnalysis};
use uarch::{ExceptionBehavior, Machine, Privilege};

/// The sampling gadget: a faulting load at an *unmapped* address (`r5`),
/// then transform & send. The faulting load's "value" is whatever stale
/// data the vulnerable machine forwards from its buffers.
fn sampling_program() -> Result<Program, AttackError> {
    let b = ProgramBuilder::new().load(Reg::R6, Reg::R5, 0); // hard fault: samples a leaky buffer
    send_epilogue(b, "done")
}

/// Stages the attacker's sampling run — unprivileged, faulting at
/// `fault_vaddr`, its handler at the gadget's exit — and returns the
/// sampling program for the caller to measure.
fn stage_sampler(m: &mut Machine, fault_vaddr: u64) -> Result<Program, AttackError> {
    m.set_privilege(Privilege::User);
    let program = sampling_program()?;
    m.set_exception_behavior(ExceptionBehavior::Handler(
        program.label("done").expect("label exists"),
    ));
    m.set_reg(Reg::R5, fault_vaddr);
    m.set_reg(Reg::R3, PROBE_BASE);
    Ok(program)
}

/// Runs a victim load of the kernel secret so the secret transits the
/// line fill buffer (cache miss) or only the load ports (cache hit).
fn victim_loads_secret(m: &mut Machine) -> Result<(), AttackError> {
    m.map_kernel_page(KERNEL_SECRET)?;
    m.write_u64(KERNEL_SECRET, SECRET)?;
    m.set_privilege(Privilege::Kernel);
    let victim = ProgramBuilder::new()
        .load(Reg::R1, Reg::R0, 0)
        .halt()
        .build()?;
    m.set_reg(Reg::R0, KERNEL_SECRET);
    m.run(&victim)?;
    Ok(())
}

/// RIDL: Rogue In-Flight Data Load — samples stale data from the **load
/// ports** (this PoC) or the line fill buffer (see [`ZombieLoad`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ridl;

impl Attack for Ridl {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::RIDL,
            cve: Some("CVE-2018-12127"),
            impact: "Cross-privilege in-flight data sampling",
            authorization: "Load fault check",
            illegal_access: "Forward data from fill buffer and load port",
            point: AttackPoint::new(LoadPort, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "Load Permission Check",
            "Read from load port",
            SecretSource::LoadPort,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        // Victim's secret is already cached, so its load *hits*: the value
        // transits only the load ports — the RIDL datapath.
        m.map_kernel_page(KERNEL_SECRET)?;
        m.write_u64(KERNEL_SECRET, SECRET)?;
        m.touch(KERNEL_SECRET)?;
        m.clear_leaky_buffers(); // LFB/SB now empty; ports refilled below
        victim_loads_secret(m)?;
        let sampler = stage_sampler(m, UNMAPPED)?;
        measure(m, &sampler, SECRET, None)
    }
}

/// ZombieLoad: samples the **line fill buffer** — the victim's secret-line
/// fill is still resident in the LFB when the attacker's faulting load
/// executes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZombieLoad;

impl Attack for ZombieLoad {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::ZOMBIELOAD,
            cve: Some("CVE-2018-12130"),
            impact: "Cross-privilege-boundary data sampling",
            authorization: "Load fault check",
            illegal_access: "Forward data from fill buffer",
            point: AttackPoint::new(LineFillBuffer, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "Load Permission Check",
            "Read from line fill buffer",
            SecretSource::LineFillBuffer,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.clear_leaky_buffers();
        // Victim load *misses*, pulling the secret line through the LFB.
        victim_loads_secret(m)?;
        // Attacker faults at an address whose line offset matches the
        // secret's (offset 0 here); page offsets differ from any store.
        let sampler = stage_sampler(m, UNMAPPED)?;
        measure(m, &sampler, SECRET, None)
    }
}

/// Fallout: samples the **store buffer** — a just-retired victim store's
/// value is forwarded to a faulting load whose *page offset* matches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fallout;

/// Page offset at which the victim stores and the attacker faults.
const FALLOUT_OFFSET: u64 = 0x7C0;

impl Attack for Fallout {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: crate::names::FALLOUT,
            cve: Some("CVE-2018-12126"),
            impact: "Leak of recent kernel stores (MSBDS)",
            authorization: "Load fault check",
            illegal_access: "Forward data from store buffer",
            point: AttackPoint::new(StoreBuffer, DelayedException, FlushReload),
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "Load Permission Check",
            "Read from store buffer",
            SecretSource::StoreBuffer,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        m.clear_leaky_buffers();
        // Victim (kernel) stores the secret at its own address.
        m.map_kernel_page(KERNEL_SECRET)?;
        m.set_privilege(Privilege::Kernel);
        let victim = ProgramBuilder::new()
            .store(Reg::R1, Reg::R0, 0)
            .halt()
            .build()?;
        m.set_reg(Reg::R0, KERNEL_SECRET + FALLOUT_OFFSET);
        m.set_reg(Reg::R1, SECRET);
        m.run(&victim)?;
        // Attacker faults at an unmapped user address with the *same page
        // offset* — the store buffer's partial address match forwards the
        // victim's value.
        let sampler = stage_sampler(m, UNMAPPED + FALLOUT_OFFSET)?;
        measure(m, &sampler, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use crate::common::USER_SCRATCH;
    use uarch::UarchConfig;
    use uarch::{TraceEvent, TransientSource};

    fn forwarded_from(m_events: &[TraceEvent], src: TransientSource) -> bool {
        m_events.iter().any(|e| {
            matches!(e, TraceEvent::TransientForward { source, value, .. }
                if *source == src && *value == SECRET)
        })
    }

    #[test]
    fn ridl_leaks_via_load_port() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.map_kernel_page(KERNEL_SECRET).unwrap();
        m.write_u64(KERNEL_SECRET, SECRET).unwrap();
        m.touch(KERNEL_SECRET).unwrap();
        m.clear_leaky_buffers();
        victim_loads_secret(&mut m).unwrap();
        let sampler = stage_sampler(&mut m, UNMAPPED).unwrap();
        let out = measure(&mut m, &sampler, SECRET, None).unwrap();
        assert!(
            forwarded_from(m.events(), TransientSource::LoadPort),
            "RIDL must sample the load port"
        );
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn zombieload_leaks_via_lfb() {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.clear_leaky_buffers();
        victim_loads_secret(&mut m).unwrap();
        let sampler = stage_sampler(&mut m, UNMAPPED).unwrap();
        let out = measure(&mut m, &sampler, SECRET, None).unwrap();
        assert!(
            forwarded_from(m.events(), TransientSource::LineFillBuffer),
            "ZombieLoad must sample the LFB"
        );
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn fallout_leaks_via_store_buffer() {
        let out = Fallout.run(&UarchConfig::default()).unwrap();
        assert!(out.leaked, "{out}");
    }

    #[test]
    fn all_blocked_by_mds_fix() {
        let cfg = UarchConfig::builder().mds_forwarding(false).build();
        for a in [&Ridl as &dyn Attack, &ZombieLoad, &Fallout] {
            let out = a.run(&cfg).unwrap();
            assert!(!out.leaked, "{}: {out}", a.info().name);
        }
    }

    #[test]
    fn all_blocked_by_buffer_clearing() {
        // VERW-style mitigation: clear the buffers between victim and
        // attacker.
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.clear_leaky_buffers();
        victim_loads_secret(&mut m).unwrap();
        m.clear_leaky_buffers(); // the mitigation
        let sampler = stage_sampler(&mut m, UNMAPPED).unwrap();
        let out = measure(&mut m, &sampler, SECRET, None).unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn all_blocked_by_nda() {
        let cfg = UarchConfig::builder().nda(true).build();
        for a in [&Ridl as &dyn Attack, &ZombieLoad, &Fallout] {
            let out = a.run(&cfg).unwrap();
            assert!(!out.leaked, "{}: {out}", a.info().name);
        }
    }

    #[test]
    fn scratch_region_is_distinct() {
        // Layout sanity: the fault page must be unmapped and distinct from
        // scratch regions used elsewhere.
        assert_ne!(UNMAPPED / 4096, USER_SCRATCH / 4096);
        assert_ne!(UNMAPPED / 4096, KERNEL_SECRET / 4096);
    }
}
