//! Foreshadow / L1 Terminal Fault (SGX, OS and VMM flavors) — the
//! Meltdown-family variant that reads the secret **from the L1 data cache**
//! after a *terminal* page fault (present bit clear or reserved bits set),
//! using the stale frame bits of the PTE (Figure 4, branch ①→"Read from
//! Cache").

use crate::common::{measure, send_epilogue, KERNEL_SECRET, PROBE_BASE, SECRET};
use crate::graphs::fig4_faulting_load;
use crate::space::{AttackPoint, Channel::FlushReload, DelayMechanism::DelayedException};
use crate::{Attack, AttackError, AttackInfo, AttackOutcome};
use isa::{Program, ProgramBuilder, Reg};
use tsg::SecretSource::Cache;
use tsg::{SecretSource, SecurityAnalysis};
use uarch::mmu::PageEntry;
use uarch::{ExceptionBehavior, Machine, Privilege};

/// Which isolation boundary the terminal fault breaches — the three rows of
/// Table III this module covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForeshadowFlavor {
    /// The original SGX-enclave attack (CVE-2018-3615).
    Sgx,
    /// Foreshadow-OS (CVE-2018-3620).
    Os,
    /// Foreshadow-VMM (CVE-2018-3646).
    Vmm,
}

/// A Foreshadow attack instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Foreshadow {
    flavor: ForeshadowFlavor,
}

impl Foreshadow {
    /// The SGX-enclave flavor.
    #[must_use]
    pub const fn sgx() -> Self {
        Foreshadow {
            flavor: ForeshadowFlavor::Sgx,
        }
    }

    /// The OS flavor (Foreshadow-NG).
    #[must_use]
    pub const fn os() -> Self {
        Foreshadow {
            flavor: ForeshadowFlavor::Os,
        }
    }

    /// The VMM flavor (Foreshadow-NG).
    #[must_use]
    pub const fn vmm() -> Self {
        Foreshadow {
            flavor: ForeshadowFlavor::Vmm,
        }
    }

    fn program() -> Result<Program, AttackError> {
        let b = ProgramBuilder::new().load(Reg::R6, Reg::R5, 0); // terminal-faulting load
        send_epilogue(b, "done")
    }
}

impl Attack for Foreshadow {
    fn info(&self) -> AttackInfo {
        match self.flavor {
            ForeshadowFlavor::Sgx => AttackInfo {
                name: crate::names::FORESHADOW,
                cve: Some("CVE-2018-3615"),
                impact: "SGX enclave memory leakage",
                authorization: "Page permission check",
                illegal_access: "Read enclave data in L1 cache from outside enclave",
                point: AttackPoint::new(Cache, DelayedException, FlushReload),
            },
            ForeshadowFlavor::Os => AttackInfo {
                name: crate::names::FORESHADOW_OS,
                cve: Some("CVE-2018-3620"),
                impact: "OS memory leakage",
                authorization: "Page permission check",
                illegal_access: "Read kernel data in cache",
                point: AttackPoint::new(Cache, DelayedException, FlushReload),
            },
            ForeshadowFlavor::Vmm => AttackInfo {
                name: crate::names::FORESHADOW_VMM,
                cve: Some("CVE-2018-3646"),
                impact: "VMM memory leakage",
                authorization: "Page permission check",
                illegal_access: "Read VMM data in cache",
                point: AttackPoint::new(Cache, DelayedException, FlushReload),
            },
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        fig4_faulting_load(
            "Load Permission Check",
            "Read from Cache",
            SecretSource::Cache,
        )
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError> {
        // The protected page: PTE exists but the present bit is clear
        // (SGX flavor) or reserved bits are set (NG flavors) — a *terminal*
        // fault whose stale frame bits still address the L1.
        // SGX flavor: present bit cleared; NG flavors: reserved bits set.
        let not_present = self.flavor == ForeshadowFlavor::Sgx;
        m.map_page(
            KERNEL_SECRET,
            PageEntry {
                present: !not_present,
                reserved: !not_present,
                ..PageEntry::user_rw(KERNEL_SECRET / 4096)
            },
        );
        // Plant the secret and — crucially — leave it resident in L1: the
        // enclave/kernel/VM victim touched it recently.
        m.write_u64(KERNEL_SECRET, SECRET)?;
        m.touch(KERNEL_SECRET)?;
        m.set_privilege(Privilege::User);
        let program = Self::program()?;
        m.set_exception_behavior(ExceptionBehavior::Handler(
            program.label("done").expect("label exists"),
        ));
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        measure(m, &program, SECRET, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::machine_with_channel;
    use uarch::UarchConfig;
    use uarch::{TraceEvent, TransientSource};

    #[test]
    fn all_flavors_leak_on_baseline() {
        for a in [Foreshadow::sgx(), Foreshadow::os(), Foreshadow::vmm()] {
            let out = a.run(&UarchConfig::default()).unwrap();
            assert!(out.leaked, "{}: {out}", a.info().name);
        }
    }

    /// Runs the SGX flavor's program with one [`measure`] call on a fresh
    /// machine whose secret line is in the L1 only when `resident`, and
    /// says whether the run forwarded a value from the cache.
    fn measured(resident: bool) -> (AttackOutcome, bool) {
        let mut m = machine_with_channel(&UarchConfig::default()).unwrap();
        m.map_page(
            KERNEL_SECRET,
            PageEntry {
                present: false,
                ..PageEntry::user_rw(KERNEL_SECRET / 4096)
            },
        );
        m.write_u64(KERNEL_SECRET, SECRET).unwrap();
        if resident {
            m.touch(KERNEL_SECRET).unwrap();
        }
        m.set_privilege(Privilege::User);
        let program = Foreshadow::program().unwrap();
        m.set_exception_behavior(ExceptionBehavior::Handler(program.label("done").unwrap()));
        m.set_reg(Reg::R5, KERNEL_SECRET);
        m.set_reg(Reg::R3, PROBE_BASE);
        let out = measure(&mut m, &program, SECRET, None).unwrap();
        let from_cache = m.events().iter().any(|e| {
            matches!(
                e,
                TraceEvent::TransientForward {
                    source: TransientSource::Cache,
                    ..
                }
            )
        });
        (out, from_cache)
    }

    #[test]
    fn secret_comes_from_the_l1() {
        let (out, from_cache) = measured(true);
        assert!(out.leaked, "{out}");
        assert!(
            from_cache,
            "the leak must be a transient forward from the L1"
        );
    }

    #[test]
    fn no_leak_when_secret_not_in_l1() {
        // The secret is only in memory: the terminal fault then has nothing
        // to read — Foreshadow specifically needs L1 residence.
        let (out, from_cache) = measured(false);
        assert!(!out.leaked, "terminal fault must not read memory: {out}");
        assert!(!from_cache);
    }

    #[test]
    fn blocked_by_l1tf_fix() {
        let out = Foreshadow::sgx()
            .run(
                &UarchConfig::builder()
                    .l1tf_forwarding(false)
                    .mds_forwarding(false)
                    .build(),
            )
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_eager_permission_check() {
        let out = Foreshadow::os()
            .run(&UarchConfig::builder().eager_permission_check(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }

    #[test]
    fn blocked_by_strategy2() {
        let out = Foreshadow::vmm()
            .run(&UarchConfig::builder().nda(true).build())
            .unwrap();
        assert!(!out.leaked, "{out}");
    }
}
