//! # `attacks` — executable speculative-execution attack variants
//!
//! Every attack of Table III of "New Models for Understanding and Reasoning
//! about Speculative Execution Attacks" (HPCA 2021), each provided as:
//!
//! 1. an **executable proof of concept** on the [`uarch`] simulator
//!    ([`Attack::run`]): the attack program is written in the [`isa`],
//!    mis-trains/faults its way into a transient window, exfiltrates a
//!    planted secret through a Flush+Reload channel, and reports whether
//!    the secret was recovered. Set-up and training differ per variant;
//!    the measured part — the victim run, the switch back to the
//!    receiver and the step-5 receive — is one shared step,
//!    [`common::measure`];
//! 2. an **attack graph** ([`Attack::graph`]): the paper's TSG model of the
//!    same attack (Figures 1 and 3–7), with the authorization → access
//!    security-dependency requirements declared, so the missing edges can
//!    be found with Theorem 1 and patched;
//! 3. **catalog metadata** ([`Attack::info`]): CVE, impact, authorization
//!    and illegal-access node names — the rows of Tables I and III — and
//!    the attack's point in §V-A's design space ([`space`]: secret source ×
//!    authorization delay × covert channel), from which its Spectre- or
//!    Meltdown-type class and the published variants at every point are
//!    derived.
//!
//! ```
//! use attacks::registry;
//! use uarch::UarchConfig;
//!
//! # fn main() -> Result<(), attacks::AttackError> {
//! for attack in registry() {
//!     let out = attack.run(&UarchConfig::default())?;
//!     assert!(out.leaked, "{} must leak on the vulnerable baseline", attack.info().name);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bhi;
pub mod common;
pub mod foreshadow;
pub mod graphs;
pub mod inception;
pub mod lazy_fp;
pub mod lvi;
pub mod mds;
pub mod meltdown;
pub mod retbleed;
pub mod space;
pub mod spectre_rsb;
pub mod spectre_v1;
pub mod spectre_v2;
pub mod spectre_v4;
pub mod tsx;
pub mod zenbleed;

use std::error::Error;
use std::fmt;
use tsg::SecurityAnalysis;
use uarch::{Machine, UarchConfig};

pub use common::{BatchRunner, RunnerPool};
pub use space::{AttackPoint, Channel, DelayMechanism};

/// Whether authorization and access live in one instruction or two — the
/// paper's Insight 6, which decides the modeling level (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackClass {
    /// Spectre-type: authorization (a branch / disambiguation) and access
    /// are *different* instructions — instruction-level modeling suffices.
    Spectre,
    /// Meltdown-type: authorization and access are micro-ops of the *same*
    /// instruction — intra-instruction modeling is required.
    Meltdown,
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackClass::Spectre => f.write_str("Spectre-type (inter-instruction)"),
            AttackClass::Meltdown => f.write_str("Meltdown-type (intra-instruction)"),
        }
    }
}

/// Catalog metadata for one attack (rows of Tables I and III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackInfo {
    /// Canonical name, e.g. `"Spectre v1"`.
    pub name: &'static str,
    /// CVE identifier, if assigned.
    pub cve: Option<&'static str>,
    /// Impact summary (Table I).
    pub impact: &'static str,
    /// The authorization node (Table III).
    pub authorization: &'static str,
    /// The illegal-access node (Table III).
    pub illegal_access: &'static str,
    /// The attack's point in §V-A's design space.
    pub point: AttackPoint,
}

impl AttackInfo {
    /// Inter- vs intra-instruction race, from the authorization delay
    /// (Insight 6).
    #[must_use]
    pub fn class(&self) -> AttackClass {
        if self.point.delay.is_intra_instruction() {
            AttackClass::Meltdown
        } else {
            AttackClass::Spectre
        }
    }
}

/// Outcome of one attack execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The secret planted for the attack to steal.
    pub secret: u64,
    /// The symbol the covert-channel receiver recovered, if any.
    pub recovered: Option<u64>,
    /// Whether the recovered symbol equals the secret.
    pub leaked: bool,
    /// Transient forwards observed during the attack.
    pub transient_forwards: usize,
    /// Squash events observed.
    pub squashes: usize,
    /// Defense-blocked events observed (why a defended run failed).
    pub defense_blocks: usize,
    /// Total cycles the attack consumed (all phases).
    pub cycles: u64,
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "secret={:#x} recovered={} leaked={} (forwards={}, squashes={}, blocks={})",
            self.secret,
            self.recovered
                .map_or_else(|| "none".to_owned(), |v| format!("{v:#x}")),
            self.leaked,
            self.transient_forwards,
            self.squashes,
            self.defense_blocks
        )
    }
}

/// Errors from attack construction or execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// The simulator failed.
    Uarch(uarch::UarchError),
    /// The attack program failed to assemble.
    Isa(isa::IsaError),
    /// The attack graph failed to build.
    Tsg(tsg::TsgError),
    /// The machine's event log filled up and dropped events, so the
    /// outcome's event counts would come from a truncated log (raise
    /// [`UarchConfig::max_events`]).
    EventLogOverflow {
        /// How many events were dropped.
        dropped: u64,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Uarch(e) => write!(f, "simulator error: {e}"),
            AttackError::Isa(e) => write!(f, "program error: {e}"),
            AttackError::Tsg(e) => write!(f, "attack graph error: {e}"),
            AttackError::EventLogOverflow { dropped } => {
                write!(f, "event log overflow: {dropped} events dropped")
            }
        }
    }
}

impl Error for AttackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttackError::Uarch(e) => Some(e),
            AttackError::Isa(e) => Some(e),
            AttackError::Tsg(e) => Some(e),
            AttackError::EventLogOverflow { .. } => None,
        }
    }
}

impl From<uarch::UarchError> for AttackError {
    fn from(e: uarch::UarchError) -> Self {
        AttackError::Uarch(e)
    }
}

impl From<isa::IsaError> for AttackError {
    fn from(e: isa::IsaError) -> Self {
        AttackError::Isa(e)
    }
}

impl From<tsg::TsgError> for AttackError {
    fn from(e: tsg::TsgError) -> Self {
        AttackError::Tsg(e)
    }
}

/// Canonical attack-name constants — the single source for every string
/// that identifies a Table-III variant, shared by the registry, the bench
/// binaries, and the campaign engine. Matching on one of these instead of
/// a literal keeps a renamed variant from silently un-matching a consumer.
pub mod names {
    /// Spectre v1 (bounds-check bypass).
    pub const SPECTRE_V1: &str = "Spectre v1";
    /// Spectre v1.1 (bounds-check bypass store).
    pub const SPECTRE_V1_1: &str = "Spectre v1.1";
    /// Spectre v1.2 (read-only protection bypass).
    pub const SPECTRE_V1_2: &str = "Spectre v1.2";
    /// Spectre v2 (branch target injection).
    pub const SPECTRE_V2: &str = "Spectre v2";
    /// Meltdown (user reads kernel memory).
    pub const MELTDOWN: &str = "Meltdown";
    /// Spectre v3a (system-register read).
    pub const SPECTRE_V3A: &str = "Spectre v3a";
    /// Spectre v4 (speculative store bypass).
    pub const SPECTRE_V4: &str = "Spectre v4";
    /// Spectre-RSB (return stack buffer underflow/poisoning).
    pub const SPECTRE_RSB: &str = "Spectre-RSB";
    /// Foreshadow (L1TF against SGX enclaves).
    pub const FORESHADOW: &str = "Foreshadow";
    /// Foreshadow-OS (L1TF-NG against the OS).
    pub const FORESHADOW_OS: &str = "Foreshadow-OS";
    /// Foreshadow-VMM (L1TF-NG across virtual machines).
    pub const FORESHADOW_VMM: &str = "Foreshadow-VMM";
    /// Lazy FP state restore.
    pub const LAZY_FP: &str = "Lazy FP";
    /// RIDL (MDS via load ports).
    pub const RIDL: &str = "RIDL";
    /// ZombieLoad (MDS via line fill buffers).
    pub const ZOMBIELOAD: &str = "ZombieLoad";
    /// Fallout (MDS via store buffers).
    pub const FALLOUT: &str = "Fallout";
    /// Load Value Injection.
    pub const LVI: &str = "LVI";
    /// TSX Asynchronous Abort.
    pub const TAA: &str = "TAA";
    /// CacheOut (L1D eviction sampling).
    pub const CACHEOUT: &str = "CacheOut";
    /// Retbleed (BTB-fallback return target injection, BHI-style).
    pub const RETBLEED: &str = "Retbleed";
    /// BHI (same-context branch history injection, no RSB underflow).
    pub const BHI: &str = "BHI";
    /// Zenbleed (vector-register use-after-free behind a rolled-back branch).
    pub const ZENBLEED: &str = "Zenbleed";
    /// Inception (recursive RSB overflow / speculative return stack overflow).
    pub const INCEPTION: &str = "Inception";
}

/// One attack variant: metadata, attack graph, and executable PoC.
///
/// `Send + Sync` is required so variants can live in the `'static`
/// [`registry`] and be evaluated from campaign worker threads; every
/// variant is a plain value type, so this costs implementors nothing.
pub trait Attack: fmt::Debug + Send + Sync {
    /// Catalog metadata (Tables I and III).
    fn info(&self) -> AttackInfo;

    /// The attack graph (the paper's figure for this variant), with the
    /// authorization → access/use/send security dependencies declared as
    /// requirements but **not** enforced by edges — i.e. the vulnerable
    /// baseline graph.
    fn graph(&self) -> SecurityAnalysis;

    /// Runs the attack on a *prepared* machine: pristine (fresh from
    /// [`Machine::new`] or [`Machine::reset`]) with the probe channel
    /// established and the event log cleared — exactly the state
    /// [`common::machine_with_channel`] and [`BatchRunner`] provide. This is
    /// the batched entry point: campaign workers reset one warm machine per
    /// task instead of rebuilding it.
    ///
    /// Every implementation is set-up and mis-training followed by one
    /// call of [`common::measure`], the measured step: it runs the victim
    /// program, switches to the receiver's context if the attack crosses
    /// one, and receives over the covert channel.
    ///
    /// # Errors
    ///
    /// [`AttackError`] if the simulator rejects the run (cycle limit, bad
    /// mapping) — *not* when the attack merely fails to leak; that is
    /// reported via [`AttackOutcome::leaked`].
    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, AttackError>;

    /// Runs the attack end-to-end on a fresh machine with configuration
    /// `cfg` and reports the outcome. Thin wrapper over [`Attack::run_in`]
    /// that builds (and drops) a machine per call; batch consumers should
    /// prefer a [`BatchRunner`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Attack::run_in`].
    fn run(&self, cfg: &UarchConfig) -> Result<AttackOutcome, AttackError> {
        let mut m = common::machine_with_channel(cfg)?;
        self.run_in(&mut m)
    }
}

/// All 17 attack variants of Table III (18 rows: Foreshadow-NG contributes
/// OS and VMM flavors) in the paper's order, plus post-paper registry
/// growth (Retbleed, BHI, Zenbleed, Inception) appended at the end, as a
/// `'static` registry.
///
/// This is the one list of attacks: the campaign engine, the bench
/// binaries and the examples all consume this slice, so a new variant
/// added here shows up in every table and matrix at once.
#[must_use]
pub fn registry() -> &'static [&'static dyn Attack] {
    static REGISTRY: &[&'static dyn Attack] = &[
        &spectre_v1::SpectreV1,
        &spectre_v1::SpectreV1_1,
        &spectre_v1::SpectreV1_2,
        &spectre_v2::SpectreV2,
        &meltdown::Meltdown,
        &meltdown::SpectreV3a,
        &spectre_v4::SpectreV4,
        &spectre_rsb::SpectreRsb,
        &foreshadow::Foreshadow::sgx(),
        &foreshadow::Foreshadow::os(),
        &foreshadow::Foreshadow::vmm(),
        &lazy_fp::LazyFp,
        &mds::Ridl,
        &mds::ZombieLoad,
        &mds::Fallout,
        &lvi::Lvi,
        &tsx::Taa,
        &tsx::CacheOut,
        &retbleed::Retbleed,
        &bhi::Bhi,
        &zenbleed::ZenBleed,
        &inception::Inception,
    ];
    REGISTRY
}

/// Looks up a registry attack by its canonical [`names`] constant.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Attack> {
    registry().iter().copied().find(|a| a.info().name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_table_iii() {
        let c = registry();
        // 17 Table-III rows (Foreshadow-NG contributes OS+VMM) + Retbleed,
        // BHI, Zenbleed and Inception from post-paper registry growth.
        assert_eq!(c.len(), 22);
        let names: Vec<&str> = c.iter().map(|a| a.info().name).collect();
        for expected in [
            "Spectre v1",
            "Spectre v1.1",
            "Spectre v1.2",
            "Spectre v2",
            "Meltdown",
            "Spectre v3a",
            "Spectre v4",
            "Spectre-RSB",
            "Foreshadow",
            "Foreshadow-OS",
            "Foreshadow-VMM",
            "Lazy FP",
            "RIDL",
            "ZombieLoad",
            "Fallout",
            "LVI",
            "TAA",
            "CacheOut",
            "Retbleed",
            "BHI",
            "Zenbleed",
            "Inception",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_attack_has_consistent_metadata() {
        for a in registry() {
            let info = a.info();
            assert!(!info.name.is_empty());
            assert!(!info.impact.is_empty());
            assert!(!info.authorization.is_empty());
            assert!(!info.illegal_access.is_empty());
        }
    }

    #[test]
    fn every_graph_has_a_missing_security_dependency() {
        // The vulnerable baseline graph of every variant must exhibit at
        // least one authorization/access race (the paper's root cause).
        for a in registry() {
            let g = a.graph();
            let vulns = g.vulnerabilities().unwrap();
            assert!(
                !vulns.is_empty(),
                "{} graph shows no missing security dependency",
                a.info().name
            );
        }
    }

    #[test]
    fn find_resolves_every_registered_name_and_rejects_others() {
        for a in registry() {
            let found = find(a.info().name).expect("registered name resolves");
            assert_eq!(found.info(), a.info());
        }
        assert!(find("Spectre v9").is_none());
    }

    #[test]
    fn registry_names_match_the_names_module() {
        let names: Vec<&str> = registry().iter().map(|a| a.info().name).collect();
        for expected in [
            names::SPECTRE_V1,
            names::SPECTRE_V1_1,
            names::SPECTRE_V1_2,
            names::SPECTRE_V2,
            names::MELTDOWN,
            names::SPECTRE_V3A,
            names::SPECTRE_V4,
            names::SPECTRE_RSB,
            names::FORESHADOW,
            names::FORESHADOW_OS,
            names::FORESHADOW_VMM,
            names::LAZY_FP,
            names::RIDL,
            names::ZOMBIELOAD,
            names::FALLOUT,
            names::LVI,
            names::TAA,
            names::CACHEOUT,
            names::RETBLEED,
            names::BHI,
            names::ZENBLEED,
            names::INCEPTION,
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn class_display() {
        assert!(AttackClass::Spectre.to_string().contains("inter"));
        assert!(AttackClass::Meltdown.to_string().contains("intra"));
    }

    #[test]
    fn outcome_display() {
        let o = AttackOutcome {
            secret: 0xa7,
            recovered: Some(0xa7),
            leaked: true,
            transient_forwards: 1,
            squashes: 1,
            defense_blocks: 0,
            cycles: 100,
        };
        assert!(o.to_string().contains("leaked=true"));
        let o2 = AttackOutcome {
            recovered: None,
            leaked: false,
            ..o
        };
        assert!(o2.to_string().contains("none"));
    }
}
