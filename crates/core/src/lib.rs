//! # `specgraph` — reasoning about speculative execution attacks
//!
//! A full reproduction of **"New Models for Understanding and Reasoning
//! about Speculative Execution Attacks"** (He, Hu, Lee — HPCA 2021), as a
//! Rust workspace:
//!
//! | crate | paper content |
//! |---|---|
//! | [`tsg`] | attack graphs as Topological Sort Graphs, valid orderings, race conditions, **Theorem 1**, security dependencies (§IV) |
//! | [`isa`] | the architectural substrate: a small ISA with branches, faulting loads, fences, `clflush`/`rdtsc`, MSRs, FP and TSX |
//! | [`uarch`] | a speculative out-of-order machine with trainable predictors, delayed authorization checks, leaky buffers and every defense knob of Figure 8 |
//! | [`channels`] | the four cache-timing channel classes of §II-C |
//! | [`attacks`] | the Table-III catalog and its descendants (22 registry rows): executable PoC + attack graph + catalog row each |
//! | [`defenses`] | the four defense strategies of Figure 8 and the full Table-II/§V-B defense catalog, verified by execution |
//! | [`analyzer`] | the Figure-9 tool: graph construction, race finding, fence/mask patching |
//!
//! This crate re-exports everything and adds the paper's §V-A **discovery**
//! framework ([`discovery`]) — new attacks as points in the
//! (secret source × delay mechanism × covert channel) design space — and
//! the §V-B **insufficient defense** demonstration ([`insufficiency`]),
//! answered in bulk by the minimal sufficient stack search ([`cover`]).
//!
//! ```
//! use specgraph::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Theorem 1 in two lines:
//! let mut g = Tsg::new();
//! let auth = g.add_node("authorization", NodeKind::Authorization);
//! let acc = g.add_node("access", NodeKind::SecretAccess(SecretSource::Memory));
//! assert!(g.has_race(auth, acc)?); // no path ⇒ race ⇒ exploitable
//!
//! // …and the corresponding executable attack:
//! let out = attacks::meltdown::Meltdown.run(&UarchConfig::default())?;
//! assert!(out.leaked);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod cover;
pub mod discovery;
mod exec;
pub mod fault;
pub mod insufficiency;
pub mod jsonio;
pub mod scenario;
pub mod serve;

pub use analyzer;
pub use attacks;
pub use channels;
pub use defenses;
pub use isa;
pub use tsg;
pub use uarch;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::campaign::{
        self, CampaignIoError, CampaignMatrix, CampaignPart, CampaignSpec, CellOutcome, Hardening,
        Knob, KnobValue, MatrixDiff, MergeError, NamedConfig, TaskEvent,
    };
    pub use crate::discovery::fuzz::{
        self, Agreement, Combo, Corpus, DualOracle, FuzzConfig, FuzzError, FuzzReport, Scenario,
    };
    pub use crate::discovery::{self, AttackPoint, Channel, DelayMechanism};
    pub use crate::fault::{self, ArmedFault, FaultKind, FaultPlan, PanickingAttack, SweepReport};
    pub use crate::scenario::{self, Evaluation};
    pub use crate::serve::{
        self, Answer, AnswerSource, ChunkRepair, ScheduleReport, Scheduler, ServeError,
        StoredVerdict, VerdictStore,
    };
    pub use analyzer::{AnalysisConfig, Analyzer};
    pub use attacks::{self, Attack, AttackClass, AttackOutcome};
    pub use channels::flush_reload::FlushReload;
    pub use defenses::{self, Defense, DefenseStack, StackError, Strategy, Verdict};
    pub use isa::{self, Program, ProgramBuilder, Reg};
    pub use tsg::{
        EdgeKind, NodeKind, SecretSource, SecurityAnalysis, SecurityDependency, Tsg, TsgError,
    };
    pub use uarch::{self, Machine, UarchConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_reexports() {
        let g = Tsg::new();
        assert_eq!(g.node_count(), 0);
        let cfg = UarchConfig::default();
        assert!(cfg.transient_forwarding);
        assert_eq!(Strategy::all().len(), 4);
    }
}
