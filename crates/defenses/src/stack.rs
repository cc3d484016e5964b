//! Composable defense stacks: ordered bundles of catalog defenses,
//! evaluated as one unit at both the graph and the machine level.
//!
//! The paper's §V-B warning is that **no single defense blocks every
//! attack** — Table II's industry mitigations ship as *bundles* (the real
//! Linux posture is KPTI + retpoline + IBPB + RSB stuffing, not any one of
//! them), and the four Figure-8 strategies are combinable edge-insertion
//! points on the same graph. A [`DefenseStack`] makes the bundle the unit
//! of evaluation:
//!
//! * **graph level** ([`DefenseStack::graph_sufficient`]): insert *all*
//!   member strategy edges into an attack graph and re-ask Theorem 1, so
//!   sufficiency of the stack is proved, not just tested;
//! * **machine level** ([`DefenseStack::apply`]): fold every member's
//!   recorded [`Overlay`](crate::Overlay) over the base configuration.
//!   Conflicts — two members writing the same knob *differently* — are a
//!   typed [`StackError::ConflictingKnob`] at construction time, never a
//!   silent last-writer-wins;
//! * **grammar** ([`DefenseStack::parse`] / `Display`): the
//!   `"KPTI+Retpoline+IBPB"` spelling shared by the library and the
//!   `campaign` CLI. Members resolve by short token (`kpti`) or full
//!   catalog name; a singleton stack displays exactly as the defense's
//!   name, so stack-valued artifacts are byte-compatible with the old
//!   single-defense ones.
//!
//! ```
//! use defenses::DefenseStack;
//! let linux = DefenseStack::parse("kpti+retpoline+ibpb+rsb-stuffing").unwrap();
//! assert_eq!(linux.to_string(), "KAISER/KPTI+Retpoline+IBPB+RSB stuffing");
//! assert_eq!(linux.members().len(), 4);
//! ```

use crate::overlay::KnobWrite;
use crate::{Defense, Strategy};
use attacks::{Attack, AttackError};
use std::error::Error;
use std::fmt;
use uarch::{Switch, UarchConfig};

/// Why a stack could not be built (or parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StackError {
    /// A stack needs at least one member.
    Empty,
    /// The same defense appears twice.
    Duplicate(String),
    /// Two members write the same machine knob with different values —
    /// deploying them together would silently make one of them a lie.
    ConflictingKnob {
        /// The contested configuration knob.
        knob: Switch,
        /// The member that wrote the knob first, and its value.
        first: &'static str,
        /// The member that tried to write the opposite value.
        second: &'static str,
        /// The value `first` wrote (`second` wrote the negation).
        value: bool,
    },
    /// A stack expression named a defense that is not in the catalog.
    UnknownDefense(String),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Empty => f.write_str("a defense stack needs at least one member"),
            StackError::Duplicate(name) => {
                write!(f, "defense '{name}' appears twice in the stack")
            }
            StackError::ConflictingKnob {
                knob,
                first,
                second,
                value,
            } => write!(
                f,
                "conflicting stack: '{first}' sets {knob}={value} but \
                 '{second}' sets {knob}={}; the two mitigations rewrite the \
                 same mechanism and cannot be deployed together",
                !value
            ),
            StackError::UnknownDefense(name) => write!(
                f,
                "unknown defense '{name}' in stack expression (use a catalog \
                 token like 'kpti' or a full name like 'KAISER/KPTI')"
            ),
        }
    }
}

impl Error for StackError {}

/// An ordered, conflict-checked set of catalog defenses evaluated as one
/// deployment — at the graph level ([`DefenseStack::graph_sufficient`]:
/// all member strategy edges inserted, Theorem 1 re-asked) and at the
/// machine level ([`DefenseStack::apply`]: conflict-checked overlay
/// folding), with the `"KPTI+Retpoline+IBPB"` parse/display grammar
/// shared by the library and the `campaign` CLI.
#[derive(Debug, Clone)]
pub struct DefenseStack {
    members: Vec<Defense>,
    /// Members' full names joined with `+` (the canonical spelling; for a
    /// singleton stack this is exactly the defense's name).
    name: String,
}

impl PartialEq for DefenseStack {
    fn eq(&self, other: &Self) -> bool {
        self.members.len() == other.members.len()
            && self
                .members
                .iter()
                .zip(&other.members)
                .all(|(a, b)| a.name == b.name && a.strategy == b.strategy)
    }
}

impl Eq for DefenseStack {}

impl From<Defense> for DefenseStack {
    fn from(defense: Defense) -> Self {
        DefenseStack::single(defense)
    }
}

impl fmt::Display for DefenseStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl std::str::FromStr for DefenseStack {
    type Err = StackError;

    fn from_str(s: &str) -> Result<Self, StackError> {
        DefenseStack::parse(s)
    }
}

impl DefenseStack {
    /// Builds a stack from ordered members, rejecting empty stacks,
    /// duplicate members, and conflicting overlay writes.
    ///
    /// # Errors
    ///
    /// [`StackError::Empty`], [`StackError::Duplicate`], or
    /// [`StackError::ConflictingKnob`].
    pub fn new(members: Vec<Defense>) -> Result<Self, StackError> {
        if members.is_empty() {
            return Err(StackError::Empty);
        }
        let mut written: Vec<(Switch, bool, &'static str)> = Vec::new();
        for (i, d) in members.iter().enumerate() {
            if members[..i].iter().any(|prev| prev.name == d.name) {
                return Err(StackError::Duplicate(d.name.to_owned()));
            }
            let Some(overlay) = d.overlay() else { continue };
            for w in overlay.writes() {
                match written.iter().find(|(k, _, _)| *k == w.knob) {
                    Some(&(knob, value, first)) if value != w.value => {
                        return Err(StackError::ConflictingKnob {
                            knob,
                            first,
                            second: d.name,
                            value,
                        });
                    }
                    Some(_) => {}
                    None => written.push((w.knob, w.value, d.name)),
                }
            }
        }
        let name = members.iter().map(|d| d.name).collect::<Vec<_>>().join("+");
        Ok(DefenseStack { members, name })
    }

    /// The stack containing exactly one defense. Infallible: a single
    /// member can neither duplicate nor conflict.
    #[must_use]
    pub fn single(defense: Defense) -> Self {
        DefenseStack {
            name: defense.name.to_owned(),
            members: vec![defense],
        }
    }

    /// Parses a `+`-joined stack expression. Each member resolves by its
    /// short catalog token (`kpti`, case-insensitive) or its full name
    /// (`KAISER/KPTI`) — see [`crate::resolve`]. An empty segment gives
    /// its `+` back to the member before it, so names that end in `+`
    /// (`SpecShieldERP+`) parse alone and inside stacks
    /// (`SpecShieldERP++NDA`, `NDA+SpecShieldERP+`).
    ///
    /// # Errors
    ///
    /// [`StackError::UnknownDefense`] for an unresolvable member, plus
    /// everything [`DefenseStack::new`] rejects.
    pub fn parse(expr: &str) -> Result<Self, StackError> {
        let mut parts: Vec<String> = Vec::new();
        for segment in expr.split('+').map(str::trim) {
            match parts.last_mut() {
                Some(prev) if segment.is_empty() => prev.push('+'),
                _ => parts.push(segment.to_owned()),
            }
        }
        let members = parts
            .into_iter()
            .map(|part| {
                crate::resolve(&part)
                    .copied()
                    .ok_or(StackError::UnknownDefense(part))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(members)
    }

    /// The members, in deployment order.
    #[must_use]
    pub fn members(&self) -> &[Defense] {
        &self.members
    }

    /// The canonical spelling: members' full names joined with `+`. For a
    /// singleton stack this equals the defense's name exactly.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The short spelling: members' tokens joined with `+`
    /// (`"kpti+retpoline"`), as accepted by [`DefenseStack::parse`] and
    /// the `campaign` CLI.
    #[must_use]
    pub fn tokens(&self) -> String {
        self.members
            .iter()
            .map(|d| d.token)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The *distinct* member strategies, in first-appearance order — the
    /// edge-insertion points the stack exercises on an attack graph. The
    /// only place a stack's strategies are deduplicated; it allocates
    /// nothing (a stack has a handful of members).
    pub fn strategies(&self) -> impl Iterator<Item = Strategy> + '_ {
        self.members.iter().enumerate().filter_map(|(i, d)| {
            (!self.members[..i].iter().any(|e| e.strategy == d.strategy)).then_some(d.strategy)
        })
    }

    /// The distinct strategies as a stable `+`-joined token string
    /// (`"prevent_access+clear_predictions"`); for a singleton stack this
    /// is exactly the member's strategy token.
    #[must_use]
    pub fn strategy_token(&self) -> String {
        self.strategy_token_pieces().collect()
    }

    /// [`DefenseStack::strategy_token`] as the pieces that concatenate to
    /// it — each distinct strategy's token, with `"+"` pieces between — so
    /// a hash can consume the token without building the `String`.
    pub fn strategy_token_pieces(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.strategies()
            .enumerate()
            .flat_map(|(i, s)| [if i == 0 { "" } else { "+" }, s.token()])
    }

    /// Whether at least one member has an executable hardware model.
    #[must_use]
    pub fn is_modeled(&self) -> bool {
        self.members.iter().any(Defense::is_modeled)
    }

    /// The merged machine-level writes of all members, first-writer order,
    /// duplicates removed (conflicts were rejected at construction).
    #[must_use]
    fn overlay_writes(&self) -> Vec<KnobWrite> {
        let mut out: Vec<KnobWrite> = Vec::new();
        for d in &self.members {
            let Some(overlay) = d.overlay() else { continue };
            for &w in overlay.writes() {
                if !out.iter().any(|have| have.knob == w.knob) {
                    out.push(w);
                }
            }
        }
        out
    }

    /// Folds every member's overlay over `base`, producing the machine
    /// the whole bundle deploys. Returns `None` when no member has a
    /// hardware model (an all-software stack is demonstrated at the graph
    /// level only, like a software-only single defense).
    ///
    /// The fold is order-independent by construction: duplicate writes
    /// were deduplicated and conflicting ones rejected in
    /// [`DefenseStack::new`].
    #[must_use]
    pub fn apply(&self, base: &UarchConfig) -> Option<UarchConfig> {
        if !self.is_modeled() {
            return None;
        }
        let mut cfg = base.clone();
        for w in self.overlay_writes() {
            w.knob.write(&mut cfg, w.value);
        }
        Some(cfg)
    }

    /// Applies every distinct member strategy to the attack's graph and
    /// asks Theorem 1 whether the stack closes the leak path — the
    /// *proved* (graph-level) claim about the bundle.
    ///
    /// Strategies with no insertion point in this graph are skipped (like
    /// a single defense whose strategy does not apply); if **no** member
    /// strategy applies, the answer is `None`. Otherwise the stack is
    /// sufficient when its strongest inserted claim holds, mirroring the
    /// single-defense rule: a ① member must leave *no* race at all, a
    /// ②/③ member must leave no race on the *send* node (the paper's
    /// relaxed model), and a ④-only stack's claim is the successful
    /// insertion itself (the mis-training channel exists only as setup
    /// ordering in the static graph).
    ///
    /// Asking the same attack about many stacks? A
    /// [`PatchSession`](crate::PatchSession) builds the graph once and
    /// applies/rolls back each stack's edges incrementally instead.
    ///
    /// # Errors
    ///
    /// [`AttackError::Tsg`] if the graph rejects an inserted edge.
    pub fn graph_sufficient(&self, attack: &dyn Attack) -> Result<Option<bool>, AttackError> {
        let mut sa = attack.graph();
        crate::session::graph_verdict(&mut sa, self)
    }
}

/// Curated industry/academia bundles — the stacks real deployments (and
/// the paper's discussion) actually compare.
pub mod presets {
    use super::DefenseStack;
    use crate::names;

    fn stack(members: &[&str]) -> DefenseStack {
        DefenseStack::new(
            members
                .iter()
                .map(|n| *crate::find(n).expect("preset member is in the catalog"))
                .collect(),
        )
        .expect("preset stacks are conflict-free")
    }

    /// The real post-2018 Linux kernel posture: KPTI + retpoline + IBPB +
    /// RSB stuffing. Blocks the Meltdown and predictor-injection families;
    /// leaves same-context Spectre v1-style leaks to software masking —
    /// the canonical "bundle that still needs §V-B care".
    #[must_use]
    pub fn linux_default() -> DefenseStack {
        stack(&[
            names::KPTI,
            names::RETPOLINE,
            names::IBPB,
            names::RSB_STUFFING,
        ])
    }

    /// Microcode-update mitigations only (no kernel changes): IBRS +
    /// STIBP + IBPB + SSBS.
    #[must_use]
    pub fn microcode_only() -> DefenseStack {
        stack(&[names::IBRS, names::STIBP, names::IBPB, names::SSBS])
    }

    /// The academic taint-tracking posture: STT alone (strategy ③ at the
    /// transmitter chokepoint).
    #[must_use]
    pub fn academic_stt() -> DefenseStack {
        stack(&[names::STT])
    }

    /// The academic invisible-speculation posture: InvisiSpec shadow
    /// fills plus DAWG cross-domain partitioning.
    #[must_use]
    pub fn academic_invisible() -> DefenseStack {
        stack(&[names::INVISISPEC, names::DAWG])
    }

    /// Every preset with its CLI token, in presentation order.
    #[must_use]
    pub fn all() -> Vec<(&'static str, DefenseStack)> {
        vec![
            ("linux-default", linux_default()),
            ("microcode-only", microcode_only()),
            ("academic-stt", academic_stt()),
            ("academic-invisible", academic_invisible()),
        ]
    }

    /// The preset for a CLI token, if any.
    #[must_use]
    pub fn find(token: &str) -> Option<DefenseStack> {
        all()
            .into_iter()
            .find(|(t, _)| t.eq_ignore_ascii_case(token))
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::Overlay;
    use crate::{names, Origin};

    fn defense(name: &str) -> Defense {
        *crate::find(name).expect("defense exists")
    }

    /// A test-only defense whose overlay *re-enables* lazy FPU switching —
    /// the opposite of what Eager FPU switch writes.
    fn lazy_fpu_enabler() -> Defense {
        Defense {
            name: "Lazy FPU (test)",
            token: "lazy-fpu-test",
            origin: Origin::Industry,
            strategy: Strategy::PreventAccess,
            mechanism: "test-only conflicting overlay",
            overlay: Some(Overlay(&[KnobWrite {
                knob: Switch::LazyFpu,
                value: true,
            }])),
        }
    }

    #[test]
    fn parse_display_round_trip_and_singleton_identity() {
        let s = DefenseStack::parse("kpti+retpoline+ibpb").unwrap();
        assert_eq!(s.to_string(), "KAISER/KPTI+Retpoline+IBPB");
        assert_eq!(s.tokens(), "kpti+retpoline+ibpb");
        // The canonical spelling parses back to the same stack.
        assert_eq!(DefenseStack::parse(s.name()).unwrap(), s);
        // Full names (with spaces) work too, and mix with tokens.
        assert_eq!(
            DefenseStack::parse("KAISER/KPTI + Retpoline + ibpb").unwrap(),
            s
        );
        // A singleton stack displays exactly as the defense's name.
        let single = DefenseStack::single(defense(names::NDA));
        assert_eq!(single.name(), names::NDA);
        assert_eq!("nda".parse::<DefenseStack>().unwrap(), single);
    }

    #[test]
    fn construction_rejects_empty_duplicate_unknown() {
        assert_eq!(DefenseStack::new(Vec::new()), Err(StackError::Empty));
        assert!(matches!(
            DefenseStack::parse("kpti+kpti"),
            Err(StackError::Duplicate(_))
        ));
        match DefenseStack::parse("kpti+warp-drive") {
            Err(StackError::UnknownDefense(name)) => assert_eq!(name, "warp-drive"),
            other => panic!("expected UnknownDefense, got {other:?}"),
        }
        assert!(DefenseStack::parse("").is_err());
    }

    #[test]
    fn every_catalog_name_parses_alone_and_in_pairs() {
        // Names ending in '+' (SpecShieldERP+) must survive the '+'
        // grammar, or saved full-catalog matrices cannot be reloaded.
        for d in crate::registry() {
            assert_eq!(
                DefenseStack::parse(d.name).unwrap(),
                DefenseStack::single(*d),
                "{}",
                d.name
            );
            for e in crate::registry() {
                if let Ok(pair) = DefenseStack::new(vec![*d, *e]) {
                    assert_eq!(DefenseStack::parse(pair.name()).unwrap(), pair);
                }
            }
        }
    }

    #[test]
    fn conflicting_knob_is_a_typed_construction_error() {
        let err = DefenseStack::new(vec![defense(names::EAGER_FPU_SWITCH), lazy_fpu_enabler()])
            .unwrap_err();
        match err {
            StackError::ConflictingKnob {
                knob,
                first,
                second,
                value,
            } => {
                assert_eq!(knob, Switch::LazyFpu);
                assert_eq!(first, names::EAGER_FPU_SWITCH);
                assert_eq!(second, "Lazy FPU (test)");
                assert!(!value);
            }
            other => panic!("expected ConflictingKnob, got {other:?}"),
        }
        assert!(err.to_string().contains("lazy_fpu"));
        // Order does not matter: the conflict is symmetric.
        assert!(matches!(
            DefenseStack::new(vec![lazy_fpu_enabler(), defense(names::EAGER_FPU_SWITCH)]),
            Err(StackError::ConflictingKnob { .. })
        ));
    }

    #[test]
    fn same_knob_same_value_members_compose() {
        // IBRS and IBPB both write flush_predictors_on_switch=true: agreeing
        // writes are composition, not conflict.
        let s = DefenseStack::parse("ibrs+ibpb").unwrap();
        assert_eq!(s.overlay_writes().len(), 1);
        let cfg = s.apply(&UarchConfig::default()).unwrap();
        assert!(cfg.flush_predictors_on_switch);
    }

    #[test]
    fn apply_folds_all_member_overlays() {
        let linux = presets::linux_default();
        let cfg = linux.apply(&UarchConfig::default()).unwrap();
        assert!(cfg.kpti);
        assert!(cfg.no_indirect_prediction);
        assert!(cfg.flush_predictors_on_switch);
        assert!(cfg.rsb_stuffing);
        // Order never changes the folded machine.
        let mut reversed: Vec<Defense> = linux.members().to_vec();
        reversed.reverse();
        let reversed = DefenseStack::new(reversed).unwrap();
        assert_eq!(reversed.apply(&UarchConfig::default()).unwrap(), cfg);
        assert_ne!(reversed.name(), linux.name());
    }

    #[test]
    fn all_software_stack_has_no_machine_model() {
        let s = DefenseStack::parse("mask-coarse+sabc").unwrap();
        assert!(!s.is_modeled());
        assert!(s.apply(&UarchConfig::default()).is_none());
        assert!(s.overlay_writes().is_empty());
        // Mixing in one modeled member makes the stack modeled.
        let mixed = DefenseStack::parse("mask-coarse+lfence").unwrap();
        assert!(mixed.is_modeled());
        assert!(
            mixed
                .apply(&UarchConfig::default())
                .unwrap()
                .no_speculative_loads
        );
    }

    #[test]
    fn strategies_are_distinct_in_member_order() {
        let s = DefenseStack::parse("kpti+retpoline+ibpb+rsb-stuffing").unwrap();
        assert_eq!(
            s.strategies().collect::<Vec<_>>(),
            vec![Strategy::PreventAccess, Strategy::ClearPredictions]
        );
        assert_eq!(s.strategy_token(), "prevent_access+clear_predictions");
        let single = DefenseStack::single(defense(names::NDA));
        assert_eq!(single.strategy_token(), "prevent_use");
    }

    #[test]
    fn graph_sufficiency_matches_single_defense_rules() {
        // Singleton ①: closes everything on a Spectre graph.
        let lfence = DefenseStack::single(defense(names::LFENCE));
        assert_eq!(
            lfence
                .graph_sufficient(&attacks::spectre_v1::SpectreV1)
                .unwrap(),
            Some(true)
        );
        // Singleton ③ leaves the access race but closes the send.
        let stt = DefenseStack::single(defense(names::STT));
        assert_eq!(
            stt.graph_sufficient(&attacks::meltdown::Meltdown).unwrap(),
            Some(true)
        );
        // A ①+④ bundle: the ① claim dominates (no race at all).
        let linux = presets::linux_default();
        assert_eq!(
            linux
                .graph_sufficient(&attacks::spectre_v2::SpectreV2)
                .unwrap(),
            Some(true)
        );
    }

    #[test]
    fn presets_are_well_formed() {
        for (token, preset) in presets::all() {
            assert!(!preset.members().is_empty(), "{token} is empty");
            assert!(preset.is_modeled(), "{token} has no machine model");
            assert_eq!(presets::find(token).unwrap(), preset);
            // Every preset spelling round-trips through the grammar.
            assert_eq!(DefenseStack::parse(preset.name()).unwrap(), preset);
        }
        assert!(presets::find("windows-default").is_none());
        assert_eq!(presets::linux_default().members().len(), 4);
    }
}
