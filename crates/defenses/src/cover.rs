//! Minimal sufficient stacks: which (cheapest) combination of catalog
//! defenses blocks *every* attack in a set?
//!
//! This is the paper's headline question made executable. §V-B warns that
//! no single defense blocks every attack; this module searches the defense
//! catalog for the **smallest stack that does** — greedily first, then
//! exhaustively up to the greedy size, so the reported minimum is a proved
//! minimum over the candidate set, not a heuristic. Every candidate stack
//! is *verified by simulation* (the folded configuration is run against
//! every attack), never assumed from the union of its members' singleton
//! verdicts — stacking is not guaranteed to be additive.
//!
//! The search deduplicates candidates by [`Overlay`](crate::Overlay)
//! fingerprint (LFENCE and MFENCE are the same machine, so only one
//! participates), and reports attacks that **no** candidate blocks — over
//! the industry subset of the catalog that set is non-empty, which is
//! exactly the paper's point.
//!
//! All graph-level work — the false-sense checks of [`audit_stacks`] and
//! the per-candidate strategy check inside the exhaustive search — runs
//! over shared per-attack [`PatchSession`]s: each attack's graph is built
//! and indexed once, and every candidate stack is applied and rolled back
//! incrementally against it. Likewise every simulation of a search or
//! audit runs on one warm [`BatchRunner`] machine, reset per run.
//!
//! ```no_run
//! use defenses::cover;
//! use uarch::UarchConfig;
//!
//! let report = cover::minimal_cover(
//!     attacks::registry(),
//!     defenses::registry(),
//!     &UarchConfig::default(),
//! ).unwrap();
//! let minimal = report.minimal.expect("the full catalog covers everything");
//! println!("Table IV: {} ({} member(s))", minimal, minimal.members().len());
//! ```

use crate::{verify_stack_warm, Defense, DefenseStack, PatchSession, Verdict};
use attacks::{Attack, AttackError, BatchRunner};
use std::fmt;
use uarch::UarchConfig;

/// Lazily created per-attack [`PatchSession`]s, shared across every
/// candidate stack of a search or audit: each attack's graph is built and
/// indexed at most **once**, and each candidate's strategy edges are
/// applied and rolled back incrementally — instead of a graph clone plus
/// a full closure rebuild per (candidate, attack) pair.
struct SessionPool<'a> {
    attacks: &'a [&'static dyn Attack],
    slots: Vec<Option<PatchSession>>,
}

impl<'a> SessionPool<'a> {
    fn new(attacks: &'a [&'static dyn Attack]) -> Self {
        SessionPool {
            attacks,
            slots: attacks.iter().map(|_| None).collect(),
        }
    }

    fn get(&mut self, i: usize) -> &mut PatchSession {
        self.slots[i].get_or_insert_with(|| PatchSession::new(self.attacks[i]))
    }

    /// Whether `stack`'s member strategies are graph-sufficient
    /// (`Some(true)`) for **every** attack in the pool.
    fn sufficient_for_all(&mut self, stack: &DefenseStack) -> Result<bool, AttackError> {
        for i in 0..self.attacks.len() {
            if self.get(i).graph_sufficient(stack)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// How many attacks one candidate defense blocks on its own.
#[derive(Debug, Clone)]
pub struct SingletonCover {
    /// Defense name.
    pub defense: &'static str,
    /// Names of the attacks it blocks (machine level).
    pub blocks: Vec<&'static str>,
}

/// The result of a minimal-stack search over one attack set and one
/// candidate list.
#[derive(Debug, Clone)]
pub struct CoverReport {
    /// The attack names the search had to cover, in registry order.
    pub attacks: Vec<&'static str>,
    /// Per *modeled* candidate: what it blocks alone (software-only
    /// candidates cannot participate in a machine-level cover).
    pub singletons: Vec<SingletonCover>,
    /// Attacks that **no** candidate blocks — when non-empty, no stack
    /// over these candidates is sufficient and [`minimal`](Self::minimal)
    /// is `None`.
    pub uncovered: Vec<&'static str>,
    /// The greedy cover (largest-gain-first), when full coverage is
    /// possible. An upper bound on the minimum size.
    pub greedy: Option<DefenseStack>,
    /// The smallest sufficient stack: exhaustive search over deduplicated
    /// candidates for every size below the greedy bound, each candidate
    /// verified by simulation.
    pub minimal: Option<DefenseStack>,
    /// Stacks whose folded configuration was actually simulated against
    /// the full attack set during the search.
    pub stacks_verified: usize,
    /// Candidate stacks from the exhaustive search whose member
    /// *strategies* are graph-sufficient for every attack (Theorem 1 says
    /// the bundle closes every leak path) but whose deployed mechanisms
    /// still leaked under simulation — the §V-B "false sense of security"
    /// at search granularity. Checked via per-attack [`PatchSession`]s,
    /// so the exponential search pays incremental patch/rollback per
    /// candidate, never a rebuild.
    pub false_sense_stacks: Vec<String>,
}

impl fmt::Display for CoverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.minimal {
            Some(stack) => write!(
                f,
                "minimal sufficient stack over {} attack(s): {} ({} member(s), {} stack(s) verified)",
                self.attacks.len(),
                stack,
                stack.members().len(),
                self.stacks_verified
            ),
            None if !self.uncovered.is_empty() => write!(
                f,
                "no sufficient stack: {} of {} attack(s) blocked by no candidate ({})",
                self.uncovered.len(),
                self.attacks.len(),
                self.uncovered.join(", ")
            ),
            None => write!(
                f,
                "no sufficient stack found over {} attack(s) ({} stack(s) verified)",
                self.attacks.len(),
                self.stacks_verified
            ),
        }
    }
}

/// One stack audited against an attack set at both levels — the
/// stack-shaped §V-B "false sense of security" report.
#[derive(Debug, Clone)]
pub struct StackAudit {
    /// The audited stack.
    pub stack: DefenseStack,
    /// Attacks the deployed stack blocks (machine level).
    pub blocked: Vec<&'static str>,
    /// Attacks that still leak under the deployed stack.
    pub leaked: Vec<&'static str>,
    /// The subset of [`leaked`](Self::leaked) where the stack's
    /// *strategies* would close the leak path (Theorem 1 says sufficient)
    /// but the deployed mechanisms do not — a false sense of security at
    /// bundle granularity.
    pub false_sense: Vec<&'static str>,
}

impl StackAudit {
    /// Whether the stack blocks the entire attack set.
    #[must_use]
    pub fn is_sufficient(&self) -> bool {
        self.leaked.is_empty()
    }
}

impl fmt::Display for StackAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: blocks {}/{}",
            self.stack,
            self.blocked.len(),
            self.blocked.len() + self.leaked.len()
        )?;
        if !self.leaked.is_empty() {
            write!(f, "; leaks: {}", self.leaked.join(", "))?;
        }
        if !self.false_sense.is_empty() {
            write!(
                f,
                "  <-- false sense of security vs {}",
                self.false_sense.join(", ")
            )?;
        }
        Ok(())
    }
}

/// Audits every stack against every attack: machine verdict per attack
/// plus the graph-level sufficiency check for the leaking ones. One shared
/// [`PatchSession`] pool builds and indexes each attack's graph once, so
/// every (stack, leaking attack) sufficiency check is an incremental
/// patch/rollback against it; one warm [`BatchRunner`] runs every
/// simulation. Audit a single stack with a one-element slice.
///
/// # Errors
///
/// Propagates [`AttackError`] from any simulation.
pub fn audit_stacks(
    stacks: &[DefenseStack],
    attacks_list: &[&'static dyn Attack],
    base: &UarchConfig,
) -> Result<Vec<StackAudit>, AttackError> {
    let mut sessions = SessionPool::new(attacks_list);
    let mut runner = BatchRunner::new();
    stacks
        .iter()
        .map(|stack| audit_with(stack, attacks_list, &mut sessions, &mut runner, base))
        .collect()
}

fn audit_with(
    stack: &DefenseStack,
    attacks_list: &[&'static dyn Attack],
    sessions: &mut SessionPool<'_>,
    runner: &mut BatchRunner,
    base: &UarchConfig,
) -> Result<StackAudit, AttackError> {
    let mut blocked = Vec::new();
    let mut leaked = Vec::new();
    let mut false_sense = Vec::new();
    for (i, attack) in attacks_list.iter().enumerate() {
        let name = attack.info().name;
        match verify_stack_warm(stack, *attack, base, runner)? {
            Verdict::Blocked => blocked.push(name),
            Verdict::GraphOnly => {}
            Verdict::Leaked => {
                leaked.push(name);
                if sessions.get(i).graph_sufficient(stack)? == Some(true) {
                    false_sense.push(name);
                }
            }
        }
    }
    Ok(StackAudit {
        stack: stack.clone(),
        blocked,
        leaked,
        false_sense,
    })
}

/// The industry defenses a deployment would actually enable everywhere:
/// Table II minus ubiquitous fencing (LFENCE/MFENCE serialize *every*
/// load — "sufficient" by brute force, ruled out by the paper's overhead
/// discussion). This is the canonical candidate set for the practical
/// Table-IV searches; the `table4` binary and the tests share it so the
/// printed claim and the proof cannot drift.
#[must_use]
pub fn practical_industry() -> Vec<Defense> {
    crate::registry()
        .iter()
        .filter(|d| {
            d.origin == crate::Origin::Industry
                && d.name != crate::names::LFENCE
                && d.name != crate::names::MFENCE
        })
        .copied()
        .collect()
}

/// Bit mask over the attack list: bit *i* set ⇔ attack *i* blocked.
type AttackMask = u64;

/// Searches for the smallest stack over `candidates` that blocks every
/// attack in `attacks_list` on a machine derived from `base`.
///
/// Strategy: per-candidate singleton verdicts establish what each defense
/// blocks alone; candidates are deduplicated by overlay fingerprint; a
/// greedy cover bounds the stack size; then every candidate combination of
/// each smaller size whose singleton union covers the attack set is
/// **verified by simulation** (smallest size first, catalog order within a
/// size), so the returned stack is a true minimum over the candidate set
/// and is proved by execution, not by union arithmetic.
///
/// # Errors
///
/// Propagates [`AttackError`] from any simulation.
///
/// # Panics
///
/// Panics if `attacks_list` has more than 64 entries (the mask width);
/// the Table-III registry is an order of magnitude below that.
pub fn minimal_cover(
    attacks_list: &[&'static dyn Attack],
    candidates: &[Defense],
    base: &UarchConfig,
) -> Result<CoverReport, AttackError> {
    assert!(
        attacks_list.len() <= AttackMask::BITS as usize,
        "cover search supports at most 64 attacks"
    );
    let attack_names: Vec<&'static str> = attacks_list.iter().map(|a| a.info().name).collect();
    let full: AttackMask = if attacks_list.is_empty() {
        0
    } else {
        (AttackMask::MAX) >> (AttackMask::BITS as usize - attacks_list.len())
    };

    // Singleton verdicts for every modeled candidate.
    let modeled: Vec<Defense> = candidates
        .iter()
        .filter(|d| d.is_modeled())
        .copied()
        .collect();
    let mut runner = BatchRunner::new();
    let mut singleton_masks: Vec<AttackMask> = Vec::with_capacity(modeled.len());
    let mut singletons: Vec<SingletonCover> = Vec::with_capacity(modeled.len());
    for d in &modeled {
        let stack = DefenseStack::single(*d);
        let mut mask: AttackMask = 0;
        let mut blocks = Vec::new();
        for (i, attack) in attacks_list.iter().enumerate() {
            if verify_stack_warm(&stack, *attack, base, &mut runner)? == Verdict::Blocked {
                mask |= 1 << i;
                blocks.push(attack_names[i]);
            }
        }
        singleton_masks.push(mask);
        singletons.push(SingletonCover {
            defense: d.name,
            blocks,
        });
    }

    // Attacks nothing blocks: coverage is impossible over these candidates.
    let union = singleton_masks.iter().fold(0, |acc, m| acc | m);
    let uncovered: Vec<&'static str> = attack_names
        .iter()
        .enumerate()
        .filter(|(i, _)| full & (1 << i) & !union != 0)
        .map(|(_, n)| *n)
        .collect();
    if full == 0 || union & full != full {
        // Nothing to cover, or coverage impossible: no stack to report.
        return Ok(CoverReport {
            attacks: attack_names,
            singletons,
            uncovered,
            greedy: None,
            minimal: None,
            stacks_verified: 0,
            false_sense_stacks: Vec::new(),
        });
    }

    // Deduplicate by machine effect: LFENCE and MFENCE are one candidate.
    let mut reps: Vec<usize> = Vec::new();
    for (i, d) in modeled.iter().enumerate() {
        let fp = d.overlay().expect("modeled").fingerprint();
        if !reps
            .iter()
            .any(|&j| modeled[j].overlay().expect("modeled").fingerprint() == fp)
        {
            reps.push(i);
        }
    }

    // Greedy upper bound (largest gain first, catalog order on ties).
    let mut remaining = full;
    let mut greedy_members: Vec<Defense> = Vec::new();
    while remaining != 0 {
        let best = reps
            .iter()
            .copied()
            .filter(|&i| {
                // Skip candidates that would conflict with the picks so far.
                let mut trial = greedy_members.clone();
                trial.push(modeled[i]);
                DefenseStack::new(trial).is_ok()
            })
            .max_by_key(|&i| (singleton_masks[i] & remaining).count_ones())
            .expect("union covers, so some candidate always gains");
        assert!(
            singleton_masks[best] & remaining != 0,
            "greedy cover stalled with attacks remaining"
        );
        remaining &= !singleton_masks[best];
        greedy_members.push(modeled[best]);
    }
    let greedy = DefenseStack::new(greedy_members).expect("greedy picks were conflict-checked");

    // Exhaustive search below the greedy bound, smallest size first. Only
    // combinations whose singleton union covers are worth simulating. The
    // shared session pool makes the per-candidate graph check an
    // incremental patch/rollback against each attack's one indexed graph.
    let mut sessions = SessionPool::new(attacks_list);
    let mut stacks_verified = 0usize;
    let mut false_sense_stacks: Vec<String> = Vec::new();
    let mut minimal: Option<DefenseStack> = None;
    'sizes: for k in 1..=greedy.members().len() {
        let mut combo: Vec<usize> = Vec::with_capacity(k);
        let mut found: Option<DefenseStack> = None;
        search_combinations(&reps, k, 0, &mut combo, &mut |chosen: &[usize]| -> Result<
            bool,
            AttackError,
        > {
            let mask = chosen
                .iter()
                .fold(0 as AttackMask, |acc, &i| acc | singleton_masks[i]);
            if mask & full != full {
                return Ok(false);
            }
            let Ok(stack) = DefenseStack::new(chosen.iter().map(|&i| modeled[i]).collect()) else {
                return Ok(false);
            };
            stacks_verified += 1;
            for attack in attacks_list {
                if verify_stack_warm(&stack, *attack, base, &mut runner)? != Verdict::Blocked {
                    // Union arithmetic lied for this combination; keep
                    // searching — but if the bundle's strategies close
                    // every leak path on paper, record the §V-B false
                    // sense at search granularity.
                    if sessions.sufficient_for_all(&stack)? {
                        false_sense_stacks.push(stack.name().to_owned());
                    }
                    return Ok(false);
                }
            }
            found = Some(stack);
            Ok(true)
        })?;
        if let Some(stack) = found {
            minimal = Some(stack);
            break 'sizes;
        }
    }

    Ok(CoverReport {
        attacks: attack_names,
        singletons,
        uncovered,
        greedy: Some(greedy),
        minimal,
        stacks_verified,
        false_sense_stacks,
    })
}

/// Visits every `k`-combination of `reps[start..]` in lexicographic order;
/// stops early when the visitor returns `Ok(true)`.
fn search_combinations(
    reps: &[usize],
    k: usize,
    start: usize,
    combo: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]) -> Result<bool, AttackError>,
) -> Result<bool, AttackError> {
    if k == 0 {
        return visit(combo);
    }
    for pos in start..=reps.len().saturating_sub(k) {
        combo.push(reps[pos]);
        let done = search_combinations(reps, k - 1, pos + 1, combo, visit)?;
        combo.pop();
        if done {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// One stack's audit: a one-element [`audit_stacks`] call.
    fn audit_one(stack: &DefenseStack, attacks_list: &[&'static dyn Attack]) -> StackAudit {
        audit_stacks(
            std::slice::from_ref(stack),
            attacks_list,
            &UarchConfig::default(),
        )
        .unwrap()
        .remove(0)
    }

    #[test]
    fn full_catalog_has_a_singleton_cover() {
        // Ubiquitous serialization (and NDA-style forwarding blocks) each
        // stop every variant alone, so the minimal stack over the whole
        // catalog has exactly one member.
        let report = minimal_cover(
            attacks::registry(),
            crate::registry(),
            &UarchConfig::default(),
        )
        .unwrap();
        assert!(report.uncovered.is_empty());
        let minimal = report.minimal.expect("full catalog covers everything");
        assert_eq!(minimal.members().len(), 1, "minimal: {minimal}");
        let greedy = report.greedy.expect("greedy exists when coverable");
        assert!(greedy.members().len() >= minimal.members().len());
        assert!(report.stacks_verified >= 1);
        // The report is self-consistent: the minimal stack's audit is clean.
        let audit = audit_one(&minimal, attacks::registry());
        assert!(audit.is_sufficient(), "{audit}");
    }

    #[test]
    fn practical_industry_candidates_cannot_cover_everything() {
        // The paper's point, machine-checked: without fencing every load,
        // hardware/OS mitigations leave same-context bounds-bypass leaks
        // to software masking, so no practical industry stack is
        // sufficient and the report says which attacks escape.
        let report = minimal_cover(
            attacks::registry(),
            &practical_industry(),
            &UarchConfig::default(),
        )
        .unwrap();
        assert!(report.minimal.is_none());
        assert!(report.greedy.is_none());
        for escaped in [
            attacks::names::SPECTRE_V1,
            attacks::names::SPECTRE_V1_1,
            attacks::names::SPECTRE_V1_2,
        ] {
            assert!(
                report.uncovered.contains(&escaped),
                "{escaped} should be uncoverable, got {:?}",
                report.uncovered
            );
        }
        assert!(report.to_string().contains("no sufficient stack"));
    }

    #[test]
    fn practical_industry_cover_needs_a_real_bundle_on_its_own_turf() {
        // Restricted to the attacks practical industry defenses *can*
        // block, the search finds a genuine multi-member bundle and proves
        // it minimal — no industry silver bullet exists.
        let report_all = minimal_cover(
            attacks::registry(),
            &practical_industry(),
            &UarchConfig::default(),
        )
        .unwrap();
        let coverable: Vec<&'static dyn Attack> = attacks::registry()
            .iter()
            .filter(|a| !report_all.uncovered.contains(&a.info().name))
            .copied()
            .collect();
        assert!(!coverable.is_empty());
        let report =
            minimal_cover(&coverable, &practical_industry(), &UarchConfig::default()).unwrap();
        let minimal = report.minimal.expect("coverable subset is covered");
        assert!(
            minimal.members().len() >= 2,
            "no industry silver bullet even on its own turf: {minimal}"
        );
        // BHI forces prediction *avoidance* into the bundle: flush-on-switch
        // members alone cannot be the predictor answer.
        assert!(
            minimal
                .members()
                .iter()
                .any(|d| d.name == crate::names::RETPOLINE),
            "expected retpoline in {minimal}"
        );
        let audit = audit_one(&minimal, &coverable);
        assert!(audit.is_sufficient(), "{audit}");
    }

    #[test]
    fn preset_audit_calls_out_false_senses() {
        // linux_default blocks the injection/Meltdown families but leaks
        // Spectre v1 — and strategy ① *would* close v1's graph, so the
        // bundle is a stack-level false sense of security for it.
        let audit = audit_one(&presets::linux_default(), attacks::registry());
        assert!(!audit.is_sufficient());
        assert!(audit.blocked.contains(&attacks::names::MELTDOWN));
        assert!(audit.blocked.contains(&attacks::names::SPECTRE_V2));
        assert!(audit.leaked.contains(&attacks::names::SPECTRE_V1));
        assert!(audit.false_sense.contains(&attacks::names::SPECTRE_V1));
        assert!(audit.to_string().contains("false sense"));
    }

    #[test]
    fn empty_attack_set_reports_no_stack() {
        let report = minimal_cover(&[], crate::registry(), &UarchConfig::default()).unwrap();
        assert!(report.uncovered.is_empty());
        assert!(report.greedy.is_none());
        assert!(report.minimal.is_none());
        assert_eq!(report.stacks_verified, 0);
        assert!(report.false_sense_stacks.is_empty());
    }

    #[test]
    fn bulk_audit_matches_per_stack_audits() {
        let base = UarchConfig::default();
        let stacks: Vec<DefenseStack> = presets::all().into_iter().map(|(_, s)| s).collect();
        let bulk = audit_stacks(&stacks, attacks::registry(), &base).unwrap();
        assert_eq!(bulk.len(), stacks.len());
        for (stack, audit) in stacks.iter().zip(&bulk) {
            let single = audit_one(stack, attacks::registry());
            assert_eq!(audit.blocked, single.blocked, "{stack}");
            assert_eq!(audit.leaked, single.leaked, "{stack}");
            assert_eq!(audit.false_sense, single.false_sense, "{stack}");
        }
    }

    #[test]
    fn search_records_false_sense_covers() {
        // Over the v1 family, KPTI's singleton union can claim coverage it
        // cannot deliver only if its mask says so — instead check a set
        // where union arithmetic genuinely lies at least never yields a
        // graph-sufficient survivor: every recorded false-sense stack must
        // have leaked in simulation yet be strategy-sufficient everywhere.
        let report = minimal_cover(
            attacks::registry(),
            crate::registry(),
            &UarchConfig::default(),
        )
        .unwrap();
        for name in &report.false_sense_stacks {
            let stack = DefenseStack::parse(name).unwrap();
            let audit = audit_one(&stack, attacks::registry());
            assert!(!audit.is_sufficient(), "{name} was recorded as leaking");
            for attack in attacks::registry() {
                assert_eq!(
                    stack.graph_sufficient(*attack).unwrap(),
                    Some(true),
                    "{name} must be graph-sufficient for {}",
                    attack.info().name
                );
            }
        }
    }
}
