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
//! The search deduplicates candidates by [`Overlay`](defenses::Overlay)
//! fingerprint (LFENCE and MFENCE are the same machine, so only one
//! participates), and reports attacks that **no** candidate blocks — over
//! the industry subset of the catalog that set is non-empty, which is
//! exactly the paper's point.
//!
//! Every verdict here is a projection of a [`CampaignMatrix`]: the
//! singleton masks come from one cube of the attacks × modeled candidates,
//! each search size verifies its candidate stacks as one cube, and an audit
//! is one cube of the audited stacks. So the cover search runs on the
//! campaign executor, sharing one simulation among candidates that deploy
//! the same machine and one graph session per attack.
//!
//! ```no_run
//! use specgraph::cover;
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

use crate::campaign::{CampaignMatrix, CampaignSpec, CellOutcome, MatrixCell};
use attacks::{Attack, AttackError};
use defenses::{Defense, DefenseStack, Verdict};
use std::fmt;
use uarch::UarchConfig;

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
    /// Candidate stacks the search verified against the full attack set:
    /// the union-covering, conflict-free combinations in search order
    /// (smallest size first, lexicographic within a size) up to and
    /// including [`minimal`](Self::minimal), or all of them when there is
    /// none. A size-1 candidate is verified by its singleton simulation.
    pub stacks_verified: usize,
    /// The verified candidates (counted as in
    /// [`stacks_verified`](Self::stacks_verified)) whose member
    /// *strategies* are graph-sufficient for every attack (Theorem 1 says
    /// the bundle closes every leak path) but whose deployed mechanisms
    /// still leaked under simulation — the §V-B "false sense of security"
    /// at search granularity.
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

/// Audits every stack against every attack: one campaign cube of the
/// stacks, read per stack. Each cell's machine verdict sorts its attack
/// into [`blocked`](StackAudit::blocked) or [`leaked`](StackAudit::leaked)
/// (an all-software stack's graph-only cells go in neither), and a leaking
/// cell whose strategies are graph-sufficient is a
/// [`false_sense`](StackAudit::false_sense). Audit a single stack with a
/// one-element slice.
///
/// # Errors
///
/// Propagates [`AttackError`] from any simulation.
///
/// # Panics
///
/// Panics if a simulation panics: the cube quarantines the cell, and an
/// audit has no degraded answer to give for it.
pub fn audit_stacks(
    stacks: &[DefenseStack],
    attacks_list: &[&'static dyn Attack],
    base: &UarchConfig,
) -> Result<Vec<StackAudit>, AttackError> {
    let matrix = run_cube(attacks_list, stacks.iter().cloned(), base)?;
    Ok(stacks
        .iter()
        .cloned()
        .enumerate()
        .map(|(d, stack)| StackAudit {
            stack,
            blocked: attacks_where(&matrix, d, |c| c.evaluation.mechanism == Verdict::Blocked),
            leaked: attacks_where(&matrix, d, |c| c.evaluation.mechanism == Verdict::Leaked),
            false_sense: attacks_where(&matrix, d, MatrixCell::false_sense_of_security),
        })
        .collect())
}

/// Runs `attacks_list` × `stacks` on `base` as one campaign cube,
/// re-raising the panic of any quarantined cell.
fn run_cube(
    attacks_list: &[&'static dyn Attack],
    stacks: impl IntoIterator<Item = DefenseStack>,
    base: &UarchConfig,
) -> Result<CampaignMatrix, AttackError> {
    let spec = CampaignSpec::builder(base.clone())
        .attacks(attacks_list.iter().copied())
        .defense_stacks(stacks)
        .build();
    let matrix = CampaignMatrix::run(&spec)?;
    for cell in matrix.cells() {
        if let CellOutcome::Quarantined { reason } = &cell.outcome {
            panic!("{} under {}: {reason}", cell.attack, cell.defense);
        }
    }
    Ok(matrix)
}

/// Stack `d`'s cells of a one-config cube, in attack order: the cells are
/// attack-major, so they sit one defense-axis stride apart.
fn column(matrix: &CampaignMatrix, d: usize) -> impl Iterator<Item = &MatrixCell> {
    matrix.cells().iter().skip(d).step_by(matrix.defenses.len())
}

/// The attacks whose cell in stack `d`'s column satisfies `keep`.
fn attacks_where(
    matrix: &CampaignMatrix,
    d: usize,
    keep: impl Fn(&MatrixCell) -> bool,
) -> Vec<&'static str> {
    column(matrix, d)
        .filter(|c| keep(c))
        .map(|c| c.attack)
        .collect()
}

/// The industry defenses a deployment would actually enable everywhere:
/// Table II minus ubiquitous fencing (LFENCE/MFENCE serialize *every*
/// load — "sufficient" by brute force, ruled out by the paper's overhead
/// discussion). This is the canonical candidate set for the practical
/// Table-IV searches; the `table4` binary and the tests share it so the
/// printed claim and the proof cannot drift.
#[must_use]
pub fn practical_industry() -> Vec<Defense> {
    defenses::registry()
        .iter()
        .filter(|d| {
            d.origin == defenses::Origin::Industry
                && d.name != defenses::names::LFENCE
                && d.name != defenses::names::MFENCE
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

    // Singleton verdicts for every modeled candidate, from one cube.
    let modeled: Vec<Defense> = candidates
        .iter()
        .filter(|d| d.is_modeled())
        .copied()
        .collect();
    let singles = run_cube(
        attacks_list,
        modeled.iter().map(|d| DefenseStack::single(*d)),
        base,
    )?;
    let singletons: Vec<SingletonCover> = modeled
        .iter()
        .enumerate()
        .map(|(d, defense)| SingletonCover {
            defense: defense.name,
            blocks: attacks_where(&singles, d, |c| c.evaluation.mechanism == Verdict::Blocked),
        })
        .collect();
    let singleton_masks: Vec<AttackMask> = (0..modeled.len())
        .map(|d| blocked_mask(column(&singles, d)))
        .collect();

    // Attacks nothing blocks: coverage is impossible over these candidates.
    let union = singleton_masks.iter().fold(0, |acc, m| acc | m);
    let uncovered: Vec<&'static str> = attack_names
        .iter()
        .enumerate()
        .filter(|(i, _)| full & (1 << i) & !union != 0)
        .map(|(_, n)| *n)
        .collect();
    let mut report = CoverReport {
        attacks: attack_names,
        singletons,
        uncovered,
        greedy: None,
        minimal: None,
        stacks_verified: 0,
        false_sense_stacks: Vec::new(),
    };
    if full == 0 || union & full != full {
        // Nothing to cover, or coverage impossible: no stack to report.
        return Ok(report);
    }

    // Deduplicate by machine effect: LFENCE and MFENCE are one candidate.
    let mut seen = std::collections::HashSet::new();
    let reps: Vec<usize> = (0..modeled.len())
        .filter(|&i| seen.insert(modeled[i].overlay().expect("modeled").fingerprint()))
        .collect();

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

    // Exhaustive search below the greedy bound, smallest size first. A
    // covering singleton is proved by its own column of the singleton
    // cube. Beyond that, only conflict-free combinations whose singleton
    // union covers are worth verifying, each size's as one cube.
    let max_k = greedy.members().len();
    report.greedy = Some(greedy);
    report.minimal = reps
        .iter()
        .find(|&&i| singleton_masks[i] & full == full)
        .map(|&i| DefenseStack::single(modeled[i]));
    report.stacks_verified = usize::from(report.minimal.is_some());
    for k in 2..=max_k {
        if report.minimal.is_some() {
            break;
        }
        let stacks: Vec<DefenseStack> = combinations(&reps, k)
            .into_iter()
            .filter(|chosen| chosen.iter().fold(0, |acc, &i| acc | singleton_masks[i]) == full)
            .filter_map(|chosen| {
                DefenseStack::new(chosen.iter().map(|&i| modeled[i]).collect()).ok()
            })
            .collect();
        if stacks.is_empty() {
            continue;
        }
        let cube = run_cube(attacks_list, stacks.iter().cloned(), base)?;
        for (d, stack) in stacks.into_iter().enumerate() {
            report.stacks_verified += 1;
            if blocked_mask(column(&cube, d)) == full {
                report.minimal = Some(stack);
                break;
            }
            // Union arithmetic lied for this combination; keep searching —
            // but if the bundle's strategies close every leak path on
            // paper, record the §V-B false sense at search granularity.
            if column(&cube, d).all(|cell| cell.evaluation.strategy_sufficient == Some(true)) {
                report.false_sense_stacks.push(stack.name().to_owned());
            }
        }
    }
    Ok(report)
}

/// The attacks (by position) a column of cells blocks.
fn blocked_mask<'a>(cells: impl Iterator<Item = &'a MatrixCell>) -> AttackMask {
    cells
        .enumerate()
        .filter(|(_, cell)| cell.evaluation.mechanism == Verdict::Blocked)
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// Every `k`-combination of `reps`, in lexicographic order.
fn combinations(reps: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    (0..reps.len())
        .flat_map(|pos| {
            combinations(&reps[pos + 1..], k - 1)
                .into_iter()
                .map(move |rest| [&[reps[pos]][..], &rest].concat())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defenses::presets;

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
            defenses::registry(),
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
        assert!(audit.leaked.is_empty(), "{audit}");
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
                .any(|d| d.name == defenses::names::RETPOLINE),
            "expected retpoline in {minimal}"
        );
        let audit = audit_one(&minimal, &coverable);
        assert!(audit.leaked.is_empty(), "{audit}");
    }

    #[test]
    fn preset_audit_calls_out_false_senses() {
        // linux_default blocks the injection/Meltdown families but leaks
        // Spectre v1 — and strategy ① *would* close v1's graph, so the
        // bundle is a stack-level false sense of security for it.
        let audit = audit_one(&presets::linux_default(), attacks::registry());
        assert!(!audit.leaked.is_empty());
        assert!(audit.blocked.contains(&attacks::names::MELTDOWN));
        assert!(audit.blocked.contains(&attacks::names::SPECTRE_V2));
        assert!(audit.leaked.contains(&attacks::names::SPECTRE_V1));
        assert!(audit.false_sense.contains(&attacks::names::SPECTRE_V1));
        assert!(audit.to_string().contains("false sense"));
    }

    #[test]
    fn empty_attack_set_reports_no_stack() {
        let report = minimal_cover(&[], defenses::registry(), &UarchConfig::default()).unwrap();
        assert!(report.uncovered.is_empty());
        assert!(report.greedy.is_none());
        assert!(report.minimal.is_none());
        assert_eq!(report.stacks_verified, 0);
        assert!(report.false_sense_stacks.is_empty());
    }

    #[test]
    fn software_only_stacks_stay_out_of_the_machine_cover() {
        // An all-software stack has no machine to deploy: its audit neither
        // blocks nor leaks anything, and the cover search never offers a
        // software-only defense as a singleton.
        let base = UarchConfig::default();
        let software = DefenseStack::parse("mask-coarse").unwrap();
        let audit = audit_stacks(&[software], attacks::registry(), &base)
            .unwrap()
            .remove(0);
        assert!(audit.blocked.is_empty(), "{audit}");
        assert!(audit.leaked.is_empty(), "{audit}");
        assert!(audit.false_sense.is_empty(), "{audit}");
        let report = minimal_cover(attacks::registry(), defenses::registry(), &base).unwrap();
        let software_only: Vec<&str> = defenses::registry()
            .iter()
            .filter(|d| !d.is_modeled())
            .map(|d| d.name)
            .collect();
        assert!(!software_only.is_empty());
        for single in &report.singletons {
            assert!(
                !software_only.contains(&single.defense),
                "{} is software-only",
                single.defense
            );
        }
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
        // Every recorded false-sense stack must have leaked in simulation
        // yet be strategy-sufficient for every attack.
        let report = minimal_cover(
            attacks::registry(),
            defenses::registry(),
            &UarchConfig::default(),
        )
        .unwrap();
        for name in &report.false_sense_stacks {
            let stack = DefenseStack::parse(name).unwrap();
            let audit = audit_one(&stack, attacks::registry());
            assert!(!audit.leaked.is_empty(), "{name} was recorded as leaking");
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
