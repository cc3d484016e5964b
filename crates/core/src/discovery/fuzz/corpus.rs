//! The resumable on-disk corpus (schema v6), whose findings a campaign
//! reads back as synthesized attacks.
//!
//! A [`Corpus`] records everything a fuzzing run has established — how
//! many candidates are classified, every divergence with its explanation,
//! every rediscovered catalog attack, every novel minimized leaker, and
//! the full set of raw fingerprints already seen — so a later run with
//! the same seed resumes *after* the classified prefix instead of redoing
//! it, with bit-identical results to an uninterrupted run.
//!
//! Programs are serialized as assembler text ([`isa::asm::disassemble`])
//! and re-parsed with the workspace's own assembler, so the corpus stays
//! readable in a diff and needs no bespoke instruction encoding. The
//! JSON itself follows the campaign writers' conventions and is read
//! back by [`crate::jsonio`].

use super::gen::{Combo, Mutation, Scenario};
use super::oracle::Agreement;
use crate::jsonio::{self, json_str, push_json_list, Json};
use attacks::{Attack, AttackInfo, AttackOutcome};
use isa::asm;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tsg::SecurityAnalysis;
use uarch::Machine;

/// Corpus schema version. The fuzz corpus is its own document kind, so
/// this counter moves independently of the campaign writers'
/// [`SCHEMA_VERSION`](crate::campaign::SCHEMA_VERSION).
pub const FUZZ_SCHEMA_VERSION: u64 = 6;

/// Corpus file name inside a `--corpus` directory.
pub const CORPUS_FILE: &str = "fuzz-corpus.json";

/// A corpus read/write problem.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not valid JSON.
    Json(jsonio::JsonError),
    /// The document parsed but violates the schema.
    Schema(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Json(e) => write!(f, "corpus parse error: {e}"),
            CorpusError::Schema(m) => write!(f, "corpus schema error: {m}"),
        }
    }
}

impl CorpusError {
    /// Whether this error means "a corpus existed but was cut short on
    /// disk" — the typed [`Truncated`](jsonio::JsonErrorKind::Truncated)
    /// signature of a writer killed mid-save. Recoverable: the fuzzer can
    /// discard the damaged file and re-classify from the last good budget
    /// instead of failing with a generic parse error.
    #[must_use]
    pub fn is_recoverable(&self) -> bool {
        matches!(self, CorpusError::Json(e) if e.is_truncated())
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<jsonio::JsonError> for CorpusError {
    fn from(e: jsonio::JsonError) -> Self {
        CorpusError::Json(e)
    }
}

/// One Theorem-1-vs-simulation disagreement, with its explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceRecord {
    /// Candidate index under the corpus seed.
    pub index: u64,
    /// The candidate's design-space point ([`AttackPoint::label`](attacks::AttackPoint::label)).
    pub combo: String,
    /// The candidate's mutation tags.
    pub mutations: Vec<Mutation>,
    /// The classified bucket ([`super::Agreement::tag`]).
    pub agreement: String,
}

/// A candidate whose fingerprint matched a catalog attack's lifted shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rediscovery {
    /// The catalog attack's canonical name.
    pub name: String,
    /// Candidate index that rediscovered it.
    pub index: u64,
    /// The shared fingerprint.
    pub fingerprint: u64,
}

/// A novel leaking scenario: leaks under both oracles, fingerprint seen
/// in neither the catalog nor earlier in this corpus, minimized to
/// 1-minimality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Candidate index that produced it.
    pub index: u64,
    /// Design-space point ([`AttackPoint::label`](attacks::AttackPoint::label)).
    pub combo: String,
    /// Mutation tags of the originating candidate.
    pub mutations: Vec<Mutation>,
    /// Fingerprint of the as-generated (raw) lifted graph.
    pub raw_fingerprint: u64,
    /// Fingerprint after minimization.
    pub minimized_fingerprint: u64,
    /// The minimized program, as assembler text.
    pub program: String,
    /// `access_pc` of the minimized scenario.
    pub access_pc: u64,
    /// `gadget_pc` of the minimized scenario.
    pub gadget_pc: u64,
    /// `benign_pc` of the minimized scenario.
    pub benign_pc: u64,
    /// Instructions the shrinker deleted.
    pub removed: u64,
}

impl Finding {
    /// Rebuilds the runnable minimized scenario.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Schema`] if the stored program does not parse or is
    /// empty, the combo label names no executable point, or a pc lies past
    /// the program's end — a hand-edited or corrupt corpus. A pc equal to
    /// the length is allowed: a minimized program's trailing `out:` label
    /// points there.
    pub fn scenario(&self) -> Result<Scenario, CorpusError> {
        let combo = Combo::from_label(&self.combo)
            .ok_or_else(|| CorpusError::Schema(format!("bad combo label {:?}", self.combo)))?;
        let program = asm::assemble(&self.program)
            .map_err(|e| CorpusError::Schema(format!("bad finding program: {e}")))?;
        if program.is_empty() {
            return Err(CorpusError::Schema("empty finding program".into()));
        }
        let pc = |pc: u64| {
            usize::try_from(pc)
                .ok()
                .filter(|&pc| pc <= program.len())
                .ok_or_else(|| CorpusError::Schema(format!("finding pc {pc} is out of range")))
        };
        Ok(Scenario {
            combo,
            mutations: self.mutations.clone(),
            access_pc: pc(self.access_pc)?,
            gadget_pc: pc(self.gadget_pc)?,
            benign_pc: pc(self.benign_pc)?,
            program,
        })
    }

    /// The finding's stable registry name, derived from its minimized
    /// fingerprint.
    #[must_use]
    pub fn name(&self) -> String {
        format!("synth-{:016x}", self.minimized_fingerprint)
    }
}

/// The resumable fuzzing corpus: classification counters plus every
/// first-class artifact the run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Corpus {
    /// The seed the whole corpus is derived from.
    pub seed: u64,
    /// Whether findings were minimized (resume requires a match).
    pub minimize: bool,
    /// Candidates classified so far: resume starts at this index.
    pub classified: u64,
    /// Candidates where both oracles said "leak".
    pub agree_leak: u64,
    /// Candidates where both oracles said "safe".
    pub agree_safe: u64,
    /// Every divergence, in candidate order.
    pub divergences: Vec<DivergenceRecord>,
    /// Every rediscovered catalog attack, in candidate order.
    pub rediscovered: Vec<Rediscovery>,
    /// Every distinct raw fingerprint seen, in first-seen order.
    pub raw_seen: Vec<u64>,
    /// Novel minimized leakers, in discovery order.
    pub findings: Vec<Finding>,
}

impl Corpus {
    /// An empty corpus for `seed`.
    #[must_use]
    pub fn new(seed: u64, minimize: bool) -> Self {
        Corpus {
            seed,
            minimize,
            ..Corpus::default()
        }
    }

    /// Unexplained divergences — the suite asserts this is empty. A record
    /// whose tag is no [`Agreement`] explains nothing, so it counts too.
    #[must_use]
    pub fn unexplained(&self) -> Vec<&DivergenceRecord> {
        self.divergences
            .iter()
            .filter(|d| Agreement::from_tag(&d.agreement).is_none_or(|a| a.is_unexplained()))
            .collect()
    }

    /// Serializes to the v6 `fuzz-corpus` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"version\": {FUZZ_SCHEMA_VERSION},\n  \"kind\": \"fuzz-corpus\",\n  \
             \"seed\": {},\n  \"minimize\": {},\n  \"classified\": {},\n  \
             \"agree_leak\": {},\n  \"agree_safe\": {},",
            self.seed, self.minimize, self.classified, self.agree_leak, self.agree_safe
        );
        out.push_str("\n  \"divergences\": [");
        for (i, d) in self.divergences.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"index\": {}, \"combo\": {}, \"mutations\": [",
                d.index,
                json_str(&d.combo)
            );
            push_json_list(&mut out, d.mutations.iter().map(|m| m.tag()));
            let _ = write!(out, "], \"agreement\": {}}}", json_str(&d.agreement));
        }
        out.push_str("\n  ],\n  \"rediscovered\": [");
        for (i, r) in self.rediscovered.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": {}, \"index\": {}, \"fingerprint\": {}}}",
                json_str(&r.name),
                r.index,
                r.fingerprint
            );
        }
        out.push_str("\n  ],\n  \"raw_seen\": [");
        for (i, fp) in self.raw_seen.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{fp}");
        }
        out.push_str("],\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"index\": {}, \"combo\": {}, \"mutations\": [",
                f.index,
                json_str(&f.combo)
            );
            push_json_list(&mut out, f.mutations.iter().map(|m| m.tag()));
            let _ = write!(
                out,
                "], \"raw_fingerprint\": {}, \"minimized_fingerprint\": {}, \
                 \"program\": {}, \"access_pc\": {}, \"gadget_pc\": {}, \
                 \"benign_pc\": {}, \"removed\": {}}}",
                f.raw_fingerprint,
                f.minimized_fingerprint,
                json_str(&f.program),
                f.access_pc,
                f.gadget_pc,
                f.benign_pc,
                f.removed
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a v6 `fuzz-corpus` document.
    ///
    /// # Errors
    ///
    /// [`CorpusError`] on JSON problems or schema violations (wrong
    /// version/kind, missing fields, bad tags).
    pub fn from_json(text: &str) -> Result<Self, CorpusError> {
        let doc = jsonio::parse(text)?;
        expect_header(&doc, "fuzz-corpus")?;
        let mut corpus = Corpus {
            seed: req(&doc, "seed", Json::as_u64)?,
            minimize: req(&doc, "minimize", Json::as_bool)?,
            classified: req(&doc, "classified", Json::as_u64)?,
            agree_leak: req(&doc, "agree_leak", Json::as_u64)?,
            agree_safe: req(&doc, "agree_safe", Json::as_u64)?,
            ..Corpus::default()
        };
        for d in req(&doc, "divergences", Json::as_arr)? {
            corpus.divergences.push(DivergenceRecord {
                index: req(d, "index", Json::as_u64)?,
                combo: tagged(d, "combo", Combo::from_label)?,
                mutations: mutations_of(d)?,
                agreement: tagged(d, "agreement", Agreement::from_tag)?,
            });
        }
        for r in req(&doc, "rediscovered", Json::as_arr)? {
            corpus.rediscovered.push(Rediscovery {
                name: req(r, "name", Json::as_str)?.into(),
                index: req(r, "index", Json::as_u64)?,
                fingerprint: req(r, "fingerprint", Json::as_u64)?,
            });
        }
        for fp in req(&doc, "raw_seen", Json::as_arr)? {
            corpus.raw_seen.push(
                fp.as_u64().ok_or_else(|| {
                    CorpusError::Schema("raw_seen entries must be numbers".into())
                })?,
            );
        }
        for f in req(&doc, "findings", Json::as_arr)? {
            corpus.findings.push(Finding {
                index: req(f, "index", Json::as_u64)?,
                combo: req(f, "combo", Json::as_str)?.into(),
                mutations: mutations_of(f)?,
                raw_fingerprint: req(f, "raw_fingerprint", Json::as_u64)?,
                minimized_fingerprint: req(f, "minimized_fingerprint", Json::as_u64)?,
                program: req(f, "program", Json::as_str)?.into(),
                access_pc: req(f, "access_pc", Json::as_u64)?,
                gadget_pc: req(f, "gadget_pc", Json::as_u64)?,
                benign_pc: req(f, "benign_pc", Json::as_u64)?,
                removed: req(f, "removed", Json::as_u64)?,
            });
        }
        Ok(corpus)
    }

    /// The corpus file path inside `dir`.
    #[must_use]
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CORPUS_FILE)
    }

    /// Writes the corpus into `dir` (created if missing), atomically via
    /// a rename so a killed run never leaves a half-written corpus.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] on filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<(), CorpusError> {
        fs::create_dir_all(dir)?;
        crate::fault::write_atomic(Self::path_in(dir), &self.to_json())?;
        Ok(())
    }

    /// Loads the corpus from `dir`; `Ok(None)` when no corpus exists yet.
    ///
    /// # Errors
    ///
    /// [`CorpusError`] on filesystem or parse failure.
    pub fn load(dir: &Path) -> Result<Option<Self>, CorpusError> {
        let path = Self::path_in(dir);
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(Self::from_json(&fs::read_to_string(path)?)?))
    }

    /// Materializes the findings as `'static` [`Attack`]s for a campaign
    /// attack axis (`CampaignSpec::attacks`). Each call **leaks** the
    /// scenarios (the campaign API requires `&'static dyn Attack`); call
    /// once per process, not per iteration.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Schema`] if a stored finding no longer parses.
    pub fn attacks(&self) -> Result<Vec<&'static dyn Attack>, CorpusError> {
        self.findings
            .iter()
            .map(|f| {
                let named = NamedScenario {
                    name: Box::leak(f.name().into_boxed_str()),
                    scenario: f.scenario()?,
                };
                Ok(Box::leak(Box::new(named)) as &'static dyn Attack)
            })
            .collect()
    }
}

/// A synthesized scenario with its registry name — the `'static` attack
/// the campaign axis holds.
#[derive(Debug)]
struct NamedScenario {
    name: &'static str,
    scenario: Scenario,
}

impl Attack for NamedScenario {
    fn info(&self) -> AttackInfo {
        AttackInfo {
            name: self.name,
            ..self.scenario.info()
        }
    }

    fn graph(&self) -> SecurityAnalysis {
        self.scenario.graph()
    }

    fn run_in(&self, m: &mut Machine) -> Result<AttackOutcome, attacks::AttackError> {
        self.scenario.run_in(m)
    }
}

fn expect_header(doc: &Json, kind: &str) -> Result<(), CorpusError> {
    match doc.get("version").and_then(Json::as_u64) {
        Some(FUZZ_SCHEMA_VERSION) => {}
        Some(v) => {
            return Err(CorpusError::Schema(format!(
                "unsupported version {v} (expected {FUZZ_SCHEMA_VERSION})"
            )))
        }
        None => return Err(CorpusError::Schema("missing version".into())),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(k) if k == kind => Ok(()),
        Some(k) => Err(CorpusError::Schema(format!(
            "kind {k:?} is not a {kind:?} document"
        ))),
        None => Err(CorpusError::Schema("missing kind".into())),
    }
}

/// A required field of `obj`, read by `get` (`Json::as_u64`, …).
fn req<'a, T>(
    obj: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, CorpusError> {
    obj.get(key)
        .and_then(get)
        .ok_or_else(|| CorpusError::Schema(format!("missing or mistyped field {key:?}")))
}

/// The string field `key`, which must parse with `parse`.
fn tagged<T>(
    obj: &Json,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<String, CorpusError> {
    let tag = req(obj, key, Json::as_str)?;
    parse(tag)
        .map(|_| tag.into())
        .ok_or_else(|| CorpusError::Schema(format!("bad {key} tag {tag:?}")))
}

fn mutations_of(obj: &Json) -> Result<Vec<Mutation>, CorpusError> {
    req(obj, "mutations", Json::as_arr)?
        .iter()
        .map(|m| {
            m.as_str()
                .and_then(Mutation::from_tag)
                .ok_or_else(|| CorpusError::Schema(format!("bad mutation tag {m:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Corpus {
        let combo = Combo::from_label("kernel-memory/conditional-branch/flush-reload").unwrap();
        let s = Scenario::template(combo);
        let mut c = Corpus::new(42, true);
        c.classified = 100;
        c.agree_leak = 60;
        c.agree_safe = 30;
        c.divergences.push(DivergenceRecord {
            index: 7,
            combo: combo.label(),
            mutations: vec![Mutation::DeadValue],
            agreement: "missed-leak/dead-value".into(),
        });
        c.rediscovered.push(Rediscovery {
            name: attacks::names::SPECTRE_V1.into(),
            index: 3,
            fingerprint: 0xdead,
        });
        c.raw_seen = vec![1, 2, 3];
        c.findings.push(Finding {
            index: 11,
            combo: combo.label(),
            mutations: vec![Mutation::Launder],
            raw_fingerprint: 5,
            minimized_fingerprint: 6,
            program: asm::disassemble(&s.program),
            access_pc: s.access_pc as u64,
            gadget_pc: s.gadget_pc as u64,
            benign_pc: s.benign_pc as u64,
            removed: 2,
        });
        c
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let c = sample_corpus();
        let parsed = Corpus::from_json(&c.to_json()).unwrap();
        assert_eq!(parsed, c);
        // And the serialization itself is a fixed point.
        assert_eq!(parsed.to_json(), c.to_json());
    }

    #[test]
    fn finding_scenarios_rebuild_runnable_programs() {
        let c = sample_corpus();
        let s = c.findings[0].scenario().unwrap();
        assert_eq!(s.program.label("out"), Some(s.program.len() - 1));
        assert_eq!(s.access_pc, c.findings[0].access_pc as usize);
    }

    #[test]
    fn finding_scenarios_reject_bad_points_programs_and_pcs() {
        let good = &sample_corpus().findings[0];
        let len = good.scenario().unwrap().program.len() as u64;
        let rejects = |edit: fn(&mut Finding, u64)| {
            let mut f = good.clone();
            edit(&mut f, len);
            matches!(f.scenario(), Err(CorpusError::Schema(_)))
        };
        assert!(rejects(
            |f, _| f.combo = "architectural-memory/delayed-exception/flush-reload".into()
        ));
        assert!(rejects(|f, _| f.program.clear()));
        assert!(rejects(|f, len| f.gadget_pc = len + 1));
        assert!(rejects(|f, _| f.access_pc = u64::MAX));
        // A pc equal to the length is the trailing `out:` label's.
        assert!(!rejects(|f, len| f.benign_pc = len));
    }

    #[test]
    fn corpus_findings_materialize_as_attacks() {
        let c = sample_corpus();
        let attacks = c.attacks().unwrap();
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks[0].info().name, c.findings[0].name());
        // The lifted graph is non-trivial.
        assert!(attacks[0].graph().graph().node_count() > 0);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("fuzz-corpus-test-{}", std::process::id()));
        let c = sample_corpus();
        c.save(&dir).unwrap();
        let loaded = Corpus::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_and_kind_are_schema_errors() {
        let good = sample_corpus().to_json();
        let wrong_version = good.replacen("\"version\": 6", "\"version\": 5", 1);
        assert!(matches!(
            Corpus::from_json(&wrong_version),
            Err(CorpusError::Schema(_))
        ));
        let wrong_kind = good.replacen("fuzz-corpus", "campaign-matrix", 1);
        assert!(matches!(
            Corpus::from_json(&wrong_kind),
            Err(CorpusError::Schema(_))
        ));
    }

    #[test]
    fn unexplained_filter_finds_only_unexplained() {
        let mut c = sample_corpus();
        assert!(c.unexplained().is_empty());
        c.divergences.push(DivergenceRecord {
            index: 9,
            combo: c.divergences[0].combo.clone(),
            mutations: vec![],
            agreement: "false-sense/unexplained".into(),
        });
        assert_eq!(c.unexplained().len(), 1);
        c.divergences[1].agreement = "agree-lek".into();
        assert_eq!(c.unexplained().len(), 1);
    }

    #[test]
    fn bad_agreement_and_combo_tags_are_schema_errors() {
        let good = sample_corpus().to_json();
        for (from, to) in [
            ("\"missed-leak/dead-value\"", "\"agree-lek\""),
            ("\"missed-leak/dead-value\"", "\"missed-leak\""),
            (
                "\"combo\": \"kernel-memory/conditional-branch/flush-reload\"",
                "\"combo\": \"kernel-memory/conditional-branch\"",
            ),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good);
            assert!(
                matches!(Corpus::from_json(&bad), Err(CorpusError::Schema(_))),
                "{to} loaded"
            );
        }
    }
}
