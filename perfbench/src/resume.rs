//! `resume`: one crash-recovery pass of the checkpointing `Scheduler` per
//! operation. The spec is the attack registry × eight defense stacks (the
//! four presets plus `kpti+retpoline+ibpb`, `lfence`, `nda`, `stt`) × the
//! Figure-8 hardening slices × `rob=16,32,64,128`: 3,960 tasks in 248
//! chunks. Before each pass a seeded quarter of the chunk checkpoints is
//! damaged (half deleted, half truncated); the pass then resumes the rest
//! from disk, re-runs the damaged chunks, merges, and writes the matrix.

use crate::util::{self, Rng, SpeedClock, WorkDir};
use crate::{Args, Outcome, THREADS};
use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
use specgraph::defenses::{presets, DefenseStack};
use specgraph::fault;
use specgraph::serve::{ScheduleReport, Scheduler};
use specgraph::uarch::UarchConfig;
use std::collections::BTreeSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tasks in the cube: 22 × 20 baselines + 22 × 8 × 20 cells.
pub const TASKS: usize = 3_960;

/// Chunks at the scheduler's default 16 tasks per chunk.
pub const CHUNKS: usize = 248;

/// [`util::verdict_digest`] of the resume spec's matrix at the commit that
/// defined this benchmark.
pub const DIGEST: u64 = 0xfeee_253e_843d_0421;

const SETUP_REPEATS: usize = 7;

/// The defense-stack axis shared by `resume` and `query`.
pub fn stacks() -> Vec<DefenseStack> {
    let mut stacks: Vec<DefenseStack> = presets::all().into_iter().map(|(_, s)| s).collect();
    for expr in ["kpti+retpoline+ibpb", "lfence", "nda", "stt"] {
        stacks.push(DefenseStack::parse(expr).expect("catalog tokens"));
    }
    stacks
}

pub fn spec() -> CampaignSpec {
    CampaignSpec::builder(UarchConfig::default())
        .defense_stacks(stacks())
        .axis(Knob::Hardening, Hardening::figure8())
        .axis(Knob::RobDepth, [16usize, 32, 64, 128])
        .threads(THREADS)
        .build()
}

pub fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:05}.json"))
}

/// The damage done before one pass: which chunks were deleted and which
/// truncated.
#[derive(Debug, Default)]
pub struct Damage {
    pub deleted: BTreeSet<usize>,
    pub truncated: BTreeSet<usize>,
}

/// Damages a seeded quarter of the checkpoints: half deleted, half cut to
/// half their length (a writer killed mid-write).
pub fn damage(dir: &Path, rng: &mut Rng) -> std::io::Result<Damage> {
    let picked = rng.sample(CHUNKS, CHUNKS / 4);
    let mut d = Damage::default();
    for (k, &index) in picked.iter().enumerate() {
        let path = chunk_path(dir, index);
        if k % 2 == 0 {
            std::fs::remove_file(&path)?;
            d.deleted.insert(index);
        } else {
            let bytes = std::fs::read(&path)?;
            std::fs::write(&path, &bytes[..bytes.len() / 2])?;
            d.truncated.insert(index);
        }
    }
    Ok(d)
}

/// Whether a pass's report is exactly what the damage implies: every
/// undamaged checkpoint resumed, every damaged chunk re-ran, and only the
/// truncated ones were reported as repairs.
pub fn report_ok(r: &ScheduleReport, d: &Damage) -> bool {
    let damaged = d.deleted.len() + d.truncated.len();
    let repaired: BTreeSet<usize> = r.repaired.iter().map(|c| c.index).collect();
    r.chunks == CHUNKS
        && r.resumed == CHUNKS - damaged
        && r.executed == damaged
        && repaired == d.truncated
}

/// One pass: resume from the checkpoint directory, merge, write the matrix.
pub fn pass(
    spec: &CampaignSpec,
    dir: &Path,
    out: &Path,
) -> Result<(ScheduleReport, String), Box<dyn Error>> {
    let (matrix, report) = Scheduler::new(spec)
        .workers(THREADS)
        .checkpoint(dir)
        .run()?;
    let json = matrix.to_json();
    fault::write_atomic(out, &json)?;
    Ok((report, json))
}

/// Writes the full checkpoint set from an empty directory; returns the
/// matrix and its JSON.
pub fn initial_checkpoints(
    spec: &CampaignSpec,
    dir: &Path,
    out: &Path,
) -> Result<(CampaignMatrix, String), Box<dyn Error>> {
    util::fresh_dir(dir)?;
    let (matrix, _) = Scheduler::new(spec)
        .workers(THREADS)
        .checkpoint(dir)
        .run()?;
    let json = matrix.to_json();
    fault::write_atomic(out, &json)?;
    Ok((matrix, json))
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, Box<dyn Error>> {
    let dir = work.path("checkpoints");
    let out_path = work.path("resume-matrix.json");
    let mut out = Outcome::default();

    let mut clock = SpeedClock::new(THREADS);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let (result, dt) = clock.time(|| {
            let spec = spec();
            initial_checkpoints(&spec, &dir, &out_path).map(|(matrix, json)| (spec, matrix, json))
        });
        setups.push(dt);
        state = Some(result?);
    }
    let (spec, matrix, reference) = state.expect("at least one set-up");
    // The reference must carry the recorded verdicts and equal a fresh,
    // checkpoint-free scheduler run of the same spec.
    let (fresh, _) = Scheduler::new(&spec).workers(THREADS).run()?;
    out.check(
        matrix.baselines().len() + matrix.cells().len() == TASKS
            && util::all_rows_ok(&matrix)
            && util::digest_matches("resume", &matrix, DIGEST)
            && fresh.to_json() == reference,
    );

    let mut rng = Rng::new(args.seed);
    let mut times = Vec::new();
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline {
        let damage = damage(&dir, &mut rng)?;
        let (result, dt) = clock.time(|| pass(&spec, &dir, &out_path));
        let ok = matches!(&result, Ok((report, json)) if report_ok(report, &damage) && *json == reference);
        out.check(ok);
        if ok {
            times.push(dt);
        }
    }
    if times.is_empty() {
        return Err("no pass completed".into());
    }
    clock.summary("pass seconds");
    let pass_s = util::op_time("pass seconds", &times);
    out.metric("setup_s", util::median(&setups), "s");
    out.metric("tasks_per_s", TASKS as f64 / pass_s, "1/s");
    out.metric("op_ms_p25", pass_s * 1e3, "ms");
    Ok(out)
}
