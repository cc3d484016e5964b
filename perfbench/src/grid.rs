//! `grid`: the headline campaign grid, one `CampaignMatrix::run` pass per
//! operation — full attack registry × every catalog defense as a singleton
//! stack × the Figure-8 hardening slices (3,410 tasks), followed by
//! `to_json` and `fault::write_atomic` of the matrix.
//!
//! The timed passes run on one worker thread. The executor deals tasks to
//! fixed per-thread stripes, so a two-thread pass waits for the slower of
//! the host's two cores; co-tenants slow one core for seconds at a time,
//! and two-thread pass times then swing by a third between runs. One
//! untimed two-thread pass must reproduce the timed passes' bytes, so the
//! parallel path is still checked.

use crate::util::{self, Rng, SpeedClock, WorkDir};
use crate::{Args, Outcome, THREADS};
use specgraph::attacks;
use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
use specgraph::defenses;
use specgraph::fault;
use specgraph::uarch::UarchConfig;
use std::error::Error;
use std::path::Path;
use std::time::Instant;

/// Worker threads of a timed pass (see the module docs).
const PASS_THREADS: usize = 1;

/// Tasks in one pass: 22 × 5 baselines + 22 × 30 × 5 cells.
pub const TASKS: usize = 3_410;

/// [`util::verdict_digest`] of the grid's matrix at the commit that
/// defined this benchmark. Row order does not enter the digest, so it is
/// the same for every seed.
pub const DIGEST: u64 = 0x209a_e0a9_5298_1832;

const SETUP_REPEATS: usize = 7;

/// The grid spec. The seed only permutes the attack and defense axes: the
/// same cube is evaluated in a seed-dependent task order.
pub fn spec(seed: u64, threads: usize) -> CampaignSpec {
    let mut rng = Rng::new(seed);
    let mut attack_axis = attacks::registry().to_vec();
    rng.shuffle(&mut attack_axis);
    let mut defense_axis = defenses::registry().to_vec();
    rng.shuffle(&mut defense_axis);
    CampaignSpec::builder(UarchConfig::default())
        .attacks(attack_axis)
        .defenses(defense_axis)
        .axis(Knob::Hardening, Hardening::figure8())
        .threads(threads)
        .build()
}

/// One operation: run the cube, serialize it, write it atomically.
fn pass(spec: &CampaignSpec, out: &Path) -> Result<(CampaignMatrix, String), Box<dyn Error>> {
    let matrix = CampaignMatrix::run(spec)?;
    let json = matrix.to_json();
    fault::write_atomic(out, &json)?;
    Ok((matrix, json))
}

/// Whether a matrix carries exactly the expected verdicts.
pub fn matrix_ok(m: &CampaignMatrix) -> bool {
    m.baselines().len() + m.cells().len() == TASKS
        && util::all_rows_ok(m)
        && util::digest_matches("grid", m, DIGEST)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, Box<dyn Error>> {
    let out_path = work.path("grid-matrix.json");
    let mut out = Outcome::default();
    let mut clock = SpeedClock::new(PASS_THREADS);

    // Set-up: build the spec and registries, run one warm-up pass, and
    // reload the artifact once. Repeated; the median is reported.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let (result, dt) = clock.time(|| {
            let cube = spec(args.seed, PASS_THREADS);
            pass(&cube, &out_path).map(|(matrix, json)| {
                let reloaded = CampaignMatrix::from_json(&json).is_ok();
                (cube, matrix, json, reloaded)
            })
        });
        setups.push(dt);
        state = Some(result?);
    }
    let (cube, warm, reference, reloaded) = state.expect("at least one set-up");
    if !reloaded {
        println!(
            "# known finding: the grid's own artifact does not reload \
             (defense name `SpecShieldERP+` collides with the `+` stack separator)"
        );
    }
    // The warm-up matrix is checked against the recorded digest; a
    // two-thread pass and every timed pass must reproduce its bytes.
    out.check(matrix_ok(&warm));
    let parallel = pass(&spec(args.seed, THREADS), &out_path)?;
    out.check(parallel.1 == reference);

    let mut times = Vec::new();
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline {
        let (result, dt) = clock.time(|| pass(&cube, &out_path));
        let ok = matches!(&result, Ok((_, json)) if *json == reference);
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
