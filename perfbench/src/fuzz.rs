//! `fuzz`: one full discovery run per operation — `discovery::fuzz::fuzz`
//! from an empty corpus with budget 512, minimization on, two threads and
//! no corpus directory. Each timed pass fuzzes its own seed, drawn from the
//! workload seed, so one run covers many candidate streams.

use crate::util::{self, Rng, SpeedClock, WorkDir};
use crate::{Args, Outcome, THREADS};
use specgraph::discovery::fuzz::{fuzz, Corpus, FuzzConfig};
use std::error::Error;
use std::time::Instant;

pub const BUDGET: u64 = 512;

/// The seed whose corpus counts were recorded when this benchmark was
/// defined; the warm-up pass of every run fuzzes it.
pub const PINNED_SEED: u64 = 42;

/// Agree-leak, agree-safe, divergences, rediscovered and novel findings
/// of the pinned seed's corpus.
pub const PINNED_COUNTS: [u64; 5] = [381, 2, 129, 5, 11];

const SETUP_REPEATS: usize = 7;

pub fn config(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        budget: BUDGET,
        minimize: true,
        threads: THREADS,
        checkpoint_every: 0,
    }
}

pub fn counts(c: &Corpus) -> [u64; 5] {
    [
        c.agree_leak,
        c.agree_safe,
        c.divergences.len() as u64,
        c.rediscovered.len() as u64,
        c.findings.len() as u64,
    ]
}

/// Every candidate classified and no divergence left unexplained.
pub fn corpus_ok(c: &Corpus) -> bool {
    c.classified == BUDGET && c.unexplained().is_empty()
}

pub fn run(args: &Args, _work: &WorkDir) -> Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    let mut clock = SpeedClock::new(THREADS);
    let mut setups = Vec::new();
    let mut pinned = None;
    for _ in 0..SETUP_REPEATS {
        let (report, dt) = clock.time(|| fuzz(&config(PINNED_SEED), None));
        setups.push(dt);
        pinned = Some(report?.corpus);
    }
    let pinned = pinned.expect("at least one set-up");
    out.check(corpus_ok(&pinned) && counts(&pinned) == PINNED_COUNTS);

    let mut seeds = Rng::new(args.seed);
    let mut times = Vec::new();
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline {
        let cfg = config(seeds.next_u64());
        let (result, dt) = clock.time(|| fuzz(&cfg, None));
        let ok = matches!(&result, Ok(r) if corpus_ok(&r.corpus));
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
    out.metric("tasks_per_s", BUDGET as f64 / pass_s, "1/s");
    out.metric("op_ms_p25", pass_s * 1e3, "ms");
    Ok(out)
}
