//! `perfbench` — the campaign pipeline's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|resume|query|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload runs in this one process: its set-up
//! is repeated a few times, then its operation runs back to back for
//! `--seconds`, and every operation's output is checked outside the timed
//! region. Set-ups and passes are timed against a host-speed probe
//! ([`util::SpeedClock`]). With `--trace 1` the layer suite ([`trace`])
//! times calls into each layer's public functions from here, around the
//! same inputs. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fuzz;
mod grid;
mod query;
mod resume;
mod trace;
mod util;

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Worker or client threads every workload uses (the benchmark host has
/// two cores).
pub const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 42u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["grid", "resume", "query", "fuzz"].contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (grid|resume|query|fuzz)"
            ));
        }
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, queries, or traced probes).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Peak resident memory to report instead of the process's peak at
    /// exit, for a workload whose memory grows with its throughput.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn run(args: &Args, work: &util::WorkDir) -> Result<Outcome, Box<dyn Error>> {
    if args.trace {
        return trace::run(args, work);
    }
    match args.workload.as_str() {
        "grid" => grid::run(args, work),
        "resume" => resume::run(args, work),
        "query" => query::run(args, work),
        "fuzz" => fuzz::run(args, work),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match util::WorkDir::create(PathBuf::from(".perfbench_work"), &args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&args, &work);
    work.remove();
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let rss = outcome.peak_rss_mb.unwrap_or_else(util::peak_rss_mb);
        outcome.metric("peak_rss_mb", rss, "MB");
    }
    util::print_report(&args, &outcome);
    ExitCode::SUCCESS
}
