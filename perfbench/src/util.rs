//! Shared plumbing: seeded randomness, order statistics, the scratch work
//! directory, host facts, verdict digests and the report printer.

use crate::{Args, Outcome};
use specgraph::campaign::CampaignMatrix;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// SplitMix64: small, seedable, and identical on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; `values`
/// must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of per-operation times the end-to-end metrics report.
///
/// Co-tenants on the benchmark host only ever add time, in bursts that
/// last from milliseconds to whole runs; the faster part of a run's
/// operations tracks the cost of the code and moves less from run to run
/// than the median does. The 10th percentile is further into that tail
/// but follows the noise of single probe walks ([`SpeedClock`]) more
/// closely; the first quartile spread least over repeated runs. Every
/// operation draws its work from one fixed distribution, so a change to
/// that work moves this quantile like any other.
pub const OP_QUANTILE: f64 = 0.25;

/// [`OP_QUANTILE`] of `times`, with the run's spread on standard error.
pub fn op_time(what: &str, times: &[f64]) -> f64 {
    let q = |p| quantile(times, p);
    eprintln!(
        "perfbench: {what}: {} operations, p10 {:.6} p25 {:.6} p50 {:.6} p90 {:.6}",
        times.len(),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.9)
    );
    q(OP_QUANTILE)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Keys the probe sorts and inserts into a hash map.
const PROBE_KEYS: usize = 40_000;
/// Hash-map lookups in one probe walk, half of them misses.
const PROBE_LOOKUPS: usize = 2 * PROBE_KEYS;

/// The time of one probe walk at the reference host speed: the walk's
/// fast-tail time on the benchmark host (2-core `Intel(R) Xeon(R)
/// Processor`, release build) when it was lightly loaded.
pub const PROBE_REFERENCE_S: f64 = 0.004;

/// A fixed reference computation, independent of the code under test,
/// whose time tracks the host's current speed.
///
/// The benchmark host is shared: co-tenants slow its cores by up to half
/// for seconds to minutes at a time, and CPU-time clocks do not help
/// because the lost speed is contention inside the core, not
/// descheduling. One walk sorts a fixed vector and builds and probes a
/// hash map with a fixed hasher: branchy compares, hashing and scattered
/// loads, like the campaign code. Of several candidate walks (a dependent
/// multiply chain, a pointer chase in L2, a bytecode interpreter,
/// independent xorshift lanes, sorting, hashing), sorting plus hashing
/// slowed most nearly in step with the one-thread `grid` pass under load,
/// so an operation's wall time divided by the walk time measured around it
/// moves with the code and far less with the host.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    /// One scratch area per walking thread, reused so that a walk makes
    /// no allocation and no system call.
    scratch: Vec<Scratch>,
}

type ProbeMap = HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>;

#[derive(Debug)]
struct Scratch {
    sorted: Vec<u64>,
    map: ProbeMap,
}

impl Scratch {
    /// Seconds of one walk on the calling thread.
    fn walk(&mut self, keys: &[u64]) -> f64 {
        let t = std::time::Instant::now();
        self.sorted.clear();
        self.sorted.extend_from_slice(keys);
        self.sorted.sort_unstable();
        self.map.clear();
        for (i, &k) in keys.iter().enumerate() {
            self.map.insert(k, i as u32);
        }
        let mut found = 0u32;
        for i in 0..PROBE_LOOKUPS {
            // Even lookups hit (in sorted order), odd ones miss.
            let key = self.sorted[(i / 2) % keys.len()] ^ (i as u64 & 1);
            found = found.wrapping_add(self.map.get(&key).copied().unwrap_or(1));
        }
        std::hint::black_box(found);
        secs(t.elapsed())
    }
}

impl Probe {
    /// A probe for walks on up to `threads` threads at once.
    pub fn new(threads: usize) -> Probe {
        // The same keys for every seed and every run.
        let mut rng = Rng::new(0x9e37);
        let keys = (0..PROBE_KEYS).map(|_| rng.next_u64()).collect();
        // Sized here, on the calling thread, so that walks on other
        // threads never allocate (nor touch another malloc arena).
        let scratch = (0..threads.max(1))
            .map(|_| Scratch {
                sorted: Vec::with_capacity(PROBE_KEYS),
                map: ProbeMap::with_capacity_and_hasher(PROBE_KEYS, BuildHasherDefault::default()),
            })
            .collect();
        Probe { keys, scratch }
    }

    /// Mean walk time of one walk per scratch area, all at once (one per
    /// core an operation of that many threads runs on); a single walk runs
    /// on the calling thread.
    pub fn time(&mut self) -> f64 {
        let keys = &self.keys;
        if let [only] = self.scratch.as_mut_slice() {
            return only.walk(keys);
        }
        let walks: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .scratch
                .iter_mut()
                .enumerate()
                .map(|(cpu, s)| {
                    scope.spawn(move || {
                        // Two walks sharing one core would time the
                        // scheduler; a failed pin just leaves it unpinned.
                        pin_to_cpu(cpu);
                        s.walk(keys)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe walk panicked"))
                .collect()
        });
        walks.iter().sum::<f64>() / walks.len() as f64
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to one CPU (below 64); returns whether it took.
fn pin_to_cpu(cpu: usize) -> bool {
    let mask: u64 = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 8-byte CPU set for the duration of the call,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Times operations in seconds at the reference host speed: an
/// operation's wall time × [`PROBE_REFERENCE_S`] / the mean of the probe
/// walks just before and just after it. Consecutive operations share the
/// walk between them.
#[derive(Debug)]
pub struct SpeedClock {
    probe: Probe,
    last_walk: f64,
    /// Unscaled wall times and probe walk times, for the standard-error
    /// summary.
    walls: Vec<f64>,
    walks: Vec<f64>,
}

impl SpeedClock {
    /// A clock for operations that run on `threads` threads.
    pub fn new(threads: usize) -> SpeedClock {
        let mut probe = Probe::new(threads);
        let last_walk = probe.time();
        SpeedClock {
            probe,
            last_walk,
            walls: Vec::new(),
            walks: vec![last_walk],
        }
    }

    /// Runs `op`; returns its result and its time at the reference speed.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let ((result, wall), factor) = self.scale(|| {
            let t = std::time::Instant::now();
            let result = op();
            (result, secs(t.elapsed()))
        });
        self.walls.push(wall);
        (result, wall * factor)
    }

    /// Runs `op`; returns its result and the factor that turns wall-clock
    /// durations measured inside it into durations at the reference speed.
    pub fn scale<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let result = op();
        let walk = self.probe.time();
        let factor = PROBE_REFERENCE_S * 2.0 / (self.last_walk + walk);
        self.last_walk = walk;
        self.walks.push(walk);
        (result, factor)
    }

    /// The factor that turns wall-clock durations of this clock's whole run
    /// into durations at the reference speed, by the median of its walks.
    pub fn run_factor(&self) -> f64 {
        PROBE_REFERENCE_S / median(&self.walks)
    }

    /// Prints the unscaled wall times and the probe walks on standard
    /// error.
    pub fn summary(&self, what: &str) {
        if self.walls.is_empty() {
            return;
        }
        eprintln!(
            "perfbench: {what} unscaled: p10 {:.6} p25 {:.6} p50 {:.6} s; probe walk p10 {:.6} p50 {:.6} p90 {:.6} s (reference {PROBE_REFERENCE_S})",
            quantile(&self.walls, 0.1),
            quantile(&self.walls, 0.25),
            quantile(&self.walls, 0.5),
            quantile(&self.walks, 0.1),
            quantile(&self.walks, 0.5),
            quantile(&self.walks, 0.9)
        );
    }
}

/// A per-process scratch directory under the checkout; removed at exit.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: PathBuf, workload: &str) -> std::io::Result<WorkDir> {
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Removes the directory, and its parent when no other run uses it.
    pub fn remove(&self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Empties (or creates) a directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown CPU".to_owned(), |(_, m)| m.trim().to_owned())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a matrix's verdict fields, independent of row order: per
/// baseline row attack, config, `leaked` and `graph_race`; per cell attack,
/// stack, config, mechanism and `strategy_sufficient`. Cycles are left out
/// on purpose, so a change to how cycles are counted does not trip it.
pub fn verdict_digest(m: &CampaignMatrix) -> u64 {
    let mut rows: Vec<String> = m
        .baselines()
        .iter()
        .map(|b| {
            format!(
                "B\t{}\t{}\t{}\t{}",
                b.info.name, m.configs[b.config], b.leaked, b.graph_race
            )
        })
        .chain(m.cells().iter().map(|c| {
            format!(
                "C\t{}\t{}\t{}\t{}\t{:?}",
                c.attack,
                c.defense,
                m.configs[c.config],
                c.mechanism_token(),
                c.evaluation.strategy_sufficient
            )
        }))
        .collect();
    rows.sort();
    rows.iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(b"\n", fnv1a(r.as_bytes(), h)))
}

/// Whether a matrix's [`verdict_digest`] is the recorded one; a mismatch
/// is reported on standard error.
pub fn digest_matches(what: &str, m: &CampaignMatrix, recorded: u64) -> bool {
    let digest = verdict_digest(m);
    if digest != recorded {
        eprintln!("perfbench: {what} verdict digest {digest:#018x} != recorded {recorded:#018x}");
    }
    digest == recorded
}

/// Whether every row of the matrix completed (no quarantined or timed-out
/// row).
pub fn all_rows_ok(m: &CampaignMatrix) -> bool {
    m.quarantined() == 0 && m.timed_out() == 0
}

/// Prints host facts and every metric by name and unit, then the JSON
/// result as the last line.
pub fn print_report(args: &Args, out: &Outcome) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!(
        "# host: {} cores, {}, {} build",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu_model(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "# the simulator is not validated against real hardware: \
         simulated cycles are counts, not predictions"
    );
    for m in &out.metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<44} {:>18.6} ratio ({} of {} operations failed)",
        "error_rate", error_rate, out.failed, out.attempted
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
