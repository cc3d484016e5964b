//! `query`: closed-loop point queries against a `VerdictStore` holding the
//! `resume` spec's matrix. Two clients each send their next query only
//! after the previous one returned. In every block of 32 queries, 31 are
//! hits drawn from the ingested baseline and cell rows and one is a miss on
//! a knob combination outside the ingested grid (a ROB depth the grid does
//! not sweep), which the store simulates. Each miss key is drawn once, so
//! it never turns into a hit; every fourth block both clients meet at a
//! barrier and issue the same miss key, so single-flight coalescing runs.

use crate::resume;
use crate::util::{self, Rng, SpeedClock, WorkDir};
use crate::{Args, Outcome, THREADS};
use specgraph::attacks::{self, Attack};
use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
use specgraph::defenses::{self, DefenseStack, PatchSession, Verdict};
use specgraph::serve::{Answer, AnswerSource, VerdictStore};
use specgraph::uarch::UarchConfig;
use std::error::Error;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Queries per block; one of them is the block's miss.
pub const BLOCK: usize = 32;
/// Every this many blocks the clients synchronize on a shared miss.
pub const SYNC_EVERY: u64 = 4;
/// Every this many queries a client keeps one latency sample.
const SAMPLE_EVERY: u64 = 8;
/// Miss keys use every ROB depth from 17 up to this one that the grid does
/// not sweep.
const MISS_MAX_ROB: usize = 2048;
const SETUP_REPEATS: usize = 9;
const QPS_WINDOW: Duration = Duration::from_millis(100);
/// Length of one stretch of the timed stream between two probe walks.
const STRETCH: Duration = Duration::from_secs(1);
/// Sampled misses checked against a cold recomputation per run.
const MISS_CHECKS: usize = 128;

/// One query the clients can send as a hit, with the answer the store must
/// give for it.
#[derive(Debug)]
pub struct HitQuery {
    pub attack: &'static dyn Attack,
    pub stack: Option<usize>,
    pub config: usize,
    pub expected: Answer,
}

/// Everything the clients draw queries from.
#[derive(Debug)]
pub struct QuerySet {
    spec: CampaignSpec,
    stacks: Vec<DefenseStack>,
    pub hits: Vec<HitQuery>,
    /// Figure-8 slices × ROB depths outside the grid.
    miss_configs: Vec<UarchConfig>,
    miss_offset: u64,
    miss_stride: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl QuerySet {
    /// The hit pool from an ingested matrix of [`resume::spec`], plus the
    /// miss-key space.
    pub fn new(matrix: &CampaignMatrix, seed: u64) -> Result<QuerySet, Box<dyn Error>> {
        let spec = resume::spec();
        // The axis lists STT twice (as a preset and by token); one copy is
        // enough for drawing queries.
        let mut stacks = resume::stacks();
        let mut names = std::collections::HashSet::new();
        stacks.retain(|s| names.insert(s.name().to_owned()));
        let config_names: Vec<&str> = spec.configs.iter().map(|c| c.name.as_str()).collect();
        if matrix.configs != config_names {
            return Err("matrix does not belong to the resume spec".into());
        }
        let find = |name: &str| attacks::find(name).ok_or(format!("unknown attack {name}"));
        let mut hits = Vec::with_capacity(matrix.baselines().len() + matrix.cells().len());
        for b in matrix.baselines() {
            hits.push(HitQuery {
                attack: find(b.info.name)?,
                stack: None,
                config: b.config,
                expected: Answer {
                    verdict: if b.leaked {
                        Verdict::Leaked
                    } else {
                        Verdict::Blocked
                    },
                    graph: Some(b.graph_race),
                    cycles: Some(b.cycles),
                    source: AnswerSource::Hit,
                },
            });
        }
        for c in matrix.cells() {
            let stack = stacks
                .iter()
                .position(|s| s.name() == c.defense)
                .ok_or("cell stack is not on the axis")?;
            hits.push(HitQuery {
                attack: find(c.attack)?,
                stack: Some(stack),
                config: c.config,
                expected: Answer {
                    verdict: c.evaluation.mechanism,
                    graph: c.evaluation.strategy_sufficient,
                    cycles: matrix.baseline(c.attack, c.config).map(|b| b.cycles),
                    source: AnswerSource::Hit,
                },
            });
        }
        let miss_robs: Vec<usize> = (17..=MISS_MAX_ROB)
            .filter(|r| ![32, 64, 128].contains(r))
            .collect();
        let miss_configs = CampaignSpec::builder(UarchConfig::default())
            .defense_stacks([])
            .axis(Knob::Hardening, Hardening::figure8())
            .axis(Knob::RobDepth, miss_robs)
            .build()
            .configs
            .into_iter()
            .map(|c| c.config)
            .collect();
        let mut set = QuerySet {
            spec,
            stacks,
            hits,
            miss_configs,
            miss_offset: 0,
            miss_stride: 1,
        };
        let space = set.miss_space();
        let mut rng = Rng::new(seed);
        set.miss_offset = rng.next_u64() % space;
        // Any stride coprime with the space visits every key once.
        set.miss_stride = (rng.next_u64() % space) | 1;
        while gcd(set.miss_stride, space) != 1 {
            set.miss_stride += 2;
        }
        Ok(set)
    }

    /// How many distinct miss keys exist.
    pub fn miss_space(&self) -> u64 {
        (attacks::registry().len() * (self.stacks.len() + 1) * self.miss_configs.len()) as u64
    }

    /// The `n`-th miss query: a bijection from `n` onto the miss-key space
    /// (attack × optional stack × off-grid config), so no key repeats.
    pub fn miss(&self, n: u64) -> (&'static dyn Attack, Option<&DefenseStack>, &UarchConfig) {
        let space = self.miss_space();
        let idx = ((u128::from(n % space) * u128::from(self.miss_stride)
            + u128::from(self.miss_offset))
            % u128::from(space)) as u64;
        let registry = attacks::registry();
        let idx = idx as usize;
        let attack = registry[idx % registry.len()];
        let rest = idx / registry.len();
        let stack = match rest % (self.stacks.len() + 1) {
            0 => None,
            s => Some(&self.stacks[s - 1]),
        };
        let config = &self.miss_configs[rest / (self.stacks.len() + 1)];
        (attack, stack, config)
    }

    pub fn hit_args(&self, h: &HitQuery) -> (Option<&DefenseStack>, &UarchConfig) {
        (
            h.stack.map(|i| &self.stacks[i]),
            &self.spec.configs[h.config].config,
        )
    }

    /// The cold recomputation of a miss: a fresh `PatchSession` for the
    /// graph verdict and a fresh machine for the machine verdict.
    pub fn cold_answer(&self, n: u64) -> Result<(Verdict, Option<bool>), Box<dyn Error>> {
        let (attack, stack, cfg) = self.miss(n);
        let mut session = PatchSession::new(attack);
        Ok(match stack {
            None => {
                let leaked = attack.run(cfg)?.leaked;
                let verdict = if leaked {
                    Verdict::Leaked
                } else {
                    Verdict::Blocked
                };
                (verdict, Some(session.graph_race()))
            }
            Some(s) => (
                defenses::verify_stack(s, attack, cfg)?,
                session.graph_sufficient(s)?,
            ),
        })
    }
}

/// Loads the artifact and ingests it: the workload's set-up.
pub fn load_store(json: &str) -> Result<(CampaignMatrix, VerdictStore), Box<dyn Error>> {
    let matrix = CampaignMatrix::from_json(json)?;
    let store = VerdictStore::new();
    store.ingest_matrix(&matrix);
    Ok((matrix, store))
}

/// When the clients stop: at a deadline, or after a fixed number of
/// synchronization rounds (an exact, repeatable stream).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Rounds(u64),
}

/// What a client stream did.
#[derive(Debug, Default)]
pub struct StreamStats {
    pub queries: u64,
    pub failed: u64,
    pub coalesced: u64,
    /// Sampled per-query latencies, in seconds.
    pub latencies: Vec<f64>,
    /// Miss keys kept for the cold recomputation check, with the answer.
    pub miss_samples: Vec<(u64, Answer)>,
    /// Time of every synchronization round; 2 × 4 × 32 queries run
    /// between consecutive rounds.
    pub rounds: Vec<Instant>,
    /// Miss keys drawn so far, counted from the first stream's first key.
    pub miss_keys: u64,
}

impl StreamStats {
    /// Queries per second in consecutive windows of about 100 ms; a
    /// stream shorter than one window gives none.
    pub fn qps_windows(&self) -> Vec<f64> {
        let per_round = (THREADS * BLOCK) as f64 * SYNC_EVERY as f64;
        let mut windows = Vec::new();
        let mut start = 0;
        for (i, t) in self.rounds.iter().enumerate() {
            let span = t.duration_since(self.rounds[start]);
            if span >= QPS_WINDOW {
                windows.push(per_round * (i - start) as f64 / util::secs(span));
                start = i;
            }
        }
        windows
    }
}

/// A spinning barrier: both clients leave it within nanoseconds of each
/// other, so the shared miss they issue next really is concurrent (a
/// sleeping barrier's wake-up latency exceeds one simulation).
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Returns `true` for the last thread to arrive.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == THREADS {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        while self.generation.load(Ordering::SeqCst) == generation {
            std::hint::spin_loop();
        }
        false
    }
}

struct Shared<'a> {
    store: &'a VerdictStore,
    set: &'a QuerySet,
    stop: Stop,
    barrier: SpinBarrier,
    stopping: AtomicBool,
    next_miss: AtomicU64,
    shared_miss: AtomicU64,
    rounds: Mutex<Vec<Instant>>,
}

/// Runs the two closed-loop clients until `stop`.
/// Miss keys are drawn in order from `first_miss`; the returned
/// [`StreamStats::miss_keys`] is where the next stream must start so that
/// no key repeats.
pub fn stream(
    store: &VerdictStore,
    set: &QuerySet,
    seed: u64,
    first_miss: u64,
    stop: Stop,
) -> StreamStats {
    let shared = Shared {
        store,
        set,
        stop,
        barrier: SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        },
        stopping: AtomicBool::new(false),
        next_miss: AtomicU64::new(first_miss),
        shared_miss: AtomicU64::new(0),
        rounds: Mutex::new(Vec::new()),
    };
    let per_client: Vec<StreamStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client(shared, Rng::new(seed ^ ((c + 1) << 32))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let mut total = StreamStats {
        rounds: shared.rounds.into_inner().expect("round log poisoned"),
        miss_keys: shared.next_miss.load(Ordering::SeqCst),
        ..StreamStats::default()
    };
    for s in per_client {
        total.queries += s.queries;
        total.failed += s.failed;
        total.coalesced += s.coalesced;
        total.latencies.extend(s.latencies);
        total.miss_samples.extend(s.miss_samples);
    }
    total
}

fn client(sh: &Shared<'_>, mut rng: Rng) -> StreamStats {
    let mut st = StreamStats::default();
    let mut block = 0u64;
    loop {
        let synced = block.is_multiple_of(SYNC_EVERY);
        if synced {
            if sh.barrier.wait() {
                let mut rounds = sh.rounds.lock().expect("round log poisoned");
                let now = Instant::now();
                // A round draws one shared miss key plus one private key
                // per client in each of its other blocks.
                let round_keys = 1 + (SYNC_EVERY - 1) * THREADS as u64;
                let keys_left = sh.set.miss_space() - sh.next_miss.load(Ordering::SeqCst);
                let stop = keys_left < round_keys
                    || match sh.stop {
                        Stop::At(deadline) => now >= deadline,
                        Stop::Rounds(n) => rounds.len() as u64 >= n,
                    };
                rounds.push(now);
                sh.stopping.store(stop, Ordering::SeqCst);
                if !stop {
                    let n = sh.next_miss.fetch_add(1, Ordering::SeqCst);
                    sh.shared_miss.store(n, Ordering::SeqCst);
                }
            }
            sh.barrier.wait();
            if sh.stopping.load(Ordering::SeqCst) {
                return st;
            }
        }
        // A synchronized block opens with the shared miss.
        let miss_at = if synced { 0 } else { rng.below(BLOCK) };
        for q in 0..BLOCK {
            let (ok, dt) = if q == miss_at {
                let n = if synced {
                    sh.shared_miss.load(Ordering::SeqCst)
                } else {
                    sh.next_miss.fetch_add(1, Ordering::SeqCst)
                };
                let (attack, stack, cfg) = sh.set.miss(n);
                let t = Instant::now();
                let result = sh.store.query(attack, stack, cfg);
                let dt = t.elapsed();
                let ok = result.is_ok_and(|a| {
                    st.coalesced += u64::from(a.source == AnswerSource::Coalesced);
                    if n % 97 == 0 && st.miss_samples.len() < 64 {
                        st.miss_samples.push((n, a));
                    }
                    // A shared miss may find the other client's result
                    // already stored; a private one must simulate.
                    synced || a.source == AnswerSource::Simulated
                });
                (ok, dt)
            } else {
                let h = &sh.set.hits[rng.below(sh.set.hits.len())];
                let (stack, cfg) = sh.set.hit_args(h);
                let t = Instant::now();
                let result = sh.store.query(h.attack, stack, cfg);
                let dt = t.elapsed();
                (result.is_ok_and(|a| a == h.expected), dt)
            };
            if st.queries % SAMPLE_EVERY == 0 {
                st.latencies.push(util::secs(dt));
            }
            st.queries += 1;
            st.failed += u64::from(!ok);
        }
        block += 1;
    }
}

/// Builds the artifact the store loads: the `resume` spec's matrix.
pub fn artifact() -> Result<String, Box<dyn Error>> {
    let matrix = CampaignMatrix::run(&resume::spec())?;
    if !util::digest_matches("resume", &matrix, resume::DIGEST) {
        return Err("the query artifact does not carry the recorded verdicts".into());
    }
    Ok(matrix.to_json())
}

/// Checks sampled misses against a cold recomputation; returns how many
/// disagreed.
pub fn check_misses(set: &QuerySet, samples: &[(u64, Answer)]) -> Result<u64, Box<dyn Error>> {
    let mut wrong = 0;
    for (n, answer) in samples {
        let (verdict, graph) = set.cold_answer(*n)?;
        wrong += u64::from(answer.verdict != verdict || answer.graph != graph);
    }
    Ok(wrong)
}

pub fn run(args: &Args, _work: &WorkDir) -> Result<Outcome, Box<dyn Error>> {
    let mut out = Outcome::default();
    // Input: the saved artifact (not part of the set-up clock).
    let json = artifact()?;

    let mut clock = SpeedClock::new(1);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let (loaded, dt) = clock.time(|| load_store(&json));
        setups.push(dt);
        state = Some(loaded?);
    }
    let (matrix, store) = state.expect("at least one set-up");
    let set = QuerySet::new(&matrix, args.seed)?;
    // The store keeps every simulated miss, so what the timed stream adds
    // grows with its throughput: a faster query path would read as more
    // memory. The reported peak is the one before the stream.
    out.peak_rss_mb = Some(util::peak_rss_mb());

    // The timed stream runs in stretches with a probe walk on both cores
    // between them, and its latencies and throughput windows are scaled to
    // the reference host speed by the run's median walk: one walk of a few
    // milliseconds is too noisy to scale a stretch of microsecond queries
    // by, while the median over the run tracks the host as well.
    let mut clock = SpeedClock::new(THREADS);
    let mut latencies = Vec::new();
    let mut windows = Vec::new();
    let mut miss_samples = Vec::new();
    let mut next_miss = 0;
    let deadline = Instant::now() + args.seconds;
    for stretch in 0u64.. {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let stop = Stop::At((now + STRETCH).min(deadline));
        let seed = args.seed.wrapping_add(stretch);
        let (stats, _) = clock.scale(|| stream(&store, &set, seed, next_miss, stop));
        out.attempted += stats.queries;
        out.failed += stats.failed;
        if stats.queries == 0 {
            break;
        }
        next_miss = stats.miss_keys;
        windows.extend(stats.qps_windows());
        latencies.extend(stats.latencies);
        miss_samples.extend(stats.miss_samples);
    }
    miss_samples.truncate(MISS_CHECKS);
    let wrong = check_misses(&set, &miss_samples)?;
    out.attempted += miss_samples.len() as u64;
    out.failed += wrong;
    if latencies.is_empty() || windows.is_empty() {
        return Err("no query window completed".into());
    }
    let factor = clock.run_factor();
    latencies.iter_mut().for_each(|l| *l *= factor);
    windows.iter_mut().for_each(|w| *w /= factor);
    clock.summary("query stretches");
    out.metric("setup_s", util::median(&setups), "s");
    // The throughput counterpart of the per-query time quantile: the
    // window rate that many windows reach.
    out.metric(
        "tasks_per_s",
        util::quantile(&windows, 1.0 - util::OP_QUANTILE),
        "1/s",
    );
    out.metric(
        "op_ms_p25",
        util::op_time("query seconds", &latencies) * 1e3,
        "ms",
    );
    Ok(out)
}
