//! The traced run: per-layer metrics, each timed from here around a call
//! into one layer's public functions. Nothing inside the program is
//! instrumented. The run splits its time evenly over four groups, one per
//! workload's inputs:
//!
//! - grid: a single-threaded replay of the executor's per-task recipe
//!   (graph verdicts from a `PatchSession`, then per task `Machine::reset`
//!   → `prepare_channel` → `Attack::run_in`, behind `DefenseStack::apply`
//!   for cells), next to an untimed 1-thread `CampaignMatrix::run` pass,
//!   so the layers visibly add up to the pass (`unattributed_share`); the
//!   same replay without clocks gives the tracing overhead;
//! - resume: checkpoint parse, merge, checkpoint write, one damaged pass;
//! - query: key derivation, keyed probe, miss simulation, and a fixed-length
//!   two-client stream;
//! - fuzz: generate, lift, fingerprint, classify, assembler round trip and
//!   shrink.
//!
//! Counts (cycles, cells, simulations, scheduler chunks, shrink
//! evaluations) come from fixed amounts of work, never from the time
//! budget, so they repeat exactly across runs of one commit; only the
//! scheduler's steals and the store's coalesced misses depend on thread
//! timing.

use crate::util::{self, Rng, WorkDir};
use crate::{fuzz, grid, query, resume, Args, Outcome};
use specgraph::analyzer;
use specgraph::attacks::common::{prepare_channel, probe_channel};
use specgraph::attacks::{Attack, AttackError, AttackOutcome};
use specgraph::campaign::{config_digest, CampaignMatrix, CampaignPart, CampaignSpec};
use specgraph::defenses::{PatchSession, Verdict};
use specgraph::discovery::fuzz::{minimize, DualOracle, Scenario};
use specgraph::fault;
use specgraph::isa;
use specgraph::serve::VerdictStore;
use specgraph::uarch::{Machine, UarchConfig};
use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Total time and call count of one layer's timed calls.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    secs: f64,
    calls: u64,
}

impl Acc {
    fn mean_us(&self) -> f64 {
        self.secs * 1e6 / self.calls.max(1) as f64
    }
}

/// Runs `f`, adding its duration to `acc` when tracing.
fn timed<T>(traced: bool, acc: &mut Acc, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let t = Instant::now();
    let r = f();
    acc.secs += util::secs(t.elapsed());
    acc.calls += 1;
    r
}

/// Per-layer clocks of one grid replay.
#[derive(Debug, Default, Clone, Copy)]
struct GridClock {
    reset: Acc,
    prepare: Acc,
    run_in: Acc,
    apply: Acc,
    session: Acc,
    sufficient: Acc,
    run_in_cycles: u64,
    events_dropped: u64,
}

impl GridClock {
    fn layer_secs(&self) -> f64 {
        [
            self.reset,
            self.prepare,
            self.run_in,
            self.apply,
            self.session,
            self.sufficient,
        ]
        .iter()
        .map(|a| a.secs)
        .sum()
    }
}

/// `BatchRunner::run`'s recipe with a clock around each layer call.
fn simulate(
    machine: &mut Option<Machine>,
    attack: &dyn Attack,
    cfg: &UarchConfig,
    traced: bool,
    clock: &mut GridClock,
) -> Result<AttackOutcome, AttackError> {
    let m = match machine.as_mut() {
        Some(m) => {
            timed(traced, &mut clock.reset, || m.reset(cfg));
            m
        }
        None => machine.insert(Machine::new(cfg.clone())),
    };
    timed(traced, &mut clock.prepare, || prepare_channel(m))?;
    let start = m.cycle();
    let out = timed(traced, &mut clock.run_in, || attack.run_in(m))?;
    clock.run_in_cycles += m.cycle() - start;
    clock.events_dropped += m.events_dropped();
    Ok(out)
}

/// One single-threaded replay of the grid in the executor's task order;
/// returns its wall time and how many verdicts differ from `expected`.
fn replay(
    spec: &CampaignSpec,
    expected: &CampaignMatrix,
    traced: bool,
    clock: &mut GridClock,
) -> Result<(f64, u64), Box<dyn Error>> {
    let t = Instant::now();
    let (d, c) = (spec.defenses.len(), spec.configs.len());
    let mut races = Vec::with_capacity(spec.attacks.len());
    let mut sufficient = Vec::with_capacity(spec.attacks.len() * d);
    for attack in &spec.attacks {
        let mut session = timed(traced, &mut clock.session, || {
            let s = PatchSession::new(*attack);
            let race = s.graph_race();
            races.push(race);
            s
        });
        for stack in &spec.defenses {
            sufficient.push(timed(traced, &mut clock.sufficient, || {
                session.graph_sufficient(stack)
            })?);
        }
    }
    let mut machine = None;
    let mut leaked = Vec::with_capacity(spec.attacks.len() * c);
    for attack in &spec.attacks {
        for nc in &spec.configs {
            leaked.push(simulate(&mut machine, *attack, &nc.config, traced, clock)?.leaked);
        }
    }
    let mut mechanisms = Vec::with_capacity(spec.attacks.len() * d * c);
    for attack in &spec.attacks {
        for stack in &spec.defenses {
            for nc in &spec.configs {
                let cfg = timed(traced, &mut clock.apply, || stack.apply(&nc.config));
                mechanisms.push(match cfg {
                    None => Verdict::GraphOnly,
                    Some(cfg) => {
                        if simulate(&mut machine, *attack, &cfg, traced, clock)?.leaked {
                            Verdict::Leaked
                        } else {
                            Verdict::Blocked
                        }
                    }
                });
            }
        }
    }
    let wall = util::secs(t.elapsed());
    let mut wrong = 0u64;
    for (i, b) in expected.baselines().iter().enumerate() {
        wrong += u64::from(b.leaked != leaked[i] || b.graph_race != races[i / c]);
    }
    for (i, cell) in expected.cells().iter().enumerate() {
        wrong += u64::from(
            cell.evaluation.mechanism != mechanisms[i]
                || cell.evaluation.strategy_sufficient != sufficient[i / c],
        );
    }
    Ok((wall, wrong))
}

/// Median of `f`'s duration over `n` calls, in seconds.
fn median_time(
    n: usize,
    mut f: impl FnMut() -> Result<(), Box<dyn Error>>,
) -> Result<f64, Box<dyn Error>> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f()?;
        times.push(util::secs(t.elapsed()));
    }
    Ok(util::median(&times))
}

fn grid_layers(
    seed: u64,
    budget: Duration,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let spec = grid::spec(seed, 1);
    let matrix = CampaignMatrix::run(&spec)?;
    out.check(grid::matrix_ok(&matrix));

    let deadline = Instant::now() + budget;
    let mut clock = GridClock::default();
    let (mut passes, mut unattributed, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    while passes.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let pass = CampaignMatrix::run(&spec)?;
        let pass_s = util::secs(t.elapsed());
        out.check(pass.to_json() == matrix.to_json());
        let (plain_s, wrong_plain) = replay(&spec, &matrix, false, &mut GridClock::default())?;
        let before = clock.layer_secs();
        let (traced_s, wrong) = replay(&spec, &matrix, true, &mut clock)?;
        out.check(wrong_plain == 0 && wrong == 0);
        passes.push(pass_s);
        unattributed.push((pass_s - (clock.layer_secs() - before)) / pass_s);
        overhead.push((traced_s - plain_s) / plain_s);
    }
    // Every replay simulates the same tasks, so per-replay counts divide
    // exactly.
    let replays = passes.len() as u64;
    let (sim_cycles, events_dropped) = (
        clock.run_in_cycles / replays,
        clock.events_dropped / replays,
    );

    // A standalone receive sweep on a freshly prepared machine.
    let cfg = UarchConfig::default();
    let mut m = Machine::new(cfg.clone());
    let mut receive = Acc::default();
    for _ in 0..500 {
        m.reset(&cfg);
        prepare_channel(&mut m)?;
        timed(true, &mut receive, || probe_channel().receive(&mut m))?;
    }

    let json = matrix.to_json();
    let serialize = median_time(5, || {
        black_box(matrix.to_json());
        Ok(())
    })?;
    let path = work.path("trace-grid-matrix.json");
    let write = median_time(5, || Ok(fault::write_atomic(&path, &json)?))?;
    let reload_failures = u64::from(CampaignMatrix::from_json(&json).is_err());
    let simulated = matrix
        .cells()
        .iter()
        .filter(|c| c.evaluation.mechanism != Verdict::GraphOnly)
        .count();

    out.metric("uarch.reset_us", clock.reset.mean_us(), "us");
    out.metric("channels.prepare_us", clock.prepare.mean_us(), "us");
    out.metric("attacks.run_in_us", clock.run_in.mean_us(), "us");
    out.metric("channels.receive_us", receive.mean_us(), "us");
    out.metric(
        "uarch.cycles_per_us",
        clock.run_in_cycles as f64 / (clock.run_in.secs * 1e6),
        "1/us",
    );
    out.metric("defenses.stack_apply_us", clock.apply.mean_us(), "us");
    out.metric("defenses.session_us", clock.session.mean_us(), "us");
    out.metric(
        "defenses.graph_sufficient_us",
        clock.sufficient.mean_us(),
        "us",
    );
    out.metric("core.campaign.serialize_ms", serialize * 1e3, "ms");
    out.metric("core.fault.write_ms", write * 1e3, "ms");
    out.metric(
        "core.campaign.pass_1thread_ms",
        util::median(&passes) * 1e3,
        "ms",
    );
    out.metric(
        "core.campaign.unattributed_share",
        util::median(&unattributed),
        "ratio",
    );
    out.metric("trace.overhead_share", util::median(&overhead), "ratio");
    out.metric("uarch.sim_cycles", sim_cycles as f64, "count");
    out.metric("uarch.events_dropped", events_dropped as f64, "count");
    out.metric("core.campaign.simulated_cells", simulated as f64, "count");
    out.metric(
        "core.jsonio.reload_failures",
        reload_failures as f64,
        "count",
    );
    Ok(())
}

/// Returns the resume spec's matrix JSON, which the query group loads.
fn resume_layers(
    seed: u64,
    budget: Duration,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<String, Box<dyn Error>> {
    let deadline = Instant::now() + budget;
    let spec = resume::spec();
    let dir = work.path("trace-checkpoints");
    let out_path = work.path("trace-resume-matrix.json");
    let (matrix, reference) = resume::initial_checkpoints(&spec, &dir, &out_path)?;
    out.check(util::digest_matches("resume", &matrix, resume::DIGEST));

    // One damaged pass, before the probes re-read the directory.
    let damage = resume::damage(&dir, &mut Rng::new(seed))?;
    let (report, json) = resume::pass(&spec, &dir, &out_path)?;
    out.check(resume::report_ok(&report, &damage) && json == reference);

    let paths: Vec<_> = (0..resume::CHUNKS)
        .map(|i| resume::chunk_path(&dir, i))
        .collect();
    let mut parse = Vec::new();
    let mut parts = Vec::new();
    let third = budget / 3;
    let start = Instant::now();
    while parts.is_empty() || start.elapsed() < third {
        parts.clear();
        for p in &paths {
            let t = Instant::now();
            let part = CampaignPart::load_checkpoint_json(p)?;
            parse.push(util::secs(t.elapsed()));
            parts.push(part);
        }
    }
    let mut merge = Vec::new();
    let start = Instant::now();
    while merge.is_empty() || start.elapsed() < third {
        let input = parts.clone();
        let t = Instant::now();
        let merged = CampaignMatrix::merge(input)?;
        merge.push(util::secs(t.elapsed()));
        out.check(merged.to_json() == reference);
    }
    let texts: Vec<String> = parts.iter().map(CampaignPart::to_checkpoint_json).collect();
    let scratch = work.path("trace-writes");
    util::fresh_dir(&scratch)?;
    let mut write = Vec::new();
    while write.is_empty() || Instant::now() < deadline {
        for (i, text) in texts.iter().enumerate() {
            let path = resume::chunk_path(&scratch, i);
            let t = Instant::now();
            fault::write_atomic(&path, text)?;
            write.push(util::secs(t.elapsed()));
        }
    }

    out.metric("core.jsonio.parse_ms", util::median(&parse) * 1e3, "ms");
    out.metric("core.campaign.merge_ms", util::median(&merge) * 1e3, "ms");
    out.metric(
        "core.fault.checkpoint_write_ms",
        util::median(&write) * 1e3,
        "ms",
    );
    out.metric(
        "core.serve.sched.steal_waste",
        report.stolen as f64 / report.executed.max(1) as f64,
        "ratio",
    );
    out.metric("core.serve.sched.resumed", report.resumed as f64, "count");
    out.metric("core.serve.sched.executed", report.executed as f64, "count");
    out.metric("core.serve.sched.stolen", report.stolen as f64, "count");
    out.metric(
        "core.serve.sched.repaired",
        report.repaired.len() as f64,
        "count",
    );
    Ok(reference)
}

/// Synchronization rounds of the fixed-length query stream: 64 × 256
/// queries, 64 × 7 distinct miss keys.
const QUERY_ROUNDS: u64 = 64;
/// Queries per timed batch of the key and probe clocks.
const BATCH: usize = 256;

fn query_layers(
    seed: u64,
    budget: Duration,
    artifact: &str,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let (matrix, store) = query::load_store(artifact)?;
    let set = query::QuerySet::new(&matrix, seed)?;
    let mut rng = Rng::new(seed);
    let picks: Vec<&query::HitQuery> = (0..BATCH)
        .map(|_| &set.hits[rng.below(set.hits.len())])
        .collect();
    let slice = budget / 4;

    let mut key_ns = Vec::new();
    let mut keys = Vec::with_capacity(BATCH);
    let start = Instant::now();
    while key_ns.is_empty() || start.elapsed() < slice {
        keys.clear();
        let t = Instant::now();
        for h in &picks {
            let (stack, cfg) = set.hit_args(h);
            let name = h.attack.info().name;
            let digest = config_digest(cfg);
            keys.push(match stack {
                None => VerdictStore::baseline_key_for_digest(name, digest),
                Some(s) => VerdictStore::cell_key_for_digest(name, s, digest),
            });
        }
        key_ns.push(util::secs(t.elapsed()) * 1e9 / BATCH as f64);
    }
    let mut get_ns = Vec::new();
    let start = Instant::now();
    while get_ns.is_empty() || start.elapsed() < slice {
        let t = Instant::now();
        let found = keys
            .iter()
            .filter(|k| store.get(black_box(**k)).is_some())
            .count();
        get_ns.push(util::secs(t.elapsed()) * 1e9 / BATCH as f64);
        out.check(found == BATCH);
    }
    let mut miss_us = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    while miss_us.is_empty() || start.elapsed() < slice {
        let (attack, stack, cfg) = set.miss(n);
        let t = Instant::now();
        let answer = store.query(attack, stack, cfg);
        miss_us.push(util::secs(t.elapsed()) * 1e6);
        out.check(answer.is_ok());
        n += 1;
    }

    // The fixed-length stream runs on a freshly loaded store.
    let (_, fresh) = query::load_store(artifact)?;
    let stats = query::stream(&fresh, &set, seed, 0, query::Stop::Rounds(QUERY_ROUNDS));
    out.attempted += stats.queries;
    out.failed += stats.failed;
    let wrong = query::check_misses(&set, &stats.miss_samples)?;
    out.attempted += stats.miss_samples.len() as u64;
    out.failed += wrong;
    out.check(fresh.simulations() == stats.miss_keys);

    out.metric("core.serve.key_ns", util::median(&key_ns), "ns");
    out.metric("core.serve.get_ns", util::median(&get_ns), "ns");
    out.metric("core.serve.miss_us", util::median(&miss_us), "us");
    out.metric(
        "core.serve.hit_ratio",
        fresh.hits() as f64 / stats.queries.max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.serve.simulations",
        fresh.simulations() as f64,
        "count",
    );
    out.metric("core.serve.coalesced", stats.coalesced as f64, "count");
    Ok(())
}

/// Both-leaking candidates of the pinned fuzz seed that the shrink clock
/// minimizes: a fixed set, so the evaluation count repeats exactly.
const SHRINK_SET: usize = 6;

fn fuzz_layers(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let half = budget / 2;
    let fuzz_seed = Rng::new(seed).next_u64();
    let mut oracle = DualOracle::new();
    let (mut generate, mut lift, mut fingerprint, mut classify, mut roundtrip) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let start = Instant::now();
    let mut index = 0u64;
    while index < 32 || start.elapsed() < half {
        let s = timed(true, &mut generate, || Scenario::generate(fuzz_seed, index));
        let analysis = timed(true, &mut lift, || {
            analyzer::lift(&s.program, &s.lift_config())
        })?;
        let fp = timed(true, &mut fingerprint, || {
            analysis.graph().shape_fingerprint()
        });
        let v = timed(true, &mut classify, || oracle.classify(&s))?;
        out.check(v.raw_fingerprint == fp && !v.agreement(&s).is_unexplained());
        let program = timed(true, &mut roundtrip, || {
            isa::asm::assemble(&isa::asm::disassemble(&s.program))
        })?;
        out.check(isa::asm::disassemble(&program) == isa::asm::disassemble(&s.program));
        index += 1;
    }

    let mut shrink = Vec::new();
    let (mut removed, mut evaluations) = (0usize, 0usize);
    let mut index = 0u64;
    while shrink.len() < SHRINK_SET {
        let s = Scenario::generate(fuzz::PINNED_SEED, index);
        index += 1;
        let v = oracle.classify(&s)?;
        if !(v.graph_leak && v.sim_leak) {
            continue;
        }
        let t = Instant::now();
        let (min, stats) = minimize(&mut oracle, &s);
        shrink.push(util::secs(t.elapsed()));
        removed += stats.removed;
        evaluations += stats.evaluations;
        let still = oracle.classify(&min)?;
        out.check(still.graph_leak && still.sim_leak);
    }

    out.metric("core.discovery.fuzz.generate_us", generate.mean_us(), "us");
    out.metric("analyzer.lift_us", lift.mean_us(), "us");
    out.metric("tsg.fingerprint_us", fingerprint.mean_us(), "us");
    out.metric("core.discovery.fuzz.classify_us", classify.mean_us(), "us");
    out.metric("isa.asm_roundtrip_us", roundtrip.mean_us(), "us");
    out.metric(
        "core.discovery.fuzz.shrink_ms",
        util::median(&shrink) * 1e3,
        "ms",
    );
    out.metric(
        "core.discovery.fuzz.shrink_accept_ratio",
        removed as f64 / evaluations.max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.discovery.fuzz.shrink_evaluations",
        evaluations as f64,
        "count",
    );
    Ok(())
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, Box<dyn Error>> {
    let budget = args.seconds / 4;
    let mut out = Outcome::default();
    grid_layers(args.seed, budget, work, &mut out)?;
    let artifact = resume_layers(args.seed, budget, work, &mut out)?;
    query_layers(args.seed, budget, &artifact, &mut out)?;
    fuzz_layers(args.seed, budget, &mut out)?;
    Ok(out)
}
