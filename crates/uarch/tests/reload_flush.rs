//! The Flush+Reload receive sweep, [`Machine::reload_and_flush`], against
//! its definition: a `timed_read` + `flush_line` loop over the same
//! addresses.
//!
//! Seeded random pre-sweep states (touches, timed reads, flushes, writes and
//! context switches) on every geometry below, with DAWG partitioning off and
//! on, must give equal latencies and equal machines. Machines are compared
//! through `Debug`, which prints every field: cache sets with LRU stamps and
//! the tick, line fill buffer, load ports, cycle.

use uarch::{ContextId, ExceptionBehavior, Machine, Privilege, UarchConfig, UarchError};

/// `(sets, ways)`: the default, the campaign's small-cache axes, a single
/// set, a non-power-of-two set count, and direct-mapped caches.
const GEOMETRIES: [(usize, usize); 8] = [
    (64, 8),
    (64, 2),
    (16, 8),
    (8, 4),
    (1, 8),
    (3, 5),
    (8, 1),
    (1, 1),
];

/// Random machines per geometry and DAWG setting.
const MACHINES: u64 = 200;

/// Base of the pages the generated addresses live on.
const BASE: u64 = 0x10_0000;

/// A splitmix64 stream: a deterministic seed is all the test needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A word on one of six pages, in one of five lines per page, so that
    /// sets collide on every geometry.
    fn addr(&mut self) -> u64 {
        BASE + self.below(6) * 4096 + self.below(5) * 64 + self.below(8) * 8
    }
}

/// A machine in a random pre-sweep state, and a random sweep over it. The
/// same seed gives the same machine and sweep.
fn random_case(sets: usize, ways: usize, dawg: bool, seed: u64) -> (Machine, Vec<u64>) {
    let mut rng = Rng(seed);
    let hit = 1 + rng.below(8);
    let miss = if rng.below(8) == 0 {
        hit
    } else {
        hit + 1 + rng.below(100)
    };
    let cfg = UarchConfig::builder()
        .cache_sets(sets)
        .cache_ways(ways)
        .dawg(dawg)
        .lfb_entries(1 + rng.below(9) as usize)
        .load_port_entries(1 + rng.below(5) as usize)
        .cache_hit_latency(hit)
        .cache_miss_latency(miss)
        .build();
    let mut m = Machine::new(cfg);
    for page in 0..6 {
        m.map_user_page(BASE + page * 4096).unwrap();
    }
    m.add_context(Privilege::User, ExceptionBehavior::Halt);
    m.add_context(Privilege::User, ExceptionBehavior::Halt);
    for _ in 0..rng.below(48) {
        let addr = rng.addr();
        match rng.below(5) {
            0 => m.touch(addr).unwrap(),
            1 => {
                m.timed_read(addr).unwrap();
            }
            2 => m.flush_line(addr).unwrap(),
            3 => {
                let value = if rng.below(4) == 0 { 0 } else { rng.next() };
                m.write_u64(addr, value).unwrap();
            }
            _ => m.switch_context(ContextId(rng.below(3) as u32)).unwrap(),
        }
    }
    let sweep = (0..rng.below(32)).map(|_| rng.addr()).collect();
    (m, sweep)
}

/// The definition the sweep must reproduce.
fn timed_read_then_flush(m: &mut Machine, vaddrs: &[u64]) -> Vec<u64> {
    vaddrs
        .iter()
        .map(|&v| {
            let latency = m.timed_read(v).unwrap();
            m.flush_line(v).unwrap();
            latency
        })
        .collect()
}

#[test]
fn sweep_equals_a_timed_read_and_flush_loop_on_every_geometry() {
    let mut latencies = Vec::new();
    for (sets, ways) in GEOMETRIES {
        for dawg in [false, true] {
            for seed in 0..MACHINES {
                let seed = seed * 0x1_0000 + (sets * 16 + ways) as u64 * 2 + u64::from(dawg);
                let (mut swept, vaddrs) = random_case(sets, ways, dawg, seed);
                let (mut reference, _) = random_case(sets, ways, dawg, seed);
                swept
                    .reload_and_flush(vaddrs.iter().copied(), &mut latencies)
                    .unwrap();
                let expected = timed_read_then_flush(&mut reference, &vaddrs);
                let case = format!("{sets}x{ways} dawg={dawg} seed={seed}");
                assert_eq!(latencies, expected, "latencies differ: {case}");
                assert_eq!(
                    format!("{swept:?}"),
                    format!("{reference:?}"),
                    "machines differ: {case}"
                );
            }
        }
    }
}

#[test]
fn unmapped_slot_fails_the_sweep_before_any_state_changes() {
    for (sets, ways) in GEOMETRIES {
        let (mut m, mut vaddrs) = random_case(sets, ways, true, 7);
        // A resident, mapped line ahead of the unmapped one: a
        // `timed_read` loop would already have flushed it.
        m.touch(BASE).unwrap();
        vaddrs.insert(0, BASE);
        vaddrs.push(0x66_0000);
        let before = format!("{m:?}");
        let (resident, cycle) = (m.cache().resident_lines(), m.cycle());
        let mut latencies = vec![1, 2, 3];
        assert!(matches!(
            m.reload_and_flush(vaddrs, &mut latencies),
            Err(UarchError::Unmapped { vaddr: 0x66_0000 })
        ));
        assert!(latencies.is_empty());
        assert_eq!(m.cache().resident_lines(), resident);
        assert_eq!(m.cycle(), cycle);
        assert_eq!(format!("{m:?}"), before);
    }
}
