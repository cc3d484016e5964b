//! Allocation regression guard for the warm-machine hot path.
//!
//! The campaign executor runs thousands of attack simulations on one
//! pooled machine per worker; the win only holds if the steady-state cycle
//! loop, [`Machine::reset`], the probe-page restore and the Flush+Reload
//! receive sweep stay heap-allocation-free. This test wraps the system
//! allocator in a counter and pins all four down to **zero** allocations
//! once the machine is warm (first-touch `HashMap` inserts in memory and
//! predictor tables are warm-up cost, paid once per machine).
//!
//! Kept to a single `#[test]` so concurrent tests in the same binary
//! cannot perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use isa::{AluOp, Cond, ProgramBuilder, Reg};
use uarch::{Machine, UarchConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation counter bolted on.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_machine_run_and_reset_are_allocation_free() {
    let cfg = UarchConfig::default();
    let mut m = Machine::new(cfg.clone());
    m.map_user_page(0x7000).unwrap();
    for i in 0..8 {
        m.write_u64(0x7000 + i * 8, i + 1).unwrap();
    }
    // A fault-free program exercising the whole pipeline: ALU, loads,
    // stores, a (trainable) branch — every steady-state datapath.
    let program = ProgramBuilder::new()
        .imm(Reg::R1, 0x7000)
        .load(Reg::R2, Reg::R1, 0)
        .alu_imm(AluOp::Add, Reg::R3, Reg::R2, 5)
        .alu(AluOp::Add, Reg::R4, Reg::R3, Reg::R2)
        .store(Reg::R4, Reg::R1, 16)
        .branch_if(Cond::Eq, Reg::R2, Reg::ZERO, "skip")
        .load(Reg::R5, Reg::R1, 8)
        .label("skip")
        .unwrap()
        .alu_imm(AluOp::Xor, Reg::R6, Reg::R5, 1)
        .halt()
        .build()
        .unwrap();

    // Warm-up: grows the ROB ring, inserts the first-touch memory words
    // and predictor entries, sizes the tx-fallback scratch.
    for _ in 0..3 {
        m.run(&program).unwrap();
    }
    m.clear_events();

    // Steady state: the cycle loop must not touch the heap at all.
    let during_run = allocations_during(|| {
        let r = m.run(&program).unwrap();
        assert!(r.halted);
    });
    assert_eq!(
        during_run, 0,
        "steady-state run allocated {during_run} times"
    );

    // Reset is clear-and-reuse, never rebuild: also allocation-free.
    let during_reset = allocations_during(|| m.reset(&cfg));
    assert_eq!(during_reset, 0, "reset allocated {during_reset} times");

    // And the machine still works after the counted reset.
    m.map_user_page(0x7000).unwrap();
    for i in 0..8 {
        m.write_u64(0x7000 + i * 8, i + 1).unwrap();
    }
    let r = m.run(&program).unwrap();
    assert!(r.halted);

    // The batched-campaign cycle: reset, restore a snapshot of 256
    // page-strided probe mappings, set up and run. Once warm, the whole
    // cycle is allocation-free too: the restore copies into the table's
    // existing storage.
    m.reset(&cfg);
    for slot in 0..256u64 {
        m.map_user_page(0x100_0000 + slot * (4096 + 64)).unwrap();
    }
    let probe_pages = m.page_table().clone();
    let cell = |m: &mut Machine| {
        m.reset(&cfg);
        m.restore_page_table(&probe_pages);
        m.clear_events();
        m.map_user_page(0x7000).unwrap();
        for i in 0..8 {
            m.write_u64(0x7000 + i * 8, i + 1).unwrap();
        }
        let r = m.run(&program).unwrap();
        assert!(r.halted);
    };
    for _ in 0..3 {
        cell(&mut m);
    }
    let during_cell = allocations_during(|| cell(&mut m));
    assert_eq!(
        during_cell, 0,
        "warm reset + restore + run allocated {during_cell} times"
    );
    assert!(m.cache_contains(0x7000).unwrap());
    assert!(m.page_table().entry(0x100_0000 / 4096).is_some());

    // The Flush+Reload receive sweep over those 256 probe slots, into a
    // reused latencies buffer: once warm, also allocation-free.
    let slot = |s: u64| 0x100_0000 + s * (4096 + 64);
    let mut latencies = Vec::new();
    for _ in 0..2 {
        m.reload_and_flush((0..256).map(slot), &mut latencies)
            .unwrap();
    }
    m.touch(slot(3)).unwrap();
    let during_sweep = allocations_during(|| {
        m.reload_and_flush((0..256).map(slot), &mut latencies)
            .unwrap();
    });
    assert_eq!(
        during_sweep, 0,
        "warm reload-and-flush sweep allocated {during_sweep} times"
    );
    let hits: Vec<usize> = (0..256)
        .filter(|&s| latencies[s] == cfg.cache_hit_latency)
        .collect();
    assert_eq!(hits, vec![3]);
}
