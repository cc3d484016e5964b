//! §V-A, dimension 3: the covert channel is exchangeable. The same Spectre
//! v1 transient window can exfiltrate through Prime+Probe instead of
//! Flush+Reload — "a new combination … gives a new attack".

use attacks::common::{BOUND_CELL, BOUND_PTR, VICTIM_ARRAY};
use channels::prime_probe::PrimeProbe;
use specgraph::prelude::*;
use uarch::cache::LINE_SIZE;

/// Secret small enough to index cache sets directly (Prime+Probe carries
/// one symbol per monitored set).
const SMALL_SECRET: u64 = 5;

/// Receiver's prime buffer (page aligned).
const PRIME_BASE: u64 = 0x200_0000;

/// Sender-side buffer whose lines map onto the monitored sets.
const SENDER_BASE: u64 = 0x300_0000;

/// Cache-set offset keeping the monitored range clear of the sets the
/// victim's own bound/array lines map to (sets 0, 4 and 8 here).
const BASE_SET: usize = 16;

/// Spectre v1 gadget sending through a *line-granular* buffer: the send
/// address is `SENDER_BASE + (BASE_SET + secret) * 64`, hitting cache set
/// `BASE_SET + secret`.
fn gadget() -> isa::Program {
    use isa::AluOp;
    ProgramBuilder::new()
        .load(Reg::R4, Reg::R2, 0)
        .load(Reg::R4, Reg::R4, 0)
        .branch_if(isa::Cond::Ge, Reg::R0, Reg::R4, "out")
        .alu_imm(AluOp::Shl, Reg::R5, Reg::R0, 3)
        .alu(AluOp::Add, Reg::R5, Reg::R5, Reg::R1)
        .load(Reg::R6, Reg::R5, 0) // Load S
        .branch_if(isa::Cond::Eq, Reg::R6, Reg::ZERO, "out")
        .alu_imm(AluOp::Mul, Reg::R7, Reg::R6, LINE_SIZE) // one line per symbol
        .alu_imm(AluOp::Add, Reg::R7, Reg::R7, (BASE_SET as u64) * LINE_SIZE)
        .alu(AluOp::Add, Reg::R7, Reg::R7, Reg::R3)
        .load(Reg::R8, Reg::R7, 0) // send: evicts the receiver's primed way
        .label("out")
        .unwrap()
        .halt()
        .build()
        .unwrap()
}

#[test]
fn spectre_v1_leaks_through_prime_probe() {
    let mut m = Machine::new(UarchConfig::default());
    m.map_user_page(VICTIM_ARRAY).unwrap();
    m.map_user_page(BOUND_PTR).unwrap();
    m.map_user_page(SENDER_BASE).unwrap();
    m.write_u64(BOUND_PTR, BOUND_CELL).unwrap();
    m.write_u64(BOUND_CELL, 8).unwrap();
    m.write_u64(VICTIM_ARRAY + 64 * 8, SMALL_SECRET).unwrap();
    for i in 0..8 {
        m.write_u64(VICTIM_ARRAY + i * 8, 1).unwrap();
    }
    let p = gadget();

    // Train the bounds-check branch.
    for i in 0..4 {
        m.set_reg(Reg::R0, i % 8);
        m.set_reg(Reg::R1, VICTIM_ARRAY);
        m.set_reg(Reg::R2, BOUND_PTR);
        m.set_reg(Reg::R3, SENDER_BASE);
        m.run(&p).unwrap();
    }

    // Receiver primes the monitored sets.
    let ch = PrimeProbe::with_base_set(PRIME_BASE, 8, BASE_SET);
    ch.prime(&mut m).unwrap();

    // Attack: out-of-bounds index; the transient send touches the line in
    // set SMALL_SECRET, evicting a primed way.
    m.flush_line(BOUND_PTR).unwrap();
    m.flush_line(BOUND_CELL).unwrap();
    m.set_reg(Reg::R0, 64);
    m.set_reg(Reg::R1, VICTIM_ARRAY);
    m.set_reg(Reg::R2, BOUND_PTR);
    m.set_reg(Reg::R3, SENDER_BASE);
    m.run(&p).unwrap();

    // Probe: the slow set is the secret.
    let reading = ch.probe(&mut m).unwrap();
    assert_eq!(
        reading.recovered,
        Some(SMALL_SECRET as usize),
        "Prime+Probe must recover the secret: {reading:?}"
    );
}

#[test]
fn prime_probe_variant_is_a_novel_point_in_the_design_space() {
    let p = discovery::AttackPoint::new(
        SecretSource::ArchitecturalMemory,
        discovery::DelayMechanism::ConditionalBranch,
        discovery::Channel::PrimeProbe,
    );
    // Not in the published Flush+Reload catalog…
    assert_eq!(p.known_variants().next(), None);
    // …but its attack graph races all the same.
    assert_eq!(p.graph().vulnerabilities().unwrap().len(), 3);
}

#[test]
fn defense_strategy_3_blocks_the_substituted_channel_too() {
    // CleanupSpec undoes the speculative fill regardless of which channel
    // would have read it: the strategy, not the channel, is what matters.
    let mut m = Machine::new(UarchConfig::builder().cleanup_spec(true).build());
    m.map_user_page(VICTIM_ARRAY).unwrap();
    m.map_user_page(BOUND_PTR).unwrap();
    m.map_user_page(SENDER_BASE).unwrap();
    m.write_u64(BOUND_PTR, BOUND_CELL).unwrap();
    m.write_u64(BOUND_CELL, 8).unwrap();
    m.write_u64(VICTIM_ARRAY + 64 * 8, SMALL_SECRET).unwrap();
    for i in 0..8 {
        m.write_u64(VICTIM_ARRAY + i * 8, 1).unwrap();
    }
    let p = gadget();
    for i in 0..4 {
        m.set_reg(Reg::R0, i % 8);
        m.set_reg(Reg::R1, VICTIM_ARRAY);
        m.set_reg(Reg::R2, BOUND_PTR);
        m.set_reg(Reg::R3, SENDER_BASE);
        m.run(&p).unwrap();
    }
    let ch = PrimeProbe::with_base_set(PRIME_BASE, 8, BASE_SET);
    ch.prime(&mut m).unwrap();
    m.flush_line(BOUND_PTR).unwrap();
    m.flush_line(BOUND_CELL).unwrap();
    m.set_reg(Reg::R0, 64);
    m.set_reg(Reg::R1, VICTIM_ARRAY);
    m.set_reg(Reg::R2, BOUND_PTR);
    m.set_reg(Reg::R3, SENDER_BASE);
    m.run(&p).unwrap();
    let reading = ch.probe(&mut m).unwrap();
    assert_eq!(
        reading.recovered, None,
        "CleanupSpec must undo the eviction"
    );
}
