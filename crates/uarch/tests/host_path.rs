//! The host path (`read_u64`, `write_u64`, `touch`, `flush_line`,
//! `cache_contains`, `flush_lines`) resolves a virtual address through the
//! user-visible PTE, else the kernel-only one, to that PTE's frame,
//! whatever the PTE's permission bits say: the setup code of an attack
//! must reach pages its victim cannot. Only a missing PTE is an error.

use uarch::mmu::{PageEntry, PAGE_SIZE};
use uarch::{Machine, UarchConfig, UarchError};

/// The virtual page the tests map; its frame is elsewhere.
const VADDR: u64 = 0x40_0000;
/// The frame the test PTEs point at.
const FRAME: u64 = 0x123;
/// An offset into the page, on the second word of its fourth line.
const OFFSET: u64 = 3 * 64 + 8;

/// The PTE kinds the host path must see through.
fn entries() -> [(&'static str, PageEntry); 5] {
    let rw = PageEntry::user_rw(FRAME);
    [
        ("user", rw),
        (
            "not present",
            PageEntry {
                present: false,
                ..rw
            },
        ),
        (
            "reserved bit",
            PageEntry {
                reserved: true,
                ..rw
            },
        ),
        ("kernel-only", PageEntry::kernel_rw(FRAME)),
        (
            "read-only",
            PageEntry {
                writable: false,
                ..rw
            },
        ),
    ]
}

/// Drives every host-path call at `vaddr` and checks that each resolved to
/// the physical address `paddr`.
fn assert_resolves(m: &mut Machine, vaddr: u64, paddr: u64, case: &str) {
    let line = paddr & !63;
    m.write_u64(vaddr, 0xfeed).unwrap();
    assert_eq!(m.read_u64(vaddr).unwrap(), 0xfeed, "{case}: read");
    assert!(!m.cache_contains(vaddr).unwrap(), "{case}: cold");
    m.touch(vaddr).unwrap();
    assert_eq!(m.cache().resident_lines(), vec![line], "{case}: touch");
    assert!(m.cache_contains(vaddr).unwrap(), "{case}: contains");
    assert!(m.cache().contains(paddr), "{case}: frame");
    m.flush_line(vaddr).unwrap();
    assert!(m.cache().resident_lines().is_empty(), "{case}: flush");
    m.touch(vaddr).unwrap();
    m.flush_lines([vaddr]).unwrap();
    assert!(m.cache().resident_lines().is_empty(), "{case}: flush_lines");
}

#[test]
fn every_pte_kind_resolves_to_its_frame() {
    for (case, entry) in entries() {
        let mut m = Machine::new(UarchConfig::default());
        m.map_page(VADDR, entry);
        assert_resolves(&mut m, VADDR + OFFSET, FRAME * PAGE_SIZE + OFFSET, case);
        // The frame holds what was written through the mapping.
        let mut alias = Machine::new(UarchConfig::default());
        alias.map_page(VADDR, entry);
        alias.map_page(0x80_0000, PageEntry::user_rw(FRAME));
        alias.write_u64(VADDR + OFFSET, 7).unwrap();
        assert_eq!(
            alias.read_u64(0x80_0000 + OFFSET).unwrap(),
            7,
            "{case}: alias"
        );
    }
}

#[test]
fn kernel_pages_resolve_with_and_without_kpti() {
    for kpti in [false, true] {
        let mut m = Machine::new(UarchConfig {
            kpti,
            ..UarchConfig::default()
        });
        m.map_kernel_page(VADDR).unwrap();
        // KPTI leaves no user-visible PTE: the kernel-only table answers.
        assert_eq!(m.page_table().entry(VADDR / PAGE_SIZE).is_some(), !kpti);
        let case = format!("kernel page, kpti={kpti}");
        assert_resolves(&mut m, VADDR + OFFSET, VADDR + OFFSET, &case);
    }
}

#[test]
fn the_user_visible_pte_wins_over_the_kernel_one() {
    let mut m = Machine::new(UarchConfig {
        kpti: true,
        ..UarchConfig::default()
    });
    m.map_kernel_page(VADDR).unwrap();
    m.map_page(VADDR, PageEntry::user_rw(FRAME));
    assert_resolves(&mut m, VADDR + OFFSET, FRAME * PAGE_SIZE + OFFSET, "both");
}

#[test]
fn a_missing_pte_is_unmapped() {
    let mut m = Machine::new(UarchConfig::default());
    let vaddr = VADDR + OFFSET;
    let unmapped = |r: Result<(), UarchError>| r == Err(UarchError::Unmapped { vaddr });
    assert!(unmapped(m.write_u64(vaddr, 1)));
    assert!(unmapped(m.read_u64(vaddr).map(drop)));
    assert!(unmapped(m.touch(vaddr)));
    assert!(unmapped(m.flush_line(vaddr)));
    assert!(unmapped(m.cache_contains(vaddr).map(drop)));
    assert!(unmapped(m.timed_read(vaddr).map(drop)));
    assert!(unmapped(m.flush_lines([vaddr])));
}

#[test]
fn flush_lines_translates_every_address_before_it_flushes() {
    let mut m = Machine::new(UarchConfig::default());
    let mapped: Vec<u64> = (0..4).map(|i| VADDR + i * (PAGE_SIZE + 64)).collect();
    for &vaddr in &mapped {
        m.map_user_page(vaddr).unwrap();
        m.touch(vaddr).unwrap();
    }
    let resident = m.cache().resident_lines();
    assert_eq!(resident.len(), 4);
    let missing = 0x90_0000;
    let mut sweep = mapped.clone();
    sweep.insert(2, missing);
    sweep.push(missing + PAGE_SIZE);
    assert_eq!(
        m.flush_lines(sweep),
        Err(UarchError::Unmapped { vaddr: missing })
    );
    assert_eq!(m.cache().resident_lines(), resident);
    m.flush_lines(mapped).unwrap();
    assert!(m.cache().resident_lines().is_empty());
}
