//! Paging, permissions, and translation — the hardware *authorization* of
//! Meltdown-type attacks.
//!
//! Translation of a virtual address consults a page-table entry carrying the
//! permission bits of the paper's Table III authorization column:
//!
//! * **user bit** — kernel pages fault in user mode (Meltdown),
//! * **present bit / reserved bits** — terminal faults (Foreshadow), which
//!   abort the walk *but still expose the stale frame bits*, the basis of
//!   reading from L1,
//! * **writable bit** — write faults (Spectre v1.2 writes read-only memory
//!   transiently).

use crate::fxmap::FxMap;
use crate::result::Fault;

/// Page size: 4 KiB.
pub const PAGE_SIZE: u64 = 4096;

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Physical frame number (`paddr >> 12`).
    pub frame: u64,
    /// Present bit; clear ⇒ terminal fault (Foreshadow-style).
    pub present: bool,
    /// User-accessible bit; clear ⇒ kernel-only (Meltdown's check).
    pub user: bool,
    /// Writable bit; clear ⇒ stores fault (Spectre v1.2's check).
    pub writable: bool,
    /// Reserved bits set ⇒ terminal fault even when present (Foreshadow-NG).
    pub reserved: bool,
}

impl PageEntry {
    /// A normal user page mapped 1:1 (frame = vpn).
    #[must_use]
    pub fn user_rw(frame: u64) -> Self {
        PageEntry {
            frame,
            present: true,
            user: true,
            writable: true,
            reserved: false,
        }
    }

    /// A kernel-only page mapped 1:1.
    #[must_use]
    pub fn kernel_rw(frame: u64) -> Self {
        PageEntry {
            user: false,
            ..Self::user_rw(frame)
        }
    }
}

/// Outcome of a translation: the physical address the hardware would use,
/// plus the authorization verdict.
///
/// Crucially for Foreshadow, a *terminal* fault still yields a physical
/// address (`paddr` is `Some`): the vulnerable machine forwards L1 data for
/// that address while the fault is in flight. A missing translation
/// (`paddr == None`) has no data path at all — which is exactly why KPTI
/// (unmapping, not just protecting, kernel pages) defeats Meltdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address from the (possibly faulting) PTE, if any PTE
    /// exists.
    pub paddr: Option<u64>,
    /// The authorization verdict: `None` means access allowed.
    pub fault: Option<Fault>,
}

/// Privilege level of the executing context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivilegeLevel {
    /// Unprivileged user mode.
    User,
    /// Supervisor mode.
    Kernel,
}

/// A single-level page table over 4 KiB pages.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: FxMap<u64, PageEntry>,
}

impl Clone for PageTable {
    fn clone(&self) -> Self {
        PageTable {
            entries: self.entries.clone(),
        }
    }

    /// Copies `source` into this table's storage: no allocation when both
    /// tables have the same capacity.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl PageTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps virtual page number `vpn` to `entry`.
    pub fn map(&mut self, vpn: u64, entry: PageEntry) {
        self.entries.insert(vpn, entry);
    }

    /// Removes the mapping for `vpn` (KPTI unmaps kernel pages this way).
    pub fn unmap(&mut self, vpn: u64) -> Option<PageEntry> {
        self.entries.remove(&vpn)
    }

    /// Removes every mapping, keeping the table's heap capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entry for `vpn`, if mapped.
    #[must_use]
    pub fn entry(&self, vpn: u64) -> Option<&PageEntry> {
        self.entries.get(&vpn)
    }

    /// Iterates over all `(vpn, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &PageEntry)> + '_ {
        self.entries.iter()
    }

    /// Translates `vaddr` for an access of the given kind at the given
    /// privilege.
    ///
    /// Returns the physical address the hardware datapath would use together
    /// with the authorization verdict — the two race in a vulnerable
    /// pipeline.
    #[must_use]
    pub fn translate(&self, vaddr: u64, write: bool, priv_level: PrivilegeLevel) -> Translation {
        let vpn = vaddr / PAGE_SIZE;
        let offset = vaddr % PAGE_SIZE;
        let Some(e) = self.entries.get(&vpn) else {
            return Translation {
                paddr: None,
                fault: Some(Fault::PageNotMapped { vaddr }),
            };
        };
        let paddr = Some(e.frame * PAGE_SIZE + offset);
        // Terminal faults: present bit clear or reserved bits set. The walk
        // aborts, but the stale frame bits remain on the datapath.
        if !e.present {
            return Translation {
                paddr,
                fault: Some(Fault::PageNotPresent { vaddr }),
            };
        }
        if e.reserved {
            return Translation {
                paddr,
                fault: Some(Fault::ReservedBitSet { vaddr }),
            };
        }
        if priv_level == PrivilegeLevel::User && !e.user {
            return Translation {
                paddr,
                fault: Some(Fault::PrivilegeViolation { vaddr }),
            };
        }
        if write && !e.writable {
            return Translation {
                paddr,
                fault: Some(Fault::WriteToReadOnly { vaddr }),
            };
        }
        Translation { paddr, fault: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        let mut t = PageTable::new();
        t.map(1, PageEntry::user_rw(1)); // 0x1000 user rw
        t.map(2, PageEntry::kernel_rw(2)); // 0x2000 kernel
        t.map(
            3,
            PageEntry {
                present: false,
                ..PageEntry::user_rw(3)
            },
        ); // 0x3000 not present
        t.map(
            4,
            PageEntry {
                writable: false,
                ..PageEntry::user_rw(4)
            },
        ); // 0x4000 read-only
        t.map(
            5,
            PageEntry {
                reserved: true,
                ..PageEntry::user_rw(5)
            },
        ); // 0x5000 reserved bits
        t
    }

    #[test]
    fn user_page_translates_cleanly() {
        let t = table();
        let tr = t.translate(0x1008, false, PrivilegeLevel::User);
        assert_eq!(tr.paddr, Some(0x1008));
        assert_eq!(tr.fault, None);
    }

    #[test]
    fn kernel_page_faults_in_user_mode_but_keeps_paddr() {
        let t = table();
        let tr = t.translate(0x2010, false, PrivilegeLevel::User);
        assert_eq!(tr.paddr, Some(0x2010));
        assert!(matches!(tr.fault, Some(Fault::PrivilegeViolation { .. })));
        // In kernel mode the same access is fine.
        let tr = t.translate(0x2010, false, PrivilegeLevel::Kernel);
        assert_eq!(tr.fault, None);
    }

    #[test]
    fn unmapped_page_has_no_paddr() {
        let t = table();
        let tr = t.translate(0x9000, false, PrivilegeLevel::Kernel);
        assert_eq!(tr.paddr, None);
        assert!(matches!(tr.fault, Some(Fault::PageNotMapped { .. })));
    }

    #[test]
    fn terminal_faults_keep_frame_bits() {
        let t = table();
        let np = t.translate(0x3000, false, PrivilegeLevel::User);
        assert_eq!(np.paddr, Some(0x3000));
        assert!(matches!(np.fault, Some(Fault::PageNotPresent { .. })));
        let rsvd = t.translate(0x5000, false, PrivilegeLevel::Kernel);
        assert_eq!(rsvd.paddr, Some(0x5000));
        assert!(matches!(rsvd.fault, Some(Fault::ReservedBitSet { .. })));
    }

    #[test]
    fn readonly_page_faults_only_on_write() {
        let t = table();
        assert_eq!(t.translate(0x4000, false, PrivilegeLevel::User).fault, None);
        assert!(matches!(
            t.translate(0x4000, true, PrivilegeLevel::User).fault,
            Some(Fault::WriteToReadOnly { .. })
        ));
    }

    #[test]
    fn unmap_removes_datapath() {
        let mut t = table();
        assert!(t.unmap(2).is_some());
        let tr = t.translate(0x2000, false, PrivilegeLevel::User);
        assert_eq!(tr.paddr, None);
        assert!(t.unmap(2).is_none());
    }

    #[test]
    fn nonidentity_frame_translation() {
        let mut t = PageTable::new();
        t.map(0x10, PageEntry::user_rw(0x99));
        let tr = t.translate(0x10_123, false, PrivilegeLevel::User);
        assert_eq!(tr.paddr, Some(0x99 * PAGE_SIZE + 0x123));
    }
}
