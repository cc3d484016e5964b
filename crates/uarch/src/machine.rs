//! The speculative out-of-order machine.
//!
//! One [`Machine`] holds persistent micro-architectural state (cache,
//! predictors, leaky buffers, FPU, MSRs, memory, page table) and executes
//! [`isa::Program`]s on it with an in-order-retire / out-of-order-execute
//! pipeline. Micro-architectural state deliberately survives across runs and
//! across squashes — that persistence *is* the covert channel the paper
//! models.

use crate::buffers::{LfbEntry, LineFillBuffer, LoadPorts, StoreBuffer, StoreEntry};
use crate::cache::{Cache, LINE_SIZE, WORDS_PER_LINE};
use crate::config::{Switch, Switches, UarchConfig};
use crate::error::UarchError;
use crate::event::{SquashCause, TraceEvent, TransientSource};
use crate::fpu::FpuState;
use crate::mem::Memory;
use crate::mmu::{PageEntry, PageTable, PrivilegeLevel, PAGE_SIZE};
use crate::predictor::Predictors;
use crate::result::{Fault, RunResult};
use crate::smallmap::SmallMap;
use isa::{Cond, FenceKind, Instruction, Operand, Program, Reg};
use std::cell::Cell;
use std::collections::VecDeque;

/// Privilege level of a context (re-exported from the MMU).
pub type Privilege = PrivilegeLevel;

/// Identifier of an execution context (process/thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextId(pub u32);

/// What happens when a fault reaches retirement outside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionBehavior {
    /// Stop the run (the default; `RunResult::halted` will be `false`).
    Halt,
    /// Squash and continue fetching at a handler pc — how attack programs
    /// survive the Meltdown fault and proceed to the reload phase.
    Handler(usize),
}

#[derive(Debug, Clone)]
struct Context {
    privilege: Privilege,
    exception: ExceptionBehavior,
    regs: [u64; Reg::COUNT],
}

/// Maximum number of source registers any instruction reads
/// (see [`Instruction::sources_fixed`]).
const MAX_SRCS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready { value: u64, tainted: bool },
    Pending { producer: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Executing { done_at: u64 },
    Done,
}

/// A victim line displaced by a speculative fill: its base address and
/// data, or `None` when the fill landed in an empty way.
type EvictedLine = Option<(u64, [u64; WORDS_PER_LINE])>;

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    pc: usize,
    inst: Instruction,
    /// Source operands, inline (no instruction reads more than
    /// [`MAX_SRCS`] registers). Unused slots hold a benign `Ready` value so
    /// whole-array scans are safe.
    srcs: [Src; MAX_SRCS],
    state: EntryState,
    /// Result value (for register-writing instructions).
    result: u64,
    /// STT taint: result derives from a speculatively-loaded value.
    tainted: bool,
    /// The entry is a load that executed while speculative (NDA gate).
    spec_load: bool,
    /// Result has been broadcast to consumers.
    broadcast: bool,
    fault: Option<Fault>,
    /// For control flow: predicted next pc recorded at fetch (None = fetch
    /// stalled waiting for this instruction).
    predicted_next: Option<usize>,
    /// For conditional branches: predicted direction.
    predicted_taken: bool,
    /// Loads/stores: resolved physical address of the access.
    paddr: Option<u64>,
    /// Stores: value to write.
    store_value: u64,
    /// Loads: bypassed at least one older unresolved store (Spectre v4).
    bypassed: bool,
    /// CleanupSpec undo record: (filled line base, evicted victim).
    filled_line: Option<(u64, EvictedLine)>,
    /// InvisiSpec: fill deferred to retirement for this paddr.
    deferred_fill: Option<u64>,
    /// Fetched inside a transactional region.
    in_tx: bool,
    /// A defense-blocked event was already recorded for this entry.
    blocked_reported: bool,
    /// Earliest cycle at which this entry may retire. Faulting instructions
    /// set this to the completion time of their *authorization check*
    /// (permission/privilege/owner check): the data may arrive earlier and
    /// feed dependents — that gap is the paper's transient window.
    retire_not_before: u64,
}

impl Entry {
    fn is_store(&self) -> bool {
        matches!(self.inst, Instruction::Store { .. })
    }

    fn is_control(&self) -> bool {
        self.inst.is_control_flow()
    }

    fn done(&self) -> bool {
        self.state == EntryState::Done
    }
}

/// The speculative out-of-order CPU.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct Machine {
    cfg: UarchConfig,
    /// The switches read since the last [`new`](Machine::new) or
    /// [`reset`](Machine::reset) (see [`Machine::switch`]).
    consulted: Cell<Switches>,
    memory: Memory,
    page_table: PageTable,
    /// Kernel-visible mappings. Under KPTI, kernel pages live *only* here:
    /// the user-visible `page_table` has no PTE for them (no transient data
    /// path), while kernel-privilege execution and host-level setup still
    /// reach them — the split KAISER/KPTI actually implements.
    kernel_table: PageTable,
    cache: Cache,
    lfb: LineFillBuffer,
    store_buffer: StoreBuffer,
    load_ports: LoadPorts,
    predictors: Predictors,
    fpu: FpuState,
    msrs: SmallMap<u32, u64>,
    contexts: Vec<Context>,
    current: ContextId,
    cycle: u64,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    // ---- per-run pipeline state ----
    rob: VecDeque<Entry>,
    next_seq: u64,
    rename: [Option<u64>; Reg::COUNT],
    fetch_pc: Option<usize>,
    /// Fetch is stalled waiting for this control instruction to resolve.
    stalled_on: Option<u64>,
    /// Fetch-time transaction nesting depth.
    tx_depth: usize,
    /// Architectural (in-order) call stack; updated at retirement.
    arch_stack: Vec<usize>,
    /// Per-TxBegin pc: the pc to resume at on abort.
    tx_fallback: SmallMap<usize, usize>,
    /// Reused scratch for [`Machine::complete`] (kept to avoid a per-cycle
    /// allocation).
    scratch_completing: Vec<usize>,
    /// Reused scratch for the tx-fallback scan at the start of each run.
    scratch_tx_stack: Vec<usize>,
    /// Reused scratch for [`Machine::reload_and_flush`] and
    /// [`Machine::flush_lines`]: each slot's physical address and whether
    /// its reload hit. Empty between sweeps.
    scratch_probes: Vec<(u64, bool)>,
}

impl Machine {
    /// Creates a machine with one kernel-privileged context (`ContextId(0)`),
    /// which is also the current context.
    #[must_use]
    pub fn new(cfg: UarchConfig) -> Self {
        let ctx0 = Context {
            privilege: Privilege::Kernel,
            exception: ExceptionBehavior::Halt,
            regs: [0; Reg::COUNT],
        };
        let mut cache = Cache::new(cfg.cache_sets, cfg.cache_ways);
        cache.set_partitioned(cfg.dawg);
        Machine {
            consulted: Cell::new(Switches::NONE.with(Switch::Dawg)),
            cache,
            lfb: LineFillBuffer::new(cfg.lfb_entries),
            store_buffer: StoreBuffer::new(cfg.store_buffer_entries),
            load_ports: LoadPorts::new(cfg.load_port_entries),
            predictors: Predictors::new(cfg.rsb_depth),
            fpu: FpuState::new(ContextId(0)),
            msrs: SmallMap::new(),
            contexts: vec![ctx0],
            current: ContextId(0),
            cycle: 0,
            events: Vec::with_capacity(cfg.max_events),
            events_dropped: 0,
            rob: VecDeque::new(),
            next_seq: 0,
            rename: [None; Reg::COUNT],
            fetch_pc: None,
            stalled_on: None,
            tx_depth: 0,
            arch_stack: Vec::new(),
            tx_fallback: SmallMap::new(),
            scratch_completing: Vec::new(),
            scratch_tx_stack: Vec::new(),
            scratch_probes: Vec::new(),
            memory: Memory::new(),
            page_table: PageTable::new(),
            kernel_table: PageTable::new(),
            cfg,
        }
    }

    /// Restores the machine to its pristine post-[`new`](Machine::new) state
    /// for `cfg` — observationally identical to `Machine::new(cfg.clone())`
    /// (same events, cycles, faults and leak verdicts for any subsequent
    /// program) — but *without* releasing heap allocations: cache sets,
    /// event log, ROB, leaky buffers, predictor tables, page tables and
    /// memory all keep their capacity. This is the warm-machine fast path
    /// for batched campaigns, where rebuilding per cell dominates setup.
    pub fn reset(&mut self, cfg: &UarchConfig) {
        self.cfg.clone_from(cfg);
        self.memory.clear();
        self.page_table.clear();
        self.kernel_table.clear();
        self.cache.reset(cfg.cache_sets, cfg.cache_ways);
        self.cache.set_partitioned(cfg.dawg);
        self.consulted.set(Switches::NONE.with(Switch::Dawg));
        self.lfb.reset(cfg.lfb_entries);
        self.store_buffer.reset(cfg.store_buffer_entries);
        self.load_ports.reset(cfg.load_port_entries);
        self.predictors.reset(cfg.rsb_depth);
        self.fpu.reset(ContextId(0));
        self.msrs.clear();
        self.contexts.truncate(1);
        self.contexts[0] = Context {
            privilege: Privilege::Kernel,
            exception: ExceptionBehavior::Halt,
            regs: [0; Reg::COUNT],
        };
        self.current = ContextId(0);
        self.cycle = 0;
        self.events.clear();
        if self.events.capacity() < cfg.max_events {
            self.events.reserve(cfg.max_events);
        }
        self.events_dropped = 0;
        self.rob.clear();
        self.next_seq = 0;
        self.rename = [None; Reg::COUNT];
        self.fetch_pc = None;
        self.stalled_on = None;
        self.tx_depth = 0;
        self.arch_stack.clear();
        self.tx_fallback.clear();
    }

    // ------------------------------------------------------------------
    // Host-level setup and inspection API
    // ------------------------------------------------------------------

    /// Reads switch `s` of the configuration in force and adds it to the
    /// consulted set.
    ///
    /// Every switch read of the simulation goes through here, so a run
    /// from [`new`](Machine::new) or [`reset`](Machine::reset) onwards is
    /// a deterministic function of the non-switch fields and of the
    /// switches in [`Machine::consulted`]: a configuration that agrees
    /// with this one on those takes the same branch at every read, and so
    /// gives the same events, cycles and machine state. The simulator
    /// reads a switch only after the cheaper condition that makes it
    /// matter (`speculative && switch(..)`), which keeps the set small.
    pub fn switch(&self, s: Switch) -> bool {
        self.consulted.set(self.consulted.get().with(s));
        s.read(&self.cfg)
    }

    /// The switches read since the last [`new`](Machine::new) or
    /// [`reset`](Machine::reset). [`Switch::Dawg`] is always in it: the
    /// cache takes its partitioning at reset.
    #[must_use]
    pub fn consulted(&self) -> Switches {
        self.consulted.get()
    }

    /// The configured L1 hit and miss latencies, in cycles: what a covert
    /// channel's receiver needs to tell a hit from a miss. Reads no
    /// switch.
    #[must_use]
    pub fn cache_latencies(&self) -> (u64, u64) {
        (self.cfg.cache_hit_latency, self.cfg.cache_miss_latency)
    }

    /// The global cycle counter (monotonic across runs).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Adds a context; returns its id.
    pub fn add_context(&mut self, privilege: Privilege, exception: ExceptionBehavior) -> ContextId {
        let id = ContextId(self.contexts.len() as u32);
        self.contexts.push(Context {
            privilege,
            exception,
            regs: [0; Reg::COUNT],
        });
        id
    }

    /// Switches to another context — the boundary at which strategy-④
    /// defenses (predictor flushing, RSB stuffing, eager FPU switch) act.
    ///
    /// # Errors
    ///
    /// [`UarchError::UnknownContext`] for an id not created by
    /// [`Machine::add_context`].
    pub fn switch_context(&mut self, id: ContextId) -> Result<(), UarchError> {
        if id.0 as usize >= self.contexts.len() {
            return Err(UarchError::UnknownContext(id.0));
        }
        self.current = id;
        self.cache.set_active_domain(id.0);
        if self.switch(Switch::FlushPredictorsOnSwitch) {
            self.predictors.flush();
            self.record(TraceEvent::PredictorsFlushed { cycle: self.cycle });
        }
        if self.switch(Switch::RsbStuffing) {
            self.predictors.rsb.stuff(0);
        }
        // Switching to the owner changes nothing, lazy or not.
        if !self.fpu.owned_by(id) && !self.switch(Switch::LazyFpu) {
            self.fpu.switch_to(id);
        }
        Ok(())
    }

    /// The current context id.
    #[must_use]
    pub fn current_context(&self) -> ContextId {
        self.current
    }

    /// Sets the exception behavior of the current context.
    pub fn set_exception_behavior(&mut self, behavior: ExceptionBehavior) {
        self.contexts[self.current.0 as usize].exception = behavior;
    }

    /// Sets the privilege of the current context.
    pub fn set_privilege(&mut self, privilege: Privilege) {
        self.contexts[self.current.0 as usize].privilege = privilege;
    }

    /// The privilege of the current context.
    #[must_use]
    pub fn privilege(&self) -> Privilege {
        self.contexts[self.current.0 as usize].privilege
    }

    /// Reads a committed register of the current context.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.contexts[self.current.0 as usize].regs[r.index()]
        }
    }

    /// Writes a committed register of the current context.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.contexts[self.current.0 as usize].regs[r.index()] = value;
        }
    }

    /// Maps a page-table entry for the page containing `vaddr` (1:1
    /// frame = vpn) with full user permissions.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn map_user_page(&mut self, vaddr: u64) -> Result<(), UarchError> {
        let vpn = vaddr / PAGE_SIZE;
        self.page_table.map(vpn, PageEntry::user_rw(vpn));
        Ok(())
    }

    /// Maps the page containing `vaddr` as kernel-only (1:1).
    ///
    /// Under KPTI ([`UarchConfig::kpti`]) the page is *not inserted* into
    /// the user-visible table at all — user accesses see a hard
    /// [`Fault::PageNotMapped`] with no transient data path.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn map_kernel_page(&mut self, vaddr: u64) -> Result<(), UarchError> {
        let vpn = vaddr / PAGE_SIZE;
        self.kernel_table.map(vpn, PageEntry::kernel_rw(vpn));
        if self.switch(Switch::Kpti) {
            // KPTI: no PTE in the user-visible table at all.
            self.page_table.unmap(vpn);
        } else {
            self.page_table.map(vpn, PageEntry::kernel_rw(vpn));
        }
        Ok(())
    }

    /// Translation as seen by the pipeline: the user-visible table first;
    /// kernel-privilege execution falls back to the kernel-only mappings
    /// (the KPTI split).
    fn translate(&self, vaddr: u64, write: bool, priv_level: Privilege) -> crate::mmu::Translation {
        let tr = self.page_table.translate(vaddr, write, priv_level);
        if tr.paddr.is_none() && priv_level == Privilege::Kernel {
            return self.kernel_table.translate(vaddr, write, priv_level);
        }
        tr
    }

    /// The user-visible page table (read-only oracle access).
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Replaces the user-visible page table with a copy of `pages`, reusing
    /// the table's storage. Paired with [`Machine::page_table`], this lets a
    /// warm caller snapshot the mappings it set up once and restore them
    /// after each [`reset`](Machine::reset) instead of mapping page by page.
    pub fn restore_page_table(&mut self, pages: &PageTable) {
        self.page_table.clone_from(pages);
    }

    /// Maps an arbitrary entry for the page containing `vaddr`.
    pub fn map_page(&mut self, vaddr: u64, entry: PageEntry) {
        self.page_table.map(vaddr / PAGE_SIZE, entry);
    }

    /// Direct physical-memory write keyed by virtual address (host/setup
    /// path: ignores permission faults, requires only that a PTE exists so
    /// the frame is known; identity-mapped pages therefore just work).
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn write_u64(&mut self, vaddr: u64, value: u64) -> Result<(), UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        self.memory.write_u64(paddr, value);
        self.cache.write_through(paddr, value);
        Ok(())
    }

    /// Direct physical-memory read keyed by virtual address (host path).
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn read_u64(&self, vaddr: u64) -> Result<u64, UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        Ok(self.memory.read_u64(paddr))
    }

    /// The frame behind `vaddr` for the host path: the user-visible PTE,
    /// else the kernel-only one. This is the paddr a kernel-privilege
    /// [`translate`](Machine::translate) yields whatever the PTE's
    /// permission bits, without building its fault verdict.
    fn setup_paddr(&self, vaddr: u64) -> Result<u64, UarchError> {
        let vpn = vaddr / PAGE_SIZE;
        let entry = self
            .page_table
            .entry(vpn)
            .or_else(|| self.kernel_table.entry(vpn))
            .ok_or(UarchError::Unmapped { vaddr })?;
        Ok(entry.frame * PAGE_SIZE + vaddr % PAGE_SIZE)
    }

    /// [`setup_paddr`](Machine::setup_paddr) of every address of
    /// `vaddrs`, each paired with `false`, in the reused scratch list (the
    /// caller clears it and puts it back). On error nothing has changed.
    fn setup_paddrs(
        &mut self,
        vaddrs: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<(u64, bool)>, UarchError> {
        let mut probes = std::mem::take(&mut self.scratch_probes);
        for vaddr in vaddrs {
            match self.setup_paddr(vaddr) {
                Ok(paddr) => probes.push((paddr, false)),
                Err(e) => {
                    probes.clear();
                    self.scratch_probes = probes;
                    return Err(e);
                }
            }
        }
        Ok(probes)
    }

    /// Brings the line containing `vaddr` into the cache (host path; models
    /// the victim having touched the data — e.g. the Foreshadow requirement
    /// that the secret be resident in L1).
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn touch(&mut self, vaddr: u64) -> Result<(), UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        self.fill_line(paddr);
        Ok(())
    }

    /// Flushes the line containing `vaddr` from the cache (host-level
    /// clflush).
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn flush_line(&mut self, vaddr: u64) -> Result<(), UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        self.cache.flush(paddr);
        Ok(())
    }

    /// Flushes the line of every address of `vaddrs` from the cache: a
    /// [`flush_line`](Machine::flush_line) loop that translates every
    /// address before it flushes any.
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] for the first address without a PTE; the
    /// cache is then unchanged.
    pub fn flush_lines(&mut self, vaddrs: impl IntoIterator<Item = u64>) -> Result<(), UarchError> {
        let mut probes = self.setup_paddrs(vaddrs)?;
        for &(paddr, _) in &probes {
            self.cache.flush(paddr);
        }
        probes.clear();
        self.scratch_probes = probes;
        Ok(())
    }

    /// Whether the line containing `vaddr` is resident in the cache
    /// (an oracle probe: does not perturb cache state or statistics).
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn cache_contains(&self, vaddr: u64) -> Result<bool, UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        Ok(self.cache.contains(paddr))
    }

    /// Performs a *timed*, non-speculative, architectural read of `vaddr` —
    /// the covert-channel receiver primitive, equivalent to the
    /// `rdtsc; load; rdtsc` sequence of Flush+Reload receivers. Returns the
    /// measured latency in cycles. The access updates cache, LFB and load
    /// ports exactly as a committed load would.
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for the page.
    pub fn timed_read(&mut self, vaddr: u64) -> Result<u64, UarchError> {
        let paddr = self.setup_paddr(vaddr)?;
        let latency = if self.cache.lookup(paddr).is_some() {
            self.cfg.cache_hit_latency
        } else {
            self.fill_line(paddr);
            self.cfg.cache_miss_latency
        };
        self.load_ports.push(self.memory.read_u64(paddr));
        self.cycle += latency;
        Ok(latency)
    }

    /// The Flush+Reload receive sweep: for each address of `vaddrs` in
    /// order, a timed read followed by a flush of its line. `latencies` is
    /// cleared and then holds each read's latency in cycles, which are
    /// added to [`Machine::cycle`] as [`timed_read`](Machine::timed_read)
    /// adds them; the flushes cost nothing.
    ///
    /// The final state is exactly that of a `timed_read` + `flush_line`
    /// loop over the same addresses, reached without filling a line
    /// ([`Cache::reload_flush`]): a missed slot leaves no line behind, so
    /// nothing reads its line during the sweep. The line fill buffer and
    /// the load ports are [`Fifo`](crate::buffers::Fifo)s that nothing
    /// samples until the sweep returns, so only the entries that survive
    /// are pushed: the lines of the last misses and the words of the last
    /// reads, as many as each `Fifo`'s capacity.
    ///
    /// # Errors
    ///
    /// [`UarchError::Unmapped`] if no PTE exists for some address. Every
    /// address is translated before any state changes, so on error the
    /// machine is unchanged (and `latencies` is empty).
    pub fn reload_and_flush(
        &mut self,
        vaddrs: impl IntoIterator<Item = u64>,
        latencies: &mut Vec<u64>,
    ) -> Result<(), UarchError> {
        latencies.clear();
        let mut probes = self.setup_paddrs(vaddrs)?;
        let (hit, miss) = (self.cfg.cache_hit_latency, self.cfg.cache_miss_latency);
        latencies.extend(probes.iter_mut().map(|(paddr, was_hit)| {
            *was_hit = self.cache.reload_flush(*paddr);
            if *was_hit {
                hit
            } else {
                miss
            }
        }));
        self.cycle += latencies.iter().sum::<u64>();
        let misses = probes.iter().filter(|&&(_, was_hit)| !was_hit).count();
        for &(paddr, _) in probes
            .iter()
            .filter(|&&(_, was_hit)| !was_hit)
            .skip(misses.saturating_sub(self.lfb.capacity()))
        {
            let base = paddr & !(LINE_SIZE - 1);
            let data = self.memory.read_line(base);
            self.lfb.push(LfbEntry { base, data });
        }
        for &(paddr, _) in &probes[probes.len().saturating_sub(self.load_ports.capacity())..] {
            self.load_ports.push(self.memory.read_u64(paddr));
        }
        probes.clear();
        self.scratch_probes = probes;
        Ok(())
    }

    /// Reads an MSR (host path).
    #[must_use]
    pub fn msr(&self, msr: u32) -> u64 {
        self.msrs.get(&msr).copied().unwrap_or(0)
    }

    /// Writes an MSR (host path).
    pub fn set_msr(&mut self, msr: u32, value: u64) {
        self.msrs.insert(msr, value);
    }

    /// Writes an FP register on behalf of a context (eagerly switching the
    /// FPU to that context, as real FP computation would).
    pub fn set_fpu_reg(&mut self, ctx: ContextId, idx: usize, value: u64) {
        self.fpu.write(ctx, idx, value);
    }

    /// The FPU state (owner + physical values).
    #[must_use]
    pub fn fpu(&self) -> &FpuState {
        &self.fpu
    }

    /// The predictor state.
    #[must_use]
    pub fn predictors(&self) -> &Predictors {
        &self.predictors
    }

    /// The cache (read-only oracle access).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Clears the leaky buffers (models VERW-style buffer overwriting).
    pub fn clear_leaky_buffers(&mut self) {
        self.lfb.clear();
        self.store_buffer.clear();
        self.load_ports.clear();
    }

    /// The recorded trace events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Clears the trace event log, keeping its preallocated capacity.
    pub fn clear_events(&mut self) {
        self.events.clear();
        self.events_dropped = 0;
    }

    /// Number of events discarded because the log was full
    /// (see [`UarchConfig::max_events`]).
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    fn record(&mut self, e: TraceEvent) {
        if self.events.len() < self.cfg.max_events {
            self.events.push(e);
        } else {
            self.events_dropped += 1;
        }
    }

    fn fill_line(&mut self, paddr: u64) -> u64 {
        let base = paddr & !(LINE_SIZE - 1);
        let data = self.memory.read_line(base);
        self.lfb.push(LfbEntry { base, data });
        self.cache.fill(base, data);
        base
    }

    // ------------------------------------------------------------------
    // The pipeline
    // ------------------------------------------------------------------

    /// Runs `program` from instruction 0 until a `Halt` retires, the program
    /// runs off its end, or a fault stops it (per the context's
    /// [`ExceptionBehavior`]).
    ///
    /// Micro-architectural state persists across calls; architectural
    /// registers are the current context's.
    ///
    /// # Errors
    ///
    /// [`UarchError::CycleLimitExceeded`] if the configured `max_cycles` is
    /// exhausted (e.g. a program that never halts).
    ///
    /// A *quiescent* cycle — nothing retired, completed, broadcast, started
    /// or fetched, `fetch_pc` unchanged, no event recorded — leaves every
    /// piece of state as it found it, and the stages read the clock only by
    /// comparing it with an executing entry's `done_at` and the done head's
    /// `retire_not_before`. So every cycle up to the earliest of those is
    /// quiescent too, and the loop jumps the clock straight to the cycle
    /// before it (clamped to the cycle limit). Events, results, the cycle
    /// limit error and [`Machine::cycle`] are exactly those of walking the
    /// idle cycles one by one.
    pub fn run(&mut self, program: &Program) -> Result<RunResult, UarchError> {
        self.rob.clear();
        self.rename = [None; Reg::COUNT];
        self.fetch_pc = Some(0);
        self.stalled_on = None;
        self.tx_depth = 0;
        self.arch_stack.clear();
        let mut stack = std::mem::take(&mut self.scratch_tx_stack);
        compute_tx_fallbacks_into(program, &mut self.tx_fallback, &mut stack);
        self.scratch_tx_stack = stack;

        let mut res = RunResult::default();
        let start_cycle = self.cycle;
        let last_cycle = start_cycle.saturating_add(self.cfg.max_cycles);
        loop {
            if self.cycle - start_cycle >= self.cfg.max_cycles {
                return Err(UarchError::CycleLimitExceeded {
                    limit: self.cfg.max_cycles,
                });
            }
            self.cycle += 1;

            let marks = self.progress_marks(&res);
            let stop = self.retire(&mut res);
            if stop {
                break;
            }
            let mut busy = self.complete(&mut res);
            busy |= self.broadcast_ready();
            busy |= self.issue(&mut res);
            self.fetch(program);

            if self.rob.is_empty() && self.fetch_pc.is_none() && self.stalled_on.is_none() {
                // Ran off the end of the program: treat as an implicit halt.
                res.halted = true;
                break;
            }
            if !busy && self.progress_marks(&res) == marks {
                // Quiescent: skip the idle cycles (see above).
                self.cycle = self
                    .next_event_cycle()
                    .map_or(last_cycle, |at| (at - 1).min(last_cycle));
            }
        }
        res.cycles = self.cycle - start_cycle;
        Ok(res)
    }

    /// What retire and fetch change when they make progress: the retired
    /// count, the events recorded so far (including those a full log
    /// dropped; every fault and squash records one), the fetched sequence
    /// number and the fetch pc.
    fn progress_marks(&self, res: &RunResult) -> (u64, u64, u64, Option<usize>) {
        (
            res.retired,
            self.events.len() as u64 + self.events_dropped,
            self.next_seq,
            self.fetch_pc,
        )
    }

    /// The first cycle at which a quiescent pipeline can change again: the
    /// earliest `done_at` of an executing entry, or the head's
    /// `retire_not_before` if the head is done and waiting for it. `None`
    /// when nothing is pending, so the pipeline stays quiescent forever.
    fn next_event_cycle(&self) -> Option<u64> {
        let head_retires = self
            .rob
            .front()
            .filter(|e| e.done())
            .map(|e| e.retire_not_before);
        self.rob
            .iter()
            .filter_map(|e| match e.state {
                EntryState::Executing { done_at } => Some(done_at),
                _ => None,
            })
            .chain(head_retires)
            .min()
    }

    /// Index of the ROB entry with the given sequence number. Sequence
    /// numbers are strictly increasing but *not* contiguous (squashes leave
    /// gaps), so this is a binary search, not an offset computation.
    fn entry_index(&self, seq: u64) -> Option<usize> {
        self.rob.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Whether the entry at ROB position `idx` is *speculative*: some older
    /// in-flight operation could still invalidate it — an unresolved
    /// control-flow instruction, a faulting older instruction, an older
    /// store with an unresolved address, or an enclosing transaction.
    fn is_speculative(&self, idx: usize) -> bool {
        // The oldest in-flight instruction always proceeds: everything
        // older has retired, so nothing can invalidate it except its own
        // fault/abort (handled at retirement). Without this, an in-
        // transaction load under a blocking defense would deadlock.
        if idx == 0 {
            return false;
        }
        if self.rob[idx].in_tx {
            return true;
        }
        self.rob.iter().take(idx).any(|e| {
            (e.is_control() && !e.done())
                || e.fault.is_some()
                || (e.is_store() && e.paddr.is_none())
        })
    }

    /// Whether any older entry is an un-completed LFENCE (blocks all) or the
    /// entry is a memory op behind an un-completed MFENCE / store behind
    /// SSBB handling is done in the load path.
    fn fence_blocked(&self, idx: usize) -> bool {
        let me_mem = self.rob[idx].inst.is_memory();
        self.rob.iter().take(idx).any(|e| match e.inst {
            Instruction::Fence(FenceKind::LFence) => !e.done(),
            Instruction::Fence(FenceKind::MFence) => me_mem && !e.done(),
            _ => false,
        })
    }

    /// Whether an un-retired SSBB exists older than `idx`.
    fn ssbb_pending(&self, idx: usize) -> bool {
        self.rob
            .iter()
            .take(idx)
            .any(|e| matches!(e.inst, Instruction::Fence(FenceKind::Ssbb)))
    }

    // ---------------- retire ----------------

    /// Retires completed instructions in order. Returns `true` when the run
    /// must stop.
    fn retire(&mut self, res: &mut RunResult) -> bool {
        for _ in 0..self.cfg.issue_width {
            let Some(head) = self.rob.front() else {
                return false;
            };
            if !head.done() || self.cycle < head.retire_not_before {
                return false;
            }
            let entry = self.rob.pop_front().expect("head exists");

            // Faults surface architecturally at retirement.
            if let Some(fault) = entry.fault {
                return self.raise_fault(&entry, fault, res);
            }

            match entry.inst {
                Instruction::Halt => {
                    // Discard wrong-path younger entries silently.
                    self.rob.clear();
                    self.fetch_pc = None;
                    self.stalled_on = None;
                    res.retired += 1;
                    res.halted = true;
                    return true;
                }
                Instruction::Store { .. } => {
                    let paddr = entry.paddr.expect("store completed");
                    self.memory.write_u64(paddr, entry.store_value);
                    self.cache.write_through(paddr, entry.store_value);
                    self.store_buffer.push(StoreEntry {
                        paddr,
                        value: entry.store_value,
                    });
                }
                Instruction::Call { .. } => {
                    self.arch_stack.push(entry.pc + 1);
                }
                Instruction::Ret => {
                    // The architectural pop happened at resolution.
                }
                Instruction::Load { .. } => {
                    if let Some(paddr) = entry.deferred_fill {
                        // InvisiSpec: the fill becomes visible only now that
                        // the load is committed.
                        self.fill_line(paddr);
                    }
                }
                _ => {}
            }

            if let Some(dst) = entry.inst.destination() {
                if !dst.is_zero() {
                    self.contexts[self.current.0 as usize].regs[dst.index()] = entry.result;
                }
            }
            if let Some(dst) = entry.inst.destination() {
                if self.rename[dst.index()] == Some(entry.seq) {
                    self.rename[dst.index()] = None;
                }
            }
            res.retired += 1;
        }
        false
    }

    /// Handles a fault reaching retirement. Returns `true` if the run stops.
    fn raise_fault(&mut self, entry: &Entry, fault: Fault, res: &mut RunResult) -> bool {
        let discarded = self.rob.len();
        if entry.in_tx {
            // TSX: abort the transaction, suppress the exception, resume at
            // the fallback pc.
            let fallback = self
                .tx_fallback
                .values()
                .copied()
                .next()
                .unwrap_or(usize::MAX);
            let fallback = self.find_tx_fallback(entry.pc).unwrap_or(fallback);
            self.squash_all(SquashCause::TxAbort, res);
            self.record(TraceEvent::TxAborted {
                cycle: self.cycle,
                suppressed: 1,
            });
            res.tx_aborts += 1;
            self.tx_depth = 0;
            self.redirect_fetch(fallback);
            return false;
        }
        self.record(TraceEvent::FaultRaised {
            cycle: self.cycle,
            pc: entry.pc,
            fault,
        });
        self.squash_all(SquashCause::Fault, res);
        let _ = discarded;

        if fault == Fault::FpUnavailable {
            // The #NM handler switches the FPU eagerly and re-executes the
            // faulting instruction.
            self.fpu.switch_to(self.current);
            self.redirect_fetch(entry.pc);
            res.faults.push(fault);
            return false;
        }
        res.faults.push(fault);
        match self.contexts[self.current.0 as usize].exception {
            ExceptionBehavior::Handler(pc) => {
                self.redirect_fetch(pc);
                false
            }
            ExceptionBehavior::Halt => {
                self.fetch_pc = None;
                self.stalled_on = None;
                true
            }
        }
    }

    fn find_tx_fallback(&self, fault_pc: usize) -> Option<usize> {
        // The fallback of the innermost TxBegin whose region covers the
        // faulting pc. With the fetch-time flagging used here, the most
        // recent TxBegin at or before fault_pc is the right one.
        self.tx_fallback.range_max_le(fault_pc).map(|(_, fb)| fb)
    }

    fn redirect_fetch(&mut self, pc: usize) {
        self.fetch_pc = Some(pc);
        self.stalled_on = None;
    }

    fn squash_all(&mut self, cause: SquashCause, res: &mut RunResult) {
        let n = self.rob.len();
        for i in 0..n {
            let filled = self.rob[i].filled_line;
            self.undo_speculative_fill(filled);
        }
        self.rob.clear();
        res.squashed += n as u64;
        self.rename = [None; Reg::COUNT];
        self.record(TraceEvent::Squash {
            cycle: self.cycle,
            cause,
            discarded: n,
        });
        self.tx_depth = 0;
    }

    /// Squashes every entry *younger than* `seq` (exclusive).
    fn squash_after(&mut self, seq: u64, cause: SquashCause, res: &mut RunResult) {
        let keep = self
            .rob
            .iter()
            .position(|e| e.seq > seq)
            .unwrap_or(self.rob.len());
        let discarded = self.rob.len() - keep;
        for i in keep..self.rob.len() {
            let filled = self.rob[i].filled_line;
            self.undo_speculative_fill(filled);
        }
        self.rob.truncate(keep);
        res.squashed += discarded as u64;
        self.record(TraceEvent::Squash {
            cycle: self.cycle,
            cause,
            discarded,
        });
        self.rebuild_rename();
        // Restore fetch-time tx depth to the surviving prefix.
        self.tx_depth = self
            .rob
            .iter()
            .map(|e| match e.inst {
                Instruction::TxBegin => 1i64,
                Instruction::TxEnd => -1i64,
                _ => 0,
            })
            .sum::<i64>()
            .max(0) as usize;
    }

    fn undo_speculative_fill(&mut self, filled_line: Option<(u64, EvictedLine)>) {
        let Some((line, victim)) = filled_line else {
            return;
        };
        if !self.switch(Switch::CleanupSpec) {
            return;
        }
        self.cache.flush(line);
        if let Some((vbase, vdata)) = victim {
            self.cache.fill(vbase, vdata);
        }
    }

    fn rebuild_rename(&mut self) {
        let Machine { rob, rename, .. } = self;
        *rename = [None; Reg::COUNT];
        for e in rob.iter() {
            if let Some(d) = e.inst.destination() {
                if !d.is_zero() {
                    rename[d.index()] = Some(e.seq);
                }
            }
        }
        // Clear any fetch stall pointing at a squashed instruction.
        if let Some(s) = self.stalled_on {
            if self.entry_index(s).is_none() {
                self.stalled_on = None;
            }
        }
    }

    // ---------------- completion & resolution ----------------

    /// Completes every entry whose latency has elapsed. Returns whether any
    /// did.
    fn complete(&mut self, res: &mut RunResult) -> bool {
        let now = self.cycle;
        // Collect indices completing this cycle (oldest first) into reused
        // scratch storage — this runs every cycle and must not allocate.
        let mut completing = std::mem::take(&mut self.scratch_completing);
        completing.clear();
        completing.extend(
            self.rob
                .iter()
                .enumerate()
                .filter(
                    |(_, e)| matches!(e.state, EntryState::Executing { done_at } if done_at <= now),
                )
                .map(|(i, _)| i),
        );
        let any = !completing.is_empty();
        for idx in completing.drain(..) {
            // A squash triggered by an older completion may have removed
            // this entry; re-validate.
            if idx >= self.rob.len() {
                continue;
            }
            if !matches!(self.rob[idx].state, EntryState::Executing { done_at } if done_at <= now) {
                continue;
            }
            self.rob[idx].state = EntryState::Done;
            let inst = self.rob[idx].inst;
            match inst {
                Instruction::BranchIf { cond, target, .. } => {
                    self.resolve_branch(idx, cond, target, res);
                }
                Instruction::JumpIndirect { .. } => {
                    self.resolve_indirect(idx, res);
                }
                Instruction::Ret => {
                    self.resolve_ret(idx, res);
                }
                Instruction::Store { .. } => {
                    self.resolve_store(idx, res);
                }
                _ => {}
            }
        }
        self.scratch_completing = completing;
        any
    }

    /// All source values of the entry at `idx`, or `None` while any source
    /// is still pending. Slots beyond the instruction's source count hold
    /// `(0, false)`.
    fn src_values(&self, idx: usize) -> Option<[(u64, bool); MAX_SRCS]> {
        let mut out = [(0u64, false); MAX_SRCS];
        for (slot, s) in out.iter_mut().zip(self.rob[idx].srcs.iter()) {
            match *s {
                Src::Ready { value, tainted } => *slot = (value, tainted),
                Src::Pending { .. } => return None,
            }
        }
        Some(out)
    }

    fn resolve_branch(&mut self, idx: usize, cond: Cond, target: usize, res: &mut RunResult) {
        let vals = self
            .src_values(idx)
            .expect("branch executed with ready sources");
        let taken = cond.eval(vals[0].0, vals[1].0);
        let e = &self.rob[idx];
        let pc = e.pc;
        let seq = e.seq;
        let predicted_taken = e.predicted_taken;
        self.predictors.pht.update(pc, taken);
        if taken != predicted_taken {
            res.mispredictions += 1;
            let actual_next = if taken { target } else { pc + 1 };
            self.squash_after(seq, SquashCause::BranchMispredict, res);
            self.redirect_fetch(actual_next);
        }
    }

    fn resolve_indirect(&mut self, idx: usize, res: &mut RunResult) {
        let vals = self
            .src_values(idx)
            .expect("jmpi executed with ready sources");
        let actual = vals[0].0 as usize;
        let e = &self.rob[idx];
        let pc = e.pc;
        let seq = e.seq;
        let predicted = e.predicted_next;
        self.predictors.btb.update(pc, actual);
        match predicted {
            Some(p) if p == actual => {}
            Some(_) => {
                res.mispredictions += 1;
                self.squash_after(seq, SquashCause::TargetMispredict, res);
                self.redirect_fetch(actual);
            }
            None => {
                // Fetch was stalled on this instruction: resume.
                if self.stalled_on == Some(seq) {
                    self.redirect_fetch(actual);
                }
            }
        }
    }

    fn resolve_ret(&mut self, idx: usize, res: &mut RunResult) {
        let e = &self.rob[idx];
        let seq = e.seq;
        let predicted = e.predicted_next;
        // Rets only begin execution at the head (see `issue`), so the
        // architectural stack is up to date here.
        let actual = self.arch_stack.pop();
        match (predicted, actual) {
            (Some(p), Some(a)) if p == a => {}
            (Some(_), Some(a)) => {
                res.mispredictions += 1;
                self.squash_after(seq, SquashCause::ReturnMispredict, res);
                self.redirect_fetch(a);
            }
            (Some(_), None) => {
                // Return with empty architectural stack: treat as program
                // end — squash younger and stop fetching.
                res.mispredictions += 1;
                self.squash_after(seq, SquashCause::ReturnMispredict, res);
                self.fetch_pc = None;
            }
            (None, Some(a)) => {
                if self.stalled_on == Some(seq) {
                    self.redirect_fetch(a);
                }
            }
            (None, None) => {
                self.fetch_pc = None;
                self.stalled_on = None;
            }
        }
    }

    /// When a store's address resolves, check for younger loads that
    /// bypassed it and alias — the Spectre v4 authorization resolving
    /// negatively.
    fn resolve_store(&mut self, idx: usize, res: &mut RunResult) {
        let store_paddr = match self.rob[idx].paddr {
            Some(p) => p & !7,
            None => return,
        };
        let store_seq = self.rob[idx].seq;
        let aliased: Option<(u64, usize)> = self
            .rob
            .iter()
            .skip(idx + 1)
            .find(|e| {
                e.bypassed
                    && matches!(e.inst, Instruction::Load { .. })
                    && e.paddr.map(|p| p & !7) == Some(store_paddr)
            })
            .map(|e| (e.seq, e.pc));
        if let Some((load_seq, load_pc)) = aliased {
            res.mispredictions += 1;
            self.predictors.disambiguation.record_alias(load_pc);
            // Squash the load and everything younger; refetch from the load.
            self.squash_after(load_seq - 1, SquashCause::DisambiguationMispredict, res);
            self.redirect_fetch(load_pc);
            let _ = store_seq;
        }
    }

    /// Broadcasts completed results to consumers, honoring the NDA gate.
    /// Returns whether any entry broadcast.
    fn broadcast_ready(&mut self) -> bool {
        let n = self.rob.len();
        let mut any = false;
        for i in 0..n {
            if !self.rob[i].done() || self.rob[i].broadcast {
                continue;
            }
            if self.rob[i].inst.destination().is_none() {
                self.rob[i].broadcast = true;
                any = true;
                continue;
            }
            // NDA (strategy ②): results of speculatively-executed loads are
            // withheld from consumers until the load is non-speculative.
            if self.rob[i].spec_load
                && (self.rob[i].fault.is_some() || self.is_speculative(i))
                && self.switch(Switch::Nda)
            {
                if !self.rob[i].blocked_reported {
                    self.rob[i].blocked_reported = true;
                    let (cycle, pc) = (self.cycle, self.rob[i].pc);
                    self.record(TraceEvent::DefenseBlocked {
                        cycle,
                        pc,
                        defense: "nda",
                    });
                }
                continue;
            }
            let seq = self.rob[i].seq;
            let value = self.rob[i].result;
            let tainted = self.rob[i].tainted;
            for j in (i + 1)..n {
                for s in &mut self.rob[j].srcs {
                    if let Src::Pending { producer } = *s {
                        if producer == seq {
                            *s = Src::Ready { value, tainted };
                        }
                    }
                }
            }
            self.rob[i].broadcast = true;
            any = true;
        }
        any
    }

    // ---------------- issue (begin execution) ----------------

    /// Begins execution of up to `issue_width` ready entries, oldest first.
    /// Returns whether any began.
    fn issue(&mut self, res: &mut RunResult) -> bool {
        let mut started = 0usize;
        let mut idx = 0usize;
        while idx < self.rob.len() && started < self.cfg.issue_width {
            if self.rob[idx].state != EntryState::Waiting {
                idx += 1;
                continue;
            }
            if self.fence_blocked(idx) {
                idx += 1;
                continue;
            }
            if self.try_start(idx, res) {
                started += 1;
            }
            idx += 1;
        }
        started > 0
    }

    /// Attempts to begin execution of the entry at `idx`. Returns whether it
    /// started.
    #[allow(clippy::too_many_lines)]
    fn try_start(&mut self, idx: usize, res: &mut RunResult) -> bool {
        let inst = self.rob[idx].inst;
        let Some(vals) = self.src_values(idx) else {
            return false;
        };
        let any_tainted = vals.iter().any(|&(_, t)| t);
        let now = self.cycle;

        // STT (strategy ③, prevent send): *transmitters* with tainted operands
        // wait until they are non-speculative. Arithmetic on tainted data is
        // allowed — that is STT's performance advantage over NDA.
        let is_transmitter = matches!(
            inst,
            Instruction::Load { .. } | Instruction::Store { .. } | Instruction::JumpIndirect { .. }
        );
        if is_transmitter && any_tainted && self.is_speculative(idx) && self.switch(Switch::Stt) {
            self.report_blocked(idx, "stt");
            return false;
        }

        match inst {
            Instruction::Imm { value, .. } => {
                self.start(idx, self.cfg.alu_latency, value, false);
                true
            }
            Instruction::Alu { op, b, .. } => {
                let a = vals[0].0;
                let bv = match b {
                    Operand::Reg(_) => vals[1].0,
                    Operand::Imm(v) => v,
                };
                let lat = if op == isa::AluOp::Mul {
                    self.cfg.mul_latency
                } else {
                    self.cfg.alu_latency
                };
                self.start(idx, lat, op.apply(a, bv), any_tainted);
                true
            }
            Instruction::Nop | Instruction::TxBegin | Instruction::TxEnd => {
                self.start(idx, 1, 0, false);
                true
            }
            Instruction::Halt | Instruction::Jump { .. } | Instruction::Call { .. } => {
                self.start(idx, 1, 0, false);
                true
            }
            Instruction::Fence(kind) => {
                // LFENCE completes when all older instructions are done;
                // MFENCE when all older memory ops are done; SSBB completes
                // immediately (its effect is a standing order on loads).
                let ready = match kind {
                    FenceKind::LFence => self.rob.iter().take(idx).all(Entry::done),
                    FenceKind::MFence => self
                        .rob
                        .iter()
                        .take(idx)
                        .all(|e| !e.inst.is_memory() || e.done()),
                    FenceKind::Ssbb => true,
                };
                if ready {
                    self.start(idx, 1, 0, false);
                    true
                } else {
                    false
                }
            }
            Instruction::BranchIf { .. } => {
                self.start(idx, self.cfg.branch_latency, 0, false);
                true
            }
            Instruction::JumpIndirect { .. } => {
                self.start(idx, self.cfg.branch_latency, 0, false);
                true
            }
            Instruction::Ret => {
                // Returns resolve against the architectural stack, so they
                // execute only once they are the oldest in-flight
                // instruction.
                if idx == 0 {
                    self.start(idx, self.cfg.branch_latency, 0, false);
                    true
                } else {
                    false
                }
            }
            Instruction::ReadTime { .. } => {
                // rdtsc is serializing: executes at the head only.
                if idx == 0 {
                    let cyc = self.cycle;
                    self.start(idx, 1, cyc, false);
                    true
                } else {
                    false
                }
            }
            Instruction::CacheFlush { offset, .. } => {
                // clflush is ordered: performed when all older instructions
                // have completed (it is never executed transiently here).
                if !self.rob.iter().take(idx).all(Entry::done) {
                    return false;
                }
                let vaddr = vals[0].0.wrapping_add(offset as u64);
                let tr = self.translate(vaddr, false, self.privilege());
                if let Some(paddr) = tr.paddr {
                    self.cache.flush(paddr);
                }
                self.rob[idx].fault = tr.fault;
                self.start(idx, 1, 0, false);
                true
            }
            Instruction::ReadMsr { msr, .. } => {
                self.start_msr_read(idx, msr.0);
                true
            }
            Instruction::FpMove { fsrc, .. } => {
                self.start_fp_move(idx, fsrc.index());
                true
            }
            Instruction::Store { offset, .. } => {
                let value = vals[0].0;
                let base = vals[1].0;
                let vaddr = base.wrapping_add(offset as u64);
                let tr = self.translate(vaddr, true, self.privilege());
                self.rob[idx].paddr = tr.paddr.or(Some(0));
                self.rob[idx].store_value = value;
                self.rob[idx].fault = tr.fault;
                self.rob[idx].tainted = any_tainted;
                let lat = self.cfg.alu_latency + self.cfg.translation_latency;
                self.rob[idx].state = EntryState::Executing { done_at: now + lat };
                // The store's address is now known: check immediately for
                // younger loads that bypassed it and alias (the Spectre v4
                // authorization resolving negatively). Real pipelines run
                // this check at store-address generation, not completion.
                self.resolve_store(idx, res);
                true
            }
            Instruction::Load { offset, .. } => self.start_load(idx, vals[0], offset),
        }
    }

    fn report_blocked(&mut self, idx: usize, defense: &'static str) {
        if !self.rob[idx].blocked_reported {
            self.rob[idx].blocked_reported = true;
            let (cycle, pc) = (self.cycle, self.rob[idx].pc);
            self.record(TraceEvent::DefenseBlocked { cycle, pc, defense });
        }
    }

    fn start(&mut self, idx: usize, latency: u64, result: u64, tainted: bool) {
        let now = self.cycle;
        let e = &mut self.rob[idx];
        e.result = result;
        e.tainted = tainted;
        e.state = EntryState::Executing {
            done_at: now + latency.max(1),
        };
    }

    fn start_msr_read(&mut self, idx: usize, msr: u32) {
        let privileged = self.privilege() == Privilege::Kernel;
        let value = self.msr(msr);
        let lat = self.cfg.msr_read_latency;
        if privileged {
            self.start(idx, lat, value, false);
            return;
        }
        // Spectre v3a: the privilege check (authorization) is slower than
        // the register read (access); on the vulnerable baseline the value
        // is transiently forwarded.
        self.rob[idx].fault = Some(Fault::MsrPrivilege { msr });
        let forward =
            self.switch(Switch::TransientForwarding) && !self.switch(Switch::EagerPermissionCheck);
        let (v, lat) = if forward {
            (value, lat)
        } else {
            (0, lat + self.cfg.permission_check_latency)
        };
        if forward {
            let (cycle, pc) = (self.cycle, self.rob[idx].pc);
            self.record(TraceEvent::TransientForward {
                cycle,
                pc,
                source: TransientSource::SpecialRegister,
                value: v,
            });
        }
        self.start(idx, lat, v, true);
        self.rob[idx].fault = Some(Fault::MsrPrivilege { msr });
        self.rob[idx].spec_load = true;
        self.rob[idx].retire_not_before = self.cycle + self.cfg.permission_check_latency;
    }

    fn start_fp_move(&mut self, idx: usize, fidx: usize) {
        let lat = self.cfg.fp_latency;
        if self.fpu.owned_by(self.current) {
            let v = self.fpu.read_physical(fidx);
            self.start(idx, lat, v, false);
            return;
        }
        // Lazy FP: the FPU-owner check (authorization) races with the
        // physical register read (access).
        self.rob[idx].fault = Some(Fault::FpUnavailable);
        let forward = self.switch(Switch::LazyFpu)
            && self.switch(Switch::TransientForwarding)
            && !self.switch(Switch::EagerPermissionCheck);
        let v = if forward {
            self.fpu.read_physical(fidx)
        } else {
            0
        };
        if forward {
            let (cycle, pc) = (self.cycle, self.rob[idx].pc);
            self.record(TraceEvent::TransientForward {
                cycle,
                pc,
                source: TransientSource::Fpu,
                value: v,
            });
        }
        self.start(idx, lat, v, true);
        self.rob[idx].fault = Some(Fault::FpUnavailable);
        self.rob[idx].spec_load = true;
        self.rob[idx].retire_not_before = self.cycle + self.cfg.permission_check_latency;
    }

    /// The load path: translation, authorization, store-buffer search,
    /// disambiguation, cache access, transient forwarding. Returns whether
    /// execution began.
    #[allow(clippy::too_many_lines)]
    fn start_load(&mut self, idx: usize, base: (u64, bool), offset: i64) -> bool {
        let speculative = self.is_speculative(idx);
        let pc = self.rob[idx].pc;
        let tainted_addr = base.1;

        // Strategy ① (inter-instruction): no load issues while speculative.
        if speculative && self.switch(Switch::NoSpeculativeLoads) {
            self.report_blocked(idx, "no-speculative-loads");
            return false;
        }

        let vaddr = base.0.wrapping_add(offset as u64);
        let tr = self.translate(vaddr, false, self.privilege());

        // ---- Faulting access: the Meltdown-type intra-instruction race ----
        if let Some(fault) = tr.fault {
            self.rob[idx].fault = Some(fault);
            self.rob[idx].paddr = tr.paddr;
            let base_lat = self.cfg.translation_latency + self.cfg.cache_hit_latency;
            if self.switch(Switch::EagerPermissionCheck) {
                // Strategy ① (intra-instruction): authorization completes
                // before any data moves — nothing is forwarded.
                let lat = base_lat + self.cfg.permission_check_latency;
                self.report_blocked(idx, "eager-permission-check");
                self.start(idx, lat, 0, false);
                self.rob[idx].fault = Some(fault);
                self.rob[idx].retire_not_before = self.cycle + lat;
                return true;
            }
            let (value, source) = self.transient_value(fault, tr.paddr, vaddr);
            if let Some(src) = source {
                self.record(TraceEvent::TransientForward {
                    cycle: self.cycle,
                    pc,
                    source: src,
                    value,
                });
            }
            self.start(idx, base_lat, value, true);
            self.rob[idx].fault = Some(fault);
            self.rob[idx].spec_load = true;
            self.rob[idx].paddr = tr.paddr;
            self.rob[idx].retire_not_before =
                self.cycle + self.cfg.translation_latency + self.cfg.permission_check_latency;
            return true;
        }

        let paddr = tr.paddr.expect("no fault implies a physical address");
        self.rob[idx].paddr = Some(paddr);

        // ---- Store-buffer search among older in-flight stores ----
        let mut forward_from: Option<u64> = None;
        let mut unresolved_older_store = false;
        for e in self.rob.iter().take(idx) {
            if !e.is_store() {
                continue;
            }
            match e.paddr {
                Some(sp) if sp & !7 == paddr & !7 => forward_from = Some(e.store_value),
                Some(_) => {}
                None => unresolved_older_store = true,
            }
        }
        if let Some(v) = forward_from {
            // Most-recent matching store wins (we scanned oldest→youngest,
            // overwriting). Store-to-load forwarding.
            self.record(TraceEvent::StoreToLoadForward {
                cycle: self.cycle,
                pc,
                paddr,
            });
            let lat = self.cfg.translation_latency + self.cfg.stl_forward_latency;
            self.start(idx, lat, v, tainted_addr || speculative);
            self.rob[idx].spec_load = speculative;
            if speculative {
                self.record(TraceEvent::SpeculativeExecute {
                    cycle: self.cycle,
                    pc,
                });
            }
            return true;
        }
        if unresolved_older_store {
            // Memory disambiguation: may the load bypass?
            let barrier = self.ssbb_pending(idx) || self.switch(Switch::SsbDisable);
            if barrier || !self.predictors.disambiguation.may_bypass(pc) {
                if barrier {
                    self.report_blocked(idx, "ssb-disable");
                }
                return false; // wait for the store address to resolve
            }
            self.rob[idx].bypassed = true;
            self.record(TraceEvent::DisambiguationBypass {
                cycle: self.cycle,
                pc,
            });
        }

        // ---- Cache / memory access ----
        let hit = self.cache.contains(paddr);
        if !hit && speculative && self.switch(Switch::DelayOnMiss) {
            // Strategy ③ (Conditional Speculation / DoM): speculative
            // misses wait; speculative hits proceed (no state change).
            self.report_blocked(idx, "delay-on-miss");
            return false;
        }

        let value;
        let lat;
        if hit {
            value = self.cache.lookup(paddr).expect("hit");
            lat = self.cfg.translation_latency + self.cfg.cache_hit_latency;
        } else {
            value = self.memory.read_u64(paddr);
            lat = self.cfg.translation_latency + self.cfg.cache_miss_latency;
            if speculative && self.switch(Switch::InvisibleSpec) {
                // Strategy ③ (InvisiSpec/SafeSpec): data returns but the
                // fill is deferred to commit.
                self.rob[idx].deferred_fill = Some(paddr);
                self.report_blocked(idx, "invisible-spec");
            } else {
                let line = paddr & !(LINE_SIZE - 1);
                let was_present = self.cache.contains(line);
                let data = self.memory.read_line(line);
                self.lfb.push(LfbEntry { base: line, data });
                let evicted = self.cache.fill(line, data);
                if speculative {
                    self.record(TraceEvent::SpeculativeFill {
                        cycle: self.cycle,
                        line,
                    });
                    if !was_present && self.switch(Switch::CleanupSpec) {
                        self.rob[idx].filled_line = Some((line, evicted));
                    }
                }
            }
        }
        self.load_ports.push(value);
        if speculative {
            self.record(TraceEvent::SpeculativeExecute {
                cycle: self.cycle,
                pc,
            });
        }
        self.start(idx, lat, value, tainted_addr || speculative);
        self.rob[idx].spec_load = speculative;
        true
    }

    /// What a *faulting* load transiently forwards on the vulnerable
    /// baseline, per Figure 4 of the paper: L1 for terminal faults
    /// (Foreshadow), memory for privilege faults (Meltdown), and the leaky
    /// buffers for hard faults (MDS: Fallout → store buffer, ZombieLoad /
    /// RIDL → line fill buffer, RIDL → load port).
    fn transient_value(
        &mut self,
        fault: Fault,
        paddr: Option<u64>,
        vaddr: u64,
    ) -> (u64, Option<TransientSource>) {
        match fault {
            Fault::PageNotPresent { .. } | Fault::ReservedBitSet { .. } => {
                // Terminal fault: the stale frame bits address the L1.
                if let Some(p) = paddr {
                    if self.cache.contains(p) && self.switch(Switch::L1tfForwarding) {
                        let v = self.cache.lookup(p).expect("contains");
                        return (v, Some(TransientSource::Cache));
                    }
                }
                self.mds_sample(vaddr)
            }
            Fault::PrivilegeViolation { .. } | Fault::WriteToReadOnly { .. } => {
                if let Some(p) = paddr.filter(|_| self.switch(Switch::TransientForwarding)) {
                    // Meltdown: the data path completes from cache or
                    // memory while the privilege check is still pending.
                    if self.cache.contains(p) {
                        let v = self.cache.lookup(p).expect("contains");
                        return (v, Some(TransientSource::Cache));
                    }
                    // §V-B insufficiency example: a defense that added the
                    // security dependency only on the memory datapath
                    // blocks this branch — but not the cache branch above.
                    if !self.switch(Switch::MeltdownFixMemoryPathOnly) {
                        let v = self.memory.read_u64(p);
                        // The transient access itself fills the cache.
                        self.fill_line(p);
                        return (v, Some(TransientSource::Memory));
                    }
                    return (0, None);
                }
                self.mds_sample(vaddr)
            }
            _ => self.mds_sample(vaddr),
        }
    }

    fn mds_sample(&self, vaddr: u64) -> (u64, Option<TransientSource>) {
        let (v, source) = if let Some(v) = self.store_buffer.sample_by_offset(vaddr % PAGE_SIZE) {
            (v, TransientSource::StoreBuffer)
        } else if let Some(v) = self.lfb.sample(vaddr % LINE_SIZE) {
            (v, TransientSource::LineFillBuffer)
        } else if let Some(&v) = self.load_ports.newest() {
            (v, TransientSource::LoadPort)
        } else {
            // Nothing to forward, whatever the switch says.
            return (0, None);
        };
        if !self.switch(Switch::MdsForwarding) {
            return (0, None);
        }
        (v, Some(source))
    }

    // ---------------- fetch ----------------

    /// Resolves one source register against the rename table / committed
    /// register file at fetch time.
    fn resolve_src(&self, r: Reg) -> Src {
        if r.is_zero() {
            return Src::Ready {
                value: 0,
                tainted: false,
            };
        }
        match self.rename[r.index()] {
            Some(producer) => {
                // If the producer has already broadcast, read its value
                // directly.
                if let Some(pi) = self.entry_index(producer) {
                    let p = &self.rob[pi];
                    if p.done() && p.broadcast {
                        return Src::Ready {
                            value: p.result,
                            tainted: p.tainted,
                        };
                    }
                } else {
                    // The rename table never outlives its producer
                    // (retire/squash both clear it), so a missing producer
                    // is unreachable; fall back to the committed value
                    // defensively.
                    debug_assert!(false, "rename outlived producer {producer}");
                    return Src::Ready {
                        value: self.reg(r),
                        tainted: false,
                    };
                }
                Src::Pending { producer }
            }
            None => Src::Ready {
                value: self.reg(r),
                tainted: false,
            },
        }
    }

    fn fetch(&mut self, program: &Program) {
        for _ in 0..self.cfg.fetch_width {
            if self.stalled_on.is_some() {
                return;
            }
            let Some(pc) = self.fetch_pc else { return };
            if self.rob.len() >= self.cfg.rob_capacity {
                return;
            }
            let Some(&inst) = program.get(pc) else {
                // Ran off the program end.
                self.fetch_pc = None;
                return;
            };
            let seq = self.next_seq;
            self.next_seq += 1;

            // Resolve sources against the rename table / committed regfile,
            // into the entry's inline slots (no allocation).
            let (src_regs, nsrcs) = inst.sources_fixed();
            let mut srcs = [Src::Ready {
                value: 0,
                tainted: false,
            }; MAX_SRCS];
            for (slot, &r) in srcs.iter_mut().zip(src_regs.iter()).take(nsrcs) {
                *slot = self.resolve_src(r);
            }

            let mut entry = Entry {
                seq,
                pc,
                inst,
                srcs,
                state: EntryState::Waiting,
                result: 0,
                tainted: false,
                spec_load: false,
                broadcast: false,
                fault: None,
                predicted_next: None,
                predicted_taken: false,
                paddr: None,
                store_value: 0,
                bypassed: false,
                filled_line: None,
                deferred_fill: None,
                in_tx: self.tx_depth > 0,
                blocked_reported: false,
                retire_not_before: 0,
            };

            // Fetch-direction decisions.
            match inst {
                Instruction::BranchIf { target, .. } => {
                    let taken = self.predictors.pht.predict(pc);
                    entry.predicted_taken = taken;
                    let next = if taken { target } else { pc + 1 };
                    entry.predicted_next = Some(next);
                    self.fetch_pc = Some(next);
                }
                Instruction::Jump { target } => {
                    entry.predicted_next = Some(target);
                    self.fetch_pc = Some(target);
                }
                Instruction::JumpIndirect { .. } => {
                    let predicted = self
                        .predictors
                        .btb
                        .predict(pc)
                        .filter(|_| !self.switch(Switch::NoIndirectPrediction));
                    entry.predicted_next = predicted;
                    match predicted {
                        Some(t) => self.fetch_pc = Some(t),
                        None => {
                            self.fetch_pc = None;
                            self.stalled_on = Some(seq);
                        }
                    }
                }
                Instruction::Call { target } => {
                    self.predictors.rsb.push(pc + 1);
                    entry.predicted_next = Some(target);
                    self.fetch_pc = Some(target);
                }
                Instruction::Ret => {
                    // On RSB underflow real front-ends fall back to the
                    // indirect-branch predictor — the Retbleed/BHI root
                    // cause: the *untagged, shared* BTB then supplies the
                    // return target, so cross-context training reaches
                    // returns too. Retpoline-style `no_indirect_prediction`
                    // also disables this fallback.
                    let predicted = self.predictors.rsb.pop().or_else(|| {
                        self.predictors
                            .btb
                            .predict(pc)
                            .filter(|_| !self.switch(Switch::NoIndirectPrediction))
                    });
                    entry.predicted_next = predicted;
                    match predicted {
                        Some(t) => self.fetch_pc = Some(t),
                        None => {
                            self.fetch_pc = None;
                            self.stalled_on = Some(seq);
                        }
                    }
                }
                Instruction::Halt => {
                    self.fetch_pc = None;
                }
                Instruction::TxBegin => {
                    self.tx_depth += 1;
                    entry.in_tx = true;
                    self.fetch_pc = Some(pc + 1);
                }
                Instruction::TxEnd => {
                    self.tx_depth = self.tx_depth.saturating_sub(1);
                    self.fetch_pc = Some(pc + 1);
                }
                _ => {
                    self.fetch_pc = Some(pc + 1);
                }
            }

            if let Some(dst) = inst.destination() {
                if !dst.is_zero() {
                    self.rename[dst.index()] = Some(seq);
                }
            }
            self.rob.push_back(entry);
        }
    }
}

/// Computes, for each `TxBegin` pc, the pc to resume at after an abort
/// (the instruction following the matching `TxEnd`; program end if
/// unmatched). Fills caller-provided storage so per-run invocations reuse
/// capacity instead of allocating.
fn compute_tx_fallbacks_into(
    program: &Program,
    out: &mut SmallMap<usize, usize>,
    stack: &mut Vec<usize>,
) {
    out.clear();
    stack.clear();
    for (pc, inst) in program.iter() {
        match inst {
            Instruction::TxBegin => stack.push(pc),
            Instruction::TxEnd => {
                if let Some(begin) = stack.pop() {
                    out.insert(begin, pc + 1);
                }
            }
            _ => {}
        }
    }
    for begin in stack.drain(..) {
        out.insert(begin, program.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AluOp, ProgramBuilder};

    fn machine() -> Machine {
        Machine::new(UarchConfig::default())
    }

    #[test]
    fn straightline_arithmetic() {
        let mut m = machine();
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 6)
            .imm(Reg::R1, 7)
            .alu(AluOp::Mul, Reg::R2, Reg::R0, Reg::R1)
            .alu_imm(AluOp::Add, Reg::R2, Reg::R2, 100)
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(r.retired, 5);
        assert_eq!(m.reg(Reg::R2), 142);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = machine();
        m.map_user_page(0x1000).unwrap();
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x1000)
            .imm(Reg::R1, 0xabcd)
            .store(Reg::R1, Reg::R0, 8)
            .load(Reg::R2, Reg::R0, 8)
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R2), 0xabcd);
        assert_eq!(m.read_u64(0x1008).unwrap(), 0xabcd);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut m = machine();
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 5)
            .imm(Reg::R1, 0)
            .label("loop")
            .unwrap()
            .alu_imm(AluOp::Add, Reg::R1, Reg::R1, 3)
            .alu_imm(AluOp::Sub, Reg::R0, Reg::R0, 1)
            .branch_if(Cond::Ne, Reg::R0, Reg::ZERO, "loop")
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R1), 15);
        // The backward branch mispredicts at least once (predicted
        // not-taken initially), producing squashes.
        assert!(r.mispredictions >= 1);
    }

    #[test]
    fn kernel_load_faults_in_user_mode() {
        let mut m = machine();
        m.map_kernel_page(0x2000).unwrap();
        m.write_u64(0x2000, 0x5ec).unwrap();
        m.set_privilege(Privilege::User);
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x2000)
            .load(Reg::R1, Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(!r.halted);
        assert_eq!(r.faults.len(), 1);
        assert!(matches!(r.faults[0], Fault::PrivilegeViolation { .. }));
        // The architectural register was never written.
        assert_eq!(m.reg(Reg::R1), 0);
        // But the transient forward happened (vulnerable baseline).
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::TransientForward { value: 0x5ec, .. })));
    }

    #[test]
    fn fault_handler_resumes() {
        let mut m = machine();
        m.map_kernel_page(0x2000).unwrap();
        m.set_privilege(Privilege::User);
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x2000)
            .load(Reg::R1, Reg::R0, 0)
            .halt() // skipped by handler
            .label("handler")
            .unwrap()
            .imm(Reg::R2, 99)
            .halt()
            .build()
            .unwrap();
        m.set_exception_behavior(ExceptionBehavior::Handler(p.label("handler").unwrap()));
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R2), 99);
        assert_eq!(r.faults.len(), 1);
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut m = Machine::new(UarchConfig::builder().max_cycles(100).build());
        let p = ProgramBuilder::new()
            .label("spin")
            .unwrap()
            .jump("spin")
            .halt()
            .build()
            .unwrap();
        assert_eq!(
            m.run(&p).unwrap_err(),
            UarchError::CycleLimitExceeded { limit: 100 }
        );
        assert_eq!(m.cycle(), 100);

        // A limit that falls inside a long wait (a cache miss): the error
        // and the clock are the same whether or not idle cycles are walked.
        let mut m = Machine::new(UarchConfig::builder().max_cycles(20).build());
        m.map_user_page(0x7000).unwrap();
        // Two dependent misses: the first run stops inside the first, the
        // second run (first line now cached) inside the second.
        let p = ProgramBuilder::new()
            .imm(Reg::R1, 0x7000)
            .load(Reg::R2, Reg::R1, 0)
            .alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R1)
            .load(Reg::R4, Reg::R3, 64)
            .halt()
            .build()
            .unwrap();
        assert_eq!(
            m.run(&p).unwrap_err(),
            UarchError::CycleLimitExceeded { limit: 20 }
        );
        assert_eq!(m.cycle(), 20);
        assert_eq!(
            m.run(&p).unwrap_err(),
            UarchError::CycleLimitExceeded { limit: 20 }
        );
        assert_eq!(m.cycle(), 40);
    }

    #[test]
    fn lfence_orders_execution() {
        // Without the fence, the load executes under the unresolved branch;
        // with it, it waits (we observe via SpeculativeExecute events).
        let mk = |fenced: bool| {
            let mut m = machine();
            m.map_user_page(0x1000).unwrap();
            m.map_user_page(0x8000).unwrap();
            // Slow source for the branch condition: an uncached load.
            m.write_u64(0x1000, 1).unwrap();
            let mut b = ProgramBuilder::new()
                .imm(Reg::R0, 0x1000)
                .load(Reg::R1, Reg::R0, 0) // slow (miss)
                .branch_if(Cond::Eq, Reg::R1, Reg::ZERO, "out");
            if fenced {
                b = b.fence(FenceKind::LFence);
            }
            let p = b
                .imm(Reg::R2, 0x8000)
                .load(Reg::R3, Reg::R2, 0)
                .label("out")
                .unwrap()
                .halt()
                .build()
                .unwrap();
            m.run(&p).unwrap();
            m.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::SpeculativeExecute { .. }))
        };
        assert!(mk(false), "baseline: load executes speculatively");
        assert!(!mk(true), "lfence: no speculative execution");
    }

    #[test]
    fn timed_read_distinguishes_hit_from_miss() {
        let mut m = machine();
        m.map_user_page(0x3000).unwrap();
        let miss = m.timed_read(0x3000).unwrap();
        let hit = m.timed_read(0x3000).unwrap();
        assert_eq!((hit, miss), m.cache_latencies());
    }

    #[test]
    fn context_switch_flushes_predictors_when_configured() {
        let mut m = Machine::new(
            UarchConfig::builder()
                .flush_predictors_on_switch(true)
                .build(),
        );
        let other = m.add_context(Privilege::User, ExceptionBehavior::Halt);
        m.predictors.btb.update(3, 7);
        m.switch_context(other).unwrap();
        assert!(m.predictors().btb.is_empty());
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::PredictorsFlushed { .. })));
    }

    #[test]
    fn unknown_context_rejected() {
        let mut m = machine();
        assert_eq!(
            m.switch_context(ContextId(9)).unwrap_err(),
            UarchError::UnknownContext(9)
        );
    }

    #[test]
    fn tx_abort_suppresses_fault_and_resumes_after_txend() {
        let mut m = machine();
        m.map_kernel_page(0x2000).unwrap();
        m.set_privilege(Privilege::User);
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x2000)
            .tx_begin()
            .load(Reg::R1, Reg::R0, 0) // faults inside the transaction
            .tx_end()
            .imm(Reg::R2, 7) // resumed here after abort
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(r.tx_aborts, 1);
        assert!(r.faults.is_empty(), "fault suppressed by TSX abort");
        assert_eq!(m.reg(Reg::R2), 7);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut m = machine();
        let p = ProgramBuilder::new()
            .call("fn")
            .imm(Reg::R1, 2)
            .halt()
            .label("fn")
            .unwrap()
            .imm(Reg::R0, 1)
            .ret()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R0), 1);
        assert_eq!(m.reg(Reg::R1), 2);
    }

    #[test]
    fn rdtsc_monotonic() {
        let mut m = machine();
        let p = ProgramBuilder::new()
            .rdtsc(Reg::R0)
            .rdtsc(Reg::R1)
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        assert!(m.reg(Reg::R1) > m.reg(Reg::R0));
    }

    #[test]
    fn clflush_evicts() {
        let mut m = machine();
        m.map_user_page(0x4000).unwrap();
        m.touch(0x4000).unwrap();
        assert!(m.cache_contains(0x4000).unwrap());
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x4000)
            .clflush(Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        assert!(!m.cache_contains(0x4000).unwrap());
    }

    #[test]
    fn msr_read_privileged_ok_unprivileged_faults() {
        let mut m = machine();
        m.set_msr(0x10, 0x1234);
        let p = ProgramBuilder::new()
            .rdmsr(Reg::R0, isa::Msr(0x10))
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R0), 0x1234);

        m.set_privilege(Privilege::User);
        m.set_reg(Reg::R0, 0);
        let r = m.run(&p).unwrap();
        assert!(!r.halted);
        assert!(matches!(r.faults[0], Fault::MsrPrivilege { .. }));
        assert_eq!(m.reg(Reg::R0), 0, "architectural value never written");
    }

    #[test]
    fn store_to_load_forwarding_in_flight() {
        let mut m = machine();
        m.map_user_page(0x5000).unwrap();
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x5000)
            .imm(Reg::R1, 77)
            .store(Reg::R1, Reg::R0, 0)
            .load(Reg::R2, Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.reg(Reg::R2), 77);
    }

    #[test]
    fn fp_move_lazy_fault_then_switch() {
        let mut m = machine();
        let victim = m.current_context();
        let attacker = m.add_context(Privilege::User, ExceptionBehavior::Halt);
        m.set_fpu_reg(victim, 0, 0xfeed);
        m.switch_context(attacker).unwrap();
        let p = ProgramBuilder::new()
            .fpmov(Reg::R0, isa::FReg::new(0))
            .halt()
            .build()
            .unwrap();
        let r = m.run(&p).unwrap();
        // Transient forward of the victim's value happened…
        assert!(m.events().iter().any(|e| matches!(
            e,
            TraceEvent::TransientForward {
                source: TransientSource::Fpu,
                value: 0xfeed,
                ..
            }
        )));
        // …the fault triggered the eager switch, and re-execution read 0.
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R0), 0);
        assert!(r.faults.contains(&Fault::FpUnavailable));
    }

    #[test]
    fn implicit_halt_at_program_end() {
        let mut m = machine();
        let p = ProgramBuilder::new().imm(Reg::R0, 5).build().unwrap();
        let r = m.run(&p).unwrap();
        assert!(r.halted);
        assert_eq!(m.reg(Reg::R0), 5);
    }

    #[test]
    fn tx_fallback_computation() {
        let p = ProgramBuilder::new()
            .tx_begin() // 0
            .nop() // 1
            .tx_end() // 2
            .tx_begin() // 3 (unmatched)
            .nop() // 4
            .build()
            .unwrap();
        let mut f = SmallMap::new();
        let mut stack = Vec::new();
        compute_tx_fallbacks_into(&p, &mut f, &mut stack);
        assert_eq!(f.get(&0), Some(&3));
        assert_eq!(f.get(&3), Some(&5)); // program end
    }

    #[test]
    fn reset_equals_new_observationally() {
        let run_attack_shape = |m: &mut Machine| {
            m.map_user_page(0x1000).unwrap();
            m.map_kernel_page(0x2000).unwrap();
            m.write_u64(0x2000, 0xa7).unwrap();
            m.set_privilege(Privilege::User);
            let p = ProgramBuilder::new()
                .imm(Reg::R0, 0x2000)
                .load(Reg::R1, Reg::R0, 0)
                .halt()
                .build()
                .unwrap();
            let r = m.run(&p).unwrap();
            (
                r,
                m.events().to_vec(),
                m.cycle(),
                m.cache().resident_lines(),
            )
        };
        let mut fresh = Machine::new(UarchConfig::default());
        let baseline = run_attack_shape(&mut fresh);

        // Dirty a machine with a different config and program, then reset.
        let mut warm = Machine::new(UarchConfig::builder().cache_sets(8).nda(true).build());
        let _ = run_attack_shape(&mut warm);
        warm.reset(&UarchConfig::default());
        assert_eq!(warm.cycle(), 0);
        assert_eq!(warm.events().len(), 0);
        let again = run_attack_shape(&mut warm);
        assert_eq!(again, baseline);
    }

    #[test]
    fn consulted_switches_are_what_the_run_read() {
        let dawg = Switches::NONE.with(Switch::Dawg);
        let mut m = machine();
        assert_eq!(m.consulted(), dawg, "the cache takes dawg at reset");
        // A kernel mapping reads kpti; a faulting user load reads the
        // forwarding switches; an unspeculative load reads no defense.
        m.map_kernel_page(0x2000).unwrap();
        m.set_privilege(Privilege::User);
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x2000)
            .load(Reg::R1, Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        let read = m.consulted();
        for s in [
            Switch::Kpti,
            Switch::EagerPermissionCheck,
            Switch::TransientForwarding,
        ] {
            assert!(read.contains(s), "{s}");
        }
        for s in [
            Switch::NoSpeculativeLoads,
            Switch::Stt,
            Switch::NoIndirectPrediction,
        ] {
            assert!(!read.contains(s), "{s}");
        }
        let _ = m.cache_latencies();
        assert_eq!(m.consulted(), read, "latencies are no switch");
        m.reset(&UarchConfig::default());
        assert_eq!(m.consulted(), dawg);
    }

    #[test]
    fn reset_adopts_new_geometry() {
        let mut m = Machine::new(UarchConfig::default());
        m.map_user_page(0x1000).unwrap();
        m.touch(0x1000).unwrap();
        let cfg = UarchConfig::builder().cache_sets(4).cache_ways(2).build();
        m.reset(&cfg);
        assert_eq!(m.cache().set_count(), 4);
        assert_eq!(m.cache().way_count(), 2);
        assert!(m.cache().resident_lines().is_empty());
        // The old mapping is gone.
        assert!(m.read_u64(0x1000).is_err());
    }

    #[test]
    fn event_log_capacity_from_config_and_reset_safe_drop_count() {
        let mut m = Machine::new(UarchConfig::builder().max_events(2).build());
        m.map_kernel_page(0x2000).unwrap();
        m.set_privilege(Privilege::User);
        let p = ProgramBuilder::new()
            .imm(Reg::R0, 0x2000)
            .load(Reg::R1, Reg::R0, 0)
            .halt()
            .build()
            .unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.events().len(), 2);
        assert!(m.events_dropped() > 0);
        m.clear_events();
        assert_eq!(m.events_dropped(), 0);
        m.reset(&UarchConfig::builder().max_events(2).build());
        assert_eq!(m.events_dropped(), 0);
        assert!(m.events().is_empty());
    }
}
