//! Machine configuration: sizes, latencies, vulnerability and defense knobs.

/// Complete configuration of a [`Machine`](crate::Machine).
///
/// The defaults model a *vulnerable* baseline processor: speculative loads
/// execute before authorization resolves, faulting loads transiently forward
/// data, the cache is not rolled back on squash, and predictors are shared
/// across contexts. Each defense strategy of the paper's Figure 8 maps to a
/// knob here (see the builder methods).
///
/// Construct via [`UarchConfig::builder`] or use `Default`. Every field
/// is an integer or a bool, so `Eq + Hash` compare whole machines exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UarchConfig {
    // ---- capacity ----
    /// Re-order buffer capacity in instructions.
    pub rob_capacity: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions that may begin execution per cycle.
    pub issue_width: usize,
    /// Cache: number of sets.
    pub cache_sets: usize,
    /// Cache: associativity.
    pub cache_ways: usize,
    /// Line fill buffer entries.
    pub lfb_entries: usize,
    /// Store buffer entries.
    pub store_buffer_entries: usize,
    /// Load port stale-data entries.
    pub load_port_entries: usize,
    /// Return stack buffer depth.
    pub rsb_depth: usize,
    /// Trace-event log capacity. The log is preallocated once per machine
    /// (and kept across [`Machine::reset`](crate::Machine::reset)); events
    /// beyond the capacity are counted as dropped, never recorded.
    pub max_events: usize,
    /// Safety limit: a run aborts after this many cycles.
    pub max_cycles: u64,

    // ---- latencies (cycles) ----
    /// Simple ALU operation latency.
    pub alu_latency: u64,
    /// Multiply latency.
    pub mul_latency: u64,
    /// Branch resolution latency once operands are ready.
    pub branch_latency: u64,
    /// Address translation latency.
    pub translation_latency: u64,
    /// Privilege/permission check latency — the *delayed authorization* of
    /// Meltdown-type attacks. Larger than the data-access path on the
    /// vulnerable baseline.
    pub permission_check_latency: u64,
    /// L1 hit latency.
    pub cache_hit_latency: u64,
    /// Miss-to-memory latency.
    pub cache_miss_latency: u64,
    /// MSR read data latency (Spectre v3a: shorter than its privilege check).
    pub msr_read_latency: u64,
    /// FP register move latency.
    pub fp_latency: u64,
    /// Store-to-load forwarding latency.
    pub stl_forward_latency: u64,

    // ---- vulnerability knobs (true = vulnerable baseline) ----
    /// Faulting loads transiently forward their data to dependents before
    /// the fault is architecturally raised (Meltdown).
    pub transient_forwarding: bool,
    /// Faulting loads may forward stale data from the line fill buffer,
    /// store buffer or load ports (MDS family: RIDL/ZombieLoad/Fallout/LVI).
    pub mds_forwarding: bool,
    /// Loads whose translation terminally faults (present bit clear /
    /// reserved bits set) still read the L1 using the stale PTE frame bits
    /// (Foreshadow / L1TF).
    pub l1tf_forwarding: bool,
    /// FPU state is switched lazily on context switch (Lazy FP).
    pub lazy_fpu: bool,

    // ---- defense knobs (false = vulnerable baseline) ----
    /// Strategy ① (inter-instruction): loads may not execute until they are
    /// non-speculative, i.e. all older control flow has resolved. Models
    /// ubiquitous LFENCE / context-sensitive fencing in hardware.
    pub no_speculative_loads: bool,
    /// Strategy ① (intra-instruction): the permission check completes
    /// before any data is forwarded — faulting accesses never forward data.
    pub eager_permission_check: bool,
    /// Strategy ②: speculative load results are not forwarded to dependent
    /// instructions until the load becomes non-speculative
    /// (NDA / SpecShield / SpectreGuard / ConTExT).
    pub nda: bool,
    /// Strategy ② (relaxed): speculative taint tracking — tainted values
    /// may feed arithmetic, but *transmitters* (memory ops and indirect
    /// jumps) with tainted operands wait until non-speculative (STT).
    pub stt: bool,
    /// Strategy ③: speculative loads that miss in the cache are delayed
    /// until non-speculative (Conditional Speculation / Efficient Invisible
    /// Speculative Execution — "delay on miss").
    pub delay_on_miss: bool,
    /// Strategy ③: speculative loads do not modify the cache; the fill is
    /// performed at retirement (InvisiSpec / SafeSpec shadow structures).
    pub invisible_spec: bool,
    /// Strategy ③: speculative cache modifications are undone on squash
    /// (CleanupSpec).
    pub cleanup_spec: bool,
    /// Strategy ④: predictor state (PHT/BTB/RSB/disambiguation) is flushed
    /// on every context switch (IBPB / predictor invalidation).
    pub flush_predictors_on_switch: bool,
    /// Kernel pages are unmapped while running user contexts (KAISER/KPTI):
    /// a user access to kernel memory has no translation at all, so there is
    /// no PTE and no transient data path.
    pub kpti: bool,
    /// Loads never bypass older stores with unresolved addresses
    /// (SSBS / "speculative store bypass disable"), defeating Spectre v4.
    pub ssb_disable: bool,
    /// Indirect jumps are never predicted from the BTB; fetch stalls until
    /// the target resolves (the hardware effect of retpolines).
    pub no_indirect_prediction: bool,
    /// The RSB is refilled on context switches so underfilled returns stall
    /// instead of predicting from stale entries (RSB stuffing).
    pub rsb_stuffing: bool,
    /// DAWG-style cache way partitioning between protection domains
    /// (contexts): cross-domain cache hits and evictions are impossible, so
    /// the cache covert channel is closed *across* domains (strategy ③ for
    /// cross-context attacks; same-domain attacks are unaffected).
    pub dawg: bool,
    /// The paper's §V-B *insufficient defense* example: strategy ① applied
    /// only to the **memory** datapath of privilege-faulting loads. The
    /// baseline Meltdown (secret in DRAM) is blocked, but an attacker who
    /// arranges an L1 hit for the secret still leaks — a "false sense of
    /// security" unless the authorization→read-from-cache dependency is
    /// added as well.
    pub meltdown_fix_memory_path_only: bool,
}

impl Default for UarchConfig {
    fn default() -> Self {
        UarchConfig {
            rob_capacity: 64,
            fetch_width: 4,
            issue_width: 4,
            cache_sets: 64,
            cache_ways: 8,
            lfb_entries: 8,
            store_buffer_entries: 16,
            load_port_entries: 4,
            rsb_depth: 16,
            max_events: 1 << 16,
            max_cycles: 2_000_000,
            alu_latency: 1,
            mul_latency: 3,
            branch_latency: 1,
            translation_latency: 2,
            permission_check_latency: 30,
            cache_hit_latency: 4,
            cache_miss_latency: 80,
            msr_read_latency: 2,
            fp_latency: 2,
            stl_forward_latency: 2,
            transient_forwarding: true,
            mds_forwarding: true,
            l1tf_forwarding: true,
            lazy_fpu: true,
            no_speculative_loads: false,
            eager_permission_check: false,
            nda: false,
            stt: false,
            delay_on_miss: false,
            invisible_spec: false,
            cleanup_spec: false,
            flush_predictors_on_switch: false,
            kpti: false,
            ssb_disable: false,
            no_indirect_prediction: false,
            rsb_stuffing: false,
            dawg: false,
            meltdown_fix_memory_path_only: false,
        }
    }
}

impl UarchConfig {
    /// Starts building a configuration from the vulnerable baseline.
    #[must_use]
    pub fn builder() -> UarchConfigBuilder {
        UarchConfigBuilder::default()
    }

    /// A fully *hardened* configuration: every in-silicon fix applied
    /// (transient forwarding disabled, eager permission checks, predictor
    /// flushing, SSB disable, eager FPU, KPTI) **plus** STT-style taint
    /// tracking — because the silicon fixes alone famously do *not* stop
    /// Spectre v1-family attacks; a strategy-②/③ defense is required for
    /// those. Useful as the "no variant leaks" reference point.
    #[must_use]
    pub fn hardened() -> Self {
        UarchConfig {
            transient_forwarding: false,
            mds_forwarding: false,
            l1tf_forwarding: false,
            lazy_fpu: false,
            eager_permission_check: true,
            flush_predictors_on_switch: true,
            kpti: true,
            ssb_disable: true,
            rsb_stuffing: true,
            stt: true,
            ..UarchConfig::default()
        }
    }
}

/// Builder for [`UarchConfig`]; starts from the vulnerable default baseline.
///
/// ```
/// use uarch::UarchConfig;
/// let cfg = UarchConfig::builder().nda(true).cache_miss_latency(120).build();
/// assert!(cfg.nda);
/// assert_eq!(cfg.cache_miss_latency, 120);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UarchConfigBuilder {
    cfg: UarchConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, value: $ty) -> Self {
            self.cfg.$name = value;
            self
        }
    };
}

impl UarchConfigBuilder {
    setter!(
        /// Sets the ROB capacity.
        rob_capacity: usize
    );
    setter!(
        /// Sets the fetch width.
        fetch_width: usize
    );
    setter!(
        /// Sets the issue width.
        issue_width: usize
    );
    setter!(
        /// Sets the number of cache sets.
        cache_sets: usize
    );
    setter!(
        /// Sets the cache associativity.
        cache_ways: usize
    );
    setter!(
        /// Sets line fill buffer entries.
        lfb_entries: usize
    );
    setter!(
        /// Sets store buffer entries.
        store_buffer_entries: usize
    );
    setter!(
        /// Sets load port entries.
        load_port_entries: usize
    );
    setter!(
        /// Sets RSB depth.
        rsb_depth: usize
    );
    setter!(
        /// Sets the trace-event log capacity.
        max_events: usize
    );
    setter!(
        /// Sets the run cycle limit.
        max_cycles: u64
    );
    setter!(
        /// Sets ALU latency.
        alu_latency: u64
    );
    setter!(
        /// Sets multiplier latency.
        mul_latency: u64
    );
    setter!(
        /// Sets branch resolution latency.
        branch_latency: u64
    );
    setter!(
        /// Sets translation latency.
        translation_latency: u64
    );
    setter!(
        /// Sets permission check latency.
        permission_check_latency: u64
    );
    setter!(
        /// Sets L1 hit latency.
        cache_hit_latency: u64
    );
    setter!(
        /// Sets miss latency.
        cache_miss_latency: u64
    );
    setter!(
        /// Sets MSR read latency.
        msr_read_latency: u64
    );
    setter!(
        /// Sets FP latency.
        fp_latency: u64
    );
    setter!(
        /// Sets store-to-load forward latency.
        stl_forward_latency: u64
    );
    setter!(
        /// Enables/disables transient fault forwarding.
        transient_forwarding: bool
    );
    setter!(
        /// Enables/disables MDS buffer forwarding.
        mds_forwarding: bool
    );
    setter!(
        /// Enables/disables L1TF forwarding.
        l1tf_forwarding: bool
    );
    setter!(
        /// Enables/disables lazy FPU switching.
        lazy_fpu: bool
    );
    setter!(
        /// Strategy ①: forbid speculative loads.
        no_speculative_loads: bool
    );
    setter!(
        /// Strategy ①: eager permission checks.
        eager_permission_check: bool
    );
    setter!(
        /// Strategy ②: NDA-style forwarding block.
        nda: bool
    );
    setter!(
        /// Strategy ② relaxed: STT taint tracking.
        stt: bool
    );
    setter!(
        /// Strategy ③: delay speculative misses.
        delay_on_miss: bool
    );
    setter!(
        /// Strategy ③: invisible speculation.
        invisible_spec: bool
    );
    setter!(
        /// Strategy ③: cleanup on squash.
        cleanup_spec: bool
    );
    setter!(
        /// Strategy ④: flush predictors on switch.
        flush_predictors_on_switch: bool
    );
    setter!(
        /// Unmap kernel pages in user mode (KPTI).
        kpti: bool
    );
    setter!(
        /// Disable speculative store bypass.
        ssb_disable: bool
    );
    setter!(
        /// Disable indirect-branch prediction (retpoline effect).
        no_indirect_prediction: bool
    );
    setter!(
        /// Enable RSB stuffing.
        rsb_stuffing: bool
    );
    setter!(
        /// Enable DAWG cache partitioning.
        dawg: bool
    );
    setter!(
        /// §V-B insufficiency example: fix only the memory datapath.
        meltdown_fix_memory_path_only: bool
    );

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> UarchConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_vulnerable_baseline() {
        let c = UarchConfig::default();
        assert!(c.transient_forwarding);
        assert!(c.mds_forwarding);
        assert!(c.l1tf_forwarding);
        assert!(c.lazy_fpu);
        assert!(!c.nda);
        assert!(!c.stt);
        assert!(!c.kpti);
        // The Meltdown race: permission check slower than a cache hit.
        assert!(c.permission_check_latency > c.cache_hit_latency);
    }

    #[test]
    fn builder_sets_fields() {
        let c = UarchConfig::builder()
            .nda(true)
            .delay_on_miss(true)
            .cache_sets(32)
            .permission_check_latency(99)
            .build();
        assert!(c.nda);
        assert!(c.delay_on_miss);
        assert_eq!(c.cache_sets, 32);
        assert_eq!(c.permission_check_latency, 99);
    }

    #[test]
    fn hardened_closes_all_holes() {
        let c = UarchConfig::hardened();
        assert!(!c.transient_forwarding);
        assert!(!c.mds_forwarding);
        assert!(!c.l1tf_forwarding);
        assert!(!c.lazy_fpu);
        assert!(c.eager_permission_check);
        assert!(c.flush_predictors_on_switch);
        assert!(c.kpti);
        assert!(c.ssb_disable);
        assert!(c.rsb_stuffing);
        assert!(c.stt, "silicon fixes alone do not stop Spectre v1");
    }
}
