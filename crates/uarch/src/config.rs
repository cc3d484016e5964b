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

    /// The switches that are on in this configuration.
    #[must_use]
    pub fn switches(&self) -> Switches {
        Switch::ALL
            .iter()
            .filter(|s| s.read(self))
            .fold(Switches::NONE, |set, &s| set.with(s))
    }

    /// This configuration with every switch off: two configurations that
    /// differ only in switches give the same `without_switches`.
    #[must_use]
    pub fn without_switches(&self) -> UarchConfig {
        let mut plain = self.clone();
        for s in Switch::ALL {
            s.write(&mut plain, false);
        }
        plain
    }
}

/// Declares [`Switch`] from one list of `Variant => field` pairs, so the
/// variants, their tokens and their field accesses cannot drift apart.
macro_rules! switches {
    ($($(#[$doc:meta])* $variant:ident => $field:ident,)*) => {
        /// One boolean vulnerability or defense switch of [`UarchConfig`].
        ///
        /// The [`Machine`](crate::Machine) reads every switch through
        /// [`Machine::switch`](crate::Machine::switch), which records it in
        /// the run's consulted set
        /// ([`Machine::consulted`](crate::Machine::consulted)).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum Switch {
            $($(#[$doc])* $variant,)*
        }

        impl Switch {
            /// Every switch, in declaration order.
            pub const ALL: &'static [Switch] = &[$(Switch::$variant,)*];

            /// Stable machine-readable token (the `UarchConfig` field name).
            #[must_use]
            pub fn token(self) -> &'static str {
                match self {
                    $(Switch::$variant => stringify!($field),)*
                }
            }

            /// Reads this switch's value from `cfg`.
            #[must_use]
            pub fn read(self, cfg: &UarchConfig) -> bool {
                match self {
                    $(Switch::$variant => cfg.$field,)*
                }
            }

            /// Writes `value` to this switch's field of `cfg`.
            pub fn write(self, cfg: &mut UarchConfig, value: bool) {
                match self {
                    $(Switch::$variant => cfg.$field = value,)*
                }
            }
        }
    };
}

switches! {
    /// Strategy ①: loads wait for all older control flow
    /// (`no_speculative_loads`).
    NoSpeculativeLoads => no_speculative_loads,
    /// Strategy ① intra-instruction: permission checks complete before
    /// forwarding (`eager_permission_check`).
    EagerPermissionCheck => eager_permission_check,
    /// Strategy ②: no speculative forwarding (`nda`).
    Nda => nda,
    /// Strategy ② relaxed: speculative taint tracking (`stt`).
    Stt => stt,
    /// Strategy ③: delay speculative misses (`delay_on_miss`).
    DelayOnMiss => delay_on_miss,
    /// Strategy ③: shadow-structure fills (`invisible_spec`).
    InvisibleSpec => invisible_spec,
    /// Strategy ③: undo cache changes on squash (`cleanup_spec`).
    CleanupSpec => cleanup_spec,
    /// Strategy ③ cross-domain: cache way partitioning (`dawg`).
    Dawg => dawg,
    /// Strategy ④: flush predictor state on context switches
    /// (`flush_predictors_on_switch`).
    FlushPredictorsOnSwitch => flush_predictors_on_switch,
    /// No BTB prediction for indirect branches (`no_indirect_prediction`,
    /// the retpoline effect).
    NoIndirectPrediction => no_indirect_prediction,
    /// Refill the RSB on context switches (`rsb_stuffing`).
    RsbStuffing => rsb_stuffing,
    /// Unmap kernel pages in user mode (`kpti`).
    Kpti => kpti,
    /// Loads never bypass unresolved stores (`ssb_disable`).
    SsbDisable => ssb_disable,
    /// Lazy FPU state switching (`lazy_fpu`; eager switching writes
    /// `false`).
    LazyFpu => lazy_fpu,
    /// Faulting loads transiently forward data (`transient_forwarding`;
    /// the in-silicon fix writes `false`).
    TransientForwarding => transient_forwarding,
    /// Stale-buffer forwarding on faults (`mds_forwarding`).
    MdsForwarding => mds_forwarding,
    /// L1 probing on terminal page-table faults (`l1tf_forwarding`).
    L1tfForwarding => l1tf_forwarding,
    /// The §V-B insufficient fix: only the memory datapath of
    /// privilege-faulting loads waits (`meltdown_fix_memory_path_only`).
    MeltdownFixMemoryPathOnly => meltdown_fix_memory_path_only,
}

impl Switch {
    /// This switch's bit in a [`Switches`] set.
    fn bit(self) -> u32 {
        1 << self as u32
    }
}

impl std::fmt::Display for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// A set of [`Switch`]es, one bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Switches(u32);

impl Switches {
    /// The empty set.
    pub const NONE: Switches = Switches(0);

    /// Every switch.
    pub const ALL: Switches = Switches((1 << Switch::ALL.len()) - 1);

    /// This set with `s` added.
    #[must_use]
    pub fn with(self, s: Switch) -> Switches {
        Switches(self.0 | s.bit())
    }

    /// Whether `s` is in the set.
    #[must_use]
    pub fn contains(self, s: Switch) -> bool {
        self.0 & s.bit() != 0
    }

    /// The switches in exactly one of the two sets.
    #[must_use]
    pub fn symmetric_difference(self, other: Switches) -> Switches {
        Switches(self.0 ^ other.0)
    }

    /// Whether the two sets share no switch.
    #[must_use]
    pub fn is_disjoint(self, other: Switches) -> bool {
        self.0 & other.0 == 0
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

    #[test]
    fn switches_cover_every_bool_field_once() {
        // The Debug rendering lists every field; the bool ones are the
        // switches, in declaration order.
        let rendered = format!("{:?}", UarchConfig::default());
        let bools: Vec<&str> = rendered
            .trim_start_matches("UarchConfig { ")
            .trim_end_matches(" }")
            .split(", ")
            .filter(|f| f.ends_with(": true") || f.ends_with(": false"))
            .map(|f| f.split(':').next().unwrap())
            .collect();
        let tokens: Vec<&str> = Switch::ALL.iter().map(|s| s.token()).collect();
        let mut sorted = (bools.clone(), tokens.clone());
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1);
        let every = Switch::ALL
            .iter()
            .fold(Switches::NONE, |set, &s| set.with(s));
        assert_eq!(every, Switches::ALL);
    }

    #[test]
    fn switch_sets_split_a_config() {
        let cfg = UarchConfig::hardened();
        let on = cfg.switches();
        for &s in Switch::ALL {
            assert_eq!(on.contains(s), s.read(&cfg), "{s}");
        }
        let plain = cfg.without_switches();
        assert_eq!(plain.switches(), Switches::NONE);
        assert_eq!(plain, UarchConfig::default().without_switches());
        let mut back = plain.clone();
        for &s in Switch::ALL.iter().filter(|s| on.contains(**s)) {
            s.write(&mut back, true);
        }
        assert_eq!(back, cfg);
        let nda = Switches::NONE.with(Switch::Nda);
        assert!(on.symmetric_difference(on).is_disjoint(Switches::ALL));
        assert!(!on
            .symmetric_difference(on.with(Switch::Nda))
            .is_disjoint(nda));
    }
}
