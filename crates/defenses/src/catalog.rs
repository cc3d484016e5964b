//! The defense catalog: Table II (industry) plus the §V-B academia
//! defenses, each mapped to one of the four strategies, with its
//! machine-level effect recorded as a typed [`Overlay`].

use crate::overlay::{KnobWrite, Overlay};
use crate::Strategy;
use std::fmt;
use uarch::Switch;

/// Where a defense was proposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Shipped or specified by CPU/OS vendors (Table II).
    Industry,
    /// Proposed in academic literature (§V-B).
    Academia,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Industry => "industry",
            Origin::Academia => "academia",
        })
    }
}

/// One concrete defense.
#[derive(Debug, Clone, Copy)]
pub struct Defense {
    /// Canonical name, e.g. `"LFENCE"` or `"InvisiSpec"`.
    pub name: &'static str,
    /// Short ASCII token for the stack grammar (`"kpti"`, `"retpoline"`):
    /// what `DefenseStack::parse` and the `campaign` CLI accept in
    /// `--defenses kpti+retpoline` stack expressions.
    pub token: &'static str,
    /// Industry or academia.
    pub origin: Origin,
    /// The paper strategy the defense implements.
    pub strategy: Strategy,
    /// One-line mechanism description.
    pub mechanism: &'static str,
    /// The recorded machine-level effect, if the defense has a hardware
    /// model (`None` for purely software rewrites like address masking,
    /// which are demonstrated at the program level by the `analyzer`
    /// crate).
    pub(crate) overlay: Option<Overlay>,
}

impl Defense {
    /// Whether the defense has an executable hardware model.
    #[must_use]
    pub fn is_modeled(&self) -> bool {
        self.overlay.is_some()
    }

    /// The recorded machine-level overlay — the exact knob writes this
    /// defense performs — or `None` for software-only defenses.
    #[must_use]
    pub fn overlay(&self) -> Option<Overlay> {
        self.overlay
    }
}

impl fmt::Display for Defense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} / {}]",
            self.name,
            self.origin,
            self.strategy.label()
        )
    }
}

/// Canonical defense-name constants — the single source for every string
/// that identifies a Table-II/§V-B defense, shared by the registry, the
/// bench binaries, and the campaign engine.
pub mod names {
    /// Intel/AMD load-serializing fence.
    pub const LFENCE: &str = "LFENCE";
    /// Memory-serializing fence.
    pub const MFENCE: &str = "MFENCE";
    /// Kernel page-table isolation.
    pub const KPTI: &str = "KAISER/KPTI";
    /// Indirect Branch Restricted Speculation.
    pub const IBRS: &str = "IBRS";
    /// Single Thread Indirect Branch Predictors.
    pub const STIBP: &str = "STIBP";
    /// Indirect Branch Prediction Barrier.
    pub const IBPB: &str = "IBPB";
    /// AMD BTB invalidation option.
    pub const BTB_INVALIDATION: &str = "BTB invalidation on context switch";
    /// Google's retpoline sequence.
    pub const RETPOLINE: &str = "Retpoline";
    /// Coarse address masking.
    pub const ADDRESS_MASKING_COARSE: &str = "Address masking (coarse)";
    /// Data-dependent address masking.
    pub const ADDRESS_MASKING_DATA_DEPENDENT: &str = "Address masking (data-dependent)";
    /// Speculative Store Bypass Barrier.
    pub const SSBB: &str = "SSBB";
    /// Speculative Store Bypass Safe mode bit.
    pub const SSBS: &str = "SSBS";
    /// RSB stuffing on context switches.
    pub const RSB_STUFFING: &str = "RSB stuffing";
    /// Eager FPU state switching.
    pub const EAGER_FPU_SWITCH: &str = "Eager FPU switch";
    /// Cascade Lake in-silicon fix.
    pub const IN_SILICON_FIX: &str = "In-silicon fix (Cascade Lake)";
    /// Context-sensitive fencing (micro-op injection).
    pub const CONTEXT_SENSITIVE_FENCING: &str = "Context-sensitive fencing";
    /// Secure Automatic Bounds Checking.
    pub const SABC: &str = "Secure Automatic Bounds Checking";
    /// Eager (pre-forwarding) permission checks.
    pub const EAGER_PERMISSION_CHECK: &str = "Eager permission check";
    /// Non-speculative Data Access.
    pub const NDA: &str = "NDA";
    /// SpecShield forwarding shield.
    pub const SPECSHIELD: &str = "SpecShield";
    /// SpectreGuard marked-secret protection.
    pub const SPECTREGUARD: &str = "SpectreGuard";
    /// ConTExT taint tracking.
    pub const CONTEXT: &str = "ConTExT";
    /// Speculative Taint Tracking.
    pub const STT: &str = "STT";
    /// SpecShieldERP+ address-derivation blocking.
    pub const SPECSHIELD_ERP: &str = "SpecShieldERP+";
    /// Conditional Speculation (delay speculative misses).
    pub const CONDITIONAL_SPECULATION: &str = "Conditional Speculation";
    /// Efficient Invisible Speculative Execution.
    pub const EFFICIENT_INVISIBLE_SPECULATION: &str = "Efficient Invisible Speculative Execution";
    /// InvisiSpec shadow-buffer loads.
    pub const INVISISPEC: &str = "InvisiSpec";
    /// SafeSpec shadow structures.
    pub const SAFESPEC: &str = "SafeSpec";
    /// CleanupSpec undo-on-squash.
    pub const CLEANUPSPEC: &str = "CleanupSpec";
    /// DAWG cache-way partitioning.
    pub const DAWG: &str = "DAWG";
}

/// Builds the `'static` write list of an overlay.
macro_rules! overlay {
    ($($knob:ident => $value:expr),+ $(,)?) => {
        Some(Overlay(&[$(KnobWrite {
            knob: Switch::$knob,
            value: $value,
        }),+]))
    };
}

macro_rules! defense {
    ($name:expr, $token:literal, $origin:ident, $strategy:ident, $mech:literal, $overlay:expr) => {
        Defense {
            name: $name,
            token: $token,
            origin: Origin::$origin,
            strategy: Strategy::$strategy,
            mechanism: $mech,
            overlay: $overlay,
        }
    };
}

/// The full defense catalog as a `'static` registry: every Table II
/// industry defense and every §V-B academia defense, in the paper's order.
///
/// This is the canonical iteration surface for the campaign engine, the
/// bench binaries and the examples; a defense added here shows up in every
/// matrix at once.
#[must_use]
pub fn registry() -> &'static [Defense] {
    static REGISTRY: &[Defense] = &[
        // ---- Industry (Table II) ----
        defense!(
            names::LFENCE,
            "lfence",
            Industry,
            PreventAccess,
            "serialize: no younger instruction executes before the fence retires",
            overlay![NoSpeculativeLoads => true]
        ),
        defense!(
            names::MFENCE,
            "mfence",
            Industry,
            PreventAccess,
            "serialize memory operations across the fence",
            overlay![NoSpeculativeLoads => true]
        ),
        defense!(
            names::KPTI,
            "kpti",
            Industry,
            PreventAccess,
            "unmap kernel pages in user mode: no PTE, no transient data path",
            overlay![Kpti => true]
        ),
        defense!(
            names::IBRS,
            "ibrs",
            Industry,
            ClearPredictions,
            "restrict indirect-branch speculation across privilege modes",
            overlay![FlushPredictorsOnSwitch => true]
        ),
        defense!(
            names::STIBP,
            "stibp",
            Industry,
            ClearPredictions,
            "do not share indirect-branch predictions between sibling threads",
            overlay![FlushPredictorsOnSwitch => true]
        ),
        defense!(
            names::IBPB,
            "ibpb",
            Industry,
            ClearPredictions,
            "barrier: flush the branch target buffer on context switch",
            overlay![FlushPredictorsOnSwitch => true]
        ),
        defense!(
            names::BTB_INVALIDATION,
            "btb-inval",
            Industry,
            ClearPredictions,
            "AMD option: invalidate predictor state when switching contexts",
            overlay![FlushPredictorsOnSwitch => true]
        ),
        defense!(
            names::RETPOLINE,
            "retpoline",
            Industry,
            ClearPredictions,
            "replace indirect branches with return sequences that never use the BTB",
            overlay![NoIndirectPrediction => true]
        ),
        defense!(
            names::ADDRESS_MASKING_COARSE,
            "mask-coarse",
            Industry,
            PreventAccess,
            "software: mask indices so out-of-bounds addresses are unrepresentable",
            None
        ),
        defense!(
            names::ADDRESS_MASKING_DATA_DEPENDENT,
            "mask-data",
            Industry,
            PreventAccess,
            "software: conditional masking against the actual bound (V8/Linux)",
            None
        ),
        defense!(
            names::SSBB,
            "ssbb",
            Industry,
            PreventAccess,
            "barrier: loads after it may not bypass stores before it",
            overlay![SsbDisable => true]
        ),
        defense!(
            names::SSBS,
            "ssbs",
            Industry,
            PreventAccess,
            "mode bit: loads never bypass stores with unresolved addresses",
            overlay![SsbDisable => true]
        ),
        defense!(
            names::RSB_STUFFING,
            "rsb-stuffing",
            Industry,
            ClearPredictions,
            "refill the return stack buffer with benign entries on switches",
            overlay![RsbStuffing => true]
        ),
        defense!(
            names::EAGER_FPU_SWITCH,
            "eager-fpu",
            Industry,
            PreventAccess,
            "save/restore FP registers eagerly on every context switch",
            overlay![LazyFpu => false]
        ),
        defense!(
            names::IN_SILICON_FIX,
            "silicon-fix",
            Industry,
            PreventAccess,
            "faulting accesses return zeros: no transient forwarding at all",
            overlay![
                TransientForwarding => false,
                MdsForwarding => false,
                L1tfForwarding => false,
            ]
        ),
        // ---- Academia (§V-B) ----
        defense!(
            names::CONTEXT_SENSITIVE_FENCING,
            "csf",
            Academia,
            PreventAccess,
            "hardware-injected micro-op fences between branches and loads",
            overlay![NoSpeculativeLoads => true]
        ),
        defense!(
            names::SABC,
            "sabc",
            Academia,
            PreventAccess,
            "software: inject data dependencies serializing branch and access",
            None
        ),
        defense!(
            names::EAGER_PERMISSION_CHECK,
            "eager-permcheck",
            Academia,
            PreventAccess,
            "complete the intra-instruction authorization before forwarding data",
            overlay![EagerPermissionCheck => true]
        ),
        defense!(
            names::NDA,
            "nda",
            Academia,
            PreventUse,
            "no forwarding of speculative load results to dependents",
            overlay![Nda => true]
        ),
        defense!(
            names::SPECSHIELD,
            "specshield",
            Academia,
            PreventUse,
            "shield speculative data from forwarding to covert-channel-capable ops",
            overlay![Nda => true]
        ),
        defense!(
            names::SPECTREGUARD,
            "spectreguard",
            Academia,
            PreventUse,
            "software-marked secrets; forwarding of marked data blocked while speculative",
            overlay![Nda => true]
        ),
        defense!(
            names::CONTEXT,
            "context",
            Academia,
            PreventUse,
            "taint secret memory; transient use of tainted data blocked",
            overlay![Nda => true]
        ),
        defense!(
            names::STT,
            "stt",
            Academia,
            PreventSend,
            "taint speculative data; block transmitters (loads/branches) on tainted operands",
            overlay![Stt => true]
        ),
        defense!(
            names::SPECSHIELD_ERP,
            "specshield-erp",
            Academia,
            PreventSend,
            "block loads whose address derives from speculative data",
            overlay![Stt => true]
        ),
        defense!(
            names::CONDITIONAL_SPECULATION,
            "cond-spec",
            Academia,
            PreventSend,
            "allow speculative cache hits, delay speculative misses",
            overlay![DelayOnMiss => true]
        ),
        defense!(
            names::EFFICIENT_INVISIBLE_SPECULATION,
            "eise",
            Academia,
            PreventSend,
            "selective delay of state-changing speculative loads",
            overlay![DelayOnMiss => true]
        ),
        defense!(
            names::INVISISPEC,
            "invisispec",
            Academia,
            PreventSend,
            "speculative loads fill a shadow buffer; the cache changes only at commit",
            overlay![InvisibleSpec => true]
        ),
        defense!(
            names::SAFESPEC,
            "safespec",
            Academia,
            PreventSend,
            "shadow structures for speculative state, discarded on squash",
            overlay![InvisibleSpec => true]
        ),
        defense!(
            names::CLEANUPSPEC,
            "cleanup-spec",
            Academia,
            PreventSend,
            "undo speculative cache modifications on squash",
            overlay![CleanupSpec => true]
        ),
        defense!(
            names::DAWG,
            "dawg",
            Academia,
            PreventSend,
            "partition cache ways between protection domains: no cross-domain hits/evictions",
            overlay![Dawg => true]
        ),
    ];
    REGISTRY
}

/// Looks up a registry defense by its canonical [`names`] constant.
#[must_use]
pub fn find(name: &str) -> Option<&'static Defense> {
    registry().iter().find(|d| d.name == name)
}

/// Looks up a registry defense by either its short [`Defense::token`]
/// (case-insensitive) or its full canonical name — the per-member
/// resolution rule of the stack grammar.
#[must_use]
pub fn resolve(name_or_token: &str) -> Option<&'static Defense> {
    registry()
        .iter()
        .find(|d| d.name == name_or_token || d.token.eq_ignore_ascii_case(name_or_token))
}

/// One row of Table II: an attack family, the vendor strategy name, and the
/// defenses implementing it.
#[derive(Debug, Clone)]
pub struct IndustryRow {
    /// The attack (family) being defended against.
    pub attack: &'static str,
    /// The vendor defense-strategy name used in Table II.
    pub strategy_name: &'static str,
    /// The defenses of that row.
    pub defenses: Vec<&'static str>,
}

/// Table II of the paper.
#[must_use]
pub fn industry_rows() -> Vec<IndustryRow> {
    vec![
        IndustryRow {
            attack: "Spectre",
            strategy_name: "Serialization",
            defenses: vec![names::LFENCE, names::MFENCE],
        },
        IndustryRow {
            attack: "Meltdown",
            strategy_name: "Kernel Isolation",
            defenses: vec![names::KPTI],
        },
        IndustryRow {
            attack: "Spectre variants requiring branch prediction (v1, v1.1, v1.2, v2)",
            strategy_name: "Prevent mis-training of branch prediction",
            defenses: vec![
                names::IBRS,
                names::STIBP,
                names::IBPB,
                names::BTB_INVALIDATION,
                names::RETPOLINE,
            ],
        },
        IndustryRow {
            attack: "Spectre boundary bypass (v1, v1.1, v1.2)",
            strategy_name: "Address masking",
            defenses: vec![
                names::ADDRESS_MASKING_COARSE,
                names::ADDRESS_MASKING_DATA_DEPENDENT,
            ],
        },
        IndustryRow {
            attack: "Spectre v4",
            strategy_name: "Serialize stores and loads",
            defenses: vec![names::SSBB, names::SSBS],
        },
        IndustryRow {
            attack: "Spectre RSB",
            strategy_name: "Prevent RSB underfill",
            defenses: vec![names::RSB_STUFFING],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefenseStack;
    use uarch::UarchConfig;

    #[test]
    fn catalog_covers_paper_lists() {
        let c = registry();
        let names: Vec<&str> = c.iter().map(|d| d.name).collect();
        // Every Table II defense name appears in the catalog.
        for row in industry_rows() {
            for d in row.defenses {
                assert!(names.contains(&d), "Table II defense {d} missing");
            }
        }
        // Every §V-B academia defense is present.
        for d in [
            "Context-sensitive fencing",
            "Secure Automatic Bounds Checking",
            "NDA",
            "SpecShield",
            "SpectreGuard",
            "ConTExT",
            "STT",
            "Conditional Speculation",
            "Efficient Invisible Speculative Execution",
            "InvisiSpec",
            "SafeSpec",
            "CleanupSpec",
            "DAWG",
        ] {
            assert!(names.contains(&d), "academia defense {d} missing");
        }
    }

    #[test]
    fn every_defense_maps_to_a_strategy() {
        // The paper's claim: *all* current defenses fall under one of the
        // four strategies. The enum makes this total by construction; this
        // test documents the distribution is non-degenerate.
        let c = registry();
        for s in Strategy::all() {
            assert!(
                c.iter().any(|d| d.strategy == s),
                "no defense under strategy {s}"
            );
        }
    }

    #[test]
    fn find_resolves_every_registered_name() {
        for d in registry() {
            assert_eq!(find(d.name).expect("resolves").name, d.name);
        }
        assert!(find("Magic bullet").is_none());
    }

    #[test]
    fn tokens_are_unique_and_resolve() {
        for (i, d) in registry().iter().enumerate() {
            assert!(
                d.token
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "token '{}' is not lowercase-ascii-kebab",
                d.token
            );
            // Tokens must be unique (the stack grammar resolves by token)
            // and must not collide with another defense's full name.
            for other in &registry()[..i] {
                assert_ne!(d.token, other.token, "duplicate token");
                assert_ne!(d.token, other.name, "token shadows a name");
            }
            assert_eq!(resolve(d.token).expect("token resolves").name, d.name);
            assert_eq!(resolve(d.name).expect("name resolves").name, d.name);
            // Tokens are case-insensitive; names are not.
            assert_eq!(
                resolve(&d.token.to_ascii_uppercase())
                    .expect("resolves")
                    .name,
                d.name
            );
        }
        assert!(resolve("magic-bullet").is_none());
    }

    #[test]
    fn configure_produces_modified_config() {
        let base = UarchConfig::default();
        let kpti = DefenseStack::single(*find(names::KPTI).unwrap());
        let cfg = kpti.apply(&base).unwrap();
        assert!(cfg.kpti);
        assert!(!base.kpti);
        let masking = find(names::ADDRESS_MASKING_COARSE).unwrap();
        assert!(DefenseStack::single(*masking).apply(&base).is_none());
        assert!(!masking.is_modeled());
        assert!(masking.overlay().is_none());
    }

    #[test]
    fn overlays_record_the_exact_writes() {
        let base = UarchConfig::default();
        for d in registry() {
            let Some(overlay) = d.overlay() else { continue };
            assert!(!overlay.writes().is_empty(), "{} records nothing", d.name);
            // The deployed singleton and the recorded writes agree by
            // construction — this pins that the overlay actually changes
            // the baseline.
            let cfg = DefenseStack::single(*d).apply(&base).unwrap();
            assert_ne!(cfg, base, "{} overlay is a no-op on the baseline", d.name);
            assert_eq!(
                overlay.diff(&base).len(),
                overlay.writes().len(),
                "{} writes values the baseline already has",
                d.name
            );
            assert!(overlay.diff(&cfg).is_empty());
        }
    }

    #[test]
    fn display_forms() {
        let d = registry()[0];
        let s = d.to_string();
        assert!(s.contains(d.name));
        assert!(Origin::Academia.to_string() == "academia");
    }
}
