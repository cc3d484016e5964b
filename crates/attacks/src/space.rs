//! §V-A's attack design space: *"any new combination of these three
//! dimensions of an attack gives a new attack"* — (1) where the secret
//! comes from ([`SecretSource`]), (2) which hardware feature delays the
//! authorization ([`DelayMechanism`]) and (3) which covert channel carries
//! the secret out ([`Channel`]).
//!
//! Every registry attack carries its [`AttackPoint`]
//! ([`AttackInfo::point`](crate::AttackInfo::point)), so which points are
//! occupied by published variants is read off the [`registry`], never
//! written down twice.

use crate::registry;
use std::fmt;
use tsg::{EdgeKind, NodeKind, SecretSource, SecurityAnalysis};

/// Dimension 1 in design-space order: every [`SecretSource`].
pub const SOURCES: [SecretSource; 8] = [
    SecretSource::ArchitecturalMemory,
    SecretSource::Memory,
    SecretSource::Cache,
    SecretSource::LineFillBuffer,
    SecretSource::StoreBuffer,
    SecretSource::LoadPort,
    SecretSource::SpecialRegister,
    SecretSource::Fpu,
];

/// Dimension 2: the hardware feature whose delay opens the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DelayMechanism {
    /// Conditional branch resolution (PHT prediction).
    ConditionalBranch,
    /// Indirect branch target computation (BTB prediction).
    IndirectBranch,
    /// Return target resolution (RSB prediction).
    ReturnAddress,
    /// Store-load address disambiguation.
    Disambiguation,
    /// A delayed exception (privilege/present/reserved check).
    DelayedException,
    /// Transactional-abort completion (TSX).
    TransactionAbort,
}

/// Dimension 2 in design-space order: every [`DelayMechanism`].
pub const DELAYS: [DelayMechanism; 6] = [
    DelayMechanism::ConditionalBranch,
    DelayMechanism::IndirectBranch,
    DelayMechanism::ReturnAddress,
    DelayMechanism::Disambiguation,
    DelayMechanism::DelayedException,
    DelayMechanism::TransactionAbort,
];

impl DelayMechanism {
    /// Whether the authorization lives inside the accessing instruction
    /// (Meltdown-type) or in a prior instruction (Spectre-type) — the
    /// paper's Insight 6.
    #[must_use]
    pub fn is_intra_instruction(self) -> bool {
        matches!(
            self,
            DelayMechanism::DelayedException | DelayMechanism::TransactionAbort
        )
    }

    /// The authorization node this mechanism delays.
    #[must_use]
    pub fn authorization_label(self) -> &'static str {
        match self {
            DelayMechanism::ConditionalBranch => "Branch resolution",
            DelayMechanism::IndirectBranch => "Indirect target resolution",
            DelayMechanism::ReturnAddress => "Return target resolution",
            DelayMechanism::Disambiguation => "Memory address disambiguation",
            DelayMechanism::DelayedException => "Permission check",
            DelayMechanism::TransactionAbort => "Transaction abort completion",
        }
    }

    fn tag(self) -> &'static str {
        match self {
            DelayMechanism::ConditionalBranch => "conditional-branch",
            DelayMechanism::IndirectBranch => "indirect-branch",
            DelayMechanism::ReturnAddress => "return-address",
            DelayMechanism::Disambiguation => "disambiguation",
            DelayMechanism::DelayedException => "delayed-exception",
            DelayMechanism::TransactionAbort => "transaction-abort",
        }
    }
}

impl fmt::Display for DelayMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.authorization_label())
    }
}

/// Dimension 3: the covert channel carrying the secret out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Channel {
    /// Flush+Reload (hit + access).
    FlushReload,
    /// Prime+Probe (miss + access).
    PrimeProbe,
    /// Evict+Time (miss + operation).
    EvictTime,
    /// Cache collision (hit + operation).
    Collision,
}

/// Dimension 3 in design-space order: every [`Channel`].
pub const CHANNELS: [Channel; 4] = [
    Channel::FlushReload,
    Channel::PrimeProbe,
    Channel::EvictTime,
    Channel::Collision,
];

impl Channel {
    fn tag(self) -> &'static str {
        match self {
            Channel::FlushReload => "flush-reload",
            Channel::PrimeProbe => "prime-probe",
            Channel::EvictTime => "evict-time",
            Channel::Collision => "collision",
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Channel::FlushReload => "Flush+Reload",
            Channel::PrimeProbe => "Prime+Probe",
            Channel::EvictTime => "Evict+Time",
            Channel::Collision => "cache collision",
        })
    }
}

fn source_tag(source: SecretSource) -> &'static str {
    match source {
        SecretSource::ArchitecturalMemory => "architectural-memory",
        SecretSource::Memory => "kernel-memory",
        SecretSource::Cache => "l1-cache",
        SecretSource::LineFillBuffer => "line-fill-buffer",
        SecretSource::StoreBuffer => "store-buffer",
        SecretSource::LoadPort => "load-port",
        SecretSource::SpecialRegister => "special-register",
        SecretSource::Fpu => "fpu-state",
        _ => unreachable!("{source:?} is not one of the design space's SOURCES"),
    }
}

/// The value of `values` whose tag is `tag`.
fn parse_tag<T: Copy>(values: &[T], tag_of: fn(T) -> &'static str, tag: &str) -> Option<T> {
    values.iter().copied().find(|&v| tag_of(v) == tag)
}

/// One point in the attack design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttackPoint {
    /// Where the secret comes from.
    pub source: SecretSource,
    /// What delays the authorization.
    pub delay: DelayMechanism,
    /// How the secret leaves.
    pub channel: Channel,
}

impl AttackPoint {
    /// The point `source` × `delay` × `channel`.
    #[must_use]
    pub const fn new(source: SecretSource, delay: DelayMechanism, channel: Channel) -> Self {
        AttackPoint {
            source,
            delay,
            channel,
        }
    }

    /// The names of the registry attacks at this point, in registry order.
    /// None means a candidate *new* attack — channel substitutions of
    /// known variants included, which the paper also counts as new.
    pub fn known_variants(self) -> impl Iterator<Item = &'static str> {
        registry()
            .iter()
            .map(|a| a.info())
            .filter(move |info| info.point == self)
            .map(|info| info.name)
    }

    /// A stable `source/delay/channel` label, e.g.
    /// `architectural-memory/conditional-branch/flush-reload`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            source_tag(self.source),
            self.delay.tag(),
            self.channel.tag()
        )
    }

    /// Parses an [`AttackPoint::label`] back.
    #[must_use]
    pub fn from_label(label: &str) -> Option<AttackPoint> {
        let mut it = label.split('/');
        let source = parse_tag(&SOURCES, source_tag, it.next()?)?;
        let delay = parse_tag(&DELAYS, DelayMechanism::tag, it.next()?)?;
        let channel = parse_tag(&CHANNELS, Channel::tag, it.next()?)?;
        it.next()
            .is_none()
            .then_some(AttackPoint::new(source, delay, channel))
    }

    /// The secret-access node this point's source names.
    #[must_use]
    pub fn access_label(&self) -> &'static str {
        match self.source {
            SecretSource::ArchitecturalMemory => "Read secret from architectural memory",
            SecretSource::Memory => "Read secret from kernel memory",
            SecretSource::Cache => "Read secret from L1 cache",
            SecretSource::LineFillBuffer => "Read secret from line fill buffer",
            SecretSource::StoreBuffer => "Read secret from store buffer",
            SecretSource::LoadPort => "Read secret from load port",
            SecretSource::SpecialRegister => "Read secret from special register",
            SecretSource::Fpu => "Read secret from FPU state",
            _ => unreachable!("{:?} is not one of the design space's SOURCES", self.source),
        }
    }

    /// Generates the attack graph for this point: the generic
    /// setup→authorization/access race→use→send→receive shape, with the
    /// access node typed by the source dimension and the authorization node
    /// named after the delay mechanism.
    #[must_use]
    pub fn graph(&self) -> SecurityAnalysis {
        let mut sa = SecurityAnalysis::new();
        let g = sa.graph_mut();
        let setup = g.add_node(
            format!("Establish {} channel", self.channel),
            NodeKind::Setup,
        );
        let trigger = g.add_node(
            format!("Speculation trigger ({})", self.delay),
            NodeKind::Compute,
        );
        let auth = g.add_node(self.delay.authorization_label(), NodeKind::Authorization);
        let access = g.add_node(self.access_label(), NodeKind::SecretAccess(self.source));
        let use_n = g.add_node("Transform secret", NodeKind::UseSecret);
        let send = g.add_node(format!("Send via {}", self.channel), NodeKind::Send);
        let squash = g.add_node("Squash or commit", NodeKind::Resolution);
        let recv = g.add_node(format!("Receive via {}", self.channel), NodeKind::Receive);
        for (u, v, k) in [
            (setup, trigger, EdgeKind::Program),
            (trigger, auth, EdgeKind::Data),
            (trigger, access, EdgeKind::Data),
            (access, use_n, EdgeKind::Data),
            (use_n, send, EdgeKind::Address),
            (auth, squash, EdgeKind::Data),
            (squash, recv, EdgeKind::Program),
        ] {
            g.add_edge(u, v, k).expect("template is acyclic");
        }
        sa.require(auth, access).expect("nodes exist");
        sa.require(auth, use_n).expect("nodes exist");
        sa.require(auth, send).expect("nodes exist");
        sa
    }
}

impl fmt::Display for AttackPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {} / {}", self.source, self.delay, self.channel)
    }
}
