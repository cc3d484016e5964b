//! # `uarch` — a speculative out-of-order CPU simulator
//!
//! The micro-architectural substrate of the specgraph reproduction of
//! "New Models for Understanding and Reasoning about Speculative Execution
//! Attacks" (HPCA 2021).
//!
//! The paper reasons about attacks as *ordering races* between a delayed
//! **authorization** operation and eager **access/use/send** operations.
//! This simulator makes those races executable: it models
//!
//! * an in-order-retire, out-of-order-execute pipeline with a re-order
//!   buffer ([`Machine`]),
//! * trainable predictors — pattern history table, branch target buffer,
//!   return stack buffer, memory-disambiguation predictor
//!   ([`predictor`]),
//! * a set-associative write-back data cache whose contents persist across
//!   squashes — the covert-channel medium ([`cache`]),
//! * delayed permission checks (MMU privilege, present/reserved bits for
//!   L1-terminal-fault, MSR privilege, lazy-FPU ownership) that *race* with
//!   the data access of the same instruction — the Meltdown-type
//!   intra-instruction race ([`mmu`], [`Machine`]),
//! * leaky micro-architectural buffers — line-fill buffer, store buffer,
//!   load ports — for the MDS attack family, each one bounded
//!   [`buffers::Fifo`] that drops its oldest entry when full; the return
//!   stack buffer is the same `Fifo` ([`buffers`]),
//! * TSX-style transactions whose aborts suppress exceptions (TAA),
//! * every defense strategy of the paper's Figure 8 as a configuration knob
//!   ([`UarchConfig`]): serialize access (①), block speculative data use
//!   (②, NDA/STT), hide or undo micro-architectural sends (③,
//!   delay-on-miss / InvisiSpec / CleanupSpec), and flush predictors on
//!   context switch (④).
//!
//! Determinism: given the same programs and configuration the simulation is
//! bit-for-bit reproducible; there is no randomness anywhere.
//!
//! ```
//! use isa::{ProgramBuilder, Reg};
//! use uarch::{Machine, UarchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(UarchConfig::default());
//! m.map_user_page(0x1000)?;
//! m.write_u64(0x1000, 7)?;
//! let p = ProgramBuilder::new()
//!     .imm(Reg::R0, 0x1000)
//!     .load(Reg::R1, Reg::R0, 0)
//!     .halt()
//!     .build()?;
//! let r = m.run(&p)?;
//! assert!(r.halted);
//! assert_eq!(m.reg(Reg::R1), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffers;
pub mod cache;
mod config;
mod error;
mod event;
mod fpu;
mod fxmap;
mod machine;
mod mem;
pub mod mmu;
pub mod predictor;
mod result;
mod smallmap;

pub use config::{Switch, Switches, UarchConfig, UarchConfigBuilder};
pub use error::UarchError;
pub use event::{SquashCause, TraceEvent, TransientSource};
pub use fpu::FpuState;
pub use fxmap::{FxHasher, FxMap};
pub use machine::{ContextId, ExceptionBehavior, Machine, Privilege};
pub use mem::Memory;
pub use result::{Fault, RunResult};
pub use smallmap::SmallMap;
