//! # `channels` — cache covert and side channels
//!
//! The two cache-timing channel classes of §II-C of "New Models for
//! Understanding and Reasoning about Speculative Execution Attacks"
//! (HPCA 2021) that the attacks use, built on the [`uarch`] simulator:
//!
//! | class | example | module |
//! |---|---|---|
//! | hit + access | Flush+Reload | [`flush_reload`] |
//! | miss + access | Prime+Probe | [`prime_probe`] |
//!
//! The other two classes of §II-C (miss + operation, e.g. Evict+Time;
//! hit + operation, e.g. cache collision) appear only as labels of the
//! discovery design space.
//!
//! The *sender* side of a speculative attack is a transient memory access
//! performed by the victim/gadget (the "Load R to Cache" node of the
//! paper's attack graphs); the *receiver* side is implemented here as timed
//! architectural reads ([`uarch::Machine::timed_read`], the simulator's
//! `rdtsc; load; rdtsc` primitive; Flush+Reload's sweep of timed reads,
//! each followed by a flush, is [`uarch::Machine::reload_and_flush`]).
//!
//! ```
//! use channels::flush_reload::FlushReload;
//! use uarch::{Machine, UarchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(UarchConfig::default());
//! let ch = FlushReload::new(0x10_0000, 16);
//! ch.prepare(&mut m)?;               // flush all probe lines
//! m.touch(ch.slot_address(9))?;      // the covert "send": touch slot 9
//! let reading = ch.receive(&mut m)?; // reload, time & flush
//! assert_eq!(reading.recovered, Some(9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flush_reload;
pub mod prime_probe;

mod reading;

pub use reading::Reading;
