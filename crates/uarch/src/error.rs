//! Error type for machine operations.

use std::error::Error;
use std::fmt;

/// Errors from [`Machine`](crate::Machine) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UarchError {
    /// The run exceeded the configured cycle limit.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A virtual address used by a host-level accessor is not mapped.
    Unmapped {
        /// The offending virtual address.
        vaddr: u64,
    },
    /// Referenced an unknown context.
    UnknownContext(u32),
}

impl fmt::Display for UarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UarchError::CycleLimitExceeded { limit } => {
                write!(f, "run exceeded cycle limit of {limit}")
            }
            UarchError::Unmapped { vaddr } => write!(f, "virtual address {vaddr:#x} not mapped"),
            UarchError::UnknownContext(id) => write!(f, "unknown context {id}"),
        }
    }
}

impl Error for UarchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(UarchError::CycleLimitExceeded { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(UarchError::Unmapped { vaddr: 0x40 }
            .to_string()
            .contains("0x40"));
        assert!(UarchError::UnknownContext(3).to_string().contains('3'));
    }
}
