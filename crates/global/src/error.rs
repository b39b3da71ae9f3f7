//! Errors of the global-analysis crate.

use std::fmt;

use crate::state::MAX_RING_SIZE;

/// Errors produced while instantiating or exploring global state spaces.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GlobalError {
    /// The global state space `d^K` exceeds the configured bound.
    StateSpaceTooLarge {
        /// Domain size.
        domain_size: usize,
        /// Ring size.
        ring_size: usize,
        /// The configured maximum number of states.
        limit: u64,
    },
    /// Instantiation was asked for a ring of size zero.
    EmptyRing,
    /// The ring has more processes than a global state id has digits
    /// ([`crate::state::MAX_RING_SIZE`]).
    RingTooLarge {
        /// Ring size.
        ring_size: usize,
    },
    /// Per-process behaviors disagree on domain or locality.
    Heterogeneous {
        /// Description of the mismatch.
        message: String,
    },
    /// A schedule replay failed: a move was not enabled.
    ReplayDisabled {
        /// Index of the failing move in the schedule.
        step: usize,
        /// Process the move belongs to.
        process: usize,
    },
}

impl fmt::Display for GlobalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalError::StateSpaceTooLarge {
                domain_size,
                ring_size,
                limit,
            } => write!(
                f,
                "global state space {domain_size}^{ring_size} exceeds the limit of {limit} states"
            ),
            GlobalError::EmptyRing => write!(f, "ring size must be at least 1"),
            GlobalError::RingTooLarge { ring_size } => write!(
                f,
                "ring size {ring_size} exceeds the limit of {MAX_RING_SIZE} processes"
            ),
            GlobalError::Heterogeneous { message } => {
                write!(f, "heterogeneous ring instantiation: {message}")
            }
            GlobalError::ReplayDisabled { step, process } => write!(
                f,
                "schedule replay failed: move {step} of process {process} is not enabled"
            ),
        }
    }
}

impl std::error::Error for GlobalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = GlobalError::StateSpaceTooLarge {
            domain_size: 3,
            ring_size: 40,
            limit: 1 << 26,
        };
        assert!(e.to_string().contains("3^40"));
        assert!(GlobalError::EmptyRing.to_string().contains("at least 1"));
        let e = GlobalError::RingTooLarge { ring_size: 65 };
        assert!(e.to_string().contains("65"), "{e}");
    }
}
