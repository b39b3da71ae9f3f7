//! Explicit-state global analysis of fixed-size ring protocols.
//!
//! The whole point of the paper is to *avoid* exploring the global state
//! space — but a reproduction needs the global state space as ground truth:
//!
//! * to cross-validate the local Theorem 4.2 / Theorem 5.14 verdicts on
//!   concrete ring sizes (the paper itself model-checks Example 4.2 for
//!   `K = 5..8`);
//! * as the substrate of the fixed-`K` baseline synthesizer (the STSyn-like
//!   tool the authors used to produce Examples 4.2 and 4.3);
//! * to measure the exponential cost the local method avoids (experiment
//!   E12).
//!
//! The main types are:
//!
//! * [`RingInstance`] — a protocol instantiated on a ring of `K` processes
//!   (symmetric, or with per-process behaviors for protocols like Dijkstra's
//!   token ring that have a distinguished process);
//! * [`check`] — deadlock detection, livelock detection (a cycle of
//!   `Δ_p | ¬I`), closure, and strong/weak convergence with counterexamples;
//! * [`engine`] — the fused single-pass scan behind the convergence check:
//!   one sweep computes the legitimacy count, the deadlock count with the
//!   least deadlock, and closure at once;
//! * [`sim`] — a random/round-robin simulator with transient-fault
//!   injection and convergence-time measurement;
//! * [`schedule`] — computation schedules, replay, the livelock-induced
//!   precedence relation of Definition 5.10 and enumeration of
//!   precedence-preserving permutations (Lemma 5.11, Figures 5–6).
//!
//! # Examples
//!
//! Binary agreement with both recovery actions livelocks at `K = 4` (the
//! paper's Example 5.2):
//!
//! ```
//! use selfstab_protocol::{Domain, Locality, Protocol};
//! use selfstab_global::{RingInstance, check};
//!
//! let p = Protocol::builder("agreement", Domain::numeric("x", 2), Locality::unidirectional())
//!     .action("x[r-1] == 0 && x[r] == 1 -> x[r] := 0")?
//!     .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")?
//!     .legit("x[r] == x[r-1]")?
//!     .build()?;
//! let ring = RingInstance::symmetric(&p, 4)?;
//! assert!(check::find_livelock(&ring).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod error;
pub mod faults;
pub mod instance;
pub mod schedule;
pub mod sim;
pub mod state;
pub mod symmetry;

pub use check::{find_livelock, ConvergenceReport};
pub use engine::{
    fused_scan, fused_scan_metered, CancelToken, Cancelled, DeadlockSummary, EngineConfig,
    FusedScan, SymmetryMode,
};
pub use error::GlobalError;
pub use instance::{Move, RingInstance};
pub use schedule::Schedule;
pub use sim::{Scheduler, SimOutcome, Simulator};
pub use state::{GlobalSpace, GlobalStateId};
