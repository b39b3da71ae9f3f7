//! Instrumentation for the selfstab toolkit.
//!
//! The verification hot paths — the fused scan, the livelock DFS, the
//! campaign pool — must never pay for their own observability. Everything
//! in this crate is therefore built from relaxed atomics and fixed-size
//! arrays:
//!
//! * [`Histogram`] — 65 log2 buckets behind one `fetch_add` per sample, no
//!   allocation, no lock;
//! * [`Phase`] / [`PhaseTimes`] — the phases a job moves through,
//!   accumulated as microsecond counters in a fixed array, and
//!   [`PhaseSink`] / [`span`] — the hook the pipelines report them through;
//! * [`EngineCounters`] — the global engine's work counters (states
//!   visited, deadlocks found, closure checks, DFS depth, cancel polls),
//!   flushed once per chunk so the scan loop itself only touches plain
//!   locals;
//! * [`Registry`] — named counters, gauges and histograms that snapshot
//!   to canonical (sorted-key) JSON and render to the Prometheus text
//!   exposition format ([`prometheus`]);
//! * [`TraceCollector`] — Chrome trace-event output loadable in Perfetto
//!   or `chrome://tracing`, and [`PhaseLane`], the sink that times a phase
//!   and traces it in one span (these lock and allocate: tracing is
//!   opt-in or coarse and never sits on a hot path);
//! * [`logger`] — the CLI's leveled stderr logger;
//! * [`Progress`] — the shared state behind `sweep`'s live progress meter.
//!
//! **The determinism contract.** Counter *values* describing completed
//! work (states visited, deadlocks found, DFS steps) are pure functions of
//! the problem instance and are byte-identical across worker and engine
//! thread counts. Durations, queue depths, steal counts and closure-check
//! short-circuit tallies depend on scheduling and are reported separately.
//! Consumers that diff metrics across runs must only compare the former;
//! the campaign metrics document keeps the two classes in different
//! sections for exactly this reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod hist;
pub mod logger;
mod phase;
mod progress;
pub mod prometheus;
mod registry;
mod trace;

pub use counters::{
    EngineCounters, EngineCountersSnapshot, SynthesisCounters, SynthesisCountersSnapshot,
};
pub use hist::{Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use phase::{span, Phase, PhaseSink, PhaseSnapshot, PhaseTimes};
pub use progress::Progress;
pub use registry::Registry;
pub use trace::{PhaseLane, TraceCollector};
