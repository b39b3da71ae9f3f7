//! Phase spans: where a campaign job's wall-clock time goes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

/// The phases a campaign job (and the campaign around it) moves through.
///
/// `Parse` and `LocalAnalysis` happen once per spec and are attributed to
/// the job whose worker happened to trigger the shared preparation;
/// `FusedScan` and `LivelockDfs` are the engine's two passes;
/// `JournalAppend` is checkpoint IO; `RetryBackoff` is deliberate sleep
/// between attempts of a panicking job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading and parsing a `.stab` spec.
    Parse,
    /// The paper's local (all-K) analysis of a spec.
    LocalAnalysis,
    /// The fused single-pass scan of the global state space.
    FusedScan,
    /// The tricolor livelock DFS over `¬I`.
    LivelockDfs,
    /// Appending (and syncing) journal records.
    JournalAppend,
    /// Sleeping out the deterministic retry backoff.
    RetryBackoff,
    /// The Section 6 synthesis search (candidate enumeration + trail checks).
    Synthesis,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 7;

    /// Every phase, in canonical order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::LocalAnalysis,
        Phase::FusedScan,
        Phase::LivelockDfs,
        Phase::JournalAppend,
        Phase::RetryBackoff,
        Phase::Synthesis,
    ];

    /// The canonical snake_case name (metrics keys, trace event names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::LocalAnalysis => "local_analysis",
            Phase::FusedScan => "fused_scan",
            Phase::LivelockDfs => "livelock_dfs",
            Phase::JournalAppend => "journal_append",
            Phase::RetryBackoff => "retry_backoff",
            Phase::Synthesis => "synthesis",
        }
    }

    /// Index into [`Phase::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::LocalAnalysis => 1,
            Phase::FusedScan => 2,
            Phase::LivelockDfs => 3,
            Phase::JournalAppend => 4,
            Phase::RetryBackoff => 5,
            Phase::Synthesis => 6,
        }
    }
}

/// Per-phase accumulated microseconds and span counts — a fixed array of
/// relaxed atomics, so recording a span is two `fetch_add`s.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    micros: [AtomicU64; Phase::COUNT],
    calls: [AtomicU64; Phase::COUNT],
}

impl PhaseTimes {
    /// All-zero phase times.
    pub const fn new() -> Self {
        PhaseTimes {
            micros: [const { AtomicU64::new(0) }; Phase::COUNT],
            calls: [const { AtomicU64::new(0) }; Phase::COUNT],
        }
    }

    /// Accumulates one completed span of `phase`.
    pub fn add(&self, phase: Phase, duration: Duration) {
        self.add_micros(phase, duration.as_micros() as u64);
    }

    /// Accumulates `micros` microseconds of `phase`.
    pub fn add_micros(&self, phase: Phase, micros: u64) {
        self.micros[phase.index()].fetch_add(micros, Ordering::Relaxed);
        self.calls[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `f` as one span of `phase`, timing it.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Accumulated microseconds of one phase.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.micros[phase.index()].load(Ordering::Relaxed)
    }

    /// Completed spans of one phase.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()].load(Ordering::Relaxed)
    }

    /// Folds a snapshot (e.g. one job's phase times) into this instance,
    /// adding both microseconds and span counts — unlike
    /// [`PhaseTimes::add_micros`], phases the snapshot never entered do not
    /// gain a call.
    pub fn merge(&self, snapshot: &PhaseSnapshot) {
        for phase in Phase::ALL {
            let i = phase.index();
            self.micros[i].fetch_add(snapshot.micros[i], Ordering::Relaxed);
            self.calls[i].fetch_add(snapshot.calls[i], Ordering::Relaxed);
        }
    }

    /// A plain-data copy for rendering.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            micros: Phase::ALL.map(|p| self.micros(p)),
            calls: Phase::ALL.map(|p| self.calls(p)),
        }
    }
}

/// Where a pipeline reports its phase spans: the one hook through which
/// the engine, the synthesizer and their callers (CLI, campaign, serve)
/// attribute time without each re-sequencing the passes it wraps.
///
/// Object-safe, so entry points take `Option<&dyn PhaseSink>` and callers
/// decide what a span records — a [`PhaseTimes`] accumulator, or a
/// [`PhaseLane`](crate::PhaseLane) that also traces it. Call it through
/// [`span`].
pub trait PhaseSink {
    /// Runs `f` exactly once, as one span of `phase`.
    fn span(&self, phase: Phase, f: &mut dyn FnMut());
}

impl PhaseSink for PhaseTimes {
    fn span(&self, phase: Phase, f: &mut dyn FnMut()) {
        self.time(phase, f);
    }
}

/// Runs `f` as one span of `phase` in `sink`, or untimed without one.
pub fn span<T>(sink: Option<&dyn PhaseSink>, phase: Phase, f: impl FnOnce() -> T) -> T {
    let Some(sink) = sink else {
        return f();
    };
    let mut f = Some(f);
    let mut out = None;
    sink.span(phase, &mut || out = f.take().map(|f| f()));
    out.expect("a PhaseSink runs its span exactly once")
}

/// A plain-data copy of [`PhaseTimes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Microseconds per phase, indexed like [`Phase::ALL`].
    pub micros: [u64; Phase::COUNT],
    /// Span counts per phase, indexed like [`Phase::ALL`].
    pub calls: [u64; Phase::COUNT],
}

impl PhaseSnapshot {
    /// `{"fused_scan": µs, "parse": µs, …}` — every phase present, sorted
    /// keys (the [`Value`] object representation guarantees the order).
    pub fn to_json(&self) -> Value {
        Value::Object(
            Phase::ALL
                .iter()
                .map(|p| (p.name().to_owned(), Value::from(self.micros[p.index()])))
                .collect(),
        )
    }

    /// Total microseconds across all phases.
    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_indices_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::FusedScan.name(), "fused_scan");
    }

    #[test]
    fn spans_accumulate() {
        let t = PhaseTimes::new();
        t.add_micros(Phase::Parse, 40);
        t.add_micros(Phase::Parse, 2);
        t.time(Phase::FusedScan, || {});
        assert_eq!(t.micros(Phase::Parse), 42);
        assert_eq!(t.calls(Phase::Parse), 2);
        assert_eq!(t.calls(Phase::FusedScan), 1);
        let s = t.snapshot();
        assert_eq!(s.micros[Phase::Parse.index()], 42);
        let text = s.to_json().to_string();
        assert!(text.contains("\"parse\":42"), "{text}");
        assert!(text.contains("\"retry_backoff\":0"), "{text}");
        // Through the sink hook: timed with one, bare without.
        assert_eq!(span(Some(&t), Phase::LivelockDfs, || 7), 7);
        assert_eq!(span(None, Phase::LivelockDfs, || 8), 8);
        assert_eq!(t.calls(Phase::LivelockDfs), 1);
    }
}
