//! The global engine's work counters.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::Value;

/// Counters the fused scan and the livelock DFS flush into — once per
/// chunk / once per completed search, never per state, so the hot loops
/// keep counting in plain locals.
///
/// Two classes live here, and they must not be confused:
///
/// * **deterministic** — `states_visited`, `legit_states`,
///   `deadlocks_found`, `dfs_steps`, `dfs_max_depth`, `cancel_polls`,
///   `orbits_visited`, `canonicalizations` and `frontier_pushes` are pure
///   functions of the instance (and the engine's resolved symmetry mode)
///   for a *completed* check, identical for every engine thread count
///   (scan polls fire on global id strides, the DFS and the reduced paths
///   are sequential);
/// * **scheduling-dependent** — `closure_checks` counts how many
///   legitimate states actually had their moves re-encoded, and the scan
///   short-circuits that work per chunk once a chunk finds its first
///   violation, so the tally depends on how the id range was chunked.
///
/// [`EngineCountersSnapshot::deterministic_json`] renders only the first
/// class; the second is surfaced in the campaign metrics document's
/// scheduling section.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Global states enumerated by the fused scan.
    pub states_visited: AtomicU64,
    /// States found inside `I(K)`.
    pub legit_states: AtomicU64,
    /// Deadlocks found outside `I(K)`.
    pub deadlocks_found: AtomicU64,
    /// Legitimate states whose outgoing moves were re-encoded for the
    /// closure check (scheduling-dependent; see the type docs).
    pub closure_checks: AtomicU64,
    /// Livelock DFS loop steps.
    pub dfs_steps: AtomicU64,
    /// Deepest DFS stack observed (frames).
    pub dfs_max_depth: AtomicU64,
    /// Cancellation polls performed (scan strides + DFS strides).
    pub cancel_polls: AtomicU64,
    /// Necklace orbits enumerated by the symmetry-reduced scan (zero under
    /// the full scan; `states_visited` stays orbit-weighted either way).
    pub orbits_visited: AtomicU64,
    /// Orbit keys (least rotations of successors) computed by the reduced
    /// livelock search's quotient walk.
    pub canonicalizations: AtomicU64,
    /// Stack pushes of the reduced livelock search's frontier walk.
    pub frontier_pushes: AtomicU64,
}

impl EngineCounters {
    /// All-zero counters.
    pub const fn new() -> Self {
        EngineCounters {
            states_visited: AtomicU64::new(0),
            legit_states: AtomicU64::new(0),
            deadlocks_found: AtomicU64::new(0),
            closure_checks: AtomicU64::new(0),
            dfs_steps: AtomicU64::new(0),
            dfs_max_depth: AtomicU64::new(0),
            cancel_polls: AtomicU64::new(0),
            orbits_visited: AtomicU64::new(0),
            canonicalizations: AtomicU64::new(0),
            frontier_pushes: AtomicU64::new(0),
        }
    }

    /// Raises `dfs_max_depth` to at least `depth`.
    pub fn record_dfs_depth(&self, depth: u64) {
        self.dfs_max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// A plain-data copy.
    pub fn snapshot(&self) -> EngineCountersSnapshot {
        EngineCountersSnapshot {
            states_visited: self.states_visited.load(Ordering::Relaxed),
            legit_states: self.legit_states.load(Ordering::Relaxed),
            deadlocks_found: self.deadlocks_found.load(Ordering::Relaxed),
            closure_checks: self.closure_checks.load(Ordering::Relaxed),
            dfs_steps: self.dfs_steps.load(Ordering::Relaxed),
            dfs_max_depth: self.dfs_max_depth.load(Ordering::Relaxed),
            cancel_polls: self.cancel_polls.load(Ordering::Relaxed),
            orbits_visited: self.orbits_visited.load(Ordering::Relaxed),
            canonicalizations: self.canonicalizations.load(Ordering::Relaxed),
            frontier_pushes: self.frontier_pushes.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of [`EngineCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCountersSnapshot {
    /// See [`EngineCounters::states_visited`].
    pub states_visited: u64,
    /// See [`EngineCounters::legit_states`].
    pub legit_states: u64,
    /// See [`EngineCounters::deadlocks_found`].
    pub deadlocks_found: u64,
    /// See [`EngineCounters::closure_checks`].
    pub closure_checks: u64,
    /// See [`EngineCounters::dfs_steps`].
    pub dfs_steps: u64,
    /// See [`EngineCounters::dfs_max_depth`].
    pub dfs_max_depth: u64,
    /// See [`EngineCounters::cancel_polls`].
    pub cancel_polls: u64,
    /// See [`EngineCounters::orbits_visited`].
    pub orbits_visited: u64,
    /// See [`EngineCounters::canonicalizations`].
    pub canonicalizations: u64,
    /// See [`EngineCounters::frontier_pushes`].
    pub frontier_pushes: u64,
}

impl EngineCountersSnapshot {
    /// The thread-count-invariant counters as canonical JSON — the values
    /// a metrics differ may compare across runs. `closure_checks` is
    /// deliberately absent (see [`EngineCounters`]).
    pub fn deterministic_json(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("cancel_polls".to_owned(), Value::from(self.cancel_polls));
        map.insert(
            "canonicalizations".to_owned(),
            Value::from(self.canonicalizations),
        );
        map.insert(
            "deadlocks_found".to_owned(),
            Value::from(self.deadlocks_found),
        );
        map.insert("dfs_max_depth".to_owned(), Value::from(self.dfs_max_depth));
        map.insert("dfs_steps".to_owned(), Value::from(self.dfs_steps));
        map.insert(
            "frontier_pushes".to_owned(),
            Value::from(self.frontier_pushes),
        );
        map.insert("legit_states".to_owned(), Value::from(self.legit_states));
        map.insert(
            "orbits_visited".to_owned(),
            Value::from(self.orbits_visited),
        );
        map.insert(
            "states_visited".to_owned(),
            Value::from(self.states_visited),
        );
        Value::Object(map)
    }
}

/// Counters the synthesis engine flushes into — once per completed run
/// (from the canonically merged outcome) plus a per-worker poll tally, so
/// the candidate-verification loop keeps counting in plain locals.
///
/// The same determinism split as [`EngineCounters`] applies:
///
/// * **deterministic** — `resolve_sets_examined`, `combinations_tried`,
///   `rejected_invalid`, `rejected_by_deadlock`, `rejected_by_trail` and
///   `solutions_found` are recomputed from the canonical (enumeration-order)
///   merge, so they are identical for every thread count;
/// * **scheduling-dependent** — `cancel_polls` counts the cooperative
///   cancellation checks workers performed, including overwork on chunks
///   that a budget cutoff later discarded; `cones_cut`,
///   `candidates_skipped` and `delta_reuses` describe the lattice-pruning
///   machinery, whose work avoidance depends on which worker installed a
///   cut first (the *verdicts* stay deterministic — only the amount of
///   skipped work varies).
///
/// [`SynthesisCountersSnapshot::deterministic_json`] renders only the first
/// class.
#[derive(Debug, Default)]
pub struct SynthesisCounters {
    /// `Resolve` sets examined (candidate generation attempted).
    pub resolve_sets_examined: AtomicU64,
    /// Candidate combinations verified (counted at the canonical cutoff).
    pub combinations_tried: AtomicU64,
    /// Combinations rejected because the revision failed validation.
    pub rejected_invalid: AtomicU64,
    /// Combinations rejected by the exact deadlock-freedom re-check.
    pub rejected_by_deadlock: AtomicU64,
    /// Combinations rejected by the Theorem 5.14 trail check.
    pub rejected_by_trail: AtomicU64,
    /// Accepted revisions (within the canonical cutoff).
    pub solutions_found: AtomicU64,
    /// Cancellation polls performed (scheduling-dependent; see type docs).
    pub cancel_polls: AtomicU64,
    /// Cut sets installed in the lattice-pruning index
    /// (scheduling-dependent; see type docs).
    pub cones_cut: AtomicU64,
    /// Candidates tagged from a cut's upward cone without running
    /// verification (scheduling-dependent; see type docs).
    pub candidates_skipped: AtomicU64,
    /// Candidates verified against a delta-applied LTG or a shared per-set
    /// deadlock verdict instead of a from-scratch analysis
    /// (scheduling-dependent; see type docs).
    pub delta_reuses: AtomicU64,
}

impl SynthesisCounters {
    /// All-zero counters.
    pub const fn new() -> Self {
        SynthesisCounters {
            resolve_sets_examined: AtomicU64::new(0),
            combinations_tried: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_by_deadlock: AtomicU64::new(0),
            rejected_by_trail: AtomicU64::new(0),
            solutions_found: AtomicU64::new(0),
            cancel_polls: AtomicU64::new(0),
            cones_cut: AtomicU64::new(0),
            candidates_skipped: AtomicU64::new(0),
            delta_reuses: AtomicU64::new(0),
        }
    }

    /// A plain-data copy.
    pub fn snapshot(&self) -> SynthesisCountersSnapshot {
        SynthesisCountersSnapshot {
            resolve_sets_examined: self.resolve_sets_examined.load(Ordering::Relaxed),
            combinations_tried: self.combinations_tried.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_by_deadlock: self.rejected_by_deadlock.load(Ordering::Relaxed),
            rejected_by_trail: self.rejected_by_trail.load(Ordering::Relaxed),
            solutions_found: self.solutions_found.load(Ordering::Relaxed),
            cancel_polls: self.cancel_polls.load(Ordering::Relaxed),
            cones_cut: self.cones_cut.load(Ordering::Relaxed),
            candidates_skipped: self.candidates_skipped.load(Ordering::Relaxed),
            delta_reuses: self.delta_reuses.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of [`SynthesisCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SynthesisCountersSnapshot {
    /// See [`SynthesisCounters::resolve_sets_examined`].
    pub resolve_sets_examined: u64,
    /// See [`SynthesisCounters::combinations_tried`].
    pub combinations_tried: u64,
    /// See [`SynthesisCounters::rejected_invalid`].
    pub rejected_invalid: u64,
    /// See [`SynthesisCounters::rejected_by_deadlock`].
    pub rejected_by_deadlock: u64,
    /// See [`SynthesisCounters::rejected_by_trail`].
    pub rejected_by_trail: u64,
    /// See [`SynthesisCounters::solutions_found`].
    pub solutions_found: u64,
    /// See [`SynthesisCounters::cancel_polls`].
    pub cancel_polls: u64,
    /// See [`SynthesisCounters::cones_cut`].
    pub cones_cut: u64,
    /// See [`SynthesisCounters::candidates_skipped`].
    pub candidates_skipped: u64,
    /// See [`SynthesisCounters::delta_reuses`].
    pub delta_reuses: u64,
}

impl SynthesisCountersSnapshot {
    /// The thread-count-invariant counters as canonical JSON.
    /// `cancel_polls`, `cones_cut`, `candidates_skipped` and `delta_reuses`
    /// are deliberately absent (see [`SynthesisCounters`]).
    pub fn deterministic_json(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert(
            "combinations_tried".to_owned(),
            Value::from(self.combinations_tried),
        );
        map.insert(
            "rejected_by_deadlock".to_owned(),
            Value::from(self.rejected_by_deadlock),
        );
        map.insert(
            "rejected_by_trail".to_owned(),
            Value::from(self.rejected_by_trail),
        );
        map.insert(
            "rejected_invalid".to_owned(),
            Value::from(self.rejected_invalid),
        );
        map.insert(
            "resolve_sets_examined".to_owned(),
            Value::from(self.resolve_sets_examined),
        );
        map.insert(
            "solutions_found".to_owned(),
            Value::from(self.solutions_found),
        );
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_a_running_max() {
        let c = EngineCounters::new();
        c.record_dfs_depth(3);
        c.record_dfs_depth(7);
        c.record_dfs_depth(5);
        assert_eq!(c.snapshot().dfs_max_depth, 7);
    }

    #[test]
    fn deterministic_json_excludes_closure_checks() {
        let c = EngineCounters::new();
        c.closure_checks.fetch_add(9, Ordering::Relaxed);
        c.states_visited.fetch_add(16, Ordering::Relaxed);
        let text = c.snapshot().deterministic_json().to_string();
        assert!(text.contains("\"states_visited\":16"), "{text}");
        assert!(!text.contains("closure_checks"), "{text}");
    }

    #[test]
    fn synthesis_deterministic_json_excludes_scheduling_counters() {
        let c = SynthesisCounters::new();
        c.cancel_polls.fetch_add(11, Ordering::Relaxed);
        c.combinations_tried.fetch_add(8, Ordering::Relaxed);
        c.solutions_found.fetch_add(4, Ordering::Relaxed);
        c.cones_cut.fetch_add(1, Ordering::Relaxed);
        c.candidates_skipped.fetch_add(5, Ordering::Relaxed);
        c.delta_reuses.fetch_add(7, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap.cones_cut, 1);
        assert_eq!(snap.candidates_skipped, 5);
        assert_eq!(snap.delta_reuses, 7);
        let text = snap.deterministic_json().to_string();
        assert!(text.contains("\"combinations_tried\":8"), "{text}");
        assert!(text.contains("\"solutions_found\":4"), "{text}");
        assert!(!text.contains("cancel_polls"), "{text}");
        // The pruning tallies depend on which worker installed a cut first,
        // so they must never enter the canonical (diffable) document.
        assert!(!text.contains("cones_cut"), "{text}");
        assert!(!text.contains("candidates_skipped"), "{text}");
        assert!(!text.contains("delta_reuses"), "{text}");
    }
}
