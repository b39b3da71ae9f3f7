//! Global model checking: deadlocks, livelocks, closure, convergence.

use crate::engine::{CancelToken, Cancelled, DeadlockSummary, EngineConfig};
use crate::instance::{Move, RingInstance};
use crate::state::GlobalStateId;
use selfstab_telemetry::{span, EngineCounters, Phase, PhaseSink};

/// Global deadlock states outside `I(K)` — the witnesses Theorem 4.2 is
/// about — in ascending id order. This is the plain reference: the checks
/// themselves keep only a [`DeadlockSummary`] (see
/// [`ConvergenceReport::illegitimate_deadlocks`]).
pub fn illegitimate_deadlocks(ring: &RingInstance) -> Vec<GlobalStateId> {
    illegitimate_deadlocks_where(ring, |s| ring.is_legit(s))
}

/// Closure violations: transitions that leave `I(K)` from inside it.
/// An empty result means `I(K)` is closed in the protocol.
pub fn closure_violations(ring: &RingInstance) -> Vec<(GlobalStateId, Move)> {
    closure_violations_where(ring, |s| ring.is_legit(s))
}

/// The first closure violation of an arbitrary legitimate-state predicate
/// in (state, process, target) order, or `None` if it is closed. Unlike
/// [`closure_violations_where`] this stops at the first witness, so it is
/// the right call when only a yes/no answer (plus one counterexample) is
/// needed.
pub fn first_closure_violation_where<F>(
    ring: &RingInstance,
    is_legit: F,
) -> Option<(GlobalStateId, Move)>
where
    F: Fn(GlobalStateId) -> bool,
{
    for s in ring.space().ids() {
        if !is_legit(s) {
            continue;
        }
        for i in 0..ring.ring_size() {
            for &t in ring.targets_of(s, i) {
                let m = Move {
                    process: i,
                    target: t,
                };
                if !is_legit(ring.apply(s, m)) {
                    return Some((s, m));
                }
            }
        }
    }
    None
}

/// Searches for a livelock: a cycle of global transitions whose states all
/// lie outside `I(K)` (a cycle of `Δ_p | ¬I`, per Proposition 2.1).
///
/// Returns the cycle as a state sequence `[s_0, …, s_{m-1}]` with
/// transitions `s_i -> s_{i+1 mod m}`, or `None` if the protocol is
/// livelock-free at this ring size.
///
/// The search is an iterative tricolor DFS over the subgraph induced by
/// `¬I`, so memory is `O(d^K)` and time `O(states × moves)`.
pub fn find_livelock(ring: &RingInstance) -> Option<Vec<GlobalStateId>> {
    find_livelock_where(ring, |s| ring.is_legit(s))
}

/// Like [`find_livelock`], with an arbitrary legitimate-state predicate.
///
/// Protocols whose legitimate states are *not* locally conjunctive — e.g.
/// Dijkstra's token ring, where `I` is "exactly one token" — can be checked
/// by supplying the predicate directly.
pub fn find_livelock_where<F>(ring: &RingInstance, is_legit: F) -> Option<Vec<GlobalStateId>>
where
    F: Fn(GlobalStateId) -> bool,
{
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;

    let n = ring.space().len() as usize;
    let k = ring.ring_size();
    let mut color = vec![WHITE; n];
    // DFS frames: (state, next process to try, next target index within
    // that process). Successors are enumerated lazily through the frame
    // cursor, so no per-frame successor list is ever materialized.
    let mut frames: Vec<(GlobalStateId, usize, usize)> = Vec::new();

    for root in ring.space().ids() {
        if color[root.index()] != WHITE || is_legit(root) {
            continue;
        }
        color[root.index()] = GRAY;
        frames.clear();
        frames.push((root, 0, 0));

        while let Some(&mut (state, ref mut proc, ref mut tidx)) = frames.last_mut() {
            // Advance the cursor to the next successor inside ¬I.
            let mut next = None;
            while *proc < k {
                let targets = ring.targets_of(state, *proc);
                if *tidx < targets.len() {
                    let m = Move {
                        process: *proc,
                        target: targets[*tidx],
                    };
                    *tidx += 1;
                    let succ = ring.apply(state, m);
                    if !is_legit(succ) {
                        next = Some(succ);
                        break;
                    }
                } else {
                    *proc += 1;
                    *tidx = 0;
                }
            }
            match next {
                None => {
                    color[state.index()] = BLACK;
                    frames.pop();
                }
                Some(next) => match color[next.index()] {
                    WHITE => {
                        color[next.index()] = GRAY;
                        frames.push((next, 0, 0));
                    }
                    GRAY => {
                        // Back edge: extract the cycle from the DFS stack.
                        let start = frames
                            .iter()
                            .position(|&(s, _, _)| s == next)
                            .expect("gray state must be on the stack");
                        return Some(frames[start..].iter().map(|&(s, _, _)| s).collect());
                    }
                    _ => {}
                },
            }
        }
    }
    None
}

/// Searches for a livelock all of whose states draw every process's local
/// state from `local_allowed` — the *reconstruction* step of the paper's
/// §6.2: a contiguous trail `T_R` only denotes a real livelock if its local
/// states can be assembled into a cyclic global computation ("if we try to
/// reconstruct the global livelock of a ring of three processes using
/// `T_R`, we fail!").
///
/// Returns a cycle as in [`find_livelock`], or `None` when no livelock can
/// be built from the allowed local states at this ring size.
pub fn find_livelock_within<F>(ring: &RingInstance, local_allowed: F) -> Option<Vec<GlobalStateId>>
where
    F: Fn(selfstab_protocol::LocalStateId) -> bool,
{
    let admissible = |s: GlobalStateId| {
        !ring.is_legit(s) && (0..ring.ring_size()).all(|i| local_allowed(ring.local_state_of(s, i)))
    };
    // A cycle of admissible states is exactly a livelock over the allowed
    // window set: reuse the tricolor search with "legit" = inadmissible.
    find_livelock_where(ring, |s| !admissible(s))
}

/// Global deadlocks outside an arbitrary legitimate-state predicate.
pub fn illegitimate_deadlocks_where<F>(ring: &RingInstance, is_legit: F) -> Vec<GlobalStateId>
where
    F: Fn(GlobalStateId) -> bool,
{
    ring.space()
        .ids()
        .filter(|&s| ring.is_deadlock(s) && !is_legit(s))
        .collect()
}

/// Closure violations of an arbitrary legitimate-state predicate.
pub fn closure_violations_where<F>(ring: &RingInstance, is_legit: F) -> Vec<(GlobalStateId, Move)>
where
    F: Fn(GlobalStateId) -> bool,
{
    let mut out = Vec::new();
    for s in ring.space().ids() {
        if !is_legit(s) {
            continue;
        }
        ring.for_each_move(s, |m| {
            if !is_legit(ring.apply(s, m)) {
                out.push((s, m));
            }
        });
    }
    out
}

/// The outcome of a full strong-convergence check at a fixed ring size.
///
/// A report holds witnesses, not lists: one closure violation, the count
/// and least of the illegitimate deadlocks, one livelock cycle.
#[derive(Clone, Debug)]
pub struct ConvergenceReport {
    /// The ring size checked.
    pub ring_size: usize,
    /// Number of global states.
    pub state_count: u64,
    /// Number of states in `I(K)`.
    pub legit_count: u64,
    /// A closure violation, if `I(K)` is not closed.
    pub closure_violation: Option<(GlobalStateId, Move)>,
    /// Global deadlocks outside `I(K)`: how many, and the least one.
    pub illegitimate_deadlocks: DeadlockSummary,
    /// A livelock cycle, if one exists.
    pub livelock: Option<Vec<GlobalStateId>>,
}

impl ConvergenceReport {
    /// Runs the full check: closure, deadlock-freedom and livelock-freedom
    /// outside `I(K)`, under the default [`EngineConfig`].
    pub fn check(ring: &RingInstance) -> Self {
        Self::check_with(ring, &EngineConfig::default())
    }

    /// [`ConvergenceReport::check_metered`] without a deadline or
    /// telemetry. The report is identical for every `config`.
    pub fn check_with(ring: &RingInstance, config: &EngineConfig) -> Self {
        Self::check_metered(ring, config, &CancelToken::new(), None, None)
            .expect("a fresh token never cancels the check")
    }

    /// Runs the full check through the fused engine — the one composition
    /// of its two passes every caller shares. The legitimacy count, the
    /// illegitimate-deadlock count with the least deadlock, and the first
    /// closure violation come from one scan over the state space
    /// ([`fused_scan_metered`](crate::engine::fused_scan_metered)), and the
    /// livelock search
    /// ([`find_livelock_metered`](crate::engine::find_livelock_metered))
    /// reuses that scan's legitimacy bitmap.
    ///
    /// `cancel` aborts the check early (explicitly or by wall-clock
    /// deadline); a completed check is identical to an unbounded one.
    /// `counters` receives the engine's work counters (see the two passes
    /// for what is counted and what each value depends on),
    /// and `phases` times each pass as one [`Phase::FusedScan`] and one
    /// [`Phase::LivelockDfs`] span. Neither changes the report.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token fired before the check finished;
    /// there is no partial report.
    pub fn check_metered(
        ring: &RingInstance,
        config: &EngineConfig,
        cancel: &CancelToken,
        counters: Option<&EngineCounters>,
        phases: Option<&dyn PhaseSink>,
    ) -> Result<Self, Cancelled> {
        let scan = span(phases, Phase::FusedScan, || {
            crate::engine::fused_scan_metered(ring, config, cancel, counters)
        })?;
        let livelock = span(phases, Phase::LivelockDfs, || {
            crate::engine::find_livelock_metered(ring, &scan, cancel, counters)
        })?;
        Ok(ConvergenceReport {
            ring_size: ring.ring_size(),
            state_count: ring.space().len(),
            legit_count: scan.legit_count,
            closure_violation: scan.first_closure_violation,
            illegitimate_deadlocks: scan.illegitimate_deadlocks,
            livelock,
        })
    }

    /// `true` iff the protocol strongly converges to `I(K)` at this size
    /// (no illegitimate deadlocks and no livelocks; Proposition 2.1).
    pub fn strongly_converges(&self) -> bool {
        self.illegitimate_deadlocks.is_empty() && self.livelock.is_none()
    }

    /// `true` iff the protocol is strongly self-stabilizing at this size:
    /// strong convergence plus closure of `I(K)`.
    pub fn self_stabilizing(&self) -> bool {
        self.strongly_converges() && self.closure_violation.is_none()
    }
}

impl std::fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "K={}: {} states, {} legitimate",
            self.ring_size, self.state_count, self.legit_count
        )?;
        match &self.closure_violation {
            None => writeln!(f, "  closure: OK")?,
            Some((s, m)) => writeln!(f, "  closure: VIOLATED at {s} by P_{}", m.process)?,
        }
        match self.illegitimate_deadlocks.first {
            None => writeln!(f, "  deadlocks outside I: none")?,
            Some(first) => writeln!(
                f,
                "  deadlocks outside I: {} (first: {first})",
                self.illegitimate_deadlocks.count
            )?,
        }
        match &self.livelock {
            None => writeln!(f, "  livelocks: none")?,
            Some(c) => writeln!(f, "  livelocks: cycle of length {}", c.len())?,
        }
        Ok(())
    }
}

/// Returns `true` if the protocol *weakly* converges at this size: from
/// every global state some computation reaches `I(K)`.
pub fn weakly_converges(ring: &RingInstance) -> bool {
    // Backward reachability from I over the transition relation.
    let n = ring.space().len() as usize;
    let mut can_reach = vec![false; n];
    let mut work: Vec<GlobalStateId> = Vec::new();
    for s in ring.space().ids() {
        if ring.is_legit(s) {
            can_reach[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(s) = work.pop() {
        ring.for_each_predecessor(s, |p| {
            if !can_reach[p.index()] {
                can_reach[p.index()] = true;
                work.push(p);
            }
        });
    }
    can_reach.into_iter().all(|b| b)
}

/// Validates Lemma 5.5 on a concrete livelock cycle: on unidirectional
/// rings every state of a livelock has the same number of enabled
/// processes. Returns that count, or `None` if the counts differ (which
/// would falsify the lemma — used by property tests).
pub fn livelock_enablement_count(ring: &RingInstance, cycle: &[GlobalStateId]) -> Option<usize> {
    let counts: Vec<usize> = cycle
        .iter()
        .map(|&s| ring.enabled_process_count(s))
        .collect();
    match counts.first() {
        Some(&c) if counts.iter().all(|&x| x == c) => Some(c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality, Protocol};

    fn agreement(actions: &[&str]) -> Protocol {
        Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .actions(actions.iter().copied())
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn one_sided_agreement_converges() {
        let p = agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]);
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let report = ConvergenceReport::check(&ring);
            assert!(report.self_stabilizing(), "failed at K={k}: {report}");
            assert!(weakly_converges(&ring));
        }
    }

    #[test]
    fn two_sided_agreement_livelocks_at_4() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let ring = RingInstance::symmetric(&p, 4).unwrap();
        let report = ConvergenceReport::check(&ring);
        assert!(report.closure_violation.is_none());
        assert!(report.illegitimate_deadlocks.is_empty());
        let cycle = report.livelock.expect("expected the Example 5.2 livelock");
        // Every state of the cycle is outside I and the cycle is well-formed.
        for (i, &s) in cycle.iter().enumerate() {
            assert!(!ring.is_legit(s));
            let next = cycle[(i + 1) % cycle.len()];
            assert!(ring.successors(s).contains(&next));
        }
        // Lemma 5.5: constant enablement count along the livelock.
        assert!(livelock_enablement_count(&ring, &cycle).is_some());
        // Weak convergence still holds (random walks can escape).
        assert!(weakly_converges(&ring));
    }

    #[test]
    fn empty_protocol_deadlocks_everywhere() {
        let p = Protocol::builder("empty", Domain::numeric("x", 2), Locality::unidirectional())
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ring = RingInstance::symmetric(&p, 3).unwrap();
        assert_eq!(illegitimate_deadlocks_where(&ring, |_| false).len(), 8);
        let bad = illegitimate_deadlocks(&ring);
        assert_eq!(bad.len(), 6); // all but 000 and 111
        assert!(!weakly_converges(&ring));
    }

    #[test]
    fn closure_violation_detected() {
        // A protocol that leaves I: in an agreeing state, flip anyway.
        let p = Protocol::builder("bad", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 1 -> x[r] := 0")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ring = RingInstance::symmetric(&p, 3).unwrap();
        let report = ConvergenceReport::check(&ring);
        assert!(report.closure_violation.is_some());
        assert!(!report.self_stabilizing());
    }

    #[test]
    fn report_display_mentions_everything() {
        let p = agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]);
        let ring = RingInstance::symmetric(&p, 3).unwrap();
        let text = ConvergenceReport::check(&ring).to_string();
        assert!(text.contains("closure: OK"));
        assert!(text.contains("deadlocks outside I: none"));
        assert!(text.contains("livelocks: none"));
    }
}
