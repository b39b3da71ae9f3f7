//! Deadlock-freedom for every ring size: the Theorem 4.2 check.

use std::collections::VecDeque;

use selfstab_graph::{
    cycles::{simple_cycles, CycleBudget},
    scc::vertices_on_cycles,
    BitSet, DiGraph,
};
use selfstab_protocol::{LocalStateId, LocalStateSpace, Protocol, Value};

use crate::rcg::Rcg;

/// A witness that global deadlocks outside `I(K)` exist: a directed cycle of
/// local deadlocks in the RCG passing through an illegitimate local state.
///
/// Per the proof of Theorem 4.2, assigning the cycle's local states around a
/// ring of size `k·n` (any `k ≥ 1`, `n` the cycle length) yields a global
/// deadlock outside `I`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockWitness {
    /// The cycle of local deadlock states in the RCG.
    pub cycle: Vec<LocalStateId>,
    /// The smallest ring size this cycle witnesses (its length).
    pub base_ring_size: usize,
    /// A concrete deadlocked configuration `⟨x_0, …, x_{n-1}⟩` for a ring of
    /// size `base_ring_size` (the centers of the cycle's local states).
    pub configuration: Vec<Value>,
}

impl DeadlockWitness {
    /// Returns `true` if this witness covers ring size `k` (i.e. `k` is a
    /// positive multiple of the cycle length).
    pub fn covers_ring_size(&self, k: usize) -> bool {
        k > 0 && k.is_multiple_of(self.base_ring_size)
    }
}

/// The result of the Theorem 4.2 deadlock-freedom analysis: the RCG
/// induced over the local deadlocks, the illegitimate ones among them, and
/// the verdict.
///
/// The verdict ([`DeadlockAnalysis::is_free_for_all_k`]) is **exact** — the
/// theorem is necessary and sufficient — and is computed eagerly from
/// strongly connected components. Cycles are found only when asked for: a
/// shortest one by [`DeadlockAnalysis::witness_without`], and Johnson's
/// enumeration (under a budget) by [`DeadlockAnalysis::witnesses`].
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, Protocol};
/// use selfstab_core::DeadlockAnalysis;
///
/// // Empty 3-coloring protocol: every illegitimate state ⟨c,c⟩ is a local
/// // deadlock with an RCG self-loop, so deadlocks exist at every ring size.
/// let p = Protocol::builder("3col", Domain::numeric("c", 3), Locality::unidirectional())
///     .legit("c[r] != c[r-1]")?
///     .build()?;
/// let a = DeadlockAnalysis::analyze(&p);
/// assert!(!a.is_free_for_all_k());
/// assert!(a.deadlocked_ring_sizes(6).contains(&1));
/// let (witnesses, truncated) = a.witnesses();
/// assert_eq!(witnesses[0].base_ring_size, 1);
/// assert!(!truncated);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct DeadlockAnalysis {
    free: bool,
    local_deadlock_count: usize,
    induced: DiGraph,
    bad_states: BitSet,
    space: LocalStateSpace,
    center: usize,
}

impl DeadlockAnalysis {
    /// Runs the analysis.
    pub fn analyze(protocol: &Protocol) -> Self {
        Self::analyze_prepared(protocol, &Rcg::build(protocol))
    }

    /// Runs the analysis against a pre-built RCG (useful when many revisions
    /// of the same protocol are analyzed, as in synthesis).
    pub fn analyze_prepared(protocol: &Protocol, rcg: &Rcg) -> Self {
        let deadlocks = protocol.local_deadlocks();
        let illegit = protocol.legit().negated();
        let bad_states: BitSet = {
            let mut b = deadlocks.as_bitset().clone();
            b.intersect_with(illegit.as_bitset());
            b
        };

        let induced = rcg.induced(&deadlocks);

        DeadlockAnalysis {
            free: no_bad_cycle(&induced, &bad_states),
            local_deadlock_count: deadlocks.len(),
            induced,
            bad_states,
            space: *protocol.space(),
            center: protocol.locality().center(),
        }
    }

    /// The Theorem 4.2 verdict: `true` iff `p(K)` has no global deadlock
    /// outside `I(K)` for **every** `K ≥ 1`.
    pub fn is_free_for_all_k(&self) -> bool {
        self.free
    }

    /// The same exact verdict after hypothetically resolving the local
    /// deadlocks in `resolve`: `true` iff the induced RCG without them has
    /// no cycle through an illegitimate local deadlock. `free_without(&[])`
    /// is [`DeadlockAnalysis::is_free_for_all_k`].
    ///
    /// # Panics
    ///
    /// Panics if a state of `resolve` is outside the local state space.
    pub fn free_without(&self, resolve: &[LocalStateId]) -> bool {
        no_bad_cycle(&self.without(resolve), &self.bad_states)
    }

    /// A counterexample to [`DeadlockAnalysis::free_without`]: `None` iff
    /// it holds, and otherwise a shortest cycle of the induced RCG without
    /// `resolve` through an illegitimate local deadlock (the smallest such
    /// state on a tie), found by breadth-first search after the SCC test.
    ///
    /// # Panics
    ///
    /// Panics if a state of `resolve` is outside the local state space.
    pub fn witness_without(&self, resolve: &[LocalStateId]) -> Option<DeadlockWitness> {
        let g = self.without(resolve);
        let on_cycles = vertices_on_cycles(&g);
        self.bad_states
            .iter()
            .filter(|&b| on_cycles.contains(b))
            .filter_map(|b| shortest_cycle_through(&g, b))
            .min_by_key(Vec::len)
            .map(|cycle| self.witness(&cycle))
    }

    /// Whether `s` is an illegitimate local deadlock.
    pub fn is_illegitimate_deadlock(&self, s: LocalStateId) -> bool {
        self.bad_states.contains(s.index())
    }

    /// The witness cycles, those of Johnson's enumeration of the induced
    /// RCG (under the default cycle budget) through an illegitimate local
    /// deadlock, shortest first, and whether the enumeration budget cut
    /// them short (the verdict itself is never affected). A free protocol
    /// has no witness, and nothing is enumerated for it.
    pub fn witnesses(&self) -> (Vec<DeadlockWitness>, bool) {
        if self.free {
            return (Vec::new(), false);
        }
        let e = simple_cycles(&self.induced, CycleBudget::default());
        let mut witnesses: Vec<DeadlockWitness> = e
            .through(&self.bad_states)
            .map(|cycle| self.witness(cycle))
            .collect();
        witnesses.sort_by_key(|w| w.base_ring_size);
        (witnesses, e.truncated)
    }

    /// The induced RCG without the states of `resolve`.
    fn without(&self, resolve: &[LocalStateId]) -> DiGraph {
        let mut keep = BitSet::full(self.induced.vertex_count());
        for s in resolve {
            keep.remove(s.index());
        }
        self.induced.induced(&keep)
    }

    /// The witness of a cycle of the induced RCG.
    fn witness(&self, cycle: &[usize]) -> DeadlockWitness {
        let ids: Vec<LocalStateId> = cycle.iter().map(|&v| LocalStateId(v as u32)).collect();
        let configuration = ids
            .iter()
            .map(|&s| self.space.value_at(s, self.center))
            .collect();
        DeadlockWitness {
            base_ring_size: ids.len(),
            cycle: ids,
            configuration,
        }
    }

    /// Number of local deadlock states.
    pub fn local_deadlock_count(&self) -> usize {
        self.local_deadlock_count
    }

    /// Number of illegitimate local deadlock states.
    pub fn illegitimate_deadlock_count(&self) -> usize {
        self.bad_states.len()
    }

    /// The **exact** set of ring sizes `1..=max_k` at which a global
    /// deadlock outside `I` exists.
    ///
    /// A ring of size `k` can be assembled entirely from local deadlocks
    /// with an illegitimate one included iff the deadlock-induced RCG has a
    /// *closed walk* of length exactly `k` through an illegitimate state —
    /// note: a closed walk, not necessarily a simple cycle. Combinations of
    /// cycles sharing vertices produce ring sizes beyond the multiples of
    /// single cycle lengths. (For the paper's Example 4.3 this matters: the
    /// TR claims deadlock-freedom for all `K` not divisible by 4 or 6, but
    /// `K = 7` is deadlocked via the walk `llsrlsr` combining the 4-cycle
    /// with a legitimate-deadlock detour — confirmed by global model
    /// checking in this workspace's experiments.)
    ///
    /// Computed by dynamic programming over walk lengths, independent of
    /// the witness enumeration budget.
    pub fn deadlocked_ring_sizes(&self, max_k: usize) -> Vec<usize> {
        let n = self.induced.vertex_count();
        let mut out = Vec::new();
        if self.bad_states.is_empty() {
            return out;
        }
        // reach[u] = can reach u from some bad vertex in exactly j steps
        // (per source; iterate sources to keep memory small).
        let mut sizes = vec![false; max_k + 1];
        for b in self.bad_states.iter() {
            let mut cur = vec![false; n];
            cur[b] = true;
            #[allow(clippy::needless_range_loop)] // k is the walk length, not just an index
            for k in 1..=max_k {
                let mut next = vec![false; n];
                #[allow(clippy::needless_range_loop)] // u indexes `cur` and the graph
                for u in 0..n {
                    if cur[u] {
                        for &v in self.induced.successors(u) {
                            next[v as usize] = true;
                        }
                    }
                }
                if next[b] {
                    sizes[k] = true;
                }
                cur = next;
            }
        }
        for (k, &hit) in sizes.iter().enumerate().skip(1) {
            if hit {
                out.push(k);
            }
        }
        out
    }
}

/// Theorem 4.2's test: no illegitimate local deadlock lies on a cycle of
/// the induced RCG ⟺ no global deadlock outside I exists at any K.
fn no_bad_cycle(induced: &DiGraph, bad_states: &BitSet) -> bool {
    let on_cycles = vertices_on_cycles(induced);
    bad_states.iter().all(|v| !on_cycles.contains(v))
}

/// A shortest cycle of `g` through `b`, as its vertices from `b` on: a
/// breadth-first search from `b` stops at the first arc back into `b`.
fn shortest_cycle_through(g: &DiGraph, b: usize) -> Option<Vec<usize>> {
    let mut parent = vec![usize::MAX; g.vertex_count()];
    let mut queue = VecDeque::from([b]);
    while let Some(u) = queue.pop_front() {
        for &v in g.successors(u) {
            let v = v as usize;
            if v == b {
                let mut cycle = vec![u];
                while cycle[cycle.len() - 1] != b {
                    cycle.push(parent[cycle[cycle.len() - 1]]);
                }
                cycle.reverse();
                return Some(cycle);
            }
            if parent[v] == usize::MAX {
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    None
}

impl std::fmt::Display for DeadlockAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deadlock-freedom (Theorem 4.2): {}",
            if self.free {
                "FREE for all K"
            } else {
                "NOT free"
            }
        )?;
        writeln!(
            f,
            "  local deadlocks: {} ({} illegitimate)",
            self.local_deadlock_count,
            self.illegitimate_deadlock_count()
        )?;
        if !self.free {
            let (witnesses, truncated) = self.witnesses();
            let lens: Vec<String> = witnesses
                .iter()
                .map(|w| w.base_ring_size.to_string())
                .collect();
            writeln!(
                f,
                "  witness cycle lengths: [{}]{}",
                lens.join(", "),
                if truncated { " (truncated)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    #[test]
    fn one_sided_agreement_is_free() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let a = DeadlockAnalysis::analyze(&p);
        assert!(a.is_free_for_all_k());
        assert_eq!(a.witnesses(), (Vec::new(), false));
        // deadlocks: 00, 11 (legitimate), 01 (illegitimate but acyclic in
        // the induced RCG? 01 -> 11/10; 10 resolved; so induced over
        // deadlocks {00,11,01}: 01 -> 11, 00 -> 01? 00's continuations are
        // 00,01 — both deadlocked. Cycle 00->00 is legitimate-only.)
        assert_eq!(a.local_deadlock_count(), 3);
        assert_eq!(a.illegitimate_deadlock_count(), 1);
    }

    #[test]
    fn empty_agreement_has_self_loop_witnesses_only_legit() {
        // Empty protocol: deadlocks everywhere. Cycles through 01/10 exist
        // (e.g. 01->10->01), so not free.
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let a = DeadlockAnalysis::analyze(&p);
        assert!(!a.is_free_for_all_k());
        // The 2-cycle 01<->10 witnesses even ring sizes.
        assert!(a.deadlocked_ring_sizes(8).contains(&2));
    }

    #[test]
    fn witness_configuration_matches_cycle() {
        let p = Protocol::builder("3col", Domain::numeric("c", 3), Locality::unidirectional())
            .legit("c[r] != c[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let a = DeadlockAnalysis::analyze(&p);
        assert!(!a.is_free_for_all_k());
        for w in a.witnesses().0 {
            assert_eq!(w.cycle.len(), w.base_ring_size);
            assert_eq!(w.configuration.len(), w.base_ring_size);
            // The configuration's windows are exactly the cycle's states.
            let sp = p.space();
            let n = w.base_ring_size;
            for (i, &s) in w.cycle.iter().enumerate() {
                let expect = vec![w.configuration[(i + n - 1) % n], w.configuration[i]];
                assert_eq!(sp.decode(s), expect);
            }
            assert!(w.covers_ring_size(w.base_ring_size * 3));
            assert!(!w.covers_ring_size(0));
        }
    }

    #[test]
    fn display_summarizes() {
        let p = Protocol::builder("3col", Domain::numeric("c", 3), Locality::unidirectional())
            .legit("c[r] != c[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let text = DeadlockAnalysis::analyze(&p).to_string();
        assert!(text.contains("NOT free"));
        assert!(text.contains("witness cycle lengths"));
    }
}
