//! Enumeration of simple directed cycles (Johnson's algorithm) with budgets.
//!
//! Theorem 4.2 of the paper turns each directed cycle of the
//! deadlock-induced RCG through an illegitimate local state into a family of
//! global deadlocks (for every ring size that is a multiple of the cycle
//! length), so enumerating the actual cycles — not just detecting them —
//! yields precise counterexample ring sizes.

use crate::bitset::BitSet;
use crate::digraph::DiGraph;
use crate::scc::strongly_connected_components;

/// Budget limits for cycle enumeration.
///
/// Johnson's algorithm is output-sensitive but the number of simple cycles
/// can be exponential; both limits guard against pathological inputs. When a
/// limit is hit the enumeration stops early and marks the result truncated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleBudget {
    /// Maximum number of cycles to collect.
    pub max_cycles: usize,
    /// Maximum number of search steps before giving up.
    pub max_steps: usize,
}

impl Default for CycleBudget {
    fn default() -> Self {
        CycleBudget {
            max_cycles: 10_000,
            max_steps: 5_000_000,
        }
    }
}

/// The outcome of a cycle enumeration.
#[derive(Clone, Debug, Default)]
pub struct CycleEnumeration {
    /// The simple cycles found. Each cycle is a vertex list
    /// `[v0, v1, ..., vk]` with arcs `v0->v1->...->vk->v0`; the smallest
    /// vertex id appears first, making cycles canonical and deduplicated.
    pub cycles: Vec<Vec<usize>>,
    /// `true` if a budget limit stopped the enumeration before completion.
    pub truncated: bool,
}

impl CycleEnumeration {
    /// Cycles that pass through at least one vertex of `set`.
    pub fn through<'a>(&'a self, set: &'a BitSet) -> impl Iterator<Item = &'a Vec<usize>> + 'a {
        self.cycles
            .iter()
            .filter(move |c| c.iter().any(|&v| set.contains(v)))
    }
}

struct Johnson<'g> {
    g: &'g DiGraph,
    blocked: Vec<bool>,
    block_map: Vec<Vec<usize>>,
    stack: Vec<usize>,
    start: usize,
    budget: CycleBudget,
    steps: usize,
    out: CycleEnumeration,
}

impl Johnson<'_> {
    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        let pending = std::mem::take(&mut self.block_map[v]);
        for w in pending {
            if self.blocked[w] {
                self.unblock(w);
            }
        }
    }

    /// Returns `true` if a cycle through `start` was found below `v`.
    fn circuit(&mut self, v: usize, scc_members: &BitSet) -> bool {
        if self.out.truncated {
            return false;
        }
        self.steps += 1;
        if self.steps > self.budget.max_steps || self.out.cycles.len() >= self.budget.max_cycles {
            self.out.truncated = true;
            return false;
        }
        let mut found = false;
        self.stack.push(v);
        self.blocked[v] = true;
        // A copy of the graph reference: the successor slice borrows the
        // graph, not `self`, so the recursion below needs no per-call list.
        let g = self.g;
        for &w in g.successors(v) {
            let w = w as usize;
            if w < self.start || !scc_members.contains(w) {
                continue;
            }
            if w == self.start {
                // Length-1 cycles (self-loops) are handled by the pre-pass in
                // `simple_cycles`; recording them here would duplicate them.
                if self.stack.len() >= 2 && self.out.cycles.len() < self.budget.max_cycles {
                    self.out.cycles.push(self.stack.clone());
                }
                found = true;
            } else if !self.blocked[w] && self.circuit(w, scc_members) {
                found = true;
            }
            if self.out.truncated {
                break;
            }
        }
        if found {
            self.unblock(v);
        } else {
            for &w in self.g.successors(v) {
                let w = w as usize;
                if w >= self.start && scc_members.contains(w) && !self.block_map[w].contains(&v) {
                    self.block_map[w].push(v);
                }
            }
        }
        self.stack.pop();
        found
    }
}

/// Enumerates the simple directed cycles of `g` within the given budget.
///
/// Self-loops are reported as length-1 cycles. Each cycle is canonical: it
/// starts at its smallest vertex, so no cycle is reported twice.
///
/// # Examples
///
/// ```
/// use selfstab_graph::{DiGraph, cycles::{simple_cycles, CycleBudget}};
///
/// // Two cycles sharing vertex 0: 0->1->0 and 0->2->3->0.
/// let g: DiGraph = [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)].into_iter().collect();
/// let e = simple_cycles(&g, CycleBudget::default());
/// assert!(!e.truncated);
/// let mut lens: Vec<usize> = e.cycles.iter().map(|c| c.len()).collect();
/// lens.sort_unstable();
/// assert_eq!(lens, vec![2, 3]);
/// ```
pub fn simple_cycles(g: &DiGraph, budget: CycleBudget) -> CycleEnumeration {
    let n = g.vertex_count();
    let mut j = Johnson {
        g,
        blocked: vec![false; n],
        block_map: vec![Vec::new(); n],
        stack: Vec::new(),
        start: 0,
        budget,
        steps: 0,
        out: CycleEnumeration::default(),
    };

    // Self-loops first (Johnson's formulation excludes them).
    for v in 0..n {
        if g.has_arc(v, v) {
            if j.out.cycles.len() >= budget.max_cycles {
                j.out.truncated = true;
                break;
            }
            j.out.cycles.push(vec![v]);
        }
    }

    for start in 0..n {
        if j.out.truncated {
            break;
        }
        // Work within the SCC (of the subgraph induced on vertices >= start)
        // containing `start`.
        let keep = BitSet::from_iter_with_capacity(n, start..n);
        let sub = g.induced(&keep);
        let sccs = strongly_connected_components(&sub);
        let comp = &sccs.components()[sccs.component_of(start)];
        if comp.len() < 2 {
            continue;
        }
        let members = BitSet::from_iter_with_capacity(n, comp.iter().copied());
        j.start = start;
        for v in 0..n {
            j.blocked[v] = false;
            j.block_map[v].clear();
        }
        j.circuit(start, &members);
    }
    j.out
}

/// Returns `true` if `g` has any directed cycle (self-loops count).
pub fn has_cycle(g: &DiGraph) -> bool {
    if (0..g.vertex_count()).any(|v| g.has_arc(v, v)) {
        return true;
    }
    let sccs = strongly_connected_components(g);
    sccs.components().iter().any(|c| c.len() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_plus_selfloop() {
        let g: DiGraph = [(0, 1), (1, 2), (2, 0), (1, 1)].into_iter().collect();
        let e = simple_cycles(&g, CycleBudget::default());
        assert!(!e.truncated);
        let mut lens: Vec<usize> = e.cycles.iter().map(|c| c.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 3]);
    }

    #[test]
    fn complete_graph_k4_has_20_cycles() {
        // K4 (directed both ways) has 6*2-cycles? Known count of simple
        // directed cycles in complete digraph on 4 vertices: C(4,2)=6 of
        // length 2, 4*2=8 of length 3, 3*2=6 of length 4 => 20.
        let mut g = DiGraph::new(4);
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    g.add_arc(u, v);
                }
            }
        }
        let e = simple_cycles(&g, CycleBudget::default());
        assert!(!e.truncated);
        assert_eq!(e.cycles.len(), 20);
    }

    #[test]
    fn cycles_are_canonical_and_unique() {
        let g: DiGraph = [(0, 1), (1, 2), (2, 0)].into_iter().collect();
        let e = simple_cycles(&g, CycleBudget::default());
        assert_eq!(e.cycles, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn budget_truncates() {
        let mut g = DiGraph::new(8);
        for u in 0..8 {
            for v in 0..8 {
                if u != v {
                    g.add_arc(u, v);
                }
            }
        }
        let e = simple_cycles(
            &g,
            CycleBudget {
                max_cycles: 5,
                ..CycleBudget::default()
            },
        );
        assert!(e.truncated);
        assert_eq!(e.cycles.len(), 5);
    }

    #[test]
    fn dag_has_no_cycles() {
        let g: DiGraph = [(0, 1), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        assert!(!has_cycle(&g));
        assert!(simple_cycles(&g, CycleBudget::default()).cycles.is_empty());
    }

    #[test]
    fn through_filter() {
        let g: DiGraph = [(0, 1), (1, 0), (2, 3), (3, 2)].into_iter().collect();
        let e = simple_cycles(&g, CycleBudget::default());
        let set = BitSet::from_iter_with_capacity(4, [2]);
        let hits: Vec<_> = e.through(&set).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], &vec![2, 3]);
    }
}
