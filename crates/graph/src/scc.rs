//! Strongly-connected components (iterative Tarjan) and the vertices on
//! cycles.

use crate::bitset::BitSet;
use crate::digraph::DiGraph;

/// The result of an SCC decomposition.
///
/// Components are produced in reverse topological order of the condensation
/// (a Tarjan property): if component `a` can reach component `b` (`a != b`)
/// then `b` appears before `a` in [`SccDecomposition::components`].
#[derive(Clone, Debug)]
pub struct SccDecomposition {
    components: Vec<Vec<usize>>,
    component_of: Vec<usize>,
}

impl SccDecomposition {
    /// The components, each a list of vertices.
    pub fn components(&self) -> &[Vec<usize>] {
        &self.components
    }

    /// The component index of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: usize) -> usize {
        self.component_of[v]
    }
}

/// Computes the strongly-connected components of `g` with an iterative
/// Tarjan algorithm (no recursion, safe for large state graphs).
///
/// # Examples
///
/// ```
/// use selfstab_graph::{DiGraph, scc::strongly_connected_components};
///
/// let g: DiGraph = [(0, 1), (1, 0), (1, 2)].into_iter().collect();
/// let d = strongly_connected_components(&g);
/// assert_eq!(d.components().len(), 2);
/// assert_eq!(d.component_of(0), d.component_of(1));
/// assert_ne!(d.component_of(0), d.component_of(2));
/// ```
pub fn strongly_connected_components(g: &DiGraph) -> SccDecomposition {
    let n = g.vertex_count();
    const UNVISITED: usize = usize::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut component_of = vec![UNVISITED; n];

    // Explicit DFS frames: (vertex, next-successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let succs = g.successors(v);
            if *pos < succs.len() {
                let w = succs[*pos] as usize;
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component_of[w] = components.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }

    SccDecomposition {
        components,
        component_of,
    }
}

/// Returns the set of vertices that lie on at least one directed cycle:
/// members of a multi-vertex SCC, or vertices with a self-loop.
///
/// This is the workhorse of the Theorem 4.2 deadlock-freedom check: a local
/// deadlock is part of a "bad" structure iff it lies on a cycle of the
/// deadlock-induced RCG.
///
/// # Examples
///
/// ```
/// use selfstab_graph::{DiGraph, scc::vertices_on_cycles};
///
/// let g: DiGraph = [(0, 1), (1, 0), (1, 2), (3, 3)].into_iter().collect();
/// let on = vertices_on_cycles(&g);
/// assert!(on.contains(0) && on.contains(1) && on.contains(3));
/// assert!(!on.contains(2));
/// ```
pub fn vertices_on_cycles(g: &DiGraph) -> BitSet {
    let sccs = strongly_connected_components(g);
    let mut out = BitSet::new(g.vertex_count());
    for v in 0..g.vertex_count() {
        if sccs.components()[sccs.component_of(v)].len() > 1 || g.has_arc(v, v) {
            out.insert(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_in_dag() {
        let g: DiGraph = [(0, 1), (1, 2), (2, 3)].into_iter().collect();
        let d = strongly_connected_components(&g);
        assert_eq!(d.components().len(), 4);
        assert!(vertices_on_cycles(&g).is_empty());
    }

    #[test]
    fn two_cycles_bridge() {
        // cycle {0,1}, cycle {2,3}, bridge 1->2
        let g: DiGraph = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
            .into_iter()
            .collect();
        let d = strongly_connected_components(&g);
        assert_eq!(d.components().len(), 2);
        let on = vertices_on_cycles(&g);
        assert_eq!(on.len(), 4);
        // reverse topological order: {2,3} is emitted before {0,1}
        assert_eq!(d.components()[0], vec![2, 3]);
        assert_eq!(d.components()[1], vec![0, 1]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g: DiGraph = [(0, 0), (0, 1)].into_iter().collect();
        let on = vertices_on_cycles(&g);
        assert!(on.contains(0));
        assert!(!on.contains(1));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        let d = strongly_connected_components(&g);
        assert!(d.components().is_empty());
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        // 200k-vertex path: recursion would blow the stack; iteration must not.
        let n = 200_000;
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_arc(i, i + 1);
        }
        let d = strongly_connected_components(&g);
        assert_eq!(d.components().len(), n);
    }
}
