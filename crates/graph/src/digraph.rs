//! A compact directed graph over integer vertices.

use crate::bitset::BitSet;

/// A directed graph over vertices `0..n`, stored as forward adjacency lists.
///
/// Parallel arcs are collapsed (each `(u, v)` pair is stored at most once);
/// self-loops are allowed and significant — in a Right Continuation Graph a
/// self-loop on a local deadlock is a cycle of length 1 and witnesses global
/// deadlocks at every ring size.
///
/// # Examples
///
/// ```
/// use selfstab_graph::DiGraph;
///
/// let mut g = DiGraph::new(2);
/// assert!(g.add_arc(0, 1));
/// assert!(!g.add_arc(0, 1)); // duplicate collapsed
/// assert!(g.add_arc(1, 1));  // self-loop
/// assert_eq!(g.arc_count(), 2);
/// assert!(g.has_arc(1, 1));
/// assert_eq!(g.successors(0), &[1]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
    arc_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` vertices and no arcs.
    pub fn new(n: usize) -> Self {
        DiGraph {
            adj: vec![Vec::new(); n],
            arc_count: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Adds the arc `u -> v`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_arc(&mut self, u: usize, v: usize) -> bool {
        assert!(v < self.adj.len(), "target vertex {v} out of range");
        let list = &mut self.adj[u];
        let v32 = v as u32;
        match list.binary_search(&v32) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, v32);
                self.arc_count += 1;
                true
            }
        }
    }

    /// Returns `true` if the arc `u -> v` is present.
    pub fn has_arc(&self, u: usize, v: usize) -> bool {
        u < self.adj.len() && self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// The successors of `u`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.adj[u]
    }

    /// Iterates over all arcs as `(source, target)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v as usize)))
    }

    /// Builds the subgraph induced by `keep`: the vertex set is unchanged but
    /// only arcs whose both endpoints are in `keep` survive.
    ///
    /// This matches the paper's notion of the RCG "induced over local
    /// deadlocks" while keeping vertex identities stable, which keeps local
    /// state ids meaningful across analyses.
    ///
    /// # Panics
    ///
    /// Panics if `keep.capacity() != vertex_count()`.
    pub fn induced(&self, keep: &BitSet) -> DiGraph {
        assert_eq!(
            keep.capacity(),
            self.vertex_count(),
            "induced-subgraph vertex set capacity mismatch"
        );
        let mut g = DiGraph::new(self.vertex_count());
        for (u, v) in self.arcs() {
            if keep.contains(u) && keep.contains(v) {
                g.add_arc(u, v);
            }
        }
        g
    }
}

impl FromIterator<(usize, usize)> for DiGraph {
    /// Builds a graph just large enough to hold all mentioned vertices.
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let arcs: Vec<(usize, usize)> = iter.into_iter().collect();
        let n = arcs.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        let mut g = DiGraph::new(n);
        for (u, v) in arcs {
            g.add_arc(u, v);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        [(0, 1), (1, 3), (0, 2), (2, 3)].into_iter().collect()
    }

    #[test]
    fn basic_construction() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.arc_count(), 4);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
        assert_eq!(g.successors(0), &[1, 2]);
    }

    #[test]
    fn duplicates_collapse() {
        let mut g = DiGraph::new(2);
        assert!(g.add_arc(0, 1));
        assert!(!g.add_arc(0, 1));
        assert_eq!(g.arc_count(), 1);
    }

    #[test]
    fn induced_subgraph_drops_crossing_arcs() {
        let g = diamond();
        let keep = BitSet::from_iter_with_capacity(4, [0, 1, 3]);
        let sub = g.induced(&keep);
        assert!(sub.has_arc(0, 1));
        assert!(sub.has_arc(1, 3));
        assert!(!sub.has_arc(0, 2));
        assert!(!sub.has_arc(2, 3));
        assert_eq!(sub.arc_count(), 2);
    }

    #[test]
    fn self_loop_counts_as_arc() {
        let mut g = DiGraph::new(1);
        g.add_arc(0, 0);
        assert!(g.has_arc(0, 0));
        assert_eq!(g.arc_count(), 1);
    }

    #[test]
    fn arcs_iterator_matches() {
        let g = diamond();
        let mut arcs: Vec<_> = g.arcs().collect();
        arcs.sort_unstable();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }
}
