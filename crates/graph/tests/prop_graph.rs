//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use selfstab_graph::{
    cycles::{has_cycle, simple_cycles, CycleBudget},
    hitting::minimal_hitting_sets,
    scc::{strongly_connected_components, vertices_on_cycles},
    BitSet, DiGraph,
};

fn arb_graph(max_n: usize, max_arcs: usize) -> impl Strategy<Value = DiGraph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=max_arcs).prop_map(move |arcs| {
            let mut g = DiGraph::new(n);
            for (u, v) in arcs {
                g.add_arc(u, v);
            }
            g
        })
    })
}

proptest! {
    /// Every vertex belongs to exactly one SCC, and components partition V.
    #[test]
    fn scc_is_a_partition(g in arb_graph(24, 80)) {
        let d = strongly_connected_components(&g);
        let mut seen = vec![false; g.vertex_count()];
        for (ci, comp) in d.components().iter().enumerate() {
            for &v in comp {
                prop_assert!(!seen[v], "vertex {v} in two components");
                seen[v] = true;
                prop_assert_eq!(d.component_of(v), ci);
            }
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// Tarjan emits components in reverse topological order.
    #[test]
    fn scc_reverse_topological(g in arb_graph(16, 60)) {
        let d = strongly_connected_components(&g);
        for (u, v) in g.arcs() {
            let cu = d.component_of(u);
            let cv = d.component_of(v);
            if cu != cv {
                // v's component must be emitted before u's.
                prop_assert!(cv < cu, "arc {u}->{v}: component order violated");
            }
        }
    }

    /// Every enumerated cycle is a real simple cycle of the graph, canonical.
    #[test]
    fn cycles_are_valid(g in arb_graph(10, 30)) {
        let e = simple_cycles(&g, CycleBudget { max_cycles: 50_000, ..CycleBudget::default() });
        for c in &e.cycles {
            prop_assert!(!c.is_empty());
            // arcs exist
            for i in 0..c.len() {
                let u = c[i];
                let v = c[(i + 1) % c.len()];
                prop_assert!(g.has_arc(u, v), "missing arc {u}->{v} in cycle {c:?}");
            }
            // simple
            let mut sorted = c.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), c.len(), "cycle not simple");
            // canonical: min vertex first
            prop_assert_eq!(*c.iter().min().unwrap(), c[0]);
        }
        // deduplicated
        let mut keys: Vec<Vec<usize>> = e.cycles.clone();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate cycles reported");
    }

    /// has_cycle agrees with the enumeration, and with vertices_on_cycles.
    #[test]
    fn cycle_detection_consistency(g in arb_graph(10, 30)) {
        let e = simple_cycles(&g, CycleBudget { max_cycles: 100_000, ..CycleBudget::default() });
        prop_assert!(!e.truncated);
        prop_assert_eq!(has_cycle(&g), !e.cycles.is_empty());
        let on = vertices_on_cycles(&g);
        let mut from_enum = BitSet::new(g.vertex_count());
        for c in &e.cycles {
            for &v in c {
                from_enum.insert(v);
            }
        }
        prop_assert_eq!(on.iter().collect::<Vec<_>>(), from_enum.iter().collect::<Vec<_>>());
    }

    /// Induced subgraph keeps exactly arcs inside the kept vertex set.
    #[test]
    fn induced_subgraph_correct(g in arb_graph(16, 60), seed in proptest::collection::vec(any::<bool>(), 16)) {
        let keep = BitSet::from_iter_with_capacity(
            g.vertex_count(),
            (0..g.vertex_count()).filter(|&v| seed[v % seed.len()]),
        );
        let sub = g.induced(&keep);
        for (u, v) in g.arcs() {
            prop_assert_eq!(sub.has_arc(u, v), keep.contains(u) && keep.contains(v));
        }
        for (u, v) in sub.arcs() {
            prop_assert!(g.has_arc(u, v));
        }
    }

    /// Minimal hitting sets: each hits every family, and none is a subset of
    /// another.
    #[test]
    fn hitting_sets_hit_and_are_minimal(
        fams in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..4), 0..5)
    ) {
        let hs = minimal_hitting_sets(&fams, 1000);
        for s in &hs {
            for f in &fams {
                prop_assert!(f.iter().any(|e| s.contains(e)), "{s:?} misses family {f:?}");
            }
        }
        for a in &hs {
            for b in &hs {
                if a != b {
                    prop_assert!(!a.iter().all(|e| b.contains(e)), "{a:?} subset of {b:?}");
                }
            }
        }
    }

    /// Minimal hitting sets are complete: over families drawn from 0..8,
    /// the result is exactly the minimal hitting sets among all 256
    /// subsets, in (size, lex) order, truncated at every cap.
    #[test]
    fn hitting_sets_are_the_brute_force_minimal_sets(
        fams in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..5), 0..7)
    ) {
        let hits = |mask: u32| fams.iter().all(|f| f.iter().any(|&e| mask >> e & 1 == 1));
        let mut expected: Vec<Vec<usize>> = (0u32..256)
            .filter(|&m| hits(m) && (0..8).all(|e| m >> e & 1 == 0 || !hits(m & !(1 << e))))
            .map(|m| (0..8).filter(|&e| m >> e & 1 == 1).collect())
            .collect();
        expected.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        for cap in 0..=expected.len() + 1 {
            prop_assert_eq!(
                minimal_hitting_sets(&fams, cap),
                &expected[..cap.min(expected.len())],
                "families {:?}, max_sets {}", &fams, cap
            );
        }
    }

    /// Minimal hitting sets depend on the families as a set of sets:
    /// duplicating families, reordering them, or permuting the elements
    /// inside them returns the same sets in the same order, truncated or
    /// not.
    #[test]
    fn hitting_sets_ignore_duplicates_and_order(
        fams in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..4), 0..5),
        copies in proptest::collection::vec(0usize..5, 0..6),
        shift in 0usize..4,
        max_sets in 1usize..6,
    ) {
        let mut shuffled: Vec<Vec<usize>> = fams.iter().rev().cloned().collect();
        for &i in &copies {
            if let Some(f) = fams.get(i) {
                shuffled.insert(i % (shuffled.len() + 1), f.clone());
            }
        }
        for (i, f) in shuffled.iter_mut().enumerate() {
            let n = f.len();
            f.rotate_left((i + shift) % n);
            if (i + shift) % 2 == 1 {
                f.reverse();
            }
        }
        for cap in [max_sets, 1000] {
            prop_assert_eq!(
                minimal_hitting_sets(&shuffled, cap),
                minimal_hitting_sets(&fams, cap),
                "families {:?} vs {:?}, max_sets {}", &shuffled, &fams, cap
            );
        }
    }
}
