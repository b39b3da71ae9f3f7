//! Pseudo-livelocks (Definition 5.13): subsets of local transitions whose
//! projection on the writable variable forms a repeating value sequence.

use selfstab_graph::{scc::strongly_connected_components, DiGraph};
use selfstab_protocol::{LocalStateSpace, LocalTransition, Locality};

/// The projection of a set of local transitions on the writable variable:
/// a directed graph over domain values with an arc `old → new` for each
/// transition writing `new` from a state whose own value is `old`.
pub fn value_projection(
    transitions: &[LocalTransition],
    space: &LocalStateSpace,
    locality: Locality,
) -> DiGraph {
    let mut g = DiGraph::new(space.domain_size());
    for t in transitions {
        let (old, new) = t.write_projection(space, locality);
        g.add_arc(old as usize, new as usize);
    }
    g
}

/// Returns `true` if `transitions` *as a whole* form a pseudo-livelock:
/// the set is non-empty and its value projection admits a closed walk
/// covering every projected arc — equivalently, all projected arcs lie in a
/// single strongly connected component.
///
/// This matches the paper's examples: `{t01, t12, t20}` projects to the
/// cycle `0→1→2→0` (a pseudo-livelock), while `{t01, t12, t21}` projects to
/// `0→1` plus the cycle `1⇄2` — the arc `0→1` is not on any cycle, so the
/// set as a whole is not a pseudo-livelock (though its subset `{t12, t21}`
/// is).
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, LocalStateSpace, LocalTransition};
/// use selfstab_core::pseudo::forms_pseudo_livelock;
///
/// let d = Domain::numeric("x", 3);
/// let loc = Locality::unidirectional();
/// let sp = LocalStateSpace::new(&d, loc);
/// let t01 = LocalTransition::new(sp.encode(&[0, 0]), 1);
/// let t12 = LocalTransition::new(sp.encode(&[1, 1]), 2);
/// let t20 = LocalTransition::new(sp.encode(&[2, 2]), 0);
/// let t21 = LocalTransition::new(sp.encode(&[2, 2]), 1);
///
/// assert!(forms_pseudo_livelock(&[t01, t12, t20], &sp, loc));
/// assert!(!forms_pseudo_livelock(&[t01, t12, t21], &sp, loc));
/// assert!(forms_pseudo_livelock(&[t12, t21], &sp, loc));
/// ```
pub fn forms_pseudo_livelock(
    transitions: &[LocalTransition],
    space: &LocalStateSpace,
    locality: Locality,
) -> bool {
    if transitions.is_empty() {
        return false;
    }
    let g = value_projection(transitions, space, locality);
    let sccs = strongly_connected_components(&g);
    // Every arc must lie inside one common SCC (and on a cycle within it).
    let mut component = None;
    for (u, v) in g.arcs() {
        let cu = sccs.component_of(u);
        if sccs.component_of(v) != cu {
            return false; // arc between components: not on any cycle
        }
        if sccs.components()[cu].len() == 1 && !g.has_arc(u, u) {
            return false; // singleton without self-loop: no cycle
        }
        match component {
            None => component = Some(cu),
            Some(c) if c == cu => {}
            Some(_) => return false, // two disjoint cyclic families
        }
    }
    true
}

/// Returns `true` if `transitions` form a (possibly disjoint) *union of
/// pseudo-livelocks*: the set is non-empty and every projected value arc
/// lies on a directed cycle within the set's own projection.
///
/// This is Theorem 5.14's condition 2 as it applies to the t-arcs of a
/// trail: in a livelock every process's write sequence repeats, so each
/// used t-arc's projection must close into a cycle among the used arcs —
/// but different processes may follow different cycles, hence the union.
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, LocalStateSpace, LocalTransition};
/// use selfstab_core::pseudo::forms_pseudo_livelock_union;
///
/// let d = Domain::numeric("x", 4);
/// let loc = Locality::unidirectional();
/// let sp = LocalStateSpace::new(&d, loc);
/// let swap01 = [
///     LocalTransition::new(sp.encode(&[0, 0]), 1),
///     LocalTransition::new(sp.encode(&[0, 1]), 0),
/// ];
/// let swap23 = [
///     LocalTransition::new(sp.encode(&[0, 2]), 3),
///     LocalTransition::new(sp.encode(&[0, 3]), 2),
/// ];
/// let both: Vec<_> = swap01.iter().chain(&swap23).copied().collect();
/// // Two disjoint cycles: a union of pseudo-livelocks (though not a single
/// // pseudo-livelock).
/// assert!(forms_pseudo_livelock_union(&both, &sp, loc));
/// // A dangling arc disqualifies the set.
/// let with_dangling: Vec<_> = both
///     .iter()
///     .copied()
///     .chain([LocalTransition::new(sp.encode(&[1, 0]), 2)])
///     .collect();
/// assert!(!forms_pseudo_livelock_union(&with_dangling, &sp, loc));
/// ```
pub fn forms_pseudo_livelock_union(
    transitions: &[LocalTransition],
    space: &LocalStateSpace,
    locality: Locality,
) -> bool {
    if transitions.is_empty() {
        return false;
    }
    let g = value_projection(transitions, space, locality);
    let sccs = strongly_connected_components(&g);
    let ok = g.arcs().all(|(u, v)| {
        sccs.component_of(u) == sccs.component_of(v)
            && (sccs.components()[sccs.component_of(u)].len() > 1 || g.has_arc(u, u))
    });
    ok
}

/// Returns the subset of `transitions` that can participate in *some*
/// pseudo-livelock: transitions whose projected value arc lies on a
/// directed cycle of the full value projection.
///
/// Theorem 5.14's condition 2 requires the t-arcs of a livelock's trail to
/// form pseudo-livelocks; since any pseudo-livelock within a candidate set
/// projects into cycles of the candidate set's value projection, a trail's
/// t-arcs are always drawn from this subset. Restricting the trail search
/// to it is therefore complete (never misses a qualifying trail).
pub fn pseudo_livelock_support(
    transitions: &[LocalTransition],
    space: &LocalStateSpace,
    locality: Locality,
) -> Vec<LocalTransition> {
    let g = value_projection(transitions, space, locality);
    let sccs = strongly_connected_components(&g);
    transitions
        .iter()
        .copied()
        .filter(|t| {
            let (old, new) = t.write_projection(space, locality);
            let (u, v) = (old as usize, new as usize);
            sccs.component_of(u) == sccs.component_of(v)
                && (sccs.components()[sccs.component_of(u)].len() > 1 || g.has_arc(u, u))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::Domain;

    fn setup() -> (LocalStateSpace, Locality) {
        let d = Domain::numeric("x", 3);
        let loc = Locality::unidirectional();
        (LocalStateSpace::new(&d, loc), loc)
    }

    fn t(sp: &LocalStateSpace, pred: u8, old: u8, new: u8) -> LocalTransition {
        LocalTransition::new(sp.encode(&[pred, old]), new)
    }

    #[test]
    fn empty_set_is_not_a_pseudo_livelock() {
        let (sp, loc) = setup();
        assert!(!forms_pseudo_livelock(&[], &sp, loc));
    }

    #[test]
    fn single_transition_is_not_cyclic() {
        let (sp, loc) = setup();
        assert!(!forms_pseudo_livelock(&[t(&sp, 0, 0, 1)], &sp, loc));
    }

    #[test]
    fn two_way_swap_is_a_pseudo_livelock() {
        let (sp, loc) = setup();
        // Different guards (predecessor values) — projections 0->2 and 2->0.
        let set = [t(&sp, 0, 0, 2), t(&sp, 1, 2, 0)];
        assert!(forms_pseudo_livelock(&set, &sp, loc));
    }

    #[test]
    fn disjoint_cycles_are_not_one_repetitive_sequence() {
        let d = Domain::numeric("x", 4);
        let loc = Locality::unidirectional();
        let sp = LocalStateSpace::new(&d, loc);
        let set = [
            LocalTransition::new(sp.encode(&[0, 0]), 1),
            LocalTransition::new(sp.encode(&[0, 1]), 0),
            LocalTransition::new(sp.encode(&[0, 2]), 3),
            LocalTransition::new(sp.encode(&[0, 3]), 2),
        ];
        assert!(!forms_pseudo_livelock(&set, &sp, loc));
        // But each half is.
        assert!(forms_pseudo_livelock(&set[..2], &sp, loc));
        assert!(forms_pseudo_livelock(&set[2..], &sp, loc));
    }

    #[test]
    fn support_filters_acyclic_arcs() {
        let (sp, loc) = setup();
        let t01 = t(&sp, 0, 0, 1);
        let t12 = t(&sp, 1, 1, 2);
        let t21 = t(&sp, 2, 2, 1);
        let support = pseudo_livelock_support(&[t01, t12, t21], &sp, loc);
        assert_eq!(support, vec![t12, t21]);
    }
}
