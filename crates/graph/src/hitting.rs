//! Enumeration of minimal hitting sets.
//!
//! The Section 6 synthesis methodology computes the `Resolve` set as a
//! *minimal feedback subset* of the deadlock-induced RCG restricted to
//! illegitimate local states: a minimal set of vertices hitting every "bad"
//! cycle. We reduce feedback-subset enumeration to minimal-hitting-set
//! enumeration over the enumerated cycles (restricted to the allowed
//! vertices of each cycle).
//!
//! Enumeration is *iterative deepening on set size*: all minimal sets of
//! size `k` are produced (in lexicographic order) before any set of size
//! `k + 1` is considered. A set emitted at level `k` can therefore never be
//! a superset of a set the search has yet to find — so truncation via
//! `max_sets` is sound: every returned set is genuinely minimal, not merely
//! minimal among the sets the truncated search happened to visit.

use std::collections::BTreeSet;

/// Enumerates all *minimal* hitting sets of `families`, where each family is
/// the set of elements allowed to hit it.
///
/// A hitting set picks at least one element from every family; it is minimal
/// if no proper subset is also a hitting set. Families are given as sorted
/// element lists. Returns hitting sets as sorted element lists, deduplicated,
/// ordered by (size, lexicographic).
///
/// `max_sets` bounds the number of returned sets. Because enumeration
/// proceeds in (size, lex) order, truncation keeps a *prefix* of the full
/// answer — every returned set is minimal with respect to the complete
/// family, even when the search stops early.
///
/// # Examples
///
/// ```
/// use selfstab_graph::hitting::minimal_hitting_sets;
///
/// // Families {1,2} and {2,3}: minimal hitting sets are {2} and {1,3}.
/// let fams = vec![vec![1, 2], vec![2, 3]];
/// let hs = minimal_hitting_sets(&fams, 10);
/// assert_eq!(hs, vec![vec![2], vec![1, 3]]);
/// ```
///
/// An empty family can never be hit, so the result is empty:
///
/// ```
/// use selfstab_graph::hitting::minimal_hitting_sets;
/// assert!(minimal_hitting_sets(&[vec![]], 10).is_empty());
/// ```
pub fn minimal_hitting_sets(families: &[Vec<usize>], max_sets: usize) -> Vec<Vec<usize>> {
    // The cap comes first: with no family, the one hitting set is the
    // empty set, and a zero cap returns none.
    if max_sets == 0 || families.iter().any(|f| f.is_empty()) {
        return Vec::new();
    }
    if families.is_empty() {
        return vec![Vec::new()];
    }

    // Iterative deepening: level `k` enumerates exactly the minimal hitting
    // sets of size `k`. A branch whose partial set already covers a
    // previously found minimal set can only complete to a superset, so it is
    // pruned; a branch that hits every family *before* reaching size `k` was
    // already found at a shallower level, so it is not re-emitted.
    let mut minimal: Vec<Vec<usize>> = Vec::new();
    for k in 1..=families.len() {
        if minimal.len() >= max_sets {
            break;
        }
        let mut level: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut current: Vec<usize> = Vec::new();
        search_level(families, &mut current, k, &minimal, &mut level);
        for set in level {
            if minimal.len() >= max_sets {
                break;
            }
            // Two distinct sets of equal size cannot contain one another, so
            // a level is internally superset-free; crossing levels is handled
            // by the pruning inside `search_level`.
            minimal.push(set);
        }
    }
    minimal
}

/// Depth-limited branch on the first un-hit family: records every hitting
/// set of size exactly `k` that is not a superset of an already-found
/// minimal set.
fn search_level(
    families: &[Vec<usize>],
    current: &mut Vec<usize>,
    k: usize,
    minimal: &[Vec<usize>],
    level: &mut BTreeSet<Vec<usize>>,
) {
    if covers_some(minimal, current) {
        return; // any completion is a superset of a known minimal set
    }
    let unhit = families
        .iter()
        .position(|f| !f.iter().any(|e| current.contains(e)));
    match unhit {
        None => {
            // Hit everything with fewer than `k` picks: this set belongs to
            // an earlier level (where it was emitted or pruned) — skip.
            if current.len() == k {
                let mut set = current.clone();
                set.sort_unstable();
                level.insert(set);
            }
        }
        Some(idx) => {
            if current.len() >= k {
                return; // size budget exhausted with families still un-hit
            }
            // Elements of an un-hit family are never already in `current`
            // (otherwise the family would be hit), so no dedup is needed.
            for &e in &families[idx] {
                current.push(e);
                search_level(families, current, k, minimal, level);
                current.pop();
            }
        }
    }
}

/// Whether `current` is a (non-strict) superset of some already-found
/// minimal set.
fn covers_some(minimal: &[Vec<usize>], current: &[usize]) -> bool {
    minimal
        .iter()
        .any(|m| m.iter().all(|e| current.contains(e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_families_hit_by_empty_set() {
        assert_eq!(minimal_hitting_sets(&[], 10), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn single_family_each_singleton() {
        let hs = minimal_hitting_sets(&[vec![1, 2, 3]], 10);
        assert_eq!(hs, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn shared_element_dominates() {
        let fams = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        let hs = minimal_hitting_sets(&fams, 100);
        assert!(hs.contains(&vec![0]));
        assert!(hs.contains(&vec![1, 2, 3]));
        // {0,1} is not minimal.
        assert!(!hs.iter().any(|s| s == &vec![0, 1]));
    }

    #[test]
    fn disjoint_families_need_one_each() {
        let fams = vec![vec![1], vec![2], vec![3]];
        let hs = minimal_hitting_sets(&fams, 10);
        assert_eq!(hs, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn duplicate_elements_within_branching_dedup() {
        let fams = vec![vec![1, 2], vec![1, 2]];
        let hs = minimal_hitting_sets(&fams, 10);
        assert_eq!(hs, vec![vec![1], vec![2]]);
    }

    #[test]
    fn max_sets_truncates() {
        let fams = vec![vec![1, 2, 3, 4, 5]];
        let hs = minimal_hitting_sets(&fams, 2);
        assert_eq!(hs, vec![vec![1], vec![2]]);
    }

    /// Regression for the truncation-soundness bug: with families
    /// {1,2} and {2,3}, branching on the first family explores the partial
    /// set {1} before {2}, and the completed set {1,2} (hit the second
    /// family via 2) before the singleton {2}. The old search stopped at
    /// `max_sets = 1` *before* the minimality filter ran, returning the
    /// non-minimal {1,2}. Size-ordered enumeration must return {2}.
    #[test]
    fn truncation_never_returns_a_superset_of_an_unfound_minimal_set() {
        let fams = vec![vec![1, 2], vec![2, 3]];
        assert_eq!(minimal_hitting_sets(&fams, 1), vec![vec![2]]);
    }

    /// Truncated answers are prefixes of the full (size, lex) enumeration.
    #[test]
    fn truncated_result_is_a_prefix_of_the_full_enumeration() {
        let fams = vec![vec![0, 1], vec![0, 2], vec![1, 3], vec![2, 3]];
        let full = minimal_hitting_sets(&fams, usize::MAX);
        for n in 0..=full.len() {
            assert_eq!(minimal_hitting_sets(&fams, n), full[..n]);
        }
    }

    /// The output respects (size, lexicographic) order globally.
    #[test]
    fn output_is_size_then_lex_ordered() {
        let fams = vec![vec![0, 1, 4], vec![1, 2], vec![2, 3, 4]];
        let hs = minimal_hitting_sets(&fams, usize::MAX);
        for w in hs.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(a.len() < b.len() || (a.len() == b.len() && a < b));
        }
    }

    #[test]
    fn max_sets_zero_returns_nothing() {
        assert!(minimal_hitting_sets(&[vec![1]], 0).is_empty());
    }

    /// With no family the one minimal hitting set is the empty set, and a
    /// zero cap still returns none.
    #[test]
    fn max_sets_zero_caps_the_empty_answer_too() {
        assert!(minimal_hitting_sets(&[], 0).is_empty());
        assert_eq!(minimal_hitting_sets(&[], 1), vec![Vec::<usize>::new()]);
    }
}
