//! Enumeration of minimal hitting sets.
//!
//! The Section 6 synthesis methodology computes the `Resolve` set as a
//! *minimal feedback subset* of the deadlock-induced RCG restricted to
//! illegitimate local states: a minimal set of vertices hitting every "bad"
//! cycle. Synthesis reduces this to minimal-hitting-set enumeration over the
//! illegitimate states of the bad cycles it has found so far.
//!
//! Enumeration is *iterative deepening on set size*: all minimal sets of
//! size `k` are produced, in lexicographic order, before any set of size
//! `k + 1` is considered, so truncation via `max_sets` is sound: every
//! returned set is genuinely minimal, not merely minimal among the sets the
//! truncated search happened to visit.

/// Enumerates all *minimal* hitting sets of `families`, where each family is
/// the set of elements allowed to hit it.
///
/// A hitting set picks at least one element from every family; it is minimal
/// if no proper subset is also a hitting set. Families are element lists in
/// any order. Returns hitting sets as sorted element lists, deduplicated,
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
    let mut elements = families.concat();
    elements.sort_unstable();
    elements.dedup();
    // A minimal hitting set needs a private family per element, so it has
    // at most one element per family.
    let mut minimal = Vec::new();
    for k in 0..=families.len() {
        if minimal.len() >= max_sets {
            break;
        }
        search_level(
            families,
            &elements,
            &mut Vec::new(),
            k,
            max_sets,
            &mut minimal,
        );
    }
    minimal
}

/// Depth-first search of one level, picking elements in increasing order:
/// records, in lexicographic order, every hitting set of size exactly `k`
/// that extends `current` and is not a superset of an already-found minimal
/// set, until `max_sets` sets are known. Each pick must hit an unhit family,
/// as every element of a minimal set does when the elements are picked in
/// order. A branch is cut when it covers a found set, when an unhit family
/// has no element left above the last pick, or when more pairwise-disjoint
/// unhit families remain than picks.
fn search_level(
    families: &[Vec<usize>],
    elements: &[usize],
    current: &mut Vec<usize>,
    k: usize,
    max_sets: usize,
    minimal: &mut Vec<Vec<usize>>,
) {
    if minimal
        .iter()
        .any(|m| m.iter().all(|e| current.contains(e)))
    {
        return; // any completion is a superset of a known minimal set
    }
    let next = current.last().map_or(0, |&e| e + 1);
    let unhit: Vec<&Vec<usize>> = families
        .iter()
        .filter(|f| !f.iter().any(|e| current.contains(e)))
        .collect();
    if unhit.is_empty() {
        // With fewer than `k` picks the set belongs to an earlier level.
        if current.len() == k {
            minimal.push(current.clone());
        }
        return;
    }
    let (mut packed, mut disjoint, mut last) = (Vec::new(), 0, usize::MAX);
    for f in &unhit {
        let left = || f.iter().filter(|&&e| e >= next);
        let Some(&max) = left().max() else {
            return;
        };
        last = last.min(max);
        if !left().any(|e| packed.contains(e)) {
            packed.extend(left());
            disjoint += 1;
        }
    }
    if disjoint > k - current.len() {
        return;
    }
    for &e in elements[elements.partition_point(|&e| e < next)..]
        .iter()
        .take_while(|&&e| e <= last)
    {
        if unhit.iter().any(|f| f.contains(&e)) {
            current.push(e);
            search_level(families, elements, current, k, max_sets, minimal);
            current.pop();
            if minimal.len() >= max_sets {
                return;
            }
        }
    }
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
