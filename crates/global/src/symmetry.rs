//! Rotation symmetry of ring configurations: necklace canonicalization and
//! orbit arithmetic for the reduced engine mode.
//!
//! A ring protocol whose processes all run the same code is invariant under
//! rotation: the configuration `⟨x_0, …, x_{K-1}⟩` behaves exactly like
//! `⟨x_1, …, x_{K-1}, x_0⟩`. Legitimacy, deadlock and closure are therefore
//! properties of the rotation *orbit*, and the engine only needs to examine
//! one representative per orbit — a **necklace**, the lexicographically
//! least rotation, which in the dense id encoding (`x_0` most significant)
//! is also the orbit's minimal id. The effective space shrinks from `d^K`
//! to the necklace count `~d^K / K`.
//!
//! Three pieces live here:
//!
//! * [`for_each_necklace`] — the FKM (Fredricksen–Kessler–Maiorana)
//!   generator: every necklace of length `K` over `d` symbols, in ascending
//!   lexicographic (= dense id) order, in constant amortized time per
//!   necklace, together with its minimal rotation **period** `p`. The
//!   orbit of a necklace has exactly `p` members (`p` divides `K`), so
//!   counts lift from representatives to the full space by multiplying
//!   with `p` — no per-orbit memo table is needed because the generator
//!   hands the class size out for free;
//! * [`min_rotation`] — Booth's `O(K)` minimal-rotation index, used by the
//!   reduced livelock search to canonicalize DFS successors;
//! * [`rotate_id_left`] — one rotation step directly in id space in `O(1)`
//!   (two divisions): the step the reduced scan applies inline to fill the
//!   full-space legitimacy bitmap orbit by orbit without decoding anything.

use selfstab_protocol::Value;

use crate::state::{GlobalSpace, GlobalStateId};

/// The index `r` of the lexicographically least rotation of `digits`:
/// `⟨digits[r], digits[r+1 mod K], …⟩` is minimal among all `K` rotations
/// (Booth's algorithm, `O(K)` time, one `O(K)` scratch allocation).
///
/// Ties — which exist exactly when the string is periodic — resolve to the
/// smallest such `r`, so the result is deterministic.
///
/// # Examples
///
/// ```
/// use selfstab_global::symmetry::min_rotation;
///
/// assert_eq!(min_rotation(&[2, 0, 1]), 1); // ⟨0,1,2⟩ is minimal
/// assert_eq!(min_rotation(&[1, 1, 1]), 0); // periodic: first of the ties
/// assert_eq!(min_rotation(&[0, 1, 0, 0]), 2); // ⟨0,0,0,1⟩
/// ```
pub fn min_rotation(digits: &[Value]) -> usize {
    let n = digits.len();
    if n <= 1 {
        return 0;
    }
    // Booth's least-rotation over the doubled string, with the classic
    // failure function `f` (usize::MAX standing in for −1).
    const NIL: usize = usize::MAX;
    let at = |i: usize| digits[if i < n { i } else { i - n }];
    let mut f = vec![NIL; 2 * n];
    let mut k = 0usize;
    for j in 1..2 * n {
        let sj = at(j);
        let mut i = f[j - k - 1];
        while i != NIL && sj != at(k + i + 1) {
            if sj < at(k + i + 1) {
                k = j - i - 1;
            }
            i = f[i];
        }
        if i == NIL && sj != at(k) {
            if sj < at(k) {
                k = j;
            }
            f[j - k] = NIL;
        } else if i == NIL {
            f[j - k] = 0;
        } else {
            f[j - k] = i + 1;
        }
    }
    k
}

/// The canonical (minimal-id) member of the rotation orbit of the
/// configuration in `digits`, encoded against `space`.
///
/// # Panics
///
/// Panics if `digits.len() != space.ring_size()`.
pub fn canonical_id(space: &GlobalSpace, digits: &[Value]) -> GlobalStateId {
    let k = space.ring_size();
    assert_eq!(digits.len(), k, "ring size mismatch");
    let r = min_rotation(digits);
    let mut id: u64 = 0;
    for t in 0..k {
        let p = if r + t < k { r + t } else { r + t - k };
        id += digits[p] as u64 * space.weight(t);
    }
    GlobalStateId(id)
}

/// Rotates a configuration one step left in id space:
/// `⟨x_0, x_1, …, x_{K-1}⟩ ↦ ⟨x_1, …, x_{K-1}, x_0⟩`, computed as
/// `(id mod d^(K-1)) · d + id / d^(K-1)` — `O(1)`, no decode.
///
/// Applying this `K` times returns the original id; a necklace's orbit is
/// exactly the first `p` iterates, where `p` is its minimal period.
pub fn rotate_id_left(space: &GlobalSpace, id: GlobalStateId) -> GlobalStateId {
    let top = space.weight(0); // d^(K-1)
    GlobalStateId((id.0 % top) * space.domain_size() as u64 + id.0 / top)
}

/// Calls `visit(digits, period)` for every necklace of length
/// `ring_size` over the alphabet `0..domain_size`, in ascending
/// lexicographic order — which is ascending dense-id order under
/// [`GlobalSpace`]'s encoding. `period` is the minimal rotation period of
/// the necklace, i.e. the size of its rotation orbit; summed over all
/// necklaces the periods total `d^K` exactly.
///
/// Enumeration stops early when `visit` returns `false`; the function
/// returns `false` in that case and `true` on a complete enumeration.
///
/// This is the recursive FKM generator (Fredricksen–Kessler–Maiorana; see
/// also Ruskey & Sawada's CAT analysis): constant amortized time per
/// necklace, recursion depth `K`, one `K + 1` digit buffer.
///
/// # Examples
///
/// The six binary necklaces of length 4 — `0000, 0001, 0011, 0101, 0111,
/// 1111` — with orbit sizes summing to `2^4`:
///
/// ```
/// use selfstab_global::symmetry::for_each_necklace;
///
/// let mut seen = Vec::new();
/// for_each_necklace(2, 4, &mut |digits, period| {
///     seen.push((digits.to_vec(), period));
///     true
/// });
/// assert_eq!(seen.len(), 6);
/// assert_eq!(seen[1], (vec![0, 0, 0, 1], 4));
/// assert_eq!(seen[3], (vec![0, 1, 0, 1], 2));
/// assert_eq!(seen.iter().map(|(_, p)| p).sum::<usize>(), 16);
/// ```
pub fn for_each_necklace(
    domain_size: usize,
    ring_size: usize,
    visit: &mut impl FnMut(&[Value], usize) -> bool,
) -> bool {
    assert!(ring_size > 0, "rings are non-empty");
    if domain_size == 0 {
        return true; // empty alphabet: no configurations at all
    }
    // `a[0]` is the FKM sentinel; the necklace lives in `a[1..=K]`.
    let mut a = vec![0 as Value; ring_size + 1];
    fkm(&mut a, domain_size as Value, ring_size, 1, 1, visit)
}

/// FKM recursion: extend position `t` given current longest Lyndon-prefix
/// length `p`; emit at `t > n` when the word is `p`-periodic. Returns
/// `false` to unwind an early stop.
fn fkm(
    a: &mut [Value],
    d: Value,
    n: usize,
    t: usize,
    p: usize,
    visit: &mut impl FnMut(&[Value], usize) -> bool,
) -> bool {
    if t > n {
        return !n.is_multiple_of(p) || visit(&a[1..=n], p);
    }
    a[t] = a[t - p];
    if !fkm(a, d, n, t + 1, p, visit) {
        return false;
    }
    for v in (a[t - p] + 1)..d {
        a[t] = v;
        if !fkm(a, d, n, t + 1, t, visit) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(d: usize, k: usize) -> GlobalSpace {
        GlobalSpace::new(d, k, 1 << 26).unwrap()
    }

    /// Reference canonicalizer: decode all rotations, take the min.
    fn naive_canonical(sp: &GlobalSpace, id: GlobalStateId) -> GlobalStateId {
        let mut best = id;
        let mut cur = id;
        for _ in 1..sp.ring_size() {
            cur = rotate_id_left(sp, cur);
            best = best.min(cur);
        }
        best
    }

    #[test]
    fn rotate_id_matches_decode_rotate_encode() {
        let sp = space(3, 5);
        for id in sp.ids() {
            let mut digits = sp.decode(id);
            digits.rotate_left(1);
            assert_eq!(rotate_id_left(&sp, id), sp.encode(&digits), "{id}");
        }
    }

    #[test]
    fn canonical_id_is_orbit_minimum() {
        for (d, k) in [(2, 1), (2, 7), (3, 5), (4, 4)] {
            let sp = space(d, k);
            for id in sp.ids() {
                let digits = sp.decode(id);
                assert_eq!(
                    canonical_id(&sp, &digits),
                    naive_canonical(&sp, id),
                    "d={d} K={k} id={id}"
                );
            }
        }
    }

    #[test]
    fn booth_handles_periodic_and_degenerate_inputs() {
        assert_eq!(min_rotation(&[]), 0);
        assert_eq!(min_rotation(&[5]), 0);
        assert_eq!(min_rotation(&[0, 0, 0, 0]), 0);
        assert_eq!(min_rotation(&[1, 0, 1, 0]), 1);
        assert_eq!(min_rotation(&[2, 1, 0, 2, 1, 0]), 2);
    }

    #[test]
    fn necklaces_partition_the_space() {
        for (d, k) in [(1, 6), (2, 1), (2, 8), (3, 5), (5, 3)] {
            let sp = space(d, k);
            let mut total = 0usize;
            let mut last: Option<GlobalStateId> = None;
            let mut members = vec![false; sp.len() as usize];
            assert!(for_each_necklace(d, k, &mut |digits, p| {
                let id = sp.encode(digits);
                // Each necklace is canonical, periods are exact, and the
                // enumeration ascends in id order.
                assert_eq!(canonical_id(&sp, digits), id, "d={d} K={k}");
                assert_eq!(k % p, 0, "period divides K");
                assert!(last.is_none_or(|prev| prev < id), "ascending order");
                last = Some(id);
                let mut cur = id;
                for step in 0..p {
                    assert!(!members[cur.index()], "orbit overlap at step {step}");
                    members[cur.index()] = true;
                    cur = rotate_id_left(&sp, cur);
                }
                assert_eq!(cur, id, "orbit closes after exactly p rotations");
                total += p;
                true
            }));
            assert_eq!(total as u64, sp.len(), "orbits partition d^K (d={d} K={k})");
            assert!(members.iter().all(|&m| m));
        }
    }

    #[test]
    fn enumeration_stops_on_false() {
        let mut seen = 0;
        assert!(!for_each_necklace(2, 6, &mut |_, _| {
            seen += 1;
            seen < 3
        }));
        assert_eq!(seen, 3);
    }
}
