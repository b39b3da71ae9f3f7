//! Window-local closure check for locally conjunctive predicates.
//!
//! Problem 3.1 requires the input predicate `I(K) = ∧_r LC_r` to be closed
//! in the protocol. Closure is a global property, but for ring protocols it
//! is determined by a bounded window: a transition of `P_i` can only affect
//! the `LC_j` of processes that read `x_i`, i.e. `j ∈ [i−right, i+left]`.
//! Quantifying over all valuations of the joint window of those processes
//! (width `2·(left+right) + 1`) decides closure for every ring larger than
//! the window; smaller rings are wrap-around instances of the same
//! valuations, so a pass here implies closure for all `K`.

use selfstab_protocol::{LocalStateId, Protocol, Value};

/// A concrete closure violation found by [`local_closure_check`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosureViolation {
    /// The joint window valuation around the moving process (the moving
    /// process is at the center).
    pub window: Vec<Value>,
    /// The value the center process writes.
    pub written: Value,
    /// Offset (relative to the writer) of the process whose `LC` breaks.
    pub broken_offset: isize,
}

impl std::fmt::Display for ClosureViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "closure violation: window {:?}, write {} breaks LC at offset {}",
            self.window, self.written, self.broken_offset
        )
    }
}

/// Checks that `LC_r` is closed in the protocol on every ring.
///
/// Returns the first violation found, or `Ok(())` if `I(K)` is closed in
/// `p(K)` for every `K` greater than the joint window (and, by wrap-around,
/// for smaller `K` too: a smaller ring's neighborhoods are a subset of the
/// checked valuations with repeated values).
///
/// The check is *sound*: `Ok(())` implies closure at every ring size. A
/// reported violation is a violation of the window condition; it lifts to a
/// real global closure violation whenever the window embeds in a fully
/// legitimate ring (true for all of the paper's predicates — cross-checked
/// against the global model checker in the integration tests).
///
/// # Errors
///
/// Returns the violating window assignment as a [`ClosureViolation`].
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, Protocol};
/// use selfstab_core::local_closure_check;
///
/// let good = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
///     .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")?
///     .legit("x[r] == x[r-1]")?
///     .build()?;
/// assert!(local_closure_check(&good).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn local_closure_check(protocol: &Protocol) -> Result<(), ClosureViolation> {
    let loc = protocol.locality();
    let d = protocol.domain().size();
    let legit = protocol.legit();
    let (l, r) = (loc.left() as isize, loc.right() as isize);
    // Joint window spans offsets −(l+r) ..= (l+r) around the writer.
    let span = l + r;
    let width = (2 * span + 1) as usize;
    let centre = span as usize;

    // Local state of the process at joint offset `o`: its window is offsets
    // o−l ..= o+r of the joint window, encoded most significant slot first
    // as `LocalStateSpace::encode` does, without collecting the slots.
    let local_at = |win: &[Value], o: isize| {
        let first = (o - l + span) as usize;
        let id = win[first..=first + span as usize]
            .iter()
            .fold(0u32, |id, &v| id * d as u32 + u32::from(v));
        LocalStateId(id)
    };

    // Enumerate all joint valuations (d^width; small for the supported
    // localities).
    let total = d.pow(width as u32);
    let mut window = vec![0 as Value; width];
    for code in 0..total {
        let mut rest = code;
        for slot in window.iter_mut().rev() {
            *slot = (rest % d) as Value;
            rest /= d;
        }
        let writer_state = local_at(&window, 0);
        // Only consider globally legitimate neighborhoods: all processes
        // whose LC could be affected must currently satisfy it.
        let all_affected_legit = (-r..=l).all(|o| legit.holds(local_at(&window, o)));
        if !all_affected_legit {
            continue;
        }
        for &written in protocol.transitions_from(writer_state) {
            // Write the centre in place, and restore it before reporting:
            // the violation names the window the write started from.
            let current = window[centre];
            window[centre] = written;
            let broken = (-r..=l).find(|&o| !legit.holds(local_at(&window, o)));
            window[centre] = current;
            if let Some(broken_offset) = broken {
                return Err(ClosureViolation {
                    window,
                    written,
                    broken_offset,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    #[test]
    fn empty_protocol_is_trivially_closed() {
        let p = Protocol::builder("e", Domain::numeric("x", 3), Locality::unidirectional())
            .legit("x[r] != x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        assert!(local_closure_check(&p).is_ok());
    }

    #[test]
    fn violation_by_own_lc() {
        // From a legitimate window, flip to break own LC.
        let p = Protocol::builder("bad", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 1 -> x[r] := 0")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let v = local_closure_check(&p).unwrap_err();
        assert_eq!(v.broken_offset, 0);
        assert_eq!(v.written, 0);
    }

    #[test]
    fn violation_by_successor_lc() {
        // Writer keeps its own LC (LC is about own value vs predecessor) but
        // breaks the successor's: x=1 everywhere; P writes 0 when its window
        // is ⟨1,1⟩? That breaks its own LC. Use LC "x[r] == 1" style
        // instead: LC depends only on own+pred; to break only the
        // *successor*, the writer's new window must stay legit while the
        // successor's becomes illegitimate.
        // LC: x[r] >= x[r-1] over d=3. Window ⟨0,1⟩ legit; write 2 from
        // ⟨0,1⟩? then successor reading ⟨2, y⟩ breaks when y < 2.
        let p = Protocol::builder("bad", Domain::numeric("x", 3), Locality::unidirectional())
            .action("x[r-1] == 0 && x[r] == 1 -> x[r] := 2")
            .unwrap()
            .legit("x[r] >= x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let v = local_closure_check(&p).unwrap_err();
        assert_eq!(v.broken_offset, 1, "the successor's LC breaks");
        // The whole witness: the window the write starts from (not the one
        // after it), in slot order predecessor, writer, successor.
        assert_eq!(
            v,
            ClosureViolation {
                window: vec![0, 1, 1],
                written: 2,
                broken_offset: 1,
            }
        );
    }

    #[test]
    fn maximal_matching_style_closure_holds_for_convergent_action() {
        // Action only fires in illegitimate windows: closure cannot break.
        let p = Protocol::builder("ok", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        assert!(local_closure_check(&p).is_ok());
    }

    #[test]
    fn bidirectional_joint_window_is_checked() {
        // Bidirectional: predecessor's LC can break too (broken_offset may
        // be positive up to left span; negative down to -right span).
        let d = Domain::named("m", ["left", "right", "self"]);
        let p = Protocol::builder("mm", d, Locality::bidirectional())
            // From a matched pair (right,left), unilaterally unmatch. The
            // window [self,right,left,self,right] is fully legitimate, so
            // the write breaks closure.
            .action("m[r-1] == right && m[r] == left && m[r+1] == self -> m[r] := self")
            .unwrap()
            .legit(
                "(m[r] == right && m[r+1] == left) || (m[r-1] == right && m[r] == left) || \
                 (m[r-1] == left && m[r] == self && m[r+1] == right)",
            )
            .unwrap()
            .build()
            .unwrap();
        // The first violation in enumeration order is the window
        // [left, right, left, self, right]: the writer at its centre
        // unmatches, breaking its predecessor's LC.
        assert_eq!(
            local_closure_check(&p),
            Err(ClosureViolation {
                window: vec![0, 1, 0, 2, 1],
                written: 2,
                broken_offset: -1,
            })
        );
    }
}
