//! Contiguous trails (Lemma 5.12): the footprint a livelock leaves in the
//! Local Transition Graph.
//!
//! Lemma 5.12 shows that a contiguous livelock with `|E|` circulating
//! enablements appears in the LTG as a closed *contiguous trail*:
//!
//! * `|E| = 1` — an alternation of t-arcs and s-arcs: `(t s)⁺`;
//! * `|E| > 1` — an alternation of walks `w₁` (`|E|` consecutive s-arcs,
//!   every vertex of which has an outgoing t-arc of the trail) and `w₂`
//!   (`2(K−|E|)` arcs alternating t and s).
//!
//! The searcher below looks for closed walks in a 3-phase product automaton
//! accepting the union of those shapes (allowing the block lengths to vary
//! between rounds — a superset, which keeps the Theorem 5.14 certificate
//! sound: a trail is never missed).

use std::collections::VecDeque;

use selfstab_graph::BitSet;
use selfstab_protocol::{LocalStateId, LocalTransition, Protocol};

use crate::ltg::Ltg;

/// The kind of an LTG arc in a trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrailStep {
    /// A t-arc: the representative process executes a local transition.
    T(LocalTransition),
    /// An s-arc: attention moves to a right continuation.
    S(LocalStateId, LocalStateId),
}

impl TrailStep {
    /// The source local state of the step.
    pub fn from(&self) -> LocalStateId {
        match self {
            TrailStep::T(t) => t.source,
            TrailStep::S(a, _) => *a,
        }
    }
}

/// A closed contiguous trail found in the LTG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContiguousTrail {
    /// The steps, in order; the walk is closed (the last step's target is
    /// the first step's source).
    pub steps: Vec<TrailStep>,
}

impl ContiguousTrail {
    /// The t-arcs used by the trail (deduplicated, sorted).
    pub fn t_arcs(&self) -> Vec<LocalTransition> {
        let mut out: Vec<LocalTransition> = self
            .steps
            .iter()
            .filter_map(|s| match s {
                TrailStep::T(t) => Some(*t),
                TrailStep::S(..) => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The local states visited.
    pub fn states(&self) -> Vec<LocalStateId> {
        let mut out: Vec<LocalStateId> = self.steps.iter().map(TrailStep::from).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Renders the trail in the paper's inline notation, e.g.
    /// `≪01, t, 00, s, 01, s, 10, t, 11≫`.
    pub fn display(&self, protocol: &Protocol) -> String {
        let sp = protocol.space();
        let dom = protocol.domain();
        let mut parts = Vec::new();
        for step in &self.steps {
            parts.push(sp.format_compact(step.from(), dom));
            parts.push(
                match step {
                    TrailStep::T(_) => "t",
                    TrailStep::S(..) => "s",
                }
                .to_owned(),
            );
        }
        format!("≪{}≫", parts.join(", "))
    }
}

/// Phases of the trail automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Inside `w₂`, a t-arc was just taken; an s-arc must follow.
    AfterT,
    /// Inside `w₂`, the s-arc following a t-arc was just taken; either
    /// another t-arc (continuing `w₂`) or the first s-arc of a `w₁` block
    /// may follow.
    AfterS,
    /// Inside a `w₁` s-block; another s-arc or the t-arc opening `w₂` may
    /// follow. Every vertex entered in this phase must have an outgoing
    /// allowed t-arc (Lemma 5.12's side condition on `w₁`).
    W1,
}

fn phase_index(p: Phase) -> usize {
    match p {
        Phase::AfterT => 0,
        Phase::AfterS => 1,
        Phase::W1 => 2,
    }
}

/// Options for the trail search.
#[derive(Clone, Debug)]
pub struct TrailQuery<'a> {
    /// The t-arcs the trail may use.
    pub allowed: &'a [LocalTransition],
    /// Require the trail to visit at least one state of this set (pass the
    /// illegitimate states for Theorem 5.14's condition 1).
    pub must_visit: &'a BitSet,
    /// Require the trail to use *every* allowed t-arc at least once (the
    /// synthesis methodology's per-pseudo-livelock check). Limited to 16
    /// allowed arcs.
    pub cover_all: bool,
}

/// Searches the LTG for a closed contiguous trail satisfying `query`.
///
/// Returns a witness trail, or `None` if no trail of the Lemma 5.12 shapes
/// exists under the constraints. The search is complete for the constraint
/// language above (it never misses a qualifying trail).
///
/// # Panics
///
/// Panics if `query.cover_all` is set with more than 16 allowed t-arcs.
pub fn find_contiguous_trail(
    ltg: &Ltg,
    protocol: &Protocol,
    query: &TrailQuery<'_>,
) -> Option<ContiguousTrail> {
    let n = protocol.space().len();
    let allowed = query.allowed;
    if allowed.is_empty() {
        return None;
    }
    assert!(
        !query.cover_all || allowed.len() <= 16,
        "cover_all trail search supports at most 16 t-arcs"
    );
    // The mask tracks t-arc usage: per-arc bits under `cover_all`, a single
    // any-t-arc bit otherwise. A trail of Lemma 5.12's shapes always
    // contains a t-arc, so a pure-s cycle must never satisfy the goal.
    let mask_bits = if query.cover_all { allowed.len() } else { 1 };
    let mask_count: usize = 1 << mask_bits;
    let full_mask: u32 = (mask_count - 1) as u32;

    // Per-vertex allowed t-arcs and the w₁ side condition.
    let mut t_from: Vec<Vec<(usize, LocalTransition)>> = vec![Vec::new(); n];
    for (i, t) in allowed.iter().enumerate() {
        t_from[t.source.index()].push((i, *t));
    }
    let has_out_t: Vec<bool> = (0..n).map(|v| !t_from[v].is_empty()).collect();

    let visit_bit = |v: usize| -> bool { query.must_visit.contains(v) };

    // Product node encoding: ((v * 3 + phase) * mask_count + mask) * 2 + visited.
    let node = |v: usize, ph: Phase, mask: u32, visited: bool| -> usize {
        ((v * 3 + phase_index(ph)) * mask_count + mask as usize) * 2 + visited as usize
    };
    let total = n * 3 * mask_count * 2;

    // Start points: immediately before taking an allowed t-arc; trying both
    // possible phases at that point covers every closed walk (each contains
    // at least one t-arc).
    let mut starts: Vec<(usize, Phase)> = Vec::new();
    for t in allowed {
        let v = t.source.index();
        starts.push((v, Phase::AfterS));
        starts.push((v, Phase::W1));
    }
    starts.sort_unstable_by_key(|&(v, p)| (v, phase_index(p)));
    starts.dedup();

    for &(sv, sphase) in &starts {
        // W1 starts require the side condition on the start vertex.
        if sphase == Phase::W1 && !has_out_t[sv] {
            continue;
        }
        // BFS with parent pointers.
        let mut parent: Vec<Option<(usize, TrailStep)>> = vec![None; total];
        let mut seen = vec![false; total];
        let start_node = node(sv, sphase, 0, visit_bit(sv));
        seen[start_node] = true;
        let mut queue = VecDeque::new();
        queue.push_back((sv, sphase, 0u32, visit_bit(sv)));
        let goal = node(sv, sphase, full_mask, true);

        let mut found = false;
        while let Some((v, ph, mask, visited)) = queue.pop_front() {
            let cur = node(v, ph, mask, visited);
            let push = |nv: usize,
                        nph: Phase,
                        nmask: u32,
                        step: TrailStep,
                        parent_vec: &mut Vec<Option<(usize, TrailStep)>>,
                        seen: &mut Vec<bool>,
                        queue: &mut VecDeque<(usize, Phase, u32, bool)>|
             -> bool {
                let nvisited = visited || visit_bit(nv);
                let nn = node(nv, nph, nmask, nvisited);
                if nn == goal {
                    // Reaching the goal closes the walk — record the closing
                    // step even if the node was already seen (in particular
                    // when the goal *is* the start node).
                    if parent_vec[nn].is_none() {
                        parent_vec[nn] = Some((cur, step));
                    }
                    return true;
                }
                if !seen[nn] {
                    seen[nn] = true;
                    parent_vec[nn] = Some((cur, step));
                    queue.push_back((nv, nph, nmask, nvisited));
                }
                false
            };

            match ph {
                Phase::AfterT => {
                    for &u in ltg.s_arcs().successors(v) {
                        if push(
                            u as usize,
                            Phase::AfterS,
                            mask,
                            TrailStep::S(LocalStateId(v as u32), LocalStateId(u)),
                            &mut parent,
                            &mut seen,
                            &mut queue,
                        ) {
                            found = true;
                        }
                    }
                }
                Phase::AfterS => {
                    for &(i, t) in &t_from[v] {
                        let nmask = if query.cover_all { mask | (1 << i) } else { 1 };
                        let u = t.target_state(protocol.space(), protocol.locality());
                        if push(
                            u.index(),
                            Phase::AfterT,
                            nmask,
                            TrailStep::T(t),
                            &mut parent,
                            &mut seen,
                            &mut queue,
                        ) {
                            found = true;
                        }
                    }
                    if has_out_t[v] {
                        for &u in ltg.s_arcs().successors(v) {
                            if has_out_t[u as usize]
                                && push(
                                    u as usize,
                                    Phase::W1,
                                    mask,
                                    TrailStep::S(LocalStateId(v as u32), LocalStateId(u)),
                                    &mut parent,
                                    &mut seen,
                                    &mut queue,
                                )
                            {
                                found = true;
                            }
                        }
                    }
                }
                Phase::W1 => {
                    for &(i, t) in &t_from[v] {
                        let nmask = if query.cover_all { mask | (1 << i) } else { 1 };
                        let u = t.target_state(protocol.space(), protocol.locality());
                        if push(
                            u.index(),
                            Phase::AfterT,
                            nmask,
                            TrailStep::T(t),
                            &mut parent,
                            &mut seen,
                            &mut queue,
                        ) {
                            found = true;
                        }
                    }
                    for &u in ltg.s_arcs().successors(v) {
                        if has_out_t[u as usize]
                            && push(
                                u as usize,
                                Phase::W1,
                                mask,
                                TrailStep::S(LocalStateId(v as u32), LocalStateId(u)),
                                &mut parent,
                                &mut seen,
                                &mut queue,
                            )
                        {
                            found = true;
                        }
                    }
                }
            }
            if found {
                break;
            }
        }

        if found && parent[goal].is_some() {
            // Reconstruct the closed walk.
            let mut steps = Vec::new();
            let mut cur = goal;
            while let Some((prev, step)) = parent[cur] {
                steps.push(step);
                cur = prev;
                if cur == start_node {
                    break;
                }
            }
            steps.reverse();
            if !steps.is_empty() {
                return Some(ContiguousTrail { steps });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo::pseudo_livelock_support;
    use selfstab_protocol::{Domain, Locality, Protocol};

    fn two_coloring_resolved() -> Protocol {
        Protocol::builder("2col", Domain::numeric("c", 2), Locality::unidirectional())
            .action("c[r-1] == 0 && c[r] == 0 -> c[r] := 1")
            .unwrap()
            .action("c[r-1] == 1 && c[r] == 1 -> c[r] := 0")
            .unwrap()
            .legit("c[r] != c[r-1]")
            .unwrap()
            .build()
            .unwrap()
    }

    fn query<'a>(
        allowed: &'a [LocalTransition],
        must_visit: &'a BitSet,
        cover_all: bool,
    ) -> TrailQuery<'a> {
        TrailQuery {
            allowed,
            must_visit,
            cover_all,
        }
    }

    #[test]
    fn two_coloring_trail_exists() {
        // The paper's Section 6.2: resolving both 00 and 11 yields the trail
        // ≪00, t, 01, s, 11, t, 10, s, 00≫.
        let p = two_coloring_resolved();
        let ltg = Ltg::build(&p);
        let allowed: Vec<LocalTransition> = p.transitions().collect();
        let support = pseudo_livelock_support(&allowed, p.space(), p.locality());
        assert_eq!(support.len(), 2);
        let illegit = p.legit().negated();
        let trail = find_contiguous_trail(&ltg, &p, &query(&support, illegit.as_bitset(), false))
            .expect("the 2-coloring trail must be found");
        // Trail is closed.
        let first = trail.steps.first().unwrap().from();
        let last = match *trail.steps.last().unwrap() {
            TrailStep::T(t) => t.target_state(p.space(), p.locality()),
            TrailStep::S(_, b) => b,
        };
        assert_eq!(first, last);
        // It uses t-arcs and visits an illegitimate state.
        assert!(!trail.t_arcs().is_empty());
        assert!(trail.states().iter().any(|&s| illegit.holds(s)));
    }

    #[test]
    fn one_sided_agreement_has_no_trail() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ltg = Ltg::build(&p);
        let allowed: Vec<LocalTransition> = p.transitions().collect();
        let support = pseudo_livelock_support(&allowed, p.space(), p.locality());
        assert!(support.is_empty());
        let anywhere = BitSet::full(p.space().len());
        assert!(find_contiguous_trail(&ltg, &p, &query(&support, &anywhere, false)).is_none());
    }

    #[test]
    fn agreement_with_both_actions_has_the_papers_trail() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .actions([
                "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
                "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
            ])
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ltg = Ltg::build(&p);
        let allowed: Vec<LocalTransition> = p.transitions().collect();
        let illegit = p.legit().negated();
        let trail = find_contiguous_trail(&ltg, &p, &query(&allowed, illegit.as_bitset(), true))
            .expect("Section 6.2 exhibits this trail");
        assert_eq!(trail.t_arcs().len(), 2, "both t-arcs participate");
    }

    #[test]
    fn cover_all_unsatisfiable_when_arcs_disconnected() {
        // Allowed arcs on disjoint value cycles cannot appear in one trail
        // where each must be used: {0<->1} in an d=4 domain plus {2<->3}
        // living in disconnected parts of the projection.
        let p = Protocol::builder("p", Domain::numeric("x", 4), Locality::unidirectional())
            .transition(&[0, 0], 1)
            .unwrap()
            .transition(&[1, 1], 0)
            .unwrap()
            .transition(&[2, 2], 3)
            .unwrap()
            .transition(&[3, 3], 2)
            .unwrap()
            .legit("x[r] != x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ltg = Ltg::build(&p);
        let allowed: Vec<LocalTransition> = p.transitions().collect();
        // All four arcs in a single covering trail: the s-arcs do connect
        // the 01 and 23 regions (any window can follow any other via the
        // overlap), so this asserts only that the search terminates and the
        // result (if any) covers everything.
        let anywhere = BitSet::full(p.space().len());
        if let Some(trail) = find_contiguous_trail(&ltg, &p, &query(&allowed, &anywhere, true)) {
            assert_eq!(trail.t_arcs().len(), 4);
        }
    }

    #[test]
    fn display_renders_paper_notation() {
        let p = two_coloring_resolved();
        let ltg = Ltg::build(&p);
        let allowed: Vec<LocalTransition> = p.transitions().collect();
        let anywhere = BitSet::full(p.space().len());
        let trail = find_contiguous_trail(&ltg, &p, &query(&allowed, &anywhere, false)).unwrap();
        let text = trail.display(&p);
        assert!(text.starts_with('≪') && text.ends_with('≫'));
        assert!(text.contains(", t") || text.contains("t,"));
    }
}
