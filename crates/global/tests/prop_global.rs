//! Property-based tests for the global engine, including direct checks of
//! the paper's Lemma 5.5 (enablement conservation in livelocks on
//! unidirectional rings).

use proptest::prelude::*;
use selfstab_global::{
    check, schedule, DeadlockSummary, EngineConfig, RingInstance, Scheduler, Simulator,
    SymmetryMode,
};
use selfstab_protocol::{Domain, LocalStateId, LocalTransition, Locality, Protocol};

/// A random unidirectional protocol over domain size `d` with transitions
/// drawn from `arcs` and a random non-empty legitimate predicate.
fn arb_protocol(d: usize) -> impl Strategy<Value = Protocol> {
    let nstates = d * d;
    (
        proptest::collection::vec((0..nstates as u32, 0..d as u8), 0..(2 * nstates)),
        proptest::collection::vec(any::<bool>(), nstates),
    )
        .prop_map(move |(arcs, legit)| {
            let base =
                Protocol::builder("rand", Domain::numeric("x", d), Locality::unidirectional())
                    .legit_fn(|id, _| legit.get(id.index()).copied().unwrap_or(false))
                    .build()
                    .or_else(|_| {
                        Protocol::builder(
                            "rand",
                            Domain::numeric("x", d),
                            Locality::unidirectional(),
                        )
                        .legit_all()
                        .build()
                    })
                    .unwrap();
            let sp = *base.space();
            let loc = base.locality();
            let ts: Vec<LocalTransition> = arcs
                .into_iter()
                .map(|(s, t)| LocalTransition::new(LocalStateId(s), t))
                .filter(|t| sp.value_at(t.source, loc.center()) != t.target)
                .collect();
            base.with_transitions("rand", ts).unwrap()
        })
}

/// Assumption 1 of the paper: every sequence of local transitions of a
/// process terminates, i.e. the t-arc graph over local states is acyclic.
fn is_self_terminating(p: &Protocol) -> bool {
    let mut g = selfstab_graph::DiGraph::new(p.space().len());
    for t in p.transitions() {
        g.add_arc(
            t.source.index(),
            t.target_state(p.space(), p.locality()).index(),
        );
    }
    !selfstab_graph::cycles::has_cycle(&g)
}

/// Assumption 2 at the process level: no transition lands in a state where
/// the process is again enabled (the normal form Lemma 5.5 relies on).
fn is_process_self_disabling(p: &Protocol) -> bool {
    p.transitions()
        .all(|t| !p.is_enabled(t.target_state(p.space(), p.locality())))
}

/// Window-local closure of I in p for every K (Problem 3.1's input
/// assumption): for all (a, b, c) with LC(a,b) and LC(b,c), every write
/// t from ⟨a,b⟩ keeps LC(a,t) and LC(t,c). Checking closure at one fixed
/// K is NOT enough — it can hold vacuously (empty I(K)) while failing at
/// other sizes.
fn is_locally_closed(p: &Protocol) -> bool {
    let sp = p.space();
    let d = sp.domain_size() as u8;
    for a in 0..d {
        for b in 0..d {
            let w = sp.encode(&[a, b]);
            if !p.legit().holds(w) {
                continue;
            }
            for c in 0..d {
                if !p.legit().holds(sp.encode(&[b, c])) {
                    continue;
                }
                for &t in p.transitions_from(w) {
                    if !p.legit().holds(sp.encode(&[a, t])) || !p.legit().holds(sp.encode(&[t, c]))
                    {
                        return false;
                    }
                }
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Successors and predecessors are mutually consistent on random
    /// protocols and ring sizes.
    #[test]
    fn successors_predecessors_inverse(p in arb_protocol(3), k in 2usize..5) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        for gid in ring.space().ids() {
            for succ in ring.successors(gid) {
                prop_assert!(ring.predecessors(succ).contains(&gid));
            }
            for pred in ring.predecessors(gid) {
                prop_assert!(ring.successors(pred).contains(&gid));
            }
        }
    }

    /// Any livelock reported by the checker is a genuine cycle of
    /// illegitimate states, and converts to a replayable cyclic schedule.
    #[test]
    fn livelocks_are_genuine(p in arb_protocol(2), k in 2usize..6) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        if let Some(cycle) = check::find_livelock(&ring) {
            prop_assert!(!cycle.is_empty());
            for (i, &s) in cycle.iter().enumerate() {
                prop_assert!(!ring.is_legit(s));
                let next = cycle[(i + 1) % cycle.len()];
                prop_assert!(ring.successors(s).contains(&next));
            }
            let sch = schedule::Schedule::from_cycle(&ring, &cycle);
            prop_assert!(sch.is_cyclic(&ring));
        }
    }

    /// **Lemma 5.5** (enablement conservation): every livelock on a
    /// unidirectional ring has the same number of enabled processes in all
    /// of its states. The lemma's hypotheses: actions are self-disabling
    /// (true by construction at transition granularity) and processes are
    /// *self-terminating* (Assumption 1) — the t-arc graph over local
    /// states must be acyclic, which we filter for.
    #[test]
    fn lemma_5_5_enablement_conservation(p in arb_protocol(2), k in 2usize..6) {
        if !is_self_terminating(&p) || !is_process_self_disabling(&p) {
            return Ok(()); // Lemma 5.5's hypotheses
        }
        let ring = RingInstance::symmetric(&p, k).unwrap();
        if let Some(cycle) = check::find_livelock(&ring) {
            prop_assert!(
                check::livelock_enablement_count(&ring, &cycle).is_some(),
                "Lemma 5.5 violated: enablement count varies along a livelock"
            );
        }
    }

    /// **Lemma 5.9** (local corruptions): some state of any livelock has a
    /// process that is both enabled and locally illegitimate (a
    /// *corruption*), under the paper's hypotheses (closure of I plus the
    /// self-disabling normal form).
    #[test]
    fn lemma_5_9_corruption_exists(p in arb_protocol(2), k in 2usize..6) {
        if !is_self_terminating(&p) || !is_process_self_disabling(&p) {
            return Ok(());
        }
        // Lemma 5.9 assumes I closed in p *for every K* (Problem 3.1):
        // closure at this one size can hold vacuously (empty I(K)).
        if !is_locally_closed(&p) {
            return Ok(());
        }
        let ring = RingInstance::symmetric(&p, k).unwrap();
        if let Some(cycle) = check::find_livelock(&ring) {
            let has_corruption = cycle.iter().any(|&s| {
                (0..ring.ring_size()).any(|i| {
                    ring.is_process_enabled(s, i)
                        && !p.legit().holds(ring.local_state_of(s, i))
                })
            });
            prop_assert!(has_corruption, "Lemma 5.9 violated: livelock without corruption");
        }
    }

    /// **Lemma 5.8** (local illegitimacy): every state of a livelock has at
    /// least one corrupted process (trivially, since livelock states are
    /// outside I, but `corruption_count` must agree with `is_legit`).
    #[test]
    fn corruption_count_consistent(p in arb_protocol(3), k in 2usize..5) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        for gid in ring.space().ids() {
            prop_assert_eq!(ring.is_legit(gid), ring.corruption_count(gid) == 0);
        }
    }

    /// If the checker proves strong convergence, random simulation never
    /// fails to converge.
    #[test]
    fn strong_convergence_implies_simulation_converges(p in arb_protocol(2), k in 2usize..6, seed in any::<u64>()) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let report = check::ConvergenceReport::check(&ring);
        // Only meaningful when I is closed: otherwise a run may leave I again.
        if report.self_stabilizing() {
            let mut sim = Simulator::new(&ring, seed);
            for _ in 0..10 {
                let start = sim.random_state();
                let out = sim.run_from(start, 100_000);
                prop_assert!(out.converged, "simulation stuck despite proven convergence");
            }
        }
    }

    /// Strong convergence implies weak convergence.
    #[test]
    fn strong_implies_weak(p in arb_protocol(2), k in 2usize..6) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let report = check::ConvergenceReport::check(&ring);
        if report.strongly_converges() {
            prop_assert!(check::weakly_converges(&ring));
        }
    }

    /// The worst-case recovery bound dominates every simulated run, and is
    /// finite exactly when the protocol strongly converges.
    #[test]
    fn worst_case_recovery_dominates_simulation(p in arb_protocol(2), k in 2usize..6, seed in any::<u64>()) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let report = check::ConvergenceReport::check(&ring);
        let wc = selfstab_global::faults::worst_case_recovery(&ring);
        prop_assert_eq!(wc.is_some(), report.strongly_converges());
        if let Some(bound) = wc {
            let mut sim = Simulator::new(&ring, seed);
            for _ in 0..5 {
                let s = sim.random_state();
                let out = sim.run_from(s, bound + 1);
                prop_assert!(out.converged, "run exceeded the worst-case bound {bound}");
                prop_assert!(out.steps <= bound);
            }
        }
    }

    /// Fault spans are monotone in the budget and contain I.
    #[test]
    fn fault_span_monotone(p in arb_protocol(2), k in 2usize..6) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let mut prev = selfstab_global::faults::fault_span(&ring, 0);
        for s in ring.space().ids() {
            if ring.is_legit(s) {
                prop_assert!(prev[s.index()]);
            }
        }
        for f in 1..=k {
            let cur = selfstab_global::faults::fault_span(&ring, f);
            for i in 0..prev.len() {
                prop_assert!(!prev[i] || cur[i]);
            }
            prev = cur;
        }
        // Budget K reaches every state (any state is K corruptions away
        // from a legitimate one, when I is non-empty).
        if ring.space().ids().any(|s| ring.is_legit(s)) {
            prop_assert!(prev.iter().all(|&b| b));
        }
    }

    /// A zero-fault budget yields exactly the *program closure* of I(K):
    /// the states reachable from I by program transitions alone. On
    /// protocols where I is closed this collapses to I itself, but the
    /// identity must hold in general — random protocols routinely leak out
    /// of their legitimate predicate.
    #[test]
    fn fault_span_zero_is_program_closure(p in arb_protocol(2), k in 2usize..6) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        // Reference closure: BFS from all legitimate states.
        let n = ring.space().len() as usize;
        let mut closure = vec![false; n];
        let mut work: Vec<_> = ring.space().ids().filter(|&s| ring.is_legit(s)).collect();
        for s in &work {
            closure[s.index()] = true;
        }
        while let Some(s) = work.pop() {
            ring.for_each_successor(s, |t| {
                if !closure[t.index()] {
                    closure[t.index()] = true;
                    work.push(t);
                }
            });
        }
        prop_assert_eq!(selfstab_global::faults::fault_span(&ring, 0), closure);
    }

    /// The random-daemon simulator is a pure function of its seed: two
    /// simulators built from the same seed produce identical convergence
    /// statistics, run by run.
    #[test]
    fn random_scheduler_is_deterministic_per_seed(
        p in arb_protocol(2),
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let mut a = Simulator::new(&ring, seed).with_scheduler(Scheduler::Random);
        let mut b = Simulator::new(&ring, seed).with_scheduler(Scheduler::Random);
        prop_assert_eq!(
            a.convergence_stats(20, 1_000),
            b.convergence_stats(20, 1_000)
        );
        // And the streams stay aligned after the stats runs: the next
        // random start and run agree too.
        let (sa, sb) = (a.random_state(), b.random_state());
        prop_assert_eq!(sa, sb);
        let (ra, rb) = (a.run_from(sa, 500), b.run_from(sb, 500));
        prop_assert_eq!(ra.converged, rb.converged);
        prop_assert_eq!(ra.steps, rb.steps);
    }

    /// The symmetry-reduced engine produces the byte-identical convergence
    /// report as the full dense engine on random symmetric protocols —
    /// counts, witness states, first deadlock, livelock cycle.
    #[test]
    fn reduced_engine_matches_full(p in arb_protocol(2), k in 1usize..=7) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let reduced = check::ConvergenceReport::check_with(&ring, &EngineConfig::default());
        let full = check::ConvergenceReport::check_with(
            &ring,
            &EngineConfig::default().with_symmetry(SymmetryMode::Full),
        );
        prop_assert_eq!(reduced.ring_size, full.ring_size);
        prop_assert_eq!(reduced.state_count, full.state_count);
        prop_assert_eq!(reduced.legit_count, full.legit_count);
        prop_assert_eq!(reduced.closure_violation, full.closure_violation);
        prop_assert_eq!(reduced.illegitimate_deadlocks, full.illegitimate_deadlocks);
        prop_assert_eq!(
            reduced.illegitimate_deadlocks,
            DeadlockSummary::of(&check::illegitimate_deadlocks(&ring))
        );
        prop_assert_eq!(reduced.livelock, full.livelock);
    }

    /// Successor/predecessor inversion also holds on heterogeneous rings,
    /// where each process runs its own random behavior.
    #[test]
    fn heterogeneous_successors_predecessors_inverse(
        ps in proptest::collection::vec(arb_protocol(2), 2..=4),
    ) {
        let refs: Vec<&Protocol> = ps.iter().collect();
        let ring = RingInstance::heterogeneous(&refs, 1 << 20).unwrap();
        for gid in ring.space().ids() {
            for succ in ring.successors(gid) {
                prop_assert!(ring.predecessors(succ).contains(&gid));
            }
            for pred in ring.predecessors(gid) {
                prop_assert!(ring.successors(pred).contains(&gid));
            }
        }
    }

    /// Schedules equivalent under independent swaps end in the same state.
    #[test]
    fn equivalent_schedules_share_endpoints(p in arb_protocol(2), k in 2usize..5, seed in any::<u64>()) {
        let ring = RingInstance::symmetric(&p, k).unwrap();
        let mut sim = Simulator::new(&ring, seed);
        let start = sim.random_state();
        // Build a short schedule by simulation.
        let mut moves = Vec::new();
        let mut cur = start;
        for _ in 0..6 {
            let ms = ring.moves_from(cur);
            match ms.first() {
                Some(&m) => {
                    moves.push(m);
                    cur = ring.apply(cur, m);
                }
                None => break,
            }
        }
        let sch = schedule::Schedule { start, moves };
        let end = *sch.replay(&ring).unwrap().last().unwrap();
        for other in schedule::equivalent_schedules(&ring, &sch, 100) {
            let states = other.replay(&ring).unwrap();
            prop_assert_eq!(*states.last().unwrap(), end);
        }
    }
}
