//! Cross-validation of the paper's theorems against the global model
//! checker, on randomized protocols.
//!
//! * **Theorem 4.2** is necessary *and* sufficient, so the local verdict
//!   must agree exactly with global deadlock detection (both directions).
//! * **Theorem 5.14** is sufficient only: when the local certificate says
//!   livelock-free, the global checker must find no livelock at any tested
//!   ring size (the converse need not hold).

use proptest::prelude::*;
use selfstab_core::{
    deadlock::{DeadlockAnalysis, DeadlockWitness},
    livelock::LivelockAnalysis,
    local_closure_check,
    ltg::is_self_terminating,
    rcg::Rcg,
    report::StabilizationReport,
};
use selfstab_global::{check, RingInstance};
use selfstab_graph::{
    cycles::{simple_cycles, CycleBudget},
    scc::vertices_on_cycles,
};
use selfstab_protocol::{Domain, LocalStateId, LocalTransition, Locality, Protocol};

/// Random unidirectional protocol over domain size `d`.
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

/// Random bidirectional protocol over a small domain (used for the
/// deadlock theorem, which covers bidirectional rings too).
fn arb_bidirectional(d: usize) -> impl Strategy<Value = Protocol> {
    let nstates = d * d * d;
    (
        proptest::collection::vec((0..nstates as u32, 0..d as u8), 0..nstates),
        proptest::collection::vec(any::<bool>(), nstates),
    )
        .prop_map(move |(arcs, legit)| {
            let base =
                Protocol::builder("rand", Domain::numeric("x", d), Locality::bidirectional())
                    .legit_fn(|id, _| legit.get(id.index()).copied().unwrap_or(false))
                    .build()
                    .or_else(|_| {
                        Protocol::builder(
                            "rand",
                            Domain::numeric("x", d),
                            Locality::bidirectional(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 4.2, soundness direction: if the local analysis says
    /// deadlock-free for all K, no instance up to K=7 has an illegitimate
    /// global deadlock.
    #[test]
    fn theorem_4_2_sound(p in arb_protocol(3)) {
        let a = DeadlockAnalysis::analyze(&p);
        if a.is_free_for_all_k() {
            for k in 1..=7 {
                let ring = RingInstance::symmetric(&p, k).unwrap();
                let bad = check::illegitimate_deadlocks(&ring);
                prop_assert!(
                    bad.is_empty(),
                    "local verdict FREE but global deadlock at K={k}: {:?}",
                    bad.first()
                );
            }
        }
    }

    /// Theorem 4.2, completeness direction: every witness cycle's base ring
    /// size really exhibits a global deadlock outside I, at the predicted
    /// configuration.
    #[test]
    fn theorem_4_2_complete(p in arb_protocol(3)) {
        let a = DeadlockAnalysis::analyze(&p);
        for w in a.witnesses().0.iter().take(5) {
            if w.base_ring_size > 9 {
                continue;
            }
            // The theorem also covers multiples; check the base and double.
            for mult in [1usize, 2] {
                let k = w.base_ring_size * mult;
                if k > 9 { continue; }
                let ring = RingInstance::symmetric(&p, k).unwrap();
                let config: Vec<u8> = (0..k).map(|i| w.configuration[i % w.base_ring_size]).collect();
                let gid = ring.space().encode(&config);
                prop_assert!(ring.is_deadlock(gid), "witness configuration is not deadlocked at K={k}");
                prop_assert!(!ring.is_legit(gid), "witness configuration is legitimate at K={k}");
            }
        }
    }

    /// Theorem 4.2 exactness: the local verdict agrees with exhaustive
    /// global deadlock detection over K=1..=6 *when the verdict is FREE*;
    /// when NOT free, some ring size in the witnesses' span must exhibit a
    /// deadlock (checked via the witnesses above). Additionally, if any
    /// global instance K≤6 has an illegitimate deadlock, the local verdict
    /// must be NOT free.
    #[test]
    fn theorem_4_2_exact_on_small_rings(p in arb_protocol(3)) {
        let a = DeadlockAnalysis::analyze(&p);
        let mut any_global = false;
        for k in 1..=6 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            if !check::illegitimate_deadlocks(&ring).is_empty() {
                any_global = true;
            }
        }
        if any_global {
            prop_assert!(!a.is_free_for_all_k(), "global deadlock exists but local verdict is FREE");
        }
    }

    /// The analysis agrees with a reference built from public pieces.
    /// `witnesses()` is Johnson's enumeration of the deadlock-induced RCG
    /// through the illegitimate deadlocks, stably sorted by length, and
    /// `(empty, false)` on a free protocol.
    /// `free_without(R)` is Theorem 4.2 over the deadlocks outside `R`, for
    /// `R` drawn from the illegitimate deadlocks, and `free_without(&[])`
    /// is the verdict. `witness_without(R)` is `None` iff `free_without(R)`
    /// holds, and otherwise a cycle of local deadlocks outside `R` that
    /// closes in the RCG, passes through an illegitimate one and spells out
    /// its configuration; without `R` it is as short as the shortest
    /// enumerated witness (at d = 3 the enumeration is complete).
    #[test]
    fn deadlock_analysis_matches_the_eager_reference(
        p in arb_protocol(3),
        picks in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let a = DeadlockAnalysis::analyze(&p);
        let rcg = Rcg::build(&p);
        let deadlocks = p.local_deadlocks();
        let illegit = p.legit().negated();
        let bad = p.illegitimate_deadlocks();

        let expected = if a.is_free_for_all_k() {
            (Vec::new(), false)
        } else {
            let e = simple_cycles(&rcg.induced(&deadlocks), CycleBudget::default());
            let mut witnesses: Vec<DeadlockWitness> = e
                .through(bad.as_bitset())
                .map(|c| {
                    let cycle: Vec<LocalStateId> =
                        c.iter().map(|&v| LocalStateId(v as u32)).collect();
                    let configuration = cycle
                        .iter()
                        .map(|&s| p.space().value_at(s, p.locality().center()))
                        .collect();
                    DeadlockWitness { base_ring_size: cycle.len(), cycle, configuration }
                })
                .collect();
            witnesses.sort_by_key(|w| w.base_ring_size);
            (witnesses, e.truncated)
        };
        prop_assert_eq!(a.witnesses(), expected);

        let resolve: Vec<LocalStateId> = bad
            .as_bitset()
            .iter()
            .filter(|&v| picks[v % picks.len()])
            .map(|v| LocalStateId(v as u32))
            .collect();
        let mut remaining = deadlocks.as_bitset().clone();
        for s in &resolve {
            remaining.remove(s.index());
        }
        let reference = vertices_on_cycles(&rcg.graph().induced(&remaining))
            .iter()
            .all(|v| !illegit.holds(LocalStateId(v as u32)));
        prop_assert_eq!(a.free_without(&resolve), reference, "resolve {:?}", resolve);
        prop_assert_eq!(a.free_without(&[]), a.is_free_for_all_k());

        for r in [&resolve[..], &[]] {
            let Some(w) = a.witness_without(r) else {
                prop_assert!(a.free_without(r), "no witness, yet {:?} leaves a bad cycle", r);
                continue;
            };
            prop_assert!(!a.free_without(r), "a witness, yet {:?} is free", r);
            let n = w.cycle.len();
            prop_assert_eq!(w.base_ring_size, n);
            prop_assert_eq!(w.configuration.len(), n);
            for (i, &s) in w.cycle.iter().enumerate() {
                prop_assert!(rcg.graph().has_arc(s.index(), w.cycle[(i + 1) % n].index()));
                prop_assert!(deadlocks.as_bitset().contains(s.index()) && !r.contains(&s));
                prop_assert_eq!(
                    p.space().decode(s),
                    vec![w.configuration[(i + n - 1) % n], w.configuration[i]]
                );
            }
            prop_assert!(w.cycle.iter().any(|&s| illegit.holds(s)), "{:?}", w);
        }
        prop_assert_eq!(
            a.witness_without(&[]).map(|w| w.base_ring_size),
            a.witnesses().0.first().map(|w| w.base_ring_size)
        );
    }

    /// `deadlocked_ring_sizes` is exact: it matches global deadlock
    /// detection at every size.
    #[test]
    fn deadlocked_ring_sizes_exact(p in arb_protocol(3)) {
        let a = DeadlockAnalysis::analyze(&p);
        let sizes = a.deadlocked_ring_sizes(6);
        for k in 1..=6 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let global = !check::illegitimate_deadlocks(&ring).is_empty();
            prop_assert_eq!(
                sizes.contains(&k),
                global,
                "ring-size set disagrees with global at K={}", k
            );
        }
    }

    /// Theorem 4.2 on bidirectional rings, with exact ring sizes.
    #[test]
    fn theorem_4_2_bidirectional(p in arb_bidirectional(2)) {
        let a = DeadlockAnalysis::analyze(&p);
        let sizes = a.deadlocked_ring_sizes(6);
        for k in 1..=6 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let bad = check::illegitimate_deadlocks(&ring);
            if a.is_free_for_all_k() {
                prop_assert!(bad.is_empty(), "local FREE but deadlock at K={k}");
            }
            if !bad.is_empty() {
                prop_assert!(!a.is_free_for_all_k());
            }
            prop_assert_eq!(sizes.contains(&k), !bad.is_empty(), "ring-size set wrong at K={}", k);
        }
    }

    /// **Theorem 5.14 soundness**: a certified protocol has no livelock at
    /// any ring size K=2..=7.
    #[test]
    fn theorem_5_14_sound(p in arb_protocol(2)) {
        let a = LivelockAnalysis::analyze(&p);
        if a.certified_free() {
            for k in 2..=7 {
                let ring = RingInstance::symmetric(&p, k).unwrap();
                prop_assert!(
                    check::find_livelock(&ring).is_none(),
                    "certified livelock-free but livelock found at K={k}"
                );
            }
        }
    }

    /// Theorem 5.14 soundness over a 3-valued domain.
    #[test]
    fn theorem_5_14_sound_d3(p in arb_protocol(3)) {
        let a = LivelockAnalysis::analyze(&p);
        if a.certified_free() {
            for k in 2..=5 {
                let ring = RingInstance::symmetric(&p, k).unwrap();
                prop_assert!(
                    check::find_livelock(&ring).is_none(),
                    "certified livelock-free but livelock found at K={k}"
                );
            }
        }
    }

    /// Combined report soundness: a protocol the local method declares
    /// self-stabilizing for all K passes the full global check on every
    /// tested size.
    #[test]
    fn report_sound(p in arb_protocol(2)) {
        let r = StabilizationReport::analyze(&p);
        if r.is_self_stabilizing_for_all_k() {
            for k in 2..=6 {
                let ring = RingInstance::symmetric(&p, k).unwrap();
                let g = check::ConvergenceReport::check(&ring);
                prop_assert!(g.self_stabilizing(), "local verdict SS but global check fails at K={k}: {g}");
            }
        }
    }

    /// Local closure check soundness: Ok(()) implies no global closure
    /// violations at any tested size.
    #[test]
    fn closure_check_sound(p in arb_protocol(3)) {
        if local_closure_check(&p).is_ok() {
            for k in 2..=5 {
                let ring = RingInstance::symmetric(&p, k).unwrap();
                prop_assert!(
                    check::closure_violations(&ring).is_empty(),
                    "local closure OK but global violation at K={k}"
                );
            }
        }
    }

    /// The self-disabling transform preserves local deadlocks and
    /// self-termination, and its output is process-self-disabling.
    #[test]
    fn self_disabling_transform_properties(p in arb_protocol(3)) {
        if !is_self_terminating(&p) {
            return Ok(()); // transform requires Assumption 1
        }
        if let Ok(q) = selfstab_core::ltg::make_self_disabling(&p) {
            prop_assert!(selfstab_core::ltg::is_process_self_disabling(&q));
            prop_assert_eq!(
                p.local_deadlocks().as_bitset().iter().collect::<Vec<_>>(),
                q.local_deadlocks().as_bitset().iter().collect::<Vec<_>>()
            );
        }
    }
}
