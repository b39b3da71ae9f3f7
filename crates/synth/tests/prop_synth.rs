//! Property tests: local synthesis emits only generalizable solutions.

use proptest::prelude::*;
use selfstab_core::deadlock::DeadlockAnalysis;
use selfstab_core::rcg::Rcg;
use selfstab_global::CancelToken;
use selfstab_graph::{
    cycles::{simple_cycles, CycleBudget},
    hitting::minimal_hitting_sets,
    scc::vertices_on_cycles,
};
use selfstab_protocol::{Domain, LocalStateId, LocalTransition, Locality, Protocol};
use selfstab_synth::{GlobalSynthesizer, LocalSynthesizer, SynthesisConfig};

/// An empty protocol with a random non-trivial closed (trivially, since
/// empty) legitimate predicate over a unidirectional ring.
fn arb_empty_protocol(d: usize) -> impl Strategy<Value = Protocol> {
    let nstates = d * d;
    proptest::collection::vec(any::<bool>(), nstates).prop_filter_map(
        "legit must be non-empty",
        move |legit| {
            if !legit.iter().any(|&b| b) {
                return None;
            }
            Protocol::builder("rand", Domain::numeric("x", d), Locality::unidirectional())
                .legit_fn(|id, _| legit[id.index()])
                .build()
                .ok()
        },
    )
}

/// A protocol whose legitimate windows (about a third) and transitions
/// (about one state in four, writing `x[r] + offset mod d`) are drawn at
/// random, so the local deadlocks vary with the draw and many draws have
/// several resolve sets.
fn arb_protocol(d: usize) -> impl Strategy<Value = Protocol> {
    let nstates = d * d;
    (
        proptest::collection::vec(0..3usize, nstates),
        proptest::collection::vec(0..4usize, nstates),
        proptest::collection::vec(1..d, nstates),
    )
        .prop_filter_map(
            "legit must be non-empty",
            move |(legit, enabled, offsets)| {
                if !legit.contains(&0) {
                    return None;
                }
                let empty =
                    Protocol::builder("rand", Domain::numeric("x", d), Locality::unidirectional())
                        .legit_fn(|id, _| legit[id.index()] == 0)
                        .build()
                        .ok()?;
                let space = empty.space();
                let centre = empty.locality().center();
                let transitions = (0..nstates).filter(|&s| enabled[s] == 0).map(|s| {
                    let state = LocalStateId(s as u32);
                    let current = space.value_at(state, centre) as usize;
                    LocalTransition::new(state, ((current + offsets[s]) % d) as u8)
                });
                empty.with_transitions("rand", transitions).ok()
            },
        )
}

/// Reference resolve sets, computed per cycle from public pieces: one
/// unsorted family per enumerated bad cycle, the hitting-set search over
/// all of them (the empty set when there is none), the exact Theorem 4.2
/// re-check, and a stable sort by the per-cycle family degree of each set.
fn reference_resolve_sets(p: &Protocol, max_resolve_sets: usize) -> Vec<Vec<LocalStateId>> {
    let rcg = Rcg::build(p);
    let illegit = p.legit().negated();
    let cycles = simple_cycles(&rcg.induced(&p.local_deadlocks()), CycleBudget::default());
    let families: Vec<Vec<usize>> = cycles
        .cycles
        .iter()
        .map(|c| {
            c.iter()
                .copied()
                .filter(|&v| illegit.holds(LocalStateId(v as u32)))
                .collect::<Vec<usize>>()
        })
        .filter(|f| !f.is_empty())
        .collect();
    let mut sets: Vec<Vec<LocalStateId>> = minimal_hitting_sets(&families, max_resolve_sets)
        .into_iter()
        .map(|s| s.into_iter().map(|v| LocalStateId(v as u32)).collect())
        .filter(|resolve: &Vec<LocalStateId>| {
            let mut remaining = p.local_deadlocks().as_bitset().clone();
            for s in resolve {
                remaining.remove(s.index());
            }
            vertices_on_cycles(&rcg.graph().induced(&remaining))
                .iter()
                .all(|v| !illegit.holds(LocalStateId(v as u32)))
        })
        .collect();
    let weight = |set: &[LocalStateId]| -> usize {
        set.iter()
            .map(|s| families.iter().filter(|f| f.contains(&s.index())).count())
            .sum()
    };
    sets.sort_by_key(|s| std::cmp::Reverse(weight(s)));
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resolve sets, and their order, are those of the per-cycle
    /// reference, over random protocols whose deadlock sets vary, and each
    /// set leaves no bad cycle. (d stays at most 3: the reference searches
    /// one family per cycle, which takes seconds in a debug build once the
    /// enumeration reaches its budget.)
    #[test]
    fn resolve_sets_match_the_per_cycle_reference(
        p in prop_oneof![arb_protocol(2), arb_protocol(3)],
        max_resolve_sets in 1usize..5,
    ) {
        let synth = LocalSynthesizer::new(SynthesisConfig {
            max_resolve_sets,
            ..SynthesisConfig::default()
        });
        let rcg = Rcg::build(&p);
        let sets = synth.resolve_sets(&p, &rcg);
        let deadlocks = DeadlockAnalysis::analyze_prepared(&p, &rcg);
        for set in &sets {
            prop_assert!(
                deadlocks.free_without(set),
                "resolve set {:?} of {} leaves a bad cycle", set, p
            );
        }
        prop_assert_eq!(
            sets,
            reference_resolve_sets(&p, max_resolve_sets),
            "protocol {}", p
        );
    }

    /// Every solution of the local synthesizer is strongly self-stabilizing
    /// at every checked ring size — the generalizability guarantee.
    #[test]
    fn local_synthesis_solutions_are_generalizable(p in arb_empty_protocol(2)) {
        let out = LocalSynthesizer::new(SynthesisConfig {
            max_solutions: 8,
            ..SynthesisConfig::default()
        })
        .synthesize(&p).unwrap();
        for s in out.solutions() {
            prop_assert!(
                selfstab_synth::global::verify_up_to(&s.protocol, 7).is_ok(),
                "local solution breaks globally: {}",
                s.protocol
            );
        }
    }

    /// Same over a 3-valued domain (smaller ring bound: d^K states).
    #[test]
    fn local_synthesis_solutions_are_generalizable_d3(p in arb_empty_protocol(3)) {
        let out = LocalSynthesizer::new(SynthesisConfig {
            max_solutions: 4,
            max_combinations: 256,
            ..SynthesisConfig::default()
        })
        .synthesize(&p).unwrap();
        for s in out.solutions() {
            prop_assert!(
                selfstab_synth::global::verify_up_to(&s.protocol, 5).is_ok(),
                "local solution breaks globally: {}",
                s.protocol
            );
        }
    }

    /// The local solutions are a subset of the global baseline's solutions
    /// at any fixed size (the baseline accepts more, including
    /// non-generalizable ones).
    #[test]
    fn local_solutions_pass_global_baseline(p in arb_empty_protocol(2), k in 2usize..5) {
        let cfg = SynthesisConfig {
            max_solutions: 8,
            ..SynthesisConfig::default()
        };
        let local = LocalSynthesizer::new(cfg.clone()).synthesize(&p).unwrap();
        if local.solutions().is_empty() {
            return Ok(());
        }
        let global = GlobalSynthesizer::new(k, cfg).synthesize(&p).unwrap();
        for s in local.solutions() {
            let mut a = s.added.clone();
            a.sort_unstable();
            prop_assert!(
                global.solutions().iter().any(|g| {
                    let mut b = g.added.clone();
                    b.sort_unstable();
                    a == b
                }) || global.truncated(),
                "a generalizable solution was missed by the global baseline at K={k}"
            );
        }
    }

    /// The pruning contract: for every random protocol and budget cutoff,
    /// the pruned engine's [`SynthesisOutcome`] is identical to the
    /// reference full enumeration — cone-skipped candidates are recounted,
    /// never dropped, so even a budget that truncates mid-cone cannot
    /// perturb the counts or the solutions.
    #[test]
    fn pruning_is_invisible_across_budgets(
        p in arb_empty_protocol(3),
        budget_pick in 0usize..3,
    ) {
        let max_combinations = [7usize, 64, 4096][budget_pick];
        let config = |prune| SynthesisConfig {
            max_solutions: 8,
            max_combinations,
            prune,
            ..SynthesisConfig::default()
        };
        let full = LocalSynthesizer::new(config(false)).synthesize(&p).unwrap();
        let pruned = LocalSynthesizer::new(config(true)).synthesize(&p).unwrap();
        prop_assert_eq!(
            &pruned, &full,
            "pruning perturbed the outcome at budget {}",
            max_combinations
        );
    }

    /// Cancellation mid-prune: the same prefix-preservation contract as
    /// the unpruned engine, judged against the *unpruned* full run — a cut
    /// installed before the cancel point must not let the pruned engine
    /// lose, invent, or reorder anything in the verified prefix.
    #[test]
    fn cancellation_mid_prune_preserves_the_verified_prefix(
        p in arb_empty_protocol(2),
        delay_us in 0u64..200,
    ) {
        let config = SynthesisConfig {
            max_solutions: 8,
            prune: true,
            ..SynthesisConfig::default()
        };
        let full = LocalSynthesizer::new(SynthesisConfig {
            prune: false,
            ..config.clone()
        })
        .synthesize(&p).unwrap();

        let cancel = std::sync::Arc::new(CancelToken::new());
        let canceller = {
            let cancel = std::sync::Arc::clone(&cancel);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                cancel.cancel();
            })
        };
        let out = LocalSynthesizer::new(config)
            .synthesize_metered(&p, &cancel, None, None)
            .unwrap();
        canceller.join().unwrap();

        if out.cancelled() {
            prop_assert!(out.truncated(), "a cancelled outcome must be truncated");
        } else {
            prop_assert_eq!(&out, &full, "an uncancelled pruned run must match the full run");
        }
        prop_assert!(out.solutions().len() <= full.solutions().len());
        for (got, want) in out.solutions().iter().zip(full.solutions()) {
            prop_assert_eq!(got, want, "cancellation mid-prune reordered or lost a solution");
        }
        prop_assert!(out.combinations_tried() <= full.combinations_tried());
    }

    /// Cancellation mid-run yields a clean truncated outcome whose solutions
    /// are a prefix of the uncancelled run's — no solution below the cancel
    /// point is ever lost, and nothing beyond the verified prefix is
    /// invented.
    #[test]
    fn cancellation_preserves_the_verified_prefix(
        p in arb_empty_protocol(2),
        delay_us in 0u64..200,
    ) {
        let config = SynthesisConfig {
            max_solutions: 8,
            ..SynthesisConfig::default()
        };
        let full = LocalSynthesizer::new(config.clone()).synthesize(&p).unwrap();

        let cancel = std::sync::Arc::new(CancelToken::new());
        let canceller = {
            let cancel = std::sync::Arc::clone(&cancel);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                cancel.cancel();
            })
        };
        let out = LocalSynthesizer::new(config)
            .synthesize_metered(&p, &cancel, None, None)
            .unwrap();
        canceller.join().unwrap();

        if out.cancelled() {
            prop_assert!(out.truncated(), "a cancelled outcome must be truncated");
        } else {
            prop_assert_eq!(&out, &full, "an uncancelled run must match the full run");
        }
        // Either way the solutions are a prefix of the full enumeration.
        prop_assert!(out.solutions().len() <= full.solutions().len());
        for (got, want) in out.solutions().iter().zip(full.solutions()) {
            prop_assert_eq!(got, want, "cancellation reordered or lost a solution");
        }
        prop_assert!(out.combinations_tried() <= full.combinations_tried());
    }
}
