//! Property tests: local synthesis emits only generalizable solutions.

use proptest::prelude::*;
use selfstab_core::deadlock::DeadlockAnalysis;
use selfstab_core::rcg::Rcg;
use selfstab_global::CancelToken;
use selfstab_graph::scc::vertices_on_cycles;
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

/// Reference resolve sets by brute force: every subset of the illegitimate
/// local deadlocks (at most 9 at d ≤ 3) that leaves no illegitimate state on
/// a cycle of the deadlock-induced RCG, by the SCC test on the RCG itself;
/// then the minimal ones, in (size, lex) order, the first
/// `max_resolve_sets` of them.
fn reference_resolve_sets(p: &Protocol, max_resolve_sets: usize) -> Vec<Vec<LocalStateId>> {
    let rcg = Rcg::build(p);
    let illegit = p.legit().negated();
    let bad: Vec<LocalStateId> = p
        .illegitimate_deadlocks()
        .as_bitset()
        .iter()
        .map(|v| LocalStateId(v as u32))
        .collect();
    let subset = |mask: u32| -> Vec<LocalStateId> {
        (0..bad.len())
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| bad[i])
            .collect()
    };
    let free: Vec<u32> = (0..1u32 << bad.len())
        .filter(|&mask| {
            let mut remaining = p.local_deadlocks().as_bitset().clone();
            for s in subset(mask) {
                remaining.remove(s.index());
            }
            vertices_on_cycles(&rcg.graph().induced(&remaining))
                .iter()
                .all(|v| !illegit.holds(LocalStateId(v as u32)))
        })
        .collect();
    let mut sets: Vec<Vec<LocalStateId>> = free
        .iter()
        .filter(|&&mask| {
            free.iter()
                .all(|&other| other == mask || other & mask != other)
        })
        .map(|&mask| subset(mask))
        .collect();
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.truncate(max_resolve_sets);
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resolve sets, and their order, are those of the brute-force
    /// reference, over random protocols whose deadlock sets vary, and each
    /// set leaves no bad cycle. (d stays at most 3, so the reference tries
    /// at most 2^9 subsets.)
    #[test]
    fn resolve_sets_match_the_brute_force_reference(
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
