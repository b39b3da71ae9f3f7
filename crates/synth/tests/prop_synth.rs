//! Property tests: local synthesis emits only generalizable solutions.

use proptest::prelude::*;
use selfstab_global::CancelToken;
use selfstab_protocol::{Domain, Locality, Protocol};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

    /// The deterministic-merge contract: the full [`SynthesisOutcome`] is
    /// invariant across worker-thread counts, for every random protocol.
    #[test]
    fn outcome_is_thread_count_invariant(p in arb_empty_protocol(2)) {
        let config = |threads| SynthesisConfig {
            max_solutions: 8,
            threads,
            ..SynthesisConfig::default()
        };
        let sequential = LocalSynthesizer::new(config(1)).synthesize(&p).unwrap();
        for threads in [2, 8] {
            let parallel = LocalSynthesizer::new(config(threads)).synthesize(&p).unwrap();
            prop_assert_eq!(
                &parallel, &sequential,
                "outcome diverged at {} threads", threads
            );
        }
    }

    /// The pruning contract: for every random protocol, worker-thread
    /// count, and budget cutoff, the pruned engine's [`SynthesisOutcome`]
    /// is identical to the reference full enumeration — cone-skipped
    /// candidates are recounted, never dropped, so even a budget that
    /// truncates mid-cone cannot perturb the counts or the solutions.
    #[test]
    fn pruning_is_invisible_across_threads_and_budgets(
        p in arb_empty_protocol(3),
        threads_pick in 0usize..3,
        budget_pick in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_pick];
        let max_combinations = [7usize, 64, 4096][budget_pick];
        let config = |prune| SynthesisConfig {
            max_solutions: 8,
            max_combinations,
            threads,
            prune,
            ..SynthesisConfig::default()
        };
        let full = LocalSynthesizer::new(config(false)).synthesize(&p).unwrap();
        let pruned = LocalSynthesizer::new(config(true)).synthesize(&p).unwrap();
        prop_assert_eq!(
            &pruned, &full,
            "pruning perturbed the outcome at {} threads, budget {}",
            threads, max_combinations
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
            threads: 4,
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
            threads: 4,
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
