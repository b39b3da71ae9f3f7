//! The fixed-`K` global baseline synthesizer (STSyn-like).
//!
//! This is the kind of tool the paper's authors used to produce Examples
//! 4.2 and 4.3: it explores the same candidate space as the local
//! methodology, but accepts a candidate by *global model checking at one
//! fixed ring size*. Solutions are correct at that size — and may break at
//! other sizes, which is precisely the non-generalizability phenomenon
//! (Example 4.3 stabilizes at `K = 5` and deadlocks at `K = 6`).
//!
//! Its cost also scales as `d^K`, which the scaling benchmarks (experiment
//! E12) contrast with the `K`-independent local method.

use selfstab_core::rcg::Rcg;
use selfstab_global::{check::ConvergenceReport, GlobalError, RingInstance};
use selfstab_protocol::{LocalStateId, LocalTransition, Protocol};

use crate::local::{ComboSpace, LocalSynthesizer, SynthesisConfig};

/// A solution of the global baseline synthesizer.
#[derive(Clone, Debug)]
pub struct GlobalSynthesizedProtocol {
    /// The revised protocol.
    pub protocol: Protocol,
    /// The recovery transitions added.
    pub added: Vec<LocalTransition>,
    /// The ring size at which the solution was verified.
    pub verified_at: usize,
}

/// The outcome of a global-baseline synthesis run.
#[derive(Clone, Debug)]
pub struct GlobalSynthesisOutcome {
    solutions: Vec<GlobalSynthesizedProtocol>,
    combinations_tried: usize,
    truncated: bool,
}

impl GlobalSynthesisOutcome {
    /// The accepted revisions (verified only at the synthesis ring size).
    pub fn solutions(&self) -> &[GlobalSynthesizedProtocol] {
        &self.solutions
    }

    /// Whether any solution was found.
    pub fn is_success(&self) -> bool {
        !self.solutions.is_empty()
    }

    /// Number of candidate combinations model-checked.
    pub fn combinations_tried(&self) -> usize {
        self.combinations_tried
    }

    /// `true` if a budget limit stopped the search early.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

/// A synthesizer that verifies candidates by explicit-state model checking
/// at one fixed ring size (the paper's prior-work baseline).
#[derive(Clone, Debug)]
pub struct GlobalSynthesizer {
    config: SynthesisConfig,
    ring_size: usize,
}

impl GlobalSynthesizer {
    /// Creates a baseline synthesizer that verifies at `ring_size`.
    pub fn new(ring_size: usize, config: SynthesisConfig) -> Self {
        GlobalSynthesizer { config, ring_size }
    }

    /// Runs the baseline synthesis: same `Resolve`/candidate space as the
    /// local methodology, but each combination is accepted iff the global
    /// convergence check passes at the fixed ring size.
    ///
    /// # Errors
    ///
    /// Returns [`GlobalError`] if the global state space at the fixed size
    /// exceeds the limit.
    pub fn synthesize(&self, protocol: &Protocol) -> Result<GlobalSynthesisOutcome, GlobalError> {
        let rcg = Rcg::build(protocol);
        let local = LocalSynthesizer::new(self.config.clone());
        let mut outcome = GlobalSynthesisOutcome {
            solutions: Vec::new(),
            combinations_tried: 0,
            truncated: false,
        };

        let name = format!("{}-gss{}", protocol.name(), self.ring_size);
        for resolve in local.resolve_sets(protocol, &rcg) {
            if outcome.combinations_tried >= self.config.max_combinations
                || outcome.solutions.len() >= self.config.max_solutions
            {
                outcome.truncated = true;
                break;
            }
            let per_state: Vec<Vec<LocalTransition>> = resolve
                .iter()
                .map(|&s: &LocalStateId| {
                    local
                        .candidates(protocol, &resolve, s)
                        .expect("protocol domains are capped at 255 values")
                })
                .collect();
            if per_state.iter().any(Vec::is_empty) {
                continue;
            }

            // Stream the one-choice-per-state combinations lazily (same
            // mixed-radix order as the local engine's canonical enumeration).
            let space = ComboSpace {
                per_state: &per_state,
            };
            // An overflowing combination space cannot be streamed exactly;
            // the budget cap below would stop it anyway, so clamp to the
            // budget rather than erroring the whole baseline run.
            let total = space
                .checked_total()
                .unwrap_or(self.config.max_combinations as u64);
            let mut digits = Vec::new();
            let mut added = Vec::new();
            space.first(&mut digits);
            for _ in 0..total {
                if outcome.combinations_tried >= self.config.max_combinations
                    || outcome.solutions.len() >= self.config.max_solutions
                {
                    outcome.truncated = true;
                    break;
                }
                outcome.combinations_tried += 1;
                space.fill(&digits, &mut added);
                space.advance(&mut digits);
                let candidate = match protocol.with_added_transitions(&name, added.iter().copied())
                {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                let ring = RingInstance::symmetric(&candidate, self.ring_size)?;
                let report = ConvergenceReport::check(&ring);
                if report.self_stabilizing() {
                    outcome.solutions.push(GlobalSynthesizedProtocol {
                        protocol: candidate,
                        added: added.clone(),
                        verified_at: self.ring_size,
                    });
                }
            }
        }
        Ok(outcome)
    }
}

/// Cutoff-style verification baseline: checks strong self-stabilization by
/// explicit model checking at every ring size `2..=max_k`, returning the
/// first failing size (with its report) or `Ok(())`.
///
/// # Errors
///
/// Returns the failing ring size and its convergence report, or a
/// [`GlobalError`] (boxed in the report position's `Err`) when a state
/// space exceeds the limit — reported as size 0 with no report.
pub fn verify_up_to(
    protocol: &Protocol,
    max_k: usize,
) -> Result<(), (usize, Option<ConvergenceReport>)> {
    for k in 2..=max_k {
        match RingInstance::symmetric(protocol, k) {
            Err(_) => return Err((k, None)),
            Ok(ring) => {
                let report = ConvergenceReport::check(&ring);
                if !report.self_stabilizing() {
                    return Err((k, Some(report)));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    fn empty_agreement() -> Protocol {
        Protocol::builder(
            "agreement",
            Domain::numeric("x", 2),
            Locality::unidirectional(),
        )
        .legit("x[r] == x[r-1]")
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn global_baseline_finds_solutions_at_fixed_k() {
        let p = empty_agreement();
        let out = GlobalSynthesizer::new(4, SynthesisConfig::default())
            .synthesize(&p)
            .unwrap();
        assert!(out.is_success());
        for s in out.solutions() {
            assert_eq!(s.verified_at, 4);
            assert!(verify_up_to(&s.protocol, 4).is_ok());
        }
    }

    #[test]
    fn global_baseline_produces_non_generalizable_artifacts() {
        // The non-generalizability trap the paper motivates with Example
        // 4.3: a solution verified at one size breaks at another. The
        // sum-not-two candidate {t20, t10, t02} converges at K=2 — so a
        // K=2 baseline accepts it — but livelocks at every K ≥ 3.
        let p = Protocol::builder("sn2", Domain::numeric("x", 3), Locality::unidirectional())
            .legit("x[r] + x[r-1] != 2")
            .unwrap()
            .build()
            .unwrap();
        let sp = p.space();
        let added = vec![
            LocalTransition::new(sp.encode(&[0, 2]), 0), // t20
            LocalTransition::new(sp.encode(&[1, 1]), 0), // t10
            LocalTransition::new(sp.encode(&[2, 0]), 2), // t02
        ];
        let candidate = p.with_added_transitions("trap", added.clone()).unwrap();
        assert!(verify_up_to(&candidate, 2).is_ok());
        let (k, report) = verify_up_to(&candidate, 3).unwrap_err();
        assert_eq!(k, 3);
        assert!(report.unwrap().livelock.is_some());

        // And the K=2 baseline synthesizer indeed emits this trap.
        let out = GlobalSynthesizer::new(2, SynthesisConfig::default())
            .synthesize(&p)
            .unwrap();
        assert!(out.solutions().iter().any(|s| {
            let mut a = s.added.clone();
            a.sort_unstable();
            let mut b = added.clone();
            b.sort_unstable();
            a == b
        }));
    }

    #[test]
    fn verify_up_to_passes_for_generalizable_solution() {
        let p = empty_agreement();
        let sp = p.space();
        let one = p
            .with_added_transitions("one", [LocalTransition::new(sp.encode(&[1, 0]), 1)])
            .unwrap();
        assert!(verify_up_to(&one, 8).is_ok());
    }
}
