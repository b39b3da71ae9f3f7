//! The local synthesis methodology (Section 6), as a streaming parallel
//! engine.
//!
//! Candidate combinations (one recovery transition per `Resolve` state) are
//! enumerated **lazily** through a mixed-radix index — no materialized
//! cross-product, O(|Resolve|) memory per in-flight candidate — and verified
//! by scoped worker threads that claim fixed-size chunks of the combination
//! index space, mirroring `crates/global/src/engine.rs`:
//!
//! * **Determinism** — per-candidate verification is a pure function of the
//!   candidate, chunks are merged in ascending index order, and all budget
//!   cutoffs are applied on the merged canonical prefix. The
//!   [`SynthesisOutcome`] (solutions, order, verdicts, counters) is
//!   identical for every thread count.
//! * **Exact budgets** — `max_combinations` is a cumulative cap on verified
//!   candidates, `max_solutions` cuts the canonical enumeration right after
//!   the accepted candidate that fills it, and `truncated()` is `true` iff
//!   unexplored work actually remained. Workers may speculatively verify
//!   candidates beyond a cutoff; the canonical merge discards that overwork.
//! * **Shared preparation** — the RCG depends only on the domain and the
//!   locality, not on the transition relation, so one [`Rcg`] is built per
//!   protocol and shared by every candidate's deadlock re-check
//!   ([`DeadlockAnalysis::analyze_prepared`]).
//! * **Cancellation** — a cooperative [`CancelToken`] is polled once per
//!   candidate; on cancellation the verified contiguous prefix is kept, so
//!   no solution below the cancel point is lost.
//! * **Monotone lattice pruning** (`prune`, on by default) — a candidate
//!   rejected by a qualifying trail certifies a *cut*: the trail's used
//!   t-arcs form a pseudo-livelock union whose presence dooms **every**
//!   superset candidate, because the trail search depends only on the
//!   s-arcs (space-determined), the allowed t-arcs, and the illegitimate
//!   states — none of which a superset changes. Cuts are published in a
//!   lock-free index and each worker skips the cut's upward cone with a
//!   per-digit subset test; skipped candidates are *recounted* with the
//!   tag the full engine would have assigned (TAG_TRAIL), so the outcome
//!   stays byte-identical with pruning on or off, at every thread count.
//!   Verified candidates reuse the `Resolve` set's shared Theorem 4.2
//!   verdict and a per-worker delta-applied LTG ([`Ltg::retarget`])
//!   instead of from-scratch analyses. See DESIGN.md §14.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use selfstab_core::deadlock::DeadlockAnalysis;
use selfstab_core::livelock::LivelockAnalysis;
use selfstab_core::ltg::Ltg;
use selfstab_core::pseudo::forms_pseudo_livelock_union;
use selfstab_core::rcg::Rcg;
use selfstab_global::CancelToken;
use selfstab_graph::{
    cycles::{simple_cycles, CycleBudget},
    hitting::minimal_hitting_sets,
};
use selfstab_protocol::{LocalPredicate, LocalStateId, LocalTransition, Protocol};
use selfstab_telemetry::{span, Phase, PhaseSink, SynthesisCounters};

/// Budgets and switches for the local synthesizer.
#[derive(Clone, Debug)]
pub struct SynthesisConfig {
    /// Maximum number of `Resolve` sets to try.
    pub max_resolve_sets: usize,
    /// Maximum cumulative number of candidate-transition combinations to
    /// verify (exact: the engine stops after verifying exactly this many).
    pub max_combinations: usize,
    /// Stop after this many accepted solutions (use 1 for first-solution
    /// mode).
    pub max_solutions: usize,
    /// Budget for RCG cycle enumeration when computing `Resolve`.
    pub cycle_budget: CycleBudget,
    /// Worker threads for candidate verification (1 = sequential; the
    /// outcome is identical either way).
    pub threads: usize,
    /// Monotone lattice pruning and delta-verification (see the module
    /// docs). The [`SynthesisOutcome`] is byte-identical with pruning on or
    /// off; `false` forces the reference full-enumeration engine.
    pub prune: bool,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_resolve_sets: 32,
            max_combinations: 4096,
            max_solutions: 64,
            cycle_budget: CycleBudget::default(),
            threads: 1,
            prune: true,
        }
    }
}

/// A typed failure of the synthesis engine (distinct from the methodology
/// *declaring* failure, which is a successful run with zero solutions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// The protocol's domain has more values than a `u8` can index, so the
    /// candidate value range cannot be enumerated without truncation.
    DomainTooLarge {
        /// The offending domain size.
        domain_size: usize,
    },
    /// The candidate cross-product of a `Resolve` set overflows `u64`, so
    /// the mixed-radix index cannot address every combination — silently
    /// saturating would make the chunked workers enumerate garbage indices.
    CombinationSpaceTooLarge {
        /// Number of states in the offending `Resolve` set.
        resolve_states: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::DomainTooLarge { domain_size } => write!(
                f,
                "domain has {domain_size} values, but candidate enumeration \
                 is limited to {} (u8 value range)",
                u8::MAX as usize + 1
            ),
            SynthesisError::CombinationSpaceTooLarge { resolve_states } => write!(
                f,
                "the candidate combination space of a {resolve_states}-state \
                 Resolve set overflows the u64 index range; no budget can \
                 enumerate it exactly"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// How an accepted solution satisfied the livelock conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthesisVerdict {
    /// Step 4: the added t-arcs form no pseudo-livelock at all.
    NoPseudoLivelock,
    /// Step 5: pseudo-livelocks exist but none participates in a
    /// contiguous trail through an illegitimate state.
    PseudoLivelocksWithoutTrails,
}

/// One accepted revision `p_ss`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthesizedProtocol {
    /// The revised protocol (input transitions plus recovery transitions).
    pub protocol: Protocol,
    /// The `Resolve` set used.
    pub resolve: Vec<LocalStateId>,
    /// The recovery transitions added.
    pub added: Vec<LocalTransition>,
    /// How the livelock conditions were met.
    pub verdict: SynthesisVerdict,
}

/// The outcome of a synthesis run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthesisOutcome {
    solutions: Vec<SynthesizedProtocol>,
    resolve_sets_tried: usize,
    combinations_tried: usize,
    rejected_by_trail: usize,
    truncated: bool,
    cancelled: bool,
}

impl SynthesisOutcome {
    /// The accepted revisions (empty means the methodology declared
    /// failure, as it does for 3-coloring and 2-coloring).
    pub fn solutions(&self) -> &[SynthesizedProtocol] {
        &self.solutions
    }

    /// Whether any solution was found.
    pub fn is_success(&self) -> bool {
        !self.solutions.is_empty()
    }

    /// Number of `Resolve` sets examined.
    pub fn resolve_sets_tried(&self) -> usize {
        self.resolve_sets_tried
    }

    /// Number of candidate combinations verified (never exceeds
    /// `max_combinations`; counted on the canonical enumeration prefix).
    pub fn combinations_tried(&self) -> usize {
        self.combinations_tried
    }

    /// Combinations rejected because a qualifying contiguous trail exists.
    pub fn rejected_by_trail(&self) -> usize {
        self.rejected_by_trail
    }

    /// `true` if a budget limit (or cancellation) stopped the search while
    /// unexplored work remained.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `true` if the search was stopped by its [`CancelToken`]. The
    /// outcome still holds every verdict from the verified prefix of the
    /// enumeration — nothing below the cancel point is lost.
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }
}

/// Lazy mixed-radix view of the one-choice-per-state candidate
/// cross-product of a `Resolve` set: combination `i` assigns to state `j`
/// the candidate `per_state[j][digit_j(i)]`, with state 0 as the most
/// significant digit — the order the materialized enumeration used.
pub(crate) struct ComboSpace<'a> {
    pub(crate) per_state: &'a [Vec<LocalTransition>],
}

impl ComboSpace<'_> {
    /// Number of combinations, or `None` when the product overflows `u64`
    /// — `decode`/`advance` assume the total is exact, so a saturated
    /// count must be a typed error at the caller, never an index into
    /// garbage. An empty `Resolve` set has exactly one, empty, combination;
    /// a state with zero options yields `Some(0)` (immediately
    /// unsatisfiable, and `decode` must not be called).
    pub(crate) fn checked_total(&self) -> Option<u64> {
        self.per_state
            .iter()
            .try_fold(1u64, |acc, opts| acc.checked_mul(opts.len() as u64))
    }

    /// Decodes combination `index` into one digit per state.
    pub(crate) fn decode(&self, mut index: u64, digits: &mut Vec<usize>) {
        digits.clear();
        digits.resize(self.per_state.len(), 0);
        for j in (0..self.per_state.len()).rev() {
            let len = self.per_state[j].len() as u64;
            digits[j] = (index % len) as usize;
            index /= len;
        }
    }

    /// Odometer step to the next combination (last state varies fastest).
    pub(crate) fn advance(&self, digits: &mut [usize]) {
        for j in (0..digits.len()).rev() {
            digits[j] += 1;
            if digits[j] < self.per_state[j].len() {
                return;
            }
            digits[j] = 0;
        }
    }

    /// Materializes the combination `digits` denotes into `added`.
    pub(crate) fn fill(&self, digits: &[usize], added: &mut Vec<LocalTransition>) {
        added.clear();
        added.extend(
            digits
                .iter()
                .enumerate()
                .map(|(j, &d)| self.per_state[j][d]),
        );
    }
}

/// Per-candidate verdict tags recorded by the scan (indexable, so the
/// canonical merge can recount rejections at any cutoff).
const TAG_INVALID: u8 = 0;
const TAG_DEADLOCK: u8 = 1;
const TAG_TRAIL: u8 = 2;
const TAG_ACCEPT: u8 = 3;

/// The Section 6 local synthesizer.
///
/// See the crate docs for the algorithm; all reasoning happens in the local
/// state space, so the cost is independent of any ring size and the
/// accepted solutions are *generalizable by construction*.
#[derive(Clone, Debug, Default)]
pub struct LocalSynthesizer {
    config: SynthesisConfig,
}

impl LocalSynthesizer {
    /// Creates a synthesizer with the given budgets.
    pub fn new(config: SynthesisConfig) -> Self {
        LocalSynthesizer { config }
    }

    /// Computes the candidate `Resolve` sets: minimal sets of illegitimate
    /// local deadlocks hitting every RCG cycle (over local deadlocks) that
    /// passes through an illegitimate state.
    ///
    /// Each returned set is re-verified exactly (Theorem 4.2 via SCCs), so
    /// the result is correct even if cycle enumeration was truncated.
    pub fn resolve_sets(&self, protocol: &Protocol, rcg: &Rcg) -> Vec<Vec<LocalStateId>> {
        self.resolve_sets_capped(protocol, rcg, self.config.max_resolve_sets)
    }

    /// [`LocalSynthesizer::resolve_sets`] with an explicit cap — the engine
    /// requests one extra set so truncation of the set list is observable.
    fn resolve_sets_capped(
        &self,
        protocol: &Protocol,
        rcg: &Rcg,
        cap: usize,
    ) -> Vec<Vec<LocalStateId>> {
        let deadlocks = protocol.local_deadlocks();
        let illegit = protocol.legit().negated();
        let induced = rcg.induced(&deadlocks);
        let enumeration = simple_cycles(&induced, self.config.cycle_budget);

        // Families: for each bad cycle, the illegitimate deadlocks on it.
        let mut families: Vec<Vec<usize>> = Vec::new();
        for cycle in &enumeration.cycles {
            let bad: Vec<usize> = cycle
                .iter()
                .copied()
                .filter(|&v| illegit.holds(LocalStateId(v as u32)))
                .collect();
            if !bad.is_empty() {
                families.push(bad);
            }
        }
        if families.is_empty() {
            return vec![Vec::new()]; // already deadlock-free for all K
        }
        let sets = minimal_hitting_sets(&families, cap, usize::MAX);

        // Exact re-verification (covers the truncated-enumeration case):
        // removing the Resolve states must leave no bad cycle.
        let mut sets: Vec<Vec<LocalStateId>> = sets
            .into_iter()
            .map(|s| {
                s.into_iter()
                    .map(|v| LocalStateId(v as u32))
                    .collect::<Vec<_>>()
            })
            .filter(|resolve: &Vec<LocalStateId>| resolved_is_deadlock_free(protocol, rcg, resolve))
            .collect();
        // Hitting-set coverage ordering: every minimal hitting set hits
        // every family, so rank by the summed family degree of the set's
        // states — dense resolve states constrain the most cycles, which
        // front-loads rejections (and, under pruning, cut installations).
        // The stable sort keeps the hitting-set enumeration order on ties,
        // and the order is part of the canonical enumeration: it is applied
        // identically with pruning on or off.
        let weight = |set: &[LocalStateId]| -> usize {
            set.iter()
                .map(|s| families.iter().filter(|f| f.contains(&s.index())).count())
                .sum()
        };
        sets.sort_by_key(|s| std::cmp::Reverse(weight(s)));
        sets
    }

    /// Candidate recovery transitions out of `state`: every changed value
    /// whose target state lies outside `Resolve` (step 3 — guarantees the
    /// added actions are self-disabling).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::DomainTooLarge`] if the domain exceeds the `u8`
    /// value range (defensive: [`selfstab_protocol::Domain`] construction
    /// enforces the same cap).
    pub fn candidates(
        &self,
        protocol: &Protocol,
        resolve: &[LocalStateId],
        state: LocalStateId,
    ) -> Result<Vec<LocalTransition>, SynthesisError> {
        check_domain(protocol.space().domain_size())?;
        Ok(self.candidates_unchecked(protocol, resolve, state))
    }

    /// [`LocalSynthesizer::candidates`] after the domain guard has passed.
    pub(crate) fn candidates_unchecked(
        &self,
        protocol: &Protocol,
        resolve: &[LocalStateId],
        state: LocalStateId,
    ) -> Vec<LocalTransition> {
        let space = protocol.space();
        let loc = protocol.locality();
        let current = space.value_at(state, loc.center());
        (0..space.domain_size() as u8)
            .filter(|&v| v != current)
            .map(|v| LocalTransition::new(state, v))
            .filter(|t| !resolve.contains(&t.target_state(space, loc)))
            .collect()
    }

    /// Runs the full methodology (no cancellation, no telemetry).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::DomainTooLarge`] if the domain exceeds the `u8`
    /// value range.
    pub fn synthesize(&self, protocol: &Protocol) -> Result<SynthesisOutcome, SynthesisError> {
        self.synthesize_metered(protocol, &CancelToken::new(), None, None)
    }

    /// [`LocalSynthesizer::synthesize`] honoring a cooperative
    /// [`CancelToken`], polled once per candidate, with telemetry. On
    /// cancellation the outcome keeps the canonical verified prefix
    /// (`cancelled()` and `truncated()` are set) rather than erroring out.
    ///
    /// Flushes candidate/rejection counters into `counters` and records
    /// the whole search as one [`Phase::Synthesis`] span in `phases`.
    /// Counters are flushed once, from the canonically merged outcome, so
    /// every value except the scheduling-dependent `cancel_polls` is
    /// thread-count invariant — and the `None` path does no telemetry work
    /// at all.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::DomainTooLarge`] if the domain exceeds the `u8`
    /// value range.
    pub fn synthesize_metered(
        &self,
        protocol: &Protocol,
        cancel: &CancelToken,
        counters: Option<&SynthesisCounters>,
        phases: Option<&dyn PhaseSink>,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        span(phases, Phase::Synthesis, || {
            self.search(protocol, cancel, counters)
        })
    }

    /// The engine: resolve-set loop around the chunked parallel candidate
    /// scan, with all cutoffs applied on the canonical merge.
    fn search(
        &self,
        protocol: &Protocol,
        cancel: &CancelToken,
        counters: Option<&SynthesisCounters>,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        check_domain(protocol.space().domain_size())?;
        let rcg = Rcg::build(protocol);
        let name = format!("{}-ss", protocol.name());

        // One extra set makes truncation of the set list itself observable.
        let cap = self.config.max_resolve_sets;
        let sets = self.resolve_sets_capped(protocol, &rcg, cap.saturating_add(1));
        let sets_truncated = sets.len() > cap;
        let sets = &sets[..sets.len().min(cap)];

        let mut outcome = SynthesisOutcome {
            solutions: Vec::new(),
            resolve_sets_tried: 0,
            combinations_tried: 0,
            rejected_by_trail: 0,
            truncated: sets_truncated,
            cancelled: false,
        };
        let mut rejected_invalid: u64 = 0;
        let mut rejected_by_deadlock: u64 = 0;
        let cancel_polls = AtomicU64::new(0);
        let prune_state = self.config.prune.then(PruneState::new);

        for resolve in sets {
            if outcome.solutions.len() >= self.config.max_solutions
                || outcome.combinations_tried >= self.config.max_combinations
            {
                outcome.truncated = true;
                break;
            }
            if cancel.is_cancelled() {
                outcome.cancelled = true;
                outcome.truncated = true;
                break;
            }
            outcome.resolve_sets_tried += 1;

            // Per-state candidates; a state without candidates makes the
            // Resolve set immediately unsatisfiable (and `decode` must
            // never see its zero-length digit), so it is skipped before a
            // ComboSpace is even formed.
            let per_state: Vec<Vec<LocalTransition>> = resolve
                .iter()
                .map(|&s| self.candidates_unchecked(protocol, resolve, s))
                .collect();
            if per_state.iter().any(Vec::is_empty) {
                continue;
            }
            let space = ComboSpace {
                per_state: &per_state,
            };
            let Some(total) = space.checked_total() else {
                return Err(SynthesisError::CombinationSpaceTooLarge {
                    resolve_states: resolve.len(),
                });
            };
            let comb_left = (self.config.max_combinations - outcome.combinations_tried) as u64;
            let allowed = total.min(comb_left);
            let sol_cap = (self.config.max_solutions - outcome.solutions.len()) as u64;

            let prune = prune_state.as_ref().map(|state| PruneScanContext {
                state,
                digit_valid: per_state
                    .iter()
                    .map(|opts| {
                        opts.iter()
                            .map(|&t| candidate_transition_is_valid(protocol, t))
                            .collect()
                    })
                    .collect(),
                // The Theorem 4.2 verdict is a function of the candidate's
                // deadlock set alone, and every combination of this set
                // resolves exactly `resolve` — one shared verdict covers
                // them all. Surviving sets are pre-filtered on it, so the
                // guard below is defensive: were it ever false, every valid
                // candidate would be TAG_DEADLOCK and cut-skipping (which
                // can only certify TAG_TRAIL) must stand down.
                set_deadlock_free: resolved_is_deadlock_free(protocol, &rcg, resolve),
            });
            let ctx = ScanContext {
                protocol,
                rcg: &rcg,
                cycle_budget: self.config.cycle_budget,
                name: &name,
                resolve,
                space: &space,
                prune,
            };
            let scan = scan_resolve_set(
                &ctx,
                allowed,
                sol_cap,
                self.config.threads,
                cancel,
                &cancel_polls,
            );

            // Canonical cutoff: walk the verified prefix in enumeration
            // order, stopping right after the accepted candidate that fills
            // the solution budget.
            let mut taken: u64 = 0;
            let mut sols_taken: u64 = 0;
            for &tag in &scan.tags {
                taken += 1;
                match tag {
                    TAG_INVALID => rejected_invalid += 1,
                    TAG_DEADLOCK => rejected_by_deadlock += 1,
                    TAG_TRAIL => outcome.rejected_by_trail += 1,
                    _ => {
                        sols_taken += 1;
                        if sols_taken >= sol_cap {
                            break;
                        }
                    }
                }
            }
            outcome.combinations_tried += taken as usize;
            for (idx, sol) in scan.solutions {
                if idx < taken {
                    outcome.solutions.push(sol);
                }
            }
            if scan.cancelled {
                outcome.cancelled = true;
            }
            if taken < total {
                // Budget, solution cap, or cancellation left work behind.
                outcome.truncated = true;
                break;
            }
        }

        if let Some(c) = counters {
            c.resolve_sets_examined
                .fetch_add(outcome.resolve_sets_tried as u64, Ordering::Relaxed);
            c.combinations_tried
                .fetch_add(outcome.combinations_tried as u64, Ordering::Relaxed);
            c.rejected_invalid
                .fetch_add(rejected_invalid, Ordering::Relaxed);
            c.rejected_by_deadlock
                .fetch_add(rejected_by_deadlock, Ordering::Relaxed);
            c.rejected_by_trail
                .fetch_add(outcome.rejected_by_trail as u64, Ordering::Relaxed);
            c.solutions_found
                .fetch_add(outcome.solutions.len() as u64, Ordering::Relaxed);
            c.cancel_polls
                .fetch_add(cancel_polls.load(Ordering::Relaxed), Ordering::Relaxed);
            if let Some(p) = &prune_state {
                c.cones_cut
                    .fetch_add(p.cones_cut.load(Ordering::Relaxed), Ordering::Relaxed);
                c.candidates_skipped.fetch_add(
                    p.candidates_skipped.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                c.delta_reuses
                    .fetch_add(p.delta_reuses.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        Ok(outcome)
    }
}

/// Capacity of the shared cut index. Corpus workloads install a handful of
/// cuts; the cut-heavy 5-coloring bench installs under a hundred. Overflow
/// degrades to plain verification, never to an error.
const CUT_CAPACITY: usize = 256;

/// Lock-free, append-only index of *cuts*: culpable added-transition
/// subsets certified by a trail rejection. A published cut `C` proves that
/// every candidate protocol containing all of `C` admits a qualifying
/// contiguous trail and is rejected by the Theorem 5.14 check
/// (`TAG_TRAIL`):
///
/// * the rejecting trail's used t-arcs form a pseudo-livelock union
///   (re-checked at installation — the over-approximating `> 12`-support
///   fallback can report trails whose used set does not qualify), and
///   `forms_pseudo_livelock_union` depends only on the subset, the space
///   and the locality — not on the rest of the protocol;
/// * a pseudo-livelock union inside a superset candidate lies inside that
///   candidate's support (its projection cycles survive in the larger
///   projection graph), so the superset's own trail search — complete
///   subset enumeration up to 12 support arcs, an over-rejecting whole-
///   support search beyond — re-encounters a qualifying trail (the trail
///   search itself depends only on the space-determined s-arcs, the
///   allowed t-arcs and the fixed illegitimate states);
/// * and if the superset breaks an analysis assumption instead
///   (self-termination, process-self-disabling, closure), it is equally
///   uncertified — either way the full engine tags it `TAG_TRAIL`.
///
/// Cuts are stored with their base transitions stripped (the base is part
/// of every candidate of every `Resolve` set), sorted for subset tests.
/// Publication is a claim counter over per-slot `OnceLock`s: readers never
/// block and the crate stays `forbid(unsafe_code)`-clean.
struct CutIndex {
    slots: Vec<OnceLock<Vec<LocalTransition>>>,
    claimed: AtomicUsize,
}

impl CutIndex {
    fn new() -> Self {
        CutIndex {
            slots: (0..CUT_CAPACITY).map(|_| OnceLock::new()).collect(),
            claimed: AtomicUsize::new(0),
        }
    }

    /// The fully published cuts (slots claimed but not yet written are
    /// skipped; they become visible on a later scan).
    fn published(&self) -> impl Iterator<Item = &[LocalTransition]> {
        self.slots.iter().filter_map(|s| s.get().map(Vec::as_slice))
    }

    /// Publishes a sorted cut unless a published cut already subsumes it
    /// (its cone contains the new one's) or the index is full. Returns
    /// `true` when a slot was written.
    fn install(&self, arcs: Vec<LocalTransition>) -> bool {
        if self.published().any(|c| is_sorted_subset(c, &arcs)) {
            return false;
        }
        if self.claimed.load(Ordering::Relaxed) >= CUT_CAPACITY {
            return false;
        }
        let slot = self.claimed.fetch_add(1, Ordering::Relaxed);
        if slot >= CUT_CAPACITY {
            return false;
        }
        self.slots[slot]
            .set(arcs)
            .expect("cut slot is claimed exactly once");
        true
    }
}

/// `a ⊆ b` for sorted, deduplicated transition slices.
fn is_sorted_subset(a: &[LocalTransition], b: &[LocalTransition]) -> bool {
    a.iter().all(|t| b.binary_search(t).is_ok())
}

/// Shared pruning state for one synthesis run: the cut index plus the
/// scheduling-dependent work-avoidance tallies (the *verdicts* stay
/// deterministic; only how much verification was skipped varies).
struct PruneState {
    cuts: CutIndex,
    cones_cut: AtomicU64,
    candidates_skipped: AtomicU64,
    delta_reuses: AtomicU64,
}

impl PruneState {
    fn new() -> Self {
        PruneState {
            cuts: CutIndex::new(),
            cones_cut: AtomicU64::new(0),
            candidates_skipped: AtomicU64::new(0),
            delta_reuses: AtomicU64::new(0),
        }
    }
}

/// Per-`Resolve`-set pruning context handed to the scan.
struct PruneScanContext<'a> {
    state: &'a PruneState,
    /// `digit_valid[j][d]`: whether option `d` of state `j` passes the
    /// (private) transition validation of `with_added_transitions` — a
    /// per-transition property, so a skipped candidate's `TAG_INVALID` is
    /// decidable without materializing a protocol.
    digit_valid: Vec<Vec<bool>>,
    /// The shared Theorem 4.2 verdict of this set (see
    /// [`LocalSynthesizer::search`]).
    set_deadlock_free: bool,
}

/// Projects a cut onto one `Resolve` set's digit space: the candidate at
/// `digits` lies in the cut's cone iff `digits[j] == d` for every returned
/// `(j, d)`. `None` when the set cannot express the cut — an arc that is
/// no state's candidate here, or two arcs competing for one digit — so no
/// candidate of this set contains it.
fn project_cut(
    cut: &[LocalTransition],
    resolve: &[LocalStateId],
    per_state: &[Vec<LocalTransition>],
) -> Option<Vec<(usize, usize)>> {
    let mut constraints: Vec<(usize, usize)> = Vec::with_capacity(cut.len());
    for &t in cut {
        let j = resolve.iter().position(|&s| s == t.source)?;
        let d = per_state[j].iter().position(|&c| c == t)?;
        if constraints.iter().any(|&(cj, cd)| cj == j && cd != d) {
            return None;
        }
        constraints.push((j, d));
    }
    constraints.sort_unstable();
    constraints.dedup();
    Some(constraints)
}

/// Mirror of the private transition validation inside
/// [`Protocol::with_added_transitions`] (range checks plus the
/// identity-write ban), used by the pruned path's per-digit validity
/// precompute.
fn candidate_transition_is_valid(protocol: &Protocol, t: LocalTransition) -> bool {
    let space = protocol.space();
    t.source.index() < space.len()
        && (t.target as usize) < space.domain_size()
        && space.value_at(t.source, protocol.locality().center()) != t.target
}

/// Everything a worker needs to verify one candidate, shared read-only
/// across the scoped threads of one `Resolve`-set scan.
struct ScanContext<'a> {
    protocol: &'a Protocol,
    rcg: &'a Rcg,
    cycle_budget: CycleBudget,
    name: &'a str,
    resolve: &'a [LocalStateId],
    space: &'a ComboSpace<'a>,
    /// Pruning context; `None` runs the reference full-verification path.
    prune: Option<PruneScanContext<'a>>,
}

/// The canonical verified prefix of one `Resolve`-set scan.
struct SetScan {
    /// `tags[i]` is the verdict tag of combination `i` (contiguous prefix
    /// of the enumeration; shorter than `allowed` only under cancellation
    /// or a solution-cap early stop).
    tags: Vec<u8>,
    /// Accepted candidates within the prefix, ascending by index.
    solutions: Vec<(u64, SynthesizedProtocol)>,
    /// Whether cancellation cut the prefix short.
    cancelled: bool,
}

/// One worker's output for one chunk of the combination index space.
struct ChunkPart {
    tags: Vec<u8>,
    solutions: Vec<(u64, SynthesizedProtocol)>,
}

/// Verifies combinations `0..allowed` of `ctx.space` across `threads`
/// scoped workers claiming fixed chunks off a shared counter, then merges
/// completed chunks in ascending order into a canonical contiguous prefix.
///
/// Workers stop claiming new chunks once `sol_cap` acceptances have been
/// observed (a hint — the canonical cutoff in [`LocalSynthesizer::search`]
/// is what actually bounds the outcome) and abandon their chunk mid-way
/// only on cancellation, so in the absence of cancellation the merged
/// prefix always covers the canonical cutoff.
fn scan_resolve_set(
    ctx: &ScanContext<'_>,
    allowed: u64,
    sol_cap: u64,
    threads: usize,
    cancel: &CancelToken,
    cancel_polls: &AtomicU64,
) -> SetScan {
    if allowed == 0 {
        return SetScan {
            tags: Vec::new(),
            solutions: Vec::new(),
            cancelled: cancel.is_cancelled(),
        };
    }
    let threads = threads.max(1);
    // Chunks small enough to balance trail-check latency across workers,
    // large enough to amortize the claim + merge bookkeeping.
    let chunk = allowed.div_ceil(threads as u64 * 4).clamp(1, 64);
    let num_chunks = allowed.div_ceil(chunk);
    let next = AtomicU64::new(0);
    let sols_hint = AtomicU64::new(0);
    let results: Mutex<Vec<(u64, ChunkPart)>> = Mutex::new(Vec::new());

    let worker = || {
        let mut digits: Vec<usize> = Vec::new();
        let mut added: Vec<LocalTransition> = Vec::new();
        let mut polls: u64 = 0;
        // Worker-local pruning state: the delta-LTG survives across
        // candidates and chunks; the projected cuts are refreshed at each
        // chunk claim, picking up cuts other workers published meanwhile
        // without any synchronization on the hot per-candidate test.
        let mut ltg: Option<Ltg> = None;
        let mut projected: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut skipped: u64 = 0;
        let mut reused: u64 = 0;
        loop {
            if sols_hint.load(Ordering::Relaxed) >= sol_cap {
                break;
            }
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                break;
            }
            if let Some(p) = &ctx.prune {
                if p.set_deadlock_free {
                    projected.clear();
                    projected.extend(
                        p.state
                            .cuts
                            .published()
                            .filter_map(|cut| project_cut(cut, ctx.resolve, ctx.space.per_state)),
                    );
                }
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(allowed);
            ctx.space.decode(lo, &mut digits);
            let mut part = ChunkPart {
                tags: Vec::with_capacity((hi - lo) as usize),
                solutions: Vec::new(),
            };
            let mut aborted = false;
            for i in lo..hi {
                polls += 1;
                if cancel.is_cancelled() {
                    aborted = true;
                    break;
                }
                let (tag, sol) = match &ctx.prune {
                    Some(p) => verify_candidate_pruned(
                        ctx,
                        p,
                        &digits,
                        &projected,
                        &mut added,
                        &mut ltg,
                        &mut skipped,
                        &mut reused,
                    ),
                    None => {
                        ctx.space.fill(&digits, &mut added);
                        verify_candidate(ctx, &added)
                    }
                };
                part.tags.push(tag);
                if let Some(s) = sol {
                    part.solutions.push((i, s));
                    sols_hint.fetch_add(1, Ordering::Relaxed);
                }
                ctx.space.advance(&mut digits);
            }
            results
                .lock()
                .expect("scan results poisoned")
                .push((c, part));
            if aborted {
                break;
            }
        }
        cancel_polls.fetch_add(polls, Ordering::Relaxed);
        if let Some(p) = &ctx.prune {
            p.state
                .candidates_skipped
                .fetch_add(skipped, Ordering::Relaxed);
            p.state.delta_reuses.fetch_add(reused, Ordering::Relaxed);
        }
    };

    if threads == 1 || num_chunks == 1 {
        worker();
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            for _ in 0..threads.min(num_chunks as usize) {
                scope.spawn(worker);
            }
        });
    }

    // Merge in ascending chunk order; the prefix ends at the first missing
    // chunk (solution-cap early stop or cancellation) or partial chunk
    // (cancellation only).
    let mut parts = results.into_inner().expect("scan results poisoned");
    parts.sort_unstable_by_key(|&(c, _)| c);
    let mut tags: Vec<u8> = Vec::new();
    let mut solutions: Vec<(u64, SynthesizedProtocol)> = Vec::new();
    for (expect, (c, part)) in (0u64..).zip(parts) {
        if c != expect {
            break;
        }
        let lo = c * chunk;
        let hi = (lo + chunk).min(allowed);
        let full = part.tags.len() as u64 == hi - lo;
        tags.extend_from_slice(&part.tags);
        solutions.extend(part.solutions);
        if !full {
            break;
        }
    }
    let cancelled = (tags.len() as u64) < allowed && cancel.is_cancelled();
    SetScan {
        tags,
        solutions,
        cancelled,
    }
}

/// Verifies one candidate combination: revision validity, the exact
/// deadlock-freedom re-check (Theorem 4.2 over the shared RCG), then the
/// Theorem 5.14 trail check distinguishing NPL (no pseudo-livelock among
/// the added arcs) from PL (support exists but no qualifying trail).
fn verify_candidate(
    ctx: &ScanContext<'_>,
    added: &[LocalTransition],
) -> (u8, Option<SynthesizedProtocol>) {
    let candidate = match ctx
        .protocol
        .with_added_transitions(ctx.name, added.iter().copied())
    {
        Ok(p) => p,
        Err(_) => return (TAG_INVALID, None),
    };

    // Deadlock-freedom must hold (it does by construction of Resolve;
    // re-checked exactly for robustness). The RCG depends only on the
    // domain and locality, so the prepared one is valid for every revision.
    let da = DeadlockAnalysis::analyze_prepared(&candidate, ctx.rcg, ctx.cycle_budget);
    if !da.is_free_for_all_k() {
        return (TAG_DEADLOCK, None);
    }

    let la = LivelockAnalysis::analyze(&candidate);
    if !la.certified_free() {
        return (TAG_TRAIL, None);
    }
    let verdict = if la.pseudo_livelock_support().is_empty() {
        SynthesisVerdict::NoPseudoLivelock
    } else {
        SynthesisVerdict::PseudoLivelocksWithoutTrails
    };
    let sol = SynthesizedProtocol {
        protocol: candidate,
        resolve: ctx.resolve.to_vec(),
        added: added.to_vec(),
        verdict,
    };
    (TAG_ACCEPT, Some(sol))
}

/// The pruned verification of one candidate: exact per-digit validity,
/// cut-cone skipping, then delta-verification — the set's shared Theorem
/// 4.2 verdict plus a retargeted per-worker LTG. The returned tag is
/// provably the one [`verify_candidate`] would compute (see the module
/// docs and DESIGN.md §14 for the soundness argument), so the canonical
/// merge cannot tell the engines apart.
#[allow(clippy::too_many_arguments)]
fn verify_candidate_pruned(
    ctx: &ScanContext<'_>,
    p: &PruneScanContext<'_>,
    digits: &[usize],
    projected: &[Vec<(usize, usize)>],
    added: &mut Vec<LocalTransition>,
    ltg: &mut Option<Ltg>,
    skipped: &mut u64,
    reused: &mut u64,
) -> (u8, Option<SynthesizedProtocol>) {
    // Validity is a per-transition property, so the conjunction of the
    // digit flags is exactly the `with_added_transitions` verdict — no
    // protocol needs to be materialized to tag an invalid candidate.
    if digits
        .iter()
        .enumerate()
        .any(|(j, &d)| !p.digit_valid[j][d])
    {
        return (TAG_INVALID, None);
    }
    // Cut-cone skip. Sound only under a free shared deadlock verdict,
    // because the full engine checks Theorem 4.2 *before* the trail: were
    // the verdict not free, the candidate's tag would be TAG_DEADLOCK.
    if p.set_deadlock_free
        && projected
            .iter()
            .any(|c| c.iter().all(|&(j, d)| digits[j] == d))
    {
        *skipped += 1;
        return (TAG_TRAIL, None);
    }
    ctx.space.fill(digits, added);
    let candidate = match ctx
        .protocol
        .with_added_transitions(ctx.name, added.iter().copied())
    {
        Ok(c) => c,
        // Unreachable (digits are pre-validated); kept so a validation
        // drift would surface as a wrong tag, not a panic.
        Err(_) => return (TAG_INVALID, None),
    };
    // From here on every verification step reuses shared or delta state
    // (set verdict, cloned RCG, retargeted t-graph) instead of a
    // from-scratch analysis.
    *reused += 1;
    if !p.set_deadlock_free {
        return (TAG_DEADLOCK, None);
    }
    let la = match ltg {
        Some(l) => {
            l.retarget(&candidate);
            LivelockAnalysis::analyze_with_ltg(&candidate, l)
        }
        None => {
            let l = ltg.insert(Ltg::with_rcg(&candidate, ctx.rcg.clone()));
            LivelockAnalysis::analyze_with_ltg(&candidate, l)
        }
    };
    if !la.certified_free() {
        // A trail witness certifies a cut — unless it came from the
        // over-approximating whole-support fallback and its used set is
        // not a pseudo-livelock union, in which case it transfers nothing.
        if let Some(trail) = la.trail() {
            let arcs = trail.t_arcs();
            if forms_pseudo_livelock_union(&arcs, ctx.protocol.space(), ctx.protocol.locality()) {
                let cut: Vec<LocalTransition> = arcs
                    .into_iter()
                    .filter(|&t| !ctx.protocol.has_transition(t))
                    .collect();
                if p.state.cuts.install(cut) {
                    p.state.cones_cut.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        return (TAG_TRAIL, None);
    }
    let verdict = if la.pseudo_livelock_support().is_empty() {
        SynthesisVerdict::NoPseudoLivelock
    } else {
        SynthesisVerdict::PseudoLivelocksWithoutTrails
    };
    let sol = SynthesizedProtocol {
        protocol: candidate,
        resolve: ctx.resolve.to_vec(),
        added: added.to_vec(),
        verdict,
    };
    (TAG_ACCEPT, Some(sol))
}

/// The `u8` candidate-value guard (see
/// [`SynthesisError::DomainTooLarge`]).
fn check_domain(domain_size: usize) -> Result<(), SynthesisError> {
    if domain_size > u8::MAX as usize {
        return Err(SynthesisError::DomainTooLarge { domain_size });
    }
    Ok(())
}

/// Exact Theorem 4.2 re-check after hypothetically resolving `resolve`:
/// the RCG induced over the remaining deadlocks must have no cycle through
/// an illegitimate state.
fn resolved_is_deadlock_free(protocol: &Protocol, rcg: &Rcg, resolve: &[LocalStateId]) -> bool {
    let mut remaining = protocol.local_deadlocks().as_bitset().clone();
    for s in resolve {
        remaining.remove(s.index());
    }
    let induced = rcg.graph().induced(&remaining);
    let on_cycles = selfstab_graph::scc::vertices_on_cycles(&induced);
    let illegit = protocol.legit().negated();
    on_cycles
        .iter()
        .all(|v| !illegit.holds(LocalStateId(v as u32)))
}

/// Convenience: the illegitimate local deadlocks of a protocol, as the
/// paper's `¬LC_r ∩ D_L` set.
pub fn illegitimate_deadlocks(protocol: &Protocol) -> LocalPredicate {
    protocol.illegitimate_deadlocks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    fn empty(name: &str, d: usize, legit: &str) -> Protocol {
        Protocol::builder(name, Domain::numeric("x", d), Locality::unidirectional())
            .legit(legit)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn agreement_synthesis_finds_both_one_sided_solutions() {
        let p = empty("agreement", 2, "x[r] == x[r-1]");
        let out = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert!(out.is_success());
        let sols = out.solutions();
        assert_eq!(
            sols.len(),
            2,
            "Resolve = {{01}} or {{10}}, one candidate each"
        );
        for s in sols {
            assert_eq!(s.resolve.len(), 1);
            assert_eq!(s.added.len(), 1);
            assert_eq!(s.verdict, SynthesisVerdict::NoPseudoLivelock);
        }
    }

    #[test]
    fn three_coloring_synthesis_fails() {
        let p = empty("3col", 3, "x[r] != x[r-1]");
        let out = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert!(!out.is_success(), "the paper's §6.1 declares failure");
        // Resolve is forced to {00,11,22}; 2 candidates each => 8 combos.
        assert_eq!(out.combinations_tried(), 8);
        assert_eq!(out.rejected_by_trail(), 8);
        assert!(!out.truncated());
    }

    #[test]
    fn two_coloring_synthesis_fails() {
        let p = empty("2col", 2, "x[r] != x[r-1]");
        let out = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert!(!out.is_success());
    }

    #[test]
    fn sum_not_two_synthesis_succeeds() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let out = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert!(out.is_success());
        // 8 combinations; 4 rejected. The paper (§6.2) claims only
        // {t21,t10,t02} and {t01,t12,t20} fail, but {t20,t10,t02} and
        // {t20,t12,t02} admit the qualifying trail
        // ≪02,s,20,t,22,s,20,s,02,t,00,s≫ — and in fact *really livelock*
        // at every K ≥ 3 (global model checking confirms; see the
        // experiments test e11). Our checker correctly rejects them.
        assert_eq!(out.combinations_tried(), 8);
        assert_eq!(out.rejected_by_trail(), 4);
        assert_eq!(out.solutions().len(), 4);
        // The paper's accepted candidate {t21, t12, t01} is among them.
        let sp = p.space();
        let target: Vec<LocalTransition> = vec![
            LocalTransition::new(sp.encode(&[0, 2]), 1), // t21
            LocalTransition::new(sp.encode(&[1, 1]), 2), // t12
            LocalTransition::new(sp.encode(&[2, 0]), 1), // t01
        ];
        assert!(out.solutions().iter().any(|s| {
            let mut a = s.added.clone();
            a.sort_unstable();
            let mut t = target.clone();
            t.sort_unstable();
            a == t
        }));
    }

    #[test]
    fn resolve_sets_for_agreement() {
        let p = empty("agreement", 2, "x[r] == x[r-1]");
        let synth = LocalSynthesizer::default();
        let rcg = Rcg::build(&p);
        let sets = synth.resolve_sets(&p, &rcg);
        let sp = p.space();
        let s01 = sp.encode(&[0, 1]);
        let s10 = sp.encode(&[1, 0]);
        assert_eq!(sets.len(), 2);
        assert!(sets.contains(&vec![s01]));
        assert!(sets.contains(&vec![s10]));
    }

    #[test]
    fn already_stabilizing_protocol_needs_nothing() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let out = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert!(out.is_success());
        assert_eq!(out.solutions()[0].added.len(), 0);
        assert_eq!(out.solutions()[0].resolve.len(), 0);
    }

    #[test]
    fn budget_truncation_is_reported() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let out = LocalSynthesizer::new(SynthesisConfig {
            max_combinations: 2,
            ..SynthesisConfig::default()
        })
        .synthesize(&p)
        .unwrap();
        assert!(out.truncated());
        assert_eq!(out.combinations_tried(), 2);
    }

    /// The combination budget is exact at and around the boundary: exactly
    /// `min(budget, 8)` candidates verified, `truncated` iff work remained,
    /// and the solutions are always a prefix of the unbudgeted run's.
    #[test]
    fn combination_budget_is_exact_at_the_boundary() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let full = LocalSynthesizer::default().synthesize(&p).unwrap();
        assert_eq!(full.combinations_tried(), 8);
        assert_eq!(full.solutions().len(), 4);
        for budget in 0..=9 {
            let out = LocalSynthesizer::new(SynthesisConfig {
                max_combinations: budget,
                ..SynthesisConfig::default()
            })
            .synthesize(&p)
            .unwrap();
            assert_eq!(out.combinations_tried(), budget.min(8), "budget {budget}");
            assert_eq!(out.truncated(), budget < 8, "budget {budget}");
            // Every verified candidate is accounted for exactly once.
            assert_eq!(
                out.combinations_tried(),
                out.solutions().len() + out.rejected_by_trail(),
                "budget {budget}"
            );
            let n = out.solutions().len();
            assert_eq!(out.solutions(), &full.solutions()[..n], "budget {budget}");
        }
    }

    /// The solution budget cuts the canonical enumeration right after the
    /// accepted candidate that fills it, and `truncated` reflects exactly
    /// whether combinations were left unexplored.
    #[test]
    fn solution_budget_is_exact_at_the_boundary() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let full = LocalSynthesizer::default().synthesize(&p).unwrap();
        for cap in 1..=4usize {
            let out = LocalSynthesizer::new(SynthesisConfig {
                max_solutions: cap,
                ..SynthesisConfig::default()
            })
            .synthesize(&p)
            .unwrap();
            assert_eq!(out.solutions().len(), cap, "cap {cap}");
            assert_eq!(out.solutions(), &full.solutions()[..cap], "cap {cap}");
            assert_eq!(
                out.combinations_tried(),
                out.solutions().len() + out.rejected_by_trail(),
                "cap {cap}"
            );
            assert_eq!(
                out.truncated(),
                out.combinations_tried() < full.combinations_tried(),
                "cap {cap}"
            );
        }
    }

    /// The outcome is identical for every thread count (chunked merge is
    /// canonical).
    #[test]
    fn outcome_is_invariant_across_thread_counts() {
        for (d, legit) in [(3, "x[r] + x[r-1] != 2"), (3, "x[r] != x[r-1]")] {
            let p = empty("t", d, legit);
            let sequential = LocalSynthesizer::default().synthesize(&p).unwrap();
            for threads in [2, 4, 8] {
                let out = LocalSynthesizer::new(SynthesisConfig {
                    threads,
                    ..SynthesisConfig::default()
                })
                .synthesize(&p)
                .unwrap();
                assert_eq!(out, sequential, "threads {threads}");
            }
        }
    }

    /// Metered and unmetered runs produce the same outcome; the counters
    /// mirror the outcome's accounting and the phase span is recorded.
    #[test]
    fn metered_run_matches_unmetered_and_flushes_counters() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let plain = LocalSynthesizer::default().synthesize(&p).unwrap();
        let counters = SynthesisCounters::new();
        let phases = selfstab_telemetry::PhaseTimes::new();
        let metered = LocalSynthesizer::default()
            .synthesize_metered(&p, &CancelToken::new(), Some(&counters), Some(&phases))
            .unwrap();
        assert_eq!(metered, plain);
        let snap = counters.snapshot();
        assert_eq!(
            snap.resolve_sets_examined,
            plain.resolve_sets_tried() as u64
        );
        assert_eq!(snap.combinations_tried, plain.combinations_tried() as u64);
        assert_eq!(snap.rejected_by_trail, plain.rejected_by_trail() as u64);
        assert_eq!(snap.solutions_found, plain.solutions().len() as u64);
        assert_eq!(snap.rejected_invalid, 0);
        assert_eq!(snap.rejected_by_deadlock, 0);
        assert_eq!(phases.calls(Phase::Synthesis), 1);
    }

    /// A pre-cancelled token yields a clean truncated outcome immediately.
    #[test]
    fn pre_cancelled_token_truncates_cleanly() {
        let p = empty("sn2", 3, "x[r] + x[r-1] != 2");
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = LocalSynthesizer::default()
            .synthesize_metered(&p, &cancel, None, None)
            .unwrap();
        assert!(out.cancelled());
        assert!(out.truncated());
        assert_eq!(out.combinations_tried(), 0);
        assert!(out.solutions().is_empty());
    }

    /// The defensive u8 guard (protocol domains are already capped at 255
    /// by construction, so the error path is exercised directly).
    #[test]
    fn oversized_domain_is_a_typed_error() {
        assert_eq!(check_domain(255), Ok(()));
        let err = check_domain(300).unwrap_err();
        assert_eq!(err, SynthesisError::DomainTooLarge { domain_size: 300 });
        assert!(err.to_string().contains("300"), "{err}");
    }

    /// The pruned engine (the default) and the reference full-enumeration
    /// engine produce byte-identical outcomes on every corpus-shaped
    /// workload, at every thread count — pruning must be invisible.
    #[test]
    fn pruned_and_full_engines_agree_at_every_thread_count() {
        let workloads = [
            (2, "x[r] == x[r-1]"),
            (2, "x[r] != x[r-1]"),
            (3, "x[r] != x[r-1]"),
            (3, "x[r] + x[r-1] != 2"),
            (4, "x[r] != x[r-1]"),
            (4, "x[r] + x[r-1] != 3"),
        ];
        for (d, legit) in workloads {
            let p = empty("w", d, legit);
            let full = LocalSynthesizer::new(SynthesisConfig {
                prune: false,
                ..SynthesisConfig::default()
            })
            .synthesize(&p)
            .unwrap();
            for threads in [1, 2, 8] {
                let pruned = LocalSynthesizer::new(SynthesisConfig {
                    prune: true,
                    threads,
                    ..SynthesisConfig::default()
                })
                .synthesize(&p)
                .unwrap();
                assert_eq!(pruned, full, "d={d} legit=`{legit}` threads={threads}");
            }
        }
    }

    /// On a workload whose every candidate is trail-rejected (4-coloring),
    /// pruning actually cuts cones and skips verification work — while the
    /// recounted outcome still covers the whole combination space.
    #[test]
    fn pruning_cuts_cones_on_a_rejecting_workload() {
        let p = empty("4col", 4, "x[r] != x[r-1]");
        let counters = SynthesisCounters::new();
        let out = LocalSynthesizer::default()
            .synthesize_metered(&p, &CancelToken::new(), Some(&counters), None)
            .unwrap();
        assert!(!out.is_success());
        assert_eq!(out.combinations_tried(), out.rejected_by_trail());
        let snap = counters.snapshot();
        assert!(snap.cones_cut > 0, "no cut was ever installed");
        assert!(snap.candidates_skipped > 0, "no cone member was skipped");
        assert!(snap.delta_reuses > 0, "no verification reused delta state");
        // Skipped candidates are recounted, never dropped.
        assert_eq!(snap.combinations_tried, out.combinations_tried() as u64);
        assert_eq!(snap.rejected_by_trail, out.rejected_by_trail() as u64);
    }

    /// Satellite regression: a combination space whose product overflows
    /// `u64` is a typed error, not a saturated count that `decode` would
    /// misindex.
    #[test]
    fn combo_space_overflow_is_detected_not_saturated() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        // 2^64 combinations: 64 states with 2 options each.
        let per_state: Vec<Vec<LocalTransition>> = (0..64).map(|_| vec![t(0), t(1)]).collect();
        let space = ComboSpace {
            per_state: &per_state,
        };
        assert_eq!(space.checked_total(), None);
        // One state fewer fits exactly.
        let space = ComboSpace {
            per_state: &per_state[..63],
        };
        assert_eq!(space.checked_total(), Some(1u64 << 63));
        let err = SynthesisError::CombinationSpaceTooLarge { resolve_states: 64 };
        assert!(err.to_string().contains("64-state"), "{err}");
    }

    /// Satellite regression: a resolve state with zero candidate options
    /// yields `Some(0)` (immediately unsatisfiable) — the old saturating
    /// total fed `decode` a modulus of zero.
    #[test]
    fn zero_option_state_is_immediately_unsatisfiable() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        let per_state = vec![vec![t(0), t(1)], Vec::new()];
        let space = ComboSpace {
            per_state: &per_state,
        };
        assert_eq!(space.checked_total(), Some(0));
    }

    /// The cut index is append-only, subsumption-deduplicated, and
    /// saturates at capacity instead of erroring.
    #[test]
    fn cut_index_dedups_and_saturates() {
        let t = |s: u32, v: u8| LocalTransition::new(LocalStateId(s), v);
        let idx = CutIndex::new();
        assert!(idx.install(vec![t(0, 1), t(1, 2)]));
        // A superset cone is subsumed by the published cut.
        assert!(!idx.install(vec![t(0, 1), t(1, 2), t(2, 0)]));
        // The exact same cut is subsumed too.
        assert!(!idx.install(vec![t(0, 1), t(1, 2)]));
        // A *subset* is new information (a wider cone) and is published.
        assert!(idx.install(vec![t(0, 1)]));
        assert_eq!(idx.published().count(), 2);
        for s in 2..CUT_CAPACITY as u32 {
            assert!(idx.install(vec![t(s, 1)]));
        }
        assert!(!idx.install(vec![t(9999, 1)]), "capacity saturates");
        assert_eq!(idx.published().count(), CUT_CAPACITY);
    }

    /// Cut projection maps transitions to digit constraints, rejects cuts
    /// the set cannot express, and reports conflicting constraints as an
    /// empty cone.
    #[test]
    fn cut_projection_constrains_digits() {
        let s0 = LocalStateId(0);
        let s1 = LocalStateId(1);
        let t = |s: LocalStateId, v: u8| LocalTransition::new(s, v);
        let resolve = [s0, s1];
        let per_state = vec![vec![t(s0, 1), t(s0, 2)], vec![t(s1, 0), t(s1, 2)]];
        assert_eq!(
            project_cut(&[t(s0, 2), t(s1, 0)], &resolve, &per_state),
            Some(vec![(0, 1), (1, 0)])
        );
        // An arc that is nobody's candidate: inexpressible here.
        assert_eq!(project_cut(&[t(s0, 3)], &resolve, &per_state), None);
        // An arc from a state outside the resolve set: inexpressible.
        assert_eq!(
            project_cut(&[t(LocalStateId(7), 1)], &resolve, &per_state),
            None
        );
        // Two arcs competing for one digit: the cone is empty.
        assert_eq!(
            project_cut(&[t(s0, 1), t(s0, 2)], &resolve, &per_state),
            None
        );
        // The empty cut constrains nothing (dooms every candidate).
        assert_eq!(project_cut(&[], &resolve, &per_state), Some(Vec::new()));
    }

    /// The lazy mixed-radix enumeration matches the old materialized
    /// nested-loop order: state 0 is the most significant digit.
    #[test]
    fn combo_space_enumerates_in_nested_loop_order() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        let per_state = vec![vec![t(0), t(1)], vec![t(2)], vec![t(3), t(4), t(5)]];
        let space = ComboSpace {
            per_state: &per_state,
        };
        assert_eq!(space.checked_total(), Some(6));
        let mut materialized: Vec<Vec<LocalTransition>> = vec![Vec::new()];
        for opts in &per_state {
            let mut next = Vec::new();
            for partial in &materialized {
                for &t in opts {
                    let mut np = partial.clone();
                    np.push(t);
                    next.push(np);
                }
            }
            materialized = next;
        }
        let mut digits = Vec::new();
        let mut added = Vec::new();
        for (i, expected) in materialized.iter().enumerate() {
            space.decode(i as u64, &mut digits);
            space.fill(&digits, &mut added);
            assert_eq!(&added, expected, "decode at {i}");
        }
        // And the odometer agrees with decode.
        space.decode(0, &mut digits);
        for (i, expected) in materialized.iter().enumerate() {
            space.fill(&digits, &mut added);
            assert_eq!(&added, expected, "advance at {i}");
            space.advance(&mut digits);
        }
    }
}
