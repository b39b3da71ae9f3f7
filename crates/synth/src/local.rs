//! The local synthesis methodology (Section 6), as a streaming engine.
//!
//! Candidate combinations (one recovery transition per `Resolve` state) are
//! enumerated **lazily** through a mixed-radix index — no materialized
//! cross-product, O(|Resolve|) memory — and verified one at a time in
//! ascending index order on the calling thread. Whole synthesis jobs run
//! concurrently one level up, in the serve job pool.
//!
//! * **Determinism** — per-candidate verification is a pure function of the
//!   candidate, so the [`SynthesisOutcome`] (solutions, order, verdicts,
//!   counters) is a function of the input and the budgets.
//! * **Exact budgets** — `max_combinations` is a cumulative cap on verified
//!   candidates, `max_solutions` stops the enumeration right after the
//!   accepted candidate that fills it, and `truncated()` is `true` iff
//!   unexplored work actually remained.
//! * **Shared preparation** — the RCG depends only on the domain and the
//!   locality, not on the transition relation, so one [`Rcg`] is built per
//!   protocol and shared by every candidate's deadlock re-check
//!   ([`DeadlockAnalysis::analyze_prepared`]). One [`DeadlockAnalysis`] of
//!   the input protocol re-checks each `Resolve` set exactly (Theorem 4.2)
//!   and hands back a shortest bad cycle the set leaves
//!   ([`DeadlockAnalysis::witness_without`]); the sets grow from these
//!   counterexamples until every one passes, so every candidate is
//!   deadlock-free by construction.
//! * **Cancellation** — a cooperative [`CancelToken`] is polled once per
//!   round of the `Resolve`-set search and once per candidate; on
//!   cancellation the verified prefix is kept, so no solution below the
//!   cancel point is lost.
//! * **Monotone lattice pruning** (`prune`, on by default) — a candidate
//!   rejected by a qualifying trail certifies a *cut*: the trail's used
//!   t-arcs form a pseudo-livelock union whose presence dooms **every**
//!   superset candidate, because the trail search depends only on the
//!   s-arcs (space-determined), the allowed t-arcs, and the illegitimate
//!   states — none of which a superset changes. Cuts sit in one list that
//!   the run owns; a new cut is projected onto the current `Resolve` set
//!   at once, so the next candidate in its upward cone is already skipped
//!   by a per-digit subset test. Skipped candidates are *recounted* with
//!   the trail verdict the full engine would have assigned, so the outcome
//!   stays byte-identical with pruning on or off. Verified candidates skip
//!   the Theorem 4.2 re-check, which holds by construction, and reuse one
//!   delta-applied LTG per run ([`Ltg::retarget`]) instead of from-scratch
//!   analyses. See DESIGN.md §14.

use std::fmt;
use std::sync::atomic::Ordering;

use selfstab_core::deadlock::DeadlockAnalysis;
use selfstab_core::livelock::LivelockAnalysis;
use selfstab_core::ltg::Ltg;
use selfstab_core::pseudo::forms_pseudo_livelock_union;
use selfstab_core::rcg::Rcg;
use selfstab_global::CancelToken;
use selfstab_graph::hitting::minimal_hitting_sets;
use selfstab_protocol::{LocalStateId, LocalTransition, Protocol};
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
    /// Has no effect: candidates are verified on the calling thread. Kept
    /// so that callers written against the removed per-job thread count
    /// still compile.
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
    /// `max_combinations`; counted on the enumeration prefix).
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
    /// Number of combinations, saturating at `u64::MAX`. Both engines
    /// verify at most their `max_combinations` budget, a `usize`, so a
    /// saturated count only ever means "more than the budget": the
    /// odometer never steps past a prefix it can address. An empty
    /// `Resolve` set has exactly one, empty, combination; a state with
    /// zero options yields 0 (immediately unsatisfiable, and the odometer
    /// must not be started).
    pub(crate) fn total(&self) -> u64 {
        self.per_state
            .iter()
            .fold(1u64, |acc, opts| acc.saturating_mul(opts.len() as u64))
    }

    /// Sets `digits` to combination 0, one zero digit per state.
    pub(crate) fn first(&self, digits: &mut Vec<usize>) {
        digits.clear();
        digits.resize(self.per_state.len(), 0);
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

/// The verdict of one candidate combination.
enum Verdict {
    /// The revision fails validation.
    Invalid,
    /// The exact Theorem 4.2 re-check of the reference engine finds a
    /// deadlock.
    Deadlock,
    /// Theorem 5.14 does not certify the revision: a qualifying contiguous
    /// trail exists, or an analysis assumption fails.
    Trail,
    /// The accepted revision.
    Accept(Box<SynthesizedProtocol>),
}

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

    /// Computes the candidate `Resolve` sets: the first `max_resolve_sets`
    /// minimal sets of illegitimate local deadlocks hitting every RCG cycle
    /// (over local deadlocks) that passes through an illegitimate state, in
    /// (size, lex) order.
    ///
    /// Every returned set passes the exact Theorem 4.2 re-check
    /// ([`DeadlockAnalysis::free_without`]), so every candidate built on a
    /// returned set is deadlock-free for every ring size.
    pub fn resolve_sets(&self, protocol: &Protocol, rcg: &Rcg) -> Vec<Vec<LocalStateId>> {
        let deadlocks = DeadlockAnalysis::analyze_prepared(protocol, rcg);
        let cap = self.config.max_resolve_sets;
        resolve_sets_capped(&deadlocks, cap, &CancelToken::new()).unwrap_or_default()
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
    /// cancellation the outcome keeps the verified prefix (`cancelled()`
    /// and `truncated()` are set) rather than erroring out.
    ///
    /// Flushes candidate/rejection counters into `counters` and records
    /// the whole search as one [`Phase::Synthesis`] span in `phases`.
    /// Counters are flushed once, when the search ends, and the `None`
    /// path does no telemetry work at all.
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

    /// The engine: the resolve-set loop around one scan of each set's
    /// combinations in ascending index order.
    fn search(
        &self,
        protocol: &Protocol,
        cancel: &CancelToken,
        counters: Option<&SynthesisCounters>,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        check_domain(protocol.space().domain_size())?;
        let rcg = Rcg::build(protocol);
        let deadlocks = DeadlockAnalysis::analyze_prepared(protocol, &rcg);
        let name = format!("{}-ss", protocol.name());

        // One extra set makes truncation of the set list itself observable.
        let cap = self.config.max_resolve_sets;
        let sets = resolve_sets_capped(&deadlocks, cap.saturating_add(1), cancel);
        let cancelled = sets.is_none();
        let sets = sets.unwrap_or_default();

        let mut outcome = SynthesisOutcome {
            solutions: Vec::new(),
            resolve_sets_tried: 0,
            combinations_tried: 0,
            rejected_by_trail: 0,
            truncated: cancelled || sets.len() > cap,
            cancelled,
        };
        let sets = &sets[..sets.len().min(cap)];
        let mut rejected_invalid: u64 = 0;
        let mut rejected_by_deadlock: u64 = 0;
        let mut tally = Tally::default();
        // Pruning state that outlives one set: the cut list and the
        // delta-applied LTG.
        let mut cuts = Cuts::new();
        let mut ltg: Option<Ltg> = None;
        let mut digits: Vec<usize> = Vec::new();
        let mut added: Vec<LocalTransition> = Vec::new();

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
            // Resolve set immediately unsatisfiable (and the odometer must
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
            let total = space.total();
            let comb_left = (self.config.max_combinations - outcome.combinations_tried) as u64;
            let allowed = total.min(comb_left);

            let ctx = ScanContext {
                protocol,
                rcg: &rcg,
                name: &name,
                resolve,
                space: &space,
            };
            let mut prune = self.config.prune.then(|| SetPrune {
                digit_valid: per_state
                    .iter()
                    .map(|opts| {
                        opts.iter()
                            .map(|&t| protocol.validate_transition(t).is_ok())
                            .collect()
                    })
                    .collect(),
                projected: cuts
                    .iter()
                    .filter_map(|cut| project_cut(cut, resolve, &per_state))
                    .collect(),
            });

            // Verify combinations `0..allowed` in order, stopping right
            // after the accepted candidate that fills the solution budget.
            let mut taken: u64 = 0;
            space.first(&mut digits);
            while taken < allowed {
                tally.cancel_polls += 1;
                if cancel.is_cancelled() {
                    outcome.cancelled = true;
                    break;
                }
                taken += 1;
                let verdict = match &mut prune {
                    Some(p) => verify_candidate_pruned(
                        &ctx, p, &mut cuts, &digits, &mut added, &mut ltg, &mut tally,
                    ),
                    None => {
                        space.fill(&digits, &mut added);
                        verify_candidate(&ctx, &added)
                    }
                };
                match verdict {
                    Verdict::Invalid => rejected_invalid += 1,
                    Verdict::Deadlock => rejected_by_deadlock += 1,
                    Verdict::Trail => outcome.rejected_by_trail += 1,
                    Verdict::Accept(sol) => {
                        outcome.solutions.push(*sol);
                        if outcome.solutions.len() >= self.config.max_solutions {
                            break;
                        }
                    }
                }
                space.advance(&mut digits);
            }
            outcome.combinations_tried += taken as usize;
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
                .fetch_add(tally.cancel_polls, Ordering::Relaxed);
            c.cones_cut.fetch_add(tally.cones_cut, Ordering::Relaxed);
            c.candidates_skipped
                .fetch_add(tally.candidates_skipped, Ordering::Relaxed);
            c.delta_reuses
                .fetch_add(tally.delta_reuses, Ordering::Relaxed);
        }
        Ok(outcome)
    }
}

/// [`LocalSynthesizer::resolve_sets`] from the protocol's deadlock
/// analysis, with an explicit cap (the engine asks for one extra set, so
/// that truncation of the list is observable), or `None` once `cancel`
/// fires. Each round takes the first `cap` minimal hitting sets of the bad
/// cycles found so far (none at first), each cycle as its illegitimate
/// deadlocks; the first set that leaves a bad cycle adds that
/// cycle, and the loop ends when every set passes. A new cycle is missed by
/// a set that hits every known one, so the loop ends. At its fixed point
/// the list is the first `cap` minimal resolve sets over *all* bad cycles,
/// whichever cycles were found: a minimal resolve set `T` ahead of the last
/// returned set contains a minimal hitting set of the known cycles that is
/// no later than `T`, so was returned, so passed, so is `T` itself.
fn resolve_sets_capped(
    deadlocks: &DeadlockAnalysis,
    cap: usize,
    cancel: &CancelToken,
) -> Option<Vec<Vec<LocalStateId>>> {
    let mut families: Vec<Vec<usize>> = Vec::new();
    loop {
        if cancel.is_cancelled() {
            return None;
        }
        let sets: Vec<Vec<LocalStateId>> = minimal_hitting_sets(&families, cap)
            .into_iter()
            .map(|s| s.into_iter().map(|v| LocalStateId(v as u32)).collect())
            .collect();
        let Some(witness) = sets.iter().find_map(|s| deadlocks.witness_without(s)) else {
            return Some(sets);
        };
        families.push(
            witness
                .cycle
                .into_iter()
                .filter(|&s| deadlocks.is_illegitimate_deadlock(s))
                .map(LocalStateId::index)
                .collect(),
        );
    }
}

/// The cut list of one synthesis run: culpable added-transition subsets
/// certified by a trail rejection. An installed cut `C` proves that every
/// candidate protocol containing all of `C` admits a qualifying contiguous
/// trail and gets the trail verdict from the Theorem 5.14 check:
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
///   uncertified — either way the full engine gives it the trail verdict.
///
/// Cuts are stored with their base transitions stripped (the base is part
/// of every candidate of every `Resolve` set). No installed cut lies inside
/// a new one: it would lie inside the candidate whose trail certified the
/// new cut, and that candidate would have been skipped unverified.
type Cuts = Vec<Vec<LocalTransition>>;

/// A run's work tallies, flushed into the matching [`SynthesisCounters`]
/// (the *verdicts* are the same with pruning on or off; only how much
/// verification was skipped differs).
#[derive(Default)]
struct Tally {
    /// Cancellation polls, one per candidate started.
    cancel_polls: u64,
    /// Cuts installed in the cut list.
    cones_cut: u64,
    /// Candidates given the trail verdict from a cut's cone.
    candidates_skipped: u64,
    /// Candidates verified over the delta-applied LTG.
    delta_reuses: u64,
}

/// The pruning state of one `Resolve`-set scan.
struct SetPrune {
    /// `digit_valid[j][d]`: whether option `d` of state `j` passes
    /// [`Protocol::validate_transition`], the check of
    /// `with_added_transitions` — a per-transition property, so a skipped
    /// candidate's invalid verdict is decidable without materializing a
    /// protocol.
    digit_valid: Vec<Vec<bool>>,
    /// The run's cuts projected onto this set's digits (see
    /// [`project_cut`]): those installed before the set's scan began, then
    /// each new one as it is installed.
    projected: Vec<Vec<(usize, usize)>>,
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

/// Everything needed to verify one candidate of one `Resolve` set.
struct ScanContext<'a> {
    protocol: &'a Protocol,
    rcg: &'a Rcg,
    name: &'a str,
    resolve: &'a [LocalStateId],
    space: &'a ComboSpace<'a>,
}

/// Verifies one candidate combination: revision validity, the exact
/// deadlock-freedom re-check (Theorem 4.2 over the shared RCG), then the
/// Theorem 5.14 trail check distinguishing NPL (no pseudo-livelock among
/// the added arcs) from PL (support exists but no qualifying trail).
fn verify_candidate(ctx: &ScanContext<'_>, added: &[LocalTransition]) -> Verdict {
    let candidate = match ctx
        .protocol
        .with_added_transitions(ctx.name, added.iter().copied())
    {
        Ok(p) => p,
        Err(_) => return Verdict::Invalid,
    };

    // Deadlock-freedom must hold (it does by construction of Resolve;
    // re-checked exactly for robustness). The RCG depends only on the
    // domain and locality, so the prepared one is valid for every revision.
    let da = DeadlockAnalysis::analyze_prepared(&candidate, ctx.rcg);
    if !da.is_free_for_all_k() {
        return Verdict::Deadlock;
    }

    let la = LivelockAnalysis::analyze(&candidate);
    if !la.certified_free() {
        return Verdict::Trail;
    }
    accept(ctx, candidate, added, &la)
}

/// The pruned verification of one candidate: exact per-digit validity,
/// cut-cone skipping, then delta-verification over the run's retargeted
/// LTG. A valid candidate resolves exactly its `Resolve` set, which passed
/// [`DeadlockAnalysis::free_without`], so it is deadlock-free and needs no
/// Theorem 4.2 re-check. The returned verdict is provably the one
/// [`verify_candidate`] would compute (see the module docs and DESIGN.md
/// §14 for the soundness argument), so the outcome cannot tell the engines
/// apart. A cut this candidate's trail certifies is installed in `cuts`
/// and projected into `p` before the next candidate.
fn verify_candidate_pruned(
    ctx: &ScanContext<'_>,
    p: &mut SetPrune,
    cuts: &mut Cuts,
    digits: &[usize],
    added: &mut Vec<LocalTransition>,
    ltg: &mut Option<Ltg>,
    tally: &mut Tally,
) -> Verdict {
    // Validity is a per-transition property, so the conjunction of the
    // digit flags is exactly the `with_added_transitions` verdict — no
    // protocol needs to be materialized to reject an invalid candidate.
    if digits
        .iter()
        .enumerate()
        .any(|(j, &d)| !p.digit_valid[j][d])
    {
        return Verdict::Invalid;
    }
    // Cut-cone skip. The full engine checks Theorem 4.2 before the trail,
    // so this is sound because the candidate is deadlock-free.
    if p.projected
        .iter()
        .any(|c| c.iter().all(|&(j, d)| digits[j] == d))
    {
        tally.candidates_skipped += 1;
        return Verdict::Trail;
    }
    ctx.space.fill(digits, added);
    let candidate = match ctx
        .protocol
        .with_added_transitions(ctx.name, added.iter().copied())
    {
        Ok(c) => c,
        // Unreachable (digits are pre-validated); kept so a validation
        // drift would surface as a wrong verdict, not a panic.
        Err(_) => return Verdict::Invalid,
    };
    // From here on verification reuses delta state (cloned RCG,
    // retargeted t-graph) instead of a from-scratch analysis.
    tally.delta_reuses += 1;
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
                p.projected
                    .extend(project_cut(&cut, ctx.resolve, ctx.space.per_state));
                cuts.push(cut);
                tally.cones_cut += 1;
            }
        }
        return Verdict::Trail;
    }
    accept(ctx, candidate, added, &la)
}

/// The accepted revision of a candidate whose Theorem 5.14 check `la`
/// certified it: step 4 when its t-arcs form no pseudo-livelock, step 5
/// otherwise.
fn accept(
    ctx: &ScanContext<'_>,
    candidate: Protocol,
    added: &[LocalTransition],
    la: &LivelockAnalysis,
) -> Verdict {
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
    Verdict::Accept(Box::new(sol))
}

/// The `u8` candidate-value guard (see
/// [`SynthesisError::DomainTooLarge`]).
fn check_domain(domain_size: usize) -> Result<(), SynthesisError> {
    if domain_size > u8::MAX as usize {
        return Err(SynthesisError::DomainTooLarge { domain_size });
    }
    Ok(())
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

    /// These inputs overrun Johnson's cycle budget, which no longer bounds
    /// the resolve sets. Sum-not-three over d = 4 and five-coloring keep
    /// their one set. Agreement over d = 4 and 5, which got none from a
    /// truncated enumeration, gets a list in (size, lex) order whose every
    /// set leaves no bad cycle and stops doing so once any state is dropped.
    #[test]
    fn resolve_sets_do_not_depend_on_a_cycle_budget() {
        // (d, legit predicate, the windows of the one resolve set, or none
        // where only the properties of the list are checked)
        let cases: [(usize, &str, &[[u8; 2]]); 4] = [
            (4, "x[r] + x[r-1] != 3", &[[0, 3], [1, 2], [2, 1], [3, 0]]),
            (
                5,
                "x[r] != x[r-1]",
                &[[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]],
            ),
            (4, "x[r] == x[r-1]", &[]),
            (5, "x[r] == x[r-1]", &[]),
        ];
        for (d, legit, windows) in cases {
            let p = empty("budget", d, legit);
            let rcg = Rcg::build(&p);
            let deadlocks = DeadlockAnalysis::analyze_prepared(&p, &rcg);
            assert!(
                deadlocks.witnesses().1,
                "`{legit}` over d={d} must overrun the cycle budget"
            );
            let sets = LocalSynthesizer::default().resolve_sets(&p, &rcg);
            if !windows.is_empty() {
                let sp = p.space();
                let set: Vec<LocalStateId> = windows.iter().map(|w| sp.encode(w)).collect();
                assert_eq!(sets, vec![set], "`{legit}` over d={d}");
            }
            assert!(!sets.is_empty(), "`{legit}` over d={d}");
            for pair in sets.windows(2) {
                assert!(
                    (pair[0].len(), &pair[0]) < (pair[1].len(), &pair[1]),
                    "`{legit}` over d={d}: {pair:?} out of (size, lex) order"
                );
            }
            for set in &sets {
                assert!(deadlocks.free_without(set), "`{legit}` d={d} {set:?}");
                for i in 0..set.len() {
                    let mut smaller = set.clone();
                    smaller.remove(i);
                    assert!(
                        !deadlocks.free_without(&smaller),
                        "`{legit}` d={d}: {set:?} is not minimal"
                    );
                }
            }
        }
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

    /// A zero cap returns no resolve set, also for a protocol that needs
    /// none, whose one resolve set is the empty set.
    #[test]
    fn zero_resolve_set_cap_returns_no_set() {
        let free = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        for p in [free, empty("agreement", 2, "x[r] == x[r-1]")] {
            let rcg = Rcg::build(&p);
            let capped = |max_resolve_sets| {
                LocalSynthesizer::new(SynthesisConfig {
                    max_resolve_sets,
                    ..SynthesisConfig::default()
                })
                .resolve_sets(&p, &rcg)
            };
            assert!(!capped(1).is_empty());
            assert!(capped(0).is_empty(), "{}", p.name());
        }
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

    /// A pre-cancelled token stops the resolve-set search itself, before any
    /// set is tried: empty agreement over d = 8 needs many rounds of it.
    #[test]
    fn pre_cancelled_token_stops_the_resolve_set_search() {
        let p = empty("agreement", 8, "x[r] == x[r-1]");
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = LocalSynthesizer::default()
            .synthesize_metered(&p, &cancel, None, None)
            .unwrap();
        assert!(out.cancelled());
        assert!(out.truncated());
        assert_eq!(out.resolve_sets_tried(), 0);
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
    /// workload — pruning must be invisible. The one-solution and
    /// five-combination budgets stop the scan mid-set.
    #[test]
    fn pruned_and_full_engines_agree() {
        let workloads = [
            (2, "x[r] == x[r-1]"),
            (2, "x[r] != x[r-1]"),
            (3, "x[r] != x[r-1]"),
            (3, "x[r] + x[r-1] != 2"),
            (4, "x[r] != x[r-1]"),
            (4, "x[r] + x[r-1] != 3"),
        ];
        let budgets = [
            SynthesisConfig::default(),
            SynthesisConfig {
                max_solutions: 1,
                ..SynthesisConfig::default()
            },
            SynthesisConfig {
                max_combinations: 5,
                ..SynthesisConfig::default()
            },
        ];
        for (d, legit) in workloads {
            let p = empty("w", d, legit);
            for budget in &budgets {
                let full = LocalSynthesizer::new(SynthesisConfig {
                    prune: false,
                    ..budget.clone()
                })
                .synthesize(&p)
                .unwrap();
                let pruned = LocalSynthesizer::new(SynthesisConfig {
                    prune: true,
                    ..budget.clone()
                })
                .synthesize(&p)
                .unwrap();
                assert_eq!(pruned, full, "d={d} legit=`{legit}` budget {budget:?}");
            }
        }
    }

    /// On workloads whose every candidate is trail-rejected (4- and
    /// 5-coloring), pruning cuts cones and skips verification work — while
    /// the recounted outcome still covers the whole combination space. The
    /// scan is sequential and projects each new cut at once, so the work
    /// counts are exact: one cut per verified candidate, every other
    /// candidate skipped.
    #[test]
    fn pruning_cuts_cones_on_a_rejecting_workload() {
        // (d, combinations, cones cut, candidates skipped)
        for (d, combinations, cut, skipped) in [(4, 81, 20, 61), (5, 1024, 84, 940)] {
            let p = empty("coloring", d, "x[r] != x[r-1]");
            let counters = SynthesisCounters::new();
            let out = LocalSynthesizer::default()
                .synthesize_metered(&p, &CancelToken::new(), Some(&counters), None)
                .unwrap();
            assert!(!out.is_success());
            assert_eq!(out.combinations_tried(), combinations, "d={d}");
            assert_eq!(out.rejected_by_trail(), combinations, "d={d}");
            let snap = counters.snapshot();
            assert_eq!(snap.cones_cut, cut, "d={d}: cones cut");
            assert_eq!(snap.candidates_skipped, skipped, "d={d}: skipped");
            assert_eq!(snap.delta_reuses, cut, "d={d}: delta reuses");
            assert_eq!(snap.cancel_polls, combinations as u64, "d={d}: polls");
            // Skipped candidates are recounted, never dropped.
            assert_eq!(snap.combinations_tried, combinations as u64);
            assert_eq!(snap.rejected_by_trail, combinations as u64);
        }
    }

    /// A resolve set whose candidate product overflows `u64` is scanned to
    /// the budget like any other: its count saturates, so the engine
    /// verifies a prefix of it instead of refusing the protocol. Empty
    /// agreement over ten values has a 45-state resolve set.
    #[test]
    fn an_overflowing_combination_space_is_scanned_to_the_budget() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        // 2^64 combinations: 64 states with 2 options each.
        let per_state: Vec<Vec<LocalTransition>> = (0..64).map(|_| vec![t(0), t(1)]).collect();
        let total = |per_state| ComboSpace { per_state }.total();
        assert_eq!(total(&per_state), u64::MAX);
        assert_eq!(total(&per_state[..63]), 1u64 << 63);

        let p = empty("agreement", 10, "x[r] == x[r-1]");
        let out = LocalSynthesizer::new(SynthesisConfig {
            max_combinations: 64,
            ..SynthesisConfig::default()
        })
        .synthesize(&p)
        .expect("an overflowing space is scanned, not refused");
        assert_eq!(out.resolve_sets_tried(), 1);
        assert_eq!(out.combinations_tried(), 64);
        assert!(out.truncated());
        assert!(!out.solutions().is_empty());
    }

    /// Satellite regression: a resolve state with zero candidate options
    /// yields 0 (immediately unsatisfiable).
    #[test]
    fn zero_option_state_is_immediately_unsatisfiable() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        let per_state = vec![vec![t(0), t(1)], Vec::new()];
        let space = ComboSpace {
            per_state: &per_state,
        };
        assert_eq!(space.total(), 0);
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

    /// The lazy mixed-radix enumeration matches the materialized
    /// nested-loop order: state 0 is the most significant digit.
    #[test]
    fn combo_space_enumerates_in_nested_loop_order() {
        let t = |v: u8| LocalTransition::new(LocalStateId(0), v);
        let per_state = vec![vec![t(0), t(1)], vec![t(2)], vec![t(3), t(4), t(5)]];
        let space = ComboSpace {
            per_state: &per_state,
        };
        assert_eq!(space.total(), 6);
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
        space.first(&mut digits);
        for (i, expected) in materialized.iter().enumerate() {
            space.fill(&digits, &mut added);
            assert_eq!(&added, expected, "advance at {i}");
            space.advance(&mut digits);
        }
    }
}
