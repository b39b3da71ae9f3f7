//! Fused, parallel, allocation-free convergence scanning.
//!
//! [`ConvergenceReport::check`](crate::check::ConvergenceReport::check)
//! needs three facts about the global state space: the size of `I(K)`, how
//! many deadlocks lie outside `I(K)` and which is least, and whether `I(K)`
//! is closed. The naive formulation makes three separate sweeps, each
//! re-deriving every local state through
//! [`GlobalSpace::value_at`](crate::state::GlobalSpace) (a `pow` per
//! digit). [`fused_scan`] computes all three in **one** pass:
//!
//! * global ids are enumerated in dense ascending order while a mixed-radix
//!   digit buffer is incremented in place, so no division or `pow` is spent
//!   on decoding;
//! * each state's `K` local window ids are assembled straight from the
//!   digit buffer, and legitimacy/enabledness are memoized per-local-state
//!   class bits ([`RingInstance`] builds the tables at construction);
//! * the closure check for a legitimate state only re-encodes the ≤ `w`
//!   windows that actually cover the written position;
//! * the sweep also records a legitimacy bitmap that the livelock search
//!   ([`find_livelock_with`]) reuses, making `is_legit` a single bit test
//!   during the DFS.
//!
//! The id range is split into 64-aligned chunks handed to a scoped thread
//! pool ([`EngineConfig::threads`]); each chunk produces an independent
//! `ChunkOut` summary and the summaries are merged in ascending chunk
//! order, so **the result is bit-for-bit identical for every thread
//! count**, including the identity of the first closure violation and of
//! the first deadlock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use selfstab_protocol::{LocalStateId, Value};
use selfstab_telemetry::EngineCounters;

use crate::instance::{Move, RingInstance, CLS_ENABLED, CLS_LEGIT};
use crate::state::GlobalStateId;
use crate::symmetry;

/// How many states/DFS steps a scan processes between cancellation polls.
/// Large enough that the poll (one relaxed load, occasionally a clock read)
/// is invisible in profiles, small enough that cancellation lands within
/// microseconds.
const CANCEL_STRIDE: u64 = 4096;

/// Cooperative cancellation for long-running scans: an explicit flag
/// (settable from any thread, e.g. a Ctrl-C handler) combined with an
/// optional wall-clock deadline and an optional **parent** token. Scans
/// poll the token every `CANCEL_STRIDE` (4096) states and bail out with
/// [`Cancelled`].
///
/// Parent linking lets one broadcast token (a SIGINT hook, a chaos
/// harness's forced-cancel injector) abort many per-job tokens at once:
/// a child fires as soon as its own flag/deadline fires *or* its parent
/// does, and a fired parent latches into the child's flag so subsequent
/// polls stay one relaxed load.
#[derive(Debug)]
pub struct CancelToken {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelToken>>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never fires unless [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: None,
            parent: None,
        }
    }

    /// A token that fires once `deadline` passes (or on explicit cancel).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: Some(deadline),
            parent: None,
        }
    }

    /// A token that also fires whenever `parent` fires. Cancelling the
    /// child never cancels the parent.
    pub fn linked(parent: Arc<CancelToken>) -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: None,
            parent: Some(parent),
        }
    }

    /// A token with both a private deadline and a parent link: it fires on
    /// its own deadline, on explicit cancel, or when `parent` fires.
    pub fn linked_with_deadline(parent: Arc<CancelToken>, deadline: Instant) -> Self {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: Some(deadline),
            parent: Some(parent),
        }
    }

    /// Fires the token; every in-flight scan polling it will abort.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once the token has fired, its deadline has passed, or its
    /// parent (if any) has fired. A passed deadline or fired parent latches
    /// the flag so later polls skip the clock read / parent walk.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(parent) = &self.parent {
            if parent.is_cancelled() {
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// A scan was aborted by its [`CancelToken`] before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scan cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// How the engine exploits rotation symmetry of ring instances.
///
/// Whatever the mode, a completed check produces the **byte-identical**
/// report: same counts, same witness states, same orderings. The mode only
/// chooses how much work is spent getting there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SymmetryMode {
    /// Pick per instance with the crossover heuristic: reduced when the
    /// instance is rotation-symmetric, the scan is sequential, and the
    /// space is large enough (`K ≥ 6` and `d^K ≥ 32768`) that necklace
    /// enumeration beats the dense sweep. Small spaces stay on the full
    /// path, where the dense loop's constant factor wins.
    #[default]
    Auto,
    /// Always enumerate all `d^K` dense states.
    Full,
    /// Enumerate one representative per rotation orbit (`~d^K / K`
    /// necklaces) and lift counts by orbit size; the livelock search runs
    /// on the quotient graph first. Sequential by construction; silently
    /// degrades to [`SymmetryMode::Full`] on instances that are not
    /// rotation-symmetric (heterogeneous rings), where the reduction does
    /// not apply.
    Reduced,
}

impl std::str::FromStr for SymmetryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SymmetryMode::Auto),
            "full" => Ok(SymmetryMode::Full),
            "reduced" => Ok(SymmetryMode::Reduced),
            other => Err(format!(
                "symmetry mode must be `auto`, `full` or `reduced`, got `{other}`"
            )),
        }
    }
}

/// Auto-mode crossover: reduced only from this ring size up…
const AUTO_REDUCED_MIN_K: usize = 6;
/// …and only once the dense space reaches this many states.
const AUTO_REDUCED_MIN_STATES: u64 = 32768;

/// Tuning knobs of the fused engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the scan. `0` and `1` both mean sequential
    /// (the default, so results are reproducible without opting in).
    pub threads: usize,
    /// Rotation-symmetry reduction policy (default [`SymmetryMode::Auto`]).
    pub symmetry: SymmetryMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            symmetry: SymmetryMode::Auto,
        }
    }
}

impl EngineConfig {
    /// A sequential configuration.
    pub fn sequential() -> Self {
        EngineConfig::default()
    }

    /// A configuration with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }

    /// The same configuration with the given symmetry mode.
    pub fn with_symmetry(self, symmetry: SymmetryMode) -> Self {
        EngineConfig { symmetry, ..self }
    }

    /// Resolves the symmetry policy against a concrete instance: `true`
    /// when this scan should run the necklace-reduced path. The reduced
    /// scan is inherently sequential, so `Auto` also requires a sequential
    /// configuration; an explicit `Reduced` wins over `threads` (the scan
    /// simply runs sequentially) but still degrades to the full path on
    /// instances the reduction does not apply to.
    fn use_reduced(&self, ring: &RingInstance) -> bool {
        match self.symmetry {
            SymmetryMode::Full => false,
            SymmetryMode::Reduced => ring.is_rotation_symmetric(),
            SymmetryMode::Auto => {
                ring.is_rotation_symmetric()
                    && self.threads <= 1
                    && ring.ring_size() >= AUTO_REDUCED_MIN_K
                    && ring.space().len() >= AUTO_REDUCED_MIN_STATES
            }
        }
    }
}

/// How many global deadlocks lie outside `I(K)`, and which is least.
///
/// This is all a verdict or a report needs (Theorem 4.2 reasons in the same
/// count-plus-witness shape), so a scan keeps `O(1)` deadlock state however
/// many deadlocks there are. The full list stays available from the
/// reference [`illegitimate_deadlocks`](crate::check::illegitimate_deadlocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlockSummary {
    /// Number of global deadlocks outside `I(K)`.
    pub count: u64,
    /// The least of them by dense id; `None` iff `count` is 0.
    pub first: Option<GlobalStateId>,
}

impl DeadlockSummary {
    /// Summarizes a deadlock list in ascending id order, such as the one
    /// [`illegitimate_deadlocks`](crate::check::illegitimate_deadlocks)
    /// returns: its length and its first element.
    pub fn of(ascending: &[GlobalStateId]) -> Self {
        DeadlockSummary {
            count: ascending.len() as u64,
            first: ascending.first().copied(),
        }
    }

    /// `true` iff there is no deadlock outside `I(K)`.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds `n` deadlocks whose least member is `least`. Callers add in
    /// ascending order of `least`, so the first call fixes `first`.
    fn add(&mut self, least: GlobalStateId, n: u64) {
        self.count += n;
        self.first.get_or_insert(least);
    }

    /// Appends the summary of a later (higher) id range.
    fn merge(&mut self, later: DeadlockSummary) {
        self.count += later.count;
        self.first = self.first.or(later.first);
    }
}

/// The result of one fused sweep over the global state space.
///
/// Only the legitimacy bitmap (and, after a reduced scan, the frontier)
/// grows with the state space; deadlocks are kept as a
/// [`DeadlockSummary`], never as a list.
#[derive(Clone, Debug)]
pub struct FusedScan {
    /// Number of states in `I(K)`.
    pub legit_count: u64,
    /// The global deadlocks outside `I(K)`: their count and the least one.
    pub illegitimate_deadlocks: DeadlockSummary,
    /// The first closure violation in (state, process, target) order, if
    /// `I(K)` is not closed.
    pub first_closure_violation: Option<(GlobalStateId, Move)>,
    /// Legitimacy bitmap: bit `id` is set iff `id ∈ I(K)`.
    legit_bits: Vec<u64>,
    /// Set by the reduced scan: every illegitimate necklace representative,
    /// in ascending id order — the livelock frontier. `None` after a full
    /// scan, which tells [`find_livelock_with`] to walk the dense space.
    frontier: Option<Vec<GlobalStateId>>,
}

impl FusedScan {
    /// Bitmap lookup: `true` iff `gid ∈ I(K)`.
    pub fn is_legit(&self, gid: GlobalStateId) -> bool {
        self.legit_bits[(gid.0 / 64) as usize] >> (gid.0 % 64) & 1 == 1
    }
}

/// Per-chunk accumulator; chunks merge associatively in ascending order.
struct ChunkOut {
    legit_count: u64,
    deadlocks: DeadlockSummary,
    violation: Option<(GlobalStateId, Move)>,
    /// The bitmap words covering the chunk's (64-aligned) id range.
    bits: Vec<u64>,
}

/// Precomputed window geometry shared by every chunk of one scan.
struct ScanPlan {
    ring_size: usize,
    domain_size: u64,
    window_width: usize,
    /// `positions[i * w + idx]` = ring position read by window slot `idx`
    /// of process `i` (wrap-around applied).
    positions: Vec<usize>,
    /// `weights[idx]` = `d^(w-1-idx)`, the significance of window slot
    /// `idx` in the local state id.
    weights: Vec<u32>,
    /// `tables[i]` = transition-table index of process `i`.
    tables: Vec<usize>,
    /// `writers[i * w + idx]` = the process whose window slot `idx` reads
    /// position `i` — i.e. the candidates whose local state changes when
    /// `x_i` is written.
    writers: Vec<usize>,
    /// `state_weights[i]` = `d^(K-1-i)`, the significance of ring position
    /// `i` in the global state id (matching [`GlobalSpace`]'s encoding).
    state_weights: Vec<u64>,
}

impl ScanPlan {
    fn new(ring: &RingInstance) -> Self {
        let k = ring.ring_size();
        let d = ring.space().domain_size() as u64;
        let loc = ring.locality();
        let w = loc.window_width();
        let mut positions = Vec::with_capacity(k * w);
        let mut writers = Vec::with_capacity(k * w);
        for i in 0..k {
            for idx in 0..w {
                let off = loc.offset_of(idx);
                positions.push((i as isize + off).rem_euclid(k as isize) as usize);
                writers.push((i as isize - off).rem_euclid(k as isize) as usize);
            }
        }
        let mut weights = vec![1u32; w];
        for idx in (0..w.saturating_sub(1)).rev() {
            weights[idx] = weights[idx + 1] * d as u32;
        }
        let mut state_weights = vec![1u64; k];
        for i in (0..k.saturating_sub(1)).rev() {
            state_weights[i] = state_weights[i + 1] * d;
        }
        ScanPlan {
            ring_size: k,
            domain_size: d,
            window_width: w,
            positions,
            weights,
            tables: (0..k).map(|i| ring.table_index(i)).collect(),
            writers,
            state_weights,
        }
    }

    /// The local state id of process `i` given the digit buffer.
    #[inline]
    fn local_id(&self, digits: &[Value], i: usize) -> LocalStateId {
        let w = self.window_width;
        let mut id: u32 = 0;
        for idx in 0..w {
            id += self.weights[idx] * digits[self.positions[i * w + idx]] as u32;
        }
        LocalStateId(id)
    }

    /// Like [`ScanPlan::local_id`], with position `pos` overridden to `v`
    /// (evaluating a window after a hypothetical write).
    #[inline]
    fn local_id_with(&self, digits: &[Value], i: usize, pos: usize, v: Value) -> LocalStateId {
        let w = self.window_width;
        let mut id: u32 = 0;
        for idx in 0..w {
            let p = self.positions[i * w + idx];
            let digit = if p == pos { v } else { digits[p] };
            id += self.weights[idx] * digit as u32;
        }
        LocalStateId(id)
    }

    /// The least rotation of state `id`, which is `digits` with position
    /// `pos` overridden to `v`: the orbit key of a DFS successor. Makes the
    /// `K − 1` left rotations in id space, one multiply-add each
    /// (`cur = (cur − lead·d^(K-1))·d + lead`, `lead` the digit rotating
    /// out), and keeps the minimum — no division, no allocation.
    #[inline]
    fn least_rotation_with(
        &self,
        id: GlobalStateId,
        digits: &[Value],
        pos: usize,
        v: Value,
    ) -> GlobalStateId {
        let top = self.state_weights[0]; // d^(K-1)
        let mut cur = id.0;
        let mut least = cur;
        for (p, &digit) in digits[..self.ring_size - 1].iter().enumerate() {
            let lead = if p == pos { v } else { digit } as u64;
            cur = (cur - lead * top) * self.domain_size + lead;
            least = least.min(cur);
        }
        GlobalStateId(least)
    }
}

/// Scans ids `start..end`, where `start` is 64-aligned (or 0). Returns
/// `None` if the token fired mid-chunk.
///
/// Telemetry discipline: the loop tallies into plain locals and flushes
/// them into `counters` **once**, after the chunk completes — so with
/// `counters: None` the loop is bit-identical to the uninstrumented one,
/// and with `Some` the per-state cost is still zero.
fn scan_chunk(
    ring: &RingInstance,
    plan: &ScanPlan,
    start: u64,
    end: u64,
    cancel: &CancelToken,
    counters: Option<&EngineCounters>,
) -> Option<ChunkOut> {
    let k = plan.ring_size;
    let d = plan.domain_size;
    let mut digits = ring.space().decode(GlobalStateId(start));
    let mut locals: Vec<LocalStateId> = vec![LocalStateId(0); k];

    let mut out = ChunkOut {
        legit_count: 0,
        deadlocks: DeadlockSummary::default(),
        violation: None,
        bits: vec![0u64; ((end - start) as usize).div_ceil(64)],
    };
    let mut polls: u64 = 0;
    let mut closure_checks: u64 = 0;

    for gid in start..end {
        if gid % CANCEL_STRIDE == 0 {
            polls += 1;
            if cancel.is_cancelled() {
                return None;
            }
        }
        let mut all_legit = true;
        let mut any_enabled = false;
        for (i, slot) in locals.iter_mut().enumerate() {
            let ls = plan.local_id(&digits, i);
            *slot = ls;
            let c = ring.class_by_table(plan.tables[i], ls);
            all_legit &= c & CLS_LEGIT != 0;
            any_enabled |= c & CLS_ENABLED != 0;
        }

        if all_legit {
            out.legit_count += 1;
            out.bits[((gid - start) / 64) as usize] |= 1 << (gid % 64);
            if out.violation.is_none() {
                closure_checks += 1;
                out.violation = first_violation_at(ring, plan, &digits, &locals, gid);
            }
        } else if !any_enabled {
            out.deadlocks.add(GlobalStateId(gid), 1);
        }

        // Mixed-radix increment: x_{K-1} is the least significant digit.
        for slot in digits.iter_mut().rev() {
            *slot += 1;
            if (*slot as u64) < d {
                break;
            }
            *slot = 0;
        }
    }
    if let Some(c) = counters {
        c.states_visited.fetch_add(end - start, Ordering::Relaxed);
        c.legit_states.fetch_add(out.legit_count, Ordering::Relaxed);
        c.deadlocks_found
            .fetch_add(out.deadlocks.count, Ordering::Relaxed);
        c.closure_checks
            .fetch_add(closure_checks, Ordering::Relaxed);
        c.cancel_polls.fetch_add(polls, Ordering::Relaxed);
    }
    Some(out)
}

/// The first closure violation out of the legitimate state `gid`, in
/// (process, target) order, or `None` if every move stays in `I(K)`.
///
/// Only the ≤ `w` processes whose window covers the written position are
/// re-encoded; all others keep their (legitimate) local state.
fn first_violation_at(
    ring: &RingInstance,
    plan: &ScanPlan,
    digits: &[Value],
    locals: &[LocalStateId],
    gid: u64,
) -> Option<(GlobalStateId, Move)> {
    let w = plan.window_width;
    for (i, &ls) in locals.iter().enumerate() {
        for &t in ring.targets_by_table(plan.tables[i], ls) {
            let stays_legit = (0..w).all(|idx| {
                let j = plan.writers[i * w + idx];
                let ls = plan.local_id_with(digits, j, i, t);
                ring.class_by_table(plan.tables[j], ls) & CLS_LEGIT != 0
            });
            if !stays_legit {
                return Some((
                    GlobalStateId(gid),
                    Move {
                        process: i,
                        target: t,
                    },
                ));
            }
        }
    }
    None
}

/// The necklace-reduced sweep: enumerate one representative per rotation
/// orbit (FKM, ascending id order) and lift every verdict back to the full
/// space by orbit size. Produces a [`FusedScan`] **byte-identical** to the
/// dense sweep's:
///
/// * `legit_count` — legitimacy is rotation-invariant, so each legitimate
///   necklace contributes its whole orbit (its minimal period `p`);
/// * `illegitimate_deadlocks` — deadlock is rotation-invariant, so each
///   deadlocked necklace adds its orbit size `p` to the count; the set of
///   illegitimate deadlocks is rotation-closed, so by the argument below
///   its least member is the first deadlocked necklace in FKM order — no
///   orbit is expanded and nothing is sorted;
/// * `first_closure_violation` — the set of legitimate states with a
///   closure-violating move is rotation-closed, and the dense-minimal
///   member of a rotation-closed set is always a necklace (its rotations
///   are in the set and it is minimal among them), so the first violating
///   representative in ascending necklace order *is* the dense scan's
///   witness state, and re-deriving its first (process, target) move is
///   position-exact;
/// * the legitimacy bitmap — filled orbit-by-orbit with the rotation trick.
///
/// The scan also records the **frontier**: every illegitimate necklace, in
/// ascending order — the only roots the reduced livelock search needs.
///
/// Counter discipline: `states_visited` stays orbit-weighted (it totals
/// `d^K` on a completed scan, same as the dense sweep), while
/// `orbits_visited` counts the necklaces actually enumerated.
fn scan_reduced(
    ring: &RingInstance,
    plan: &ScanPlan,
    cancel: &CancelToken,
    counters: Option<&EngineCounters>,
) -> Option<FusedScan> {
    let k = plan.ring_size;
    let d = ring.space().domain_size();
    let n = ring.space().len();
    let top = plan.state_weights[0]; // d^(K-1)
    let rotate = |id: u64| (id % top) * d as u64 + id / top;

    let mut locals: Vec<LocalStateId> = vec![LocalStateId(0); k];
    let mut scan = FusedScan {
        legit_count: 0,
        illegitimate_deadlocks: DeadlockSummary::default(),
        first_closure_violation: None,
        legit_bits: vec![0u64; (n as usize).div_ceil(64)],
        frontier: None,
    };
    let mut frontier: Vec<GlobalStateId> = Vec::new();
    let mut orbits: u64 = 0;
    let mut weighted: u64 = 0;
    let mut polls: u64 = 0;
    let mut closure_checks: u64 = 0;
    let completed = symmetry::for_each_necklace(d, k, &mut |digits, p| {
        if orbits.is_multiple_of(CANCEL_STRIDE) {
            polls += 1;
            if cancel.is_cancelled() {
                return false;
            }
        }
        orbits += 1;
        weighted += p as u64;
        let mut gid: u64 = 0;
        for (i, &v) in digits.iter().enumerate() {
            gid += v as u64 * plan.state_weights[i];
        }
        let mut all_legit = true;
        let mut any_enabled = false;
        for (i, slot) in locals.iter_mut().enumerate() {
            let ls = plan.local_id(digits, i);
            *slot = ls;
            let c = ring.class_by_table(plan.tables[i], ls);
            all_legit &= c & CLS_LEGIT != 0;
            any_enabled |= c & CLS_ENABLED != 0;
        }
        if all_legit {
            scan.legit_count += p as u64;
            let mut member = gid;
            for _ in 0..p {
                scan.legit_bits[(member / 64) as usize] |= 1 << (member % 64);
                member = rotate(member);
            }
            if scan.first_closure_violation.is_none() {
                closure_checks += 1;
                scan.first_closure_violation = first_violation_at(ring, plan, digits, &locals, gid);
            }
        } else {
            frontier.push(GlobalStateId(gid));
            if !any_enabled {
                scan.illegitimate_deadlocks
                    .add(GlobalStateId(gid), p as u64);
            }
        }
        true
    });
    if !completed {
        return None;
    }
    scan.frontier = Some(frontier);
    if let Some(c) = counters {
        c.states_visited.fetch_add(weighted, Ordering::Relaxed);
        c.legit_states
            .fetch_add(scan.legit_count, Ordering::Relaxed);
        c.deadlocks_found
            .fetch_add(scan.illegitimate_deadlocks.count, Ordering::Relaxed);
        c.closure_checks
            .fetch_add(closure_checks, Ordering::Relaxed);
        c.cancel_polls.fetch_add(polls, Ordering::Relaxed);
        c.orbits_visited.fetch_add(orbits, Ordering::Relaxed);
    }
    Some(scan)
}

/// Runs the fused sweep. With `config.threads <= 1` the scan is a single
/// sequential chunk; otherwise 64-aligned chunks are distributed over
/// scoped worker threads and merged in ascending chunk order, so the
/// result is identical to the sequential one.
pub fn fused_scan(ring: &RingInstance, config: &EngineConfig) -> FusedScan {
    fused_scan_metered(ring, config, &CancelToken::new(), None)
        .expect("a fresh token never cancels the scan")
}

/// Like [`fused_scan`], aborting early with [`Cancelled`] if `cancel` fires
/// (explicitly or by deadline) before the sweep completes, and optionally
/// flushing work counters into `counters` (states visited, legitimate
/// states, deadlocks, closure checks, cancel polls). A completed sweep is
/// identical to an unbounded one. Counters are accumulated per chunk in
/// plain locals and flushed once at chunk end, so the scan loop pays
/// nothing; `counters: None` does no telemetry work at all.
///
/// For a *completed* scan every flushed counter except `closure_checks`
/// is identical for every `config.threads` value (`closure_checks`
/// short-circuits per chunk, so its tally depends on the chunking).
///
/// # Errors
///
/// Returns [`Cancelled`] if the token fired before the scan finished
/// (nothing is flushed for chunks that did not complete).
pub fn fused_scan_metered(
    ring: &RingInstance,
    config: &EngineConfig,
    cancel: &CancelToken,
    counters: Option<&EngineCounters>,
) -> Result<FusedScan, Cancelled> {
    let n = ring.space().len();
    let plan = ScanPlan::new(ring);
    let threads = config.threads.max(1);

    if config.use_reduced(ring) {
        return scan_reduced(ring, &plan, cancel, counters).ok_or(Cancelled);
    }

    if threads == 1 {
        let out = scan_chunk(ring, &plan, 0, n, cancel, counters).ok_or(Cancelled)?;
        return Ok(FusedScan {
            legit_count: out.legit_count,
            illegitimate_deadlocks: out.deadlocks,
            first_closure_violation: out.violation,
            legit_bits: out.bits,
            frontier: None,
        });
    }

    // Aim for several chunks per worker so stragglers balance out, but
    // keep chunks 64-aligned so each owns whole bitmap words.
    let target = (n / (threads as u64 * 8)).max(4096);
    let chunk = target.div_ceil(64) * 64;
    let num_chunks = n.div_ceil(chunk) as usize;
    let next = AtomicU64::new(0);
    let results: Mutex<Vec<(usize, ChunkOut)>> = Mutex::new(Vec::with_capacity(num_chunks));

    std::thread::scope(|scope| {
        for _ in 0..threads.min(num_chunks) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks as u64 || cancel.is_cancelled() {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(n);
                match scan_chunk(ring, &plan, start, end, cancel, counters) {
                    Some(out) => results.lock().unwrap().push((c as usize, out)),
                    None => break,
                }
            });
        }
    });

    let mut parts = results.into_inner().unwrap();
    if parts.len() != num_chunks {
        return Err(Cancelled);
    }
    parts.sort_unstable_by_key(|(c, _)| *c);

    let mut scan = FusedScan {
        legit_count: 0,
        illegitimate_deadlocks: DeadlockSummary::default(),
        first_closure_violation: None,
        legit_bits: Vec::with_capacity((n as usize).div_ceil(64)),
        frontier: None,
    };
    for (_, part) in parts {
        scan.legit_count += part.legit_count;
        scan.illegitimate_deadlocks.merge(part.deadlocks);
        if scan.first_closure_violation.is_none() {
            scan.first_closure_violation = part.violation;
        }
        scan.legit_bits.extend(part.bits);
    }
    Ok(scan)
}

/// Livelock search reusing a fused scan's legitimacy bitmap: the tricolor
/// DFS of [`find_livelock_where`](crate::check::find_livelock_where) with
/// `is_legit` reduced to a bit test.
///
/// On top of the bitmap, the DFS keeps a per-frame arena of ring digits and
/// local window ids so a frame's enabled moves are slice lookups: a child
/// frame's digits/locals are copied from its parent and patched in `O(w)`
/// (only the ≤ `w` windows covering the written position change), and the
/// successor's global id is `parent ± Δ·d^(K-1-i)` — no `pow`, and division
/// only when decoding a DFS root. Visit order is identical to
/// [`find_livelock_where`](crate::check::find_livelock_where), so both
/// return the same cycle witness.
pub fn find_livelock_with(ring: &RingInstance, scan: &FusedScan) -> Option<Vec<GlobalStateId>> {
    find_livelock_metered(ring, scan, &CancelToken::new(), None)
        .expect("a fresh token never cancels the search")
}

/// Like [`find_livelock_with`], aborting early with [`Cancelled`] if
/// `cancel` fires before the search completes, and optionally flushing
/// work counters into `counters` (DFS steps, deepest stack, cancel polls).
/// A completed search returns the same witness as the unbounded one. The
/// search is sequential, so for a completed search every flushed value is
/// a pure function of the instance (and of the scan's symmetry mode).
/// Counters accumulate in plain locals and flush once when the search
/// completes; a [`Cancelled`] search flushes nothing.
///
/// When `scan` came from the reduced sweep (it carries a frontier of
/// illegitimate necklaces), the search runs **verdict-first**: the same
/// DFS with rotation orbits as its nodes — roots drawn from the frontier,
/// every successor keyed by its least rotation — decides whether any
/// livelock exists at `~1/K` of the dense walk's cost, so a `None` verdict
/// is final. On a positive verdict the dense walk runs to extract the
/// exact witness the full engine reports — cheap, because it
/// short-circuits at its first back edge — keeping the report
/// byte-identical in both modes.
///
/// # Errors
///
/// Returns [`Cancelled`] if the token fired before the search finished.
pub fn find_livelock_metered(
    ring: &RingInstance,
    scan: &FusedScan,
    cancel: &CancelToken,
    counters: Option<&EngineCounters>,
) -> Result<Option<Vec<GlobalStateId>>, Cancelled> {
    let plan = ScanPlan::new(ring);
    if let Some(frontier) = &scan.frontier {
        let roots = frontier.iter().copied();
        if livelock_dfs::<true>(ring, scan, &plan, roots, cancel, counters)?.is_none() {
            return Ok(None);
        }
    }
    livelock_dfs::<false>(ring, scan, &plan, ring.space().ids(), cancel, counters)
}

/// The tricolor DFS over `¬I` behind both livelock walks (see
/// [`find_livelock_metered`] for dispatch). Frames always hold the dense
/// state they reached, patched from their parent in `O(w)`; the two walks
/// differ only in the **key** that gets a color:
///
/// * `QUOTIENT = false`, the dense walk: the key is the state itself, the
///   roots are every dense id, and a back edge returns the witness cycle —
///   the keys on the stack from the gray one up, in
///   [`find_livelock_where`](crate::check::find_livelock_where)'s order;
/// * `QUOTIENT = true`, the verdict walk on the rotation-quotient graph:
///   the key is the state's orbit, named by its least rotation
///   ([`ScanPlan::least_rotation_with`]), and the roots are the reduced
///   scan's frontier, whose necklaces are their own keys. Any back edge
///   decides that a livelock exists.
///
/// The quotient verdict is exact. Rotation commutes with transitions and
/// preserves illegitimacy, so the orbits of any member's successors are the
/// orbits of the necklace's successors: the quotient graph is the same
/// whichever member a frame holds. Then, in both directions:
///
/// * a dense cycle projects to a closed walk of orbits, and a closed walk
///   contains a cycle — so a livelock implies a quotient cycle;
/// * a quotient cycle `r_0 → … → r_m = r_0` lifts: each quotient edge is a
///   dense edge up to a rotation, and composing the walk `j` times
///   multiplies the accumulated rotation until it closes (`j` divides
///   `K`), yielding a genuine dense cycle through illegitimate states.
///
/// Only when `QUOTIENT` holds are `frontier_pushes` (frames entered) and
/// `canonicalizations` (orbit keys computed) flushed, so both stay zero on
/// the full path.
fn livelock_dfs<const QUOTIENT: bool>(
    ring: &RingInstance,
    scan: &FusedScan,
    plan: &ScanPlan,
    roots: impl Iterator<Item = GlobalStateId>,
    cancel: &CancelToken,
    counters: Option<&EngineCounters>,
) -> Result<Option<Vec<GlobalStateId>>, Cancelled> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;

    let k = plan.ring_size;
    let w = plan.window_width;
    // Dense-indexed, touched only at keys: every id in the dense walk, the
    // necklaces in the quotient walk.
    let mut color = vec![WHITE; ring.space().len() as usize];
    // DFS frames: (colored key, state, next process to try, next target
    // index within that process). The parallel arenas hold each frame's
    // `K` ring digits and `K` local window ids; they grow once and are
    // reused thereafter.
    let mut frames: Vec<(GlobalStateId, GlobalStateId, usize, usize)> = Vec::new();
    let mut digits: Vec<Value> = Vec::new();
    let mut locals: Vec<LocalStateId> = Vec::new();
    let mut steps: u64 = 0;
    let mut polls: u64 = 0;
    let mut max_depth: u64 = 0;
    let mut pushes: u64 = 0;
    let mut keyed: u64 = 0;
    let flush = |steps: u64, polls: u64, max_depth: u64, pushes: u64, keyed: u64| {
        if let Some(c) = counters {
            c.dfs_steps.fetch_add(steps, Ordering::Relaxed);
            c.cancel_polls.fetch_add(polls, Ordering::Relaxed);
            c.record_dfs_depth(max_depth);
            if QUOTIENT {
                c.frontier_pushes.fetch_add(pushes, Ordering::Relaxed);
                c.canonicalizations.fetch_add(keyed, Ordering::Relaxed);
            }
        }
    };

    for root in roots {
        if color[root.index()] != WHITE || scan.is_legit(root) {
            continue;
        }
        color[root.index()] = GRAY;
        frames.clear();
        digits.clear();
        locals.clear();
        frames.push((root, root, 0, 0));
        pushes += 1;
        max_depth = max_depth.max(1);
        digits.extend_from_slice(&ring.space().decode(root));
        for i in 0..k {
            locals.push(plan.local_id(&digits, i));
        }

        while !frames.is_empty() {
            if steps.is_multiple_of(CANCEL_STRIDE) {
                polls += 1;
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
            }
            steps += 1;
            let base = (frames.len() - 1) * k;
            let &mut (key, state, ref mut proc, ref mut tidx) =
                frames.last_mut().expect("loop guard ensures a frame");
            // Advance the cursor to the next successor inside ¬I.
            let mut next = None;
            while *proc < k {
                let targets = ring.targets_by_table(plan.tables[*proc], locals[base + *proc]);
                if *tidx < targets.len() {
                    let t = targets[*tidx];
                    *tidx += 1;
                    let delta = t as i64 - digits[base + *proc] as i64;
                    let succ = GlobalStateId(
                        (state.0 as i64 + delta * plan.state_weights[*proc] as i64) as u64,
                    );
                    if !scan.is_legit(succ) {
                        let succ_key = if QUOTIENT {
                            keyed += 1;
                            plan.least_rotation_with(succ, &digits[base..base + k], *proc, t)
                        } else {
                            succ
                        };
                        next = Some((succ_key, succ, *proc, t));
                        break;
                    }
                } else {
                    *proc += 1;
                    *tidx = 0;
                }
            }
            match next {
                None => {
                    color[key.index()] = BLACK;
                    frames.pop();
                    digits.truncate(base);
                    locals.truncate(base);
                }
                Some((succ_key, succ, wi, t)) => match color[succ_key.index()] {
                    WHITE => {
                        color[succ_key.index()] = GRAY;
                        // Child frame = parent's digits/locals with the
                        // write at `wi` patched in.
                        let delta = t as i32 - digits[base + wi] as i32;
                        digits.extend_from_within(base..base + k);
                        locals.extend_from_within(base..base + k);
                        let child = base + k;
                        digits[child + wi] = t;
                        for idx in 0..w {
                            let j = plan.writers[wi * w + idx];
                            let lj = &mut locals[child + j];
                            *lj = LocalStateId(
                                (lj.0 as i32 + delta * plan.weights[idx] as i32) as u32,
                            );
                        }
                        frames.push((succ_key, succ, 0, 0));
                        pushes += 1;
                        max_depth = max_depth.max(frames.len() as u64);
                    }
                    GRAY => {
                        // Back edge: the cycle is the stack from the gray
                        // key upward.
                        let start = frames
                            .iter()
                            .position(|f| f.0 == succ_key)
                            .expect("gray key must be on the stack");
                        flush(steps, polls, max_depth, pushes, keyed);
                        return Ok(Some(frames[start..].iter().map(|f| f.0).collect()));
                    }
                    _ => {}
                },
            }
        }
    }
    flush(steps, polls, max_depth, pushes, keyed);
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use selfstab_protocol::{Domain, Locality, Protocol};

    fn agreement(actions: &[&str]) -> Protocol {
        Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .actions(actions.iter().copied())
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap()
    }

    /// `(len, first)` of the plain reference's full deadlock list.
    fn reference_deadlocks(ring: &RingInstance) -> DeadlockSummary {
        DeadlockSummary::of(&check::illegitimate_deadlocks(ring))
    }

    fn assert_scan_matches_naive(ring: &RingInstance, threads: usize) {
        let scan = fused_scan(ring, &EngineConfig::with_threads(threads));
        let naive_legit = ring.space().ids().filter(|&s| ring.is_legit(s)).count() as u64;
        assert_eq!(scan.legit_count, naive_legit, "legit count (t={threads})");
        assert_eq!(
            scan.illegitimate_deadlocks,
            reference_deadlocks(ring),
            "deadlocks (t={threads})"
        );
        assert_eq!(
            scan.first_closure_violation,
            check::closure_violations(ring).into_iter().next(),
            "closure witness (t={threads})"
        );
        for s in ring.space().ids() {
            assert_eq!(scan.is_legit(s), ring.is_legit(s), "bitmap at {s}");
        }
    }

    #[test]
    fn fused_matches_naive_sweeps() {
        let protocols = [
            agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]),
            agreement(&[
                "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
                "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
            ]),
        ];
        for p in &protocols {
            for k in 1..=6 {
                let ring = RingInstance::symmetric(p, k).unwrap();
                assert_scan_matches_naive(&ring, 1);
                assert_scan_matches_naive(&ring, 4);
            }
        }
    }

    #[test]
    fn deadlock_summary_merges_across_chunks() {
        // The only illegitimate deadlock is all-ones, the last state: at
        // K=13 (two 4096-state chunks) chunk 0 finds none, so the merged
        // `first` must come from chunk 1.
        let p = Protocol::builder("tail", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 0 && x[r] == 1 -> x[r] := 0")
            .unwrap()
            .legit("x[r] == 0")
            .unwrap()
            .build()
            .unwrap();
        let ring = RingInstance::symmetric(&p, 13).unwrap();
        let expected = DeadlockSummary {
            count: 1,
            first: Some(GlobalStateId(8191)),
        };
        assert_eq!(reference_deadlocks(&ring), expected);
        for symmetry in [SymmetryMode::Full, SymmetryMode::Reduced] {
            for threads in [1, 2, 8] {
                let cfg = EngineConfig::with_threads(threads).with_symmetry(symmetry);
                assert_eq!(
                    fused_scan(&ring, &cfg).illegitimate_deadlocks,
                    expected,
                    "{symmetry:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn closure_violation_witness_is_sequential_first() {
        let p = Protocol::builder("bad", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 1 -> x[r] := 0")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let ring = RingInstance::symmetric(&p, 5).unwrap();
        let seq = fused_scan(&ring, &EngineConfig::sequential());
        for threads in [2, 3, 8] {
            let par = fused_scan(&ring, &EngineConfig::with_threads(threads));
            assert_eq!(par.first_closure_violation, seq.first_closure_violation);
        }
        assert_eq!(
            seq.first_closure_violation,
            check::closure_violations(&ring).into_iter().next()
        );
    }

    #[test]
    fn bidirectional_windows_scan_correctly() {
        // w=3 > K=2 exercises window wrap-around in the fused path.
        let p = Protocol::builder("bi", Domain::numeric("x", 2), Locality::bidirectional())
            .action("x[r-1] == x[r+1] && x[r] != x[r-1] -> x[r] := x[r-1]")
            .unwrap()
            .legit("x[r] == x[r-1] && x[r] == x[r+1]")
            .unwrap()
            .build()
            .unwrap();
        for k in 2..=5 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            assert_scan_matches_naive(&ring, 1);
            assert_scan_matches_naive(&ring, 3);
        }
    }

    #[test]
    fn single_process_ring_plan_is_degenerate_but_exact() {
        // K=1 drives the `(0..k.saturating_sub(1))` state-weight loop in
        // `ScanPlan::new` to zero iterations and wraps every window slot
        // onto process 0. The plan must come out exact — `state_weights`
        // is `[1]`, the window weights are still the full `d^(w-1-idx)`
        // ladder — not silently empty, or the scan would skip the only
        // window there is.
        let p = Protocol::builder("bi", Domain::numeric("x", 2), Locality::bidirectional())
            .action("x[r-1] == x[r+1] && x[r] != x[r-1] -> x[r] := x[r-1]")
            .unwrap()
            .legit("x[r] == x[r-1] && x[r] == x[r+1]")
            .unwrap()
            .build()
            .unwrap();
        let ring = RingInstance::symmetric(&p, 1).unwrap();
        let plan = ScanPlan::new(&ring);
        assert_eq!(plan.state_weights, vec![1]);
        assert_eq!(plan.weights, vec![4, 2, 1]);
        assert_eq!(
            plan.positions,
            vec![0, 0, 0],
            "all three window slots alias process 0"
        );
        // The aliased local id of state x_0 = v is v*(4+2+1).
        for v in 0..2u8 {
            let digits = vec![v];
            assert_eq!(plan.local_id(&digits, 0).0, v as u32 * 7);
        }
        assert_scan_matches_naive(&ring, 1);
        assert_scan_matches_naive(&ring, 4);
        // With x[r-1] and x[r+1] aliasing x[r], both states are legit and
        // no guard can fire: a correct degenerate scan reports exactly
        // that instead of an empty sweep.
        let scan = fused_scan(&ring, &EngineConfig::sequential());
        assert_eq!(scan.legit_count, 2);
        assert!(scan.illegitimate_deadlocks.is_empty());
    }

    #[test]
    fn cancelled_token_aborts_scan_and_search() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let ring = RingInstance::symmetric(&p, 6).unwrap();
        let fired = CancelToken::new();
        fired.cancel();
        for threads in [1, 3] {
            assert_eq!(
                fused_scan_metered(&ring, &EngineConfig::with_threads(threads), &fired, None).err(),
                Some(Cancelled)
            );
        }
        let scan = fused_scan(&ring, &EngineConfig::sequential());
        assert!(find_livelock_metered(&ring, &scan, &fired, None).is_err());
        // An expired deadline behaves like an explicit cancel.
        let expired = CancelToken::with_deadline(Instant::now());
        assert!(expired.is_cancelled());
        assert!(fused_scan_metered(&ring, &EngineConfig::sequential(), &expired, None).is_err());
    }

    #[test]
    fn linked_tokens_fire_with_their_parent() {
        let parent = Arc::new(CancelToken::new());
        let child = CancelToken::linked(parent.clone());
        let sibling =
            CancelToken::linked_with_deadline(parent.clone(), Instant::now() + ONE_MINUTE);
        assert!(!child.is_cancelled());
        assert!(!sibling.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(sibling.is_cancelled());

        // Cancelling a child never propagates up to the parent.
        let parent = Arc::new(CancelToken::new());
        let child = CancelToken::linked(parent.clone());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());

        // A child's own deadline fires without touching the parent.
        let parent = Arc::new(CancelToken::new());
        let child = CancelToken::linked_with_deadline(parent.clone(), Instant::now());
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    const ONE_MINUTE: std::time::Duration = std::time::Duration::from_secs(60);

    #[test]
    fn unfired_token_leaves_results_identical() {
        let p = agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]);
        let ring = RingInstance::symmetric(&p, 5).unwrap();
        let token = CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(60));
        let bounded = fused_scan_metered(&ring, &EngineConfig::sequential(), &token, None).unwrap();
        let plain = fused_scan(&ring, &EngineConfig::sequential());
        assert_eq!(bounded.legit_count, plain.legit_count);
        assert_eq!(bounded.illegitimate_deadlocks, plain.illegitimate_deadlocks);
        assert_eq!(plain.illegitimate_deadlocks, reference_deadlocks(&ring));
        assert_eq!(
            find_livelock_metered(&ring, &bounded, &token, None).unwrap(),
            find_livelock_with(&ring, &plain)
        );
    }

    #[test]
    fn metered_counters_are_thread_count_invariant() {
        // The deterministic counter set must be byte-identical for every
        // engine thread count; `closure_checks` (per-chunk short-circuit)
        // is the one scheduling-dependent tally and is excluded from the
        // deterministic JSON by construction.
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let ring = RingInstance::symmetric(&p, 6).unwrap();
        let token = CancelToken::new();

        let run = |threads: usize| {
            let counters = EngineCounters::new();
            let scan = fused_scan_metered(
                &ring,
                &EngineConfig::with_threads(threads),
                &token,
                Some(&counters),
            )
            .unwrap();
            let livelock = find_livelock_metered(&ring, &scan, &token, Some(&counters)).unwrap();
            (counters.snapshot(), scan, livelock)
        };

        let (seq, scan, livelock) = run(1);
        assert_eq!(seq.states_visited, ring.space().len());
        assert_eq!(seq.legit_states, scan.legit_count);
        assert_eq!(seq.deadlocks_found, scan.illegitimate_deadlocks.count);
        assert_eq!(scan.illegitimate_deadlocks, reference_deadlocks(&ring));
        assert!(livelock.is_some(), "this protocol livelocks at K=6");
        assert!(seq.dfs_steps > 0);
        assert!(seq.dfs_max_depth > 0);
        assert!(seq.cancel_polls > 0);

        for threads in [2, 4] {
            let (par, _, _) = run(threads);
            assert_eq!(
                par.deterministic_json(),
                seq.deterministic_json(),
                "threads={threads}"
            );
        }

        // Metered with `None` changes no result.
        let plain = fused_scan(&ring, &EngineConfig::sequential());
        assert_eq!(plain.legit_count, scan.legit_count);
    }

    /// Full-vs-reduced byte identity on one instance: every public field
    /// of the scan, the whole bitmap, and the livelock witness.
    fn assert_reduced_matches_full(ring: &RingInstance, ctx: &str) {
        let full_cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Full);
        let red_cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced);
        let full = fused_scan(ring, &full_cfg);
        let red = fused_scan(ring, &red_cfg);
        assert_eq!(red.legit_count, full.legit_count, "{ctx}: legit_count");
        assert_eq!(
            red.illegitimate_deadlocks, full.illegitimate_deadlocks,
            "{ctx}: deadlock summary"
        );
        assert_eq!(
            full.illegitimate_deadlocks,
            reference_deadlocks(ring),
            "{ctx}: deadlocks vs reference"
        );
        assert_eq!(
            red.first_closure_violation, full.first_closure_violation,
            "{ctx}: closure witness"
        );
        for s in ring.space().ids() {
            assert_eq!(red.is_legit(s), full.is_legit(s), "{ctx}: bitmap at {s}");
        }
        assert_eq!(
            find_livelock_with(ring, &red),
            find_livelock_with(ring, &full),
            "{ctx}: livelock witness"
        );
    }

    #[test]
    fn reduced_scan_is_byte_identical_to_full() {
        let protocols = [
            // Converges: exercises the None-livelock fast path.
            agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]),
            // Livelocks at even K: exercises witness extraction.
            agreement(&[
                "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
                "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
            ]),
        ];
        for (pi, p) in protocols.iter().enumerate() {
            for k in 1..=8 {
                let ring = RingInstance::symmetric(p, k).unwrap();
                assert_reduced_matches_full(&ring, &format!("protocol {pi} K={k}"));
            }
        }
    }

    #[test]
    fn reduced_handles_bidirectional_windows() {
        let p = Protocol::builder("bi", Domain::numeric("x", 2), Locality::bidirectional())
            .action("x[r-1] == x[r+1] && x[r] != x[r-1] -> x[r] := x[r-1]")
            .unwrap()
            .legit("x[r] == x[r-1] && x[r] == x[r+1]")
            .unwrap()
            .build()
            .unwrap();
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            assert_reduced_matches_full(&ring, &format!("bidirectional K={k}"));
        }
    }

    #[test]
    fn reduced_closure_witness_is_the_dense_first() {
        // A protocol whose I(K) is not closed: the reduced scan must report
        // the same (state, process, target) as the dense sweep.
        let p = Protocol::builder("bad", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 1 -> x[r] := 0")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        for k in 2..=7 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            assert_reduced_matches_full(&ring, &format!("unclosed K={k}"));
        }
    }

    #[test]
    fn auto_mode_crosses_over_and_explicit_modes_pin() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let token = CancelToken::new();
        let orbits = |k: usize, cfg: &EngineConfig| {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let counters = EngineCounters::new();
            fused_scan_metered(&ring, cfg, &token, Some(&counters)).unwrap();
            counters.snapshot().orbits_visited
        };
        // Below the crossover Auto stays dense; explicit Reduced engages.
        let auto = EngineConfig::sequential();
        assert_eq!(orbits(6, &auto), 0, "64 states stay on the dense path");
        assert!(orbits(6, &auto.with_symmetry(SymmetryMode::Reduced)) > 0);
        // Past the crossover (2^15 = 32768 states) Auto flips to reduced —
        // sequential only — and explicit Full pins the dense path.
        assert!(orbits(15, &auto) > 0, "auto crossover at 32768 states");
        assert_eq!(orbits(15, &EngineConfig::with_threads(4)), 0);
        assert_eq!(orbits(15, &auto.with_symmetry(SymmetryMode::Full)), 0);
        // The auto-reduced result still matches the dense one exactly.
        let ring = RingInstance::symmetric(&p, 15).unwrap();
        assert_reduced_matches_full(&ring, "K=15 crossover");
    }

    #[test]
    fn reduced_degrades_to_full_on_heterogeneous_rings() {
        let a = agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]);
        let b = agreement(&["x[r-1] == 0 && x[r] == 1 -> x[r] := 0"]);
        let ring = RingInstance::heterogeneous(&[&a, &b, &a, &b], 1 << 20).unwrap();
        assert!(!ring.is_rotation_symmetric());
        let token = CancelToken::new();
        let counters = EngineCounters::new();
        let cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced);
        let red = fused_scan_metered(&ring, &cfg, &token, Some(&counters)).unwrap();
        assert_eq!(
            counters.snapshot().orbits_visited,
            0,
            "no necklace walk on an asymmetric ring"
        );
        let full = fused_scan(
            &ring,
            &EngineConfig::sequential().with_symmetry(SymmetryMode::Full),
        );
        assert_eq!(red.legit_count, full.legit_count);
        assert_eq!(red.illegitimate_deadlocks, full.illegitimate_deadlocks);
        assert_eq!(full.illegitimate_deadlocks, reference_deadlocks(&ring));
    }

    #[test]
    fn reduced_scan_honors_cancellation() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let ring = RingInstance::symmetric(&p, 6).unwrap();
        let fired = CancelToken::new();
        fired.cancel();
        let cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced);
        assert_eq!(
            fused_scan_metered(&ring, &cfg, &fired, None).err(),
            Some(Cancelled)
        );
        let scan = fused_scan(&ring, &cfg);
        assert!(find_livelock_metered(&ring, &scan, &fired, None).is_err());
    }

    #[test]
    fn reduced_counters_are_deterministic_and_orbit_weighted() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        let ring = RingInstance::symmetric(&p, 6).unwrap();
        let token = CancelToken::new();
        let cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced);
        let run = || {
            let counters = EngineCounters::new();
            let scan = fused_scan_metered(&ring, &cfg, &token, Some(&counters)).unwrap();
            find_livelock_metered(&ring, &scan, &token, Some(&counters)).unwrap();
            counters.snapshot()
        };
        let first = run();
        // `states_visited` stays orbit-weighted: it totals d^K exactly.
        assert_eq!(first.states_visited, ring.space().len());
        assert!(first.orbits_visited > 0);
        assert!(first.orbits_visited < ring.space().len());
        assert!(first.canonicalizations > 0, "the quotient walk ran");
        assert!(first.frontier_pushes > 0);
        assert_eq!(first.deterministic_json(), run().deterministic_json());
    }

    #[test]
    fn least_rotation_is_the_orbit_minimum() {
        for (d, k) in [(2, 1), (2, 7), (3, 5), (4, 4)] {
            let p = Protocol::builder("ag", Domain::numeric("x", d), Locality::unidirectional())
                .action("x[r-1] != x[r] -> x[r] := x[r-1]")
                .unwrap()
                .legit("x[r] == x[r-1]")
                .unwrap()
                .build()
                .unwrap();
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let sp = ring.space();
            let plan = ScanPlan::new(&ring);
            for id in sp.ids() {
                let digits = sp.decode(id);
                for pos in 0..k {
                    for v in 0..d as Value {
                        let mut succ = digits.clone();
                        succ[pos] = v;
                        let succ = sp.encode(&succ);
                        let mut least = succ;
                        let mut cur = succ;
                        for _ in 1..k {
                            cur = symmetry::rotate_id_left(sp, cur);
                            least = least.min(cur);
                        }
                        assert_eq!(
                            plan.least_rotation_with(succ, &digits, pos, v),
                            least,
                            "d={d} K={k} id={id} x_{pos}:={v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotient_walk_enters_each_orbit_once() {
        // A livelock-free instance, so the quotient walk runs to completion:
        // it must enter every illegitimate orbit exactly once (through
        // whichever member it reaches first) and try each illegitimate
        // successor once. Keying colors by dense state instead would enter
        // orbits many times over and fail the first assertion.
        let p = agreement(&["x[r-1] == 1 && x[r] == 0 -> x[r] := 1"]);
        let token = CancelToken::new();
        let cfg = EngineConfig::sequential().with_symmetry(SymmetryMode::Reduced);
        for k in [6, 9, 12] {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let counters = EngineCounters::new();
            let scan = fused_scan_metered(&ring, &cfg, &token, Some(&counters)).unwrap();
            let verdict = find_livelock_metered(&ring, &scan, &token, Some(&counters)).unwrap();
            assert_eq!(verdict, None, "K={k}");
            let mut illegitimate = 0u64;
            symmetry::for_each_necklace(2, k, &mut |digits, _| {
                illegitimate += u64::from(!ring.is_legit(ring.space().encode(digits)));
                true
            });
            let c = counters.snapshot();
            assert_eq!(
                c.frontier_pushes, illegitimate,
                "K={k}: one entry per orbit"
            );
            assert_eq!(
                c.dfs_steps,
                c.frontier_pushes + c.canonicalizations,
                "K={k}: one step per successor tried plus one per frame popped"
            );
        }
    }

    #[test]
    fn livelock_with_bitmap_matches_plain() {
        let p = agreement(&[
            "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
            "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
        ]);
        for k in 2..=6 {
            let ring = RingInstance::symmetric(&p, k).unwrap();
            let scan = fused_scan(&ring, &EngineConfig::sequential());
            let a = find_livelock_with(&ring, &scan);
            let b = check::find_livelock(&ring);
            assert_eq!(a, b, "K={k}");
        }
    }
}
