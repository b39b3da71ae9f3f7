//! Deterministic fault injection for the campaign runner.
//!
//! The paper's subject is recovery from transient faults; this module
//! turns that lens on the toolchain itself. A [`ChaosPlan`] is a seeded,
//! reproducible adversary that the runner consults at well-defined points:
//!
//! * **worker panics** — [`ChaosPlan::should_panic`] fires inside
//!   [`run_attempt`]'s panic net, exercising panic isolation and the
//!   retry-with-backoff path;
//! * **forced cancellation** — [`ChaosPlan::should_cancel`] fires the
//!   campaign's interrupt token, exercising the same wind-down path as a
//!   SIGINT (journal sync, partial report, resumable exit);
//! * **torn writes** — [`ChaosPlan::truncate_journal`] chops the journal
//!   at a seeded byte offset *between* runs, exercising the framed
//!   journal's truncate-at-first-corruption replay;
//! * **torn responses** — [`ChaosPlan::should_tear_response`] makes the
//!   service write half of a response and slam the connection, exercising
//!   client retries while the job behind the response stays resolvable.
//!
//! The service consults the same plan: [`ChaosPlan::should_panic`] keyed
//! by the job's cache key fires inside the same [`run_attempt`] net, and
//! both runners space their retries with the same [`backoff`].
//!
//! All decisions are pure functions of `(seed, spec, k, attempt)` hashed
//! with FNV-1a, plus bounded budgets derived from the seed — so a chaos
//! run is replayable from its seed and every plan injects only finitely
//! many faults. The invariant the property suite pins down: **interrupt
//! anywhere, resume, and the final report is byte-identical to the
//! fault-free run** (see `tests/chaos.rs`).
//!
//! The plan is surfaced three ways: the hidden `selfstab sweep --chaos
//! <seed>` and `selfstab serve --chaos <seed>` flags (both build
//! [`ChaosPlan::from_seed`]) and this test API.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Mutable injection budgets, shared by every worker's view of the plan.
#[derive(Debug, Default)]
struct ChaosState {
    panics_left: AtomicU64,
    cancels_left: AtomicU64,
    tears_left: AtomicU64,
}

/// A seeded, budgeted fault-injection plan (see the module docs).
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    seed: u64,
    /// Fire on every attempt of every job, ignoring hash and budget —
    /// the "always-panicking job" mode of the acceptance tests.
    always_panic: bool,
    state: Arc<ChaosState>,
}

impl ChaosPlan {
    /// A plan whose budgets are derived from `seed`: up to 4 injected
    /// panics, up to 1 forced cancellation and up to 3 torn responses per
    /// run.
    pub fn from_seed(seed: u64) -> Self {
        let panics = fnv(&[seed, 0x70616e6963]) % 5; // 0..=4
        let cancels = fnv(&[seed, 0x63616e63656c]) % 2; // 0..=1
        let tears = fnv(&[seed, 0x7465_6172]) % 4; // 0..=3
        ChaosPlan::with_budgets(seed, panics, cancels, tears)
    }

    /// A plan with explicit budgets (test API).
    pub fn with_budgets(seed: u64, panics: u64, cancels: u64, tears: u64) -> Self {
        ChaosPlan {
            seed,
            always_panic: false,
            state: Arc::new(ChaosState {
                panics_left: AtomicU64::new(panics),
                cancels_left: AtomicU64::new(cancels),
                tears_left: AtomicU64::new(tears),
            }),
        }
    }

    /// A plan that panics every attempt of every job and never cancels —
    /// the adversary that pins down "exhausted retries degrade to a failed
    /// outcome instead of a pool abort".
    pub fn always_panic() -> Self {
        ChaosPlan {
            seed: 0,
            always_panic: true,
            state: Arc::new(ChaosState::default()),
        }
    }

    /// Should this attempt of `(spec, k)` be killed by an injected panic?
    /// Decided by seed hash (roughly one attempt in three), gated by the
    /// plan's remaining panic budget.
    pub fn should_panic(&self, spec: &str, k: usize, attempt: u32) -> bool {
        if self.always_panic {
            return true;
        }
        let h = fnv(&[
            self.seed,
            0x0070_616e_6963,
            fnv1a(spec.bytes()),
            k as u64,
            attempt as u64,
        ]);
        h.is_multiple_of(3) && take(&self.state.panics_left)
    }

    /// Should reaching `(spec, k)` force-cancel the whole sweep (the chaos
    /// analogue of a SIGINT landing mid-run)? Decided by seed hash
    /// (roughly one job in four), gated by the cancel budget.
    pub fn should_cancel(&self, spec: &str, k: usize) -> bool {
        let h = fnv(&[self.seed, 0x6361_6e63_656c, fnv1a(spec.bytes()), k as u64]);
        h.is_multiple_of(4) && take(&self.state.cancels_left)
    }

    /// Should the service tear its `index`-th response mid-write? Decided
    /// by seed hash (roughly one response in three), gated by the tear
    /// budget.
    pub fn should_tear_response(&self, index: u64) -> bool {
        let h = fnv(&[self.seed, 0x746f_726e, index]);
        h.is_multiple_of(3) && take(&self.state.tears_left)
    }

    /// Torn-write injection: truncates the file at a seeded byte offset
    /// strictly inside its current length (a no-op on an empty file).
    /// Returns the new length.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from metadata/truncate.
    pub fn truncate_journal(path: &Path, seed: u64) -> std::io::Result<u64> {
        let len = std::fs::metadata(path)?.len();
        if len == 0 {
            return Ok(0);
        }
        let new_len = fnv(&[seed, 0x746f_726e, len]) % len;
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(new_len)?;
        Ok(new_len)
    }
}

/// The panic net around one attempt of a job, shared by the campaign
/// runner and the service: fires `chaos`'s injected panic for
/// `(key, k, attempt)`, if any, then runs `f`. Nothing `f` does (an
/// injection, an engine bug, a poisoned initializer) unwinds out; a
/// panic comes back as its rendered payload.
///
/// # Errors
///
/// The panic message when the attempt panicked.
pub fn run_attempt<T>(
    chaos: Option<&ChaosPlan>,
    key: &str,
    k: usize,
    attempt: u32,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if chaos.is_some_and(|c| c.should_panic(key, k, attempt)) {
            panic!("chaos: injected worker panic (attempt {attempt})");
        }
        f()
    }))
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

/// The delay before retry `attempt + 1`: `base * 2^min(attempt, 6)`. A
/// pure function of the attempt index — no jitter, no clock in any
/// recorded artifact — and capped, so a large retry budget cannot grow
/// it into an overflow or an hours-long sleep.
pub fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1 << attempt.min(6))
}

/// Consumes one unit of `budget` if any remains.
fn take(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// FNV-1a-64 over a byte stream (the repo's standard no-dependency hash).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a-64 over a word sequence's little-endian bytes.
fn fnv(words: &[u64]) -> u64 {
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("selfstab-chaos-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_budgeted() {
        // Two plans with the same seed agree on every decision they have
        // budget for, and the budget bounds total injections.
        let jobs: Vec<(String, usize)> = (0..40).map(|i| (format!("s{}.stab", i % 7), i)).collect();
        let a = ChaosPlan::from_seed(42);
        let b = ChaosPlan::from_seed(42);
        let fired_a: Vec<bool> = jobs.iter().map(|(s, k)| a.should_panic(s, *k, 0)).collect();
        let fired_b: Vec<bool> = jobs.iter().map(|(s, k)| b.should_panic(s, *k, 0)).collect();
        assert_eq!(fired_a, fired_b);
        assert!(fired_a.iter().filter(|&&f| f).count() <= 4);
        let cancels = jobs.iter().filter(|(s, k)| a.should_cancel(s, *k)).count();
        assert!(cancels <= 1);
        let tears = |p: &ChaosPlan| (0..100).filter(|&i| p.should_tear_response(i)).count();
        let (ta, tb) = (tears(&a), tears(&b));
        assert!(ta == tb && ta <= 3, "{ta} vs {tb}");
    }

    #[test]
    fn budgets_are_shared_across_clones() {
        // Clones share state (as the workers of one run do): the budget is
        // global to the plan, not per-clone.
        let plan = ChaosPlan::with_budgets(7, 1, 0, 0);
        let clone = plan.clone();
        let mut fired = 0;
        for k in 0..100 {
            if plan.should_panic("x.stab", k, 0) || clone.should_panic("y.stab", k, 0) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert!(!plan.should_tear_response(0), "no tear budget");
        let plan = ChaosPlan::with_budgets(5, 0, 0, 2);
        let torn = (0..100).filter(|&i| plan.should_tear_response(i)).count();
        assert_eq!(torn, 2, "an explicit tear budget is spent exactly");
    }

    #[test]
    fn retries_outlast_a_finite_panic_budget() {
        // Every injection spends budget, so some attempt of every job runs.
        let plan = ChaosPlan::with_budgets(11, 4, 0, 0);
        for job in 0..10 {
            assert!((0..16).any(|a| !plan.should_panic(&format!("job-{job}"), 4, a)));
        }
    }

    #[test]
    fn always_panic_ignores_budgets() {
        let plan = ChaosPlan::always_panic();
        for attempt in 0..10 {
            assert!(plan.should_panic("any.stab", 3, attempt));
        }
        assert!(!plan.should_cancel("any.stab", 3));
    }

    #[test]
    fn run_attempt_renders_panics_and_backoff_caps() {
        assert_eq!(run_attempt(None, "a.stab", 3, 0, || 7), Ok(7));
        let always = ChaosPlan::always_panic();
        assert_eq!(
            run_attempt(Some(&always), "a.stab", 3, 2, || 7),
            Err("chaos: injected worker panic (attempt 2)".to_owned())
        );
        let str_panic = run_attempt(None, "a.stab", 3, 0, || -> u8 { panic!("plain") });
        assert_eq!(str_panic, Err("plain".to_owned()));
        let k = 9;
        let string_panic = run_attempt(None, "a.stab", 3, 0, || -> u8 { panic!("k={k}") });
        assert_eq!(string_panic, Err("k=9".to_owned()));

        let base = Duration::from_millis(5);
        let delays: Vec<Duration> = (0..9).map(|a| backoff(base, a)).collect();
        let expected: Vec<Duration> = [1, 2, 4, 8, 16, 32, 64, 64, 64]
            .iter()
            .map(|&m| base * m)
            .collect();
        assert_eq!(delays, expected, "doubles per attempt, capped at 64x");
        assert_eq!(backoff(base, u32::MAX), base * 64);
    }

    #[test]
    fn journal_truncation_is_seeded_and_in_bounds() {
        let path = tmp("truncate.bin");
        std::fs::write(&path, vec![0xAB; 1000]).unwrap();
        let a = ChaosPlan::truncate_journal(&path, 5).unwrap();
        assert!(a < 1000);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), a);
        // Truncating an empty file is a no-op.
        std::fs::write(&path, b"").unwrap();
        assert_eq!(ChaosPlan::truncate_journal(&path, 5).unwrap(), 0);
    }
}
