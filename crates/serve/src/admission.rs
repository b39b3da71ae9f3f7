//! Admission control: bounded per-kind queues, load shedding, and the
//! memory watchdog.
//!
//! Overload protection exists because the three job kinds have wildly
//! different costs: a `verify` is one bounded scan, a `sweep` multiplies
//! that across a K range, and `synthesize` explores a combinatorial
//! candidate lattice (Faghih et al.'s complexity results make that
//! blow-up structural, not incidental). Unbounded acceptance lets a burst
//! of synthesis submissions wedge the pool while cheap verify traffic
//! starves behind them. So admission is bounded **per kind**: each kind
//! has its own in-flight cap (accepted but not yet terminal), and a
//! submit past the cap is shed with `429 Too Many Requests` +
//! `Retry-After` instead of queued.
//!
//! The **memory watchdog** extends the same idea to a resource the queue
//! caps cannot see: resident set size. When an `--max-rss-mb` budget is
//! configured, a sampler thread reads `/proc/self/statm` and maps RSS
//! pressure onto a shed level that degrades *gracefully* — the expensive,
//! retryable kinds go first:
//!
//! | level | RSS ≥ | sheds |
//! |---|---|---|
//! | 1 | 85% | `synthesize` |
//! | 2 | 92% | + `sweep` |
//! | 3 | 97% | + `verify` (everything) |
//!
//! Shedding never touches accepted jobs: admission is the only gate, so
//! "no accepted job is ever lost" stays true under any shed level.
//! `/v1/readyz` reports the current level and per-kind occupancy so load
//! balancers can route away *before* the 429s start.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use selfstab_telemetry::Registry;
use serde_json::{json, Value};

use crate::jobs::JobKind;

/// RSS fractions at which the watchdog raises the shed level.
const SHED_THRESHOLDS: [f64; 3] = [0.85, 0.92, 0.97];

/// How often the watchdog samples RSS.
const WATCHDOG_INTERVAL: Duration = Duration::from_millis(250);

/// Per-kind in-flight caps (accepted, not yet terminal).
#[derive(Clone, Copy, Debug)]
pub struct PendingCaps {
    /// Max in-flight `verify` jobs.
    pub verify: usize,
    /// Max in-flight `sweep` jobs.
    pub sweep: usize,
    /// Max in-flight `synthesize` jobs.
    pub synthesize: usize,
}

impl Default for PendingCaps {
    fn default() -> Self {
        // The ratios mirror the cost ratios: one synthesis candidate
        // sweep is worth many verifies.
        PendingCaps {
            verify: 256,
            sweep: 64,
            synthesize: 16,
        }
    }
}

impl PendingCaps {
    /// Caps scaled from a single base: `verify = base`, `sweep = base/4`,
    /// `synthesize = base/16` (each at least 1) — the CLI's
    /// `--max-pending` knob.
    pub fn from_base(base: usize) -> Self {
        PendingCaps {
            verify: base.max(1),
            sweep: (base / 4).max(1),
            synthesize: (base / 16).max(1),
        }
    }

    fn cap(&self, kind: JobKind) -> usize {
        match kind {
            JobKind::Verify => self.verify,
            JobKind::Sweep => self.sweep,
            JobKind::Synthesize => self.synthesize,
        }
    }
}

/// Why a submit was shed (the 429's machine-readable `code`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shed {
    /// The kind's in-flight queue is at its cap.
    QueueFull,
    /// The memory watchdog is degrading this kind.
    MemoryPressure,
}

impl Shed {
    /// The structured error code for the 429 body.
    pub fn code(self) -> &'static str {
        match self {
            Shed::QueueFull => "queue_full",
            Shed::MemoryPressure => "memory_pressure",
        }
    }

    /// The human-readable reason.
    pub fn reason(self, kind: JobKind) -> String {
        match self {
            Shed::QueueFull => format!(
                "admission queue for `{}` jobs is full; retry shortly",
                kind.name()
            ),
            Shed::MemoryPressure => format!(
                "server is under memory pressure and is shedding `{}` jobs; retry shortly",
                kind.name()
            ),
        }
    }
}

/// The admission gate: per-kind occupancy gauges, caps, and the shed
/// level the watchdog (or a test) drives.
#[derive(Debug)]
pub struct Admission {
    caps: PendingCaps,
    pending: [AtomicU64; 3],
    /// 0 = accept everything … 3 = shed everything; see the module table.
    shed_level: Arc<AtomicU8>,
    shed_total: Arc<AtomicU64>,
}

impl Admission {
    /// A gate with the given caps, its shed counter registered as
    /// `serve/shed`.
    pub fn new(caps: PendingCaps, registry: &Registry) -> Self {
        Admission {
            caps,
            pending: Default::default(),
            shed_level: Arc::new(AtomicU8::new(0)),
            shed_total: registry.counter("serve/shed"),
        }
    }

    /// Tries to admit one `kind` job: increments the kind's gauge and
    /// returns `Ok(())`, or returns the shed reason without admitting.
    /// Every `Ok` must be balanced by exactly one [`Admission::release`]
    /// when the job reaches a terminal state.
    pub fn admit(&self, kind: JobKind) -> Result<(), Shed> {
        if self.sheds(kind) {
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            return Err(Shed::MemoryPressure);
        }
        let gauge = &self.pending[kind.index()];
        let cap = self.caps.cap(kind) as u64;
        // CAS loop so racing submits cannot both take the last slot.
        let admitted = gauge
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            Ok(())
        } else {
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            Err(Shed::QueueFull)
        }
    }

    /// Admits without cap or shed checks — boot replay of jobs that were
    /// accepted before a crash ("no accepted job is ever lost" outranks
    /// the caps). Still balanced by [`Admission::release`] at the job's
    /// terminal state.
    pub fn admit_replayed(&self, kind: JobKind) {
        self.pending[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Releases one admitted job (terminal state reached).
    pub fn release(&self, kind: JobKind) {
        self.pending[kind.index()].fetch_sub(1, Ordering::Relaxed);
    }

    /// In-flight jobs of `kind` (accepted, not yet terminal).
    pub fn pending(&self, kind: JobKind) -> u64 {
        self.pending[kind.index()].load(Ordering::Relaxed)
    }

    /// The current shed level (0 = none).
    pub fn shed_level(&self) -> u8 {
        self.shed_level.load(Ordering::SeqCst)
    }

    /// Whether `kind` is currently shed by the watchdog level. Level 1
    /// sheds `synthesize`, 2 adds `sweep`, 3 adds `verify` — cheapest
    /// traffic survives longest.
    fn sheds(&self, kind: JobKind) -> bool {
        let level = self.shed_level();
        level >= 3 - kind.index() as u8
    }

    /// The handle the watchdog thread writes through.
    pub fn shed_handle(&self) -> Arc<AtomicU8> {
        Arc::clone(&self.shed_level)
    }

    /// Forces a shed level — the ops/test override for drills (the
    /// watchdog will overwrite it at its next sample if one is running).
    pub fn force_shed_level(&self, level: u8) {
        self.shed_level.store(level.min(3), Ordering::SeqCst);
    }

    /// The kinds currently shed, for `/v1/readyz`.
    pub fn shed_kinds(&self) -> Vec<&'static str> {
        [JobKind::Synthesize, JobKind::Sweep, JobKind::Verify]
            .into_iter()
            .filter(|k| self.sheds(*k))
            .map(JobKind::name)
            .collect()
    }

    /// `true` when any kind is saturated (shed by level or at cap) — the
    /// `/v1/readyz` "saturated" predicate.
    pub fn saturated(&self) -> bool {
        self.shed_level() > 0
            || [JobKind::Verify, JobKind::Sweep, JobKind::Synthesize]
                .into_iter()
                .any(|k| self.pending(k) >= self.caps.cap(k) as u64)
    }

    /// The occupancy section of `/v1/readyz`.
    pub fn pending_json(&self) -> Value {
        json!({
            "verify": self.pending(JobKind::Verify),
            "sweep": self.pending(JobKind::Sweep),
            "synthesize": self.pending(JobKind::Synthesize),
        })
    }
}

/// Resident set size in bytes, from `/proc/self/statm` (Linux). `None`
/// where the proc filesystem is unavailable — the watchdog is then inert.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Maps an RSS sample onto a shed level under `limit` bytes.
fn level_for(rss: u64, limit: u64) -> u8 {
    let frac = rss as f64 / limit as f64;
    SHED_THRESHOLDS.iter().filter(|&&t| frac >= t).count() as u8
}

/// Spawns the RSS sampler: every `WATCHDOG_INTERVAL` (250 ms) it
/// re-derives the shed level from `/proc/self/statm` against
/// `limit_bytes` and stores it through `level`. The thread retires when the server state (and with it
/// the level cell) is dropped.
pub fn spawn_watchdog(level: &Arc<AtomicU8>, limit_bytes: u64, registry: &Registry) {
    let weak: Weak<AtomicU8> = Arc::downgrade(level);
    let rss_gauge = registry.gauge("serve/rss_bytes");
    std::thread::spawn(move || loop {
        let Some(level) = weak.upgrade() else {
            return; // the server is gone; nobody reads the level any more
        };
        if let Some(rss) = rss_bytes() {
            rss_gauge.store(rss, Ordering::Relaxed);
            level.store(level_for(rss, limit_bytes), Ordering::SeqCst);
        }
        drop(level);
        std::thread::sleep(WATCHDOG_INTERVAL);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(caps: PendingCaps) -> Admission {
        Admission::new(caps, &Registry::new())
    }

    #[test]
    fn caps_bound_each_kind_independently() {
        let a = gate(PendingCaps {
            verify: 2,
            sweep: 1,
            synthesize: 1,
        });
        assert!(a.admit(JobKind::Verify).is_ok());
        assert!(a.admit(JobKind::Verify).is_ok());
        assert_eq!(a.admit(JobKind::Verify), Err(Shed::QueueFull));
        // A full verify queue does not touch sweep admission.
        assert!(a.admit(JobKind::Sweep).is_ok());
        assert_eq!(a.admit(JobKind::Sweep), Err(Shed::QueueFull));
        // Release reopens exactly one slot.
        a.release(JobKind::Verify);
        assert!(a.admit(JobKind::Verify).is_ok());
        assert_eq!(a.pending(JobKind::Verify), 2);
    }

    #[test]
    fn shed_levels_degrade_in_cost_order() {
        let a = gate(PendingCaps::default());
        assert!(a.shed_kinds().is_empty());
        a.force_shed_level(1);
        assert_eq!(a.shed_kinds(), vec!["synthesize"]);
        assert_eq!(a.admit(JobKind::Synthesize), Err(Shed::MemoryPressure));
        assert!(a.admit(JobKind::Sweep).is_ok());
        assert!(a.admit(JobKind::Verify).is_ok());
        a.force_shed_level(2);
        assert_eq!(a.shed_kinds(), vec!["synthesize", "sweep"]);
        assert_eq!(a.admit(JobKind::Sweep), Err(Shed::MemoryPressure));
        assert!(a.admit(JobKind::Verify).is_ok());
        a.force_shed_level(3);
        assert_eq!(a.admit(JobKind::Verify), Err(Shed::MemoryPressure));
        assert!(a.saturated());
        a.force_shed_level(0);
        assert!(a.admit(JobKind::Verify).is_ok());
    }

    #[test]
    fn rss_levels_track_the_thresholds() {
        let limit = 1000;
        assert_eq!(level_for(0, limit), 0);
        assert_eq!(level_for(849, limit), 0);
        assert_eq!(level_for(850, limit), 1);
        assert_eq!(level_for(920, limit), 2);
        assert_eq!(level_for(970, limit), 3);
        assert_eq!(level_for(5000, limit), 3);
    }

    #[test]
    fn from_base_scales_and_floors() {
        let caps = PendingCaps::from_base(64);
        assert_eq!((caps.verify, caps.sweep, caps.synthesize), (64, 16, 4));
        let tiny = PendingCaps::from_base(1);
        assert_eq!((tiny.verify, tiny.sweep, tiny.synthesize), (1, 1, 1));
    }
}
