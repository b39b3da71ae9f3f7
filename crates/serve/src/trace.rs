//! Request-scoped tracing: one trace id per HTTP request, one span lane
//! per job, rendered as Chrome trace-event documents.
//!
//! Every request entering [`crate::server::ServeState::handle`] is
//! minted a process-unique trace id and answers with it in an
//! `X-Selfstab-Trace-Id` header. Requests that create a job attach a
//! [`JobTrace`] to the [`crate::jobs::JobEntry`]; the submit path,
//! admission gate, cache lookup, queue wait, and the engine's `Phase`
//! spans all record into it. `GET /v1/jobs/:id/trace` renders one job's
//! lane; the server-wide `--trace` file interleaves every job's lane in
//! a single document. A cache hit creates no job and records no span:
//! the id it answers with is the computing job's, so its trace is that
//! job's lane.
//!
//! Nesting is by containment, the Chrome trace-event model: all of a
//! job's spans share `pid` 1 and `tid` = job id, timestamps are measured
//! from one server-wide origin instant, and the *request root* span
//! (named `request`) runs from ingress to the job's terminal state, so
//! every child span the job records sits inside it on the timeline.
//! Perfetto and `chrome://tracing` draw exactly that hierarchy. The lane
//! is a [`TraceCollector`] whose window is the root, so it holds that
//! invariant by construction: the collector clips every span into its
//! window when it is recorded — a request coalescing onto the job may
//! have started timing before the job's own request opened, or record
//! after the job finished.
//!
//! None of this perturbs result documents: trace data is out-of-band by
//! construction (`/v1/jobs/:id/result` bytes never mention it), keeping
//! the determinism contract intact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use selfstab_telemetry::TraceCollector;
use serde_json::{json, Value};

/// Mints process-unique trace ids: a per-boot seed (wall clock ⊕ pid)
/// plus an atomic sequence number, rendered `SEED-SEQ` in hex. Two
/// requests can never share an id within a boot (the sequence), and two
/// boots practically never collide (the seed).
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl Default for TraceIdGen {
    fn default() -> Self {
        TraceIdGen::new()
    }
}

impl TraceIdGen {
    /// A generator seeded from the wall clock and pid.
    pub fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        TraceIdGen {
            seed: nanos ^ (u64::from(std::process::id()) << 32),
            next: AtomicU64::new(0),
        }
    }

    /// The next trace id.
    pub fn mint(&self) -> String {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        format!("{:016x}-{:08x}", self.seed, seq)
    }
}

/// One job's trace: the originating request's trace id and the job's
/// lane, a [`TraceCollector`] whose window is the request root (see the
/// module docs). Spans record on `tid` = `job`; the trace id is stamped
/// in when the lane renders, so recording a span never allocates for it.
#[derive(Debug)]
pub struct JobTrace {
    /// The originating request's trace id.
    pub trace_id: String,
    /// The job id, which is also the lane's `tid`.
    pub job: u64,
    /// The job's spans, on the server-wide origin.
    pub lane: TraceCollector,
}

impl JobTrace {
    /// The job's trace events: the `request` root spanning the lane's
    /// window, then every recorded span, each carrying the trace id in
    /// its args. An unfinished job's root ends at "now".
    pub fn events(&self, kind: &str) -> Vec<Value> {
        let (start, end) = self.lane.window();
        let root = json!({
            "name": "request",
            "cat": "request",
            "ph": "X",
            "pid": 1,
            "tid": self.job,
            "ts": start,
            "dur": end - start,
            "args": {"job": self.job, "kind": kind},
        });
        let mut events = self.lane.events();
        events.insert(0, root);
        for event in &mut events {
            let Value::Object(event) = event else {
                continue;
            };
            let args = event
                .entry("args".to_owned())
                .or_insert_with(|| Value::Object(BTreeMap::new()));
            if let Value::Object(args) = args {
                args.insert("trace_id".to_owned(), Value::from(self.trace_id.as_str()));
            }
        }
        events
    }

    /// Records a span named `name` on the job's lane, from `from` to `to`.
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        from: Instant,
        to: Instant,
        args: Value,
    ) {
        let ts_us = self.lane.micros_at(from);
        let dur_us = self.lane.micros_at(to).saturating_sub(ts_us);
        self.lane.complete(name, cat, self.job, ts_us, dur_us, args);
    }

    /// Records a span named `name` on the job's lane, from `from` to now.
    pub fn since(&self, name: &'static str, cat: &'static str, from: Instant, args: Value) {
        self.span(name, cat, from, Instant::now(), args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_under_contention() {
        let generator = TraceIdGen::new();
        let mut ids: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..100).map(|_| generator.mint()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total, "all 800 minted ids are distinct");
    }
}
