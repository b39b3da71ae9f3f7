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
//! a single document.
//!
//! Nesting is by containment, the Chrome trace-event model: all of a
//! job's spans share `pid` 1 and `tid` = job id, timestamps are measured
//! from one server-wide origin instant, and the *request root* span
//! (named `request`) runs from ingress to the job's terminal state, so
//! every child span the job records sits inside it on the timeline.
//! Perfetto and `chrome://tracing` draw exactly that hierarchy. The lane
//! holds that invariant by construction: a span is clipped to the root
//! when it is recorded, under the same lock that closes the root — a
//! request coalescing onto the job may have started timing before the
//! job's own request opened, or record after the job finished.
//!
//! None of this perturbs result documents: trace data is out-of-band by
//! construction (`/v1/jobs/:id/result` bytes never mention it), keeping
//! the determinism contract intact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// One recorded span: a Chrome `ph:"X"` complete event relative to the
/// server origin.
#[derive(Clone, Debug)]
struct TraceSpan {
    name: String,
    cat: &'static str,
    ts_us: u64,
    dur_us: u64,
    args: Value,
}

/// The span collection of one job, rooted at its originating request.
///
/// Cheap by design: spans are coarse (admission, cache, queue wait, one
/// per engine phase per K), so the mutex is touched a handful of times
/// per job — never inside the scan loops.
#[derive(Debug)]
pub struct JobTrace {
    trace_id: String,
    origin: Instant,
    start_us: u64,
    lane: Mutex<Lane>,
}

/// The recorded spans and, once [`JobTrace::finish`] ran, the root's end.
#[derive(Debug, Default)]
struct Lane {
    end_us: Option<u64>,
    spans: Vec<TraceSpan>,
}

impl JobTrace {
    /// A trace starting *now*, measured against the server-wide `origin`
    /// so lanes from different requests align on one timeline.
    pub fn new(trace_id: String, origin: Instant) -> Self {
        let start_us = origin.elapsed().as_micros() as u64;
        JobTrace {
            trace_id,
            origin,
            start_us,
            lane: Mutex::default(),
        }
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Microseconds since the server origin — the `ts` clock.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Records one complete span, clipped to the request root (see the
    /// module docs). `args` may be `Value::Null` for none; the trace id is
    /// injected at render time, so every span of the document carries it.
    pub fn span(&self, name: &str, cat: &'static str, ts_us: u64, dur_us: u64, args: Value) {
        let mut lane = self.lane.lock().expect("trace poisoned");
        let close = lane.end_us.unwrap_or(u64::MAX);
        let ts = ts_us.clamp(self.start_us, close);
        let end = ts_us.saturating_add(dur_us).clamp(ts, close);
        lane.spans.push(TraceSpan {
            name: name.to_owned(),
            cat,
            ts_us: ts,
            dur_us: end - ts,
            args,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&self, name: &str, cat: &'static str, args: Value, f: impl FnOnce() -> T) -> T {
        let ts = self.now_us();
        let out = f();
        self.span(name, cat, ts, self.now_us().saturating_sub(ts), args);
        out
    }

    /// Closes the request root span (idempotent — first close wins).
    /// Called when the job reaches a terminal state.
    pub fn finish(&self) {
        let mut lane = self.lane.lock().expect("trace poisoned");
        if lane.end_us.is_none() {
            lane.end_us = Some(self.now_us().max(self.start_us + 1));
        }
    }

    /// The job's trace events: the `request` root first, then every
    /// recorded span, all on `tid` = `job_id` with the trace id in every
    /// event's args. An unfinished job renders with the root open-ended
    /// at "now".
    pub fn events(&self, job_id: u64, kind: &str) -> Vec<Value> {
        let lane = self.lane.lock().expect("trace poisoned");
        let end = lane
            .end_us
            .unwrap_or_else(|| self.now_us().max(self.start_us + 1));
        let mut events = vec![json!({
            "name": "request",
            "cat": "request",
            "ph": "X",
            "pid": 1,
            "tid": job_id,
            "ts": self.start_us,
            "dur": end - self.start_us,
            "args": {"trace_id": self.trace_id.clone(), "job": job_id, "kind": kind},
        })];
        for span in &lane.spans {
            let mut args = match &span.args {
                Value::Object(map) => map.clone(),
                _ => std::collections::BTreeMap::new(),
            };
            args.insert("trace_id".to_owned(), Value::String(self.trace_id.clone()));
            events.push(json!({
                "name": span.name.clone(),
                "cat": span.cat,
                "ph": "X",
                "pid": 1,
                "tid": job_id,
                "ts": span.ts_us,
                "dur": span.dur_us,
                "args": Value::Object(args),
            }));
        }
        events
    }

    /// The per-job Chrome-trace document served by
    /// `GET /v1/jobs/:id/trace`.
    pub fn to_chrome_json(&self, job_id: u64, kind: &str) -> Value {
        json!({
            "displayTimeUnit": "ms",
            "traceEvents": self.events(job_id, kind),
        })
    }
}

/// Assembles the server-wide interleaved trace document from every
/// job's lane (the `--trace` file written at drain).
pub fn interleaved_document(lanes: Vec<Vec<Value>>) -> Value {
    let events: Vec<Value> = lanes.into_iter().flatten().collect();
    json!({
        "displayTimeUnit": "ms",
        "traceEvents": events,
    })
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

    #[test]
    fn spans_nest_inside_the_request_root() {
        let origin = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let trace = JobTrace::new("t-1".to_owned(), origin);
        // A coalescing request may time from before the root opened...
        trace.span("coalesced_submit", "cache", 0, trace.now_us(), Value::Null);
        trace.time("fused_scan", "engine", json!({"k": 4}), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        trace.finish();
        // ...or record after the job finished: both are clipped to it.
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.span("coalesced_submit", "cache", trace.now_us(), 5, Value::Null);

        let events = trace.events(7, "verify");
        assert_eq!(events.len(), 4);
        let root = &events[0];
        assert_eq!(root["name"], "request");
        let root_ts = root["ts"].as_u64().unwrap();
        let root_end = root_ts + root["dur"].as_u64().unwrap();
        for child in &events[1..] {
            let ts = child["ts"].as_u64().unwrap();
            let end = ts + child["dur"].as_u64().unwrap();
            assert!(ts >= root_ts && end <= root_end, "child inside root");
            assert_eq!(child["tid"], 7, "one lane per job");
            assert_eq!(child["args"]["trace_id"], "t-1", "id on every span");
        }
        assert_eq!(events[2]["args"]["k"], 4, "caller args survive");
    }

    #[test]
    fn finish_is_idempotent_and_documents_render() {
        let trace = JobTrace::new("t-2".to_owned(), Instant::now());
        trace.finish();
        let first = trace.events(1, "verify")[0]["dur"].as_u64().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.finish();
        let second = trace.events(1, "verify")[0]["dur"].as_u64().unwrap();
        assert_eq!(first, second, "second finish does not move the end");
        let doc = trace.to_chrome_json(1, "verify");
        assert!(doc["traceEvents"].as_array().is_some());
        assert_eq!(doc["displayTimeUnit"], "ms");
    }
}
