//! Chrome trace-event export (Perfetto / `chrome://tracing`).
//!
//! [`TraceCollector`] records complete (`ph: "X"`) and instant
//! (`ph: "i"`) events with microsecond timestamps relative to an origin
//! instant, and renders the standard `{"traceEvents": […]}` JSON object
//! document. Collectors built on one origin
//! ([`TraceCollector::with_origin`]) share a timeline, so their events
//! interleave in one document.
//!
//! Each collector records inside a *window*: it opens when the
//! collector is created (or at the instant [`TraceCollector::with_origin`]
//! names) and closes at [`TraceCollector::finish`]. Every
//! event is clipped into the window when it is recorded, under the lock
//! that closes it, so a root span drawn over [`TraceCollector::window`]
//! contains every event — the Chrome trace-event nesting-by-containment
//! model. A collector from [`TraceCollector::new`] opens at 0 and, never
//! finished, clips nothing.
//!
//! [`PhaseLane`] is the traced [`PhaseSink`]: it times each phase span
//! into a [`PhaseTimes`] and, when tracing, records the same span as one
//! complete event.
//!
//! Unlike everything else in this crate, recording locks and allocates —
//! tracing is opt-in (`sweep --trace`) or coarse (a handful of spans per
//! served job) and sits beside the hot path, not on it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use serde_json::Value;

use crate::phase::{Phase, PhaseSink, PhaseTimes};

#[derive(Debug)]
struct TraceEvent {
    /// Borrowed for the static names every caller passes, so recording
    /// a span allocates nothing for its name.
    name: Cow<'static, str>,
    cat: &'static str,
    /// `'X'` (complete, with `dur`) or `'i'` (instant).
    ph: char,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    args: Value,
}

/// The recorded events and, once [`TraceCollector::finish`] ran, the
/// window's end.
#[derive(Debug, Default)]
struct State {
    end_us: Option<u64>,
    events: Vec<TraceEvent>,
}

/// An accumulating Chrome trace-event collector over one time window.
#[derive(Debug)]
pub struct TraceCollector {
    origin: Instant,
    start_us: u64,
    state: Mutex<State>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A collector whose timestamp origin is "now"; its window opens at 0.
    pub fn new() -> Self {
        TraceCollector {
            origin: Instant::now(),
            start_us: 0,
            state: Mutex::default(),
        }
    }

    /// A collector whose window opens at `opened`, on `origin`'s
    /// timeline, so collectors sharing an origin align in one document. A
    /// lane built after the work it frames began opens where that work
    /// did.
    pub fn with_origin(origin: Instant, opened: Instant) -> Self {
        TraceCollector {
            origin,
            start_us: opened.saturating_duration_since(origin).as_micros() as u64,
            state: Mutex::default(),
        }
    }

    /// Microseconds since the origin — the `ts` to pass to
    /// [`TraceCollector::complete`] for an event starting now.
    pub fn now_us(&self) -> u64 {
        self.micros_at(Instant::now())
    }

    /// Microseconds from the origin to `at` (0 for an earlier instant).
    pub fn micros_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("trace poisoned")
    }

    /// Records a complete event (`ph: "X"`): `name` ran on `tid` from
    /// `ts_us` for `dur_us`, clipped into the window.
    pub fn complete(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Value,
    ) {
        let mut state = self.state();
        let close = state.end_us.unwrap_or(u64::MAX);
        let ts = ts_us.clamp(self.start_us, close);
        let end = ts_us.saturating_add(dur_us).clamp(ts, close);
        state.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts_us: ts,
            dur_us: end - ts,
            tid,
            args,
        });
    }

    /// Records an instant event (`ph: "i"`, thread scope) at "now",
    /// clipped into the window.
    pub fn instant(
        &self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        tid: u64,
        args: Value,
    ) {
        let mut state = self.state();
        let close = state.end_us.unwrap_or(u64::MAX);
        state.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'i',
            ts_us: self.now_us().clamp(self.start_us, close),
            dur_us: 0,
            tid,
            args,
        });
    }

    /// Closes the window (idempotent — the first close wins). The end is
    /// at least one microsecond past the start.
    pub fn finish(&self) {
        let mut state = self.state();
        if state.end_us.is_none() {
            state.end_us = Some(self.now_us().max(self.start_us + 1));
        }
    }

    /// The window as `(start, end)` microseconds; an open window ends
    /// "now".
    pub fn window(&self) -> (u64, u64) {
        let end = self.state().end_us;
        let end = end.unwrap_or_else(|| self.now_us().max(self.start_us + 1));
        (self.start_us, end)
    }

    /// The recorded trace events in recording order — viewers sort by
    /// `ts` themselves. `pid` is always 1 (one process); `tid` is the
    /// lane the caller recorded on; `args` is omitted when null.
    pub fn events(&self) -> Vec<Value> {
        self.state()
            .events
            .iter()
            .map(|e| {
                let mut map = BTreeMap::new();
                map.insert("name".to_owned(), Value::from(&*e.name));
                map.insert("cat".to_owned(), Value::from(e.cat));
                map.insert("ph".to_owned(), Value::from(e.ph.to_string()));
                map.insert("ts".to_owned(), Value::from(e.ts_us));
                if e.ph == 'X' {
                    map.insert("dur".to_owned(), Value::from(e.dur_us));
                } else {
                    // Instant scope: thread.
                    map.insert("s".to_owned(), Value::from("t"));
                }
                map.insert("pid".to_owned(), Value::from(1u64));
                map.insert("tid".to_owned(), Value::from(e.tid));
                if !e.args.is_null() {
                    map.insert("args".to_owned(), e.args.clone());
                }
                Value::Object(map)
            })
            .collect()
    }

    /// Wraps an event list in the trace-event JSON object document.
    pub fn document(events: Vec<Value>) -> Value {
        let mut doc = BTreeMap::new();
        doc.insert("displayTimeUnit".to_owned(), Value::from("ms"));
        doc.insert("traceEvents".to_owned(), Value::Array(events));
        Value::Object(doc)
    }

    /// This collector's trace-event document.
    pub fn to_json(&self) -> Value {
        Self::document(self.events())
    }
}

/// The traced [`PhaseSink`]: every span adds its duration to `phases`
/// and, when `trace` is set, records one complete event named after the
/// phase on lane `tid`.
#[derive(Debug)]
pub struct PhaseLane<'a> {
    /// The accumulator every span's duration lands in.
    pub phases: &'a PhaseTimes,
    /// The collector to record each span into; `None` times only.
    pub trace: Option<&'a TraceCollector>,
    /// The events' lane (`tid`).
    pub tid: u64,
    /// The events' category.
    pub cat: &'static str,
    /// The events' args (`Value::Null` for none).
    pub args: Value,
}

impl PhaseSink for PhaseLane<'_> {
    fn span(&self, phase: Phase, f: &mut dyn FnMut()) {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed();
        self.phases.add(phase, elapsed);
        if let Some(trace) = self.trace {
            trace.complete(
                phase.name(),
                self.cat,
                self.tid,
                trace.micros_at(start),
                elapsed.as_micros() as u64,
                self.args.clone(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::span;
    use serde_json::json;
    use std::time::Duration;

    fn bounds(event: &Value) -> (u64, u64) {
        let ts = event["ts"].as_u64().unwrap();
        (ts, ts + event["dur"].as_u64().unwrap_or(0))
    }

    #[test]
    fn events_render_with_required_fields() {
        let t = TraceCollector::new();
        let ts = t.now_us();
        t.complete(
            "fused_scan",
            "engine",
            2,
            ts,
            150,
            json!({"spec": "a.stab", "k": 3}),
        );
        t.instant("job_panicked", "campaign", 0, Value::Null);
        // Never finished, the window spans the whole timeline: nothing is
        // clipped, however far a caller's clock runs ahead.
        t.complete("bench", "bench", 1, 1 << 40, 5, Value::Null);
        let doc = t.to_json();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["dur"], 150u64);
        assert_eq!(events[0]["pid"], 1u64);
        assert_eq!(events[0]["tid"], 2u64);
        assert_eq!(events[0]["args"]["spec"], "a.stab");
        assert_eq!(events[1]["ph"], "i");
        assert_eq!(events[1]["s"], "t");
        assert!(events[1]["args"].is_null());
        assert_eq!(bounds(&events[2]), (1 << 40, (1 << 40) + 5));
        assert_eq!(t.window().0, 0);
    }

    #[test]
    fn spans_clip_into_the_window() {
        let origin = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t = TraceCollector::with_origin(origin, Instant::now());
        // A span may have started timing before the window opened...
        t.complete("coalesced_submit", "cache", 7, 0, t.now_us(), Value::Null);
        let phases = PhaseTimes::new();
        let traced = PhaseLane {
            phases: &phases,
            trace: Some(&t),
            tid: 7,
            cat: "engine",
            args: json!({"k": 4}),
        };
        span(Some(&traced), Phase::FusedScan, || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.finish();
        // ...or be recorded after it closed: both are clipped into it.
        std::thread::sleep(Duration::from_millis(2));
        t.complete("coalesced_submit", "cache", 7, t.now_us(), 5, Value::Null);
        t.instant("late", "cache", 7, Value::Null);

        let (start, end) = t.window();
        assert!(start >= 2_000, "the window opens on the origin's timeline");
        let events = t.events();
        assert_eq!(events.len(), 4);
        for event in &events {
            let (ts, stop) = bounds(event);
            assert!(start <= ts && stop <= end, "{event} inside the window");
            assert_eq!(event["tid"], 7u64);
        }
        assert_eq!(bounds(&events[0]).0, start);
        assert_eq!(events[1]["name"], "fused_scan");
        assert_eq!(events[1]["cat"], "engine");
        assert_eq!(events[1]["args"]["k"], 4, "t args ride every span");
        assert_eq!(phases.calls(Phase::FusedScan), 1);
        assert!(phases.micros(Phase::FusedScan) >= 2_000);
        assert_eq!(bounds(&events[2]), (end, end));
        assert_eq!(bounds(&events[3]), (end, end));
    }

    #[test]
    fn finish_is_idempotent_and_documents_render() {
        let now = Instant::now();
        let t = TraceCollector::with_origin(now, now);
        t.finish();
        let first = t.window();
        assert!(first.1 > first.0, "a closed window is never empty");
        std::thread::sleep(Duration::from_millis(2));
        t.finish();
        assert_eq!(t.window(), first, "second finish does not move the end");
        t.instant("late", "cache", 1, json!({"k": 3}));
        let doc = t.to_json();
        assert_eq!(doc, TraceCollector::document(t.events()));
        assert_eq!(doc["displayTimeUnit"], "ms");
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 1);
    }
}
