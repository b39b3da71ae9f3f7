//! In-memory span recording for the traced run.
//!
//! Every span carries its name, start, end, parent and job id. Spans stay
//! in memory until the run ends; then they are summarized into per-layer
//! self time (span minus the part its children cover) and written as one
//! Chrome trace-event document through the program's own
//! [`TraceCollector`], which Perfetto opens directly.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use selfstab_telemetry::TraceCollector;
use serde_json::{json, Value};

struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals of a traced run.
#[derive(Default)]
pub struct LayerTotals {
    /// Self time in ms, by span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Spans recorded, by span name.
    pub count: BTreeMap<&'static str, u64>,
    /// Wall time of all root (`job`) spans, ms.
    pub job_wall_ms: f64,
}

impl LayerTotals {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Share of job wall time covered by layer spans: one minus the part
    /// of the root spans no child covers.
    pub fn coverage(&self) -> f64 {
        if self.job_wall_ms > 0.0 {
            1.0 - self.self_ms(ROOT) / self.job_wall_ms
        } else {
            0.0
        }
    }
}

/// The name of the root span every job's layer spans hang off.
pub const ROOT: &str = "job";

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `job`, nested under the
    /// innermost open span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time and counts per span name.
    pub fn totals(&self) -> LayerTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = LayerTotals::default();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_ns - span.start_ns;
            let own = dur.saturating_sub(child_ns[i]) as f64 / 1e6;
            *totals.self_ms.entry(span.name).or_default() += own;
            *totals.count.entry(span.name).or_default() += 1;
            if span.parent.is_none() && span.name == ROOT {
                totals.job_wall_ms += dur as f64 / 1e6;
            }
        }
        totals
    }

    /// Writes every span as a Chrome trace-event document plus a summary
    /// of per-layer self time next to it (`<path>` and
    /// `<path>.summary.json`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let collector = TraceCollector::new();
        for span in &self.spans {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let cat: &'static str = match layer {
                "protocol" => "protocol",
                "core" => "core",
                "global" => "global",
                "synth" => "synth",
                "serve" => "serve",
                "client" => "client",
                _ => "bench",
            };
            collector.complete(
                span.name,
                cat,
                1,
                span.start_ns / 1000,
                (span.end_ns - span.start_ns) / 1000,
                json!({
                    "job": span.job,
                    "parent": span.parent.map_or(Value::Null, |p| Value::from(self.spans[p].name)),
                }),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{}\n", collector.to_json()))?;
        let totals = self.totals();
        let layers: BTreeMap<String, Value> = totals
            .self_ms
            .iter()
            .map(|(name, ms)| {
                (
                    (*name).to_owned(),
                    json!({"self_ms": *ms, "spans": totals.count[name]}),
                )
            })
            .collect();
        let summary = json!({
            "job_wall_ms": totals.job_wall_ms,
            "layer_coverage": totals.coverage(),
            "layers": Value::Object(layers),
        });
        let mut summary_path = path.as_os_str().to_owned();
        summary_path.push(".summary.json");
        std::fs::write(summary_path, format!("{}\n", summary))
    }
}
