//! What a run reports: the metric names and units, the result line, and
//! the shared summaries of a latency tally.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::{json, Value};

use crate::inproc::Tally;
use crate::stats::{count_above, median, quantile};

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (0 where a layer is not on
/// the workload's path).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("global.dfs_ms", "ms"),
    ("global.dfs_steps", "count"),
    ("global.dfs_share", "ratio"),
    ("global.scan_ms", "ms"),
    ("global.scan_states", "count"),
    ("global.orbits", "count"),
    ("global.instance_ms", "ms"),
    ("core.deadlock_ms", "ms"),
    ("core.livelock_ms", "ms"),
    ("core.certified_share", "ratio"),
    ("synth.synthesize_ms", "ms"),
    ("synth.resolve_sets", "count"),
    ("synth.combinations", "count"),
    ("synth.verified", "count"),
    ("synth.skipped", "count"),
    ("synth.cones_cut", "count"),
    ("synth.delta_reuses", "count"),
    ("synth.ms_per_verified", "ms"),
    ("synth.accept_ratio", "ratio"),
    ("protocol.parse_ms", "ms"),
    ("core.spec_hash_ms", "ms"),
    ("serve.validate_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.render_bytes", "bytes"),
    ("serve.post_ms_p50", "ms"),
    ("serve.get_ms_p50", "ms"),
    ("serve.ttfb_post_mean_us", "us"),
    ("serve.journal_append_mean_us", "us"),
    ("serve.journal_bytes_per_job", "bytes"),
    ("serve.journal_replay_ms", "ms"),
    ("serve.snapshot_restore_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.exec_mean_ms", "ms"),
    ("serve.post_ms_p99", "ms"),
    ("serve.polls_per_cold_job", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_bytes", "bytes"),
    ("serve.non_2xx", "count"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.layer_coverage", "ratio"),
];

/// The result of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub info: Value,
    pub errors: Vec<String>,
}

impl Report {
    pub fn result_line(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| (name.to_owned(), json!({"value": value, "unit": unit})))
            .collect();
        json!({
            "correct": self.failed == 0 && self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// Where runs keep their scratch state and traces: `.bench_run/` in the
/// working directory (the checkout root).
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

pub fn e2e_metrics(tally: &Tally, setup_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let lat = &tally.latencies_ms;
    vec![
        ("setup_s", "s", setup_s),
        ("jobs_per_s", "jobs/s", tally.jobs_per_s()),
        ("latency_p50_ms", "ms", median(lat)),
        ("latency_p99_ms", "ms", quantile(lat, 0.99)),
        (
            "decided_share",
            "ratio",
            tally.decided as f64 / tally.attempted.max(1) as f64,
        ),
        ("peak_rss_mb", "MB", crate::stats::peak_rss_mb()),
    ]
}

pub fn latency_info(tally: &Tally) -> Value {
    let lat = &tally.latencies_ms;
    let p99 = quantile(lat, 0.99);
    json!({
        "samples": lat.len(),
        "beyond_p99": count_above(lat, p99),
        "window_s": tally.busy.as_secs_f64(),
    })
}

/// Six significant digits, in scientific notation below 0.001.
pub fn human(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.5e}")
    } else {
        format!("{value:.6}")
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every per-layer metric, 0 where this workload does not reach the
    /// layer.
    pub fn finish(self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}
