//! Canonical JSON rendering shared by the CLI and the HTTP service.
//!
//! The service's headline contract is that `GET /v1/jobs/:id/result`
//! returns bytes **identical** to what `selfstab check --json` /
//! `selfstab synthesize --json` print for the same inputs. Rather than
//! testing two renderers into agreement, there is exactly one: the row
//! builders and the document framing live here, and the CLI delegates to
//! them (see `crates/cli/src/json.rs`). Identity holds by construction.
//!
//! Framing mirrors the CLI precisely:
//!
//! * `check --json` prints `serde_json::to_string_pretty` of the row
//!   array through `println!` — pretty JSON plus a trailing newline
//!   ([`check_document`]).
//! * `synthesize --json` prints the compact `Display` form of one value
//!   through `println!` — compact JSON plus a trailing newline
//!   ([`synthesis_document`]).

use selfstab_global::check::ConvergenceReport;
use selfstab_protocol::file::render_protocol_file;
use selfstab_protocol::Protocol;
use selfstab_synth::{SynthesisOutcome, SynthesisVerdict};
use selfstab_telemetry::SynthesisCountersSnapshot;
use serde_json::{json, Value};

/// A fixed-size global [`ConvergenceReport`] as one JSON row.
pub fn convergence_report(report: &ConvergenceReport) -> Value {
    json!({
        "ring_size": report.ring_size,
        "state_count": report.state_count,
        "legit_count": report.legit_count,
        "closure_ok": report.closure_violation.is_none(),
        "illegitimate_deadlocks": report.illegitimate_deadlocks.count,
        "livelock_length": report.livelock.as_ref().map(Vec::len),
        "self_stabilizing": report.self_stabilizing(),
    })
}

/// A [`SynthesisOutcome`] as JSON. Only the counters that are the same
/// with pruning on and off appear (no durations, no pruning tallies), so
/// the document is byte-identical for every `--prune` setting.
pub fn synthesis_outcome(
    protocol: &Protocol,
    outcome: &SynthesisOutcome,
    counters: &SynthesisCountersSnapshot,
) -> Value {
    let solutions: Vec<Value> = outcome
        .solutions()
        .iter()
        .map(|s| {
            json!({
                "verdict": match s.verdict {
                    SynthesisVerdict::NoPseudoLivelock => "no_pseudo_livelock",
                    SynthesisVerdict::PseudoLivelocksWithoutTrails =>
                        "pseudo_livelocks_without_trails",
                },
                "resolve": s.resolve.iter()
                    .map(|&st| protocol.space().format_compact(st, protocol.domain()))
                    .collect::<Vec<_>>(),
                "added": s.added.iter()
                    .map(|t| json!({
                        "from": protocol.space().format_compact(t.source, protocol.domain()),
                        "to": protocol.domain().label(t.target),
                    }))
                    .collect::<Vec<_>>(),
                "protocol_file": render_protocol_file(&s.protocol),
            })
        })
        .collect();
    json!({
        "protocol": protocol.name(),
        "success": outcome.is_success(),
        "truncated": outcome.truncated(),
        "cancelled": outcome.cancelled(),
        "counters": counters.deterministic_json(),
        "solutions": solutions,
    })
}

/// The complete `check --json` output for a run of per-K rows: pretty
/// array, trailing newline.
pub fn check_document(rows: Vec<Value>) -> String {
    let mut body = serde_json::to_string_pretty(&Value::Array(rows))
        .expect("rendering an in-memory Value cannot fail");
    body.push('\n');
    body
}

/// The complete `synthesize --json` output: one compact value, trailing
/// newline.
pub fn synthesis_document(value: &Value) -> String {
    format!("{value}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_document_is_pretty_array_plus_newline() {
        let doc = check_document(vec![json!({"ring_size": 3})]);
        assert!(doc.starts_with("[\n"));
        assert!(doc.ends_with("}\n]\n"));
        assert_eq!(doc.matches('\n').count(), 5);
    }

    #[test]
    fn empty_check_document_matches_println_framing() {
        assert_eq!(check_document(Vec::new()), "[]\n");
    }

    #[test]
    fn synthesis_document_is_compact_plus_newline() {
        let doc = synthesis_document(&json!({"success": true, "solutions": []}));
        assert_eq!(doc, "{\"solutions\":[],\"success\":true}\n");
    }
}
