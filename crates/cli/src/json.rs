//! JSON rendering of analysis results (the `--json` flag), for piping into
//! other tooling.
//!
//! The builders shared with the HTTP service — the per-K convergence row
//! and the synthesis outcome — live in [`selfstab_serve::render`] so the
//! service's result documents are byte-identical to the CLI's by
//! construction; they are re-exported here for the commands. Only the
//! purely local [`stabilization_report`] has no service counterpart.

use selfstab_core::livelock::CertificateScope;
use selfstab_core::report::StabilizationReport;
use selfstab_protocol::Protocol;
pub use selfstab_serve::render::{convergence_report, synthesis_outcome};
use serde_json::{json, Value};

/// The local [`StabilizationReport`] as JSON.
pub fn stabilization_report(protocol: &Protocol, report: &StabilizationReport) -> Value {
    let (witnesses, witnesses_truncated) = report.deadlock.witnesses();
    let witnesses: Vec<Value> = witnesses
        .iter()
        .map(|w| {
            json!({
                "ring_size": w.base_ring_size,
                "cycle": w.cycle.iter()
                    .map(|&s| protocol.space().format_compact(s, protocol.domain()))
                    .collect::<Vec<_>>(),
                "configuration": w.configuration.iter()
                    .map(|&v| protocol.domain().label(v))
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    json!({
        "protocol": protocol.name(),
        "deadlock": {
            "free_for_all_k": report.deadlock.is_free_for_all_k(),
            "local_deadlocks": report.deadlock.local_deadlock_count(),
            "illegitimate_deadlocks": report.deadlock.illegitimate_deadlock_count(),
            "witnesses": witnesses,
            "witnesses_truncated": witnesses_truncated,
            "deadlocked_ring_sizes_up_to_20": report.deadlock.deadlocked_ring_sizes(20),
        },
        "livelock": {
            "certified_free": report.livelock.certified_free(),
            "scope": match report.livelock.scope() {
                CertificateScope::AllLivelocks => "all_livelocks",
                CertificateScope::ContiguousLivelocksOnly => "contiguous_livelocks_only",
            },
            "self_terminating": report.livelock.self_terminating(),
            "process_self_disabling": report.livelock.process_self_disabling(),
            "pseudo_livelock_support": report.livelock.pseudo_livelock_support().len(),
            "blocking_trail": report.livelock.trail().map(|t| t.display(protocol)),
        },
        "closure": match &report.closure {
            Ok(()) => json!({"closed": true}),
            Err(v) => json!({"closed": false, "violation": v.to_string()}),
        },
        "self_stabilizing_for_all_k": report.is_self_stabilizing_for_all_k(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_global::check::ConvergenceReport;
    use selfstab_global::RingInstance;
    use selfstab_protocol::{Domain, Locality};

    fn protocol() -> Protocol {
        Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn stabilization_json_shape() {
        let p = protocol();
        let r = StabilizationReport::analyze(&p);
        let v = stabilization_report(&p, &r);
        assert_eq!(v["protocol"], "ag");
        assert_eq!(v["deadlock"]["free_for_all_k"], true);
        assert_eq!(v["livelock"]["certified_free"], true);
        assert_eq!(v["self_stabilizing_for_all_k"], true);
        assert!(v["livelock"]["blocking_trail"].is_null());
    }

    #[test]
    fn convergence_json_shape() {
        let p = protocol();
        let ring = RingInstance::symmetric(&p, 4).unwrap();
        let r = ConvergenceReport::check(&ring);
        let v = convergence_report(&r);
        assert_eq!(v["ring_size"], 4);
        assert_eq!(v["self_stabilizing"], true);
        assert!(v["livelock_length"].is_null());
    }
}
