//! The combined stabilization report: everything the local method can say
//! about a parameterized protocol, for every ring size at once.

use selfstab_protocol::Protocol;

use crate::closure::{local_closure_check, ClosureViolation};
use crate::deadlock::DeadlockAnalysis;
use crate::livelock::{CertificateScope, LivelockAnalysis};
use crate::ltg::Ltg;
use crate::rcg::Rcg;

/// The full local analysis of a parameterized ring protocol.
///
/// Bundles the Theorem 4.2 deadlock verdict (exact), the Theorem 5.14
/// livelock certificate (sufficient), and the closure check — all computed
/// in the local state space of the representative process, in time
/// independent of any ring size.
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, Protocol};
/// use selfstab_core::StabilizationReport;
///
/// let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
///     .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")?
///     .legit("x[r] == x[r-1]")?
///     .build()?;
/// let report = StabilizationReport::analyze(&p);
/// assert!(report.is_self_stabilizing_for_all_k());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct StabilizationReport {
    /// The Theorem 4.2 deadlock analysis.
    pub deadlock: DeadlockAnalysis,
    /// The Theorem 5.14 livelock analysis.
    pub livelock: LivelockAnalysis,
    /// The closure check result.
    pub closure: Result<(), ClosureViolation>,
}

impl StabilizationReport {
    /// Runs all local analyses.
    pub fn analyze(protocol: &Protocol) -> Self {
        let rcg = Rcg::build(protocol);
        let ltg = Ltg::with_rcg(protocol, rcg);
        StabilizationReport {
            deadlock: DeadlockAnalysis::analyze_prepared(protocol, ltg.rcg()),
            livelock: LivelockAnalysis::analyze_with_ltg(protocol, &ltg),
            closure: local_closure_check(protocol),
        }
    }

    /// `true` iff the local method *proves* strong self-stabilization for
    /// every ring size: closure holds, no illegitimate deadlocks exist
    /// (exact), and livelock-freedom is certified (for unidirectional
    /// rings; on bidirectional rings only contiguous livelocks are ruled
    /// out, so this returns `false` there unless the protocol has no
    /// t-arcs at all).
    pub fn is_self_stabilizing_for_all_k(&self) -> bool {
        self.closure.is_ok()
            && self.deadlock.is_free_for_all_k()
            && self.livelock.certified_free()
            && self.livelock.scope() == CertificateScope::AllLivelocks
    }
}

impl std::fmt::Display for StabilizationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.deadlock)?;
        write!(f, "{}", self.livelock)?;
        match &self.closure {
            Ok(()) => writeln!(f, "closure: OK for all K")?,
            Err(v) => writeln!(f, "closure: {v}")?,
        }
        writeln!(
            f,
            "verdict: {}",
            if self.is_self_stabilizing_for_all_k() {
                "strongly self-stabilizing for every ring size"
            } else {
                "not established by the local method"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    #[test]
    fn report_for_converging_protocol() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let r = StabilizationReport::analyze(&p);
        assert!(r.is_self_stabilizing_for_all_k());
        let text = r.to_string();
        assert!(text.contains("FREE for all K"));
        assert!(text.contains("CERTIFIED"));
        assert!(text.contains("strongly self-stabilizing"));
    }

    #[test]
    fn report_for_failing_protocol() {
        let p = Protocol::builder("2col", Domain::numeric("c", 2), Locality::unidirectional())
            .actions([
                "c[r-1] == 0 && c[r] == 0 -> c[r] := 1",
                "c[r-1] == 1 && c[r] == 1 -> c[r] := 0",
            ])
            .unwrap()
            .legit("c[r] != c[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let r = StabilizationReport::analyze(&p);
        assert!(r.deadlock.is_free_for_all_k());
        assert!(!r.livelock.certified_free());
        assert!(!r.is_self_stabilizing_for_all_k());
    }
}
