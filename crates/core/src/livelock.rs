//! Livelock-freedom for every ring size: the Theorem 5.14 certificate.

use selfstab_graph::cycles::has_cycle;
use selfstab_protocol::{LocalTransition, Protocol};

use crate::ltg::{is_process_self_disabling, Ltg};
use crate::pseudo::pseudo_livelock_support;
use crate::trail::{find_contiguous_trail, ContiguousTrail, TrailQuery};

/// How far the Theorem 5.14 certificate reaches for a protocol's topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateScope {
    /// Unidirectional ring: the certificate rules out **all** livelocks at
    /// every ring size.
    AllLivelocks,
    /// Bidirectional ring: contiguous livelocks are ruled out, but other
    /// livelock shapes are beyond Theorem 5.14 (the paper, end of §5).
    ContiguousLivelocksOnly,
}

/// The result of the Theorem 5.14 livelock-freedom analysis.
///
/// The theorem gives *sufficient* conditions: when
/// [`LivelockAnalysis::certified_free`] is `true`, the protocol has no
/// livelock outside `I(K)` on unidirectional rings of any size. When it is
/// `false`, a trail witness is reported, but a real livelock need not exist
/// (the paper's sum-not-two example exhibits exactly this gap).
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, Protocol};
/// use selfstab_core::LivelockAnalysis;
///
/// let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
///     .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")?
///     .legit("x[r] == x[r-1]")?
///     .build()?;
/// assert!(LivelockAnalysis::analyze(&p).certified_free());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct LivelockAnalysis {
    certified: bool,
    scope: CertificateScope,
    self_terminating: bool,
    process_self_disabling: bool,
    support: Vec<LocalTransition>,
    trail: Option<ContiguousTrail>,
}

impl LivelockAnalysis {
    /// Runs the analysis.
    pub fn analyze(protocol: &Protocol) -> Self {
        Self::analyze_with_ltg(protocol, &Ltg::build(protocol))
    }

    /// Runs the analysis against a pre-built LTG of `protocol` (built for
    /// it, or retargeted to it with [`Ltg::retarget`]).
    pub fn analyze_with_ltg(protocol: &Protocol, ltg: &Ltg) -> Self {
        let scope = if protocol.locality().right() == 0 {
            CertificateScope::AllLivelocks
        } else {
            CertificateScope::ContiguousLivelocksOnly
        };
        // Assumption 1 read from the given LTG's t-arcs (what
        // `is_self_terminating` computes after building its own LTG), so a
        // caller reusing one RCG across revisions never rebuilds it here.
        let self_terminating = !has_cycle(ltg.t_arcs());
        // Theorem 5.14's supporting lemmas (5.5, 5.12) rely on a process
        // being *disabled* after each of its transitions ("every local
        // transition of any process P_i disables P_i"). Transition-granular
        // actions satisfy the action-level Assumption 2 by construction,
        // but an enablement *chain* — a transition whose target state is
        // again enabled — breaks the process-level reading, and protocols
        // with such chains can livelock without leaving a Lemma 5.12 trail
        // (found by this workspace's property tests). The certificate
        // therefore also requires the process-level normal form.
        let process_self_disabling = is_process_self_disabling(protocol);
        // Theorem 5.14's condition 1 ("the trail visits an illegitimate
        // local state") is justified by Lemma 5.9, whose proof uses closure
        // of I in p — an input assumption of Problem 3.1. Closure must hold
        // for *every* K: at a single size it can hold vacuously (e.g. odd
        // rings of 2-coloring have empty I) while failing at another, so
        // the K-independent window-local check is required. High-volume
        // property testing surfaced exactly this: an unclosed protocol
        // whose K=3 livelock ran entirely through legitimate enabled
        // windows.
        let closed = crate::closure::local_closure_check(protocol).is_ok();
        let assumptions_hold = self_terminating && process_self_disabling && closed;

        let transitions: Vec<LocalTransition> = protocol.transitions().collect();
        // Theorem 5.14 condition 2: the *used* t-arcs of a qualifying trail
        // must form pseudo-livelocks, and every such arc lies in the
        // pseudo-livelock support of δ_r. The search therefore enumerates
        // the subsets of the support that are unions of pseudo-livelocks
        // and looks for a trail using each subset exactly (`cover_all`) —
        // complete, because a qualifying trail's used set is one of these
        // subsets. When the support is too large to enumerate, it falls
        // back to a single search over the whole support, which
        // over-approximates (may reject certifiable protocols) but never
        // certifies unsoundly.
        let support = pseudo_livelock_support(&transitions, protocol.space(), protocol.locality());
        let illegit = protocol.legit().negated();

        // A protocol that is not self-terminating can loop locally; the
        // theorem's assumptions fail, so nothing is certified.
        let trail = if !assumptions_hold {
            None
        } else if support.len() <= 12 {
            let mut found = None;
            for mask in 1u32..(1u32 << support.len()) {
                let subset: Vec<LocalTransition> = support
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, t)| *t)
                    .collect();
                if !crate::pseudo::forms_pseudo_livelock_union(
                    &subset,
                    protocol.space(),
                    protocol.locality(),
                ) {
                    continue;
                }
                if let Some(t) = find_contiguous_trail(
                    ltg,
                    protocol,
                    &TrailQuery {
                        allowed: &subset,
                        must_visit: illegit.as_bitset(),
                        cover_all: true,
                    },
                ) {
                    found = Some(t);
                    break;
                }
            }
            found
        } else {
            find_contiguous_trail(
                ltg,
                protocol,
                &TrailQuery {
                    allowed: &support,
                    must_visit: illegit.as_bitset(),
                    cover_all: false,
                },
            )
        };

        LivelockAnalysis {
            certified: assumptions_hold && trail.is_none(),
            scope,
            self_terminating,
            process_self_disabling,
            support,
            trail,
        }
    }

    /// `true` iff the sufficient conditions hold: no contiguous trail with
    /// pseudo-livelocking t-arcs visits an illegitimate state. On
    /// unidirectional rings this certifies livelock-freedom for **every**
    /// `K`; see [`LivelockAnalysis::scope`].
    pub fn certified_free(&self) -> bool {
        self.certified
    }

    /// What the certificate covers for this protocol's topology.
    pub fn scope(&self) -> CertificateScope {
        self.scope
    }

    /// Whether Assumption 1 (self-termination) holds; if not, nothing is
    /// certified.
    pub fn self_terminating(&self) -> bool {
        self.self_terminating
    }

    /// Whether the process-level self-disabling normal form holds (no
    /// transition lands in an enabled state); if not, nothing is certified.
    /// Apply [`crate::ltg::make_self_disabling`]-style normalization — or
    /// redesign the actions — to restore it.
    pub fn process_self_disabling(&self) -> bool {
        self.process_self_disabling
    }

    /// The t-arcs that could participate in a pseudo-livelock.
    pub fn pseudo_livelock_support(&self) -> &[LocalTransition] {
        &self.support
    }

    /// The blocking trail witness, when certification failed.
    pub fn trail(&self) -> Option<&ContiguousTrail> {
        self.trail.as_ref()
    }
}

impl std::fmt::Display for LivelockAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "livelock-freedom (Theorem 5.14): {}",
            if self.certified {
                match self.scope {
                    CertificateScope::AllLivelocks => "CERTIFIED free for all K",
                    CertificateScope::ContiguousLivelocksOnly => {
                        "CERTIFIED free of contiguous livelocks for all K"
                    }
                }
            } else if !self.self_terminating {
                "UNKNOWN (protocol is not self-terminating; Assumption 1 fails)"
            } else if !self.process_self_disabling {
                "UNKNOWN (a transition lands in an enabled state; the self-disabling normal form of Assumption 2 fails)"
            } else if self.trail.is_none() {
                "UNKNOWN (I is not closed in the protocol; Problem 3.1's input assumption fails)"
            } else {
                "UNKNOWN (a qualifying contiguous trail exists)"
            }
        )?;
        writeln!(
            f,
            "  pseudo-livelock support: {} of the protocol's t-arcs",
            self.support.len()
        )?;
        if let Some(t) = &self.trail {
            writeln!(f, "  blocking trail: {} steps", t.steps.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::{Domain, Locality};

    #[test]
    fn one_sided_agreement_certified() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(a.certified_free());
        assert_eq!(a.scope(), CertificateScope::AllLivelocks);
        assert!(a.pseudo_livelock_support().is_empty());
    }

    #[test]
    fn two_sided_agreement_not_certified() {
        let p = Protocol::builder("ag", Domain::numeric("x", 2), Locality::unidirectional())
            .actions([
                "x[r-1] == 0 && x[r] == 1 -> x[r] := 0",
                "x[r-1] == 1 && x[r] == 0 -> x[r] := 1",
            ])
            .unwrap()
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(!a.certified_free());
        assert!(a.trail().is_some());
        assert_eq!(a.pseudo_livelock_support().len(), 2);
        // The pseudo-livelock {t01, t10} has a trail through an
        // illegitimate state that uses both of its t-arcs, and no other.
        let ltg = Ltg::build(&p);
        let illegit = p.legit().negated();
        let transitions: Vec<LocalTransition> = p.transitions().collect();
        let trail = find_contiguous_trail(
            &ltg,
            &p,
            &TrailQuery {
                allowed: &transitions,
                must_visit: illegit.as_bitset(),
                cover_all: true,
            },
        )
        .expect("the pseudo-livelock {t01, t10} has a covering trail");
        // t01 writes 1 over 0 at ⟨1,0⟩; t10 writes 0 over 1 at ⟨0,1⟩.
        let t01 = LocalTransition::new(p.space().encode(&[1, 0]), 1);
        let t10 = LocalTransition::new(p.space().encode(&[0, 1]), 0);
        let mut expected = vec![t01, t10];
        expected.sort_unstable();
        assert_eq!(trail.t_arcs(), expected);
    }

    #[test]
    fn two_coloring_not_certified() {
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
        let a = LivelockAnalysis::analyze(&p);
        assert!(!a.certified_free());
    }

    #[test]
    fn sum_not_two_accepted_candidate_certified() {
        // {t21, t12, t01}: t21/t12 form a pseudo-livelock but no trail where
        // they solely participate (paper, §6.2).
        let p = Protocol::builder("sn2", Domain::numeric("x", 3), Locality::unidirectional())
            .transition(&[0, 2], 1) // t21 (from ⟨0,2⟩: 2 -> 1)
            .unwrap()
            .transition(&[1, 1], 2) // t12
            .unwrap()
            .transition(&[2, 0], 1) // t01
            .unwrap()
            .legit("x[r] + x[r-1] != 2")
            .unwrap()
            .build()
            .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(a.certified_free(), "{a}");
    }

    #[test]
    fn sum_not_two_rejected_candidate_not_certified() {
        // {t21, t10, t02}: forms a pseudo-livelock AND participates in a
        // trail (paper, §6.2) — cannot be certified.
        let p = Protocol::builder("sn2", Domain::numeric("x", 3), Locality::unidirectional())
            .transition(&[0, 2], 1) // t21
            .unwrap()
            .transition(&[1, 1], 0) // t10
            .unwrap()
            .transition(&[2, 0], 2) // t02
            .unwrap()
            .legit("x[r] + x[r-1] != 2")
            .unwrap()
            .build()
            .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(!a.certified_free());
        assert!(a.trail().is_some());
    }

    #[test]
    fn enablement_chains_are_not_certified() {
        // Regression: found by property testing. With the chain
        // ⟨0,2⟩ →B ⟨0,1⟩ →A ⟨0,0⟩ (B's target is enabled), the protocol
        // below livelocks at K = 3 *without* leaving a Lemma 5.12 trail —
        // the lemma's derivation assumes a process is disabled after each
        // of its transitions. Action-level self-disabling (the paper's
        // literal Assumption 2, automatic at transition granularity) is
        // NOT enough; the certificate must require the process-level
        // normal form.
        let p = Protocol::builder("chain", Domain::numeric("x", 3), Locality::unidirectional())
            .transition(&[0, 1], 0) // A
            .unwrap()
            .transition(&[0, 2], 1) // B (target ⟨0,1⟩ is enabled!)
            .unwrap()
            .transition(&[2, 0], 1) // C
            .unwrap()
            .transition(&[2, 0], 2) // D
            .unwrap()
            .legit_fn(|id, _| id.index() == 8) // only ⟨2,2⟩ legitimate
            .build()
            .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(a.self_terminating());
        assert!(!a.process_self_disabling());
        assert!(
            !a.certified_free(),
            "would be unsound: the protocol livelocks at K=3"
        );
    }

    #[test]
    fn non_self_terminating_protocols_are_not_certified() {
        let p = Protocol::builder(
            "toggle",
            Domain::numeric("x", 2),
            Locality::unidirectional(),
        )
        .transition(&[1, 0], 1)
        .unwrap()
        .transition(&[1, 1], 0)
        .unwrap()
        .legit("x[r] == x[r-1]")
        .unwrap()
        .build()
        .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert!(!a.self_terminating());
        assert!(!a.certified_free());
    }

    #[test]
    fn bidirectional_scope_is_contiguous_only() {
        let p = Protocol::builder(
            "mm",
            Domain::named("m", ["left", "right", "self"]),
            Locality::bidirectional(),
        )
        .legit_all()
        .build()
        .unwrap();
        let a = LivelockAnalysis::analyze(&p);
        assert_eq!(a.scope(), CertificateScope::ContiguousLivelocksOnly);
    }
}
