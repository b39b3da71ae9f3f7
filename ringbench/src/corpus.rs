//! Seeded inputs: every protocol the benchmark submits, rendered as
//! `.stab` text, with its class and the evidence that establishes it, and
//! the per-workload job lists drawn from them.
//!
//! The program under test only ever sees a request body — spec text plus
//! the request fields — exactly what a `POST /v1/jobs` client sends.

use std::fmt::Write as _;

use serde_json::{json, Value};

/// What the local theorems and the global engine say about a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Theorem 4.2 (deadlock-free for all K), Theorem 5.14 (livelock-free
    /// for all K, unidirectional scope) and the window-local closure check
    /// all pass: self-stabilizing at every ring size.
    Certified,
    /// Self-stabilizing at every ring size the benchmark uses, but the
    /// local theorems cannot certify it.
    StabilizingUncertified,
    /// Fails at every ring size the benchmark uses it at (deadlock,
    /// livelock or both).
    NonStabilizing,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Certified => "certified",
            Class::StabilizingUncertified => "stabilizing-uncertified",
            Class::NonStabilizing => "non-stabilizing",
        }
    }
}

/// The published synthesis answer for an input; `None` fields are not
/// published and only the generic checks apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SynthExpect {
    pub combinations: Option<u64>,
    pub rejected_by_trail: Option<u64>,
    pub solutions: Option<u64>,
    /// An added-transition set (as `from->to` labels) that must be among
    /// the accepted solutions.
    pub must_accept: Option<&'static [&'static str]>,
}

/// One protocol of the catalogue.
pub struct Spec {
    pub name: &'static str,
    pub text: String,
    pub domain: u64,
    pub class: Class,
    /// The EXPERIMENTS.md row or erratum that establishes the class (and
    /// the synthesis answer, for synthesis inputs).
    pub evidence: &'static str,
    /// Ring sizes the class label is established for (empty for
    /// synthesis-only inputs).
    pub ks: Vec<usize>,
    /// Present iff the protocol is a synthesis input.
    pub synth: Option<SynthExpect>,
}

fn stab(name: &str, var: &str, d: u64, locality: &str, legit: &str, actions: &[String]) -> String {
    let labels: Vec<String> = (0..d).map(|v| v.to_string()).collect();
    let mut out = format!(
        "protocol {name}\ndomain {var} {{ {} }}\nlocality {locality}\nlegit {legit}\n",
        labels.join(" ")
    );
    for a in actions {
        let _ = writeln!(out, "action {a}");
    }
    out
}

/// In window `(var[r-1], var[r]) = (prev, cur)`, write `to`.
fn window_action(var: &str, prev: u64, cur: u64, to: u64) -> String {
    format!("{var}[r-1] == {prev} && {var}[r] == {cur} -> {var}[r] := {to}")
}

fn matching(name: &str, actions: &[&str]) -> String {
    let mut out = format!(
        "protocol {name}\ndomain m {{ left right self }}\nlocality bidirectional\nlegit \
         (m[r] == right && m[r+1] == left) || (m[r-1] == right && m[r] == left) || \
         (m[r-1] == left && m[r] == self && m[r+1] == right)\n"
    );
    for a in actions {
        let _ = writeln!(out, "action {a}");
    }
    out
}

/// A sum-not-two revision resolving the three illegitimate deadlock
/// windows `20`, `11`, `02` by writing `t20`, `t11`, `t02` respectively.
fn sum_not_two(t20: u64, t11: u64, t02: u64) -> String {
    stab(
        "sum-not-two",
        "x",
        3,
        "unidirectional",
        "x[r] + x[r-1] != 2",
        &[
            window_action("x", 2, 0, t20),
            window_action("x", 1, 1, t11),
            window_action("x", 0, 2, t02),
        ],
    )
}

/// The 3-coloring revision writing `targets[i]` in window `(i, i)`.
fn three_coloring(targets: [u64; 3]) -> String {
    let actions: Vec<String> = (0..3)
        .map(|i| window_action("c", i, i, targets[i as usize]))
        .collect();
    stab(
        "three-coloring",
        "c",
        3,
        "unidirectional",
        "c[r] != c[r-1]",
        &actions,
    )
}

fn max_agreement(d: u64) -> String {
    stab(
        &format!("max-agreement-{d}"),
        "x",
        d,
        "unidirectional",
        "x[r] == x[r-1]",
        &["x[r] < x[r-1] -> x[r] := x[r-1]".to_owned()],
    )
}

fn coloring_increment(d: u64) -> String {
    stab(
        &format!("{d}-coloring-incr"),
        "c",
        d,
        "unidirectional",
        "c[r] != c[r-1]",
        &[format!("c[r] == c[r-1] -> c[r] := (c[r] + 1) % {d}")],
    )
}

/// Every protocol the benchmark uses, the corpus specs and the seeded
/// parameterized families alike. Ring sizes run from about 10^3 to a few
/// 10^6 global states.
pub fn catalogue() -> Vec<Spec> {
    let mut specs = Vec::new();
    let mut add = |name: &'static str,
                   text: String,
                   domain: u64,
                   class: Class,
                   evidence: &'static str,
                   ks: Option<std::ops::RangeInclusive<usize>>,
                   synth: Option<SynthExpect>| {
        specs.push(Spec {
            name,
            text,
            domain,
            class,
            evidence,
            ks: ks.map_or_else(Vec::new, Iterator::collect),
            synth,
        })
    };
    use Class::{Certified, NonStabilizing, StabilizingUncertified};
    let agreement = |actions: &[String]| {
        stab(
            "binary-agreement",
            "x",
            2,
            "unidirectional",
            "x[r] == x[r-1]",
            actions,
        )
    };

    // Certified by Theorems 4.2 + 5.14 and local closure.
    let e9 = "E9 (section 6.2 one-t-arc agreement solution)";
    add(
        "agreement",
        agreement(&[window_action("x", 1, 0, 1)]),
        2,
        Certified,
        e9,
        Some(10..=21),
        None,
    );
    add(
        "agreement-other",
        agreement(&[window_action("x", 0, 1, 0)]),
        2,
        Certified,
        e9,
        Some(10..=21),
        None,
    );
    let e11 = "E11 / erratum 2 (trail-accepted sum-not-two candidate, globally verified)";
    add(
        "sum-not-two-t01-t12-t21",
        sum_not_two(1, 2, 1),
        3,
        Certified,
        e11,
        Some(7..=13),
        None,
    );
    add(
        "sum-not-two-t01-t10-t20",
        sum_not_two(1, 0, 0),
        3,
        Certified,
        e11,
        Some(7..=13),
        None,
    );
    add(
        "sum-not-two-t01-t10-t21",
        sum_not_two(1, 0, 1),
        3,
        Certified,
        e11,
        Some(7..=13),
        None,
    );
    add(
        "sum-not-two-t02-t12-t21",
        sum_not_two(2, 2, 1),
        3,
        Certified,
        e11,
        Some(7..=13),
        None,
    );
    let x1 = "E12 / X1 (max-agreement converges for every domain size)";
    add(
        "max-agreement-3",
        max_agreement(3),
        3,
        Certified,
        x1,
        Some(7..=13),
        None,
    );
    add(
        "max-agreement-4",
        max_agreement(4),
        4,
        Certified,
        x1,
        Some(5..=10),
        None,
    );
    add(
        "max-agreement-5",
        max_agreement(5),
        5,
        Certified,
        x1,
        Some(5..=9),
        None,
    );
    add(
        "max-agreement-6",
        max_agreement(6),
        6,
        Certified,
        x1,
        Some(4..=8),
        None,
    );

    // Self-stabilizing, but the local theorems cannot certify it.
    add(
        "matching-a1-a5",
        matching(
            "matching-generalizable",
            &[
                "m[r-1] == left && m[r] != self && m[r+1] == right -> m[r] := self",
                "m[r-1] == self && m[r] == self && m[r+1] == self -> m[r] := right | left",
                "m[r-1] == right && m[r] == self -> m[r] := left",
                "m[r] == self && m[r+1] == left -> m[r] := right",
                "m[r-1] == right && m[r] == right && m[r+1] != left -> m[r] := left",
                "m[r-1] != right && m[r] == left && m[r+1] == left -> m[r] := right",
                "m[r-1] == self && m[r] != left && m[r+1] == right -> m[r] := left",
                "m[r-1] == left && m[r] != right && m[r+1] == self -> m[r] := right",
            ],
        ),
        3,
        StabilizingUncertified,
        "E2 (A1..A5 deadlock-free for all K; bidirectional, so no full Theorem 5.14 scope)",
        Some(7..=13),
        None,
    );
    add(
        "mis",
        stab(
            "maximal-independent-set",
            "x",
            2,
            "bidirectional",
            "(x[r] == 1 && x[r-1] == 0 && x[r+1] == 0) || (x[r] == 0 && (x[r-1] == 1 || x[r+1] == 1))",
            &[
                "x[r] == 0 && x[r-1] == 0 && x[r+1] == 0 -> x[r] := 1".to_owned(),
                "x[r] == 1 && (x[r-1] == 1 || x[r+1] == 1) -> x[r] := 0".to_owned(),
            ],
        ),
        2,
        StabilizingUncertified,
        "specs/mis.stab (bidirectional: Theorem 5.14 covers contiguous livelocks only)",
        Some(10..=21),
        None,
    );
    let gap = "erratum 2 (paper-rejected sum-not-two candidate with no real livelock)";
    add(
        "sum-not-two-t01-t12-t20",
        sum_not_two(1, 2, 0),
        3,
        StabilizingUncertified,
        gap,
        Some(7..=13),
        None,
    );
    add(
        "sum-not-two-t02-t10-t21",
        sum_not_two(2, 0, 1),
        3,
        StabilizingUncertified,
        gap,
        Some(7..=13),
        None,
    );

    // Not self-stabilizing at any ring size used.
    let e8 = "E8 (every 3-coloring candidate really livelocks)";
    add(
        "three-coloring-t120",
        three_coloring([1, 2, 0]),
        3,
        NonStabilizing,
        e8,
        Some(7..=13),
        None,
    );
    add(
        "three-coloring-t201",
        three_coloring([2, 0, 1]),
        3,
        NonStabilizing,
        e8,
        Some(7..=13),
        None,
    );
    add(
        "three-coloring-t101",
        three_coloring([1, 0, 1]),
        3,
        NonStabilizing,
        e8,
        Some(7..=13),
        None,
    );
    add(
        "three-coloring-t220",
        three_coloring([2, 2, 0]),
        3,
        NonStabilizing,
        e8,
        Some(7..=13),
        None,
    );
    let trap = "erratum 2 (trail-rejected sum-not-two candidate that livelocks at every K >= 3)";
    add(
        "sum-not-two-t02-t10-t20",
        sum_not_two(2, 0, 0),
        3,
        NonStabilizing,
        trap,
        Some(7..=13),
        None,
    );
    add(
        "sum-not-two-t02-t12-t20",
        sum_not_two(2, 2, 0),
        3,
        NonStabilizing,
        trap,
        Some(7..=13),
        None,
    );
    add(
        "agreement-both",
        agreement(&[window_action("x", 0, 1, 0), window_action("x", 1, 0, 1)]),
        2,
        NonStabilizing,
        "E5 / E9 (both t-arcs: the Example 5.2 livelock)",
        Some(10..=21),
        None,
    );
    add(
        "matching-b1-b4",
        matching(
            "matching-non-generalizable",
            &[
                "m[r-1] == left && m[r] != self && m[r+1] == right -> m[r] := self",
                "m[r-1] == right && m[r] == self && m[r+1] == left -> m[r] := right",
                "m[r-1] == self && m[r] == self && m[r+1] == self -> m[r] := right",
                "m[r-1] == right && m[r] == right && m[r+1] == left -> m[r] := left",
                "m[r-1] == self && m[r] == self && m[r+1] == right -> m[r] := left",
                "m[r-1] == right && m[r] != left && m[r+1] != left -> m[r] := left",
                "m[r-1] != right && m[r] != right && m[r+1] == left -> m[r] := right",
            ],
        ),
        3,
        NonStabilizing,
        "E3 / erratum 1 (illegitimate deadlocks at K = 4 and every K >= 6)",
        Some(7..=13),
        None,
    );
    let incr = "E8 generalized (increment repair livelocks; K = 5 is clean for d = 5)";
    add(
        "coloring-incr-4",
        coloring_increment(4),
        4,
        NonStabilizing,
        incr,
        Some(5..=10),
        None,
    );
    add(
        "coloring-incr-5",
        coloring_increment(5),
        5,
        NonStabilizing,
        incr,
        Some(6..=9),
        None,
    );

    // Empty protocols: illegitimate deadlocks at every K, and the
    // synthesis inputs of Section 6.
    add(
        "agreement-empty",
        agreement(&[]),
        2,
        NonStabilizing,
        "E9 (2 one-t-arc solutions)",
        Some(10..=21),
        Some(SynthExpect {
            solutions: Some(2),
            ..SynthExpect::default()
        }),
    );
    add(
        "sum-not-two-empty",
        stab(
            "sum-not-two",
            "x",
            3,
            "unidirectional",
            "x[r] + x[r-1] != 2",
            &[],
        ),
        3,
        NonStabilizing,
        "E11 / erratum 2 (8 candidates, 4 rejected, {t21,t12,t01} accepted)",
        Some(7..=13),
        Some(SynthExpect {
            combinations: Some(8),
            rejected_by_trail: Some(4),
            solutions: Some(4),
            must_accept: Some(&["02->1", "11->2", "20->1"]),
        }),
    );
    add(
        "three-coloring",
        stab(
            "three-coloring",
            "c",
            3,
            "unidirectional",
            "c[r] != c[r-1]",
            &[],
        ),
        3,
        NonStabilizing,
        "E8 (8/8 candidates rejected)",
        Some(7..=13),
        Some(SynthExpect {
            combinations: Some(8),
            rejected_by_trail: Some(8),
            solutions: Some(0),
            must_accept: None,
        }),
    );
    add(
        "four-coloring",
        stab(
            "four-coloring",
            "c",
            4,
            "unidirectional",
            "c[r] != c[r-1]",
            &[],
        ),
        4,
        NonStabilizing,
        "d-coloring family (E8 generalized)",
        None,
        Some(SynthExpect::default()),
    );
    add(
        "five-coloring",
        stab(
            "five-coloring",
            "x",
            5,
            "unidirectional",
            "x[r] != x[r-1]",
            &[],
        ),
        5,
        NonStabilizing,
        "BENCH_synthesis.json prune workload (1024/1024 rejected)",
        None,
        Some(SynthExpect {
            combinations: Some(1024),
            rejected_by_trail: Some(1024),
            solutions: Some(0),
            must_accept: None,
        }),
    );
    add(
        "sum-not-three-empty",
        stab(
            "sum-not-three",
            "x",
            4,
            "unidirectional",
            "x[r] + x[r-1] != 3",
            &[],
        ),
        4,
        NonStabilizing,
        "BENCH_synthesis.json (81 combinations, 56 solutions)",
        None,
        Some(SynthExpect {
            combinations: Some(81),
            solutions: Some(56),
            ..SynthExpect::default()
        }),
    );
    add(
        "agreement-3-empty",
        stab(
            "agreement-3",
            "x",
            3,
            "unidirectional",
            "x[r] == x[r-1]",
            &[],
        ),
        3,
        NonStabilizing,
        "agreement family over d = 3",
        None,
        Some(SynthExpect::default()),
    );
    add(
        "sum-not-one-empty",
        stab(
            "sum-not-one",
            "x",
            2,
            "unidirectional",
            "x[r] + x[r-1] != 1",
            &[],
        ),
        2,
        NonStabilizing,
        "sum-not-k family over k = 1",
        None,
        Some(SynthExpect::default()),
    );
    specs
}

/// What a job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Verify,
    Sweep,
    Synthesize,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Verify => "verify",
            Kind::Sweep => "sweep",
            Kind::Synthesize => "synthesize",
        }
    }
}

/// One request of a job list.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into the catalogue.
    pub spec: usize,
    pub kind: Kind,
    pub k_from: usize,
    pub k_to: usize,
    /// Set on serve's cold jobs: a `max_states` no other request uses, so
    /// the request misses the cache while its document stays the same.
    pub max_states: Option<u64>,
}

impl Job {
    /// The `POST /v1/jobs` body. Engine and synthesis threads are pinned
    /// to 1; every other field keeps the program's default.
    pub fn body(&self, catalogue: &[Spec]) -> Value {
        let mut body = json!({
            "kind": self.kind.name(),
            "spec": catalogue[self.spec].text.clone(),
            "threads": 1,
        });
        if let Value::Object(map) = &mut body {
            if self.kind != Kind::Synthesize {
                map.insert("k".into(), Value::from(self.k_from as u64));
            }
            if self.kind == Kind::Sweep {
                map.insert("to".into(), Value::from(self.k_to as u64));
            }
            if let Some(max) = self.max_states {
                map.insert("max_states".into(), Value::from(max));
            }
        }
        body
    }

    /// The job's identity for the oracle: everything its document depends
    /// on.
    pub fn key(&self) -> (usize, Kind, usize, usize) {
        (self.spec, self.kind, self.k_from, self.k_to)
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
