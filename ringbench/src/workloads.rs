//! The four workloads and their seeded job lists.
//!
//! A run is a number of *rounds*. Every round of a workload holds the same
//! slots: a group of specs of near-equal cost, a kind and a ring-size
//! range. The seed picks which spec of the group fills each slot and the
//! order of the round, so every seed exercises different protocols while
//! the round's total work, and with it every end-to-end metric, stays put.
//! The slot mix places p99 inside a cluster of equal-cost jobs instead of
//! on the cliff between two tiers.

use crate::corpus::{Job, Kind, Rng, Spec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    VerifyCertified,
    VerifyUncertified,
    Synthesize,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VerifyCertified,
        Workload::VerifyUncertified,
        Workload::Synthesize,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyCertified => "verify-certified",
            Workload::VerifyUncertified => "verify-uncertified",
            Workload::Synthesize => "synthesize",
            Workload::ServeWarm => "serve-warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A job decided later than this counts as a miss. Each limit sits
    /// far above the workload's slowest job, where its latency
    /// distribution is empty.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::VerifyCertified | Workload::VerifyUncertified => 2000.0,
            Workload::Synthesize => 5000.0,
            Workload::ServeWarm => 1000.0,
        }
    }

    /// Wall time of one round on the reference host (2 cores). The run
    /// does a fixed number of rounds, `--seconds` divided by this, so the
    /// work measured never depends on how fast the program is.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::VerifyCertified => 1.35,
            Workload::VerifyUncertified => 1.35,
            Workload::Synthesize => 1.2,
            Workload::ServeWarm => 0.16,
        }
    }

    pub fn rounds(self, seconds: f64) -> usize {
        ((seconds / self.nominal_round_s()).round() as usize).max(2)
    }
}

/// One slot of a round: `count` jobs of `kind` over `k_from..=k_to`, each
/// on a spec the seed picks from `group`.
struct Slot {
    group: &'static [&'static str],
    kind: Kind,
    k_from: usize,
    k_to: usize,
    count: usize,
}

const fn verify(group: &'static [&'static str], k: usize, count: usize) -> Slot {
    Slot {
        group,
        kind: Kind::Verify,
        k_from: k,
        k_to: k,
        count,
    }
}

const fn sweep(group: &'static [&'static str], k_from: usize, k_to: usize) -> Slot {
    Slot {
        group,
        kind: Kind::Sweep,
        k_from,
        k_to,
        count: 1,
    }
}

const fn synth(group: &'static [&'static str], count: usize) -> Slot {
    Slot {
        group,
        kind: Kind::Synthesize,
        k_from: 0,
        k_to: 0,
        count,
    }
}

// Certified groups (one per domain size; equal state counts per K).
const A2: &[&str] = &["agreement", "agreement-other"];
const S3: &[&str] = &[
    "sum-not-two-t01-t12-t21",
    "sum-not-two-t01-t10-t20",
    "sum-not-two-t01-t10-t21",
    "sum-not-two-t02-t12-t21",
    "max-agreement-3",
];
const M4: &[&str] = &["max-agreement-4"];
const M5: &[&str] = &["max-agreement-5"];
const M6: &[&str] = &["max-agreement-6"];

// Uncertified groups, split by how far the engine must walk.
const MIS: &[&str] = &["mis"];
const GAP3: &[&str] = &["sum-not-two-t01-t12-t20", "sum-not-two-t02-t10-t21"];
const MATCH_A: &[&str] = &["matching-a1-a5"];
const MATCH_B: &[&str] = &["matching-b1-b4"];
const DEAD3: &[&str] = &["three-coloring", "sum-not-two-empty"];
const DEAD2: &[&str] = &["agreement-empty"];
const LIVE3: &[&str] = &[
    "three-coloring-t120",
    "three-coloring-t201",
    "three-coloring-t101",
    "three-coloring-t220",
    "sum-not-two-t02-t10-t20",
    "sum-not-two-t02-t12-t20",
];
const LIVE2: &[&str] = &["agreement-both"];
const INCR4: &[&str] = &["coloring-incr-4"];
const INCR5: &[&str] = &["coloring-incr-5"];

// Synthesis groups.
const PAPER_SYNTH: &[&str] = &[
    "agreement-empty",
    "sum-not-two-empty",
    "three-coloring",
    "sum-not-one-empty",
];
const TINY_SYNTH: &[&str] = &["agreement-empty", "sum-not-one-empty"];

/// 121 jobs, about 1.3 s. Ordered by cost, a round is: 42 cheap verifies
/// under 1 ms; the p50 cluster of 36 agreement K=12 verifies (4096
/// states, ~1 ms); 41 costlier verifies and sweeps up to 1.6M states; and
/// the p99 cluster of 2 agreement K=21 verifies (2.1M states).
const VERIFY_CERTIFIED: &[Slot] = &[
    // p99 cluster.
    verify(&["agreement"], 21, 2),
    // Above the median: every domain size, 2^13 to 1.6M states.
    verify(&["sum-not-two-t01-t12-t21"], 13, 1),
    verify(&["agreement-other"], 19, 1),
    verify(&["sum-not-two-t01-t10-t21"], 12, 1),
    verify(M4, 9, 1),
    verify(M5, 8, 1),
    verify(M6, 7, 1),
    verify(A2, 18, 1),
    verify(A2, 17, 1),
    verify(S3, 11, 1),
    verify(M4, 8, 1),
    verify(M5, 7, 1),
    verify(M6, 6, 1),
    verify(A2, 16, 2),
    verify(S3, 10, 2),
    verify(A2, 15, 2),
    verify(S3, 9, 2),
    sweep(A2, 12, 15),
    sweep(S3, 8, 10),
    sweep(M4, 6, 8),
    sweep(M5, 5, 7),
    sweep(M6, 4, 6),
    sweep(A2, 10, 13),
    verify(A2, 14, 3),
    verify(A2, 13, 3),
    verify(S3, 8, 3),
    verify(M4, 7, 2),
    verify(M5, 6, 2),
    verify(M6, 5, 2),
    // p50 cluster.
    verify(&["agreement"], 12, 36),
    // Below the median.
    verify(A2, 10, 10),
    verify(A2, 11, 10),
    verify(S3, 7, 10),
    verify(M4, 5, 4),
    verify(M5, 5, 4),
    verify(M6, 4, 4),
];

/// 118 jobs, about 1.3 s, over the same K span. Ordered by cost: 42 cheap
/// verifies under 1.2 ms; the p50 cluster of 36 MIS K=12 verifies (4096
/// states, ~1.5 ms); 38 costlier verifies and sweeps up to 1.6M states;
/// and the p99 cluster of 2 verifies of one stabilizing sum-not-two
/// candidate at K=13 (1.6M states).
const VERIFY_UNCERTIFIED: &[Slot] = &[
    // p99 cluster.
    verify(&["sum-not-two-t02-t10-t21"], 13, 2),
    // Above the median: deadlocking, livelocking and stabilizing inputs.
    verify(&["three-coloring"], 13, 1),
    verify(MATCH_A, 12, 1),
    verify(MATCH_B, 12, 1),
    verify(MIS, 18, 1),
    verify(&["sum-not-two-t01-t12-t20"], 12, 1),
    verify(DEAD2, 19, 1),
    verify(LIVE3, 13, 2),
    verify(LIVE2, 21, 1),
    verify(INCR5, 9, 1),
    verify(INCR4, 10, 1),
    verify(MATCH_A, 11, 1),
    verify(MATCH_B, 11, 1),
    verify(MIS, 17, 1),
    verify(DEAD2, 17, 1),
    verify(GAP3, 11, 1),
    verify(DEAD3, 11, 1),
    verify(LIVE3, 12, 2),
    verify(GAP3, 10, 2),
    verify(MIS, 16, 2),
    sweep(MIS, 12, 15),
    sweep(GAP3, 8, 10),
    sweep(LIVE3, 10, 12),
    sweep(DEAD3, 8, 10),
    sweep(INCR4, 6, 8),
    sweep(MATCH_A, 8, 9),
    verify(MIS, 14, 2),
    verify(MIS, 13, 2),
    verify(GAP3, 9, 1),
    verify(MATCH_A, 9, 1),
    verify(DEAD3, 9, 1),
    verify(LIVE2, 18, 2),
    // p50 cluster.
    verify(MIS, 12, 36),
    // Below the median.
    verify(MIS, 10, 8),
    verify(MIS, 11, 6),
    verify(GAP3, 7, 6),
    verify(MATCH_A, 7, 4),
    verify(LIVE3, 7, 6),
    verify(LIVE3, 8, 4),
    verify(DEAD3, 7, 4),
    verify(LIVE2, 12, 2),
    verify(LIVE2, 13, 2),
];

/// 400 jobs, about 1.2 s. Ordered by cost: 150 sub-0.1 ms syntheses
/// (agreement, sum-not-one); the p50 cluster of 100 three-coloring
/// syntheses (E8, ~0.3 ms); 85 sum-not-two (E11) and 40 agreement d=3
/// syntheses; 16 four-coloring, then the p99 cluster of 8 five-coloring
/// (1024 combinations) and one 81-combination sum-not-three.
const SYNTHESIZE: &[Slot] = &[
    synth(&["sum-not-three-empty"], 1),
    synth(&["five-coloring"], 8),
    synth(&["four-coloring"], 16),
    synth(&["agreement-3-empty"], 40),
    synth(&["sum-not-two-empty"], 85),
    synth(&["three-coloring"], 100),
    synth(TINY_SYNTH, 150),
];

/// serve-warm: the distinct requests the journal and snapshot are
/// prefilled with; every hit repeats one of them.
const SERVE_PREFILL: &[Slot] = &[
    verify(A2, 10, 1),
    verify(A2, 11, 1),
    verify(A2, 12, 1),
    verify(S3, 7, 1),
    verify(S3, 8, 1),
    verify(M4, 5, 1),
    verify(M5, 5, 1),
    verify(M6, 4, 1),
    verify(MIS, 10, 1),
    verify(MATCH_A, 7, 1),
    verify(LIVE3, 7, 1),
    verify(DEAD3, 7, 1),
    sweep(A2, 10, 12),
    sweep(S3, 7, 8),
    sweep(LIVE3, 7, 8),
    synth(PAPER_SYNTH, 1),
    synth(&["agreement-3-empty"], 1),
];

/// serve-warm: requests per round that repeat a prefilled key.
const SERVE_HITS_PER_ROUND: usize = 85;

/// serve-warm: the 15 cold jobs of a round, each with a `max_states` no
/// other request uses. p99 sits inside the 2-per-round sweep cluster.
const SERVE_COLD: &[Slot] = &[
    sweep(&["sum-not-two-t01-t12-t21"], 8, 10),
    sweep(&["sum-not-two-t01-t12-t21"], 8, 10),
    synth(&["four-coloring"], 1),
    verify(MIS, 14, 1),
    verify(A2, 15, 2),
    verify(S3, 9, 2),
    verify(M4, 7, 1),
    verify(M5, 6, 1),
    verify(LIVE3, 11, 2),
    synth(PAPER_SYNTH, 3),
];

fn slots(workload: Workload) -> &'static [Slot] {
    match workload {
        Workload::VerifyCertified => VERIFY_CERTIFIED,
        Workload::VerifyUncertified => VERIFY_UNCERTIFIED,
        Workload::Synthesize => SYNTHESIZE,
        Workload::ServeWarm => SERVE_COLD,
    }
}

fn index_of(catalogue: &[Spec], name: &str) -> usize {
    catalogue
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("slot names unknown spec `{name}`"))
}

fn fill(catalogue: &[Spec], slots: &[Slot], rng: &mut Rng, jobs: &mut Vec<Job>) {
    for slot in slots {
        for _ in 0..slot.count {
            let name = slot.group[rng.below(slot.group.len())];
            jobs.push(Job {
                spec: index_of(catalogue, name),
                kind: slot.kind,
                k_from: slot.k_from,
                k_to: slot.k_to,
                max_states: None,
            });
        }
    }
}

/// Every distinct request of the serve-warm prefill, in a fixed order.
pub fn serve_prefill(catalogue: &[Spec]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for slot in SERVE_PREFILL {
        for name in slot.group {
            jobs.push(Job {
                spec: index_of(catalogue, name),
                kind: slot.kind,
                k_from: slot.k_from,
                k_to: slot.k_to,
                max_states: None,
            });
        }
    }
    jobs
}

/// The seeded job list of a run, one round at a time, so a run never
/// holds more than the round it is on.
pub struct Rounds {
    plan: Vec<Job>,
    /// Serve-warm: the first `cold` jobs of the plan are cold.
    cold: usize,
    serve: bool,
    rng: Rng,
    left: usize,
    fresh: u64,
}

impl Iterator for Rounds {
    type Item = Vec<Job>;

    fn next(&mut self) -> Option<Vec<Job>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut round = self.plan.clone();
        if self.serve {
            for job in &mut round[..self.cold] {
                self.fresh += 1;
                job.max_states = Some(selfstab_global::instance::DEFAULT_MAX_STATES - self.fresh);
            }
        }
        self.rng.shuffle(&mut round);
        Some(round)
    }
}

/// The seeded job list of a run, `rounds` rounds long. The seed picks
/// each slot's spec once, so every round repeats the same multiset and
/// rounds can be compared with each other, and it shuffles every round's
/// order. For serve-warm the round's hits are drawn once from the
/// prefill, and every cold job gets a `max_states` no other request of the
/// run uses.
///
/// Also returns the round's distinct jobs in slot order, heaviest first.
pub fn job_list(
    workload: Workload,
    catalogue: &[Spec],
    seed: u64,
    rounds: usize,
) -> (Vec<Job>, Rounds) {
    let mut rng = Rng::new(seed);
    let mut plan = Vec::new();
    fill(catalogue, slots(workload), &mut rng, &mut plan);
    let cold = plan.len();
    let serve = workload == Workload::ServeWarm;
    if serve {
        let prefill = serve_prefill(catalogue);
        for _ in 0..SERVE_HITS_PER_ROUND {
            plan.push(prefill[rng.below(prefill.len())].clone());
        }
    }
    let mut distinct: Vec<Job> = Vec::new();
    for job in &plan {
        if !distinct.iter().any(|d| d.key() == job.key()) {
            distinct.push(job.clone());
        }
    }
    let rounds = Rounds {
        plan,
        cold,
        serve,
        rng,
        left: rounds,
        fresh: 0,
    };
    (distinct, rounds)
}
