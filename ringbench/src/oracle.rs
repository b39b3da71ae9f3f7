//! The correctness oracle: every document the program returns is checked
//! against the local theorems, the input's class label and the paper's
//! published synthesis answers before it counts as decided.
//!
//! A job's first document is checked in full; every later document for
//! the same job must repeat it byte for byte (the engines are
//! deterministic), which also covers the rule that a served document is
//! byte-identical to in-process `jobs::execute`.

use std::collections::{BTreeSet, HashMap};

use selfstab_core::livelock::CertificateScope;
use selfstab_core::{local_closure_check, DeadlockAnalysis, LivelockAnalysis};
use selfstab_protocol::file::parse_protocol_file;
use serde_json::Value;

use crate::corpus::{Class, Job, Kind, Spec};

/// What the local theorems say about one protocol.
struct LocalFacts {
    /// Theorem 4.2, exact: ring sizes `1..=max_k` with an illegitimate
    /// global deadlock.
    deadlocked: Vec<usize>,
    deadlock_free: bool,
    /// Theorem 5.14 certificate, and whether it covers every livelock.
    livelock_certified: bool,
    scope_all: bool,
    closure_ok: bool,
}

impl LocalFacts {
    fn of(text: &str, max_k: usize) -> Result<Self, String> {
        let protocol =
            parse_protocol_file(text).map_err(|e| format!("spec does not parse: {e}"))?;
        let deadlock = DeadlockAnalysis::analyze(&protocol);
        let livelock = LivelockAnalysis::analyze(&protocol);
        Ok(LocalFacts {
            deadlocked: deadlock.deadlocked_ring_sizes(max_k),
            deadlock_free: deadlock.is_free_for_all_k(),
            livelock_certified: livelock.certified_free(),
            scope_all: livelock.scope() == CertificateScope::AllLivelocks,
            closure_ok: local_closure_check(&protocol).is_ok(),
        })
    }

    /// Theorems 4.2 and 5.14 plus local closure: stabilizing for all K.
    fn certified(&self) -> bool {
        self.deadlock_free && self.livelock_certified && self.scope_all && self.closure_ok
    }
}

pub struct Oracle<'a> {
    catalogue: &'a [Spec],
    facts: HashMap<usize, LocalFacts>,
    /// Documents that passed the full check, by job identity.
    accepted: HashMap<(usize, Kind, usize, usize), (String, u8)>,
}

impl<'a> Oracle<'a> {
    pub fn new(catalogue: &'a [Spec]) -> Self {
        Oracle {
            catalogue,
            facts: HashMap::new(),
            accepted: HashMap::new(),
        }
    }

    /// The accepted document for `job`, once one has passed.
    pub fn accepted(&self, job: &Job) -> Option<&(String, u8)> {
        self.accepted.get(&job.key())
    }

    fn facts_for(&mut self, spec: usize) -> Result<&LocalFacts, String> {
        if !self.facts.contains_key(&spec) {
            let s = &self.catalogue[spec];
            let max_k = s.ks.iter().copied().max().unwrap_or(1);
            self.facts.insert(spec, LocalFacts::of(&s.text, max_k)?);
        }
        Ok(&self.facts[&spec])
    }

    /// Checks one completed document; `Err` carries the reason it is wrong.
    pub fn check(&mut self, job: &Job, doc: &str, exit_code: u8) -> Result<(), String> {
        if let Some((bytes, code)) = self.accepted.get(&job.key()) {
            if bytes != doc || *code != exit_code {
                return Err(format!(
                    "{} {} K={}..{}: document differs from the accepted one",
                    self.catalogue[job.spec].name,
                    job.kind.name(),
                    job.k_from,
                    job.k_to
                ));
            }
            return Ok(());
        }
        let value: Value =
            serde_json::from_str(doc).map_err(|e| format!("document is not JSON: {e}"))?;
        let ok = match job.kind {
            Kind::Verify | Kind::Sweep => self.check_rows(job, &value)?,
            Kind::Synthesize => self.check_synthesis(job, &value)?,
        };
        if exit_code != if ok { 0 } else { 2 } {
            return Err(format!("exit code {exit_code} disagrees with the verdict"));
        }
        self.accepted.insert(job.key(), (doc.to_owned(), exit_code));
        Ok(())
    }

    /// Returns whether every row self-stabilizes.
    fn check_rows(&mut self, job: &Job, value: &Value) -> Result<bool, String> {
        let spec = &self.catalogue[job.spec];
        let (name, class, domain) = (spec.name, spec.class, spec.domain);
        let facts = self.facts_for(job.spec)?;
        let rows = value
            .as_array()
            .ok_or("verify document is not a row array")?;
        if rows.len() != job.k_to - job.k_from + 1 {
            return Err(format!(
                "{name}: {} rows for K={}..{}",
                rows.len(),
                job.k_from,
                job.k_to
            ));
        }
        match class {
            Class::Certified if !facts.certified() => {
                return Err(format!(
                    "{name}: labelled certified but the local theorems disagree"
                ))
            }
            Class::StabilizingUncertified | Class::NonStabilizing if facts.certified() => {
                return Err(format!(
                    "{name}: labelled uncertified but the local theorems certify it"
                ))
            }
            _ => {}
        }
        let mut all_ok = true;
        for (row, k) in rows.iter().zip(job.k_from..=job.k_to) {
            let field = |key: &str| -> Result<&Value, String> {
                match row {
                    Value::Object(map) => map.get(key),
                    _ => None,
                }
                .ok_or(format!("{name} K={k}: row lacks `{key}`"))
            };
            let fail = |what: &str| Err(format!("{name} K={k}: {what}"));
            if field("ring_size")?.as_u64() != Some(k as u64) {
                return fail("wrong ring_size");
            }
            if field("state_count")?.as_u64() != domain.checked_pow(k as u32) {
                return fail("state_count is not d^K");
            }
            let deadlocks = field("illegitimate_deadlocks")?
                .as_u64()
                .ok_or("deadlocks")?;
            if (deadlocks > 0) != facts.deadlocked.contains(&k) {
                return fail("disagrees with Theorem 4.2's deadlocked ring sizes");
            }
            let livelock = !field("livelock_length")?.is_null();
            if livelock && facts.livelock_certified && facts.scope_all {
                return fail("livelock reported on a Theorem 5.14-certified protocol");
            }
            let closure_ok = field("closure_ok")?.as_bool().ok_or("closure_ok")?;
            if facts.closure_ok && !closure_ok {
                return fail("closure violation on a locally closed protocol");
            }
            let stabilizing = field("self_stabilizing")?
                .as_bool()
                .ok_or("self_stabilizing")?;
            if stabilizing != (closure_ok && deadlocks == 0 && !livelock) {
                return fail("self_stabilizing contradicts its own row");
            }
            if stabilizing != (class != Class::NonStabilizing) {
                return fail(&format!("verdict contradicts class `{}`", class.name()));
            }
            all_ok &= stabilizing;
        }
        Ok(all_ok)
    }

    /// Returns whether synthesis succeeded.
    fn check_synthesis(&mut self, job: &Job, value: &Value) -> Result<bool, String> {
        let spec = &self.catalogue[job.spec];
        let name = spec.name;
        let solutions = value["solutions"]
            .as_array()
            .ok_or(format!("{name}: no solutions array"))?;
        let counters = &value["counters"];
        let count = |key: &str| counters[key].as_u64().unwrap_or(u64::MAX);
        let success = value["success"].as_bool() == Some(true);
        if success == solutions.is_empty()
            || value["truncated"].as_bool() != Some(false)
            || value["cancelled"].as_bool() != Some(false)
            || count("solutions_found") != solutions.len() as u64
        {
            return Err(format!("{name}: inconsistent synthesis outcome"));
        }
        if let Some(expect) = spec.synth {
            let mismatch = expect
                .solutions
                .is_some_and(|n| n != solutions.len() as u64)
                || expect
                    .combinations
                    .is_some_and(|c| c != count("combinations_tried"))
                || expect
                    .rejected_by_trail
                    .is_some_and(|r| r != count("rejected_by_trail"));
            if mismatch {
                return Err(format!(
                    "{name}: synthesis disagrees with the published answer"
                ));
            }
            if let Some(set) = expect.must_accept {
                let want: BTreeSet<String> = set.iter().map(|s| (*s).to_owned()).collect();
                let found = solutions.iter().any(|s| {
                    let added: BTreeSet<String> = s["added"]
                        .as_array()
                        .into_iter()
                        .flatten()
                        .map(|t| {
                            format!(
                                "{}->{}",
                                t["from"].as_str().unwrap_or(""),
                                t["to"].as_str().unwrap_or("")
                            )
                        })
                        .collect();
                    added == want
                });
                if !found {
                    return Err(format!("{name}: the paper's solution is not accepted"));
                }
            }
        }
        for solution in solutions {
            let text = solution["protocol_file"]
                .as_str()
                .ok_or(format!("{name}: solution without protocol_file"))?;
            if !LocalFacts::of(text, 1)?.certified() {
                return Err(format!(
                    "{name}: an accepted solution is not certified again"
                ));
            }
        }
        Ok(success)
    }
}
