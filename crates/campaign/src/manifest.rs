//! Campaign manifests: which specs, which ring sizes, which budgets.
//!
//! A manifest is a small JSON document next to the corpus it describes:
//!
//! ```json
//! {
//!   "specs": ["specs/*.stab"],
//!   "k_from": 2,
//!   "k_to": 8,
//!   "max_states": 10000000,
//!   "timeout_ms": 30000,
//!   "engine_threads": 1
//! }
//! ```
//!
//! * `specs` — literal paths or `*` globs, resolved relative to the
//!   manifest file; glob matches are sorted so the expansion (and with it
//!   the job and report order) is deterministic.
//! * `k_from`/`k_to` — the inclusive ring-size range of the job matrix.
//! * `max_states` — per-job state budget: a job whose `d^K` exceeds it is
//!   reported [`Outcome::OverBudget`](crate::Outcome) without running.
//! * `timeout_ms` — optional per-job wall-clock deadline (cooperatively
//!   polled by the engine; an aborted job also degrades to `OverBudget`).
//! * `engine_threads` — intra-check parallelism handed to
//!   [`EngineConfig`](selfstab_global::EngineConfig), composable with the
//!   campaign's own `--jobs` worker count.
//! * `symmetry` — optional rotation-symmetry reduction policy for every
//!   job: `"auto"` (default), `"full"`, or `"reduced"`. Like thread
//!   counts, the mode never changes any verdict and is therefore excluded
//!   from the fingerprint.

use std::path::{Path, PathBuf};

use crate::job::JobSpec;
use crate::runner::CampaignError;

/// A parsed, glob-expanded campaign manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Directory the manifest lives in; spec paths resolve against it.
    pub base_dir: PathBuf,
    /// Expanded spec paths relative to `base_dir`, in manifest order
    /// (globs sorted lexicographically).
    pub specs: Vec<String>,
    /// First ring size of the matrix (inclusive).
    pub k_from: usize,
    /// Last ring size of the matrix (inclusive).
    pub k_to: usize,
    /// Per-job state budget (`d^K` above this is over budget).
    pub max_states: u64,
    /// Optional per-job wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Worker threads *inside* each job's fused scan.
    pub engine_threads: usize,
    /// Rotation-symmetry reduction policy for every job's engine.
    pub symmetry: selfstab_global::SymmetryMode,
}

impl Manifest {
    /// Reads and expands a manifest file.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] on IO problems, malformed JSON, missing
    /// fields, an empty spec expansion, or `k_from > k_to` / `k_from == 0`.
    pub fn from_file(path: &Path) -> Result<Self, CampaignError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Io(format!("cannot read `{}`: {e}", path.display())))?;
        let base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        Self::from_json_text(&text, &base_dir)
    }

    /// Parses manifest JSON with spec paths resolved against `base_dir`.
    ///
    /// # Errors
    ///
    /// As for [`Manifest::from_file`], minus the IO of the manifest itself.
    pub fn from_json_text(text: &str, base_dir: &Path) -> Result<Self, CampaignError> {
        let v = serde_json::from_str(text)
            .map_err(|e| CampaignError::Manifest(format!("malformed manifest JSON: {e}")))?;
        let patterns = v["specs"]
            .as_array()
            .ok_or_else(|| CampaignError::Manifest("manifest needs a `specs` array".into()))?;
        let mut specs = Vec::new();
        for p in patterns {
            let pattern = p
                .as_str()
                .ok_or_else(|| CampaignError::Manifest("`specs` entries must be strings".into()))?;
            let mut expanded = expand_pattern(base_dir, pattern)?;
            if expanded.is_empty() {
                return Err(CampaignError::Manifest(format!(
                    "spec pattern `{pattern}` matched nothing"
                )));
            }
            specs.append(&mut expanded);
        }
        if specs.is_empty() {
            // An empty matrix would sweep nothing and still render a clean
            // report — a silent no-op is worse than a loud refusal.
            return Err(CampaignError::Manifest(
                "manifest matched no spec files (`specs` expanded to nothing)".into(),
            ));
        }
        let k_from = v["k_from"]
            .as_u64()
            .ok_or_else(|| CampaignError::Manifest("manifest needs numeric `k_from`".into()))?
            as usize;
        let k_to = v["k_to"]
            .as_u64()
            .ok_or_else(|| CampaignError::Manifest("manifest needs numeric `k_to`".into()))?
            as usize;
        if k_from == 0 || k_from > k_to {
            return Err(CampaignError::Manifest(format!(
                "ring-size range {k_from}..={k_to} is empty or starts at 0"
            )));
        }
        let max_states = v["max_states"]
            .as_u64()
            .unwrap_or(selfstab_global::instance::DEFAULT_MAX_STATES);
        let timeout_ms = v["timeout_ms"].as_u64();
        let engine_threads = v["engine_threads"].as_u64().unwrap_or(1) as usize;
        let symmetry = match v["symmetry"].as_str() {
            None => selfstab_global::SymmetryMode::default(),
            Some(mode) => mode.parse().map_err(|e: String| {
                CampaignError::Manifest(format!("manifest `symmetry`: {e}"))
            })?,
        };
        Ok(Manifest {
            base_dir: base_dir.to_path_buf(),
            specs,
            k_from,
            k_to,
            max_states,
            timeout_ms,
            engine_threads,
            symmetry,
        })
    }

    /// The full job matrix in canonical (manifest) order: specs in
    /// expansion order, each at `k_from..=k_to` ascending.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut out = Vec::with_capacity(self.specs.len() * (self.k_to - self.k_from + 1));
        for (spec_index, spec) in self.specs.iter().enumerate() {
            for k in self.k_from..=self.k_to {
                out.push(JobSpec {
                    spec_index,
                    spec: spec.clone(),
                    k,
                });
            }
        }
        out
    }

    /// The absolute path of spec `spec_index`.
    pub fn spec_path(&self, spec_index: usize) -> PathBuf {
        self.base_dir.join(&self.specs[spec_index])
    }

    /// A stable fingerprint of the semantic manifest fields (specs, K
    /// range, budgets), used to refuse resuming a journal written by a
    /// different campaign. Worker counts, engine threads and the symmetry
    /// mode are excluded: they never change any verdict.
    pub fn fingerprint(&self) -> String {
        // FNV-1a over a canonical rendering; no external hash deps.
        let mut canon = String::new();
        for s in &self.specs {
            canon.push_str(s);
            canon.push('\n');
        }
        canon.push_str(&format!(
            "k={}..={};max_states={};timeout_ms={:?}",
            self.k_from, self.k_to, self.max_states, self.timeout_ms
        ));
        format!("{:016x}", crate::chaos::fnv1a(canon.bytes()))
    }
}

/// Expands one manifest pattern relative to `base_dir`. Literal paths pass
/// through; a pattern whose final segment contains `*` matches directory
/// entries with a simple wildcard, sorted lexicographically.
fn expand_pattern(base_dir: &Path, pattern: &str) -> Result<Vec<String>, CampaignError> {
    if !pattern.contains('*') {
        return Ok(vec![pattern.to_owned()]);
    }
    let (dir_part, file_pattern) = match pattern.rsplit_once('/') {
        Some((d, f)) => (d, f),
        None => ("", pattern),
    };
    if dir_part.contains('*') {
        return Err(CampaignError::Manifest(format!(
            "`*` is only supported in the final path segment: `{pattern}`"
        )));
    }
    let dir = base_dir.join(dir_part);
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| CampaignError::Io(format!("cannot list `{}`: {e}", dir.display())))?;
    let mut matches = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| CampaignError::Io(format!("cannot list `{}`: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if wildcard_match(file_pattern, name) {
            matches.push(if dir_part.is_empty() {
                name.to_owned()
            } else {
                format!("{dir_part}/{name}")
            });
        }
    }
    matches.sort();
    Ok(matches)
}

/// Glob-lite: `*` matches any (possibly empty) run of characters; all other
/// characters match literally.
fn wildcard_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    // Classic two-pointer wildcard matching with backtracking to the most
    // recent star.
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut backtrack) = (None::<usize>, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            backtrack = ni;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            backtrack += 1;
            ni = backtrack;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_semantics() {
        assert!(wildcard_match("*.stab", "agreement.stab"));
        assert!(wildcard_match("agree*", "agreement.stab"));
        assert!(wildcard_match("*", "anything"));
        assert!(wildcard_match("a*b*c", "aXbYc"));
        assert!(!wildcard_match("*.stab", "agreement.json"));
        assert!(!wildcard_match("x*.stab", "agreement.stab"));
    }

    fn specs_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn glob_expansion_is_sorted_and_relative() {
        let specs = expand_pattern(&specs_dir(), "specs/*.stab").unwrap();
        assert!(specs.len() >= 10, "expected the corpus, got {specs:?}");
        let mut sorted = specs.clone();
        sorted.sort();
        assert_eq!(specs, sorted);
        assert!(specs.iter().all(|s| s.starts_with("specs/")));
    }

    #[test]
    fn manifest_parses_and_fingerprints_stably() {
        let text = r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 4, "max_states": 4096}"#;
        let m = Manifest::from_json_text(text, &specs_dir()).unwrap();
        assert_eq!(m.k_from, 2);
        assert_eq!(m.k_to, 4);
        assert_eq!(m.max_states, 4096);
        assert_eq!(m.jobs().len(), m.specs.len() * 3);
        let again = Manifest::from_json_text(text, &specs_dir()).unwrap();
        assert_eq!(m.fingerprint(), again.fingerprint());
        let other = Manifest::from_json_text(
            r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 5}"#,
            &specs_dir(),
        )
        .unwrap();
        assert_ne!(m.fingerprint(), other.fingerprint());
    }

    #[test]
    fn manifest_symmetry_parses_and_never_perturbs_the_fingerprint() {
        let dir = specs_dir();
        let plain = r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 4}"#;
        let reduced =
            r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 4, "symmetry": "reduced"}"#;
        let a = Manifest::from_json_text(plain, &dir).unwrap();
        let b = Manifest::from_json_text(reduced, &dir).unwrap();
        assert_eq!(a.symmetry, selfstab_global::SymmetryMode::Auto);
        assert_eq!(b.symmetry, selfstab_global::SymmetryMode::Reduced);
        // The mode never changes a verdict, so journals must stay
        // resumable across it — exactly like engine_threads.
        assert_eq!(a.fingerprint(), b.fingerprint());
        let bad = Manifest::from_json_text(
            r#"{"specs": ["specs/*.stab"], "k_from": 2, "k_to": 4, "symmetry": "orbit"}"#,
            &dir,
        )
        .expect_err("unknown symmetry mode is an error");
        assert!(bad.to_string().contains("symmetry"), "{bad}");
    }

    #[test]
    fn manifest_rejects_bad_input() {
        let dir = specs_dir();
        assert!(Manifest::from_json_text("{", &dir).is_err());
        assert!(Manifest::from_json_text(r#"{"specs": []}"#, &dir).is_err());
        // An empty expansion must fail loudly even when the K range is
        // well-formed — a zero-job campaign would render a clean report.
        let empty = Manifest::from_json_text(r#"{"specs": [], "k_from": 2, "k_to": 3}"#, &dir)
            .expect_err("empty spec expansion is an error");
        assert!(
            empty.to_string().contains("matched no spec files"),
            "diagnostic names the problem: {empty}"
        );
        assert!(Manifest::from_json_text(
            r#"{"specs": ["specs/*.stab"], "k_from": 5, "k_to": 2}"#,
            &dir
        )
        .is_err());
        assert!(Manifest::from_json_text(
            r#"{"specs": ["specs/no_such_*.stab"], "k_from": 2, "k_to": 3}"#,
            &dir
        )
        .is_err());
    }

    #[test]
    fn jobs_enumerate_in_manifest_order() {
        let m = Manifest::from_json_text(
            r#"{"specs": ["specs/mis.stab", "specs/agreement.stab"], "k_from": 2, "k_to": 3}"#,
            &specs_dir(),
        )
        .unwrap();
        let jobs = m.jobs();
        let cells: Vec<(usize, usize)> = jobs.iter().map(|j| (j.spec_index, j.k)).collect();
        assert_eq!(cells, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        assert_eq!(jobs[0].spec, "specs/mis.stab");
    }
}
