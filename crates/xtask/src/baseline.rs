//! Ratchet baseline: known findings that may only shrink.
//!
//! New analysis passes land with pre-existing findings; blocking the gate
//! on all of them at once would freeze the repo. Instead the committed
//! `crates/xtask/baseline.toml` records, per pass and file, how many
//! findings are tolerated. The gate then fails on any finding *beyond*
//! the recorded count — so new debt is impossible — and warns when a
//! count is stale (the code got better; shrink the baseline to lock the
//! improvement in). Regenerate with
//! `cargo run -p xtask -- lint --write-baseline`.
//!
//! The format is a strict TOML subset (tables of `"path" = count`) parsed
//! by hand because the workspace builds with no external dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::Violation;

/// Tolerated finding counts, keyed by pass then file path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub counts: BTreeMap<String, BTreeMap<String, usize>>,
}

/// The result of filtering a finding list through a baseline.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// Findings beyond the baseline — these fail the gate.
    pub new: Vec<Violation>,
    /// Findings covered by the baseline — reported, not fatal.
    pub baselined: Vec<Violation>,
    /// Baseline entries larger than reality — shrink them.
    pub stale: Vec<String>,
}

impl Baseline {
    /// Parses the TOML subset: `[pass]` tables of `"path" = count`.
    ///
    /// # Errors
    ///
    /// Returns the offending line when it is neither a comment, a table
    /// header, nor a `key = integer` entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        let mut section: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().trim_matches('"');
                if name.is_empty() {
                    return Err(format!("baseline line {}: empty table name", i + 1));
                }
                section = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("baseline line {}: expected `key = count`", i + 1));
            };
            let Some(pass) = &section else {
                return Err(format!(
                    "baseline line {}: entry before any [pass] table",
                    i + 1
                ));
            };
            let path = key.trim().trim_matches('"').to_string();
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("baseline line {}: count is not an integer", i + 1))?;
            if n == 0 {
                return Err(format!(
                    "baseline line {}: zero-count entry — delete it instead",
                    i + 1
                ));
            }
            counts.entry(pass.clone()).or_default().insert(path, n);
        }
        Ok(Baseline { counts })
    }

    /// Builds a baseline that tolerates exactly the given findings.
    #[must_use]
    pub fn from_violations(violations: &[Violation]) -> Self {
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for v in violations {
            *counts
                .entry(v.pass.to_string())
                .or_default()
                .entry(v.path.clone())
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Serializes back to the TOML subset, deterministically ordered.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::from(
            "# xtask lint ratchet baseline — tolerated pre-existing findings.\n\
             # Counts may only decrease; findings beyond a count fail the gate.\n\
             # Regenerate with: cargo run -p xtask -- lint --write-baseline\n",
        );
        for (pass, files) in &self.counts {
            let _ = write!(out, "\n[{pass}]\n");
            for (path, n) in files {
                let _ = writeln!(out, "\"{path}\" = {n}");
            }
        }
        out
    }

    /// Splits findings into new vs baselined and reports stale entries.
    ///
    /// Findings are consumed in order per `(pass, path)` key: the first
    /// `count` stay baselined, anything further is new.
    #[must_use]
    pub fn apply(&self, violations: Vec<Violation>) -> Applied {
        let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut applied = Applied::default();
        for v in violations {
            let allowed = self
                .counts
                .get(v.pass)
                .and_then(|files| files.get(&v.path))
                .copied()
                .unwrap_or(0);
            let slot = used
                .entry((v.pass.to_string(), v.path.clone()))
                .or_insert(0);
            *slot += 1;
            if *slot <= allowed {
                applied.baselined.push(v);
            } else {
                applied.new.push(v);
            }
        }
        for (pass, files) in &self.counts {
            for (path, &allowed) in files {
                let actual = used
                    .get(&(pass.clone(), path.clone()))
                    .copied()
                    .unwrap_or(0);
                if actual < allowed {
                    applied.stale.push(format!(
                        "[{pass}] {path}: baseline allows {allowed} but only {actual} found — shrink the entry"
                    ));
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pass: &'static str, path: &str, line: usize) -> Violation {
        Violation::new(pass, path, line, "m")
    }

    #[test]
    fn roundtrips_through_toml() {
        let b = Baseline::from_violations(&[
            v("range-proof", "crates/a/src/x.rs", 1),
            v("range-proof", "crates/a/src/x.rs", 9),
            v("error-discipline", "crates/b/src/y.rs", 3),
        ]);
        let text = b.to_toml();
        assert!(text.contains("[range-proof]"));
        assert!(text.contains("\"crates/a/src/x.rs\" = 2"));
        let parsed = Baseline::parse(&text).expect("parse");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(
            Baseline::parse("\"a.rs\" = 1\n").is_err(),
            "entry before table"
        );
        assert!(Baseline::parse("[p]\n\"a.rs\" = x\n").is_err(), "bad count");
        assert!(
            Baseline::parse("[p]\n\"a.rs\" = 0\n").is_err(),
            "zero count"
        );
        assert!(Baseline::parse("[p]\nnonsense\n").is_err(), "no equals");
        assert!(Baseline::parse("[]\n").is_err(), "empty table");
    }

    #[test]
    fn apply_ratchets_counts() {
        let b = Baseline::parse("[range-proof]\n\"a.rs\" = 2\n").expect("parse");
        // Equal count: all baselined.
        let a = b.apply(vec![
            v("range-proof", "a.rs", 1),
            v("range-proof", "a.rs", 2),
        ]);
        assert!(a.new.is_empty());
        assert_eq!(a.baselined.len(), 2);
        assert!(a.stale.is_empty());
        // One extra: the overflow is new.
        let a = b.apply(vec![
            v("range-proof", "a.rs", 1),
            v("range-proof", "a.rs", 2),
            v("range-proof", "a.rs", 3),
        ]);
        assert_eq!(a.new.len(), 1);
        assert_eq!(a.new[0].line, 3);
        // A different file or pass is never covered.
        let a = b.apply(vec![
            v("range-proof", "b.rs", 1),
            v("determinism", "a.rs", 1),
        ]);
        assert_eq!(a.new.len(), 2);
    }

    #[test]
    fn shrunk_findings_surface_stale_entries() {
        let b = Baseline::parse("[range-proof]\n\"a.rs\" = 3\n\"gone.rs\" = 1\n").expect("parse");
        let a = b.apply(vec![v("range-proof", "a.rs", 1)]);
        assert!(a.new.is_empty());
        assert_eq!(a.stale.len(), 2, "{:?}", a.stale);
        assert!(a.stale[0].contains("allows 3 but only 1"));
        assert!(a.stale[1].contains("gone.rs"));
    }

    #[test]
    fn empty_baseline_passes_everything_through_as_new() {
        let a = Baseline::default().apply(vec![v("hygiene", "a.rs", 0)]);
        assert_eq!(a.new.len(), 1);
        assert!(a.baselined.is_empty());
    }
}
