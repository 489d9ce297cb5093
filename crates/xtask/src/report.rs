//! Machine- and human-readable lint reports.

use std::fmt::Write as _;

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Pass identifier (one of [`crate::PASSES`]).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number; 0 when the finding is file-level.
    pub line: usize,
    /// What went wrong and how to fix it.
    pub message: String,
    /// Interprocedural witness chain (source → … → sink) for dataflow
    /// passes; empty for per-file findings.
    pub chain: Vec<String>,
}

impl Violation {
    /// A finding of `pass` at `path:line` with no witness chain.
    pub fn new(pass: &'static str, path: &str, line: usize, message: impl Into<String>) -> Self {
        Violation {
            pass,
            path: path.to_string(),
            line,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Attaches a witness call chain (builder style).
    #[must_use]
    pub fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }

    /// Stable finding identifier, usable with `--explain`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}@{}:{}", self.pass, self.path, self.line)
    }
}

/// The result of a full lint run; every violation fails the gate.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding, sorted by pass, path and line.
    pub violations: Vec<Violation>,
    /// Source files the run loaded.
    pub files_scanned: usize,
    /// The passes whose findings the report holds.
    pub passes_run: Vec<&'static str>,
}

impl Report {
    /// True when nothing fails the gate.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report, one line per violation plus a summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            if v.line > 0 {
                let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.pass, v.message);
            } else {
                let _ = writeln!(out, "{}: [{}] {}", v.path, v.pass, v.message);
            }
        }
        let _ = writeln!(
            out,
            "lint: {} violation(s) across {} file(s); passes: {}",
            self.violations.len(),
            self.files_scanned,
            self.passes_run.join(", ")
        );
        out
    }

    /// SARIF 2.1.0 report (hand-rolled; the workspace has no serde).
    ///
    /// One run, one rule per pass, one `error`-level result per finding.
    /// A non-empty witness chain becomes a `codeFlow` with one location
    /// per hop.
    #[must_use]
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \
             \"name\": \"xtask-lint\",\n      \"rules\": [",
        );
        for (i, pass) in self.passes_run.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{\"id\": \"{p}\", \"shortDescription\": {{\"text\": \"{p} pass\"}}}}",
                p = escape(pass)
            );
        }
        if !self.passes_run.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }},\n    \"results\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \
                 \"message\": {{\"text\": \"{}\"}}, \"locations\": [{}]",
                escape(v.pass),
                escape(&v.message),
                sarif_location(v)
            );
            if !v.chain.is_empty() {
                out.push_str(", \"codeFlows\": [{\"threadFlows\": [{\"locations\": [");
                for (j, hop) in v.chain.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"location\": {{{}, \"message\": {{\"text\": \"{}\"}}}}}}",
                        sarif_physical(v),
                        escape(hop)
                    );
                }
                out.push_str("]}]}]");
            }
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }]\n}");
        out
    }

    /// JSON report (hand-rolled; the workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        write_violations(&mut out, &self.violations);
        let _ = write!(
            out,
            "],\n  \"count\": {},\n  \"files_scanned\": {}\n}}",
            self.violations.len(),
            self.files_scanned
        );
        out
    }
}

/// A SARIF `location` object for a finding; crate-level findings
/// (line 0) omit the region, as SARIF requires `startLine >= 1`.
fn sarif_location(v: &Violation) -> String {
    format!("{{{}}}", sarif_physical(v))
}

/// The `physicalLocation` member shared by locations and code-flow hops.
fn sarif_physical(v: &Violation) -> String {
    let mut out = format!(
        "\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}",
        escape(&v.path)
    );
    if v.line > 0 {
        let _ = write!(out, ", \"region\": {{\"startLine\": {}}}", v.line);
    }
    out.push('}');
    out
}

fn write_violations(out: &mut String, violations: &[Violation]) {
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"pass\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"chain\": [",
            escape(&v.id()),
            escape(v.pass),
            escape(&v.path),
            v.line,
            escape(&v.message)
        );
        for (j, hop) in v.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(hop));
        }
        out.push_str("]}");
    }
    if !violations.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_report_lists_violations_and_summary() {
        let mut r = Report {
            passes_run: vec!["panic-reach"],
            files_scanned: 3,
            ..Report::default()
        };
        r.violations.push(Violation::new(
            "panic-reach",
            "a.rs",
            7,
            "unwrap() in decode path",
        ));
        let text = r.to_text();
        assert!(text.contains("a.rs:7: [panic-reach] unwrap() in decode path"));
        assert!(text.contains("1 violation(s) across 3 file(s)"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let mut r = Report::default();
        r.violations
            .push(Violation::new("range-proof", "x\"y.rs", 0, "line1\nline2"));
        let json = r.to_json();
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("x\\\"y.rs"));
        assert!(json.contains("line1\\nline2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chain_and_id_round_trip_through_json() {
        let mut r = Report::default();
        r.violations.push(
            Violation::new("wire-taint", "a.rs", 7, "tainted").with_chain(vec![
                "read_bits()".to_string(),
                "wire_len".to_string(),
                "decode_block".to_string(),
            ]),
        );
        assert_eq!(r.violations[0].id(), "wire-taint@a.rs:7");
        let json = r.to_json();
        assert!(json.contains("\"id\": \"wire-taint@a.rs:7\""));
        assert!(
            json.contains("\"chain\": [\"read_bits()\", \"wire_len\", \"decode_block\"]"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sarif_report_carries_rules_and_results() {
        let mut r = Report {
            passes_run: vec!["range-proof", "wire-taint"],
            files_scanned: 2,
            ..Report::default()
        };
        r.violations.push(
            Violation::new("range-proof", "a.rs", 7, "i32 escapes u16").with_chain(vec![
                "fn decode_gain".to_string(),
                "promote(a) ∈ [0, 255]".to_string(),
            ]),
        );
        r.violations
            .push(Violation::new("wire-taint", "b.rs", 0, "tainted length"));
        let sarif = r.to_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"id\": \"range-proof\""));
        assert!(sarif.contains("\"ruleId\": \"range-proof\", \"level\": \"error\""));
        assert!(sarif.contains("\"ruleId\": \"wire-taint\", \"level\": \"error\""));
        // Line 0 must not produce a SARIF region (startLine >= 1).
        assert!(sarif.contains("\"uri\": \"b.rs\"}}"));
        assert!(sarif.contains("\"startLine\": 7"));
        // The witness chain rides along as a code flow.
        assert!(sarif.contains("\"codeFlows\""));
        assert!(sarif.contains("promote(a)"));
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
        assert_eq!(sarif.matches('[').count(), sarif.matches(']').count());
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"count\": 0"));
    }
}
