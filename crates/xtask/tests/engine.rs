//! End-to-end tests of the lint engine over the on-disk fixture
//! workspaces in `tests/fixtures/`.
//!
//! The `dirty` fixture seeds each bug once, with a quiet twin (an allowed
//! or proven site) next to each finding, so every pass fires a pinned
//! number of times; `clean` must produce nothing. On top of the library-level assertions, the CLI
//! tests run the actual binary and pin its exit codes, JSON output, and
//! the `--sweep` verdict.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use xtask::{run_lint, PASSES};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn counts_by_pass(violations: &[xtask::report::Violation]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for v in violations {
        *out.entry(v.pass).or_insert(0) += 1;
    }
    out
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = run_lint(&fixture("clean")).expect("lint clean fixture");
    assert!(report.is_clean(), "unexpected: {:?}", report.violations);
    assert_eq!(report.files_scanned, 3);
    assert_eq!(report.passes_run, PASSES);
}

/// Findings per pass on the dirty fixture. Three passes own two seeded
/// bugs each: panic-reach a local unwrap and a reached index,
/// range-proof a narrowing cast and a wrapping product, wire-schema an
/// unpaired writer and a desynced pair.
const DIRTY_COUNTS: &[(&str, usize)] = &[
    ("float-cmp", 1),
    ("hygiene", 1),
    ("error-discipline", 1),
    ("wire-taint", 1),
    ("panic-reach", 2),
    ("range-proof", 2),
    ("termination", 1),
    ("wire-schema", 2),
];

#[test]
fn dirty_fixture_trips_every_pass_a_pinned_number_of_times() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let counts = counts_by_pass(&report.violations);
    let expected: BTreeMap<&str, usize> = DIRTY_COUNTS.iter().copied().collect();
    assert_eq!(counts, expected, "violations: {:?}", report.violations);
    let pinned: Vec<&str> = DIRTY_COUNTS.iter().map(|(p, _)| *p).collect();
    assert_eq!(pinned, PASSES);
}

#[test]
fn dirty_findings_land_on_the_expected_sites() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let has = |pass: &str, path_suffix: &str, needle: &str| {
        report
            .violations
            .iter()
            .any(|v| v.pass == pass && v.path.ends_with(path_suffix) && v.message.contains(needle))
    };
    assert!(has("panic-reach", "bitstream/src/lib.rs", "unwrap"));
    assert!(has("range-proof", "bitstream/src/lib.rs", "`v as u8`"));
    assert!(has("error-discipline", "bitstream/src/lib.rs", "fallible"));
    assert!(has("float-cmp", "videocodec/src/lib.rs", "float"));
    assert!(has("wire-schema", "videocodec/src/encoder.rs", "`ghost`"));
    assert!(has("hygiene", "llm265-videocodec (Cargo.toml)", "[lints]"));
    assert!(has("wire-taint", "bitstream/src/lib.rs", "allocation size"));
    assert!(has("panic-reach", "bitstream/src/lib.rs", "decode_entry"));
    assert!(has("range-proof", "bitstream/src/lib.rs", "escapes"));
    assert!(has(
        "termination",
        "bitstream/src/lib.rs",
        "no proven termination variant"
    ));
    assert!(has(
        "wire-schema",
        "videocodec/src/encoder.rs",
        "disagree on the wire at step 1"
    ));
}

#[test]
fn dataflow_findings_carry_interprocedural_witness_chains() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    // Wire-taint: the chain must span the laundering helper, i.e. hold at
    // least one function-call hop between the source and the sink fn.
    let taint = report
        .violations
        .iter()
        .find(|v| v.pass == "wire-taint")
        .expect("wire-taint finding");
    assert!(
        taint.chain.iter().any(|h| h == "header_len"),
        "{:?}",
        taint.chain
    );
    assert!(
        taint.chain.iter().any(|h| h == "decode_table"),
        "{:?}",
        taint.chain
    );
    // Panic-reach: the chain walks root → panicking helper; a depth-0
    // site's chain is its own function.
    let chains: Vec<&Vec<String>> = report
        .violations
        .iter()
        .filter(|v| v.pass == "panic-reach")
        .map(|v| &v.chain)
        .collect();
    assert_eq!(chains, [&vec!["first"], &vec!["decode_entry", "entry_at"]]);
}

#[test]
fn allowed_and_proven_twins_stay_quiet() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    // The fixture holds two unwraps (one under lint:allow(panic)) and two
    // narrowing casts (one mask-proven): exactly one finding each survives.
    let unwraps = report
        .violations
        .iter()
        .filter(|v| v.pass == "panic-reach" && v.message.contains("unwrap"))
        .count();
    let casts = report
        .violations
        .iter()
        .filter(|v| v.pass == "range-proof" && v.message.contains(" as "))
        .count();
    assert_eq!((unwraps, casts), (1, 1), "{:?}", report.violations);
}

// --- CLI-level tests: run the real binary against the fixtures. ---

fn lint_cmd(root: &PathBuf, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run xtask binary")
}

#[test]
fn cli_exit_codes_track_cleanliness() {
    let clean = lint_cmd(&fixture("clean"), &[]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    // Every finding fails the gate.
    let dirty = lint_cmd(&fixture("dirty"), &[]);
    assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("11 violation(s) across"), "{stdout}");
}

#[test]
fn cli_json_format_reports_counts_ids_and_chains() {
    let out = lint_cmd(&fixture("dirty"), &["--format", "json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"count\": 11"), "{stdout}");
    assert!(stdout.contains("\"id\": \"wire-taint@"), "{stdout}");
    assert!(
        stdout.contains("\"chain\": [\"read of `data`\", \"header_len\", \"decode_table\"]"),
        "{stdout}"
    );
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());
}

#[test]
fn cli_sarif_writes_a_valid_report_next_to_the_gate_output() {
    let dir = std::env::temp_dir().join(format!("xtask-sarif-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lint.sarif");
    let out = lint_cmd(
        &fixture("dirty"),
        &["--sarif", path.to_str().expect("utf-8")],
    );
    // The SARIF write must not change the gate verdict.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let sarif = std::fs::read_to_string(&path).expect("sarif written");
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"xtask-lint\""), "{sarif}");
    assert!(sarif.contains("\"id\": \"range-proof\""), "{sarif}");
    assert!(sarif.contains("\"id\": \"termination\""), "{sarif}");
    assert!(sarif.contains("\"id\": \"wire-schema\""), "{sarif}");
    assert!(sarif.contains("\"id\": \"panic-reach\""), "{sarif}");
    // One rule per pass: folded and removed passes have no rule ids left.
    for gone in [
        "panic-freedom",
        "symmetry",
        "cast-safety",
        "determinism",
        "interference",
    ] {
        assert!(!sarif.contains(gone), "{sarif}");
    }
    assert!(
        sarif.contains("\"ruleId\": \"wire-taint\", \"level\": \"error\""),
        "{sarif}"
    );
    // Witness chains ride along as code flows.
    assert!(sarif.contains("\"codeFlows\""), "{sarif}");
    assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
    assert_eq!(sarif.matches('[').count(), sarif.matches(']').count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_pass_filter_reports_one_pass_only() {
    let out = lint_cmd(&fixture("dirty"), &["--pass", "wire-taint"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 violation(s) across"), "{stdout}");
    assert!(stdout.contains("passes: wire-taint"), "{stdout}");
    assert!(!stdout.contains("[panic-reach]"), "{stdout}");
    // An unknown pass name is a usage error.
    let bad = lint_cmd(&fixture("dirty"), &["--pass", "no-such-pass"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
}

#[test]
fn cli_explain_prints_the_witness_chain() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let taint = report
        .violations
        .iter()
        .find(|v| v.pass == "wire-taint")
        .expect("wire-taint finding");
    let out = lint_cmd(&fixture("dirty"), &["--explain", &taint.id()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness chain"), "{stdout}");
    assert!(stdout.contains("header_len"), "{stdout}");
    assert!(stdout.contains("lint:allow(taint)"), "{stdout}");
    // An unknown id is a usage error, with guidance on stderr.
    let bad = lint_cmd(&fixture("dirty"), &["--explain", "wire-taint@nope.rs:1"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
}

#[test]
fn cli_explain_renders_interval_chain_hops() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let range = report
        .violations
        .iter()
        .find(|v| v.pass == "range-proof" && v.message.contains("promote"))
        .expect("range-proof finding");
    // The chain walks fn -> interprocedural hop, with the interval the
    // transfer function produced annotated at the hop.
    assert_eq!(range.chain[0], "fn decode_gain", "{:?}", range.chain);
    assert!(
        range
            .chain
            .iter()
            .any(|h| h.contains("promote") && h.contains("[0, 255]")),
        "{:?}",
        range.chain
    );
    let out = lint_cmd(&fixture("dirty"), &["--explain", &range.id()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness chain"), "{stdout}");
    assert!(stdout.contains("[0, 255]"), "{stdout}");
}

#[test]
fn cli_explain_walks_a_full_termination_witness_chain() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let term = report
        .violations
        .iter()
        .find(|v| v.pass == "termination")
        .expect("termination finding");
    // The chain narrates the proof failure end to end: the loop header,
    // why the condition is wire-dependent, and why each variant family
    // (reader progress, bounded counter) failed.
    assert!(
        term.chain.iter().any(|h| h.starts_with("while ")),
        "{:?}",
        term.chain
    );
    assert!(
        term.chain.iter().any(|h| h.contains("decode_bit")),
        "{:?}",
        term.chain
    );
    assert!(
        term.chain.iter().any(|h| h.contains("reader-progress")),
        "{:?}",
        term.chain
    );
    assert!(
        term.chain.iter().any(|h| h.contains("bounded-counter")),
        "{:?}",
        term.chain
    );
    let out = lint_cmd(&fixture("dirty"), &["--explain", &term.id()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness chain"), "{stdout}");
    assert!(stdout.contains("lint:allow(term)"), "{stdout}");
}

#[test]
fn cli_explain_prints_writer_and_reader_chains_side_by_side() {
    let report = run_lint(&fixture("dirty")).expect("lint dirty fixture");
    let schema = report
        .violations
        .iter()
        .find(|v| v.pass == "wire-schema" && v.message.contains("disagree"))
        .expect("wire-schema finding");
    // The witness chain carries both sides of the duality proof: the
    // writer's emission sequence, the reader's parse sequence, and the
    // first step where they part ways.
    let chain = schema.chain.join("\n");
    assert!(chain.contains("writer code_probe_mark @"), "{chain}");
    assert!(chain.contains("reader parse_probe_mark @"), "{chain}");
    assert!(chain.contains("w1: bypass_bits(4)[gap]"), "{chain}");
    assert!(chain.contains("r1: bypass[stop]"), "{chain}");
    assert!(chain.contains("mismatch at step 1"), "{chain}");
    let out = lint_cmd(&fixture("dirty"), &["--explain", &schema.id()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("witness chain"), "{stdout}");
    assert!(stdout.contains("w1: bypass_bits(4)[gap]"), "{stdout}");
    assert!(stdout.contains("r1: bypass[stop]"), "{stdout}");
    assert!(stdout.contains("lint:allow(schema)"), "{stdout}");
}

#[test]
fn cli_sweep_fails_on_a_reachable_model_panic() {
    let out = lint_cmd(&fixture("dirty"), &["--sweep"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("model/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("unwrap"), "{stdout}");
    assert!(
        stdout.contains("sweep: 1 panic-reach finding(s)"),
        "{stdout}"
    );
}

#[test]
fn cli_sweep_passes_a_panic_free_model() {
    let out = lint_cmd(&fixture("clean"), &["--sweep"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sweep: 0 panic-reach finding(s)"),
        "{stdout}"
    );
}
