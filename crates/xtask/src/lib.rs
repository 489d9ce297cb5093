//! In-repo static-analysis gate for the LLM.265 workspace.
//!
//! Run as `cargo run -p xtask -- lint` (add `--format json` for a
//! machine-readable report). The gate is an AST analysis engine, not a line-regex scanner:
//! every file is lexed into token trees and parsed into items exactly once
//! ([`source::SourceFile`]), the items are merged into a workspace-wide
//! call-graph index ([`ast::index::Index`]), and eight passes run as
//! visitors over that shared result:
//!
//! 1. **float-cmp** ([`passes::float_cmp`]) — bans exact `==`/`!=` against
//!    float literals in codec math (use `stats::approx_eq`);
//! 2. **hygiene** ([`passes::hygiene`]) — every crate forbids unsafe code,
//!    carries crate docs, and opts into `[workspace.lints]`;
//! 3. **error-discipline** ([`passes::error_discipline`]) — `let _ =`
//!    discards of `Result`s;
//! 4. **wire-taint** ([`passes::wire_taint`]) — interprocedural dataflow
//!    over the [`dataflow`] engine: values read from the wire must pass a
//!    sanitizer before sizing an allocation, bounding a loop, or indexing
//!    a slice, with a source → sink witness chain in every finding;
//! 5. **panic-reach** ([`passes::panic_reach`]) — denies
//!    `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
//!    anywhere in the decode/encode hot-path crates (function bodies,
//!    const/static initializers, `macro_rules!` bodies) and input
//!    indexing in their decode-shaped functions (depth 0), then follows
//!    the call graph from every decode-shaped function and reports the
//!    panicking constructs it reaches, with the full root → site chain;
//! 6. **range-proof** ([`passes::range_proof`]) — an interval abstract
//!    domain over the [`dataflow`] engine: per-variable `[lo, hi]`
//!    bounds with widening at loop heads and narrowing on guards, flags
//!    arithmetic whose proven result interval escapes the destination
//!    type and integer `as` casts whose operand is not provably in the
//!    target's range (or a float) — closures and macro arguments
//!    included — seeded by the contract table
//!    `crates/xtask/ranges.toml`;
//! 7. **termination** ([`passes::termination`]) — every `while`/`loop`
//!    reachable from a public decode API whose condition depends on
//!    wire data must carry a proven variant: a fallibly consuming read
//!    each iteration (monotone-progress summaries memoized across
//!    crates), a counter stepping toward a literal/const bound, or a
//!    contract-capped bound from `ranges.toml` — unproven loops get a
//!    witness chain explaining why each variant failed;
//! 8. **wire-schema** ([`passes::wire_schema`]) — pairs every bitstream
//!    writer (`write_*`/`encode_*`/`code_*`) with its reader
//!    (`read_*`/`decode_*`/`parse_*`) and fails on unpaired elements,
//!    then extracts the symbolic wire grammar of each pair (field
//!    widths, guard structure, loop bounds tied to `ranges.toml`
//!    intervals) via [`dataflow::wire`] and proves the two sides are
//!    duals, with a side-by-side writer/reader witness chain naming the
//!    first drifted field; the same extraction serializes the committed
//!    format spec (`FORMAT.md` + `wire-schema.json`) via `lint --schema`.
//!
//! Escape hatches are per-site comments with a reason:
//! `// lint:allow(panic|float-cmp|error|taint|range|term|schema): <why>`.
//! Comments, strings, and `#[cfg(test)]` items are stripped by the engine
//! before any pass runs, so findings can never fire on prose or test code.
//! Every other finding fails the gate.
//!
//! The bit-exactness bans (hashed collections, clocks, threads, locks,
//! atomic loads, CPU feature detection) are not a pass: the workspace
//! `clippy.toml` holds them and `cargo clippy -- -D warnings` enforces
//! them in every crate, and `core::pool`'s `Fn + Sync` task bound makes a
//! task that writes to captured state a compile error.

#![forbid(unsafe_code)]

pub mod ast;
pub mod dataflow;
pub mod passes {
    pub mod error_discipline;
    pub mod float_cmp;
    pub mod hygiene;
    pub mod panic_reach;
    pub mod range_proof;
    pub mod termination;
    pub mod wire_schema;
    pub mod wire_taint;
}
pub mod report;
pub mod source;

use std::path::Path;

use report::Report;
use source::Workspace;

/// Crates whose decode/encode paths must be panic-free.
pub const PANIC_FREE_CRATES: &[&str] = &["llm265-bitstream", "llm265-videocodec", "llm265-core"];

/// Crates whose math is subject to the float-comparison ban.
pub const FLOAT_CMP_CRATES: &[&str] = &[
    "llm265-videocodec",
    "llm265-core",
    "llm265-quant",
    "llm265-tensor",
];

/// Crates whose arithmetic and `as` casts must be proven in range (the
/// range-proof scope).
pub const CAST_SAFETY_CRATES: &[&str] = &[
    "llm265-videocodec",
    "llm265-bitstream",
    "llm265-quant",
    "llm265-core",
];

/// Every pass the gate runs, in report order.
pub const PASSES: &[&str] = &[
    "float-cmp",
    "hygiene",
    "error-discipline",
    "wire-taint",
    "panic-reach",
    "range-proof",
    "termination",
    "wire-schema",
];

/// Per-pass wall times in run order: the summary phase first, then each
/// of [`PASSES`].
pub type PassTimings = Vec<(&'static str, std::time::Duration)>;

/// Runs every pass over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be loaded.
pub fn run_lint(root: &Path) -> Result<Report, String> {
    run_lint_timed(root).map(|(report, _)| report)
}

/// [`run_lint`] that also returns per-pass wall times (printed by the
/// CLI's `--timings` flag and asserted against a budget in CI).
///
/// # Errors
///
/// Returns a message when the workspace cannot be loaded.
pub fn run_lint_timed(root: &Path) -> Result<(Report, PassTimings), String> {
    let ws = Workspace::load(root)?;
    let contracts = passes::range_proof::load_contracts(root)?;
    let index = ws.build_index();
    passes::range_proof::validate_contracts(&index, &contracts)?;
    Ok(lint_workspace_timed(&ws, &index, &contracts))
}

/// Runs every pass over an in-memory workspace (fixture-testable) with
/// an empty contract table.
pub fn lint_workspace(ws: &Workspace) -> Report {
    lint_workspace_timed(ws, &ws.build_index(), &[]).0
}

/// Runs `f` and appends its wall time to the timing log under `name`.
fn timed<T>(timings: &mut PassTimings, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    timings.push((name, start.elapsed()));
    out
}

/// Runs every pass over an indexed workspace and returns per-pass wall
/// times (the shared dataflow-summary fixpoint is timed as its own entry,
/// since no single pass owns it).
///
/// The workspace is lexed, parsed, and indexed exactly once; the shared
/// artifacts — the call-graph [`ast::index::Index`], the taint summaries
/// ([`dataflow::summarize`]), and the interval context built inside the
/// range-proof pass — are handed to every pass instead of being
/// recomputed per pass.
pub fn lint_workspace_timed(
    ws: &Workspace,
    index: &ast::index::Index,
    contracts: &[dataflow::interval::Contract],
) -> (Report, PassTimings) {
    let mut timings = Vec::new();
    let sums = timed(&mut timings, "dataflow-summaries", || {
        dataflow::summarize(index)
    });
    let mut report = Report {
        passes_run: PASSES.to_vec(),
        files_scanned: ws.files().count(),
        ..Report::default()
    };

    let v = timed(&mut timings, "float-cmp", || {
        let mut v = Vec::new();
        for name in FLOAT_CMP_CRATES {
            if let Some(krate) = ws.get(name) {
                for file in &krate.files {
                    v.extend(passes::float_cmp::check_file(file));
                }
            }
        }
        v
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "hygiene", || {
        let mut v = Vec::new();
        for krate in &ws.crates {
            v.extend(passes::hygiene::check_crate(krate));
        }
        v
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "error-discipline", || {
        passes::error_discipline::check_workspace(ws, index)
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "wire-taint", || {
        passes::wire_taint::check_workspace(ws, index, &sums, PANIC_FREE_CRATES)
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "panic-reach", || {
        passes::panic_reach::check_workspace(ws, index, PANIC_FREE_CRATES, PANIC_FREE_CRATES)
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "range-proof", || {
        passes::range_proof::check_workspace(ws, index, CAST_SAFETY_CRATES, contracts)
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "termination", || {
        passes::termination::check_workspace(ws, index, &sums, PANIC_FREE_CRATES, contracts)
    });
    report.violations.extend(v);

    let v = timed(&mut timings, "wire-schema", || {
        passes::wire_schema::check_workspace(ws, index, contracts)
    });
    report.violations.extend(v);

    report
        .violations
        .sort_by(|a, b| (a.pass, &a.path, a.line).cmp(&(b.pass, &b.path, b.line)));
    (report, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use source::{CrateSrc, SourceFile};

    fn ws_with(name: &str, path: &str, src: &str) -> Workspace {
        let manifest = format!("[package]\nname = \"{name}\"\n\n[lints]\nworkspace = true\n");
        let lib = SourceFile::from_contents(
            &format!("crates/{name}/src/lib.rs"),
            "//! Docs.\n#![forbid(unsafe_code)]\n",
        );
        let file = SourceFile::from_contents(path, src);
        Workspace {
            crates: vec![CrateSrc::from_parts(name, &manifest, vec![lib, file])],
        }
    }

    #[test]
    fn panic_pass_scoped_to_hot_path_crates() {
        let hot = ws_with(
            "llm265-bitstream",
            "crates/bitstream/src/x.rs",
            "fn f(v: Option<u8>) { v.unwrap(); }\n",
        );
        assert_eq!(lint_workspace(&hot).violations.len(), 1);
        // The same code in a non-hot-path crate does not fire.
        let cold = ws_with(
            "llm265-bench",
            "crates/bench/src/x.rs",
            "fn f(v: Option<u8>) { v.unwrap(); }\n",
        );
        assert!(
            lint_workspace(&cold).is_clean(),
            "{:?}",
            lint_workspace(&cold).violations
        );
    }

    #[test]
    fn unpaired_writer_fires_through_the_full_pipeline() {
        let ws = ws_with(
            "llm265-videocodec",
            "crates/videocodec/src/encoder.rs",
            "pub fn encode_orphan() {}\n",
        );
        let report = lint_workspace(&ws);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].pass, "wire-schema");
    }

    #[test]
    fn violations_are_sorted_and_reported() {
        let ws = ws_with(
            "llm265-core",
            "crates/core/src/z.rs",
            "fn f(v: Option<f64>) { v.unwrap(); let x = v.unwrap_or(0.0); let _ = x == 0.5; }\n",
        );
        let report = lint_workspace(&ws);
        let passes: Vec<&str> = report.violations.iter().map(|v| v.pass).collect();
        assert_eq!(passes, vec!["float-cmp", "panic-reach"]);
        assert!(report.to_json().contains("\"count\": 2"));
    }

    #[test]
    fn cast_pass_fires_through_the_pipeline() {
        let ws = ws_with(
            "llm265-quant",
            "crates/quant/src/q.rs",
            "fn quantize_x(v: i64) -> u8 {\n    v as u8\n}\n",
        );
        let report = lint_workspace(&ws);
        let passes: Vec<&str> = report.violations.iter().map(|v| v.pass).collect();
        assert_eq!(passes, vec!["range-proof"], "{:?}", report.violations);
    }
}
