//! In-repo static-analysis gate for the LLM.265 workspace.
//!
//! Run as `cargo run -p xtask -- lint` (add `--format json` for a
//! machine-readable report). The gate is an AST analysis engine, not a line-regex scanner:
//! every file is lexed into token trees and parsed into items exactly once
//! ([`source::SourceFile`]), the items are merged into a workspace-wide
//! call-graph index ([`ast::index::Index`]), and five passes run as
//! visitors over that shared result. They share one wire vocabulary
//! ([`vocab`]): one table of wire primitives says what reads and writes
//! the wire, next to the input-buffer names and the one decode-root rule.
//!
//! 1. **wire-taint** ([`passes::wire_taint`]) — interprocedural dataflow
//!    over the [`dataflow`] engine: values read from the wire must pass a
//!    sanitizer before sizing an allocation, bounding a loop, or indexing
//!    a slice, with a source → sink witness chain in every finding;
//! 2. **panic-reach** ([`passes::panic_reach`]) — follows the call graph
//!    from every decode root and reports the panicking constructs it
//!    reaches, with the full root → site chain: input
//!    indexing in the hot-path crates, and every family in the crates
//!    outside them (clippy's `unwrap_used`/`panic` family covers the
//!    hot-path crates themselves);
//! 3. **range-proof** ([`passes::range_proof`]) — an interval abstract
//!    domain over the [`dataflow`] engine: per-variable `[lo, hi]`
//!    bounds with widening at loop heads and narrowing on guards, flags
//!    arithmetic whose proven result interval escapes the destination
//!    type and integer `as` casts whose operand is not provably in the
//!    target's range (or a float) — closures and macro arguments
//!    included — seeded by the contract table
//!    `crates/xtask/ranges.toml`;
//! 4. **termination** ([`passes::termination`]) — every `while`/`loop`
//!    reachable from a decode root whose condition depends on wire data
//!    (a primitive read, an input buffer, or a local the [`dataflow`]
//!    replay marks tainted) must carry a proven variant: a fallibly
//!    consuming read each iteration (monotone-progress summaries
//!    memoized across crates), a counter stepping toward a literal/const
//!    bound, or a
//!    contract-capped bound from `ranges.toml` — unproven loops get a
//!    witness chain explaining why each variant failed;
//! 5. **wire-schema** ([`passes::wire_schema`]) — pairs every bitstream
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
//! `// lint:allow(panic|taint|range|term|schema): <why>`.
//! Comments, strings, and `#[cfg(test)]` items are stripped by the engine
//! before any pass runs, so findings can never fire on prose or test code.
//! Every other finding fails the gate.
//!
//! Token rules are not passes: rustc and clippy enforce them with type
//! information under `cargo clippy -- -D warnings`. The workspace
//! `[lints]` table forbids unsafe code, requires docs on every public item
//! (`missing_docs`) and bans `let _` discards of `#[must_use]` values
//! (`let_underscore_must_use`); the hot-path crate roots raise clippy's
//! panic family and `float_cmp` outside tests; the workspace
//! `clippy.toml` holds the bit-exactness bans (hashed collections,
//! clocks, threads, locks, atomic loads, CPU feature detection); and
//! `core::pool`'s `Fn + Sync` task bound makes a task that writes to
//! captured state a compile error. Every member must opt into the
//! `[lints]` table, or [`source::Workspace::load`] refuses the workspace.

#![forbid(unsafe_code)]
#![allow(
    clippy::let_underscore_must_use,
    reason = "the gate's report writers discard `write!` results into `String`s, which cannot fail"
)]

pub mod ast;
pub mod dataflow;
/// The gate's analysis passes, one module each.
pub mod passes {
    pub mod panic_reach;
    pub mod range_proof;
    pub mod termination;
    pub mod wire_schema;
    pub mod wire_taint;
}
pub mod report;
pub mod source;
pub mod vocab;

use std::path::Path;

use report::Report;
use source::Workspace;

/// Crates whose decode/encode paths must be panic-free.
pub const PANIC_FREE_CRATES: &[&str] = &["llm265-bitstream", "llm265-videocodec", "llm265-core"];

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
        let file = SourceFile::from_contents(path, src);
        Workspace {
            crates: vec![CrateSrc::from_parts(name, vec![file])],
        }
    }

    #[test]
    fn panic_pass_scoped_to_hot_path_crates() {
        let hot = ws_with(
            "llm265-bitstream",
            "crates/bitstream/src/x.rs",
            "fn decode_x(data: &[u8]) -> u8 { data[0] }\n",
        );
        assert_eq!(lint_workspace(&hot).violations.len(), 1);
        // The same code in a non-hot-path crate does not fire.
        let cold = ws_with(
            "llm265-bench",
            "crates/bench/src/x.rs",
            "fn decode_x(data: &[u8]) -> u8 { data[0] }\n",
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
            "fn narrow(v: i64) -> u8 { v as u8 }\nfn decode_x(data: &[u8]) -> u8 { data[0] }\n",
        );
        let report = lint_workspace(&ws);
        let passes: Vec<&str> = report.violations.iter().map(|v| v.pass).collect();
        assert_eq!(passes, vec!["panic-reach", "range-proof"]);
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
