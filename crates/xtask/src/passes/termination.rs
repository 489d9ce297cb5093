//! Loop-termination pass: every wire-driven decode loop needs a proven
//! variant, or it is a denial-of-service finding.
//!
//! A hostile bitstream controls every bit a decode loop inspects, so a
//! loop whose condition depends on wire data terminates only if some
//! quantity provably makes progress. Starting from the same decode roots
//! as panic-reach ([`crate::vocab::is_decode_root`]), this pass walks the
//! call-graph closure and collects each `while`/`loop` whose condition
//! (or, for `loop`, body) depends on wire data: a reader call of one of
//! the [`crate::vocab::PRIMITIVES`], a projection of an input buffer, or
//! a local that carried wire taint in the [`dataflow::analyze`] replay of
//! the enclosing body. It then tries to prove one of three variants:
//!
//! 1. **Reader progress** — the iteration consumes at least one
//!    bit/byte whose exhaustion error diverges: a consuming primitive
//!    call (or a call to a function whose monotone-progress summary
//!    holds) with `?` in the condition or unconditionally at the top of
//!    the body, or a manually advanced position (`pos += 1`) paired with
//!    a bounds-checked `input.get(pos)` access that diverges past the
//!    end.
//! 2. **Bounded counter** — a condition conjunct `v < B` (or `v <= B`,
//!    and the mirrored `v > B`/`v >= B` for decrementing loops) where
//!    the body unconditionally steps `v` toward `B` by a positive
//!    literal and never writes `v` any other way.
//! 3. **Contract cap** — the same counter shape where `B` is a
//!    parameter of the enclosing function bounded by a finite
//!    `ranges.toml` contract instead of a literal or const.
//!
//! Unproven loops are reported with a witness chain: the root→function
//! call path, the loop header, the wire-dependence reason, and why each
//! candidate variant failed. In-body caps (`if n > MAX { break }`) are
//! deliberately *not* accepted: the guard may not dominate the back
//! edge, and silent saturation hides protocol violations — rewrite the
//! cap into the loop condition with an explicit `LimitExceeded` check,
//! or justify with `// lint:allow(term): <reason>`.
//!
//! Known imprecision (documented in DESIGN.md): `+=` steps are assumed
//! non-wrapping, `&mut` position parameters mutated through callees are
//! invisible, and `read_bits(0)`-style degenerate calls are trusted as
//! consuming.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::index::{FnEntry, Index};
use crate::ast::lex::Kind;
use crate::ast::tree::{Group, Tree};
use crate::dataflow::interval::{strip_parens, Contract};
use crate::dataflow::{
    self, compact, find_block, split_on, statements, Summaries, ASSIGN_OPS, MAX_CANDIDATES,
};
use crate::report::Violation;
use crate::source::Workspace;
use crate::vocab::{decode_roots, INPUT_NAMES};

/// Runs the pass over the audited crates using the shared AST index,
/// dataflow summaries (for monotone-progress facts), and the
/// `ranges.toml` contract table (for variant 3 bounds).
pub fn check_workspace(
    ws: &Workspace,
    index: &Index,
    sums: &Summaries,
    crates: &[&str],
    contracts: &[Contract],
) -> Vec<Violation> {
    let roots = decode_roots(index, crates);
    let closure = index.reachable(&roots, MAX_CANDIDATES);
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();

    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for &id in &closure {
        let entry = &index.fns[id];
        // Root bodies are checked like helpers: no other pass proves
        // termination, so a loop in a decode API body is exactly as
        // dangerous as one in a helper.
        if !crates.contains(&entry.krate.as_str()) {
            continue;
        }
        let Some(body) = &entry.item.body else {
            continue;
        };
        let mut loops = Vec::new();
        collect_loops(&body.trees, &mut loops);
        if loops.is_empty() {
            continue;
        }
        let tainted = dataflow::analyze(index, sums, id, false).tainted;
        for lp in loops {
            let Some(why_wire) = wire_dependence(&lp, &tainted) else {
                continue;
            };
            let proven = prove_reader_progress(index, sums, &lp)
                .or_else(|_| prove_bounded_counter(index, contracts, entry, &lp));
            let Err(reasons) = proven else {
                continue;
            };
            if files
                .get(entry.path.as_str())
                .is_some_and(|sf| sf.is_allowed(lp.line, "term"))
            {
                continue;
            }
            if !seen.insert((entry.path.clone(), lp.line)) {
                continue;
            }
            let mut chain = roots
                .iter()
                .find_map(|&r| index.call_chain(r, id, MAX_CANDIDATES))
                .unwrap_or_else(|| vec![entry.item.name.clone()]);
            chain.push(lp.header());
            chain.push(why_wire.clone());
            chain.extend(reasons.clone());
            out.push(
                Violation::new(
                    "termination",
                    &entry.path,
                    lp.line + 1,
                    format!(
                        "wire-driven loop has no proven termination variant ({why_wire}); {}; \
                         move the cap into the loop condition and fail with LimitExceeded, \
                         or consume input fallibly each iteration",
                        reasons.join("; "),
                    ),
                )
                .with_chain(chain),
            );
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// One `while`/`loop` site inside a function body.
struct LoopSite<'t> {
    /// 0-based line of the loop keyword.
    line: usize,
    /// Condition trees for `while cond { … }`; `None` for bare `loop`.
    cond: Option<&'t [Tree]>,
    /// The loop body block.
    body: &'t Group,
}

impl LoopSite<'_> {
    fn header(&self) -> String {
        match self.cond {
            Some(c) => format!("while {}", compact(c)),
            None => "loop { … }".to_string(),
        }
    }
}

/// Collects `while`/`loop` sites recursively. `for` loops are skipped —
/// Rust `for` iterates a finite iterator and the range-proof pass owns
/// tainted range bounds — but their bodies are still scanned for nested
/// loops.
fn collect_loops<'t>(trees: &'t [Tree], out: &mut Vec<LoopSite<'t>>) {
    let mut k = 0;
    while k < trees.len() {
        match &trees[k] {
            Tree::Leaf(tok) if tok.is_ident("while") => {
                if let Some(b) = find_block(trees, k + 1) {
                    if let Some(body) = trees[b].group() {
                        out.push(LoopSite {
                            line: tok.line,
                            cond: Some(&trees[k + 1..b]),
                            body,
                        });
                        collect_loops(&body.trees, out);
                        k = b + 1;
                        continue;
                    }
                }
            }
            Tree::Leaf(tok) if tok.is_ident("loop") => {
                if let Some(body) = trees.get(k + 1).and_then(Tree::group) {
                    if body.delim == '{' {
                        out.push(LoopSite {
                            line: tok.line,
                            cond: None,
                            body,
                        });
                        collect_loops(&body.trees, out);
                        k += 2;
                        continue;
                    }
                }
            }
            Tree::Group(g) => collect_loops(&g.trees, out),
            Tree::Leaf(_) => {}
        }
        k += 1;
    }
}

/// Why this loop's continuation depends on wire data, if it does. For
/// `while`, the condition is inspected; for a bare `loop`, any wire read
/// in the body makes the break decision data-dependent.
fn wire_dependence(lp: &LoopSite<'_>, tainted: &BTreeSet<String>) -> Option<String> {
    match lp.cond {
        Some(cond) => wire_mention(cond, tainted),
        None => wire_mention(&lp.body.trees, &BTreeSet::new())
            .map(|why| format!("`loop` body reads wire data ({why}) with no loop condition")),
    }
}

/// First wire-data mention in the trees: a primitive reader call, a
/// read of an input-named buffer, or a local carrying wire taint. Direct
/// reads are reported in preference to tainted locals — `while
/// dec.bit(…)` should name the read, not the tainted receiver.
fn wire_mention(trees: &[Tree], tainted: &BTreeSet<String>) -> Option<String> {
    if let Some(name) = dataflow::find_source_call(trees) {
        return Some(format!("reads wire data via `{name}(…)`"));
    }
    dataflow::find_ident(trees, &|ts, k, name| {
        dataflow::reads_input(ts, k).then(|| format!("inspects input buffer `{name}`"))
    })
    .or_else(|| {
        dataflow::find_ident(trees, &|_, _, name| {
            tainted
                .contains(name)
                .then(|| format!("depends on `{name}`, which carries wire data"))
        })
    })
}

/// Why variant 1 failed, listed first in every unproven loop's chain.
const NO_READER_PROGRESS: &str = "reader-progress: no fallible consuming read on every path \
     (condition, unconditional body statement, or `pos += k` with a diverging `get(pos)` check)";

/// Variant 1: reader progress. Ok-proof string, or the failure reason.
fn prove_reader_progress(
    index: &Index,
    sums: &Summaries,
    lp: &LoopSite<'_>,
) -> Result<String, Vec<String>> {
    let consuming =
        |trees, propagated| dataflow::consuming_call(index, &sums.progress, trees, propagated);
    // (a) the condition itself consumes fallibly.
    if let Some(cond) = lp.cond {
        if let Some(name) = consuming(cond, true) {
            return Ok(format!("condition consumes input via `{name}(…)?`"));
        }
        // `while let Ok(x) = reader.read(…)` — the Err arm exits the
        // loop, so the `?` is not required for divergence.
        if cond.first().is_some_and(|t| t.is_ident("let"))
            && cond.get(1).is_some_and(|t| t.is_ident("Ok"))
        {
            if let Some(name) = consuming(cond, false) {
                return Ok(format!("`while let Ok` over consuming `{name}(…)`"));
            }
        }
    }
    // (b) the body consumes unconditionally before any `continue`.
    for seg in statements(&lp.body.trees) {
        if mentions_continue(seg) {
            break;
        }
        if consuming(seg, true).is_some() {
            return Ok("body consumes input unconditionally each iteration".to_string());
        }
    }
    // (c) manual position advance + bounds-checked access.
    prove_manual_advance(lp).ok_or_else(|| vec![NO_READER_PROGRESS.to_string()])
}

fn mentions_continue(trees: &[Tree]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.is_ident("continue"),
        Tree::Group(g) => mentions_continue(&g.trees),
    })
}

/// The variable a `v <op> <integer literal>` statement (or `*v <op> …`)
/// steps.
fn literal_step<'t>(seg: &'t [Tree], op: &str) -> Option<&'t str> {
    let seg = if seg.first().is_some_and(|t| t.is_punct("*")) {
        &seg[1..]
    } else {
        seg
    };
    match seg {
        [Tree::Leaf(v), o, Tree::Leaf(step)]
            if v.kind == Kind::Ident && o.is_punct(op) && step.kind == Kind::Int =>
        {
            Some(v.text.as_str())
        }
        _ => None,
    }
}

/// Variant 1c: a top-level `pos += <literal>` where every other write to
/// `pos` is also `+=` (monotone), paired with a top-level bounds-checked
/// `input.get(…pos…)` whose failure diverges (`?`/`ok_or`), both before
/// any `continue`. Once `pos` passes the end of the input the access
/// errors out, so the iteration count is capped by the input length.
fn prove_manual_advance(lp: &LoopSite<'_>) -> Option<String> {
    let trees = &lp.body.trees;
    let mut advanced = None;
    let mut checked = None;
    for seg in statements(trees) {
        if mentions_continue(seg) {
            break;
        }
        advanced = literal_step(seg, "+=").or(advanced);
        checked = bounds_checked_get(seg).or(checked);
    }
    let (pos, buf) = (advanced?, checked?);
    // Monotonicity: no `pos = …` / `pos -= …` anywhere in the body.
    only_written_by(trees, pos, "+=")
        .then(|| format!("`{pos} += 1` each iteration with diverging `{buf}.get(…)` bounds check"))
}

/// An `<input>.get(…)` whose statement also carries `?` or `ok_or`.
fn bounds_checked_get(seg: &[Tree]) -> Option<String> {
    fn find(trees: &[Tree]) -> Option<String> {
        trees.iter().enumerate().find_map(|(k, t)| match t {
            Tree::Group(g) if g.delim != '{' => find(&g.trees),
            Tree::Leaf(tok)
                if tok.kind == Kind::Ident
                    && INPUT_NAMES.contains(&tok.text.as_str())
                    && trees.get(k + 1).is_some_and(|t| t.is_punct("."))
                    && trees.get(k + 2).is_some_and(|t| t.is_ident("get")) =>
            {
                Some(tok.text.clone())
            }
            _ => None,
        })
    }
    let diverges = seg.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.is_punct("?") || tok.is_ident("ok_or") || tok.is_ident("ok_or_else"),
        Tree::Group(_) => false,
    });
    if diverges {
        find(seg)
    } else {
        None
    }
}

/// Every assignment to `v` anywhere in the trees uses `op`.
fn only_written_by(trees: &[Tree], v: &str, op: &str) -> bool {
    trees.iter().enumerate().all(|(k, t)| match t {
        Tree::Group(g) => only_written_by(&g.trees, v, op),
        Tree::Leaf(tok) if tok.is_ident(v) => !trees
            .get(k + 1)
            .and_then(Tree::leaf)
            .is_some_and(|o| ASSIGN_OPS.iter().any(|p| o.is_punct(p)) && !o.is_punct(op)),
        Tree::Leaf(_) => true,
    })
}

/// Variants 2–3: a condition conjunct `v < B`/`v <= B` with a matching
/// unconditional `v += <literal>` (mirrored for `>`/`>=` and `-=`),
/// where `B` is an integer literal, a const with a literal initializer,
/// or a contract-bounded parameter of the enclosing function.
fn prove_bounded_counter(
    index: &Index,
    contracts: &[Contract],
    entry: &FnEntry,
    lp: &LoopSite<'_>,
) -> Result<String, Vec<String>> {
    let mut reasons = vec![NO_READER_PROGRESS.to_string()];
    let Some(cond) = lp.cond else {
        reasons.push("bounded-counter: bare `loop` has no condition to carry a cap".to_string());
        return Err(reasons);
    };
    let mut counter_reason =
        "bounded-counter: no `v < B` conjunct with a literal, const, or contract bound".to_string();
    for conjunct in split_on(cond, "&&") {
        let conjunct = strip_parens(conjunct);
        let [Tree::Leaf(v), op, bound @ ..] = conjunct else {
            continue;
        };
        if v.kind != Kind::Ident {
            continue;
        }
        let increasing = op.is_punct("<") || op.is_punct("<=");
        let decreasing = op.is_punct(">") || op.is_punct(">=");
        if !increasing && !decreasing {
            continue;
        }
        let Some(bound_desc) = resolve_bound(index, contracts, entry, bound) else {
            counter_reason = format!(
                "bounded-counter: bound `{}` is not a literal, a literal const, \
                 or a contract-bounded parameter",
                compact(bound),
            );
            continue;
        };
        let step_op = if increasing { "+=" } else { "-=" };
        match counter_steps(&lp.body.trees, &v.text, step_op) {
            Ok(()) => {
                return Ok(format!(
                    "counter `{}` steps toward {} every iteration",
                    v.text, bound_desc,
                ));
            }
            Err(why) => {
                counter_reason = format!("bounded-counter: `{}` {why}", v.text);
            }
        }
    }
    reasons.push(counter_reason);
    Err(reasons)
}

/// Resolves a counter bound: integer literal, const with a single
/// integer-literal initializer, or a finite contract on a parameter of
/// the enclosing function.
fn resolve_bound(
    index: &Index,
    contracts: &[Contract],
    entry: &FnEntry,
    bound: &[Tree],
) -> Option<String> {
    match bound {
        [Tree::Leaf(tok)] if tok.kind == Kind::Int => Some(format!("literal `{}`", tok.text)),
        [Tree::Leaf(tok)] if tok.kind == Kind::Ident => {
            if let Some(init) = index.const_inits.get(&tok.text) {
                if let [Tree::Leaf(lit)] = init.as_slice() {
                    if lit.kind == Kind::Int {
                        return Some(format!("const `{}` = {}", tok.text, lit.text));
                    }
                }
            }
            let is_param = entry.item.params.iter().any(|(n, _)| n == &tok.text);
            let contract = contracts
                .iter()
                .find(|c| c.func == entry.item.name && c.param == tok.text);
            match (is_param, contract) {
                (true, Some(c)) => Some(format!(
                    "contract-bounded parameter `{}` ∈ [{}, {}]",
                    tok.text, c.lo, c.hi,
                )),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The body must step `v` with `v {step_op} <integer literal>` as an
/// unconditional top-level statement before any `continue`, and never
/// assign `v` any other way.
fn counter_steps(trees: &[Tree], v: &str, step_op: &str) -> Result<(), String> {
    let mut stepped = false;
    for seg in statements(trees) {
        if !stepped && mentions_continue(seg) {
            return Err("may `continue` before the step".to_string());
        }
        stepped |= literal_step(seg, step_op) == Some(v);
    }
    if !stepped {
        return Err(format!(
            "has no unconditional top-level `{step_op} <literal>` step"
        ));
    }
    if only_written_by(trees, v, step_op) {
        Ok(())
    } else {
        Err("is also written by a non-step assignment in the body".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::of(&[("llm265-bitstream", &[("crates/bitstream/src/lib.rs", src)])])
    }

    fn check_with(src: &str, contracts: &[Contract]) -> Vec<Violation> {
        let w = ws(src);
        let index = w.build_index();
        let sums = dataflow::summarize(&index);
        check_workspace(&w, &index, &sums, &["llm265-bitstream"], contracts)
    }

    fn check(src: &str) -> Vec<Violation> {
        check_with(src, &[])
    }

    #[test]
    fn uncapped_wire_loop_fires_with_witness_chain() {
        let v = check(
            "pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while dec.decode_bit(ctx) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("decode_bit"), "{}", v[0].message);
        assert!(
            v[0].chain.iter().any(|h| h.starts_with("while ")),
            "{:?}",
            v[0].chain
        );
        assert!(
            v[0].chain.iter().any(|h| h.contains("bounded-counter")),
            "{:?}",
            v[0].chain
        );
    }

    #[test]
    fn condition_cap_with_literal_proves() {
        let v = check(
            "pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while n < 8 && dec.decode_bit(ctx) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn condition_cap_with_const_proves() {
        let v = check(
            "const MAX_PREFIX: u32 = 12;\n\
             pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while n < MAX_PREFIX && dec.decode_bit(ctx) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn contract_bound_proves_and_its_absence_fires() {
        let src = "pub fn parse_run(dec: &mut C, max: u32) -> u32 {\n    let mut n = 0u32;\n    while n < max && dec.decode_bit(ctx) {\n        n += 1;\n    }\n    n\n}\n";
        let c = Contract {
            func: "parse_run".to_string(),
            param: "max".to_string(),
            lo: 0,
            hi: 64,
        };
        assert!(check_with(src, &[c]).is_empty());
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("not a literal"), "{}", v[0].message);
    }

    #[test]
    fn in_body_break_cap_is_rejected() {
        // The guard may not dominate the back edge; the cap must live in
        // the loop condition.
        let v = check(
            "pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while dec.decode_bit(ctx) {\n        n += 1;\n        if n > 20 {\n            break;\n        }\n    }\n    n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn consuming_condition_proves() {
        let v = check(
            "pub fn parse_prefix(r: &mut R) -> Result<u32, E> {\n    let mut zeros = 0u32;\n    while r.read_bits(1)? == 0 {\n        zeros += 1;\n    }\n    Ok(zeros)\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unconditional_body_consume_proves() {
        let v = check(
            "pub fn parse_chunks(r: &mut R, n: usize) -> Result<u32, E> {\n    let mut acc = 0u32;\n    while acc < wire_limit(n) {\n        let b = r.read_bits(8)?;\n        acc += decode_weight(b);\n    }\n    Ok(acc)\n}\n\
             fn wire_limit(n: usize) -> u32 { decode_cap(n) }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn manual_advance_with_get_check_proves() {
        let v = check(
            "pub fn read_len(data: &[u8], pos: &mut usize) -> Result<usize, E> {\n    let mut total = 0usize;\n    loop {\n        let b = *data.get(*pos).ok_or(E::Truncated)?;\n        *pos += 1;\n        total += usize::from(b);\n        if b != 255 {\n            return Ok(total);\n        }\n    }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn tainted_counter_bound_fires_via_dataflow_replay() {
        let v = check(
            "pub fn decode_body(r: &mut R) -> u32 {\n    let n = r.read_bits(32).unwrap_or(0);\n    let mut i = 0u32;\n    while i < n {\n        step();\n        i += 1;\n    }\n    i\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("carries wire data"),
            "{}",
            v[0].message
        );
        // The same bound read through the syntax layer's bypass run.
        let v = check(
            "fn parse_run<D: BinSource>(dec: &mut D) -> u32 {\n    let n = dec.bypass_bits(3) as u32;\n    let mut i = 0u32;\n    while i < n {\n        i += 1;\n    }\n    i\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`n`"), "{}", v[0].message);
    }

    #[test]
    fn syntax_layer_bin_loop_in_private_parse_fn_is_checked() {
        // `BinSource::bit` is how the syntax layer reads a bin, and a
        // private `parse_*` function is a decode root, as in panic-reach.
        let v = check(
            "fn parse_prefix<D: BinSource>(dec: &mut D, c: &mut Prob) -> u32 {\n    let mut n = 0u32;\n    while dec.bit(&mut c) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`bit(…)`"), "{}", v[0].message);
        let v = check(
            "fn parse_prefix<D: BinSource>(dec: &mut D, c: &mut Prob) -> u32 {\n    let mut n = 0u32;\n    while n < 20 && dec.bit(&mut c) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn untainted_loop_is_skipped() {
        let v = check(
            "pub fn decode_header(r: &mut R) -> u32 {\n    let mut acc = 0u32;\n    let mut i = 0u32;\n    while i < lanes() {\n        acc |= 1 << i;\n        i += 1;\n    }\n    acc\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let v = check(
            "pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    // lint:allow(term): bounded by the context model's 1-bit state\n    while dec.decode_bit(ctx) {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn helper_loops_reachable_from_roots_are_checked() {
        let v = check(
            "fn spin(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while dec.decode_bypass() {\n        n += 1;\n    }\n    n\n}\n\
             pub fn decode_block(dec: &mut C) -> u32 { spin(dec) }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].chain.iter().any(|h| h == "decode_block"),
            "{:?}",
            v[0].chain
        );
        assert!(v[0].chain.iter().any(|h| h == "spin"), "{:?}", v[0].chain);
    }

    #[test]
    fn unreachable_helper_loops_are_ignored() {
        let v = check(
            "fn spin(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while dec.decode_bypass() {\n        n += 1;\n    }\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn counter_also_written_elsewhere_fires() {
        let v = check(
            "pub fn parse_flags(dec: &mut C) -> u32 {\n    let mut n = 0u32;\n    while n < 8 && dec.decode_bit(ctx) {\n        n += 1;\n        if reset() {\n            n = 0;\n        }\n    }\n    n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("non-step assignment"),
            "{}",
            v[0].message
        );
    }
}
