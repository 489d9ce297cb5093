//! Interprocedural wire-taint dataflow over the workspace call graph.
//!
//! The per-file passes reason about one function body at a time; this
//! module tracks *values* across function boundaries. A value is tainted
//! when it originates from an untrusted read — a reader call of one of the
//! [`vocab::PRIMITIVES`] (bit and byte getters, syntax-layer bins, CABAC
//! bins), or any projection of an input-named buffer (`data`, `payload`,
//! …). Taint propagates through `let` bindings, assignments, returns, and
//! call arguments; it is cleared by a sanitizer:
//!
//! - a diverging guard (`if n > MAX { return Err(…) }` — any `if` whose
//!   body bails via `return`/`break`/`continue` clears every tainted
//!   value its condition inspects);
//! - `.min(…)`/`.clamp(…)` where one side of the bound is untrusted-free;
//! - a narrowing `u8`/`u16`/`i8`/`i16` `::try_from` (the type bounds the
//!   value).
//!
//! The analysis is summary-based: [`summarize`] runs every function once
//! per fixed-point round with its parameters seeded as symbolic taint,
//! producing per-function facts (does the return carry wire taint? which
//! parameters flow to the return? which parameters reach an allocation
//! size, loop bound, or slice index?). The wire-taint pass then replays
//! each function *unseeded*, so only genuine wire-rooted values reach the
//! recorded sinks, and renders a source→sink witness chain from the
//! [`Origin`] tree.
//!
//! Known imprecision (deliberate, documented in DESIGN.md): the tracker
//! is field-insensitive and treats struct literals as opaque
//! constructors; one-sided comparisons count as full guards; a sanitizer
//! anywhere in an expression clears the whole expression.

pub mod interval;
pub mod wire;

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::{to_text, Group, Tree};
use crate::vocab::{self, INPUT_NAMES, TRUSTED_PROJECTIONS};

/// Same ambiguity cap as [`Index::reachable`]: a name with more bodied
/// definitions than this is treated as unresolvable.
pub const MAX_CANDIDATES: usize = 3;

/// Integer types narrow enough that a fallible `try_from` into them
/// bounds a wire value below any allocation or index hazard.
const NARROW_TYPES: &[&str] = &["u8", "u16", "i8", "i16"];

/// Receiver methods that absorb their argument: a tainted argument
/// taints the (local) receiver collection.
const TAINTING_MUTATORS: &[&str] = &["push", "extend", "extend_from_slice", "append", "insert"];

/// Assignment operators, plain and compound.
pub(crate) const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "|=", "&=", "^=",
];

/// Control keywords that look like calls (`if (…)`) or would otherwise be
/// mistaken for index receivers (`return [a, b]`).
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else", "move", "mut",
    "ref", "break", "continue",
];

/// Where a tainted value came from — a linked provenance trail that the
/// report renders as the source half of the witness chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// Direct call of a reader method (`read_bits`, `decode_bypass_bits`).
    Source(String),
    /// Projection or indexing of an input-named buffer (`data[..]`).
    WireRead(String),
    /// Call of a workspace function whose return carries wire taint;
    /// the index identifies the callee for chain expansion.
    Call(String, usize),
    /// A tainted argument laundered through a call's return value.
    Through(String, Box<Origin>),
    /// The enclosing function's own parameter (summary mode only).
    Param(usize),
}

impl Origin {
    /// The parameter index this origin is rooted in, if it is (possibly
    /// transitively) a symbolic parameter rather than a concrete read.
    #[must_use]
    pub fn root_param(&self) -> Option<usize> {
        match self {
            Origin::Param(k) => Some(*k),
            Origin::Through(_, inner) => inner.root_param(),
            _ => None,
        }
    }
}

/// A parameter-rooted sink recorded in a function's summary: calling
/// this function with a tainted value in that position reaches `what`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSink {
    /// Sink kind: `allocation size`, `loop bound`, or `slice index`.
    pub what: &'static str,
    /// Compact text of the sink expression.
    pub detail: String,
    /// Callee names *below* the summarized function on the way to the
    /// sink (empty when the sink is in its own body).
    pub hops: Vec<String>,
}

/// Fixed-point facts for every indexed function, keyed by fn index.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// Wire-rooted taint carried by the return value, if any.
    pub returns: Vec<Option<Origin>>,
    /// Parameters that flow into the return value.
    pub param_returns: Vec<BTreeSet<usize>>,
    /// Parameters that reach a sink inside the function (or transitively
    /// through its callees).
    pub param_sinks: Vec<BTreeMap<usize, ParamSink>>,
    /// Monotone-progress facts: `true` when every `Ok` return of the
    /// function is preceded by an unconditional consuming read — a
    /// consuming [`vocab::PRIMITIVES`] reader call (or a call to another
    /// progressing function) whose `?` propagates the exhaustion error. The
    /// termination pass uses these as "consumes ≥ 1 bit/byte on every
    /// path" summaries, memoized across crates like the taint facts.
    pub progress: Vec<bool>,
}

/// One taint finding inside an analyzed function body.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 0-based line of the sink (or of the call that forwards into one).
    pub line: usize,
    /// Sink kind: `allocation size`, `loop bound`, or `slice index`.
    pub what: &'static str,
    /// Compact text of the sink expression.
    pub detail: String,
    /// Provenance of the tainted value.
    pub origin: Origin,
    /// Callee names between this function and the sink site (empty when
    /// the sink is in this body; `[callee, …]` when a tainted argument
    /// flows into a callee's recorded sink).
    pub sink_hops: Vec<String>,
}

/// The result of analyzing one function body.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Tainted values reaching sinks.
    pub findings: Vec<Finding>,
    /// Taint origins that escape through `return` or the tail expression.
    pub escapes: Vec<Origin>,
    /// Every local that carried taint at some point in the body.
    pub tainted: BTreeSet<String>,
}

/// Computes per-function summaries to a fixed point (capped rounds; the
/// call graph is shallow and each round is monotone, so the cap is a
/// safety net, not a tuning knob).
#[must_use]
pub fn summarize(index: &Index) -> Summaries {
    let n = index.fns.len();
    let mut sums = Summaries {
        returns: vec![None; n],
        param_returns: vec![BTreeSet::new(); n],
        param_sinks: vec![BTreeMap::new(); n],
        progress: vec![false; n],
    };
    for _round in 0..4 {
        let mut changed = false;
        for id in 0..n {
            let a = analyze(index, &sums, id, true);
            for o in &a.escapes {
                match o.root_param() {
                    Some(p) => {
                        changed |= sums.param_returns[id].insert(p);
                    }
                    None => {
                        if sums.returns[id].is_none() {
                            sums.returns[id] = Some(o.clone());
                            changed = true;
                        }
                    }
                }
            }
            for f in a.findings {
                if let Some(p) = f.origin.root_param() {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        sums.param_sinks[id].entry(p)
                    {
                        e.insert(ParamSink {
                            what: f.what,
                            detail: f.detail,
                            hops: f.sink_hops,
                        });
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Progress fixpoint, separately from taint: the lattice is a plain
    // boolean per function and transfer is monotone (false → true only),
    // so iteration terminates; the round cap covers any realistic call
    // depth of reader helpers.
    for _round in 0..8 {
        let mut changed = false;
        for id in 0..n {
            if !sums.progress[id] && body_progresses(index, &sums.progress, id) {
                sums.progress[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// Whether every normal return of function `id` is preceded by an
/// unconditional consuming read. The walk is linear over the top-level
/// statements of the body:
///
/// - a consuming event is `M(…)` *immediately followed by `?`* — the `?`
///   is what guarantees the call's exhaustion error aborts the caller —
///   where `M` is a consuming [`vocab::PRIMITIVES`] reader or resolves
///   (within the ambiguity cap) to definitions that all progress; the search
///   descends into `(`/`[` groups (expression nesting) but never into
///   `{ … }` blocks, whose contents are conditional;
/// - a `return` whose expression does not mention `Err` — at top level
///   or inside any block before the first consuming event — defeats the
///   summary (an early `Ok`/bare return path consumed nothing); early
///   `return Err(…)` is harmless because the caller's `?` diverges.
fn body_progresses(index: &Index, progress: &[bool], id: usize) -> bool {
    let Some(body) = &index.fns[id].item.body else {
        return false;
    };
    stmts_progress(index, progress, &body.trees)
}

fn stmts_progress(index: &Index, progress: &[bool], trees: &[Tree]) -> bool {
    for seg in statements(trees) {
        if has_plain_return(seg) {
            return false;
        }
        if consuming_call(index, progress, seg, true).is_some() {
            return true;
        }
    }
    false
}

/// A `return` not followed by `Err` before the statement ends, at any
/// nesting depth of the segment.
fn has_plain_return(trees: &[Tree]) -> bool {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => {
                if has_plain_return(&g.trees) {
                    return true;
                }
            }
            Tree::Leaf(tok) if tok.kind == Kind::Ident && tok.text == "return" => {
                let mut leaves = Vec::new();
                for rest in &trees[k + 1..] {
                    match rest {
                        Tree::Leaf(l) => leaves.push(l),
                        Tree::Group(g) => g.leaves(&mut leaves),
                    }
                }
                if !leaves
                    .iter()
                    .any(|l| l.kind == Kind::Ident && l.text == "Err")
                {
                    return true;
                }
            }
            Tree::Leaf(_) => {}
        }
    }
    false
}

/// The first call in the segment that consumes input, with its `?`
/// when `propagated` asks for one (the `?` is what makes the exhaustion
/// error abort the caller), descending only into expression groups
/// (`(`/`[`), never `{ … }` blocks, whose contents are conditional.
pub(crate) fn consuming_call<'t>(
    index: &Index,
    progress: &[bool],
    trees: &'t [Tree],
    propagated: bool,
) -> Option<&'t str> {
    trees.iter().enumerate().find_map(|(k, t)| match t {
        Tree::Group(g) if g.delim != '{' => consuming_call(index, progress, &g.trees, propagated),
        Tree::Leaf(tok)
            if tok.kind == Kind::Ident
                && is_call(trees, k)
                && (!propagated || trees.get(k + 2).is_some_and(|t| t.is_punct("?")))
                && call_progresses(index, progress, &tok.text) =>
        {
            Some(tok.text.as_str())
        }
        _ => None,
    })
}

/// Whether a call by this name is consuming: a consuming primitive, or a
/// name every resolved definition of which already progresses.
fn call_progresses(index: &Index, progress: &[bool], name: &str) -> bool {
    if vocab::consumes(name) {
        return true;
    }
    let targets = index.resolve_defined(name);
    !targets.is_empty() && targets.len() <= MAX_CANDIDATES && targets.iter().all(|&t| progress[t])
}

/// Renders an origin as the source half of a witness chain, deepest
/// (the actual read) first. Depth-capped against recursive call cycles.
#[must_use]
pub fn origin_chain(sums: &Summaries, origin: &Origin) -> Vec<String> {
    fn go(sums: &Summaries, origin: &Origin, depth: usize, out: &mut Vec<String>) {
        if depth == 0 {
            out.push("…".to_string());
            return;
        }
        match origin {
            Origin::Source(m) => out.push(format!("{m}()")),
            Origin::WireRead(b) => out.push(format!("read of `{b}`")),
            Origin::Call(name, id) => {
                if let Some(Some(inner)) = sums.returns.get(*id) {
                    go(sums, inner, depth - 1, out);
                }
                out.push(name.clone());
            }
            Origin::Through(name, inner) => {
                go(sums, inner, depth - 1, out);
                out.push(name.clone());
            }
            Origin::Param(k) => out.push(format!("param #{k}")),
        }
    }
    let mut out = Vec::new();
    go(sums, origin, 12, &mut out);
    out
}

/// Analyzes one function body. With `seed_params` the function's named
/// parameters start tainted as [`Origin::Param`] (summary mode); without
/// it only genuine wire reads introduce taint (report mode).
#[must_use]
pub fn analyze(index: &Index, sums: &Summaries, id: usize, seed_params: bool) -> Analysis {
    let entry = &index.fns[id];
    let mut scan = Scan {
        index,
        sums,
        tainted: BTreeMap::new(),
        ever: BTreeSet::new(),
        findings: Vec::new(),
        escapes: Vec::new(),
    };
    if seed_params {
        for (k, (name, _ty)) in entry.item.params.iter().enumerate() {
            if !name.is_empty() && name != "self" {
                scan.bind(name.clone(), Origin::Param(k));
            }
        }
    }
    if let Some(body) = &entry.item.body {
        scan.stmts(&body.trees);
        let tail = tail_expr(&body.trees);
        if let Some(o) = scan.expr_taint(tail) {
            scan.escapes.push(o);
        }
    }
    let mut findings = scan.findings;
    let mut seen: BTreeSet<(usize, &'static str, String)> = BTreeSet::new();
    findings.retain(|f| seen.insert((f.line, f.what, f.detail.clone())));
    Analysis {
        findings,
        escapes: scan.escapes,
        tainted: scan.ever,
    }
}

/// The per-body scanner: a taint environment plus accumulated results.
struct Scan<'a> {
    index: &'a Index,
    sums: &'a Summaries,
    tainted: BTreeMap<String, Origin>,
    /// Every name ever bound tainted (the union of `tainted` over time).
    ever: BTreeSet<String>,
    findings: Vec<Finding>,
    escapes: Vec<Origin>,
}

impl Scan<'_> {
    /// Binds a local to a taint origin.
    fn bind(&mut self, name: String, o: Origin) {
        self.ever.insert(name.clone());
        self.tainted.insert(name, o);
    }

    /// Walks a statement sequence, threading the taint environment.
    fn stmts(&mut self, trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            let t = &trees[i];
            if let Tree::Group(g) = t {
                if g.delim == '{' {
                    self.stmts(&g.trees);
                    i += 1;
                    continue;
                }
            }
            if t.is_ident("let") {
                i = self.stmt_let(trees, i);
            } else if t.is_ident("if") {
                i = self.stmt_if(trees, i);
            } else if t.is_ident("for") {
                i = self.stmt_for(trees, i);
            } else if t.is_ident("while") || t.is_ident("loop") || t.is_ident("match") {
                // Header expression is sink-checked; the block is scanned
                // as statements (match arms are statement-shaped enough
                // for taint purposes — `pat => expr,`).
                if let Some(b) = find_block(trees, i + 1) {
                    self.check_expr(&trees[i + 1..b]);
                    if let Some(g) = trees[b].group() {
                        self.stmts(&g.trees);
                    }
                    i = b + 1;
                } else {
                    i += 1;
                }
            } else if t.is_ident("return") {
                let end = stmt_end(trees, i + 1);
                let expr = &trees[i + 1..end];
                self.check_expr(expr);
                if let Some(o) = self.expr_taint(expr) {
                    self.escapes.push(o);
                }
                i = end + 1;
            } else {
                i = self.stmt_generic(trees, i);
            }
        }
    }

    /// `let pat[: ty] = expr;` — bind the pattern from the initializer's
    /// taint (or clear it when the initializer is clean/sanitized).
    fn stmt_let(&mut self, trees: &[Tree], i: usize) -> usize {
        let end = stmt_end(trees, i + 1);
        let seg = &trees[i + 1..end];
        let Some(eq) = seg.iter().position(|t| t.is_punct("=")) else {
            for name in pattern_names(seg) {
                self.tainted.remove(&name);
            }
            return end + 1;
        };
        let colon = seg[..eq].iter().position(|t| t.is_punct(":"));
        let pat = &seg[..colon.unwrap_or(eq)];
        let expr = &seg[eq + 1..];
        self.check_expr(expr);
        let taint = self.taint_after_sanitizers(expr);
        for name in pattern_names(pat) {
            match &taint {
                Some(o) => self.bind(name, o.clone()),
                None => {
                    self.tainted.remove(&name);
                }
            }
        }
        end + 1
    }

    /// `if cond { … } [else …]` with guard semantics: tainted values the
    /// condition inspects are treated as checked inside the branch, and
    /// permanently when the branch diverges (the `if x > MAX { return
    /// Err(…) }` idiom). `if let` binds its pattern from the scrutinee.
    fn stmt_if(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(b) = find_block(trees, i + 1) else {
            return i + 1;
        };
        let cond = &trees[i + 1..b];
        self.check_expr(cond);

        let mut branch = self.tainted.clone();
        let mut guarded: Vec<String> = Vec::new();
        if cond.first().is_some_and(|t| t.is_ident("let")) {
            if let Some(eq) = cond.iter().position(|t| t.is_punct("=")) {
                let taint = self.expr_taint(&cond[eq + 1..]);
                for name in pattern_names(&cond[1..eq]) {
                    match &taint {
                        Some(o) => {
                            self.ever.insert(name.clone());
                            branch.insert(name, o.clone());
                        }
                        None => {
                            branch.remove(&name);
                        }
                    }
                }
            }
        } else {
            for name in self.mentioned_tainted(cond) {
                branch.remove(&name);
                guarded.push(name);
            }
        }

        let Some(body) = trees[b].group() else {
            return b + 1;
        };
        let bails = diverges(body);
        let saved = std::mem::replace(&mut self.tainted, branch);
        self.stmts(&body.trees);
        let branch_out = std::mem::replace(&mut self.tainted, saved);
        // Join: additions and re-taints from the branch survive; branch-
        // local sanitization does not (the other path may not sanitize).
        for (k, v) in branch_out {
            self.tainted.insert(k, v);
        }
        if bails {
            for g in &guarded {
                self.tainted.remove(g);
            }
        }

        if trees.get(b + 1).is_some_and(|t| t.is_ident("else")) {
            if trees.get(b + 2).is_some_and(|t| t.is_ident("if")) {
                return self.stmt_if(trees, b + 2);
            }
            if let Some(g) = trees.get(b + 2).and_then(Tree::group) {
                let saved = self.tainted.clone();
                self.stmts(&g.trees);
                let after = std::mem::replace(&mut self.tainted, saved);
                for (k, v) in after {
                    self.tainted.insert(k, v);
                }
                return b + 3;
            }
        }
        b + 1
    }

    /// `for pat in iter { … }` — a tainted range bound is a loop-bound
    /// sink; iterating a tainted sequence taints the bound pattern.
    fn stmt_for(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(inp) = (i + 1..trees.len()).find(|&j| trees[j].is_ident("in")) else {
            return i + 1;
        };
        let Some(b) = find_block(trees, inp + 1) else {
            return i + 1;
        };
        let pat = &trees[i + 1..inp];
        let iter = &trees[inp + 1..b];
        self.check_expr(iter);
        let mut ranges = Vec::new();
        collect_ranges(iter, &mut ranges);
        if ranges.is_empty() {
            let taint = self
                .taint_after_sanitizers(iter)
                .or_else(|| bare_input(iter));
            if let Some(o) = taint {
                for name in pattern_names(pat) {
                    self.bind(name, o.clone());
                }
            }
        } else {
            for (lo, hi) in ranges {
                for side in [lo, hi] {
                    self.check_sink(side, "loop bound", iter.first().map_or(0, Tree::line));
                }
            }
        }
        if let Some(g) = trees[b].group() {
            self.stmts(&g.trees);
        }
        b + 1
    }

    /// Assignments, receiver mutations, and plain expression statements.
    fn stmt_generic(&mut self, trees: &[Tree], i: usize) -> usize {
        let end = stmt_end(trees, i + 1);
        let seg = &trees[i..end];
        let mut s = 0;
        while seg
            .get(s)
            .is_some_and(|t| t.is_punct("*") || t.is_punct("&"))
        {
            s += 1;
        }
        let target = seg
            .get(s)
            .and_then(Tree::leaf)
            .filter(|t| t.kind == Kind::Ident);
        let op_is = |p: &str| seg.get(s + 1).is_some_and(|t| t.is_punct(p));
        if let (Some(target), true) = (target, ASSIGN_OPS.iter().any(|p| op_is(p))) {
            let name = target.text.clone();
            let expr = &seg[s + 2..];
            self.check_expr(expr);
            let taint = self.taint_after_sanitizers(expr);
            match taint {
                Some(o) => self.bind(name, o),
                // A plain reassignment to a clean value clears the slot;
                // compound ops keep whatever taint was already there.
                None if op_is("=") => {
                    self.tainted.remove(&name);
                }
                None => {}
            }
            return end + 1;
        }
        self.check_expr(seg);
        // `out.push(tainted)` and friends taint the local collection.
        if let (Some(recv), Some(method)) = (
            seg.first().and_then(Tree::leaf),
            seg.get(2).and_then(Tree::leaf),
        ) {
            if recv.kind == Kind::Ident
                && seg.get(1).is_some_and(|t| t.is_punct("."))
                && TAINTING_MUTATORS.contains(&method.text.as_str())
            {
                if let Some(g) = seg.get(3).and_then(Tree::group).filter(|g| g.delim == '(') {
                    if let Some(o) = self.expr_taint(&g.trees) {
                        self.bind(recv.text.clone(), o);
                    }
                }
            }
        }
        end + 1
    }

    /// Expression taint with sanitizers applied on top.
    fn taint_after_sanitizers(&self, expr: &[Tree]) -> Option<Origin> {
        let taint = self.expr_taint(expr)?;
        if self.is_sanitized(expr) {
            None
        } else {
            Some(taint)
        }
    }

    /// Scans an expression for sinks: allocation sizes, slice indices,
    /// and tainted arguments flowing into callees' recorded sinks.
    fn check_expr(&mut self, trees: &[Tree]) {
        for k in 0..trees.len() {
            match &trees[k] {
                Tree::Group(g) => {
                    if g.delim == '[' && is_index_position(trees, k) {
                        self.check_index_group(g);
                    }
                    self.check_expr(&g.trees);
                }
                Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                    // `vec![elem; count]` — the repeat count allocates.
                    if tok.text == "vec" && trees.get(k + 1).is_some_and(|t| t.is_punct("!")) {
                        if let Some(g) = trees.get(k + 2).and_then(Tree::group) {
                            if let Some(semi) = g.trees.iter().position(|t| t.is_punct(";")) {
                                self.check_sink(&g.trees[semi + 1..], "allocation size", tok.line);
                            }
                        }
                        continue;
                    }
                    let Some(g) = trees
                        .get(k + 1)
                        .and_then(Tree::group)
                        .filter(|g| g.delim == '(')
                    else {
                        continue;
                    };
                    let name = tok.text.as_str();
                    if name == "with_capacity" {
                        self.check_sink(&g.trees, "allocation size", tok.line);
                    } else if matches!(name, "resize" | "resize_with" | "reserve")
                        && k > 0
                        && trees[k - 1].is_punct(".")
                    {
                        self.check_sink(first_arg(&g.trees), "allocation size", tok.line);
                    }
                    self.check_call_args(tok.line, name, g);
                }
                Tree::Leaf(_) => {}
            }
        }
    }

    /// `recv[index]` — each side of a range index (or the whole content)
    /// is a slice-index sink.
    fn check_index_group(&mut self, g: &Group) {
        let line = g.trees.first().map_or(0, Tree::line);
        if let Some(r) = g
            .trees
            .iter()
            .position(|t| t.is_punct("..") || t.is_punct("..="))
        {
            self.check_sink(&g.trees[..r], "slice index", line);
            self.check_sink(&g.trees[r + 1..], "slice index", line);
        } else {
            self.check_sink(&g.trees, "slice index", line);
        }
    }

    /// Records a finding when `trees` carries unsanitized taint.
    fn check_sink(&mut self, trees: &[Tree], what: &'static str, fallback_line: usize) {
        let Some(origin) = self.taint_after_sanitizers(trees) else {
            return;
        };
        let line = trees.first().map_or(fallback_line, Tree::line);
        self.findings.push(Finding {
            line,
            what,
            detail: compact(trees),
            origin,
            sink_hops: Vec::new(),
        });
    }

    /// A tainted argument in a position the callee's summary records as
    /// sink-reaching is a finding at the call site.
    fn check_call_args(&mut self, line: usize, name: &str, g: &Group) {
        if KEYWORDS.contains(&name) {
            return;
        }
        let targets = self.resolve(name);
        if targets.is_empty() {
            return;
        }
        for (ai, arg) in split_args(&g.trees).into_iter().enumerate() {
            let Some(origin) = self.taint_after_sanitizers(arg) else {
                continue;
            };
            for &t in &targets {
                let Some(ps) = self.sums.param_sinks.get(t).and_then(|m| m.get(&ai)) else {
                    continue;
                };
                let mut sink_hops = vec![name.to_string()];
                sink_hops.extend(ps.hops.iter().cloned());
                self.findings.push(Finding {
                    line,
                    what: ps.what,
                    detail: ps.detail.clone(),
                    origin,
                    sink_hops,
                });
                break;
            }
        }
    }

    /// The taint carried by an expression, if any. Resolved calls are
    /// trusted to their summaries (a clean summary launders its
    /// arguments); unresolved calls (std, methods) conservatively pass
    /// argument taint through (`usize::from(n)`, `Ok(n)`, `n.to_vec()`).
    fn expr_taint(&self, trees: &[Tree]) -> Option<Origin> {
        // A reader-method call anywhere wins over every other origin:
        // `r.read_bits(n)` is wire data even when `r` itself is a seeded
        // parameter, and the concrete source makes the better witness.
        if let Some(m) = find_source_call(trees) {
            return Some(Origin::Source(m));
        }
        self.expr_taint_inner(trees)
    }

    fn expr_taint_inner(&self, trees: &[Tree]) -> Option<Origin> {
        let mut k = 0;
        while k < trees.len() {
            match &trees[k] {
                Tree::Group(g) => {
                    if let Some(o) = self.expr_taint(&g.trees) {
                        return Some(o);
                    }
                    k += 1;
                }
                Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                    let name = tok.text.as_str();
                    // Opaque constructor: `Name { field: … }` struct
                    // literals do not propagate field taint (the tracker
                    // is field-insensitive; tainting the aggregate would
                    // poison every later projection of it).
                    if name.chars().next().is_some_and(char::is_uppercase)
                        && trees
                            .get(k + 1)
                            .and_then(Tree::group)
                            .is_some_and(|g| g.delim == '{')
                    {
                        k += 2;
                        continue;
                    }
                    // Control-flow headers are not value flows: `match x
                    // { arms }` returns its arms, not its scrutinee.
                    if matches!(name, "match" | "if" | "while" | "for") {
                        let Some(b) = find_block(trees, k + 1) else {
                            k += 1;
                            continue;
                        };
                        k = b;
                        continue;
                    }
                    if let Some(g) = trees
                        .get(k + 1)
                        .and_then(Tree::group)
                        .filter(|g| g.delim == '(')
                    {
                        if KEYWORDS.contains(&name) {
                            k += 1;
                            continue;
                        }
                        if vocab::reader(name).is_some() {
                            return Some(Origin::Source(tok.text.clone()));
                        }
                        let targets = self.resolve(name);
                        for &t in &targets {
                            if self.sums.returns.get(t).is_some_and(Option::is_some) {
                                return Some(Origin::Call(tok.text.clone(), t));
                            }
                        }
                        for (ai, arg) in split_args(&g.trees).into_iter().enumerate() {
                            let resolved_flow = targets.iter().any(|&t| {
                                self.sums
                                    .param_returns
                                    .get(t)
                                    .is_some_and(|s| s.contains(&ai))
                            });
                            // A bare input buffer (`read_le_u32(data, …)`)
                            // carries wire taint into a callee whose summary
                            // says this param reaches its return; unresolved
                            // calls get only explicit-taint flow, else every
                            // `Struct::new(buf)` would poison its result.
                            let o = self.expr_taint(arg).or_else(|| {
                                if resolved_flow {
                                    bare_input(arg)
                                } else {
                                    None
                                }
                            });
                            let Some(o) = o else {
                                continue;
                            };
                            let flows = if targets.is_empty() {
                                true
                            } else {
                                resolved_flow
                            };
                            if flows {
                                return Some(Origin::Through(tok.text.clone(), Box::new(o)));
                            }
                        }
                        // Resolved call with a clean summary: launders.
                        k += 2;
                        continue;
                    }
                    if k > 0 && trees[k - 1].is_punct(".") {
                        // Field access / method name: the receiver was
                        // already inspected at its own token.
                        k += 1;
                        continue;
                    }
                    if reads_input(trees, k) {
                        return Some(Origin::WireRead(tok.text.clone()));
                    }
                    // Passing an input buffer itself or taking its length
                    // does not taint.
                    if INPUT_NAMES.contains(&name) {
                        k += 1;
                        continue;
                    }
                    if let Some(o) = self.tainted.get(name) {
                        if !trusted_projection(trees, k) {
                            return Some(o.clone());
                        }
                    }
                    k += 1;
                }
                Tree::Leaf(_) => {
                    k += 1;
                }
            }
        }
        None
    }

    /// Whether the expression flows through a recognized sanitizer.
    fn is_sanitized(&self, trees: &[Tree]) -> bool {
        let mut k = 0;
        while k < trees.len() {
            match &trees[k] {
                Tree::Group(g) => {
                    if self.is_sanitized(&g.trees) {
                        return true;
                    }
                }
                Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                    let name = tok.text.as_str();
                    let args = trees
                        .get(k + 1)
                        .and_then(Tree::group)
                        .filter(|g| g.delim == '(');
                    if let Some(g) = args {
                        let prev_dot = k > 0 && trees[k - 1].is_punct(".");
                        if prev_dot && (name == "min" || name == "clamp") {
                            // `x.min(CAP)` bounds a tainted x; `CAP.min(x)`
                            // bounds a tainted x too. clamp needs its
                            // bounds clean.
                            let args_clean = self.expr_taint(&g.trees).is_none();
                            let recv_clean = k >= 1 && self.expr_taint(&trees[..k - 1]).is_none();
                            let ok = if name == "min" {
                                args_clean || recv_clean
                            } else {
                                args_clean
                            };
                            if ok {
                                return true;
                            }
                        }
                        if name == "try_from"
                            && k >= 2
                            && trees[k - 1].is_punct("::")
                            && trees[k - 2]
                                .leaf()
                                .is_some_and(|t| NARROW_TYPES.contains(&t.text.as_str()))
                        {
                            return true;
                        }
                    }
                }
                Tree::Leaf(_) => {}
            }
            k += 1;
        }
        false
    }

    /// Tainted names mentioned anywhere in `trees` (for guard clearing).
    fn mentioned_tainted(&self, trees: &[Tree]) -> Vec<String> {
        let mut out = Vec::new();
        let mut leaves = Vec::new();
        for t in trees {
            match t {
                Tree::Leaf(tok) => leaves.push(tok),
                Tree::Group(g) => g.leaves(&mut leaves),
            }
        }
        for tok in leaves {
            if tok.kind == Kind::Ident
                && self.tainted.contains_key(&tok.text)
                && !out.contains(&tok.text)
            {
                out.push(tok.text.clone());
            }
        }
        out
    }

    /// Bodied definitions for a call name, within the ambiguity cap.
    fn resolve(&self, name: &str) -> Vec<usize> {
        let targets = self.index.resolve_defined(name);
        if targets.len() > MAX_CANDIDATES {
            Vec::new()
        } else {
            targets
        }
    }
}

/// The top-level statements of a block, split on `;` and match-arm `,`.
pub(crate) fn statements(trees: &[Tree]) -> impl Iterator<Item = &[Tree]> {
    let mut k = 0;
    std::iter::from_fn(move || {
        (k < trees.len()).then(|| {
            let end = stmt_end(trees, k + 1);
            let seg = &trees[k..end];
            k = end + 1;
            seg
        })
    })
}

/// First statement-terminator (`;` or a match-arm `,`) at this level.
pub(crate) fn stmt_end(trees: &[Tree], from: usize) -> usize {
    (from..trees.len())
        .find(|&j| trees[j].is_punct(";") || trees[j].is_punct(","))
        .unwrap_or(trees.len())
}

/// Index of the next `{ … }` group at this level.
pub(crate) fn find_block(trees: &[Tree], from: usize) -> Option<usize> {
    (from..trees.len()).find(|&j| matches!(&trees[j], Tree::Group(g) if g.delim == '{'))
}

/// The body's tail expression: everything after the last top-level `;`.
pub(crate) fn tail_expr(trees: &[Tree]) -> &[Tree] {
    match trees.iter().rposition(|t| t.is_punct(";")) {
        Some(k) => &trees[k + 1..],
        None => trees,
    }
}

/// Whether a `[ … ]` group at `k` is an index (follows a value) rather
/// than an array literal, attribute, or pattern.
pub(crate) fn is_index_position(trees: &[Tree], k: usize) -> bool {
    let Some(prev) = k.checked_sub(1).map(|p| &trees[p]) else {
        return false;
    };
    match prev {
        Tree::Group(g) => g.delim == '(' || g.delim == '[',
        Tree::Leaf(tok) => {
            (tok.kind == Kind::Ident && !KEYWORDS.contains(&tok.text.as_str())) || tok.text == "?"
        }
    }
}

/// All `lo..hi` / `lo..=hi` splits in `trees`, one per nesting level.
fn collect_ranges<'t>(trees: &'t [Tree], out: &mut Vec<(&'t [Tree], &'t [Tree])>) {
    if let Some(r) = trees
        .iter()
        .position(|t| t.is_punct("..") || t.is_punct("..="))
    {
        out.push((&trees[..r], &trees[r + 1..]));
    }
    for t in trees {
        if let Tree::Group(g) = t {
            collect_ranges(&g.trees, out);
        }
    }
}

/// Splits a call argument list on top-level commas, keeping a closure's
/// `|a, b|` parameter list whole.
pub(crate) fn split_args(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut k = 0;
    while k < trees.len() {
        if trees[k].is_punct("|") && (k == start || trees[k - 1].is_ident("move")) {
            k = (k + 1..trees.len())
                .find(|&j| trees[j].is_punct("|"))
                .unwrap_or(trees.len());
        } else if trees[k].is_punct(",") {
            out.push(&trees[start..k]);
            start = k + 1;
        }
        k += 1;
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Splits trees on every top-level `sep` punct (`&&`, `||`).
pub(crate) fn split_on<'t>(trees: &'t [Tree], sep: &str) -> Vec<&'t [Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (k, t) in trees.iter().enumerate() {
        if t.is_punct(sep) {
            out.push(&trees[start..k]);
            start = k + 1;
        }
    }
    out.push(&trees[start..]);
    out
}

/// The first argument of a call argument list.
pub(crate) fn first_arg(trees: &[Tree]) -> &[Tree] {
    split_args(trees).first().copied().unwrap_or(&[])
}

/// Binding names in a pattern: every lowercase ident that is not a
/// keyword (constructors like `Some` are uppercase by convention).
pub(crate) fn pattern_names(pat: &[Tree]) -> Vec<String> {
    fn go(pat: &[Tree], out: &mut Vec<String>) {
        for t in pat {
            match t {
                Tree::Group(g) => go(&g.trees, out),
                Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                    let s = tok.text.as_str();
                    let skip = matches!(s, "mut" | "ref" | "box" | "_")
                        || s.chars().next().is_some_and(char::is_uppercase);
                    if !skip && !out.contains(&tok.text) {
                        out.push(tok.text.clone());
                    }
                }
                Tree::Leaf(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    go(pat, &mut out);
    out
}

/// Whether a guard body escapes the enclosing flow (`return`, `break`,
/// `continue`, `panic!`); nested-loop `break`s over-approximate, which
/// only makes the guard more lenient.
fn diverges(g: &Group) -> bool {
    let mut leaves = Vec::new();
    g.leaves(&mut leaves);
    leaves.iter().any(|tok| {
        tok.kind == Kind::Ident
            && matches!(tok.text.as_str(), "return" | "break" | "continue" | "panic")
    })
}

/// The first `f(trees, k, name)` hit over the identifiers `trees[k]`
/// at any depth, in tree order.
pub(crate) fn find_ident<T>(
    trees: &[Tree],
    f: &impl Fn(&[Tree], usize, &str) -> Option<T>,
) -> Option<T> {
    trees.iter().enumerate().find_map(|(k, t)| match t {
        Tree::Group(g) => find_ident(&g.trees, f),
        Tree::Leaf(tok) if tok.kind == Kind::Ident => f(trees, k, &tok.text),
        Tree::Leaf(_) => None,
    })
}

/// Whether `trees[k]` is applied to a `( … )` argument list.
pub(crate) fn is_call(trees: &[Tree], k: usize) -> bool {
    trees
        .get(k + 1)
        .and_then(Tree::group)
        .is_some_and(|g| g.delim == '(')
}

/// A reader call of a wire primitive in the trees. A call that supplies
/// the value — an operand, or the tail of a branch arm — is preferred
/// over one in an `if`/`match`/`while` header, which only picks the arm:
/// in `if dec.bit(c) { prev } else { dec.bypass_bits(6) }` the value
/// comes from `bypass_bits`. A header read is the answer only when no
/// value-supplying read exists.
pub(crate) fn find_source_call(trees: &[Tree]) -> Option<String> {
    value_source_call(trees).or_else(|| {
        find_ident(trees, &|ts, k, name| {
            (vocab::reader(name).is_some() && is_call(ts, k)).then(|| name.to_string())
        })
    })
}

/// [`find_source_call`] outside control-flow headers.
fn value_source_call(trees: &[Tree]) -> Option<String> {
    let mut k = 0;
    while k < trees.len() {
        match &trees[k] {
            Tree::Group(g) => {
                if let Some(m) = value_source_call(&g.trees) {
                    return Some(m);
                }
            }
            Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                let name = tok.text.as_str();
                if matches!(name, "if" | "match" | "while") {
                    if let Some(b) = find_block(trees, k + 1) {
                        k = b;
                        continue;
                    }
                }
                if vocab::reader(name).is_some() && is_call(trees, k) {
                    return Some(name.to_string());
                }
            }
            Tree::Leaf(_) => {}
        }
        k += 1;
    }
    None
}

/// Whether `trees[k]` projects through `.len()`-style bookkeeping only.
fn trusted_projection(trees: &[Tree], k: usize) -> bool {
    trees.get(k + 1).is_some_and(|t| t.is_punct("."))
        && trees
            .get(k + 2)
            .and_then(Tree::leaf)
            .is_some_and(|p| TRUSTED_PROJECTIONS.contains(&p.text.as_str()))
}

/// Whether the identifier `trees[k]` reads the *contents* of an input
/// buffer: an input name (not a `self.data` field) that is indexed or
/// projected through anything but a trusted projection.
pub(crate) fn reads_input(trees: &[Tree], k: usize) -> bool {
    let after_dot = k > 0 && trees[k - 1].is_punct(".");
    let indexed = trees
        .get(k + 1)
        .and_then(Tree::group)
        .is_some_and(|g| g.delim == '[');
    let projected =
        trees.get(k + 1).is_some_and(|t| t.is_punct(".")) && !trusted_projection(trees, k);
    !after_dot
        && trees[k]
            .leaf()
            .is_some_and(|t| INPUT_NAMES.contains(&t.text.as_str()))
        && (indexed || projected)
}

/// A bare input-named ident used as an iterable (`for b in data`).
fn bare_input(trees: &[Tree]) -> Option<Origin> {
    for (k, t) in trees.iter().enumerate() {
        if let Some(tok) = t.leaf() {
            if tok.kind == Kind::Ident
                && INPUT_NAMES.contains(&tok.text.as_str())
                && (k == 0 || !trees[k - 1].is_punct("."))
            {
                return Some(Origin::WireRead(tok.text.clone()));
            }
        }
    }
    None
}

/// Compact single-line rendering of an expression for messages.
pub(crate) fn compact(trees: &[Tree]) -> String {
    let text = to_text(trees);
    let mut out: String = text.chars().take(60).collect();
    if text.chars().count() > 60 {
        out.push('…');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn index_of(src: &str) -> Index {
        Workspace::of(&[("llm265-bitstream", &[("crates/bitstream/src/lib.rs", src)])])
            .build_index()
    }

    fn report(src: &str) -> Vec<Finding> {
        let index = index_of(src);
        let sums = summarize(&index);
        let mut out = Vec::new();
        for id in 0..index.fns.len() {
            out.extend(analyze(&index, &sums, id, false).findings);
        }
        out
    }

    fn progress_of(src: &str, name: &str) -> bool {
        let index = index_of(src);
        let sums = summarize(&index);
        let id = index
            .fns
            .iter()
            .position(|e| e.item.name == name)
            .expect("function present");
        sums.progress[id]
    }

    #[test]
    fn consuming_read_with_question_mark_progresses() {
        assert!(progress_of(
            "fn step(r: &mut R) -> Result<u32, E> {\n    let b = r.read_bits(4)?;\n    Ok(b as u32)\n}\n",
            "step",
        ));
    }

    #[test]
    fn swallowed_error_does_not_progress() {
        // Without `?` the exhaustion error may be discarded and the
        // caller's loop spins at end of stream.
        assert!(!progress_of(
            "fn step(r: &mut R) -> u32 {\n    let b = r.read_bits(4).unwrap_or(0);\n    b as u32\n}\n",
            "step",
        ));
    }

    #[test]
    fn early_plain_return_defeats_progress() {
        assert!(!progress_of(
            "fn step(r: &mut R, skip: bool) -> Result<u32, E> {\n    if skip {\n        return Ok(0);\n    }\n    let b = r.read_bits(1)?;\n    Ok(b as u32)\n}\n",
            "step",
        ));
    }

    #[test]
    fn early_err_return_is_harmless() {
        assert!(progress_of(
            "fn step(r: &mut R, k: u32) -> Result<u32, E> {\n    if k > 8 {\n        return Err(E::LimitExceeded);\n    }\n    let b = r.read_bits(k)?;\n    Ok(b as u32)\n}\n",
            "step",
        ));
    }

    #[test]
    fn conditional_consume_does_not_progress() {
        // The read sits inside a block; some path skips it.
        assert!(!progress_of(
            "fn step(r: &mut R, f: bool) -> Result<u32, E> {\n    let mut b = 0;\n    if f {\n        b = r.read_bits(4)?;\n    }\n    Ok(b)\n}\n",
            "step",
        ));
    }

    #[test]
    fn progress_is_transitive_through_helpers() {
        let src = "fn leaf(r: &mut R) -> Result<bool, E> { Ok(r.read_bits(1)?) }\n\
                   fn mid(r: &mut R) -> Result<u32, E> {\n    let b = leaf(r)?;\n    Ok(b as u32)\n}\n\
                   fn top(r: &mut R) -> Result<u32, E> {\n    let v = mid(r)?;\n    Ok(v + 1)\n}\n";
        assert!(progress_of(src, "leaf"));
        assert!(progress_of(src, "mid"));
        assert!(progress_of(src, "top"));
    }

    #[test]
    fn unresolved_callee_does_not_progress() {
        assert!(!progress_of(
            "fn step(r: &mut R) -> Result<u32, E> {\n    let b = mystery(r)?;\n    Ok(b)\n}\n",
            "step",
        ));
    }

    #[test]
    fn direct_source_to_allocation_fires() {
        let f = report(
            "fn decode(r: &mut R) -> Vec<u8> {\n    let n = r.read_le_u64() as usize;\n    Vec::with_capacity(n)\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].what, "allocation size");
        assert!(
            matches!(f[0].origin, Origin::Source(_)),
            "{:?}",
            f[0].origin
        );
    }

    #[test]
    fn taint_laundered_through_helper_keeps_the_hop() {
        let src = "fn helper(r: &mut R) -> usize { r.read_bits(32) as usize }\n\
                   fn decode(r: &mut R) -> Vec<u8> {\n    let n = helper(r);\n    Vec::with_capacity(n)\n}\n";
        let index = index_of(src);
        let sums = summarize(&index);
        let mut all = Vec::new();
        for id in 0..index.fns.len() {
            all.extend(analyze(&index, &sums, id, false).findings);
        }
        assert_eq!(all.len(), 1, "{all:?}");
        let chain = origin_chain(&sums, &all[0].origin);
        assert_eq!(chain, vec!["read_bits()", "helper"], "{chain:?}");
    }

    #[test]
    fn min_against_constant_sanitizes() {
        let f = report(
            "fn decode(r: &mut R) -> Vec<u8> {\n    let n = (r.read_le_u64() as usize).min(MAX_LEN);\n    Vec::with_capacity(n)\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn diverging_guard_sanitizes_permanently() {
        let f = report(
            "fn decode(r: &mut R) -> Result<Vec<u8>, E> {\n    let n = r.read_bits(32) as usize;\n    if n > MAX_LEN {\n        return Err(E::LimitExceeded);\n    }\n    Ok(Vec::with_capacity(n))\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_diverging_guard_does_not_sanitize() {
        let f = report(
            "fn decode(r: &mut R) -> Vec<u8> {\n    let n = r.read_bits(32) as usize;\n    if n > MAX_LEN {\n        log(n);\n    }\n    Vec::with_capacity(n)\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn tainted_loop_bound_and_slice_index_fire() {
        let f = report(
            "fn decode(data: &[u8]) -> u8 {\n    let n = usize::from(data[0]);\n    let mut acc = 0;\n    for _ in 0..n {\n        acc += 1;\n    }\n    let j = usize::from(data[1]);\n    acc + data[j]\n}\n",
        );
        let whats: Vec<&str> = f.iter().map(|x| x.what).collect();
        assert!(whats.contains(&"loop bound"), "{f:?}");
        assert!(whats.contains(&"slice index"), "{f:?}");
    }

    #[test]
    fn tainted_argument_reaches_callee_sink() {
        let src = "fn alloc(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
                   fn decode(r: &mut R) -> Vec<u8> {\n    let n = r.read_bits(32) as usize;\n    alloc(n)\n}\n";
        let index = index_of(src);
        let sums = summarize(&index);
        let decode = index.by_name["decode"][0];
        let f = analyze(&index, &sums, decode, false).findings;
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].sink_hops, vec!["alloc".to_string()]);
        assert_eq!(f[0].what, "allocation size");
    }

    #[test]
    fn narrow_try_from_sanitizes() {
        let f = report(
            "fn decode(r: &mut R) -> Result<Vec<u8>, E> {\n    let n = u16::try_from(r.read_bits(32)).map_err(|_| E::Corrupt)?;\n    Ok(Vec::with_capacity(usize::from(n)))\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn input_projection_taints_but_len_does_not() {
        let f = report(
            "fn decode(data: &[u8]) -> Vec<u8> {\n    let a = data.len();\n    let v = Vec::with_capacity(a);\n    let b = usize::from(data[0]);\n    let mut w = Vec::new();\n    w.resize(b, 0);\n    w\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let index = index_of("");
        let sums = summarize(&index);
        let chain = origin_chain(&sums, &f[0].origin);
        assert!(chain[0].contains("data"), "{chain:?}");
    }

    #[test]
    fn struct_literals_are_opaque() {
        let src = "fn decode(r: &mut R) -> Vec<u8> {\n    let n = r.read_bits(32) as usize;\n    let cfg = Cfg { size: n };\n    Vec::with_capacity(cfg.size)\n}\n";
        // Field-insensitivity: the aggregate does not carry the field's
        // taint (documented imprecision).
        assert!(report(src).is_empty());
    }

    #[test]
    fn summaries_record_param_sinks_transitively() {
        let src = "fn leaf(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
                   fn mid(m: usize) -> Vec<u8> { leaf(m + 1) }\n";
        let index = index_of(src);
        let sums = summarize(&index);
        let mid = index.by_name["mid"][0];
        let sink = sums.param_sinks[mid].get(&0).expect("mid param sink");
        assert_eq!(sink.hops, vec!["leaf".to_string()]);
    }
}
