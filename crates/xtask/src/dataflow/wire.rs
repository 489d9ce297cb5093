//! Symbolic wire-grammar extraction and the encoder/decoder duality
//! checker behind the `wire-schema` pass.
//!
//! For a paired writer/reader function this module extracts the ordered
//! sequence of *wire operations* each side performs — `write_bits` /
//! `read_bits` widths, byte and little-endian fields, context-coded
//! bins, bypass runs — as a small grammar ([`Node`]) with
//! guard conditions (version checks, flag bits) and loop counts tied to
//! interval facts (diverging guards in the function itself, or a
//! `ranges.toml` contract). Calls into other wire-relevant workspace
//! functions become [`NodeKind::Call`] leaves, so layers compose the way
//! `wire-taint` follows the call graph.
//!
//! The comparator then proves the two grammars are *duals*: same field
//! order, same widths, same guard structure. Reader-side guards over
//! header fields are evaluated against writer-side constant values (the
//! writer emits `VERSION`, the reader branches on `version >= 2`), branch
//! arms may match under a permutation (a writer's `if !mpm { … }` against
//! a reader's `if mpm { … } else { … }`), and a writer's
//! unary-with-terminator loop is folded into the same [`NodeKind::Unary`]
//! shape as the reader's `while bit()` form.
//!
//! Known imprecision (deliberate, documented in DESIGN.md): guard *text*
//! is not compared across sides (only guard structure and any constant
//! facts that resolve a branch), loop bounds are recorded but not
//! compared, opaque byte copies (`extend_from_slice` of a payload) are
//! invisible, and batched-arithmetic writers against bin-loop readers
//! (exp-Golomb, Rice) are structurally incomparable — those pairs are
//! trusted to pinned round-trip tests instead.

use std::collections::{BTreeMap, BTreeSet};

use super::interval::{fold_const, Contract};
use super::{find_block, split_args, split_on, stmt_end, MAX_CANDIDATES};
use crate::ast::index::Index;
use crate::ast::lex::{lex, Kind};
use crate::ast::tree::{build, to_text, Group, Tree};
use crate::vocab::{Yield, PRIMITIVES};

/// One terminal wire operation: a call of one of the
/// [`crate::vocab::PRIMITIVES`], on the side being extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOp {
    /// The primitive's grammar token (`bits`, `le32`, `bit`, …).
    pub token: &'static str,
    /// What the primitive yields.
    pub yields: Yield,
    /// The width as source text (compared textually or by constant
    /// folding) or the context field name, for the primitives that take
    /// one.
    pub arg: Option<String>,
}

/// A grammar node: a terminal op, a call into another wire-relevant
/// function, a loop, a guarded branch, or a unary (bit-until-terminator)
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A terminal wire operation.
    Op(WireOp),
    /// Call of another workspace function that (transitively) performs
    /// wire operations.
    Call {
        /// The callee's name as written.
        name: String,
        /// The integer-literal or const-folded arguments, in order; other
        /// arguments are skipped. Both sides must agree on them, so
        /// `parse_eg(dec, 2)` is not the dual of `code_eg(sink, v, 1)`.
        args: Vec<i128>,
    },
    /// A repeated body.
    Loop {
        /// The iteration interval, when it could be tied to a diverging
        /// guard or a `ranges.toml` contract.
        bound: Option<(i128, i128)>,
        /// The grammar of one iteration.
        body: Vec<Node>,
    },
    /// A guarded branch.
    Branch {
        /// The guard condition as source text.
        guard: String,
        /// The arms; `arms[0]` is the then-arm, and a missing else is an
        /// empty arm.
        arms: Vec<Vec<Node>>,
    },
    /// A truncated-unary run on one context: `N` one-bins and a zero
    /// terminator (writer `for { bit(c, true) } bit(c, false)`, reader
    /// `while bit(c)`), or a bypass-unary prefix.
    Unary {
        /// The context field name, or `bypass`.
        ctx: String,
    },
}

/// One extracted grammar node plus its source anchor and field label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// What the node does on the wire.
    pub kind: NodeKind,
    /// 0-based source line of the operation (used to anchor violations).
    pub line: usize,
    /// Field annotation: the reader's `let` binding name, or the
    /// writer's value expression.
    pub detail: String,
}

impl Node {
    fn new(kind: NodeKind, line: usize) -> Self {
        Node {
            kind,
            line,
            detail: String::new(),
        }
    }
}

/// Which half of the codec a function body is extracted as. The side
/// picks the terminal table: `bit(ctx, b)` is a writer terminal,
/// `bit(ctx)` a reader terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The encoder half (`write_*`/`code_*`).
    Writer,
    /// The decoder half (`read_*`/`parse_*`).
    Reader,
}

/// Whether some side's terminal has this name. A call by such a name
/// whose arity matches neither side's shape is treated as opaque rather
/// than as a [`NodeKind::Call`].
fn is_terminal_name(name: &str) -> bool {
    PRIMITIVES.iter().any(|p| p.reads(name) || p.writes(name))
}

/// Longest rendered `detail` kept on a node (labels feed one-line chains).
const DETAIL_CAP: usize = 48;

/// The terminal op for `name(args)` on `side`, if the name and arity
/// match that side's shape (a writer call also passes the value), plus
/// the writer-side value expression (readers get their detail from the
/// surrounding `let` binding instead).
fn terminal(side: Side, name: &str, args: &[&[Tree]]) -> Option<(WireOp, String)> {
    let writer = side == Side::Writer;
    let p = PRIMITIVES.iter().find(|p| {
        if writer {
            p.writes(name)
        } else {
            p.reads(name)
        }
    })?;
    if p.reader_arity()
        .is_some_and(|n| args.len() != n + usize::from(writer))
    {
        return None;
    }
    let arg = match p.yields {
        Yield::Width => args.last().map(|a| to_text(a)),
        Yield::Bin { ctx: true } => args.first().map(|a| ctx_label(a)),
        Yield::Bin { ctx: false } | Yield::Fixed(_) => None,
    };
    let value = match p.yields {
        _ if !writer => None,
        Yield::Bin { ctx: true } => args.get(1),
        Yield::Fixed(_) => args.last(),
        Yield::Width | Yield::Bin { ctx: false } => args.first(),
    };
    let op = WireOp {
        token: p.token,
        yields: p.yields,
        arg,
    };
    Some((
        op,
        value.map(|a| cap_detail(&to_text(a))).unwrap_or_default(),
    ))
}

fn cap_detail(s: &str) -> String {
    let mut out: String = s.chars().take(DETAIL_CAP).collect();
    if s.chars().count() > DETAIL_CAP {
        out.push('…');
    }
    out
}

/// The context field name of a `bit(…)` argument: the last top-level
/// identifier, so `&mut state.ctxs.cbf[cbf_ctx]` labels as `cbf` (the
/// index expression is a group and is skipped).
fn ctx_label(arg: &[Tree]) -> String {
    let mut last = String::new();
    for t in arg {
        if let Some(tok) = t.leaf() {
            if tok.kind == Kind::Ident && !matches!(tok.text.as_str(), "mut" | "ref" | "self") {
                last.clone_from(&tok.text);
            }
        }
    }
    last
}

/// Names of workspace functions that (transitively) perform a wire
/// operation: the fixpoint of "calls a terminal or calls a relevant
/// function". Calls to these become [`NodeKind::Call`] leaves.
#[must_use]
pub fn wire_relevant(index: &Index) -> BTreeSet<String> {
    let mut relevant: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for entry in &index.fns {
            if relevant.contains(&entry.item.name) {
                continue;
            }
            let hits = entry
                .calls
                .iter()
                .any(|c| is_terminal_name(c) || relevant.contains(c));
            if hits && relevant.insert(entry.item.name.clone()) {
                changed = true;
            }
        }
        if !changed {
            return relevant;
        }
    }
}

/// Extracts the wire grammar of one function body.
#[must_use]
pub fn extract(
    index: &Index,
    fn_id: usize,
    side: Side,
    consts: &BTreeMap<String, i128>,
    contracts: &[Contract],
    relevant: &BTreeSet<String>,
) -> Vec<Node> {
    let entry = &index.fns[fn_id];
    let Some(body) = entry.item.body.as_ref() else {
        return Vec::new();
    };
    let mut ex = Extractor {
        index,
        side,
        consts,
        contracts,
        relevant,
        fn_name: entry.item.name.clone(),
        facts: Vec::new(),
    };
    let nodes = ex.walk_stmts(&body.trees);
    normalize(nodes)
}

/// How a guard body leaves the enclosing flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Diverge {
    /// Falls through.
    No,
    /// Bails on the failure path (`return Err`, `continue`, `break`,
    /// `panic!`): a validation guard, not syntax structure.
    Fail,
    /// Returns successfully (`return` / `return Ok(…)`): the rest of the
    /// statement list is this branch's implicit else-arm.
    Done,
}

fn classify(g: &Group) -> Diverge {
    let mut leaves = Vec::new();
    g.leaves(&mut leaves);
    let mut has_return = false;
    for tok in leaves {
        if tok.kind != Kind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "return" => has_return = true,
            "Err" | "panic" | "unreachable" | "continue" | "break" => return Diverge::Fail,
            _ => {}
        }
    }
    if has_return {
        Diverge::Done
    } else {
        Diverge::No
    }
}

/// Whether a node subtree performs any wire operation.
fn has_ops(n: &Node) -> bool {
    match &n.kind {
        NodeKind::Op(_) | NodeKind::Call { .. } | NodeKind::Unary { .. } => true,
        NodeKind::Loop { body, .. } => body.iter().any(has_ops),
        NodeKind::Branch { arms, .. } => arms.iter().flatten().any(has_ops),
    }
}

/// An `if`/`else if`/`else` chain: `(cond, body)` per arm (the final
/// plain `else` has an empty cond) plus the index just past the chain.
struct IfChain<'t> {
    arms: Vec<(&'t [Tree], &'t Group)>,
    end: usize,
}

fn parse_if_chain<'t>(trees: &'t [Tree], i: usize) -> Option<IfChain<'t>> {
    let mut arms = Vec::new();
    let mut k = i;
    loop {
        let blk = find_block(trees, k + 1)?;
        let g = trees[blk].group()?;
        arms.push((&trees[k + 1..blk], g));
        if trees.get(blk + 1).is_some_and(|t| t.is_ident("else")) {
            if trees.get(blk + 2).is_some_and(|t| t.is_ident("if")) {
                k = blk + 2;
                continue;
            }
            let eg = trees.get(blk + 2)?.group()?;
            arms.push((&trees[blk + 2..blk + 2], eg));
            return Some(IfChain { arms, end: blk + 3 });
        }
        return Some(IfChain { arms, end: blk + 1 });
    }
}

struct Extractor<'a> {
    index: &'a Index,
    side: Side,
    consts: &'a BTreeMap<String, i128>,
    contracts: &'a [Contract],
    relevant: &'a BTreeSet<String>,
    fn_name: String,
    /// Facts harvested from dropped diverging guards: `(ident, op, rhs)`
    /// meaning `¬(ident op rhs)` holds downstream.
    facts: Vec<(String, String, i128)>,
}

impl Extractor<'_> {
    fn walk_stmts(&mut self, trees: &[Tree]) -> Vec<Node> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            if trees[i].is_punct(";") || trees[i].is_punct(",") {
                i += 1;
            } else if trees[i].is_punct("#") {
                i += 1;
                if trees.get(i).and_then(Tree::group).is_some() {
                    i += 1;
                }
            } else if trees[i].is_ident("let") {
                let end = stmt_end(trees, i);
                self.let_stmt(&trees[i..end], &mut out);
                i = end + 1;
            } else if trees[i].is_ident("if") {
                let (next, consumed_rest) = self.if_stmt(trees, i, &mut out);
                if consumed_rest {
                    return out;
                }
                i = next;
            } else if trees[i].is_ident("match") {
                i = self.match_stmt(trees, i, &mut out);
            } else if trees[i].is_ident("while") {
                i = self.while_stmt(trees, i, &mut out);
            } else if trees[i].is_ident("for") {
                i = self.for_stmt(trees, i, &mut out);
            } else if trees[i].is_ident("loop") {
                let Some(blk) = find_block(trees, i) else {
                    break;
                };
                let body = self.walk_stmts(trees[blk].group().map_or(&[][..], |g| &g.trees));
                if body.iter().any(has_ops) {
                    out.push(Node::new(
                        NodeKind::Loop { bound: None, body },
                        trees[i].line(),
                    ));
                }
                i = blk + 1;
            } else if trees[i].is_ident("return") {
                let end = stmt_end(trees, i);
                out.extend(self.scan_expr(&trees[i + 1..end]));
                return out;
            } else {
                let end = stmt_end(trees, i);
                out.extend(self.scan_expr(&trees[i..end]));
                i = end + 1;
            }
        }
        out
    }

    /// `let pat = init;` — construct-valued inits recurse; plain inits
    /// are scanned and their ops labelled with a single binding name.
    fn let_stmt(&mut self, stmt: &[Tree], out: &mut Vec<Node>) {
        let Some(eq) = stmt.iter().position(|t| t.is_punct("=")) else {
            return;
        };
        let pat = &stmt[1..eq];
        let init = &stmt[eq + 1..];
        let names = super::pattern_names(pat);
        let binding = if names.len() == 1 {
            names[0].clone()
        } else {
            String::new()
        };
        let start = out.len();
        if init.first().is_some_and(|t| t.is_ident("if")) {
            let (_, _) = self.if_stmt(init, 0, out);
        } else if init.first().is_some_and(|t| t.is_ident("match")) {
            self.match_stmt(init, 0, out);
        } else {
            out.extend(self.scan_expr(init));
        }
        if !binding.is_empty() {
            for n in &mut out[start..] {
                if matches!(n.kind, NodeKind::Op(_)) && n.detail.is_empty() {
                    n.detail.clone_from(&binding);
                }
            }
        }
    }

    /// Statement-level `if` chain. Returns the index past the chain plus
    /// whether the implicit else-arm consumed the rest of the list.
    fn if_stmt(&mut self, trees: &[Tree], i: usize, out: &mut Vec<Node>) -> (usize, bool) {
        let Some(chain) = parse_if_chain(trees, i) else {
            return (trees.len(), false);
        };
        let line = trees[i].line();
        out.extend(self.scan_flat(chain.arms[0].0));
        let guard = to_text(chain.arms[0].0);
        if chain.arms.len() == 1 {
            let (cond, g) = chain.arms[0];
            let body = self.walk_stmts(&g.trees);
            match classify(g) {
                Diverge::Fail if !body.iter().any(has_ops) => {
                    // A validation guard: drop it, keep its facts for
                    // loop bounds downstream.
                    self.harvest(cond);
                    return (chain.end, false);
                }
                Diverge::Done => {
                    let rest = self.walk_stmts(&trees[chain.end..]);
                    out.push(Node::new(
                        NodeKind::Branch {
                            guard,
                            arms: vec![body, rest],
                        },
                        line,
                    ));
                    return (chain.end, true);
                }
                _ => {
                    out.push(Node::new(
                        NodeKind::Branch {
                            guard,
                            arms: vec![body, Vec::new()],
                        },
                        line,
                    ));
                    return (chain.end, false);
                }
            }
        }
        let mut arms = Vec::new();
        for (idx, (cond, g)) in chain.arms.iter().enumerate() {
            let mut nodes = if idx > 0 {
                self.scan_flat(cond)
            } else {
                Vec::new()
            };
            nodes.extend(self.walk_stmts(&g.trees));
            arms.push(nodes);
        }
        out.push(Node::new(NodeKind::Branch { guard, arms }, line));
        (chain.end, false)
    }

    fn match_stmt(&mut self, trees: &[Tree], i: usize, out: &mut Vec<Node>) -> usize {
        let Some(blk) = find_block(trees, i + 1) else {
            return trees.len();
        };
        let scrut = &trees[i + 1..blk];
        let Some(g) = trees[blk].group() else {
            return blk + 1;
        };
        out.extend(self.scan_flat(scrut));
        let arms = self.match_arms(g);
        if !arms.is_empty() {
            out.push(Node::new(
                NodeKind::Branch {
                    guard: to_text(scrut),
                    arms,
                },
                trees[i].line(),
            ));
        }
        blk + 1
    }

    fn match_arms(&mut self, g: &Group) -> Vec<Vec<Node>> {
        let t = &g.trees;
        let mut arms = Vec::new();
        let mut j = 0;
        while j < t.len() {
            let Some(arrow) = (j..t.len()).find(|&k| t[k].is_punct("=>")) else {
                break;
            };
            let body_start = arrow + 1;
            if let Some(bg) = t
                .get(body_start)
                .and_then(Tree::group)
                .filter(|bg| bg.delim == '{')
            {
                arms.push(self.walk_stmts(&bg.trees));
                j = body_start + 1;
            } else {
                let end = (body_start..t.len())
                    .find(|&k| t[k].is_punct(","))
                    .unwrap_or(t.len());
                arms.push(self.scan_expr(&t[body_start..end]));
                j = end + 1;
            }
        }
        arms
    }

    fn while_stmt(&mut self, trees: &[Tree], i: usize, out: &mut Vec<Node>) -> usize {
        let Some(blk) = find_block(trees, i + 1) else {
            return trees.len();
        };
        let cond = &trees[i + 1..blk];
        let body_trees = trees[blk].group().map_or(&[][..], |g| &g.trees);
        let line = trees[i].line();
        let cond_nodes = self.scan_flat(cond);
        let body = self.walk_stmts(body_trees);
        // `while …bit(c)… { no ops }` is a unary run on `c`.
        if !body.iter().any(has_ops) && cond_nodes.len() == 1 {
            if let Some(ctx) = unary_ctx(&cond_nodes[0]) {
                out.push(Node::new(NodeKind::Unary { ctx }, line));
                return blk + 1;
            }
        }
        let mut all = cond_nodes;
        all.extend(body);
        if all.iter().any(has_ops) {
            out.push(Node::new(
                NodeKind::Loop {
                    bound: None,
                    body: all,
                },
                line,
            ));
        }
        blk + 1
    }

    fn for_stmt(&mut self, trees: &[Tree], i: usize, out: &mut Vec<Node>) -> usize {
        let Some(blk) = find_block(trees, i + 1) else {
            return trees.len();
        };
        let iter_start = (i..blk)
            .find(|&k| trees[k].is_ident("in"))
            .map_or(blk, |k| k + 1);
        let iterable = &trees[iter_start..blk];
        let body = self.walk_stmts(trees[blk].group().map_or(&[][..], |g| &g.trees));
        if body.iter().any(has_ops) {
            out.push(Node::new(
                NodeKind::Loop {
                    bound: self.loop_bound(iterable),
                    body,
                },
                trees[i].line(),
            ));
        }
        blk + 1
    }

    /// Iteration interval of a `lo..hi` iterable, when `lo` folds and
    /// `hi` either folds or is an identifier bounded by harvested guard
    /// facts or a `ranges.toml` contract on this function's parameter.
    fn loop_bound(&self, iterable: &[Tree]) -> Option<(i128, i128)> {
        let (lo_t, hi_t, inclusive) = find_range(iterable)?;
        let lo = fold_const(lo_t, self.consts)?;
        let (hi_lo, hi_hi) = if let Some(v) = fold_const(hi_t, self.consts) {
            (v, v)
        } else if let [Tree::Leaf(tok)] = hi_t {
            if tok.kind != Kind::Ident {
                return None;
            }
            self.ident_bounds(&tok.text)?
        } else {
            return None;
        };
        let extra = i128::from(inclusive);
        Some(((hi_lo - lo + extra).max(0), hi_hi - lo + extra))
    }

    /// Bounds for an identifier from dropped diverging guards (which
    /// assert the *negation* of their condition downstream) and from a
    /// contract on this function's parameter. Loop counters are assumed
    /// non-negative (they are `usize` throughout the workspace).
    fn ident_bounds(&self, name: &str) -> Option<(i128, i128)> {
        let mut lo: Option<i128> = None;
        let mut hi: Option<i128> = None;
        let raise = |cur: Option<i128>, v: i128| Some(cur.map_or(v, |c| c.max(v)));
        let lower = |cur: Option<i128>, v: i128| Some(cur.map_or(v, |c| c.min(v)));
        for (id, op, v) in &self.facts {
            if id != name {
                continue;
            }
            match op.as_str() {
                "==" | "!=" if *v == 0 => lo = raise(lo, 1),
                ">" => hi = lower(hi, *v),
                ">=" => hi = lower(hi, *v - 1),
                "<" => lo = raise(lo, *v),
                "<=" => lo = raise(lo, *v + 1),
                _ => {}
            }
        }
        for c in self.contracts {
            if c.func == self.fn_name && c.param == name {
                lo = raise(lo, c.lo);
                hi = lower(hi, c.hi);
            }
        }
        Some((lo.unwrap_or(0), hi?))
    }

    /// Records `ident op literal` facts from a dropped diverging guard,
    /// one per top-level `||` segment.
    fn harvest(&mut self, cond: &[Tree]) {
        for seg in split_on(cond, "||") {
            if seg.len() < 3 {
                continue;
            }
            let (Some(id), Some(op)) = (seg[0].leaf(), seg[1].leaf()) else {
                continue;
            };
            if id.kind != Kind::Ident
                || !matches!(op.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=")
            {
                continue;
            }
            if let Some(v) = fold_const(&seg[2..], self.consts) {
                self.facts.push((id.text.clone(), op.text.clone(), v));
            }
        }
    }

    /// Expression scan that models `&&` short-circuiting: ops after the
    /// first segment only run when the prefix held, so they are wrapped
    /// in a one-armed branch (the reader's `a && dec.bit(…)` against the
    /// writer's `if a { enc.bit(…) }`).
    fn scan_expr(&mut self, trees: &[Tree]) -> Vec<Node> {
        let segs = split_on(trees, "&&");
        if segs.len() > 1 {
            let mut out = self.scan_flat(segs[0]);
            let mut later = Vec::new();
            for s in &segs[1..] {
                later.extend(self.scan_flat(s));
            }
            if !later.is_empty() {
                let line = later[0].line;
                out.push(Node::new(
                    NodeKind::Branch {
                        guard: to_text(segs[0]),
                        arms: vec![later, Vec::new()],
                    },
                    line,
                ));
            }
            return out;
        }
        self.scan_flat(trees)
    }

    /// Flat left-to-right scan: terminals become ops, wire-relevant calls
    /// become `Call` leaves (arguments scanned first), everything else is
    /// recursed into.
    fn scan_flat(&mut self, trees: &[Tree]) -> Vec<Node> {
        let mut out = Vec::new();
        let mut k = 0;
        while k < trees.len() {
            let next_group = trees
                .get(k + 1)
                .and_then(Tree::group)
                .filter(|g| g.delim == '(');
            match (&trees[k], next_group) {
                (Tree::Leaf(tok), Some(g)) if tok.kind == Kind::Ident => {
                    let name = tok.text.as_str();
                    let args = split_args(&g.trees);
                    if let Some((op, detail)) = terminal(self.side, name, &args) {
                        out.push(Node {
                            kind: NodeKind::Op(op),
                            line: tok.line,
                            detail,
                        });
                    } else if is_terminal_name(name) {
                        // A terminal name at the wrong arity (e.g. the
                        // other side's shape): opaque, never a Call.
                    } else if self.relevant.contains(name) && {
                        let targets = self.index.resolve_defined(name);
                        !targets.is_empty() && targets.len() <= MAX_CANDIDATES
                    } {
                        out.extend(self.scan_flat(&g.trees));
                        let args = args
                            .iter()
                            .filter_map(|a| fold_const(a, self.consts))
                            .collect();
                        out.push(Node::new(
                            NodeKind::Call {
                                name: name.to_string(),
                                args,
                            },
                            tok.line,
                        ));
                    } else {
                        out.extend(self.scan_flat(&g.trees));
                    }
                    k += 2;
                }
                (Tree::Group(g), _) => {
                    out.extend(self.scan_flat(&g.trees));
                    k += 1;
                }
                _ => k += 1,
            }
        }
        out
    }
}

/// The `bit`/`bypass` context a single condition op represents.
fn unary_ctx(n: &Node) -> Option<String> {
    match &n.kind {
        NodeKind::Op(WireOp {
            yields: Yield::Bin { ctx },
            arg,
            ..
        }) => Some(if *ctx {
            arg.clone()?
        } else {
            "bypass".to_string()
        }),
        _ => None,
    }
}

/// The `lo..hi` / `lo..=hi` split of an iterable, looking through one
/// level of parens (`(0..n).step_by(k)`).
fn find_range(trees: &[Tree]) -> Option<(&[Tree], &[Tree], bool)> {
    for (k, t) in trees.iter().enumerate() {
        if t.is_punct("..") || t.is_punct("..=") {
            return Some((&trees[..k], &trees[k + 1..], t.is_punct("..=")));
        }
    }
    if let Some(Tree::Group(g)) = trees.first() {
        if g.delim == '(' {
            return find_range(&g.trees);
        }
    }
    None
}

/// Structural normalizations that erase writer/reader idiom differences.
#[must_use]
pub fn normalize(nodes: Vec<Node>) -> Vec<Node> {
    let mut out: Vec<Node> = Vec::new();
    for n in nodes {
        match n.kind {
            NodeKind::Loop { bound, body } => {
                let mut body = normalize(body);
                let mut bound = bound;
                // Flatten a loop whose whole body is another loop (raster
                // `for y { for x { … } }` scans).
                if body.len() == 1 {
                    if let NodeKind::Loop {
                        bound: ib,
                        body: inner,
                    } = body[0].kind.clone()
                    {
                        bound = ib.or(bound);
                        body = inner;
                    }
                }
                if body.iter().any(has_ops) {
                    out.push(Node {
                        kind: NodeKind::Loop { bound, body },
                        line: n.line,
                        detail: n.detail,
                    });
                }
            }
            NodeKind::Branch { guard, arms } => {
                let mut arms: Vec<Vec<Node>> = arms.into_iter().map(normalize).collect();
                // Hoist a common prefix shared by every arm (the writer's
                // `match { A => { bit(cbf); … } B => { bit(cbf); … } }`
                // against the reader's hoisted `bit(cbf)`).
                while arms.len() >= 2
                    && arms.iter().all(|a| !a.is_empty())
                    && arms[1..].iter().all(|a| node_eq(&a[0], &arms[0][0]))
                {
                    let first = arms[0].remove(0);
                    for a in &mut arms[1..] {
                        a.remove(0);
                    }
                    out.push(first);
                }
                if arms.iter().flatten().any(has_ops) {
                    out.push(Node {
                        kind: NodeKind::Branch { guard, arms },
                        line: n.line,
                        detail: n.detail,
                    });
                }
            }
            _ => out.push(n),
        }
    }
    // Merge the writer's truncated-unary idiom: a loop of `bit(c, …)`
    // immediately followed by the terminator `bit(c, …)`.
    let mut merged: Vec<Node> = Vec::new();
    for n in out {
        if let NodeKind::Op(
            op @ WireOp {
                yields: Yield::Bin { ctx: true },
                arg: Some(ctx),
                ..
            },
        ) = &n.kind
        {
            let unary = merged.last().is_some_and(|prev| {
                matches!(
                    &prev.kind,
                    NodeKind::Loop { body, .. }
                        if body.len() == 1 && matches!(&body[0].kind, NodeKind::Op(o) if o == op)
                )
            });
            if unary {
                let prev = merged.pop().unwrap_or_else(|| n.clone());
                merged.push(Node::new(NodeKind::Unary { ctx: ctx.clone() }, prev.line));
                continue;
            }
        }
        merged.push(n);
    }
    merged
}

/// Structural node equality: guards, bounds, lines and details are
/// ignored — only the wire shape counts.
#[must_use]
pub fn node_eq(a: &Node, b: &Node) -> bool {
    match (&a.kind, &b.kind) {
        (NodeKind::Op(x), NodeKind::Op(y)) => x == y,
        (NodeKind::Call { .. }, NodeKind::Call { .. }) => a.kind == b.kind,
        (NodeKind::Unary { ctx: x }, NodeKind::Unary { ctx: y }) => x == y,
        (NodeKind::Loop { body: x, .. }, NodeKind::Loop { body: y, .. }) => {
            x.len() == y.len() && x.iter().zip(y).all(|(m, n)| node_eq(m, n))
        }
        (NodeKind::Branch { arms: x, .. }, NodeKind::Branch { arms: y, .. }) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(m, n)| m.len() == n.len() && m.iter().zip(n).all(|(p, q)| node_eq(p, q)))
        }
        _ => false,
    }
}

/// The first point at which a writer/reader walk diverged.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// 1-based count of matched steps before the divergence.
    pub step: usize,
    /// The writer node at the divergence (`None`: writer exhausted).
    pub writer: Option<Box<Node>>,
    /// The reader node at the divergence (`None`: reader exhausted).
    pub reader: Option<Box<Node>>,
}

/// Compares a writer grammar against a reader grammar for duality.
pub struct Comparator<'a> {
    consts: &'a BTreeMap<String, i128>,
    /// Header-field values learned while matching: a reader binding name
    /// whose writer-side expression constant-folds (`version` = 2).
    env: BTreeMap<String, i128>,
    steps: usize,
}

impl<'a> Comparator<'a> {
    /// A comparator that folds constant expressions against `consts`.
    #[must_use]
    pub fn new(consts: &'a BTreeMap<String, i128>) -> Self {
        Comparator {
            consts,
            env: BTreeMap::new(),
            steps: 0,
        }
    }

    /// Proves `writer` and `reader` are duals, or returns the first
    /// mismatch.
    pub fn compare(&mut self, writer: &[Node], reader: &[Node]) -> Result<(), Mismatch> {
        let mut w: Vec<Node> = writer.iter().rev().cloned().collect();
        let mut r: Vec<Node> = reader.iter().rev().cloned().collect();
        loop {
            match (w.last().cloned(), r.last().cloned()) {
                (None, None) => return Ok(()),
                (Some(a), Some(b)) => {
                    let a_branch = matches!(a.kind, NodeKind::Branch { .. });
                    let b_branch = matches!(b.kind, NodeKind::Branch { .. });
                    if a_branch != b_branch {
                        // One side branches where the other does not: a
                        // guard the matched constants may resolve (the
                        // reader's `version >= 2` against a writer that
                        // always emits version 2).
                        let side = if a_branch { &mut w } else { &mut r };
                        if self.splice_resolved(side) {
                            continue;
                        }
                        return Err(self.mismatch(Some(a), Some(b)));
                    }
                    w.pop();
                    r.pop();
                    self.node_match(&a, &b)?;
                }
                (Some(a), None) => {
                    if self.splice_resolved(&mut w) {
                        continue;
                    }
                    return Err(self.mismatch(Some(a), None));
                }
                (None, Some(b)) => {
                    if self.splice_resolved(&mut r) {
                        continue;
                    }
                    return Err(self.mismatch(None, Some(b)));
                }
            }
        }
    }

    fn mismatch(&self, writer: Option<Node>, reader: Option<Node>) -> Mismatch {
        Mismatch {
            step: self.steps + 1,
            writer: writer.map(Box::new),
            reader: reader.map(Box::new),
        }
    }

    /// If the stack's top is a branch whose guard evaluates under the
    /// env, replaces it with the selected arm. Stacks are reversed
    /// (`last()` is the next node).
    fn splice_resolved(&mut self, stack: &mut Vec<Node>) -> bool {
        let Some(Node {
            kind: NodeKind::Branch { guard, arms },
            ..
        }) = stack.last()
        else {
            return false;
        };
        let Some(taken) = self.eval_guard(guard) else {
            return false;
        };
        if arms.len() > 2 {
            return false;
        }
        let arm = if taken {
            arms.first().cloned().unwrap_or_default()
        } else {
            arms.get(1).cloned().unwrap_or_default()
        };
        stack.pop();
        stack.extend(arm.into_iter().rev());
        true
    }

    fn eval_guard(&self, guard: &str) -> Option<bool> {
        let trees = build(&lex(guard));
        let pos = trees.iter().position(|t| {
            t.leaf()
                .is_some_and(|k| matches!(k.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">="))
        })?;
        let op = trees[pos].leaf()?.text.clone();
        let l = self.eval_side(&trees[..pos])?;
        let r = self.eval_side(&trees[pos + 1..])?;
        Some(match op.as_str() {
            "==" => l == r,
            "!=" => l != r,
            "<" => l < r,
            ">" => l > r,
            "<=" => l <= r,
            _ => l >= r,
        })
    }

    fn eval_side(&self, trees: &[Tree]) -> Option<i128> {
        if let [Tree::Leaf(tok)] = trees {
            if tok.kind == Kind::Ident {
                if let Some(v) = self.env.get(&tok.text) {
                    return Some(*v);
                }
            }
        }
        fold_const(trees, self.consts)
    }

    fn node_match(&mut self, w: &Node, r: &Node) -> Result<(), Mismatch> {
        let ok = match (&w.kind, &r.kind) {
            (NodeKind::Op(a), NodeKind::Op(b)) => {
                let ok = self.op_eq(a, b);
                if ok && !r.detail.is_empty() {
                    if let Some(v) = self.fold_writer_value(&w.detail) {
                        self.env.insert(r.detail.clone(), v);
                    }
                }
                ok
            }
            (NodeKind::Call { name: a, args: x }, NodeKind::Call { name: b, args: y }) => {
                stem(a) == stem(b) && x == y
            }
            (NodeKind::Unary { ctx: a }, NodeKind::Unary { ctx: b }) => a == b,
            (
                NodeKind::Loop { body: a, .. },
                NodeKind::Loop { body: b, .. },
                // Loop bounds are recorded in the spec but deliberately
                // not compared: the writer's bound is usually data-driven
                // while the reader's comes from validation guards.
            ) => {
                self.steps += 1;
                return self.compare(a, b);
            }
            (NodeKind::Branch { arms: a, .. }, NodeKind::Branch { arms: b, .. }) => {
                self.steps += 1;
                return self.arms_match(a, b);
            }
            _ => false,
        };
        if ok {
            self.steps += 1;
            Ok(())
        } else {
            Err(self.mismatch(Some(w.clone()), Some(r.clone())))
        }
    }

    fn op_eq(&self, a: &WireOp, b: &WireOp) -> bool {
        a.token == b.token
            && match (&a.arg, &b.arg) {
                (Some(x), Some(y)) if a.yields == Yield::Width => self.width_eq(x, y),
                _ => a.arg == b.arg,
            }
    }

    fn width_eq(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let fa = fold_const(&build(&lex(a)), self.consts);
        let fb = fold_const(&build(&lex(b)), self.consts);
        matches!((fa, fb), (Some(x), Some(y)) if x == y)
    }

    /// Constant value of a writer-side field expression: direct folding
    /// (`VERSION as u64`) or through an integer `From` conversion
    /// (`u64::from(VERSION)`).
    fn fold_writer_value(&self, detail: &str) -> Option<i128> {
        let trees = build(&lex(detail));
        if let Some(v) = fold_const(&trees, self.consts) {
            return Some(v);
        }
        if let [ty, sep, from, Tree::Group(g)] = trees.as_slice() {
            if ty.leaf().is_some_and(|t| t.kind == Kind::Ident)
                && sep.is_punct("::")
                && from.is_ident("from")
                && g.delim == '('
            {
                return fold_const(&g.trees, self.consts);
            }
        }
        None
    }

    /// Branch-arm comparison: identity order first, then (for small
    /// branches) every permutation — a writer's `if !mpm { … }` arms
    /// come in the opposite order from the reader's `if mpm { … } else`.
    fn arms_match(&mut self, w: &[Vec<Node>], r: &[Vec<Node>]) -> Result<(), Mismatch> {
        if w.len() != r.len() {
            return Err(self.mismatch(
                w.iter().flatten().next().cloned(),
                r.iter().flatten().next().cloned(),
            ));
        }
        let identity = self.try_assignment(w, r, &(0..r.len()).collect::<Vec<_>>());
        if identity.is_ok() {
            return Ok(());
        }
        if w.len() <= 4 {
            for perm in permutations(w.len()) {
                if self.try_assignment(w, r, &perm).is_ok() {
                    return Ok(());
                }
            }
        }
        identity
    }

    fn try_assignment(
        &mut self,
        w: &[Vec<Node>],
        r: &[Vec<Node>],
        perm: &[usize],
    ) -> Result<(), Mismatch> {
        let mut sub = Comparator {
            consts: self.consts,
            env: self.env.clone(),
            steps: self.steps,
        };
        for (wi, &ri) in perm.iter().enumerate() {
            sub.compare(&w[wi], &r[ri])?;
        }
        self.env = sub.env;
        self.steps = sub.steps;
        Ok(())
    }
}

/// The layer stem shared by writer/reader names: `code_residual` and
/// `parse_residual` both stem to `residual`.
#[must_use]
pub fn stem(name: &str) -> &str {
    for p in [
        "write_", "code_", "read_", "parse_", "encode_", "decode_", "build_",
    ] {
        if let Some(rest) = name.strip_prefix(p) {
            return rest;
        }
    }
    name
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(rest: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            cur.push(v);
            go(rest, cur, out);
            cur.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    go(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

/// Compact single-line rendering of a node (chains and the generated
/// spec). Ops carry their field label in brackets when one is known.
#[must_use]
pub fn render_node(n: &Node) -> String {
    let base = match &n.kind {
        NodeKind::Op(op) => render_op(op),
        NodeKind::Call { name, args } => {
            let args: String = args.iter().map(|v| format!(", {v}")).collect();
            format!("call({name}{args})")
        }
        NodeKind::Unary { ctx } => format!("unary({ctx})"),
        NodeKind::Loop { bound, body } => {
            let b = bound
                .map(|(lo, hi)| format!("×[{lo},{hi}]"))
                .unwrap_or_default();
            format!("loop{b}{{ {} }}", render_seq(body))
        }
        NodeKind::Branch { guard, arms } => {
            let rendered: Vec<String> = arms.iter().map(|a| render_seq(a)).collect();
            format!("branch({guard}){{ {} }}", rendered.join(" | "))
        }
    };
    if matches!(n.kind, NodeKind::Op(_)) && !n.detail.is_empty() {
        format!("{base}[{}]", n.detail)
    } else {
        base
    }
}

/// Renders a node sequence, with `ε` for an empty one.
#[must_use]
pub fn render_seq(nodes: &[Node]) -> String {
    if nodes.is_empty() {
        return "ε".to_string();
    }
    nodes.iter().map(render_node).collect::<Vec<_>>().join(", ")
}

fn render_op(op: &WireOp) -> String {
    match &op.arg {
        Some(arg) => format!("{}({arg})", op.token),
        None => op.token.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::interval::fold_consts;
    use crate::source::Workspace;

    fn index_of(src: &str) -> Index {
        Workspace::of(&[(
            "llm265-videocodec",
            &[("crates/videocodec/src/lib.rs", src)],
        )])
        .build_index()
    }

    fn grammar_of(index: &Index, name: &str, side: Side) -> Vec<Node> {
        let consts = fold_consts(index);
        let relevant = wire_relevant(index);
        let id = index.resolve_defined(name)[0];
        extract(index, id, side, &consts, &[], &relevant)
    }

    fn duality(src: &str, writer: &str, reader: &str) -> Result<(), Mismatch> {
        let index = index_of(src);
        let w = grammar_of(&index, writer, Side::Writer);
        let r = grammar_of(&index, reader, Side::Reader);
        let consts = fold_consts(&index);
        Comparator::new(&consts).compare(&w, &r)
    }

    #[test]
    fn header_guard_resolves_against_writer_constant() {
        let src = r#"
            const VERSION: u8 = 2;
            fn write_hdr(w: &mut BitWriter, flags: u8) {
                w.write_bits(MAGIC as u64, 32);
                w.write_bits(VERSION as u64, 8);
                w.write_bits(u64::from(flags), 8);
            }
            fn parse_hdr(r: &mut BitReader) -> Result<u8, CodecError> {
                if (r.read_bits(32)? & 0xFFFF_FFFF) as u32 != MAGIC {
                    return Err(CodecError::Corrupt("bad magic"));
                }
                let version = (r.read_bits(8)? & 0xFF) as u8;
                let flags = if version >= 2 {
                    (r.read_bits(8)? & 0xFF) as u8
                } else {
                    0
                };
                Ok(flags)
            }
        "#;
        duality(src, "write_hdr", "parse_hdr").expect("header duality");
    }

    #[test]
    fn order_swap_is_flagged_with_both_sides() {
        let src = r#"
            fn write_x<S: BinSink>(s: &mut S, gap: u64) {
                s.bypass_bits(gap, 4);
                s.bypass(false);
            }
            fn parse_x<D: BinSource>(d: &mut D) -> u64 {
                let flag = d.bypass();
                let gap = d.bypass_bits(4);
                gap
            }
        "#;
        let m = duality(src, "write_x", "parse_x").expect_err("desync");
        assert_eq!(m.step, 1);
        let w = m.writer.expect("writer node");
        let r = m.reader.expect("reader node");
        assert_eq!(render_node(&w), "bypass_bits(4)[gap]");
        assert_eq!(render_node(&r), "bypass[flag]");
    }

    #[test]
    fn truncated_unary_idioms_normalize_to_the_same_shape() {
        let src = r#"
            fn code_p<S: BinSink>(s: &mut S, c: &mut Ctx, len: u32) {
                for i in 0..len - 1 {
                    s.bit(&mut c.prefix[(i.min(11)) as usize], true);
                }
                s.bit(&mut c.prefix[((len - 1).min(11)) as usize], false);
                if len > 1 {
                    s.bypass_bits(u64::from(len), len - 1);
                }
            }
            fn parse_p<D: BinSource>(d: &mut D, c: &mut Ctx) -> Result<u32, CodecError> {
                let mut len = 1u32;
                while len <= 20 && d.bit(&mut c.prefix[((len - 1).min(11)) as usize]) {
                    len += 1;
                }
                if len > 20 {
                    return Err(CodecError::LimitExceeded("prefix"));
                }
                let suffix = if len > 1 { d.bypass_bits(len - 1) } else { 0 };
                Ok(suffix)
            }
        "#;
        let index = index_of(src);
        let w = grammar_of(&index, "code_p", Side::Writer);
        assert!(
            matches!(&w[0].kind, NodeKind::Unary { ctx } if ctx == "prefix"),
            "writer unary, got {}",
            render_seq(&w)
        );
        duality(src, "code_p", "parse_p").expect("unary duality");
    }

    #[test]
    fn loop_bound_comes_from_diverging_guards() {
        let src = r#"
            const MAX_TILES: usize = 1024;
            fn parse_index(payload: &[u8]) -> Result<(), CodecError> {
                let mut pos = 0usize;
                let count = usize::from(read_le_u16(payload, &mut pos)?);
                if count == 0 {
                    return Err(CodecError::Corrupt("empty"));
                }
                if count > MAX_TILES {
                    return Err(CodecError::LimitExceeded("tiles"));
                }
                for _ in 0..count {
                    let off = read_le_u32(payload, &mut pos)?;
                    let len = read_le_u32(payload, &mut pos)?;
                }
                Ok(())
            }
        "#;
        let index = index_of(src);
        let r = grammar_of(&index, "parse_index", Side::Reader);
        assert_eq!(r.len(), 2, "le16 + loop, got {}", render_seq(&r));
        let NodeKind::Loop { bound, body } = &r[1].kind else {
            panic!("expected loop, got {}", render_node(&r[1]));
        };
        assert_eq!(*bound, Some((1, 1024)));
        assert_eq!(render_seq(body), "le32[off], le32[len]");
    }

    #[test]
    fn branch_arms_match_under_permutation() {
        let src = r#"
            fn code_m<S: BinSink>(s: &mut S, c: &mut Ctx, is_mpm: bool, idx: u8) {
                s.bit(&mut c.mpm, is_mpm);
                if !is_mpm {
                    s.bypass_bits(u64::from(idx), 5);
                }
            }
            fn parse_m<D: BinSource>(d: &mut D, c: &mut Ctx, prev: u8) -> u8 {
                let idx = if d.bit(&mut c.mpm) {
                    prev
                } else {
                    (d.bypass_bits(5) & 0xFF) as u8
                };
                idx
            }
        "#;
        duality(src, "code_m", "parse_m").expect("permuted arms");
    }

    #[test]
    fn common_prefix_is_factored_out_of_match_arms() {
        let src = r#"
            fn code_r<S: BinSink>(s: &mut S, c: &mut Ctx, last: Option<u32>) {
                match last {
                    None => {
                        s.bit(&mut c.cbf, false);
                    }
                    Some(last) => {
                        s.bit(&mut c.cbf, true);
                        s.bypass(true);
                    }
                }
            }
            fn parse_r<D: BinSource>(d: &mut D, c: &mut Ctx) -> Result<u32, CodecError> {
                if !d.bit(&mut c.cbf) {
                    return Ok(0);
                }
                let neg = d.bypass();
                Ok(1)
            }
        "#;
        duality(src, "code_r", "parse_r").expect("factored prefix");
    }

    #[test]
    fn shortcircuit_and_wraps_trailing_ops() {
        let src = r#"
            fn code_f<S: BinSink>(s: &mut S, c: &mut Ctx, inter: bool, frame_inter: bool) {
                if frame_inter {
                    s.bit(&mut c.inter_flag, inter);
                }
            }
            fn parse_f<D: BinSource>(d: &mut D, c: &mut Ctx, frame_inter: bool) -> bool {
                let is_inter = frame_inter && d.bit(&mut c.inter_flag);
                is_inter
            }
        "#;
        duality(src, "code_f", "parse_f").expect("shortcircuit branch");
    }

    #[test]
    fn width_mismatch_is_flagged_through_const_folding() {
        let src = r#"
            const MODE_BITS: u32 = 6;
            fn write_w<S: BinSink>(s: &mut S, v: u64) {
                s.bypass_bits(v, MODE_BITS);
            }
            fn parse_w<D: BinSource>(d: &mut D) -> u64 {
                let v = d.bypass_bits(5);
                v
            }
        "#;
        let m = duality(src, "write_w", "parse_w").expect_err("width desync");
        assert_eq!(m.step, 1);
        // Same-width spelled differently is fine.
        let src_ok = src.replace("bypass_bits(5)", "bypass_bits(6)");
        duality(&src_ok, "write_w", "parse_w").expect("folded widths agree");
    }

    #[test]
    fn calls_match_by_stem_and_nested_loops_flatten() {
        let src = r#"
            fn code_res<S: BinSink>(s: &mut S, c: &mut Ctx) {
                s.bypass(true);
            }
            fn parse_res<D: BinSource>(d: &mut D, c: &mut Ctx) -> bool {
                d.bypass()
            }
            fn code_body<S: BinSink>(s: &mut S, c: &mut Ctx, per: usize) {
                for ty in 0..per {
                    for tx in 0..per {
                        code_res(s, c);
                    }
                }
            }
            fn parse_body<D: BinSource>(d: &mut D, c: &mut Ctx, per: usize) {
                for i in 0..per * per {
                    parse_res(d, c);
                }
            }
        "#;
        let index = index_of(src);
        let w = grammar_of(&index, "code_body", Side::Writer);
        assert_eq!(render_seq(&w), "loop{ call(code_res) }");
        duality(src, "code_body", "parse_body").expect("stem-matched calls");
    }

    #[test]
    fn nested_call_arguments_must_agree() {
        let src = r#"
            const ORDER: u32 = 1;
            fn code_eg<S: BinSink>(sink: &mut S, v: u32, m0: u32) {
                sink.bypass_bits(u64::from(v), m0);
            }
            fn parse_eg<D: BinSource>(dec: &mut D, m: u32) -> Result<u32, CodecError> {
                Ok(dec.bypass_bits(m) as u32)
            }
            fn code_signed_eg<S: BinSink>(sink: &mut S, v: i32) {
                let mapped = v.unsigned_abs() << 1;
                code_eg(sink, mapped, 1);
            }
            fn parse_signed_eg<D: BinSource>(dec: &mut D) -> Result<i32, CodecError> {
                let mapped = parse_eg(dec, 2)?;
                Ok(mapped as i32)
            }
        "#;
        let m = duality(src, "code_signed_eg", "parse_signed_eg").expect_err("order drift");
        assert_eq!(m.step, 1);
        let side = |n: Option<Box<Node>>| n.map(|n| render_node(&n));
        assert_eq!(side(m.writer).as_deref(), Some("call(code_eg, 1)"));
        assert_eq!(side(m.reader).as_deref(), Some("call(parse_eg, 2)"));
        for order in ["1", "ORDER", "(ORDER * 2) - 1"] {
            let src = src.replace("parse_eg(dec, 2)", &format!("parse_eg(dec, {order})"));
            duality(&src, "code_signed_eg", "parse_signed_eg").expect("orders agree");
        }
    }

    #[test]
    fn done_return_splits_the_statement_list() {
        let src = r#"
            fn code_cu<S: BinSink>(s: &mut S, c: &mut Ctx, split: bool) {
                if c.adaptive {
                    s.bit(&mut c.split, split);
                }
                match split {
                    true => {
                        for q in 0..4 {
                            code_cu(s, c, false);
                        }
                    }
                    false => code_leaf(s, c),
                }
            }
            fn code_leaf<S: BinSink>(s: &mut S, c: &mut Ctx) {
                s.bypass(true);
            }
            fn parse_cu<D: BinSource>(d: &mut D, c: &mut Ctx) -> Result<(), CodecError> {
                let split = if c.adaptive { d.bit(&mut c.split) } else { false };
                if split {
                    for q in 0..4 {
                        parse_cu(d, c)?;
                    }
                    return Ok(());
                }
                parse_leaf(d, c)
            }
            fn parse_leaf<D: BinSource>(d: &mut D, c: &mut Ctx) -> Result<(), CodecError> {
                let b = d.bypass();
                Ok(())
            }
        "#;
        duality(src, "code_cu", "parse_cu").expect("done-return split");
    }
}
