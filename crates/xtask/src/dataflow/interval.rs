//! Interval abstract domain for the `range-proof` pass.
//!
//! Every tracked value is a `[lo, hi]` pair over `i128` (wide enough to
//! hold any 64-bit intermediate exactly). The evaluator walks function
//! bodies statement by statement, narrows on guard edges (comparisons,
//! `assert!`, `.min`/`.clamp`, `try_from`, masks), widens at loop heads
//! against a threshold set harvested from the loop's own literals, and
//! memoizes per-function param→return transfer functions so call chains
//! carry intervals across crate boundaries. Entry ranges come from the
//! checked contract table `crates/xtask/ranges.toml`.
//!
//! `add`/`sub`/`mul`/… are interval transfer functions, not operator
//! overloads — implementing `std::ops` would promise algebraic laws
//! (associativity with `Top`, etc.) the domain deliberately does not
//! honor.
#![allow(clippy::should_implement_trait)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use super::{find_block, pattern_names, split_args, stmt_end, MAX_CANDIDATES};
use crate::ast::index::Index;
use crate::ast::lex::{lex, Kind};
use crate::ast::tree::{build, Group, Tree};
use crate::ast::{int_width, is_float_ty};
use crate::vocab::{self, Primitive, Yield};

/// An interval over `i128`: either unknown or a closed `[lo, hi]` range.
///
/// `Top` means "no information"; there is no explicit bottom — dead paths
/// simply keep whatever range they had.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ival {
    /// Unknown value.
    Top,
    /// All values in `lo..=hi`.
    Range(i128, i128),
}

impl Ival {
    /// A single known value.
    #[must_use]
    pub fn lit(v: i128) -> Self {
        Ival::Range(v, v)
    }

    /// A range, degraded to `Top` if the bounds are inverted.
    #[must_use]
    pub fn new(lo: i128, hi: i128) -> Self {
        if lo <= hi {
            Ival::Range(lo, hi)
        } else {
            Ival::Top
        }
    }

    /// The bounds, when known.
    #[must_use]
    pub fn bounds(self) -> Option<(i128, i128)> {
        match self {
            Ival::Top => None,
            Ival::Range(lo, hi) => Some((lo, hi)),
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: Ival) -> Ival {
        match (self, other) {
            (Ival::Range(a, b), Ival::Range(c, d)) => Ival::Range(a.min(c), b.max(d)),
            _ => Ival::Top,
        }
    }

    /// Greatest lower bound; an empty intersection (dead path) keeps `self`.
    #[must_use]
    pub fn meet(self, other: Ival) -> Ival {
        match (self, other) {
            (Ival::Range(a, b), Ival::Range(c, d)) => {
                let (lo, hi) = (a.max(c), b.min(d));
                if lo <= hi {
                    Ival::Range(lo, hi)
                } else {
                    self
                }
            }
            (Ival::Top, o) => o,
            (s, Ival::Top) => s,
        }
    }

    /// Whether this range lies within `[lo, hi]`.
    #[must_use]
    pub fn within(self, lo: i128, hi: i128) -> bool {
        matches!(self, Ival::Range(a, b) if a >= lo && b <= hi)
    }

    /// Whether this range covers all of `[lo, hi]` (the "no knowledge"
    /// marker: a value spanning its whole type carries no information).
    #[must_use]
    pub fn covers(self, lo: i128, hi: i128) -> bool {
        match self {
            Ival::Top => true,
            Ival::Range(a, b) => a <= lo && b >= hi,
        }
    }

    fn lift2(self, other: Ival, f: impl Fn(i128, i128) -> Option<i128>) -> Ival {
        let (Some((a, b)), Some((c, d))) = (self.bounds(), other.bounds()) else {
            return Ival::Top;
        };
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for &x in &[a, b] {
            for &y in &[c, d] {
                let Some(v) = f(x, y) else { return Ival::Top };
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        Ival::Range(lo, hi)
    }

    /// Endpoint-exact addition (overflow of the i128 bound itself → Top).
    #[must_use]
    pub fn add(self, o: Ival) -> Ival {
        self.lift2(o, i128::checked_add)
    }

    /// Endpoint-exact subtraction.
    #[must_use]
    pub fn sub(self, o: Ival) -> Ival {
        self.lift2(o, i128::checked_sub)
    }

    /// Endpoint-product multiplication.
    #[must_use]
    pub fn mul(self, o: Ival) -> Ival {
        self.lift2(o, i128::checked_mul)
    }

    /// Negation.
    #[must_use]
    pub fn neg(self) -> Ival {
        match self {
            Ival::Top => Ival::Top,
            Ival::Range(a, b) => match (a.checked_neg(), b.checked_neg()) {
                (Some(na), Some(nb)) => Ival::Range(nb, na),
                _ => Ival::Top,
            },
        }
    }

    /// Left shift; `Top` unless the amount is known and in `0..=126`.
    #[must_use]
    pub fn shl(self, amt: Ival) -> Ival {
        let Some((c, d)) = amt.bounds() else {
            return Ival::Top;
        };
        if c < 0 || d > 126 {
            return Ival::Top;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.lift2(amt, |x, y| x.checked_shl(y as u32))
    }

    /// Arithmetic right shift; `Top` unless the amount is known in range.
    #[must_use]
    pub fn shr(self, amt: Ival) -> Ival {
        let Some((c, d)) = amt.bounds() else {
            return Ival::Top;
        };
        if c < 0 || d > 126 {
            return Ival::Top;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.lift2(amt, |x, y| x.checked_shr(y as u32))
    }

    /// Bitwise AND: bounded by the smaller non-negative operand.
    #[must_use]
    pub fn and(self, o: Ival) -> Ival {
        match (self.bounds(), o.bounds()) {
            (Some((a, _)), Some((c, d))) if a >= 0 && c >= 0 => {
                let hi = match self.bounds() {
                    Some((_, b)) => b.min(d),
                    None => d,
                };
                Ival::Range(0, hi)
            }
            // A non-negative mask bounds the result even if the value side
            // may be negative (two's-complement AND with 0..=m stays 0..=m).
            (_, Some((c, d))) if c >= 0 => Ival::Range(0, d),
            (Some((a, b)), _) if a >= 0 => Ival::Range(0, b),
            _ => Ival::Top,
        }
    }

    /// Bitwise OR: for non-negative operands, bounded by the next
    /// all-ones value at or above both highs.
    #[must_use]
    pub fn or(self, o: Ival) -> Ival {
        match (self.bounds(), o.bounds()) {
            (Some((a, b)), Some((c, d))) if a >= 0 && c >= 0 => {
                Ival::Range(a.max(c), ones_above(b | d))
            }
            _ => Ival::Top,
        }
    }

    /// Bitwise XOR: same all-ones bound as OR, but the low drops to 0.
    #[must_use]
    pub fn xor(self, o: Ival) -> Ival {
        match (self.bounds(), o.bounds()) {
            (Some((a, b)), Some((c, d))) if a >= 0 && c >= 0 => Ival::Range(0, ones_above(b | d)),
            _ => Ival::Top,
        }
    }

    /// Remainder: bounded by the divisor when the divisor is positive.
    #[must_use]
    pub fn rem(self, o: Ival) -> Ival {
        let Some((c, d)) = o.bounds() else {
            return Ival::Top;
        };
        if c <= 0 {
            return Ival::Top;
        }
        match self.bounds() {
            Some((a, b)) if a >= 0 => Ival::Range(0, b.min(d - 1)),
            _ => Ival::Range(1 - d, d - 1),
        }
    }

    /// Division: endpoint combinations when the divisor excludes zero.
    #[must_use]
    pub fn div(self, o: Ival) -> Ival {
        let Some((c, _)) = o.bounds() else {
            return Ival::Top;
        };
        if c <= 0 {
            return Ival::Top;
        }
        self.lift2(o, i128::checked_div)
    }

    /// Elementwise minimum (used for `.min(..)` modeling).
    #[must_use]
    pub fn min_iv(self, o: Ival) -> Ival {
        match (self.bounds(), o.bounds()) {
            (Some((a, b)), Some((c, d))) => Ival::Range(a.min(c), b.min(d)),
            (None, Some((_, d))) => Ival::Range(i128::MIN, d),
            (Some((_, b)), None) => Ival::Range(i128::MIN, b),
            (None, None) => Ival::Top,
        }
    }

    /// Elementwise maximum (used for `.max(..)` modeling).
    #[must_use]
    pub fn max_iv(self, o: Ival) -> Ival {
        match (self.bounds(), o.bounds()) {
            (Some((a, b)), Some((c, d))) => Ival::Range(a.max(c), b.max(d)),
            (None, Some((c, _))) => Ival::Range(c, i128::MAX),
            (Some((a, _)), None) => Ival::Range(a, i128::MAX),
            (None, None) => Ival::Top,
        }
    }
}

/// The smallest all-ones value (2^k − 1) at or above `v` (`v >= 0`).
fn ones_above(v: i128) -> i128 {
    let mut m: i128 = 0;
    while m < v && m < i128::MAX / 2 {
        m = m * 2 + 1;
    }
    m
}

impl fmt::Display for Ival {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ival::Top => write!(f, "unbounded"),
            Ival::Range(lo, hi) => write!(f, "[{}, {}]", fmt_bound(*lo), fmt_bound(*hi)),
        }
    }
}

/// Whether an operand interval carries real knowledge relative to a
/// type: it must not cover the type's full range, and must span less
/// than half of it. A "bound" that still admits most of the type (a
/// `usize` known only to be below `len`, an `i32` known only to be
/// non-negative) is noise, not knowledge — flagging arithmetic on such
/// operands would report nearly every `+ 1` in the workspace.
fn informative(iv: Ival, own_ty: Option<&str>, fallback: &str) -> bool {
    let Some((lo, hi)) = iv.bounds() else {
        return false;
    };
    let ty = own_ty.filter(|t| *t != "!err").unwrap_or(fallback);
    let Some((tl, th)) = type_range(ty) else {
        return true;
    };
    if lo <= tl && hi >= th {
        return false;
    }
    hi.saturating_sub(lo) < th.saturating_sub(tl) / 2
}

/// Renders a bound, switching to hex for large magnitudes.
fn fmt_bound(v: i128) -> String {
    if v > 0xFFFF {
        format!("{v:#x}")
    } else if v < -0xFFFF {
        format!("-{:#x}", v.unsigned_abs())
    } else {
        format!("{v}")
    }
}

/// The representable range of an integer type (128-bit types excluded:
/// their bounds do not fit the `i128` domain, so they are never flagged).
#[must_use]
pub fn type_range(ty: &str) -> Option<(i128, i128)> {
    let (bits, signed) = int_width(strip_refs(ty))?;
    if bits >= 128 {
        return None;
    }
    Some(if signed {
        (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1)
    } else {
        (0, (1i128 << bits) - 1)
    })
}

/// Strips reference sigils and `mut` from a compact type string.
#[must_use]
pub fn strip_refs(ty: &str) -> &str {
    let mut t = ty.trim();
    loop {
        let next = t
            .strip_prefix('&')
            .or_else(|| t.strip_prefix("mut "))
            .or_else(|| t.strip_prefix("mut"))
            .map(str::trim_start);
        match next {
            Some(n) if n != t => t = n,
            _ => return t,
        }
    }
}

/// Parses an integer literal token (`300`, `0xFF`, `1_000u64`) into its
/// value and optional type-suffix.
#[must_use]
pub fn parse_int(text: &str) -> Option<(i128, Option<&'static str>)> {
    const SUFFIXES: &[&str] = &[
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ];
    let mut body = text;
    let mut suffix = None;
    for &s in SUFFIXES {
        if let Some(rest) = body.strip_suffix(s) {
            if !rest.is_empty() {
                body = rest;
                suffix = Some(s);
                break;
            }
        }
    }
    let clean: String = body.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = clean.strip_prefix("0x").or(clean.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = clean.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = clean.strip_prefix("0b") {
        (b, 2)
    } else {
        (clean.as_str(), 10)
    };
    i128::from_str_radix(digits, radix)
        .ok()
        .map(|v| (v, suffix))
}

/// The element type of a slice, array or `Vec` type string.
fn elem_ty(ty: &str) -> Option<String> {
    let t = strip_refs(ty);
    let inner = match t.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        Some(r) => r.split(';').next()?,
        None => t.strip_prefix("Vec<")?.strip_suffix('>')?,
    };
    Some(inner.trim().to_string())
}

/// Lexes and tree-builds a detached snippet (used for type-string parsing).
fn trees_of(s: &str) -> Vec<Tree> {
    build(&lex(s))
}

/// Array length and element type from a type string like `[i32;3*32+1]`.
fn array_ty_parts(ty: &str, consts: &BTreeMap<String, i128>) -> Option<(i128, Option<String>)> {
    let t = strip_refs(ty);
    let inner = t.strip_prefix('[')?.strip_suffix(']')?;
    let semi = inner.rfind(';')?;
    let elem = inner[..semi].trim().to_string();
    let n = fold_const(&trees_of(&inner[semi + 1..]), consts)?;
    Some((n, Some(elem)))
}

/// Constant-folds a literal/const expression (used for `const` initializers
/// and array lengths). Supports ints, named consts, `Ty::MAX/MIN`, parens,
/// unary minus, `as`, and the binary arithmetic/bit operators.
#[must_use]
pub fn fold_const(trees: &[Tree], consts: &BTreeMap<String, i128>) -> Option<i128> {
    let trees = strip_parens(trees);
    if trees.is_empty() {
        return None;
    }
    // `expr as ty` (lowest precedence here; fails closed if it truncates).
    if let Some(k) = top_positions(trees, &["as"]).last().copied() {
        let v = fold_const(&trees[..k], consts)?;
        let ty = crate::ast::tree::to_text(&trees[k + 1..]);
        if let Some((lo, hi)) = type_range(&ty) {
            return (v >= lo && v <= hi).then_some(v);
        }
        // 128-bit targets have no i128-representable range but any
        // (non-negative, for u128) domain value fits without truncation.
        return match int_width(&ty) {
            Some((128, true)) => Some(v),
            Some((128, false)) => (v >= 0).then_some(v),
            _ => None,
        };
    }
    for ops in [
        &["|"][..],
        &["^"][..],
        &["&"][..],
        &["<<", ">>"][..],
        &["+", "-"][..],
        &["*", "/", "%"][..],
    ] {
        for k in top_positions(trees, ops).into_iter().rev() {
            // Skip unary minus: an operator in position 0 or after another
            // operator is a prefix, not a split point.
            if k == 0 || trees[k - 1].leaf().is_some_and(|t| t.kind == Kind::Punct) {
                continue;
            }
            let (l, r) = (
                fold_const(&trees[..k], consts)?,
                fold_const(&trees[k + 1..], consts)?,
            );
            let op = trees[k].leaf()?.text.as_str();
            return match op {
                "|" => Some(l | r),
                "^" => Some(l ^ r),
                "&" => Some(l & r),
                "<<" => u32::try_from(r).ok().and_then(|s| l.checked_shl(s)),
                ">>" => u32::try_from(r).ok().and_then(|s| l.checked_shr(s)),
                "+" => l.checked_add(r),
                "-" => l.checked_sub(r),
                "*" => l.checked_mul(r),
                "/" => (r != 0).then(|| l / r),
                "%" => (r != 0).then(|| l % r),
                _ => None,
            };
        }
    }
    match trees {
        [t] => match t {
            Tree::Leaf(tok) if tok.kind == Kind::Int => parse_int(&tok.text).map(|(v, _)| v),
            Tree::Leaf(tok) if tok.kind == Kind::Ident => consts.get(&tok.text).copied(),
            Tree::Group(g) if g.delim == '(' => fold_const(&g.trees, consts),
            _ => None,
        },
        [neg, rest @ ..] if neg.is_punct("-") => fold_const(rest, consts)?.checked_neg(),
        [ty, sep, bound] if sep.is_punct("::") => {
            let t = ty.leaf()?.text.as_str();
            let (lo, hi) = type_range(t)?;
            match bound.leaf()?.text.as_str() {
                "MAX" => Some(hi),
                "MIN" => Some(lo),
                other => consts.get(other).copied(),
            }
        }
        _ => None,
    }
}

/// Constant-folds every workspace `const` initializer to a value map
/// (each round resolves one more level of consts defined in terms of
/// other consts).
#[must_use]
pub fn fold_consts(index: &Index) -> BTreeMap<String, i128> {
    let mut consts = BTreeMap::new();
    for _ in 0..FIXPOINT_ROUNDS {
        for (name, init) in &index.const_inits {
            if let Some(v) = fold_const(init, &consts) {
                consts.insert(name.clone(), v);
            }
        }
    }
    consts
}

/// Positions of top-level operator tokens matching `ops`.
fn top_positions(trees: &[Tree], ops: &[&str]) -> Vec<usize> {
    trees
        .iter()
        .enumerate()
        .filter(|(_, t)| t.leaf().is_some_and(|tok| ops.contains(&tok.text.as_str())))
        .map(|(k, _)| k)
        .collect()
}

/// Strips redundant outer parens: `((x))` → `x`.
pub(crate) fn strip_parens(trees: &[Tree]) -> &[Tree] {
    match trees {
        [Tree::Group(g)] if g.delim == '(' && !g.trees.iter().any(|t| t.is_punct(",")) => {
            strip_parens(&g.trees)
        }
        _ => trees,
    }
}

/// One entry of the `ranges.toml` contract table: "param `param` of
/// function `func` is always within `[lo, hi]`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Function name (bare, as resolved by the index).
    pub func: String,
    /// Parameter name.
    pub param: String,
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

/// An abstract value: interval, best-known integer type, provenance hops
/// for the witness chain, and a compact source rendering.
#[derive(Debug, Clone)]
pub struct Val {
    /// The interval.
    pub iv: Ival,
    /// The value's integer (or `bool`/float, see `cast_safe_ty`) type,
    /// when known (also carries the internal `"!err"` marker for
    /// `Err`/`None` constructor results).
    pub ty: Option<String>,
    /// Witness-chain hops that explain where the interval came from.
    pub hops: Vec<String>,
    /// Compact source text of the producing expression.
    pub src: String,
}

impl Val {
    fn top() -> Self {
        Val {
            iv: Ival::Top,
            ty: None,
            hops: Vec::new(),
            src: String::new(),
        }
    }

    fn of(iv: Ival) -> Self {
        Val { iv, ..Val::top() }
    }

    fn push_hop(&mut self, hop: String) {
        if self.hops.len() < 6 && !self.hops.contains(&hop) {
            self.hops.push(hop);
        }
    }

    fn is_err_marker(&self) -> bool {
        self.ty.as_deref() == Some("!err")
    }
}

/// One range-proof finding inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 0-based source line of the flagged operation.
    pub line: usize,
    /// Human-readable description of the violation.
    pub msg: String,
    /// Interval-annotated witness hops leading to the operation.
    pub chain: Vec<String>,
}

/// The shared analysis context: folded constants, the contract table,
/// fixpoint return defaults, and the memoized transfer-function cache.
pub struct RangeCtx<'a> {
    /// The workspace index the analysis runs over.
    pub index: &'a Index,
    /// Folded `const` values by name.
    pub consts: BTreeMap<String, i128>,
    contracts: BTreeMap<(String, String), (i128, i128)>,
    defaults: RefCell<BTreeMap<usize, Ival>>,
    memo: RefCell<BTreeMap<(usize, Vec<Ival>), Ival>>,
    active: RefCell<Vec<usize>>,
}

/// Maximum simultaneous on-demand transfer evaluations (recursion and
/// depth guard; deeper chains fall back to the fixpoint defaults).
const MAX_TRANSFER_DEPTH: usize = 3;

/// Fixpoint rounds for const folding and return-interval defaults. Each
/// round is independently sound (missing entries read as `Top`), so any
/// small constant converges the common cases.
const FIXPOINT_ROUNDS: usize = 3;

impl<'a> RangeCtx<'a> {
    /// Builds the context: folds constants, then computes per-function
    /// return-interval defaults by running the evaluator to a short
    /// fixpoint over the functions that return an integer or `bool` (no
    /// other return carries an interval a caller could use).
    #[must_use]
    pub fn new(index: &'a Index, contracts: &[Contract]) -> Self {
        let ctx = RangeCtx {
            index,
            consts: fold_consts(index),
            contracts: contracts
                .iter()
                .map(|c| ((c.func.clone(), c.param.clone()), (c.lo, c.hi)))
                .collect(),
            defaults: RefCell::new(BTreeMap::new()),
            memo: RefCell::new(BTreeMap::new()),
            active: RefCell::new(Vec::new()),
        };
        let scalar: Vec<usize> = (0..index.fns.len())
            .filter(|&id| {
                let item = &index.fns[id].item;
                item.body.is_some()
                    && ret_scalar_ty(item.ret.as_deref()).is_some_and(|t| !is_float_ty(&t))
            })
            .collect();
        for _ in 0..FIXPOINT_ROUNDS {
            let mut fresh = BTreeMap::new();
            for &id in &scalar {
                let (iv, _) = eval_fn(&ctx, id, None, false);
                if iv != Ival::Top {
                    fresh.insert(id, iv);
                }
            }
            // A round that reproduces its input would repeat itself.
            if fresh == *ctx.defaults.borrow() {
                break;
            }
            *ctx.defaults.borrow_mut() = fresh;
        }
        ctx
    }

    /// The contract range for `(func, param)`, if declared.
    #[must_use]
    pub fn contract(&self, func: &str, param: &str) -> Option<(i128, i128)> {
        self.contracts
            .get(&(func.to_string(), param.to_string()))
            .copied()
    }

    /// The fixpoint return default for a function.
    #[must_use]
    pub fn default_of(&self, id: usize) -> Ival {
        self.defaults
            .borrow()
            .get(&id)
            .copied()
            .unwrap_or(Ival::Top)
    }

    /// The param→return transfer function: evaluates `id`'s body with the
    /// given argument intervals (aligned with its *named* params), memoized.
    /// Recursive or too-deep chains fall back to the fixpoint default.
    #[must_use]
    pub fn transfer(&self, id: usize, args: &[Ival]) -> Ival {
        let key = (id, args.to_vec());
        if let Some(&iv) = self.memo.borrow().get(&key) {
            return iv;
        }
        {
            let active = self.active.borrow();
            if active.contains(&id) || active.len() >= MAX_TRANSFER_DEPTH {
                return self.default_of(id);
            }
        }
        self.active.borrow_mut().push(id);
        let (iv, _) = eval_fn(self, id, Some(args), false);
        self.active.borrow_mut().pop();
        self.memo.borrow_mut().insert(key, iv);
        iv
    }
}

/// The scalar (integer, `bool` or float) type a function's return
/// carries, unwrapping one `Result<…>`/`Option<…>` layer.
fn ret_scalar_ty(ret: Option<&str>) -> Option<String> {
    let r = ret?;
    let inner = wrapper_inner(r).unwrap_or(r);
    let t = strip_refs(inner);
    (int_width(t).is_some() || cast_safe_ty(t)).then(|| t.to_string())
}

/// Non-integer scalar types whose `as` casts to an integer never wrap:
/// a `bool` is 0 or 1, and a float→int `as` saturates. Values of these
/// types carry their type in [`Val::ty`] so a cast of them is proven.
fn cast_safe_ty(ty: &str) -> bool {
    ty == "bool" || is_float_ty(ty)
}

/// The success payload of a `Result<…>`/`Option<…>` type string.
fn wrapper_inner(r: &str) -> Option<&str> {
    let body = r
        .strip_prefix("Result<")
        .or_else(|| r.strip_prefix("Option<"))?;
    let mut depth = 0u32;
    for (i, c) in body.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if depth == 0 => return Some(&body[..i]),
            '>' => depth -= 1,
            ',' if depth == 0 => return Some(&body[..i]),
            _ => {}
        }
    }
    None
}

/// Evaluates one function body: seeds params from types, contracts and
/// (for transfer calls) argument intervals, walks the body, and returns
/// the joined return interval plus any collected findings.
pub(crate) fn eval_fn(
    ctx: &RangeCtx,
    id: usize,
    args: Option<&[Ival]>,
    collect: bool,
) -> (Ival, Vec<Site>) {
    let entry = &ctx.index.fns[id];
    let Some(body) = &entry.item.body else {
        return (Ival::Top, Vec::new());
    };
    let mut ev = Eval::new(ctx, collect);
    if let Some(t) = &entry.item.self_ty {
        ev.decls.insert("self".into(), t.clone());
    }
    let mut slot = 0usize;
    for (name, ty) in &entry.item.params {
        if name.is_empty() {
            continue;
        }
        let mut v = ev.bind_declared(name, ty);
        if let Some((lo, hi)) = ctx.contract(&entry.item.name, name) {
            v.iv = v.iv.meet(Ival::Range(lo, hi));
            v.push_hop(format!(
                "{name} ∈ [{}, {}] (ranges.toml)",
                fmt_bound(lo),
                fmt_bound(hi)
            ));
        }
        if let Some(a) = args {
            if let Some(&iv) = a.get(slot) {
                v.iv = v.iv.meet(iv);
            }
        }
        if let Some((n, elem)) = array_ty_parts(ty, &ctx.consts) {
            ev.arrays.insert(name.clone(), (n, elem));
        }
        ev.env.insert(name.clone(), v);
        slot += 1;
    }
    let (exit, tail) = ev.run_block(&body.trees);
    if exit.falls {
        if let Some(v) = tail {
            ev.push_ret(&v);
        }
    }
    if collect {
        ev.unvisited_casts(&body.trees);
    }
    let mut iv = ev.ret_iv.unwrap_or(Ival::Top);
    if let Some(ty) = ret_scalar_ty(entry.item.ret.as_deref()) {
        if let Some((lo, hi)) = type_range(&ty) {
            iv = iv.meet(Ival::Range(lo, hi));
        }
    }
    (iv, ev.sites)
}

/// Runs the collector over one function and returns its findings.
#[must_use]
pub fn check_fn(ctx: &RangeCtx, id: usize) -> Vec<Site> {
    match &ctx.index.fns[id].item.body {
        Some(body) if may_flag(ctx, &body.trees) => eval_fn(ctx, id, None, true).1,
        _ => Vec::new(),
    }
}

/// Whether a body holds anything the collector can flag: arithmetic,
/// shifts, casts, indexing, or a call to a function with a contract.
fn may_flag(ctx: &RangeCtx, trees: &[Tree]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Group(g) => g.delim == '[' || may_flag(ctx, &g.trees),
        Tree::Leaf(tok) => {
            matches!(
                tok.text.as_str(),
                "+" | "-" | "*" | "<<" | ">>" | "+=" | "-=" | "*=" | "<<=" | ">>=" | "as"
            ) || ctx.contracts.keys().any(|(f, _)| *f == tok.text)
        }
    })
}

/// Per-variable abstract state.
type Env = BTreeMap<String, Val>;

/// How a block finished: `falls` is false after a top-level `return`,
/// `break`, `continue`, `panic!` or an `if`/`match` with no falling arm.
struct Exit {
    falls: bool,
}

/// Compound-assignment and assignment operators (single tokens).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=",
];

/// The abstract evaluator for one function body.
pub(crate) struct Eval<'c, 'a> {
    ctx: &'c RangeCtx<'a>,
    env: Env,
    /// Known integer types of variables.
    tys: BTreeMap<String, String>,
    /// Known fixed-size arrays: name → (length, element type).
    arrays: BTreeMap<String, (i128, Option<String>)>,
    /// Declared types of params, `self` and ascribed `let`s (any type,
    /// for receiver-filtered method resolution and slice element types).
    decls: BTreeMap<String, String>,
    collect: bool,
    sites: Vec<Site>,
    /// `(line, target type)` of every `as` cast checked while collecting.
    casts: BTreeSet<(usize, String)>,
    ret_iv: Option<Ival>,
    break_envs: Vec<Vec<Env>>,
    cont_envs: Vec<Vec<Env>>,
    diverged: bool,
}

impl<'c, 'a> Eval<'c, 'a> {
    fn new(ctx: &'c RangeCtx<'a>, collect: bool) -> Self {
        Eval {
            ctx,
            env: Env::new(),
            tys: BTreeMap::new(),
            arrays: BTreeMap::new(),
            decls: BTreeMap::new(),
            collect,
            sites: Vec::new(),
            casts: BTreeSet::new(),
            ret_iv: None,
            break_envs: Vec::new(),
            cont_envs: Vec::new(),
            diverged: false,
        }
    }

    /// Records a return value (joined over all return sites); `Err`/`None`
    /// constructor results contribute nothing.
    fn push_ret(&mut self, v: &Val) {
        if v.is_err_marker() {
            return;
        }
        self.ret_iv = Some(match self.ret_iv {
            Some(prev) => prev.join(v.iv),
            None => v.iv,
        });
    }

    /// Runs a closure with finding collection suppressed.
    fn quiet<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = self.collect;
        self.collect = false;
        let r = f(self);
        self.collect = saved;
        r
    }

    /// Records a finding (when collecting).
    fn flag(&mut self, line: usize, msg: String, chain: Vec<String>) {
        if self.collect {
            self.sites.push(Site { line, msg, chain });
        }
    }

    /// Walks the statements of a block; returns how it exited and the
    /// value of a trailing (unterminated) tail expression.
    fn run_block(&mut self, trees: &[Tree]) -> (Exit, Option<Val>) {
        let mut i = 0usize;
        let mut last: Option<Val> = None;
        while i < trees.len() {
            if trees[i].is_punct("#") {
                i += 1;
                if matches!(trees.get(i), Some(Tree::Group(_))) {
                    i += 1;
                }
                continue;
            }
            if trees[i].leaf().is_some_and(|t| t.kind == Kind::Lifetime) {
                i += 1;
                if trees.get(i).is_some_and(|t| t.is_punct(":")) {
                    i += 1;
                }
                continue;
            }
            let word = trees[i]
                .leaf()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            match word.as_str() {
                "let" => {
                    i = self.stmt_let(trees, i);
                    last = None;
                }
                "while" => {
                    i = self.stmt_while(trees, i);
                    last = None;
                }
                "for" => {
                    i = self.stmt_for(trees, i);
                    last = None;
                }
                "loop" => {
                    i = self.stmt_loop(trees, i);
                    last = None;
                }
                "return" => {
                    let end = stmt_end(trees, i);
                    if end > i + 1 {
                        let v = self.eval_expr(&trees[i + 1..end], None);
                        self.push_ret(&v);
                    }
                    return (Exit { falls: false }, None);
                }
                "break" => {
                    let env = self.env.clone();
                    if let Some(f) = self.break_envs.last_mut() {
                        f.push(env);
                    }
                    return (Exit { falls: false }, None);
                }
                "continue" => {
                    let env = self.env.clone();
                    if let Some(f) = self.cont_envs.last_mut() {
                        f.push(env);
                    }
                    return (Exit { falls: false }, None);
                }
                "use" | "const" | "static" | "type" | "mod" | "extern" => {
                    i = stmt_end(trees, i) + 1;
                    last = None;
                }
                "fn" | "impl" | "struct" | "enum" | "trait" => {
                    i = find_block(trees, i).map_or(trees.len(), |b| b + 1);
                    last = None;
                }
                _ => {
                    if word == "if" || word == "match" || word == "unsafe" {
                        let e = construct_end(trees, i);
                        let v = self.eval_expr(&trees[i..e], None);
                        if trees.get(e).is_some_and(|t| t.is_punct(";")) {
                            i = e + 1;
                            last = None;
                        } else {
                            i = e;
                            last = if i >= trees.len() { Some(v) } else { None };
                        }
                    } else if !word.is_empty() && trees.get(i + 1).is_some_and(|t| t.is_punct("!"))
                    {
                        // Macro statement: `name!(…);`
                        i = self.stmt_macro(trees, i, &word);
                        last = None;
                    } else if let Some(g) = trees[i].group().filter(|g| g.delim == '{') {
                        let (ex, v) = self.run_block(&g.trees);
                        if !ex.falls {
                            return (Exit { falls: false }, None);
                        }
                        i += 1;
                        if trees.get(i).is_some_and(|t| t.is_punct(";")) {
                            i += 1;
                            last = None;
                        } else {
                            last = if i >= trees.len() { v } else { None };
                        }
                    } else {
                        let end = stmt_end(trees, i);
                        let assign = (i..end).find(|&j| {
                            trees[j]
                                .leaf()
                                .is_some_and(|t| ASSIGN_OPS.contains(&t.text.as_str()))
                        });
                        if let Some(j) = assign {
                            self.stmt_assign(trees, i, j, end);
                            i = end + 1;
                            last = None;
                        } else {
                            let v = self.eval_expr(&trees[i..end], None);
                            last = if end >= trees.len() { Some(v) } else { None };
                            i = end + 1;
                        }
                    }
                }
            }
            if self.diverged {
                self.diverged = false;
                return (Exit { falls: false }, None);
            }
        }
        (Exit { falls: true }, last)
    }

    /// Every macro's arguments are evaluated for findings; `assert!`/
    /// `debug_assert!` then narrow and panicking macros diverge.
    fn stmt_macro(&mut self, trees: &[Tree], i: usize, name: &str) -> usize {
        let end = stmt_end(trees, i);
        let args = trees[i..end].iter().find_map(Tree::group);
        if let Some(g) = args {
            self.macro_args(name, &g.trees);
        }
        match name {
            "assert" | "debug_assert" => {
                if let Some(g) = args {
                    let cut = g
                        .trees
                        .iter()
                        .position(|t| t.is_punct(","))
                        .unwrap_or(g.trees.len());
                    let cond = g.trees[..cut].to_vec();
                    let cur = std::mem::take(&mut self.env);
                    self.env = self.narrowed(cur, &cond, true);
                }
            }
            "assert_eq" | "debug_assert_eq" => {
                if let Some(g) = args {
                    let parts: Vec<Vec<Tree>> = split_args(&g.trees)
                        .into_iter()
                        .map(<[Tree]>::to_vec)
                        .collect();
                    if parts.len() >= 2 {
                        if let Some(p) = path_of(&parts[0]) {
                            let rhs = self.quiet(|s| s.eval_expr(&parts[1], None));
                            let base = self.read_path(&p);
                            self.set_path(&p, base.iv.meet(rhs.iv));
                        }
                    }
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                self.diverged = true;
            }
            _ => {}
        }
        end + 1
    }

    /// `let` statement: binds single identifiers to evaluated values,
    /// tracks array lengths, and threads type ascriptions.
    fn stmt_let(&mut self, trees: &[Tree], i: usize) -> usize {
        let end = stmt_end(trees, i);
        let stmt = &trees[i..end];
        let Some(eq) = stmt.iter().position(|t| t.is_punct("=")) else {
            for n in pattern_names(&stmt[1..]) {
                self.env.remove(&n);
                self.tys.remove(&n);
                self.decls.remove(&n);
            }
            return end + 1;
        };
        let mut pat = &stmt[1..eq];
        let mut init = &stmt[eq + 1..];
        // `let PAT = expr else { … };` — the else block must diverge, so
        // evaluate it for findings on a scratch env and drop the result.
        // An `else` right after a `{ … }` belongs to an `if` chain instead.
        let let_else = (1..init.len()).find(|&k| {
            init[k].is_ident("else") && init[k - 1].group().is_none_or(|g| g.delim != '{')
        });
        if let Some(ep) = let_else {
            if let Some(Tree::Group(g)) = init.get(ep + 1) {
                let saved = self.env.clone();
                let saved_d = self.diverged;
                let _ = self.run_block(&g.trees);
                self.env = saved;
                self.diverged = saved_d;
            }
            init = &init[..ep];
        }
        let mut asc: Option<String> = None;
        if let Some(c) = pat.iter().position(|t| t.is_punct(":")) {
            asc = Some(crate::ast::tree::to_text(&pat[c + 1..]));
            pat = &pat[..c];
        }
        let single = match pat {
            [a] if a
                .leaf()
                .is_some_and(|t| t.kind == Kind::Ident && t.text != "_") =>
            {
                Some(a.leaf().map(|t| t.text.clone()).unwrap_or_default())
            }
            [m, a] if m.is_ident("mut") && a.leaf().is_some_and(|t| t.kind == Kind::Ident) => {
                Some(a.leaf().map(|t| t.text.clone()).unwrap_or_default())
            }
            _ => None,
        };
        if let Some(name) = single {
            if let [Tree::Group(g)] = init {
                if g.delim == '[' {
                    self.bind_array_literal(&name, g, asc.as_deref());
                    return end + 1;
                }
            }
            let asc_ty = asc.as_deref().map(strip_refs);
            let expected = asc_ty
                .filter(|t| int_width(t).is_some())
                .map(str::to_string);
            let mut v = self.eval_expr(init, expected.as_deref());
            if let Some(t) =
                expected.or_else(|| asc_ty.filter(|t| cast_safe_ty(t)).map(str::to_string))
            {
                if let Some((lo, hi)) = type_range(&t) {
                    v.iv = v.iv.meet(Ival::Range(lo, hi));
                }
                v.ty = Some(t.clone());
                self.tys.insert(name.clone(), t);
            } else if let Some(t) = v.ty.clone().filter(|t| t != "!err") {
                self.tys.insert(name.clone(), t);
            } else {
                self.tys.remove(&name);
            }
            if let Some(a) = asc.as_deref() {
                if let Some(parts) = array_ty_parts(a, &self.ctx.consts) {
                    self.arrays.insert(name.clone(), parts);
                }
                self.decls.insert(name.clone(), a.to_string());
            } else {
                self.decls.remove(&name);
            }
            v.src = name.clone();
            self.env.insert(name, v);
        } else {
            let _ = self.eval_expr(init, None);
            for n in pattern_names(pat) {
                self.env.remove(&n);
                self.tys.remove(&n);
                self.decls.remove(&n);
            }
        }
        end + 1
    }

    /// Tracks `[x; N]` / `[a, b, c]` initializers for index proofs.
    fn bind_array_literal(&mut self, name: &str, g: &Group, asc: Option<&str>) {
        if let Some(semi) = g.trees.iter().position(|t| t.is_punct(";")) {
            let _ = self.eval_expr(&g.trees[..semi], None);
            let elem = g.trees[..semi]
                .iter()
                .find_map(Tree::leaf)
                .filter(|t| t.kind == Kind::Int)
                .and_then(|t| parse_int(&t.text))
                .and_then(|(_, s)| s.map(str::to_string))
                .or_else(|| {
                    asc.and_then(|a| array_ty_parts(a, &self.ctx.consts))
                        .and_then(|(_, e)| e)
                });
            if let Some(n) = fold_const(&g.trees[semi + 1..], &self.ctx.consts) {
                self.arrays.insert(name.to_string(), (n, elem));
            }
        } else {
            let parts = split_args(&g.trees);
            for p in &parts {
                let _ = self.eval_expr(p, None);
            }
            self.arrays
                .insert(name.to_string(), (parts.len() as i128, None));
        }
        self.env.insert(name.to_string(), Val::top());
        self.tys.remove(name);
    }

    /// `path = expr` / `path op= expr`; compound assignments run the same
    /// overflow check as the bare operator.
    fn stmt_assign(&mut self, trees: &[Tree], i: usize, j: usize, end: usize) {
        let lhs = &trees[i..j];
        let rhs = &trees[j + 1..end];
        let (op, line) = trees[j]
            .leaf()
            .map(|t| (t.text.clone(), t.line))
            .unwrap_or_default();
        let target = path_of(lhs);
        let expected_ty = target.as_ref().and_then(|p| self.path_ty(p));
        let rv = self.eval_expr(rhs, expected_ty.as_deref());
        if target.is_none() {
            // Index or deref target: evaluate the left side for its own
            // findings (e.g. an out-of-range index), no binding to update.
            let _ = self.eval_expr(lhs, None);
            return;
        }
        let Some(p) = target else { return };
        if op == "=" {
            let mut v = rv;
            if let Some(t) = &expected_ty {
                if let Some((lo, hi)) = type_range(t) {
                    v.iv = v.iv.meet(Ival::Range(lo, hi));
                }
                v.ty = Some(t.clone());
            }
            v.src.clone_from(&p);
            self.env.insert(p, v);
        } else {
            let cur = self.read_path(&p);
            let bin = op.trim_end_matches('=').to_string();
            let mut v = self.combine(cur, &bin, rv, line, expected_ty.as_deref());
            v.src.clone_from(&p);
            self.env.insert(p, v);
        }
    }

    /// Current value of a dotted path: environment hit, folded const,
    /// or the full range of its declared type.
    fn read_path(&self, p: &str) -> Val {
        if let Some(v) = self.env.get(p) {
            return v.clone();
        }
        let mut v = Val::top();
        v.src = p.to_string();
        if !p.contains('.') {
            if let Some(&c) = self.ctx.consts.get(p) {
                v.iv = Ival::lit(c);
                v.ty = self
                    .ctx
                    .index
                    .const_types
                    .get(p)
                    .map(|t| strip_refs(t).to_string())
                    .filter(|t| int_width(t).is_some());
                return v;
            }
        }
        if let Some(t) = self.path_ty(p) {
            if let Some((lo, hi)) = type_range(&t) {
                v.iv = Ival::Range(lo, hi);
            }
            v.ty = Some(t);
        }
        v
    }

    /// The scalar type of a path, from locals, unique struct fields, or
    /// const declarations.
    fn path_ty(&self, p: &str) -> Option<String> {
        if let Some(t) = self.tys.get(p) {
            return Some(t.clone());
        }
        let t = if p.contains('.') {
            let set = self.ctx.index.field_types.get(p.rsplit('.').next()?)?;
            if set.len() != 1 {
                return None;
            }
            strip_refs(set.iter().next()?)
        } else {
            strip_refs(self.ctx.index.const_types.get(p)?)
        };
        (int_width(t).is_some() || cast_safe_ty(t)).then(|| t.to_string())
    }

    /// Overwrites the interval of a path, keeping its type.
    fn set_path(&mut self, p: &str, iv: Ival) {
        let mut v = self.read_path(p);
        v.iv = iv;
        self.env.insert(p.to_string(), v);
    }

    /// Removes all knowledge rooted at a path (`x` and `x.*`).
    fn invalidate_path(&mut self, p: &str) {
        let prefix = format!("{p}.");
        self.env
            .retain(|k, _| k != p && !k.starts_with(prefix.as_str()));
    }
}

/// A dotted identifier path (`self.range`, `k`), or `None`.
fn path_of(trees: &[Tree]) -> Option<String> {
    let mut s = String::new();
    let mut want_ident = true;
    for t in trees {
        let tok = t.leaf()?;
        if want_ident {
            if tok.kind != Kind::Ident {
                return None;
            }
            s.push_str(&tok.text);
        } else if tok.is_punct(".") {
            s.push('.');
        } else {
            return None;
        }
        want_ident = !want_ident;
    }
    (!s.is_empty() && !want_ident).then_some(s)
}

/// End index (exclusive) of an `if`/`match`/`unsafe`/loop construct
/// starting at `i`, spanning any `else if`/`else` chain.
fn construct_end(trees: &[Tree], i: usize) -> usize {
    let Some(b) = find_block(trees, i) else {
        return stmt_end(trees, i);
    };
    let mut j = b + 1;
    while trees.get(j).is_some_and(|t| t.is_ident("else")) {
        if trees.get(j + 1).is_some_and(|t| t.is_ident("if")) {
            match find_block(trees, j + 1) {
                Some(nb) => j = nb + 1,
                None => return trees.len(),
            }
        } else {
            j += 2;
        }
    }
    j
}

/// Pointwise join of two environments; keys present on only one side are
/// dropped (unknown on the other path).
fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            let mut v = va.clone();
            v.iv = va.iv.join(vb.iv);
            if v.ty != vb.ty {
                v.ty = None;
            }
            for h in &vb.hops {
                if v.hops.len() < 6 && !v.hops.contains(h) {
                    v.hops.push(h.clone());
                }
            }
            out.insert(k.clone(), v);
        }
    }
    out
}

/// Whether two environments agree on keys and intervals.
fn env_iv_eq(a: &Env, b: &Env) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, v)| b.get(k).is_some_and(|w| w.iv == v.iv))
}

/// Threshold widening of `old` by `new`: violated bounds jump to the
/// nearest harvested threshold instead of straight to infinity.
fn widen(old: Ival, new: Ival, thr: &[i128]) -> Ival {
    match (old, new) {
        (Ival::Range(ol, oh), Ival::Range(nl, nh)) => {
            let lo = if nl >= ol {
                ol
            } else {
                thr.iter()
                    .rev()
                    .find(|&&t| t <= nl)
                    .copied()
                    .unwrap_or(i128::MIN)
            };
            let hi = if nh <= oh {
                oh
            } else {
                thr.iter().find(|&&t| t >= nh).copied().unwrap_or(i128::MAX)
            };
            Ival::Range(lo, hi)
        }
        _ => Ival::Top,
    }
}

/// Environment-wide widening (keys follow `join_env` semantics).
fn widen_env(old: &Env, new: &Env, thr: &[i128]) -> Env {
    let mut out = Env::new();
    for (k, vo) in old {
        if let Some(vn) = new.get(k) {
            let mut v = vo.clone();
            v.iv = widen(vo.iv, vo.iv.join(vn.iv), thr);
            out.insert(k.clone(), v);
        }
    }
    out
}

/// Last-resort widening: any still-changing variable goes straight to Top.
fn widen_force(old: &Env, new: &Env) -> Env {
    let mut out = Env::new();
    for (k, vo) in old {
        if let Some(vn) = new.get(k) {
            let mut v = vo.clone();
            if vn.iv != vo.iv {
                v.iv = Ival::Top;
            }
            out.insert(k.clone(), v);
        }
    }
    out
}

impl Eval<'_, '_> {
    /// Thresholds for loop widening: every integer literal (and resolvable
    /// const) in the condition/body contributes `{v-1, v, v+1}`, plus 0.
    fn thresholds(&self, cond: &[Tree], body: &Group) -> Vec<i128> {
        fn walk(trees: &[Tree], out: &mut BTreeSet<i128>, consts: &BTreeMap<String, i128>) {
            for t in trees {
                match t {
                    Tree::Group(g) => walk(&g.trees, out, consts),
                    Tree::Leaf(tok) => {
                        let v = match tok.kind {
                            Kind::Int => parse_int(&tok.text).map(|(v, _)| v),
                            Kind::Ident => consts.get(&tok.text).copied(),
                            _ => None,
                        };
                        if let Some(v) = v {
                            out.insert(v.saturating_sub(1));
                            out.insert(v);
                            out.insert(v.saturating_add(1));
                        }
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        out.insert(0);
        walk(cond, &mut out, &self.ctx.consts);
        walk(&body.trees, &mut out, &self.ctx.consts);
        out.into_iter().collect()
    }

    /// One fixpoint iteration of a loop body from `entry`; returns the
    /// state feeding the back edge (fall-through joined with `continue`s).
    fn loop_body_pass(&mut self, body: &Group, entry: Env) -> Option<Env> {
        self.env = entry;
        self.break_envs.push(Vec::new());
        self.cont_envs.push(Vec::new());
        let (exit, _) = self.run_block(&body.trees);
        self.break_envs.pop();
        let conts = self.cont_envs.pop().unwrap_or_default();
        let mut after: Option<Env> = if exit.falls {
            Some(self.env.clone())
        } else {
            None
        };
        for c in conts {
            after = Some(match after {
                Some(a) => join_env(&a, &c),
                None => c,
            });
        }
        after
    }

    /// Final (collecting) pass over a loop body; returns the break-edge
    /// environments.
    fn loop_final_pass(&mut self, body: &Group, entry: Env) -> Vec<Env> {
        self.env = entry;
        self.break_envs.push(Vec::new());
        self.cont_envs.push(Vec::new());
        let _ = self.run_block(&body.trees);
        self.cont_envs.pop();
        self.break_envs.pop().unwrap_or_default()
    }

    /// `while cond { … }` with threshold widening at the head; the exit
    /// state joins the negated-condition edge with every `break` edge.
    fn stmt_while(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(b) = find_block(trees, i + 1) else {
            return stmt_end(trees, i) + 1;
        };
        let cond: Vec<Tree> = trees[i + 1..b].to_vec();
        let Some(body) = trees[b].group().cloned() else {
            return b + 1;
        };
        let is_while_let = cond.first().is_some_and(|t| t.is_ident("let"));
        let wl_names: Vec<String> = if is_while_let {
            cond.iter()
                .position(|t| t.is_punct("="))
                .map(|e| pattern_names(&cond[1..e]))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let thr = self.thresholds(&cond, &body);
        let init = self.env.clone();
        let mut head = init.clone();
        let entry_of = |s: &mut Self, h: &Env| -> Env {
            if is_while_let {
                let mut e = h.clone();
                for n in &wl_names {
                    e.remove(n);
                }
                e
            } else {
                s.narrowed(h.clone(), &cond, true)
            }
        };
        self.quiet(|s| {
            for round in 0..9 {
                let entry = entry_of(s, &head);
                let after = s.loop_body_pass(&body, entry);
                let joined = match after {
                    Some(a) => join_env(&init, &a),
                    None => init.clone(),
                };
                let next = if round >= 7 {
                    widen_force(&head, &joined)
                } else {
                    widen_env(&head, &joined, &thr)
                };
                if env_iv_eq(&next, &head) {
                    break;
                }
                head = next;
            }
        });
        // Collecting pass: evaluate the condition (a `while let`'s
        // scrutinee) once for its own findings, then the body from the
        // stable head.
        self.env = head.clone();
        let scrut = if is_while_let {
            cond.iter()
                .position(|t| t.is_punct("="))
                .map_or(&cond[..0], |e| &cond[e + 1..])
        } else {
            &cond[..]
        };
        let _ = self.eval_expr(scrut, None);
        let entry = entry_of(self, &head);
        let brks = self.loop_final_pass(&body, entry);
        let mut exit_env = if is_while_let {
            head
        } else {
            self.narrowed(head, &cond, false)
        };
        for e in brks {
            exit_env = join_env(&exit_env, &e);
        }
        self.env = exit_env;
        b + 1
    }

    /// `for pat in iter { … }`: range iterables bind the loop variable to
    /// the range's interval; everything else binds Top.
    fn stmt_for(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(b) = find_block(trees, i + 1) else {
            return stmt_end(trees, i) + 1;
        };
        let Some(inpos) = (i + 1..b).find(|&k| trees[k].is_ident("in")) else {
            return b + 1;
        };
        let pat = &trees[i + 1..inpos];
        let iter: Vec<Tree> = trees[inpos + 1..b].to_vec();
        let Some(body) = trees[b].group().cloned() else {
            return b + 1;
        };
        let names = pattern_names(pat);
        let single = (names.len() == 1).then(|| names[0].clone());
        let iter_iv = self.range_of_iter(&iter);
        let thr = self.thresholds(&iter, &body);
        let init = self.env.clone();
        let mut head = init.clone();
        let entry_of = |h: &Env| -> Env {
            let mut e = h.clone();
            for n in &names {
                e.remove(n);
            }
            if let Some(n) = &single {
                let mut v = Val::of(iter_iv);
                v.src.clone_from(n);
                e.insert(n.clone(), v);
            }
            e
        };
        self.quiet(|s| {
            for round in 0..9 {
                let after = s.loop_body_pass(&body, entry_of(&head));
                let joined = match after {
                    Some(a) => join_env(&init, &a),
                    None => init.clone(),
                };
                let next = if round >= 7 {
                    widen_force(&head, &joined)
                } else {
                    widen_env(&head, &joined, &thr)
                };
                if env_iv_eq(&next, &head) {
                    break;
                }
                head = next;
            }
        });
        let brks = self.loop_final_pass(&body, entry_of(&head));
        let mut exit_env = head;
        for e in brks {
            exit_env = join_env(&exit_env, &e);
        }
        for n in &names {
            exit_env.remove(n);
        }
        self.env = exit_env;
        b + 1
    }

    /// `loop { … }`: the only exits are `break` edges; a loop with none
    /// diverges.
    fn stmt_loop(&mut self, trees: &[Tree], i: usize) -> usize {
        let Some(b) = find_block(trees, i + 1) else {
            return stmt_end(trees, i) + 1;
        };
        let Some(body) = trees[b].group().cloned() else {
            return b + 1;
        };
        let thr = self.thresholds(&[], &body);
        let init = self.env.clone();
        let mut head = init.clone();
        self.quiet(|s| {
            for round in 0..9 {
                let after = s.loop_body_pass(&body, head.clone());
                let joined = match after {
                    Some(a) => join_env(&init, &a),
                    None => init.clone(),
                };
                let next = if round >= 7 {
                    widen_force(&head, &joined)
                } else {
                    widen_env(&head, &joined, &thr)
                };
                if env_iv_eq(&next, &head) {
                    break;
                }
                head = next;
            }
        });
        let brks = self.loop_final_pass(&body, head.clone());
        if brks.is_empty() {
            self.env = head;
            self.diverged = true;
        } else {
            let mut exit_env: Option<Env> = None;
            for e in brks {
                exit_env = Some(match exit_env {
                    Some(a) => join_env(&a, &e),
                    None => e,
                });
            }
            self.env = exit_env.unwrap_or(head);
        }
        b + 1
    }

    /// The interval of a range iterable (`a..b`, `(a..=b).rev()`), and the
    /// evaluation of its bound expressions for their own findings.
    fn range_of_iter(&mut self, iter: &[Tree]) -> Ival {
        let slice: &[Tree] = match iter.first() {
            Some(Tree::Group(g))
                if g.delim == '('
                    && g.trees
                        .iter()
                        .any(|t| t.is_punct("..") || t.is_punct("..=")) =>
            {
                &g.trees
            }
            _ => iter,
        };
        let Some(r) = slice
            .iter()
            .position(|t| t.is_punct("..") || t.is_punct("..="))
        else {
            let _ = self.eval_expr(iter, None);
            return Ival::Top;
        };
        let inclusive = slice[r].is_punct("..=");
        let lo = self.eval_expr(&slice[..r], None);
        let hi = self.eval_expr(&slice[r + 1..], None);
        match (lo.iv.bounds(), hi.iv.bounds()) {
            (Some((l, _)), Some((_, h))) => Ival::new(l, if inclusive { h } else { h - 1 }),
            _ => Ival::Top,
        }
    }

    /// Narrows `base` along the `branch` edge of `cond`: comparisons
    /// against known intervals, `&&` conjunction on the true edge,
    /// `||` disjunction (De Morgan) on the false edge, `!` recursion,
    /// and `(lo..=hi).contains(&x)`.
    fn narrowed(&mut self, base: Env, cond: &[Tree], branch: bool) -> Env {
        let cond = strip_parens(cond);
        let saved = std::mem::replace(&mut self.env, base);
        self.apply_cond(cond, branch);
        std::mem::replace(&mut self.env, saved)
    }

    fn apply_cond(&mut self, cond: &[Tree], branch: bool) {
        let cond = strip_parens(cond);
        if cond.is_empty() {
            return;
        }
        if cond[0].is_punct("!") {
            let inner: Vec<Tree> = cond[1..].to_vec();
            self.apply_cond(&inner, !branch);
            return;
        }
        let ands = top_positions(cond, &["&&"]);
        if !ands.is_empty() {
            if branch {
                let mut start = 0;
                for k in ands.iter().copied().chain([cond.len()]) {
                    let part: Vec<Tree> = cond[start..k].to_vec();
                    self.apply_cond(&part, true);
                    start = k + 1;
                }
            }
            return;
        }
        let ors = top_positions(cond, &["||"]);
        if !ors.is_empty() {
            if !branch {
                let mut start = 0;
                for k in ors.iter().copied().chain([cond.len()]) {
                    let part: Vec<Tree> = cond[start..k].to_vec();
                    self.apply_cond(&part, false);
                    start = k + 1;
                }
            }
            return;
        }
        // `(lo..=hi).contains(&x)`
        if let [Tree::Group(rg), dot, m, Tree::Group(ag)] = cond {
            if rg.delim == '(' && dot.is_punct(".") && m.is_ident("contains") && ag.delim == '(' {
                if let Some(r) = rg
                    .trees
                    .iter()
                    .position(|t| t.is_punct("..") || t.is_punct("..="))
                {
                    let inclusive = rg.trees[r].is_punct("..=");
                    let lo = self.quiet(|s| s.eval_expr(&rg.trees[..r], None));
                    let hi = self.quiet(|s| s.eval_expr(&rg.trees[r + 1..], None));
                    let arg: Vec<Tree> = ag
                        .trees
                        .iter()
                        .filter(|t| !t.is_punct("&"))
                        .cloned()
                        .collect();
                    if let (Some(p), Some((l, _)), Some((_, h))) =
                        (path_of(&arg), lo.iv.bounds(), hi.iv.bounds())
                    {
                        let hi_b = if inclusive { h } else { h - 1 };
                        if branch {
                            let base = self.read_path(&p);
                            self.set_path(&p, base.iv.meet(Ival::new(l, hi_b)));
                        }
                        return;
                    }
                }
            }
        }
        // Comparison: narrow a dotted path against the other side.
        let Some(k) = top_positions(cond, &["<", "<=", ">", ">=", "==", "!="])
            .first()
            .copied()
        else {
            return;
        };
        let Some(op) = cond[k].leaf().map(|t| t.text.clone()) else {
            return;
        };
        let eff = if branch {
            op
        } else {
            match op.as_str() {
                "<" => ">=".to_string(),
                "<=" => ">".to_string(),
                ">" => "<=".to_string(),
                ">=" => "<".to_string(),
                "==" => "!=".to_string(),
                _ => "==".to_string(),
            }
        };
        let lhs = &cond[..k];
        let rhs = &cond[k + 1..];
        let lv = self.quiet(|s| s.eval_expr(lhs, None));
        let rv = self.quiet(|s| s.eval_expr(rhs, None));
        if let Some(p) = path_of(lhs) {
            self.narrow_path(&p, &eff, rv.iv);
        }
        if let Some(p) = path_of(rhs) {
            let flipped = match eff.as_str() {
                "<" => ">",
                "<=" => ">=",
                ">" => "<",
                ">=" => "<=",
                other => other,
            };
            self.narrow_path(&p, flipped, lv.iv);
        }
    }

    /// Applies `p OP bound` to the environment (`p` on the left).
    fn narrow_path(&mut self, p: &str, op: &str, bound: Ival) {
        let Some((blo, bhi)) = bound.bounds() else {
            return;
        };
        let constraint = match op {
            "<" => Ival::new(i128::MIN, bhi.saturating_sub(1)),
            "<=" => Ival::new(i128::MIN, bhi),
            ">" => Ival::new(blo.saturating_add(1), i128::MAX),
            ">=" => Ival::new(blo, i128::MAX),
            "==" => bound,
            "!=" if blo == bhi => {
                // Only an excluded endpoint shrinks an interval.
                let iv = match self.read_path(p).iv.bounds() {
                    Some((lo, hi)) if lo == blo && lo < hi => Ival::Range(lo + 1, hi),
                    Some((lo, hi)) if hi == blo && lo < hi => Ival::Range(lo, hi - 1),
                    _ => return,
                };
                self.set_path(p, iv);
                return;
            }
            _ => return,
        };
        let base = self.read_path(p);
        if base.iv == Ival::Top && self.path_ty(p).is_none() {
            // No type anchor: a one-sided constraint on a fully unknown
            // value is rarely useful and invites noise.
            return;
        }
        self.set_path(p, base.iv.meet(constraint));
    }
}

/// Cursor over a tree slice for the Pratt expression evaluator.
struct P<'t> {
    t: &'t [Tree],
    k: usize,
}

impl<'t> P<'t> {
    fn peek(&self) -> Option<&'t Tree> {
        self.t.get(self.k)
    }

    fn peek_tok(&self) -> Option<&'t crate::ast::lex::Token> {
        self.peek().and_then(Tree::leaf)
    }
}

/// Binding powers of the binary operators (left, right).
fn bin_bp(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "*" | "/" | "%" => (70, 71),
        "+" | "-" => (60, 61),
        "<<" | ">>" => (50, 51),
        "&" => (40, 41),
        "^" => (35, 36),
        "|" => (30, 31),
        "==" | "!=" | "<" | "<=" | ">" | ">=" => (20, 21),
        "&&" => (12, 13),
        "||" => (10, 11),
        _ => return None,
    })
}

/// Truncates expression text for messages.
fn compact_str(s: &str) -> String {
    let mut out: String = s.chars().take(40).collect();
    if s.chars().count() > 40 {
        out.push('…');
    }
    if out.is_empty() {
        out.push('…');
    }
    out
}

/// Skips a balanced `<…>` generic-argument run starting at `k`.
fn skip_angles(trees: &[Tree], mut k: usize) -> usize {
    let mut depth = 0i32;
    while k < trees.len() {
        if let Some(t) = trees[k].leaf() {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return k + 1;
                    }
                }
                ">>" => {
                    depth -= 2;
                    if depth <= 0 {
                        return k + 1;
                    }
                }
                _ if depth == 0 => return k,
                _ => {}
            }
        } else if depth == 0 {
            return k;
        }
        k += 1;
    }
    k
}

/// Applies an `as` cast: in-range intervals survive, everything else
/// degrades to the target's full range (the escape itself is flagged by
/// `Eval::check_cast`).
fn cast_val(mut v: Val, ty: &str) -> Val {
    match type_range(ty) {
        Some((lo, hi)) => {
            if !v.iv.within(lo, hi) {
                v.iv = Ival::Range(lo, hi);
            }
            v.ty = Some(ty.to_string());
        }
        None => {
            v.iv = Ival::Top;
            v.ty = cast_safe_ty(ty).then(|| ty.to_string());
        }
    }
    v.src = format!("{} as {ty}", v.src);
    v
}

impl Eval<'_, '_> {
    /// Evaluates an expression slice.
    fn eval_expr(&mut self, trees: &[Tree], expected: Option<&str>) -> Val {
        if trees.is_empty() {
            return Val::top();
        }
        let mut p = P { t: trees, k: 0 };
        self.expr_bp(&mut p, 0, expected)
    }

    /// Pratt loop over binary operators.
    fn expr_bp(&mut self, p: &mut P, min_bp: u8, expected: Option<&str>) -> Val {
        let start = p.k;
        let mut lhs = self.primary(p, expected);
        while let Some(tok) = p.peek_tok() {
            if matches!(tok.text.as_str(), "=" | ".." | "..=" | "=>" | ",") {
                break;
            }
            let Some((lbp, rbp)) = bin_bp(&tok.text) else {
                break;
            };
            if lbp < min_bp {
                break;
            }
            let op = tok.text.clone();
            let line = tok.line;
            p.k += 1;
            let rhs_expected: Option<String> = match op.as_str() {
                "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" => lhs
                    .ty
                    .clone()
                    .filter(|t| t != "!err")
                    .or_else(|| expected.map(str::to_string)),
                _ => None,
            };
            let rhs = if (op == "&&" || op == "||") && self.collect {
                // The right operand runs only where the left one is true
                // (`&&`) or false (`||`): judge its findings there, then
                // take the state from the plain evaluation the quiet
                // (fixpoint) passes use.
                let entry = self.env.clone();
                self.apply_cond(&p.t[start..p.k - 1], op == "&&");
                let _ = self.expr_bp(&mut P { t: p.t, k: p.k }, rbp, None);
                self.env = entry;
                self.quiet(|s| s.expr_bp(p, rbp, None))
            } else {
                self.expr_bp(p, rbp, rhs_expected.as_deref())
            };
            lhs = self.combine(lhs, &op, rhs, line, expected);
        }
        lhs
    }

    /// Applies one binary operator, running the overflow / shift-proof
    /// checks on the way.
    fn combine(
        &mut self,
        lhs: Val,
        op: &str,
        rhs: Val,
        line: usize,
        expected: Option<&str>,
    ) -> Val {
        let mut out = Val::top();
        out.src = format!("{} {op} {}", lhs.src, rhs.src);
        for h in lhs.hops.iter().chain(rhs.hops.iter()) {
            out.push_hop(h.clone());
        }
        let clean = |t: &Option<String>| t.clone().filter(|t| t != "!err");
        match op {
            "+" | "-" | "*" => {
                let op_ty = clean(&lhs.ty)
                    .or_else(|| clean(&rhs.ty))
                    .or_else(|| expected.map(str::to_string));
                let raw = match op {
                    "+" => lhs.iv.add(rhs.iv),
                    "-" => lhs.iv.sub(rhs.iv),
                    _ => lhs.iv.mul(rhs.iv),
                };
                out.iv = raw;
                out.ty = op_ty.clone();
                if let Some(ty) = op_ty {
                    if let Some((tlo, thi)) = type_range(&ty) {
                        if let Some((rlo, rhi)) = raw.bounds() {
                            if (rlo < tlo || rhi > thi)
                                && informative(lhs.iv, lhs.ty.as_deref(), &ty)
                                && informative(rhs.iv, rhs.ty.as_deref(), &ty)
                            {
                                let mut chain = out.hops.clone();
                                chain.push(format!("{} ∈ {}", compact_str(&lhs.src), lhs.iv));
                                chain.push(format!("{} ∈ {}", compact_str(&rhs.src), rhs.iv));
                                self.flag(
                                    line,
                                    format!(
                                        "`{}`: {ty} result may reach {raw} (escapes [{}, {}])",
                                        compact_str(&out.src),
                                        fmt_bound(tlo),
                                        fmt_bound(thi)
                                    ),
                                    chain,
                                );
                            }
                        }
                        if !raw.within(tlo, thi) {
                            out.iv = Ival::Range(tlo, thi);
                        }
                    }
                }
            }
            "<<" | ">>" => {
                let ty = clean(&lhs.ty).or_else(|| expected.map(str::to_string));
                out.iv = if op == "<<" {
                    lhs.iv.shl(rhs.iv)
                } else {
                    lhs.iv.shr(rhs.iv)
                };
                out.ty = ty.clone();
                if let Some(t) = ty {
                    if let Some((bits, _)) = int_width(&t) {
                        let proven = matches!(
                            rhs.iv.bounds(),
                            Some((lo, hi)) if lo >= 0 && hi < i128::from(bits)
                        );
                        if !proven {
                            let mut chain = out.hops.clone();
                            chain.push(format!(
                                "shift amount {} ∈ {}",
                                compact_str(&rhs.src),
                                rhs.iv
                            ));
                            self.flag(
                                line,
                                format!(
                                    "`{}`: shift amount {} not provably < {bits} ({t})",
                                    compact_str(&out.src),
                                    rhs.iv
                                ),
                                chain,
                            );
                        }
                        if let Some((tlo, thi)) = type_range(&t) {
                            if !out.iv.within(tlo, thi) {
                                out.iv = Ival::Range(tlo, thi);
                            }
                        }
                    }
                }
            }
            "/" => {
                out.iv = lhs.iv.div(rhs.iv);
                out.ty = clean(&lhs.ty)
                    .or_else(|| clean(&rhs.ty))
                    .or_else(|| expected.map(str::to_string));
            }
            "%" => {
                out.iv = lhs.iv.rem(rhs.iv);
                out.ty = clean(&lhs.ty)
                    .or_else(|| clean(&rhs.ty))
                    .or_else(|| expected.map(str::to_string));
            }
            "&" => {
                out.iv = lhs.iv.and(rhs.iv);
                out.ty = clean(&lhs.ty).or_else(|| clean(&rhs.ty));
            }
            "|" => {
                out.iv = lhs.iv.or(rhs.iv);
                out.ty = clean(&lhs.ty).or_else(|| clean(&rhs.ty));
            }
            "^" => {
                out.iv = lhs.iv.xor(rhs.iv);
                out.ty = clean(&lhs.ty).or_else(|| clean(&rhs.ty));
            }
            "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" => {
                out.iv = Ival::Range(0, 1);
            }
            _ => {}
        }
        out
    }
}

impl Eval<'_, '_> {
    /// Evaluates a prefix expression plus its postfix chain.
    fn primary(&mut self, p: &mut P, expected: Option<&str>) -> Val {
        let Some(t) = p.peek() else { return Val::top() };
        match t {
            Tree::Group(g) if g.delim == '(' => {
                p.k += 1;
                let v = if g.trees.iter().any(|t| t.is_punct(",")) {
                    for part in split_args(&g.trees) {
                        let _ = self.eval_expr(part, None);
                    }
                    Val::top()
                } else {
                    let mut inner = self.eval_expr(&g.trees, expected);
                    inner.src = format!("({})", inner.src);
                    inner
                };
                self.postfix(p, v, None)
            }
            Tree::Group(g) if g.delim == '[' => {
                p.k += 1;
                self.eval_each(&g.trees);
                self.postfix(p, Val::top(), None)
            }
            Tree::Group(g) => {
                let g = g.clone();
                p.k += 1;
                let (ex, tail) = self.run_block(&g.trees);
                if !ex.falls {
                    self.diverged = true;
                }
                let v = tail.unwrap_or_else(Val::top);
                self.postfix(p, v, None)
            }
            Tree::Leaf(tok) => match tok.kind {
                Kind::Int => {
                    p.k += 1;
                    let v = match parse_int(&tok.text) {
                        Some((n, suf)) => {
                            let mut v = Val::of(Ival::lit(n));
                            v.ty = suf
                                .map(str::to_string)
                                .or_else(|| expected.map(str::to_string));
                            v.src = tok.text.clone();
                            v
                        }
                        None => Val::top(),
                    };
                    self.postfix(p, v, None)
                }
                Kind::Float => {
                    p.k += 1;
                    let ty = if tok.text.ends_with("f32") {
                        "f32"
                    } else {
                        "f64"
                    };
                    let mut v = Val::top();
                    v.ty = Some(ty.into());
                    v.src = tok.text.clone();
                    self.postfix(p, v, None)
                }
                Kind::Ident => self.primary_ident(p, expected),
                Kind::Punct => match tok.text.as_str() {
                    "-" => {
                        let line = tok.line;
                        p.k += 1;
                        let o = self.expr_bp(p, 72, expected);
                        let mut v = Val::of(o.iv.neg());
                        v.ty = o.ty.clone().filter(|t| t != "!err");
                        v.hops = o.hops;
                        v.src = format!("-{}", o.src);
                        // A negated value can escape an unsigned or
                        // asymmetric signed type just like `0 - x`.
                        if let Some(ty) = v.ty.clone() {
                            if let Some((tlo, thi)) = type_range(&ty) {
                                if let Some((rlo, rhi)) = v.iv.bounds() {
                                    if (rlo < tlo || rhi > thi)
                                        && informative(o.iv, o.ty.as_deref(), &ty)
                                    {
                                        let mut chain = v.hops.clone();
                                        chain.push(format!("{} ∈ {}", compact_str(&o.src), o.iv));
                                        self.flag(
                                            line,
                                            format!(
                                                "`{}`: {ty} result may reach {} (escapes [{}, {}])",
                                                compact_str(&v.src),
                                                v.iv,
                                                fmt_bound(tlo),
                                                fmt_bound(thi)
                                            ),
                                            chain,
                                        );
                                    }
                                    if !v.iv.within(tlo, thi) {
                                        v.iv = Ival::Range(tlo, thi);
                                    }
                                }
                            }
                        }
                        v
                    }
                    "!" => {
                        p.k += 1;
                        let _ = self.expr_bp(p, 72, None);
                        Val::top()
                    }
                    "&" => {
                        p.k += 1;
                        if p.peek().is_some_and(|t| t.is_ident("mut")) {
                            p.k += 1;
                        }
                        self.expr_bp(p, 72, expected)
                    }
                    "&&" => {
                        p.k += 1;
                        self.expr_bp(p, 72, expected)
                    }
                    "*" => {
                        p.k += 1;
                        self.expr_bp(p, 72, expected)
                    }
                    "|" | "||" => self.closure(p),
                    _ => {
                        p.k += 1;
                        Val::top()
                    }
                },
                _ => {
                    p.k += 1;
                    Val::top()
                }
            },
        }
    }

    /// Identifier-led primaries: keywords, macros, struct literals, paths,
    /// calls, and plain variable reads.
    fn primary_ident(&mut self, p: &mut P, expected: Option<&str>) -> Val {
        let Some(tok) = p.peek_tok() else {
            return Val::top();
        };
        let word = tok.text.clone();
        let line = tok.line;
        match word.as_str() {
            "if" => return self.eval_if(p),
            "match" => return self.eval_match(p),
            "while" => {
                p.k = self.stmt_while(p.t, p.k);
                return Val::top();
            }
            "for" => {
                p.k = self.stmt_for(p.t, p.k);
                return Val::top();
            }
            "loop" => {
                p.k = self.stmt_loop(p.t, p.k);
                return Val::top();
            }
            "unsafe" => {
                p.k += 1;
                return self.primary(p, expected);
            }
            "move" => return self.closure(p),
            "return" => {
                p.k += 1;
                let rest: Vec<Tree> = p.t[p.k..].to_vec();
                p.k = p.t.len();
                if rest.is_empty() {
                    self.push_ret(&Val::of(Ival::Top));
                } else {
                    let v = self.eval_expr(&rest, None);
                    self.push_ret(&v);
                }
                self.diverged = true;
                return Val::top();
            }
            "break" => {
                p.k = p.t.len();
                let env = self.env.clone();
                if let Some(f) = self.break_envs.last_mut() {
                    f.push(env);
                }
                self.diverged = true;
                return Val::top();
            }
            "continue" => {
                p.k = p.t.len();
                let env = self.env.clone();
                if let Some(f) = self.cont_envs.last_mut() {
                    f.push(env);
                }
                self.diverged = true;
                return Val::top();
            }
            "true" => {
                p.k += 1;
                return self.postfix(p, Val::of(Ival::lit(1)), None);
            }
            "false" => {
                p.k += 1;
                return self.postfix(p, Val::of(Ival::lit(0)), None);
            }
            "None" => {
                p.k += 1;
                let mut v = Val::top();
                v.ty = Some("!err".into());
                return self.postfix(p, v, None);
            }
            _ => {}
        }
        // Macro invocation in expression position.
        if p.t.get(p.k + 1).is_some_and(|t| t.is_punct("!")) {
            p.k += 2;
            if let Some(Tree::Group(g)) = p.peek() {
                p.k += 1;
                self.macro_args(&word, &g.trees);
            }
            if matches!(
                word.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) {
                self.diverged = true;
            }
            return self.postfix(p, Val::top(), None);
        }
        // Struct literal: `Name { field: expr, .. }` — evaluate the field
        // initializers for findings, value itself is opaque.
        if word.chars().next().is_some_and(char::is_uppercase) {
            if let Some(Tree::Group(g)) = p.t.get(p.k + 1) {
                if g.delim == '{' {
                    let g = g.clone();
                    p.k += 2;
                    for part in split_args(&g.trees) {
                        if let Some(c) = part.iter().position(|t| t.is_punct(":")) {
                            let _ = self.eval_expr(&part[c + 1..], None);
                        }
                    }
                    return Val::top();
                }
            }
        }
        // Collect the `::`-separated path.
        let mut segs: Vec<String> = vec![word];
        p.k += 1;
        while p.peek().is_some_and(|t| t.is_punct("::")) {
            let after = p.k + 1;
            match p.t.get(after) {
                Some(Tree::Leaf(nt)) if nt.kind == Kind::Ident => {
                    segs.push(nt.text.clone());
                    p.k = after + 1;
                }
                Some(Tree::Leaf(nt)) if nt.text == "<" || nt.text == "<<" => {
                    p.k = skip_angles(p.t, after);
                }
                _ => {
                    p.k = after;
                    break;
                }
            }
        }
        // Call?
        if let Some(Tree::Group(g)) = p.peek() {
            if g.delim == '(' {
                let g = g.clone();
                p.k += 1;
                let name = segs.last().cloned().unwrap_or_default();
                if segs.len() == 1 && (name == "Ok" || name == "Some") {
                    let inner = split_args(&g.trees)
                        .first()
                        .map(|a| self.eval_expr(a, None))
                        .unwrap_or_else(Val::top);
                    return self.postfix(p, inner, None);
                }
                if segs.len() == 1 && name == "Err" {
                    for part in split_args(&g.trees) {
                        let _ = self.eval_expr(part, None);
                    }
                    let mut v = Val::top();
                    v.ty = Some("!err".into());
                    return self.postfix(p, v, None);
                }
                if segs.len() == 2 && int_width(&segs[0]).is_some() {
                    let argv = split_args(&g.trees)
                        .first()
                        .map(|a| self.eval_expr(a, None));
                    match (segs[1].as_str(), argv) {
                        ("from", Some(a)) => {
                            let mut v = a;
                            v.src = format!("{}::from({})", segs[0], compact_str(&v.src));
                            v.ty = Some(segs[0].clone());
                            if let Some((lo, hi)) = type_range(&segs[0]) {
                                if !v.iv.within(lo, hi) {
                                    v.iv = Ival::Range(lo, hi);
                                }
                            }
                            return self.postfix(p, v, None);
                        }
                        ("try_from", Some(a)) => {
                            let mut v = a;
                            v.src = format!("{}::try_from({})", segs[0], compact_str(&v.src));
                            v.ty = Some(segs[0].clone());
                            if let Some((lo, hi)) = type_range(&segs[0]) {
                                v.iv = v.iv.meet(Ival::Range(lo, hi));
                            }
                            return self.postfix(p, v, None);
                        }
                        _ => return self.postfix(p, Val::top(), None),
                    }
                }
                let v = self.call_named(&name, &g.trees, line);
                return self.postfix(p, v, None);
            }
        }
        // Non-call path.
        if segs.len() >= 2 {
            let last = segs.last().cloned().unwrap_or_default();
            if let Some((lo, hi)) = type_range(&segs[0]) {
                let b = match last.as_str() {
                    "MAX" => Some(hi),
                    "MIN" => Some(lo),
                    _ => None,
                };
                if let Some(b) = b {
                    let mut v = Val::of(Ival::lit(b));
                    v.ty = Some(segs[0].clone());
                    v.src = format!("{}::{last}", segs[0]);
                    return self.postfix(p, v, None);
                }
            }
            if let Some(&c) = self.ctx.consts.get(&last) {
                let mut v = Val::of(Ival::lit(c));
                v.ty = self
                    .ctx
                    .index
                    .const_types
                    .get(&last)
                    .filter(|t| int_width(t).is_some())
                    .cloned();
                v.src = last;
                return self.postfix(p, v, None);
            }
            return self.postfix(p, Val::top(), None);
        }
        let name = segs.pop().unwrap_or_default();
        let v = self.read_path(&name);
        self.postfix(p, v, Some(name))
    }
}

impl Eval<'_, '_> {
    /// Postfix chain: field access, method calls, indexing, `?`, `as`.
    fn postfix(&mut self, p: &mut P, mut v: Val, mut path: Option<String>) -> Val {
        loop {
            match p.peek() {
                Some(Tree::Leaf(tok)) if tok.text == "." => match p.t.get(p.k + 1) {
                    Some(Tree::Leaf(nt)) if nt.kind == Kind::Ident => {
                        let name = nt.text.clone();
                        let line = nt.line;
                        let mut ahead = p.k + 2;
                        if p.t.get(ahead).is_some_and(|t| t.is_punct("::")) {
                            ahead = skip_angles(p.t, ahead + 1);
                        }
                        if let Some(Tree::Group(g)) = p.t.get(ahead) {
                            if g.delim == '(' {
                                let g = g.clone();
                                p.k = ahead + 1;
                                v = self.method_call(v, path.take(), &name, &g.trees, line);
                                continue;
                            }
                        }
                        p.k += 2;
                        path = path.map(|pp| format!("{pp}.{name}"));
                        v = match &path {
                            Some(pp) => self.read_path(pp),
                            None => Val::top(),
                        };
                        continue;
                    }
                    Some(Tree::Leaf(nt)) if nt.kind == Kind::Int => {
                        p.k += 2;
                        v = Val::top();
                        path = None;
                        continue;
                    }
                    _ => {
                        p.k += 1;
                        continue;
                    }
                },
                Some(Tree::Leaf(tok)) if tok.text == "?" => {
                    p.k += 1;
                    continue;
                }
                Some(Tree::Leaf(tok)) if tok.kind == Kind::Ident && tok.text == "as" => {
                    let line = tok.line;
                    p.k += 1;
                    let ty = p.peek_tok().map(|t| t.text.clone());
                    if let Some(t) = ty {
                        p.k += 1;
                        self.check_cast(&v, &t, line);
                        v = cast_val(v, &t);
                    }
                    path = None;
                    continue;
                }
                Some(Tree::Group(g)) if g.delim == '[' => {
                    let g = g.clone();
                    let line = g.line;
                    p.k += 1;
                    // Range-index slices (`a[..n]`) are not element reads.
                    if g.trees
                        .iter()
                        .any(|t| t.is_punct("..") || t.is_punct("..="))
                    {
                        let _ = self.eval_expr(&g.trees, None);
                        v = Val::top();
                        path = None;
                        continue;
                    }
                    let idx = self.eval_expr(&g.trees, None);
                    self.check_index(path.as_deref(), &idx, line);
                    let elem = path.as_ref().and_then(|pp| {
                        self.array_info(pp)
                            .and_then(|(_, e)| e)
                            .or_else(|| self.decl_ty(pp).and_then(|t| elem_ty(&t)))
                    });
                    v = Val::top();
                    if let Some(e) = elem {
                        let e = strip_refs(&e).to_string();
                        if let Some((lo, hi)) = type_range(&e) {
                            v.iv = Ival::Range(lo, hi);
                            v.ty = Some(e);
                        }
                    }
                    path = None;
                    continue;
                }
                _ => break,
            }
        }
        if v.src.is_empty() {
            if let Some(pp) = &path {
                v.src = pp.clone();
            }
        }
        v
    }

    /// Evaluates `;`- and `,`-separated expressions for their findings
    /// (array literals, `vec![x; n]`, macro arguments); a `name = expr`
    /// format argument counts as its value.
    fn eval_each(&mut self, trees: &[Tree]) {
        for seg in trees.split(|t| t.is_punct(";")) {
            for part in split_args(seg) {
                let part = match part {
                    [name, eq, rest @ ..]
                        if eq.is_punct("=")
                            && name.leaf().is_some_and(|t| t.kind == Kind::Ident) =>
                    {
                        rest
                    }
                    _ => part,
                };
                let _ = self.eval_expr(part, None);
            }
        }
    }

    /// A macro's arguments, evaluated for findings only (the state is left
    /// as it was, so the quiet fixpoint passes skip them): every
    /// expression, except that `matches!` contributes only its scrutinee
    /// (the rest is a pattern) and `macro_rules!` bodies are not code.
    fn macro_args(&mut self, name: &str, args: &[Tree]) {
        if !self.collect {
            return;
        }
        let env = self.env.clone();
        match name {
            "macro_rules" => {}
            "matches" => {
                let scrut = split_args(args).first().copied().unwrap_or(&[]);
                let _ = self.eval_expr(scrut, None);
            }
            _ => self.eval_each(args),
        }
        self.env = env;
    }

    /// Binds `name` to the full range of its declared type `ty` (unknown
    /// for a non-scalar type), recording the type for casts and method
    /// resolution.
    fn bind_declared(&mut self, name: &str, ty: &str) -> Val {
        self.decls.insert(name.to_string(), ty.to_string());
        let t = strip_refs(ty);
        let mut v = Val::top();
        let range = type_range(t);
        if let Some((lo, hi)) = range {
            v.iv = Ival::Range(lo, hi);
        }
        if range.is_some() || cast_safe_ty(t) {
            v.ty = Some(t.to_string());
            self.tys.insert(name.to_string(), t.to_string());
        }
        v.src = name.to_string();
        v
    }

    /// A closure: its body is evaluated for findings on a copy of the
    /// state, parameters bound to their ascribed type (or unknown). The
    /// value is opaque, and a captured variable the body changes falls to
    /// its type's full range, since the closure may run any number of
    /// times.
    fn closure(&mut self, p: &mut P) -> Val {
        if p.peek().is_some_and(|t| t.is_ident("move")) {
            p.k += 1;
        }
        let mut params: &[Tree] = &[];
        if p.peek().is_some_and(|t| t.is_punct("|")) {
            let open = p.k + 1;
            let Some(close) = (open..p.t.len()).find(|&j| p.t[j].is_punct("|")) else {
                p.k = p.t.len();
                return Val::top();
            };
            params = &p.t[open..close];
            p.k = close + 1;
        } else {
            p.k += 1; // `||`
        }
        if p.peek().is_some_and(|t| t.is_punct("->")) {
            p.k = find_block(p.t, p.k).unwrap_or(p.t.len());
        }
        let body = &p.t[p.k..];
        p.k = p.t.len();
        let saved = (
            self.env.clone(),
            self.tys.clone(),
            self.decls.clone(),
            self.arrays.clone(),
            self.ret_iv,
            self.diverged,
            std::mem::take(&mut self.break_envs),
            std::mem::take(&mut self.cont_envs),
        );
        let mut names = Vec::new();
        for part in split_args(params) {
            let colon = part.iter().position(|t| t.is_punct(":"));
            let pat = &part[..colon.unwrap_or(part.len())];
            let bound = pattern_names(pat);
            for n in &bound {
                self.env.remove(n);
                self.tys.remove(n);
                self.decls.remove(n);
                self.arrays.remove(n);
            }
            if let (Some(c), [n]) = (colon, &bound[..]) {
                let v = self.bind_declared(n, &crate::ast::tree::to_text(&part[c + 1..]));
                self.env.insert(n.clone(), v);
            }
            names.extend(bound);
        }
        let _ = self.run_block(body);
        let after = std::mem::take(&mut self.env);
        (
            self.env,
            self.tys,
            self.decls,
            self.arrays,
            self.ret_iv,
            self.diverged,
            self.break_envs,
            self.cont_envs,
        ) = saved;
        for (k, v) in &mut self.env {
            if !names.contains(k) && after.get(k).map(|a| a.iv) != Some(v.iv) {
                v.iv =
                    v.ty.as_deref()
                        .and_then(type_range)
                        .map_or(Ival::Top, |(lo, hi)| Ival::Range(lo, hi));
            }
        }
        Val::top()
    }

    /// Flags every integer `as` cast in `trees` that the evaluation never
    /// checked (code the domain does not model: nested items, types,
    /// unreachable statements), so no cast in a body escapes the sink. A
    /// constant operand that fits (`[u8; N as usize]`) is proven by folding.
    fn unvisited_casts(&mut self, trees: &[Tree]) {
        for (k, t) in trees.iter().enumerate() {
            if let Tree::Group(g) = t {
                self.unvisited_casts(&g.trees);
                continue;
            }
            let Some(tok) = t.leaf().filter(|t| t.is_ident("as")) else {
                continue;
            };
            let Some(ty) = trees
                .get(k + 1)
                .and_then(Tree::leaf)
                .map(|t| t.text.clone())
                .filter(|t| type_range(t).is_some())
            else {
                continue;
            };
            let cast = &trees[k.saturating_sub(1)..k + 2];
            if self.casts.contains(&(tok.line, ty.clone()))
                || fold_const(cast, &self.ctx.consts).is_some()
            {
                continue;
            }
            let operand = k
                .checked_sub(1)
                .map(|j| crate::ast::tree::to_text(&trees[j..k]))
                .unwrap_or_default();
            self.flag(
                tok.line,
                format!(
                    "`{} as {ty}`: cast outside the code the range domain evaluates; \
                     operand not provably within {ty}",
                    compact_str(&operand)
                ),
                Vec::new(),
            );
        }
    }

    /// The `as` sink: an integer cast is flagged unless the operand's
    /// interval lies within the target type or the operand is a `bool` or
    /// float (see [`cast_safe_ty`]).
    fn check_cast(&mut self, v: &Val, ty: &str, line: usize) {
        let Some((lo, hi)) = type_range(ty) else {
            return;
        };
        if self.collect {
            self.casts.insert((line, ty.to_string()));
        }
        if v.iv.within(lo, hi) || v.ty.as_deref().is_some_and(cast_safe_ty) {
            return;
        }
        let mut chain = v.hops.clone();
        chain.push(format!("operand {} ∈ {}", compact_str(&v.src), v.iv));
        self.flag(
            line,
            format!(
                "`{} as {ty}`: operand {} not provably within {ty} [{}, {}]",
                compact_str(&v.src),
                v.iv,
                fmt_bound(lo),
                fmt_bound(hi)
            ),
            chain,
        );
    }

    /// Flags an element read whose index interval provably escapes a known
    /// fixed array length.
    fn check_index(&mut self, path: Option<&str>, idx: &Val, line: usize) {
        let Some(p) = path else { return };
        let Some((n, _)) = self.array_info(p) else {
            return;
        };
        let Some((lo, hi)) = idx.iv.bounds() else {
            return;
        };
        if !informative(idx.iv, idx.ty.as_deref(), "usize") {
            return; // no knowledge about the index, stay quiet
        }
        if lo < 0 || hi >= n {
            let mut chain = idx.hops.clone();
            chain.push(format!("index {} ∈ {}", compact_str(&idx.src), idx.iv));
            self.flag(
                line,
                format!(
                    "`{p}[{}]`: index {} may escape length {n}",
                    compact_str(&idx.src),
                    idx.iv
                ),
                chain,
            );
        }
    }

    /// The (length, element type) of a known fixed-size array path.
    fn array_info(&self, p: &str) -> Option<(i128, Option<String>)> {
        if let Some(x) = self.arrays.get(p) {
            return Some(x.clone());
        }
        if !p.contains('.') {
            if let Some(t) = self.ctx.index.const_types.get(p) {
                return array_ty_parts(t, &self.ctx.consts);
            }
        }
        if p.contains('.') {
            let f = p.rsplit('.').next()?;
            let set = self.ctx.index.field_types.get(f)?;
            if set.len() == 1 {
                return array_ty_parts(set.iter().next()?, &self.ctx.consts);
            }
        }
        None
    }

    /// The declared type of a path: a param, `self` or ascribed `let`,
    /// or a struct field whose name has one declared type.
    fn decl_ty(&self, p: &str) -> Option<String> {
        if let Some(t) = self.decls.get(p) {
            return Some(t.clone());
        }
        let set = self.ctx.index.field_types.get(p.rsplit_once('.')?.1)?;
        (set.len() == 1)
            .then(|| set.iter().next().cloned())
            .flatten()
    }

    /// Workspace candidates for a call target, or empty when ambiguous. A
    /// method call on a receiver of known type keeps only that type's
    /// methods, so same-named methods on other types cannot poison the
    /// resolution.
    fn targets_of(&self, name: &str, recv: Option<&str>) -> Vec<usize> {
        let mut t = self.ctx.index.resolve_defined(name);
        if let Some(rt) = recv.and_then(|p| self.decl_ty(p)) {
            let rt = strip_refs(&rt)
                .rsplit([' ', ':'])
                .next()
                .unwrap_or_default();
            let own: Vec<usize> = t
                .iter()
                .copied()
                .filter(|&id| self.ctx.index.fns[id].item.self_ty.as_deref() == Some(rt))
                .collect();
            if !own.is_empty() {
                t = own;
            }
        }
        if t.len() > MAX_CANDIDATES {
            Vec::new()
        } else {
            t
        }
    }

    /// Evaluates call arguments; `&mut x` arguments invalidate `x`.
    fn eval_args(&mut self, args: &[Tree]) -> Vec<Val> {
        let mut argv = Vec::new();
        for part in split_args(args) {
            if part.first().is_some_and(|t| t.is_punct("&"))
                && part.get(1).is_some_and(|t| t.is_ident("mut"))
            {
                if let Some(pp) = path_of(&part[2..]) {
                    self.invalidate_path(&pp);
                }
            }
            argv.push(self.eval_expr(part, None));
        }
        argv
    }

    /// Resolves a call (a method call on the receiver path `recv`, if
    /// given) through the interval transfer functions, checking declared
    /// contracts at the call edge. `None` when unresolved.
    fn transfer_call(
        &mut self,
        name: &str,
        recv: Option<&str>,
        argv: &[Val],
        line: usize,
    ) -> Option<Val> {
        let ids = self.targets_of(name, recv);
        if ids.is_empty() {
            return None;
        }
        let mut iv: Option<Ival> = None;
        // The call's type, when every candidate returns the same scalar.
        let mut rets = ids
            .iter()
            .map(|&id| ret_scalar_ty(self.ctx.index.fns[id].item.ret.as_deref()));
        let first = rets.next().flatten();
        let ret_ty = first.filter(|f| rets.all(|r| r.as_ref() == Some(f)));
        for &id in &ids {
            let item = &self.ctx.index.fns[id].item;
            let named: Vec<&(String, String)> =
                item.params.iter().filter(|(n, _)| !n.is_empty()).collect();
            let mut call_ivs: Vec<Ival> = Vec::new();
            for (k, (pn, _)) in named.iter().enumerate() {
                let av = argv.get(k);
                let mut aiv = av.map_or(Ival::Top, |v| v.iv);
                if let Some((clo, chi)) = self.ctx.contract(&item.name, pn) {
                    if let Some(av) = av {
                        if let Some((alo, ahi)) = av.iv.bounds() {
                            if informative(av.iv, av.ty.as_deref(), "i128")
                                && (alo < clo || ahi > chi)
                            {
                                let mut chain = av.hops.clone();
                                chain.push(format!(
                                    "argument {} ∈ {}",
                                    compact_str(&av.src),
                                    av.iv
                                ));
                                self.flag(
                                    line,
                                    format!(
                                        "`{name}({pn})`: argument {} escapes declared contract [{}, {}] (ranges.toml)",
                                        av.iv,
                                        fmt_bound(clo),
                                        fmt_bound(chi)
                                    ),
                                    chain,
                                );
                            }
                        }
                    }
                    aiv = aiv.meet(Ival::Range(clo, chi));
                }
                call_ivs.push(aiv);
            }
            let r = self.ctx.transfer(id, &call_ivs);
            iv = Some(match iv {
                Some(x) => x.join(r),
                None => r,
            });
        }
        let mut out = Val::of(iv.unwrap_or(Ival::Top));
        out.ty = ret_ty;
        out.src = format!("{name}(…)");
        for a in argv {
            for h in &a.hops {
                out.push_hop(h.clone());
            }
        }
        if out.iv.bounds().is_some() {
            out.push_hop(format!("{name}(…) ∈ {}", out.iv));
        }
        Some(out)
    }

    /// Fallback model for a wire primitive's reader call: what one call
    /// yields, with a width bounded by its argument's interval when known.
    fn source_model(&mut self, name: &str, p: &Primitive, argv: &[Val]) -> Val {
        let full = |t: &str| type_range(t).map_or(Ival::Top, |(lo, hi)| Ival::Range(lo, hi));
        let (iv, ty) = match p.yields {
            Yield::Bin { .. } => (Ival::Range(0, 1), "u64"),
            Yield::Fixed(ty) => (full(ty), ty),
            Yield::Width => match argv.last().and_then(|a| a.iv.bounds()) {
                Some((lo, hi)) if lo >= 0 && hi <= 63 => (Ival::Range(0, (1i128 << hi) - 1), "u64"),
                _ => (full("u64"), "u64"),
            },
        };
        let mut v = Val::of(iv);
        v.ty = Some(ty.to_string());
        v.src = format!("{name}(…)");
        if type_range(ty).is_some_and(|(lo, hi)| !v.iv.covers(lo, hi)) {
            v.push_hop(format!("{name}(…) ∈ {}", v.iv));
        }
        v
    }

    /// A free-function call.
    fn call_named(&mut self, name: &str, args: &[Tree], line: usize) -> Val {
        let argv = self.eval_args(args);
        let source = vocab::reader(name);
        if let Some(v) = self.transfer_call(name, None, &argv, line) {
            if v.iv.bounds().is_some() || source.is_none() {
                return v;
            }
        }
        source.map_or_else(Val::top, |p| self.source_model(name, p, &argv))
    }
}

impl Eval<'_, '_> {
    /// A method call: modeled sanitizers first, then workspace transfer
    /// resolution, then the wire-source fallback models. Unmodeled calls
    /// invalidate knowledge rooted at the receiver path.
    fn method_call(
        &mut self,
        recv: Val,
        recv_path: Option<String>,
        name: &str,
        args: &[Tree],
        line: usize,
    ) -> Val {
        let argv = self.eval_args(args);
        let a0 = argv.first();
        let recv_tr = recv.ty.as_deref().map(strip_refs).and_then(type_range);
        // Substitute the receiver's full type range for Top so `.min` on an
        // unknown-but-typed value still yields a bound.
        let recv_eff = match (recv.iv, recv_tr) {
            (Ival::Top, Some((lo, hi))) => Ival::Range(lo, hi),
            (iv, _) => iv,
        };
        let bits = recv
            .ty
            .as_deref()
            .map(strip_refs)
            .and_then(int_width)
            .map(|(b, _)| i128::from(b));
        let mk = |iv: Ival, ty: Option<String>| -> Val {
            let mut v = Val::of(iv);
            v.ty = ty;
            v.hops = recv.hops.clone();
            v.src = format!("{}.{name}(…)", compact_str(&recv.src));
            v
        };
        match name {
            "min" => {
                let o = a0.map_or(Ival::Top, |a| a.iv);
                let mut v = mk(recv_eff.min_iv(o), recv.ty.clone());
                if v.iv.bounds().is_some() {
                    v.push_hop(format!("min(…) ∈ {}", v.iv));
                }
                return v;
            }
            "max" => {
                let o = a0.map_or(Ival::Top, |a| a.iv);
                return mk(recv_eff.max_iv(o), recv.ty.clone());
            }
            "clamp" if argv.len() == 2 => {
                if let (Some((l, _)), Some((_, h))) = (argv[0].iv.bounds(), argv[1].iv.bounds()) {
                    let mut v = mk(Ival::new(l, h), recv.ty.clone());
                    v.push_hop(format!("clamp(…) ∈ {}", v.iv));
                    return v;
                }
                return mk(Ival::Top, recv.ty.clone());
            }
            "leading_zeros" => {
                let b = bits.unwrap_or(128);
                let bitlen = |v: i128| i128::from(128 - v.leading_zeros());
                let iv = match recv_eff.bounds() {
                    Some((lo, hi)) if lo >= 0 => {
                        // monotone decreasing: lz(hi) ..= lz(lo)
                        Ival::new((b - bitlen(hi)).max(0), b - bitlen(lo))
                    }
                    _ => Ival::Range(0, b),
                };
                return mk(iv, Some("u32".into()));
            }
            "trailing_zeros" | "count_ones" | "count_zeros" => {
                let b = bits.unwrap_or(128);
                return mk(Ival::Range(0, b), Some("u32".into()));
            }
            "saturating_add" | "saturating_sub" | "saturating_mul" => {
                let o = a0.map_or(Ival::Top, |a| a.iv);
                let raw = match name {
                    "saturating_add" => recv_eff.add(o),
                    "saturating_sub" => recv_eff.sub(o),
                    _ => recv_eff.mul(o),
                };
                let iv = match recv_tr {
                    Some((lo, hi)) => match raw.bounds() {
                        Some((rl, rh)) => Ival::new(rl.clamp(lo, hi), rh.clamp(lo, hi)),
                        None => Ival::Range(lo, hi),
                    },
                    None => raw,
                };
                return mk(iv, recv.ty.clone());
            }
            "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_shl" | "wrapping_shr"
            | "wrapping_neg" | "checked_add" | "checked_sub" | "checked_mul" | "checked_shl"
            | "checked_shr" | "checked_div" | "overflowing_add" | "overflowing_sub"
            | "overflowing_mul" => {
                // Explicitly wrap-aware arithmetic: never flag, no knowledge.
                return mk(Ival::Top, recv.ty.clone());
            }
            "pow" => {
                if let (Some((rl, rh)), Some((el, eh))) =
                    (recv_eff.bounds(), a0.and_then(|a| a.iv.bounds()))
                {
                    if rl >= 0 && el >= 0 && eh <= 32 {
                        let hi = (0..eh).try_fold(1i128, |acc, _| acc.checked_mul(rh));
                        if let Some(hi) = hi {
                            let lo = (0..el).fold(1i128, |acc, _| acc.saturating_mul(rl));
                            return mk(Ival::new(lo.min(hi), hi), recv.ty.clone());
                        }
                    }
                }
                return mk(Ival::Top, recv.ty.clone());
            }
            "rem_euclid" => {
                if let Some((dl, dh)) = a0.and_then(|a| a.iv.bounds()) {
                    if dl > 0 {
                        return mk(Ival::Range(0, dh - 1), recv.ty.clone());
                    }
                }
                return mk(Ival::Top, recv.ty.clone());
            }
            "len" => {
                // Rust allocations cap at isize::MAX bytes, so any length
                // is below 2^63 — this keeps `i < buf.len()` narrowings
                // from poisoning later `+ small` arithmetic.
                return mk(Ival::Range(0, i64::MAX as i128), Some("usize".into()));
            }
            "unwrap" | "expect" | "ok" | "unwrap_unchecked" | "map_err" | "cloned" | "copied"
            | "clone" | "borrow" | "to_owned" => {
                let mut v = recv.clone();
                if v.is_err_marker() {
                    v.ty = None;
                }
                return v;
            }
            "unwrap_or" => {
                let mut v = recv.clone();
                if v.is_err_marker() {
                    v.ty = None;
                    v.iv = Ival::Top;
                }
                if let Some(a) = a0 {
                    v.iv = v.iv.join(a.iv);
                    if v.ty.is_none() {
                        v.ty = a.ty.clone().filter(|t| t != "!err");
                    }
                }
                return v;
            }
            "unwrap_or_default" => {
                let mut v = recv.clone();
                if v.is_err_marker() {
                    v.ty = None;
                    v.iv = Ival::Top;
                }
                v.iv = v.iv.join(Ival::lit(0));
                return v;
            }
            "into" | "try_into" => {
                // Target type unknown here; keep the interval, drop the type.
                let mut v = recv.clone();
                v.ty = None;
                return v;
            }
            "round" | "floor" | "ceil" | "trunc" | "fract" | "sqrt" | "cbrt" | "powf" | "powi"
            | "exp" | "ln" | "log2" | "log10" | "hypot" | "mul_add" => {
                // Float-only methods: the value stays a float of the
                // receiver's width.
                let ty = recv.ty.clone().filter(|t| is_float_ty(t));
                return mk(Ival::Top, ty.or_else(|| Some("f64".into())));
            }
            "abs" | "unsigned_abs" | "isqrt" | "ilog2" | "signum" => {
                // Deliberately unmodeled numerics: no knowledge, no flag
                // (a float stays a float).
                return mk(Ival::Top, recv.ty.clone().filter(|t| is_float_ty(t)));
            }
            _ => {}
        }
        // Workspace transfer resolution.
        let resolved = self.transfer_call(name, recv_path.as_deref(), &argv, line);
        let source = vocab::reader(name);
        if resolved.is_some() || source.is_some() {
            if let Some(pp) = &recv_path {
                self.invalidate_path(pp);
            }
        }
        if let Some(v) = resolved {
            if v.iv.bounds().is_some() || source.is_none() {
                return v;
            }
        }
        if let Some(p) = source {
            return self.source_model(name, p, &argv);
        }
        // Unknown method: the receiver may have been mutated.
        if let Some(pp) = &recv_path {
            self.invalidate_path(pp);
        }
        Val::top()
    }
}

impl Eval<'_, '_> {
    /// `if` in expression position.
    fn eval_if(&mut self, p: &mut P) -> Val {
        let (v, falls) = self.if_chain(p);
        if !falls {
            self.diverged = true;
        }
        v
    }

    /// One `if … {…} else if … {…} else {…}` chain; returns the joined
    /// value and whether any branch falls through.
    fn if_chain(&mut self, p: &mut P) -> (Val, bool) {
        let i = p.k;
        let Some(b) = find_block(p.t, i + 1) else {
            p.k = p.t.len();
            return (Val::top(), true);
        };
        let cond: Vec<Tree> = p.t[i + 1..b].to_vec();
        let Some(Tree::Group(body)) = p.t.get(b) else {
            p.k = b + 1;
            return (Val::top(), true);
        };
        let body = body.clone();
        p.k = b + 1;
        let is_let = cond.first().is_some_and(|t| t.is_ident("let"));
        let (then_env, else_base) = if is_let {
            let eqpos = cond.iter().position(|t| t.is_punct("="));
            let scrut_v = eqpos.map(|e| self.eval_expr(&cond[e + 1..], None));
            let mut te = self.env.clone();
            if let Some(e) = eqpos {
                let pat = &cond[1..e];
                let mut bound = false;
                if let [c, Tree::Group(g)] = pat {
                    if (c.is_ident("Some") || c.is_ident("Ok")) && !g.trees.is_empty() {
                        if let Some(n) = path_of(&g.trees) {
                            if let Some(sv) = &scrut_v {
                                if !sv.is_err_marker() {
                                    let mut vv = sv.clone();
                                    vv.src = n.clone();
                                    te.insert(n, vv);
                                    bound = true;
                                }
                            }
                        }
                    }
                }
                if !bound {
                    for n in pattern_names(&cond[1..e]) {
                        te.remove(&n);
                        self.tys.remove(&n);
                    }
                }
            }
            (te, self.env.clone())
        } else {
            let _ = self.eval_expr(&cond, None);
            (
                self.narrowed(self.env.clone(), &cond, true),
                self.narrowed(self.env.clone(), &cond, false),
            )
        };
        self.env = then_env;
        let (t_exit, t_val) = self.run_block(&body.trees);
        let t_env = std::mem::take(&mut self.env);
        let (e_env, e_val, e_falls) = if p.peek().is_some_and(|t| t.is_ident("else")) {
            p.k += 1;
            if p.peek().is_some_and(|t| t.is_ident("if")) {
                self.env = else_base;
                let (v, f) = self.if_chain(p);
                (std::mem::take(&mut self.env), Some(v), f)
            } else if let Some(Tree::Group(g)) = p.peek() {
                let g = g.clone();
                p.k += 1;
                self.env = else_base;
                let (ex, v) = self.run_block(&g.trees);
                (std::mem::take(&mut self.env), v, ex.falls)
            } else {
                (else_base, None, true)
            }
        } else {
            (else_base, None, true)
        };
        match (t_exit.falls, e_falls) {
            (true, true) => {
                self.env = join_env(&t_env, &e_env);
                let val = match (t_val, e_val) {
                    (Some(a), Some(b)) => {
                        let mut v = a.clone();
                        v.iv = a.iv.join(b.iv);
                        if v.ty != b.ty {
                            v.ty = None;
                        }
                        for h in &b.hops {
                            v.push_hop(h.clone());
                        }
                        Some(v)
                    }
                    _ => None,
                };
                (val.unwrap_or_else(Val::top), true)
            }
            (true, false) => {
                self.env = t_env;
                (t_val.unwrap_or_else(Val::top), true)
            }
            (false, true) => {
                self.env = e_env;
                (e_val.unwrap_or_else(Val::top), true)
            }
            (false, false) => {
                self.env = t_env;
                (Val::top(), false)
            }
        }
    }

    /// `match` in expression position: every arm runs from the entry env;
    /// the exit env and value are joined over the falling arms.
    fn eval_match(&mut self, p: &mut P) -> Val {
        let i = p.k;
        let Some(b) = find_block(p.t, i + 1) else {
            p.k = p.t.len();
            return Val::top();
        };
        let scrut: Vec<Tree> = p.t[i + 1..b].to_vec();
        let Some(Tree::Group(body)) = p.t.get(b) else {
            p.k = b + 1;
            return Val::top();
        };
        let body = body.clone();
        p.k = b + 1;
        let sv = self.eval_expr(&scrut, None);
        let scrut_path = path_of(&scrut);
        let base_env = self.env.clone();
        let base_tys = self.tys.clone();
        let base_arrays = self.arrays.clone();
        let ts = &body.trees;
        let mut a = 0usize;
        let mut out_env: Option<Env> = None;
        let mut out_val: Option<Val> = None;
        let mut saw_arm = false;
        while a < ts.len() {
            if ts[a].is_punct(",") || ts[a].is_punct("|") {
                a += 1;
                continue;
            }
            if ts[a].is_punct("#") {
                a += 1;
                if matches!(ts.get(a), Some(Tree::Group(_))) {
                    a += 1;
                }
                continue;
            }
            let Some(arrow) = (a..ts.len()).find(|&j| ts[j].is_punct("=>")) else {
                break;
            };
            let mut pat: Vec<Tree> = ts[a..arrow].to_vec();
            saw_arm = true;
            self.env = base_env.clone();
            self.tys = base_tys.clone();
            self.arrays = base_arrays.clone();
            let guard = pat
                .iter()
                .position(|t| t.is_ident("if"))
                .map(|g| pat.split_off(g));
            for n in pattern_names(&pat) {
                self.env.remove(&n);
                self.tys.remove(&n);
            }
            if let Some(g) = &guard {
                let _ = self.eval_expr(&g[1..], None);
            }
            if let (Some(sp), [one]) = (&scrut_path, &pat[..]) {
                if let Some(tok) = one.leaf().filter(|t| t.kind == Kind::Int) {
                    if let Some((lit, _)) = parse_int(&tok.text) {
                        self.set_path(sp, Ival::lit(lit));
                    }
                }
            }
            if let [c, Tree::Group(g)] = &pat[..] {
                if (c.is_ident("Some") || c.is_ident("Ok")) && !sv.is_err_marker() {
                    if let Some(n) = path_of(&g.trees) {
                        let mut vv = sv.clone();
                        vv.src = n.clone();
                        self.env.insert(n, vv);
                    }
                }
            }
            let (falls, val, next) = match ts.get(arrow + 1) {
                Some(Tree::Group(g)) if g.delim == '{' => {
                    let g = g.clone();
                    let (ex, v) = self.run_block(&g.trees);
                    (ex.falls, v, arrow + 2)
                }
                _ => {
                    let end = stmt_end(ts, arrow + 1);
                    let v = self.eval_expr(&ts[arrow + 1..end], None);
                    let d = std::mem::take(&mut self.diverged);
                    (!d, Some(v), end + 1)
                }
            };
            if falls {
                let e = self.env.clone();
                out_env = Some(match out_env {
                    Some(o) => join_env(&o, &e),
                    None => e,
                });
                if let Some(v) = val {
                    out_val = Some(match out_val {
                        Some(mut o) => {
                            o.iv = o.iv.join(v.iv);
                            if o.ty != v.ty {
                                o.ty = None;
                            }
                            o
                        }
                        None => v,
                    });
                }
            }
            a = next;
        }
        self.tys = base_tys;
        self.arrays = base_arrays;
        match out_env {
            Some(e) => self.env = e,
            None => {
                self.env = base_env;
                if saw_arm {
                    self.diverged = true;
                }
            }
        }
        out_val.unwrap_or_else(Val::top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    fn index_of(src: &str) -> Index {
        Workspace::of(&[("llm265-bitstream", &[("crates/bitstream/src/lib.rs", src)])])
            .build_index()
    }

    fn sites(src: &str, contracts: &[Contract]) -> Vec<(String, Site)> {
        let index = index_of(src);
        let ctx = RangeCtx::new(&index, contracts);
        let mut out = Vec::new();
        for id in 0..index.fns.len() {
            let name = index.fns[id].item.name.clone();
            for s in check_fn(&ctx, id) {
                out.push((name.clone(), s));
            }
        }
        out
    }

    fn msgs(src: &str) -> Vec<String> {
        sites(src, &[])
            .into_iter()
            .map(|(f, s)| format!("{f}: {}", s.msg))
            .collect()
    }

    #[test]
    fn const_folding_handles_arith_and_casts() {
        let consts = BTreeMap::from([("K".to_string(), 8i128)]);
        let f = |s: &str| fold_const(&trees_of(s), &consts);
        assert_eq!(f("3 * 32 + 1"), Some(97));
        assert_eq!(f("1 << K"), Some(256));
        assert_eq!(f("(K - 2) as usize"), Some(6));
        assert_eq!(f("u8::MAX as i128"), Some(255));
        assert_eq!(f("missing + 1"), None);
    }

    #[test]
    fn interval_ops_are_sound() {
        let a = Ival::new(2, 5);
        let b = Ival::new(-1, 3);
        assert_eq!(a.add(b), Ival::new(1, 8));
        assert_eq!(a.mul(b), Ival::new(-5, 15));
        assert_eq!(a.sub(b), Ival::new(-1, 6));
        assert_eq!(Ival::new(0, 7).shl(Ival::lit(4)), Ival::new(0, 112));
        assert_eq!(Ival::Top.min_iv(Ival::lit(9)), Ival::new(i128::MIN, 9));
        assert_eq!(a.join(Ival::Top), Ival::Top);
        assert_eq!(a.meet(Ival::new(4, 99)), Ival::new(4, 5));
    }

    #[test]
    fn widening_loop_converges_to_bound() {
        let src = r"
            pub fn acc() -> u32 {
                let mut total: u32 = 0;
                let mut i: u32 = 0;
                while i < 32 {
                    total = total + 2;
                    i = i + 1;
                }
                total
            }
        ";
        let index = index_of(src);
        let ctx = RangeCtx::new(&index, &[]);
        let (iv, s) = eval_fn(&ctx, 0, None, true);
        assert!(s.is_empty(), "unexpected findings: {s:?}");
        // Threshold widening pins i at the guard literal; total still
        // widens to the type bound, which is inside u32 — no flag.
        assert!(iv.within(0, u32::MAX as i128), "ret {iv}");
    }

    #[test]
    fn syntax_layer_bins_yield_their_width() {
        let src = r"
            pub fn mode<D: BinSource>(dec: &mut D) -> u64 {
                dec.bypass_bits(4)
            }
            pub fn flag<D: BinSource>(dec: &mut D, c: &mut Prob) -> u64 {
                u64::from(dec.bit(c))
            }
        ";
        let index = index_of(src);
        let ctx = RangeCtx::new(&index, &[]);
        assert_eq!(eval_fn(&ctx, 0, None, true).0, Ival::new(0, 15));
        assert_eq!(eval_fn(&ctx, 1, None, true).0, Ival::new(0, 1));
    }

    #[test]
    fn literal_arithmetic_escape_is_flagged() {
        let found = msgs(
            r"
            pub fn promote(a: u8) -> u16 {
                u16::from(a) * 300
            }
        ",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("u16 result"), "{found:?}");
    }

    #[test]
    fn no_knowledge_multiply_stays_quiet() {
        // Both operands cover their full type range: flagging `a * b`
        // for every u8 pair would drown the report.
        let found = msgs(
            r"
            pub fn scale(a: u8, b: u8) -> u8 {
                a * b
            }
        ",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn guarded_shift_is_quiet_unguarded_is_flagged() {
        let found = msgs(
            r"
            pub fn guarded(v: u32, n: u32) -> u32 {
                if n < 32 { v << n } else { 0 }
            }
            pub fn unguarded(v: u32, n: u32) -> u32 {
                v << n
            }
        ",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("unguarded:"), "{found:?}");
        assert!(found[0].contains("not provably < 32"), "{found:?}");
    }

    #[test]
    fn min_and_mask_sanitize() {
        let found = msgs(
            r"
            pub fn capped(v: u64, n: u64) -> u64 {
                v >> n.min(63)
            }
            pub fn masked(v: u32, n: u32) -> u32 {
                v << (n & 31)
            }
        ",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn assert_guard_proves_shift() {
        let found = msgs(
            r"
            pub fn read(acc: u64, n: u32) -> u64 {
                assert!(n <= 57);
                acc >> n
            }
        ",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn contract_seeds_prove_shift() {
        let src = r"
            pub fn code_remainder(rem: u32, k: u32) -> u32 {
                rem << k
            }
        ";
        // Without the contract the shift amount is unbounded.
        assert_eq!(msgs(src).len(), 1);
        // The ranges.toml contract pins k to [0, 8].
        let c = [Contract {
            func: "code_remainder".into(),
            param: "k".into(),
            lo: 0,
            hi: 8,
        }];
        let found = sites(src, &c);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn index_bounds_are_checked() {
        let found = msgs(
            r"
            pub fn lut(i: u8) -> u8 {
                let table: [u8; 16] = [0; 16];
                table[usize::from(i & 15)]
            }
            pub fn oob(i: u8) -> u8 {
                let table: [u8; 16] = [0; 16];
                table[usize::from(i & 31)]
            }
        ",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("oob:"), "{found:?}");
        assert!(found[0].contains("length 16"), "{found:?}");
    }

    #[test]
    fn transfer_functions_carry_intervals_across_calls() {
        let found = sites(
            r"
            fn promote(x: u8) -> u16 {
                u16::from(x)
            }
            pub fn decode_gain(a: u8) -> u16 {
                promote(a) * 300
            }
        ",
            &[],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        let (f, s) = &found[0];
        assert_eq!(f, "decode_gain");
        assert!(s.msg.contains("u16 result"), "{}", s.msg);
        assert!(
            s.chain.iter().any(|h| h.contains("promote")),
            "chain lacks transfer hop: {:?}",
            s.chain
        );
    }

    #[test]
    fn try_from_and_unwrap_or_narrow() {
        let found = msgs(
            r"
            pub fn shrink(v: u32) -> u8 {
                let b = u8::try_from(v).unwrap_or(0);
                b + 0
            }
        ",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn return_default_meets_declared_type() {
        let src = r"
            pub fn bit() -> u32 {
                1
            }
            pub fn wide() -> u64 {
                u64::from(u32::MAX) + 1
            }
        ";
        let index = index_of(src);
        let ctx = RangeCtx::new(&index, &[]);
        assert_eq!(ctx.default_of(0), Ival::lit(1));
        assert_eq!(ctx.default_of(1), Ival::lit(1 << 32));
    }

    #[test]
    fn match_arms_join_and_literal_patterns_narrow() {
        let found = msgs(
            r"
            pub fn pick(mode: u8) -> u16 {
                let w: u16 = match mode {
                    0 => 100,
                    1 => 200,
                    _ => 300,
                };
                w * 300
            }
        ",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("u16 result"), "{found:?}");
    }

    #[test]
    fn contract_violation_at_call_edge_is_flagged() {
        let src = r"
            fn code_eg(m: u32) -> u32 {
                1 << m
            }
            pub fn caller() -> u32 {
                code_eg(40)
            }
        ";
        let c = [Contract {
            func: "code_eg".into(),
            param: "m".into(),
            lo: 1,
            hi: 9,
        }];
        let found = sites(src, &c);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.msg.contains("contract"), "{}", found[0].1.msg);
    }

    #[test]
    fn return_defaults_match_the_fixpoint_over_every_function() {
        // The context runs its return-default fixpoint over the integer-
        // and bool-returning functions only. Pin, over this workspace,
        // that those functions get exactly the defaults the fixpoint over
        // every bodied function gives them.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::load(&root).expect("load workspace");
        let contracts = crate::passes::range_proof::load_contracts(&root).expect("contracts");
        let index = ws.build_index();
        let ctx = RangeCtx::new(&index, &contracts);
        let full = RangeCtx::new(&index, &contracts);
        full.defaults.borrow_mut().clear();
        full.memo.borrow_mut().clear();
        for _ in 0..FIXPOINT_ROUNDS {
            let fresh = (0..index.fns.len())
                .filter(|&id| index.fns[id].item.body.is_some())
                .filter_map(|id| {
                    let (iv, _) = eval_fn(&full, id, None, false);
                    (iv != Ival::Top).then_some((id, iv))
                })
                .collect();
            *full.defaults.borrow_mut() = fresh;
        }
        let mut checked = 0;
        for (id, e) in index.fns.iter().enumerate() {
            let ret = ret_scalar_ty(e.item.ret.as_deref());
            if ret.is_some_and(|t| !is_float_ty(&t)) {
                assert_eq!(ctx.default_of(id), full.default_of(id), "{}", e.item.name);
                checked += usize::from(full.default_of(id) != Ival::Top);
            }
        }
        assert!(checked >= 100, "only {checked} informative defaults");
    }
}
