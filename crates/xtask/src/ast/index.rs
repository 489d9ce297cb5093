//! Workspace-wide item index and call graph.
//!
//! Built once per lint run: every crate's files are parsed and their items
//! merged into one queryable structure. Passes use it for cross-file
//! reasoning — resolving a call to its definition(s), looking up a
//! function's return type or a struct field's width, and walking the call
//! graph from a set of root functions to its reachable closure.
//!
//! All maps are `BTreeMap`/`BTreeSet`: the lint gate's own output must be
//! deterministic across runs, for the same reasons the workspace
//! `clippy.toml` bans hashed collections in the codec.

use std::collections::{BTreeMap, BTreeSet};

use super::items::FnItem;
use super::lex::Kind;
use super::tree::{Group, Tree};

/// One indexed function: where it lives plus its parsed item.
#[derive(Debug, Clone)]
pub struct FnEntry {
    /// Package name of the defining crate.
    pub krate: String,
    /// Workspace-relative file path.
    pub path: String,
    /// The parsed item.
    pub item: FnItem,
    /// Names this function calls (direct calls, method calls and paths).
    pub calls: BTreeSet<String>,
    /// Macro names this function invokes (`panic`, `vec`, `write`, …).
    pub macros: BTreeSet<String>,
}

/// The merged index over every crate in the workspace.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// All functions, in deterministic (crate, path, line) order.
    pub fns: Vec<FnEntry>,
    /// Function name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Struct field name → every declared type for that field name.
    pub field_types: BTreeMap<String, BTreeSet<String>>,
    /// Const/static name → declared type.
    pub const_types: BTreeMap<String, String>,
    /// Const/static name → initializer trees (for interval evaluation).
    pub const_inits: BTreeMap<String, Vec<Tree>>,
}

impl Index {
    /// Adds one parsed file's items to the index.
    pub fn add_file(&mut self, krate: &str, path: &str, items: &super::items::FileItems) {
        for f in &items.fns {
            let (calls, macros) = f
                .body
                .as_ref()
                .map_or((BTreeSet::new(), BTreeSet::new()), collect_calls);
            let id = self.fns.len();
            self.by_name.entry(f.name.clone()).or_default().push(id);
            self.fns.push(FnEntry {
                krate: krate.to_string(),
                path: path.to_string(),
                item: f.clone(),
                calls,
                macros,
            });
        }
        for s in &items.structs {
            for (field, ty) in &s.fields {
                self.field_types
                    .entry(field.clone())
                    .or_default()
                    .insert(ty.clone());
            }
        }
        for c in &items.consts {
            self.const_types.insert(c.name.clone(), c.ty.clone());
            if !c.init.is_empty() {
                self.const_inits.insert(c.name.clone(), c.init.clone());
            }
        }
    }

    /// Indices of every workspace function with this name.
    #[must_use]
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Like [`Index::resolve`], but keeps only definitions with bodies.
    /// Bodiless trait-method *declarations* are never call targets — the
    /// call dispatches to an impl — and counting them toward a candidate
    /// cap would make a name with one trait declaration plus `cap` impls
    /// silently unresolvable, dropping every impl from the closure.
    #[must_use]
    pub fn resolve_defined(&self, name: &str) -> Vec<usize> {
        self.resolve(name)
            .iter()
            .copied()
            .filter(|&t| self.fns[t].item.body.is_some())
            .collect()
    }

    /// The call-graph closure reachable from the given function indices,
    /// resolving calls by name. A name that maps to more than
    /// `max_candidates` bodied definitions is treated as unresolvable
    /// (common names like `new` would otherwise connect everything to
    /// everything).
    #[must_use]
    pub fn reachable(&self, roots: &[usize], max_candidates: usize) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut frontier: Vec<usize> = roots.to_vec();
        while let Some(id) = frontier.pop() {
            for call in &self.fns[id].calls {
                let targets = self.resolve_defined(call);
                if targets.is_empty() || targets.len() > max_candidates {
                    continue;
                }
                for t in targets {
                    if seen.insert(t) {
                        frontier.push(t);
                    }
                }
            }
        }
        seen
    }

    /// A breadcrumb path of function names from `from` to `to` through the
    /// call graph, if one exists within `max_candidates` resolution.
    #[must_use]
    pub fn call_chain(&self, from: usize, to: usize, max_candidates: usize) -> Option<Vec<String>> {
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier = vec![from];
        let mut seen: BTreeSet<usize> = [from].into();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &id in &frontier {
                for call in &self.fns[id].calls {
                    let targets = self.resolve_defined(call);
                    if targets.is_empty() || targets.len() > max_candidates {
                        continue;
                    }
                    for t in targets {
                        if seen.insert(t) {
                            prev.insert(t, id);
                            next.push(t);
                        }
                    }
                }
            }
            if seen.contains(&to) {
                break;
            }
            frontier = next;
        }
        if !seen.contains(&to) {
            return None;
        }
        let mut chain = vec![self.fns[to].item.name.clone()];
        let mut cur = to;
        while cur != from {
            cur = *prev.get(&cur)?;
            chain.push(self.fns[cur].item.name.clone());
        }
        chain.reverse();
        Some(chain)
    }
}

/// Collects called function names and invoked macro names from a body.
fn collect_calls(body: &Group) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut calls = BTreeSet::new();
    let mut macros = BTreeSet::new();
    walk_calls(&body.trees, &mut calls, &mut macros);
    (calls, macros)
}

fn walk_calls(trees: &[Tree], calls: &mut BTreeSet<String>, macros: &mut BTreeSet<String>) {
    for (k, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            walk_calls(&g.trees, calls, macros);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };
        if tok.kind != Kind::Ident {
            continue;
        }
        match trees.get(k + 1) {
            // `name!(…)` / `name![…]` / `name! {…}` — macro invocation.
            Some(next)
                if next.is_punct("!") && trees.get(k + 2).and_then(Tree::group).is_some() =>
            {
                macros.insert(tok.text.clone());
            }
            // `name(…)` — call (also the tail of `a::b(…)` and `x.m(…)`).
            Some(Tree::Group(g)) if g.delim == '(' => {
                // Exclude definitions (`fn name(…)`) and control keywords.
                let is_def = k > 0 && trees[k - 1].is_ident("fn");
                const KEYWORDS: &[&str] = &[
                    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else",
                    "move", "mut", "ref", "break", "continue",
                ];
                if !is_def && !KEYWORDS.contains(&tok.text.as_str()) {
                    calls.insert(tok.text.clone());
                }
            }
            _ => {}
        }
    }
}

/// Removes `#[cfg(test)]`-gated items from a forest, recursing into every
/// group, so token-level scans never see test code. The attribute tokens
/// themselves are removed along with the gated item.
#[must_use]
pub fn strip_test_items(forest: &[Tree]) -> Vec<Tree> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < forest.len() {
        // A `#` `[cfg(test)…]` attribute: drop it and the item it gates.
        if forest[i].is_punct("#") {
            if let Some(g) = forest.get(i + 1).and_then(Tree::group) {
                let text = super::tree::to_text(&g.trees).replace(' ', "");
                if g.delim == '[' && (text.starts_with("cfg(test)") || text == "test") {
                    i = skip_gated(forest, i + 2);
                    continue;
                }
            }
        }
        match &forest[i] {
            Tree::Group(g) => out.push(Tree::Group(Group {
                delim: g.delim,
                trees: strip_test_items(&g.trees),
                line: g.line,
            })),
            leaf => out.push(leaf.clone()),
        }
        i += 1;
    }
    out
}

/// Skips past one gated item starting at `from`: consumes any further
/// attributes, then everything through the first top-level `{…}` or `;`.
fn skip_gated(forest: &[Tree], from: usize) -> usize {
    let mut k = from;
    while k < forest.len() {
        if forest[k].is_punct("#") && forest.get(k + 1).and_then(Tree::group).is_some() {
            k += 2;
            continue;
        }
        break;
    }
    while k < forest.len() {
        if let Some(g) = forest[k].group() {
            if g.delim == '{' {
                return k + 1;
            }
        }
        if forest[k].is_punct(";") {
            return k + 1;
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::super::items::parse;
    use super::super::lex::lex;
    use super::super::tree::build;
    use super::*;

    fn index_of(srcs: &[(&str, &str)]) -> Index {
        let mut idx = Index::default();
        for (path, src) in srcs {
            let forest = strip_test_items(&build(&lex(src)));
            idx.add_file("demo", path, &parse(&forest));
        }
        idx
    }

    #[test]
    fn calls_and_macros_are_collected() {
        let idx = index_of(&[(
            "a.rs",
            "fn top() { helper(1); x.method(2); path::tail(3); m!(4); if cond() {} }",
        )]);
        let e = &idx.fns[0];
        assert!(e.calls.contains("helper"));
        assert!(e.calls.contains("method"));
        assert!(e.calls.contains("tail"));
        assert!(e.calls.contains("cond"));
        assert!(!e.calls.contains("if"));
        assert!(e.macros.contains("m"));
        assert!(!e.calls.contains("m"));
    }

    #[test]
    fn reachability_walks_the_graph() {
        let idx = index_of(&[(
            "a.rs",
            "fn decode_x() { mid() }\nfn mid() { deep() }\nfn deep() {}\nfn unrelated() {}",
        )]);
        let root = idx.resolve("decode_x")[0];
        let seen = idx.reachable(&[root], 3);
        let names: Vec<&str> = seen
            .iter()
            .map(|&i| idx.fns[i].item.name.as_str())
            .collect();
        assert_eq!(names, vec!["decode_x", "mid", "deep"]);
        let deep = idx.resolve("deep")[0];
        let chain = idx.call_chain(root, deep, 3).expect("chain");
        assert_eq!(chain, vec!["decode_x", "mid", "deep"]);
    }

    #[test]
    fn ambiguous_names_do_not_connect() {
        let idx = index_of(&[(
            "a.rs",
            "fn root() { new() }\nfn new() {}\nimpl A { fn new() {} }\nimpl B { fn new() {} }",
        )]);
        let root = idx.resolve("root")[0];
        // `new` resolves to 3 candidates; with max 2 it is unresolvable.
        assert_eq!(idx.reachable(&[root], 2).len(), 1);
        assert_eq!(idx.reachable(&[root], 3).len(), 4);
    }

    /// A trait's bodiless declaration must not count toward the candidate
    /// cap: one declaration plus `cap` impls would otherwise make the
    /// name unresolvable and silently drop every impl from the closure.
    #[test]
    fn bodiless_trait_declarations_are_not_candidates() {
        let idx = index_of(&[(
            "a.rs",
            "trait Kernel { fn axpy(&self); }\n\
             impl Kernel for A { fn axpy(&self) { deep() } }\n\
             impl Kernel for B { fn axpy(&self) {} }\n\
             impl Kernel for C { fn axpy(&self) {} }\n\
             fn deep() {}\n\
             fn decode_root() { axpy() }\n",
        )]);
        assert_eq!(idx.resolve("axpy").len(), 4);
        assert_eq!(idx.resolve_defined("axpy").len(), 3);
        let root = idx.resolve("decode_root")[0];
        let seen = idx.reachable(&[root], 3);
        // Root + the three bodied impls + `deep` through the first impl.
        assert_eq!(seen.len(), 5, "closure missed trait impls");
        let deep = idx.resolve("deep")[0];
        let chain = idx.call_chain(root, deep, 3).expect("chain through impl");
        assert_eq!(chain, vec!["decode_root", "axpy", "deep"]);
    }

    #[test]
    fn strip_removes_test_items_from_token_view() {
        let forest = strip_test_items(&build(&lex(
            "fn live() { a == 1.0; }\n#[cfg(test)]\nmod tests { fn t() { b == 2.0; } }",
        )));
        let text = super::super::tree::to_text(&forest);
        assert!(text.contains("1.0"));
        assert!(!text.contains("2.0"));
        assert!(!text.contains("cfg"));
    }

    #[test]
    fn field_and_const_types_are_indexed() {
        let idx = index_of(&[(
            "a.rs",
            "struct Mv { dx: i8 }\nconst MAX: u32 = 9;\nfn f() {}",
        )]);
        assert!(idx.field_types["dx"].contains("i8"));
        assert_eq!(idx.const_types["MAX"], "u32");
    }
}
