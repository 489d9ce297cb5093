//! Concurrency-interference pass: pool-task closures must not mutate
//! shared state, hold locks, or branch on relaxed atomics.
//!
//! The [`core::pool`] ordered-collection idiom keeps parallel encode /
//! decode bit-exact: workers claim indices from an atomic counter, keep
//! results private, and the join places them by task index. Everything
//! that pattern forbids is what this pass hunts in the audited crates:
//!
//! 1. **Shared-mutable captures** — a variable captured by a closure
//!    passed to `run_ordered`/`try_run_ordered`/`spawn` and written
//!    inside it (assignment, compound assignment, or a mutating method
//!    like `push`) without index-disjoint addressing. `slots[i] = …`
//!    where `i` is a closure parameter is exempt: disjoint slots per
//!    task are the sanctioned output idiom.
//! 2. **Locks inside pool tasks** — `.lock()`/`.try_lock()` in a
//!    pool-task closure serializes the pool at best and deadlocks under
//!    worker panic at worst; hoist the lock or return values.
//! 3. **Relaxed loads feeding control flow** — an `if`/`while` condition
//!    containing `.load(Ordering::Relaxed)`: a relaxed load is unordered
//!    with the writes it observes, so the branch can act on stale state.
//!    `fetch_add(…, Relaxed)` is exempt by design — read-modify-writes
//!    on a single atomic have a total modification order, which is
//!    exactly why the pool's claim counter is sound.
//!
//! Justified exceptions carry `// lint:allow(interfere): <reason>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::Tree;
use crate::dataflow::{find_block, pattern_names, stmt_end};
use crate::report::Violation;
use crate::source::Workspace;

/// Functions whose closure argument runs on a pool worker.
const SPAWNERS: &[&str] = &["run_ordered", "try_run_ordered", "spawn"];

/// Methods that mutate their receiver.
const MUTATORS: &[&str] = &[
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "remove",
    "clear",
    "truncate",
    "resize",
    "fill",
    "sort",
    "sort_by",
];

/// Runs the pass over every function in the audited crates.
pub fn check_workspace(ws: &Workspace, index: &Index, crates: &[&str]) -> Vec<Violation> {
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for entry in &index.fns {
        if !crates.contains(&entry.krate.as_str()) {
            continue;
        }
        let Some(body) = &entry.item.body else {
            continue;
        };
        let mut sites = Vec::new();
        scan_spawns(&body.trees, &mut sites);
        relaxed_control_flow(&body.trees, &mut sites);
        for (line, what, detail) in sites {
            if files
                .get(entry.path.as_str())
                .is_some_and(|sf| sf.is_allowed(line, "interfere"))
            {
                continue;
            }
            if !seen.insert((entry.path.clone(), line, detail.clone())) {
                continue;
            }
            out.push(
                Violation::new("interference", &entry.path, line + 1, what)
                    .with_chain(vec![entry.item.name.clone(), detail]),
            );
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

type Site = (usize, String, String);

/// Finds `run_ordered(…)`/`spawn(…)` calls and audits their closure
/// argument (checks 1 and 2).
fn scan_spawns(trees: &[Tree], out: &mut Vec<Site>) {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => scan_spawns(&g.trees, out),
            Tree::Leaf(tok) if tok.kind == Kind::Ident && SPAWNERS.contains(&tok.text.as_str()) => {
                let Some(args) = trees.get(k + 1).and_then(Tree::group) else {
                    continue;
                };
                if args.delim != '(' {
                    continue;
                }
                if let Some((params, body)) = closure_arg(&args.trees) {
                    audit_closure(tok.line, &tok.text, &params, body, out);
                }
            }
            Tree::Leaf(_) => {}
        }
    }
}

/// The first closure in a call argument list: its parameter names and
/// body trees (from after the closing `|` to the next top-level comma).
fn closure_arg(trees: &[Tree]) -> Option<(Vec<String>, &[Tree])> {
    for (k, t) in trees.iter().enumerate() {
        // `||` lexes as one token for a no-parameter closure.
        if t.is_punct("||") {
            let end = trees[k + 1..]
                .iter()
                .position(|t| t.is_punct(","))
                .map_or(trees.len(), |p| k + 1 + p);
            return Some((Vec::new(), &trees[k + 1..end]));
        }
        if t.is_punct("|") {
            let close = (k + 1..trees.len()).find(|&j| trees[j].is_punct("|"))?;
            let params = pattern_names(&trees[k + 1..close]);
            let end = trees[close + 1..]
                .iter()
                .position(|t| t.is_punct(","))
                .map_or(trees.len(), |p| close + 1 + p);
            return Some((params, &trees[close + 1..end]));
        }
    }
    None
}

/// Checks 1 and 2 over one pool-task closure body.
fn audit_closure(
    line: usize,
    spawner: &str,
    params: &[String],
    body: &[Tree],
    out: &mut Vec<Site>,
) {
    let mut locals: BTreeSet<String> = params.iter().cloned().collect();
    collect_locals(body, &mut locals);
    scan_writes(body, params, &locals, line, spawner, out);
    scan_locks(body, line, spawner, out);
}

/// Every `let`-bound name (and nested-closure parameter) in the body —
/// writes to these are worker-private, not interference.
fn collect_locals(trees: &[Tree], out: &mut BTreeSet<String>) {
    let mut k = 0;
    while k < trees.len() {
        if trees[k].is_ident("let") {
            let end = stmt_end(trees, k + 1);
            let eq = (k + 1..end)
                .find(|&j| trees[j].is_punct("="))
                .unwrap_or(end);
            out.extend(pattern_names(&trees[k + 1..eq]));
        }
        if trees[k].is_punct("|") {
            if let Some(close) = (k + 1..trees.len()).find(|&j| trees[j].is_punct("|")) {
                out.extend(pattern_names(&trees[k + 1..close]));
                k = close + 1;
                continue;
            }
        }
        if let Tree::Group(g) = &trees[k] {
            collect_locals(&g.trees, out);
        }
        k += 1;
    }
}

/// Check 1: writes to captured variables.
fn scan_writes(
    trees: &[Tree],
    params: &[String],
    locals: &BTreeSet<String>,
    line: usize,
    spawner: &str,
    out: &mut Vec<Site>,
) {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => scan_writes(&g.trees, params, locals, line, spawner, out),
            Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                let root = chain_root(trees, k);
                let captured = !locals.contains(root) && root != "self";
                if !captured {
                    continue;
                }
                // Direct or compound assignment: `v = …`, `v.field += …`.
                if trees.get(k + 1).and_then(Tree::leaf).is_some_and(is_assign) {
                    report_write(out, line, spawner, root);
                }
                // Indexed store `v[idx] = …`: exempt when the index
                // mentions a closure parameter (disjoint per task).
                if let Some(idx) = trees.get(k + 1).and_then(Tree::group) {
                    if idx.delim == '['
                        && trees.get(k + 2).and_then(Tree::leaf).is_some_and(is_assign)
                        && !mentions_any(&idx.trees, params)
                    {
                        report_write(out, line, spawner, root);
                    }
                }
                // Mutating method call `v.push(…)`.
                if trees.get(k + 1).is_some_and(|t| t.is_punct("."))
                    && trees
                        .get(k + 2)
                        .and_then(Tree::leaf)
                        .is_some_and(|m| MUTATORS.contains(&m.text.as_str()))
                    && trees
                        .get(k + 3)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == '(')
                    && chain_root(trees, k) == tok.text
                {
                    report_write(out, line, spawner, &tok.text);
                }
            }
            Tree::Leaf(_) => {}
        }
    }
}

fn report_write(out: &mut Vec<Site>, line: usize, spawner: &str, var: &str) {
    out.push((
        line,
        format!(
            "shared mutable capture `{var}` is written inside a `{spawner}(…)` task closure \
             without index-disjoint addressing; keep per-task results private and place them \
             by task index after the join, or address disjoint slots with the task index",
        ),
        format!("closure captures and writes `{var}`"),
    ));
}

/// Walks `a . b . c` chains left from position `k` to the root ident.
fn chain_root(trees: &[Tree], k: usize) -> &str {
    let mut k = k;
    while k >= 2
        && trees[k - 1].is_punct(".")
        && trees[k - 2].leaf().is_some_and(|l| l.kind == Kind::Ident)
    {
        k -= 2;
    }
    trees[k].leaf().map_or("", |l| l.text.as_str())
}

fn is_assign(tok: &crate::ast::lex::Token) -> bool {
    [
        "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=",
    ]
    .iter()
    .any(|p| tok.is_punct(p))
}

fn mentions_any(trees: &[Tree], names: &[String]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => names.iter().any(|n| tok.is_ident(n)),
        Tree::Group(g) => mentions_any(&g.trees, names),
    })
}

/// Check 2: lock acquisition inside a pool-task closure.
fn scan_locks(trees: &[Tree], line: usize, spawner: &str, out: &mut Vec<Site>) {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => scan_locks(&g.trees, line, spawner, out),
            Tree::Leaf(tok)
                if (tok.is_ident("lock") || tok.is_ident("try_lock"))
                    && k >= 1
                    && trees[k - 1].is_punct(".")
                    && trees
                        .get(k + 1)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == '(') =>
            {
                out.push((
                    line,
                    format!(
                        "`.{}()` inside a `{spawner}(…)` task closure; lock contention \
                         serializes the pool and a worker panic while holding it poisons \
                         every other task — hoist the lock outside the spawn or return \
                         values and merge after the join",
                        tok.text,
                    ),
                    format!("closure acquires `.{}()`", tok.text),
                ));
            }
            Tree::Leaf(_) => {}
        }
    }
}

/// Check 3: `if`/`while` conditions branching on a relaxed atomic load.
fn relaxed_control_flow(trees: &[Tree], out: &mut Vec<Site>) {
    let mut k = 0;
    while k < trees.len() {
        match &trees[k] {
            Tree::Leaf(tok) if tok.is_ident("if") || tok.is_ident("while") => {
                if let Some(b) = find_block(trees, k + 1) {
                    let cond = &trees[k + 1..b];
                    if let Some(line) = relaxed_load(cond) {
                        out.push((
                            line,
                            "`Ordering::Relaxed` load feeds control flow; a relaxed load is \
                             unordered with the writes it observes, so the branch can act on \
                             stale state — use `Ordering::Acquire`, or keep relaxed atomics to \
                             counters whose value never gates a branch"
                                .to_string(),
                            "relaxed load in a branch condition".to_string(),
                        ));
                    }
                }
            }
            Tree::Group(g) => relaxed_control_flow(&g.trees, out),
            Tree::Leaf(_) => {}
        }
        k += 1;
    }
}

/// Line of a `.load(…)` call whose arguments mention `Relaxed`, if any.
fn relaxed_load(trees: &[Tree]) -> Option<usize> {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => {
                if let Some(line) = relaxed_load(&g.trees) {
                    return Some(line);
                }
            }
            Tree::Leaf(tok) if tok.is_ident("load") => {
                if k >= 1
                    && trees[k - 1].is_punct(".")
                    && trees.get(k + 1).and_then(Tree::group).is_some_and(|g| {
                        g.delim == '(' && g.trees.iter().any(|t| t.is_ident("Relaxed"))
                    })
                {
                    return Some(tok.line);
                }
            }
            Tree::Leaf(_) => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Violation> {
        let w = Workspace::of(&[("llm265-core", &[("crates/core/src/lib.rs", src)])]);
        let index = w.build_index();
        check_workspace(&w, &index, &["llm265-core"])
    }

    #[test]
    fn captured_write_in_spawned_closure_fires() {
        let v = check(
            "pub fn tally(n: usize) -> usize {\n    let mut total = 0usize;\n    std::thread::scope(|s| {\n        s.spawn(|| {\n            total += 1;\n        });\n    });\n    total + n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`total`"), "{}", v[0].message);
    }

    #[test]
    fn index_disjoint_store_is_exempt() {
        let v = check(
            "pub fn fanout(n: usize) -> usize {\n    let mut slots = vec![0usize; n];\n    let done = run_ordered(n, 2, |i| {\n        slots[i] = 1;\n        i\n    });\n    slots.len()\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_param_index_store_fires() {
        let v = check(
            "pub fn skewed(n: usize) -> usize {\n    let mut slots = vec![0usize; n];\n    let done = run_ordered(n, 2, |i| {\n        slots[0] = i;\n        i\n    });\n    slots.len()\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn closure_local_mutation_is_private() {
        let v = check(
            "pub fn private(n: usize) -> usize {\n    let done = run_ordered(n, 2, |i| {\n        let mut mine = Vec::new();\n        mine.push(i);\n        mine.len()\n    });\n    n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mutator_method_on_capture_fires() {
        let v = check(
            "pub fn collect_all(n: usize) -> usize {\n    let mut all = Vec::new();\n    let done = run_ordered(n, 2, |i| {\n        all.push(i);\n        i\n    });\n    all.len()\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`all`"), "{}", v[0].message);
    }

    #[test]
    fn lock_in_pool_task_fires() {
        let v = check(
            "pub fn locked(n: usize, state: &Mutex<usize>) -> usize {\n    let done = run_ordered(n, 2, |i| {\n        let mut g = state.lock().unwrap();\n        i\n    });\n    n\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains(".lock()"), "{}", v[0].message);
    }

    #[test]
    fn relaxed_load_in_condition_fires_and_fetch_add_is_exempt() {
        let v = check(
            "pub fn claim(next: &AtomicUsize, n: usize) -> usize {\n    let mut done = 0;\n    if next.load(Ordering::Relaxed) > n {\n        done = 1;\n    }\n    let i = next.fetch_add(1, Ordering::Relaxed);\n    done + i\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Relaxed"), "{}", v[0].message);
    }

    #[test]
    fn allow_marker_suppresses() {
        let v = check(
            "pub fn tally(n: usize) -> usize {\n    let mut total = 0usize;\n    // lint:allow(interfere): single worker by construction\n    let done = spawn(|| {\n        total += 1;\n    });\n    total + n\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_crate_is_quiet() {
        let w = Workspace::of(&[(
            "llm265-bench",
            &[(
                "crates/bench/src/lib.rs",
                "pub fn tally(n: usize) -> usize {\n    let mut total = 0usize;\n    let done = spawn(|| {\n        total += 1;\n    });\n    total + n\n}\n",
            )],
        )]);
        let index = w.build_index();
        let v = check_workspace(&w, &index, &["llm265-core"]);
        assert!(v.is_empty(), "{v:?}");
    }
}
