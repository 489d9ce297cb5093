//! Error-discipline pass: dropped `Result`s and discarded `#[must_use]`
//! values.
//!
//! The panic-reach pass checks what a decode path can crash on; this pass
//! checks what it does with its errors. Two checks, both driven by the
//! workspace index:
//!
//! 1. **Dropped results** — `let _ = f(…)` where every definition of `f`
//!    in the workspace returns `Result`. A codec that throws away an
//!    `Err(Truncated)` keeps parsing garbage; bind and propagate it.
//! 2. **Ignored statement calls** — `f(…);` in statement position where
//!    every definition of `f` returns `Result` or is `#[must_use]`.
//!    rustc only warns here (and only for `#[must_use]`); the gate fails.
//!
//! Justified sites carry `// lint:allow(error): <reason>`.

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::Tree;
use crate::dataflow::MAX_CANDIDATES;
use crate::report::Violation;
use crate::source::{SourceFile, Workspace};

/// Runs both checks over the workspace.
pub fn check_workspace(ws: &Workspace, index: &Index) -> Vec<Violation> {
    let mut out = Vec::new();
    for krate in &ws.crates {
        // The gate does not lint itself for dropped values: report
        // rendering deliberately ignores `fmt::Write` results.
        if krate.name == "xtask" {
            continue;
        }
        for file in &krate.files {
            check_dropped(file, index, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Whether every workspace definition of `name` returns `Result` — the
/// resolution must be unambiguous (1..=MAX candidates, all agreeing).
fn all_return_result(index: &Index, name: &str) -> bool {
    let targets = index.resolve(name);
    if targets.is_empty() || targets.len() > MAX_CANDIDATES {
        return false;
    }
    targets.iter().all(|&t| {
        index.fns[t]
            .item
            .ret
            .as_deref()
            .is_some_and(|r| r.contains("Result"))
    })
}

/// Whether every workspace definition of `name` is `#[must_use]`.
fn all_must_use(index: &Index, name: &str) -> bool {
    let targets = index.resolve(name);
    if targets.is_empty() || targets.len() > MAX_CANDIDATES {
        return false;
    }
    targets.iter().all(|&t| {
        index.fns[t]
            .item
            .attrs
            .iter()
            .any(|a| a.contains("must_use"))
    })
}

/// Checks 1 and 2: scans every block for `let _ = …;` discards and
/// statement-position calls whose value vanishes.
fn check_dropped(file: &SourceFile, index: &Index, out: &mut Vec<Violation>) {
    scan_block(&file.trees, file, index, out);
}

fn scan_block(trees: &[Tree], file: &SourceFile, index: &Index, out: &mut Vec<Violation>) {
    for (k, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            scan_block(&g.trees, file, index, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };

        // Check 1: `let _ = <expr> ;` — find the last call name in the
        // discarded expression.
        if tok.kind == Kind::Ident
            && tok.text == "let"
            && trees.get(k + 1).is_some_and(|t| t.is_ident("_"))
            && trees.get(k + 2).is_some_and(|t| t.is_punct("="))
        {
            let stmt_end = trees[k + 3..]
                .iter()
                .position(|t| t.is_punct(";"))
                .map_or(trees.len(), |p| k + 3 + p);
            if let Some((name, line)) = last_call_in(&trees[k + 3..stmt_end]) {
                if all_return_result(index, &name) && !file.is_allowed(line, "error") {
                    out.push(Violation::new(
                        "error-discipline",
                        &file.path,
                        line + 1,
                        format!(
                            "`let _ = {name}(…)` drops a Result: propagate with `?`, handle the Err, or justify with lint:allow(error)"
                        ),
                    ));
                }
            }
            continue;
        }

        // Check 2: statement-position `…name(…) ;` with the value unused.
        if tok.kind == Kind::Ident
            && trees
                .get(k + 1)
                .and_then(Tree::group)
                .is_some_and(|g| g.delim == '(')
            && trees.get(k + 2).is_some_and(|t| t.is_punct(";"))
            && at_statement_start(trees, k)
        {
            let name = tok.text.clone();
            let is_result = all_return_result(index, &name);
            let is_must_use = !is_result && all_must_use(index, &name);
            if (is_result || is_must_use) && !file.is_allowed(tok.line, "error") {
                let what = if is_result {
                    "returns Result"
                } else {
                    "is #[must_use]"
                };
                out.push(Violation::new(
                    "error-discipline",
                    &file.path,
                    tok.line + 1,
                    format!(
                        "call `{name}(…);` discards a value that {what}: use it, propagate with `?`, or justify with lint:allow(error)"
                    ),
                ));
            }
        }
    }
}

/// The last `name(` call in a statement's trees, with its 0-based line.
fn last_call_in(trees: &[Tree]) -> Option<(String, usize)> {
    let mut found = None;
    for (k, t) in trees.iter().enumerate() {
        let Some(tok) = t.leaf() else { continue };
        if tok.kind == Kind::Ident
            && trees
                .get(k + 1)
                .and_then(Tree::group)
                .is_some_and(|g| g.delim == '(')
        {
            found = Some((tok.text.clone(), tok.line));
        }
    }
    found
}

/// Whether the call chain ending at `trees[k]` starts a statement: walking
/// left over `.`/`::` links, idents, and groups must reach the block start
/// or a `;`/`{…}`-statement boundary. `let x = f();` and `return f();`
/// fail this (the `=`/`return` uses the value).
fn at_statement_start(trees: &[Tree], k: usize) -> bool {
    let mut i = k;
    while i > 0 {
        let prev = &trees[i - 1];
        let links = prev.is_punct(".")
            || prev.is_punct("::")
            || prev.leaf().is_some_and(|t| {
                t.kind == Kind::Ident && !matches!(t.text.as_str(), "return" | "let" | "in")
            })
            || matches!(prev, Tree::Group(g) if g.delim != '{');
        if !links {
            break;
        }
        i -= 1;
    }
    if i == 0 {
        return true;
    }
    let before = &trees[i - 1];
    before.is_punct(";") || matches!(before, Tree::Group(g) if g.delim == '{')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(crates: &[(&str, &[(&str, &str)])]) -> (Workspace, Index) {
        let ws = Workspace::of(crates);
        let index = ws.build_index();
        (ws, index)
    }

    #[test]
    fn dropped_result_is_flagged() {
        let (ws, idx) = ws(&[(
            "demo",
            &[(
                "a.rs",
                "fn fallible() -> Result<u8, ()> { Ok(0) }\n\
                 fn caller() {\n    let _ = fallible();\n}\n\
                 fn fine() -> Result<u8, ()> { let v = fallible()?; Ok(v) }\n",
            )],
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("fallible"));
    }

    #[test]
    fn statement_call_discarding_result_or_must_use_is_flagged() {
        let (ws, idx) = ws(&[(
            "demo",
            &[(
                "a.rs",
                "fn fallible() -> Result<u8, ()> { Ok(0) }\n\
                 #[must_use]\nfn important() -> u8 { 1 }\n\
                 fn plain() {}\n\
                 fn caller() {\n    fallible();\n    important();\n    plain();\n}\n",
            )],
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("returns Result"));
        assert!(v[1].message.contains("must_use"));
    }

    #[test]
    fn used_values_and_allowed_sites_are_quiet() {
        let (ws, idx) = ws(&[(
            "demo",
            &[(
                "a.rs",
                "fn fallible() -> Result<u8, ()> { Ok(0) }\n\
                 fn caller() -> Result<u8, ()> {\n\
                     let x = fallible()?;\n\
                     // lint:allow(error): best-effort flush\n\
                     let _ = fallible();\n\
                     if fallible().is_ok() { return fallible(); }\n\
                     Ok(x)\n\
                 }\n",
            )],
        )]);
        let v = check_workspace(&ws, &idx);
        assert!(v.is_empty(), "{v:?}");
    }
}
