//! Error-discipline pass: dropped `Result`s.
//!
//! The panic-reach pass checks what a decode path can crash on; this pass
//! checks what it does with its errors: `let _ = f(…)` where every
//! definition of `f` in the workspace returns `Result` is a finding. A
//! codec that throws away an `Err(Truncated)` keeps parsing garbage; bind
//! and propagate it. rustc's `unused_must_use` (denied in
//! `[workspace.lints.rust]`) already rejects a `Result` or `#[must_use]`
//! value dropped in statement position, but `let _ =` silences it.
//!
//! Justified sites carry `// lint:allow(error): <reason>`.

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::Tree;
use crate::dataflow::MAX_CANDIDATES;
use crate::report::Violation;
use crate::source::{SourceFile, Workspace};

/// Runs the check over the workspace.
pub fn check_workspace(ws: &Workspace, index: &Index) -> Vec<Violation> {
    let mut out = Vec::new();
    for krate in &ws.crates {
        // The gate does not lint itself for dropped values: report
        // rendering deliberately ignores `fmt::Write` results.
        if krate.name == "xtask" {
            continue;
        }
        for file in &krate.files {
            scan_block(&file.trees, file, index, &mut out);
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

/// Scans every block for `let _ = …;` discards.
fn scan_block(trees: &[Tree], file: &SourceFile, index: &Index, out: &mut Vec<Violation>) {
    for (k, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            scan_block(&g.trees, file, index, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };

        // `let _ = <expr> ;` — find the last call name in the discarded
        // expression.
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
