//! Panic-reach pass: every panicking construct a codec path can hit,
//! local or transitive, with a witness chain.
//!
//! Codec decode paths consume untrusted bytes; a panic there is a
//! denial-of-service bug, so the audited crates must return `CodecError`
//! instead. One scanner (`panic_sites`) recognizes the panicking
//! constructs in the token trees — `.unwrap()`/`.expect(…)`, the
//! `panic!`-family macros, and indexing of input-named buffers (where a
//! hostile length field turns `data[i]` into a crash) — and the pass
//! applies it at two depths:
//!
//! * **depth 0** — every function body in the audited crates: the
//!   unwrap/expect/macro family anywhere, indexing only inside
//!   decode-shaped functions (`decode*`/`parse*`/`decompress*`/`read*`).
//!   These findings carry the one-hop chain `[fn]`. Code outside function
//!   bodies (const/static initializers, `macro_rules!` bodies) is scanned
//!   for the unwrap/expect/macro family too, with the chain `[item]`.
//! * **reached** — the call-graph closure from every decode-shaped
//!   function in the root crates. Reached code in an audited crate adds
//!   the indexing family; reached code in an *unaudited* crate reports
//!   everything, since no local scan covers it. These findings carry the
//!   full root → site call chain.
//!
//! `assert!` is deliberately *not* denied: programmer-error contracts on
//! internal invariants are fine. Justified exceptions carry a
//! `// lint:allow(panic): <reason>` marker at the site.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::Tree;
use crate::dataflow::MAX_CANDIDATES;
use crate::report::Violation;
use crate::source::Workspace;

/// Macros that abort the process.
pub const DENIED_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Buffer names that conventionally hold untrusted input.
pub const INPUT_NAMES: &[&str] = &["data", "bytes", "input", "payload", "buf", "src", "stream"];

/// Function-name prefixes that mark untrusted-input parsing code.
pub const DECODE_PREFIXES: &[&str] = &["decode", "parse", "decompress", "read"];

/// Whether a function name marks untrusted-input parsing code.
#[must_use]
pub fn is_decode_name(name: &str) -> bool {
    DECODE_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Which functions seed the reachability walk.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RootPolicy {
    /// Gate mode: decode-shaped functions.
    DecodeApis,
    /// Sweep mode: every public function and method — the model/bench
    /// crates expose no decode-shaped APIs, so the debt inventory walks
    /// from everything callers can reach.
    AllPublicApis,
}

/// The two families of panicking constructs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    /// `.unwrap()`, `.expect(…)` and the `panic!`-family macros.
    Denied,
    /// Indexing of an input-named buffer.
    Indexing,
}

/// Gate mode: decode-shaped roots in `root_crates`; the bodies of
/// `audited` crates are scanned at depth 0.
pub fn check_workspace(
    ws: &Workspace,
    index: &Index,
    root_crates: &[&str],
    audited: &[&str],
) -> Vec<Violation> {
    check_workspace_with_policy(ws, index, root_crates, audited, RootPolicy::DecodeApis)
}

/// [`check_workspace`] with an explicit root-selection policy. Depth-0
/// scanning covers the audited crates that are also root crates, so a
/// sweep rooted in unaudited crates reports only what they reach.
pub fn check_workspace_with_policy(
    ws: &Workspace,
    index: &Index,
    root_crates: &[&str],
    audited: &[&str],
    policy: RootPolicy,
) -> Vec<Violation> {
    let roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            root_crates.contains(&e.krate.as_str())
                && match policy {
                    RootPolicy::DecodeApis => is_decode_name(&e.item.name),
                    RootPolicy::AllPublicApis => e.item.is_pub || e.item.self_ty.is_some(),
                }
        })
        .map(|(id, _)| id)
        .collect();
    let closure = index.reachable(&roots, MAX_CANDIDATES);
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let root_kind = match policy {
        RootPolicy::DecodeApis => "decode path",
        RootPolicy::AllPublicApis => "public API",
    };

    let mut out = Vec::new();
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (id, entry) in index.fns.iter().enumerate() {
        let is_audited = audited.contains(&entry.krate.as_str());
        let local = is_audited && root_crates.contains(&entry.krate.as_str());
        let reached = closure.contains(&id);
        let Some(body) = entry.item.body.as_ref().filter(|_| local || reached) else {
            continue;
        };
        let decode = is_decode_name(&entry.item.name);
        let mut sites = Vec::new();
        panic_sites(&body.trees, &mut sites);
        for (line, what, family) in sites {
            let at_depth_0 = local && (family == Family::Denied || decode);
            let by_reach = reached && (family == Family::Indexing || !is_audited);
            if !(at_depth_0 || by_reach)
                || files
                    .get(entry.path.as_str())
                    .is_some_and(|sf| sf.is_allowed(line, "panic"))
                || !seen.insert((entry.path.as_str(), line))
            {
                continue;
            }
            let hint = match family {
                Family::Denied => "return a CodecError instead",
                Family::Indexing => "use `.get(..)` and return Truncated/Corrupt",
            };
            let (chain, message) = if at_depth_0 {
                (
                    vec![entry.item.name.clone()],
                    format!("{what} in `{}`: {hint}", entry.item.name),
                )
            } else {
                let chain = roots
                    .iter()
                    .find_map(|&r| index.call_chain(r, id, MAX_CANDIDATES))
                    .unwrap_or_else(|| vec![entry.item.name.clone()]);
                let message = format!(
                    "{what} in `{}` is reachable from {root_kind} `{}` (call chain: {}); {hint}",
                    entry.item.name,
                    chain.first().map_or("?", String::as_str),
                    chain.join(" → "),
                );
                (chain, message)
            };
            out.push(
                Violation::new("panic-reach", &entry.path, line + 1, message).with_chain(chain),
            );
        }
    }
    // Depth 0 also covers code outside function bodies — const/static
    // initializers and `macro_rules!` bodies — named by the enclosing item.
    for krate in &ws.crates {
        let name = krate.name.as_str();
        if !(audited.contains(&name) && root_crates.contains(&name)) {
            continue;
        }
        for file in &krate.files {
            let mut sites = Vec::new();
            panic_sites(&file.trees, &mut sites);
            let items = item_headers(&file.trees);
            for (line, what, family) in sites {
                if family != Family::Denied
                    || file.is_allowed(line, "panic")
                    || !seen.insert((file.path.as_str(), line))
                {
                    continue;
                }
                let item = items
                    .iter()
                    .rev()
                    .find(|(l, _)| *l <= line)
                    .map_or_else(|| file.path.clone(), |(_, n)| n.clone());
                out.push(
                    Violation::new(
                        "panic-reach",
                        &file.path,
                        line + 1,
                        format!("{what} in `{item}`: return a CodecError instead"),
                    )
                    .with_chain(vec![item]),
                );
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// `(0-based line, name)` of every `fn`, `const`, `static` and
/// `macro_rules!` header in a file, in source order.
fn item_headers(trees: &[Tree]) -> Vec<(usize, String)> {
    fn go(trees: &[Tree], out: &mut Vec<(usize, String)>) {
        for (k, t) in trees.iter().enumerate() {
            if let Tree::Group(g) = t {
                go(&g.trees, out);
                continue;
            }
            let Some(tok) = t.leaf() else { continue };
            if !matches!(tok.text.as_str(), "fn" | "const" | "static" | "macro_rules") {
                continue;
            }
            let name = trees[k + 1..]
                .iter()
                .map_while(Tree::leaf)
                .find(|t| t.kind == Kind::Ident && !matches!(t.text.as_str(), "mut" | "fn"));
            if let Some(n) = name {
                out.push((tok.line, n.text.clone()));
            }
        }
    }
    let mut out = Vec::new();
    go(trees, &mut out);
    out
}

/// Panicking constructs in one body: `(0-based line, description, family)`.
fn panic_sites(trees: &[Tree], out: &mut Vec<(usize, String, Family)>) {
    for (k, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            panic_sites(&g.trees, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };
        if tok.kind != Kind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let next_group = trees.get(k + 1).and_then(Tree::group);
        let after_dot = k > 0 && trees[k - 1].is_punct(".");
        if DENIED_MACROS.contains(&name)
            && trees.get(k + 1).is_some_and(|t| t.is_punct("!"))
            && trees.get(k + 2).and_then(Tree::group).is_some()
        {
            out.push((tok.line, format!("`{name}!`"), Family::Denied));
        } else if matches!(name, "unwrap" | "expect")
            && after_dot
            && next_group.is_some_and(|g| g.delim == '(')
        {
            out.push((tok.line, format!("`.{name}()`"), Family::Denied));
        } else if INPUT_NAMES.contains(&name) && !after_dot {
            // Field accesses (`self.data[..]`) are the owner's storage,
            // not the untrusted argument; the `!after_dot` check excuses them.
            let Some(idx) = next_group.filter(|g| g.delim == '[') else {
                continue;
            };
            let arithmetic = idx
                .trees
                .iter()
                .any(|t| t.is_punct("+") || t.is_punct("-") || t.is_punct("*"));
            let what = if arithmetic {
                format!("unchecked arithmetic in index of `{name}[..]`")
            } else {
                format!("unguarded indexing of `{name}[..]`")
            };
            out.push((tok.line, what, Family::Indexing));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CrateSrc, SourceFile};

    const AUDITED: &[&str] = &["llm265-bitstream"];

    fn krate(name: &str, path: &str, src: &str) -> CrateSrc {
        let manifest = format!("[package]\nname = \"{name}\"\n\n[lints]\nworkspace = true\n");
        CrateSrc::from_parts(name, &manifest, vec![SourceFile::from_contents(path, src)])
    }

    fn check_crates(crates: Vec<CrateSrc>) -> Vec<Violation> {
        let w = Workspace { crates };
        let index = w.build_index();
        check_workspace(&w, &index, AUDITED, AUDITED)
    }

    fn check(src: &str) -> Vec<Violation> {
        check_crates(vec![krate(
            "llm265-bitstream",
            "crates/bitstream/src/lib.rs",
            src,
        )])
    }

    #[test]
    fn flags_each_denied_token_at_depth_0() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n    x.expect(\"boom\");\n    panic!(\"no\");\n    unreachable!();\n    todo!();\n    unimplemented!();\n}\n";
        let v = check(src);
        assert_eq!(v.len(), 6, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("unwrap"), "{}", v[0].message);
        assert!(v[2].message.contains("panic!"), "{}", v[2].message);
        assert_eq!(v[0].chain, vec!["f"]);
    }

    #[test]
    fn denied_tokens_outside_function_bodies_are_flagged() {
        let src = "static T: LazyLock<u8> = LazyLock::new(|| build().unwrap());\n\
                   const fn build() -> Option<u8> { Some(1) }\n\
                   macro_rules! must {\n    ($e:expr) => { $e.expect(\"must\") };\n}\n\
                   // lint:allow(panic): the table is a literal\n\
                   static U: LazyLock<u8> = LazyLock::new(|| build().unwrap());\n";
        let v = check(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("unwrap"), "{}", v[0].message);
        assert_eq!(v[0].chain, vec!["T"]);
        assert_eq!(v[1].line, 4);
        assert_eq!(v[1].chain, vec!["must"]);
    }

    #[test]
    fn quiet_on_clean_code_and_non_denied_tokens() {
        let src = "fn decode(data: &[u8]) -> Option<u8> {\n    assert!(!data.is_empty());\n    let v = data.get(0).copied().unwrap_or(0);\n    debug_assert!(v < 10);\n    data.get(1).copied()\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn unwrap_as_plain_ident_or_longer_name_is_quiet() {
        // `unwrap_or` is a different method; a fn named `unwrap` defined
        // here is a definition, not a call; `core_panic!` is not `panic!`.
        let src = "fn unwrap(x: u8) -> u8 { x }\nfn f(x: Option<u8>) -> u8 { x.unwrap_or(0) + core_panic!(x) }\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_preceding_line() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // lint:allow(panic): infallible here\n    // lint:allow(panic): also fine\n    x.unwrap();\n    x.unwrap();\n}\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn tokens_in_tests_comments_and_strings_are_ignored() {
        let src = "// this unwrap() is prose\nfn f() -> usize { let s = \"panic!\"; s.len() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn depth_0_indexing_only_in_decode_functions() {
        let src = "fn decode_header(data: &[u8]) -> u8 {\n    data[0]\n}\nfn shuffle(data: &mut [u8]) {\n    data[0] = 1;\n}\n";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("decode_header"), "{}", v[0].message);
        assert_eq!(v[0].chain, vec!["decode_header"]);
    }

    #[test]
    fn non_input_names_and_field_storage_do_not_fire() {
        let src = "fn parse_block(data: &[u8]) -> u8 {\n    let table = [0u8; 4];\n    let out = [0u8; 4];\n    table[0] + out[1] + self.data[0] + data.get(0).copied().unwrap_or(0)\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn cross_function_indexing_reports_the_chain() {
        let v = check(
            "pub fn decode_entry(data: &[u8]) -> u8 { entry_at(data, 1) }\n\
             fn entry_at(data: &[u8], i: usize) -> u8 { data[i + 1] }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("entry_at"), "{}", v[0].message);
        assert!(v[0].message.contains("decode_entry"), "{}", v[0].message);
        assert!(v[0].message.contains("arithmetic"), "{}", v[0].message);
        assert_eq!(v[0].chain, vec!["decode_entry", "entry_at"]);
    }

    #[test]
    fn private_decode_functions_are_roots_too() {
        let v = check(
            "fn parse_inner(data: &[u8]) -> u8 { at(data) }\n\
             fn at(data: &[u8]) -> u8 { data[0] }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].chain, vec!["parse_inner", "at"]);
    }

    #[test]
    fn checked_helper_and_non_reachable_code_stay_quiet() {
        let v = check(
            "pub fn decode_entry(data: &[u8]) -> u8 { entry_at(data, 1) }\n\
             fn entry_at(data: &[u8], i: usize) -> u8 { data.get(i + 1).copied().unwrap_or(0) }\n\
             fn orphan(data: &[u8]) -> u8 { data[0] }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unaudited_callees_report_every_family_with_the_chain() {
        let v = check_crates(vec![
            krate(
                "llm265-bitstream",
                "crates/bitstream/src/lib.rs",
                "pub fn decode_block(x: u8) -> u8 { helper_math(x) }\n",
            ),
            krate(
                "llm265-model",
                "crates/model/src/lib.rs",
                "pub fn helper_math(x: u8) -> u8 { inner(x) }\n\
                 fn inner(x: u8) -> u8 { checked(x).unwrap() }\n\
                 fn checked(x: u8) -> Option<u8> { x.checked_add(1) }\n\
                 pub fn off_path() -> u8 { None::<u8>.unwrap() }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].path.contains("model"));
        assert!(v[0].message.contains("unwrap"), "{}", v[0].message);
        assert_eq!(v[0].chain, vec!["decode_block", "helper_math", "inner"]);
    }

    #[test]
    fn allowed_panic_site_in_unaudited_callee_is_quiet() {
        let v = check_crates(vec![
            krate(
                "llm265-bitstream",
                "crates/bitstream/src/lib.rs",
                "pub fn parse_x(x: u8) -> u8 { helper_math(x) }\n",
            ),
            krate(
                "llm265-model",
                "crates/model/src/lib.rs",
                "pub fn helper_math(x: u8) -> u8 {\n\
                     // lint:allow(panic): x < 16 by construction\n\
                     TABLE.get(x as usize).copied().unwrap()\n\
                 }\nconst TABLE: [u8; 16] = [0; 16];\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sweep_policy_scans_unaudited_root_bodies_only() {
        let w = Workspace {
            crates: vec![
                krate(
                    "llm265-bitstream",
                    "crates/bitstream/src/lib.rs",
                    "pub fn helper(v: Option<u8>) -> u8 { v.unwrap() }\n",
                ),
                krate(
                    "llm265-model",
                    "crates/model/src/lib.rs",
                    "pub fn step(v: Option<u8>) -> u8 { v.expect(\"x\") + helper(v) }\n",
                ),
            ],
        };
        let index = w.build_index();
        let v = check_workspace_with_policy(
            &w,
            &index,
            &["llm265-model"],
            AUDITED,
            RootPolicy::AllPublicApis,
        );
        // The audited helper's unwrap is the gate's depth-0 finding, not
        // sweep debt.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("public API `step`"),
            "{}",
            v[0].message
        );
    }
}
