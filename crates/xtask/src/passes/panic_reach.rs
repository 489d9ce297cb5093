//! Panic-reach pass: every panicking construct a codec path can reach,
//! with a witness chain.
//!
//! Codec decode paths consume untrusted bytes; a panic there is a
//! denial-of-service bug, so the audited crates must return `CodecError`
//! instead. One scanner (`panic_sites`) recognizes the panicking
//! constructs in the token trees — `.unwrap()`/`.expect(…)`, the
//! `panic!`-family macros, and indexing of input-named buffers (where a
//! hostile length field turns `data[i]` into a crash) — and the pass
//! applies it to the call-graph closure of every decode-shaped function
//! (`decode*`/`parse*`/`decompress*`/`read*`) in the root crates, the
//! roots included. Reached code in an audited crate reports the indexing
//! family: clippy's `unwrap_used`/`expect_used`/`panic`-family lints,
//! raised at those crates' roots, already deny the rest there. Reached
//! code in an *unaudited* crate reports everything. Findings carry the
//! full root → site call chain.
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
use crate::vocab::{decode_roots, INPUT_NAMES};

/// Macros that abort the process.
pub const DENIED_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Which functions seed the reachability walk.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RootPolicy {
    /// Gate mode: the decode roots ([`crate::vocab::is_decode_root`]).
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

/// Gate mode: decode-shaped roots in `root_crates`; reached code in
/// `audited` crates reports only the indexing family.
pub fn check_workspace(
    ws: &Workspace,
    index: &Index,
    root_crates: &[&str],
    audited: &[&str],
) -> Vec<Violation> {
    check_workspace_with_policy(ws, index, root_crates, audited, RootPolicy::DecodeApis)
}

/// [`check_workspace`] with an explicit root-selection policy.
pub fn check_workspace_with_policy(
    ws: &Workspace,
    index: &Index,
    root_crates: &[&str],
    audited: &[&str],
    policy: RootPolicy,
) -> Vec<Violation> {
    let roots: Vec<usize> = match policy {
        RootPolicy::DecodeApis => decode_roots(index, root_crates),
        RootPolicy::AllPublicApis => (0..index.fns.len())
            .filter(|&id| {
                let e = &index.fns[id];
                root_crates.contains(&e.krate.as_str())
                    && (e.item.is_pub || e.item.self_ty.is_some())
            })
            .collect(),
    };
    let closure = index.reachable(&roots, MAX_CANDIDATES);
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let root_kind = match policy {
        RootPolicy::DecodeApis => "decode path",
        RootPolicy::AllPublicApis => "public API",
    };

    let mut out = Vec::new();
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    for &id in &closure {
        let entry = &index.fns[id];
        let Some(body) = entry.item.body.as_ref() else {
            continue;
        };
        let is_audited = audited.contains(&entry.krate.as_str());
        let mut sites = Vec::new();
        panic_sites(&body.trees, &mut sites);
        for (line, what, family) in sites {
            if (is_audited && family == Family::Denied)
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
            out.push(
                Violation::new("panic-reach", &entry.path, line + 1, message).with_chain(chain),
            );
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
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
        CrateSrc::from_parts(name, vec![SourceFile::from_contents(path, src)])
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

    /// Roots in an unaudited crate, where every family is reported.
    fn check_unaudited(src: &str) -> Vec<Violation> {
        let w = Workspace {
            crates: vec![krate("llm265-model", "crates/model/src/lib.rs", src)],
        };
        let index = w.build_index();
        check_workspace(&w, &index, &["llm265-model"], AUDITED)
    }

    #[test]
    fn flags_each_denied_token_in_unaudited_code() {
        let src = "fn decode_f(x: Option<u8>) {\n    x.unwrap();\n    x.expect(\"boom\");\n    panic!(\"no\");\n    unreachable!();\n    todo!();\n    unimplemented!();\n}\n";
        let v = check_unaudited(src);
        assert_eq!(v.len(), 6, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("unwrap"), "{}", v[0].message);
        assert!(v[2].message.contains("panic!"), "{}", v[2].message);
        assert_eq!(v[0].chain, vec!["decode_f"]);
    }

    #[test]
    fn denied_tokens_in_audited_crates_are_left_to_clippy() {
        let src = "fn decode_f(x: Option<u8>) -> u8 {\n    x.unwrap() + helper(x)\n}\nfn helper(x: Option<u8>) -> u8 { x.expect(\"boom\") }\n";
        assert!(check(src).is_empty());
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
        let src = "fn unwrap(x: u8) -> u8 { x }\nfn decode_f(x: Option<u8>) -> u8 { x.unwrap_or(0) + core_panic!(x) }\n";
        assert!(check_unaudited(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_preceding_line() {
        let src = "fn decode_f(x: Option<u8>) {\n    x.unwrap(); // lint:allow(panic): infallible here\n    // lint:allow(panic): also fine\n    x.unwrap();\n    x.unwrap();\n}\n";
        let v = check_unaudited(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn tokens_in_tests_comments_and_strings_are_ignored() {
        let src = "// this unwrap() is prose\nfn decode_f() -> usize { let s = \"panic!\"; s.len() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn decode_t() { None::<u8>.unwrap(); }\n}\n";
        assert!(check_unaudited(src).is_empty());
    }

    #[test]
    fn indexing_fires_in_decode_roots_not_in_unreached_code() {
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
        // The audited helper's unwrap is clippy's `unwrap_used` finding,
        // not sweep debt.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("public API `step`"),
            "{}",
            v[0].message
        );
    }
}
