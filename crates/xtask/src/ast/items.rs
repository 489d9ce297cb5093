//! Item-level parsing: functions, impl blocks, structs, consts, modules.
//!
//! Walks a token-tree forest and extracts the items the analysis passes
//! care about, with enough signature detail for cross-file reasoning:
//! parameter names and types, return types, attributes, and struct field
//! types. `#[cfg(test)]`-gated items (and everything nested inside them)
//! are dropped at this level, so no pass ever sees test code.

use super::tree::{to_text, Group, Tree};

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Whether the item carries a `pub` qualifier (`pub`, `pub(crate)`,
    /// `pub(super)` all count — the dataflow passes treat any of them as
    /// externally reachable).
    pub is_pub: bool,
    /// Enclosing `impl`/`trait` type name, if any (generics stripped).
    pub self_ty: Option<String>,
    /// `(name, type)` pairs; receiver params (`self`, `&mut self`) and
    /// destructuring patterns record an empty name.
    pub params: Vec<(String, String)>,
    /// Compact return-type text (`Result<Vec<i32>,CodecError>`), if any.
    pub ret: Option<String>,
    /// Body group; `None` for bodiless trait-method declarations.
    pub body: Option<Group>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
}

/// A named-field struct definition.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// `(field, type)` pairs.
    pub fields: Vec<(String, String)>,
}

/// A `const`/`static` item with an explicit type.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// Compact type text.
    pub ty: String,
    /// Initializer trees (between `=` and `;`); empty when absent. The
    /// interval domain folds these to values (`const TOP: u32 = 1 << 24`).
    pub init: Vec<Tree>,
}

/// Everything item parsing extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub consts: Vec<ConstItem>,
}

/// Parses a token-tree forest into items, dropping `#[cfg(test)]` subtrees.
#[must_use]
pub fn parse(forest: &[Tree]) -> FileItems {
    let mut out = FileItems::default();
    parse_into(forest, None, &mut out);
    out
}

fn parse_into(forest: &[Tree], self_ty: Option<&str>, out: &mut FileItems) {
    let mut i = 0usize;
    let mut attrs: Vec<String> = Vec::new();
    while i < forest.len() {
        let t = &forest[i];
        // Attribute: `#` `[ ... ]` (outer) or `#` `!` `[ ... ]` (inner).
        if t.is_punct("#") {
            let mut j = i + 1;
            if forest.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if let Some(g) = forest.get(j).and_then(Tree::group) {
                if g.delim == '[' {
                    attrs.push(to_text(&g.trees));
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        let Some(tok) = t.leaf() else {
            i += 1;
            attrs.clear();
            continue;
        };
        match tok.text.as_str() {
            _ if is_test_gated(&attrs) => {
                // Skip the whole gated item: advance past its body group or
                // terminating semicolon.
                i = skip_item(forest, i);
                attrs.clear();
            }
            "fn" => {
                let (f, next) = parse_fn(forest, i, self_ty);
                attrs.clear();
                if let Some(f) = f {
                    out.fns.push(f);
                }
                i = next;
            }
            "impl" => {
                let (ty, body, next) = parse_impl_header(forest, i);
                if let Some(body) = body {
                    parse_into(&body.trees, ty.as_deref(), out);
                }
                i = next;
                attrs.clear();
            }
            "trait" => {
                let name = ident_after(forest, i);
                let (body, next) = find_body(forest, i + 1);
                if let Some(body) = body {
                    parse_into(&body.trees, name.as_deref(), out);
                }
                i = next;
                attrs.clear();
            }
            "mod" => {
                let (body, next) = find_body(forest, i + 1);
                if let Some(body) = body {
                    parse_into(&body.trees, self_ty, out);
                }
                i = next;
                attrs.clear();
            }
            "struct" => {
                let name = ident_after(forest, i).unwrap_or_default();
                let (body, next) = find_body(forest, i + 1);
                if let Some(body) = body {
                    out.structs.push(StructItem {
                        name,
                        fields: parse_fields(&body.trees),
                    });
                }
                i = next;
                attrs.clear();
            }
            "const" | "static" => {
                // `const NAME: Type = …;` — but `const fn` is a function.
                if forest.get(i + 1).is_some_and(|t| t.is_ident("fn")) {
                    i += 1; // let the `fn` arm handle it, keeping attrs
                    continue;
                }
                if let (Some(name), true) = (
                    ident_after(forest, i),
                    forest.get(i + 2).is_some_and(|t| t.is_punct(":")),
                ) {
                    let ty_end = (i + 3..forest.len())
                        .find(|&k| forest[k].is_punct("=") || forest[k].is_punct(";"))
                        .unwrap_or(forest.len());
                    let ty: Vec<Tree> = forest[i + 3..ty_end].to_vec();
                    let init = if forest.get(ty_end).is_some_and(|t| t.is_punct("=")) {
                        let init_end = (ty_end + 1..forest.len())
                            .find(|&k| forest[k].is_punct(";"))
                            .unwrap_or(forest.len());
                        forest[ty_end + 1..init_end].to_vec()
                    } else {
                        Vec::new()
                    };
                    out.consts.push(ConstItem {
                        name,
                        ty: to_text(&ty),
                        init,
                    });
                }
                i = skip_item(forest, i);
                attrs.clear();
            }
            _ => {
                // Qualifiers before `fn`/`struct` keep their attributes.
                if !matches!(
                    tok.text.as_str(),
                    "pub" | "async" | "unsafe" | "extern" | "default"
                ) {
                    attrs.clear();
                }
                i += 1;
            }
        }
    }
}

fn is_test_gated(attrs: &[String]) -> bool {
    attrs
        .iter()
        .any(|a| a.replace(' ', "").starts_with("cfg(test)") || a == "test")
}

/// Advances past one item starting at `i`: to just after its first `{…}`
/// body group or `;`, whichever comes first.
fn skip_item(forest: &[Tree], i: usize) -> usize {
    let mut k = i;
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

fn ident_after(forest: &[Tree], i: usize) -> Option<String> {
    forest
        .get(i + 1)
        .and_then(Tree::leaf)
        .map(|t| t.text.clone())
}

/// Finds the next `{…}` group at angle-depth 0, returning it and the index
/// one past it. Stops at `;` (bodiless item).
fn find_body(forest: &[Tree], from: usize) -> (Option<Group>, usize) {
    let mut angle = 0i32;
    let mut k = from;
    while k < forest.len() {
        match &forest[k] {
            Tree::Leaf(t) if t.is_punct("<") => angle += 1,
            Tree::Leaf(t) if t.is_punct("<<") => angle += 2,
            Tree::Leaf(t) if t.is_punct(">") => angle -= 1,
            Tree::Leaf(t) if t.is_punct(">>") => angle -= 2,
            Tree::Leaf(t) if t.is_punct(";") && angle <= 0 => return (None, k + 1),
            Tree::Group(g) if g.delim == '{' && angle <= 0 => return (Some(g.clone()), k + 1),
            _ => {}
        }
        k += 1;
    }
    (None, k)
}

/// Parses an `impl` header at `i` (`impl<G> Type {…}` or
/// `impl<G> Trait for Type {…}`), returning the self-type name, the body,
/// and the index past the item.
fn parse_impl_header(forest: &[Tree], i: usize) -> (Option<String>, Option<Group>, usize) {
    let (body, next) = find_body(forest, i + 1);
    // Self type: trees after a top-level `for` if present, else after the
    // impl generics; we only need the head identifier.
    let header = &forest[i + 1..next.saturating_sub(1).max(i + 1)];
    let mut angle = 0i32;
    let mut after_for: Option<usize> = None;
    for (k, t) in header.iter().enumerate() {
        match t {
            Tree::Leaf(tok) if tok.is_punct("<") => angle += 1,
            Tree::Leaf(tok) if tok.is_punct("<<") => angle += 2,
            Tree::Leaf(tok) if tok.is_punct(">") => angle -= 1,
            Tree::Leaf(tok) if tok.is_punct(">>") => angle -= 2,
            Tree::Leaf(tok) if tok.is_ident("for") && angle <= 0 => after_for = Some(k + 1),
            _ => {}
        }
    }
    let ty_trees = match after_for {
        Some(k) => &header[k..],
        None => {
            // Skip leading generics `<…>`.
            let mut k = 0usize;
            if header.first().is_some_and(|t| t.is_punct("<")) {
                let mut depth = 0i32;
                while k < header.len() {
                    if let Some(tok) = header[k].leaf() {
                        match tok.text.as_str() {
                            "<" => depth += 1,
                            "<<" => depth += 2,
                            ">" => depth -= 1,
                            ">>" => depth -= 2,
                            _ => {}
                        }
                    }
                    k += 1;
                    if depth <= 0 {
                        break;
                    }
                }
            }
            &header[k..]
        }
    };
    let name = ty_trees
        .iter()
        .find_map(Tree::leaf)
        .filter(|t| t.kind == super::lex::Kind::Ident)
        .map(|t| t.text.clone());
    (name, body, next)
}

/// Parses one `fn` item whose `fn` keyword is at `i`.
fn parse_fn(forest: &[Tree], i: usize, self_ty: Option<&str>) -> (Option<FnItem>, usize) {
    let Some(name_tok) = forest.get(i + 1).and_then(Tree::leaf) else {
        return (None, i + 1);
    };
    let name = name_tok.text.clone();
    let line = forest[i].leaf().map_or(0, |t| t.line);

    // Visibility: walk back over qualifiers (`const`, `async`, `unsafe`,
    // `extern "C"`, `default`, and the `(crate)`/`(super)` group of a
    // restricted `pub`) looking for a `pub` keyword.
    let is_pub = {
        let mut j = i;
        let mut found = false;
        while j > 0 {
            let prev = &forest[j - 1];
            if prev.is_ident("pub") {
                found = true;
                break;
            }
            let qualifier = prev.leaf().is_some_and(|t| {
                matches!(
                    t.text.as_str(),
                    "const" | "async" | "unsafe" | "extern" | "default"
                ) || t.kind == super::lex::Kind::Str
            }) || matches!(prev, Tree::Group(g) if g.delim == '(');
            if !qualifier {
                break;
            }
            j -= 1;
        }
        found
    };

    // Params: first `(…)` group at angle-depth 0 (generic bounds like
    // `T: Fn(u8)` hide parens at depth > 0).
    let mut angle = 0i32;
    let mut k = i + 2;
    let mut params_group: Option<&Group> = None;
    while k < forest.len() {
        match &forest[k] {
            Tree::Leaf(t) if t.is_punct("<") => angle += 1,
            Tree::Leaf(t) if t.is_punct("<<") => angle += 2,
            Tree::Leaf(t) if t.is_punct(">") => angle -= 1,
            Tree::Leaf(t) if t.is_punct(">>") => angle -= 2,
            Tree::Group(g) if g.delim == '(' && angle <= 0 => {
                params_group = Some(g);
                break;
            }
            Tree::Group(g) if g.delim == '{' && angle <= 0 => {
                // Malformed — body before params; bail on this item.
                return (None, k + 1);
            }
            _ => {}
        }
        k += 1;
    }
    let Some(params_group) = params_group else {
        return (None, forest.len());
    };
    let params = parse_params(&params_group.trees);

    // Return type: after `->`, up to `{`/`;`/`where` at angle-depth 0.
    let mut ret = None;
    let mut body = None;
    let mut angle = 0i32;
    let mut ret_start: Option<usize> = None;
    let mut j = k + 1;
    while j < forest.len() {
        match &forest[j] {
            Tree::Leaf(t) if t.is_punct("<") => angle += 1,
            Tree::Leaf(t) if t.is_punct("<<") => angle += 2,
            Tree::Leaf(t) if t.is_punct(">") => angle -= 1,
            Tree::Leaf(t) if t.is_punct(">>") => angle -= 2,
            Tree::Leaf(t) if t.is_punct("->") && angle <= 0 => ret_start = Some(j + 1),
            Tree::Leaf(t) if (t.is_ident("where") || t.is_punct(";")) && angle <= 0 => {
                if let Some(s) = ret_start {
                    ret = Some(to_text(&forest[s..j]));
                    ret_start = None;
                }
                if forest[j].is_punct(";") {
                    j += 1;
                    break;
                }
            }
            Tree::Group(g) if g.delim == '{' && angle <= 0 => {
                if let Some(s) = ret_start {
                    ret = Some(to_text(&forest[s..j]));
                }
                body = Some(g.clone());
                j += 1;
                break;
            }
            _ => {}
        }
        j += 1;
    }

    (
        Some(FnItem {
            name,
            is_pub,
            self_ty: self_ty.map(str::to_string),
            params,
            ret,
            body,
            line,
        }),
        j,
    )
}

/// Splits a params group by top-level commas into `(name, type)` pairs.
fn parse_params(trees: &[Tree]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut angle = 0i32;
    let mut k = 0usize;
    while k <= trees.len() {
        let at_comma =
            k < trees.len() && trees[k].leaf().is_some_and(|t| t.is_punct(",")) && angle <= 0;
        if k == trees.len() || at_comma {
            let part = &trees[start..k];
            if !part.is_empty() {
                out.push(split_param(part));
            }
            start = k + 1;
        } else if let Some(t) = trees[k].leaf() {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        }
        k += 1;
    }
    out
}

/// Splits one parameter into `(name, type)`. Receivers and destructuring
/// patterns yield an empty name; missing ascriptions yield an empty type.
fn split_param(part: &[Tree]) -> (String, String) {
    let colon = part.iter().position(|t| t.is_punct(":"));
    let Some(colon) = colon else {
        return (String::new(), String::new()); // `self` / `&mut self`
    };
    let pat = &part[..colon];
    let ty = to_text(&part[colon + 1..]);
    // Simple binding: optional `mut` then a single identifier.
    let mut idents: Vec<&str> = Vec::new();
    for t in pat {
        match t.leaf() {
            Some(tok) if tok.kind == super::lex::Kind::Ident => idents.push(&tok.text),
            Some(_) | None => return (String::new(), ty),
        }
    }
    match idents.as_slice() {
        [name] => ((*name).to_string(), ty),
        ["mut", name] => ((*name).to_string(), ty),
        _ => (String::new(), ty),
    }
}

fn parse_fields(trees: &[Tree]) -> Vec<(String, String)> {
    // Named fields are `vis? name : Type ,` at top level of the brace group.
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut angle = 0i32;
    let mut k = 0usize;
    while k <= trees.len() {
        let at_comma =
            k < trees.len() && trees[k].leaf().is_some_and(|t| t.is_punct(",")) && angle <= 0;
        if k == trees.len() || at_comma {
            let part = &trees[start..k];
            if let Some(colon) = part.iter().position(|t| t.is_punct(":")) {
                // Field name = last ident before the colon (skips `pub` and
                // `pub(crate)` visibility).
                let name = part[..colon]
                    .iter()
                    .rev()
                    .find_map(Tree::leaf)
                    .filter(|t| t.kind == super::lex::Kind::Ident)
                    .map(|t| t.text.clone());
                if let Some(name) = name {
                    out.push((name, to_text(&part[colon + 1..])));
                }
            }
            start = k + 1;
        } else if let Some(t) = trees[k].leaf() {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::lex::lex;
    use super::super::tree::build;
    use super::*;

    fn items(src: &str) -> FileItems {
        parse(&build(&lex(src)))
    }

    #[test]
    fn free_fn_with_signature() {
        let it = items("pub fn decode_x(data: &[u8], n: usize) -> Result<Vec<i32>, E> { body() }");
        assert_eq!(it.fns.len(), 1);
        let f = &it.fns[0];
        assert_eq!(f.name, "decode_x");
        assert_eq!(f.params[0], ("data".to_string(), "&[u8]".to_string()));
        assert_eq!(f.params[1], ("n".to_string(), "usize".to_string()));
        assert_eq!(f.ret.as_deref(), Some("Result<Vec<i32>,E>"));
        assert!(f.body.is_some());
        assert!(f.self_ty.is_none());
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let it = items(
            "impl<'a> CabacDecoder<'a> { fn bit(&mut self) -> bool { true } }\n\
             impl BinSink for BitCounter { fn bypass(&mut self, b: bool) {} }",
        );
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].self_ty.as_deref(), Some("CabacDecoder"));
        assert_eq!(it.fns[0].ret.as_deref(), Some("bool"));
        assert_eq!(it.fns[1].self_ty.as_deref(), Some("BitCounter"));
        assert_eq!(it.fns[1].params[1], ("b".to_string(), "bool".to_string()));
    }

    #[test]
    fn cfg_test_items_are_dropped() {
        let it = items(
            "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() {} #[test] fn t() {} }\nfn tail() {}",
        );
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "tail"]);
    }

    #[test]
    fn visibility_is_captured() {
        let it = items(
            "pub fn a() {}\n\
             pub(crate) fn b() {}\n\
             pub(super) const fn c() {}\n\
             fn d() {}\n\
             pub unsafe extern \"C\" fn e() {}\n",
        );
        let vis: Vec<(&str, bool)> = it.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            vis,
            vec![
                ("a", true),
                ("b", true),
                ("c", true),
                ("d", false),
                ("e", true)
            ]
        );
    }

    #[test]
    fn struct_fields_and_consts() {
        let it = items(
            "pub struct Motion { pub dx: i8, pub dy: i8 }\n\
             struct Wrapper(u32);\n\
             pub const QP_MAX: f64 = 51.0;\n\
             static NAME: &str = \"x\";",
        );
        assert_eq!(it.structs.len(), 1);
        assert_eq!(
            it.structs[0].fields,
            vec![
                ("dx".to_string(), "i8".to_string()),
                ("dy".to_string(), "i8".to_string())
            ]
        );
        assert_eq!(it.consts.len(), 2);
        assert_eq!(it.consts[0].name, "QP_MAX");
        assert_eq!(it.consts[0].ty, "f64");
    }

    #[test]
    fn generic_bounds_do_not_eat_params() {
        let it = items("fn apply<F: Fn(u8) -> u8>(f: F, x: u8) -> u8 { f(x) }");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].params.len(), 2);
        assert_eq!(it.fns[0].ret.as_deref(), Some("u8"));
    }

    #[test]
    fn trait_decls_include_bodiless_methods() {
        let it = items(
            "pub trait BinSink { fn bit(&mut self, b: bool); fn bypass(&mut self, b: bool) { self.bit(b) } }",
        );
        assert_eq!(it.fns.len(), 2);
        assert!(it.fns[0].body.is_none());
        assert!(it.fns[1].body.is_some());
        assert_eq!(it.fns[0].self_ty.as_deref(), Some("BinSink"));
    }

    #[test]
    fn where_clauses_and_tuple_patterns() {
        let it = items("fn g<T>(x: T, (a, b): (usize, usize)) -> usize where T: Copy { a + b }");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].ret.as_deref(), Some("usize"));
        assert_eq!(it.fns[0].params[1].0, "");
        assert_eq!(it.fns[0].params[1].1, "(usize,usize)");
    }
}
