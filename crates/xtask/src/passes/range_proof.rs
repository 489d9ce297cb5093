//! Range-proof pass: interval-domain arithmetic and cast checks over the
//! bit-exact hot-path crates plus `llm265-quant` (`CAST_SAFETY_CRATES`).
//!
//! Built on [`crate::dataflow::interval`], the pass evaluates every
//! function body in those crates, closures and macro arguments included,
//! under the interval abstract domain (per-variable `[lo, hi]` over
//! `i128`, widening at loop heads, narrowing on guard edges) and reports:
//!
//! * `+ - *` operations whose result interval escapes the operation's
//!   integer type (a silent two's-complement wrap in release builds);
//! * `<< >>` shifts whose amount interval is not provably below the
//!   shifted type's bit width (overflow UB-adjacent, panics in debug);
//! * integer `as` casts whose operand interval is not provably within
//!   the target type (`bool` and float operands are exempt: they never
//!   wrap). A cast in code the evaluator does not model (a nested `fn`
//!   item, an unreachable statement) is flagged as unproven, so no cast
//!   in a body goes unchecked;
//! * fixed-array indexing whose index interval provably escapes the
//!   array length;
//! * call edges whose argument interval escapes a contract declared in
//!   `crates/xtask/ranges.toml`.
//!
//! Entry ranges are seeded from parameter types and the checked
//! `ranges.toml` contract table, and call results flow through
//! param→return interval transfer functions, so the DCT/quant/CABAC hot
//! paths are *proven* in range rather than flagged wholesale. Findings
//! carry an interval-annotated witness chain (`--explain` renders the
//! interval at each hop). Suppress a site with
//! `// lint:allow(range): <reason>`.

use std::collections::BTreeSet;
use std::path::Path;

use crate::ast::index::Index;
use crate::ast::int_width;
use crate::dataflow::interval::{check_fn, Contract, RangeCtx};
use crate::report::Violation;
use crate::source::Workspace;

/// Runs the pass over every function defined in `crates`.
///
/// One finding per function (the first flagged site by line): a single
/// unproven value typically taints several downstream expressions, and
/// the fix is at the first escape.
pub fn check_workspace(
    ws: &Workspace,
    index: &Index,
    crates: &[&str],
    contracts: &[Contract],
) -> Vec<Violation> {
    let ctx = RangeCtx::new(index, contracts);
    let files: std::collections::BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let mut out = Vec::new();
    for (id, entry) in index.fns.iter().enumerate() {
        if !crates.contains(&entry.krate.as_str()) {
            continue;
        }
        let mut sites = check_fn(&ctx, id);
        sites.sort_by_key(|s| s.line);
        let Some(site) = sites.into_iter().find(|s| {
            !files
                .get(entry.path.as_str())
                .is_some_and(|sf| sf.is_allowed(s.line, "range"))
        }) else {
            continue;
        };
        let mut chain = vec![format!("fn {}", entry.item.name)];
        chain.extend(site.chain);
        out.push(
            Violation::new(
                "range-proof",
                &entry.path,
                site.line + 1,
                format!(
                    "{}; widen the intermediate type, guard the operand, or declare \
                     the entry range in crates/xtask/ranges.toml",
                    site.msg
                ),
            )
            .with_chain(chain),
        );
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Loads `crates/xtask/ranges.toml` from the workspace root. A missing
/// file is an empty table; a malformed one is an error.
///
/// # Errors
///
/// Returns a message naming the offending line on parse failure.
pub fn load_contracts(root: &Path) -> Result<Vec<Contract>, String> {
    let path = root.join("crates").join("xtask").join("ranges.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => parse_contracts(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Vec::new()),
    }
}

/// Parses the strict `[[range]]` table format (see `ranges.toml`).
///
/// # Errors
///
/// Returns a message naming the offending line: unknown keys, missing
/// fields, duplicate fields and non-literal values are all rejected so
/// a typo cannot silently drop a contract.
pub fn parse_contracts(text: &str) -> Result<Vec<Contract>, String> {
    /// One `[[range]]` entry mid-parse: `fn`, `param`, `min`, `max`.
    type Partial = (Option<String>, Option<String>, Option<i128>, Option<i128>);
    let mut out: Vec<Contract> = Vec::new();
    let mut cur: Option<Partial> = None;
    let mut finish = |cur: &mut Option<Partial>| -> Result<(), String> {
        if let Some((f, p, lo, hi)) = cur.take() {
            let (Some(func), Some(param), Some(lo), Some(hi)) = (f, p, lo, hi) else {
                return Err("incomplete [[range]] entry: needs fn, param, min, max".into());
            };
            if lo > hi {
                return Err(format!("contract {func}.{param}: min {lo} > max {hi}"));
            }
            out.push(Contract {
                func,
                param,
                lo,
                hi,
            });
        }
        Ok(())
    };
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[range]]" {
            finish(&mut cur).map_err(|e| format!("line {}: {e}", n + 1))?;
            cur = Some((None, None, None, None));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {}: expected `key = value`, got `{line}`",
                n + 1
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        let Some(entry) = cur.as_mut() else {
            return Err(format!("line {}: `{key}` outside a [[range]] entry", n + 1));
        };
        let dup = |name: &str| format!("line {}: duplicate `{name}`", n + 1);
        match key {
            "fn" | "param" => {
                let v = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {}: `{key}` must be a quoted string", n + 1))?;
                let slot = if key == "fn" {
                    &mut entry.0
                } else {
                    &mut entry.1
                };
                if slot.replace(v.to_string()).is_some() {
                    return Err(dup(key));
                }
            }
            "min" | "max" => {
                let v: i128 = value
                    .parse()
                    .map_err(|_| format!("line {}: `{key}` must be an integer", n + 1))?;
                let slot = if key == "min" {
                    &mut entry.2
                } else {
                    &mut entry.3
                };
                if slot.replace(v).is_some() {
                    return Err(dup(key));
                }
            }
            other => return Err(format!("line {}: unknown key `{other}`", n + 1)),
        }
    }
    finish(&mut cur).map_err(|e| format!("at end of file: {e}"))?;
    Ok(out)
}

/// Checks every contract against the workspace index: the function must
/// exist and expose an integer-typed parameter of that name.
///
/// # Errors
///
/// Returns a message naming the first stale contract.
pub fn validate_contracts(index: &Index, contracts: &[Contract]) -> Result<(), String> {
    let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
    for c in contracts {
        if !seen.insert((c.func.as_str(), c.param.as_str())) {
            return Err(format!(
                "ranges.toml: duplicate contract for {}.{}",
                c.func, c.param
            ));
        }
        let ids = index.resolve_defined(&c.func);
        if ids.is_empty() {
            return Err(format!(
                "ranges.toml: contract names unknown function `{}`",
                c.func
            ));
        }
        let ok = ids.iter().any(|&id| {
            index.fns[id].item.params.iter().any(|(n, t)| {
                n == &c.param && int_width(crate::dataflow::interval::strip_refs(t)).is_some()
            })
        });
        if !ok {
            return Err(format!(
                "ranges.toml: `{}` has no integer parameter `{}`",
                c.func, c.param
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_files(files: &[(&str, &str)]) -> Workspace {
        Workspace::of(&[("llm265-bitstream", files)])
    }

    fn ws_of(src: &str) -> Workspace {
        ws_files(&[("crates/bitstream/src/lib.rs", src)])
    }

    fn run_files(files: &[(&str, &str)], contracts: &[Contract]) -> Vec<Violation> {
        let ws = ws_files(files);
        let index = ws.build_index();
        check_workspace(&ws, &index, &["llm265-bitstream"], contracts)
    }

    fn run(src: &str, contracts: &[Contract]) -> Vec<Violation> {
        run_files(&[("crates/bitstream/src/lib.rs", src)], contracts)
    }

    /// The functions with a finding (one finding per function).
    fn flagged(src: &str) -> Vec<String> {
        run(src, &[])
            .iter()
            .map(|v| v.chain[0].trim_start_matches("fn ").to_string())
            .collect()
    }

    #[test]
    fn one_finding_per_function_first_site_wins() {
        let v = run(
            "pub fn two(a: u8, b: u8) -> u16 {\n    let x = u16::from(a) * 300;\n    let y = u16::from(b) * 400;\n    x + y\n}\n",
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].pass, "range-proof");
        assert!(v[0].chain[0].contains("fn two"), "{:?}", v[0].chain);
    }

    #[test]
    fn under_guarded_shift_is_a_finding_and_allow_suppresses() {
        let src = "pub fn f(v: u32, n: u32) -> u32 {\n    v << (n & 63)\n}\n";
        let v = run(src, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("not provably < 32"),
            "{}",
            v[0].message
        );
        let allowed = src.replace(
            "v << (n & 63)",
            "// lint:allow(range): demo\n    v << (n & 63)",
        );
        assert!(run(&allowed, &[]).is_empty());
    }

    #[test]
    fn widened_then_truncated_index_is_a_finding() {
        let v = run(
            "pub fn lut(i: u8) -> u8 {\n    let t: [u8; 16] = [0; 16];\n    let wide = u32::from(i) + 16;\n    t[(wide & 31) as usize]\n}\n",
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("length 16"), "{}", v[0].message);
    }

    #[test]
    fn contract_table_round_trips_and_validates() {
        let text = "# c\n[[range]]\nfn = \"f\"\nparam = \"k\"\nmin = 0\nmax = 8\n";
        let cs = parse_contracts(text).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!((cs[0].lo, cs[0].hi), (0, 8));
        let ws = ws_of("pub fn f(v: u32, k: u32) -> u32 { v >> k }\n");
        let index = ws.build_index();
        assert!(validate_contracts(&index, &cs).is_ok());
        // Unknown param: stale contracts are hard errors.
        let bad =
            parse_contracts("[[range]]\nfn = \"f\"\nparam = \"zz\"\nmin = 0\nmax = 8\n").unwrap();
        assert!(validate_contracts(&index, &bad).is_err());
        let missing =
            parse_contracts("[[range]]\nfn = \"g\"\nparam = \"k\"\nmin = 0\nmax = 8\n").unwrap();
        assert!(validate_contracts(&index, &missing).is_err());
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(parse_contracts("[[range]]\nfn = \"f\"\n").is_err());
        assert!(
            parse_contracts("[[range]]\nfn = \"f\"\nparam = \"k\"\nmin = 9\nmax = 1\n").is_err()
        );
        assert!(parse_contracts("fn = \"f\"\n").is_err());
        assert!(parse_contracts("[[range]]\nbogus = 1\n").is_err());
        assert!(parse_contracts("[[range]]\nfn = unquoted\n").is_err());
        assert!(parse_contracts("[[range]]\nfn = \"f\"\nfn = \"g\"\n").is_err());
    }

    #[test]
    fn contract_seeds_prove_the_body() {
        let src = "pub fn code_rem(r: u32, k: u32) -> u32 {\n    r >> k\n}\n";
        assert_eq!(run(src, &[]).len(), 1);
        let c = [Contract {
            func: "code_rem".into(),
            param: "k".into(),
            lo: 0,
            hi: 8,
        }];
        assert!(run(src, &c).is_empty());
    }

    #[test]
    fn unprovable_narrowing_cast_is_flagged() {
        let v = run("pub fn f(x: u32) -> u8 {\n    x as u8\n}\n", &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`x as u8`"), "{}", v[0].message);
        assert!(
            v[0].message.contains("not provably within u8"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn sign_changing_casts_are_flagged() {
        let src = "fn a(x: i32) -> usize { x as usize }\n\
                   fn b(x: i32) -> u32 { x as u32 }\n\
                   fn c(y: u32) -> i32 { y as i32 }\n";
        assert_eq!(flagged(src), ["a", "b", "c"]);
    }

    #[test]
    fn widening_casts_and_cast_chains_are_quiet() {
        let src = "fn f(a: u8, b: i16, c: u32) -> i64 {\n    \
                   (a as u32 as i64) + (b as i64) + (c as u64 as i64) + (a as usize as i64)\n}\n";
        assert!(flagged(src).is_empty());
    }

    #[test]
    fn literal_mask_bool_clamp_and_float_operands_are_quiet() {
        let src = "fn f(x: usize, v: i32, s: f64, bit: bool) {\n    \
                   let a = 255 as u8;\n    \
                   let b = (x % 256) as u8;\n    \
                   let c = (x & 0xFF) as u8;\n    \
                   let d = (v == 0) as u8;\n    \
                   let e = true as u8;\n    \
                   let g = v.clamp(-100, 100) as i8;\n    \
                   let h = s.round() as u8;\n    \
                   let k = bit as u64;\n    \
                   let m = (s * 256.0).round().clamp(0.0, 65535.0) as u64;\n    \
                   let n = 2.5 as i32;\n}\n";
        assert!(flagged(src).is_empty());
    }

    #[test]
    fn oversized_literal_and_bad_clamp_are_flagged() {
        let src = "fn a() -> u8 { 300 as u8 }\n\
                   fn b(v: i32) -> u8 { v.clamp(-1, 255) as u8 }\n";
        assert_eq!(flagged(src), ["a", "b"]);
    }

    #[test]
    fn min_bounds_prove_narrowing() {
        let src = "fn f(mag: f64) -> i32 { mag.min(i32::MAX as f64) as i32 }\n\
                   fn g(x: usize) -> u16 { x.min(1000) as u16 }\n\
                   fn h(x: usize) -> u16 { x.min(70000) as u16 }\n";
        assert_eq!(flagged(src), ["h"]);
    }

    #[test]
    fn len_is_usize_and_flagged_when_narrowed() {
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n\
                   fn g(v: &[u8]) -> u64 { v.len() as u64 }\n";
        assert_eq!(flagged(src), ["f"]);
    }

    #[test]
    fn typed_locals_params_and_slice_elements_resolve() {
        let src = "fn f() -> u32 {\n    let idx: u8 = pick();\n    idx as u32\n}\n\
                   fn g() -> u32 {\n    let big: u64 = pick();\n    big as u32\n}\n\
                   fn h(data: &[u8], i: usize) -> u32 { data[i] as u32 }\n\
                   fn k(s: f32) -> i32 {\n    let t: f32 = s;\n    t as i32\n}\n";
        assert_eq!(flagged(src), ["g"]);
    }

    #[test]
    fn struct_fields_and_consts_resolve() {
        let src = "pub struct Mv { pub dx: i8, pub scale: f32 }\n\
                   pub const LIMIT: u16 = 9;\n\
                   fn f(m: &Mv) -> i32 { (m.dx as i32) + (LIMIT as i32) + (m.scale as i32) }\n";
        assert!(flagged(src).is_empty());
    }

    #[test]
    fn call_return_types_resolve_across_files_by_receiver() {
        let v = run_files(
            &[
                (
                    "crates/bitstream/src/frame.rs",
                    "pub struct Frame { px: Vec<u8>, big: Vec<u64> }\n\
                     impl Frame {\n    \
                     pub fn get(&self, x: usize) -> u8 { self.px[x] }\n    \
                     pub fn wide(&self) -> u64 { self.big[0] }\n}\n\
                     pub struct Plans { n: Vec<u64> }\n\
                     impl Plans {\n    pub fn get(&self, x: usize) -> u64 { self.n[x] }\n}\n",
                ),
                (
                    "crates/bitstream/src/user.rs",
                    "fn ok(fr: &super::Frame) -> i32 { fr.get(0) as i32 }\n\
                     fn bad(fr: &super::Frame) -> i32 { fr.wide() as i32 }\n",
                ),
            ],
            &[],
        );
        // `get` has two definitions; the receiver's declared type keeps
        // only `Frame::get`, whose u8 return fits.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("wide"), "{}", v[0].message);
    }

    #[test]
    fn disagreeing_candidate_returns_leave_the_call_unproven() {
        let src = "pub struct A;\npub struct B;\n\
                   impl A {\n    pub fn level(&self) -> f32 { 0.5 }\n}\n\
                   impl B {\n    pub fn level(&self) -> f32 { 1.5 }\n}\n\
                   impl B {\n    pub fn gain(&self) -> f32 { 1.5 }\n}\n\
                   impl A {\n    pub fn gain(&self) -> i64 { 7 }\n}\n\
                   fn f(x: &dyn Any) -> i32 { x.level() as i32 }\n\
                   fn g(x: &dyn Any) -> i32 { x.gain() as i32 }\n";
        assert_eq!(flagged(src), ["g"]);
    }

    #[test]
    fn cast_inside_a_closure_is_flagged() {
        let v = run(
            "fn f(v: &[u32]) -> Vec<u8> {\n    v.iter().map(|&x| x as u8).collect()\n}\n",
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`x as u8`"), "{}", v[0].message);
        // Typed and masked closure operands prove like any other.
        let src = "fn g(v: &[u32]) -> Vec<u8> { v.iter().map(|x: &u8| *x as u8).collect() }\n\
                   fn h(v: &[u32]) -> Vec<u8> { v.iter().map(|&x| (x & 0xFF) as u8).collect() }\n\
                   fn k(v: &[u32]) -> u64 { v.iter().fold(0, |acc, &x| acc + x as u8 as u64) }\n";
        assert_eq!(flagged(src), ["k"]);
    }

    #[test]
    fn closure_keeps_captured_values_and_forgets_what_it_assigns() {
        let src = "fn f(v: &[u32]) -> Vec<u8> {\n    let n = 7u32;\n    v.iter().map(|_| n as u8).collect()\n}\n\
                   fn g(v: &[u32]) -> u8 {\n    let mut n = 7u32;\n    v.iter().for_each(|_| n += 1);\n    n as u8\n}\n";
        assert_eq!(flagged(src), ["g"]);
    }

    #[test]
    fn cast_inside_a_macro_argument_is_flagged() {
        let v = run(
            "fn f(w: &mut String, y: u32) {\n    write!(w, \"{}\", y as u8).ok();\n}\n",
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`y as u8`"), "{}", v[0].message);
        let src = "fn a(y: u32) -> String { format!(\"{v}\", v = y as u8) }\n\
                   fn b(y: u32) -> Vec<u8> { vec![0; y as u16 as usize] }\n\
                   fn c(y: u32) { assert_eq!(y, u32::from(y as u8)); }\n\
                   fn d(y: u32) -> bool { matches!(y as u8, 1 | 2) }\n\
                   fn e(y: u32) { debug_assert!((y & 0xF) as u8 < 16); }\n";
        assert_eq!(flagged(src), ["a", "b", "c", "d"]);
    }

    #[test]
    fn casts_the_evaluator_does_not_reach_are_flagged() {
        // A nested fn item is not evaluated; its casts still count. Casts
        // of constants that fit (here in a type) fold.
        let v = run(
            "const K: u32 = 8;\n\
             fn f() -> u8 {\n    fn inner(y: u32) -> u8 {\n        (y & 0xF) as u8\n    }\n    \
             static T: [u8; K as usize] = [0; K as usize];\n    inner(T[0].into())\n}\n",
            &[],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert!(
            v[0].message.contains("outside the code"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn branches_guards_and_short_circuits_are_evaluated() {
        let src = "fn a(y: u32, c: bool) -> u8 { let v = if c { 0 } else if y > 1 { y as u8 } else { 1 }; v }\n\
                   fn b(y: u32, q: u32) -> u8 {\n    if !(q > 2) {\n        return 0;\n    }\n    y as u8\n}\n\
                   fn c(y: Option<u32>) -> u8 { match y { Some(v) if v as u8 > 3 => 1, _ => 0 } }\n\
                   fn d(y: u32) -> u8 { let m = (y as u16) & 0xFF; m as u8 }\n\
                   fn e(n: u32, v: u64) -> bool { n < 64 && v < (1u64 << n) }\n\
                   fn g(n: u8, v: u64) -> bool { n > 63 || v < (1u64 << n) }\n\
                   fn h(n: u8, v: u64) -> bool { n > 64 || n == 64 || v < (1u64 << n) }\n";
        assert_eq!(flagged(src), ["a", "b", "c", "d"]);
    }

    #[test]
    fn allow_marker_suppresses_a_cast() {
        let src = "fn f(x: u32) -> u8 {\n    // lint:allow(range): mode index is < 35 by construction\n    x as u8\n}\n";
        assert!(run(src, &[]).is_empty());
    }
}
