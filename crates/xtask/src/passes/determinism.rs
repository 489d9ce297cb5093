//! Determinism pass: cross-rank bit-exactness hazards in codec paths.
//!
//! The paper's pipeline (and VcLLM's training-loop usage) requires the
//! encoder and decoder to be bit-exact across machines and across the
//! ranks of `distrib`'s data-parallel simulator: every rank re-encodes
//! the same tensor and must produce the same bytes. Three std features
//! silently break that:
//!
//! - `HashMap`/`HashSet` (and `RandomState`/`DefaultHasher`) — iteration
//!   order is randomized per process, so any encode decision derived from
//!   it differs between ranks;
//! - `SystemTime`/`Instant` — wall-clock-derived values differ per run;
//! - thread-count-dependent parallelism (`available_parallelism`,
//!   `spawn`-based reductions) — float accumulation order, and therefore
//!   rounding, depends on the machine.
//!
//! The pass computes the call-graph closure of every `encode*`/`decode*`/
//! `quantize*`-family function in the workspace (via the AST engine's
//! index) and denies those tokens anywhere inside it. Sites that are
//! provably order-independent carry `// lint:allow(determinism): <why>`.
//! Use `BTreeMap`/`BTreeSet`, a sorted `Vec`, seeded `rng::Pcg32`, and
//! fixed-order reductions instead.
//!
//! One structural exemption exists: the **ordered-collection pool idiom**
//! (`llm265-core::pool`). A function that (1) claims task indices from an
//! atomic counter (`fetch_add`), (2) spawns scoped workers (`scope` +
//! `spawn`), (3) joins every handle (`join`), and (4) places results into
//! slots addressed by task index (`slots[i] = …`) produces output that is
//! a pure function of the task list — scheduling can only change *when* a
//! task runs, never *where* its result lands. `spawn` is exempt inside
//! such a body because the shape itself is the proof; a blanket
//! `lint:allow` is not needed and not used there.
//!
//! A fourth hazard is **runtime CPU feature detection**
//! (`is_x86_feature_detected!`): deterministic on one machine, different
//! across machines. The codec's element-wise kernels are plain loops the
//! compiler vectorizes for the build target, so nothing on a codec path
//! needs it; any mention there is a finding.
//!
//! Call resolution filters out bodiless trait-method *declarations*
//! before applying the candidate cap: a trait with one declaration plus
//! `MAX_CANDIDATES` impls would otherwise make the method name silently
//! unresolvable and drop every impl from the closure.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::index::Index;
use crate::ast::lex::Kind;
use crate::ast::tree::Tree;
use crate::dataflow::MAX_CANDIDATES;
use crate::report::Violation;
use crate::source::{SourceFile, Workspace};

/// Function-name prefixes whose call graphs must be deterministic.
pub const ROOT_PREFIXES: &[&str] = &[
    "encode",
    "decode",
    "quantize",
    "dequantize",
    "compress",
    "decompress",
];

/// Crates exempt from root collection (tooling, not codec paths).
const EXEMPT_CRATES: &[&str] = &["xtask", "llm265-bench"];

/// Identifiers that introduce nondeterminism, each with its hazard and
/// remedy.
const BANNED: &[(&str, &str)] = &[
    ("HashMap", UNORDERED),
    ("HashSet", UNORDERED),
    ("RandomState", UNORDERED),
    ("DefaultHasher", UNORDERED),
    ("SystemTime", CLOCK),
    ("Instant", CLOCK),
    (
        "available_parallelism",
        "thread count changes reduction order; use a fixed-order reduction",
    ),
    (
        "spawn",
        "thread scheduling changes reduction order; structure parallelism as the ordered-collection pool idiom (fetch_add claim + scoped spawn + join all + store by task index)",
    ),
    (
        "is_x86_feature_detected",
        "CPU features differ across machines; write a plain loop the compiler vectorizes for the build target",
    ),
];
const UNORDERED: &str =
    "hashing and iteration order differ per process; use BTreeMap/BTreeSet or a sorted Vec";
const CLOCK: &str = "wall-clock values differ per run; keep timing off the codec path";

/// Runs the determinism audit over the whole workspace.
pub fn check_workspace(ws: &Workspace, index: &Index) -> Vec<Violation> {
    // Roots: every fn in a non-exempt crate whose name starts with a codec
    // prefix.
    let roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, e)| !EXEMPT_CRATES.contains(&e.krate.as_str()))
        .filter(|(_, e)| ROOT_PREFIXES.iter().any(|p| e.item.name.starts_with(p)))
        .map(|(i, _)| i)
        .collect();

    // BFS with first-discovery predecessors so findings can explain *why*
    // a function is on a codec path.
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
    let mut frontier = roots.clone();
    while let Some(id) = frontier.pop() {
        for call in &index.fns[id].calls {
            // Bodiless trait declarations are not call targets and must
            // not count toward the cap (see module docs).
            let targets = index.resolve_defined(call);
            if targets.is_empty() || targets.len() > MAX_CANDIDATES {
                continue;
            }
            for t in targets {
                if seen.insert(t) {
                    prev.insert(t, id);
                    frontier.push(t);
                }
            }
        }
    }

    let by_path: BTreeMap<&str, &SourceFile> = ws.files().map(|f| (f.path.as_str(), f)).collect();

    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, usize, &str)> = BTreeSet::new();
    for &id in &seen {
        let entry = &index.fns[id];
        if EXEMPT_CRATES.contains(&entry.krate.as_str()) {
            continue;
        }
        let Some(file) = by_path.get(entry.path.as_str()) else {
            continue;
        };
        let Some(body) = &entry.item.body else {
            continue;
        };
        let chain = chain_text(index, &prev, id);
        let pool_idiom = exhibits_ordered_join(&body.trees);
        scan_banned(
            &body.trees,
            file,
            &entry.item.name,
            &chain,
            pool_idiom,
            &mut reported,
            &mut out,
        );
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Root→fn breadcrumb like `encode_frame → rd_search → pick_mode`.
fn chain_text(index: &Index, prev: &BTreeMap<usize, usize>, mut id: usize) -> String {
    let mut names = vec![index.fns[id].item.name.clone()];
    while let Some(&p) = prev.get(&id) {
        names.push(index.fns[p].item.name.clone());
        id = p;
        if names.len() > 8 {
            names.push("…".to_string());
            break;
        }
    }
    names.reverse();
    names.join(" → ")
}

/// Detects the ordered-collection pool idiom in a function body: an
/// atomic index claim (`fetch_add`), scoped workers (`scope` + `spawn`),
/// a join of the handles (`join`), and an index-addressed result store
/// (`ident[…] = …`). All five must be present — `spawn` without the
/// ordered collection around it stays banned.
fn exhibits_ordered_join(trees: &[Tree]) -> bool {
    let mut f = IdiomFlags::default();
    scan_idiom(trees, &mut f);
    f.scope && f.spawn && f.join && f.fetch_add && f.indexed_store
}

#[derive(Default)]
struct IdiomFlags {
    scope: bool,
    spawn: bool,
    join: bool,
    fetch_add: bool,
    indexed_store: bool,
}

fn scan_idiom(trees: &[Tree], flags: &mut IdiomFlags) {
    for (i, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => scan_idiom(&g.trees, flags),
            Tree::Leaf(tok) if tok.kind == Kind::Ident => {
                match tok.text.as_str() {
                    "scope" => flags.scope = true,
                    "spawn" => flags.spawn = true,
                    "join" => flags.join = true,
                    "fetch_add" => flags.fetch_add = true,
                    _ => {}
                }
                // `ident [ … ] =` — a slot store addressed by index. The
                // lexer folds `==` into one token, so a bare `=` here is
                // an assignment.
                if let (Some(Tree::Group(g)), Some(nx)) = (trees.get(i + 1), trees.get(i + 2)) {
                    if g.delim == '[' && nx.is_punct("=") {
                        flags.indexed_store = true;
                    }
                }
            }
            Tree::Leaf(_) => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_banned<'t>(
    trees: &'t [Tree],
    file: &SourceFile,
    fn_name: &str,
    chain: &str,
    pool_idiom: bool,
    reported: &mut BTreeSet<(String, usize, &'t str)>,
    out: &mut Vec<Violation>,
) {
    for t in trees {
        if let Tree::Group(g) = t {
            scan_banned(&g.trees, file, fn_name, chain, pool_idiom, reported, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };
        if tok.kind != Kind::Ident {
            continue;
        }
        let Some((name, why)) = BANNED.iter().find(|(b, _)| tok.text == *b) else {
            continue;
        };
        if pool_idiom && tok.text == "spawn" {
            // Proven by shape: ordered-collection pool idiom (see module
            // docs) — scheduling cannot reach the output bytes.
            continue;
        }
        if file.is_allowed(tok.line, "determinism") {
            continue;
        }
        if !reported.insert((file.path.clone(), tok.line, name)) {
            continue;
        }
        out.push(Violation::new(
            "determinism",
            &file.path,
            tok.line + 1,
            format!(
                "`{name}` in `{fn_name}` (codec path: {chain}): {why}, or justify with lint:allow(determinism)"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Workspace, Index) {
        let ws = Workspace::of(&[("demo", files)]);
        let index = ws.build_index();
        (ws, index)
    }

    #[test]
    fn hashmap_on_encode_path_is_flagged_transitively() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "use std::collections::HashMap;\n\
             pub fn encode_frame() { helper() }\n\
             fn helper() { let m: HashMap<u8, u8> = HashMap::new(); m.len(); }\n\
             fn unrelated() { let m: HashMap<u8, u8> = HashMap::new(); m.len(); }\n",
        )]);
        let v = check_workspace(&ws, &idx);
        // Two HashMap mentions on one line in `helper` dedupe to one per
        // line; `unrelated` and the `use` line never fire.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("encode_frame → helper"));
    }

    #[test]
    fn wall_clock_and_threads_are_flagged() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn quantize_block() {\n    let t = Instant::now();\n    let n = available_parallelism();\n}\n",
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn off_path_and_allowed_sites_are_quiet() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn bench_harness() { let t = Instant::now(); }\n\
             pub fn decode_x() {\n    // lint:allow(determinism): scratch map, drained in sorted order\n    let m = HashMap::new();\n}\n",
        )]);
        assert!(check_workspace(&ws, &idx).is_empty());
    }

    /// The exact shape of `llm265-core::pool::run_ordered`, reduced: the
    /// spawn is exempt because the body proves the ordered-collection
    /// idiom, with no `lint:allow` anywhere.
    #[test]
    fn ordered_join_pool_idiom_exempts_spawn() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn encode_pool() {\n\
                 let next = AtomicUsize::new(0);\n\
                 let joined = std::thread::scope(|s| {\n\
                     let handles: Vec<_> = (0..4)\n\
                         .map(|_| s.spawn(|| {\n\
                             let mut mine = Vec::new();\n\
                             loop {\n\
                                 let i = next.fetch_add(1, Ordering::Relaxed);\n\
                                 if i >= 8 { break; }\n\
                                 mine.push((i, i * 2));\n\
                             }\n\
                             mine\n\
                         }))\n\
                         .collect();\n\
                     handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()\n\
                 });\n\
                 let mut slots = vec![None; 8];\n\
                 for worker in joined {\n\
                     for (i, v) in worker.unwrap() {\n\
                         slots[i] = Some(v);\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert!(check_workspace(&ws, &idx).is_empty());
    }

    /// `spawn` without the full idiom (no ordered join, no slot store)
    /// stays banned: fire-and-forget parallelism can reorder reductions.
    #[test]
    fn spawn_without_the_full_idiom_is_still_flagged() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn encode_racy() {\n\
                 std::thread::scope(|s| {\n\
                     let i = next.fetch_add(1, Ordering::Relaxed);\n\
                     s.spawn(move || do_work(i));\n\
                 });\n\
             }\n",
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("spawn"));
    }

    /// The idiom only launders `spawn` — other hazards in the same body
    /// (wall clock, hash maps) are still flagged.
    #[test]
    fn idiom_does_not_exempt_other_banned_tokens() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn encode_pool_with_clock() {\n\
                 let t0 = Instant::now();\n\
                 let next = AtomicUsize::new(0);\n\
                 let joined = std::thread::scope(|s| {\n\
                     let handles: Vec<_> = (0..4).map(|_| s.spawn(|| {\n\
                         let i = next.fetch_add(1, Ordering::Relaxed);\n\
                         vec![(i, i)]\n\
                     })).collect();\n\
                     handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()\n\
                 });\n\
                 let mut slots = vec![None; 8];\n\
                 for worker in joined {\n\
                     for (i, v) in worker.unwrap() { slots[i] = Some(v); }\n\
                 }\n\
             }\n",
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Instant"));
    }

    #[test]
    fn btreemap_is_fine() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn encode_x() { let m: std::collections::BTreeMap<u8,u8> = Default::default(); m.len(); }\n",
        )]);
        assert!(check_workspace(&ws, &idx).is_empty());
    }

    /// Detection on a codec path is flagged whatever its shape: in a
    /// backend selector that only returns variants (reached through the
    /// call chain), directly in an `encode*` root body through
    /// `std::arch::` next to arithmetic, and in a `decode*` root.
    #[test]
    fn feature_detection_on_a_codec_path_is_flagged() {
        let selector = "pub fn encode_block() { let b = detect_backend(); }\n\
             fn detect_backend() -> Backend {\n\
                 #[cfg(target_arch = \"x86_64\")]\n\
                 {\n\
                     if std::arch::is_x86_feature_detected!(\"avx2\") {\n\
                         return Backend::Avx2;\n\
                     }\n\
                 }\n\
                 Backend::Scalar\n\
             }\n";
        let arithmetic = "pub fn encode_block() {\n\
                 let wide = std::arch::is_x86_feature_detected!(\"avx2\");\n\
                 let lanes = if wide { 4 + 0 } else { 1 };\n\
             }\n";
        let decode = "pub fn decode_block() {\n\
                 if is_x86_feature_detected!(\"sse2\") { scale(2.0); }\n\
             }\n";
        for (src, chain) in [
            (selector, "encode_block → detect_backend"),
            (arithmetic, "codec path: encode_block)"),
            (decode, "codec path: decode_block)"),
        ] {
            let (ws, idx) = ws(&[("a.rs", src)]);
            let v = check_workspace(&ws, &idx);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("is_x86_feature_detected"));
            assert!(v[0].message.contains(chain), "{}", v[0].message);
            assert!(v[0].message.contains("plain loop"));
        }
    }

    /// Off codec paths (and allowed sites) detection is not our business.
    #[test]
    fn feature_detection_off_codec_path_is_quiet() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "pub fn report_cpu() { let n = 1 + is_x86_feature_detected!(\"avx2\") as u32; }\n\
             pub fn encode_y() {\n    // lint:allow(determinism): logging only, result unused\n    let _ = is_x86_feature_detected!(\"avx2\") && 1 + 1 == 2;\n}\n",
        )]);
        assert!(check_workspace(&ws, &idx).is_empty());
    }

    /// Trait-method declarations must not clog call resolution: one
    /// bodiless declaration plus three impls still resolves, so hazards
    /// inside an impl are found through the trait call.
    #[test]
    fn trait_impls_stay_in_the_closure_despite_declaration() {
        let (ws, idx) = ws(&[(
            "a.rs",
            "trait Kernel { fn axpy(&self); }\n\
             impl Kernel for A { fn axpy(&self) { let m = HashMap::new(); } }\n\
             impl Kernel for B { fn axpy(&self) {} }\n\
             impl Kernel for C { fn axpy(&self) {} }\n\
             pub fn encode_rows() { l.axpy() }\n",
        )]);
        let v = check_workspace(&ws, &idx);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("HashMap"));
        assert!(v[0].message.contains("encode_rows → axpy"));
    }
}
