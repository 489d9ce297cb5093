//! Wire-schema pass: encoder emission and decoder parse must be duals.
//!
//! A bitstream format is a contract between its writer and its reader,
//! checked here at two levels. By *name*: every writer
//! (`write_*`/`encode_*`/`code_*`) in the stream-facing files must have
//! a reader (`read_*`/`decode_*`/`parse_*`) with the same stem and vice
//! versa — a written-never-read element silently desynchronizes the
//! stream. By *body*: for every `write_*`/`code_*` ↔ `read_*`/`parse_*`
//! pair it extracts both sides' wire grammars with
//! [`crate::dataflow::wire`] and proves them duals:
//! same field order, same widths, same guard structure. A desync is
//! reported at the first mismatched field with a witness chain that
//! prints the writer chain and the reader chain side by side, so the
//! drifted field is named on both sides.
//!
//! The same extraction feeds `lint --schema`, which serializes the
//! proven grammars to `FORMAT.md` + `wire-schema.json` — the committed,
//! CI-drift-checked format spec.
//!
//! Pairs whose two sides are *arithmetically* rather than structurally
//! dual (exp-Golomb and Rice coders: the writer computes a bit-length,
//! the reader loops over bins) cannot be proven by shape; they are
//! listed as `trusted` in the spec and covered by pinned round-trip
//! tests named in [`TRUSTED_PAIRS`]. Justified exceptions elsewhere
//! carry `// lint:allow(schema): <reason>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::index::Index;
use crate::dataflow::interval::Contract;
use crate::dataflow::wire::{self, extract, render_node, Comparator, Node, Side};
use crate::report::Violation;
use crate::source::Workspace;

/// Files whose writer/reader functions are in scope for pairing and
/// duality proofs: the stream-facing half of the codec, the tensor and
/// archive framing around it, and the bit, byte and CABAC primitives it
/// is built from.
const SCOPE_FILES: &[&str] = &[
    "/archive.rs",
    "/framing.rs",
    "/encoder.rs",
    "/decoder.rs",
    "/syntax.rs",
    "/tile.rs",
    "/bits.rs",
    "/bytes.rs",
    "/cabac.rs",
];

/// Name prefixes of the writing side.
const WRITER_PREFIXES: &[&str] = &["write_", "encode_", "code_"];

/// Name prefixes of the reading side.
const READER_PREFIXES: &[&str] = &["read_", "decode_", "parse_"];

/// The prefixes whose pairs are also proven dual field by field. The
/// `encode_*`/`decode_*` entry points wrap search, tiling and entropy
/// backends around the syntax layers, so they pair by name only.
const PROVEN_PREFIXES: &[&str] = &["write_", "code_", "read_", "parse_"];

/// Arithmetic-dual pairs that are trusted to a pinned round-trip test
/// instead of a structural proof, with the test that pins each.
pub const TRUSTED_PAIRS: &[(&str, &str, &str)] = &[
    ("code_eg", "parse_eg", "eg_roundtrip"),
    (
        "code_remainder",
        "parse_remainder",
        "remainder_roundtrip_wide_range",
    ),
    ("write_ue", "read_ue", "ue_roundtrip_wide_range"),
];

/// Most top-level grammar nodes rendered per side in a witness chain.
const CHAIN_CAP: usize = 8;

/// The spec layers, outermost first. Stems are writer/reader function
/// names; a layer may be absent in a workspace (fixtures).
const LAYERS: &[(&str, &str, &str)] = &[
    (
        "archive-header",
        "write_archive_header",
        "parse_archive_header",
    ),
    (
        "archive-entry",
        "write_archive_entry",
        "parse_archive_entry",
    ),
    (
        "tensor-header",
        "write_tensor_header",
        "parse_tensor_header",
    ),
    ("chunk-record", "write_chunk_record", "parse_chunk_record"),
    (
        "stream-header",
        "write_stream_header",
        "parse_stream_header",
    ),
    ("frame-record", "write_frame_record", "parse_frame_record"),
    (
        "coding-fields",
        "write_coding_fields",
        "parse_coding_fields",
    ),
    ("tiles", "write_tiles", "parse_tiles"),
    ("checksum", "write_checksum", "parse_checksum"),
    ("frame-payload", "code_payload", "parse_payload"),
    ("coding-unit", "code_cu", "parse_cu"),
    ("leaf", "code_leaf", "parse_leaf"),
    ("residual", "code_levels", "parse_levels"),
    ("last-pos", "code_last_pos", "parse_last_pos"),
    ("signed_eg", "code_signed_eg", "parse_signed_eg"),
];

fn in_scope(path: &str) -> bool {
    SCOPE_FILES.iter().any(|s| path.ends_with(s))
}

fn is_trusted(name: &str) -> bool {
    TRUSTED_PAIRS
        .iter()
        .any(|(w, r, _)| name == *w || name == *r)
}

/// The stem a name carries after any of `prefixes`.
fn stem<'a>(name: &'a str, prefixes: &[&str]) -> Option<&'a str> {
    prefixes
        .iter()
        .find_map(|p| name.strip_prefix(p))
        .filter(|s| !s.is_empty())
}

/// Scoped, bodied functions by name (first definition wins; the scope
/// files never define a wire function twice in one workspace).
fn scoped_fns(index: &Index) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for (id, entry) in index.fns.iter().enumerate() {
        if entry.item.body.is_some() && in_scope(&entry.path) {
            out.entry(entry.item.name.as_str()).or_insert(id);
        }
    }
    out
}

/// Writer/reader pairs to prove (stem pairing over [`PROVEN_PREFIXES`]),
/// plus the unpaired writers and readers: a stem written and never read
/// (or the reverse) desynchronizes the stream. Trusted pairs are
/// skipped.
fn pairs(index: &Index) -> (Vec<(usize, usize)>, Vec<usize>) {
    let fns = scoped_fns(index);
    let mut out = Vec::new();
    let mut readers: BTreeSet<&str> = BTreeSet::new();
    let mut writers: BTreeSet<&str> = BTreeSet::new();
    let mut proven_readers: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, &id) in fns.iter().filter(|(n, _)| !is_trusted(n)) {
        if let Some(s) = stem(name, READER_PREFIXES) {
            readers.insert(s);
            if let Some(s) = stem(name, PROVEN_PREFIXES) {
                proven_readers.entry(s).or_insert(id);
            }
        } else if let Some(s) = stem(name, WRITER_PREFIXES) {
            writers.insert(s);
        }
    }
    let mut unpaired = Vec::new();
    for (name, &id) in fns.iter().filter(|(n, _)| !is_trusted(n)) {
        if let Some(s) = stem(name, READER_PREFIXES) {
            if !writers.contains(s) {
                unpaired.push(id);
            }
        } else if let Some(s) = stem(name, WRITER_PREFIXES) {
            if !readers.contains(s) {
                unpaired.push(id);
            }
            let proven = stem(name, PROVEN_PREFIXES).and_then(|s| proven_readers.get(s));
            if let Some(&rid) = proven {
                out.push((id, rid));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    unpaired.sort_unstable();
    (out, unpaired)
}

/// One side of a witness chain: a header line naming the function, then
/// one numbered line per top-level grammar node.
fn chain_side(label: &str, prefix: char, index: &Index, id: usize, g: &[Node]) -> Vec<String> {
    let entry = &index.fns[id];
    let mut out = vec![format!(
        "{label} {} @ {}:{}",
        entry.item.name,
        entry.path,
        entry.item.line + 1
    )];
    for (i, n) in g.iter().take(CHAIN_CAP).enumerate() {
        out.push(format!("{prefix}{}: {}", i + 1, render_node(n)));
    }
    if g.len() > CHAIN_CAP {
        out.push(format!("{prefix}…: {} more", g.len() - CHAIN_CAP));
    }
    out
}

fn describe(side: &str, n: Option<&Node>) -> String {
    match n {
        Some(n) => format!("{side} {}", render_node(n)),
        None => format!("{side} exhausted"),
    }
}

/// Runs the duality prover over every paired writer/reader in scope.
pub fn check_workspace(ws: &Workspace, index: &Index, contracts: &[Contract]) -> Vec<Violation> {
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let consts = wire::fold_consts(index);
    let relevant = wire::wire_relevant(index);
    let (pairs, unpaired) = pairs(index);
    let mut out = Vec::new();
    for id in unpaired {
        let entry = &index.fns[id];
        if files
            .get(entry.path.as_str())
            .is_some_and(|sf| sf.is_allowed(entry.item.line, "schema"))
        {
            continue;
        }
        let name = &entry.item.name;
        let (what, missing, prefixes, s) = match stem(name, READER_PREFIXES) {
            Some(s) => ("reads", "writer", WRITER_PREFIXES, s),
            None => (
                "writes",
                "reader",
                READER_PREFIXES,
                stem(name, WRITER_PREFIXES).unwrap_or(name),
            ),
        };
        out.push(Violation::new(
            "wire-schema",
            &entry.path,
            entry.item.line + 1,
            format!(
                "`{name}` {what} syntax element `{s}` but no {missing} ({}*) exists in the \
                 stream-facing files; the two sides of the wire would desynchronize",
                prefixes.join("*/"),
            ),
        ));
    }
    for (wid, rid) in pairs {
        let w = extract(index, wid, Side::Writer, &consts, contracts, &relevant);
        let r = extract(index, rid, Side::Reader, &consts, contracts, &relevant);
        let Err(m) = Comparator::new(&consts).compare(&w, &r) else {
            continue;
        };
        let wentry = &index.fns[wid];
        let rentry = &index.fns[rid];
        let line = m.writer.as_ref().map_or(wentry.item.line, |n| n.line);
        if files
            .get(wentry.path.as_str())
            .is_some_and(|sf| sf.is_allowed(line, "schema"))
        {
            continue;
        }
        let mut chain = chain_side("writer", 'w', index, wid, &w);
        chain.extend(chain_side("reader", 'r', index, rid, &r));
        chain.push(format!(
            "mismatch at step {}: {} vs {}",
            m.step,
            describe("writer", m.writer.as_deref()),
            describe("reader", m.reader.as_deref()),
        ));
        out.push(
            Violation::new(
                "wire-schema",
                &wentry.path,
                line + 1,
                format!(
                    "`{}` and `{}` disagree on the wire at step {} ({} vs {}); the stream a \
                     build of this encoder emits cannot be parsed back by its decoder — fix \
                     the drifted side, re-run `lint --schema`, and commit the regenerated spec",
                    wentry.item.name,
                    rentry.item.name,
                    m.step,
                    describe("writer", m.writer.as_deref()),
                    describe("reader", m.reader.as_deref()),
                ),
            )
            .with_chain(chain),
        );
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// One spec layer's extraction result.
struct LayerSpec {
    name: &'static str,
    writer: &'static str,
    reader: &'static str,
    status: &'static str,
    /// Rendered top-level reader-grammar nodes (the reader side carries
    /// the guards, so it is the normative direction).
    grammar: Vec<String>,
    /// Pinning round-trip test for trusted layers.
    test: Option<&'static str>,
}

fn layer_specs(index: &Index, contracts: &[Contract]) -> Vec<LayerSpec> {
    let fns = scoped_fns(index);
    let consts = wire::fold_consts(index);
    let relevant = wire::wire_relevant(index);
    let grammar_of = |name: &str| -> Option<Vec<String>> {
        let id = *fns.get(name)?;
        let g = extract(index, id, Side::Reader, &consts, contracts, &relevant);
        Some(g.iter().map(render_node).collect())
    };
    let mut out = Vec::new();
    for (name, w, r) in LAYERS {
        let (status, grammar) = match grammar_of(r) {
            Some(g) if fns.contains_key(w) => ("proven", g),
            Some(g) => ("absent", g),
            None => ("absent", Vec::new()),
        };
        out.push(LayerSpec {
            name,
            writer: w,
            reader: r,
            status,
            grammar,
            test: None,
        });
    }
    for (w, r, test) in TRUSTED_PAIRS {
        let grammar = grammar_of(r).unwrap_or_default();
        let status = if fns.contains_key(w) && fns.contains_key(r) {
            "trusted"
        } else {
            "absent"
        };
        out.push(LayerSpec {
            name: wire::stem(r),
            writer: w,
            reader: r,
            status,
            grammar,
            test: Some(test),
        });
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the extracted grammar to the committed spec pair:
/// `FORMAT.md` (human) and `wire-schema.json` (machine). Both are
/// deterministic functions of the source, so CI can regenerate and
/// diff them.
#[must_use]
pub fn spec(index: &Index, contracts: &[Contract]) -> (String, String) {
    let layers = layer_specs(index, contracts);

    let mut md = String::new();
    md.push_str("# LLM.265 wire format\n\n");
    md.push_str(
        "<!-- Generated by `cargo run -p xtask -- lint --schema`. Do not edit by hand;\n\
         the CI schema-drift job regenerates this file and fails on any diff. -->\n\n",
    );
    md.push_str(
        "Each layer below is the wire grammar the `wire-schema` gate pass extracts\n\
         from the decoder (the reader side carries the version/flag guards, so it is\n\
         the normative direction) and proves dual to the encoder: same field order,\n\
         same widths, same guard structure. Syntax-element layers are generic over\n\
         `BinSink`/`BinSource`; CABAC is the one entropy coder of both stream kinds,\n\
         every stream-flag bit is reserved (writers write 0, readers refuse a set\n\
         bit), and each tensor chunk record and video frame ends with a CRC-32 of\n\
         its stream header and itself. `trusted` layers are arithmetic duals pinned\n\
         by the named round-trip test instead of a structural proof.\n\n\
         Grammar notation: `bits(w)` a `w`-bit big-endian field, `byte`/`le16`/\n\
         `le32`/`le64` little-endian byte fields, `ue`/`se` exp-Golomb, `bit(c)` a\n\
         context-coded bin on context `c`, `bypass`/`bypass_bits(w)` equiprobable\n\
         bins, `unary(c)` a truncated-unary run, `loop×[lo,hi]{ … }` repetition with\n\
         a proven iteration interval, `branch(g){ a | b }` a guarded alternative\n\
         (`ε` = empty), `call(f)` a nested layer, `[name]` the field label.\n",
    );
    for l in &layers {
        md.push_str(&format!("\n## {} — {}\n\n", l.name, l.status));
        md.push_str(&format!("Writer `{}`, reader `{}`.", l.writer, l.reader));
        if let Some(t) = l.test {
            md.push_str(&format!(" Pinned by `{t}`."));
        }
        md.push('\n');
        if !l.grammar.is_empty() {
            md.push('\n');
            for g in &l.grammar {
                md.push_str(&format!("- `{g}`\n"));
            }
        }
    }

    let mut js = String::new();
    js.push_str("{\n  \"version\": 1,\n  \"layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        js.push_str("    {\n");
        js.push_str(&format!("      \"name\": \"{}\",\n", json_escape(l.name)));
        js.push_str(&format!(
            "      \"writer\": \"{}\",\n",
            json_escape(l.writer)
        ));
        js.push_str(&format!(
            "      \"reader\": \"{}\",\n",
            json_escape(l.reader)
        ));
        js.push_str(&format!(
            "      \"status\": \"{}\",\n",
            json_escape(l.status)
        ));
        if let Some(t) = l.test {
            js.push_str(&format!(
                "      \"roundtrip_test\": \"{}\",\n",
                json_escape(t)
            ));
        }
        js.push_str("      \"grammar\": [");
        for (k, g) in l.grammar.iter().enumerate() {
            if k > 0 {
                js.push_str(", ");
            }
            js.push_str(&format!("\"{}\"", json_escape(g)));
        }
        js.push_str("]\n");
        js.push_str(if i + 1 == layers.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    js.push_str("  ]\n}\n");

    (md, js)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CrateSrc, SourceFile, Workspace};

    fn ws_files(files: &[(&str, &str)]) -> Workspace {
        let manifest = "[package]\nname = \"llm265-videocodec\"\n\n[lints]\nworkspace = true\n";
        let files = files
            .iter()
            .map(|(p, s)| SourceFile::from_contents(&format!("crates/videocodec/src/{p}"), s))
            .collect();
        Workspace {
            crates: vec![CrateSrc::from_parts("llm265-videocodec", manifest, files)],
        }
    }

    fn ws_of(src: &str) -> Workspace {
        ws_files(&[
            (
                "lib.rs",
                "#![forbid(unsafe_code)]\n//! t\npub mod encoder;\n",
            ),
            ("encoder.rs", src),
        ])
    }

    fn check_files(files: &[(&str, &str)]) -> Vec<Violation> {
        let ws = ws_files(files);
        let index = ws.build_index();
        check_workspace(&ws, &index, &[])
    }

    #[test]
    fn desynced_pair_is_flagged_with_side_by_side_chain() {
        let ws = ws_of(
            r#"
            fn code_mark<S: BinSink>(s: &mut S, gap: u64) {
                s.bypass_bits(gap, 4);
                s.bypass(false);
            }
            fn parse_mark<D: BinSource>(d: &mut D) -> u64 {
                let stop = d.bypass();
                let gap = d.bypass_bits(4);
                gap
            }
            "#,
        );
        let index = ws.build_index();
        let v = check_workspace(&ws, &index, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("disagree on the wire at step 1"));
        let chain = v[0].chain.join("\n");
        assert!(chain.contains("writer code_mark @"), "{chain}");
        assert!(chain.contains("reader parse_mark @"), "{chain}");
        assert!(chain.contains("w1: bypass_bits(4)[gap]"), "{chain}");
        assert!(chain.contains("r1: bypass[stop]"), "{chain}");
        assert!(chain.contains("mismatch at step 1"), "{chain}");
    }

    #[test]
    fn dual_pair_is_quiet() {
        let ws = ws_of(
            r#"
            fn code_mark<S: BinSink>(s: &mut S, gap: u64) {
                s.bypass_bits(gap, 4);
                s.bypass(false);
            }
            fn parse_mark<D: BinSource>(d: &mut D) -> u64 {
                let gap = d.bypass_bits(4);
                let stop = d.bypass();
                gap
            }
            "#,
        );
        let index = ws.build_index();
        assert!(check_workspace(&ws, &index, &[]).is_empty());
    }

    #[test]
    fn names_pair_across_prefixes_and_files() {
        let v = check_files(&[
            (
                "encoder.rs",
                "fn write_header() {}\nfn code_block() {}\nfn encode_frame() {}\n",
            ),
            (
                "decoder.rs",
                "fn read_header() {}\nfn parse_block() {}\nfn decode_frame() {}\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn written_never_read_fails() {
        let v = check_files(&[
            ("encoder.rs", "fn write_header() {}\nfn write_footer() {}\n"),
            ("decoder.rs", "fn read_header() {}\n"),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`footer`"), "{}", v[0].message);
        assert!(v[0].message.contains("no reader"), "{}", v[0].message);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn read_never_written_fails() {
        let v = check_files(&[
            ("encoder.rs", "fn write_header() {}\n"),
            ("decoder.rs", "fn read_header() {}\nfn parse_ghost() {}\n"),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`ghost`"), "{}", v[0].message);
        assert!(v[0].message.contains("no writer"), "{}", v[0].message);
    }

    #[test]
    fn unprefixed_out_of_scope_and_test_functions_do_not_pair() {
        let v = check_files(&[
            (
                "encoder.rs",
                "fn quantize_block() {}\nfn helper() {}\nfn write_real() {}\n\
                 #[cfg(test)]\nmod tests {\n    fn write_fake() {}\n}\n",
            ),
            ("decoder.rs", "fn validate() {}\nfn read_real() {}\n"),
            ("other.rs", "fn write_orphan() {}\n"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn spec_lists_layer_statuses_and_is_valid_shape() {
        let ws = ws_of(
            r#"
            fn write_stream_header(w: &mut BitWriter) {
                w.write_bits(2u64, 8);
            }
            fn parse_stream_header(r: &mut BitReader) -> Result<u8, CodecError> {
                let version = (r.read_bits(8)? & 0xFF) as u8;
                Ok(version)
            }
            "#,
        );
        let index = ws.build_index();
        let (md, js) = spec(&index, &[]);
        assert!(md.contains("## stream-header — proven"), "{md}");
        assert!(md.contains("## tiles — absent"), "{md}");
        assert!(js.contains("\"name\": \"stream-header\""), "{js}");
        assert!(js.contains("\"status\": \"proven\""), "{js}");
        assert!(js.contains("\"grammar\": [\"bits(8)[version]\"]"), "{js}");
    }
}
