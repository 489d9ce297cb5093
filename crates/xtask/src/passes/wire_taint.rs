//! Wire-taint pass: untrusted lengths must be sanitized before they
//! size, bound, or index anything (interprocedural dataflow visitor).
//!
//! Every length, count, and offset in an LLM.265 stream is
//! attacker-controlled. The per-file passes catch `data[i]` in a decode
//! body; this pass catches the laundered variants — a wire-read length
//! returned through a helper, or a tainted argument handed to a callee
//! that allocates with it. The [`crate::dataflow`] engine computes
//! per-function summaries across the whole workspace, then this pass
//! replays each function in the audited crates unseeded and reports
//! tainted values reaching `Vec::with_capacity`/`vec![..; n]`/
//! `resize`/`reserve`, `for _ in 0..n` bounds, and slice indices, with a
//! source→sink witness chain. Sanitizers (diverging `LimitExceeded`
//! guards, `min`/`clamp` against a trusted bound, narrowing `try_from`)
//! clear the taint; justified exceptions carry
//! `// lint:allow(taint): <reason>`.

use std::collections::BTreeMap;

use crate::ast::index::Index;
use crate::dataflow::{self, Summaries};
use crate::report::Violation;
use crate::source::Workspace;
use crate::vocab::is_decode_root;

/// Runs the pass over the audited crates using a prebuilt index and
/// prebuilt dataflow summaries (shared across passes by the gate).
pub fn check_workspace(
    ws: &Workspace,
    index: &Index,
    sums: &Summaries,
    crates: &[&str],
) -> Vec<Violation> {
    let files: BTreeMap<&str, &crate::source::SourceFile> =
        ws.files().map(|f| (f.path.as_str(), f)).collect();
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (id, entry) in index.fns.iter().enumerate() {
        // The same roots as panic-reach and termination: decode-shaped
        // functions consume untrusted bytes; encode paths hashing their
        // own input are not wire-facing. Laundering helpers are still
        // followed — summaries cover the whole workspace.
        if !is_decode_root(entry, crates) {
            continue;
        }
        let analysis = dataflow::analyze(index, sums, id, false);
        for f in analysis.findings {
            if f.origin.root_param().is_some() {
                continue;
            }
            if files
                .get(entry.path.as_str())
                .is_some_and(|sf| sf.is_allowed(f.line, "taint"))
            {
                continue;
            }
            if !seen.insert((entry.path.clone(), f.line, f.what)) {
                continue;
            }
            let chain = witness_chain(sums, &entry.item.name, &f);
            out.push(
                Violation::new(
                    "wire-taint",
                    &entry.path,
                    f.line + 1,
                    format!(
                        "tainted value reaches {} `{}` without a sanitizer (source → sink: {}); \
                         guard with a diverging LimitExceeded check, `.min`/`.clamp` against a \
                         trusted bound, or a narrowing try_from",
                        f.what,
                        f.detail,
                        chain.join(" → "),
                    ),
                )
                .with_chain(chain),
            );
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Full source→sink chain: provenance hops (deepest read first), the
/// reporting function, then any callee hops down to the sink.
fn witness_chain(sums: &Summaries, fn_name: &str, f: &dataflow::Finding) -> Vec<String> {
    let mut chain = dataflow::origin_chain(sums, &f.origin);
    chain.push(fn_name.to_string());
    chain.extend(f.sink_hops.iter().cloned());
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::of(&[("llm265-bitstream", &[("crates/bitstream/src/lib.rs", src)])])
    }

    fn check(src: &str) -> Vec<Violation> {
        let w = ws(src);
        let index = w.build_index();
        check_workspace(
            &w,
            &index,
            &dataflow::summarize(&index),
            &["llm265-bitstream"],
        )
    }

    #[test]
    fn laundered_length_reports_chain_with_hop() {
        let v = check(
            "fn wire_len(data: &[u8]) -> usize { usize::from(data[0]) }\n\
             pub fn decode_block(data: &[u8]) -> Vec<u8> {\n    let n = wire_len(data);\n    Vec::with_capacity(n)\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("allocation size"), "{}", v[0].message);
        assert!(
            v[0].chain.iter().any(|h| h == "wire_len"),
            "{:?}",
            v[0].chain
        );
        assert!(
            v[0].chain.iter().any(|h| h == "decode_block"),
            "{:?}",
            v[0].chain
        );
    }

    #[test]
    fn syntax_layer_bypass_run_is_a_source() {
        let v = check(
            "fn parse_mode<D: BinSource>(dec: &mut D, modes: &[u8]) -> u8 {\n    let idx = dec.bypass_bits(6) as usize;\n    modes[idx]\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("slice index"), "{}", v[0].message);
        assert_eq!(v[0].chain[0], "bypass_bits()", "{:?}", v[0].chain);
        let v = check(
            "fn parse_mode<D: BinSource>(dec: &mut D, modes: &[u8]) -> Result<u8, E> {\n    let idx = dec.bypass_bits(6) as usize;\n    if idx >= modes.len() {\n        return Err(E::Corrupt);\n    }\n    Ok(modes[idx])\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    /// The value of `idx` comes from the `bypass_bits` run in the else
    /// arm; the `bit` in the `if` header only picks the arm, so the
    /// witness starts at the run.
    #[test]
    fn a_value_read_in_an_arm_outranks_the_header_read() {
        let v = check(
            "const T: [u8; 64] = [0; 64];\n\
             fn parse_mode<D: BinSource>(dec: &mut D, c: &mut Prob, prev: u8) -> u8 {\n    \
             let idx = if dec.bit(&mut c) { prev } else { dec.bypass_bits(6) as u8 };\n    \
             T[usize::from(idx)]\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("slice index"), "{}", v[0].message);
        assert_eq!(v[0].chain[0], "bypass_bits()", "{:?}", v[0].chain);
    }

    #[test]
    fn allow_marker_suppresses() {
        let v = check(
            "pub fn decode_block(data: &[u8]) -> Vec<u8> {\n    let n = usize::from(data[0]);\n    // lint:allow(taint): capacity is a hint, not a hard allocation\n    Vec::with_capacity(n)\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_crate_is_quiet() {
        let w = Workspace::of(&[(
            "llm265-bench",
            &[(
                "crates/bench/src/lib.rs",
                "pub fn decode_block(data: &[u8]) -> Vec<u8> {\n    Vec::with_capacity(usize::from(data[0]))\n}\n",
            )],
        )]);
        let index = w.build_index();
        let v = check_workspace(
            &w,
            &index,
            &dataflow::summarize(&index),
            &["llm265-bitstream"],
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
