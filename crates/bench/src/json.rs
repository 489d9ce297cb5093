//! Hand-rolled JSON output for bench results.
//!
//! The workspace is offline and std-only, so there is no `serde`; this
//! module emits (and appends to) the small, fixed-shape documents that
//! make up the repo's `BENCH_*.json` perf trajectory. Every perf PR runs
//! the benches with `--json` and commits the result next to the code, so
//! regressions show up as a diff instead of folklore.
//!
//! Document shape:
//!
//! ```json
//! {
//!   "bench": "codec_throughput",
//!   "hardware_targets_mb_s": { "encode": 1100.0, "decode": 1300.0 },
//!   "runs": [
//!     {
//!       "label": "after-parallel",
//!       "threads_available": 8,
//!       "samples": [
//!         { "name": "encode/multichunk", "threads": 8,
//!           "median_s": 0.012, "min_s": 0.011,
//!           "bytes": 262144, "mb_per_s": 21.8 }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Appending a run re-uses the writer's own fixed layout: the file always
//! ends with `\n  ]\n}\n`, so a new run is spliced in before that suffix.
//! Only files produced by this module can be appended to.

use std::fs;
use std::io;
use std::path::Path;

use crate::microbench::Sample;

/// Suffix every document written by this module ends with; the append
/// path splices new runs immediately before it.
const DOC_SUFFIX: &str = "\n  ]\n}\n";

/// One benchmark sample plus the thread count it ran at.
#[derive(Debug, Clone)]
pub struct ThreadedSample {
    /// The timing summary from [`crate::microbench`].
    pub sample: Sample,
    /// Worker threads the codec was configured with for this sample.
    pub threads: usize,
}

/// One bench invocation's worth of results.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Human label distinguishing runs in the trajectory (e.g.
    /// `before-serial`, `after-parallel`).
    pub label: String,
    /// `std::thread::available_parallelism` on the machine that ran it.
    pub threads_available: usize,
    /// All recorded samples.
    pub samples: Vec<ThreadedSample>,
}

/// Reference throughput targets carried in the document header (the
/// `hardware::engine` NVENC/NVDEC envelope the software codec chases).
#[derive(Debug, Clone, Copy)]
pub struct HardwareTargets {
    /// Hardware encode throughput in MB/s.
    pub encode_mb_s: f64,
    /// Hardware decode throughput in MB/s.
    pub decode_mb_s: f64,
}

/// Writes `run` to `path`, creating the document if the file does not
/// exist and appending to the `runs` array if it does.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read or written, or
/// `InvalidData` if an existing file was not produced by this writer.
pub fn write_or_append(
    path: &Path,
    bench: &str,
    targets: HardwareTargets,
    run: &BenchRun,
) -> io::Result<()> {
    let run_text = render_run(run);
    let doc = match fs::read_to_string(path) {
        Ok(existing) => splice_run(&existing, &run_text)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => render_document(bench, targets, &run_text),
        Err(e) => return Err(e),
    };
    fs::write(path, doc)
}

/// Renders a fresh document holding one run.
fn render_document(bench: &str, targets: HardwareTargets, run_text: &str) -> String {
    format!(
        "{{\n  \"bench\": {},\n  \"hardware_targets_mb_s\": {{ \"encode\": {}, \"decode\": {} }},\n  \"runs\": [\n{run_text}{DOC_SUFFIX}",
        escape(bench),
        number(targets.encode_mb_s),
        number(targets.decode_mb_s),
    )
}

/// Splices a rendered run into an existing document's `runs` array.
fn splice_run(existing: &str, run_text: &str) -> io::Result<String> {
    let Some(body) = existing.strip_suffix(DOC_SUFFIX) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "existing bench JSON does not end with the writer's suffix; refusing to append",
        ));
    };
    Ok(format!("{body},\n{run_text}{DOC_SUFFIX}"))
}

/// Renders one run as an indented JSON object (no trailing newline).
fn render_run(run: &BenchRun) -> String {
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|ts| {
            format!(
                "\n        {{ \"name\": {}, \"threads\": {}, \"median_s\": {}, \"min_s\": {}, \"bytes\": {}, \"mb_per_s\": {} }}",
                escape(&ts.sample.name),
                ts.threads,
                number(ts.sample.median_s),
                number(ts.sample.min_s),
                ts.sample.bytes,
                ts.sample.mb_per_s().map_or_else(|| "null".to_string(), number),
            )
        })
        .collect();
    format!(
        "    {{\n      \"label\": {},\n      \"threads_available\": {},\n      \"samples\": [{}\n      ]\n    }}",
        escape(&run.label),
        run.threads_available,
        samples.join(","),
    )
}

/// Formats a float as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, both valid JSON.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal (quotes included).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, median: f64, bytes: u64) -> ThreadedSample {
        ThreadedSample {
            sample: Sample {
                name: name.to_string(),
                median_s: median,
                min_s: median * 0.9,
                bytes,
            },
            threads: 2,
        }
    }

    fn targets() -> HardwareTargets {
        HardwareTargets {
            encode_mb_s: 1100.0,
            decode_mb_s: 1300.0,
        }
    }

    #[test]
    fn fresh_document_has_expected_shape() {
        let run = BenchRun {
            label: "before".to_string(),
            threads_available: 4,
            samples: vec![sample("g/encode", 0.25, 1_000_000)],
        };
        let doc = render_document("codec", targets(), &render_run(&run));
        assert!(doc.starts_with("{\n  \"bench\": \"codec\""));
        assert!(doc.ends_with(DOC_SUFFIX));
        assert!(doc.contains("\"encode\": 1100.0"));
        assert!(doc.contains("\"name\": \"g/encode\""));
        assert!(doc.contains("\"median_s\": 0.25"));
        assert!(doc.contains("\"mb_per_s\": 4.0"));
        // Balanced braces/brackets — a cheap structural validity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = doc.matches(open).count();
            let c = doc.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn append_splices_a_second_run() {
        let mk = |label: &str| BenchRun {
            label: label.to_string(),
            threads_available: 1,
            samples: vec![sample("g/decode", 0.1, 0)],
        };
        let doc = render_document("codec", targets(), &render_run(&mk("before")));
        let doc = splice_run(&doc, &render_run(&mk("after"))).expect("append");
        assert!(doc.contains("\"label\": \"before\""));
        assert!(doc.contains("\"label\": \"after\""));
        assert!(doc.ends_with(DOC_SUFFIX));
        assert_eq!(doc.matches("\"samples\"").count(), 2);
        // Zero-byte samples carry no throughput.
        assert!(doc.contains("\"mb_per_s\": null"));
    }

    #[test]
    fn append_rejects_foreign_files() {
        let err = splice_run("not a bench document", "x").expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(2.5), "2.5");
    }

    #[test]
    fn roundtrip_through_disk_appends() {
        let dir = std::env::temp_dir().join("llm265_bench_json_test");
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("BENCH_test.json");
        if path.exists() {
            fs::remove_file(&path).expect("remove stale file");
        }
        let run = BenchRun {
            label: "r1".to_string(),
            threads_available: 2,
            samples: vec![sample("a/b", 0.5, 100)],
        };
        write_or_append(&path, "t", targets(), &run).expect("write");
        write_or_append(&path, "t", targets(), &run).expect("append");
        let doc = fs::read_to_string(&path).expect("read back");
        assert_eq!(doc.matches("\"label\": \"r1\"").count(), 2);
        fs::remove_file(&path).expect("remove test file");
    }
}
