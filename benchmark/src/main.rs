//! End-to-end and per-layer benchmark of the LLM.265 tensor codec.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! benchmark compare <dir-a> <dir-b> [--spec <BENCHMARK.json>]
//! ```
//!
//! A run prints every metric by name with its unit, then, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}` as JSON. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans go to
//! `.bench_spans/<workload>-seed<n>.jsonl`. See README.md.

// As in the repository's crates, no unsafe code, except the counting
// allocator in `heap`.
#![deny(unsafe_code)]

mod check;
mod compare;
mod heap;
mod json;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod smoke;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::Options;
use workloads::{Name, FULL};

const USAGE: &str = "usage:
  benchmark --workload <ckpt-encode|load|grad-step|kv-cache> [--seed <n>] [--seconds <s>] [--trace 0|1]
  benchmark compare <dir-a> <dir-b> [--spec <BENCHMARK.json>]";

/// Measuring time when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        run_cmd(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, in order.
type Flags<'a> = Vec<(&'static str, &'a str)>;

/// Pulls `--flag value` pairs out of `args`; anything else is positional.
fn parse_flags<'a>(
    args: &'a [String],
    known: &[&'static str],
) -> Result<(Flags<'a>, Vec<&'a str>), String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = known.iter().find(|&&k| k == a) {
            let v = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
            flags.push((*flag, v.as_str()));
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}\n{USAGE}"));
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((flags, positional))
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {}\n{USAGE}", positional[0]));
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, DEFAULT_SECONDS, false);
    for (flag, v) in flags {
        let bad = || format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag {
            "--workload" => workload = Some(Name::parse(v).ok_or_else(bad)?),
            "--seed" => seed = v.parse().map_err(|_| bad())?,
            "--seconds" => seconds = v.parse().map_err(|_| bad())?,
            _ => {
                traced = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    let o = Options {
        workload,
        seed,
        seconds,
        size: FULL,
    };
    let outcome = if traced {
        run::traced(&o).and_then(|(report, trace)| {
            eprintln!("self time by span:");
            for (name, (s, n)) in trace.self_times() {
                eprintln!("  {name:<28} {:>10.3} ms over {n} spans", s * 1e3);
            }
            let path = PathBuf::from(".bench_spans")
                .join(format!("{}-seed{seed}.jsonl", workload.as_str()));
            std::fs::create_dir_all(".bench_spans")
                .and_then(|()| std::fs::write(&path, trace.to_jsonl()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(report)
        })
    } else {
        run::untraced(&o)
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.as_str());
            return Ok(ExitCode::FAILURE);
        }
    };
    print!("{}", report.table());
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args, &["--spec"])?;
    let [a, b] = positional[..] else {
        return Err(format!("compare takes two result directories\n{USAGE}"));
    };
    let spec_path = flags.first().map_or("BENCHMARK.json", |(_, v)| *v);
    let spec = compare::Spec::load(Path::new(spec_path))?;
    let (report, ok) = compare::compare(&spec, Path::new(a), Path::new(b))?;
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
