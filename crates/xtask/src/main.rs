//! `cargo run -p xtask -- lint [--format text|json] [--root PATH]
//! [--pass NAME] [--explain FINDING-ID] [--sweep] [--schema] [--sarif PATH]
//! [--timings]`

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut format = "text".to_string();
    let mut root = default_root();
    let mut only_pass: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut sweep = false;
    let mut schema = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut timings = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" => cmd = Some("lint"),
            "--format" => {
                let Some(v) = it.next() else {
                    eprintln!("--format needs a value (text|json)");
                    return ExitCode::from(2);
                };
                format = v.clone();
            }
            "--root" => {
                let Some(v) = it.next() else {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(v);
            }
            "--pass" => {
                let Some(v) = it.next() else {
                    eprintln!("--pass needs a pass name ({})", xtask::PASSES.join(", "));
                    return ExitCode::from(2);
                };
                if !xtask::PASSES.contains(&v.as_str()) {
                    eprintln!(
                        "unknown pass `{v}`; available: {}",
                        xtask::PASSES.join(", ")
                    );
                    return ExitCode::from(2);
                }
                only_pass = Some(v.clone());
            }
            "--explain" => {
                let Some(v) = it.next() else {
                    eprintln!("--explain needs a finding id (pass@path:line)");
                    return ExitCode::from(2);
                };
                explain = Some(v.clone());
            }
            "--sweep" => sweep = true,
            "--schema" => schema = true,
            "--timings" => timings = true,
            "--sarif" => {
                let Some(v) = it.next() else {
                    eprintln!("--sarif needs an output path");
                    return ExitCode::from(2);
                };
                sarif_path = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                print_help();
                return ExitCode::from(2);
            }
        }
    }
    if cmd != Some("lint") {
        print_help();
        return ExitCode::from(2);
    }

    // Panic-reach sweep over the non-hot-path crates: any finding fails.
    if sweep {
        return run_sweep(&root);
    }

    if let Some(id) = explain {
        return run_explain(&root, &id);
    }

    // Spec mode: serialize the extracted wire grammar to the committed
    // format spec (FORMAT.md + wire-schema.json at the workspace root).
    if schema {
        return run_schema(&root);
    }

    match xtask::run_lint_timed(&root) {
        Ok((mut report, pass_times)) => {
            if timings {
                let mut total = std::time::Duration::ZERO;
                for (name, t) in &pass_times {
                    println!("timing: {name} {:.1}ms", t.as_secs_f64() * 1e3);
                    total += *t;
                }
                println!(
                    "timing: total {:.1}ms across {} passes",
                    total.as_secs_f64() * 1e3,
                    xtask::PASSES.len()
                );
            }
            if let Some(pass) = &only_pass {
                report.violations.retain(|v| v.pass == pass.as_str());
                report.passes_run.retain(|p| *p == pass.as_str());
            }
            if let Some(path) = &sarif_path {
                if let Err(e) = std::fs::write(path, report.to_sarif()) {
                    eprintln!("write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            match format.as_str() {
                "json" => println!("{}", report.to_json()),
                _ => print!("{}", report.to_text()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--explain pass@path:line`: re-runs the gate and prints the matching finding in full, witness chain included.
fn run_explain(root: &std::path::Path, id: &str) -> ExitCode {
    let report = match xtask::run_lint(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(v) = report.violations.iter().find(|v| v.id() == id) else {
        eprintln!(
            "no finding with id `{id}` (ids look like `wire-taint@crates/bitstream/src/lz4.rs:42`; \
             run `lint --format json` to list current ids)"
        );
        return ExitCode::from(2);
    };
    println!("finding {id}");
    println!("  pass:     {}", v.pass);
    println!("  location: {}:{}", v.path, v.line);
    println!("  message:  {}", v.message);
    if !v.chain.is_empty() {
        println!("  witness chain:");
        for (i, hop) in v.chain.iter().enumerate() {
            println!("    {}{hop}", "  ".repeat(i));
        }
    }
    let allow = match v.pass {
        "wire-taint" => "taint",
        "panic-reach" => "panic",
        "float-cmp" => "float-cmp",
        "error-discipline" => "error",
        "range-proof" => "range",
        "termination" => "term",
        "wire-schema" => "schema",
        _ => "",
    };
    if !allow.is_empty() {
        println!("  suppress (with a reason): // lint:allow({allow}): <why>");
    }
    ExitCode::SUCCESS
}

/// `--schema`: regenerates `FORMAT.md` and `wire-schema.json` at the
/// workspace root from the wire grammars the `wire-schema` pass extracts.
/// CI regenerates both and fails on any diff against the committed copies.
fn run_schema(root: &std::path::Path) -> ExitCode {
    let ws = match xtask::source::Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint --schema: {e}");
            return ExitCode::from(2);
        }
    };
    let contracts = match xtask::passes::range_proof::load_contracts(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask lint --schema: {e}");
            return ExitCode::from(2);
        }
    };
    let index = ws.build_index();
    let (md, json) = xtask::passes::wire_schema::spec(&index, &contracts);
    for (name, text) in [("FORMAT.md", &md), ("wire-schema.json", &json)] {
        let path = root.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// `--sweep`: panic-reachability over the crates outside the panic-free
/// audit (model, bench). Any finding fails: new model/bench code returns
/// an error type instead of panicking.
fn run_sweep(root: &std::path::Path) -> ExitCode {
    const SWEEP_CRATES: &[&str] = &["llm265-model", "llm265-bench"];
    let ws = match xtask::source::Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint --sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let index = ws.build_index();
    // The sweep walks from *every* public API: model/bench expose no
    // decode-shaped functions, so the gate's root policy would make the
    // sweep vacuously empty.
    let findings = xtask::passes::panic_reach::check_workspace_with_policy(
        &ws,
        &index,
        SWEEP_CRATES,
        xtask::PANIC_FREE_CRATES,
        xtask::passes::panic_reach::RootPolicy::AllPublicApis,
    );
    for v in &findings {
        println!("{}:{}: [sweep] {}", v.path, v.line, v.message);
    }
    println!(
        "sweep: {} panic-reach finding(s) across {}",
        findings.len(),
        SWEEP_CRATES.join(", ")
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// else the current directory.
fn default_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|d| PathBuf::from(d).parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn print_help() {
    println!(
        "xtask — workspace static-analysis gate\n\n\
         USAGE: cargo run -p xtask -- lint [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20 --format text|json   report format (default text)\n\
         \x20 --root PATH          workspace root (default: auto-detected)\n\
         \x20 --pass NAME          run the gate but report one pass only\n\
         \x20 --explain ID         explain one finding (ID = pass@path:line)\n\
         \x20 --sweep              panic-reach sweep of model/bench (fails on any\n\
         \x20                      finding)\n\
         \x20 --schema             regenerate the wire-format spec (FORMAT.md +\n\
         \x20                      wire-schema.json; drift-checked in CI)\n\
         \x20 --sarif PATH         also write the gate report as SARIF 2.1.0\n\
         \x20 --timings            print per-pass wall time after the gate run\n\n\
         Passes: float-cmp, hygiene, error-discipline, wire-taint, panic-reach,\n\
         range-proof, termination, wire-schema\n\
         (see crates/xtask/src/lib.rs)"
    );
}
