//! `cargo run -p xtask -- lint [--format text|json] [--root PATH]
//! [--baseline PATH] [--no-baseline] [--write-baseline] [--pass NAME]
//! [--explain FINDING-ID] [--sweep] [--schema] [--sarif PATH] [--timings]`

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::baseline::Baseline;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut format = "text".to_string();
    let mut root = default_root();
    let mut baseline_path: Option<PathBuf> = None;
    let mut use_baseline = true;
    let mut write_baseline = false;
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
            "--baseline" => {
                let Some(v) = it.next() else {
                    eprintln!("--baseline needs a path");
                    return ExitCode::from(2);
                };
                baseline_path = Some(PathBuf::from(v));
            }
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
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

    // Report-only panic-reach sweep over the non-hot-path crates: debt
    // inventory, never a gate failure.
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

    let baseline_path =
        baseline_path.unwrap_or_else(|| root.join("crates").join("xtask").join("baseline.toml"));

    // Regeneration mode: run all passes raw and overwrite the ratchet file.
    if write_baseline {
        return match xtask::run_lint(&root, None) {
            Ok(report) => {
                let b = Baseline::from_violations(&report.violations);
                match std::fs::write(&baseline_path, b.to_toml()) {
                    Ok(()) => {
                        println!(
                            "wrote {} ({} finding(s) across {} pass(es))",
                            baseline_path.display(),
                            report.violations.len(),
                            b.counts.len()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("write {}: {e}", baseline_path.display());
                        ExitCode::from(2)
                    }
                }
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Gate mode: a missing baseline file is an empty baseline (everything
    // is new); an unparsable one is a hard error.
    let baseline = if use_baseline {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("xtask lint: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) => None,
        }
    } else {
        None
    };

    match xtask::run_lint_timed(&root, baseline.as_ref()) {
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
                report.baselined.retain(|v| v.pass == pass.as_str());
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

/// `--explain pass@path:line`: re-runs the gate without a baseline and
/// prints the matching finding in full, witness chain included.
fn run_explain(root: &std::path::Path, id: &str) -> ExitCode {
    let report = match xtask::run_lint(root, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(v) = report.violations.iter().find(|v| v.id() == id) else {
        eprintln!(
            "no finding with id `{id}` (ids look like `wire-taint@crates/bitstream/src/lz4.rs:42`; \
             run `lint --no-baseline --format json` to list current ids)"
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
        "determinism" => "determinism",
        "error-discipline" => "error",
        "range-proof" => "range",
        "termination" => "term",
        "interference" => "interfere",
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
/// audit (model, bench). With `crates/xtask/sweep-budget.txt` present the
/// sweep is a ratchet: the file holds the accepted finding count and the
/// job fails if the live count grows past it. Without the file it stays a
/// report-only debt inventory.
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
    // inventory vacuously empty.
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
    let budget_path = root.join("crates").join("xtask").join("sweep-budget.txt");
    let budget = std::fs::read_to_string(&budget_path)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok());
    match budget {
        Some(budget) => {
            println!(
                "sweep: {} panic-reach finding(s) across {} (budget {budget})",
                findings.len(),
                SWEEP_CRATES.join(", ")
            );
            if findings.len() > budget {
                eprintln!(
                    "sweep: finding count grew past the ratchet ({} > {budget}); \
                     fix the new panic paths or raise {} with a justification",
                    findings.len(),
                    budget_path.display()
                );
                ExitCode::FAILURE
            } else {
                if findings.len() < budget {
                    eprintln!(
                        "sweep: debt shrank ({} < {budget}) — ratchet down {}",
                        findings.len(),
                        budget_path.display()
                    );
                }
                ExitCode::SUCCESS
            }
        }
        None => {
            println!(
                "sweep: {} panic-reach finding(s) across {} (report-only)",
                findings.len(),
                SWEEP_CRATES.join(", ")
            );
            ExitCode::SUCCESS
        }
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
         \x20 --baseline PATH      ratchet file (default: crates/xtask/baseline.toml)\n\
         \x20 --no-baseline        report every finding as failing\n\
         \x20 --write-baseline     regenerate the ratchet file from current findings\n\
         \x20 --pass NAME          run the gate but report one pass only\n\
         \x20 --explain ID         explain one finding (ID = pass@path:line)\n\
         \x20 --sweep              panic-reach sweep of model/bench (ratchets\n\
         \x20                      against crates/xtask/sweep-budget.txt)\n\
         \x20 --schema             regenerate the wire-format spec (FORMAT.md +\n\
         \x20                      wire-schema.json; drift-checked in CI)\n\
         \x20 --sarif PATH         also write the gate report as SARIF 2.1.0\n\
         \x20 --timings            print per-pass wall time after the gate run\n\n\
         Passes: float-cmp, hygiene, determinism, error-discipline, wire-taint,\n\
         panic-reach, range-proof, termination, interference, wire-schema\n\
         (see crates/xtask/src/lib.rs)"
    );
}
