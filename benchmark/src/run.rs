//! One run of one workload: the untraced run that gives the end-to-end
//! metrics, or the traced run that gives the per-layer ones.
//!
//! Load model: one process, one client, a closed loop. Requests go back
//! to back in a fixed order, and the list repeats in passes until the
//! time budget, set-ups included, is spent. Each request's latency is its
//! fastest pass. Each of the first passes starts from a fresh set-up, so
//! the set-up samples spread over the run like the request samples do.
//!
//! Why passes and minima: on a shared 2-vCPU VM the same deterministic
//! encode measures about 4.7 ms or 7.3–9 ms depending on the neighbours,
//! and the two states alternate every few seconds. Samples of one request
//! spread over a whole run let most requests see the fast state at least
//! once; interference only ever adds time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::check::{Failure, Fnv, Tally};
use crate::layers;
use crate::report::{Metrics, Report};
use crate::stats::{best_of, mb_per_s, median, percentile};
use crate::trace::Trace;
use crate::workloads::{codec, setup, Name, Size, Workload};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Name,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
}

/// Runs the workload untraced and reports the end-to-end metrics.
///
/// # Errors
///
/// Only a set-up that leaves nothing to measure ends the run without a
/// result; failed operations are counted in the report.
pub fn untraced(o: &Options) -> Result<Report, String> {
    untraced_with(o, |tally| {
        setup(o.workload, o.seed, &o.size, codec(1, None), tally)
    })
}

/// [`untraced`] over the workloads `make_setup` builds.
pub fn untraced_with(
    o: &Options,
    mut make_setup: impl FnMut(&mut Tally) -> Result<Box<dyn Workload>, Failure>,
) -> Result<Report, String> {
    let setups = o.size.setups.max(1);
    let mut setup_s = Vec::with_capacity(setups);
    let mut w: Option<Box<dyn Workload>> = None;
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    loop {
        if setup_s.len() < setups {
            // Drop the previous set-up first, so set-ups never overlap
            // in memory.
            drop(w.take());
            let t0 = Instant::now();
            let fresh = make_setup(&mut tally).map_err(|f| format!("set-up failed: {f}"))?;
            setup_s.push(t0.elapsed().as_secs_f64());
            w = Some(fresh);
        }
        let w = w.as_deref_mut().ok_or("no set-up ran")?;
        let t0 = Instant::now();
        passes.push(pass(w, &mut Trace::off(), &mut tally));
        pass_s.push(t0.elapsed().as_secs_f64());
        // The budget covers set-ups and passes; every set-up gets its
        // pass. Start another pass only if it should end within the
        // budget.
        let spent: f64 = setup_s.iter().chain(&pass_s).sum();
        if passes.len() >= setups && spent + pass_s[pass_s.len() - 1] > o.seconds {
            break;
        }
    }
    let w = w.ok_or("no set-up ran")?;
    eprintln!(
        "{}: {} passes of {} requests, {:.3?} s each, set-ups {:.3?} s",
        o.workload.as_str(),
        passes.len(),
        w.requests(),
        pass_s,
        setup_s
    );

    let latencies = best_of(&passes);
    let ms = |p: f64| percentile(&latencies, p).map_or(f64::NAN, |s| s * 1e3);
    let bytes: usize = (0..latencies.len()).map(|i| w.request_bytes(i)).sum();
    let q = w.quality();

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
    m.push("latency_ms_p50", ms(50.0), "ms");
    m.push("latency_ms_p90", ms(90.0), "ms");
    m.push(
        "throughput_mb_s",
        mb_per_s(bytes, latencies.iter().sum()),
        "MB/s",
    );
    m.push("bits_per_value", q.bits_per_value, "bits");
    m.push("nmse", q.nmse, "ratio");
    m.push("peak_heap_mib", crate::heap::peak_mib(), "MiB");
    Ok(finish(w.as_ref(), tally, m))
}

/// Runs the workload once untraced and once traced, then measures every
/// layer from outside, and reports the per-layer metrics with the spans.
///
/// # Errors
///
/// As [`untraced`].
pub fn traced(o: &Options) -> Result<(Report, Trace), String> {
    let probes = Arc::new(AtomicU64::new(0));
    let mut tally = Tally::default();
    let mut w = setup(
        o.workload,
        o.seed,
        &o.size,
        codec(1, Some(Arc::clone(&probes))),
        &mut tally,
    )
    .map_err(|f| format!("set-up failed: {f}"))?;
    let mut trace = Trace::on();
    let mut m = Metrics::default();

    let t0 = Instant::now();
    pass(w.as_mut(), &mut Trace::off(), &mut tally);
    let untraced_s = t0.elapsed().as_secs_f64();
    // Rate search of set-up plus one pass; read before anything else
    // encodes.
    let probes = probes.load(Ordering::Relaxed) as f64;
    let encodes = w.encodes();
    m.push(
        "rate.probes_per_encode",
        probes / encodes.count.max(1) as f64,
        "probes/encode",
    );
    m.push(
        "rate.ms_per_probe",
        encodes.seconds * 1e3 / probes.max(1.0),
        "ms",
    );
    pass(w.as_mut(), &mut trace, &mut tally);
    // Tracing adds only the spans' bookkeeping, so its overhead is the
    // time to record that many spans over the untraced pass. Comparing
    // whole passes instead reads the machine's drift, which moves pass
    // times by 10–30% between neighbouring passes.
    let overhead = Trace::recording_cost(trace.span_count()) / untraced_s;

    // A failure here leaves the stream layers without input; their
    // metrics then cannot be computed and fail the run in `finish`.
    let streams = w.streams().unwrap_or_else(|e| {
        tally.check(Err(e.into()));
        Vec::new()
    });
    let inputs = w.inputs();
    let archive = layers::frame_archive(&inputs, &streams).unwrap_or_else(|e| {
        tally.check(Err(e.into()));
        Vec::new()
    });
    let frames = layers::frames(&inputs, &mut trace, &mut m);
    layers::kernels(&frames, &mut trace, &mut tally, &mut m);
    layers::tiles(&frames, &mut trace, &mut m);
    layers::access(&codec(1, None), &streams, &mut trace, &mut tally, &mut m);
    layers::archive(&archive, &mut trace, &mut tally, &mut m);
    layers::pool(
        &codec(1, None),
        &codec(2, None),
        &streams,
        &mut trace,
        &mut m,
    );
    m.push("trace.overhead_frac", overhead, "ratio");
    Ok((finish(w.as_ref(), tally, m), trace))
}

/// Plays every request once; returns each one's codec-call time, failed
/// or not, and counts the failures in `tally`.
fn pass(w: &mut dyn Workload, trace: &mut Trace, tally: &mut Tally) -> Vec<f64> {
    w.begin_pass();
    (0..w.requests())
        .map(|i| {
            let (out, _) = trace.span("request", Some(i), |t| w.run(i, t));
            tally.record(i, out.result);
            out.seconds
        })
        .collect()
}

/// The report. A metric that could not be computed (say, NMSE when no
/// output decoded) counts as a failure and prints as 0, so the run still
/// reports, with `correct: false`.
fn finish(w: &dyn Workload, mut tally: Tally, mut metrics: Metrics) -> Report {
    for m in &mut metrics.0 {
        if !m.value.is_finite() {
            tally.check(Err(Failure::NoMetric(m.name.clone())));
            m.value = 0.0;
        }
    }
    let input_digest = w
        .inputs()
        .into_iter()
        .fold(Fnv::default(), Fnv::tensor)
        .finish();
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        input_digest,
        output_digest: tally.output_digest(),
    }
}
