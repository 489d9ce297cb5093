//! Every workload end to end at a test-only size: the metrics a run
//! prints are exactly the ones `BENCHMARK.json` declares, and the seed
//! alone decides the inputs and the streams.

use std::collections::BTreeSet;
use std::path::Path;

use llm265_core::{CodecError, EncodedTensor};
use llm265_tensor::Tensor;

use crate::check::{self, Outcome};
use crate::compare::Spec;
use crate::report::Report;
use crate::run::{self, Options};
use crate::trace::Trace;
use crate::workloads::{self, EncodeLog, Name, Quality, Workload, TINY};

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root parses")
}

fn tiny(workload: Name, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        size: TINY,
    }
}

fn names(r: &Report) -> BTreeSet<String> {
    r.metrics.0.iter().map(|m| m.name.clone()).collect()
}

fn declared(m: &[crate::compare::MetricSpec]) -> BTreeSet<String> {
    m.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn declared_workloads_are_the_ones_that_run() {
    let declared: Vec<String> = spec().workloads;
    let ours: Vec<String> = Name::ALL.iter().map(|n| n.as_str().to_string()).collect();
    assert_eq!(declared, ours);
}

fn smoke(w: Name) {
    let spec = spec();
    let a = run::untraced(&tiny(w, 1)).expect("untraced run");
    assert!(a.correct(), "{} of {} failed", a.failed, a.attempted);
    assert_eq!(names(&a), declared(&spec.end_to_end));
    for m in &a.metrics.0 {
        let unit = &spec
            .end_to_end
            .iter()
            .find(|s| s.name == m.name)
            .expect("declared")
            .unit;
        assert_eq!(m.unit, unit, "{}", m.name);
        assert!(m.value > 0.0, "{} = {}", m.name, m.value);
    }

    // The traced run replays the same requests from its own set-up.
    let (t, trace) = run::traced(&tiny(w, 1)).expect("traced run");
    assert!(t.correct(), "{} of {} failed", t.failed, t.attempted);
    assert_eq!(names(&t), declared(&spec.per_layer));
    for m in &t.metrics.0 {
        let unit = &spec
            .per_layer
            .iter()
            .find(|s| s.name == m.name)
            .expect("declared")
            .unit;
        assert_eq!(m.unit, unit, "{}", m.name);
    }
    assert!(trace.self_times().contains_key("request"));
    assert_eq!(a.input_digest, t.input_digest);
    assert_eq!(a.output_digest, t.output_digest);

    let other = run::untraced(&tiny(w, 2)).expect("untraced run");
    assert_ne!(a.input_digest, other.input_digest);
    assert_ne!(a.output_digest, other.output_digest);
}

#[test]
fn ckpt_encode_end_to_end() {
    smoke(Name::CkptEncode);
}

#[test]
fn load_end_to_end() {
    smoke(Name::Load);
}

#[test]
fn grad_step_end_to_end() {
    smoke(Name::GradStep);
}

#[test]
fn kv_cache_end_to_end() {
    smoke(Name::KvCache);
}

/// A workload whose request `bad` always fails, as a missed bits target.
struct FailsOne {
    inner: Box<dyn Workload>,
    bad: usize,
}

impl Workload for FailsOne {
    fn requests(&self) -> usize {
        self.inner.requests()
    }

    fn request_bytes(&self, i: usize) -> usize {
        self.inner.request_bytes(i)
    }

    fn begin_pass(&mut self) {
        self.inner.begin_pass();
    }

    fn run(&mut self, i: usize, trace: &mut Trace) -> Outcome {
        let out = self.inner.run(i, trace);
        if i != self.bad {
            return out;
        }
        Outcome {
            seconds: out.seconds,
            result: check::target(3.5, 3.0).map(|()| 0),
        }
    }

    fn quality(&self) -> Quality {
        self.inner.quality()
    }

    fn inputs(&self) -> Vec<&Tensor> {
        self.inner.inputs()
    }

    fn streams(&self) -> Result<Vec<EncodedTensor>, CodecError> {
        self.inner.streams()
    }

    fn encodes(&self) -> EncodeLog {
        self.inner.encodes()
    }
}

#[test]
fn a_request_that_always_fails_is_counted_and_the_run_still_reports() {
    let o = tiny(Name::CkptEncode, 1);
    let r = run::untraced_with(&o, |tally| {
        let inner = workloads::setup(
            o.workload,
            o.seed,
            &o.size,
            workloads::codec(1, None),
            tally,
        )?;
        Ok(Box::new(FailsOne { inner, bad: 7 }))
    })
    .expect("the run reports");
    assert_eq!(r.failed, 1, "one pass, one failing request");
    assert!(!r.correct());
    // Every metric still prints, the p90 included.
    assert_eq!(names(&r), declared(&spec().end_to_end));
    for m in &r.metrics.0 {
        assert!(m.value > 0.0, "{} = {}", m.name, m.value);
    }
}
