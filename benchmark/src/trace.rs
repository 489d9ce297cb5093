//! Spans recorded from the outside, around the benchmark's calls into
//! each codec layer's public functions.
//!
//! A span has a name, a start, an end, the span open around it and the
//! request it belongs to. Spans stay in memory and are written out when
//! the traced run ends. With recording off, [`Trace::span`] only times
//! the call, which is how the untraced run measures its latencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<usize>,
}

#[derive(Debug)]
pub struct Trace {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Times calls without recording spans.
    pub fn off() -> Self {
        Trace {
            recording: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Times calls and records a span around each.
    pub fn on() -> Self {
        Trace {
            recording: true,
            ..Trace::off()
        }
    }

    /// Runs `f` and returns its result with its duration in seconds.
    /// When recording, a span named `name` is kept, nested under the
    /// innermost span still open; `f` receives the trace to open child
    /// spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> (R, f64) {
        if !self.recording {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        self.open.pop();
        let s = &mut self.spans[idx];
        s.start_ns = nanos(t0 - self.origin);
        s.end_ns = nanos(t1 - self.origin);
        (r, (t1 - t0).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Seconds to record `n` spans around empty calls: what recording
    /// adds to the calls it wraps.
    pub fn recording_cost(n: usize) -> f64 {
        let mut t = Trace::on();
        let t0 = Instant::now();
        for i in 0..n {
            t.span("cost", Some(i), |_| ());
        }
        let cost = t0.elapsed().as_secs_f64();
        std::hint::black_box(&t.spans);
        cost
    }

    /// Total self time per span name, in seconds, with the span count: a
    /// span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut t = Trace::on();
        let (_, outer) = t.span("outer", Some(7), |t| {
            spin(10_000);
            t.span("inner", Some(7), |_| spin(50_000)).1
        });
        let times = t.self_times();
        let (outer_self, n_outer) = times["outer"];
        let (inner_self, n_inner) = times["inner"];
        assert_eq!((n_outer, n_inner), (1, 1));
        assert!((outer_self + inner_self - outer).abs() < 1e-6);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\": \"inner\"") && lines.contains("\"parent\": 0"));
    }

    #[test]
    fn recording_off_keeps_no_spans_but_still_times() {
        let mut t = Trace::off();
        let (v, s) = t.span("x", None, |_| spin(1000));
        assert_eq!(v, spin(1000));
        assert!(s >= 0.0);
        assert!(t.self_times().is_empty());
        assert_eq!(t.span_count(), 0);
        assert!(Trace::recording_cost(10_000) > 0.0);
    }
}
