//! What a run prints: every metric by name with its unit, then the
//! one-line JSON result.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Digest of every request's output (streams or decoded tensors).
    pub output_digest: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics as aligned `name value unit` lines.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics.0 {
            let _ = writeln!(out, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16} of {} failed",
            "operations", self.failed, self.attempted
        );
        let _ = writeln!(
            out,
            "{:<36} inputs {:016x}, outputs {:016x}",
            "digests", self.input_digest, self.output_digest
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// Values print with every digit (`f64` Display is shortest
    /// round-trip and never uses an exponent).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn result_line_parses_with_every_digit() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms_p50", 1.203_456_789_012_3, "ms");
        metrics.push("tiny", 1.5e-9, "ratio");
        let r = Report {
            attempted: 300,
            failed: 0,
            metrics,
            input_digest: 0,
            output_digest: 0,
        };
        let v = Value::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(300.0));
        let m = v.get("metrics").expect("metrics");
        let lat = m.get("latency_ms_p50").expect("metric");
        assert_eq!(
            lat.get("value").and_then(Value::as_f64),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(lat.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(
            m.get("tiny")
                .and_then(|t| t.get("value"))
                .and_then(Value::as_f64),
            Some(1.5e-9)
        );
    }
}
