//! Fig 5: probe-suite accuracy versus *measured* bits/value for weight
//! compression on the small ("7B-class stand-in") model.
//!
//! Like the paper's scatter, every point is (measured wire bits/value,
//! accuracy): LLM.265's rate includes all chunk/stream headers, and the
//! baselines' rates include their scale metadata (per-row or group
//! scales), which is what makes integer-bit baselines land at 4-5
//! measured bits for a "3-bit" grid. Paper shape: LLM.265 tracks the
//! BF16 accuracy line down to ~3 measured bits; the baselines need ~1
//! extra bit for the same accuracy, and the variable-rate search wins in
//! the extreme low-bit regime. Here the variable search (`LLM.265 var`)
//! settles on k = 0 at every budget, and the fixed rows' `Llm265Channel`
//! runs the same `Llm265Codec::encode` rate search, so the two sets of
//! rows coincide (see EXPERIMENTS.md).

use llm265_bench::table::{f, pct, Table};
use llm265_bench::workloads::{small_trained_lm, TrainedLm};
use llm265_core::rate::{allocate_variable, default_k_grid};
use llm265_core::{Llm265Channel, Llm265Codec};
use llm265_model::param::VisitParams;
use llm265_model::tasks::suite_accuracy;
use llm265_quant::awq::AwqQuantizer;
use llm265_quant::gptq::GptqQuantizer;
use llm265_quant::rtn::{GroupScheme, RtnQuantizer};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::{stats, Tensor};

/// One scatter point.
struct Point {
    method: String,
    bpv: f64,
    nmse: f64,
    acc: f64,
}

/// Mean NMSE between two models' weight matrices.
fn weight_nmse(
    a: &llm265_model::transformer::TransformerLm,
    b: &llm265_model::transformer::TransformerLm,
) -> f64 {
    let mut wa = Vec::new();
    let mut wb = Vec::new();
    let mut ma = a.clone();
    let mut mb = b.clone();
    ma.visit_params(&mut |p| {
        if p.is_weight_matrix() {
            wa.push(p.value.clone());
        }
    });
    mb.visit_params(&mut |p| {
        if p.is_weight_matrix() {
            wb.push(p.value.clone());
        }
    });
    let mut total = 0.0;
    for (x, y) in wa.iter().zip(&wb) {
        total += stats::tensor_mse(x, y) / stats::variance(x.data()).max(1e-30);
    }
    total / wa.len().max(1) as f64
}

/// Compresses with a per-tensor channel; returns a scatter point.
fn point(lm: &TrainedLm, method: &str, comp: &mut dyn LossyCompressor) -> Point {
    let mut m = lm.model.clone();
    let (bits, values) = m.compress_weights(comp);
    Point {
        method: method.to_string(),
        bpv: bits as f64 / values.max(1) as f64,
        nmse: weight_nmse(&lm.model, &m),
        acc: suite_accuracy(&m, &lm.tasks),
    }
}

/// LLM.265 variable mode: the footnote-2 `B = k·l + b` slope search over
/// the full weight stack, then decode back into the model.
fn variable_point(lm: &TrainedLm, avg_bits: f64) -> Point {
    let mut m = lm.model.clone();
    let mut weights: Vec<Tensor> = Vec::new();
    m.visit_params(&mut |p| {
        if p.is_weight_matrix() {
            weights.push(p.value.clone());
        }
    });
    let codec = Llm265Codec::new();
    let alloc = allocate_variable(&codec, &weights, avg_bits, &default_k_grid()).expect("alloc");
    let decoded: Vec<Tensor> = alloc
        .layers
        .iter()
        .map(|l| {
            use llm265_core::TensorCodec;
            codec.decode(&l.encoded).expect("decode")
        })
        .collect();
    let mut idx = 0;
    m.visit_params(&mut |p| {
        if p.is_weight_matrix() {
            p.value = decoded[idx].clone();
            idx += 1;
        }
    });
    Point {
        method: format!("LLM.265 var (k={:+.2})", alloc.k),
        bpv: alloc.bits_per_value(),
        nmse: weight_nmse(&lm.model, &m),
        acc: suite_accuracy(&m, &lm.tasks),
    }
}

fn main() {
    let lm = small_trained_lm(2026).expect("training data");
    let baseline_acc = lm.accuracy();
    println!("BF16 baseline accuracy: {}%", pct(baseline_acc));

    let mut points: Vec<Point> = Vec::new();
    for &bits in &[2.0, 2.5, 3.0, 3.5, 4.5] {
        points.push(point(
            &lm,
            &format!("LLM.265 fixed {bits}b"),
            &mut Llm265Channel::at_bits(bits),
        ));
    }
    for &bits in &[2.0, 2.5, 3.0] {
        points.push(variable_point(&lm, bits));
    }
    for b in [2u32, 3, 4] {
        points.push(point(
            &lm,
            &format!("RTN{b} per-row"),
            &mut RtnQuantizer::symmetric(b, GroupScheme::PerRow),
        ));
        points.push(point(
            &lm,
            &format!("GPTQ{b}"),
            &mut GptqAdapter { bits: b },
        ));
        points.push(point(&lm, &format!("AWQ{b}"), &mut AwqAdapter { bits: b }));
    }

    points.sort_by(|a, b| a.bpv.total_cmp(&b.bpv));
    let mut table = Table::new(vec![
        "method",
        "measured bits/value",
        "weight NMSE",
        "accuracy",
    ]);
    for p in &points {
        table.row(vec![
            p.method.clone(),
            f(p.bpv, 2),
            f(p.nmse, 4),
            pct(p.acc),
        ]);
    }
    table.print("Fig 5 — accuracy vs measured bits/value (weight compression)");
    println!("\nPaper shape: at equal measured bits LLM.265 sits on or above every baseline;");
    println!("its fractional rates fill the gaps integer grids cannot reach.");
}

struct GptqAdapter {
    bits: u32,
}

impl LossyCompressor for GptqAdapter {
    fn name(&self) -> String {
        format!("GPTQ{}", self.bits)
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let q = GptqQuantizer::with_synthetic_calibration(self.bits, 1 << 20, t.cols(), 96, 55);
        (q.apply(t), q.wire_bits(t))
    }
}

struct AwqAdapter {
    bits: u32,
}

impl LossyCompressor for AwqAdapter {
    fn name(&self) -> String {
        format!("AWQ{}", self.bits)
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let group = t.cols().min(32);
        let q = AwqQuantizer::with_synthetic_calibration(self.bits, group, t.cols(), 96, 66);
        (q.apply(t), q.wire_bits(t))
    }
}
