//! A small MLP classifier for the paper's non-LM tasks.
//!
//! Fig 7 applies LLM.265 to models beyond LLMs (sentiment, retrieval,
//! VQA, image classification). Our stand-ins for those models are small
//! trained MLPs over synthetic feature datasets (see
//! [`crate::tasks::fig7_tasks`]); this module provides the classifier and
//! its training loop.

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::error::ModelError;
use crate::layers::{gelu, gelu_grad, Linear};
use crate::optimizer::Optimizer;
use crate::param::{Param, VisitParams};

/// A two-hidden-layer GELU MLP classifier.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    fc1: Linear,
    fc2: Linear,
    fc3: Linear,
}

impl MlpClassifier {
    /// Creates a classifier `in_dim → hidden → hidden → classes`.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, rng: &mut Pcg32) -> Self {
        MlpClassifier {
            fc1: Linear::new("mlp.fc1", in_dim, hidden, rng),
            fc2: Linear::new("mlp.fc2", hidden, hidden, rng),
            fc3: Linear::new("mlp.fc3", hidden, classes, rng),
        }
    }

    /// Class logits for a batch of feature rows.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let h1 = self.fc1.forward_inference(x).map(gelu);
        let h2 = self.fc2.forward_inference(&h1).map(gelu);
        self.fc3.forward_inference(&h2)
    }

    /// Returns `(logits, p1, p2)` where `p1`/`p2` are the pre-activations
    /// of fc1/fc2 — handing them to the caller directly (instead of
    /// stashing them in an `Option` field) keeps the backward pass free of
    /// "saved activations" unwraps.
    fn forward_train(&mut self, x: &Tensor) -> (Tensor, Tensor, Tensor) {
        let p1 = self.fc1.forward(x);
        let h1 = p1.map(gelu);
        let p2 = self.fc2.forward(&h1);
        let h2 = p2.map(gelu);
        let out = self.fc3.forward(&h2);
        (out, p1, p2)
    }

    /// One cross-entropy training step; returns the mean loss.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the layers' backward passes
    /// (unreachable here: the step always runs the forward pass first).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut dyn Optimizer,
    ) -> Result<f64, ModelError> {
        assert_eq!(labels.len(), x.rows(), "label count mismatch");
        self.zero_grads();
        let (mut logits, p1, p2) = self.forward_train(x);
        crate::layers::softmax_rows(&mut logits);
        let mut loss = 0.0f64;
        let n = labels.len() as f32;
        let mut dlogits = logits;
        for (r, &y) in labels.iter().enumerate() {
            let p = dlogits[(r, y)].max(1e-12);
            loss += -(p as f64).ln();
            dlogits[(r, y)] -= 1.0;
        }
        dlogits.scale(1.0 / n);

        let dh2 = self.fc3.backward(&dlogits)?;
        let dp2 = Tensor::from_fn(dh2.rows(), dh2.cols(), |r, c| {
            dh2[(r, c)] * gelu_grad(p2[(r, c)])
        });
        let dh1 = self.fc2.backward(&dp2)?;
        let dp1 = Tensor::from_fn(dh1.rows(), dh1.cols(), |r, c| {
            dh1[(r, c)] * gelu_grad(p1[(r, c)])
        });
        self.fc1.backward(&dp1)?;
        opt.step(self);
        Ok(loss / labels.len() as f64)
    }

    /// Classification accuracy on a labeled batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        let logits = self.logits(x);
        let mut correct = 0usize;
        for (r, &y) in labels.iter().enumerate() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == y {
                correct += 1;
            }
        }
        correct as f64 / labels.len().max(1) as f64
    }

    /// Embedding of the last hidden layer (used by the retrieval task).
    pub fn embed(&self, x: &Tensor) -> Tensor {
        let h1 = self.fc1.forward_inference(x).map(gelu);
        self.fc2.forward_inference(&h1).map(gelu)
    }

    /// Transcodes every weight matrix through `compressor`; returns
    /// `(bits, values)`. Tensors below
    /// [`crate::transformer::MIN_COMPRESS_VALUES`] stay FP16 (see the
    /// rationale there).
    pub fn compress_weights(&mut self, compressor: &mut dyn LossyCompressor) -> (u64, u64) {
        let mut bits = 0u64;
        let mut values = 0u64;
        self.visit_params(&mut |p| {
            if p.is_weight_matrix() {
                if p.value.len() >= crate::transformer::MIN_COMPRESS_VALUES {
                    let (out, b) = compressor.transcode(&p.value);
                    p.value = out;
                    bits += b;
                } else {
                    bits += p.value.len() as u64 * 16;
                }
                values += p.value.len() as u64;
            }
        });
        (bits, values)
    }
}

impl VisitParams for MlpClassifier {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit(f);
        self.fc2.visit(f);
        self.fc3.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;

    /// Two Gaussian blobs, linearly separable.
    fn blobs(n: usize, dim: usize, rng: &mut Pcg32) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let class = (r % 2) as f64;
            for c in 0..dim {
                let center = if class == 0.0 { -1.0 } else { 1.0 };
                x[(r, c)] = (center * ((c % 3) as f64 * 0.4 + 0.4) + 0.5 * rng.normal()) as f32;
            }
            labels.push(class as usize);
        }
        (x, labels)
    }

    #[test]
    fn learns_separable_blobs() {
        let mut rng = Pcg32::seed_from(1);
        let mut model = MlpClassifier::new(8, 16, 2, &mut rng);
        let (x, y) = blobs(128, 8, &mut rng);
        let mut opt = Adam::new(5e-3);
        let before = model.accuracy(&x, &y);
        for _ in 0..60 {
            model.train_step(&x, &y, &mut opt).expect("train step");
        }
        let after = model.accuracy(&x, &y);
        assert!(after > 0.95, "accuracy {after} (before {before})");
        // Generalizes to fresh samples from the same blobs.
        let (xt, yt) = blobs(128, 8, &mut rng);
        assert!(model.accuracy(&xt, &yt) > 0.9);
    }

    #[test]
    fn loss_decreases() {
        let mut rng = Pcg32::seed_from(2);
        let mut model = MlpClassifier::new(6, 12, 3, &mut rng);
        let x = Tensor::from_fn(48, 6, |r, c| {
            ((r % 3) as f32 - 1.0) * (c as f32 + 1.0) * 0.3
        });
        let y: Vec<usize> = (0..48).map(|r| r % 3).collect();
        let mut opt = Adam::new(5e-3);
        let first = model.train_step(&x, &y, &mut opt).expect("train step");
        let mut last = first;
        for _ in 0..50 {
            last = model.train_step(&x, &y, &mut opt).expect("train step");
        }
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn weight_compression_degrades_gracefully() {
        struct Coarse;
        impl LossyCompressor for Coarse {
            fn name(&self) -> String {
                "coarse".into()
            }
            fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
                // Heavy 1.5-level rounding.
                let m = t.max_abs().max(1e-6);
                (t.map(|v| (v / m).round() * m), t.len() as u64)
            }
        }
        // Hidden width 32 keeps every matrix above MIN_COMPRESS_VALUES so
        // the small-tensor FP16 exemption does not kick in here.
        let mut rng = Pcg32::seed_from(3);
        let mut model = MlpClassifier::new(16, 32, 2, &mut rng);
        let (x, y) = blobs(128, 16, &mut rng);
        let mut opt = Adam::new(5e-3);
        for _ in 0..60 {
            model.train_step(&x, &y, &mut opt).expect("train step");
        }
        let clean = model.accuracy(&x, &y);
        let (bits, values) = model.compress_weights(&mut Coarse);
        // fc1 (512) and fc2 (1024) compress at 1 bit/value; the 64-value
        // head stays FP16 at 16 bits/value.
        assert_eq!(bits, 512 + 1024 + 64 * 16);
        assert_eq!(values, 512 + 1024 + 64);
        let damaged = model.accuracy(&x, &y);
        assert!(damaged <= clean, "damage cannot improve training accuracy");
    }

    #[test]
    fn embed_has_hidden_width() {
        let mut rng = Pcg32::seed_from(4);
        let model = MlpClassifier::new(5, 11, 2, &mut rng);
        let x = Tensor::zeros(3, 5);
        assert_eq!(model.embed(&x).shape(), (3, 11));
    }
}
