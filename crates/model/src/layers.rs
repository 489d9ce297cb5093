//! Basic neural layers with hand-written backprop.
//!
//! Each layer stores whatever the backward pass needs during forward;
//! `backward` consumes the upstream gradient, accumulates parameter
//! gradients and returns the input gradient. Every backward pass is
//! checked against finite differences in the test module.

use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::error::ModelError;
use crate::param::Param;

/// Fully connected layer: `y = x Wᵀ + b` with `W: out × in`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`out × in`).
    pub w: Param,
    /// Bias (`1 × out`).
    pub b: Param,
    saved_x: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with scaled-normal weights and zero bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut Pcg32) -> Self {
        let std = 0.02_f64.min(1.0 / (in_dim as f64).sqrt());
        Linear {
            w: Param::randn(format!("{name}.w"), out_dim, in_dim, std, rng),
            b: Param::constant(format!("{name}.b"), 1, out_dim, 0.0),
            saved_x: None,
        }
    }

    /// Forward pass over a batch of rows (`n × in`).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w.value.transposed());
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b.value.row(0)) {
                *v += bias;
            }
        }
        self.saved_x = Some(x.clone());
        y
    }

    /// Inference-only forward (does not save activations).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w.value.transposed());
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, &bias) in row.iter_mut().zip(self.b.value.row(0)) {
                *v += bias;
            }
        }
        y
    }

    /// Backward pass; returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// [`ModelError::BackwardBeforeForward`] if called before `forward`
    /// (there is no saved input to form the weight gradient from).
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor, ModelError> {
        let x = self
            .saved_x
            .take()
            .ok_or(ModelError::BackwardBeforeForward("Linear"))?;
        // dW += dyᵀ x ; db += Σrows dy ; dx = dy W.
        let dw = dy.transposed().matmul(&x);
        self.w.grad.add_assign(&dw);
        for r in 0..dy.rows() {
            let db = self.b.grad.row_mut(0);
            for (g, &d) in db.iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
        Ok(dy.matmul(&self.w.value))
    }

    /// Visits this layer's parameters.
    pub fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// Layer normalization over each row, with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain (`1 × dim`).
    pub gamma: Param,
    /// Bias (`1 × dim`).
    pub beta: Param,
    eps: f32,
    saved: Option<(Tensor, Vec<f32>, Vec<f32>)>, // (normalized x̂, mean, inv_std)
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features.
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: Param::constant(format!("{name}.gamma"), 1, dim, 1.0),
            beta: Param::constant(format!("{name}.beta"), 1, dim, 0.0),
            eps: 1e-5,
            saved: None,
        }
    }

    /// Forward pass (`n × dim`).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, xhat, mean, inv_std) = self.compute(x);
        self.saved = Some((xhat, mean, inv_std));
        y
    }

    /// Inference-only forward.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.compute(x).0
    }

    fn compute(&self, x: &Tensor) -> (Tensor, Tensor, Vec<f32>, Vec<f32>) {
        let d = x.cols();
        let mut y = Tensor::zeros(x.rows(), d);
        let mut xhat = Tensor::zeros(x.rows(), d);
        let mut means = Vec::with_capacity(x.rows());
        let mut inv_stds = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for c in 0..d {
                let h = (row[c] - mean) * inv_std;
                xhat[(r, c)] = h;
                y[(r, c)] = h * self.gamma.value[(0, c)] + self.beta.value[(0, c)];
            }
            means.push(mean);
            inv_stds.push(inv_std);
        }
        (y, xhat, means, inv_stds)
    }

    /// Backward pass; returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// [`ModelError::BackwardBeforeForward`] if called before `forward`
    /// (there are no saved normalized activations).
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor, ModelError> {
        let (xhat, _means, inv_stds) = self
            .saved
            .take()
            .ok_or(ModelError::BackwardBeforeForward("LayerNorm"))?;
        let d = dy.cols();
        let mut dx = Tensor::zeros(dy.rows(), d);
        for r in 0..dy.rows() {
            // Accumulate parameter grads.
            for c in 0..d {
                self.gamma.grad[(0, c)] += dy[(r, c)] * xhat[(r, c)];
                self.beta.grad[(0, c)] += dy[(r, c)];
            }
            // dx̂ = dy·γ; dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂)) · inv_std.
            let mut dxhat = vec![0.0f32; d];
            for c in 0..d {
                dxhat[c] = dy[(r, c)] * self.gamma.value[(0, c)];
            }
            let m1 = dxhat.iter().sum::<f32>() / d as f32;
            let m2 = dxhat
                .iter()
                .enumerate()
                .map(|(c, &g)| g * xhat[(r, c)])
                .sum::<f32>()
                / d as f32;
            for c in 0..d {
                dx[(r, c)] = (dxhat[c] - m1 - xhat[(r, c)] * m2) * inv_stds[r];
            }
        }
        Ok(dx)
    }

    /// Visits this layer's parameters.
    pub fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Token embedding table (`vocab × dim`).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table.
    pub table: Param,
    saved_ids: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates a table for `vocab` tokens of `dim` features.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut Pcg32) -> Self {
        Embedding {
            table: Param::randn(format!("{name}.table"), vocab, dim, 0.02, rng),
            saved_ids: None,
        }
    }

    /// Looks up a sequence of token ids (`n × dim` output).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let out = self.lookup(ids);
        self.saved_ids = Some(ids.to_vec());
        out
    }

    /// Inference-only lookup.
    pub fn lookup(&self, ids: &[usize]) -> Tensor {
        let dim = self.table.value.cols();
        let mut out = Tensor::zeros(ids.len(), dim);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.table.value.rows(), "token id {id} out of range");
            out.row_mut(r).copy_from_slice(self.table.value.row(id));
        }
        out
    }

    /// Backward pass (scatter-adds into the table's gradient).
    ///
    /// # Errors
    ///
    /// [`ModelError::BackwardBeforeForward`] if called before `forward`
    /// (there are no saved token ids to scatter the gradient to).
    pub fn backward(&mut self, dy: &Tensor) -> Result<(), ModelError> {
        let ids = self
            .saved_ids
            .take()
            .ok_or(ModelError::BackwardBeforeForward("Embedding"))?;
        for (r, &id) in ids.iter().enumerate() {
            let grow = self.table.grad.row_mut(id);
            for (g, &d) in grow.iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
        Ok(())
    }

    /// Visits this layer's parameters.
    pub fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// GELU activation (tanh approximation).
pub fn gelu(x: f32) -> f32 {
    let c = (2.0 / std::f32::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`].
pub fn gelu_grad(x: f32) -> f32 {
    let c = (2.0 / std::f32::consts::PI).sqrt();
    let inner = c * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let dinner = c * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// Row-wise softmax in place.
pub fn softmax_rows(t: &mut Tensor) {
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d loss/d x for a scalar loss `L = Σ y·coef`.
    fn grad_check_linear() -> (f32, f32) {
        let mut rng = Pcg32::seed_from(10);
        let mut layer = Linear::new("t", 5, 3, &mut rng);
        let x = Tensor::from_fn(4, 5, |_, _| rng.normal() as f32);
        let coef = Tensor::from_fn(4, 3, |_, _| rng.normal() as f32);

        let _y = layer.forward(&x);
        let dx = layer.backward(&coef).expect("forward ran first");

        // Finite differences on one input element.
        let (r, c) = (2, 3);
        let eps = 1e-3f32;
        let mut xp = x.clone();
        xp[(r, c)] += eps;
        let mut xm = x.clone();
        xm[(r, c)] -= eps;
        let loss = |x: &Tensor, layer: &Linear| -> f32 {
            let y = layer.forward_inference(x);
            y.data().iter().zip(coef.data()).map(|(a, b)| a * b).sum()
        };
        let num = (loss(&xp, &layer) - loss(&xm, &layer)) / (2.0 * eps);
        (dx[(r, c)], num)
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        let (analytic, numeric) = grad_check_linear();
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed_from(11);
        let mut layer = Linear::new("t", 4, 3, &mut rng);
        let x = Tensor::from_fn(6, 4, |_, _| rng.normal() as f32);
        let coef = Tensor::from_fn(6, 3, |_, _| rng.normal() as f32);
        let _ = layer.forward(&x);
        layer.backward(&coef).expect("forward ran first");
        let analytic = layer.w.grad[(1, 2)];

        let eps = 1e-3f32;
        let base_w = layer.w.value.clone();
        let loss = |layer: &Linear| -> f32 {
            let y = layer.forward_inference(&x);
            y.data().iter().zip(coef.data()).map(|(a, b)| a * b).sum()
        };
        layer.w.value = base_w.clone();
        layer.w.value[(1, 2)] += eps;
        let lp = loss(&layer);
        layer.w.value = base_w.clone();
        layer.w.value[(1, 2)] -= eps;
        let lm = loss(&layer);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut ln = LayerNorm::new("t", 8);
        let x = Tensor::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 0.7 - 5.0);
        let y = ln.forward(&x);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed_from(12);
        let mut ln = LayerNorm::new("t", 6);
        // Non-trivial gamma.
        for c in 0..6 {
            ln.gamma.value[(0, c)] = 0.5 + 0.2 * c as f32;
        }
        let x = Tensor::from_fn(2, 6, |_, _| rng.normal() as f32);
        let coef = Tensor::from_fn(2, 6, |_, _| rng.normal() as f32);
        let _ = ln.forward(&x);
        let dx = ln.backward(&coef).expect("forward ran first");

        let loss = |x: &Tensor| -> f32 {
            let y = ln.forward_inference(x);
            y.data().iter().zip(coef.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (0, 5)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (dx[(r, c)] - num).abs() < 2e-2,
                "at ({r},{c}): analytic {} vs numeric {num}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn embedding_scatter_gradient() {
        let mut rng = Pcg32::seed_from(13);
        let mut emb = Embedding::new("t", 10, 4, &mut rng);
        let ids = [3usize, 7, 3];
        let y = emb.forward(&ids);
        assert_eq!(y.shape(), (3, 4));
        let dy = Tensor::full(3, 4, 1.0);
        emb.backward(&dy).expect("forward ran first");
        // Token 3 appears twice: grad 2; token 7 once: grad 1; others 0.
        assert!(emb.table.grad.row(3).iter().all(|&g| g == 2.0));
        assert!(emb.table.grad.row(7).iter().all(|&g| g == 1.0));
        assert!(emb.table.grad.row(0).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gelu_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - num).abs() < 1e-3,
                "x={x}: {} vs {num}",
                gelu_grad(x)
            );
        }
        // Known anchors.
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let mut t = Tensor::from_fn(2, 5, |r, c| (r + c) as f32 * 1.3 - 2.0);
        softmax_rows(&mut t);
        for r in 0..2 {
            let sum: f32 = t.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(t.row(r).iter().all(|&p| p >= 0.0));
        }
        // Monotone in logits.
        assert!(t[(0, 4)] > t[(0, 0)]);
    }
}
