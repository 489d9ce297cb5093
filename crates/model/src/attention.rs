//! Causal multi-head self-attention with hand-written backprop.
//!
//! The forward pass exposes the K/V matrices as a hook point: the KV-cache
//! compression experiments (§4.2 of the paper) intercept the keys and
//! values after projection and replace them with their compressed
//! reconstructions before the attention read, exactly like a compressed
//! cache would.

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

use crate::error::ModelError;
use crate::layers::{softmax_rows, Linear};
use crate::param::Param;

/// Causal multi-head self-attention block.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    n_heads: usize,
    head_dim: usize,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    saved: Option<Saved>,
}

#[derive(Debug, Clone)]
struct Saved {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Vec<Tensor>, // per-head softmax matrices (T × T)
}

impl MultiHeadAttention {
    /// Creates an attention block over `dim` features with `n_heads`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `n_heads`.
    pub fn new(
        name: &str,
        dim: usize,
        n_heads: usize,
        rng: &mut llm265_tensor::rng::Pcg32,
    ) -> Self {
        assert_eq!(dim % n_heads, 0, "dim must divide into heads");
        MultiHeadAttention {
            n_heads,
            head_dim: dim / n_heads,
            wq: Linear::new(&format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(&format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(&format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(&format!("{name}.wo"), dim, dim, rng),
            saved: None,
        }
    }

    fn head_slice(&self, t: &Tensor, head: usize) -> Tensor {
        let hd = self.head_dim;
        Tensor::from_fn(t.rows(), hd, |r, c| t[(r, head * hd + c)])
    }

    /// Core attention computation shared by train and inference paths.
    fn attend(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> (Tensor, Vec<Tensor>) {
        let t_len = q.rows();
        let dim = self.n_heads * self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut out = Tensor::zeros(t_len, dim);
        let mut attns = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let qh = self.head_slice(q, h);
            let kh = self.head_slice(k, h);
            let vh = self.head_slice(v, h);
            let mut scores = qh.matmul(&kh.transposed());
            scores.scale(scale);
            // Causal mask: queries cannot see future keys.
            for r in 0..t_len {
                for c in r + 1..t_len {
                    scores[(r, c)] = f32::NEG_INFINITY;
                }
            }
            softmax_rows(&mut scores);
            let oh = scores.matmul(&vh);
            for r in 0..t_len {
                for c in 0..self.head_dim {
                    out[(r, h * self.head_dim + c)] = oh[(r, c)];
                }
            }
            attns.push(scores);
        }
        (out, attns)
    }

    /// Training forward pass over a `T × dim` sequence.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, attn) = self.attend(&q, &k, &v);
        let y = self.wo.forward(&concat);
        self.saved = Some(Saved {
            x: x.clone(),
            q,
            k,
            v,
            attn,
        });
        y
    }

    /// Inference forward pass with an optional KV compression hook: the
    /// projected keys and values are transcoded through the hook before
    /// the attention read, and the compressed size is added to
    /// `kv_bits`.
    pub fn forward_inference(
        &self,
        x: &Tensor,
        kv_hook: Option<&mut dyn LossyCompressor>,
        kv_bits: &mut u64,
    ) -> Tensor {
        let q = self.wq.forward_inference(x);
        let mut k = self.wk.forward_inference(x);
        let mut v = self.wv.forward_inference(x);
        if let Some(hook) = kv_hook {
            let (k2, bits_k) = hook.transcode(&k);
            let (v2, bits_v) = hook.transcode(&v);
            k = k2;
            v = v2;
            *kv_bits += bits_k + bits_v;
        }
        let (concat, _) = self.attend(&q, &k, &v);
        self.wo.forward_inference(&concat)
    }

    /// Incremental decode step: computes attention for one new position
    /// given the cached keys/values of all previous positions, appending
    /// the new K/V rows to the cache. `x_last` is `1 × dim`; the caches
    /// are `t × dim` and grow by one row.
    ///
    /// # Panics
    ///
    /// Panics if `x_last` is not a single row or cache widths mismatch.
    pub fn forward_cached(
        &self,
        x_last: &Tensor,
        cache_k: &mut Tensor,
        cache_v: &mut Tensor,
    ) -> Tensor {
        let dim = self.n_heads * self.head_dim;
        assert_eq!(x_last.shape(), (1, dim), "x_last must be 1 × dim");
        assert_eq!(cache_k.cols(), dim, "cache width mismatch");
        let q = self.wq.forward_inference(x_last);
        let k_new = self.wk.forward_inference(x_last);
        let v_new = self.wv.forward_inference(x_last);

        // Append the new row to each cache.
        let append = |cache: &Tensor, row: &Tensor| -> Tensor {
            let mut out = Tensor::zeros(cache.rows() + 1, dim);
            for r in 0..cache.rows() {
                out.row_mut(r).copy_from_slice(cache.row(r));
            }
            out.row_mut(cache.rows()).copy_from_slice(row.row(0));
            out
        };
        *cache_k = append(cache_k, &k_new);
        *cache_v = append(cache_v, &v_new);

        let t_len = cache_k.rows();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat = Tensor::zeros(1, dim);
        for h in 0..self.n_heads {
            let hd = self.head_dim;
            // Attention weights of the single query over all cached keys.
            let mut scores = vec![0.0f32; t_len];
            for (t, s) in scores.iter_mut().enumerate() {
                let mut dot = 0.0;
                for c in 0..hd {
                    dot += q[(0, h * hd + c)] * cache_k[(t, h * hd + c)];
                }
                *s = dot * scale;
            }
            let max = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut denom = 0.0;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                denom += *s;
            }
            for c in 0..hd {
                let mut acc = 0.0;
                for (t, &w) in scores.iter().enumerate() {
                    acc += w * cache_v[(t, h * hd + c)];
                }
                concat[(0, h * hd + c)] = acc / denom;
            }
        }
        self.wo.forward_inference(&concat)
    }

    /// Backward pass; returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// [`ModelError::BackwardBeforeForward`] if called before `forward`
    /// (there are no saved projections or attention weights).
    pub fn backward(&mut self, dy: &Tensor) -> Result<Tensor, ModelError> {
        let saved = self
            .saved
            .take()
            .ok_or(ModelError::BackwardBeforeForward("MultiHeadAttention"))?;
        let t_len = dy.rows();
        let dim = self.n_heads * self.head_dim;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let dconcat = self.wo.backward(dy)?;

        let mut dq = Tensor::zeros(t_len, dim);
        let mut dk = Tensor::zeros(t_len, dim);
        let mut dv = Tensor::zeros(t_len, dim);
        for h in 0..self.n_heads {
            let hd = self.head_dim;
            let doh = Tensor::from_fn(t_len, hd, |r, c| dconcat[(r, h * hd + c)]);
            let kh = self.head_slice(&saved.k, h);
            let vh = self.head_slice(&saved.v, h);
            let qh = self.head_slice(&saved.q, h);
            let attn = &saved.attn[h];

            // dV_h = Aᵀ dO ; dA = dO Vᵀ.
            let dvh = attn.transposed().matmul(&doh);
            let da = doh.matmul(&vh.transposed());
            // Softmax backward per row: ds = A ⊙ (dA − Σ dA·A).
            let mut dscores = Tensor::zeros(t_len, t_len);
            for r in 0..t_len {
                let dot: f32 = (0..=r).map(|c| da[(r, c)] * attn[(r, c)]).sum();
                for c in 0..=r {
                    dscores[(r, c)] = attn[(r, c)] * (da[(r, c)] - dot);
                }
            }
            dscores.scale(scale);
            // dQ_h = dS K ; dK_h = dSᵀ Q.
            let dqh = dscores.matmul(&kh);
            let dkh = dscores.transposed().matmul(&qh);
            for r in 0..t_len {
                for c in 0..hd {
                    dq[(r, h * hd + c)] += dqh[(r, c)];
                    dk[(r, h * hd + c)] += dkh[(r, c)];
                    dv[(r, h * hd + c)] += dvh[(r, c)];
                }
            }
        }
        let mut dx = self.wq.backward(&dq)?;
        dx.add_assign(&self.wk.backward(&dk)?);
        dx.add_assign(&self.wv.backward(&dv)?);
        let _ = saved.x;
        Ok(dx)
    }

    /// Visits this block's parameters.
    pub fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit(f);
        self.wk.visit(f);
        self.wv.visit(f);
        self.wo.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    #[test]
    fn causality_holds() {
        // Changing a future token must not change past outputs.
        let mut rng = Pcg32::seed_from(1);
        let attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::from_fn(6, 8, |_, _| rng.normal() as f32);
        let mut bits = 0;
        let y1 = attn.forward_inference(&x, None, &mut bits);
        let mut x2 = x.clone();
        for c in 0..8 {
            x2[(5, c)] += 3.0; // perturb only the last position
        }
        let y2 = attn.forward_inference(&x2, None, &mut bits);
        for r in 0..5 {
            for c in 0..8 {
                assert!(
                    (y1[(r, c)] - y2[(r, c)]).abs() < 1e-6,
                    "future leaked into position {r}"
                );
            }
        }
    }

    #[test]
    fn train_and_inference_paths_agree() {
        let mut rng = Pcg32::seed_from(2);
        let mut attn = MultiHeadAttention::new("t", 12, 3, &mut rng);
        let x = Tensor::from_fn(5, 12, |_, _| rng.normal() as f32);
        let y_train = attn.forward(&x);
        let mut bits = 0;
        let y_inf = attn.forward_inference(&x, None, &mut bits);
        for (a, b) in y_train.data().iter().zip(y_inf.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(bits, 0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed_from(3);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::from_fn(4, 8, |_, _| rng.normal() as f32 * 0.5);
        let coef = Tensor::from_fn(4, 8, |_, _| rng.normal() as f32);

        let _ = attn.forward(&x);
        let dx = attn.backward(&coef).expect("forward ran first");

        let loss = |x: &Tensor| -> f32 {
            let mut bits = 0;
            let y = attn.forward_inference(x, None, &mut bits);
            y.data().iter().zip(coef.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (2, 5), (3, 7), (1, 3)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (dx[(r, c)] - num).abs() < 0.05 * (1.0 + num.abs()),
                "at ({r},{c}): analytic {} vs numeric {num}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed_from(4);
        let mut attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::from_fn(4, 8, |_, _| rng.normal() as f32 * 0.5);
        let coef = Tensor::from_fn(4, 8, |_, _| rng.normal() as f32);
        let _ = attn.forward(&x);
        attn.backward(&coef).expect("forward ran first");
        let analytic = attn.wk.w.grad[(2, 3)];

        let eps = 1e-2f32;
        let base = attn.wk.w.value.clone();
        let loss = |attn: &MultiHeadAttention| -> f32 {
            let mut bits = 0;
            let y = attn.forward_inference(&x, None, &mut bits);
            y.data().iter().zip(coef.data()).map(|(a, b)| a * b).sum()
        };
        attn.wk.w.value = base.clone();
        attn.wk.w.value[(2, 3)] += eps;
        let lp = loss(&attn);
        attn.wk.w.value = base.clone();
        attn.wk.w.value[(2, 3)] -= eps;
        let lm = loss(&attn);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn kv_hook_is_invoked_and_counted() {
        struct Half;
        impl LossyCompressor for Half {
            fn name(&self) -> String {
                "half".into()
            }
            fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
                (t.map(|v| v * 0.5), t.len() as u64 * 4)
            }
        }
        let mut rng = Pcg32::seed_from(5);
        let attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::from_fn(4, 8, |_, _| rng.normal() as f32);
        let mut bits = 0;
        let mut hook = Half;
        let y_hooked = attn.forward_inference(&x, Some(&mut hook), &mut bits);
        let mut bits2 = 0;
        let y_plain = attn.forward_inference(&x, None, &mut bits2);
        assert_eq!(bits, 2 * 4 * 8 * 4); // K and V, 32 values each, 4 bits
        assert_ne!(y_hooked, y_plain, "hook must affect the output");
    }
}

#[cfg(test)]
mod cached_tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    #[test]
    fn cached_decode_matches_full_forward() {
        // Feeding tokens one at a time through the cache must produce the
        // same last-position output as the full (non-cached) forward.
        let mut rng = Pcg32::seed_from(21);
        let attn = MultiHeadAttention::new("t", 12, 3, &mut rng);
        let t_len = 7usize;
        let x = Tensor::from_fn(t_len, 12, |_, _| rng.normal() as f32);

        let mut bits = 0;
        let full = attn.forward_inference(&x, None, &mut bits);

        let mut cache_k = Tensor::zeros(0, 12);
        let mut cache_v = Tensor::zeros(0, 12);
        for t in 0..t_len {
            let row = Tensor::from_fn(1, 12, |_, c| x[(t, c)]);
            let y = attn.forward_cached(&row, &mut cache_k, &mut cache_v);
            for c in 0..12 {
                assert!(
                    (y[(0, c)] - full[(t, c)]).abs() < 1e-4,
                    "position {t}, dim {c}: {} vs {}",
                    y[(0, c)],
                    full[(t, c)]
                );
            }
        }
        assert_eq!(cache_k.rows(), t_len);
        assert_eq!(cache_v.rows(), t_len);
    }

    #[test]
    #[should_panic(expected = "1 × dim")]
    fn cached_decode_rejects_multi_row_input() {
        let mut rng = Pcg32::seed_from(22);
        let attn = MultiHeadAttention::new("t", 8, 2, &mut rng);
        let x = Tensor::zeros(2, 8);
        let mut k = Tensor::zeros(0, 8);
        let mut v = Tensor::zeros(0, 8);
        let _ = attn.forward_cached(&x, &mut k, &mut v);
    }
}
