//! The decoder-only transformer language model.
//!
//! Small GPT-style architecture: token + learned positional embeddings,
//! pre-norm blocks (attention + GELU MLP), final norm, output projection.
//! Forward/backward are hand-written; the model exposes three evaluation
//! paths the experiments use:
//!
//! - [`TransformerLm::train_step`] — full backprop + optimizer step;
//! - [`TransformerLm::eval_perplexity`] — clean evaluation;
//! - [`TransformerLm::eval_with_hooks`] — evaluation under KV-cache and/or
//!   inter-stage activation compression (§4.2 of the paper);
//!
//! plus [`TransformerLm::compress_weights`], which transcodes every weight
//! matrix through a compressor (§4.1 weight compression).

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::attention::MultiHeadAttention;
use crate::error::ModelError;
use crate::layers::{gelu, gelu_grad, Embedding, LayerNorm, Linear};
use crate::optimizer::Optimizer;
use crate::param::{Param, VisitParams};

/// Architecture hyperparameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// Maximum sequence length (positional table size).
    pub max_seq: usize,
}

impl TransformerConfig {
    /// A tiny model for unit tests (fast, still learns the synthetic
    /// language).
    pub fn tiny() -> Self {
        TransformerConfig {
            vocab: 32,
            dim: 32,
            layers: 2,
            heads: 2,
            max_seq: 64,
        }
    }

    /// A small model for the experiment binaries (the "Pythia-like" and
    /// "LLaMA-like" stand-in scale).
    pub fn small() -> Self {
        TransformerConfig {
            vocab: 64,
            dim: 64,
            layers: 4,
            heads: 4,
            max_seq: 128,
        }
    }
}

/// One pre-norm transformer block.
#[derive(Debug, Clone)]
struct Block {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
    saved_mlp_pre: Option<Tensor>,
}

impl Block {
    fn new(name: &str, dim: usize, heads: usize, rng: &mut Pcg32) -> Self {
        Block {
            ln1: LayerNorm::new(&format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::new(&format!("{name}.attn"), dim, heads, rng),
            ln2: LayerNorm::new(&format!("{name}.ln2"), dim),
            fc1: Linear::new(&format!("{name}.fc1"), dim, dim * 4, rng),
            fc2: Linear::new(&format!("{name}.fc2"), dim * 4, dim, rng),
            saved_mlp_pre: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let a = self.attn.forward(&self.ln1.forward(&h));
        h.add_assign(&a);
        let pre = self.fc1.forward(&self.ln2.forward(&h));
        let act = pre.map(gelu);
        let m = self.fc2.forward(&act);
        self.saved_mlp_pre = Some(pre);
        let mut out = h;
        out.add_assign(&m);
        out
    }

    fn forward_inference(
        &self,
        x: &Tensor,
        kv_hook: Option<&mut dyn LossyCompressor>,
        kv_bits: &mut u64,
    ) -> Tensor {
        let mut h = x.clone();
        let a = self
            .attn
            .forward_inference(&self.ln1.forward_inference(&h), kv_hook, kv_bits);
        h.add_assign(&a);
        let pre = self.fc1.forward_inference(&self.ln2.forward_inference(&h));
        let act = pre.map(gelu);
        let m = self.fc2.forward_inference(&act);
        let mut out = h;
        out.add_assign(&m);
        out
    }

    /// Incremental decode through the block for one position: attention
    /// uses (and grows) the provided per-block KV cache.
    fn forward_cached(&self, x_last: &Tensor, ck: &mut Tensor, cv: &mut Tensor) -> Tensor {
        let mut h = x_last.clone();
        let a = self
            .attn
            .forward_cached(&self.ln1.forward_inference(&h), ck, cv);
        h.add_assign(&a);
        let pre = self.fc1.forward_inference(&self.ln2.forward_inference(&h));
        let act = pre.map(gelu);
        let m = self.fc2.forward_inference(&act);
        let mut out = h;
        out.add_assign(&m);
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, ModelError> {
        // Residual 2: dy flows both into the MLP branch and straight
        // through.
        let pre = self
            .saved_mlp_pre
            .take()
            .ok_or(ModelError::BackwardBeforeForward("Block"))?;
        let dact = self.fc2.backward(dy)?;
        let dpre = Tensor::from_fn(dact.rows(), dact.cols(), |r, c| {
            dact[(r, c)] * gelu_grad(pre[(r, c)])
        });
        let dln2_in = self.ln2.backward(&self.fc1.backward(&dpre)?)?;
        let mut dh = dy.clone();
        dh.add_assign(&dln2_in);

        // Residual 1.
        let dattn_in = self.ln1.backward(&self.attn.backward(&dh)?)?;
        let mut dx = dh;
        dx.add_assign(&dattn_in);
        Ok(dx)
    }

    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit(f);
        self.attn.visit(f);
        self.ln2.visit(f);
        self.fc1.visit(f);
        self.fc2.visit(f);
    }
}

/// A batch of training sequences (token ids).
pub type Batch = Vec<Vec<u16>>;

/// Compression hooks applied during [`TransformerLm::eval_with_hooks`].
pub struct EvalHooks<'a> {
    /// Applied to every block's projected K and V matrices (the KV cache).
    pub kv: Option<&'a mut dyn LossyCompressor>,
    /// Applied to hidden states after the listed block indices — the
    /// activations crossing pipeline-stage boundaries.
    pub hidden: Option<(&'a mut dyn LossyCompressor, &'a [usize])>,
}

impl<'a> EvalHooks<'a> {
    /// No hooks: plain evaluation.
    pub fn none() -> Self {
        EvalHooks {
            kv: None,
            hidden: None,
        }
    }
}

/// Result of a hooked evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HookedEval {
    /// Perplexity over the batch.
    pub perplexity: f64,
    /// Total bits the KV hook produced.
    pub kv_bits: u64,
    /// Total bits the hidden-state hook produced.
    pub hidden_bits: u64,
    /// Number of KV values compressed.
    pub kv_values: u64,
    /// Number of hidden values compressed.
    pub hidden_values: u64,
}

/// The decoder-only language model.
#[derive(Debug, Clone)]
pub struct TransformerLm {
    config: TransformerConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    head: Linear,
}

impl TransformerLm {
    /// Creates a model with randomly initialized parameters.
    pub fn new(config: &TransformerConfig, rng: &mut Pcg32) -> Self {
        let blocks = (0..config.layers)
            .map(|l| Block::new(&format!("block{l}"), config.dim, config.heads, rng))
            .collect();
        TransformerLm {
            tok_emb: Embedding::new("tok", config.vocab, config.dim, rng),
            pos_emb: Embedding::new("pos", config.max_seq, config.dim, rng),
            blocks,
            ln_f: LayerNorm::new("ln_f", config.dim),
            head: Linear::new("head", config.dim, config.vocab, rng),
            config: config.clone(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Number of transformer blocks (used by the pipeline-parallel
    /// simulator to place stage boundaries).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn check_seq(&self, seq: &[u16]) {
        assert!(seq.len() >= 2, "sequence must have at least 2 tokens");
        assert!(
            seq.len() <= self.config.max_seq,
            "sequence longer than max_seq"
        );
    }

    /// Forward + backward over one sequence; returns `(sum nll, tokens)`.
    /// Gradients accumulate into the parameters.
    ///
    /// # Errors
    ///
    /// [`ModelError::BackwardBeforeForward`] if a layer's saved forward
    /// activations are missing (unreachable from this entry point, which
    /// always runs the forward pass first).
    pub fn forward_backward(&mut self, seq: &[u16]) -> Result<(f64, usize), ModelError> {
        self.check_seq(seq);
        let t_len = seq.len() - 1;
        let ids: Vec<usize> = seq[..t_len].iter().map(|&t| t as usize).collect();
        let pos: Vec<usize> = (0..t_len).collect();

        let mut h = self.tok_emb.forward(&ids);
        h.add_assign(&self.pos_emb.forward(&pos));
        for b in &mut self.blocks {
            h = b.forward(&h);
        }
        let hn = self.ln_f.forward(&h);
        let mut logits = self.head.forward(&hn);

        // Softmax + cross entropy; dlogits = p − onehot.
        crate::layers::softmax_rows(&mut logits);
        let mut nll = 0.0f64;
        let mut dlogits = logits;
        for (r, &target) in seq[1..].iter().enumerate() {
            let target = target as usize;
            let p = dlogits[(r, target)].max(1e-12);
            nll += -(p as f64).ln();
            dlogits[(r, target)] -= 1.0;
        }

        let dhn = self.head.backward(&dlogits)?;
        let mut dh = self.ln_f.backward(&dhn)?;
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward(&dh)?;
        }
        self.pos_emb.backward(&dh)?;
        self.tok_emb.backward(&dh)?;
        Ok((nll, t_len))
    }

    /// One training step over a batch: zero grads, accumulate, scale by
    /// 1/tokens, optimizer step. Returns the mean per-token loss.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`Self::forward_backward`].
    pub fn train_step(
        &mut self,
        batch: &Batch,
        opt: &mut dyn Optimizer,
    ) -> Result<f64, ModelError> {
        self.zero_grads();
        let mut nll = 0.0;
        let mut tokens = 0usize;
        for seq in batch {
            let (n, t) = self.forward_backward(seq)?;
            nll += n;
            tokens += t;
        }
        let scale = 1.0 / tokens.max(1) as f32;
        self.visit_params(&mut |p| p.grad.scale(scale));
        opt.step(self);
        Ok(nll / tokens.max(1) as f64)
    }

    /// As [`Self::train_step`] but lets the caller transform gradients
    /// before the optimizer step (gradient-compression experiments).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`Self::forward_backward`].
    pub fn train_step_with_grad_hook(
        &mut self,
        batch: &Batch,
        opt: &mut dyn Optimizer,
        hook: &mut dyn FnMut(&mut Param),
    ) -> Result<f64, ModelError> {
        self.zero_grads();
        let mut nll = 0.0;
        let mut tokens = 0usize;
        for seq in batch {
            let (n, t) = self.forward_backward(seq)?;
            nll += n;
            tokens += t;
        }
        let scale = 1.0 / tokens.max(1) as f32;
        self.visit_params(&mut |p| p.grad.scale(scale));
        self.visit_params(hook);
        opt.step(self);
        Ok(nll / tokens.max(1) as f64)
    }

    /// Forward + backward with hooks at pipeline-stage boundaries: after
    /// each block index in `boundaries`, the hidden state passes through
    /// `fwd` on the way up and its gradient through `bwd` on the way
    /// down — exactly the tensors pipeline parallelism sends between
    /// stages (§5.1 of the paper). Returns `(sum nll, tokens)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] as [`Self::forward_backward`] does.
    pub fn forward_backward_with_boundaries(
        &mut self,
        seq: &[u16],
        boundaries: &[usize],
        fwd: &mut dyn FnMut(&Tensor) -> Tensor,
        bwd: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Result<(f64, usize), ModelError> {
        self.check_seq(seq);
        let t_len = seq.len() - 1;
        let ids: Vec<usize> = seq[..t_len].iter().map(|&t| t as usize).collect();
        let pos: Vec<usize> = (0..t_len).collect();

        let mut h = self.tok_emb.forward(&ids);
        h.add_assign(&self.pos_emb.forward(&pos));
        for (i, b) in self.blocks.iter_mut().enumerate() {
            h = b.forward(&h);
            if boundaries.contains(&i) {
                h = fwd(&h);
            }
        }
        let hn = self.ln_f.forward(&h);
        let mut logits = self.head.forward(&hn);

        crate::layers::softmax_rows(&mut logits);
        let mut nll = 0.0f64;
        let mut dlogits = logits;
        for (r, &target) in seq[1..].iter().enumerate() {
            let target = target as usize;
            let p = dlogits[(r, target)].max(1e-12);
            nll += -(p as f64).ln();
            dlogits[(r, target)] -= 1.0;
        }

        let dhn = self.head.backward(&dlogits)?;
        let mut dh = self.ln_f.backward(&dhn)?;
        let n_blocks = self.blocks.len();
        for (rev, b) in self.blocks.iter_mut().rev().enumerate() {
            let i = n_blocks - 1 - rev;
            if boundaries.contains(&i) {
                dh = bwd(&dh);
            }
            dh = b.backward(&dh)?;
        }
        self.pos_emb.backward(&dh)?;
        self.tok_emb.backward(&dh)?;
        Ok((nll, t_len))
    }

    /// Per-token negative log likelihood of one sequence (no grads).
    pub fn sequence_nll(&self, seq: &[u16]) -> (f64, usize) {
        self.nll_with_hooks(seq, &mut EvalHooks::none(), &mut 0, &mut 0, &mut 0, &mut 0)
    }

    fn nll_with_hooks(
        &self,
        seq: &[u16],
        hooks: &mut EvalHooks<'_>,
        kv_bits: &mut u64,
        hidden_bits: &mut u64,
        kv_values: &mut u64,
        hidden_values: &mut u64,
    ) -> (f64, usize) {
        self.check_seq(seq);
        let t_len = seq.len() - 1;
        let ids: Vec<usize> = seq[..t_len].iter().map(|&t| t as usize).collect();
        let pos: Vec<usize> = (0..t_len).collect();

        let mut h = self.tok_emb.lookup(&ids);
        h.add_assign(&self.pos_emb.lookup(&pos));
        for (i, b) in self.blocks.iter().enumerate() {
            h = match hooks.kv {
                Some(ref mut hook) => {
                    *kv_values += 2 * (t_len * self.config.dim) as u64;
                    b.forward_inference(&h, Some(&mut **hook), kv_bits)
                }
                None => b.forward_inference(&h, None, kv_bits),
            };
            if let Some((hook, boundaries)) = hooks.hidden.as_mut() {
                if boundaries.contains(&i) {
                    let (h2, bits) = hook.transcode(&h);
                    *hidden_bits += bits;
                    *hidden_values += h.len() as u64;
                    h = h2;
                }
            }
        }
        let hn = self.ln_f.forward_inference(&h);
        let mut logits = self.head.forward_inference(&hn);
        crate::layers::softmax_rows(&mut logits);
        let mut nll = 0.0f64;
        for (r, &target) in seq[1..].iter().enumerate() {
            let p = logits[(r, target as usize)].max(1e-12);
            nll += -(p as f64).ln();
        }
        (nll, t_len)
    }

    /// Perplexity over a batch (no compression).
    pub fn eval_perplexity(&self, batch: &Batch) -> f64 {
        let mut nll = 0.0;
        let mut tokens = 0usize;
        for seq in batch {
            let (n, t) = self.sequence_nll(seq);
            nll += n;
            tokens += t;
        }
        (nll / tokens.max(1) as f64).exp()
    }

    /// Perplexity under compression hooks, with bits accounting.
    pub fn eval_with_hooks(&self, batch: &Batch, hooks: &mut EvalHooks<'_>) -> HookedEval {
        let mut nll = 0.0;
        let mut tokens = 0usize;
        let (mut kb, mut hb, mut kvv, mut hv) = (0u64, 0u64, 0u64, 0u64);
        for seq in batch {
            let (n, t) = self.nll_with_hooks(seq, hooks, &mut kb, &mut hb, &mut kvv, &mut hv);
            nll += n;
            tokens += t;
        }
        HookedEval {
            perplexity: (nll / tokens.max(1) as f64).exp(),
            kv_bits: kb,
            hidden_bits: hb,
            kv_values: kvv,
            hidden_values: hv,
        }
    }

    /// Next-token distribution after `context` (softmax of the final
    /// position's logits).
    ///
    /// # Panics
    ///
    /// Panics if `context` is empty or exceeds `max_seq`.
    pub fn next_token_distribution(&self, context: &[u16]) -> Vec<f32> {
        assert!(!context.is_empty(), "context must be non-empty");
        assert!(context.len() <= self.config.max_seq, "context too long");
        let ids: Vec<usize> = context.iter().map(|&t| t as usize).collect();
        let pos: Vec<usize> = (0..context.len()).collect();
        let mut h = self.tok_emb.lookup(&ids);
        h.add_assign(&self.pos_emb.lookup(&pos));
        let mut bits = 0u64;
        for b in &self.blocks {
            h = b.forward_inference(&h, None, &mut bits);
        }
        let hn = self.ln_f.forward_inference(&h);
        let mut logits = self.head.forward_inference(&hn);
        crate::layers::softmax_rows(&mut logits);
        logits.row(logits.rows() - 1).to_vec()
    }

    /// Incremental decode with a real KV cache: processes `prompt` one
    /// token at a time (filling the cache), then greedily decodes
    /// `n_tokens` more, reusing cached keys/values — the inference shape
    /// whose memory footprint §4.2 of the paper compresses. Produces
    /// exactly the same tokens as greedy [`TransformerLm::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or the result would exceed `max_seq`.
    pub fn generate_cached(&self, prompt: &[u16], n_tokens: usize) -> Vec<u16> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        assert!(
            prompt.len() + n_tokens <= self.config.max_seq,
            "generation would exceed max_seq"
        );
        let dim = self.config.dim;
        let mut caches: Vec<(Tensor, Tensor)> = (0..self.blocks.len())
            .map(|_| (Tensor::zeros(0, dim), Tensor::zeros(0, dim)))
            .collect();
        let mut seq = prompt.to_vec();
        // Distribution from the previous step; empty until the first
        // position has been processed, and every decode position follows
        // at least one processed position (the prompt is non-empty).
        let mut last_probs: Vec<f32> = Vec::new();

        let total = prompt.len() + n_tokens;
        for pos in 0..total {
            // Decide the token at `pos`: prompt tokens are given; decoded
            // tokens come from the previous step's distribution.
            if pos >= prompt.len() {
                let probs = std::mem::take(&mut last_probs);
                let tok = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0) as u16;
                seq.push(tok);
            }
            let tok = seq[pos] as usize;
            let mut h = self.tok_emb.lookup(&[tok]);
            h.add_assign(&self.pos_emb.lookup(&[pos]));
            for (b, (ck, cv)) in self.blocks.iter().zip(caches.iter_mut()) {
                h = b.forward_cached(&h, ck, cv);
            }
            let hn = self.ln_f.forward_inference(&h);
            let mut logits = self.head.forward_inference(&hn);
            crate::layers::softmax_rows(&mut logits);
            last_probs = logits.row(0).to_vec();
        }
        seq
    }

    /// Samples `n_tokens` continuation tokens after `prompt` at the given
    /// softmax temperature (greedy when `temperature <= 0`).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or the result would exceed `max_seq`.
    pub fn generate(
        &self,
        prompt: &[u16],
        n_tokens: usize,
        temperature: f64,
        rng: &mut Pcg32,
    ) -> Vec<u16> {
        assert!(
            prompt.len() + n_tokens <= self.config.max_seq,
            "generation would exceed max_seq"
        );
        let mut seq = prompt.to_vec();
        for _ in 0..n_tokens {
            let probs = self.next_token_distribution(&seq);
            let tok = if temperature <= 0.0 {
                probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0) as u16
            } else {
                // Temperature-scaled sampling.
                let scaled: Vec<f64> = probs
                    .iter()
                    .map(|&p| (p as f64).max(1e-12).powf(1.0 / temperature))
                    .collect();
                let total: f64 = scaled.iter().sum();
                let mut u = rng.f64() * total;
                let mut pick = scaled.len() - 1;
                for (i, &w) in scaled.iter().enumerate() {
                    if u < w {
                        pick = i;
                        break;
                    }
                    u -= w;
                }
                pick as u16
            };
            seq.push(tok);
        }
        seq
    }

    /// Log-probability the model assigns to `continuation` after
    /// `context` — the multiple-choice scoring rule of the probe tasks.
    pub fn continuation_logprob(&self, context: &[u16], continuation: &[u16]) -> f64 {
        let mut seq = context.to_vec();
        seq.extend_from_slice(continuation);
        let (nll_full, _) = self.sequence_nll(&seq);
        if context.len() >= 2 {
            let (nll_ctx, _) = self.sequence_nll(context);
            -(nll_full - nll_ctx)
        } else {
            -nll_full
        }
    }

    /// Transcodes every weight matrix through `compressor`, replacing the
    /// values with their reconstructions. Returns `(total bits, total
    /// values)` — the paper's §4.1 weight compression. Tensors smaller
    /// than [`MIN_COMPRESS_VALUES`] stay FP16 (counted at 16 bits/value):
    /// their fixed stream headers would exceed any sane budget, and real
    /// deployments leave such tensors uncompressed.
    pub fn compress_weights(&mut self, compressor: &mut dyn LossyCompressor) -> (u64, u64) {
        let mut bits = 0u64;
        let mut values = 0u64;
        self.visit_params(&mut |p| {
            if p.is_weight_matrix() {
                if p.value.len() >= MIN_COMPRESS_VALUES {
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

/// Weight matrices below this element count are exempt from compression
/// (headers would dominate; see [`TransformerLm::compress_weights`]).
pub const MIN_COMPRESS_VALUES: usize = 512;

impl VisitParams for TransformerLm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok_emb.visit(f);
        self.pos_emb.visit(f);
        for b in &mut self.blocks {
            b.visit(f);
        }
        self.ln_f.visit(f);
        self.head.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{LangConfig, SyntheticLang};
    use crate::optimizer::Adam;

    fn tiny_model(seed: u64) -> TransformerLm {
        TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(seed))
    }

    #[test]
    fn block_backward_without_forward_reports_protocol_error() {
        let mut b = Block::new("b", 8, 2, &mut Pcg32::seed_from(6));
        let err = b
            .backward(&Tensor::zeros(4, 8))
            .expect_err("no saved forward activation");
        assert_eq!(err, ModelError::BackwardBeforeForward("Block"));
        assert_eq!(err.to_string(), "Block::backward called before forward");
    }

    #[test]
    fn untrained_perplexity_near_vocab_size() {
        let model = tiny_model(1);
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let batch = lang
            .sample_batch(4, 32, &mut Pcg32::seed_from(2))
            .expect("grammar");
        let ppl = model.eval_perplexity(&batch);
        // Uniform predictions give ppl = vocab = 32; random init is close.
        assert!(ppl > 16.0 && ppl < 64.0, "ppl {ppl}");
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = tiny_model(3);
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let mut rng = Pcg32::seed_from(4);
        let mut opt = Adam::new(3e-3);
        let first = model
            .train_step(
                &lang.sample_batch(4, 32, &mut rng).expect("grammar"),
                &mut opt,
            )
            .expect("train step");
        let mut last = first;
        for _ in 0..40 {
            last = model
                .train_step(
                    &lang.sample_batch(4, 32, &mut rng).expect("grammar"),
                    &mut opt,
                )
                .expect("train step");
        }
        assert!(
            last < first * 0.8,
            "loss should fall: first {first} last {last}"
        );
    }

    #[test]
    fn whole_model_gradient_check() {
        // Finite-difference check through the full stack on one weight.
        let mut model = tiny_model(5);
        let seq: Vec<u16> = vec![1, 5, 9, 2, 7, 3];
        model.zero_grads();
        let (nll, _) = model.forward_backward(&seq).expect("forward ran first");
        assert!(nll.is_finite());

        // Pick a mid-network weight.
        let mut names = Vec::new();
        model.visit_params(&mut |p| names.push(p.name.clone()));
        let target_name = "block1.fc1.w";
        assert!(names.iter().any(|n| n == target_name));

        let mut analytic = 0.0f32;
        model.visit_params(&mut |p| {
            if p.name == target_name {
                analytic = p.grad[(3, 7)];
            }
        });

        let eps = 1e-2f32;
        let loss_at = |delta: f32, model: &mut TransformerLm| -> f64 {
            model.visit_params(&mut |p| {
                if p.name == target_name {
                    p.value[(3, 7)] += delta;
                }
            });
            let (nll, _) = model.sequence_nll(&seq);
            model.visit_params(&mut |p| {
                if p.name == target_name {
                    p.value[(3, 7)] -= delta;
                }
            });
            nll
        };
        let lp = loss_at(eps, &mut model);
        let lm = loss_at(-eps, &mut model);
        let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
        assert!(
            (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn hooked_eval_counts_bits() {
        struct Noop;
        impl LossyCompressor for Noop {
            fn name(&self) -> String {
                "noop".into()
            }
            fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
                (t.clone(), t.len() as u64 * 16)
            }
        }
        let model = tiny_model(6);
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let batch = lang
            .sample_batch(2, 16, &mut Pcg32::seed_from(7))
            .expect("grammar");

        let clean = model.eval_perplexity(&batch);
        let mut kv = Noop;
        let mut hid = Noop;
        let boundaries = [0usize];
        let mut hooks = EvalHooks {
            kv: Some(&mut kv),
            hidden: Some((&mut hid, &boundaries)),
        };
        let res = model.eval_with_hooks(&batch, &mut hooks);
        // Noop hooks: identical perplexity, non-zero bits.
        assert!((res.perplexity - clean).abs() < 1e-9);
        assert!(res.kv_bits > 0);
        assert!(res.hidden_bits > 0);
        assert_eq!(res.kv_bits, res.kv_values * 16);
        assert_eq!(res.hidden_bits, res.hidden_values * 16);
    }

    #[test]
    fn continuation_scoring_prefers_likely_tokens() {
        // Train briefly, then the true successor should outscore a random
        // non-successor on average.
        let mut model = tiny_model(8);
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let mut rng = Pcg32::seed_from(9);
        let mut opt = Adam::new(3e-3);
        for _ in 0..60 {
            let batch = lang.sample_batch(4, 32, &mut rng).expect("grammar");
            model.train_step(&batch, &mut opt).expect("train step");
        }
        let mut correct = 0;
        let trials = 40;
        for _ in 0..trials {
            let (ctx, good, bad) = lang.choice_item(24, &mut rng).expect("grammar");
            let s_good = model.continuation_logprob(&ctx, &[good]);
            let s_bad = model.continuation_logprob(&ctx, &[bad]);
            if s_good > s_bad {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / trials as f64 > 0.7,
            "choice accuracy {correct}/{trials}"
        );
    }

    #[test]
    fn weight_compression_hits_weight_matrices_only() {
        struct Zero;
        impl LossyCompressor for Zero {
            fn name(&self) -> String {
                "zero".into()
            }
            fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
                (Tensor::zeros(t.rows(), t.cols()), t.len() as u64)
            }
        }
        let mut model = tiny_model(10);
        let (bits, values) = model.compress_weights(&mut Zero);
        assert_eq!(bits, values);
        // Weight matrices zeroed, norms untouched.
        model.visit_params(&mut |p| {
            if p.is_weight_matrix() {
                assert!(p.value.data().iter().all(|&v| v == 0.0), "{}", p.name);
            } else if p.name.contains("gamma") {
                assert!(p.value.data().iter().all(|&v| v == 1.0), "{}", p.name);
            }
        });
    }

    #[test]
    fn param_count_is_plausible() {
        let mut model = tiny_model(11);
        let n = model.param_count();
        // tiny: dim 32, 2 layers → roughly 60k params.
        assert!(n > 20_000 && n < 200_000, "param count {n}");
    }
}

#[cfg(test)]
mod generation_tests {
    use super::*;
    use crate::data::{LangConfig, SyntheticLang};
    use crate::optimizer::Adam;

    #[test]
    fn greedy_generation_is_deterministic_and_grammatical() {
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let mut model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(1));
        let mut opt = Adam::new(3e-3);
        let mut rng = Pcg32::seed_from(2);
        for _ in 0..80 {
            let batch = lang.sample_batch(4, 32, &mut rng).expect("grammar");
            model.train_step(&batch, &mut opt).expect("train step");
        }
        let prompt = lang
            .sample_seq(8, &mut Pcg32::seed_from(3))
            .expect("grammar");
        let a = model.generate(&prompt, 16, 0.0, &mut Pcg32::seed_from(4));
        let b = model.generate(&prompt, 16, 0.0, &mut Pcg32::seed_from(99));
        assert_eq!(a, b, "greedy decode ignores the rng");
        assert_eq!(a.len(), 24);
        // A trained model's greedy continuations mostly follow the grammar.
        let mut legal = 0usize;
        let mut checked = 0usize;
        for w in a[8..].windows(2) {
            if w[0] != lang.marker() && w[1] != lang.marker() {
                checked += 1;
                if lang.successors(w[0]).contains(&w[1]) {
                    legal += 1;
                }
            }
        }
        assert!(
            legal * 3 >= checked * 2,
            "greedy decode should follow the grammar: {legal}/{checked}"
        );
    }

    #[test]
    fn sampled_generation_varies_with_seed() {
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(5));
        let prompt = [1u16, 2, 3];
        let a = model.generate(&prompt, 20, 1.0, &mut Pcg32::seed_from(6));
        let b = model.generate(&prompt, 20, 1.0, &mut Pcg32::seed_from(7));
        assert_ne!(a, b, "sampling should vary across seeds");
        assert!(a.iter().all(|&t| (t as usize) < 32));
    }

    #[test]
    fn next_token_distribution_is_normalized() {
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(8));
        let p = model.next_token_distribution(&[4, 9, 17]);
        assert_eq!(p.len(), 32);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "exceed max_seq")]
    fn generation_respects_max_seq() {
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(9));
        let prompt = vec![1u16; 60];
        let _ = model.generate(&prompt, 10, 0.0, &mut Pcg32::seed_from(10));
    }
}

#[cfg(test)]
mod kv_cache_decode_tests {
    use super::*;
    use crate::data::{LangConfig, SyntheticLang};
    use crate::optimizer::Adam;

    #[test]
    fn cached_generation_matches_full_greedy_decode() {
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let mut model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(30));
        let mut opt = Adam::new(3e-3);
        let mut rng = Pcg32::seed_from(31);
        for _ in 0..40 {
            let batch = lang.sample_batch(4, 32, &mut rng).expect("grammar");
            model.train_step(&batch, &mut opt).expect("train step");
        }
        let prompt = lang
            .sample_seq(6, &mut Pcg32::seed_from(32))
            .expect("grammar");
        let full = model.generate(&prompt, 18, 0.0, &mut Pcg32::seed_from(33));
        let cached = model.generate_cached(&prompt, 18);
        assert_eq!(full, cached, "KV-cached decode must equal full decode");
    }

    #[test]
    fn cached_generation_on_untrained_model() {
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(34));
        let out = model.generate_cached(&[3, 7], 5);
        assert_eq!(out.len(), 7);
        assert_eq!(&out[..2], &[3, 7]);
    }

    #[test]
    #[should_panic(expected = "exceed max_seq")]
    fn cached_generation_respects_max_seq() {
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(35));
        let _ = model.generate_cached(&[1u16; 60], 10);
    }
}
