//! Variable per-layer bit-width allocation.
//!
//! The paper's footnote 2 (§4.1): in fixed mode one bits/value budget is
//! applied to all tensors; in variable mode the per-layer budget is
//! `B_l = k·l + b`, where `l` is the layer index, `k` is a searched slope
//! and `b` is chosen so the *average* budget matches the user's target.
//! The search minimizes total reconstruction error, which is the knob that
//! lets LLM.265 drop below 3 bits where fixed budgets fall apart (Fig 5).

use llm265_tensor::{stats, Tensor};

use crate::{CodecError, EncodedTensor, RateTarget, TensorCodec};

/// Minimum per-layer budget: the codec always spends a little on headers.
const MIN_BITS: f64 = 0.25;

/// One allocated layer: its budget and its encode.
#[derive(Debug, Clone)]
pub struct AllocatedLayer {
    /// Bits/value budget assigned to this layer.
    pub budget: f64,
    /// The encode produced under that budget.
    pub encoded: EncodedTensor,
}

/// Result of a variable-rate allocation across a layer stack.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The slope `k` the search settled on.
    pub k: f64,
    /// Per-layer encodes, in layer order.
    pub layers: Vec<AllocatedLayer>,
}

impl Allocation {
    /// Realized average bits per value across the stack.
    pub fn bits_per_value(&self) -> f64 {
        let (bits, values) = self.layers.iter().fold((0u64, 0usize), |(b, n), l| {
            let (r, c) = l.encoded.shape();
            (b + l.encoded.bits(), n + r * c)
        });
        if values == 0 {
            0.0
        } else {
            bits as f64 / values as f64
        }
    }
}

/// Computes per-layer budgets `B_l = k·l + b` with `b` solved so the
/// value-weighted average equals `avg_bits`, clamping at a small positive floor.
fn layer_budgets(layer_sizes: &[usize], avg_bits: f64, k: f64) -> Vec<f64> {
    let total: f64 = layer_sizes.iter().map(|&n| n as f64).sum();
    // A sum of usize casts is exactly 0.0 iff every layer is empty — the
    // degenerate stack this early-out covers.
    if total == 0.0 {
        return Vec::new();
    }
    // Weighted mean of k·l over layers (weights = layer sizes).
    let mean_kl: f64 = layer_sizes
        .iter()
        .enumerate()
        .map(|(l, &n)| k * l as f64 * n as f64)
        .sum::<f64>()
        / total;
    let b = avg_bits - mean_kl;
    layer_sizes
        .iter()
        .enumerate()
        .map(|(l, _)| (k * l as f64 + b).max(MIN_BITS))
        .collect()
}

/// Searches the slope `k` over `k_grid` and returns the allocation with
/// the lowest total normalized reconstruction error at the same average
/// budget (the paper's variable-bitrate mode).
///
/// # Errors
///
/// Rejects an empty layer stack or slope grid and propagates per-layer
/// encode/decode failures.
pub fn allocate_variable(
    codec: &dyn TensorCodec,
    layers: &[Tensor],
    avg_bits: f64,
    k_grid: &[f64],
) -> Result<Allocation, CodecError> {
    if layers.is_empty() {
        return Err(CodecError::InvalidInput("no layers to allocate".into()));
    }
    if k_grid.is_empty() {
        return Err(CodecError::InvalidInput("empty slope grid".into()));
    }
    let sizes: Vec<usize> = layers.iter().map(Tensor::len).collect();

    let mut best: Option<(f64, Allocation)> = None;
    for &k in k_grid {
        let budgets = layer_budgets(&sizes, avg_bits, k);
        let mut alloc_layers = Vec::with_capacity(layers.len());
        let mut err = 0.0;
        for (t, &budget) in layers.iter().zip(&budgets) {
            let encoded = codec.encode(t, RateTarget::BitsPerValue(budget))?;
            let dec = codec.decode(&encoded)?;
            let var = stats::variance(t.data()).max(1e-30);
            err += stats::tensor_mse(t, &dec) / var * t.len() as f64;
            alloc_layers.push(AllocatedLayer { budget, encoded });
        }
        let alloc = Allocation {
            k,
            layers: alloc_layers,
        };
        if best.as_ref().is_none_or(|(e, _)| err < *e) {
            best = Some((err, alloc));
        }
    }
    #[allow(
        clippy::expect_used,
        reason = "`k_grid` was checked non-empty above, so the loop ran at least once \
                  and `best` is always populated"
    )]
    let (_, alloc) = best.expect("grid was non-empty");
    Ok(alloc)
}

/// A sensible default slope grid for the `k` search.
pub fn default_k_grid() -> Vec<f64> {
    vec![-0.10, -0.05, -0.02, 0.0, 0.02, 0.05, 0.10, 0.15]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Llm265Codec;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{llm_weight_stack, WeightProfile};

    #[test]
    fn budgets_average_to_target() {
        let sizes = [1024usize; 8];
        for &k in &[-0.1, 0.0, 0.07, 0.2] {
            let budgets = layer_budgets(&sizes, 3.0, k);
            let avg: f64 = budgets.iter().sum::<f64>() / budgets.len() as f64;
            // Equal sizes and no clamping: exact match.
            assert!((avg - 3.0).abs() < 1e-9, "k={k} avg={avg}");
        }
    }

    #[test]
    fn budgets_weighted_by_layer_size() {
        let sizes = [100usize, 10_000];
        let budgets = layer_budgets(&sizes, 2.0, 0.5);
        // Weighted average must hit the target.
        let avg = (budgets[0] * 100.0 + budgets[1] * 10_000.0) / 10_100.0;
        assert!((avg - 2.0).abs() < 1e-9);
        assert!(budgets[1] > budgets[0]);
    }

    #[test]
    fn clamp_keeps_budgets_positive() {
        let sizes = [1000usize; 4];
        let budgets = layer_budgets(&sizes, 0.5, -2.0);
        assert!(budgets.iter().all(|&b| b >= MIN_BITS));
    }

    #[test]
    fn variable_allocation_meets_average_and_beats_or_ties_fixed() {
        let mut rng = Pcg32::seed_from(20);
        // Small stack whose later layers are harder (the generator drifts).
        let layers = llm_weight_stack(4, 48, 48, &WeightProfile::default(), &mut rng);
        let codec = Llm265Codec::new();
        let avg = 2.5;

        // The paper's fixed mode: every layer at the average budget.
        let fixed = allocate_variable(&codec, &layers, avg, &[0.0]).unwrap();
        let var = allocate_variable(&codec, &layers, avg, &[0.0, 0.05, 0.1]).unwrap();

        assert!(fixed.bits_per_value() <= avg + 0.05);
        assert!(
            var.bits_per_value() <= avg + 0.25,
            "avg {}",
            var.bits_per_value()
        );

        let err = |alloc: &Allocation| -> f64 {
            alloc
                .layers
                .iter()
                .zip(&layers)
                .map(|(al, t)| {
                    let dec = codec.decode(&al.encoded).unwrap();
                    llm265_tensor::stats::tensor_mse(t, &dec)
                        / llm265_tensor::stats::variance(t.data())
                })
                .sum()
        };
        // k = 0 is in the grid, so variable can never be worse than fixed
        // beyond encoder noise.
        assert!(err(&var) <= err(&fixed) * 1.05 + 1e-6);
    }
}
