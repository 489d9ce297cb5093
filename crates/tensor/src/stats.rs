//! Distortion and distribution metrics.
//!
//! The paper's quality constraint for the pipeline ablation is a mean
//! square error budget (MSE ≤ 0.01, Fig 2b); its distribution arguments
//! rest on bell-shapedness (entropy-coding win) and outlier mass
//! (transform-coding win). This module provides those measurements.

use crate::Tensor;

/// True when `a` and `b` agree within an absolute/relative tolerance of
/// `tol`: `|a - b| <= tol * max(1, |a|, |b|)`.
///
/// This is the tolerance helper the float-discipline lint points codec
/// math at instead of exact `==`/`!=` on floats; non-finite inputs only
/// compare equal when identical (`inf == inf`, never NaN).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        // Bitwise-equal fast path, also the only way two infinities of the same
        // sign can compare equal.
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// [`approx_eq`] at the default tolerance used across the workspace.
pub fn approx_eq_default(a: f64, b: f64) -> bool {
    approx_eq(a, b, 1e-9)
}

/// Mean of a slice (0.0 if empty).
pub fn mean(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice (0.0 if empty).
pub fn variance(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f64 {
    variance(xs).sqrt()
}

/// Excess kurtosis: 0 for a normal distribution, > 0 for heavy tails.
pub fn kurtosis(xs: &[f32]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = variance(xs);
    // Degenerate-distribution guard — variance is exactly 0.0 only for a
    // constant slice, where kurtosis is undefined.
    if var == 0.0 {
        return 0.0;
    }
    let m4 = xs.iter().map(|&x| (x as f64 - m).powi(4)).sum::<f64>() / xs.len() as f64;
    m4 / (var * var) - 3.0
}

/// Mean square error between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Mean absolute error between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mae(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mae length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .sum::<f64>()
        / a.len() as f64
}

/// MSE between two tensors.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn tensor_mse(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape(), "tensor_mse shape mismatch");
    mse(a.data(), b.data())
}

/// Peak signal-to-noise ratio in dB given a peak value.
///
/// Returns `f64::INFINITY` for identical inputs.
pub fn psnr(a: &[f32], b: &[f32], peak: f64) -> f64 {
    let e = mse(a, b);
    // Exact-zero MSE (identical inputs) is the one case where the log10 below
    // would produce -inf instead of +inf PSNR.
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (peak * peak / e).log10()
    }
}

/// Shannon entropy (bits/symbol) of a byte stream — the lower bound any
/// order-0 entropy coder (e.g. Huffman) can reach on it.
pub fn byte_entropy(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let n = bytes.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Fraction of values whose magnitude exceeds `k` standard deviations —
/// the paper's working definition of "outliers" in tensor distributions.
pub fn outlier_fraction(xs: &[f32], k: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    let sd = std_dev(xs);
    // Constant-slice guard; σ is exactly 0.0 there and the threshold test below
    // would divide meaning out of the result.
    if sd == 0.0 {
        return 0.0;
    }
    let thr = k * sd;
    xs.iter().filter(|&&x| (x as f64 - m).abs() > thr).count() as f64 / xs.len() as f64
}

/// Ratio of the max |value| to the distribution's standard deviation; the
/// "dynamic range" figure the transform-coding discussion (Fig 3) relies on.
pub fn peak_to_sigma(xs: &[f32]) -> f64 {
    let sd = std_dev(xs);
    // Constant-slice guard against dividing by an exactly-zero σ below.
    if sd == 0.0 {
        return 0.0;
    }
    let peak = xs.iter().fold(0.0f64, |m, &x| m.max((x as f64).abs()));
    peak / sd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn mean_and_variance_known() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(mse(&[], &[]), 0.0);
        assert_eq!(byte_entropy(&[]), 0.0);
        assert_eq!(outlier_fraction(&[], 3.0), 0.0);
    }

    #[test]
    fn mse_and_mae_known() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(mse(&a, &b), 12.5);
        assert_eq!(mae(&a, &b), 3.5);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = [1.0f32, 2.0];
        assert!(psnr(&a, &a, 1.0).is_infinite());
        let b = [1.1f32, 2.0];
        assert!(psnr(&a, &b, 1.0) > 0.0);
    }

    #[test]
    fn entropy_bounds() {
        // Constant stream: 0 bits.
        assert_eq!(byte_entropy(&[7u8; 100]), 0.0);
        // All 256 symbols equally: 8 bits.
        let all: Vec<u8> = (0..=255).collect();
        assert!((byte_entropy(&all) - 8.0).abs() < 1e-12);
        // Two equiprobable symbols: 1 bit.
        let two: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        assert!((byte_entropy(&two) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_entropy_below_uniform() {
        // Quantized normal data has lower entropy than uniform — the 0.4
        // bits/value entropy-coding win in Fig 2(b) rests on this.
        let mut rng = Pcg32::seed_from(3);
        let normal: Vec<u8> = (0..40_000)
            .map(|_| (128.0 + 24.0 * rng.normal()).clamp(0.0, 255.0) as u8)
            .collect();
        let uniform: Vec<u8> = (0..40_000).map(|_| rng.below(256) as u8).collect();
        assert!(byte_entropy(&normal) < byte_entropy(&uniform) - 0.5);
    }

    #[test]
    fn kurtosis_of_normal_near_zero() {
        let mut rng = Pcg32::seed_from(11);
        let xs: Vec<f32> = (0..60_000).map(|_| rng.normal() as f32).collect();
        assert!(kurtosis(&xs).abs() < 0.15, "kurtosis {}", kurtosis(&xs));
    }

    #[test]
    fn kurtosis_detects_heavy_tails() {
        let mut rng = Pcg32::seed_from(12);
        let xs: Vec<f32> = (0..60_000).map(|_| rng.laplace(1.0) as f32).collect();
        assert!(kurtosis(&xs) > 2.0, "laplace excess kurtosis should be ~3");
    }

    #[test]
    fn outlier_fraction_behaviour() {
        let mut xs = vec![0.0f32; 1000];
        xs[0] = 100.0;
        // One huge value among zeros dominates sigma, so with k=3 the single
        // spike is the only outlier.
        let f = outlier_fraction(&xs, 3.0);
        assert!((f - 0.001).abs() < 1e-9, "got {f}");
        assert!(peak_to_sigma(&xs) > 10.0);
    }

    #[test]
    fn tensor_mse_matches_slice_mse() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 5.0]);
        assert_eq!(tensor_mse(&a, &b), 0.25);
    }
}
