//! Rate- and distortion-targeted encoding: the workspace's one QP search.
//!
//! The paper's "variable and fractional bit-width compression" (§4.1)
//! rests on the codec exposing a continuous rate knob: users specify a
//! bits-per-value budget and the encoder finds codec parameters meeting
//! it. QP here is already continuous (see [`crate::quant`]); bits fall
//! and reconstruction error grows monotonically with it, so a search over
//! QP reaches any achievable fractional target.
//!
//! [`search_qp`] is that search, written over a probe closure so the
//! tensor codec (which probes chunk by chunk through its own cache) and
//! [`encode_to_bitrate`]/[`encode_to_mse`] (which probe whole videos)
//! share it. The distortion-targeted dual drives the Fig 2(b) ablation,
//! whose quality constraint is an MSE budget.

use std::collections::BTreeMap;

use crate::quant::QP_MAX;
use crate::{encode_video, CodecConfig, CodecError, EncodedVideo, Frame};

/// The search stops once its bracket is this tight: the rate/quality
/// difference across a quarter QP step is far below every target's slack.
pub const QP_TOL: f64 = 0.25;
/// Iteration cap of the refine loop; [`QP_TOL`] usually stops it earlier.
const SEARCH_ITERS: usize = 9;
/// Saturation bound for the log-ratio feasibility score.
const SCORE_SAT: f64 = 60.0;

/// What a rate search must satisfy. A probe's log-ratio score against
/// the goal is ≤ 0 exactly when the probe meets it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Total stream size must not exceed this many bits.
    MaxBits(f64),
    /// Total squared reconstruction error must not exceed this.
    MaxSquaredError(f64),
}

impl Goal {
    /// Maps a search-axis position to a QP. The axis is oriented so the
    /// score is decreasing in x and the preferred (highest-quality
    /// feasible) answer is the *lowest* feasible x: bits searches walk QP
    /// directly (low QP = quality), error searches walk `51 − qp`.
    fn to_qp(self, x: f64) -> f64 {
        match self {
            Goal::MaxBits(_) => x,
            Goal::MaxSquaredError(_) => QP_MAX - x,
        }
    }
}

/// What one probe — an encode at one QP — measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Exact compressed size in bits.
    pub bits: u64,
    /// Total squared reconstruction error.
    pub sq_err: f64,
}

/// Finds the highest-quality QP meeting `goal` for a tensor or video of
/// `values` values, calling `probe` to encode at a QP and measure it.
///
/// - The **expensive endpoint is lazy**: a QP-0 encode costs several
///   times a mid-range one and is only probed if it is the answer. The
///   cheap QP-51 probe anchors the search; a pessimistic pseudo-score
///   stands in for the unprobed end.
/// - Probes are placed by **safeguarded false position** (the Illinois
///   variant) on the log-ratio score, which is near-linear in QP for both
///   rate and distortion, and the loop stops once the bracket is
///   [`QP_TOL`] wide.
/// - No QP is probed twice, and the returned QP is always one `probe` was
///   called with — callers keep that probe's encode as the answer.
///
/// When nothing is feasible, a bits goal re-targets the finest QP within
/// 5% of the QP-51 size (tiny tensors: headers dominate, quality is
/// nearly free), and an error goal returns QP 0 as the best effort.
///
/// # Errors
///
/// Propagates the first error `probe` returns.
pub fn search_qp<E>(
    goal: Goal,
    values: usize,
    mut probe: impl FnMut(f64) -> Result<Probe, E>,
) -> Result<f64, E> {
    // QP 51 is the coarsest and by far the fastest encode — always probe
    // it first.
    let p_51 = probe(QP_MAX)?;
    let mut goal = goal;
    if matches!(goal, Goal::MaxBits(_)) && score(p_51, goal) > 0.0 {
        // Even the coarsest encode misses the budget (typical for tiny
        // tensors whose fixed headers exceed it): aim for the QP-51 size
        // plus 5%, which QP 51 meets by construction.
        goal = Goal::MaxBits(p_51.bits as f64 * 1.05);
    }
    let s_51 = score(p_51, goal);
    // The bracket starts as the whole search axis, x = 0 to 51; only the
    // QP-51 end has been probed.
    let (mut x_lo, mut x_hi) = (0.0, QP_MAX);
    let (mut s_lo, mut s_hi) = match goal {
        // Pseudo-score for the unprobed QP-0 end: 8-bit pixels plus
        // entropy overhead keep real streams under ~9 bits/value, and the
        // floor keeps the end labeled infeasible so the bracket invariant
        // holds.
        Goal::MaxBits(budget) => (((9.0 * values as f64) / budget).log2().max(0.5), s_51),
        Goal::MaxSquaredError(_) => {
            if s_51 <= 0.0 {
                // The cheapest possible encode already meets the error
                // budget.
                return Ok(QP_MAX);
            }
            // Pseudo-score for the unprobed QP-0 end: squared error
            // shrinks roughly 2^(−ΔQP/3), putting QP 0 about 17 score
            // units below QP 51; the cap keeps the end labeled feasible.
            // If QP 0 turns out infeasible too, the loop converges onto
            // it and returns it as the best effort.
            (s_51, (s_51 - 17.0).min(-1.0))
        }
    };
    // Only the error goal's QP-0 end starts unprobed.
    let mut hi_probed = matches!(goal, Goal::MaxBits(_));
    let mut hi_moved_last: Option<bool> = None;
    for _ in 0..SEARCH_ITERS {
        if x_hi - x_lo <= QP_TOL {
            break;
        }
        let x = interpolate(x_lo, s_lo, x_hi, s_hi);
        let s = score(probe(goal.to_qp(x))?, goal);
        if s <= 0.0 {
            // Illinois safeguard: when the feasible end moves twice in a
            // row, halve the stale end's score so plain false position
            // cannot stall against one endpoint.
            if hi_moved_last == Some(true) {
                s_lo *= 0.5;
            }
            (x_hi, s_hi) = (x, s);
            hi_probed = true;
            hi_moved_last = Some(true);
        } else {
            if hi_moved_last == Some(false) {
                s_hi *= 0.5;
            }
            (x_lo, s_lo) = (x, s);
            hi_moved_last = Some(false);
        }
    }
    let qp = goal.to_qp(x_hi);
    if !hi_probed {
        probe(qp)?;
    }
    Ok(qp)
}

/// Log-ratio feasibility score of a probe: ≤ 0 exactly when the probe
/// meets the goal, near-linear in QP for both goals (rate and distortion
/// are roughly exponential in QP), which is what makes false position
/// converge in a handful of probes.
fn score(p: Probe, goal: Goal) -> f64 {
    match goal {
        Goal::MaxBits(budget) => (p.bits as f64 / budget).log2().clamp(-SCORE_SAT, SCORE_SAT),
        Goal::MaxSquaredError(budget) => {
            if p.sq_err <= 0.0 {
                -SCORE_SAT
            } else if budget <= 0.0 {
                SCORE_SAT
            } else {
                (p.sq_err / budget).log2().clamp(-SCORE_SAT, SCORE_SAT)
            }
        }
    }
}

/// One safeguarded false-position step: the secant zero crossing of the
/// bracket scores, clamped 5% away from both ends so the bracket always
/// shrinks even when the secant model is poor.
fn interpolate(x_lo: f64, s_lo: f64, x_hi: f64, s_hi: f64) -> f64 {
    let width = x_hi - x_lo;
    let denom = s_lo - s_hi; // > 0 for a proper bracket
    let x = if denom > 1e-12 {
        x_lo + width * (s_lo / denom)
    } else {
        x_lo + 0.5 * width
    };
    x.clamp(x_lo + 0.05 * width, x_hi - 0.05 * width)
}

/// Outcome of a rate search: the chosen QP and the encode at that QP.
#[derive(Debug, Clone)]
pub struct RateSearchResult {
    /// QP the search settled on.
    pub qp: f64,
    /// Encode produced at that QP.
    pub encoded: EncodedVideo,
}

impl RateSearchResult {
    /// Bits per pixel of the final encode.
    pub fn bits_per_pixel(&self) -> f64 {
        self.encoded.bits_per_pixel()
    }
}

/// Encodes `frames` at the highest-quality QP whose bits/pixel does not
/// exceed `target_bpp`. If even QP 51 exceeds the budget, returns the
/// finest QP within 5% of the QP-51 size — the caller can inspect
/// [`RateSearchResult::bits_per_pixel`].
///
/// # Errors
///
/// Returns [`CodecError::InvalidInput`] if `frames` is empty or mixes
/// frame sizes, or if `target_bpp` is not positive and finite.
pub fn encode_to_bitrate(
    frames: &[Frame],
    cfg: &CodecConfig,
    target_bpp: f64,
) -> Result<RateSearchResult, CodecError> {
    if !(target_bpp.is_finite() && target_bpp > 0.0) {
        return Err(CodecError::InvalidInput(format!(
            "bits/pixel target {target_bpp} must be positive and finite"
        )));
    }
    let pixels = pixel_count(frames)?;
    search_encode(
        frames,
        cfg,
        pixels,
        Goal::MaxBits(target_bpp * pixels as f64),
    )
}

/// Encodes `frames` at the coarsest QP (fewest bits) whose
/// reconstruction MSE in pixel² units does not exceed `target_mse`. If
/// even QP 0 exceeds the target, returns the QP-0 encode.
///
/// # Errors
///
/// Returns [`CodecError::InvalidInput`] if `frames` is empty or mixes
/// frame sizes, or if `target_mse` is negative or not finite.
pub fn encode_to_mse(
    frames: &[Frame],
    cfg: &CodecConfig,
    target_mse: f64,
) -> Result<RateSearchResult, CodecError> {
    if !(target_mse.is_finite() && target_mse >= 0.0) {
        return Err(CodecError::InvalidInput(format!(
            "MSE target {target_mse} must be non-negative and finite"
        )));
    }
    let pixels = pixel_count(frames)?;
    search_encode(
        frames,
        cfg,
        pixels,
        Goal::MaxSquaredError(target_mse * pixels as f64),
    )
}

/// Pixels in a non-empty run of same-size, non-empty frames — the input
/// [`encode_video`] accepts.
///
/// # Errors
///
/// Returns [`CodecError::InvalidInput`] for any other input.
pub(crate) fn pixel_count(frames: &[Frame]) -> Result<usize, CodecError> {
    let Some(first) = frames.first() else {
        return Err(CodecError::InvalidInput(
            "cannot rate-search an empty video".into(),
        ));
    };
    let (w, h) = (first.width(), first.height());
    if w == 0 || h == 0 || frames.iter().any(|f| (f.width(), f.height()) != (w, h)) {
        return Err(CodecError::InvalidInput(
            "frames must be non-empty and share one size".into(),
        ));
    }
    Ok(w * h * frames.len())
}

/// Runs [`search_qp`] over whole-video encodes of `pixels` pixels,
/// caching each probed QP's encode so the answer is returned without
/// encoding it again.
///
/// # Errors
///
/// Returns [`CodecError::Internal`] if the search answers a QP it never
/// probed, which [`search_qp`] rules out.
fn search_encode(
    frames: &[Frame],
    cfg: &CodecConfig,
    pixels: usize,
    goal: Goal,
) -> Result<RateSearchResult, CodecError> {
    let mut cache: BTreeMap<u64, EncodedVideo> = BTreeMap::new();
    let qp = search_qp(goal, pixels, |qp| {
        let enc = cache
            .entry(qp.to_bits())
            .or_insert_with(|| encode_video(frames, &cfg.clone().with_qp(qp)));
        Ok::<_, CodecError>(Probe {
            bits: enc.bits(),
            sq_err: ssd_of(frames, enc),
        })
    })?;
    let encoded = cache
        .remove(&qp.to_bits())
        .ok_or_else(|| CodecError::Internal("rate search answered an unprobed QP".into()))?;
    Ok(RateSearchResult { qp, encoded })
}

/// Total pixel² error between source frames and an encode's
/// reconstruction.
fn ssd_of(frames: &[Frame], enc: &EncodedVideo) -> f64 {
    frames
        .iter()
        .zip(&enc.recon)
        .map(|(a, b)| a.ssd(b) as f64)
        .sum()
}

/// Mean pixel² error between source frames and an encode's reconstruction.
pub fn mse_of(frames: &[Frame], enc: &EncodedVideo) -> f64 {
    let count: usize = frames.iter().map(|f| f.width() * f.height()).sum();
    if count == 0 {
        0.0
    } else {
        ssd_of(frames, enc) / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// Values of the synthetic tensor the search tests pretend to encode.
    const VALUES: usize = 4096;

    /// A codec-free probe: bits fall and error grows smoothly and
    /// monotonically in QP, with a curvature the log-ratio score does not
    /// model exactly (as with real encodes). Logs every probed QP.
    fn synthetic(log: &mut Vec<f64>) -> impl FnMut(f64) -> Result<Probe, ()> + '_ {
        move |qp| {
            log.push(qp);
            Ok(Probe {
                bits: synthetic_bits(qp),
                sq_err: synthetic_sq_err(qp),
            })
        }
    }

    fn synthetic_bits(qp: f64) -> u64 {
        let per_value = 7.5 * (-qp / 7.0).exp2() + 0.02 * (51.0 - qp) / 51.0 + 0.05;
        (per_value * VALUES as f64) as u64
    }

    fn synthetic_sq_err(qp: f64) -> f64 {
        VALUES as f64 * (0.02 * (qp / 3.2).exp2() + 0.001 * qp)
    }

    /// The highest-quality QP meeting `goal` on the synthetic curves, to
    /// a precision far finer than [`QP_TOL`].
    fn crossing(goal: Goal) -> f64 {
        let feasible = |qp: f64| match goal {
            Goal::MaxBits(b) => synthetic_bits(qp) as f64 <= b,
            Goal::MaxSquaredError(e) => synthetic_sq_err(qp) <= e,
        };
        // Bisect over QP with the feasible end on `hi`'s side.
        let (mut lo, mut hi) = match goal {
            Goal::MaxBits(_) => (0.0, QP_MAX),
            Goal::MaxSquaredError(_) => (QP_MAX, 0.0),
        };
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    fn goals() -> Vec<Goal> {
        let mut goals = Vec::new();
        for bits_per_value in [0.1, 0.3, 0.8, 1.5, 2.6, 3.0, 4.5, 6.0, 7.0] {
            goals.push(Goal::MaxBits(bits_per_value * VALUES as f64));
        }
        for mse in [0.03, 0.1, 0.5, 2.0, 10.0, 40.0, 1000.0] {
            goals.push(Goal::MaxSquaredError(mse * VALUES as f64));
        }
        goals
    }

    #[test]
    fn answer_is_feasible_and_within_tol_of_the_crossing() {
        for goal in goals() {
            let mut log = Vec::new();
            let qp = search_qp(goal, VALUES, synthetic(&mut log)).unwrap();
            let target = crossing(goal);
            match goal {
                Goal::MaxBits(b) => assert!(synthetic_bits(qp) as f64 <= b, "{goal:?}: qp {qp}"),
                Goal::MaxSquaredError(e) => {
                    assert!(synthetic_sq_err(qp) <= e, "{goal:?}: qp {qp}");
                }
            }
            assert!(
                (qp - target).abs() <= QP_TOL,
                "{goal:?}: qp {qp}, crossing {target}"
            );
            assert!(log.contains(&qp), "{goal:?}: answer {qp} never probed");
        }
    }

    #[test]
    fn bits_goal_infeasible_at_qp51_retargets_near_the_qp51_size() {
        let at_51 = synthetic_bits(QP_MAX) as f64;
        let mut log = Vec::new();
        let qp = search_qp(Goal::MaxBits(0.5 * at_51), VALUES, synthetic(&mut log)).unwrap();
        // The re-targeted goal is the QP-51 size plus 5%: a finer QP than
        // 51 that meets it, not QP 51 itself.
        let retarget = Goal::MaxBits(at_51 * 1.05);
        assert!(qp < QP_MAX, "qp {qp}");
        assert!(synthetic_bits(qp) as f64 <= at_51 * 1.05, "qp {qp}");
        assert!((qp - crossing(retarget)).abs() <= QP_TOL, "qp {qp}");
        assert_eq!(log[0], QP_MAX);
        assert_eq!(log.iter().filter(|&&q| q == QP_MAX).count(), 1);
    }

    #[test]
    fn error_goal_met_at_qp51_returns_51_after_one_probe() {
        let mut log = Vec::new();
        let loose = Goal::MaxSquaredError(2.0 * synthetic_sq_err(QP_MAX));
        assert_eq!(search_qp(loose, VALUES, synthetic(&mut log)), Ok(QP_MAX));
        assert_eq!(log, [QP_MAX]);
    }

    #[test]
    fn error_goal_unreachable_everywhere_returns_qp0() {
        let mut log = Vec::new();
        let strict = Goal::MaxSquaredError(0.5 * synthetic_sq_err(0.0));
        assert_eq!(search_qp(strict, VALUES, synthetic(&mut log)), Ok(0.0));
        // QP 0 is probed exactly once, and only at the end.
        assert_eq!(log.last(), Some(&0.0));
        assert_eq!(log.iter().filter(|&&q| q == 0.0).count(), 1);
    }

    #[test]
    fn probe_count_stays_within_its_bound() {
        // QP 51, the refine loop, and at most one unprobed-end probe.
        let bound = SEARCH_ITERS + 2;
        let mut worst = 0;
        for goal in goals() {
            let mut log = Vec::new();
            search_qp(goal, VALUES, synthetic(&mut log)).unwrap();
            assert!(log.len() <= bound, "{goal:?}: {} probes", log.len());
            let mut sorted = log.clone();
            sorted.sort_by(f64::total_cmp);
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                log.len(),
                "{goal:?}: repeated probe in {log:?}"
            );
            worst = worst.max(log.len());
        }
        // The secant model is good on smooth curves: well under the cap.
        assert!(worst <= 7, "worst case {worst} probes");
    }

    #[test]
    fn probe_errors_propagate() {
        let mut calls = 0;
        let got = search_qp(Goal::MaxBits(1000.0), VALUES, |_| {
            calls += 1;
            Err::<Probe, _>("probe failed")
        });
        assert_eq!(got, Err("probe failed"));
        assert_eq!(calls, 1);
    }

    fn noisy_frame(seed: u64, n: usize) -> Frame {
        let mut rng = Pcg32::seed_from(seed);
        Frame::from_fn(n, n, |x, _y| {
            let base = (x / 8) as f64 * 30.0 + 40.0;
            (base + 18.0 * rng.normal()).clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn rate_monotone_in_qp() {
        let frames = [noisy_frame(4, 64)];
        let cfg = CodecConfig::default();
        let bpp_fine = encode_video(&frames, &cfg.clone().with_qp(16.0)).bits_per_pixel();
        let bpp_coarse = encode_video(&frames, &cfg.with_qp(40.0)).bits_per_pixel();
        assert!(bpp_fine > bpp_coarse);
    }

    #[test]
    fn video_searches_reject_bad_targets_and_frames() {
        let frames = [noisy_frame(5, 16)];
        let cfg = CodecConfig::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(encode_to_bitrate(&frames, &cfg, bad).is_err(), "bpp {bad}");
        }
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(encode_to_mse(&frames, &cfg, bad).is_err(), "mse {bad}");
        }
        assert!(encode_to_bitrate(&[], &cfg, 2.0).is_err());
        assert!(encode_to_mse(&[], &cfg, 10.0).is_err());
        let mixed = [noisy_frame(6, 16), noisy_frame(7, 32)];
        assert!(encode_to_bitrate(&mixed, &cfg, 2.0).is_err());
        let empty = [Frame::from_fn(0, 0, |_, _| 0)];
        assert!(encode_to_mse(&empty, &cfg, 10.0).is_err());
    }

    #[test]
    fn video_searches_meet_their_targets() {
        let frames = [noisy_frame(1, 64)];
        let cfg = CodecConfig::default();
        let res = encode_to_bitrate(&frames, &cfg, 2.0).unwrap();
        assert!(res.bits_per_pixel() <= 2.0, "bpp {}", res.bits_per_pixel());
        assert!(res.bits_per_pixel() > 1.5, "bpp {}", res.bits_per_pixel());
        let res = encode_to_mse(&frames, &cfg, 20.0).unwrap();
        let got = mse_of(&frames, &res.encoded);
        assert!(got <= 20.0 && got > 10.0, "mse {got}");
    }
}
