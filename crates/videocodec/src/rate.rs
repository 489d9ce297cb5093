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
//! tensor codec (which probes whole tensor streams) and
//! [`encode_to_bitrate`]/[`encode_to_mse`] (which probe whole videos)
//! share it; each probe hands back its encode, and the search returns
//! the answer's. A [`RateModel`], built from one cheap analysis pass over the
//! 8-bit frames, places every probe, starting from the caller's prior
//! for the stream's QP-51 size (the tensor codec's is its framing plus
//! [`floor_payload_bits`]). The distortion-targeted
//! dual drives the Fig 2(b) ablation, whose quality constraint is an MSE
//! budget.

use crate::lanes::floor_i32;
use crate::quant::{qstep, QP_MAX};
use crate::tile::TileLayout;
use crate::transform::DctPlan;
use crate::{encode_video, CodecConfig, CodecError, EncodedVideo, Frame};

/// The search stops once its bracket is this tight: the rate/quality
/// difference across a quarter QP step is far below every target's slack.
pub const QP_TOL: f64 = 0.25;
/// Iteration cap of the refine loop; the accept window or [`QP_TOL`]
/// usually stops it much earlier.
const SEARCH_ITERS: usize = 9;
/// Prior ρ-domain slope θ: stream bits per quantized coefficient that
/// survives below QP 51. The first interior probe replaces it.
const THETA_PRIOR: f64 = 4.5;
/// Each model-placed probe aims this fraction under the budget, so a
/// model that is slightly optimistic still lands feasible.
const AIM_MARGIN: f64 = 0.004;
/// A feasible probe within this fraction of an error budget ends the
/// search.
const ACCEPT_MARGIN: f64 = 0.01;
/// The same for a bits budget. A small tensor's size moves in steps of
/// 1–3% as whole CTUs change their coding decisions, so a 1% window is
/// often out of reach and the search would narrow its bracket to
/// [`QP_TOL`] instead; 1.5% cuts probes by 4–7% at 0.1% fewer bits.
const BITS_ACCEPT_MARGIN: f64 = 0.015;
/// Resolution of a [`RateModel`]'s tables: one grid point per 1/8 QP.
const GRID_PER_QP: usize = 8;
/// Grid points from QP 0 to QP 51 inclusive.
const GRID: usize = 51 * GRID_PER_QP + 1;
/// Transform size of the analysis pass.
const ANALYSIS_N: usize = 8;
/// Prior bits of one tile payload at QP 51 beyond its CTUs: the CABAC
/// coder's five flush bytes.
const FLOOR_TILE_BITS: f64 = 40.0;
/// Prior bits of one CTU at QP 51, where λ makes nearly every CTU one
/// leaf with an empty residual: its split flag, mode and coded-block
/// flags, about a byte.
const FLOOR_CTU_BITS: f64 = 8.0;
/// Prior bits of a coefficient that survives QP 51: it mostly opens a
/// transform unit on its own (coded-block flag, last position, a large
/// level), so it costs well above θ (measured about 12 on KV tensors,
/// whose smooth rows keep the most survivors there).
const SURVIVOR_BITS: f64 = 12.0;

/// What a rate search must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Total stream size must not exceed this many bits.
    MaxBits(f64),
    /// Total squared reconstruction error must not exceed this.
    MaxSquaredError(f64),
}

impl Goal {
    /// The budget the goal's measure must not exceed.
    fn budget(self) -> f64 {
        match self {
            Goal::MaxBits(b) | Goal::MaxSquaredError(b) => b,
        }
    }

    /// The probe's value of the quantity the goal bounds.
    fn measure(self, p: Probe) -> f64 {
        match self {
            Goal::MaxBits(_) => p.bits as f64,
            Goal::MaxSquaredError(_) => p.sq_err,
        }
    }

    /// Whether the probe meets the goal.
    fn met_by(self, p: Probe) -> bool {
        self.measure(p) <= self.budget()
    }

    /// Whether the probe meets the goal with at most
    /// [`BITS_ACCEPT_MARGIN`] (bits) or [`ACCEPT_MARGIN`] (error) of the
    /// budget left over, which ends the search.
    fn settled_by(self, p: Probe) -> bool {
        let margin = match self {
            Goal::MaxBits(_) => BITS_ACCEPT_MARGIN,
            Goal::MaxSquaredError(_) => ACCEPT_MARGIN,
        };
        self.met_by(p) && self.measure(p) >= (1.0 - margin) * self.budget()
    }

    /// Maps a search-axis position to a QP. The axis is oriented so the
    /// goal's measure falls along x and the preferred (highest-quality
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

/// A ρ-domain rate model of some 8-bit frames: how many transform
/// coefficients survive quantization at each QP, and what the dead zone
/// costs in squared error there.
///
/// Bits are close to linear in the number of nonzero quantized
/// coefficients (He & Mitra, "A linear source model and a unified rate
/// control algorithm for DCT video coding", IEEE TCSVT 2002), and that
/// count can be read at every QP from one forward transform. The
/// analysis pass predicts each 8×8 block by the open-loop DC of its
/// source neighbours and transforms the residual with the codec's own
/// [`DctPlan`]. Each coefficient is binned by the highest grid QP at which
/// it survives the 1/3 dead zone (|c| ≥ ⅔·`qstep(qp)`); the tables are
/// the running sums of those bins, so the model's size is fixed however
/// large the frames are.
#[derive(Debug, Clone)]
pub struct RateModel {
    /// Surviving coefficients at each grid QP.
    nonzeros: [f64; GRID],
    /// Dead-zone distortion at each grid QP: Σ w·c² over zeroed
    /// coefficients plus Σ w·step²/12 over survivors.
    distortion: [f64; GRID],
}

impl RateModel {
    /// Runs the analysis pass over `frames`. Each frame comes with the
    /// weight one pixel² of its error carries in the caller's error unit:
    /// 1 for pixel-domain error, the affine scale² for a tensor chunk.
    pub fn analyse<'f>(frames: impl IntoIterator<Item = (&'f Frame, f64)>) -> Self {
        // A coefficient survives at grid point g exactly when c² reaches
        // `thresholds[g]`, which rises with g; so the grid points it
        // survives at are a prefix, and its bin is that prefix's length.
        let thresholds: [f64; GRID] = std::array::from_fn(|g| {
            let t = 2.0 / 3.0 * qstep(grid_qp(g));
            t * t
        });
        let mut count = [0.0; GRID + 1];
        let mut weight = [0.0; GRID + 1];
        let mut energy = [0.0; GRID + 1];
        let plan = DctPlan::new(ANALYSIS_N);
        let mut block = [0i32; ANALYSIS_N * ANALYSIS_N];
        let (mut tmp, mut coeffs) = (Vec::new(), Vec::new());
        for (frame, w) in frames {
            for y0 in (0..frame.height()).step_by(ANALYSIS_N) {
                for x0 in (0..frame.width()).step_by(ANALYSIS_N) {
                    read_residual(frame, x0, y0, &mut block);
                    plan.forward_into(&block, &mut tmp, &mut coeffs);
                    for &c in &coeffs {
                        let c2 = c * c;
                        let bin = thresholds.partition_point(|&t| t <= c2);
                        count[bin] += 1.0;
                        weight[bin] += w;
                        energy[bin] += w * c2;
                    }
                }
            }
        }
        // Coefficients in bins above g survive at g; the rest are zeroed.
        let mut model = RateModel {
            nonzeros: [0.0; GRID],
            distortion: [0.0; GRID],
        };
        let (mut survivors, mut survivor_weight) = (0.0, 0.0);
        for g in (0..GRID).rev() {
            survivors += count[g + 1];
            survivor_weight += weight[g + 1];
            model.nonzeros[g] = survivors;
            let step = qstep(grid_qp(g));
            model.distortion[g] = survivor_weight * step * step / 12.0;
        }
        let mut zeroed = 0.0;
        for (g, d) in model.distortion.iter_mut().enumerate() {
            zeroed += energy[g];
            *d += zeroed;
        }
        model
    }

    /// Coefficients predicted to survive quantization at `qp`.
    pub fn nonzeros(&self, qp: f64) -> f64 {
        table_at(&self.nonzeros, qp)
    }

    /// Squared error the dead-zone quantizer is predicted to cost at
    /// `qp`, in the weighted unit [`RateModel::analyse`] was given.
    pub fn distortion(&self, qp: f64) -> f64 {
        table_at(&self.distortion, qp)
    }

    /// Prior for the stream's size at QP 51: `floor_bits`, its size with
    /// no coefficient coded (framing plus [`floor_payload_bits`]), plus
    /// what the coefficients the model sees surviving there cost.
    pub fn qp51_bits(&self, floor_bits: f64) -> f64 {
        floor_bits + SURVIVOR_BITS * self.nonzeros(QP_MAX)
    }
}

/// The QP of grid point `g`.
fn grid_qp(g: usize) -> f64 {
    g as f64 / GRID_PER_QP as f64
}

/// Reads the `ANALYSIS_N`-square block at `(x0, y0)` minus its open-loop
/// DC prediction: the rounded mean of the source row above and column to
/// the left, or mid-grey where neither exists. Reads past the frame's
/// right or bottom edge repeat the edge pixel, as the codec's padding
/// does.
fn read_residual(frame: &Frame, x0: usize, y0: usize, block: &mut [i32]) {
    let (w, h) = (frame.width(), frame.height());
    let px = |x: usize, y: usize| i32::from(frame.get(x.min(w - 1), y.min(h - 1)));
    let (mut sum, mut n) = (0, 0);
    if y0 > 0 {
        sum += (x0..x0 + ANALYSIS_N).map(|x| px(x, y0 - 1)).sum::<i32>();
        n += ANALYSIS_N as i32;
    }
    if x0 > 0 {
        sum += (y0..y0 + ANALYSIS_N).map(|y| px(x0 - 1, y)).sum::<i32>();
        n += ANALYSIS_N as i32;
    }
    let dc = if n == 0 { 128 } else { (sum + n / 2) / n };
    for (i, b) in block.iter_mut().enumerate() {
        *b = px(x0 + i % ANALYSIS_N, y0 + i / ANALYSIS_N) - dc;
    }
}

/// A table's value at `qp`, linear between grid points; QPs outside
/// `[0, 51]` read the nearest end.
fn table_at(table: &[f64; GRID], qp: f64) -> f64 {
    let x = qp.clamp(0.0, QP_MAX) * GRID_PER_QP as f64;
    let i = usize::try_from(floor_i32(x)).unwrap_or(0).min(GRID - 2);
    let f = x - i as f64;
    table[i] + f * (table[i + 1] - table[i])
}

/// Prior for the payload bits of a frame coded as `layout`'s tiles at
/// QP 51, from the geometry alone: each tile's entropy-coder flush plus
/// about one byte per CTU. A stream's prior for [`search_qp`] adds its
/// framing, which the framing writers give exactly.
pub fn floor_payload_bits(layout: &TileLayout) -> f64 {
    FLOOR_TILE_BITS * layout.n_tiles() as f64 + FLOOR_CTU_BITS * layout.ctus() as f64
}

/// A [`RateModel`] calibrated against one search's probes: it predicts
/// the goal's measure as a line in one model curve, through a pivot.
///
/// - **Bits:** the curve is `nonzeros(qp)` and the pivot starts at the
///   prior for the QP-51 size ([`RateModel::qp51_bits`]), so the
///   prediction is `bits(51) +
///   θ·(nonzeros(qp) − nonzeros(51))` with θ = [`THETA_PRIOR`]. Each
///   probe refits θ as the secant to the pivot and then becomes the
///   pivot, so θ is the slope between the two most recent points.
/// - **Error:** the curve is `distortion(qp)` and the pivot stays at
///   zero, so the prediction is `κ·distortion(qp)`, with κ = 1 until the
///   most recent interior probe's measured-to-modelled ratio replaces it.
struct Fit<'m> {
    goal: Goal,
    model: &'m RateModel,
    /// A (curve, measure) point the prediction passes through.
    pivot: (f64, f64),
    /// θ for bits, κ for error.
    slope: f64,
}

impl<'m> Fit<'m> {
    fn new(goal: Goal, model: &'m RateModel, floor_bits: f64) -> Self {
        let (pivot, slope) = match goal {
            Goal::MaxBits(_) => (
                (model.nonzeros(QP_MAX), model.qp51_bits(floor_bits)),
                THETA_PRIOR,
            ),
            Goal::MaxSquaredError(_) => ((0.0, 0.0), 1.0),
        };
        Fit {
            goal,
            model,
            pivot,
            slope,
        }
    }

    /// The model quantity the goal's measure is linear in.
    fn curve(&self, qp: f64) -> f64 {
        match self.goal {
            Goal::MaxBits(_) => self.model.nonzeros(qp),
            Goal::MaxSquaredError(_) => self.model.distortion(qp),
        }
    }

    fn predict(&self, qp: f64) -> f64 {
        self.pivot.1 + self.slope * (self.curve(qp) - self.pivot.0)
    }

    /// Refits the slope through a probe. A slope that is not positive and
    /// finite — the model sees no change where the codec did, or a change
    /// the wrong way — is not evidence, so the old slope stays.
    fn recalibrate(&mut self, qp: f64, p: Probe) {
        let point = (self.curve(qp), self.goal.measure(p));
        let slope = (point.1 - self.pivot.1) / (point.0 - self.pivot.0);
        if slope.is_finite() && slope > 0.0 {
            self.slope = slope;
        }
        if matches!(self.goal, Goal::MaxBits(_)) {
            self.pivot = point;
        }
    }

    /// The axis position where the prediction crosses [`AIM_MARGIN`]
    /// under the budget, kept strictly inside the open bracket; or, when
    /// the model disagrees with what the bracket ends are known (or, for
    /// an unprobed end, assumed) to be, the side it puts the crossing on.
    fn aim(&self, x_lo: f64, x_hi: f64) -> Aim {
        let target = (1.0 - AIM_MARGIN) * self.goal.budget();
        let over = |x: f64| self.predict(self.goal.to_qp(x)) > target;
        if !over(x_lo) {
            return Aim::Low;
        }
        if over(x_hi) {
            return Aim::High;
        }
        // The prediction is monotone in x; bisect it to far below QP_TOL.
        let (mut lo, mut hi) = (x_lo, x_hi);
        for _ in 0..32 {
            let mid = 0.5 * (lo + hi);
            if over(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The loop only runs on brackets wider than QP_TOL, so this keeps
        // the probe off both ends.
        let keep_off = QP_TOL / 16.0;
        Aim::Inside(hi.clamp(x_lo + keep_off, x_hi - keep_off))
    }
}

/// Where a [`Fit`] places the next probe.
enum Aim {
    /// At this axis position, strictly inside the bracket.
    Inside(f64),
    /// Below the bracket: its low end already meets the target.
    Low,
    /// Above the bracket: even its high end misses the target.
    High,
}

/// Finds the highest-quality QP meeting `goal`, calling `probe` to encode
/// at a QP and measure it, with `model` placing every probe from a prior
/// for the stream's size at QP 51 ([`RateModel::qp51_bits`] of
/// `floor_bits`, the size with no coefficient coded). Returns the QP and
/// the encode `probe` returned for it.
///
/// - **The model places each probe**, the first one included, where its
///   calibrated prediction crosses 0.4% under the budget, inside the
///   bracket of the infeasible and feasible ends seen so far. The probe
///   then recalibrates the model (θ for bits, κ for error). Where the
///   model contradicts the bracket, the probe bisects it instead.
/// - **QP 51 only as the fallback.** It is probed when the model puts
///   the answer at the unprobed QP-51 end, or when the bracket closes on
///   it. A bits goal that 51 misses re-targets the finest QP within 5%
///   of the QP-51 size (tiny tensors: headers dominate, quality is
///   nearly free), and an error goal that 51 meets answers 51. QP 0 is
///   probed only if it is the answer.
/// - **Stops** at the first feasible probe within 1.5% of a bits budget
///   or 1% of an error budget; the [`QP_TOL`] bracket width and an
///   iteration cap are the backstop.
/// - **No QP is probed twice.** The search keeps the encode at the
///   feasible end of its bracket and drops the rest, so the answer is
///   never encoded again.
///
/// When nothing is feasible, an error goal probes QP 0 once, as the best
/// effort.
///
/// # Errors
///
/// Propagates the first error `probe` returns.
pub fn search_qp<T, E>(
    goal: Goal,
    model: &RateModel,
    floor_bits: f64,
    mut probe: impl FnMut(f64) -> Result<(Probe, T), E>,
) -> Result<(f64, T), E> {
    let mut goal = goal;
    let bits_goal = matches!(goal, Goal::MaxBits(_));
    let mut fit = Fit::new(goal, model, floor_bits);
    // The bracket starts as the whole search axis, x = 0 (infeasible) to
    // 51 (feasible), neither end probed; QP 51 is the feasible end for
    // bits and the infeasible one for error. `best` is the feasible
    // end's encode once that end has been probed.
    let (mut x_lo, mut x_hi) = (0.0, QP_MAX);
    // QP 51's axis position (the map is its own inverse).
    let x_51 = goal.to_qp(QP_MAX);
    let mut best = None;
    let mut lo_probed = false;
    // Every infeasible probe, `(x, measure)`, so a re-targeted bits
    // goal can rebuild its bracket.
    let mut misses: Vec<(f64, f64)> = Vec::new();
    let mut iters = 0;
    loop {
        // Whether the bracket's QP-51 end is still unprobed.
        let open_51 = if bits_goal {
            best.is_none()
        } else {
            !lo_probed
        };
        let (x, at_51) = if iters < SEARCH_ITERS && x_hi - x_lo > QP_TOL {
            iters += 1;
            match fit.aim(x_lo, x_hi) {
                Aim::Inside(x) => (x, false),
                // The model puts the answer past the unprobed QP-51 end.
                Aim::High if bits_goal && open_51 => (x_51, true),
                Aim::Low if !bits_goal && open_51 => (x_51, true),
                Aim::High | Aim::Low => (0.5 * (x_lo + x_hi), false),
            }
        } else if open_51 && (bits_goal || x_hi <= QP_TOL) {
            // The bracket closed on the unprobed QP-51 end: for bits with
            // nothing feasible seen, for error with every probe feasible.
            (x_51, true)
        } else {
            break;
        };
        let qp = goal.to_qp(x);
        let (p, encoded) = probe(qp)?;
        fit.recalibrate(qp, p);
        if goal.met_by(p) {
            // 51 is the coarsest encode there is: meeting an error goal,
            // it is the answer.
            if !bits_goal && at_51 {
                return Ok((QP_MAX, encoded));
            }
            (x_hi, best) = (x, Some(encoded));
            if goal.settled_by(p) {
                break;
            }
        } else if bits_goal && at_51 {
            // Even the coarsest encode misses the budget (typical for
            // tiny tensors whose fixed headers exceed it): aim for the
            // QP-51 size plus 5%, which QP 51 meets by construction, and
            // rebuild the bracket from the probes that miss that.
            goal = Goal::MaxBits(p.bits as f64 * 1.05);
            fit.goal = goal;
            x_lo = misses
                .iter()
                .filter(|&&(_, bits)| bits > goal.budget())
                .fold(0.0, |lo, &(x, _)| f64::max(lo, x));
            (x_hi, best) = (x, Some(encoded));
        } else {
            misses.push((x, goal.measure(p)));
            (x_lo, lo_probed) = (x, true);
        }
    }
    // An error goal unmet everywhere converges onto QP 0 unprobed.
    let qp = goal.to_qp(x_hi);
    let encoded = best.map_or_else(|| probe(qp).map(|(_, encoded)| encoded), Ok)?;
    Ok((qp, encoded))
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
/// Returns [`CodecError::InvalidInput`] for the frames [`encode_video`]
/// refuses, or if `target_bpp` is not positive and finite.
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
    search_encode(
        frames,
        cfg,
        Goal::MaxBits(target_bpp * pixel_count(frames) as f64),
    )
}

/// Encodes `frames` at the coarsest QP (fewest bits) whose
/// reconstruction MSE in pixel² units does not exceed `target_mse`. If
/// even QP 0 exceeds the target, returns the QP-0 encode.
///
/// # Errors
///
/// Returns [`CodecError::InvalidInput`] for the frames [`encode_video`]
/// refuses, or if `target_mse` is negative or not finite.
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
    search_encode(
        frames,
        cfg,
        Goal::MaxSquaredError(target_mse * pixel_count(frames) as f64),
    )
}

/// Pixels across `frames`.
fn pixel_count(frames: &[Frame]) -> usize {
    frames.iter().map(|f| f.width() * f.height()).sum()
}

/// Runs [`search_qp`] over whole-video encodes, with a [`RateModel`] of
/// the frames in pixel² units and no framing in the QP-51 prior (the
/// search places its probes well from priors far further off). The
/// first probe's [`encode_video`] is what refuses frames it cannot
/// encode.
///
/// # Errors
///
/// Propagates [`encode_video`]'s [`CodecError::InvalidInput`].
fn search_encode(
    frames: &[Frame],
    cfg: &CodecConfig,
    goal: Goal,
) -> Result<RateSearchResult, CodecError> {
    let model = RateModel::analyse(frames.iter().map(|f| (f, 1.0)));
    let (qp, encoded) = search_qp(goal, &model, 0.0, |qp| {
        let enc = encode_video(frames, &cfg.clone().with_qp(qp))?;
        let p = Probe {
            bits: enc.bits(),
            sq_err: ssd_of(frames, &enc),
        };
        Ok::<_, CodecError>((p, enc))
    })?;
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
    let count = pixel_count(frames);
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
    /// monotonically in QP, with a curvature no linear model follows
    /// exactly (as with real encodes). Logs every probed QP; its "encode"
    /// is the QP it was probed at.
    fn synthetic(log: &mut Vec<f64>) -> impl FnMut(f64) -> Result<(Probe, f64), ()> + '_ {
        move |qp| {
            log.push(qp);
            let p = Probe {
                bits: synthetic_bits(qp),
                sq_err: synthetic_sq_err(qp),
            };
            Ok((p, qp))
        }
    }

    fn synthetic_bits(qp: f64) -> u64 {
        let per_value = 7.5 * (-qp / 7.0).exp2() + 0.02 * (51.0 - qp) / 51.0 + 0.05;
        (per_value * VALUES as f64) as u64
    }

    fn synthetic_sq_err(qp: f64) -> f64 {
        VALUES as f64 * (0.02 * (qp / 3.2).exp2() + 0.001 * qp)
    }

    /// The floor that makes `model`'s QP-51 prior the exact QP-51 size of
    /// the synthetic curves.
    fn floor(model: &RateModel) -> f64 {
        synthetic_bits(QP_MAX) as f64 - SURVIVOR_BITS * model.nonzeros(QP_MAX)
    }

    impl RateModel {
        /// A model tabulated from arbitrary curves, so the search can be
        /// driven by right and wrong models without a codec.
        fn from_curves(nonzeros: impl Fn(f64) -> f64, distortion: impl Fn(f64) -> f64) -> Self {
            RateModel {
                nonzeros: std::array::from_fn(|g| nonzeros(grid_qp(g))),
                distortion: std::array::from_fn(|g| distortion(grid_qp(g))),
            }
        }
    }

    /// The model that matches the synthetic curves: θ = [`THETA_PRIOR`]
    /// and κ = 1 are exactly right, and nothing survives QP 51.
    fn accurate() -> RateModel {
        RateModel::from_curves(
            |qp| (synthetic_bits(qp) - synthetic_bits(QP_MAX)) as f64 / THETA_PRIOR,
            synthetic_sq_err,
        )
    }

    /// Right and wrong models, by name: priors off by 4× either way, a
    /// model that sees the same count and distortion at every QP, and
    /// one whose curves run the wrong way in QP.
    fn models() -> Vec<(&'static str, RateModel)> {
        let scaled = |k: f64| {
            RateModel::from_curves(
                move |qp| k * synthetic_bits(qp) as f64 / THETA_PRIOR,
                move |qp| k * synthetic_sq_err(qp),
            )
        };
        vec![
            ("accurate", accurate()),
            ("4x over", scaled(4.0)),
            ("4x under", scaled(0.25)),
            (
                "constant",
                RateModel::from_curves(|_| 1000.0, |_| 0.5 * VALUES as f64),
            ),
            (
                "reversed",
                RateModel::from_curves(
                    |qp| synthetic_bits(QP_MAX - qp) as f64 / THETA_PRIOR,
                    |qp| synthetic_sq_err(QP_MAX - qp),
                ),
            ),
        ]
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

    /// Every model, with an exact QP-51 prior and priors 4× off either
    /// way, reaches a feasible answer near the crossing.
    #[test]
    fn answer_is_feasible_and_near_the_crossing_under_every_model() {
        // The refine loop, QP 51 as the fallback, and at most one
        // unprobed-end probe.
        let cap = SEARCH_ITERS + 2;
        let at_51 = synthetic_bits(QP_MAX) as f64;
        let priors = [
            ("exact", 0.0),
            ("4x over", 3.0 * at_51),
            ("4x under", -0.75 * at_51),
        ];
        for ((name, model), (prior_name, off)) in models()
            .into_iter()
            .flat_map(|m| priors.map(|p| (m.clone(), p)))
        {
            let name = format!("{name} model, {prior_name} prior");
            let prior = floor(&model) + off;
            for goal in goals() {
                let mut log = Vec::new();
                let (qp, encoded) = search_qp(goal, &model, prior, synthetic(&mut log)).unwrap();
                // The answer comes with its own probe's encode.
                assert_eq!(encoded.to_bits(), qp.to_bits(), "{name} {goal:?}");
                let p = Probe {
                    bits: synthetic_bits(qp),
                    sq_err: synthetic_sq_err(qp),
                };
                assert!(goal.met_by(p), "{name} {goal:?}: qp {qp} infeasible");
                let target = crossing(goal);
                let in_margin = matches!(goal, Goal::MaxBits(_)) && goal.settled_by(p);
                assert!(
                    (qp - target).abs() <= QP_TOL || in_margin,
                    "{name} {goal:?}: qp {qp}, crossing {target}"
                );
                assert!(log.contains(&qp), "{name} {goal:?}: answer never probed");
                assert!(log.len() <= cap, "{name} {goal:?}: {} probes", log.len());
                let mut sorted = log.clone();
                sorted.sort_by(f64::total_cmp);
                sorted.dedup();
                assert_eq!(sorted.len(), log.len(), "{name} {goal:?}: {log:?}");
            }
        }
    }

    /// With an accurate model and prior, no probe is spent on QP 51
    /// unless it is the answer, and the search settles within two
    /// probes.
    #[test]
    fn an_accurate_model_settles_within_two_probes() {
        for goal in goals() {
            let mut log = Vec::new();
            let (qp, _) =
                search_qp(goal, &accurate(), floor(&accurate()), synthetic(&mut log)).unwrap();
            assert!(log.len() <= 2, "{goal:?}: {log:?}");
            assert!(!log.contains(&QP_MAX) || qp == QP_MAX, "{goal:?}: {log:?}");
        }
    }

    /// A bits goal that QP 51 misses re-targets the QP-51 size plus 5%,
    /// whether the prior sees it coming (51 is the first probe) or not
    /// (51 is the fallback once every finer probe missed), under every
    /// model; the re-target counts against the same probe cap.
    #[test]
    fn bits_goal_infeasible_at_qp51_retargets_near_the_qp51_size() {
        let at_51 = synthetic_bits(QP_MAX) as f64;
        let goal = Goal::MaxBits(0.5 * at_51);
        // The re-targeted goal is the QP-51 size plus 5%: a finer QP
        // than 51 that meets it, not QP 51 itself.
        let retarget = Goal::MaxBits(at_51 * 1.05);
        for (name, model) in models() {
            for prior in [at_51, 0.1 * at_51, 4.0 * at_51] {
                let mut log = Vec::new();
                let (qp, _) = search_qp(goal, &model, prior, synthetic(&mut log)).unwrap();
                assert!(qp < QP_MAX, "{name} {prior}: qp {qp}");
                assert!(synthetic_bits(qp) as f64 <= at_51 * 1.05, "qp {qp}");
                assert!((qp - crossing(retarget)).abs() <= QP_TOL, "qp {qp}");
                if name == "accurate" {
                    assert_eq!(log[0] == QP_MAX, prior >= at_51, "{log:?}");
                }
                assert_eq!(log.iter().filter(|&&q| q == QP_MAX).count(), 1);
                assert!(log.len() <= SEARCH_ITERS + 2, "{name} {prior}: {log:?}");
                let mut sorted = log.clone();
                sorted.sort_by(f64::total_cmp);
                sorted.dedup();
                assert_eq!(sorted.len(), log.len(), "{log:?}");
            }
        }
    }

    /// An error goal that QP 51 meets answers 51: after one probe when the
    /// model sees it, as the fallback when the model thinks 51 misses.
    #[test]
    fn error_goal_met_at_qp51_returns_51() {
        let loose = Goal::MaxSquaredError(2.0 * synthetic_sq_err(QP_MAX));
        let mut log = Vec::new();
        assert_eq!(
            search_qp(loose, &accurate(), floor(&accurate()), synthetic(&mut log)),
            Ok((QP_MAX, QP_MAX))
        );
        assert_eq!(log, [QP_MAX]);
        let pessimistic = RateModel::from_curves(
            |qp| synthetic_bits(qp) as f64 / THETA_PRIOR,
            |qp| 4.0 * synthetic_sq_err(qp),
        );
        let mut log = Vec::new();
        assert_eq!(
            search_qp(
                loose,
                &pessimistic,
                floor(&pessimistic),
                synthetic(&mut log)
            ),
            Ok((QP_MAX, QP_MAX))
        );
        assert_eq!(log.last(), Some(&QP_MAX), "{log:?}");
        assert!(log.len() <= SEARCH_ITERS + 1, "{log:?}");
    }

    #[test]
    fn error_goal_unreachable_everywhere_returns_qp0() {
        for (name, model) in models() {
            let mut log = Vec::new();
            let strict = Goal::MaxSquaredError(0.5 * synthetic_sq_err(0.0));
            assert_eq!(
                search_qp(strict, &model, floor(&model), synthetic(&mut log)),
                Ok((0.0, 0.0)),
                "{name}"
            );
            // QP 0 is probed exactly once, and only at the end.
            assert_eq!(log.last(), Some(&0.0), "{name}");
            assert_eq!(log.iter().filter(|&&q| q == 0.0).count(), 1, "{name}");
        }
    }

    #[test]
    fn probe_errors_propagate() {
        let mut calls = 0;
        let got = search_qp(Goal::MaxBits(1000.0), &accurate(), 0.0, |_| {
            calls += 1;
            Err::<(Probe, ()), _>("probe failed")
        });
        assert_eq!(got, Err("probe failed"));
        assert_eq!(calls, 1);
    }

    /// The analysis pass's tables against a direct count: at every grid
    /// QP, the nonzeros are the coefficients the codec's own quantizer
    /// keeps, and the distortion is the zeroed energy plus step²/12 per
    /// survivor, weighted.
    #[test]
    fn model_tables_match_a_direct_count() {
        // 20×12 is not a multiple of the analysis block: the edge blocks
        // repeat the edge pixels.
        let frame = noisy_frame(3, 20).cropped(20, 12);
        let weight = 0.25;
        let model = RateModel::analyse([(&frame, weight)]);
        let plan = DctPlan::new(ANALYSIS_N);
        let mut coeffs = Vec::new();
        let mut block = [0i32; ANALYSIS_N * ANALYSIS_N];
        for y0 in (0..12).step_by(ANALYSIS_N) {
            for x0 in (0..20).step_by(ANALYSIS_N) {
                read_residual(&frame, x0, y0, &mut block);
                coeffs.extend(plan.forward(&block));
            }
        }
        assert_eq!(coeffs.len(), 6 * ANALYSIS_N * ANALYSIS_N);
        for g in (0..GRID).step_by(7) {
            let qp = grid_qp(g);
            let quant = crate::quant::Quantizer::from_qp(qp);
            let kept: Vec<bool> = coeffs.iter().map(|&c| quant.quantize(c) != 0).collect();
            let nonzeros = kept.iter().filter(|&&k| k).count() as f64;
            let step2 = quant.step() * quant.step();
            let distortion: f64 = coeffs
                .iter()
                .zip(&kept)
                .map(|(&c, &k)| weight * if k { step2 / 12.0 } else { c * c })
                .sum();
            assert_eq!(model.nonzeros(qp), nonzeros, "qp {qp}");
            let rel = (model.distortion(qp) - distortion).abs() / distortion;
            assert!(
                rel < 1e-9,
                "qp {qp}: {} vs {distortion}",
                model.distortion(qp)
            );
        }
        // Between grid points the tables interpolate, so both stay
        // monotone in QP.
        for g in 0..GRID - 1 {
            let (qp, next) = (grid_qp(g), grid_qp(g) + 0.0625);
            assert!(model.nonzeros(next) <= model.nonzeros(qp), "qp {qp}");
            assert!(model.distortion(next) >= model.distortion(qp), "qp {qp}");
        }
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
        let bpp_fine = encode_video(&frames, &cfg.clone().with_qp(16.0))
            .expect("encode")
            .bits_per_pixel();
        let bpp_coarse = encode_video(&frames, &cfg.with_qp(40.0))
            .expect("encode")
            .bits_per_pixel();
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
