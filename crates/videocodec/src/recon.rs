//! The one reconstruction both sides of the codec run.
//!
//! As in H.265, the decoder's reconstruction is the normative process and
//! the encoder embeds it: `encoder::FrameCoder` and
//! `decoder::FrameDecoder` both hold a [`Recon`]. The encoder adds only
//! forward transform and quantization in front of it, the decoder only
//! the parser, so `decode(encode(f))` equals the encoder's reconstruction
//! by construction.
//!
//! Reconstruction is generic over the leaf's edge `N` and its TU edge
//! `T`: every block lives on the stack as a fixed-size [`Block`], so its
//! loops have constant trip counts and nothing is allocated per leaf.

use crate::inter::{compensate, MotionVector};
use crate::intra::{PredMode, Refs};
use crate::lanes::round_i32;
use crate::quant::Quantizer;
use crate::transform::DctPlans;
use crate::{Block, CodecConfig, Frame};

/// Coding-unit size used when adaptive partitioning is disabled.
pub(crate) const FIXED_CU: usize = 8;

/// How a leaf is predicted, as reconstruction reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prediction<'a> {
    /// Constant mid-gray (intra stage disabled).
    Flat,
    /// Intra prediction from the reconstruction's own reference samples.
    Intra(PredMode),
    /// Motion-compensated prediction from a reference frame.
    Inter(&'a Frame, MotionVector),
}

/// What a tile derives from its [`CodecConfig`], and its reconstruction.
pub(crate) struct Recon<'a> {
    pub cfg: &'a CodecConfig,
    pub plans: &'a DctPlans,
    pub quant: Quantizer,
    /// The profile's smallest coding unit, or [`FIXED_CU`] on a fixed grid.
    pub min_cu: usize,
    /// Width of a coded intra mode index.
    pub mode_bits: u32,
    /// Whether leaves code an inter flag (inter on, reference present).
    pub frame_inter: bool,
    /// The tile's padded reconstruction.
    pub frame: Frame,
    /// The previous frame's reconstruction of the same band.
    pub prev: Option<&'a Frame>,
}

impl<'a> Recon<'a> {
    /// The state for coding frame `frame_idx` of a `w × h` (padded) tile.
    pub fn new(
        cfg: &'a CodecConfig,
        plans: &'a DctPlans,
        w: usize,
        h: usize,
        prev: Option<&'a Frame>,
        frame_idx: usize,
    ) -> Self {
        let min_cu = if cfg.pipeline.adaptive_partition {
            cfg.profile.min_cu()
        } else {
            FIXED_CU.min(cfg.profile.ctu())
        };
        // Mode tables are tiny (at most 35 entries); the mask states that.
        let n_modes = (cfg.profile.modes().len() & 0xFFFF_FFFF) as u32;
        Recon {
            cfg,
            plans,
            quant: Quantizer::from_qp(cfg.qp),
            min_cu,
            mode_bits: 32 - (n_modes - 1).leading_zeros(),
            frame_inter: cfg.pipeline.inter && frame_idx > 0 && prev.is_some(),
            frame: Frame::new(w, h),
            prev,
        }
    }

    /// Transform-unit size of a `size`-square coding unit.
    pub fn tu_size(&self, size: usize) -> usize {
        size.min(self.cfg.profile.max_tu())
    }

    /// The prediction block of the `N × N` leaf at `(x0, y0)`.
    pub fn predict<const N: usize>(&self, x0: usize, y0: usize, pred: Prediction<'_>) -> Block<N> {
        match pred {
            Prediction::Flat => [[128; N]; N],
            Prediction::Intra(mode) => Refs::<N>::gather(&self.frame, x0, y0).predict(mode),
            Prediction::Inter(reference, mv) => {
                let mut block = [[0; N]; N];
                compensate(reference, x0, y0, N, mv, block.as_flattened_mut());
                block
            }
        }
    }

    /// Predicts the parsed `size`-square leaf at `(x0, y0)` and writes
    /// its reconstruction into the frame: the decoder's whole leaf.
    /// `levels` is laid out as for [`Self::reconstruct`].
    pub fn reconstruct_leaf(
        &mut self,
        x0: usize,
        y0: usize,
        size: usize,
        pred: Prediction<'_>,
        levels: &[i32],
    ) {
        match size {
            4 => self.write_leaf::<4>(x0, y0, pred, levels),
            8 => self.write_leaf::<8>(x0, y0, pred, levels),
            16 => self.write_leaf::<16>(x0, y0, pred, levels),
            _ => self.write_leaf::<32>(x0, y0, pred, levels),
        }
    }

    fn write_leaf<const N: usize>(
        &mut self,
        x0: usize,
        y0: usize,
        pred: Prediction<'_>,
        levels: &[i32],
    ) {
        let pred = self.predict::<N>(x0, y0, pred);
        let block = self.reconstruct::<N>(&pred, levels);
        self.frame.write_block(x0, y0, N, block.as_flattened());
    }

    /// The reconstruction of an `N × N` leaf: `pred` plus each TU's
    /// residual, clamped to pixel range. `levels` holds the leaf's `N²`
    /// levels TU after TU, in raster TU order, each TU's `T × T` levels
    /// in raster order (`T` = [`Self::tu_size`]).
    pub fn reconstruct<const N: usize>(&self, pred: &Block<N>, levels: &[i32]) -> Block<N> {
        match self.tu_size(N) {
            t if t == N => self.reconstruct_tus::<N, N>(pred, levels),
            4 => self.reconstruct_tus::<N, 4>(pred, levels),
            8 => self.reconstruct_tus::<N, 8>(pred, levels),
            _ => self.reconstruct_tus::<N, 16>(pred, levels),
        }
    }

    fn reconstruct_tus<const N: usize, const T: usize>(
        &self,
        pred: &Block<N>,
        levels: &[i32],
    ) -> Block<N> {
        let mut out = [[0; N]; N];
        for (k, tu) in levels.chunks_exact(T * T).take(tus::<N, T>()).enumerate() {
            let (x0, y0) = tu_origin::<N, T>(k);
            let res = self.residual::<T>(tu);
            for ((o, p), r) in out[y0..y0 + T].iter_mut().zip(&pred[y0..y0 + T]).zip(&res) {
                for ((o, &p), &r) in o[x0..x0 + T].iter_mut().zip(&p[x0..x0 + T]).zip(r) {
                    *o = (p + r).clamp(0, 255);
                }
            }
        }
        out
    }

    /// Reconstructs the residual of one `T × T` TU from its raster
    /// levels. An all-zero TU reconstructs to zeros, so its dequantize
    /// and inverse are skipped (exactly: the inverse of zeros is zeros);
    /// transform skip rounds each dequantized level.
    fn residual<const T: usize>(&self, levels: &[i32]) -> Block<T> {
        let mut res = [[0; T]; T];
        if !self.cfg.pipeline.transform {
            for (r, &l) in res.as_flattened_mut().iter_mut().zip(levels) {
                *r = round_i32(self.quant.dequantize(l));
            }
        } else if levels.iter().any(|&l| l != 0) {
            let mut coeffs = [[0.0f32; T]; T];
            for (c, &l) in coeffs.as_flattened_mut().iter_mut().zip(levels) {
                *c = self.quant.dequantize(l) as f32;
            }
            res = self.plans.get(T).inverse_block(coeffs);
        }
        res
    }
}

/// TUs in an `N × N` leaf of `T × T` TUs.
pub(crate) const fn tus<const N: usize, const T: usize>() -> usize {
    (N / T) * (N / T)
}

/// The top-left sample `(x, y)` of TU `k` (raster TU order) of an
/// `N × N` leaf of `T × T` TUs.
pub(crate) const fn tu_origin<const N: usize, const T: usize>(k: usize) -> (usize, usize) {
    (k % (N / T) * T, k / (N / T) * T)
}
