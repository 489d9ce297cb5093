//! The one reconstruction both sides of the codec run.
//!
//! As in H.265, the decoder's reconstruction is the normative process and
//! the encoder embeds it: `encoder::FrameCoder` and
//! `decoder::FrameDecoder` both hold a [`Recon`]. The encoder adds only
//! forward transform and quantization in front of it, the decoder only
//! the parser, so `decode(encode(f))` equals the encoder's reconstruction
//! by construction.

use crate::lanes::round_i32;
use crate::quant::Quantizer;
use crate::transform::DctPlans;
use crate::{CodecConfig, Frame};

/// Coding-unit size used when adaptive partitioning is disabled.
pub(crate) const FIXED_CU: usize = 8;

/// What a tile derives from its [`CodecConfig`], its reconstruction, and
/// the per-TU scratch of [`Recon::reconstruct_tu`].
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
    /// Workspace of both DCT directions (the encoder's forward one too).
    pub dct_tmp: Vec<f32>,
    deq: Vec<f64>,
    /// The last reconstructed TU residual.
    rres: Vec<i32>,
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
            dct_tmp: Vec::new(),
            deq: Vec::new(),
            rres: Vec::new(),
        }
    }

    /// Transform-unit size of a `size`-square coding unit.
    pub fn tu_size(&self, size: usize) -> usize {
        size.min(self.cfg.profile.max_tu())
    }

    /// Reconstructs the residual of one `n × n` TU from its levels. An
    /// all-zero TU reconstructs to zeros, so its dequantize and inverse
    /// are skipped (exactly: the inverse of zeros is zeros); transform
    /// skip rounds each dequantized level.
    pub fn reconstruct_tu(&mut self, levels: &[i32], n: usize) {
        self.rres.clear();
        if !self.cfg.pipeline.transform {
            let quant = &self.quant;
            self.rres
                .extend(levels.iter().map(|&l| round_i32(quant.dequantize(l))));
        } else if levels.iter().all(|&l| l == 0) {
            self.rres.resize(n * n, 0);
        } else {
            self.quant.dequantize_block_into(levels, &mut self.deq);
            self.plans
                .get(n)
                .inverse_into(&self.deq, &mut self.dct_tmp, &mut self.rres);
        }
    }

    /// Writes TU `(tx, ty)` of a `size`-square coding unit into `block`:
    /// the prediction `pred` plus the last reconstructed residual,
    /// clamped to pixel range.
    pub fn add_tu(&self, pred: &[i32], block: &mut [i32], size: usize, tx: usize, ty: usize) {
        let tu = self.tu_size(size);
        for (y, res) in self.rres.chunks_exact(tu).enumerate() {
            let idx = (ty * tu + y) * size + tx * tu;
            for ((o, &p), &r) in block[idx..idx + tu]
                .iter_mut()
                .zip(&pred[idx..idx + tu])
                .zip(res)
            {
                *o = (p + r).clamp(0, 255);
            }
        }
    }
}
