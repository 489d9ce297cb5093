//! Chained tensor codecs: the Fig 14 baseline grid.
//!
//! §7.1 of the paper builds eight alternative "tensor codecs" by chaining
//! a numeric-format stage (integer RTN or MXFP) into a general-purpose
//! lossless compressor (Huffman, Deflate, LZ4, or CABAC) — the pipeline
//! used by hardware-compression proposals like Atalanta. This module
//! implements the chain: quantize, serialize the quantized symbols as
//! bytes, compress losslessly, and account the *measured* compressed bits
//! (which is what makes the comparison against LLM.265's measured bits
//! fair).

use llm265_bitstream::{deflate::Deflate, huffman::Huffman, lz4::Lz4, ByteCodec, CabacBytes};
use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

use crate::mxfp::{MxFormat, MxfpQuantizer};
use crate::rtn::{GroupScheme, RtnQuantizer};

/// The numeric-format stage of a chained codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericStage {
    /// Symmetric group-wise RTN at this bit width.
    Rtn(u32),
    /// An MXFP block float format.
    Mxfp(MxFormat),
}

impl NumericStage {
    fn name(&self) -> String {
        match self {
            NumericStage::Rtn(b) => format!("INT{b}"),
            NumericStage::Mxfp(f) => MxfpQuantizer::new(*f).name(),
        }
    }

    /// Applies the stage, returning the reconstruction plus the quantized
    /// symbol stream (one byte per value) handed to the lossless stage.
    fn quantize(&self, t: &Tensor) -> (Tensor, Vec<u8>) {
        match self {
            NumericStage::Rtn(bits) => {
                let q = RtnQuantizer::symmetric(*bits, GroupScheme::Groups(128));
                let recon = q.apply(t);
                // Symbols: per-group level indices (reconstruct the level
                // from the reconstruction by re-deriving the group delta).
                let symbols = symbols_from_groups(t, &recon, *bits, 128);
                (recon, symbols)
            }
            NumericStage::Mxfp(format) => {
                let q = MxfpQuantizer::new(*format);
                let recon = q.apply(t);
                // Symbols: byte image of the element encoding. We use the
                // rank of each value within its block's representable set,
                // approximated by scaled-and-offset rounding — adequate
                // for entropy measurement since it is a bijection of the
                // element encoding.
                let symbols = mxfp_symbols(&recon, *format);
                (recon, symbols)
            }
        }
    }
}

/// Derives per-value level indices (biased to unsigned bytes) from a
/// symmetric group-wise RTN reconstruction.
fn symbols_from_groups(orig: &Tensor, recon: &Tensor, bits: u32, group: usize) -> Vec<u8> {
    let half: f32 = (1i32 << (bits - 1)) as f32;
    let mut out = Vec::with_capacity(orig.len());
    let data_o = orig.data();
    let data_r = recon.data();
    let mut start = 0;
    while start < data_o.len() {
        let end = (start + group).min(data_o.len());
        let max_abs = data_o[start..end]
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        let delta = if max_abs > 0.0 { max_abs / half } else { 0.0 };
        for &r in &data_r[start..end] {
            // `delta` is assigned exactly 0.0 for all-zero groups one line up;
            // this guards the division.
            let level = if delta == 0.0 {
                0
            } else {
                (r / delta).round() as i32
            };
            out.push((level + half as i32).clamp(0, 255) as u8);
        }
        start = end;
    }
    out
}

/// Bijective byte image of MXFP-reconstructed values within each block.
fn mxfp_symbols(recon: &Tensor, format: MxFormat) -> Vec<u8> {
    let block = crate::mxfp::BLOCK;
    let data = recon.data();
    let mut out = Vec::with_capacity(data.len());
    let mut start = 0;
    while start < data.len() {
        let end = (start + block).min(data.len());
        let max_abs = data[start..end]
            .iter()
            .fold(0.0f64, |m, &v| m.max((v as f64).abs()));
        let scale = if max_abs > 0.0 {
            (max_abs / format.max_value()).log2().ceil().exp2()
        } else {
            1.0
        };
        for &v in &data[start..end] {
            // Map the unit-scale value onto a small signed integer grid;
            // distinct representable values map to distinct symbols.
            let unit = v as f64 / scale;
            let sym = (unit / format.max_value() * 120.0).round() as i32 + 128;
            out.push(sym.clamp(0, 255) as u8);
        }
        start = end;
    }
    out
}

/// The lossless stage of a chained codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LosslessStage {
    /// Canonical Huffman coding of the bytes.
    Huffman,
    /// LZ77 plus Huffman, in the spirit of DEFLATE.
    Deflate,
    /// LZ4 block compression.
    Lz4,
    /// CABAC: adaptive binary arithmetic coding of each byte.
    Cabac,
}

impl LosslessStage {
    /// All four stages, in the paper's order.
    pub fn all() -> [LosslessStage; 4] {
        [
            LosslessStage::Huffman,
            LosslessStage::Deflate,
            LosslessStage::Lz4,
            LosslessStage::Cabac,
        ]
    }

    fn codec(&self) -> Box<dyn ByteCodec> {
        match self {
            LosslessStage::Huffman => Box::new(Huffman),
            LosslessStage::Deflate => Box::new(Deflate),
            LosslessStage::Lz4 => Box::new(Lz4),
            LosslessStage::Cabac => Box::new(CabacBytes),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            LosslessStage::Huffman => "Huffman",
            LosslessStage::Deflate => "Deflate",
            LosslessStage::Lz4 => "LZ4",
            LosslessStage::Cabac => "CABAC",
        }
    }
}

/// A chained codec: numeric stage → lossless stage.
#[derive(Debug, Clone)]
pub struct ChainedCodec {
    numeric: NumericStage,
    lossless: LosslessStage,
}

impl ChainedCodec {
    /// Chains a numeric stage into a lossless stage.
    pub fn new(numeric: NumericStage, lossless: LosslessStage) -> Self {
        ChainedCodec { numeric, lossless }
    }

    /// The full 2×4 grid of Fig 14 at a given RTN bit width and MXFP
    /// format.
    pub fn grid(rtn_bits: u32, mxfp: MxFormat) -> Vec<ChainedCodec> {
        let mut out = Vec::with_capacity(8);
        for numeric in [NumericStage::Rtn(rtn_bits), NumericStage::Mxfp(mxfp)] {
            for lossless in LosslessStage::all() {
                out.push(ChainedCodec::new(numeric, lossless));
            }
        }
        out
    }
}

impl LossyCompressor for ChainedCodec {
    fn name(&self) -> String {
        format!("{}+{}", self.numeric.name(), self.lossless.name())
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let (recon, symbols) = self.numeric.quantize(t);
        let packed = self.lossless.codec().compress(&symbols);
        // Group/block scale metadata rides along uncompressed.
        let scale_bits = match self.numeric {
            NumericStage::Rtn(_) => (t.len() as u64).div_ceil(128) * 32,
            NumericStage::Mxfp(_) => (t.len() as u64).div_ceil(crate::mxfp::BLOCK as u64) * 8,
        };
        (recon, packed.len() as u64 * 8 + scale_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;
    use llm265_tensor::synthetic::{llm_gradient, GradientProfile};

    fn gradient(seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        llm_gradient(64, 64, &GradientProfile::default(), &mut rng)
    }

    #[test]
    fn grid_has_eight_members_with_unique_names() {
        let grid = ChainedCodec::grid(4, MxFormat::Mxfp4);
        assert_eq!(grid.len(), 8);
        let mut names: Vec<String> = grid.iter().map(LossyCompressor::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn entropy_stage_beats_raw_bit_width_on_gaussian_levels() {
        // Quantized bell-shaped data has well under 8 bits of entropy at
        // 8-bit width; every entropy-coding stage must come in under the
        // numeric width (LZ4 has no entropy stage and is skipped).
        let g = gradient(1);
        for lossless in LosslessStage::all() {
            if lossless == LosslessStage::Lz4 {
                continue;
            }
            let mut c = ChainedCodec::new(NumericStage::Rtn(8), lossless);
            let (_, bits) = c.transcode(&g);
            let bpv = bits as f64 / g.len() as f64;
            assert!(bpv < 7.5, "{}: {bpv}", c.name());
        }
    }

    #[test]
    fn reconstruction_matches_pure_numeric_stage() {
        let g = gradient(2);
        let mut chained = ChainedCodec::new(NumericStage::Rtn(4), LosslessStage::Huffman);
        let (recon, _) = chained.transcode(&g);
        let pure = RtnQuantizer::symmetric(4, GroupScheme::Groups(128)).apply(&g);
        assert_eq!(recon, pure, "lossless stage must not change values");
    }

    #[test]
    fn mxfp_chain_works() {
        let g = gradient(3);
        let mut c = ChainedCodec::new(NumericStage::Mxfp(MxFormat::Mxfp6), LosslessStage::Cabac);
        let (recon, bits) = c.transcode(&g);
        let nmse = stats::mse(g.data(), recon.data()) / stats::variance(g.data());
        assert!(nmse < 0.02, "nmse {nmse}");
        let bpv = bits as f64 / g.len() as f64;
        assert!(bpv < 7.0, "bpv {bpv}");
    }

    #[test]
    fn coarser_numeric_stage_gives_fewer_bits_more_error() {
        let g = gradient(4);
        let measure = |bits: u32| {
            let mut c = ChainedCodec::new(NumericStage::Rtn(bits), LosslessStage::Cabac);
            let (recon, wire) = c.transcode(&g);
            (
                wire as f64 / g.len() as f64,
                stats::mse(g.data(), recon.data()),
            )
        };
        let (b3, e3) = measure(3);
        let (b6, e6) = measure(6);
        assert!(b3 < b6);
        assert!(e3 > e6);
    }
}
