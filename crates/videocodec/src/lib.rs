//! A from-scratch software video codec for the LLM.265 reproduction.
//!
//! The paper's central artifact is a video codec repurposed as a tensor
//! codec. Since this reproduction has no NVENC/NVDEC hardware (see
//! DESIGN.md), this crate implements the relevant pipeline in software, in
//! the architecture of H.265 (§2.2 of the paper):
//!
//! 1. **CTU quad-tree partitioning** ([`encoder`]) — recursive
//!    rate-distortion-optimised coding-unit splits;
//! 2. **Intra-frame prediction** ([`intra`]) — DC, Planar and 33 angular
//!    modes (plus Paeth/Smooth in the AV1-like profile);
//! 3. **Inter-frame motion prediction** ([`inter`]) — full-pel motion
//!    search against the previous reconstructed frame (the paper shows this
//!    stage *hurts* tensor compression; it is off by default);
//! 4. **Transform coding** ([`transform`]) — orthonormal 2-D DCT on
//!    4×4…32×32 blocks;
//! 5. **Quantization** ([`quant`]) — dead-zone scalar quantizer with the
//!    H.265 QP→step mapping, continuous QP for fractional bitrates;
//! 6. **Entropy coding** ([`syntax`]) — CABAC with adaptive contexts,
//!    significance maps, greater1/greater2 flags and adaptive-Rice
//!    remainders.
//!
//! Every stage after entropy coding can be toggled via [`PipelineConfig`]
//! to reproduce the Fig 2(b) ablation, and three [`Profile`]s (H.264-, H.265- and AV1-like)
//! reproduce the Fig 6 codec comparison. [`rate`] provides bitrate- and
//! distortion-targeted encoding (a search over continuous QP whose probes
//! a ρ-domain rate model places), the basis
//! of the paper's fractional-bit-width feature.
//!
//! The encoder contains the decoder: prediction always uses *reconstructed*
//! pixels, and encoder and decoder run one TU reconstruction (dequantize,
//! inverse transform, prediction plus residual), so `decode(encode(f))`
//! equals the encoder's reconstruction by construction (and `tests/`
//! round-trips the whole configuration matrix).
//!
//! # Example
//!
//! ```
//! use llm265_videocodec::{Frame, CodecConfig, encode_video, decode_video};
//!
//! // A gradient test frame.
//! let frame = Frame::from_fn(64, 64, |x, y| ((x * 2 + y) % 256) as u8);
//! let cfg = CodecConfig::default().with_qp(22.0);
//! let enc = encode_video(&[frame.clone()], &cfg).unwrap();
//! let dec = decode_video(&enc.bytes).unwrap();
//! assert_eq!(dec.len(), 1);
//! assert_eq!(dec[0], enc.recon[0]); // bit-exact with encoder recon
//! ```

#![forbid(unsafe_code)]
// Exact float comparisons in codec math go through `stats::approx_eq` or
// carry an allow with the reason the comparison is exact. Comparisons
// with zero are exempt; test code may compare exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]
// Decode and encode paths return `CodecError` instead of panicking; an
// exception carries an allow with the reason it cannot fire.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod ablation;
pub mod decoder;
pub mod encoder;
mod frame;
pub mod inter;
pub mod intra;
pub mod lanes;
pub mod profile;
pub mod quant;
pub mod rate;
mod recon;
pub mod scan;
pub mod syntax;
pub mod tile;
pub mod transform;

pub use frame::Frame;
pub use llm265_bitstream::CodecError;
pub use profile::{PipelineConfig, Profile, ProfileKind};

/// A square `N × N` block of samples, row-major: the fixed-size unit of
/// every kernel below the encoder's leaf dispatch and of the one
/// reconstruction (`recon::Recon`). Stable Rust has no `[_; N * N]`, so
/// a kernel that wants the samples in one run reads
/// `block.as_flattened()`.
pub(crate) type Block<const N: usize> = [[i32; N]; N];

/// Encoder configuration: profile, pipeline switches and base QP.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecConfig {
    /// Block-structure / mode-set profile (H.264-, H.265- or AV1-like).
    pub profile: Profile,
    /// Per-stage pipeline switches (Fig 2b ablation).
    pub pipeline: PipelineConfig,
    /// Base quantization parameter. Continuous (fractional QPs are legal);
    /// H.265 step mapping `qstep = 2^((qp-4)/6)`.
    pub qp: f64,
    /// Requested number of independently decodable tiles per frame
    /// (horizontal CTU-row bands, each with fresh entropy-coder init).
    /// Clamped to the frame's CTU-row count and [`tile::MAX_TILES`]; a
    /// video stream's header states the clamped count once, and `1` (the
    /// default) writes one tile per frame. Purely a geometry knob: the
    /// tile count never depends on how many threads run, so streams stay
    /// bit-identical at every thread count.
    pub tiles: usize,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            profile: Profile::h265(),
            pipeline: PipelineConfig::default(),
            qp: 28.0,
            tiles: 1,
        }
    }
}

impl CodecConfig {
    /// Returns the config with a different base QP.
    #[must_use]
    pub fn with_qp(mut self, qp: f64) -> Self {
        self.qp = qp;
        self
    }

    /// Returns the config with a different profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Returns the config with different pipeline switches.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Returns the config with a different requested tile count.
    #[must_use]
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        self.tiles = tiles;
        self
    }

    /// The QP as headers carry it: a `u16` on the 1/256 fixed-point grid.
    pub fn qp_code(&self) -> u16 {
        // Clamped to the u16 range one step up, so the cast is exact.
        (self.qp * 256.0).round().clamp(0.0, 65535.0) as u16
    }

    /// The config with its QP snapped to [`Self::qp_code`]'s grid — what
    /// encoders code with, so encoding decisions and the decoder's
    /// quantizer agree bit-exactly.
    #[must_use]
    pub fn snapped(&self) -> Self {
        self.clone().with_qp(f64::from(self.qp_code()) / 256.0)
    }
}

/// Result of encoding a video: the bitstream plus the encoder's
/// reconstruction (bit-exact with what the decoder will produce).
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    /// The compressed bitstream, self-describing (decode with
    /// [`decode_video`]).
    pub bytes: Vec<u8>,
    /// Reconstructed frames as the decoder will see them.
    pub recon: Vec<Frame>,
}

impl EncodedVideo {
    /// Compressed size in bits.
    pub fn bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Average compressed bits per pixel.
    pub fn bits_per_pixel(&self) -> f64 {
        let pixels: usize = self.recon.iter().map(|f| f.width() * f.height()).sum();
        if pixels == 0 {
            0.0
        } else {
            self.bits() as f64 / pixels as f64
        }
    }
}

/// Encodes a sequence of frames.
///
/// The first frame is always intra; later frames may use inter prediction
/// when `cfg.pipeline.inter` is set (the paper's default for tensors is
/// intra-only).
///
/// # Errors
///
/// Returns [`CodecError::InvalidInput`] if `frames` is empty, a frame has
/// zero width or height, or frames disagree in size.
pub fn encode_video(frames: &[Frame], cfg: &CodecConfig) -> Result<EncodedVideo, CodecError> {
    encoder::encode_video(frames, cfg)
}

/// Decodes a bitstream produced by [`encode_video`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or corrupt input.
pub fn decode_video(bytes: &[u8]) -> Result<Vec<Frame>, CodecError> {
    decoder::decode_video(bytes)
}
