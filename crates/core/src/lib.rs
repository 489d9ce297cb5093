//! LLM.265 — the video-codec-based tensor codec (the paper's primary
//! contribution).
//!
//! The pipeline mirrors §3.2 of the paper:
//!
//! 1. the input tensor is partitioned into frame-sized **chunks** (NVENC
//!    has frame-size limits; so does our software codec's working set);
//! 2. each chunk's FP16/FP32 values are affinely quantized to **8-bit
//!    Luma** pixels;
//! 3. frames are compressed by the **intra-only video codec**
//!    ([`llm265_videocodec`]), with the rate knob (continuous QP, found
//!    by [`llm265_videocodec::rate::search_qp`]) delivering
//!    **fractional bits-per-value** targets;
//! 4. the tile payloads are framed as one **tensor stream** (format v5):
//!    a header states the configuration and geometry once, and each
//!    chunk record adds only its affine map, tile lengths and a CRC-32
//!    ([`TensorStreamIndex`] reads and checks it);
//! 5. decoding inverts the codec and the affine map.
//!
//! On top of the plain codec this crate provides the paper's two rate
//! features:
//!
//! - **Variable bit-width allocation** ([`rate`]) — the footnote-2 search
//!   `B = k·l + b` over a layer stack, giving later (harder) layers more
//!   bits while holding the average budget;
//! - **Residual-compensated gradient compression** ([`gradient`]) — §5.1's
//!   two-stage scheme `Comp(G) + Comp(G − Comp(G))` with the late-training
//!   switch of the residual stage to 8-bit RTN.
//!
//! # Example
//!
//! ```
//! use llm265_core::{Llm265Codec, TensorCodec, RateTarget};
//! use llm265_tensor::{synthetic, rng::Pcg32};
//!
//! let mut rng = Pcg32::seed_from(1);
//! let w = synthetic::llm_weight(64, 64, &synthetic::WeightProfile::default(), &mut rng);
//! let codec = Llm265Codec::new();
//! let enc = codec.encode(&w, RateTarget::BitsPerValue(3.0))?;
//! assert!(enc.bits_per_value() <= 3.2);
//! let out = codec.decode(&enc)?;
//! assert_eq!(out.shape(), w.shape());
//! # Ok::<(), llm265_core::CodecError>(())
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

pub mod access;
pub mod archive;
mod chunk;
mod codec;
mod framing;
pub mod gradient;
pub mod pool;
pub mod rate;

pub use access::TensorStreamIndex;
pub use archive::{ArchiveIndex, TensorArchive};
pub use codec::{Llm265Channel, Llm265Codec, Llm265Config, Llm265TrackingChannel};
pub use llm265_videocodec::{PipelineConfig, Profile, ProfileKind};

use llm265_tensor::Tensor;

/// Error produced when encoding or decoding a tensor fails.
///
/// This is the same [`llm265_bitstream::CodecError`] taxonomy used by every
/// decode path in the workspace, so errors propagate from the entropy coders
/// through the video codec up to the tensor codec without translation.
pub use llm265_bitstream::CodecError;

/// How the encoder should choose its rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateTarget {
    /// Meet an average bits-per-value budget (fractional budgets are the
    /// point — e.g. 2.88 or 3.5 bits).
    BitsPerValue(f64),
    /// Spend as few bits as possible while keeping the *normalized* MSE
    /// (MSE divided by the tensor's variance) at or under this value.
    MaxNormalizedMse(f64),
    /// Encode at a fixed quantization parameter (expert knob).
    Qp(f64),
}

/// An encoded tensor: a self-describing compressed byte stream.
#[derive(Debug, Clone)]
pub struct EncodedTensor {
    pub(crate) bytes: Vec<u8>,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl EncodedTensor {
    /// Reassembles an encoded tensor from its transported parts (the byte
    /// stream plus the shape it was encoded from) — the receiving side of
    /// any transport that moves [`EncodedTensor::bytes`] across a wire.
    ///
    /// The stream is *validated at decode time*, not here: feeding a
    /// corrupt or truncated stream, or one whose header states another
    /// shape, to [`TensorCodec::decode`] returns a [`CodecError`]; it
    /// never panics.
    pub fn from_parts(bytes: Vec<u8>, rows: usize, cols: usize) -> Self {
        EncodedTensor { bytes, rows, cols }
    }

    /// The compressed byte stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Shape of the original tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Compressed size in bits.
    pub fn bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Average compressed bits per tensor value (including all metadata).
    pub fn bits_per_value(&self) -> f64 {
        let n = self.rows * self.cols;
        if n == 0 {
            0.0
        } else {
            self.bits() as f64 / n as f64
        }
    }
}

/// A general-purpose tensor codec: encode to bytes, decode back.
///
/// This is the interface the paper's "general-purpose" claim is about: the
/// same codec object compresses weights, activations, KV-cache slabs and
/// gradients with no data-dependent calibration.
pub trait TensorCodec {
    /// Display name used in experiment tables.
    fn name(&self) -> String;

    /// Encodes a tensor under a rate target.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the tensor cannot be encoded (e.g. empty).
    fn encode(&self, t: &Tensor, target: RateTarget) -> Result<EncodedTensor, CodecError>;

    /// Decodes an [`EncodedTensor`] produced by this codec.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on corrupt or truncated input.
    fn decode(&self, e: &EncodedTensor) -> Result<Tensor, CodecError>;
}
