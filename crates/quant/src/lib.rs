//! Baseline tensor compressors for the LLM.265 reproduction.
//!
//! The paper compares LLM.265 against the contemporary quantization
//! landscape; this crate reimplements each baseline family from scratch:
//!
//! - [`rtn`] — round-to-nearest quantization (per-tensor, group-wise,
//!   asymmetric dynamic), the universal baseline (§2.1).
//! - [`gptq`] — GPTQ-style post-training quantization: sequential
//!   column rounding with Hessian-based error compensation from a
//!   calibration set.
//! - [`awq`] — AWQ-style activation-aware weight scaling before
//!   group-wise RTN.
//! - [`rotation`] — QuaRot/SpinQuant-style randomized-Hadamard rotation
//!   to spread outliers before quantization (used for KV-cache and
//!   activation baselines in Fig 8).
//! - [`mxfp`] — microscaling floating-point formats (MXFP4/6/8) with
//!   shared power-of-two block scales.
//! - [`nf4`] — NormalFloat-4 codebook quantization.
//! - [`onebit`] — 1-bit Adam / 1-bit LAMB gradient compression with error
//!   feedback and a warm-up phase (§5.2 baselines).
//! - [`chained`] — the Fig 14 baseline grid: {RTN, MXFP} × {Huffman,
//!   Deflate, LZ4, CABAC} chained "tensor codecs".
//!
//! All compressors implement
//! [`LossyCompressor`](llm265_tensor::channel::LossyCompressor) so the
//! distributed-training simulator and the benchmark harness can treat
//! them interchangeably with LLM.265.

#![forbid(unsafe_code)]
// Exact float comparisons in codec math go through `stats::approx_eq` or
// carry an allow with the reason the comparison is exact. Comparisons
// with zero are exempt; test code may compare exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod awq;
pub mod chained;
pub mod gptq;
pub mod mxfp;
pub mod nf4;
pub mod onebit;
pub mod rotation;
pub mod rtn;
pub mod smoothquant;

mod linalg;

pub use rtn::{GroupScheme, RtnQuantizer};
