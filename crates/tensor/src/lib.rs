//! Tensor substrate for the LLM.265 reproduction.
//!
//! This crate provides the data plumbing every other crate builds on:
//!
//! - [`Tensor`]: a dense, row-major 2-D `f32` tensor with the handful of
//!   linear-algebra helpers the codec and model substrates need.
//! - [`half`]: software FP16 / BF16 conversion (the paper stores tensors in
//!   FP16/BF16 and quantizes to 8 bits before feeding the codec).
//! - [`stats`]: distortion and distribution metrics (MSE, PSNR, entropy,
//!   kurtosis) used throughout the evaluation harness.
//! - [`rng`]: a small, fully deterministic PCG-style random number generator
//!   so every experiment in EXPERIMENTS.md reproduces bit-for-bit.
//! - [`synthetic`]: generators for tensors with the statistical structure the
//!   paper identifies as load-bearing for LLM tensors — bell-shaped bodies,
//!   channel-wise scale structure, and heavy-tailed outliers (§3.1).
//!
//! # Example
//!
//! ```
//! use llm265_tensor::{synthetic, stats, rng::Pcg32};
//!
//! let mut rng = Pcg32::seed_from(42);
//! let w = synthetic::llm_weight(64, 64, &synthetic::WeightProfile::default(), &mut rng);
//! assert_eq!(w.shape(), (64, 64));
//! // Weights are bell-shaped: excess kurtosis well above a uniform's.
//! assert!(stats::kurtosis(w.data()) > 0.0);
//! ```

#![forbid(unsafe_code)]
// Exact float comparisons in codec math go through `stats::approx_eq` or
// carry an allow with the reason the comparison is exact. Comparisons
// with zero are exempt; test code may compare exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod channel;
pub mod check;
pub mod half;
pub mod rng;
pub mod stats;
pub mod synthetic;
mod tensor;

pub use tensor::Tensor;
