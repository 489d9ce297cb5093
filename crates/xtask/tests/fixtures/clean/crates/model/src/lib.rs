//! Clean fixture, model half: a public API with no panic path, so
//! `lint --sweep` passes.

#![forbid(unsafe_code)]

/// A missing value falls back instead of panicking.
pub fn train_step(loss: Option<u32>) -> u32 {
    loss.unwrap_or(0)
}
