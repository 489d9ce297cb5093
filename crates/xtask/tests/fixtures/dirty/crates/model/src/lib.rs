//! Dirty fixture, model half: a public API that reaches an `unwrap`, so
//! `lint --sweep` fails. The gate itself does not audit this crate.

#![forbid(unsafe_code)]

/// Sweep finding: the unwrap is reachable from a public API.
pub fn train_step(loss: Option<u32>) -> u32 {
    loss.unwrap()
}
