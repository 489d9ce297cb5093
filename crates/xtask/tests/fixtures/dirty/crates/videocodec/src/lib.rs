//! Dirty fixture, videocodec half: one float-cmp finding (plus a hygiene
//! finding from the manifest).

#![forbid(unsafe_code)]

pub mod decoder;
pub mod encoder;

/// Float-cmp: exact comparison against a float literal fires.
pub fn is_zero(x: f32) -> bool {
    x == 0.0
}
