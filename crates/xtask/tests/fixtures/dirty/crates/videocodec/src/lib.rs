//! Dirty fixture, videocodec half: a writer/reader pair that desyncs and
//! a writer no reader parses.

#![forbid(unsafe_code)]

pub mod decoder;
pub mod encoder;
