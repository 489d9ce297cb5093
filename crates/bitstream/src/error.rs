//! The shared error taxonomy for every decode path in the workspace.
//!
//! The static-analysis gate (`cargo run -p xtask -- lint`) denies panics in
//! the codec hot paths, so everything a hostile bitstream can trigger must
//! be representable here. One enum serves all layers — `bitstream` entropy
//! coders, the `videocodec` decoder, and the `core` tensor codec — so
//! errors propagate with `?` and no cross-crate conversion glue.

use std::error::Error;
use std::fmt;

/// Why a compressed stream could not be decoded (or a codec request could
/// not be served).
///
/// The variants form the taxonomy DESIGN.md documents:
///
/// - [`CodecError::Truncated`] — the stream ended before a required field
///   or payload; the name of the missing piece is attached.
/// - [`CodecError::Corrupt`] — the bytes are present but structurally
///   impossible (bad magic, an LZ match pointing before the start of the
///   output, a Huffman code outside the table…).
/// - [`CodecError::Unsupported`] — valid framing, but a version, profile
///   or size this implementation does not handle.
/// - [`CodecError::InvalidInput`] — the *caller's* request was malformed
///   (encode-side: empty tensor, QP out of range, non-positive budget).
/// - [`CodecError::LimitExceeded`] — a declared size is implausible for
///   the stream carrying it; refusing early keeps hostile headers from
///   turning into multi-gigabyte allocations. Encode-side it also covers
///   tensors whose shape or payload length would overflow a serialized
///   header field (oversized inputs fail instead of truncating silently).
/// - [`CodecError::Internal`] — the codec's own machinery failed (a
///   worker thread panicked); never caused by stream contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Stream ended before the named field or payload.
    Truncated(&'static str),
    /// Structurally invalid stream contents.
    Corrupt(&'static str),
    /// Valid framing but an unsupported version/profile/feature.
    Unsupported(&'static str),
    /// Malformed caller request (encode-side parameter errors).
    InvalidInput(String),
    /// A declared size exceeds the decoder's resource limits.
    LimitExceeded(&'static str),
    /// Codec-internal failure (e.g. a panicked worker thread). Carries an
    /// owned string so a worker's panic payload survives into serving
    /// logs — an OOB-index message and an assert failure must stay
    /// distinguishable after the join.
    Internal(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated stream: {what}"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::Unsupported(what) => write!(f, "unsupported: {what}"),
            CodecError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CodecError::LimitExceeded(what) => write!(f, "resource limit exceeded: {what}"),
            CodecError::Internal(what) => write!(f, "internal codec failure: {what}"),
        }
    }
}

impl Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_detail() {
        assert_eq!(
            CodecError::Truncated("frame payload").to_string(),
            "truncated stream: frame payload"
        );
        assert_eq!(
            CodecError::InvalidInput("qp 99 out of range".into()).to_string(),
            "invalid input: qp 99 out of range"
        );
        assert!(CodecError::LimitExceeded("x").to_string().contains("limit"));
    }

    #[test]
    fn variants_compare_by_category_and_payload() {
        assert_eq!(
            CodecError::Corrupt("bad magic"),
            CodecError::Corrupt("bad magic")
        );
        assert_ne!(
            CodecError::Corrupt("bad magic"),
            CodecError::Truncated("bad magic")
        );
    }
}
