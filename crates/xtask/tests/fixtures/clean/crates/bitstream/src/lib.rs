//! Clean fixture: a hot-path crate every pass scans and none flags.

#![forbid(unsafe_code)]

pub mod syntax;

/// Mask-proven narrowing cast.
pub fn low_byte(v: u64) -> u8 {
    (v & 0xFF) as u8
}

/// Widening is always fine.
pub fn widen(v: u8) -> u32 {
    u32::from(v)
}

/// Cap for wire-declared sizes.
const MAX_FRAME: usize = 1 << 16;

/// A laundered wire length capped before sizing anything: wire-taint's
/// sanitized negative.
pub fn decode_frame_len(data: &[u8]) -> Vec<u8> {
    let n = wire_len(data).min(MAX_FRAME);
    Vec::with_capacity(n)
}

fn wire_len(data: &[u8]) -> usize {
    data.first().map_or(0, |&b| usize::from(b))
}

/// A reachable helper that bounds-checks: panic-reach's quiet negative.
pub fn decode_probe(data: &[u8]) -> u8 {
    probe_at(data, 3)
}

fn probe_at(data: &[u8], i: usize) -> u8 {
    data.get(i).copied().unwrap_or(0)
}

/// A wire-driven loop the termination prover accepts: the counter bound
/// sits in the condition and the body steps it monotonically.
pub fn parse_flag_caps(dec: &mut CabacDecoder) -> u32 {
    let mut n = 0u32;
    while n < 8 && dec.decode_bit() {
        n += 1;
    }
    n
}
