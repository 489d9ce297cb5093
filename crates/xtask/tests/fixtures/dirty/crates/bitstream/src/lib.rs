//! Dirty fixture, bitstream half: one seeded bug per construct, each next
//! to a quiet twin (an allowed or proven site) so the tests pin both
//! directions.

#![forbid(unsafe_code)]

/// Panic-reach (depth 0): unwrap in a hot-path crate fires.
pub fn first(v: Option<u8>) -> u8 {
    v.unwrap()
}

/// The same construct under a marker stays quiet.
pub fn second(v: Option<u8>) -> u8 {
    // lint:allow(panic): fixture-approved escape hatch
    v.unwrap()
}

/// Range-proof (cast sink): i64 -> u8 narrows without proof.
pub fn narrow(v: i64) -> u8 {
    v as u8
}

/// Mask-proven narrowing stays quiet.
pub fn masked(v: i64) -> u8 {
    (v & 0xFF) as u8
}

/// Error-discipline: the dropped `Result` fires.
pub fn careless() {
    let _ = fallible();
}

/// Every definition of this name returns `Result`.
pub fn fallible() -> Result<u8, ()> {
    Ok(0)
}

/// Wire-taint: a length laundered through a helper still reaches the
/// allocation, and the witness chain carries the helper hop.
pub fn decode_table(data: &[u8]) -> Vec<u8> {
    let n = header_len(data);
    Vec::with_capacity(n)
}

/// The laundering hop: wire bytes in, a "plain" usize out.
fn header_len(data: &[u8]) -> usize {
    data.first().map_or(0, |&b| usize::from(b))
}

/// Cap for the sanitized twin.
const MAX_TABLE: usize = 4096;

/// The same flow capped against a named constant stays quiet.
pub fn decode_table_capped(data: &[u8]) -> Vec<u8> {
    let n = header_len(data).min(MAX_TABLE);
    Vec::with_capacity(n)
}

/// Panic-reach (reached): the indexing lives in a helper that is not
/// decode-shaped, so only the call-graph closure from the decode API sees
/// it.
pub fn decode_entry(data: &[u8]) -> u8 {
    entry_at(data, 1)
}

fn entry_at(data: &[u8], i: usize) -> u8 {
    data[i + 1]
}

/// The bounds-checked twin stays quiet.
pub fn decode_entry_checked(data: &[u8]) -> u8 {
    entry_at_checked(data, 1)
}

fn entry_at_checked(data: &[u8], i: usize) -> u8 {
    data.get(i + 1).copied().unwrap_or(0)
}

/// Range-proof: the promoted product wraps u16. The under-guarded shift
/// and the widened-then-truncated index below are collected too, but the
/// pass reports one finding per function, so the first site wins.
pub fn decode_gain(a: u8, n: u32) -> u16 {
    let lut: [u16; 16] = [0; 16];
    let wide = promote(a) * 300;
    let scaled = wide << (n & 31);
    scaled + lut[((u32::from(a) + 16) & 31) as usize]
}

/// The interprocedural hop: the summary carries the param -> return
/// interval, so the witness chain shows `promote(…) ∈ [0, 255]`.
fn promote(v: u8) -> u16 {
    u16::from(v)
}

/// The proven twin stays quiet: the product is widened to u32, the shift
/// amount is masked below the width, and the index below the length.
pub fn decode_gain_checked(a: u8, n: u32) -> u16 {
    let lut: [u16; 16] = [0; 16];
    let wide = u32::from(promote(a)) * 300;
    let scaled = wide >> (n & 15);
    (scaled & 0x7FFF) as u16 + lut[usize::from(a) & 15]
}

/// Termination: a wire-driven run-flag loop with no proven variant.
/// `decode_bit` is a wire source but not a consuming read (CABAC
/// renormalisation zero-fills past the end), there is no counter bound in
/// the condition, and no manual position advance — the prover must fail
/// every variant and report why.
pub fn parse_run_flags(dec: &mut CabacDecoder) -> u32 {
    let mut n = 0u32;
    while dec.decode_bit() {
        n += 1;
    }
    n
}

/// The capped twin stays quiet: the counter bound lives in the loop
/// condition (not an in-body `break`) and the body steps the counter, so
/// the bounded-counter variant proves termination.
pub fn parse_run_flags_capped(dec: &mut CabacDecoder) -> u32 {
    let mut n = 0u32;
    while n < 8 && dec.decode_bit() {
        n += 1;
    }
    n
}
