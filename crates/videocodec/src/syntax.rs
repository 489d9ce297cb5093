//! Bitstream syntax: context models, residual coding, and bit-cost
//! estimation.
//!
//! Syntax functions are generic over a [`BinSink`] so the same code path
//! serves several sinks: the CABAC encoder, which codes every stream, a
//! [`BitCounter`] that accumulates fractional bit costs for the
//! encoder's RD decisions without emitting anything, and a
//! [`BinRecorder`] that captures the raw bin string. The parse side
//! mirrors this through [`BinSource`]: [`CabacDecoder`] for streams,
//! [`RawBinReader`] replaying a recorded bin string. The raw pair codes
//! no stream; it lets a measurement run another entropy coder (such as
//! `llm265_bitstream::rans`) over the exact bins CABAC would code.
//!
//! Residual coding follows H.265's scheme: coded-block flag, last
//! significant scan position, per-position significance flags, then
//! greater-1 / greater-2 flags with adaptive-Rice coded remainders and
//! bypass signs.

use llm265_bitstream::cabac::{BinCosts, CabacDecoder, CabacEncoder, Prob};

use crate::scan;
use crate::CodecError;

/// Maximum truncated-Rice prefix before escaping to exp-Golomb.
const RICE_MAX_PREFIX: u32 = 4;
/// Cap on the adaptive Rice parameter.
const RICE_MAX_K: u32 = 8;

/// A destination for binary symbols: either the real arithmetic coder or a
/// cost counter used during RD search.
pub trait BinSink {
    /// Codes one bit under an adaptive context.
    fn bit(&mut self, ctx: &mut Prob, b: bool);
    /// Codes one equiprobable bit.
    fn bypass(&mut self, b: bool);

    /// Codes `n` bypass bits, MSB first.
    fn bypass_bits(&mut self, v: u64, n: u32) {
        for i in (0..n).rev() {
            self.bypass((v >> i) & 1 == 1);
        }
    }
}

impl BinSink for CabacEncoder {
    fn bit(&mut self, ctx: &mut Prob, b: bool) {
        self.encode_bit(ctx, b);
    }

    fn bypass(&mut self, b: bool) {
        self.encode_bypass(b);
    }

    fn bypass_bits(&mut self, v: u64, n: u32) {
        // Batched fast path: byte-identical to the default bin-by-bin
        // loop (see `CabacEncoder::encode_bypass_bits`).
        self.encode_bypass_bits(v, n);
    }
}

/// A source of binary symbols for the parse side: the CABAC decoder, or
/// a raw-bit reader replaying a recorded bin string.
pub trait BinSource {
    /// Parses one bit under an adaptive context.
    fn bit(&mut self, ctx: &mut Prob) -> bool;
    /// Parses one equiprobable bit.
    fn bypass(&mut self) -> bool;

    /// Parses `n` bypass bits, MSB first.
    fn bypass_bits(&mut self, n: u32) -> u64 {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.bypass());
        }
        v
    }
}

impl BinSource for CabacDecoder<'_> {
    fn bit(&mut self, ctx: &mut Prob) -> bool {
        self.decode_bit(ctx)
    }

    fn bypass(&mut self) -> bool {
        self.decode_bypass()
    }

    fn bypass_bits(&mut self, n: u32) -> u64 {
        // Batched fast path: bit-identical to the default loop (see
        // `CabacDecoder::decode_bypass_bits`).
        self.decode_bypass_bits(n)
    }
}

/// Records the bin string of a syntax sequence as raw MSB-first packed
/// bits, ignoring context state — the bins CABAC would code, for another
/// entropy coder to be measured on. No stream carries them.
#[derive(Debug, Clone, Default)]
pub struct BinRecorder {
    bytes: Vec<u8>,
    /// Bits used in the final byte of `bytes` (0 when byte-aligned).
    fill: u32,
}

impl BinRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, b: bool) {
        if self.fill == 0 {
            self.bytes.push(0);
        }
        if b {
            let i = self.bytes.len() - 1;
            self.bytes[i] |= 0x80 >> self.fill;
        }
        self.fill = (self.fill + 1) & 7;
    }

    /// Finishes recording: the packed bin bytes, final partial byte
    /// zero-padded. [`RawBinReader`] reads zeros past the last recorded
    /// bin, so the padding never changes what a well-formed parse sees.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

impl BinSink for BinRecorder {
    fn bit(&mut self, _ctx: &mut Prob, b: bool) {
        self.push(b);
    }

    fn bypass(&mut self, b: bool) {
        self.push(b);
    }
}

/// Replays a [`BinRecorder`] bin string on the parse side. Context
/// arguments are accepted (the syntax functions are backend-generic) but
/// ignored — the bins are stored raw. Reads past the end yield zero
/// bits, mirroring the CABAC decoder's zero-fill, so a truncated payload
/// parses to *some* value and the outer integrity checks reject it.
#[derive(Debug, Clone)]
pub struct RawBinReader<'a> {
    data: &'a [u8],
    /// Next byte to refill from (reads past the end zero-fill).
    byte_pos: usize,
    /// Up to 64 buffered bins, MSB first.
    buf: u64,
    /// Bins left in `buf`.
    avail: u32,
}

impl<'a> RawBinReader<'a> {
    /// Wraps a packed bin buffer produced by [`BinRecorder::finish`] (or
    /// restored from another entropy coder's output).
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            byte_pos: 0,
            buf: 0,
            avail: 0,
        }
    }

    /// Refills the 64-bin buffer from the next eight bytes, zero-padding
    /// past the end of the data (bins past the recorded stream read as
    /// zero, same as the unbuffered reader this replaced).
    fn refill(&mut self) {
        let mut chunk = [0u8; 8];
        let end = self.data.len().min(self.byte_pos.saturating_add(8));
        if self.byte_pos < end {
            chunk[..end - self.byte_pos].copy_from_slice(&self.data[self.byte_pos..end]);
        }
        self.byte_pos = self.byte_pos.saturating_add(8);
        self.buf = u64::from_be_bytes(chunk);
        self.avail = 64;
    }

    fn next(&mut self) -> bool {
        if self.avail == 0 {
            self.refill();
        }
        let bit = self.buf >> 63;
        self.buf <<= 1;
        self.avail -= 1;
        bit == 1
    }
}

impl BinSource for RawBinReader<'_> {
    fn bit(&mut self, _ctx: &mut Prob) -> bool {
        self.next()
    }

    fn bypass(&mut self) -> bool {
        self.next()
    }

    /// Bulk read straight from the bin buffer — one shift per refill
    /// chunk instead of one per bin.
    fn bypass_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        let mut left = n.min(64);
        // Two rounds always suffice: the first drains the buffer, the
        // refill then holds >= `left` bins.
        let mut rounds = 0u32;
        while rounds < 2 && left > 0 {
            if self.avail == 0 {
                self.refill();
            }
            let k = left.min(self.avail).min(64);
            // k is in [1, 64], so the clamped `64 - k` shift stays below
            // the u64 width (the k == 64 edge means "take the whole
            // buffer", where the shift is 0); the checked shifts keep the
            // same edge defined on the accumulator side.
            let chunk = self.buf >> (64u32 - k).min(63);
            v = v.checked_shl(k).unwrap_or(0) | chunk;
            self.buf = self.buf.checked_shl(k).unwrap_or(0);
            self.avail -= k;
            left -= k;
            rounds += 1;
        }
        v
    }
}

/// Accumulates the fractional bit cost of a syntax sequence, updating the
/// context models exactly like the real encoder would.
#[derive(Debug, Clone)]
pub struct BitCounter {
    bits: f64,
    costs: BinCosts,
}

impl Default for BitCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        BitCounter {
            bits: 0.0,
            costs: BinCosts::get(),
        }
    }

    /// Total bits accumulated.
    pub fn bits(&self) -> f64 {
        self.bits
    }
}

impl BinSink for BitCounter {
    fn bit(&mut self, ctx: &mut Prob, b: bool) {
        self.bits += self.costs.cost(*ctx, b);
        // Evolve the context exactly as the arithmetic coder would, so RD
        // estimates and real encoding see the same probabilities.
        ctx.update(b);
    }

    fn bypass(&mut self, _b: bool) {
        self.bits += 1.0;
    }

    fn bypass_bits(&mut self, _v: u64, n: u32) {
        // Bypass bins cost exactly one bit each; no need to walk them.
        self.bits += f64::from(n);
    }
}

/// The adaptive context models used by the frame coder.
#[derive(Debug, Clone, Default)]
pub struct Contexts {
    /// Quad-tree split flag.
    pub split: Prob,
    /// Intra/inter selector for P-frames.
    pub inter_flag: Prob,
    /// Most-probable-mode flag.
    pub mpm: Prob,
    /// Coded-block flags, indexed by "is spatial residual".
    pub cbf: [Prob; 2],
    /// Last-significant-position prefix bins.
    pub last_prefix: [Prob; 12],
    /// Significance flags by region (DC / low / high frequency).
    pub sig: [Prob; 3],
    /// Level greater-than-1 flags.
    pub gt1: [Prob; 2],
    /// Level greater-than-2 flag.
    pub gt2: Prob,
}

impl Contexts {
    /// Fresh contexts (used at every frame start so frames decode
    /// independently).
    pub fn new() -> Self {
        Self::default()
    }
}

fn sig_ctx_index(scan_pos: usize, n: usize) -> usize {
    if scan_pos == 0 {
        0
    } else if scan_pos < n {
        1
    } else {
        2
    }
}

/// Codes the quantized level block of one TU (size `n`, row-major levels in
/// raster order): [`code_levels`], under the name its reader
/// [`parse_residual`] shares.
pub fn code_residual<S: BinSink>(
    sink: &mut S,
    ctxs: &mut Contexts,
    levels: &[i32],
    n: usize,
    spatial: bool,
) {
    code_levels(sink, ctxs, levels, n, spatial);
}

/// Codes the quantized level block of one TU (size `n`, row-major levels in
/// raster order); the exact mirror of [`parse_levels`].
pub fn code_levels<S: BinSink>(
    sink: &mut S,
    ctxs: &mut Contexts,
    levels: &[i32],
    n: usize,
    spatial: bool,
) {
    let scan_order = scan::diagonal(n);
    debug_assert_eq!(levels.len(), n * n);

    // Last significant position in scan order, searched from the end.
    let last = scan_order
        .iter()
        .rposition(|&i| levels[usize::from(i)] != 0);

    let cbf_ctx = spatial as usize;
    match last {
        None => {
            sink.bit(&mut ctxs.cbf[cbf_ctx], false);
        }
        Some(last) => {
            sink.bit(&mut ctxs.cbf[cbf_ctx], true);
            // Scan positions top out at 32·32 - 1, well inside u32.
            code_last_pos(sink, ctxs, u32::try_from(last).unwrap_or(u32::MAX));

            // Rice parameter adapts within the TU.
            let mut rice_k: u32 = if spatial { 3 } else { 0 };
            for (p, &i) in scan_order.iter().enumerate().take(last + 1) {
                let v = levels[usize::from(i)];
                if p < last {
                    let sig = v != 0;
                    let ci = sig_ctx_index(p, n);
                    sink.bit(&mut ctxs.sig[ci], sig);
                    if !sig {
                        continue;
                    }
                }
                // Level magnitude (>= 1 here).
                let mag = v.unsigned_abs();
                let g1 = mag > 1;
                sink.bit(&mut ctxs.gt1[(p == 0) as usize], g1);
                if g1 {
                    let g2 = mag > 2;
                    sink.bit(&mut ctxs.gt2, g2);
                    if g2 {
                        code_remainder(sink, mag - 3, rice_k);
                    }
                }
                if mag > (3 << rice_k) && rice_k < RICE_MAX_K {
                    rice_k += 1;
                }
                sink.bypass(v < 0);
            }
        }
    }
}

/// Parses one TU's levels (inverse of [`code_residual`]) into a new
/// buffer: [`parse_levels`] for callers that keep no scratch.
pub fn parse_residual<D: BinSource>(
    dec: &mut D,
    ctxs: &mut Contexts,
    n: usize,
    spatial: bool,
) -> Result<Vec<i32>, CodecError> {
    let mut levels = vec![0; n * n];
    parse_levels(dec, ctxs, n, spatial, &mut levels)?;
    Ok(levels)
}

/// Parses one TU's levels (inverse of [`code_levels`]) into `levels`,
/// its `n × n` raster block, which it zeroes first: the decoder parses
/// every TU of a leaf into its fixed-size scratch.
///
/// # Panics
///
/// Panics if `levels` is shorter than `n × n`.
pub fn parse_levels<D: BinSource>(
    dec: &mut D,
    ctxs: &mut Contexts,
    n: usize,
    spatial: bool,
    levels: &mut [i32],
) -> Result<(), CodecError> {
    let scan_order = scan::diagonal(n);
    levels.fill(0);

    let cbf_ctx = spatial as usize;
    if !dec.bit(&mut ctxs.cbf[cbf_ctx]) {
        return Ok(());
    }
    let last = parse_last_pos(dec, ctxs)? as usize;
    let last = last.min(n * n - 1);

    let mut rice_k: u32 = if spatial { 3 } else { 0 };
    for (p, &i) in scan_order.iter().enumerate().take(last + 1) {
        let sig = if p < last {
            dec.bit(&mut ctxs.sig[sig_ctx_index(p, n)])
        } else {
            true
        };
        if !sig {
            continue;
        }
        let mut mag = 1u32;
        if dec.bit(&mut ctxs.gt1[(p == 0) as usize]) {
            mag = 2;
            if dec.bit(&mut ctxs.gt2) {
                mag = 3 + parse_remainder(dec, rice_k)?;
            }
        }
        if mag > (3 << rice_k) && rice_k < RICE_MAX_K {
            rice_k += 1;
        }
        let neg = dec.bypass();
        // A hostile remainder can exceed i32::MAX; saturate instead of
        // wrapping the magnitude into a sign-flipped level.
        let mag = i32::try_from(mag).unwrap_or(i32::MAX);
        levels[usize::from(i)] = if neg { -mag } else { mag };
    }
    Ok(())
}

/// Codes the last significant scan position: the bit-length of `pos + 1`
/// unary with contexts, then the trailing bits in bypass.
fn code_last_pos<S: BinSink>(sink: &mut S, ctxs: &mut Contexts, pos: u32) {
    let v = pos + 1;
    let len = 32 - v.leading_zeros(); // >= 1
    for i in 0..len - 1 {
        sink.bit(&mut ctxs.last_prefix[(i.min(11)) as usize], true);
    }
    sink.bit(&mut ctxs.last_prefix[((len - 1).min(11)) as usize], false);
    if len > 1 {
        sink.bypass_bits(u64::from(v & !(1 << (len - 1))), len - 1);
    }
}

fn parse_last_pos<D: BinSource>(dec: &mut D, ctxs: &mut Contexts) -> Result<u32, CodecError> {
    // The cap lives in the loop condition (not an in-body `break`) so the
    // termination pass can prove the variant, and a prefix past the cap
    // is a protocol violation, not a value to saturate: `code_last_pos`
    // never emits more than 19 ones for any representable position.
    let mut len = 1u32;
    while len <= 20 && dec.bit(&mut ctxs.last_prefix[((len - 1).min(11)) as usize]) {
        len += 1;
    }
    if len > 20 {
        return Err(CodecError::LimitExceeded("last-position prefix too long"));
    }
    let suffix = if len > 1 {
        // `len <= 21`, so the suffix always fits u32; `try_from` states
        // that width contract explicitly instead of silently truncating.
        u32::try_from(dec.bypass_bits(len - 1))
            .map_err(|_| CodecError::Corrupt("last-position suffix exceeds 32 bits"))?
    } else {
        0
    };
    Ok(((1u32 << (len - 1)) | suffix) - 1)
}

/// Codes a level remainder with truncated-Rice + exp-Golomb escape
/// (H.265's `coeff_abs_level_remaining` binarization). The whole Rice
/// code — unary quotient, terminator and `k` suffix bits — is assembled
/// into a single batched bypass call (at most `3 + 1 + 8 = 12` bins).
fn code_remainder<S: BinSink>(sink: &mut S, r: u32, k: u32) {
    let q = r >> k;
    if q < RICE_MAX_PREFIX {
        let prefix = ((1u64 << q) - 1) << 1; // q one-bits, then the 0.
        sink.bypass_bits((prefix << k) | u64::from(r & ((1 << k) - 1)), q + 1 + k);
    } else {
        sink.bypass_bits((1u64 << RICE_MAX_PREFIX) - 1, RICE_MAX_PREFIX);
        code_eg(sink, r - (RICE_MAX_PREFIX << k), k + 1);
    }
}

/// Parses a truncated-Rice remainder.
fn parse_remainder<D: BinSource>(dec: &mut D, k: u32) -> Result<u32, CodecError> {
    let mut q = 0u32;
    while q < RICE_MAX_PREFIX && dec.bypass() {
        q += 1;
    }
    if q < RICE_MAX_PREFIX {
        // `k <= RICE_MAX_K = 8`, so the low bits always fit u32.
        let low = u32::try_from(dec.bypass_bits(k))
            .map_err(|_| CodecError::Corrupt("rice suffix exceeds 32 bits"))?;
        Ok((q << k) | low)
    } else {
        Ok((RICE_MAX_PREFIX << k) + parse_eg(dec, k + 1)?)
    }
}

/// k-th order exp-Golomb in bypass bits. The interleaved bin-by-bin loop
/// is split into an arithmetic prefix count followed by one batched
/// bypass call carrying prefix, terminator and suffix (at most 62 bins).
pub(crate) fn code_eg<S: BinSink>(sink: &mut S, v: u32, m0: u32) {
    let mut rem = v;
    let mut m = m0;
    let mut ones = 0u32;
    while m < 31 && rem >= (1 << m) {
        rem -= 1 << m;
        m += 1;
        ones += 1;
    }
    // `ones` grows in lockstep with `m`, which the loop caps below 31.
    debug_assert!(ones <= 30, "exp-Golomb prefix exceeds the order cap");
    if m < 31 {
        let prefix = ((1u64 << ones) - 1) << 1; // `ones` one-bits, then the 0.
        sink.bypass_bits((prefix << m) | u64::from(rem), ones + 1 + m);
    } else {
        // Saturated prefix (truncated unary): the parser's own `m < 31`
        // cap ends the prefix, so coding a terminator would desync it.
        let prefix = (1u64 << ones) - 1;
        sink.bypass_bits((prefix << m) | u64::from(rem), ones + m);
    }
}

pub(crate) fn parse_eg<D: BinSource>(dec: &mut D, mut m: u32) -> Result<u32, CodecError> {
    let mut base = 0u32;
    while m < 31 && dec.bypass() {
        base += 1 << m;
        m += 1;
    }
    // `m <= 31`, so the suffix always fits u32; `try_from` states that
    // width contract explicitly instead of silently truncating.
    let suffix = u32::try_from(dec.bypass_bits(m))
        .map_err(|_| CodecError::Corrupt("exp-golomb suffix exceeds 32 bits"))?;
    Ok(base + suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    fn roundtrip_levels(levels: &[i32], n: usize, spatial: bool) -> f64 {
        let mut enc = CabacEncoder::new();
        let mut ctxs = Contexts::new();
        code_residual(&mut enc, &mut ctxs, levels, n, spatial);
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        let mut ctxs = Contexts::new();
        let parsed = parse_residual(&mut dec, &mut ctxs, n, spatial).expect("parse");
        assert_eq!(parsed, levels);
        bytes.len() as f64 * 8.0 / (n * n) as f64
    }

    #[test]
    fn exp_golomb_prefix_cap_boundary() {
        // The largest order-1 value that still round-trips drives the
        // prefix counter to its exact cap: `m` climbs to 31 and `ones` to
        // 30 before the `m < 31` guard stops the loop, and the 31-bit
        // suffix is full. One more prefix step would spill the batch.
        let top = u32::MAX - 2; // sum(2^1..=2^30) + (2^31 - 1)
        let mut enc = CabacEncoder::new();
        code_eg(&mut enc, top, 1);
        code_eg(&mut enc, 0, 1);
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        assert_eq!(parse_eg(&mut dec, 1).expect("parse top"), top);
        assert_eq!(parse_eg(&mut dec, 1).expect("parse zero"), 0);
    }

    #[test]
    fn last_pos_stuck_one_stream_errors_not_saturates() {
        // Adversarial stuck stream: 40 one-bins through the same context
        // schedule the parser walks, so `parse_last_pos` sees an endless
        // unary prefix. It must reject past the 20-bin cap with
        // LimitExceeded; the pre-fix code broke out silently and returned
        // a saturated (wrong) position instead.
        let mut enc = CabacEncoder::new();
        let mut ctxs = Contexts::new();
        for i in 0u32..40 {
            enc.encode_bit(&mut ctxs.last_prefix[(i.min(11)) as usize], true);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        let mut ctxs = Contexts::new();
        assert_eq!(
            parse_last_pos(&mut dec, &mut ctxs),
            Err(CodecError::LimitExceeded("last-position prefix too long"))
        );
    }

    #[test]
    fn zero_block_costs_almost_nothing() {
        // Amortized over many TUs (a single stream carries ~5 bytes of
        // arithmetic-coder flush padding regardless of content).
        let mut enc = CabacEncoder::new();
        let mut ctxs = Contexts::new();
        let levels = vec![0i32; 64];
        let blocks = 64;
        for _ in 0..blocks {
            code_residual(&mut enc, &mut ctxs, &levels, 8, false);
        }
        let bytes = enc.finish();
        let bpp = bytes.len() as f64 * 8.0 / (blocks * 64) as f64;
        assert!(bpp < 0.05, "bits/coeff {bpp}");
        let mut dec = CabacDecoder::new(&bytes);
        let mut ctxs = Contexts::new();
        for _ in 0..blocks {
            assert_eq!(
                parse_residual(&mut dec, &mut ctxs, 8, false).expect("parse"),
                levels
            );
        }
    }

    #[test]
    fn single_dc_level() {
        let mut levels = vec![0i32; 64];
        levels[0] = 5;
        roundtrip_levels(&levels, 8, false);
        levels[0] = -1;
        roundtrip_levels(&levels, 8, false);
    }

    #[test]
    fn dense_random_levels_roundtrip_all_sizes() {
        let mut rng = Pcg32::seed_from(42);
        for &n in &[4usize, 8, 16, 32] {
            let levels: Vec<i32> = (0..n * n)
                .map(|_| {
                    if rng.chance(0.3) {
                        rng.below(41) as i32 - 20
                    } else {
                        0
                    }
                })
                .collect();
            roundtrip_levels(&levels, n, false);
            roundtrip_levels(&levels, n, true);
        }
    }

    #[test]
    fn huge_levels_roundtrip() {
        let mut levels = vec![0i32; 16];
        levels[0] = 100_000;
        levels[5] = -65_000;
        levels[15] = 1;
        roundtrip_levels(&levels, 4, false);
    }

    #[test]
    fn sparse_blocks_cheaper_than_dense() {
        let mut rng = Pcg32::seed_from(7);
        let sparse: Vec<i32> = (0..256)
            .map(|_| {
                if rng.chance(0.05) {
                    rng.below(5) as i32 + 1
                } else {
                    0
                }
            })
            .collect();
        let dense: Vec<i32> = (0..256)
            .map(|_| {
                if rng.chance(0.6) {
                    rng.below(9) as i32 - 4
                } else {
                    1
                }
            })
            .collect();
        let b_sparse = roundtrip_levels(&sparse, 16, false);
        let b_dense = roundtrip_levels(&dense, 16, false);
        assert!(b_sparse < b_dense, "{b_sparse} vs {b_dense}");
    }

    #[test]
    fn remainder_roundtrip_wide_range() {
        for k in 0..=RICE_MAX_K {
            let mut enc = CabacEncoder::new();
            let values = [0u32, 1, 2, 3, 15, 16, 100, 4095, 1 << 20];
            for &v in &values {
                code_remainder(&mut enc, v, k);
            }
            let bytes = enc.finish();
            let mut dec = CabacDecoder::new(&bytes);
            for &v in &values {
                assert_eq!(parse_remainder(&mut dec, k).expect("parse"), v, "k={k}");
            }
        }
    }

    #[test]
    fn last_pos_roundtrip() {
        let mut enc = CabacEncoder::new();
        let mut ctxs = Contexts::new();
        let values = [0u32, 1, 2, 7, 8, 63, 255, 1023];
        for &v in &values {
            code_last_pos(&mut enc, &mut ctxs, v);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        let mut ctxs = Contexts::new();
        for &v in &values {
            assert_eq!(parse_last_pos(&mut dec, &mut ctxs).expect("parse"), v);
        }
    }

    #[test]
    fn counter_matches_encoder() {
        // BitCounter's context evolution must track the real encoder's so
        // RD estimates stay honest.
        let mut rng = Pcg32::seed_from(3);
        let levels: Vec<i32> = (0..256)
            .map(|_| {
                if rng.chance(0.2) {
                    rng.below(11) as i32 - 5
                } else {
                    0
                }
            })
            .collect();
        let mut counter = BitCounter::new();
        let mut ctxs_a = Contexts::new();
        code_residual(&mut counter, &mut ctxs_a, &levels, 16, false);

        let mut enc = CabacEncoder::new();
        let mut ctxs_b = Contexts::new();
        code_residual(&mut enc, &mut ctxs_b, &levels, 16, false);
        let actual = enc.finish().len() as f64 * 8.0;

        assert!(
            (counter.bits() - actual).abs() < actual * 0.15 + 16.0,
            "estimate {} vs actual {actual}",
            counter.bits()
        );
        // Contexts must have evolved identically.
        assert!((ctxs_a.sig[1].p0() - ctxs_b.sig[1].p0()).abs() < 1e-9);
        assert!((ctxs_a.gt1[0].p0() - ctxs_b.gt1[0].p0()).abs() < 1e-9);
    }

    #[test]
    fn recorded_bins_replay_identically() {
        // Record the bin string raw and replay it through the generic
        // parser: the parsed levels must match what the CABAC path
        // reconstructs from the same syntax.
        let mut rng = Pcg32::seed_from(11);
        for &n in &[4usize, 8, 16, 32] {
            let levels: Vec<i32> = (0..n * n)
                .map(|_| {
                    if rng.chance(0.25) {
                        rng.below(2001) as i32 - 1000
                    } else {
                        0
                    }
                })
                .collect();
            let mut rec = BinRecorder::new();
            let mut ctxs = Contexts::new();
            code_residual(&mut rec, &mut ctxs, &levels, n, false);
            let bins = rec.finish();
            let mut rdr = RawBinReader::new(&bins);
            let mut ctxs = Contexts::new();
            let parsed = parse_residual(&mut rdr, &mut ctxs, n, false).expect("parse");
            assert_eq!(parsed, levels, "n={n}");
        }
    }

    #[test]
    fn raw_bin_reader_zero_fills_past_end() {
        let mut rdr = RawBinReader::new(&[0b1010_0000]);
        let mut p = Prob::default();
        assert!(rdr.bit(&mut p));
        assert!(!rdr.bypass());
        assert!(rdr.bit(&mut p));
        // Past the recorded bins: zeros forever, no panic.
        for _ in 0..64 {
            assert!(!rdr.bypass());
        }
        assert_eq!(rdr.bypass_bits(64), 0);
    }

    #[test]
    fn eg_roundtrip() {
        for m in 1..6 {
            let mut enc = CabacEncoder::new();
            let values = [0u32, 1, 5, 100, 10_000, 1 << 22];
            for &v in &values {
                code_eg(&mut enc, v, m);
            }
            let bytes = enc.finish();
            let mut dec = CabacDecoder::new(&bytes);
            for &v in &values {
                assert_eq!(parse_eg(&mut dec, m).expect("parse"), v);
            }
        }
    }
}
