//! Adaptive binary arithmetic coding (CABAC-style).
//!
//! H.264/H.265 terminate their pipelines in CABAC: binary symbols coded by
//! an arithmetic coder whose per-context probabilities adapt to the stream
//! (§2.2). We implement the same idea with an LZMA-style binary range coder
//! — 32-bit range, 11-bit adaptive probability per context, carry-correct
//! byte output — which is simpler than the H.265 state machine while
//! providing the same compression behaviour (within ~1%): frequent symbols
//! cost well under a bit, bypass symbols cost exactly one bit.
//!
//! # Example
//!
//! ```
//! use llm265_bitstream::cabac::{CabacEncoder, CabacDecoder, Prob};
//!
//! let bits = [true, false, false, false, true, false, false, false];
//! let mut enc = CabacEncoder::new();
//! let mut ctx = Prob::default();
//! for &b in &bits {
//!     enc.encode_bit(&mut ctx, b);
//! }
//! let bytes = enc.finish();
//!
//! let mut dec = CabacDecoder::new(&bytes);
//! let mut ctx = Prob::default();
//! for &b in &bits {
//!     assert_eq!(dec.decode_bit(&mut ctx), b);
//! }
//! ```

/// Number of bits in the probability model.
const PROB_BITS: u32 = 11;
/// Probability value representing 1.0.
const PROB_ONE: u16 = 1 << PROB_BITS;
/// Adaptation shift: smaller adapts faster. 5 matches LZMA's default and is
/// close to CABAC's effective adaptation rate.
const ADAPT_SHIFT: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// An adaptive probability context. Stores P(bit = 0) in 11 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prob(u16);

impl Default for Prob {
    fn default() -> Self {
        Prob(PROB_ONE / 2)
    }
}

impl Prob {
    /// The current probability that the next bit is 0, in `[0, 1]`.
    pub fn p0(&self) -> f64 {
        self.0 as f64 / PROB_ONE as f64
    }

    /// Applies the adaptation step for an observed `bit`, exactly as the
    /// arithmetic coder does internally. Exposed so rate-distortion cost
    /// estimators can evolve context models without coding anything.
    #[inline]
    pub fn update(&mut self, bit: bool) {
        // Both candidates, then a mask select: no branch on the bin.
        let down = self.0 - (self.0 >> ADAPT_SHIFT);
        let up = self.0 + ((PROB_ONE - self.0) >> ADAPT_SHIFT);
        let m = 0u16.wrapping_sub(u16::from(bit));
        self.0 = (down & m) | (up & !m);
    }
}

/// The cost in bits of coding a bin under a context, for the encoder's
/// rate-distortion estimates. Fetched once: a loop that costs many bins
/// holds one and reads each bin's cost inline, with no per-bin check of
/// the table's one-time initialisation.
///
/// The costs come from an 11-bit-probability table instead of a `log2`
/// per bin: the probability state has only `PROB_ONE + 1` values, and
/// because `k / 2048` and `1.0 - k / 2048.0 == (2048 - k) / 2048.0` are
/// both exact in `f64`, the table entries are bit-identical to the direct
/// formula — RD scores, and therefore streams and golden hashes, do not
/// depend on the table (`lut_matches_direct_log2` pins this).
#[derive(Debug, Clone, Copy)]
pub struct BinCosts(&'static [f64; PROB_ONE as usize + 1]);

impl BinCosts {
    /// The process-wide table, built on first use.
    pub fn get() -> Self {
        BinCosts(cost_lut())
    }

    /// `-log2` of the probability `ctx` gives `bit`, floored at 1/2048.
    #[inline]
    pub fn cost(self, ctx: Prob, bit: bool) -> f64 {
        let idx = if bit { PROB_ONE - ctx.0 } else { ctx.0 };
        self.0[usize::from(idx)]
    }
}

/// The `-log2(p)` table behind [`BinCosts`], indexed by the
/// probability numerator in 1/2048 units (0 floors to the 1/2048
/// probability clamp, matching the old `p.max(1/2048)`), built once per
/// process.
fn cost_lut() -> &'static [f64; PROB_ONE as usize + 1] {
    static LUT: std::sync::OnceLock<[f64; PROB_ONE as usize + 1]> = std::sync::OnceLock::new();
    LUT.get_or_init(|| {
        let mut lut = [0.0f64; PROB_ONE as usize + 1];
        for (k, entry) in lut.iter_mut().enumerate() {
            let p = k as f64 / PROB_ONE as f64;
            *entry = -(p.max(1.0 / PROB_ONE as f64)).log2();
        }
        lut
    })
}

/// Binary arithmetic encoder.
#[derive(Debug, Clone)]
pub struct CabacEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for CabacEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl CabacEncoder {
    /// Creates an encoder with empty output.
    pub fn new() -> Self {
        CabacEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    /// Encodes one bit under an adaptive context.
    #[inline]
    pub fn encode_bit(&mut self, ctx: &mut Prob, bit: bool) {
        let bound = (self.range >> PROB_BITS) * u32::from(ctx.0);
        if !bit {
            self.range = bound;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
        }
        ctx.update(bit);
        self.renorm();
    }

    /// Encodes one equiprobable ("bypass") bit — costs exactly 1 bit.
    #[inline]
    pub fn encode_bypass(&mut self, bit: bool) {
        self.range >>= 1;
        if bit {
            self.low += self.range as u64;
        }
        self.renorm();
    }

    /// Restores `range >= TOP` after a bin: one 8-bit step always
    /// suffices (see [`CabacDecoder::renorm`]).
    #[inline]
    fn renorm(&mut self) {
        if self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
        debug_assert!(self.range >= TOP, "one renorm step must suffice");
    }

    /// Encodes `n` bypass bits, MSB first.
    ///
    /// Fast path: bins are folded into groups with a single hoisted
    /// renormalization per group instead of one check per bin. A bypass
    /// bin halves `range`, and after renormalization `range` lies in
    /// `[2^24, 2^32)`, so `8 - range.leading_zeros()` (between 1 and 8)
    /// bins can always run straight-line before `range` can drop below
    /// the renorm threshold — the skipped per-bin checks provably cannot
    /// fire mid-group, making the output byte-identical to coding each
    /// bin through [`Self::encode_bypass`] (pinned by a cross-coding
    /// test).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` has bits above `n`.
    pub fn encode_bypass_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n == 64 || value < (1u64 << n));
        let mut left = n;
        while left > 0 {
            debug_assert!(self.range >= TOP, "range invariant broken");
            let group = left.min(8 - self.range.leading_zeros());
            // `group <= left`, so the saturation never engages; it states
            // the lower bound explicitly instead of relying on unchecked
            // wrap-around in release builds.
            let next = left.saturating_sub(group);
            let mut range = self.range;
            let mut add = 0u64;
            for i in (next..left).rev() {
                range >>= 1;
                if (value >> i) & 1 == 1 {
                    add += u64::from(range);
                }
            }
            self.low += add;
            self.range = range;
            self.renorm();
            left = next;
        }
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = ((self.low >> 32) & 1) as u8;
            if self.cache_size > 0 {
                self.out.push(self.cache.wrapping_add(carry));
                for _ in 1..self.cache_size {
                    self.out.push(0xFFu8.wrapping_add(carry));
                }
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Number of bytes emitted so far (excluding buffered carry bytes).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been flushed yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Flushes the coder and returns the bitstream.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Binary arithmetic decoder matching [`CabacEncoder`].
#[derive(Debug, Clone)]
pub struct CabacDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> CabacDecoder<'a> {
    /// Creates a decoder over an encoded stream. Reading past the end of
    /// `input` yields zero bytes, matching the encoder's flush padding.
    pub fn new(input: &'a [u8]) -> Self {
        let mut dec = CabacDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 1, // first byte is the encoder's initial cache byte (0)
        };
        for _ in 0..4 {
            dec.code = (dec.code << 8) | dec.next_byte() as u32;
        }
        dec
    }

    /// Bytes of the input the decoder has consumed so far, counting the
    /// encoder's leading cache byte it skips. After the last bin of a
    /// clean stream this is exactly the length [`CabacEncoder::finish`]
    /// returned; reads past the end count too.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Restores `range >= TOP` after a bin with one 8-bit step, taken or
    /// not by masks instead of a loop or a branch.
    ///
    /// One step always suffices. Before a bin `range >= 2^24`, and a
    /// probability stays in `[31, 2017]` (every context starts at
    /// `Prob::default()`, inside `[32, 2016]`, and an update moves at
    /// most one step past either end). A context bin leaves a range of
    /// `(range >> 11) · p` (bin 0) or at least `(range >> 11) · (2048 -
    /// p)` (bin 1), so at least `2^13 · 31 > 2^16`; a bypass bin leaves at
    /// least `2^23`. Shifting either left by 8 restores `>= 2^24`.
    #[inline]
    fn renorm(&mut self) {
        let step = u32::from(self.range < TOP);
        let byte = u32::from(self.input.get(self.pos).copied().unwrap_or(0));
        let shift = 8 * step;
        self.code = (self.code << shift) | (byte & 0u32.wrapping_sub(step));
        self.range <<= shift;
        self.pos += step as usize;
        debug_assert!(self.range >= TOP, "one renorm step must suffice");
    }

    /// Decodes one bit under an adaptive context. The new code, range
    /// and probability are mask selects, not branches on the bin.
    #[inline]
    pub fn decode_bit(&mut self, ctx: &mut Prob) -> bool {
        let bound = (self.range >> PROB_BITS) * u32::from(ctx.0);
        let bit = self.code >= bound;
        let m = 0u32.wrapping_sub(u32::from(bit));
        self.code -= bound & m;
        // `bound <= range`: the probability is below 1.
        self.range = (bound & !m) | ((self.range - bound) & m);
        ctx.update(bit);
        self.renorm();
        bit
    }

    /// Decodes one bypass bit, branch-free like [`Self::decode_bit`].
    #[inline]
    pub fn decode_bypass(&mut self) -> bool {
        self.range >>= 1;
        let bit = self.code >= self.range;
        self.code -= self.range & 0u32.wrapping_sub(u32::from(bit));
        self.renorm();
        bit
    }

    /// Decodes `n` bypass bits, MSB first.
    ///
    /// Mirror of the encoder's batched fast path: bins run straight-line
    /// in groups sized by the renorm horizon (`8 - range.leading_zeros()`
    /// after renormalization), with `range`/`code` held in locals and one
    /// hoisted renormalization per group. Decodes exactly the same bits
    /// as bin-by-bin [`Self::decode_bypass`] calls.
    pub fn decode_bypass_bits(&mut self, n: u32) -> u64 {
        let mut v = 0u64;
        let mut left = n;
        while left > 0 {
            debug_assert!(self.range >= TOP, "range invariant broken");
            let group = left.min(8 - self.range.leading_zeros());
            let mut range = self.range;
            let mut code = self.code;
            for _ in 0..group {
                range >>= 1;
                let bit = code >= range;
                code -= range & 0u32.wrapping_sub(u32::from(bit));
                v = (v << 1) | u64::from(bit);
            }
            // `group <= 8 - lz` halvings of a range of at least
            // `2^(31 - lz)` leave at least 2^23: one renorm step suffices,
            // as after a single bypass bin.
            self.range = range;
            self.code = code;
            self.renorm();
            left -= group;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The LUT must be *bit-identical* to the direct per-bin formula for
    /// every probability state and both bit values: `k / 2048` is an
    /// exact f64 (power-of-two divisor) and `1.0 - k / 2048.0` equals
    /// `(2048 - k) / 2048.0` exactly, so swapping the `log2` for the
    /// table changes no RD score, no stream byte, and no golden hash.
    #[test]
    fn lut_matches_direct_log2() {
        for k in 0..=PROB_ONE {
            let ctx = Prob(k);
            let direct = |bit: bool| {
                let p = if bit { 1.0 - ctx.p0() } else { ctx.p0() };
                -(p.max(1.0 / PROB_ONE as f64)).log2()
            };
            for bit in [false, true] {
                assert_eq!(
                    BinCosts::get().cost(ctx, bit).to_bits(),
                    direct(bit).to_bits(),
                    "k={k} bit={bit}"
                );
            }
        }
    }

    fn roundtrip_bits(bits: &[bool]) -> usize {
        let mut enc = CabacEncoder::new();
        let mut ctx = Prob::default();
        for &b in bits {
            enc.encode_bit(&mut ctx, b);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        let mut ctx = Prob::default();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut ctx), b, "bit {i}");
        }
        assert_eq!(dec.consumed(), bytes.len(), "decoder stops at the end");
        bytes.len()
    }

    #[test]
    fn roundtrip_empty() {
        let enc = CabacEncoder::new();
        let bytes = enc.finish();
        let dec = CabacDecoder::new(&bytes); // must not panic
        assert_eq!(dec.consumed(), bytes.len());
    }

    #[test]
    fn roundtrip_all_patterns() {
        roundtrip_bits(&[true]);
        roundtrip_bits(&[false]);
        roundtrip_bits(&[true; 1000]);
        roundtrip_bits(&[false; 1000]);
        let alternating: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        roundtrip_bits(&alternating);
    }

    #[test]
    fn skewed_stream_beats_one_bit_per_symbol() {
        // 1-in-16 ones: entropy ~0.337 bits/symbol. Adaptive coder should
        // land well below 0.6 bits/symbol after warm-up.
        let bits: Vec<bool> = (0..32_768).map(|i| i % 16 == 0).collect();
        let bytes = roundtrip_bits(&bits);
        let bps = bytes as f64 * 8.0 / bits.len() as f64;
        assert!(bps < 0.6, "bits/symbol {bps}");
    }

    #[test]
    fn bypass_costs_one_bit() {
        let n = 8192u32;
        let mut enc = CabacEncoder::new();
        for i in 0..n {
            enc.encode_bypass(i % 3 == 0);
        }
        let bytes = enc.finish();
        let bps = bytes.len() as f64 * 8.0 / n as f64;
        assert!((bps - 1.0).abs() < 0.02, "bypass bits/symbol {bps}");
        let mut dec = CabacDecoder::new(&bytes);
        for i in 0..n {
            assert_eq!(dec.decode_bypass(), i % 3 == 0);
        }
    }

    #[test]
    fn bypass_bits_roundtrip() {
        let mut enc = CabacEncoder::new();
        enc.encode_bypass_bits(0b1011_0010, 8);
        enc.encode_bypass_bits(0x3FFFF, 18);
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        assert_eq!(dec.decode_bypass_bits(8), 0b1011_0010);
        assert_eq!(dec.decode_bypass_bits(18), 0x3FFFF);
    }

    #[test]
    fn bypass_bits_full_width_boundary() {
        // n = 64 walks `left` down through every renorm-limited group,
        // ending on the final group where the lower bound saturates at
        // zero — the exact edge the batched grouping must not cross.
        let values = [u64::MAX, 0, 0x8000_0000_0000_0001, 0x5555_5555_5555_5555];
        let mut enc = CabacEncoder::new();
        for &v in &values {
            enc.encode_bypass_bits(v, 64);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        for &v in &values {
            assert_eq!(dec.decode_bypass_bits(64), v);
        }
    }

    #[test]
    fn interleaved_context_and_bypass() {
        let mut enc = CabacEncoder::new();
        let mut c0 = Prob::default();
        let mut c1 = Prob(1800);
        for i in 0..5000u32 {
            enc.encode_bit(&mut c0, i % 7 == 0);
            enc.encode_bypass(i % 2 == 0);
            enc.encode_bit(&mut c1, i % 3 == 0);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        let mut c0 = Prob::default();
        let mut c1 = Prob(1800);
        for i in 0..5000u32 {
            assert_eq!(dec.decode_bit(&mut c0), i % 7 == 0);
            assert_eq!(dec.decode_bypass(), i % 2 == 0);
            assert_eq!(dec.decode_bit(&mut c1), i % 3 == 0);
        }
        assert_eq!(dec.consumed(), bytes.len());
    }

    /// Deterministic 64-bit LCG for adversarial bit patterns (no external
    /// rng dependency in this crate).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn batched_bypass_is_byte_identical_to_bin_by_bin() {
        // The batched fast path must produce the exact bytes of the
        // bin-by-bin loop, across widths that straddle every renorm
        // position — including max-magnitude (all-ones), alternating and
        // sparse values, interleaved with adaptive context bits so the
        // range enters each batch at varied positions.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut plan: Vec<(u64, u32, bool)> = Vec::new();
        for round in 0..2000u32 {
            let n = (lcg(&mut state) % 64 + 1) as u32;
            let v = match round % 4 {
                0 => lcg(&mut state),
                1 => u64::MAX,              // all-ones
                2 => 0xAAAA_AAAA_AAAA_AAAA, // alternating
                _ => 1,                     // sparse
            } & if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let ctx_bit = lcg(&mut state).is_multiple_of(3);
            plan.push((v, n, ctx_bit));
        }

        let mut batched = CabacEncoder::new();
        let mut serial = CabacEncoder::new();
        let mut ctx_a = Prob::default();
        let mut ctx_b = Prob::default();
        for &(v, n, ctx_bit) in &plan {
            batched.encode_bypass_bits(v, n);
            for i in (0..n).rev() {
                serial.encode_bypass((v >> i) & 1 == 1);
            }
            batched.encode_bit(&mut ctx_a, ctx_bit);
            serial.encode_bit(&mut ctx_b, ctx_bit);
        }
        let bytes_batched = batched.finish();
        let bytes_serial = serial.finish();
        assert_eq!(bytes_batched, bytes_serial);

        // Both decode styles must read the same values back.
        let mut dec_batched = CabacDecoder::new(&bytes_batched);
        let mut dec_serial = CabacDecoder::new(&bytes_batched);
        let mut ctx_a = Prob::default();
        let mut ctx_b = Prob::default();
        for &(v, n, ctx_bit) in &plan {
            assert_eq!(dec_batched.decode_bypass_bits(n), v);
            let mut w = 0u64;
            for _ in 0..n {
                w = (w << 1) | u64::from(dec_serial.decode_bypass());
            }
            assert_eq!(w, v);
            assert_eq!(dec_batched.decode_bit(&mut ctx_a), ctx_bit);
            assert_eq!(dec_serial.decode_bit(&mut ctx_b), ctx_bit);
        }
    }

    #[test]
    fn batched_bypass_fields_are_byte_identical_to_bin_by_bin() {
        // Exp-Golomb-shaped fields: a zero prefix and a value field, each
        // through the batched path, up to the 65-bin code of `u32::MAX`.
        let values = [0u32, 1, 2, 5, 31, 32, 1000, 1 << 20, u32::MAX];
        let mut batched = CabacEncoder::new();
        let mut serial = CabacEncoder::new();
        for &value in &values {
            let v = value as u64 + 1;
            let len = 64 - v.leading_zeros();
            batched.encode_bypass_bits(0, len - 1);
            batched.encode_bypass_bits(v, len);
            for _ in 0..len - 1 {
                serial.encode_bypass(false);
            }
            for i in (0..len).rev() {
                serial.encode_bypass((v >> i) & 1 == 1);
            }
        }
        let bytes = batched.finish();
        assert_eq!(bytes, serial.finish());
        let mut dec = CabacDecoder::new(&bytes);
        for &value in &values {
            let v = value as u64 + 1;
            let len = 64 - v.leading_zeros();
            assert_eq!(dec.decode_bypass_bits(len - 1), 0);
            assert_eq!(dec.decode_bypass_bits(len), v);
        }
        assert_eq!(dec.consumed(), bytes.len());
    }

    /// The decoder as it was written before its bins went branch-free:
    /// a branch on the bin and a renormalization loop. The reference the
    /// branch-free [`CabacDecoder`] must match bin for bin.
    struct BranchyDecoder<'a> {
        code: u32,
        range: u32,
        input: &'a [u8],
        pos: usize,
    }

    impl<'a> BranchyDecoder<'a> {
        fn new(input: &'a [u8]) -> Self {
            let mut dec = BranchyDecoder {
                code: 0,
                range: u32::MAX,
                input,
                pos: 1,
            };
            for _ in 0..4 {
                dec.code = (dec.code << 8) | dec.next_byte() as u32;
            }
            dec
        }

        fn next_byte(&mut self) -> u8 {
            let b = self.input.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            b
        }

        fn renorm(&mut self) {
            while self.range < TOP {
                self.code = (self.code << 8) | self.next_byte() as u32;
                self.range <<= 8;
            }
        }

        fn decode_bit(&mut self, ctx: &mut Prob) -> bool {
            let bound = (self.range >> PROB_BITS) * u32::from(ctx.0);
            let bit = if self.code < bound {
                self.range = bound;
                false
            } else {
                self.code -= bound;
                self.range -= bound;
                true
            };
            if bit {
                ctx.0 -= ctx.0 >> ADAPT_SHIFT;
            } else {
                ctx.0 += (PROB_ONE - ctx.0) >> ADAPT_SHIFT;
            }
            self.renorm();
            bit
        }

        fn decode_bypass(&mut self) -> bool {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                true
            } else {
                false
            };
            self.renorm();
            bit
        }
    }

    /// One step of a random bin schedule.
    #[derive(Clone, Copy)]
    enum Bin {
        /// A context bin under context `ctx`.
        Context {
            ctx: usize,
            bit: bool,
        },
        Bypass(bool),
        /// `n` bypass bins through the batched path.
        Batch {
            v: u64,
            n: u32,
        },
    }

    /// A random interleaving of context bins (under four contexts, two
    /// of them skewed), single bypass bins and batched bypass bins.
    fn schedule(state: &mut u64, len: usize) -> Vec<Bin> {
        (0..len)
            .map(|_| {
                let r = lcg(state);
                match r % 8 {
                    0..=4 => {
                        let ctx = (r >> 8) as usize % 4;
                        // Contexts 0/1 mostly see zeros, 2/3 fair bits.
                        let bit = if ctx < 2 {
                            (r >> 16).is_multiple_of(16)
                        } else {
                            (r >> 16) & 1 == 1
                        };
                        Bin::Context { ctx, bit }
                    }
                    5 | 6 => Bin::Bypass((r >> 16) & 1 == 1),
                    _ => {
                        let n = ((r >> 8) % 64 + 1) as u32;
                        let v = lcg(state) & if n == 64 { u64::MAX } else { (1 << n) - 1 };
                        Bin::Batch { v, n }
                    }
                }
            })
            .collect()
    }

    fn contexts() -> [Prob; 4] {
        [Prob::default(), Prob(1900), Prob::default(), Prob(200)]
    }

    /// Decodes `plan`'s shape from `bytes` with both decoders, asserting
    /// the same bins, contexts and `consumed()` after every step; returns
    /// the branch-free decoder's bins.
    fn decode_both(bytes: &[u8], plan: &[Bin]) -> Vec<u64> {
        let mut new = CabacDecoder::new(bytes);
        let mut old = BranchyDecoder::new(bytes);
        let (mut ctx_new, mut ctx_old) = (contexts(), contexts());
        let mut got = Vec::with_capacity(plan.len());
        for (i, step) in plan.iter().enumerate() {
            let (a, b) = match *step {
                Bin::Context { ctx, .. } => (
                    u64::from(new.decode_bit(&mut ctx_new[ctx])),
                    u64::from(old.decode_bit(&mut ctx_old[ctx])),
                ),
                Bin::Bypass(_) => (
                    u64::from(new.decode_bypass()),
                    u64::from(old.decode_bypass()),
                ),
                Bin::Batch { n, .. } => (
                    new.decode_bypass_bits(n),
                    (0..n).fold(0, |w, _| (w << 1) | u64::from(old.decode_bypass())),
                ),
            };
            assert_eq!(a, b, "step {i}");
            assert_eq!(ctx_new, ctx_old, "step {i}");
            assert_eq!(new.consumed(), old.pos, "step {i}");
            got.push(a);
        }
        got
    }

    #[test]
    fn branch_free_decoder_matches_the_branchy_reference() {
        let mut state = 0x0bad_5eed_u64;
        for round in 0..40 {
            let plan = schedule(&mut state, 500 + 50 * round);
            let mut enc = CabacEncoder::new();
            let mut ctxs = contexts();
            for step in &plan {
                match *step {
                    Bin::Context { ctx, bit } => enc.encode_bit(&mut ctxs[ctx], bit),
                    Bin::Bypass(bit) => enc.encode_bypass(bit),
                    Bin::Batch { v, n } => enc.encode_bypass_bits(v, n),
                }
            }
            let bytes = enc.finish();
            let got = decode_both(&bytes, &plan);
            // Both decode the encoded bins back, and stop at the end.
            for (step, &g) in plan.iter().zip(&got) {
                let want = match *step {
                    Bin::Context { bit, .. } | Bin::Bypass(bit) => u64::from(bit),
                    Bin::Batch { v, .. } => v,
                };
                assert_eq!(g, want, "round {round}");
            }
            assert_eq!(CabacDecoder::new(&bytes).consumed(), 5);
            // Truncated input zero-fills: both decoders still agree on
            // every bin (which no longer match the encoded ones).
            for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
                decode_both(&bytes[..cut], &plan);
            }
        }
    }

    #[test]
    fn branch_free_decoder_matches_the_branchy_reference_on_garbage() {
        // Any byte string is some stream: arbitrary input must walk both
        // decoders through the same bins.
        let mut state = 0x5eed_0f9a_4ba9_u64;
        for _ in 0..40 {
            let bytes: Vec<u8> = (0..200).map(|_| (lcg(&mut state) >> 32) as u8).collect();
            let plan = schedule(&mut state, 2000);
            decode_both(&bytes, &plan);
        }
    }

    /// Walks every 11-bit probability state and both bins: the states
    /// reachable from any start in `[32, 2016]` (a superset of those
    /// `Prob::default()` reaches) are exactly `[31, 2017]`, and from each a
    /// bin at the smallest range (`TOP`, where both bins' new ranges are
    /// smallest: `(range >> 11)·p` or `(range & 2047) + (range >> 11)·
    /// (2048 - p)`) leaves at least 2^16, so one 8-bit renormalization
    /// step restores `range >= TOP`.
    #[test]
    fn probabilities_stay_in_range_and_one_renorm_step_suffices() {
        // Closure of every start in [32, 2016] under both updates.
        let mut reachable = [false; PROB_ONE as usize];
        let mut todo: Vec<u16> = (32..=PROB_ONE - 32).collect();
        while let Some(p) = todo.pop() {
            if !std::mem::replace(&mut reachable[usize::from(p)], true) {
                for bit in [false, true] {
                    let mut next = Prob(p);
                    next.update(bit);
                    todo.push(next.0);
                }
            }
        }
        for (k, &r) in reachable.iter().enumerate() {
            assert_eq!(r, (31..=2017).contains(&k), "state {k}");
        }
        for p in 31..=2017u16 {
            for bit in [false, true] {
                let mut next = Prob(p);
                next.update(bit);
                assert!((31..=2017).contains(&next.0), "p={p} bit={bit}");
                for range in [TOP, TOP + 2047, TOP << 3, u32::MAX] {
                    let bound = (range >> PROB_BITS) * u32::from(p);
                    let after = if bit { range - bound } else { bound };
                    assert!(after >= 1 << 16, "p={p} bit={bit} range={range}");
                    assert!(after >= TOP || after << 8 >= TOP);
                }
            }
        }
        // A bypass bin halves the range: at least 2^23 is left.
        const { assert!((TOP >> 1) << 8 >= TOP) };
    }

    #[test]
    fn cost_estimate_tracks_actual_size() {
        // Estimated cost should be within ~10% of actual bytes on a long
        // stationary stream.
        let bits: Vec<bool> = (0..20_000).map(|i| i % 5 == 0).collect();
        let mut est = 0.0;
        let mut enc = CabacEncoder::new();
        let mut ctx = Prob::default();
        for &b in &bits {
            est += BinCosts::get().cost(ctx, b);
            enc.encode_bit(&mut ctx, b);
        }
        let actual = enc.finish().len() as f64 * 8.0;
        assert!(
            (est - actual).abs() / actual < 0.1,
            "est {est} actual {actual}"
        );
    }

    #[test]
    fn prob_update_moves_toward_observed() {
        let mut p = Prob::default();
        for _ in 0..100 {
            p.update(false);
        }
        assert!(p.p0() > 0.9);
        for _ in 0..200 {
            p.update(true);
        }
        assert!(p.p0() < 0.1);
    }
}
