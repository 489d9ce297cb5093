//! Static-table interleaved rANS coder, a reference point for the
//! entropy stage. No codec stream uses it — CABAC codes every tile — but
//! decoding the codec's recorded bin strings with it measures what a
//! table-driven coder would buy over CABAC's serial decode.
//!
//! CABAC ([`crate::cabac`]) decodes one bin per dependent
//! range-coder step, so within-tile decode throughput is pinned by that
//! serial chain. rANS (asymmetric numeral systems, range variant) moves
//! the model *out* of the coder: a per-tile frequency table is built in a
//! first pass and serialized ahead of the data, and the coder itself is a
//! static table lookup plus a multiply — no adaptation, no bit-by-bit
//! carry chain. `N_STATES` independent 32-bit states are interleaved
//! over one shared byte stream, so the decode inner loop is a short
//! branch-light chain per lane that LLVM can software-pipeline across
//! lanes.
//!
//! Layout (all integers little-endian):
//!
//! - state: `u32`, invariant `RANS_L <= x < (RANS_L << 8)` between
//!   symbols (`RANS_L = 1 << 23`), byte-wise renormalization;
//! - frequencies: 12-bit, normalized so they sum to exactly
//!   `FREQ_TOTAL` = 4096; every present symbol has frequency >= 1;
//! - interleaving: symbol `i` of the message belongs to lane
//!   `i % N_STATES`. The encoder walks the message *backwards* pushing
//!   renorm bytes into one buffer (reversed at the end); the decoder
//!   walks forwards reading the same bytes in mirrored order, so the
//!   lanes share a single stream without per-lane framing.
//!
//! Hostile input is handled the same way as every other decoder in this
//! crate: zero or overflowing frequency tables, truncated payloads,
//! undersized initial states and declared-length bombs all yield
//! [`CodecError::Corrupt`] / [`CodecError::Truncated`] /
//! [`CodecError::LimitExceeded`] — never a panic, never an unbounded
//! loop (every renorm read is capped in its loop condition).

use crate::bytes;
use crate::error::CodecError;

/// Number of interleaved rANS states (lanes).
const N_STATES: usize = 8;

/// Lower bound of the normalized state interval: `x` stays in
/// `[RANS_L, RANS_L << 8)` between symbols.
const RANS_L: u32 = 1 << 23;

/// Precision of the normalized frequencies: they sum to exactly
/// `FREQ_TOTAL = 1 << FREQ_BITS`.
const FREQ_BITS: u32 = 12;

/// Sum every valid frequency table normalizes to.
const FREQ_TOTAL: u32 = 1 << FREQ_BITS;

/// A validated static frequency table over byte symbols: normalized
/// 12-bit frequencies, cumulative starts, and the slot→symbol inverse
/// used by the decoder.
#[derive(Debug, Clone)]
struct FreqTable {
    /// Normalized frequency per symbol (sums to [`FREQ_TOTAL`]).
    freq: [u16; 256],
    /// Cumulative frequency (exclusive prefix sum) per symbol.
    start: [u16; 256],
    /// Slot → packed `(start << 20) | (freq << 8) | symbol` over the full
    /// `FREQ_TOTAL` range: the decoder's whole per-symbol model in one
    /// 16 KiB L1-resident load.
    slot: Vec<u32>,
}

impl FreqTable {
    /// Builds a normalized table from raw symbol counts.
    ///
    /// Every symbol with a non-zero count gets frequency >= 1; the
    /// remainder is apportioned largest-count-first so the table sums to
    /// exactly [`FREQ_TOTAL`]. Returns `None` when `counts` is all zero
    /// (an empty message needs no table).
    fn from_counts(counts: &[u64; 256]) -> Option<FreqTable> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // Floor-scale with a guaranteed minimum of 1 for present symbols.
        let mut freq = [0u16; 256];
        let mut used: u32 = 0;
        let mut present = 0u32;
        for (f, &c) in freq.iter_mut().zip(counts.iter()) {
            if c > 0 {
                present += 1;
                let scaled = (u128::from(c) * u128::from(FREQ_TOTAL)) / u128::from(total);
                // The clamp bounds the value below FREQ_TOTAL, so the
                // narrowing conversion cannot fail.
                *f = u16::try_from(scaled.clamp(1, u128::from(FREQ_TOTAL - 1))).unwrap_or(1);
                used += u32::from(*f);
            }
        }
        // Floor scaling leaves `used <= FREQ_TOTAL + present` (each
        // clamp-to-1 adds at most 1 over the floor sum). A deficit goes
        // to the most frequent symbol in one shot (the rounding error
        // lands where it costs least, and `used >= freq[k]` guarantees
        // the room); a surplus is shaved off the largest entries, each
        // of which stays >= 1 because entries of 1 are never the
        // largest while `used > FREQ_TOTAL >= 256 >= present`.
        if used < FREQ_TOTAL {
            let k = argmax_count(counts);
            freq[k] += u16::try_from(FREQ_TOTAL - used).unwrap_or(0);
        }
        while used > FREQ_TOTAL {
            let k = argmax_freq(&freq);
            let cut = (used - FREQ_TOTAL).min(u32::from(freq[k]).saturating_sub(1));
            if cut == 0 {
                break; // unreachable: kept as a hard stop, not a spin
            }
            freq[k] -= u16::try_from(cut).unwrap_or(0);
            used -= cut;
        }
        debug_assert!(present >= 1);
        // An Err here is unreachable by construction; fall back to "no
        // table" rather than panicking inside the codec.
        Self::from_freqs(freq).ok()
    }

    /// Builds the derived tables from already-normalized frequencies.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] unless the non-zero frequencies sum to
    /// exactly [`FREQ_TOTAL`].
    fn from_freqs(freq: [u16; 256]) -> Result<FreqTable, CodecError> {
        let mut start = [0u16; 256];
        let mut acc: u32 = 0;
        for (s, &f) in start.iter_mut().zip(freq.iter()) {
            *s = u16::try_from(acc).unwrap_or(u16::MAX);
            acc += u32::from(f);
            if acc > FREQ_TOTAL {
                return Err(CodecError::Corrupt("rans frequency overflow"));
            }
        }
        if acc != FREQ_TOTAL {
            return Err(CodecError::Corrupt("rans frequency sum"));
        }
        let mut slot = vec![0u32; FREQ_TOTAL as usize];
        for sym in 0..256usize {
            let f = u32::from(freq[sym]);
            if f == 0 {
                continue;
            }
            let s = usize::from(start[sym]);
            let e = s + usize::from(freq[sym]);
            // `freq` spans [1, FREQ_TOTAL] — 4097 values — so the 12-bit
            // field stores `freq - 1` (saturating only to state the f >= 1
            // guard to the prover) and the decoder adds it back.
            let packed =
                (u32::from(start[sym]) << 20) | (f.saturating_sub(1) << 8) | ((sym & 0xFF) as u32);
            for entry in &mut slot[s..e] {
                *entry = packed;
            }
        }
        Ok(FreqTable { freq, start, slot })
    }

    /// Serializes the table: `u16` symbol count, then `(u8 symbol,
    /// u16 frequency)` per present symbol in ascending order.
    fn serialize(&self, out: &mut Vec<u8>) {
        let n_syms = self.freq.iter().filter(|&&f| f > 0).count();
        bytes::write_le_u16(out, u16::try_from(n_syms).unwrap_or(u16::MAX));
        for sym in 0..256usize {
            if self.freq[sym] > 0 {
                bytes::write_u8(out, (sym & 0xFF) as u8);
                bytes::write_le_u16(out, self.freq[sym]);
            }
        }
    }

    /// Parses a serialized table, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] past the end of `data`;
    /// [`CodecError::Corrupt`] for a zero/oversized symbol count,
    /// out-of-order or repeated symbols, zero frequencies, or a table
    /// that does not sum to exactly [`FREQ_TOTAL`].
    fn parse(data: &[u8], pos: &mut usize) -> Result<FreqTable, CodecError> {
        let n_syms = bytes::read_le_u16(data, pos)? as usize;
        if n_syms == 0 || n_syms > 256 {
            return Err(CodecError::Corrupt("rans table symbol count"));
        }
        let mut freq = [0u16; 256];
        let mut prev: i32 = -1;
        for _ in 0..n_syms {
            let sym = bytes::read_u8(data, pos)?;
            if i32::from(sym) <= prev {
                return Err(CodecError::Corrupt("rans table symbol order"));
            }
            prev = i32::from(sym);
            // A lone symbol may own the whole range (f == FREQ_TOTAL);
            // anything above it, and any zero, is hostile. The exact-sum
            // check in `from_freqs` is the backstop either way.
            let f = bytes::read_le_u16(data, pos)?;
            if f == 0 || u32::from(f) > FREQ_TOTAL {
                return Err(CodecError::Corrupt("rans table frequency"));
            }
            freq[usize::from(sym)] = f;
        }
        Self::from_freqs(freq)
    }

    /// Normalized frequency of `sym`.
    fn freq(&self, sym: u8) -> u16 {
        self.freq[usize::from(sym)]
    }

    /// Cumulative start of `sym`.
    fn start(&self, sym: u8) -> u16 {
        self.start[usize::from(sym)]
    }

    /// The packed `(start << 20) | ((freq - 1) << 8) | symbol` entry owning
    /// `slot` (the low [`FREQ_BITS`] bits of a state). Callers mask with
    /// `FREQ_TOTAL - 1`, which keeps the lookup in bounds.
    fn slot_entry(&self, slot: usize) -> u32 {
        self.slot[slot]
    }
}

/// Index of the largest raw count (first on ties).
fn argmax_count(counts: &[u64; 256]) -> usize {
    let mut best = 0usize;
    for (k, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = k;
        }
    }
    best
}

/// Index of the largest normalized frequency (first on ties).
fn argmax_freq(freq: &[u16; 256]) -> usize {
    let mut best = 0usize;
    for (k, &f) in freq.iter().enumerate() {
        if f > freq[best] {
            best = k;
        }
    }
    best
}

/// Encodes `msg` with `n_states` interleaved rANS lanes over `table`,
/// appending the serialized initial decoder states followed by the
/// renormalization byte stream to `out`. Symbol `i` belongs to lane
/// `i % n_states`; the message is walked backwards so the decoder can
/// walk it forwards.
///
/// Every symbol of `msg` must have a non-zero frequency in `table`
/// (guaranteed when the table came from [`FreqTable::from_counts`] over
/// this message).
fn encode_interleaved(msg: &[u8], table: &FreqTable, n_states: usize, out: &mut Vec<u8>) {
    let mut x = [RANS_L; N_STATES];
    let mut stream: Vec<u8> = Vec::with_capacity(msg.len() / 2 + 16);
    for (i, &sym) in msg.iter().enumerate().rev() {
        // `i % n_states < n_states <= N_STATES`; the mask restates that
        // bound in a form the range prover tracks (no-op for valid lanes).
        let lane = (i % n_states) & (N_STATES - 1);
        // Table frequencies sum to FREQ_TOTAL, so each is <= FREQ_TOTAL;
        // the clamp restates the invariant (and keeps the renorm product
        // `x_max * freq` below 2^31, provably in-range).
        let freq = u32::from(table.freq(sym)).min(FREQ_TOTAL);
        debug_assert!(freq > 0, "symbol {sym} absent from the table");
        // Renormalize: push low bytes until the post-encode state fits.
        let x_max = (RANS_L >> FREQ_BITS) << 8; // per unit of freq
        while x[lane] >= x_max * freq {
            stream.push((x[lane] & 0xFF) as u8);
            x[lane] >>= 8;
        }
        x[lane] = ((x[lane] / freq) << FREQ_BITS) + (x[lane] % freq) + u32::from(table.start(sym));
    }
    // The decoder reads initial states first, then the stream in reverse
    // push order.
    for &s in x.iter().take(n_states) {
        bytes::write_le_u32(out, s);
    }
    stream.reverse();
    out.extend_from_slice(&stream);
}

/// Decodes `n_syms` symbols from `data` (advancing `pos`) with
/// `n_states` interleaved lanes over `table`, appending to `out`.
///
/// # Errors
///
/// [`CodecError::Truncated`] when the initial states do not fit, and
/// [`CodecError::Corrupt`] when a state leaves the normalized interval —
/// which is how truncated or byte-flipped streams surface. The renorm
/// read is capped at two bytes *in the loop condition* (a state below
/// [`RANS_L`] recovers in at most two byte-wise shifts), so no input can
/// make the decoder spin; reads past the end of `data` zero-fill and are
/// caught by the post-renorm interval check.
fn decode_interleaved(
    data: &[u8],
    pos: &mut usize,
    n_syms: usize,
    table: &FreqTable,
    n_states: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if n_states == 0 || n_states > N_STATES {
        return Err(CodecError::InvalidInput(format!(
            "rans state count {n_states} outside 1..={N_STATES}"
        )));
    }
    let mut x = [0u32; N_STATES];
    for s in x.iter_mut().take(n_states) {
        *s = bytes::read_le_u32(data, pos)?;
        if *s < RANS_L {
            return Err(CodecError::Corrupt("rans initial state"));
        }
    }
    let mask = FREQ_TOTAL - 1;
    // Reads past the end of the renorm stream zero-fill; the post-renorm
    // interval check rejects the truncated stream. An iterator keeps the
    // serial `pos` chain down to a pointer bump.
    let mut stream = data.get(*pos..).unwrap_or(&[]).iter();
    let stream_len = stream.len();
    // Write through a resized slice (no per-symbol capacity check) and
    // step the lane with a wrapping counter (no per-symbol modulo): the
    // loop body is one packed-LUT load, one multiply, and a renorm that
    // usually takes zero or one byte read.
    let base = out.len();
    out.resize(base + n_syms, 0);
    let mut lane = 0usize;
    let mut corrupt = false;
    for sym_out in &mut out[base..] {
        let xi = x[lane];
        let slot = xi & mask;
        let entry = table.slot_entry((slot & 0xFFF) as usize);
        *sym_out = (entry & 0xFF) as u8;
        // x' = freq * (x >> FREQ_BITS) + slot - start  — branch-free.
        let freq = ((entry >> 8) & 0xFFF) + 1;
        let mut xn = freq * (xi >> FREQ_BITS) + slot - (entry >> 20);
        // Straight-line byte-wise renorm: two reads always restore
        // `xn >= RANS_L` on a well-formed stream (the post-symbol state
        // is >= RANS_L >> FREQ_BITS > 1 << 8); a hostile stream that
        // stays below the interval after two is rejected after the loop.
        if xn < RANS_L {
            xn = (xn << 8) | u32::from(stream.next().copied().unwrap_or(0));
            if xn < RANS_L {
                xn = (xn << 8) | u32::from(stream.next().copied().unwrap_or(0));
            }
            corrupt |= xn < RANS_L;
        }
        x[lane] = xn;
        lane += 1;
        if lane == n_states {
            lane = 0;
        }
    }
    *pos += stream_len - stream.len();
    if corrupt {
        out.truncate(base);
        return Err(CodecError::Corrupt("rans state underflow"));
    }
    Ok(())
}

/// Compresses `msg` into a self-describing rANS block: serialized
/// frequency table, `u32` symbol count, then the interleaved stream.
/// The empty message is the five fixed bytes of an empty header.
pub fn compress(msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.len() / 2 + 64);
    let mut counts = [0u64; 256];
    for &b in msg {
        counts[usize::from(b)] += 1;
    }
    match FreqTable::from_counts(&counts) {
        None => {
            // Empty message: zero symbol count, zero length, no states.
            bytes::write_le_u16(&mut out, 0);
            // Keep the length field so the parser has one shape.
            bytes::write_le_u32(&mut out, 0);
        }
        Some(table) => {
            table.serialize(&mut out);
            bytes::write_le_u32(&mut out, u32::try_from(msg.len()).unwrap_or(u32::MAX));
            encode_interleaved(msg, &table, N_STATES, &mut out);
        }
    }
    out
}

/// Decompresses a block produced by [`compress`], advancing `pos`.
///
/// # Errors
///
/// Every malformed-input class maps to a typed error: truncated headers
/// and states ([`CodecError::Truncated`]), hostile frequency tables and
/// states outside the normalized interval ([`CodecError::Corrupt`]), and
/// declared lengths far beyond what the payload could encode
/// ([`CodecError::LimitExceeded`]).
pub fn decompress(data: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    // Peek the symbol count to recognize the empty-message shape.
    let mut peek = *pos;
    if bytes::read_le_u16(data, &mut peek)? == 0 {
        let n = bytes::read_le_u32(data, &mut peek)?;
        if n != 0 {
            return Err(CodecError::Corrupt("rans empty table with symbols"));
        }
        *pos = peek;
        return Ok(Vec::new());
    }
    let table = FreqTable::parse(data, pos)?;
    let n64 = u64::from(bytes::read_le_u32(data, pos)?);
    // rANS tops out near FREQ_TOTAL:1 on a degenerate single-symbol
    // message (~0.00035 bit/symbol at 12-bit precision); a declared
    // count far beyond that is a hostile header, not a stream.
    let payload_len = data.len().saturating_sub(*pos);
    let payload64 = u64::try_from(payload_len).unwrap_or(u64::MAX);
    if n64 > u64::from(FREQ_TOTAL).saturating_mul(payload64.max(16)) {
        return Err(CodecError::LimitExceeded("rans declared length"));
    }
    let n = usize::try_from(n64).map_err(|_| CodecError::LimitExceeded("rans declared length"))?;
    let mut out = Vec::with_capacity(n.min(1 << 24));
    decode_interleaved(data, pos, n, &table, N_STATES, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &[u8]) {
        let packed = compress(msg);
        let mut pos = 0;
        let back = decompress(&packed, &mut pos).expect("decompress");
        assert_eq!(back, msg);
        assert_eq!(pos, packed.len(), "trailing bytes after the block");
    }

    #[test]
    fn roundtrips_empty_single_and_text() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello interleaved rans");
        roundtrip(&[0u8; 1000]);
    }

    #[test]
    fn roundtrips_all_byte_values_and_odd_lengths() {
        let all: Vec<u8> = (0..=255u8).cycle().take(4097).collect();
        roundtrip(&all);
        // Lengths around the lane count exercise the interleave tail.
        for n in 0..=(2 * N_STATES + 1) {
            let msg: Vec<u8> = (0..n).map(|i| (i * 37 % 251) as u8).collect();
            roundtrip(&msg);
        }
    }

    #[test]
    fn compresses_skewed_data_near_entropy() {
        // 90/10 binary split: H ≈ 0.469 bits/symbol.
        let data: Vec<u8> = (0..20_000).map(|i| u8::from(i % 10 == 0)).collect();
        let packed = compress(&data);
        let bits_per_sym = packed.len() as f64 * 8.0 / data.len() as f64;
        assert!(bits_per_sym < 0.55, "{bits_per_sym} bits/symbol");
        let mut pos = 0;
        assert_eq!(decompress(&packed, &mut pos).unwrap(), data);
    }

    #[test]
    fn single_symbol_alphabet_is_near_free() {
        let data = vec![42u8; 50_000];
        let packed = compress(&data);
        assert!(packed.len() < 64, "{} bytes", packed.len());
        let mut pos = 0;
        assert_eq!(decompress(&packed, &mut pos).unwrap(), data);
    }

    #[test]
    fn normalization_sums_to_total_on_hostile_counts() {
        // Extremes: one huge count among many tiny ones, and a full
        // alphabet of equal counts.
        let mut counts = [1u64; 256];
        counts[7] = u64::MAX / 512;
        let t = FreqTable::from_counts(&counts).unwrap();
        assert_eq!(
            t.freq.iter().map(|&f| u32::from(f)).sum::<u32>(),
            FREQ_TOTAL
        );
        assert!(t.freq.iter().all(|&f| f >= 1));

        let counts = [3u64; 256];
        let t = FreqTable::from_counts(&counts).unwrap();
        assert_eq!(
            t.freq.iter().map(|&f| u32::from(f)).sum::<u32>(),
            FREQ_TOTAL
        );
    }

    #[test]
    fn rejects_bad_frequency_tables() {
        // Sum below / above FREQ_TOTAL.
        let mut low = [0u16; 256];
        low[0] = 100;
        assert!(matches!(
            FreqTable::from_freqs(low),
            Err(CodecError::Corrupt(_))
        ));
        let mut high = [0u16; 256];
        high[0] = (FREQ_TOTAL - 1) as u16;
        high[1] = (FREQ_TOTAL - 1) as u16;
        assert!(matches!(
            FreqTable::from_freqs(high),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_hostile_serialized_tables() {
        // Zero frequency on the wire.
        let mut bad = Vec::new();
        bytes::write_le_u16(&mut bad, 1);
        bad.push(5);
        bytes::write_le_u16(&mut bad, 0);
        assert!(FreqTable::parse(&bad, &mut 0).is_err());
        // Out-of-order symbols.
        let mut bad = Vec::new();
        bytes::write_le_u16(&mut bad, 2);
        bad.push(9);
        bytes::write_le_u16(&mut bad, 2048);
        bad.push(3);
        bytes::write_le_u16(&mut bad, 2048);
        assert!(FreqTable::parse(&bad, &mut 0).is_err());
        // Oversized symbol count.
        let mut bad = Vec::new();
        bytes::write_le_u16(&mut bad, 300);
        assert!(FreqTable::parse(&bad, &mut 0).is_err());
        // Truncated mid-entry.
        let mut bad = Vec::new();
        bytes::write_le_u16(&mut bad, 2);
        bad.push(1);
        assert!(matches!(
            FreqTable::parse(&bad, &mut 0),
            Err(CodecError::Truncated(_))
        ));
    }

    #[test]
    #[allow(
        clippy::let_underscore_must_use,
        reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
    )]
    fn truncated_and_flipped_streams_error_not_panic() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 7) as u8).collect();
        let packed = compress(&data);
        for cut in 0..packed.len() {
            let mut pos = 0;
            // Must return (any error or short output), never panic/hang.
            let _ = decompress(&packed[..cut], &mut pos);
        }
        for i in 0..packed.len() {
            let mut evil = packed.clone();
            evil[i] ^= 0xA5;
            let mut pos = 0;
            let _ = decompress(&evil, &mut pos);
        }
    }

    #[test]
    fn declared_length_bomb_is_rejected() {
        let packed = compress(b"abcabcabc");
        // Locate the u32 length: after the serialized table.
        let n_syms = u16::from_le_bytes([packed[0], packed[1]]) as usize;
        let len_at = 2 + 3 * n_syms;
        let mut evil = packed.clone();
        evil[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            decompress(&evil, &mut pos),
            Err(CodecError::LimitExceeded(_))
        ));
    }

    #[test]
    fn undersized_initial_state_is_corrupt() {
        let packed = compress(b"xyzzy");
        let n_syms = u16::from_le_bytes([packed[0], packed[1]]) as usize;
        let states_at = 2 + 3 * n_syms + 4;
        let mut evil = packed.clone();
        // Zero a whole initial state: below RANS_L.
        evil[states_at..states_at + 4].copy_from_slice(&0u32.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            decompress(&evil, &mut pos),
            Err(CodecError::Corrupt(_))
        ));
    }
}
