//! Canonical Huffman coding of byte streams.
//!
//! One of the four general-purpose compressors in the paper's baseline
//! grid (Fig 14/15). Code lengths are limited to 15 bits via the exact
//! package-merge algorithm, then assigned canonically so the header only
//! needs to carry one 4-bit length per symbol.

use crate::bits::{BitReader, BitWriter};
use crate::{ByteCodec, CodecError};

/// Maximum code length; 15 matches DEFLATE and keeps headers at 4 bits.
const MAX_LEN: u32 = 15;
/// Array size for per-length tables indexed `1..=MAX_LEN`.
const NUM_LENS: usize = 16;

/// Canonical Huffman byte-stream compressor.
///
/// # Example
///
/// ```
/// use llm265_bitstream::{ByteCodec, huffman::Huffman};
///
/// let packed = Huffman.compress(b"mississippi river");
/// assert_eq!(Huffman.decompress(&packed).unwrap(), b"mississippi river");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Huffman;

/// Computes length-limited Huffman code lengths (package-merge).
///
/// Returns a 256-entry array of code lengths; symbols with zero frequency
/// get length 0. A single distinct symbol gets length 1.
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut leaves: Vec<(u64, u8)> = (0u8..=255)
        .zip(freqs.iter())
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (f, s))
        .collect();
    match leaves.len() {
        0 => return lengths,
        1 => {
            lengths[usize::from(leaves[0].1)] = 1;
            return lengths;
        }
        _ => {}
    }
    leaves.sort_unstable();

    // Package-merge: after L rounds of "package pairs and merge with the
    // leaf list", the 2(n-1) cheapest packages' leaf multiplicities are the
    // optimal length-limited code lengths.
    type Pkg = (u64, Vec<u8>);
    let leaf_pkgs: Vec<Pkg> = leaves.iter().map(|&(f, s)| (f, vec![s])).collect();
    let mut current = leaf_pkgs.clone();
    for _ in 1..MAX_LEN {
        let mut packaged: Vec<Pkg> = Vec::with_capacity(current.len() / 2);
        let mut it = current.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            let mut syms = a.1;
            syms.extend_from_slice(&b.1);
            packaged.push((a.0 + b.0, syms));
        }
        // Merge packaged with the original leaves, keeping sorted order.
        let mut merged = Vec::with_capacity(packaged.len() + leaf_pkgs.len());
        let (mut i, mut j) = (0, 0);
        while i < leaf_pkgs.len() || j < packaged.len() {
            let take_leaf = match (leaf_pkgs.get(i), packaged.get(j)) {
                (Some(l), Some(p)) => l.0 <= p.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_leaf {
                merged.push(leaf_pkgs[i].clone());
                i += 1;
            } else {
                merged.push(std::mem::take(&mut packaged[j]));
                j += 1;
            }
        }
        current = merged;
    }
    let take = 2 * (leaves.len() - 1);
    for pkg in current.into_iter().take(take) {
        for s in pkg.1 {
            lengths[usize::from(s)] += 1;
        }
    }
    lengths
}

/// Assigns canonical codes for the given lengths. Returns `(code, len)` per
/// symbol; zero-length symbols get `(0, 0)`.
fn canonical_codes(lengths: &[u8; 256]) -> [(u16, u8); 256] {
    let mut codes = [(0u16, 0u8); 256];
    // Symbols ordered by (length, symbol value).
    let mut order: Vec<u8> = (0..=255u8)
        .filter(|&s| lengths[usize::from(s)] > 0)
        .collect();
    order.sort_by_key(|&s| (lengths[usize::from(s)], s));
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &order {
        let len = lengths[usize::from(s)];
        // The order is sorted by length and lengths are capped at
        // MAX_LEN, so the delta is in 0..=15; `.min` keeps a hostile
        // length table from turning this into a 255-bit shift.
        code <<= u32::from(len - prev_len).min(MAX_LEN);
        // Lengths are capped at MAX_LEN = 15, so codes fit in 15 bits.
        codes[usize::from(s)] = ((code & 0x7FFF) as u16, len);
        code += 1;
        prev_len = len;
    }
    codes
}

struct CanonicalDecoder {
    // Per length 1..=15: first canonical code, count, base index into `syms`.
    first_code: [u32; NUM_LENS],
    count: [u32; NUM_LENS],
    base: [u32; NUM_LENS],
    syms: Vec<u8>,
}

impl CanonicalDecoder {
    fn new(lengths: &[u8; 256]) -> Self {
        let mut count = [0u32; NUM_LENS];
        let mut order: Vec<u8> = (0..=255u8)
            .filter(|&s| lengths[usize::from(s)] > 0)
            .collect();
        order.sort_by_key(|&s| (lengths[usize::from(s)], s));
        for &s in &order {
            // Lengths above MAX_LEN cannot occur (the wire format carries
            // 4-bit lengths); the cap bounds the index for hostile input.
            count[usize::from(lengths[usize::from(s)]).min(NUM_LENS - 1)] += 1;
        }
        let mut first_code = [0u32; NUM_LENS];
        let mut base = [0u32; NUM_LENS];
        let mut code = 0u32;
        let mut idx = 0u32;
        for len in 1..=MAX_LEN as usize {
            code <<= 1;
            first_code[len] = code;
            base[len] = idx;
            code += count[len];
            idx += count[len];
        }
        CanonicalDecoder {
            first_code,
            count,
            base,
            syms: order,
        }
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u8, CodecError> {
        let mut code = 0u32;
        for len in 1..=MAX_LEN as usize {
            code = (code << 1) | ((r.read_bits(1)? & 1) as u32);
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < self.count[len] {
                let idx = usize::try_from(self.base[len] + offset)
                    .map_err(|_| CodecError::Corrupt("invalid huffman code"))?;
                return Ok(self.syms[idx]);
            }
        }
        Err(CodecError::Corrupt("invalid huffman code"))
    }
}

impl ByteCodec for Huffman {
    fn name(&self) -> &'static str {
        "Huffman"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut freqs = [0u64; 256];
        for &b in data {
            freqs[usize::from(b)] += 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);

        let mut w = BitWriter::new();
        // Header: original length, the used symbol range, then 4-bit code
        // lengths for that range only (tensor-level streams typically use
        // a narrow centered alphabet, so this keeps headers small).
        w.write_bits(data.len() as u64, 57);
        let first: usize = lengths.iter().position(|&l| l > 0).unwrap_or(0);
        let last: usize = lengths.iter().rposition(|&l| l > 0).unwrap_or(0);
        w.write_bits(first as u64, 8);
        w.write_bits(last as u64, 8);
        for &len in &lengths[first..=last] {
            w.write_bits(u64::from(len), 4);
        }
        for &b in data {
            let (code, len) = codes[usize::from(b)];
            w.write_bits(u64::from(code), u32::from(len));
        }
        w.finish()
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = BitReader::new(data);
        let n = r.read_bits(57)? as usize;
        // Every symbol costs at least one bit, so a declared length beyond
        // the total bit count is impossible; reject it before sizing
        // anything by it.
        if n > data.len().saturating_mul(8) {
            return Err(CodecError::LimitExceeded("huffman declared length"));
        }
        let first = r.read_bits(8)? as usize;
        let last = r.read_bits(8)? as usize;
        if first > last {
            return Err(CodecError::Corrupt("invalid huffman symbol range"));
        }
        let mut lengths = [0u8; 256];
        for len in lengths[first..=last].iter_mut() {
            *len = (r.read_bits(4)? & 0x0F) as u8;
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        if lengths.iter().all(|&l| l == 0) {
            return Err(CodecError::Corrupt(
                "nonempty payload with empty code table",
            ));
        }
        let dec = CanonicalDecoder::new(&lengths);
        let mut out = Vec::with_capacity(n.min(1 << 24));
        for _ in 0..n {
            out.push(dec.decode(&mut r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let packed = Huffman.compress(data);
        assert_eq!(Huffman.decompress(&packed).unwrap(), data);
        packed.len()
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"xxxxxxxx");
        roundtrip(&(0..=255u8).collect::<Vec<_>>());
    }

    #[test]
    fn hostile_length_table_cannot_overshift_or_escape() {
        // Lengths above MAX_LEN never come off the wire (the header
        // carries 4-bit fields), but the table builders must stay total
        // for any `[u8; 256]`: the caps bound the canonical-code shift
        // delta and the per-length bucket index.
        let mut lengths = [0u8; 256];
        lengths[0] = 255; // delta from the previous length would be 239
        lengths[1] = 16; // one past MAX_LEN
        lengths[2] = 1;
        let codes = canonical_codes(&lengths);
        assert_eq!(codes[2], (0, 1), "valid entry still canonical");
        let dec = CanonicalDecoder::new(&lengths);
        let buckets: u32 = dec.count.iter().sum();
        assert_eq!(buckets, 3, "every entry lands inside NUM_LENS");
    }

    #[test]
    fn single_symbol_uses_one_bit() {
        let data = vec![42u8; 10_000];
        let packed = Huffman.compress(&data);
        // header ≈ 136 bytes, payload 10_000 bits = 1250 bytes.
        assert!(packed.len() < 1500, "packed {}", packed.len());
    }

    #[test]
    fn skewed_distribution_compresses() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| if i % 16 == 0 { (i % 7) as u8 + 1 } else { 0 })
            .collect();
        let packed = Huffman.compress(&data);
        assert!(packed.len() < data.len() / 4, "packed {}", packed.len());
        assert_eq!(Huffman.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn uniform_data_costs_about_eight_bits() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 97 % 256) as u8).collect();
        let packed = Huffman.compress(&data);
        let bps = (packed.len() as f64 - 136.0) * 8.0 / data.len() as f64;
        assert!(bps < 8.2, "bits/byte {bps}");
    }

    #[test]
    fn code_lengths_satisfy_kraft() {
        let mut freqs = [0u64; 256];
        // Fibonacci-ish frequencies force deep codes without the limit.
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut().take(40) {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
        assert!(lengths.iter().all(|&l| l <= MAX_LEN as u8));
        // The limit must actually bind for this distribution.
        assert_eq!(lengths.iter().copied().max().unwrap(), MAX_LEN as u8);
    }

    #[test]
    fn length_limited_codes_stay_near_entropy() {
        // Geometric distribution; compare against Shannon entropy.
        let mut freqs = [0u64; 256];
        for (s, f) in freqs.iter_mut().enumerate().take(32) {
            *f = 1u64 << (31 - s.min(31));
        }
        let lengths = code_lengths(&freqs);
        let total: u64 = freqs.iter().sum();
        let avg_len: f64 = freqs
            .iter()
            .zip(&lengths)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64;
        let entropy: f64 = freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        assert!(
            avg_len < entropy + 0.2,
            "avg {avg_len} vs entropy {entropy}"
        );
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freqs = [0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 % 17) + 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        let used: Vec<(u16, u8)> = codes.iter().copied().filter(|&(_, l)| l > 0).collect();
        for (i, &(ca, la)) in used.iter().enumerate() {
            for &(cb, lb) in used.iter().skip(i + 1) {
                let l = la.min(lb) as u32;
                assert_ne!(
                    ca as u32 >> (la as u32 - l),
                    cb as u32 >> (lb as u32 - l),
                    "prefix collision"
                );
            }
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = Huffman.compress(b"some reasonably long input string");
        assert!(Huffman.decompress(&packed[..packed.len() - 2]).is_err());
        assert!(Huffman.decompress(&[]).is_err());
    }
}
