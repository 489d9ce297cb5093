//! Byte-oriented LZ compression in the spirit of LZ4.
//!
//! One of the four general-purpose compressors in the paper's baseline grid
//! (Fig 14/15). The format mirrors LZ4's block layout — a token byte whose
//! nibbles carry literal-run and match lengths (extended by 255-runs),
//! followed by literals and a 16-bit match offset — with our own framing
//! (a length prefix) instead of the LZ4 frame format.

use crate::{bytes, ByteCodec, CodecError};

/// Minimum match length; matches shorter than this are emitted as literals.
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (16-bit offsets).
const MAX_DIST: usize = 65_535;
/// Hash table size (power of two).
const HASH_BITS: u32 = 16;

/// LZ4-style byte compressor.
///
/// # Example
///
/// ```
/// use llm265_bitstream::{ByteCodec, lz4::Lz4};
///
/// let data = b"repetition repetition repetition".to_vec();
/// let packed = Lz4.compress(&data);
/// assert_eq!(Lz4.decompress(&packed).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lz4;

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    // The shift leaves HASH_BITS significant bits; the mask states that.
    ((v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) & 0xFFFF) as usize
}

fn write_len_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    // The loop leaves `extra < 255`; the mask states the byte width.
    out.push((extra & 0xFF) as u8);
}

fn read_len_ext(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let mut total = 0usize;
    loop {
        let b = *data
            .get(*pos)
            .ok_or(CodecError::Truncated("lz4 length extension"))?;
        *pos += 1;
        total += usize::from(b);
        if b != 255 {
            return Ok(total);
        }
    }
}

impl ByteCodec for Lz4 {
    fn name(&self) -> &'static str {
        "LZ4"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        bytes::write_le_u64(&mut out, data.len() as u64);

        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut lit_start = 0usize;

        while pos + MIN_MATCH <= data.len() {
            let h = hash4(data, pos);
            let cand = table[h];
            table[h] = pos;

            let matched = cand != usize::MAX
                && pos - cand <= MAX_DIST
                && data[cand..cand + MIN_MATCH] == data[pos..pos + MIN_MATCH];
            if !matched {
                pos += 1;
                continue;
            }

            // Extend the match forward.
            let mut mlen = MIN_MATCH;
            while pos + mlen < data.len() && data[cand + mlen] == data[pos + mlen] {
                mlen += 1;
            }

            emit_sequence(&mut out, &data[lit_start..pos], Some((pos - cand, mlen)));

            // Insert a few positions inside the match to keep the table warm.
            let end = pos + mlen;
            let mut p = pos + 1;
            while p + MIN_MATCH <= data.len() && p < end {
                table[hash4(data, p)] = p;
                p += 2;
            }
            pos = end;
            lit_start = pos;
        }
        emit_sequence(&mut out, &data[lit_start..], None);
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut pos = 0usize;
        let n: u64 =
            bytes::read_le_u64(data, &mut pos).map_err(|_| CodecError::Truncated("lz4 header"))?;
        let n = n as usize;
        let mut out = Vec::with_capacity(n.min(1 << 24));

        while out.len() < n {
            let token = *data.get(pos).ok_or(CodecError::Truncated("lz4 token"))?;
            pos += 1;
            let mut lit_len = usize::from(token >> 4);
            if lit_len == 15 {
                lit_len += read_len_ext(data, &mut pos)?;
            }
            let literals = data
                .get(pos..)
                .and_then(|rest| rest.get(..lit_len))
                .ok_or(CodecError::Truncated("lz4 literals"))?;
            out.extend_from_slice(literals);
            pos += lit_len;
            if out.len() >= n {
                break;
            }

            let dist = usize::from(
                bytes::read_le_u16(data, &mut pos)
                    .map_err(|_| CodecError::Truncated("lz4 offset"))?,
            );
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("lz4 offset out of range"));
            }
            let mut mlen = (token & 0x0f) as usize;
            if mlen == 15 {
                mlen += read_len_ext(data, &mut pos)?;
            }
            let mlen = mlen + MIN_MATCH;
            // A declared match must fit the remaining output: without this
            // cap a hostile length extension grows `out` far past `n`
            // before the loop condition is rechecked.
            if mlen > n - out.len() {
                return Err(CodecError::LimitExceeded("lz4 match length"));
            }
            // Overlapping copies are the point of LZ: copy byte-by-byte.
            let start = out.len() - dist;
            for i in 0..mlen {
                let b = out[start + i];
                out.push(b);
            }
        }
        if out.len() != n {
            return Err(CodecError::Corrupt("lz4 length mismatch"));
        }
        Ok(out)
    }
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nib = literals.len().min(15) as u8;
    let (dist, mlen) = m.unwrap_or((0, MIN_MATCH));
    debug_assert!(mlen >= MIN_MATCH);
    let m_extra = mlen - MIN_MATCH;
    let m_nib = if m.is_some() {
        m_extra.min(15) as u8
    } else {
        0
    };
    out.push((lit_nib << 4) | m_nib);
    if literals.len() >= 15 {
        write_len_ext(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if m.is_some() {
        // `dist <= MAX_DIST = 65_535`; the mask states the field width.
        out.extend_from_slice(&((dist & 0xFFFF) as u16).to_le_bytes());
        if m_extra >= 15 {
            write_len_ext(out, m_extra - 15);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let packed = Lz4.compress(data);
        assert_eq!(Lz4.decompress(&packed).unwrap(), data, "len {}", data.len());
        packed.len()
    }

    #[test]
    fn roundtrip_edges() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcd");
        roundtrip(b"abcde");
    }

    #[test]
    fn roundtrip_repetitive() {
        let n = roundtrip(&b"0123456789".repeat(1000));
        assert!(n < 300, "packed {n}");
    }

    #[test]
    fn roundtrip_all_same_byte_uses_overlapping_match() {
        let n = roundtrip(&[7u8; 100_000]);
        assert!(n < 500, "packed {n}");
    }

    #[test]
    fn roundtrip_long_literal_runs() {
        // Incompressible data forces long literal-extension chains.
        let data: Vec<u8> = (0..70_000u64)
            .map(|i| {
                // splitmix64 finalizer: no short-range structure at all.
                let mut z = i.wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        let n = roundtrip(&data);
        assert!(n < data.len() + 1024, "overhead too large: {n}");
        assert!(
            n > data.len() * 9 / 10,
            "data should be mostly incompressible: {n}"
        );
    }

    #[test]
    fn roundtrip_mixed_content() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.extend_from_slice(format!("record-{:04}:", i % 37).as_bytes());
            data.extend_from_slice(&[((i * 31) % 251) as u8; 13]);
        }
        let n = roundtrip(&data);
        assert!(n < data.len());
    }

    #[test]
    fn distance_cap_respected() {
        // A repeat farther than 65535 bytes must not be matched.
        let mut data = vec![0u8; 70_000];
        data[..8].copy_from_slice(b"UNIQUEXY");
        let tail = data.len() - 8;
        data[tail..].copy_from_slice(b"UNIQUEXY");
        roundtrip(&data);
    }

    #[test]
    #[allow(
        clippy::let_underscore_must_use,
        reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
    )]
    fn corrupt_streams_error_not_panic() {
        assert!(Lz4.decompress(&[]).is_err());
        assert!(Lz4.decompress(&[0; 7]).is_err());
        let mut packed = Lz4.compress(&b"hello hello hello hello".repeat(4));
        // Corrupt an offset to zero.
        let len = packed.len();
        packed[len - 3] = 0;
        packed[len - 2] = 0;
        let _ = Lz4.decompress(&packed); // must not panic
                                         // Truncations must not panic (some may still decode a prefix).
        for cut in 1..8 {
            let _ = Lz4.decompress(&packed[..packed.len() - cut]);
        }
    }
}
