//! LZ77 + Huffman compression in the spirit of DEFLATE.
//!
//! One of the four general-purpose compressors in the paper's baseline grid
//! (Fig 14/15). The parse uses hash-chain match search over a 32 KiB window
//! (like DEFLATE); the entropy stage Huffman-codes four separated streams
//! (token kinds, literals, match lengths, distance bytes) rather than
//! DEFLATE's interleaved alphabet — same algorithmic family, simpler
//! framing, and typically within a few percent of zlib on tensor data.

use crate::huffman::Huffman;
use crate::{bytes, ByteCodec, CodecError};

/// Minimum match length worth emitting.
const MIN_MATCH: usize = 3;
/// Maximum match length (fits `len - MIN_MATCH` in one byte).
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Window size, as in DEFLATE.
const WINDOW: usize = 32_768;
/// Hash-chain search depth.
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

/// Deflate-style compressor (LZ77 parse + Huffman entropy stage).
///
/// # Example
///
/// ```
/// use llm265_bitstream::{ByteCodec, deflate::Deflate};
///
/// let data = b"the quick brown fox jumps over the lazy dog ".repeat(64);
/// let packed = Deflate.compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(Deflate.decompress(&packed).unwrap(), data);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deflate;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    // The shift leaves HASH_BITS significant bits; the mask states that.
    ((v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) & 0x7FFF) as usize
}

struct Parse {
    kinds: Vec<u8>, // 0 = literal, 1 = match
    literals: Vec<u8>,
    lens: Vec<u8>,  // match length - MIN_MATCH
    dists: Vec<u8>, // little-endian u16 per match
}

fn lz77_parse(data: &[u8]) -> Parse {
    let mut parse = Parse {
        kinds: Vec::new(),
        literals: Vec::new(),
        lens: Vec::new(),
        dists: Vec::new(),
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut pos = 0usize;

    while pos < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && pos - cand <= WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - pos).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[pos + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = pos - cand;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[pos] = head[h];
            head[h] = pos;
        }

        // Marginal matches lose after entropy coding: a match costs a kind
        // byte, a length byte and two high-entropy distance bytes, so short
        // matches only pay off at short distances (zlib applies the same
        // kind of lazy heuristic).
        let worthwhile = best_len >= 6
            || (best_len >= 4 && best_dist < 1024)
            || (best_len >= MIN_MATCH && best_dist < 64);
        if worthwhile {
            parse.kinds.push(1);
            // `best_len <= MAX_MATCH` and `best_dist <= WINDOW`, so both
            // masks are value-preserving; they document the field widths.
            parse.lens.push(((best_len - MIN_MATCH) & 0xFF) as u8);
            parse
                .dists
                .extend_from_slice(&((best_dist & 0xFFFF) as u16).to_le_bytes());
            // Register hash entries inside the match (sparsely, for speed).
            let end = pos + best_len;
            let mut p = pos + 1;
            while p + MIN_MATCH <= data.len() && p < end {
                let h = hash3(data, p);
                prev[p] = head[h];
                head[h] = p;
                p += 1;
            }
            pos = end;
        } else {
            parse.kinds.push(0);
            parse.literals.push(data[pos]);
            pos += 1;
        }
    }
    parse
}

fn push_block(out: &mut Vec<u8>, block: &[u8]) {
    // Blocks are per-tensor compressed streams, far below 4 GiB.
    debug_assert!(u32::try_from(block.len()).is_ok());
    bytes::write_le_u32(out, (block.len() & 0xFFFF_FFFF) as u32);
    out.extend_from_slice(block);
}

fn pop_block<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], CodecError> {
    let len: u32 =
        bytes::read_le_u32(data, pos).map_err(|_| CodecError::Truncated("deflate block header"))?;
    let len = len as usize;
    let block = data
        .get(*pos..)
        .and_then(|rest| rest.get(..len))
        .ok_or(CodecError::Truncated("deflate block"))?;
    *pos += len;
    Ok(block)
}

/// Block modes, mirroring DEFLATE's stored / fixed / dynamic choice: the
/// encoder emits whichever of raw, Huffman-only, or LZ77+Huffman is
/// smallest, so incompressible or LZ-hostile data never expands by more
/// than the header.
const MODE_RAW: u8 = 0;
const MODE_HUFFMAN: u8 = 1;
const MODE_LZ77: u8 = 2;

impl ByteCodec for Deflate {
    fn name(&self) -> &'static str {
        "Deflate"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let parse = lz77_parse(data);
        let mut lz = Vec::new();
        push_block(&mut lz, &Huffman.compress(&parse.kinds));
        push_block(&mut lz, &Huffman.compress(&parse.literals));
        push_block(&mut lz, &Huffman.compress(&parse.lens));
        push_block(&mut lz, &Huffman.compress(&parse.dists));
        let huff = Huffman.compress(data);

        let mut out = Vec::new();
        bytes::write_le_u64(&mut out, data.len() as u64);
        if lz.len() <= huff.len() && lz.len() < data.len() {
            out.push(MODE_LZ77);
            out.extend_from_slice(&lz);
        } else if huff.len() < data.len() {
            out.push(MODE_HUFFMAN);
            out.extend_from_slice(&huff);
        } else {
            out.push(MODE_RAW);
            out.extend_from_slice(data);
        }
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut pos = 0usize;
        let n: u64 = bytes::read_le_u64(data, &mut pos)
            .map_err(|_| CodecError::Truncated("deflate header"))?;
        let n = n as usize;
        let mode = *data
            .get(pos)
            .ok_or(CodecError::Truncated("deflate mode byte"))?;
        pos += 1;
        match mode {
            MODE_RAW => {
                let body = data
                    .get(pos..)
                    .and_then(|rest| rest.get(..n))
                    .ok_or(CodecError::Truncated("deflate raw block"))?;
                return Ok(body.to_vec());
            }
            MODE_HUFFMAN => {
                let out = Huffman.decompress(data.get(pos..).unwrap_or(&[]))?;
                if out.len() != n {
                    return Err(CodecError::Corrupt("deflate length mismatch"));
                }
                return Ok(out);
            }
            MODE_LZ77 => {}
            _ => return Err(CodecError::Corrupt("unknown deflate block mode")),
        }
        let kinds = Huffman.decompress(pop_block(data, &mut pos)?)?;
        let literals = Huffman.decompress(pop_block(data, &mut pos)?)?;
        let lens = Huffman.decompress(pop_block(data, &mut pos)?)?;
        let dists = Huffman.decompress(pop_block(data, &mut pos)?)?;

        let mut out = Vec::with_capacity(n.min(1 << 24));
        let (mut li, mut mi) = (0usize, 0usize);
        for &kind in &kinds {
            if kind == 0 {
                let b = *literals
                    .get(li)
                    .ok_or(CodecError::Truncated("deflate literal stream"))?;
                li += 1;
                out.push(b);
            } else {
                let len = usize::from(
                    *lens
                        .get(mi)
                        .ok_or(CodecError::Truncated("deflate length stream"))?,
                ) + MIN_MATCH;
                let mut dpos = mi * 2;
                let dist = usize::from(
                    bytes::read_le_u16(&dists, &mut dpos)
                        .map_err(|_| CodecError::Truncated("deflate distance stream"))?,
                );
                mi += 1;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt("deflate distance out of range"));
                }
                // A declared match must fit the remaining output: without
                // this cap a hostile token stream grows `out` far past `n`
                // before the final length check.
                if len > n.saturating_sub(out.len()) {
                    return Err(CodecError::LimitExceeded("deflate match length"));
                }
                let start = out.len() - dist;
                // Byte-at-a-time so overlapping matches (RLE) replicate.
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
        if out.len() != n {
            return Err(CodecError::Corrupt("deflate length mismatch"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let packed = Deflate.compress(data);
        assert_eq!(Deflate.decompress(&packed).unwrap(), data);
        packed.len()
    }

    #[test]
    fn roundtrip_edges() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"aaaa");
    }

    #[test]
    fn repetitive_text_compresses_hard() {
        let data = b"tensor codec tensor codec tensor codec ".repeat(500);
        let n = roundtrip(&data);
        assert!(n < data.len() / 10, "packed {n} of {}", data.len());
    }

    #[test]
    fn overlapping_match_rle() {
        let n = roundtrip(&[9u8; 50_000]);
        assert!(n < 1200, "packed {n}");
    }

    #[test]
    fn long_matches_are_capped_and_correct() {
        // A run longer than MAX_MATCH must be split into several matches.
        let mut data = b"prefix-".to_vec();
        data.extend_from_slice(&[b'z'; 3 * MAX_MATCH + 17]);
        data.extend_from_slice(b"-suffix");
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_small_overhead() {
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(0x9E3779B9) >> 11) as u8)
            .collect();
        let n = roundtrip(&data);
        assert!(n < data.len() + 4096, "packed {n}");
    }

    #[test]
    fn finds_matches_across_distance() {
        let mut data = Vec::new();
        data.extend_from_slice(b"needle-in-a-haystack");
        data.extend(std::iter::repeat_n(b'.', 20_000));
        data.extend_from_slice(b"needle-in-a-haystack");
        let n = roundtrip(&data);
        // The repeat is inside the window; should compress the second copy.
        assert!(n < data.len() / 8);
    }

    #[test]
    fn corrupt_stream_errors() {
        assert!(Deflate.decompress(&[]).is_err());
        assert!(Deflate.decompress(&[0u8; 8]).is_err());
        // Unknown block mode.
        let mut bad = vec![0u8; 9];
        bad[8] = 99;
        assert!(Deflate.decompress(&bad).is_err());
        // Truncated raw block (claims 5 bytes, carries none).
        let mut raw = 5u64.to_le_bytes().to_vec();
        raw.push(0);
        assert!(Deflate.decompress(&raw).is_err());
        let packed = Deflate.compress(b"hello world hello world hello");
        assert!(Deflate.decompress(&packed[..packed.len() - 3]).is_err());
    }

    #[test]
    fn mode_selection_avoids_expansion() {
        // Pseudorandom bytes: raw mode keeps overhead to the 9-byte header.
        let data: Vec<u8> = (0..4096u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                (z ^ (z >> 27)) as u8
            })
            .collect();
        let packed = Deflate.compress(&data);
        assert!(packed.len() <= data.len() + 9, "packed {}", packed.len());
        assert_eq!(Deflate.decompress(&packed).unwrap(), data);
    }
}
