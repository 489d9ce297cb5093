//! Random access into serialized LLM.265 tensor streams.
//!
//! Every chunk's video stream is a set of one or more independently
//! decodable CTU-row bands behind a byte-offset index, so a reader can
//! decode any band of any chunk from its byte range alone — no other
//! payload bytes are read. [`TensorStreamIndex`] parses a tensor stream's
//! framing (chunk records plus each chunk's video-stream tile index)
//! without decoding anything; [`TensorStreamIndex::decode_tile`] then
//! restores a single band. The full decoder is built on the same index:
//! [`crate::Llm265Codec`] fans every (chunk, tile) over the deterministic
//! [`crate::pool`]. The archive-level counterpart is
//! [`crate::archive::ArchiveIndex`].

use std::ops::Range;

use llm265_bitstream::bytes;
use llm265_tensor::Tensor;
use llm265_videocodec::tile::StreamIndex;
use llm265_videocodec::Frame;

use crate::chunk;
use crate::codec::{CHUNK_HEADER_BYTES, MAGIC};
use crate::CodecError;

/// One chunk's entry in a [`TensorStreamIndex`]: the affine map, the row
/// placement, the chunk stream's absolute byte range and its parsed tile
/// index.
#[derive(Debug, Clone)]
struct ChunkEntry {
    row0: usize,
    rows: usize,
    lo: f32,
    scale: f32,
    /// Absolute byte range of the chunk's video stream.
    stream: Range<usize>,
    /// Tile index parsed from the video stream's header area.
    index: StreamIndex,
}

/// Byte-offset index over one serialized tensor stream: every chunk's
/// video stream and every tile's byte range, parsed without decoding any
/// payload.
#[derive(Debug, Clone)]
pub struct TensorStreamIndex {
    rows: usize,
    cols: usize,
    chunks: Vec<ChunkEntry>,
}

impl TensorStreamIndex {
    /// Parses the framing of a tensor stream produced by
    /// [`crate::Llm265Codec`]: the stream header, every chunk record and
    /// every chunk's tile index. No tile payload is read or decoded.
    ///
    /// # Errors
    ///
    /// The same [`CodecError`]s full decoding reports for a hostile
    /// header or index area: bad magic, shape/count bombs
    /// ([`CodecError::LimitExceeded`]), truncated records, chunks outside
    /// the tensor, chunks that overlap, leave a gap or stop short of the
    /// last row, or a chunk header disagreeing with the tensor shape.
    pub fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        if bytes::read_le_u32(data, &mut pos)? != MAGIC {
            return Err(CodecError::Corrupt("bad tensor-stream magic"));
        }
        let rows = bytes::read_le_u32(data, &mut pos)? as usize;
        let cols = bytes::read_le_u32(data, &mut pos)? as usize;
        let n_chunks = bytes::read_le_u32(data, &mut pos)? as usize;
        if rows.checked_mul(cols).is_none_or(|n| n > (1 << 31)) {
            return Err(CodecError::LimitExceeded("tensor shape"));
        }
        if n_chunks > data.len() / CHUNK_HEADER_BYTES {
            return Err(CodecError::LimitExceeded("tensor chunk count"));
        }
        // Growth is bounded by the actual stream length (the guard above),
        // not the attacker-controlled declared count.
        let mut chunks = Vec::with_capacity(n_chunks);
        // Chunks tile the tensor top to bottom with no gap or overlap; any
        // other placement would decode to a plausible wrong tensor.
        let mut next_row = 0usize;
        for _ in 0..n_chunks {
            let row0 = bytes::read_le_u32(data, &mut pos)? as usize;
            let c_rows = bytes::read_le_u32(data, &mut pos)? as usize;
            let lo = f32::from_bits(bytes::read_le_u32(data, &mut pos)?);
            let scale = f32::from_bits(bytes::read_le_u32(data, &mut pos)?);
            let len = bytes::read_le_u32(data, &mut pos)? as usize;
            let stream_bytes = data
                .get(pos..)
                .and_then(|rest| rest.get(..len))
                .ok_or(CodecError::Truncated("chunk payload"))?;
            let stream = pos..pos + len;
            pos += len;
            if row0 + c_rows > rows {
                return Err(CodecError::Corrupt("chunk exceeds tensor rows"));
            }
            if row0 != next_row {
                return Err(CodecError::Corrupt("chunk rows not contiguous"));
            }
            next_row = row0 + c_rows;
            let index = StreamIndex::parse(stream_bytes)?;
            if index.frame_size() != (cols, c_rows) {
                return Err(CodecError::Corrupt("chunk frame size mismatch"));
            }
            chunks.push(ChunkEntry {
                row0,
                rows: c_rows,
                lo,
                scale,
                stream,
                index,
            });
        }
        if next_row != rows {
            return Err(CodecError::Corrupt("chunks do not cover the tensor"));
        }
        Ok(TensorStreamIndex { rows, cols, chunks })
    }

    /// Tensor shape `(rows, cols)` declared by the stream header.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of independently decodable tiles in `chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= n_chunks()`.
    pub fn n_tiles(&self, chunk: usize) -> usize {
        self.chunks[chunk].index.n_tiles()
    }

    /// Total (chunk, tile) pairs — the parallel decode's task count.
    pub fn total_tiles(&self) -> usize {
        self.chunks.iter().map(|c| c.index.n_tiles()).sum()
    }

    /// Absolute byte range of one tile within the tensor stream — besides
    /// the framing this index already parsed, these are the only bytes
    /// [`Self::decode_tile`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `tile` is out of range.
    pub fn tile_range(&self, chunk: usize, tile: usize) -> Range<usize> {
        let c = &self.chunks[chunk];
        let r = c.index.tile_range(tile);
        c.stream.start + r.start..c.stream.start + r.end
    }

    /// The tensor rows one tile covers: `(row0, rows)` in absolute tensor
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `tile` is out of range.
    pub fn tile_rows(&self, chunk: usize, tile: usize) -> (usize, usize) {
        let c = &self.chunks[chunk];
        let (band_row0, rows) = c.index.band_rows(tile);
        (c.row0 + band_row0, rows)
    }

    /// Chunk `chunk`'s row placement `(row0, rows)` in tensor
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= n_chunks()`.
    pub fn chunk_rows(&self, chunk: usize) -> (usize, usize) {
        let c = &self.chunks[chunk];
        (c.row0, c.rows)
    }

    /// Chunk `chunk`'s affine map `(lo, scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= n_chunks()`.
    pub(crate) fn chunk_affine(&self, chunk: usize) -> (f32, f32) {
        let c = &self.chunks[chunk];
        (c.lo, c.scale)
    }

    /// Looks a tile up and decodes its pixel band (cropped to real chunk
    /// pixels). Shared by the pooled full decode and [`Self::decode_tile`].
    fn tile_band(
        &self,
        data: &[u8],
        chunk: usize,
        tile: usize,
    ) -> Result<(&ChunkEntry, Frame), CodecError> {
        let c = self
            .chunks
            .get(chunk)
            .ok_or_else(|| CodecError::InvalidInput(format!("chunk {chunk} out of range")))?;
        let stream = data
            .get(c.stream.clone())
            .ok_or(CodecError::Truncated("chunk stream"))?;
        Ok((c, c.index.decode_tile(stream, tile)?))
    }

    /// Decodes one tile's pixels. `data` must be the same stream this
    /// index was parsed from.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidInput`] for an out-of-range chunk or tile,
    /// [`CodecError::Truncated`] if the stream no longer covers the
    /// tile's byte range, or any payload decode error.
    pub(crate) fn decode_tile_frame(
        &self,
        data: &[u8],
        chunk: usize,
        tile: usize,
    ) -> Result<Frame, CodecError> {
        self.tile_band(data, chunk, tile).map(|(_, f)| f)
    }

    /// Random access: decodes just one tile's byte range and restores the
    /// values through its chunk's affine map. Returns the band as a
    /// `rows × cols` tensor whose first row is tensor row
    /// `tile_rows(chunk, tile).0`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode_tile_frame`].
    pub fn decode_tile(
        &self,
        data: &[u8],
        chunk: usize,
        tile: usize,
    ) -> Result<Tensor, CodecError> {
        let (c, frame) = self.tile_band(data, chunk, tile)?;
        // The band's dimensions were pinned against the chunk record at
        // parse time, but this function sizes an allocation from them,
        // so bound them again at the consumer (same cap as the video
        // decoder's frame-dimension limit).
        if frame.height().saturating_mul(frame.width()) > 1 << 28 {
            return Err(CodecError::LimitExceeded("tile dimensions"));
        }
        let mut out = Tensor::zeros(frame.height(), frame.width());
        chunk::dequantize_into(&mut out, &frame, 0, c.lo, c.scale);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Llm265Codec, Llm265Config, RateTarget, TensorCodec};
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{llm_weight, WeightProfile};

    fn weight(seed: u64, n: usize) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        llm_weight(n, n, &WeightProfile::default(), &mut rng)
    }

    #[test]
    fn index_maps_every_tile_to_a_disjoint_in_bounds_range() {
        let t = weight(11, 96);
        let codec = Llm265Codec::with_config(Llm265Config {
            max_chunk_pixels: 96 * 64,
            threads: 1,
            ..Llm265Config::default()
        });
        let enc = codec.encode(&t, RateTarget::Qp(24.0)).unwrap();
        let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
        assert_eq!(index.shape(), (96, 96));
        assert_eq!(index.n_chunks(), 2);
        // 64-row chunks at CTU 32 → 2 CTU rows → 2 tiles (the default
        // eight clamps).
        assert_eq!(index.n_tiles(0), 2);
        let mut covered_rows = 0usize;
        let mut last_end = 0usize;
        for c in 0..index.n_chunks() {
            for ti in 0..index.n_tiles(c) {
                let r = index.tile_range(c, ti);
                assert!(r.start >= last_end, "tile ranges must not overlap");
                assert!(r.end <= enc.bytes().len());
                last_end = r.end;
                covered_rows += index.tile_rows(c, ti).1;
            }
        }
        assert_eq!(covered_rows, 96);
    }

    #[test]
    fn decode_tile_reads_only_its_own_byte_range() {
        // A 64-row chunk has two tiles; a 24-row chunk (one CTU row) has
        // one, whose index entry must still cover its whole payload.
        for (n, tiles) in [(64, 2), (24, 1)] {
            decode_tile_matches_full_decode(weight(12, n), tiles);
        }
    }

    fn decode_tile_matches_full_decode(t: Tensor, tiles: usize) {
        let n = t.cols();
        let codec = Llm265Codec::with_config(Llm265Config {
            threads: 1,
            ..Llm265Config::default()
        });
        let enc = codec.encode(&t, RateTarget::Qp(22.0)).unwrap();
        let full = codec.decode(&enc).unwrap();
        let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
        assert_eq!(index.total_tiles(), tiles);
        for c in 0..index.n_chunks() {
            let last = index.n_tiles(c) - 1;
            assert_eq!(index.tile_range(c, last).end, index.chunks[c].stream.end);
            for ti in 0..index.n_tiles(c) {
                // Corrupt every byte of every *other* tile: random access
                // must not notice.
                let mut vandalized = enc.bytes().to_vec();
                for c2 in 0..index.n_chunks() {
                    for t2 in 0..index.n_tiles(c2) {
                        if (c2, t2) != (c, ti) {
                            for b in &mut vandalized[index.tile_range(c2, t2)] {
                                *b ^= 0xA5;
                            }
                        }
                    }
                }
                let band = index.decode_tile(&vandalized, c, ti).unwrap();
                let (row0, rows) = index.tile_rows(c, ti);
                assert_eq!(band.shape(), (rows, n));
                for y in 0..rows {
                    for x in 0..n {
                        assert_eq!(band[(y, x)], full[(row0 + y, x)], "({y}, {x})");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_lookups_error_without_panicking() {
        let t = weight(13, 48);
        let codec = Llm265Codec::with_config(Llm265Config {
            threads: 1,
            ..Llm265Config::default()
        });
        let enc = codec.encode(&t, RateTarget::Qp(26.0)).unwrap();
        let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
        assert!(matches!(
            index.decode_tile(enc.bytes(), 99, 0),
            Err(CodecError::InvalidInput(_))
        ));
        assert!(matches!(
            index.decode_tile(enc.bytes(), 0, 99),
            Err(CodecError::InvalidInput(_))
        ));
        // A stream truncated after indexing: the range no longer resolves.
        let cut = &enc.bytes()[..enc.bytes().len() - 4];
        assert!(index.decode_tile(cut, 0, index.n_tiles(0) - 1).is_err());
    }
}
