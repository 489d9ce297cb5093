//! Random access into serialized LLM.265 tensor streams.
//!
//! Every chunk is a set of one or more independently decodable CTU-row
//! bands, and the tensor header fixes every band's rows and every tile's
//! byte range, so a reader can decode any band of any chunk from its byte
//! range alone — no other payload bytes are read. [`TensorStreamIndex`]
//! parses a tensor stream's framing (the header plus every chunk record,
//! as the crate docs describe) without decoding anything;
//! [`TensorStreamIndex::decode_tile`] then restores a single band. The
//! full decoder is built on the same index: [`crate::Llm265Codec`] fans
//! every (chunk, tile) over the deterministic [`crate::pool`]. The
//! archive-level counterpart is [`crate::archive::ArchiveIndex`].

use std::ops::Range;

use llm265_tensor::Tensor;
use llm265_videocodec::tile::{self, TileLayout};
use llm265_videocodec::Frame;

use crate::chunk;
use crate::framing::{self, ChunkRecord, TensorHeader};
use crate::CodecError;

/// Byte-offset index over one serialized tensor stream: the one coding
/// configuration, and every chunk's affine map and tile byte ranges,
/// parsed without decoding any payload.
#[derive(Debug, Clone)]
pub struct TensorStreamIndex {
    header: TensorHeader,
    /// Per chunk: its tile geometry and its parsed record.
    chunks: Vec<(TileLayout, ChunkRecord)>,
}

impl TensorStreamIndex {
    /// Parses the framing of a tensor stream produced by
    /// [`crate::Llm265Codec`]: the tensor header and every chunk record.
    /// No tile payload is read or decoded.
    ///
    /// # Errors
    ///
    /// The same [`CodecError`]s full decoding reports for hostile
    /// framing: bad magic, another version or reserved bits, shape,
    /// frame-size and chunk-count bombs ([`CodecError::LimitExceeded`]),
    /// `rows_per_chunk` outside `1..=rows`, zero-length tiles, truncated
    /// records, and bytes left over after the last tile.
    pub fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let header = framing::parse_tensor_header(data, &mut pos)?;
        // Bounded by the stream length inside the header parse.
        let mut chunks = Vec::with_capacity(header.n_chunks());
        for i in 0..header.n_chunks() {
            let layout = header.layout(i);
            let record = framing::parse_chunk_record(data, &mut pos, layout.n_tiles())?;
            chunks.push((layout, record));
        }
        if pos != data.len() {
            return Err(CodecError::Corrupt("bytes after the last tile"));
        }
        Ok(TensorStreamIndex { header, chunks })
    }

    /// Tensor shape `(rows, cols)` declared by the stream header.
    pub fn shape(&self) -> (usize, usize) {
        (self.header.rows, self.header.cols)
    }

    /// The QP every tile was coded at, as the header states it (QP × 256,
    /// so on the 1/256 grid).
    pub fn qp(&self) -> f64 {
        self.header.cfg.qp
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
        self.chunks[chunk].0.n_tiles()
    }

    /// Total (chunk, tile) pairs — the parallel decode's task count.
    pub fn total_tiles(&self) -> usize {
        self.chunks.iter().map(|(l, _)| l.n_tiles()).sum()
    }

    /// Absolute byte range of one tile within the tensor stream — besides
    /// the framing this index already parsed, these are the only bytes
    /// [`Self::decode_tile`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `tile` is out of range.
    pub fn tile_range(&self, chunk: usize, tile: usize) -> Range<usize> {
        self.chunks[chunk].1.tiles[tile].clone()
    }

    /// The tensor rows one tile covers: `(row0, rows)` in absolute tensor
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `tile` is out of range.
    pub fn tile_rows(&self, chunk: usize, tile: usize) -> (usize, usize) {
        let (band_row0, rows) = self.chunks[chunk].0.band_rows(tile);
        (self.chunk_rows(chunk).0 + band_row0, rows)
    }

    /// Chunk `chunk`'s row placement `(row0, rows)` in tensor
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= n_chunks()`.
    pub fn chunk_rows(&self, chunk: usize) -> (usize, usize) {
        assert!(chunk < self.chunks.len(), "chunk {chunk} out of range");
        self.header.chunk_rows(chunk)
    }

    /// Chunk `chunk`'s affine map `(lo, scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= n_chunks()`.
    pub(crate) fn chunk_affine(&self, chunk: usize) -> (f32, f32) {
        let r = &self.chunks[chunk].1;
        (r.lo, r.scale)
    }

    /// Decodes one tile's pixels (cropped to real chunk pixels). `data`
    /// must be the same stream this index was parsed from.
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
        let (layout, record) = self
            .chunks
            .get(chunk)
            .ok_or_else(|| CodecError::InvalidInput(format!("chunk {chunk} out of range")))?;
        let range = record
            .tiles
            .get(tile)
            .ok_or_else(|| CodecError::InvalidInput(format!("tile {tile} out of range")))?;
        let payload = data
            .get(range.clone())
            .ok_or(CodecError::Truncated("tile payload"))?;
        tile::decode_tile(payload, &self.header.cfg, layout, tile)
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
        let frame = self.decode_tile_frame(data, chunk, tile)?;
        let (lo, scale) = self.chunk_affine(chunk);
        let mut out = Tensor::zeros(frame.height(), frame.width());
        chunk::dequantize_into(&mut out, &frame, 0, lo, scale);
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

    fn codec() -> Llm265Codec {
        Llm265Codec::with_config(Llm265Config {
            threads: 1,
            ..Llm265Config::default()
        })
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
        let codec = codec();
        let enc = codec.encode(&t, RateTarget::Qp(22.0)).unwrap();
        let full = codec.decode(&enc).unwrap();
        let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
        assert_eq!(index.total_tiles(), tiles);
        // One chunk: its last tile ends the stream.
        assert_eq!(index.tile_range(0, tiles - 1).end, enc.bytes().len());
        for ti in 0..tiles {
            // Corrupt every byte of every *other* tile: random access
            // must not notice.
            let mut vandalized = enc.bytes().to_vec();
            for t2 in (0..tiles).filter(|&t2| t2 != ti) {
                for b in &mut vandalized[index.tile_range(0, t2)] {
                    *b ^= 0xA5;
                }
            }
            let band = index.decode_tile(&vandalized, 0, ti).unwrap();
            let (row0, rows) = index.tile_rows(0, ti);
            assert_eq!(band.shape(), (rows, n));
            assert_eq!(band.data(), &full.data()[row0 * n..(row0 + rows) * n]);
        }
    }

    #[test]
    fn out_of_range_lookups_error_without_panicking() {
        let enc = codec()
            .encode(&weight(13, 48), RateTarget::Qp(26.0))
            .unwrap();
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
