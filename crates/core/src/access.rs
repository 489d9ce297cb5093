//! Random access into serialized LLM.265 tensor streams.
//!
//! Every chunk is a set of one or more independently decodable CTU-row
//! bands, and the tensor header fixes every band's rows and every tile's
//! byte range, so a reader can decode any band of any chunk from its byte
//! range and its chunk's record. [`TensorStreamIndex`] parses a tensor
//! stream's framing (the header plus every chunk record, as the crate
//! docs describe) without reading any payload;
//! [`TensorStreamIndex::decode_tile`] then checks the one chunk record's
//! CRC-32 and restores a single band. The
//! full decoder is built on the same index: [`crate::Llm265Codec`] fans
//! every (chunk, tile) over the deterministic [`crate::pool`]. The
//! archive-level counterpart is [`crate::archive::ArchiveIndex`].

use std::ops::Range;

use llm265_bitstream::crc32::Crc32;
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
    /// The tensor header's CRC-32 state, which every record's checksum
    /// continues.
    header_crc: Crc32,
    /// Per chunk: its tile geometry and its parsed record.
    chunks: Vec<(TileLayout, ChunkRecord)>,
}

impl TensorStreamIndex {
    /// Parses the framing of a tensor stream produced by
    /// [`crate::Llm265Codec`]: the tensor header and every chunk record.
    /// No tile payload is read or decoded, so no checksum is verified
    /// yet: [`Self::decode_tile`] and full decoding verify the chunks
    /// they decode.
    ///
    /// # Errors
    ///
    /// The same [`CodecError`]s full decoding reports for hostile
    /// framing: bad magic, another version or reserved bits, shape,
    /// frame-size and chunk-count bombs ([`CodecError::LimitExceeded`]),
    /// `rows_per_chunk` outside `1..=rows`, zero-length tiles, truncated
    /// records, and bytes left over after the last record.
    pub fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let header = framing::parse_tensor_header(data, &mut pos)?;
        // Hashed once; every record's checksum continues this state.
        let header_crc = Crc32::new().update(data.get(..pos).unwrap_or_default());
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
        Ok(TensorStreamIndex {
            header,
            header_crc,
            chunks,
        })
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

    /// Verifies chunk `chunk`'s checksum: the CRC-32 of the tensor header
    /// and that chunk's record, read from `data`, the stream this index
    /// was parsed from. No other chunk's bytes are read.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidInput`] for an out-of-range chunk,
    /// [`CodecError::Truncated`] if `data` no longer covers the record,
    /// [`CodecError::Corrupt`] on a mismatch.
    pub(crate) fn verify_chunk(&self, data: &[u8], chunk: usize) -> Result<(), CodecError> {
        let (_, record) = self
            .chunks
            .get(chunk)
            .ok_or_else(|| CodecError::InvalidInput(format!("chunk {chunk} out of range")))?;
        record.checksum.verify(data, self.header_crc)
    }

    /// Decodes one tile's pixels (cropped to real chunk pixels) without
    /// verifying its chunk. `data` must be the same stream this index was
    /// parsed from.
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

    /// Random access: verifies the tile's chunk record against its
    /// checksum, then decodes just the tile's byte range and restores the
    /// values through the chunk's affine map. Returns the band as a
    /// `rows × cols` tensor whose first row is tensor row
    /// `tile_rows(chunk, tile).0`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when the chunk fails its checksum, else
    /// the same as [`Self::decode_tile_frame`].
    pub fn decode_tile(
        &self,
        data: &[u8],
        chunk: usize,
        tile: usize,
    ) -> Result<Tensor, CodecError> {
        self.verify_chunk(data, chunk)?;
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

    /// Random access reads the header and its chunk's record, nothing
    /// else: vandalizing every other chunk goes unnoticed, while a flip in
    /// another tile of the same chunk fails that chunk's checksum.
    #[test]
    fn decode_tile_reads_only_its_own_chunk() {
        // 128 rows in 64-row chunks: two chunks of two tiles. A 24-row
        // tensor is one chunk of one tile (one CTU row), whose index entry
        // must still cover its whole payload.
        for (rows, max_chunk_pixels, tiles) in [(128, 64 * 64, 2), (24, 1 << 16, 1)] {
            let mut rng = Pcg32::seed_from(12);
            let t = llm_weight(rows, 64, &WeightProfile::default(), &mut rng);
            let codec = Llm265Codec::with_config(Llm265Config {
                max_chunk_pixels,
                threads: 1,
                ..Llm265Config::default()
            });
            let enc = codec.encode(&t, RateTarget::Qp(22.0)).unwrap();
            let full = codec.decode(&enc).unwrap();
            let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
            // A record's bytes, its checksum included.
            let record = |c: usize| {
                let r = &index.chunks[c].1.checksum.record;
                r.start..r.end + 4
            };
            assert_eq!(record(index.n_chunks() - 1).end, enc.bytes().len());
            for c in 0..index.n_chunks() {
                assert_eq!(index.n_tiles(c), tiles);
                for ti in 0..tiles {
                    let mut vandalized = enc.bytes().to_vec();
                    for c2 in (0..index.n_chunks()).filter(|&c2| c2 != c) {
                        for b in &mut vandalized[record(c2)] {
                            *b ^= 0xA5;
                        }
                    }
                    let band = index.decode_tile(&vandalized, c, ti).unwrap();
                    let (row0, rows) = index.tile_rows(c, ti);
                    assert_eq!(band.shape(), (rows, 64));
                    assert_eq!(band.data(), &full.data()[row0 * 64..(row0 + rows) * 64]);
                    if tiles > 1 {
                        vandalized[index.tile_range(c, 1 - ti).start] ^= 1;
                        assert!(matches!(
                            index.decode_tile(&vandalized, c, ti),
                            Err(CodecError::Corrupt("checksum mismatch"))
                        ));
                    }
                }
            }
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
        let last = index.tile_range(0, index.n_tiles(0) - 1);
        let cut = &enc.bytes()[..last.end - 4];
        assert!(index.decode_tile(cut, 0, index.n_tiles(0) - 1).is_err());
    }
}
