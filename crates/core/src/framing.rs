//! The tensor-stream wire format (version 5): the only code that writes
//! or reads it.
//!
//! A tensor stream is one 22-byte **tensor header** followed by one
//! **chunk record** per chunk, top to bottom (all fields little-endian):
//!
//! | tensor header     | bytes | chunk record         | bytes     |
//! |-------------------|-------|----------------------|-----------|
//! | magic `LT65`      | 4     | `lo` (f32 bits)      | 4         |
//! | version (5)       | 1     | `scale` (f32 bits)   | 4         |
//! | profile id        | 1     | one length per tile  | 4 each    |
//! | pipeline switches | 1     | tile payloads        | Σ lengths |
//! | flags (reserved)  | 1     | CRC-32               | 4         |
//! | QP × 256          | 2     |                      |           |
//! | rows              | 4     |                      |           |
//! | cols              | 4     |                      |           |
//! | rows per chunk    | 4     |                      |           |
//!
//! Profile through QP are the coding fields and the lengths plus
//! payloads are the tile table, both written and read by `videocodec`
//! ([`write_coding_fields`] / [`parse_coding_fields`],
//! [`tile::write_tiles`] / [`tile::parse_tiles`]) exactly as in video
//! streams.
//!
//! Each record ends with the CRC-32 of the tensor header followed by the
//! record up to the checksum ([`tile::write_checksum`]). The header is
//! hashed once and its state continued per record, so checking a chunk
//! reads only the header and that record; a byte flipped anywhere in
//! either fails the check instead of decoding to a wrong tensor. The
//! parser reads each checksum after the record's structure, and readers
//! verify a chunk before decoding it.
//!
//! Everything else is derived — chunk rows by [`chunk::band`], tile
//! counts by [`TileLayout::for_frame`] with [`TILES_PER_CHUNK`], tile
//! offsets as prefix sums of the lengths — so no two fields can disagree
//! and the parser only validates what comes from outside.
//!
//! Every flag bit is reserved: writers write 0, and the parser refuses a
//! set bit as `Unsupported`.

use std::ops::Range;

use llm265_bitstream::bytes;
use llm265_bitstream::crc32::Crc32;
use llm265_videocodec::decoder::parse_coding_fields;
use llm265_videocodec::encoder::write_coding_fields;
use llm265_videocodec::tile::{self, wire_u32, Checksum, TileLayout};
use llm265_videocodec::CodecConfig;

use crate::chunk;
use crate::CodecError;

const MAGIC: u32 = 0x4C54_3635; // "LT65"

/// The only version the parser accepts.
const VERSION: u8 = 5;

/// Smallest chunk record: `lo`, `scale`, one length, a one-byte tile and
/// the checksum. Bounds the chunk count a header may declare by the
/// stream's length.
pub(crate) const MIN_CHUNK_RECORD_BYTES: usize = 17;

/// Tiles requested per chunk frame, clamped to the chunk's CTU-row count:
/// eight CTU-row bands give intra-chunk parallel decode headroom at a
/// fraction of a percent of stream size. A format constant and pure
/// geometry — never the thread count — so streams are bit-identical at
/// every thread count.
pub(crate) const TILES_PER_CHUNK: usize = 8;

/// A tensor header: the coding configuration (`tiles` is
/// [`TILES_PER_CHUNK`]) and the geometry, each stated once.
#[derive(Debug, Clone)]
pub(crate) struct TensorHeader {
    pub cfg: CodecConfig,
    pub rows: usize,
    pub cols: usize,
    /// Rows of every chunk but the last, which takes the remainder.
    pub rows_per_chunk: usize,
}

impl TensorHeader {
    /// Number of chunk records that follow the header.
    pub fn n_chunks(&self) -> usize {
        self.rows.div_ceil(self.rows_per_chunk)
    }

    /// Chunk `i`'s rows `(row0, rows)` in tensor coordinates.
    pub fn chunk_rows(&self, i: usize) -> (usize, usize) {
        chunk::band(i, self.rows, self.rows_per_chunk)
    }

    /// Chunk `i`'s tile geometry.
    pub fn layout(&self, i: usize) -> TileLayout {
        let rows = self.chunk_rows(i).1;
        TileLayout::for_frame(self.cols, rows, self.cfg.profile.ctu(), TILES_PER_CHUNK)
    }
}

/// One parsed chunk record: the affine map, every tile's absolute byte
/// range in the stream and the record's checksum.
#[derive(Debug, Clone)]
pub(crate) struct ChunkRecord {
    pub lo: f32,
    pub scale: f32,
    pub tiles: Vec<Range<usize>>,
    pub checksum: Checksum,
}

/// Appends the tensor header — the exact mirror of
/// [`parse_tensor_header`]. Fails when a dimension overflows its field.
pub(crate) fn write_tensor_header(out: &mut Vec<u8>, h: &TensorHeader) -> Result<(), CodecError> {
    bytes::write_le_u32(out, MAGIC);
    bytes::write_u8(out, VERSION);
    write_coding_fields(out, &h.cfg);
    bytes::write_le_u32(out, wire_u32(h.rows, "tensor rows")?);
    bytes::write_le_u32(out, wire_u32(h.cols, "tensor cols")?);
    bytes::write_le_u32(out, wire_u32(h.rows_per_chunk, "rows per chunk")?);
    Ok(())
}

/// Parses and validates the tensor header at `*pos`, advancing `pos`
/// past it. `data` is the whole stream, so the declared chunk count is
/// bounded by its length before anything is allocated from it.
///
/// # Errors
///
/// `Corrupt` for a bad magic, a zero width or `rows_per_chunk` outside
/// `1..=rows`; `Unsupported` for another version or a reserved bit;
/// `LimitExceeded` for shape, frame-size and chunk-count bombs;
/// `Truncated` for a short header.
pub(crate) fn parse_tensor_header(
    data: &[u8],
    pos: &mut usize,
) -> Result<TensorHeader, CodecError> {
    if bytes::read_le_u32(data, pos)? != MAGIC {
        return Err(CodecError::Corrupt("bad tensor-stream magic"));
    }
    let version = bytes::read_u8(data, pos)?;
    if version != VERSION {
        return Err(CodecError::Unsupported("tensor-stream version"));
    }
    let cfg = parse_coding_fields(data, pos)?.with_tiles(TILES_PER_CHUNK);
    let rows = bytes::read_le_u32(data, pos)? as usize;
    let cols = bytes::read_le_u32(data, pos)? as usize;
    let rows_per_chunk = bytes::read_le_u32(data, pos)? as usize;
    if rows.checked_mul(cols).is_none_or(|n| n > 1 << 31) {
        return Err(CodecError::LimitExceeded("tensor shape"));
    }
    if cols == 0 {
        return Err(CodecError::Corrupt("zero tensor width"));
    }
    if rows_per_chunk == 0 || rows_per_chunk > rows {
        return Err(CodecError::Corrupt("rows per chunk out of range"));
    }
    // A chunk frame has the video decoder's frame-size cap.
    if rows_per_chunk.saturating_mul(cols) > 1 << 28 {
        return Err(CodecError::LimitExceeded("frame dimensions"));
    }
    let header = TensorHeader {
        cfg,
        rows,
        cols,
        rows_per_chunk,
    };
    if header.n_chunks() > data.len().saturating_sub(*pos) / MIN_CHUNK_RECORD_BYTES {
        return Err(CodecError::LimitExceeded("tensor chunk count"));
    }
    Ok(header)
}

/// Appends one chunk record — the exact mirror of [`parse_chunk_record`]:
/// the affine map, the chunk's tile table ([`tile::write_tiles`]), then
/// the checksum of the tensor header (`header`, its hashed state) and the
/// record ([`tile::write_checksum`]). Fails when a tile overflows its
/// length field.
pub(crate) fn write_chunk_record(
    out: &mut Vec<u8>,
    header: Crc32,
    lo: f32,
    scale: f32,
    tiles: &[Vec<u8>],
) -> Result<(), CodecError> {
    let start = out.len();
    bytes::write_le_u32(out, lo.to_bits());
    bytes::write_le_u32(out, scale.to_bits());
    tile::write_tiles(out, tiles)?;
    tile::write_checksum(out, header, start);
    Ok(())
}

/// Parses the chunk record at `*pos` for a chunk of `n_tiles` tiles,
/// advancing `pos` past its checksum; no payload byte is read. The tile
/// table's errors are [`tile::parse_tiles`]'s. The checksum is only
/// read here: a reader verifies a chunk ([`tile::Checksum::verify`])
/// once the whole stream's structure has parsed, and only the chunks it
/// decodes.
pub(crate) fn parse_chunk_record(
    data: &[u8],
    pos: &mut usize,
    n_tiles: usize,
) -> Result<ChunkRecord, CodecError> {
    let start = *pos;
    let lo = f32::from_bits(bytes::read_le_u32(data, pos)?);
    let scale = f32::from_bits(bytes::read_le_u32(data, pos)?);
    let tiles = tile::parse_tiles(data, pos, n_tiles)?;
    let checksum = tile::parse_checksum(data, pos, start)?;
    Ok(ChunkRecord {
        lo,
        scale,
        tiles,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use crate::{Llm265Codec, RateTarget, TensorCodec, TensorStreamIndex};
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::synthetic::{llm_weight, WeightProfile};

    /// Framing — stream bytes that are not tile payload — is the 22-byte
    /// header plus, for each chunk, 8 bytes of affine map, 4 per tile and
    /// a 4-byte checksum: a 128×64 KV block is one four-tile chunk
    /// (50 B), a 64×64 weight one two-tile chunk (42 B).
    #[test]
    fn framing_is_50_bytes_on_a_kv_block_and_42_on_64x64() {
        for (rows, cols, bits, framing) in [(128, 64, 2.9, 50), (64, 64, 3.0, 42)] {
            let t = llm_weight(
                rows,
                cols,
                &WeightProfile::default(),
                &mut Pcg32::seed_from(1),
            );
            let enc = Llm265Codec::new()
                .encode(&t, RateTarget::BitsPerValue(bits))
                .unwrap();
            let index = TensorStreamIndex::parse(enc.bytes()).unwrap();
            let payload: usize = (0..index.n_tiles(0))
                .map(|t| index.tile_range(0, t).len())
                .sum();
            assert_eq!(enc.bytes().len() - payload, framing, "{rows}x{cols}");
        }
    }
}
