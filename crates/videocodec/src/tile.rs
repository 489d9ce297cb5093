//! Tiled bitstream layout: independently decodable CTU-row bands.
//!
//! Every frame is split into N ≥ 1 horizontal **tiles** (whole CTU rows
//! each). Each tile is encoded exactly like a standalone mini-frame —
//! fresh entropy coder, fresh context models, no intra prediction across
//! the tile boundary (the band's top row behaves like a frame top) — so
//! any tile decodes without touching the others. Both stream kinds
//! state the tile count once in their header (a video stream's tile
//! count, a tensor stream's chunk geometry) and frame the tiles with one
//! **tile table** ([`write_tiles`] / [`parse_tiles`]): one `u32` length
//! per tile, then the concatenated payloads. Offsets are prefix sums of
//! the lengths, so there is nothing to cross-check. A checksum
//! ([`write_checksum`] / [`parse_checksum`]) ends each video frame and
//! each tensor chunk record. This buys three things:
//!
//! * **intra-frame parallel decode** — `llm265-core` fans (chunk, tile)
//!   tasks over its deterministic pool, so one huge chunk no longer pins
//!   one thread;
//! * **random access** — [`decode_tile`] decodes one tile's payload on
//!   its own, given only the coding config and the frame's layout;
//! * the CTU-row wavefront later (per-row context checkpoints need the
//!   per-band context init this layout introduces).
//!
//! The tile count is **pure geometry**: it derives from the requested
//! [`crate::CodecConfig::tiles`] knob and the frame's CTU-row count,
//! never from how many threads happen to run, so streams stay
//! bit-identical at every thread count; see DESIGN.md ("Tiled
//! bitstream").

use std::ops::Range;

use llm265_bitstream::bytes;
use llm265_bitstream::crc32::Crc32;

use crate::decoder::decode_frame;
use crate::encoder::{encode_frame, CuShape};
use crate::transform::DctPlans;
use crate::{CodecConfig, CodecError, Frame};

/// Hard cap on tiles per frame; a video header codes the count as `u16`
/// and a hostile count beyond this is rejected before any allocation.
pub const MAX_TILES: usize = 1024;

/// Splits `ctu_rows` CTU rows into `n_tiles` contiguous bands, earlier
/// bands taking the remainder: band `i` gets `base + 1` rows when
/// `i < ctu_rows % n_tiles`. Returns the per-band CTU-row counts.
///
/// `n_tiles` carries a `ranges.toml` contract (`1..=1024`, i.e.
/// [`MAX_TILES`]) and must not exceed `ctu_rows`; [`TileLayout::for_frame`]
/// proves both by clamping.
fn split_ctu_rows(ctu_rows: usize, n_tiles: usize) -> Vec<usize> {
    debug_assert!((1..=MAX_TILES).contains(&n_tiles));
    debug_assert!(
        n_tiles <= ctu_rows,
        "{n_tiles} tiles for {ctu_rows} CTU rows"
    );
    let base = ctu_rows / n_tiles;
    let rem = ctu_rows % n_tiles;
    (0..n_tiles).map(|i| base + usize::from(i < rem)).collect()
}

/// The tile geometry of one frame: contiguous horizontal bands of whole
/// CTU rows covering the padded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayout {
    /// Unpadded frame width.
    w: usize,
    /// Unpadded frame height.
    h: usize,
    /// CTU size the frame is padded to.
    ctu: usize,
    /// Per-band heights in pixels (multiples of `ctu`); they sum to the
    /// padded frame height.
    bands: Vec<usize>,
}

impl TileLayout {
    /// Builds the layout for a `w × h` frame at CTU size `ctu`,
    /// requesting `requested` tiles. The count is clamped to
    /// `[1, min(ctu_rows, MAX_TILES)]`, so every band holds at least one
    /// CTU row and intersects at least one real (unpadded) row.
    ///
    /// # Panics
    ///
    /// Panics if `w`, `h` or `ctu` is zero.
    pub fn for_frame(w: usize, h: usize, ctu: usize, requested: usize) -> TileLayout {
        assert!(w > 0 && h > 0 && ctu > 0, "empty frame or CTU");
        let ctu_rows = h.div_ceil(ctu);
        let n_tiles = requested.clamp(1, ctu_rows.min(MAX_TILES));
        let bands = split_ctu_rows(ctu_rows, n_tiles)
            .into_iter()
            .map(|r| r * ctu)
            .collect();
        TileLayout { w, h, ctu, bands }
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.bands.len()
    }

    /// CTUs of the padded frame, over all tiles.
    pub fn ctus(&self) -> usize {
        self.padded_width() / self.ctu * (self.bands.iter().sum::<usize>() / self.ctu)
    }

    /// Padded frame width (what each decoded band is wide).
    pub fn padded_width(&self) -> usize {
        self.w.div_ceil(self.ctu) * self.ctu
    }

    /// Band `i` in padded coordinates: `(y0, height)`, both multiples of
    /// the CTU size.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_tiles()`.
    pub fn band(&self, i: usize) -> (usize, usize) {
        let y0: usize = self.bands[..i].iter().sum();
        (y0, self.bands[i])
    }

    /// Band `i` clipped to real frame rows: `(row0, rows)` in unpadded
    /// coordinates. Every band intersects at least one real row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_tiles()`.
    pub fn band_rows(&self, i: usize) -> (usize, usize) {
        let (y0, band_h) = self.band(i);
        (y0, band_h.min(self.h - y0))
    }
}

/// Copies band `[y0, y0 + band_h)` of a frame into its own frame (rows
/// are contiguous, so this is one memcpy).
pub(crate) fn band_of(f: &Frame, y0: usize, band_h: usize) -> Frame {
    let w = f.width();
    Frame::from_vec(w, band_h, f.data()[y0 * w..(y0 + band_h) * w].to_vec())
}

/// Encodes tile `i` of an already padded frame as an independent payload
/// (fresh entropy-coder state), returning the payload and the band's
/// padded reconstruction.
///
/// The QP is snapped to the headers' 1/256 fixed-point grid
/// ([`CodecConfig::snapped`]) here, so a header that carries the config's
/// QP — a video stream's or `llm265-core`'s tensor header — names the QP
/// every payload was coded with, and per-tile encoding produces the same
/// payloads as [`crate::encode_video`] with the same config.
///
/// # Panics
///
/// Panics if the frame is not padded to the layout's geometry or
/// `tile >= layout.n_tiles()`.
pub fn encode_tile(
    padded: &Frame,
    prev_padded: Option<&Frame>,
    cfg: &CodecConfig,
    plans: &DctPlans,
    layout: &TileLayout,
    tile: usize,
    frame_idx: usize,
) -> (Vec<u8>, Frame) {
    assert_eq!(padded.width(), layout.padded_width(), "frame not padded");
    let cfg = cfg.snapped();
    let (y0, band_h) = layout.band(tile);
    let band = band_of(padded, y0, band_h);
    let prev_band = prev_padded.map(|p| band_of(p, y0, band_h));
    let (payload, recon, _) = encode_frame(&band, prev_band.as_ref(), &cfg, plans, frame_idx, None);
    (payload, recon)
}

/// [`encode_tile`] of a first frame (no reference) that also returns the
/// tile's decided split shape, and with `kept` — a shape this tile got
/// from an earlier encode at another QP — searches only at and one level
/// below that shape's leaves: its splits are forced, its leaves weigh
/// themselves against one further split. A rate search keeps its first
/// probe's shapes for the rest ([`CuShape`]). With `kept` of `None` the
/// payload and reconstruction are [`encode_tile`]'s.
///
/// # Panics
///
/// As [`encode_tile`].
pub fn probe_tile(
    padded: &Frame,
    cfg: &CodecConfig,
    plans: &DctPlans,
    layout: &TileLayout,
    tile: usize,
    kept: Option<&CuShape>,
) -> (Vec<u8>, Frame, CuShape) {
    assert_eq!(padded.width(), layout.padded_width(), "frame not padded");
    let cfg = cfg.snapped();
    let (y0, band_h) = layout.band(tile);
    encode_frame(&band_of(padded, y0, band_h), None, &cfg, plans, 0, kept)
}

/// Narrows a host size to a `u32` wire field: oversized shapes and
/// payloads fail with [`CodecError::LimitExceeded`] instead of truncating.
pub fn wire_u32(v: usize, what: &'static str) -> Result<u32, CodecError> {
    u32::try_from(v).map_err(|_| CodecError::LimitExceeded(what))
}

/// Appends a tile table — one `u32` length per tile, then the
/// concatenated payloads; the exact mirror of [`parse_tiles`]. Both
/// stream kinds frame their tiles with it: a video frame is one tile
/// table, a tensor chunk record is its affine map then one.
///
/// # Errors
///
/// `LimitExceeded` when a tile overflows its length field.
pub fn write_tiles(out: &mut Vec<u8>, tiles: &[Vec<u8>]) -> Result<(), CodecError> {
    for t in tiles {
        bytes::write_le_u32(out, wire_u32(t.len(), "tile length")?);
    }
    out.extend(tiles.iter().flatten());
    Ok(())
}

/// Parses the tile table of `n_tiles` tiles at `*pos`, returning every
/// tile's absolute byte range in `data` and advancing `pos` past the last
/// payload; no payload byte is read. Offsets are the prefix sums of the
/// lengths, so they cannot disagree with them. The caller has validated
/// `n_tiles` against the frame's geometry.
///
/// # Errors
///
/// `Corrupt` for a zero-length tile (a CABAC payload is never empty);
/// `Truncated` for a table or payload `data` ends inside.
pub fn parse_tiles(
    data: &[u8],
    pos: &mut usize,
    n_tiles: usize,
) -> Result<Vec<Range<usize>>, CodecError> {
    let mut next = *pos + 4 * n_tiles;
    let mut tiles = Vec::with_capacity(n_tiles.min(MAX_TILES));
    for _ in 0..n_tiles {
        let len = bytes::read_le_u32(data, pos)? as usize;
        if len == 0 {
            return Err(CodecError::Corrupt("zero-length tile"));
        }
        tiles.push(next..next + len);
        next += len;
    }
    if next > data.len() {
        return Err(CodecError::Truncated("tile payload"));
    }
    *pos = next;
    Ok(tiles)
}

/// Appends the checksum that ends a record: the CRC-32 of the stream
/// header (`header`, its hashed state) followed by `out[start..]`, the
/// record written so far; the exact mirror of [`parse_checksum`]. A tensor
/// chunk record and a video frame's tile table each end with one.
pub fn write_checksum(out: &mut Vec<u8>, header: Crc32, start: usize) {
    let crc = header.update(out.get(start..).unwrap_or_default()).finish();
    bytes::write_le_u32(out, crc);
}

/// Reads the checksum at `*pos` that ends the record `data[start..*pos]`,
/// advancing `pos` past it; the exact mirror of [`write_checksum`].
/// Nothing is hashed here: callers parse a record's structure first, so
/// hostile lengths keep their own errors, then [`Checksum::verify`] it.
///
/// # Errors
///
/// `Truncated` when `data` ends inside the checksum.
pub fn parse_checksum(data: &[u8], pos: &mut usize, start: usize) -> Result<Checksum, CodecError> {
    let record = start..*pos;
    let crc = bytes::read_le_u32(data, pos)?;
    Ok(Checksum { record, crc })
}

/// A parsed record checksum: the record's byte range (everything before
/// the checksum) and the stored CRC-32.
#[derive(Debug, Clone)]
pub struct Checksum {
    /// The checksummed record's absolute byte range.
    pub record: Range<usize>,
    /// The stored CRC-32 of the stream header followed by the record.
    pub crc: u32,
}

impl Checksum {
    /// Checks the stored CRC-32 against `header` (the stream header's
    /// hashed state) continued over the record's bytes in `data`.
    ///
    /// # Errors
    ///
    /// `Truncated` when `data` no longer covers the record; `Corrupt` on
    /// a mismatch.
    pub fn verify(&self, data: &[u8], header: Crc32) -> Result<(), CodecError> {
        let record = data
            .get(self.record.clone())
            .ok_or(CodecError::Truncated("checksummed record"))?;
        if header.update(record).finish() != self.crc {
            return Err(CodecError::Corrupt("checksum mismatch"));
        }
        Ok(())
    }
}

/// Decodes tile `i` of a frame with geometry `layout` from that tile's
/// payload alone (fresh contexts, no reference frame), returning its band
/// cropped to real frame pixels (`width × layout.band_rows(i).1`). This
/// is the random-access and pooled-decode primitive: no other byte of the
/// stream is read.
///
/// # Errors
///
/// [`CodecError::InvalidInput`] for an out-of-range tile, or any payload
/// decode error.
pub fn decode_tile(
    payload: &[u8],
    cfg: &CodecConfig,
    layout: &TileLayout,
    i: usize,
) -> Result<Frame, CodecError> {
    if i >= layout.n_tiles() {
        return Err(CodecError::InvalidInput(format!("tile {i} out of range")));
    }
    let (y0, band_h) = layout.band(i);
    let plans = DctPlans::new();
    let band = decode_frame(payload, None, cfg, &plans, 0, layout.padded_width(), band_h)?;
    let (w, h) = (layout.w, band_h.min(layout.h - y0));
    Ok(if (w, h) == (band.width(), band.height()) {
        band
    } else {
        band.cropped(w, h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_spreads_remainder_over_leading_tiles() {
        assert_eq!(split_ctu_rows(7, 3), vec![3, 2, 2]);
        assert_eq!(split_ctu_rows(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_ctu_rows(3, 3), vec![1, 1, 1]);
        assert_eq!(split_ctu_rows(5, 1), vec![5]);
    }

    #[test]
    fn layout_clamps_to_ctu_rows_and_covers_the_frame() {
        // 70 rows at CTU 32 → 3 CTU rows; requesting 8 tiles clamps to 3.
        let layout = TileLayout::for_frame(50, 70, 32, 8);
        assert_eq!(layout.n_tiles(), 3);
        assert_eq!(layout.padded_width(), 64);
        let mut covered = 0;
        for i in 0..layout.n_tiles() {
            let (y0, band_h) = layout.band(i);
            assert_eq!(y0, covered);
            assert_eq!(band_h % 32, 0);
            let (row0, rows) = layout.band_rows(i);
            assert_eq!(row0, y0);
            assert!(rows >= 1);
            covered += band_h;
        }
        assert_eq!(covered, 96); // padded height
                                 // Last band clips to the real frame: rows 64..70.
        assert_eq!(layout.band_rows(2), (64, 6));
    }

    #[test]
    fn tile_tables_reject_zero_length_tiles_and_truncation() {
        let tiles = [vec![1u8, 2, 3], vec![4u8]];
        let mut out = vec![0xAA];
        write_tiles(&mut out, &tiles).unwrap();
        // The leading byte, two u32 lengths and four payload bytes.
        assert_eq!(out.len(), 1 + 2 * 4 + 4);
        let mut pos = 1;
        assert_eq!(parse_tiles(&out, &mut pos, 2).unwrap(), vec![9..12, 12..13]);
        assert_eq!(pos, out.len());
        for cut in 1..out.len() {
            assert!(parse_tiles(&out[..cut], &mut 1, 2).is_err(), "{cut}");
        }
        out.clear();
        write_tiles(&mut out, &[vec![7u8], Vec::new()]).unwrap();
        assert!(matches!(
            parse_tiles(&out, &mut 0, 2),
            Err(CodecError::Corrupt("zero-length tile"))
        ));
    }

    #[test]
    fn oversize_wire_fields_error_instead_of_truncating() {
        assert!(wire_u32(usize::try_from(u32::MAX).unwrap(), "x").is_ok());
        let too_big = usize::try_from(u64::from(u32::MAX) + 1).unwrap();
        assert!(matches!(
            wire_u32(too_big, "x"),
            Err(CodecError::LimitExceeded("x"))
        ));
    }
}
