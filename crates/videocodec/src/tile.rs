//! Tiled bitstream layout: independently decodable CTU-row bands.
//!
//! Every frame is split into N ≥ 1 horizontal **tiles** (whole CTU rows
//! each). Each tile is encoded exactly like a standalone mini-frame —
//! fresh entropy coder, fresh context models, no intra prediction across
//! the tile boundary (the band's top row behaves like a frame top) — so
//! any tile decodes without touching the others. In a video stream every
//! frame payload is a byte-offset index (`u16` count, then `u32` offset +
//! `u32` length per tile) followed by the concatenated tile payloads; a
//! one-tile frame carries a one-entry index, so there is a single payload
//! shape. (`llm265-core`'s tensor streams carry the same tile payloads
//! without that index: their tile count and offsets follow from the
//! tensor header.) This buys three things:
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

use llm265_bitstream::bytes;

use crate::decoder::decode_frame;
use crate::encoder::encode_frame;
use crate::transform::DctPlans;
use crate::{CodecConfig, CodecError, Frame};

/// Hard cap on tiles per frame; the index codes the count as `u16` and a
/// hostile count beyond this is rejected before any allocation.
pub const MAX_TILES: usize = 1024;

/// Splits `ctu_rows` CTU rows into `n_tiles` contiguous bands, earlier
/// bands taking the remainder: band `i` gets `base + 1` rows when
/// `i < ctu_rows % n_tiles`. Returns the per-band CTU-row counts.
///
/// `n_tiles` carries a `ranges.toml` contract (`1..=1024`, i.e.
/// [`MAX_TILES`]) and must not exceed `ctu_rows`; [`TileLayout::for_frame`]
/// proves both by clamping.
pub fn split_ctu_rows(ctu_rows: usize, n_tiles: usize) -> Vec<usize> {
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
    encode_frame(&band, prev_band.as_ref(), &cfg, plans, frame_idx)
}

/// Assembles one frame's payload from its per-tile payloads: the tile
/// index (`u16` count, `u32` offset + `u32` length per tile, offsets
/// relative to the data area that follows the index) then the
/// concatenated payloads.
///
/// # Panics
///
/// Panics if there are no tiles, more than [`MAX_TILES`], or the total
/// tile bytes overflow the index's `u32` offsets.
pub(crate) fn build_frame_payload(tiles: &[Vec<u8>]) -> Vec<u8> {
    assert!(!tiles.is_empty() && tiles.len() <= MAX_TILES);
    let total: usize = tiles.iter().map(Vec::len).sum();
    assert!(total <= u32::MAX as usize, "tile data exceeds u32 offsets");
    let mut out = Vec::with_capacity(2 + tiles.len() * 8 + total);
    // The assert above bounds the count at MAX_TILES; the mask states
    // the field width.
    bytes::write_le_u16(&mut out, (tiles.len() & 0xFFFF) as u16);
    let mut off = 0usize;
    for t in tiles {
        // Both fit u32: `total <= u32::MAX` is asserted above and `off`
        // and every length are bounded by it.
        bytes::write_le_u32(&mut out, (off & 0xFFFF_FFFF) as u32);
        bytes::write_le_u32(&mut out, (t.len() & 0xFFFF_FFFF) as u32);
        off += t.len();
    }
    for t in tiles {
        out.extend_from_slice(t);
    }
    out
}

/// Parses and validates a frame payload's tile index. Returns the
/// per-tile `(offset, length)` pairs plus the byte position where the
/// tile data area starts, with every hostile shape rejected before any
/// allocation or slicing:
///
/// * truncated index → [`CodecError::Truncated`];
/// * zero tiles, zero-length tiles, non-contiguous/overlapping/
///   out-of-order offsets, or data-area size disagreeing with the summed
///   lengths → [`CodecError::Corrupt`];
/// * count bombs beyond [`MAX_TILES`] or the frame's CTU-row count →
///   [`CodecError::LimitExceeded`] / [`CodecError::Corrupt`].
pub(crate) fn parse_tile_index(
    payload: &[u8],
    ctu_rows: usize,
) -> Result<(Vec<(usize, usize)>, usize), CodecError> {
    let mut pos = 0usize;
    let count = usize::from(bytes::read_le_u16(payload, &mut pos)?);
    if count == 0 {
        return Err(CodecError::Corrupt("empty tile index"));
    }
    if count > MAX_TILES {
        return Err(CodecError::LimitExceeded("tile count"));
    }
    if count > ctu_rows {
        return Err(CodecError::Corrupt("more tiles than CTU rows"));
    }
    // `count <= MAX_TILES` per the guard above, so the index area and the
    // entries vector are both bounded.
    let data_start = 2 + count * 8;
    let mut entries = Vec::with_capacity(count);
    let mut expect = 0usize;
    for _ in 0..count {
        let off = bytes::read_le_u32(payload, &mut pos)? as usize;
        let len = bytes::read_le_u32(payload, &mut pos)? as usize;
        if off != expect {
            return Err(CodecError::Corrupt("tile offsets not contiguous"));
        }
        if len == 0 {
            return Err(CodecError::Corrupt("zero-length tile"));
        }
        expect = expect
            .checked_add(len)
            .ok_or(CodecError::Corrupt("tile lengths overflow"))?;
        entries.push((off, len));
    }
    let area = payload
        .len()
        .checked_sub(data_start)
        .ok_or(CodecError::Truncated("tile data area"))?;
    if expect != area {
        return Err(CodecError::Corrupt(
            "tile lengths disagree with payload size",
        ));
    }
    Ok((entries, data_start))
}

/// Encodes one padded frame into its tile-indexed payload plus its padded
/// reconstruction; the exact mirror of [`decode_tiled_frame`]. Each band
/// is its own mini-frame (fresh entropy-coder state); stitching the band
/// recons reproduces the padded frame recon because bands are whole CTU
/// rows.
pub(crate) fn encode_tiled_frame(
    padded: &Frame,
    prev_padded: Option<&Frame>,
    cfg: &CodecConfig,
    plans: &DctPlans,
    layout: &TileLayout,
    frame_idx: usize,
) -> (Vec<u8>, Frame) {
    let mut tile_payloads = Vec::with_capacity(layout.n_tiles());
    let mut data = Vec::with_capacity(padded.width() * padded.height());
    for t in 0..layout.n_tiles() {
        let (p, band_recon) = encode_tile(padded, prev_padded, cfg, plans, layout, t, frame_idx);
        tile_payloads.push(p);
        data.extend_from_slice(band_recon.data());
    }
    let recon = Frame::from_vec(padded.width(), padded.height(), data);
    (build_frame_payload(&tile_payloads), recon)
}

/// Decodes one frame payload into its padded reconstruction: parse
/// the index, decode each band (fresh contexts per band, mirroring the
/// encoder), stitch the bands. Serial; `llm265-core` fans the same
/// per-band decodes over its pool instead.
pub(crate) fn decode_tiled_frame(
    payload: &[u8],
    prev_padded: Option<&Frame>,
    cfg: &CodecConfig,
    plans: &DctPlans,
    frame_idx: usize,
    w: usize,
    h: usize,
) -> Result<Frame, CodecError> {
    let ctu = cfg.profile.ctu();
    let ctu_rows = h.div_ceil(ctu);
    let (entries, data_start) = parse_tile_index(payload, ctu_rows)?;
    // The count was validated against the CTU rows and `MAX_TILES`, so
    // the clamp inside `for_frame` keeps it as is.
    let layout = TileLayout::for_frame(w, h, ctu, entries.len());
    let pw = layout.padded_width();
    let mut data = Vec::new();
    for (i, &(off, len)) in entries.iter().enumerate() {
        let tile_payload = payload
            .get(data_start..)
            .and_then(|area| area.get(off..))
            .and_then(|rest| rest.get(..len))
            .ok_or(CodecError::Truncated("tile payload"))?;
        let (y0, band_h) = layout.band(i);
        let prev_band = prev_padded.map(|p| band_of(p, y0, band_h));
        let band = decode_frame(
            tile_payload,
            prev_band.as_ref(),
            cfg,
            plans,
            frame_idx,
            pw,
            band_h,
        )?;
        data.extend_from_slice(band.data());
    }
    Ok(Frame::from_vec(pw, ctu_rows * ctu, data))
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
    Ok(band.cropped(layout.w, band_h.min(layout.h - y0)))
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
    fn frame_payload_roundtrips_through_the_index_parser() {
        let tiles = vec![vec![1u8, 2, 3], vec![4u8], vec![5u8, 6]];
        let payload = build_frame_payload(&tiles);
        let (entries, data_start) = parse_tile_index(&payload, 3).expect("parse");
        assert_eq!(entries, vec![(0, 3), (3, 1), (4, 2)]);
        assert_eq!(&payload[data_start..], &[1, 2, 3, 4, 5, 6]);
    }
}
