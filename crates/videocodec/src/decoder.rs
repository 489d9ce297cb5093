//! The video decoder, mirroring [`crate::encoder`]'s syntax exactly.

use std::ops::Range;

use llm265_bitstream::bytes;
use llm265_bitstream::cabac::CabacDecoder;
use llm265_bitstream::crc32::Crc32;

use crate::encoder::{MAGIC, VERSION};
use crate::inter::{compensate, MotionVector};
use crate::intra::RefSamples;
use crate::recon::Recon;
use crate::syntax::{parse_eg, parse_levels, BinSource, Contexts};
use crate::tile::{self, TileLayout, MAX_TILES};
use crate::transform::DctPlans;
use crate::{CodecConfig, CodecError, Frame, PipelineConfig, Profile};

/// Everything a tile decode needs: the reconstruction the encoder runs,
/// the previous-mode predictor the parser tracks, and per-leaf scratch
/// (the prediction, the reconstructed block and one TU's levels), reused
/// by every leaf of the tile.
struct FrameDecoder<'a> {
    rc: Recon<'a>,
    prev_mode: u8,
    pred: Vec<i32>,
    block: Vec<i32>,
    levels: Vec<i32>,
}

impl FrameDecoder<'_> {
    fn parse_cu<D: BinSource>(
        &mut self,
        dec: &mut D,
        ctxs: &mut Contexts,
        x0: usize,
        y0: usize,
        size: usize,
    ) -> Result<(), CodecError> {
        let min = self.rc.min_cu;
        let adaptive = self.rc.cfg.pipeline.adaptive_partition;
        let split = if adaptive && size > min {
            dec.bit(&mut ctxs.split)
        } else {
            // Implied split: fixed grids subdivide without flags down to
            // the fixed CU size.
            !adaptive && size > min
        };
        if split {
            let half = size / 2;
            for (dx, dy) in [(0, 0), (half, 0), (0, half), (half, half)] {
                self.parse_cu(dec, ctxs, x0 + dx, y0 + dy, half)?;
            }
            return Ok(());
        }
        self.parse_leaf(dec, ctxs, x0, y0, size)
    }

    fn parse_leaf<D: BinSource>(
        &mut self,
        dec: &mut D,
        ctxs: &mut Contexts,
        x0: usize,
        y0: usize,
        size: usize,
    ) -> Result<(), CodecError> {
        // Prediction kind + parameters.
        let is_inter = self.rc.frame_inter && dec.bit(&mut ctxs.inter_flag);
        if is_inter {
            let dx = parse_signed_eg(dec)?;
            let dy = parse_signed_eg(dec)?;
            let mv = MotionVector {
                dx: dx.clamp(-128, 127) as i8,
                dy: dy.clamp(-128, 127) as i8,
            };
            let prev = self
                .rc
                .prev
                .ok_or(CodecError::Corrupt("inter block without reference frame"))?;
            compensate(prev, x0, y0, size, mv, &mut self.pred);
        } else if self.rc.cfg.pipeline.intra {
            let n_modes = self.rc.cfg.profile.modes().len();
            let idx = if dec.bit(&mut ctxs.mpm) {
                self.prev_mode
            } else {
                // `mode_bits <= 6` for every profile's mode table, so the
                // mask is value-preserving; out-of-range values error below.
                (dec.bypass_bits(self.rc.mode_bits) & 0xFF) as u8
            };
            if usize::from(idx) >= n_modes {
                return Err(CodecError::Corrupt("intra mode index out of range"));
            }
            self.prev_mode = idx;
            let refs = RefSamples::gather(&self.rc.frame, x0, y0, size);
            refs.predict_into(
                self.rc.cfg.profile.modes()[usize::from(idx)],
                &mut self.pred,
            );
        } else {
            self.pred.clear();
            self.pred.resize(size * size, 128);
        }

        // Residual per TU, reconstructed as the encoder did. Every sample
        // of the block is written by exactly one TU.
        let tu = self.rc.tu_size(size);
        let per_side = size / tu;
        let spatial = !self.rc.cfg.pipeline.transform;
        self.block.resize(size * size, 0);
        for ty in 0..per_side {
            for tx in 0..per_side {
                parse_levels(dec, ctxs, tu, spatial, &mut self.levels)?;
                self.rc.reconstruct_tu(&self.levels, tu);
                self.rc.add_tu(&self.pred, &mut self.block, size, tx, ty);
            }
        }
        self.rc.frame.write_block(x0, y0, size, &self.block);
        Ok(())
    }
}

/// Parses a zig-zag-mapped order-1 exp-Golomb value (the inverse of
/// [`crate::encoder::code_signed_eg`]).
fn parse_signed_eg<D: BinSource>(dec: &mut D) -> Result<i32, CodecError> {
    let mapped = parse_eg(dec, 1)?;
    // `mapped >> 1` fits i32; the mask is value-preserving and states that.
    Ok(if mapped & 1 == 0 {
        ((mapped >> 1) & 0x7FFF_FFFF) as i32
    } else {
        -((((mapped + 1) >> 1) & 0x7FFF_FFFF) as i32)
    })
}

/// A validated stream header: everything before the first frame.
pub(crate) struct StreamHeader {
    /// The coding configuration the header signals; `tiles` is the tile
    /// count of every frame.
    pub cfg: CodecConfig,
    pub w: usize,
    pub h: usize,
    pub n_frames: usize,
}

/// Parses and validates the coding fields every header carries — profile
/// id, pipeline switches, stream flags and QP × 256 — at `*pos` into the
/// configuration they signal (`tiles` left at 1); the exact mirror of
/// [`crate::encoder::write_coding_fields`]. The one home of these checks:
/// the video stream header and `llm265-core`'s tensor header both call
/// it.
///
/// # Errors
///
/// `Unsupported` for an unknown profile id, a pipeline bit no switch
/// names, or any set flag bit (no flag is defined);
/// `Corrupt` for a QP outside the H.265 range; `Truncated` for short
/// input.
pub fn parse_coding_fields(data: &[u8], pos: &mut usize) -> Result<CodecConfig, CodecError> {
    let profile = bytes::read_u8(data, pos)?;
    let pipeline = bytes::read_u8(data, pos)?;
    let flags = bytes::read_u8(data, pos)?;
    let qp = bytes::read_le_u16(data, pos)?;
    let profile =
        Profile::from_header_id(profile).ok_or(CodecError::Unsupported("unknown profile id"))?;
    let pipeline = PipelineConfig::from_byte(pipeline)
        .ok_or(CodecError::Unsupported("unknown pipeline switches"))?;
    // No flag bit is defined: refuse any set bit rather than misdecode a
    // layout this decoder does not know.
    if flags != 0 {
        return Err(CodecError::Unsupported("unknown stream flags"));
    }
    let qp = f64::from(qp) / 256.0;
    // The 16-bit field can carry up to ~256.0; a QP beyond the H.265 range
    // never comes from our encoder and would violate the quantizer's
    // contract downstream.
    if !(crate::quant::QP_MIN..=crate::quant::QP_MAX).contains(&qp) {
        return Err(CodecError::Corrupt("qp out of range"));
    }
    Ok(CodecConfig {
        profile,
        pipeline,
        qp,
        tiles: 1,
    })
}

/// Parses and validates the stream header at `*pos`, advancing `pos`
/// past it. Only [`VERSION`] is accepted; the coding fields are checked
/// by [`parse_coding_fields`].
pub(crate) fn parse_stream_header(
    data: &[u8],
    pos: &mut usize,
) -> Result<StreamHeader, CodecError> {
    if bytes::read_le_u32(data, pos)? != MAGIC {
        return Err(CodecError::Corrupt("bad magic"));
    }
    let version = bytes::read_u8(data, pos)?;
    if version != VERSION {
        return Err(CodecError::Unsupported("bitstream version"));
    }
    let cfg = parse_coding_fields(data, pos)?;
    let w = bytes::read_le_u32(data, pos)? as usize;
    let h = bytes::read_le_u32(data, pos)? as usize;
    let n_frames = bytes::read_le_u32(data, pos)? as usize;
    let tiles = usize::from(bytes::read_le_u16(data, pos)?);
    if w == 0 || h == 0 {
        return Err(CodecError::Corrupt("zero frame dimensions"));
    }
    // A hostile header can declare absurd dimensions or frame counts that
    // would make the allocations below unbounded; cap them well above any
    // realistic tensor-frame workload.
    if w.saturating_mul(h) > 1 << 28 {
        return Err(CodecError::LimitExceeded("frame dimensions"));
    }
    if n_frames > 1 << 20 {
        return Err(CodecError::LimitExceeded("frame count"));
    }
    // The encoder writes the layout's clamped count, so any other count
    // is corruption.
    let ctu_rows = h.div_ceil(cfg.profile.ctu());
    if !(1..=ctu_rows.min(MAX_TILES)).contains(&tiles) {
        return Err(CodecError::Corrupt("tile count out of range"));
    }
    Ok(StreamHeader {
        cfg: cfg.with_tiles(tiles),
        w,
        h,
        n_frames,
    })
}

/// Decodes a bitstream produced by [`crate::encode_video`]: the header,
/// then one tile table per frame, each band decoded with fresh contexts
/// (mirroring the encoder) and stitched. Serial; `llm265-core` fans the
/// same per-band decodes over its pool instead.
pub(crate) fn decode_video(data: &[u8]) -> Result<Vec<Frame>, CodecError> {
    let mut pos = 0;
    let hdr = parse_stream_header(data, &mut pos)?;
    // Hashed once; every frame's checksum continues this state.
    let header_crc = Crc32::new().update(data.get(..pos).unwrap_or_default());
    let (cfg, w, h) = (&hdr.cfg, hdr.w, hdr.h);
    // The count was validated against the CTU rows and `MAX_TILES`, so
    // the clamp inside `for_frame` keeps it as is.
    let ctu = cfg.profile.ctu();
    let layout = TileLayout::for_frame(w, h, ctu, cfg.tiles);
    let (pw, ph) = (layout.padded_width(), h.div_ceil(ctu) * ctu);
    let plans = DctPlans::new();
    let mut frames = Vec::with_capacity(hdr.n_frames);
    let mut prev_padded: Option<Frame> = None;
    for i in 0..hdr.n_frames {
        let tiles = parse_frame_record(data, &mut pos, header_crc, layout.n_tiles())?;
        let mut recon = Vec::with_capacity(pw * ph);
        for (t, range) in tiles.into_iter().enumerate() {
            let payload = data
                .get(range)
                .ok_or(CodecError::Truncated("tile payload"))?;
            let (y0, band_h) = layout.band(t);
            let prev_band = prev_padded.as_ref().map(|p| tile::band_of(p, y0, band_h));
            let band = decode_frame(payload, prev_band.as_ref(), cfg, &plans, i, pw, band_h)?;
            recon.extend_from_slice(band.data());
        }
        let recon = Frame::from_vec(pw, ph, recon);
        frames.push(recon.cropped(w, h));
        prev_padded = Some(recon);
    }
    if pos != data.len() {
        return Err(CodecError::Corrupt("bytes after the last frame"));
    }
    Ok(frames)
}

/// Parses the frame at `*pos` — its tile table of `n_tiles` tiles, then
/// the checksum of the stream header (`header`, its hashed state) and the
/// table — advancing `pos` past it; the exact mirror of
/// [`crate::encoder::write_frame_record`]. The structure is parsed first,
/// so the table's errors are [`tile::parse_tiles`]'s; then the frame is
/// hashed, and a mismatch is `Corrupt` ([`tile::Checksum::verify`]).
pub(crate) fn parse_frame_record(
    data: &[u8],
    pos: &mut usize,
    header: Crc32,
    n_tiles: usize,
) -> Result<Vec<Range<usize>>, CodecError> {
    let start = *pos;
    let tiles = tile::parse_tiles(data, pos, n_tiles)?;
    tile::parse_checksum(data, pos, start)?.verify(data, header)?;
    Ok(tiles)
}

/// Decodes one tile payload (a band coded as its own mini-frame) into its
/// padded reconstruction; the exact mirror of
/// [`crate::encoder::encode_frame`].
pub(crate) fn decode_frame(
    payload: &[u8],
    prev: Option<&Frame>,
    cfg: &CodecConfig,
    plans: &DctPlans,
    frame_idx: usize,
    w: usize,
    h: usize,
) -> Result<Frame, CodecError> {
    let ctu = cfg.profile.ctu();
    let pw = w.div_ceil(ctu) * ctu;
    let ph = h.div_ceil(ctu) * ctu;
    let mut fd = FrameDecoder {
        rc: Recon::new(cfg, plans, pw, ph, prev, frame_idx),
        prev_mode: 0,
        pred: Vec::new(),
        block: Vec::new(),
        levels: Vec::new(),
    };
    let mut dec = CabacDecoder::new(payload);
    parse_payload(&mut fd, &mut dec, pw, ph, ctu)?;
    // Exact consumption. With N renormalisations while coding, the
    // encoder writes its leading cache byte, one byte per
    // renormalisation and five flush bytes, less the one still pending
    // at the end: N + 5 bytes. The decoder skips that leading byte,
    // primes with four, then reads one byte per renormalisation, and its
    // range mirrors the encoder's, so a clean parse stops at exactly
    // N + 5. Any other end means the syntax walk left the coded bins.
    if dec.consumed() != payload.len() {
        return Err(CodecError::Corrupt("tile syntax and length disagree"));
    }
    Ok(fd.rc.frame)
}

/// Walks every CTU of a frame payload through `dec`.
fn parse_payload<D: BinSource>(
    fd: &mut FrameDecoder<'_>,
    dec: &mut D,
    pw: usize,
    ph: usize,
    ctu: usize,
) -> Result<(), CodecError> {
    let mut ctxs = Contexts::new();
    for cy in (0..ph).step_by(ctu) {
        for cx in (0..pw).step_by(ctu) {
            fd.parse_cu(dec, &mut ctxs, cx, cy, ctu)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::code_signed_eg;
    use llm265_bitstream::cabac::CabacEncoder;

    #[test]
    fn signed_eg_extreme_motion_roundtrips() {
        // ±(i32::MAX - 1)-scale components map to the widest order-1
        // codes whose unary prefix hits the 30-one cap with a full
        // 31-bit suffix; one more prefix step would spill the batched
        // bypass call. (Real motion vectors are i16-ranged; this pins
        // the binarization itself at its arithmetic boundary.)
        let values = [0, 1, -1, 123_456, -654_321, i32::MAX - 1, -i32::MAX];
        let mut enc = CabacEncoder::new();
        for &v in &values {
            code_signed_eg(&mut enc, v);
        }
        let bytes = enc.finish();
        let mut dec = CabacDecoder::new(&bytes);
        for &v in &values {
            assert_eq!(parse_signed_eg(&mut dec).expect("parse"), v);
        }
    }

    /// Header length and byte offsets: version, pipeline switches,
    /// stream flags.
    const HEADER_BYTES: usize = 24;
    const VERSION_AT: usize = 4;
    const PIPELINE_AT: usize = 6;
    const FLAGS_AT: usize = 7;

    fn header() -> (CodecConfig, Vec<u8>) {
        let cfg = CodecConfig::default();
        let mut hdr = Vec::new();
        crate::encoder::write_stream_header(&mut hdr, &cfg, 16, 16, 1).expect("header");
        assert_eq!(hdr.len(), HEADER_BYTES);
        assert_eq!(hdr[VERSION_AT], VERSION, "version byte offset");
        assert_eq!(hdr[PIPELINE_AT], cfg.pipeline.to_byte(), "pipeline offset");
        assert_eq!(hdr[FLAGS_AT], 0, "flags byte offset");
        (cfg, hdr)
    }

    #[test]
    fn truncated_flags_byte_sweep_errors_at_every_cut() {
        let (cfg, hdr) = header();
        // Every prefix — including a full header *except* its last byte —
        // must refuse, never read past the end.
        for cut in 0..hdr.len() {
            assert!(
                parse_stream_header(&hdr[..cut], &mut 0).is_err(),
                "cut {cut}/{HEADER_BYTES} parsed"
            );
        }
        let parsed = parse_stream_header(&hdr, &mut 0).expect("full header");
        assert_eq!(parsed.cfg, cfg);
    }

    #[test]
    fn reserved_flag_bits_are_refused() {
        // No stream flag is defined: 0x01 is the retired tiled-layout
        // flag (every frame is tiled now) and 0x02 the retired rANS
        // entropy backend. Pipeline bits 4–7 name no switch.
        let flags = [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80].map(|b| (FLAGS_AT, b));
        let pipeline = [0x10u8, 0x20, 0x40, 0x80].map(|b| (PIPELINE_AT, b));
        for (at, bit) in flags.into_iter().chain(pipeline) {
            let mut hdr = header().1;
            hdr[at] |= bit;
            let expect = if at == FLAGS_AT {
                "unknown stream flags"
            } else {
                "unknown pipeline switches"
            };
            match parse_stream_header(&hdr, &mut 0) {
                Err(CodecError::Unsupported(msg)) => assert_eq!(msg, expect),
                Ok(_) => panic!("reserved bit {bit:#04x} at byte {at} accepted"),
                Err(e) => panic!("reserved bit {bit:#04x} at byte {at}: wrong error {e:?}"),
            }
        }
    }
}
