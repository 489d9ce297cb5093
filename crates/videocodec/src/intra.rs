//! Intra-frame prediction.
//!
//! §3.1 of the paper observes that LLM weight matrices, viewed as images,
//! contain the planar regions and channel-wise "edges" that intra
//! prediction was designed for, and that the intra predictor captures the
//! channel-wise scale structure with a handful of prediction states,
//! leaving small residuals (Fig 4). This module implements the HEVC mode
//! family — DC, Planar and 33 angular directions with 1/32-pel reference
//! interpolation — plus the Paeth and Smooth predictors for the AV1-like
//! profile.
//!
//! Prediction always reads *reconstructed* neighbour pixels, so encoder
//! and decoder compute identical predictions.

use crate::{Block, Frame};

/// An intra prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredMode {
    /// Mean of the reference samples.
    Dc,
    /// HEVC planar: bilinear blend of the reference edges.
    Planar,
    /// HEVC angular mode 2..=34 (10 = horizontal, 26 = vertical).
    Angular(u8),
    /// AV1 Paeth predictor (nearest of top/left/corner to their sum-diff).
    Paeth,
    /// AV1-like smooth blend of top and left edges.
    Smooth,
    /// AV1-like smooth blend, vertical only.
    SmoothV,
    /// AV1-like smooth blend, horizontal only.
    SmoothH,
}

impl PredMode {
    /// The H.265 mode set: Planar, DC and all 33 angular directions.
    pub fn h265_set() -> Vec<PredMode> {
        let mut v = vec![PredMode::Planar, PredMode::Dc];
        v.extend((2..=34).map(PredMode::Angular));
        v
    }

    /// The H.264-like 9-direction set (DC, V, H and six diagonals).
    pub fn h264_set() -> Vec<PredMode> {
        vec![
            PredMode::Dc,
            PredMode::Angular(26), // vertical
            PredMode::Angular(10), // horizontal
            PredMode::Angular(34), // down-left
            PredMode::Angular(18), // down-right
            PredMode::Angular(22),
            PredMode::Angular(14),
            PredMode::Angular(30),
            PredMode::Angular(6),
        ]
    }

    /// The AV1-like set: H.265 modes plus Paeth and the Smooth family.
    pub fn av1_set() -> Vec<PredMode> {
        let mut v = Self::h265_set();
        v.extend([
            PredMode::Paeth,
            PredMode::Smooth,
            PredMode::SmoothV,
            PredMode::SmoothH,
        ]);
        v
    }
}

/// HEVC `intraPredAngle` for modes 2..=34.
const ANGLES: [i32; 33] = [
    32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32, -26, -21, -17, -13, -9,
    -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32,
];

/// Whether angular mode `mode` predicts from the top edge (modes 18..=34)
/// rather than the left one.
fn is_vertical(mode: u8) -> bool {
    mode >= 18
}

/// HEVC `invAngle` for negative angles (|angle| in {2,5,9,13,17,21,26,32}).
fn inv_angle(a: i32) -> i32 {
    match a.abs() {
        2 => 4096,
        5 => 1638,
        9 => 910,
        13 => 630,
        17 => 482,
        21 => 390,
        26 => 315,
        32 => 256,
        #[allow(
            clippy::unreachable,
            reason = "only called with angles from the ANGLES table"
        )]
        _ => unreachable!("no inverse angle for {a}"),
    }
}

/// Reference samples around an `N × N` block, prepared from the
/// reconstructed frame with HEVC-style substitution for unavailable edges.
/// Fixed-size arrays: gathering allocates nothing. Samples are pixels
/// (`0..=255`) held as `i16`, so the line kernels run in 16-bit lanes:
/// every intermediate of the angular blend (`31 · 255` at most) and every
/// difference against the original fits, so the values are those of
/// `i32` arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct Refs<const N: usize> {
    corner: i16,
    /// Flattened, `top[i]` = reconstructed pixel at `(x0 + i, y0 - 1)`,
    /// `i` in `0..2N`.
    top: [[i16; N]; 2],
    /// Flattened, `left[i]` = reconstructed pixel at `(x0 - 1, y0 + i)`,
    /// `i` in `0..2N`.
    left: [[i16; N]; 2],
}

/// Reference samples around an `n × n` block of any codec size: the
/// public face of the fixed-size references the codec predicts from,
/// which it holds at the block's size.
#[derive(Debug, Clone)]
pub struct RefSamples(SizedRefs);

#[derive(Debug, Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "every variant is a stack block; boxing the large ones would allocate per gather"
)]
enum SizedRefs {
    N4(Refs<4>),
    N8(Refs<8>),
    N16(Refs<16>),
    N32(Refs<32>),
}

/// Receives a prediction one line at a time. Line `j` is row `j` of the
/// block, or column `j` when `cols` is set (horizontal angular modes,
/// whose reference edge is the left column); `values` yields its `N`
/// samples in order. Writing a block ([`Refs::predict`]) and scoring one
/// against the leaf ([`Refs::sad_sweep`]) are the two sinks, so both run
/// the identical per-sample arithmetic.
trait LineSink<const N: usize> {
    fn line(&mut self, j: usize, cols: bool, values: impl Iterator<Item = i16>);
}

/// Stores lines into the rows of a block.
struct BlockSink<'a, const N: usize> {
    out: &'a mut [[i32; N]],
}

impl<const N: usize> LineSink<N> for BlockSink<'_, N> {
    #[inline(always)]
    fn line(&mut self, j: usize, cols: bool, values: impl Iterator<Item = i16>) {
        if cols {
            for (row, v) in self.out.iter_mut().zip(values) {
                row[j] = i32::from(v);
            }
        } else {
            for (o, v) in self.out[j].iter_mut().zip(values) {
                *o = i32::from(v);
            }
        }
    }
}

/// Sums `|leaf - prediction|` line by line: rows against the leaf, columns
/// against its transpose, so every comparison reads contiguously.
struct SadSink<'a, const N: usize> {
    leaf: &'a [[i16; N]; N],
    leaf_t: &'a [[i16; N]; N],
    sum: u64,
}

impl<const N: usize> LineSink<N> for SadSink<'_, N> {
    #[inline(always)]
    fn line(&mut self, j: usize, cols: bool, values: impl Iterator<Item = i16>) {
        let src = if cols { &self.leaf_t[j] } else { &self.leaf[j] };
        // A line differs by at most 255 per sample over at most 32
        // samples, so its sum fits u32 (which packs more lanes than u64).
        let line: u32 = src
            .iter()
            .zip(values)
            .map(|(&o, v)| u32::from((o - v).unsigned_abs()))
            .sum();
        self.sum += u64::from(line);
    }
}

/// A pixel-range value (`0..=255`, or a 1/32-pel position) as the `i16`
/// the line kernels run in; every caller's value fits.
#[inline(always)]
fn pixel(v: i32) -> i16 {
    i16::try_from(v).unwrap_or(0)
}

/// The angular interpolation kernel shared by block writes and the SAD
/// sweep: sample `i` of a line blends `a[i]` and `b[i]` (= `a[i + 1]` of
/// the reference array) at 1/32-pel position `frac`. HEVC's
/// `((32 - frac)·a + frac·b + 16) >> 5`, rewritten with one multiply:
/// `32·a` is a multiple of 32, so it leaves the arithmetic shift as `a`.
#[inline(always)]
fn angular_line<'r>(a: &'r [i16], b: &'r [i16], frac: i16) -> impl Iterator<Item = i16> + 'r {
    a.iter()
        .zip(b)
        .map(move |(&a, &b)| a + ((frac * (b - a) + 16) >> 5))
}

/// HEVC's extended main reference of one prediction direction for blocks
/// of edge `N`. Flattened, entry `x + N` holds `ref[x]` for `x` in
/// `-N..=2N`, with `ref[0]` = corner and `ref[k]` = `main[k - 1]`, plus
/// one sample at `3N + 1` repeating `ref[2N]`, so every line reads
/// `N + 1` samples without clamping (the ±32 diagonals read that one with
/// weight 0).
///
/// The non-negative part depends only on the direction. Each negative
/// angle projects the side reference into `x < 0` in place, and writes
/// every negative slot its lines then read (`x > (N·angle) >> 5`), so one
/// array serves all of a direction's modes, in any order: a slot no mode
/// wrote is never read. `4N >= 3N + 2` for every block size.
type RefLine<const N: usize> = [[i16; N]; 4];

/// The intra SAD sweep of one block against its original: the block's
/// reference samples, both directions' reference lines and the
/// original's transpose, built once ([`Refs::sad_sweep`]) for every
/// [`SadSweep::score`] call that follows.
pub(crate) struct SadSweep<'a, const N: usize> {
    refs: &'a Refs<N>,
    vert: RefLine<N>,
    horz: RefLine<N>,
    /// The original and its transpose (horizontal modes compare
    /// column-wise against it), as pixels in `i16`.
    leaf: [[i16; N]; N],
    leaf_t: [[i16; N]; N],
}

impl<const N: usize> SadSweep<'_, N> {
    /// Calls `score(i, sad)` with the sum of absolute differences between
    /// `modes[i]`'s prediction and the leaf, for every index `i` of
    /// `which` in order, without building any prediction block. Each SAD
    /// equals that of [`Refs::predict`]'s block by construction: both run
    /// the same line kernels.
    ///
    /// # Panics
    ///
    /// Panics if an index of `which` is out of range of `modes`.
    pub(crate) fn score(
        &mut self,
        modes: &[PredMode],
        which: &[u8],
        mut score: impl FnMut(u8, u64),
    ) {
        let refs = self.refs;
        for &i in which {
            let mode = modes[usize::from(i)];
            let mut sink = SadSink {
                leaf: &self.leaf,
                leaf_t: &self.leaf_t,
                sum: 0,
            };
            match mode {
                PredMode::Angular(m) => {
                    let line = if is_vertical(m) {
                        &mut self.vert
                    } else {
                        &mut self.horz
                    };
                    refs.angular_lines(m, line.as_flattened_mut(), &mut sink);
                }
                _ => refs.lines(mode, &mut sink),
            }
            score(i, sink.sum);
        }
    }
}

impl RefSamples {
    /// Gathers reference samples for the `n × n` block at `(x0, y0)`.
    ///
    /// Samples right of / below the frame are edge-replicated; when a whole
    /// side is unavailable (frame boundary) it is substituted from the
    /// other side, or 128 if neither exists.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a block size of the codec's profiles: 4, 8,
    /// 16 or 32.
    pub fn gather(recon: &Frame, x0: usize, y0: usize, n: usize) -> Self {
        RefSamples(match n {
            4 => SizedRefs::N4(Refs::gather(recon, x0, y0)),
            8 => SizedRefs::N8(Refs::gather(recon, x0, y0)),
            16 => SizedRefs::N16(Refs::gather(recon, x0, y0)),
            32 => SizedRefs::N32(Refs::gather(recon, x0, y0)),
            #[allow(
                clippy::panic,
                reason = "block sizes come from profile constants, never from bitstream input"
            )]
            _ => panic!("unsupported block size {n}"),
        })
    }

    /// Block size the references were gathered for.
    pub fn size(&self) -> usize {
        match self.0 {
            SizedRefs::N4(_) => 4,
            SizedRefs::N8(_) => 8,
            SizedRefs::N16(_) => 16,
            SizedRefs::N32(_) => 32,
        }
    }

    /// Computes the prediction block (row-major `n × n`) for `mode`.
    pub fn predict(&self, mode: PredMode) -> Vec<i32> {
        let mut out = Vec::new();
        self.predict_into(mode, &mut out);
        out
    }

    /// [`Self::predict`] into a caller-owned buffer, for callers that
    /// predict many blocks and would otherwise allocate one per call.
    pub fn predict_into(&self, mode: PredMode, out: &mut Vec<i32>) {
        // Every sample is written by exactly one line; resizing only sizes.
        let n = self.size();
        out.resize(n * n, 0);
        match &self.0 {
            SizedRefs::N4(r) => r.predict_rows(mode, out.as_chunks_mut().0),
            SizedRefs::N8(r) => r.predict_rows(mode, out.as_chunks_mut().0),
            SizedRefs::N16(r) => r.predict_rows(mode, out.as_chunks_mut().0),
            SizedRefs::N32(r) => r.predict_rows(mode, out.as_chunks_mut().0),
        }
    }
}

impl<const N: usize> Refs<N> {
    /// Gathers reference samples for the `N × N` block at `(x0, y0)`; see
    /// [`RefSamples::gather`].
    pub(crate) fn gather(recon: &Frame, x0: usize, y0: usize) -> Self {
        debug_assert!(
            crate::transform::SIZES.contains(&N),
            "blocks are 4x4, 8x8, 16x16 or 32x32"
        );
        let (w, h) = (recon.width(), recon.height());
        let mut r = Refs {
            corner: 128,
            top: [[128; N]; 2],
            left: [[128; N]; 2],
        };
        let fill_top = |top: &mut [[i16; N]; 2]| {
            for (i, t) in top.as_flattened_mut().iter_mut().enumerate() {
                *t = i16::from(recon.get((x0 + i).min(w - 1), y0 - 1));
            }
        };
        let fill_left = |left: &mut [[i16; N]; 2]| {
            for (i, l) in left.as_flattened_mut().iter_mut().enumerate() {
                *l = i16::from(recon.get(x0 - 1, (y0 + i).min(h - 1)));
            }
        };
        match (y0 > 0, x0 > 0) {
            (false, false) => {}
            (true, false) => {
                fill_top(&mut r.top);
                r.corner = r.top[0][0];
                r.left = [[r.corner; N]; 2];
            }
            (false, true) => {
                fill_left(&mut r.left);
                r.corner = r.left[0][0];
                r.top = [[r.corner; N]; 2];
            }
            (true, true) => {
                fill_top(&mut r.top);
                fill_left(&mut r.left);
                r.corner = i16::from(recon.get(x0 - 1, y0 - 1));
            }
        }
        r
    }

    /// Writes `mode`'s prediction into `out`, its `N` rows.
    fn predict_rows(&self, mode: PredMode, out: &mut [[i32; N]]) {
        self.lines(mode, &mut BlockSink { out });
    }

    /// The prediction block of `mode`.
    pub(crate) fn predict(&self, mode: PredMode) -> Block<N> {
        let mut out = [[0; N]; N];
        self.predict_rows(mode, &mut out);
        out
    }

    /// Starts the intra mode sweep of this block against `leaf`, its
    /// original: fills both directions' reference lines and the
    /// original's transpose once, for every [`SadSweep::score`] call that
    /// follows.
    pub(crate) fn sad_sweep(&self, leaf: &Block<N>) -> SadSweep<'_, N> {
        let mut vert = [[0; N]; 4];
        let mut horz = [[0; N]; 4];
        self.fill_ref_line(true, &mut vert);
        self.fill_ref_line(false, &mut horz);
        let leaf = leaf.map(|row| row.map(pixel));
        let mut leaf_t = [[0; N]; N];
        for (y, row) in leaf.iter().enumerate() {
            for (t, &v) in leaf_t.iter_mut().zip(row) {
                t[y] = v;
            }
        }
        SadSweep {
            refs: self,
            vert,
            horz,
            leaf,
            leaf_t,
        }
    }

    /// Feeds `mode`'s prediction to `sink`, line by line; the size is a
    /// type parameter, so every line loop has a fixed trip count.
    #[inline(always)]
    fn lines<S: LineSink<N>>(&self, mode: PredMode, sink: &mut S) {
        match mode {
            PredMode::Dc => self.dc_lines(sink),
            PredMode::Planar => self.planar_lines(sink),
            PredMode::Angular(m) => {
                let mut line: RefLine<N> = [[0; N]; 4];
                self.fill_ref_line(is_vertical(m), &mut line);
                self.angular_lines(m, line.as_flattened_mut(), sink);
            }
            PredMode::Paeth => self.paeth_lines(sink),
            PredMode::Smooth => self.smooth_lines(true, true, sink),
            PredMode::SmoothV => self.smooth_lines(true, false, sink),
            PredMode::SmoothH => self.smooth_lines(false, true, sink),
        }
    }

    fn dc_lines<S: LineSink<N>>(&self, sink: &mut S) {
        let sum: i32 = self.top[0]
            .iter()
            .chain(&self.left[0])
            .map(|&s| i32::from(s))
            .sum();
        // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(N).unwrap_or(32);
        let dc = pixel((sum + ni) / (2 * ni));
        for j in 0..N {
            sink.line(j, false, std::iter::repeat_n(dc, N));
        }
    }

    fn planar_lines<S: LineSink<N>>(&self, sink: &mut S) {
        // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(N).unwrap_or(32);
        let shift = N.trailing_zeros() + 1;
        debug_assert!(shift <= 6, "blocks are at most 32x32");
        let tr = i32::from(self.top[1][0]); // first top-right sample
        let bl = i32::from(self.left[1][0]); // first bottom-left sample
        for ((j, yi), &l) in (0..N).zip(0..ni).zip(&self.left[0]) {
            let l = i32::from(l);
            let row = (0..ni).zip(&self.top[0]).map(move |(xi, &t)| {
                let h = (ni - 1 - xi) * l + (xi + 1) * tr;
                let v = (ni - 1 - yi) * i32::from(t) + (yi + 1) * bl;
                pixel((h + v + ni) >> shift)
            });
            sink.line(j, false, row);
        }
    }

    /// Writes the direction-fixed part of the extended reference (see
    /// [`RefLine`]) into `arr`; the negative part is left for
    /// `angular_lines`.
    fn fill_ref_line(&self, vertical: bool, arr: &mut RefLine<N>) {
        // Main reference runs along the prediction direction's source edge.
        let main = if vertical { &self.top } else { &self.left };
        let arr = arr.as_flattened_mut();
        arr[N] = self.corner;
        arr[N + 1..=3 * N].copy_from_slice(main.as_flattened());
        arr[3 * N + 1] = main[1][N - 1];
    }

    /// Angular mode `mode` over `ref_arr`, the flattened extended
    /// reference of the mode's direction ([`RefLine`]): projects the side
    /// reference for negative angles, then feeds the `N` lines to `sink`.
    fn angular_lines<S: LineSink<N>>(&self, mode: u8, ref_arr: &mut [i16], sink: &mut S) {
        assert!((2..=34).contains(&mode), "angular mode {mode} out of range");
        let angle = ANGLES[mode as usize - 2];
        // The HEVC angle table spans ±32; the projection arithmetic below
        // relies on that to stay inside i32.
        debug_assert!((-32..=32).contains(&angle), "angle table out of range");
        let vertical = is_vertical(mode);
        // The side reference extends the main one for negative angles.
        let side = if vertical { &self.left } else { &self.top }.as_flattened();

        debug_assert!((4..=32).contains(&N), "blocks are 4x4 to 32x32");
        debug_assert!(ref_arr.len() >= 4 * N, "reference line too short");
        // Blocks are at most 32×32, so the conversion is exact and the
        // projected indices below stay within i32.
        let off = i32::try_from(N).unwrap_or(32); // ref_arr[(x + off)] = ref[x]
        if angle < 0 {
            let inv = inv_angle(angle);
            let lowest = (off * angle) >> 5; // most negative index used
            for x in (lowest..0).rev() {
                // Project onto the side reference.
                let idx = ((x * inv + 128) >> 8) - 1; // index into side[], -1 = corner
                let s = if idx < 0 {
                    self.corner
                } else {
                    side[usize::try_from(idx).unwrap_or(0).min(2 * N - 1)]
                };
                // `lowest >= -N`, so `x + off >= 0` always holds.
                ref_arr[usize::try_from(x + off).unwrap_or(0)] = s;
            }
        }
        let ref_arr = &*ref_arr;

        for (j, jj) in (0..N).zip(1..=off) {
            // j indexes rows for vertical modes, columns for horizontal.
            let pos = jj * angle;
            let int_part = pos >> 5;
            // `pos & 31` is a 1/32-pel position, so it fits i16.
            let frac = pixel(pos & 31);
            // Sample i reads ref[i + int_part + 1] and the one after it;
            // `-N <= int_part <= N`, so the line spans ref_arr[1..=3N+1].
            let base = usize::try_from(int_part + 1 + off).unwrap_or(0);
            let a = &ref_arr[base..base + N];
            let b = &ref_arr[base + 1..base + N + 1];
            sink.line(j, !vertical, angular_line(a, b, frac));
        }
    }

    fn paeth_lines<S: LineSink<N>>(&self, sink: &mut S) {
        let c = self.corner;
        for (j, &l) in self.left[0].iter().enumerate() {
            let row = self.top[0].iter().map(move |&t| {
                let base = t + l - c;
                let (dt, dl, dc) = ((base - t).abs(), (base - l).abs(), (base - c).abs());
                if dt <= dl && dt <= dc {
                    t
                } else if dl <= dc {
                    l
                } else {
                    c
                }
            });
            sink.line(j, false, row);
        }
    }

    /// Linear-weight smooth predictor ("AV1-like"; AV1 proper uses a
    /// quadratic weight table — the behaviour is equivalent for our
    /// purposes and documented in DESIGN.md).
    fn smooth_lines<S: LineSink<N>>(&self, use_v: bool, use_h: bool, sink: &mut S) {
        let bl = i32::from(self.left[1][0]); // bottom-left anchor
        let tr = i32::from(self.top[1][0]); // top-right anchor
                                            // Blocks are at most 32×32, so the size always fits i32.
        let ni = i32::try_from(N).unwrap_or(32);
        // 256 at i = 0 decaying linearly to 64 at i = n-1.
        let w = move |i: i32| -> i32 { (256 - (192 * i) / ni).max(64) };
        for ((j, yi), &l) in (0..N).zip(0..ni).zip(&self.left[0]) {
            let l = i32::from(l);
            let row = (0..ni).zip(&self.top[0]).map(move |(xi, &t)| {
                let t = i32::from(t);
                let mut acc = 0i32;
                let mut den = 0i32;
                if use_v {
                    acc += w(yi) * t + (256 - w(yi)) * bl;
                    den += 256;
                }
                if use_h {
                    acc += w(xi) * l + (256 - w(xi)) * tr;
                    den += 256;
                }
                pixel((acc + den / 2) / den)
            });
            sink.line(j, false, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_frame(v: u8) -> Frame {
        Frame::from_fn(32, 32, |_, _| v)
    }

    fn all_modes() -> Vec<PredMode> {
        PredMode::av1_set()
    }

    /// The SAD of every mode at every position of an `N × N` block, as
    /// the sweep scores it and from the predicted block.
    fn check_fused_sad<const N: usize>(f: &Frame, modes: &[PredMode]) {
        // Frame corner, top edge, left edge, interior (right/bottom
        // references run past the frame edge at the last position).
        for (x0, y0) in [(0, 0), (N, 0), (0, N), (96 - N, 96 - N), (32, 32)] {
            let refs = Refs::<N>::gather(f, x0, y0);
            // Score against a block other than the one predicted, so the
            // SAD is large and every sample contributes.
            let mut leaf = [[0; N]; N];
            f.read_block(96 - N - x0 / 2, y0 / 3, N, leaf.as_flattened_mut());
            // One sweep scores every mode twice, forwards then backwards:
            // a negative angle's projection never leaks into a later
            // mode, whatever the order.
            let all: Vec<u8> = (0..modes.len() as u8).collect();
            let backwards: Vec<u8> = all.iter().rev().copied().collect();
            let mut sweep = refs.sad_sweep(&leaf);
            let mut sads = Vec::new();
            sweep.score(modes, &all, |i, sad| sads.push((i, sad)));
            sweep.score(modes, &backwards, |i, sad| sads.push((i, sad)));
            let want: Vec<(u8, u64)> = all
                .iter()
                .chain(&backwards)
                .map(|&i| {
                    let pred = refs.predict(modes[usize::from(i)]);
                    let sad = leaf
                        .as_flattened()
                        .iter()
                        .zip(pred.as_flattened())
                        .map(|(&a, &b)| u64::from((a - b).unsigned_abs()))
                        .sum();
                    (i, sad)
                })
                .collect();
            assert_eq!(sads, want, "n={N} at ({x0},{y0})");
        }
    }

    #[test]
    fn fused_sad_matches_predicted_block_for_every_mode() {
        use llm265_tensor::rng::Pcg32;
        let mut rng = Pcg32::seed_from(21);
        // Random texture with full-range extremes, so every angle's
        // interpolation and every edge substitution shows up in the SAD.
        let f = Frame::from_fn(96, 96, |_, _| match rng.below(8) {
            0 => 0,
            1 => 255,
            _ => rng.below(256) as u8,
        });
        let mut modes = crate::Profile::h265().modes().to_vec();
        modes.extend_from_slice(crate::Profile::av1().modes());
        check_fused_sad::<4>(&f, &modes);
        check_fused_sad::<8>(&f, &modes);
        check_fused_sad::<16>(&f, &modes);
        check_fused_sad::<32>(&f, &modes);
    }

    #[test]
    fn mode_sets_sizes() {
        assert_eq!(PredMode::h265_set().len(), 35);
        assert_eq!(PredMode::h264_set().len(), 9);
        assert_eq!(PredMode::av1_set().len(), 39);
    }

    #[test]
    fn flat_references_predict_flat_block() {
        let f = flat_frame(77);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        for mode in all_modes() {
            let pred = refs.predict(mode);
            assert!(
                pred.iter().all(|&p| (p - 77).abs() <= 1),
                "mode {mode:?} broke flatness: {:?}",
                &pred[..4]
            );
        }
    }

    #[test]
    fn predictions_stay_in_pixel_range() {
        // Extreme checkerboard references must not overflow 0..=255.
        let f = Frame::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let refs = RefSamples::gather(&f, 16, 16, 8);
        for mode in all_modes() {
            let pred = refs.predict(mode);
            assert!(
                pred.iter().all(|&p| (0..=255).contains(&p)),
                "mode {mode:?} out of range"
            );
        }
    }

    #[test]
    fn extreme_block_sizes_stay_in_range_for_every_mode() {
        // n = 4 and n = 32 are the size invariant's two boundaries: the
        // planar shift hits its 6-bit cap, and the steepest negative
        // angle (±32) projects the longest side-reference run through
        // `x * inv_angle` at maximum magnitude. Extreme samples make any
        // wrap visible as an out-of-range prediction.
        let f = Frame::from_fn(64, 64, |x, y| if (x / 3 + y) % 2 == 0 { 0 } else { 255 });
        for n in [4usize, 32] {
            let refs = RefSamples::gather(&f, 32, 32, n);
            for mode in PredMode::h265_set() {
                let pred = refs.predict(mode);
                assert!(
                    pred.iter().all(|&p| (0..=255).contains(&p)),
                    "mode {mode:?} at n={n} out of range"
                );
            }
        }
    }

    #[test]
    fn vertical_mode_copies_top_row() {
        let f = Frame::from_fn(32, 32, |x, _| (x * 7 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(26)); // pure vertical
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], f.get(8 + x, 7) as i32);
            }
        }
    }

    #[test]
    fn horizontal_mode_copies_left_column() {
        let f = Frame::from_fn(32, 32, |_, y| (y * 11 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(10)); // pure horizontal
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], f.get(7, 8 + y) as i32);
            }
        }
    }

    #[test]
    fn dc_is_mean_of_edges() {
        let mut f = flat_frame(0);
        // Top edge = 100, left edge = 50.
        for i in 0..8 {
            f.set(8 + i, 7, 100);
            f.set(7, 8 + i, 50);
        }
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Dc);
        assert_eq!(pred[0], 75);
    }

    #[test]
    fn planar_interpolates_gradient() {
        // A gentle linear ramp should be predicted closely by planar. (The
        // HEVC planar anchors at the first top-right / bottom-left
        // reference samples, so steep gradients accrue corner error by
        // design — hence a mild slope here.)
        let f = Frame::from_fn(32, 32, |x, y| (x * 2 + y) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Planar);
        let mut max_err = 0;
        for y in 0..8 {
            for x in 0..8 {
                let actual = f.get(8 + x, 8 + y) as i32;
                max_err = max_err.max((pred[y * 8 + x] - actual).abs());
            }
        }
        assert!(max_err <= 11, "planar max err {max_err}");
    }

    #[test]
    fn frame_corner_block_predicts_mid_gray() {
        let f = Frame::from_fn(32, 32, |x, y| ((x * y) % 256) as u8);
        let refs = RefSamples::gather(&f, 0, 0, 8);
        let pred = refs.predict(PredMode::Dc);
        assert!(pred.iter().all(|&p| p == 128));
    }

    #[test]
    fn top_edge_block_substitutes_left() {
        let f = Frame::from_fn(32, 32, |_, y| (y * 8).min(255) as u8);
        // y0 = 0: no top refs; they substitute from the left column.
        let refs = RefSamples::gather(&f, 8, 0, 4);
        let pred = refs.predict(PredMode::Angular(26));
        // Substituted top refs equal left[0] = pixel (7, 0) = 0.
        assert!(pred.iter().all(|&p| p == f.get(7, 0) as i32));
    }

    #[test]
    fn diagonal_mode_tracks_diagonal_edge() {
        // Mode 34 predicts down-left at 45°: pred[x][y] = top[x+y+1].
        let f = Frame::from_fn(32, 32, |x, _| (x * 9 % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 4);
        let pred = refs.predict(PredMode::Angular(34));
        for y in 0..4usize {
            for x in 0..4usize {
                let expect = f.get(8 + x + y + 1, 7) as i32;
                assert_eq!(pred[y * 4 + x], expect, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn negative_angle_modes_use_both_edges() {
        // Mode 18 is the -32 diagonal (down-right): needs left refs too.
        let f = Frame::from_fn(32, 32, |x, y| ((x * 3 + y * 5) % 256) as u8);
        let refs = RefSamples::gather(&f, 8, 8, 8);
        let pred = refs.predict(PredMode::Angular(18));
        // pred[0][0] should equal the corner-adjacent diagonal source.
        assert_eq!(pred[0], i32::from(f.get(7, 7)));
        assert!(pred.iter().all(|&p| (0..=255).contains(&p)));
    }

    #[test]
    fn all_angular_modes_produce_valid_output_at_all_sizes() {
        let f = Frame::from_fn(64, 64, |x, y| ((x * 13 + y * 7) % 256) as u8);
        for &n in &[4usize, 8, 16, 32] {
            let refs = RefSamples::gather(&f, 32, 16, n);
            for m in 2..=34u8 {
                let pred = refs.predict(PredMode::Angular(m));
                assert_eq!(pred.len(), n * n);
                assert!(
                    pred.iter().all(|&p| (0..=255).contains(&p)),
                    "mode {m} size {n}"
                );
            }
        }
    }

    #[test]
    fn channel_structure_is_captured_by_directional_modes() {
        // Column-banded "weights" (channel-wise scales): vertical mode
        // should predict far better than DC — the paper's Fig 4 story.
        let f = Frame::from_fn(64, 64, |x, _| (((x / 4) * 31) % 200 + 20) as u8);
        let refs = RefSamples::gather(&f, 16, 16, 16);
        let sad = |pred: &[i32]| -> i64 {
            let mut s = 0i64;
            for y in 0..16 {
                for x in 0..16 {
                    s += (pred[y * 16 + x] - f.get(16 + x, 16 + y) as i32).abs() as i64;
                }
            }
            s
        };
        let vert = sad(&refs.predict(PredMode::Angular(26)));
        let dc = sad(&refs.predict(PredMode::Dc));
        assert!(vert * 4 < dc, "vertical {vert} vs dc {dc}");
        assert_eq!(vert, 0, "pure column structure predicts exactly");
    }
}
