//! Tensor ↔ frame chunking and 8-bit affine quantization.
//!
//! NVENC/NVDEC limit frame dimensions, so the paper partitions each input
//! tensor into multiple chunks, each corresponding to a frame, and rounds
//! FP16 values to 8-bit integers before feeding the codec (§3.2). This
//! module implements that mapping: row-band chunks, per-chunk min–max
//! affine quantization to the Luma plane, and the inverse.

use llm265_tensor::Tensor;
use llm265_videocodec::Frame;

use crate::pool;
use crate::CodecError;

/// A chunk: one frame plus the affine map that restores values.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// First tensor row covered by this chunk.
    pub row0: usize,
    /// The 8-bit Luma frame (width = tensor cols, height = the chunk's
    /// rows).
    pub frame: Frame,
    /// Value of pixel 0: `value = lo + pixel * scale`.
    pub lo: f32,
    /// Step per pixel level.
    pub scale: f32,
}

/// Splits `t` into row-band chunks of at most `max_pixels` values each and
/// quantizes each band to 8 bits with its own min–max affine map.
///
/// Bands are quantized on the deterministic [`pool`] (`threads == 0`
/// resolves to the machine's parallelism): each band's affine map and
/// pixels depend only on its own tensor rows, so the output is identical
/// at every thread count.
///
/// # Errors
///
/// Returns [`CodecError::Internal`] if a pool worker panics.
///
/// # Panics
///
/// Panics if `t` is empty or `max_pixels < t.cols()`.
pub fn partition(t: &Tensor, max_pixels: usize, threads: usize) -> Result<Vec<Chunk>, CodecError> {
    assert!(!t.is_empty(), "cannot chunk an empty tensor");
    assert!(
        max_pixels >= t.cols(),
        "max_pixels {} smaller than one row ({})",
        max_pixels,
        t.cols()
    );
    let rows_per_chunk = rows_per_chunk(t.rows(), t.cols(), max_pixels);
    pool::run_ordered(t.rows().div_ceil(rows_per_chunk), threads, |i| {
        let (row0, rows) = band(i, t.rows(), rows_per_chunk);
        quantize_band(t, row0, rows)
    })
}

/// Rows per chunk for a `rows × cols` tensor under a `max_pixels` frame
/// budget: as many whole rows as fit, at least one, at most `rows`.
pub(crate) fn rows_per_chunk(rows: usize, cols: usize, max_pixels: usize) -> usize {
    (max_pixels / cols).max(1).min(rows)
}

/// Chunk `i`'s rows `(row0, rows)`: bands of `rows_per_chunk` rows top
/// to bottom, the last one taking the remainder. The encoder and the
/// stream parser both place chunks with this, so the wire never carries
/// a chunk's rows.
pub(crate) fn band(i: usize, rows: usize, rows_per_chunk: usize) -> (usize, usize) {
    let row0 = i * rows_per_chunk;
    (row0, rows_per_chunk.min(rows - row0))
}

fn quantize_band(t: &Tensor, row0: usize, rows: usize) -> Chunk {
    let cols = t.cols();
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for r in row0..row0 + rows {
        for &v in t.row(r) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        // Non-finite values collapse to a flat chunk at zero; the paper's
        // FP16 inputs never carry NaN/Inf into the codec.
        lo = 0.0;
        hi = 0.0;
    }
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
    // `scale` is assigned exactly 0.0 for flat chunks one line up; this guards
    // the division inside the kernel.
    let frame = if scale == 0.0 {
        Frame::from_vec(cols, rows, vec![0u8; cols * rows])
    } else {
        // Row-wise affine map (`lanes::affine_map_u8`, bit-identical on
        // every CPU); non-finite values collapse to pixel 0, same as the
        // flat path.
        let mut data = vec![0u8; cols * rows];
        for (y, out_row) in data.chunks_exact_mut(cols).enumerate() {
            llm265_videocodec::lanes::affine_map_u8(t.row(row0 + y), lo, scale, out_row);
        }
        Frame::from_vec(cols, rows, data)
    };
    Chunk {
        row0,
        frame,
        lo,
        scale,
    }
}

/// Restores a chunk's frame (possibly the codec's lossy reconstruction)
/// into the destination tensor, starting at tensor row `row0`. Rows are
/// paired up by iteration, so no index is computed from the frame's
/// dimensions.
///
/// # Panics
///
/// Panics if the chunk does not fit `dst`.
pub fn dequantize_into(dst: &mut Tensor, frame: &Frame, row0: usize, lo: f32, scale: f32) {
    assert!(row0 + frame.height() <= dst.rows() && frame.width() == dst.cols());
    let cols = dst.cols();
    let dst_rows = dst.data_mut().chunks_exact_mut(cols).skip(row0);
    for (out, px) in dst_rows.zip(frame.data().chunks_exact(cols)) {
        for (v, &p) in out.iter_mut().zip(px) {
            *v = lo + f32::from(p) * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;

    fn sample_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        Tensor::from_fn(rows, cols, |_, _| (rng.normal() * 0.05) as f32)
    }

    #[test]
    fn partition_covers_all_rows_without_overlap() {
        let t = sample_tensor(100, 32, 1);
        let chunks = partition(&t, 32 * 24, 1).expect("partition");
        let mut next = 0;
        for c in &chunks {
            assert_eq!(c.row0, next);
            assert_eq!(c.frame.width(), 32);
            next += c.frame.height();
        }
        assert_eq!(next, 100);
        // 24-row bands: 100 = 24*4 + 4.
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks.last().unwrap().frame.height(), 4);
    }

    #[test]
    fn single_chunk_when_tensor_fits() {
        let t = sample_tensor(16, 16, 2);
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let t = sample_tensor(32, 32, 3);
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        let c = &chunks[0];
        let mut out = Tensor::zeros(32, 32);
        dequantize_into(&mut out, &c.frame, c.row0, c.lo, c.scale);
        for (a, b) in t.data().iter().zip(out.data()) {
            assert!((a - b).abs() <= c.scale * 0.5 + 1e-7);
        }
        // 8-bit quantization noise is tiny relative to the signal.
        let nmse = stats::tensor_mse(&t, &out) / stats::variance(t.data());
        assert!(nmse < 2e-3, "8-bit quantization nmse {nmse}");
    }

    #[test]
    fn constant_tensor_roundtrips_exactly() {
        let t = Tensor::full(8, 8, 0.125);
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        assert_eq!(chunks[0].scale, 0.0);
        let mut out = Tensor::zeros(8, 8);
        let c = &chunks[0];
        dequantize_into(&mut out, &c.frame, c.row0, c.lo, c.scale);
        assert_eq!(out, t);
    }

    #[test]
    fn extremes_map_to_0_and_255() {
        let mut t = Tensor::zeros(2, 2);
        t[(0, 0)] = -1.0;
        t[(1, 1)] = 3.0;
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        let c = &chunks[0];
        assert_eq!(c.frame.get(0, 0), 0);
        assert_eq!(c.frame.get(1, 1), 255);
        assert_eq!(c.lo, -1.0);
    }

    #[test]
    fn non_finite_values_do_not_poison_the_chunk() {
        let mut t = Tensor::zeros(2, 2);
        t[(0, 0)] = f32::NAN;
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        // Must not panic; chunk degrades to flat.
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn band_quantization_matches_the_scalar_expression() {
        // Odd width exercises the lane kernels' remainder path; the NaN
        // is ignored by the min/max scan (f32::min/max skip NaN) but must
        // still collapse to pixel 0.
        let mut t = sample_tensor(9, 13, 7);
        t[(0, 1)] = f32::NAN;
        let chunks = partition(&t, 1 << 20, 1).expect("partition");
        let c = &chunks[0];
        assert!(c.scale > 0.0);
        for y in 0..t.rows() {
            for x in 0..t.cols() {
                let v = t[(y, x)];
                let want = if !v.is_finite() {
                    0
                } else {
                    (((v - c.lo) / c.scale).round()).clamp(0.0, 255.0) as u8
                };
                assert_eq!(c.frame.get(x, y), want, "pixel ({x}, {y})");
            }
        }
    }

    #[test]
    fn per_chunk_scaling_isolates_outlier_bands() {
        // An outlier in one band must not destroy resolution in another.
        let mut t = sample_tensor(64, 16, 4);
        t[(0, 0)] = 100.0; // huge outlier in the first band
        let chunks = partition(&t, 16 * 32, 1).expect("partition"); // two bands of 32 rows
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].scale > 10.0 * chunks[1].scale);
    }
}
