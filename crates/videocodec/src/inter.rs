//! Inter-frame motion prediction.
//!
//! Included to reproduce the paper's *negative* result: Fig 2(b) step
//! 5→6 shows that enabling inter-frame prediction does not reduce the
//! bits/value of tensor compression — consecutive LLM layers have little
//! pixel-level correlation — which is why LLM.265 enforces intra-only
//! coding and why §6.2 proposes removing the inter machinery from the
//! hardware entirely. The implementation is a classic full-pel diamond of
//! full-search SAD over a bounded window against the previous
//! reconstructed frame.

use crate::Frame;

/// Motion search range in pixels (full search ±RANGE in each axis).
pub const SEARCH_RANGE: i32 = 8;

/// A full-pel motion vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal displacement in pixels.
    pub dx: i8,
    /// Vertical displacement in pixels.
    pub dy: i8,
}

/// Sum of absolute differences between the block at `(x0, y0)` in `cur`
/// and the displaced block in `reference` (edge-clamped reads).
pub fn sad(
    cur: &Frame,
    reference: &Frame,
    x0: usize,
    y0: usize,
    n: usize,
    mv: MotionVector,
) -> u64 {
    let mut acc = 0u64;
    for y in 0..n {
        for x in 0..n {
            let a = cur.get(x0 + x, y0 + y) as i64;
            // Coordinates are bounded by frame dimensions, far below
            // isize::MAX; `try_from` keeps the conversion explicit.
            let b = reference.get_clamped(
                isize::try_from(x0 + x).unwrap_or(isize::MAX) + isize::from(mv.dx),
                isize::try_from(y0 + y).unwrap_or(isize::MAX) + isize::from(mv.dy),
            ) as i64;
            acc += (a - b).unsigned_abs();
        }
    }
    acc
}

/// Full-search motion estimation: returns the motion vector minimizing SAD
/// within ±[`SEARCH_RANGE`], with a small per-bit MV penalty so zero-MV is
/// preferred on ties.
pub fn motion_search(
    cur: &Frame,
    reference: &Frame,
    x0: usize,
    y0: usize,
    n: usize,
) -> (MotionVector, u64) {
    let mut best = MotionVector::default();
    let mut best_cost = sad(cur, reference, x0, y0, n, best);
    for dy in -SEARCH_RANGE..=SEARCH_RANGE {
        for dx in -SEARCH_RANGE..=SEARCH_RANGE {
            if dx == 0 && dy == 0 {
                continue;
            }
            let mv = MotionVector {
                dx: dx.clamp(-128, 127) as i8,
                dy: dy.clamp(-128, 127) as i8,
            };
            // Penalty approximates the MV's coding cost.
            let penalty = 2 * (u64::from(dx.unsigned_abs()) + u64::from(dy.unsigned_abs()));
            let cost = sad(cur, reference, x0, y0, n, mv) + penalty;
            if cost < best_cost {
                best_cost = cost;
                best = mv;
            }
        }
    }
    (best, best_cost)
}

/// Builds the motion-compensated prediction block for `mv` in `out`, its
/// row-major `n × n` block: the encoder and decoder predict every inter
/// leaf into a fixed-size block.
pub fn compensate(
    reference: &Frame,
    x0: usize,
    y0: usize,
    n: usize,
    mv: MotionVector,
    out: &mut [i32],
) {
    for (y, row) in out.chunks_exact_mut(n).take(n).enumerate() {
        for (x, o) in row.iter_mut().enumerate() {
            *o = reference.get_clamped(
                isize::try_from(x0 + x).unwrap_or(isize::MAX) + isize::from(mv.dx),
                isize::try_from(y0 + y).unwrap_or(isize::MAX) + isize::from(mv.dy),
            ) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> Frame {
        Frame::from_fn(w, h, |x, y| ((x * 7 + y * 13 + (x * y) / 3) % 256) as u8)
    }

    #[test]
    fn zero_motion_on_identical_frames() {
        let f = textured(64, 64);
        let (mv, cost) = motion_search(&f, &f, 16, 16, 16);
        assert_eq!(mv, MotionVector::default());
        assert_eq!(cost, 0);
    }

    #[test]
    fn finds_pure_translation() {
        let reference = textured(64, 64);
        // Current frame = reference shifted right by 3, down by 2.
        let cur = Frame::from_fn(64, 64, |x, y| {
            reference.get_clamped(x as isize - 3, y as isize - 2)
        });
        let (mv, _) = motion_search(&cur, &reference, 24, 24, 16);
        assert_eq!((mv.dx, mv.dy), (-3, -2));
        // Compensation with the found MV reproduces the block exactly.
        let mut pred = vec![0; 16 * 16];
        compensate(&reference, 24, 24, 16, mv, &mut pred);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(pred[y * 16 + x], cur.get(24 + x, 24 + y) as i32);
            }
        }
    }

    #[test]
    fn uncorrelated_frames_give_high_sad() {
        let a = textured(64, 64);
        let b = Frame::from_fn(64, 64, |x, y| ((x * 151 + y * 211) % 256) as u8);
        let (_, cost) = motion_search(&a, &b, 16, 16, 16);
        // No displacement explains unrelated content.
        assert!(cost > 16 * 16 * 10, "cost {cost}");
    }

    #[test]
    fn compensation_clamps_at_edges() {
        let reference = textured(32, 32);
        let mut pred = vec![7; 100];
        compensate(
            &reference,
            0,
            0,
            8,
            MotionVector { dx: -5, dy: -5 },
            &mut pred,
        );
        // All reads clamp to the frame's top-left region; first pixel is
        // (0,0). Only the 8 × 8 block is written.
        assert_eq!(pred[0], reference.get(0, 0) as i32);
        assert!(pred[64..].iter().all(|&p| p == 7));
    }

    #[test]
    fn sad_is_zero_iff_blocks_match() {
        let f = textured(32, 32);
        assert_eq!(sad(&f, &f, 8, 8, 8, MotionVector::default()), 0);
        let shifted = MotionVector { dx: 1, dy: 0 };
        assert!(sad(&f, &f, 8, 8, 8, shifted) > 0);
    }
}
