//! Coefficient scan orders.
//!
//! Quantized transform coefficients concentrate around the DC corner; the
//! entropy coder exploits that by visiting positions in up-right diagonal
//! order (as H.265 does), so significant coefficients cluster at the start
//! of the scan and the "last significant position" syntax element is small.

use std::sync::OnceLock;

/// Returns the diagonal scan order for an `n × n` block: scan position →
/// `(x, y)`. DC is first.
///
/// # Panics
///
/// Panics if `n` is not 4, 8, 16 or 32.
pub fn diagonal(n: usize) -> &'static [(u8, u8)] {
    static SCANS: OnceLock<[Vec<(u8, u8)>; 4]> = OnceLock::new();
    let scans = SCANS.get_or_init(|| [build(4), build(8), build(16), build(32)]);
    match n {
        4 => &scans[0],
        8 => &scans[1],
        16 => &scans[2],
        32 => &scans[3],
        #[allow(
            clippy::panic,
            reason = "scan sizes come from profile constants (powers of two in 4..=32), \
                      never from bitstream input"
        )]
        _ => panic!("unsupported scan size {n}"),
    }
}

fn build(n: usize) -> Vec<(u8, u8)> {
    let mut order = Vec::with_capacity(n * n);
    // Up-right diagonals: within diagonal d = x + y, go from bottom-left
    // (large y) to top-right, matching HEVC's diagScan.
    for d in 0..2 * n - 1 {
        for y in (0..n).rev() {
            if d >= y {
                let x = d - y;
                if x < n {
                    // `n <= 32`, so coordinates always fit a byte.
                    order.push(((x & 0xFF) as u8, (y & 0xFF) as u8));
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_is_a_permutation() {
        for &n in &[4usize, 8, 16, 32] {
            let scan = diagonal(n);
            assert_eq!(scan.len(), n * n);
            let mut seen = vec![false; n * n];
            for &(x, y) in scan {
                let idx = y as usize * n + x as usize;
                assert!(!seen[idx], "duplicate at ({x},{y})");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn dc_is_first() {
        for &n in &[4usize, 8, 16, 32] {
            assert_eq!(diagonal(n)[0], (0, 0));
        }
    }

    #[test]
    fn diagonals_are_monotonic() {
        let scan = diagonal(8);
        let mut prev_d = 0;
        for &(x, y) in scan {
            let d = x as usize + y as usize;
            assert!(d >= prev_d, "diagonal went backwards");
            prev_d = d;
        }
    }

    #[test]
    fn four_by_four_matches_reference() {
        // HEVC up-right diagonal scan for 4x4.
        let expect: Vec<(u8, u8)> = vec![
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
            (0, 3),
            (1, 2),
            (2, 1),
            (3, 0),
            (1, 3),
            (2, 2),
            (3, 1),
            (2, 3),
            (3, 2),
            (3, 3),
        ];
        assert_eq!(diagonal(4), expect.as_slice());
    }
}
