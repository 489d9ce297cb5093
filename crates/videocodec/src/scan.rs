//! Coefficient scan orders.
//!
//! Quantized transform coefficients concentrate around the DC corner; the
//! entropy coder exploits that by visiting positions in up-right diagonal
//! order (as H.265 does), so significant coefficients cluster at the start
//! of the scan and the "last significant position" syntax element is small.

/// Returns the diagonal scan order for an `n × n` block: scan position →
/// raster index `y·n + x`. DC is first.
///
/// # Panics
///
/// Panics if `n` is not 4, 8, 16 or 32.
pub fn diagonal(n: usize) -> &'static [u16] {
    match n {
        4 => raster::<4>(),
        8 => raster::<8>(),
        16 => raster::<16>(),
        32 => raster::<32>(),
        #[allow(
            clippy::panic,
            reason = "scan sizes come from profile constants (powers of two in 4..=32), \
                      never from bitstream input"
        )]
        _ => panic!("unsupported scan size {n}"),
    }
}

/// The diagonal scan of an `N × N` block as raster indices, a table
/// built at compile time.
fn raster<const N: usize>() -> &'static [u16] {
    const { &build::<N>() }.as_flattened()
}

const fn build<const N: usize>() -> [[u16; N]; N] {
    let mut order = [[0u16; N]; N];
    let mut p = 0;
    // Up-right diagonals: within diagonal d = x + y, go from bottom-left
    // (large y) to top-right, matching HEVC's diagScan.
    let mut d = 0;
    while d + 1 < 2 * N {
        let mut y = N;
        while y > 0 {
            y -= 1;
            if d >= y && d - y < N {
                // `N <= 32`, so a raster index always fits 16 bits.
                order[p / N][p % N] = ((y * N + d - y) & 0xFFFF) as u16;
                p += 1;
            }
        }
        d += 1;
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
            for &idx in scan {
                let idx = usize::from(idx);
                assert!(!seen[idx], "duplicate at {idx}");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn dc_is_first() {
        for &n in &[4usize, 8, 16, 32] {
            assert_eq!(diagonal(n)[0], 0);
        }
    }

    #[test]
    fn diagonals_are_monotonic() {
        let scan = diagonal(8);
        let mut prev_d = 0;
        for &idx in scan {
            let d = usize::from(idx % 8 + idx / 8);
            assert!(d >= prev_d, "diagonal went backwards");
            prev_d = d;
        }
    }

    #[test]
    fn four_by_four_matches_reference() {
        // HEVC up-right diagonal scan for 4x4.
        let expect: Vec<(u16, u16)> = vec![
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
        let expect: Vec<u16> = expect.iter().map(|&(x, y)| y * 4 + x).collect();
        assert_eq!(diagonal(4), expect.as_slice());
    }
}
