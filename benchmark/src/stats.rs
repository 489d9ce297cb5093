//! Order statistics and rates for the benchmark's samples.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// figure resting on fewer is one slow request, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// percentile's rank, which refuses a p90 below 100 samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// Merges per-pass request latencies into one latency per request: its
/// fastest pass. Interference from other processes only ever adds time,
/// so the minimum over passes spread across the run is the reading least
/// disturbed by it. Failed calls are timed like the others (the failure
/// is counted elsewhere), so every request has a latency and a failing
/// request never leaves a percentile short of samples.
pub fn best_of(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Bytes of the f32 tensors a request moves: 4 B per value, the same
/// denominator `BENCH_codec.json` uses.
pub fn f32_bytes(values: usize) -> usize {
    values * 4
}

/// Throughput in MB/s (10^6 bytes per second).
pub fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e6
}

/// Median as Python's `statistics.median` computes it (the mean of the
/// middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the acceptance rule compares against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(40), 90.0), None);
        assert_eq!(percentile(&ramp(32), 90.0), None);
        // A median needs only twenty samples.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(120);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Some(108.0));
        assert_eq!(percentile(&v, 50.0), Some(60.0));
    }

    #[test]
    fn best_of_takes_each_requests_fastest_pass() {
        let passes = vec![
            vec![3.0, 1.5, 5.0],
            vec![2.0, 1.0, 7.0],
            // A shorter pass leaves the later requests to the others.
            vec![4.0, 0.5],
        ];
        assert_eq!(best_of(&passes), vec![2.0, 0.5, 5.0]);
        assert!(best_of(&[]).is_empty());
    }

    #[test]
    fn throughput_counts_f32_input_bytes() {
        // A 256×256 tensor is 262144 B of f32; moved in 2 ms, 131.072 MB/s.
        assert_eq!(f32_bytes(256 * 256), 262_144);
        let r = mb_per_s(f32_bytes(256 * 256), 0.002);
        assert!((r - 131.072).abs() < 1e-9, "{r}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&ramp(10)), Some(5.5));
        assert_eq!(median(&ramp(5)), Some(3.0));
        let s = spread(&ramp(10)).expect("spread");
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }
}
