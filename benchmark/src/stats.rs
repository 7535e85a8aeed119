//! Order statistics for the benchmark's reports.

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`); 0 when
/// empty so an absent layer reports 0 instead of failing the run.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// For rows that timed the same pieces of work in the same order: each
/// piece's median over the rows. An even count takes the lower middle
/// value, because what disturbs a timing (preemption, a throttled core)
/// only ever adds to it. Rows are cut to the shortest.
pub fn median_per_position<'a, T>(rows: &'a [T], values: impl Fn(&'a T) -> &'a [f64]) -> Vec<f64> {
    let len = rows.iter().map(|r| values(r).len()).min().unwrap_or(0);
    (0..len)
        .map(|at| {
            let mut column: Vec<f64> = rows.iter().map(|r| values(r)[at]).collect();
            sort(&mut column);
            column[(column.len() - 1) / 2]
        })
        .collect()
}

/// The percentile ladder reports are allowed to quote.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Whether `samples` leaves at least ten samples beyond percentile `p`
/// — a tail quoted from fewer is one outlier, not a distribution.
pub fn supports(samples: usize, p: f64) -> bool {
    // The slack absorbs `1 - 0.9` not being exactly 0.1.
    samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest ladder percentile `samples` supports.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    LADDER.into_iter().rev().find(|&p| supports(samples, p)).unwrap_or(LADDER[0])
}

/// `p` clamped to what `samples` supports, with the value at that
/// percentile: asking for p99 of 300 samples answers with p95.
pub fn supported_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    let p = p.min(highest_supported_percentile(sorted.len()));
    (p, quantile_sorted(sorted, p / 100.0))
}

/// Interquartile range over the median, the way the driver computes a
/// metric's run-to-run spread (`statistics.quantiles(values, n=4)`,
/// exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let med = q(2);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_pick_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), 50.0);
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn supported_percentile_falls_back_down_the_ladder() {
        let sorted: Vec<f64> = (1..=300).map(f64::from).collect();
        let (p, v) = supported_percentile(&sorted, 99.0);
        assert_eq!(p, 95.0);
        assert_eq!(v, quantile_sorted(&sorted, 0.95));
        let (p, _) = supported_percentile(&sorted, 50.0);
        assert_eq!(p, 50.0);
    }

    #[test]
    fn quantiles_are_nearest_rank_and_total() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
    }

    #[test]
    fn median_per_position_votes_out_a_stall_in_one_row() {
        let rows = [vec![1.0, 2.0, 3.0], vec![1.5, 90.0, 3.5], vec![70.0, 2.5, 2.5, 8.0]];
        assert_eq!(median_per_position(&rows, |r| r), vec![1.5, 2.5, 3.0]);
        // An even count takes the lower middle value.
        assert_eq!(median_per_position(&rows[..2], |r| r), vec![1.0, 2.0, 3.0]);
        assert!(median_per_position(&rows[..0], |r| r).is_empty());
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
