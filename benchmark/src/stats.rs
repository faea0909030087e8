//! Order statistics the report is built from. All of them are pure
//! functions of their input so they can be unit-tested without running a
//! workload.

/// Sorted copy (total order, so a stray NaN cannot panic the report).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in `(0, 100]`; 0 for an empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the usual midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for an empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Throughput that shrugs off one noisy-neighbour burst: the ops are cut
/// into `segments` contiguous runs of equal op count (a remainder at the
/// tail is left out), each run's rate is `counted ÷ wall`, and the median
/// run is reported. `counted[i]` is how many results op `i` produced that
/// count as work done (1 for a train op; trained completions for a
/// gateway submit).
pub fn segment_median_rate(wall_s: &[f64], counted: &[u32], segments: usize) -> f64 {
    assert_eq!(wall_s.len(), counted.len());
    let per = wall_s.len() / segments.max(1);
    if per == 0 {
        let wall: f64 = wall_s.iter().sum();
        let done: u32 = counted.iter().sum();
        return if wall > 0.0 { done as f64 / wall } else { 0.0 };
    }
    let rates: Vec<f64> = (0..segments)
        .map(|s| {
            let r = s * per..(s + 1) * per;
            let wall: f64 = wall_s[r.clone()].iter().sum();
            let done: u32 = counted[r].iter().sum();
            done as f64 / wall
        })
        .collect();
    median(&rates)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), so the spread this tool
/// prints is the one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// values or at a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // Order of the input does not matter; one sample is every percentile.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn segment_median_ignores_one_slow_burst() {
        // 10 ops of 1 s, except one segment that ran 10x slower.
        let mut wall = vec![1.0; 10];
        wall[4] = 10.0;
        wall[5] = 10.0;
        let counted = vec![1u32; 10];
        assert_eq!(segment_median_rate(&wall, &counted, 5), 1.0);
        // The plain mean would have been dragged down.
        assert!(10.0 / wall.iter().sum::<f64>() < 0.5);
    }

    #[test]
    fn segment_rate_counts_work_not_calls() {
        // Every second op produced nothing (a shed): rate halves.
        let wall = vec![0.5; 20];
        let counted: Vec<u32> = (0..20).map(|i| i % 2).collect();
        assert_eq!(segment_median_rate(&wall, &counted, 5), 1.0);
        // Fewer ops than segments falls back to the overall rate.
        assert_eq!(segment_median_rate(&[2.0, 2.0], &[1, 1], 5), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
