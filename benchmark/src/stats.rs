//! Exact-sample statistics: the benchmark keeps every raw sample and
//! computes percentiles itself (no log buckets, no quantisation).

/// The percentiles a tail may be reported at.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (from 1) of percentile `p` among `n` samples. The small
/// slack keeps 99.9 % of 10 000 at rank 9990 although the product rounds
/// to 9990.000000000002.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile<T: Copy + Into<u64>>(sorted: &[T], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let v: u64 = sorted[rank(sorted.len(), p) - 1].into();
    v as f64
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest [`LADDER`] percentile, at most `want`, that `n` samples
/// support with [`MIN_BEYOND`] samples beyond it; the median when the
/// sample supports nothing higher.
pub fn supported_tail(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= want && n > 0 && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0])
}

/// Median and supported tail of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at.
    pub tail_pct: f64,
    pub tail: f64,
    pub mean: f64,
}

/// Sorts `samples` in place and summarises them; `want` is the tail
/// percentile asked for. `None` when there are no samples.
pub fn summarize<T: Copy + Ord + Into<u64>>(samples: &mut [T], want: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let tail_pct = supported_tail(samples.len(), want);
    let sum: f64 = samples.iter().map(|&v| v.into() as f64).sum();
    Some(Summary {
        count: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct,
        tail: percentile(samples, tail_pct),
        mean: sum / samples.len() as f64,
    })
}

/// Percentiles of the *typical stretch* of a run. `in_order` holds the
/// samples in completion order; it is cut into chunks of `chunk`
/// consecutive samples, each of `pcts` is taken of every whole chunk, and
/// the median over the chunks is returned per percentile. A slow phase of
/// the machine spoils the chunks it covers and not the figure, where a
/// percentile of the whole run moves as soon as the phase covers more of
/// the run than lies beyond the percentile (a tenth, for p90). Fewer
/// samples than one chunk count as one chunk; `None` without samples.
pub fn typical<T: Copy + Ord + Into<u64>>(
    in_order: &[T],
    chunk: usize,
    pcts: &[f64],
) -> Option<Vec<f64>> {
    if in_order.is_empty() {
        return None;
    }
    let mut per_pct = vec![Vec::new(); pcts.len()];
    for piece in in_order.chunks(chunk.max(1)) {
        if piece.len() < chunk && !per_pct[0].is_empty() {
            break; // the trailing partial chunk
        }
        let mut piece = piece.to_vec();
        piece.sort_unstable();
        for (values, &p) in per_pct.iter_mut().zip(pcts) {
            values.push(percentile(&piece, supported_tail(piece.len(), p)));
        }
    }
    Some(per_pct.iter_mut().map(|v| median(v)).collect())
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Sets something up `reps` (≥ 1) times; returns the last build and the
/// median time one took, in seconds.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("at least one repetition"), median(&mut times))
}

/// Mean of the middle half of `values`: as deaf to outliers as the
/// median, without its quantisation when the values are small counts.
pub fn midmean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no values");
    values.sort_by(|a, b| a.total_cmp(b));
    let cut = values.len() / 4;
    let mid = &values[cut..values.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Interquartile range over median, the spread the acceptance rule uses
/// (quartiles as Python's `statistics.quantiles(values, n=4)` gives them).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let q = |k: usize| {
        // The "exclusive" method: position k(n+1)/4 between the two
        // neighbouring order statistics, extrapolating at the ends.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo as f64)
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
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7u32], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(supported_tail(1000, 99.9), 99.0);
        assert_eq!(supported_tail(999, 99.9), 95.0);
        assert_eq!(supported_tail(10_000, 99.9), 99.9);
        // The asked-for percentile caps the answer.
        assert_eq!(supported_tail(1_000_000, 99.0), 99.0);
        // 20 samples support the median only; fewer still report it.
        assert_eq!(supported_tail(20, 99.0), 50.0);
        assert_eq!(supported_tail(39, 99.0), 50.0);
        assert_eq!(supported_tail(40, 99.0), 75.0);
        assert_eq!(supported_tail(3, 99.0), 50.0);
    }

    #[test]
    fn summary_sorts_and_reports_the_supported_tail() {
        let mut v: Vec<u32> = (1..=200).rev().collect();
        let s = summarize(&mut v, 99.0).unwrap();
        assert_eq!(
            (s.count, s.p50, s.tail_pct, s.tail),
            (200, 100.0, 95.0, 190.0)
        );
        assert_eq!(s.mean, 100.5);
        assert!(summarize::<u32>(&mut [], 99.0).is_none());
    }

    #[test]
    fn typical_percentiles_ignore_a_slow_phase() {
        // 10 chunks of 100 samples 1..=100; a slow phase triples two chunks.
        let mut v: Vec<u32> = (0..1000).map(|i| i % 100 + 1).collect();
        for x in &mut v[300..500] {
            *x *= 3;
        }
        assert_eq!(typical(&v, 100, &[50.0, 90.0]), Some(vec![50.0, 90.0]));
        // The whole run's p90 sits inside the slow phase.
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert!(percentile(&sorted, 90.0) > 100.0);
        // A trailing partial chunk is dropped; a short run is one chunk.
        assert_eq!(typical(&v[..250], 100, &[50.0]), Some(vec![50.0]));
        assert_eq!(typical(&v[..40], 100, &[50.0]), Some(vec![20.0]));
        assert_eq!(typical::<u32>(&[], 100, &[50.0]), None);
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        assert_eq!(
            midmean(&mut [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]),
            3.5
        );
        assert_eq!(midmean(&mut [7.0]), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
