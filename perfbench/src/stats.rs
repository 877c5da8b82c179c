//! Order statistics and fairness, allocation-free where the measured
//! windows use them.

/// Percentiles tried, lowest first, when choosing the highest one a
/// sample supports.
pub const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n`:
/// the smallest index whose rank covers `p` percent of the sample.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps float error in `p / 100 * n` from pushing an
    // exact rank (99.999% of a million) up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-6).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of a float sample (sorts a copy).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank_index(s.len(), p)]
}

/// Median of a float sample: the mean of the two middle values when the
/// count is even.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A timing as the guides ask for it: the median, the highest percentile
/// the sample supports with its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the sample.
    pub median: f64,
    /// Highest supported percentile (`None` below 11 samples).
    pub high_p: Option<f64>,
    /// Value at `high_p` (the maximum when unsupported).
    pub high: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarize a non-empty float sample.
pub fn summarize(v: &[f64]) -> Summary {
    let high_p = highest_supported(v.len());
    let high = match high_p {
        Some(p) => percentile(v, p),
        None => v.iter().copied().fold(f64::MIN, f64::max),
    };
    Summary {
        median: median(v),
        high_p,
        high,
        n: v.len(),
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 for perfectly even
/// service, `1/n` when one of `n` flows gets everything. An empty or
/// all-zero population has no fairness to speak of and reads 0.
pub fn jain_index<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let (mut n, mut sum, mut sq) = (0f64, 0f64, 0f64);
    for c in counts {
        let x = c as f64;
        n += 1.0;
        sum += x;
        sq += x * x;
    }
    if sq == 0.0 {
        return 0.0;
    }
    (sum * sum) / (n * sq)
}
