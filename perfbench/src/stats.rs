//! The benchmark's own arithmetic: order statistics and summaries.
//!
//! Every reported timing is a statistic of many repetitions inside one
//! run; these functions are the only place that turns samples into the
//! numbers that get printed.

/// Sorts a copy of `values` ascending. NaN sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank quantile of already sorted values: the element at index
/// `⌈q·n⌉ − 1`, clamped to the slice, so `q = 0` gives the minimum and
/// `q = 1` the maximum. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Median of unsorted values: the middle element, or the mean of the two
/// middle elements for an even count. `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is how run-to-run spread is judged. A single value is its own
/// quartiles; `None` for no values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Sample standard deviation (`n − 1` in the denominator); 0 below two
/// values.
pub fn stddev(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    var.sqrt()
}

/// Whether a smaller or a larger value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes, ratios of waste.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The ledger shape of one per-layer metric: best, median and standard
/// deviation over `n` repetitions, plus the quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Repetitions summarised.
    pub n: usize,
    /// Lowest value for a lower-is-better metric, highest otherwise.
    pub best: f64,
    /// Median value.
    pub median: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// First and third quartile.
    pub quartiles: (f64, f64),
}

impl Summary {
    /// Summarises `values`; `None` for no values.
    pub fn of(values: &[f64], better: Better) -> Option<Summary> {
        let s = sorted(values);
        let best = match better {
            Better::Lower => *s.first()?,
            Better::Higher => *s.last()?,
        };
        Some(Summary {
            n: s.len(),
            best,
            median: median(&s)?,
            stddev: stddev(&s),
            quartiles: quartiles(&s)?,
        })
    }
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn error_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Nearest-rank percentiles of request latencies in which a failed
/// request counts as slower than any other (`+∞`).
pub fn latency_quantile(latencies_ms: &[(f64, bool)], q: f64) -> Option<f64> {
    let values: Vec<f64> = latencies_ms
        .iter()
        .map(|&(ms, ok)| if ok { ms } else { f64::INFINITY })
        .collect();
    nearest_rank(&sorted(&values), q)
}

/// `value_ms` as it would read on a host whose speed probe takes
/// `reference_ms` a round: scaled by `reference_ms` ÷ the median of the
/// run's `probe_ms`. `None` without probe rounds.
pub fn at_reference_speed(value_ms: f64, probe_ms: &[f64], reference_ms: f64) -> Option<f64> {
    let probe = median(probe_ms)?;
    (probe > 0.0).then(|| value_ms * reference_ms / probe)
}
