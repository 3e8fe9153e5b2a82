//! Order statistics for latency samples: percentiles, the highest
//! percentile a sample supports, medians over time windows, and the
//! quartile spread two run-sets are compared with.

/// One measured operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the operation started (closed loop) or was due (open loop),
    /// in nanoseconds from the start of the timed phase; negative during
    /// warm-up.
    pub at_ns: i64,
    /// Latency in nanoseconds, measured from `at_ns`.
    pub lat_ns: u64,
    /// The reply was a 200 that passed every check.
    pub ok: bool,
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 1`); 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() as usize >= MIN_BEYOND
}

/// The highest of p99 / p95 / p90 / p50 that `n` samples support.
pub fn highest_supported(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| supports(n, p))
        .unwrap_or(0.50)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A value taken once per window: its median over the windows and
/// `(max - min) / median`, the within-run spread printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    pub value: f64,
    pub spread: f64,
}

/// A value taken once for the whole run has no window spread.
impl From<f64> for Windowed {
    fn from(value: f64) -> Windowed {
        Windowed { value, spread: 0.0 }
    }
}

pub fn over_windows(per_window: &[f64]) -> Windowed {
    let value = median(per_window);
    let (lo, hi) = per_window
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let spread = if per_window.is_empty() || value == 0.0 {
        0.0
    } else {
        (hi - lo) / value
    };
    Windowed { value, spread }
}

/// The timed samples (`at_ns >= 0`) split into `n_windows` equal windows of
/// the `phase_ns`-long timed phase, by start time.
pub fn windows(samples: &[Sample], phase_ns: u64, n_windows: usize) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); n_windows];
    let width = (phase_ns / n_windows as u64).max(1);
    for s in samples.iter().filter(|s| s.at_ns >= 0) {
        let w = (s.at_ns as u64 / width) as usize;
        // A request due exactly at the end belongs to the last window.
        out[w.min(n_windows - 1)].push(*s);
    }
    out
}

/// Latencies of the ok samples, ascending, in milliseconds.
pub fn ok_latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.lat_ns as f64 / 1e6)
            .collect(),
    )
}

/// Percentile `p` of ok latency per window, as median and spread over the
/// windows.
pub fn latency_over_windows(windows: &[Vec<Sample>], p: f64) -> Windowed {
    let per: Vec<f64> = windows
        .iter()
        .map(|w| percentile(&ok_latencies_ms(w), p))
        .collect();
    over_windows(&per)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread computed here is the one the
/// benchmark's contract is checked with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let m = s.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert_eq!(highest_supported(5000), 0.99);
        assert_eq!(highest_supported(240), 0.95);
        assert_eq!(highest_supported(120), 0.90);
        assert_eq!(highest_supported(50), 0.50);
    }

    #[test]
    fn median_over_windows_ignores_one_disturbed_window() {
        let mk = |at_ms: i64, lat_ms: u64| Sample {
            at_ns: at_ms * 1_000_000,
            lat_ns: lat_ms * 1_000_000,
            ok: true,
        };
        // Three 1 s windows; the middle one is ten times slower.
        let mut samples = Vec::new();
        for i in 0..30 {
            let lat = if (10..20).contains(&i) { 50 } else { 5 };
            samples.push(mk(i * 100, lat));
        }
        samples.push(mk(-500, 999)); // warm-up, dropped
        let w = windows(&samples, 3_000_000_000, 3);
        assert_eq!(w.iter().map(Vec::len).collect::<Vec<_>>(), [10, 10, 10]);
        let got = latency_over_windows(&w, 0.5);
        assert_eq!(got.value, 5.0);
        assert_eq!(got.spread, 9.0);
    }

    #[test]
    fn failed_samples_carry_no_latency() {
        let s = [
            Sample {
                at_ns: 0,
                lat_ns: 2_000_000,
                ok: true,
            },
            Sample {
                at_ns: 1,
                lat_ns: 900_000_000,
                ok: false,
            },
        ];
        assert_eq!(ok_latencies_ms(&s), [2.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }
}
