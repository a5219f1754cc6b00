//! Order statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `values` (`q` in `0..=1`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return quantile(values, 0.5);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Round-trip latency and completion rate of one request stream.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub per_s: f64,
}

/// [`Latency`] of `(completed_at_s, ms)` samples from a phase of
/// `elapsed` seconds. The phase is cut into equal time windows, one per
/// 100 samples but an odd count of at most five, and each figure is the
/// median over the windows: a burst of hypervisor steal then spoils one
/// window instead of the whole run. Every window keeps enough samples for
/// ten beyond its p90.
pub fn latency(samples: &[(f64, f64)], elapsed: f64) -> Latency {
    let windows = match samples.len() / 100 {
        0..=2 => 1,
        3 | 4 => 3,
        _ => 5,
    };
    let width = elapsed / windows as f64;
    let mut per_window = vec![Vec::new(); windows];
    for &(at, ms) in samples {
        per_window[((at / width) as usize).min(windows - 1)].push(ms);
    }
    let of_windows =
        |f: &dyn Fn(&Vec<f64>) -> f64| median(&per_window.iter().map(f).collect::<Vec<_>>());
    Latency {
        p50_ms: of_windows(&|w| median(w)),
        p90_ms: of_windows(&|w| quantile(w, 0.9)),
        per_s: of_windows(&|w| w.len() as f64 / width),
    }
}

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }
}

/// The one-line JSON result the benchmark prints last. A failed run
/// carries no metrics: numbers from wrong answers are not reported.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    if correct {
        for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn latency_is_the_median_over_windows() {
        // 500 samples over 5 s: five windows of 100, the middle one slow.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let at = i as f64 / 100.0;
                (
                    at,
                    if (2.0..3.0).contains(&at) {
                        50.0
                    } else {
                        1.0 + (i % 10) as f64
                    },
                )
            })
            .collect();
        let l = latency(&samples, 5.0);
        assert_eq!((l.p50_ms, l.p90_ms, l.per_s), (5.5, 9.0, 100.0));
        let few = latency(&samples[..250], 2.5);
        assert_eq!(few.per_s, 100.0);
    }

    #[test]
    fn failed_runs_print_no_numbers() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            result_line(false, 3, 1, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
