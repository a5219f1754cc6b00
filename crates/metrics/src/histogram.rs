//! Log-bucketed deterministic latency histogram.
//!
//! [`Histogram`] answers both "what is p99 right now" and "what does the
//! whole distribution look like" in O(1) memory with *no* sampling:
//! values are counted into base-2 buckets (`(2^(i-1), 2^i]`), so the
//! bucket counts are exact for any stream length and two runs over the
//! same stream are byte-identical in every rendering. Count, sum, mean,
//! min and max are exact too. The trade-off is resolution — quantiles
//! read from a histogram are upper bucket bounds, at worst 2× the true
//! value — which is the standard Prometheus-histogram contract and
//! exactly what the serving `stats` and `metrics` ops expose.
//!
//! [`Histogram::record`] *rejects* non-finite and negative values and
//! counts them instead of panicking: the histogram also ingests values
//! relayed from untrusted journals where a bad value must be visible
//! but not fatal.

use std::collections::BTreeMap;

use fis_types::json::Json;

/// Number of base-2 buckets: bucket 0 holds `[0, 1]`, bucket `i` holds
/// `(2^(i-1), 2^i]`, and bucket 64 holds everything above `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Exact, bounded, deterministic base-2 histogram.
///
/// # Example
///
/// ```
/// use fis_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 3.0, 500.0, 700.0, 900.0] {
///     assert!(h.record(v));
/// }
/// assert!(!h.record(f64::NAN)); // rejected, not recorded
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.rejected(), 1);
/// // p50 reads the upper bound of the bucket holding the median.
/// assert_eq!(h.quantile(0.5), Some(512.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    rejected: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        }
    }

    /// The bucket index for a valid (finite, non-negative) value.
    fn bucket_of(v: f64) -> usize {
        if v <= 1.0 {
            return 0;
        }
        // ceil(log2(v)) via the bit width of the integer part: v in
        // (2^(i-1), 2^i] lands in bucket i. Values above 2^63 saturate
        // into the last bucket.
        if v > (1u64 << 63) as f64 {
            return HISTOGRAM_BUCKETS - 1;
        }
        let above = (v.ceil() as u64).saturating_sub(1);
        (64 - above.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` (`1, 2, 4, ...`), or
    /// `f64::INFINITY` for the overflow bucket.
    pub fn bucket_bound(i: usize) -> f64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (1u64 << i) as f64
        }
    }

    /// Records one observation. Returns `false` — and increments the
    /// [`Histogram::rejected`] counter — for NaN, ±infinity, and
    /// negative values; such values never touch the distribution.
    pub fn record(&mut self, v: f64) -> bool {
        if !v.is_finite() || v < 0.0 {
            self.rejected += 1;
            return false;
        }
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        true
    }

    /// Total accepted observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation was accepted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Observations refused by [`Histogram::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Exact sum of accepted observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile (`q` clamped to `[0, 1]`) read as the
    /// upper bound of the bucket containing that rank — an upper bound
    /// on the true quantile, tight to within one octave. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report a bound above the observed max (the last
                // occupied bucket's bound can overshoot it).
                return Some(Self::bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Shorthand for [`Histogram::quantile`]`(0.50)`.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Shorthand for [`Histogram::quantile`]`(0.99)`.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Sums another histogram into this one (bucket-wise; min/max/sum/
    /// count/rejected all combine exactly).
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rejected += other.rejected;
    }

    /// Renders as a JSON object: exact scalars plus the non-empty
    /// buckets as `{"le": upper_bound, "count": cumulative}` pairs
    /// (cumulative, Prometheus-style). Deterministic: identical record
    /// sequences render byte-identically.
    pub fn to_json(&self) -> Json {
        let mut obj: BTreeMap<String, Json> = BTreeMap::new();
        obj.insert("count".into(), Json::Num(self.count as f64));
        obj.insert("rejected".into(), Json::Num(self.rejected as f64));
        obj.insert("sum".into(), Json::Num(self.sum));
        if let (Some(min), Some(max)) = (self.min(), self.max()) {
            obj.insert("min".into(), Json::Num(min));
            obj.insert("max".into(), Json::Num(max));
        }
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            let le = Self::bucket_bound(i);
            buckets.push(Json::obj([
                (
                    "le",
                    if le.is_finite() {
                        Json::Num(le)
                    } else {
                        Json::Str("+Inf".into())
                    },
                ),
                ("count", Json::Num(cumulative as f64)),
            ]));
        }
        obj.insert("buckets".into(), Json::Arr(buckets));
        Json::Obj(obj)
    }

    /// Appends Prometheus text-format exposition lines for this
    /// histogram as metric `name` with the given label set (rendered
    /// verbatim inside `{}`, pass `""` for none). Emits the cumulative
    /// `_bucket{le=...}` series over non-empty buckets plus `+Inf`,
    /// `_sum`, and `_count`.
    pub fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cumulative += n;
            let le = Self::bucket_bound(i);
            if le.is_finite() {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
                );
            }
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.rejected(), 0);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        assert!(h.record(7.0));
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(7.0));
        assert_eq!(h.max(), Some(7.0));
        assert_eq!(h.mean(), Some(7.0));
        // 7 lands in (4, 8]; the bound is clamped to the observed max.
        assert_eq!(h.quantile(0.0), Some(7.0));
        assert_eq!(h.quantile(1.0), Some(7.0));
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(1.0), 0);
        assert_eq!(Histogram::bucket_of(1.5), 1);
        assert_eq!(Histogram::bucket_of(2.0), 1);
        assert_eq!(Histogram::bucket_of(2.1), 2);
        assert_eq!(Histogram::bucket_of(4.0), 2);
        assert_eq!(Histogram::bucket_of(1024.0), 10);
        assert_eq!(Histogram::bucket_of(1025.0), 11);
        assert_eq!(Histogram::bucket_of(f64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn non_finite_and_negative_rejected() {
        let mut h = Histogram::new();
        assert!(!h.record(f64::NAN));
        assert!(!h.record(f64::INFINITY));
        assert!(!h.record(f64::NEG_INFINITY));
        assert!(!h.record(-1.0));
        assert_eq!(h.rejected(), 4);
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        // Rejections leave the distribution untouched.
        assert_eq!(
            h.to_json().get("buckets").unwrap().as_arr().unwrap().len(),
            0
        );
    }

    #[test]
    fn quantiles_are_octave_upper_bounds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            assert!(h.record(v as f64));
        }
        assert_eq!(h.count(), 1000);
        // True p50 = 500, bucket (256, 512] upper bound:
        assert_eq!(h.p50(), Some(512.0));
        let p99 = h.p99().unwrap();
        assert!((990.0..=1000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000.0));
        assert_eq!(h.mean(), Some(500.5));
    }

    #[test]
    fn identical_sequences_render_byte_identically() {
        let run = || {
            let mut h = Histogram::new();
            for v in 0..500u64 {
                h.record(((v * 97) % 4099) as f64);
            }
            h.record(f64::NAN);
            h.to_json().to_string()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"rejected\":1"));
    }

    #[test]
    fn absorb_matches_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..100u64 {
            let v = (v * 13 % 777) as f64;
            if v < 400.0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.absorb(&b);
        assert_eq!(a, both);
        assert_eq!(a.to_json().to_string(), both.to_json().to_string());
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(3.0);
        h.record(3.5);
        let mut out = String::new();
        h.render_prometheus(&mut out, "fis_latency_ns", "scope=\"global\"");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "fis_latency_ns_bucket{scope=\"global\",le=\"1\"} 1",
                "fis_latency_ns_bucket{scope=\"global\",le=\"4\"} 3",
                "fis_latency_ns_bucket{scope=\"global\",le=\"+Inf\"} 3",
                "fis_latency_ns_sum{scope=\"global\"} 7.5",
                "fis_latency_ns_count{scope=\"global\"} 3",
            ]
        );
    }
}
