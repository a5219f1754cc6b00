//! Per-model and global serving metrics.
//!
//! Every request is recorded into the global accumulator, and — when it
//! named a building whose artifact actually exists — into that model's
//! scope: the request count, accepted batch size, scans successfully
//! labeled, error count, and service latency (a
//! [`fis_metrics::Histogram`]). Model metrics are keyed by building id
//! and **survive eviction**: the cache can come and go, the counters
//! don't. Requests naming buildings that never resolved to an artifact
//! only count globally, so a client spraying made-up ids cannot grow
//! the per-model map without bound. The `stats` op serializes the whole
//! thing as sorted-key JSON, so two daemons with the same request
//! history report byte-identical stats (up to the timings themselves).
//!
//! The latency histogram counts base-2 buckets exactly, so `count`,
//! `mean` and `max` are exact, while the `stats` p50/p99 are the upper
//! bound of the bucket holding that rank, clamped to the max (at worst
//! one octave above the true value). The v2 `metrics` op exports every
//! counter and the histograms in Prometheus text format via
//! [`ServingMetrics::to_prometheus`] (also written by `--metrics FILE`
//! on daemon exit).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fis_metrics::Histogram;
use fis_types::json::Json;

use crate::registry::{RegistrySnapshot, RegistryStats};

/// Counters and latency for one scope (global or one model).
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// Requests handled (including failed ones).
    pub requests: u64,
    /// Requests that answered with an error, plus batches that answered
    /// `ok` but carried at least one per-scan failure.
    pub errors: u64,
    /// Scans successfully labeled. Rejected batches contribute nothing;
    /// a partially failed batch contributes only its labeled scans.
    pub scans: u64,
    /// Largest *accepted* batch (rejected batches don't count).
    pub batch_max: u64,
    /// Service latency per request, nanoseconds, as an exact base-2
    /// histogram: the `stats` summary and the Prometheus buckets.
    pub latency_ns: Histogram,
}

impl OpMetrics {
    fn record(&mut self, attempted: u64, labeled: u64, failed: bool, latency_ns: f64) {
        self.requests += 1;
        self.scans += labeled;
        self.batch_max = self.batch_max.max(attempted);
        if failed {
            self.errors += 1;
        }
        self.latency_ns.record(latency_ns);
    }

    /// Mean labeled scans per request (0.0 before any).
    pub fn mean_batch(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.scans as f64 / self.requests as f64
        }
    }

    fn to_json(&self) -> Json {
        let q = &self.latency_ns;
        Json::obj([
            ("requests", Json::Num(self.requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("scans", Json::Num(self.scans as f64)),
            ("batch_max", Json::Num(self.batch_max as f64)),
            (
                "latency_ns",
                Json::obj([
                    ("count", Json::Num(q.count() as f64)),
                    ("mean", Json::Num(q.mean().unwrap_or(0.0))),
                    ("p50", Json::Num(q.p50().unwrap_or(0.0))),
                    ("p99", Json::Num(q.p99().unwrap_or(0.0))),
                    ("max", Json::Num(q.max().unwrap_or(0.0))),
                ]),
            ),
        ])
    }
}

/// The daemon's metrics: one global scope plus one scope per model.
#[derive(Debug)]
pub struct ServingMetrics {
    started: Instant,
    /// All requests, regardless of model (protocol errors land here).
    pub global: OpMetrics,
    /// Per-building scopes, created on first touch, kept after eviction.
    pub models: BTreeMap<String, OpMetrics>,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServingMetrics {
    /// Creates empty metrics; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            global: OpMetrics::default(),
            models: BTreeMap::new(),
        }
    }

    /// Records one request: globally, and under `model` when the request
    /// resolved to one. The caller (the daemon's dispatch) passes
    /// `model: Some(..)` only for buildings whose artifact exists or
    /// whose scope was already created, keeping the map bounded by real
    /// tenants.
    pub fn record(
        &mut self,
        model: Option<&str>,
        attempted: u64,
        labeled: u64,
        failed: bool,
        latency_ns: f64,
    ) {
        self.global.record(attempted, labeled, failed, latency_ns);
        if let Some(model) = model {
            self.models
                .entry(model.to_owned())
                .or_default()
                .record(attempted, labeled, failed, latency_ns);
        }
    }

    /// Whether a per-model scope already exists for `model`.
    pub fn has_scope(&self, model: &str) -> bool {
        self.models.contains_key(model)
    }

    /// The `stats` response payload: global + per-model metrics plus the
    /// registry's cache counters and current residents.
    pub fn to_json(&self, registry: &RegistrySnapshot) -> Json {
        let RegistryStats {
            hits,
            misses,
            evictions,
            reloads,
            load_failures,
            assign_cache,
        } = registry.stats;
        let loaded = Json::Arr(
            registry
                .loaded
                .iter()
                .map(|(name, bytes)| {
                    Json::obj([
                        ("building", Json::Str(name.clone())),
                        ("bytes", Json::Num(*bytes as f64)),
                    ])
                })
                .collect(),
        );
        let models = Json::Obj(
            self.models
                .iter()
                .map(|(k, m)| (k.clone(), m.to_json()))
                .collect(),
        );
        Json::obj([
            (
                "uptime_ms",
                Json::Num(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("global", self.global.to_json()),
            ("models", models),
            (
                "registry",
                Json::obj([
                    ("hits", Json::Num(hits as f64)),
                    ("misses", Json::Num(misses as f64)),
                    ("evictions", Json::Num(evictions as f64)),
                    ("reloads", Json::Num(reloads as f64)),
                    ("load_failures", Json::Num(load_failures as f64)),
                    ("loaded", loaded),
                    ("bytes", Json::Num(registry.bytes() as f64)),
                ]),
            ),
            (
                "assign_cache",
                Json::obj([
                    ("capacity", Json::Num(registry.cache_capacity as f64)),
                    ("entries", Json::Num(registry.cache_entries as f64)),
                    ("hits", Json::Num(assign_cache.hits as f64)),
                    ("misses", Json::Num(assign_cache.misses as f64)),
                    ("insertions", Json::Num(assign_cache.insertions as f64)),
                    ("evictions", Json::Num(assign_cache.evictions as f64)),
                    ("hit_rate", Json::Num(assign_cache.hit_rate())),
                ]),
            ),
        ])
    }

    /// Renders every counter and latency histogram in
    /// Prometheus text exposition format: the `metrics` op payload and
    /// the `--metrics FILE` dump. Scopes become labels (`scope="global"`
    /// vs `scope="model",building="hq"`); all byte layout is
    /// deterministic given the same request history and timings.
    pub fn to_prometheus(&self, registry: &RegistrySnapshot) -> String {
        let stats = &registry.stats;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE fis_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "fis_uptime_seconds {}",
            self.started.elapsed().as_secs_f64()
        );
        let scopes: Vec<(String, &OpMetrics)> =
            std::iter::once(("scope=\"global\"".to_owned(), &self.global))
                .chain(self.models.iter().map(|(name, m)| {
                    (
                        format!("scope=\"model\",building=\"{}\"", escape_label(name)),
                        m,
                    )
                }))
                .collect();
        for (metric, help, get) in [
            (
                "fis_requests_total",
                "Requests handled (including failed ones)",
                (|m: &OpMetrics| m.requests) as fn(&OpMetrics) -> u64,
            ),
            (
                "fis_errors_total",
                "Requests answered with an error or carrying per-scan failures",
                |m| m.errors,
            ),
            ("fis_scans_total", "Scans successfully labeled", |m| m.scans),
            ("fis_batch_max", "Largest accepted batch", |m| m.batch_max),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let kind = if metric.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            for (labels, m) in &scopes {
                let _ = writeln!(out, "{metric}{{{labels}}} {}", get(m));
            }
        }
        let _ = writeln!(
            out,
            "# HELP fis_latency_ns Service latency distribution (base-2 buckets)"
        );
        let _ = writeln!(out, "# TYPE fis_latency_ns histogram");
        for (labels, m) in &scopes {
            m.latency_ns
                .render_prometheus(&mut out, "fis_latency_ns", labels);
        }
        for (metric, value) in [
            ("fis_registry_hits_total", stats.hits),
            ("fis_registry_misses_total", stats.misses),
            ("fis_registry_evictions_total", stats.evictions),
            ("fis_registry_reloads_total", stats.reloads),
            ("fis_registry_load_failures_total", stats.load_failures),
            ("fis_registry_loaded_models", registry.loaded.len() as u64),
            ("fis_registry_bytes", registry.bytes()),
            ("fis_assign_cache_hits_total", stats.assign_cache.hits),
            ("fis_assign_cache_misses_total", stats.assign_cache.misses),
            (
                "fis_assign_cache_insertions_total",
                stats.assign_cache.insertions,
            ),
            (
                "fis_assign_cache_evictions_total",
                stats.assign_cache.evictions,
            ),
            ("fis_assign_cache_entries", registry.cache_entries as u64),
            ("fis_assign_cache_capacity", registry.cache_capacity as u64),
        ] {
            let kind = if metric.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            let _ = writeln!(out, "# TYPE {metric} {kind}");
            let _ = writeln!(out, "{metric} {value}");
        }
        out
    }
}

/// Escapes a string for use inside a Prometheus label value.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_global_and_per_model() {
        let mut m = ServingMetrics::new();
        m.record(Some("a"), 1, 1, false, 1000.0); // assign, labeled
        m.record(Some("a"), 10, 10, false, 2000.0); // clean batch
        m.record(Some("b"), 5, 3, true, 3000.0); // batch, 2 per-scan failures
        m.record(None, 0, 0, true, 100.0); // protocol error, no model
        m.record(None, 0, 0, true, 50.0); // rejected batch: nothing labeled
        assert_eq!(m.global.requests, 5);
        assert_eq!(m.global.scans, 14, "only labeled scans count");
        assert_eq!(m.global.errors, 3, "partial batch failure is an error");
        assert_eq!(m.global.batch_max, 10);
        assert_eq!(m.models["a"].requests, 2);
        assert_eq!(m.models["a"].scans, 11);
        assert_eq!(m.models["b"].errors, 1);
        assert_eq!(m.models["b"].scans, 3);
        assert_eq!(m.models.len(), 2, "no scope for model-less requests");
        assert!(m.has_scope("a") && !m.has_scope("ghost"));
        assert_eq!(m.global.latency_ns.count(), 5);
    }

    #[test]
    fn stats_json_shape() {
        let mut m = ServingMetrics::new();
        m.record(Some("hq"), 3, 3, false, 5000.0);
        m.record(Some("hq"), 2, 2, false, 300.0);
        m.record(Some("hq"), 1, 1, false, 700.0);
        let json = m.to_json(&RegistrySnapshot::default());
        assert!(json.get("uptime_ms").is_some());
        assert_eq!(
            json.get("global")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_usize(),
            Some(3)
        );
        let hq = json.get("models").unwrap().get("hq").unwrap();
        assert_eq!(hq.get("scans").unwrap().as_usize(), Some(6));
        // p50/p99 are the histogram's clamped octave bounds; count, mean
        // and max stay exact.
        let lat = hq.get("latency_ns").unwrap();
        let num = |key: &str| lat.get(key).unwrap().as_f64().unwrap();
        let hist = &m.models["hq"].latency_ns;
        assert_eq!(num("p50"), hist.p50().unwrap());
        assert_eq!(num("p99"), hist.p99().unwrap());
        assert_eq!((num("p50"), num("p99")), (1024.0, 5000.0));
        assert_eq!(num("count"), 3.0);
        assert_eq!(num("mean"), 2000.0);
        assert_eq!(num("max"), 5000.0);
        assert_eq!(
            json.get("registry")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_usize(),
            Some(0)
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut m = ServingMetrics::new();
        m.record(Some("hq"), 3, 3, false, 5000.0);
        m.record(None, 0, 0, true, 100.0);
        let text = m.to_prometheus(&RegistrySnapshot {
            loaded: vec![("hq".into(), 1024)],
            cache_entries: 2,
            cache_capacity: 64,
            ..Default::default()
        });
        for needle in [
            "# TYPE fis_requests_total counter",
            "fis_requests_total{scope=\"global\"} 2",
            "fis_requests_total{scope=\"model\",building=\"hq\"} 1",
            "fis_errors_total{scope=\"global\"} 1",
            "fis_scans_total{scope=\"model\",building=\"hq\"} 3",
            "# TYPE fis_latency_ns histogram",
            "fis_latency_ns_count{scope=\"global\"} 2",
            "fis_registry_loaded_models 1",
            "fis_registry_bytes 1024",
            "fis_assign_cache_capacity 64",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // One latency family: every scope has its histogram totals, and
        // no summary family (no `quantile` label) is exported.
        for labels in ["scope=\"global\"", "scope=\"model\",building=\"hq\""] {
            for series in ["fis_latency_ns_sum", "fis_latency_ns_count"] {
                let needle = format!("{series}{{{labels}}} ");
                assert!(text.contains(&needle), "missing `{needle}` in:\n{text}");
            }
        }
        assert!(!text.contains("quantile"), "summary line in:\n{text}");
        // Every non-comment line is `name{labels} value` with a numeric
        // value — the parseability contract the smoke test rechecks.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }
}
