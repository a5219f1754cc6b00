//! The serving daemon: dispatch loop, pipe mode, concurrent TCP mode.
//!
//! [`Daemon`] owns a [`ModelRegistry`] and [`ServingMetrics`] and turns
//! request lines into response lines. Three front-ends share the exact
//! same dispatch path:
//!
//! - [`Daemon::serve_connection`] — any `BufRead`/`Write` pair,
//! - [`Daemon::serve_stdio`] — pipe mode (`fis-one serve` default),
//! - [`Daemon::serve_tcp`] — a TCP listener served by a bounded
//!   worker-thread pool ([`crate::pool`]), so many connections are in
//!   flight at once and one slow or idle client no longer stalls the
//!   rest. A `shutdown` request from *any* connection drains the pool
//!   and stops the daemon; a dropped connection just frees its worker.
//!
//! Per connection, responses are written in request order and flushed
//! per line, so a pipelined client never deadlocks. Every failure is a
//! typed error response; a connection loop only exits on EOF, shutdown,
//! or a dead transport.
//!
//! Shared state is interior: [`Daemon::handle_line`] takes `&self`, the
//! registry serializes only its bookkeeping (inference runs outside the
//! lock — see [`crate::registry`]), and metrics sit behind their own
//! mutex. The two locks are never held at once: `stats` and `metrics`
//! take a [`ModelRegistry::snapshot`] first and lock the metrics after,
//! so a `stats` request waiting on the registry lock never blocks other
//! requests' metrics recording, and the daemon cannot deadlock on
//! itself.

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use fis_obs::{self as obs, Level};
use fis_types::json::Json;

use crate::error::ServeError;
use crate::metrics::ServingMetrics;
use crate::pool::{self, LineServer};
use crate::protocol::{error_response, parse_frame, BatchRow, Frame, Request, Response};
use crate::registry::{Fetch, ModelRegistry, RegistryConfig};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Model directory and cache budget.
    pub registry: RegistryConfig,
    /// Thread budget for batch fan-out (`0` = the global
    /// [`fis_parallel::thread_budget`]). A batch under 24 scans
    /// (twice [`fis_core::MIN_SCANS_PER_WORKER`]) is answered on its
    /// connection thread whatever the budget.
    pub threads: usize,
    /// Largest accepted `assign_batch` size (`0` = unlimited).
    pub max_batch: usize,
    /// TCP connection-pool workers (`0` = a machine-sized default,
    /// `available_parallelism` clamped to `2..=8`). Pipe mode ignores
    /// this.
    pub pool: usize,
}

impl DaemonConfig {
    /// A daemon over a model directory with default budgets.
    pub fn new(registry: RegistryConfig) -> Self {
        Self {
            registry,
            threads: 0,
            max_batch: 0,
            pool: 0,
        }
    }

    /// Sets the batch fan-out thread budget (`0` = global budget).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps the accepted batch size (`0` = unlimited).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the TCP worker-pool size (`0` = machine-sized default).
    pub fn pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }

    /// The effective TCP pool size.
    pub fn pool_workers(&self) -> usize {
        if self.pool > 0 {
            return self.pool;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }
}

/// What one dispatched request did, for the response and the metrics.
struct RequestOutcome {
    result: Result<Response, ServeError>,
    /// Scans in an *accepted* assign/assign_batch (0 when rejected).
    attempted: u64,
    /// Scans successfully labeled.
    labeled: u64,
    /// Per-scan failures inside an otherwise-ok batch.
    scan_failures: u64,
    /// The named building resolved to a real artifact (allows a
    /// per-model metrics scope).
    tenant_exists: bool,
    shutdown: bool,
}

impl RequestOutcome {
    fn ok(response: Response) -> Self {
        Self {
            result: Ok(response),
            attempted: 0,
            labeled: 0,
            scan_failures: 0,
            tenant_exists: false,
            shutdown: false,
        }
    }

    fn rejected(error: ServeError) -> Self {
        // A `model`/`inference` failure proves the artifact exists;
        // protocol, unknown-building, and capacity rejections prove
        // nothing about the tenant.
        let tenant_exists = matches!(error, ServeError::Model(_) | ServeError::Inference(_));
        Self {
            result: Err(error),
            attempted: 0,
            labeled: 0,
            scan_failures: 0,
            tenant_exists,
            shutdown: false,
        }
    }
}

/// The multi-tenant serving daemon. See the [module docs](self).
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    registry: ModelRegistry,
    metrics: Mutex<ServingMetrics>,
    /// Serializes `extend`s: two extends of one generation would each
    /// publish without the other's scans. Inference never takes this
    /// lock: while an extend clones, grows, and atomically republishes
    /// an artifact, assigns keep serving the old generation; the new one
    /// goes live only when the registry swaps it in.
    mutation: Mutex<()>,
}

impl Daemon {
    /// Creates a daemon with an empty cache and fresh metrics.
    pub fn new(config: DaemonConfig) -> Self {
        let registry = ModelRegistry::new(config.registry.clone());
        Self {
            config,
            registry,
            metrics: Mutex::new(ServingMetrics::new()),
            mutation: Mutex::new(()),
        }
    }

    /// The daemon's registry (cache state and counters).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The current `stats` payload (also printed on daemon exit). The
    /// registry snapshot is taken before the metrics lock, never inside
    /// it.
    pub fn stats_json(&self) -> Json {
        let registry = self.registry.snapshot();
        self.lock_metrics().to_json(&registry)
    }

    /// The Prometheus text exposition: every counter, latency summary,
    /// and histogram. The `metrics` op payload, also written by the CLI
    /// `--metrics FILE` dump on exit. Registry and metrics locks are
    /// taken one after the other, never nested.
    pub fn prometheus_text(&self) -> String {
        let registry = self.registry.snapshot();
        self.lock_metrics().to_prometheus(&registry)
    }

    fn lock_metrics(&self) -> MutexGuard<'_, ServingMetrics> {
        self.metrics.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Handles one request line and returns `(response, shutdown)`.
    /// Infallible by design: malformed input becomes a typed error
    /// response. Safe to call from many threads at once; answers are
    /// bit-identical for any interleaving.
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
        let started = Instant::now();
        let frame = match parse_frame(line) {
            Ok(frame) => frame,
            Err(fe) => {
                let latency = started.elapsed().as_secs_f64() * 1e9;
                self.lock_metrics().record(None, 0, 0, true, latency);
                return (
                    error_response(fe.version, fe.op.as_deref(), fe.id.as_ref(), &fe.error),
                    false,
                );
            }
        };
        let Frame {
            id,
            version,
            trace,
            request,
        } = frame;
        let op = request.op();
        let model_key = match &request {
            Request::Assign { building, .. }
            | Request::AssignBatch { building, .. }
            | Request::Load { building }
            | Request::Evict { building }
            | Request::Extend { building, .. }
            | Request::Swap { building } => Some(building.clone()),
            Request::Stats | Request::Metrics | Request::Shutdown => None,
        };
        // Request span: continue the client's trace when the frame
        // carried one (so the request reconstructs end-to-end from the
        // client's and the daemon's journals), else root a fresh trace
        // on the line content.
        // Observability only — inert unless a sink is on.
        let mut span = match trace {
            Some(remote) => obs::span_in(remote, Level::Debug, "daemon", "request"),
            None => obs::span_root(Level::Debug, "daemon", "request", line.as_bytes()),
        };
        span.str("op", op);
        if let Some(building) = &model_key {
            span.str("building", building);
        }
        let outcome = self.dispatch(request);
        if let Err(e) = &outcome.result {
            span.str("error", e.kind());
        }
        drop(span);
        let latency = started.elapsed().as_secs_f64() * 1e9;
        {
            // Per-model scopes only for buildings that resolved to a
            // real artifact (or already have a scope) — a client
            // spraying made-up ids must not grow the metrics map
            // without bound.
            let mut metrics = self.lock_metrics();
            let scope = model_key
                .as_deref()
                .filter(|b| outcome.tenant_exists || metrics.has_scope(b));
            let failed = outcome.result.is_err() || outcome.scan_failures > 0;
            metrics.record(scope, outcome.attempted, outcome.labeled, failed, latency);
        }
        let response = match outcome.result {
            Ok(typed) => typed.to_json(version, id.as_ref()),
            Err(e) => error_response(version, Some(op), id.as_ref(), &e),
        };
        (response, outcome.shutdown)
    }

    fn dispatch(&self, request: Request) -> RequestOutcome {
        match request {
            // Both assign shapes run through the single batch path
            // (`run_assign`): a lone scan is a batch of one, so caching,
            // fan-out, and per-scan error semantics cannot diverge
            // between the two ops.
            Request::Assign { building, scan } => {
                let mut results = match self.run_assign(&building, std::slice::from_ref(&scan)) {
                    Ok(results) => results,
                    Err(e) => return RequestOutcome::rejected(e),
                };
                match results.pop().expect("one scan in, one result out") {
                    Err(e) => RequestOutcome {
                        // The scan reached inference, so it counts as
                        // attempted; registry-level failures above
                        // attempted nothing.
                        attempted: 1,
                        ..RequestOutcome::rejected(ServeError::from(e))
                    },
                    Ok(floor) => RequestOutcome {
                        attempted: 1,
                        labeled: 1,
                        tenant_exists: true,
                        ..RequestOutcome::ok(Response::Assign {
                            building,
                            scan_id: scan.id().index(),
                            floor: floor.index(),
                        })
                    },
                }
            }
            Request::AssignBatch { building, scans } => {
                if self.config.max_batch > 0 && scans.len() > self.config.max_batch {
                    return RequestOutcome::rejected(ServeError::Capacity(format!(
                        "batch of {} scans exceeds the configured maximum of {}",
                        scans.len(),
                        self.config.max_batch
                    )));
                }
                let results = match self.run_assign(&building, &scans) {
                    Ok(results) => results,
                    Err(e) => return RequestOutcome::rejected(e),
                };
                let rows: Vec<BatchRow> = scans
                    .iter()
                    .zip(results)
                    .map(|(scan, result)| BatchRow {
                        scan_id: scan.id().index(),
                        result: result.map(|f| f.index()).map_err(ServeError::from),
                    })
                    .collect();
                let failures = rows.iter().filter(|r| r.result.is_err()).count() as u64;
                RequestOutcome {
                    attempted: rows.len() as u64,
                    labeled: rows.len() as u64 - failures,
                    scan_failures: failures,
                    tenant_exists: true,
                    ..RequestOutcome::ok(Response::AssignBatch { building, rows })
                }
            }
            Request::Load { building } => match self.registry.get(&building) {
                Err(e) => RequestOutcome::rejected(e),
                Ok((model, fetch)) => {
                    // A get never reloads: only `swap` does.
                    let fetch = if fetch == Fetch::Hit { "hit" } else { "miss" };
                    RequestOutcome {
                        tenant_exists: true,
                        ..RequestOutcome::ok(Response::Load {
                            building,
                            floors: model.floors(),
                            scans: model.total_scans(),
                            fetch,
                        })
                    }
                }
            },
            Request::Evict { building } => {
                let evicted = self.registry.evict(&building);
                RequestOutcome {
                    // An entry was cached, so the tenant is real.
                    tenant_exists: evicted,
                    ..RequestOutcome::ok(Response::Evict { building, evicted })
                }
            }
            Request::Extend { building, scans } => match self.extend(&building, &scans) {
                Err(e) => RequestOutcome::rejected(e),
                Ok(response) => RequestOutcome {
                    tenant_exists: true,
                    ..RequestOutcome::ok(response)
                },
            },
            Request::Swap { building } => match self.swap(&building) {
                Err(e) => RequestOutcome::rejected(e),
                Ok(response) => RequestOutcome {
                    tenant_exists: true,
                    ..RequestOutcome::ok(response)
                },
            },
            Request::Stats => RequestOutcome::ok(Response::Stats {
                stats: self.stats_json(),
            }),
            Request::Metrics => RequestOutcome::ok(Response::Metrics {
                metrics: self.prometheus_text(),
            }),
            Request::Shutdown => RequestOutcome {
                shutdown: true,
                ..RequestOutcome::ok(Response::Shutdown)
            },
        }
    }

    /// The single assign path both `assign` and `assign_batch` share: a
    /// registry fetch, then [`fis_core::FittedModel::assign_stream`] on
    /// the fetched model, outside every lock. Content-seeded per-scan
    /// RNGs keep the fan-out bit-identical for any thread count or batch
    /// order.
    #[allow(clippy::type_complexity)]
    fn run_assign(
        &self,
        building: &str,
        scans: &[fis_types::SignalSample],
    ) -> Result<Vec<Result<fis_types::FloorId, fis_core::FisError>>, ServeError> {
        // The span opens before the registry call so the registry's
        // load events nest under it (same thread).
        let mut span = obs::span(Level::Debug, "daemon", "assign");
        span.str("building", building)
            .num("scans", scans.len() as f64);
        let (model, _) = self.registry.get(building)?;
        let results = model.assign_stream(scans, self.config.threads);
        span.num(
            "failures",
            results.iter().filter(|r| r.is_err()).count() as f64,
        );
        Ok(results)
    }

    /// The v2 `extend` op: clone the live model, grow it with the new
    /// reference scans, atomically republish the artifact (temp file +
    /// rename via [`fis_core::FittedModel::save`]), and swap it in with
    /// [`ModelRegistry::swap`]. Holds the mutation lock throughout;
    /// concurrent assigns keep answering from the old generation until
    /// the swap and are never blocked.
    fn extend(
        &self,
        building: &str,
        scans: &[fis_types::SignalSample],
    ) -> Result<Response, ServeError> {
        let mut span = obs::span(Level::Info, "daemon", "extend");
        span.str("building", building)
            .num("scans", scans.len() as f64);
        let _mutation = self.mutation.lock().unwrap_or_else(|p| p.into_inner());
        let (model, _) = self.registry.get(building)?;
        let mut extended = (*model).clone();
        let report = extended.extend(scans).map_err(ServeError::from)?;
        let path = self.registry.artifact_path(building);
        extended.save(&path).map_err(ServeError::from)?;
        self.registry.swap(building)?;
        span.num("appended", report.appended as f64);
        Ok(Response::Extend {
            building: building.to_owned(),
            appended: report.appended,
            skipped: report.skipped,
            new_macs: report.new_macs,
            total_scans: report.total_scans,
            total_macs: report.total_macs,
        })
    }

    /// The v2 `swap` op: put the artifact now on disk live, replacing
    /// the resident entry. This is the only way
    /// a rewritten artifact reaches a resident building.
    fn swap(&self, building: &str) -> Result<Response, ServeError> {
        let mut span = obs::span(Level::Info, "daemon", "swap");
        span.str("building", building);
        let (model, fetch) = self.registry.swap(building)?;
        Ok(Response::Swap {
            building: building.to_owned(),
            floors: model.floors(),
            scans: model.total_scans(),
            evicted: fetch == Fetch::Reload,
        })
    }

    /// Serves one transport to completion. Returns `Ok(true)` when a
    /// `shutdown` request ended the session, `Ok(false)` on EOF. Lines
    /// are read as raw bytes and decoded lossily, so invalid UTF-8 on
    /// the wire yields a typed `protocol` error response instead of an
    /// `InvalidData` transport error.
    ///
    /// # Errors
    ///
    /// Only transport-level I/O errors; bad requests never error here.
    pub fn serve_connection<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<bool> {
        pool::serve_lines(reader, writer, self)
    }

    /// Pipe mode: serves stdin → stdout until EOF or `shutdown`.
    ///
    /// # Errors
    ///
    /// Only stdin/stdout I/O errors.
    pub fn serve_stdio(&self) -> std::io::Result<bool> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_connection(stdin.lock(), stdout.lock())
    }

    /// TCP mode: serves connections concurrently on a bounded worker
    /// pool ([`DaemonConfig::pool`]) until a client sends `shutdown`;
    /// queued and in-flight connections are drained before returning.
    /// A dropped connection is not fatal, and transient accept errors
    /// (`ECONNABORTED`, fd exhaustion, …) are logged and survived.
    ///
    /// # Errors
    ///
    /// Only non-transient accept-level I/O errors.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        pool::serve_pooled(listener, self, self.config.pool_workers())
    }
}

impl LineServer for Daemon {
    fn handle(&self, line: &str) -> (String, bool) {
        let (response, shutdown) = self.handle_line(line);
        (response.to_string(), shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_core::{FisOne, FisOneConfig, FittedModel};
    use fis_synth::BuildingConfig;
    use fis_types::json::ToJson;
    use std::path::PathBuf;

    fn quick_fit(name: &str, seed: u64) -> (fis_types::Building, FittedModel) {
        let b = BuildingConfig::new(name, 3)
            .samples_per_floor(15)
            .aps_per_floor(8)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        let model = FisOne::new(FisOneConfig::quick(seed))
            .fit(
                b.name(),
                b.samples(),
                b.floors(),
                b.bottom_anchor().unwrap(),
            )
            .unwrap();
        (b, model)
    }

    fn daemon_over(
        models: &[(&str, u64)],
        tag: &str,
    ) -> (Daemon, PathBuf, Vec<fis_types::Building>) {
        let dir = std::env::temp_dir().join(format!("fis_server_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut buildings = Vec::new();
        for &(name, seed) in models {
            let (b, model) = quick_fit(name, seed);
            model.save(dir.join(format!("{name}.json"))).unwrap();
            buildings.push(b);
        }
        let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
        (daemon, dir, buildings)
    }

    #[test]
    fn assign_via_daemon_matches_direct_assign() {
        let (daemon, dir, buildings) = daemon_over(&[("srv", 21)], "assign");
        let b = &buildings[0];
        let model = FittedModel::load(dir.join("srv.json")).unwrap();
        for scan in b.samples().iter().take(5) {
            let line = Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str("srv".into())),
                ("scan", scan.to_json()),
            ])
            .to_string();
            let (response, shutdown) = daemon.handle_line(&line);
            assert!(!shutdown);
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
            let floor = response.get("floor").unwrap().as_usize().unwrap();
            assert_eq!(floor, model.assign(scan).unwrap().index());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_results_in_input_order_with_per_scan_errors() {
        let (daemon, dir, buildings) = daemon_over(&[("batch", 22)], "batch");
        let b = &buildings[0];
        let mut scans: Vec<Json> = b.samples().iter().take(4).map(|s| s.to_json()).collect();
        // An alien scan in the middle: the batch continues around it.
        scans.insert(
            2,
            Json::parse(r#"{"id":999,"readings":[["ff:ff:ff:ff:ff:0f",-40.0]]}"#).unwrap(),
        );
        // A repeat of slot 0's scan at the end answers like slot 0.
        scans.push(scans[0].clone());
        let line = Json::obj([
            ("op", Json::Str("assign_batch".into())),
            ("building", Json::Str("batch".into())),
            ("scans", Json::Arr(scans)),
        ])
        .to_string();
        let (response, _) = daemon.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("count").unwrap().as_usize(), Some(6));
        assert_eq!(response.get("failures").unwrap().as_usize(), Some(1));
        let rows = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[2].get("scan_id").unwrap().as_usize(), Some(999));
        assert_eq!(
            rows[2].get("error").unwrap().get("kind").unwrap().as_str(),
            Some("inference")
        );
        for (i, row) in rows.iter().enumerate() {
            if i != 2 {
                assert!(row.get("floor").is_some(), "row {i} has a floor");
            }
        }
        assert_eq!(rows[5].get("scan_id"), rows[0].get("scan_id"));
        assert_eq!(rows[5].get("floor"), rows[0].get("floor"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_batch_is_capacity_error() {
        let dir = std::env::temp_dir().join(format!("fis_server_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)).max_batch(2));
        let (response, _) = daemon.handle_line(
            r#"{"op":"assign_batch","building":"x","scans":[{"id":0,"readings":[]},{"id":1,"readings":[]},{"id":2,"readings":[]}]}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("capacity")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_connection_pipeline_and_shutdown() {
        let (daemon, dir, buildings) = daemon_over(&[("pipe", 23)], "pipe");
        let scan = buildings[0].samples()[0].to_json();
        let script = format!(
            "{}\n\nnot json at all\n{}\n{}\n",
            Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str("pipe".into())),
                ("scan", scan),
                ("id", Json::Num(1.0)),
            ]),
            r#"{"op":"stats","id":2}"#,
            r#"{"op":"shutdown","id":3}"#,
        );
        let mut out = Vec::new();
        let shutdown = daemon
            .serve_connection(script.as_bytes(), &mut out)
            .unwrap();
        assert!(shutdown, "script ends in shutdown");
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 4, "blank line skipped, 4 responses");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(lines[0].get("id").unwrap().as_usize(), Some(1));
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            lines[1].get("error").unwrap().get("kind").unwrap().as_str(),
            Some("protocol")
        );
        let stats = lines[2].get("stats").unwrap();
        assert_eq!(
            stats
                .get("global")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_usize(),
            Some(2),
            "assign + malformed recorded before stats"
        );
        assert_eq!(lines[3].get("op").unwrap().as_str(), Some("shutdown"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_waiting_on_the_registry_lock_blocks_no_other_request() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (daemon, dir, _) = daemon_over(&[], "stats_lock");
        let daemon = &daemon;
        // Stand-in for a long cold load: the registry lock stays held
        // while `stats` waits on it and a malformed frame arrives.
        let held = daemon.registry.lock();
        std::thread::scope(|s| {
            let stats = s.spawn(|| daemon.handle_line(r#"{"op":"stats"}"#).0);
            std::thread::sleep(Duration::from_millis(200));
            let (tx, rx) = mpsc::channel();
            s.spawn(move || tx.send(daemon.handle_line("not json").0));
            let malformed = rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            let malformed = malformed.expect("a request blocked behind the stats op");
            assert_eq!(malformed.get("ok"), Some(&Json::Bool(false)));
            let stats = stats.join().unwrap();
            assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_roundtrip_and_shutdown() {
        use std::io::{BufRead, BufReader, Write};
        let (daemon, dir, _) = daemon_over(&[("tcp", 24)], "tcp");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            daemon.serve_tcp(&listener).unwrap();
            daemon
        });
        // First connection: load then drop (daemon must keep accepting).
        {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            writeln!(stream, r#"{{"op":"load","building":"tcp"}}"#).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let json = Json::parse(line.trim()).unwrap();
            assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(json.get("fetch").unwrap().as_str(), Some("miss"));
        }
        // Second connection: the cache survived; shut the daemon down.
        {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            writeln!(stream, r#"{{"op":"load","building":"tcp"}}"#).unwrap();
            writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                Json::parse(line.trim())
                    .unwrap()
                    .get("fetch")
                    .unwrap()
                    .as_str(),
                Some("hit"),
                "model stayed cached across connections"
            );
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                Json::parse(line.trim())
                    .unwrap()
                    .get("op")
                    .unwrap()
                    .as_str(),
                Some("shutdown")
            );
        }
        let daemon = handle.join().unwrap();
        assert_eq!(daemon.registry().stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extend_and_swap_publish_atomically_and_keep_old_answers() {
        let (daemon, dir, buildings) = daemon_over(&[("ext", 26)], "extend");
        let b = &buildings[0];
        let assign_line = |scan: &fis_types::SignalSample| {
            Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str("ext".into())),
                ("scan", scan.to_json()),
            ])
            .to_string()
        };
        let before: Vec<Json> = b
            .samples()
            .iter()
            .take(5)
            .map(|s| daemon.handle_line(&assign_line(s)).0)
            .collect();

        // A v1 frame must not see the v2 mutation ops at all.
        let (v1, _) = daemon.handle_line(r#"{"op":"extend","building":"ext","scans":[]}"#);
        assert_eq!(v1.get("ok"), Some(&Json::Bool(false)));
        assert!(v1
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown op `extend`"));

        let scans: Vec<Json> = b.samples().iter().take(3).map(|s| s.to_json()).collect();
        let line = Json::obj([
            ("v", Json::Num(2.0)),
            ("op", Json::Str("extend".into())),
            ("building", Json::Str("ext".into())),
            ("scans", Json::Arr(scans)),
        ])
        .to_string();
        let (resp, _) = daemon.handle_line(&line);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "extend: {resp}");
        assert_eq!(resp.get("v"), Some(&Json::Num(2.0)));
        assert_eq!(resp.get("appended").unwrap().as_usize(), Some(3));
        assert_eq!(resp.get("total_scans").unwrap().as_usize(), Some(48));

        // The on-disk artifact is the extended generation now, and the
        // daemon serves it — with old-vocabulary answers bit-identical.
        let published = FittedModel::load(dir.join("ext.json")).unwrap();
        assert!(published.is_extended());
        for (scan, old) in b.samples().iter().take(5).zip(&before) {
            assert_eq!(&daemon.handle_line(&assign_line(scan)).0, old);
        }
        // `load` counts the same resident model as `swap`: base plus
        // extension.
        let (load, _) = daemon.handle_line(r#"{"op":"load","building":"ext"}"#);
        assert_eq!(load.get("ok"), Some(&Json::Bool(true)), "load: {load}");
        assert_eq!(load.get("scans").unwrap().as_usize(), Some(48));

        let (swap, _) = daemon.handle_line(r#"{"v":2,"op":"swap","building":"ext"}"#);
        assert_eq!(swap.get("ok"), Some(&Json::Bool(true)), "swap: {swap}");
        assert_eq!(swap.get("evicted"), Some(&Json::Bool(true)));
        assert_eq!(swap.get("scans").unwrap().as_usize(), Some(48));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extend_of_unknown_building_is_typed_and_publishes_nothing() {
        let dir = std::env::temp_dir().join(format!("fis_server_extnone_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
        let (resp, _) =
            daemon.handle_line(r#"{"v":2,"op":"extend","building":"ghost","scans":[]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            resp.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("unknown_building")
        );
        assert_eq!(resp.get("v"), Some(&Json::Num(2.0)));
        assert!(!dir.join("ghost.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_utf8_line_is_typed_protocol_error_not_transport_death() {
        let (daemon, dir, buildings) = daemon_over(&[("bytes", 25)], "bytes");
        let scan = buildings[0].samples()[0].to_json();
        let assign = Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("bytes".into())),
            ("scan", scan),
        ])
        .to_string();
        // A raw 0xFF byte mid-stream previously surfaced as an
        // InvalidData error from read_line and killed the connection.
        let mut script = Vec::new();
        script.extend_from_slice(b"{\"op\":\"stats\",\xff\xfe}\n");
        script.extend_from_slice(assign.as_bytes());
        script.extend_from_slice(b"\n{\"op\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let shutdown = daemon.serve_connection(&script[..], &mut out).unwrap();
        assert!(shutdown, "connection survived to the shutdown line");
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "every line answered");
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            lines[0].get("error").unwrap().get("kind").unwrap().as_str(),
            Some("protocol"),
            "non-UTF-8 frame must be a typed protocol error"
        );
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
