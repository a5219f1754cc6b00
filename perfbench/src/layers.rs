//! The traced run: per-layer numbers from the benchmark's own spans
//! around public calls into each workspace layer.
//!
//! Spans are kept in memory and written to `.bench_work/trace-*.jsonl`
//! when the run ends. A monolithic call (`FisOne::fit`,
//! `Daemon::handle_line`) cannot be opened from outside, so its stages are
//! replayed as separate calls on the same inputs: the pipeline is
//! deterministic, so each replayed stage does the same work it does
//! inside the monolith, and the monolith's self time is its duration
//! minus those stage durations.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fis_one::core::VpTree;
use fis_one::gnn::{RfGnn, TrainReport};
use fis_one::serve::protocol::parse_frame;
use fis_one::serve::registry::Fetch;
use fis_one::serve::{BatchRow, Daemon, DaemonConfig, RegistryConfig, Request, Response};
use fis_one::types::io;
use fis_one::types::json::Json;
use fis_one::{BipartiteGraph, FisOne, FisOneConfig, FittedModel};

use crate::fleet::{Cli, Scale, Tenant};
use crate::stats::{median, quantile, Latency, Metrics};
use crate::traffic::{self, Mode};

/// Everything the probes read; all of it was produced by the run's
/// set-up and timed phase.
pub struct Inputs<'a> {
    pub cli: Cli,
    pub tenants: &'a [Tenant],
    pub scale: &'a Scale,
    pub models: &'a Path,
    pub corpora: &'a Path,
    pub work: &'a Path,
    pub mode: Mode,
    /// Client-side figures of the timed phase's warm requests and of
    /// connection A's requests.
    pub warm: Latency,
    pub conn_a: Latency,
    /// Daemon `stats` registry `(hits, misses, evictions)` at the end of
    /// the timed phase.
    pub registry: [f64; 3],
    /// Requests the benchmark sent to a tenant that was not resident.
    pub cold_requests: usize,
    pub file: PathBuf,
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// An in-memory span recorder. When off, [`Tracer::span`] only runs its
/// closure, which is what the untraced twin of a traced pass measures.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: f64::NAN,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let span = &mut self.spans[id];
            span.dur_us = self.origin.elapsed().as_secs_f64() * 1e6 - span.start_us;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every closed span called `name`, in microseconds.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.dur_us.is_finite())
            .map(|s| s.dur_us)
            .collect()
    }

    fn median_ms(&self, name: &str) -> f64 {
        median(&self.us(name)) / 1e3
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}\n",
                s.name, s.start_us, s.dur_us
            ));
        }
        fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

pub fn probe(inputs: &Inputs) -> Result<Metrics, String> {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    fit_layers(inputs, &mut tr, &mut m)?;
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(inputs.models)));
    for tenant in inputs.tenants {
        let (reply, _) = daemon.handle_line(&traffic::load(tenant));
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!(
                "in-process load of {} failed: {reply}",
                tenant.name
            ));
        }
    }
    let overhead_pct = warm_layers(inputs, &daemon, &mut tr, &mut m)?;
    cold_layers(inputs, &daemon, &mut tr, &mut m)?;
    m.put("trace.overhead_pct", overhead_pct, "%");
    m.put("trace.spans", tr.spans.len() as f64, "count");
    tr.write(&inputs.file)?;
    let bad = m.non_finite();
    if !bad.is_empty() {
        return Err(format!("per-layer metrics without a finite value: {bad:?}"));
    }
    Ok(m)
}

/// Fit layers on tenant 0: the stages of `FisOne::fit` replayed one by
/// one, then the monolith itself, then the shipped CLI at one thread and
/// at its default budget.
fn fit_layers(inputs: &Inputs, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let name = &inputs.tenants[0].name;
    let corpus = inputs.corpora.join(format!("{name}.jsonl"));
    // The CLI's default `--seed` is 0; one thread, like the timed fits.
    let fis = FisOne::new(FisOneConfig::default().seed(0));
    fis_parallel::set_thread_budget(1);
    let replayed = fit_replay(&fis, &corpus, inputs.work, tr);
    fis_parallel::set_thread_budget(0);
    let (bytes, report) = replayed?;
    let shipped = inputs.models.join(format!("{name}.json"));
    if fs::read(&shipped).map_err(|e| e.to_string())? != bytes {
        return Err("in-process fit differs from the shipped fit's artifact".into());
    }

    // One thread, default budget, default budget, one thread: a drift in
    // machine speed during the four fits cancels out of the ratio.
    let (mut one, mut default) = (0.0, 0.0);
    for threads in [Some(1), None, None, Some(1)] {
        let wall = inputs
            .cli
            .fit(&corpus, &inputs.work.join("probe.json"), threads)?;
        match threads {
            Some(_) => one += wall / 2.0,
            None => default += wall / 2.0,
        }
    }

    let ms = |n: &str| tr.median_ms(n);
    let children = [
        "graph.build",
        "gnn.train",
        "gnn.embed",
        "cluster",
        "core.indexing",
    ]
    .iter()
    .map(|n| ms(n))
    .sum::<f64>();
    let epochs = report.epoch_losses.len();
    let last = *report.epoch_losses.last().ok_or("training ran no epoch")?;
    let plateau = report
        .epoch_losses
        .iter()
        .position(|l| (l - last).abs() <= 0.01 * last.abs())
        .map_or(epochs, |e| e + 1);
    let covered = ms("types.io.corpus_load") + ms("core.fit") + ms("model.save");
    m.put("types.io.corpus_load_ms", ms("types.io.corpus_load"), "ms");
    m.put("graph.build_ms", ms("graph.build"), "ms");
    m.put("gnn.train_ms", ms("gnn.train"), "ms");
    m.put("gnn.epoch_ms", ms("gnn.train") / epochs as f64, "ms");
    m.put("gnn.epochs", epochs as f64, "count");
    m.put("gnn.pairs", report.pairs as f64, "count");
    m.put("gnn.plateau_epoch", plateau as f64, "count");
    m.put("gnn.embed_ms", ms("gnn.embed"), "ms");
    m.put("cluster.ms", ms("cluster"), "ms");
    m.put("core.indexing_ms", ms("core.indexing"), "ms");
    m.put("core.fit_ms", ms("core.fit"), "ms");
    m.put("core.fit_self_ms", ms("core.fit") - children, "ms");
    m.put("core.fit_span_coverage", covered / (one * 1e3), "ratio");
    m.put("nn.build_ms", ms("nn.build"), "ms");
    m.put("model.save_ms", ms("model.save"), "ms");
    m.put("model.bytes", bytes.len() as f64, "count");
    m.put("parallel.fit_speedup", one / default, "ratio");
    eprintln!(
        "perfbench: fit probe: shipped fit {one:.3} s at 1 thread, {default:.3} s at the default budget"
    );
    Ok(())
}

/// The traced in-process fit of one corpus: each stage of `FisOne::fit`
/// on its own, then `FisOne::fit` itself, the VP-tree build and the save.
/// Returns the saved artifact's bytes and the training report.
fn fit_replay(
    fis: &FisOne,
    corpus: &Path,
    work: &Path,
    tr: &mut Tracer,
) -> Result<(Vec<u8>, TrainReport), String> {
    let root = tr.open("core.fit.probe", None);
    let dataset = tr
        .span("types.io.corpus_load", root, || io::load_jsonl(corpus))
        .map_err(|e| format!("loading {}: {e}", corpus.display()))?;
    let building = &dataset.buildings()[0];
    let (samples, floors) = (building.samples(), building.floors());
    let anchor = building.bottom_anchor().ok_or("no bottom-floor anchor")?;
    let graph = tr
        .span("graph.build", root, || {
            BipartiteGraph::from_samples(samples)
        })
        .map_err(|e| e.to_string())?;
    let (gnn, report) = tr.span("gnn.train", root, || {
        RfGnn::train_with_report(&graph, &fis.config().gnn)
    })?;
    let embeddings = tr.span("gnn.embed", root, || gnn.embed_samples(&graph));
    let assignment = tr
        .span("cluster", root, || {
            fis.cluster_embeddings(&embeddings, floors)
        })
        .map_err(|e| e.to_string())?;
    tr.span("core.indexing", root, || {
        fis.index_assignment(samples, &assignment, floors, anchor)
    })
    .map_err(|e| e.to_string())?;
    let model = tr
        .span("core.fit", root, || {
            fis.fit(building.name(), samples, floors, anchor)
        })
        .map_err(|e| e.to_string())?;
    let tree = tr.span("nn.build", root, || {
        VpTree::build(model.references(), |i| !samples[i].is_empty())
    });
    if tree.len() != model.nn_index().len() {
        return Err("replayed VP-tree differs from the fitted one".into());
    }
    let saved = work.join("probe-fit.json");
    tr.span("model.save", root, || model.save(&saved))
        .map_err(|e| e.to_string())?;
    tr.close(root);
    let bytes = fs::read(&saved).map_err(|e| e.to_string())?;
    Ok((bytes, report))
}

/// Warm request layers: every frame of the warm stream replayed through
/// the request path's public calls, then through `Daemon::handle_line`.
/// Returns the tracing overhead in percent: the median extra wall time of
/// a traced replay over its untraced twin.
fn warm_layers(
    inputs: &Inputs,
    daemon: &Daemon,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<f64, String> {
    let warm: &[usize] = match inputs.mode {
        Mode::Warm => &[0, 1, 2, 3],
        Mode::Churn => &[2, 3],
    };
    let frames = inputs.tenants[0].frames.len();
    let replays = if inputs.scale.check_quality { 200 } else { 8 };
    let stream: Vec<&str> = (0..replays)
        .map(|r| inputs.tenants[warm[r % warm.len()]].frames[(r / warm.len()) % frames].as_str())
        .collect();
    // Pass 0 warms caches and is not counted. Then every request runs
    // untraced and traced back to back, in alternating order, so a drift
    // in machine speed hits both sides of each pair alike.
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for pass in 0..5 {
        let root = tr.open("serve.warm.probe", None);
        for (i, line) in stream.iter().enumerate() {
            for on in [i % 2 == 0, i % 2 == 1] {
                tr.on = on && pass > 0;
                let started = Instant::now();
                replay_request(daemon, line, tr, root)?;
                let wall = started.elapsed().as_secs_f64();
                match (pass, on) {
                    (0, _) => {}
                    (_, true) => traced.push(wall),
                    (_, false) => untraced.push(wall),
                }
            }
        }
        tr.on = true;
        tr.close(root);
    }

    let (parse, frame) = (
        tr.us("types.json.frame_parse"),
        tr.us("serve.protocol.parse_frame"),
    );
    let (hit, batch) = (tr.us("serve.registry.hit"), tr.us("core.assign_batch"));
    let (to_json, handle) = (
        tr.us("serve.protocol.to_json"),
        tr.us("serve.daemon.handle"),
    );
    let decode: Vec<f64> = frame.iter().zip(&parse).map(|(f, p)| f - p).collect();
    let encode: Vec<f64> = to_json
        .iter()
        .zip(tr.us("serve.protocol.serialize"))
        .map(|(j, s)| j + s)
        .collect();
    // `handle_line` returns the reply as a value; serializing it is the
    // connection's job, so only `to_json` nests inside the handle span.
    let children: Vec<f64> = (0..handle.len())
        .map(|i| frame[i] + hit[i] + batch[i] + to_json[i])
        .collect();
    let own: Vec<f64> = handle.iter().zip(&children).map(|(h, c)| h - c).collect();
    let handle_us = median(&handle);
    m.put("types.json.frame_parse_us", median(&parse), "us");
    m.put("serve.protocol.decode_us", median(&decode), "us");
    m.put("serve.registry.hit_us", median(&hit), "us");
    m.put("core.assign_us", median(&tr.us("core.assign")), "us");
    m.put("core.assign_batch_us", median(&batch), "us");
    m.put("serve.protocol.encode_us", median(&encode), "us");
    m.put("serve.daemon.handle_us", handle_us, "us");
    m.put("serve.daemon.self_us", median(&own), "us");
    m.put(
        "serve.daemon.span_coverage",
        children.iter().sum::<f64>() / handle.iter().sum::<f64>(),
        "ratio",
    );
    m.put(
        "serve.transport_us",
        inputs.warm.p50_ms * 1e3 - handle_us,
        "us",
    );
    // Ungated: hypervisor steal moves these by tens of percent between
    // runs on a small shared machine.
    m.put("serve.tcp.warm_p90_ms", inputs.warm.p90_ms, "ms");
    m.put("serve.tcp.warm_rps", inputs.warm.per_s, "1/s");
    m.put("serve.tcp.conn_a_p90_ms", inputs.conn_a.p90_ms, "ms");
    let frame_bytes =
        stream.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / stream.len() as f64;
    m.put("serve.frame_bytes", frame_bytes, "bytes");
    m.put("serve.registry.hits", inputs.registry[0], "count");
    m.put("serve.registry.misses", inputs.registry[1], "count");
    let extra: Vec<f64> = traced.iter().zip(&untraced).map(|(t, u)| t - u).collect();
    Ok(median(&extra) / median(&untraced) * 100.0)
}

/// One warm `assign_batch` frame through each layer the daemon runs it
/// through, then through the daemon itself; both answers must agree.
fn replay_request(
    daemon: &Daemon,
    line: &str,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Result<(), String> {
    let req = tr.open("serve.request", parent);
    tr.span("types.json.frame_parse", req, || Json::parse(line))
        .map_err(|e| e.to_string())?;
    let frame = tr
        .span("serve.protocol.parse_frame", req, || parse_frame(line))
        .map_err(|e| format!("{e:?}"))?;
    let Request::AssignBatch { building, scans } = frame.request else {
        return Err("the warm stream holds only assign_batch frames".into());
    };
    let (model, fetch) = tr
        .span("serve.registry.hit", req, || {
            daemon.registry().get(&building)
        })
        .map_err(|e| e.to_string())?;
    if fetch != Fetch::Hit {
        return Err(format!("warm replay of {building} missed the registry"));
    }
    for scan in &scans {
        tr.span("core.assign", req, || model.assign(scan))
            .map_err(|e| e.to_string())?;
    }
    let results = tr.span("core.assign_batch", req, || model.assign_stream(&scans, 0));
    let rows = scans
        .iter()
        .zip(results)
        .map(|(scan, r)| BatchRow {
            scan_id: scan.id().index(),
            result: r.map(|f| f.index()).map_err(Into::into),
        })
        .collect();
    let response = Response::AssignBatch { building, rows };
    let json = tr.span("serve.protocol.to_json", req, || {
        response.to_json(frame.version, frame.id.as_ref())
    });
    let encoded = tr.span("serve.protocol.serialize", req, || json.to_string());
    let (reply, _) = tr.span("serve.daemon.handle", req, || daemon.handle_line(line));
    tr.close(req);
    if reply.to_string() != encoded {
        return Err(format!(
            "daemon answered {reply}, the replayed layers {encoded}"
        ));
    }
    Ok(())
}

/// Cold layers on connection A's cold tenant: artifact parse, decode and
/// load, a registry get right after an evict, and how long a get on a
/// resident tenant waits while another thread loads.
fn cold_layers(
    inputs: &Inputs,
    daemon: &Daemon,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let rounds = if inputs.scale.check_quality { 6 } else { 2 };
    let (name, resident) = (&inputs.tenants[0].name, &inputs.tenants[2].name);
    let path = inputs.models.join(format!("{name}.json"));
    let text = fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let registry = daemon.registry();
    let root = tr.open("serve.cold.probe", None);
    for _ in 0..rounds {
        let round = tr.open("serve.cold.round", root);
        tr.span("types.json.artifact_parse", round, || Json::parse(&text))
            .map_err(|e| e.to_string())?;
        tr.span("model.from_json_str", round, || {
            FittedModel::from_json_str(&text)
        })
        .map_err(|e| e.to_string())?;
        tr.span("model.load", round, || FittedModel::load(&path))
            .map_err(|e| e.to_string())?;
        registry.evict(name);
        let (_, fetch) = tr
            .span("serve.registry.cold_get", round, || registry.get(name))
            .map_err(|e| e.to_string())?;
        if fetch != Fetch::Miss {
            return Err(format!("get after evict of {name} did not load"));
        }
        registry.evict(name);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let loader = s.spawn(|| {
                barrier.wait();
                registry.get(name).map(|_| ())
            });
            barrier.wait();
            std::thread::sleep(Duration::from_millis(2));
            let waited = tr.span("serve.registry.lock_wait", round, || registry.get(resident));
            let loaded = loader.join().expect("loader thread panicked");
            loaded.and(waited.map(|_| ()))
        })
        .map_err(|e| e.to_string())?;
        tr.close(round);
    }
    tr.close(root);
    let parse = tr.us("types.json.artifact_parse");
    let decode: Vec<f64> = tr
        .us("model.from_json_str")
        .iter()
        .zip(&parse)
        .map(|(whole, parse)| (whole - parse) / 1e3)
        .collect();
    let mb_per_s: Vec<f64> = parse.iter().map(|us| text.len() as f64 / us).collect();
    let lock_wait: Vec<f64> = tr
        .us("serve.registry.lock_wait")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    m.put(
        "serve.registry.cold_get_ms",
        tr.median_ms("serve.registry.cold_get"),
        "ms",
    );
    m.put("model.load_ms", tr.median_ms("model.load"), "ms");
    m.put("types.json.artifact_parse_ms", median(&parse) / 1e3, "ms");
    m.put("types.json.artifact_mb_per_s", median(&mb_per_s), "MB/s");
    m.put("model.decode_ms", median(&decode), "ms");
    m.put("serve.registry.lock_wait_p50_ms", median(&lock_wait), "ms");
    m.put(
        "serve.registry.lock_wait_max_ms",
        quantile(&lock_wait, 1.0),
        "ms",
    );
    m.put(
        "serve.registry.loads_per_cold",
        inputs.registry[1] / inputs.cold_requests as f64,
        "ratio",
    );
    Ok(())
}
