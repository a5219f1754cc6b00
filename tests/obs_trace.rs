//! End-to-end observability acceptance: a request that carries a
//! client-supplied `"trace"` context must be reconstructable across
//! client → daemon request → assign → registry from the JSONL journal
//! alone, and turning observability on (stderr logging via
//! `FIS_LOG`/`set_level`, or the `--trace` journal) must never change a
//! single answer byte — neither serving responses nor fit artifacts.
//!
//! The journal and the log-level override are process-global, so every
//! in-process assertion lives in ONE `#[test]` with sequential phases;
//! this file is its own test binary, so nothing else races the global
//! state. The `fit --trace` test runs the CLI in a child process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;

use fis_one::gnn::STEPS_PER_EPOCH;
use fis_one::obs::{self, journal, Level, TraceContext};
use fis_one::types::json::{Json, ToJson};
use fis_one::{
    Building, BuildingConfig, Daemon, DaemonConfig, FisOne, FisOneConfig, RegistryConfig,
};

const SEED: u64 = 11;

/// Sends every scan of `building` through one connection to `addr` and
/// returns the *raw* response lines — byte-identity is the contract, so
/// no parsing happens on the primary path. With `traces`, scan `i`'s
/// frame carries the client context `traces[i]` in its `"trace"` field.
fn assign_raw(addr: &str, building: &Building, traces: Option<&[TraceContext]>) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    (0..building.samples().len())
        .map(|i| {
            let mut request = vec![
                ("op", Json::Str("assign".into())),
                ("building", Json::Str(building.name().to_owned())),
                ("scan", building.samples()[i].to_json()),
                ("id", Json::Num(i as f64)),
            ];
            if let Some(traces) = traces {
                request.push(("trace", traces[i].to_json()));
            }
            writeln!(writer, "{}", Json::obj(request)).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains("\"ok\":true"),
                "scan {i} failed: {}",
                line.trim()
            );
            line
        })
        .collect()
}

fn shutdown(addr: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
}

fn field<'a>(event: &'a Json, key: &str) -> Option<&'a str> {
    event.get(key).and_then(Json::as_str)
}

/// Parses a journal and keeps only well-formed event objects.
fn events_of(jsonl: &str) -> Vec<Json> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("journal line parses"))
        .collect()
}

fn find<'a>(events: &'a [Json], component: &str, name: &str) -> Vec<&'a Json> {
    events
        .iter()
        .filter(|e| field(e, "component") == Some(component) && field(e, "event") == Some(name))
        .collect()
}

fn fit_model(building: &Building) -> fis_one::FittedModel {
    FisOne::new(FisOneConfig::quick(SEED))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().expect("bottom floor surveyed"),
        )
        .expect("synthetic building fits")
}

#[test]
fn journals_reconstruct_client_traced_requests_and_answers_stay_bit_identical() {
    let building = BuildingConfig::new("obs", 3)
        .samples_per_floor(12)
        .seed(SEED)
        .generate();
    let dir = std::env::temp_dir().join(format!("fis_obs_trace_{}", std::process::id()));
    let models = dir.join("models");
    std::fs::create_dir_all(&models).unwrap();

    // ---- Phase 1: fit artifacts are byte-identical with the journal
    // off vs on, and the journal carries the pipeline stage spans. ----
    obs::set_level(None); // force the stderr sink off regardless of env
    let quiet = fit_model(&building);
    journal::start(journal::DEFAULT_JOURNAL_CAPACITY);
    let journaled = fit_model(&building);
    let fit_journal = journal::stop().expect("journal was recording").to_jsonl();

    let off_path = dir.join("fit-off.json");
    let on_path = dir.join("fit-on.json");
    quiet.save(&off_path).unwrap();
    journaled.save(&on_path).unwrap();
    assert_eq!(
        std::fs::read(&off_path).unwrap(),
        std::fs::read(&on_path).unwrap(),
        "journal recording changed the fit artifact bytes"
    );

    let fit_events = events_of(&fit_journal);
    let fit_span = find(&fit_events, "pipeline", "fit");
    assert_eq!(fit_span.len(), 1, "exactly one fit span in the journal");
    let fit_trace = field(fit_span[0], "trace").expect("fit span carries a trace id");
    let fit_id = field(fit_span[0], "span").expect("fit span has an id");
    for stage in [
        "graph_build",
        "gnn_train",
        "cluster",
        "floor_order",
        "vptree_build",
    ] {
        let spans = find(&fit_events, "pipeline", stage);
        assert!(!spans.is_empty(), "fit journal is missing stage `{stage}`");
        for span in &spans {
            assert_eq!(
                field(span, "trace"),
                Some(fit_trace),
                "stage `{stage}` is outside the fit trace"
            );
            assert!(span.get("dur_ns").is_some(), "stage `{stage}` is untimed");
        }
    }
    // Top-level stages nest directly under the fit span.
    for stage in ["graph_build", "cluster"] {
        assert_eq!(
            field(find(&fit_events, "pipeline", stage)[0], "parent"),
            Some(fit_id),
            "stage `{stage}` does not parent under the fit span"
        );
    }

    // ---- Phase 2: serve the model over TCP and replay the same scans
    // with observability off, stderr-on, journal-on. ----
    quiet
        .save(models.join(format!("{}.json", building.name())))
        .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&models)));
    let server = std::thread::spawn(move || daemon.serve_tcp(&listener).unwrap());

    // Leg 1: everything off — the reference answers.
    let reference = assign_raw(&addr, &building, None);
    // Leg 2: stderr logging at debug — answers must not move.
    obs::set_level(Some(Level::Debug));
    let logged = assign_raw(&addr, &building, None);
    // Leg 3: stderr off again, journal recording, every frame carrying
    // a client-supplied trace context, and the model evicted first so
    // the leg's first assign reloads it — answers must not move.
    obs::set_level(None);
    let mut evict = TcpStream::connect(&addr).unwrap();
    writeln!(
        evict,
        r#"{{"op":"evict","building":"{}"}}"#,
        building.name()
    )
    .unwrap();
    let mut evicted = String::new();
    BufReader::new(evict).read_line(&mut evicted).unwrap();
    assert!(evicted.contains("\"evicted\":true"), "{}", evicted.trim());
    let client_traces: Vec<TraceContext> = (0..building.samples().len())
        .map(|i| TraceContext::root(format!("client-{i}").as_bytes()))
        .collect();
    journal::start(journal::DEFAULT_JOURNAL_CAPACITY);
    let journaled_legs = assign_raw(&addr, &building, Some(&client_traces));
    let serve_journal = journal::stop().expect("journal was recording").to_jsonl();

    assert_eq!(
        reference, logged,
        "FIS_LOG-style stderr logging changed serving answers"
    );
    assert_eq!(
        reference, journaled_legs,
        "journal recording changed serving answers"
    );
    // The trace context rides the *request* envelope only; responses
    // must never echo it.
    for line in reference.iter().chain(&logged).chain(&journaled_legs) {
        assert!(
            !line.contains("\"trace\""),
            "response leaked the trace field: {}",
            line.trim()
        );
    }

    // ---- Phase 3: reconstruct each client-traced request end-to-end
    // from the journal: daemon request → assign → registry. ----
    let events = events_of(&serve_journal);
    for client in &client_traces {
        let (trace, client_span) = (
            format!("{:016x}", client.trace_id),
            format!("{:016x}", client.span_id),
        );
        let trace = trace.as_str();
        let request = events
            .iter()
            .find(|e| {
                field(e, "component") == Some("daemon")
                    && field(e, "event") == Some("request")
                    && field(e, "trace") == Some(trace)
                    && field(e, "parent") == Some(client_span.as_str())
            })
            .unwrap_or_else(|| panic!("no daemon request span adopted client trace {trace}"));
        let request_span = field(request, "span").unwrap();
        let assign = events
            .iter()
            .find(|e| {
                field(e, "component") == Some("daemon")
                    && field(e, "event") == Some("assign")
                    && field(e, "trace") == Some(trace)
                    && field(e, "parent") == Some(request_span)
            })
            .unwrap_or_else(|| panic!("no assign span under request for trace {trace}"));
        assert!(assign.get("dur_ns").is_some(), "assign span is untimed");
        // The registry is consulted inside the assign span (artifact
        // load on the first request, resident hits after), and its
        // events inherit the same trace.
        let registry_hop = events
            .iter()
            .any(|e| field(e, "component") == Some("registry") && field(e, "trace") == Some(trace));
        assert!(registry_hop, "no registry event joined trace {trace}");
    }
    // The reload inside the leg's first assign leaves its `load` event,
    // timed: its own read and decode, their sum, and its wait on the slot.
    let misses: Vec<&Json> = find(&events, "registry", "load")
        .into_iter()
        .filter(|e| field(e, "building") == Some(building.name()))
        .filter(|e| field(e, "fetch") == Some("miss"))
        .collect();
    assert_eq!(
        misses.len(),
        1,
        "one registry load miss in the journaled leg"
    );
    let nanos = |key: &str| misses[0].get(key).and_then(Json::as_f64);
    assert!(
        nanos("load_ns").is_some_and(|ns| ns > 0.0),
        "miss without a load time: {}",
        misses[0]
    );
    assert!(
        nanos("wait_ns").is_some_and(|ns| ns >= 0.0),
        "miss without a slot wait: {}",
        misses[0]
    );
    let (read, decode) = (nanos("read_ns"), nanos("decode_ns"));
    assert!(
        read.is_some_and(|ns| ns >= 0.0) && decode.is_some_and(|ns| ns > 0.0),
        "miss without read and decode times: {}",
        misses[0]
    );
    assert_eq!(
        nanos("load_ns"),
        Some(read.unwrap() + decode.unwrap()),
        "load_ns is not read_ns + decode_ns: {}",
        misses[0]
    );

    // The summarizer digests the same journal into per-stage rows.
    let stages = obs::summarize(&serve_journal);
    assert!(
        stages.contains_key(&("daemon".to_owned(), "assign".to_owned())),
        "summary is missing stage (\"daemon\", \"assign\")"
    );

    shutdown(&addr);
    server.join().unwrap();
    obs::level::clear_level();
    std::fs::remove_dir_all(&dir).ok();
}

/// A default-config `fit --trace` explains its training: one `gnn`
/// `epoch` event per configured epoch, each timed and within the step
/// budget, and `trace summarize` times the epoch row.
#[test]
fn fit_trace_reports_every_epoch_within_the_step_budget() {
    let dir = std::env::temp_dir().join(format!("fis_fit_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fis-one"))
            .args(args)
            .output()
            .expect("run fis-one");
        assert!(
            out.status.success(),
            "fis-one {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let (corpus, model, trace) = (
        path("corpus.jsonl"),
        path("model.json"),
        path("trace.jsonl"),
    );
    run(&[
        "generate",
        "--floors",
        "3",
        "--samples",
        "20",
        "--seed",
        "3",
        "--out",
        &corpus,
    ]);
    run(&[
        "fit", "--corpus", &corpus, "--out", &model, "--trace", &trace,
    ]);

    let journal = std::fs::read_to_string(&trace).unwrap();
    let events = events_of(&journal);
    let epochs = find(&events, "gnn", "epoch");
    assert_eq!(epochs.len(), FisOneConfig::default().gnn.epochs);
    for epoch in &epochs {
        let num = |key: &str| epoch.get(key).and_then(Json::as_f64);
        let batches = num("batches").expect("epoch event carries batches");
        assert!(
            batches >= 1.0 && batches <= STEPS_PER_EPOCH as f64,
            "{batches} batches"
        );
        assert!(num("batch_pairs").expect("epoch event carries batch_pairs") >= 1.0);
        assert!(num("dur_ns").expect("epoch event is timed") > 0.0);
    }
    let summary = run(&["trace", "summarize", &trace]);
    assert!(
        summary
            .lines()
            .any(|l| l.starts_with("gnn") && l.contains("epoch")),
        "summary has no gnn epoch row:\n{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
