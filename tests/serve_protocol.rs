//! Protocol failure-injection suite for the serving daemon.
//!
//! Everything hostile a client (or an operator's filesystem) can do —
//! truncated and malformed frames, unknown buildings, artifacts deleted
//! between load and request, eviction mid-stream, oversized batches —
//! must produce a **typed JSON error response** (or, for a deleted
//! artifact, keep serving the resident model until a `swap`) and leave
//! the daemon serving; nothing here may crash or close the loop early. The last
//! test drives the real `fis-one serve` binary in pipe mode and asserts
//! a clean exit.

use std::path::PathBuf;

use fis_one::types::json::{Json, ToJson};
use fis_one::{
    Building, BuildingConfig, Daemon, DaemonConfig, FisOne, FisOneConfig, RegistryConfig,
};

fn fit_building(name: &str, seed: u64) -> (Building, fis_one::FittedModel) {
    let b = BuildingConfig::new(name, 3)
        .samples_per_floor(15)
        .aps_per_floor(8)
        .atrium_aps(0)
        .seed(seed)
        .generate();
    let model = FisOne::new(FisOneConfig::default().seed(seed))
        .fit(
            b.name(),
            b.samples(),
            b.floors(),
            b.bottom_anchor().unwrap(),
        )
        .unwrap();
    (b, model)
}

fn model_dir(tag: &str, models: &[(&str, u64)]) -> (PathBuf, Vec<Building>) {
    let dir = std::env::temp_dir().join(format!("fis_proto_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut buildings = Vec::new();
    for &(name, seed) in models {
        let (b, model) = fit_building(name, seed);
        model.save(dir.join(format!("{name}.json"))).unwrap();
        buildings.push(b);
    }
    (dir, buildings)
}

fn error_kind(response: &Json) -> Option<&str> {
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(false)),
        "expected an error response, got {response}"
    );
    response.get("error")?.get("kind")?.as_str()
}

#[test]
fn malformed_and_truncated_frames_are_typed_and_nonfatal() {
    let (dir, buildings) = model_dir("frames", &[("ok", 31)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    for bad in [
        "not json at all",
        "{\"op\": \"assign\", \"building\": \"ok\", \"scan\"", // truncated mid-frame
        "[1,2,3]",
        "{\"building\": \"ok\"}",                     // no op
        "{\"op\": 7}",                                // non-string op
        "{\"op\": \"warp\"}",                         // unknown op
        "{\"op\": \"assign\", \"building\": \"ok\"}", // missing scan
        "{\"op\": \"assign_batch\", \"building\": \"ok\", \"scans\": 3}",
        "{\"op\": \"assign\", \"building\": \"ok\", \"scan\": {\"id\": \"x\", \"readings\": []}}",
        "{\"op\": \"load\", \"building\": \"\"}",
        "{\"op\": \"load\", \"building\": \"../../etc/passwd\"}",
    ] {
        let (response, shutdown) = daemon.handle_line(bad);
        assert!(!shutdown, "bad frame must not stop the daemon: {bad}");
        assert_eq!(error_kind(&response), Some("protocol"), "frame: {bad}");
    }
    // The daemon still serves real work afterwards.
    let line = Json::obj([
        ("op", Json::Str("assign".into())),
        ("building", Json::Str("ok".into())),
        ("scan", buildings[0].samples()[0].to_json()),
    ])
    .to_string();
    let (response, _) = daemon.handle_line(&line);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_building_is_typed() {
    let (dir, _) = model_dir("unknown", &[("real", 32)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let (response, _) = daemon.handle_line(r#"{"op":"load","building":"phantom"}"#);
    assert_eq!(error_kind(&response), Some("unknown_building"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_is_model_error() {
    let (dir, _) = model_dir("corrupt", &[]);
    std::fs::write(
        dir.join("rotten.json"),
        "{\"schema\": \"fis-one/fitted-model\"",
    )
    .unwrap();
    // A retired schema version (3 was the f32 artifact) is a model error
    // too, not a panic.
    std::fs::write(
        dir.join("retired.json"),
        r#"{"schema":"fis-one/fitted-model","version":3}"#,
    )
    .unwrap();
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let (response, _) = daemon.handle_line(r#"{"op":"load","building":"rotten"}"#);
    assert_eq!(error_kind(&response), Some("model"));
    let (response, _) = daemon.handle_line(r#"{"op":"load","building":"retired"}"#);
    assert_eq!(error_kind(&response), Some("model"));
    let message = response.get("error").and_then(|e| e.get("message"));
    assert!(
        message
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("unsupported artifact version 3")),
        "{response}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_deleted_between_load_and_request() {
    let (dir, buildings) = model_dir("deleted", &[("vanish", 33)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let (response, _) = daemon.handle_line(r#"{"op":"load","building":"vanish"}"#);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    std::fs::remove_file(dir.join("vanish.json")).unwrap();
    let line = Json::obj([
        ("op", Json::Str("assign".into())),
        ("building", Json::Str("vanish".into())),
        ("scan", buildings[0].samples()[0].to_json()),
    ])
    .to_string();
    // Deleting the artifact does nothing on its own: the resident model
    // keeps serving.
    let (served, _) = daemon.handle_line(&line);
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served}");
    let (response, _) = daemon.handle_line(r#"{"op":"load","building":"vanish"}"#);
    assert_eq!(response.get("fetch").unwrap().as_str(), Some("hit"));
    // A swap finds no artifact: it fails typed and drops the entry...
    let (response, _) = daemon.handle_line(r#"{"v":2,"op":"swap","building":"vanish"}"#);
    assert_eq!(error_kind(&response), Some("unknown_building"));
    assert!(daemon.registry().snapshot().loaded.is_empty());
    // ...so the building is simply unknown from then on — still typed.
    let (response, _) = daemon.handle_line(&line);
    assert_eq!(error_kind(&response), Some("unknown_building"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_mid_stream_reloads_with_identical_answers() {
    let (dir, buildings) = model_dir("evict", &[("steady", 34)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let assign = |daemon: &Daemon, scan: &fis_one::SignalSample| -> usize {
        let line = Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("steady".into())),
            ("scan", scan.to_json()),
        ])
        .to_string();
        let (response, _) = daemon.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        response.get("floor").unwrap().as_usize().unwrap()
    };
    let before: Vec<usize> = buildings[0]
        .samples()
        .iter()
        .take(8)
        .map(|s| assign(&daemon, s))
        .collect();
    let (response, _) = daemon.handle_line(r#"{"op":"evict","building":"steady"}"#);
    assert_eq!(response.get("evicted"), Some(&Json::Bool(true)));
    let after: Vec<usize> = buildings[0]
        .samples()
        .iter()
        .take(8)
        .map(|s| assign(&daemon, s))
        .collect();
    assert_eq!(before, after, "evict + reload changed assignments");
    assert!(daemon.registry().stats().evictions >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_batch_is_capacity_error_and_counted_batches_pass() {
    let (dir, buildings) = model_dir("cap", &[("cap", 35)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)).max_batch(4));
    let batch = |n: usize| {
        Json::obj([
            ("op", Json::Str("assign_batch".into())),
            ("building", Json::Str("cap".into())),
            (
                "scans",
                Json::Arr(
                    buildings[0]
                        .samples()
                        .iter()
                        .take(n)
                        .map(|s| s.to_json())
                        .collect(),
                ),
            ),
        ])
        .to_string()
    };
    let (response, _) = daemon.handle_line(&batch(5));
    assert_eq!(error_kind(&response), Some("capacity"));
    let (response, _) = daemon.handle_line(&batch(4));
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(response.get("count").unwrap().as_usize(), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_eviction_under_pressure_keeps_serving_all_tenants() {
    let (dir, buildings) = model_dir("lru", &[("t0", 36), ("t1", 37), ("t2", 38)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir).max_models(2)));
    // Rotate through more tenants than the cache holds, twice.
    for round in 0..2 {
        for b in &buildings {
            let line = Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str(b.name().to_owned())),
                ("scan", b.samples()[round].to_json()),
            ])
            .to_string();
            let (response, _) = daemon.handle_line(&line);
            assert_eq!(
                response.get("ok"),
                Some(&Json::Bool(true)),
                "tenant {} round {round}: {response}",
                b.name()
            );
        }
    }
    let stats = daemon.registry().stats();
    assert!(stats.evictions >= 1, "cache pressure must evict");
    assert!(daemon.registry().snapshot().loaded.len() <= 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a non-UTF-8 byte on the wire used to surface as an
/// `InvalidData` error from `read_line`, killing the connection with no
/// response. Lines are now read as raw bytes and decoded lossily, so
/// the frame fails JSON parsing and earns a typed `protocol` error —
/// and the connection keeps serving.
#[test]
fn non_utf8_bytes_get_a_protocol_error_and_the_connection_survives() {
    let (dir, buildings) = model_dir("utf8", &[("raw", 40)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let assign = Json::obj([
        ("op", Json::Str("assign".into())),
        ("building", Json::Str("raw".into())),
        ("scan", buildings[0].samples()[0].to_json()),
    ])
    .to_string();
    // 0xFF/0xFE can never appear in UTF-8; splice them mid-stream.
    let mut script: Vec<u8> = Vec::new();
    script.extend_from_slice(b"\xff\xfe\xfd\n");
    script.extend_from_slice(b"{\"op\":\"stats\"\xff}\n");
    script.extend_from_slice(assign.as_bytes());
    script.push(b'\n');
    let mut out = Vec::new();
    let shutdown = daemon
        .serve_connection(&script[..], &mut out)
        .expect("invalid UTF-8 must not be a transport error");
    assert!(!shutdown);
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3, "every line answered, none dropped");
    assert_eq!(error_kind(&lines[0]), Some("protocol"));
    assert_eq!(error_kind(&lines[1]), Some("protocol"));
    assert_eq!(
        lines[2].get("ok"),
        Some(&Json::Bool(true)),
        "the connection still serves real work after garbage bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: scan ids ride the wire as JSON numbers (f64), so ids at
/// or past 2^53 lose integer precision and could collide across a
/// batch. Out-of-range ids must die at parse time as typed `protocol`
/// errors — never get truncated into someone else's id.
#[test]
fn out_of_range_scan_ids_are_protocol_errors() {
    let (dir, _) = model_dir("ids", &[("ids", 41)]);
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    for bad in [
        // Just past u32: the full id space the daemon accepts.
        r#"{"op":"assign","building":"ids","scan":{"id":4294967296,"readings":[]}}"#,
        // Past 2^53: would silently collide with 2^53 as an f64.
        r#"{"op":"assign","building":"ids","scan":{"id":9007199254740993,"readings":[]}}"#,
        r#"{"op":"assign","building":"ids","scan":{"id":-1,"readings":[]}}"#,
        r#"{"op":"assign","building":"ids","scan":{"id":1.25,"readings":[]}}"#,
        r#"{"op":"assign_batch","building":"ids","scans":[{"id":18446744073709551616,"readings":[]}]}"#,
    ] {
        let (response, shutdown) = daemon.handle_line(bad);
        assert!(!shutdown);
        assert_eq!(error_kind(&response), Some("protocol"), "frame: {bad}");
        let message = response
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(
            message.contains("0..=4294967295"),
            "error names the accepted range: {message}"
        );
    }
    // The boundary id itself is accepted (fails later only because the
    // scan is empty, which is an inference error, not a protocol one).
    let (response, _) = daemon
        .handle_line(r#"{"op":"assign","building":"ids","scan":{"id":4294967295,"readings":[]}}"#);
    assert_ne!(error_kind(&response), Some("protocol"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipe mode through the real binary: a 1-building script ending in
/// `shutdown` must answer every line and exit 0.
#[test]
fn serve_binary_pipe_mode_clean_shutdown() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let (dir, buildings) = model_dir("binary", &[("bin", 39)]);
    let scan = buildings[0].samples()[0].to_json();
    let script = format!(
        "{}\n{}\nnot json\n{}\n",
        Json::obj([
            ("op", Json::Str("load".into())),
            ("building", Json::Str("bin".into())),
        ]),
        Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("bin".into())),
            ("scan", scan),
        ]),
        r#"{"op":"shutdown"}"#,
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_fis-one"))
        .args(["serve", "--models", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fis-one serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "daemon exit: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("response line parses"))
        .collect();
    assert_eq!(lines.len(), 4, "stdout: {stdout}");
    assert_eq!(lines[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(lines[2].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(lines[3].get("op").unwrap().as_str(), Some("shutdown"));
    std::fs::remove_dir_all(&dir).ok();
}
