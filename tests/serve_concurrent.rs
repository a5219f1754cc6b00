//! Concurrent-serving determinism against the golden fixtures.
//!
//! The bounded connection pool on top of the daemon must be
//! *invisible* in the answers: golden scans served by N interleaved
//! clients produce floors **bit-identical** to the checked-in
//! `tests/fixtures/golden_assign.jsonl` and to a sequential
//! single-connection baseline. Assignment is a pure function of
//! (model artifact, scan content), so interleaving, lock acquisition
//! order, and worker scheduling may only change timing — never bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use fis_one::types::io;
use fis_one::types::json::{Json, ToJson};
use fis_one::{Building, Daemon, DaemonConfig, FisOne, FisOneConfig, RegistryConfig};

const GOLDEN_SEED: u64 = 7;
const CLIENTS: usize = 4;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Loads the golden building and stages its fitted artifact in a fresh
/// temp model directory.
fn stage_golden(tag: &str) -> (Building, PathBuf) {
    let corpus = io::load_jsonl(fixture("golden_corpus.jsonl")).expect("golden corpus");
    let building = corpus.buildings()[0].clone();
    let model = FisOne::new(FisOneConfig::default().seed(GOLDEN_SEED))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().expect("bottom surveyed"),
        )
        .expect("golden building fits");
    let dir = std::env::temp_dir().join(format!("fis_conc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    model
        .save(dir.join(format!("{}.json", building.name())))
        .unwrap();
    (building, dir)
}

/// One NDJSON round trip on an existing connection.
fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, request: &str) -> Json {
    writeln!(writer, "{request}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Serves `scans[range]` through `addr` over `CLIENTS` interleaved
/// connections (scan `i` rides connection `i mod CLIENTS`, all clients
/// in flight at once) and returns `(scan index, floor)` pairs.
fn assign_interleaved(addr: &str, building: &Building, indices: &[usize]) -> Vec<(usize, usize)> {
    let mut results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let share: Vec<usize> = indices
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(pos, _)| pos % CLIENTS == c)
                    .map(|(_, i)| i)
                    .collect();
                scope.spawn(move || {
                    let (mut reader, mut writer) = connect(addr);
                    share
                        .into_iter()
                        .map(|i| {
                            let request = Json::obj([
                                ("op", Json::Str("assign".into())),
                                ("building", Json::Str(building.name().to_owned())),
                                ("scan", building.samples()[i].to_json()),
                                ("id", Json::Num(i as f64)),
                            ])
                            .to_string();
                            let response = roundtrip(&mut reader, &mut writer, &request);
                            assert_eq!(
                                response.get("ok"),
                                Some(&Json::Bool(true)),
                                "scan {i}: {response}"
                            );
                            // The correlation id must round-trip exactly.
                            assert_eq!(response.get("id").unwrap().as_usize(), Some(i));
                            (i, response.get("floor").unwrap().as_usize().unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    results.sort_unstable();
    results
}

/// Renders floors in the `golden_assign.jsonl` line format.
fn render(building: &Building, floors: &[(usize, usize)]) -> String {
    floors
        .iter()
        .map(|&(i, floor)| {
            let line = Json::obj([
                ("building", Json::Str(building.name().to_owned())),
                ("floor", Json::Num(floor as f64)),
                ("id", Json::Num(i as f64)),
            ]);
            format!("{line}\n")
        })
        .collect()
}

fn golden_expected() -> String {
    std::fs::read_to_string(fixture("golden_assign.jsonl"))
        .expect("golden assign fixture (run FIS_REGEN_GOLDEN=1 via golden_fixtures once)")
}

#[test]
fn pooled_daemon_serves_interleaved_clients_bit_identically() {
    let (building, dir) = stage_golden("pool");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = Daemon::new(
        DaemonConfig::new(RegistryConfig::new(&dir).assign_cache(64)).pool(CLIENTS + 2),
    );
    let server = std::thread::spawn(move || daemon.serve_tcp(&listener).unwrap());

    let all: Vec<usize> = (0..building.samples().len()).collect();

    // Sequential single-connection baseline first, then the same scans
    // again over interleaved concurrent clients — the second pass also
    // replays against a *warm* answer cache, which must be invisible.
    let sequential = assign_interleaved_baseline(&addr, &building, &all);
    let concurrent = assign_interleaved(&addr, &building, &all);
    assert_eq!(
        sequential, concurrent,
        "concurrent interleaving changed answers vs the sequential baseline"
    );
    assert_eq!(
        render(&building, &concurrent),
        golden_expected(),
        "pooled daemon diverged from tests/fixtures/golden_assign.jsonl"
    );

    let (mut reader, mut writer) = connect(&addr);
    roundtrip(&mut reader, &mut writer, r#"{"op":"shutdown"}"#);
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The sequential reference: one connection, scans in order.
fn assign_interleaved_baseline(
    addr: &str,
    building: &Building,
    indices: &[usize],
) -> Vec<(usize, usize)> {
    let (mut reader, mut writer) = connect(addr);
    indices
        .iter()
        .map(|&i| {
            let request = Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str(building.name().to_owned())),
                ("scan", building.samples()[i].to_json()),
            ])
            .to_string();
            let response = roundtrip(&mut reader, &mut writer, &request);
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
            (i, response.get("floor").unwrap().as_usize().unwrap())
        })
        .collect()
}
