//! Walkthrough of the multi-tenant serving daemon (`fis-serve`).
//!
//! ```bash
//! cargo run --release --example serving_daemon
//! ```
//!
//! Fits two small buildings, stages their artifacts in a model
//! directory, then drives the daemon through the exact NDJSON protocol
//! `fis-one serve` speaks on stdin/stdout — lazy loads, a batch assign,
//! an eviction + deterministic reload, a typed error, stats, shutdown.
//! The in-memory transport here and the pipe/TCP transports of the CLI
//! share one dispatch path, so what this example prints is what a real
//! client sees on the wire.

use fis_one::types::json::{Json, ToJson};
use fis_one::{BuildingConfig, Daemon, DaemonConfig, FisOne, FisOneConfig, RegistryConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Fit two tenants and stage their artifacts as <dir>/<id>.json —
    //    exactly what `fis-one fit --out models/<id>.json` produces.
    let dir = std::env::temp_dir().join(format!("fis_serving_daemon_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut tenants = Vec::new();
    for (name, seed) in [("hq", 1u64), ("mall", 2u64)] {
        let building = BuildingConfig::new(name, 3)
            .samples_per_floor(20)
            .aps_per_floor(8)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        let model = FisOne::new(FisOneConfig::default().seed(seed)).fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().expect("bottom floor surveyed"),
        )?;
        model.save(dir.join(format!("{name}.json")))?;
        println!("fitted tenant `{name}` ({} scans)", building.len());
        tenants.push(building);
    }

    // 2. A daemon over the directory: cache capped at one model so the
    //    second tenant forces an LRU eviction.
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir).max_models(1)));

    // 3. Drive the wire protocol.
    let hq_scan = tenants[0].samples()[0].to_json();
    let mall_scans: Vec<Json> = tenants[1].samples()[..5]
        .iter()
        .map(|s| s.to_json())
        .collect();
    let script = [
        // Lazy load on first touch.
        Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("hq".into())),
            ("scan", hq_scan.clone()),
            ("id", Json::Num(1.0)),
        ]),
        // Second tenant: loads, and evicts `hq` (max_models = 1).
        Json::obj([
            ("op", Json::Str("assign_batch".into())),
            ("building", Json::Str("mall".into())),
            ("scans", Json::Arr(mall_scans)),
            ("id", Json::Num(2.0)),
        ]),
        // `hq` again: reloaded from disk, answer bit-identical to id 1.
        Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("hq".into())),
            ("scan", hq_scan),
            ("id", Json::Num(3.0)),
        ]),
        // A tenant that does not exist: typed error, daemon keeps going.
        Json::obj([
            ("op", Json::Str("load".into())),
            ("building", Json::Str("ghost-tower".into())),
            ("id", Json::Num(4.0)),
        ]),
        Json::obj([("op", Json::Str("stats".into())), ("id", Json::Num(5.0))]),
        Json::obj([("op", Json::Str("shutdown".into()))]),
    ]
    .map(|j| j.to_string())
    .join("\n");

    let mut responses = Vec::new();
    let shutdown = daemon.serve_connection(script.as_bytes(), &mut responses)?;
    assert!(shutdown, "script ends with a shutdown request");

    println!("\n--- wire transcript ---");
    let responses = String::from_utf8(responses)?;
    let mut floors = Vec::new();
    for (request, response) in script.lines().zip(responses.lines()) {
        let shown = if request.len() > 96 {
            format!("{}…", &request[..96])
        } else {
            request.to_owned()
        };
        println!(">> {shown}");
        let json = Json::parse(response)?;
        match json.get("id").and_then(Json::as_usize) {
            Some(1) | Some(3) => {
                let floor = json.get("floor").unwrap().as_usize().unwrap();
                floors.push(floor);
                println!("<< floor {floor} (ok={})", json.get("ok").unwrap());
            }
            Some(4) => println!(
                "<< typed error: {}",
                json.get("error").unwrap().get("kind").unwrap()
            ),
            Some(5) => {
                let registry = json.get("stats").unwrap().get("registry").unwrap();
                println!(
                    "<< stats: evictions={} misses={} (cache capped at 1 model)",
                    registry.get("evictions").unwrap(),
                    registry.get("misses").unwrap()
                );
            }
            _ => println!("<< {response}"),
        }
    }
    assert_eq!(
        floors[0], floors[1],
        "evict + reload must not change the answer"
    );
    println!(
        "\nsame scan before and after eviction → floor {} both times (deterministic reload)",
        floors[0]
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
