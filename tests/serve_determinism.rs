//! Daemon-level determinism against the golden fixtures.
//!
//! The acceptance criterion of the serving daemon: golden scans served
//! through `fis-serve` — any thread count, with a forced eviction +
//! reload in the middle — produce responses **bit-identical** to
//! [`FittedModel::assign`] and to the checked-in
//! `tests/fixtures/golden_assign.jsonl`. The daemon is pure plumbing on
//! top of the PR 2 contract; this test fails if it ever adds
//! nondeterminism (batch-order effects, thread-count effects, eviction
//! history effects).

use std::path::PathBuf;

use fis_one::types::io;
use fis_one::types::json::{Json, ToJson};
use fis_one::{Daemon, DaemonConfig, FisOne, FisOneConfig, RegistryConfig};

const GOLDEN_SEED: u64 = 7;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Serves every golden scan through one `assign_batch` request and
/// returns the floor per scan, asserting zero failures.
fn serve_batch(daemon: &Daemon, building: &str, scans: &[fis_one::SignalSample]) -> Vec<usize> {
    let line = Json::obj([
        ("op", Json::Str("assign_batch".into())),
        ("building", Json::Str(building.to_owned())),
        (
            "scans",
            Json::Arr(scans.iter().map(|s| s.to_json()).collect()),
        ),
    ])
    .to_string();
    let (response, shutdown) = daemon.handle_line(&line);
    assert!(!shutdown);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    assert_eq!(response.get("failures").unwrap().as_usize(), Some(0));
    response
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|row| row.get("floor").unwrap().as_usize().unwrap())
        .collect()
}

#[test]
fn daemon_matches_golden_assign_fixture_across_threads_and_evictions() {
    let corpus = io::load_jsonl(fixture("golden_corpus.jsonl")).expect("golden corpus");
    let building = &corpus.buildings()[0];

    // Fit the golden model and stage it as a registry artifact.
    let model = FisOne::new(FisOneConfig::default().seed(GOLDEN_SEED))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().expect("bottom surveyed"),
        )
        .expect("golden building fits");
    let dir = std::env::temp_dir().join(format!("fis_serve_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    model
        .save(dir.join(format!("{}.json", building.name())))
        .unwrap();

    // Direct, in-process reference: one assign per scan.
    let direct: Vec<usize> = building
        .samples()
        .iter()
        .map(|s| model.assign(s).expect("training scan assigns").index())
        .collect();

    // Serve at several thread budgets; force an evict + reload between
    // two batches on the same daemon. Every variant must agree bit-wise.
    let mut served = Vec::new();
    for threads in [1usize, 2, 4] {
        let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)).threads(threads));
        let first = serve_batch(&daemon, building.name(), building.samples());
        let (response, _) = daemon.handle_line(&format!(
            r#"{{"op":"evict","building":"{}"}}"#,
            building.name()
        ));
        assert_eq!(response.get("evicted"), Some(&Json::Bool(true)));
        let second = serve_batch(&daemon, building.name(), building.samples());
        assert_eq!(
            first, second,
            "eviction history changed responses at {threads} threads"
        );
        assert!(daemon.registry().stats().evictions >= 1);
        served.push((threads, first));
    }
    for (threads, floors) in &served {
        assert_eq!(
            floors, &direct,
            "daemon at {threads} threads disagrees with FittedModel::assign"
        );
    }

    // And bit-identical to the checked-in fixture rendering.
    let rendered: String = served[0]
        .1
        .iter()
        .enumerate()
        .map(|(i, floor)| {
            let line = Json::obj([
                ("building", Json::Str(building.name().to_owned())),
                ("floor", Json::Num(*floor as f64)),
                ("id", Json::Num(i as f64)),
            ]);
            format!("{line}\n")
        })
        .collect();
    let expected = std::fs::read_to_string(fixture("golden_assign.jsonl"))
        .expect("golden assign fixture (run FIS_REGEN_GOLDEN=1 via golden_fixtures once)");
    assert_eq!(
        rendered, expected,
        "daemon-served labels are not bit-identical to tests/fixtures/golden_assign.jsonl"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Residency history is invisible in the answers: cold, warm,
/// post-evict, post-swap and rewarmed batches on one daemon all serve
/// bit-identically to direct `FittedModel::assign`.
#[test]
fn evictions_and_swaps_never_change_answers() {
    let corpus = io::load_jsonl(fixture("golden_corpus.jsonl")).expect("golden corpus");
    let building = &corpus.buildings()[0];
    let model = FisOne::new(FisOneConfig::default().seed(GOLDEN_SEED))
        .fit(
            building.name(),
            building.samples(),
            building.floors(),
            building.bottom_anchor().expect("bottom surveyed"),
        )
        .expect("golden building fits");
    let dir = std::env::temp_dir().join(format!("fis_serve_rounds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join(format!("{}.json", building.name()));
    model.save(&artifact).unwrap();

    // Reference: one direct assign per scan.
    let reference: Vec<usize> = building
        .samples()
        .iter()
        .map(|s| model.assign(s).expect("training scan assigns").index())
        .collect();

    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let mut rounds = Vec::new();
    rounds.push((
        "cold",
        serve_batch(&daemon, building.name(), building.samples()),
    ));
    rounds.push((
        "warm",
        serve_batch(&daemon, building.name(), building.samples()),
    ));

    // Evict drops the model; answers must not move.
    let (response, _) = daemon.handle_line(&format!(
        r#"{{"op":"evict","building":"{}"}}"#,
        building.name()
    ));
    assert_eq!(response.get("evicted"), Some(&Json::Bool(true)));
    rounds.push((
        "post-evict",
        serve_batch(&daemon, building.name(), building.samples()),
    ));

    // Swap: replace the resident entry with a fresh read of the artifact.
    let (response, _) = daemon.handle_line(&format!(
        r#"{{"v":2,"op":"swap","building":"{}"}}"#,
        building.name()
    ));
    assert_eq!(response.get("evicted"), Some(&Json::Bool(true)));
    rounds.push((
        "post-swap",
        serve_batch(&daemon, building.name(), building.samples()),
    ));
    rounds.push((
        "rewarmed",
        serve_batch(&daemon, building.name(), building.samples()),
    ));
    assert!(
        daemon.registry().stats().reloads >= 1,
        "swap did not reload"
    );

    for (label, floors) in &rounds {
        assert_eq!(
            floors, &reference,
            "{label} batch diverged from FittedModel::assign"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
