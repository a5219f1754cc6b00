//! Regression tests for multi-building `generate` semantics.
//!
//! `generate --buildings N` emits buildings `NAME-0` … `NAME-{N-1}`,
//! each reseeded with `seed + i` — the CLI help and README used to
//! describe single-building output only. These tests lock the actual
//! contract: the real binary writes N distinct buildings, and an
//! N-building corpus round-trips through `FisEngine::fit_corpus` into a
//! registry directory the serving daemon can tenant by building id.

use std::collections::HashSet;
use std::process::Command;

use fis_one::core::{EngineConfig, FisEngine};
use fis_one::types::io;
use fis_one::{FisOneConfig, ModelRegistry, RegistryConfig};

fn engine(seed: u64) -> FisEngine {
    FisEngine::new(EngineConfig::default().pipeline(FisOneConfig::default().seed(seed)))
}

#[test]
fn generate_buildings_flag_emits_distinct_reseeded_buildings() {
    let dir = std::env::temp_dir().join(format!("fis_gen_multi_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus_path = dir.join("multi.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_fis-one"))
        .args([
            "generate",
            "--floors",
            "3",
            "--samples",
            "10",
            "--seed",
            "9",
            "--buildings",
            "3",
            "--name",
            "rt",
            "--out",
            corpus_path.to_str().unwrap(),
        ])
        .status()
        .expect("run fis-one generate");
    assert!(status.success());

    let corpus = io::load_jsonl(&corpus_path).unwrap();
    assert_eq!(corpus.len(), 3, "one building per --buildings count");
    let names: Vec<&str> = corpus.buildings().iter().map(|b| b.name()).collect();
    assert_eq!(names, ["rt-0", "rt-1", "rt-2"], "documented naming scheme");
    // Per-building reseeding: the corpora must actually differ.
    let fingerprints: HashSet<String> = corpus
        .buildings()
        .iter()
        .map(|b| {
            b.samples()
                .iter()
                .flat_map(|s| s.iter())
                .map(|(mac, rssi)| format!("{mac}:{rssi}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert_eq!(fingerprints.len(), 3, "reseeded buildings are distinct");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn n_building_corpus_roundtrips_through_fit_corpus_and_registry() {
    let dir = std::env::temp_dir().join(format!("fis_rt_registry_{}", std::process::id()));
    let models = dir.join("models");
    std::fs::create_dir_all(&models).unwrap();
    let corpus_path = dir.join("corpus.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_fis-one"))
        .args([
            "generate",
            "--floors",
            "3",
            "--samples",
            "12",
            "--seed",
            "21",
            "--buildings",
            "3",
            "--name",
            "site",
            "--out",
            corpus_path.to_str().unwrap(),
        ])
        .status()
        .expect("run fis-one generate");
    assert!(status.success());
    let corpus = io::load_jsonl(&corpus_path).unwrap();

    // fit_corpus → one artifact per building, named by building id.
    let fit = engine(21).fit_corpus(&corpus);
    assert_eq!(fit.successes().count(), 3, "every building fits");
    for (run, model) in fit.successes() {
        assert_eq!(model.building(), run.building);
        model
            .save(models.join(format!("{}.json", run.building)))
            .unwrap();
    }

    // Registry loads each tenant under its own id and serves its scans.
    let registry = ModelRegistry::new(RegistryConfig::new(&models));
    let mut seen = HashSet::new();
    for building in corpus.buildings() {
        let (model, _) = registry.get(building.name()).expect("tenant loads");
        assert_eq!(model.building(), building.name());
        assert!(seen.insert(model.building().to_owned()), "distinct ids");
        let floor = model
            .assign(&building.samples()[0])
            .expect("tenant serves its own scans");
        assert!(floor.index() < building.floors());
    }
    assert_eq!(seen.len(), 3);
    assert_eq!(registry.stats().misses, 3);
    assert_eq!(registry.stats().hits, 0);
    std::fs::remove_dir_all(&dir).ok();
}
