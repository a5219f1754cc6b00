//! Determinism contract of the parallel execution engine: for a fixed
//! seed, predictions are bit-identical regardless of the thread budget.

use fis_one::core::{EngineConfig, FisEngine};
use fis_one::{BuildingConfig, Dataset, FisOneConfig};

fn corpus() -> Dataset {
    let buildings = (0..4)
        .map(|i| {
            BuildingConfig::new(format!("b{i}"), 3 + i % 2)
                .samples_per_floor(25)
                .aps_per_floor(8)
                .seed(50 + i as u64)
                .generate()
        })
        .collect();
    Dataset::new("determinism", buildings)
}

/// Property: across a spread of seeds, a 1-thread engine and an N-thread
/// engine produce identical `FloorPrediction`s on the same corpus.
#[test]
fn one_thread_and_many_threads_agree_for_every_seed() {
    let corpus = corpus();
    for seed in [0u64, 1, 7, 42, 2023] {
        let serial = FisEngine::new(
            EngineConfig::default()
                .pipeline(FisOneConfig::default().seed(seed))
                .threads(1),
        )
        .identify_corpus(&corpus);
        let parallel = FisEngine::new(
            EngineConfig::default()
                .pipeline(FisOneConfig::default().seed(seed))
                .threads(8),
        )
        .identify_corpus(&corpus);

        assert_eq!(serial.runs.len(), parallel.runs.len());
        for (s, p) in serial.runs.iter().zip(parallel.runs.iter()) {
            assert_eq!(s.building, p.building);
            let (s_out, p_out) = (
                s.outcome.as_ref().expect("serial run succeeded"),
                p.outcome.as_ref().expect("parallel run succeeded"),
            );
            // Bit-identical predictions: labels, assignment, and cluster
            // ordering all match exactly — not merely approximately.
            assert_eq!(
                s_out.prediction, p_out.prediction,
                "seed {seed}, building {}: thread count changed the prediction",
                s.building
            );
        }
    }
}

/// Scoring through the batch engine equals scoring buildings one at a
/// time with the single-building entry point.
#[test]
fn batch_scores_equal_single_building_scores() {
    let corpus = corpus();
    let config = FisOneConfig::default().seed(3);
    let report = FisEngine::new(EngineConfig::default().pipeline(config.clone()).threads(4))
        .evaluate_corpus(&corpus);
    for (run, outcome) in report.successes() {
        let building = corpus
            .buildings()
            .iter()
            .find(|b| b.name() == run.building)
            .unwrap();
        let solo =
            fis_one::evaluate_building(&fis_one::FisOne::new(config.clone()), building).unwrap();
        assert_eq!(outcome.eval.unwrap(), solo);
    }
}

/// Two engines with the same seed agree; a different seed changes at
/// least one building's prediction (the RNG is actually used).
#[test]
fn seed_controls_the_outcome() {
    let corpus = corpus();
    let run = |seed: u64| {
        FisEngine::new(EngineConfig::default().pipeline(FisOneConfig::default().seed(seed)))
            .identify_corpus(&corpus)
    };
    let a = run(11);
    let b = run(11);
    for (x, y) in a.runs.iter().zip(b.runs.iter()) {
        assert_eq!(
            x.outcome.as_ref().unwrap().prediction,
            y.outcome.as_ref().unwrap().prediction
        );
    }
    let c = run(12);
    let differs = a.runs.iter().zip(c.runs.iter()).any(|(x, y)| {
        x.outcome.as_ref().unwrap().prediction != y.outcome.as_ref().unwrap().prediction
    });
    assert!(differs, "changing the seed changed nothing — RNG unused?");
}
