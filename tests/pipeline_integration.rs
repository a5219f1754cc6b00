//! Integration tests spanning the whole workspace: synthetic buildings in,
//! floor labels out, scored against withheld ground truth.

use fis_one::core::evaluate::score_prediction;
use fis_one::{
    evaluate_building, identify_with_arbitrary_anchor, ArbitraryAnchorOutcome, BuildingConfig,
    EvalResult, FisOne, FisOneConfig, FloorId,
};

fn test_pipeline(seed: u64) -> FisOne {
    FisOne::new(FisOneConfig::default().seed(seed))
}

fn building(floors: usize, seed: u64) -> fis_one::Building {
    BuildingConfig::new(format!("itest-{seed}"), floors)
        .samples_per_floor(40)
        .aps_per_floor(10)
        .atrium_aps(0)
        .seed(seed)
        .generate()
}

/// The shipped config clusters a building almost perfectly and orders
/// its floors exactly.
fn assert_quality_floor(res: &EvalResult, what: &str) {
    assert!(res.ari >= 0.95, "{what}: ari={}", res.ari);
    assert!(res.nmi >= 0.95, "{what}: nmi={}", res.nmi);
    assert_eq!(res.edit, 1.0, "{what}: edit={}", res.edit);
}

#[test]
fn end_to_end_three_floor_building() {
    let b = building(3, 1);
    let res = evaluate_building(&test_pipeline(1), &b).unwrap();
    assert_quality_floor(&res, "3 floors");
}

#[test]
fn end_to_end_five_floor_building() {
    let b = building(5, 2);
    let res = evaluate_building(&test_pipeline(2), &b).unwrap();
    assert_quality_floor(&res, "5 floors");
}

/// The same floor holds on benchmark-sized buildings (4 floors × 60
/// scans, two seeds).
#[test]
fn default_config_meets_the_quality_floor() {
    for seed in [16, 17] {
        let b = BuildingConfig::new(format!("default-{seed}"), 4)
            .samples_per_floor(60)
            .seed(seed)
            .generate();
        let res = evaluate_building(&FisOne::new(FisOneConfig::default()), &b).unwrap();
        assert_quality_floor(&res, &format!("seed {seed}"));
    }
}

#[test]
fn anchor_sample_always_gets_its_own_label() {
    let b = building(4, 3);
    let anchor = b.bottom_anchor().unwrap();
    let pred = test_pipeline(3)
        .identify(b.samples(), b.floors(), anchor)
        .unwrap();
    assert_eq!(pred.labels()[anchor.sample.index()], FloorId::BOTTOM);
}

#[test]
fn deterministic_end_to_end() {
    let b = building(3, 4);
    let anchor = b.bottom_anchor().unwrap();
    let p1 = test_pipeline(4)
        .identify(b.samples(), b.floors(), anchor)
        .unwrap();
    let p2 = test_pipeline(4)
        .identify(b.samples(), b.floors(), anchor)
        .unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn arbitrary_anchor_extension_resolves_even_building() {
    let b = building(4, 5);
    let anchor = b.anchor_on(FloorId::from_index(2)).unwrap();
    let outcome =
        identify_with_arbitrary_anchor(&test_pipeline(5), b.samples(), b.floors(), anchor).unwrap();
    let pred = outcome.prediction().expect("even building resolves");
    assert_eq!(pred.labels()[anchor.sample.index()], anchor.floor);
    let res = score_prediction(pred, &b).unwrap();
    assert!(res.ari > 0.4, "ari={}", res.ari);
}

#[test]
fn arbitrary_anchor_middle_of_odd_building_is_ambiguous() {
    let b = building(5, 6);
    let anchor = b.anchor_on(FloorId::from_index(2)).unwrap();
    let outcome =
        identify_with_arbitrary_anchor(&test_pipeline(6), b.samples(), b.floors(), anchor).unwrap();
    assert!(matches!(outcome, ArbitraryAnchorOutcome::Ambiguous { .. }));
}

#[test]
fn serialization_round_trip_preserves_pipeline_output() {
    let b = building(3, 7);
    let dir = std::env::temp_dir().join("fis_one_itest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.jsonl");
    let ds = fis_one::Dataset::new("itest", vec![b.clone()]);
    fis_one::types::io::save_jsonl(&ds, &path).unwrap();
    let loaded = fis_one::types::io::load_jsonl(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.buildings()[0], b);

    // Identical input -> identical prediction.
    let anchor = b.bottom_anchor().unwrap();
    let p1 = test_pipeline(7)
        .identify(b.samples(), b.floors(), anchor)
        .unwrap();
    let p2 = test_pipeline(7)
        .identify(loaded.buildings()[0].samples(), b.floors(), anchor)
        .unwrap();
    assert_eq!(p1, p2);
}
