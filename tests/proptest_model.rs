//! Property tests for fitted-model persistence and streaming inference.
//!
//! Three properties lock the artifact layer:
//!
//! 1. **Round-trip stability**: save → load → save is byte-identical
//!    (the JSON codec writes sorted keys and shortest-round-trip `f64`).
//! 2. **Serving equivalence**: a model that went through serialization
//!    assigns *exactly* the same floors (or the same typed error) as the
//!    in-memory model, for arbitrary scans mixing known and unknown MACs.
//! 3. **Index equivalence**: the VP-tree fast path behind `assign`
//!    matches the `assign_linear` reference scan bit-for-bit, on both
//!    the in-memory and the reloaded model.
//!
//! The model is fitted once and shared across cases; each case builds a
//! random scan from the vendored proptest shim's deterministic stream.

use std::sync::OnceLock;

use fis_one::{
    BuildingConfig, FisError, FisOne, FisOneConfig, FittedModel, MacAddr, Rssi, SignalSample,
};
use proptest::prelude::*;

struct Shared {
    model: FittedModel,
    loaded: FittedModel,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let building = BuildingConfig::new("prop", 3)
            .samples_per_floor(20)
            .aps_per_floor(12)
            .atrium_aps(0)
            .seed(77)
            .generate();
        let model = FisOne::new(FisOneConfig::default().seed(5))
            .fit(
                building.name(),
                building.samples(),
                building.floors(),
                building.bottom_anchor().expect("bottom surveyed"),
            )
            .expect("property-test building fits");
        let loaded =
            FittedModel::from_json_str(&model.to_json_string()).expect("round-trip parses");
        Shared { model, loaded }
    })
}

/// A scan whose readings pick MACs by index: indices below the vocabulary
/// size are known MACs, the rest map to addresses guaranteed unknown.
fn scan_from(picks: &[(usize, f64)]) -> SignalSample {
    let vocab = shared().model.macs();
    let mut builder = SignalSample::builder(0);
    for &(sel, dbm) in picks {
        let mac = if sel < vocab.len() {
            vocab[sel]
        } else {
            // High OUI prefix no synthetic generator produces.
            MacAddr::from_u64(0xFEED_0000_0000 + sel as u64)
        };
        builder = builder.reading(mac, Rssi::new(dbm).expect("in range"));
    }
    builder.build()
}

#[test]
fn save_load_save_is_byte_identical() {
    let s = shared();
    let first = s.model.to_json_string();
    assert_eq!(s.loaded.to_json_string(), first);
    // And a second hop stays fixed, so the artifact is a fixpoint.
    let again = FittedModel::from_json_str(&s.loaded.to_json_string()).unwrap();
    assert_eq!(again.to_json_string(), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loaded_model_assigns_like_in_memory(
        picks in proptest::collection::vec((0usize..60, -100.0..-30.0f64), 1..6),
    ) {
        let s = shared();
        let scan = scan_from(&picks);
        match (s.model.assign(&scan), s.loaded.assign(&scan)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(FisError::Inference(a)), Err(FisError::Inference(b))) => {
                prop_assert_eq!(a, b);
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn vp_tree_assign_matches_linear_reference(
        picks in proptest::collection::vec((0usize..60, -100.0..-30.0f64), 1..6),
    ) {
        let s = shared();
        let scan = scan_from(&picks);
        for model in [&s.model, &s.loaded] {
            match (model.assign(&scan), model.assign_linear(&scan)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(FisError::Inference(a)), Err(FisError::Inference(b))) => {
                    prop_assert_eq!(a, b);
                }
                (a, b) => panic!("index vs scan outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn known_macs_assign_within_floor_range(
        picks in proptest::collection::vec((0usize..30, -90.0..-35.0f64), 1..5),
    ) {
        let s = shared();
        // Vocabulary is comfortably larger than 30, so every pick is known.
        prop_assert!(s.model.macs().len() > 30);
        let scan = scan_from(&picks);
        let floor = s.model.assign(&scan).expect("known MACs must assign");
        prop_assert!(floor.index() < s.model.floors());
        // Determinism: the same scan assigns identically when re-queried.
        prop_assert_eq!(s.model.assign(&scan).unwrap(), floor);
    }

    #[test]
    fn unknown_macs_only_is_typed_error(
        picks in proptest::collection::vec((1_000usize..1_060, -90.0..-35.0f64), 1..5),
    ) {
        let s = shared();
        let scan = scan_from(&picks);
        let err = s.model.assign(&scan).expect_err("nothing known to attach to");
        prop_assert!(matches!(err, FisError::Inference(_)), "{}", err);
    }
}
