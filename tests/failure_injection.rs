//! Failure-injection tests: malformed and degenerate inputs must produce
//! errors (or well-defined degraded behaviour), never panics.

use std::sync::OnceLock;

use fis_one::types::json::Json;
use fis_one::{
    BuildingConfig, FisError, FisOne, FittedModel, FloorId, LabeledAnchor, MacAddr, Rssi,
    SignalSample,
};

/// One fitted model shared by the load/assign failure tests.
fn fitted() -> &'static FittedModel {
    static MODEL: OnceLock<FittedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let b = BuildingConfig::new("fi", 3)
            .samples_per_floor(15)
            .aps_per_floor(6)
            .atrium_aps(0)
            .seed(31)
            .generate();
        FisOne::default()
            .fit(
                b.name(),
                b.samples(),
                b.floors(),
                b.bottom_anchor().unwrap(),
            )
            .expect("failure-injection building fits")
    })
}

/// Reserializes the model with one top-level field replaced.
fn tampered(key: &str, value: Json) -> String {
    let mut json = Json::parse(&fitted().to_json_string()).unwrap();
    match &mut json {
        Json::Obj(map) => {
            map.insert(key.to_owned(), value);
        }
        _ => unreachable!("artifact is an object"),
    }
    json.to_string()
}

fn anchor0() -> LabeledAnchor {
    LabeledAnchor {
        sample: fis_one::types::SampleId(0),
        floor: FloorId::BOTTOM,
    }
}

#[test]
fn empty_sample_set_is_graph_error() {
    let err = FisOne::default().identify(&[], 2, anchor0()).unwrap_err();
    assert!(matches!(err, FisError::Clustering(_) | FisError::Graph(_)));
}

#[test]
fn all_empty_scans_fail_cleanly() {
    let samples: Vec<SignalSample> = (0..10).map(|i| SignalSample::builder(i).build()).collect();
    let err = FisOne::default()
        .identify(&samples, 2, anchor0())
        .unwrap_err();
    assert!(matches!(err, FisError::Training(_)), "{err}");
}

#[test]
fn single_shared_mac_everywhere_does_not_panic() {
    // Degenerate: every scan hears exactly the same single AP.
    let samples: Vec<SignalSample> = (0..12)
        .map(|i| {
            SignalSample::builder(i)
                .reading(MacAddr::from_u64(1), Rssi::new(-50.0).unwrap())
                .build()
        })
        .collect();
    // Must return *something* without panicking; quality is undefined.
    let _ = FisOne::default().identify(&samples, 2, anchor0());
}

#[test]
fn all_identical_rss_does_not_panic() {
    let samples: Vec<SignalSample> = (0..12)
        .map(|i| {
            SignalSample::builder(i)
                .readings((1..=4).map(|m| (MacAddr::from_u64(m), Rssi::new(-60.0).unwrap())))
                .build()
        })
        .collect();
    let _ = FisOne::default().identify(&samples, 3, anchor0());
}

#[test]
fn disconnected_components_do_not_panic() {
    // Two floors that share zero MACs (fully disconnected bipartite
    // components) — the walk/negative-sampling machinery must cope.
    let mut samples = Vec::new();
    for i in 0..8u32 {
        let mac = if i < 4 { 1 } else { 100 };
        samples.push(
            SignalSample::builder(i)
                .reading(MacAddr::from_u64(mac), Rssi::new(-50.0).unwrap())
                .build(),
        );
    }
    let result = FisOne::default().identify(&samples, 2, anchor0());
    if let Ok(pred) = result {
        assert_eq!(pred.labels().len(), 8);
    }
}

#[test]
fn more_floors_than_samples_rejected() {
    let samples: Vec<SignalSample> = (0..3)
        .map(|i| {
            SignalSample::builder(i)
                .reading(MacAddr::from_u64(1), Rssi::new(-50.0).unwrap())
                .build()
        })
        .collect();
    let err = FisOne::default()
        .identify(&samples, 10, anchor0())
        .unwrap_err();
    assert!(matches!(err, FisError::Clustering(_)));
}

#[test]
fn building_filtering_drops_thin_floors() {
    // A building where one floor has almost no data: the paper's
    // preprocessing (min 100 samples/floor, min 3 floors) must drop it.
    let b = BuildingConfig::new("thin", 4)
        .samples_per_floor(120)
        .seed(9)
        .generate();
    // Simulate thin top floor by filtering at a threshold above its count.
    let filtered = b.filtered(121, 3);
    assert!(filtered.is_none(), "all floors are below 121 samples");
    let kept = b.filtered(100, 3).expect("all floors have 120 samples");
    assert_eq!(kept.floors(), 4);
}

#[test]
fn corrupt_model_json_is_typed_error() {
    for garbage in [
        "",
        "not json",
        "{\"schema\":",
        "[1,2,3]",
        "{\"schema\":\"wrong\"}",
    ] {
        let err = FittedModel::from_json_str(garbage).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "{garbage:?} -> {err}");
    }
}

#[test]
fn truncated_model_artifact_is_typed_error() {
    let text = fitted().to_json_string();
    // Cut mid-document at several depths; every prefix must fail cleanly.
    for cut in [text.len() / 8, text.len() / 2, text.len() - 2] {
        let err = FittedModel::from_json_str(&text[..cut]).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "cut at {cut} -> {err}");
    }
}

#[test]
fn model_floor_count_mismatch_is_typed_error() {
    // The artifact claims more floors than it carries centroids/orderings
    // for — e.g. hand-edited, or fitted against a different corpus shape.
    let err = FittedModel::from_json_str(&tampered(
        "floors",
        Json::Num((fitted().floors() + 1) as f64),
    ))
    .unwrap_err();
    assert!(matches!(err, FisError::Model(_)), "{err}");
    assert!(err.to_string().contains("floor-count mismatch"), "{err}");
}

#[test]
fn model_schema_version_mismatch_is_typed_error() {
    // Version 3 was the retired f32 artifact; it gets the same typed
    // rejection as any other version this build does not read.
    for version in [3.0, 99.0] {
        let err = FittedModel::from_json_str(&tampered("version", Json::Num(version))).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("reads 1 and 2)"), "{msg}");
    }
}

#[test]
fn model_assignment_mismatch_is_typed_error() {
    // Assignment array shorter than the training corpus.
    let err = FittedModel::from_json_str(&tampered("assignment", Json::Arr(vec![Json::Num(0.0)])))
        .unwrap_err();
    assert!(matches!(err, FisError::Model(_)), "{err}");
    // Assignment referencing a cluster beyond the floor count.
    let bad: Vec<Json> = (0..fitted().samples().len())
        .map(|_| Json::Num(99.0))
        .collect();
    let err = FittedModel::from_json_str(&tampered("assignment", Json::Arr(bad))).unwrap_err();
    assert!(matches!(err, FisError::Model(_)), "{err}");
}

#[test]
fn model_mac_vocabulary_mismatch_is_typed_error() {
    // Drop one MAC from the vocabulary: it no longer matches the graph
    // rebuilt from the training scans.
    let mut macs: Vec<Json> = fitted()
        .macs()
        .iter()
        .map(|m| Json::Str(m.to_string()))
        .collect();
    macs.pop();
    let err = FittedModel::from_json_str(&tampered("macs", Json::Arr(macs))).unwrap_err();
    assert!(matches!(err, FisError::Model(_)), "{err}");
    assert!(err.to_string().contains("vocabulary"), "{err}");
}

#[test]
fn load_missing_model_file_is_typed_error() {
    let err = FittedModel::load("/nonexistent/definitely/missing-model.json").unwrap_err();
    assert!(matches!(err, FisError::Model(_)), "{err}");
}

#[test]
fn unknown_mac_only_scans_never_panic_the_stream() {
    let model = fitted();
    let alien = SignalSample::builder(0)
        .reading(
            MacAddr::from_u64(0xFEED_0000_0001),
            Rssi::new(-45.0).unwrap(),
        )
        .build();
    let silent = SignalSample::builder(1).build();
    let known = model.samples()[0].clone().with_id(2);
    let results = model.assign_stream(&[alien, silent, known], 2);
    assert!(matches!(&results[0], Err(FisError::Inference(_))));
    assert!(matches!(&results[1], Err(FisError::Inference(_))));
    assert!(results[2].is_ok(), "known scan must still assign");
}

#[test]
fn duplicate_macs_within_scan_are_collapsed() {
    let s = SignalSample::builder(0)
        .reading(MacAddr::from_u64(1), Rssi::new(-80.0).unwrap())
        .reading(MacAddr::from_u64(1), Rssi::new(-40.0).unwrap())
        .build();
    assert_eq!(s.len(), 1);
    assert_eq!(
        s.rssi_of(MacAddr::from_u64(1)),
        Some(Rssi::new(-40.0).unwrap())
    );
}

/// The error a model load must give for `text`: the syntax error
/// `Json::parse` reports, if the text has one.
fn syntax_error(text: &str) -> Option<FisError> {
    Json::parse(text)
        .err()
        .map(|e| FisError::Model(e.to_string()))
}

#[test]
fn artifact_cut_or_corrupted_at_64_offsets_is_a_typed_error() {
    let text = fitted().to_json_string();
    assert!(text.is_ascii(), "offsets below assume one byte per char");
    let offsets: Vec<usize> = (0..64).map(|i| i * text.len() / 64).collect();
    for &cut in &offsets {
        let prefix = &text[..cut];
        let err = FittedModel::from_json_str(prefix).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "cut at {cut} -> {err}");
        assert_eq!(Some(err), syntax_error(prefix), "cut at {cut}");
    }
    // One byte replaced by a quote (by `#` where it already is one):
    // every string, key, number and delimiter of a valid artifact is
    // broken by that, including the `building` name.
    for &at in &offsets {
        let mut bytes = text.clone().into_bytes();
        bytes[at] = if bytes[at] == b'"' { b'#' } else { b'"' };
        let corrupted = String::from_utf8(bytes).unwrap();
        let err = FittedModel::from_json_str(&corrupted).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "byte {at} -> {err}");
        if let Some(syntax) = syntax_error(&corrupted) {
            assert_eq!(err, syntax, "byte {at}");
        }
    }
}

/// `value` written with its object keys in reverse order, recursing
/// into the objects named in `nested`.
fn reversed(value: &Json, nested: &[&str]) -> String {
    let Json::Obj(map) = value else {
        return value.to_string();
    };
    let fields: Vec<String> = map
        .iter()
        .rev()
        .map(|(key, v)| {
            let v = if nested.contains(&key.as_str()) {
                reversed(v, &[])
            } else {
                v.to_string()
            };
            format!("{}:{v}", Json::Str(key.clone()))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[test]
fn artifact_keys_in_any_order_load_and_save_byte_identically() {
    let text = fitted().to_json_string();
    let reordered = reversed(&Json::parse(&text).unwrap(), &["gnn"]);
    assert_ne!(reordered, text);
    assert!(
        reordered.starts_with("{\"version\":"),
        "{}",
        &reordered[..40]
    );
    let loaded = FittedModel::from_json_str(&reordered).unwrap();
    assert_eq!(loaded.to_json_string(), text);
}

#[test]
fn unknown_artifact_keys_are_ignored() {
    let text = fitted().to_json_string();
    let extra = format!(
        "{{\"aaa\":1,\"zzz\":{{\"nested\":[1,\"x\",null,true]}},{}",
        &text[1..]
    );
    let loaded = FittedModel::from_json_str(&extra).unwrap();
    assert_eq!(loaded.to_json_string(), text);
}

#[test]
fn escaped_building_name_decodes_like_json_parse() {
    let text = fitted().to_json_string();
    let needle = format!("\"building\":\"{}\"", fitted().building());
    assert!(text.contains(&needle));
    let escaped = text.replacen(
        &needle,
        &format!("\"building\":\"\\u0041{}\"", fitted().building()),
        1,
    );
    let want = Json::parse(&escaped).unwrap();
    let loaded = FittedModel::from_json_str(&escaped).unwrap();
    assert_eq!(
        Some(loaded.building()),
        want.field("building").unwrap().as_str()
    );
    assert_eq!(loaded.building(), format!("A{}", fitted().building()));
}
