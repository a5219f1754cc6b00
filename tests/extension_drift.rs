//! Online-extension invariants under drift, end to end.
//!
//! The standing contract of `FittedModel::extend` is that growth is
//! **invisible to the past**: any scan the base model could answer keeps
//! its exact answer — bit-identical, for any thread count — after any
//! number of extensions, and the extended artifact survives
//! save→load→save byte-identically. These tests drive the contract
//! through the public surface (temporal drift corpora from `fis-synth`,
//! the persistence layer, and the serving daemon's v2 `extend` op) and
//! pin down the typed errors corrupt artifacts and bad extension inputs
//! must produce.

use std::collections::BTreeSet;

use fis_one::synth::{DriftScenario, TemporalConfig};
use fis_one::types::json::{Json, ToJson};
use fis_one::{
    BuildingConfig, Daemon, DaemonConfig, FisOne, FisOneConfig, FittedModel, RegistryConfig,
    SignalSample,
};

const SEED: u64 = 41;

/// A churn corpus whose later epochs carry MACs the survey never heard,
/// plus the model fitted on its epoch-0 survey.
fn churned() -> (FittedModel, Vec<Vec<SignalSample>>) {
    let corpus = TemporalConfig::new(
        BuildingConfig::new("drifty", 3)
            .samples_per_floor(30)
            .aps_per_floor(8)
            .seed(SEED),
        DriftScenario::ApChurn {
            replaced_per_epoch: 0.25,
        },
    )
    .epochs(3)
    .scans_per_epoch(40)
    .generate();
    let b = &corpus.building;
    let anchor = b.bottom_anchor().expect("survey anchor");
    let model = FisOne::new(FisOneConfig::quick(SEED))
        .fit(b.name(), b.samples(), b.floors(), anchor)
        .expect("survey fits");
    let epochs = corpus.epochs.iter().map(|e| e.samples.clone()).collect();
    (model, epochs)
}

fn answers(model: &FittedModel, scans: &[SignalSample], threads: usize) -> Vec<usize> {
    model
        .assign_stream(scans, threads)
        .into_iter()
        .map(|r| r.expect("old-vocabulary scan answers").index())
        .collect()
}

#[test]
fn extension_never_changes_old_vocabulary_answers_for_any_thread_count() {
    let (mut model, epochs) = churned();
    let survey: Vec<SignalSample> = model.samples().to_vec();
    let base_vocab: BTreeSet<u64> = model.macs().iter().map(|m| m.to_u64()).collect();

    let baseline = answers(&model, &survey, 1);
    assert_eq!(
        baseline,
        answers(&model, &survey, 4),
        "threads leak pre-extension"
    );

    // Fresh queries that stay inside the base vocabulary are "old"
    // scans too: their answers are part of served history the extension
    // must never rewrite. A calibration-drift stream over the same
    // building is guaranteed to hear only surveyed MACs (the AP
    // population never changes), so it gives base-vocabulary queries
    // that are not the training scans themselves.
    let old_epoch_scans: Vec<SignalSample> = TemporalConfig::new(
        BuildingConfig::new("drifty", 3)
            .samples_per_floor(30)
            .aps_per_floor(8)
            .seed(SEED),
        DriftScenario::CalibrationOffset { db_per_epoch: 1.0 },
    )
    .epochs(2)
    .scans_per_epoch(30)
    .generate()
    .epochs
    .into_iter()
    .flat_map(|e| e.samples)
    .collect();
    assert!(old_epoch_scans
        .iter()
        .all(|s| s.iter().all(|(m, _)| base_vocab.contains(&m.to_u64()))));
    let old_epoch_baseline = answers(&model, &old_epoch_scans, 1);

    let mut grew_vocabulary = false;
    for epoch in &epochs {
        let report = model
            .extend(epoch)
            .expect("churn epochs overlap the base vocabulary");
        grew_vocabulary |= report.new_macs > 0;
        for threads in [1, 4] {
            assert_eq!(
                baseline,
                answers(&model, &survey, threads),
                "survey answers drifted after extension (threads {threads})"
            );
            assert_eq!(
                old_epoch_baseline,
                answers(&model, &old_epoch_scans, threads),
                "old-vocabulary epoch answers drifted (threads {threads})"
            );
        }
    }
    assert!(
        grew_vocabulary,
        "the scenario must actually grow the vocabulary"
    );
    assert!(model.is_extended());
}

#[test]
fn extend_save_load_save_stays_byte_identical() {
    let (mut model, epochs) = churned();
    let dir = std::env::temp_dir().join(format!("fis_ext_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drifty.json");

    // Repeated extension composes; the roundtrip must hold at every step.
    for epoch in &epochs {
        model.extend(epoch).expect("extend");
        let direct = model.to_json_string();
        model.save(&path).expect("save");
        let reloaded = FittedModel::load(&path).expect("load");
        assert_eq!(
            direct,
            reloaded.to_json_string(),
            "load is not the inverse of save"
        );
        let bytes_a = std::fs::read(&path).unwrap();
        reloaded.save(&path).expect("re-save");
        assert_eq!(
            bytes_a,
            std::fs::read(&path).unwrap(),
            "save→load→save changed bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_extension_inputs_yield_typed_errors_and_leave_the_model_intact() {
    let (mut model, _) = churned();
    let before = model.to_json_string();

    let err = model.extend(&[]).expect_err("empty extension must fail");
    assert!(err.to_string().contains("at least one scan"), "{err}");

    let silent = SignalSample::builder(7).build();
    let err = model
        .extend(std::slice::from_ref(&silent))
        .expect_err("a silent scan must fail");
    assert!(err.to_string().contains("heard no MAC"), "{err}");

    // A scan set fully disjoint from the vocabulary cannot be labeled by
    // the frozen base and must be rejected as a whole.
    let alien = SignalSample::builder(8)
        .reading(
            fis_one::MacAddr::from_u64(0xDEAD_BEEF_0000),
            fis_one::Rssi::new(-50.0).unwrap(),
        )
        .build();
    let err = model
        .extend(std::slice::from_ref(&alien))
        .expect_err("disjoint vocabulary must fail");
    assert!(err.to_string().contains("shares a MAC"), "{err}");

    assert_eq!(
        before,
        model.to_json_string(),
        "failed extends must not mutate the model"
    );
}

/// Parses, mutates, and reserializes an artifact string.
fn tamper(
    text: &str,
    mutate: impl FnOnce(&mut std::collections::BTreeMap<String, Json>),
) -> String {
    let mut json = Json::parse(text).expect("artifact parses");
    let Json::Obj(root) = &mut json else {
        panic!("artifact is an object")
    };
    mutate(root);
    json.to_string()
}

#[test]
fn corrupt_extension_artifacts_yield_typed_errors() {
    let (mut model, epochs) = churned();
    let v1 = model.to_json_string();
    model.extend(&epochs[0]).expect("extend");
    let v2 = model.to_json_string();

    // Version 1 claiming an extension: the field must be rejected, not
    // silently dropped.
    let ext = Json::parse(&v2)
        .unwrap()
        .get("extension")
        .cloned()
        .expect("v2 artifact carries an extension");
    let forged = tamper(&v1, |root| {
        root.insert("extension".into(), ext);
    });
    let err = FittedModel::from_json_str(&forged).expect_err("v1 + extension");
    assert!(err.to_string().contains("version 1 artifact"), "{err}");

    // Version 2 without the extension payload.
    let hollow = tamper(&v2, |root| {
        root.remove("extension");
    });
    let err = FittedModel::from_json_str(&hollow).expect_err("v2 - extension");
    assert!(
        err.to_string().contains("missing field `extension`"),
        "{err}"
    );

    // Extension assignment pointing past the floor count.
    let out_of_range = tamper(&v2, |root| {
        let Some(Json::Obj(ext)) = root.get_mut("extension") else {
            panic!("extension object")
        };
        let Some(Json::Arr(assignment)) = ext.get_mut("assignment") else {
            panic!("extension assignment")
        };
        assignment[0] = Json::Num(1e6);
    });
    let err = FittedModel::from_json_str(&out_of_range).expect_err("cluster out of range");
    assert!(err.to_string().contains("beyond the floor count"), "{err}");

    // An empty extension is not a legal version-2 artifact.
    let emptied = tamper(&v2, |root| {
        let Some(Json::Obj(ext)) = root.get_mut("extension") else {
            panic!("extension object")
        };
        ext.insert("samples".into(), Json::Arr(vec![]));
        ext.insert("assignment".into(), Json::Arr(vec![]));
    });
    let err = FittedModel::from_json_str(&emptied).expect_err("empty extension");
    assert!(err.to_string().contains("empty extension"), "{err}");
}

/// An `extend` publishes through the registry's swap, which holds the
/// building's load slot: a miss-load that read the pre-extend bytes
/// installs before the swap and is replaced by it, so once `extend`
/// answers, the resident model is the extended one. A concurrent client
/// evicts and assigns in a loop, so such loads keep racing each extend.
#[test]
fn extend_racing_assigns_never_leaves_the_pre_extend_model_resident() {
    let (model, epochs) = churned();
    let dir = std::env::temp_dir().join(format!("fis_ext_race_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    model.save(dir.join("drifty.json")).expect("stage artifact");
    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir)));
    let scan = &model.samples()[0];
    let assign = Json::obj([
        ("op", Json::Str("assign".into())),
        ("building", Json::Str("drifty".into())),
        ("scan", scan.to_json()),
    ])
    .to_string();
    let expected = model.assign(scan).expect("survey scan answers").index();
    for epoch in &epochs {
        let done = std::sync::atomic::AtomicBool::new(false);
        let extend = Json::obj([
            ("v", Json::Num(2.0)),
            ("op", Json::Str("extend".into())),
            ("building", Json::Str("drifty".into())),
            (
                "scans",
                Json::Arr(epoch.iter().map(ToJson::to_json).collect()),
            ),
        ])
        .to_string();
        let total_scans = std::thread::scope(|s| {
            let racer = s.spawn(|| {
                // Always ends on an assign, so the building is resident
                // when the loop stops.
                loop {
                    daemon.handle_line(r#"{"op":"evict","building":"drifty"}"#);
                    let (resp, _) = daemon.handle_line(&assign);
                    assert_eq!(resp.get("floor").and_then(Json::as_usize), Some(expected));
                    if done.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
            });
            let (resp, _) = daemon.handle_line(&extend);
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            racer.join().unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "extend: {resp}");
            resp.get("total_scans").and_then(Json::as_usize).unwrap()
        });
        let (resident, fetch) = daemon.registry().get("drifty").unwrap();
        assert_eq!(fetch, fis_one::serve::Fetch::Hit);
        assert_eq!(
            resident.total_scans(),
            total_scans,
            "a load of the pre-extend bytes outlived the extend"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_extend_matches_library_extend_byte_for_byte() {
    let (model, epochs) = churned();
    let dir = std::env::temp_dir().join(format!("fis_ext_daemon_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drifty.json");
    model.save(&path).expect("stage artifact");

    // Reference: the pure-library extension of the same artifact.
    let mut reference = FittedModel::load(&path).expect("load");
    reference.extend(&epochs[0]).expect("extend");

    let daemon = Daemon::new(DaemonConfig::new(RegistryConfig::new(&dir).max_models(2)));
    let survey = model.samples().to_vec();
    let before: Vec<String> = survey
        .iter()
        .map(|s| {
            let line = Json::obj([
                ("op", Json::Str("assign".into())),
                ("building", Json::Str("drifty".into())),
                ("scan", s.to_json()),
            ])
            .to_string();
            let (resp, _) = daemon.handle_line(&line);
            assert!(resp.to_string().contains("\"ok\":true"), "{resp}");
            resp.to_string()
        })
        .collect();

    let extend = Json::obj([
        ("v", Json::Num(2.0)),
        ("op", Json::Str("extend".into())),
        ("building", Json::Str("drifty".into())),
        (
            "scans",
            Json::Arr(epochs[0].iter().map(ToJson::to_json).collect()),
        ),
    ])
    .to_string();
    let (resp, shutdown) = daemon.handle_line(&extend);
    assert!(!shutdown);
    assert!(resp.to_string().contains("\"ok\":true"), "{resp}");

    // The hot-swapped artifact is the byte-identical twin of the
    // library-side extension: extension is a pure function of
    // (artifact, scans), wherever it runs.
    let published = std::fs::read_to_string(&path).unwrap();
    assert_eq!(format!("{}\n", reference.to_json_string()), published);

    // And served history survives the swap bit-identically.
    for (scan, expected) in survey.iter().zip(&before) {
        let line = Json::obj([
            ("op", Json::Str("assign".into())),
            ("building", Json::Str("drifty".into())),
            ("scan", scan.to_json()),
        ])
        .to_string();
        let (resp, _) = daemon.handle_line(&line);
        assert_eq!(
            &resp.to_string(),
            expected,
            "old answer changed after hot-swap"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
