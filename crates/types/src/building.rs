//! Buildings: collections of samples with ground-truth floor labels.

use crate::error::TypeError;
use crate::floor::FloorId;
use crate::json::{missing_field, Json, Kind, Reader, ToJson};
use crate::sample::{SampleId, SignalSample};

/// The single floor-labeled sample FIS-ONE is allowed to use.
///
/// The paper's core setting anchors the TSP ordering at the bottom floor;
/// §VI relaxes this to an arbitrary floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledAnchor {
    /// Which sample carries the label.
    pub sample: SampleId,
    /// The disclosed floor of that sample.
    pub floor: FloorId,
}

/// A building's worth of crowdsourced RF signal samples.
///
/// Ground-truth floor labels for *all* samples are stored for evaluation
/// (ARI/NMI/edit distance need them) and for selecting the single labeled
/// anchor; the identification pipeline itself only ever sees the anchor.
///
/// # Invariants
///
/// - `samples.len() == labels.len()`
/// - every label index is `< floors`
/// - sample ids are dense: `samples[i].id().index() == i`
///
/// These are enforced by [`Building::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct Building {
    name: String,
    floors: usize,
    samples: Vec<SignalSample>,
    labels: Vec<FloorId>,
}

impl Building {
    /// Creates a building after validating all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidBuilding`] if the sample/label lengths
    /// differ, a label is out of range, ids are not dense, or `floors == 0`.
    pub fn new(
        name: impl Into<String>,
        floors: usize,
        samples: Vec<SignalSample>,
        labels: Vec<FloorId>,
    ) -> Result<Self, TypeError> {
        let name = name.into();
        if floors == 0 {
            return Err(TypeError::InvalidBuilding(format!(
                "building {name} has zero floors"
            )));
        }
        if samples.len() != labels.len() {
            return Err(TypeError::InvalidBuilding(format!(
                "building {name}: {} samples but {} labels",
                samples.len(),
                labels.len()
            )));
        }
        for (i, s) in samples.iter().enumerate() {
            if s.id().index() != i {
                return Err(TypeError::InvalidBuilding(format!(
                    "building {name}: sample at position {i} has id {}",
                    s.id()
                )));
            }
        }
        if let Some(bad) = labels.iter().find(|l| l.index() >= floors) {
            return Err(TypeError::InvalidBuilding(format!(
                "building {name}: label {bad} exceeds floor count {floors}"
            )));
        }
        Ok(Self {
            name,
            floors,
            samples,
            labels,
        })
    }

    /// The building's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of floors.
    pub fn floors(&self) -> usize {
        self.floors
    }

    /// All samples, ordered by dense id.
    pub fn samples(&self) -> &[SignalSample] {
        &self.samples
    }

    /// Ground-truth floor labels, parallel to [`Building::samples`].
    ///
    /// Only the evaluation harness and anchor selection may use these.
    pub fn ground_truth(&self) -> &[FloorId] {
        &self.labels
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the building holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples on each floor (indexed by floor index).
    pub fn samples_per_floor(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.floors];
        for l in &self.labels {
            counts[l.index()] += 1;
        }
        counts
    }

    /// The first sample on the requested floor, as a labeled anchor.
    ///
    /// Deterministic (lowest sample id), which keeps experiments
    /// reproducible.
    pub fn anchor_on(&self, floor: FloorId) -> Option<LabeledAnchor> {
        self.labels
            .iter()
            .position(|&l| l == floor)
            .map(|i| LabeledAnchor {
                sample: self.samples[i].id(),
                floor,
            })
    }

    /// The anchor on the bottom floor — the paper's core setting.
    pub fn bottom_anchor(&self) -> Option<LabeledAnchor> {
        self.anchor_on(FloorId::BOTTOM)
    }

    /// Applies the paper's Microsoft-dataset filtering (§V-A): drops floors
    /// with fewer than `min_samples_per_floor` samples (re-indexing the
    /// remaining floors bottom-up) and returns `None` if fewer than
    /// `min_floors` floors remain (two-story buildings are excluded).
    pub fn filtered(&self, min_samples_per_floor: usize, min_floors: usize) -> Option<Building> {
        let counts = self.samples_per_floor();
        let kept: Vec<usize> = (0..self.floors)
            .filter(|&f| counts[f] >= min_samples_per_floor)
            .collect();
        if kept.len() < min_floors {
            return None;
        }
        let remap: Vec<Option<usize>> = (0..self.floors)
            .map(|f| kept.iter().position(|&k| k == f))
            .collect();
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for (s, &l) in self.samples.iter().zip(self.labels.iter()) {
            if let Some(new_floor) = remap[l.index()] {
                samples.push(s.clone().with_id(samples.len() as u32));
                labels.push(FloorId::from_index(new_floor));
            }
        }
        Some(
            Building::new(self.name.clone(), kept.len(), samples, labels)
                .expect("filtering preserves invariants"),
        )
    }
}

impl ToJson for Building {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("floors", Json::Num(self.floors as f64)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(ToJson::to_json).collect()),
            ),
            (
                "labels",
                Json::Arr(self.labels.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl Building {
    /// Reads one corpus line's building straight from a [`Reader`],
    /// each sample through [`SignalSample::read`] and each label through
    /// [`FloorId::read`]. Keys come in any order (a later duplicate
    /// wins); the fields are checked as `name`, `floors`, `samples`,
    /// then `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError`] for the first bad field, or what
    /// [`Building::new`] rejects. A bad value may be left partly read;
    /// [`Reader::decode`] skips it.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let (mut name, mut floors, mut samples, mut labels) = (None, None, None, None);
        if r.peek()? == Kind::Obj {
            let mut fields = r.object()?;
            while let Some(key) = r.next_key(&mut fields)? {
                match key.as_ref() {
                    "name" => name = Some(r.value()?),
                    "floors" => floors = Some(r.value()?),
                    "samples" => {
                        samples = Some(
                            r.decode(|r| r.array_of(not_array("samples"), SignalSample::read))?,
                        )
                    }
                    "labels" => {
                        labels = Some(r.decode(|r| r.array_of(not_array("labels"), FloorId::read))?)
                    }
                    _ => r.skip()?,
                }
            }
        }
        let Json::Str(name) = name.ok_or_else(|| missing_field("name"))? else {
            return Err(TypeError::Io("building name must be a string".to_owned()));
        };
        let floors = floors
            .ok_or_else(|| missing_field("floors"))?
            .as_usize()
            .ok_or_else(|| {
                TypeError::Io("floor count must be a non-negative integer".to_owned())
            })?;
        let samples = samples.ok_or_else(|| missing_field("samples"))??;
        let labels = labels.ok_or_else(|| missing_field("labels"))??;
        // Building::new re-validates every structural invariant, so a
        // hand-edited corpus cannot smuggle in inconsistent data.
        Building::new(name, floors, samples, labels)
    }
}

fn not_array(what: &str) -> impl FnOnce() -> TypeError + '_ {
    move || TypeError::Io(format!("{what} must be an array"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::rssi::Rssi;

    fn sample(id: u32, macs: &[u64]) -> SignalSample {
        SignalSample::builder(id)
            .readings(
                macs.iter()
                    .map(|&m| (MacAddr::from_u64(m), Rssi::new(-50.0).unwrap())),
            )
            .build()
    }

    fn small_building() -> Building {
        // 3 floors; floor 0 has 2 samples, floor 1 has 2, floor 2 has 1.
        Building::new(
            "B",
            3,
            (0..5).map(|i| sample(i, &[u64::from(i) + 1])).collect(),
            vec![
                FloorId::from_index(0),
                FloorId::from_index(0),
                FloorId::from_index(1),
                FloorId::from_index(1),
                FloorId::from_index(2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let err = Building::new("B", 2, vec![sample(0, &[1])], vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn new_validates_floor_range() {
        let err = Building::new("B", 1, vec![sample(0, &[1])], vec![FloorId::from_index(1)]);
        assert!(err.is_err());
    }

    #[test]
    fn new_validates_dense_ids() {
        let err = Building::new("B", 1, vec![sample(5, &[1])], vec![FloorId::BOTTOM]);
        assert!(err.is_err());
    }

    #[test]
    fn new_rejects_zero_floors() {
        assert!(Building::new("B", 0, vec![], vec![]).is_err());
    }

    #[test]
    fn samples_per_floor_counts() {
        let b = small_building();
        assert_eq!(b.samples_per_floor(), vec![2, 2, 1]);
    }

    #[test]
    fn anchors_are_deterministic() {
        let b = small_building();
        let a = b.bottom_anchor().unwrap();
        assert_eq!(a.sample, SampleId(0));
        assert_eq!(a.floor, FloorId::BOTTOM);
        let a2 = b.anchor_on(FloorId::from_index(2)).unwrap();
        assert_eq!(a2.sample, SampleId(4));
        assert!(b.anchor_on(FloorId::from_index(9)).is_none());
    }

    #[test]
    fn filtered_drops_thin_floors_and_reindexes() {
        let b = small_building();
        // floor 2 has only one sample -> dropped with threshold 2.
        let f = b.filtered(2, 2).unwrap();
        assert_eq!(f.floors(), 2);
        assert_eq!(f.len(), 4);
        assert_eq!(f.samples_per_floor(), vec![2, 2]);
        // ids re-densified
        for (i, s) in f.samples().iter().enumerate() {
            assert_eq!(s.id().index(), i);
        }
    }

    #[test]
    fn filtered_rejects_too_few_floors() {
        let b = small_building();
        assert!(b.filtered(2, 3).is_none()); // only 2 floors survive
    }

    /// One corpus line through [`Building::read`], as
    /// `io::load_jsonl` decodes it.
    fn decode(text: &str) -> Result<Building, TypeError> {
        let mut r = Reader::new(text);
        let building = r.decode(Building::read)?;
        r.finish()?;
        building
    }

    #[test]
    fn json_round_trip() {
        let b = small_building();
        let json = b.to_json_string();
        let back = decode(&json).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn json_load_revalidates_invariants() {
        // A corpus whose labels exceed the floor count must be rejected.
        let bad = r#"{"name":"x","floors":1,"samples":[{"id":0,"readings":[]}],"labels":[3]}"#;
        assert!(decode(bad).is_err());
    }

    /// The tree decoder [`Building::read`] replaced, with the scan and
    /// label rules it called: the reference for what `read` must accept
    /// and which error it must report.
    fn reference_from_json(value: &Json) -> Result<Building, TypeError> {
        let name = value
            .field("name")?
            .as_str()
            .ok_or_else(|| TypeError::Io("building name must be a string".to_owned()))?;
        let floors = value.field("floors")?.as_usize().ok_or_else(|| {
            TypeError::Io("floor count must be a non-negative integer".to_owned())
        })?;
        let samples = value
            .field("samples")?
            .as_arr()
            .ok_or_else(|| TypeError::Io("samples must be an array".to_owned()))?
            .iter()
            .map(reference_scan)
            .collect::<Result<Vec<_>, _>>()?;
        let labels = value
            .field("labels")?
            .as_arr()
            .ok_or_else(|| TypeError::Io("labels must be an array".to_owned()))?
            .iter()
            .map(|label| {
                label.as_usize().map(FloorId::from_index).ok_or_else(|| {
                    TypeError::Io("floor id must be a non-negative integer".to_owned())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Building::new(name, floors, samples, labels)
    }

    /// The tree scan decoder that [`SignalSample::read`] replaced.
    fn reference_scan(value: &Json) -> Result<SignalSample, TypeError> {
        let id = value.get("id").ok_or_else(|| missing_field("id"))?;
        let id = id
            .as_usize()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                TypeError::Io(format!(
                    "sample id must be an integer in 0..=4294967295, got {id}"
                ))
            })?;
        let readings = value
            .field("readings")?
            .as_arr()
            .ok_or_else(|| TypeError::Io("readings must be an array".to_owned()))?
            .iter()
            .map(|pair| {
                let (mac, rssi) = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .map(|p| (p[0].as_str(), p[1].as_f64()))
                    .ok_or_else(|| {
                        TypeError::Io("reading must be a [mac, rssi] pair".to_owned())
                    })?;
                Ok((MacAddr::from_wire(mac)?, Rssi::from_wire(rssi)?))
            })
            .collect::<Result<Vec<_>, TypeError>>()?;
        Ok(SignalSample::builder(id).readings(readings).build())
    }

    /// `value` with `key` replaced, or removed when `with` is `None`.
    fn with_field(value: &Json, key: &str, with: Option<Json>) -> Json {
        let mut value = value.clone();
        if let Json::Obj(map) = &mut value {
            match with {
                Some(with) => map.insert(key.to_owned(), with),
                None => map.remove(key),
            };
        }
        value
    }

    #[test]
    fn read_matches_the_tree_decoder() {
        let good = small_building().to_json();
        let text = good.to_string();
        let mut cases = vec![
            text.clone(),
            "[]".to_owned(),
            "7".to_owned(),
            "null".to_owned(),
        ];
        // Cut at every byte, and every byte replaced by a delimiter or
        // by garbage (the text is ASCII, so every offset is a char
        // boundary).
        for cut in 0..text.len() {
            cases.push(text[..cut].to_owned());
            for byte in ['"', '}', '#'] {
                cases.push(format!("{}{byte}{}", &text[..cut], &text[cut + 1..]));
            }
        }
        // Keys in reverse order, and a duplicate key bad then good and
        // good then bad.
        let Json::Obj(map) = &good else {
            unreachable!()
        };
        let reversed: Vec<String> = map
            .iter()
            .rev()
            .map(|(k, v)| format!("{}:{v}", Json::Str(k.clone())))
            .collect();
        cases.push(format!("{{{}}}", reversed.join(",")));
        for key in ["name", "floors", "samples", "labels"] {
            cases.push(format!("{{\"{key}\":7,{}", &text[1..]));
            cases.push(format!("{},\"{key}\":7}}", &text[..text.len() - 1]));
            // Each field missing or mistyped.
            for with in [
                None,
                Some(Json::Null),
                Some(Json::Str("x".into())),
                Some(Json::Num(-1.0)),
                Some(Json::Num(2.5)),
                Some(Json::Num(3.0)),
                Some(Json::Arr(vec![])),
                Some(Json::Arr(vec![Json::Str("x".into())])),
                Some(Json::obj([])),
            ] {
                cases.push(with_field(&good, key, with).to_string());
            }
        }
        // Two fields wrong at once, so the order of the checks shows.
        let keys = ["name", "floors", "samples", "labels"];
        for (i, first) in keys.iter().enumerate() {
            for second in &keys[i + 1..] {
                for with in [None, Some(Json::Str("x".into()))] {
                    let once = with_field(&good, first, with.clone());
                    cases.push(with_field(&once, second, with).to_string());
                }
            }
        }
        // A bad sample or label first, in the middle and last.
        let samples = good.get("samples").and_then(Json::as_arr).unwrap();
        let labels = good.get("labels").and_then(Json::as_arr).unwrap();
        let bad_scans = [
            r#"{"id":"x","readings":[]}"#,
            r#"{"readings":[]}"#,
            r#"{"id":0,"readings":{}}"#,
            r#"{"id":0,"readings":[["00:00:00:00:00:01"]]}"#,
            r#"{"id":0,"readings":[["zz:00:00:00:00:01",-50]]}"#,
            r#"{"id":0,"readings":[[1,-50]]}"#,
            r#"{"id":0,"readings":[["00:00:00:00:00:01",5]]}"#,
            r#"{"id":0,"readings":[["00:00:00:00:00:01","-50"]]}"#,
            "[]",
        ];
        for at in [0, samples.len() / 2, samples.len() - 1] {
            for bad in bad_scans {
                let mut items = samples.to_vec();
                items[at] = Json::parse(bad).unwrap();
                cases.push(with_field(&good, "samples", Some(Json::Arr(items))).to_string());
            }
            for bad in [
                Json::Str("1".into()),
                Json::Num(-1.0),
                Json::Num(0.5),
                Json::Num(9.0),
            ] {
                let mut items = labels.to_vec();
                items[at] = bad;
                cases.push(with_field(&good, "labels", Some(Json::Arr(items))).to_string());
            }
        }
        for case in &cases {
            let want = Json::parse(case).and_then(|value| reference_from_json(&value));
            assert_eq!(decode(case), want, "{case}");
        }
    }
}
