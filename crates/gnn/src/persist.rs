//! JSON (de)serialization of trained RF-GNN models.
//!
//! Follows the whole-model-as-one-artifact idiom: the learned `features`
//! and `W_k` matrices plus the full hyperparameter config serialize into a
//! single [`Json`] object. Numbers go through `fis_types::json`'s
//! shortest-round-trip `f64` codec, so a save → load → save cycle is
//! byte-identical; the RNG `seed` is stored as a decimal *string* because
//! a JSON number (f64) cannot represent every `u64` exactly. Loading reads
//! straight from a [`Reader`] ([`RfGnn::read`], [`read_matrix`]), number by
//! number, with no [`Json`] tree for the matrices.

use fis_linalg::Matrix;
use fis_types::json::{missing_field, Json, Kind, Reader, ToJson};
use fis_types::TypeError;

use crate::config::RfGnnConfig;
use crate::model::RfGnn;

/// Serializes a matrix as `{"rows": r, "cols": c, "data": [...]}` with
/// row-major data.
pub fn matrix_to_json(m: &Matrix) -> Json {
    Json::obj([
        ("rows", Json::Num(m.rows() as f64)),
        ("cols", Json::Num(m.cols() as f64)),
        (
            "data",
            Json::Arr(m.as_slice().iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

/// Reads a matrix written by [`matrix_to_json`] straight from a
/// reader, its fields in any order (a later duplicate replaces an
/// earlier one).
///
/// # Errors
///
/// Returns [`TypeError::Io`] on a syntax error, a missing or wrongly
/// typed shape field, or a data length that disagrees with
/// `rows * cols`.
pub fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix, TypeError> {
    let (mut rows, mut cols, mut data) = (None, None, None);
    if r.peek()? == Kind::Obj {
        let mut fields = r.object()?;
        while let Some(key) = r.next_key(&mut fields)? {
            match key.as_ref() {
                "rows" => rows = Some(r.value()?),
                "cols" => cols = Some(r.value()?),
                "data" => data = Some(r.decode(read_data)?),
                _ => r.skip()?,
            }
        }
    }
    let rows = rows
        .ok_or_else(|| missing_field("rows"))?
        .as_usize()
        .ok_or_else(|| TypeError::Io("matrix rows must be a non-negative integer".to_owned()))?;
    let cols = cols
        .ok_or_else(|| missing_field("cols"))?
        .as_usize()
        .ok_or_else(|| TypeError::Io("matrix cols must be a non-negative integer".to_owned()))?;
    let (data, non_numbers) = data.ok_or_else(|| missing_field("data"))??;
    let len = data.len() + non_numbers;
    if len != rows.saturating_mul(cols) {
        return Err(TypeError::Io(format!(
            "matrix data length {len} does not match {rows}x{cols}"
        )));
    }
    if non_numbers > 0 {
        return Err(TypeError::Io("matrix data must be numbers".to_owned()));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// A matrix's `data` array: its numbers, and how many items were not
/// numbers. Those are counted rather than raised, because the length
/// check comes first.
fn read_data(r: &mut Reader<'_>) -> Result<(Vec<f64>, usize), TypeError> {
    if r.peek()? != Kind::Arr {
        return Err(TypeError::Io("matrix data must be an array".to_owned()));
    }
    let (mut data, mut non_numbers, mut items) = (Vec::new(), 0, r.array()?);
    while r.next_item(&mut items)? {
        if r.peek()? == Kind::Num {
            data.push(r.num()?);
        } else {
            r.skip()?;
            non_numbers += 1;
        }
    }
    // The array grew by doubling; a resident model keeps only its data.
    data.shrink_to_fit();
    Ok((data, non_numbers))
}

fn usize_field(value: &Json, key: &str) -> Result<usize, TypeError> {
    value
        .field(key)?
        .as_usize()
        .ok_or_else(|| TypeError::Io(format!("`{key}` must be a non-negative integer")))
}

fn bool_field(value: &Json, key: &str) -> Result<bool, TypeError> {
    match value.field(key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(TypeError::Io(format!("`{key}` must be a boolean"))),
    }
}

impl ToJson for RfGnnConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dim", Json::Num(self.dim as f64)),
            ("hops", Json::Num(self.hops as f64)),
            (
                "neighbor_samples",
                Json::Arr(
                    self.neighbor_samples
                        .iter()
                        .map(|&s| Json::Num(s as f64))
                        .collect(),
                ),
            ),
            ("walks_per_node", Json::Num(self.walks_per_node as f64)),
            ("walk_length", Json::Num(self.walk_length as f64)),
            ("tau", Json::Num(self.tau as f64)),
            ("epochs", Json::Num(self.epochs as f64)),
            ("batch_pairs", Json::Num(self.batch_pairs as f64)),
            ("learning_rate", Json::Num(self.learning_rate)),
            ("attention", Json::Bool(self.attention)),
            ("train_features", Json::Bool(self.train_features)),
            ("inference_passes", Json::Num(self.inference_passes as f64)),
            ("seed", Json::Str(self.seed.to_string())),
        ])
    }
}

impl RfGnnConfig {
    /// Decodes the small config object that [`RfGnn::read`] keeps as a
    /// [`Json`] subtree, then [`RfGnnConfig::validate`]s it.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] naming the first missing, wrongly
    /// typed or invalid field.
    pub fn from_json(value: &Json) -> Result<Self, TypeError> {
        let dim = usize_field(value, "dim")?;
        if dim == 0 {
            return Err(TypeError::Io("`dim` must be positive".to_owned()));
        }
        let samples_raw = value
            .field("neighbor_samples")?
            .as_arr()
            .ok_or_else(|| TypeError::Io("`neighbor_samples` must be an array".to_owned()))?;
        let mut neighbor_samples = Vec::with_capacity(samples_raw.len());
        for s in samples_raw {
            neighbor_samples.push(s.as_usize().ok_or_else(|| {
                TypeError::Io("`neighbor_samples` entries must be non-negative integers".to_owned())
            })?);
        }
        let seed = value
            .field("seed")?
            .as_str()
            .ok_or_else(|| TypeError::Io("`seed` must be a decimal string".to_owned()))?
            .parse::<u64>()
            .map_err(|_| TypeError::Io("`seed` must be a decimal u64 string".to_owned()))?;
        let config = RfGnnConfig {
            dim,
            hops: usize_field(value, "hops")?,
            neighbor_samples,
            walks_per_node: usize_field(value, "walks_per_node")?,
            walk_length: usize_field(value, "walk_length")?,
            tau: usize_field(value, "tau")?,
            epochs: usize_field(value, "epochs")?,
            batch_pairs: usize_field(value, "batch_pairs")?,
            learning_rate: value
                .field("learning_rate")?
                .as_f64()
                .ok_or_else(|| TypeError::Io("`learning_rate` must be a number".to_owned()))?,
            attention: bool_field(value, "attention")?,
            train_features: bool_field(value, "train_features")?,
            inference_passes: usize_field(value, "inference_passes")?,
            seed,
        };
        config.validate().map_err(TypeError::Io)?;
        Ok(config)
    }
}

impl ToJson for RfGnn {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config().to_json()),
            ("features", matrix_to_json(self.features())),
            (
                "weights",
                Json::Arr(self.weights().iter().map(matrix_to_json).collect()),
            ),
        ])
    }
}

impl RfGnn {
    /// Reads a model written by its [`ToJson`] form straight from a
    /// reader: `config` as a small [`Json`] subtree, the `features` and
    /// `weights` matrices number by number. Fields come in any order (a
    /// later duplicate replaces an earlier one).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] on a syntax error, a missing or
    /// malformed field, or parts that do not form a model.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let (mut config, mut features, mut weights) = (None, None, None);
        if r.peek()? == Kind::Obj {
            let mut fields = r.object()?;
            while let Some(key) = r.next_key(&mut fields)? {
                match key.as_ref() {
                    "config" => config = Some(r.value()?),
                    "features" => features = Some(r.decode(read_matrix)?),
                    "weights" => weights = Some(r.decode(read_weights)?),
                    _ => r.skip()?,
                }
            }
        }
        let config =
            RfGnnConfig::from_json(config.as_ref().ok_or_else(|| missing_field("config"))?)?;
        let features = features.ok_or_else(|| missing_field("features"))??;
        let weights = weights.ok_or_else(|| missing_field("weights"))??;
        RfGnn::from_parts(config, features, weights).map_err(TypeError::Io)
    }

    /// Parses a model from its JSON text with [`RfGnn::read`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`]: the first syntax error in the text if
    /// there is one, else the first problem [`RfGnn::read`] finds.
    pub fn from_json_str(text: &str) -> Result<Self, TypeError> {
        let mut r = Reader::new(text);
        let model = r.decode(Self::read)?;
        r.finish()?;
        model
    }
}

/// The `weights` array of per-hop matrices.
fn read_weights(r: &mut Reader<'_>) -> Result<Vec<Matrix>, TypeError> {
    r.array_of(
        || TypeError::Io("`weights` must be an array".to_owned()),
        read_matrix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_graph::BipartiteGraph;
    use fis_synth::BuildingConfig;

    fn trained() -> (BipartiteGraph, RfGnn) {
        let b = BuildingConfig::new("p", 2)
            .samples_per_floor(15)
            .aps_per_floor(5)
            .atrium_aps(0)
            .seed(3)
            .generate();
        let graph = BipartiteGraph::from_samples(b.samples()).unwrap();
        let config = RfGnnConfig {
            epochs: 2,
            walks_per_node: 2,
            neighbor_samples: vec![4, 3],
            seed: u64::MAX - 5, // exercise the >2^53 seed path
            ..RfGnnConfig::new(8)
        };
        (graph.clone(), RfGnn::train(&graph, &config).unwrap())
    }

    #[test]
    fn model_round_trips_byte_identically() {
        let (_, model) = trained();
        let text = model.to_json_string();
        let back = RfGnn::from_json_str(&text).unwrap();
        assert_eq!(back.config(), model.config());
        assert_eq!(back.features().as_slice(), model.features().as_slice());
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn reloaded_model_embeds_identically() {
        let (graph, model) = trained();
        let back = RfGnn::from_json_str(&model.to_json_string()).unwrap();
        let nodes: Vec<usize> = (0..graph.n_samples()).collect();
        assert_eq!(
            model.infer_nodes(&graph, &nodes).as_slice(),
            back.infer_nodes(&graph, &nodes).as_slice()
        );
    }

    #[test]
    fn matrix_codec_rejects_bad_shapes() {
        let read = |text| read_matrix(&mut Reader::new(text));
        assert!(read(r#"{"rows":2,"cols":2,"data":[1,2,3]}"#).is_err());
        assert!(read(r#"{"rows":1,"data":[1]}"#).is_err());
        assert!(read(r#"{"rows":1,"cols":2,"data":[1,"2"]}"#).is_err());
        let m = read(r#"{"data":[1,2],"cols":2,"rows":1}"#).unwrap();
        assert_eq!((m.shape(), m.as_slice()), ((1, 2), &[1.0, 2.0][..]));
        assert!(RfGnn::from_json_str("{\"config\":{}}").is_err());
    }

    #[test]
    fn config_codec_validates() {
        let mut config = RfGnnConfig::new(4);
        config.seed = u64::MAX;
        let back = RfGnnConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
        // Tampered hop count must be rejected by validate().
        let mut json = config.to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("hops".to_owned(), Json::Num(7.0));
        }
        assert!(RfGnnConfig::from_json(&json).is_err());
    }
}
