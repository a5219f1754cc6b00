//! JSON (de)serialization of trained RF-GNN models.
//!
//! Follows the whole-model-as-one-artifact idiom: the learned `features`
//! and `W_k` matrices plus the full hyperparameter config serialize into a
//! single [`Json`] object. Numbers go through `fis_types::json`'s
//! shortest-round-trip `f64` codec, so a save → load → save cycle is
//! byte-identical; the RNG `seed` is stored as a decimal *string* because
//! a JSON number (f64) cannot represent every `u64` exactly.

use fis_linalg::Matrix;
use fis_types::json::{FromJson, Json, ToJson};
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

/// Parses a matrix written by [`matrix_to_json`].
///
/// # Errors
///
/// Returns [`TypeError::Io`] when shape fields are missing or the data
/// length disagrees with `rows * cols`.
pub fn matrix_from_json(value: &Json) -> Result<Matrix, TypeError> {
    let rows = value
        .field("rows")?
        .as_usize()
        .ok_or_else(|| TypeError::Io("matrix rows must be a non-negative integer".to_owned()))?;
    let cols = value
        .field("cols")?
        .as_usize()
        .ok_or_else(|| TypeError::Io("matrix cols must be a non-negative integer".to_owned()))?;
    let raw = value
        .field("data")?
        .as_arr()
        .ok_or_else(|| TypeError::Io("matrix data must be an array".to_owned()))?;
    if raw.len() != rows.saturating_mul(cols) {
        return Err(TypeError::Io(format!(
            "matrix data length {} does not match {rows}x{cols}",
            raw.len()
        )));
    }
    let mut data = Vec::with_capacity(raw.len());
    for v in raw {
        data.push(
            v.as_f64()
                .ok_or_else(|| TypeError::Io("matrix data must be numbers".to_owned()))?,
        );
    }
    Ok(Matrix::from_vec(rows, cols, data))
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

impl FromJson for RfGnnConfig {
    fn from_json(value: &Json) -> Result<Self, TypeError> {
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

impl FromJson for RfGnn {
    fn from_json(value: &Json) -> Result<Self, TypeError> {
        let config = RfGnnConfig::from_json(value.field("config")?)?;
        let features = matrix_from_json(value.field("features")?)?;
        let weights_raw = value
            .field("weights")?
            .as_arr()
            .ok_or_else(|| TypeError::Io("`weights` must be an array".to_owned()))?;
        let mut weights = Vec::with_capacity(weights_raw.len());
        for w in weights_raw {
            weights.push(matrix_from_json(w)?);
        }
        RfGnn::from_parts(config, features, weights).map_err(TypeError::Io)
    }
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
        let config = RfGnnConfig::new(8)
            .epochs(2)
            .walks_per_node(2)
            .neighbor_samples(vec![4, 3])
            .seed(u64::MAX - 5); // exercise the >2^53 seed path
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
        assert!(
            matrix_from_json(&Json::parse(r#"{"rows":2,"cols":2,"data":[1,2,3]}"#).unwrap())
                .is_err()
        );
        assert!(matrix_from_json(&Json::parse(r#"{"rows":1,"data":[1]}"#).unwrap()).is_err());
        assert!(RfGnn::from_json_str("{\"config\":{}}").is_err());
    }

    #[test]
    fn config_codec_validates() {
        let mut config = RfGnnConfig::new(4);
        config.seed = u64::MAX;
        let back = RfGnnConfig::from_json_str(&config.to_json_string()).unwrap();
        assert_eq!(back, config);
        // Tampered hop count must be rejected by validate().
        let mut json = config.to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("hops".to_owned(), Json::Num(7.0));
        }
        assert!(RfGnnConfig::from_json(&json).is_err());
    }
}
