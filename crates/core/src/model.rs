//! Fitted-model artifact and streaming inference.
//!
//! [`FisOne::identify`] refits a whole building from scratch on every
//! call, yet the paper's stated reason for an *inductive* RF-GNN is that
//! crowdsourced signals keep arriving. This module closes that gap with a
//! fit-once / serve-forever path:
//!
//! 1. [`FisOne::fit`] runs the full pipeline once and captures everything
//!    inference needs into a [`FittedModel`]: the trained GNN encoder, the
//!    MAC vocabulary and training scans (which rebuild the bipartite
//!    graph), the training scans' embeddings (the *references*),
//!    per-cluster centroids, and the cluster → floor ordering from
//!    indexing. Every scan is embedded one way, by the content-seeded
//!    [`fis_gnn::RfGnn::infer_scan`] pass: the fit clusters exactly the
//!    rows it stores as references, and [`FisOne::identify`] clusters the
//!    same rows.
//! 2. [`FittedModel::save`] / [`FittedModel::load`] persist the whole
//!    model as one JSON artifact via `fis_types::json`. The codec writes
//!    `f64` with shortest-round-trip precision and sorted object keys, so
//!    save → load → save is **byte-identical**. Loading decodes straight
//!    from the pull [`Reader`]: scans, matrices, embeddings and index
//!    arrays go into their typed fields as the text is walked, once, with
//!    no [`Json`] tree in between. Keys may come in any order, unknown
//!    keys are skipped and a later duplicate key wins; then one
//!    validation sequence checks every invariant and rebuilds the graph,
//!    MAC index and VP-tree. Errors are those of the tree it replaced:
//!    the first syntax error in the text, else the first failed check.
//! 3. [`FittedModel::assign`] labels a new scan without refitting: it
//!    attaches the scan to the MAC nodes it heard, embeds it with the
//!    tape-free [`fis_gnn::RfGnn::infer_scan`] pass, and returns the
//!    cluster of the nearest *reference* embedding (the training scans'
//!    embeddings, stored in the artifact).
//!    [`FittedModel::assign_stream`] fans a batch out over
//!    [`fis_parallel`].
//!
//! # Determinism contract
//!
//! Each scan's inference RNG is seeded from the model seed and the scan's
//! *content* alone, so an embedding depends only on `(model, scan)` —
//! never on batch order, batch size, or thread count. Fit, identify and
//! assign embed a scan through the same per-scan function, so a
//! training scan re-embeds **bit-identically** to its stored reference
//! (distance exactly zero) and gets the cluster the fit clustered it
//! into. `fit` + `assign` therefore reproduce `identify`'s labels exactly
//! on the training corpus, by construction; `tests/golden_fixtures.rs`
//! locks it.
//!
//! # Artifact schema (version 1)
//!
//! One JSON object with sorted keys:
//!
//! ```json
//! {
//!   "schema": "fis-one/fitted-model", "version": 1,
//!   "building": "hq", "floors": 4,
//!   "config": {"clustering": "...", "similarity": "...", "solver": "..."},
//!   "gnn": {"config": {...}, "features": {...}, "weights": [...]},
//!   "macs": ["aa:bb:cc:dd:ee:01", ...],
//!   "samples": [{"id": 0, "readings": [...]}, ...],
//!   "references": [[...], ...],
//!   "centroids": [[...], ...],
//!   "floor_of_cluster": [...], "cluster_order": [...],
//!   "assignment": [...]
//! }
//! ```
//!
//! # Artifact schema (version 2: online extension)
//!
//! [`FittedModel::extend`] grows a model with freshly served scans
//! without refitting. An extended model serializes as version `2`: the
//! version-1 object plus one `extension` field:
//!
//! ```json
//! {
//!   "...": "all version-1 fields, unchanged",
//!   "version": 2,
//!   "extension": {
//!     "samples": [{"id": 120, "readings": [...]}, ...],
//!     "assignment": [...],
//!     "references": [[...], ...]
//!   }
//! }
//! ```
//!
//! `extension.samples` continue the base sample numbering,
//! `extension.assignment` records the self-assigned cluster per extension
//! scan, and `extension.references` holds the extended-space embeddings of
//! *every* reference scan (base + extension). Everything else about the
//! extended path rebuilds deterministically at load. Unextended models
//! keep writing version 1 **byte-identically**.
//!
//! Compatibility policy: loaders accept exactly the schema versions they
//! know (currently `1` and `2`) and reject anything else with a
//! typed [`FisError::Model`]; any change to the serialized geometry or
//! the content-seed derivation must bump [`MODEL_SCHEMA_VERSION`].

use std::collections::HashMap;
use std::path::Path;

use fis_gnn::RfGnn;
use fis_graph::BipartiteGraph;
use fis_linalg::Matrix;
use fis_obs::{self as obs, Level};
use fis_types::fnv::{fnv1a, FNV_OFFSET};
use fis_types::json::{Json, Kind, Reader, ToJson};
use fis_types::{FloorId, LabeledAnchor, MacAddr, SignalSample, TypeError};

use crate::error::FisError;
use crate::extension::{build_extended_state, ExtendedState, ExtensionReport};
use crate::indexing::TspSolver;
use crate::nn::VpTree;
use crate::pipeline::{ClusteringMethod, FisOne, FisOneConfig};
use crate::similarity::SimilarityMethod;

/// Identifier of the fitted-model artifact format.
pub const MODEL_SCHEMA: &str = "fis-one/fitted-model";

/// Current artifact schema version; see the module docs for the policy.
pub const MODEL_SCHEMA_VERSION: usize = 1;

/// Schema version written for models that carry an online extension
/// (see [`FittedModel::extend`]): version 2 = version 1 plus an
/// `extension` object `{samples, assignment, references}`. Unextended
/// models keep writing version 1 byte-identically, so pre-extension
/// artifacts and tooling are unaffected.
pub const MODEL_SCHEMA_VERSION_EXTENDED: usize = 2;

/// Fewest scans one [`FittedModel::assign_stream`] worker takes, so a
/// batch under 24 scans (twice this) is answered on the calling thread.
///
/// This is the measured break-even of a two-way split on a 2-core VM,
/// answering held-out scans with a default-config 240-scan model: one
/// scan takes about 25 µs, close to the cost of spawning a scoped
/// thread, so batches of 8 to 20 scans ran as fast or faster inline,
/// and batches of 24 or more ran 15–25% faster split in two.
pub const MIN_SCANS_PER_WORKER: usize = 12;

/// Everything needed to label new scans for one building without
/// refitting; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct FittedModel {
    building: String,
    floors: usize,
    config: FisOneConfig,
    gnn: RfGnn,
    macs: Vec<MacAddr>,
    samples: Vec<SignalSample>,
    /// Inference embeddings of the training scans (all-zero rows for
    /// scans that heard nothing); the 1-NN references of `assign`.
    references: Vec<Vec<f64>>,
    centroids: Vec<Vec<f64>>,
    floor_of_cluster: Vec<usize>,
    cluster_order: Vec<usize>,
    assignment: Vec<usize>,
    /// Rebuilt from `samples` at fit/load time; never serialized twice.
    graph: BipartiteGraph,
    /// O(1) MAC → interned index lookup for streaming scans.
    mac_index: HashMap<MacAddr, usize>,
    /// Exact 1-NN index over the non-placeholder `references`, rebuilt
    /// at fit/load time (like `graph`); bit-identical to the linear scan
    /// by the [`crate::nn`] exactness contract.
    nn: VpTree,
    /// Online-extension state ([`FittedModel::extend`]); `None` until the
    /// model is extended. The base fields above stay frozen either way —
    /// that freeze is what keeps old-vocabulary answers bit-identical.
    extension: Option<ExtendedState>,
}

impl FisOne {
    /// Fits a model on a building's corpus: runs the full pipeline
    /// (graph → RF-GNN → embedding → clustering → indexing) once and
    /// keeps what [`FittedModel::assign`] needs to label new scans
    /// without refitting. The embeddings it clusters are the content-seeded
    /// inference embeddings a served scan gets, so they are stored as the
    /// 1-NN references as they are, and fit + assign on the training scans
    /// gives `identify`'s labels by construction.
    ///
    /// `anchor` must label a bottom- or top-floor sample, exactly like
    /// [`FisOne::identify`].
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`FisOne::identify`] for any pipeline
    /// stage failure.
    pub fn fit(
        &self,
        building: &str,
        samples: &[SignalSample],
        floors: usize,
        anchor: LabeledAnchor,
    ) -> Result<FittedModel, FisError> {
        let mut fit_span = obs::span(Level::Info, "pipeline", "fit");
        fit_span
            .str("building", building)
            .num("samples", samples.len() as f64)
            .num("floors", floors as f64);
        // Same up-front gating as `identify`: reject bad inputs before the
        // expensive training stages, with identical errors.
        self.validate_anchor(samples, floors, anchor)?;
        self.validate_endpoint_anchor(floors, anchor)?;
        let (graph, gnn) = self.train_model(samples)?;
        let mac_index = index_macs(graph.macs());
        let references = embed_scans(&gnn, &graph, &mac_index, samples)?;
        let embeddings = Matrix::from_vec(samples.len(), gnn.dim(), references.concat());
        let assignment = self.cluster_embeddings(&embeddings, floors)?;
        let prediction = self.index_assignment(samples, &assignment, floors, anchor)?;

        let mut centroids = vec![vec![0.0; gnn.dim()]; floors];
        let mut counts = vec![0usize; floors];
        for ((scan, emb), &c) in samples.iter().zip(&references).zip(&assignment) {
            // An empty scan's all-zero row is no embedding.
            if scan.is_empty() {
                continue;
            }
            for (slot, x) in centroids[c].iter_mut().zip(emb) {
                *slot += x;
            }
            counts[c] += 1;
        }
        for (centroid, &n) in centroids.iter_mut().zip(&counts) {
            if n > 0 {
                for x in centroid.iter_mut() {
                    *x /= n as f64;
                }
            }
        }

        let nn = {
            let _span = obs::span(Level::Debug, "pipeline", "vptree_build");
            VpTree::build(&references, |i| !samples[i].is_empty())
        };
        Ok(FittedModel {
            building: building.to_owned(),
            floors,
            config: self.config().clone(),
            gnn,
            macs: graph.macs().to_vec(),
            samples: samples.to_vec(),
            references,
            centroids,
            floor_of_cluster: prediction.floor_of_cluster().to_vec(),
            cluster_order: prediction.cluster_order().to_vec(),
            assignment,
            graph,
            mac_index,
            nn,
            extension: None,
        })
    }
}

impl FittedModel {
    /// The building this model was fitted on.
    pub fn building(&self) -> &str {
        &self.building
    }

    /// Number of floors (= clusters = centroids).
    pub fn floors(&self) -> usize {
        self.floors
    }

    /// The pipeline configuration the model was fitted with.
    pub fn config(&self) -> &FisOneConfig {
        &self.config
    }

    /// The trained RF-GNN encoder.
    pub fn gnn(&self) -> &RfGnn {
        &self.gnn
    }

    /// The MAC vocabulary in interned (first-seen) order.
    pub fn macs(&self) -> &[MacAddr] {
        &self.macs
    }

    /// The training scans the model was fitted on.
    pub fn samples(&self) -> &[SignalSample] {
        &self.samples
    }

    /// Inference embeddings of the training scans, in sample order.
    pub fn references(&self) -> &[Vec<f64>] {
        &self.references
    }

    /// Per-cluster centroids in the inference embedding space.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Zero-based floor index assigned to each cluster.
    pub fn floor_of_cluster(&self) -> &[usize] {
        &self.floor_of_cluster
    }

    /// Clusters in visiting order along the indexed path.
    pub fn cluster_order(&self) -> &[usize] {
        &self.cluster_order
    }

    /// Cluster id of every training scan.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Floor labels of the training scans, in sample order — the same
    /// labels [`FisOne::identify`] produced during fitting.
    pub fn training_labels(&self) -> Vec<FloorId> {
        self.assignment
            .iter()
            .map(|&c| FloorId::from_index(self.floor_of_cluster[c]))
            .collect()
    }

    /// Labels one scan: embeds it through the inductive inference pass and
    /// returns the cluster of the nearest stored reference embedding
    /// (1-NN over the training scans), found through the [`VpTree`] index
    /// in ~O(log refs) distance computations. The
    /// [`FittedModel::assign_linear`] reference path gives bit-identical
    /// answers (locked by property tests and the golden fixtures).
    ///
    /// Deterministic in `(model, scan)` alone, and **exact** on the
    /// training corpus: a training scan re-embeds bit-identically to its
    /// stored reference (distance zero), so it always receives the label
    /// `identify` gave it at fit time — see the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Inference`] when the scan contains no MAC known
    /// to the model (nothing to attach to) or the embedding fails.
    pub fn assign(&self, scan: &SignalSample) -> Result<FloorId, FisError> {
        if self.uses_extension(scan) {
            return self.assign_extended(scan);
        }
        let emb = self.embed_query(None, scan)?;
        let best = self.nn.nearest(&emb).ok_or_else(no_reference_error)?;
        Ok(FloorId::from_index(
            self.floor_of_cluster[self.assignment[best]],
        ))
    }

    /// Reference implementation of [`FittedModel::assign`]: the same
    /// decision by exhaustive O(refs × dim) linear scan. Kept as the
    /// ground truth the index is diffed against; prefer `assign`.
    ///
    /// # Errors
    ///
    /// See [`FittedModel::assign`].
    pub fn assign_linear(&self, scan: &SignalSample) -> Result<FloorId, FisError> {
        if self.uses_extension(scan) {
            return self.assign_extended_linear(scan);
        }
        let emb = self.embed_query(None, scan)?;
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, reference) in self.references.iter().enumerate() {
            // Empty training scans have no real embedding; their all-zero
            // placeholder rows are not valid neighbors.
            if self.samples[i].is_empty() {
                continue;
            }
            let d = fis_linalg::vec_ops::euclidean(&emb, reference);
            // Strict `<` keeps the lowest sample index on exact ties.
            if d < best_d {
                best = Some(i);
                best_d = d;
            }
        }
        let best = best.ok_or_else(no_reference_error)?;
        Ok(FloorId::from_index(
            self.floor_of_cluster[self.assignment[best]],
        ))
    }

    /// True when `scan` hears a MAC that only the extension vocabulary
    /// knows. Such scans take the extended path; every other scan —
    /// in particular every scan expressible over the *old* vocabulary —
    /// takes exactly the frozen base path, which is what makes extension
    /// answer-preserving (see [`FittedModel::extend`]).
    fn uses_extension(&self, scan: &SignalSample) -> bool {
        match &self.extension {
            Some(ext) => scan.iter().any(|(mac, _)| {
                !self.mac_index.contains_key(&mac) && ext.mac_index.contains_key(&mac)
            }),
            None => false,
        }
    }

    /// Cluster of reference scan `i` in unified (base + extension) order.
    fn cluster_of_reference(&self, i: usize) -> usize {
        if i < self.assignment.len() {
            self.assignment[i]
        } else {
            let ext = self.extension.as_ref().expect("extended reference index");
            ext.assignment[i - self.assignment.len()]
        }
    }

    /// Extended-path [`FittedModel::assign`]: 1-NN over every reference
    /// re-embedded in the extended space, via that space's VP-tree.
    fn assign_extended(&self, scan: &SignalSample) -> Result<FloorId, FisError> {
        let ext = self.extension.as_ref().expect("routed to extended path");
        let emb = self.embed_query(Some(ext), scan)?;
        let best = ext.nn.nearest(&emb).ok_or_else(no_reference_error)?;
        Ok(FloorId::from_index(
            self.floor_of_cluster[self.cluster_of_reference(best)],
        ))
    }

    /// Linear-scan reference implementation of the extended path (the
    /// [`FittedModel::assign_linear`] twin).
    fn assign_extended_linear(&self, scan: &SignalSample) -> Result<FloorId, FisError> {
        let ext = self.extension.as_ref().expect("routed to extended path");
        let emb = self.embed_query(Some(ext), scan)?;
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, reference) in ext.references.iter().enumerate() {
            let empty = if i < self.samples.len() {
                self.samples[i].is_empty()
            } else {
                ext.samples[i - self.samples.len()].is_empty()
            };
            if empty {
                continue;
            }
            let d = fis_linalg::vec_ops::euclidean(&emb, reference);
            // Strict `<` keeps the lowest sample index on exact ties.
            if d < best_d {
                best = Some(i);
                best_d = d;
            }
        }
        let best = best.ok_or_else(no_reference_error)?;
        Ok(FloorId::from_index(
            self.floor_of_cluster[self.cluster_of_reference(best)],
        ))
    }

    /// The exact-1-NN index over the reference embeddings.
    pub fn nn_index(&self) -> &VpTree {
        &self.nn
    }

    /// Embeds one scan for a 1-NN lookup: in the extension's space when
    /// `ext` is given, else in the base model's.
    fn embed_query(
        &self,
        ext: Option<&ExtendedState>,
        scan: &SignalSample,
    ) -> Result<Vec<f64>, FisError> {
        let (gnn, graph, mac_index) = match ext {
            Some(ext) => (&ext.gnn, &ext.graph, &ext.mac_index),
            None => (&self.gnn, &self.graph, &self.mac_index),
        };
        infer_embedding(gnn, graph, mac_index, scan)
            .ok_or_else(|| {
                FisError::Inference(format!(
                    "scan {} heard {} MAC(s), none known to the model for {}",
                    scan.id(),
                    scan.len(),
                    self.building
                ))
            })?
            .map_err(FisError::Inference)
    }

    /// Labels a batch of scans, fanned out across up to `threads` workers
    /// (`0` = the global [`fis_parallel::thread_budget`]), each taking at
    /// least [`MIN_SCANS_PER_WORKER`] scans: a batch under twice that is
    /// answered on the calling thread. Every scan has its own
    /// content-seeded RNG, so the output is bit-identical for any thread
    /// count and in input order. Per-scan failures land in their slot;
    /// they never abort the batch.
    pub fn assign_stream(
        &self,
        scans: &[SignalSample],
        threads: usize,
    ) -> Vec<Result<FloorId, FisError>> {
        fis_parallel::with_thread_budget(threads, || {
            fis_parallel::par_map(scans, MIN_SCANS_PER_WORKER, |_, scan| self.assign(scan))
        })
    }

    /// Extends the model online with freshly served scans — the answer to
    /// drift (AP churn, renovations) without a full refit: the scans are
    /// self-labeled with the model's *current* answers, appended as new
    /// reference points, and any MACs the base survey never heard grow the
    /// vocabulary. The trained encoder weights are untouched.
    ///
    /// **Answer-preservation invariant:** the base model is frozen and
    /// only scans hearing at least one *extension-only* MAC take the new
    /// extended path, so every scan over the old vocabulary answers
    /// **bit-identically** before and after this call (including error
    /// cases). Repeated extensions compose: each call re-derives the
    /// extended state from the base model plus all extension scans so far.
    ///
    /// Scans that share no MAC with the **base** vocabulary are skipped
    /// (counted in [`ExtensionReport::skipped`]): with no anchor into the
    /// trained feature space there is nothing sound to attach them to.
    ///
    /// Cost: O(total scans) content-seeded re-embeddings in the extended
    /// space (no encoder retraining). The 1-NN VP-trees for both paths are
    /// rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Model`] when `scans` is empty, any scan heard
    /// nothing, or every scan lacks a base-vocabulary MAC; propagates
    /// [`FisError::Inference`] if labeling or re-embedding fails. On error
    /// the model is left exactly as it was.
    pub fn extend(&mut self, scans: &[SignalSample]) -> Result<ExtensionReport, FisError> {
        let mut span = obs::span(Level::Info, "pipeline", "extend");
        span.str("building", self.building.clone())
            .num("scans", scans.len() as f64);
        if scans.is_empty() {
            return Err(FisError::Model("extension needs at least one scan".into()));
        }
        if let Some(empty) = scans.iter().find(|s| s.is_empty()) {
            return Err(FisError::Model(format!(
                "extension scan {} heard no MAC",
                empty.id()
            )));
        }
        let mut accepted: Vec<&SignalSample> = Vec::new();
        let mut skipped = 0usize;
        for scan in scans {
            if scan
                .iter()
                .any(|(mac, _)| self.mac_index.contains_key(&mac))
            {
                accepted.push(scan);
            } else {
                skipped += 1;
            }
        }
        if accepted.is_empty() {
            return Err(FisError::Model(
                "no extension scan shares a MAC with the base vocabulary".into(),
            ));
        }

        // Self-label with the model's *current* answers (pre-extension),
        // so the extension can never rewrite served history.
        let mut floor_counts = vec![0usize; self.floors];
        let mut new_assignment = Vec::with_capacity(accepted.len());
        for scan in &accepted {
            let floor = self.assign(scan)?;
            floor_counts[floor.index()] += 1;
            new_assignment.push(self.cluster_order[floor.index()]);
        }

        // Compose with any earlier extension: the state is always derived
        // from (base model, all extension scans so far).
        let (mut ext_samples, mut ext_assignment) = match &self.extension {
            Some(ext) => (ext.samples.clone(), ext.assignment.clone()),
            None => (Vec::new(), Vec::new()),
        };
        let next_id = (self.samples.len() + ext_samples.len()) as u32;
        for (k, scan) in accepted.iter().enumerate() {
            // Ids continue the unified numbering so the combined graph
            // rebuilds (dense ids are a `BipartiteGraph` invariant).
            ext_samples.push((*scan).clone().with_id(next_id + k as u32));
        }
        ext_assignment.extend(new_assignment);

        let state = build_extended_state(
            &self.samples,
            &self.macs,
            &self.gnn,
            ext_samples,
            ext_assignment,
            None,
        )?;
        let report = ExtensionReport {
            appended: accepted.len(),
            skipped,
            new_macs: state.n_new_macs,
            total_scans: self.samples.len() + state.samples.len(),
            total_macs: self.macs.len() + state.n_new_macs,
            floor_counts,
        };
        self.extension = Some(state);
        Ok(report)
    }

    /// Whether the model carries an online extension.
    pub fn is_extended(&self) -> bool {
        self.extension.is_some()
    }

    /// Number of extension scans appended by [`FittedModel::extend`]
    /// (0 when unextended).
    pub fn extension_len(&self) -> usize {
        self.extension.as_ref().map_or(0, |e| e.samples.len())
    }

    /// Total reference scans: base survey plus extension.
    pub fn total_scans(&self) -> usize {
        self.samples.len() + self.extension_len()
    }

    /// Total MAC vocabulary: base plus extension-grown.
    pub fn total_macs(&self) -> usize {
        self.macs.len() + self.extension.as_ref().map_or(0, |e| e.n_new_macs)
    }

    /// Serializes the whole model into one JSON artifact string (single
    /// line, no trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a model from an artifact string and revalidates every
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Model`] describing the first problem.
    pub fn from_json_str(text: &str) -> Result<Self, FisError> {
        let fields = ArtifactFields::read(text).map_err(|e| FisError::Model(e.to_string()))?;
        Self::from_fields(fields)
    }

    /// Writes the artifact to `path` (the JSON line plus a trailing
    /// newline) **atomically**: the bytes go to a sibling temp file
    /// first and are renamed into place, so a reader — in particular
    /// the `fis-serve` registry, which reads the artifact on a miss or
    /// an explicit `swap` — can never observe a half-written artifact
    /// when a model is refitted over a live serving directory.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Model`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FisError> {
        let path = path.as_ref();
        let mut text = self.to_json_string();
        text.push('\n');
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| FisError::Model(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            FisError::Model(format!("renaming into {}: {e}", path.display()))
        })
    }

    /// Reads and validates an artifact written by [`FittedModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Model`] if the file is unreadable, the JSON is
    /// corrupt, or any schema/shape invariant fails.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FisError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| FisError::Model(format!("reading {}: {e}", path.as_ref().display())))?;
        Self::from_json_str(text.trim_end_matches('\n'))
    }

    /// Checks the fields read from an artifact, in a fixed order that
    /// does not depend on the order of its keys, and rebuilds the graph,
    /// MAC index and VP-tree.
    fn from_fields(fields: ArtifactFields) -> Result<Self, FisError> {
        let model_err = |msg: String| FisError::Model(msg);
        let schema = fields
            .schema
            .as_ref()
            .and_then(Json::as_str)
            .ok_or_else(|| model_err("missing `schema` marker".into()))?;
        if schema != MODEL_SCHEMA {
            return Err(model_err(format!(
                "unknown schema `{schema}` (expected `{MODEL_SCHEMA}`)"
            )));
        }
        let version = fields
            .version
            .as_ref()
            .and_then(Json::as_usize)
            .ok_or_else(|| model_err("missing `version`".into()))?;
        if version != MODEL_SCHEMA_VERSION && version != MODEL_SCHEMA_VERSION_EXTENDED {
            return Err(model_err(format!(
                "unsupported artifact version {version} (this build reads \
                 {MODEL_SCHEMA_VERSION} and {MODEL_SCHEMA_VERSION_EXTENDED})"
            )));
        }
        let building = required(fields.building, "building")?
            .as_str()
            .ok_or_else(|| model_err("`building` must be a string".into()))?
            .to_owned();
        let floors = required(fields.floors, "floors")?
            .as_usize()
            .filter(|&f| f > 0)
            .ok_or_else(|| model_err("`floors` must be a positive integer".into()))?;

        let gnn = required(fields.gnn, "gnn")??;
        let config =
            pipeline_config_from_json(&required(fields.config, "config")?, gnn.config().clone())?;

        let macs = required(fields.macs, "macs")??;
        let samples = required(fields.samples, "samples")??;
        let graph = BipartiteGraph::from_samples(&samples)
            .map_err(|e| model_err(format!("training scans do not rebuild a graph: {e}")))?;
        if graph.macs() != macs.as_slice() {
            return Err(model_err(format!(
                "MAC vocabulary mismatch: artifact lists {} MACs, training scans intern {}",
                macs.len(),
                graph.n_macs()
            )));
        }
        if gnn.features().rows() != graph.n_nodes() {
            return Err(model_err(format!(
                "feature matrix has {} rows, graph has {} nodes",
                gnn.features().rows(),
                graph.n_nodes()
            )));
        }

        let references = required(fields.references, "references")??;
        if references.len() != samples.len() {
            return Err(model_err(format!(
                "{} reference embeddings for {} training scans",
                references.len(),
                samples.len()
            )));
        }
        if references.iter().any(|r| r.len() != gnn.dim()) {
            return Err(model_err(format!(
                "reference dimension disagrees with embedding dim {}",
                gnn.dim()
            )));
        }

        let centroids = required(fields.centroids, "centroids")??;
        if centroids.len() != floors {
            return Err(model_err(format!(
                "floor-count mismatch: artifact declares {floors} floors but carries {} centroids",
                centroids.len()
            )));
        }
        if centroids.iter().any(|c| c.len() != gnn.dim()) {
            return Err(model_err(format!(
                "centroid dimension disagrees with embedding dim {}",
                gnn.dim()
            )));
        }

        let floor_of_cluster = required(fields.floor_of_cluster, "floor_of_cluster")??;
        let cluster_order = required(fields.cluster_order, "cluster_order")??;
        if floor_of_cluster.len() != floors || cluster_order.len() != floors {
            return Err(model_err(format!(
                "floor-count mismatch: {floors} floors vs {} floor assignments / {} path entries",
                floor_of_cluster.len(),
                cluster_order.len()
            )));
        }
        let mut seen = floor_of_cluster.clone();
        seen.sort_unstable();
        if seen != (0..floors).collect::<Vec<_>>() {
            return Err(model_err(
                "`floor_of_cluster` is not a permutation of the floor indices".into(),
            ));
        }
        for (pos, &cluster) in cluster_order.iter().enumerate() {
            if cluster >= floors || floor_of_cluster[cluster] != pos {
                return Err(model_err(
                    "`cluster_order` is not the inverse of `floor_of_cluster`".into(),
                ));
            }
        }

        let assignment = required(fields.assignment, "assignment")??;
        if assignment.len() != samples.len() {
            return Err(model_err(format!(
                "assignment covers {} scans, corpus has {}",
                assignment.len(),
                samples.len()
            )));
        }
        if assignment.iter().any(|&c| c >= floors) {
            return Err(model_err(
                "assignment references a cluster beyond the floor count".into(),
            ));
        }

        let extension = if version == MODEL_SCHEMA_VERSION_EXTENDED {
            let ext = required(fields.extension, "extension")?;
            let efield = |key: &str| model_err(format!("missing extension field `{key}`"));
            let ext_samples = ext.samples.ok_or_else(|| efield("samples"))??;
            if ext_samples.is_empty() {
                return Err(model_err(
                    "version 2 artifact carries an empty extension".into(),
                ));
            }
            let ext_assignment = ext.assignment.ok_or_else(|| efield("assignment"))??;
            if ext_assignment.len() != ext_samples.len() {
                return Err(model_err(format!(
                    "extension assignment covers {} scans, extension has {}",
                    ext_assignment.len(),
                    ext_samples.len()
                )));
            }
            if ext_assignment.iter().any(|&c| c >= floors) {
                return Err(model_err(
                    "extension assignment references a cluster beyond the floor count".into(),
                ));
            }
            let ext_references = ext.references.ok_or_else(|| efield("references"))??;
            Some(build_extended_state(
                &samples,
                &macs,
                &gnn,
                ext_samples,
                ext_assignment,
                Some(ext_references),
            )?)
        } else {
            // Version 1 is extension-free by definition; a stray
            // `extension` field means the artifact was hand-edited or
            // mislabeled, and silently dropping it would change answers.
            if fields.extension.is_some() {
                return Err(model_err(format!(
                    "version {version} artifact must not carry an `extension` field"
                )));
            }
            None
        };

        let mac_index = index_macs(&macs);
        let nn = VpTree::build(&references, |i| !samples[i].is_empty());
        Ok(Self {
            building,
            floors,
            config,
            gnn,
            macs,
            samples,
            references,
            centroids,
            floor_of_cluster,
            cluster_order,
            assignment,
            graph,
            mac_index,
            nn,
            extension,
        })
    }
}

impl ToJson for FittedModel {
    fn to_json(&self) -> Json {
        // Unextended models keep writing version 1 byte-identically; an
        // extension bumps the artifact to version 2 and adds one field.
        let version = if self.extension.is_some() {
            MODEL_SCHEMA_VERSION_EXTENDED
        } else {
            MODEL_SCHEMA_VERSION
        };
        let mut fields = vec![
            ("schema", Json::Str(MODEL_SCHEMA.to_owned())),
            ("version", Json::Num(version as f64)),
            ("building", Json::Str(self.building.clone())),
            ("floors", Json::Num(self.floors as f64)),
            ("config", pipeline_config_to_json(&self.config)),
            ("gnn", self.gnn.to_json()),
            (
                "macs",
                Json::Arr(self.macs.iter().map(|m| m.to_json()).collect()),
            ),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|s| s.to_json()).collect()),
            ),
            ("references", float_rows_to_json(&self.references)),
            ("centroids", float_rows_to_json(&self.centroids)),
            (
                "floor_of_cluster",
                Json::Arr(
                    self.floor_of_cluster
                        .iter()
                        .map(|&f| Json::Num(f as f64))
                        .collect(),
                ),
            ),
            (
                "cluster_order",
                Json::Arr(
                    self.cluster_order
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            (
                "assignment",
                Json::Arr(
                    self.assignment
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
        ];
        if let Some(ext) = &self.extension {
            fields.push((
                "extension",
                Json::obj([
                    (
                        "samples",
                        Json::Arr(ext.samples.iter().map(|s| s.to_json()).collect()),
                    ),
                    (
                        "assignment",
                        Json::Arr(
                            ext.assignment
                                .iter()
                                .map(|&c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                    ("references", float_rows_to_json(&ext.references)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// The error both assign paths return when every training scan is empty
/// (identical messages keep the paths bit-identical on failures too).
fn no_reference_error() -> FisError {
    FisError::Inference("model has no non-empty training scan to compare against".into())
}

/// The MAC → interned index lookup of a vocabulary in interned order.
pub(crate) fn index_macs(macs: &[MacAddr]) -> HashMap<MacAddr, usize> {
    macs.iter().enumerate().map(|(j, &m)| (m, j)).collect()
}

/// Embeds scans through the content-seeded inference pass
/// ([`infer_embedding`]), one scan per work item, so the rows are
/// bit-identical for any thread count. A scan that heard no MAC in
/// `mac_index` gets an all-zero row, which keeps the rows aligned with
/// the scans and which the 1-NN search skips. This is the one way a
/// scan is embedded: for `identify`'s clustering, a fit's references
/// and an extension's references alike.
pub(crate) fn embed_scans(
    gnn: &RfGnn,
    graph: &BipartiteGraph,
    mac_index: &HashMap<MacAddr, usize>,
    scans: &[SignalSample],
) -> Result<Vec<Vec<f64>>, FisError> {
    let mut span = obs::span(Level::Debug, "pipeline", "embed");
    span.num("scans", scans.len() as f64);
    fis_parallel::par_map(scans, 1, |_, scan| {
        infer_embedding(gnn, graph, mac_index, scan).unwrap_or_else(|| Ok(vec![0.0; gnn.dim()]))
    })
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(FisError::Inference)
}

/// Embeds one scan with [`RfGnn::infer_scan`], attached to the MAC nodes
/// of `graph` it heard and seeded from the model seed and its content;
/// `None` when it heard no MAC in `mac_index`.
fn infer_embedding(
    gnn: &RfGnn,
    graph: &BipartiteGraph,
    mac_index: &HashMap<MacAddr, usize>,
    scan: &SignalSample,
) -> Option<Result<Vec<f64>, String>> {
    let nbrs = known_neighbors(graph, mac_index, scan);
    (!nbrs.is_empty()).then(|| gnn.infer_scan(graph, &nbrs, scan_seed(gnn.config().seed, scan)))
}

/// Maps a scan's readings onto the model's MAC nodes with `f(RSS)`
/// weights, dropping MACs outside the vocabulary.
fn known_neighbors(
    graph: &BipartiteGraph,
    mac_index: &HashMap<MacAddr, usize>,
    scan: &SignalSample,
) -> Vec<(usize, f64)> {
    scan.iter()
        .filter_map(|(mac, rssi)| {
            mac_index
                .get(&mac)
                .map(|&j| (graph.mac_node(j), rssi.edge_weight()))
        })
        .collect()
}

/// Derives the per-scan inference seed from the model seed and the scan's
/// readings (FNV-1a over MAC/RSSI bits). Content-only on purpose: the
/// same scan gets the same embedding no matter when, where, or next to
/// which other scans it is served.
fn scan_seed(model_seed: u64, scan: &SignalSample) -> u64 {
    scan.iter().fold(
        fnv1a(FNV_OFFSET, &model_seed.to_le_bytes()),
        |h, (mac, rssi)| {
            let h = fnv1a(h, &mac.to_u64().to_le_bytes());
            fnv1a(h, &rssi.dbm().to_bits().to_le_bytes())
        },
    )
}

fn float_rows_to_json(rows: &[Vec<f64>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| Json::Arr(row.iter().map(|&x| Json::Num(x)).collect()))
            .collect(),
    )
}

/// A problem found while reading an artifact: the message of the
/// [`FisError::Model`] it becomes.
#[derive(Debug)]
struct Invalid(String);

impl From<TypeError> for Invalid {
    fn from(e: TypeError) -> Self {
        Invalid(e.to_string())
    }
}

impl From<Invalid> for FisError {
    fn from(e: Invalid) -> Self {
        FisError::Model(e.0)
    }
}

/// One typed field of an artifact: `None` while its key has not been
/// seen, else the value or the problem reading it, raised only if the
/// field is still wanted once the whole text has parsed.
type Slot<T> = Option<Result<T, Invalid>>;

/// The top-level fields of an artifact, each read straight into its
/// type, in whatever key order the text has. Unknown keys are skipped;
/// a later duplicate key replaces an earlier one, as in a [`Json::Obj`].
/// Small objects (`config`) and scalars stay [`Json`] values.
#[derive(Default)]
struct ArtifactFields {
    schema: Option<Json>,
    version: Option<Json>,
    building: Option<Json>,
    floors: Option<Json>,
    config: Option<Json>,
    gnn: Slot<RfGnn>,
    macs: Slot<Vec<MacAddr>>,
    samples: Slot<Vec<SignalSample>>,
    references: Slot<Vec<Vec<f64>>>,
    centroids: Slot<Vec<Vec<f64>>>,
    floor_of_cluster: Slot<Vec<usize>>,
    cluster_order: Slot<Vec<usize>>,
    assignment: Slot<Vec<usize>>,
    extension: Option<ExtensionFields>,
}

/// The fields of a version-2 artifact's `extension` object.
#[derive(Default)]
struct ExtensionFields {
    samples: Slot<Vec<SignalSample>>,
    assignment: Slot<Vec<usize>>,
    references: Slot<Vec<Vec<f64>>>,
}

impl ArtifactFields {
    /// Walks the artifact text once. The only error is the first syntax
    /// error in the text, the one [`Json::parse`] reports; every other
    /// problem waits in its slot for [`FittedModel::from_fields`].
    fn read(text: &str) -> Result<Self, TypeError> {
        let mut r = Reader::new(text);
        let mut fields = Self::default();
        if r.peek()? == Kind::Obj {
            let mut keys = r.object()?;
            while let Some(key) = r.next_key(&mut keys)? {
                match key.as_ref() {
                    "schema" => fields.schema = Some(r.value()?),
                    "version" => fields.version = Some(r.value()?),
                    "building" => fields.building = Some(r.value()?),
                    "floors" => fields.floors = Some(r.value()?),
                    "config" => fields.config = Some(r.value()?),
                    "gnn" => fields.gnn = Some(r.decode(RfGnn::read)?.map_err(Invalid::from)),
                    "macs" => fields.macs = Some(r.decode(read_macs)?),
                    "samples" => fields.samples = Some(r.decode(|r| read_samples(r, "samples"))?),
                    "references" => {
                        fields.references = Some(r.decode(|r| read_float_rows(r, "references"))?);
                    }
                    "centroids" => {
                        fields.centroids = Some(r.decode(|r| read_float_rows(r, "centroids"))?);
                    }
                    "floor_of_cluster" => {
                        fields.floor_of_cluster =
                            Some(r.decode(|r| read_indices(r, "floor_of_cluster"))?);
                    }
                    "cluster_order" => {
                        fields.cluster_order =
                            Some(r.decode(|r| read_indices(r, "cluster_order"))?);
                    }
                    "assignment" => {
                        fields.assignment = Some(r.decode(|r| read_indices(r, "assignment"))?);
                    }
                    "extension" => fields.extension = Some(ExtensionFields::read(&mut r)?),
                    _ => r.skip()?,
                }
            }
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(fields)
    }
}

impl ExtensionFields {
    /// Reads the `extension` value; one that is not an object holds none
    /// of the fields.
    fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let mut fields = Self::default();
        if r.peek()? != Kind::Obj {
            r.skip()?;
            return Ok(fields);
        }
        let mut keys = r.object()?;
        while let Some(key) = r.next_key(&mut keys)? {
            match key.as_ref() {
                "samples" => {
                    fields.samples = Some(r.decode(|r| read_samples(r, "extension.samples"))?);
                }
                "assignment" => {
                    fields.assignment =
                        Some(r.decode(|r| read_indices(r, "extension.assignment"))?);
                }
                "references" => {
                    fields.references =
                        Some(r.decode(|r| read_float_rows(r, "extension.references"))?);
                }
                _ => r.skip()?,
            }
        }
        Ok(fields)
    }
}

/// A required field: its value, or the `missing field` error.
fn required<T>(field: Option<T>, key: &str) -> Result<T, FisError> {
    field.ok_or_else(|| FisError::Model(format!("missing field `{key}`")))
}

fn read_macs(r: &mut Reader<'_>) -> Result<Vec<MacAddr>, Invalid> {
    r.array_of(
        || Invalid("`macs` must be an array".into()),
        |r| Ok(MacAddr::read(r)?),
    )
}

fn read_samples(r: &mut Reader<'_>, what: &str) -> Result<Vec<SignalSample>, Invalid> {
    r.array_of(
        || Invalid(format!("`{what}` must be an array")),
        |r| Ok(SignalSample::read(r)?),
    )
}

/// The next value if it is a number, else `None` (left unread).
fn read_number(r: &mut Reader<'_>) -> Result<Option<f64>, TypeError> {
    Ok(match r.peek()? {
        Kind::Num => Some(r.num()?),
        _ => None,
    })
}

/// Rows of numbers. Each row starts with room for as many as the row
/// before it held: rows of one array share their width.
fn read_float_rows(r: &mut Reader<'_>, what: &str) -> Result<Vec<Vec<f64>>, Invalid> {
    let mut width = 0;
    r.array_of(
        || Invalid(format!("`{what}` must be an array")),
        |r| {
            if r.peek()? != Kind::Arr {
                return Err(Invalid(format!("`{what}` rows must be arrays")));
            }
            let (mut row, mut items) = (Vec::with_capacity(width), r.array()?);
            while r.next_item(&mut items)? {
                let x = read_number(r)?
                    .ok_or_else(|| Invalid(format!("`{what}` entries must be numbers")))?;
                row.push(x);
            }
            width = row.len();
            Ok(row)
        },
    )
}

fn read_indices(r: &mut Reader<'_>, what: &str) -> Result<Vec<usize>, Invalid> {
    r.array_of(
        || Invalid(format!("`{what}` must be an array")),
        |r| {
            read_number(r)?
                .and_then(|n| Json::Num(n).as_usize())
                .ok_or_else(|| Invalid(format!("`{what}` entries must be non-negative integers")))
        },
    )
}

fn pipeline_config_to_json(config: &FisOneConfig) -> Json {
    let clustering = match config.clustering {
        ClusteringMethod::Hierarchical => "hierarchical",
        ClusteringMethod::KMeans => "kmeans",
    };
    let similarity = match config.similarity {
        SimilarityMethod::AdaptedJaccard => "adapted-jaccard",
        SimilarityMethod::PlainJaccard => "plain-jaccard",
    };
    let solver = match config.solver {
        TspSolver::Exact => "exact",
        TspSolver::TwoOpt => "two-opt",
    };
    Json::obj([
        ("clustering", Json::Str(clustering.to_owned())),
        ("similarity", Json::Str(similarity.to_owned())),
        ("solver", Json::Str(solver.to_owned())),
    ])
}

/// The GNN config travels inside the `gnn` object (single source of
/// truth); this reassembles the pipeline-level knobs around it.
fn pipeline_config_from_json(
    value: &Json,
    gnn: fis_gnn::RfGnnConfig,
) -> Result<FisOneConfig, FisError> {
    let pick = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| FisError::Model(format!("config `{key}` must be a string")))
    };
    let clustering = match pick("clustering")? {
        "hierarchical" => ClusteringMethod::Hierarchical,
        "kmeans" => ClusteringMethod::KMeans,
        other => {
            return Err(FisError::Model(format!(
                "unknown clustering method `{other}`"
            )))
        }
    };
    let similarity = match pick("similarity")? {
        "adapted-jaccard" => SimilarityMethod::AdaptedJaccard,
        "plain-jaccard" => SimilarityMethod::PlainJaccard,
        other => {
            return Err(FisError::Model(format!(
                "unknown similarity method `{other}`"
            )))
        }
    };
    let solver = match pick("solver")? {
        "exact" => TspSolver::Exact,
        "two-opt" => TspSolver::TwoOpt,
        other => return Err(FisError::Model(format!("unknown tsp solver `{other}`"))),
    };
    Ok(FisOneConfig {
        gnn,
        clustering,
        similarity,
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_synth::BuildingConfig;
    use fis_types::Building;

    fn fitted(seed: u64) -> (Building, FittedModel) {
        let b = BuildingConfig::new("fit-test", 3)
            .samples_per_floor(20)
            .aps_per_floor(8)
            .atrium_aps(0)
            .seed(100 + seed)
            .generate();
        let anchor = b.bottom_anchor().unwrap();
        let model = FisOne::new(FisOneConfig::default().seed(seed))
            .fit(b.name(), b.samples(), b.floors(), anchor)
            .unwrap();
        (b, model)
    }

    #[test]
    fn fit_matches_identify_labels() {
        let (b, model) = fitted(1);
        let fis = FisOne::new(model.config().clone());
        let pred = fis
            .identify(b.samples(), b.floors(), b.bottom_anchor().unwrap())
            .unwrap();
        assert_eq!(model.training_labels(), pred.labels());
        assert_eq!(model.assignment(), pred.assignment());
        assert_eq!(model.floor_of_cluster(), pred.floor_of_cluster());
        // One embedding per scan: identify clusters the very rows the
        // fit stores as its 1-NN references.
        let embeddings = fis.embed(b.samples()).unwrap();
        assert_eq!(embeddings.rows(), model.references().len());
        for (i, reference) in model.references().iter().enumerate() {
            assert_eq!(embeddings.row(i), reference.as_slice(), "scan {i}");
        }
    }

    #[test]
    fn assign_reproduces_training_labels_on_training_scans() {
        let (b, model) = fitted(2);
        let labels = model.training_labels();
        for (scan, &expected) in b.samples().iter().zip(labels.iter()) {
            assert_eq!(model.assign(scan).unwrap(), expected, "scan {}", scan.id());
        }
    }

    #[test]
    fn assign_matches_linear_reference_on_training_scans() {
        let (b, model) = fitted(7);
        for scan in b.samples() {
            assert_eq!(
                model.assign(scan).unwrap(),
                model.assign_linear(scan).unwrap(),
                "index and linear scan disagree on scan {}",
                scan.id()
            );
        }
    }

    #[test]
    fn assign_stream_is_thread_invariant_and_ordered() {
        let (b, model) = fitted(3);
        let one = model.assign_stream(b.samples(), 1);
        let four = model.assign_stream(b.samples(), 4);
        assert_eq!(one.len(), b.len());
        for (a, b) in one.iter().zip(four.iter()) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn assign_stream_matches_per_scan_assign_across_the_fan_out_boundary() {
        let (b, model) = fitted(6);
        let scans: Vec<SignalSample> = b.samples().iter().cycle().take(200).cloned().collect();
        let expected: Vec<FloorId> = scans.iter().map(|s| model.assign(s).unwrap()).collect();
        // Every worker-count boundary from 1 to 4 workers, plus the
        // 8-scan frame and a batch that splits at every budget.
        let m = MIN_SCANS_PER_WORKER;
        let mut sizes = vec![1, 8, 31, 32, 33, 63, 64, 65, 200];
        for workers in 2..=4 {
            sizes.extend([workers * m - 1, workers * m, workers * m + 1]);
        }
        for n in sizes {
            for threads in [1, 2, 4] {
                let got: Vec<FloorId> = model
                    .assign_stream(&scans[..n], threads)
                    .into_iter()
                    .map(Result::unwrap)
                    .collect();
                assert_eq!(got, expected[..n], "{n} scans at {threads} threads");
            }
        }
    }

    #[test]
    fn explicit_budgets_do_not_serialize_concurrent_callers() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (b, model) = fitted(5);
        let (b, model) = (&b, &model);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            // Holds an explicit-budget region open until released.
            s.spawn(move || {
                fis_parallel::with_thread_budget(2, || {
                    model.assign_stream(&b.samples()[..4], 2);
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            });
            entered_rx.recv().unwrap();
            s.spawn(move || done_tx.send(model.assign_stream(b.samples(), 1)).unwrap());
            let answered = done_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            let answers = answered.expect("assign_stream waited on another caller's budget");
            assert_eq!(answers.len(), b.len());
        });
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let (_, model) = fitted(4);
        let first = model.to_json_string();
        let loaded = FittedModel::from_json_str(&first).unwrap();
        assert_eq!(loaded.to_json_string(), first);
        assert_eq!(loaded.building(), model.building());
        assert_eq!(loaded.floors(), model.floors());
    }

    #[test]
    fn loaded_model_assigns_identically() {
        let (b, model) = fitted(5);
        let loaded = FittedModel::from_json_str(&model.to_json_string()).unwrap();
        for scan in b.samples().iter().take(10) {
            assert_eq!(model.assign(scan).unwrap(), loaded.assign(scan).unwrap());
        }
    }

    #[test]
    fn unknown_macs_only_scan_is_typed_error() {
        let (_, model) = fitted(6);
        let alien = SignalSample::builder(0)
            .reading(
                MacAddr::from_u64(0xFFFF_FFFF_FF01),
                fis_types::Rssi::new(-50.0).unwrap(),
            )
            .build();
        assert!(matches!(
            model.assign(&alien).unwrap_err(),
            FisError::Inference(_)
        ));
        let empty = SignalSample::builder(1).build();
        assert!(matches!(
            model.assign(&empty).unwrap_err(),
            FisError::Inference(_)
        ));
    }

    /// Clones the first `n` training scans and adds one fresh (never
    /// surveyed) AP reading to each — the minimal churn-shaped input.
    fn churned_scans(b: &Building, n: usize) -> Vec<SignalSample> {
        b.samples()
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, s)| {
                let mut readings: Vec<_> = s.iter().collect();
                readings.push((
                    MacAddr::from_u64(0xAB_0000 + i as u64),
                    fis_types::Rssi::new(-45.0).unwrap(),
                ));
                SignalSample::builder(i as u32).readings(readings).build()
            })
            .collect()
    }

    #[test]
    fn extend_preserves_old_vocab_answers_bit_identically() {
        let (b, mut model) = fitted(11);
        let before: Vec<FloorId> = b
            .samples()
            .iter()
            .map(|s| model.assign(s).unwrap())
            .collect();
        let report = model.extend(&churned_scans(&b, 6)).unwrap();
        assert_eq!(report.appended, 6);
        assert_eq!(report.new_macs, 6);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.total_scans, b.len() + 6);
        assert!(model.is_extended());
        let after: Vec<FloorId> = b
            .samples()
            .iter()
            .map(|s| model.assign(s).unwrap())
            .collect();
        assert_eq!(before, after, "old-vocabulary answers must not move");
    }

    #[test]
    fn extended_model_answers_new_mac_scans_and_round_trips() {
        let (b, mut model) = fitted(12);
        let ext = churned_scans(&b, 4);
        model.extend(&ext).unwrap();
        // A scan heard only through a brand-new AP is now answerable.
        let new_only = SignalSample::builder(9)
            .reading(
                MacAddr::from_u64(0xAB_0000),
                fis_types::Rssi::new(-50.0).unwrap(),
            )
            .build();
        let floor = model.assign(&new_only).unwrap();
        assert!(floor.index() < model.floors());
        assert_eq!(model.assign(&new_only).unwrap(), floor);
        // Extended artifacts stay byte-identical across save→load→save.
        let first = model.to_json_string();
        let loaded = FittedModel::from_json_str(&first).unwrap();
        assert!(loaded.is_extended());
        assert_eq!(loaded.to_json_string(), first);
        assert_eq!(loaded.assign(&new_only).unwrap(), floor);
        for scan in b.samples().iter().take(10) {
            assert_eq!(model.assign(scan).unwrap(), loaded.assign(scan).unwrap());
        }
    }

    #[test]
    fn repeated_extension_composes_and_keeps_old_answers() {
        let (b, mut model) = fitted(13);
        let before: Vec<FloorId> = b
            .samples()
            .iter()
            .map(|s| model.assign(s).unwrap())
            .collect();
        let ext = churned_scans(&b, 8);
        model.extend(&ext[..4]).unwrap();
        let mid = model.assign(&ext[0]).unwrap();
        let report = model.extend(&ext[4..]).unwrap();
        assert_eq!(report.appended, 4);
        assert_eq!(model.extension_len(), 8);
        // The first extension's scans still answer the same after the
        // second extension (their MACs stay in the extended vocabulary).
        assert_eq!(model.assign(&ext[0]).unwrap(), mid);
        let after: Vec<FloorId> = b
            .samples()
            .iter()
            .map(|s| model.assign(s).unwrap())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn extend_rejects_degenerate_inputs_with_typed_errors() {
        let (_, mut model) = fitted(14);
        // Empty batch.
        assert!(matches!(model.extend(&[]).unwrap_err(), FisError::Model(_)));
        // A scan that heard nothing.
        let empty = SignalSample::builder(0).build();
        assert!(matches!(
            model.extend(&[empty]).unwrap_err(),
            FisError::Model(_)
        ));
        // Scans sharing no MAC with the base vocabulary.
        let alien = SignalSample::builder(1)
            .reading(
                MacAddr::from_u64(0xFFFF_FFFF_FF02),
                fis_types::Rssi::new(-40.0).unwrap(),
            )
            .build();
        let err = model.extend(std::slice::from_ref(&alien)).unwrap_err();
        assert!(matches!(err, FisError::Model(_)), "{err}");
        assert!(!model.is_extended(), "failed extends must not mutate");
        // Mixed batch: the alien scan is skipped, not fatal.
        let (b2, mut model2) = fitted(14);
        let mut batch = churned_scans(&b2, 2);
        batch.push(alien);
        let report = model2.extend(&batch).unwrap();
        assert_eq!(report.appended, 2);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn middle_anchor_rejected_by_fit() {
        let b = BuildingConfig::new("mid", 3)
            .samples_per_floor(15)
            .aps_per_floor(6)
            .atrium_aps(0)
            .seed(9)
            .generate();
        let anchor = b.anchor_on(FloorId::from_index(1)).unwrap();
        let err = FisOne::default()
            .fit(b.name(), b.samples(), b.floors(), anchor)
            .unwrap_err();
        assert!(matches!(err, FisError::Anchor(_)));
    }
}
