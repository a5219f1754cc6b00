//! The end-to-end FIS-ONE pipeline (Figure 2).

use fis_cluster::{average_linkage, kmeans, KMeansConfig};
use fis_gnn::{RfGnn, RfGnnConfig};
use fis_graph::BipartiteGraph;
use fis_linalg::Matrix;
use fis_obs::{self as obs, Level};
use fis_types::{FloorId, LabeledAnchor, SignalSample};

use crate::error::FisError;
use crate::indexing::{index_clusters, TspSolver};
use crate::model::{embed_scans, index_macs};
use crate::similarity::{similarity_matrix, ClusterMacProfile, SimilarityMethod};

/// Which clustering algorithm groups the embeddings (Figure 8(c,d)
/// ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusteringMethod {
    /// Average-linkage agglomerative clustering (the paper's choice).
    #[default]
    Hierarchical,
    /// K-means with k-means++ initialization.
    KMeans,
}

/// Configuration of the full pipeline.
///
/// The default reproduces the paper's headline system: RF-GNN with
/// attention, hierarchical clustering, adapted Jaccard similarity, exact
/// Held–Karp indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct FisOneConfig {
    /// RF-GNN hyperparameters.
    pub gnn: RfGnnConfig,
    /// Clustering algorithm.
    pub clustering: ClusteringMethod,
    /// Cluster-similarity measure.
    pub similarity: SimilarityMethod,
    /// Hamiltonian-path solver.
    pub solver: TspSolver,
}

impl Default for FisOneConfig {
    fn default() -> Self {
        Self {
            gnn: RfGnnConfig::new(16),
            clustering: ClusteringMethod::Hierarchical,
            similarity: SimilarityMethod::AdaptedJaccard,
            solver: TspSolver::Exact,
        }
    }
}

impl FisOneConfig {
    /// Sets the RNG seed on the embedded GNN config.
    pub fn seed(mut self, seed: u64) -> Self {
        self.gnn.seed = seed;
        self
    }
}

/// The floor identification system with one label.
///
/// See the crate docs for the pipeline stages; [`FisOne::identify`] runs
/// all of them.
#[derive(Debug, Clone, Default)]
pub struct FisOne {
    config: FisOneConfig,
}

/// Output of [`FisOne::identify`]: a floor label for every input sample
/// plus the intermediate clustering/indexing artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorPrediction {
    labels: Vec<FloorId>,
    assignment: Vec<usize>,
    order: Vec<usize>,
    floor_of_cluster: Vec<usize>,
}

impl FloorPrediction {
    pub(crate) fn new(
        assignment: Vec<usize>,
        order: Vec<usize>,
        floor_of_cluster: Vec<usize>,
    ) -> Self {
        let labels = assignment
            .iter()
            .map(|&c| FloorId::from_index(floor_of_cluster[c]))
            .collect();
        Self {
            labels,
            assignment,
            order,
            floor_of_cluster,
        }
    }

    /// Predicted floor for every sample, in sample-id order.
    pub fn labels(&self) -> &[FloorId] {
        &self.labels
    }

    /// Cluster id assigned to every sample.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Clusters in visiting order along the optimal path (bottom floor
    /// first).
    pub fn cluster_order(&self) -> &[usize] {
        &self.order
    }

    /// Zero-based floor index assigned to each cluster.
    pub fn floor_of_cluster(&self) -> &[usize] {
        &self.floor_of_cluster
    }
}

impl FisOne {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: FisOneConfig) -> Self {
        Self { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &FisOneConfig {
        &self.config
    }

    /// Runs the full pipeline: graph → RF-GNN → clustering → indexing.
    ///
    /// `anchor` must label a sample on the **bottom or top floor** (the
    /// paper's core setting); use
    /// [`crate::extension::identify_with_arbitrary_anchor`] for anchors on
    /// other floors.
    ///
    /// # Errors
    ///
    /// Returns a [`FisError`] if any stage fails or the anchor is
    /// inconsistent with the inputs.
    pub fn identify(
        &self,
        samples: &[SignalSample],
        floors: usize,
        anchor: LabeledAnchor,
    ) -> Result<FloorPrediction, FisError> {
        let mut span = obs::span(Level::Info, "pipeline", "identify");
        span.num("samples", samples.len() as f64)
            .num("floors", floors as f64);
        self.validate_anchor(samples, floors, anchor)?;
        self.validate_endpoint_anchor(floors, anchor)?;
        let (assignment, _embeddings) = self.cluster_samples(samples, floors)?;
        self.index_assignment(samples, &assignment, floors, anchor)
    }

    /// Pipeline stages 1–3: builds the graph, trains RF-GNN, embeds the
    /// samples, and clusters the embeddings into `floors` clusters.
    ///
    /// Exposed separately so experiments can reuse embeddings across
    /// ablations.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Graph`], [`FisError::Training`], or
    /// [`FisError::Clustering`].
    pub fn cluster_samples(
        &self,
        samples: &[SignalSample],
        floors: usize,
    ) -> Result<(Vec<usize>, Matrix), FisError> {
        let embeddings = self.embed(samples)?;
        let assignment = self.cluster_embeddings(&embeddings, floors)?;
        Ok((assignment, embeddings))
    }

    /// Stages 1–2 only: graph construction, RF-GNN training, and one
    /// embedding row per sample. Each row is the embedding
    /// [`crate::FittedModel::assign`] would give that scan: the
    /// content-seeded [`RfGnn::infer_scan`] pass; an empty scan gets an
    /// all-zero row.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Graph`], [`FisError::Training`] or
    /// [`FisError::Inference`].
    pub fn embed(&self, samples: &[SignalSample]) -> Result<Matrix, FisError> {
        let (graph, gnn) = self.train_model(samples)?;
        let rows = embed_scans(&gnn, &graph, &index_macs(graph.macs()), samples)?;
        Ok(Matrix::from_vec(samples.len(), gnn.dim(), rows.concat()))
    }

    /// Builds the bipartite graph and trains the RF-GNN, returning both so
    /// callers (e.g. [`FisOne::fit`]) can keep the trained encoder instead
    /// of only its embeddings.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Graph`] or [`FisError::Training`].
    pub fn train_model(
        &self,
        samples: &[SignalSample],
    ) -> Result<(BipartiteGraph, RfGnn), FisError> {
        let graph = {
            let mut span = obs::span(Level::Debug, "pipeline", "graph_build");
            span.num("samples", samples.len() as f64);
            let graph = BipartiteGraph::from_samples(samples)
                .map_err(|e| FisError::Graph(e.to_string()))?;
            span.num("macs", graph.macs().len() as f64);
            graph
        };
        let model = {
            let mut span = obs::span(Level::Debug, "pipeline", "gnn_train");
            span.num("epochs", self.config.gnn.epochs as f64);
            RfGnn::train(&graph, &self.config.gnn).map_err(FisError::Training)?
        };
        Ok((graph, model))
    }

    /// Stage 3 only: clusters embedding rows into `k` clusters with the
    /// configured algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Clustering`] if the clusterer fails or produces
    /// fewer than `k` non-empty clusters.
    pub fn cluster_embeddings(
        &self,
        embeddings: &Matrix,
        k: usize,
    ) -> Result<Vec<usize>, FisError> {
        let mut span = obs::span(Level::Debug, "pipeline", "cluster");
        span.num("rows", embeddings.rows() as f64)
            .num("k", k as f64);
        let points: Vec<Vec<f64>> = (0..embeddings.rows())
            .map(|r| embeddings.row(r).to_vec())
            .collect();
        let assignment = match self.config.clustering {
            ClusteringMethod::Hierarchical => {
                average_linkage(&points, k).map_err(FisError::Clustering)?
            }
            ClusteringMethod::KMeans => {
                kmeans(&points, &KMeansConfig::new(k).seed(self.config.gnn.seed))
                    .map_err(FisError::Clustering)?
            }
        };
        // Count distinct non-empty clusters: `max + 1` would accept
        // assignments with empty *middle* clusters (e.g. labels {0, 2}
        // for k = 3), which the indexing stage cannot handle.
        let mut seen = assignment.clone();
        seen.sort_unstable();
        seen.dedup();
        let found = seen.len();
        if found != k || seen.last() != Some(&(k - 1)) {
            return Err(FisError::Clustering(format!(
                "clustering produced {found} non-empty clusters \
                 (labels 0..={}), expected exactly {k}",
                seen.last().copied().unwrap_or(0)
            )));
        }
        Ok(assignment)
    }

    /// Stage 4: indexes an existing cluster assignment with floor numbers
    /// using spillover similarity and the TSP reduction.
    ///
    /// This is also the adapter the paper applies to the baseline
    /// algorithms ("once we have the clusters generated by the baselines,
    /// we use our cluster indexing method", §V-A).
    ///
    /// # Errors
    ///
    /// Returns [`FisError::Anchor`] or [`FisError::Indexing`].
    pub fn index_assignment(
        &self,
        samples: &[SignalSample],
        assignment: &[usize],
        floors: usize,
        anchor: LabeledAnchor,
    ) -> Result<FloorPrediction, FisError> {
        let mut span = obs::span(Level::Debug, "pipeline", "floor_order");
        span.num("floors", floors as f64);
        self.validate_anchor(samples, floors, anchor)?;
        if assignment.len() != samples.len() {
            return Err(FisError::Indexing(format!(
                "assignment length {} != sample count {}",
                assignment.len(),
                samples.len()
            )));
        }
        let profiles = ClusterMacProfile::from_assignment(samples, assignment, floors);
        let sim = similarity_matrix(self.config.similarity, &profiles);
        let start = assignment[anchor.sample.index()];
        let indexing = index_clusters(&sim, start, self.config.solver)?;

        // Orient: the anchor cluster sits at path position 0. A bottom
        // anchor reads positions bottom-up; a top anchor reads them
        // top-down.
        let floor_of_cluster: Vec<usize> = if anchor.floor == FloorId::BOTTOM {
            indexing.floor_of_cluster.clone()
        } else if anchor.floor.index() == floors - 1 {
            indexing
                .floor_of_cluster
                .iter()
                .map(|&p| floors - 1 - p)
                .collect()
        } else {
            return Err(FisError::Anchor(format!(
                "index_assignment requires a bottom or top anchor, got {}",
                anchor.floor
            )));
        };
        Ok(FloorPrediction::new(
            assignment.to_vec(),
            indexing.order,
            floor_of_cluster,
        ))
    }

    /// Rejects anchors that are neither on the bottom nor the top floor —
    /// the gate shared by [`FisOne::identify`] and [`FisOne::fit`], so
    /// both report the identical error.
    pub(crate) fn validate_endpoint_anchor(
        &self,
        floors: usize,
        anchor: LabeledAnchor,
    ) -> Result<(), FisError> {
        if anchor.floor != FloorId::BOTTOM && anchor.floor.index() != floors - 1 {
            return Err(FisError::Anchor(format!(
                "anchor on {} is neither bottom nor top of {floors} floors; \
                 use identify_with_arbitrary_anchor",
                anchor.floor
            )));
        }
        Ok(())
    }

    pub(crate) fn validate_anchor(
        &self,
        samples: &[SignalSample],
        floors: usize,
        anchor: LabeledAnchor,
    ) -> Result<(), FisError> {
        if floors == 0 {
            return Err(FisError::Anchor("building has zero floors".to_owned()));
        }
        if samples.len() < floors {
            return Err(FisError::Clustering(format!(
                "{} samples cannot form {floors} clusters",
                samples.len()
            )));
        }
        if anchor.sample.index() >= samples.len() {
            return Err(FisError::Anchor(format!(
                "anchor sample {} out of bounds ({} samples)",
                anchor.sample,
                samples.len()
            )));
        }
        if anchor.floor.index() >= floors {
            return Err(FisError::Anchor(format!(
                "anchor floor {} exceeds {floors} floors",
                anchor.floor
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_synth::BuildingConfig;
    use fis_types::SampleId;

    fn pipeline(seed: u64) -> FisOne {
        FisOne::new(FisOneConfig::default().seed(seed))
    }

    fn easy_building(floors: usize, seed: u64) -> fis_types::Building {
        BuildingConfig::new("test", floors)
            .samples_per_floor(40)
            .aps_per_floor(10)
            .atrium_aps(0)
            .seed(seed)
            .generate()
    }

    #[test]
    fn identify_recovers_floors_on_easy_building() {
        let b = easy_building(3, 11);
        let anchor = b.bottom_anchor().unwrap();
        let pred = pipeline(1)
            .identify(b.samples(), b.floors(), anchor)
            .unwrap();
        // Accuracy should be far above chance (1/3).
        let correct = pred
            .labels()
            .iter()
            .zip(b.ground_truth())
            .filter(|(p, t)| p == t)
            .count();
        let acc = correct as f64 / b.len() as f64;
        assert!(acc > 0.7, "accuracy {acc}");
        // The anchor itself must be on the bottom floor.
        assert_eq!(pred.labels()[anchor.sample.index()], FloorId::BOTTOM);
    }

    #[test]
    fn top_anchor_reverses_orientation() {
        let b = easy_building(3, 12);
        let top = FloorId::from_index(2);
        let anchor = b.anchor_on(top).unwrap();
        let pred = pipeline(2)
            .identify(b.samples(), b.floors(), anchor)
            .unwrap();
        assert_eq!(pred.labels()[anchor.sample.index()], top);
    }

    #[test]
    fn middle_anchor_rejected_by_core_identify() {
        let b = easy_building(3, 13);
        let anchor = b.anchor_on(FloorId::from_index(1)).unwrap();
        let err = pipeline(3)
            .identify(b.samples(), b.floors(), anchor)
            .unwrap_err();
        assert!(matches!(err, FisError::Anchor(_)));
    }

    #[test]
    fn anchor_out_of_bounds_rejected() {
        let b = easy_building(3, 14);
        let bogus = LabeledAnchor {
            sample: SampleId(99_999),
            floor: FloorId::BOTTOM,
        };
        let err = pipeline(4)
            .identify(b.samples(), b.floors(), bogus)
            .unwrap_err();
        assert!(matches!(err, FisError::Anchor(_)));
    }

    #[test]
    fn too_few_samples_rejected() {
        let b = easy_building(3, 15);
        let anchor = b.bottom_anchor().unwrap();
        let err = pipeline(5)
            .identify(&b.samples()[..2], 3, anchor)
            .unwrap_err();
        assert!(matches!(err, FisError::Clustering(_)));
    }

    #[test]
    fn index_assignment_with_oracle_clusters_is_near_perfect() {
        // Bypass learning: give the indexer the ground-truth clustering and
        // check that spillover alone orders the floors.
        let b = easy_building(5, 16);
        let truth: Vec<usize> = b.ground_truth().iter().map(|f| f.index()).collect();
        let anchor = b.bottom_anchor().unwrap();
        let pred = pipeline(6)
            .index_assignment(b.samples(), &truth, b.floors(), anchor)
            .unwrap();
        // With oracle clusters the ordering must be exactly 0..floors.
        assert_eq!(pred.floor_of_cluster(), &[0, 1, 2, 3, 4]);
        assert_eq!(
            pred.labels(),
            b.ground_truth(),
            "oracle clustering + spillover indexing must recover all labels"
        );
    }

    #[test]
    fn kmeans_variant_runs() {
        let b = easy_building(3, 17);
        let anchor = b.bottom_anchor().unwrap();
        let mut fis = pipeline(7);
        fis.config.clustering = ClusteringMethod::KMeans;
        let pred = fis.identify(b.samples(), b.floors(), anchor).unwrap();
        assert_eq!(pred.labels().len(), b.len());
    }

    #[test]
    fn plain_jaccard_and_two_opt_variants_run() {
        let b = easy_building(3, 18);
        let anchor = b.bottom_anchor().unwrap();
        let mut fis = pipeline(8);
        fis.config.similarity = SimilarityMethod::PlainJaccard;
        fis.config.solver = TspSolver::TwoOpt;
        let pred = fis.identify(b.samples(), b.floors(), anchor).unwrap();
        assert_eq!(pred.labels().len(), b.len());
    }

    #[test]
    fn prediction_accessors_consistent() {
        let b = easy_building(3, 19);
        let anchor = b.bottom_anchor().unwrap();
        let pred = pipeline(9)
            .identify(b.samples(), b.floors(), anchor)
            .unwrap();
        // order and floor_of_cluster are inverse permutations.
        for (pos, &cluster) in pred.cluster_order().iter().enumerate() {
            assert_eq!(pred.floor_of_cluster()[cluster], pos);
        }
        // labels follow assignment through floor_of_cluster.
        for (i, &c) in pred.assignment().iter().enumerate() {
            assert_eq!(
                pred.labels()[i],
                FloorId::from_index(pred.floor_of_cluster()[c])
            );
        }
    }
}
