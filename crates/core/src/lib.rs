//! FIS-ONE: floor identification with one labeled sample.
//!
//! This crate assembles the full pipeline of the paper (Figure 2):
//!
//! 1. **Graph construction** — crowdsourced samples become a weighted
//!    bipartite graph (`fis-graph`).
//! 2. **RF-GNN** — attention-based representation learning (`fis-gnn`).
//! 3. **Signal clustering** — average-linkage hierarchical clustering of
//!    the sample embeddings into as many clusters as floors
//!    (`fis-cluster`, §IV-A).
//! 4. **Cluster indexing** — the signal-spillover similarity between
//!    clusters ([`similarity`], §IV-B eqs. 1–3) feeds a shortest
//!    Hamiltonian path problem ([`indexing`], Theorem 1) anchored at the
//!    cluster holding the single labeled sample.
//!
//! The §VI extension for an anchor on an arbitrary floor lives in
//! [`extension`] — alongside the *online* extension machinery behind
//! [`model::FittedModel::extend`] — and [`evaluate`] scores predictions
//! with ARI / NMI / Jaro–Winkler edit distance against ground truth.
//!
//! # Batch execution
//!
//! [`engine::FisEngine`] runs the pipeline over a whole corpus with
//! buildings dispatched concurrently across a configurable thread budget
//! (`FIS_THREADS`, [`fis_parallel::set_thread_budget`], or
//! [`engine::EngineConfig::threads`]). The workspace-wide determinism
//! contract applies: the tape is `Send + Sync`, every parallel kernel
//! partitions independent outputs without reassociating floating-point
//! reductions, and every building owns its seeded RNG — so a fixed seed
//! yields bit-identical predictions for 1 or N threads.
//!
//! # Serving
//!
//! [`model::FittedModel`] is the fit-once / serve-forever artifact:
//! [`FisOne::fit`] (or [`engine::FisEngine::fit_corpus`]) captures the
//! trained encoder, MAC vocabulary, centroids, and floor ordering into a
//! single JSON document, and [`model::FittedModel::assign`] labels new
//! scans without refitting.
//!
//! # Example
//!
//! ```no_run
//! use fis_core::{FisOne, FisOneConfig};
//! # fn building() -> fis_types::Building { unimplemented!() }
//!
//! let building = building();
//! let anchor = building.bottom_anchor().expect("bottom floor sampled");
//! let prediction = FisOne::new(FisOneConfig::default())
//!     .identify(building.samples(), building.floors(), anchor)?;
//! println!("first sample is on {}", prediction.labels()[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod error;
pub mod evaluate;
pub mod extension;
pub mod indexing;
pub mod model;
pub mod nn;
pub mod pipeline;
pub mod similarity;

pub use engine::{
    BuildingFit, BuildingOutcome, BuildingRun, CorpusFit, CorpusRun, EngineConfig, FisEngine,
};
pub use error::FisError;
pub use evaluate::{evaluate_building, EvalResult};
pub use extension::{identify_with_arbitrary_anchor, ArbitraryAnchorOutcome, ExtensionReport};
pub use indexing::{index_clusters, ClusterIndexing, TspSolver};
pub use model::{
    FittedModel, MIN_SCANS_PER_WORKER, MODEL_SCHEMA, MODEL_SCHEMA_VERSION,
    MODEL_SCHEMA_VERSION_EXTENDED,
};
pub use nn::VpTree;
pub use pipeline::{ClusteringMethod, FisOne, FisOneConfig, FloorPrediction};
pub use similarity::{ClusterMacProfile, SimilarityMethod};
