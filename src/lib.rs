//! # FIS-ONE: floor identification with one labeled RF sample
//!
//! A from-scratch Rust reproduction of *FIS-ONE: Floor Identification
//! System with One Label for Crowdsourced RF Signals* (Zhuo et al.,
//! ICDCS 2023). Given a building's worth of crowdsourced WiFi scans and a
//! **single** floor-labeled scan on the bottom floor, FIS-ONE assigns a
//! floor to every scan by:
//!
//! 1. modeling the scans as a weighted bipartite MAC×sample graph,
//! 2. learning sample embeddings with an attention-based GNN ([`gnn`]),
//! 3. clustering the embeddings hierarchically into one cluster per floor,
//! 4. ordering the clusters by solving a travelling-salesman reduction
//!    over a signal-spillover similarity ([`core`]).
//!
//! This facade crate re-exports the whole workspace. Start with
//! [`FisOne::identify`], or see `examples/quickstart.rs`.
//!
//! # Example
//!
//! ```
//! use fis_one::{BuildingConfig, FisOne, FisOneConfig};
//!
//! // Synthesize a small 3-floor building (stand-in for crowdsourced data).
//! let building = BuildingConfig::new("demo", 3)
//!     .samples_per_floor(30)
//!     .seed(7)
//!     .generate();
//! let anchor = building.bottom_anchor().expect("bottom floor was surveyed");
//!
//! // One labeled sample in, floor labels for every sample out.
//! let prediction = FisOne::new(FisOneConfig::default().seed(7))
//!     .identify(building.samples(), building.floors(), anchor)?;
//! assert_eq!(prediction.labels().len(), building.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fis_autograd as autograd;
pub use fis_baselines as baselines;
pub use fis_cluster as cluster;
pub use fis_core as core;
pub use fis_gnn as gnn;
pub use fis_graph as graph;
pub use fis_linalg as linalg;
pub use fis_metrics as metrics;
pub use fis_obs as obs;
pub use fis_serve as serve;
pub use fis_synth as synth;
pub use fis_tsp as tsp;
pub use fis_types as types;

pub use fis_core::{
    evaluate_building, identify_with_arbitrary_anchor, ArbitraryAnchorOutcome, ClusteringMethod,
    EvalResult, FisError, FisOne, FisOneConfig, FittedModel, FloorPrediction, SimilarityMethod,
    TspSolver,
};
pub use fis_gnn::{RfGnn, RfGnnConfig};
pub use fis_graph::BipartiteGraph;
pub use fis_serve::{Daemon, DaemonConfig, ModelRegistry, RegistryConfig, ServeError};
pub use fis_synth::{BuildingConfig, Scale};
pub use fis_types::{Building, Dataset, FloorId, LabeledAnchor, MacAddr, Rssi, SignalSample};
