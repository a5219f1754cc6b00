//! RF-GNN: attention-based graph neural network for crowdsourced RF signals.
//!
//! Implements §III-B of the FIS-ONE paper:
//!
//! - **Neighbor sampling** proportional to `f(RSS)` — the RSS values act as
//!   attention over edges, so strong readings dominate both the sampled
//!   neighborhood and the aggregation.
//! - **Weighted aggregation** `AGGREGATE_w = Σ_u f(RSS_uv)/Σ f(RSS_u'v) · r_u`
//!   followed by `r_i^k = σ(W_k · CONCAT(r_i^{k-1}, r^k_{N'(i)}))` and per-hop
//!   ℓ2 normalization, for `K` hops.
//! - **Unsupervised training** on length-5 random-walk co-occurrence pairs
//!   with the negative-sampling loss
//!   `L_G = −log σ(r_i·r_j) − τ·E_{z∼Pr(z)} log σ(−r_i·r_z)`,
//!   `τ = 4`, `Pr(z) ∝ d_z^{3/4}`.
//!
//! The no-attention ablation of Figure 8(a,b) (uniform sampling + mean
//! aggregation) is selected with [`RfGnnConfig::attention`].
//!
//! # Example
//!
//! ```no_run
//! use fis_gnn::{RfGnn, RfGnnConfig};
//! use fis_graph::BipartiteGraph;
//! # fn samples() -> Vec<fis_types::SignalSample> { vec![] }
//!
//! let graph = BipartiteGraph::from_samples(&samples())?;
//! let config = RfGnnConfig::new(16).seed(42);
//! let model = RfGnn::train(&graph, &config)?;
//! // Embed a scan by the MAC nodes it heard, with their f(RSS) weights:
//! // the one embedding the pipeline clusters and serving looks up.
//! let heard = [(graph.mac_node(0), 60.0), (graph.mac_node(1), 35.0)];
//! let embedding = model.infer_scan(&graph, &heard, 7)?; // seed 7
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod infer;
pub mod model;
pub mod persist;
pub mod train;

pub use config::RfGnnConfig;
pub use model::RfGnn;
pub use persist::{matrix_to_json, read_matrix};
pub use train::{TrainReport, STEPS_PER_EPOCH};
