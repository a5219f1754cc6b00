//! Clustering and indexing quality metrics.
//!
//! Implements the three evaluation metrics of §V-A:
//!
//! - [`adjusted_rand_index`]: pairwise agreement between predicted and
//!   ground-truth clusterings, chance-corrected.
//! - [`normalized_mutual_information`]: `2·MI / (H(X) + H(Y))`, in `[0, 1]`.
//! - [`jaro_winkler`]: the paper's "edit distance" on floor-index
//!   sequences (higher is better, 1.0 = identical ordering).
//!
//! Plus the [`contingency::ContingencyTable`] shared by ARI/NMI,
//! [`summary`] mean/std helpers for the `mean(std)` cells of Table I,
//! and the [`histogram::Histogram`] log-bucketed exact distribution
//! behind the serving daemon's latency stats and `metrics` exposition
//! op.

pub mod ari;
pub mod contingency;
pub mod edit;
pub mod histogram;
pub mod nmi;
pub mod summary;

pub use ari::adjusted_rand_index;
pub use contingency::ContingencyTable;
pub use edit::{jaro, jaro_winkler};
pub use histogram::Histogram;
pub use nmi::{entropy, mutual_information, normalized_mutual_information};
pub use summary::MeanStd;
