//! RF-GNN hyperparameters.

/// Hyperparameters for [`crate::RfGnn`].
///
/// The defaults follow the paper where it is explicit (τ = 4, walk length
/// 5, K = 2 hops) and GraphSAGE conventions elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct RfGnnConfig {
    /// Embedding dimension (the paper sweeps 8–64; default 16).
    pub dim: usize,
    /// Number of aggregation hops `K`.
    pub hops: usize,
    /// Neighbors sampled per node at each hop (outermost first).
    pub neighbor_samples: Vec<usize>,
    /// Random walks started from every node.
    pub walks_per_node: usize,
    /// Steps per random walk (the paper uses 5).
    pub walk_length: usize,
    /// Negative samples per positive pair (the paper uses τ = 4).
    pub tau: usize,
    /// Training epochs over the co-occurrence pairs (default 8). Each
    /// epoch takes at most [`crate::STEPS_PER_EPOCH`] Adam steps, so a
    /// fit does at most `epochs × STEPS_PER_EPOCH` steps at any size.
    pub epochs: usize,
    /// *Minimum* positive pairs per minibatch (default 1024). A building
    /// with more than `STEPS_PER_EPOCH × batch_pairs` pairs trains on
    /// `ceil(pairs / STEPS_PER_EPOCH)` pairs per batch instead, so it
    /// still takes at most [`crate::STEPS_PER_EPOCH`] steps per epoch.
    pub batch_pairs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RSS-attention on (true) or the uniform-sampling/mean-aggregation
    /// ablation (false).
    pub attention: bool,
    /// Whether the initial node features `r^0` receive gradients.
    pub train_features: bool,
    /// Stochastic forward passes averaged (then re-normalized) at
    /// inference time. More passes reduce neighbor-sampling noise in the
    /// final embeddings.
    pub inference_passes: usize,
    /// RNG seed controlling initialization, walks, sampling, batching.
    pub seed: u64,
}

impl RfGnnConfig {
    /// Creates a config with embedding dimension `dim` and defaults
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            dim,
            hops: 2,
            neighbor_samples: vec![10, 5],
            walks_per_node: 12,
            walk_length: 5,
            tau: 4,
            epochs: 8,
            batch_pairs: 1024,
            learning_rate: 0.02,
            attention: true,
            train_features: true,
            inference_passes: 4,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the RSS attention (Figure 8(a,b) ablation).
    pub fn without_attention(mut self) -> Self {
        self.attention = false;
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if `hops != neighbor_samples.len()` or any count
    /// field is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.hops != self.neighbor_samples.len() {
            return Err(format!(
                "hops {} != neighbor_samples.len() {}",
                self.hops,
                self.neighbor_samples.len()
            ));
        }
        if self.hops == 0 {
            return Err("need at least one hop".to_owned());
        }
        if self.walk_length == 0 || self.walks_per_node == 0 {
            return Err("walks must be non-trivial".to_owned());
        }
        if self.batch_pairs == 0 {
            return Err("batch_pairs must be positive".to_owned());
        }
        if self.epochs == 0 {
            return Err("epochs must be positive".to_owned());
        }
        if self.inference_passes == 0 {
            return Err("inference_passes must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let c = RfGnnConfig::new(16);
        assert_eq!(c.tau, 4);
        assert_eq!(c.walk_length, 5);
        assert_eq!(c.hops, 2);
        assert!(c.attention);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = RfGnnConfig::new(8).seed(9).without_attention();
        assert_eq!(c.seed, 9);
        assert!(!c.attention);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_catches_mismatch() {
        let mut c = RfGnnConfig::new(8);
        c.hops = 3;
        assert!(c.validate().is_err());
        let mut c2 = RfGnnConfig::new(8);
        c2.epochs = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = RfGnnConfig::new(0);
    }
}
