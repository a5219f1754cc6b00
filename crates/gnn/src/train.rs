//! Unsupervised training of RF-GNN on random-walk co-occurrence pairs.

use std::sync::Arc;
use std::time::Instant;

use fis_autograd::{Adam, Tape};
use fis_graph::{cooccurrence_pairs, random_walks, BipartiteGraph, NegativeSampler, WalkStrategy};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::RfGnnConfig;
use crate::model::RfGnn;

/// Most optimizer steps (minibatches) one epoch takes.
///
/// Quality follows the number of Adam steps, not the number of pairs
/// seen, and each step costs a near-full-graph forward and backward on
/// large buildings. So the batch grows with the pair count instead of
/// the step count: a fit uses batches of
/// `max(batch_pairs, ceil(pairs / STEPS_PER_EPOCH))` pairs and does at
/// most `epochs × STEPS_PER_EPOCH` steps, whatever the building's size.
pub const STEPS_PER_EPOCH: usize = 50;

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch, in order.
    pub epoch_losses: Vec<f64>,
    /// Number of positive co-occurrence pairs used per epoch.
    pub pairs: usize,
    /// Effective positive pairs per minibatch (see [`STEPS_PER_EPOCH`]).
    pub batch_pairs: usize,
    /// Optimizer steps taken over the whole run.
    pub steps: usize,
}

impl TrainReport {
    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Pairs per minibatch for `n_pairs` pairs: `min_batch`, or larger when
/// that would take more than [`STEPS_PER_EPOCH`] batches per epoch.
fn batch_size(n_pairs: usize, min_batch: usize) -> usize {
    min_batch.max(n_pairs.div_ceil(STEPS_PER_EPOCH))
}

impl RfGnn {
    /// Trains an RF-GNN on `graph` with the paper's unsupervised objective
    /// and returns the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the config is inconsistent, the graph has no
    /// edges (no walks, no negative sampler), or no co-occurrence pairs
    /// could be generated.
    pub fn train(graph: &BipartiteGraph, config: &RfGnnConfig) -> Result<Self, String> {
        Self::train_with_report(graph, config).map(|(model, _)| model)
    }

    /// [`RfGnn::train`] that also returns the per-epoch loss trace.
    ///
    /// The batch size is fixed once per fit from the seeded pair list
    /// (see [`STEPS_PER_EPOCH`]), so it is the same for any thread count.
    ///
    /// # Errors
    ///
    /// See [`RfGnn::train`].
    pub fn train_with_report(
        graph: &BipartiteGraph,
        config: &RfGnnConfig,
    ) -> Result<(Self, TrainReport), String> {
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        let strategy = if config.attention {
            WalkStrategy::Weighted
        } else {
            WalkStrategy::Uniform
        };
        let walks = random_walks(
            graph,
            &mut rng,
            config.walks_per_node,
            config.walk_length,
            strategy,
        );
        let mut pairs = cooccurrence_pairs(&walks, config.walk_length);
        if pairs.is_empty() {
            return Err("no co-occurrence pairs: graph has no edges".to_owned());
        }
        let neg_sampler = NegativeSampler::new(graph)?;
        let batch_pairs = batch_size(pairs.len(), config.batch_pairs);

        let mut model = RfGnn::init(graph, config);
        let mut opt = Adam::new(config.learning_rate);
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let mut steps = 0usize;

        for epoch in 0..config.epochs {
            let started = Instant::now();
            pairs.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in pairs.chunks(batch_pairs) {
                let loss = model.train_batch(graph, batch, &neg_sampler, &mut rng, &mut opt)?;
                epoch_loss += loss;
                batches += 1;
            }
            steps += batches;
            let mean = epoch_loss / batches.max(1) as f64;
            fis_obs::event(fis_obs::Level::Trace, "gnn", "epoch")
                .num("epoch", epoch as f64)
                .num("loss", mean)
                .num("batches", batches as f64)
                .num("batch_pairs", batch_pairs as f64)
                .num("dur_ns", started.elapsed().as_nanos() as f64)
                .emit();
            epoch_losses.push(mean);
        }
        let report = TrainReport {
            epoch_losses,
            pairs: pairs.len(),
            batch_pairs,
            steps,
        };
        Ok((model, report))
    }

    /// One minibatch: forward unique nodes, skip-gram loss with τ negative
    /// samples, backward, Adam step. Returns the batch loss.
    fn train_batch(
        &mut self,
        graph: &BipartiteGraph,
        batch: &[(usize, usize)],
        neg_sampler: &NegativeSampler,
        rng: &mut ChaCha8Rng,
        opt: &mut Adam,
    ) -> Result<f64, String> {
        let tau = self.config.tau;
        // Draw negatives, then assemble the unique node list for one
        // forward pass shared by anchors, positives, and negatives. A
        // dense stamp vector over the node space replaces a HashMap:
        // node ids are already small dense indices, and this interning
        // loop was a measurable slice of the per-batch cost.
        let mut uniq: Vec<usize> = Vec::new();
        let mut slot_of: Vec<u32> = vec![u32::MAX; graph.n_nodes()];
        let mut intern = |node: usize, uniq: &mut Vec<usize>| {
            if slot_of[node] == u32::MAX {
                slot_of[node] = uniq.len() as u32;
                uniq.push(node);
            }
            slot_of[node] as usize
        };
        let mut idx_i = Vec::with_capacity(batch.len());
        let mut idx_j = Vec::with_capacity(batch.len());
        let mut idx_i_rep = Vec::with_capacity(batch.len() * tau);
        let mut idx_z = Vec::with_capacity(batch.len() * tau);
        let mut negs: Vec<usize> = Vec::with_capacity(tau);
        for &(i, j) in batch {
            let ii = intern(i, &mut uniq);
            let jj = intern(j, &mut uniq);
            idx_i.push(ii);
            idx_j.push(jj);
            negs.clear();
            neg_sampler.sample_excluding_into(rng, tau, &[i, j], &mut negs);
            for &z in &negs {
                let zz = intern(z, &mut uniq);
                idx_i_rep.push(ii);
                idx_z.push(zz);
            }
        }

        let mut tape = Tape::new();
        let vars = self.leaves(&mut tape);
        let reps = self.forward(&mut tape, graph, rng, &vars, &uniq);

        let pos_scores = tape.gathered_rowwise_dot(reps, Arc::new(idx_i), Arc::new(idx_j));
        let pos_losses = tape.neg_log_sigmoid(pos_scores);
        let pos_sum = tape.sum_all(pos_losses);

        let neg_scores = tape.gathered_rowwise_dot(reps, Arc::new(idx_i_rep), Arc::new(idx_z));
        let neg_flipped = tape.scale(neg_scores, -1.0);
        let neg_losses = tape.neg_log_sigmoid(neg_flipped);
        let neg_sum = tape.sum_all(neg_losses);

        let total = tape.add(pos_sum, neg_sum);
        let loss = tape.scale(total, 1.0 / batch.len() as f64);
        tape.backward(loss);
        let loss_value = tape.scalar(loss);
        if !loss_value.is_finite() {
            return Err(format!("training diverged: loss = {loss_value}"));
        }

        for (k, w) in self.weights.iter_mut().enumerate() {
            opt.step(&format!("W{k}"), w, tape.grad(vars.weights[k]));
        }
        if self.config.train_features {
            opt.step("features", &mut self.features, tape.grad(vars.features));
        }
        Ok(loss_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_synth::BuildingConfig;

    fn tiny_graph(floors: usize, seed: u64) -> (BipartiteGraph, Vec<usize>) {
        let b = BuildingConfig::new("t", floors)
            .samples_per_floor(25)
            .aps_per_floor(6)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        let graph = BipartiteGraph::from_samples(b.samples()).unwrap();
        let truth = b.ground_truth().iter().map(|f| f.index()).collect();
        (graph, truth)
    }

    fn sample_nodes(graph: &BipartiteGraph) -> Vec<usize> {
        (0..graph.n_samples()).collect()
    }

    fn small_config() -> RfGnnConfig {
        RfGnnConfig {
            epochs: 4,
            walks_per_node: 2,
            neighbor_samples: vec![5, 3],
            seed: 7,
            ..RfGnnConfig::new(8)
        }
    }

    #[test]
    fn loss_decreases() {
        let (graph, _) = tiny_graph(2, 1);
        let (_, report) = RfGnn::train_with_report(&graph, &small_config()).unwrap();
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        assert!(report.pairs > 0);
    }

    #[test]
    fn small_graphs_train_at_the_configured_batch_size() {
        let (graph, _) = tiny_graph(2, 1);
        let config = small_config();
        let (_, report) = RfGnn::train_with_report(&graph, &config).unwrap();
        assert!(report.pairs < STEPS_PER_EPOCH * config.batch_pairs);
        assert_eq!(report.batch_pairs, config.batch_pairs);
        assert_eq!(
            report.steps,
            config.epochs * report.pairs.div_ceil(config.batch_pairs)
        );
    }

    #[test]
    fn large_graphs_take_at_most_the_step_budget_per_epoch() {
        let (graph, _) = tiny_graph(2, 1);
        let mut config = small_config();
        config.batch_pairs = 4;
        let (_, report) = RfGnn::train_with_report(&graph, &config).unwrap();
        assert!(report.pairs > STEPS_PER_EPOCH * config.batch_pairs);
        assert_eq!(report.batch_pairs, report.pairs.div_ceil(STEPS_PER_EPOCH));
        let batches = report.pairs.div_ceil(report.batch_pairs);
        assert!(batches <= STEPS_PER_EPOCH, "{batches} batches per epoch");
        assert_eq!(report.steps, config.epochs * batches);
    }

    #[test]
    fn batches_cover_every_pair_exactly_once() {
        for min_batch in [1, 7, 1024] {
            for n in [1, 49, 50, 51, 349, 1024 * 50, 1024 * 50 + 1, 51_234] {
                let pairs: Vec<usize> = (0..n).collect();
                let size = batch_size(n, min_batch);
                if n <= STEPS_PER_EPOCH * min_batch {
                    assert_eq!(size, min_batch);
                }
                let batches: Vec<&[usize]> = pairs.chunks(size).collect();
                assert!(batches.len() <= STEPS_PER_EPOCH, "n={n} min={min_batch}");
                assert_eq!(batches.concat(), pairs, "n={n} min={min_batch}");
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (graph, _) = tiny_graph(2, 2);
        let a = RfGnn::train_with_report(&graph, &small_config()).unwrap().1;
        let b = RfGnn::train_with_report(&graph, &small_config()).unwrap().1;
        assert_eq!(a, b);
    }

    #[test]
    fn embeddings_have_unit_rows() {
        let (graph, _) = tiny_graph(2, 3);
        let model = RfGnn::train(&graph, &small_config()).unwrap();
        let emb = model.infer_nodes(&graph, &sample_nodes(&graph));
        assert_eq!(emb.shape(), (graph.n_samples(), 8));
        for norm in emb.row_norms() {
            assert!((norm - 1.0).abs() < 1e-9 || norm < 1e-9, "norm={norm}");
        }
        assert!(emb.is_finite());
    }

    #[test]
    fn same_floor_pairs_closer_than_cross_floor() {
        let (graph, truth) = tiny_graph(3, 4);
        let model = RfGnn::train(
            &graph,
            &RfGnnConfig {
                epochs: 6,
                ..small_config()
            },
        )
        .unwrap();
        let emb = model.infer_nodes(&graph, &sample_nodes(&graph));
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..graph.n_samples() {
            for j in (i + 1)..graph.n_samples() {
                let d = fis_linalg::vec_ops::euclidean(emb.row(i), emb.row(j));
                if truth[i] == truth[j] {
                    same.push(d);
                } else if truth[i].abs_diff(truth[j]) >= 2 {
                    diff.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) < mean(&diff),
            "same-floor {} should be closer than distant-floor {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn no_attention_variant_trains() {
        let (graph, _) = tiny_graph(2, 5);
        let config = small_config().without_attention();
        let (model, report) = RfGnn::train_with_report(&graph, &config).unwrap();
        assert!(!model.config().attention);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn invalid_config_rejected() {
        let (graph, _) = tiny_graph(2, 6);
        let mut config = small_config();
        config.hops = 5;
        assert!(RfGnn::train(&graph, &config).is_err());
    }

    #[test]
    fn edgeless_graph_rejected() {
        use fis_types::SignalSample;
        let samples = vec![SignalSample::builder(0).build()];
        let graph = BipartiteGraph::from_samples(&samples).unwrap();
        assert!(RfGnn::train(&graph, &small_config()).is_err());
    }

    #[test]
    fn infer_nodes_covers_macs_too() {
        let (graph, _) = tiny_graph(2, 8);
        let model = RfGnn::train(&graph, &small_config()).unwrap();
        let mac_nodes: Vec<usize> = (0..graph.n_macs()).map(|j| graph.mac_node(j)).collect();
        let emb = model.infer_nodes(&graph, &mac_nodes);
        assert_eq!(emb.rows(), graph.n_macs());
        assert!(emb.is_finite());
    }
}
