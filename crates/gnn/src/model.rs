//! The RF-GNN encoder: K-hop sampled, RSS-attention-weighted aggregation.

use std::sync::Arc;

use fis_autograd::tape::RowGroups;
use fis_autograd::{Tape, Var};
use fis_graph::BipartiteGraph;
use fis_linalg::{init, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::RfGnnConfig;

/// One hop of sampled neighborhoods; see [`RfGnn::sample_hop`].
#[derive(Default)]
pub(crate) struct SampledHop {
    /// The hop's nodes, then the neighbors they drew in first-draw order
    /// (deduplicated): the next hop's nodes.
    pub(crate) children: Vec<usize>,
    /// Row `i` holds node `i`'s draws as `(child slot, normalized weight)`
    /// in draw order, which is the aggregate's summation order.
    pub(crate) groups: RowGroups,
}

/// A trained RF-GNN encoder.
///
/// Holds the learned initial node features `r^0` and the per-hop weight
/// matrices `W_k`. Because the encoder is *inductive* (it aggregates
/// sampled neighborhoods at inference time), it can embed nodes of a graph
/// that grew after training — the paper's motivation for choosing a GNN
/// over static embedding methods.
#[derive(Debug, Clone)]
pub struct RfGnn {
    pub(crate) config: RfGnnConfig,
    pub(crate) features: Matrix,
    pub(crate) weights: Vec<Matrix>,
}

/// Leaf variables for one forward/backward pass.
pub(crate) struct ModelVars {
    pub features: Var,
    pub weights: Vec<Var>,
}

impl RfGnn {
    /// Initializes an untrained model for `graph` (used by the trainer).
    pub(crate) fn init(graph: &BipartiteGraph, config: &RfGnnConfig) -> Self {
        let d = config.dim;
        let features = init::uniform_matrix(graph.n_nodes(), d, -0.5, 0.5, config.seed ^ 0xFEED);
        let weights = (0..config.hops)
            .map(|k| init::xavier_uniform(2 * d, d, config.seed ^ (0xBEEF + k as u64)))
            .collect();
        Self {
            config: config.clone(),
            features,
            weights,
        }
    }

    /// Reassembles a model from its persisted parts, validating shapes.
    ///
    /// This is the load-side counterpart of serializing the learned
    /// `features` / `weights`; see `fis_gnn::persist`.
    ///
    /// # Errors
    ///
    /// Returns a message if the config is inconsistent or any matrix shape
    /// disagrees with it.
    pub fn from_parts(
        config: RfGnnConfig,
        features: Matrix,
        weights: Vec<Matrix>,
    ) -> Result<Self, String> {
        config.validate()?;
        let d = config.dim;
        if features.cols() != d {
            return Err(format!(
                "feature matrix is {}x{}, expected {d} columns",
                features.rows(),
                features.cols()
            ));
        }
        if weights.len() != config.hops {
            return Err(format!(
                "{} weight matrices for {} hops",
                weights.len(),
                config.hops
            ));
        }
        for (k, w) in weights.iter().enumerate() {
            if w.shape() != (2 * d, d) {
                return Err(format!(
                    "weight matrix W{k} is {}x{}, expected {}x{d}",
                    w.rows(),
                    w.cols(),
                    2 * d
                ));
            }
        }
        Ok(Self {
            config,
            features,
            weights,
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &RfGnnConfig {
        &self.config
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The learned initial node features `r^0` (one row per graph node).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The learned per-hop weight matrices `W_k`, outermost hop first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Registers the model parameters as tape leaves.
    pub(crate) fn leaves(&self, tape: &mut Tape) -> ModelVars {
        ModelVars {
            features: tape.leaf(self.features.clone()),
            weights: self.weights.iter().map(|w| tape.leaf(w.clone())).collect(),
        }
    }

    /// K-hop forward pass for `nodes`, returning their `(|nodes| x dim)`
    /// representation variable on `tape`.
    pub(crate) fn forward<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        graph: &BipartiteGraph,
        rng: &mut R,
        vars: &ModelVars,
        nodes: &[usize],
    ) -> Var {
        self.layer(tape, graph, rng, vars, nodes, self.config.hops)
    }

    /// Recursive layer computation. `depth` counts remaining hops; depth 0
    /// reads the raw features `r^0`.
    fn layer<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        graph: &BipartiteGraph,
        rng: &mut R,
        vars: &ModelVars,
        nodes: &[usize],
        depth: usize,
    ) -> Var {
        if depth == 0 {
            return tape.gather_rows(vars.features, Arc::new(nodes.to_vec()));
        }
        let hop_index = self.config.hops - depth; // 0 = outermost sampling
        let sample_size = self.config.neighbor_samples[hop_index];

        // The child node list starts with the nodes themselves (for the
        // CONCAT self-representation) and extends with sampled neighbors,
        // deduplicated so the recursion stays bounded by the graph size.
        let mut hop = SampledHop {
            children: nodes.to_vec(),
            groups: RowGroups::with_capacity(nodes.len(), nodes.len() * sample_size.max(1)),
        };
        self.sample_hop(
            |n| (graph.neighbors(n), graph.weighted_degree(n)),
            rng,
            sample_size,
            &mut hop,
            &mut vec![u32::MAX; graph.n_nodes()],
            &mut Vec::with_capacity(sample_size.max(1)),
        );

        let child_reps = self.layer(tape, graph, rng, vars, &hop.children, depth - 1);
        // Nodes occupy the first positions of the child list by construction.
        let self_idx: Vec<usize> = (0..nodes.len()).collect();
        let self_reps = tape.gather_rows(child_reps, Arc::new(self_idx));
        let agg = tape.aggregate(child_reps, Arc::new(hop.groups));
        let cat = tape.hcat(self_reps, agg);
        let lin = tape.matmul(cat, vars.weights[hop_index]);
        // σ(·) on the inner hops only. The outermost hop (hop_index 0) stays
        // linear before normalization: with a ReLU there, embeddings would be
        // confined to the non-negative orthant, negative-pair dot products
        // could never go below zero, and the τ = 4 negative terms would pull
        // every embedding toward mutual orthogonality — a degenerate optimum
        // with no floor structure (standard GraphSAGE practice).
        let act = if hop_index == 0 { lin } else { tape.relu(lin) };
        tape.l2_normalize_rows(act)
    }

    /// Samples one hop for the nodes in `hop.children` (which holds exactly
    /// the hop's nodes on entry): appends the neighbors they draw to
    /// `hop.children`, deduplicated in first-draw order, and each node's
    /// draws to `hop.groups` as one row of `(child slot, w / Σ drawn)`.
    /// Nodes are sampled in order, so `rng` is consumed identically by the
    /// tape forward ([`RfGnn::layer`]) and the inference kernel, which
    /// both call this.
    ///
    /// `neighbors(node)` yields a node's adjacency list and its weight
    /// total. `slot` is a dense stamp vector over every node index (a
    /// HashMap would cost more: node ids are small dense indices); it must
    /// be all `u32::MAX` on entry and is left that way. `sampled` is
    /// scratch for one node's draws.
    pub(crate) fn sample_hop<'g, R: Rng + ?Sized>(
        &self,
        neighbors: impl Fn(usize) -> (&'g [(usize, f64)], f64),
        rng: &mut R,
        k: usize,
        hop: &mut SampledHop,
        slot: &mut [u32],
        sampled: &mut Vec<(usize, f64)>,
    ) {
        let n_nodes = hop.children.len();
        for (i, &n) in hop.children.iter().enumerate() {
            slot[n] = i as u32;
        }
        for i in 0..n_nodes {
            let node = hop.children[i];
            let (nbrs, total) = neighbors(node);
            sampled.clear();
            self.sample_from_into(nbrs, total, rng, node, k, sampled);
            let drawn: f64 = sampled.iter().map(|&(_, w)| w).sum();
            for &(nbr, w) in sampled.iter() {
                if slot[nbr] == u32::MAX {
                    slot[nbr] = hop.children.len() as u32;
                    hop.children.push(nbr);
                }
                hop.groups.push_entry(slot[nbr] as usize, w / drawn);
            }
            hop.groups.finish_row();
        }
        for &n in &hop.children {
            slot[n] = u32::MAX;
        }
    }

    /// Draws `k` neighbors with replacement together with normalization
    /// weights, appending them to `out`. Takes an explicit adjacency list
    /// and its weight total (`Σ w`, summed in list order) so the inference
    /// path can sample from a virtual scan node that is not part of the
    /// training graph, and so no caller re-sums a list per draw. With
    /// attention on, both the draw probability and the aggregation weight
    /// are proportional to `f(RSS)`; the ablation draws uniformly and
    /// aggregates with equal weights (mean aggregator).
    ///
    /// Isolated nodes contribute a single zero-weight self-loop so the
    /// aggregate is a zero vector rather than a panic.
    fn sample_from_into<R: Rng + ?Sized>(
        &self,
        nbrs: &[(usize, f64)],
        total: f64,
        rng: &mut R,
        node: usize,
        k: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        if nbrs.is_empty() {
            out.push((node, 1.0));
            return;
        }
        out.reserve(k);
        if self.config.attention {
            for _ in 0..k {
                let mut x = rng.gen_range(0.0..total);
                let mut pick = *nbrs.last().expect("non-empty");
                for &(n, w) in nbrs {
                    if x < w {
                        pick = (n, w);
                        break;
                    }
                    x -= w;
                }
                out.push(pick);
            }
        } else {
            for _ in 0..k {
                let (n, _) = nbrs[rng.gen_range(0..nbrs.len())];
                out.push((n, 1.0));
            }
        }
    }

    /// Embeds every *sample* node of `graph`, one row per sample, in the
    /// dense sample-id order. Deterministic for a fixed model and config
    /// seed.
    pub fn embed_samples(&self, graph: &BipartiteGraph) -> Matrix {
        self.embed_nodes(graph, &(0..graph.n_samples()).collect::<Vec<_>>())
    }

    /// Embeds an arbitrary set of unified node indices (samples or MACs).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `graph`.
    pub fn embed_nodes(&self, graph: &BipartiteGraph, nodes: &[usize]) -> Matrix {
        for &n in nodes {
            assert!(n < graph.n_nodes(), "node {n} out of bounds");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x1AFE1D);
        let mut out = Matrix::zeros(nodes.len(), self.config.dim);
        // Average several stochastic neighborhood samples, then project
        // back onto the unit sphere; this shrinks the sampling variance of
        // the final representations.
        for _pass in 0..self.config.inference_passes {
            for (chunk_start, chunk) in nodes.chunks(512).enumerate().map(|(i, c)| (i * 512, c)) {
                let mut tape = Tape::new();
                let vars = self.leaves(&mut tape);
                let reps = self.forward(&mut tape, graph, &mut rng, &vars, chunk);
                let values = tape.value(reps);
                for (i, _) in chunk.iter().enumerate() {
                    fis_linalg::vec_ops::axpy(out.row_mut(chunk_start + i), 1.0, values.row(i));
                }
            }
        }
        out.scale(1.0 / self.config.inference_passes as f64)
            .l2_normalize_rows()
    }
}
