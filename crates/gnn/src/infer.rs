//! Inference-only forward passes: no tape, no gradient bookkeeping, and
//! no per-node heap allocation.
//!
//! Training and batch embedding ([`RfGnn::embed_nodes`]) run the K-hop
//! forward through the autograd tape, which allocates a node (value +
//! zeroed gradient) per operation. Serving only needs the values, so this
//! module runs the same recursion as one value-only kernel over a
//! per-thread scratch: its buffers grow to the largest model the thread
//! has served and are then reused, so a warm `infer_scan` allocates only
//! the embedding it returns. The kernel keeps the tape's arithmetic
//! order exactly — neighbors drawn in node order, the aggregate summed in
//! sample order, `[self | agg] · W_k` through [`Matrix::row_matmul_into`]
//! (the per-row kernel of [`Matrix::matmul`]), ReLU on inner hops, row
//! ℓ2-normalization with the same `1e-12` guard — so
//! [`RfGnn::infer_nodes`] is **bit-identical** to [`RfGnn::embed_nodes`]
//! (enforced by tests).
//!
//! It also extends the forward pass to **virtual scan nodes**: a new
//! crowdsourced scan that was never part of the training graph is embedded
//! by attaching it to the MAC nodes it heard ([`RfGnn::infer_scan`]). Its
//! hop-0 representation is the `f(RSS)`-weighted mean of its known MACs'
//! learned features; every deeper hop aggregates sampled neighborhoods of
//! the training graph, exactly as the paper's inductive argument for
//! choosing a GNN over static embeddings prescribes.

use std::cell::RefCell;

use fis_graph::BipartiteGraph;
use fis_linalg::{func, vec_ops, Matrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::{RfGnn, SampledHop};

/// A scan attached to the training graph for inference: its known MAC
/// neighbors (unified node indices) with positive `f(RSS)` weights and
/// their sum. Its hop-0 feature row lives in [`Scratch::scan_feature`].
#[derive(Clone, Copy)]
struct VirtualScan<'a> {
    neighbors: &'a [(usize, f64)],
    total: f64,
}

/// One hop of the forward pass, outermost first.
#[derive(Default)]
struct Hop {
    sampled: SampledHop,
    /// Representations of `sampled.children` one hop deeper, row-major.
    child_reps: Vec<f64>,
}

/// Per-thread buffers of the inference kernel.
#[derive(Default)]
struct Scratch {
    /// Child slot of each node in the hop being sampled (`u32::MAX`: not
    /// a child yet); index `n_nodes` is the virtual scan.
    slot: Vec<u32>,
    /// One node's draws before normalization.
    sampled: Vec<(usize, f64)>,
    hops: Vec<Hop>,
    /// `[self | agg]` of the row being projected.
    cat: Vec<f64>,
    /// The outermost hop's output, one row per requested node.
    out: Vec<f64>,
    /// Hop-0 feature row of the virtual scan.
    scan_feature: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl RfGnn {
    /// Tape-free variant of [`RfGnn::embed_nodes`]: embeds an arbitrary
    /// set of unified node indices with identical RNG consumption and
    /// arithmetic order, so the result is bit-identical — only the
    /// gradient bookkeeping is skipped.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `graph`.
    pub fn infer_nodes(&self, graph: &BipartiteGraph, nodes: &[usize]) -> Matrix {
        for &n in nodes {
            assert!(n < graph.n_nodes(), "node {n} out of bounds");
        }
        let dim = self.config.dim;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x1AFE1D);
        let mut out = Matrix::zeros(nodes.len(), dim);
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            for _pass in 0..self.config.inference_passes {
                for (chunk_start, chunk) in nodes.chunks(512).enumerate().map(|(i, c)| (i * 512, c))
                {
                    self.forward_values(graph, &mut rng, None, chunk, s);
                    for (i, values) in s.out.chunks_exact(dim).enumerate() {
                        vec_ops::axpy(out.row_mut(chunk_start + i), 1.0, values);
                    }
                }
            }
        });
        out.scale(1.0 / self.config.inference_passes as f64)
            .l2_normalize_rows()
    }

    /// Embeds one scan that is *not* a node of `graph`.
    ///
    /// `neighbors` lists the unified indices of the MAC nodes the scan
    /// heard, with their positive `f(RSS)` weights. The scan's hop-0
    /// representation is the weight-normalized mean of those MACs' learned
    /// features; K-hop aggregation then proceeds through the training
    /// graph. Averages `inference_passes` stochastic passes seeded by
    /// `seed` alone, so for a fixed `(model, scan, seed)` the embedding is
    /// bit-identical regardless of batching or thread count.
    ///
    /// # Errors
    ///
    /// Returns a message if `neighbors` is empty (nothing known to attach
    /// to), lists an out-of-bounds node, or carries a non-positive weight.
    pub fn infer_scan(
        &self,
        graph: &BipartiteGraph,
        neighbors: &[(usize, f64)],
        seed: u64,
    ) -> Result<Vec<f64>, String> {
        if neighbors.is_empty() {
            return Err("scan has no neighbors in the training graph".to_owned());
        }
        for &(n, w) in neighbors {
            if n >= graph.n_nodes() {
                return Err(format!("neighbor node {n} out of bounds"));
            }
            if !w.is_finite() || w <= 0.0 {
                return Err(format!("neighbor weight {w} must be positive and finite"));
            }
        }
        let total: f64 = neighbors.iter().map(|&(_, w)| w).sum();
        let scan = VirtualScan { neighbors, total };
        let mut out = vec![0.0; self.config.dim];
        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.scan_feature.clear();
            s.scan_feature.resize(self.config.dim, 0.0);
            for &(n, w) in neighbors {
                vec_ops::axpy(&mut s.scan_feature, w / total, self.features.row(n));
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _pass in 0..self.config.inference_passes {
                self.forward_values(graph, &mut rng, Some(scan), &[graph.n_nodes()], s);
                vec_ops::axpy(&mut out, 1.0, &s.out);
            }
        });
        vec_ops::scale(&mut out, 1.0 / self.config.inference_passes as f64);
        let norm = out.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            vec_ops::scale(&mut out, 1.0 / norm);
        }
        Ok(out)
    }

    /// Value-only mirror of the tape `layer` recursion: leaves one
    /// representation row per entry of `nodes` in `s.out`. Node index
    /// `graph.n_nodes()` denotes the virtual scan node when `scan` is set.
    ///
    /// Sampling runs top-down, outermost hop first, consuming `rng` in the
    /// recursion's order; the projections then run bottom-up, each hop's
    /// output becoming the child representations of the hop above.
    fn forward_values<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
        scan: Option<VirtualScan<'_>>,
        nodes: &[usize],
        s: &mut Scratch,
    ) {
        let dim = self.config.dim;
        let hops = self.config.hops;
        let virt = graph.n_nodes();
        // Reset on every entry: a model of another size, or a panic that
        // unwound mid-hop, must never leave stale slots behind.
        s.slot.clear();
        s.slot.resize(virt + 1, u32::MAX);
        if s.hops.len() < hops {
            s.hops.resize_with(hops, Hop::default);
        }

        let neighbors = |node: usize| {
            if node == virt {
                let scan = scan.expect("virtual index requires a scan");
                (scan.neighbors, scan.total)
            } else {
                (graph.neighbors(node), graph.weighted_degree(node))
            }
        };
        for hop_index in 0..hops {
            let (outer, inner) = s.hops.split_at_mut(hop_index);
            let hop = &mut inner[0].sampled;
            hop.children.clear();
            match outer.last() {
                None => hop.children.extend_from_slice(nodes),
                Some(prev) => hop.children.extend_from_slice(&prev.sampled.children),
            }
            hop.groups.clear();
            self.sample_hop(
                neighbors,
                rng,
                self.config.neighbor_samples[hop_index],
                hop,
                &mut s.slot,
                &mut s.sampled,
            );
        }

        // Depth 0: the innermost hop's children read the raw features.
        let innermost = &mut s.hops[hops - 1];
        innermost.child_reps.clear();
        for &n in &innermost.sampled.children {
            let row = if n == virt {
                s.scan_feature.as_slice()
            } else {
                self.features.row(n)
            };
            innermost.child_reps.extend_from_slice(row);
        }

        s.cat.resize(2 * dim, 0.0);
        for hop_index in (0..hops).rev() {
            let (outer, inner) = s.hops.split_at_mut(hop_index);
            let hop = &inner[0];
            // Hop k's nodes are hop k-1's children; the outermost hop
            // writes the result.
            let dst = match outer.last_mut() {
                Some(prev) => &mut prev.child_reps,
                None => &mut s.out,
            };
            let groups = &hop.sampled.groups;
            dst.clear();
            dst.resize(groups.rows() * dim, 0.0);
            for (i, out_row) in dst.chunks_exact_mut(dim).enumerate() {
                // Nodes occupy the first slots of `children` by construction.
                let (self_part, agg) = s.cat.split_at_mut(dim);
                self_part.copy_from_slice(&hop.child_reps[i * dim..(i + 1) * dim]);
                agg.fill(0.0);
                for &(slot, w) in groups.row(i) {
                    let slot = slot as usize;
                    vec_ops::axpy(agg, w, &hop.child_reps[slot * dim..(slot + 1) * dim]);
                }
                self.weights[hop_index].row_matmul_into(&s.cat, out_row);
                // σ(·) on the inner hops only (see `RfGnn::layer`).
                if hop_index != 0 {
                    for x in out_row.iter_mut() {
                        *x = func::relu(*x);
                    }
                }
                let norm = out_row.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for x in out_row.iter_mut() {
                        *x /= norm;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfGnnConfig;
    use fis_synth::BuildingConfig;

    fn trained(seed: u64) -> (BipartiteGraph, RfGnn) {
        trained_sized(seed, 20)
    }

    fn trained_sized(seed: u64, samples_per_floor: usize) -> (BipartiteGraph, RfGnn) {
        let b = BuildingConfig::new("t", 3)
            .samples_per_floor(samples_per_floor)
            .aps_per_floor(6)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        let graph = BipartiteGraph::from_samples(b.samples()).unwrap();
        let config = RfGnnConfig::new(8)
            .epochs(3)
            .walks_per_node(2)
            .neighbor_samples(vec![5, 3])
            .seed(seed);
        let model = RfGnn::train(&graph, &config).unwrap();
        (graph, model)
    }

    #[test]
    fn infer_nodes_bit_identical_to_tape_embedding() {
        let (graph, model) = trained(11);
        let nodes: Vec<usize> = (0..graph.n_samples()).collect();
        let tape = model.embed_nodes(&graph, &nodes);
        let free = model.infer_nodes(&graph, &nodes);
        assert_eq!(tape.as_slice(), free.as_slice(), "forward paths diverged");
    }

    #[test]
    fn infer_scan_is_deterministic_and_unit_norm() {
        let (graph, model) = trained(12);
        let nbrs: Vec<(usize, f64)> = (0..3)
            .map(|j| (graph.mac_node(j), 40.0 + j as f64))
            .collect();
        let a = model.infer_scan(&graph, &nbrs, 99).unwrap();
        let b = model.infer_scan(&graph, &nbrs, 99).unwrap();
        assert_eq!(a, b);
        let norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        // A different seed draws different neighborhoods.
        let c = model.infer_scan(&graph, &nbrs, 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn scratch_reuse_across_model_sizes_is_invisible() {
        let small = trained_sized(15, 10);
        let large = trained_sized(16, 40);
        assert_ne!(small.0.n_nodes(), large.0.n_nodes());
        let scan = |(graph, model): &(BipartiteGraph, RfGnn), seed: u64| {
            let nbrs: Vec<(usize, f64)> = (0..graph.n_macs())
                .step_by(2)
                .map(|j| (graph.mac_node(j), 30.0 + j as f64))
                .collect();
            model.infer_scan(graph, &nbrs, seed).unwrap()
        };
        // Small, large, large's full node set, small again, ...: every
        // call inherits scratch buffers sized by a different model.
        let calls: Vec<(bool, u64)> = vec![(false, 1), (true, 2), (false, 3), (true, 4)];
        let run = |&(big, seed): &(bool, u64)| {
            let model = if big { &large } else { &small };
            let emb = scan(model, seed);
            let nodes: Vec<usize> = (0..model.0.n_nodes()).collect();
            (emb, model.1.infer_nodes(&model.0, &nodes))
        };
        let fresh: Vec<_> = calls
            .iter()
            .map(|call| std::thread::scope(|s| s.spawn(|| run(call)).join().unwrap()))
            .collect();
        for round in 0..2 {
            for (call, want) in calls.iter().zip(&fresh) {
                let got = run(call);
                assert_eq!(got.0, want.0, "infer_scan {call:?}, round {round}");
                assert_eq!(
                    got.1.as_slice(),
                    want.1.as_slice(),
                    "infer_nodes {call:?}, round {round}"
                );
            }
        }
    }

    #[test]
    fn infer_scan_rejects_degenerate_inputs() {
        let (graph, model) = trained(13);
        assert!(model.infer_scan(&graph, &[], 1).is_err());
        assert!(model
            .infer_scan(&graph, &[(graph.n_nodes() + 5, 10.0)], 1)
            .is_err());
        assert!(model.infer_scan(&graph, &[(0, -3.0)], 1).is_err());
        assert!(model.infer_scan(&graph, &[(0, f64::NAN)], 1).is_err());
    }

    #[test]
    fn from_parts_validates_shapes() {
        let (_, model) = trained(14);
        let config = model.config().clone();
        let ok = RfGnn::from_parts(
            config.clone(),
            model.features().clone(),
            model.weights().to_vec(),
        );
        assert!(ok.is_ok());
        let bad = RfGnn::from_parts(
            config.clone(),
            Matrix::zeros(4, 3),
            model.weights().to_vec(),
        );
        assert!(bad.is_err());
        let bad2 = RfGnn::from_parts(config, model.features().clone(), vec![]);
        assert!(bad2.is_err());
    }
}
