//! The weighted bipartite MAC × sample graph.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use fis_types::{MacAddr, SignalSample};
use rand::Rng;

/// Error constructing a bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// No samples were supplied.
    Empty,
    /// Sample ids were not dense `0..n`.
    NonDenseIds(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "cannot build a graph from zero samples"),
            GraphError::NonDenseIds(s) => write!(f, "sample ids must be dense: {s}"),
        }
    }
}

impl Error for GraphError {}

/// Which side of the bipartition a unified node index belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A crowdsourced signal sample (set `V` in the paper).
    Sample(usize),
    /// A sensed MAC address (set `U` in the paper).
    Mac(usize),
}

/// Weighted bipartite graph of signal samples and MAC addresses.
///
/// Nodes live in a unified index space: indices `0..n_samples` are sample
/// nodes, `n_samples..n_samples + n_macs` are MAC nodes. Every edge carries
/// the positive weight `f(RSS) = RSS + c` from §III-A. Adjacency is stored
/// both ways so walks and neighbor sampling are symmetric.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_samples: usize,
    macs: Vec<MacAddr>,
    adj: Vec<Vec<(usize, f64)>>,
    /// Per-node sum of edge weights, fixed at construction (the graph is
    /// immutable) so attention sampling never re-sums an adjacency list.
    weight_totals: Vec<f64>,
}

impl BipartiteGraph {
    /// Builds the graph from samples using the default offset `c = 120`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for an empty slice and
    /// [`GraphError::NonDenseIds`] if sample ids are not `0..n` in order.
    /// Samples that heard nothing become isolated sample nodes.
    pub fn from_samples(samples: &[SignalSample]) -> Result<Self, GraphError> {
        Self::from_samples_with_offset(samples, fis_types::DEFAULT_RSS_OFFSET)
    }

    /// Builds the graph with an explicit weight offset `c`.
    ///
    /// # Errors
    ///
    /// See [`BipartiteGraph::from_samples`].
    pub fn from_samples_with_offset(
        samples: &[SignalSample],
        offset: f64,
    ) -> Result<Self, GraphError> {
        if samples.is_empty() {
            return Err(GraphError::Empty);
        }
        for (i, s) in samples.iter().enumerate() {
            if s.id().index() != i {
                return Err(GraphError::NonDenseIds(format!(
                    "sample at position {i} has id {}",
                    s.id()
                )));
            }
        }
        let n_samples = samples.len();
        let mut mac_index: HashMap<MacAddr, usize> = HashMap::new();
        let mut macs: Vec<MacAddr> = Vec::new();
        // First pass: intern MACs in first-seen order (deterministic).
        for s in samples {
            for (mac, _) in s.iter() {
                mac_index.entry(mac).or_insert_with(|| {
                    macs.push(mac);
                    macs.len() - 1
                });
            }
        }
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_samples + macs.len()];
        for (si, s) in samples.iter().enumerate() {
            for (mac, rssi) in s.iter() {
                let mi = mac_index[&mac];
                let w = rssi.edge_weight_with_offset(offset);
                adj[si].push((n_samples + mi, w));
                adj[n_samples + mi].push((si, w));
            }
        }
        let weight_totals = adj
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(_, w)| w).sum())
            .collect();
        Ok(Self {
            n_samples,
            macs,
            adj,
            weight_totals,
        })
    }

    /// Number of sample nodes (`|V|`).
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of MAC nodes (`|U|`).
    pub fn n_macs(&self) -> usize {
        self.macs.len()
    }

    /// Total nodes in the unified index space.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Total number of (undirected) edges.
    pub fn n_edges(&self) -> usize {
        self.adj[..self.n_samples].iter().map(Vec::len).sum()
    }

    /// Unified index of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_samples()`.
    pub fn sample_node(&self, i: usize) -> usize {
        assert!(i < self.n_samples, "sample index {i} out of bounds");
        i
    }

    /// Unified index of interned MAC `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_macs()`.
    pub fn mac_node(&self, j: usize) -> usize {
        assert!(j < self.macs.len(), "mac index {j} out of bounds");
        self.n_samples + j
    }

    /// Classifies a unified node index.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n_nodes()`.
    pub fn kind(&self, node: usize) -> NodeKind {
        assert!(node < self.n_nodes(), "node {node} out of bounds");
        if node < self.n_samples {
            NodeKind::Sample(node)
        } else {
            NodeKind::Mac(node - self.n_samples)
        }
    }

    /// The MAC address interned at index `j`.
    pub fn mac(&self, j: usize) -> MacAddr {
        self.macs[j]
    }

    /// The full MAC vocabulary in interned (first-seen) order.
    ///
    /// `macs()[j]` is the address of MAC node `mac_node(j)`. This is the
    /// vocabulary a fitted model persists so streaming scans can be mapped
    /// back onto the training graph.
    pub fn macs(&self) -> &[MacAddr] {
        &self.macs
    }

    /// Looks up the interned index of a MAC address.
    pub fn mac_id(&self, mac: MacAddr) -> Option<usize> {
        self.macs.iter().position(|&m| m == mac)
    }

    /// Neighbors of a node with their edge weights.
    pub fn neighbors(&self, node: usize) -> &[(usize, f64)] {
        &self.adj[node]
    }

    /// Degree of a node.
    pub fn degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }

    /// Sum of edge weights at a node, summed once at construction in
    /// adjacency order, so O(1) here.
    pub fn weighted_degree(&self, node: usize) -> f64 {
        self.weight_totals[node]
    }

    /// Draws `k` neighbors of `node` with replacement, with probability
    /// proportional to edge weight — the paper's attention-based neighbor
    /// sampling `Pr(u) = f(RSS_uv) / Σ f(RSS_u'v)`.
    ///
    /// Returns an empty vector for isolated nodes.
    pub fn sample_neighbors_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        node: usize,
        k: usize,
    ) -> Vec<usize> {
        let nbrs = &self.adj[node];
        if nbrs.is_empty() {
            return Vec::new();
        }
        let total = self.weight_totals[node];
        (0..k)
            .map(|_| {
                let mut x = rng.gen_range(0.0..total);
                for &(n, w) in nbrs {
                    if x < w {
                        return n;
                    }
                    x -= w;
                }
                nbrs.last().expect("non-empty").0
            })
            .collect()
    }

    /// Draws `k` neighbors uniformly with replacement (the no-attention
    /// ablation of Figure 8(a,b)).
    pub fn sample_neighbors_uniform<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        node: usize,
        k: usize,
    ) -> Vec<usize> {
        let nbrs = &self.adj[node];
        if nbrs.is_empty() {
            return Vec::new();
        }
        (0..k)
            .map(|_| nbrs[rng.gen_range(0..nbrs.len())].0)
            .collect()
    }

    /// Connected-component id for every node (BFS). Isolated sample nodes
    /// form singleton components.
    pub fn components(&self) -> Vec<usize> {
        let n = self.n_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Degrees of all nodes (used by the negative sampler).
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_types::Rssi;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rssi(v: f64) -> Rssi {
        Rssi::new(v).unwrap()
    }

    /// Two samples: s0 hears {m1:-60, m2:-80}, s1 hears {m2:-40}.
    fn tiny() -> BipartiteGraph {
        let m1 = MacAddr::from_u64(1);
        let m2 = MacAddr::from_u64(2);
        let s0 = SignalSample::builder(0)
            .reading(m1, rssi(-60.0))
            .reading(m2, rssi(-80.0))
            .build();
        let s1 = SignalSample::builder(1).reading(m2, rssi(-40.0)).build();
        BipartiteGraph::from_samples(&[s0, s1]).unwrap()
    }

    #[test]
    fn shapes_and_kinds() {
        let g = tiny();
        assert_eq!(g.n_samples(), 2);
        assert_eq!(g.n_macs(), 2);
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.kind(0), NodeKind::Sample(0));
        assert_eq!(g.kind(2), NodeKind::Mac(0));
    }

    #[test]
    fn weights_follow_offset_transform() {
        let g = tiny();
        // s0 -- m1 weight = -60 + 120 = 60
        let m1_node = g.mac_node(g.mac_id(MacAddr::from_u64(1)).unwrap());
        let w = g
            .neighbors(0)
            .iter()
            .find(|&&(n, _)| n == m1_node)
            .unwrap()
            .1;
        assert_eq!(w, 60.0);
    }

    #[test]
    fn weighted_degree_is_the_adjacency_sum() {
        let g = tiny();
        for u in 0..g.n_nodes() {
            let sum: f64 = g.neighbors(u).iter().map(|&(_, w)| w).sum();
            assert_eq!(g.weighted_degree(u).to_bits(), sum.to_bits(), "node {u}");
        }
        assert_eq!(g.weighted_degree(0), 100.0);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = tiny();
        for u in 0..g.n_nodes() {
            for &(v, w) in g.neighbors(u) {
                assert!(g
                    .neighbors(v)
                    .iter()
                    .any(|&(back, bw)| back == u && bw == w));
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            BipartiteGraph::from_samples(&[]).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn non_dense_ids_rejected() {
        let s = SignalSample::builder(7)
            .reading(MacAddr::from_u64(1), rssi(-50.0))
            .build();
        assert!(matches!(
            BipartiteGraph::from_samples(&[s]),
            Err(GraphError::NonDenseIds(_))
        ));
    }

    #[test]
    fn isolated_sample_allowed() {
        let s0 = SignalSample::builder(0).build(); // heard nothing
        let s1 = SignalSample::builder(1)
            .reading(MacAddr::from_u64(1), rssi(-50.0))
            .build();
        let g = BipartiteGraph::from_samples(&[s0, s1]).unwrap();
        assert_eq!(g.degree(0), 0);
        let comps = g.components();
        assert_ne!(comps[0], comps[1]);
    }

    #[test]
    fn weighted_sampling_prefers_strong_edges() {
        let g = tiny();
        // s0's neighbors: m1 (w=60), m2 (w=40). Expect ~60% m1.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let draws = g.sample_neighbors_weighted(&mut rng, 0, 50_000);
        let m1_node = g.mac_node(g.mac_id(MacAddr::from_u64(1)).unwrap());
        let frac = draws.iter().filter(|&&n| n == m1_node).count() as f64 / draws.len() as f64;
        assert!((frac - 0.6).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn uniform_sampling_ignores_weights() {
        let g = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let draws = g.sample_neighbors_uniform(&mut rng, 0, 50_000);
        let m1_node = g.mac_node(g.mac_id(MacAddr::from_u64(1)).unwrap());
        let frac = draws.iter().filter(|&&n| n == m1_node).count() as f64 / draws.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn sampling_isolated_node_is_empty() {
        let s0 = SignalSample::builder(0).build();
        let g = BipartiteGraph::from_samples(&[s0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(g.sample_neighbors_weighted(&mut rng, 0, 5).is_empty());
        assert!(g.sample_neighbors_uniform(&mut rng, 0, 5).is_empty());
    }

    #[test]
    fn components_connected_graph() {
        let g = tiny();
        let comps = g.components();
        assert!(comps.iter().all(|&c| c == comps[0]));
    }

    #[test]
    fn degrees_vector_matches() {
        let g = tiny();
        assert_eq!(g.degrees(), vec![2, 1, 1, 2]);
    }
}
