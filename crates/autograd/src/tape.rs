//! The computation tape: forward ops and reverse-mode accumulation.

use std::sync::Arc;

use fis_linalg::func;
use fis_linalg::Matrix;

/// Handle to a value stored on a [`Tape`].
///
/// `Var`s are cheap indices; they are only meaningful for the tape that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Weighted row groups for [`Tape::aggregate`], stored in a flat CSR-style
/// layout (`row i` spans `entries[offsets[i]..offsets[i + 1]]`) so building
/// one per minibatch costs two allocations instead of one per output row.
///
/// Entry order within a row is the accumulation order of the weighted sum,
/// so it is part of the deterministic-output contract.
#[derive(Debug, Clone)]
pub struct RowGroups {
    offsets: Vec<u32>,
    entries: Vec<(u32, f64)>,
}

impl Default for RowGroups {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl RowGroups {
    /// An empty group set with room for `rows` rows and `entries` total
    /// weighted references.
    pub fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            entries: Vec::with_capacity(entries),
        }
    }

    /// Appends one `(row index, weight)` entry to the row currently being
    /// built; call [`RowGroups::finish_row`] to close it.
    pub fn push_entry(&mut self, idx: usize, w: f64) {
        self.entries
            .push((u32::try_from(idx).expect("row index fits u32"), w));
    }

    /// Closes the current output row.
    pub fn finish_row(&mut self) {
        self.offsets
            .push(u32::try_from(self.entries.len()).expect("entry count fits u32"));
    }

    /// Removes every row, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.entries.clear();
    }

    /// Builds from nested per-row entry lists (test/convenience path).
    pub fn from_nested(nested: &[Vec<(usize, f64)>]) -> Self {
        let total = nested.iter().map(Vec::len).sum();
        let mut g = Self::with_capacity(nested.len(), total);
        for row in nested {
            for &(idx, w) in row {
                g.push_entry(idx, w);
            }
            g.finish_row();
        }
        g
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The entries of output row `i`, in accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Operation recorded by a tape node, referencing parent nodes by index.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f64),
    AddRowBroadcast(Var, Var),
    HCat(Var, Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Ln(Var),
    Square(Var),
    L2NormRows(Var),
    GatherRows(Var, Arc<Vec<usize>>),
    /// Per-output-row weighted sum of input rows:
    /// `out[i] = Σ_j w_ij * input[idx_ij]`.
    Aggregate(Var, Arc<RowGroups>),
    RowwiseDot(Var, Var),
    /// Fused `rowwise_dot(gather_rows(a, i), gather_rows(a, j))` that
    /// never materializes the gathered copies.
    GatherDot(Var, Arc<Vec<usize>>, Arc<Vec<usize>>),
    NegLogSigmoid(Var),
    SumAll(Var),
    MeanAll(Var),
    /// DEC-style clustering KL loss between the Student-t soft assignment of
    /// embeddings `z` to centroids `mu` and a fixed target distribution `p`.
    DecLoss(Var, Var, Arc<Matrix>),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    /// `None` until this node receives its first gradient contribution
    /// during [`Tape::backward`]. Keeping the untouched state implicit
    /// lets the reverse sweep skip dead branches in O(1) instead of
    /// zero-scanning (and re-zeroing) every node's gradient buffer.
    grad: Option<Matrix>,
    op: Op,
    /// Cached auxiliary forward result needed by some backward rules
    /// (e.g. the soft-assignment matrix Q for [`Op::DecLoss`]).
    aux: Option<Matrix>,
}

/// A single-use reverse-mode computation graph.
///
/// Typical lifecycle per training step: create a tape, insert parameters
/// with [`Tape::leaf`], build the loss, call [`Tape::backward`], read
/// parameter gradients with [`Tape::grad`], then drop the tape.
///
/// # Example
///
/// ```
/// use fis_autograd::Tape;
/// use fis_linalg::Matrix;
///
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::filled(1, 3, 2.0));
/// let y = t.square(x);
/// let s = t.sum_all(y);
/// t.backward(s);
/// assert_eq!(t.grad(x).row(0), &[4.0, 4.0, 4.0]);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            aux: None,
        });
        Var(self.nodes.len() - 1)
    }

    fn push_with_aux(&mut self, value: Matrix, op: Op, aux: Matrix) -> Var {
        let v = self.push(value, op);
        self.nodes[v.0].aux = Some(aux);
        v
    }

    /// Current forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the last [`Tape::backward`] loss w.r.t. `v`.
    ///
    /// All-zero for nodes the loss does not depend on.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Tape::backward`]: gradients are not
    /// materialized until the reverse sweep runs.
    pub fn grad(&self, v: Var) -> &Matrix {
        self.nodes[v.0]
            .grad
            .as_ref()
            .expect("grad() called before backward()")
    }

    /// Inserts an input/parameter matrix as a leaf node.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of two same-shape matrices.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value - &self.nodes[b.0].value;
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(v, Op::Mul(a, b))
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let v = self.nodes[a.0].value.scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a `1 x d` bias row to every row of an `n x d` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x d`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        assert_eq!(bv.rows(), 1, "bias must have exactly one row");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let mut out = av.clone();
        for r in 0..out.rows() {
            fis_linalg::vec_ops::axpy(out.row_mut(r), 1.0, bv.row(0));
        }
        self.push(out, Op::AddRowBroadcast(a, bias))
    }

    /// Horizontal concatenation `[a | b]` (same row count).
    pub fn hcat(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hcat(&self.nodes[b.0].value);
        self.push(v, Op::HCat(a, b))
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(func::relu);
        self.push(v, Op::Relu(a))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(func::sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise natural logarithm.
    ///
    /// Inputs are clamped to `>= 1e-300` to keep the forward value finite;
    /// callers should still ensure logical positivity.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(1e-300).ln());
        self.push(v, Op::Ln(a))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Normalizes each row to unit ℓ2 norm (rows with norm < 1e-12 pass
    /// through unchanged). This is RF-GNN's per-hop normalization
    /// `r_i := r_i / ||r_i||_2`.
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.l2_normalize_rows();
        self.push(v, Op::L2NormRows(a))
    }

    /// Gathers rows `indices` of `a` (repeats allowed) into a new matrix.
    pub fn gather_rows(&mut self, a: Var, indices: Arc<Vec<usize>>) -> Var {
        let v = self.nodes[a.0].value.gather_rows(&indices);
        self.push(v, Op::GatherRows(a, indices))
    }

    /// Weighted neighborhood aggregation: output row `i` is
    /// `Σ_j w_ij * a[idx_ij]`. This is RF-GNN's `AGGREGATE_w` with the RSS
    /// attention weights baked into `groups`.
    ///
    /// # Panics
    ///
    /// Panics if any referenced row index is out of bounds.
    pub fn aggregate(&mut self, a: Var, groups: Arc<RowGroups>) -> Var {
        let av = &self.nodes[a.0].value;
        let d = av.cols();
        let rows = av.rows();
        let flat = av.as_slice();
        let mut out = vec![0.0; groups.rows() * d];
        for i in 0..groups.rows() {
            let dst = &mut out[i * d..(i + 1) * d];
            for &(idx, w) in groups.row(i) {
                let idx = idx as usize;
                assert!(idx < rows, "aggregate index {idx} out of bounds");
                let src = &flat[idx * d..idx * d + d];
                for (o, &x) in dst.iter_mut().zip(src) {
                    *o += w * x;
                }
            }
        }
        let out = Matrix::from_vec(groups.rows(), d, out);
        self.push(out, Op::Aggregate(a, groups))
    }

    /// Row-wise dot products of two `n x d` matrices, producing `n x 1`.
    ///
    /// Used for the skip-gram scores `r_i · r_j` of the unsupervised loss.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "rowwise_dot shape mismatch");
        let v = Matrix::from_fn(av.rows(), 1, |r, _| {
            fis_linalg::vec_ops::dot(av.row(r), bv.row(r))
        });
        self.push(v, Op::RowwiseDot(a, b))
    }

    /// Fused `rowwise_dot(gather_rows(a, i_idx), gather_rows(a, j_idx))`,
    /// producing `|i_idx| x 1` scores without materializing the two
    /// gathered matrices.
    ///
    /// Forward rows are the same `dot` over the same source rows the
    /// unfused chain computes, and backward performs the j-side scatter
    /// and the i-side scatter as two separate accumulations in the order
    /// the unfused tape nodes would have run them, so results (values
    /// and gradients) are bit-identical to the three-op spelling.
    ///
    /// # Panics
    ///
    /// Panics if the index lists differ in length or any index is out of
    /// bounds.
    pub fn gathered_rowwise_dot(
        &mut self,
        a: Var,
        i_idx: Arc<Vec<usize>>,
        j_idx: Arc<Vec<usize>>,
    ) -> Var {
        assert_eq!(
            i_idx.len(),
            j_idx.len(),
            "gathered_rowwise_dot length mismatch"
        );
        let cols = self.nodes[a.0].value.cols();
        let av = self.nodes[a.0].value.as_slice();
        let data: Vec<f64> = i_idx
            .iter()
            .zip(j_idx.iter())
            .map(|(&ir, &jr)| {
                fis_linalg::vec_ops::dot(
                    &av[ir * cols..ir * cols + cols],
                    &av[jr * cols..jr * cols + cols],
                )
            })
            .collect();
        let v = Matrix::from_vec(i_idx.len(), 1, data);
        self.push(v, Op::GatherDot(a, i_idx, j_idx))
    }

    /// Element-wise `-log σ(x)`, the building block of the negative-sampling
    /// loss `L_G` (§III-B). Computed as `softplus(-x)` for stability.
    pub fn neg_log_sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| func::softplus(-x));
        self.push(v, Op::NegLogSigmoid(a))
    }

    /// Sum of all elements, producing a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_rows(&[&[self.nodes[a.0].value.sum()]]);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements, producing a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty.
    pub fn mean_all(&mut self, a: Var) -> Var {
        assert!(
            !self.nodes[a.0].value.is_empty(),
            "mean_all of empty matrix"
        );
        let v = Matrix::from_rows(&[&[self.nodes[a.0].value.mean()]]);
        self.push(v, Op::MeanAll(a))
    }

    /// Scalar value of a `1 x 1` variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not `1 x 1`.
    pub fn scalar(&self, v: Var) -> f64 {
        let m = &self.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar() needs a 1x1 value");
        m[(0, 0)]
    }

    /// DEC-style clustering loss `KL(P || Q)` where
    /// `q_ij ∝ (1 + ||z_i - mu_j||²)^{-1}` is the Student-t soft assignment
    /// of embedding rows `z` to centroid rows `mu`, and `p` is the fixed
    /// target distribution. Returns a `1 x 1` loss.
    ///
    /// Gradients flow to both `z` and `mu` using the closed form from the
    /// DEC paper. This powers the self-supervised clustering modules of the
    /// SDCN and DAEGC baselines.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or `p` rows are not distributions.
    pub fn dec_loss(&mut self, z: Var, mu: Var, p: Arc<Matrix>) -> Var {
        let zv = &self.nodes[z.0].value;
        let muv = &self.nodes[mu.0].value;
        let (n, d) = zv.shape();
        let k = muv.rows();
        assert_eq!(muv.cols(), d, "centroid dimension mismatch");
        assert_eq!(p.shape(), (n, k), "target distribution shape mismatch");

        let q = student_t_assignment(zv, muv);
        let mut loss = 0.0;
        for i in 0..n {
            for j in 0..k {
                let pij = p[(i, j)];
                if pij > 0.0 {
                    loss += pij * (pij.max(1e-300).ln() - q[(i, j)].max(1e-300).ln());
                }
            }
        }
        let value = Matrix::from_rows(&[&[loss]]);
        self.push_with_aux(value, Op::DecLoss(z, mu, p), q)
    }

    /// Accumulates an owned gradient contribution into node `v`.
    ///
    /// The first contribution is finished with a `+ 0.0` pass so the
    /// stored bits match what the historical `zeros += contrib`
    /// accumulation produced (IEEE addition normalizes `-0.0` to `+0.0`
    /// against a `+0.0` accumulator and is commutative for finite and
    /// infinite values).
    fn accum(&mut self, v: Var, contrib: Matrix) {
        match self.nodes[v.0].grad.take() {
            Some(mut g) => {
                g += &contrib;
                self.nodes[v.0].grad = Some(g);
            }
            None => {
                let mut c = contrib;
                c.map_inplace(|x| x + 0.0);
                self.nodes[v.0].grad = Some(c);
            }
        }
    }

    /// `grad[v] += alpha * src`, without materializing zeros when `v` has
    /// no gradient yet (same bit-compat argument as [`Tape::accum`]).
    fn accum_scaled(&mut self, v: Var, alpha: f64, src: &Matrix) {
        match self.nodes[v.0].grad.take() {
            Some(mut g) => {
                g.axpy(alpha, src);
                self.nodes[v.0].grad = Some(g);
            }
            None => {
                self.nodes[v.0].grad = Some(src.map(|x| alpha * x + 0.0));
            }
        }
    }

    /// Runs reverse-mode accumulation from scalar node `loss`.
    ///
    /// Gradients of all nodes are reset first, so a tape can be re-run
    /// against a different loss node if desired. Nodes the loss does not
    /// depend on are skipped in O(1) during the sweep and receive a zero
    /// gradient at the end.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 x 1` value.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) loss"
        );
        for node in &mut self.nodes {
            node.grad = None;
        }
        self.nodes[loss.0].grad = Some(Matrix::from_rows(&[&[1.0]]));

        for i in (0..=loss.0).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                // The loss never reached this node: nothing to propagate.
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = grad.matmul_t(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.t_matmul(&grad);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Add(a, b) => {
                    self.accum_scaled(a, 1.0, &grad);
                    self.accum_scaled(b, 1.0, &grad);
                }
                Op::Sub(a, b) => {
                    self.accum_scaled(a, 1.0, &grad);
                    self.accum_scaled(b, -1.0, &grad);
                }
                Op::Mul(a, b) => {
                    let da = grad.hadamard(&self.nodes[b.0].value);
                    let db = grad.hadamard(&self.nodes[a.0].value);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Scale(a, s) => {
                    self.accum_scaled(a, s, &grad);
                }
                Op::AddRowBroadcast(a, bias) => {
                    let cols = grad.cols();
                    let mut db = Matrix::zeros(1, cols);
                    for r in 0..grad.rows() {
                        fis_linalg::vec_ops::axpy(db.row_mut(0), 1.0, grad.row(r));
                    }
                    self.accum_scaled(a, 1.0, &grad);
                    self.accum(bias, db);
                }
                Op::HCat(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let rows = grad.rows();
                    let cb = grad.cols() - ca;
                    let mut da = Matrix::zeros(rows, ca);
                    let mut db = Matrix::zeros(rows, cb);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&grad.row(r)[..ca]);
                        db.row_mut(r).copy_from_slice(&grad.row(r)[ca..]);
                    }
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Relu(a) => {
                    // Fused g * relu'(x): one pass, same per-element
                    // product (including the ±0.0 of g * 0.0) as the old
                    // mask-then-hadamard pair.
                    let da = zip_map(&grad, &self.nodes[a.0].value, |g, x| g * func::relu_grad(x));
                    self.accum(a, da);
                }
                Op::Sigmoid(a) => {
                    let da = zip_map(&grad, &self.nodes[i].value, |g, s| g * (s * (1.0 - s)));
                    self.accum(a, da);
                }
                Op::Tanh(a) => {
                    let da = zip_map(&grad, &self.nodes[i].value, |g, t| g * (1.0 - t * t));
                    self.accum(a, da);
                }
                Op::Ln(a) => {
                    let da = zip_map(&grad, &self.nodes[a.0].value, |g, x| {
                        g * (1.0 / x.max(1e-300))
                    });
                    self.accum(a, da);
                }
                Op::Square(a) => {
                    let da = zip_map(&grad, &self.nodes[a.0].value, |g, x| g * (x * 2.0));
                    self.accum(a, da);
                }
                Op::L2NormRows(a) => {
                    let x = &self.nodes[a.0].value;
                    let y = &self.nodes[i].value;
                    let mut da = Matrix::zeros(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        let norm = fis_linalg::vec_ops::norm(x.row(r));
                        if norm > 1e-12 {
                            let g = grad.row(r);
                            let yr = y.row(r);
                            let gy = fis_linalg::vec_ops::dot(g, yr);
                            for c in 0..x.cols() {
                                da[(r, c)] = (g[c] - yr[c] * gy) / norm;
                            }
                        } else {
                            // Pass-through rows were copied unchanged.
                            da.row_mut(r).copy_from_slice(grad.row(r));
                        }
                    }
                    self.accum(a, da);
                }
                Op::GatherRows(a, indices) => {
                    let cols = grad.cols();
                    let rows = self.nodes[a.0].value.rows();
                    let g = grad.as_slice();
                    let mut da = vec![0.0; rows * cols];
                    for (r, &idx) in indices.iter().enumerate() {
                        let src = &g[r * cols..r * cols + cols];
                        let dst = &mut da[idx * cols..idx * cols + cols];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    self.accum(a, Matrix::from_vec(rows, cols, da));
                }
                Op::Aggregate(a, groups) => {
                    let cols = grad.cols();
                    let rows = self.nodes[a.0].value.rows();
                    let g = grad.as_slice();
                    let mut da = vec![0.0; rows * cols];
                    for r in 0..groups.rows() {
                        let src = &g[r * cols..r * cols + cols];
                        for &(idx, w) in groups.row(r) {
                            let idx = idx as usize;
                            let dst = &mut da[idx * cols..idx * cols + cols];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += w * s;
                            }
                        }
                    }
                    self.accum(a, Matrix::from_vec(rows, cols, da));
                }
                Op::RowwiseDot(a, b) => {
                    let (da, db) = {
                        let av = &self.nodes[a.0].value;
                        let bv = &self.nodes[b.0].value;
                        let mut da = Matrix::zeros(av.rows(), av.cols());
                        let mut db = Matrix::zeros(av.rows(), av.cols());
                        for r in 0..av.rows() {
                            let g = grad[(r, 0)];
                            fis_linalg::vec_ops::axpy(da.row_mut(r), g, bv.row(r));
                            fis_linalg::vec_ops::axpy(db.row_mut(r), g, av.row(r));
                        }
                        (da, db)
                    };
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::GatherDot(a, i_idx, j_idx) => {
                    // Mirror the unfused gather→rowwise_dot chain: the
                    // j-side gather was the later tape node, so its
                    // scatter accumulates first, and the two sides stay
                    // separate accumulations to preserve the historical
                    // grouping of additions.
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    // Scatter over flat slices: same `+= g * x` per-element
                    // order as the row-wise axpy formulation, minus the
                    // per-row bounds checks this loop was dominated by.
                    let g = grad.as_slice();
                    let dj = {
                        let av = self.nodes[a.0].value.as_slice();
                        let mut dj = vec![0.0; rows * cols];
                        for (r, (&ir, &jr)) in i_idx.iter().zip(j_idx.iter()).enumerate() {
                            let gv = g[r];
                            let src = &av[ir * cols..ir * cols + cols];
                            let dst = &mut dj[jr * cols..jr * cols + cols];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += gv * s;
                            }
                        }
                        Matrix::from_vec(rows, cols, dj)
                    };
                    self.accum(a, dj);
                    let di = {
                        let av = self.nodes[a.0].value.as_slice();
                        let mut di = vec![0.0; rows * cols];
                        for (r, (&ir, &jr)) in i_idx.iter().zip(j_idx.iter()).enumerate() {
                            let gv = g[r];
                            let src = &av[jr * cols..jr * cols + cols];
                            let dst = &mut di[ir * cols..ir * cols + cols];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += gv * s;
                            }
                        }
                        Matrix::from_vec(rows, cols, di)
                    };
                    self.accum(a, di);
                }
                Op::NegLogSigmoid(a) => {
                    // d/dx softplus(-x) = -σ(-x) = σ(x) - 1
                    let da = zip_map(&grad, &self.nodes[a.0].value, |g, x| {
                        g * (func::sigmoid(x) - 1.0)
                    });
                    self.accum(a, da);
                }
                Op::SumAll(a) => {
                    let g = grad[(0, 0)];
                    let (r, c) = self.nodes[a.0].value.shape();
                    self.accum(a, Matrix::filled(r, c, g));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let g = grad[(0, 0)] / (r * c) as f64;
                    self.accum(a, Matrix::filled(r, c, g));
                }
                Op::DecLoss(z, mu, p) => {
                    let g = grad[(0, 0)];
                    let (dz, dmu) = {
                        let q = self.nodes[i].aux.as_ref().expect("DecLoss aux missing");
                        let zv = &self.nodes[z.0].value;
                        let muv = &self.nodes[mu.0].value;
                        let (n, d) = zv.shape();
                        let k = muv.rows();
                        let mut dz = Matrix::zeros(n, d);
                        let mut dmu = Matrix::zeros(k, d);
                        // dL/dz_i = 2 Σ_j (1+||z_i-mu_j||²)^{-1} (p_ij - q_ij)(z_i - mu_j)
                        // (KL(P||Q) gradient; dmu is the negative scatter.)
                        for ii in 0..n {
                            for j in 0..k {
                                let diff: Vec<f64> =
                                    (0..d).map(|c| zv[(ii, c)] - muv[(j, c)]).collect();
                                let dist_sq: f64 = diff.iter().map(|x| x * x).sum();
                                let coef = 2.0 * (p[(ii, j)] - q[(ii, j)]) / (1.0 + dist_sq) * g;
                                for c in 0..d {
                                    dz[(ii, c)] += coef * diff[c];
                                    dmu[(j, c)] -= coef * diff[c];
                                }
                            }
                        }
                        (dz, dmu)
                    };
                    self.accum(z, dz);
                    self.accum(mu, dmu);
                }
            }
            self.nodes[i].grad = Some(grad);
        }

        // Unreached nodes still expose an all-zero gradient, matching the
        // pre-Option API.
        for node in &mut self.nodes {
            if node.grad.is_none() {
                let (r, c) = node.value.shape();
                node.grad = Some(Matrix::zeros(r, c));
            }
        }
    }
}

/// Element-wise `f(a_ij, b_ij)` over two same-shape matrices, fusing what
/// would otherwise be a map allocation followed by a hadamard pass.
fn zip_map(a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "zip_map shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Student-t (df = 1) soft assignment of rows of `z` to centroid rows `mu`:
/// `q_ij ∝ (1 + ||z_i - mu_j||²)^{-1}`, rows normalized to sum to one.
///
/// Shared by [`Tape::dec_loss`] and the baselines' target-distribution
/// refresh step.
pub fn student_t_assignment(z: &Matrix, mu: &Matrix) -> Matrix {
    let n = z.rows();
    let k = mu.rows();
    let mut q = Matrix::zeros(n, k);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..k {
            let dist_sq = fis_linalg::vec_ops::euclidean_sq(z.row(i), mu.row(j));
            let val = 1.0 / (1.0 + dist_sq);
            q[(i, j)] = val;
            row_sum += val;
        }
        for j in 0..k {
            q[(i, j)] /= row_sum;
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_is_send_and_sync() {
        // The tape's op payloads are Arc-shared, so whole tapes (and the
        // models built on them) can cross thread boundaries in the
        // parallel engine.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tape>();
        assert_send_sync::<Var>();
    }

    #[test]
    fn leaf_value_round_trip() {
        let mut t = Tape::new();
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let v = t.leaf(m.clone());
        assert_eq!(t.value(v), &m);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn matmul_gradients_match_formula() {
        // loss = sum(A B); dA = 1 * B^T, dB = A^T * 1
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        assert_eq!(
            t.grad(a),
            &Matrix::from_rows(&[&[11.0, 15.0], &[11.0, 15.0]])
        );
        assert_eq!(t.grad(b), &Matrix::from_rows(&[&[4.0, 4.0], &[6.0, 6.0]]));
    }

    #[test]
    fn chain_through_sigmoid() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.0]]));
        let y = t.sigmoid(x);
        let loss = t.sum_all(y);
        t.backward(loss);
        // σ'(0) = 0.25
        assert!((t.grad(x)[(0, 0)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diamond_reuse_accumulates() {
        // loss = sum(x*x + x) ; dx = 2x + 1
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[3.0]]));
        let sq = t.mul(x, x);
        let s = t.add(sq, x);
        let loss = t.sum_all(s);
        t.backward(loss);
        assert!((t.grad(x)[(0, 0)] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]));
        let g = t.gather_rows(x, Arc::new(vec![0, 0, 2]));
        let loss = t.sum_all(g);
        t.backward(loss);
        assert_eq!(
            t.grad(x),
            &Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0], &[1.0, 1.0]])
        );
    }

    #[test]
    fn row_groups_default_and_clear_leave_no_rows() {
        assert_eq!(RowGroups::default().rows(), 0);
        let mut g = RowGroups::from_nested(&[vec![(0, 0.5), (2, 0.5)], vec![(1, 1.0)]]);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.row(1), &[(1, 1.0)]);
        g.clear();
        assert_eq!(g.rows(), 0);
        g.push_entry(3, 2.0);
        g.finish_row();
        assert_eq!(g.rows(), 1);
        assert_eq!(g.row(0), &[(3, 2.0)]);
    }

    #[test]
    fn aggregate_forward_and_backward() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let groups = Arc::new(RowGroups::from_nested(&[vec![(0, 0.25), (1, 0.75)]]));
        let agg = t.aggregate(x, groups);
        assert_eq!(t.value(agg), &Matrix::from_rows(&[&[0.25, 0.75]]));
        let loss = t.sum_all(agg);
        t.backward(loss);
        assert_eq!(
            t.grad(x),
            &Matrix::from_rows(&[&[0.25, 0.25], &[0.75, 0.75]])
        );
    }

    #[test]
    fn rowwise_dot_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let d = t.rowwise_dot(a, b);
        assert_eq!(t.value(d)[(0, 0)], 11.0);
        let loss = t.sum_all(d);
        t.backward(loss);
        assert_eq!(t.grad(a), &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(t.grad(b), &Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn neg_log_sigmoid_is_softplus_neg() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.0]]));
        let y = t.neg_log_sigmoid(x);
        assert!((t.value(y)[(0, 0)] - std::f64::consts::LN_2).abs() < 1e-12);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert!((t.grad(x)[(0, 0)] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn l2_normalize_grad_orthogonal_to_output() {
        // For unit-output y, the Jacobian projects out the y direction, so
        // grad(x) · y == 0 when upstream grad is arbitrary.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let y = t.l2_normalize_rows(x);
        // loss = first component of y
        let pick = t.leaf(Matrix::from_rows(&[&[1.0], &[0.0]]));
        let first = t.matmul(y, pick);
        let loss = t.sum_all(first);
        t.backward(loss);
        let yv = t.value(y).row(0).to_vec();
        let gx = t.grad(x).row(0).to_vec();
        let dot = fis_linalg::vec_ops::dot(&yv, &gx);
        assert!(dot.abs() < 1e-12, "dot={dot}");
    }

    #[test]
    fn hcat_splits_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[2.0, 3.0]]));
        let h = t.hcat(a, b);
        let w = t.leaf(Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]));
        let y = t.matmul(h, w);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(a)[(0, 0)], 1.0);
        assert_eq!(t.grad(b), &Matrix::from_rows(&[&[10.0, 100.0]]));
    }

    #[test]
    fn add_row_broadcast_backward_sums_rows() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(3, 2));
        let b = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = t.add_row_broadcast(x, b);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(b), &Matrix::from_rows(&[&[3.0, 3.0]]));
    }

    #[test]
    fn mean_all_divides_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::filled(2, 2, 1.0));
        let m = t.mean_all(x);
        t.backward(m);
        assert_eq!(t.grad(x), &Matrix::filled(2, 2, 0.25));
    }

    #[test]
    fn student_t_rows_are_distributions() {
        let z = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[5.0, 5.0]]);
        let mu = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 5.0]]);
        let q = student_t_assignment(&z, &mu);
        for r in 0..3 {
            let s: f64 = q.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Nearest centroid gets the larger share.
        assert!(q[(0, 0)] > q[(0, 1)]);
        assert!(q[(2, 1)] > q[(2, 0)]);
    }

    #[test]
    fn dec_loss_zero_when_q_equals_p() {
        let mut t = Tape::new();
        let z = t.leaf(Matrix::from_rows(&[&[0.0, 0.0], &[4.0, 4.0]]));
        let mu = t.leaf(Matrix::from_rows(&[&[0.0, 0.0], &[4.0, 4.0]]));
        let q = student_t_assignment(t.value(z), t.value(mu));
        let loss = t.dec_loss(z, mu, Arc::new(q));
        assert!(t.scalar(loss).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scalar (1x1) loss")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }

    #[test]
    fn backward_twice_resets_grads() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[2.0]]));
        let y = t.square(x);
        let loss = t.sum_all(y);
        t.backward(loss);
        t.backward(loss);
        assert!((t.grad(x)[(0, 0)] - 4.0).abs() < 1e-12);
    }
}
