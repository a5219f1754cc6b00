//! Row-major dense matrix of `f64`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// The matrix owns its storage as a flat `Vec<f64>` of length
/// `rows * cols`. Element `(r, c)` lives at index `r * cols + c`.
///
/// # Example
///
/// ```
/// use fis_linalg::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>9.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Parallel [`Matrix::from_fn`] for pure element functions: rows are
    /// filled concurrently across the [`fis_parallel`] thread budget.
    ///
    /// Each element is still produced by exactly one `f(r, c)` call, so
    /// the result is identical to `from_fn` for any thread count.
    pub fn par_from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let mut m = Self::zeros(rows, cols);
        par_rows_mut(&mut m.data, cols, par_min_rows(cols), |r, row| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = f(r, c);
            }
        });
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix taking ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// Output rows are computed in parallel across the [`fis_parallel`]
    /// thread budget when the product is large enough. The blocked kernel
    /// walks `k` in quads with a register-strip inner loop over `j`, but
    /// every output element still receives its additions in ascending `k`
    /// with the same zero-skip as the naive i-k-j loop, so results are
    /// bit-identical to [`Matrix::matmul_naive`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let min_rows = par_min_rows(self.cols * rhs.cols);
        let out_cols = rhs.cols;
        par_rows_mut(&mut out.data, out_cols, min_rows, |i, out_row| {
            mm_row_kernel(
                &self.data[i * self.cols..(i + 1) * self.cols],
                &rhs.data,
                out_cols,
                out_row,
            );
        });
        out
    }

    /// Naive i-k-j reference for [`Matrix::matmul`] (the pre-blocking
    /// kernel, kept as the bit-for-bit determinism reference).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let min_rows = par_min_rows(self.cols * rhs.cols);
        let out_cols = rhs.cols;
        par_rows_mut(&mut out.data, out_cols, min_rows, |i, out_row| {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * out_cols..(k + 1) * out_cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// The blocked kernel processes a strip of output rows per pass so
    /// the strided column reads of `self` become one contiguous segment
    /// load per `k`; per output element the additions still run in
    /// ascending `k` with the naive zero-skip, so the result is
    /// bit-identical to [`Matrix::t_matmul_naive`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let min_rows = par_min_rows(self.rows * rhs.cols);
        let out_cols = rhs.cols;
        // Strip of output rows small enough that the strip plus one rhs
        // row stays L1-resident while we stream over k.
        const ROW_STRIP: usize = 8;
        fis_parallel::par_row_chunks_mut(&mut out.data, out_cols, min_rows, |first_row, chunk| {
            for (s, strip) in chunk.chunks_mut(ROW_STRIP * out_cols).enumerate() {
                let r0 = first_row + s * ROW_STRIP;
                let nr = strip.len() / out_cols;
                for k in 0..self.rows {
                    let a_seg = &self.data[k * self.cols + r0..k * self.cols + r0 + nr];
                    let b_row = &rhs.data[k * out_cols..(k + 1) * out_cols];
                    for (i, &a) in a_seg.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let out_row = &mut strip[i * out_cols..(i + 1) * out_cols];
                        for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += a * b;
                        }
                    }
                }
            }
        });
        out
    }

    /// Naive strided reference for [`Matrix::t_matmul`] (the pre-blocking
    /// kernel, kept as the bit-for-bit determinism reference).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let min_rows = par_min_rows(self.rows * rhs.cols);
        let out_cols = rhs.cols;
        par_rows_mut(&mut out.data, out_cols, min_rows, |i, out_row| {
            for k in 0..self.rows {
                let a = self.data[k * self.cols + i];
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * out_cols..(k + 1) * out_cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// The blocked kernel computes four output columns at a time with
    /// independent accumulators sharing each `self` row load; every
    /// accumulator is still one serial ascending-`k` chain, so the result
    /// is bit-identical to [`Matrix::matmul_t_naive`] for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let min_rows = par_min_rows(self.cols * rhs.rows);
        let out_cols = rhs.rows;
        par_rows_mut(&mut out.data, out_cols, min_rows, |i, out_row| {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let n = a_row.len();
            let j_quads = out_cols & !3;
            let mut j = 0;
            while j < j_quads {
                let b0 = &rhs.data[j * n..(j + 1) * n];
                let b1 = &rhs.data[(j + 1) * n..(j + 2) * n];
                let b2 = &rhs.data[(j + 2) * n..(j + 3) * n];
                let b3 = &rhs.data[(j + 3) * n..(j + 4) * n];
                let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0, 0.0, 0.0, 0.0);
                for k in 0..n {
                    let a = a_row[k];
                    acc0 += a * b0[k];
                    acc1 += a * b1[k];
                    acc2 += a * b2[k];
                    acc3 += a * b3[k];
                }
                out_row[j] = acc0;
                out_row[j + 1] = acc1;
                out_row[j + 2] = acc2;
                out_row[j + 3] = acc3;
                j += 4;
            }
            for (jj, o) in out_row.iter_mut().enumerate().skip(j_quads) {
                let b_row = &rhs.data[jj * n..(jj + 1) * n];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        });
        out
    }

    /// Naive per-element reference for [`Matrix::matmul_t`] (the
    /// pre-blocking kernel, kept as the bit-for-bit determinism
    /// reference).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let min_rows = par_min_rows(self.cols * rhs.rows);
        let out_cols = rhs.rows;
        par_rows_mut(&mut out.data, out_cols, min_rows, |i, out_row| {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        });
        out
    }

    /// Returns the transpose as a new matrix.
    ///
    /// Copies 8x8 tiles so both the source and destination walk whole
    /// cache lines instead of one striding per element. A pure copy:
    /// trivially bit-identical to the per-element version.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        const TILE: usize = 8;
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(self.cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += alpha * rhs` (the BLAS `axpy` on whole matrices).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm (`sqrt` of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// ℓ2 norm of each row.
    pub fn row_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect()
    }

    /// Normalizes each row to unit ℓ2 norm, leaving all-zero rows untouched.
    ///
    /// Rows with norm below `1e-12` are left as-is to avoid amplifying noise.
    pub fn l2_normalize_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = out.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for x in row {
                    *x /= norm;
                }
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs` (same row count).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat row count mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Vertically concatenates `self` and `rhs` (same column count).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vcat column count mismatch");
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix::from_vec(self.rows + rhs.rows, self.cols, data)
    }

    /// Gathers the given rows into a new matrix (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Maximum absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// One output row of `matmul`: `out_row += a_row * b` with `k` walked in
/// quads.
///
/// When all four `a` coefficients of a quad are nonzero, the unrolled
/// strip adds their four contributions per output element in one pass —
/// the same four additions, in the same ascending-`k` order, the naive
/// loop would perform, so the result is bit-identical. Any quad holding
/// a zero falls back to the per-`k` loop because *skipping* a zero
/// coefficient is observable: `0.0 * inf` is NaN and `-0.0 * x` can
/// flip the sign of a `-0.0` accumulator, so skipped terms must stay
/// skipped exactly as the naive kernel skips them.
fn mm_row_kernel(a_row: &[f64], b: &[f64], out_cols: usize, out_row: &mut [f64]) {
    let k_quads = a_row.len() & !3;
    let mut k = 0;
    while k < k_quads {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            let b0 = &b[k * out_cols..(k + 1) * out_cols];
            let b1 = &b[(k + 1) * out_cols..(k + 2) * out_cols];
            let b2 = &b[(k + 2) * out_cols..(k + 3) * out_cols];
            let b3 = &b[(k + 3) * out_cols..(k + 4) * out_cols];
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = *o;
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
                *o = acc;
            }
        } else {
            for (kk, &a) in a_row.iter().enumerate().take(k + 4).skip(k) {
                if a == 0.0 {
                    continue;
                }
                let b_row = &b[kk * out_cols..(kk + 1) * out_cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * bv;
                }
            }
        }
        k += 4;
    }
    for (kk, &a) in a_row.iter().enumerate().skip(k_quads) {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[kk * out_cols..(kk + 1) * out_cols];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += a * bv;
        }
    }
}

/// Minimum rows per thread so a parallel region amortizes its spawn
/// cost: aim for at least ~64k flops of work per worker.
fn par_min_rows(work_per_row: usize) -> usize {
    (65_536 / work_per_row.max(1)).max(1)
}

/// Runs `f(row_index, row_slice)` over every row of a flat row-major
/// buffer, splitting rows across the thread budget.
fn par_rows_mut(
    data: &mut [f64],
    cols: usize,
    min_rows_per_thread: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    fis_parallel::par_row_chunks_mut(data, cols, min_rows_per_thread, |first_row, chunk| {
        for (k, row) in chunk.chunks_mut(cols).enumerate() {
            f(first_row + k, row);
        }
    });
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (10 * r + c) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 + 1.0);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c) as f64 - 1.0);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, 0.25]]);
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[&[2.0, 1.0], &[3.0, 1.0]])
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
    }

    #[test]
    fn l2_normalize_rows_unit_norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1.0, 0.0]]);
        let n = a.l2_normalize_rows();
        let norms = n.row_norms();
        assert!((norms[0] - 1.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0); // zero row untouched
        assert!((norms[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hcat_vcat_shapes_and_content() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hcat(&b);
        assert_eq!(h, Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        let v = a.vcat(&b);
        assert_eq!(v, Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn gather_rows_repeats_allowed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(
            g,
            Matrix::from_rows(&[&[3.0, 4.0], &[3.0, 4.0], &[1.0, 2.0]])
        );
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_mean() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn operators_add_sub_neg() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 4.0));
        assert_eq!(&a - &b, Matrix::filled(2, 2, 2.0));
        assert_eq!(-&b, Matrix::filled(2, 2, -1.0));
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, Matrix::filled(2, 2, 4.0));
    }

    #[test]
    fn parallel_products_bit_identical_to_serial() {
        // Large enough to cross the parallel threshold. Serial reference
        // is obtained by forcing a budget of one thread.
        let a = Matrix::from_fn(120, 90, |r, c| ((r * 31 + c * 17) % 97) as f64 / 7.0 - 3.0);
        let b = Matrix::from_fn(90, 110, |r, c| ((r * 13 + c * 29) % 89) as f64 / 5.0 - 4.0);
        fis_parallel::set_thread_budget(1);
        let serial = (a.matmul(&b), a.t_matmul(&a), a.matmul_t(&a));
        fis_parallel::set_thread_budget(4);
        let parallel = (a.matmul(&b), a.t_matmul(&a), a.matmul_t(&a));
        fis_parallel::set_thread_budget(0);
        // Bit-identical, not merely close.
        assert_eq!(serial.0.as_slice(), parallel.0.as_slice());
        assert_eq!(serial.1.as_slice(), parallel.1.as_slice());
        assert_eq!(serial.2.as_slice(), parallel.2.as_slice());
    }

    /// Dense-ish values with zeros, `-0.0`, and a non-multiple-of-4 inner
    /// dimension: every quad fast-path and fallback branch gets exercised.
    fn adversarial(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = r * 31 + c * 17 + salt;
            match h % 11 {
                0 => 0.0,
                1 => -0.0,
                _ => (h % 97) as f64 / 7.0 - 6.0,
            }
        })
    }

    #[test]
    fn blocked_kernels_bit_identical_to_naive() {
        // Shapes chosen so k and j are NOT multiples of 4 (tail paths) and
        // cross the parallel threshold at least once.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (13, 9, 11), (70, 65, 66)] {
            let a = adversarial(m, k, 0);
            let b = adversarial(k, n, 3);
            let bt = adversarial(n, k, 5);
            let at = adversarial(k, m, 7);
            assert_eq!(
                a.matmul(&b).as_slice(),
                a.matmul_naive(&b).as_slice(),
                "matmul {m}x{k}*{k}x{n}"
            );
            assert_eq!(
                at.t_matmul(&b).as_slice(),
                at.t_matmul_naive(&b).as_slice(),
                "t_matmul ({k}x{m})^T*{k}x{n}"
            );
            assert_eq!(
                a.matmul_t(&bt).as_slice(),
                a.matmul_t_naive(&bt).as_slice(),
                "matmul_t {m}x{k}*({n}x{k})^T"
            );
            let t_naive = Matrix::from_fn(a.cols(), a.rows(), |r, c| a[(c, r)]);
            assert_eq!(a.transpose().as_slice(), t_naive.as_slice());
        }
    }

    #[test]
    fn blocked_kernels_preserve_nonfinite_semantics() {
        // A zero coefficient must SKIP its b-row: 0.0 * inf would be NaN.
        let mut a = adversarial(6, 9, 1);
        a[(0, 4)] = 0.0;
        a[(1, 0)] = f64::INFINITY;
        a[(2, 3)] = f64::NAN;
        let mut b = adversarial(9, 6, 2);
        b[(4, 0)] = f64::INFINITY;
        b[(4, 1)] = f64::NAN;
        let fast = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        // NaN != NaN, so compare bit patterns.
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&naive));
        assert_eq!(bits(&a.t_matmul(&a)), bits(&a.t_matmul_naive(&a)));
        assert_eq!(bits(&b.t_matmul(&b)), bits(&b.t_matmul_naive(&b)));
        let bt = b.transpose();
        assert_eq!(bits(&a.matmul_t(&bt)), bits(&a.matmul_t_naive(&bt)));
    }

    #[test]
    fn negative_zero_accumulators_match_naive() {
        // out starts at +0.0; products of -0.0 rows exercise signed-zero
        // accumulation in both kernels.
        let a = Matrix::from_fn(5, 8, |r, c| if (r + c) % 2 == 0 { -0.0 } else { -1.0 });
        let b = Matrix::from_fn(8, 5, |r, c| if (r * c) % 3 == 0 { 0.0 } else { 2.0 });
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_naive(&b)));
    }

    #[test]
    fn par_from_fn_matches_from_fn() {
        let f = |r: usize, c: usize| (r * 1000 + c) as f64 * 0.5;
        let serial = Matrix::from_fn(200, 40, f);
        let parallel = Matrix::par_from_fn(200, 40, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }
}
