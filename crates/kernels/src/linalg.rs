//! A small dense, dynamically sized matrix with the solvers the EKF and LQR
//! kernels need: multiplication, transpose, Cholesky and LU decomposition,
//! and inversion for modest sizes.
//!
//! This is not a general-purpose linear-algebra library; it is the exact
//! substrate `m7-kernels` needs, implemented with plain row-major `Vec<f64>`
//! storage so cost models can reason about its memory traffic.

/// Errors from matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible with the operation.
    DimensionMismatch {
        /// Rows/columns expected by the operation.
        expected: (usize, usize),
        /// Rows/columns actually provided.
        found: (usize, usize),
    },
    /// The matrix is singular (or not positive-definite for Cholesky).
    Singular,
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            Self::Singular => write!(f, "matrix is singular or not positive-definite"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use m7_kernels::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.mul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n`×`n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a diagonal matrix from the given values.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty.
    #[must_use]
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a column vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn column(values: &[f64]) -> Self {
        let mut m = Self::zeros(values.len(), 1);
        m.data.copy_from_slice(values);
        m
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major data.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Checked element access.
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row = k * rhs.cols;
                let out_row = i * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[row + j];
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        Ok(out)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.shape(),
                found: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        Ok(out)
    }

    /// Scales every element by `s`.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Self {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Solves `self * x = b` via LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self` is not square or
    /// `b.rows() != self.rows()`, and [`LinalgError::Singular`] if no unique
    /// solution exists.
    pub fn solve(&self, b: &Self) -> Result<Self, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.rows),
                found: self.shape(),
            });
        }
        if b.rows != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, b.cols),
                found: b.shape(),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut x = b.clone();
        // Gaussian elimination with partial pivoting, applied to b in lockstep.
        for col in 0..n {
            let mut pivot = col;
            let mut best = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot != col {
                for j in 0..n {
                    lu.swap(col * n + j, pivot * n + j);
                }
                for j in 0..x.cols {
                    x.data.swap(col * x.cols + j, pivot * x.cols + j);
                }
            }
            let d = lu[col * n + col];
            for r in (col + 1)..n {
                let factor = lu[r * n + col] / d;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    lu[r * n + j] -= factor * lu[col * n + j];
                }
                for j in 0..x.cols {
                    x.data[r * x.cols + j] -= factor * x.data[col * x.cols + j];
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let d = lu[col * n + col];
            for j in 0..x.cols {
                let mut acc = x.data[col * x.cols + j];
                for k in (col + 1)..n {
                    acc -= lu[col * n + k] * x.data[k * x.cols + j];
                }
                x.data[col * x.cols + j] = acc / d;
            }
        }
        Ok(x)
    }

    /// The matrix inverse, via [`Matrix::solve`] against the identity.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if not square, or
    /// [`LinalgError::Singular`].
    pub fn inverse(&self) -> Result<Self, LinalgError> {
        self.solve(&Self::identity(self.rows))
    }

    /// Cholesky decomposition: returns lower-triangular `L` with
    /// `L * Lᵀ = self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if not square, or
    /// [`LinalgError::Singular`] if the matrix is not positive-definite.
    pub fn cholesky(&self) -> Result<Self, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.rows),
                found: self.shape(),
            });
        }
        let n = self.rows;
        let mut l = Self::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.data[i * n + j];
                for k in 0..j {
                    sum -= l.data[i * n + k] * l.data[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::Singular);
                    }
                    l.data[i * n + j] = sum.sqrt();
                } else {
                    l.data[i * n + j] = sum / l.data[j * n + j];
                }
            }
        }
        Ok(l)
    }

    /// The trace (sum of diagonal elements).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// The Frobenius norm.
    #[must_use]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Matrix {
        /// Returns `true` if every corresponding element differs by less
        /// than `tol`.
        fn approx_eq(&self, rhs: &Self, tol: f64) -> bool {
            self.shape() == rhs.shape()
                && self.data.iter().zip(&rhs.data).all(|(a, b)| (a - b).abs() < tol)
        }
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.mul(&i).unwrap(), a);
    }

    #[test]
    fn mul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = Matrix::column(&[1.0, -2.0]);
        let b = a.mul(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn solve_singular_is_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let b = Matrix::column(&[1.0, 2.0]);
        assert_eq!(a.solve(&b), Err(LinalgError::Singular));
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.mul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let back = l.mul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(a.cholesky(), Err(LinalgError::Singular));
    }

    #[test]
    fn trace_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.trace(), 7.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn checked_get() {
        let a = Matrix::identity(2);
        assert_eq!(a.get(1, 1), Some(1.0));
        assert_eq!(a.get(2, 0), None);
    }

    fn arb_spd(n: usize) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(-2.0..2.0f64, n * n).prop_map(move |vals| {
            // B·Bᵀ + n·I is symmetric positive-definite.
            let mut b = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    b[(i, j)] = vals[i * n + j];
                }
            }
            let mut spd = b.mul(&b.transpose()).unwrap();
            for i in 0..n {
                spd[(i, i)] += n as f64;
            }
            spd
        })
    }

    proptest! {
        #[test]
        fn prop_solve_inverts(m in arb_spd(4), xs in prop::collection::vec(-5.0..5.0f64, 4)) {
            let x_true = Matrix::column(&xs);
            let b = m.mul(&x_true).unwrap();
            let x = m.solve(&b).unwrap();
            prop_assert!(x.approx_eq(&x_true, 1e-6));
        }

        #[test]
        fn prop_cholesky_round_trip(m in arb_spd(5)) {
            let l = m.cholesky().unwrap();
            let back = l.mul(&l.transpose()).unwrap();
            prop_assert!(back.approx_eq(&m, 1e-8));
        }

        #[test]
        fn prop_transpose_of_product((a, b) in (arb_spd(3), arb_spd(3))) {
            // (AB)ᵀ = BᵀAᵀ
            let left = a.mul(&b).unwrap().transpose();
            let right = b.transpose().mul(&a.transpose()).unwrap();
            prop_assert!(left.approx_eq(&right, 1e-9));
        }
    }
}
