//! LU factorization with partial pivoting.

use std::error::Error;
use std::fmt;

use crate::Matrix;

/// Error returned when a factorization or solve encounters a (numerically)
/// singular matrix.
///
/// # Examples
///
/// ```
/// use oic_linalg::{LuDecomposition, Matrix};
///
/// let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
/// assert!(LuDecomposition::new(&singular).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError;

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl Error for SingularMatrixError {}

/// LU factorization `PA = LU` with partial pivoting.
///
/// Factor once, then solve any number of right-hand sides, compute the
/// inverse, or evaluate the determinant.
///
/// # Examples
///
/// ```
/// use oic_linalg::{LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), oic_linalg::SingularMatrixError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strict lower, unit diagonal implicit) and U (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

const PIVOT_TOL: f64 = 1e-12;

impl LuDecomposition {
    /// Factorizes the square matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-12` in
    /// magnitude is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, SingularMatrixError> {
        assert!(a.is_square(), "LU factorization requires a square matrix");
        let n = a.rows();
        let mut lu = Self {
            lu: a.clone(),
            perm: (0..n).collect(),
            perm_sign: 1.0,
        };
        lu.factorize_in_place()?;
        Ok(lu)
    }

    fn factorize_in_place(&mut self) -> Result<(), SingularMatrixError> {
        let n = self.lu.rows();
        let lu = &mut self.lu;
        let perm = &mut self.perm;
        let perm_sign = &mut self.perm_sign;

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_TOL {
                return Err(SingularMatrixError);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                *perm_sign = -*perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                // Skip structural zeros: basis matrices from simplex solves
                // are mostly unit/slack columns, and eliminating exact
                // zeros is the bulk of an O(n³) dense sweep there.
                if lu[(i, k)] == 0.0 {
                    continue;
                }
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let upd = lu[(k, j)] * factor;
                    lu[(i, j)] -= upd;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Never fails after a successful factorization; the `Result` mirrors the
    /// factorization API so call sites can use `?` uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "right-hand side length must match dimension");
        let mut y = vec![0.0; n];
        self.solve_into(b, &mut y);
        Ok(y)
    }

    /// Solves `A x = b`, writing `x` into `out` — the allocation-free
    /// variant for hot loops (the revised simplex FTRAN).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differ from the dimension.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "right-hand side length must match dimension");
        assert_eq!(out.len(), n, "output length must match dimension");
        // Apply permutation.
        for (i, o) in out.iter_mut().enumerate() {
            *o = b[self.perm[i]];
        }
        // Forward substitution with unit lower-triangular L, dotting each
        // contiguous row slice (indexed `(i, j)` access in these O(n²)
        // loops dominated simplex FTRAN cost).
        for i in 1..n {
            let row = self.lu.row(i);
            let acc: f64 = row[..i].iter().zip(out.iter()).map(|(l, y)| l * y).sum();
            out[i] -= acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let acc: f64 = row[i + 1..]
                .iter()
                .zip(out[i + 1..].iter())
                .map(|(u, y)| u * y)
                .sum();
            out[i] = (out[i] - acc) / row[i];
        }
    }

    /// Solves the transposed system `Aᵀ x = c`, writing `x` into `out` —
    /// the revised simplex BTRAN (`Bᵀ y = c_B` pricing solve). `c` is the
    /// solve's workspace and is overwritten, so a hot loop allocates
    /// nothing.
    ///
    /// With `PA = LU`: `Aᵀ = Uᵀ Lᵀ P`, so solve `Uᵀ z = c` (forward),
    /// `Lᵀ w = z` (backward), then un-permute `x[perm[i]] = w[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` or `out.len()` differ from the dimension.
    pub fn solve_transposed_into(&self, c: &mut [f64], out: &mut [f64]) {
        let n = self.lu.rows();
        assert_eq!(c.len(), n, "right-hand side length must match dimension");
        assert_eq!(out.len(), n, "output length must match dimension");
        // Column-sweep substitutions: naive Uᵀ/Lᵀ forward/backward loops
        // walk *columns* of the row-major storage (strided); sweeping with
        // the finished component instead touches each row slice
        // contiguously and skips zero multipliers.
        let w = c;
        // Uᵀ w' = c (Uᵀ is lower-triangular): once w[j] is final, subtract
        // its contribution U[j][i]·w[j] from every later component.
        for j in 0..n {
            let row = self.lu.row(j);
            let wj = w[j] / row[j];
            w[j] = wj;
            if wj != 0.0 {
                for (wi, u) in w[j + 1..].iter_mut().zip(&row[j + 1..]) {
                    *wi -= u * wj;
                }
            }
        }
        // Lᵀ z = w (Lᵀ is unit upper-triangular): sweep from the end.
        for j in (0..n).rev() {
            let zj = w[j];
            if zj != 0.0 {
                let row = self.lu.row(j);
                for (zi, l) in w[..j].iter_mut().zip(&row[..j]) {
                    *zi -= l * zj;
                }
            }
        }
        // x = Pᵀ w.
        for (i, wi) in w.iter().enumerate() {
            out[self.perm[i]] = *wi;
        }
    }

    /// Solves `Aᵀ x = c` (allocating convenience wrapper over
    /// [`solve_transposed_into`](Self::solve_transposed_into)).
    ///
    /// # Errors
    ///
    /// Never fails after a successful factorization (see [`Self::solve`]).
    pub fn solve_transposed(&self, c: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let mut out = vec![0.0; self.lu.rows()];
        self.solve_transposed_into(&mut c.to_vec(), &mut out);
        Ok(out)
    }

    /// Computes the matrix inverse.
    ///
    /// # Errors
    ///
    /// Never fails after a successful factorization (see [`Self::solve`]).
    pub fn inverse(&self) -> Result<Matrix, SingularMatrixError> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.perm_sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expected) {
            assert!((xi - ei).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let inv = LuDecomposition::new(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn determinant_of_triangular() {
        let a = Matrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // Row-swapped identity has determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(LuDecomposition::new(&a).unwrap_err(), SingularMatrixError);
    }

    #[test]
    fn transpose_solve_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let c = [1.0, -2.0, 0.5];
        let x = lu.solve_transposed(&c).unwrap();
        // Check Aᵀ x = c directly.
        for j in 0..3 {
            let acc: f64 = (0..3).map(|i| a[(i, j)] * x[i]).sum();
            assert!((acc - c[j]).abs() < 1e-10, "col {j}: {acc} vs {}", c[j]);
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let mut y = vec![0.0; 3];
        lu.solve_into(&b, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
