//! Support functions of convex sets.

use oic_linalg::Matrix;

use crate::GeomError;

/// A convex set queried through its support function
/// `h(d) = sup { d · x : x ∈ S }`.
///
/// All the Minkowski arithmetic in this workspace is expressed through
/// support functions: `P ⊖ S` only needs `h_S` evaluated at the facet
/// normals of `P`, and the tightened-constraint recursion of the robust MPC
/// only needs `h_{A^k W}`.
pub trait SupportFunction {
    /// Ambient dimension of the set.
    fn dim(&self) -> usize;

    /// Evaluates the support function in direction `d`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::Unbounded`] — the set is unbounded in direction `d`.
    /// * [`GeomError::EmptySet`] — the set is empty.
    fn support(&self, direction: &[f64]) -> Result<f64, GeomError>;
}

/// The linear image `{ M·s : s ∈ S }` of a convex set, as a lazy view.
///
/// Uses the identity `h_{M·S}(d) = h_S(Mᵀ d)`, so no set representation is
/// materialized. The robust-MPC tightening recursion evaluates
/// `h_{A^{k−1} W}` this way.
///
/// # Examples
///
/// ```
/// use oic_geom::{AffineImage, Polytope, SupportFunction};
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_geom::GeomError> {
/// let w = Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0]);
/// let double = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
/// let img = AffineImage::new(&double, &w);
/// assert!((img.support(&[1.0, 0.0])? - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AffineImage<'a, S> {
    matrix: &'a Matrix,
    set: &'a S,
}

impl<'a, S: SupportFunction> AffineImage<'a, S> {
    /// Creates the view `{ matrix · s : s ∈ set }`.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.cols() != set.dim()`.
    pub fn new(matrix: &'a Matrix, set: &'a S) -> Self {
        assert_eq!(matrix.cols(), set.dim(), "matrix/set dimension mismatch");
        Self { matrix, set }
    }
}

impl<S: SupportFunction> SupportFunction for AffineImage<'_, S> {
    fn dim(&self) -> usize {
        self.matrix.rows()
    }

    fn support(&self, direction: &[f64]) -> Result<f64, GeomError> {
        assert_eq!(direction.len(), self.dim(), "direction dimension mismatch");
        // h_{M S}(d) = h_S(Mᵀ d); Mᵀ d computed as dᵀ M.
        let pulled = self.matrix.vec_mul(direction);
        self.set.support(&pulled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polytope;

    #[test]
    fn affine_image_rotates_support() {
        // 90° rotation of the box [-1,1] x [-2,2].
        let w = Polytope::from_box(&[-1.0, -2.0], &[1.0, 2.0]);
        let rot = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let img = AffineImage::new(&rot, &w);
        // Direction e1 of the image pulls back to direction (0, -1)ᵀ... via
        // h(e1) = h_W(rotᵀ e1) = h_W((0, -1)) = 2.
        assert!((img.support(&[1.0, 0.0]).unwrap() - 2.0).abs() < 1e-9);
        assert!((img.support(&[0.0, 1.0]).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nested_affine_images_compose() {
        let w = Polytope::from_box(&[-1.0], &[1.0]);
        let lift = Matrix::from_rows(&[&[1.0], &[0.5]]);
        let img = AffineImage::new(&lift, &w);
        assert_eq!(img.dim(), 2);
        assert!((img.support(&[1.0, 2.0]).unwrap() - 2.0).abs() < 1e-9);
    }
}
