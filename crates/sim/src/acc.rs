//! The ACC case-study parameters and coordinate transforms (paper §IV).

use oic_linalg::Matrix;

/// Parameters of the adaptive cruise control case study.
///
/// Defaults are exactly the paper's §IV values: sampling period
/// `δ = 0.1 s`, drag coefficient `k = 0.2`, safe distance
/// `s ∈ [120, 180]`, ego velocity `v ∈ [25, 55]`, input `u ∈ [−40, 40]`,
/// and front velocity `v_f ∈ [30, 50]`.
///
/// The formal analysis runs in **deviation coordinates** around the
/// equilibrium `(s*, v*) = (150, 40)` with feed-forward input
/// `u* = k·v* = 8`, so that `0 ∈ X, 0 ∈ U, 0 ∈ W` as the paper's problem
/// formulation requires; this struct owns the transform in both directions.
///
/// # Examples
///
/// ```
/// let p = oic_sim::AccParams::default();
/// let x = p.to_deviation(155.0, 38.0);
/// assert_eq!(x, [5.0, -2.0]);
/// let (s, v) = p.from_deviation(&x);
/// assert_eq!((s, v), (155.0, 38.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccParams {
    /// Sampling/control period `δ` (seconds).
    pub dt: f64,
    /// Velocity drag coefficient `k`.
    pub drag: f64,
    /// Safe relative-distance range `[s_min, s_max]`.
    pub s_range: (f64, f64),
    /// Ego velocity range `[v_min, v_max]`.
    pub v_range: (f64, f64),
    /// Actuation range `[u_min, u_max]`.
    pub u_range: (f64, f64),
    /// Front-vehicle velocity range `[v_f_min, v_f_max]`.
    pub vf_range: (f64, f64),
}

impl Default for AccParams {
    fn default() -> Self {
        Self {
            dt: 0.1,
            drag: 0.2,
            s_range: (120.0, 180.0),
            v_range: (25.0, 55.0),
            u_range: (-40.0, 40.0),
            vf_range: (30.0, 50.0),
        }
    }
}

impl AccParams {
    /// Equilibrium relative distance `s*` (mid-range).
    pub fn s_ref(&self) -> f64 {
        0.5 * (self.s_range.0 + self.s_range.1)
    }

    /// Equilibrium ego velocity `v*` (mid-range of the front velocity, so
    /// the gap is stationary when both drive at `v*`).
    pub fn v_ref(&self) -> f64 {
        0.5 * (self.vf_range.0 + self.vf_range.1)
    }

    /// Equilibrium feed-forward input `u* = k·v*` that holds `v*` against
    /// drag.
    pub fn u_eq(&self) -> f64 {
        self.drag * self.v_ref()
    }

    /// Deviation-coordinate `A` matrix `[[1, −δ], [0, 1−kδ]]`.
    pub fn a_matrix(&self) -> Matrix {
        Matrix::from_rows(&[&[1.0, -self.dt], &[0.0, 1.0 - self.drag * self.dt]])
    }

    /// Deviation-coordinate `B` matrix `[[0], [δ]]`.
    pub fn b_matrix(&self) -> Matrix {
        Matrix::from_rows(&[&[0.0], &[self.dt]])
    }

    /// Deviation state `x̃ = (s − s*, v − v*)`.
    pub fn to_deviation(&self, s: f64, v: f64) -> [f64; 2] {
        [s - self.s_ref(), v - self.v_ref()]
    }

    /// Absolute `(s, v)` from a deviation state.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != 2`.
    pub fn from_deviation(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), 2, "ACC state is 2-dimensional");
        (x[0] + self.s_ref(), x[1] + self.v_ref())
    }

    /// Absolute input from a deviation input.
    pub fn input_from_deviation(&self, u_dev: f64) -> f64 {
        u_dev + self.u_eq()
    }

    /// Deviation disturbance `w̃ = (δ·(v_f − v*), 0)` induced by the front
    /// vehicle driving at `v_f`.
    pub fn disturbance(&self, vf: f64) -> [f64; 2] {
        [self.dt * (vf - self.v_ref()), 0.0]
    }

    /// Deviation-coordinate box bounds: `(x_lo, x_hi, u_lo, u_hi, w_lo,
    /// w_hi)` for building the constraint polytopes `X`, `U`, `W`.
    #[allow(clippy::type_complexity)]
    pub fn deviation_bounds(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (s0, s1) = self.s_range;
        let (v0, v1) = self.v_range;
        let (u0, u1) = self.u_range;
        let (f0, f1) = self.vf_range;
        let sr = self.s_ref();
        let vr = self.v_ref();
        let ue = self.u_eq();
        (
            vec![s0 - sr, v0 - vr],
            vec![s1 - sr, v1 - vr],
            vec![u0 - ue],
            vec![u1 - ue],
            vec![self.dt * (f0 - vr), 0.0],
            vec![self.dt * (f1 - vr), 0.0],
        )
    }

    /// One step of the **absolute** dynamics (paper §IV):
    /// `s⁺ = s − (v − v_f)δ`, `v⁺ = v − (kv − u)δ`.
    pub fn step_absolute(&self, s: f64, v: f64, vf: f64, u: f64) -> (f64, f64) {
        let s_next = s - (v - vf) * self.dt;
        let v_next = v - (self.drag * v - u) * self.dt;
        (s_next, v_next)
    }

    /// Acceleration realized by input `u` at velocity `v` (for fuel models).
    pub fn acceleration(&self, v: f64, u: f64) -> f64 {
        u - self.drag * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = AccParams::default();
        assert_eq!(p.dt, 0.1);
        assert_eq!(p.drag, 0.2);
        assert_eq!(p.s_ref(), 150.0);
        assert_eq!(p.v_ref(), 40.0);
        assert_eq!(p.u_eq(), 8.0);
    }

    #[test]
    fn absolute_and_deviation_dynamics_agree() {
        // Stepping in absolute coordinates must equal stepping the deviation
        // LTI system with w = δ(v_f − v*): the transform is exact, not an
        // approximation.
        let p = AccParams::default();
        let (s, v, vf, u) = (142.0, 47.5, 33.0, -12.0);
        let (s_abs, v_abs) = p.step_absolute(s, v, vf, u);

        let a = p.a_matrix();
        let b = p.b_matrix();
        let x = p.to_deviation(s, v);
        let u_dev = u - p.u_eq();
        let w = p.disturbance(vf);
        let ax = a.mul_vec(&x);
        let bu = b.mul_vec(&[u_dev]);
        let x_next = [ax[0] + bu[0] + w[0], ax[1] + bu[1] + w[1]];
        let (s_dev, v_dev) = p.from_deviation(&x_next);

        assert!((s_abs - s_dev).abs() < 1e-12, "{s_abs} vs {s_dev}");
        assert!((v_abs - v_dev).abs() < 1e-12, "{v_abs} vs {v_dev}");
    }

    #[test]
    fn equilibrium_is_a_fixed_point() {
        let p = AccParams::default();
        let (s, v) = p.step_absolute(p.s_ref(), p.v_ref(), p.v_ref(), p.u_eq());
        assert!((s - p.s_ref()).abs() < 1e-12);
        assert!((v - p.v_ref()).abs() < 1e-12);
    }

    #[test]
    fn deviation_bounds_contain_origin() {
        let p = AccParams::default();
        let (x_lo, x_hi, u_lo, u_hi, w_lo, w_hi) = p.deviation_bounds();
        for (lo, hi) in [(&x_lo, &x_hi), (&u_lo, &u_hi), (&w_lo, &w_hi)] {
            for (l, h) in lo.iter().zip(hi.iter()) {
                assert!(*l <= 0.0 && *h >= 0.0, "0 must be inside [{l}, {h}]");
            }
        }
        assert_eq!(u_lo[0], -48.0);
        assert_eq!(u_hi[0], 32.0);
        assert_eq!(w_lo, vec![-1.0, 0.0]);
        assert_eq!(w_hi, vec![1.0, 0.0]);
    }

    #[test]
    fn acceleration_decomposition() {
        let p = AccParams::default();
        // v⁺ − v = δ·(u − k v) = δ·acceleration.
        let (_, v_next) = p.step_absolute(150.0, 40.0, 40.0, 20.0);
        assert!((v_next - 40.0 - p.dt * p.acceleration(40.0, 20.0)).abs() < 1e-12);
    }
}
