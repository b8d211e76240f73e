//! Covariance functions with ARD length-scales.

use cets_linalg::vecops;
use serde::{Deserialize, Serialize};

/// Bound on every log-space kernel hyperparameter: [`Kernel::from_log_params`]
/// clamps to `[−LOG_PARAM_CLAMP, LOG_PARAM_CLAMP]`, so past it the likelihood
/// is flat in that coordinate and its gradient component is zero.
pub(crate) const LOG_PARAM_CLAMP: f64 = 8.0;

/// Which covariance family a [`Kernel`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Squared exponential (RBF): infinitely smooth; the default for the
    /// synthetic functions.
    SquaredExp,
    /// Matérn ν = 3/2: once-differentiable; robust for noisy HPC runtimes.
    Matern32,
    /// Matérn ν = 5/2: twice-differentiable; the usual BO default.
    Matern52,
}

/// A stationary ARD kernel `k(a, b) = σ² · g(r)` where
/// `r² = Σ ((a_i − b_i)/ℓ_i)²`.
///
/// Hyperparameters are the signal variance `σ²` and one length-scale per
/// input dimension. [`Kernel::to_log_params`] / [`Kernel::from_log_params`]
/// round-trip them through the unconstrained log-space vector that the
/// hyperparameter optimizer works on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    kind: KernelKind,
    variance: f64,
    lengthscales: Vec<f64>,
}

impl Kernel {
    /// A kernel with unit variance and all length-scales `0.3` (a sensible
    /// prior for inputs living in the unit cube).
    pub fn new(kind: KernelKind, dim: usize) -> Self {
        Kernel {
            kind,
            variance: 1.0,
            lengthscales: vec![0.3; dim],
        }
    }

    /// Construct with explicit hyperparameters. Panics on non-positive
    /// values (they are meaningless for stationary kernels).
    pub fn with_params(kind: KernelKind, variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(variance > 0.0, "kernel variance must be positive");
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "length-scales must be positive"
        );
        Kernel {
            kind,
            variance,
            lengthscales,
        }
    }

    /// Covariance family.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Signal variance σ².
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Per-dimension length-scales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Evaluate `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = vecops::weighted_sq_dist(a, b, &self.lengthscales);
        self.variance * self.profile(r2)
    }

    /// Evaluate `k` from a precomputed scaled squared distance
    /// `r² = Σ w_k (a_k − b_k)²` with `w_k` from
    /// [`Kernel::inv_sq_lengthscales`].
    ///
    /// This is the fused fast path of the GP hot loop: the caller hoists
    /// the per-dimension squared differences out of the O(hundreds) of
    /// likelihood evaluations per [`crate::Gp::train`] and reduces each
    /// kernel entry to one multiply-add pass plus this profile call. Note
    /// `w·d²` and `(d/ℓ)²` (what [`Kernel::eval`] computes) can differ in
    /// the last ulps — callers mixing both paths must not expect
    /// bit-identical covariances.
    #[inline]
    pub fn eval_r2(&self, r2: f64) -> f64 {
        self.variance * self.profile(r2)
    }

    /// Per-dimension weights `w_k = 1/ℓ_k²` for [`Kernel::eval_r2`].
    pub fn inv_sq_lengthscales(&self) -> Vec<f64> {
        self.lengthscales.iter().map(|&l| 1.0 / (l * l)).collect()
    }

    /// `k(x, x)` — for stationary kernels simply σ².
    pub fn diag_value(&self) -> f64 {
        self.variance
    }

    fn profile(&self, r2: f64) -> f64 {
        match self.kind {
            KernelKind::SquaredExp => (-0.5 * r2).exp(),
            KernelKind::Matern32 => {
                let r = r2.sqrt();
                let s = 3.0_f64.sqrt() * r;
                (1.0 + s) * (-s).exp()
            }
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                let s = 5.0_f64.sqrt() * r;
                (1.0 + s + s * s / 3.0) * (-s).exp()
            }
        }
    }

    /// The unit-variance profile `g(r²)` and its slope `dg/d(r²)` — the
    /// factor the length-scale gradient of the log marginal likelihood
    /// multiplies each pair's squared differences by — from one square
    /// root and one exponential. Both run the same operations on the same
    /// intermediates as the profile and the slope evaluated separately,
    /// so they are bit-identical to them.
    pub(crate) fn profile_and_slope(&self, r2: f64) -> (f64, f64) {
        match self.kind {
            KernelKind::SquaredExp => {
                let e = (-0.5 * r2).exp();
                (e, -0.5 * e)
            }
            KernelKind::Matern32 => {
                let s = 3.0_f64.sqrt() * r2.sqrt();
                let e = (-s).exp();
                ((1.0 + s) * e, -1.5 * e)
            }
            KernelKind::Matern52 => {
                let s = 5.0_f64.sqrt() * r2.sqrt();
                let e = (-s).exp();
                ((1.0 + s + s * s / 3.0) * e, -(5.0 / 6.0) * (1.0 + s) * e)
            }
        }
    }

    /// Slope `dg/d(r²)` evaluated on its own, as the gradient pass did
    /// before [`Kernel::profile_and_slope`] fused it into the kernel fill;
    /// kept as that function's bit-identity oracle.
    #[cfg(test)]
    pub(crate) fn profile_slope(&self, r2: f64) -> f64 {
        match self.kind {
            KernelKind::SquaredExp => -0.5 * (-0.5 * r2).exp(),
            KernelKind::Matern32 => {
                let s = 3.0_f64.sqrt() * r2.sqrt();
                -1.5 * (-s).exp()
            }
            KernelKind::Matern52 => {
                let s = 5.0_f64.sqrt() * r2.sqrt();
                -(5.0 / 6.0) * (1.0 + s) * (-s).exp()
            }
        }
    }

    /// Pack `[ln σ², ln ℓ_1, ..., ln ℓ_d]` for unconstrained optimization.
    pub fn to_log_params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(1 + self.dim());
        v.push(self.variance.ln());
        v.extend(self.lengthscales.iter().map(|l| l.ln()));
        v
    }

    /// Rebuild from the log-space vector produced by
    /// [`Kernel::to_log_params`]. Values are clamped to `[e^-8, e^8]` to
    /// keep the kernel matrix numerically sane during optimization.
    pub fn from_log_params(kind: KernelKind, params: &[f64]) -> Self {
        assert!(
            params.len() >= 2,
            "need at least variance + one lengthscale"
        );
        let clamp = |v: f64| v.clamp(-LOG_PARAM_CLAMP, LOG_PARAM_CLAMP).exp();
        Kernel {
            kind,
            variance: clamp(params[0]),
            lengthscales: params[1..].iter().map(|&p| clamp(p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [KernelKind; 3] = [
        KernelKind::SquaredExp,
        KernelKind::Matern32,
        KernelKind::Matern52,
    ];

    /// The fused value and slope match the separate profile and slope
    /// evaluations bit for bit.
    fn assert_fused_matches_separate(variance: f64, r2: f64) {
        for kind in KINDS {
            let k = Kernel::with_params(kind, variance, vec![1.0]);
            let (g, slope) = k.profile_and_slope(r2);
            let what = format!("{kind:?} variance={variance} r2={r2}");
            assert_eq!(
                (variance * g).to_bits(),
                k.eval_r2(r2).to_bits(),
                "{what}: value"
            );
            assert_eq!(
                slope.to_bits(),
                k.profile_slope(r2).to_bits(),
                "{what}: slope"
            );
        }
    }

    proptest! {
        #[test]
        fn fused_profile_and_slope_are_bit_identical(
            variance in 1e-3..1e3f64,
            r2 in prop_oneof![Just(0.0), 0.0..1e-6f64, 0.0..4.0f64, 0.0..2e3f64],
        ) {
            assert_fused_matches_separate(variance, r2);
        }
    }

    #[test]
    fn fused_profile_and_slope_at_zero_distance() {
        assert_fused_matches_separate(1.0, 0.0);
        for kind in KINDS {
            let (g, _) = Kernel::new(kind, 1).profile_and_slope(0.0);
            assert_eq!(g, 1.0, "{kind:?}");
        }
    }

    #[test]
    fn self_covariance_is_variance() {
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            let k = Kernel::with_params(kind, 2.5, vec![0.5, 0.5]);
            let x = [0.3, 0.7];
            assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12);
            assert_eq!(k.diag_value(), 2.5);
        }
    }

    #[test]
    fn decays_with_distance() {
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            let k = Kernel::new(kind, 1);
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[0.9]);
            assert!(near > far, "{kind:?}: {near} !> {far}");
            assert!(far > 0.0);
        }
    }

    #[test]
    fn symmetry() {
        let k = Kernel::new(KernelKind::Matern52, 3);
        let a = [0.1, 0.5, 0.9];
        let b = [0.4, 0.2, 0.7];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        // Long lengthscale in dim 0 => distance in dim 0 matters less.
        let k = Kernel::with_params(KernelKind::SquaredExp, 1.0, vec![10.0, 0.1]);
        let base = [0.0, 0.0];
        let moved_dim0 = k.eval(&base, &[0.5, 0.0]);
        let moved_dim1 = k.eval(&base, &[0.0, 0.5]);
        assert!(moved_dim0 > moved_dim1);
    }

    #[test]
    fn sqexp_known_value() {
        let k = Kernel::with_params(KernelKind::SquaredExp, 1.0, vec![1.0]);
        // r² = 1 → exp(-0.5)
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5_f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn log_param_roundtrip() {
        let k = Kernel::with_params(KernelKind::Matern32, 3.0, vec![0.2, 1.5]);
        let p = k.to_log_params();
        let k2 = Kernel::from_log_params(KernelKind::Matern32, &p);
        assert!((k2.variance() - 3.0).abs() < 1e-12);
        assert!((k2.lengthscales()[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_log_params_clamps_extremes() {
        let k = Kernel::from_log_params(KernelKind::SquaredExp, &[100.0, -100.0]);
        assert!(k.variance() <= 8.0_f64.exp());
        assert!(k.lengthscales()[0] >= (-8.0_f64).exp());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_variance() {
        let _ = Kernel::with_params(KernelKind::SquaredExp, 0.0, vec![1.0]);
    }

    #[test]
    fn matern32_known_value() {
        // k(r) = (1 + √3 r) exp(-√3 r) at r = 1, unit params.
        let k = Kernel::with_params(KernelKind::Matern32, 1.0, vec![1.0]);
        let s = 3.0_f64.sqrt();
        let expect = (1.0 + s) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn matern52_known_value() {
        let k = Kernel::with_params(KernelKind::Matern52, 1.0, vec![1.0]);
        let s = 5.0_f64.sqrt();
        let expect = (1.0 + s + s * s / 3.0) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn matern_kinds_differ() {
        let a = [0.0];
        let b = [0.5];
        let k32 = Kernel::new(KernelKind::Matern32, 1).eval(&a, &b);
        let k52 = Kernel::new(KernelKind::Matern52, 1).eval(&a, &b);
        let rbf = Kernel::new(KernelKind::SquaredExp, 1).eval(&a, &b);
        assert!(k32 != k52 && k52 != rbf);
    }
}
