//! # cets-gp
//!
//! Gaussian-process regression — the surrogate model behind the CETS
//! Bayesian-optimization engine (the role GPTune's models play in the
//! paper).
//!
//! * [`Kernel`] — squared-exponential and Matérn 3/2 / 5/2 covariance
//!   functions, all with ARD (per-dimension) length-scales;
//! * [`Gp`] — exact GP regression: Cholesky fit (the `O(N^3)` cost the
//!   paper's search-time analysis hinges on), predictive mean/variance, log
//!   marginal likelihood;
//! * [`GpConfig`] / [`Gp::train`] — maximum-likelihood hyperparameter
//!   selection via multi-start L-BFGS in log-space on the analytic
//!   gradient of the log marginal likelihood, with the work it did
//!   reported as [`TrainStats`];
//! * [`SparseGp`] / [`Surrogate`] — the inducing-point (SGPR) tier and the
//!   tier-selection layer over it: `O(N·m²)` training against the
//!   variational ELBO, `O(m)`/`O(m²)` predictions, automatic escalation
//!   past a configurable training-set size ([`TierPolicy`]);
//! * [`lbfgs`] / [`nelder_mead`] — the gradient-based and the
//!   derivative-free minimizer (the latter drives the sparse tier's ELBO),
//!   exposed for reuse.
//!
//! Targets are standardized internally (zero mean, unit variance) so kernel
//! hyperparameter priors stay scale-free; predictions are returned in the
//! original units.
//!
//! ```
//! use cets_gp::{Gp, GpConfig};
//!
//! // y = sin(3x) on [0,1]
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
//! let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
//! let (mean, var) = gp.predict(&[0.5]);
//! assert!((mean - (1.5f64).sin()).abs() < 0.05);
//! assert!(var >= 0.0);
//! ```

mod gp;
mod kernel;
mod optimize;
mod sparse;

pub use cets_linalg::{ParConfig, Threads};
pub use gp::{Gp, GpConfig, TrainStats, APPEND_CONDITION_LIMIT};
pub use kernel::{Kernel, KernelKind};
pub use optimize::{lbfgs, nelder_mead, LbfgsOptions, LbfgsResult, NelderMeadOptions};
pub use sparse::{select_inducing, SparseGp, SparseOptions, Surrogate, SurrogateTier, TierPolicy};

/// Errors from GP fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Inconsistent or empty training data.
    BadShape(String),
    /// The kernel matrix could not be factorized even with jitter.
    Factorization(String),
    /// Hyperparameter optimization failed to produce any usable model.
    TrainingFailed(String),
    /// Training data contained a NaN or infinite value. A GP conditioned on
    /// non-finite observations silently poisons every prediction, so the
    /// input is rejected outright; callers should screen or impute failed
    /// evaluations before training (see `cets-core`'s failure policy).
    NonFinite(String),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::BadShape(m) => write!(f, "bad shape: {m}"),
            GpError::Factorization(m) => write!(f, "factorization failed: {m}"),
            GpError::TrainingFailed(m) => write!(f, "training failed: {m}"),
            GpError::NonFinite(m) => write!(f, "non-finite training data: {m}"),
        }
    }
}

impl std::error::Error for GpError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GpError>;
