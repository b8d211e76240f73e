//! Exact Gaussian-process regression with maximum-likelihood training.

use crate::kernel::{Kernel, KernelKind, LOG_PARAM_CLAMP};
use crate::optimize::{lbfgs_split, LbfgsObjective, LbfgsOptions, LbfgsResult};
use crate::{GpError, Result};
use cets_linalg::{par, Cholesky, Matrix, ParConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Training configuration for [`Gp::train`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Covariance family.
    pub kernel: KernelKind,
    /// Number of random restarts for hyperparameter optimization (the first
    /// start is always the default kernel).
    pub n_restarts: usize,
    /// Seed for restart jitter.
    pub seed: u64,
    /// Lower bound on the noise variance (of standardized targets). HPC
    /// runtimes are noisy; a floor keeps the model from interpolating
    /// measurement jitter.
    pub noise_floor: f64,
    /// Also optimize the noise variance (otherwise it stays at the floor).
    pub optimize_noise: bool,
    /// Per-restart L-BFGS options: the cap on likelihood-plus-gradient
    /// evaluations and the convergence tolerances.
    pub lbfgs: LbfgsOptions,
    /// Surrogate tier policy consulted by [`crate::Surrogate::train`]:
    /// exact GP below a training-set-size threshold, sparse (SGPR) at or
    /// above it, or an explicit override. Direct [`Gp::train`] calls
    /// ignore it.
    pub tier: crate::TierPolicy,
    /// Sparse-tier (SGPR) options, used when the tier policy selects the
    /// sparse surrogate.
    pub sparse: crate::SparseOptions,
    /// Worker budget for training. The budget is split across the two
    /// parallel levels — L-BFGS restarts on the outside, kernel builds,
    /// Cholesky panels, the inverse and the gradient sums on the inside —
    /// and every split
    /// produces bit-identical hyperparameters (fixed partitioning,
    /// fixed-order winner selection).
    pub par: ParConfig,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            kernel: KernelKind::Matern52,
            n_restarts: 3,
            seed: 0,
            noise_floor: 1e-6,
            optimize_noise: true,
            lbfgs: LbfgsOptions::default(),
            tier: crate::TierPolicy::default(),
            sparse: crate::SparseOptions::default(),
            par: ParConfig::default(),
        }
    }
}

/// Conditioning ceiling for the incremental-update path: when
/// [`Gp::chol_condition_estimate`] crosses this after a [`Gp::append`],
/// debug builds assert. The value matches the "living off jitter" rule of
/// thumb documented on [`Gp::kernel_condition_number`]; legitimate BO
/// appends stay orders of magnitude below it (the noise floor keeps every
/// pivot at `√noise` or larger).
pub const APPEND_CONDITION_LIMIT: f64 = 1e12;

/// Work [`Gp::train`] actually did, as counted (not budgeted): the
/// likelihood-plus-gradient evaluations each restart used and which
/// restart won. A model built by [`Gp::fit`] carries the empty default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Evaluations per restart, in restart order.
    pub evals: Vec<usize>,
    /// Index of the restart whose hyperparameters the model uses.
    pub winner: usize,
}

impl TrainStats {
    /// Evaluations summed over all restarts.
    pub fn total_evals(&self) -> usize {
        self.evals.iter().sum()
    }
}

/// A fitted Gaussian process.
///
/// Fitting cost is one `O(N³)` Cholesky factorization plus `O(N²)` per
/// prediction — the scaling the paper leans on when it argues that joint
/// high-dimensional searches (which need many more evaluations `N`) pay a
/// super-linear search-time penalty.
#[derive(Debug, Clone)]
pub struct Gp {
    x: Vec<Vec<f64>>,
    /// Standardized targets (kept for incremental updates).
    ys: Vec<f64>,
    kernel: Kernel,
    noise: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
    stats: TrainStats,
}

impl Gp {
    /// Fit with *fixed* hyperparameters (no optimization).
    pub fn fit(x: &[Vec<f64>], y: &[f64], kernel: Kernel, noise: f64) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(GpError::BadShape(format!(
                "{n} inputs vs {} targets",
                y.len()
            )));
        }
        let d = kernel.dim();
        if x.iter().any(|r| r.len() != d) {
            return Err(GpError::BadShape(format!(
                "input dim mismatch (kernel expects {d})"
            )));
        }
        check_finite(x, y)?;
        let (y_mean, y_std) = standardization(y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        let mut k = gram(x, &kernel);
        k.add_diag(noise);
        let chol = Cholesky::new_jittered(&k).map_err(|e| GpError::Factorization(e.to_string()))?;
        let alpha = chol.solve_vec(&ys);

        let data_fit: f64 = ys.iter().zip(&alpha).map(|(&a, &b)| a * b).sum();
        let lml = -0.5 * data_fit
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        Ok(Gp {
            x: x.to_vec(),
            ys,
            kernel,
            noise,
            chol,
            alpha,
            y_mean,
            y_std,
            lml,
            stats: TrainStats::default(),
        })
    }

    /// Train with maximum-likelihood hyperparameters: multi-start L-BFGS
    /// over `[ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]`, driven by the analytic
    /// gradient of the log marginal likelihood. Each line-search trial
    /// pays for the likelihood value; only an accepted trial pays for the
    /// gradient too.
    pub fn train(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<Self> {
        Self::train_with(x, y, cfg, |objective, p0| {
            lbfgs_split(&mut LmlRestart::new(objective), p0, &cfg.lbfgs)
        })
    }

    /// [`Gp::train`] with the per-restart optimizer passed in, so tests can
    /// run the same restarts through a reference optimizer.
    fn train_with(
        x: &[Vec<f64>],
        y: &[f64],
        cfg: &GpConfig,
        restart: impl Fn(&LmlObjective, &[f64]) -> LbfgsResult + Sync,
    ) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(GpError::BadShape(format!(
                "{n} inputs vs {} targets",
                y.len()
            )));
        }
        let d = x[0].len();
        if d == 0 || x.iter().any(|r| r.len() != d) {
            return Err(GpError::BadShape("ragged or zero-dim inputs".into()));
        }
        check_finite(x, y)?;

        let (y_mean, y_std) = standardization(y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let opt_noise = cfg.optimize_noise;
        let floor = cfg.noise_floor.max(1e-12);

        // The worker budget splits across two levels: independent L-BFGS
        // restarts on the outside (near-perfect scaling) and the
        // per-evaluation kernel build, Cholesky, inverse and gradient
        // inside each restart taking whatever is left over.
        let threads = cfg.par.resolve();
        let starts = cfg.n_restarts.max(1);
        let ow = threads.min(starts);
        let iw = (threads / ow).max(1);

        // The per-dimension pairwise squared differences do not depend on
        // the hyperparameters, so they are computed once here and shared
        // by every likelihood evaluation of every restart — each
        // evaluation then builds the kernel matrix with one fused
        // multiply-add pass over the tensor, and the length-scale
        // gradient is one dot product per dimension against it.
        let tensor = PairTensor::new_with(x, threads);
        let objective = LmlObjective {
            tensor: &tensor,
            ys: &ys,
            kind: cfg.kernel,
            opt_noise,
            floor,
            workers: if n * n < PAR_MIN_ENTRIES {
                1
            } else {
                iw.min(n)
            },
        };

        // Start points are pre-drawn from the single RNG stream in restart
        // order (L-BFGS itself consumes no randomness), so the draws are
        // identical to the sequential loop's; the winner fold below walks
        // restarts in the same ascending order with the same strict
        // comparison, making the result bit-identical at any worker count.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let p0s: Vec<Vec<f64>> = (0..starts)
            .map(|s| {
                let mut p0 = Kernel::new(cfg.kernel, d).to_log_params();
                if opt_noise {
                    p0.push((1e-3_f64).ln());
                }
                if s > 0 {
                    for v in &mut p0 {
                        *v += rng.random_range(-1.5..1.5);
                    }
                }
                p0
            })
            .collect();
        // One restart: L-BFGS from `p0` over the negative LML, with its own
        // factorization scratch so restarts can run concurrently.
        let runs = par::map_indexed(ow, starts, |s| restart(&objective, &p0s[s]));
        let mut stats = TrainStats {
            evals: runs.iter().map(|r| r.evals).collect(),
            winner: 0,
        };
        let mut best: Option<(usize, f64)> = None;
        for (s, r) in runs.iter().enumerate() {
            if r.f.is_finite() && best.is_none_or(|(_, bf)| r.f < bf) {
                best = Some((s, r.f));
            }
        }
        let (winner, _) = best.ok_or_else(|| {
            GpError::TrainingFailed("no restart produced a finite likelihood".into())
        })?;
        stats.winner = winner;
        let (kernel, noise) = unpack_log_params(cfg.kernel, &runs[winner].x, opt_noise, floor);
        let mut gp = Self::fit(x, y, kernel, noise)?;
        gp.stats = stats;
        Ok(gp)
    }

    /// What the [`Gp::train`] call that produced this model did: counted
    /// likelihood evaluations per restart and the winning restart. Empty
    /// for a model built by [`Gp::fit`].
    pub fn train_stats(&self) -> &TrainStats {
        &self.stats
    }

    /// Predictive mean and variance (original units) at `x_star`.
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, x_star))
            .collect();
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        let v = self.chol.solve_lower(&k_star);
        let var_std = (self.kernel.diag_value() + self.noise
            - v.iter().map(|&x| x * x).sum::<f64>())
        .max(0.0);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Predictive mean only (saves the triangular solve).
    pub fn predict_mean(&self, x_star: &[f64]) -> f64 {
        let k_star: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, x_star))
            .collect();
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        mean_std * self.y_std + self.y_mean
    }

    /// Predictive mean and variance (original units) at every point of a
    /// batch — the vectorized form of [`Gp::predict`].
    ///
    /// Builds the `n × m` cross-covariance block K★ in one pass, computes
    /// all means with a single row-sweep against `α`, and runs one blocked
    /// multi-column forward solve ([`Cholesky::solve_lower_multi`]) for
    /// the variances — no per-candidate `Vec` allocations. This is what
    /// the BO candidate-scoring loop calls.
    ///
    /// Guarantees:
    /// * **chunk invariance** — every candidate's result is computed by a
    ///   fixed per-column operation sequence, so splitting a batch into
    ///   chunks (in any sizes) and concatenating yields bit-identical
    ///   results. The BO loop's parallel scorer relies on this.
    /// * agreement with [`Gp::predict`] to ulp-level tolerance only: the
    ///   batch path scales squared distances by `1/ℓ²` where the scalar
    ///   path divides by `ℓ` before squaring.
    ///
    /// Every point must have the kernel's input dimensionality — callers
    /// pass active-space points of fixed arity, and a debug assertion
    /// guards it.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let m = xs.len();
        let n = self.x.len();
        if m == 0 {
            return Vec::new();
        }
        debug_assert!(xs.iter().all(|p| p.len() == self.kernel.dim()));
        let w = self.kernel.inv_sq_lengthscales();
        let d = self.kernel.dim();
        // Dimension-major transpose of the queries: the r² accumulation
        // below becomes `d` contiguous element-wise sweeps per training
        // row (independent accumulators, vectorizable) instead of an
        // FP-latency-bound dot product per (i, j) entry.
        let mut qt = vec![0.0; d * m];
        for (j, q) in xs.iter().enumerate() {
            for (k, &v) in q.iter().enumerate() {
                qt[k * m + j] = v;
            }
        }
        let mut kstar = Matrix::zeros(n, m);
        for (i, xi) in self.x.iter().enumerate() {
            let row = kstar.row_mut(i);
            for (k, (&xik, &wk)) in xi.iter().zip(&w).enumerate() {
                let qk = &qt[k * m..(k + 1) * m];
                for (rj, &qv) in row.iter_mut().zip(qk) {
                    let dv = xik - qv;
                    *rj += wk * dv * dv;
                }
            }
            for rj in row.iter_mut() {
                *rj = self.kernel.eval_r2(*rj);
            }
        }
        // Means: one sweep over K★'s rows, ascending i per column.
        let mut mean = vec![0.0; m];
        for (i, &ai) in self.alpha.iter().enumerate() {
            for (mu, &kv) in mean.iter_mut().zip(kstar.row(i)) {
                *mu += ai * kv;
            }
        }
        // Variances: V = L⁻¹ K★ in place, then column sums of squares.
        if self.chol.solve_lower_multi(&mut kstar).is_err() {
            // Unreachable (K★ has n rows by construction); fall back to
            // the scalar path rather than panicking.
            return xs.iter().map(|p| self.predict(p)).collect();
        }
        let mut sq = vec![0.0; m];
        for i in 0..n {
            for (s, &v) in sq.iter_mut().zip(kstar.row(i)) {
                *s += v * v;
            }
        }
        let prior = self.kernel.diag_value() + self.noise;
        let var_scale = self.y_std * self.y_std;
        mean.iter()
            .zip(&sq)
            .map(|(&mu, &s)| {
                (
                    mu * self.y_std + self.y_mean,
                    (prior - s).max(0.0) * var_scale,
                )
            })
            .collect()
    }

    /// Log marginal likelihood of the (standardized) training data.
    pub fn lml(&self) -> f64 {
        self.lml
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The fitted noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Spectral condition number of the (noise-augmented) kernel matrix —
    /// a numerical-health diagnostic. Values above ~1e12 mean the
    /// factorization is living off jitter and predictions near data points
    /// should not be over-trusted; common causes are near-duplicate
    /// observations (an over-exploitative acquisition) or a length-scale
    /// far larger than the data spread.
    pub fn kernel_condition_number(&self) -> f64 {
        let n = self.x.len();
        let mut k = Matrix::from_fn(n, n, |i, j| self.kernel.eval(&self.x[i], &self.x[j]));
        k.add_diag(self.noise);
        match cets_linalg::SymEigen::new(&k) {
            Ok(e) => e.condition_number(),
            Err(_) => f64::INFINITY,
        }
    }

    /// Cheap conditioning estimate from the existing Cholesky factor:
    /// `(max_i L_ii / min_i L_ii)²`. A lower bound on
    /// [`Gp::kernel_condition_number`] at `O(n)` cost instead of the
    /// eigendecomposition's `O(n³)`, so it can run on every incremental
    /// update. It is exactly the quantity [`Gp::append`] degrades: each
    /// near-duplicate observation appends a tiny pivot to the factor's
    /// diagonal, and the ratio explodes long before the factorization
    /// fails outright.
    pub fn chol_condition_estimate(&self) -> f64 {
        let diag = self.chol.l().diag();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for v in diag {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo <= 0.0 {
            return f64::INFINITY;
        }
        let r = hi / lo;
        r * r
    }

    /// Leave-one-out cross-validation residuals, computed in closed form
    /// from the existing factorization (Sundararajan & Keerthi): for each
    /// training point, `mu_i = y_i − α_i / [K⁻¹]_ii` and
    /// `σ²_i = 1 / [K⁻¹]_ii` — no refitting. Returns
    /// `(loo_means, loo_variances)` in original target units.
    ///
    /// Use this to gauge surrogate quality during a search: systematically
    /// poor LOO predictions mean the acquisition is flying blind (e.g. the
    /// budget is too small for the dimensionality — the paper's argument
    /// for capping searches at 10 dimensions).
    pub fn loo_cv(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.x.len();
        let k_diag = self.chol.inv_diag();
        let mut means = Vec::with_capacity(n);
        let mut vars = Vec::with_capacity(n);
        for (i, &kd) in k_diag.iter().enumerate().take(n) {
            let kii = kd.max(1e-300);
            let mu_std = self.ys[i] - self.alpha[i] / kii;
            let var_std = 1.0 / kii;
            means.push(mu_std * self.y_std + self.y_mean);
            vars.push(var_std * self.y_std * self.y_std);
        }
        (means, vars)
    }

    /// LOO-CV pseudo R²: `1 − Σ(y_i − mu_i)² / Σ(y_i − ȳ)²`. `None` when
    /// the targets are constant.
    pub fn loo_r2(&self) -> Option<f64> {
        let (means, _) = self.loo_cv();
        let y: Vec<f64> = self
            .ys
            .iter()
            .map(|&v| v * self.y_std + self.y_mean)
            .collect();
        let ybar = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|&v| (v - ybar) * (v - ybar)).sum();
        if ss_tot <= 0.0 {
            return None;
        }
        let ss_res: f64 = y
            .iter()
            .zip(&means)
            .map(|(&yi, &mi)| (yi - mi) * (yi - mi))
            .sum();
        Some(1.0 - ss_res / ss_tot)
    }

    /// Absorb one new observation in `O(n²)` via a bordered Cholesky
    /// update — the per-iteration path of the BO loop between full
    /// hyperparameter retrainings.
    ///
    /// The target standardization constants are kept from the original
    /// fit (standardization is an affine reparametrization, so predictions
    /// remain exact; the constants are merely slightly stale for numerical
    /// conditioning). Fails when the bordered kernel matrix loses positive
    /// definiteness (e.g. a near-duplicate input); callers should fall
    /// back to a fresh [`Gp::fit`].
    ///
    /// **Refit contract.** Appends accumulate conditioning damage that a
    /// successful return does not signal: each one freezes the
    /// hyperparameters and standardization while adding a row to the
    /// factor, so a run of appends near existing observations shrinks the
    /// smallest Cholesky pivot monotonically. Callers must bound the
    /// number of consecutive appends and refit periodically — the BO
    /// loops do this via their `retrain_every` knob, retraining
    /// hyperparameters from scratch every `retrain_every` observations.
    /// Debug builds enforce the contract with an assertion on
    /// [`Gp::chol_condition_estimate`] (threshold
    /// [`APPEND_CONDITION_LIMIT`]); release builds skip the check, as a
    /// degraded-but-PD factor still predicts, just with less trustworthy
    /// uncertainties.
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<()> {
        if x_new.len() != self.kernel.dim() {
            return Err(GpError::BadShape(format!(
                "append: input dim {} != {}",
                x_new.len(),
                self.kernel.dim()
            )));
        }
        check_finite(std::slice::from_ref(&x_new), &[y_new])?;
        let col: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, &x_new))
            .collect();
        let diag = self.kernel.diag_value() + self.noise;
        self.chol
            .append(&col, diag)
            .map_err(|e| GpError::Factorization(e.to_string()))?;
        debug_assert!(
            self.chol_condition_estimate() < APPEND_CONDITION_LIMIT,
            "Gp::append: conditioning estimate {:.3e} exceeds {APPEND_CONDITION_LIMIT:.0e} \
             after {} appended observations — the caller is appending past the refit \
             contract (see Gp::append docs; retrain hyperparameters every \
             `retrain_every` observations)",
            self.chol_condition_estimate(),
            self.x.len() + 1,
        );
        self.x.push(x_new);
        self.ys.push((y_new - self.y_mean) / self.y_std);
        self.alpha = self.chol.solve_vec(&self.ys);
        let data_fit: f64 = self.ys.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        self.lml = -0.5 * data_fit
            - 0.5 * self.chol.log_det()
            - 0.5 * self.x.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(())
    }
}

/// Reject NaN/infinite inputs or targets before they reach a factorization:
/// a single poisoned entry spreads through the Cholesky and every
/// subsequent prediction without tripping any error.
pub(crate) fn check_finite(x: &[Vec<f64>], y: &[f64]) -> Result<()> {
    for (i, row) in x.iter().enumerate() {
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite(format!(
                "input row {i} contains a non-finite coordinate"
            )));
        }
    }
    for (i, v) in y.iter().enumerate() {
        if !v.is_finite() {
            return Err(GpError::NonFinite(format!("target {i} is {v}")));
        }
    }
    Ok(())
}

pub(crate) fn standardization(y: &[f64]) -> (f64, f64) {
    let mean = cets_linalg::vecops::mean(y);
    let std = cets_linalg::vecops::std_dev(y);
    (mean, if std > 1e-12 { std } else { 1.0 })
}

/// The kernel Gram matrix `K(x, x)` (without noise), built from the lower
/// triangle only and mirrored — stationary kernels are exactly symmetric,
/// so this halves the evaluation count of a full `from_fn` build.
fn gram(x: &[Vec<f64>], kernel: &Kernel) -> Matrix {
    let n = x.len();
    let diag = kernel.diag_value();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let v = kernel.eval(&x[i], &x[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] = diag;
    }
    k
}

/// Per-dimension pairwise squared differences of the training inputs,
/// laid out dimension-major over the strict lower triangle:
/// `data[k · P + p] = (x_i[k] − x_j[k])²` where `p` enumerates the pairs
/// `(i, j), j < i` in row order and `P = n(n−1)/2`.
///
/// Hyperparameter training evaluates the log marginal likelihood hundreds
/// of times per [`Gp::train`] call; the distances never change across
/// those evaluations, only the length-scale weights do. The
/// dimension-major layout turns the per-evaluation reduction
/// `r²_p = Σ_k w_k · data[k][p]` into `d` contiguous axpy sweeps.
pub(crate) struct PairTensor {
    data: Vec<f64>,
    n: usize,
}

impl PairTensor {
    pub(crate) fn new(x: &[Vec<f64>]) -> Self {
        Self::new_with(x, 1)
    }

    /// Build the tensor with up to `workers` threads. The dimension-major
    /// layout makes each dimension's pair block a disjoint contiguous
    /// slice, so dimensions split across workers with every element
    /// keeping its single-write sequential arithmetic — bit-identical at
    /// any worker count.
    pub(crate) fn new_with(x: &[Vec<f64>], workers: usize) -> Self {
        let n = x.len();
        let d = x.first().map_or(0, |r| r.len());
        let np = n * (n - 1) / 2;
        let mut data = vec![0.0; d * np];
        let dims = par::chunk_ranges(d, if np * d < 8192 { 1 } else { workers });
        par::for_each_part(
            par::split_blocks(&mut data, &dims, |k| k * np),
            |(block, ks)| {
                for (k, dk) in ks.zip(block.chunks_exact_mut(np.max(1))) {
                    let mut p = 0;
                    for i in 1..n {
                        let xik = x[i][k];
                        for xj in x.iter().take(i) {
                            let dv = xik - xj[k];
                            dk[p] = dv * dv;
                            p += 1;
                        }
                    }
                }
            },
        );
        PairTensor { data, n }
    }

    pub(crate) fn n_pairs(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    /// Dimension `k`'s slice: `(x_i[k] − x_j[k])²` over the pairs in row
    /// order.
    pub(crate) fn dim(&self, k: usize) -> &[f64] {
        let np = self.n_pairs();
        &self.data[k * np..(k + 1) * np]
    }

    /// `acc[p] = Σ_k w[k] · data[k][p]` — the fused multiply-add pass.
    pub(crate) fn weighted_r2(&self, w: &[f64], acc: &mut [f64]) {
        self.weighted_r2_with(w, acc, 1);
    }

    /// [`PairTensor::weighted_r2`] with up to `workers` threads. Pair
    /// chunks are disjoint in `acc` and each element's accumulation stays
    /// ascending-`k`, so any chunking is bit-identical.
    pub(crate) fn weighted_r2_with(&self, w: &[f64], acc: &mut [f64], workers: usize) {
        let np = acc.len();
        let chunks = par::chunk_ranges(np, if np < 8192 { 1 } else { workers });
        par::for_each_part(par::split_blocks(acc, &chunks, |p| p), |(chunk, r)| {
            chunk.fill(0.0);
            for (k, &wk) in w.iter().enumerate() {
                let dk = &self.data[k * np + r.start..k * np + r.end];
                for (a, &t) in chunk.iter_mut().zip(dk) {
                    *a += wk * t;
                }
            }
        });
    }
}

/// Below this many kernel-matrix entries, per-evaluation work stays on the
/// calling thread: a spawn costs more than the work it would split.
const PAR_MIN_ENTRIES: usize = 4096;

/// Lower clamp on the log noise variance (the floor applies after it).
const LOG_NOISE_MIN: f64 = -27.0;
/// Upper clamp on the log noise variance.
const LOG_NOISE_MAX: f64 = 3.0;

/// The training objective: the negative log marginal likelihood of the
/// standardized targets as a function of the log-space hyperparameters
/// `p = [ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]`.
struct LmlObjective<'a> {
    tensor: &'a PairTensor,
    ys: &'a [f64],
    kind: KernelKind,
    opt_noise: bool,
    floor: f64,
    /// Workers inside one evaluation: 1 below [`PAR_MIN_ENTRIES`].
    workers: usize,
}

/// The kernel and noise variance a log-space hyperparameter vector
/// `[ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]` encodes. The kernel clamps every
/// log-parameter to `±LOG_PARAM_CLAMP`; the noise (last entry, present when
/// `opt_noise`) is clamped to `[e^LOG_NOISE_MIN, e^LOG_NOISE_MAX]` and then
/// floored, and is the floor itself otherwise. Shared by both tiers'
/// training objectives and their final fits.
pub(crate) fn unpack_log_params(
    kind: KernelKind,
    p: &[f64],
    opt_noise: bool,
    floor: f64,
) -> (Kernel, f64) {
    if opt_noise {
        let (kp, np_) = p.split_at(p.len() - 1);
        (
            Kernel::from_log_params(kind, kp),
            np_[0].clamp(LOG_NOISE_MIN, LOG_NOISE_MAX).exp().max(floor),
        )
    } else {
        (Kernel::from_log_params(kind, p), floor)
    }
}

/// One L-BFGS restart's evaluations of the shared [`LmlObjective`], with
/// the restart's own buffers so restarts can run concurrently: the kernel
/// matrix, the packed pairwise `r²` and profile slopes `g′(r²)`, `L⁻¹`,
/// `W = K⁻¹ − ααᵀ` and the packed `W ⊙ g′` survive across evaluations, so
/// the hot loop allocates nothing besides the Cholesky factor and `α` —
/// which the value step leaves in `fit` for the gradient step.
struct LmlRestart<'a> {
    objective: &'a LmlObjective<'a>,
    k: Matrix,
    r2: Vec<f64>,
    slope: Vec<f64>,
    linv: Matrix,
    w: Matrix,
    v: Vec<f64>,
    fit: Option<(Cholesky, Vec<f64>)>,
}

impl<'a> LmlRestart<'a> {
    fn new(objective: &'a LmlObjective<'a>) -> Self {
        let (n, n_pairs) = (objective.tensor.n, objective.tensor.n_pairs());
        LmlRestart {
            objective,
            k: Matrix::zeros(n, n),
            r2: vec![0.0; n_pairs],
            slope: vec![0.0; n_pairs],
            linv: Matrix::zeros(n, n),
            w: Matrix::zeros(n, n),
            v: vec![0.0; n_pairs],
            fit: None,
        }
    }
}

impl LbfgsObjective for LmlRestart<'_> {
    /// The value step: negative LML at `p`, `+∞` when the kernel matrix
    /// cannot be factorized. Fills the kernel matrix and the packed profile
    /// slopes, factors and solves, and keeps the factor and `α = K⁻¹y` for
    /// the gradient step.
    fn value(&mut self, p: &[f64]) -> f64 {
        let o = self.objective;
        let (kernel, noise) = unpack_log_params(o.kind, p, o.opt_noise, o.floor);
        fill_kernel(self, &kernel, noise);
        self.fit = None;
        let Ok(chol) = Cholesky::new_jittered_with(&self.k, o.workers) else {
            return f64::INFINITY;
        };
        let alpha = chol.solve_vec(o.ys);
        let data_fit: f64 = o.ys.iter().zip(&alpha).map(|(&a, &b)| a * b).sum();
        let neg_lml = 0.5 * data_fit
            + 0.5 * chol.log_det()
            + 0.5 * o.tensor.n as f64 * (2.0 * std::f64::consts::PI).ln();
        self.fit = Some((chol, alpha));
        neg_lml
    }

    /// The gradient step: the gradient of the negative LML at the `p` of
    /// the preceding value step, written into `grad`, reusing that step's
    /// factor (all NaN when it had none).
    ///
    /// With `α = K⁻¹y` and `W = K⁻¹ − ααᵀ`, each component is
    /// `∂(−LML)/∂θ = ½ tr(W ∂K/∂θ)`, summed over the lower triangle
    /// (`W` and `∂K` are symmetric):
    /// * `ln σ²`: `∂K/∂θ` is the noise-free kernel matrix;
    /// * `ln ℓ_k`: `∂K_ij/∂θ = −2 w_k σ² g′(r²_ij) D_k,ij` with
    ///   `w_k = 1/ℓ_k²`, `g′ = dg/d(r²)` and `D_k` the pair tensor's slice
    ///   for dimension `k`, so the component is one dot product of the
    ///   packed `W ⊙ g′` with `D_k`;
    /// * `ln σ_n²`: `∂K/∂θ = σ_n² I`.
    ///
    /// A parameter past its clamp leaves the likelihood flat, so its
    /// component is zero. Every sum runs in a fixed order and dimensions
    /// are the unit of parallel work, so the gradient is bit-identical at
    /// any worker count.
    fn gradient(&mut self, p: &[f64], grad: &mut [f64]) {
        let Some((chol, alpha)) = self.fit.as_ref() else {
            grad.fill(f64::NAN);
            return;
        };
        let o = self.objective;
        let (kernel, noise) = unpack_log_params(o.kind, p, o.opt_noise, o.floor);
        inverse_lower(chol.l(), &mut self.linv, &mut self.w, o.workers);
        let w = &mut self.w;
        for (i, &ai) in alpha.iter().enumerate() {
            for (wij, &aj) in w.row_mut(i)[..=i].iter_mut().zip(alpha) {
                *wij -= ai * aj;
            }
        }
        // One pass over the pairs (row order, matching the tensor): the
        // variance term Σ W_ij K_ij and the packed W_ij · g′(r²_ij).
        let mut tr_w = 0.0;
        let mut w_dot_k = 0.0;
        let mut pair = 0;
        for i in 0..o.tensor.n {
            let w_row = &w.row(i)[..=i];
            let k_row = &self.k.row(i)[..i];
            tr_w += w_row[i];
            for (j, (&wij, &kij)) in w_row[..i].iter().zip(k_row).enumerate() {
                w_dot_k += wij * kij;
                self.v[pair + j] = wij * self.slope[pair + j];
            }
            pair += i;
        }

        let sigma2 = kernel.variance();
        let active = |v: f64| v.abs() <= LOG_PARAM_CLAMP;
        grad[0] = if active(p[0]) {
            0.5 * sigma2 * tr_w + w_dot_k
        } else {
            0.0
        };
        let inv_sq = kernel.inv_sq_lengthscales();
        let v = &self.v;
        let dots = par::map_indexed(o.workers, inv_sq.len(), |k| {
            if active(p[1 + k]) {
                -2.0 * inv_sq[k] * sigma2 * dot_fixed_order(v, o.tensor.dim(k))
            } else {
                0.0
            }
        });
        grad[1..1 + dots.len()].copy_from_slice(&dots);
        if o.opt_noise {
            let pn = p[p.len() - 1];
            let free = (LOG_NOISE_MIN..=LOG_NOISE_MAX).contains(&pn) && pn.exp() > o.floor;
            grad[p.len() - 1] = if free { 0.5 * noise * tr_w } else { 0.0 };
        }
    }
}

/// Rebuild the kernel matrix `K + noise·I` into `restart.k`, and the
/// packed profile slopes `g′(r²)` the gradient step needs into
/// `restart.slope`, from the cached distance tensor — one weighted
/// reduction plus one fused profile-and-slope pass instead of O(n²d) fresh
/// distance computations — using the objective's workers.
///
/// Only the lower triangle and diagonal are written: the Cholesky kernels
/// and the gradient read nothing above the diagonal, so mirroring would be
/// pure overhead. Row `i`'s pairs are contiguous in the packed vectors
/// (base `i(i−1)/2`), so rows partition cleanly across workers and every
/// entry is one independent profile evaluation — any row partition is
/// bit-identical.
fn fill_kernel(restart: &mut LmlRestart, kernel: &Kernel, noise: f64) {
    let (tensor, workers) = (restart.objective.tensor, restart.objective.workers);
    let n = tensor.n;
    tensor.weighted_r2_with(&kernel.inv_sq_lengthscales(), &mut restart.r2, workers);
    let (variance, diag) = (kernel.variance(), kernel.diag_value() + noise);
    let r2 = &restart.r2;
    let packed = |i: usize| i * i.saturating_sub(1) / 2;
    // Row i costs i + 1 evaluations, so triangular ranges balance the
    // profile work; blocks are whole rows, hence disjoint.
    let rows = par::triangular_ranges(n, workers);
    let k_blocks = par::split_blocks(restart.k.as_mut_slice(), &rows, |i| i * n);
    let blocks = k_blocks
        .into_iter()
        .zip(par::split_blocks(&mut restart.slope, &rows, packed));
    par::for_each_part(blocks.collect(), |((krows, r), (slopes, _))| {
        let base = packed(r.start);
        for (row, i) in krows.chunks_exact_mut(n).zip(r) {
            let (lo, hi) = (packed(i), packed(i + 1));
            let slopes = &mut slopes[lo - base..hi - base];
            for ((kij, sij), &t) in row[..i].iter_mut().zip(slopes).zip(&r2[lo..hi]) {
                let (g, dg) = kernel.profile_and_slope(t);
                *kij = variance * g;
                *sij = dg;
            }
            row[i] = diag;
        }
    });
}

/// Lower triangle of `A⁻¹ = L⁻ᵀL⁻¹` from the Cholesky factor `L`, written
/// into `inv`; `linv` receives `L⁻¹`. Neither output is touched above the
/// diagonal.
///
/// `L⁻¹` is built row by row (`row_i = (e_i − Σ_{k<i} L_ik row_k) / L_ii`,
/// contiguous axpys, `n³/6` flops) and `A⁻¹` as the sum of the rank-one
/// updates `row_kᵀ row_k` restricted to the lower triangle (another
/// `n³/6`). The second sweep applies four `k`s per pass over an output row
/// to cut its memory traffic, but every entry still takes its updates one
/// at a time in ascending `k`, so the grouping changes no bits; it splits
/// across workers by output rows, which makes the result bit-identical at
/// any worker count.
fn inverse_lower(l: &Matrix, linv: &mut Matrix, inv: &mut Matrix, workers: usize) {
    let n = l.rows();
    let data = linv.as_mut_slice();
    for i in 0..n {
        let (done, rest) = data.split_at_mut(i * n);
        let row = &mut rest[..=i];
        row.fill(0.0);
        row[i] = 1.0;
        for (k, &lik) in l.row(i)[..i].iter().enumerate() {
            for (a, &m) in row[..=k].iter_mut().zip(&done[k * n..=k * n + k]) {
                *a -= lik * m;
            }
        }
        let lii = l[(i, i)];
        for a in row.iter_mut() {
            *a /= lii;
        }
    }
    let linv = &*linv;
    // Lower part of row `i` within the block of rows starting at `start`.
    fn row_of(rows: &mut [f64], start: usize, n: usize, i: usize) -> &mut [f64] {
        let off = (i - start) * n;
        &mut rows[off..=off + i]
    }
    let rows = par::chunk_ranges(n, workers);
    par::for_each_part(
        par::split_blocks(inv.as_mut_slice(), &rows, |i| i * n),
        |(rows, r)| {
            for i in r.clone() {
                row_of(rows, r.start, n, i).fill(0.0);
            }
            let mut k0 = r.start;
            while k0 < n {
                let k1 = (k0 + 4).min(n);
                // Rows i ≤ k0 take all four k of a full group in one pass;
                // the rest (a short last group, rows inside the group) take
                // their k ≥ i one at a time.
                let mut single = r.start;
                if k1 - k0 == 4 {
                    single = r.end.min(k0 + 1);
                    let m = [k0, k0 + 1, k0 + 2, k0 + 3].map(|k| linv.row(k));
                    for i in r.start..single {
                        let c = m.map(|mk| mk[i]);
                        let cols = row_of(rows, r.start, n, i)
                            .iter_mut()
                            .zip(&m[0][..=i])
                            .zip(&m[1][..=i])
                            .zip(&m[2][..=i])
                            .zip(&m[3][..=i]);
                        for ((((x, &m0), &m1), &m2), &m3) in cols {
                            let mut v = *x;
                            v += c[0] * m0;
                            v += c[1] * m1;
                            v += c[2] * m2;
                            v += c[3] * m3;
                            *x = v;
                        }
                    }
                }
                for i in single..r.end.min(k1) {
                    let a = row_of(rows, r.start, n, i);
                    for k in i.max(k0)..k1 {
                        let m_k = &linv.row(k)[..=i];
                        let mki = m_k[i];
                        for (x, &mkj) in a.iter_mut().zip(m_k) {
                            *x += mki * mkj;
                        }
                    }
                }
                k0 = k1;
            }
        },
    );
}

/// `Σ a_i b_i` with four interleaved partial sums combined at the end: a
/// fixed association independent of any thread split, and four
/// independent dependency chains instead of one.
fn dot_fixed_order(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..4 {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
#[path = "tests/gp_reference.rs"]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_noise_free_data() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| (4.0 * v[0]).sin()).collect();
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-8).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-3, "at {xi:?}: {m} vs {yi}");
        }
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let x = grid_1d(6);
        let mut y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        y[3] = f64::NAN;
        let cfg = GpConfig::default();
        assert!(matches!(
            Gp::train(&x, &y, &cfg),
            Err(GpError::NonFinite(_))
        ));
        assert!(matches!(
            Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-6),
            Err(GpError::NonFinite(_))
        ));
        let mut bad_x = x.clone();
        bad_x[1][0] = f64::INFINITY;
        let y_ok: Vec<f64> = x.iter().map(|v| v[0]).collect();
        assert!(matches!(
            Gp::train(&bad_x, &y_ok, &cfg),
            Err(GpError::NonFinite(_))
        ));
        // Incremental updates are guarded too.
        let mut gp = Gp::fit(&x, &y_ok, Kernel::new(KernelKind::SquaredExp, 1), 1e-6).unwrap();
        assert!(matches!(
            gp.append(vec![0.55], f64::NAN),
            Err(GpError::NonFinite(_))
        ));
        assert!(matches!(
            gp.append(vec![f64::NEG_INFINITY], 0.5),
            Err(GpError::NonFinite(_))
        ));
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.2], vec![0.4]];
        let y = vec![1.0, 2.0];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern52, 1), 1e-6).unwrap();
        let (_, v_near) = gp.predict(&[0.3]);
        let (_, v_far) = gp.predict(&[0.95]);
        assert!(v_far > v_near);
        assert!(v_near >= 0.0);
    }

    #[test]
    fn train_recovers_smooth_function() {
        let x = grid_1d(25);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let (m, _) = gp.predict(&[0.33]);
        assert!((m - (0.99_f64).sin()).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn train_beats_default_kernel_lml() {
        let x = grid_1d(20);
        // Rapidly varying function: needs a short lengthscale.
        let y: Vec<f64> = x.iter().map(|v| (20.0 * v[0]).sin()).collect();
        let default_fit = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-6).unwrap();
        let cfg = GpConfig {
            kernel: KernelKind::SquaredExp,
            ..Default::default()
        };
        let trained = Gp::train(&x, &y, &cfg).unwrap();
        assert!(
            trained.lml() > default_fit.lml(),
            "trained {} <= default {}",
            trained.lml(),
            default_fit.lml()
        );
        // The learned lengthscale should be short.
        assert!(trained.kernel().lengthscales()[0] < 0.3);
    }

    #[test]
    fn noisy_data_learns_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = grid_1d(40);
        let y: Vec<f64> = x
            .iter()
            .map(|v| v[0] + 0.3 * (rng.random::<f64>() - 0.5))
            .collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        // Should not interpolate: noise well above the floor.
        assert!(gp.noise() > 1e-4, "noise {} too small", gp.noise());
    }

    #[test]
    fn shape_errors() {
        assert!(Gp::fit(&[], &[], Kernel::new(KernelKind::SquaredExp, 1), 1e-6).is_err());
        assert!(Gp::fit(
            &[vec![0.0]],
            &[1.0, 2.0],
            Kernel::new(KernelKind::SquaredExp, 1),
            1e-6
        )
        .is_err());
        assert!(Gp::fit(
            &[vec![0.0, 1.0]],
            &[1.0],
            Kernel::new(KernelKind::SquaredExp, 1),
            1e-6
        )
        .is_err());
    }

    #[test]
    fn constant_targets_are_handled() {
        let x = grid_1d(5);
        let y = vec![2.0; 5];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        let (m, v) = gp.predict(&[0.5]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(v >= 0.0);
    }

    #[test]
    fn duplicate_inputs_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.9]];
        let y = vec![1.0, 1.1, 2.0];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-9).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.05).abs() < 0.2);
    }

    #[test]
    fn predict_mean_matches_predict() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern52, 1), 1e-6).unwrap();
        let (m, _) = gp.predict(&[0.37]);
        assert!((gp.predict_mean(&[0.37]) - m).abs() < 1e-12);
    }

    #[test]
    fn append_matches_full_refit() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| (4.0 * v[0]).sin()).collect();
        let kernel = Kernel::new(KernelKind::Matern52, 1);
        let mut gp = Gp::fit(&x[..9], &y[..9], kernel.clone(), 1e-6).unwrap();
        gp.append(x[9].clone(), y[9]).unwrap();
        // A full refit re-standardizes the targets, so its effective prior
        // variance differs slightly from the appended model's (the appended
        // GP keeps the 9-point standardization constants); predictions
        // agree to within that small reparametrization effect.
        let full = Gp::fit(&x, &y, kernel, 1e-6).unwrap();
        assert_eq!(gp.n_train(), 10);
        for probe in [[0.05], [0.45], [0.93]] {
            let (m1, v1) = gp.predict(&probe);
            let (m2, v2) = full.predict(&probe);
            assert!((m1 - m2).abs() < 5e-3, "mean {m1} vs {m2}");
            assert!((v1 - v2).abs() < 5e-3, "var {v1} vs {v2}");
        }
        // The appended model interpolates the new observation.
        assert!((gp.predict_mean(&x[9]) - y[9]).abs() < 1e-2);
    }

    #[test]
    fn append_duplicate_point_fails_gracefully() {
        let x = vec![vec![0.5]];
        let y = vec![1.0];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 0.0).unwrap();
        // Exact duplicate with zero noise: bordered matrix singular.
        let r = gp.append(vec![0.5], 1.0);
        assert!(r.is_err());
        // GP still usable.
        assert_eq!(gp.n_train(), 1);
        assert!(gp.predict(&[0.5]).0.is_finite());
    }

    #[test]
    fn append_dim_checked() {
        let x = grid_1d(4);
        let y = vec![0.0; 4];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        assert!(matches!(
            gp.append(vec![0.1, 0.2], 1.0),
            Err(GpError::BadShape(_))
        ));
    }

    #[test]
    fn chol_condition_estimate_tracks_conditioning() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        // Well-separated points: benign estimate, far under the limit.
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let good = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        let ge = good.chol_condition_estimate();
        assert!(ge < 1e6, "benign estimate {ge}");
        // The O(n) estimate is a lower bound on the O(n³) spectral number.
        assert!(ge <= good.kernel_condition_number() * (1.0 + 1e-9));
        // Near-duplicates with tiny noise: the estimate explodes too.
        let x2 = vec![vec![0.5], vec![0.5 + 1e-7], vec![0.9]];
        let y2 = vec![1.0, 1.0, 2.0];
        let bad = Gp::fit(&x2, &y2, kernel, 1e-12).unwrap();
        let be = bad.chol_condition_estimate();
        assert!(be > 1e6, "degenerate estimate {be}");
        assert!(be <= bad.kernel_condition_number() * (1.0 + 1e-9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "refit contract")]
    fn append_past_conditioning_limit_asserts_in_debug() {
        // Two well-separated points with near-zero noise factorize
        // cleanly; appending an all-but-duplicate observation leaves the
        // factor PD (so `append` itself succeeds) with a pivot around
        // √1e-13 — an estimate of ~1e13, past APPEND_CONDITION_LIMIT.
        let x = vec![vec![0.2], vec![0.8]];
        let y = vec![1.0, 2.0];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-13).unwrap();
        let _ = gp.append(vec![0.2 + 1e-8], 1.0);
    }

    #[test]
    fn condition_number_flags_duplicates() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        // Well-separated points: benign conditioning.
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let good = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        // Near-duplicate points: conditioning explodes.
        let x2 = vec![vec![0.5], vec![0.5 + 1e-9], vec![0.9]];
        let y2 = vec![1.0, 1.0, 2.0];
        let bad = Gp::fit(&x2, &y2, kernel, 1e-12).unwrap();
        assert!(
            bad.kernel_condition_number() > 100.0 * good.kernel_condition_number(),
            "bad {} vs good {}",
            bad.kernel_condition_number(),
            good.kernel_condition_number()
        );
    }

    #[test]
    fn loo_cv_matches_explicit_refits() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| (5.0 * v[0]).sin()).collect();
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        let gp = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        let (loo_means, loo_vars) = gp.loo_cv();
        // Explicitly refit without point i and compare predictions.
        for i in [0usize, 3, 7] {
            let (mut xi, mut yi) = (x.clone(), y.clone());
            xi.remove(i);
            yi.remove(i);
            // Fit on raw targets with the same standardization as the
            // full model would be ideal; small differences from differing
            // standardization are tolerated below.
            let refit = Gp::fit(&xi, &yi, kernel.clone(), 1e-4).unwrap();
            let (m, v) = refit.predict(&x[i]);
            assert!(
                (m - loo_means[i]).abs() < 0.05,
                "point {i}: closed-form {} vs refit {m}",
                loo_means[i]
            );
            assert!(v > 0.0 && loo_vars[i] > 0.0);
        }
    }

    #[test]
    fn loo_r2_high_for_learnable_function() {
        let x = grid_1d(20);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let r2 = gp.loo_r2().unwrap();
        assert!(r2 > 0.9, "LOO R² {r2}");
        // Constant targets: undefined.
        let gc = Gp::fit(&x, &[1.0; 20], Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        assert!(gc.loo_r2().is_none());
    }

    /// Noise floor of the gradient tests: high enough that every kernel
    /// matrix they factorize is well conditioned, so central differences
    /// are accurate.
    const FD_FLOOR: f64 = 1e-2;

    /// Negative LML and its analytic gradient at `p` for a random 3-dim
    /// data set.
    fn value_grad(kind: KernelKind, opt_noise: bool, p: &[f64]) -> (f64, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<Vec<f64>> = (0..70)
            .map(|_| (0..3).map(|_| rng.random::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| (4.0 * v[0]).sin() + v[1] * v[2] + 0.05 * rng.random::<f64>())
            .collect();
        let (mean, std) = standardization(&y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - mean) / std).collect();
        let tensor = PairTensor::new(&x);
        let objective = LmlObjective {
            tensor: &tensor,
            ys: &ys,
            kind,
            opt_noise,
            floor: FD_FLOOR,
            workers: 1,
        };
        let mut restart = LmlRestart::new(&objective);
        let mut grad = vec![f64::NAN; p.len()];
        let f = restart.value(p);
        restart.gradient(p, &mut grad);
        (f, grad)
    }

    #[test]
    fn lml_gradient_matches_central_differences() {
        // Points: a generic interior one; one with the variance and a
        // length-scale past the ±8 clamp and the noise past its e³ clamp;
        // and one whose noise sits below the floor. Components past a
        // clamp or the floor must be exactly 0.
        let interior = [0.3, -0.9, -0.2, 0.6, -4.0];
        let clamped = [-8.5, -0.9, 9.0, 0.6, 3.5];
        let floored = [0.3, -0.9, -0.2, 0.6, -6.0];
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            for opt_noise in [true, false] {
                for point in [&interior[..], &clamped[..], &floored[..]] {
                    let p = if opt_noise { point } else { &point[..4] };
                    let (f, grad) = value_grad(kind, opt_noise, p);
                    assert!(f.is_finite());
                    for (c, &g) in grad.iter().enumerate() {
                        let h = 1e-5;
                        let mut up = p.to_vec();
                        let mut dn = p.to_vec();
                        up[c] += h;
                        dn[c] -= h;
                        let fd = (value_grad(kind, opt_noise, &up).0
                            - value_grad(kind, opt_noise, &dn).0)
                            / (2.0 * h);
                        let past_clamp = if opt_noise && c == p.len() - 1 {
                            !(LOG_NOISE_MIN..=LOG_NOISE_MAX).contains(&p[c])
                                || p[c].exp() <= FD_FLOOR
                        } else {
                            p[c].abs() > 8.0
                        };
                        if past_clamp {
                            assert_eq!(g, 0.0, "{kind:?} noise={opt_noise} component {c}");
                        }
                        assert!(
                            (g - fd).abs() <= 1e-5 * (1.0 + fd.abs()),
                            "{kind:?} noise={opt_noise} p={p:?} component {c}: \
                             analytic {g} vs central difference {fd}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_lower_matches_cholesky_inverse() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 9;
        let b = Matrix::from_fn(n, n, |_, _| rng.random::<f64>() - 0.5);
        let mut a = b.mat_mul(&b.transpose()).unwrap();
        a.add_diag(0.5);
        let chol = Cholesky::new(&a).unwrap();
        let full = chol.inverse();
        let (mut linv, mut inv) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        inverse_lower(chol.l(), &mut linv, &mut inv, 1);
        for i in 0..n {
            for j in 0..=i {
                assert!((inv[(i, j)] - full[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn train_stats_count_every_restart() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|v| (5.0 * v[0]).sin()).collect();
        let cfg = GpConfig::default();
        let gp = Gp::train(&x, &y, &cfg).unwrap();
        let stats = gp.train_stats();
        assert_eq!(stats.evals.len(), cfg.n_restarts);
        assert!(stats.winner < cfg.n_restarts);
        assert!(stats
            .evals
            .iter()
            .all(|&e| (1..=cfg.lbfgs.max_evals).contains(&e)));
        assert_eq!(stats.total_evals(), stats.evals.iter().sum::<usize>());
        // A fixed-hyperparameter fit did no training work.
        let fitted = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern52, 1), 1e-6).unwrap();
        assert_eq!(fitted.train_stats(), &TrainStats::default());
    }

    #[test]
    fn train_2d_anisotropic() {
        // y depends on dim 0 only; ARD should learn a long lengthscale
        // for dim 1.
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let ls = gp.kernel().lengthscales();
        assert!(
            ls[1] > 2.0 * ls[0],
            "expected ARD to stretch irrelevant dim: {ls:?}"
        );
    }
}
