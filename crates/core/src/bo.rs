//! The Bayesian-optimization search loop (the role GPTune plays in the
//! paper).
//!
//! A [`BoSearch`] minimizes a scalar objective over a [`Subspace`]: start
//! from a small Latin-hypercube design (the paper uses 5 random initial
//! configurations), then repeatedly (a) fit a Gaussian process to all
//! observations, (b) optimize an acquisition function over valid candidates,
//! (c) evaluate the suggested configuration. The incumbent trace (best value
//! after each evaluation) is recorded — it is exactly what the paper's
//! Figure 6 plots.

use crate::checkpoint::BoCheckpoint;
use crate::normal;
use crate::resilience::{splitmix64, EvalError, EvalOutcome, EvalRecord, FailedEval};
use crate::{CoreError, Result};
use cets_gp::{GpConfig, Surrogate};
use cets_space::{Config, SpaceError, Subspace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;

/// A prior-mean function over the active unit cube (difference-GP
/// transfer learning).
pub type PriorMean<'a> = &'a (dyn Fn(&[f64]) -> f64 + Sync);
use std::time::{Duration, Instant};

/// Acquisition functions for minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (with exploration margin
    /// `xi`); the BO default.
    ExpectedImprovement {
        /// Exploration margin added to the incumbent.
        xi: f64,
    },
    /// Lower confidence bound `mean − beta·sigma` (minimized).
    LowerConfidenceBound {
        /// Exploration weight on the predictive standard deviation.
        beta: f64,
    },
    /// Probability of improving on the incumbent by at least `xi`.
    ProbabilityOfImprovement {
        /// Required improvement margin.
        xi: f64,
    },
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }
}

impl Acquisition {
    /// Score a candidate (higher is better) given the GP posterior mean,
    /// variance and the incumbent value. Public so alternative search
    /// loops (the related-work baselines in [`crate::highdim`]) can reuse
    /// the exact same acquisition arithmetic.
    pub fn score_public(&self, mean: f64, var: f64, best: f64) -> f64 {
        self.score(mean, var, best)
    }

    /// Score a candidate (higher is better) given the GP posterior and the
    /// incumbent value.
    fn score(&self, mean: f64, var: f64, best: f64) -> f64 {
        let sigma = var.max(0.0).sqrt();
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                if sigma < 1e-12 {
                    return (best - mean - xi).max(0.0);
                }
                let z = (best - mean - xi) / sigma;
                (best - mean - xi) * normal::cdf(z) + sigma * normal::pdf(z)
            }
            Acquisition::LowerConfidenceBound { beta } => -(mean - beta * sigma),
            Acquisition::ProbabilityOfImprovement { xi } => {
                if sigma < 1e-12 {
                    return if mean < best - xi { 1.0 } else { 0.0 };
                }
                normal::cdf((best - mean - xi) / sigma)
            }
        }
    }
}

/// Configuration of one BO search.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Initial (Latin-hypercube) design size. Paper: 5.
    pub n_init: usize,
    /// Total evaluation budget including the initial design. Paper:
    /// `10 × num_parameters`.
    pub max_evals: usize,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// GP training configuration.
    pub gp: GpConfig,
    /// Random candidates scored per iteration.
    pub n_candidates: usize,
    /// Local-refinement proposals around the best candidate.
    pub n_local: usize,
    /// Re-optimize GP hyperparameters every this many evaluations; between
    /// re-trainings the cached surrogate absorbs each new observation
    /// through its incremental append fast path (`O(n²)` on the exact
    /// tier, `O(m²)` on the sparse tier) instead of re-running the
    /// hyperparameter optimizer.
    ///
    /// This is also the **refit contract** for append conditioning:
    /// appends extend the cached factorization without re-examining it, so
    /// a kernel-matrix conditioning drift (new points landing ever closer
    /// to old ones) is only corrected at retrain boundaries. Keep
    /// `retrain_every` modest (the default 5 is fine) so the cached
    /// factorization cannot creep past
    /// [`cets_gp::APPEND_CONDITION_LIMIT`] between boundaries; debug
    /// builds assert on the estimate at every append.
    pub retrain_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Write a crash-recovery checkpoint after every evaluation.
    pub checkpoint_path: Option<PathBuf>,
    /// Score the candidate pool across threads. The candidate pool is
    /// pre-sampled single-threadedly and scored through the chunk-invariant
    /// [`Surrogate::predict_batch`], so the proposal (and thus the whole
    /// search trajectory) is **bit-identical** to the sequential path for
    /// the same seed — this switch only changes wall-clock time.
    pub parallel: bool,
    /// Worker threads for parallel scoring; `0` means use the process-wide
    /// resolution (`--threads`, `CETS_THREADS`, then detected
    /// parallelism — see [`cets_linalg::par::global_threads`]).
    pub n_workers: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            n_init: 5,
            max_evals: 50,
            acquisition: Acquisition::default(),
            gp: GpConfig::default(),
            n_candidates: 256,
            n_local: 32,
            retrain_every: 5,
            seed: 0,
            checkpoint_path: None,
            parallel: true,
            n_workers: 0,
        }
    }
}

impl BoConfig {
    /// The paper's budget rule: `10 × dims` evaluations.
    pub fn budget_for_dims(mut self, dims: usize) -> Self {
        self.max_evals = 10 * dims.max(1);
        self
    }
}

/// Result of a completed search (BO or baseline).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best configuration found (full-space, with frozen defaults applied).
    pub best_config: Config,
    /// Best objective value found.
    pub best_value: f64,
    /// All evaluated (active-space unit point, value) pairs, in order.
    pub history: Vec<(Vec<f64>, f64)>,
    /// Best-so-far after each evaluation (paper Figure 6's y-axis).
    pub incumbent_trace: Vec<f64>,
    /// Number of objective evaluations.
    pub n_evals: usize,
    /// Wall-clock duration of the search.
    pub wall_time: Duration,
}

impl SearchOutcome {
    fn from_history(
        subspace: &Subspace,
        history: Vec<(Vec<f64>, f64)>,
        wall_time: Duration,
    ) -> Result<Self> {
        let mut best_idx = 0;
        let mut trace = Vec::with_capacity(history.len());
        let mut best = f64::INFINITY;
        for (i, (_, y)) in history.iter().enumerate() {
            if *y < best {
                best = *y;
                best_idx = i;
            }
            trace.push(best);
        }
        if history.is_empty() {
            return Err(CoreError::SearchStalled("empty history".into()));
        }
        let best_config = subspace.lift(&history[best_idx].0)?;
        Ok(SearchOutcome {
            best_config,
            best_value: best,
            n_evals: history.len(),
            history,
            incumbent_trace: trace,
            wall_time,
        })
    }
}

/// A Bayesian-optimization runner.
#[derive(Debug, Clone, Default)]
pub struct BoSearch {
    /// Search configuration.
    pub config: BoConfig,
}

impl BoSearch {
    /// Create a runner.
    pub fn new(config: BoConfig) -> Self {
        BoSearch { config }
    }

    /// Minimize `f` over `subspace`.
    pub fn run(&self, subspace: &Subspace, f: impl Fn(&Config) -> f64) -> Result<SearchOutcome> {
        self.run_with_history(subspace, f, Vec::new())
    }

    /// Minimize starting from pre-evaluated `(unit point, value)` pairs —
    /// used by checkpoint resume and by transfer-learning seeding. Seeded
    /// points count against the evaluation budget only if `counted` pairs
    /// were actually evaluated on *this* task (resume); transfer seeds from
    /// a *different* task should be passed through
    /// [`crate::transfer::TransferSeed`] instead, which re-evaluates them
    /// here.
    pub fn run_with_history(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config) -> f64,
        history: Vec<(Vec<f64>, f64)>,
    ) -> Result<SearchOutcome> {
        self.run_inner(subspace, f, history, None)
    }

    /// Minimize with a **prior mean function** over the active unit cube —
    /// difference-GP transfer learning. The GP models the residual
    /// `y − prior(u)`; predictions add the prior back before the
    /// acquisition is scored. With a prior fitted on a related task
    /// (e.g. [`crate::TransferSeed::prior_gp`] from Case Study 1), the new
    /// search starts with an informed landscape instead of a flat one,
    /// which is GPTune's multi-task intent at single-output cost.
    pub fn run_with_prior(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config) -> f64,
        history: Vec<(Vec<f64>, f64)>,
        prior: PriorMean<'_>,
    ) -> Result<SearchOutcome> {
        self.run_inner(subspace, f, history, Some(prior))
    }

    fn run_inner(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config) -> f64,
        mut history: Vec<(Vec<f64>, f64)>,
        prior: Option<PriorMean<'_>>,
    ) -> Result<SearchOutcome> {
        let cfg = &self.config;
        if cfg.max_evals == 0 {
            return Err(CoreError::BadConfig("max_evals must be > 0".into()));
        }
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(history.len() as u64));
        // Contraction-aware sampling slabs: the statically proved feasible
        // slab union of each active dimension (a single full `(0, 1)` slab
        // when nothing narrows, which maps draws bit-identically to the
        // plain cube; disjoint slabs when branch-and-prune recovered them).
        let uslabs = crate::contraction::active_unit_slabs(subspace);

        let evaluate = |u: &[f64], history: &mut Vec<(Vec<f64>, f64)>| -> Result<f64> {
            let cfg_full = subspace.lift(u)?;
            let y = f(&cfg_full);
            history.push((u.to_vec(), y));
            if let Some(path) = &self.config.checkpoint_path {
                BoCheckpoint::from_history(self.config.seed, history)
                    .with_tier(self.config.gp.tier.tag())
                    .save(path)?;
            }
            Ok(y)
        };

        // Initial design (top up to n_init points): Latin hypercube over
        // the active unit cube, with per-point uniform-rejection fallback
        // when a stratified point violates constraints.
        let needed = cfg.n_init.saturating_sub(history.len());
        if needed > 0 {
            let d = subspace.dim();
            let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
            for _ in 0..d {
                let mut p: Vec<usize> = (0..needed).collect();
                for k in (1..p.len()).rev() {
                    p.swap(k, rng.random_range(0..=k));
                }
                perms.push(p);
            }
            #[allow(clippy::needless_range_loop)] // i indexes permutation columns
            for i in 0..needed {
                if history.len() >= cfg.max_evals {
                    break;
                }
                let u: Vec<f64> = (0..d)
                    .map(|j| {
                        let r = (perms[j][i] as f64 + rng.random::<f64>()) / needed as f64;
                        cets_space::map_slabs(&uslabs[j], r)
                    })
                    .collect();
                let u = if subspace.is_valid_active(&u) {
                    u
                } else {
                    self.sample_valid_unit(subspace, &uslabs, &mut rng)?
                };
                evaluate(&u, &mut history)?;
            }
        }

        // BO loop. Between full hyperparameter retrainings the cached
        // surrogate absorbs new observations via its incremental update
        // (O(n²) bordered Cholesky on the exact tier, O(m²) rank-one on the
        // sparse tier); every `retrain_every` evaluations the
        // hyperparameters are re-optimized from scratch. The tier itself is
        // re-selected at each retraining from [`GpConfig::tier`], so a
        // search that outgrows the exact tier's O(N³) wall escalates to the
        // sparse tier automatically.
        let mut cache: Option<Surrogate> = None;
        while history.len() < cfg.max_evals {
            let best = history
                .iter()
                .map(|(_, y)| *y)
                .fold(f64::INFINITY, f64::min);

            let can_append = cache
                .as_ref()
                .is_some_and(|g| g.n_train() + 1 == history.len());
            // With a prior mean, the GP models the residual y − prior(u).
            let target = |u: &[f64], y: f64| -> f64 {
                match prior {
                    Some(m0) => y - m0(u),
                    None => y,
                }
            };
            let retrain = history.len().is_multiple_of(cfg.retrain_every.max(1)) || !can_append;
            let model: &Surrogate = if retrain {
                let xs: Vec<Vec<f64>> = history.iter().map(|(u, _)| u.clone()).collect();
                let ys: Vec<f64> = history.iter().map(|(u, y)| target(u, *y)).collect();
                let mut gp_cfg = cfg.gp.clone();
                gp_cfg.seed = cfg.seed.wrapping_add(history.len() as u64);
                cache.insert(Surrogate::train(&xs, &ys, &gp_cfg)?)
            } else {
                // Incremental path: the cache holds all but the newest
                // observation; append it, falling back to a full refit if
                // the incremental update loses definiteness. `can_append`
                // guarantees both the cache and a last observation exist.
                let (Some(cache), Some((u_last, y_last))) =
                    (cache.as_mut(), history.last().cloned())
                else {
                    return Err(CoreError::SearchStalled(
                        "incremental GP update without a cached model".into(),
                    ));
                };
                let r_last = target(&u_last, y_last);
                if cache.append(u_last, r_last).is_err() {
                    let xs: Vec<Vec<f64>> = history.iter().map(|(u, _)| u.clone()).collect();
                    let ys: Vec<f64> = history.iter().map(|(u, y)| target(u, *y)).collect();
                    *cache = cache.refit(&xs, &ys)?;
                }
                cache
            };

            let u_next = self.propose_impl(subspace, &uslabs, model, best, prior, &mut rng)?;
            evaluate(&u_next, &mut history)?;
        }

        SearchOutcome::from_history(subspace, history, start.elapsed())
    }

    /// Resume from a crash-recovery checkpoint.
    pub fn resume(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config) -> f64,
        checkpoint: &BoCheckpoint,
    ) -> Result<SearchOutcome> {
        self.check_tier(checkpoint)?;
        self.run_with_history(subspace, f, checkpoint.history())
    }

    /// Reject a checkpoint recorded under a different surrogate
    /// tier policy: the resumed search re-derives every per-iteration tier
    /// decision from [`GpConfig::tier`] and the record count, so a
    /// mismatched policy would silently diverge from the interrupted
    /// trajectory instead of continuing it. Checkpoints from before the
    /// tier layer carry no tag and resume unchecked.
    fn check_tier(&self, checkpoint: &BoCheckpoint) -> Result<()> {
        let ours = self.config.gp.tier.tag();
        match &checkpoint.tier {
            Some(tag) if *tag != ours => Err(CoreError::Checkpoint(format!(
                "checkpoint tier policy `{tag}` does not match search tier policy `{ours}` — \
                 resuming would diverge from the interrupted trajectory"
            ))),
            _ => Ok(()),
        }
    }

    fn sample_valid_unit(
        &self,
        subspace: &Subspace,
        uslabs: &[Vec<(f64, f64)>],
        rng: &mut StdRng,
    ) -> Result<Vec<f64>> {
        // Rejection sampling directly in the active unit cube so frozen
        // dimensions stay at their defaults. Draws come from the
        // contraction-aware slab unions (see [`crate::contraction`]), so
        // heavily constrained spaces burn far fewer of the 10 000 attempts
        // on points the static analysis already proved infeasible.
        for _ in 0..10_000 {
            let u: Vec<f64> = uslabs
                .iter()
                .map(|s| cets_space::map_slabs(s, rng.random::<f64>()))
                .collect();
            if subspace.is_valid_active(&u) {
                return Ok(u);
            }
        }
        Err(CoreError::Space(SpaceError::SamplingExhausted {
            attempts: 10_000,
        }))
    }

    /// Acquisition optimization: random candidates + local refinement.
    ///
    /// Public so benchmark harnesses (`perf_suite`) and alternative search
    /// loops can time/reuse the exact proposal step the BO loop runs; the
    /// candidate pool is drawn from `rng` exactly as in [`BoSearch::run`].
    /// Takes the tiered [`Surrogate`]; wrap a bare [`cets_gp::Gp`] in
    /// [`Surrogate::Exact`] to reproduce the pre-tier behavior
    /// bit-for-bit.
    pub fn propose(
        &self,
        subspace: &Subspace,
        model: &Surrogate,
        best: f64,
        prior: Option<PriorMean<'_>>,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>> {
        let uslabs = crate::contraction::active_unit_slabs(subspace);
        self.propose_impl(subspace, &uslabs, model, best, prior, rng)
    }

    fn propose_impl(
        &self,
        subspace: &Subspace,
        uslabs: &[Vec<(f64, f64)>],
        model: &Surrogate,
        best: f64,
        prior: Option<PriorMean<'_>>,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>> {
        let cfg = &self.config;

        // Draw the whole candidate pool up front, single-threadedly:
        // scoring consumes no randomness, so the RNG stream (and hence the
        // search trajectory) is independent of how the pool is scored.
        let mut pool: Vec<Vec<f64>> = Vec::with_capacity(cfg.n_candidates);
        for _ in 0..cfg.n_candidates {
            pool.push(self.sample_valid_unit(subspace, uslabs, rng)?);
        }
        if pool.is_empty() {
            return Err(CoreError::SearchStalled("no candidates".into()));
        }

        // Score the pool through the chunk-invariant batched predictor —
        // sequentially or across threads, the results are bit-identical.
        let scores = self.score_pool(model, &pool, best, prior);

        // Fixed-order argmax (strict `>`, first occurrence wins) so the
        // champion never depends on chunking or thread count.
        let mut best_idx = 0;
        let mut s_best = scores[0];
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > s_best {
                s_best = s;
                best_idx = i;
            }
        }
        let mut u_best = pool.swap_remove(best_idx);

        // Local refinement: shrinking Gaussian steps around the champion.
        // Inherently sequential (each step perturbs the current champion),
        // and scored through the same batched path as the pool so the
        // comparisons use one arithmetic throughout.
        for k in 0..cfg.n_local {
            let scale = 0.1 * (1.0 - k as f64 / cfg.n_local.max(1) as f64) + 0.01;
            let u_try: Vec<f64> = u_best
                .iter()
                .map(|&v| (v + normal::sample(rng, 0.0, scale)).clamp(0.0, 1.0))
                .collect();
            if !subspace.is_valid_active(&u_try) {
                continue;
            }
            let (m, v) = model.predict_batch(std::slice::from_ref(&u_try))[0];
            let m = match prior {
                Some(m0) => m + m0(&u_try),
                None => m,
            };
            let s = cfg.acquisition.score(m, v, best);
            if s > s_best {
                s_best = s;
                u_best = u_try;
            }
        }
        Ok(u_best)
    }

    /// Acquisition scores for a candidate pool, in pool order.
    ///
    /// With [`BoConfig::parallel`] the pool is split into contiguous chunks
    /// scored by scoped worker threads writing disjoint slices of the
    /// output; because [`Surrogate::predict_batch`] is chunk-invariant (on
    /// both tiers) and the acquisition is a pure per-candidate function,
    /// the resulting scores are bit-identical to the sequential path
    /// regardless of worker count.
    fn score_pool(
        &self,
        model: &Surrogate,
        pool: &[Vec<f64>],
        best: f64,
        prior: Option<PriorMean<'_>>,
    ) -> Vec<f64> {
        let cfg = &self.config;
        let score_chunk = |chunk: &[Vec<f64>], out: &mut [f64]| {
            let preds = model.predict_batch(chunk);
            for ((s, (m, v)), u) in out.iter_mut().zip(preds).zip(chunk) {
                let m = match prior {
                    Some(m0) => m + m0(u),
                    None => m,
                };
                *s = cfg.acquisition.score(m, v, best);
            }
        };

        let mut scores = vec![0.0; pool.len()];
        let workers = self.worker_count(pool.len());
        if workers <= 1 {
            score_chunk(pool, &mut scores);
        } else {
            let chunk = pool.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (cpool, cout) in pool.chunks(chunk).zip(scores.chunks_mut(chunk)) {
                    let f = &score_chunk;
                    scope.spawn(move || f(cpool, cout));
                }
            });
        }
        scores
    }

    /// Number of scoring workers for a pool of `n_items` candidates.
    fn worker_count(&self, n_items: usize) -> usize {
        if !self.config.parallel || n_items < 2 {
            return 1;
        }
        let requested = if self.config.n_workers == 0 {
            cets_linalg::par::global_threads()
        } else {
            self.config.n_workers
        };
        requested.clamp(1, n_items)
    }
}

// ---------------------------------------------------------------------------
// Failure-aware BO
// ---------------------------------------------------------------------------

/// How failed evaluations enter GP training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Imputation {
    /// Train on failed points at `worst + margin × (worst − best)` over the
    /// successful observations (GPTune's recipe: failures are informative —
    /// they mark regions to avoid — so give them a value pessimistic enough
    /// to repel the search without wrecking the GP's length scales). When
    /// all successes share one value the penalty degenerates to
    /// `worst + margin`.
    WorstPlusMargin {
        /// Penalty margin as a fraction of the observed spread.
        margin: f64,
    },
    /// Leave failed points out of training entirely (the search may
    /// re-propose near failures, but the GP is never biased by synthetic
    /// values).
    Exclude,
}

/// Policy for how a failure-aware search treats failed evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePolicy {
    /// How failures enter GP training.
    pub imputation: Imputation,
    /// Fraction of one evaluation's budget a failure costs. `1.0` treats a
    /// crash as expensive as a completed run (it held the allocation);
    /// `0.0` models instant rejections. Budget spent is
    /// `n_ok + budget_fraction × n_failed`, checked against
    /// [`BoConfig::max_evals`].
    pub budget_fraction: f64,
    /// Hard cap on total failed attempts, so a pathologically failing
    /// objective cannot loop forever when `budget_fraction` is small.
    pub max_failures: usize,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            imputation: Imputation::WorstPlusMargin { margin: 0.5 },
            budget_fraction: 1.0,
            max_failures: 1000,
        }
    }
}

impl FailurePolicy {
    /// Budget consumed by an attempt history.
    pub fn budget_spent(&self, records: &[EvalRecord]) -> f64 {
        let n_ok = records.iter().filter(|r| r.is_ok()).count();
        let n_failed = records.len() - n_ok;
        n_ok as f64 + self.budget_fraction * n_failed as f64
    }

    /// The training value [`Imputation::WorstPlusMargin`] assigns to
    /// failed attempts given an attempt history: `worst + margin × spread`
    /// over the finite successful observations (degenerating to
    /// `worst + margin` when they all share one value), with the same
    /// screening as [`FailurePolicy::training_data`]. `None` under
    /// [`Imputation::Exclude`], or when no finite success exists to derive
    /// it from.
    ///
    /// Exposed separately so the incremental surrogate cache can detect
    /// when a new observation *moves* the imputed value — which silently
    /// invalidates every previously-imputed training point and must force
    /// a full refit instead of an append.
    pub fn imputed_value(&self, records: &[EvalRecord]) -> Option<f64> {
        let Imputation::WorstPlusMargin { margin } = self.imputation else {
            return None;
        };
        let margin = if margin.is_finite() {
            margin.max(0.0)
        } else {
            0.0
        };
        let mut worst = f64::NEG_INFINITY;
        let mut best = f64::INFINITY;
        let mut any = false;
        for r in records {
            let Some(y) = r.y() else { continue };
            if !(y.is_finite() && r.u.iter().all(|v| v.is_finite())) {
                continue;
            }
            any = true;
            worst = worst.max(y);
            best = best.min(y);
        }
        if !any {
            return None;
        }
        let spread = worst - best;
        Some(if spread > 0.0 {
            worst + margin * spread
        } else {
            worst + margin
        })
    }

    /// GP training data for an attempt history. **Every returned value is
    /// finite** — non-finite successes are screened out (defense in depth;
    /// [`BoSearch::run_resilient`] never records them) and imputed values
    /// are derived from finite observations with a sanitized margin. This
    /// is the boundary that guarantees no NaN/Inf ever reaches
    /// [`cets_gp::Gp::train`].
    pub fn training_data(&self, records: &[EvalRecord]) -> (Vec<Vec<f64>>, Vec<f64>) {
        match self.imputation {
            Imputation::Exclude => records
                .iter()
                .filter_map(|r| r.y().map(|y| (r.u.as_slice(), y)))
                .filter(|(u, y)| y.is_finite() && u.iter().all(|v| v.is_finite()))
                .map(|(u, y)| (u.to_vec(), y))
                .unzip(),
            Imputation::WorstPlusMargin { .. } => {
                // `imputed_value` screens exactly like the arm below, so it
                // is `None` precisely when there is no finite success —
                // nothing to impute from, no training data at all.
                let Some(imputed) = self.imputed_value(records) else {
                    return (Vec::new(), Vec::new());
                };
                records
                    .iter()
                    .filter(|r| r.u.iter().all(|v| v.is_finite()))
                    .filter_map(|r| match r.y() {
                        Some(y) if y.is_finite() => Some((r.u.clone(), y)),
                        Some(_) => None,
                        None => Some((r.u.clone(), imputed)),
                    })
                    .unzip()
            }
        }
    }
}

/// Result of a failure-aware search: the ordinary [`SearchOutcome`] over
/// the successful evaluations, plus the full attempt ledger.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Outcome over successful evaluations only (history, incumbent trace
    /// and best configuration have their usual meaning).
    pub outcome: SearchOutcome,
    /// Every attempt, successes and failures, in order.
    pub records: Vec<EvalRecord>,
    /// Number of failed attempts.
    pub n_failed: usize,
    /// Budget consumed (`n_ok + budget_fraction × n_failed`).
    pub budget_spent: f64,
}

/// Salt for the resilient LHS design RNG stream (distinct from the
/// per-iteration proposal streams).
const LHS_SALT: u64 = 0x4c48_535f_4445_5347;

/// Cached surrogate state of the failure-aware loop.
///
/// The invariant maintained by [`BoSearch::update_resilient_model`]: after
/// processing a record prefix of length `n_records`, this state is a
/// **pure function of that prefix** — so an interrupted search can rebuild
/// it exactly by replaying from the last retrain boundary.
struct ResilientModel {
    surrogate: Surrogate,
    /// The imputed value baked into the training set, when any failure
    /// point is present under [`Imputation::WorstPlusMargin`]; `None` when
    /// the training set contains no imputed points.
    imputed: Option<f64>,
    /// Length of the record prefix this state reflects.
    n_records: usize,
}

impl BoSearch {
    /// Minimize under failures: the evaluation callback returns a typed
    /// [`EvalOutcome`] (wrap your objective in
    /// [`crate::ResilientObjective`] to get one from any
    /// [`Objective`](crate::objective::Objective)),
    /// failed attempts are recorded and handled per `policy`, and **no
    /// non-finite value ever reaches the GP**.
    ///
    /// Like [`BoSearch::run`], the surrogate is cached between
    /// hyperparameter retrainings: every [`BoConfig::retrain_every`]
    /// attempts it is retrained from the policy's training data, and in
    /// between, new records are absorbed through the incremental append
    /// fast path. Imputation is handled exactly — appending is only legal
    /// while the imputed training value is unchanged, so an observation
    /// that moves the observed worst/best (and with it every
    /// previously-imputed training point) triggers a full retraining
    /// instead ([`FailurePolicy::imputed_value`]).
    ///
    /// The trajectory is still a *pure function of the accumulated
    /// records*: the initial design is derived from the seed alone, each
    /// iteration reseeds its RNG from `seed + attempts-so-far`, and the
    /// cached surrogate after `ℓ` recorded attempts is itself a pure
    /// function of the record prefix (retrain boundaries rebuild it from
    /// scratch, so a resumed search replays only the short
    /// boundary-to-crash segment to reconstruct the identical cache). A
    /// search interrupted at *any* attempt therefore resumes
    /// **bit-for-bit** via [`BoSearch::resume_resilient`] — a stronger
    /// contract than the plain path.
    ///
    /// The callback's second argument is the attempt ordinal (for keying
    /// retry backoff jitter).
    pub fn run_resilient(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config, usize) -> EvalOutcome,
        policy: &FailurePolicy,
    ) -> Result<ResilientOutcome> {
        self.run_resilient_with_records(subspace, f, policy, Vec::new())
    }

    /// Resume a failure-aware search from a crash-recovery checkpoint.
    pub fn resume_resilient(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config, usize) -> EvalOutcome,
        policy: &FailurePolicy,
        checkpoint: &BoCheckpoint,
    ) -> Result<ResilientOutcome> {
        if checkpoint.seed != self.config.seed {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint seed {} does not match search seed {} — resuming would \
                 diverge from the interrupted trajectory",
                checkpoint.seed, self.config.seed
            )));
        }
        self.check_tier(checkpoint)?;
        self.run_resilient_with_records(subspace, f, policy, checkpoint.records())
    }

    /// Rebuild the [`SearchOutcome`] implied by a record prefix without
    /// re-running anything.
    ///
    /// The resilient loop's trajectory is a pure function of its record
    /// history, so the best configuration, best value, and incumbent trace
    /// are all recomputable from the records alone. Recovery layers (the
    /// `cets serve` WAL replay) use this to reconstruct a finished search's
    /// result from its log instead of re-evaluating anything; `wall_time`
    /// is zero because no work is performed.
    ///
    /// Fails with [`CoreError::SearchStalled`] when no successful attempt
    /// exists in `records`.
    pub fn replay_outcome(subspace: &Subspace, records: &[EvalRecord]) -> Result<SearchOutcome> {
        let history: Vec<(Vec<f64>, f64)> = records
            .iter()
            .filter_map(|r| r.y().map(|y| (r.u.clone(), y)))
            .collect();
        if history.is_empty() {
            return Err(CoreError::SearchStalled(
                "replay: no successful attempt in records".into(),
            ));
        }
        SearchOutcome::from_history(subspace, history, Duration::ZERO)
    }

    /// [`BoSearch::run_resilient`] starting from pre-recorded attempts.
    pub fn run_resilient_with_records(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config, usize) -> EvalOutcome,
        policy: &FailurePolicy,
        records: Vec<EvalRecord>,
    ) -> Result<ResilientOutcome> {
        self.run_resilient_observed(subspace, f, policy, records, &mut |_| Ok(()))
    }

    /// [`BoSearch::run_resilient_with_records`] with a per-record observer.
    ///
    /// `on_record` fires exactly once for every **new** attempt, immediately
    /// after it is appended to the record history (pre-recorded attempts
    /// passed in via `records` are never re-observed). This is the hook a
    /// durability layer needs to write each attempt to a log *before* the
    /// search advances: an `Err` from the observer aborts the search at
    /// that exact record boundary, which is how `cets serve` turns a failed
    /// log append (or a simulated process kill) into a clean crash that
    /// [`BoSearch::run_resilient_with_records`] can later resume bit-for-bit.
    pub fn run_resilient_observed(
        &self,
        subspace: &Subspace,
        f: impl Fn(&Config, usize) -> EvalOutcome,
        policy: &FailurePolicy,
        mut records: Vec<EvalRecord>,
        on_record: &mut dyn FnMut(&EvalRecord) -> Result<()>,
    ) -> Result<ResilientOutcome> {
        let cfg = &self.config;
        if cfg.max_evals == 0 {
            return Err(CoreError::BadConfig("max_evals must be > 0".into()));
        }
        if !(policy.budget_fraction.is_finite() && policy.budget_fraction >= 0.0) {
            return Err(CoreError::BadConfig(
                "budget_fraction must be finite and non-negative".into(),
            ));
        }
        let start = Instant::now();
        let uslabs = crate::contraction::active_unit_slabs(subspace);

        let mut evaluate =
            |u: &[f64], records: &mut Vec<EvalRecord>| -> Result<()> {
                let cfg_full = subspace.lift(u)?;
                let rec = match f(&cfg_full, records.len()) {
                    // Defense in depth: even if the callback skipped screening,
                    // a non-finite total is recorded as a failure, never as an
                    // observation.
                    EvalOutcome::Ok(obs) if !obs.total.is_finite() => EvalRecord::failed(
                        u.to_vec(),
                        FailedEval::from_error(&EvalError::NonFinite {
                            what: "total".into(),
                        }),
                    ),
                    EvalOutcome::Ok(obs) => EvalRecord::ok(u.to_vec(), obs.total),
                    EvalOutcome::Failed(e) => {
                        EvalRecord::failed(u.to_vec(), FailedEval::from_error(&e))
                    }
                };
                records.push(rec);
                if let Some(path) = &cfg.checkpoint_path {
                    BoCheckpoint::from_records(cfg.seed, records)
                        .with_tier(cfg.gp.tier.tag())
                        .save(path)?;
                }
                // Observe only after the record is durably part of the history
                // (checkpoint written if configured): a crash in the observer
                // leaves a resumable prefix, never a half-observed record.
                on_record(records.last().ok_or_else(|| {
                    CoreError::SearchStalled("record vanished after push".into())
                })?)?;
                Ok(())
            };

        let n_failed = |records: &[EvalRecord]| records.iter().filter(|r| !r.is_ok()).count();
        let within_budget = |records: &[EvalRecord]| -> bool {
            policy.budget_spent(records) + 1e-9 < cfg.max_evals as f64
                && n_failed(records) < policy.max_failures
        };

        // Fixed initial design, a pure function of (seed, n_init): attempt
        // k < n_init evaluates design point k, whether in the original run
        // or a resumed one.
        let design = self.resilient_design(subspace, &uslabs)?;
        while records.len() < design.len() && within_budget(&records) {
            let u = design[records.len()].clone();
            evaluate(&u, &mut records)?;
        }

        // Failure-aware BO loop. The cached surrogate after ℓ recorded
        // attempts is a pure function of records[..ℓ] (see
        // `update_resilient_model`), so a resumed run first replays the
        // cache transitions from the last retrain boundary — boundaries
        // rebuild the model from scratch regardless of the incoming state,
        // which keeps the replay under `retrain_every` steps and makes its
        // result identical to the uninterrupted run's cache.
        let mut model: Option<ResilientModel> = None;
        if records.len() > design.len() && within_budget(&records) {
            let re = cfg.retrain_every.max(1);
            let prev = records.len() - 1;
            let from = ((prev / re) * re).max(design.len());
            for len in from..=prev {
                self.update_resilient_model(&mut model, &records[..len], policy)?;
            }
        }
        while records.len() >= design.len() && within_budget(&records) {
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(records.len() as u64));
            self.update_resilient_model(&mut model, &records, policy)?;
            let u_next = match &model {
                // No successful observation yet: keep exploring at random
                // until one lands (bounded by budget and max_failures).
                None => self.sample_valid_unit(subspace, &uslabs, &mut rng)?,
                Some(m) => {
                    // Incumbent over *observed* successes, never imputed
                    // values.
                    let best = records
                        .iter()
                        .filter_map(EvalRecord::y)
                        .fold(f64::INFINITY, f64::min);
                    self.propose_impl(subspace, &uslabs, &m.surrogate, best, None, &mut rng)?
                }
            };
            evaluate(&u_next, &mut records)?;
        }

        let history: Vec<(Vec<f64>, f64)> = records
            .iter()
            .filter_map(|r| r.y().map(|y| (r.u.clone(), y)))
            .collect();
        if history.is_empty() {
            return Err(CoreError::SearchStalled(format!(
                "all {} attempts failed (cap: {} failures, budget: {} evals)",
                records.len(),
                policy.max_failures,
                cfg.max_evals
            )));
        }
        let outcome = SearchOutcome::from_history(subspace, history, start.elapsed())?;
        Ok(ResilientOutcome {
            outcome,
            n_failed: n_failed(&records),
            budget_spent: policy.budget_spent(&records),
            records,
        })
    }

    /// Advance the failure-aware loop's cached surrogate to reflect
    /// `records` (one new record per call in the steady state). The
    /// post-state is a **pure function of the record prefix**:
    ///
    /// * at retrain boundaries (`records.len()` divisible by
    ///   [`BoConfig::retrain_every`]) the model is rebuilt from scratch
    ///   regardless of the incoming state — this is what lets resume
    ///   replay from the last boundary;
    /// * otherwise the newest record is absorbed incrementally when legal:
    ///   a success appends in `O(n²)`/`O(m²)`, a failure appends its
    ///   imputed point under [`Imputation::WorstPlusMargin`] or is a no-op
    ///   under [`Imputation::Exclude`];
    /// * whenever the newest record *moves* the imputed value
    ///   ([`FailurePolicy::imputed_value`]), every previously-imputed
    ///   training point is stale and the model is rebuilt instead.
    ///
    /// The model is `None` while no finite successful observation exists.
    fn update_resilient_model(
        &self,
        model: &mut Option<ResilientModel>,
        records: &[EvalRecord],
        policy: &FailurePolicy,
    ) -> Result<()> {
        let cfg = &self.config;
        let finite_ok = |r: &EvalRecord| -> Option<f64> {
            match r.y() {
                Some(y) if y.is_finite() && r.u.iter().all(|v| v.is_finite()) => Some(y),
                _ => None,
            }
        };
        if !records.iter().any(|r| finite_ok(r).is_some()) {
            *model = None;
            return Ok(());
        }
        // The imputed value the training set should carry right now:
        // `Some` iff imputation is on and at least one imputable failure
        // (finite coordinates) is recorded. With a finite success present,
        // `imputed_value` is always `Some` here.
        let has_imputable = records
            .iter()
            .any(|r| !r.is_ok() && r.u.iter().all(|v| v.is_finite()));
        let imputed_now = if has_imputable {
            policy.imputed_value(records)
        } else {
            None
        };

        let boundary = records.len().is_multiple_of(cfg.retrain_every.max(1));
        let can_append = !boundary
            && model.as_ref().is_some_and(|m| {
                m.n_records + 1 == records.len()
                    && (m.imputed.is_none() || m.imputed == imputed_now)
            });
        if !can_append {
            let (xs, ys) = policy.training_data(records);
            let mut gp_cfg = cfg.gp.clone();
            gp_cfg.seed = cfg.seed.wrapping_add(records.len() as u64);
            let surrogate = Surrogate::train(&xs, &ys, &gp_cfg)?;
            *model = Some(ResilientModel {
                surrogate,
                imputed: imputed_now,
                n_records: records.len(),
            });
            return Ok(());
        }
        let (Some(m), Some(last)) = (model.as_mut(), records.last()) else {
            return Err(CoreError::SearchStalled(
                "incremental surrogate update without a cached model".into(),
            ));
        };
        // Absorb the newest record. Records the policy screens out of
        // training (non-finite values or coordinates) leave the training
        // set untouched, as do failures under `Exclude` (where
        // `imputed_now` is `None`).
        let append = match (finite_ok(last), last.is_ok()) {
            (Some(y), _) => Some((last.u.clone(), y)),
            (None, true) => None,
            (None, false) if last.u.iter().all(|v| v.is_finite()) => {
                imputed_now.map(|iv| (last.u.clone(), iv))
            }
            (None, false) => None,
        };
        if let Some((u, y)) = append {
            if m.surrogate.append(u, y).is_err() {
                // The incremental update lost definiteness: refit the same
                // hyperparameters on the full training set (deterministic,
                // no optimizer) — the analogue of `run_inner`'s fallback.
                let (xs, ys) = policy.training_data(records);
                m.surrogate = m.surrogate.refit(&xs, &ys)?;
            }
        }
        m.imputed = imputed_now;
        m.n_records = records.len();
        Ok(())
    }

    /// The resilient path's Latin-hypercube initial design, derived from
    /// the seed alone (with per-point constraint-rejection fallback) so
    /// interrupted and uninterrupted runs compute the same points.
    fn resilient_design(
        &self,
        subspace: &Subspace,
        uslabs: &[Vec<(f64, f64)>],
    ) -> Result<Vec<Vec<f64>>> {
        let n = self.config.n_init;
        let d = subspace.dim();
        let mut rng = StdRng::seed_from_u64(splitmix64(self.config.seed ^ LHS_SALT));
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut p: Vec<usize> = (0..n).collect();
            for k in (1..p.len()).rev() {
                p.swap(k, rng.random_range(0..=k));
            }
            perms.push(p);
        }
        let mut design = Vec::with_capacity(n);
        // `perms` is indexed transposed (`perms[j][i]`), so an iterator over
        // it cannot replace the index loop.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let u: Vec<f64> = (0..d)
                .map(|j| {
                    let r = (perms[j][i] as f64 + rng.random::<f64>()) / n.max(1) as f64;
                    cets_space::map_slabs(&uslabs[j], r)
                })
                .collect();
            let u = if subspace.is_valid_active(&u) {
                u
            } else {
                // Per-point fallback stream, independent of how many other
                // points needed fallbacks.
                let mut point_rng =
                    StdRng::seed_from_u64(splitmix64(self.config.seed ^ LHS_SALT ^ (i as u64 + 1)));
                self.sample_valid_unit(subspace, uslabs, &mut point_rng)?
            };
            design.push(u);
        }
        Ok(design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;
    use crate::objective::Objective;
    use cets_space::Subspace;

    fn quick_config(max_evals: usize, seed: u64) -> BoConfig {
        BoConfig {
            n_init: 5,
            max_evals,
            n_candidates: 64,
            n_local: 8,
            retrain_every: 5,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn acquisition_scores_sensible() {
        let ei = Acquisition::ExpectedImprovement { xi: 0.0 };
        // Candidate clearly better than incumbent: positive EI.
        assert!(ei.score(0.0, 0.01, 1.0) > 0.9);
        // Candidate clearly worse with tiny variance: ~0 EI.
        assert!(ei.score(2.0, 1e-6, 1.0) < 1e-6);
        // Zero variance, better mean: deterministic improvement.
        assert!(ei.score(0.5, 0.0, 1.0) > 0.49);

        let lcb = Acquisition::LowerConfidenceBound { beta: 2.0 };
        // Lower mean scores higher.
        assert!(lcb.score(0.0, 1.0, 0.0) > lcb.score(1.0, 1.0, 0.0));
        // More variance scores higher (exploration).
        assert!(lcb.score(1.0, 4.0, 0.0) > lcb.score(1.0, 1.0, 0.0));

        let pi = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        let p = pi.score(0.0, 1.0, 1.0);
        assert!((0.5..=1.0).contains(&p));
        assert_eq!(pi.score(2.0, 0.0, 1.0), 0.0);
        assert_eq!(pi.score(0.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn bo_finds_sphere_minimum() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let search = BoSearch::new(quick_config(40, 7));
        let out = search.run(&sub, |cfg| obj.evaluate(cfg).total).unwrap();
        assert_eq!(out.n_evals, 40);
        assert!(
            out.best_value < 1.5,
            "BO best {} worse than expected",
            out.best_value
        );
        // Incumbent trace is monotone non-increasing.
        for w in out.incumbent_trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn bo_beats_its_own_initial_design() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let out = BoSearch::new(quick_config(50, 3))
            .run(&sub, |cfg| obj.evaluate(cfg).total)
            .unwrap();
        let init_best = out.history[..5]
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min);
        assert!(out.best_value <= init_best);
    }

    #[test]
    fn bo_respects_subspace_freezing() {
        let obj = SplitSphere::new();
        // Only x2 free; x0 = x1 = 1 frozen => best total = 2 + x2² ≈ 2.
        let sub = Subspace::new(obj.space(), &["x2"], obj.default_config()).unwrap();
        let out = BoSearch::new(quick_config(25, 1))
            .run(&sub, |cfg| obj.evaluate(cfg).total)
            .unwrap();
        assert!(out.best_value >= 2.0);
        assert!(out.best_value < 2.3, "got {}", out.best_value);
        // x0 must still be the default in the reported config.
        assert_eq!(obj.space().get_f64(&out.best_config, "x0").unwrap(), 1.0);
    }

    #[test]
    fn initial_design_is_stratified() {
        // With max_evals == n_init the whole run is the LHS design: on an
        // unconstrained 1-dim space each of the n strata gets one point.
        let obj = SplitSphere::new();
        let sub = Subspace::new(obj.space(), &["x0"], obj.default_config()).unwrap();
        let n = 8;
        let out = BoSearch::new(BoConfig {
            n_init: n,
            max_evals: n,
            seed: 13,
            ..Default::default()
        })
        .run(&sub, |cfg| obj.evaluate(cfg).total)
        .unwrap();
        let mut strata = vec![0usize; n];
        for (u, _) in &out.history {
            let k = ((u[0] * n as f64) as usize).min(n - 1);
            strata[k] += 1;
        }
        assert!(strata.iter().all(|&c| c == 1), "not stratified: {strata:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let a = BoSearch::new(quick_config(20, 99))
            .run(&sub, |cfg| obj.evaluate(cfg).total)
            .unwrap();
        let b = BoSearch::new(quick_config(20, 99))
            .run(&sub, |cfg| obj.evaluate(cfg).total)
            .unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.history.len(), b.history.len());
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn parallel_scoring_is_bit_identical_to_sequential() {
        // The CI-enforced determinism contract: a full BO run with the
        // chunked thread-scope scorer produces the exact same history —
        // every configuration and every observation, bit for bit — as the
        // sequential path. The pool is pre-sampled before scoring and the
        // argmax reduction runs in fixed order, so worker count must not
        // leak into the arithmetic.
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let run = |parallel: bool, n_workers: usize| {
            let cfg = BoConfig {
                parallel,
                n_workers,
                ..quick_config(25, 42)
            };
            BoSearch::new(cfg)
                .run(&sub, |c| obj.evaluate(c).total)
                .unwrap()
        };
        let sequential = run(false, 0);
        for workers in [0, 2, 3, 5] {
            let par = run(true, workers);
            assert_eq!(
                sequential.history, par.history,
                "history diverged with n_workers={workers}"
            );
            assert_eq!(sequential.best_value, par.best_value);
            assert_eq!(sequential.incumbent_trace, par.incumbent_trace);
        }
    }

    #[test]
    fn zero_budget_rejected() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let mut cfg = quick_config(10, 0);
        cfg.max_evals = 0;
        assert!(matches!(
            BoSearch::new(cfg).run(&sub, |c| obj.evaluate(c).total),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn budget_rule() {
        let cfg = BoConfig::default().budget_for_dims(7);
        assert_eq!(cfg.max_evals, 70);
        assert_eq!(BoConfig::default().budget_for_dims(0).max_evals, 10);
    }

    #[test]
    fn resilient_fault_free_finds_minimum_and_is_deterministic() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let policy = FailurePolicy::default();
        let run = || {
            BoSearch::new(quick_config(40, 7))
                .run_resilient(
                    &sub,
                    |cfg, _| crate::resilience::EvalOutcome::Ok(obj.evaluate(cfg)),
                    &policy,
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.n_failed, 0);
        assert_eq!(a.budget_spent, 40.0);
        assert_eq!(a.outcome.n_evals, 40);
        assert!(a.outcome.best_value < 1.5, "best {}", a.outcome.best_value);
        assert_eq!(a.records, b.records, "resilient run not deterministic");
        assert_eq!(a.outcome.best_value, b.outcome.best_value);
    }

    #[test]
    fn training_data_is_always_finite() {
        use crate::resilience::{FailedEval, FailureKind};
        let records = vec![
            EvalRecord::ok(vec![0.1], 2.0),
            EvalRecord::failed(
                vec![0.5],
                FailedEval {
                    kind: FailureKind::Crashed,
                    message: String::new(),
                },
            ),
            EvalRecord::ok(vec![0.9], 5.0),
            // Smuggled-in non-finite success: must be screened.
            EvalRecord::ok(vec![0.3], f64::NAN),
        ];
        let impute = FailurePolicy {
            imputation: Imputation::WorstPlusMargin { margin: 0.5 },
            ..Default::default()
        };
        let (xs, ys) = impute.training_data(&records);
        assert_eq!(xs.len(), 3, "2 finite successes + 1 imputed failure");
        assert!(ys.iter().all(|y| y.is_finite()));
        // worst=5, best=2, spread=3 → imputed = 5 + 0.5·3 = 6.5.
        assert_eq!(ys, vec![2.0, 6.5, 5.0]);

        let exclude = FailurePolicy {
            imputation: Imputation::Exclude,
            ..Default::default()
        };
        let (xs, ys) = exclude.training_data(&records);
        assert_eq!(xs.len(), 2);
        assert_eq!(ys, vec![2.0, 5.0]);
    }

    #[test]
    fn budget_fraction_charges_failures_partially() {
        use crate::resilience::{EvalOutcome, FaultKind, FaultPlan, FaultyObjective, VirtualClock};
        use crate::Objective as _;
        use std::sync::Arc;
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        // Every 4th attempt returns NaN.
        let plan = FaultPlan {
            every_kth: Some((4, FaultKind::NonFinite)),
            ..Default::default()
        };
        let faulty = FaultyObjective::new(&obj, plan, clock);
        let policy = FailurePolicy {
            budget_fraction: 0.25,
            ..Default::default()
        };
        let names = obj.routine_names();
        let out = BoSearch::new(quick_config(20, 11))
            .run_resilient(
                &sub,
                |cfg, _| EvalOutcome::screened(faulty.evaluate(cfg), &names),
                &policy,
            )
            .unwrap();
        assert!(out.n_failed > 0, "expected injected failures");
        let n_ok = out.records.len() - out.n_failed;
        assert_eq!(out.budget_spent, n_ok as f64 + 0.25 * out.n_failed as f64);
        // The budget gate runs before each attempt, so the last attempt may
        // overshoot by at most one evaluation's cost.
        assert!(out.budget_spent < 21.0, "spent {}", out.budget_spent);
        // Failures cost 1/4, so more total attempts fit in the budget than
        // the failure-free 20.
        assert!(out.records.len() > 20);
    }

    #[test]
    fn max_failures_caps_all_failing_objectives() {
        use crate::resilience::EvalOutcome;
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let policy = FailurePolicy {
            budget_fraction: 0.0, // failures are free — only the cap stops us
            max_failures: 7,
            ..Default::default()
        };
        let err = BoSearch::new(quick_config(20, 3))
            .run_resilient(
                &sub,
                |_, _| {
                    EvalOutcome::Failed(crate::resilience::EvalError::NonFinite {
                        what: "total".into(),
                    })
                },
                &policy,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::SearchStalled(_)), "{err}");
    }

    #[test]
    fn resilient_checkpoint_resume_is_bit_for_bit() {
        use crate::resilience::{EvalOutcome, FaultKind, FaultPlan, FaultyObjective, VirtualClock};
        use crate::Objective as _;
        use std::sync::Arc;

        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let names = obj.routine_names();
        let policy = FailurePolicy::default();
        let mut cfg = quick_config(25, 17);
        let path =
            std::env::temp_dir().join(format!("cets_resume_bitforbit_{}.json", std::process::id()));
        cfg.checkpoint_path = Some(path.clone());

        // Every 3rd attempt returns NaN → failures occur before the crash.
        let plan = FaultPlan {
            every_kth: Some((3, FaultKind::NonFinite)),
            ..Default::default()
        };

        // Uninterrupted run.
        let clock = Arc::new(VirtualClock::new());
        let faulty = FaultyObjective::new(&obj, plan.clone(), clock);
        let full = BoSearch::new(cfg.clone())
            .run_resilient(
                &sub,
                |c, _| EvalOutcome::screened(faulty.evaluate(c), &names),
                &policy,
            )
            .unwrap();

        // The run's own checkpoints carry the tier-policy tag.
        assert_eq!(
            BoCheckpoint::load(&path).unwrap().tier.as_deref(),
            Some("auto:512")
        );

        // Interrupted run: stop (panic out of the callback would be messy;
        // just stop calling) after k attempts by running with a tiny budget
        // crafted so exactly k attempts happen, then resume from the
        // checkpoint file the first run left behind at attempt k.
        let k = 9;
        let cp_full = BoCheckpoint::from_records(cfg.seed, &full.records[..k]);
        cp_full.save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        let clock2 = Arc::new(VirtualClock::new());
        let faulty2 = FaultyObjective::new(&obj, plan, clock2);
        // Re-align the injector's every-kth counter with the prefix: the
        // first k attempts already happened before the "crash" (no Panic
        // faults in this plan, so plain calls advance it safely).
        for _ in 0..k {
            faulty2.evaluate(&obj.default_config());
        }
        let resumed = BoSearch::new(cfg.clone())
            .resume_resilient(
                &sub,
                |c, _| EvalOutcome::screened(faulty2.evaluate(c), &names),
                &policy,
                &loaded,
            )
            .unwrap();

        assert_eq!(
            resumed.records, full.records,
            "resumed attempt history diverged from the uninterrupted run"
        );
        assert_eq!(resumed.outcome.history, full.outcome.history);
        assert_eq!(resumed.outcome.best_value, full.outcome.best_value);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resilient_retrain_every_1_matches_always_retrain_reference() {
        // `retrain_every = 1` makes every iteration a retrain boundary, so
        // the incremental surrogate cache must reproduce the historical
        // always-retrain loop bit for bit. The reference below replicates
        // that loop verbatim: fresh `Gp::train` on the policy's training
        // data every iteration, no cache, same per-iteration RNG streams.
        use crate::resilience::{EvalOutcome, FaultKind, FaultPlan, FaultyObjective, VirtualClock};
        use crate::Objective as _;
        use cets_gp::Gp;
        use std::sync::Arc;

        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let names = obj.routine_names();
        let policy = FailurePolicy::default();
        let mut cfg = quick_config(22, 31);
        cfg.retrain_every = 1;

        // Every 4th attempt fails, so imputation is exercised too.
        let plan = FaultPlan {
            every_kth: Some((4, FaultKind::NonFinite)),
            ..Default::default()
        };
        let clock = Arc::new(VirtualClock::new());
        let faulty = FaultyObjective::new(&obj, plan.clone(), clock);
        let search = BoSearch::new(cfg.clone());
        let out = search
            .run_resilient(
                &sub,
                |c, _| EvalOutcome::screened(faulty.evaluate(c), &names),
                &policy,
            )
            .unwrap();

        let uslabs = crate::contraction::active_unit_slabs(&sub);
        let clock2 = Arc::new(VirtualClock::new());
        let faulty2 = FaultyObjective::new(&obj, plan, clock2);
        let design = search.resilient_design(&sub, &uslabs).unwrap();
        let mut records: Vec<EvalRecord> = Vec::new();
        let evaluate = |u: &[f64], records: &mut Vec<EvalRecord>| {
            let cfg_full = sub.lift(u).unwrap();
            let rec = match EvalOutcome::screened(faulty2.evaluate(&cfg_full), &names) {
                EvalOutcome::Ok(obs) => EvalRecord::ok(u.to_vec(), obs.total),
                EvalOutcome::Failed(e) => {
                    EvalRecord::failed(u.to_vec(), FailedEval::from_error(&e))
                }
            };
            records.push(rec);
        };
        let within =
            |records: &[EvalRecord]| policy.budget_spent(records) + 1e-9 < cfg.max_evals as f64;
        while records.len() < design.len() && within(&records) {
            let u = design[records.len()].clone();
            evaluate(&u, &mut records);
        }
        while within(&records) {
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(records.len() as u64));
            let (xs, ys) = policy.training_data(&records);
            let u_next = if xs.is_empty() {
                search.sample_valid_unit(&sub, &uslabs, &mut rng).unwrap()
            } else {
                let mut gp_cfg = cfg.gp.clone();
                gp_cfg.seed = cfg.seed.wrapping_add(records.len() as u64);
                let gp = Surrogate::Exact(Gp::train(&xs, &ys, &gp_cfg).unwrap());
                let best = records
                    .iter()
                    .filter_map(EvalRecord::y)
                    .fold(f64::INFINITY, f64::min);
                search
                    .propose_impl(&sub, &uslabs, &gp, best, None, &mut rng)
                    .unwrap()
            };
            evaluate(&u_next, &mut records);
        }
        assert_eq!(
            out.records, records,
            "incremental loop diverged from the always-retrain reference"
        );
    }

    #[test]
    fn imputed_value_matches_training_data_arithmetic() {
        use crate::resilience::{FailedEval, FailureKind};
        let fail = |u: Vec<f64>| {
            EvalRecord::failed(
                u,
                FailedEval {
                    kind: FailureKind::Crashed,
                    message: String::new(),
                },
            )
        };
        let records = vec![
            EvalRecord::ok(vec![0.1], 2.0),
            fail(vec![0.5]),
            EvalRecord::ok(vec![0.9], 5.0),
        ];
        let wpm = FailurePolicy {
            imputation: Imputation::WorstPlusMargin { margin: 0.5 },
            ..Default::default()
        };
        // worst=5, best=2, spread=3 → 5 + 0.5·3 = 6.5, matching the value
        // training_data bakes into the failure point.
        assert_eq!(wpm.imputed_value(&records), Some(6.5));
        let (_, ys) = wpm.training_data(&records);
        assert!(ys.contains(&6.5));

        // Degenerate spread → worst + margin.
        let flat = vec![EvalRecord::ok(vec![0.1], 3.0), fail(vec![0.5])];
        assert_eq!(wpm.imputed_value(&flat), Some(3.5));

        // Nothing to derive from, and Exclude never imputes.
        assert_eq!(wpm.imputed_value(&[fail(vec![0.5])]), None);
        let exclude = FailurePolicy {
            imputation: Imputation::Exclude,
            ..Default::default()
        };
        assert_eq!(exclude.imputed_value(&records), None);
    }

    #[test]
    fn resume_rejects_tier_mismatch() {
        use crate::resilience::EvalOutcome;
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let search = BoSearch::new(quick_config(10, 1)); // tier tag: auto:512
        let cp =
            BoCheckpoint::from_history(1, &[(vec![0.1, 0.2, 0.3], 1.0)]).with_tier("sparse".into());
        let err = search
            .resume(&sub, |c| obj.evaluate(c).total, &cp)
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        let err = search
            .resume_resilient(
                &sub,
                |c, _| EvalOutcome::Ok(obj.evaluate(c)),
                &FailurePolicy::default(),
                &cp,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        // Checkpoints from before the tier layer carry no tag and resume.
        let cp_old = BoCheckpoint::from_history(1, &[(vec![0.1, 0.2, 0.3], 1.0)]);
        assert!(search
            .resume(&sub, |c| obj.evaluate(c).total, &cp_old)
            .is_ok());
    }

    #[test]
    fn resume_resilient_rejects_seed_mismatch() {
        use crate::resilience::EvalOutcome;
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let cp = BoCheckpoint::from_history(999, &[(vec![0.1, 0.2, 0.3], 1.0)]);
        let err = BoSearch::new(quick_config(10, 1))
            .resume_resilient(
                &sub,
                |c, _| EvalOutcome::Ok(obj.evaluate(c)),
                &FailurePolicy::default(),
                &cp,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn seeded_history_counts_toward_budget() {
        let obj = SplitSphere::new();
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        // Pre-seed with 10 evaluated points, ask for 15 total.
        let mut seeds = Vec::new();
        for i in 0..10 {
            let u = vec![i as f64 / 10.0; 3];
            let y = obj.evaluate(&sub.lift(&u).unwrap()).total;
            seeds.push((u, y));
        }
        let out = BoSearch::new(quick_config(15, 5))
            .run_with_history(&sub, |c| obj.evaluate(c).total, seeds)
            .unwrap();
        assert_eq!(out.n_evals, 15);
    }
}
