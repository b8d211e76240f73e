//! The `gp`/`bo` split of a finished search, timed from outside.
//!
//! A search's recorded history fixes every model the loop fitted: at each
//! BO iteration the surrogate is retrained from scratch on a
//! `retrain_every` boundary (seed rule `seed + n`) and absorbs the newest
//! observation through `Surrogate::append` otherwise. Replaying that
//! sequence through the public `Surrogate::train`, `Surrogate::append` and
//! `BoSearch::propose` — same `GpConfig`, same worker budget — times the
//! two layers without instrumenting the library.

use cets_core::{BoConfig, BoSearch, EvalRecord, FailurePolicy};
use cets_gp::Surrogate;
use cets_space::Subspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Layer times and counts from replaying one or more searches.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub train_s: f64,
    pub trains: usize,
    /// Σ n over trainings.
    pub train_points: usize,
    /// Appends, including any refit an append fell back to.
    pub append_s: f64,
    pub appends: usize,
    pub propose_s: f64,
    pub proposals: usize,
    /// Model update plus proposal per BO iteration, in milliseconds,
    /// keyed by the attempt index the iteration proposed.
    pub iteration_ms: Vec<(usize, f64)>,
}

impl LayerTimes {
    pub fn add(&mut self, other: &LayerTimes) {
        self.train_s += other.train_s;
        self.trains += other.trains;
        self.train_points += other.train_points;
        self.append_s += other.append_s;
        self.appends += other.appends;
        self.propose_s += other.propose_s;
        self.proposals += other.proposals;
        self.iteration_ms.extend_from_slice(&other.iteration_ms);
    }

    /// Seconds attributed to the `gp` and `bo` layers together.
    pub fn model_s(&self) -> f64 {
        self.train_s + self.append_s + self.propose_s
    }
}

/// The shared replay loop. Before proposing attempt `len`, the model is
/// retrained on `training(len)` when `retrain_needed` says so and absorbs
/// `newest(len)` otherwise; `best(len)` is the incumbent the proposal
/// scores against.
fn replay_iterations(
    bo: &BoConfig,
    subspace: &Subspace,
    range: std::ops::Range<usize>,
    training: impl Fn(usize) -> (Vec<Vec<f64>>, Vec<f64>),
    newest: impl Fn(usize) -> Option<(Vec<f64>, f64)>,
    best: impl Fn(usize) -> f64,
    mut retrain_needed: impl FnMut(usize, &Option<Surrogate>) -> bool,
) -> cets_core::Result<LayerTimes> {
    let search = BoSearch::new(bo.clone());
    let mut t = LayerTimes::default();
    let mut model: Option<Surrogate> = None;
    for len in range {
        let t0 = Instant::now();
        if retrain_needed(len, &model) {
            let (xs, ys) = training(len);
            if !xs.is_empty() {
                let mut gp = bo.gp.clone();
                gp.seed = bo.seed.wrapping_add(len as u64);
                model = Some(Surrogate::train(&xs, &ys, &gp)?);
                t.train_s += t0.elapsed().as_secs_f64();
                t.trains += 1;
                t.train_points += xs.len();
            }
        } else if let (Some(m), Some((u, y))) = (model.as_mut(), newest(len)) {
            if m.append(u, y).is_err() {
                let (xs, ys) = training(len);
                *m = m.refit(&xs, &ys)?;
            }
            t.append_s += t0.elapsed().as_secs_f64();
            t.appends += 1;
        }
        let Some(m) = model.as_ref() else { continue };
        let t1 = Instant::now();
        let mut rng = StdRng::seed_from_u64(bo.seed.wrapping_add(len as u64));
        search.propose(subspace, m, best(len), None, &mut rng)?;
        t.propose_s += t1.elapsed().as_secs_f64();
        t.proposals += 1;
        t.iteration_ms.push((len, t0.elapsed().as_secs_f64() * 1e3));
    }
    Ok(t)
}

/// Replay a plain (`BoSearch::run_with_history`) search: `history` is the
/// outcome's full history, whose first `n_init` entries are the design.
pub fn replay_history(
    bo: &BoConfig,
    subspace: &Subspace,
    history: &[(Vec<f64>, f64)],
) -> cets_core::Result<LayerTimes> {
    let re = bo.retrain_every.max(1);
    let start = bo.n_init.min(history.len());
    replay_iterations(
        bo,
        subspace,
        start..history.len(),
        |len| history[..len].iter().cloned().unzip(),
        |len| history.get(len - 1).cloned(),
        |len| {
            history[..len]
                .iter()
                .map(|(_, y)| *y)
                .fold(f64::INFINITY, f64::min)
        },
        |len, model| {
            len.is_multiple_of(re) || model.as_ref().is_none_or(|m| m.n_train() + 1 != len)
        },
    )
}

/// Replay a failure-aware (`BoSearch::run_resilient_observed`) search over
/// its attempt records: failures enter training through the policy's
/// imputation, and a move of the imputed value forces a retrain.
pub fn replay_records(
    bo: &BoConfig,
    subspace: &Subspace,
    records: &[EvalRecord],
    policy: &FailurePolicy,
) -> cets_core::Result<LayerTimes> {
    let re = bo.retrain_every.max(1);
    let start = bo.n_init.min(records.len());
    let finite = |r: &EvalRecord| {
        r.y()
            .filter(|y| y.is_finite() && r.u.iter().all(|v| v.is_finite()))
    };
    let imputed = |len: usize| {
        let prefix = &records[..len];
        prefix
            .iter()
            .any(|r| !r.is_ok() && r.u.iter().all(|v| v.is_finite()))
            .then(|| policy.imputed_value(prefix))
            .flatten()
    };
    let mut imputed_at_model: Option<f64> = None;
    let mut model_len = 0usize;
    let retrain = |len: usize, model: &Option<Surrogate>| {
        let now = imputed(len);
        let append_ok = !len.is_multiple_of(re)
            && model.is_some()
            && model_len + 1 == len
            && (imputed_at_model.is_none() || imputed_at_model == now);
        imputed_at_model = now;
        model_len = len;
        !append_ok
    };
    replay_iterations(
        bo,
        subspace,
        start..records.len(),
        |len| policy.training_data(&records[..len]),
        |len| {
            let last = &records[len - 1];
            match finite(last) {
                Some(y) => Some((last.u.clone(), y)),
                None if !last.is_ok() && last.u.iter().all(|v| v.is_finite()) => {
                    imputed(len).map(|iv| (last.u.clone(), iv))
                }
                None => None,
            }
        },
        |len| {
            records[..len]
                .iter()
                .filter_map(EvalRecord::y)
                .fold(f64::INFINITY, f64::min)
        },
        retrain,
    )
}
