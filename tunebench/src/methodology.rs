//! The `synthetic-joint` and `tddft-cs1` workloads: the whole methodology
//! (sensitivity analysis → plan → lint → staged BO execution) through the
//! public library API, with the settings of `cets synthetic --case 3` and
//! `cets tddft --case 1`.

use crate::recorder::{split_by_search, BoundaryRecorder};
use crate::rep::{timed_setup, Rep};
use crate::replay::{replay_history, LayerTimes};
use crate::sys;
use crate::Scale;
use cets_core::contraction::active_unit_slabs;
use cets_core::{
    build_graph, routine_sensitivity, BoConfig, CountingObjective, Methodology, MethodologyConfig,
    MethodologyReport, Objective, PlanExecution, VariationPolicy,
};
use cets_linalg::ParConfig;
use cets_space::{map_slabs, Config, Subspace};
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use cets_tddft::{CaseStudy, TddftSimulator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

/// Uniform slab draws per planned search for `space.accept_ratio_min`.
const ACCEPT_DRAWS: usize = 20_000;

/// Which methodology workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Synthetic Case 3: one stage, G1, G2 and the merged 10-dim G3+G4.
    SyntheticJoint,
    /// RT-TDDFT Case Study 1: expert constraints, Slater → MPI
    /// precedence, shared cuZcopy parameters, several sequential stages.
    TddftCs1,
}

/// Everything a repetition builds before its first timed call.
struct Inputs {
    /// The objective the sensitivity analysis runs on.
    analysis: Box<dyn Objective>,
    /// The objective the plan executes against, when it differs.
    exec: Option<Box<dyn Objective>>,
    owners: Vec<(String, String)>,
    baseline: Config,
    methodology: Methodology,
}

impl Inputs {
    fn new(target: Target, seed: u64, scale: Scale) -> Result<Self, String> {
        let evals_per_dim = match scale {
            Scale::Full => 10,
            Scale::Smoke => 3,
        };
        let bo = BoConfig {
            seed,
            ..Default::default()
        };
        match target {
            Target::SyntheticJoint => {
                // Analysis on the raw routine scale, execution on the
                // paper's log-scale objective.
                let analysis = SyntheticFunction::new(SyntheticCase::Case3)
                    .with_seed(seed)
                    .as_raw();
                let baseline = analysis
                    .space()
                    .decode(&[0.6; 20])
                    .map_err(|e| format!("analysis baseline: {e}"))?;
                Ok(Inputs {
                    analysis: Box::new(analysis),
                    exec: Some(Box::new(
                        SyntheticFunction::new(SyntheticCase::Case3).with_seed(seed),
                    )),
                    owners: SyntheticFunction::owners(),
                    baseline,
                    methodology: Methodology::new(MethodologyConfig {
                        cutoff: 0.25,
                        variation_policy: VariationPolicy::Multiplicative {
                            count: 30,
                            factor: 0.1,
                        },
                        bo,
                        evals_per_dim,
                        par: ParConfig::fixed(THREADS),
                        ..Default::default()
                    }),
                })
            }
            Target::TddftCs1 => {
                let sim = TddftSimulator::new(CaseStudy::case1())
                    .with_seed(seed)
                    .with_expert_constraints();
                let baseline = sim.default_config();
                Ok(Inputs {
                    analysis: Box::new(sim),
                    exec: None,
                    owners: TddftSimulator::owners(),
                    baseline,
                    methodology: Methodology::new(MethodologyConfig {
                        cutoff: 0.10,
                        variation_policy: VariationPolicy::Spread { count: 5 },
                        precedence: vec!["Slater".into(), "MPI".into()],
                        shared_params: TddftSimulator::shared_params(),
                        bo,
                        evals_per_dim,
                        par: ParConfig::fixed(THREADS),
                        ..Default::default()
                    }),
                })
            }
        }
    }

    fn exec(&self) -> &dyn Objective {
        self.exec.as_deref().unwrap_or(self.analysis.as_ref())
    }

    fn owner_pairs(&self) -> Vec<(&str, &str)> {
        self.owners
            .iter()
            .map(|(p, r)| (p.as_str(), r.as_str()))
            .collect()
    }
}

/// The timed pipeline: analyze, lint gate, execute against `exec`.
/// Returns the lint seconds alongside the results.
fn pipeline(
    inp: &Inputs,
    exec: &dyn Objective,
) -> Result<(MethodologyReport, PlanExecution, f64), String> {
    let m = &inp.methodology;
    let pairs = inp.owner_pairs();
    let report = m
        .analyze(inp.analysis.as_ref(), &pairs, &inp.baseline)
        .map_err(|e| format!("analyze: {e}"))?;
    let t = Instant::now();
    let lint = m.lint_report(inp.analysis.as_ref(), &report, &inp.baseline);
    let lint_s = t.elapsed().as_secs_f64();
    if !m.config.lint.accepts(&lint) {
        return Err(format!(
            "lint gate rejected the plan:\n{}",
            cets_lint::render_human(&lint)
        ));
    }
    let exec = m
        .execute(exec, &report)
        .map_err(|e| format!("execute: {e}"))?;
    Ok((report, exec, lint_s))
}

/// One repetition with sub-seed `seed`. A traced repetition first runs the
/// same pipeline without the boundary recorder (identical work: every
/// trajectory is a pure function of the seed) to measure the tracing
/// overhead, then replays every search for the per-layer split.
pub fn rep(target: Target, seed: u64, traced: bool, scale: Scale) -> Rep {
    let (inp, setup_s) = match timed_setup(|| Inputs::new(target, seed, scale)) {
        Ok(built) => built,
        Err((e, setup_s)) => return Rep::failed(setup_s, 0.0, e),
    };

    let plain_wall_s = traced.then(|| {
        let t0 = Instant::now();
        let _ = pipeline(&inp, inp.exec());
        t0.elapsed().as_secs_f64()
    });

    let recorder = BoundaryRecorder::new(inp.exec());
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let result = pipeline(&inp, &recorder);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    let (report, exec, lint_s) = match result {
        Ok(r) => r,
        Err(e) => return Rep::failed(setup_s, wall_s, e),
    };
    let calls = recorder.into_calls();

    let mut rep = Rep {
        setup_s,
        wall_s,
        evals: calls.len(),
        attempts: calls.len(),
        ..Default::default()
    };

    // Output checks.
    let obj = inp.exec();
    let space = obj.space();
    if let Err(e) = space.check_valid(&exec.final_config) {
        rep.failures
            .push(format!("final configuration invalid: {e}"));
    }
    let default_value = obj.evaluate(&obj.default_config()).total;
    rep.speedup = default_value / exec.final_value;
    rep.check(rep.speedup.is_finite() && rep.speedup >= 1.0, || {
        format!(
            "tuned objective {} is worse than the default {default_value}",
            exec.final_value
        )
    });

    let mut n_evals = exec.searches.iter().map(|(_, o)| o.n_evals);
    let counts: Vec<Vec<usize>> = report
        .plan
        .stages
        .iter()
        .map(|stage| stage.iter().map(|_| n_evals.next().unwrap_or(0)).collect())
        .collect();
    let split = match split_by_search(&calls, &counts, THREADS) {
        Ok(s) => s,
        Err(e) => {
            rep.failures.push(format!("objective boundary: {e}"));
            return rep;
        }
    };
    rep.gaps_ms = split.gaps_ms;
    rep.detail.push((
        "plan".into(),
        report
            .plan
            .stages
            .iter()
            .map(|s| {
                s.iter()
                    .map(|p| format!("{}:{}", p.name, p.budget))
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect::<Vec<_>>()
            .join(" | "),
    ));

    if traced {
        let timed = Timed {
            search_objective_s: split.objective_s,
            objective_s: split.total_objective_s,
            objective_calls: calls.len(),
            lint_s,
            cpu_s,
            plain_wall_s,
        };
        if let Err(e) = trace_layers(&mut rep, &inp, &report, &exec, &timed, seed) {
            rep.failures.push(format!("trace: {e}"));
        }
    }
    rep
}

/// What the timed region of a traced repetition recorded.
struct Timed {
    /// Objective seconds per search, in plan order.
    search_objective_s: Vec<f64>,
    /// Every objective call, the final evaluation included.
    objective_s: f64,
    objective_calls: usize,
    lint_s: f64,
    /// Process CPU seconds over the timed region.
    cpu_s: Option<f64>,
    /// Wall seconds of the identical untraced pipeline run.
    plain_wall_s: Option<f64>,
}

/// The per-layer split of one finished repetition, timed from outside.
fn trace_layers(
    rep: &mut Rep,
    inp: &Inputs,
    report: &MethodologyReport,
    exec: &PlanExecution,
    timed: &Timed,
    seed: u64,
) -> Result<(), String> {
    let m = &inp.methodology;
    let cfg = &m.config;
    let pairs = inp.owner_pairs();

    // Analysis: the sensitivity pass, then graph + partition.
    let counting = CountingObjective::new(inp.analysis.as_ref());
    let t = Instant::now();
    let scores = routine_sensitivity(&counting, &inp.baseline, &cfg.variation_policy)
        .map_err(|e| format!("sensitivity: {e}"))?;
    let sensitivity_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let precedence: Vec<&str> = cfg.precedence.iter().map(String::as_str).collect();
    let shared: Vec<&str> = cfg
        .shared_params
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    build_graph(inp.analysis.as_ref(), &pairs, &scores)
        .map_err(|e| format!("graph: {e}"))?
        .partition_with(cfg.cutoff, &precedence, &shared)
        .map_err(|e| format!("partition: {e}"))?;
    let plan_s = t.elapsed().as_secs_f64();

    // Searches: replay each one under the worker budget the executor gave
    // it, then compare objective + gp + bo against its wall time.
    let obj = inp.exec();
    let space = obj.space();
    let mut current = obj.default_config();
    let mut layers = LayerTimes::default();
    let mut search_s = 0.0;
    let mut unattributed_s = 0.0;
    let mut accept_min = f64::INFINITY;
    let mut searches = Vec::new();
    let mut k = 0;
    for (stage_idx, stage) in report.plan.stages.iter().enumerate() {
        let used = THREADS.min(stage.len().max(1));
        let inner = (THREADS / used).max(1);
        let mut next = current.clone();
        for (i, planned) in stage.iter().enumerate() {
            let (_, outcome) = exec
                .searches
                .get(k)
                .ok_or_else(|| format!("no outcome for search {}", planned.name))?;
            let names: Vec<&str> = planned.params.iter().map(String::as_str).collect();
            let sub = Subspace::new(space, &names, current.clone()).map_err(|e| e.to_string())?;
            let mut bo = cfg.bo.clone();
            if bo.n_workers == 0 {
                bo.n_workers = inner;
            }
            if bo.gp.par == ParConfig::default() {
                bo.gp.par = ParConfig::fixed(inner);
            }
            bo.max_evals = planned.budget;
            bo.seed = cfg
                .bo
                .seed
                .wrapping_add((stage_idx as u64) << 32)
                .wrapping_add(i as u64 + 1);
            let lt = replay_history(&bo, &sub, &outcome.history).map_err(|e| e.to_string())?;
            let wall = outcome.wall_time.as_secs_f64();
            let residual = wall - (timed.search_objective_s[k] + lt.model_s());
            let accept = accept_ratio(&sub, seed ^ k as u64);
            searches.push(format!(
                "{} wall {wall:.4} objective {:.4} gp {:.4} bo {:.4} residual {residual:.4} accept {accept:.4}",
                planned.name,
                timed.search_objective_s[k],
                lt.train_s + lt.append_s,
                lt.propose_s,
            ));
            search_s += wall;
            unattributed_s += residual;
            layers.add(&lt);
            accept_min = accept_min.min(accept);
            for p in &planned.params {
                let idx = space.index_of(p).map_err(|e| e.to_string())?;
                next[idx] = outcome.best_config[idx].clone();
            }
            k += 1;
        }
        current = next;
    }

    rep.layer("gp.train_s", layers.train_s);
    rep.layer("gp.trains", layers.trains as f64);
    rep.layer("gp.train_points", layers.train_points as f64);
    rep.layer("gp.append_s", layers.append_s);
    rep.layer("gp.appends", layers.appends as f64);
    rep.layer("gp.train_share", layers.train_s / search_s);
    rep.layer("bo.propose_s", layers.propose_s);
    rep.layer("bo.proposals", layers.proposals as f64);
    rep.layer("bo.propose_share", layers.propose_s / search_s);
    rep.layer("space.accept_ratio_min", accept_min);
    rep.layer("objective.s", timed.objective_s);
    rep.layer("objective.calls", timed.objective_calls as f64);
    rep.layer("analysis.sensitivity_s", sensitivity_s);
    rep.layer("analysis.sensitivity_evals", counting.count() as f64);
    rep.layer("analysis.plan_s", plan_s);
    rep.layer("lint.s", timed.lint_s);
    rep.layer("executor.search_s", search_s);
    rep.layer("executor.unattributed_s", unattributed_s);
    if let Some(cpu) = timed.cpu_s {
        rep.layer("par.cpu_util", cpu / (rep.wall_s * THREADS as f64));
    }
    rep.layer("trace.wall_s", rep.wall_s);
    if let Some(plain) = timed.plain_wall_s {
        rep.layer("trace.overhead_s", rep.wall_s - plain);
    }
    rep.detail.push(("searches_s".into(), searches.join("; ")));
    Ok(())
}

/// Fraction of uniform draws over the search's contraction-aware sampling
/// slabs that satisfy the space's constraints.
pub fn accept_ratio(sub: &Subspace, seed: u64) -> f64 {
    let slabs = active_unit_slabs(sub);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut u = vec![0.0; sub.dim()];
    let mut ok = 0usize;
    for _ in 0..ACCEPT_DRAWS {
        for (x, s) in u.iter_mut().zip(&slabs) {
            *x = map_slabs(s, rng.random::<f64>());
        }
        if sub.is_valid_active(&u) {
            ok += 1;
        }
    }
    ok as f64 / ACCEPT_DRAWS as f64
}
