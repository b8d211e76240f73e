//! Oracle for the plan executor: on a fault-free objective, the guarded
//! `execute_plan` must reproduce the plain fail-fast fold bit for bit.
//!
//! `reference_execute_plan` below is that fail-fast fold — every evaluation
//! unguarded, each search a plain `BoSearch::run_with_history` seeded with
//! the incumbent defaults, any error aborting the run. It re-derives the
//! executor's stage rules independently (the BO seed
//! `seed + (stage << 32) + i + 1` and the stage worker split), so a change
//! to either one shows up here as well.

use cets_core::{
    BoConfig, BoSearch, Database, ExecutionLedger, Methodology, MethodologyConfig,
    MethodologyReport, Objective, Observation, PlanExecution, SearchOutcome, SearchPlan,
    SearchTarget, VariationPolicy,
};
use cets_linalg::{par, ParConfig};
use cets_space::{Config, ParamValue, SearchSpace, Subspace};
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use cets_tddft::{CaseStudy, TddftSimulator};
use std::sync::Mutex;
use std::time::Instant;

/// The fail-fast executor: stages in order, searches of a stage on
/// `workers` threads, best values folded into the running defaults.
fn reference_execute_plan<O: Objective + ?Sized>(
    objective: &O,
    plan: &SearchPlan,
    bo_template: &BoConfig,
    workers: usize,
) -> cets_core::Result<PlanExecution> {
    let start = Instant::now();
    let space = objective.space();
    let routine_names = objective.routine_names();
    let mut current = objective.default_config();
    let mut all: Vec<(String, SearchOutcome)> = Vec::new();
    let db = Mutex::new(Database::for_objective("plan-execution", objective));

    for (stage_idx, stage) in plan.stages.iter().enumerate() {
        // Up to `workers` concurrent searches; each gets the leftover
        // workers for its own BO loop unless the template pins them.
        let used = workers.max(1).min(stage.len().max(1));
        let inner = (workers.max(1) / used).max(1);
        let mut bo_stage = bo_template.clone();
        if bo_stage.n_workers == 0 {
            bo_stage.n_workers = inner;
        }
        if bo_stage.gp.par == ParConfig::default() {
            bo_stage.gp.par = ParConfig::fixed(inner);
        }

        let run_one = |i: usize| -> cets_core::Result<SearchOutcome> {
            let s = &stage[i];
            let routines: Vec<usize> = match &s.target {
                SearchTarget::Total => vec![],
                SearchTarget::Routines(names) => names
                    .iter()
                    .map(|n| routine_names.iter().position(|r| r == n).unwrap())
                    .collect(),
            };
            let target = |obs: &Observation| -> f64 {
                if routines.is_empty() {
                    obs.total
                } else {
                    routines.iter().map(|&r| obs.routines[r]).sum()
                }
            };
            let seed = bo_template
                .seed
                .wrapping_add((stage_idx as u64) << 32)
                .wrapping_add(i as u64 + 1);
            let names: Vec<&str> = s.params.iter().map(|p| p.as_str()).collect();
            let subspace = Subspace::new(space, &names, current.clone())?;
            let f = |cfg: &Config| -> f64 {
                let obs = objective.evaluate(cfg);
                db.lock().unwrap().push(cfg.clone(), &obs, s.name.clone());
                target(&obs)
            };
            let u0 = subspace.project(&current)?;
            let y0 = f(&subspace.lift(&u0)?);
            let bo = BoConfig {
                max_evals: s.budget,
                seed,
                ..bo_stage.clone()
            };
            BoSearch::new(bo).run_with_history(&subspace, f, vec![(u0, y0)])
        };

        let outcomes = par::map_indexed(used, stage.len(), run_one);
        for (s, outcome) in stage.iter().zip(outcomes) {
            let outcome = outcome?;
            for p in &s.params {
                let idx = space.index_of(p)?;
                current[idx] = outcome.best_config[idx].clone();
            }
            all.push((s.name.clone(), outcome));
        }
        space.check_valid(&current)?;
    }

    let final_obs = objective.evaluate(&current);
    let mut database = db.into_inner().unwrap();
    database.push(current.clone(), &final_obs, "final");
    Ok(PlanExecution {
        total_evals: all.iter().map(|(_, o)| o.n_evals).sum(),
        searches: all,
        final_config: current,
        final_value: final_obs.total,
        wall_time: start.elapsed(),
        database,
        ledger: ExecutionLedger::default(),
    })
}

fn config_bits(cfg: &[ParamValue]) -> Vec<u64> {
    cfg.iter().map(|v| v.as_f64().to_bits()).collect()
}

fn values_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every number two executions report, as bits; wall times excluded. The
/// database is a multiset: record order within a parallel stage is not
/// part of the contract.
fn assert_bit_identical(got: &PlanExecution, want: &PlanExecution, what: &str) {
    let names =
        |e: &PlanExecution| -> Vec<String> { e.searches.iter().map(|(n, _)| n.clone()).collect() };
    assert_eq!(names(got), names(want), "{what}: searches");
    for ((name, g), (_, w)) in got.searches.iter().zip(&want.searches) {
        let history = |o: &SearchOutcome| -> Vec<(Vec<u64>, u64)> {
            o.history
                .iter()
                .map(|(u, y)| (values_bits(u), y.to_bits()))
                .collect()
        };
        assert_eq!(history(g), history(w), "{what}/{name}: history");
        assert_eq!(
            config_bits(&g.best_config),
            config_bits(&w.best_config),
            "{what}/{name}: best config"
        );
        assert_eq!(
            g.best_value.to_bits(),
            w.best_value.to_bits(),
            "{what}/{name}: best value"
        );
        assert_eq!(
            values_bits(&g.incumbent_trace),
            values_bits(&w.incumbent_trace),
            "{what}/{name}: incumbent trace"
        );
        assert_eq!(g.n_evals, w.n_evals, "{what}/{name}: evaluations");
    }
    assert_eq!(
        config_bits(&got.final_config),
        config_bits(&want.final_config),
        "{what}: final config"
    );
    assert_eq!(
        got.final_value.to_bits(),
        want.final_value.to_bits(),
        "{what}: final value"
    );
    assert_eq!(got.total_evals, want.total_evals, "{what}: total evals");
    let records = |e: &PlanExecution| -> Vec<(String, Vec<u64>, u64, Vec<u64>)> {
        let mut r: Vec<_> = e
            .database
            .records()
            .iter()
            .map(|r| {
                let config = config_bits(&r.config);
                let routines = values_bits(&r.routines);
                (r.tag.clone(), config, r.total.to_bits(), routines)
            })
            .collect();
        r.sort();
        r
    };
    assert_eq!(records(got), records(want), "{what}: database");
    // A fault-free run has a clean ledger: every search plus the final
    // verification, nothing failed.
    assert!(got.ledger.is_clean(), "{what}: ledger {:?}", got.ledger);
    assert_eq!(got.ledger.entries.len(), got.searches.len() + 1, "{what}");
}

/// Execute `report`'s plan through `Methodology::execute` and through the
/// reference at 1 and 2 workers, and require identical results.
fn check<O: Objective + ?Sized>(
    name: &str,
    objective: &O,
    config: &MethodologyConfig,
    report: &MethodologyReport,
) {
    assert!(report.plan.searches().count() > 0, "{name}: empty plan");
    for workers in [1, 2] {
        let m = Methodology::new(MethodologyConfig {
            par: ParConfig::fixed(workers),
            ..config.clone()
        });
        let got = m.execute(objective, report).unwrap();
        let want = reference_execute_plan(objective, &report.plan, &config.bo, workers).unwrap();
        assert_bit_identical(&got, &want, &format!("{name} at {workers} workers"));
    }
}

fn quick_bo(seed: u64) -> BoConfig {
    BoConfig {
        n_init: 4,
        n_candidates: 48,
        n_local: 8,
        seed,
        ..Default::default()
    }
}

/// Three-parameter sphere with two routines: `r0` over x0 (and x1 when
/// uncoupled), `r1` over x2 (and x1 when coupled).
struct Sphere {
    space: SearchSpace,
    coupled: bool,
}

impl Sphere {
    fn new(coupled: bool) -> Self {
        let space = SearchSpace::builder()
            .real("x0", -5.0, 5.0)
            .real("x1", -5.0, 5.0)
            .real("x2", -5.0, 5.0)
            .build();
        Sphere { space, coupled }
    }
}

impl Objective for Sphere {
    fn space(&self) -> &SearchSpace {
        &self.space
    }
    fn routine_names(&self) -> Vec<String> {
        vec!["r0".into(), "r1".into()]
    }
    fn evaluate(&self, cfg: &Config) -> Observation {
        let x: Vec<f64> = cfg.iter().map(|v| v.as_f64()).collect();
        let (r0, r1) = if self.coupled {
            let r1 = x[2] * x[2] + (x[1] * x[2]).powi(2) + 0.5 * x[1] * x[1];
            (x[0] * x[0], r1)
        } else {
            (x[0] * x[0] + x[1] * x[1], x[2] * x[2])
        };
        Observation {
            total: r0 + r1,
            routines: vec![r0, r1],
        }
    }
    fn default_config(&self) -> Config {
        vec![ParamValue::Real(1.0); 3]
    }
}

#[test]
fn split_sphere_matches_fail_fast_reference() {
    let obj = Sphere::new(false);
    let config = MethodologyConfig {
        bo: quick_bo(3),
        evals_per_dim: 6,
        ..Default::default()
    };
    let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
    let m = Methodology::new(config.clone());
    let report = m.analyze(&obj, &owners, &obj.default_config()).unwrap();
    assert_eq!(report.plan.stages[0].len(), 2, "two independent searches");
    check("SplitSphere", &obj, &config, &report);
}

#[test]
fn coupled_sphere_matches_fail_fast_reference() {
    let obj = Sphere::new(true);
    let config = MethodologyConfig {
        cutoff: 0.10,
        precedence: vec!["r0".into()],
        bo: quick_bo(5),
        evals_per_dim: 6,
        ..Default::default()
    };
    let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
    let m = Methodology::new(config.clone());
    let report = m.analyze(&obj, &owners, &obj.default_config()).unwrap();
    assert_eq!(report.plan.stages.len(), 2, "precedence stage, then r1");
    check("CoupledSphere", &obj, &config, &report);
}

#[test]
fn synthetic_case3_matches_fail_fast_reference() {
    // As `cets synthetic --case 3`: analysis on the raw routine scale,
    // execution on the log-scale objective.
    let analysis = SyntheticFunction::new(SyntheticCase::Case3)
        .with_seed(1)
        .as_raw();
    let exec = SyntheticFunction::new(SyntheticCase::Case3).with_seed(1);
    let config = MethodologyConfig {
        cutoff: 0.25,
        variation_policy: VariationPolicy::Multiplicative {
            count: 30,
            factor: 0.1,
        },
        bo: quick_bo(1),
        evals_per_dim: 2,
        ..Default::default()
    };
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let baseline = analysis.space().decode(&[0.6; 20]).unwrap();
    let report = Methodology::new(config.clone())
        .analyze(&analysis, &pairs, &baseline)
        .unwrap();
    assert!(
        report.plan.searches().any(|s| s.name == "G3+G4"),
        "Case 3 merges G3 and G4"
    );
    check("synthetic Case 3", &exec, &config, &report);
}

#[test]
fn tddft_cs1_multi_stage_matches_fail_fast_reference() {
    let sim = TddftSimulator::new(CaseStudy::case1())
        .with_seed(2)
        .with_expert_constraints();
    let config = MethodologyConfig {
        cutoff: 0.10,
        variation_policy: VariationPolicy::Spread { count: 5 },
        precedence: vec!["Slater".into(), "MPI".into()],
        shared_params: TddftSimulator::shared_params(),
        bo: quick_bo(2),
        evals_per_dim: 2,
        ..Default::default()
    };
    let owners = TddftSimulator::owners();
    let pairs: Vec<(&str, &str)> = owners
        .iter()
        .map(|(p, r)| (p.as_str(), r.as_str()))
        .collect();
    let report = Methodology::new(config.clone())
        .analyze(&sim, &pairs, &sim.default_config())
        .unwrap();
    assert!(
        report.plan.stages.len() >= 3,
        "precedence stages, then groups"
    );
    check("TDDFT CS1", &sim, &config, &report);
}
