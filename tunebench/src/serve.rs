//! The `serve-recover` workload: three campaigns through a durable
//! `cets-serve` service that is killed mid-run with a torn WAL tail, then
//! reopened on the same directory and drained.

use crate::methodology::{accept_ratio, THREADS};
use crate::rep::{timed_setup, Rep};
use crate::replay::{replay_records, LayerTimes};
use crate::stats::geomean;
use crate::sys;
use crate::Scale;
use cets_core::{BoConfig, BoSearch, FailurePolicy, Objective};
use cets_serve::{
    build_objective, read_frames, CampaignSpec, FsyncPolicy, KillSpec, ServeConfig, ServeError,
    Service, ServiceState, Terminal, Wal, WalRecord, WAL_FILE_NAME,
};
use cets_space::Subspace;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// WAL records durable when the simulated kill fires: a little before the
/// middle of the roughly 240 records a full-size run writes (45 at smoke
/// size).
fn kill_after_records(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100,
        Scale::Smoke => 20,
    }
}

/// Bytes of the frame in flight that land before the kill: a torn header.
const TORN_BYTES: usize = 9;

/// Per-stage seed stride of the service (`spec.seed + s · 2³²`).
const STAGE_SEED_STRIDE: u64 = 1 << 32;

/// One single-stage campaign, one two-stage campaign, and one two-stage
/// campaign with injected faults and retries.
pub fn campaigns(seed: u64, scale: Scale) -> Vec<CampaignSpec> {
    let (single_evals, stage_evals) = match scale {
        Scale::Full => (60, 40),
        Scale::Smoke => (8, 6),
    };
    let names = |r: std::ops::Range<usize>| r.map(|i| format!("x{i}")).collect::<Vec<_>>();
    let halves = vec![names(0..10), names(10..20)];
    let mut single = CampaignSpec::new("single", "synthetic:3", seed);
    single.max_evals = single_evals;
    let mut staged = CampaignSpec::new("two-stage", "synthetic:4", seed.wrapping_add(1));
    staged.max_evals = stage_evals;
    staged.stages = halves.clone();
    let mut flaky = CampaignSpec::new("flaky", "synthetic:5", seed.wrapping_add(2));
    flaky.max_evals = stage_evals;
    flaky.stages = halves;
    flaky.flaky_rate = 0.2;
    flaky.max_retries = 2;
    vec![single, staged, flaky]
}

fn config(dir: &Path, kill: Option<KillSpec>) -> ServeConfig {
    let mut config = ServeConfig::new(dir);
    config.fsync = FsyncPolicy::Always;
    config.workers = THREADS;
    config.kill = kill;
    config
}

/// Both incarnations: submit, run until the kill, reopen, drain. Returns
/// the drained service and the reopen and drain seconds.
fn session(
    mut svc: Service,
    specs: &[CampaignSpec],
    dir: &Path,
) -> Result<(Service, f64, f64), String> {
    for spec in specs {
        svc.submit(spec.clone())
            .map_err(|e| format!("submit {}: {e}", spec.id))?;
    }
    match svc.run_until_drained() {
        Err(ServeError::SimulatedCrash { .. }) => {}
        Ok(_) => return Err("the simulated kill did not fire".into()),
        Err(e) => return Err(format!("first incarnation: {e}")),
    }
    drop(svc);
    let t = Instant::now();
    let mut svc = Service::open(config(dir, None)).map_err(|e| format!("reopen: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    svc.run_until_drained()
        .map_err(|e| format!("second incarnation: {e}"))?;
    Ok((svc, open_s, t.elapsed().as_secs_f64()))
}

/// Open an empty service in a fresh directory, kill armed.
fn open_fresh(dir: &Path, scale: Scale) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    Service::open(config(
        dir,
        Some(KillSpec {
            after_records: kill_after_records(scale),
            torn_bytes: TORN_BYTES,
        }),
    ))
    .map_err(|e| format!("open: {e}"))
}

/// One repetition with sub-seed `seed`, in a scratch directory under
/// `tmp`. A traced repetition first runs an identical session untraced,
/// for the tracing overhead.
pub fn rep(tmp: &Path, seed: u64, traced: bool, scale: Scale) -> Rep {
    let dir: PathBuf = tmp.join(format!("serve-{seed}"));
    let specs = campaigns(seed, scale);

    let plain_wall_s = if traced {
        let plain_dir = tmp.join(format!("serve-{seed}-plain"));
        let t0 = Instant::now();
        let _ = open_fresh(&plain_dir, scale).and_then(|svc| session(svc, &specs, &plain_dir));
        let wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&plain_dir);
        Some(wall)
    } else {
        None
    };

    let (svc, setup_s) = match timed_setup(|| open_fresh(&dir, scale)) {
        Ok(built) => built,
        Err((e, setup_s)) => return Rep::failed(setup_s, 0.0, e),
    };

    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let result = session(svc, &specs, &dir);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    let (svc, open_s, drain_s) = match result {
        Ok(r) => r,
        Err(e) => return Rep::failed(setup_s, wall_s, e),
    };

    let mut rep = Rep {
        setup_s,
        wall_s,
        ..Default::default()
    };
    let result = measure(&mut rep, &svc, &specs, &dir, traced);
    if let Err(e) = result {
        rep.failures.push(e);
    }
    if traced {
        rep.layer("serve.open_s", open_s);
        rep.layer("serve.records_replayed", svc.recovery.records as f64);
        rep.layer("serve.drain_s", drain_s);
        if let Some(cpu) = cpu_s {
            rep.layer("par.cpu_util", cpu / (wall_s * THREADS as f64));
        }
        rep.layer("trace.wall_s", wall_s);
        if let Some(plain) = plain_wall_s {
            rep.layer("trace.overhead_s", wall_s - plain);
        }
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// Output checks, end-to-end figures and (traced) the per-layer split of
/// a drained service.
fn measure(
    rep: &mut Rep,
    svc: &Service,
    specs: &[CampaignSpec],
    dir: &Path,
    traced: bool,
) -> Result<(), String> {
    let state = svc.state();
    rep.check(svc.recovery.truncated.is_some(), || {
        "the reopen reported no torn tail".into()
    });
    rep.check(state.campaigns.len() == specs.len(), || {
        format!(
            "{} campaigns recovered, {} submitted",
            state.campaigns.len(),
            specs.len()
        )
    });

    let mut ratios = Vec::new();
    let mut restarts = 0;
    for c in &state.campaigns {
        let spec = &c.spec;
        let stats = c.failure_stats();
        rep.attempts += c.total_attempts();
        rep.failed_attempts += stats.n_failed();
        rep.evals += stats.n_ok;
        restarts += c.restarts;
        match &c.terminal {
            Some(Terminal::Finished { best_value, .. }) => {
                let obj = build_objective(spec).map_err(|e| e.to_string())?;
                let default_value = obj.evaluate(&obj.default_config()).total;
                ratios.push(default_value / best_value);
            }
            other => rep
                .failures
                .push(format!("campaign {} ended as {other:?}", spec.id)),
        }
        for (s, records) in c.stages.iter().enumerate() {
            let ok = records.iter().filter(|r| r.is_ok()).count();
            rep.check(ok == spec.max_evals, || {
                format!(
                    "campaign {} stage {s}: {ok} successes, budget {}",
                    spec.id, spec.max_evals
                )
            });
            if spec.flaky_rate == 0.0 {
                rep.check(records.len() == spec.max_evals, || {
                    format!(
                        "campaign {} stage {s}: {} attempts without faults, budget {}",
                        spec.id,
                        records.len(),
                        spec.max_evals
                    )
                });
            }
        }
    }
    // The service never evaluates the default configuration, so a
    // campaign may end above it; only a finite ratio is required.
    rep.speedup = geomean(&ratios);
    rep.check(rep.speedup.is_finite(), || {
        format!("no finite speedup over the defaults: {ratios:?}")
    });

    // The WAL layer from outside: re-append the final record stream to a
    // scratch log, fsync on every append, timing each record.
    let bytes = std::fs::read(dir.join(WAL_FILE_NAME)).map_err(|e| format!("read WAL: {e}"))?;
    let (records, _) = read_frames(&bytes).map_err(|e| format!("read WAL: {e}"))?;
    let (append_s, append_ms) =
        reappend(&records, &dir.join("scratch-always"), FsyncPolicy::Always)?;

    // Think time per attempt, reconstructed: the WAL append of the
    // previous attempt, the model update and the proposal — what the
    // resilient loop runs between two evaluations.
    let mut layers = LayerTimes::default();
    let mut objective_s = 0.0;
    let mut objective_calls = 0usize;
    let mut accept_min = f64::INFINITY;
    for c in &state.campaigns {
        let spec = &c.spec;
        let obj = build_objective(spec).map_err(|e| e.to_string())?;
        let space = obj.space();
        let policy = FailurePolicy {
            budget_fraction: 0.0,
            max_failures: spec.max_evals.saturating_mul(4).max(16),
            ..FailurePolicy::default()
        };
        let mut defaults = obj.default_config();
        for (s, (params, records)) in spec.stage_params(space).iter().zip(&c.stages).enumerate() {
            let names: Vec<&str> = params.iter().map(String::as_str).collect();
            let sub = Subspace::new(space, &names, defaults.clone()).map_err(|e| e.to_string())?;
            let bo = BoConfig {
                n_init: spec.n_init,
                max_evals: spec.max_evals,
                seed: spec
                    .seed
                    .wrapping_add((s as u64).wrapping_mul(STAGE_SEED_STRIDE)),
                ..BoConfig::default()
            };
            let lt = replay_records(&bo, &sub, records, &policy).map_err(|e| e.to_string())?;
            for (len, ms) in &lt.iteration_ms {
                let wal_ms = append_ms
                    .get(&(spec.id.clone(), s, len - 1))
                    .ok_or_else(|| {
                        format!(
                            "campaign {} stage {s}: attempt {} not in the WAL",
                            spec.id,
                            len - 1
                        )
                    })?;
                rep.gaps_ms.push(wal_ms + ms);
            }
            layers.add(&lt);
            if traced {
                for r in records {
                    let cfg = sub.lift(&r.u).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    obj.evaluate(&cfg);
                    objective_s += t.elapsed().as_secs_f64();
                    objective_calls += 1;
                }
                accept_min = accept_min.min(accept_ratio(&sub, spec.seed ^ s as u64));
            }
            defaults = BoSearch::replay_outcome(&sub, records)
                .map_err(|e| e.to_string())?
                .best_config;
        }
    }

    if traced {
        let (nosync_s, _) = reappend(&records, &dir.join("scratch-never"), FsyncPolicy::Never)?;
        let t = Instant::now();
        let (read, _) = read_frames(&bytes).map_err(|e| e.to_string())?;
        ServiceState::replay(&read).map_err(|e| e.to_string())?;
        let read_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for spec in specs {
            spec.validate().map_err(|e| e.to_string())?;
        }
        let lint_s = t.elapsed().as_secs_f64();

        rep.layer("gp.train_s", layers.train_s);
        rep.layer("gp.trains", layers.trains as f64);
        rep.layer("gp.train_points", layers.train_points as f64);
        rep.layer("gp.append_s", layers.append_s);
        rep.layer("gp.appends", layers.appends as f64);
        rep.layer("bo.propose_s", layers.propose_s);
        rep.layer("bo.proposals", layers.proposals as f64);
        rep.layer("space.accept_ratio_min", accept_min);
        rep.layer("objective.s", objective_s);
        rep.layer("objective.calls", objective_calls as f64);
        rep.layer("lint.s", lint_s);
        rep.layer("serve.restarts", restarts as f64);
        rep.layer("serve.failed_attempts", rep.failed_attempts as f64);
        rep.layer("wal.records", records.len() as f64);
        rep.layer("wal.bytes", bytes.len() as f64);
        rep.layer("wal.append_s", append_s);
        rep.layer("wal.append_nosync_s", nosync_s);
        rep.layer("wal.read_s", read_s);
    }
    Ok(())
}

/// Milliseconds per evaluation record, keyed by (campaign, stage, attempt).
type AppendTimes = HashMap<(String, usize, usize), f64>;

/// Append `records` to a fresh WAL at `dir` under `fsync`. Returns the
/// total seconds and each evaluation record's append time.
fn reappend(
    records: &[WalRecord],
    dir: &Path,
    fsync: FsyncPolicy,
) -> Result<(f64, AppendTimes), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (mut wal, _, _) = Wal::open(&dir.join(WAL_FILE_NAME), fsync).map_err(|e| e.to_string())?;
    let mut total = 0.0;
    let mut per_eval = HashMap::new();
    for rec in records {
        let t = Instant::now();
        wal.append(rec).map_err(|e| e.to_string())?;
        let s = t.elapsed().as_secs_f64();
        total += s;
        if let WalRecord::EvalCompleted { id, stage, idx, .. }
        | WalRecord::EvalFailed { id, stage, idx, .. } = rec
        {
            per_eval.insert((id.clone(), *stage, *idx), s * 1e3);
        }
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    Ok((total, per_eval))
}
