//! `tunebench` — the whole-workload benchmark of the CETS tuning library.
//!
//! Three workloads run through the public library API in one process with
//! two worker threads: `synthetic-joint` and `tddft-cs1` run the whole
//! methodology, `serve-recover` runs the durable campaign service through
//! a simulated crash and recovery. An untraced run (`--trace 0`) reports
//! the end-to-end metrics; a traced run (`--trace 1`) times calls into
//! each layer's public functions from this crate and reports the
//! per-layer metrics. See `README.md` for why each workload exists and
//! which end-to-end metric each layer metric should move.

pub mod methodology;
pub mod recorder;
pub mod rep;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod sys;

use rep::Rep;
use stats::{geomean, median, quantile};
use std::path::Path;
use std::time::{Duration, Instant};

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s"),
    m("evals_per_s", "1/s"),
    m("think_ms_p95", "ms"),
    m("speedup_vs_default", "ratio"),
    m("success_rate", "ratio"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Printed by every untraced run in the detail line only, without a
/// regression bound: across ten seeds on a two-vCPU host whose speed
/// drifts by about 20% over minutes, the median think time of
/// `synthetic-joint` spread by a third of its median, beyond any bound
/// the benchmark may set.
pub const UNBOUNDED: &[MetricDef] = &[m("think_ms_p50", "ms")];

/// Reported by every traced run; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("gp.train_s", "s"),
    m("gp.trains", "count"),
    m("gp.train_points", "count"),
    m("gp.append_s", "s"),
    m("gp.appends", "count"),
    m("gp.train_share", "ratio"),
    m("bo.propose_s", "s"),
    m("bo.proposals", "count"),
    m("bo.propose_share", "ratio"),
    m("space.accept_ratio_min", "ratio"),
    m("objective.s", "s"),
    m("objective.calls", "count"),
    m("analysis.sensitivity_s", "s"),
    m("analysis.sensitivity_evals", "count"),
    m("analysis.plan_s", "s"),
    m("lint.s", "s"),
    m("executor.search_s", "s"),
    m("executor.unattributed_s", "s"),
    m("par.cpu_util", "ratio"),
    m("serve.open_s", "s"),
    m("serve.records_replayed", "count"),
    m("serve.drain_s", "s"),
    m("serve.restarts", "count"),
    m("serve.failed_attempts", "count"),
    m("wal.records", "count"),
    m("wal.bytes", "bytes"),
    m("wal.append_s", "s"),
    m("wal.append_nosync_s", "s"),
    m("wal.read_s", "s"),
    m("trace.wall_s", "s"),
    m("trace.overhead_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyntheticJoint,
    TddftCs1,
    ServeRecover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SyntheticJoint,
        Workload::TddftCs1,
        Workload::ServeRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyntheticJoint => "synthetic-joint",
            Workload::TddftCs1 => "tddft-cs1",
            Workload::ServeRecover => "serve-recover",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Repetitions every untraced run makes, however short `--seconds`
    /// is. The seed-exact metrics (`speedup_vs_default`, `success_rate`)
    /// are computed over exactly these, so they do not depend on machine
    /// speed. `synthetic-joint` needs eight: its tuned objective varies by
    /// about 14% from seed to seed.
    pub fn exact_reps(self, scale: Scale, traced: bool) -> usize {
        match (scale, traced, self) {
            (Scale::Smoke, _, _) => 1,
            (Scale::Full, true, _) => 3,
            (Scale::Full, false, Workload::SyntheticJoint) => 8,
            (Scale::Full, false, _) => 4,
        }
    }
}

/// Problem size: the benchmark's, or a smoke size for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Fewest think-time gaps a run must pool.
    pub fn min_think_samples(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Smoke => 1,
        }
    }
}

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// The run's verdict and metrics, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// One JSON object with provenance, sample counts and per-repetition
    /// detail.
    pub detail: String,
}

/// The sub-seed of repetition `k`: disjoint across run seeds below 1000
/// repetitions.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// Run repetitions until `spec.seconds` have passed (at least
/// [`Workload::exact_reps`]), check every output, and aggregate.
pub fn run(spec: &RunSpec, tmp: &Path) -> RunResult {
    cets_linalg::par::set_global_threads(methodology::THREADS);
    let budget = Duration::from_secs_f64(spec.seconds.max(0.0));
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let min_reps = spec.workload.exact_reps(spec.scale, spec.traced);
    while reps.len() < min_reps || start.elapsed() < budget {
        let seed = sub_seed(spec.seed, reps.len());
        let (traced, scale) = (spec.traced, spec.scale);
        let mut rep = match spec.workload {
            Workload::SyntheticJoint => {
                methodology::rep(methodology::Target::SyntheticJoint, seed, traced, scale)
            }
            Workload::TddftCs1 => {
                methodology::rep(methodology::Target::TddftCs1, seed, traced, scale)
            }
            Workload::ServeRecover => serve::rep(tmp, seed, traced, scale),
        };
        rep.peak_rss_mb = sys::peak_rss_mb().unwrap_or(f64::NAN);
        reps.push(rep);
    }
    aggregate(spec, &reps)
}

fn aggregate(spec: &RunSpec, reps: &[Rep]) -> RunResult {
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let gaps: Vec<f64> = reps.iter().flat_map(|r| r.gaps_ms.clone()).collect();
    let min_gaps = spec.scale.min_think_samples();
    if !spec.traced && gaps.len() < min_gaps {
        failures.push(format!(
            "{} think-time samples, fewer than {min_gaps}",
            gaps.len()
        ));
    }

    let n_exact = spec.workload.exact_reps(spec.scale, spec.traced);
    let exact = &reps[..n_exact.min(reps.len())];
    let ops: usize = exact.iter().map(|r| r.attempts + r.failures.len()).sum();
    let bad: usize = exact
        .iter()
        .map(|r| r.failed_attempts + r.failures.len())
        .sum();
    let speedups: Vec<f64> = exact.iter().map(|r| r.speedup).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.evals as f64 / r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();

    // Each metric's value and the number of samples behind it.
    let measure = |name: &str| -> (f64, usize) {
        if spec.traced {
            let v: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            return (if v.is_empty() { 0.0 } else { median(&v) }, v.len());
        }
        match name {
            "wall_s" => (median(&walls), walls.len()),
            "evals_per_s" => (median(&rates), rates.len()),
            "think_ms_p50" => (quantile(&gaps, 0.5), gaps.len()),
            "think_ms_p95" => (quantile(&gaps, 0.95), gaps.len()),
            "speedup_vs_default" => (geomean(&speedups), speedups.len()),
            "success_rate" => (1.0 - bad as f64 / ops.max(1) as f64, ops),
            "setup_s" => (median(&setups), setups.len()),
            // After the first repetition: one tuning session's peak, the
            // footprint a user's process has. Later repetitions only add
            // allocator fragmentation, which grows with the repetition
            // count and so with machine speed.
            "peak_rss_mb" => (reps[0].peak_rss_mb, 1),
            _ => (f64::NAN, 0),
        }
    };
    let (defs, extra) = if spec.traced {
        (PER_LAYER, &[][..])
    } else {
        (END_TO_END, UNBOUNDED)
    };
    let mut reported = Vec::with_capacity(defs.len() + extra.len());
    for d in defs.iter().chain(extra) {
        let (v, n) = measure(d.name);
        if !v.is_finite() {
            failures.push(format!("metric {} is not finite", d.name));
        }
        reported.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {n}}}",
            json_str(d.name),
            json_num(v),
            json_str(d.unit)
        ));
    }
    let metrics = defs
        .iter()
        .map(|d| (d.name, measure(d.name).0, d.unit))
        .collect();

    let attempted: usize = reps.iter().map(|r| r.attempts).sum::<usize>() + failures.len();
    let detail = detail_json(spec, reps, exact.len(), &reported, &failures);
    RunResult {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed: failures.len(),
        metrics,
        detail,
    }
}

fn detail_json(
    spec: &RunSpec,
    reps: &[Rep],
    exact_reps: usize,
    metrics: &[String],
    failures: &[String],
) -> String {
    let p = sys::Provenance::collect();
    let list = |f: &dyn Fn(&Rep) -> String| reps.iter().map(f).collect::<Vec<_>>().join(", ");
    let per_rep_detail = list(&|r: &Rep| {
        let fields: Vec<String> = r
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    });
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"provenance\": {{\"cpu_model\": {}, \"nproc\": {}, \"threads\": {}, \
         \"git_commit\": {}, \"rustc\": {}}}, \
         \"reps\": {}, \"exact_reps\": {}, \"sub_seeds\": [{}], \"metrics\": {{{}}}, \
         \"wall_s\": [{}], \"setup_s\": [{}], \"speedup\": [{}], \"peak_rss_mb\": [{}], \
         \"rep_detail\": [{}], \"failures\": [{}]}}",
        json_str(spec.workload.name()),
        spec.seed,
        spec.seconds,
        u8::from(spec.traced),
        json_str(&p.cpu_model),
        p.nproc,
        methodology::THREADS,
        json_str(&p.git_commit),
        json_str(&p.rustc),
        reps.len(),
        exact_reps,
        (0..reps.len())
            .map(|k| sub_seed(spec.seed, k).to_string())
            .collect::<Vec<_>>()
            .join(", "),
        metrics.join(", "),
        list(&|r: &Rep| json_num(r.wall_s)),
        list(&|r: &Rep| json_num(r.setup_s)),
        list(&|r: &Rep| json_num(r.speedup)),
        list(&|r: &Rep| json_num(r.peak_rss_mb)),
        per_rep_detail,
        failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// The final result line.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A float with every digit (shortest round-trip form); non-finite values,
/// which JSON cannot carry, print as -1 and already fail the run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
