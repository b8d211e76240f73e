//! What one repetition of a workload measures.

use crate::stats::median;
use std::time::Instant;

/// Times a repetition builds its inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 25;

/// Build a repetition's inputs [`SETUP_REPEATS`] times, keeping the last
/// build and the median build time in seconds.
pub fn timed_setup<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<(T, f64), (E, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous build first, so builds that claim a resource
        // (a service directory) do not overlap.
        drop(last.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        match built {
            Ok(v) => last = Some(v),
            Err(e) => return Err((e, median(&times))),
        }
    }
    let value = last.expect("SETUP_REPEATS is positive");
    Ok((value, median(&times)))
}

/// The measurements of one repetition, one sub-seed.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Input construction before the first timed call.
    pub setup_s: f64,
    /// Timed region: analysis start to final configuration, or, for the
    /// service, both incarnations until every campaign drained.
    pub wall_s: f64,
    /// Objective evaluations completed (serve: durable successes).
    pub evals: usize,
    /// Evaluation attempts.
    pub attempts: usize,
    /// Attempts that failed (injected faults the service absorbed).
    pub failed_attempts: usize,
    /// Think-time gaps in milliseconds.
    pub gaps_ms: Vec<f64>,
    /// Default-configuration objective ÷ tuned objective.
    pub speedup: f64,
    /// Output checks that failed and runs that returned `Err`.
    pub failures: Vec<String>,
    /// The process's peak resident set after this repetition, in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs only), by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Free-form per-repetition detail for the report line.
    pub detail: Vec<(String, String)>,
}

impl Rep {
    /// A repetition that failed before producing measurements.
    pub fn failed(setup_s: f64, wall_s: f64, why: String) -> Self {
        Rep {
            setup_s,
            wall_s,
            failures: vec![why],
            ..Default::default()
        }
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}
