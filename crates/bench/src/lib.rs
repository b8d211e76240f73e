//! # cets-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! CETS paper's evaluation. Each `src/bin/exp_*.rs` binary corresponds to
//! one artifact (see DESIGN.md §4 for the index); this library holds the
//! shared plumbing: canonical experiment configurations, repetition
//! helpers, and table formatting.
//!
//! Run an experiment with
//!
//! ```text
//! cargo run --release -p cets-bench --bin exp_table3_strategies
//! ```
//!
//! Binaries accept `--reps N` (repetitions) and `--quick` (reduced
//! budgets for smoke-testing) where applicable.

use cets_core::{routine_sensitivity, BoConfig, Objective, VariationPolicy};
use cets_tddft::TddftSimulator;

/// Deterministic pseudo-random regression data set on the unit cube: `n`
/// points in `dim` dimensions and a smooth anisotropic test function with
/// a mild pairwise interaction, so GP training has real structure to fit
/// (not pure noise). `perf_suite`'s GP benchmarks train on it, and the
/// fit-quality test pins the likelihood reached on it.
pub fn gp_dataset(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let smooth: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| ((i + 1) as f64 * v).sin() / (i + 1) as f64)
                .sum();
            smooth + 0.5 * x[0] * x[1]
        })
        .collect();
    (xs, ys)
}

/// Parse `--reps N` and `--quick` from argv.
pub struct ExpArgs {
    /// Number of repetitions for averaged experiments.
    pub reps: usize,
    /// Reduced budgets (CI smoke mode).
    pub quick: bool,
}

impl ExpArgs {
    /// Parse from `std::env::args`, with an experiment-specific default
    /// repetition count.
    pub fn parse(default_reps: usize) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut reps = default_reps;
        let mut quick = false;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--reps" => {
                    reps = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(default_reps);
                    i += 1;
                }
                "--quick" => quick = true,
                _ => {}
            }
            i += 1;
        }
        ExpArgs { reps, quick }
    }

    /// Scale a budget down in quick mode.
    pub fn budget(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(5)
        } else {
            full
        }
    }
}

/// The canonical BO configuration used by the paper-reproduction
/// experiments: 5 initial random configurations (paper Section IV-D),
/// expected improvement, periodic hyperparameter retraining.
pub fn paper_bo(seed: u64) -> BoConfig {
    BoConfig {
        n_init: 5,
        n_candidates: 256,
        n_local: 32,
        retrain_every: 5,
        seed,
        ..Default::default()
    }
}

/// Shared driver for the Table V / Table VI experiments: print the
/// per-routine top-10 sensitivity tables for one TDDFT case study plus the
/// paper-shape checks.
pub fn tddft_sensitivity_table(sim: TddftSimulator) {
    println!("{}\n", sim.case().name);
    let baseline = sim.default_config();
    let scores = routine_sensitivity(&sim, &baseline, &VariationPolicy::Spread { count: 5 })
        .expect("sensitivity");
    println!(
        "observation cost: {} application evaluations (1 + 20 params × 5 variations)\n",
        scores.observation_cost()
    );

    let routines = ["G1", "G2", "G3", "Slater"];
    let tables: Vec<_> = routines
        .iter()
        .map(|r| scores.top_k(r, 10).unwrap())
        .collect();

    println!(
        "{:<24} {:<24} {:<24} {:<24}",
        "Group 1", "Group 2", "Group 3", "Slater Deter."
    );
    println!(
        "{:<13}{:>10} {:<13}{:>10} {:<13}{:>10} {:<13}{:>10}",
        "Feature", "Var.", "Feature", "Var.", "Feature", "Var.", "Feature", "Var."
    );
    for i in 0..10 {
        let mut line = String::new();
        for t in &tables {
            let (name, v) = &t.rows[i];
            line.push_str(&format!("{:<13}{:>9.2}% ", name, v * 100.0));
        }
        println!("{line}");
    }

    println!("\nShape checks against the paper:");
    let s = |p: &str, r: &str| scores.score_by_name(p, r).unwrap();
    println!(
        "  nbatches dominates G1/G2/G3:    {:.0}% / {:.0}% / {:.0}%  (paper CS1: 357/321/95)",
        s("nbatches", "G1") * 100.0,
        s("nbatches", "G2") * 100.0,
        s("nbatches", "G3") * 100.0
    );
    println!(
        "  nstb on Slater:                 {:.0}%  (paper CS1: 88%)",
        s("nstb", "Slater") * 100.0
    );
    println!(
        "  tb_sm_pair cross-influences G3: {:.0}%  (paper CS1: 76%)  — the cache effect",
        s("tb_sm_pair", "G3") * 100.0
    );
    println!(
        "  tb_zcopy on G3 vs G1:           {:.0}% vs {:.0}%  (shared kernel, G3 wins)",
        s("tb_zcopy", "G3") * 100.0,
        s("tb_zcopy", "G1") * 100.0
    );
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Render one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Render a unicode sparkline of a series (e.g. an incumbent trace) for
/// terminal output, lowest value = deepest bar.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let span = (hi - lo).max(1e-300);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Print a banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!(m1, 5.0);
        assert_eq!(s1, 0.0);
    }

    #[test]
    fn quick_budget_scales() {
        let a = ExpArgs {
            reps: 5,
            quick: true,
        };
        assert_eq!(a.budget(100), 25);
        assert_eq!(a.budget(8), 5);
        let b = ExpArgs {
            reps: 5,
            quick: false,
        };
        assert_eq!(b.budget(100), 100);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Constant series renders uniformly (no panic on zero span).
        let c = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(c.chars().count(), 3);
    }

    #[test]
    fn row_formats() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
