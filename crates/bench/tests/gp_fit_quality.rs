//! Fit-quality floor for GP hyperparameter training on `perf_suite`'s
//! data sets.
//!
//! `Gp::train` fits hyperparameters with multi-start L-BFGS on the analytic
//! LML gradient. Before that it used multi-start Nelder–Mead capped at 400
//! LML evaluations per restart; the floors below are the log marginal
//! likelihoods that fit reached with `GpConfig::default()` on
//! `cets_bench::gp_dataset(n, 20, 0xC0FFEE ^ n)` (the data `perf_suite`'s
//! `gp_train_n*` entries train on). They were measured at the last commit
//! that trained with Nelder–Mead and are printed to six decimals, so each
//! floor is compared with a 1e-6 allowance for that rounding. The
//! gradient fit must never do worse than the optimizer it replaced.

use cets_gp::{Gp, GpConfig};

/// `(n, LML of the Nelder–Mead fit)`.
const NELDER_MEAD_LML: [(usize, f64); 4] = [
    (16, -22.043642),
    (32, -43.889602),
    (50, -53.725348),
    (200, -181.647386),
];

#[test]
fn gradient_fit_lml_is_no_lower_than_nelder_mead() {
    for (n, floor) in NELDER_MEAD_LML {
        let (x, y) = cets_bench::gp_dataset(n, 20, 0xC0FFEE ^ n as u64);
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        assert!(
            gp.lml() >= floor - 1e-6,
            "n={n}: L-BFGS LML {} is below the Nelder–Mead fit's {floor}",
            gp.lml()
        );
    }
}
