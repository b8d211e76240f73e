//! The two minimizers behind hyperparameter training: a limited-memory
//! BFGS for smooth objectives with an analytic gradient (the exact GP's log
//! marginal likelihood) and the derivative-free Nelder–Mead simplex (the
//! sparse tier's ELBO).

use std::collections::VecDeque;

/// Options for [`lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsOptions {
    /// Maximum value-plus-gradient evaluations, line-search trials
    /// included.
    pub max_evals: usize,
    /// Stop when every gradient component is below this in magnitude.
    pub g_tol: f64,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            max_evals: 100,
            g_tol: 1e-5,
        }
    }
}

/// Outcome of one [`lbfgs`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct LbfgsResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective at `x` (`+∞` when even the start was not finite).
    pub f: f64,
    /// Value-plus-gradient evaluations actually used.
    pub evals: usize,
}

/// Correction pairs the inverse-Hessian approximation keeps.
const MEMORY: usize = 10;
/// Sufficient-decrease constant of the Armijo backtracking line search.
const ARMIJO: f64 = 1e-4;
/// Step halvings one line search may try before giving up.
const MAX_HALVINGS: usize = 30;

/// Minimize `fg` from `x0` with L-BFGS: the two-loop recursion over the
/// last ten correction pairs gives the search direction, and an Armijo
/// backtracking line search (halving from a unit step) picks the step
/// length.
///
/// `fg(x, grad)` returns the objective at `x` and writes its gradient into
/// `grad`. A trial point whose value or gradient is not finite (e.g. a
/// kernel matrix that fails to factorize) counts as a failed trial and
/// halves the step. The run stops at the evaluation cap, when the gradient
/// falls below its tolerance, or when the line search finds no acceptable
/// step. It consumes no randomness and runs the same arithmetic on every
/// call, so it is deterministic.
pub fn lbfgs(
    mut fg: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    opts: &LbfgsOptions,
) -> LbfgsResult {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut g = vec![0.0; n];
    let mut f = fg(&x, &mut g);
    let mut evals = 1;
    if !f.is_finite() || !all_finite(&g) {
        let f = if f.is_finite() { f } else { f64::INFINITY };
        return LbfgsResult { x, f, evals };
    }
    // (s, y, 1/(sᵀy)) correction pairs, oldest first.
    let mut hist: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(MEMORY);
    let mut x_new = vec![0.0; n];
    let mut g_new = vec![0.0; n];
    while evals < opts.max_evals && max_abs(&g) > opts.g_tol {
        let mut d = direction(&g, &hist);
        let mut slope = dot(&g, &d);
        if !(slope < 0.0 && slope.is_finite()) {
            // Not a descent direction: restart from steepest descent.
            hist.clear();
            d = g.iter().map(|v| -v).collect();
            slope = -dot(&g, &g);
        }
        // Without curvature information the direction carries no scale;
        // cap the first trial at a unit move in log-space.
        let mut t = if hist.is_empty() {
            (1.0 / max_abs(&d)).min(1.0)
        } else {
            1.0
        };
        let mut accepted = None;
        for _ in 0..MAX_HALVINGS {
            if evals >= opts.max_evals {
                break;
            }
            for ((xn, &xi), &di) in x_new.iter_mut().zip(&x).zip(&d) {
                *xn = xi + t * di;
            }
            let f_trial = fg(&x_new, &mut g_new);
            evals += 1;
            if f_trial.is_finite() && all_finite(&g_new) && f_trial <= f + ARMIJO * t * slope {
                accepted = Some(f_trial);
                break;
            }
            t *= 0.5;
        }
        let Some(f_new) = accepted else {
            break;
        };
        let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = g_new.iter().zip(&g).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        // Keep the pair only under positive curvature, so the implied
        // inverse Hessian stays positive definite.
        if sy > f64::EPSILON * dot(&y, &y) {
            if hist.len() == MEMORY {
                hist.pop_front();
            }
            hist.push_back((s, y, 1.0 / sy));
        }
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut g, &mut g_new);
        f = f_new;
    }
    LbfgsResult { x, f, evals }
}

/// The L-BFGS search direction `−H g` by the two-loop recursion, with the
/// initial inverse Hessian scaled by `sᵀy / yᵀy` of the newest pair.
fn direction(g: &[f64], hist: &VecDeque<(Vec<f64>, Vec<f64>, f64)>) -> Vec<f64> {
    let mut q = g.to_vec();
    let mut alpha = vec![0.0; hist.len()];
    for (a, (s, y, rho)) in alpha.iter_mut().zip(hist).rev() {
        *a = rho * dot(s, &q);
        for (qi, &yi) in q.iter_mut().zip(y) {
            *qi -= *a * yi;
        }
    }
    if let Some((s, y, _)) = hist.back() {
        let gamma = dot(s, y) / dot(y, y);
        for qi in &mut q {
            *qi *= gamma;
        }
    }
    for (a, (s, y, rho)) in alpha.iter().zip(hist) {
        let b = rho * dot(y, &q);
        for (qi, &si) in q.iter_mut().zip(s) {
            *qi += (a - b) * si;
        }
    }
    for qi in &mut q {
        *qi = -*qi;
    }
    q
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Options for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Stop when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Initial simplex edge length.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-8,
            initial_step: 0.5,
        }
    }
}

/// Minimize `f` from `x0` with the Nelder–Mead simplex method
/// (standard coefficients: reflection 1, expansion 2, contraction ½,
/// shrink ½). Returns `(argmin, min)`.
///
/// Non-finite objective values are treated as `+∞`, so `f` may freely
/// signal infeasible hyperparameters (e.g. a kernel matrix that fails to
/// factorize) by returning `f64::INFINITY` or NaN.
pub fn nelder_mead(
    f: impl Fn(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n > 0, "nelder_mead: empty start point");
    let safe = |v: f64| if v.is_finite() { v } else { f64::INFINITY };
    let evals = std::cell::Cell::new(0usize);
    let eval = |x: &[f64]| {
        evals.set(evals.get() + 1);
        safe(f(x))
    };

    // Initial simplex: x0 plus one step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        xi[i] += opts.initial_step;
        let fi = eval(&xi);
        simplex.push((xi, fi));
    }

    while evals.get() < opts.max_evals {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() < opts.f_tol && worst.is_finite() {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, &xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }

        let worst_x = simplex[n].0.clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst_x)
            .map(|(&c, &w)| c + (c - w))
            .collect();
        let f_r = eval(&reflect);

        if f_r < simplex[0].1 {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst_x)
                .map(|(&c, &w)| c + 2.0 * (c - w))
                .collect();
            let f_e = eval(&expand);
            simplex[n] = if f_e < f_r {
                (expand, f_e)
            } else {
                (reflect, f_r)
            };
        } else if f_r < simplex[n - 1].1 {
            simplex[n] = (reflect, f_r);
        } else {
            // Contraction (outside if reflection improved on worst, else inside).
            let towards: &[f64] = if f_r < simplex[n].1 {
                &reflect
            } else {
                &worst_x
            };
            let contract: Vec<f64> = centroid
                .iter()
                .zip(towards)
                .map(|(&c, &t)| c + 0.5 * (t - c))
                .collect();
            let f_c = eval(&contract);
            if f_c < simplex[n].1.min(f_r) {
                simplex[n] = (contract, f_c);
            } else {
                // Shrink everything towards the best vertex.
                let best_x = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = best_x
                        .iter()
                        .zip(&entry.0)
                        .map(|(&b, &x)| b + 0.5 * (x - b))
                        .collect();
                    let fs = eval(&shrunk);
                    *entry = (shrunk, fs);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (x, fx) = simplex.swap_remove(0);
    (x, fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = nelder_mead(
            |v| (v[0] - 3.0).powi(2) + (v[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(fx < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let rosen = |v: &[f64]| {
            let (a, b) = (v[0], v[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let opts = NelderMeadOptions {
            max_evals: 4000,
            ..Default::default()
        };
        let (x, _) = nelder_mead(rosen, &[-1.2, 1.0], &opts);
        assert!((x[0] - 1.0).abs() < 0.02, "{x:?}");
        assert!((x[1] - 1.0).abs() < 0.04, "{x:?}");
    }

    #[test]
    fn handles_infinite_regions() {
        // Objective is +inf for x < 0; minimum at x = 1.
        let f = |v: &[f64]| {
            if v[0] < 0.0 {
                f64::INFINITY
            } else {
                (v[0] - 1.0).powi(2)
            }
        };
        let (x, fx) = nelder_mead(f, &[2.0], &NelderMeadOptions::default());
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!(fx.is_finite());
    }

    #[test]
    fn handles_nan_as_infinite() {
        let f = |v: &[f64]| {
            if v[0] > 5.0 {
                f64::NAN
            } else {
                (v[0] - 4.0).powi(2)
            }
        };
        let (x, _) = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!((x[0] - 4.0).abs() < 1e-2);
    }

    #[test]
    fn respects_eval_budget() {
        use std::cell::Cell;
        let count = Cell::new(0usize);
        let f = |v: &[f64]| {
            count.set(count.get() + 1);
            v[0] * v[0]
        };
        let opts = NelderMeadOptions {
            max_evals: 30,
            f_tol: 0.0,
            ..Default::default()
        };
        let _ = nelder_mead(f, &[10.0], &opts);
        // Budget may be exceeded by at most one in-flight iteration's evals.
        assert!(count.get() <= 35, "used {} evals", count.get());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_start_panics() {
        let _ = nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default());
    }

    /// `Σ (x_i − c_i)²·(i + 1)`: an ill-scaled quadratic with minimum `c`.
    fn quadratic(c: &[f64]) -> impl Fn(&[f64], &mut [f64]) -> f64 + '_ {
        move |x, g| {
            let mut f = 0.0;
            for (i, ((&xi, &ci), gi)) in x.iter().zip(c).zip(g.iter_mut()).enumerate() {
                let w = (i + 1) as f64;
                f += w * (xi - ci).powi(2);
                *gi = 2.0 * w * (xi - ci);
            }
            f
        }
    }

    fn rosenbrock(x: &[f64], g: &mut [f64]) -> f64 {
        let (a, b) = (x[0], x[1]);
        g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
        g[1] = 200.0 * (b - a * a);
        (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
    }

    #[test]
    fn lbfgs_minimizes_quadratic() {
        let c = [3.0, -1.0, 0.5, 2.0];
        let r = lbfgs(quadratic(&c), &[0.0; 4], &LbfgsOptions::default());
        for (xi, ci) in r.x.iter().zip(&c) {
            assert!((xi - ci).abs() < 1e-5, "{:?}", r.x);
        }
        assert!(r.f < 1e-9, "f {}", r.f);
        // Quasi-Newton on a 4-dim quadratic converges in a handful of
        // steps, far inside the default cap.
        assert!(r.evals < 30, "used {} evals", r.evals);
    }

    #[test]
    fn lbfgs_minimizes_rosenbrock() {
        let opts = LbfgsOptions {
            max_evals: 500,
            g_tol: 1e-8,
        };
        let r = lbfgs(rosenbrock, &[-1.2, 1.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!(r.evals <= 500);
    }

    #[test]
    fn lbfgs_backs_off_infinite_and_nan_regions() {
        // +∞ for x < 0 and NaN for x > 5; minimum at x = 1 with the start
        // far enough away that unit steps overshoot into both regions.
        let f = |x: &[f64], g: &mut [f64]| {
            if x[0] < 0.0 {
                f64::INFINITY
            } else if x[0] > 5.0 {
                f64::NAN
            } else {
                g[0] = 8.0 * (x[0] - 1.0);
                4.0 * (x[0] - 1.0).powi(2)
            }
        };
        for x0 in [4.9, 0.05] {
            let r = lbfgs(f, &[x0], &LbfgsOptions::default());
            assert!((r.x[0] - 1.0).abs() < 1e-4, "from {x0}: {:?}", r.x);
            assert!(r.f.is_finite());
        }
        // A start inside the infeasible region is reported as +∞, not NaN.
        let r = lbfgs(f, &[7.0], &LbfgsOptions::default());
        assert_eq!(r.f, f64::INFINITY);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn lbfgs_respects_eval_budget() {
        let count = std::cell::Cell::new(0usize);
        let f = |x: &[f64], g: &mut [f64]| {
            count.set(count.get() + 1);
            rosenbrock(x, g)
        };
        let opts = LbfgsOptions {
            max_evals: 7,
            g_tol: 0.0,
        };
        let r = lbfgs(f, &[-1.2, 1.0], &opts);
        assert_eq!(count.get(), 7);
        assert_eq!(r.evals, 7);
        // The budget bounds the line search too: each trial is one eval.
        let r1 = lbfgs(
            rosenbrock,
            &[-1.2, 1.0],
            &LbfgsOptions {
                max_evals: 1,
                ..opts
            },
        );
        assert_eq!(r1.evals, 1);
        assert_eq!(r1.x, vec![-1.2, 1.0]);
    }
}
