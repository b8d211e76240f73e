//! Bit-identity oracle for hyperparameter training: the split objective
//! (value at every line-search trial, gradient only at accepted ones, slopes
//! from the fused kernel fill) must train exactly the model the eager path
//! trains, which evaluates the value and the gradient at every trial and
//! evaluates each profile slope on its own.

use super::*;
use crate::optimize::lbfgs_eager;
use proptest::prelude::*;

/// The eager objective: value and gradient at every call, with the
/// gradient's profile slopes evaluated separately from the kernel fill.
fn neg_lml_grad_eager(restart: &mut LmlRestart, p: &[f64], grad: &mut [f64]) -> f64 {
    let f = restart.value(p);
    if f.is_finite() {
        let o = restart.objective;
        let (kernel, _) = unpack_log_params(o.kind, p, o.opt_noise, o.floor);
        for (s, &r2) in restart.slope.iter_mut().zip(&restart.r2) {
            *s = kernel.profile_slope(r2);
        }
        restart.gradient(p, grad);
    }
    f
}

/// [`Gp::train`] through the eager L-BFGS and the eager objective.
fn train_eager(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<Gp> {
    Gp::train_with(x, y, cfg, |objective, p0| {
        let mut restart = LmlRestart::new(objective);
        lbfgs_eager(
            |p: &[f64], g: &mut [f64]| neg_lml_grad_eager(&mut restart, p, g),
            p0,
            &cfg.lbfgs,
        )
    })
}

fn assert_same_fit(got: &Gp, want: &Gp, what: &str) {
    assert_eq!(got.lml().to_bits(), want.lml().to_bits(), "{what}: lml");
    assert_eq!(
        got.noise().to_bits(),
        want.noise().to_bits(),
        "{what}: noise"
    );
    let params = |gp: &Gp| {
        let k = gp.kernel();
        let mut bits = vec![k.variance().to_bits()];
        bits.extend(k.lengthscales().iter().map(|l| l.to_bits()));
        bits
    };
    assert_eq!(params(got), params(want), "{what}: kernel hyperparameters");
    assert_eq!(got.train_stats(), want.train_stats(), "{what}: train stats");
}

fn kinds() -> impl Strategy<Value = KernelKind> {
    prop_oneof![
        Just(KernelKind::SquaredExp),
        Just(KernelKind::Matern32),
        Just(KernelKind::Matern52),
    ]
}

// Each case is four full trainings in an unoptimized build, so the case
// count stays small; a break in the split would be systematic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn train_is_bit_identical_to_eager_reference(
        seed in 0u64..1_000_000,
        n in 2usize..70,
        d in 1usize..6,
        kind in kinds(),
        one_restart in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        // Odd seeds repeat every third point under a fixed 1e-12 noise, so
        // each kernel matrix is singular up to that noise.
        let repeated = seed % 2 == 1;
        if repeated {
            for i in (1..n).step_by(3) {
                x[i] = x[i - 1].clone();
            }
        }
        let y: Vec<f64> = x
            .iter()
            .map(|v| (4.0 * v[0]).sin() + v.iter().sum::<f64>() + 0.1 * rng.random::<f64>())
            .collect();
        for workers in [1, 2] {
            let cfg = GpConfig {
                kernel: kind,
                seed,
                noise_floor: if repeated { 1e-12 } else { 1e-6 },
                optimize_noise: !repeated,
                n_restarts: if one_restart == 1 { 1 } else { 3 },
                par: ParConfig::fixed(workers),
                ..Default::default()
            };
            let what = format!("seed={seed} n={n} d={d} {kind:?} restarts={} workers={workers}", cfg.n_restarts);
            let got = Gp::train(&x, &y, &cfg).unwrap();
            let want = train_eager(&x, &y, &cfg).unwrap();
            assert_same_fit(&got, &want, &what);
        }
    }
}

#[test]
fn gradient_step_without_a_factor_is_nan() {
    let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
    let tensor = PairTensor::new(&x);
    let objective = LmlObjective {
        tensor: &tensor,
        ys: &[0.5, -0.5, 1.0, -1.0],
        kind: KernelKind::Matern52,
        opt_noise: false,
        floor: 1e-6,
        workers: 1,
    };
    let mut restart = LmlRestart::new(&objective);
    let mut grad = vec![0.0; 2];
    restart.gradient(&[0.0, 0.0], &mut grad);
    assert!(grad.iter().all(|g| g.is_nan()));
    // A value step leaves a factor behind, and the gradient is finite.
    assert!(restart.value(&[0.0, 0.0]).is_finite());
    restart.gradient(&[0.0, 0.0], &mut grad);
    assert!(grad.iter().all(|g| g.is_finite()));
}
