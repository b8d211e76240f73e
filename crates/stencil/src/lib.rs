//! # cets-stencil
//!
//! A distributed 3D Jacobi-stencil mini-app **performance simulator** — a
//! second tuning domain, independent of RT-TDDFT, demonstrating the
//! paper's closing claim that the methodology's "adaptability and
//! efficiency extend beyond RT-TDDFT, making it valuable for related
//! applications in HPC".
//!
//! ## The application
//!
//! A 7-point Jacobi sweep over an `n³` grid, 2D-decomposed over
//! `px × py` MPI ranks, running `steps` time steps. Three observable
//! routines:
//!
//! * **Compute** — the blocked, vectorized stencil sweep;
//! * **Halo** — ghost-cell exchange with the four neighbours;
//! * **Reduce** — the global residual norm.
//!
//! ## The tuning problem (11 parameters)
//!
//! | Parameter | Role |
//! |---|---|
//! | `px`, `py` | rank grid (constraint: `px·py ≤ ranks`) |
//! | `tile_x/y/z` | cache blocking of the sweep |
//! | `unroll` | inner-loop unrolling |
//! | `vec_width` | SIMD width |
//! | `halo_depth` | ghost layers per exchange (deep halo trading) |
//! | `aggregate` | message aggregation factor |
//! | `comm_overlap` | overlap protocol aggressiveness |
//! | `reduce_every` | residual-check interval |
//!
//! ## The interdependence
//!
//! `halo_depth` is the classic *deep halo* trade: a depth-`h` exchange
//! happens only every `h` steps (Halo gets cheaper) but the sweep must
//! redundantly update `h−1` ghost shells (Compute gets slower) — one
//! parameter, two routines, exactly the cross-influence the CETS
//! sensitivity analysis is built to catch. Tile sizes also leak into Halo
//! (packing strided faces is slower when the x-tile is small), while
//! `reduce_every` stays orthogonal. The expected plan is therefore a
//! merged `Compute+Halo` search plus an independent `Reduce` search.

use cets_core::{Objective, Observation};
use cets_space::{Config, Constraint, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilProblem {
    /// Grid points per side (`n³` cells total).
    pub n: usize,
    /// Available MPI ranks.
    pub ranks: usize,
    /// Time steps per run.
    pub steps: usize,
}

impl StencilProblem {
    /// The default benchmark instance: 512³ cells, 16 ranks, 100 steps.
    pub fn benchmark() -> Self {
        StencilProblem {
            n: 512,
            ranks: 16,
            steps: 100,
        }
    }
}

/// Machine constants for the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilArch {
    /// Peak per-rank flop rate, flop/s.
    pub flops: f64,
    /// Per-rank memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// L2-equivalent cache per rank, bytes.
    pub cache_bytes: f64,
    /// Network latency, seconds.
    pub net_latency: f64,
    /// Network bandwidth per rank, bytes/s.
    pub net_bw: f64,
    /// Fixed per-exchange synchronization/progress overhead, seconds
    /// (neighbour sync, MPI progression, kernel interruption). This is
    /// what the deep-halo optimization amortizes.
    pub sync_overhead: f64,
}

impl Default for StencilArch {
    fn default() -> Self {
        StencilArch {
            flops: 80.0e9,
            mem_bw: 25.0e9,
            cache_bytes: 2.0 * 1024.0 * 1024.0,
            net_latency: 1.5e-6,
            net_bw: 10.0e9,
            sync_overhead: 150.0e-6,
        }
    }
}

/// The stencil mini-app simulator.
#[derive(Debug, Clone)]
pub struct StencilApp {
    problem: StencilProblem,
    arch: StencilArch,
    space: SearchSpace,
    noise_sigma: f64,
    seed: u64,
}

impl StencilApp {
    /// Build with the benchmark problem and 1% noise.
    pub fn new(problem: StencilProblem) -> Self {
        let space = Self::build_space(&problem);
        StencilApp {
            problem,
            arch: StencilArch::default(),
            space,
            noise_sigma: 0.01,
            seed: 0,
        }
    }

    /// Override noise (0 disables).
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Override the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The problem instance.
    pub fn problem(&self) -> &StencilProblem {
        &self.problem
    }

    /// Parameter→routine ownership for the methodology.
    pub fn owners() -> Vec<(String, String)> {
        [
            ("px", "Decomp"),
            ("py", "Decomp"),
            ("tile_x", "Compute"),
            ("tile_y", "Compute"),
            ("tile_z", "Compute"),
            ("unroll", "Compute"),
            ("vec_width", "Compute"),
            ("halo_depth", "Halo"),
            ("aggregate", "Halo"),
            ("comm_overlap", "Halo"),
            ("reduce_every", "Reduce"),
        ]
        .iter()
        .map(|(p, r)| (p.to_string(), r.to_string()))
        .collect()
    }

    fn build_space(problem: &StencilProblem) -> SearchSpace {
        let ranks = problem.ranks as i64;
        let pow2: Vec<f64> = (2..=8).map(|k| (1usize << k) as f64).collect(); // 4..256
        SearchSpace::builder()
            .integer("px", 1, ranks)
            .integer("py", 1, ranks)
            .ordinal("tile_x", pow2.clone())
            .ordinal("tile_y", pow2.clone())
            .ordinal("tile_z", pow2)
            .ordinal("unroll", vec![1.0, 2.0, 4.0, 8.0])
            .ordinal("vec_width", vec![2.0, 4.0, 8.0])
            .integer("halo_depth", 1, 4)
            .integer("aggregate", 1, 16)
            .integer("comm_overlap", 0, 3)
            .integer("reduce_every", 1, 50)
            .constraint(Constraint::new(
                "rank-grid",
                "px·py <= ranks",
                move |s, c| {
                    s.get_i64(c, "px").unwrap_or(i64::MAX) * s.get_i64(c, "py").unwrap_or(1)
                        <= ranks
                },
            ))
            .build()
    }

    /// Deterministic simulation (no noise), returning
    /// `(compute, halo, reduce, total)` in seconds for the whole run.
    pub fn simulate(&self, cfg: &Config) -> (f64, f64, f64, f64) {
        let sp = &self.space;
        let a = &self.arch;
        // A configuration missing a parameter simulates as a failed (NaN)
        // run, which the searches screen like any other failed evaluation.
        let g = |n: &str| sp.get_f64(cfg, n).unwrap_or(f64::NAN);
        let (px, py) = (g("px").max(1.0), g("py").max(1.0));
        let (tx, ty, tz) = (g("tile_x"), g("tile_y"), g("tile_z"));
        let unroll = g("unroll");
        let vecw = g("vec_width");
        let halo = g("halo_depth").max(1.0);
        let aggregate = g("aggregate").max(1.0);
        let overlap = g("comm_overlap");
        let reduce_every = g("reduce_every").max(1.0);

        let n = self.problem.n as f64;
        let steps = self.problem.steps as f64;
        // Local block (ceil-split drives the critical rank).
        let lx = (n / px).ceil();
        let ly = (n / py).ceil();
        let cells = lx * ly * n;

        // ---- Compute: 8 flops/cell, memory-bound floor, tiling efficiency.
        // A tile of tx·ty·tz cells (3 arrays × 8 B) should fit in cache.
        let tile_bytes = tx * ty * tz * 8.0 * 3.0;
        let fit = (a.cache_bytes / tile_bytes).min(1.0);
        // Cache reuse: full reuse at fit=1 halves traffic; thrashing at
        // fit<1 degrades smoothly.
        let traffic_per_cell = 16.0 * (2.0 - fit); // bytes
                                                   // Vectorization/unroll efficiency: best at vec 8 with unroll 4;
                                                   // tiny x-tiles defeat vectorization (partial vectors).
        let vec_eff = (vecw / 8.0).powf(0.5) * (tx / (tx + vecw)).min(1.0);
        let unroll_eff = 1.0 / (1.0 + 0.1 * ((unroll.log2() - 2.0).abs()));
        let eff = (vec_eff * unroll_eff).clamp(0.05, 1.0);
        // Deep halo: h−1 redundant ghost shells swept each step, on both
        // faces of both decomposed dimensions, including the deepening
        // stencil footprint (≈2x the plain face volume once corner regions
        // and the second array's ghost writes are counted).
        let ghost_cells = 4.0 * (halo - 1.0) * (lx * n + ly * n);
        let sweep_cells = cells + ghost_cells;
        let t_flops = sweep_cells * 8.0 / (a.flops * eff);
        // Poor vectorization also degrades *achieved* memory bandwidth
        // (scalar loads can't saturate the load/store units), so the
        // memory-bound branch sees a milder version of the same penalty.
        let mem_eff = 0.6 + 0.4 * eff;
        let t_mem = sweep_cells * traffic_per_cell / (a.mem_bw * mem_eff);
        let compute_per_step = t_flops.max(t_mem);
        let compute = steps * compute_per_step;

        // ---- Halo: exchange every `halo` steps with 4 neighbours.
        let exchanges = (steps / halo).ceil();
        let face_bytes = (lx * n + ly * n) * halo * 8.0;
        // Packing strided faces costs more when the x-tile is small
        // (gather inefficiency) — the Compute→Halo coupling.
        let pack_penalty = 1.0 + 16.0 / tx;
        let msgs = (4.0 / aggregate).max(1.0).ceil();
        // Overlap protocol hides a fraction of the wire time.
        let hidden = match overlap as u32 {
            0 => 1.0,
            1 => 0.7,
            2 => 0.5,
            _ => 0.45, // aggressive overlap: slightly worse than 2 due to
                       // progression overhead... kept monotone-ish
        };
        let wire = msgs * a.net_latency + face_bytes * 2.0 / a.net_bw * hidden;
        let pack = face_bytes * 2.0 * pack_penalty / a.mem_bw;
        let halo_t = exchanges * (a.sync_overhead + wire + pack);

        // ---- Reduce: allreduce of one scalar every `reduce_every` steps.
        let p = px * py;
        let reductions = (steps / reduce_every).ceil();
        let reduce_t = reductions * (p.log2().ceil().max(1.0) * a.net_latency + 64.0 / a.net_bw)
            + reductions * cells * 8.0 / a.mem_bw * 0.25; // local norm pass

        let total = compute + halo_t + reduce_t;
        (compute, halo_t, reduce_t, total)
    }

    fn noise_factor(&self, cfg: &Config, salt: u64) -> f64 {
        if self.noise_sigma == 0.0 {
            return 1.0;
        }
        let mut h = self.seed ^ salt ^ 0x517c_c1b7_2722_0a95;
        for v in cfg {
            h = h
                .rotate_left(21)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(v.as_f64().to_bits());
        }
        let mut rng = StdRng::seed_from_u64(h);
        (1.0 + cets_core::normal::sample(&mut rng, 0.0, self.noise_sigma)).max(0.5)
    }
}

impl Objective for StencilApp {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn routine_names(&self) -> Vec<String> {
        vec![
            "Compute".into(),
            "Halo".into(),
            "Reduce".into(),
            "Decomp".into(),
        ]
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let (c, h, r, t) = self.simulate(cfg);
        let noisy = |v: f64, s: u64| v * self.noise_factor(cfg, s);
        let total = noisy(t, 3);
        // "Decomp" observable = the whole run (the decomposition is tuned
        // against the total, like the paper's MPI grid).
        Observation {
            total,
            routines: vec![noisy(c, 0), noisy(h, 1), noisy(r, 2), total],
        }
    }

    fn default_config(&self) -> Config {
        self.space
            .config_from_pairs(&[
                ("px", 4.0),
                ("py", 4.0),
                ("tile_x", 16.0),
                ("tile_y", 16.0),
                ("tile_z", 16.0),
                ("unroll", 1.0),
                ("vec_width", 2.0),
                ("halo_depth", 1.0),
                ("aggregate", 1.0),
                ("comm_overlap", 0.0),
                ("reduce_every", 1.0),
            ])
            // Every name exists and every value lies in its domain by
            // construction, so this cannot fail.
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cets_core::{routine_sensitivity, VariationPolicy};

    fn app() -> StencilApp {
        StencilApp::new(StencilProblem::benchmark()).with_noise(0.0)
    }

    #[test]
    fn space_shape() {
        let a = app();
        assert_eq!(a.space().dim(), 11);
        assert_eq!(StencilApp::owners().len(), 11);
        assert!(a.space().is_valid(&a.default_config()));
    }

    #[test]
    fn simulate_finite_positive() {
        let a = app();
        let (c, h, r, t) = a.simulate(&a.default_config());
        assert!(c > 0.0 && h > 0.0 && r > 0.0);
        assert!((t - (c + h + r)).abs() < 1e-12);
    }

    #[test]
    fn rank_grid_constraint() {
        let a = app();
        let sp = a.space();
        let bad = sp
            .with_value(&a.default_config(), "px", cets_space::ParamValue::Int(8))
            .and_then(|c| sp.with_value(&c, "py", cets_space::ParamValue::Int(8)));
        assert!(!sp.is_valid(&bad.unwrap()));
    }

    #[test]
    fn deep_halo_trades_compute_for_comm() {
        let a = app();
        let sp = a.space();
        let shallow = a.default_config(); // halo_depth = 1
        let deep = sp
            .with_value(&shallow, "halo_depth", cets_space::ParamValue::Int(4))
            .unwrap();
        let (c1, h1, _, _) = a.simulate(&shallow);
        let (c4, h4, _, _) = a.simulate(&deep);
        assert!(h4 < h1, "deep halo must cut exchange time: {h4} !< {h1}");
        assert!(
            c4 > c1,
            "deep halo must add redundant compute: {c4} !> {c1}"
        );
    }

    #[test]
    fn small_x_tile_hurts_halo_packing() {
        let a = app();
        let sp = a.space();
        let base = a.default_config();
        let narrow = sp
            .with_value(&base, "tile_x", cets_space::ParamValue::Real(4.0))
            .unwrap();
        let wide = sp
            .with_value(&base, "tile_x", cets_space::ParamValue::Real(256.0))
            .unwrap();
        let (_, h_narrow, _, _) = a.simulate(&narrow);
        let (_, h_wide, _, _) = a.simulate(&wide);
        assert!(h_narrow > h_wide, "{h_narrow} !> {h_wide}");
    }

    #[test]
    fn cache_resident_tiles_beat_thrashing_tiles() {
        let a = app();
        let sp = a.space();
        let base = a.default_config();
        // 16x16x16 tile = 98 KB (fits 2 MB); 256x256x256 = 400 MB (thrash).
        let big = sp
            .with_value(&base, "tile_x", cets_space::ParamValue::Real(256.0))
            .and_then(|c| sp.with_value(&c, "tile_y", cets_space::ParamValue::Real(256.0)))
            .and_then(|c| sp.with_value(&c, "tile_z", cets_space::ParamValue::Real(256.0)))
            .unwrap();
        let (c_fit, ..) = a.simulate(&base);
        let (c_thrash, ..) = a.simulate(&big);
        assert!(
            c_thrash > c_fit,
            "cache thrash should cost compute: {c_thrash} !> {c_fit}"
        );
    }

    #[test]
    fn wider_simd_is_faster() {
        let a = app();
        let sp = a.space();
        let base = a.default_config(); // vec_width = 2
        let wide = sp
            .with_value(&base, "vec_width", cets_space::ParamValue::Real(8.0))
            .unwrap();
        let (c2, ..) = a.simulate(&base);
        let (c8, ..) = a.simulate(&wide);
        assert!(c8 < c2, "{c8} !< {c2}");
    }

    #[test]
    fn reduce_orthogonal_to_compute_params() {
        let a = app();
        let sp = a.space();
        let base = a.default_config();
        let tiled = sp
            .with_value(&base, "tile_y", cets_space::ParamValue::Real(128.0))
            .unwrap();
        let (_, _, r1, _) = a.simulate(&base);
        let (_, _, r2, _) = a.simulate(&tiled);
        assert_eq!(r1, r2);
    }

    /// The methodology's sensitivity pass detects the deep-halo coupling:
    /// halo_depth influences both Compute and Halo above a 10% cut-off,
    /// while reduce_every influences only Reduce.
    #[test]
    fn sensitivity_detects_halo_coupling() {
        let a = app();
        let scores = routine_sensitivity(
            &a,
            &a.default_config(),
            &VariationPolicy::Spread { count: 4 },
        )
        .unwrap();
        let s = |p: &str, r: &str| scores.score_by_name(p, r).unwrap();
        assert!(s("halo_depth", "Halo") > 0.1, "{}", s("halo_depth", "Halo"));
        assert!(
            s("halo_depth", "Compute") > 0.01,
            "halo->compute coupling missed: {}",
            s("halo_depth", "Compute")
        );
        assert!(s("reduce_every", "Reduce") > 0.1);
        assert!(s("reduce_every", "Compute") < 1e-9);
        assert!(s("tile_x", "Halo") > 0.01, "{}", s("tile_x", "Halo"));
    }

    #[test]
    fn noise_deterministic() {
        let a = StencilApp::new(StencilProblem::benchmark()).with_seed(7);
        let cfg = a.default_config();
        assert_eq!(a.evaluate(&cfg), a.evaluate(&cfg));
        let b = StencilApp::new(StencilProblem::benchmark()).with_seed(8);
        assert_ne!(a.evaluate(&cfg), b.evaluate(&cfg));
    }
}
