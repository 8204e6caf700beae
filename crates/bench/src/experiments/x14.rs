//! X14 (extension) — the sparse Newton solve of the §2.1 barrier.
//!
//! The barrier's Newton system has the pattern of the constraint
//! graph: the diagonal plus every pair of variables sharing a
//! constraint, at most three variables per constraint. `convex`
//! factors it with a sparse Cholesky over a minimum-degree ordering
//! computed once per solve.
//!
//! **Arm 1 (scaling curve).** Random DAGs with about two edges per
//! task (`random_dag` at `p = 4/(n−1)`), `n = 50 … 2000`, solved by
//! `continuous::solve_general_warm` at `D = 1.5·cp` (no speed bounds,
//! default tolerance). Per size it records the barrier's wall time and
//! Newton steps, `nnz(L)` of the factor, and the time of the symbolic
//! pass (`SparseCholesky::analyze` on the same program). The symbolic
//! pass must stay a small share of the solve at every size.
//!
//! **Arm 2 (same-run ratio).** One assembled Newton system at
//! `n = 400` (800 variables; the program's start point at barrier
//! weight 1) is solved both by the sparse factorization and by the
//! dense `Matrix::solve_spd`. Pass requires the dense solve to take
//! **≥ 10×** the sparse one and the two solutions to agree within
//! 1e-9 (relative, max-norm).

use super::{Outcome, P};
use convex::{LinearConstraint, Matrix, Objective, SparseCholesky};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::continuous::{self, MinEnergyObjective, SweepWarm};
use report::Table;
use std::time::Instant;
use taskgraph::{generators, PreparedGraph};

/// Scaling-curve sizes, each with its metric names.
macro_rules! curve {
    ($($n:literal),*) => {
        &[$(($n, [
            concat!("n", $n, "_barrier_ms"),
            concat!("n", $n, "_newton"),
            concat!("n", $n, "_nnz_l"),
            concat!("n", $n, "_symbolic_ms"),
        ])),*]
    };
}
const CURVE: &[(usize, [&str; 4])] = curve!(50, 100, 200, 400, 800, 1200, 2000);

/// Task count of the same-run dense/sparse comparison.
const N_RATIO: usize = 400;
/// The headline bar: dense time ≥ this multiple of sparse.
const GATE_RATIO: f64 = 10.0;
/// Agreement bar between the two solutions.
const GATE_AGREE: f64 = 1e-9;
/// The symbolic pass may take at most this share of a solve.
const GATE_SYMBOLIC_SHARE: f64 = 0.1;

/// The benchmark DAG: `n` tasks, about two edges per task.
fn dag(n: usize, seed: u64) -> taskgraph::TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_dag(n, 4.0 / (n - 1) as f64, 1.0, 5.0, &mut rng)
}

/// Median of `reps` timed runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Assemble the barrier Newton system `(H, g)` at `x`, weight `t`,
/// into `chol`'s slots, returning `g`.
fn assemble(
    chol: &mut SparseCholesky,
    obj: &dyn Objective,
    cons: &[LinearConstraint],
    x: &[f64],
    t: f64,
) -> Vec<f64> {
    let n = x.len();
    let mut g = vec![0.0; n];
    let mut h = vec![0.0; n];
    obj.gradient(x, &mut g);
    obj.hess_diag(x, &mut h);
    chol.clear();
    for i in 0..n {
        g[i] *= t;
        chol.add_diag(i, t * h[i]);
    }
    for (k, c) in cons.iter().enumerate() {
        let inv = 1.0 / c.slack(x);
        for &(j, cj) in &c.coeffs {
            g[j] += cj * inv;
        }
        chol.add_outer(k, c, inv * inv);
    }
    g
}

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "n",
        "variables",
        "nnz(L)",
        "dense lower",
        "symbolic(ms)",
        "barrier(ms)",
        "Newton",
    ]);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut max_share = 0.0f64;
    let mut log_points = Vec::new();
    for &(n, names) in CURVE {
        let g = dag(n, 14_000 + n as u64);
        let prep = PreparedGraph::new(&g);
        let d = 1.5 * prep.critical_path_weight();
        let (cons, _) = continuous::barrier_program(&prep, None, None);
        let vars = 2 * n;
        let t0 = Instant::now();
        let chol = SparseCholesky::analyze(vars, &cons);
        let symbolic = t0.elapsed().as_secs_f64();
        let mut warm = SweepWarm::new();
        let t0 = Instant::now();
        continuous::solve_general_warm(&prep, d, None, None, P, None, &mut warm)
            .expect("feasible deadline");
        let barrier = t0.elapsed().as_secs_f64();
        max_share = max_share.max(symbolic / barrier);
        log_points.push(((n as f64).ln(), barrier.ln()));
        table.row(&[
            n.to_string(),
            vars.to_string(),
            chol.nnz().to_string(),
            (vars * (vars + 1) / 2).to_string(),
            format!("{:.2}", symbolic * 1e3),
            format!("{:.1}", barrier * 1e3),
            warm.stats.newton_steps.to_string(),
        ]);
        metrics.push((names[0], barrier * 1e3));
        metrics.push((names[1], warm.stats.newton_steps as f64));
        metrics.push((names[2], chol.nnz() as f64));
        metrics.push((names[3], symbolic * 1e3));
    }
    // Least-squares slope of log(barrier time) over log(n).
    let k = log_points.len() as f64;
    let (sx, sy) = log_points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (mx, my) = (sx / k, sy / k);
    let (sxy, sxx) = log_points.iter().fold((0.0, 0.0), |(a, b), &(x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    let exponent = sxy / sxx;

    // Arm 2: one Newton system, dense vs sparse.
    let g = dag(N_RATIO, 14_400);
    let prep = PreparedGraph::new(&g);
    let (cons, x0) = continuous::barrier_program(&prep, None, None);
    let obj = MinEnergyObjective::new(g.weights(), P);
    let mut chol = SparseCholesky::analyze(x0.len(), &cons);
    let rhs = assemble(&mut chol, &obj, &cons, &x0, 1.0);
    let mut dense = Matrix::zeros(x0.len());
    for (r, c, v) in chol.entries() {
        dense.set(r, c, v);
        dense.set(c, r, v);
    }
    let mut sparse_x = vec![0.0; x0.len()];
    let sparse_s = median_secs(41, || {
        assert!(chol.solve_spd(&rhs, &mut sparse_x), "sparse solve");
    });
    let mut dense_x = Vec::new();
    let dense_s = median_secs(5, || {
        dense_x = dense.clone().solve_spd(&rhs).expect("dense solve");
    });
    let scale = dense_x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = dense_x
        .iter()
        .zip(&sparse_x)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    let rel_diff = diff / scale.max(f64::MIN_POSITIVE);
    let ratio = dense_s / sparse_s;

    table.row(&[
        format!("{N_RATIO} (one system)"),
        x0.len().to_string(),
        chol.nnz().to_string(),
        (x0.len() * (x0.len() + 1) / 2).to_string(),
        format!("sparse {:.3} ms", sparse_s * 1e3),
        format!("dense {:.1} ms", dense_s * 1e3),
        format!("{ratio:.0}×"),
    ]);

    let fast_enough = ratio >= GATE_RATIO;
    let agree = rel_diff <= GATE_AGREE;
    let symbolic_small = max_share <= GATE_SYMBOLIC_SHARE;
    let pass = fast_enough && agree && symbolic_small;
    metrics.extend([
        ("barrier_exponent", exponent),
        ("symbolic_share_max", max_share),
        ("ratio_n", N_RATIO as f64),
        ("ratio_nnz_l", chol.nnz() as f64),
        ("sparse_solve_ms", sparse_s * 1e3),
        ("dense_solve_ms", dense_s * 1e3),
        ("dense_over_sparse", ratio),
        ("solution_rel_diff", rel_diff),
    ]);
    Outcome {
        id: "X14",
        claim: "the sparse Cholesky Newton solve of the §2.1 barrier beats the \
                dense factorization ≥ 10× at n = 400 with the same solution, \
                and its symbolic pass stays a small share of a solve up to n = 2000",
        size: CURVE[CURVE.len() - 1].0,
        metrics,
        table,
        verdict: format!(
            "{}: dense/sparse {ratio:.0}× (want ≥ {GATE_RATIO}×) {}, solutions within \
             {rel_diff:.1e} {}, symbolic ≤ {:.1}% of a solve {}, barrier time ~ n^{exponent:.2}",
            if pass { "PASS" } else { "FAIL" },
            if fast_enough { "✓" } else { "✗" },
            if agree { "✓" } else { "✗" },
            max_share * 100.0,
            if symbolic_small { "✓" } else { "✗" },
        ),
    }
}
