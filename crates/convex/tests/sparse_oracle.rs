//! The sparse Newton factorization against the dense `Matrix` oracle
//! on random SPD and singular PSD systems with random sparsity
//! patterns.

use convex::{LinearConstraint, Matrix, SparseCholesky};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random barrier-shaped system `diag(d) + Σ_k w_k a_k a_kᵀ` with
/// right-hand side `b`. Variables in `zero` get no diagonal and zero
/// coefficients in every constraint that mentions them: they stay in
/// the pattern but their rows are exactly zero, so the unregularized
/// factorization must fail, and their solution components are
/// `b_i / ridge` — the ridge schedule itself is under test.
struct System {
    n: usize,
    zero: Vec<bool>,
    diag: Vec<f64>,
    cons: Vec<LinearConstraint>,
    weights: Vec<f64>,
    b: Vec<f64>,
}

fn random_system(n: usize, seed: u64, singular: bool) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let zero: Vec<bool> = (0..n).map(|_| singular && rng.gen_bool(0.3)).collect();
    let diag: Vec<f64> = (0..n)
        .map(|i| {
            if zero[i] {
                0.0
            } else {
                rng.gen_range(0.1..3.0)
            }
        })
        .collect();
    let m = rng.gen_range(0..2 * n + 1);
    let mut cons = Vec::with_capacity(m);
    for _ in 0..m {
        let r = rng.gen_range(1..5);
        let coeffs = (0..r)
            .map(|_| {
                // Repeats allowed: a variable may appear twice.
                let v = rng.gen_range(0..n);
                let c = if zero[v] {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                };
                (v, c)
            })
            .collect();
        cons.push(LinearConstraint::new(coeffs, 0.0));
    }
    let weights = (0..m).map(|_| rng.gen_range(0.01..100.0)).collect();
    let b = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
    System {
        n,
        zero,
        diag,
        cons,
        weights,
        b,
    }
}

/// Assemble into a fresh symbolic analysis; also return the dense
/// copy of the assembled matrix.
fn assemble(sys: &System) -> (SparseCholesky, Matrix) {
    let mut chol = SparseCholesky::analyze(sys.n, &sys.cons);
    chol.clear();
    for (i, &d) in sys.diag.iter().enumerate() {
        chol.add_diag(i, d);
    }
    for (k, c) in sys.cons.iter().enumerate() {
        chol.add_outer(k, c, sys.weights[k]);
    }
    let mut dense = Matrix::zeros(sys.n);
    for (r, c, v) in chol.entries() {
        dense.set(r, c, v);
        dense.set(c, r, v);
    }
    (chol, dense)
}

/// The dense assembly the barrier used before the sparse factor, as
/// an independent check on the slot map.
fn dense_reference(sys: &System) -> Matrix {
    let mut h = Matrix::zeros(sys.n);
    for (i, &d) in sys.diag.iter().enumerate() {
        h.add(i, i, d);
    }
    for (c, &w) in sys.cons.iter().zip(&sys.weights) {
        for &(j1, c1) in &c.coeffs {
            for &(j2, c2) in &c.coeffs {
                h.add(j1, j2, c1 * c2 * w);
            }
        }
    }
    h
}

fn check(sys: &System) {
    let (mut chol, dense) = assemble(sys);
    let reference = dense_reference(sys);
    for i in 0..sys.n {
        for j in 0..sys.n {
            let (a, r) = (dense.get(i, j), reference.get(i, j));
            prop_assert!(
                (a - r).abs() <= 1e-12 * (1.0 + r.abs()),
                "assembled H[{i}][{j}] = {a}, dense assembly {r}"
            );
        }
    }
    let mut x = vec![0.0; sys.n];
    prop_assert!(chol.solve_spd(&sys.b, &mut x), "sparse solve failed");
    let xd = dense.solve_spd(&sys.b).expect("dense solve");
    // Zero rows componentwise (they carry `1/ridge`), the rest as
    // one block in the max norm.
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
    for i in 0..sys.n {
        if sys.zero[i] {
            prop_assert!(
                (x[i] - xd[i]).abs() <= 1e-9 * xd[i].abs(),
                "zero row {i}: sparse {} vs dense {}",
                x[i],
                xd[i]
            );
        } else {
            diff = diff.max((x[i] - xd[i]).abs());
            scale = scale.max(xd[i].abs());
        }
    }
    prop_assert!(
        diff <= 1e-9 * scale.max(1e-300),
        "sparse {x:?} vs dense {xd:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Positive-definite systems: every variable has diagonal mass.
    #[test]
    fn sparse_matches_dense_on_spd(n in 1usize..40, seed in any::<u64>()) {
        check(&random_system(n, seed, false));
    }

    /// Singular PSD systems: exact zero rows make the unregularized
    /// factorization fail in both implementations, so the ridge
    /// schedule is exercised.
    #[test]
    fn sparse_matches_dense_through_the_ridge(n in 2usize..40, seed in any::<u64>()) {
        let mut sys = random_system(n, seed, true);
        if !sys.zero.iter().any(|&z| z) {
            // Force at least one zero row.
            sys.zero[0] = true;
            sys.diag[0] = 0.0;
            for c in &mut sys.cons {
                for (v, coef) in &mut c.coeffs {
                    if *v == 0 {
                        *coef = 0.0;
                    }
                }
            }
        }
        let (_, mut dense) = assemble(&sys);
        prop_assert!(!dense.cholesky_in_place(), "system was expected to be singular");
        check(&sys);
    }
}
