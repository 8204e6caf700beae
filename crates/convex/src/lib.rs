//! # convex — log-barrier interior-point substrate
//!
//! §2.1 of the paper observes that `MinEnergy(Ĝ, D)` under the
//! Continuous model on an arbitrary execution graph "is a geometric
//! programming problem … for which efficient numerical schemes exist",
//! and that the optimal speeds are irrational in general, so one
//! "solves the problem numerically and gets fixed-size numbers which
//! are good approximations of the optimal values". This crate is that
//! numerical scheme, built from scratch (no external solver crates):
//!
//! * [`barrier`] — a log-barrier Newton interior-point method for
//!   convex objectives with **diagonal Hessians** under sparse linear
//!   inequality constraints. The MinEnergy objective
//!   `Σ w_i^α / d_i^{α−1}` is separable in the durations, so the
//!   diagonal-Hessian restriction is exact, and each precedence
//!   constraint has at most three nonzeros;
//! * [`sparse`] — the Newton systems' linear algebra: a sparse
//!   Cholesky factorization over the Hessian's fixed pattern, with a
//!   minimum-degree ordering computed once per solve and a numeric
//!   factorization (with ridge fallback) per Newton step;
//! * [`linalg`] — a dense symmetric positive-definite `Matrix`, kept
//!   as the reference the sparse factorization is tested and
//!   benchmarked against; the solver itself never uses it.
//!
//! The barrier method is the standard one (Boyd & Vandenberghe §11,
//! the reference the paper itself cites): follow the central path,
//! multiplying the barrier weight by `mu` until the duality gap bound
//! `m / t` falls under the caller's tolerance.

pub mod barrier;
pub mod linalg;
pub mod sparse;

pub use barrier::{
    BarrierSolution, BarrierSolver, ConvexError, LinearConstraint, Objective, WarmStart,
};
pub use linalg::Matrix;
pub use sparse::SparseCholesky;
