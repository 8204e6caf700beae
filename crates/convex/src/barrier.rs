//! Log-barrier interior-point method for convex, separable objectives
//! under sparse linear inequality constraints.

use crate::sparse::SparseCholesky;
use std::fmt;

/// A sparse linear inequality `Σ coeffs·x ≤ rhs`.
#[derive(Debug, Clone)]
pub struct LinearConstraint {
    /// `(variable, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

impl LinearConstraint {
    /// Build a constraint.
    pub fn new(coeffs: Vec<(usize, f64)>, rhs: f64) -> LinearConstraint {
        LinearConstraint { coeffs, rhs }
    }

    /// Slack `rhs − Σ coeffs·x` at a point (positive = strictly
    /// feasible).
    pub fn slack(&self, x: &[f64]) -> f64 {
        self.rhs - self.coeffs.iter().map(|&(j, c)| c * x[j]).sum::<f64>()
    }
}

/// A convex objective with a **diagonal** Hessian (separable in the
/// coordinates). Coordinates where the objective has no curvature may
/// report zero — the constraint barrier supplies the missing
/// curvature.
///
/// Implementations must return `f64::INFINITY` outside the objective's
/// domain (e.g. a non-positive duration): the line search treats an
/// infinite value as an inadmissible step.
pub trait Objective {
    /// Objective value at `x` (`INFINITY` outside the domain).
    fn value(&self, x: &[f64]) -> f64;
    /// Gradient at `x` (only called at domain points).
    fn gradient(&self, x: &[f64], grad: &mut [f64]);
    /// Diagonal of the Hessian at `x`.
    fn hess_diag(&self, x: &[f64], hess: &mut [f64]);
}

/// Why the barrier solver gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvexError {
    /// The initial point violates a constraint (or is on its boundary).
    InfeasibleStart { constraint: usize, slack: f64 },
    /// The Newton system could not be solved (NaN/Inf propagation).
    NumericalFailure,
    /// The inner Newton loop failed to make progress.
    Stalled,
}

impl fmt::Display for ConvexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvexError::InfeasibleStart { constraint, slack } => {
                write!(
                    f,
                    "start point violates constraint {constraint} (slack {slack})"
                )
            }
            ConvexError::NumericalFailure => write!(f, "Newton system unsolvable"),
            ConvexError::Stalled => write!(f, "barrier method stalled"),
        }
    }
}

impl std::error::Error for ConvexError {}

/// Result of a successful barrier minimization.
#[derive(Debug, Clone)]
pub struct BarrierSolution {
    /// The (strictly feasible) minimizer approximation.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Final duality-gap bound `m / t`.
    pub gap: f64,
    /// Total Newton steps across all centering problems.
    pub newton_steps: usize,
    /// The barrier weight the solve terminated at. Feed
    /// `t_final / mu` back into [`BarrierSolver::minimize_warm`] (via
    /// [`WarmStart`]) to re-enter the central path near its end on the
    /// next, nearby problem of a sweep.
    pub t_final: f64,
}

/// A warm-start hint for [`BarrierSolver::minimize_warm`]: the
/// previous solve's (rescaled) primal point plus the barrier weight it
/// terminated at. A sweep caller keeps one of these per chain and
/// shrinks Newton work from `O(log(m/tol))` centering rounds to one
/// or two.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// A point expected to be strictly feasible for the *new* problem
    /// (the caller is responsible for any rescaling that makes it so).
    pub x: Vec<f64>,
    /// The barrier weight the previous solve ended at.
    pub t_final: f64,
}

/// The log-barrier solver (Boyd & Vandenberghe §11.3).
#[derive(Debug, Clone)]
pub struct BarrierSolver {
    /// Target duality-gap bound `m / t` (absolute, also scaled by the
    /// objective magnitude).
    pub tol: f64,
    /// Barrier weight multiplier per outer iteration.
    pub mu: f64,
    /// Maximum Newton steps per centering problem.
    pub max_newton: usize,
    /// Line-search backtracking factor.
    pub beta: f64,
    /// Line-search sufficient-decrease factor.
    pub alpha: f64,
}

impl Default for BarrierSolver {
    fn default() -> Self {
        BarrierSolver {
            tol: 1e-9,
            mu: 20.0,
            max_newton: 80,
            beta: 0.5,
            alpha: 0.25,
        }
    }
}

impl BarrierSolver {
    /// A solver targeting relative precision `1/K` on the objective
    /// (used by the Theorem 5 approximation scheme: polynomial in `K`
    /// because the outer loop needs `O(log(m·K))` centering steps).
    pub fn with_precision_k(k: u32) -> BarrierSolver {
        BarrierSolver {
            tol: 1.0 / (k.max(1) as f64),
            ..BarrierSolver::default()
        }
    }

    /// Minimize `obj` subject to `constraints`, starting from the
    /// strictly feasible `x0`.
    pub fn minimize(
        &self,
        obj: &dyn Objective,
        constraints: &[LinearConstraint],
        x0: Vec<f64>,
    ) -> Result<BarrierSolution, ConvexError> {
        let mut chol = SparseCholesky::analyze(x0.len(), constraints);
        self.minimize_from(&mut chol, obj, constraints, x0, 1.0)
    }

    /// [`BarrierSolver::minimize`] seeded from a previous, nearby
    /// solve: start from `warm.x` (if it is strictly feasible for
    /// *these* constraints) at barrier weight `warm.t_final` — the
    /// point sits near the end of the previous problem's central path,
    /// so re-entering *there* usually needs one centering round, while
    /// re-climbing from `t = 1` would first drag the near-optimal
    /// point all the way back to the analytic center. Falls back to
    /// the cold `x0` path when the warm point is inadmissible or the
    /// warm solve fails, so this never errors where [`Self::minimize`]
    /// would succeed. Both attempts share one symbolic analysis of the
    /// Newton system.
    pub fn minimize_warm(
        &self,
        obj: &dyn Objective,
        constraints: &[LinearConstraint],
        x0: Vec<f64>,
        warm: Option<&WarmStart>,
    ) -> Result<BarrierSolution, ConvexError> {
        let mut chol = SparseCholesky::analyze(x0.len(), constraints);
        if let Some(w) = warm {
            let admissible = w.x.len() == x0.len()
                && constraints.iter().all(|c| c.slack(&w.x) > 0.0)
                && obj.value(&w.x).is_finite();
            if admissible {
                let t0 = w.t_final.max(1.0);
                if let Ok(sol) = self.minimize_from(&mut chol, obj, constraints, w.x.clone(), t0) {
                    return Ok(sol);
                }
            }
        }
        self.minimize_from(&mut chol, obj, constraints, x0, 1.0)
    }

    /// The engine behind both entry points: barrier minimization
    /// starting at weight `t0 ≥ 1`, with `chol` analysed for
    /// `constraints`.
    fn minimize_from(
        &self,
        chol: &mut SparseCholesky,
        obj: &dyn Objective,
        constraints: &[LinearConstraint],
        x0: Vec<f64>,
        t0: f64,
    ) -> Result<BarrierSolution, ConvexError> {
        let n = x0.len();
        let m = constraints.len().max(1) as f64;
        let mut slack = vec![0.0; constraints.len()];
        // Verify strict feasibility of the start.
        let mut log_term = log_barrier(constraints, &x0, &mut slack)
            .map_err(|(constraint, slack)| ConvexError::InfeasibleStart { constraint, slack })?;
        let mut fx = obj.value(&x0);
        if !fx.is_finite() {
            return Err(ConvexError::InfeasibleStart {
                constraint: usize::MAX,
                slack: f64::NAN,
            });
        }

        let mut x = x0;
        let mut t = t0.max(1.0);
        let mut newton_steps = 0usize;
        let mut grad = vec![0.0; n];
        let mut hdiag = vec![0.0; n];
        let mut g = vec![0.0; n];
        let mut dx = vec![0.0; n];
        let mut cand = vec![0.0; n];
        let mut cand_slack = vec![0.0; constraints.len()];

        loop {
            // ---- Centering: Newton on  t·f(x) − Σ log(slack_k).
            let mut made_progress = false;
            for _ in 0..self.max_newton {
                // Gradient and Hessian of the barrier-augmented
                // objective, the Hessian straight into L's slots.
                obj.gradient(&x, &mut grad);
                obj.hess_diag(&x, &mut hdiag);
                chol.clear();
                for i in 0..n {
                    g[i] = t * grad[i];
                    chol.add_diag(i, t * hdiag[i]);
                }
                for (k, c) in constraints.iter().enumerate() {
                    let inv = 1.0 / slack[k];
                    for &(j, cj) in &c.coeffs {
                        g[j] += cj * inv;
                    }
                    chol.add_outer(k, c, inv * inv);
                }
                if !chol.solve_spd(&g, &mut dx) {
                    return Err(ConvexError::NumericalFailure);
                }
                // Newton decrement λ² = gᵀ H⁻¹ g = gᵀ dx.
                let lambda2: f64 = g.iter().zip(&dx).map(|(a, b)| a * b).sum();
                if !lambda2.is_finite() {
                    return Err(ConvexError::NumericalFailure);
                }
                if lambda2 / 2.0 <= 1e-12 {
                    break;
                }
                // Backtracking line search on the true barrier value
                // with strict-feasibility checks; one pass over the
                // constraints per trial yields both.
                let f0 = t * fx + log_term;
                let gdx: f64 = lambda2; // directional derivative of −dx is −λ²
                let mut step = 1.0;
                let mut accepted = false;
                for _ in 0..60 {
                    for ((ci, xi), di) in cand.iter_mut().zip(&x).zip(&dx) {
                        *ci = xi - step * di;
                    }
                    if let Ok(lb) = log_barrier(constraints, &cand, &mut cand_slack) {
                        let fc = obj.value(&cand);
                        let fv = t * fc + lb;
                        if fv.is_finite() && fv <= f0 - self.alpha * step * gdx {
                            std::mem::swap(&mut x, &mut cand);
                            std::mem::swap(&mut slack, &mut cand_slack);
                            fx = fc;
                            log_term = lb;
                            accepted = true;
                            break;
                        }
                    }
                    step *= self.beta;
                }
                newton_steps += 1;
                if !accepted {
                    // Cannot decrease further: either converged to
                    // machine precision or stuck.
                    break;
                }
                made_progress = true;
            }
            // ---- Outer loop: shrink the gap bound.
            let gap = m / t;
            let scale = 1.0 + fx.abs();
            if gap <= self.tol * scale {
                return Ok(BarrierSolution {
                    x,
                    value: fx,
                    gap,
                    newton_steps,
                    t_final: t,
                });
            }
            if !made_progress && gap > self.tol * scale * 1e3 {
                return Err(ConvexError::Stalled);
            }
            t *= self.mu;
        }
    }
}

/// The log-barrier term `−Σ ln s_k` at `x`, storing every slack `s_k`
/// into `slack`; `Err((k, s_k))` at the first constraint that is not
/// strictly satisfied (a NaN slack included).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(s > 0)` must also reject NaN slack
fn log_barrier(
    constraints: &[LinearConstraint],
    x: &[f64],
    slack: &mut [f64],
) -> Result<f64, (usize, f64)> {
    let mut v = 0.0;
    for (k, (c, sk)) in constraints.iter().zip(slack.iter_mut()).enumerate() {
        let s = c.slack(x);
        if !(s > 0.0) {
            return Err((k, s));
        }
        *sk = s;
        v -= s.ln();
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = Σ (x_i − c_i)².
    struct Quadratic {
        center: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn value(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                g[i] = 2.0 * (x[i] - self.center[i]);
            }
        }
        fn hess_diag(&self, x: &[f64], h: &mut [f64]) {
            for v in h.iter_mut().take(x.len()) {
                *v = 2.0;
            }
        }
    }

    /// f(d) = Σ w_i³/d_i² — the paper's objective.
    struct EnergyObj {
        w: Vec<f64>,
    }

    impl Objective for EnergyObj {
        fn value(&self, x: &[f64]) -> f64 {
            if x.iter().any(|&d| d <= 0.0) {
                return f64::INFINITY;
            }
            x.iter()
                .zip(&self.w)
                .map(|(&d, &w)| w * w * w / (d * d))
                .sum()
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                let w = self.w[i];
                g[i] = -2.0 * w * w * w / (x[i] * x[i] * x[i]);
            }
        }
        fn hess_diag(&self, x: &[f64], h: &mut [f64]) {
            for i in 0..x.len() {
                let w = self.w[i];
                h[i] = 6.0 * w * w * w / (x[i] * x[i] * x[i] * x[i]);
            }
        }
    }

    #[test]
    fn unconstrained_interior_optimum() {
        // Minimize (x−1)² + (y−2)² with x,y ≤ 10 (inactive): optimum
        // at the center.
        let obj = Quadratic {
            center: vec![1.0, 2.0],
        };
        let cons = vec![
            LinearConstraint::new(vec![(0, 1.0)], 10.0),
            LinearConstraint::new(vec![(1, 1.0)], 10.0),
        ];
        let sol = BarrierSolver::default()
            .minimize(&obj, &cons, vec![5.0, 5.0])
            .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "{:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-4);
        assert!(sol.value < 1e-7);
    }

    #[test]
    fn active_constraint_optimum() {
        // Minimize (x−3)² s.t. x ≤ 2 → x* = 2.
        let obj = Quadratic { center: vec![3.0] };
        let cons = vec![LinearConstraint::new(vec![(0, 1.0)], 2.0)];
        let sol = BarrierSolver::default()
            .minimize(&obj, &cons, vec![0.0])
            .unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-4, "{:?}", sol.x);
        assert!((sol.value - 1.0).abs() < 1e-3);
    }

    #[test]
    fn chain_energy_matches_closed_form() {
        // min w1³/d1² + w2³/d2²  s.t.  d1 + d2 ≤ D.
        // Optimal split d_i ∝ w_i  → energy (w1+w2)³/D².
        let (w1, w2, dl) = (2.0, 3.0, 4.0);
        let obj = EnergyObj { w: vec![w1, w2] };
        let cons = vec![LinearConstraint::new(vec![(0, 1.0), (1, 1.0)], dl)];
        let sol = BarrierSolver::default()
            .minimize(&obj, &cons, vec![dl / 3.0, dl / 3.0])
            .unwrap();
        let expect = (w1 + w2) * (w1 + w2) * (w1 + w2) / (dl * dl);
        assert!(
            (sol.value - expect).abs() < 1e-6 * expect,
            "value {} vs {}",
            sol.value,
            expect
        );
        // d_i proportional to w_i.
        assert!((sol.x[0] / sol.x[1] - w1 / w2).abs() < 1e-4);
    }

    #[test]
    fn infeasible_start_rejected() {
        let obj = Quadratic { center: vec![0.0] };
        let cons = vec![LinearConstraint::new(vec![(0, 1.0)], 1.0)];
        let err = BarrierSolver::default()
            .minimize(&obj, &cons, vec![2.0])
            .unwrap_err();
        assert!(matches!(
            err,
            ConvexError::InfeasibleStart { constraint: 0, .. }
        ));
    }

    #[test]
    fn boundary_start_rejected() {
        let obj = Quadratic { center: vec![0.0] };
        let cons = vec![LinearConstraint::new(vec![(0, 1.0)], 1.0)];
        // Slack exactly zero: not strictly feasible.
        let err = BarrierSolver::default()
            .minimize(&obj, &cons, vec![1.0])
            .unwrap_err();
        assert!(matches!(err, ConvexError::InfeasibleStart { .. }));
    }

    #[test]
    fn warm_start_shrinks_newton_work_and_matches_cold() {
        // A sweep of nearby problems: minimize Σ w³/d² under
        // d1 + d2 ≤ D for growing D. The warm chain must agree with
        // cold solves pointwise and spend measurably fewer Newton
        // steps in total (it re-enters the central path near its end).
        let obj = EnergyObj { w: vec![2.0, 3.0] };
        let solver = BarrierSolver::default();
        let sweep: Vec<f64> = (0..8).map(|k| 4.0 + 0.35 * k as f64).collect();
        let mut cold_steps = 0usize;
        let mut warm_steps = 0usize;
        let mut warm: Option<WarmStart> = None;
        for &dl in &sweep {
            let cons = vec![LinearConstraint::new(vec![(0, 1.0), (1, 1.0)], dl)];
            let x0 = vec![dl / 3.0, dl / 3.0];
            let cold = solver.minimize(&obj, &cons, x0.clone()).unwrap();
            cold_steps += cold.newton_steps;
            let w = solver
                .minimize_warm(&obj, &cons, x0, warm.as_ref())
                .unwrap();
            warm_steps += w.newton_steps;
            let expect = 125.0 / (dl * dl); // (2+3)³/D²
            assert!(
                (w.value - expect).abs() < 1e-6 * expect,
                "warm value {} vs closed form {expect} at D = {dl}",
                w.value
            );
            warm = Some(WarmStart {
                x: w.x.clone(),
                t_final: w.t_final,
            });
        }
        assert!(
            warm_steps < cold_steps,
            "warm chain must save Newton steps: {warm_steps} vs {cold_steps}"
        );
    }

    #[test]
    fn infeasible_warm_hint_falls_back_to_cold() {
        let obj = Quadratic { center: vec![3.0] };
        let cons = vec![LinearConstraint::new(vec![(0, 1.0)], 2.0)];
        // Warm point outside the feasible region: must be ignored.
        let bogus = WarmStart {
            x: vec![5.0],
            t_final: 1e9,
        };
        let sol = solver_default_warm(&obj, &cons, vec![0.0], Some(&bogus));
        assert!((sol.x[0] - 2.0).abs() < 1e-4);
    }

    fn solver_default_warm(
        obj: &dyn Objective,
        cons: &[LinearConstraint],
        x0: Vec<f64>,
        warm: Option<&WarmStart>,
    ) -> BarrierSolution {
        BarrierSolver::default()
            .minimize_warm(obj, cons, x0, warm)
            .unwrap()
    }

    #[test]
    fn precision_k_constructor() {
        let s = BarrierSolver::with_precision_k(100);
        assert!((s.tol - 0.01).abs() < 1e-12);
        let s0 = BarrierSolver::with_precision_k(0);
        assert!((s0.tol - 1.0).abs() < 1e-12);
    }
}
