//! Continuous-model solvers (paper §2.1).
//!
//! * [`solve_chain`] — constant speed `Σw / D` (convexity).
//! * [`solve_fork`] — Theorem 1's closed form, including the
//!   `s_max`-saturated fallback.
//! * [`solve_sp`] / [`solve_tree`] — Theorem 2's polynomial algorithm
//!   via *equivalent weights*: a series composition behaves like a
//!   single task of weight `W_a + W_b`, a parallel composition like
//!   one of weight `(W_a^α + W_b^α)^{1/α}` (cube root of the sum of
//!   cubes for the paper's `α = 3`), because the optimal energy of any
//!   subgraph scales as `W^α / D^{α−1}` in its window `D`.
//! * [`solve_general`] — the geometric program on arbitrary DAGs,
//!   solved by the `convex` crate's log-barrier interior point method.
//!
//! All solvers return **per-task constant speeds** (under the
//! Continuous model one constant speed per task is optimal: the energy
//! of any variable-speed execution of fixed work over a fixed duration
//! is minimized by the mean speed, by convexity of `s^α`).

use crate::error::SolveError;
use convex::{BarrierSolution, BarrierSolver, LinearConstraint, Objective, WarmStart};
use models::PowerLaw;
use taskgraph::analysis::critical_path_weight;
use taskgraph::structure::{self, Shape};
use taskgraph::{PreparedGraph, SpTree, TaskGraph, TaskId};

/// Total energy of running each task at the given constant speed.
pub fn energy_of_speeds(g: &TaskGraph, speeds: &[f64], p: PowerLaw) -> f64 {
    g.tasks()
        .map(|t| p.energy_at_speed(g.weight(t), speeds[t.0]))
        .sum()
}

/// Check deadline feasibility at the fastest admissible speed and
/// produce the canonical error.
pub fn check_feasible(g: &TaskGraph, deadline: f64, s_max: Option<f64>) -> Result<(), SolveError> {
    check_feasible_inner(|| critical_path_weight(g), deadline, s_max)
}

/// [`check_feasible`] with the critical path taken from the prepared
/// cache.
pub fn check_feasible_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    s_max: Option<f64>,
) -> Result<(), SolveError> {
    check_feasible_inner(|| prep.critical_path_weight(), deadline, s_max)
}

fn check_feasible_inner(
    cp: impl FnOnce() -> f64,
    deadline: f64,
    s_max: Option<f64>,
) -> Result<(), SolveError> {
    if let Some(sm) = s_max {
        let min_makespan = cp() / sm;
        if min_makespan > deadline * (1.0 + 1e-12) {
            return Err(SolveError::Infeasible {
                deadline,
                min_makespan,
            });
        }
    }
    if !(deadline.is_finite() && deadline > 0.0) {
        return Err(SolveError::Infeasible {
            deadline,
            min_makespan: f64::INFINITY,
        });
    }
    Ok(())
}

/// Chain: every task at the constant speed `Σ w_i / D`.
///
/// Proof sketch: with `Σ d_i ≤ D`, minimizing `Σ w_i^α/d_i^{α−1}`
/// gives `d_i ∝ w_i` (Lagrange), i.e. a single common speed, which the
/// deadline then fixes to `Σ w_i / D`.
pub fn solve_chain(
    g: &TaskGraph,
    deadline: f64,
    s_max: Option<f64>,
) -> Result<Vec<f64>, SolveError> {
    check_feasible(g, deadline, s_max)?;
    let s = g.total_work() / deadline;
    if let Some(sm) = s_max {
        if s > sm * (1.0 + 1e-12) {
            return Err(SolveError::Infeasible {
                deadline,
                min_makespan: g.total_work() / sm,
            });
        }
    }
    Ok(vec![s; g.n()])
}

/// Theorem 1: fork graph `T_0 → {T_1 … T_n}`.
///
/// Unsaturated case: `s_0 = ((Σ w_i^α)^{1/α} + w_0) / D` and
/// `s_i = s_0 · w_i / (Σ w_i^α)^{1/α}`. If `s_0 > s_max`, run `T_0` at
/// `s_max` and each child at `w_i / D'` with `D' = D − w_0/s_max`;
/// if some child then exceeds `s_max`, there is no solution.
pub fn solve_fork(
    g: &TaskGraph,
    deadline: f64,
    s_max: Option<f64>,
    p: PowerLaw,
) -> Result<Vec<f64>, SolveError> {
    if !structure::is_fork(g) {
        return Err(SolveError::Unsupported(
            "solve_fork requires a fork graph".into(),
        ));
    }
    check_feasible(g, deadline, s_max)?;
    let root = g.sources()[0];
    let w0 = g.weight(root);
    let children: Vec<TaskId> = g.tasks().filter(|&t| t != root).collect();
    let combined = p.parallel_combine(children.iter().map(|&c| g.weight(c)));
    let s0 = (combined + w0) / deadline;
    let mut speeds = vec![0.0; g.n()];
    match s_max {
        Some(sm) if s0 > sm * (1.0 + 1e-12) => {
            // Saturated: the source runs flat out.
            let d_prime = deadline - w0 / sm;
            if d_prime <= 0.0 {
                return Err(SolveError::Infeasible {
                    deadline,
                    min_makespan: critical_path_weight(g) / sm,
                });
            }
            speeds[root.0] = sm;
            for &c in &children {
                let s = g.weight(c) / d_prime;
                if s > sm * (1.0 + 1e-12) {
                    return Err(SolveError::Infeasible {
                        deadline,
                        min_makespan: critical_path_weight(g) / sm,
                    });
                }
                speeds[c.0] = s;
            }
        }
        _ => {
            speeds[root.0] = s0;
            for &c in &children {
                speeds[c.0] = s0 * g.weight(c) / combined;
            }
        }
    }
    Ok(speeds)
}

/// Equivalent weight of an SP decomposition subtree
/// (Theorem 2's folding rule).
pub fn equivalent_weight(tree: &SpTree, g: &TaskGraph, p: PowerLaw) -> f64 {
    match tree {
        SpTree::Leaf(t) => g.weight(*t),
        SpTree::Series(cs) => cs.iter().map(|c| equivalent_weight(c, g, p)).sum(),
        SpTree::Parallel(cs) => p.parallel_combine(cs.iter().map(|c| equivalent_weight(c, g, p))),
    }
}

/// Theorem 2 (series–parallel case, `s_max = +∞`): exact speeds by
/// folding equivalent weights bottom-up, then unfolding the deadline
/// window top-down (series children split the window in proportion to
/// their equivalent weights; parallel children inherit it whole).
pub fn solve_sp(
    g: &TaskGraph,
    tree: &SpTree,
    deadline: f64,
    p: PowerLaw,
) -> Result<Vec<f64>, SolveError> {
    check_feasible(g, deadline, None)?;
    let mut speeds = vec![0.0; g.n()];
    assign_window(tree, g, deadline, p, &mut speeds);
    Ok(speeds)
}

fn assign_window(tree: &SpTree, g: &TaskGraph, window: f64, p: PowerLaw, speeds: &mut [f64]) {
    match tree {
        SpTree::Leaf(t) => speeds[t.0] = g.weight(*t) / window,
        SpTree::Series(cs) => {
            let ws: Vec<f64> = cs.iter().map(|c| equivalent_weight(c, g, p)).collect();
            let total: f64 = ws.iter().sum();
            for (c, w) in cs.iter().zip(&ws) {
                assign_window(c, g, window * w / total, p, speeds);
            }
        }
        SpTree::Parallel(cs) => {
            for c in cs {
                assign_window(c, g, window, p, speeds);
            }
        }
    }
}

/// Theorem 2 (tree case): an out-tree *is* series–parallel under the
/// node semantics (`root` in series with the parallel composition of
/// its child subtrees), so we build the decomposition directly in
/// linear time and reuse [`solve_sp`]. In-trees are handled by edge
/// reversal (time reversal preserves both feasibility and energy).
///
/// `s_max` caveat: the closed form assumes unbounded speeds. When an
/// `s_max` is given and the unconstrained optimum violates it, the
/// caller should fall back to [`solve_general`] (the dispatcher in
/// [`crate::solver`] does).
pub fn tree_decomposition(g: &TaskGraph) -> Option<SpTree> {
    if !structure::is_out_tree(g) {
        return None;
    }
    let root = g.sources()[0];
    Some(tree_sub(g, root))
}

fn tree_sub(g: &TaskGraph, node: TaskId) -> SpTree {
    let children = g.succs(node);
    if children.is_empty() {
        SpTree::Leaf(node)
    } else {
        let subs: Vec<SpTree> = children.iter().map(|&c| tree_sub(g, c)).collect();
        let par = if subs.len() == 1 {
            subs.into_iter().next().unwrap()
        } else {
            SpTree::Parallel(subs)
        };
        SpTree::Series(vec![SpTree::Leaf(node), par])
    }
}

/// Solve an out-tree or in-tree exactly (unbounded speeds).
pub fn solve_tree(g: &TaskGraph, deadline: f64, p: PowerLaw) -> Result<Vec<f64>, SolveError> {
    if let Some(tree) = tree_decomposition(g) {
        return solve_sp(g, &tree, deadline, p);
    }
    let rev = g.reversed();
    if let Some(tree) = tree_decomposition(&rev) {
        // Same durations (hence speeds) are optimal for the reversed
        // instance.
        return solve_sp(&rev, &tree, deadline, p);
    }
    Err(SolveError::Unsupported(
        "solve_tree requires an out- or in-tree".into(),
    ))
}

/// The MinEnergy objective `Σ w_i^α / d_i^{α−1}` over
/// `x = (d_0…d_{n−1}, t_0…t_{n−1})` — separable in `d`, constant in
/// `t`, hence a diagonal Hessian as the barrier solver requires.
pub struct MinEnergyObjective {
    /// `w_i^α`, computed once.
    weights_pow: Vec<f64>,
    alpha: f64,
}

impl MinEnergyObjective {
    /// The objective for task weights `weights` under power law `p`.
    pub fn new(weights: &[f64], p: PowerLaw) -> MinEnergyObjective {
        let alpha = p.alpha();
        MinEnergyObjective {
            weights_pow: weights.iter().map(|w| w.powf(alpha)).collect(),
            alpha,
        }
    }
}

impl Objective for MinEnergyObjective {
    fn value(&self, x: &[f64]) -> f64 {
        let mut e = 0.0;
        for (&wa, &d) in self.weights_pow.iter().zip(x) {
            if d <= 0.0 {
                return f64::INFINITY;
            }
            e += wa / d.powf(self.alpha - 1.0);
        }
        e
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        let a = self.alpha;
        grad.fill(0.0);
        for (i, &wa) in self.weights_pow.iter().enumerate() {
            grad[i] = -(a - 1.0) * wa / x[i].powf(a);
        }
    }
    fn hess_diag(&self, x: &[f64], hess: &mut [f64]) {
        let a = self.alpha;
        hess.fill(0.0);
        for (i, &wa) in self.weights_pow.iter().enumerate() {
            hess[i] = a * (a - 1.0) * wa / x[i].powf(a + 1.0);
        }
    }
}

/// §2.1: the geometric program on an arbitrary execution graph,
/// solved numerically. `precision_k = Some(K)` requests relative
/// precision `1/K` (the Theorem 5 / Proposition 1 numerical scheme);
/// `None` solves to the default tight tolerance (`1e-9`).
///
/// Variables: durations `d` and completion times `t`. Constraints:
/// `t_i + d_j ≤ t_j` per edge, `d_i ≤ t_i` (non-negative start),
/// `t_i ≤ D`, and `d_i ≤ w_i/s_max` when a top speed exists.
pub fn solve_general(
    g: &TaskGraph,
    deadline: f64,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    solve_general_boxed(g, deadline, None, s_max, p, precision_k)
}

/// The geometric program with a **box** on the speeds:
/// `s_min ≤ s_i ≤ s_max` per task.
///
/// The lower bound is what makes the rounding-based approximation
/// algorithms (Theorem 5, Proposition 1) provable: the optimum of the
/// continuous problem restricted to `s ≥ s_1` is still a lower bound
/// on the Discrete/Incremental optimum (whose speeds are all `≥ s_1`),
/// and rounding **that** optimum up to the next mode inflates each
/// speed by at most a factor `1 + gap/s_1`.
pub fn solve_general_boxed(
    g: &TaskGraph,
    deadline: f64,
    s_min: Option<f64>,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    solve_general_prepared(
        &PreparedGraph::new(g),
        deadline,
        s_min,
        s_max,
        p,
        precision_k,
    )
}

/// Cumulative barrier-solve statistics of one warm sweep chain (the
/// evidence trail for "warm-starting shrinks Newton work" — bench X9
/// records these).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BarrierStats {
    /// Barrier solves performed through this chain.
    pub solves: u64,
    /// Total Newton steps across those solves.
    pub newton_steps: u64,
    /// Solves that were seeded from the previous point's primal.
    pub warm_seeded: u64,
}

/// Warm-start state threaded through a deadline sweep of the §2.1
/// geometric program: the previous solve's normalized primal point
/// plus the barrier weight it stopped at.
///
/// The rescaling argument: the barrier solves at deadline exactly 1
/// (time-normalized, see [`solve_general_boxed`]), so a point that was
/// strictly feasible at deadline `D₁` becomes, after multiplying by
/// `D₁/D₂`, strictly feasible at any `D₂ ≥ D₁` — same physical
/// schedule, smaller normalized coordinates. Sweeps that walk
/// deadlines in increasing order therefore re-enter the central path
/// near its end at every point ([`convex::BarrierSolver::minimize_warm`])
/// instead of re-climbing it from `t = 1`; a decreased deadline simply
/// falls back to a cold start.
#[derive(Debug, Default)]
pub struct SweepWarm {
    /// `(normalized primal, effective deadline it was solved at,
    /// final barrier weight)` of the previous solve.
    state: Option<(Vec<f64>, f64, f64)>,
    /// Chain statistics.
    pub stats: BarrierStats,
}

impl SweepWarm {
    /// A fresh (cold) chain.
    pub fn new() -> SweepWarm {
        SweepWarm::default()
    }
}

/// [`solve_general_boxed`] on a prepared graph: critical path,
/// topological order, and transitive reduction come from the shared
/// cache instead of being re-derived per call.
pub fn solve_general_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    s_min: Option<f64>,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    let mut cold = SweepWarm::new();
    solve_general_warm(prep, deadline, s_min, s_max, p, precision_k, &mut cold)
}

/// [`solve_general_prepared`] with a [`SweepWarm`] chain threaded
/// through: the barrier is seeded from the previous sweep point's
/// primal whenever the deadline did not decrease, shrinking Newton
/// iterations measurably (see `BarrierStats`). Results match the cold
/// path up to the solver tolerance.
pub fn solve_general_warm(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    s_min: Option<f64>,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
    warm: &mut SweepWarm,
) -> Result<Vec<f64>, SolveError> {
    check_feasible_prepared(prep, deadline, s_max)?;
    if let (Some(lo), Some(hi)) = (s_min, s_max) {
        if lo >= hi * (1.0 - 1e-5) {
            return Err(SolveError::Unsupported(
                "degenerate speed box (s_min ≈ s_max); assign the single speed directly".into(),
            ));
        }
    }
    // Two numerical safeguards (found by edge-case tests):
    //
    // 1. **Boundary deadlines.** At D = cp/s_max exactly the feasible
    //    set has an empty interior and no barrier method can start.
    //    Solve at D·(1+ε) instead and speed everything up by (1+ε)
    //    afterwards: the result is feasible for D and within a factor
    //    (1+ε)^{α−1} of optimal.
    // 2. **Time normalization.** Solve with deadline 1 (substituting
    //    d → d/D scales the objective by D^{1−α} and the speed box by
    //    D), so the barrier's absolute tolerances are meaningful at
    //    any deadline magnitude.
    let cp = prep.critical_path_weight();
    let t_min_abs = s_max.map_or(0.0, |sm| cp / sm);
    let eps_bump = 1e-7;
    let needs_bump = deadline - t_min_abs < 1e-9 * deadline;
    let eff_deadline = if needs_bump {
        deadline * (1.0 + eps_bump)
    } else {
        deadline
    };
    // A previous sweep point's primal, rescaled into this solve's
    // normalized coordinates — admissible iff the deadline grew.
    let hint = warm.state.as_ref().and_then(|(x, prev_eff, t_final)| {
        if *prev_eff <= eff_deadline * (1.0 + 1e-12) {
            let scale = prev_eff / eff_deadline;
            Some(WarmStart {
                x: x.iter().map(|v| v * scale).collect(),
                t_final: *t_final,
            })
        } else {
            None
        }
    });
    let (scaled, bar) = solve_normalized(
        prep,
        s_min.map(|s| s * eff_deadline),
        s_max.map(|s| s * eff_deadline),
        p,
        precision_k,
        hint.as_ref(),
    )?;
    warm.stats.solves += 1;
    warm.stats.newton_steps += bar.newton_steps as u64;
    warm.stats.warm_seeded += u64::from(hint.is_some());
    warm.state = Some((bar.x, eff_deadline, bar.t_final));
    let mut speeds: Vec<f64> = scaled.iter().map(|s| s / deadline).collect();
    if needs_bump {
        // The (1+ε) speed-up may push critical tasks a hair past
        // s_max; clamping is safe because the all-at-s_max schedule
        // meets this (boundary) deadline.
        if let Some(sm) = s_max {
            for s in &mut speeds {
                *s = s.min(sm);
            }
        }
    }
    Ok(speeds)
}

/// The barrier solve at deadline exactly 1 (see
/// [`solve_general_boxed`] for the scaling). Bounds are already
/// scaled; returned speeds are in normalized units (divide by the real
/// deadline to recover them). The raw [`BarrierSolution`] rides along
/// so sweep callers can chain warm starts and account Newton steps.
fn solve_normalized(
    prep: &PreparedGraph<'_>,
    s_min: Option<f64>,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
    warm: Option<&WarmStart>,
) -> Result<(Vec<f64>, BarrierSolution), SolveError> {
    let g = prep.graph();
    let (cons, x0) = barrier_program(prep, s_min, s_max);
    let solver = match precision_k {
        Some(k) => BarrierSolver::with_precision_k(k),
        None => BarrierSolver::default(),
    };
    let obj = MinEnergyObjective::new(g.weights(), p);
    let bar = solver
        .minimize_warm(&obj, &cons, x0, warm)
        .map_err(|e| SolveError::Numerical(e.to_string()))?;

    let mut speeds = vec![0.0; g.n()];
    for (i, s) in speeds.iter_mut().enumerate() {
        *s = g.weight(TaskId(i)) / bar.x[i];
        if let Some(sm) = s_max {
            // The barrier keeps d strictly inside, so speeds sit
            // strictly below s_max; clamp residual slack for cleanliness.
            *s = s.min(sm);
        }
    }
    Ok((speeds, bar))
}

/// The constraints of the §2.1 program at deadline exactly 1 and a
/// strictly feasible start point for them, over the variables
/// `x = (d_0…d_{n−1}, t_0…t_{n−1})` of [`MinEnergyObjective`]. The
/// speed bounds are in normalized units (already multiplied by the
/// real deadline).
///
/// Constraints: `t_u + d_v ≤ t_v` per edge of the transitive
/// reduction, `d_i ≤ t_i`, `t_i ≤ 1`, `d_i ≥ w_i/s_max` and
/// `d_i ≤ w_i/s_min` when the bounds exist.
pub fn barrier_program(
    prep: &PreparedGraph<'_>,
    s_min: Option<f64>,
    s_max: Option<f64>,
) -> (Vec<LinearConstraint>, Vec<f64>) {
    let g = prep.graph();
    let deadline = 1.0f64;
    let n = g.n();
    let d_var = |i: usize| i;
    let t_var = |i: usize| n + i;

    // Redundant precedence edges add redundant constraints (and barrier
    // terms); the transitive reduction preserves the feasible set.
    let reduced = prep.reduced();
    let mut cons: Vec<LinearConstraint> = Vec::with_capacity(reduced.m() + 2 * n);
    for &(u, v) in reduced.edges() {
        // t_u + d_v − t_v ≤ 0
        cons.push(LinearConstraint::new(
            vec![(t_var(u.0), 1.0), (d_var(v.0), 1.0), (t_var(v.0), -1.0)],
            0.0,
        ));
    }
    for i in 0..n {
        // d_i − t_i ≤ 0  (start time ≥ 0)
        cons.push(LinearConstraint::new(
            vec![(d_var(i), 1.0), (t_var(i), -1.0)],
            0.0,
        ));
        // t_i ≤ D
        cons.push(LinearConstraint::new(vec![(t_var(i), 1.0)], deadline));
        if let Some(sm) = s_max {
            // w_i/s_max − d_i ≤ 0
            cons.push(LinearConstraint::new(
                vec![(d_var(i), -1.0)],
                -(g.weight(TaskId(i)) / sm),
            ));
        }
        if let Some(lo) = s_min {
            // d_i ≤ w_i/s_min  (speed at least s_min)
            cons.push(LinearConstraint::new(
                vec![(d_var(i), 1.0)],
                g.weight(TaskId(i)) / lo,
            ));
        }
    }

    // Strictly feasible start: uniform speed with makespan strictly
    // between the minimum (cp/s_max, or 0) and D, then stretch the
    // completion times into the interior.
    let cp = prep.critical_path_weight();
    let t_min = s_max.map_or(0.0, |sm| cp / sm);
    let target_makespan = 0.5 * (t_min + deadline);
    let mut s0 = cp / target_makespan;
    if let Some(lo) = s_min {
        // Stay strictly above the speed floor; running faster than
        // necessary is always feasible (tasks simply finish early).
        let floor = lo * (1.0 + 1e-6);
        if s0 < floor {
            s0 = floor;
        }
    }
    let s0 = s0;
    let durations: Vec<f64> = g.weights().iter().map(|&w| w / s0).collect();
    let ecl = prep.earliest_completion(&durations);
    let gamma = 0.5 * (deadline - target_makespan) / target_makespan;
    let mut x0 = vec![0.0; 2 * n];
    for i in 0..n {
        x0[d_var(i)] = durations[i];
        x0[t_var(i)] = ecl[i] * (1.0 + gamma);
    }
    (cons, x0)
}

/// Shape-dispatched continuous solve: the cheapest exact algorithm for
/// the detected shape, falling back to the numerical solver for
/// general DAGs or when `s_max` binds on a tree/SP closed form.
pub fn solve(
    g: &TaskGraph,
    deadline: f64,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    solve_dispatched(&PreparedGraph::new(g), deadline, s_max, p, precision_k)
}

/// [`solve`] on a prepared graph: the shape classification, SP
/// decomposition, and (for the numerical fallback) transitive
/// reduction come from the shared cache.
pub fn solve_dispatched(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    s_max: Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    check_feasible_prepared(prep, deadline, s_max)?;
    let g = prep.graph();
    let closed_form: Option<Vec<f64>> = match prep.shape() {
        Shape::Single | Shape::Chain => Some(solve_chain(g, deadline, s_max)?),
        Shape::Fork => Some(solve_fork(g, deadline, s_max, p)?),
        Shape::Join => {
            // Mirror of the fork through time reversal.
            let rev = g.reversed();
            Some(solve_fork(&rev, deadline, s_max, p)?)
        }
        Shape::OutTree | Shape::InTree => Some(solve_tree(g, deadline, p)?),
        Shape::SeriesParallel => {
            let tree = prep.sp_tree().expect("classified as SP");
            Some(solve_sp(g, tree, deadline, p)?)
        }
        Shape::General => None,
    };
    match closed_form {
        Some(speeds) => {
            // Chain/fork handle s_max internally and exactly; the
            // tree/SP closed forms assume unbounded speeds (Theorem 2's
            // caveat) — if the cap binds, defer to the numerical solver.
            let within_cap = s_max.is_none_or(|sm| speeds.iter().all(|&s| s <= sm * (1.0 + 1e-9)));
            if within_cap {
                Ok(speeds)
            } else {
                solve_general_prepared(prep, deadline, None, s_max, p, precision_k)
            }
        }
        None => solve_general_prepared(prep, deadline, None, s_max, p, precision_k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::generators;

    const P: PowerLaw = PowerLaw::CUBIC;

    /// The barrier's Newton systems on treewidth-≤-2 task graphs
    /// factor with linear fill: the minimum-degree ordering keeps
    /// `nnz(L)` within a constant multiple of variables + constraints.
    /// A work count, so it holds on any machine. Task ids are shuffled
    /// first, so the bound cannot come from a lucky natural numbering.
    #[test]
    fn barrier_factor_fill_is_linear_on_chains_and_sp_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut graphs = vec![
            generators::chain(&generators::random_weights(400, 1.0, 5.0, &mut rng)),
            generators::fork_join(1.0, &[2.0; 150], 1.0),
        ];
        for n in [50, 200, 600] {
            for bias in [0.3, 0.55, 0.8] {
                graphs.push(generators::random_sp(n, bias, 1.0, 5.0, &mut rng).0);
            }
        }
        for g in &graphs {
            let mut pi: Vec<usize> = (0..g.n()).collect();
            for i in (1..pi.len()).rev() {
                pi.swap(i, rng.gen_range(0..i + 1));
            }
            let mut weights = vec![0.0; g.n()];
            for (i, &w) in g.weights().iter().enumerate() {
                weights[pi[i]] = w;
            }
            let edges: Vec<_> = g.edges().iter().map(|&(u, v)| (pi[u.0], pi[v.0])).collect();
            let g = TaskGraph::new(weights, &edges).expect("relabelled DAG");
            let prep = PreparedGraph::new(&g);
            for (s_min, s_max) in [(None, None), (Some(0.1), Some(50.0))] {
                let (cons, x0) = barrier_program(&prep, s_min, s_max);
                let chol = convex::SparseCholesky::analyze(x0.len(), &cons);
                // Measured ≤ 1.9 on this family (the parallel-heavy SP
                // graphs are the worst); the dense lower triangle is
                // ~vars²/2.
                let bound = 3 * (x0.len() + cons.len());
                assert!(
                    chol.nnz() <= bound,
                    "n = {}: nnz(L) = {} > {bound}",
                    g.n(),
                    chol.nnz()
                );
            }
        }
    }

    fn rel_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{a} !~ {b}"
        );
    }

    #[test]
    fn chain_constant_speed() {
        let g = generators::chain(&[1.0, 2.0, 3.0]);
        let s = solve_chain(&g, 3.0, None).unwrap();
        assert_eq!(s, vec![2.0, 2.0, 2.0]);
        // Tight s_max.
        assert!(solve_chain(&g, 3.0, Some(1.5)).is_err());
        assert!(solve_chain(&g, 3.0, Some(2.0)).is_ok());
    }

    #[test]
    fn fork_matches_theorem1_formula() {
        // w0 = 1, children {1, 2}: s0 = ((1 + 8)^{1/3} + 1)/D.
        let g = generators::fork(1.0, &[1.0, 2.0]);
        let d = 2.0;
        let s = solve_fork(&g, d, None, P).unwrap();
        let comb = 9.0f64.cbrt();
        let s0 = (comb + 1.0) / d;
        rel_close(s[0], s0, 1e-12);
        rel_close(s[1], s0 * 1.0 / comb, 1e-12);
        rel_close(s[2], s0 * 2.0 / comb, 1e-12);
        // All children complete exactly at D.
        let d0 = 1.0 / s[0];
        rel_close(d0 + 2.0 / s[2], d, 1e-12);
        rel_close(d0 + 1.0 / s[1], d, 1e-12);
    }

    #[test]
    fn fork_saturation_branch() {
        let g = generators::fork(1.0, &[1.0, 2.0]);
        let d = 2.0;
        let comb = 9.0f64.cbrt();
        let s0_unc = (comb + 1.0) / d; // ≈ 1.5400
                                       // Choose s_max below the unconstrained s0 but above the
                                       // critical-path bound cp/D = 3/2 (so the instance stays
                                       // feasible): the saturated branch of Theorem 1.
        let sm = 1.52;
        assert!(sm < s0_unc && sm > 1.5);
        let s = solve_fork(&g, d, Some(sm), P).unwrap();
        assert_eq!(s[0], sm);
        let d_prime = d - 1.0 / sm;
        rel_close(s[1], 1.0 / d_prime, 1e-12);
        rel_close(s[2], 2.0 / d_prime, 1e-12);
        assert!(s[2] <= sm * (1.0 + 1e-9));
        // Saturated energy exceeds the unconstrained optimum.
        let e_unc = energy_of_speeds(&g, &solve_fork(&g, d, None, P).unwrap(), P);
        let e_sat = energy_of_speeds(&g, &s, P);
        assert!(e_sat > e_unc);
        // Infeasibly small cap.
        assert!(solve_fork(&g, d, Some(1.2), P).is_err());
    }

    #[test]
    fn sp_diamond_energy_matches_equivalent_weight() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let tree = SpTree::from_graph(&g).unwrap();
        let w_eq = equivalent_weight(&tree, &g, P);
        // W = 1 + (8+27)^{1/3} + 4.
        rel_close(w_eq, 1.0 + 35.0f64.cbrt() + 4.0, 1e-12);
        let d = 5.0;
        let speeds = solve_sp(&g, &tree, d, P).unwrap();
        let e = energy_of_speeds(&g, &speeds, P);
        rel_close(e, w_eq.powi(3) / (d * d), 1e-12);
        // Feasibility: schedule meets the deadline.
        let durations: Vec<f64> = (0..4).map(|i| g.weights()[i] / speeds[i]).collect();
        let mk = taskgraph::analysis::makespan(&g, &durations);
        assert!(mk <= d * (1.0 + 1e-9));
    }

    #[test]
    fn tree_solver_agrees_with_sp_recognition() {
        let g = taskgraph::TaskGraph::new(
            vec![2.0, 1.0, 3.0, 1.5, 2.5],
            &[(0, 1), (1, 2), (1, 3), (0, 4)],
        )
        .unwrap();
        let d = 6.0;
        let via_tree = solve_tree(&g, d, P).unwrap();
        let tree = SpTree::from_graph(&g).unwrap();
        let via_sp = solve_sp(&g, &tree, d, P).unwrap();
        for (a, b) in via_tree.iter().zip(&via_sp) {
            rel_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn in_tree_via_reversal() {
        let g = generators::join(&[1.0, 2.0], 1.0);
        let d = 2.0;
        let s = solve_tree(&g, d, P).unwrap();
        // Join mirrors the fork: same speeds as the fork instance.
        let f = generators::fork(1.0, &[1.0, 2.0]);
        let sf = solve_fork(&f, d, None, P).unwrap();
        rel_close(s[0], sf[0], 1e-9);
    }

    #[test]
    fn general_solver_matches_fork_closed_form() {
        let g = generators::fork(1.0, &[1.0, 2.0, 3.0]);
        let d = 3.0;
        let exact = solve_fork(&g, d, None, P).unwrap();
        let numer = solve_general(&g, d, None, P, None).unwrap();
        let e_exact = energy_of_speeds(&g, &exact, P);
        let e_numer = energy_of_speeds(&g, &numer, P);
        rel_close(e_exact, e_numer, 1e-5);
    }

    #[test]
    fn general_solver_matches_sp_closed_form() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let tree = SpTree::from_graph(&g).unwrap();
        let d = 4.0;
        let e_exact = energy_of_speeds(&g, &solve_sp(&g, &tree, d, P).unwrap(), P);
        let e_numer = energy_of_speeds(&g, &solve_general(&g, d, None, P, None).unwrap(), P);
        rel_close(e_exact, e_numer, 1e-5);
    }

    #[test]
    fn general_solver_respects_smax() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let d = 4.5;
        let sm = 2.2; // cp = 8 → min makespan 3.64 < 4.5: feasible.
        let s = solve_general(&g, d, Some(sm), P, None).unwrap();
        assert!(s.iter().all(|&v| v <= sm * (1.0 + 1e-6)));
        let durations: Vec<f64> = (0..4).map(|i| g.weights()[i] / s[i]).collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-6));
        // Tighter cap than the critical path allows → infeasible.
        assert!(matches!(
            solve_general(&g, 4.5, Some(1.5), P, None),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn non_sp_graph_solves_numerically() {
        // The "N" graph: 0→2, 0→3, 1→3.
        let g =
            taskgraph::TaskGraph::new(vec![1.0, 2.0, 3.0, 1.0], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        let d = 3.0;
        let s = solve(&g, d, None, P, None).unwrap();
        let durations: Vec<f64> = (0..4).map(|i| g.weights()[i] / s[i]).collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-6));
        // Lower bound: relaxing precedence, each task alone in window D.
        let lb: f64 = g.weights().iter().map(|&w| P.energy_for_work(w, d)).sum();
        assert!(energy_of_speeds(&g, &s, P) >= lb - 1e-9);
    }

    #[test]
    fn dispatch_falls_back_when_smax_binds_on_sp() {
        // Diamond where the SP closed form wants a speed above s_max
        // (equivalent weight W ≈ 8.99 → peak speed W/D ≈ 1.498) but
        // the instance is still feasible (cp/D = 8/6 ≈ 1.333 < s_max).
        let g = generators::diamond([1.0, 5.0, 6.0, 1.0]);
        let d = 6.0;
        let sm = 1.42;
        let unconstrained = {
            let tree = SpTree::from_graph(&g).unwrap();
            solve_sp(&g, &tree, d, P).unwrap()
        };
        assert!(unconstrained.iter().any(|&s| s > sm));
        let s = solve(&g, d, Some(sm), P, None).unwrap();
        assert!(s.iter().all(|&v| v <= sm * (1.0 + 1e-6)));
        let durations: Vec<f64> = (0..4).map(|i| g.weights()[i] / s[i]).collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-6));
    }

    #[test]
    fn redundant_edges_do_not_change_the_optimum() {
        // Diamond plus the redundant shortcut (0, 3): same feasible
        // set, same optimal energy (the solver reduces it away).
        let clean = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let redundant = taskgraph::TaskGraph::new(
            vec![1.0, 2.0, 3.0, 4.0],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)],
        )
        .unwrap();
        let d = 5.0;
        let e1 = energy_of_speeds(&clean, &solve_general(&clean, d, None, P, None).unwrap(), P);
        let e2 = energy_of_speeds(
            &redundant,
            &solve_general(&redundant, d, None, P, None).unwrap(),
            P,
        );
        rel_close(e1, e2, 1e-6);
    }

    #[test]
    fn energy_scales_inverse_square_of_deadline() {
        // E*(D) = E*(1)/D^{α−1}: check on an SP instance (α = 3).
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let tree = SpTree::from_graph(&g).unwrap();
        let e1 = energy_of_speeds(&g, &solve_sp(&g, &tree, 2.0, P).unwrap(), P);
        let e2 = energy_of_speeds(&g, &solve_sp(&g, &tree, 4.0, P).unwrap(), P);
        rel_close(e1 / e2, 4.0, 1e-9);
    }

    #[test]
    fn warm_sweep_matches_cold_and_saves_newton_steps() {
        // The "N" graph (no closed form — every solve hits the
        // barrier). A deadline sweep through one SweepWarm chain must
        // agree with cold solves pointwise and spend fewer Newton
        // steps in total.
        let g =
            taskgraph::TaskGraph::new(vec![1.0, 2.0, 3.0, 1.0], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        let prep = PreparedGraph::new(&g);
        let deadlines: Vec<f64> = (0..6).map(|k| 3.0 + 0.6 * k as f64).collect();
        let mut chain = SweepWarm::new();
        let mut cold_steps = 0u64;
        for &d in &deadlines {
            let warm_speeds =
                solve_general_warm(&prep, d, None, Some(2.5), P, None, &mut chain).unwrap();
            let mut one = SweepWarm::new();
            let cold_speeds =
                solve_general_warm(&prep, d, None, Some(2.5), P, None, &mut one).unwrap();
            cold_steps += one.stats.newton_steps;
            let (ew, ec) = (
                energy_of_speeds(&g, &warm_speeds, P),
                energy_of_speeds(&g, &cold_speeds, P),
            );
            rel_close(ew, ec, 1e-5);
        }
        assert_eq!(chain.stats.solves, deadlines.len() as u64);
        assert_eq!(chain.stats.warm_seeded, deadlines.len() as u64 - 1);
        assert!(
            chain.stats.newton_steps < cold_steps,
            "warm chain {} steps vs cold {cold_steps}",
            chain.stats.newton_steps
        );
    }

    #[test]
    fn warm_sweep_decreasing_deadline_falls_back_cold() {
        let g =
            taskgraph::TaskGraph::new(vec![1.0, 2.0, 3.0, 1.0], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        let prep = PreparedGraph::new(&g);
        let mut chain = SweepWarm::new();
        solve_general_warm(&prep, 6.0, None, None, P, None, &mut chain).unwrap();
        let speeds = solve_general_warm(&prep, 3.0, None, None, P, None, &mut chain).unwrap();
        assert_eq!(chain.stats.warm_seeded, 0, "shrinking deadline is cold");
        let cold = solve_general(&g, 3.0, None, P, None).unwrap();
        rel_close(
            energy_of_speeds(&g, &speeds, P),
            energy_of_speeds(&g, &cold, P),
            1e-5,
        );
    }

    #[test]
    fn infeasible_deadline_rejected() {
        let g = generators::chain(&[1.0]);
        assert!(matches!(
            solve(&g, 0.0, None, P, None),
            Err(SolveError::Infeasible { .. })
        ));
        assert!(matches!(
            solve(&g, f64::NAN, None, P, None),
            Err(SolveError::Infeasible { .. })
        ));
    }
}
