//! Sparse Cholesky factorization of the barrier's Newton systems.
//!
//! Every Newton step of [`crate::BarrierSolver`] solves `H·dx = g` with
//!
//! ```text
//! H = t·diag(f'') + Σ_k a_k a_kᵀ / s_k²
//! ```
//!
//! where `a_k` is the coefficient vector of constraint `k` and `s_k`
//! its slack. The **pattern** of `H` — the diagonal plus every pair of
//! variables that share a constraint — is fixed by the constraint
//! list, so it is analysed once per solve and only the values change
//! from step to step:
//!
//! * **symbolic pass** ([`SparseCholesky::analyze`]): a minimum-degree
//!   elimination ordering (degree-bucket queue, lowest index first on
//!   ties) run on an explicit elimination graph, which yields the
//!   column structure of `L` as a by-product, plus a map from each
//!   constraint's coefficient pairs to their slots in `L`;
//! * **numeric pass** ([`SparseCholesky::solve_spd`]): a left-looking
//!   column Cholesky over that fixed structure, then the two
//!   triangular solves, with the same escalating-ridge fallback as the
//!   dense [`crate::Matrix::solve_spd`].
//!
//! For the §2.1 program every constraint touches at most three
//! variables and the task graphs of interest have small treewidth, so
//! `nnz(L)` stays within a small multiple of `n + m` and a Newton step
//! costs far less than the `O(n³)` dense factorization.

use crate::barrier::LinearConstraint;
use std::collections::BTreeSet;

/// Marks an empty linked list in the left-looking factorization.
const NONE: usize = usize::MAX;

/// A sparse `L·Lᵀ` factorization over the fixed pattern of a barrier
/// Hessian: symbolic analysis at construction, then any number of
/// assemble → [`solve_spd`](SparseCholesky::solve_spd) rounds that
/// reuse every buffer.
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    /// `perm[k]` is the variable eliminated `k`-th.
    perm: Vec<usize>,
    /// Inverse of `perm`: the elimination position of each variable.
    iperm: Vec<usize>,
    /// Column `k` of `L` (in elimination positions) occupies
    /// `col_ptr[k]..col_ptr[k + 1]`: the diagonal first, then the
    /// strictly lower rows in increasing order.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// Constraint `k`'s slot triples `(slot, i, j)` occupy
    /// `pair_ptr[k]..pair_ptr[k + 1]` of `pairs`: coefficient pair
    /// `(i, j)` adds `c_i·c_j·w` to slot `slot` of `L`. Only the ordered
    /// pairs that land in the lower triangle are listed, so each
    /// off-diagonal product is added once and a repeated variable's
    /// diagonal receives every ordered pair, exactly as a dense
    /// symmetric assembly would.
    pair_ptr: Vec<usize>,
    pairs: Vec<(usize, usize, usize)>,
    /// The assembled matrix, stored in `L`'s slots.
    a: Vec<f64>,
    /// The factor (overwritten by every factorization attempt).
    l: Vec<f64>,
    /// Dense scatter column, zero between columns.
    work: Vec<f64>,
    /// Left-looking bookkeeping: `head[r]` lists the finished columns
    /// whose next unprocessed row is `r`, chained through `link`;
    /// `next[k]` is that row's slot in column `k`.
    head: Vec<usize>,
    link: Vec<usize>,
    next: Vec<usize>,
}

impl SparseCholesky {
    /// Symbolic pass for an `n`-variable system whose pattern is the
    /// diagonal plus every pair of variables sharing one of
    /// `constraints`.
    ///
    /// # Panics
    /// If a constraint references a variable `≥ n`.
    pub fn analyze(n: usize, constraints: &[LinearConstraint]) -> SparseCholesky {
        // Adjacency of the pattern graph, sorted and deduplicated.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in constraints {
            for &(u, _) in &c.coeffs {
                for &(v, _) in &c.coeffs {
                    if u != v {
                        adj[u].push(v);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }

        // Minimum degree on the explicit elimination graph. Eliminating
        // `v` turns its remaining neighbours into a clique; those
        // neighbours are exactly the rows of `L`'s column for `v`.
        let mut buckets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n.max(1)];
        for (v, list) in adj.iter().enumerate() {
            buckets[list.len()].insert(v);
        }
        let mut min_degree = 0;
        let mut perm = Vec::with_capacity(n);
        let mut columns: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut merged = Vec::new();
        for _ in 0..n {
            while buckets[min_degree].is_empty() {
                min_degree += 1;
            }
            let v = buckets[min_degree].pop_first().expect("non-empty bucket");
            let nbrs = std::mem::take(&mut adj[v]);
            for &u in &nbrs {
                let old = adj[u].len();
                merged.clear();
                merge_clique(&adj[u], &nbrs, u, v, &mut merged);
                std::mem::swap(&mut adj[u], &mut merged);
                let new = adj[u].len();
                if new != old {
                    buckets[old].remove(&u);
                    buckets[new].insert(u);
                    min_degree = min_degree.min(new);
                }
            }
            perm.push(v);
            columns.push(nbrs);
        }
        let mut iperm = vec![0; n];
        for (k, &v) in perm.iter().enumerate() {
            iperm[v] = k;
        }

        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for (k, rows) in columns.iter().enumerate() {
            row_idx.push(k);
            let start = row_idx.len();
            row_idx.extend(rows.iter().map(|&u| iperm[u]));
            row_idx[start..].sort_unstable();
            col_ptr.push(row_idx.len());
        }

        let slot = |r: usize, c: usize| -> usize {
            let (lo, hi) = (col_ptr[c], col_ptr[c + 1]);
            let off = row_idx[lo..hi]
                .binary_search(&r)
                .expect("pattern entry present in L");
            lo + off
        };
        let mut pair_ptr = Vec::with_capacity(constraints.len() + 1);
        let mut pairs = Vec::new();
        pair_ptr.push(0);
        for c in constraints {
            for (i, &(u, _)) in c.coeffs.iter().enumerate() {
                for (j, &(v, _)) in c.coeffs.iter().enumerate() {
                    let (r, col) = (iperm[u], iperm[v]);
                    if r >= col {
                        pairs.push((slot(r, col), i, j));
                    }
                }
            }
            pair_ptr.push(pairs.len());
        }

        let nnz = row_idx.len();
        SparseCholesky {
            perm,
            iperm,
            col_ptr,
            row_idx,
            pair_ptr,
            pairs,
            a: vec![0.0; nnz],
            l: vec![0.0; nnz],
            work: vec![0.0; n],
            head: vec![NONE; n],
            link: vec![NONE; n],
            next: vec![0; n],
        }
    }

    /// Number of variables.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// Stored entries of `L`, diagonal included.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The elimination order: `order()[k]` is the variable eliminated
    /// `k`-th.
    pub fn order(&self) -> &[usize] {
        &self.perm
    }

    /// Zero the assembled matrix before a new Newton step.
    pub fn clear(&mut self) {
        self.a.fill(0.0);
    }

    /// `H[i][i] += v`.
    pub fn add_diag(&mut self, i: usize, v: f64) {
        self.a[self.col_ptr[self.iperm[i]]] += v;
    }

    /// `H += w · a_k a_kᵀ` for constraint `k` of the analysed list
    /// (`c` must be that constraint).
    pub fn add_outer(&mut self, k: usize, c: &LinearConstraint, w: f64) {
        for &(slot, i, j) in &self.pairs[self.pair_ptr[k]..self.pair_ptr[k + 1]] {
            self.a[slot] += c.coeffs[i].1 * c.coeffs[j].1 * w;
        }
    }

    /// The assembled matrix as `(row, col, value)` triples in variable
    /// indices, each symmetric pair of entries once (on the side of the
    /// diagonal the elimination order stores). Meant for checking the
    /// factorization against a dense oracle.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n()).flat_map(move |c| {
            (self.col_ptr[c]..self.col_ptr[c + 1])
                .map(move |p| (self.perm[self.row_idx[p]], self.perm[c], self.a[p]))
        })
    }

    /// Solve the assembled SPD system `H·x = b` into `x`, adding an
    /// escalating ridge when the factorization fails — the schedule of
    /// [`crate::Matrix::solve_spd`]: no ridge, then `base·1e-12·10^k`
    /// for `k = 0…6`, then `base`, where `base` is the largest diagonal
    /// magnitude (at least 1). Returns `false` only if even the last
    /// ridge fails, which indicates NaN/Inf input.
    pub fn solve_spd(&mut self, b: &[f64], x: &mut [f64]) -> bool {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let base = (0..n)
            .map(|k| self.a[self.col_ptr[k]].abs())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut ridge = 0.0;
        for attempt in 0..8 {
            if self.factor(ridge) {
                self.substitute(b, x);
                return true;
            }
            ridge = base * 1e-12 * 10f64.powi(attempt);
        }
        if self.factor(base) {
            self.substitute(b, x);
            return true;
        }
        false
    }

    /// Left-looking numeric factorization of `a + ridge·I` into `l`.
    /// Returns `false` on a non-positive (or non-finite) pivot.
    fn factor(&mut self, ridge: f64) -> bool {
        let n = self.n();
        self.l.copy_from_slice(&self.a);
        self.work.fill(0.0);
        self.head.fill(NONE);
        let (col_ptr, row_idx, l, work) =
            (&self.col_ptr, &self.row_idx, &mut self.l, &mut self.work);
        let (head, link, next) = (&mut self.head, &mut self.link, &mut self.next);
        for j in 0..n {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            l[lo] += ridge;
            for p in lo..hi {
                work[row_idx[p]] = l[p];
            }
            // Subtract L[j..,k]·L[j,k] for every finished column k
            // with a nonzero in row j, then requeue k at its next row.
            let mut k = head[j];
            while k != NONE {
                let after = link[k];
                let p = next[k];
                let ljk = l[p];
                let end = col_ptr[k + 1];
                let r0 = row_idx[p];
                if row_idx[end - 1] - r0 == end - 1 - p {
                    // Consecutive rows (the dense trailing block the
                    // ordering leaves for last): a straight slice update.
                    for (w, lq) in work[r0..r0 + end - p].iter_mut().zip(&l[p..end]) {
                        *w -= ljk * lq;
                    }
                } else {
                    for q in p..end {
                        work[row_idx[q]] -= ljk * l[q];
                    }
                }
                if p + 1 < end {
                    next[k] = p + 1;
                    let r = row_idx[p + 1];
                    link[k] = head[r];
                    head[r] = k;
                }
                k = after;
            }
            let d = work[j];
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let d = d.sqrt();
            l[lo] = d;
            work[j] = 0.0;
            for p in lo + 1..hi {
                let r = row_idx[p];
                l[p] = work[r] / d;
                work[r] = 0.0;
            }
            if lo + 1 < hi {
                next[j] = lo + 1;
                let r = row_idx[lo + 1];
                link[j] = head[r];
                head[r] = j;
            }
        }
        true
    }

    /// Forward and backward substitution with the factor in `l`,
    /// permuting `b` in and `x` out (`work` is the scratch vector and
    /// is left zeroed).
    fn substitute(&mut self, b: &[f64], x: &mut [f64]) {
        let n = self.n();
        let y = &mut self.work;
        for (k, &v) in self.perm.iter().enumerate() {
            y[k] = b[v];
        }
        for j in 0..n {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let yj = y[j] / self.l[lo];
            y[j] = yj;
            for p in lo + 1..hi {
                y[self.row_idx[p]] -= self.l[p] * yj;
            }
        }
        for j in (0..n).rev() {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let mut v = y[j];
            for p in lo + 1..hi {
                v -= self.l[p] * y[self.row_idx[p]];
            }
            y[j] = v / self.l[lo];
        }
        for (k, &v) in self.perm.iter().enumerate() {
            x[v] = y[k];
            y[k] = 0.0;
        }
    }
}

/// `(current ∖ {v}) ∪ (clique ∖ {u})` for sorted inputs, into `out`:
/// `u`'s adjacency after eliminating its neighbour `v`, whose
/// remaining neighbours `clique` become pairwise adjacent.
fn merge_clique(current: &[usize], clique: &[usize], u: usize, v: usize, out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    while i < current.len() || j < clique.len() {
        let next = match (current.get(i), clique.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
                a
            }
            (Some(&a), Some(&b)) if a < b => {
                i += 1;
                a
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (_, Some(&b)) => {
                j += 1;
                b
            }
            (None, None) => unreachable!(),
        };
        if next != u && next != v {
            out.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn con(vars: &[usize]) -> LinearConstraint {
        LinearConstraint::new(vars.iter().map(|&v| (v, 1.0)).collect(), 1.0)
    }

    #[test]
    fn merge_clique_unions_and_drops_endpoints() {
        let mut out = Vec::new();
        merge_clique(&[1, 3, 5], &[0, 2, 3, 4], 2, 5, &mut out);
        assert_eq!(out, vec![0, 1, 3, 4]);
    }

    #[test]
    fn chain_pattern_has_no_fill_and_ties_go_to_the_lowest_index() {
        // A path 0–1–2–…: both ends have degree 1 and the lowest index
        // wins each tie, so min degree peels it from 0 upwards and L has
        // one off-diagonal per column but the last.
        let n = 50;
        let cons: Vec<_> = (0..n - 1).map(|i| con(&[i, i + 1])).collect();
        let f = SparseCholesky::analyze(n, &cons);
        assert_eq!(f.nnz(), 2 * n - 1);
        assert_eq!(f.order(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn nan_input_fails_cleanly() {
        let mut f = SparseCholesky::analyze(2, &[con(&[0, 1])]);
        f.clear();
        f.add_diag(0, f64::NAN);
        f.add_diag(1, 1.0);
        let mut x = vec![0.0; 2];
        assert!(!f.solve_spd(&[1.0, 1.0], &mut x));
    }
}
