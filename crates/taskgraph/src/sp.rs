//! Series–parallel decomposition.
//!
//! The paper's Theorem 2 gives a polynomial exact algorithm for
//! series–parallel execution graphs (with `s_max = +∞`). We use the
//! *node* series–parallel semantics that matches the energy
//! composition rules:
//!
//! * `Series(G₁, G₂)` — `G₂` starts after `G₁`: an edge from **every
//!   sink of `G₁`** to **every source of `G₂`**.
//! * `Parallel(G₁, G₂)` — disjoint union: both subgraphs share the same
//!   time window.
//!
//! [`SpTree::from_graph`] recognizes exactly the graphs generated by
//! these two rules (plus single-task leaves) and returns the
//! decomposition tree; the `reclaim-core` crate folds energy
//! "equivalent weights" over it.
//!
//! Recognition costs `O((n + m)·depth)`: per tree level, one
//! components pass splits `Parallel`s and one prefix scan of the
//! topological order finds every series cut. Series children follow
//! the topological order, parallel children the smallest task id.

use crate::analysis::topo_order;
use crate::graph::{TaskGraph, TaskId};

/// Decomposition tree of a series–parallel execution graph.
///
/// Leaves carry the [`TaskId`] of the task in the underlying graph, so
/// a solution computed on the tree can be mapped back to per-task
/// speeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpTree {
    /// A single task.
    Leaf(TaskId),
    /// Sequential composition, in order.
    Series(Vec<SpTree>),
    /// Parallel composition (children share the time window).
    Parallel(Vec<SpTree>),
}

impl SpTree {
    /// All task ids in the subtree, in depth-first order.
    pub fn leaves(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<TaskId>) {
        match self {
            SpTree::Leaf(t) => out.push(*t),
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                for c in cs {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// Number of tasks in the subtree.
    pub fn len(&self) -> usize {
        match self {
            SpTree::Leaf(_) => 1,
            SpTree::Series(cs) | SpTree::Parallel(cs) => cs.iter().map(SpTree::len).sum(),
        }
    }

    /// True iff the subtree is a single leaf (never "empty": the
    /// constructors below reject empty child lists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the decomposition tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SpTree::Leaf(_) => 1,
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                1 + cs.iter().map(SpTree::depth).max().unwrap_or(0)
            }
        }
    }

    /// Flatten nested compositions of the same kind, unwrap
    /// single-child compositions, and order every `Parallel`'s children
    /// by smallest task id, producing the canonical tree
    /// [`SpTree::from_graph`] returns.
    pub fn normalized(self) -> SpTree {
        match self {
            SpTree::Leaf(t) => SpTree::Leaf(t),
            SpTree::Series(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.normalized() {
                        SpTree::Series(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().unwrap()
                } else {
                    SpTree::Series(out)
                }
            }
            SpTree::Parallel(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.normalized() {
                        SpTree::Parallel(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                out.sort_by_cached_key(|c| c.leaves().into_iter().min());
                if out.len() == 1 {
                    out.pop().unwrap()
                } else {
                    SpTree::Parallel(out)
                }
            }
        }
    }

    /// Recognize a series–parallel execution graph and return its
    /// decomposition tree, or `None` when the graph is not SP.
    ///
    /// Exactness: a graph built by the `Series` / `Parallel` rules
    /// either is disconnected (top-level parallel) or admits a *series
    /// cut*: a prefix `P` of any topological order such that the edges
    /// crossing the cut are exactly `sinks(P) × sources(S)`. In a valid
    /// series split every task of `P` has a path to every task of `S`,
    /// so all of `P` precedes all of `S` in **every** topological
    /// order; one scan of one fixed order finds every cut. Cost and
    /// child order: see the module docs; the work is counted in
    /// [`crate::profiling::Counts::sp_visits`].
    pub fn from_graph(g: &TaskGraph) -> Option<SpTree> {
        Self::from_graph_ordered(g, &topo_order(g))
    }

    /// [`SpTree::from_graph`] with a caller-supplied topological order
    /// of `g` (e.g. from [`crate::PreparedGraph`]), avoiding the
    /// internal re-derivation.
    pub fn from_graph_ordered(g: &TaskGraph, order: &[TaskId]) -> Option<SpTree> {
        debug_assert!(crate::analysis::is_topo_order(g, order));
        crate::profiling::bump_sp_from_graph();
        recognize(g, order, order)
    }

    /// Locally repair this decomposition after structural edits whose
    /// net edge changes are confined to the `touched` tasks, instead
    /// of re-recognizing the whole graph.
    ///
    /// `self` must be a valid decomposition of the *pre-edit* graph,
    /// `g` the edited graph over the same task set, `order` a valid
    /// topological order of `g`, and `touched` the endpoint set of
    /// every inserted/removed edge. The repair (1) walks down to the
    /// deepest composite whose **minimal child range** spans all
    /// touched tasks (a contiguous run of series children, or the hit
    /// subset of parallel children — so a long series chain rebuilds
    /// one segment, not the whole spine), (2) re-decomposes only that
    /// region's induced subgraph, and (3) re-verifies the
    /// series/parallel composition of the result against `g` — a
    /// linear pass over the junctions (only those along the path to
    /// the root can have changed), not a recognition scan.
    ///
    /// Returns the repaired tree, or `None` when the spliced region is
    /// not series–parallel or its interface no longer composes — the
    /// caller must then fall back to full recognition
    /// ([`SpTree::from_graph`]). Success/failure is accounted in
    /// [`crate::profiling`] (`sp_splice` / `sp_splice_miss`), and the
    /// region size in `cone_nodes`; no `sp_from_graph` pass runs
    /// either way.
    pub fn splice(&self, g: &TaskGraph, order: &[TaskId], touched: &[TaskId]) -> Option<SpTree> {
        debug_assert!(crate::analysis::is_topo_order(g, order));
        match self.splice_inner(g, order, touched) {
            Some(t) => {
                crate::profiling::bump_sp_splice();
                Some(t)
            }
            None => {
                crate::profiling::bump_sp_splice_miss();
                None
            }
        }
    }

    fn splice_inner(&self, g: &TaskGraph, order: &[TaskId], touched: &[TaskId]) -> Option<SpTree> {
        if self.len() != g.n() {
            return None; // stale tree: not this graph's task set
        }
        if touched.is_empty() {
            return Some(self.clone());
        }
        // 1. Descend to the deepest composite containing every touched
        //    task: at each composite, follow the unique child whose
        //    leaf set covers them all, stop when none does.
        let mut path: Vec<usize> = Vec::new();
        let mut node = self;
        'descend: loop {
            let cs = match node {
                SpTree::Leaf(_) => break,
                SpTree::Series(cs) | SpTree::Parallel(cs) => cs,
            };
            for (i, c) in cs.iter().enumerate() {
                let lset: std::collections::HashSet<TaskId> = c.leaves().into_iter().collect();
                if touched.iter().all(|t| lset.contains(t)) {
                    path.push(i);
                    node = c;
                    continue 'descend;
                }
            }
            break;
        }
        // 2. Rebuild the minimal child *range* spanning the touched
        //    tasks — a contiguous run of series children / the hit
        //    subset of parallel children — so a long series chain
        //    re-decomposes one segment, not its whole spine. The
        //    re-decomposition is quiet: it never counts as a
        //    recognition pass.
        let grafted = match node {
            SpTree::Leaf(_) => {
                crate::profiling::add_cone_nodes(1);
                self.clone() // a one-task region re-decomposes to itself
            }
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                let tset: std::collections::HashSet<TaskId> = touched.iter().copied().collect();
                let hit: Vec<bool> = cs
                    .iter()
                    .map(|c| c.leaves().iter().any(|t| tset.contains(t)))
                    .collect();
                let lo = hit.iter().position(|&h| h).expect("touched spans children");
                let hi = hit.iter().rposition(|&h| h).unwrap();
                let series = matches!(node, SpTree::Series(_));
                let picked = |i: usize| {
                    if series {
                        (lo..=hi).contains(&i)
                    } else {
                        hit[i]
                    }
                };
                let verts: Vec<TaskId> = cs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| picked(i))
                    .flat_map(|(_, c)| c.leaves())
                    .collect();
                crate::profiling::add_cone_nodes(verts.len() as u64);
                let sub = recognize(g, order, &verts)?;
                let mut out: Vec<SpTree> = Vec::with_capacity(cs.len());
                for (i, c) in cs.iter().enumerate() {
                    if i == lo {
                        out.push(sub.clone());
                    }
                    if !picked(i) {
                        out.push(c.clone());
                    }
                }
                let rebuilt = if series {
                    SpTree::Series(out)
                } else {
                    SpTree::Parallel(out)
                };
                self.with_replaced(&path, rebuilt)
            }
        };
        // 3. Re-canonicalize (the graft may nest, wrap or misorder
        //    children) and re-verify the composition junctions against
        //    the edited edge set.
        let candidate = grafted.normalized();
        candidate.validates(g).then_some(candidate)
    }

    /// Clone of `self` with the node at `path` (child indices from the
    /// root) replaced by `sub`.
    fn with_replaced(&self, path: &[usize], sub: SpTree) -> SpTree {
        let Some((&i, rest)) = path.split_first() else {
            return sub;
        };
        match self {
            SpTree::Leaf(_) => unreachable!("path descends into a leaf"),
            SpTree::Series(cs) => {
                let mut out = cs.clone();
                out[i] = cs[i].with_replaced(rest, sub);
                SpTree::Series(out)
            }
            SpTree::Parallel(cs) => {
                let mut out = cs.clone();
                out[i] = cs[i].with_replaced(rest, sub);
                SpTree::Parallel(out)
            }
        }
    }

    /// Whether `self` is a valid series–parallel decomposition of `g`:
    /// every series junction is the complete bipartite `sinks × sources`
    /// of its neighbours, and those junction edges are *exactly* the
    /// graph's edge set. `O(n + m)` in hash lookups — verification is
    /// linear even though recognition is not.
    fn validates(&self, g: &TaskGraph) -> bool {
        if self.len() != g.n() {
            return false;
        }
        let eset: std::collections::HashSet<(usize, usize)> =
            g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        let mut required = 0usize;
        self.verify_junctions(&eset, &mut required).is_some() && required == g.m()
    }

    /// Recursive junction check: returns the subtree's (sources,
    /// sinks) on success, `None` on the first junction violation.
    fn verify_junctions(
        &self,
        eset: &std::collections::HashSet<(usize, usize)>,
        required: &mut usize,
    ) -> Option<(Vec<TaskId>, Vec<TaskId>)> {
        match self {
            SpTree::Leaf(t) => Some((vec![*t], vec![*t])),
            SpTree::Series(cs) => {
                let mut first_sources: Option<Vec<TaskId>> = None;
                let mut prev_sinks: Option<Vec<TaskId>> = None;
                for c in cs {
                    let (src, snk) = c.verify_junctions(eset, required)?;
                    if let Some(ps) = &prev_sinks {
                        for &u in ps {
                            for &v in &src {
                                if !eset.contains(&(u.0, v.0)) {
                                    return None;
                                }
                            }
                        }
                        *required += ps.len() * src.len();
                    }
                    if first_sources.is_none() {
                        first_sources = Some(src);
                    }
                    prev_sinks = Some(snk);
                }
                Some((first_sources?, prev_sinks?))
            }
            SpTree::Parallel(cs) => {
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for c in cs {
                    let (src, snk) = c.verify_junctions(eset, required)?;
                    sources.extend(src);
                    sinks.extend(snk);
                }
                Some((sources, sinks))
            }
        }
    }
}

/// Recognize the subgraph of `g` induced by `verts`, for
/// [`SpTree::from_graph_ordered`] and [`SpTree::splice`] alike. `order`
/// (topological for `g`) restricted to any subset orders its subgraph.
fn recognize(g: &TaskGraph, order: &[TaskId], verts: &[TaskId]) -> Option<SpTree> {
    let mut at = vec![Counters::default(); g.n()];
    for v in verts {
        at[v.0].stamp = 1;
    }
    let in_set = |v: &&TaskId| at[v.0].stamp == 1;
    let set = order.iter().filter(in_set).copied().collect();
    Recognizer { g, at, last: 1 }.parallel(set)
}

/// Per-task state of one recognition. A vertex set is the tasks with
/// its stamp, and each new set takes a fresh one: nothing is cleared.
#[derive(Clone, Default)]
struct Counters {
    stamp: u32,
    /// Degrees inside the task's current component.
    indeg: usize,
    outdeg: usize,
    /// Neighbours in the series scan's prefix `P`: predecessors while
    /// the task is in the suffix `S`, successors once it is in `P`.
    in_p: usize,
}

struct Recognizer<'g> {
    g: &'g TaskGraph,
    at: Vec<Counters>,
    /// The last stamp handed out.
    last: u32,
}

impl Recognizer<'_> {
    /// Split `set` (topological order, one stamp) into its weakly
    /// connected components, counting degrees inside each: a `Parallel`
    /// of several, by smallest task id, or the series scan of one.
    fn parallel(&mut self, set: Vec<TaskId>) -> Option<SpTree> {
        let s = match set[..] {
            [] => return None,
            [t] => return Some(SpTree::Leaf(t)),
            _ => self.at[set[0].0].stamp,
        };
        let first = self.last + 1;
        for &root in &set {
            if self.at[root.0].stamp != s {
                continue;
            }
            self.last += 1;
            let c = self.last;
            self.at[root.0].stamp = c;
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                let (succs, preds) = (self.g.succs(u), self.g.preds(u));
                crate::profiling::add_sp_visits((succs.len() + preds.len()) as u64);
                let mut deg = [0; 2]; // [out, in]
                for (i, &w) in succs.iter().chain(preds).enumerate() {
                    if self.at[w.0].stamp == s {
                        self.at[w.0].stamp = c;
                        stack.push(w);
                    }
                    deg[usize::from(i >= succs.len())] += usize::from(self.at[w.0].stamp == c);
                }
                let at = &mut self.at[u.0];
                ([at.outdeg, at.indeg], at.in_p) = (deg, 0);
            }
        }
        if self.last == first {
            return self.series(set);
        }
        let mut comps = vec![Vec::new(); (self.last + 1 - first) as usize];
        for v in set {
            comps[(self.at[v.0].stamp - first) as usize].push(v);
        }
        comps.sort_by_key(|c: &Vec<TaskId>| c.iter().min().copied());
        let children = comps.into_iter().map(|c| match c[..] {
            [t] => Some(SpTree::Leaf(t)),
            _ => self.series(c),
        });
        children.collect::<Option<_>>().map(SpTree::Parallel)
    }

    /// Cut the connected `comp` (topological order, one stamp, ≥ 2
    /// tasks) at every series cut in one scan moving tasks from the
    /// suffix `S` to the prefix `P`; each segment is a leaf or `Parallel`.
    fn series(&mut self, comp: Vec<TaskId>) -> Option<SpTree> {
        let (g, c) = (self.g, self.at[comp[0].0].stamp);
        let mut sources = comp.iter().filter(|v| self.at[v.0].indeg == 0).count();
        // `k` is a cut iff all `cross` crossing edges run from a sink of
        // `P` to a source of `S` — none has a tail with a successor in
        // `P` (`bad_tail`) or a head with a predecessor in `S`
        // (`bad_head`) — and `cross = |sinks(P)|·|sources(S)|`.
        let (mut sinks, mut cross, mut bad_tail, mut bad_head) = (0, 0, 0, 0);
        let mut cuts = vec![0];
        for (k, &v) in comp[..comp.len() - 1].iter().enumerate() {
            // Every predecessor of `v` is in `P`: it leaves `S` as a
            // source and joins `P` as a sink.
            let at = &mut self.at[v.0];
            (sources, sinks, cross, at.in_p) =
                (sources - 1, sinks + 1, cross + at.outdeg - at.indeg, 0);
            crate::profiling::add_sp_visits((g.preds(v).len() + g.succs(v).len()) as u64);
            for &u in g.preds(v) {
                let u = &mut self.at[u.0];
                if u.stamp == c {
                    if u.in_p == 0 {
                        sinks -= 1;
                        bad_tail += u.outdeg - 1;
                    } else {
                        bad_tail -= 1;
                    }
                    u.in_p += 1;
                }
            }
            for &w in g.succs(v) {
                let w = &mut self.at[w.0];
                if w.stamp == c {
                    w.in_p += 1;
                    if w.in_p < w.indeg {
                        bad_head += 1;
                    } else {
                        bad_head -= w.in_p - 1;
                        sources += 1;
                    }
                }
            }
            if bad_tail == 0 && bad_head == 0 && cross == sinks * sources {
                cuts.push(k + 1);
            }
        }
        if cuts.len() == 1 {
            return None; // connected with no series cut: not SP
        }
        cuts.push(comp.len());
        let segments = cuts.windows(2).map(|w| {
            self.last += 1;
            for v in &comp[w[0]..w[1]] {
                self.at[v.0].stamp = self.last;
            }
            self.parallel(comp[w[0]..w[1]].to_vec())
        });
        segments.collect::<Option<_>>().map(SpTree::Series)
    }
}

/// Build a [`TaskGraph`] from an abstract SP shape with given leaf
/// weights. Returns the graph plus the decomposition tree whose leaf
/// ids reference the new graph. Used by generators and tests.
///
/// `shape` is the same tree but with leaves carrying weights instead of
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub enum SpShape {
    /// A task with the given cost.
    Leaf(f64),
    /// Sequential composition.
    Series(Vec<SpShape>),
    /// Parallel composition.
    Parallel(Vec<SpShape>),
}

impl SpShape {
    /// Materialize the shape into a graph + id-labelled decomposition.
    pub fn build(&self) -> (TaskGraph, SpTree) {
        let mut weights = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let (tree, _sources, _sinks) = self.emit(&mut weights, &mut edges);
        let g = TaskGraph::new(weights, &edges).expect("SP construction yields a DAG");
        (g, tree.normalized())
    }

    /// Returns (tree, sources, sinks) of the emitted subgraph.
    fn emit(
        &self,
        weights: &mut Vec<f64>,
        edges: &mut Vec<(usize, usize)>,
    ) -> (SpTree, Vec<usize>, Vec<usize>) {
        match self {
            SpShape::Leaf(w) => {
                let id = weights.len();
                weights.push(*w);
                (SpTree::Leaf(TaskId(id)), vec![id], vec![id])
            }
            SpShape::Series(cs) => {
                assert!(!cs.is_empty(), "Series must have children");
                let mut trees = Vec::new();
                let mut first_sources = Vec::new();
                let mut prev_sinks: Vec<usize> = Vec::new();
                let mut last_sinks = Vec::new();
                for (k, c) in cs.iter().enumerate() {
                    let (t, src, snk) = c.emit(weights, edges);
                    if k == 0 {
                        first_sources = src.clone();
                    } else {
                        for &u in &prev_sinks {
                            for &v in &src {
                                edges.push((u, v));
                            }
                        }
                    }
                    prev_sinks = snk.clone();
                    last_sinks = snk;
                    trees.push(t);
                }
                (SpTree::Series(trees), first_sources, last_sinks)
            }
            SpShape::Parallel(cs) => {
                assert!(!cs.is_empty(), "Parallel must have children");
                let mut trees = Vec::new();
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for c in cs {
                    let (t, src, snk) = c.emit(weights, edges);
                    sources.extend(src);
                    sinks.extend(snk);
                    trees.push(t);
                }
                (SpTree::Parallel(trees), sources, sinks)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn recognizes_diamond() {
        let t = SpTree::from_graph(&diamond()).expect("diamond is SP");
        // series(0, parallel(1,2), 3)
        assert_eq!(
            t,
            SpTree::Series(vec![
                SpTree::Leaf(TaskId(0)),
                SpTree::Parallel(vec![SpTree::Leaf(TaskId(1)), SpTree::Leaf(TaskId(2))]),
                SpTree::Leaf(TaskId(3)),
            ])
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn rejects_the_n_graph() {
        let n = TaskGraph::new(vec![1.0; 4], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        assert!(SpTree::from_graph(&n).is_none());
    }

    #[test]
    fn recognizes_chains_forks_trees() {
        let chain = crate::generators::chain(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            SpTree::from_graph(&chain),
            Some(SpTree::Series(_))
        ));
        let fork = crate::generators::fork(1.0, &[1.0, 2.0]);
        assert!(SpTree::from_graph(&fork).is_some());
        let tree = TaskGraph::new(vec![1.0; 5], &[(0, 1), (1, 2), (1, 3), (0, 4)]).unwrap();
        assert!(SpTree::from_graph(&tree).is_some());
    }

    #[test]
    fn build_roundtrip() {
        let shape = SpShape::Series(vec![
            SpShape::Leaf(1.0),
            SpShape::Parallel(vec![
                SpShape::Series(vec![SpShape::Leaf(2.0), SpShape::Leaf(3.0)]),
                SpShape::Leaf(4.0),
            ]),
            SpShape::Leaf(5.0),
        ]);
        let (g, tree) = shape.build();
        assert_eq!(g.n(), 5);
        let rec = SpTree::from_graph(&g).expect("built SP graph must be recognized");
        // Both trees must contain the same leaves.
        let mut a = tree.leaves();
        let mut b = rec.leaves();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn normalization_flattens() {
        let t = SpTree::Series(vec![
            SpTree::Series(vec![SpTree::Leaf(TaskId(0)), SpTree::Leaf(TaskId(1))]),
            SpTree::Leaf(TaskId(2)),
        ]);
        assert_eq!(
            t.normalized(),
            SpTree::Series(vec![
                SpTree::Leaf(TaskId(0)),
                SpTree::Leaf(TaskId(1)),
                SpTree::Leaf(TaskId(2)),
            ])
        );
        let single = SpTree::Parallel(vec![SpTree::Leaf(TaskId(7))]);
        assert_eq!(single.normalized(), SpTree::Leaf(TaskId(7)));
    }

    #[test]
    fn independent_tasks_decompose_as_parallel() {
        let g = TaskGraph::new(vec![1.0, 2.0, 3.0], &[]).unwrap();
        let t = SpTree::from_graph(&g).unwrap();
        assert!(matches!(t, SpTree::Parallel(ref cs) if cs.len() == 3));
    }

    /// `k` diamond blocks in series: `4k + 1` tasks, junctions between
    /// consecutive blocks.
    fn blocks(k: usize) -> (TaskGraph, SpTree) {
        let mut shape = vec![SpShape::Leaf(1.0)];
        for _ in 0..k {
            shape.push(SpShape::Parallel(vec![
                SpShape::Leaf(1.0),
                SpShape::Leaf(1.0),
            ]));
            shape.push(SpShape::Leaf(1.0));
        }
        SpShape::Series(shape).build()
    }

    #[test]
    fn splice_rebuilds_only_the_touched_segment() {
        let (g, _) = blocks(8);
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        // Convert block 3's parallel pair {b, c} (between junctions j
        // and j') to the chain j → b → c → j'.
        let (j, b, c, j2) = (9, 10, 11, 12);
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.retain(|&e| e != (j, c) && e != (b, j2));
        edges.push((b, c));
        let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
        let before = crate::profiling::counts();
        let spliced = tree
            .splice(
                &edited,
                &order,
                &[TaskId(j), TaskId(b), TaskId(c), TaskId(j2)],
            )
            .expect("block conversion preserves SP");
        let delta = crate::profiling::counts() - before;
        assert_eq!(delta.sp_splice, 1);
        assert_eq!(delta.sp_from_graph, 0, "no recognition pass ran");
        assert!(
            delta.cone_nodes <= 4,
            "rebuild confined to the touched segment, got {} nodes",
            delta.cone_nodes
        );
        // Bit-identical to a fresh recognition of the edited graph.
        assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
    }

    /// The tree and the adjacency entries its recognition read.
    fn recognize_counted(g: &TaskGraph) -> (SpTree, u64) {
        let before = crate::profiling::counts();
        let tree = SpTree::from_graph(g).expect("SP graph");
        (tree, (crate::profiling::counts() - before).sp_visits)
    }

    #[test]
    fn recognition_reads_each_adjacency_list_about_once_per_level() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for n in [500, 2000, 8000] {
            let (g, _) = crate::generators::random_sp(n, 0.5, 1.0, 4.0, &mut rng);
            let (tree, visits) = recognize_counted(&g);
            let bound = 3 * (n + g.m()) * (tree.depth() + 1);
            assert!(visits as usize <= bound, "n={n}: {visits} visits > {bound}");
        }
        // The chain of 250 triple-branch blocks (1,001 tasks) the
        // prefix-trying recognizer was slowest on.
        let mut chain = vec![SpShape::Leaf(1.0)];
        for _ in 0..250 {
            chain.push(SpShape::Parallel(vec![SpShape::Leaf(1.0); 3]));
            chain.push(SpShape::Leaf(1.0));
        }
        let (g, _) = SpShape::Series(chain).build();
        let (_, visits) = recognize_counted(&g);
        let bound = 12 * (g.n() + g.m());
        assert!(visits as usize <= bound, "{visits} visits > {bound}");
    }

    #[test]
    fn splice_refuses_sp_breaking_edit() {
        let g = diamond();
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        // 1→2 makes 0→2 transitive: node-SP breaks.
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.push((1, 2));
        let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
        let before = crate::profiling::counts();
        assert!(tree
            .splice(&edited, &order, &[TaskId(1), TaskId(2)])
            .is_none());
        let delta = crate::profiling::counts() - before;
        assert_eq!(delta.sp_splice_miss, 1);
        assert_eq!(delta.sp_from_graph, 0);
    }

    #[test]
    fn splice_handles_parallel_component_merge() {
        // Three disconnected chains; connect the first to the third —
        // the spliced Parallel must re-order canonically (by smallest
        // task id), exactly like a fresh recognition.
        let g = TaskGraph::new(vec![1.0; 6], &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        let edited = TaskGraph::new(vec![1.0; 6], &[(0, 1), (2, 3), (4, 5), (1, 4)]).unwrap();
        let edited_order = topo_order(&edited);
        let spliced = tree
            .splice(&edited, &edited_order, &[TaskId(1), TaskId(4)])
            .expect("still SP: parallel of {0→1→4→5} and {2→3}");
        assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
    }
}
