//! The quadratic-per-level series–parallel recognizer the linear scan
//! replaced, kept as a test oracle: it tries every prefix of the
//! topological order and cuts off two children at a time. The
//! properties pin [`SpTree::from_graph`] to it — the same tree on
//! generator-built graphs, the same tree up to parallel-child order on
//! relabelled ones, and the same SP / non-SP verdict on perturbed
//! graphs and random DAGs.

mod common;

use common::{perturb, shuffle_ids};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taskgraph::analysis::topo_order;
use taskgraph::sp::SpShape;
use taskgraph::{generators, SpTree, TaskGraph, TaskId};

/// The oracle's entry: the flattened tree, or `None` when not SP.
fn oracle(g: &TaskGraph) -> Option<SpTree> {
    let all: Vec<TaskId> = g.tasks().collect();
    decompose(g, &all, &topo_order(g)).map(flatten)
}

/// Flatten nested compositions of the same kind and unwrap
/// single-child compositions, producing a canonical tree.
fn flatten(t: SpTree) -> SpTree {
    match t {
        SpTree::Leaf(t) => SpTree::Leaf(t),
        SpTree::Series(cs) => {
            let mut out = Vec::new();
            for c in cs {
                match flatten(c) {
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
                match flatten(c) {
                    SpTree::Parallel(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                SpTree::Parallel(out)
            }
        }
    }
}

/// Recursive helper operating on an induced subgraph given by a
/// vertex subset (kept as a sorted list of original ids). The
/// global topological order is threaded through so no level
/// re-derives it.
fn decompose(g: &TaskGraph, verts: &[TaskId], global_order: &[TaskId]) -> Option<SpTree> {
    if verts.len() == 1 {
        return Some(SpTree::Leaf(verts[0]));
    }
    let inset: std::collections::HashSet<TaskId> = verts.iter().copied().collect();

    // 1. Parallel split: weakly connected components of the induced
    //    subgraph.
    let comps = induced_components(g, verts, &inset);
    if comps.len() > 1 {
        let children: Option<Vec<SpTree>> = comps
            .iter()
            .map(|c| decompose(g, c, global_order))
            .collect();
        return children.map(SpTree::Parallel);
    }

    // 2. Series split: scan prefixes of a topological order of the
    //    induced subgraph.
    let order = induced_topo(global_order, &inset);
    for k in 1..order.len() {
        let (p, s) = order.split_at(k);
        if let Some((pp, ss)) = valid_series_cut(g, p, s, &inset) {
            let left = decompose(g, &pp, global_order)?;
            let right = decompose(g, &ss, global_order)?;
            return Some(SpTree::Series(vec![left, right]));
        }
    }
    None
}

/// Weakly connected components of the induced subgraph.
fn induced_components(
    g: &TaskGraph,
    verts: &[TaskId],
    inset: &std::collections::HashSet<TaskId>,
) -> Vec<Vec<TaskId>> {
    let mut comp: std::collections::HashMap<TaskId, usize> = std::collections::HashMap::new();
    let mut comps: Vec<Vec<TaskId>> = Vec::new();
    for &v in verts {
        if comp.contains_key(&v) {
            continue;
        }
        let id = comps.len();
        let mut stack = vec![v];
        let mut members = Vec::new();
        comp.insert(v, id);
        while let Some(u) = stack.pop() {
            members.push(u);
            for &w in g.succs(u).iter().chain(g.preds(u)) {
                if inset.contains(&w) && !comp.contains_key(&w) {
                    comp.insert(w, id);
                    stack.push(w);
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps
}

/// Topological order of the induced subgraph.
fn induced_topo(global_order: &[TaskId], inset: &std::collections::HashSet<TaskId>) -> Vec<TaskId> {
    // Filter the global topological order down to the subset: a
    // topological order of the whole DAG restricted to any subset is a
    // topological order of the induced subgraph.
    global_order
        .iter()
        .filter(|t| inset.contains(t))
        .copied()
        .collect()
}

/// Check whether `(p, s)` is a valid series cut of the induced
/// subgraph: cross edges are exactly `sinks(p) × sources(s)`.
/// Returns the two vertex sets on success.
fn valid_series_cut(
    g: &TaskGraph,
    p: &[TaskId],
    s: &[TaskId],
    inset: &std::collections::HashSet<TaskId>,
) -> Option<(Vec<TaskId>, Vec<TaskId>)> {
    let pset: std::collections::HashSet<TaskId> = p.iter().copied().collect();
    let sset: std::collections::HashSet<TaskId> = s.iter().copied().collect();

    // Sinks of induced P: no successor inside P (successors outside
    // `inset` do not exist at this recursion level).
    let sinks_p: Vec<TaskId> = p
        .iter()
        .copied()
        .filter(|&u| !g.succs(u).iter().any(|v| pset.contains(v)))
        .collect();
    let sources_s: Vec<TaskId> = s
        .iter()
        .copied()
        .filter(|&u| !g.preds(u).iter().any(|v| sset.contains(v)))
        .collect();

    // Count cross edges and verify each goes sink(P) -> source(S).
    let sinks_set: std::collections::HashSet<TaskId> = sinks_p.iter().copied().collect();
    let sources_set: std::collections::HashSet<TaskId> = sources_s.iter().copied().collect();
    let mut cross = 0usize;
    for &u in p {
        for &v in g.succs(u) {
            if !inset.contains(&v) || pset.contains(&v) {
                continue;
            }
            // Edge crosses the cut.
            if !sinks_set.contains(&u) || !sources_set.contains(&v) {
                return None;
            }
            cross += 1;
        }
    }
    if cross != sinks_p.len() * sources_s.len() {
        return None; // not a complete bipartite junction
    }
    Some((p.to_vec(), s.to_vec()))
}

/// Every `Parallel`'s children sorted by smallest task id, recursively.
fn sort_parallels(t: SpTree) -> SpTree {
    fn min_leaf(t: &SpTree) -> TaskId {
        t.leaves().into_iter().min().expect("non-empty")
    }
    match t {
        SpTree::Leaf(t) => SpTree::Leaf(t),
        SpTree::Series(cs) => SpTree::Series(cs.into_iter().map(sort_parallels).collect()),
        SpTree::Parallel(cs) => {
            let mut cs: Vec<SpTree> = cs.into_iter().map(sort_parallels).collect();
            cs.sort_by_key(min_leaf);
            SpTree::Parallel(cs)
        }
    }
}

/// A random shape with `n` leaves whose compositions take two to four
/// children (the binary `random_sp` never emits wider ones).
fn wide_shape<R: Rng>(n: usize, rng: &mut R) -> SpShape {
    if n == 1 {
        return SpShape::Leaf(rng.gen_range(0.5..4.0));
    }
    let k = rng.gen_range(2..=4usize.min(n));
    let mut sizes = vec![1; k];
    for _ in k..n {
        sizes[rng.gen_range(0..k)] += 1;
    }
    let cs = sizes.into_iter().map(|s| wide_shape(s, rng)).collect();
    if rng.gen_bool(0.5) {
        SpShape::Series(cs)
    } else {
        SpShape::Parallel(cs)
    }
}

/// A generator-built SP graph: binary `random_sp` or a wide shape.
fn arb_sp() -> impl Strategy<Value = TaskGraph> {
    (1usize..48, 0.15f64..0.85, any::<u64>(), any::<bool>()).prop_map(|(n, bias, seed, wide)| {
        let mut rng = StdRng::seed_from_u64(seed);
        if wide {
            wide_shape(n, &mut rng).build().0
        } else {
            generators::random_sp(n, bias, 0.5, 4.0, &mut rng).0
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn same_tree_as_the_oracle_on_generator_graphs(g in arb_sp()) {
        let tree = SpTree::from_graph(&g);
        prop_assert!(tree.is_some());
        prop_assert_eq!(tree, oracle(&g));
    }

    #[test]
    fn same_tree_up_to_parallel_order_on_shuffled_ids(g in arb_sp(), seed in any::<u64>()) {
        let g = shuffle_ids(&g, &mut StdRng::seed_from_u64(seed));
        let tree = SpTree::from_graph(&g);
        prop_assert!(tree.is_some());
        prop_assert_eq!(tree, oracle(&g).map(sort_parallels));
    }

    #[test]
    fn same_verdict_on_perturbed_graphs(g in arb_sp(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffle_ids(&g, &mut rng);
        if let Some((edited, _)) = perturb(&g, &topo_order(&g), &mut rng) {
            prop_assert_eq!(SpTree::from_graph(&edited), oracle(&edited).map(sort_parallels));
        }
    }

    #[test]
    fn same_verdict_on_random_dags(n in 1usize..40, p in 0.02f64..0.5, seed in any::<u64>()) {
        let g = generators::random_dag(n, p, 0.5, 4.0, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(SpTree::from_graph(&g), oracle(&g).map(sort_parallels));
    }
}
