//! Graph helpers shared by the property suites.

use rand::Rng;
use taskgraph::{TaskGraph, TaskId};

/// `g` with its task ids relabelled by a random permutation, so ids no
/// longer follow the order a generator emitted the tasks in.
pub fn shuffle_ids<R: Rng>(g: &TaskGraph, rng: &mut R) -> TaskGraph {
    let n = g.n();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut weights = vec![0.0; n];
    for t in g.tasks() {
        weights[perm[t.0]] = g.weight(t);
    }
    let edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|&(u, v)| (perm[u.0], perm[v.0]))
        .collect();
    TaskGraph::new(weights, &edges).expect("relabelling keeps a DAG")
}

/// The edge list of `g` as index pairs.
pub fn edge_list(g: &TaskGraph) -> Vec<(usize, usize)> {
    g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect()
}

/// `g` with one edge removed, or one edge inserted forward in the
/// topological `order` (so the result stays acyclic), picked at random
/// — plus the endpoints of the changed edge. `None` when `g` offers
/// neither edit.
pub fn perturb<R: Rng>(
    g: &TaskGraph,
    order: &[TaskId],
    rng: &mut R,
) -> Option<(TaskGraph, [TaskId; 2])> {
    let mut edges = edge_list(g);
    let (u, v) = if !edges.is_empty() && rng.gen_bool(0.5) {
        edges.swap_remove(rng.gen_range(0..edges.len()))
    } else {
        let n = g.n();
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let (a, b) = (order[i.min(j)], order[i.max(j)]);
        if a == b || g.has_edge(a, b) {
            return None;
        }
        edges.push((a.0, b.0));
        (a.0, b.0)
    };
    let edited = TaskGraph::new(g.weights().to_vec(), &edges).expect("forward edits keep a DAG");
    Some((edited, [TaskId(u), TaskId(v)]))
}
