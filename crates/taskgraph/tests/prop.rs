//! Property tests for the graph substrate.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::analysis::{
    critical_path, critical_path_weight, earliest_completion, is_topo_order, makespan,
    reachability, reaches, slack, topo_order,
};
use taskgraph::{generators, SpTree, TaskGraph};

fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..20, any::<u64>(), 0.05f64..0.6).prop_map(|(n, seed, p)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_dag(n, p, 0.5, 5.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn topo_order_is_always_valid(g in arb_dag()) {
        let o = topo_order(&g);
        prop_assert!(is_topo_order(&g, &o));
    }

    #[test]
    fn makespan_bounds(g in arb_dag()) {
        let mk = makespan(&g, g.weights());
        let max_w = g.weights().iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(mk >= max_w - 1e-12, "makespan below heaviest task");
        prop_assert!(mk <= g.total_work() + 1e-9, "makespan above serial time");
    }

    #[test]
    fn reversal_preserves_critical_path_weight(g in arb_dag()) {
        let a = critical_path_weight(&g);
        let b = critical_path_weight(&g.reversed());
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0));
    }

    #[test]
    fn critical_path_is_a_real_path_with_cp_weight(g in arb_dag()) {
        let path = critical_path(&g);
        prop_assert!(!path.is_empty());
        for w in path.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]), "broken edge {} -> {}", w[0], w[1]);
        }
        let weight: f64 = path.iter().map(|&t| g.weight(t)).sum();
        prop_assert!((weight - critical_path_weight(&g)).abs() <= 1e-6 * weight.max(1.0));
    }

    #[test]
    fn slack_nonnegative_at_makespan(g in arb_dag()) {
        let mk = makespan(&g, g.weights());
        for s in slack(&g, g.weights(), mk) {
            prop_assert!(s >= -1e-9, "negative slack {s} at the exact makespan");
        }
    }

    #[test]
    fn reachability_agrees_with_edges_and_completion(g in arb_dag()) {
        let r = reachability(&g);
        for &(u, v) in g.edges() {
            prop_assert!(reaches(&r, u, v));
            prop_assert!(!reaches(&r, v, u), "cycle {u} <-> {v}");
        }
        // If u reaches v then u completes no later than v's start
        // allows: ecl_u ≤ ecl_v − w_v.
        let ecl = earliest_completion(&g, g.weights());
        for u in g.tasks() {
            for v in g.tasks() {
                if u != v && reaches(&r, u, v) {
                    prop_assert!(ecl[u.index()] <= ecl[v.index()] - g.weight(v) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn sp_generator_roundtrip(n in 1usize..20, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, tree) = generators::random_sp(n, 0.5, 0.5, 4.0, &mut rng);
        prop_assert_eq!(tree.len(), n);
        let rec = SpTree::from_graph(&g);
        prop_assert!(rec.is_some());
        let mut a = tree.leaves();
        let mut b = rec.unwrap().leaves();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn splice_matches_fresh_recognition_on_shuffled_ids(
        n in 2usize..40,
        bias in 0.2f64..0.8,
        seed in any::<u64>(),
    ) {
        // Ids that do not follow emission order separate "smallest id"
        // from "first in topological order": a splice must still land
        // on the tree a fresh recognition of the edited graph builds.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::random_sp(n, bias, 0.5, 4.0, &mut rng);
        let g = common::shuffle_ids(&g, &mut rng);
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).expect("generated SP graph");
        // A random edge removal or forward insertion, and a sink → source
        // insertion (which often keeps the graph SP by serializing two
        // parallel components).
        let mut pos = vec![0; g.n()];
        for (i, t) in order.iter().enumerate() {
            pos[t.0] = i;
        }
        let (sinks, sources) = (g.sinks(), g.sources());
        let (u, v) = (
            sinks[rng.gen_range(0..sinks.len())],
            sources[rng.gen_range(0..sources.len())],
        );
        let serialize = (pos[u.0] < pos[v.0]).then(|| {
            let mut edges = common::edge_list(&g);
            edges.push((u.0, v.0));
            (TaskGraph::new(g.weights().to_vec(), &edges).unwrap(), [u, v])
        });
        let edits = common::perturb(&g, &order, &mut rng).into_iter().chain(serialize);
        for (edited, touched) in edits {
            // A miss is allowed (the caller falls back to full
            // recognition); a repaired tree must be the fresh one.
            if let Some(spliced) = tree.splice(&edited, &order, &touched) {
                prop_assert_eq!(Some(spliced), SpTree::from_graph(&edited));
            }
        }
    }

    #[test]
    fn applied_edits_keep_prepared_views_consistent(g in arb_dag(), seed in any::<u64>()) {
        // Whatever a prepared instance carries across an edit must
        // agree with a from-scratch analysis of the edited graph.
        use rand::Rng;
        use std::sync::Arc;
        use taskgraph::edit::GraphEdit;
        use taskgraph::{PreparedGraph, PreparedInstance};

        let mut rng = StdRng::seed_from_u64(seed);
        let order = topo_order(&g);
        let edits = vec![
            GraphEdit::SetWeight {
                task: rng.gen_range(0..g.n()),
                weight: rng.gen_range(0.25..4.0),
            },
            GraphEdit::InsertEdge {
                from: order[0].index(),
                to: order[order.len() - 1].index(),
            },
        ];
        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let patched = inst.apply(&edits).unwrap();
        let (rebuilt, _) = taskgraph::edit::apply_edits(&g, &edits).unwrap();
        let fresh = PreparedGraph::new(&rebuilt);
        prop_assert_eq!(patched.graph(), &rebuilt);
        prop_assert!(is_topo_order(&rebuilt, patched.view().topo()));
        prop_assert_eq!(patched.view().shape(), fresh.shape());
        prop_assert_eq!(
            patched.view().critical_path_weight(),
            fresh.critical_path_weight()
        );
        let mut a = patched.view().reduced().edges().to_vec();
        let mut b = fresh.reduced().edges().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn execution_graph_monotone_under_extra_edges(g in arb_dag()) {
        // Adding any valid serialization edge can only increase the
        // critical path weight.
        let base = critical_path_weight(&g);
        let o = topo_order(&g);
        if o.len() >= 2 {
            let extra = (o[0].index(), o[1].index());
            if let Ok(g2) = g.with_extra_edges(&[extra]) {
                prop_assert!(critical_path_weight(&g2) >= base - 1e-9);
            }
        }
    }
}
