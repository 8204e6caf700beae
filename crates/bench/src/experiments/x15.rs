//! X15 (extension) — series–parallel recognition in one scan per tree
//! level.
//!
//! `SpTree::from_graph` splits `Parallel`s by a connected-components
//! pass and finds every series cut of a connected piece in one prefix
//! scan of the topological order, so it reads each adjacency list a
//! bounded number of times per tree level. The deterministic work
//! count `profiling::Counts::sp_visits` (adjacency entries read) makes
//! that checkable without timing.
//!
//! **Curve.** `random_sp` graphs with `n = 250 … 16,000`, plus the
//! 1,001-task chain of 250 triple-branch blocks that X13 patches (the
//! prefix-trying recognizer's worst case). Per graph it records `n`,
//! `m`, the tree depth, the visits, the ratio
//! `visits / ((n + m)·(depth + 1))`, and the median recognition time.
//! Pass requires the ratio to stay ≤ 3 at every point.

use super::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Table;
use std::time::Instant;
use taskgraph::sp::SpShape;
use taskgraph::{generators, profiling, SpTree, TaskGraph};

/// One curve point's metric names: m, depth, visits, ratio, time.
macro_rules! point {
    ($p:literal) => {
        [
            concat!($p, "_m"),
            concat!($p, "_depth"),
            concat!($p, "_visits"),
            concat!($p, "_ratio"),
            concat!($p, "_ms"),
        ]
    };
}

/// `random_sp` sizes with their metric names.
const CURVE: &[(usize, [&str; 5])] = &[
    (250, point!("n250")),
    (500, point!("n500")),
    (1000, point!("n1000")),
    (2000, point!("n2000")),
    (4000, point!("n4000")),
    (8000, point!("n8000")),
    (16000, point!("n16000")),
];

/// The bar on `visits / ((n + m)·(depth + 1))` at every point.
const GATE_RATIO: f64 = 3.0;

/// X13's instance: a series chain of `k` junction → {a, b, c} →
/// junction blocks, `4k + 1` tasks.
fn block_chain(k: usize) -> TaskGraph {
    let mut chain = vec![SpShape::Leaf(1.0)];
    for _ in 0..k {
        chain.push(SpShape::Parallel(vec![SpShape::Leaf(1.0); 3]));
        chain.push(SpShape::Leaf(1.0));
    }
    SpShape::Series(chain).build().0
}

/// Recognize `g`: (tree depth, adjacency entries read, median seconds
/// of five runs).
fn measure(g: &TaskGraph) -> (usize, u64, f64) {
    let before = profiling::counts();
    let tree = SpTree::from_graph(g).expect("SP graph");
    let visits = (profiling::counts() - before).sp_visits;
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(SpTree::from_graph(std::hint::black_box(g)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (tree.depth(), visits, times[2])
}

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "graph",
        "n",
        "m",
        "depth",
        "visits",
        "visits/((n+m)(depth+1))",
        "time(ms)",
    ]);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut worst = 0.0f64;
    let graphs = CURVE
        .iter()
        .map(|&(n, names)| {
            let mut rng = StdRng::seed_from_u64(15_000 + n as u64);
            let g = generators::random_sp(n, 0.5, 1.0, 4.0, &mut rng).0;
            ("random_sp", g, names)
        })
        .chain([("X13 blocks", block_chain(250), point!("blocks"))]);
    for (name, g, names) in graphs {
        let (n, m) = (g.n(), g.m());
        let (depth, visits, secs) = measure(&g);
        let ratio = visits as f64 / ((n + m) * (depth + 1)) as f64;
        worst = worst.max(ratio);
        table.row(&[
            name.into(),
            n.to_string(),
            m.to_string(),
            depth.to_string(),
            visits.to_string(),
            format!("{ratio:.2}"),
            format!("{:.2}", secs * 1e3),
        ]);
        let values = [m as f64, depth as f64, visits as f64, ratio, secs * 1e3];
        metrics.extend(names.into_iter().zip(values));
    }
    metrics.push(("ratio_max", worst));
    let pass = worst <= GATE_RATIO;
    Outcome {
        id: "X15",
        claim: "series–parallel recognition reads at most 3·(n+m)·(depth+1) \
                adjacency entries, from n = 250 to 16,000 and on X13's block chain",
        size: CURVE[CURVE.len() - 1].0,
        metrics,
        table,
        verdict: format!(
            "{}: visits/((n+m)(depth+1)) at most {worst:.2} (want ≤ {GATE_RATIO})",
            if pass { "PASS" } else { "FAIL" },
        ),
    }
}
