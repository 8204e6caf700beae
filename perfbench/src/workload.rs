//! Seeded request streams for the three workloads.
//!
//! A [`Stream`] is a pure function of `(workload, seed, scale)`: the
//! setup jobs and the i-th timed job never depend on timing, so two
//! runs with one seed send the same frames (see [`Stream::digest`]).

use models::{DiscreteModes, EnergyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim_core::engine::{content_key, patched_key};
use reclaim_service::proto::{Request, RequestEnvelope};
use std::sync::Arc;
use taskgraph::analysis::critical_path_weight;
use taskgraph::edit::{apply_edits, GraphEdit};
use taskgraph::{generators, TaskGraph};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request hits a cached instance with a retained basis or
    /// curve: time goes to the codec, key, cache and poll loop.
    HotCache,
    /// Every request is a never-seen instance: time goes to preparing
    /// and solving.
    ColdSolve,
    /// `patch` chains against a `--store` daemon, with exact-curve
    /// reads on just-patched entries: the write path.
    EditStream,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotCache,
        Workload::ColdSolve,
        Workload::EditStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCache => "hot-cache",
            Workload::ColdSolve => "cold-solve",
            Workload::EditStream => "edit-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Instance sizes: the real benchmark, or a smoke scale for the
/// self-tests (same shapes, small `n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny instances for debug-build tests.
    Smoke,
}

/// What a job asks for; decides its checks and which layer a replay
/// attributes its solve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// `solve` of a hot-cache pool instance.
    PoolSolve,
    /// `energy_curve exact` of a hot-cache pool instance.
    PoolCurve,
    /// General-DAG Continuous (the §2.1 barrier).
    DagContinuous,
    /// General-DAG Discrete (round-up of the boxed barrier).
    DagDiscrete,
    /// Series–parallel Vdd-Hopping (the Theorem-3 LP).
    SpVdd,
    /// Large series–parallel Continuous (prepare-bound).
    LargeSp,
    /// `SetWeight` batch on a Vdd chain (warm LP resolve).
    WeightPatch,
    /// SP-preserving block conversion on the block graph.
    BlockPatch,
    /// `energy_curve exact` on the just-patched block graph.
    PatchCurve,
    /// `energy_curve exact` of a never-seen SP Vdd instance (cold LP
    /// plus the exact ray walk).
    VddCurve,
    /// Task-set patch that retires a Vdd chain's LP basis (cold
    /// re-solve).
    Rebase,
    /// A setup (warm-up) solve, outside the timed phase.
    Setup,
}

impl Family {
    /// Short label for the printed summary.
    pub fn label(self) -> &'static str {
        match self {
            Family::PoolSolve => "pool-solve",
            Family::PoolCurve => "pool-curve",
            Family::DagContinuous => "dag-continuous",
            Family::DagDiscrete => "dag-discrete",
            Family::SpVdd => "sp-vdd",
            Family::LargeSp => "large-sp",
            Family::WeightPatch => "weight-patch",
            Family::BlockPatch => "block-patch",
            Family::PatchCurve => "patch-curve",
            Family::VddCurve => "vdd-curve",
            Family::Rebase => "rebase",
            Family::Setup => "setup",
        }
    }
}

/// One request of a stream, with what the checker needs to know.
#[derive(Debug, Clone)]
pub struct Job {
    /// The request body (shared: hot-cache jobs reuse pool requests).
    pub request: Arc<Request>,
    /// What it asks for.
    pub family: Family,
    /// Task count of the instance it targets (after the edits).
    pub n: usize,
    /// The deadline the answer must meet (solve and patch jobs).
    pub deadline: f64,
    /// Patch chain (edit-stream): two jobs of one chain are never in
    /// flight together, since a patch re-keys its base.
    pub chain: Option<usize>,
    /// Hot-cache pool slot, whose reference answers every job on it.
    pub pool: Option<usize>,
    /// Expected content key of a patch's result.
    pub key: Option<u128>,
}

/// Exact-curve deadline factors used by every curve request.
pub const CURVE_LO: f64 = 1.1;
/// See [`CURVE_LO`].
pub const CURVE_HI: f64 = 3.0;

/// Timed `energy_curve exact` share on hot-cache.
const HOT_CURVE_SHARE: f64 = 0.2;
/// Timed exact-curve share on edit-stream.
const EDIT_CURVE_SHARE: f64 = 0.1;
/// Timed weight-patch share on edit-stream (the rest are block
/// conversions).
const EDIT_WEIGHT_SHARE: f64 = 0.6;

fn vdd_model() -> EnergyModel {
    EnergyModel::VddHopping(DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).expect("valid modes"))
}

fn discrete_model() -> EnergyModel {
    EnergyModel::Discrete(DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).expect("valid modes"))
}

/// A comfortable deadline for `g` under `model`.
fn deadline_for(g: &TaskGraph, model: &EnergyModel) -> f64 {
    let cp = critical_path_weight(g);
    match model.top_speed() {
        Some(s) => 1.4 * cp / s,
        None => 1.2 * cp,
    }
}

fn solve_job(g: TaskGraph, model: EnergyModel, family: Family) -> Job {
    let deadline = deadline_for(&g, &model);
    Job {
        n: g.n(),
        deadline,
        request: Arc::new(Request::Solve {
            graph: g,
            model,
            deadline,
        }),
        family,
        chain: None,
        pool: None,
        key: None,
    }
}

fn curve_job(g: TaskGraph, model: EnergyModel, family: Family) -> Job {
    Job {
        n: g.n(),
        deadline: f64::INFINITY,
        request: Arc::new(Request::EnergyCurve {
            graph: g,
            model,
            points: 2,
            lo: CURVE_LO,
            hi: CURVE_HI,
            exact: true,
        }),
        family,
        chain: None,
        pool: None,
        key: None,
    }
}

/// The `k`-th size of a golden-ratio sequence over `[lo, hi]`: any run
/// of consecutive `k` covers the range evenly.
fn spread(lo: usize, hi: usize, k: u64) -> usize {
    let frac = (0.5 + k as f64 * 0.618_033_988_749_894_9).fract();
    lo + ((hi - lo) as f64 * frac).round() as usize
}

/// Random DAG with about two edges per task.
fn random_dag(n: usize, rng: &mut StdRng) -> TaskGraph {
    generators::random_dag(n, 4.0 / (n - 1) as f64, 1.0, 5.0, rng)
}

fn random_sp(n: usize, rng: &mut StdRng) -> TaskGraph {
    generators::random_sp(n, 0.55, 1.0, 5.0, rng).0
}

/// A series chain of `k` triple-branch blocks (junction → {a, b, c} →
/// junction, `4k + 1` tasks). Branch `c` outweighs `a` and `b`
/// together, so serializing `a ∥ b` never moves the makespan.
fn block_graph(k: usize) -> TaskGraph {
    let n = 4 * k + 1;
    let mut edges = Vec::with_capacity(6 * k);
    let mut weights = vec![1.0; n];
    for i in 1..=k {
        let (j0, a, b, c, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i);
        edges.extend([(j0, a), (j0, b), (j0, c), (a, j1), (b, j1), (c, j1)]);
        weights[a] = 0.75 + (i % 3) as f64 * 0.125;
        weights[b] = 1.0;
        weights[c] = 2.25;
        weights[j1] = 1.0 + (i % 5) as f64 * 0.25;
    }
    TaskGraph::new(weights, &edges).expect("block chain is a DAG")
}

/// Serialize block `i`'s `a ∥ b` into `a → b` (SP-preserving).
fn block_convert(i: usize) -> Vec<GraphEdit> {
    let (j0, a, b, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i);
    vec![
        GraphEdit::RemoveEdge { from: j0, to: b },
        GraphEdit::RemoveEdge { from: a, to: j1 },
        GraphEdit::InsertEdge { from: a, to: b },
    ]
}

/// Undo [`block_convert`].
fn block_revert(i: usize) -> Vec<GraphEdit> {
    let (j0, a, b, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i);
    vec![
        GraphEdit::RemoveEdge { from: a, to: b },
        GraphEdit::InsertEdge { from: j0, to: b },
        GraphEdit::InsertEdge { from: a, to: j1 },
    ]
}

/// One patch chain of edit-stream, as the generator tracks it.
struct Chain {
    graph: TaskGraph,
    model: EnergyModel,
    key: u128,
    /// Block graph: which blocks are serialized.
    converted: Vec<usize>,
    /// Patched since its last curve request.
    dirty: bool,
    /// Vdd chain: weight patches since its LP basis was last built cold.
    edits: usize,
    /// Task count of the chain's first base.
    base_n: usize,
}

enum State {
    Hot { pool: Vec<(Job, Job)> },
    Cold { counts: [u64; 5] },
    Edit { chains: Vec<Chain>, blocks: usize },
}

/// Cold-solve's repeating family pattern (indices into [`cold_job`]'s
/// families), set so each family takes a comparable share of the
/// daemon's time: one general-DAG Continuous solve costs about as much
/// as ten Discrete round-ups, seven Vdd LPs or four large SP prepares.
const COLD_PATTERN: [usize; 22] = [
    1, 2, 1, 3, 1, 4, 1, 2, 1, 3, 2, 0, 1, 2, 1, 3, 1, 4, 1, 2, 3, 1,
];

/// Block conversions held at once on edit-stream's block chain.
const MAX_CONVERTED: usize = 8;

/// Weight patches a Vdd chain takes before it is retired and replaced
/// by a fresh base. Long chains of warm resolves on one retained LP
/// basis can cycle in the dual simplex (see `README.md`), so the
/// benchmark bounds them.
const CHAIN_EDITS: usize = 256;

/// A deterministic request stream.
pub struct Stream {
    scale: Scale,
    rng: StdRng,
    state: State,
    setup: Vec<Job>,
    step: u64,
    last_chain: Option<usize>,
}

impl Stream {
    /// The stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_636c_6169_6d64);
        let smoke = scale == Scale::Smoke;
        let (state, setup) = match workload {
            Workload::HotCache => {
                let slots = if smoke { 6 } else { 32 };
                let pool: Vec<(Job, Job)> = (0..slots)
                    .map(|i| {
                        let (g, model) = if i % 2 == 0 {
                            let n = if smoke {
                                20 + 2 * i
                            } else {
                                spread(60, 1000, i as u64)
                            };
                            (
                                shaped_sp(n, i as u64, &mut rng),
                                EnergyModel::continuous_unbounded(),
                            )
                        } else {
                            let n = if smoke {
                                12 + i
                            } else {
                                spread(60, 150, i as u64)
                            };
                            (shaped_sp(n, i as u64, &mut rng), vdd_model())
                        };
                        let mut solve = solve_job(g.clone(), model.clone(), Family::PoolSolve);
                        let mut curve = curve_job(g, model, Family::PoolCurve);
                        solve.pool = Some(i);
                        curve.pool = Some(i);
                        (solve, curve)
                    })
                    .collect();
                let setup = pool
                    .iter()
                    .flat_map(|(s, c)| [s.clone(), c.clone()])
                    .map(|mut j| {
                        j.family = Family::Setup;
                        j
                    })
                    .collect();
                (State::Hot { pool }, setup)
            }
            Workload::ColdSolve => {
                // One small instance per family pages the solver code in.
                let warm_n = if smoke {
                    [12, 12, 12, 40, 12]
                } else {
                    [40, 40, 60, 400, 60]
                };
                let setup = (0..5)
                    .map(|f| {
                        let mut j = cold_job(f, warm_n[f], u64::MAX - f as u64, &mut rng);
                        j.family = Family::Setup;
                        j
                    })
                    .collect();
                (State::Cold { counts: [0; 5] }, setup)
            }
            Workload::EditStream => {
                let (vdd_n, blocks) = if smoke { (20, 12) } else { (150, 250) };
                let chain = |g: TaskGraph, model: EnergyModel| Chain {
                    key: content_key(&g, &model),
                    base_n: g.n(),
                    graph: g,
                    model,
                    converted: Vec::new(),
                    dirty: false,
                    edits: 0,
                };
                let mut chains: Vec<Chain> = (0..3)
                    .map(|i| {
                        chain(
                            shaped_sp(vdd_n - 10 + 10 * i, i as u64, &mut rng),
                            vdd_model(),
                        )
                    })
                    .collect();
                chains.push(chain(
                    block_graph(blocks),
                    EnergyModel::continuous_unbounded(),
                ));
                let setup = chains
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let mut j = solve_job(c.graph.clone(), c.model.clone(), Family::Setup);
                        j.chain = Some(i);
                        j
                    })
                    .collect();
                (State::Edit { chains, blocks }, setup)
            }
        };
        Stream {
            scale,
            rng,
            state,
            setup,
            step: 0,
            last_chain: None,
        }
    }

    /// The setup (warm-up) jobs, sent before the timed phase.
    pub fn setup(&self) -> &[Job] {
        &self.setup
    }

    /// The hot-cache pool as `(solve, curve)` job pairs (empty on the
    /// other workloads).
    pub fn pool(&self) -> &[(Job, Job)] {
        match &self.state {
            State::Hot { pool } => pool,
            _ => &[],
        }
    }

    /// The next timed job.
    pub fn next_job(&mut self) -> Job {
        self.step += 1;
        let job = match &mut self.state {
            State::Hot { pool } => {
                let i = self.rng.gen_range(0..pool.len());
                if self.rng.gen_bool(HOT_CURVE_SHARE) {
                    pool[i].1.clone()
                } else {
                    pool[i].0.clone()
                }
            }
            State::Cold { counts } => {
                let f = COLD_PATTERN[(self.step as usize - 1) % COLD_PATTERN.len()];
                let k = counts[f];
                counts[f] += 1;
                let n = match self.scale {
                    Scale::Smoke => [16, 14, 18, 60, 18][f],
                    Scale::Full => {
                        let (lo, hi) =
                            [(60, 140), (50, 100), (100, 200), (1000, 3000), (100, 200)][f];
                        spread(lo, hi, k)
                    }
                };
                cold_job(f, n, self.step, &mut self.rng)
            }
            State::Edit { chains, blocks } => {
                edit_job(chains, *blocks, self.last_chain, &mut self.rng)
            }
        };
        self.last_chain = job.chain;
        job
    }

    /// FNV-1a digest of the encoded frames of the setup jobs and the
    /// first `count` timed jobs, with ids as a fresh client assigns
    /// them. Computed on a clone, so the stream itself is untouched.
    pub fn digest(workload: Workload, seed: u64, scale: Scale, count: usize) -> u64 {
        let mut s = Stream::new(workload, seed, scale);
        let mut h = Fnv::new();
        let mut id = 0u64;
        let setup: Vec<Job> = s.setup.clone();
        for job in setup
            .iter()
            .cloned()
            .chain((0..count).map(|_| s.next_job()))
        {
            id += 1;
            h.write(
                RequestEnvelope::new(id, (*job.request).clone())
                    .encode()
                    .as_bytes(),
            );
        }
        h.0
    }
}

/// The random graph `make` builds from a generator seeded by `slot`
/// alone, with task weights redrawn from the seeded `rng`. Streams use
/// it so every seed sends never-seen instances of the same shapes and
/// sizes: runs with different seeds do comparable work.
fn shaped(slot: u64, rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> TaskGraph) -> TaskGraph {
    let g = make(&mut StdRng::seed_from_u64(
        slot.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ));
    let edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|&(u, v)| (u.index(), v.index()))
        .collect();
    let weights = (0..g.n()).map(|_| rng.gen_range(1.0..5.0)).collect();
    TaskGraph::new(weights, &edges).expect("same edges, still a DAG")
}

/// [`shaped`] series–parallel graph.
fn shaped_sp(n: usize, slot: u64, rng: &mut StdRng) -> TaskGraph {
    shaped(slot, rng, |s| random_sp(n, s))
}

/// Cold-solve family `f` (0 general Continuous, 1 general Discrete,
/// 2 SP Vdd, 3 large SP Continuous, 4 SP Vdd exact curve) at size `n`,
/// shaped by the stream position `slot`.
fn cold_job(f: usize, n: usize, slot: u64, rng: &mut StdRng) -> Job {
    let slot = slot.wrapping_mul(5) + f as u64;
    let g = if f <= 1 {
        shaped(slot, rng, |s| random_dag(n, s))
    } else {
        shaped_sp(n, slot, rng)
    };
    match f {
        0 => solve_job(
            g,
            EnergyModel::continuous_unbounded(),
            Family::DagContinuous,
        ),
        1 => solve_job(g, discrete_model(), Family::DagDiscrete),
        2 => solve_job(g, vdd_model(), Family::SpVdd),
        3 => solve_job(g, EnergyModel::continuous_unbounded(), Family::LargeSp),
        _ => curve_job(g, vdd_model(), Family::VddCurve),
    }
}

/// The next edit-stream job. Patches alternate chains so two can be in
/// flight. A curve reads the block chain when it was patched since its
/// last curve and the previous job was not on it.
///
/// Curves stay off the Vdd chains: a warm resolve after a weight edit,
/// from the basis an exact-curve walk left behind, can cycle in the
/// dual simplex for tens of seconds before falling back cold (see
/// `README.md`), so exact Vdd walks run on cold-solve instead.
fn edit_job(chains: &mut [Chain], blocks: usize, last: Option<usize>, rng: &mut StdRng) -> Job {
    let vdd_chains = chains.len() - 1;
    let block_chain = vdd_chains;
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < EDIT_CURVE_SHARE && chains[block_chain].dirty && last != Some(block_chain) {
        let ch = &mut chains[block_chain];
        ch.dirty = false;
        let mut job = curve_job(ch.graph.clone(), ch.model.clone(), Family::PatchCurve);
        job.chain = Some(block_chain);
        return job;
    }
    let weight = roll < EDIT_CURVE_SHARE + EDIT_WEIGHT_SHARE || last == Some(block_chain);
    let c = if weight {
        let choices: Vec<usize> = (0..vdd_chains).filter(|&c| Some(c) != last).collect();
        choices[rng.gen_range(0..choices.len())]
    } else {
        block_chain
    };
    let ch = &mut chains[c];
    let (edits, family) = if weight && ch.edits >= CHAIN_EDITS {
        // Retire the chain's LP basis: a task-set edit (append a sink
        // task, or drop the one appended last time) gives the entry a
        // fresh warm slot, so the patch re-solves cold.
        ch.edits = 0;
        let n = ch.graph.n();
        let edit = if n == ch.base_n {
            GraphEdit::AddTask {
                weight: rng.gen_range(1.0..5.0),
                preds: vec![rng.gen_range(0..n)],
                succs: Vec::new(),
            }
        } else {
            GraphEdit::RemoveTask { task: ch.base_n }
        };
        (vec![edit], Family::Rebase)
    } else if weight {
        ch.edits += 1;
        let k = rng.gen_range(1..=3usize);
        let n = ch.graph.n();
        let edits = (0..k)
            .map(|_| GraphEdit::SetWeight {
                task: rng.gen_range(0..n),
                weight: rng.gen_range(1.0..5.0),
            })
            .collect();
        (edits, Family::WeightPatch)
    } else {
        // Convert a fresh block, then revert an older one: the set of
        // serialized blocks wanders, so no content key comes back.
        let held = ch.converted.len();
        let revert = held >= MAX_CONVERTED || (held >= 2 && rng.gen_bool(0.5));
        let edits = if revert {
            let pick = rng.gen_range(0..ch.converted.len() - 1);
            block_revert(ch.converted.remove(pick))
        } else {
            let i = loop {
                let i = rng.gen_range(1..=blocks);
                if !ch.converted.contains(&i) {
                    break i;
                }
            };
            ch.converted.push(i);
            block_convert(i)
        };
        (edits, Family::BlockPatch)
    };
    let (next, _) = apply_edits(&ch.graph, &edits).expect("generated edits are valid");
    let key =
        patched_key(ch.key, &ch.graph, &edits).unwrap_or_else(|| content_key(&next, &ch.model));
    let deadline = deadline_for(&next, &ch.model);
    let base = ch.key;
    ch.graph = next;
    ch.key = key;
    ch.dirty = true;
    Job {
        n: ch.graph.n(),
        deadline,
        request: Arc::new(Request::Patch {
            base,
            edits,
            deadline,
        }),
        family,
        chain: Some(c),
        pool: None,
        key: Some(key),
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
