//! In-process replay of a request stream, in the daemon's order,
//! through each layer's public functions.
//!
//! A [`Mirror`] stands in for one `reclaimd` worker: it encodes and
//! decodes the request, keys it, goes through an [`InstanceCache`],
//! solves through the family's solve entry, validates, and encodes and
//! decodes the response. With a [`Tracer`] attached, every call is
//! wrapped in a span recorded by this file — spans inside the program
//! are not used.

use crate::workload::Job;
use models::{EnergyModel, PowerLaw, Schedule, SpeedProfile};
use reclaim_core::continuous::{self, SweepWarm};
use reclaim_core::engine::{content_key, patched_key, VddWarm};
use reclaim_core::{vdd, CurveEnergy, CurveSegment, CurveStats, Engine, ExactCurve, SolveError};
use reclaim_service::cache::{CacheConfig, CachedCurve, InstanceCache, Prepared, WarmSlot};
use reclaim_service::proto::{
    CurveExactReport, ErrorBody, PatchReport, Request, RequestEnvelope, Response, ResponseEnvelope,
    SolveReport,
};
use reclaim_service::store::Store;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use taskgraph::edit::GraphEdit;
use taskgraph::{analysis, PreparedGraph, PreparedInstance, Shape, SpTree, TaskGraph};

/// The daemon's power law (`reclaimd` without `--alpha`).
pub const POWER: PowerLaw = PowerLaw::CUBIC;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the request the span belongs to.
    pub request: u64,
    /// Task count of that request's instance.
    pub n: usize,
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    n: usize,
    /// Work counts measured at the same call boundaries.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            n: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
            n: self.n,
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
        self.stack.pop();
    }

    /// Add `v` to the named work count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Self time per span (its duration minus the time its children
    /// cover), in ns.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Write the spans as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\tn\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, s.request, s.n
            );
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Run `f` inside a span named `name` (no-op without a tracer).
fn span<T>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<Tracer>) -> T,
) -> T {
    let idx = tr.as_mut().map(|t| t.enter(name));
    let out = f(tr);
    if let (Some(t), Some(idx)) = (tr.as_mut(), idx) {
        t.exit(idx);
    }
    out
}

fn count(tr: &mut Option<Tracer>, name: &'static str, v: f64) {
    if let Some(t) = tr.as_mut() {
        t.count(name, v);
    }
}

/// Inputs for the layer probes: calls the program makes *inside* a
/// cache method, which a caller can only time by repeating them.
pub enum Probe {
    /// A freshly prepared graph (topo order, SP recognition, reduction).
    Prepared(Arc<TaskGraph>),
    /// A patch: the base instance and the edits applied to it.
    Patched(Arc<PreparedInstance>, Vec<GraphEdit>),
}

/// Span names recorded by [`Mirror::probe`], outside any request.
pub const PROBES: [&str; 4] = [
    "analysis.topo",
    "sp.recognize",
    "analysis.reduction",
    "edit.apply",
];

/// One worker's worth of daemon state, in process.
pub struct Mirror {
    cache: InstanceCache,
    engine: Engine,
    store: Option<Store>,
    /// Span recorder (traced replays only).
    pub tracer: Option<Tracer>,
}

impl Mirror {
    /// A mirror with cache budgets `cache` (the daemon's are
    /// `CacheConfig::default()`), optionally writing through to a store
    /// in `store_dir` (fsync off, as the daemon's default). Untraced
    /// until a [`Tracer`] is attached.
    pub fn new(store_dir: Option<&Path>, cache: CacheConfig) -> std::io::Result<Mirror> {
        let store = match store_dir {
            Some(dir) => Some(Store::open(dir, false)?),
            None => None,
        };
        Ok(Mirror {
            cache: InstanceCache::new(cache),
            engine: Engine::new(POWER).threads(1),
            store,
            tracer: None,
        })
    }

    /// Handle one job as request `id`; returns the decoded response and
    /// the probe inputs the request produced.
    pub fn handle(&mut self, id: u64, job: &Job) -> (Response, Option<Probe>) {
        let request = (*job.request).clone();
        let Mirror {
            cache,
            engine,
            store,
            tracer,
        } = self;
        if let Some(t) = tracer.as_mut() {
            t.request = id;
            t.n = job.n;
        }
        let frame = span(tracer, "proto.request_encode", |_| {
            RequestEnvelope::new(id, request).encode()
        });
        count(tracer, "proto.request_bytes", frame.len() as f64);
        let env = span(tracer, "proto.request_decode", |_| {
            RequestEnvelope::decode(&frame)
        });
        let env = match env {
            Ok(env) => env,
            Err(e) => return (Response::Error(e), None),
        };
        let mut probe = None;
        let response = match env.request {
            Request::Solve {
                graph,
                model,
                deadline,
            } => {
                let key = span(tracer, "key.content_key", |_| content_key(&graph, &model));
                let (inst, outcome, prep_ns) = lookup(cache, tracer, key, &model, graph);
                if outcome == Prepared::Built {
                    probe = Some(Probe::Prepared(inst.graph_arc()));
                    if let Some(store) = store.as_ref() {
                        span(tracer, "store.save", |_| {
                            store.save(key, &model, &inst, None)
                        })
                        .ok();
                    }
                }
                let warm = cache.warm_slot(key);
                let t0 = Instant::now();
                let solved = solve(engine, tracer, &inst, &model, deadline, warm.as_ref());
                let solve_ns = t0.elapsed().as_nanos() as u64;
                match solved {
                    Ok((energy, algorithm, makespan)) => Response::Solve(SolveReport {
                        energy,
                        algorithm: algorithm.to_string(),
                        makespan,
                        solve_ns,
                        prep_ns,
                        cached: outcome != Prepared::Built,
                        worker: 0,
                    }),
                    Err(e) => Response::Error(ErrorBody::from(&e)),
                }
            }
            Request::EnergyCurve {
                graph,
                model,
                lo,
                hi,
                exact: true,
                ..
            } => {
                let key = span(tracer, "key.content_key", |_| content_key(&graph, &model));
                let (inst, outcome, _) = lookup(cache, tracer, key, &model, graph);
                if outcome == Prepared::Built {
                    probe = Some(Probe::Prepared(inst.graph_arc()));
                }
                curve(
                    cache,
                    engine,
                    store.as_ref(),
                    tracer,
                    &inst,
                    &model,
                    key,
                    lo,
                    hi,
                )
            }
            Request::Patch {
                base,
                edits,
                deadline,
            } => {
                let base_inst = cache.peek(base);
                if let Some(b) = &base_inst {
                    span(tracer, "key.patched_key", |_| {
                        patched_key(base, b.graph(), &edits)
                    });
                }
                let before = taskgraph::profiling::counts();
                let patched = span(tracer, "cache.patch", |_| cache.patch(base, &edits));
                let delta = taskgraph::profiling::counts() - before;
                count(tracer, "edit.sp_splice", delta.sp_splice as f64);
                count(tracer, "edit.sp_splice_miss", delta.sp_splice_miss as f64);
                count(tracer, "edit.cone_nodes", delta.cone_nodes as f64);
                count(tracer, "edit.patches", 1.0);
                if !edits.iter().all(GraphEdit::is_weight_only) {
                    count(tracer, "edit.structural", 1.0);
                }
                match patched {
                    Err(e) => Response::Error(ErrorBody::new(
                        reclaim_service::ErrorKind::BadRequest,
                        format!("{e:?}"),
                    )),
                    Ok(p) => {
                        if let Some(b) = base_inst {
                            probe = Some(Probe::Patched(b, edits.clone()));
                        }
                        if let Some(store) = store.as_ref() {
                            span(tracer, "store.record_patch", |_| {
                                store.record_patch(base, &edits, p.key)
                            })
                            .ok();
                            span(tracer, "store.save", |_| {
                                store.save(p.key, &p.model, &p.inst, None)
                            })
                            .ok();
                        }
                        let t0 = Instant::now();
                        let solved =
                            solve(engine, tracer, &p.inst, &p.model, deadline, Some(&p.warm));
                        let solve_ns = t0.elapsed().as_nanos() as u64;
                        match solved {
                            Ok((energy, algorithm, makespan)) => Response::Patch(PatchReport {
                                report: SolveReport {
                                    energy,
                                    algorithm: algorithm.to_string(),
                                    makespan,
                                    solve_ns,
                                    prep_ns: p.prep_ns,
                                    cached: true,
                                    worker: 0,
                                },
                                key: p.key,
                                warm_lp: algorithm == "vdd-lp-warm",
                            }),
                            Err(e) => Response::Error(ErrorBody::from(&e)),
                        }
                    }
                }
            }
            other => Response::Error(ErrorBody::new(
                reclaim_service::ErrorKind::BadRequest,
                format!("the benchmark does not replay {other:?}"),
            )),
        };
        let out = ResponseEnvelope {
            version: env.version,
            id,
            response,
        };
        let frame = span(tracer, "proto.response_encode", |_| out.encode());
        let back = span(tracer, "proto.response_decode", |_| {
            ResponseEnvelope::decode(&frame)
        });
        let response = match back {
            Ok(env) => env.response,
            Err(e) => Response::Error(e),
        };
        (response, probe)
    }

    /// Time the calls a cache method makes internally, by repeating
    /// them on the probe's inputs (outside the request's spans).
    pub fn probe(&mut self, probe: &Probe) {
        let mut tr = self.tracer.take();
        if tr.is_none() {
            return;
        }
        match probe {
            Probe::Prepared(g) => {
                span(&mut tr, "analysis.topo", |_| analysis::topo_order(g));
                span(&mut tr, "sp.recognize", |_| SpTree::from_graph(g));
                span(&mut tr, "analysis.reduction", |_| {
                    analysis::transitive_reduction(g)
                });
            }
            Probe::Patched(base, edits) => {
                span(&mut tr, "edit.apply", |_| {
                    let p = base.apply(edits).expect("edits applied once already");
                    if !edits.iter().all(GraphEdit::is_weight_only) {
                        p.warm();
                    }
                });
            }
        }
        self.tracer = tr;
    }
}

/// `get_or_prepare`, with preparation spanned inside the lookup.
fn lookup(
    cache: &InstanceCache,
    tracer: &mut Option<Tracer>,
    key: u128,
    model: &EnergyModel,
    graph: TaskGraph,
) -> (Arc<PreparedInstance>, Prepared, u64) {
    let t0 = Instant::now();
    let (inst, outcome) = span(tracer, "cache.lookup", |tr| {
        cache.get_or_prepare(key, model, || {
            span(tr, "prepared.prepare", |_| {
                let p = PreparedInstance::new(Arc::new(graph));
                p.warm();
                p
            })
        })
    });
    let prep_ns = if outcome == Prepared::Built {
        t0.elapsed().as_nanos() as u64
    } else {
        0
    };
    (inst, outcome, prep_ns)
}

/// Take the entry's Vdd handle out of its slot for the duration of `f`
/// (the daemon's discipline: the LP runs unlocked).
fn with_warm<T>(slot: Option<&WarmSlot>, f: impl FnOnce(&mut Option<VddWarm>) -> T) -> T {
    let Some(slot) = slot else {
        return f(&mut None);
    };
    let mut warm = slot.lock().map(|mut g| g.take()).unwrap_or(None);
    let out = f(&mut warm);
    if let Some(handle) = warm {
        if let Ok(mut g) = slot.lock() {
            *g = Some(handle);
        }
    }
    out
}

/// Solve through the family's public entry; validate; return
/// `(energy, algorithm, makespan)`.
fn solve(
    engine: &Engine,
    tracer: &mut Option<Tracer>,
    inst: &PreparedInstance,
    model: &EnergyModel,
    deadline: f64,
    warm: Option<&WarmSlot>,
) -> Result<(f64, &'static str, f64), SolveError> {
    let view = inst.view();
    let g = inst.graph();
    let before = reclaim_core::engine::profiling::counts();
    let (schedule, algorithm) = match model {
        EnergyModel::VddHopping(_) => with_warm(warm, |w| {
            let name = if w.is_some() {
                "lp.warm_resolve"
            } else {
                "lp.vdd_solve"
            };
            span(tracer, name, |_| {
                engine.solve_warm(&view, model, deadline, w)
            })
            .map(|s| (s.schedule, s.algorithm))
        })?,
        EnergyModel::Continuous { s_max } if view.shape() == Shape::General => {
            let mut chain = SweepWarm::new();
            let speeds = span(tracer, "convex.barrier", |_| {
                continuous::solve_general_warm(
                    &view, deadline, None, *s_max, POWER, None, &mut chain,
                )
            })?;
            count(
                tracer,
                "convex.newton_steps",
                chain.stats.newton_steps as f64,
            );
            count(tracer, "convex.solves", 1.0);
            (schedule_from_speeds(&view, &speeds), "continuous")
        }
        EnergyModel::Continuous { .. } => span(tracer, "engine.closed_form", |_| {
            engine.solve(&view, model, deadline)
        })
        .map(|s| (s.schedule, s.algorithm))?,
        _ => span(tracer, "discrete.round_up", |_| {
            engine.solve(&view, model, deadline)
        })
        .map(|s| (s.schedule, s.algorithm))?,
    };
    let delta = reclaim_core::engine::profiling::counts() - before;
    count(tracer, "engine.warm_lost", delta.warm_lost as f64);
    count(tracer, "engine.bnb_nodes", delta.bnb_nodes as f64);
    span(tracer, "schedule.validate", |_| {
        schedule.validate(g, model, deadline)
    })
    .map_err(|e| SolveError::Numerical(format!("produced schedule invalid: {e}")))?;
    Ok((schedule.energy(g, POWER), algorithm, schedule.makespan(g)))
}

/// The engine's constant-speed schedule for `speeds`: every task
/// starts at its earliest completion minus its duration.
fn schedule_from_speeds(view: &PreparedGraph<'_>, speeds: &[f64]) -> Schedule {
    let durations: Vec<f64> = speeds
        .iter()
        .zip(view.graph().weights())
        .map(|(&s, &w)| w / s)
        .collect();
    let ecl = view.earliest_completion(&durations);
    let starts = ecl.iter().zip(&durations).map(|(c, d)| c - d).collect();
    Schedule::new(
        starts,
        speeds.iter().map(|&s| SpeedProfile::Constant(s)).collect(),
    )
}

/// The daemon's exact-curve handler: the retained curve when the
/// factors match, else a ray walk from the retained Vdd basis.
#[allow(clippy::too_many_arguments)]
fn curve(
    cache: &InstanceCache,
    engine: &Engine,
    store: Option<&Store>,
    tracer: &mut Option<Tracer>,
    inst: &PreparedInstance,
    model: &EnergyModel,
    key: u128,
    lo: f64,
    hi: f64,
) -> Response {
    let slot = cache.curve_slot(key);
    let retained = span(tracer, "cache.lookup", |_| {
        slot.as_ref().and_then(|s| {
            let g = s.lock().ok()?;
            g.as_ref()
                .filter(|c| c.lo == lo && c.hi == hi)
                .map(|c| Arc::clone(&c.curve))
        })
    });
    if let Some(c) = retained {
        return Response::CurveExact(CurveExactReport {
            segments: c.segments.clone(),
            exact: c.exact,
            cached_curve: true,
        });
    }
    let view = inst.view();
    let result = match model {
        EnergyModel::VddHopping(_) => with_warm(cache.warm_slot(key).as_ref(), |w| {
            span(tracer, "lp.curve", |tr| {
                let walked = ray_curve(w, &view, model, lo, hi);
                match walked {
                    Some(Ok((curve, pivots))) => {
                        count(tr, "lp.ray_pivots", pivots as f64);
                        count(tr, "lp.walks", 1.0);
                        Ok(curve)
                    }
                    Some(Err(e @ SolveError::Infeasible { .. })) => Err(e),
                    _ => {
                        *w = None;
                        engine.energy_curve_exact_warm(&view, model, lo, hi, w)
                    }
                }
            })
        }),
        _ => span(tracer, "engine.closed_form", |_| {
            engine.energy_curve_exact(&view, model, lo, hi)
        }),
    };
    match result {
        Ok(curve) => {
            let curve = Arc::new(curve);
            let cached = CachedCurve {
                lo,
                hi,
                curve: Arc::clone(&curve),
            };
            if let Some(store) = store {
                span(tracer, "store.save", |_| {
                    store.save(key, model, inst, Some(&cached))
                })
                .ok();
            }
            if let Some(slot) = slot {
                if let Ok(mut g) = slot.lock() {
                    *g = Some(cached);
                }
            }
            Response::CurveExact(CurveExactReport {
                segments: curve.segments.clone(),
                exact: curve.exact,
                cached_curve: false,
            })
        }
        Err(e) => Response::Error(ErrorBody::from(&e)),
    }
}

/// Walk the exact Vdd curve from a retained basis with
/// [`VddWarm::deadline_ray`], over the deadline window the engine
/// derives from the factors. `None` when the window is empty.
fn ray_curve(
    warm: &mut Option<VddWarm>,
    view: &PreparedGraph<'_>,
    model: &EnergyModel,
    lo: f64,
    hi: f64,
) -> Option<Result<(ExactCurve, usize), SolveError>> {
    let EnergyModel::VddHopping(modes) = model else {
        return None;
    };
    let dmin = view.critical_path_weight() / modes.s_max();
    let d_lo = (lo * dmin).max(dmin);
    let d_hi = hi * dmin;
    if !(lo > 0.0 && hi > lo && d_hi > d_lo) {
        return None;
    }
    let ray = match warm.as_mut() {
        Some(handle) => handle.deadline_ray(view, d_lo, d_hi),
        None => vdd::deadline_ray_prepared(view, d_lo, d_hi, modes, POWER).map(|(ray, handle)| {
            *warm = Some(handle);
            ray
        }),
    };
    Some(ray.map(|ray| {
        let segments = ray
            .segments
            .iter()
            .map(|s| CurveSegment {
                deadline_lo: s.t_lo,
                deadline_hi: s.t_hi.min(d_hi),
                energy: CurveEnergy::Affine {
                    a: s.value_lo - s.slope * s.t_lo,
                    b: s.slope,
                },
            })
            .collect();
        let stats = CurveStats {
            lp_breakpoints: ray.breakpoints(),
            ..CurveStats::default()
        };
        (
            ExactCurve {
                segments,
                exact: true,
                stats,
            },
            ray.pivots,
        )
    }))
}
