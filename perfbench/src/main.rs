//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --reclaimd PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives a real `reclaimd` child process with one seeded closed-loop
//! workload (`hot-cache`, `cold-solve`, `edit-stream`), checks every
//! answer against an in-process reference, and prints the end-to-end
//! metrics (`--trace 0`), or replays the same stream in process with
//! spans around each layer's calls and prints the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object;
//! see `README.md` beside this crate.

mod check;
mod loadgen;
mod metrics;
mod replay;
mod workload;

#[cfg(test)]
mod selftest;

use check::Answer;
use loadgen::{run_phase, uses_store, Daemon, Phase, RunDir};
use metrics::{quantile, scaling_exponent, Outcome, END_TO_END, PER_LAYER};
use reclaim_service::proto::StatsReport;
use reclaim_service::CacheConfig;
use replay::{Mirror, Tracer, PROBES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Family, Job, Scale, Stream, Workload};

/// Daemon start-ups per run; `setup_s` is their median.
/// Daemon lifetimes per run. Each starts a fresh `reclaimd`, sets it
/// up, and drives the stream from its start for a third of the run;
/// `setup_s` is the median over them, `peak_rss_mb` the highest, and throughput
/// and latency pool their timed windows.
const LIVES: usize = 3;
/// Timed frames folded into the printed stream digest.
const DIGEST_FRAMES: usize = 64;
/// Cache budget of the reference replays: enough for edit-stream's
/// chains; cold-solve instances never repeat, so more would only hold
/// memory.
const REFERENCE_CACHE: CacheConfig = CacheConfig {
    max_entries: 8,
    max_bytes: 256 << 20,
};

/// Timed requests the traced replay covers, per workload.
fn replay_cap(wl: Workload) -> usize {
    match wl {
        Workload::HotCache => 3000,
        Workload::ColdSolve => 24,
        Workload::EditStream => 1500,
    }
}

struct Args {
    reclaimd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut reclaimd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--reclaimd" => reclaimd = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or("--seconds needs an integer >= 1")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        reclaimd: reclaimd.ok_or("--reclaimd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --reclaimd PATH --workload hot-cache|cold-solve|edit-stream \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Tally of checked answers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        if self.failed < 3 {
            println!("  failure: {why}");
        }
        self.failed += 1;
        // Group by the message's leading words, so one defect is one line.
        let head: String = why.split_whitespace().take(4).collect::<Vec<_>>().join(" ");
        *self.reasons.entry(head).or_insert(0) += 1;
    }

    /// Check every request of a phase; `want(i)` is the reference for
    /// the phase's `i`-th request.
    fn phase(
        &mut self,
        wl: Workload,
        phase: &Phase,
        timed: bool,
        want: impl Fn(usize) -> Option<Answer>,
    ) {
        if let Some(e) = &phase.error {
            self.fail(format!("transport failure: {e}"));
        }
        for (i, s) in phase.sent.iter().enumerate() {
            self.attempted += 1;
            let Some(got) = &s.answer else {
                self.fail("missing response".into());
                continue;
            };
            let Some(reference) = want(i) else {
                self.fail("no reference".into());
                continue;
            };
            if let Err(e) = check::check(wl, &s.job, timed, got, &reference) {
                self.fail(e);
            }
        }
    }
}

/// Hot-cache references: per setup job, and `(solve, curve)` per pool slot.
type PoolReferences = (Vec<Answer>, Vec<(Answer, Answer)>);

/// One reference thread's `(index, answer)` pairs and its spans.
type LaneReplay = (Vec<(usize, Answer)>, Option<Tracer>);

/// References for hot-cache: the answers to each setup job and to one
/// timed solve and curve per pool slot, computed in process before any
/// daemon starts.
fn pool_references(stream: &Stream) -> Result<PoolReferences, String> {
    let mut m = Mirror::new(None, CacheConfig::default()).map_err(|e| e.to_string())?;
    let setup: Vec<Answer> = stream
        .setup()
        .iter()
        .map(|j| Answer::of(&m.handle(0, j).0))
        .collect();
    let timed = stream
        .pool()
        .iter()
        .map(|(s, c)| (Answer::of(&m.handle(0, s).0), Answer::of(&m.handle(0, c).0)))
        .collect();
    Ok((setup, timed))
}

/// References for cold-solve and edit-stream: replay `setup ++ timed`
/// in process on two threads (cold-solve jobs split by index, patch
/// chains kept whole on one thread), in stream order per thread.
///
/// With `traced`, the timed jobs are also spanned (and probed), and the
/// `(span, n, ns)` samples of the layers the scaling fits use come back.
fn replay_references(
    setup: &[Job],
    timed: &[&Job],
    traced: bool,
) -> (Vec<Answer>, Vec<(&'static str, usize, f64)>) {
    let all: Vec<&Job> = setup.iter().chain(timed.iter().copied()).collect();
    let lane = |i: usize, j: &Job| j.chain.unwrap_or(i) % 2;
    let mut out: Vec<Option<Answer>> = vec![None; all.len()];
    let mut samples = Vec::new();
    let results: Vec<LaneReplay> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let all = &all;
                s.spawn(move || {
                    let mut m = Mirror::new(None, REFERENCE_CACHE).expect("store-less mirror");
                    let mut answers = Vec::new();
                    for (i, j) in all.iter().enumerate().filter(|(i, j)| lane(*i, j) == t) {
                        if traced && i >= setup.len() && m.tracer.is_none() {
                            m.tracer = Some(Tracer::new());
                        }
                        let (resp, probe) = m.handle(i as u64 + 1, j);
                        if let Some(p) = probe {
                            m.probe(&p);
                        }
                        answers.push((i, Answer::of(&resp)));
                    }
                    (answers, m.tracer.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for (answers, tracer) in results {
        for (i, a) in answers {
            out[i] = Some(a);
        }
        if let Some(t) = tracer {
            samples.extend(
                t.spans
                    .iter()
                    .filter(|s| FITS.iter().any(|f| f.1 == s.name))
                    .map(|s| (s.name, s.n, (s.end - s.start) as f64)),
            );
        }
    }
    let answers = out
        .into_iter()
        .map(|a| a.unwrap_or_else(|| Answer::Other("not replayed".into())))
        .collect();
    (answers, samples)
}

/// The scaling fits: `(metric, span whose time is fitted against n)`.
const FITS: [(&str, &str); 3] = [
    ("convex.scaling_exponent", "convex.barrier"),
    ("lp.scaling_exponent", "lp.vdd_solve"),
    ("sp.scaling_exponent", "sp.recognize"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One daemon lifetime: spawn, setup, one timed segment, shutdown.
struct Life {
    setup: Phase,
    /// Spawn to the end of the warm-up requests.
    setup_s: f64,
    timed: Phase,
    /// End of the timed window.
    until: Instant,
    before: StatsReport,
    after: Option<StatsReport>,
    peak_rss: f64,
    shutdown: Result<(), String>,
}

/// Start a fresh daemon, warm it with the stream's setup jobs, and
/// drive the stream from its start for `segment`.
fn live(
    args: &Args,
    scale: Scale,
    dir: &Path,
    workers: usize,
    segment: Duration,
) -> Result<Life, String> {
    let mut stream = Stream::new(args.workload, args.seed, scale);
    let t0 = Instant::now();
    let mut d = Daemon::spawn(&args.reclaimd, dir, workers, uses_store(args.workload))?;
    let setup = run_phase(&mut d.client, workers, stream.setup().to_vec(), None);
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(e) = &setup.error {
        return Err(format!("setup failed: {e}"));
    }
    let before = d.stats()?;
    let until = Instant::now() + segment;
    let timed = run_phase(
        &mut d.client,
        workers,
        Vec::new(),
        Some((&mut stream, until)),
    );
    let after = d.stats().ok();
    let peak_rss = d.peak_rss_mb().unwrap_or(0.0);
    let shutdown = d.shutdown();
    Ok(Life {
        setup,
        setup_s,
        timed,
        until,
        before,
        after,
        peak_rss,
        shutdown,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let wl = args.workload;
    let scale = Scale::Full;
    // `reclaimd --workers` and the pipeline window are both nproc.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} workers={workers} window={workers}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let digest = Stream::digest(wl, args.seed, scale, DIGEST_FRAMES);
    let stream = Stream::new(wl, args.seed, scale);
    println!(
        "stream digest {digest:016x} over {} setup + {DIGEST_FRAMES} timed frames",
        stream.setup().len()
    );
    let pool_refs = match wl {
        Workload::HotCache => Some(pool_references(&stream)?),
        _ => None,
    };

    // The daemon lifetimes, each replaying the stream from its start.
    let dir = RunDir::new(wl.name()).map_err(|e| format!("run directory: {e}"))?;
    let segment = Duration::from_secs_f64(args.seconds as f64 / LIVES as f64);
    let lives = (0..LIVES)
        .map(|k| {
            let ldir = dir.0.join(format!("life{k}"));
            std::fs::create_dir_all(&ldir).map_err(|e| e.to_string())?;
            live(args, scale, &ldir, workers, segment)
        })
        .collect::<Result<Vec<Life>, String>>()?;

    // Answer checks, all outside the timed windows. Every life sent a
    // prefix of one stream, so the longest prefix's references serve all.
    let mut tally = Tally::default();
    let longest: Vec<&Job> = lives
        .iter()
        .max_by_key(|l| l.timed.sent.len())
        .map(|l| l.timed.sent.iter().map(|s| &s.job).collect())
        .unwrap_or_default();
    let (setup_refs, timed_refs, fit_samples) = match &pool_refs {
        Some((setup, _)) => (setup.clone(), Vec::new(), Vec::new()),
        None => {
            // The scaling fits are over cold-solve's spread of sizes.
            let fits = args.trace && wl == Workload::ColdSolve;
            let (mut all, samples) = replay_references(stream.setup(), &longest, fits);
            let timed_part = all.split_off(stream.setup().len());
            (all, timed_part, samples)
        }
    };
    let splice_misses =
        |s: &StatsReport| -> u64 { s.workers.iter().map(|w| w.sp_splice_miss).sum() };
    for life in &lives {
        tally.phase(wl, &life.setup, false, |i| setup_refs.get(i).cloned());
        tally.phase(wl, &life.timed, true, |i| match &pool_refs {
            Some((_, pool)) => {
                let job = &life.timed.sent[i].job;
                let (solve, curve) = &pool[job.pool?];
                Some(if job.family == Family::PoolCurve {
                    curve.clone()
                } else {
                    solve.clone()
                })
            }
            None => timed_refs.get(i).cloned(),
        });
        if let Err(e) = &life.shutdown {
            tally.fail(format!("shutdown: {e}"));
        }
        match &life.after {
            Some(a) => {
                for _ in 0..splice_misses(a) - splice_misses(&life.before) {
                    tally.fail("stats shows sp_splice_miss > 0".into());
                }
            }
            None => tally.fail("stats after the timed phase failed".into()),
        }
    }

    // End-to-end metrics over the timed segments.
    let done: Vec<(&loadgen::Sent, Instant)> = lives
        .iter()
        .flat_map(|l| &l.timed.sent)
        .filter_map(|s| Some((s, s.done?)))
        .collect();
    let lat: Vec<f64> = done.iter().map(|(s, t)| ms(*t - s.sent)).collect();
    let setup_secs: Vec<f64> = lives.iter().map(|l| l.setup_s).collect();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", quantile(&setup_secs, 0.5));
    // Throughput counts the responses that arrived inside the timed
    // windows, so a slow request still in flight at a window's end
    // does not stretch the denominator.
    let in_window: usize = lives
        .iter()
        .map(|l| {
            l.timed
                .sent
                .iter()
                .filter(|s| s.done.is_some_and(|t| t <= l.until))
                .count()
        })
        .sum();
    m.insert(
        "throughput_rps",
        in_window as f64 / (segment.as_secs_f64() * LIVES as f64),
    );
    m.insert("latency_p50_ms", quantile(&lat, 0.5));
    m.insert("latency_p90_ms", quantile(&lat, 0.9));
    // A daemon's high-water mark depends on which worker thread's
    // allocator arena took the largest requests; the highest of three
    // is steadier than any one.
    let rss: Vec<f64> = lives.iter().map(|l| l.peak_rss).collect();
    m.insert("peak_rss_mb", quantile(&rss, 1.0));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "setup_s {:.4} s (median of {LIVES} daemons: {})",
        m["setup_s"],
        list(&setup_secs)
    );
    println!(
        "throughput_rps {:.2} 1/s ({in_window} answered in {LIVES} windows of {:.3} s; {} in all)",
        m["throughput_rps"],
        segment.as_secs_f64(),
        done.len(),
    );
    for l in &lives {
        let start = l.until - segment;
        let mut per_second = vec![0u64; segment.as_secs_f64().ceil() as usize];
        for t in l.timed.sent.iter().filter_map(|s| s.done) {
            if let Some(c) =
                per_second.get_mut(t.saturating_duration_since(start).as_secs() as usize)
            {
                *c += 1;
            }
        }
        println!("  answered per second: {per_second:?}");
    }
    println!(
        "latency_p50_ms {:.4} ms, latency_p90_ms {:.4} ms (samples {}, {} above p90)",
        m["latency_p50_ms"],
        m["latency_p90_ms"],
        lat.len(),
        lat.iter().filter(|&&l| l > m["latency_p90_ms"]).count()
    );
    let mut by_family: BTreeMap<Family, Vec<f64>> = BTreeMap::new();
    for ((s, _), l) in done.iter().zip(&lat) {
        by_family.entry(s.job.family).or_default().push(*l);
    }
    for (f, ls) in &by_family {
        println!(
            "  {:<15} {:>6} requests, p50 {:.4} ms, p90 {:.4} ms, max {:.4} ms",
            f.label(),
            ls.len(),
            quantile(ls, 0.5),
            quantile(ls, 0.9),
            quantile(ls, 1.0)
        );
    }
    println!(
        "peak_rss_mb {:.1} MiB (highest of {LIVES} daemons' VmHWM: {})",
        m["peak_rss_mb"],
        list(&rss)
    );
    println!(
        "failed_share {:.6} ({} of {} requests)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for (why, n) in &tally.reasons {
        println!("  failure x{n}: {why}");
    }

    let table: &[(&str, &str)] = if args.trace {
        let outside: Vec<f64> = done
            .iter()
            .filter_map(|(s, t)| {
                let inside = s.answer.as_ref()?.inside_ns()?;
                Some(((*t - s.sent).as_nanos() as f64 - inside as f64) / 1e3)
            })
            .collect();
        m.insert("daemon.outside_solve_us", quantile(&outside, 0.5));
        let (hits, lookups) = lives.iter().fold((0, 0), |(h, n), l| match &l.after {
            Some(a) => {
                let hits = a.cache.hits - l.before.cache.hits;
                (h + hits, n + hits + a.cache.misses - l.before.cache.misses)
            }
            None => (h, n),
        });
        m.insert(
            "cache.hit_ratio",
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
        );
        let k = longest.len().min(replay_cap(wl));
        traced_replay(wl, args.seed, stream.setup(), &longest[..k], &dir.0, &mut m)?;
        for (metric, span_name) in FITS {
            let samples: Vec<(usize, f64)> = fit_samples
                .iter()
                .filter(|s| s.0 == span_name)
                .map(|s| (s.1, s.2))
                .collect();
            let slope = match scaling_exponent(&samples) {
                Some((slope, lo, hi, count)) => {
                    println!("{metric} {slope:.3} (fit of {span_name} time on n = {lo}..{hi}, {count} samples)");
                    slope
                }
                None => {
                    println!(
                        "{metric} 0 (no fit: {} samples of {span_name})",
                        samples.len()
                    );
                    0.0
                }
            };
            m.insert(metric, slope);
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let outcome = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    };
    outcome.json(table)
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Replay `setup` (untimed) then `jobs` in process without spans; the
/// summed per-request wall.
fn plain_replay(setup: &[Job], jobs: &[&Job], store: Option<&Path>) -> Result<Duration, String> {
    let mut mirror = Mirror::new(store, CacheConfig::default()).map_err(|e| e.to_string())?;
    for (i, j) in setup.iter().enumerate() {
        mirror.handle(i as u64 + 1, j);
    }
    let mut wall = Duration::ZERO;
    for (i, j) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        mirror.handle((setup.len() + i) as u64 + 1, j);
        wall += t0.elapsed();
    }
    Ok(wall)
}

/// Replay `setup` (untimed) then `jobs` in process, plain before and
/// after a traced pass, and derive the per-layer metrics into `m`.
fn traced_replay(
    wl: Workload,
    seed: u64,
    setup: &[Job],
    jobs: &[&Job],
    dir: &Path,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let store_dir = |tag: &str| uses_store(wl).then(|| dir.join(tag));
    let plain_before = plain_replay(setup, jobs, store_dir("plain-store-1").as_deref())?;
    // Traced: spans around every call; probes run outside the wall.
    let sd = store_dir("traced-store");
    let mut mirror =
        Mirror::new(sd.as_deref(), CacheConfig::default()).map_err(|e| e.to_string())?;
    for (i, j) in setup.iter().enumerate() {
        mirror.handle(i as u64 + 1, j);
    }
    mirror.tracer = Some(Tracer::new());
    let store_before = sd.as_deref().map_or(0, dir_bytes);
    let mut wall = Duration::ZERO;
    for (i, j) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        let (_, probe) = mirror.handle((setup.len() + i) as u64 + 1, j);
        wall += t0.elapsed();
        if let Some(p) = probe {
            mirror.probe(&p);
        }
    }
    let store_after = sd.as_deref().map_or(0, dir_bytes);
    let tracer = mirror.tracer.take().expect("traced mirror");

    // Self time per layer, over the replayed requests.
    let own = tracer.self_times();
    let mut layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, t) in tracer.spans.iter().zip(&own) {
        let e = layer.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += t;
    }
    let mean_ns = |name: &str| layer.get(name).map_or(0.0, |&(c, t)| t as f64 / c as f64);
    let covered: u64 = tracer
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| !PROBES.contains(&s.name))
        .map(|(_, t)| t)
        .sum();
    let counts = &tracer.counts;
    let c = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let per = |num: &str, den: &str| if c(den) > 0.0 { c(num) / c(den) } else { 0.0 };
    let us = 1e3;
    let msec = 1e6;
    for (metric, span_name, scale) in [
        ("proto.request_encode_us", "proto.request_encode", us),
        ("proto.request_decode_us", "proto.request_decode", us),
        ("proto.response_encode_us", "proto.response_encode", us),
        ("proto.response_decode_us", "proto.response_decode", us),
        ("key.content_key_us", "key.content_key", us),
        ("key.patched_key_us", "key.patched_key", us),
        ("cache.lookup_us", "cache.lookup", us),
        ("cache.patch_us", "cache.patch", us),
        ("prepared.prepare_ms", "prepared.prepare", msec),
        ("sp.recognize_ms", "sp.recognize", msec),
        ("analysis.topo_us", "analysis.topo", us),
        ("analysis.reduction_ms", "analysis.reduction", msec),
        ("edit.apply_us", "edit.apply", us),
        ("convex.barrier_ms", "convex.barrier", msec),
        ("discrete.round_up_ms", "discrete.round_up", msec),
        ("lp.vdd_solve_ms", "lp.vdd_solve", msec),
        ("lp.warm_resolve_us", "lp.warm_resolve", us),
        ("lp.curve_ms", "lp.curve", msec),
        ("engine.closed_form_us", "engine.closed_form", us),
        ("schedule.validate_us", "schedule.validate", us),
        ("store.save_us", "store.save", us),
        ("store.record_patch_us", "store.record_patch", us),
    ] {
        m.insert(metric, mean_ns(span_name) / scale);
    }
    m.insert(
        "proto.request_bytes",
        c("proto.request_bytes") / jobs.len().max(1) as f64,
    );
    m.insert("edit.sp_splice", per("edit.sp_splice", "edit.structural"));
    m.insert("edit.sp_splice_miss", c("edit.sp_splice_miss"));
    m.insert("edit.cone_nodes", per("edit.cone_nodes", "edit.structural"));
    m.insert(
        "convex.newton_steps",
        per("convex.newton_steps", "convex.solves"),
    );
    m.insert("lp.ray_pivots", per("lp.ray_pivots", "lp.walks"));
    m.insert(
        "store.bytes_per_patch",
        if c("edit.patches") > 0.0 {
            store_after.saturating_sub(store_before) as f64 / c("edit.patches")
        } else {
            0.0
        },
    );
    drop(mirror);
    let plain_after = plain_replay(setup, jobs, store_dir("plain-store-2").as_deref())?;
    let plain_wall = (plain_before + plain_after) / 2;
    let wall_ns = wall.as_nanos() as f64;
    m.insert("trace.coverage", covered as f64 / wall_ns.max(1.0));
    m.insert(
        "trace.overhead",
        wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9) - 1.0,
    );

    let spans_path =
        PathBuf::from(".bench_run").join(format!("spans-{}-seed{seed}.tsv", wl.name()));
    tracer.write_tsv(&spans_path).map_err(|e| e.to_string())?;
    println!(
        "traced replay: {} requests, {} spans, wall {:.3} ms traced / {:.3} ms plain, coverage {:.4}; spans in {}",
        jobs.len(),
        tracer.spans.len(),
        ms(wall),
        ms(plain_wall),
        m["trace.coverage"],
        spans_path.display()
    );
    for (name, (calls, total)) in &layer {
        println!(
            "  {name:<22} {calls:>7} calls, self {:>12.3} ms",
            *total as f64 / 1e6
        );
    }
    for (name, total) in counts {
        println!("  count {name:<22} {total}");
    }
    Ok(())
}
