//! Smoke-scale self-tests of the benchmark itself: the metric table
//! agrees with `BENCHMARK.json` and prints every metric with its unit,
//! the answer checker is not vacuous, the traced replay accounts for no
//! more time than it took, and the stream is a function of the seed.

use crate::check::{check, Answer};
use crate::metrics::{quantile, scaling_exponent, unit_of, Outcome, END_TO_END, PER_LAYER};
use crate::replay::{Mirror, PROBES};
use crate::workload::{Family, Job, Scale, Stream, Workload};
use reclaim_service::json::{self, Json};
use reclaim_service::CacheConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_table_matches_benchmark_json() {
    let doc = benchmark_json();
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_prints_with_its_unit() {
    for table in [&END_TO_END[..], &PER_LAYER[..]] {
        let metrics: BTreeMap<&'static str, f64> = table.iter().map(|(n, _)| (*n, 1.5)).collect();
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let line =
            json::parse(&out.json(table).expect("all measured")).expect("result line parses");
        let printed = line.get("metrics").expect("metrics object");
        for (name, unit) in table {
            let m = printed
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
            assert_eq!(unit_of(name), Some(*unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        }
        if let Json::Obj(fields) = printed {
            assert_eq!(fields.len(), table.len(), "no metric outside the table");
        }
        // A metric that was never measured is an error, not a silent 0.
        let mut partial = out;
        partial.metrics.remove(table[0].0);
        assert!(partial.json(table).is_err());
    }
}

/// The setup and first `count` timed jobs of a smoke-scale stream.
fn smoke_jobs(wl: Workload, seed: u64, count: usize) -> (Vec<Job>, Vec<Job>) {
    let mut s = Stream::new(wl, seed, Scale::Smoke);
    let setup = s.setup().to_vec();
    let timed = (0..count).map(|_| s.next_job()).collect();
    (setup, timed)
}

#[test]
fn corrupted_energy_is_flagged() {
    for wl in Workload::ALL {
        let (setup, timed) = smoke_jobs(wl, 7, 12);
        let mut m = Mirror::new(None, CacheConfig::default()).unwrap();
        let mut checked = 0;
        for (i, j) in setup.iter().chain(&timed).enumerate() {
            let reference = Answer::of(&m.handle(i as u64 + 1, j).0);
            assert!(
                !matches!(reference, Answer::Other(_)),
                "{wl:?} {reference:?}"
            );
            assert!(check(wl, j, false, &reference, &reference).is_ok());
            let mut bad = reference.clone();
            if let Some(e) = bad.energy_mut() {
                // One part in a million is far outside the tolerance.
                *e *= 1.0 + 1e-6;
                assert!(
                    check(wl, j, false, &bad, &reference).is_err(),
                    "{wl:?} job {i}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "{wl:?} checked no energies");
    }
}

#[test]
fn answers_match_an_independent_mirror_and_keys_are_predicted() {
    for wl in Workload::ALL {
        let (setup, timed) = smoke_jobs(wl, 3, 40);
        let mut a = Mirror::new(None, CacheConfig::default()).unwrap();
        let mut b = Mirror::new(None, CacheConfig::default()).unwrap();
        for j in &setup {
            a.handle(0, j);
            b.handle(0, j);
        }
        for (i, j) in timed.iter().enumerate() {
            let got = Answer::of(&a.handle(i as u64, j).0);
            let want = Answer::of(&b.handle(i as u64, j).0);
            let timed_invariants = wl != Workload::HotCache;
            check(wl, j, timed_invariants, &got, &want)
                .unwrap_or_else(|e| panic!("{wl:?} job {i}: {e}"));
        }
    }
}

#[test]
fn self_times_fit_in_the_replay_wall() {
    for wl in Workload::ALL {
        let (setup, timed) = smoke_jobs(wl, 5, 30);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_run")
            .join(format!("selftest-{}-{}", std::process::id(), wl.name()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = (wl == Workload::EditStream).then(|| dir.clone());
        let mut m = Mirror::new(store.as_deref(), CacheConfig::default()).unwrap();
        for j in &setup {
            m.handle(0, j);
        }
        m.tracer = Some(crate::replay::Tracer::new());
        let mut wall = Duration::ZERO;
        for (i, j) in timed.iter().enumerate() {
            let t0 = Instant::now();
            let (_, probe) = m.handle(i as u64 + 1, j);
            wall += t0.elapsed();
            if let Some(p) = probe {
                m.probe(&p);
            }
        }
        let t = m.tracer.take().unwrap();
        let own = t.self_times();
        let covered: u64 = t
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| !PROBES.contains(&s.name))
            .map(|(_, o)| o)
            .sum();
        assert!(covered > 0, "{wl:?}: no spans");
        assert!(
            covered as u128 <= wall.as_nanos(),
            "{wl:?}: {covered} ns of self time in {wall:?}"
        );
        for (s, o) in t.spans.iter().zip(&own) {
            assert!(*o <= s.end - s.start, "self time exceeds duration");
            if let Some(p) = s.parent {
                let parent = &t.spans[p];
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "child outside parent"
                );
            }
        }
        for layer in [
            "proto.request_encode",
            "proto.request_decode",
            "schedule.validate",
        ] {
            assert!(
                t.spans.iter().any(|s| s.name == layer),
                "{wl:?}: no {layer} span"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stream_digest_is_a_function_of_the_seed() {
    for wl in Workload::ALL {
        let a = Stream::digest(wl, 11, Scale::Smoke, 16);
        assert_eq!(a, Stream::digest(wl, 11, Scale::Smoke, 16), "{wl:?}");
        assert_ne!(a, Stream::digest(wl, 12, Scale::Smoke, 16), "{wl:?}");
    }
}

#[test]
fn workload_mixes_are_as_documented() {
    let (_, hot) = smoke_jobs(Workload::HotCache, 1, 400);
    let curves = hot.iter().filter(|j| j.family == Family::PoolCurve).count();
    assert!(
        (40..120).contains(&curves),
        "{curves} curves in 400 hot-cache requests"
    );
    let (_, edit) = smoke_jobs(Workload::EditStream, 1, 400);
    for w in edit.windows(2) {
        assert_ne!(
            w[0].chain, w[1].chain,
            "consecutive jobs on one chain cannot pipeline"
        );
    }
    assert!(edit.iter().any(|j| j.family == Family::PatchCurve));
    let (_, cold) = smoke_jobs(Workload::ColdSolve, 1, 22);
    for f in [
        Family::DagContinuous,
        Family::DagDiscrete,
        Family::SpVdd,
        Family::LargeSp,
        Family::VddCurve,
    ] {
        assert!(
            cold.iter().any(|j| j.family == f),
            "{f:?} missing from cold-solve"
        );
    }
}

#[test]
fn statistics() {
    assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    let cubic: Vec<(usize, f64)> = [50, 100, 200, 400]
        .iter()
        .map(|&n| (n, (n as f64).powi(3)))
        .collect();
    let (slope, lo, hi, k) = scaling_exponent(&cubic).unwrap();
    assert!((slope - 3.0).abs() < 1e-9);
    assert_eq!((lo, hi, k), (50, 400, 4));
    assert!(scaling_exponent(&cubic[..2]).is_none());
}
