//! Golden wire and disk bytes: the exact encodings of every request
//! and response variant and of the store's record payloads, pinned as
//! literal strings. Each case also decodes its pinned bytes back to
//! the value that produced them, and every `→ N` request line in
//! `docs/PROTOCOL.md` must decode and re-encode to itself at exactly
//! `N` bytes. A codec change that moves a single byte fails here.

use models::{DiscreteModes, EnergyModel, IncrementalModes};
use reclaim_core::engine::content_key;
use reclaim_core::{CurveEnergy, CurveSegment, CurveStats, ExactCurve};
use reclaim_service::cache::CachedCurve;
use reclaim_service::corpus::{CorpusEntry, CorpusJob, ShardOutcome};
use reclaim_service::proto::{
    CacheStatsReport, CurveExactReport, ErrorBody, ErrorKind, LineageHop, LineageReport,
    NetStatsReport, PatchReport, Request, RequestEnvelope, Response, ResponseEnvelope, SolveReport,
    StatsReport, StoreStatsReport, WorkerStatsReport,
};
use reclaim_service::store::Store;
use std::path::PathBuf;
use std::sync::Arc;
use taskgraph::edit::GraphEdit;
use taskgraph::{PreparedInstance, TaskGraph};

const KEY_A: u128 = 0x36bd_06bc_a277_3179_37d0_2054_da46_d064;
const KEY_B: u128 = 0xdead_beef_0123_4567_89ab_cdef_0000_0001;

fn graph() -> TaskGraph {
    TaskGraph::new(vec![2.0, 4.5, 0.1 + 0.2], &[(0, 1), (0, 2)]).unwrap()
}

fn vdd() -> EnergyModel {
    EnergyModel::VddHopping(DiscreteModes::new(&[0.8, 1.6, 2.4]).unwrap())
}

fn all_edits() -> Vec<GraphEdit> {
    vec![
        GraphEdit::SetWeight {
            task: 1,
            weight: 3.5,
        },
        GraphEdit::InsertEdge { from: 0, to: 2 },
        GraphEdit::RemoveEdge { from: 0, to: 1 },
        GraphEdit::AddTask {
            weight: 1.0,
            preds: vec![0, 1],
            succs: vec![2],
        },
        GraphEdit::RemoveTask { task: 2 },
    ]
}

fn request_cases() -> Vec<(RequestEnvelope, &'static str)> {
    let solve = Request::Solve {
        graph: graph(),
        model: EnergyModel::continuous(2.0),
        deadline: 8.25,
    };
    vec![
        (
            RequestEnvelope::new(1, solve.clone()),
            r#"{"v":1,"id":1,"type":"solve","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"continuous","s_max":2},"deadline":8.25}"#,
        ),
        (
            RequestEnvelope::new(2, solve)
                .with_timeout_ms(Some(250))
                .with_as_of(Some(3)),
            r#"{"v":5,"id":2,"timeout_ms":250,"as_of":3,"type":"solve","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"continuous","s_max":2},"deadline":8.25}"#,
        ),
        (
            RequestEnvelope::new(
                3,
                Request::SolveDeadlines {
                    graph: graph(),
                    model: EnergyModel::continuous_unbounded(),
                    deadlines: vec![4.0, 5.5, 1e-7],
                },
            ),
            r#"{"v":1,"id":3,"type":"solve_deadlines","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"continuous"},"deadlines":[4,5.5,0.0000001]}"#,
        ),
        (
            RequestEnvelope::new(
                4,
                Request::EnergyCurve {
                    graph: graph(),
                    model: EnergyModel::Discrete(DiscreteModes::new(&[1.0, 2.0]).unwrap()),
                    points: 8,
                    lo: 1.05,
                    hi: 4.0,
                    exact: false,
                },
            ),
            r#"{"v":1,"id":4,"type":"energy_curve","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"discrete","speeds":[1,2]},"points":8,"lo":1.05,"hi":4}"#,
        ),
        (
            RequestEnvelope::new(
                5,
                Request::EnergyCurve {
                    graph: graph(),
                    model: vdd(),
                    points: 8,
                    lo: 1.05,
                    hi: 3.0,
                    exact: true,
                },
            )
            .with_timeout_ms(Some(0))
            .with_as_of(Some(1)),
            r#"{"v":5,"id":5,"timeout_ms":0,"as_of":1,"type":"energy_curve","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"vdd","speeds":[0.8,1.6,2.4]},"points":8,"lo":1.05,"hi":3,"exact":true}"#,
        ),
        (
            RequestEnvelope::new(
                6,
                Request::Batch {
                    model: EnergyModel::Incremental(IncrementalModes::new(0.5, 2.0, 0.25).unwrap()),
                    jobs: vec![(graph(), 6.0), (graph(), 9.5)],
                },
            ),
            r#"{"v":1,"id":6,"type":"batch","model":{"kind":"incremental","s_min":0.5,"s_max":2,"delta":0.25},"jobs":[{"graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"deadline":6},{"graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"deadline":9.5}]}"#,
        ),
        (
            RequestEnvelope::new(
                7,
                Request::Patch {
                    base: KEY_A,
                    edits: all_edits(),
                    deadline: 7.5,
                },
            ),
            r#"{"v":2,"id":7,"type":"patch","base":"0x36bd06bca277317937d02054da46d064","edits":[{"op":"set_weight","task":1,"weight":3.5},{"op":"insert_edge","from":0,"to":2},{"op":"remove_edge","from":0,"to":1},{"op":"add_task","weight":1,"preds":[0,1],"succs":[2]},{"op":"remove_task","task":2}],"deadline":7.5}"#,
        ),
        (
            RequestEnvelope::new(
                8,
                Request::Corpus {
                    shards: 2,
                    jobs: vec![
                        CorpusJob {
                            name: "a \"quoted\"\\name.inst".into(),
                            graph: graph(),
                            model: EnergyModel::continuous_unbounded(),
                            deadline: 6.0,
                        },
                        CorpusJob {
                            name: "b.inst".into(),
                            graph: graph(),
                            model: vdd(),
                            deadline: 4.5,
                        },
                    ],
                },
            ),
            r#"{"v":4,"id":8,"type":"corpus","shards":2,"jobs":[{"name":"a \"quoted\"\\name.inst","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"continuous"},"deadline":6},{"name":"b.inst","graph":{"weights":[2,4.5,0.30000000000000004],"edges":[[0,1],[0,2]]},"model":{"kind":"vdd","speeds":[0.8,1.6,2.4]},"deadline":4.5}]}"#,
        ),
        (
            RequestEnvelope::new(9, Request::Lineage { key: KEY_B }),
            r#"{"v":5,"id":9,"type":"lineage","key":"0xdeadbeef0123456789abcdef00000001"}"#,
        ),
        (
            RequestEnvelope::new(10, Request::Stats).with_timeout_ms(Some(1000)),
            r#"{"v":4,"id":10,"timeout_ms":1000,"type":"stats"}"#,
        ),
        (
            RequestEnvelope::new(11, Request::Stats),
            r#"{"v":1,"id":11,"type":"stats"}"#,
        ),
        (
            RequestEnvelope::new(12, Request::Shutdown),
            r#"{"v":1,"id":12,"type":"shutdown"}"#,
        ),
    ]
}

fn report() -> SolveReport {
    SolveReport {
        energy: 24.5,
        algorithm: "continuous".into(),
        makespan: 7.75,
        solve_ns: 12_345_678_901,
        prep_ns: 0,
        cached: true,
        worker: 3,
    }
}

fn infeasible() -> ErrorBody {
    ErrorBody {
        kind: ErrorKind::Infeasible,
        message: "too tight".into(),
        deadline: Some(1.0),
        min_makespan: Some(2.5),
    }
}

fn response_cases() -> Vec<(ResponseEnvelope, &'static str)> {
    let env = |version, id, response| ResponseEnvelope {
        version,
        id,
        response,
    };
    let stats = StatsReport {
        cache: CacheStatsReport {
            entries: 2,
            bytes: 4096,
            hits: 10,
            misses: 3,
            evictions: 1,
            patch_hits: 6,
            patch_misses: 2,
            rekeys: 5,
        },
        workers: vec![
            WorkerStatsReport {
                requests: 5,
                solves: 9,
                solve_ns: 777,
                warm_lost: 2,
                bnb_nodes: 123_456,
                bnb_steals: 7,
                bnb_cancelled: 3,
                sp_splice: 11,
                sp_splice_miss: 1,
                cone_nodes: 42,
            },
            WorkerStatsReport::default(),
        ],
        net: NetStatsReport {
            connections: 4,
            queue_depth: 1,
            inflight: 3,
            rejected: 2,
            timeouts: 1,
        },
        store: StoreStatsReport {
            entries: 7,
            bytes: 8192,
            recovered: 6,
            corrupt_skipped: 1,
            replays: 4,
        },
    };
    vec![
        (
            env(1, 1, Response::Solve(report())),
            r#"{"v":1,"id":1,"ok":true,"type":"solve","result":{"energy":24.5,"algorithm":"continuous","makespan":7.75,"solve_ns":12345678901,"prep_ns":0,"cached":true,"worker":3}}"#,
        ),
        (
            env(
                1,
                2,
                Response::Deadlines(vec![Ok(report()), Err(infeasible())]),
            ),
            r#"{"v":1,"id":2,"ok":true,"type":"solve_deadlines","result":[{"ok":true,"result":{"energy":24.5,"algorithm":"continuous","makespan":7.75,"solve_ns":12345678901,"prep_ns":0,"cached":true,"worker":3}},{"ok":false,"error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":2.5}}]}"#,
        ),
        (
            env(1, 3, Response::Curve(vec![(4.0, 10.0), (8.5, 2.5e-3)])),
            r#"{"v":1,"id":3,"ok":true,"type":"energy_curve","result":[{"deadline":4,"energy":10},{"deadline":8.5,"energy":0.0025}]}"#,
        ),
        (
            env(
                3,
                4,
                Response::CurveExact(CurveExactReport {
                    segments: vec![
                        CurveSegment {
                            deadline_lo: 2.0,
                            deadline_hi: 3.5,
                            energy: CurveEnergy::Affine { a: 40.0, b: -8.0 },
                        },
                        CurveSegment {
                            deadline_lo: 3.5,
                            deadline_hi: 8.0,
                            energy: CurveEnergy::Power { c: 96.0, p: 2.0 },
                        },
                    ],
                    exact: true,
                    cached_curve: false,
                }),
            ),
            r#"{"v":3,"id":4,"ok":true,"type":"energy_curve","result":{"exact":true,"cached_curve":false,"segments":[{"lo":2,"hi":3.5,"form":"affine","a":40,"b":-8},{"lo":3.5,"hi":8,"form":"power","c":96,"p":2}]}}"#,
        ),
        (
            env(1, 5, Response::Batch(vec![Err(infeasible()), Ok(report())])),
            r#"{"v":1,"id":5,"ok":true,"type":"batch","result":[{"ok":false,"error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":2.5}},{"ok":true,"result":{"energy":24.5,"algorithm":"continuous","makespan":7.75,"solve_ns":12345678901,"prep_ns":0,"cached":true,"worker":3}}]}"#,
        ),
        (
            env(
                2,
                6,
                Response::Patch(PatchReport {
                    report: report(),
                    key: KEY_B,
                    warm_lp: true,
                }),
            ),
            r#"{"v":2,"id":6,"ok":true,"type":"patch","result":{"energy":24.5,"algorithm":"continuous","makespan":7.75,"solve_ns":12345678901,"prep_ns":0,"cached":true,"worker":3,"key":"0xdeadbeef0123456789abcdef00000001","warm_lp":true}}"#,
        ),
        (
            env(
                4,
                7,
                Response::Corpus(vec![
                    ShardOutcome {
                        shard: 0,
                        shards: 2,
                        entries: vec![CorpusEntry {
                            name: "a.inst".into(),
                            key: 0xabc,
                            tasks: 3,
                            deadline: 6.0,
                            model: "continuous".into(),
                            result: Ok((12.5, "continuous".into())),
                        }],
                        elapsed_ns: 1_234_567,
                    },
                    ShardOutcome {
                        shard: 1,
                        shards: 2,
                        entries: vec![CorpusEntry {
                            name: "b.inst".into(),
                            key: 0xdef,
                            tasks: 3,
                            deadline: 4.5,
                            model: "vdd".into(),
                            result: Err(infeasible()),
                        }],
                        elapsed_ns: 0,
                    },
                ]),
            ),
            r#"{"v":4,"id":7,"ok":true,"type":"corpus","result":[{"shard":0,"shards":2,"elapsed_ns":1234567,"entries":[{"file":"a.inst","key":"0x00000000000000000000000000000abc","tasks":3,"deadline":6,"model":"continuous","energy":12.5,"algorithm":"continuous"}]},{"shard":1,"shards":2,"elapsed_ns":0,"entries":[{"file":"b.inst","key":"0x00000000000000000000000000000def","tasks":3,"deadline":4.5,"model":"vdd","error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":2.5}}]}]}"#,
        ),
        (
            env(
                5,
                8,
                Response::Lineage(LineageReport {
                    key: KEY_B,
                    depth: 1,
                    hops: vec![LineageHop {
                        parent: KEY_A,
                        edits: all_edits(),
                        child: KEY_B,
                    }],
                }),
            ),
            r#"{"v":5,"id":8,"ok":true,"type":"lineage","result":{"key":"0xdeadbeef0123456789abcdef00000001","depth":1,"hops":[{"parent":"0x36bd06bca277317937d02054da46d064","edits":[{"op":"set_weight","task":1,"weight":3.5},{"op":"insert_edge","from":0,"to":2},{"op":"remove_edge","from":0,"to":1},{"op":"add_task","weight":1,"preds":[0,1],"succs":[2]},{"op":"remove_task","task":2}],"child":"0xdeadbeef0123456789abcdef00000001"}]}}"#,
        ),
        (
            env(5, 9, Response::Stats(stats)),
            r#"{"v":5,"id":9,"ok":true,"type":"stats","result":{"cache":{"entries":2,"bytes":4096,"hits":10,"misses":3,"evictions":1,"patch_hits":6,"patch_misses":2,"rekeys":5},"workers":[{"requests":5,"solves":9,"solve_ns":777,"warm_lost":2,"bnb_nodes":123456,"bnb_steals":7,"bnb_cancelled":3,"sp_splice":11,"sp_splice_miss":1,"cone_nodes":42},{"requests":0,"solves":0,"solve_ns":0,"warm_lost":0,"bnb_nodes":0,"bnb_steals":0,"bnb_cancelled":0,"sp_splice":0,"sp_splice_miss":0,"cone_nodes":0}],"net":{"connections":4,"queue_depth":1,"inflight":3,"rejected":2,"timeouts":1},"store":{"entries":7,"bytes":8192,"recovered":6,"corrupt_skipped":1,"replays":4}}}"#,
        ),
        (
            env(1, 10, Response::Shutdown),
            r#"{"v":1,"id":10,"ok":true,"type":"shutdown","result":{"stopping":true}}"#,
        ),
        (
            env(5, 11, Response::Error(infeasible())),
            r#"{"v":5,"id":11,"ok":false,"error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":2.5}}"#,
        ),
        (
            env(
                1,
                0,
                Response::Error(ErrorBody::new(
                    ErrorKind::BadRequest,
                    "line\nbreak \u{1} and ünïcode",
                )),
            ),
            r#"{"v":1,"id":0,"ok":false,"error":{"kind":"bad_request","message":"line\nbreak \u0001 and ünïcode"}}"#,
        ),
    ]
}

#[test]
fn request_bytes_are_pinned() {
    let mut drift = Vec::new();
    for (env, want) in request_cases() {
        let got = env.encode();
        if got != want {
            drift.push(got);
            continue;
        }
        assert_eq!(RequestEnvelope::decode(want).unwrap(), env, "{want}");
    }
    assert!(drift.is_empty(), "encodings drifted:\n{}", drift.join("\n"));
}

/// Every request lifted to v5 with both optional envelope fields: they
/// sit between `id` and `type`, and nothing else moves.
#[test]
fn v5_envelope_fields_are_pinned() {
    for (env, want) in request_cases() {
        if env.timeout_ms.is_some() || env.as_of.is_some() {
            continue;
        }
        let head = format!(r#"{{"v":{},"id":{},"#, env.version, env.id);
        let tail = want.strip_prefix(head.as_str()).expect("pinned head");
        let want = format!(
            r#"{{"v":5,"id":{},"timeout_ms":250,"as_of":2,{tail}"#,
            env.id
        );
        let lifted = RequestEnvelope {
            version: 5,
            timeout_ms: Some(250),
            as_of: Some(2),
            ..env
        };
        assert_eq!(lifted.encode(), want);
        assert_eq!(RequestEnvelope::decode(&want).unwrap(), lifted, "{want}");
    }
}

#[test]
fn response_bytes_are_pinned() {
    let mut drift = Vec::new();
    for (env, want) in response_cases() {
        let got = env.encode();
        if got != want {
            drift.push(got);
            continue;
        }
        assert_eq!(ResponseEnvelope::decode(want).unwrap(), env, "{want}");
    }
    assert!(drift.is_empty(), "encodings drifted:\n{}", drift.join("\n"));
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reclaim-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fully warmed instance: its snapshot carries every analysis field
/// it can (topo order, shape, SP tree when series-parallel, critical
/// path, reduced edge set).
fn warmed(edges: &[(usize, usize)]) -> PreparedInstance {
    let g = TaskGraph::new(vec![1.0, 2.0, 3.5, 4.0, 0.25], edges).unwrap();
    let inst = PreparedInstance::new(Arc::new(g));
    inst.warm();
    inst
}

#[test]
fn store_record_bytes_are_pinned() {
    let dir = tmpdir("store");
    let store = Store::open(&dir, false).unwrap();
    let model = vdd();
    // A series-parallel diamond with a tail (SP tree persisted) and a
    // curve; the same tasks plus a transitive edge classify as general
    // (no SP tree, reduced edges differ from the graph's) and carry
    // no curve.
    let inst = warmed(&[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    let general = warmed(&[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4)]);
    let key = content_key(inst.graph(), &model);
    let general_key = content_key(general.graph(), &model);
    let curve = CachedCurve {
        lo: 1.05,
        hi: 4.0,
        curve: Arc::new(ExactCurve {
            segments: vec![
                CurveSegment {
                    deadline_lo: 2.0,
                    deadline_hi: 3.5,
                    energy: CurveEnergy::Affine { a: 40.0, b: -8.0 },
                },
                CurveSegment {
                    deadline_lo: 3.5,
                    deadline_hi: 8.0,
                    energy: CurveEnergy::Power { c: 96.0, p: 2.0 },
                },
            ],
            exact: true,
            stats: CurveStats::default(),
        }),
    };
    store.save(key, &model, &inst, Some(&curve)).unwrap();
    store.save(general_key, &model, &general, None).unwrap();
    let child = KEY_B;
    store.record_patch(key, &all_edits(), child).unwrap();

    let record = |key: u128| {
        let name = format!("{}.inst", reclaim_service::proto::key_to_hex(key));
        std::fs::read_to_string(dir.join("instances").join(name)).unwrap()
    };
    let got_log = std::fs::read_to_string(dir.join("lineage.log")).unwrap();
    let want_inst = concat!(
        "462\ne63b9b9ef1a588d9\n",
        r#"{"key":"0xe23512448a6e20fedc1ceb278fdd7fb7","model":{"kind":"vdd","speeds":[0.8,1.6,2.4]},"graph":{"weights":[1,2,3.5,4,0.25],"edges":[[0,1],[0,2],[1,3],[2,3],[3,4]]},"analysis":{"topo":[0,1,2,3,4],"shape":"series_parallel","sp":{"s":[0,{"p":[1,2]},3,4]},"cp_weight":8.75,"reduced":[[0,1],[0,2],[1,3],[2,3],[3,4]]},"curve":{"lo":1.05,"hi":4,"exact":true,"segments":[{"lo":2,"hi":3.5,"form":"affine","a":40,"b":-8},{"lo":3.5,"hi":8,"form":"power","c":96,"p":2}]}}"#,
        "\n"
    );
    let want_general = concat!(
        "282\n43048c40ed659746\n",
        r#"{"key":"0x027949c72ea3de6b24eb42edd216c4c1","model":{"kind":"vdd","speeds":[0.8,1.6,2.4]},"graph":{"weights":[1,2,3.5,4,0.25],"edges":[[0,1],[0,2],[1,3],[2,3],[0,3],[3,4]]},"analysis":{"topo":[0,1,2,3,4],"shape":"general","cp_weight":8.75,"reduced":[[0,1],[0,2],[1,3],[2,3],[3,4]]}}"#,
        "\n"
    );
    let want_log = concat!(
        "303\n70e8d994fa2f3988\n",
        r#"{"parent":"0xe23512448a6e20fedc1ceb278fdd7fb7","edits":[{"op":"set_weight","task":1,"weight":3.5},{"op":"insert_edge","from":0,"to":2},{"op":"remove_edge","from":0,"to":1},{"op":"add_task","weight":1,"preds":[0,1],"succs":[2]},{"op":"remove_task","task":2}],"child":"0xdeadbeef0123456789abcdef00000001"}"#,
        "\n"
    );
    assert_eq!(record(key), want_inst, "instance record drifted");
    assert_eq!(record(general_key), want_general, "instance record drifted");
    assert_eq!(got_log, want_log, "lineage record drifted");

    // The pinned bytes read back to the same instance, analyses,
    // curve and lineage.
    let loaded = store.load(key).expect("record loads");
    assert_eq!(loaded.inst.graph(), inst.graph());
    assert_eq!(loaded.inst.snapshot(), inst.snapshot());
    assert_eq!(loaded.model, model);
    let got_curve = loaded.curve.expect("curve persisted");
    assert_eq!((got_curve.lo, got_curve.hi), (curve.lo, curve.hi));
    assert_eq!(*got_curve.curve, *curve.curve);
    let loaded = store.load(general_key).expect("record loads");
    assert_eq!(loaded.inst.snapshot(), general.snapshot());
    assert!(loaded.curve.is_none());
    drop(store);
    let store = Store::open(&dir, false).unwrap();
    assert_eq!(store.parent_of(child), Some((key, all_edits())));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `→ N` request in docs/PROTOCOL.md decodes, re-encodes to the
/// same bytes, and is exactly `N` bytes long.
#[test]
fn protocol_doc_request_lines_round_trip() {
    let doc = include_str!("../../../docs/PROTOCOL.md");
    let lines: Vec<&str> = doc.lines().collect();
    let mut seen = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(len) = line.strip_prefix("→ ") else {
            continue;
        };
        let len: usize = len.trim().parse().expect("`→ N` carries a byte count");
        let payload = lines[i + 1].trim();
        let env = RequestEnvelope::decode(payload)
            .unwrap_or_else(|e| panic!("doc request does not decode: {e}\n{payload}"));
        assert_eq!(env.encode(), payload, "doc request does not re-encode");
        assert_eq!(payload.len(), len, "doc byte count is wrong: {payload}");
        seen += 1;
    }
    assert!(seen >= 8, "only {seen} `→ N` lines found");
}
