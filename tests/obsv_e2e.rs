//! End-to-end observability: run a real workload under tracing, export
//! the Chrome trace and metrics JSON, and hold them to the exporter's own
//! validator — plus determinism: a fixed fault seed must reproduce the
//! identical retry counters run over run.
//!
//! The workload is the paper's file-vs-memory comparison at a 3:1
//! producer:consumer fan-in (Fig. 5's shape): the same grid exchange runs
//! once over in-memory transport and once through a shared file, each
//! under its own registry, and both traces must validate — round-trip
//! JSON, strict per-track span nesting, non-negative durations, and every
//! world rank present as a track.

use std::sync::Arc;

use bench::workload::Workload;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Vol, H5};
use obsv::validate::validate_chrome_trace;
use simmpi::{TaskComm, TaskSpec, TaskWorld, World};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

fn grid_bytes(w: &Workload, bb: &minih5::BBox) -> Vec<u8> {
    w.grid_values(bb).iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// One observed 3:1 exchange; `memory` picks the transport. Returns the
/// registry's report.
fn run_observed_exchange(memory: bool, file: &str) -> obsv::Report {
    let w = Workload { producers: 3, consumers: 1, grid_per_prod: 48, particles_per_prod: 8 };
    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    let file = file.to_string();
    TaskWorld::builder(&specs).observe(reg.clone()).run(move |tc| {
        // Same wrapping `orchestra::Workflow` applies: the whole body is
        // one Task span, so even a rank whose transport work is pure
        // storage I/O (file mode) owns a track in the trace.
        let _task = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
        let mut props = LowFiveProps::new();
        if !memory {
            props.set_memory("*", false).set_passthrough("*", true);
        }
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers)
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file(&file).unwrap();
            let d = f
                .create_dataset(
                    "grid",
                    minih5::Datatype::UInt64,
                    minih5::Dataspace::simple(&w.grid_dims()),
                )
                .unwrap();
            d.write_bytes(
                &w.producer_grid_sel(p),
                grid_bytes(&w, &w.producer_grid_box(p)).into(),
                minih5::Ownership::Shallow,
            )
            .unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file(&file).unwrap();
            let got = f.open_dataset("grid").unwrap().read_bytes(&w.consumer_grid_sel(0)).unwrap();
            assert_eq!(got[..], grid_bytes(&w, &w.consumer_grid_box(0))[..]);
            f.close().unwrap();
        }
    });
    reg.report()
}

#[test]
fn chrome_trace_validates_for_memory_and_file_transport() {
    let dir = std::env::temp_dir().join(format!("lf-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shared = dir.join("e2e.nh5").to_str().unwrap().to_string();

    for (memory, file) in [(true, "e2e-mem.h5"), (false, shared.as_str())] {
        let report = run_observed_exchange(memory, file);
        let trace = report.chrome_trace();
        let summary = validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("memory={memory}: invalid trace: {e}"));
        // Every world rank must be declared *and* have at least one span.
        assert_eq!(summary.ranks_declared, vec![0, 1, 2, 3], "memory={memory}");
        assert_eq!(summary.ranks_with_spans, vec![0, 1, 2, 3], "memory={memory}");
        assert!(summary.spans > 0);

        // The flat metrics JSON must parse and carry the same counters.
        let metrics = obsv::json::parse(&report.metrics_json()).expect("metrics parse");
        assert_eq!(
            metrics.get("schema").and_then(|v| v.as_str()),
            Some(obsv::export::METRICS_SCHEMA)
        );
        let msgs = metrics
            .get("counters")
            .and_then(|c| c.get("msgs_sent"))
            .and_then(|v| v.as_u64())
            .expect("msgs_sent counter");
        assert_eq!(msgs, report.counter(obsv::Ctr::MsgsSent));

        // Memory mode streams via query/fetch; file mode never should.
        let fetched = report.hist(obsv::Hist::BytesFetched);
        if memory {
            assert!(fetched.count > 0, "memory transport must fetch remotely");
        } else {
            assert_eq!(fetched.count, 0, "file transport reads from storage, not peers");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Determinism under injected faults: the same seed must reproduce the
/// identical retry/timeout counters (a single client-server pair keeps
/// the drop pattern replayable).
#[test]
fn fixed_fault_seed_reproduces_retry_counters() {
    use diyblk::{RetryPolicy, RpcClient, RpcServer, ServeOutcome};
    use simmpi::FaultPlan;

    let run = || {
        let reg = obsv::Registry::new();
        World::builder(2)
            .fault_plan(FaultPlan::new(0x5EED).drop_once(1.0))
            .observe(reg.clone())
            .run_chaos(|comm| {
                if comm.rank() == 0 {
                    RpcServer::new(&comm).serve(|_caller, method, args| {
                        if method == 1 {
                            ServeOutcome::Stop(None)
                        } else {
                            ServeOutcome::Reply(args)
                        }
                    });
                } else {
                    let client = RpcClient::new(&comm);
                    let policy = RetryPolicy::new(6, std::time::Duration::from_millis(150));
                    let echoed = client.call_retry(0, 0, b"deterministic?", policy).unwrap();
                    assert_eq!(&echoed[..], b"deterministic?");
                    client.notify(0, 1, b"");
                }
            });
        let report = reg.report();
        (
            report.counter(obsv::Ctr::RpcRetries),
            report.counter(obsv::Ctr::RpcTimeouts),
            report.counter(obsv::Ctr::RpcCalls),
        )
    };

    let first = run();
    let second = run();
    assert!(first.0 > 0, "drop_once(1.0) must force at least one retry");
    assert_eq!(first, second, "same seed, same counters: {first:?} vs {second:?}");
}
