//! Transport accounting: the `obsv` layer and `simmpi`'s byte counters
//! are two independent views of the same traffic and must agree exactly.
//!
//! `Comm::send_internal` feeds both sinks back to back — `TransportStats`
//! (the paper's message/byte counts) and the `MsgSize` histogram — after
//! the fault layer has decided the message's fate. These tests pin that
//! identity down: histogram `sum`/`count` equal the `StatsSnapshot`
//! delta over a whole LowFive exchange, and over hand-rolled traffic with
//! known sizes the bucket placement itself is exact.

use std::sync::Arc;

use bench::workload::Workload;
use lowfive::DistVolBuilder;
use minih5::{Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld, World};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

fn grid_bytes(w: &Workload, bb: &minih5::BBox) -> Vec<u8> {
    w.grid_values(bb).iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A full in-memory LowFive exchange, observed: every payload byte the
/// world delivered must appear in the `MsgSize` histogram, once.
#[test]
fn lowfive_exchange_bytes_match_stats_snapshot() {
    let w = Workload { producers: 2, consumers: 2, grid_per_prod: 64, particles_per_prod: 16 };
    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    let out = TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file("acct.h5").unwrap();
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
            let c = tc.local.rank();
            let f = h5.open_file("acct.h5").unwrap();
            let got = f.open_dataset("grid").unwrap().read_bytes(&w.consumer_grid_sel(c)).unwrap();
            assert_eq!(got.len(), w.consumer_grid_box(c).npoints() as usize * 8);
            f.close().unwrap();
        }
    });

    let report = reg.report();
    assert_eq!(report.dropped(), 0, "ring overflow would skew the accounting");
    assert_eq!(report.ranks(), vec![0, 1, 2, 3], "every world rank must have a lane");

    // The core identity: two independent byte counters, one truth.
    let sizes = report.hist(obsv::Hist::MsgSize);
    assert_eq!(report.counter(obsv::Ctr::MsgsSent), out.stats.messages);
    assert_eq!(report.counter(obsv::Ctr::BytesSent), out.stats.bytes);
    assert_eq!(sizes.count, out.stats.messages, "one histogram sample per message");
    assert_eq!(sizes.sum, out.stats.bytes, "histogram byte mass == StatsSnapshot bytes");
    assert_eq!(
        sizes.buckets.iter().sum::<u64>(),
        sizes.count,
        "bucket occupancies must account for every sample"
    );

    // Latency is recorded on delivery; nothing can be delivered more
    // often than it was sent.
    let lat = report.hist(obsv::Hist::MsgLatencyNs);
    assert!(
        lat.count <= out.stats.messages,
        "{} delivered > {} sent",
        lat.count,
        out.stats.messages
    );
    assert!(lat.count > 0, "a real exchange delivers messages");

    // The exchange exercises the whole stack: collectives under the
    // communicator split, RPC for metadata/data, LowFive phases on top.
    let coll_total: u64 = [
        obsv::Ctr::CollBarrier,
        obsv::Ctr::CollBcast,
        obsv::Ctr::CollGather,
        obsv::Ctr::CollScatter,
        obsv::Ctr::CollAlltoall,
        obsv::Ctr::CollAllgather,
        obsv::Ctr::CollReduce,
        obsv::Ctr::CollExscan,
    ]
    .iter()
    .map(|&c| report.counter(c))
    .sum();
    assert!(coll_total > 0, "the exchange must run at least one collective");
    let coll_lat = report.hist(obsv::Hist::CollLatencyNs);
    assert_eq!(coll_lat.count, coll_total, "one latency sample per collective call");
    assert_eq!(
        report.hist(obsv::Hist::CollBytes).count,
        coll_total,
        "one payload-size sample per collective call"
    );
    assert!(report.counter(obsv::Ctr::RpcCalls) > 0);
    let phases: Vec<&str> = report.phase_totals().iter().map(|p| p.phase.name()).collect();
    for want in ["index", "serve", "open", "query"] {
        assert!(phases.contains(&want), "phase {want:?} missing from {phases:?}");
    }
}

/// Hand-rolled traffic with known payload sizes: the histogram must place
/// each message in exactly the right power-of-two bucket.
#[test]
fn known_payload_sizes_land_in_exact_buckets() {
    let reg = obsv::Registry::new();
    // Rank 0 sends rank 1 three messages of 1, 100, and 5000 u64s
    // (8, 800, 40000 bytes).
    let lens: [usize; 3] = [1, 100, 5000];
    let out = World::builder(2)
        .observe(reg.clone())
        .run(|comm| {
            if comm.rank() == 0 {
                for (tag, n) in lens.iter().enumerate() {
                    comm.send_u64s(1, tag as u32, &vec![7u64; *n]);
                }
            } else {
                for (tag, n) in lens.iter().enumerate() {
                    let (_, got) = comm.recv_u64s(0.into(), (tag as u32).into());
                    assert_eq!(got.len(), *n);
                }
            }
        })
        .stats;

    let report = reg.report();
    let total: u64 = lens.iter().map(|n| *n as u64 * 8).sum();
    assert_eq!(out.bytes, total);
    assert_eq!(out.messages, 3);

    let sizes = report.hist(obsv::Hist::MsgSize);
    assert_eq!(sizes.count, 3);
    assert_eq!(sizes.sum, total);
    for n in lens {
        let bytes = n as u64 * 8;
        let b = obsv::hist::bucket_index(bytes);
        assert!(sizes.buckets[b] > 0, "{bytes}-byte message missing from bucket {b}");
        assert!(obsv::hist::bucket_lo(b) <= bytes && bytes <= obsv::hist::bucket_hi(b));
    }
}

/// Messages the fault layer swallows are invisible to *both* counters:
/// the histogram must not claim bytes the transport never delivered nor
/// counted.
#[test]
fn dropped_messages_stay_out_of_both_ledgers() {
    use diyblk::{RetryPolicy, RpcClient, RpcServer, ServeOutcome};
    use simmpi::FaultPlan;

    let run = |seed: u64| {
        let reg = obsv::Registry::new();
        let out = World::builder(2)
            .fault_plan(FaultPlan::new(seed).drop_once(1.0))
            .observe(reg.clone())
            .run_chaos(|comm| {
                if comm.rank() == 0 {
                    RpcServer::new(&comm).serve(|_caller, method, args| {
                        if method == 1 {
                            ServeOutcome::Stop(Some(bytes::Bytes::from_static(b"bye")))
                        } else {
                            ServeOutcome::Reply(args)
                        }
                    });
                } else {
                    let client = RpcClient::new(&comm);
                    let policy = RetryPolicy::new(5, std::time::Duration::from_millis(150));
                    let echoed = client.call_retry(0, 0, b"ping", policy).unwrap();
                    assert_eq!(&echoed[..], b"ping");
                    client.call_retry(0, 1, b"", policy).unwrap();
                }
            });
        (reg.report(), out.stats)
    };

    let (report, stats) = run(0xACC7);
    // Retries happened (the first request and/or reply was dropped) …
    assert!(report.counter(obsv::Ctr::RpcRetries) > 0, "drop_once(1.0) must force a retry");
    // … yet the two byte ledgers still agree exactly, because both are
    // updated only for messages the fault layer let through.
    let sizes = report.hist(obsv::Hist::MsgSize);
    assert_eq!(report.counter(obsv::Ctr::BytesSent), stats.bytes);
    assert_eq!(sizes.sum, stats.bytes);
    assert_eq!(sizes.count, stats.messages);
}
