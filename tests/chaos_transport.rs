//! Chaos tests: the LowFive transport under seeded fault injection.
//!
//! Three properties, all driven by `simmpi`'s deterministic fault layer:
//!
//! 1. **Benign faults are invisible.** Delaying or reordering message
//!    delivery must not change a single redistributed byte — the
//!    index/serve/query protocol only relies on per-flow FIFO where the
//!    fault layer preserves it (collective framing).
//! 2. **A dropped message is survivable.** With a retry policy configured
//!    (`set_rpc_timeout` / `set_rpc_retries`), a consumer whose request or
//!    reply vanished resends the idempotent query and still gets exact
//!    bytes; the call-id protocol discards the stale duplicate replies.
//! 3. **A dead producer is an error, not a hang.** Killing the producer
//!    mid-serve surfaces `H5Error::PeerUnavailable` on every surviving
//!    consumer rank within the configured bounds, and the same seed
//!    reproduces the identical failure trace.

use std::sync::Arc;
use std::time::Duration;

use bench::workload::Workload;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{H5Error, Vol, H5};
use simmpi::{ChaosOutput, FaultKind, FaultPlan, TaskComm, TaskSpec, TaskWorld, TransportKind};

/// Socket re-runs are opt-in (`SIMMPI_SOCKET_CHAOS=1`): the CI
/// transport-matrix job sets the variable; plain `cargo test` skips them.
fn socket_chaos_enabled() -> bool {
    std::env::var("SIMMPI_SOCKET_CHAOS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn workload() -> Workload {
    Workload { producers: 2, consumers: 2, grid_per_prod: 64, particles_per_prod: 16 }
}

fn grid_bytes(w: &Workload, bb: &minih5::BBox) -> Vec<u8> {
    w.grid_values(bb).iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// One producer/consumer exchange of the workload's grid under `plan`.
/// Consumers return the bytes they read (producers return `Vec::new()`);
/// `props` lets tests arm the consumer-side retry policy.
fn run_exchange(w: Workload, plan: FaultPlan, props: LowFiveProps) -> ChaosOutput<Vec<u8>> {
    run_exchange_on(w, plan, props, TransportKind::from_env())
}

/// As [`run_exchange`], pinning the delivery backend (socket re-runs).
fn run_exchange_on(
    w: Workload,
    plan: FaultPlan,
    props: LowFiveProps,
    kind: TransportKind,
) -> ChaosOutput<Vec<u8>> {
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::builder(&specs).fault_plan(plan).transport(kind).run_chaos(move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props.clone())
                .consume("*", producers)
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file("chaos.h5").unwrap();
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
            Vec::new()
        } else {
            let c = tc.local.rank();
            let f = h5.open_file("chaos.h5").unwrap();
            let got = f.open_dataset("grid").unwrap().read_bytes(&w.consumer_grid_sel(c)).unwrap();
            f.close().unwrap();
            got.to_vec()
        }
    })
}

fn assert_consumer_bytes_exact(w: &Workload, out: &ChaosOutput<Vec<u8>>) {
    assert!(out.deaths.is_empty(), "no rank should die: {:?}", out.deaths);
    for c in 0..w.consumers {
        let got = out.results[w.producers + c].as_ref().expect("consumer finished");
        let want = grid_bytes(w, &w.consumer_grid_box(c));
        assert_eq!(got[..], want[..], "consumer {c} bytes must be exact under faults");
    }
}

#[test]
fn delayed_delivery_is_byte_identical() {
    let w = workload();
    let plan = FaultPlan::new(0xD31A).delay(0.4, Duration::from_millis(2));
    let out = run_exchange(w, plan, LowFiveProps::new());
    assert_consumer_bytes_exact(&w, &out);
    assert!(
        out.trace.iter().any(|e| matches!(e.kind, FaultKind::Delayed(_))),
        "the plan must actually have delayed something"
    );
}

#[test]
fn reordered_delivery_is_byte_identical() {
    let w = workload();
    let plan = FaultPlan::new(0x0DE8).delay(0.2, Duration::from_millis(1)).reorder(0.5);
    let out = run_exchange(w, plan, LowFiveProps::new());
    assert_consumer_bytes_exact(&w, &out);
}

#[test]
fn dropped_messages_recover_via_retry() {
    let w = workload();
    // Probability 1: the *first* message on every consumer↔producer
    // request/reply flow is dropped (then the ledger lets retries pass).
    // Consumers must be armed with a timeout, or the first call would
    // block forever.
    let plan = FaultPlan::new(0xD809).drop_once(1.0);
    let mut props = LowFiveProps::new();
    props.set_rpc_timeout("*", Some(Duration::from_millis(200)));
    props.set_rpc_retries("*", 4);
    let out = run_exchange(w, plan, props);
    assert_consumer_bytes_exact(&w, &out);
    assert!(
        out.trace.iter().any(|e| e.kind == FaultKind::Dropped),
        "the plan must actually have dropped something"
    );
}

/// Pipelined batch fetches survive dropped replies: with drop-once armed
/// on every flow, a consumer multi-read whose batch frames fan out to
/// both producers recovers each lost request *and* each lost reply via
/// the bounded retry machinery, and the assembled bytes stay exact.
#[test]
fn dropped_batch_reply_recovers_via_retry() {
    let w = workload();
    let plan = FaultPlan::new(0xBA7C).drop_once(1.0);
    let mut props = LowFiveProps::new();
    props.set_rpc_timeout("*", Some(Duration::from_millis(200)));
    props.set_rpc_retries("*", 4);
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    let out = TaskWorld::builder(&specs).fault_plan(plan).run_chaos(move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props.clone())
                .consume("*", producers)
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file("chaos-batch.h5").unwrap();
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
            Vec::new()
        } else {
            let c = tc.local.rank();
            let f = h5.open_file("chaos-batch.h5").unwrap();
            let d = f.open_dataset("grid").unwrap();
            // Split the consumer slab into x-chunks so the batched fetch
            // sends one multi-entry frame to each producer.
            let bb = w.consumer_grid_box(c);
            let sels: Vec<minih5::Selection> = (0..2)
                .map(|i| {
                    let mut chunk = bb.clone();
                    chunk.lo[0] = bb.hi[0] * i / 2;
                    chunk.hi[0] = bb.hi[0] * (i + 1) / 2;
                    chunk.to_selection()
                })
                .collect();
            let bufs = d.read_bytes_multi(&sels).unwrap();
            f.close().unwrap();
            bufs.iter().flat_map(|b| b.iter().copied()).collect()
        }
    });
    assert!(out.deaths.is_empty(), "no rank should die: {:?}", out.deaths);
    for c in 0..w.consumers {
        let got = out.results[w.producers + c].as_ref().expect("consumer finished");
        let bb = w.consumer_grid_box(c);
        let mut want = Vec::new();
        for i in 0..2 {
            let mut chunk = bb.clone();
            chunk.lo[0] = bb.hi[0] * i / 2;
            chunk.hi[0] = bb.hi[0] * (i + 1) / 2;
            want.extend_from_slice(&grid_bytes(&w, &chunk));
        }
        assert_eq!(got[..], want[..], "consumer {c} batched bytes exact under drops");
    }
    assert!(
        out.trace.iter().any(|e| e.kind == FaultKind::Dropped),
        "the plan must actually have dropped something"
    );
}

/// A dead producer must not wedge the rest of a pipelined fan-out: with
/// one of two producers killed mid-serve, a multi-read spanning both
/// surfaces `PeerUnavailable` (bounded, no hang), while selections owned
/// entirely by the surviving producer keep reading exact bytes.
#[test]
fn killed_producer_does_not_wedge_inflight_batches() {
    let seed = 0x0DD_DEAD;
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 1)];
    // Producer world rank 1 dies mid-serve (send 25 is past communicator
    // setup and the index exchange, inside the reply stream).
    let plan = FaultPlan::new(seed).kill_rank(1, 25);
    let t0 = std::time::Instant::now();
    let world = TaskWorld::builder(&specs).fault_plan(plan);
    let out = world.run_chaos(move |tc| -> Result<String, String> {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let dims = [64u64];
        if tc.task_id == 0 {
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers)
                .build();
            let h5 = H5::with_vol(vol);
            let p = tc.local.rank() as u64;
            let f = h5.create_file("half-doomed.h5").map_err(|e| e.to_string())?;
            let d = f
                .create_dataset("grid", minih5::Datatype::UInt64, minih5::Dataspace::simple(&dims))
                .map_err(|e| e.to_string())?;
            // Producer p owns [32p, 32p + 32).
            let vals: Vec<u8> = (32 * p..32 * (p + 1)).flat_map(|v| v.to_le_bytes()).collect();
            d.write_bytes(
                &minih5::Selection::block(&[32 * p], &[32]),
                vals.into(),
                minih5::Ownership::Shallow,
            )
            .map_err(|e| e.to_string())?;
            // Rank 1 dies inside the serve loop triggered here; rank 0
            // keeps serving until the consumer's DONE.
            f.close().map_err(|e| e.to_string())?;
            Ok("served".into())
        } else {
            let mut props = LowFiveProps::new();
            props.set_rpc_timeout("*", Some(Duration::from_millis(250)));
            props.set_rpc_retries("*", 1);
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers)
                .build();
            let h5 = H5::with_vol(vol);
            let f = h5.open_file("half-doomed.h5").map_err(|e| e.to_string())?;
            let d = f.open_dataset("grid").map_err(|e| e.to_string())?;
            let both = vec![
                minih5::Selection::block(&[0], &[32]),  // producer 0 only
                minih5::Selection::block(&[32], &[32]), // producer 1 only
            ];
            // Read until the dying producer's absence surfaces.
            let mut verdict = None;
            for _ in 0..40 {
                match d.read_bytes_multi(&both) {
                    Ok(_) => {}
                    Err(H5Error::PeerUnavailable(m)) => {
                        verdict = Some(m);
                        break;
                    }
                    Err(e) => {
                        let _ = f.close();
                        return Err(format!("wrong error kind: {e}"));
                    }
                }
            }
            // The surviving producer's half must still read exactly, in
            // the same pipelined fan-out, after the failure.
            let left =
                d.read_bytes(&minih5::Selection::block(&[0], &[32])).map_err(|e| e.to_string())?;
            let want: Vec<u8> = (0u64..32).flat_map(|v| v.to_le_bytes()).collect();
            if left[..] != want[..] {
                return Err("surviving producer returned wrong bytes".into());
            }
            // Close so the surviving producer's serve loop can exit.
            f.close().map_err(|e| e.to_string())?;
            verdict.ok_or_else(|| "producer death never surfaced".to_string())
        }
    });
    let elapsed = t0.elapsed();
    assert_eq!(out.deaths.len(), 1, "deaths: {:?}", out.deaths);
    assert_eq!(out.deaths[0].rank, 1);
    assert!(out.deaths[0].injected);
    // Producer 0 survives and returns; the consumer saw PeerUnavailable.
    assert_eq!(out.results[0].as_ref().expect("producer 0 alive").as_deref(), Ok("served"));
    assert!(out.results[1].is_none(), "producer 1 never returns");
    let consumer = out.results[2].as_ref().expect("consumer survived");
    let msg = consumer.as_ref().expect("consumer completes with a verdict");
    assert!(msg.contains("rank 1"), "error should name the dead producer: {msg}");
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?} — fan-out wedged?");
}

/// The acceptance scenario: the sole producer is killed mid-serve; both
/// consumers must come back with `H5Error::PeerUnavailable` — quickly,
/// not after burning every timeout, and certainly not hanging — and the
/// same seed must reproduce the identical trace.
/// The doomed-producer scenario shared by the acceptance test and the
/// socket kill-trace comparison: the sole producer is killed at user
/// send 30, both consumers must surface `PeerUnavailable`.
fn run_doomed(kind: TransportKind) -> ChaosOutput<Result<(), String>> {
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 2)];
    // Send 30 is well past communicator setup and the two metadata
    // replies, and far before the ~160 replies the consumers' read
    // loops demand: the producer dies with both consumers mid-read.
    let plan = FaultPlan::new(0xFEED_BEEF).kill_rank(0, 30);
    let world = TaskWorld::builder(&specs).fault_plan(plan).transport(kind);
    world.run_chaos(move |tc| -> Result<(), String> {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        if tc.task_id == 0 {
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers)
                .build();
            let h5 = H5::with_vol(vol);
            let f = h5.create_file("doomed.h5").map_err(|e| e.to_string())?;
            let d = f
                .create_dataset("grid", minih5::Datatype::UInt64, minih5::Dataspace::simple(&[64]))
                .map_err(|e| e.to_string())?;
            let data: Vec<u8> = (0..64u64).flat_map(|v| v.to_le_bytes()).collect();
            d.write_bytes(
                &minih5::Selection::block(&[0], &[64]),
                data.into(),
                minih5::Ownership::Shallow,
            )
            .map_err(|e| e.to_string())?;
            // Dies somewhere inside the serve loop triggered here.
            f.close().map_err(|e| e.to_string())?;
            Ok(())
        } else {
            let mut props = LowFiveProps::new();
            props.set_rpc_timeout("*", Some(Duration::from_millis(250)));
            props.set_rpc_retries("*", 1);
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers)
                .build();
            let h5 = H5::with_vol(vol);
            let work = || -> Result<(), H5Error> {
                let f = h5.open_file("doomed.h5")?;
                let d = f.open_dataset("grid")?;
                for _ in 0..40 {
                    d.read_bytes(&minih5::Selection::block(&[0], &[64]))?;
                }
                f.close()
            };
            match work() {
                Ok(()) => Err("consumer finished although the producer died".into()),
                Err(H5Error::PeerUnavailable(m)) => Err(format!("peer unavailable: {m}")),
                Err(e) => Err(format!("wrong error kind: {e}")),
            }
        }
    })
}

#[test]
fn killed_producer_surfaces_peer_unavailable_everywhere() {
    let run = || run_doomed(TransportKind::from_env());
    let t0 = std::time::Instant::now();
    let out = run();
    let elapsed = t0.elapsed();

    // Exactly the injected death — the consumers survive.
    assert_eq!(out.deaths.len(), 1, "deaths: {:?}", out.deaths);
    assert_eq!(out.deaths[0].rank, 0);
    assert!(out.deaths[0].injected);
    assert!(out.results[0].is_none(), "the producer never returns");
    for c in 1..=2 {
        let r = out.results[c].as_ref().expect("consumer survived").as_ref();
        let msg = r.expect_err("consumer cannot have succeeded");
        assert!(
            msg.starts_with("peer unavailable:"),
            "consumer {c} must see PeerUnavailable, got: {msg}"
        );
    }
    // "Within the configured timeout": dead-peer detection fails fast, so
    // the whole run finishes in a handful of 250 ms windows at worst.
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?} — retries not bounded?");

    // Same seed ⇒ identical failure trace, replayed exactly.
    assert_eq!(out.trace.len(), 1);
    assert_eq!(out.trace[0].kind, FaultKind::Killed);
    assert_eq!((out.trace[0].src, out.trace[0].seq), (0, 30));
    let again = run();
    assert_eq!(out.trace, again.trace, "replay with the same seed must match");
    assert_eq!(again.deaths.len(), 1);
}

/// Satellite regression: a *file-mode* consume link used to poll for the
/// producer's file against a hard-coded 120 s deadline, ignoring the
/// file's RPC policy. The open must now fail within
/// `timeout x (retries + 1)` with `PeerUnavailable` when the producer
/// never delivers — and a file that shows up late but within budget must
/// still open.
#[test]
fn file_mode_open_honors_rpc_policy() {
    let dir = std::env::temp_dir().join(format!("lf-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("never-written.nh5").to_str().unwrap().to_string();

    // A dead producer: task 0 exits without writing anything.
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    let missing2 = missing.clone();
    let t0 = std::time::Instant::now();
    let out = TaskWorld::run(&specs, move |tc| {
        if tc.task_id == 0 {
            return Ok(());
        }
        let mut props = LowFiveProps::new();
        props.set_memory("*", false).set_passthrough("*", true);
        props.set_rpc_timeout("*", Some(Duration::from_millis(100)));
        props.set_rpc_retries("*", 2);
        let producers = world_ranks(&tc, 0);
        let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
            .props(props)
            .consume("*", producers)
            .build();
        match H5::with_vol(vol).open_file(&missing2) {
            Ok(_) => Err("open of a never-written file cannot succeed".to_string()),
            Err(H5Error::PeerUnavailable(m)) => Ok(Err::<(), String>(m)),
            Err(e) => Err(format!("wrong error kind: {e}")),
        }
        .map(|_| ())
    });
    let elapsed = t0.elapsed();
    out.into_iter().for_each(|r| r.unwrap());
    // Budget is 100 ms x 3 attempts = 300 ms; anything close to the old
    // 120 s default means the policy was ignored.
    assert!(elapsed < Duration::from_secs(10), "fast failure expected, took {elapsed:?}");

    // Late arrival within budget: the producer writes after a delay and
    // the consumer's poll loop must pick the file up and read it back.
    let late = dir.join("late.nh5").to_str().unwrap().to_string();
    let late2 = late.clone();
    let out = TaskWorld::run(&specs, move |tc| {
        let mut props = LowFiveProps::new();
        props.set_memory("*", false).set_passthrough("*", true);
        if tc.task_id == 0 {
            std::thread::sleep(Duration::from_millis(50));
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", world_ranks(&tc, 1))
                .build();
            let h5 = H5::with_vol(vol);
            let f = h5.create_file(&late2).unwrap();
            let d = f
                .create_dataset("x", minih5::Datatype::UInt64, minih5::Dataspace::simple(&[4]))
                .unwrap();
            d.write_all(&[7u64, 8, 9, 10]).unwrap();
            f.close().unwrap();
            Vec::new()
        } else {
            props.set_rpc_timeout("*", Some(Duration::from_secs(5)));
            props.set_rpc_retries("*", 1);
            let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", world_ranks(&tc, 0))
                .build();
            let h5 = H5::with_vol(vol);
            let f = h5.open_file(&late2).unwrap();
            let got = f.open_dataset("x").unwrap().read_all::<u64>().unwrap();
            f.close().unwrap();
            got
        }
    });
    assert_eq!(out[1], vec![7, 8, 9, 10]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Socket re-run of the drop-once recovery path (the CI transport-matrix
/// job arms it): the idempotent-retry machinery must recover identically
/// when requests and replies cross a real wire instead of a mailbox.
#[test]
fn socket_dropped_messages_recover_via_retry() {
    if !socket_chaos_enabled() {
        eprintln!("skipped: set SIMMPI_SOCKET_CHAOS=1 to run the socket chaos re-runs");
        return;
    }
    let w = workload();
    let plan = FaultPlan::new(0xD809).drop_once(1.0);
    let mut props = LowFiveProps::new();
    props.set_rpc_timeout("*", Some(Duration::from_millis(200)));
    props.set_rpc_retries("*", 4);
    let out = run_exchange_on(w, plan, props, TransportKind::Socket);
    assert_consumer_bytes_exact(&w, &out);
    assert!(
        out.trace.iter().any(|e| e.kind == FaultKind::Dropped),
        "the plan must actually have dropped something"
    );
}

/// A kill is recorded as pure sender facts `(src, user-send seq)`, so the
/// doomed-producer trace must be bit-identical across backends — the
/// in-proc and socket runs inject the very same failure. CI greps this
/// test's `kill-trace-equal: ok` line (run with `--nocapture`).
#[test]
fn socket_kill_trace_matches_inproc() {
    if !socket_chaos_enabled() {
        eprintln!("skipped: set SIMMPI_SOCKET_CHAOS=1 to run the socket chaos re-runs");
        return;
    }
    let inproc = run_doomed(TransportKind::InProc);
    let socket = run_doomed(TransportKind::Socket);
    assert_eq!(inproc.trace, socket.trace, "kill trace must be backend-invariant");
    for (kind, out) in [("inproc", &inproc), ("socket", &socket)] {
        assert_eq!(out.deaths.len(), 1, "[{kind}] deaths: {:?}", out.deaths);
        assert_eq!(out.deaths[0].rank, 0, "[{kind}]");
        assert!(out.deaths[0].injected, "[{kind}]");
        assert!(out.results[0].is_none(), "[{kind}] the producer never returns");
        for c in 1..=2 {
            let r = out.results[c].as_ref().expect("consumer survived").as_ref();
            let msg = r.expect_err("consumer cannot have succeeded");
            assert!(
                msg.starts_with("peer unavailable:"),
                "[{kind}] consumer {c} must see PeerUnavailable, got: {msg}"
            );
        }
    }
    println!("kill-trace-equal: ok");
}
