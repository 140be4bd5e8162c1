//! Transport conformance: one suite, every backend.
//!
//! The `Transport` trait promises the delivery-order and liveness
//! guarantees the in-proc mailboxes have always given — per-(src, tag)
//! FIFO, accurate probes, timed receives that expire, any-source receives
//! that serve concurrent senders, `peer_alive` flipping after a kill, and
//! parts/contiguous byte-identity. This suite pins each guarantee and runs
//! it over **both** backends (`TransportKind::InProc` and
//! `TransportKind::Socket`), so a new backend cannot pass by accident and
//! the in-proc backend cannot regress unnoticed.
//!
//! The second half is the cross-transport equivalence property: the
//! lowfive fetch/serve redistribution, sampled over (geometry × fault
//! seed), must produce byte-identical consumer reads and identical
//! user-send kill traces on both backends — the wire is an implementation
//! detail, never a data property.
//!
//! The third pins the socket backend's posted receives: a read has its
//! replies written by the reader thread straight into the result.
//! Misaligned reads that take a second round, batched
//! multi-reads, reads with an unowned gap, error replies and retried
//! calls must read exactly as they do in-proc — same bytes, same
//! `bytes_zero_filled` — and on the socket every byte a producer covered,
//! in a read of any size, is counted in `bytes_placed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Dataspace, Datatype, H5File, Selection, Vol, H5};
use proptest::prelude::*;
use simmpi::{
    FaultKind, FaultPlan, RecvError, SendError, SocketConfig, TaskSpec, TaskWorld, TransportKind,
    World, ANY_SOURCE, ANY_TAG,
};

/// Every backend the suite must hold for.
const BACKENDS: [TransportKind; 2] = [TransportKind::InProc, TransportKind::Socket];

fn on_each_backend(f: impl Fn(TransportKind)) {
    for kind in BACKENDS {
        f(kind);
    }
}

// ---------------------------------------------------------------------
// Trait-contract pins
// ---------------------------------------------------------------------

#[test]
fn per_src_tag_fifo_order() {
    on_each_backend(|kind| {
        World::builder(2).transport(kind).run(|c| {
            assert_eq!(c.transport_kind(), kind);
            if c.rank() == 0 {
                for i in 0..200u64 {
                    // Interleave two tags: FIFO must hold per (src, tag).
                    c.send_u64s(1, (i % 2) as u32, &[i]);
                }
            } else {
                let mut next = [0u64, 1];
                for _ in 0..200 {
                    let (_, tag, _) = c.probe(ANY_SOURCE, ANY_TAG);
                    let (_, v) = c.recv_u64s(0.into(), tag.into());
                    assert_eq!(v[0], next[tag as usize], "[{kind}] tag {tag} out of order");
                    next[tag as usize] += 2;
                }
            }
        });
    });
}

#[test]
fn probe_and_iprobe_sizes_are_exact() {
    on_each_backend(|kind| {
        World::builder(2).transport(kind).run(|c| {
            if c.rank() == 0 {
                c.send(1, 4, bytes::Bytes::from(vec![7u8; 33]));
                c.send(1, 5, bytes::Bytes::from(vec![8u8; 4096]));
            } else {
                let (src, tag, len) = c.probe(0.into(), 4.into());
                assert_eq!((src, tag, len), (0, 4, 33), "[{kind}] blocking probe");
                let env = c.recv(0.into(), 4.into());
                assert_eq!(env.payload.len(), 33);
                // Nonblocking probe: poll until the second message lands.
                let deadline = Instant::now() + Duration::from_secs(10);
                let got = loop {
                    if let Some(hit) = c.iprobe(ANY_SOURCE, ANY_TAG) {
                        break hit;
                    }
                    assert!(Instant::now() < deadline, "[{kind}] iprobe never saw the message");
                    std::thread::yield_now();
                };
                assert_eq!(got, (0, 5, 4096), "[{kind}] iprobe size");
                assert_eq!(c.recv(0.into(), 5.into()).payload.len(), 4096);
            }
        });
    });
}

#[test]
fn recv_timeout_expires_when_nothing_arrives() {
    on_each_backend(|kind| {
        World::builder(2).transport(kind).run(|c| {
            if c.rank() == 1 {
                let t0 = Instant::now();
                let err = c
                    .recv_timeout(0.into(), 9.into(), Duration::from_millis(80))
                    .expect_err("nothing was sent");
                assert_eq!(err, RecvError::TimedOut, "[{kind}]");
                assert!(t0.elapsed() >= Duration::from_millis(80), "[{kind}] expired early");
            }
            c.barrier();
        });
    });
}

#[test]
fn any_source_serves_concurrent_senders() {
    const PER_SENDER: u64 = 50;
    on_each_backend(|kind| {
        World::builder(4).transport(kind).run(|c| {
            if c.rank() == 0 {
                // Track each sender's stream: wildcard receives must still
                // observe per-source FIFO, and every sender must complete.
                let mut next = vec![0u64; c.size()];
                for _ in 0..PER_SENDER * 3 {
                    let env = c.recv(ANY_SOURCE, 2.into());
                    let v = u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                    assert_eq!(v, next[env.src], "[{kind}] source {} out of order", env.src);
                    next[env.src] += 1;
                }
                for (s, got) in next.iter().enumerate().skip(1) {
                    assert_eq!(*got, PER_SENDER, "[{kind}] sender {s} starved");
                }
            } else {
                for i in 0..PER_SENDER {
                    c.send_u64s(0, 2, &[i]);
                }
            }
        });
    });
}

#[test]
fn peer_alive_flips_after_kill() {
    on_each_backend(|kind| {
        let out = World::builder(2)
            .transport(kind)
            .fault_plan(FaultPlan::new(0xC0FFEE).kill_rank(0, 3))
            .run_chaos(|c| {
                if c.rank() == 0 {
                    for i in 0..10u64 {
                        c.send_u64s(1, 1, &[i]);
                    }
                    unreachable!("killed at send 3");
                } else {
                    // (No pre-check of `peer_alive(0)`: rank 0 dies at its
                    // third send, which can happen before this rank runs.)
                    // The two pre-kill messages stay receivable.
                    for i in 0..2u64 {
                        let v = c
                            .recv_timeout(0.into(), 1.into(), Duration::from_secs(10))
                            .expect("pre-kill message must arrive");
                        assert_eq!(u64::from_le_bytes(v.payload[..8].try_into().unwrap()), i);
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while c.peer_alive(0) {
                        assert!(Instant::now() < deadline, "[{kind}] peer_alive never flipped");
                        std::thread::yield_now();
                    }
                }
            });
        assert_eq!(out.deaths.len(), 1, "[{kind}]");
        assert_eq!(out.deaths[0].rank, 0);
        assert!(out.deaths[0].injected);
    });
}

#[test]
fn parts_and_contiguous_forms_are_byte_identical() {
    on_each_backend(|kind| {
        World::builder(2).transport(kind).run(|c| {
            let want: &[u8] = &[1, 2, 3, 4, 5, 6, 7];
            if c.rank() == 0 {
                let parts = || {
                    simmpi::Payload::from_parts(vec![
                        bytes::Bytes::from(vec![1u8, 2]),
                        bytes::Bytes::from(vec![3u8, 4, 5]),
                        bytes::Bytes::from(vec![6u8, 7]),
                    ])
                };
                c.send_parts(1, 6, parts()); // for recv_parts
                c.send_parts(1, 6, parts()); // for flattening recv
            } else {
                // Parts-aware receive. In-proc preserves the sender's part
                // structure; the socket wire is the flattened form (one
                // contiguous part). Both must read back the same bytes.
                let env = c.recv_parts(0.into(), 6.into());
                match kind {
                    TransportKind::InProc => assert_eq!(env.payload.num_parts(), 3),
                    TransportKind::Socket => assert_eq!(env.payload.num_parts(), 1),
                }
                assert_eq!(&env.payload.to_bytes()[..], want, "[{kind}] parts receive");
                let env = c.recv(0.into(), 6.into());
                assert_eq!(&env.payload[..], want, "[{kind}] contiguous receive");
            }
        });
    });
}

/// Frames shaped to stress a vectored frame writer and a reserve-only
/// receiver — more parts than `IOV_MAX` with empty ones interleaved, parts
/// each larger than a socket buffer (partial writes land mid-part), and a
/// 0-byte body — arrive byte-identical and in send order on every
/// backend.
#[test]
fn awkward_part_shapes_arrive_intact_and_in_sequence() {
    let many = || -> Vec<bytes::Bytes> {
        (0..3000usize)
            .map(|i| match i % 4 {
                0 => bytes::Bytes::new(),
                _ => bytes::Bytes::from(vec![i as u8; 1 + i % 9]),
            })
            .collect()
    };
    let big = || -> Vec<bytes::Bytes> {
        (0..3u8).map(|i| bytes::Bytes::from(vec![0xC0 | i; 1 << 20])).collect()
    };
    let flat = |parts: Vec<bytes::Bytes>| -> Vec<u8> { parts.concat() };
    on_each_backend(|kind| {
        World::builder(2).transport(kind).run(|c| {
            if c.rank() == 0 {
                c.send_parts(1, 8, simmpi::Payload::from_parts(many()));
                c.send_parts(1, 8, simmpi::Payload::new());
                c.send_parts(1, 8, simmpi::Payload::from_parts(big()));
                c.send(1, 8, bytes::Bytes::from_static(b"tail"));
            } else {
                let what = format!("[{kind}]");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], flat(many()), "{what} many");
                assert!(c.recv(0.into(), 8.into()).payload.is_empty(), "{what} empty body");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], flat(big()), "{what} big");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], b"tail", "{what} tail");
            }
        });
    });
}

#[test]
fn collectives_and_split_run_on_both_backends() {
    on_each_backend(|kind| {
        World::builder(6).transport(kind).run(|c| {
            let sum = c.allreduce_one::<u64, _>(c.rank() as u64, |a, b| a + b);
            assert_eq!(sum, 15, "[{kind}] allreduce");
            let sub = c.split(c.rank() % 2, c.rank());
            assert_eq!(sub.size(), 3, "[{kind}] split");
            let sub_sum = sub.allreduce_one::<u64, _>(1, |a, b| a + b);
            assert_eq!(sub_sum, 3, "[{kind}] split-scoped collective");
            c.barrier();
        });
    });
}

// ---------------------------------------------------------------------
// Backpressure: in-proc stays unbounded, the socket bound is real
// ---------------------------------------------------------------------

#[test]
fn inproc_try_send_never_refuses() {
    World::builder(2).transport(TransportKind::InProc).run(|c| {
        if c.rank() == 0 {
            for i in 0..500u64 {
                c.try_send(1, 1, bytes::Bytes::from(i.to_le_bytes().to_vec()))
                    .expect("in-proc sends are unbounded");
            }
        } else {
            for i in 0..500u64 {
                let (_, v) = c.recv_u64s(0.into(), 1.into());
                assert_eq!(v[0], i);
            }
        }
    });
}

#[test]
fn socket_try_send_surfaces_would_block_and_recovers() {
    // A 1-frame writer queue behind a 1-envelope receive window, with
    // frames far larger than any kernel socket buffer: a burst of
    // nonblocking sends must hit the bound, and draining must clear it.
    // With a 1-envelope receive window the wire drains strictly in order,
    // so everything stays on one tag: big frames, then a tiny in-band
    // sentinel marking the end of the burst.
    let cfg = SocketConfig { queue_cap: 1, recv_window: 1 };
    World::builder(2).transport(TransportKind::Socket).socket_config(cfg).run(|c| {
        if c.rank() == 0 {
            let big = bytes::Bytes::from(vec![0x5Au8; 1 << 20]);
            let mut sent = 0u64;
            let mut refused = false;
            for _ in 0..64 {
                match c.try_send(1, 1, big.clone()) {
                    Ok(()) => sent += 1,
                    Err(SendError::WouldBlock) => {
                        refused = true;
                        break;
                    }
                }
            }
            assert!(refused, "saturated socket path must refuse a nonblocking send");
            assert!(sent >= 1, "some sends must land before the bound");
            // The path must recover: this *blocking* send completes once
            // the receiver's drain frees queue space end to end.
            c.send(1, 1, bytes::Bytes::from(vec![1u8; 4]));
            let (_, drained) = c.recv_u64s(1.into(), 4.into());
            assert_eq!(drained[0], sent, "receiver saw every accepted frame");
        } else {
            let mut bigs = 0u64;
            loop {
                let env = c.recv(0.into(), 1.into());
                if env.payload.len() == 4 {
                    break; // the sentinel: burst over
                }
                assert_eq!(env.payload.len(), 1 << 20);
                bigs += 1;
            }
            c.send_u64s(0, 4, &[bigs]);
        }
    });
}

// ---------------------------------------------------------------------
// Cross-transport equivalence: lowfive fetch/serve A/B
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Scenario {
    producers: usize,
    consumers: usize,
    dims: Vec<u64>,
    /// Per-producer x-ranges (contiguous partition of dims[0]).
    cuts: Vec<u64>,
    /// Consumer queries: one box per consumer, inside the dims.
    queries: Vec<(Vec<u64>, Vec<u64>)>,
    /// Which send of the bystander rank the kill plan fires at.
    kill_at: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=3, 1usize..=3, 1usize..=2, 1u64..=20).prop_flat_map(
        |(producers, consumers, rank, kill_at)| {
            let dims = proptest::collection::vec(2u64..=10, rank);
            dims.prop_flat_map(move |dims| {
                let nx = dims[0];
                let cuts =
                    proptest::collection::vec(0..=nx, producers - 1).prop_map(move |mut c| {
                        c.sort_unstable();
                        c
                    });
                let dims2 = dims.clone();
                let queries = proptest::collection::vec(
                    proptest::collection::vec(0u64..=11, dims.len() * 2),
                    consumers,
                )
                .prop_map(move |raw| {
                    raw.into_iter()
                        .map(|r| {
                            let mut start = Vec::new();
                            let mut size = Vec::new();
                            for (i, &d) in dims2.iter().enumerate() {
                                let s = r[2 * i] % d;
                                let len = 1 + r[2 * i + 1] % (d - s);
                                start.push(s);
                                size.push(len);
                            }
                            (start, size)
                        })
                        .collect::<Vec<_>>()
                });
                let dims3 = dims.clone();
                (cuts, queries).prop_map(move |(cuts, queries)| Scenario {
                    producers,
                    consumers,
                    dims: dims3.clone(),
                    cuts,
                    queries,
                    kill_at,
                })
            })
        },
    )
}

/// Run the fetch/serve redistribution on the given backend under a seeded
/// benign plan (delay + reorder) *plus* a kill of a bystander rank — one
/// extra task no consumer depends on, streaming sends until the plan kills
/// it. Returns each consumer's bytes and the injected `Killed` trace
/// events (the user-send kill trace; benign events are timing-dependent
/// and excluded by construction).
fn run_ab(s: &Scenario, seed: u64, kind: TransportKind) -> (Vec<Vec<u8>>, Vec<(usize, u64)>) {
    let specs = [
        TaskSpec::new("p", s.producers),
        TaskSpec::new("c", s.consumers),
        TaskSpec::new("bystander", 1),
    ];
    let bystander_world = s.producers + s.consumers;
    let plan = FaultPlan::new(seed)
        .delay(0.3, Duration::from_micros(200))
        .reorder(0.3)
        .kill_rank(bystander_world, s.kill_at);
    let producers = s.producers;
    let s = s.clone();
    let body = move |tc: simmpi::TaskComm| {
        if tc.task_id == 2 {
            // The bystander talks only to itself: its death cannot wedge
            // the workflow, but its sends feed the kill counter.
            for i in 0..200u64 {
                tc.world.send_u64s(tc.world.rank(), 1, &[i]);
                let _ = tc.world.try_recv(tc.world.rank().into(), 1.into());
            }
            unreachable!("bystander must be killed within 200 sends");
        }
        let producer_ranks: Vec<usize> = (0..s.producers).collect();
        let consumer_ranks: Vec<usize> = (s.producers..s.producers + s.consumers).collect();
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumer_ranks)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producer_ranks)
                .build()
        };
        let h5 = H5::with_vol(vol);
        let space = Dataspace::simple(&s.dims);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let x0 = if p == 0 { 0 } else { s.cuts[p - 1] };
            let x1 = if p + 1 == s.producers { s.dims[0] } else { s.cuts[p] };
            let f = h5.create_file("ab.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&s.dims)).unwrap();
            if x1 > x0 {
                let mut start = vec![0u64; s.dims.len()];
                start[0] = x0;
                let mut size = s.dims.clone();
                size[0] = x1 - x0;
                let sel = Selection::block(&start, &size);
                let vals: Vec<u64> =
                    sel.runs(&space).iter().flat_map(|r| r.offset..r.offset + r.len).collect();
                d.write_selection(&sel, &vals).unwrap();
            }
            f.close().unwrap();
            Vec::new()
        } else {
            let c = tc.local.rank();
            let (start, size) = &s.queries[c];
            let f = h5.open_file("ab.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let got = d.read_bytes(&Selection::block(start, size)).unwrap();
            f.close().unwrap();
            got.to_vec()
        }
    };
    let out = TaskWorld::builder(&specs).fault_plan(plan).transport(kind).run_chaos(body);
    assert_eq!(out.deaths.len(), 1, "[{kind}] only the bystander dies");
    assert_eq!(out.deaths[0].rank, bystander_world, "[{kind}]");
    assert!(out.deaths[0].injected, "[{kind}]");
    let kills: Vec<(usize, u64)> =
        out.trace.iter().filter(|e| e.kind == FaultKind::Killed).map(|e| (e.src, e.seq)).collect();
    let reads: Vec<Vec<u8>> = out
        .results
        .into_iter()
        .skip(producers)
        .take(s.consumers)
        .map(|r| r.expect("consumers survive"))
        .collect();
    (reads, kills)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// The acceptance property: for every sampled geometry, at least 3
    /// fault seeds are replayed A/B over in-proc and socket, and both
    /// backends must produce byte-identical consumer reads *and*
    /// identical user-send kill traces.
    #[test]
    fn fetch_serve_is_backend_invariant(s in scenario(), seeds in proptest::collection::vec(any::<u64>(), 3)) {
        for seed in seeds {
            let (reads_ip, kills_ip) = run_ab(&s, seed, TransportKind::InProc);
            let (reads_sk, kills_sk) = run_ab(&s, seed, TransportKind::Socket);
            prop_assert_eq!(
                &reads_ip, &reads_sk,
                "seed {:#x}: consumer bytes differ across backends", seed
            );
            prop_assert_eq!(
                &kills_ip, &kills_sk,
                "seed {:#x}: user-send kill traces differ across backends", seed
            );
            prop_assert!(!kills_ip.is_empty(), "seed {:#x}: the kill must fire", seed);
        }
    }
}

// ---------------------------------------------------------------------
// Posted receives: the same reads, placed by the socket reader
// ---------------------------------------------------------------------

/// The grid of the posted-receive cases: 256 KiB of `u64`s, so half of
/// it (one consumer's share) is a pooled read buffer's worth.
const GRID: [u64; 2] = [256, 128];

/// A consumer's reads of the open file: each read's bytes or error.
type Reads = fn(u64, &H5File) -> Vec<Result<Vec<u8>, String>>;

/// What one run read: per consumer, each read's bytes or error; and the
/// run's `bytes_zero_filled` and `bytes_placed`.
#[derive(Debug, PartialEq)]
struct Placed {
    reads: Vec<Vec<Result<Vec<u8>, String>>>,
    zero_filled: u64,
    placed: u64,
    retries: u64,
}

/// Every cell holds its global linear index.
fn grid_truth(sel: &Selection) -> Vec<u64> {
    sel.runs(&Dataspace::simple(&GRID)).iter().flat_map(|r| r.offset..r.offset + r.len).collect()
}

fn outcome(r: minih5::H5Result<bytes::Bytes>) -> Result<Vec<u8>, String> {
    r.map(|b| b.to_vec()).map_err(|e| format!("{e:?}"))
}

/// Two producers write `writes(p)` of `x` in `g.h5`; then consumer `c`
/// makes `reads(c, file)`. `plan` and `props` (the consumers') arm
/// faults and retries.
fn placed_run(
    kind: TransportKind,
    writes: fn(u64) -> Selection,
    reads: Reads,
    plan: FaultPlan,
    props: LowFiveProps,
) -> Placed {
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 2)];
    let reg = obsv::Registry::new();
    let world = TaskWorld::builder(&specs).fault_plan(plan).observe(reg.clone()).transport(kind);
    let out = world.run_chaos(|tc| {
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        let peers = |task| (0..2).map(|r| tc.world_rank_of(task, r)).collect::<Vec<_>>();
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            b.produce("*", peers(1)).build()
        } else {
            b.props(props.clone()).consume("*", peers(0)).build()
        };
        let h5 = H5::with_vol(vol);
        let rank = tc.local.rank() as u64;
        if tc.task_id == 0 {
            let f = h5.create_file("g.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&GRID)).unwrap();
            let sel = writes(rank);
            d.write_selection(&sel, &grid_truth(&sel)).unwrap();
            f.close().unwrap();
            Vec::new()
        } else {
            let f = h5.open_file("g.h5").unwrap();
            let got = reads(rank, &f);
            f.close().unwrap();
            got
        }
    });
    assert!(out.deaths.is_empty(), "[{kind}] {:?}", out.deaths);
    let report = reg.report();
    Placed {
        reads: out.results.into_iter().skip(2).map(|r| r.expect("consumers finish")).collect(),
        zero_filled: report.counter(obsv::Ctr::BytesZeroFilled),
        placed: report.counter(obsv::Ctr::BytesPlaced),
        retries: report.counter(obsv::Ctr::RpcRetries),
    }
}

/// The same exchange on both backends: identical reads and fill, no
/// placed byte in-proc, and on the socket every byte a producer covered
/// placed by the reader thread.
fn placed_alike(
    writes: fn(u64) -> Selection,
    reads: Reads,
    plan: impl Fn() -> FaultPlan,
    props: LowFiveProps,
) -> Placed {
    let inproc = placed_run(TransportKind::InProc, writes, reads, plan(), props.clone());
    let socket = placed_run(TransportKind::Socket, writes, reads, plan(), props);
    assert_eq!(inproc.reads, socket.reads, "the bytes read differ across backends");
    assert_eq!(inproc.zero_filled, socket.zero_filled, "bytes_zero_filled differs");
    assert_eq!(inproc.placed, 0, "in-proc places nothing through a sink");
    let read: u64 = socket.reads.iter().flatten().flatten().map(|b| b.len() as u64).sum();
    assert_eq!(socket.placed, read - socket.zero_filled, "every covered byte is placed");
    socket
}

fn half(c: u64) -> Selection {
    Selection::block(&[128 * c, 0], &[128, 128])
}

fn checked(sel: &Selection, got: minih5::H5Result<bytes::Bytes>) -> Result<Vec<u8>, String> {
    let got = outcome(got);
    if let Ok(b) = &got {
        let want: Vec<u8> = grid_truth(sel).iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(b, &want, "{sel:?}");
    }
    got
}

#[test]
fn a_misaligned_read_is_placed_over_two_rounds() {
    // Producers write y-halves, the common decomposition cuts x: each
    // block owner holds only part, and round 2 asks the other owner.
    let run = placed_alike(
        |p| Selection::block(&[0, 64 * p], &[256, 64]),
        |c, f| {
            let d = f.open_dataset("x").unwrap();
            // The second read goes straight to the cached owners.
            (0..2).map(|_| checked(&half(c), d.read_bytes(&half(c)))).collect()
        },
        || FaultPlan::new(1),
        LowFiveProps::new(),
    );
    assert_eq!(run.zero_filled, 0);
    assert_eq!(run.placed, 4 * (128 * 128 * 8), "two reads per consumer, all placed");
}

#[test]
fn a_four_chunk_multi_read_is_placed() {
    let run = placed_alike(
        half,
        |c, f| {
            let d = f.open_dataset("x").unwrap();
            let chunks: Vec<Selection> =
                (0..4).map(|j| Selection::block(&[128 * c + 32 * j, 0], &[32, 128])).collect();
            let got = d.read_bytes_multi(&chunks).unwrap();
            chunks.iter().zip(got).map(|(sel, b)| checked(sel, Ok(b))).collect()
        },
        || FaultPlan::new(2),
        LowFiveProps::new(),
    );
    assert_eq!(run.placed, 2 * (128 * 128 * 8), "32 KiB chunks, placed as one 128 KiB read");
}

/// A read far under a pooled buffer's 64 KiB takes the same route: a
/// socket reply has one path whatever its size.
#[test]
fn a_small_read_is_placed_like_a_large_one() {
    let run = placed_alike(
        half,
        |c, f| {
            let sel = Selection::block(&[128 * c + 60, 10], &[4, 4]);
            vec![checked(&sel, f.open_dataset("x").unwrap().read_bytes(&sel))]
        },
        || FaultPlan::new(4),
        LowFiveProps::new(),
    );
    assert_eq!(run.placed, 2 * (4 * 4 * 8), "128 bytes per consumer, placed");
}

#[test]
fn a_read_with_an_unowned_gap_is_placed_and_filled_alike() {
    // Columns 96..128 are written by nobody.
    let run = placed_alike(
        |p| Selection::block(&[128 * p, 0], &[128, 96]),
        |c, f| vec![outcome(f.open_dataset("x").unwrap().read_bytes(&half(c)))],
        || FaultPlan::new(3),
        LowFiveProps::new(),
    );
    assert_eq!(run.zero_filled, 2 * (128 * 32 * 8), "the gap, counted once per consumer");
}

#[test]
fn a_retried_read_places_only_the_live_reply() {
    // The first message of every consumer↔producer flow is dropped: the
    // calls time out and are resent under fresh call ids, and the
    // withdrawn attempts' sinks take nothing.
    let mut props = LowFiveProps::new();
    props.set_rpc_timeout("*", Some(Duration::from_millis(200)));
    props.set_rpc_retries("*", 4);
    let run = placed_alike(
        half,
        |c, f| vec![checked(&half(c), f.open_dataset("x").unwrap().read_bytes(&half(c)))],
        || FaultPlan::new(0xD809).drop_once(1.0),
        props,
    );
    assert!(run.retries > 0, "the plan must force retries");
    assert_eq!(run.placed, 2 * (128 * 128 * 8), "each byte placed once");
}

/// A producer rank that never had the file answers a data query with a
/// `NotFound` error reply; through a posted sink the read fails exactly
/// as it does in-proc, and the other producer's reply is still placed.
#[test]
fn an_error_reply_through_a_sink_fails_the_read_alike() {
    let run = |kind: TransportKind| {
        // Task P writes a.h5, task Q writes b.h5; the consumer's link for
        // a.h5 lists both, so Q owns a block of a file it never had.
        let specs = [TaskSpec::new("p", 1), TaskSpec::new("q", 1), TaskSpec::new("c", 1)];
        let reg = obsv::Registry::new();
        let out = TaskWorld::builder(&specs).observe(reg.clone()).transport(kind).run(|tc| {
            let (p, q, c) =
                (tc.world_rank_of(0, 0), tc.world_rank_of(1, 0), tc.world_rank_of(2, 0));
            let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
            let vol: Arc<dyn Vol> = match tc.task_id {
                2 => b.consume("a.h5", vec![p, q]).consume("b.h5", vec![q]).build(),
                _ => b.produce("*", vec![c]).build(),
            };
            let h5 = H5::with_vol(vol);
            let all = Selection::block(&[0, 0], &GRID);
            if tc.task_id < 2 {
                let f = h5.create_file(if tc.task_id == 0 { "a.h5" } else { "b.h5" }).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&GRID)).unwrap();
                d.write_selection(&all, &grid_truth(&all)).unwrap();
                f.close().unwrap();
                return Vec::new();
            }
            let a = h5.open_file("a.h5").unwrap();
            let failed = outcome(a.open_dataset("x").unwrap().read_bytes(&all));
            a.close().unwrap();
            let b = h5.open_file("b.h5").unwrap();
            let read = checked(&all, b.open_dataset("x").unwrap().read_bytes(&all));
            b.close().unwrap();
            vec![failed, read]
        });
        let report = reg.report();
        let reads = out.results.into_iter().nth(2).expect("the consumer");
        (reads, report.counter(obsv::Ctr::BytesZeroFilled), report.counter(obsv::Ctr::BytesPlaced))
    };
    let (inproc, socket) = (run(TransportKind::InProc), run(TransportKind::Socket));
    assert_eq!(inproc, (socket.0.clone(), socket.1, 0));
    assert!(socket.0[0].as_ref().unwrap_err().starts_with("NotFound"), "{:?}", socket.0[0]);
    assert!(socket.0[1].is_ok());
    // P's reply to the failed read, and all of b.h5, came off the socket.
    let grid = GRID[0] * GRID[1] * 8;
    assert!(socket.2 > grid && socket.2 <= 2 * grid, "placed {}", socket.2);
}
