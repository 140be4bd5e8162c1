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

use std::sync::Arc;
use std::time::{Duration, Instant};

use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use proptest::prelude::*;
use simmpi::{
    FaultKind, FaultPlan, RecvError, SendError, SocketConfig, SocketMode, TaskSpec, TaskWorld,
    TransportKind, World, ANY_SOURCE, ANY_TAG,
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
/// backend, over both socket flavors.
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
    let configs = [
        (TransportKind::InProc, SocketMode::Unix),
        (TransportKind::Socket, SocketMode::Unix),
        (TransportKind::Socket, SocketMode::Tcp),
    ];
    for (kind, mode) in configs {
        let cfg = SocketConfig { mode, ..SocketConfig::default() };
        World::builder(2).transport(kind).socket_config(cfg).run(|c| {
            if c.rank() == 0 {
                c.send_parts(1, 8, simmpi::Payload::from_parts(many()));
                c.send_parts(1, 8, simmpi::Payload::new());
                c.send_parts(1, 8, simmpi::Payload::from_parts(big()));
                c.send(1, 8, bytes::Bytes::from_static(b"tail"));
            } else {
                let what = format!("[{kind}/{mode:?}]");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], flat(many()), "{what} many");
                assert!(c.recv(0.into(), 8.into()).payload.is_empty(), "{what} empty body");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], flat(big()), "{what} big");
                assert_eq!(&c.recv(0.into(), 8.into()).payload[..], b"tail", "{what} tail");
            }
        });
    }
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
    let cfg = SocketConfig { queue_cap: 1, recv_window: 1, ..SocketConfig::default() };
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
    let out = TaskWorld::run_chaos_observed_on(&specs, None, plan, None, kind, body);
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
