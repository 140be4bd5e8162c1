//! Wire message counts of one sync-mode file exchange, pinned term by
//! term.
//!
//! `n` producers each write one contiguous slab of a 1-D `u64` dataset of
//! `4nm` elements, so every producer's slab is exactly its block of the
//! common decomposition. `m` consumers each read one contiguous slab of
//! `4n` elements. One file then costs, in messages:
//!
//! - the index all-to-all among producers: `n(n-1)`;
//! - the metadata handshake, one call and reply per consumer: `2m`;
//! - the data batches, one call and reply per (consumer, producer) pair
//!   whose slabs overlap: `2(n + m - gcd(n, m))`;
//! - DONE and its ack from every consumer to every producer: `2nm`.
//!
//! Each count is the difference between a world that exchanges three
//! files and one that exchanges one, halved, so world setup cancels out.
//! The split between calls, notifications and collectives is read off
//! the `RpcCalls`, `RpcNotifies` and `CollAlltoall` counters.

use std::sync::Arc;

use bytes::Bytes;
use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld, TransportKind};

/// Elements per (producer, consumer) pair.
const K: u64 = 4;

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Per-file totals of one exchange shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    messages: u64,
    calls: u64,
    notifies: u64,
    alltoalls: u64,
}

/// Exchange `files` files from `n` producers to `m` consumers in one
/// in-proc world; returns the world's totals.
fn exchange(n: usize, m: usize, files: usize) -> Counts {
    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("producer", n), TaskSpec::new("consumer", m)];
    let total = (n * m) as u64 * K;
    let world = TaskWorld::builder(&specs).observe(reg.clone()).transport(TransportKind::InProc);
    let out = world.run(|tc| {
        let rank = tc.local.rank() as u64;
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", world_ranks(&tc, 1))
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", world_ranks(&tc, 0))
                .build()
        };
        let h5 = H5::with_vol(vol);
        for file in 0..files {
            let name = format!("counts.{file}.h5");
            if tc.task_id == 0 {
                let slab = m as u64 * K;
                let bytes: Vec<u8> =
                    (rank * slab..(rank + 1) * slab).flat_map(|v| v.to_le_bytes()).collect();
                let f = h5.create_file(&name).unwrap();
                let d =
                    f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[total])).unwrap();
                let sel = Selection::block(&[rank * slab], &[slab]);
                d.write_bytes(&sel, Bytes::from(bytes), Ownership::Deep).unwrap();
                drop(d);
                f.close().unwrap();
            } else {
                let slab = n as u64 * K;
                let f = h5.open_file(&name).unwrap();
                let d = f.open_dataset("x").unwrap();
                let got = d.read_selection::<u64>(&Selection::block(&[rank * slab], &[slab]));
                let want: Vec<u64> = (rank * slab..(rank + 1) * slab).collect();
                assert_eq!(got.unwrap(), want, "consumer {rank} of {n}->{m}, file {file}");
                drop(d);
                f.close().unwrap();
            }
        }
    });
    let rep = reg.report();
    Counts {
        messages: out.stats.messages,
        calls: rep.counter(obsv::Ctr::RpcCalls),
        notifies: rep.counter(obsv::Ctr::RpcNotifies),
        alltoalls: rep.counter(obsv::Ctr::CollAlltoall),
    }
}

/// The cost of one file: three files' totals minus one file's, halved.
fn per_file(n: usize, m: usize) -> Counts {
    let (one, three) = (exchange(n, m, 1), exchange(n, m, 3));
    let half = |a: u64, b: u64| {
        assert_eq!((b - a) % 2, 0, "{n}->{m}: an odd difference {a} -> {b}");
        (b - a) / 2
    };
    Counts {
        messages: half(one.messages, three.messages),
        calls: half(one.calls, three.calls),
        notifies: half(one.notifies, three.notifies),
        alltoalls: half(one.alltoalls, three.alltoalls),
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One file's messages at `n -> m`, term by term.
struct Terms {
    done_and_ack: u64,
    index: u64,
    metadata: u64,
    batches: u64,
}

impl Terms {
    fn closed_form(n: u64, m: u64) -> Self {
        Terms {
            done_and_ack: 2 * n * m,
            index: n * (n - 1),
            metadata: 2 * m,
            batches: 2 * (n + m - gcd(n, m)),
        }
    }

    fn messages(&self) -> u64 {
        self.done_and_ack + self.index + self.metadata + self.batches
    }

    /// Calls: every term but the index is a call and its reply.
    fn calls(&self) -> u64 {
        (self.done_and_ack + self.metadata + self.batches) / 2
    }
}

#[test]
fn one_file_costs_its_closed_form_in_messages() {
    let mut shapes: Vec<(usize, usize)> = [2, 4, 8, 16, 32].iter().map(|&r| (r, r)).collect();
    shapes.extend([(4, 2), (2, 6)]);
    for (n, m) in shapes {
        let got = per_file(n, m);
        let t = Terms::closed_form(n as u64, m as u64);
        let shape = format!("{n}->{m}");
        assert_eq!(got.alltoalls, n as u64, "{shape}: one index all-to-all per producer");
        assert_eq!(got.notifies, 0, "{shape}: notifications");
        assert_eq!(got.calls, t.calls(), "{shape}: calls");
        assert_eq!(got.messages, t.messages(), "{shape}: messages");
        eprintln!("message_counts: {shape}: {} messages per file", got.messages);
    }
}
