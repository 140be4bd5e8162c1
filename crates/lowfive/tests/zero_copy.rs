//! Zero-copy serve path and generation-tagged consumer caches.
//!
//! The serve loop answers data queries with *borrowed* sub-slices of the
//! producer's regions (no staging copy), and every reply carries
//! the file's generation so a consumer holding cached metadata/owner
//! lookups can detect an in-place rewrite and refetch. These tests pin:
//!
//! - read → in-place rewrite → read returns the *new* bytes;
//! - a query box that intersects nothing served returns fill values
//!   (canonical empty-bbox handling end to end), and every filled byte is
//!   *counted* (`BytesZeroFilled`) — exactly the gap, and 0 on a covered
//!   read;
//! - random owner layouts with holes and overlaps × random hyperslab
//!   reads agree byte for byte with an in-test `vec![0; n]` + scatter
//!   oracle (the read buffer is not zero-initialised, so the fill has to
//!   be put there on purpose);
//! - a producer serves a consumer with zero dataset-payload memcpys
//!   (`BytesCopied == 0`), for shallow and deep regions alike;
//! - a dropped zero-copy reply is retransmitted by the bounded RPC retry
//!   without corrupting the producer's lent buffer (no aliasing, no
//!   double-free — the region is refcounted, not owned by the wire).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use obsv::{Ctr, Registry};
use proptest::prelude::*;
use simmpi::{FaultKind, FaultPlan, TaskComm, TaskSpec, TaskWorld};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

const N: u64 = 64;
const HALF: u64 = N / 2;

/// The staleness regression: two producers write their halves, the
/// consumer reads the whole dataset while *keeping the file open*, the
/// producers rewrite their halves in place (same geometry, new values,
/// generation bump), and the consumer's second read through the
/// still-open handle must observe the new values.
///
/// World barriers order the phases; async serve keeps the producers'
/// serve loop answering across the rewrite.
#[test]
fn in_place_rewrite_is_observed() {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .async_serve(true)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            let p = tc.local.rank() as u64;
            let lo = p * HALF;
            let sel = Selection::block(&[lo], &[HALF]);
            let f = h5.create_file("rw.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let vals: Vec<u64> = (lo..lo + HALF).collect();
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap(); // async: returns immediately, serve thread answers
            tc.world.barrier(); // consumer finished its first read
                                // In-place rewrite through a re-opened handle: same geometry,
                                // new values. This bumps the file generation; the close of a
                                // non-created handle must not re-serve.
            let f = h5.open_file("rw.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let vals: Vec<u64> = (lo..lo + HALF).map(|i| i + 7777).collect();
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap();
            tc.world.barrier(); // rewrite visible before the second read
            vol.drain();
        } else {
            let f = h5.open_file("rw.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let first: Vec<u64> = d.read_all().unwrap();
            let want: Vec<u64> = (0..N).collect();
            assert_eq!(first, want, "first read sees the original snapshot");
            tc.world.barrier(); // let the producers rewrite
            tc.world.barrier();
            // Cached owner lookups are now stale; the generation tag in
            // the data replies must force an invalidate+refetch, so the
            // same open handle observes the rewritten bytes.
            let second: Vec<u64> = d.read_all().unwrap();
            let want: Vec<u64> = (0..N).map(|i| i + 7777).collect();
            assert_eq!(second, want, "second read must see the in-place rewrite");
            f.close().unwrap();
        }
    });
}

/// A consumer query box that intersects no written region: the redirect
/// finds no owners, no data RPC is issued, and the read returns fill
/// zeros — exercising the canonical empty-bbox path on the serve side.
/// The fill is explicit and counted: `bytes_zero_filled` grows by exactly
/// the bytes no producer covered.
#[test]
fn disjoint_query_returns_fill() {
    let reg = Registry::new();
    let zero_filled = || reg.report().counter(Ctr::BytesZeroFilled);
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("gap.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[32])).unwrap();
            // Only [0, 8) is ever written.
            let vals: Vec<u64> = (0..8).map(|i| i + 1).collect();
            d.write_selection(&Selection::block(&[0], &[8]), &vals).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("gap.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            // Disjoint from every written region: all fill.
            let hole: Vec<u64> = d.read_selection(&Selection::block(&[16], &[8])).unwrap();
            assert_eq!(hole, vec![0u64; 8]);
            assert_eq!(zero_filled(), 8 * 8, "all-fill read counts every byte");
            // Straddling: written prefix, fill suffix.
            let edge: Vec<u64> = d.read_selection(&Selection::block(&[4], &[8])).unwrap();
            assert_eq!(edge, vec![5, 6, 7, 8, 0, 0, 0, 0]);
            assert_eq!(zero_filled(), 8 * 8 + 4 * 8, "straddling read counts only the gap");
            // Covered: nothing to fill.
            let covered: Vec<u64> = d.read_selection(&Selection::block(&[2], &[6])).unwrap();
            assert_eq!(covered, vec![3, 4, 5, 6, 7, 8]);
            assert_eq!(zero_filled(), 8 * 8 + 4 * 8, "a covered read fills nothing");
            f.close().unwrap();
        }
    });
}

/// Run one producer→consumer exchange under an observed registry and
/// return the total `(BytesCopied, BytesZeroFilled)` across all ranks.
/// `shallow` toggles the zero-copy rule for every dataset.
fn copied_and_filled_for(shallow: bool) -> (u64, u64) {
    const M: u64 = 1 << 12;
    let reg = Registry::new();
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", shallow);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("ab.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[M])).unwrap();
            let vals: Vec<u64> = (0..M).collect();
            let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            d.write_bytes(&Selection::block(&[0], &[M]), Bytes::from(raw), Ownership::Shallow)
                .unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("ab.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let got: Vec<u64> = d.read_all().unwrap();
            assert_eq!(got, (0..M).collect::<Vec<_>>());
            f.close().unwrap();
        }
    });
    let report = reg.report();
    (report.counter(Ctr::BytesCopied), report.counter(Ctr::BytesZeroFilled))
}

/// The serve moves the dataset payload from producer region to consumer
/// buffer with zero intermediate memcpys whatever the region's ownership:
/// a deep region is the VOL's own copy, made at write time, and is lent
/// like a shallow one.
#[test]
fn serve_copies_no_payload_bytes_for_either_ownership() {
    for shallow in [true, false] {
        assert_eq!(
            copied_and_filled_for(shallow),
            (0, 0),
            "shallow={shallow}: serve copies nothing, covered read fills nothing"
        );
    }
}

/// Chaos: every (src, dest, tag) flow loses its first message — including
/// the first zero-copy data reply, whose parts borrow the producer's
/// region. The bounded RPC retry must retransmit (re-lending the same
/// refcounted buffer) and the consumer must still assemble exact bytes,
/// while the producer's original buffer survives unscathed.
#[test]
fn dropped_reply_retry_keeps_lent_buffer_intact() {
    const M: u64 = 512;
    let raw: Vec<u8> = (0..M).flat_map(|v| (v * 3 + 1).to_le_bytes()).collect();
    let lent = Bytes::from(raw);
    let lent_ref = &lent;
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    let plan = FaultPlan::new(0x5EED).drop_once(1.0);
    let out = TaskWorld::builder(&specs).fault_plan(plan).run_chaos(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", true);
        props.set_rpc_timeout("*", Some(Duration::from_millis(250)));
        props.set_rpc_retries("*", 20);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("chaos.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[M])).unwrap();
            d.write_bytes(&Selection::block(&[0], &[M]), lent_ref.clone(), Ownership::Shallow)
                .unwrap();
            f.close().unwrap(); // serves, retransmitting dropped replies
                                // The wire only ever borrowed the region: our handle still
                                // sees every original byte.
            let expect: Vec<u8> = (0..M).flat_map(|v| (v * 3 + 1).to_le_bytes()).collect();
            assert_eq!(lent_ref.as_ref(), &expect[..], "lent buffer mutated by the serve path");
        } else {
            let f = h5.open_file("chaos.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let got: Vec<u64> = d.read_all().unwrap();
            assert_eq!(got, (0..M).map(|v| v * 3 + 1).collect::<Vec<_>>());
            f.close().unwrap();
        }
    });
    assert!(out.deaths.is_empty(), "drop-once plan must not kill ranks: {:?}", out.deaths);
    assert!(out.results.iter().all(Option::is_some), "every rank must finish");
    assert!(
        out.trace.iter().any(|e| matches!(e.kind, FaultKind::Dropped)),
        "plan must actually have dropped a message"
    );
}

// ---------------------------------------------------------------------
// Fill oracle: holes, overlaps, hyperslabs
// ---------------------------------------------------------------------

/// One written block of the 2-d dataset: who writes it, where, and how.
#[derive(Debug, Clone)]
struct Region {
    owner: usize,
    start: [u64; 2],
    size: [u64; 2],
    deep: bool,
}

#[derive(Debug, Clone)]
struct Layout {
    producers: usize,
    dims: [u64; 2],
    /// Blocks in write order; they may overlap each other (on one rank or
    /// across ranks) and need not cover the dataset.
    regions: Vec<Region>,
    /// The consumer's hyperslab, per dimension `(start, stride, count, block)`.
    slab: [(u64, u64, u64, u64); 2],
}

/// The value every writer stores at `(y, x)`: a function of the position
/// only, so overlapping writers agree, and never 0, so fill is told apart.
fn cell(dims: [u64; 2], y: u64, x: u64) -> u32 {
    (y * dims[1] + x) as u32 + 1
}

fn layout() -> impl Strategy<Value = Layout> {
    (1usize..=3, 2u64..=10, 2u64..=10).prop_flat_map(|(producers, d0, d1)| {
        let dims = [d0, d1];
        let region = (0..producers, any::<bool>(), proptest::collection::vec(0u64..64, 4))
            .prop_map(move |(owner, deep, r)| {
                let start = [r[0] % d0, r[1] % d1];
                let size = [1 + r[2] % (d0 - start[0]), 1 + r[3] % (d1 - start[1])];
                Region { owner, start, size, deep }
            });
        let slab = proptest::collection::vec(0u64..64, 8).prop_map(move |r| {
            let along = |d: u64, r: &[u64]| {
                let start = r[0] % d;
                let stride = 1 + r[1] % 3;
                let block = (1 + r[2] % stride).min(d - start);
                let max_count = 1 + (d - start - block) / stride;
                (start, stride, 1 + r[3] % max_count, block)
            };
            [along(d0, &r[..4]), along(d1, &r[4..])]
        });
        (proptest::collection::vec(region, 0..=6), slab).prop_map(move |(regions, slab)| Layout {
            producers,
            dims,
            regions,
            slab,
        })
    })
}

/// Coordinates a `(start, stride, count, block)` slab selects along one
/// dimension, ascending.
fn slab_coords((start, stride, count, block): (u64, u64, u64, u64)) -> Vec<u64> {
    (0..count).flat_map(|i| (0..block).map(move |j| start + i * stride + j)).collect()
}

/// The oracle: a zero-initialised packed buffer, every region scattered
/// over it in write order.
fn oracle(l: &Layout) -> Vec<u8> {
    let (ys, xs) = (slab_coords(l.slab[0]), slab_coords(l.slab[1]));
    let mut out = vec![0u32; ys.len() * xs.len()];
    for r in &l.regions {
        let inside = |c: u64, dim: usize| (r.start[dim]..r.start[dim] + r.size[dim]).contains(&c);
        for (k, (&y, &x)) in ys.iter().flat_map(|y| xs.iter().map(move |x| (y, x))).enumerate() {
            if inside(y, 0) && inside(x, 1) {
                out[k] = cell(l.dims, y, x);
            }
        }
    }
    out.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// What the consumer reads through the transport, and how many bytes it
/// reports as zero-filled.
fn read_through_transport(l: &Layout) -> (Vec<u8>, u64) {
    let reg = Registry::new();
    let specs = [TaskSpec::new("producer", l.producers), TaskSpec::new("consumer", 1)];
    let out = TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let builder = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            builder.produce("*", consumers).build()
        } else {
            builder.consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("holes.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt32, Dataspace::simple(&l.dims)).unwrap();
            for r in l.regions.iter().filter(|r| r.owner == tc.local.rank()) {
                let raw: Vec<u8> = (r.start[0]..r.start[0] + r.size[0])
                    .flat_map(|y| (r.start[1]..r.start[1] + r.size[1]).map(move |x| (y, x)))
                    .flat_map(|(y, x)| cell(l.dims, y, x).to_le_bytes())
                    .collect();
                let own = if r.deep { Ownership::Deep } else { Ownership::Shallow };
                d.write_bytes(&Selection::block(&r.start, &r.size), Bytes::from(raw), own).unwrap();
            }
            f.close().unwrap();
            Vec::new()
        } else {
            let [(s0, st0, c0, b0), (s1, st1, c1, b1)] = l.slab;
            let sel = Selection::strided(&[s0, s1], &[st0, st1], &[c0, c1], &[b0, b1]);
            let f = h5.open_file("holes.h5").unwrap();
            let got = f.open_dataset("x").unwrap().read_bytes(&sel).unwrap();
            f.close().unwrap();
            got.to_vec()
        }
    });
    let got = out.results.into_iter().last().expect("the consumer is the last rank");
    (got, reg.report().counter(Ctr::BytesZeroFilled))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Written cells arrive, unwritten cells are zero, and the zero-fill
    /// counter is exactly the unwritten bytes — whatever the owner layout
    /// (holes, overlaps, deep and shallow regions mixed in one dataset),
    /// whatever the hyperslab.
    #[test]
    fn holes_and_overlaps_match_the_zeroed_scatter_oracle(l in layout()) {
        let want = oracle(&l);
        let gaps = want.chunks(4).filter(|c| c.iter().all(|&b| b == 0)).count() as u64 * 4;
        let (got, filled) = read_through_transport(&l);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(filled, gaps, "every filled byte is counted");
    }
}
