//! Property-based test of the index–serve–query redistribution: for
//! random task sizes, grid shapes, producer decompositions, and consumer
//! queries, every element the consumer reads must equal its global linear
//! index (and unwritten cells must read zero) — and a second property
//! samples the (geometry × fault seed) product: under any benign
//! delay/reorder plan the redistributed bytes are identical to the
//! fault-free run.
//!
//! Producers write in one of two layouts: each its block of the common
//! decomposition (aligned — a read is one round) or an x-range between
//! random cuts (misaligned in general — a read may need a second round
//! to the owners the block owners name).

use std::sync::Arc;
use std::time::Duration;

use diyblk::RegularDecomposer;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{BBox, Dataspace, Datatype, Selection, Vol, H5};
use proptest::prelude::*;
use simmpi::{FaultPlan, TaskSpec, TaskWorld};

#[derive(Debug, Clone)]
struct Scenario {
    producers: usize,
    consumers: usize,
    dims: Vec<u64>,
    /// Per-producer x-ranges (contiguous partition of dims[0]).
    cuts: Vec<u64>,
    /// Producers write their common-decomposition blocks instead of `cuts`.
    aligned: bool,
    /// Consumer queries: one box per consumer, inside the dims.
    queries: Vec<(Vec<u64>, Vec<u64>)>, // (start, size)
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=5, 1usize..=4, 1usize..=3).prop_flat_map(|(producers, consumers, rank)| {
        let dim = 2u64..=12;
        let dims = proptest::collection::vec(dim, rank);
        dims.prop_flat_map(move |dims| {
            let nx = dims[0];
            // Random cut points partitioning [0, nx) into `producers` ranges.
            let cuts = proptest::collection::vec(0..=nx, producers - 1).prop_map(move |mut c| {
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
                            let max = d - s;
                            let len = 1 + r[2 * i + 1] % max;
                            start.push(s);
                            size.push(len);
                        }
                        (start, size)
                    })
                    .collect::<Vec<_>>()
            });
            let dims3 = dims.clone();
            (cuts, queries, any::<bool>()).prop_map(move |(cuts, queries, aligned)| Scenario {
                producers,
                consumers,
                dims: dims3.clone(),
                cuts,
                aligned,
                queries,
            })
        })
    })
}

impl Scenario {
    /// What producer `p` writes, `None` when that is nothing.
    fn producer_sel(&self, p: usize) -> Option<Selection> {
        let bb = if self.aligned {
            RegularDecomposer::new(&self.dims, self.producers).block_bounds(p)
        } else {
            let mut lo = vec![0u64; self.dims.len()];
            let mut hi = self.dims.clone();
            lo[0] = if p == 0 { 0 } else { self.cuts[p - 1] };
            hi[0] = if p + 1 == self.producers { self.dims[0] } else { self.cuts[p] };
            BBox::new(lo, hi)
        };
        (!bb.is_empty()).then(|| bb.to_selection())
    }

    /// The position-encoded values of `sel`: each cell's linear index.
    fn values(&self, sel: &Selection) -> Vec<u64> {
        sel.runs(&Dataspace::simple(&self.dims))
            .iter()
            .flat_map(|r| r.offset..r.offset + r.len)
            .collect()
    }
}

/// Run one redistribution; returns each consumer's values (indexed by
/// consumer rank). With a fault plan, runs under chaos and asserts that
/// no rank died (the plans sampled here are kill-free and benign).
fn run_scenario(s: &Scenario, plan: Option<FaultPlan>) -> Vec<Vec<u64>> {
    let specs = [TaskSpec::new("p", s.producers), TaskSpec::new("c", s.consumers)];
    let producers = s.producers;
    let s = s.clone();
    let body = move |tc: simmpi::TaskComm| {
        let producers: Vec<usize> = (0..s.producers).collect();
        let consumers: Vec<usize> = (s.producers..s.producers + s.consumers).collect();
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("prop.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&s.dims)).unwrap();
            if let Some(sel) = s.producer_sel(tc.local.rank()) {
                d.write_selection(&sel, &s.values(&sel)).unwrap();
            }
            f.close().unwrap();
            Vec::new()
        } else {
            let c = tc.local.rank();
            let (start, size) = &s.queries[c];
            let f = h5.open_file("prop.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let sel = Selection::block(start, size);
            let got: Vec<u64> = d.read_selection(&sel).unwrap();
            assert_eq!(got, s.values(&sel), "query {start:?}+{size:?} over dims {:?}", s.dims);
            f.close().unwrap();
            got
        }
    };
    let results: Vec<Option<Vec<u64>>> = match plan {
        None => TaskWorld::run(&specs, body).into_iter().map(Some).collect(),
        Some(plan) => {
            let out = TaskWorld::run_chaos(&specs, None, plan, body);
            assert!(out.deaths.is_empty(), "benign plan killed ranks: {:?}", out.deaths);
            out.results
        }
    };
    results.into_iter().skip(producers).map(|r| r.expect("every rank finishes")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every consumer read returns position-encoded values, for arbitrary
    /// rank-1..3 grids, uneven producer cuts (including empty producers),
    /// and arbitrary consumer boxes.
    #[test]
    fn redistribution_is_position_exact(s in scenario()) {
        run_scenario(&s, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Sampling the (workload geometry × fault seed) product: a seeded
    /// delay/reorder plan (no kills) must leave every redistributed byte
    /// identical to the fault-free run of the same geometry.
    #[test]
    fn faulted_redistribution_matches_fault_free(s in scenario(), seed in any::<u64>()) {
        let clean = run_scenario(&s, None);
        let plan = FaultPlan::new(seed).delay(0.4, Duration::from_micros(400)).reorder(0.5);
        let chaotic = run_scenario(&s, Some(plan));
        prop_assert_eq!(clean, chaotic, "fault seed {:#x} changed redistributed bytes", seed);
    }
}

/// Like [`run_scenario`], but every consumer reads *all* scenario queries
/// in one `read_bytes_multi` (one `M_DATA_BATCH` frame per producer
/// carrying several selections), under a benign fault plan. Returns each
/// consumer's concatenated bytes.
fn run_scenario_multi(s: &Scenario, plan: FaultPlan) -> Vec<Vec<u8>> {
    let specs = [TaskSpec::new("p", s.producers), TaskSpec::new("c", s.consumers)];
    let producers = s.producers;
    let s = s.clone();
    let body = move |tc: simmpi::TaskComm| {
        let producers: Vec<usize> = (0..s.producers).collect();
        let consumers: Vec<usize> = (s.producers..s.producers + s.consumers).collect();
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("prop-multi.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&s.dims)).unwrap();
            if let Some(sel) = s.producer_sel(tc.local.rank()) {
                d.write_selection(&sel, &s.values(&sel)).unwrap();
            }
            f.close().unwrap();
            Vec::new()
        } else {
            let f = h5.open_file("prop-multi.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let sels: Vec<Selection> =
                s.queries.iter().map(|(start, size)| Selection::block(start, size)).collect();
            let bufs = d.read_bytes_multi(&sels).unwrap();
            f.close().unwrap();
            bufs.iter().flat_map(|b| b.iter().copied()).collect::<Vec<u8>>()
        }
    };
    let out = TaskWorld::run_chaos(&specs, None, plan, body);
    assert!(out.deaths.is_empty(), "benign plan killed ranks: {:?}", out.deaths);
    out.results.into_iter().skip(producers).map(|r| r.expect("every rank finishes")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// One batched multi-selection read must return, for every
    /// selection, the position-encoded values of exactly the cells it
    /// names — computed here from the selection's runs — across the
    /// (geometry × aligned-or-misaligned layout × fault seed) product:
    /// batching, overlap and the round count are pure transport
    /// optimizations.
    #[test]
    fn batched_read_matches_ground_truth(s in scenario(), seed in any::<u64>()) {
        let plan = FaultPlan::new(seed).delay(0.3, Duration::from_micros(300)).reorder(0.4);
        let want: Vec<u8> = s
            .queries
            .iter()
            .flat_map(|(start, size)| s.values(&Selection::block(start, size)))
            .flat_map(u64::to_le_bytes)
            .collect();
        for (c, got) in run_scenario_multi(&s, plan).iter().enumerate() {
            prop_assert_eq!(got, &want, "fault seed {:#x}: consumer {}", seed, c);
        }
    }
}

/// Like [`run_scenario_multi`], but the producers write raw refcounted
/// buffers and the zero-copy rule is toggled: `shallow` serves borrowed
/// sub-slices of the producer regions, `!shallow` forces deep staging
/// copies. A drop-once fault plan (plus bounded RPC retries) may be
/// layered on to retransmit borrowed reply frames. Returns each
/// consumer's concatenated query bytes.
fn run_scenario_zc(s: &Scenario, plan: Option<FaultPlan>, shallow: bool) -> Vec<Vec<u8>> {
    let specs = [TaskSpec::new("p", s.producers), TaskSpec::new("c", s.consumers)];
    let producers = s.producers;
    let faulted = plan.is_some();
    let s = s.clone();
    let body = move |tc: simmpi::TaskComm| {
        let producers: Vec<usize> = (0..s.producers).collect();
        let consumers: Vec<usize> = (s.producers..s.producers + s.consumers).collect();
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", shallow);
        if faulted {
            // Dropped requests/replies need a bounded retry to converge.
            props.set_rpc_timeout("*", Some(Duration::from_millis(150)));
            props.set_rpc_retries("*", 30);
        }
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
            let f = h5.create_file("prop-zc.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&s.dims)).unwrap();
            if let Some(sel) = s.producer_sel(tc.local.rank()) {
                let raw: Vec<u8> = s.values(&sel).into_iter().flat_map(u64::to_le_bytes).collect();
                d.write_bytes(&sel, bytes::Bytes::from(raw), minih5::Ownership::Shallow).unwrap();
            }
            f.close().unwrap();
            Vec::new()
        } else {
            let f = h5.open_file("prop-zc.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let sels: Vec<Selection> =
                s.queries.iter().map(|(start, size)| Selection::block(start, size)).collect();
            let bufs = d.read_bytes_multi(&sels).unwrap();
            f.close().unwrap();
            bufs.iter().flat_map(|b| b.iter().copied()).collect::<Vec<u8>>()
        }
    };
    let results: Vec<Option<Vec<u8>>> = match plan {
        None => TaskWorld::run(&specs, body).into_iter().map(Some).collect(),
        Some(plan) => {
            let out = TaskWorld::run_chaos(&specs, None, plan, body);
            assert!(out.deaths.is_empty(), "benign plan killed ranks: {:?}", out.deaths);
            out.results
        }
    };
    results.into_iter().skip(producers).map(|r| r.expect("every rank finishes")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Shallow (zero-copy, borrowed reply slices) and deep (staged copy)
    /// serves must deliver byte-identical data across the (geometry ×
    /// fault seed) product — including dropped-once replies whose
    /// borrowed frames are retransmitted — and both must match the
    /// fault-free shallow run. Ownership is a transport property, never
    /// a data property.
    #[test]
    fn shallow_and_deep_serves_are_byte_identical(s in scenario(), seed in any::<u64>()) {
        let clean = run_scenario_zc(&s, None, true);
        let plan = || FaultPlan::new(seed)
            .drop_once(0.3)
            .delay(0.3, Duration::from_micros(300))
            .reorder(0.4);
        let shallow = run_scenario_zc(&s, Some(plan()), true);
        let deep = run_scenario_zc(&s, Some(plan()), false);
        prop_assert_eq!(&shallow, &deep, "fault seed {:#x}: shallow != deep", seed);
        prop_assert_eq!(&shallow, &clean, "fault seed {:#x}: faulted != fault-free", seed);
    }
}
