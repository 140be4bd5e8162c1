//! A/B property test: step streaming is just file exchange in a loop.
//!
//! For any small geometry (producer/consumer counts, slab size, step
//! count) and any benign fault seed (delays, reordering), an `EveryStep`
//! subscription over a `Block`-mode series must deliver byte-identical
//! data, in the identical order, to the obvious serial alternative: the
//! producer writing one whole file per step and the consumer reading each
//! file back through the plain (non-streaming) transport. Back-pressure,
//! slot rotation, announce polling, and ack multicast are all invisible
//! in the delivered bytes — they only change *when* things happen.

use std::sync::Arc;
use std::time::Duration;

use lowfive::{
    BackPressure, DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher, StepSubscription,
};
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use proptest::prelude::*;
use simmpi::{FaultPlan, TaskComm, TaskSpec, TaskWorld};

/// The one dataset cell value: a function of the step and the global
/// index, so any misrouted, stale, or reordered read changes some byte.
fn val(seq: u64, i: u64) -> u64 {
    seq * 1_000_000 + i
}

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// One consumer's delivered steps: `(seq, dataset bytes)` in delivery
/// order.
type Delivered = Vec<(u64, Vec<u64>)>;

/// Producer rank `p` of `producers` writes its slab of step `seq` into
/// the open file `f` (dims `[producers * elems]`).
fn write_slab(f: &minih5::H5File, producers: u64, p: u64, elems: u64, seq: u64) {
    let d = f
        .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[producers * elems]))
        .expect("dataset");
    let base = p * elems;
    let vals: Vec<u64> = (base..base + elems).map(|i| val(seq, i)).collect();
    d.write_selection(&Selection::block(&[base], &[elems]), &vals).expect("write slab");
}

/// Stream `steps` steps through a depth-2 `Block` queue and return each
/// consumer's delivered `(seq, bytes)` list, under `plan`'s benign
/// faults.
fn run_streamed(
    producers: usize,
    consumers: usize,
    elems: u64,
    steps: u64,
    plan: FaultPlan,
) -> Vec<Option<Delivered>> {
    let specs = [TaskSpec::new("producer", producers), TaskSpec::new("consumer", consumers)];
    let np = producers as u64;
    let out = TaskWorld::builder(&specs).fault_plan(plan).run_chaos(move |tc| {
        let mut props = LowFiveProps::new();
        props
            .set_stream_queue_depth("sim.h5", 2)
            .set_stream_backpressure("sim.h5", BackPressure::Block);
        if tc.task_id == 0 {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("sim.h5@s*", world_ranks(&tc, 1))
                .async_serve(true)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
            // Every producer rank runs this loop in lockstep, as the
            // ordering contract requires.
            for seq in 0..steps {
                let f = h5.create_file(&publisher.step_file()).expect("create slot");
                write_slab(&f, np, tc.local.rank() as u64, elems, seq);
                f.close().expect("close slot");
                publisher.publish().expect("publish");
            }
            assert!(publisher.finish(None), "Block + EveryStep consumes everything");
            vol.drain();
            Vec::new()
        } else {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("sim.h5@s*", world_ranks(&tc, 0))
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let mut sub =
                StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).expect("subscribe");
            let mut seen = Vec::new();
            while let Some(step) = sub.next_step().expect("next step") {
                let f = h5.open_file(&step.file).expect("open step");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
                f.close().expect("close step");
                seen.push((step.seq, got));
            }
            seen
        }
    });
    out.results
}

/// The reference: the same data as one ordinary whole-file exchange per
/// step (`ref<seq>.h5`), no streaming anywhere. Fault-free — this is the
/// ground truth the faulted streamed run must reproduce.
fn run_serial(producers: usize, consumers: usize, elems: u64, steps: u64) -> Vec<Delivered> {
    let specs = [TaskSpec::new("producer", producers), TaskSpec::new("consumer", consumers)];
    let np = producers as u64;
    TaskWorld::run(&specs, move |tc| {
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("ref*", world_ranks(&tc, 1))
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("ref*", world_ranks(&tc, 0))
                .build()
        };
        let h5 = H5::with_vol(vol);
        let mut seen = Vec::new();
        for seq in 0..steps {
            let name = format!("ref{seq}.h5");
            if tc.task_id == 0 {
                let f = h5.create_file(&name).expect("create");
                write_slab(&f, np, tc.local.rank() as u64, elems, seq);
                f.close().expect("close (index + serve)");
            } else {
                let f = h5.open_file(&name).expect("open");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
                f.close().expect("release the producers");
                seen.push((seq, got));
            }
        }
        seen
    })
}

fn plan_for(seed: u64, fault: u8) -> FaultPlan {
    match fault {
        0 => FaultPlan::new(seed),
        1 => FaultPlan::new(seed).delay(0.3, Duration::from_millis(1)),
        _ => FaultPlan::new(seed).delay(0.2, Duration::from_millis(1)).reorder(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]
    #[test]
    fn streamed_reads_match_serial_exchange(
        producers in 1usize..=2,
        consumers in 1usize..=2,
        elems in 2u64..=6,
        steps in 3u64..=5,
        seed in any::<u64>(),
        fault in 0u8..3,
    ) {
        let streamed = run_streamed(producers, consumers, elems, steps, plan_for(seed, fault));
        let serial = run_serial(producers, consumers, elems, steps);
        for c in 0..consumers {
            let got = streamed[producers + c].as_ref().expect("consumer survived benign faults");
            let want = &serial[producers + c];
            prop_assert_eq!(
                got, want,
                "consumer {} (geometry {}x{}, {} elems, {} steps, fault {})",
                c, producers, consumers, elems, steps, fault
            );
        }
        // Sanity on the reference itself: all steps, expected bytes.
        let want0 = &serial[producers];
        prop_assert_eq!(want0.len() as u64, steps);
        for (seq, data) in want0 {
            let expect: Vec<u64> =
                (0..producers as u64 * elems).map(|i| val(*seq, i)).collect();
            prop_assert_eq!(data, &expect);
        }
    }
}
