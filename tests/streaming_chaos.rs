//! Chaos tests for the step-streaming layer (`lowfive::stream`).
//!
//! Three liveness properties the bounded step window must keep under
//! seeded fault injection:
//!
//! 1. **A dead consumer must not wedge the producer.** Under
//!    `BackPressure::DropOldest` the publish loop never waits on acks, so
//!    a consumer killed at its very first request still lets the producer
//!    publish everything, time out its bounded drain, and exit — with the
//!    streaming counters exact (no ack ever arrives, so eviction accounts
//!    for every step beyond the queue depth).
//! 2. **A consumer killed mid-stream is contained.** With a second,
//!    surviving `EveryStep` consumer beside it, the kill — landing after
//!    the victim's subscribe and first slot reads, its requests possibly
//!    still queued at the producer — must neither corrupt nor reorder
//!    what the survivor receives, and the producer still exits through
//!    its `finish` grace.
//! 3. **A dropped step announce is survivable.** The subscribe /
//!    next-step / ack control plane is idempotent polling, so with a
//!    retry policy armed (`set_rpc_timeout` / `set_rpc_retries`) a
//!    consumer whose request or reply vanished resends it and the
//!    delivered sequence — and every step's payload — stays exact.

use std::sync::Arc;
use std::time::Duration;

use lowfive::{
    BackPressure, DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher, StepSubscription,
};
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{FaultKind, FaultPlan, TaskSpec, TaskWorld};

/// Properties shared by both sides: a depth-2 step queue on series
/// `sim.h5`, under the given back-pressure mode.
fn stream_props(mode: BackPressure) -> LowFiveProps {
    let mut props = LowFiveProps::new();
    props.set_stream_queue_depth("sim.h5", 2).set_stream_backpressure("sim.h5", mode);
    props
}

/// Write, close and publish `steps` slot files of `elems` cells each
/// (every cell holds the step number), pausing `pause` after each.
fn publish_steps(h5: &H5, publisher: &StepPublisher, steps: u64, elems: u64, pause: Duration) {
    for n in 0..steps {
        let f = h5.create_file(&publisher.step_file()).expect("create slot");
        let d =
            f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[elems])).expect("dataset");
        d.write_selection(&Selection::block(&[0], &[elems]), &vec![n; elems as usize])
            .expect("write");
        f.close().expect("close slot");
        publisher.publish().expect("publish");
        std::thread::sleep(pause);
    }
}

#[test]
fn killed_consumer_does_not_wedge_the_producer() {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    // The consumer's first user-tag send is its M_STEP_SUB request: it
    // dies before the producer ever hears from it.
    let plan = FaultPlan::new(0x00DE_AD5B).kill_rank(1, 1);
    let reg = obsv::Registry::new();
    let t0 = std::time::Instant::now();
    let out = TaskWorld::run_chaos_observed(&specs, None, plan, Some(&reg), move |tc| {
        if tc.task_id == 0 {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(stream_props(BackPressure::DropOldest))
                .produce("sim.h5@s*", vec![1])
                .async_serve(true)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
            // DropOldest: `publish` never blocks on the dead consumer.
            publish_steps(&h5, &publisher, 6, 4, Duration::ZERO);
            // The dead consumer never acks: the bounded drain must time
            // out cleanly rather than hang.
            let drained = publisher.finish(Some(Duration::from_millis(50)));
            vol.drain();
            drained
        } else {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("sim.h5@s*", vec![0])
                .build();
            // The fault plan kills this rank inside the subscribe's first
            // request send; the value below is never returned.
            let _ = StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep);
            true
        }
    });
    let elapsed = t0.elapsed();

    assert_eq!(out.deaths.len(), 1, "deaths: {:?}", out.deaths);
    assert_eq!(out.deaths[0].rank, 1, "the consumer is the victim");
    assert!(out.deaths[0].injected);
    assert!(out.results[1].is_none(), "the consumer never returns");
    assert_eq!(out.results[0], Some(false), "producer exits; its drain must have timed out");
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?} — producer wedged?");
    assert_eq!(out.trace.len(), 1);
    assert_eq!(out.trace[0].kind, FaultKind::Killed);

    // Counters are exact: all 6 steps published; with no ack ever
    // received, the depth-2 queue evicted everything beyond its capacity;
    // nobody was alive to lag.
    let report = reg.report();
    assert_eq!(report.counter(obsv::Ctr::StepsPublished), 6);
    assert_eq!(report.counter(obsv::Ctr::StepsDropped), 4);
    assert_eq!(report.counter(obsv::Ctr::StepsLagged), 0);
}

#[test]
fn consumer_killed_mid_stream_leaves_the_survivor_in_order() {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 2)];
    // Send 8 of consumer world rank 2 lands mid-stream: after its
    // subscribe and first slot reads.
    let plan = FaultPlan::new(0xC0_FFEE).kill_rank(2, 8);
    let t0 = std::time::Instant::now();
    let out = TaskWorld::run_chaos(&specs, None, plan, move |tc| -> (Vec<u64>, bool) {
        let mut props = stream_props(BackPressure::DropOldest);
        props.set_zerocopy("*", "*", false);
        if tc.task_id == 0 {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("sim.h5@s*", vec![1, 2])
                .async_serve(true)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
            // A moment per step, so the survivor sees most of the series
            // even at depth 2.
            publish_steps(&h5, &publisher, 6, 512, Duration::from_millis(5));
            // The victim never acks its outstanding steps: the bounded
            // drain must time out cleanly.
            let drained = publisher.finish(Some(Duration::from_millis(100)));
            vol.drain();
            (Vec::new(), drained)
        } else {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("sim.h5@s*", vec![0])
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let mut sub =
                StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).expect("subscribe");
            let mut seen = Vec::new();
            while let Some(step) = sub.next_step().expect("next step") {
                let f = h5.open_file(&step.file).expect("open step");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
                f.close().expect("close step");
                if !sub.is_torn(&step) {
                    assert_eq!(got, vec![step.seq; 512], "step {} payload", step.seq);
                    seen.push(step.seq);
                }
            }
            (seen, true)
        }
    });
    assert!(t0.elapsed() < Duration::from_secs(30), "took {:?} — wedged?", t0.elapsed());
    assert_eq!(out.deaths.len(), 1, "exactly one injected death: {:?}", out.deaths);
    assert_eq!(out.deaths[0].rank, 2, "the kill must land on the victim");
    assert!(out.deaths[0].injected);
    assert_eq!(out.trace.len(), 1);
    assert_eq!(out.trace[0].kind, FaultKind::Killed);
    assert!(out.results[2].is_none(), "the victim never returns");
    let (_, drained) = out.results[0].clone().expect("producer finished");
    assert!(!drained, "the producer must exit through its drain timeout");
    let (seen, _) = out.results[1].clone().expect("survivor finished");
    assert!(!seen.is_empty(), "the surviving consumer must keep receiving steps");
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "in order, no duplicates: {seen:?}");
}

#[test]
fn dropped_step_announce_recovers_via_retry() {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    // Probability 1: the first message on every flow vanishes — the SUB
    // request, the first announce reply, the first ack, all of them. The
    // armed retry policy must resend each one.
    let plan = FaultPlan::new(0x57E9).drop_once(1.0);
    let out = TaskWorld::run_chaos(&specs, None, plan, move |tc| -> Vec<u64> {
        if tc.task_id == 0 {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(stream_props(BackPressure::Block))
                .produce("sim.h5@s*", vec![1])
                .async_serve(true)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
            publish_steps(&h5, &publisher, 4, 4, Duration::ZERO);
            assert!(
                publisher.finish(Some(Duration::from_secs(30))),
                "Block mode must drain fully once the retries get through"
            );
            vol.drain();
            Vec::new()
        } else {
            let mut props = stream_props(BackPressure::Block);
            props.set_rpc_timeout("*", Some(Duration::from_millis(200)));
            props.set_rpc_retries("*", 4);
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("sim.h5@s*", vec![0])
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let mut sub =
                StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).expect("subscribe");
            let mut seen = Vec::new();
            while let Some(step) = sub.next_step().expect("next step") {
                let f = h5.open_file(&step.file).expect("open step");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
                f.close().expect("close step");
                assert!(!sub.is_torn(&step), "Block mode cannot tear a step");
                assert_eq!(got, vec![step.seq; 4], "step {} payload exact under drops", step.seq);
                seen.push(step.seq);
            }
            seen
        }
    });
    assert!(out.deaths.is_empty(), "no rank should die: {:?}", out.deaths);
    let seen = out.results[1].as_ref().expect("consumer finished");
    assert_eq!(seen[..], [0, 1, 2, 3], "EveryStep under Block delivers the lossless sequence");
    assert!(
        out.trace.iter().any(|e| e.kind == FaultKind::Dropped),
        "the plan must actually have dropped something"
    );
}
