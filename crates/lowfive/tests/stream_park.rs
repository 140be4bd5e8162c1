//! Parked step polls: an `M_STEP_NEXT` (or `M_STEP_SUB`) with nothing to
//! answer yet is held at the producer until `publish` (or
//! `StepPublisher::new`) can answer it, so a waiting consumer costs no
//! calls, and under a retry policy a slow producer is still told apart
//! from a dead one. The tests that need to see a request parked before
//! acting (policy picks, a drain without `finish`) read the producer's
//! state directly and live beside it, in `lowfive::stream`'s unit tests.
//!
//! Every test runs under a wall-clock watchdog, so a lost wake-up shows as
//! a failure rather than a hung suite.

use std::sync::Arc;
use std::time::Duration;

use lowfive::{
    DistMetadataVol, DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher, StepSubscription,
};
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Run `f` on its own thread and fail if it does not finish within `secs`
/// seconds (or panics).
fn under_watchdog<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("the run hung past its watchdog (or a rank panicked)")
}

/// Task 0 produces every series `*` to task 1, in overlap mode.
fn producer_vol(tc: &TaskComm, props: LowFiveProps) -> Arc<DistMetadataVol> {
    DistVolBuilder::new(tc.world.clone(), tc.local.clone())
        .props(props)
        .produce("*@s*", world_ranks(tc, 1))
        .async_serve(true)
        .build()
}

fn consumer_vol(tc: &TaskComm, props: LowFiveProps) -> Arc<DistMetadataVol> {
    DistVolBuilder::new(tc.world.clone(), tc.local.clone())
        .props(props)
        .consume("*@s*", world_ranks(tc, 0))
        .build()
}

/// Write, close and publish the next step: 4 cells holding its number.
fn publish_step(vol: &Arc<DistMetadataVol>, publisher: &StepPublisher, n: u64) -> u64 {
    let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
    let f = h5.create_file(&publisher.step_file()).expect("create slot");
    let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[4])).expect("dataset");
    d.write_selection(&Selection::block(&[0], &[4]), &[n; 4]).expect("write");
    f.close().expect("close slot");
    publisher.publish().expect("publish")
}

/// Follow `sub` to the end of its series, checking every step's payload;
/// returns the delivered sequence numbers.
fn follow(vol: &Arc<DistMetadataVol>, sub: &mut StepSubscription) -> Vec<u64> {
    let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
    let mut seen = Vec::new();
    while let Some(step) = sub.next_step().expect("next step") {
        let f = h5.open_file(&step.file).expect("open step");
        let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
        f.close().expect("close step");
        assert_eq!(got, vec![step.seq; 4], "step {} payload", step.seq);
        seen.push(step.seq);
    }
    seen
}

/// A consumer that subscribes before the series exists and polls before
/// the first step is published waits without calling again: both
/// requests are held and answered once. The sleeping loop this replaced
/// made about a hundred calls per 100 ms of waiting.
#[test]
fn a_waiting_consumer_makes_no_extra_calls() {
    let reg = obsv::Registry::new();
    let observe = reg.clone();
    let seen = under_watchdog(30, move || {
        let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
        let out = TaskWorld::run_observed(&specs, None, Some(&observe), |tc| {
            let pause = Duration::from_millis(100);
            if tc.task_id == 0 {
                let vol = producer_vol(&tc, LowFiveProps::new());
                // Another series starts the serve thread, so the subscribe
                // reaches a live loop that does not know `sim.h5` yet.
                let warm = StepPublisher::new(vol.clone(), "warm.h5").expect("publisher");
                std::thread::sleep(pause);
                let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
                std::thread::sleep(pause);
                publish_step(&vol, &publisher, 0);
                assert!(publisher.finish(None) && warm.finish(None));
                vol.drain();
                Vec::new()
            } else {
                let vol = consumer_vol(&tc, LowFiveProps::new());
                let mut sub = StepSubscription::new(vol.clone(), "sim.h5", StepPolicy::EveryStep)
                    .expect("subscribe");
                follow(&vol, &mut sub)
            }
        });
        out.results.into_iter().nth(1).expect("consumer result")
    });
    assert_eq!(seen, vec![0]);
    // Subscribe, the poll answered with step 0, its metadata and data
    // calls, and the poll answered `Ended`: five calls.
    let calls = reg.report().counter(obsv::Ctr::RpcCalls);
    assert!(calls <= 8, "{calls} RPC calls: the consumer polled while it waited");
}

/// A consumer whose retry policy gives each attempt 30 ms follows a
/// producer that takes 200 ms per step, and over 200 ms to register the
/// series. Every timed-out request is re-sent; the producer answers the
/// re-send at once (`NotFound` to a subscribe, `Pending` to a poll), so
/// the attempts never run out while the producer is alive.
#[test]
fn a_slow_producer_is_not_a_dead_one() {
    let reg = obsv::Registry::new();
    let observe = reg.clone();
    let seen = under_watchdog(30, move || {
        let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
        let out = TaskWorld::run_observed(&specs, None, Some(&observe), |tc| {
            let pause = Duration::from_millis(200);
            if tc.task_id == 0 {
                let vol = producer_vol(&tc, LowFiveProps::new());
                let warm = StepPublisher::new(vol.clone(), "warm.h5").expect("publisher");
                std::thread::sleep(pause);
                let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
                for n in 0..3 {
                    std::thread::sleep(pause);
                    publish_step(&vol, &publisher, n);
                }
                assert!(publisher.finish(None) && warm.finish(None));
                vol.drain();
                Vec::new()
            } else {
                let mut props = LowFiveProps::new();
                props.set_rpc_timeout("*", Some(Duration::from_millis(30))).set_rpc_retries("*", 2);
                let vol = consumer_vol(&tc, props);
                let mut sub = StepSubscription::new(vol.clone(), "sim.h5", StepPolicy::EveryStep)
                    .expect("a slow producer must not read as unavailable");
                follow(&vol, &mut sub)
            }
        });
        out.results.into_iter().nth(1).expect("consumer result")
    });
    assert_eq!(seen, vec![0, 1, 2], "every step, in order");
    assert!(
        reg.report().counter(obsv::Ctr::RpcRetries) > 0,
        "the waits must have outlasted the per-attempt timeout"
    );
}
