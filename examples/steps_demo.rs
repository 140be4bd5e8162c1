//! Step streaming demo: a 2-rank producer task publishes a series of
//! timesteps through a bounded step queue while two consumers follow the
//! same series under different policies — an analysis rank reading
//! [`StepPolicy::EveryStep`] losslessly, and a dashboard rank reading
//! [`StepPolicy::LatestStep`], happy to skip ahead whenever it falls
//! behind.
//!
//! The walkthrough in `docs/STREAMING.md` narrates this file.
//!
//! Run with:
//! ```text
//! cargo run -p bench --release --example steps_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use lowfive::{
    BackPressure, DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher, StepSubscription,
};
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{TaskSpec, TaskWorld};

const STEPS: u64 = 8;
const ELEMS: u64 = 16; // per producer rank
const PRODUCERS: usize = 2;

fn main() {
    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("sim", PRODUCERS), TaskSpec::new("analysis", 2)];
    TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        // Streaming knobs are ordinary file properties, matched on the
        // *series* name: a queue of up to 3 unconsumed steps, and Block
        // back-pressure (the publisher waits for the slowest consumer
        // instead of evicting steps).
        let mut props = LowFiveProps::new();
        props
            .set_stream_queue_depth("sim.h5", 3)
            .set_stream_backpressure("sim.h5", BackPressure::Block);

        if tc.task_id == 0 {
            // ---- producer: write a slot file per step, then publish ----
            let consumers: Vec<usize> =
                (0..tc.task_size(1)).map(|r| tc.world_rank_of(1, r)).collect();
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("sim.h5@s*", consumers)
                .async_serve(true) // streaming requires overlap mode
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");

            // Every producer rank runs the same loop in lockstep, exactly
            // like any other collective write.
            let p = tc.local.rank() as u64;
            for seq in 0..STEPS {
                let f = h5.create_file(&publisher.step_file()).expect("create slot");
                let d = f
                    .create_dataset(
                        "field",
                        Datatype::UInt64,
                        Dataspace::simple(&[PRODUCERS as u64 * ELEMS]),
                    )
                    .expect("dataset");
                let base = p * ELEMS;
                let vals: Vec<u64> = (base..base + ELEMS).map(|i| seq * 1000 + i).collect();
                d.write_selection(&Selection::block(&[base], &[ELEMS]), &vals).expect("write");
                f.close().expect("close slot");
                let published = publisher.publish().expect("publish");
                if p == 0 {
                    println!("[sim] published step {published}");
                }
            }
            // Wait until every consumer acknowledged everything, then let
            // the serve thread go.
            assert!(publisher.finish(Some(Duration::from_secs(30))), "consumers caught up");
            vol.drain();
        } else {
            // ---- consumers: same series, two different policies ----
            let producers: Vec<usize> =
                (0..tc.task_size(0)).map(|r| tc.world_rank_of(0, r)).collect();
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("sim.h5@s*", producers)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let (who, policy) = match tc.local.rank() {
                0 => ("analysis", StepPolicy::EveryStep),
                _ => ("dashboard", StepPolicy::LatestStep),
            };
            let mut sub = StepSubscription::new(vol, "sim.h5", policy).expect("subscribe");
            let mut seen = Vec::new();
            while let Some(step) = sub.next_step().expect("next step") {
                let f = h5.open_file(&step.file).expect("open step");
                let field =
                    f.open_dataset("field").expect("dataset").read_all::<u64>().expect("read");
                f.close().expect("close step");
                // Every cell encodes (step, index): any stale read shows.
                for (i, v) in field.iter().enumerate() {
                    assert_eq!(*v, step.seq * 1000 + i as u64, "step {} cell {i}", step.seq);
                }
                seen.push(step.seq);
                if who == "dashboard" {
                    // Render slowly: LatestStep will skip for us.
                    std::thread::sleep(Duration::from_millis(3));
                }
            }
            println!("[{who}] saw steps {seen:?}");
            if who == "analysis" {
                // EveryStep under Block is lossless: the exact sequence.
                assert_eq!(seen, (0..STEPS).collect::<Vec<_>>());
            } else {
                // LatestStep keeps order but may skip; it always ends on
                // the final step.
                assert!(seen.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(seen.last(), Some(&(STEPS - 1)));
            }
        }
    });

    let report = reg.report();
    println!(
        "counters: steps_published={} steps_dropped={} steps_lagged={}",
        report.counter(obsv::Ctr::StepsPublished),
        report.counter(obsv::Ctr::StepsDropped),
        report.counter(obsv::Ctr::StepsLagged),
    );
    assert_eq!(report.counter(obsv::Ctr::StepsPublished), STEPS);
    assert_eq!(report.counter(obsv::Ctr::StepsDropped), 0, "Block never drops");
}
