//! A served file has an end of life — on both sides of a link.
//!
//! A producer *retires* a file once its last expected consumer has closed
//! it (tree and region bytes, index entry, codec masks, generation), and a
//! consumer drops everything it imported or cached for a file when it
//! closes it. These tests pin the consequence that matters for long runs:
//! after hundreds of steps, what a rank holds per file is a small
//! constant — unless [`LowFiveProps::set_keep`] asks for the old
//! retain-and-answer behaviour, in which case every file is still there
//! and still readable, byte for byte. And because a close ends a
//! consumer's view of a snapshot, one file *name* can carry a whole time
//! series on the synchronous serve path.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use lowfive::{DistMetadataVol, DistVolBuilder, LowFiveProps, Retained};
use minih5::{Dataspace, Datatype, H5Result, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

const STEPS: u64 = 500;
/// Elements each producer rank writes per step.
const ELEMS: u64 = 8;

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Cell `i` of step `step`: any stale, misrouted or recycled read changes
/// some value.
fn val(step: u64, i: u64) -> u64 {
    step * 1_000 + i
}

fn expected(step: u64, total: u64) -> Vec<u64> {
    (0..total).map(|i| val(step, i)).collect()
}

fn build_vol(tc: &TaskComm, props: LowFiveProps, overlap: bool) -> Arc<DistMetadataVol> {
    let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone()).props(props);
    if tc.task_id == 0 {
        b.produce("*", world_ranks(tc, 1)).async_serve(overlap).build()
    } else {
        b.consume("*", world_ranks(tc, 0)).build()
    }
}

/// Write this producer rank's slab of `step` into a new file `name` and
/// close it (index, then serve or register).
fn write_step(h5: &H5, tc: &TaskComm, name: &str, step: u64) -> H5Result<()> {
    let total = tc.local.size() as u64 * ELEMS;
    let lo = tc.local.rank() as u64 * ELEMS;
    let f = h5.create_file(name)?;
    let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[total]))?;
    let vals: Vec<u64> = (lo..lo + ELEMS).map(|i| val(step, i)).collect();
    d.write_selection(&Selection::block(&[lo], &[ELEMS]), &vals)?;
    drop(d);
    f.close()
}

/// Open `name`, read the whole dataset, close.
fn read_step(h5: &H5, name: &str) -> H5Result<Vec<u64>> {
    let f = h5.open_file(name)?;
    let got = f.open_dataset("x")?.read_all::<u64>()?;
    f.close()?;
    Ok(got)
}

/// `STEPS` tiny steps under unique names, `producers` → `consumers`;
/// every consumer verifies every step. Returns each rank's
/// [`DistMetadataVol::retained`] once the loop has ended.
fn run_unique_names(
    producers: usize,
    consumers: usize,
    deep: bool,
    overlap: bool,
) -> Vec<(usize, Retained)> {
    let specs = [TaskSpec::new("producer", producers), TaskSpec::new("consumer", consumers)];
    TaskWorld::run(&specs, move |tc| {
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", !deep);
        let vol = build_vol(&tc, props, overlap);
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        let total = producers as u64 * ELEMS;
        for step in 0..STEPS {
            let name = format!("life.{step}.h5");
            if tc.task_id == 0 {
                write_step(&h5, &tc, &name, step).expect("producer step");
            } else {
                assert_eq!(read_step(&h5, &name).expect("consumer step"), expected(step, total));
            }
        }
        // Joins the overlap-mode serve thread once its last session is
        // done; a no-op after synchronous serves.
        vol.drain();
        (tc.task_id, vol.retained())
    })
}

/// No field of `r` may exceed a constant that does not depend on `STEPS`.
fn assert_bounded(task: usize, r: Retained) {
    let side = if task == 0 { "producer" } else { "consumer" };
    assert!(r.files <= 2, "{side} still holds {} trees: {r:?}", r.files);
    assert!(r.index_files <= 2, "{side} index: {r:?}");
    assert!(r.gens <= 2, "{side} generations: {r:?}");
    assert!(r.codec_masks <= 2, "{side} codec masks: {r:?}");
    assert!(r.arena_nodes <= 8, "{side} arena grew to {} slots: {r:?}", r.arena_nodes);
}

#[test]
fn retirement_bounds_state_2_to_2_shallow() {
    for (task, r) in run_unique_names(2, 2, false, false) {
        assert_bounded(task, r);
    }
}

#[test]
fn retirement_bounds_state_1_to_3_deep() {
    for (task, r) in run_unique_names(1, 3, true, false) {
        assert_bounded(task, r);
    }
}

/// Overlap mode retires from the serve thread, in the `M_DONE` arm; by
/// the time `drain()` returns nothing is left. (The arena's high-water
/// mark is not bounded here: an overlap-mode producer runs ahead of its
/// consumers by as many files as it likes.)
#[test]
fn async_serve_and_drain_retire_too() {
    for (task, r) in run_unique_names(2, 2, false, true) {
        if task == 0 {
            let left = (r.files, r.index_files, r.gens, r.codec_masks);
            assert_eq!(left, (0, 0, 0, 0), "drained producer: {r:?}");
        } else {
            assert_bounded(task, r);
        }
    }
}

/// `set_keep("*", true)` restores retain-and-answer: after `STEPS` steps
/// every file is still resident on the producers, a producer can re-open
/// its own step 0, and a consumer that re-opens step 0 — while the
/// producers are serving the last step — re-reads the original bytes.
#[test]
fn keep_retains_every_file_and_rereads_are_exact() {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
    let out = TaskWorld::run(&specs, |tc| {
        let mut props = LowFiveProps::new();
        props.set_keep("*", true);
        let vol = build_vol(&tc, props, false);
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        let total = 2 * ELEMS;
        for step in 0..STEPS {
            let name = format!("kept.{step}.h5");
            if tc.task_id == 0 {
                write_step(&h5, &tc, &name, step).expect("producer step");
                continue;
            }
            let f = h5.open_file(&name).expect("open");
            let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
            assert_eq!(got, expected(step, total));
            if step == STEPS - 1 {
                // The producers are inside the last serve session until
                // this file closes, so they can answer for step 0 too.
                assert_eq!(read_step(&h5, "kept.0.h5").expect("re-read"), expected(0, total));
            }
            f.close().expect("close");
        }
        if tc.task_id == 0 {
            // Local re-open: this rank's slab of step 0, the rest unwritten.
            let lo = (tc.local.rank() as u64 * ELEMS) as usize;
            let mine = read_step(&h5, "kept.0.h5").expect("producer re-open");
            assert_eq!(mine[lo..lo + ELEMS as usize], expected(0, total)[lo..lo + ELEMS as usize]);
        }
        (tc.task_id, vol.retained())
    });
    for (task, r) in out {
        if task == 0 {
            let n = STEPS as usize;
            assert_eq!((r.files, r.index_files, r.gens), (n, n, n), "kept producer: {r:?}");
        } else {
            assert_bounded(task, r);
        }
    }
}

/// The name re-use regression (ROADMAP 1c): 2 → 2, **one** file name, 100
/// steps on the synchronous serve path. A consumer that has closed
/// snapshot *t* and opens the name again must get snapshot *t + 1* —
/// never *t* again from a producer still serving it, and never a wedge.
///
/// The interleaving that used to wedge is forced, not hoped for: on odd
/// steps consumer 0 keeps snapshot *t* open until consumer 1's home
/// producer has *received* consumer 1's request for *t + 1* (visible in
/// that producer's profile), i.e. while its session for *t* is still open.
#[test]
fn one_file_name_carries_100_sync_steps() {
    const ROUNDS: u64 = 100;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
        let vols: Mutex<HashMap<usize, Arc<DistMetadataVol>>> = Mutex::default();
        let out = TaskWorld::run(&specs, |tc| {
            let vol = build_vol(&tc, LowFiveProps::new(), false);
            vols.lock().unwrap().insert(tc.world.rank(), vol.clone());
            tc.world.barrier();
            // Consumer 1's home: it handles exactly one metadata request
            // per step, all from consumer 1.
            let home_of_c1 = vols.lock().unwrap()[&tc.world_rank_of(0, 1)].clone();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            for step in 0..ROUNDS {
                if tc.task_id == 0 {
                    write_step(&h5, &tc, "same.h5", step).expect("producer step");
                    continue;
                }
                let f = h5.open_file("same.h5").expect("open");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>();
                assert_eq!(got.expect("read"), expected(step, 2 * ELEMS), "stamp of {step}");
                if tc.local.rank() == 0 && step % 2 == 1 && step + 1 < ROUNDS {
                    while home_of_c1.profile().metadata_requests < step + 2 {
                        std::thread::yield_now();
                    }
                    // The request is in: parked, if all is well. Were it
                    // answered from snapshot t instead, this is the time
                    // consumer 1 needs to read the stale stamps.
                    std::thread::sleep(Duration::from_millis(2));
                }
                f.close().expect("close");
            }
            (tc.task_id, vol.retained())
        });
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("same-name exchange wedged (or a rank panicked) within the 30 s watchdog");
    for (task, r) in out {
        assert_bounded(task, r);
    }
}
