//! A served file has an end of life — on both sides of a link.
//!
//! A producer *retires* a file once its last expected consumer has closed
//! it (tree and region bytes, index entry, generation), and a
//! consumer drops everything it imported or cached for a file when it
//! closes it. These tests pin the consequence that matters for long runs:
//! after hundreds of steps, what a rank holds per file is a small
//! constant — unless [`LowFiveProps::set_keep`] asks for the old
//! retain-and-answer behaviour, in which case every file is still there
//! and still readable, byte for byte. And because a close ends a
//! consumer's view of a snapshot, one file *name* can carry a whole time
//! series on the synchronous serve path. Both modes run the same serve
//! loop, so a rule pinned here for one (a file that is created but not
//! closed is not served; a re-created kept file is served anew) holds for
//! the other.

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
            let left = (r.files, r.index_files, r.gens);
            assert_eq!(left, (0, 0, 0), "drained producer: {r:?}");
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
    let out = under_watchdog(30, "same-name exchange", || {
        let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
        let vols = SharedVols::default();
        TaskWorld::run(&specs, |tc| {
            let vol = build_vol(&tc, LowFiveProps::new(), false);
            // Consumer 1's home: it handles exactly one metadata request
            // per step, all from consumer 1.
            let home_of_c1 = vols.publish_and_get(&tc, &vol, tc.world_rank_of(0, 1));
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
                    // The request is in: parked, if all is well. Were it
                    // answered from snapshot t instead, the pause is the
                    // time consumer 1 needs to read the stale stamps.
                    wait_for_metadata_requests(&home_of_c1, step + 2);
                }
                f.close().expect("close");
            }
            (tc.task_id, vol.retained())
        })
    });
    for (task, r) in out {
        assert_bounded(task, r);
    }
}

/// Run `body` on a thread of its own and fail if it has not returned
/// within `secs`: a wedged exchange must fail the test, not hang it.
fn under_watchdog<T: Send + 'static>(
    secs: u64,
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} wedged (or a rank panicked) within {secs} s"))
}

/// Ranks are threads of one process: every rank publishes its VOL here so
/// that a consumer can wait on a *producer's* request counter — forcing
/// an interleaving instead of hoping a sleep produces it.
#[derive(Default)]
struct SharedVols(Mutex<HashMap<usize, Arc<DistMetadataVol>>>);

impl SharedVols {
    /// Publish this rank's VOL, wait for every rank's, return `want`'s.
    fn publish_and_get(
        &self,
        tc: &TaskComm,
        vol: &Arc<DistMetadataVol>,
        want: usize,
    ) -> Arc<DistMetadataVol> {
        self.0.lock().unwrap().insert(tc.world.rank(), vol.clone());
        tc.world.barrier();
        self.0.lock().unwrap()[&want].clone()
    }
}

/// Block until `producer`'s serve loop has *received* `n` metadata
/// requests (answered or parked), then give a request that was wrongly
/// answered the time its sender needs to act on the answer.
fn wait_for_metadata_requests(producer: &DistMetadataVol, n: u64) {
    while producer.profile().metadata_requests < n {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(2));
}

/// 1 → 2, two files open at once on the producer: it creates and writes
/// `a.h5` and `b.h5`, then closes `a`, then `b`; each consumer opens,
/// reads and closes `a`, then `b`. Consumer 1 holds `a` open until the
/// producer has received consumer 0's request for `b` — the third
/// metadata request — i.e. while the session for `a` is still open and
/// `b` exists only as an unclosed, unindexed tree. That request must park
/// until `b`'s own session opens: answered early, consumer 0 reads
/// zero-fill, and its DONE for `b` lands in no session. Returns, per
/// rank, `b`'s values as read (consumers) and the serve sessions
/// completed (producer), and the zero-filled bytes of the whole run.
fn two_files_open(overlap: bool) -> (Vec<(usize, Vec<u64>, u64)>, u64) {
    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 2)];
    let vols = SharedVols::default();
    let out = TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        let vol = build_vol(&tc, LowFiveProps::new(), overlap);
        let producer = vols.publish_and_get(&tc, &vol, tc.world_rank_of(0, 0));
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            let files: Vec<_> = [("a.h5", 1u64), ("b.h5", 2)]
                .into_iter()
                .map(|(name, step)| {
                    let f = h5.create_file(name).expect("create");
                    let d = f
                        .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[ELEMS]))
                        .expect("dataset");
                    d.write_selection(&Selection::all(), &expected(step, ELEMS)).expect("write");
                    f
                })
                .collect();
            for f in files {
                f.close().expect("close: index, then serve or register");
            }
            vol.drain();
            (tc.task_id, Vec::new(), vol.profile().serve_sessions)
        } else {
            let f = h5.open_file("a.h5").expect("open a");
            let a = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read a");
            assert_eq!(a, expected(1, ELEMS), "a.h5");
            if tc.local.rank() == 1 {
                wait_for_metadata_requests(&producer, 3);
            }
            f.close().expect("close a");
            (tc.task_id, read_step(&h5, "b.h5").expect("b.h5"), 0)
        }
    });
    (out.results, reg.report().counter(obsv::Ctr::BytesZeroFilled))
}

#[test]
fn a_created_but_unclosed_file_is_not_served_in_either_mode() {
    for overlap in [false, true] {
        let (out, zero_filled) =
            under_watchdog(10, "two-files-open exchange", move || two_files_open(overlap));
        for (task, b, sessions) in out {
            if task == 0 {
                assert_eq!(sessions, 2, "overlap={overlap}: one session per closed file");
            } else {
                assert_eq!(b, expected(2, ELEMS), "overlap={overlap}: b.h5 as written");
            }
        }
        assert_eq!(zero_filled, 0, "overlap={overlap}: no read ran against an unindexed file");
    }
}

/// Sync mode keeps the `completed` set too, and `file_create` clears a
/// name from it: a kept file is served, re-created under the same name
/// and served again. While the re-created file is still open and empty,
/// the producer serves another file to consumer 1, who holds that
/// session open until consumer 0's second open of the kept name — the
/// producer's third metadata request — has been received in it. That
/// open must park for the new generation, not be answered from the
/// half-made tree on the strength of the first generation having been
/// kept.
#[test]
fn a_recreated_kept_file_is_served_anew_in_sync_mode() {
    let out = under_watchdog(10, "keep / re-create exchange", || {
        let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 2)];
        let vols = SharedVols::default();
        TaskWorld::run(&specs, |tc| {
            let mut props = LowFiveProps::new();
            props.set_keep("kept.h5", true);
            let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone()).props(props);
            let vol = if tc.task_id == 0 {
                b.produce("kept.h5", vec![tc.world_rank_of(1, 0)])
                    .produce("other.h5", vec![tc.world_rank_of(1, 1)])
                    .build()
            } else {
                b.consume("*", world_ranks(&tc, 0)).build()
            };
            let producer = vols.publish_and_get(&tc, &vol, tc.world_rank_of(0, 0));
            let h5 = H5::with_vol(vol as Arc<dyn Vol>);
            if tc.task_id == 0 {
                write_step(&h5, &tc, "kept.h5", 1).expect("first generation");
                let f = h5.create_file("kept.h5").expect("re-create");
                let d = f
                    .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[ELEMS]))
                    .expect("dataset");
                write_step(&h5, &tc, "other.h5", 3).expect("served while kept.h5 is open");
                d.write_selection(&Selection::all(), &expected(2, ELEMS)).expect("write");
                drop(d);
                f.close().expect("second generation");
                Vec::new()
            } else if tc.local.rank() == 0 {
                ["first", "second"].map(|g| read_step(&h5, "kept.h5").expect(g)).to_vec()
            } else {
                let f = h5.open_file("other.h5").expect("open other");
                let got = f.open_dataset("x").expect("dataset").read_all::<u64>().expect("read");
                wait_for_metadata_requests(&producer, 3);
                f.close().expect("close other");
                vec![got]
            }
        })
    });
    assert_eq!(out[1], vec![expected(1, ELEMS), expected(2, ELEMS)], "consumer 0");
    assert_eq!(out[2], vec![expected(3, ELEMS)], "consumer 1");
}
