//! How many round trips a remote read costs, with every byte checked
//! against position-encoded ground truth.
//!
//! A read asks the producers owning its selection's blocks of the common
//! decomposition; their replies carry what they hold *and* who holds the
//! rest. When the data is decomposed like the common decomposition (the
//! aligned case) that is the whole read: one round. When it is not, a
//! second round asks the owners the first did not. A repeat read goes
//! straight to the cached owners: one round.
//!
//! Each read is counted on its own consumer thread with a private `obsv`
//! registry: `rpc_multi_calls` counts fan-out rounds, `fetch_batches` the
//! batch frames they carried.

use std::sync::Arc;

use lowfive::DistVolBuilder;
use minih5::{Dataset, Dataspace, Datatype, H5File, Selection, Vol, H5};
use obsv::Ctr;
use simmpi::{TaskComm, TaskSpec, TaskWorld};

/// The grid: two producers, and a common decomposition into two x-halves.
const DIMS: [u64; 2] = [8, 4];

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Every cell holds its global linear index.
fn truth(sel: &Selection) -> Vec<u64> {
    sel.runs(&Dataspace::simple(&DIMS)).iter().flat_map(|r| r.offset..r.offset + r.len).collect()
}

fn block(start: [u64; 2], size: [u64; 2]) -> Selection {
    Selection::block(&start, &size)
}

/// Two producers write `writes(p)` of dataset `x` (creating it only when
/// they write something); then consumer `c` runs `check(c, file)`.
fn exchange(writes: fn(u64) -> Option<Selection>, check: fn(u64, &H5File)) {
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 2)];
    TaskWorld::run(&specs, |tc| {
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            b.produce("*", world_ranks(&tc, 1)).build()
        } else {
            b.consume("*", world_ranks(&tc, 0)).build()
        };
        let h5 = H5::with_vol(vol);
        let rank = tc.local.rank() as u64;
        if tc.task_id == 0 {
            let f = h5.create_file("rounds.h5").unwrap();
            if let Some(sel) = writes(rank) {
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&DIMS)).unwrap();
                d.write_selection(&sel, &truth(&sel)).unwrap();
            }
            f.close().unwrap();
        } else {
            let f = h5.open_file("rounds.h5").unwrap();
            check(rank, &f);
            f.close().unwrap();
        }
    });
}

/// Read `sel`, check every element, and return `(rounds, batch frames)`.
fn counted_read(d: &Dataset, sel: &Selection) -> (u64, u64) {
    let reg = obsv::Registry::new();
    let _rec = obsv::install(reg.recorder(0));
    assert_eq!(d.read_selection::<u64>(sel).unwrap(), truth(sel), "{sel:?}");
    let report = reg.report();
    (report.counter(Ctr::RpcMultiCalls), report.counter(Ctr::FetchBatches))
}

#[test]
fn aligned_read_is_one_round() {
    // Producer p writes x-half p: its block of the common decomposition.
    exchange(
        |p| Some(block([4 * p, 0], [4, 4])),
        |c, f| {
            let d = f.open_dataset("x").unwrap();
            let mine = block([4 * c, 0], [4, 4]);
            assert_eq!(counted_read(&d, &mine), (1, 1), "one block owner, who holds it all");
            assert_eq!(counted_read(&d, &mine), (1, 1), "repeat: the cached owner only");
            let all = block([0, 0], [8, 4]);
            assert_eq!(counted_read(&d, &all), (1, 2), "both block owners in one round");
        },
    );
}

#[test]
fn misaligned_read_takes_two_rounds_then_one() {
    // Producer p writes y-half p, across both blocks: every block owner
    // holds only part of what its block's index lists.
    exchange(
        |p| Some(block([0, 2 * p], [8, 2])),
        |c, f| {
            let d = f.open_dataset("x").unwrap();
            let mine = block([4 * c, 0], [4, 4]);
            assert_eq!(counted_read(&d, &mine), (2, 2), "block owner, then the other owner");
            assert_eq!(counted_read(&d, &mine), (1, 2), "repeat: both cached owners at once");
        },
    );
}

#[test]
fn block_owner_without_the_dataset_answers_from_its_index() {
    // Only producer 0 creates (and fills) the dataset, so producer 1 owns
    // a block of data it never held. Consumer 1's metadata comes from
    // producer 1, which has no `x`; consumer 0 does the reading.
    exchange(
        |p| (p == 0).then(|| block([0, 0], [8, 4])),
        |c, f| {
            if c == 1 {
                return;
            }
            let d = f.open_dataset("x").unwrap();
            let far = block([4, 0], [4, 4]);
            assert_eq!(counted_read(&d, &far), (2, 2), "the empty block owner names the owner");
            let all = block([0, 0], [8, 4]);
            assert_eq!(counted_read(&d, &all), (1, 2));
        },
    );
}
