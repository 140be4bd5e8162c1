//! A consumer's read results are recycled once the application drops them.
//!
//! Each read result is a payload-sized buffer from the consumer's
//! `simmpi::BufPool`. These tests pin the contract end to end:
//!
//! - a result still held is never handed out again: two reads in a row
//!   land in distinct allocations and both read correctly;
//! - a dropped result's allocation carries the next read of its size;
//! - a recycled buffer's old bytes never show through: the part of a
//!   selection no producer owns reads as fill zeros, and
//!   `bytes_zero_filled` counts exactly that part.
//!
//! A pointer match alone could be the allocator handing a freed block
//! out again, so each test also checks that the pool tracks the result
//! (it holds a handle, so the result cannot be taken back as unique).
//! The consumer only records what it saw; the checks run after the world
//! has ended, so a failing one fails the test instead of leaving the
//! producer waiting for a close that never comes.

use std::sync::Arc;

use bytes::Bytes;
use lowfive::DistVolBuilder;
use minih5::{Dataset, Dataspace, Datatype, Selection, Vol, H5};
use obsv::{Ctr, Registry};
use simmpi::{BufPool, TaskComm, TaskSpec, TaskWorld};

/// Elements of the dataset: a read of half of it is 128 KiB, well above
/// the pool's smallest tracked size.
const N: u64 = 1 << 15;
const HALF: u64 = N / 2;

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// One producer writes elements `0..written` (element `i` holds `i + 1`)
/// of an `N`-element dataset of `file`; one consumer runs `read` on the
/// open dataset. Returns what `read` returned and the bytes the world
/// zero-filled.
fn exchange<R: Send>(file: &str, written: u64, read: impl Fn(&Dataset) -> R + Sync) -> (R, u64) {
    assert!(HALF as usize * 8 >= BufPool::MIN_LEN, "reads must be large enough to pool");
    let reg = Registry::new();
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    let out = TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
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
            let f = h5.create_file(file).unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let vals: Vec<u64> = (1..=written).collect();
            d.write_selection(&Selection::block(&[0], &[written]), &vals).unwrap();
            f.close().unwrap();
            None
        } else {
            let f = h5.open_file(file).unwrap();
            let d = f.open_dataset("x").unwrap();
            let seen = read(&d);
            drop(d);
            f.close().unwrap();
            Some(seen)
        }
    });
    let seen = out.results.into_iter().flatten().next().expect("the consumer's record");
    (seen, reg.report().counter(Ctr::BytesZeroFilled))
}

/// What the consumer saw of one read result: its address, its `u64`s,
/// and whether the pool tracks it. Consumes the result.
fn record(b: Bytes) -> (usize, Vec<u64>, bool) {
    let at = b.as_ptr() as usize;
    let words = b.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8"))).collect();
    (at, words, b.try_into_mut().is_err())
}

#[test]
fn a_held_result_is_never_reused_and_a_dropped_one_is() {
    let lo = Selection::block(&[0], &[HALF]);
    let hi = Selection::block(&[HALF], &[HALF]);
    let ((first, second, third), _) = exchange("pool.h5", N, |d| {
        let first = d.read_bytes(&lo).unwrap();
        let second = d.read_bytes(&hi).unwrap();
        let first = record(first); // dropped here
        let third = record(d.read_bytes(&hi).unwrap());
        (first, record(second), third)
    });
    let (lo_words, hi_words): (Vec<u64>, Vec<u64>) =
        ((1..=HALF).collect(), (HALF + 1..=N).collect());
    assert_eq!((&first.1, &second.1, &third.1), (&lo_words, &hi_words, &hi_words));
    assert!(first.2 && second.2 && third.2, "the pool tracks every result");
    assert_ne!(first.0, second.0, "the first result was still held");
    assert_eq!(third.0, first.0, "the dropped result carries the next read");
}

#[test]
fn a_recycled_buffer_reads_fill_where_nobody_owns_the_data() {
    // Only the lower half is written; the straddling read owns half.
    let quarter = HALF / 2;
    let ((owned, straddle), zero_filled) = exchange("gap.h5", HALF, |d| {
        let owned = record(d.read_bytes(&Selection::block(&[0], &[HALF])).unwrap());
        (owned, record(d.read_bytes(&Selection::block(&[quarter], &[HALF])).unwrap()))
    });
    assert!(owned.1.iter().all(|&w| w != 0), "the recycled bytes were nonzero");
    assert!(straddle.2, "the pool tracks the result");
    assert_eq!(straddle.0, owned.0, "the read landed in the dropped buffer");
    let mut want: Vec<u64> = (quarter + 1..=HALF).collect();
    want.resize(HALF as usize, 0);
    assert_eq!(straddle.1, want, "the owned half, then fill");
    assert_eq!(zero_filled, quarter * 8, "exactly the gap is filled and counted");
}
