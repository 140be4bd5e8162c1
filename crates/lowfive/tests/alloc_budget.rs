//! The control plane's allocation budget, pinned.
//!
//! A 2→2 in-proc exchange with the `small_steps` geometry of `lfbench`
//! (each producer writes a `[4, 4, 4]` x-slab of `u64`s, each consumer
//! reads one y-half across both slabs) moves 1 KiB per step, so nearly
//! every heap allocation it makes is control plane: frames, routing,
//! box arithmetic, index bundles and decoded names. This binary counts
//! them with its own `#[global_allocator]` and fails when a step costs
//! more than [`BUDGET`] — the measured count plus less than one
//! allocation per message of the step (22), so a per-message allocation
//! that comes back fails it.
//!
//! A step's count is the difference between two whole worlds, one of
//! [`WARM`] steps and one of `WARM + STEPS`, divided by `STEPS`: world
//! setup and the first steps' cold caches cancel out. This is the only
//! test of the binary, so no other test's thread allocates meanwhile.
//!
//! The worlds are pinned to the in-proc backend whatever
//! `SIMMPI_TRANSPORT` says: the socket backend adds allocations of its
//! own per message, and the budget is the control plane's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld, TransportKind};

/// Heap allocations per step the exchange may make: the 244.0–244.7
/// measured over ten runs when the budget was set (251.8–253.7 while
/// replies carried a codec prefix and a parked metadata request copied
/// its name; 527 before frames, box arithmetic and names stopped
/// allocating), plus 10 — less than one allocation per message of the
/// step. Timing still moves the count a little: a consumer that asks for
/// a step's metadata before the producer has closed it is parked, and
/// the list that answers it allocates.
const BUDGET: f64 = 255.0;

/// Steps of the shorter world; the longer one runs `STEPS` more.
const WARM: usize = 20;
const STEPS: usize = 200;

/// Cells per producer slab, and the global dims (slabs stacked on x).
const SLAB: [u64; 3] = [4, 4, 4];
const DIMS: [u64; 3] = [8, 4, 4];

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect
// that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Run `steps` steps of the exchange in a fresh world; returns the heap
/// allocations the whole world made.
fn exchange(steps: usize) -> u64 {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
    let before = CALLS.load(Ordering::Relaxed);
    TaskWorld::builder(&specs).transport(TransportKind::InProc).run(|tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let rank = tc.local.rank() as u64;
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        let cells = SLAB.iter().product::<u64>();
        let slab = Bytes::from(
            (0..cells).flat_map(|i| (rank * cells + i).to_le_bytes()).collect::<Vec<u8>>(),
        );
        let mine = if tc.task_id == 0 {
            Selection::block(&[rank * SLAB[0], 0, 0], &SLAB)
        } else {
            Selection::block(&[0, rank * DIMS[1] / 2, 0], &[DIMS[0], DIMS[1] / 2, DIMS[2]])
        };
        let mut read = 0;
        for step in 0..steps {
            let name = format!("step.{step}.h5");
            if tc.task_id == 0 {
                let f = h5.create_file(&name).unwrap();
                let d =
                    f.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&DIMS)).unwrap();
                d.write_bytes(&mine, slab.clone(), Ownership::Shallow).unwrap();
                drop(d);
                f.close().unwrap();
            } else {
                let f = h5.open_file(&name).unwrap();
                let d = f.open_dataset("grid").unwrap();
                read += d.read_bytes(&mine).unwrap().len();
                drop(d);
                f.close().unwrap();
            }
        }
        if tc.task_id == 1 {
            assert_eq!(read, steps * (cells as usize) * 8, "every step reads a whole y-half");
        }
    });
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn small_step_allocations_stay_within_budget() {
    let warm = exchange(WARM);
    let long = exchange(WARM + STEPS);
    let per_step = long.saturating_sub(warm) as f64 / STEPS as f64;
    eprintln!("alloc_budget: {per_step:.1} heap allocations per step (budget {BUDGET})");
    assert!(
        per_step <= BUDGET,
        "a 512-byte step makes {per_step:.1} heap allocations, over the budget of {BUDGET}"
    );
}
