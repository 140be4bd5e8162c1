//! Quickstart: a 6-rank producer task streams a 2-d grid, decomposed by
//! rows, to a 4-rank consumer task that reads it by columns — the exact
//! scenario of Fig. 3 in the paper — plus a particle list.
//!
//! Run with:
//! ```text
//! cargo run -p bench --release --example quickstart
//! ```

use std::sync::Arc;

use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{TaskSpec, TaskWorld};

const ROWS: u64 = 24;
const COLS: u64 = 16;
const PARTICLES: u64 = 600;

fn main() {
    let specs = [TaskSpec::new("producer", 6), TaskSpec::new("consumer", 4)];
    let out = TaskWorld::builder(&specs).run(|tc| {
        let producers: Vec<usize> = (0..6).collect();
        let consumers: Vec<usize> = (6..10).collect();

        // Each rank builds its LowFive plugin from the workflow topology.
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*.h5", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*.h5", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);

        if tc.task_id == 0 {
            // ---- producer: ordinary HDF5-style writes ----
            let f = h5.create_file("step1.h5").expect("create file");
            let g1 = f.create_group("group1").expect("group1");
            let grid = g1
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[ROWS, COLS]))
                .expect("grid dataset");
            // Row slab of this rank.
            let r0 = tc.local.rank() as u64 * (ROWS / 6);
            let vals: Vec<u64> =
                (0..(ROWS / 6) * COLS).map(|i| (r0 + i / COLS) * COLS + i % COLS).collect();
            grid.write_selection(&Selection::block(&[r0, 0], &[ROWS / 6, COLS]), &vals)
                .expect("grid write");

            let g2 = f.create_group("group2").expect("group2");
            let parts = g2
                .create_dataset(
                    "particles",
                    Datatype::vector(Datatype::Float32, 3),
                    Dataspace::simple(&[PARTICLES]),
                )
                .expect("particles dataset");
            let chunk = PARTICLES / 6;
            let s = tc.local.rank() as u64 * chunk;
            let bytes: Vec<u8> = (s..s + chunk)
                .flat_map(|i| {
                    let v = [i as f32, i as f32 + 0.5, -(i as f32)];
                    v.into_iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>()
                })
                .collect();
            parts
                .write_bytes(
                    &Selection::block(&[s], &[chunk]),
                    bytes.into(),
                    minih5::Ownership::Shallow, // zero-copy handoff
                )
                .expect("particles write");

            // Closing the file indexes the regions and serves the
            // consumers — the in situ exchange happens here.
            f.close().expect("close");
            if tc.local.rank() == 0 {
                println!("[producer] wrote grid {}x{} + {} particles", ROWS, COLS, PARTICLES);
            }
        } else {
            // ---- consumer: ordinary HDF5-style reads, column slabs ----
            let f = h5.open_file("step1.h5").expect("open file");
            let grid = f.open_dataset("group1/grid").expect("grid");
            let c0 = tc.local.rank() as u64 * (COLS / 4);
            let my = grid
                .read_selection::<u64>(&Selection::block(&[0, c0], &[ROWS, COLS / 4]))
                .expect("grid read");
            // Validate: values encode global position.
            for (i, v) in my.iter().enumerate() {
                let row = i as u64 / (COLS / 4);
                let col = c0 + i as u64 % (COLS / 4);
                assert_eq!(*v, row * COLS + col, "grid value mismatch");
            }
            let parts = f.open_dataset("group2/particles").expect("particles");
            let chunk = PARTICLES / 4;
            let s = tc.local.rank() as u64 * chunk;
            let raw = parts.read_bytes(&Selection::block(&[s], &[chunk])).expect("particles read");
            assert_eq!(raw.len() as u64, chunk * 12);
            f.close().expect("close");
            println!(
                "[consumer {}] columns [{}, {}) and particles [{}, {}) verified",
                tc.local.rank(),
                c0,
                c0 + COLS / 4,
                s,
                s + chunk
            );
        }
    });
    println!(
        "transport: {} messages, {} payload bytes (grid+particles = {} data bytes)",
        out.stats.messages,
        out.stats.bytes,
        ROWS * COLS * 8 + PARTICLES * 12
    );
}
