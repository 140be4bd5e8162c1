//! Multi-rank integration tests for the distributed metadata VOL:
//! redistribution correctness across producer/consumer decomposition
//! mismatches, fan-in, fan-out, and combined file+memory modes.
//!
//! Validation follows the paper's scheme: "the values of the grid points
//! and particles encode their global position … so that the consumer can
//! validate that data have been correctly redistributed."

use std::sync::Arc;

use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Dataspace, Datatype, H5Error, H5Result, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// The paper's Figure 3: a 2-d grid written row-decomposed by 6 producer
/// ranks, read column-decomposed by 4 consumer ranks.
#[test]
fn fig3_row_to_column_redistribution() {
    const ROWS: u64 = 24;
    const COLS: u64 = 16;
    let specs = [TaskSpec::new("producer", 6), TaskSpec::new("consumer", 4)];
    TaskWorld::run(&specs, |tc| {
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
            // Producer: rows [4r, 4r+4).
            let f = h5.create_file("fig3.h5").unwrap();
            let d = f
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[ROWS, COLS]))
                .unwrap();
            let r0 = tc.local.rank() as u64 * (ROWS / 6);
            let my_rows = ROWS / 6;
            let sel = Selection::block(&[r0, 0], &[my_rows, COLS]);
            let vals: Vec<u64> =
                (0..my_rows * COLS).map(|i| (r0 + i / COLS) * COLS + (i % COLS)).collect();
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap();
        } else {
            // Consumer: columns [4c, 4c+4).
            let f = h5.open_file("fig3.h5").unwrap();
            let d = f.open_dataset("grid").unwrap();
            let c0 = tc.local.rank() as u64 * (COLS / 4);
            let my_cols = COLS / 4;
            let sel = Selection::block(&[0, c0], &[ROWS, my_cols]);
            let got: Vec<u64> = d.read_selection(&sel).unwrap();
            let expect: Vec<u64> =
                (0..ROWS).flat_map(|r| (c0..c0 + my_cols).map(move |c| r * COLS + c)).collect();
            assert_eq!(got, expect);
            f.close().unwrap();
        }
    });
}

/// 1-d particle list: contiguous chunks redistributed between unequal
/// process counts, with a 3-float compound element.
#[test]
fn particles_redistribution() {
    const PER_PROD: u64 = 1000;
    let specs = [TaskSpec::new("producer", 3), TaskSpec::new("consumer", 2)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let total = 3 * PER_PROD;
        let ptype = Datatype::vector(Datatype::Float32, 3);
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
            let f = h5.create_file("particles.h5").unwrap();
            let g = f.create_group("group2").unwrap();
            let d =
                g.create_dataset("particles", ptype.clone(), Dataspace::simple(&[total])).unwrap();
            let start = tc.local.rank() as u64 * PER_PROD;
            // Particle i = (i, i+0.5, -(i as f32)).
            let mut buf: Vec<f32> = Vec::with_capacity((PER_PROD * 3) as usize);
            for i in start..start + PER_PROD {
                buf.extend_from_slice(&[i as f32, i as f32 + 0.5, -(i as f32)]);
            }
            let bytes: Vec<u8> = buf.iter().flat_map(|x| x.to_le_bytes()).collect();
            d.write_bytes(
                &Selection::block(&[start], &[PER_PROD]),
                bytes.into(),
                minih5::Ownership::Shallow,
            )
            .unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("particles.h5").unwrap();
            let d = f.open_dataset("group2/particles").unwrap();
            let (dt, sp) = d.meta().unwrap();
            assert_eq!(dt, ptype);
            assert_eq!(sp.npoints(), total);
            // Consumer halves.
            let half = total / 2;
            let start = tc.local.rank() as u64 * half;
            let raw = d.read_bytes(&Selection::block(&[start], &[half])).unwrap();
            assert_eq!(raw.len() as u64, half * 12);
            for j in 0..half {
                let i = start + j;
                let off = (j * 12) as usize;
                let x = f32::from_le_bytes(raw[off..off + 4].try_into().unwrap());
                let y = f32::from_le_bytes(raw[off + 4..off + 8].try_into().unwrap());
                let z = f32::from_le_bytes(raw[off + 8..off + 12].try_into().unwrap());
                assert_eq!(x, i as f32, "particle {i} x");
                assert_eq!(y, i as f32 + 0.5, "particle {i} y");
                assert_eq!(z, -(i as f32), "particle {i} z");
            }
            f.close().unwrap();
        }
    });
}

/// Fan-out: one producer task, two consumer tasks, both read everything.
#[test]
fn fan_out_two_consumer_tasks() {
    const N: u64 = 64;
    let specs =
        [TaskSpec::new("producer", 2), TaskSpec::new("analysis", 2), TaskSpec::new("viz", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let all_consumers: Vec<usize> =
            world_ranks(&tc, 1).into_iter().chain(world_ranks(&tc, 2)).collect();
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", all_consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("fan.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let half = N / 2;
            let start = tc.local.rank() as u64 * half;
            let vals: Vec<u64> = (start..start + half).collect();
            d.write_selection(&Selection::block(&[start], &[half]), &vals).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("fan.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            assert_eq!(d.read_all::<u64>().unwrap(), (0..N).collect::<Vec<u64>>());
            f.close().unwrap();
        }
    });
}

/// Fan-in: two producer tasks with different files, one consumer reads
/// both through separate links.
#[test]
fn fan_in_two_producer_tasks() {
    const N: u64 = 32;
    let specs =
        [TaskSpec::new("sim-a", 2), TaskSpec::new("sim-b", 3), TaskSpec::new("consumer", 2)];
    TaskWorld::run(&specs, |tc| {
        let prod_a = world_ranks(&tc, 0);
        let prod_b = world_ranks(&tc, 1);
        let consumers = world_ranks(&tc, 2);
        let vol: Arc<dyn Vol> = match tc.task_id {
            0 => DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("a.h5", consumers.clone())
                .build(),
            1 => DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("b.h5", consumers.clone())
                .build(),
            _ => DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("a.h5", prod_a.clone())
                .consume("b.h5", prod_b.clone())
                .build(),
        };
        let h5 = H5::with_vol(vol);
        match tc.task_id {
            0 | 1 => {
                let (name, mult) = if tc.task_id == 0 { ("a.h5", 1u64) } else { ("b.h5", 100) };
                let n_ranks = tc.local.size() as u64;
                let f = h5.create_file(name).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
                // Near-equal contiguous chunks.
                let r = tc.local.rank() as u64;
                let start = N * r / n_ranks;
                let end = N * (r + 1) / n_ranks;
                let vals: Vec<u64> = (start..end).map(|i| i * mult).collect();
                d.write_selection(&Selection::block(&[start], &[end - start]), &vals).unwrap();
                f.close().unwrap();
            }
            _ => {
                let fa = h5.open_file("a.h5").unwrap();
                let da = fa.open_dataset("x").unwrap();
                assert_eq!(da.read_all::<u64>().unwrap(), (0..N).collect::<Vec<u64>>());
                fa.close().unwrap();
                let fb = h5.open_file("b.h5").unwrap();
                let db = fb.open_dataset("x").unwrap();
                assert_eq!(
                    db.read_all::<u64>().unwrap(),
                    (0..N).map(|i| i * 100).collect::<Vec<u64>>()
                );
                fb.close().unwrap();
            }
        }
    });
}

/// Combined mode: data go both in memory to the consumer AND to a real
/// file on disk (paper: "combining the two modes").
#[test]
fn combined_memory_and_file_mode() {
    const N: u64 = 16;
    let dir = std::env::temp_dir().join("lowfive-dist-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("combined.nh5").to_str().unwrap().to_string();
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    let path2 = path.clone();
    TaskWorld::run(&specs, move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_passthrough("*", true); // memory stays on
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props.clone())
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file(&path2).unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let half = N / 2;
            let start = tc.local.rank() as u64 * half;
            let vals: Vec<u64> = (start..start + half).collect();
            d.write_selection(&Selection::block(&[start], &[half]), &vals).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file(&path2).unwrap();
            let d = f.open_dataset("x").unwrap();
            assert_eq!(d.read_all::<u64>().unwrap(), (0..N).collect::<Vec<u64>>());
            f.close().unwrap();
        }
    });
    // After the workflow, the checkpoint is on disk and readable by plain
    // native HDF5-style I/O.
    let h5 = H5::native();
    let f = h5.open_file(&path).unwrap();
    let d = f.open_dataset("x").unwrap();
    assert_eq!(d.read_all::<u64>().unwrap(), (0..N).collect::<Vec<u64>>());
    f.close().unwrap();
}

/// Attributes and group structure travel with the metadata.
#[test]
fn metadata_attributes_and_listing() {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
    TaskWorld::run(&specs, |tc| {
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
            let f = h5.create_file("meta.h5").unwrap();
            f.set_attr("step", 42u32).unwrap();
            let g = f.create_group("group1").unwrap();
            let d = g.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
            d.set_attr("resolution", 2.5f64).unwrap();
            let vals: Vec<u64> = if tc.local.rank() == 0 { vec![0, 1] } else { vec![2, 3] };
            let start = tc.local.rank() as u64 * 2;
            d.write_selection(&Selection::block(&[start], &[2]), &vals).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("meta.h5").unwrap();
            assert_eq!(f.attr::<u32>("step").unwrap(), 42);
            let names: Vec<String> = f.list().unwrap().into_iter().map(|(n, _)| n).collect();
            assert_eq!(names, vec!["group1".to_string()]);
            let d = f.open_dataset("group1/grid").unwrap();
            assert_eq!(d.attr::<f64>("resolution").unwrap(), 2.5);
            assert_eq!(d.read_all::<u64>().unwrap(), vec![0, 1, 2, 3]);
            // Writes to a consumed file are rejected.
            assert!(d.write_all(&[9u64, 9, 9, 9]).is_err());
            f.close().unwrap();
        }
    });
}

/// Several timesteps: the producer writes and serves one file per step;
/// the consumer reads them in order.
#[test]
fn multiple_timesteps_sequentially() {
    const STEPS: usize = 3;
    const N: u64 = 12;
    let specs = [TaskSpec::new("producer", 3), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("step*.h5", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("step*.h5", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        for step in 0..STEPS {
            let name = format!("step{step}.h5");
            if tc.task_id == 0 {
                let f = h5.create_file(&name).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
                let chunk = N / 3;
                let start = tc.local.rank() as u64 * chunk;
                let vals: Vec<u64> =
                    (start..start + chunk).map(|i| i + 1000 * step as u64).collect();
                d.write_selection(&Selection::block(&[start], &[chunk]), &vals).unwrap();
                f.close().unwrap();
            } else {
                let f = h5.open_file(&name).unwrap();
                let d = f.open_dataset("x").unwrap();
                let expect: Vec<u64> = (0..N).map(|i| i + 1000 * step as u64).collect();
                assert_eq!(d.read_all::<u64>().unwrap(), expect);
                f.close().unwrap();
            }
        }
    });
}

/// A consumer reading a sub-selection only transfers what intersects it
/// (the AMR-motivation from the introduction: unneeded data never move).
#[test]
fn partial_read_moves_less_data() {
    const N: u64 = 4096;
    let specs = [TaskSpec::new("producer", 4), TaskSpec::new("consumer", 1)];
    let results = TaskWorld::run_with(&specs, None, |tc| {
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
            let f = h5.create_file("partial.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let chunk = N / 4;
            let start = tc.local.rank() as u64 * chunk;
            let vals: Vec<u64> = (start..start + chunk).collect();
            d.write_selection(&Selection::block(&[start], &[chunk]), &vals).unwrap();
            f.close().unwrap();
            0u64
        } else {
            let f = h5.open_file("partial.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            // Read only 64 of 4096 elements, entirely inside producer 0's
            // chunk.
            let got: Vec<u64> = d.read_selection(&Selection::block(&[100], &[64])).unwrap();
            assert_eq!(got, (100..164).collect::<Vec<u64>>());
            f.close().unwrap();
            0u64
        }
    });
    // Total transported bytes should be far below the dataset size: the
    // dataset is 32 KiB; the read moved 512 bytes of payload plus
    // metadata/control traffic.
    assert!(
        results.stats.bytes < (N * 8) / 4,
        "moved {} bytes for a 512-byte read",
        results.stats.bytes
    );
}

/// Empty selections and datasets nobody wrote still behave.
#[test]
fn empty_and_unwritten_datasets() {
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
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
            let f = h5.create_file("empty.h5").unwrap();
            // Dataset created but never written.
            f.create_dataset("ghost", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("empty.h5").unwrap();
            let d = f.open_dataset("ghost").unwrap();
            // Unwritten elements read as the fill value (zero).
            assert_eq!(d.read_all::<u64>().unwrap(), vec![0u64; 8]);
            // Zero-sized read.
            let none: Vec<u64> = d.read_selection(&Selection::block(&[0], &[0])).unwrap();
            assert!(none.is_empty());
            f.close().unwrap();
        }
    });
}

/// 3-d grid with a genuinely 3-d common decomposition (8 producers → 2×2×2
/// blocks), consumers slabbed along a different axis.
#[test]
fn grid_3d_redistribution() {
    const D: u64 = 16;
    let specs = [TaskSpec::new("producer", 8), TaskSpec::new("consumer", 3)];
    TaskWorld::run(&specs, |tc| {
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
            // Producer r writes the 2x2x2 octant given by its bits.
            let f = h5.create_file("g3.h5").unwrap();
            let d =
                f.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[D, D, D])).unwrap();
            let r = tc.local.rank() as u64;
            let h = D / 2;
            let (ox, oy, oz) = ((r >> 2 & 1) * h, (r >> 1 & 1) * h, (r & 1) * h);
            let sel = Selection::block(&[ox, oy, oz], &[h, h, h]);
            let mut vals = Vec::with_capacity((h * h * h) as usize);
            for x in ox..ox + h {
                for y in oy..oy + h {
                    for z in oz..oz + h {
                        vals.push(x * D * D + y * D + z);
                    }
                }
            }
            d.write_selection(&sel, &vals).unwrap();
            f.close().unwrap();
        } else {
            // Consumer r reads x-slabs split 3 ways (uneven).
            let f = h5.open_file("g3.h5").unwrap();
            let d = f.open_dataset("grid").unwrap();
            let r = tc.local.rank() as u64;
            let x0 = D * r / 3;
            let x1 = D * (r + 1) / 3;
            let sel = Selection::block(&[x0, 0, 0], &[x1 - x0, D, D]);
            let got: Vec<u64> = d.read_selection(&sel).unwrap();
            let mut expect = Vec::with_capacity(got.len());
            for x in x0..x1 {
                for y in 0..D {
                    for z in 0..D {
                        expect.push(x * D * D + y * D + z);
                    }
                }
            }
            assert_eq!(got, expect);
            f.close().unwrap();
        }
    });
}

/// Chunked + extensible datasets through the in-memory metadata layer:
/// producers append timesteps; chunk shape is metadata.
#[test]
fn chunked_extensible_through_metadata_vol() {
    use lowfive::MetadataVol;
    use minih5::space::UNLIMITED;
    let vol = Arc::new(MetadataVol::over_native(LowFiveProps::new()));
    let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
    let f = h5.create_file("mem-chunked.h5").unwrap();
    let d = f
        .create_dataset_chunked(
            "t",
            Datatype::UInt64,
            Dataspace::extensible(&[1, 2], &[UNLIMITED, 2]),
            &[1, 2],
        )
        .unwrap();
    d.write_all(&[1u64, 2]).unwrap();
    d.extend(&[3, 2]).unwrap();
    d.write_selection(&Selection::block(&[1, 0], &[2, 2]), &[3u64, 4, 5, 6]).unwrap();
    assert_eq!(d.read_all::<u64>().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(d.chunk().unwrap(), Some(vec![1, 2]));
    f.close().unwrap();
}

/// An extensible dataset travels in situ: the consumer sees the extent
/// as of file close, including appended rows, and chunk metadata.
#[test]
fn extensible_dataset_redistributed() {
    use minih5::space::UNLIMITED;
    const COLS: u64 = 8;
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
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
            let f = h5.create_file("series.h5").unwrap();
            let d = f
                .create_dataset_chunked(
                    "t",
                    Datatype::UInt64,
                    Dataspace::extensible(&[2, COLS], &[UNLIMITED, COLS]),
                    &[2, COLS],
                )
                .unwrap();
            // Initial rows: each producer writes one.
            let r = tc.local.rank() as u64;
            let vals: Vec<u64> = (0..COLS).map(|c| r * COLS + c).collect();
            d.write_selection(&Selection::block(&[r, 0], &[1, COLS]), &vals).unwrap();
            // Collective append of two more rows.
            d.extend(&[4, COLS]).unwrap();
            let vals2: Vec<u64> = (0..COLS).map(|c| (2 + r) * COLS + c).collect();
            d.write_selection(&Selection::block(&[2 + r, 0], &[1, COLS]), &vals2).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("series.h5").unwrap();
            let d = f.open_dataset("t").unwrap();
            let (_, sp) = d.meta().unwrap();
            assert_eq!(sp.dims(), &[4, COLS]);
            assert_eq!(d.chunk().unwrap(), Some(vec![2, COLS]));
            assert_eq!(d.read_all::<u64>().unwrap(), (0..4 * COLS).collect::<Vec<u64>>());
            f.close().unwrap();
        }
    });
}

/// The transport profiler (paper §V-C: finer-grain communication
/// profiling) accounts every phase on both sides.
#[test]
fn transport_profile_accounts_phases() {
    const N: u64 = 256;
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 2)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            let f = h5.create_file("prof.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
            let half = N / 2;
            let s = tc.local.rank() as u64 * half;
            d.write_selection(
                &Selection::block(&[s], &[half]),
                &(s..s + half).collect::<Vec<u64>>(),
            )
            .unwrap();
            f.close().unwrap();
            let p = vol.profile();
            assert_eq!(p.serve_sessions, 1);
            assert!(p.index_seconds >= 0.0 && p.index_boxes >= 1);
            assert!(p.serve_seconds > 0.0);
            // Two consumers asked for data; at least one data request
            // landed on each producer (x-split matches halves).
            assert!(p.data_requests >= 1, "{p:?}");
            assert!(p.bytes_served > 0);
            // Reset works.
            vol.reset_profile();
            assert_eq!(vol.profile(), lowfive::TransportProfile::default());
        } else {
            let f = h5.open_file("prof.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            let half = N / 2;
            let s = tc.local.rank() as u64 * half;
            let got: Vec<u64> = d.read_selection(&Selection::block(&[s], &[half])).unwrap();
            assert_eq!(got.len() as u64, half);
            f.close().unwrap();
            let p = vol.profile();
            assert!(p.open_seconds > 0.0);
            assert!(p.redirect_seconds > 0.0);
            assert!(p.fetch_seconds > 0.0);
            assert!(p.bytes_fetched >= half * 8, "{p:?}");
            assert_eq!(p.serve_sessions, 0);
        }
    });
}

/// Overlap mode (paper §V-C: "consume data as soon as it is available,
/// and overlap reading and writing"): with async serve, the producer's
/// file_close returns before the consumer has read anything, and the
/// producer computes snapshot t+1 while snapshot t waits to be served.
///
/// Checked as cause and effect, not against a clock: the consumer opens
/// nothing until every producer rank says all its `STEPS` closes have
/// returned. In sync mode the first close waits for the consumer's DONE,
/// so the signal never comes; the consumer then gives up waiting after
/// [`SIGNAL_WAIT`], reads anyway (which lets the sync producer finish),
/// and the test fails on the missing signal instead of hanging.
#[test]
fn async_serve_overlaps_compute_with_reads() {
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;
    const STEPS: usize = 3;
    const N: u64 = 1 << 14;
    const SIGNAL_WAIT: Duration = Duration::from_secs(10);
    // Producer ranks whose closes have all returned.
    let closed = (Mutex::new(0usize), Condvar::new());
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    let signalled = TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("snap*", consumers.clone())
                .async_serve(true)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("snap*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            for s in 0..STEPS {
                let f = h5.create_file(&format!("snap{s}")).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
                let half = N / 2;
                let lo = tc.local.rank() as u64 * half;
                let vals: Vec<u64> = (lo..lo + half).map(|i| i + 1000 * s as u64).collect();
                d.write_selection(&Selection::block(&[lo], &[half]), &vals).unwrap();
                f.close().unwrap(); // returns without waiting for the consumer
            }
            *closed.0.lock().unwrap() += 1;
            closed.1.notify_all();
            vol.drain();
            return true;
        }
        let (all_closed, _) = closed
            .1
            .wait_timeout_while(closed.0.lock().unwrap(), SIGNAL_WAIT, |n| *n < producers.len())
            .unwrap();
        let signalled = *all_closed == producers.len();
        drop(all_closed);
        for s in 0..STEPS {
            let f = h5.open_file(&format!("snap{s}")).unwrap();
            let got: Vec<u64> = f.open_dataset("x").unwrap().read_all().unwrap();
            assert_eq!(got[0], 1000 * s as u64);
            assert_eq!(got[N as usize - 1], N - 1 + 1000 * s as u64);
            f.close().unwrap();
        }
        signalled
    });
    assert!(
        signalled[2],
        "the producer's {STEPS} closes did not all return before the consumer read"
    );
}

/// drain() with no outstanding sessions and sync-mode drain are no-ops.
#[test]
fn drain_is_idempotent() {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", consumers.clone())
                .async_serve(true)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            vol.drain(); // nothing running yet
            let f = h5.create_file("d.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
            d.write_all(&[7u8]).unwrap();
            f.close().unwrap();
            vol.drain();
            vol.drain(); // second drain is a no-op
        } else {
            let f = h5.open_file("d.h5").unwrap();
            assert_eq!(f.open_dataset("x").unwrap().read_all::<u8>().unwrap(), vec![7]);
            f.close().unwrap();
        }
    });
}

/// Shared body: one producer serves `ro-reopen.h5` to one consumer, then
/// tries to re-open its own output. Returns what the re-open (and, when
/// it succeeds, the local read-back and second close) produced.
fn producer_reopens_served_file(keep: bool) -> Vec<Option<H5Result<Vec<u8>>>> {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let mut props = LowFiveProps::new();
        props.set_keep("*", keep);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("ro-reopen.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
            d.write_all(&[1u8, 2, 3, 4]).unwrap();
            drop(d);
            f.close().unwrap(); // serves the consumer
            Some(h5.open_file("ro-reopen.h5").and_then(|f| {
                let got = f.open_dataset("x")?.read_all::<u8>()?;
                // This close must NOT serve again (no consumer will report
                // done a second time) — a hang here is the regression.
                f.close()?;
                Ok(got)
            }))
        } else {
            let f = h5.open_file("ro-reopen.h5").unwrap();
            assert_eq!(f.open_dataset("x").unwrap().read_all::<u8>().unwrap(), vec![1, 2, 3, 4]);
            f.close().unwrap();
            None
        }
    })
}

/// A producer re-opening and closing its own kept output (read-only)
/// reads it back locally and must not trigger a second serve session
/// (which would deadlock: consumers have already said done).
#[test]
fn producer_reopen_close_does_not_reserve() {
    let out = producer_reopens_served_file(true);
    assert_eq!(out[0].as_ref().unwrap().as_ref().unwrap(), &[1, 2, 3, 4]);
}

/// The mirror: without `keep` the served file is retired, so the
/// producer's re-open finds nothing.
#[test]
fn producer_reopen_without_keep_is_not_found() {
    let out = producer_reopens_served_file(false);
    assert!(
        matches!(out[0], Some(Err(H5Error::NotFound(_)))),
        "re-open of a retired file: {:?}",
        out[0]
    );
}

/// A two-rank producer task streaming to one subscriber: the home rank
/// learns the subscriber's cursor from its polls, the other rank from the
/// acks fanned out beside them. Both cursors must reach the head of the
/// series, or that rank's `finish` reports undrained.
#[test]
fn two_producer_series_advances_both_cursors() {
    use lowfive::{StepPolicy, StepPublisher, StepSubscription};
    use std::time::Duration;
    const STEPS: u64 = 4;
    let specs = [TaskSpec::new("producer", 2), TaskSpec::new("consumer", 1)];
    let drained = TaskWorld::run(&specs, |tc| {
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        if tc.task_id == 0 {
            let vol = b.produce("sim.h5@s*", world_ranks(&tc, 1)).async_serve(true).build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").unwrap();
            let p = tc.local.rank() as u64;
            for seq in 0..STEPS {
                let f = h5.create_file(&publisher.step_file()).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
                d.write_selection(&Selection::block(&[2 * p], &[2]), &[seq, seq]).unwrap();
                f.close().unwrap();
                publisher.publish().unwrap();
            }
            let done = publisher.finish(Some(Duration::from_secs(10)));
            vol.drain();
            done
        } else {
            let vol = b.consume("sim.h5@s*", world_ranks(&tc, 0)).build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let mut sub = StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).unwrap();
            let mut seen = 0;
            while let Some(step) = sub.next_step().unwrap() {
                let f = h5.open_file(&step.file).unwrap();
                assert_eq!(f.open_dataset("x").unwrap().read_all::<u64>().unwrap(), [step.seq; 4]);
                f.close().unwrap();
                seen += 1;
            }
            seen == STEPS
        }
    });
    assert_eq!(drained, [true, true, true], "[producer 0, producer 1, all steps seen]");
}
