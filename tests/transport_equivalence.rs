//! Cross-transport equivalence: every transport in the repo (LowFive
//! memory, LowFive file, pure HDF5 files, hand-written MPI, DataSpaces,
//! Bredala) must deliver byte-identical redistributed data for the same
//! synthetic workload. This is the repo-wide version of the paper's
//! validation ("values encode their global position").

use std::sync::Arc;

use baselines::bredala::{self, Field};
use baselines::dataspaces::{run_server, DsClient, DsConfig};
use baselines::puempi;
use bench::workload::Workload;
use lowfive::DistVolBuilder;
use minih5::{BBox, Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

fn workload() -> Workload {
    Workload::paper_split(8, 1_000, 900)
}

fn grid_bytes(w: &Workload, bb: &BBox) -> Vec<u8> {
    w.grid_values(bb).iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Expected consumer-side grid bytes (row-major within the consumer box).
fn expected_grid(w: &Workload, c: usize) -> Vec<u8> {
    grid_bytes(w, &w.consumer_grid_box(c))
}

fn expected_particles(w: &Workload, c: usize) -> Vec<u8> {
    w.particle_bytes(w.consumer_part_range(c))
}

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

#[test]
fn lowfive_memory_delivers_expected_bytes() {
    let w = workload();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file("eq.h5").unwrap();
            let dg = f
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&w.grid_dims()))
                .unwrap();
            dg.write_bytes(
                &w.producer_grid_sel(p),
                grid_bytes(&w, &w.producer_grid_box(p)).into(),
                Ownership::Shallow,
            )
            .unwrap();
            let (s, e) = w.producer_part_range(p);
            let dp = f
                .create_dataset(
                    "particles",
                    Datatype::vector(Datatype::Float32, 3),
                    Dataspace::simple(&[w.total_particles()]),
                )
                .unwrap();
            dp.write_bytes(
                &Selection::block(&[s], &[e - s]),
                w.particle_bytes((s, e)).into(),
                Ownership::Shallow,
            )
            .unwrap();
            f.close().unwrap();
        } else {
            let c = tc.local.rank();
            let f = h5.open_file("eq.h5").unwrap();
            let got = f.open_dataset("grid").unwrap().read_bytes(&w.consumer_grid_sel(c)).unwrap();
            assert_eq!(&got[..], &expected_grid(&w, c)[..], "grid bytes");
            let (s, e) = w.consumer_part_range(c);
            let gp = f
                .open_dataset("particles")
                .unwrap()
                .read_bytes(&Selection::block(&[s], &[e - s]))
                .unwrap();
            assert_eq!(&gp[..], &expected_particles(&w, c)[..], "particle bytes");
            f.close().unwrap();
        }
    });
}

/// Every shape of remote read must deliver the position-encoded ground
/// truth, computed here from the selection alone: a full single read
/// (fans out to every producer), the same read repeated (redirect cache
/// hit), and a multi-selection read whose batch frames span several
/// producers.
#[test]
fn single_repeated_and_batched_reads_match_ground_truth() {
    let w = workload();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file("ab.h5").unwrap();
            let dg = f
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&w.grid_dims()))
                .unwrap();
            dg.write_bytes(
                &w.producer_grid_sel(p),
                grid_bytes(&w, &w.producer_grid_box(p)).into(),
                Ownership::Shallow,
            )
            .unwrap();
            f.close().unwrap();
        } else {
            let c = tc.local.rank();
            let f = h5.open_file("ab.h5").unwrap();
            let d = f.open_dataset("grid").unwrap();
            let full = w.consumer_grid_sel(c);
            let want = expected_grid(&w, c);
            assert_eq!(&d.read_bytes(&full).unwrap()[..], &want[..], "consumer {c}: single read");
            assert_eq!(&d.read_bytes(&full).unwrap()[..], &want[..], "consumer {c}: cache hit");
            // x-chunks of the consumer slab, each touching a different
            // producer subset, so one batch frame per producer carries
            // several selections.
            let bb = w.consumer_grid_box(c);
            let chunks: Vec<BBox> = (0..3)
                .map(|i| {
                    let mut chunk = bb.clone();
                    chunk.lo[0] = bb.hi[0] * i / 3;
                    chunk.hi[0] = bb.hi[0] * (i + 1) / 3;
                    chunk
                })
                .collect();
            let sels: Vec<Selection> = chunks.iter().map(BBox::to_selection).collect();
            for (i, buf) in d.read_bytes_multi(&sels).unwrap().iter().enumerate() {
                assert_eq!(&buf[..], &grid_bytes(&w, &chunks[i])[..], "consumer {c}: chunk {i}");
            }
            f.close().unwrap();
        }
    });
}

/// A temp dir that is unique per invocation (two concurrent `cargo test`
/// runs must not race on the same backing files) and removed on drop,
/// even when the test body panics.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let unique = format!("{label}-{}-{:?}", std::process::id(), std::thread::current().id())
            .replace(['(', ')', ' '], "");
        let dir = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_string()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn file_transports_deliver_expected_bytes() {
    let w = workload();
    let dir = ScratchDir::new("transport-eq-files");
    let filename = dir.path("eq.nh5");
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let local = tc.local.clone();
        let vol: Arc<dyn Vol> =
            Arc::new(minih5::native::NativeVol::parallel(local.rank(), move || local.barrier()));
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let f = h5.create_file(&filename).unwrap();
            let dg = f
                .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&w.grid_dims()))
                .unwrap();
            dg.write_bytes(
                &w.producer_grid_sel(p),
                grid_bytes(&w, &w.producer_grid_box(p)).into(),
                Ownership::Deep,
            )
            .unwrap();
            f.close().unwrap();
            tc.world.barrier();
        } else {
            tc.world.barrier();
            let c = tc.local.rank();
            let f = h5.open_file(&filename).unwrap();
            let got = f.open_dataset("grid").unwrap().read_bytes(&w.consumer_grid_sel(c)).unwrap();
            assert_eq!(&got[..], &expected_grid(&w, c)[..]);
            f.close().unwrap();
        }
    });
}

#[test]
fn pure_mpi_delivers_expected_bytes() {
    let w = workload();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let prod: Vec<(usize, BBox)> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p))).collect();
        let cons: Vec<(usize, BBox)> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c))).collect();
        if tc.task_id == 0 {
            let bb = w.producer_grid_box(tc.local.rank());
            puempi::send_grid(&tc.world, 61, 8, &bb, &grid_bytes(&w, &bb), &cons);
        } else {
            let bb = w.consumer_grid_box(tc.local.rank());
            let got = puempi::recv_grid(&tc.world, 61, 8, &bb, &prod);
            assert_eq!(got, expected_grid(&w, tc.local.rank()));
        }
    });
}

#[test]
fn dataspaces_delivers_expected_bytes() {
    let w = workload();
    let specs =
        [TaskSpec::new("p", w.producers), TaskSpec::new("s", 1), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let cfg = DsConfig {
            producers: world_ranks(&tc, 0),
            servers: world_ranks(&tc, 1),
            consumers: world_ranks(&tc, 2),
        };
        match tc.task_id {
            0 => {
                let client = DsClient::new(tc.world.clone(), cfg);
                let bb = w.producer_grid_box(tc.local.rank());
                client.put_local("grid", 0, bb.clone(), grid_bytes(&w, &bb).into()).unwrap();
                client.serve_local();
            }
            1 => run_server(&tc.world, &cfg),
            _ => {
                let client = DsClient::new(tc.world.clone(), cfg);
                let bb = w.consumer_grid_box(tc.local.rank());
                let got = client.get("grid", 0, &bb, 8).unwrap();
                assert_eq!(got, expected_grid(&w, tc.local.rank()));
                client.done();
            }
        }
    });
}

#[test]
fn bredala_delivers_expected_bytes() {
    let w = workload();
    let specs = [TaskSpec::new("p", w.producers), TaskSpec::new("c", w.consumers)];
    TaskWorld::run(&specs, move |tc| {
        let prod_grid: Vec<(usize, BBox)> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p))).collect();
        let cons_grid: Vec<(usize, BBox)> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c))).collect();
        let prod_parts: Vec<(usize, (u64, u64))> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_part_range(p))).collect();
        let cons_parts: Vec<(usize, (u64, u64))> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_part_range(c))).collect();
        if tc.task_id == 0 {
            let p = tc.local.rank();
            let bb = w.producer_grid_box(p);
            let fg = Field::bounding_box("grid", 8, bb.clone(), grid_bytes(&w, &bb).into());
            bredala::send_bbox(&tc.world, 71, &fg, &cons_grid);
            let pr = w.producer_part_range(p);
            let fp = Field::contiguous("particles", 12, pr, w.particle_bytes(pr).into());
            bredala::send_contiguous(&tc.world, 72, &fp, &cons_parts);
        } else {
            let c = tc.local.rank();
            let bb = w.consumer_grid_box(c);
            let got = bredala::recv_bbox(&tc.world, 71, 8, &bb, &prod_grid);
            assert_eq!(got, expected_grid(&w, c), "bredala grid");
            let got_p =
                bredala::recv_contiguous(&tc.world, 72, 12, w.consumer_part_range(c), &prod_parts);
            assert_eq!(got_p, expected_particles(&w, c), "bredala particles");
        }
    });
}
