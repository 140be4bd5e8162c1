//! The Nyx–Reeber science use case (Table II).
//!
//! Three scenarios, as in §IV-C:
//!
//! * **Baseline HDF5** — the simulation writes each snapshot to a single
//!   shared file; after it finishes, the analysis reads the file back.
//! * **Plotfiles** — the native AMReX-style format, one binary file per
//!   group of ranks. Read time is deliberately excluded from the speedup,
//!   as in the paper ("code for reading plotfiles was not optimized").
//! * **LowFive** — simulation and analysis coupled in situ; zero changes
//!   to either code: the orchestration installs the distributed VOL in
//!   the thread registry and both sides keep calling the plain H5 API.
//!   Matching the paper's finding that the AMReX writer *repacks* data,
//!   the producer writes through a repacked (transient) buffer, which
//!   forces deep copies in the transport.
//!
//! The analysis is real work: each consumer reads its slab, the slabs are
//! gathered, and the Reeber-substitute merge-tree sweep segments the
//! halos (untimed, as the paper times I/O only).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lowfive::DistVolBuilder;
use minih5::vol::set_thread_vol;
use minih5::{Vol, H5};
use nyxsim::plotfile;
use nyxsim::sim::{read_snapshot_slab, write_snapshot, NyxSim, SimConfig, WriteOptions};
use nyxsim::{find_halos_distributed, Halo};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Grid cells per side.
    pub grid: u64,
    pub lowfive_write: f64,
    pub lowfive_read: f64,
    pub hdf5_write: f64,
    pub hdf5_read: f64,
    pub plotfiles_write: f64,
    /// `(hdf5 write + read) / (lowfive write + read)`.
    pub speedup_vs_hdf5: f64,
    /// `plotfiles write / (lowfive write + read)` — a lower bound, as the
    /// plotfile read time is excluded.
    pub speedup_vs_plotfiles: f64,
    /// Halos found in the final snapshot (sanity that analysis ran).
    pub halos: usize,
}

/// Parameters of one Table II case.
#[derive(Debug, Clone)]
pub struct Table2Case {
    pub grid: u64,
    pub producers: usize,
    pub consumers: usize,
    pub snapshots: usize,
    pub particles_per_rank: usize,
}

impl Table2Case {
    pub fn new(grid: u64, producers: usize, consumers: usize) -> Self {
        // Particle count scales with the volume so density stays O(1).
        let per_rank = ((grid.pow(3) as usize) / producers).max(1000);
        Table2Case { grid, producers, consumers, snapshots: 2, particles_per_rank: per_rank }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            grid: self.grid,
            nranks: self.producers,
            particles_per_rank: self.particles_per_rank,
            centers: 8,
            seed: 2023,
        }
    }
}

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Consumer-side analysis: the Reeber pattern — local merge-tree sweeps
/// per slab, boundary-plane exchange, statistics reduced on analysis
/// rank 0 (see `nyxsim::halo_dist`). Returns the halos on rank 0.
fn analyze(tc: &TaskComm, grid: u64, slab: (u64, u64), data: &[f64]) -> Option<Vec<Halo>> {
    let local_sum: f64 = data.iter().sum();
    let total = tc.local.allreduce_one::<f64, _>(local_sum, |a, b| a + b);
    let mean = total / (grid * grid * grid) as f64;
    find_halos_distributed(&tc.local, [grid, grid, grid], slab, data, (8.0 * mean).max(1.0), 2)
}

/// Per-rank outcome: (write seconds, read seconds, halos found).
type RankOutcome = (f64, f64, usize);

fn reduce_times(tc: &TaskComm, write: f64, read: f64) -> (f64, f64) {
    let w = tc.world.allreduce_one::<f64, _>(write, f64::max);
    let r = tc.world.allreduce_one::<f64, _>(read, f64::max);
    (w, r)
}

fn consumer_slab(grid: u64, consumers: usize, rank: usize) -> (u64, u64) {
    (grid * rank as u64 / consumers as u64, grid * (rank as u64 + 1) / consumers as u64)
}

/// LowFive in situ scenario.
pub(crate) fn scenario_lowfive(case: &Table2Case) -> (f64, f64, usize) {
    let specs = [TaskSpec::new("nyx", case.producers), TaskSpec::new("reeber", case.consumers)];
    let case = case.clone();
    let out: Vec<RankOutcome> = TaskWorld::run(&specs, move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("plt*", consumers)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("plt*", producers)
                .build()
        };
        // The zero-change deployment: install the plugin, call plain code.
        let _guard = set_thread_vol(vol);
        let h5 = H5::open_default();
        let (mut tw, mut tr, mut halos) = (0.0f64, 0.0f64, 0usize);
        if tc.task_id == 0 {
            let mut sim = NyxSim::new(case.sim_config(), tc.local.rank());
            for s in 0..case.snapshots {
                let rho = sim.deposit();
                tc.local.barrier();
                let t0 = Instant::now();
                write_snapshot(
                    &h5,
                    &format!("plt{s:05}"),
                    &sim,
                    &rho,
                    WriteOptions { repack: true, zero_copy: false },
                )
                .expect("snapshot write");
                tw += t0.elapsed().as_secs_f64();
                sim.step();
            }
        } else {
            let (lo, hi) = consumer_slab(case.grid, case.consumers, tc.local.rank());
            for s in 0..case.snapshots {
                let t0 = Instant::now();
                let (_step, slab) =
                    read_snapshot_slab(&h5, &format!("plt{s:05}"), lo, hi).expect("snapshot read");
                tr += t0.elapsed().as_secs_f64();
                if let Some(h) = analyze(&tc, case.grid, (lo, hi), &slab) {
                    halos = h.len();
                }
            }
        }
        let (w, r) = reduce_times(&tc, tw, tr);
        (w, r, halos)
    });
    let halos = out.iter().map(|o| o.2).max().unwrap_or(0);
    (out[0].0, out[0].1, halos)
}

/// Baseline HDF5 scenario: write to a shared file, read after.
pub(crate) fn scenario_hdf5(case: &Table2Case, dir: &Path) -> (f64, f64, usize) {
    let specs = [TaskSpec::new("nyx", case.producers), TaskSpec::new("reeber", case.consumers)];
    let case = case.clone();
    let dir = dir.to_path_buf();
    let out: Vec<RankOutcome> = TaskWorld::run(&specs, move |tc| {
        let local = tc.local.clone();
        let vol: Arc<dyn Vol> =
            Arc::new(minih5::native::NativeVol::parallel(local.rank(), move || local.barrier()));
        let h5 = H5::with_vol(vol);
        let (mut tw, mut tr, mut halos) = (0.0f64, 0.0f64, 0usize);
        if tc.task_id == 0 {
            let mut sim = NyxSim::new(case.sim_config(), tc.local.rank());
            for s in 0..case.snapshots {
                let rho = sim.deposit();
                let path = dir.join(format!("h5_{s:05}.nh5"));
                tc.local.barrier();
                let t0 = Instant::now();
                write_snapshot(
                    &h5,
                    path.to_str().expect("utf-8"),
                    &sim,
                    &rho,
                    WriteOptions { repack: true, zero_copy: false },
                )
                .expect("snapshot write");
                tw += t0.elapsed().as_secs_f64();
                sim.step();
                tc.world.barrier(); // release readers of snapshot s
                tc.world.barrier(); // readers finished snapshot s
            }
        } else {
            let plain = H5::native();
            let (lo, hi) = consumer_slab(case.grid, case.consumers, tc.local.rank());
            for s in 0..case.snapshots {
                tc.world.barrier(); // wait for writers
                let path = dir.join(format!("h5_{s:05}.nh5"));
                let t0 = Instant::now();
                let (_step, slab) =
                    read_snapshot_slab(&plain, path.to_str().expect("utf-8"), lo, hi)
                        .expect("snapshot read");
                tr += t0.elapsed().as_secs_f64();
                if let Some(h) = analyze(&tc, case.grid, (lo, hi), &slab) {
                    halos = h.len();
                }
                tc.world.barrier();
            }
        }
        let (w, r) = reduce_times(&tc, tw, tr);
        (w, r, halos)
    });
    let halos = out.iter().map(|o| o.2).max().unwrap_or(0);
    (out[0].0, out[0].1, halos)
}

/// Plotfiles scenario: write only (read excluded per the paper); the
/// final plotfile is read back serially afterwards to validate.
pub(crate) fn scenario_plotfiles(case: &Table2Case, dir: &Path) -> f64 {
    let specs = [TaskSpec::new("nyx", case.producers)];
    let case2 = case.clone();
    let dirb = dir.to_path_buf();
    let out: Vec<f64> = TaskWorld::run(&specs, move |tc| {
        let mut sim = NyxSim::new(case2.sim_config(), tc.local.rank());
        let slabs: plotfile::SlabTable =
            (0..case2.producers).map(|r| case2.sim_config().slab(r)).collect();
        let group_size = (case2.producers / 4).max(1);
        let mut tw = 0.0f64;
        for s in 0..case2.snapshots {
            let rho = sim.deposit();
            let pdir = dirb.join(format!("plt{s:05}"));
            tc.local.barrier();
            let t0 = Instant::now();
            let cb = tc.local.clone();
            plotfile::write_plotfile(
                &pdir,
                [case2.grid, case2.grid, case2.grid],
                &slabs,
                tc.local.rank(),
                group_size,
                &rho,
                move || cb.barrier(),
            )
            .expect("plotfile write");
            tw += t0.elapsed().as_secs_f64();
            sim.step();
        }
        tc.world.allreduce_one::<f64, _>(tw, f64::max)
    });
    // Untimed validation read of the last snapshot.
    let last = dir.join(format!("plt{:05}", case.snapshots - 1));
    let (dims, _, fields) = plotfile::read_plotfile(&last).expect("plotfile read");
    assert_eq!(dims, [case.grid, case.grid, case.grid]);
    assert_eq!(fields.len(), case.producers);
    out[0]
}

/// Run all three scenarios and assemble the Table II row.
pub fn run_case(case: &Table2Case, dir: &Path) -> Table2Row {
    std::fs::create_dir_all(dir).expect("bench dir");
    let (lf_w, lf_r, halos) = scenario_lowfive(case);
    let (h5_w, h5_r, _h) = scenario_hdf5(case, dir);
    let plot_w = scenario_plotfiles(case, dir);
    let lf_total = lf_w + lf_r;
    Table2Row {
        grid: case.grid,
        lowfive_write: lf_w,
        lowfive_read: lf_r,
        hdf5_write: h5_w,
        hdf5_read: h5_r,
        plotfiles_write: plot_w,
        speedup_vs_hdf5: (h5_w + h5_r) / lf_total,
        speedup_vs_plotfiles: plot_w / lf_total,
        halos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("bench-table2-test").join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn tiny_case_all_scenarios() {
        let mut case = Table2Case::new(16, 4, 2);
        case.particles_per_rank = 2000;
        let row = run_case(&case, &tmpdir("tiny"));
        assert!(row.lowfive_write > 0.0);
        assert!(row.hdf5_write > 0.0);
        assert!(row.plotfiles_write > 0.0);
        assert!(row.speedup_vs_hdf5.is_finite());
        // The analysis found structure.
        assert!(row.halos > 0, "no halos found");
    }

    #[test]
    fn lowfive_and_hdf5_agree_on_halos() {
        let mut case = Table2Case::new(16, 2, 2);
        case.particles_per_rank = 4000;
        let dir = tmpdir("agree");
        let (_, _, halos_lf) = scenario_lowfive(&case);
        let (_, _, halos_h5) = scenario_hdf5(&case, &dir);
        assert_eq!(halos_lf, halos_h5, "transports changed the analysis result");
        assert!(halos_lf > 0);
    }
}
