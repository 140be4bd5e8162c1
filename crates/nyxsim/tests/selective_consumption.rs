//! The paper's introductory motivation, measured: a simulation writes
//! several variables; an analysis that reads only one variable must only
//! move (roughly) that variable's bytes — "the other datasets not needed
//! by the consumer would never actually have to be written, i.e., sent."

use std::sync::Arc;

use lowfive::DistVolBuilder;
use minih5::{Selection, Vol, H5};
use nyxsim::sim::{write_snapshot_multi, NyxSim, SimConfig, WriteOptions};
use simmpi::{TaskSpec, TaskWorld};

#[test]
fn only_the_consumed_variable_moves() {
    const G: u64 = 24;
    const PRODUCERS: usize = 3;
    let cfg =
        SimConfig { grid: G, nranks: PRODUCERS, particles_per_rank: 10_000, centers: 3, seed: 13 };
    let specs = [TaskSpec::new("sim", PRODUCERS), TaskSpec::new("analysis", 1)];
    let cfg2 = cfg.clone();
    let out = TaskWorld::builder(&specs).run(move |tc| {
        let producers: Vec<usize> = (0..PRODUCERS).collect();
        let consumers = vec![PRODUCERS];
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
            let mut sim = NyxSim::new(cfg2.clone(), tc.local.rank());
            sim.step();
            let fields = sim.deposit_all();
            // Zero-copy so the transport only ships what is read.
            write_snapshot_multi(
                &h5,
                "snap",
                &sim,
                &fields,
                WriteOptions { repack: false, zero_copy: true },
            )
            .unwrap();
        } else {
            let f = h5.open_file("snap").unwrap();
            // The analysis consumes ONLY the density variable.
            let d = f.open_dataset("level_0/density").unwrap();
            let rho: Vec<f64> = d.read_selection(&Selection::all()).unwrap();
            assert_eq!(rho.iter().sum::<f64>() as usize, PRODUCERS * 10_000);
            f.close().unwrap();
        }
    });
    // All three variables total 3 * G³ * 8 bytes; only density (1/3)
    // should cross the transport, plus metadata/control traffic.
    let one_var = G * G * G * 8;
    assert!(
        out.stats.bytes < one_var * 2,
        "moved {} bytes; a single variable is {} bytes",
        out.stats.bytes,
        one_var
    );
    assert!(out.stats.bytes >= one_var, "must at least move the density variable");
}
