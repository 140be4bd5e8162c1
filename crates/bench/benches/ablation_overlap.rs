//! Ablation: synchronous serve (paper baseline) vs asynchronous overlap
//! serve (the §V-C future-work feature) on a multi-snapshot workload with
//! a compute phase between snapshots.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use lowfive::DistVolBuilder;
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{TaskSpec, TaskWorld};

const STEPS: usize = 3;
const N: u64 = 1 << 12;

fn run(overlap: bool) {
    run_observed(overlap, None)
}

fn run_observed(overlap: bool, observe: Option<&obsv::Registry>) {
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 1)];
    let world = TaskWorld::builder(&specs);
    let world = if let Some(reg) = observe { world.observe(reg.clone()) } else { world };
    world.run(move |tc| {
        let producers: Vec<usize> = (0..2).collect();
        let consumers = vec![2];
        let vol = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("ov*", consumers.clone())
                .async_serve(overlap)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("ov*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        if tc.task_id == 0 {
            for s in 0..STEPS {
                let f = h5.create_file(&format!("ov{s}")).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
                let half = N / 2;
                let lo = tc.local.rank() as u64 * half;
                d.write_selection(
                    &Selection::block(&[lo], &[half]),
                    &(lo..lo + half).collect::<Vec<u64>>(),
                )
                .unwrap();
                f.close().unwrap();
                // Compute phase between snapshots.
                std::thread::sleep(Duration::from_millis(2));
            }
            vol.drain();
        } else {
            for s in 0..STEPS {
                let f = h5.open_file(&format!("ov{s}")).unwrap();
                let d = f.open_dataset("x").unwrap();
                // A consumer that takes its time.
                std::thread::sleep(Duration::from_millis(2));
                let _ = d.read_all::<u64>().unwrap();
                f.close().unwrap();
            }
        }
    });
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_overlap");
    g.sample_size(10);
    g.bench_function("synchronous_serve", |b| b.iter(|| run(false)));
    g.bench_function("async_overlap_serve", |b| b.iter(|| run(true)));
    g.finish();

    // Untimed traced pass of the overlap variant: the serve thread shows
    // up as an auxiliary lane on each producer rank, and the metrics JSON
    // lands next to the criterion output.
    let reg = obsv::Registry::new();
    run_observed(true, Some(&reg));
    let out = std::path::PathBuf::from("bench-results");
    std::fs::create_dir_all(&out).unwrap();
    let path = out.join("ablation_overlap.metrics.json");
    std::fs::write(&path, reg.report().metrics_json()).expect("write metrics");
    eprintln!("per-phase metrics -> {}", path.display());
}

criterion_group!(benches, bench);
criterion_main!(benches);
