//! Criterion micro-version of Fig. 5: LowFive file mode vs memory mode at
//! a fixed small scale (the `figures` binary runs the full sweep).
//!
//! After the timed samples, one traced pass of each mode dumps per-phase
//! metrics JSON into `bench-results/` next to the figure CSVs.

use bench::runners::{
    run_lowfive_fetch, run_lowfive_file, run_lowfive_file_traced, run_lowfive_memory,
    run_lowfive_memory_traced,
};
use bench::workload::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use simmpi::CostModel;

fn bench(c: &mut Criterion) {
    let w = Workload::paper_split(8, 4_096, 4_096);
    let dir = std::env::temp_dir().join("bench-fig5");
    std::fs::create_dir_all(&dir).unwrap();
    let mut g = c.benchmark_group("fig5_transport_mode");
    g.sample_size(10);
    g.bench_function("lowfive_file_mode", |b| b.iter(|| run_lowfive_file(&w, &dir)));
    g.bench_function("lowfive_memory_mode", |b| b.iter(|| run_lowfive_memory(&w)));
    g.finish();

    // Fig. 5 multi-read variant: each consumer slab as one batched
    // `read_bytes_multi`, under the interconnect cost model.
    let cost = CostModel::interconnect();
    let mut g = c.benchmark_group("fig5_fetch_pipeline");
    g.sample_size(10);
    g.bench_function("fetch_pipelined", |b| b.iter(|| run_lowfive_fetch(&w, Some(cost))));
    g.finish();

    // Untimed traced pass: where did the benchmarked seconds go?
    let reg = obsv::Registry::new();
    run_lowfive_file_traced(&w, &dir, &reg);
    run_lowfive_memory_traced(&w, &reg);
    let out = std::path::PathBuf::from("bench-results");
    std::fs::create_dir_all(&out).unwrap();
    let path = out.join("fig5_bench.metrics.json");
    std::fs::write(&path, reg.report().metrics_json()).expect("write metrics");
    eprintln!("per-phase metrics -> {}", path.display());
}

criterion_group!(benches, bench);
criterion_main!(benches);
