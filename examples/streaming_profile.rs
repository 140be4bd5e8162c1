//! Streaming time-series with an emulated interconnect and fine-grained
//! transport profiling.
//!
//! Exercises three extension features of this reproduction together:
//!
//! * **extensible datasets** — each snapshot's sample table grows
//!   (`Dataset::extend`) before the file closes, as adaptive codes do,
//! * **interconnect emulation** — the whole workflow runs under a
//!   [`simmpi::CostModel`] charging latency + bandwidth per message, so
//!   shared-memory runs exhibit network-like timing,
//! * **transport profiling** — the paper's future-work item
//!   ("profiling our communication at finer grain"): per-phase
//!   index/serve/redirect/fetch breakdowns from
//!   [`lowfive::DistMetadataVol::profile`].
//!
//! Run with:
//! ```text
//! cargo run -p bench --release --example streaming_profile
//! ```
//!
//! Besides the printed per-phase profile, the run records every rank's
//! spans/counters/histograms through the `obsv` registry and writes
//! `streaming_profile.trace.json` (Chrome `trace_event` — load it in
//! Perfetto or `chrome://tracing`) plus `streaming_profile.metrics.json`
//! into `$LOWFIVE_TRACE_DIR` (default `bench-results/`).

use std::sync::Arc;

use lowfive::DistVolBuilder;
use minih5::space::UNLIMITED;
use minih5::{Dataspace, Datatype, Selection, Vol, H5};
use simmpi::{CostModel, TaskSpec, TaskWorld};

const COLS: u64 = 64;
const BASE_ROWS: u64 = 32;
const STEPS: usize = 4;
const PRODUCERS: usize = 3;
const CONSUMERS: usize = 2;

fn main() {
    let specs = [TaskSpec::new("sensors", PRODUCERS), TaskSpec::new("monitor", CONSUMERS)];
    let registry = obsv::Registry::new();
    let out = TaskWorld::builder(&specs)
        .cost_model(CostModel::interconnect())
        .observe(registry.clone())
        .run(|tc| {
            let _task = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
            let producers: Vec<usize> = (0..PRODUCERS).collect();
            let consumers: Vec<usize> = (PRODUCERS..PRODUCERS + CONSUMERS).collect();
            let vol = if tc.task_id == 0 {
                DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                    .produce("step*", consumers.clone())
                    .build()
            } else {
                DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                    .consume("step*", producers.clone())
                    .build()
            };
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);

            for step in 0..STEPS {
                let name = format!("step{step:03}");
                if tc.task_id == 0 {
                    let f = h5.create_file(&name).expect("create");
                    let d = f
                        .create_dataset_chunked(
                            "samples",
                            Datatype::Float64,
                            Dataspace::extensible(&[BASE_ROWS, COLS], &[UNLIMITED, COLS]),
                            &[BASE_ROWS, COLS],
                        )
                        .expect("dataset");
                    // Base rows, split across producer ranks.
                    let chunk = BASE_ROWS / PRODUCERS as u64;
                    let lo = tc.local.rank() as u64 * chunk;
                    let hi = if tc.local.rank() + 1 == PRODUCERS { BASE_ROWS } else { lo + chunk };
                    let vals: Vec<f64> =
                        (lo * COLS..hi * COLS).map(|i| i as f64 + 1000.0 * step as f64).collect();
                    d.write_selection(&Selection::block(&[lo, 0], &[hi - lo, COLS]), &vals)
                        .expect("base write");
                    // Adaptive burst: this step produced extra rows — append
                    // them (collective extend).
                    let extra = 8 * (step as u64 + 1);
                    d.extend(&[BASE_ROWS + extra, COLS]).expect("extend");
                    let share = extra / PRODUCERS as u64;
                    let elo = BASE_ROWS + tc.local.rank() as u64 * share;
                    let ehi = if tc.local.rank() + 1 == PRODUCERS {
                        BASE_ROWS + extra
                    } else {
                        elo + share
                    };
                    if ehi > elo {
                        let vals: Vec<f64> = (elo * COLS..ehi * COLS)
                            .map(|i| i as f64 + 1000.0 * step as f64)
                            .collect();
                        d.write_selection(&Selection::block(&[elo, 0], &[ehi - elo, COLS]), &vals)
                            .expect("append write");
                    }
                    f.close().expect("close (serve)");
                } else {
                    let f = h5.open_file(&name).expect("open");
                    let d = f.open_dataset("samples").expect("samples");
                    let (_, sp) = d.meta().expect("meta");
                    let rows = sp.dims()[0];
                    assert_eq!(rows, BASE_ROWS + 8 * (step as u64 + 1), "appended rows visible");
                    // Each monitor rank reads half the rows.
                    let lo = rows * tc.local.rank() as u64 / CONSUMERS as u64;
                    let hi = rows * (tc.local.rank() as u64 + 1) / CONSUMERS as u64;
                    let got: Vec<f64> = d
                        .read_selection(&Selection::block(&[lo, 0], &[hi - lo, COLS]))
                        .expect("read");
                    // Validate position encoding.
                    for (j, v) in got.iter().enumerate() {
                        let expect = (lo * COLS) as f64 + j as f64 + 1000.0 * step as f64;
                        assert_eq!(*v, expect);
                    }
                    f.close().expect("close");
                }
            }
            // Report the per-rank profile.
            let p = vol.profile();
            if tc.task_id == 0 && tc.local.rank() == 0 {
                println!("[sensors 0] profile over {STEPS} steps:");
                println!("  index : {:>8.4} s  ({} boxes indexed)", p.index_seconds, p.index_boxes);
                println!(
                "  serve : {:>8.4} s  ({} sessions, {} metadata / {} owner lookups / {} data requests, {:.2} MiB served)",
                p.serve_seconds,
                p.serve_sessions,
                p.metadata_requests,
                p.intersect_requests,
                p.data_requests,
                p.bytes_served as f64 / (1 << 20) as f64
            );
            }
            if tc.task_id == 1 && tc.local.rank() == 0 {
                println!("[monitor 0] profile over {STEPS} steps:");
                println!(
                    "  open      : {:>8.4} s (blocked until producers closed)",
                    p.open_seconds
                );
                println!(
                    "  redirect  : {:>8.4} s (routing: owner cache, block owners)",
                    p.redirect_seconds
                );
                println!(
                    "  fetch     : {:>8.4} s (data rounds, {:.2} MiB)",
                    p.fetch_seconds,
                    p.bytes_fetched as f64 / (1 << 20) as f64
                );
            }
            p.bytes_fetched + p.bytes_served
        });
    let moved: u64 = out.results.iter().sum();
    println!(
        "workflow done under emulated interconnect (1 µs latency, 10 GB/s): {} payload bytes \
         through the transport, {} messages total",
        moved, out.stats.messages
    );

    // Export the recorded trace: one Perfetto-loadable track per rank.
    let report = registry.report();
    let trace = report.chrome_trace();
    let summary = obsv::validate::validate_chrome_trace(&trace).expect("trace must validate");
    let dir = std::path::PathBuf::from(
        std::env::var("LOWFIVE_TRACE_DIR").unwrap_or_else(|_| "bench-results".into()),
    );
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let trace_path = dir.join("streaming_profile.trace.json");
    std::fs::write(&trace_path, trace).expect("write trace");
    let metrics_path = dir.join("streaming_profile.metrics.json");
    std::fs::write(&metrics_path, report.metrics_json()).expect("write metrics");
    println!(
        "trace: {} spans across {} rank tracks -> {} (metrics: {})",
        summary.spans,
        summary.ranks_with_spans.len(),
        trace_path.display(),
        metrics_path.display()
    );
}
