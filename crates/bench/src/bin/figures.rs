//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- fig5 fig7
//! cargo run -p bench --release --bin figures -- table2 --trials 1
//! cargo run -p bench --release --bin figures -- fig8 --scale large
//! ```
//!
//! Experiments: `table1`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `fig11`, `table2`, `streaming`, or `all`.
//! Results print as aligned tables and are also appended as CSV under
//! `bench-results/`.
//!
//! Scales (`--scale small|medium|large`) set rank counts and per-producer
//! data sizes. The paper runs 4→16384 MPI processes at 19 MiB per
//! producer on Cray XC40s; thread-ranks on one node reproduce the
//! *protocol* at reduced scale, so who-wins and curve shapes are the
//! comparable quantities, not absolute seconds (see EXPERIMENTS.md).

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bench::runners::{
    run_bredala, run_dataspaces, run_lowfive_file, run_lowfive_file_traced, run_lowfive_memory,
    run_lowfive_memory_traced, run_lowfive_serve, run_pure_hdf5, run_pure_mpi,
};
use bench::table2::{run_case, Table2Case};
use bench::workload::Workload;
use simmpi::CostModel;

#[derive(Clone, Copy)]
struct Scale {
    /// Total rank counts for weak-scaling sweeps (3:1 producer:consumer).
    sweep: &'static [usize],
    /// Rank counts used for the (slow) file-mode and Bredala sweeps.
    sweep_slow: &'static [usize],
    grid_per_prod: u64,
    particles_per_prod: u64,
    /// Table II grids (the paper used 256³–2048³).
    table2_grids: &'static [u64],
    table2_producers: usize,
    table2_consumers: usize,
}

const SMALL: Scale = Scale {
    sweep: &[4, 16, 64],
    sweep_slow: &[4, 16, 64],
    grid_per_prod: 8_000, // 20³
    particles_per_prod: 8_000,
    table2_grids: &[32, 64],
    table2_producers: 8,
    table2_consumers: 2,
};

const MEDIUM: Scale = Scale {
    sweep: &[4, 16, 64, 256],
    sweep_slow: &[4, 16, 64],
    grid_per_prod: 27_000, // 30³
    particles_per_prod: 27_000,
    table2_grids: &[32, 64, 128],
    table2_producers: 16,
    table2_consumers: 4,
};

const LARGE: Scale = Scale {
    sweep: &[4, 16, 64, 256],
    sweep_slow: &[4, 16, 64, 256],
    grid_per_prod: 125_000, // 50³
    particles_per_prod: 125_000,
    table2_grids: &[32, 64, 128, 256],
    table2_producers: 16,
    table2_consumers: 4,
};

struct Args {
    experiments: Vec<String>,
    scale: Scale,
    scale_name: String,
    trials: usize,
}

fn parse_args() -> Args {
    let mut experiments = Vec::new();
    let mut scale_name = "medium".to_string();
    let mut trials = 3usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale_name = it.next().expect("--scale needs a value"),
            "--trials" => {
                trials = it.next().expect("--trials needs a value").parse().expect("integer")
            }
            "--transport" => {
                // Every run in this process inherits the chosen backend:
                // the runners build worlds via `TransportKind::from_env`,
                // so the flag just pins the environment variable up front.
                let v = it.next().expect("--transport needs inproc|socket|tcp");
                match v.as_str() {
                    "inproc" => std::env::set_var("SIMMPI_TRANSPORT", ""),
                    "socket" | "uds" | "unix" | "tcp" => std::env::set_var("SIMMPI_TRANSPORT", v),
                    other => panic!("unknown transport {other:?} (inproc|socket|tcp)"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [table1 fig5 fig6 fig7 fig8 fig9 fig11 table2 streaming | all] \
                     [--scale small|medium|large] [--trials N] \
                     [--transport inproc|socket|tcp]"
                );
                std::process::exit(0);
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments =
            ["table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "table2", "streaming"]
                .iter()
                .map(|s| s.to_string())
                .collect();
    }
    let scale = match scale_name.as_str() {
        "small" => SMALL,
        "medium" => MEDIUM,
        "large" => LARGE,
        other => panic!("unknown scale {other:?}"),
    };
    Args { experiments, scale, scale_name, trials }
}

fn results_dir() -> PathBuf {
    let d = PathBuf::from("bench-results");
    std::fs::create_dir_all(&d).expect("create bench-results/");
    d
}

fn csv(path: &Path, header: &str, row: &str) {
    let fresh = !path.exists();
    let mut f = OpenOptions::new().append(true).create(true).open(path).expect("open csv");
    if fresh {
        writeln!(f, "{header}").expect("write header");
    }
    writeln!(f, "{row}").expect("write row");
}

fn avg<F: FnMut() -> f64>(trials: usize, mut f: F) -> f64 {
    (0..trials).map(|_| f()).sum::<f64>() / trials as f64
}

/// Export an observed run: `<stem>.trace.json` (Chrome `trace_event`,
/// loadable in Perfetto / `chrome://tracing`) and `<stem>.metrics.json`
/// (flat per-phase counters/histograms). The trace is validated before
/// it is written — a malformed export fails the run, not the viewer.
fn write_obsv_artifacts(report: &obsv::Report, stem: &str) {
    let dir = results_dir();
    let trace = report.chrome_trace();
    let summary = obsv::validate::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("{stem}: exporter produced an invalid trace: {e}"));
    let trace_path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace_path, trace).expect("write trace");
    let metrics_path = dir.join(format!("{stem}.metrics.json"));
    std::fs::write(&metrics_path, report.metrics_json()).expect("write metrics");
    println!(
        "  traced: {} spans over {} rank track(s) -> {} + {}",
        summary.spans,
        summary.ranks_with_spans.len(),
        trace_path.display(),
        metrics_path.display()
    );
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join("lowfive-figures").join(tag);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn table1(s: &Scale) {
    println!("\n== Table I: processes and data sizes (1 producer + 1 consumer task) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>14} {:>14} {:>12}",
        "total", "producers", "consumers", "grid pts", "particles", "size (GiB)"
    );
    let out = results_dir().join("table1.csv");
    for &n in s.sweep {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        println!(
            "{:>10} {:>10} {:>10} {:>14.3e} {:>14.3e} {:>12.4}",
            n,
            w.producers,
            w.consumers,
            w.total_grid_points() as f64,
            w.total_particles() as f64,
            gib(w.total_bytes())
        );
        csv(
            &out,
            "total,producers,consumers,grid_points,particles,bytes",
            &format!(
                "{n},{},{},{},{},{}",
                w.producers,
                w.consumers,
                w.total_grid_points(),
                w.total_particles(),
                w.total_bytes()
            ),
        );
    }
}

fn fig5(s: &Scale, trials: usize) {
    println!("\n== Fig. 5: LowFive file mode vs memory mode (weak scaling) ==");
    println!("{:>8} {:>16} {:>16}", "procs", "file mode (s)", "memory mode (s)");
    let out = results_dir().join("fig5.csv");
    for &n in s.sweep_slow {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let dir = tmpdir(&format!("fig5-{n}"));
        let tf = avg(trials, || run_lowfive_file(&w, &dir).seconds);
        let tm = avg(trials, || run_lowfive_memory(&w).seconds);
        println!("{n:>8} {tf:>16.4} {tm:>16.4}");
        csv(&out, "procs,file_s,memory_s", &format!("{n},{tf},{tm}"));
    }
    // Memory mode continues to the largest scale, as in the paper (file
    // mode was terminated early there because of its run time).
    for &n in s.sweep.iter().filter(|n| !s.sweep_slow.contains(n)) {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let tm = avg(trials, || run_lowfive_memory(&w).seconds);
        println!("{n:>8} {:>16} {tm:>16.4}", "-");
        csv(&out, "procs,file_s,memory_s", &format!("{n},,{tm}"));
    }
    // One traced pass at the smallest scale: per-phase metrics plus a
    // Chrome trace of both transport modes, rank by rank.
    let n = s.sweep_slow[0];
    let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
    let reg = obsv::Registry::new();
    run_lowfive_file_traced(&w, &tmpdir(&format!("fig5t-{n}")), &reg);
    run_lowfive_memory_traced(&w, &reg);
    write_obsv_artifacts(&reg.report(), "fig5");

    // Deep vs shallow serve A/B under the interconnect cost model: the
    // serve path lends region slices for either ownership, so the deep
    // column isolates the write-time copy of each written byte.
    println!("\n-- serve ownership A/B (interconnect cost model) --");
    println!("{:>8} {:>16} {:>16} {:>10}", "procs", "deep serve (s)", "shallow (s)", "deep/shal");
    let out = results_dir().join("fig5_serve.csv");
    for &n in s.sweep {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let td = avg(trials, || {
            run_lowfive_serve(&w, false, Some(CostModel::interconnect()), None).seconds
        });
        let ts = avg(trials, || {
            run_lowfive_serve(&w, true, Some(CostModel::interconnect()), None).seconds
        });
        println!("{n:>8} {td:>16.4} {ts:>16.4} {:>9.2}x", td / ts);
        csv(&out, "procs,deep_s,shallow_s", &format!("{n},{td},{ts}"));
    }
    // Traced A/B passes: both `fig5_shallow.metrics.json` and
    // `fig5_deep.metrics.json` must report bytes_copied == 0 (CI asserts
    // this); the deep write copy is not a transport copy.
    let w = Workload::paper_split(s.sweep[0], s.grid_per_prod, s.particles_per_prod);
    let reg = obsv::Registry::new();
    run_lowfive_serve(&w, true, Some(CostModel::interconnect()), Some(&reg));
    write_obsv_artifacts(&reg.report(), "fig5_shallow");
    let reg = obsv::Registry::new();
    run_lowfive_serve(&w, false, Some(CostModel::interconnect()), Some(&reg));
    write_obsv_artifacts(&reg.report(), "fig5_deep");
}

fn fig6(s: &Scale, trials: usize) {
    println!("\n== Fig. 6: LowFive file mode vs pure HDF5 (weak scaling) ==");
    println!(
        "{:>8} {:>18} {:>16} {:>10}",
        "procs", "LowFive file (s)", "pure HDF5 (s)", "overhead"
    );
    let out = results_dir().join("fig6.csv");
    for &n in s.sweep_slow {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let d1 = tmpdir(&format!("fig6lf-{n}"));
        let d2 = tmpdir(&format!("fig6h5-{n}"));
        let tlf = avg(trials, || run_lowfive_file(&w, &d1).seconds);
        let th5 = avg(trials, || run_pure_hdf5(&w, &d2).seconds);
        println!("{n:>8} {tlf:>18.4} {th5:>16.4} {:>9.2}x", tlf / th5);
        csv(&out, "procs,lowfive_file_s,pure_hdf5_s", &format!("{n},{tlf},{th5}"));
    }
}

fn fig7(s: &Scale, trials: usize) {
    println!("\n== Fig. 7: LowFive memory mode vs pure MPI (weak scaling) ==");
    println!("{:>8} {:>18} {:>14} {:>10}", "procs", "LowFive mem (s)", "pure MPI (s)", "LF/MPI");
    let out = results_dir().join("fig7.csv");
    for &n in s.sweep {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let tlf = avg(trials, || run_lowfive_memory(&w).seconds);
        let tmpi = avg(trials, || run_pure_mpi(&w).seconds);
        println!("{n:>8} {tlf:>18.4} {tmpi:>14.4} {:>9.2}x", tlf / tmpi);
        csv(&out, "procs,lowfive_mem_s,pure_mpi_s", &format!("{n},{tlf},{tmpi}"));
    }
}

fn staging_for(total: usize) -> usize {
    (total / 32).max(1)
}

fn fig8(s: &Scale, trials: usize) {
    println!("\n== Fig. 8: LowFive memory mode vs DataSpaces (weak scaling) ==");
    println!(
        "{:>8} {:>18} {:>16} {:>10} {:>9}",
        "procs", "LowFive mem (s)", "DataSpaces (s)", "LF/DS", "+staging"
    );
    let out = results_dir().join("fig8.csv");
    for &n in s.sweep {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let staging = staging_for(n);
        let tlf = avg(trials, || run_lowfive_memory(&w).seconds);
        let tds = avg(trials, || run_dataspaces(&w, staging).seconds);
        println!("{n:>8} {tlf:>18.4} {tds:>16.4} {:>9.2}x {staging:>9}", tlf / tds);
        csv(
            &out,
            "procs,lowfive_mem_s,dataspaces_s,staging_ranks",
            &format!("{n},{tlf},{tds},{staging}"),
        );
    }
}

fn fig9(s: &Scale, trials: usize) {
    println!("\n== Fig. 9: LowFive memory mode vs Bredala (weak scaling) ==");
    println!(
        "{:>8} {:>18} {:>14} {:>14} {:>16}",
        "procs", "LowFive mem (s)", "Bredala (s)", "Bredala grid", "Bredala particles"
    );
    let out = results_dir().join("fig9.csv");
    for &n in s.sweep_slow {
        let w = Workload::paper_split(n, s.grid_per_prod, s.particles_per_prod);
        let tlf = avg(trials, || run_lowfive_memory(&w).seconds);
        let mut grid = 0.0;
        let mut parts = 0.0;
        for _ in 0..trials {
            let b = run_bredala(&w);
            grid += b.grid;
            parts += b.particles;
        }
        grid /= trials as f64;
        parts /= trials as f64;
        println!("{n:>8} {tlf:>18.4} {:>14.4} {grid:>14.4} {parts:>16.4}", grid + parts);
        csv(
            &out,
            "procs,lowfive_mem_s,bredala_total_s,bredala_grid_s,bredala_particles_s",
            &format!("{n},{tlf},{},{grid},{parts}", grid + parts),
        );
    }
}

fn fig11(s: &Scale, trials: usize) {
    println!("\n== Fig. 11: large data — LowFive vs DataSpaces vs pure MPI ==");
    println!(
        "{:>8} {:>18} {:>16} {:>14}",
        "procs", "LowFive mem (s)", "DataSpaces (s)", "pure MPI (s)"
    );
    let out = results_dir().join("fig11.csv");
    for &n in s.sweep {
        // 10× the per-producer data of the other figures, as in the paper.
        let w = Workload::paper_split(n, s.grid_per_prod * 10, s.particles_per_prod * 10);
        let staging = staging_for(n);
        let tlf = avg(trials, || run_lowfive_memory(&w).seconds);
        let tds = avg(trials, || run_dataspaces(&w, staging).seconds);
        let tmpi = avg(trials, || run_pure_mpi(&w).seconds);
        println!("{n:>8} {tlf:>18.4} {tds:>16.4} {tmpi:>14.4}");
        csv(
            &out,
            "procs,lowfive_mem_s,dataspaces_s,pure_mpi_s",
            &format!("{n},{tlf},{tds},{tmpi}"),
        );
    }
}

fn table2(s: &Scale, trials: usize) {
    println!("\n== Table II: Nyx–Reeber use case ==");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10} {:>11} {:>7}",
        "grid",
        "LF write",
        "LF read",
        "H5 write",
        "H5 read",
        "Plot write",
        "LF/H5",
        "LF/Plot",
        "halos"
    );
    let out = results_dir().join("table2.csv");
    for &g in s.table2_grids {
        let case = Table2Case::new(g, s.table2_producers, s.table2_consumers);
        let dir = tmpdir(&format!("table2-{g}"));
        // Average rows over trials field-by-field.
        let mut acc: Option<bench::table2::Table2Row> = None;
        for _ in 0..trials {
            let row = run_case(&case, &dir);
            acc = Some(match acc {
                None => row,
                Some(mut a) => {
                    a.lowfive_write += row.lowfive_write;
                    a.lowfive_read += row.lowfive_read;
                    a.hdf5_write += row.hdf5_write;
                    a.hdf5_read += row.hdf5_read;
                    a.plotfiles_write += row.plotfiles_write;
                    a
                }
            });
        }
        let mut row = acc.expect("at least one trial");
        let t = trials as f64;
        row.lowfive_write /= t;
        row.lowfive_read /= t;
        row.hdf5_write /= t;
        row.hdf5_read /= t;
        row.plotfiles_write /= t;
        let lf = row.lowfive_write + row.lowfive_read;
        row.speedup_vs_hdf5 = (row.hdf5_write + row.hdf5_read) / lf;
        row.speedup_vs_plotfiles = row.plotfiles_write / lf;
        println!(
            "{:>7}³ {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>11.3} {:>9.2}x {:>10.2}x {:>7}",
            row.grid,
            row.lowfive_write,
            row.lowfive_read,
            row.hdf5_write,
            row.hdf5_read,
            row.plotfiles_write,
            row.speedup_vs_hdf5,
            row.speedup_vs_plotfiles,
            row.halos
        );
        csv(
            &out,
            "grid,lf_write,lf_read,h5_write,h5_read,plot_write,speedup_h5,speedup_plot,halos",
            &format!(
                "{},{},{},{},{},{},{},{},{}",
                row.grid,
                row.lowfive_write,
                row.lowfive_read,
                row.hdf5_write,
                row.hdf5_read,
                row.plotfiles_write,
                row.speedup_vs_hdf5,
                row.speedup_vs_plotfiles,
                row.halos
            ),
        );
    }
}

/// Sustained step-streaming traffic: one fast producer versus slow
/// consumers, under each back-pressure mode (see
/// `bench::runners::run_streaming` and docs/STREAMING.md). Three runs,
/// each with its own metrics registry:
///
/// * `baseline` — `DropOldest`, consumers never subscribe: the
///   producer's unconstrained publish rate.
/// * `drop` — `DropOldest` with slow `EveryStep` subscribers: the rate
///   must stay close to the baseline (CI asserts within 10%) because
///   eviction, not the consumers, absorbs the lag.
/// * `block` — `Block` with the same subscribers: the publish loop
///   throttles down to the slowest consumer's pace and sheds nothing.
///
/// Rows land in `bench-results/streaming_rates.csv`; per-run counters in
/// `streaming_<mode>.metrics.json` (the CI streaming job asserts
/// `steps_published` everywhere, `steps_dropped == 0` for `block`, and
/// `steps_dropped >= 1` for `drop`).
fn streaming_fig(scale: &str) {
    use bench::runners::run_streaming;
    use lowfive::BackPressure;

    let consumers = 3usize;
    let steps = 60u64;
    println!("\n== Streaming: sustained step traffic under both back-pressure modes ==");
    println!(
        "{:>10} {:>10} {:>7} {:>10} {:>12} {:>10} {:>9} {:>8}",
        "mode", "consumers", "steps", "seconds", "steps/s", "published", "dropped", "drained"
    );
    let out = results_dir().join("streaming_rates.csv");
    let header = "scale,mode,consumers,steps,seconds,steps_per_s,published,dropped,drained";
    let run = |mode: BackPressure, subscribe: bool, name: &str| {
        let reg = obsv::Registry::new();
        let m = run_streaming(consumers, steps, mode, subscribe, Some(&reg));
        println!(
            "{name:>10} {consumers:>10} {steps:>7} {:>10.4} {:>12.1} {:>10} {:>9} {:>8}",
            m.seconds, m.rate, m.published, m.dropped, m.drained
        );
        csv(
            &out,
            header,
            &format!(
                "{scale},{name},{consumers},{steps},{},{},{},{},{}",
                m.seconds, m.rate, m.published, m.dropped, m.drained
            ),
        );
        write_obsv_artifacts(&reg.report(), &format!("streaming_{name}"));
        m
    };
    let baseline = run(BackPressure::DropOldest, false, "baseline");
    let drop = run(BackPressure::DropOldest, true, "drop");
    let block = run(BackPressure::Block, true, "block");
    assert_eq!(baseline.published, steps);
    assert!(drop.drained && block.drained, "subscribed runs must drain cleanly");
    assert_eq!(block.dropped, 0, "Block mode is lossless");
    println!(
        "  (drop keeps {:.0}% of the baseline rate; block throttles to {:.0}%)",
        100.0 * drop.rate / baseline.rate,
        100.0 * block.rate / baseline.rate
    );
}

fn main() {
    let args = parse_args();
    println!(
        "LowFive reproduction figures — scale {} ({} trials per point, {} transport)",
        args.scale_name,
        args.trials,
        simmpi::TransportKind::from_env()
    );
    for exp in &args.experiments {
        match exp.as_str() {
            "table1" => table1(&args.scale),
            "fig5" => fig5(&args.scale, args.trials),
            "fig6" => fig6(&args.scale, args.trials),
            "fig7" => fig7(&args.scale, args.trials),
            "fig8" => fig8(&args.scale, args.trials),
            "fig9" => fig9(&args.scale, args.trials),
            "fig11" => fig11(&args.scale, args.trials),
            "table2" => table2(&args.scale, args.trials),
            "streaming" => streaming_fig(&args.scale_name),
            other => eprintln!("unknown experiment {other:?} (see --help)"),
        }
    }
    println!("\nCSV rows appended under bench-results/.");
}
