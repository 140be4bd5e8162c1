//! What a child process does: set up, then run the trials of one pass of
//! one workload in a clean heap of its own.

use std::path::Path;
use std::time::Instant;

use obsv::json::{self, Value};

use crate::layers::{self, LAYERS};
use crate::metrics::{self, TracedExtras, EXCHANGE_P95, PEAK_RSS, SETUP, TRACED, TRIAL_E2E};
use crate::result::{Metric, RunResult, PASS_E2E, PASS_LAYERS, PASS_TRACED};
use crate::sysres::{count_allocs, Usage};
use crate::workloads::{run_trial, Inputs, Trial, Verify, Workload};

/// How many measured trials a child runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many (`lfbench all`: 5).
    Trials(usize),
    /// Fixed-size trials until this many seconds of measuring have passed
    /// (at least [`MIN_TRIALS`]).
    Seconds(f64),
}

pub const MIN_TRIALS: usize = 2;

/// A measured trial that lost a larger share of the machine's CPU time
/// than this to the hypervisor (`steal` in `/proc/stat`) is disturbed.
pub const MAX_STOLEN_SHARE: f64 = 0.03;

/// `accounting.unattributed_pct` above this fails the traced pass.
pub const MAX_UNATTRIBUTED_PCT: f64 = 10.0;

/// `--quick` divides every step and iteration count by this.
pub const QUICK_SCALE: usize = 20;

pub fn steps_of(w: &Workload, quick: bool) -> usize {
    if quick {
        (w.steps / QUICK_SCALE).max(10)
    } else {
        w.steps
    }
}

/// Set-up as a user of the benchmark pays it before the first measured
/// step: generate the inputs from the seed, then one whole trial — world
/// spawn, socket connect, every step — with every delivered byte
/// verified. The first world of a process is the slow one (a deep-copy
/// trial runs at half speed until the heap has grown to hold what the
/// producers retain), which is why it is this trial that is discarded.
fn set_up(w: &Workload, seed: u64, steps: usize) -> (Inputs, Trial) {
    let inputs = Inputs::generate(w, seed);
    let warm_up = run_trial(w, &inputs, steps, Verify::Full, None);
    (inputs, warm_up)
}

fn count_reads(result: &mut RunResult, t: &Trial) {
    result.attempted += t.reads();
    result.failed += t.failed().min(t.reads());
}

/// The end-to-end pass of one workload. `started` is when the process
/// began.
pub fn run_e2e(
    w: &Workload,
    seed: u64,
    budget: Budget,
    quick: bool,
    started: Instant,
) -> RunResult {
    let steps = steps_of(w, quick);
    let mut result = RunResult::empty(PASS_E2E, w.name, seed, steps);
    let (inputs, warm_up) = set_up(w, seed, steps);
    let setup_s = started.elapsed().as_secs_f64();
    // Taken here, after exactly one world: glibc hands the threads of
    // later worlds the arenas earlier ones left behind in an order that
    // depends on thread timing, which makes any later peak bimodal
    // (stream_steps: 114 or 205 MiB after the first measured trial).
    let peak_rss_mib = Usage::now().peak_rss_mib;
    if warm_up.failed() > 0 {
        result.errors.push(format!("warm-up: {} reads delivered wrong bytes", warm_up.failed()));
    }
    // Per trial: was it undisturbed, and its metrics.
    let mut trials: Vec<(bool, Vec<f64>)> = Vec::new();
    let measuring = Instant::now();
    let more = |done: usize| match budget {
        Budget::Trials(n) => done < n,
        Budget::Seconds(s) => done < MIN_TRIALS || measuring.elapsed().as_secs_f64() < s,
    };
    while more(result.trials as usize) {
        let t = run_trial(w, &inputs, steps, Verify::Sample, None);
        count_reads(&mut result, &t);
        trials.push((t.stolen_share <= MAX_STOLEN_SHARE, metrics::trial_e2e(w, &t)));
        result.trials += 1;
    }
    // A trial during which the hypervisor ran other guests on our CPUs
    // measured them, not the product. Such trials cost their time all the
    // same, but are left out of the statistics while enough others remain.
    let undisturbed = trials.iter().filter(|t| t.0).count();
    if undisturbed < trials.len() {
        eprintln!(
            "lfbench: {}: {} of {} trials lost more than {:.0} % of the CPUs to the hypervisor{}",
            w.name,
            trials.len() - undisturbed,
            trials.len(),
            MAX_STOLEN_SHARE * 100.0,
            if undisturbed >= MIN_TRIALS { "; left out" } else { "; kept, too few others" }
        );
    }
    if undisturbed >= MIN_TRIALS {
        trials.retain(|t| t.0);
    }
    let named = TRIAL_E2E.iter().chain([&EXCHANGE_P95]);
    result.metrics.extend(
        named.enumerate().map(|(i, n)| Metric::new(*n, trials.iter().map(|t| t.1[i]).collect())),
    );
    result.metrics.push(Metric::new(PEAK_RSS, vec![peak_rss_mib]));
    result.metrics.push(Metric::new(SETUP, vec![setup_s]));
    result
}

/// The traced pass of one workload: `pairs` times an untraced reference
/// trial followed by a trial with an `obsv::Registry` attached, then one
/// trial with the allocation counter armed. Spans of the last traced
/// trial go to `out_dir/<workload>.spans.json`, the obsv Chrome trace
/// beside them.
pub fn run_traced(w: &Workload, seed: u64, pairs: usize, quick: bool, out_dir: &Path) -> RunResult {
    let steps = steps_of(w, quick);
    let mut result = RunResult::empty(PASS_TRACED, w.name, seed, steps);
    let (inputs, _) = set_up(w, seed, steps);
    let mut traced = Vec::new();
    for _ in 0..pairs {
        let reference = run_trial(w, &inputs, steps, Verify::Sample, None);
        let registry = obsv::Registry::new();
        let t = run_trial(w, &inputs, steps, Verify::Sample, Some(&registry));
        traced.push((t, registry.report(), metrics::trial_e2e_exchange(&reference)));
    }
    let (counted, calls, bytes) =
        count_allocs(|| run_trial(w, &inputs, steps, Verify::Sample, None));
    count_reads(&mut result, &counted);
    let mut samples = vec![Vec::new(); TRACED.len()];
    for (t, report, untraced_exchange_ms) in traced {
        count_reads(&mut result, &t);
        result.trials += 1;
        let extras = TracedExtras {
            report,
            untraced_exchange_ms,
            alloc_calls_per_step: calls as f64 / steps as f64,
            alloc_bytes_per_delivered_byte: bytes as f64 / counted.delivered_bytes().max(1) as f64,
        };
        let (values, accounting) = metrics::traced(&t, &extras);
        for (column, v) in samples.iter_mut().zip(values) {
            column.push(v);
        }
        // `serve` of an async-serve producer is its background thread's
        // lifetime, so the first identity only binds the other workloads.
        eprintln!(
            "lfbench: {} traced trial {}: close - (index + serve) = {:+.4} ms, \
             read - (redirect + fetch) = {:+.4} ms, unattributed {:.3} %",
            w.name,
            result.trials,
            accounting.close_residue_ms,
            accounting.read_residue_ms,
            accounting.unattributed_pct
        );
        if accounting.unattributed_pct > MAX_UNATTRIBUTED_PCT {
            result.errors.push(format!(
                "accounting.unattributed_pct {:.2} > {MAX_UNATTRIBUTED_PCT}",
                accounting.unattributed_pct
            ));
        }
        if accounting.read_residue_ms < 0.0 {
            result.errors.push(format!(
                "redirect + fetch exceed the read span by {:.4} ms",
                -accounting.read_residue_ms
            ));
        }
        if result.trials as usize == pairs {
            write_traces(w, &t, &extras.report, out_dir, &mut result.errors);
        }
    }
    result.metrics.extend(TRACED.iter().zip(samples).map(|(n, s)| Metric::new(*n, s)));
    result
}

fn write_traces(
    w: &Workload,
    t: &Trial,
    report: &obsv::Report,
    dir: &Path,
    errors: &mut Vec<String>,
) {
    let spans: Vec<Value> = metrics::spans(t)
        .iter()
        .map(|s| {
            json::obj(vec![
                ("name", json::s(s.name)),
                ("rank", json::int(s.rank as u64)),
                ("step", json::int(s.step as u64)),
                ("start_ns", json::int(s.start_ns)),
                ("end_ns", json::int(s.end_ns)),
                ("parent", s.parent.map_or(Value::Null, |p| json::int(p as u64))),
            ])
        })
        .collect();
    let files = [
        (format!("{}.spans.json", w.name), Value::Arr(spans).to_json()),
        (format!("{}.trace.json", w.name), report.chrome_trace()),
    ];
    for (name, text) in files {
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(&name), text));
        if let Err(e) = written {
            errors.push(format!("writing {name}: {e}"));
        }
    }
}

/// The layer pass.
pub fn run_layers(quick: bool) -> RunResult {
    let samples = layers::run(if quick { QUICK_SCALE } else { 1 });
    let mut result = RunResult::empty(PASS_LAYERS, "-", 0, 0);
    result.trials = layers::REPS as u64;
    result.metrics = LAYERS.iter().zip(samples).map(|(n, s)| Metric::new(*n, s)).collect();
    result
}
