//! The parent side: every pass of every workload runs in a child process
//! of its own (clean heap, its own peak RSS, killable when it hangs);
//! this module spawns them, guards them, and assembles what they print.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use obsv::json::{self, Value};

use crate::metrics::{PEAK_RSS, SETUP, TRIAL_E2E};
use crate::result::{Doc, Metric, RunResult, PASS_E2E, PASS_TRACED};
use crate::runner::steps_of;
use crate::stats::median;
use crate::workloads::{Workload, WORKLOADS};

/// A `run-one` child of `lfbench all` that takes longer than this is
/// hung: healthy ones end in under 20 s.
pub const HANG_AFTER: Duration = Duration::from_secs(60);

/// Measured trials per workload in `lfbench all`. Seven, so that the
/// quartiles `compare` judges spread by leave out one outlying trial at
/// either end; with five they are all but the extremes.
pub const ALL_TRIALS: usize = 7;

/// Child processes a `--trace 0` contract run splits its measuring
/// time over.
pub const CONTRACT_CHILDREN: usize = 3;

/// Reference/traced trial pairs per workload in the traced pass.
pub const TRACED_PAIRS: usize = 2;

/// The directory of this package; `results/` lives in it.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// Where rank threads of a child put their Unix sockets: `simmpi` asks
/// `std::env::temp_dir()`. Relative to [`bench_dir`], the child's working
/// directory, which keeps socket paths short and inside the checkout.
const CHILD_TMP: &str = "results/tmp";

/// Remove the children's socket directory once it is empty — every world
/// removes its own sub-directory, and another `lfbench` may be using the
/// same checkout.
fn tidy_child_tmp() {
    let _ = std::fs::remove_dir(bench_dir().join(CHILD_TMP));
}

/// Why a child yielded no result.
#[derive(Debug)]
pub enum ChildError {
    /// Killed after the timeout; the threads it was stuck in.
    Hung(Vec<String>),
    Failed(String),
}

/// Names of the threads of `pid`, from `/proc/<pid>/task/*/comm`.
fn thread_names(pid: u32) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return Vec::new() };
    let mut names: Vec<String> = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|s| s.trim().to_string())
        .collect();
    names.sort();
    names
}

/// Run this executable with `args` as a guarded child.
pub fn child(args: &[String], timeout: Duration) -> Result<RunResult, ChildError> {
    let exe =
        std::env::current_exe().map_err(|e| ChildError::Failed(format!("current_exe: {e}")))?;
    child_of(&exe, args, timeout)
}

/// Run `lfbench` (at `exe`) with `args`, wait at most `timeout` for it —
/// killing it and naming its threads if it takes longer — and parse the
/// result it prints as the last line of its standard output.
pub fn child_of(exe: &Path, args: &[String], timeout: Duration) -> Result<RunResult, ChildError> {
    let failed = |what: String| ChildError::Failed(what);
    std::fs::create_dir_all(bench_dir().join(CHILD_TMP))
        .map_err(|e| failed(format!("creating {CHILD_TMP}: {e}")))?;
    let mut proc = Command::new(exe)
        .args(args)
        .current_dir(bench_dir())
        .env("TMPDIR", CHILD_TMP)
        .env_remove("SIMMPI_TRANSPORT")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| failed(format!("spawn: {e}")))?;
    let mut pipe = proc.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    // The reader ends when the child closes its stdout — on exit at the
    // latest — so a timed wait on the channel is a timed wait on the
    // child, with no polling.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let outcome = match rx.recv_timeout(timeout) {
        Ok(text) => Ok(text),
        Err(_) => {
            let stuck = thread_names(proc.id());
            let _ = proc.kill();
            Err(ChildError::Hung(stuck))
        }
    };
    let status = proc.wait().map_err(|e| failed(format!("wait: {e}")))?;
    reader.join().expect("reader thread");
    let text = outcome?;
    let last = text.lines().last().unwrap_or("");
    let parsed = json::parse(last).and_then(|v| RunResult::from_json(&v));
    match parsed {
        Ok(result) if status.success() => Ok(result),
        Ok(_) => Err(failed(format!("child exited with {status}"))),
        Err(e) => Err(failed(format!("child exited with {status}; no result: {e}"))),
    }
}

fn run_one_args(w: &Workload, seed: u64, quick: bool, rest: &[&str]) -> Vec<String> {
    let mut args =
        vec!["run-one".to_string(), w.name.to_string(), "--seed".into(), seed.to_string()];
    args.extend(rest.iter().map(|s| s.to_string()));
    if quick {
        args.push("--quick".into());
    }
    args
}

/// A child that yielded nothing counts every read it was to make as
/// failed.
fn lost_run(
    pass: &str,
    w: &Workload,
    seed: u64,
    quick: bool,
    trials: usize,
    why: ChildError,
) -> RunResult {
    let steps = steps_of(w, quick);
    let reads = (steps * w.grid.consumers * w.chunks * trials) as u64;
    let error = match why {
        ChildError::Hung(threads) => {
            format!("{} {pass} hung; killed. Threads: {}", w.name, threads.join(" "))
        }
        ChildError::Failed(what) => format!("{} {pass}: {what}", w.name),
    };
    eprintln!("lfbench: {error}");
    let mut lost = RunResult::empty(pass, w.name, seed, steps);
    (lost.attempted, lost.failed, lost.errors) = (reads, reads, vec![error]);
    lost
}

/// One full set: per workload an end-to-end child and a traced child,
/// then the layer pass.
pub fn run_set(seed: u64, quick: bool) -> Doc {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        eprintln!("lfbench: {} ...", w.name);
        let trials = ALL_TRIALS.to_string();
        let e2e = child(&run_one_args(w, seed, quick, &["--trials", &trials]), HANG_AFTER)
            .unwrap_or_else(|why| lost_run(PASS_E2E, w, seed, quick, ALL_TRIALS, why));
        let traced = child(&run_one_args(w, seed, quick, &["--traced"]), HANG_AFTER)
            .unwrap_or_else(|why| lost_run(PASS_TRACED, w, seed, quick, TRACED_PAIRS, why));
        runs.extend([e2e, traced]);
    }
    eprintln!("lfbench: layers ...");
    let mut layer_args = vec!["layers".to_string()];
    if quick {
        layer_args.push("--quick".into());
    }
    match child(&layer_args, HANG_AFTER) {
        Ok(layers) => runs.push(layers),
        Err(why) => eprintln!("lfbench: layer pass: {why:?}"),
    }
    tidy_child_tmp();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    Doc { seed, quick, cores, runs }
}

/// Print every metric of `doc` by name: unit, sample count, median,
/// quartiles.
pub fn print(doc: &Doc) {
    println!("seed {}  cores {}  quick {}  claim: none", doc.seed, doc.cores, doc.quick);
    println!(
        "{:<18} {:<11} {:<40} {:<6} {:>3} {:>13} {:>13} {:>13}",
        "workload", "pass", "metric", "unit", "n", "median", "q1", "q3"
    );
    for r in &doc.runs {
        for m in &r.metrics {
            let s = m.summary();
            println!(
                "{:<18} {:<11} {:<40} {:<6} {:>3} {:>13.5} {:>13.5} {:>13.5}",
                r.workload, r.pass, m.name, m.unit, s.n, s.median, s.q1, s.q3
            );
        }
        if r.pass == PASS_E2E {
            println!(
                "{:<18} {:<11} {:<40} {:<6} {:>3} {:>13.5}   ({} of {} reads failed)",
                r.workload,
                r.pass,
                "failed_ops_pct",
                "%",
                1,
                r.failed_ops_pct(),
                r.failed,
                r.attempted
            );
        }
        for e in &r.errors {
            println!("{:<18} {:<11} ERROR {e}", r.workload, r.pass);
        }
    }
}

/// Did every read of every pass succeed and every harness check hold?
pub fn clean(doc: &Doc) -> bool {
    let expected = 2 * WORKLOADS.len() + 1;
    doc.runs.len() == expected && doc.runs.iter().all(|r| r.failed == 0 && r.errors.is_empty())
}

pub fn write_doc(doc: &Doc, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_json().to_json() + "\n")
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The one-line result the benchmark contract asks for: every metric
/// as the median of its samples.
fn contract_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = &'a Metric>,
) -> String {
    let metrics = metrics
        .map(|m| {
            let value = json::num(median(&m.samples));
            (m.name.as_str(), json::obj(vec![("value", value), ("unit", json::s(&m.unit))]))
        })
        .collect();
    json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::int(attempted.max(1))),
        ("failed", json::int(failed)),
        ("metrics", json::obj(metrics)),
    ])
    .to_json()
}

/// `--workload W --seed N --seconds S --trace 0|1`: one run under the
/// benchmark contract; returns the result line to print.
pub fn contract_run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<String, ChildError> {
    // Everything must have ended well inside the contract's 180 s.
    let deadline = Instant::now() + Duration::from_secs(150);
    let left = || {
        deadline
            .saturating_duration_since(Instant::now())
            .min(HANG_AFTER + Duration::from_secs(seconds))
    };
    let line = if trace {
        let traced = child(&run_one_args(w, seed, false, &["--traced"]), left())?;
        let layers = child(&["layers".to_string()], left())?;
        let correct = traced.failed == 0 && traced.errors.is_empty();
        let metrics = layers.metrics.iter().chain(&traced.metrics);
        contract_line(correct, traced.attempted, traced.failed, metrics)
    } else {
        // Three children share the measuring time. Set-up and peak RSS
        // are paid once per process, so a run has three samples of each;
        // and what is sticky for a process (which arena and which CPU its
        // helper threads got) is drawn three times instead of once.
        let share = (seconds as f64 / CONTRACT_CHILDREN as f64).to_string();
        let mut pooled: Vec<Metric> = Vec::new();
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for _ in 0..CONTRACT_CHILDREN {
            let run = child(&run_one_args(w, seed, false, &["--seconds", &share]), left())?;
            attempted += run.attempted;
            failed += run.failed;
            correct &= run.failed == 0 && run.errors.is_empty();
            for m in run.metrics {
                match pooled.iter_mut().find(|p| p.name == m.name) {
                    Some(p) => p.samples.extend(m.samples),
                    None => pooled.push(m),
                }
            }
        }
        let wanted = TRIAL_E2E.iter().chain([&PEAK_RSS, &SETUP]);
        let metrics = wanted.filter_map(|named| pooled.iter().find(|m| m.name == named.0));
        contract_line(correct, attempted, failed, metrics)
    };
    tidy_child_tmp();
    Ok(line)
}
