//! `lfbench` — see `benchmark/README.md`.
//!
//! ```text
//! lfbench all [--seed N] [--repeat K] [--quick]      every pass of every workload
//! lfbench compare <a.json> <b.json>                  judge b against a
//! lfbench --workload W --seed N --seconds S --trace 0|1   one run under BENCHMARK.json
//! lfbench run-one W [--seed N] [--trials N | --seconds S | --traced] [--quick]   (child)
//! lfbench layers [--quick]                           (child)
//! ```

use std::process::ExitCode;
use std::time::Instant;

use lfbench::compare::{self, Verdict};
use lfbench::driver::{self, ALL_TRIALS, TRACED_PAIRS};
use lfbench::result::{Doc, RunResult};
use lfbench::runner::{self, Budget};
use lfbench::sysres::CountingAlloc;
use lfbench::workloads;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `--name value` options and bare words of a command line.
struct Args {
    words: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

const FLAGS: [&str; 2] = ["--quick", "--traced"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), options: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if FLAGS.contains(&a.as_str()) {
                args.options.push((a, None));
            } else if a.starts_with("--") {
                let value = raw.next().ok_or(format!("{a} needs a value"))?;
                args.options.push((a, Some(value)));
            } else {
                args.words.push(a);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(n, _)| n == name) {
            Some((_, Some(v))) => {
                v.parse().map(Some).map_err(|_| format!("bad value for {name}: {v}"))
            }
            _ => Ok(None),
        }
    }
}

fn workload(name: Option<&String>) -> Result<&'static workloads::Workload, String> {
    let name = name.ok_or("which workload?")?;
    workloads::find(name).ok_or(format!(
        "unknown workload {name}; known: {}",
        workloads::WORKLOADS.map(|w| w.name).join(" ")
    ))
}

/// A child's whole standard output: its result, on one line.
fn emit(result: &RunResult) -> ExitCode {
    println!("{}", result.to_json().to_json());
    ExitCode::SUCCESS
}

fn all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.value("--seed")?.unwrap_or(1);
    let repeat: usize = args.value("--repeat")?.unwrap_or(1);
    let quick = args.flag("--quick");
    let mut sets: Vec<Doc> = Vec::new();
    for set in 0..repeat.max(1) {
        let doc = driver::run_set(seed, quick);
        driver::print(&doc);
        // A smoke run must not replace the last real result.
        let stem = if quick { "quick" } else { "latest" };
        let name = if set + 1 == repeat.max(1) {
            format!("{stem}.json")
        } else {
            format!("{stem}.{set}.json")
        };
        let path = driver::results_dir().join(name);
        driver::write_doc(&doc, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("lfbench: wrote {}", path.display());
        sets.push(doc);
    }
    let mut good = sets.iter().all(driver::clean);
    if let [.., a, b] = sets.as_slice() {
        // Same code, same seed: every row must come out `ok`.
        let rows = compare::compare(a, b, &bounds()?);
        compare::print(&rows);
        good &= rows.iter().all(|r| r.verdict == Verdict::Ok);
    }
    Ok(if good { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn bounds() -> Result<Vec<compare::Bound>, String> {
    compare::bounds_of(&driver::read_json(&driver::bench_dir().join("../BENCHMARK.json"))?)
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else { return Err("compare <a.json> <b.json>".into()) };
    let load = |p: &String| {
        Doc::from_json(&driver::read_json(p.as_ref())?).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?, &bounds()?);
    compare::print(&rows);
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn run_one(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let w = workload(args.words.get(1))?;
    let seed = args.value("--seed")?.unwrap_or(1);
    let quick = args.flag("--quick");
    if args.flag("--traced") {
        let pairs = if quick { 1 } else { TRACED_PAIRS };
        return Ok(emit(&runner::run_traced(w, seed, pairs, quick, &driver::results_dir())));
    }
    let budget = match args.value("--seconds")? {
        Some(s) => Budget::Seconds(s),
        None => Budget::Trials(args.value("--trials")?.unwrap_or(ALL_TRIALS)),
    };
    Ok(emit(&runner::run_e2e(w, seed, budget, quick, started)))
}

fn contract(args: &Args) -> Result<ExitCode, String> {
    let name: Option<String> = args.value("--workload")?;
    let w = workload(name.as_ref())?;
    let seed = args.value("--seed")?.unwrap_or(1);
    let seconds = args.value("--seconds")?.unwrap_or(10);
    let trace = args.value::<u8>("--trace")?.unwrap_or(0) != 0;
    let line = driver::contract_run(w, seed, seconds, trace).map_err(|e| format!("{e:?}"))?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("all") => all(&args),
            Some("compare") => compare_files(&args),
            Some("run-one") => run_one(&args, started),
            Some("layers") => Ok(emit(&runner::run_layers(args.flag("--quick")))),
            None if args.flag("--workload") => contract(&args),
            _ => Err("usage: lfbench all|compare|run-one|layers, or --workload W --seed N --seconds S --trace 0|1".into()),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("lfbench: {e}");
        ExitCode::FAILURE
    })
}
