//! From rank logs to named numbers: the end-to-end metrics of a trial,
//! and the per-layer metrics of a traced trial.

use std::collections::BTreeMap;

use crate::stats::{median, percentile};
use crate::workloads::{
    RankLog, Trial, Workload, C_BEGIN, C_READ, P_BEGIN, P_PUBLISHED, P_WRITTEN,
};

const GIB: f64 = (1u64 << 30) as f64;

/// `(name, unit)`.
pub type Named = (&'static str, &'static str);

/// End-to-end metrics one trial yields; `setup_s` and `peak_rss_mib` are
/// per process and added by the runner.
pub const TRIAL_E2E: [Named; 7] = [
    ("exchange_ms", "ms"),
    ("makespan_s", "s"),
    ("delivered_gibps", "GiB/s"),
    ("steps_per_s", "1/s"),
    ("producer_stall_ms", "ms"),
    ("step_lag_ms", "ms"),
    ("cpu_ms_per_step", "ms"),
];

/// Reported beside `exchange_ms`, never gated.
pub const EXCHANGE_P95: Named = ("exchange_p95_ms", "ms");

pub const SETUP: Named = ("setup_s", "s");
pub const PEAK_RSS: Named = ("peak_rss_mib", "MiB");

/// Per-layer metrics a traced trial yields.
pub const TRACED: [Named; 25] = [
    ("lowfive.create_write_ms", "ms"),
    ("lowfive.close_ms", "ms"),
    ("lowfive.open_ms", "ms"),
    ("lowfive.read_ms", "ms"),
    ("lowfive.consumer_close_ms", "ms"),
    ("lowfive.index_ms", "ms"),
    ("lowfive.serve_ms", "ms"),
    ("lowfive.redirect_ms", "ms"),
    ("lowfive.fetch_ms", "ms"),
    ("lowfive.intersects_per_step", "count"),
    ("lowfive.data_requests_per_step", "count"),
    ("lowfive.step_cost_drift", "ratio"),
    ("lowfive.stream.publish_us", "us"),
    ("lowfive.stream.next_step_us", "us"),
    ("simmpi.msgs_per_step", "count"),
    ("simmpi.wire_bytes_per_delivered_byte", "B/B"),
    ("obsv.overhead_pct", "%"),
    ("obsv.bytes_copied_per_delivered_byte", "B/B"),
    ("obsv.fetch_cache_hit_pct", "%"),
    ("obsv.events_dropped", "count"),
    ("alloc.calls_per_step", "count"),
    ("alloc.bytes_per_delivered_byte", "B/B"),
    ("os.ctx_switches_per_step", "count"),
    ("os.sys_cpu_pct", "%"),
    ("accounting.unattributed_pct", "%"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn producers(t: &Trial) -> impl Iterator<Item = &RankLog> {
    t.logs.iter().filter(|l| l.producer)
}

fn consumers(t: &Trial) -> impl Iterator<Item = &RankLog> {
    t.logs.iter().filter(|l| !l.producer)
}

/// Steps every rank completed (all of them, unless a consumer lost some).
fn common_steps(t: &Trial) -> usize {
    t.logs.iter().map(RankLog::steps).min().unwrap_or(0)
}

/// Per step: earliest producer entering `file_close` → latest consumer
/// returning from its last read. All ranks share one process clock.
fn exchange_ms(t: &Trial) -> Vec<f64> {
    (0..common_steps(t))
        .map(|k| {
            let enter = producers(t).map(|l| l.mark(k, P_WRITTEN)).min().expect("a producer");
            let done = consumers(t).map(|l| l.mark(k, C_READ)).max().expect("a consumer");
            ms(done.saturating_sub(enter))
        })
        .collect()
}

/// Median over steps of the exchange time.
pub fn trial_e2e_exchange(t: &Trial) -> f64 {
    median(&exchange_ms(t))
}

/// Start barrier → last rank leaves its step loop.
fn makespan_s(t: &Trial) -> f64 {
    let start = t.logs.iter().map(|l| l.start_ns).min().expect("ranks");
    let end = t.logs.iter().map(|l| l.end_ns).max().expect("ranks");
    (end - start) as f64 * 1e-9
}

/// The end-to-end metrics of one trial, in [`TRIAL_E2E`] order, then
/// [`EXCHANGE_P95`].
pub fn trial_e2e(w: &Workload, t: &Trial) -> Vec<f64> {
    let steps = t.steps as f64;
    let exchange = exchange_ms(t);
    let makespan = makespan_s(t);
    // Time taken from the simulation: inside `file_close`, plus `publish`
    // when streaming.
    let stall: Vec<f64> = producers(t)
        .flat_map(|l| (0..l.steps()).map(|k| ms(l.mark(k, P_PUBLISHED) - l.mark(k, P_WRITTEN))))
        .collect();
    // From the moment a step is announced — `publish` returning when
    // streaming, the producer entering `file_close` otherwise — to the
    // slowest consumer holding its bytes.
    let announced = if w.stream { P_PUBLISHED } else { P_WRITTEN };
    let lag: Vec<f64> = (0..common_steps(t))
        .map(|k| {
            let at = producers(t).map(|l| l.mark(k, announced)).min().expect("a producer");
            let done = consumers(t).map(|l| l.mark(k, C_READ)).max().expect("a consumer");
            (done as f64 - at as f64) * 1e-6
        })
        .collect();
    vec![
        median(&exchange),
        makespan,
        t.delivered_bytes() as f64 / GIB / makespan,
        steps / makespan,
        median(&stall),
        median(&lag),
        (t.after.cpu_s() - t.before.cpu_s()) * 1e3 / steps,
        percentile(&exchange, 0.95),
    ]
}

/// One span the harness recorded around a call it made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub step: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the exported list (`None` for the
    /// per-rank step spans themselves).
    pub parent: Option<usize>,
}

/// Every harness span of a trial: one `step` span per rank and step,
/// and under it one span per call the harness made (zero-length spans —
/// streaming calls of a non-streaming workload — are left out).
pub fn spans(t: &Trial) -> Vec<Span> {
    let mut out = Vec::new();
    for l in &t.logs {
        for k in 0..l.steps() {
            let parent = out.len();
            let end = if k + 1 < l.steps() { l.mark(k + 1, 0) } else { l.end_ns };
            out.push(Span {
                name: "step",
                rank: l.world_rank,
                step: k,
                start_ns: l.mark(k, 0),
                end_ns: end,
                parent: None,
            });
            for (i, name) in l.span_names().iter().enumerate() {
                let (start_ns, end_ns) = (l.mark(k, i), l.mark(k, i + 1));
                if end_ns > start_ns {
                    out.push(Span {
                        name,
                        rank: l.world_rank,
                        step: k,
                        start_ns,
                        end_ns,
                        parent: Some(parent),
                    });
                }
            }
        }
    }
    out
}

/// Step wall minus the harness spans under it, as a share of step wall,
/// for the rank where that share is largest.
fn unattributed_pct(spans: &[Span]) -> f64 {
    let mut wall: BTreeMap<usize, u64> = BTreeMap::new();
    let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        let sum = if s.parent.is_none() { &mut wall } else { &mut covered };
        *sum.entry(s.rank).or_default() += s.end_ns - s.start_ns;
    }
    wall.iter()
        .map(|(rank, &w)| {
            let c = covered.get(rank).copied().unwrap_or(0);
            100.0 * w.saturating_sub(c) as f64 / w.max(1) as f64
        })
        .fold(0.0, f64::max)
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| ms(s.end_ns - s.start_ns)).collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median step period of a rank's last decile of steps over that of its
/// first decile, worst rank: how much a step costs more once a producer
/// has served many files.
fn step_cost_drift(t: &Trial) -> f64 {
    t.logs
        .iter()
        .filter_map(|l| {
            let begin = if l.producer { P_BEGIN } else { C_BEGIN };
            let periods: Vec<f64> =
                (1..l.steps()).map(|k| ms(l.mark(k, begin) - l.mark(k - 1, begin))).collect();
            let decile = periods.len() / 10;
            (decile > 0)
                .then(|| median(&periods[periods.len() - decile..]) / median(&periods[..decile]))
        })
        .fold(0.0, f64::max)
}

/// What the traced pass measured beside a traced trial's rank logs.
pub struct TracedExtras {
    pub report: obsv::Report,
    /// `exchange_ms` of the untraced reference trial run just before.
    pub untraced_exchange_ms: f64,
    /// Heap allocations per step and allocated bytes per delivered byte,
    /// from a trial of its own: the counter's shared atomics would
    /// otherwise be charged to `obsv.overhead_pct`.
    pub alloc_calls_per_step: f64,
    pub alloc_bytes_per_delivered_byte: f64,
}

/// The accounting identities of a traced trial, for the report.
pub struct Accounting {
    /// Mean `lowfive.close` span − (`index` + `serve` per producer step).
    pub close_residue_ms: f64,
    /// Mean `lowfive.read` span − (`redirect` + `fetch` per consumer
    /// step); never negative on a sound profile.
    pub read_residue_ms: f64,
    pub unattributed_pct: f64,
}

/// The per-layer metrics of a traced trial, in [`TRACED`] order.
pub fn traced(t: &Trial, x: &TracedExtras) -> (Vec<f64>, Accounting) {
    let spans = spans(t);
    let steps = t.steps as f64;
    let delivered = t.delivered_bytes().max(1) as f64;
    let per_step = |role_producer: bool, f: fn(&RankLog) -> f64| {
        let ranks: Vec<&RankLog> = t.logs.iter().filter(|l| l.producer == role_producer).collect();
        ranks.iter().map(|l| f(l)).sum::<f64>() * 1e3 / (steps * ranks.len() as f64)
    };
    let index_ms = per_step(true, |l| l.profile.index_seconds);
    let serve_ms = per_step(true, |l| l.profile.serve_seconds);
    let redirect_ms = per_step(false, |l| l.profile.redirect_seconds);
    let fetch_ms = per_step(false, |l| l.profile.fetch_seconds);
    let served = |f: fn(&RankLog) -> u64| producers(t).map(f).sum::<u64>() as f64 / steps;
    let close = span_ms(&spans, "lowfive.close");
    let read = span_ms(&spans, "lowfive.read");
    let unattributed = unattributed_pct(&spans);
    let cpu = t.after.cpu_s() - t.before.cpu_s();
    let hits = x.report.counter(obsv::Ctr::FetchCacheHits) as f64;
    let misses = x.report.counter(obsv::Ctr::FetchCacheMisses) as f64;
    let values = vec![
        median_or_zero(&span_ms(&spans, "lowfive.create_write")),
        median_or_zero(&close),
        median_or_zero(&span_ms(&spans, "lowfive.open")),
        median_or_zero(&read),
        median_or_zero(&span_ms(&spans, "lowfive.consumer_close")),
        index_ms,
        serve_ms,
        redirect_ms,
        fetch_ms,
        served(|l| l.profile.intersect_requests),
        served(|l| l.profile.data_requests),
        step_cost_drift(t),
        median_or_zero(&span_ms(&spans, "lowfive.stream.publish")) * 1e3,
        median_or_zero(&span_ms(&spans, "lowfive.stream.next_step")) * 1e3,
        t.messages as f64 / steps,
        t.wire_bytes as f64 / delivered,
        100.0 * (trial_e2e_exchange(t) - x.untraced_exchange_ms) / x.untraced_exchange_ms,
        x.report.counter(obsv::Ctr::BytesCopied) as f64 / delivered,
        100.0 * hits / (hits + misses).max(1.0),
        x.report.dropped() as f64,
        x.alloc_calls_per_step,
        x.alloc_bytes_per_delivered_byte,
        (t.after.ctx_switches - t.before.ctx_switches) as f64 / steps,
        100.0 * (t.after.sys_s - t.before.sys_s) / cpu.max(1e-9),
        unattributed,
    ];
    let accounting = Accounting {
        close_residue_ms: mean(&close) - (index_ms + serve_ms),
        read_residue_ms: mean(&read) - (redirect_ms + fetch_ms),
        unattributed_pct: unattributed,
    };
    (values, accounting)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, rank, step: 0, start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn unattributed_is_the_worst_ranks_uncovered_share() {
        let spans = [
            span("step", 0, 0, 100, None),
            span("lowfive.close", 0, 0, 95, Some(0)),
            span("step", 1, 0, 200, None),
            span("lowfive.open", 1, 0, 100, Some(2)),
            span("lowfive.read", 1, 100, 160, Some(2)),
        ];
        assert_eq!(unattributed_pct(&spans), 20.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = TRIAL_E2E
            .iter()
            .chain([&EXCHANGE_P95, &SETUP, &PEAK_RSS])
            .chain(&TRACED)
            .map(|n| n.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
