//! Exporters: Chrome `trace_event` JSON and flat metrics JSON.
//!
//! The Chrome trace uses `"X"` (complete) events with microsecond
//! `ts`/`dur`, one `pid` for the whole run and one `tid` per lane, plus
//! `"M"` metadata events naming each track `rank N`. Exact nanosecond
//! timestamps ride along in `args` so validators need no float epsilon.
//! The metrics document is a stable, flat schema the bench harness parses
//! next to its CSV results.

use crate::json::{int, num, obj, s, Value};
use crate::ring::{Event, EventKind};
use crate::{Ctr, Hist, Phase, Report};

/// Schema tag stamped into every metrics document.
pub const METRICS_SCHEMA: &str = "lowfive-obsv-metrics-v1";

/// A paired span reconstructed from a lane's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// The transport phase the span belongs to.
    pub phase: Phase,
    /// Correlation id carried over from the span's events.
    pub tag: u64,
    /// Span open time, nanoseconds since the clock origin.
    pub start_ns: u64,
    /// Span close time, nanoseconds since the clock origin.
    pub end_ns: u64,
}

/// Pair enter/exit events from one lane, oldest first.
///
/// RAII guards make spans strictly nested per lane, so a stack suffices.
/// Ring overflow drops only the *oldest* events, which leaves two kinds of
/// damage, both handled conservatively: an `Exit` with no surviving
/// `Enter` is discarded, and a span still open at snapshot time is closed
/// at the lane's last event timestamp.
pub(crate) fn pair_spans(events: &[Event]) -> Vec<SpanRec> {
    let mut out = Vec::new();
    let mut stack: Vec<(Phase, u64, u64)> = Vec::new();
    let last_t = events.last().map(|e| e.t_ns).unwrap_or(0);
    for e in events {
        match e.kind {
            EventKind::Enter => stack.push((e.phase, e.tag, e.t_ns)),
            EventKind::Exit => match stack.last() {
                Some(&(phase, tag, start_ns)) if phase == e.phase && tag == e.tag => {
                    stack.pop();
                    out.push(SpanRec { phase, tag, start_ns, end_ns: e.t_ns });
                }
                // Matching enter was dropped by ring overflow.
                _ => {}
            },
        }
    }
    for (phase, tag, start_ns) in stack {
        out.push(SpanRec { phase, tag, start_ns, end_ns: last_t.max(start_ns) });
    }
    out.sort_by_key(|sp| (sp.start_ns, std::cmp::Reverse(sp.end_ns)));
    out
}

/// Track id for a lane: ranks stay readable in Perfetto's thread list and
/// helper lanes sit next to their rank.
fn lane_tid(rank: usize, lane: usize) -> u64 {
    (rank as u64) * 256 + (lane as u64 % 256)
}

impl Report {
    /// Chrome `trace_event` JSON, loadable in `chrome://tracing`/Perfetto.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        events.push(obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", int(0)),
            ("args", obj(vec![("name", s("lowfive"))])),
        ]));
        for lane in &self.lanes {
            let tid = lane_tid(lane.rank, lane.lane);
            let label = if lane.lane == 0 {
                format!("rank {}", lane.rank)
            } else {
                format!("rank {} aux{}", lane.rank, lane.lane)
            };
            events.push(obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", int(0)),
                ("tid", int(tid)),
                (
                    "args",
                    obj(vec![
                        ("name", s(&label)),
                        ("rank", int(lane.rank as u64)),
                        ("lane", int(lane.lane as u64)),
                    ]),
                ),
            ]));
            for sp in pair_spans(&lane.events) {
                let dur_ns = sp.end_ns - sp.start_ns;
                events.push(obj(vec![
                    ("name", s(sp.phase.name())),
                    ("cat", s("obsv")),
                    ("ph", s("X")),
                    ("pid", int(0)),
                    ("tid", int(tid)),
                    ("ts", num(sp.start_ns as f64 / 1000.0)),
                    ("dur", num(dur_ns as f64 / 1000.0)),
                    (
                        "args",
                        obj(vec![
                            ("tag", int(sp.tag)),
                            ("ts_ns", int(sp.start_ns)),
                            ("dur_ns", int(dur_ns)),
                        ]),
                    ),
                ]));
            }
        }
        obj(vec![("displayTimeUnit", s("ms")), ("traceEvents", Value::Arr(events))]).to_json()
    }

    /// Flat metrics JSON: counters, histograms, per-phase seconds, and a
    /// per-rank breakdown.
    pub fn metrics_json(&self) -> String {
        let counters = Value::Obj(
            Ctr::ALL.iter().map(|&c| (c.name().to_string(), int(self.counter(c)))).collect(),
        );

        let histograms = Value::Obj(
            Hist::ALL
                .iter()
                .map(|&h| {
                    let data = self.hist(h);
                    let buckets: Vec<Value> = data
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, count)| **count > 0)
                        .map(|(i, count)| {
                            obj(vec![
                                ("lo", int(crate::bucket_lo(i))),
                                ("hi", int(crate::bucket_hi(i))),
                                ("count", int(*count)),
                            ])
                        })
                        .collect();
                    (
                        h.name().to_string(),
                        obj(vec![
                            ("count", int(data.count)),
                            ("sum", int(data.sum)),
                            ("mean", num(data.mean())),
                            ("buckets", Value::Arr(buckets)),
                        ]),
                    )
                })
                .collect(),
        );

        let phases = phase_obj(&self.phase_totals());

        let ranks: Vec<Value> = self
            .ranks()
            .into_iter()
            .map(|rank| {
                let sub = Report {
                    lanes: self.lanes.iter().filter(|l| l.rank == rank).cloned().collect(),
                };
                obj(vec![
                    ("rank", int(rank as u64)),
                    ("lanes", int(sub.lanes.len() as u64)),
                    ("events", int(sub.lanes.iter().map(|l| l.events.len() as u64).sum::<u64>())),
                    ("dropped", int(sub.dropped())),
                    ("phases", phase_obj(&sub.phase_totals())),
                ])
            })
            .collect();

        obj(vec![
            ("schema", s(METRICS_SCHEMA)),
            ("dropped_events", int(self.dropped())),
            ("counters", counters),
            ("histograms", histograms),
            ("phases", phases),
            ("ranks", Value::Arr(ranks)),
        ])
        .to_json()
    }
}

fn phase_obj(totals: &[crate::PhaseTotal]) -> Value {
    Value::Obj(
        totals
            .iter()
            .filter(|t| t.spans > 0)
            .map(|t| {
                (
                    t.phase.name().to_string(),
                    obj(vec![("spans", int(t.spans)), ("seconds", num(t.seconds))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, json, span, span_tagged, Registry};

    #[test]
    fn pairing_handles_nesting_and_truncation() {
        let mk = |kind, phase, tag, t_ns| Event { kind, phase, tag, t_ns };
        // X with dropped enter, then a full nested pair, then an unclosed
        // enter.
        let events = [
            mk(EventKind::Exit, Phase::Serve, 0, 5),
            mk(EventKind::Enter, Phase::Query, 1, 10),
            mk(EventKind::Enter, Phase::Fetch, 2, 11),
            mk(EventKind::Exit, Phase::Fetch, 2, 15),
            mk(EventKind::Exit, Phase::Query, 1, 20),
            mk(EventKind::Enter, Phase::Index, 3, 25),
        ];
        let spans = pair_spans(&events);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0], SpanRec { phase: Phase::Query, tag: 1, start_ns: 10, end_ns: 20 });
        assert_eq!(spans[1], SpanRec { phase: Phase::Fetch, tag: 2, start_ns: 11, end_ns: 15 });
        // Unclosed enter closed at the lane's last timestamp.
        assert_eq!(spans[2], SpanRec { phase: Phase::Index, tag: 3, start_ns: 25, end_ns: 25 });
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "needs event recording")]
    fn chrome_trace_parses_and_names_ranks() {
        let reg = Registry::new();
        {
            let _g = install(reg.recorder(1));
            let _sp = span_tagged(Phase::RpcCall, 42);
        }
        let text = reg.report().chrome_trace();
        let doc = json::parse(&text).expect("valid json");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
        assert!(events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("args").and_then(|a| a.get("rank")).and_then(Value::as_u64) == Some(1)));
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one span");
        assert_eq!(x.get("name").and_then(Value::as_str), Some("rpc_call"));
        assert_eq!(x.get("args").and_then(|a| a.get("tag")).and_then(Value::as_u64), Some(42));
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "needs event recording")]
    fn metrics_json_has_schema_and_counters() {
        let reg = Registry::new();
        {
            let _g = install(reg.recorder(0));
            crate::counter_add(Ctr::MsgsSent, 3);
            crate::hist_record(Hist::MsgSize, 128);
            let _sp = span(Phase::Index);
        }
        let doc = json::parse(&reg.report().metrics_json()).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(METRICS_SCHEMA));
        let msgs = doc.get("counters").and_then(|c| c.get("msgs_sent")).and_then(Value::as_u64);
        assert_eq!(msgs, Some(3));
        let size = doc.get("histograms").and_then(|h| h.get("msg_size")).expect("msg_size");
        assert_eq!(size.get("sum").and_then(Value::as_u64), Some(128));
        assert!(doc.get("phases").and_then(|p| p.get("index")).is_some());
    }
}
