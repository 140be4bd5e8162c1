//! Two result documents side by side, judged against the bounds that
//! `BENCHMARK.json` fixes.

use obsv::json::Value;

use crate::result::{Doc, PASS_E2E};
use crate::stats::Summary;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str);
            Ok(Bound {
                name: text("name").ok_or("end_to_end entry without a name")?.to_string(),
                lower_is_better: match text("better") {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("end_to_end better is {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64).ok_or("entry without a bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate `b` against baseline `a`.
pub fn verdict(a: &Summary, b: &Summary, rule: &Bound) -> Verdict {
    if a.spread().max(b.spread()) > rule.bound {
        return Verdict::Unresolved;
    }
    let worse_by = if rule.lower_is_better { b.median - a.median } else { a.median - b.median };
    if worse_by > rule.bound * a.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One row per (workload, end-to-end metric) present in both documents,
/// plus one `failed_ops_pct` row per workload, whose bound is absolute
/// zero.
pub fn compare(a: &Doc, b: &Doc, rules: &[Bound]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a.runs.iter().filter(|r| r.pass == PASS_E2E) {
        let Some(rb) = b.run(PASS_E2E, &ra.workload) else { continue };
        for rule in rules {
            let (Some(ma), Some(mb)) = (ra.metric(&rule.name), rb.metric(&rule.name)) else {
                continue;
            };
            let (sa, sb) = (ma.summary(), mb.summary());
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: rule.name.clone(),
                unit: ma.unit.clone(),
                verdict: verdict(&sa, &sb, rule),
                a: sa,
                b: sb,
                bound: rule.bound,
            });
        }
        let (fa, fb) = (Summary::of(&[ra.failed_ops_pct()]), Summary::of(&[rb.failed_ops_pct()]));
        rows.push(Row {
            workload: ra.workload.clone(),
            metric: "failed_ops_pct".into(),
            unit: "%".into(),
            verdict: if fb.median > 0.0 { Verdict::Regressed } else { Verdict::Ok },
            a: fa,
            b: fb,
            bound: 0.0,
        });
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<18} {:<18} {:<6} {:>11} {:>23} {:>11} {:>23} {:>6}  verdict",
        "workload", "metric", "unit", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<18} {:<6} {:>11.4} {:>11.4}..{:<10.4} {:>11.4} {:>11.4}..{:<10.4} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.unit,
            r.a.median,
            r.a.q1,
            r.a.q3,
            r.b.median,
            r.b.q1,
            r.b.q3,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Metric, RunResult};

    fn rule(lower_is_better: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better, bound: 0.10 }
    }

    fn tight(center: f64) -> Summary {
        Summary::of(&[center * 0.99, center, center * 1.01])
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let base = tight(10.0);
        assert_eq!(verdict(&base, &tight(10.5), &rule(true)), Verdict::Ok);
        assert_eq!(verdict(&base, &tight(11.5), &rule(true)), Verdict::Regressed);
        assert_eq!(verdict(&base, &tight(5.0), &rule(true)), Verdict::Ok, "faster is fine");
        assert_eq!(verdict(&base, &tight(8.5), &rule(false)), Verdict::Regressed);
        assert_eq!(verdict(&base, &tight(20.0), &rule(false)), Verdict::Ok);
        let noisy = Summary::of(&[8.0, 10.0, 12.0]);
        assert_eq!(verdict(&base, &noisy, &rule(true)), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &tight(30.0), &rule(true)), Verdict::Unresolved);
    }

    fn doc(exchange: &[f64], failed: u64) -> Doc {
        Doc {
            seed: 1,
            quick: false,
            cores: 2,
            runs: vec![RunResult {
                pass: PASS_E2E.into(),
                workload: "w".into(),
                seed: 1,
                steps: 10,
                trials: 3,
                attempted: 100,
                failed,
                metrics: vec![Metric::new(("exchange_ms", "ms"), exchange.to_vec())],
                errors: vec![],
            }],
        }
    }

    #[test]
    fn rows_cover_shared_metrics_and_failed_reads_always_regress() {
        let rules = bounds_of(
            &obsv::json::parse(
                r#"{"end_to_end":[{"name":"exchange_ms","unit":"ms","better":"lower","bound":0.1},
                    {"name":"absent","unit":"s","better":"higher","bound":0.2}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        let rows = compare(&doc(&[1.0, 1.0, 1.0], 0), &doc(&[1.3, 1.3, 1.3], 1), &rules);
        let verdicts: Vec<_> = rows.iter().map(|r| (r.metric.as_str(), r.verdict)).collect();
        assert_eq!(
            verdicts,
            [("exchange_ms", Verdict::Regressed), ("failed_ops_pct", Verdict::Regressed)]
        );
        let same = compare(&doc(&[1.0, 1.0, 1.0], 0), &doc(&[1.05, 1.05, 1.05], 0), &rules);
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
    }
}
