//! The machine-readable result: what a child process prints, what `all`
//! writes to `results/latest.json`, and what `compare` reads back.

use obsv::json::{self, Value};

use crate::stats::Summary;

/// One named metric with every sample taken of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(named: (&str, &str), samples: Vec<f64>) -> Metric {
        Metric { name: named.0.to_string(), unit: named.1.to_string(), samples }
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    fn to_json(&self) -> Value {
        json::obj(vec![
            ("name", json::s(&self.name)),
            ("unit", json::s(&self.unit)),
            ("samples", Value::Arr(self.samples.iter().map(|&v| json::num(v)).collect())),
        ])
    }

    fn from_json(v: &Value) -> Result<Metric, String> {
        let samples = field(v, "samples")?
            .as_arr()
            .ok_or("samples is not an array")?
            .iter()
            .map(|s| s.as_f64().ok_or_else(|| "sample is not a number".to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(Metric { name: text(v, "name")?, unit: text(v, "unit")?, samples })
    }
}

/// Which pass of the benchmark a [`RunResult`] came from.
pub const PASS_E2E: &str = "end_to_end";
pub const PASS_TRACED: &str = "traced";
pub const PASS_LAYERS: &str = "layers";

/// What one child process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub pass: String,
    /// Workload name (`"-"` for the layer pass).
    pub workload: String,
    pub seed: u64,
    /// Steps per trial and measured trials.
    pub steps: u64,
    pub trials: u64,
    /// Reads attempted in measured trials, and those that erred or
    /// returned wrong bytes.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Checks of the harness's own that did not hold.
    pub errors: Vec<String>,
}

impl RunResult {
    /// A result that has measured nothing yet.
    pub fn empty(pass: &str, workload: &str, seed: u64, steps: usize) -> RunResult {
        RunResult {
            pass: pass.to_string(),
            workload: workload.to_string(),
            seed,
            steps: steps as u64,
            trials: 0,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("pass", json::s(&self.pass)),
            ("workload", json::s(&self.workload)),
            ("seed", json::int(self.seed)),
            ("steps", json::int(self.steps)),
            ("trials", json::int(self.trials)),
            ("attempted", json::int(self.attempted)),
            ("failed", json::int(self.failed)),
            ("metrics", Value::Arr(self.metrics.iter().map(Metric::to_json).collect())),
            ("errors", Value::Arr(self.errors.iter().map(|e| json::s(e)).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let list = |key: &str| field(v, key)?.as_arr().ok_or(format!("{key} is not an array"));
        Ok(RunResult {
            pass: text(v, "pass")?,
            workload: text(v, "workload")?,
            seed: whole(v, "seed")?,
            steps: whole(v, "steps")?,
            trials: whole(v, "trials")?,
            attempted: whole(v, "attempted")?,
            failed: whole(v, "failed")?,
            metrics: list("metrics")?.iter().map(Metric::from_json).collect::<Result<_, _>>()?,
            errors: list("errors")?
                .iter()
                .map(|e| e.as_str().map(str::to_string).ok_or("error is not a string".to_string()))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Everything one `lfbench all` set measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub seed: u64,
    pub quick: bool,
    /// `std::thread::available_parallelism` of the machine that ran it:
    /// every number here depends on it.
    pub cores: u64,
    pub runs: Vec<RunResult>,
}

impl Doc {
    pub fn run(&self, pass: &str, workload: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.pass == pass && r.workload == workload)
    }

    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("schema", json::s("lfbench-1")),
            ("seed", json::int(self.seed)),
            ("quick", Value::Bool(self.quick)),
            ("cores", json::int(self.cores)),
            ("claim", Value::Null),
            ("runs", Value::Arr(self.runs.iter().map(RunResult::to_json).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Doc, String> {
        Ok(Doc {
            seed: whole(v, "seed")?,
            quick: matches!(field(v, "quick")?, Value::Bool(true)),
            cores: whole(v, "cores")?,
            runs: field(v, "runs")?
                .as_arr()
                .ok_or("runs is not an array")?
                .iter()
                .map(RunResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("missing field {key}"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?.as_str().ok_or(format!("{key} is not a string"))?.to_string())
}

fn whole(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64().ok_or(format!("{key} is not a whole number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Doc {
        let run = RunResult {
            pass: PASS_E2E.into(),
            workload: "bulk_shallow".into(),
            seed: 7,
            steps: 600,
            trials: 5,
            attempted: 6000,
            failed: 0,
            metrics: vec![
                Metric::new(("exchange_ms", "ms"), vec![2.5, 2.625, 2.75]),
                Metric::new(("setup_s", "s"), vec![0.8125]),
            ],
            errors: vec!["a \"quoted\" complaint".into()],
        };
        Doc { seed: 7, quick: false, cores: 2, runs: vec![run] }
    }

    #[test]
    fn result_json_round_trips() {
        let doc = sample_doc();
        let text = doc.to_json().to_json();
        let back = Doc::from_json(&json::parse(&text).expect("valid JSON")).expect("valid doc");
        assert_eq!(back, doc);
        assert!(text.contains("\"claim\":null"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_the_field_name() {
        let err = Doc::from_json(&json::parse("{\"seed\":1}").unwrap()).unwrap_err();
        assert!(err.contains("quick"), "{err}");
        let err = RunResult::from_json(&json::parse("{\"pass\":3}").unwrap()).unwrap_err();
        assert!(err.contains("pass"), "{err}");
    }
}
