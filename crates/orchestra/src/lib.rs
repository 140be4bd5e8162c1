//! # orchestra — Henson-style workflow orchestration
//!
//! In the paper's cosmology experiment, "the Python script, which uses
//! Henson to orchestrate this experiment, first creates the
//! DistMetadataVol plugin, to ensure that the data exchange is performed
//! in situ, and then calls Nyx and Reeber … no changes were required
//! neither to Nyx, nor to Reeber."
//!
//! [`Workflow`] is that script: declare tasks (name, rank count, body) and
//! links (producer → consumer with a file pattern); `run` lays the tasks
//! out over one rank space, builds each rank's [`lowfive::DistMetadataVol`]
//! from the link topology, installs it in the thread-scoped VOL registry,
//! and invokes the task body. Task bodies call
//! [`minih5::H5::open_default`] and remain oblivious to whether their
//! "files" hit storage or stream to a peer task — the zero-code-change
//! deployment, reproduced.
//!
//! ```
//! use minih5::{Datatype, Dataspace, H5};
//! use orchestra::Workflow;
//!
//! // Unmodified "simulation" and "analysis" code: plain H5 calls.
//! let mut wf = Workflow::new();
//! wf.task("sim", 2, |tc| {
//!     let h5 = H5::open_default();
//!     let f = h5.create_file("out.h5").unwrap();
//!     let d = f
//!         .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[8]))
//!         .unwrap();
//!     let lo = tc.local.rank() as u64 * 4;
//!     d.write_selection(
//!         &minih5::Selection::block(&[lo], &[4]),
//!         &(lo..lo + 4).collect::<Vec<u64>>(),
//!     )
//!     .unwrap();
//!     f.close().unwrap();
//! });
//! wf.task("viz", 1, |_tc| {
//!     let h5 = H5::open_default();
//!     let f = h5.open_file("out.h5").unwrap();
//!     let d = f.open_dataset("x").unwrap();
//!     assert_eq!(d.read_all::<u64>().unwrap(), (0..8).collect::<Vec<u64>>());
//!     f.close().unwrap();
//! });
//! wf.link("sim", "viz", "*.h5");
//! wf.run();
//! ```

use std::sync::Arc;

use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::vol::set_thread_vol;
use minih5::Vol;
use simmpi::{TaskComm, TaskSpec, TaskWorld};

/// A boxed task body, as bound to config-declared tasks.
pub type TaskBody = Arc<dyn Fn(&TaskComm) + Send + Sync>;

struct TaskDef {
    name: String,
    procs: usize,
    body: TaskBody,
}

struct LinkDef {
    producer: String,
    consumer: String,
    pattern: String,
}

/// A declarative in situ workflow: tasks plus producer→consumer links.
#[derive(Default)]
pub struct Workflow {
    tasks: Vec<TaskDef>,
    links: Vec<LinkDef>,
    props: LowFiveProps,
    overlap: bool,
    observe: Option<obsv::Registry>,
}

impl Workflow {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a task with `procs` ranks running `body`.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn task(
        &mut self,
        name: &str,
        procs: usize,
        body: impl Fn(&TaskComm) + Send + Sync + 'static,
    ) -> &mut Self {
        assert!(self.tasks.iter().all(|t| t.name != name), "duplicate task name {name:?}");
        self.tasks.push(TaskDef { name: name.to_string(), procs, body: Arc::new(body) });
        self
    }

    /// Declare that files matching `pattern` written by `producer` flow in
    /// situ to `consumer`.
    pub fn link(&mut self, producer: &str, consumer: &str, pattern: &str) -> &mut Self {
        self.links.push(LinkDef {
            producer: producer.to_string(),
            consumer: consumer.to_string(),
            pattern: pattern.to_string(),
        });
        self
    }

    /// Set LowFive transport properties applied to every task's plugin.
    pub fn props(&mut self, props: LowFiveProps) -> &mut Self {
        self.props = props;
        self
    }

    /// Enable overlap mode: producers serve snapshots from a background
    /// thread and keep computing (see
    /// [`lowfive::DistVolBuilder::async_serve`]); the runner drains
    /// outstanding sessions when each task body returns.
    pub fn overlap(&mut self, on: bool) -> &mut Self {
        self.overlap = on;
        self
    }

    /// Record spans, counters, and histograms into `registry` while the
    /// workflow runs: every rank gets a recorder lane, each task body runs
    /// under a [`obsv::Phase::Task`] span tagged with its task id, and the
    /// transport layers below (LowFive, RPC, simmpi) report into the same
    /// lanes. Export the result with [`obsv::Registry::report`] after
    /// [`Workflow::run`] returns.
    pub fn observe(&mut self, registry: obsv::Registry) -> &mut Self {
        self.observe = Some(registry);
        self
    }

    /// Build the workflow wiring from a config file, binding task bodies
    /// by name — the external-wiring style ADIOS uses for its data model.
    ///
    /// Format (order-insensitive, `#` comments):
    ///
    /// ```text
    /// [task sim]
    /// procs = 4
    ///
    /// [task viz]
    /// procs = 1
    ///
    /// [link]
    /// from = sim
    /// to = viz
    /// pattern = *.h5
    /// ```
    ///
    /// # Panics
    /// Panics on malformed config or a task without a bound body.
    pub fn from_config(
        config: &str,
        mut bodies: std::collections::HashMap<String, TaskBody>,
    ) -> Workflow {
        enum Section {
            None,
            Task,
            Link,
        }
        let mut wf = Workflow::new();
        let mut section = Section::None;
        let mut pending_task: Option<(String, Option<usize>)> = None;
        let mut pending_link: Option<(Option<String>, Option<String>, Option<String>)> = None;
        let mut flush_task = |wf: &mut Workflow, t: &mut Option<(String, Option<usize>)>| {
            if let Some((name, procs)) = t.take() {
                let procs = procs.unwrap_or_else(|| panic!("task {name:?} missing `procs`"));
                let body = bodies
                    .remove(&name)
                    .unwrap_or_else(|| panic!("no body bound for task {name:?}"));
                wf.tasks.push(TaskDef { name, procs, body });
            }
        };
        fn flush_link(
            wf: &mut Workflow,
            l: &mut Option<(Option<String>, Option<String>, Option<String>)>,
        ) {
            if let Some((from, to, pattern)) = l.take() {
                wf.links.push(LinkDef {
                    producer: from.expect("link missing `from`"),
                    consumer: to.expect("link missing `to`"),
                    pattern: pattern.expect("link missing `pattern`"),
                });
            }
        }
        for raw in config.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(head) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                flush_task(&mut wf, &mut pending_task);
                flush_link(&mut wf, &mut pending_link);
                if let Some(name) = head.strip_prefix("task ") {
                    section = Section::Task;
                    pending_task = Some((name.trim().to_string(), None));
                } else if head.trim() == "link" {
                    section = Section::Link;
                    pending_link = Some((None, None, None));
                } else {
                    panic!("unknown section {head:?}");
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .unwrap_or_else(|| panic!("malformed line {line:?}"));
            match (&section, key) {
                (Section::Task, "procs") => {
                    let t = pending_task.as_mut().expect("inside a task section");
                    t.1 = Some(
                        value
                            .parse()
                            .unwrap_or_else(|_| panic!("task {}: bad procs {value:?}", t.0)),
                    );
                }
                (Section::Link, "from") => {
                    pending_link.as_mut().expect("inside link").0 = Some(value.to_string())
                }
                (Section::Link, "to") => {
                    pending_link.as_mut().expect("inside link").1 = Some(value.to_string())
                }
                (Section::Link, "pattern") => {
                    pending_link.as_mut().expect("inside link").2 = Some(value.to_string())
                }
                _ => panic!("unexpected key {key:?} in this section"),
            }
        }
        flush_task(&mut wf, &mut pending_task);
        flush_link(&mut wf, &mut pending_link);
        assert!(
            bodies.is_empty(),
            "bodies bound for unknown tasks: {:?}",
            bodies.keys().collect::<Vec<_>>()
        );
        wf
    }

    /// Helper to box a task body for [`Workflow::from_config`].
    pub fn body(f: impl Fn(&TaskComm) + Send + Sync + 'static) -> TaskBody {
        Arc::new(f)
    }

    fn task_index(&self, name: &str) -> usize {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .unwrap_or_else(|| panic!("unknown task {name:?} in link"))
    }

    /// Execute the workflow; returns when every task completes.
    pub fn run(&self) {
        // Validate links before spawning anything.
        for l in &self.links {
            let _ = self.task_index(&l.producer);
            let _ = self.task_index(&l.consumer);
        }
        let specs: Vec<TaskSpec> =
            self.tasks.iter().map(|t| TaskSpec::new(t.name.clone(), t.procs)).collect();
        let world = TaskWorld::builder(&specs);
        let world = if let Some(reg) = &self.observe { world.observe(reg.clone()) } else { world };
        world.run(|tc| {
            // Build this rank's plugin from the link topology.
            let mut builder = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(self.props.clone())
                .async_serve(self.overlap);
            let mut any_link = false;
            for l in &self.links {
                let p = self.task_index(&l.producer);
                let c = self.task_index(&l.consumer);
                let ranks_of = |tid: usize| -> Vec<usize> {
                    (0..tc.task_size(tid)).map(|r| tc.world_rank_of(tid, r)).collect()
                };
                if p == tc.task_id {
                    builder = builder.produce(&l.pattern, ranks_of(c));
                    any_link = true;
                }
                if c == tc.task_id {
                    builder = builder.consume(&l.pattern, ranks_of(p));
                    any_link = true;
                }
            }
            let body = Arc::clone(&self.tasks[tc.task_id].body);
            // The Task span covers the body *and* the drain: overlap-mode
            // serve time a producer spends after its body returns is still
            // that task's work.
            let sp = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
            obsv::counter_add(obsv::Ctr::TasksStarted, 1);
            if any_link || !self.links.is_empty() {
                let dist = builder.build();
                let vol: Arc<dyn Vol> = dist.clone();
                let _guard = set_thread_vol(vol);
                body(&tc);
                // Finish any asynchronous serve sessions before the task
                // exits (no-op in synchronous mode).
                dist.drain();
            } else {
                body(&tc);
            }
            obsv::counter_add(obsv::Ctr::TasksFinished, 1);
            drop(sp);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minih5::{Dataspace, Datatype, Selection, H5};
    use parking_lot::Mutex;

    #[test]
    fn pipeline_of_three_tasks() {
        // sim → filter → sink: filter consumes "raw.h5" and produces
        // "filtered.h5" (a task that is both consumer and producer).
        let mut wf = Workflow::new();
        wf.task("sim", 2, |tc| {
            let h5 = H5::open_default();
            let f = h5.create_file("raw.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
            let lo = tc.local.rank() as u64 * 4;
            d.write_selection(&Selection::block(&[lo], &[4]), &(lo..lo + 4).collect::<Vec<u64>>())
                .unwrap();
            f.close().unwrap();
        });
        wf.task("filter", 1, |_tc| {
            let h5 = H5::open_default();
            let fin = h5.open_file("raw.h5").unwrap();
            let x = fin.open_dataset("x").unwrap().read_all::<u64>().unwrap();
            fin.close().unwrap();
            let fout = h5.create_file("filtered.h5").unwrap();
            let d = fout.create_dataset("x2", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
            let doubled: Vec<u64> = x.iter().map(|v| v * 2).collect();
            d.write_all(&doubled).unwrap();
            fout.close().unwrap();
        });
        wf.task("sink", 1, |_tc| {
            let h5 = H5::open_default();
            let f = h5.open_file("filtered.h5").unwrap();
            let got = f.open_dataset("x2").unwrap().read_all::<u64>().unwrap();
            assert_eq!(got, (0..8).map(|v| v * 2).collect::<Vec<u64>>());
            f.close().unwrap();
        });
        wf.link("sim", "filter", "raw.h5");
        wf.link("filter", "sink", "filtered.h5");
        wf.run();
    }

    #[test]
    fn results_visible_via_shared_state() {
        let sum = Arc::new(Mutex::new(0u64));
        let sum2 = Arc::clone(&sum);
        let mut wf = Workflow::new();
        wf.task("p", 1, |_tc| {
            let h5 = H5::open_default();
            let f = h5.create_file("s.h5").unwrap();
            let d = f.create_dataset("v", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
            d.write_all(&[1u64, 2, 3, 4]).unwrap();
            f.close().unwrap();
        });
        wf.task("c", 1, move |_tc| {
            let h5 = H5::open_default();
            let f = h5.open_file("s.h5").unwrap();
            let v = f.open_dataset("v").unwrap().read_all::<u64>().unwrap();
            *sum2.lock() += v.iter().sum::<u64>();
            f.close().unwrap();
        });
        wf.link("p", "c", "*");
        wf.run();
        assert_eq!(*sum.lock(), 10);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn bad_link_is_rejected() {
        let mut wf = Workflow::new();
        wf.task("only", 1, |_| {});
        wf.link("only", "ghost", "*");
        wf.run();
    }

    #[test]
    #[should_panic(expected = "duplicate task name")]
    fn duplicate_names_rejected() {
        let mut wf = Workflow::new();
        wf.task("t", 1, |_| {});
        wf.task("t", 1, |_| {});
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use minih5::{Dataspace, Datatype, H5};
    use std::collections::HashMap;

    const CONFIG: &str = r#"
# A two-stage workflow declared externally, ADIOS-style.
[task sim]
procs = 2

[task viz]
procs = 1

[link]
from = sim
to = viz
pattern = cfg-*.h5
"#;

    #[test]
    fn config_declared_workflow_runs() {
        let mut bodies: HashMap<String, TaskBody> = HashMap::new();
        bodies.insert(
            "sim".into(),
            Workflow::body(|tc| {
                let h5 = H5::open_default();
                let f = h5.create_file("cfg-1.h5").unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
                let lo = tc.local.rank() as u64 * 2;
                d.write_selection(&minih5::Selection::block(&[lo], &[2]), &[lo, lo + 1]).unwrap();
                f.close().unwrap();
            }),
        );
        bodies.insert(
            "viz".into(),
            Workflow::body(|_tc| {
                let h5 = H5::open_default();
                let f = h5.open_file("cfg-1.h5").unwrap();
                let got = f.open_dataset("x").unwrap().read_all::<u64>().unwrap();
                assert_eq!(got, vec![0, 1, 2, 3]);
                f.close().unwrap();
            }),
        );
        let wf = Workflow::from_config(CONFIG, bodies);
        wf.run();
    }

    #[test]
    #[should_panic(expected = "no body bound")]
    fn config_with_unbound_task_panics() {
        let _ = Workflow::from_config(CONFIG, HashMap::new());
    }

    #[test]
    #[should_panic(expected = "missing `procs`")]
    fn config_task_without_procs_panics() {
        let mut bodies: HashMap<String, TaskBody> = HashMap::new();
        bodies.insert("t".into(), Workflow::body(|_| {}));
        let _ = Workflow::from_config("[task t]\n", bodies);
    }

    #[test]
    fn overlap_mode_through_workflow() {
        let mut wf = Workflow::new();
        wf.overlap(true);
        wf.task("p", 1, |_tc| {
            let h5 = H5::open_default();
            for s in 0..3 {
                let f = h5.create_file(&format!("ov{s}.h5")).unwrap();
                let d = f.create_dataset("x", Datatype::UInt32, Dataspace::simple(&[2])).unwrap();
                d.write_all(&[s as u32, s as u32 + 1]).unwrap();
                f.close().unwrap(); // returns immediately in overlap mode
            }
            // The runner drains outstanding sessions after this body.
        });
        wf.task("c", 1, |_tc| {
            let h5 = H5::open_default();
            for s in 0..3 {
                let f = h5.open_file(&format!("ov{s}.h5")).unwrap();
                let got = f.open_dataset("x").unwrap().read_all::<u32>().unwrap();
                assert_eq!(got, vec![s as u32, s as u32 + 1]);
                f.close().unwrap();
            }
        });
        wf.link("p", "c", "ov*.h5");
        wf.run();
    }
}
