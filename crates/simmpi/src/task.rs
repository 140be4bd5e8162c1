//! Task worlds: multiple workflow tasks (producer, consumer, staging, …)
//! sharing one rank space.
//!
//! An in situ workflow in the paper is "a collection of programs executing
//! concurrently"; each *task* is an MPI program with its own communicator,
//! and cross-task transport (LowFive, DataSpaces, …) runs over a shared
//! world. [`TaskWorld::run`] reproduces that layout: it partitions `N`
//! world ranks into contiguous tasks per the given [`TaskSpec`]s, gives
//! every rank a task-local communicator plus the world communicator, and
//! exposes rank translation between the two.
//!
//! Every other way to run a task world goes through
//! [`TaskWorld::builder`]: it wraps a [`WorldBuilder`] for the tasks'
//! ranks and forwards its setters under their own names, e.g.
//! `TaskWorld::builder(&specs).observe(reg).fault_plan(plan).run_chaos(f)`.
//! `run` returns a [`RunOutput`] and propagates a rank's panic;
//! `run_chaos` returns a [`ChaosOutput`] that records deaths instead.

use crate::comm::Comm;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::transport::TransportKind;
use crate::world::{ChaosOutput, RunOutput, World, WorldBuilder};

/// One task's name and process count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Human-readable task name (e.g. `"producer"`).
    pub name: String,
    /// Number of ranks allocated to the task.
    pub procs: usize,
}

impl TaskSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, procs: usize) -> Self {
        TaskSpec { name: name.into(), procs }
    }
}

/// A rank's view of a task world.
#[derive(Debug, Clone)]
pub struct TaskComm {
    /// Index of this rank's task in the spec list.
    pub task_id: usize,
    /// Name of this rank's task.
    pub task_name: String,
    /// Communicator over this task's ranks only.
    pub local: Comm,
    /// Communicator over all ranks of all tasks.
    pub world: Comm,
    /// Starting world rank of each task (same order as the specs), plus a
    /// final entry equal to the world size.
    pub task_offsets: Vec<usize>,
}

impl TaskComm {
    /// World rank of `local_rank` within task `task_id`.
    pub fn world_rank_of(&self, task_id: usize, local_rank: usize) -> usize {
        let base = self.task_offsets[task_id];
        let end = self.task_offsets[task_id + 1];
        assert!(base + local_rank < end, "local rank {local_rank} out of range for task {task_id}");
        base + local_rank
    }

    /// Number of ranks in task `task_id`.
    pub fn task_size(&self, task_id: usize) -> usize {
        self.task_offsets[task_id + 1] - self.task_offsets[task_id]
    }

    /// Which task owns `world_rank`.
    pub fn task_of_world_rank(&self, world_rank: usize) -> usize {
        task_of(&self.task_offsets, world_rank)
    }

    /// Number of tasks in the world.
    pub fn num_tasks(&self) -> usize {
        self.task_offsets.len() - 1
    }
}

/// Runner that lays tasks out over a single world.
pub struct TaskWorld;

impl TaskWorld {
    /// Run all tasks; each rank executes `f` with its [`TaskComm`].
    /// Results are returned in world-rank order.
    pub fn run<R, F>(specs: &[TaskSpec], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TaskComm) -> R + Send + Sync,
    {
        Self::builder(specs).run(f).results
    }

    /// Start configuring a task world over `specs` (cost model,
    /// observability, transport, fault plan).
    pub fn builder(specs: &[TaskSpec]) -> TaskWorldBuilder<'_> {
        let offsets = layout(specs);
        let world = World::builder(offsets[specs.len()]);
        TaskWorldBuilder { specs, offsets, world }
    }

    /// [`TaskWorld::builder`] with these options, then `run`. Kept only
    /// because the `lfbench` harness calls it (`benchmark/src/workloads.rs`),
    /// which changes only together with its contract (`BENCHMARK.json`);
    /// it goes once such a change moves that call onto the builder.
    /// Nothing else may call it.
    pub fn run_observed_on<R, F>(
        specs: &[TaskSpec],
        cost: Option<CostModel>,
        observe: Option<&obsv::Registry>,
        transport: TransportKind,
        f: F,
    ) -> RunOutput<R>
    where
        R: Send,
        F: Fn(TaskComm) -> R + Send + Sync,
    {
        let b = Self::builder(specs).transport(transport);
        let b = if let Some(cm) = cost { b.cost_model(cm) } else { b };
        if let Some(reg) = observe { b.observe(reg.clone()) } else { b }.run(f)
    }
}

/// Configures a task world before running it: a [`WorldBuilder`] over
/// the tasks' ranks. The setters are [`WorldBuilder`]'s own.
pub struct TaskWorldBuilder<'a> {
    specs: &'a [TaskSpec],
    offsets: Vec<usize>,
    world: WorldBuilder,
}

impl TaskWorldBuilder<'_> {
    /// See [`WorldBuilder::cost_model`].
    pub fn cost_model(self, cm: CostModel) -> Self {
        Self { world: self.world.cost_model(cm), ..self }
    }

    /// See [`WorldBuilder::observe`] (one recorder lane per world rank).
    pub fn observe(self, registry: obsv::Registry) -> Self {
        Self { world: self.world.observe(registry), ..self }
    }

    /// See [`WorldBuilder::transport`].
    pub fn transport(self, kind: TransportKind) -> Self {
        Self { world: self.world.transport(kind), ..self }
    }

    /// See [`WorldBuilder::fault_plan`]; run it with
    /// [`TaskWorldBuilder::run_chaos`].
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        Self { world: self.world.fault_plan(plan), ..self }
    }

    /// Run all tasks (see [`WorldBuilder::run`]); results are in
    /// world-rank order.
    pub fn run<R, F>(self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(TaskComm) -> R + Send + Sync,
    {
        let Self { specs, offsets, world } = self;
        world.run(|comm| dispatch(specs, &offsets, comm, &f))
    }

    /// Run all tasks surviving rank deaths (see
    /// [`WorldBuilder::run_chaos`]).
    pub fn run_chaos<R, F>(self, f: F) -> ChaosOutput<R>
    where
        R: Send,
        F: Fn(TaskComm) -> R + Send + Sync,
    {
        let Self { specs, offsets, world } = self;
        world.run_chaos(|comm| dispatch(specs, &offsets, comm, &f))
    }
}

/// Task offsets for a spec list: each task's first world rank, plus a
/// final entry equal to the world size.
fn layout(specs: &[TaskSpec]) -> Vec<usize> {
    assert!(!specs.is_empty(), "need at least one task");
    assert!(specs.iter().all(|s| s.procs > 0), "every task needs at least one rank");
    let mut offsets = Vec::with_capacity(specs.len() + 1);
    let mut acc = 0usize;
    for s in specs {
        offsets.push(acc);
        acc += s.procs;
    }
    offsets.push(acc);
    offsets
}

/// Which task owns `rank`, given strictly increasing task `offsets`.
fn task_of(offsets: &[usize], rank: usize) -> usize {
    debug_assert!(rank < *offsets.last().expect("nonempty"));
    offsets.partition_point(|&o| o <= rank) - 1
}

/// Build one rank's [`TaskComm`] and run the task body.
fn dispatch<R, F>(specs: &[TaskSpec], offsets: &[usize], world: Comm, f: &F) -> R
where
    F: Fn(TaskComm) -> R,
{
    let rank = world.rank();
    let task_id = task_of(offsets, rank);
    let local = world.split(task_id, rank);
    f(TaskComm {
        task_id,
        task_name: specs[task_id].name.clone(),
        local,
        world,
        task_offsets: offsets.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::ANY_SOURCE;

    fn specs() -> Vec<TaskSpec> {
        vec![TaskSpec::new("producer", 3), TaskSpec::new("consumer", 2)]
    }

    #[test]
    fn layout_and_translation() {
        TaskWorld::run(&specs(), |tc| {
            assert_eq!(tc.task_offsets, vec![0, 3, 5]);
            assert_eq!(tc.num_tasks(), 2);
            assert_eq!(tc.task_size(0), 3);
            assert_eq!(tc.task_size(1), 2);
            if tc.world.rank() < 3 {
                assert_eq!(tc.task_id, 0);
                assert_eq!(tc.task_name, "producer");
                assert_eq!(tc.local.size(), 3);
                assert_eq!(tc.local.rank(), tc.world.rank());
            } else {
                assert_eq!(tc.task_id, 1);
                assert_eq!(tc.local.size(), 2);
                assert_eq!(tc.local.rank(), tc.world.rank() - 3);
            }
            assert_eq!(tc.world_rank_of(1, 0), 3);
            assert_eq!(tc.task_of_world_rank(0), 0);
            assert_eq!(tc.task_of_world_rank(2), 0);
            assert_eq!(tc.task_of_world_rank(3), 1);
            assert_eq!(tc.task_of_world_rank(4), 1);
        });
    }

    #[test]
    fn cross_task_messaging() {
        TaskWorld::run(&specs(), |tc| {
            if tc.task_id == 0 {
                // Every producer rank sends its world rank to consumer 0.
                let dest = tc.world_rank_of(1, 0);
                tc.world.send_u64s(dest, 9, &[tc.world.rank() as u64]);
            } else if tc.local.rank() == 0 {
                let mut got: Vec<u64> =
                    (0..3).map(|_| tc.world.recv_u64s(ANY_SOURCE, 9.into()).1[0]).collect();
                got.sort_unstable();
                assert_eq!(got, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn local_collectives_are_task_scoped() {
        TaskWorld::run(&specs(), |tc| {
            let sum = tc.local.allreduce_one::<u64, _>(1, |a, b| a + b);
            assert_eq!(sum, tc.task_size(tc.task_id) as u64);
        });
    }

    #[test]
    fn three_tasks() {
        let specs =
            vec![TaskSpec::new("sim", 4), TaskSpec::new("staging", 2), TaskSpec::new("viz", 1)];
        let ids = TaskWorld::run(&specs, |tc| tc.task_id);
        assert_eq!(ids, vec![0, 0, 0, 0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_task_rejected() {
        TaskWorld::run(&[TaskSpec::new("x", 0)], |_tc| ());
    }
}
