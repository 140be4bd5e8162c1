//! The world: mailboxes, rank threads, and shared run-wide state.

use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::Arc;

use crate::comm::Comm;
use crate::fault::{FaultEvent, FaultPlan, FaultState, PeerDied, RankKilled};
use crate::stats::{StatsSnapshot, TransportStats};
use crate::transport::{make_transport, SocketConfig, Transport, TransportKind};

/// Shared state behind every [`Comm`] of one run.
pub(crate) struct WorldInner {
    /// World rank count.
    pub size: usize,
    /// The delivery backend: owns the per-rank mailboxes and the machinery
    /// (if any) that carries envelopes to them.
    pub transport: Box<dyn Transport>,
    /// Next communicator context id (0 is the world communicator).
    pub next_ctx: AtomicU32,
    pub stats: TransportStats,
    /// Active fault injector, if any.
    pub fault: Option<FaultState>,
    /// Per-world-rank death flags, set when a rank's body panics.
    pub dead: Vec<AtomicBool>,
}

impl WorldInner {
    fn new(size: usize, transport: Box<dyn Transport>, fault: Option<FaultState>) -> Self {
        WorldInner {
            size,
            transport,
            next_ctx: AtomicU32::new(1),
            stats: TransportStats::default(),
            fault,
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Record a rank's death and wake every blocked receiver so waits on
    /// the dead rank can abort.
    fn mark_dead(&self, world_rank: usize) {
        self.dead[world_rank].store(true, std::sync::atomic::Ordering::SeqCst);
        self.transport.wake_all();
    }
}

/// Entry point for running a group of ranks.
///
/// A `World` is not held by user code; [`World::run`] (or
/// [`WorldBuilder::run`]) spawns one scoped thread per rank, passes each a
/// [`Comm`] covering all ranks, and joins them, returning each rank's result
/// in rank order.
pub struct World;

/// Configures a world before running it (fault plan, observability,
/// transport).
pub struct WorldBuilder {
    size: usize,
    fault: Option<FaultPlan>,
    observe: Option<obsv::Registry>,
    transport: TransportKind,
    socket: SocketConfig,
}

/// Results of a completed run plus transport statistics.
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<R>,
    /// Message/byte totals accumulated during the run.
    pub stats: StatsSnapshot,
}

/// How one rank of a chaos run died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankDeath {
    /// World rank that died.
    pub rank: usize,
    /// The death was injected by the fault plan (vs. an ordinary panic or
    /// a cascading death while receiving from a dead peer).
    pub injected: bool,
    /// Human-readable cause.
    pub message: String,
}

/// Results of a [`WorldBuilder::run_chaos`] run, which survives rank
/// deaths instead of propagating them.
pub struct ChaosOutput<R> {
    /// Per-rank return values in world-rank order; `None` for ranks that
    /// died.
    pub results: Vec<Option<R>>,
    /// Every rank death, in world-rank order.
    pub deaths: Vec<RankDeath>,
    /// Message/byte totals accumulated during the run.
    pub stats: StatsSnapshot,
    /// The injected-fault trace in deterministic `(src, seq)` order; two
    /// runs of the same workload under the same seed produce equal traces.
    pub trace: Vec<FaultEvent>,
}

impl World {
    /// Run `size` ranks, each executing `f` with its own [`Comm`].
    ///
    /// A panic in any rank propagates after all threads have been joined
    /// (see [`WorldBuilder::run`]).
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        Self::builder(size).run(f).results
    }

    /// Start configuring a run (e.g. to attach a [`FaultPlan`]).
    pub fn builder(size: usize) -> WorldBuilder {
        WorldBuilder {
            size,
            fault: None,
            observe: None,
            // `SIMMPI_TRANSPORT=socket` flips every world in the process
            // onto the wire; explicit [`WorldBuilder::transport`] wins.
            transport: TransportKind::from_env(),
            socket: SocketConfig::default(),
        }
    }
}

impl WorldBuilder {
    /// Attach a seeded fault plan perturbing every send. Plans with kill
    /// directives should be run with [`WorldBuilder::run_chaos`]; under
    /// plain [`WorldBuilder::run`] a killed rank propagates its panic.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attach an observability registry: every rank thread gets its own
    /// recorder lane, so spans/counters/histograms recorded anywhere in
    /// the stack land in `registry.report()` after the run.
    pub fn observe(mut self, registry: obsv::Registry) -> Self {
        self.observe = Some(registry);
        self
    }

    /// Pin the delivery backend, overriding the `SIMMPI_TRANSPORT`
    /// environment default. A/B tests use this to run the same workload
    /// over [`TransportKind::InProc`] and [`TransportKind::Socket`]
    /// side by side without racing on process-global environment state.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Tune the socket backend (queue bound, receive window). Only
    /// consulted when the transport is [`TransportKind::Socket`]; this is
    /// the only way to set the bounds.
    pub fn socket_config(mut self, cfg: SocketConfig) -> Self {
        self.socket = cfg;
        self
    }

    /// Spawn the ranks and block until they all return.
    ///
    /// A rank that panics is marked dead, so a peer blocked on it
    /// cascades instead of waiting forever (as under
    /// [`WorldBuilder::run_chaos`]). Once every rank has returned or
    /// died, the run panics with "rank thread panicked", naming the first
    /// death that is not such a cascade.
    pub fn run<R, F>(self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let out = self.run_chaos(f);
        let cause = out.deaths.iter().find(|d| !d.message.starts_with(CASCADE));
        if let Some(d) = cause.or(out.deaths.first()) {
            panic!("rank thread panicked: rank {}: {}", d.rank, d.message);
        }
        RunOutput { results: out.results.into_iter().flatten().collect(), stats: out.stats }
    }

    /// Spawn the ranks and survive rank deaths: a rank that panics —
    /// because the fault plan killed it, or it hit a cascading
    /// [`PeerDied`], or an ordinary panic — is recorded in
    /// [`ChaosOutput::deaths`], marked dead so peers' timed receives fail
    /// fast, and the rest of the world keeps running.
    ///
    /// The run only returns once every rank has returned or died, so the
    /// workload must be written to terminate under the injected faults
    /// (survivors use timeouts; see [`Comm::recv_timeout`]).
    pub fn run_chaos<R, F>(self, f: F) -> ChaosOutput<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        silence_injected_panics();
        let WorldBuilder { size, fault, observe, transport, socket } = self;
        assert!(size > 0, "world size must be at least 1");
        let fault = fault.map(|p| FaultState::new(p, size));
        let transport = make_transport(transport, size, socket);
        let inner = Arc::new(WorldInner::new(size, transport, fault));
        let f = &f;
        let outcomes: Vec<Result<R, RankDeath>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let comm = Comm::world(Arc::clone(&inner), rank, size);
                    let recorder = observe.as_ref().map(|reg| reg.recorder(rank));
                    let inner = Arc::clone(&inner);
                    // Keep stacks modest: sweeps spawn hundreds of ranks.
                    std::thread::Builder::new()
                        .stack_size(2 << 20)
                        .name(format!("rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let _obs = recorder.map(obsv::install);
                            let res =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                            res.map_err(|payload| {
                                inner.mark_dead(rank);
                                describe_death(rank, payload.as_ref())
                            })
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked outside catch_unwind"))
                .collect()
        });
        inner.transport.shutdown();
        ChaosOutput {
            deaths: outcomes.iter().filter_map(|o| o.as_ref().err().cloned()).collect(),
            results: outcomes.into_iter().map(Result::ok).collect(),
            stats: inner.stats.snapshot(),
            trace: inner.fault.as_ref().map(|fs| fs.trace()).unwrap_or_default(),
        }
    }
}

/// Keep injected deaths ([`RankKilled`]) and their cascades ([`PeerDied`])
/// off stderr: they are expected, contained by the spawn loop, and reported
/// through [`ChaosOutput::deaths`] — a "thread panicked" backtrace for
/// each one is pure noise. Installed once, process-wide; every other
/// panic payload still goes to the previous hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if !p.is::<RankKilled>() && !p.is::<PeerDied>() {
                prev(info);
            }
        }));
    });
}

/// Message prefix of a [`PeerDied`] death.
const CASCADE: &str = "cascading death";

/// Classify a rank's panic payload into a [`RankDeath`].
fn describe_death(rank: usize, payload: &(dyn std::any::Any + Send)) -> RankDeath {
    if let Some(k) = payload.downcast_ref::<RankKilled>() {
        return RankDeath {
            rank,
            injected: true,
            message: format!("killed by fault plan at send {}", k.at_send),
        };
    }
    if let Some(p) = payload.downcast_ref::<PeerDied>() {
        return RankDeath {
            rank,
            injected: false,
            message: format!("{CASCADE}: blocking receive from dead rank {}", p.peer),
        };
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unidentified panic".to_string()
    };
    RankDeath { rank, injected: false, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = World::run(8, |c| c.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_messages() {
        let out = World::builder(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 0, &[1u8, 2, 3][..]);
            } else {
                c.recv(0.into(), 0.into());
            }
        });
        assert_eq!(out.stats.messages, 1);
        assert_eq!(out.stats.bytes, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_size_world_rejected() {
        let _ = World::run(0, |_c| ());
    }

    /// Run `body` on a helper thread and return its panic message; fail
    /// instead of hanging the test if it has not finished within `secs`.
    fn panic_message_within(secs: u64, body: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(secs))
            .expect("the run wedged: a peer stayed blocked on the panicked rank");
        let payload = outcome.expect_err("a rank's panic must propagate out of the run");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn panicking_rank_does_not_wedge_a_plain_run() {
        use crate::task::{TaskSpec, TaskWorld};
        let plain = panic_message_within(10, || {
            World::run(2, |c| {
                if c.rank() == 0 {
                    panic!("gives up");
                }
                let _ = c.recv(0.into(), 1.into());
            });
        });
        let tasks = panic_message_within(10, || {
            let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
            TaskWorld::builder(&specs).run(|tc| {
                if tc.task_id == 0 {
                    panic!("gives up");
                }
                let _ = tc.world.recv(0.into(), 1.into());
            });
        });
        for msg in [plain, tasks] {
            assert!(msg.starts_with("rank thread panicked: rank 0: gives up"), "{msg}");
        }
    }

    #[test]
    fn chaos_without_faults_behaves_like_run() {
        let out = World::builder(4).run_chaos(|c| c.rank() * 2);
        assert_eq!(out.results, vec![Some(0), Some(2), Some(4), Some(6)]);
        assert!(out.deaths.is_empty());
        assert!(out.trace.is_empty());
    }

    #[test]
    fn chaos_kill_reports_death_and_survivors_fail_fast() {
        use crate::comm::RecvError;
        use crate::fault::{FaultKind, FaultPlan};
        use std::time::{Duration, Instant};
        let out = World::builder(3).fault_plan(FaultPlan::new(11).kill_rank(0, 2)).run_chaos(|c| {
            if c.rank() == 0 {
                c.send_u64s(1, 1, &[10]); // 1st send: delivered
                c.send_u64s(2, 1, &[20]); // 2nd send: the rank dies here
                unreachable!("killed at send 2");
            } else if c.rank() == 1 {
                // The pre-death message stays receivable.
                let v = c
                    .recv_timeout(0.into(), 1.into(), Duration::from_secs(5))
                    .expect("message sent before the death must arrive");
                u64::from_le_bytes(v.payload[..8].try_into().unwrap())
            } else {
                // The dead rank never sent to us: fail fast, not at the
                // deadline.
                let t0 = Instant::now();
                let err = c
                    .recv_timeout(0.into(), 1.into(), Duration::from_secs(30))
                    .expect_err("rank 0 died before its send to rank 2");
                assert_eq!(err, RecvError::PeerDead);
                assert!(t0.elapsed() < Duration::from_secs(10), "must not burn the timeout");
                99
            }
        });
        assert_eq!(out.results, vec![None, Some(10), Some(99)]);
        assert_eq!(out.deaths.len(), 1);
        assert_eq!(out.deaths[0].rank, 0);
        assert!(out.deaths[0].injected);
        assert_eq!(out.trace.len(), 1);
        assert_eq!((out.trace[0].src, out.trace[0].seq), (0, 2));
        assert_eq!(out.trace[0].kind, FaultKind::Killed);
    }

    #[test]
    fn blocking_recv_from_dead_rank_cascades() {
        use crate::fault::FaultPlan;
        let out = World::builder(2).fault_plan(FaultPlan::new(3).kill_rank(0, 1)).run_chaos(|c| {
            if c.rank() == 0 {
                c.send_u64s(1, 1, &[1]);
                unreachable!("killed at send 1");
            } else {
                // A plain blocking receive cannot complete: this rank
                // must die too instead of hanging the run.
                let _ = c.recv(0.into(), 1.into());
                unreachable!("peer died; receive can never complete");
            }
        });
        assert_eq!(out.results, vec![None::<u64>, None]);
        assert_eq!(out.deaths.len(), 2);
        assert!(out.deaths[0].injected);
        assert!(!out.deaths[1].injected);
        assert!(out.deaths[1].message.contains("dead rank 0"));
    }

    #[test]
    fn same_seed_same_trace() {
        use crate::fault::FaultPlan;
        let run = |seed: u64| {
            World::builder(4)
                .fault_plan(FaultPlan::new(seed).delay(0.5, std::time::Duration::from_micros(200)))
                .run_chaos(|c| {
                    let next = (c.rank() + 1) % c.size();
                    let prev = (c.rank() + c.size() - 1) % c.size();
                    for i in 0..20u64 {
                        c.send_u64s(next, 1, &[i]);
                        assert_eq!(c.recv_u64s(prev.into(), 1.into()).1[0], i);
                    }
                })
                .trace
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "identical seed must reproduce the identical trace");
        assert!(!a.is_empty());
        assert_ne!(a, run(43), "different seed should perturb differently");
    }
}
