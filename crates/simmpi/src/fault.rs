//! Seeded, deterministic fault injection for the transport layer.
//!
//! A [`FaultPlan`] attached to a world (via
//! [`crate::World::builder`] → `fault_plan`) perturbs every send:
//! messages can be **delayed**, **reordered** (delivered ahead of
//! already-queued messages), **dropped once** per `(src, dest, tag)`
//! flow, and a rank can be **killed** at its Nth send.
//!
//! Every decision is a pure function of `(plan seed, world source, world
//! destination, wire tag, per-rank send sequence number)`: each send
//! seeds a fresh ChaCha8 stream from that tuple and draws its fate from
//! it. No shared RNG state means thread scheduling cannot change which
//! messages are hit — re-running the same workload with the same seed
//! reproduces the identical fault trace, which is what makes chaos-test
//! failures replayable.
//!
//! Scope of each fault:
//!
//! * **delay** applies to every message, including collectives — it only
//!   stretches time, never changes matching order between a pair.
//! * **reorder** and **drop** apply to user-tag messages only (tags below
//!   the reserved collective range). Collective flows have no retry
//!   protocol and rely on pairwise FIFO; the faults model transport-level
//!   trouble that the RPC layer's timeouts, call ids, and bounded retry
//!   are expected to absorb.
//! * **kill** unwinds the rank's thread with a [`RankKilled`] panic
//!   payload the moment it attempts its Nth **user-tag** send; use
//!   [`crate::WorldBuilder::run_chaos`] to catch the death, mark the rank
//!   dead for [`crate::Comm::recv_timeout`] callers, and keep the
//!   surviving ranks running. Collective-internal sends don't advance
//!   the kill counter: setup collectives (communicator splits, context
//!   allocation) would otherwise shift every kill point by an
//!   algorithm-dependent amount, and a rank dying mid-collective takes
//!   the whole job down rather than exercising any recovery path. To
//!   place a kill, count the protocol messages the victim sends —
//!   e.g. one RPC reply per request served.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::envelope::{split_wire_tag, WireTag};

/// Kill directive: `rank` dies at its `at_send`-th user-tag send
/// (1-based; collective-internal sends don't count — see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: usize,
    pub at_send: u64,
}

/// A seeded description of which faults to inject.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    delay_prob: f64,
    max_delay: Duration,
    reorder_prob: f64,
    drop_prob: f64,
    kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing until faults are enabled on it.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder_prob: 0.0,
            drop_prob: 0.0,
            kills: Vec::new(),
        }
    }

    /// The seed all fault decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Delay each message with probability `prob` by a seed-determined
    /// duration in `[0, max]` (slept on the sender before delivery).
    pub fn delay(mut self, prob: f64, max: Duration) -> Self {
        self.delay_prob = prob;
        self.max_delay = max;
        self
    }

    /// Deliver each user-tag message with probability `prob` *ahead of*
    /// everything already queued at the destination, violating pairwise
    /// FIFO for same-`(src, tag)` flows.
    pub fn reorder(mut self, prob: f64) -> Self {
        self.reorder_prob = prob;
        self
    }

    /// Drop a user-tag message with probability `prob`, at most once per
    /// `(src, dest, tag)` flow — so a retry of the lost message always
    /// gets through, and recovery is exercised exactly once per flow.
    pub fn drop_once(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Kill world rank `rank` at its `at_send`-th user-tag send
    /// (1-based; collective-internal sends don't advance the counter).
    pub fn kill_rank(mut self, rank: usize, at_send: u64) -> Self {
        self.kills.push(KillSpec { rank, at_send });
        self
    }
}

/// What was done to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    Delayed(Duration),
    Reordered,
    Dropped,
    Killed,
}

/// One entry of the fault trace. Ordered by `(src, seq)`, which totally
/// orders the trace because `seq` is the per-rank send counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Sending world rank.
    pub src: usize,
    /// 1-based sequence number of the send on `src`. For
    /// [`FaultKind::Killed`] this is the **user-tag** send sequence the
    /// kill was specified against, not the raw send count.
    pub seq: u64,
    /// Destination world rank. For [`FaultKind::Killed`] this is `src`:
    /// which message a rank was attempting at its Nth send depends on
    /// thread scheduling (ANY_SOURCE servers), so message identity is not
    /// part of the deterministic trace for kills.
    pub dest: usize,
    /// Communicator context the message was sent on (0 for kills).
    pub ctx: u32,
    /// User tag of the message (0 for kills).
    pub tag: u32,
    pub kind: FaultKind,
}

/// Panic payload used when a fault plan kills a rank; `run_chaos`
/// recognizes it to report the death as injected rather than accidental.
#[derive(Debug, Clone, Copy)]
pub struct RankKilled {
    pub rank: usize,
    pub at_send: u64,
}

/// Panic payload of a cascading death: a *blocking* receive was waiting
/// on a specific rank that died, so the receive can never complete and
/// the receiver goes down with it — the behavior of a real MPI job.
/// Ranks that must survive peer deaths use
/// [`crate::Comm::recv_timeout`], which reports
/// [`crate::RecvError::PeerDead`] instead.
#[derive(Debug, Clone, Copy)]
pub struct PeerDied {
    /// The rank whose receive could never complete.
    pub receiver: usize,
    /// The dead rank it was waiting on.
    pub peer: usize,
}

/// The sender's instruction after consulting the plan.
pub(crate) enum SendFate {
    /// Deliver normally (any delay has already been slept).
    Deliver,
    /// Deliver at the front of the destination queue.
    DeliverFront,
    /// Silently discard the message.
    Drop,
    /// The sending rank dies instead of sending.
    Kill(RankKilled),
}

/// Per-run mutable fault state shared by all ranks.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-world-rank send counters (atomic: a rank's helper threads —
    /// e.g. an async serve loop — share its counter).
    send_seq: Vec<AtomicU64>,
    /// Per-world-rank **user-tag** send counters — the sequence kills
    /// are specified against (collective framing excluded).
    user_send_seq: Vec<AtomicU64>,
    /// `(src, dest, wire_tag)` flows that already lost a message.
    dropped: Mutex<HashSet<(usize, usize, WireTag)>>,
    trace: Mutex<Vec<FaultEvent>>,
}

impl FaultState {
    pub fn new(plan: FaultPlan, world_size: usize) -> Self {
        FaultState {
            plan,
            send_seq: (0..world_size).map(|_| AtomicU64::new(0)).collect(),
            user_send_seq: (0..world_size).map(|_| AtomicU64::new(0)).collect(),
            dropped: Mutex::new(HashSet::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Decide the fate of one send. Sleeps the injected delay in place.
    pub(crate) fn pre_send(&self, src: usize, dest: usize, wire_tag: WireTag) -> SendFate {
        let seq = self.send_seq[src].fetch_add(1, Ordering::Relaxed) + 1;
        let (ctx, tag) = split_wire_tag(wire_tag);
        let user_tag = tag < crate::collectives::COLLECTIVE_TAG_BASE;
        let record = |kind: FaultKind| {
            self.trace.lock().push(FaultEvent { src, seq, dest, ctx, tag, kind });
        };

        if user_tag {
            let useq = self.user_send_seq[src].fetch_add(1, Ordering::Relaxed) + 1;
            if self.plan.kills.iter().any(|k| k.rank == src && k.at_send == useq) {
                // A kill is a property of the sender (its Nth user-tag
                // send), not of the message it happened to be attempting:
                // under ANY_SOURCE servers, which destination is current
                // at send N depends on thread scheduling. Recording only
                // sender facts keeps the trace bit-identical across
                // replays of the same seed.
                self.trace.lock().push(FaultEvent {
                    src,
                    seq: useq,
                    dest: src,
                    ctx: 0,
                    tag: 0,
                    kind: FaultKind::Killed,
                });
                return SendFate::Kill(RankKilled { rank: src, at_send: useq });
            }
        }

        // Draw the fates in a fixed order from a stream owned by this
        // message alone, so enabling one fault never re-rolls another.
        let mut rng =
            ChaCha8Rng::seed_from_u64(decision_seed(self.plan.seed, src, dest, wire_tag, seq));
        let roll_drop: f64 = rng.gen();
        let roll_delay: f64 = rng.gen();
        let delay_frac: f64 = rng.gen();
        let roll_reorder: f64 = rng.gen();

        if user_tag
            && roll_drop < self.plan.drop_prob
            && self.dropped.lock().insert((src, dest, wire_tag))
        {
            record(FaultKind::Dropped);
            return SendFate::Drop;
        }
        if roll_delay < self.plan.delay_prob && !self.plan.max_delay.is_zero() {
            let d = self.plan.max_delay.mul_f64(delay_frac);
            record(FaultKind::Delayed(d));
            std::thread::sleep(d);
        }
        if user_tag && roll_reorder < self.plan.reorder_prob {
            record(FaultKind::Reordered);
            return SendFate::DeliverFront;
        }
        SendFate::Deliver
    }

    /// The trace so far, in deterministic `(src, seq)` order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        let mut t = self.trace.lock().clone();
        t.sort_unstable();
        t
    }
}

/// SplitMix64-style finalizer mixing the decision tuple into one seed.
fn decision_seed(seed: u64, src: usize, dest: usize, wire_tag: WireTag, seq: u64) -> u64 {
    let mut s = seed;
    for v in [src as u64, dest as u64, wire_tag, seq] {
        s ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        s = rand::splitmix64(&mut s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::make_wire_tag;

    fn state(plan: FaultPlan) -> FaultState {
        FaultState::new(plan, 4)
    }

    #[test]
    fn no_faults_by_default() {
        let fs = state(FaultPlan::new(1));
        for _ in 0..100 {
            assert!(matches!(fs.pre_send(0, 1, make_wire_tag(0, 7)), SendFate::Deliver));
        }
        assert!(fs.trace().is_empty());
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let plan = FaultPlan::new(99).drop_once(0.3).reorder(0.3);
        let run = || {
            let fs = state(plan.clone());
            for i in 0..50 {
                let _ = fs.pre_send(0, 1, make_wire_tag(0, i));
            }
            fs.trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "0.3 probability over 50 sends should fire");
    }

    #[test]
    fn drop_fires_once_per_flow() {
        let fs = state(FaultPlan::new(5).drop_once(1.0));
        assert!(matches!(fs.pre_send(0, 1, make_wire_tag(0, 3)), SendFate::Drop));
        // Same flow again: the retry must pass.
        assert!(matches!(fs.pre_send(0, 1, make_wire_tag(0, 3)), SendFate::Deliver));
        // A different flow gets its own single drop.
        assert!(matches!(fs.pre_send(0, 2, make_wire_tag(0, 3)), SendFate::Drop));
    }

    #[test]
    fn collective_tags_exempt_from_drop_and_reorder() {
        let fs = state(FaultPlan::new(5).drop_once(1.0).reorder(1.0));
        let wire = make_wire_tag(0, crate::collectives::COLLECTIVE_TAG_BASE + 1);
        for _ in 0..10 {
            assert!(matches!(fs.pre_send(0, 1, wire), SendFate::Deliver));
        }
    }

    #[test]
    fn kill_fires_at_exact_send() {
        let fs = state(FaultPlan::new(5).kill_rank(2, 3));
        let wire = make_wire_tag(0, 1);
        assert!(matches!(fs.pre_send(2, 0, wire), SendFate::Deliver));
        assert!(matches!(fs.pre_send(2, 0, wire), SendFate::Deliver));
        match fs.pre_send(2, 0, wire) {
            SendFate::Kill(k) => assert_eq!((k.rank, k.at_send), (2, 3)),
            _ => panic!("third send of rank 2 must kill"),
        }
        // Other ranks are unaffected.
        for _ in 0..5 {
            assert!(matches!(fs.pre_send(1, 0, wire), SendFate::Deliver));
        }
    }

    #[test]
    fn collective_sends_do_not_advance_the_kill_counter() {
        let fs = state(FaultPlan::new(5).kill_rank(2, 2));
        let user = make_wire_tag(0, 1);
        let coll = make_wire_tag(0, crate::collectives::COLLECTIVE_TAG_BASE);
        // A communicator split's worth of collective framing up front
        // must not shift the kill point.
        for _ in 0..7 {
            assert!(matches!(fs.pre_send(2, 0, coll), SendFate::Deliver));
        }
        assert!(matches!(fs.pre_send(2, 0, user), SendFate::Deliver));
        // More collective traffic between user sends changes nothing.
        assert!(matches!(fs.pre_send(2, 0, coll), SendFate::Deliver));
        match fs.pre_send(2, 0, user) {
            SendFate::Kill(k) => assert_eq!((k.rank, k.at_send), (2, 2)),
            _ => panic!("second user send of rank 2 must kill"),
        }
    }

    #[test]
    fn trace_orders_by_src_then_seq() {
        let fs = state(FaultPlan::new(7).drop_once(1.0));
        let _ = fs.pre_send(3, 0, make_wire_tag(0, 1));
        let _ = fs.pre_send(1, 0, make_wire_tag(0, 1));
        let _ = fs.pre_send(1, 0, make_wire_tag(0, 2));
        let t = fs.trace();
        let keys: Vec<(usize, u64)> = t.iter().map(|e| (e.src, e.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
