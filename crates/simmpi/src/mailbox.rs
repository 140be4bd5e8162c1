//! Per-rank mailbox: an unbounded matched queue; a blocked receive spins
//! briefly, then parks on a condition variable.
//!
//! Following the channel-construction patterns in *Rust Atomics and Locks*
//! (ch. 5), the mailbox is a `Mutex<VecDeque>` plus a `Condvar`. Receivers
//! scan the queue for the first envelope matching `(context, source, tag)`;
//! if none matches they wait. Senders push and, only when a receiver is
//! parked (a notify is a futex syscall even with no waiter), `notify_all`:
//! several receivers with different selectors may be parked — e.g. a serve
//! loop and a collective helper are never concurrent in our usage, but
//! correctness must not depend on that.
//!
//! **Spin, then park.** MPICH's blocking receive polls its progress engine
//! rather than sleeping, so a message hop costs a cache-line transfer, not
//! a futex wake of an idle core (17.4 µs vs 1.2 µs per round trip between
//! two threads on a 2-core VM). A blocked receive here first spins on a
//! push counter for up to [`SPIN_CAP`], calling `yield_now` each turn —
//! rank and serve threads oversubscribe the cores, and a pure `spin_loop`
//! waiter sharing a CPU with its sender starves it (451 µs round trips) —
//! and only then falls back to the bounded condvar wait. It spins only
//! when its selector's recent blocked waits were shorter than the cap
//! ([`SpinPredictor`]); a selector whose messages arrive slowly, or whose
//! waits time out (an RPC liveness poll on an idle link), parks at once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::collectives;
use crate::comm::RecvError;
use crate::envelope::{split_wire_tag, SrcSel, TagSel, WireEnvelope};
use crate::sink::SinkTable;

/// Longest a blocked receive spins before it parks.
pub(crate) const SPIN_CAP: Duration = Duration::from_micros(50);

/// What one blocked wait may add to a selector's estimate: a timeout, or
/// any wait longer than this, is learned as this long. Twenty times
/// `SPIN_CAP`, so after one long wait a selector parks until about twenty
/// short waits in a row bring its estimate back under the cap.
const LONG_WAIT: Duration = Duration::from_millis(1);

#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<Queue>,
    available: Condvar,
    /// Notified whenever a receive removes an envelope — the socket
    /// backend's reader waits on this to keep a destination's queue under
    /// its receive window (flow control back onto the wire).
    drained: Condvar,
    /// Bumped by every push and every [`Mailbox::wake`]: what a spinning
    /// receiver watches, so an arrival, a death or a shutdown ends its
    /// spin at once.
    pushes: AtomicU64,
    /// Receives posted on this rank with a destination of their own: the
    /// socket reader places a matching frame's body there and pushes a
    /// completion instead (`crate::sink`).
    sinks: SinkTable,
}

#[derive(Default)]
struct Queue {
    envs: VecDeque<WireEnvelope>,
    spin: SpinPredictor,
    /// Threads waiting on `available` / on `drained`. A notify is a
    /// syscall whether or not anyone waits, so pushes and pops skip it
    /// when nobody does — a spinning receiver needs none. Counted under
    /// this lock, which a waiter holds from its last check until the
    /// condvar wait releases it, so no notify can fall in between.
    parked: u32,
    draining: u32,
}

/// Matching key used by receives: the communicator context plus user-level
/// selectors. Source selection happens on *world* ranks (the caller
/// translates communicator-local selectors before matching).
#[derive(Clone, Copy)]
pub(crate) struct Matcher {
    pub ctx: u32,
    pub src: SrcSel, // in world-rank coordinates
    pub tag: TagSel,
}

impl Matcher {
    fn matches(&self, env: &WireEnvelope) -> bool {
        let (ctx, tag) = split_wire_tag(env.wire_tag);
        ctx == self.ctx && self.src.matches(env.world_src) && self.tag.matches(tag)
    }
}

/// How long a blocked receive should spin, learned per receive selector:
/// an exponentially weighted mean of its past blocked waits, in one of
/// [`SpinPredictor::SLOTS`] slots picked by a hash of `(ctx, src, tag
/// class)` — the tag with a collective's per-call epoch folded out
/// ([`collectives::tag_class`]), so each all-to-all learns from the last.
/// Per selector, because one rank's receives differ: a serve loop's
/// request wait, an RPC reply and a collective round each have their own
/// rhythm, and one mean over all of them would spin on none.
///
/// The mean rises fast (half the gap per wait) and falls slowly (an
/// eighth): a spin that misses burns the whole cap and parks anyway, so a
/// selector whose waits are mixed — an RPC reply that is sometimes
/// answered at once and sometimes parked at the producer — should park.
#[derive(Default)]
pub(crate) struct SpinPredictor {
    wait_ns: [u64; SpinPredictor::SLOTS],
}

impl SpinPredictor {
    const SLOTS: usize = 16;

    fn slot(m: &Matcher) -> usize {
        let src = match m.src {
            SrcSel::Rank(r) => r as u64,
            SrcSel::Any => u64::MAX,
        };
        let tag = match m.tag {
            TagSel::Tag(t) => u64::from(collectives::tag_class(t)),
            TagSel::Any => u64::MAX,
        };
        let h = (u64::from(m.ctx) ^ src.rotate_left(21) ^ tag.rotate_left(42))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 60) as usize
    }

    /// How long a receive on `m` that found nothing should spin before it
    /// parks: [`SPIN_CAP`] while the selector's waits have been short,
    /// zero once they are not.
    pub fn budget(&self, m: &Matcher) -> Duration {
        if self.wait_ns[Self::slot(m)] < SPIN_CAP.as_nanos() as u64 {
            SPIN_CAP
        } else {
            Duration::ZERO
        }
    }

    /// Learn that a blocked receive on `m` waited `waited` (a timed-out one
    /// passes [`Duration::MAX`]).
    pub fn observe(&mut self, m: &Matcher, waited: Duration) {
        let w = waited.min(LONG_WAIT).as_nanos() as u64;
        let e = &mut self.wait_ns[Self::slot(m)];
        if w > *e {
            *e += (w - *e) / 2;
        } else {
            *e -= (*e - w) / 8;
        }
    }
}

impl Mailbox {
    /// The sinks posted on this mailbox.
    pub fn sinks(&self) -> &SinkTable {
        &self.sinks
    }

    /// Deliver an envelope (never blocks; queues are unbounded, matching
    /// MPI buffered-send semantics).
    pub fn push(&self, env: WireEnvelope) {
        let mut q = self.queue.lock();
        q.envs.push_back(env);
        self.delivered(q);
    }

    /// Deliver an envelope *ahead of* everything already queued — the
    /// fault injector's reorder: a later message overtakes earlier ones,
    /// including same-`(src, tag)` traffic.
    pub(crate) fn push_front(&self, env: WireEnvelope) {
        let mut q = self.queue.lock();
        q.envs.push_front(env);
        self.delivered(q);
    }

    /// After a push: end any spin, and wake parked receivers if there are
    /// any.
    fn delivered(&self, q: MutexGuard<'_, Queue>) {
        let parked = q.parked > 0;
        drop(q);
        self.pushes.fetch_add(1, Ordering::Release);
        if parked {
            self.available.notify_all();
        }
    }

    /// After a pop: wake a socket reader waiting for the queue to drain,
    /// if there is one.
    fn removed(&self, q: &Queue) {
        if q.draining > 0 {
            self.drained.notify_all();
        }
    }

    /// Wake every blocked receiver so it can re-check external conditions
    /// (a peer death, a deadline, shutdown). Taking the lock first
    /// guarantees no receiver misses the wakeup between its check and its
    /// wait; bumping the push counter ends any spin. Both condvars are
    /// notified: a reader parked in [`Mailbox::wait_below`] waits on
    /// `drained`, and its `closed` flag flips without any queue operation
    /// — without this notify its exit would be quantized to the
    /// bounded-wait tick.
    pub fn wake(&self) {
        let _q = self.queue.lock();
        self.pushes.fetch_add(1, Ordering::Release);
        self.available.notify_all();
        self.drained.notify_all();
    }

    /// Block until an envelope matching `m` is available and remove it.
    #[cfg(test)]
    pub(crate) fn pop_matching(&self, m: &Matcher) -> WireEnvelope {
        self.pop_matching_until(m, None, &|| false).expect("abort predicate is constant false")
    }

    /// Block until an envelope matching `m` arrives, the deadline (if
    /// any) passes, or `aborted()` turns true with no match queued. A
    /// queued match always wins over an abort: messages a peer sent
    /// before dying stay receivable.
    ///
    /// The one blocking receive: check, spin while the selector's budget
    /// lasts (re-checking whenever the push counter moves), then park on
    /// the bounded condvar wait. Records `mailbox_spin_hits` for a
    /// receive that blocked and was served without parking, and
    /// `mailbox_parks` for one that parked.
    pub(crate) fn pop_matching_until(
        &self,
        m: &Matcher,
        deadline: Option<Instant>,
        aborted: &dyn Fn() -> bool,
    ) -> Result<WireEnvelope, RecvError> {
        let mut q = self.queue.lock();
        // Set at the first miss: when the wait began and when its spin ends.
        let mut blocked: Option<(Instant, Instant)> = None;
        let mut parked = false;
        loop {
            if let Some(i) = q.envs.iter().position(|e| m.matches(e)) {
                let env = q.envs.remove(i).expect("index verified by position()");
                if let Some((since, _)) = blocked {
                    q.spin.observe(m, since.elapsed());
                    if !parked {
                        obsv::counter_add(obsv::Ctr::MailboxSpinHits, 1);
                    }
                }
                self.removed(&q);
                return Ok(env);
            }
            if aborted() {
                return Err(RecvError::PeerDead);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                q.spin.observe(m, Duration::MAX);
                return Err(RecvError::TimedOut);
            }
            let (_, spin_end) = *blocked.get_or_insert_with(|| {
                let end = now + q.spin.budget(m);
                (now, deadline.map_or(end, |d| end.min(d)))
            });
            if now < spin_end {
                let seen = self.pushes.load(Ordering::Acquire);
                drop(q);
                while self.pushes.load(Ordering::Acquire) == seen && Instant::now() < spin_end {
                    std::thread::yield_now();
                }
                q = self.queue.lock();
                continue;
            }
            if !parked {
                parked = true;
                obsv::counter_add(obsv::Ctr::MailboxParks, 1);
            }
            // Bounded wait: `aborted` can flip without a queue operation
            // (e.g. a dead peer's last in-flight frame landing on another
            // tag just before its delivered-counter store), so re-check it
            // periodically; capped below the deadline.
            let tick = Duration::from_millis(50);
            q.parked += 1;
            self.available.wait_for(&mut q, deadline.map_or(tick, |d| (d - now).min(tick)));
            q.parked -= 1;
        }
    }

    /// Remove a matching envelope if one is queued (nonblocking).
    pub(crate) fn try_pop_matching(&self, m: &Matcher) -> Option<WireEnvelope> {
        let mut q = self.queue.lock();
        let i = q.envs.iter().position(|e| m.matches(e))?;
        let env = q.envs.remove(i);
        self.removed(&q);
        env
    }

    /// Block until fewer than `limit` envelopes are queued, the closed
    /// flag turns true, or (defensively) a bounded wait elapses. Used by
    /// the socket backend's reader to stop draining the wire once the
    /// destination rank falls behind — what turns a full mailbox into
    /// sender-visible backpressure.
    pub(crate) fn wait_below(&self, limit: usize, closed: &dyn Fn() -> bool) {
        let mut q = self.queue.lock();
        while q.envs.len() >= limit && !closed() {
            // Bounded wait: `closed` can flip without a queue operation
            // (shutdown, rank death), so re-check it periodically.
            q.draining += 1;
            self.drained.wait_for(&mut q, std::time::Duration::from_millis(50));
            q.draining -= 1;
        }
    }

    /// Nonblocking probe: report `(world_src, tag, len)` of the first
    /// matching queued envelope without removing it.
    pub(crate) fn peek_matching(&self, m: &Matcher) -> Option<(usize, u32, usize)> {
        let q = self.queue.lock();
        q.envs.iter().find(|e| m.matches(e)).map(|e| {
            let (_, tag) = split_wire_tag(e.wire_tag);
            (e.world_src, tag, e.payload.len())
        })
    }

    /// Blocking probe: wait until a matching envelope is queued and report
    /// its `(world_src, tag, len)` without removing it.
    pub(crate) fn wait_matching(&self, m: &Matcher) -> (usize, u32, usize) {
        let mut q = self.queue.lock();
        loop {
            if let Some(e) = q.envs.iter().find(|e| m.matches(e)) {
                let (_, tag) = split_wire_tag(e.wire_tag);
                return (e.world_src, tag, e.payload.len());
            }
            q.parked += 1;
            self.available.wait(&mut q);
            q.parked -= 1;
        }
    }

    /// Pushes and wake-ups so far: what a spinning receiver watches.
    #[cfg(test)]
    pub fn wakeups(&self) -> u64 {
        self.pushes.load(Ordering::Acquire)
    }

    /// Number of queued (undelivered) envelopes, for diagnostics.
    /// (The socket reader's window check reads the queue length under its
    /// own lock in [`Mailbox::wait_below`] rather than through this.)
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.lock().envs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{make_wire_tag, ANY_SOURCE, ANY_TAG};
    use bytes::Bytes;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn env(src: usize, ctx: u32, tag: u32, body: &[u8]) -> WireEnvelope {
        WireEnvelope {
            world_src: src,
            wire_tag: make_wire_tag(ctx, tag),
            payload: Bytes::copy_from_slice(body).into(),
            sent_ns: 0,
            placed: 0,
        }
    }

    #[test]
    fn matches_in_fifo_order_per_selector() {
        let mb = Mailbox::default();
        mb.push(env(0, 0, 1, b"a"));
        mb.push(env(0, 0, 1, b"b"));
        let m = Matcher { ctx: 0, src: ANY_SOURCE, tag: 1.into() };
        assert_eq!(&mb.pop_matching(&m).payload.to_bytes()[..], b"a");
        assert_eq!(&mb.pop_matching(&m).payload.to_bytes()[..], b"b");
    }

    #[test]
    fn skips_non_matching_context() {
        let mb = Mailbox::default();
        mb.push(env(0, 9, 1, b"other-comm"));
        mb.push(env(0, 0, 1, b"mine"));
        let m = Matcher { ctx: 0, src: ANY_SOURCE, tag: ANY_TAG };
        assert_eq!(&mb.pop_matching(&m).payload.to_bytes()[..], b"mine");
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn try_pop_returns_none_when_empty() {
        let mb = Mailbox::default();
        let m = Matcher { ctx: 0, src: ANY_SOURCE, tag: ANY_TAG };
        assert!(mb.try_pop_matching(&m).is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mb = Mailbox::default();
        mb.push(env(3, 0, 7, b"xyz"));
        let m = Matcher { ctx: 0, src: 3.into(), tag: 7.into() };
        assert_eq!(mb.peek_matching(&m), Some((3, 7, 3)));
        assert_eq!(mb.len(), 1);
    }

    fn sel(ctx: u32, src: usize, tag: u32) -> Matcher {
        Matcher { ctx, src: src.into(), tag: tag.into() }
    }

    #[test]
    fn predictor_spins_after_short_waits() {
        let mut p = SpinPredictor::default();
        let m = sel(0, 1, 7);
        assert_eq!(p.budget(&m), SPIN_CAP, "an unseen selector spins");
        for _ in 0..50 {
            p.observe(&m, Duration::from_micros(5));
        }
        assert_eq!(p.budget(&m), SPIN_CAP);
    }

    #[test]
    fn predictor_stops_after_long_waits_and_timeouts() {
        let m = sel(0, 1, 7);
        let mut p = SpinPredictor::default();
        p.observe(&m, Duration::from_millis(5));
        assert_eq!(p.budget(&m), Duration::ZERO, "one long wait stops the spin");
        let mut p = SpinPredictor::default();
        p.observe(&m, Duration::MAX);
        assert_eq!(p.budget(&m), Duration::ZERO, "a timeout is a long wait");
        // An idle link polled by timeouts never starts spinning again.
        for _ in 0..1000 {
            p.observe(&m, Duration::MAX);
        }
        assert_eq!(p.budget(&m), Duration::ZERO);
    }

    #[test]
    fn predictor_resumes_after_short_waits_again() {
        let m = sel(0, 1, 7);
        let mut p = SpinPredictor::default();
        p.observe(&m, Duration::MAX);
        assert_eq!(p.budget(&m), Duration::ZERO);
        let short = (1..=32).find(|_| {
            p.observe(&m, Duration::from_micros(5));
            p.budget(&m) == SPIN_CAP
        });
        let n = short.expect("short waits bring the spin back");
        assert!(n > 1, "one short wait does not outweigh a long one");
    }

    #[test]
    fn predictor_selectors_do_not_share_history() {
        let (a, b) = (sel(0, 1, 7), sel(0, 2, 7));
        assert_ne!(SpinPredictor::slot(&a), SpinPredictor::slot(&b));
        let mut p = SpinPredictor::default();
        p.observe(&a, Duration::MAX);
        assert_eq!(p.budget(&a), Duration::ZERO);
        assert_eq!(p.budget(&b), SPIN_CAP, "b never waited long");
    }

    #[test]
    fn alltoall_epochs_share_a_history_and_other_classes_stay_apart() {
        use crate::collectives::COLLECTIVE_TAG_BASE as BASE;
        let any = |tag: u32| Matcher { ctx: 3, src: SrcSel::Any, tag: tag.into() };
        let alltoall = |epoch: u32| any(BASE + 0x200 + epoch);
        for epoch in [1, 2, 0x7F, 0xFF] {
            assert_eq!(SpinPredictor::slot(&alltoall(epoch)), SpinPredictor::slot(&alltoall(0)));
        }
        let mut p = SpinPredictor::default();
        p.observe(&alltoall(5), Duration::MAX);
        assert_eq!(p.budget(&alltoall(6)), Duration::ZERO, "the next exchange learned it");
        // Its neighbours keep their own histories: the tags just below and
        // past the all-to-all range, a barrier round, a broadcast, a user tag.
        for tag in [BASE + 0x1FF, BASE + 0x300, BASE + 1, BASE + 0x100, 7] {
            assert_eq!(collectives::tag_class(tag), tag);
            assert_eq!(p.budget(&any(tag)), SPIN_CAP, "{tag:#x}");
        }
    }

    /// `(spin hits, parks)` recorded so far.
    fn spin_counts(reg: &obsv::Registry) -> (u64, u64) {
        let rep = reg.report();
        (rep.counter(obsv::Ctr::MailboxSpinHits), rep.counter(obsv::Ctr::MailboxParks))
    }

    /// Spawn a receiver of `(ctx 0, src 1, tag 5)` recording into `reg`;
    /// `missed` turns true when its first check finds nothing (the abort
    /// predicate runs right before the spin).
    fn spawn_receiver(
        mb: &Arc<Mailbox>,
        reg: &obsv::Registry,
        missed: &Arc<AtomicBool>,
        dead: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<Result<WireEnvelope, RecvError>> {
        let (mb, rec, missed, dead) =
            (Arc::clone(mb), reg.recorder(1), Arc::clone(missed), Arc::clone(dead));
        std::thread::spawn(move || {
            let _obs = obsv::install(rec);
            mb.pop_matching_until(&sel(0, 1, 5), None, &|| {
                missed.store(true, Ordering::SeqCst);
                dead.load(Ordering::SeqCst)
            })
        })
    }

    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_push_during_the_spin_is_received_without_parking() {
        // The push follows the receiver's first miss by far less than the
        // cap, unless the pushing thread is descheduled; retry for that.
        for _ in 0..100 {
            let (mb, reg) = (Arc::new(Mailbox::default()), obsv::Registry::new());
            let (missed, dead) = (Arc::default(), Arc::default());
            let rx = spawn_receiver(&mb, &reg, &missed, &dead);
            until(|| missed.load(Ordering::SeqCst));
            mb.push(env(1, 0, 5, b"spin"));
            let got = rx.join().unwrap().expect("delivered");
            assert_eq!(&got.payload.to_bytes()[..], b"spin");
            match spin_counts(&reg) {
                (1, 0) => return,
                (0, 1) => continue,
                other => panic!("one blocked receive counts once, got {other:?}"),
            }
        }
        panic!("no receive in 100 was served inside its spin");
    }

    #[test]
    fn a_push_after_the_cap_wakes_the_parked_receiver() {
        let (mb, reg) = (Arc::new(Mailbox::default()), obsv::Registry::new());
        let (missed, dead) = (Arc::default(), Arc::default());
        let rx = spawn_receiver(&mb, &reg, &missed, &dead);
        until(|| spin_counts(&reg).1 == 1);
        mb.push(env(1, 0, 5, b"late"));
        assert_eq!(&rx.join().unwrap().expect("delivered").payload.to_bytes()[..], b"late");
        assert_eq!(spin_counts(&reg), (0, 1));
    }

    #[test]
    fn wake_ends_a_spin_and_a_park_for_a_flipped_abort() {
        let mb = Mailbox::default();
        let before = mb.pushes.load(Ordering::SeqCst);
        mb.wake();
        assert_ne!(mb.pushes.load(Ordering::SeqCst), before, "wake moves what a spin watches");

        // Flipped during the spin, then (after the cap) during the park.
        for parked in [false, true] {
            let (mb, reg) = (Arc::new(Mailbox::default()), obsv::Registry::new());
            let (missed, dead) = (Arc::default(), Arc::<AtomicBool>::default());
            let rx = spawn_receiver(&mb, &reg, &missed, &dead);
            until(|| missed.load(Ordering::SeqCst) && (!parked || spin_counts(&reg).1 == 1));
            dead.store(true, Ordering::SeqCst);
            mb.wake();
            assert!(rx.join().unwrap().is_err(), "an abort with nothing queued fails the receive");
            assert_eq!(spin_counts(&reg).0, 0, "an aborted receive is no spin hit");
        }
    }

    #[test]
    fn a_deadline_inside_the_cap_times_out_by_the_deadline() {
        let mb = Mailbox::default();
        let m = sel(0, 1, 5);
        let deadline = Instant::now() + SPIN_CAP / 5;
        let got = mb.pop_matching_until(&m, Some(deadline), &|| false);
        let back = Instant::now();
        assert!(matches!(got, Err(RecvError::TimedOut)));
        assert!(back >= deadline, "never before the deadline");
        // Not quantized to the park's 50 ms tick; generous for a loaded host.
        assert!(back < deadline + Duration::from_millis(25), "late by {:?}", back - deadline);
        assert_eq!(mb.queue.lock().spin.budget(&m), Duration::ZERO, "a timeout is learned");
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            let m = Matcher { ctx: 0, src: ANY_SOURCE, tag: 5.into() };
            mb2.pop_matching(&m)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(env(1, 0, 5, b"wake"));
        assert_eq!(&t.join().unwrap().payload.to_bytes()[..], b"wake");
    }
}
