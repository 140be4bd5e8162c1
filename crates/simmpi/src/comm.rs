//! Communicators: rank identity, point-to-point messaging, and splitting.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::envelope::{make_wire_tag, Envelope, PartsEnvelope, SrcSel, Tag, TagSel, WireEnvelope};
use crate::mailbox::Matcher;
use crate::payload::Payload;
use crate::pod::{self, Pod};
use crate::stats::StatsSnapshot;
use crate::world::WorldInner;

/// A communicator: a rank's handle onto a group of ranks.
///
/// Cloning a `Comm` is cheap (Arc bumps) but note a clone still refers to
/// the *same* rank; to talk on an independent channel, split it
/// ([`Comm::split`]) onto a fresh context.
#[derive(Clone)]
pub struct Comm {
    inner: Arc<WorldInner>,
    /// Context id namespacing this communicator's messages.
    ctx: u32,
    /// This rank's index within the communicator.
    rank: usize,
    /// Member world ranks, indexed by communicator-local rank.
    members: Arc<Vec<usize>>,
    /// Inverse of `members`, indexed by world rank.
    local_of_world: Arc<Vec<Option<usize>>>,
    /// Collective invocation counter, shared by clones of this rank's
    /// handle. Collectives are program-ordered per communicator, so every
    /// member's counter agrees at each call; the any-source all-to-all
    /// folds it into its tag so a fast rank's *next* exchange can never be
    /// confused with a slow rank's current one.
    coll_seq: Arc<AtomicU32>,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank)
            .field("size", &self.members.len())
            .finish()
    }
}

impl Comm {
    pub(crate) fn world(inner: Arc<WorldInner>, rank: usize, size: usize) -> Self {
        let members: Vec<usize> = (0..size).collect();
        let local_of_world: Vec<Option<usize>> = (0..size).map(Some).collect();
        Comm {
            inner,
            ctx: 0,
            rank,
            members: Arc::new(members),
            local_of_world: Arc::new(local_of_world),
            coll_seq: Arc::new(AtomicU32::new(0)),
        }
    }

    pub(crate) fn derived(
        inner: Arc<WorldInner>,
        ctx: u32,
        rank: usize,
        members: Vec<usize>,
    ) -> Self {
        let world_size = inner.size;
        let mut local_of_world = vec![None; world_size];
        for (local, &w) in members.iter().enumerate() {
            local_of_world[w] = Some(local);
        }
        Comm {
            inner,
            ctx,
            rank,
            members: Arc::new(members),
            local_of_world: Arc::new(local_of_world),
            coll_seq: Arc::new(AtomicU32::new(0)),
        }
    }

    /// Next collective epoch on this communicator (per-rank program order).
    pub(crate) fn next_coll_epoch(&self) -> u32 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index in the underlying world.
    pub fn world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Snapshot run-wide transport statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Which delivery backend this world runs on.
    pub fn transport_kind(&self) -> crate::transport::TransportKind {
        self.inner.transport.kind()
    }

    // ---------------------------------------------------------------
    // Point-to-point
    // ---------------------------------------------------------------

    /// Send `payload` to local rank `dest` under `tag`. Never blocks
    /// (buffered semantics, like `MPI_Bsend` with unlimited buffer).
    ///
    /// # Panics
    /// Panics if `tag` has the top bit set (reserved for collectives) or
    /// `dest` is out of range.
    pub fn send<B: Into<Bytes>>(&self, dest: usize, tag: Tag, payload: B) {
        assert!(tag < crate::collectives::COLLECTIVE_TAG_BASE, "tag {tag:#x} is reserved");
        self.send_internal(dest, tag, payload.into().into());
    }

    /// Send a multi-part [`Payload`]: every part travels as the sender's
    /// refcounted allocation, so lending sub-slices of live buffers costs
    /// no copy. The receiver sees the concatenated stream (or the parts,
    /// via [`Comm::recv_parts`]).
    ///
    /// # Panics
    /// Panics if `tag` has the top bit set (reserved for collectives) or
    /// `dest` is out of range.
    pub fn send_parts(&self, dest: usize, tag: Tag, payload: Payload) {
        assert!(tag < crate::collectives::COLLECTIVE_TAG_BASE, "tag {tag:#x} is reserved");
        self.send_internal(dest, tag, payload);
    }

    /// Everything backend-independent that precedes delivery: the fault
    /// injector's verdict (taken *here*, before the transport, so drops,
    /// reorders, and kills — and the fault trace — are identical on every
    /// backend) and the wire envelope. `None` means the send was dropped.
    fn prepare_send(
        &self,
        dest: usize,
        tag: Tag,
        payload: Payload,
    ) -> Option<(usize, WireEnvelope, bool)> {
        let world_dest = self.members[dest];
        let world_src = self.members[self.rank];
        let wire_tag = make_wire_tag(self.ctx, tag);
        let mut front = false;
        if let Some(fs) = &self.inner.fault {
            match fs.pre_send(world_src, world_dest, wire_tag) {
                crate::fault::SendFate::Deliver => {}
                crate::fault::SendFate::DeliverFront => front = true,
                crate::fault::SendFate::Drop => return None,
                crate::fault::SendFate::Kill(k) => std::panic::panic_any(k),
            }
        }
        let sent_ns = if obsv::active() { obsv::clock::now_ns() } else { 0 };
        Some((world_dest, WireEnvelope { world_src, wire_tag, payload, sent_ns, placed: 0 }, front))
    }

    /// Accounting for a payload the transport accepted. Fires only after
    /// delivery, so a fault drop records nothing and a `WouldBlock`
    /// refusal records nothing — stats count what actually went out.
    fn record_sent(&self, len: usize) {
        self.inner.stats.record_send(len);
        // Observability mirrors TransportStats exactly: both fire after
        // fault drops, so histogram sums and StatsSnapshot agree by
        // construction (cross-checked in tests/obsv_accounting.rs).
        if obsv::active() {
            obsv::counter_add(obsv::Ctr::MsgsSent, 1);
            obsv::counter_add(obsv::Ctr::BytesSent, len as u64);
            obsv::hist_record(obsv::Hist::MsgSize, len as u64);
        }
    }

    pub(crate) fn send_internal(&self, dest: usize, tag: Tag, payload: Payload) {
        let Some((world_dest, env, front)) = self.prepare_send(dest, tag, payload) else {
            return;
        };
        let len = env.payload.len();
        self.inner.transport.deliver(world_dest, env, front);
        self.record_sent(len);
    }

    fn try_send_internal(&self, dest: usize, tag: Tag, payload: Payload) -> Result<(), SendError> {
        let Some((world_dest, env, front)) = self.prepare_send(dest, tag, payload) else {
            return Ok(()); // a fault drop is a completed send, not a refusal
        };
        let len = env.payload.len();
        match self.inner.transport.try_deliver(world_dest, env, front) {
            Ok(()) => {
                self.record_sent(len);
                Ok(())
            }
            Err(_env) => Err(SendError::WouldBlock),
        }
    }

    /// Nonblocking [`Comm::send`]: refuses with [`SendError::WouldBlock`]
    /// instead of blocking when the backend's bounded send path is full.
    /// The in-proc backend is unbounded and never refuses; the socket
    /// backend refuses once the destination's writer queue is at
    /// capacity — the backpressure signal `send` can only express by
    /// blocking.
    ///
    /// A refused send is not delivered (and not counted); callers retry
    /// or shed load. Note a fault-plan verdict consumed by a refused
    /// attempt is not replayed on the retry.
    pub fn try_send<B: Into<Bytes>>(
        &self,
        dest: usize,
        tag: Tag,
        payload: B,
    ) -> Result<(), SendError> {
        assert!(tag < crate::collectives::COLLECTIVE_TAG_BASE, "tag {tag:#x} is reserved");
        self.try_send_internal(dest, tag, payload.into().into())
    }

    /// Send a typed slice (copied into the message).
    pub(crate) fn send_slice<T: Pod>(&self, dest: usize, tag: Tag, data: &[T]) {
        self.send(dest, tag, pod::to_bytes(data));
    }

    /// Convenience alias for `send_slice::<u64>`.
    pub fn send_u64s(&self, dest: usize, tag: Tag, data: &[u64]) {
        self.send_slice(dest, tag, data);
    }

    fn matcher(&self, src: SrcSel, tag: TagSel) -> Matcher {
        let world_src = match src {
            SrcSel::Rank(local) => SrcSel::Rank(self.members[local]),
            SrcSel::Any => SrcSel::Any,
        };
        Matcher { ctx: self.ctx, src: world_src, tag }
    }

    fn localize_parts(&self, wire: WireEnvelope) -> PartsEnvelope {
        if wire.sent_ns != 0 {
            obsv::hist_record(
                obsv::Hist::MsgLatencyNs,
                obsv::clock::now_ns().saturating_sub(wire.sent_ns),
            );
        }
        let (_, tag) = crate::envelope::split_wire_tag(wire.wire_tag);
        let src = self.local_of_world[wire.world_src]
            .expect("message arrived from a non-member world rank on this context");
        PartsEnvelope { src, tag, payload: wire.payload, placed: wire.placed }
    }

    fn localize(&self, wire: WireEnvelope) -> Envelope {
        let pe = self.localize_parts(wire);
        // Flattening is free for single-part messages; a multi-part
        // message on this legacy path is gathered (and the copy counted).
        Envelope { src: pe.src, tag: pe.tag, payload: pe.payload.into_bytes() }
    }

    /// Is the given communicator-local rank still alive? Ranks only die
    /// under a fault plan ([`crate::FaultPlan::kill_rank`]) or by
    /// panicking inside [`crate::World`]'s chaos runner.
    pub fn peer_alive(&self, local: usize) -> bool {
        !self.inner.dead[self.members[local]].load(Ordering::Relaxed)
    }

    /// Predicate for receives: the awaited source is known dead *and* has
    /// nothing left in the delivery path toward this rank — messages sent
    /// before a kill stay receivable on every transport backend. A
    /// wildcard receive never aborts (any rank might still send).
    fn peer_dead(&self, m: &Matcher) -> impl Fn() -> bool + '_ {
        let src = m.src;
        let me = self.members[self.rank];
        move || match src {
            SrcSel::Rank(w) => {
                self.inner.dead[w].load(Ordering::Relaxed) && !self.inner.transport.in_flight(w, me)
            }
            SrcSel::Any => false,
        }
    }

    /// Blocking receive matching `(src, tag)`.
    ///
    /// If the awaited specific source rank dies (chaos runs) with no
    /// matching message queued, the receive can never complete; this rank
    /// then panics with a [`crate::PeerDied`] payload — the cascading
    /// failure a real MPI job experiences — rather than hanging forever.
    pub fn recv(&self, src: SrcSel, tag: TagSel) -> Envelope {
        let m = self.matcher(src, tag);
        match self.my_mailbox().pop_matching_until(&m, None, &self.peer_dead(&m)) {
            Ok(wire) => self.localize(wire),
            Err(_) => std::panic::panic_any(crate::fault::PeerDied {
                receiver: self.members[self.rank],
                peer: match m.src {
                    SrcSel::Rank(w) => w,
                    SrcSel::Any => unreachable!("wildcard receives never abort"),
                },
            }),
        }
    }

    /// Blocking receive with a deadline. Returns
    /// [`RecvError::TimedOut`] if no matching message arrives in time and
    /// [`RecvError::PeerDead`] as soon as the awaited specific source rank
    /// is known dead (with nothing matching queued) — so callers fail fast
    /// instead of burning the whole timeout on a peer that cannot reply.
    pub fn recv_timeout(
        &self,
        src: SrcSel,
        tag: TagSel,
        timeout: std::time::Duration,
    ) -> Result<Envelope, RecvError> {
        let m = self.matcher(src, tag);
        let deadline = std::time::Instant::now() + timeout;
        let wire = self.my_mailbox().pop_matching_until(&m, Some(deadline), &self.peer_dead(&m))?;
        Ok(self.localize(wire))
    }

    /// Nonblocking receive: returns a matching message if one is queued.
    pub fn try_recv(&self, src: SrcSel, tag: TagSel) -> Option<Envelope> {
        let m = self.matcher(src, tag);
        let wire = self.my_mailbox().try_pop_matching(&m)?;
        Some(self.localize(wire))
    }

    /// As [`Comm::recv`], but the sender's part structure is preserved:
    /// no flatten, no copy — the receiver holds the sender's refcounted
    /// allocations. This is the receive the zero-copy RPC reply path uses.
    pub fn recv_parts(&self, src: SrcSel, tag: TagSel) -> PartsEnvelope {
        let m = self.matcher(src, tag);
        match self.my_mailbox().pop_matching_until(&m, None, &self.peer_dead(&m)) {
            Ok(wire) => self.localize_parts(wire),
            Err(_) => std::panic::panic_any(crate::fault::PeerDied {
                receiver: self.members[self.rank],
                peer: match m.src {
                    SrcSel::Rank(w) => w,
                    SrcSel::Any => unreachable!("wildcard receives never abort"),
                },
            }),
        }
    }

    /// Any-source receive for collective internals: unlike a user wildcard
    /// receive (which never aborts — any rank might still send), a
    /// collective cannot complete once *any* member dies, so this receive
    /// aborts with [`crate::PeerDied`] as soon as some member is known
    /// dead with nothing matching queued. Keeps chaos runs from hanging
    /// inside the arrival-order all-to-all.
    pub(crate) fn recv_parts_collective_any(&self, tag: TagSel) -> PartsEnvelope {
        let m = self.matcher(SrcSel::Any, tag);
        let me = self.members[self.rank];
        let any_member_dead = || {
            self.members.iter().any(|&w| {
                self.inner.dead[w].load(Ordering::Relaxed) && !self.inner.transport.in_flight(w, me)
            })
        };
        match self.my_mailbox().pop_matching_until(&m, None, &any_member_dead) {
            Ok(wire) => self.localize_parts(wire),
            Err(_) => std::panic::panic_any(crate::fault::PeerDied {
                receiver: self.members[self.rank],
                peer: self
                    .members
                    .iter()
                    .copied()
                    .find(|&w| self.inner.dead[w].load(Ordering::Relaxed))
                    .unwrap_or(self.members[self.rank]),
            }),
        }
    }

    /// As [`Comm::recv_timeout`], preserving the sender's part structure.
    pub fn recv_timeout_parts(
        &self,
        src: SrcSel,
        tag: TagSel,
        timeout: std::time::Duration,
    ) -> Result<PartsEnvelope, RecvError> {
        let m = self.matcher(src, tag);
        let deadline = std::time::Instant::now() + timeout;
        let wire = self.my_mailbox().pop_matching_until(&m, Some(deadline), &self.peer_dead(&m))?;
        Ok(self.localize_parts(wire))
    }

    /// Receive a typed vector; returns `(source local rank, data)`.
    pub(crate) fn recv_vec<T: Pod>(&self, src: SrcSel, tag: TagSel) -> (usize, Vec<T>) {
        let env = self.recv(src, tag);
        (env.src, pod::from_bytes(&env.payload))
    }

    /// Convenience alias for `recv_vec::<u64>`.
    pub fn recv_u64s(&self, src: SrcSel, tag: TagSel) -> (usize, Vec<u64>) {
        self.recv_vec(src, tag)
    }

    /// Blocking probe: `(source local rank, tag, payload length)` of the
    /// next matching message, without consuming it.
    pub fn probe(&self, src: SrcSel, tag: TagSel) -> (usize, Tag, usize) {
        let m = self.matcher(src, tag);
        let (world_src, tag, len) = self.my_mailbox().wait_matching(&m);
        (self.local_of_world[world_src].expect("non-member source"), tag, len)
    }

    /// Nonblocking probe.
    pub fn iprobe(&self, src: SrcSel, tag: TagSel) -> Option<(usize, Tag, usize)> {
        let m = self.matcher(src, tag);
        let (world_src, tag, len) = self.my_mailbox().peek_matching(&m)?;
        Some((self.local_of_world[world_src].expect("non-member source"), tag, len))
    }

    /// Post `sink` as the destination of the next message from local rank
    /// `src` under `tag` whose body starts with the 8 bytes of `key` (an
    /// RPC reply's call id): on the socket backend the reader thread has
    /// the kernel write that message's body into the sink's memory and
    /// delivers a completion in its place ([`PartsEnvelope::placed`]). The
    /// in-proc backend delivers the message as sent, sink or not. Post
    /// before the message can be sent.
    pub fn post_sink(&self, src: usize, tag: Tag, key: u64, sink: Arc<dyn crate::RecvSink>) {
        self.my_mailbox().sinks().post(self.members[src], make_wire_tag(self.ctx, tag), key, sink);
    }

    /// Withdraw a sink [`Comm::post_sink`] posted, waiting for a
    /// placement through it to end: once this returns, nothing is written
    /// through it again. A sink that already took its message is gone.
    pub fn unpost_sink(&self, src: usize, tag: Tag, key: u64) {
        self.my_mailbox().sinks().unpost(self.members[src], make_wire_tag(self.ctx, tag), key);
    }

    fn my_mailbox(&self) -> &crate::mailbox::Mailbox {
        self.inner.transport.mailbox(self.members[self.rank])
    }

    // ---------------------------------------------------------------
    // Communicator management
    // ---------------------------------------------------------------

    /// Partition the communicator by `color`; ranks with equal color form a
    /// new communicator ordered by `(key, parent rank)`. Collective over
    /// all ranks of `self`.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        // Gather (color, key) from everyone.
        let all: Vec<(usize, usize)> = self
            .allgather_bytes(pod::to_bytes(&[color as u64, key as u64]))
            .iter()
            .map(|b| {
                let v = pod::from_bytes::<u64>(b);
                (v[0] as usize, v[1] as usize)
            })
            .collect();

        // Deterministically enumerate distinct colors in sorted order.
        let mut colors: Vec<usize> = all.iter().map(|&(c, _)| c).collect();
        colors.sort_unstable();
        colors.dedup();

        // Parent rank 0 allocates a contiguous block of context ids and
        // broadcasts the base so every new communicator gets a unique,
        // agreed-upon context.
        let base = if self.rank == 0 {
            let b = self.inner.next_ctx.fetch_add(colors.len() as u32, Ordering::Relaxed);
            self.bcast_bytes(0, Some(pod::to_bytes(&[u64::from(b)])));
            b
        } else {
            pod::from_bytes::<u64>(&self.bcast_bytes(0, None))[0] as u32
        };

        let color_idx = colors.binary_search(&color).expect("own color present");
        let ctx = base + color_idx as u32;

        // Members of my color, ordered by (key, parent rank), as world ranks.
        let mut group: Vec<(usize, usize)> = all
            .iter()
            .enumerate()
            .filter(|&(_, &(c, _))| c == color)
            .map(|(parent_rank, &(_, k))| (k, parent_rank))
            .collect();
        group.sort_unstable();
        let members: Vec<usize> = group.iter().map(|&(_, pr)| self.members[pr]).collect();
        let my_local = group
            .iter()
            .position(|&(_, pr)| pr == self.rank)
            .expect("calling rank is in its own color group");

        Comm::derived(Arc::clone(&self.inner), ctx, my_local, members)
    }
}

/// Why a nonblocking send did not go out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The backend's bounded send path is full; retry after draining.
    /// Only the socket backend ever reports this — in-proc sends are
    /// unbounded, preserving the original buffered-send semantics.
    WouldBlock,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::WouldBlock => write!(f, "send queue full (would block)"),
        }
    }
}

impl std::error::Error for SendError {}

/// Why a timed receive completed without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The deadline passed with no matching message.
    TimedOut,
    /// The awaited specific source rank died with no matching message
    /// queued; it can never reply.
    PeerDead,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::TimedOut => write!(f, "receive timed out"),
            RecvError::PeerDead => write!(f, "peer rank died"),
        }
    }
}

impl std::error::Error for RecvError {}

#[cfg(test)]
mod tests {
    use crate::envelope::{ANY_SOURCE, ANY_TAG};
    use crate::world::World;

    #[test]
    fn send_recv_roundtrip() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send_slice(1, 3, &[1.5f64, 2.5]);
            } else {
                let (src, v) = c.recv_vec::<f64>(0.into(), 3.into());
                assert_eq!(src, 0);
                assert_eq!(v, vec![1.5, 2.5]);
            }
        });
    }

    #[test]
    fn tag_selectivity() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send_u64s(1, 10, &[10]);
                c.send_u64s(1, 20, &[20]);
            } else {
                // Receive out of send order by tag.
                let (_, v20) = c.recv_u64s(ANY_SOURCE, 20.into());
                let (_, v10) = c.recv_u64s(ANY_SOURCE, 10.into());
                assert_eq!((v10[0], v20[0]), (10, 20));
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        World::run(4, |c| {
            if c.rank() == 0 {
                let mut seen: Vec<u64> =
                    (0..3).map(|_| c.recv_u64s(ANY_SOURCE, ANY_TAG).1[0]).collect();
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2, 3]);
            } else {
                c.send_u64s(0, c.rank() as u32, &[c.rank() as u64]);
            }
        });
    }

    #[test]
    fn pairwise_fifo_order() {
        World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u64 {
                    c.send_u64s(1, 1, &[i]);
                }
            } else {
                for i in 0..100u64 {
                    assert_eq!(c.recv_u64s(0.into(), 1.into()).1[0], i);
                }
            }
        });
    }

    #[test]
    fn try_recv_and_iprobe() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.barrier();
                c.send_u64s(1, 5, &[99]);
            } else {
                assert!(c.iprobe(ANY_SOURCE, ANY_TAG).is_none());
                assert!(c.try_recv(0.into(), 5.into()).is_none());
                c.barrier();
                let env = c.recv(0.into(), 5.into());
                assert_eq!(env.src, 0);
                assert_eq!(env.tag, 5);
            }
        });
    }

    #[test]
    fn multipart_send_delivers_sender_allocations() {
        use crate::payload::Payload;
        // Structure preservation is an in-proc property: the socket backend
        // flattens parts on the wire (byte identity across backends is pinned
        // by the conformance suite), so this test must not follow
        // SIMMPI_TRANSPORT.
        crate::world::World::builder(2).transport(crate::transport::TransportKind::InProc).run(
            |c| {
                if c.rank() == 0 {
                    let head = bytes::Bytes::from(vec![1u8, 2]);
                    let lent = bytes::Bytes::from(vec![3u8, 4, 5]);
                    c.send_parts(1, 9, Payload::from_parts(vec![head, lent]));
                    // A second copy for the legacy receive path.
                    let head = bytes::Bytes::from(vec![1u8, 2]);
                    let lent = bytes::Bytes::from(vec![3u8, 4, 5]);
                    c.send_parts(1, 9, Payload::from_parts(vec![head, lent]));
                } else {
                    // Parts-aware receive: structure preserved, nothing copied.
                    let env = c.recv_parts(0.into(), 9.into());
                    assert_eq!(env.payload.num_parts(), 2);
                    assert_eq!(&env.payload.to_bytes()[..], &[1, 2, 3, 4, 5]);
                    // Legacy receive: flattened to the concatenated stream.
                    let env = c.recv(0.into(), 9.into());
                    assert_eq!(&env.payload[..], &[1, 2, 3, 4, 5]);
                }
            },
        );
    }

    #[test]
    fn probe_reports_length_without_consuming() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 2, bytes::Bytes::from(vec![0u8; 17]));
            } else {
                let (src, tag, len) = c.probe(ANY_SOURCE, ANY_TAG);
                assert_eq!((src, tag, len), (0, 2, 17));
                let env = c.recv(ANY_SOURCE, ANY_TAG);
                assert_eq!(env.payload.len(), 17);
            }
        });
    }

    #[test]
    fn split_builds_disjoint_comms() {
        World::run(6, |c| {
            // Colors: even ranks vs odd ranks.
            let sub = c.split(c.rank() % 2, c.rank());
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), c.rank() / 2);
            assert_eq!(sub.world_rank(), c.rank());
            // Messages on sub do not leak: exchange within the subgroup.
            let next = (sub.rank() + 1) % sub.size();
            sub.send_u64s(next, 0, &[c.rank() as u64]);
            let (_, v) = sub.recv_u64s(ANY_SOURCE, 0.into());
            // Received from a same-parity rank.
            assert_eq!(v[0] % 2, (c.rank() % 2) as u64);
        });
    }

    #[test]
    fn split_respects_key_ordering() {
        World::run(4, |c| {
            // Reverse ordering via key.
            let sub = c.split(0, 100 - c.rank());
            assert_eq!(sub.rank(), c.size() - 1 - c.rank());
        });
    }

    #[test]
    fn dup_isolates_messages() {
        World::run(2, |c| {
            // A split with one color and the same keys duplicates the
            // communicator onto a fresh context.
            let d = c.split(0, c.rank());
            if c.rank() == 0 {
                c.send_u64s(1, 1, &[111]);
                d.send_u64s(1, 1, &[222]);
            } else {
                // Receive on the dup first: must get the dup's message even
                // though the world message arrived first.
                let (_, vd) = d.recv_u64s(0.into(), 1.into());
                let (_, vc) = c.recv_u64s(0.into(), 1.into());
                assert_eq!((vc[0], vd[0]), (111, 222));
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn reserved_tags_rejected() {
        // The per-rank panic ("tag is reserved") surfaces as a join failure.
        World::run(1, |c| c.send_u64s(0, 0x8000_0000, &[0]));
    }
}
