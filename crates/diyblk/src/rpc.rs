//! A minimal remote-procedure-call abstraction over the message substrate.
//!
//! The paper: "the index, serve, and query functions are written using a
//! custom remote procedure call (RPC) abstraction implemented over MPI."
//! Here a *server* rank sits in a [`RpcServer::serve`] loop handling
//! requests from any rank of a (typically world) communicator; a *client*
//! issues blocking calls and fire-and-forget notifications. Requests carry
//! a method id so one loop can multiplex many procedures, and the server's
//! handler decides when the loop terminates (e.g. when every consumer has
//! said "done").
//!
//! ## Wire format and call ids
//!
//! Every request frame is `[u32 method][u64 call_id][args]`; every reply
//! frame is `[u64 call_id][body]`. A call id of 0 marks a notification —
//! the server never replies to it. Nonzero ids come from a process-global
//! counter, so a reply can always be matched to the exact call that asked
//! for it. This matters once timeouts exist: if a call times out and the
//! client retries, the server may still answer the *first* request later;
//! the client recognises the stale id and discards that reply instead of
//! mistaking it for the answer to the retry.
//!
//! Framing allocates nothing of its own. A request's header goes into the
//! headroom every [`Writer`] reserves in front of the arguments it
//! encodes ([`RpcClient::call_frame`], [`Call::frame`]), so the frame
//! leaves in the buffer its arguments were written into; callers holding
//! plain byte slices get them copied into such a buffer once. Replies
//! travel as multi-part [`Payload`]s: the 8-byte call id is its own part —
//! a slice of the request's own call-id bytes, so it costs no allocation
//! either — followed by the handler's body parts unchanged. A zero-copy
//! server ([`ServeOutcome::ReplyParts`]) can therefore *lend* refcounted
//! slices of buffers it already owns — dataset regions — and the client
//! receives those very allocations; nothing between the handler and the
//! consumer flattens or re-encodes the body. The flattened byte stream is
//! identical to the historical contiguous frame, so the wire format is
//! unchanged.
//!
//! ## Timeouts and retries
//!
//! [`RpcClient::call`] blocks forever, matching MPI's default behaviour.
//! [`RpcClient::call_retry`] bounds the wait (a one-attempt
//! [`RetryPolicy`]) and layers bounded, immediate resends on top, for
//! *idempotent* methods (queries, fetches). A dead server (detected by
//! the fault layer) fails fast with [`RpcError::PeerDead`] — retrying
//! cannot help, the rank is gone for the rest of the run.
//!
//! A frame too short to carry its header (under 12 bytes on the request
//! tag, under 8 on the reply tag) is dropped and counted under
//! `rpc_malformed`; the serve loop keeps serving and a waiting client
//! keeps waiting. No peer's bytes can panic either side.
//!
//! Deadlines are measured on `obsv::clock` — the observability layer's
//! virtual clock — not on raw `Instant::now()`. The clock normally tracks
//! real time, but tests (and the simulator) can jump it forward with
//! `obsv::clock::advance_ns`, and every pending RPC deadline moves with
//! it: waits are chopped into short liveness-poll quanta and the deadline
//! is re-checked against the virtual clock at each wake, so a clock
//! advance is noticed within one quantum instead of after a real-time
//! sleep of the full timeout.
//!
//! ## Pipelined multi-calls
//!
//! [`RpcClient::call_many`] issues a whole fan-out of requests at once —
//! one per [`Call`] — and completes them *as the replies arrive*, in
//! whatever order the servers answer. Each in-flight request keeps its own
//! call id, per-attempt deadline, and bounded-retry state, so a timeout or
//! a death on one server never stalls the others; while one server is
//! still computing its reply, the client is already consuming replies from
//! the rest. This is the primitive under LowFive's pipelined consumer
//! fetch path (see `lowfive::dist`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use minih5::codec::Writer;
use simmpi::{Comm, Payload, RecvError, RecvSink, SrcSel, ANY_SOURCE};

/// Tags used by the RPC layer (ordinary user tags, below the collective
/// range; chosen high to stay clear of application traffic).
const TAG_REQUEST: u32 = 0x7F00_0001;
const TAG_REPLY: u32 = 0x7F00_0002;

/// Call id of a notification: no reply is ever sent for it.
const NOTIFY_ID: u64 = 0;

/// Upper bound on any single blocking receive in the timed client paths.
/// Short enough that both a peer death (wildcard receives cannot abort on
/// death) and a virtual-clock jump (`obsv::clock::advance_ns`) are noticed
/// promptly; long enough to stay off the scheduler's back.
const LIVENESS_POLL: Duration = Duration::from_millis(25);

/// Process-global call-id source. Ranks are threads in one process, so a
/// single counter keeps every in-flight call distinguishable.
static NEXT_CALL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_call_id() -> u64 {
    NEXT_CALL_ID.fetch_add(1, Ordering::Relaxed)
}

/// The request frame `[u32 method][u64 call_id][args]`, its header
/// written into the headroom in front of `args`: one buffer, no copy.
fn encode_request(method: u32, call_id: u64, mut args: Writer) -> Bytes {
    args.prepend(&call_id.to_le_bytes());
    args.prepend(&method.to_le_bytes());
    args.finish()
}

/// A sent request frame again under a fresh call id, for a resend: the
/// frame was handed to the transport, so this is a copy — paid only when
/// an attempt timed out.
fn reframe_request(req: &Bytes, call_id: u64) -> Bytes {
    let mut v = req.to_vec();
    v[4..12].copy_from_slice(&call_id.to_le_bytes());
    Bytes::from(v)
}

/// One decoded request: method, call id, the call id's own bytes (a
/// slice of the frame, which a reply reuses as its id part), and the
/// argument bytes.
struct Request {
    method: u32,
    call_id: u64,
    id_part: Bytes,
    args: Bytes,
}

/// Split a request frame in place, or `None` (and a `rpc_malformed`
/// count) if it is too short for its 12-byte header.
fn decode_request(payload: &Bytes) -> Option<Request> {
    let Some(head) = payload.get(..12) else {
        obsv::counter_add(obsv::Ctr::RpcMalformed, 1);
        return None;
    };
    let (method, call_id) = head.split_at(4);
    Some(Request {
        method: u32::from_le_bytes(method.try_into().ok()?),
        call_id: u64::from_le_bytes(call_id.try_into().ok()?),
        id_part: payload.slice(4..12),
        args: payload.slice(12..),
    })
}

/// Prefix a reply body with its call id *without touching the body*: the
/// id becomes its own 8-byte part in front of the handler's parts, which
/// travel as the same refcounted allocations. Flattened, the frame is
/// byte-identical to the historical contiguous `[u64 call_id][body]`
/// encoding.
fn encode_reply_parts(id_part: Bytes, mut body: Payload) -> Payload {
    body.prepend(id_part);
    body
}

/// Split a reply frame into `(call_id, body)` in place: an 8-byte prefix
/// peek plus a part-slicing `advance` — no body byte is copied. `None`
/// (and a `rpc_malformed` count) if the frame is shorter than its call id.
fn decode_reply_parts(mut payload: Payload) -> Option<(u64, Payload)> {
    let mut id = [0u8; 8];
    if !payload.copy_prefix(&mut id) {
        obsv::counter_add(obsv::Ctr::RpcMalformed, 1);
        return None;
    }
    payload.advance(8);
    Some((u64::from_le_bytes(id), payload))
}

/// Identity of one incoming request: who called, and which call it was.
/// Servers that defer a request keep the `Caller` and answer later via
/// [`send_reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caller {
    /// Caller's rank in the serving communicator.
    pub rank: usize,
    /// The request's call id (0 for notifications).
    pub call_id: u64,
}

/// Why a bounded call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply arrived within the allotted time (after any retries).
    TimedOut,
    /// The server rank is dead; no retry can succeed.
    PeerDead,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::TimedOut => write!(f, "rpc call timed out"),
            RpcError::PeerDead => write!(f, "rpc server rank is dead"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Bounded-retry parameters for [`RpcClient::call_retry`]. Only use with
/// idempotent methods: a retry re-executes the request on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be at least 1.
    pub attempts: u32,
    /// Per-attempt reply timeout. A timed-out attempt is resent at once.
    pub timeout: Duration,
}

impl RetryPolicy {
    /// `attempts` tries of `timeout` each.
    pub fn new(attempts: u32, timeout: Duration) -> Self {
        RetryPolicy { attempts, timeout }
    }
}

/// What the server should do after handling one request.
pub enum ServeOutcome {
    /// Send this reply to the caller and keep serving.
    Reply(Bytes),
    /// Send this multi-part reply and keep serving. The parts are lent,
    /// not copied: a handler answering from shallow dataset regions pushes
    /// refcounted slices of the producer's buffers and they travel to the
    /// caller as-is.
    ReplyParts(Payload),
    /// No reply (the request was a notification, or is being deferred);
    /// keep serving.
    Continue,
    /// Send this reply (if `Some`) and exit the serve loop.
    Stop(Option<Bytes>),
}

/// Server side: a loop dispatching incoming requests to a handler.
pub struct RpcServer<'a> {
    comm: &'a Comm,
}

impl<'a> RpcServer<'a> {
    /// Serve requests arriving on `comm`.
    pub fn new(comm: &'a Comm) -> Self {
        RpcServer { comm }
    }

    fn reply_to(&self, caller: Caller, id_part: Bytes, body: Payload) {
        // Notifications carry no reply channel; answering one would strand
        // a frame in the caller's mailbox forever.
        if caller.call_id != NOTIFY_ID {
            self.comm.send_parts(caller.rank, TAG_REPLY, encode_reply_parts(id_part, body));
        }
    }

    /// Handle requests until the handler returns [`ServeOutcome::Stop`].
    /// The handler receives `(caller, method id, argument bytes)`.
    pub fn serve<F>(&self, mut handler: F)
    where
        F: FnMut(Caller, u32, Bytes) -> ServeOutcome,
    {
        loop {
            let env = self.comm.recv(ANY_SOURCE, TAG_REQUEST.into());
            let Some(req) = decode_request(&env.payload) else {
                continue;
            };
            let caller = Caller { rank: env.src, call_id: req.call_id };
            // The serve-side span carries the same call id as the client's
            // call span, so a trace viewer can correlate the two tracks.
            let sp = obsv::span_tagged(obsv::Phase::RpcServe, req.call_id);
            let outcome = handler(caller, req.method, req.args);
            drop(sp);
            match outcome {
                ServeOutcome::Reply(reply) => self.reply_to(caller, req.id_part, reply.into()),
                ServeOutcome::ReplyParts(reply) => self.reply_to(caller, req.id_part, reply),
                ServeOutcome::Continue => {}
                ServeOutcome::Stop(reply) => {
                    if let Some(r) = reply {
                        self.reply_to(caller, req.id_part, r.into());
                    }
                    return;
                }
            }
        }
    }
}

/// Send a reply outside the normal handler return path. Servers that
/// defer a request (returning [`ServeOutcome::Continue`] and remembering
/// the [`Caller`]) use this to answer later — e.g. a DataSpaces server
/// holding a query until every producer has registered the version.
pub fn send_reply(comm: &Comm, caller: Caller, reply: Bytes) {
    send_reply_parts(comm, caller, reply.into());
}

/// As [`send_reply`], for a reply still open in the [`Writer`] it was
/// encoded into: the call id goes into the writer's headroom, so a
/// deferred reply leaves in one buffer, like an immediate one.
pub fn send_reply_frame(comm: &Comm, caller: Caller, mut reply: Writer) {
    if caller.call_id != NOTIFY_ID {
        reply.prepend(&caller.call_id.to_le_bytes());
        comm.send(caller.rank, TAG_REPLY, reply.finish());
    }
}

/// As [`send_reply`], but the body is a multi-part [`Payload`] whose parts
/// travel to the caller without being gathered into one buffer. A
/// deferred reply no longer has its request, so its call id part is a
/// fresh copy.
pub(crate) fn send_reply_parts(comm: &Comm, caller: Caller, reply: Payload) {
    if caller.call_id != NOTIFY_ID {
        let id_part = Bytes::copy_from_slice(&caller.call_id.to_le_bytes());
        comm.send_parts(caller.rank, TAG_REPLY, encode_reply_parts(id_part, reply));
    }
}

/// Client side: blocking calls and notifications to server ranks.
pub struct RpcClient<'a> {
    comm: &'a Comm,
}

impl<'a> RpcClient<'a> {
    /// Issue calls over `comm`.
    pub fn new(comm: &'a Comm) -> Self {
        RpcClient { comm }
    }

    /// Call `method` on `server` and block for the reply.
    pub fn call(&self, server: usize, method: u32, args: &[u8]) -> Bytes {
        self.call_payload(server, method, args).into_bytes()
    }

    /// As [`RpcClient::call`], but hand back the reply body with the
    /// server's part structure intact — the zero-copy fetch path scatters
    /// straight out of these parts instead of flattening them first.
    pub fn call_payload(&self, server: usize, method: u32, args: &[u8]) -> Payload {
        self.await_reply(server, method, args.into())
    }

    /// Bounded-retry call for *idempotent* methods: up to
    /// `policy.attempts` sends, each waiting `policy.timeout`, each resent
    /// as soon as the previous one times out. A dead server
    /// short-circuits to [`RpcError::PeerDead`] — resending to a corpse
    /// cannot succeed. Stale replies (to earlier timed-out attempts) are
    /// discarded; the clock keeps running until a current reply shows up.
    ///
    /// Deadlines live on the `obsv::clock` virtual clock; a
    /// `clock::advance_ns` jump past one is honoured within one liveness
    /// poll.
    pub fn call_retry(
        &self,
        server: usize,
        method: u32,
        args: &[u8],
        policy: RetryPolicy,
    ) -> Result<Bytes, RpcError> {
        self.call_frame(server, method, args.into(), Some(policy)).map(Payload::into_bytes)
    }

    /// Call `method` on `server` with arguments encoded into `args`, whose
    /// headroom takes the request header — the frame leaves in the
    /// buffer the arguments were written into. With no policy the call
    /// blocks for the reply, as [`RpcClient::call_payload`]; with one it is
    /// [`RpcClient::call_retry`] without flattening the reply. Returns the
    /// reply body with the server's part structure intact.
    pub fn call_frame(
        &self,
        server: usize,
        method: u32,
        args: Writer,
        policy: Option<RetryPolicy>,
    ) -> Result<Payload, RpcError> {
        let Some(policy) = policy else {
            return Ok(self.await_reply(server, method, args));
        };
        assert!(policy.attempts >= 1, "retry policy needs at least one attempt");
        let mut call_id = fresh_call_id();
        let mut req = encode_request(method, call_id, args);
        let mut attempt = 1;
        loop {
            match self.attempt(server, call_id, req.clone(), policy.timeout) {
                Err(RpcError::TimedOut) if attempt < policy.attempts => {
                    attempt += 1;
                    obsv::counter_add(obsv::Ctr::RpcRetries, 1);
                    call_id = fresh_call_id();
                    req = reframe_request(&req, call_id);
                }
                result => return result,
            }
        }
    }

    /// Send one request and block, without a deadline, for its reply.
    fn await_reply(&self, server: usize, method: u32, args: Writer) -> Payload {
        let call_id = fresh_call_id();
        obsv::counter_add(obsv::Ctr::RpcCalls, 1);
        let sp = obsv::span_tagged(obsv::Phase::RpcCall, call_id);
        self.comm.send(server, TAG_REQUEST, encode_request(method, call_id, args));
        loop {
            let env = self.comm.recv_parts(SrcSel::Rank(server), TAG_REPLY.into());
            match decode_reply_parts(env.payload) {
                Some((id, body)) if id == call_id => {
                    obsv::hist_record(obsv::Hist::RpcReplySize, body.len() as u64);
                    obsv::hist_record(obsv::Hist::RpcLatencyNs, sp.finish_ns());
                    return body;
                }
                // A stale reply to an earlier timed-out call from this
                // rank, or a malformed frame.
                _ => {}
            }
        }
    }

    /// One attempt of a bounded call: send the framed request `req`
    /// (carrying `call_id`) and wait up to `timeout` for its reply.
    /// Stale replies (to earlier timed-out calls) are discarded without
    /// consuming the deadline's meaning: the clock keeps running until
    /// *this* call's reply shows up. Fails fast with
    /// [`RpcError::PeerDead`] if the server rank is known dead.
    ///
    /// The deadline lives on the `obsv::clock` virtual clock; a
    /// `clock::advance_ns` jump past it is honoured within one liveness
    /// poll.
    fn attempt(
        &self,
        server: usize,
        call_id: u64,
        req: Bytes,
        timeout: Duration,
    ) -> Result<Payload, RpcError> {
        obsv::counter_add(obsv::Ctr::RpcCalls, 1);
        let sp = obsv::span_tagged(obsv::Phase::RpcCall, call_id);
        self.comm.send(server, TAG_REQUEST, req);
        let deadline_ns = obsv::clock::deadline_after(timeout);
        loop {
            let now_ns = obsv::clock::now_ns();
            if now_ns >= deadline_ns {
                obsv::counter_add(obsv::Ctr::RpcTimeouts, 1);
                return Err(RpcError::TimedOut);
            }
            // Wait in short quanta: the real-time receive cannot observe a
            // virtual-clock jump, so never park longer than one poll.
            let wait = Duration::from_nanos(deadline_ns - now_ns).min(LIVENESS_POLL);
            match self.comm.recv_timeout_parts(SrcSel::Rank(server), TAG_REPLY.into(), wait) {
                Ok(env) => match decode_reply_parts(env.payload) {
                    Some((id, body)) if id == call_id => {
                        obsv::hist_record(obsv::Hist::RpcReplySize, body.len() as u64);
                        obsv::hist_record(obsv::Hist::RpcLatencyNs, sp.finish_ns());
                        return Ok(body);
                    }
                    // Stale or malformed: keep waiting.
                    _ => {}
                },
                // Re-check the virtual deadline at the top of the loop.
                Err(RecvError::TimedOut) => {}
                Err(RecvError::PeerDead) => {
                    obsv::counter_add(obsv::Ctr::RpcPeersDead, 1);
                    return Err(RpcError::PeerDead);
                }
            }
        }
    }

    /// Send a request without waiting for (or expecting) a reply.
    pub fn notify(&self, server: usize, method: u32, args: &[u8]) {
        self.notify_frame(server, method, args.into());
    }

    /// [`RpcClient::notify`] with arguments encoded into `args`, whose
    /// headroom takes the request header.
    pub fn notify_frame(&self, server: usize, method: u32, args: Writer) {
        obsv::counter_add(obsv::Ctr::RpcNotifies, 1);
        self.comm.send(server, TAG_REQUEST, encode_request(method, NOTIFY_ID, args));
    }

    /// Issue every request in `calls` at once and complete them as the
    /// replies arrive, invoking `on_reply(index, result)` once per call in
    /// **completion order** (the index is the call's position in `calls`).
    ///
    /// With `policy: None` each call waits indefinitely, like
    /// [`RpcClient::call`] — except that a server known dead fails that
    /// call fast with [`RpcError::PeerDead`] instead of hanging the whole
    /// fan-out. With a [`RetryPolicy`], every call independently gets
    /// `policy.attempts` tries of `policy.timeout` each, exactly like
    /// [`RpcClient::call_retry`] — but a retry of one call proceeds
    /// concurrently with the still-pending others instead of serializing
    /// behind them. Only use a policy with *idempotent* methods: a retry
    /// re-executes the request.
    ///
    /// The calls are consumed: each request is framed in its own
    /// arguments' buffer. Stale replies (to earlier timed-out attempts,
    /// from this or any previous call on this rank) are recognized by call
    /// id and discarded; a reply is matched to its call by a scan of the
    /// fan-out, which is as wide as the servers it asks. Requests to the
    /// *same* server stay FIFO on its serve loop, so batching per server
    /// and fanning out across servers is the intended usage.
    ///
    /// A call with a sink ([`Call::sink`]) has it posted under each
    /// attempt's call id before the request leaves, and withdrawn when
    /// the attempt ends — answered, timed out and resent, or failed. On
    /// the socket backend the reader thread then writes the reply body
    /// wherever the sink puts it, and `on_reply` gets an *empty* body:
    /// what was placed is the sink's to report. A reply that arrives
    /// while no sink is posted for it comes as sent.
    pub fn call_many<F>(&self, calls: Vec<Call>, policy: Option<RetryPolicy>, mut on_reply: F)
    where
        F: FnMut(usize, Result<Payload, RpcError>),
    {
        if calls.is_empty() {
            return;
        }
        if let Some(p) = policy {
            assert!(p.attempts >= 1, "retry policy needs at least one attempt");
        }
        obsv::counter_add(obsv::Ctr::RpcMultiCalls, 1);
        obsv::hist_record(obsv::Hist::RpcInflight, calls.len() as u64);
        let _sp = obsv::span(obsv::Phase::RpcCall);

        /// Where one fan-out entry currently is. Times are `obsv::clock`
        /// virtual nanoseconds, so a clock advance moves every pending
        /// deadline at once.
        enum SlotState {
            /// Request is on the wire; waiting for the reply to `call_id`.
            Waiting { call_id: u64, deadline_ns: Option<u64> },
            /// Completed (reply delivered or error reported).
            Done,
        }
        struct Slot {
            server: usize,
            /// The request as last sent, kept for a resend.
            req: Bytes,
            /// Where the reply goes, posted under each attempt's call id.
            sink: Option<Arc<dyn RecvSink>>,
            /// Resends still allowed after the current attempt.
            attempts_left: u32,
            sent_ns: u64,
            state: SlotState,
        }

        let send = |slot: &mut Slot, call_id: u64| {
            obsv::counter_add(obsv::Ctr::RpcCalls, 1);
            if let Some(sink) = &slot.sink {
                self.comm.post_sink(slot.server, TAG_REPLY, call_id, Arc::clone(sink));
            }
            slot.sent_ns = obsv::clock::now_ns();
            self.comm.send(slot.server, TAG_REQUEST, slot.req.clone());
            slot.state = SlotState::Waiting {
                call_id,
                deadline_ns: policy.map(|p| obsv::clock::deadline_after(p.timeout)),
            };
        };
        let mut slots: Vec<Slot> = calls
            .into_iter()
            .map(|c| {
                let call_id = fresh_call_id();
                let mut slot = Slot {
                    server: c.server,
                    req: encode_request(c.method, call_id, c.args),
                    sink: c.sink,
                    attempts_left: policy.map(|p| p.attempts - 1).unwrap_or(0),
                    sent_ns: 0,
                    state: SlotState::Done, // placeholder until the first send
                };
                send(&mut slot, call_id);
                slot
            })
            .collect();
        let mut remaining = slots.len();
        // An attempt that is over — answered, timed out, or its server
        // dead — takes its sink with it: a late reply to it is then
        // delivered as sent, recognised as stale and dropped, and never
        // written anywhere.
        let unpost = |slot: &Slot| {
            if let (Some(_), SlotState::Waiting { call_id, .. }) = (&slot.sink, &slot.state) {
                self.comm.unpost_sink(slot.server, TAG_REPLY, *call_id);
            }
        };

        while remaining > 0 {
            let now_ns = obsv::clock::now_ns();
            // Housekeeping pass: dead peers and expired deadlines.
            // Completion never touches other slots, so one pass per wake
            // suffices.
            for (i, slot) in slots.iter_mut().enumerate() {
                if matches!(slot.state, SlotState::Done) {
                    continue;
                }
                if !self.comm.peer_alive(slot.server) {
                    unpost(slot);
                    slot.state = SlotState::Done;
                    remaining -= 1;
                    obsv::counter_add(obsv::Ctr::RpcPeersDead, 1);
                    on_reply(i, Err(RpcError::PeerDead));
                    continue;
                }
                match slot.state {
                    SlotState::Waiting { deadline_ns: Some(d), .. } if d <= now_ns => {
                        obsv::counter_add(obsv::Ctr::RpcTimeouts, 1);
                        unpost(slot);
                        if slot.attempts_left == 0 {
                            slot.state = SlotState::Done;
                            remaining -= 1;
                            on_reply(i, Err(RpcError::TimedOut));
                        } else {
                            slot.attempts_left -= 1;
                            obsv::counter_add(obsv::Ctr::RpcRetries, 1);
                            let call_id = fresh_call_id();
                            slot.req = reframe_request(&slot.req, call_id);
                            send(slot, call_id);
                        }
                    }
                    _ => {}
                }
            }
            if remaining == 0 {
                break;
            }
            // Sleep until the nearest deadline (capped by the liveness
            // poll — the real-time receive cannot observe a virtual-clock
            // jump), or until any reply lands.
            let mut wake_ns = now_ns.saturating_add(LIVENESS_POLL.as_nanos() as u64);
            for slot in &slots {
                if let SlotState::Waiting { deadline_ns: Some(d), .. } = slot.state {
                    wake_ns = wake_ns.min(d);
                }
            }
            match self.comm.recv_timeout_parts(
                SrcSel::Any,
                TAG_REPLY.into(),
                Duration::from_nanos(wake_ns.saturating_sub(now_ns)),
            ) {
                Ok(env) => {
                    // Unknown id: stale reply to an earlier timed-out
                    // attempt — discard, like a malformed frame.
                    let Some((id, body)) = decode_reply_parts(env.payload) else { continue };
                    let waiting_for = |s: &Slot| matches!(s.state, SlotState::Waiting { call_id, .. } if call_id == id);
                    if let Some(i) = slots.iter().position(waiting_for) {
                        unpost(&slots[i]);
                        obsv::hist_record(
                            obsv::Hist::RpcReplySize,
                            (body.len() + env.placed) as u64,
                        );
                        obsv::hist_record(
                            obsv::Hist::RpcLatencyNs,
                            obsv::clock::now_ns().saturating_sub(slots[i].sent_ns),
                        );
                        slots[i].state = SlotState::Done;
                        remaining -= 1;
                        on_reply(i, Ok(body));
                    }
                }
                // Deadlines are handled at the top of the loop; a
                // wildcard receive never reports PeerDead.
                Err(RecvError::TimedOut) | Err(RecvError::PeerDead) => {}
            }
        }
    }

    /// As [`RpcClient::call_many`], but collect the results into a vector
    /// parallel to `calls` (index `i` holds call `i`'s outcome). Replies
    /// are still consumed as they arrive; only the return is ordered.
    pub fn call_many_collect(
        &self,
        calls: &[Call],
        policy: Option<RetryPolicy>,
    ) -> Vec<Result<Bytes, RpcError>> {
        let mut out: Vec<Result<Bytes, RpcError>> = vec![Err(RpcError::TimedOut); calls.len()];
        self.call_many(calls.to_vec(), policy, |i, r| out[i] = r.map(Payload::into_bytes));
        out
    }
}

/// One outgoing request of a [`RpcClient::call_many`] fan-out.
#[derive(Clone)]
pub struct Call {
    /// Server rank in the client's communicator.
    pub server: usize,
    /// Method id dispatched by the server's handler.
    pub method: u32,
    /// Serialized arguments, with headroom for the request header.
    pub args: Writer,
    /// Where the reply's body goes, if not to `on_reply`.
    sink: Option<Arc<dyn RecvSink>>,
}

impl std::fmt::Debug for Call {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Call")
            .field("server", &self.server)
            .field("method", &self.method)
            .field("args", &self.args)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Call {
    /// Build one fan-out entry from argument bytes (copied once, into a
    /// buffer with room for the request header).
    pub fn new(server: usize, method: u32, args: impl AsRef<[u8]>) -> Self {
        Call::frame(server, method, args.as_ref().into())
    }

    /// Build one fan-out entry from arguments encoded into `args`.
    pub fn frame(server: usize, method: u32, args: Writer) -> Self {
        Call { server, method, args, sink: None }
    }

    /// Receive the reply into `sink` (see [`RpcClient::call_many`]).
    pub fn sink(mut self, sink: Arc<dyn RecvSink>) -> Self {
        self.sink = Some(sink);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{FaultPlan, World};
    use std::time::Instant;

    const M_ECHO: u32 = 1;
    const M_ADD: u32 = 2;
    const M_DONE: u32 = 3;

    #[test]
    fn echo_and_stateful_server() {
        World::run(3, |c| {
            if c.rank() == 0 {
                // Server: echoes, accumulates, stops after 2 DONEs.
                let mut sum = 0u64;
                let mut done = 0;
                RpcServer::new(&c).serve(|_caller, method, args| match method {
                    M_ECHO => ServeOutcome::Reply(args),
                    M_ADD => {
                        sum += u64::from_le_bytes(args[..8].try_into().unwrap());
                        ServeOutcome::Reply(Bytes::copy_from_slice(&sum.to_le_bytes()))
                    }
                    M_DONE => {
                        done += 1;
                        if done == 2 {
                            ServeOutcome::Stop(None)
                        } else {
                            ServeOutcome::Continue
                        }
                    }
                    m => panic!("unknown method {m}"),
                });
                sum
            } else {
                let rpc = RpcClient::new(&c);
                let echoed = rpc.call(0, M_ECHO, b"ping");
                assert_eq!(&echoed[..], b"ping");
                let v = (c.rank() as u64) * 10;
                let _ = rpc.call(0, M_ADD, &v.to_le_bytes());
                rpc.notify(0, M_DONE, &[]);
                0
            }
        })
        .into_iter()
        .take(1)
        .for_each(|sum| assert_eq!(sum, 30));
    }

    #[test]
    fn many_clients_one_server() {
        World::run(8, |c| {
            if c.rank() == 0 {
                let mut remaining = 7;
                RpcServer::new(&c).serve(|caller, method, _args| match method {
                    M_ECHO => ServeOutcome::Reply(Bytes::copy_from_slice(
                        &(caller.rank as u64).to_le_bytes(),
                    )),
                    M_DONE => {
                        remaining -= 1;
                        if remaining == 0 {
                            ServeOutcome::Stop(None)
                        } else {
                            ServeOutcome::Continue
                        }
                    }
                    _ => unreachable!(),
                });
            } else {
                let rpc = RpcClient::new(&c);
                for _ in 0..5 {
                    let r = rpc.call(0, M_ECHO, &[]);
                    assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), c.rank() as u64);
                }
                rpc.notify(0, M_DONE, &[]);
            }
        });
    }

    #[test]
    fn short_request_is_dropped_and_serving_continues() {
        let reg = obsv::Registry::new();
        World::builder(2).observe(reg.clone()).run(|c| {
            if c.rank() == 0 {
                RpcServer::new(&c).serve(|_caller, _method, args| ServeOutcome::Stop(Some(args)));
            } else {
                // Three bytes on the request tag: no room for the 12-byte
                // header. The serve loop must drop it, not die on it.
                c.send(0, TAG_REQUEST, Bytes::from_static(&[1, 2, 3]));
                let reply = RpcClient::new(&c)
                    .call_retry(0, M_ECHO, b"after", RetryPolicy::new(1, Duration::from_secs(10)))
                    .expect("the server outlives the short frame");
                assert_eq!(&reply[..], b"after");
            }
        });
        assert_eq!(reg.report().counter(obsv::Ctr::RpcMalformed), 1);
    }

    #[test]
    fn short_reply_is_dropped_and_the_call_waits_on() {
        // One world per call flavour. The server sends 5 bytes on the
        // reply tag, too short for a call id, then the real reply.
        for flavour in 0..3 {
            let reg = obsv::Registry::new();
            World::builder(2).observe(reg.clone()).run(|c| {
                if c.rank() == 0 {
                    RpcServer::new(&c).serve(|caller, _method, args| {
                        c.send(caller.rank, TAG_REPLY, Bytes::from_static(&[9; 5]));
                        ServeOutcome::Stop(Some(args))
                    });
                } else {
                    let rpc = RpcClient::new(&c);
                    let timeout = Duration::from_secs(10);
                    let calls = [Call::new(0, M_ECHO, Bytes::from_static(b"real"))];
                    let reply = match flavour {
                        0 => rpc.call(0, M_ECHO, b"real"),
                        1 => rpc
                            .call_retry(0, M_ECHO, b"real", RetryPolicy::new(1, timeout))
                            .expect("real reply"),
                        _ => rpc.call_many_collect(&calls, None).remove(0).expect("real reply"),
                    };
                    assert_eq!(&reply[..], b"real", "flavour {flavour}");
                }
            });
            assert_eq!(reg.report().counter(obsv::Ctr::RpcMalformed), 1, "flavour {flavour}");
        }
    }

    #[test]
    fn notifications_are_never_answered() {
        World::run(2, |c| {
            if c.rank() == 0 {
                // A buggy-looking handler that replies to everything: the
                // reply to the notification must be suppressed.
                RpcServer::new(&c).serve(|caller, method, args| {
                    if method == M_DONE {
                        ServeOutcome::Stop(Some(args))
                    } else {
                        assert_eq!(caller.call_id, NOTIFY_ID);
                        ServeOutcome::Reply(args)
                    }
                });
            } else {
                let rpc = RpcClient::new(&c);
                rpc.notify(0, M_ECHO, b"no reply expected");
                // If the server (wrongly) answered the notification, that
                // frame would be the first TAG_REPLY in our mailbox and
                // the call below would mismatch ids forever; instead the
                // stale-discard loop never sees it because it was never
                // sent.
                let r = rpc.call(0, M_DONE, b"done");
                assert_eq!(&r[..], b"done");
            }
        });
    }

    #[test]
    fn call_timeout_expires_without_server() {
        World::run(2, |c| {
            if c.rank() == 0 {
                // Deliberately deaf server: never receives.
                c.barrier();
            } else {
                let rpc = RpcClient::new(&c);
                let err = rpc
                    .call_retry(0, M_ECHO, &[], RetryPolicy::new(1, Duration::from_millis(50)))
                    .expect_err("nobody is serving");
                assert_eq!(err, RpcError::TimedOut);
                c.barrier();
            }
        });
    }

    #[test]
    fn stale_reply_is_discarded_by_retry() {
        World::run(2, |c| {
            if c.rank() == 0 {
                // Stall long enough before the first reply that the
                // client's first attempt times out, then serve promptly
                // until the client says done. The client's later attempts
                // must skip the stale reply (first call id) and accept a
                // fresh one.
                let server = RpcServer::new(&c);
                let mut first = true;
                server.serve(|_caller, method, args| {
                    if method == M_DONE {
                        return ServeOutcome::Stop(None);
                    }
                    if std::mem::take(&mut first) {
                        std::thread::sleep(Duration::from_millis(120));
                    }
                    ServeOutcome::Reply(args)
                });
            } else {
                let rpc = RpcClient::new(&c);
                let policy = RetryPolicy::new(8, Duration::from_millis(60));
                let reply = rpc
                    .call_retry(0, M_ECHO, b"payload", policy)
                    .expect("a later attempt must succeed");
                assert_eq!(&reply[..], b"payload");
                rpc.notify(0, M_DONE, &[]);
            }
        });
    }

    #[test]
    fn call_many_completes_out_of_order() {
        // Three servers answer with per-server delays (slowest first in
        // the call list); the fan-out must deliver every reply, tagged
        // with the right index, as the replies arrive — the fast server's
        // answer is consumed while the slow one is still sleeping. The
        // completion *order* proves the pipelining (a serial client would
        // complete in call order); no wall-clock assertion is needed, so
        // the test is immune to scheduler noise and virtual-clock jumps.
        World::run(4, |c| {
            if c.rank() < 3 {
                let delay = Duration::from_millis(40 * (2 - c.rank() as u64));
                RpcServer::new(&c).serve(move |_caller, method, args| {
                    if method == M_DONE {
                        return ServeOutcome::Stop(None);
                    }
                    std::thread::sleep(delay);
                    ServeOutcome::Reply(args)
                });
            } else {
                let rpc = RpcClient::new(&c);
                let calls: Vec<Call> =
                    (0..3).map(|s| Call::new(s, M_ECHO, Bytes::from(vec![s as u8]))).collect();
                let mut order = Vec::new();
                rpc.call_many(calls, None, |i, r| {
                    assert_eq!(&r.expect("live servers reply").into_bytes()[..], &[i as u8]);
                    order.push(i);
                });
                // Rank 2 replies immediately, rank 0 sleeps 80 ms: the
                // instant reply must complete before the slowest server's,
                // out of call order.
                assert_eq!(order.first(), Some(&2), "fastest server completes first: {order:?}");
                assert_eq!(order.last(), Some(&0), "slowest server completes last: {order:?}");
                let mut sorted = order;
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2]);
                for s in 0..3 {
                    rpc.notify(s, M_DONE, &[]);
                }
            }
        });
    }

    #[test]
    fn call_timeout_honours_virtual_clock() {
        // A deaf server and a 4-second deadline — but the deadline lives
        // on the obsv virtual clock, and a helper jumps that clock 5
        // seconds forward after ~60 ms of real time. The call must time
        // out almost immediately in real time, proving deadlines are
        // measured on the virtual clock rather than Instant::now().
        World::run(2, |c| {
            if c.rank() == 0 {
                // Deliberately deaf server: never receives.
                c.barrier();
            } else {
                let rpc = RpcClient::new(&c);
                let t0 = Instant::now();
                let advancer = std::thread::spawn(|| {
                    std::thread::sleep(Duration::from_millis(60));
                    obsv::clock::advance_ns(5_000_000_000);
                });
                let err = rpc
                    .call_retry(0, M_ECHO, &[], RetryPolicy::new(1, Duration::from_secs(4)))
                    .expect_err("the virtual deadline has passed");
                assert_eq!(err, RpcError::TimedOut);
                assert!(
                    t0.elapsed() < Duration::from_secs(2),
                    "timed out on real time, not the virtual clock: {:?}",
                    t0.elapsed()
                );
                advancer.join().unwrap();
                c.barrier();
            }
        });
    }

    #[test]
    fn call_many_collect_preserves_input_order() {
        World::run(3, |c| {
            if c.rank() < 2 {
                let me = c.rank() as u64;
                RpcServer::new(&c).serve(move |_caller, method, _args| {
                    if method == M_DONE {
                        ServeOutcome::Stop(None)
                    } else {
                        ServeOutcome::Reply(Bytes::copy_from_slice(&me.to_le_bytes()))
                    }
                });
            } else {
                let rpc = RpcClient::new(&c);
                // Two calls to each server, interleaved.
                let calls: Vec<Call> =
                    (0..4).map(|i| Call::new(i % 2, M_ECHO, Bytes::new())).collect();
                let got = rpc.call_many_collect(&calls, None);
                assert_eq!(got.len(), 4);
                for (i, r) in got.iter().enumerate() {
                    let r = r.as_ref().expect("reply");
                    let server = u64::from_le_bytes(r[..8].try_into().unwrap());
                    assert_eq!(server, (i % 2) as u64, "reply {i} routed to wrong slot");
                }
                rpc.notify(0, M_DONE, &[]);
                rpc.notify(1, M_DONE, &[]);
            }
        });
    }

    #[test]
    fn call_many_retries_after_timeout() {
        World::run(3, |c| {
            if c.rank() < 2 {
                // Each server stalls its first reply past the per-attempt
                // timeout; the fan-out must retry both concurrently and
                // accept the fresh replies while discarding the stale ones.
                let server = RpcServer::new(&c);
                let mut first = true;
                server.serve(|_caller, method, args| {
                    if method == M_DONE {
                        return ServeOutcome::Stop(None);
                    }
                    if std::mem::take(&mut first) {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    ServeOutcome::Reply(args)
                });
            } else {
                let rpc = RpcClient::new(&c);
                let calls = vec![
                    Call::new(0, M_ECHO, Bytes::from_static(b"a")),
                    Call::new(1, M_ECHO, Bytes::from_static(b"b")),
                ];
                let policy = RetryPolicy::new(8, Duration::from_millis(50));
                let got = rpc.call_many_collect(&calls, Some(policy));
                assert_eq!(&got[0].as_ref().expect("retried")[..], b"a");
                assert_eq!(&got[1].as_ref().expect("retried")[..], b"b");
                rpc.notify(0, M_DONE, &[]);
                rpc.notify(1, M_DONE, &[]);
            }
        });
    }

    #[test]
    fn call_many_times_out_per_call() {
        World::run(3, |c| {
            if c.rank() == 0 {
                // Healthy server.
                RpcServer::new(&c).serve(|_caller, method, args| {
                    if method == M_DONE {
                        ServeOutcome::Stop(None)
                    } else {
                        ServeOutcome::Reply(args)
                    }
                });
            } else if c.rank() == 1 {
                // Deaf server: swallows every request without replying,
                // until told to stop.
                RpcServer::new(&c).serve(|_caller, method, _args| {
                    if method == M_DONE {
                        ServeOutcome::Stop(None)
                    } else {
                        ServeOutcome::Continue
                    }
                });
            } else {
                let rpc = RpcClient::new(&c);
                let calls = vec![
                    Call::new(0, M_ECHO, Bytes::from_static(b"ok")),
                    Call::new(1, M_ECHO, Bytes::from_static(b"lost")),
                ];
                let policy = RetryPolicy::new(2, Duration::from_millis(60));
                let got = rpc.call_many_collect(&calls, Some(policy));
                assert_eq!(&got[0].as_ref().expect("server 0 lives")[..], b"ok");
                assert_eq!(got[1], Err(RpcError::TimedOut), "deaf server must time out");
                rpc.notify(0, M_DONE, &[]);
                rpc.notify(1, M_DONE, &[]);
            }
        });
    }

    #[test]
    fn call_many_survives_one_dead_server() {
        let out = World::builder(3).fault_plan(FaultPlan::new(11).kill_rank(1, 1)).run_chaos(|c| {
            if c.rank() == 0 {
                RpcServer::new(&c).serve(|_caller, method, args| {
                    if method == M_DONE {
                        ServeOutcome::Stop(None)
                    } else {
                        ServeOutcome::Reply(args)
                    }
                });
            } else if c.rank() == 1 {
                // Dies on its first send (the reply to the fan-out).
                RpcServer::new(&c).serve(|_caller, _m, args| ServeOutcome::Reply(args));
                unreachable!("killed while replying");
            } else {
                let rpc = RpcClient::new(&c);
                let calls = vec![
                    Call::new(0, M_ECHO, Bytes::from_static(b"live")),
                    Call::new(1, M_ECHO, Bytes::from_static(b"doomed")),
                ];
                // Generous timeout: dead-peer detection must fail the
                // second call fast, without wedging the first.
                let policy = RetryPolicy::new(50, Duration::from_secs(5));
                let t0 = Instant::now();
                let got = rpc.call_many_collect(&calls, Some(policy));
                assert_eq!(&got[0].as_ref().expect("live server replies")[..], b"live");
                assert_eq!(got[1], Err(RpcError::PeerDead));
                assert!(t0.elapsed() < Duration::from_secs(30));
                rpc.notify(0, M_DONE, &[]);
            }
        });
        assert_eq!(out.deaths.len(), 1);
        assert!(out.deaths[0].injected);
    }

    #[test]
    fn dead_server_fails_fast() {
        use std::time::Instant;
        let out = World::builder(2).fault_plan(FaultPlan::new(7).kill_rank(0, 1)).run_chaos(|c| {
            if c.rank() == 0 {
                // Dies on its first send (the reply).
                RpcServer::new(&c).serve(|_caller, _m, args| ServeOutcome::Reply(args));
                unreachable!("killed while replying");
            } else {
                let rpc = RpcClient::new(&c);
                let t0 = Instant::now();
                let err = rpc
                    .call_retry(0, M_ECHO, &[], RetryPolicy::new(100, Duration::from_secs(5)))
                    .expect_err("server died");
                assert_eq!(err, RpcError::PeerDead);
                // Fail-fast: nowhere near 100 x 5s.
                assert!(t0.elapsed() < Duration::from_secs(30));
            }
        });
        assert_eq!(out.deaths.len(), 1);
        assert!(out.deaths[0].injected);
    }

    /// A sink that keeps every body it is handed.
    #[derive(Default)]
    struct Keep {
        bodies: std::sync::Mutex<Vec<Vec<u8>>>,
    }

    impl RecvSink for Keep {
        fn place(&self, body: &mut simmpi::FrameBody<'_>) {
            let mut b = vec![0u8; body.remaining()];
            body.read_exact(&mut b).expect("a whole frame");
            self.bodies.lock().unwrap().push(b);
        }
    }

    /// The server answers the first attempt only once the retry has
    /// arrived, so its reply reaches the client after that attempt's sink
    /// was withdrawn: it is dropped as stale, and only the retry's reply
    /// goes through the sink — which the client's callback sees as an
    /// empty body, with the bytes at the sink.
    #[test]
    fn a_stale_reply_never_reaches_the_sink() {
        World::builder(2).transport(simmpi::TransportKind::Socket).run(|c| {
            if c.rank() == 0 {
                let mut first = None;
                RpcServer::new(&c).serve(|caller, _, _| match first.take() {
                    None => {
                        first = Some(caller);
                        ServeOutcome::Continue
                    }
                    Some(stale) => {
                        send_reply(&c, stale, Bytes::from_static(b"stale!"));
                        ServeOutcome::Stop(Some(Bytes::from_static(b"fresh")))
                    }
                });
            } else {
                let sink = Arc::new(Keep::default());
                let reg = obsv::Registry::new();
                let _rec = obsv::install(reg.recorder(1));
                let call = Call::new(0, M_ECHO, b"q").sink(sink.clone());
                let mut replies = Vec::new();
                let policy = RetryPolicy::new(2, Duration::from_millis(50));
                RpcClient::new(&c).call_many(vec![call], Some(policy), |i, r| {
                    replies.push((i, r.expect("the retry is answered").len()))
                });
                assert_eq!(replies, [(0, 0)], "placed: the callback gets an empty body");
                assert_eq!(
                    *sink.bodies.lock().unwrap(),
                    [b"fresh".to_vec()],
                    "only the live reply"
                );
                let report = reg.report();
                assert_eq!(report.counter(obsv::Ctr::RpcRetries), 1);
                // The reply size is the frame's, sink or not.
                assert_eq!(report.hist(obsv::Hist::RpcReplySize).sum, 5);
                // The stale reply was delivered as sent, then dropped.
                assert!(c.try_recv(0.into(), TAG_REPLY.into()).is_none());
            }
        });
    }
}
