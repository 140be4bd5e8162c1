//! Workspace observability: per-rank spans, counters, and histograms with
//! Chrome-trace export.
//!
//! The paper's evaluation (§V-C) depends on attributing time to transport
//! phases — index, serve, query, redirect, fetch — per rank. This crate is
//! the one clock and event model every layer shares:
//!
//! * [`span`] / [`span_tagged`] record typed enter/exit pairs into a
//!   fixed-capacity per-lane ring ([`ring::EventRing`]) — RAII guards make
//!   spans strictly nested per lane by construction;
//! * [`counter_add`] bumps one of a fixed set of monotonic counters
//!   ([`Ctr`]) with a relaxed atomic add;
//! * [`hist_record`] feeds log2-bucket histograms ([`Hist`]) for message
//!   latencies and sizes;
//! * a [`Registry`] hands each rank thread a [`Recorder`] lane and merges
//!   everything into a [`Report`] after `World` join;
//! * [`Report::chrome_trace`] emits Chrome `trace_event` JSON (one track
//!   per rank, loadable in `chrome://tracing` / Perfetto) and
//!   [`Report::metrics_json`] a flat metrics document consumed by `bench`.
//!
//! ## Overhead contract
//!
//! With the default `record` feature **disabled** every record call is an
//! empty inline function — compile-time zero. Enabled but with no recorder
//! installed on the thread, a record call is one thread-local read.
//! Enabled and installed, a counter is an atomic `fetch_add`, a histogram
//! three, and a span edge a bounds-checked slot write into a
//! pre-allocated ring — never an allocation. The span *clock* stays
//! functional in all configurations because `lowfive`'s
//! `TransportProfile` seconds are derived from it.

#![warn(missing_docs)]

use std::cell::RefCell;

pub mod export;
pub mod hist;
pub mod json;
mod registry;
pub mod ring;
pub mod validate;

pub use hist::{bucket_hi, bucket_index, bucket_lo, HistData, NUM_BUCKETS};
pub use registry::{LaneReport, PhaseTotal, Recorder, Registry, Report};
pub use ring::{Event, EventKind, EventRing};

/// Process-wide monotonic clock. Every span in every crate stamps against
/// the same origin, so cross-rank timelines line up in the exported trace.
///
/// The clock is *virtualizable*: [`advance_ns`](clock::advance_ns)
/// injects simulated time on top of the wall-clock origin.
/// Deterministic timeout tests advance it explicitly; everything that
/// derives deadlines from [`now_ns`](clock::now_ns) (notably `diyblk`'s
/// RPC retry machinery) then observes the injected delay without real
/// waiting. The offset only ever grows, so the clock stays monotonic.
pub mod clock {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    static OFFSET_NS: AtomicU64 = AtomicU64::new(0);

    /// Nanoseconds since the first call in this process, plus all virtual
    /// time injected via [`advance_ns`].
    #[inline]
    pub fn now_ns() -> u64 {
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
            + OFFSET_NS.load(Ordering::Relaxed)
    }

    /// Advance virtual time by `delta` nanoseconds, process-wide.
    ///
    /// Deadlines already computed against [`now_ns`] expire sooner by
    /// exactly `delta`; code blocked in a quantized wait re-reads the
    /// clock within its poll interval and notices.
    pub fn advance_ns(delta: u64) {
        OFFSET_NS.fetch_add(delta, Ordering::Relaxed);
    }

    /// The clock-domain instant `timeout` from now (saturating).
    #[inline]
    pub fn deadline_after(timeout: Duration) -> u64 {
        now_ns().saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Transport phase a span belongs to. The vocabulary is fixed so per-phase
/// state lives in arrays, not maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Producer builds the distributed spatial index (Algorithm 1).
    Index,
    /// Producer answers consumer queries after file close (Algorithm 2).
    Serve,
    /// Consumer blocks in `open_file` until producers are ready.
    Open,
    /// Consumer-side dataset read against remote producers (Algorithm 3).
    Query,
    /// Query routing: cached owners or common-decomposition block owners.
    Redirect,
    /// Query fetch: the data rounds (block owners also report the owners).
    Fetch,
    /// One RPC from the client side, tagged with its call id.
    RpcCall,
    /// Server-side handling of one RPC, tagged with the same call id.
    RpcServe,
    /// One orchestra task body, tagged with the task id.
    Task,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 9] = [
        Phase::Index,
        Phase::Serve,
        Phase::Open,
        Phase::Query,
        Phase::Redirect,
        Phase::Fetch,
        Phase::RpcCall,
        Phase::RpcServe,
        Phase::Task,
    ];

    /// Stable trace/metrics key for this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Index => "index",
            Phase::Serve => "serve",
            Phase::Open => "open",
            Phase::Query => "query",
            Phase::Redirect => "redirect",
            Phase::Fetch => "fetch",
            Phase::RpcCall => "rpc_call",
            Phase::RpcServe => "rpc_serve",
            Phase::Task => "task",
        }
    }
}

/// Monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Ctr {
    /// Point-to-point payloads handed to the transport (mirrors
    /// `simmpi::TransportStats` messages).
    MsgsSent,
    /// Payload bytes handed to the transport (mirrors `TransportStats`).
    BytesSent,
    /// Barrier entries.
    CollBarrier,
    /// Broadcast entries (`bcast_bytes` / `bcast_one`).
    CollBcast,
    /// Gather entries (`gather_bytes`).
    CollGather,
    /// Scatter entries (`scatter_bytes`).
    CollScatter,
    /// Personalized all-to-all entries (`alltoall_bytes`).
    CollAlltoall,
    /// Allgather entries (`allgather_bytes` and typed wrappers).
    CollAllgather,
    /// Reduction entries (`reduce_one` / `allreduce_one`).
    CollReduce,
    /// Exclusive-scan entries (`exscan_u64`).
    CollExscan,
    /// RPC send attempts (every attempt of a retried call counts).
    RpcCalls,
    /// Fire-and-forget RPC notifications.
    RpcNotifies,
    /// Re-sent RPC attempts after a timeout.
    RpcRetries,
    /// RPC attempts that hit their deadline.
    RpcTimeouts,
    /// RPC attempts aborted because the peer was marked dead.
    RpcPeersDead,
    /// Producer serve sessions entered.
    ServeSessions,
    /// Orchestra task bodies started.
    TasksStarted,
    /// Orchestra task bodies finished.
    TasksFinished,
    /// Multi-call RPC fan-outs issued (`RpcClient::call_many`).
    RpcMultiCalls,
    /// Batched data requests sent on the pipelined consumer fetch path.
    FetchBatches,
    /// Consumer fetch-cache lookups answered locally (metadata or
    /// owner lists reused without a round trip).
    FetchCacheHits,
    /// Consumer fetch-cache lookups that had to go to the wire.
    FetchCacheMisses,
    /// Dataset-payload bytes memcpy'd on the transport path: multi-part
    /// payload flattens and intermediate reply copies. Header/metadata
    /// encoding, the write-time copy of a deep region and the final
    /// scatter into the caller's destination buffer do not count. The
    /// serve path lends every region, so it must keep this at **zero**
    /// for either ownership — the fig5 deep-vs-shallow A/B asserts it.
    BytesCopied,
    /// Frames handed to the simmpi socket transport's wire (zero on the
    /// in-proc backend, which delivers envelopes without framing).
    WireFramesSent,
    /// Bytes handed to the socket transport's wire: frame headers plus
    /// payloads. Compare against `bytes_sent` for framing overhead.
    WireBytesSent,
    /// Steps published into a stream series (counted once per step on the
    /// producer's rank 0, so lane sums stay exact for multi-rank tasks).
    StepsPublished,
    /// Steps evicted unconsumed by `DropOldest` back-pressure (producer
    /// rank 0 only, like `steps_published`).
    StepsDropped,
    /// Cumulative consumer lag observed at step delivery: for each
    /// delivered step, how many sequence numbers past the consumer's
    /// cursor it was (0 for an in-order `EveryStep` consumer).
    StepsLagged,
    /// Served files a producer dropped once their last expected consumer
    /// was done with them (tree, index entry, generation).
    FilesRetired,
    /// Served files that stayed resident at that point because
    /// `LowFiveProps::set_keep` matched them.
    FilesKept,
    /// Region and attribute bytes released by retirement on producers
    /// and by dropping imported trees at consumer `file_close`. Shallow
    /// regions count the bytes they stopped pinning.
    BytesRetired,
    /// Bytes of consumer read results that no producer's reply covered
    /// and that were therefore filled with zeros (the fill value of an
    /// unwritten region). Zero on any read whose selection the producers'
    /// regions cover; nonzero means someone read data nobody wrote.
    BytesZeroFilled,
    /// RPC frames dropped because they were too short for their header
    /// (a request under 12 bytes, a reply under 8). Zero unless a peer
    /// sent garbage on an RPC tag.
    RpcMalformed,
    /// Blocking receives that found nothing queued and were served while
    /// spinning, without parking (`simmpi`'s spin-then-park wait).
    MailboxSpinHits,
    /// Blocking receives that parked on the mailbox condvar: their spin
    /// budget ran out, or their selector's recent waits were too long to
    /// spin at all.
    MailboxParks,
    /// Consumer read-result bytes the socket reader thread wrote straight
    /// from the kernel into their slots (a posted receive): on the socket
    /// backend, every byte of every read that a producer covered. Zero
    /// in-proc, where the rank thread places every reply.
    BytesPlaced,
}

/// Number of [`Ctr`] variants (the fixed width of every counter array).
pub const NUM_CTRS: usize = 36;

impl Ctr {
    /// Every counter, in declaration order.
    pub const ALL: [Ctr; NUM_CTRS] = [
        Ctr::MsgsSent,
        Ctr::BytesSent,
        Ctr::CollBarrier,
        Ctr::CollBcast,
        Ctr::CollGather,
        Ctr::CollScatter,
        Ctr::CollAlltoall,
        Ctr::CollAllgather,
        Ctr::CollReduce,
        Ctr::CollExscan,
        Ctr::RpcCalls,
        Ctr::RpcNotifies,
        Ctr::RpcRetries,
        Ctr::RpcTimeouts,
        Ctr::RpcPeersDead,
        Ctr::ServeSessions,
        Ctr::TasksStarted,
        Ctr::TasksFinished,
        Ctr::RpcMultiCalls,
        Ctr::FetchBatches,
        Ctr::FetchCacheHits,
        Ctr::FetchCacheMisses,
        Ctr::BytesCopied,
        Ctr::WireFramesSent,
        Ctr::WireBytesSent,
        Ctr::StepsPublished,
        Ctr::StepsDropped,
        Ctr::StepsLagged,
        Ctr::FilesRetired,
        Ctr::FilesKept,
        Ctr::BytesRetired,
        Ctr::BytesZeroFilled,
        Ctr::RpcMalformed,
        Ctr::MailboxSpinHits,
        Ctr::MailboxParks,
        Ctr::BytesPlaced,
    ];

    /// Stable metrics-JSON key for this counter.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::MsgsSent => "msgs_sent",
            Ctr::BytesSent => "bytes_sent",
            Ctr::CollBarrier => "coll_barrier",
            Ctr::CollBcast => "coll_bcast",
            Ctr::CollGather => "coll_gather",
            Ctr::CollScatter => "coll_scatter",
            Ctr::CollAlltoall => "coll_alltoall",
            Ctr::CollAllgather => "coll_allgather",
            Ctr::CollReduce => "coll_reduce",
            Ctr::CollExscan => "coll_exscan",
            Ctr::RpcCalls => "rpc_calls",
            Ctr::RpcNotifies => "rpc_notifies",
            Ctr::RpcRetries => "rpc_retries",
            Ctr::RpcTimeouts => "rpc_timeouts",
            Ctr::RpcPeersDead => "rpc_peers_dead",
            Ctr::ServeSessions => "serve_sessions",
            Ctr::TasksStarted => "tasks_started",
            Ctr::TasksFinished => "tasks_finished",
            Ctr::RpcMultiCalls => "rpc_multi_calls",
            Ctr::FetchBatches => "fetch_batches",
            Ctr::FetchCacheHits => "fetch_cache_hits",
            Ctr::FetchCacheMisses => "fetch_cache_misses",
            Ctr::BytesCopied => "bytes_copied",
            Ctr::WireFramesSent => "wire_frames_sent",
            Ctr::WireBytesSent => "wire_bytes_sent",
            Ctr::StepsPublished => "steps_published",
            Ctr::StepsDropped => "steps_dropped",
            Ctr::StepsLagged => "steps_lagged",
            Ctr::FilesRetired => "files_retired",
            Ctr::FilesKept => "files_kept",
            Ctr::BytesRetired => "bytes_retired",
            Ctr::BytesZeroFilled => "bytes_zero_filled",
            Ctr::RpcMalformed => "rpc_malformed",
            Ctr::MailboxSpinHits => "mailbox_spin_hits",
            Ctr::MailboxParks => "mailbox_parks",
            Ctr::BytesPlaced => "bytes_placed",
        }
    }
}

/// Log2-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Point-to-point payload sizes in bytes; `sum` must equal
    /// `TransportStats` bytes for the same run (cross-checked in tests).
    MsgSize,
    /// Send-to-delivery latency per message, nanoseconds.
    MsgLatencyNs,
    /// Client-observed RPC round-trip latency, nanoseconds.
    RpcLatencyNs,
    /// RPC reply body sizes, bytes.
    RpcReplySize,
    /// Dataset bytes served per producer-side data reply.
    BytesServed,
    /// Dataset bytes fetched per consumer-side data request.
    BytesFetched,
    /// Concurrent in-flight requests per `call_many` fan-out (pipeline
    /// depth of the consumer fetch path).
    RpcInflight,
    /// `(dataset, selection)` entries per batched data request.
    FetchBatchEntries,
    /// Per-rank payload bytes entering each collective call (the local
    /// contribution, not the wire traffic the schedule generates).
    CollBytes,
    /// Wall time spent inside each collective call, nanoseconds.
    CollLatencyNs,
    /// Publish-to-delivery latency per streamed step, nanoseconds
    /// (consumer receipt of the announce minus the producer's publish
    /// stamp; both sides share the process clock).
    StepLatencyNs,
    /// Wall time executing one `M_DATA_BATCH` request, nanoseconds
    /// (owner lookup and the reply frame of all entries of the batch).
    ServeBatchNs,
}

/// Number of [`Hist`] variants (the fixed width of every histogram array).
pub const NUM_HISTS: usize = 12;

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; NUM_HISTS] = [
        Hist::MsgSize,
        Hist::MsgLatencyNs,
        Hist::RpcLatencyNs,
        Hist::RpcReplySize,
        Hist::BytesServed,
        Hist::BytesFetched,
        Hist::RpcInflight,
        Hist::FetchBatchEntries,
        Hist::CollBytes,
        Hist::CollLatencyNs,
        Hist::StepLatencyNs,
        Hist::ServeBatchNs,
    ];

    /// Stable metrics-JSON key for this histogram.
    pub fn name(self) -> &'static str {
        match self {
            Hist::MsgSize => "msg_size",
            Hist::MsgLatencyNs => "msg_latency_ns",
            Hist::RpcLatencyNs => "rpc_latency_ns",
            Hist::RpcReplySize => "rpc_reply_size",
            Hist::BytesServed => "bytes_served",
            Hist::BytesFetched => "bytes_fetched",
            Hist::RpcInflight => "rpc_inflight",
            Hist::FetchBatchEntries => "fetch_batch_entries",
            Hist::CollBytes => "coll_bytes",
            Hist::CollLatencyNs => "coll_latency_ns",
            Hist::StepLatencyNs => "step_latency_ns",
            Hist::ServeBatchNs => "serve_batch_ns",
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install `recorder` as this thread's sink; restored to the previous
/// recorder (usually none) when the guard drops. Rank threads call this on
/// entry; helper threads install a [`Recorder::fork`] of their parent's.
pub fn install(recorder: Recorder) -> InstallGuard {
    let prev = CURRENT.with(|cur| cur.borrow_mut().replace(recorder));
    InstallGuard { prev }
}

/// RAII guard returned by [`install`].
pub struct InstallGuard {
    prev: Option<Recorder>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|cur| *cur.borrow_mut() = self.prev.take());
    }
}

/// The recorder installed on this thread, if any.
pub fn current() -> Option<Recorder> {
    CURRENT.with(|cur| cur.borrow().clone())
}

/// True when recording is compiled in and a recorder is installed here.
#[inline]
pub fn active() -> bool {
    cfg!(feature = "record") && CURRENT.with(|cur| cur.borrow().is_some())
}

/// Add `delta` to counter `c` on this thread's recorder, if any.
#[inline]
pub fn counter_add(c: Ctr, delta: u64) {
    if !cfg!(feature = "record") {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(rec) = cur.borrow().as_ref() {
            rec.add(c, delta);
        }
    });
}

/// Record `value` into histogram `h` on this thread's recorder, if any.
#[inline]
pub fn hist_record(h: Hist, value: u64) {
    if !cfg!(feature = "record") {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(rec) = cur.borrow().as_ref() {
            rec.record_hist(h, value);
        }
    });
}

#[inline]
fn record_edge(kind: EventKind, phase: Phase, tag: u64, t_ns: u64) {
    if !cfg!(feature = "record") {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(rec) = cur.borrow().as_ref() {
            rec.push_event(Event { kind, phase, tag, t_ns });
        }
    });
}

/// Open an untagged span; the returned guard closes it on drop.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    span_tagged(phase, 0)
}

/// Open a span carrying a correlation tag (RPC call id, task id, …).
#[inline]
pub fn span_tagged(phase: Phase, tag: u64) -> SpanGuard {
    let start_ns = clock::now_ns();
    record_edge(EventKind::Enter, phase, tag, start_ns);
    SpanGuard { phase, tag, start_ns, closed: false }
}

/// RAII span. Always measures elapsed time (the profile APIs depend on
/// it); ring events are recorded only when a recorder is installed.
#[must_use = "dropping immediately produces a zero-length span"]
pub struct SpanGuard {
    phase: Phase,
    tag: u64,
    start_ns: u64,
    closed: bool,
}

impl SpanGuard {
    /// Clock-domain timestamp at which the span opened.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Close the span now; returns elapsed seconds.
    pub fn finish(mut self) -> f64 {
        self.close();
        (clock::now_ns().saturating_sub(self.start_ns)) as f64 * 1e-9
    }

    /// Close the span now; returns elapsed nanoseconds.
    pub fn finish_ns(mut self) -> u64 {
        self.close();
        clock::now_ns().saturating_sub(self.start_ns)
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            record_edge(EventKind::Exit, self.phase, self.tag, clock::now_ns());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = clock::now_ns();
        let b = clock::now_ns();
        assert!(b >= a);
    }

    #[test]
    fn clock_advance_is_visible_and_monotonic() {
        let before = clock::now_ns();
        clock::advance_ns(5_000_000);
        let after = clock::now_ns();
        assert!(after >= before + 5_000_000, "advance must add at least the delta");
        let d = clock::deadline_after(std::time::Duration::from_millis(1));
        assert!(d >= after + 1_000_000);
    }

    #[test]
    fn record_without_recorder_is_a_noop() {
        counter_add(Ctr::MsgsSent, 1);
        hist_record(Hist::MsgSize, 42);
        let sp = span(Phase::Index);
        assert!(sp.finish() >= 0.0);
        assert!(!active());
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "needs event recording")]
    fn install_scopes_and_restores() {
        let reg = Registry::new();
        {
            let _g = install(reg.recorder(0));
            assert!(active());
            counter_add(Ctr::MsgsSent, 2);
            {
                let _inner = install(reg.recorder(1));
                counter_add(Ctr::MsgsSent, 5);
            }
            // Restored to rank 0 after the inner guard dropped.
            counter_add(Ctr::BytesSent, 9);
        }
        assert!(!active());
        let report = reg.report();
        assert_eq!(report.counter(Ctr::MsgsSent), 7);
        assert_eq!(report.counter(Ctr::BytesSent), 9);
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "needs event recording")]
    fn spans_pair_up_in_report() {
        let reg = Registry::new();
        {
            let _g = install(reg.recorder(3));
            let outer = span(Phase::Query);
            let inner = span_tagged(Phase::Fetch, 77);
            drop(inner);
            drop(outer);
        }
        let report = reg.report();
        let totals = report.phase_totals();
        let query = totals.iter().find(|t| t.phase == Phase::Query).expect("query total");
        let fetch = totals.iter().find(|t| t.phase == Phase::Fetch).expect("fetch total");
        assert_eq!(query.spans, 1);
        assert_eq!(fetch.spans, 1);
        assert!(query.seconds >= fetch.seconds);
    }

    #[test]
    fn names_are_unique() {
        let phases: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(phases.len(), Phase::ALL.len());
        let ctrs: std::collections::HashSet<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(ctrs.len(), NUM_CTRS);
        let hists: std::collections::HashSet<_> = Hist::ALL.iter().map(|h| h.name()).collect();
        assert_eq!(hists.len(), NUM_HISTS);
    }
}
