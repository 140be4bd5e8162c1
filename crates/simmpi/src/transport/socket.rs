//! Socket backend: envelopes cross a real wire.
//!
//! Topology, per destination rank `d` (all inside one process for tests,
//! but nothing below assumes it):
//!
//! ```text
//! Comm::send ─▶ Link[d] (bounded frame queue) ─▶ writer thread ─▶ socket
//!                                                                   │
//! mailbox[d] ◀─ reader thread (seq check, window, push/push_front) ◀┘
//! ```
//!
//! * One listener per rank (a Unix-domain socket in a per-world temp
//!   directory), connected at world construction.
//! * One **writer thread** per destination consuming that destination's
//!   bounded [`Link`] queue — the bound is what gives [`crate::Comm`] a
//!   real backpressure signal ([`crate::SendError::WouldBlock`]).
//! * One **reader thread** per destination demuxing frames into the
//!   destination's [`Mailbox`], verifying each header (source rank,
//!   per-source sequence number, length) and honoring the mailbox receive
//!   window ([`Mailbox::wait_below`]) so a slow receiver backs pressure up
//!   the wire. A header it cannot accept ends the link as EOF does
//!   ([`cut_link`]): no peer's bytes can panic the reader or size an
//!   allocation.
//!
//! Multi-part payloads are written as they are held — header and parts go
//! to the kernel as one `writev` vector ([`write_all_vectored`]; at most
//! [`IOV_MAX`] slices per call, looping on partial writes), so there is no
//! gather copy on the send side (`BytesCopied` stays untouched) and a
//! frame costs one syscall where the socket buffer has room, not one per
//! part. On the wire the frame is `len` contiguous bytes, and the reader
//! receives them one of two ways:
//!
//! * **Into the receiver's memory**, when the receiving rank posted a
//!   sink for the frame (`crate::sink`; an RPC client posts one per call
//!   id of a data read). The reader reads the body's 8-byte key, hands
//!   the rest to the sink, which has the kernel write each payload byte
//!   straight into its slot of the caller's result (`readv`), and pushes
//!   a completion — the key and the count of bytes placed — in place of
//!   the body. The kernel's copy is the only write of those bytes in
//!   user space. What the sink leaves unread is drained.
//! * **Into a body of its own** otherwise: a buffer it has only
//!   *reserved* (the stream reads into its spare capacity without zeroing
//!   it), so the kernel's copy is the first write of those bytes, handed
//!   to the mailbox as the allocation itself. A payload-sized body comes
//!   from the reader's own [`BufPool`]: once the receiving rank has
//!   dropped an earlier body, its allocation carries the next one, so a
//!   steady stream of frames allocates nothing. Its old bytes are never
//!   read; the kernel overwrites the `len` bytes a frame declares.
//!
//! The fault injector's reorder crosses the wire as the frame header's
//! [`FRONT_FLAG`]; frames stay FIFO on the wire (sequence numbers remain
//! consecutive) and the *reader* applies the front-of-mailbox insertion.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::bufpool::BufPool;
use crate::envelope::WireEnvelope;
use crate::mailbox::Mailbox;
use crate::payload::Payload;
use crate::sink::{FrameBody, IoVec, WireRead, IOV_MAX};

use super::frame::{next_seq, FrameHeader, FRONT_FLAG, HDR_LEN};
use super::{SocketConfig, Transport, TransportKind};

extern "C" {
    fn readv(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
}

impl WireRead for UnixStream {
    unsafe fn read_uninit(&mut self, iov: &[IoVec]) -> std::io::Result<usize> {
        let count = iov.len().min(IOV_MAX) as i32;
        // SAFETY: `IoVec` is laid out as the C `iovec`, `count` entries
        // of it are valid to read, and every entry points into memory the
        // caller lends exclusively for this call (this function's own
        // contract); the kernel writes at most `len` bytes through each.
        let n = unsafe { readv(self.as_raw_fd(), iov.as_ptr(), count) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

/// One frame awaiting its writer thread.
struct QueuedFrame {
    header: FrameHeader,
    payload: Payload,
}

struct LinkQueue {
    frames: VecDeque<QueuedFrame>,
    /// Next sequence counter per *source* world rank (frames from one
    /// source stay FIFO on the link, so assignment order under this lock
    /// is wire order; the reader verifies).
    next_seq: Vec<u32>,
    closed: bool,
}

/// The bounded send queue feeding one destination's writer thread.
struct Link {
    q: Mutex<LinkQueue>,
    /// Signaled when a frame is queued (writer wakes).
    ready: Condvar,
    /// Signaled when a frame is consumed (blocked senders wake).
    space: Condvar,
    cap: usize,
    /// Next sequence counter the reader *has already pushed into the
    /// mailbox*, per source world rank (the delivered mirror of
    /// [`LinkQueue::next_seq`]). `next_seq[s] != delivered[s]` means frames
    /// from `s` are still in flight — queued, on the wire, or held at the
    /// receive window — which the death-abort predicate must wait out so
    /// messages sent before a kill stay receivable, exactly as in-proc.
    delivered: Vec<AtomicU32>,
    /// The reader ended the link on a frame it could not accept: nothing
    /// queued for it will be delivered, so nothing is in flight.
    cut: AtomicBool,
}

impl Link {
    fn new(cap: usize, size: usize) -> Self {
        Link {
            q: Mutex::new(LinkQueue {
                frames: VecDeque::new(),
                next_seq: vec![0; size],
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap: cap.max(1),
            delivered: (0..size).map(|_| AtomicU32::new(0)).collect(),
            cut: AtomicBool::new(false),
        }
    }
}

/// State shared by rank threads and the backend's reader/writer threads
/// (which outlive the rank scope, hence `Arc` + detached threads joined in
/// [`Transport::shutdown`]).
struct Shared {
    mailboxes: Vec<Mailbox>,
    links: Vec<Link>,
    recv_window: usize,
    closed: AtomicBool,
    /// Links a reader ended on a header it could not accept.
    links_cut: AtomicU64,
}

pub(crate) struct SocketTransport {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    uds_dir: PathBuf,
    done: AtomicBool,
}

impl SocketTransport {
    pub fn new(size: usize, cfg: SocketConfig) -> Self {
        let shared = Arc::new(Shared {
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            links: (0..size).map(|_| Link::new(cfg.queue_cap, size)).collect(),
            recv_window: cfg.recv_window.max(1),
            closed: AtomicBool::new(false),
            links_cut: AtomicU64::new(0),
        });
        let uds_dir = fresh_uds_dir();
        let mut handles = Vec::with_capacity(2 * size);
        for dest in 0..size {
            let (write_half, read_half) = connect_pair(&uds_dir, dest);
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("simmpi-wr-{dest}"))
                    .spawn(move || writer_loop(&sh, dest, write_half))
                    .expect("spawn socket writer"),
            );
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("simmpi-rd-{dest}"))
                    .spawn(move || reader_loop(&sh, dest, read_half))
                    .expect("spawn socket reader"),
            );
        }
        SocketTransport {
            shared,
            handles: Mutex::new(handles),
            uds_dir,
            done: AtomicBool::new(false),
        }
    }

    /// Queue a frame on `world_dest`'s link, assigning its sequence
    /// number. Blocking variant waits for space; nonblocking hands the
    /// envelope back when the queue is at capacity.
    fn enqueue(
        &self,
        world_dest: usize,
        env: WireEnvelope,
        front: bool,
        block: bool,
    ) -> Result<(), WireEnvelope> {
        let link = &self.shared.links[world_dest];
        let mut q = link.q.lock();
        while q.frames.len() >= link.cap && !q.closed {
            if !block {
                return Err(env);
            }
            // Bounded wait: `closed` can flip without a queue operation.
            link.space.wait_for(&mut q, Duration::from_millis(50));
        }
        if q.closed {
            // World tear-down: nobody will receive; drop silently, exactly
            // like an envelope in flight when the run ends.
            return Ok(());
        }
        let counter = q.next_seq[env.world_src];
        q.next_seq[env.world_src] = next_seq(counter);
        let header = FrameHeader {
            len: env.payload.len() as u64,
            wire_tag: env.wire_tag,
            src: env.world_src as u32,
            seq: if front { counter | FRONT_FLAG } else { counter },
            sent_ns: env.sent_ns,
        };
        let wire_bytes = HDR_LEN as u64 + header.len;
        q.frames.push_back(QueuedFrame { header, payload: env.payload });
        link.ready.notify_all();
        drop(q);
        // Recorded here, on the sending rank's thread — writer threads
        // have no obsv recorder lane.
        if obsv::active() {
            obsv::counter_add(obsv::Ctr::WireFramesSent, 1);
            obsv::counter_add(obsv::Ctr::WireBytesSent, wire_bytes);
        }
        Ok(())
    }
}

impl Transport for SocketTransport {
    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        &self.shared.mailboxes[world_rank]
    }

    fn deliver(&self, world_dest: usize, env: WireEnvelope, front: bool) {
        let delivered = self.enqueue(world_dest, env, front, true);
        debug_assert!(delivered.is_ok(), "blocking enqueue cannot refuse");
    }

    fn try_deliver(
        &self,
        world_dest: usize,
        env: WireEnvelope,
        front: bool,
    ) -> Result<(), WireEnvelope> {
        self.enqueue(world_dest, env, front, false)
    }

    fn wake_all(&self) {
        for mb in &self.shared.mailboxes {
            mb.wake();
        }
        // Senders parked on a full link queue and writers parked on an
        // empty one re-check external conditions (death, shutdown) that
        // flip without any queue operation — notify them too, so their
        // exit is not quantized to the bounded-wait tick.
        for link in &self.shared.links {
            let _q = link.q.lock();
            link.space.notify_all();
            link.ready.notify_all();
        }
    }

    fn in_flight(&self, world_src: usize, world_dest: usize) -> bool {
        let link = &self.shared.links[world_dest];
        let sent = link.q.lock().next_seq[world_src];
        sent != link.delivered[world_src].load(Ordering::Acquire)
            && !link.cut.load(Ordering::Acquire)
    }

    fn shutdown(&self) {
        if self.done.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.closed.store(true, Ordering::SeqCst);
        for link in &self.shared.links {
            let mut q = link.q.lock();
            q.closed = true;
            link.ready.notify_all();
            link.space.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.uds_dir);
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Socket
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A unique, writable directory for this world's Unix socket files.
fn fresh_uds_dir() -> PathBuf {
    static WORLD_NO: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "simmpi-{}-{}",
        std::process::id(),
        WORLD_NO.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create UDS socket directory");
    dir
}

/// Bind rank `dest`'s listener, connect the sender side, and accept the
/// receiver side. Listeners have a backlog, so connect-then-accept on one
/// thread cannot deadlock.
fn connect_pair(uds_dir: &std::path::Path, dest: usize) -> (UnixStream, UnixStream) {
    let path = uds_dir.join(format!("rank-{dest}"));
    let listener = UnixListener::bind(&path).expect("bind rank UDS listener");
    let write_half = UnixStream::connect(&path).expect("connect rank UDS");
    let (read_half, _) = listener.accept().expect("accept rank UDS");
    (write_half, read_half)
}

/// Drain `dest`'s link queue onto the socket. Exits once the queue is
/// closed *and* drained (or the peer vanished); dropping the connection
/// EOFs the matching reader.
fn writer_loop(shared: &Shared, dest: usize, mut conn: UnixStream) {
    let link = &shared.links[dest];
    loop {
        let next = {
            let mut q = link.q.lock();
            loop {
                if let Some(f) = q.frames.pop_front() {
                    link.space.notify_all();
                    break Some(f);
                }
                if q.closed {
                    break None;
                }
                link.ready.wait(&mut q);
            }
        };
        let Some(frame) = next else { break };
        if write_frame(&mut conn, &frame).is_err() {
            break;
        }
    }
}

/// Header, then every payload part in order, as one vector — the wire is
/// where a multi-part payload flattens, with no intermediate gather
/// buffer and (socket buffer permitting) one syscall per frame.
fn write_frame(conn: &mut impl Write, frame: &QueuedFrame) -> std::io::Result<()> {
    let header = frame.header.encode();
    let parts = frame.payload.parts();
    if parts.len() <= 1 {
        // Control frames, the common case: no vector to allocate.
        let body = parts.first().map_or(&[][..], |part| part);
        write_all_vectored(conn, &mut [IoSlice::new(&header), IoSlice::new(body)])?;
    } else {
        let mut bufs = Vec::with_capacity(1 + parts.len());
        bufs.push(IoSlice::new(&header));
        bufs.extend(parts.iter().map(|part| IoSlice::new(part)));
        write_all_vectored(conn, &mut bufs)?;
    }
    conn.flush()
}

/// `write_all` for a vector of slices: every byte of `bufs`, in order.
/// A partial write may end anywhere — between slices or inside one — and
/// [`IoSlice::advance_slices`] resumes from exactly there; it also drops
/// empty slices as it reaches them, so the front slice always has bytes
/// and an `Ok(0)` really means the peer takes no more.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        let window = bufs.len().min(IOV_MAX);
        match w.write_vectored(&bufs[..window]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The longest frame a header may declare. No payload this transport
/// carries comes near it; a header above it is corrupt, and its length
/// must never size an allocation.
const MAX_FRAME_LEN: u64 = 1 << 40;

/// Most a body's buffer is reserved up front. A longer frame grows its
/// buffer as its bytes arrive, so the reservation is bounded by what the
/// peer actually sent, never by what its header claims.
const MAX_RESERVE: usize = 64 << 20;

/// Demux frames arriving for `dest` into its mailbox: verify the header
/// (source rank, per-source sequence number, length), honor the receive
/// window, apply front-of-queue (reorder) insertion, and hand a frame a
/// receive was posted for to its sink (see `crate::sink`). Exits on EOF
/// (writer gone) and on a header it cannot accept, which ends the link
/// the same way ([`cut_link`]): nothing a peer's bytes say can panic
/// this thread or size an allocation.
fn reader_loop(shared: &Shared, dest: usize, mut conn: UnixStream) {
    let pool = BufPool::new();
    let mailbox = &shared.mailboxes[dest];
    let mut expect = vec![0u32; shared.mailboxes.len()];
    let closed = || shared.closed.load(Ordering::Relaxed);
    loop {
        let mut hdr_buf = [0u8; HDR_LEN];
        if conn.read_exact(&mut hdr_buf).is_err() {
            break; // EOF: the writer closed its end.
        }
        let header = FrameHeader::decode(&hdr_buf);
        let src = header.src as usize;
        let in_sequence = expect.get(src).is_some_and(|&e| e == header.seq_counter());
        let len = Some(header.len).filter(|&l| l <= MAX_FRAME_LEN).map(usize::try_from);
        let (true, Some(Ok(len))) = (in_sequence, len) else {
            cut_link(shared, dest);
            break;
        };
        // A posted receive is keyed by the body's first 8 bytes, so those
        // are read first whenever one might match.
        let mut key = None;
        if len >= 8 && mailbox.sinks().may_take(src, header.wire_tag) {
            let mut k = [0u8; 8];
            if conn.read_exact(&mut k).is_err() {
                break;
            }
            key = Some(k);
        }
        let posted = key.and_then(|k| {
            let id = u64::from_le_bytes(k);
            mailbox.sinks().claim(src, header.wire_tag, id).map(|sink| (k, id, sink))
        });
        let (payload, placed) = match posted {
            Some((k, id, sink)) => {
                let mut body = FrameBody::new(&mut conn, len - 8);
                sink.place(&mut body);
                drop(sink);
                // Whatever the sink left — all of a body it rejected — is
                // drained, so the next frame starts where it should.
                let intact = !body.is_broken() && body.skip(body.remaining()).is_ok();
                mailbox.sinks().release(src, header.wire_tag, id);
                if !intact {
                    break; // EOF mid-body, as below.
                }
                (Bytes::copy_from_slice(&k).into(), len - 8)
            }
            None => {
                // Reserved, not zeroed: the kernel's copy is the only write.
                let mut body = pool.take(len.min(MAX_RESERVE));
                body.extend_from_slice(key.as_ref().map_or(&[][..], |k| &k[..]));
                let rest = (len - body.len()) as u64;
                // `take().read_to_end()` on the stream itself receives into
                // `body`'s spare capacity as it is, without zero-filling it.
                match Read::take(&mut conn, rest).read_to_end(&mut body) {
                    Ok(n) if n as u64 == rest => {}
                    // Error, or EOF mid-body (which `read_to_end` reports
                    // as a short `Ok`): the writer is gone; a partial frame
                    // is dropped.
                    _ => break,
                }
                (pool.track(Bytes::from(body)).into(), 0)
            }
        };
        expect[src] = next_seq(expect[src]);
        // Flow control: a mailbox at its window stops the drain, which
        // backs up the kernel buffer, then the writer, then the sender.
        mailbox.wait_below(shared.recv_window, &closed);
        let env = WireEnvelope {
            world_src: src,
            wire_tag: header.wire_tag,
            payload,
            sent_ns: header.sent_ns,
            placed,
        };
        if header.is_front() {
            mailbox.push_front(env);
        } else {
            mailbox.push(env);
        }
        // Only after the push: `in_flight` turning false must imply the
        // envelope is already visible in the mailbox (death-abort races).
        shared.links[dest].delivered[src].store(expect[src], Ordering::Release);
    }
}

/// End `dest`'s link on a frame header it cannot accept — a source rank
/// outside the world, a sequence number out of order, a length no frame
/// has — the way EOF ends it, and say so: count it, mark nothing in
/// flight on it (what is queued will never arrive), and wake the rank so
/// its receives re-check their peers.
fn cut_link(shared: &Shared, dest: usize) {
    shared.links_cut.fetch_add(1, Ordering::Relaxed);
    shared.links[dest].cut.store(true, Ordering::Release);
    shared.mailboxes[dest].wake();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{make_wire_tag, SrcSel, TagSel};
    use crate::mailbox::Matcher;

    fn env(src: usize, tag: u32, body: &[u8]) -> WireEnvelope {
        WireEnvelope {
            world_src: src,
            wire_tag: make_wire_tag(0, tag),
            payload: Bytes::copy_from_slice(body).into(),
            sent_ns: 0,
            placed: 0,
        }
    }

    fn pop(t: &SocketTransport, dest: usize, src: usize, tag: u32) -> Vec<u8> {
        let m = Matcher { ctx: 0, src: SrcSel::Rank(src), tag: TagSel::Tag(tag) };
        let wire = t.mailbox(dest).pop_matching(&m);
        wire.payload.to_bytes().as_ref().to_vec()
    }

    #[test]
    fn unix_roundtrip_preserves_order() {
        let t = SocketTransport::new(2, SocketConfig::default());
        t.deliver(1, env(0, 7, b"hello"), false);
        t.deliver(1, env(0, 7, b"world"), false);
        assert_eq!(pop(&t, 1, 0, 7), b"hello");
        assert_eq!(pop(&t, 1, 0, 7), b"world");
        t.shutdown();
    }

    #[test]
    fn multipart_payload_flattens_on_the_wire() {
        let t = SocketTransport::new(2, SocketConfig::default());
        let payload =
            Payload::from_parts(vec![Bytes::from(vec![1u8, 2]), Bytes::from(vec![3u8, 4, 5])]);
        let env = WireEnvelope {
            world_src: 0,
            wire_tag: make_wire_tag(0, 9),
            payload,
            sent_ns: 0,
            placed: 0,
        };
        t.deliver(1, env, false);
        let m = Matcher { ctx: 0, src: SrcSel::Rank(0), tag: TagSel::Tag(9) };
        let wire = t.mailbox(1).pop_matching(&m);
        assert_eq!(wire.payload.num_parts(), 1, "wire form is contiguous");
        assert_eq!(wire.payload.to_bytes().as_ref(), &[1, 2, 3, 4, 5]);
        t.shutdown();
    }

    /// A writer that accepts at most `max` bytes per call, like a nearly
    /// full socket buffer, and records what each `writev` was handed.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        widest_vector: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            self.widest_vector = self.widest_vector.max(bufs.len());
            let mut room = self.max;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.max - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_resumes_mid_slice_and_respects_iov_max() {
        // 3 000 slices of 0..=6 bytes (every seventh empty, including the
        // first and the last), accepted 5 bytes at a time: partial writes
        // land inside slices, on slice edges and on runs of empty slices.
        let parts: Vec<Vec<u8>> = (0..3000usize).map(|i| vec![i as u8; i % 7]).collect();
        let want: Vec<u8> = parts.concat();
        let mut bufs: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut w = Trickle { out: Vec::new(), max: 5, widest_vector: 0, calls: 0 };
        write_all_vectored(&mut w, &mut bufs).expect("trickle accepts everything");
        assert_eq!(w.out, want);
        assert_eq!(w.widest_vector, IOV_MAX, "the vector is windowed, not truncated or exceeded");

        // With room for everything, a whole frame is one call per window.
        let mut bufs: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut w = Trickle { out: Vec::new(), max: usize::MAX, widest_vector: 0, calls: 0 };
        write_all_vectored(&mut w, &mut bufs).expect("write");
        assert_eq!(w.out, want);
        assert_eq!(w.calls, 3, "3 000 slices go out in IOV_MAX windows");

        // Nothing but empty slices is nothing to write, not `WriteZero`.
        let mut w = Trickle { out: Vec::new(), max: 0, widest_vector: 0, calls: 0 };
        write_all_vectored(&mut w, &mut [IoSlice::new(&[]), IoSlice::new(&[])]).expect("no-op");
        assert_eq!(w.calls, 0);
        // A writer that stops taking bytes is an error, not a spin.
        let err = write_all_vectored(&mut w, &mut [IoSlice::new(b"x")]).expect_err("stalled");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    fn parts_env(tag: u32, parts: Vec<Bytes>) -> WireEnvelope {
        WireEnvelope {
            world_src: 0,
            wire_tag: make_wire_tag(0, tag),
            payload: Payload::from_parts(parts),
            sent_ns: 0,
            placed: 0,
        }
    }

    /// Frames that stress the vectored writer and the reserve-only reader
    /// arrive byte-identical and in sequence: more parts than `IOV_MAX`
    /// (empty ones interleaved), parts each larger than a socket buffer
    /// (so partial writes land mid-slice), and a 0-byte body.
    #[test]
    fn unix_awkward_frames_arrive_intact() {
        let t = SocketTransport::new(2, SocketConfig::default());
        let many: Vec<Bytes> = (0..3000usize)
            .map(|i| if i % 3 == 0 { Bytes::new() } else { Bytes::from(vec![i as u8; 1 + i % 5]) })
            .collect();
        let big: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![0xA0 | i; 1 << 20])).collect();
        let want_many: Vec<u8> = many.iter().flat_map(|b| b.iter().copied()).collect();
        let want_big: Vec<u8> = big.iter().flat_map(|b| b.iter().copied()).collect();
        t.deliver(1, parts_env(7, many), false);
        t.deliver(1, parts_env(7, Vec::new()), false);
        t.deliver(1, parts_env(7, big), false);
        t.deliver(1, env(0, 7, b"tail"), false);
        assert_eq!(pop(&t, 1, 0, 7), want_many);
        assert_eq!(pop(&t, 1, 0, 7), b"", "a 0-byte body is still a frame");
        assert_eq!(pop(&t, 1, 0, 7), want_big);
        assert_eq!(pop(&t, 1, 0, 7), b"tail");
        t.shutdown();
    }

    /// A connection that closes mid-body ends the reader; the partial
    /// frame is dropped, never pushed as a short envelope.
    /// (`take().read_to_end()` reports that EOF as a short `Ok`, where
    /// `read_exact` returned `Err`.)
    #[test]
    fn unix_eof_mid_body_drops_the_partial_frame() {
        let shared = Shared {
            mailboxes: (0..2).map(|_| Mailbox::default()).collect(),
            links: (0..2).map(|_| Link::new(1, 2)).collect(),
            recv_window: usize::MAX,
            closed: AtomicBool::new(false),
            links_cut: AtomicU64::new(0),
        };
        let uds_dir = fresh_uds_dir();
        let (mut write_half, read_half) = connect_pair(&uds_dir, 1);
        let header = |len: u64, seq: u32| FrameHeader {
            len,
            wire_tag: make_wire_tag(0, 3),
            src: 0,
            seq,
            sent_ns: 0,
        };
        std::thread::scope(|s| {
            let reader = s.spawn(|| reader_loop(&shared, 1, read_half));
            let whole =
                QueuedFrame { header: header(5, 0), payload: Bytes::from_static(b"whole").into() };
            write_frame(&mut write_half, &whole).expect("write whole frame");
            write_half.write_all(&header(100, 1).encode()).expect("write header");
            write_half.write_all(&[9u8; 10]).expect("write a tenth of the body");
            drop(write_half);
            reader.join().expect("reader exits on EOF");
        });
        assert_eq!(shared.mailboxes[1].len(), 1, "only the complete frame was delivered");
        let m = Matcher { ctx: 0, src: SrcSel::Rank(0), tag: TagSel::Tag(3) };
        let got = shared.mailboxes[1].try_pop_matching(&m).expect("the whole frame");
        assert_eq!(got.payload.to_bytes().as_ref(), b"whole");
        assert_eq!(shared.links[1].delivered[0].load(Ordering::Acquire), 1);
        let _ = std::fs::remove_dir_all(uds_dir);
    }

    /// Wait until every frame from rank 0 to rank 1 has been pushed into
    /// the destination mailbox. `in_flight` turning false happens-after
    /// the mailbox push (Release store in the reader), so this makes the
    /// landed-before-overtake ordering deterministic — no wall-clock
    /// sleeps, which flaked under CI scheduling jitter.
    fn drain_in_flight(t: &SocketTransport) {
        while t.in_flight(0, 1) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn front_delivery_overtakes_queued_frames() {
        let t = SocketTransport::new(2, SocketConfig::default());
        t.deliver(1, env(0, 1, b"first"), false);
        t.deliver(1, env(0, 1, b"second"), false);
        // Let both frames land, then overtake them.
        drain_in_flight(&t);
        t.deliver(1, env(0, 1, b"urgent"), true);
        drain_in_flight(&t);
        assert_eq!(pop(&t, 1, 0, 1), b"urgent");
        assert_eq!(pop(&t, 1, 0, 1), b"first");
        assert_eq!(pop(&t, 1, 0, 1), b"second");
        t.shutdown();
    }

    /// A payload-sized body lands in the reader's pool: its allocation
    /// carries a later frame once the receiver has dropped it, and never
    /// while the receiver still holds it. (A pointer match alone could be
    /// the allocator reusing a freed block; the pool's own handle, which
    /// keeps a body from being taken back as unique, shows it is tracked.)
    #[test]
    fn a_dropped_body_carries_the_next_frame_and_a_held_one_never_does() {
        let t = SocketTransport::new(2, SocketConfig::default());
        let m = Matcher { ctx: 0, src: SrcSel::Rank(0), tag: TagSel::Tag(9) };
        let recv = |fill: u8| {
            t.deliver(1, env(0, 9, &vec![fill; BufPool::MIN_LEN]), false);
            let body = t.mailbox(1).pop_matching(&m).payload.into_bytes();
            assert!(body.len() == BufPool::MIN_LEN && body.iter().all(|&b| b == fill));
            body
        };
        let first = recv(1);
        let second = recv(2);
        assert_ne!(first.as_ptr(), second.as_ptr(), "the first body is still held");
        let reused = first.as_ptr();
        let first = first.try_into_mut().expect_err("the reader's pool tracks the body");
        drop(first);
        let third = recv(3);
        assert_eq!(third.as_ptr(), reused, "the dropped body's allocation is reused");
        third.try_into_mut().expect_err("tracked again");
        assert!(second.iter().all(|&b| b == 2), "the held body is untouched");
        t.shutdown();
    }

    #[test]
    fn bounded_queue_refuses_when_saturated() {
        // recv_window = 1 parks the reader after one delivery; queue_cap =
        // 1 plus ~1 MiB frames (far beyond any kernel socket buffer) then
        // saturate the whole path within a handful of sends.
        let cfg = SocketConfig { queue_cap: 1, recv_window: 1 };
        let t = SocketTransport::new(2, cfg);
        let big = vec![0xABu8; 1 << 20];
        let mut refused = false;
        for _ in 0..64 {
            if t.try_deliver(1, env(0, 3, &big), false).is_err() {
                refused = true;
                break;
            }
        }
        assert!(refused, "a 1-frame queue behind a 1-envelope window must fill");
        // Draining the mailbox un-wedges the path end to end.
        let mut drained = 0;
        let m = Matcher { ctx: 0, src: SrcSel::Rank(0), tag: TagSel::Tag(3) };
        while t
            .mailbox(1)
            .pop_matching_until(
                &m,
                Some(std::time::Instant::now() + Duration::from_secs(5)),
                &|| false,
            )
            .is_ok()
        {
            drained += 1;
            if t.try_deliver(1, env(0, 4, b"after-drain"), false).is_ok() {
                break;
            }
        }
        assert!(drained >= 1, "drained {drained} envelopes without freeing space");
        t.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_threads() {
        let t = SocketTransport::new(3, SocketConfig::default());
        t.deliver(2, env(1, 5, b"x"), false);
        assert_eq!(pop(&t, 2, 1, 5), b"x");
        t.shutdown();
        t.shutdown();
        assert!(t.handles.lock().is_empty());
    }

    /// A world of `size` ranks with one unconnected link per rank, for
    /// driving `reader_loop` by hand.
    fn bare_shared(size: usize) -> Shared {
        Shared {
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            links: (0..size).map(|_| Link::new(1, size)).collect(),
            recv_window: usize::MAX,
            closed: AtomicBool::new(false),
            links_cut: AtomicU64::new(0),
        }
    }

    /// Run rank 1's reader over `bytes` written into a Unix socket pair,
    /// then closed; return every envelope it delivered, in mailbox order.
    fn read_stream(shared: &Shared, bytes: &[u8]) -> Vec<WireEnvelope> {
        let (mut tx, rx) = UnixStream::pair().expect("socket pair");
        std::thread::scope(|s| {
            let reader = s.spawn(|| reader_loop(shared, 1, rx));
            // The reader may end the link before it has read everything.
            let _ = tx.write_all(bytes);
            drop(tx);
            reader.join().expect("the reader thread never panics");
        });
        let any = Matcher { ctx: 0, src: SrcSel::Any, tag: TagSel::Any };
        std::iter::from_fn(|| shared.mailboxes[1].try_pop_matching(&any)).collect()
    }

    fn frame_bytes(src: u32, seq: u32, tag: u32, body: &[u8]) -> Vec<u8> {
        let h = FrameHeader {
            len: body.len() as u64,
            wire_tag: make_wire_tag(0, tag),
            src,
            seq,
            sent_ns: 0,
        };
        [&h.encode()[..], body].concat()
    }

    #[test]
    fn a_bad_header_ends_the_link_without_a_panic_or_an_allocation() {
        let cases: [(&str, Vec<u8>); 4] = [
            ("source rank outside the world", frame_bytes(7, 1, 3, b"late")),
            ("sequence number out of order", frame_bytes(0, 5, 3, b"late")),
            ("declared length no frame has", {
                let mut h = frame_bytes(0, 1, 3, b"");
                h[..8].copy_from_slice(&u64::MAX.to_le_bytes());
                h
            }),
            // Under the cap but far past memory: reserved only as the
            // bytes arrive, so EOF ends it like any short body.
            ("a length the peer never sends", {
                let mut h = frame_bytes(0, 1, 3, b"only these");
                h[..8].copy_from_slice(&(1u64 << 39).to_le_bytes());
                h
            }),
        ];
        for (i, (what, bad)) in cases.into_iter().enumerate() {
            let shared = bare_shared(2);
            let stream = [frame_bytes(0, 0, 3, b"first"), bad, frame_bytes(0, 2, 3, b"never")];
            let got = read_stream(&shared, &stream.concat());
            assert_eq!(got.len(), 1, "{what}: only the frame before it arrives");
            assert_eq!(got[0].payload.to_bytes().as_ref(), b"first", "{what}");
            let cut = shared.links_cut.load(Ordering::Relaxed);
            assert_eq!(cut, u64::from(i < 3), "{what}: a corrupt header is counted");
            assert_eq!(shared.links[1].cut.load(Ordering::Acquire), i < 3, "{what}");
        }
    }

    #[test]
    fn a_cut_link_has_nothing_in_flight_and_wakes_its_rank() {
        let t = SocketTransport::new(2, SocketConfig::default());
        let before = t.shared.mailboxes[1].wakeups();
        // What rank 0 queued toward rank 1 will never arrive once cut.
        t.shared.links[1].q.lock().next_seq[0] = 3;
        assert!(t.in_flight(0, 1));
        cut_link(&t.shared, 1);
        assert!(!t.in_flight(0, 1), "nothing is in flight on a cut link");
        assert_ne!(t.shared.mailboxes[1].wakeups(), before, "woken");
        assert_eq!(t.shared.links_cut.load(Ordering::Relaxed), 1);
        t.shared.links[1].q.lock().next_seq[0] = 0;
        t.shutdown();
    }

    /// A sink for a body `[n u64][n bytes]…`: it places the `n` bytes
    /// into its posted buffer of [`LenSink::POSTED`] bytes, or rejects a
    /// body whose `n` outruns the frame or the buffer, leaving the rest
    /// for the reader to drain. Like any sink, it sizes nothing by what
    /// the frame declares.
    #[derive(Default)]
    struct LenSink {
        got: Mutex<Option<Result<Vec<u8>, String>>>,
    }

    impl LenSink {
        const POSTED: usize = 64;
    }

    impl crate::RecvSink for LenSink {
        fn place(&self, body: &mut FrameBody<'_>) {
            let mut n = [0u8; 8];
            let placed = body.read_exact(&mut n).map_err(|e| e.to_string()).and_then(|()| {
                let n = u64::from_le_bytes(n);
                if n > body.remaining().min(Self::POSTED) as u64 {
                    return Err(format!("{n} bytes declared, {} in the frame", body.remaining()));
                }
                let mut dst = vec![std::mem::MaybeUninit::new(0u8); n as usize];
                body.read_ranges(&mut dst, std::iter::once(0..n as usize))
                    .map_err(|e| e.to_string())?;
                Ok(dst.into_iter().map(|b| unsafe { b.assume_init() }).collect())
            });
            *self.got.lock() = Some(placed);
        }
    }

    /// A posted sink handed a frame whose header declares 2^39 bytes
    /// (under the cap) while the peer sends a few: the sink sees the
    /// declared length, sizes nothing by it, and the reader ends at EOF
    /// mid-body without a panic.
    #[test]
    fn a_posted_sink_survives_a_length_the_peer_never_sends() {
        let shared = bare_shared(2);
        let sink = Arc::new(LenSink::default());
        let posted: Arc<dyn crate::RecvSink> = sink.clone();
        shared.mailboxes[1].sinks().post(0, make_wire_tag(0, 3), 1000, posted);
        let body = [&1000u64.to_le_bytes()[..], &(1u64 << 38).to_le_bytes(), b"few"].concat();
        let mut lying = frame_bytes(0, 1, 3, &body);
        lying[..8].copy_from_slice(&(1u64 << 39).to_le_bytes());
        let got = read_stream(&shared, &[frame_bytes(0, 0, 3, b"first"), lying].concat());
        assert_eq!(got.len(), 1, "only the frame before it arrives");
        let placed = sink.got.lock().clone().expect("the sink ran");
        assert!(placed.is_err(), "{placed:?}");
        assert!(!shared.links[1].cut.load(Ordering::Acquire), "EOF mid-body, not a bad header");
    }

    /// One frame of a fuzzed stream: to a posted sink (its body starts
    /// with the key `1000 + i`) or plain.
    #[derive(Debug, Clone)]
    struct Fuzzed {
        posted: bool,
        body: Vec<u8>,
    }

    fn fuzz_frames() -> impl proptest::Strategy<Value = Vec<Fuzzed>> {
        use proptest::prelude::*;
        proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..40), 0u64..48),
            1..6,
        )
        .prop_map(|frames| {
            frames
                .into_iter()
                .enumerate()
                .map(|(i, (posted, tail, n))| {
                    let body = if posted {
                        // n may outrun the frame: the sink rejects that.
                        [&(1000 + i as u64).to_le_bytes()[..], &n.to_le_bytes(), &tail].concat()
                    } else {
                        tail
                    };
                    Fuzzed { posted, body }
                })
                .collect()
        })
    }

    /// How a fuzzed stream was damaged.
    #[derive(Debug, Clone)]
    enum Damage {
        /// Cut the stream after this many bytes.
        Truncate(usize),
        /// Flip the bits of one byte of a posted frame's body (after its
        /// key), where only the sink reads it.
        FlipSinkBody(usize, u8),
        /// Append bytes after the last frame.
        Garbage(Vec<u8>),
        /// Flip one byte anywhere: only "no panic" holds.
        FlipAnywhere(usize, u8),
    }

    fn damage() -> impl proptest::Strategy<Value = Damage> {
        use proptest::prelude::*;
        (0u8..4, any::<usize>(), 1u8..=255, proptest::collection::vec(any::<u8>(), 1..80)).prop_map(
            |(kind, at, x, garbage)| match kind {
                0 => Damage::Truncate(at),
                1 => Damage::FlipSinkBody(at, x),
                2 => Damage::Garbage(garbage),
                _ => Damage::FlipAnywhere(at, x),
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 96, ..Default::default() })]

        /// Damaged streams over a real socket pair: the reader never
        /// panics; every frame that arrived whole before the damage is
        /// delivered intact; a sink that rejects a body has the rest of it
        /// drained, so the frames after it are delivered intact too.
        #[test]
        fn damaged_streams_never_panic_and_whole_frames_survive(
            frames in fuzz_frames(),
            damage in damage(),
        ) {
            let shared = bare_shared(2);
            let sinks: Vec<Arc<LenSink>> = frames.iter().map(|_| Arc::default()).collect();
            let tag = make_wire_tag(0, 3);
            for (i, f) in frames.iter().enumerate() {
                if f.posted {
                    let sink: Arc<dyn crate::RecvSink> = sinks[i].clone();
                    shared.mailboxes[1].sinks().post(0, tag, 1000 + i as u64, sink);
                }
            }
            let encoded: Vec<Vec<u8>> = frames
                .iter()
                .enumerate()
                .map(|(i, f)| frame_bytes(0, i as u32, 3, &f.body))
                .collect();
            let ends: Vec<usize> = encoded.iter().scan(0, |at, f| { *at += f.len(); Some(*at) }).collect();
            let mut stream = encoded.concat();
            // How many leading frames must arrive exactly as sent.
            let whole = match &damage {
                Damage::Truncate(at) => {
                    let at = at % (stream.len() + 1);
                    stream.truncate(at);
                    ends.iter().take_while(|&&e| e <= at).count()
                }
                Damage::FlipSinkBody(at, x) => {
                    let posted: Vec<usize> = (0..frames.len()).filter(|&i| frames[i].posted).collect();
                    if let Some(&i) = posted.get(at % frames.len().max(1)) {
                        let start = ends[i] - frames[i].body.len() + 8;
                        if ends[i] > start {
                            stream[start + at % (ends[i] - start)] ^= x;
                        }
                    }
                    frames.len()
                }
                Damage::Garbage(g) => {
                    stream.extend_from_slice(g);
                    frames.len()
                }
                Damage::FlipAnywhere(at, x) => {
                    let at = at % stream.len();
                    stream[at] ^= x;
                    ends.iter().take_while(|&&e| e <= at).count()
                }
            };
            let got = read_stream(&shared, &stream);
            proptest::prop_assert!(got.len() >= whole, "{} of {} whole frames arrived", got.len(), whole);
            for (i, env) in got.iter().take(whole).enumerate() {
                let f = &frames[i];
                proptest::prop_assert_eq!(env.wire_tag, tag);
                if f.posted {
                    // A completion: the key, and the body's length.
                    proptest::prop_assert_eq!(env.payload.to_bytes().as_ref(), &f.body[..8]);
                    proptest::prop_assert_eq!(env.placed, f.body.len() - 8);
                    let placed = sinks[i].got.lock().clone().expect("the sink ran");
                    let sent = stream[ends[i] - f.body.len()..ends[i]].to_vec();
                    let n = u64::from_le_bytes(sent[8..16].try_into().unwrap()) as usize;
                    match placed {
                        Ok(bytes) => proptest::prop_assert_eq!(&bytes[..], &sent[16..16 + n]),
                        Err(_) => proptest::prop_assert!(n > sent.len() - 16, "rejected only when n outruns"),
                    }
                } else {
                    proptest::prop_assert_eq!(env.placed, 0);
                    proptest::prop_assert_eq!(env.payload.to_bytes().as_ref(), &f.body[..]);
                }
            }
        }
    }
}
