//! Posted receives: a frame's body written straight into its receiver's
//! memory.
//!
//! An MPI receive names the buffer the message lands in; the library
//! receives into it. [`RecvSink`] is that for the socket backend. A rank
//! *posts* a sink on its mailbox under a key — the source, the wire tag
//! and the first 8 bytes of the body, which for an RPC reply are its
//! call id ([`crate::Comm::post_sink`]). When a frame with that key
//! arrives, the reader thread hands the rest of its body to the sink as a
//! [`FrameBody`], a cursor over the bytes still on the socket: the sink
//! reads the few header bytes it needs and has the kernel write every
//! payload byte into its destination ([`FrameBody::read_ranges`]). In
//! place of the body the mailbox receives a *completion*: the 8 key bytes
//! and the count of body bytes the sink took
//! ([`crate::PartsEnvelope::placed`]), so message sizes and latencies
//! see the frame as sent.
//!
//! A sink is one-shot: once it has taken a frame it is no longer posted.
//! [`crate::Comm::unpost_sink`] waits out a placement in progress, so
//! once it returns, nothing writes through that sink again. The in-proc
//! backend never consults the table: its envelopes arrive as the sender's
//! allocations, with nothing to place.

use std::io::{self, Read};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A receive's destination, posted before the message it waits for is
/// sent (see the module docs).
pub trait RecvSink: Send + Sync {
    /// Take the body of the frame this sink was posted for, after its
    /// 8-byte key. Runs on the socket reader thread. Whatever the sink
    /// leaves unread is drained before the next frame, so a sink that
    /// rejects a body just records why and returns; its receiver learns
    /// the outcome from the sink, not from the completion.
    fn place(&self, body: &mut FrameBody<'_>);
}

/// One `iovec`: where a vectored read puts its next bytes.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct IoVec {
    pub base: *mut u8,
    pub len: usize,
}

/// Most slices handed to one vectored read or write: Linux's `IOV_MAX`.
pub(crate) const IOV_MAX: usize = 1024;

/// A byte stream that can also read into memory nobody has initialised.
pub(crate) trait WireRead: Read {
    /// One vectored read into `iov`: how many bytes arrived (0 at EOF).
    ///
    /// # Safety
    ///
    /// Every entry of `iov` must describe `len` writable bytes that the
    /// caller borrows exclusively for the duration of the call.
    unsafe fn read_uninit(&mut self, iov: &[IoVec]) -> io::Result<usize>;
}

/// The part of a frame's body a [`RecvSink`] has not read yet: a cursor
/// over bytes still on the socket.
///
/// Reads never run past the frame: asking for more than
/// [`FrameBody::remaining`] fails with [`io::ErrorKind::InvalidData`] and
/// reads nothing. A failed read of the socket itself (EOF mid-frame)
/// leaves the body *broken*, and the reader ends the link after the sink
/// returns.
pub struct FrameBody<'a> {
    wire: &'a mut dyn WireRead,
    left: usize,
    broken: bool,
}

impl<'a> FrameBody<'a> {
    pub(crate) fn new(wire: &'a mut dyn WireRead, len: usize) -> Self {
        FrameBody { wire, left: len, broken: false }
    }

    /// Bytes of the body not read yet, as the frame's header declares
    /// them: a peer may declare more than it sends, so a sink sizes
    /// nothing by this.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Did a read of the socket itself fail (the link is gone)?
    pub(crate) fn is_broken(&self) -> bool {
        self.broken
    }

    /// Fail before touching the socket if `n` bytes would run past the
    /// frame; otherwise count them as read.
    fn take(&mut self, n: usize) -> io::Result<()> {
        if n > self.left {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame body has {} bytes left, not {n}", self.left),
            ));
        }
        self.left -= n;
        Ok(())
    }

    /// The socket failed mid-frame: remember it, pass the error on.
    fn broke(&mut self, e: io::Error) -> io::Error {
        self.broken = true;
        e
    }

    /// Read exactly `buf.len()` bytes.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.take(buf.len())?;
        self.wire.read_exact(buf).map_err(|e| self.broke(e))
    }

    /// Read and discard `n` bytes.
    pub fn skip(&mut self, mut n: usize) -> io::Result<()> {
        self.take(n)?;
        let mut scratch = [0u8; 16 << 10];
        while n > 0 {
            let k = n.min(scratch.len());
            self.wire.read_exact(&mut scratch[..k]).map_err(|e| self.broke(e))?;
            n -= k;
        }
        Ok(())
    }

    /// Read the next bytes into `ranges` of `dst`, in order: each range
    /// gets as many bytes as it is long, written by the kernel straight
    /// into `dst` — nothing in between holds them. The ranges are read
    /// vectored, `IOV_MAX` (1024) at a time; they may come in any order and
    /// overlap (a later range overwrites an earlier one, as sequential
    /// copies would). A range outside `dst`, or more bytes than the frame
    /// has left, fails with [`io::ErrorKind::InvalidData`] before any byte
    /// of its window is read.
    pub fn read_ranges(
        &mut self,
        dst: &mut [MaybeUninit<u8>],
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> io::Result<()> {
        let base = dst.as_mut_ptr().cast::<u8>();
        let mut iov = [IoVec { base, len: 0 }; IOV_MAX];
        let mut filled = 0;
        let mut bytes = 0;
        for r in ranges {
            if r.start > r.end || r.end > dst.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("range {r:?} outside a destination of {} bytes", dst.len()),
                ));
            }
            if r.is_empty() {
                continue;
            }
            if bytes + r.len() > self.left {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("ranges want more than the {} bytes left in the frame", self.left),
                ));
            }
            // SAFETY: `r.start < r.end <= dst.len()`, checked above, so
            // the pointer stays inside `dst`'s allocation.
            iov[filled] = IoVec { base: unsafe { base.add(r.start) }, len: r.len() };
            filled += 1;
            bytes += r.len();
            if filled == IOV_MAX {
                // SAFETY: every entry lies inside `dst` (checked above),
                // which this call borrows exclusively.
                unsafe { self.read_window(&mut iov[..filled], bytes)? };
                (filled, bytes) = (0, 0);
            }
        }
        // SAFETY: as above.
        unsafe { self.read_window(&mut iov[..filled], bytes) }
    }

    /// Fill every slice of `iov` (`bytes` in all), resuming after partial
    /// reads wherever they end.
    ///
    /// # Safety
    ///
    /// As [`WireRead::read_uninit`]: every entry describes `len` writable
    /// bytes the caller borrows exclusively until this returns.
    unsafe fn read_window(&mut self, mut iov: &mut [IoVec], mut bytes: usize) -> io::Result<()> {
        self.take(bytes)?;
        while bytes > 0 {
            // SAFETY: this function's contract; after a partial read the
            // entries are advanced only past bytes already written.
            let n = match unsafe { self.wire.read_uninit(iov) } {
                Ok(0) => return Err(self.broke(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.broke(e)),
            };
            bytes -= n;
            let mut n = n;
            while n > 0 && n >= iov[0].len {
                n -= iov[0].len;
                iov = &mut iov[1..];
            }
            if n > 0 {
                // SAFETY: `n < iov[0].len`, so this stays inside the slice.
                iov[0] = IoVec { base: unsafe { iov[0].base.add(n) }, len: iov[0].len - n };
            }
        }
        Ok(())
    }
}

/// One posted sink.
struct Posted {
    src: usize,
    wire_tag: u64,
    key: u64,
    sink: Arc<dyn RecvSink>,
    /// A reader is placing a frame through it right now.
    busy: bool,
}

/// The sinks posted on one mailbox.
#[derive(Default)]
pub(crate) struct SinkTable {
    posted: Mutex<Vec<Posted>>,
    /// Signalled when a placement ends (an unpost may be waiting).
    placed: Condvar,
    /// Entries in `posted`, read without the lock: a reader looks no
    /// further while it is zero. Only a hint — it is stored under the
    /// lock, and a sink is posted before the frame it waits for is sent,
    /// so a reader that sees zero has no frame that could match.
    count: AtomicUsize,
}

impl SinkTable {
    /// Post `sink` for the next frame from world rank `src` under
    /// `wire_tag` whose body starts with `key`.
    pub fn post(&self, src: usize, wire_tag: u64, key: u64, sink: Arc<dyn RecvSink>) {
        let mut posted = self.posted.lock();
        posted.push(Posted { src, wire_tag, key, sink, busy: false });
        self.count.store(posted.len(), Ordering::Release);
    }

    /// Withdraw the sink posted under this key, waiting for a placement
    /// through it to end. A sink that already took its frame is gone.
    pub fn unpost(&self, src: usize, wire_tag: u64, key: u64) {
        let mut posted = self.posted.lock();
        loop {
            let Some(i) =
                posted.iter().position(|p| (p.src, p.wire_tag, p.key) == (src, wire_tag, key))
            else {
                return;
            };
            if !posted[i].busy {
                posted.swap_remove(i);
                self.count.store(posted.len(), Ordering::Release);
                return;
            }
            self.placed.wait(&mut posted);
        }
    }

    /// Could a frame from `src` under `wire_tag` have a sink? (Cheap
    /// enough to ask of every frame.)
    pub(crate) fn may_take(&self, src: usize, wire_tag: u64) -> bool {
        self.count.load(Ordering::Acquire) > 0
            && self.posted.lock().iter().any(|p| (p.src, p.wire_tag) == (src, wire_tag))
    }

    /// The sink posted for this frame, marked busy until
    /// [`SinkTable::release`].
    pub fn claim(&self, src: usize, wire_tag: u64, key: u64) -> Option<Arc<dyn RecvSink>> {
        let mut posted = self.posted.lock();
        let p = posted.iter_mut().find(|p| (p.src, p.wire_tag, p.key) == (src, wire_tag, key))?;
        p.busy = true;
        Some(Arc::clone(&p.sink))
    }

    /// A claimed sink has taken its frame: it is no longer posted.
    pub fn release(&self, src: usize, wire_tag: u64, key: u64) {
        let mut posted = self.posted.lock();
        posted.retain(|p| (p.src, p.wire_tag, p.key) != (src, wire_tag, key));
        self.count.store(posted.len(), Ordering::Release);
        self.placed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory wire that hands out at most `max` bytes per read.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        max: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.max).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl WireRead for Trickle {
        unsafe fn read_uninit(&mut self, iov: &[IoVec]) -> io::Result<usize> {
            let mut n = 0;
            for v in iov {
                let k = v.len.min(self.max - n).min(self.data.len() - self.at);
                // SAFETY: the caller lends `iov` exclusively for this call.
                let dst = unsafe { std::slice::from_raw_parts_mut(v.base, k) };
                dst.copy_from_slice(&self.data[self.at..self.at + k]);
                (self.at, n) = (self.at + k, n + k);
                if k < v.len {
                    break;
                }
            }
            Ok(n)
        }
    }

    #[test]
    fn ranges_land_in_place_across_partial_reads_and_windows() {
        // 3 000 one-to-three-byte ranges, every fourth empty, read 5 bytes
        // at a time: partial reads end inside ranges and on their edges.
        let ranges: Vec<Range<usize>> = (0..3000usize)
            .scan(0, |at, i| {
                let len = if i % 4 == 0 { 0 } else { 1 + i % 3 };
                let r = *at..*at + len;
                *at += len + 1; // one byte between ranges stays unwritten
                Some(r)
            })
            .collect();
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        let end = ranges.last().unwrap().end;
        let data: Vec<u8> = (0..total + 3).map(|i| i as u8).collect();
        let mut wire = Trickle { data: data.clone(), at: 0, max: 5 };
        let mut body = FrameBody::new(&mut wire, total + 3);
        let mut dst = vec![MaybeUninit::new(0xEEu8); end];
        body.read_ranges(&mut dst, ranges.iter().cloned()).unwrap();
        assert_eq!(body.remaining(), 3);
        let mut want = vec![0xEEu8; end];
        let mut next = data.iter();
        for r in &ranges {
            for b in &mut want[r.clone()] {
                *b = *next.next().unwrap();
            }
        }
        let got: Vec<u8> = dst.iter().map(|b| unsafe { b.assume_init() }).collect();
        assert_eq!(got, want);
        let mut tail = [0u8; 3];
        body.read_exact(&mut tail).unwrap();
        assert_eq!(tail, [data[total], data[total + 1], data[total + 2]]);
        assert!(!body.is_broken());
    }

    #[test]
    fn reads_never_run_past_the_frame_or_the_destination() {
        let mut wire = Trickle { data: vec![7; 64], at: 0, max: 64 };
        let mut body = FrameBody::new(&mut wire, 8);
        let mut dst = [MaybeUninit::new(0u8); 16];
        let err = body.read_ranges(&mut dst, [0..4, 4..12]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = body.read_ranges(&mut dst, std::iter::once(10..17)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "outside the destination");
        assert_eq!(body.read_exact(&mut [0u8; 9]).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(body.remaining(), 8, "a refused read takes nothing");
        body.skip(8).unwrap();
        assert!(!body.is_broken() && wire.at == 8);
    }

    #[test]
    fn eof_mid_frame_breaks_the_body() {
        let mut wire = Trickle { data: vec![1; 4], at: 0, max: 64 };
        let mut body = FrameBody::new(&mut wire, 10);
        let mut dst = [MaybeUninit::new(0u8); 10];
        assert!(body.read_ranges(&mut dst, std::iter::once(0..10)).is_err());
        assert!(body.is_broken());
    }

    struct Nop;
    impl RecvSink for Nop {
        fn place(&self, _: &mut FrameBody<'_>) {}
    }

    #[test]
    fn a_claimed_sink_is_taken_once_and_unpost_waits_for_it() {
        let t = Arc::new(SinkTable::default());
        assert!(!t.may_take(1, 9));
        t.post(1, 9, 42, Arc::new(Nop));
        assert!(t.may_take(1, 9) && !t.may_take(2, 9) && !t.may_take(1, 8));
        assert!(t.claim(1, 9, 41).is_none(), "another key");
        let sink = t.claim(1, 9, 42).expect("posted");
        let unposter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.unpost(1, 9, 42))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!unposter.is_finished(), "unpost waits while the sink is busy");
        drop(sink);
        t.release(1, 9, 42);
        unposter.join().unwrap();
        assert!(t.claim(1, 9, 42).is_none(), "one-shot");
        assert!(!t.may_take(1, 9));
    }
}
