//! The consumer's packed read buffer, written once.
//!
//! A `dataset_read` result used to start life as `vec![0u8; n]`: every
//! byte zeroed, then overwritten by the scatter. [`ReadBuf`] reserves the
//! `n` bytes *uninitialised*, lets the scatter write each segment into its
//! slot, remembers which byte ranges were written, and at
//! [`ReadBuf::finish`] zero-fills only what no producer covered — and
//! counts it ([`obsv::Ctr::BytesZeroFilled`]), so a read nobody owns is no
//! longer silent. A fully covered read therefore writes each delivered
//! byte exactly once.
//!
//! The bytes come from a [`ReplySource`]: a reply the rank holds, or —
//! on the socket backend — the socket itself, read by the reader thread
//! straight into the slots ([`Fetch::place_reply`] is the one
//! parse-and-place either way).
//!
//! The allocation usually comes from the consumer's [`simmpi::BufPool`]:
//! last step's result, recycled once the application dropped it. Its
//! spare capacity then holds old bytes, but it is treated exactly as if it
//! were uninitialised — nothing is read from it, and `finish` still
//! zero-fills (and counts) every byte no segment wrote.

use std::ops::Range;
use std::sync::Arc;

use minih5::{H5Error, H5Result};
use parking_lot::Mutex;
use simmpi::{FrameBody, Payload, RecvSink};

use crate::protocol::{get_result, BatchReplyReader, PayloadReader, ReplySource};

/// A packed destination of `n` bytes under construction.
///
/// Invariant (everything `finish` relies on): `buf.len() == 0`,
/// `buf.capacity() >= n`, and every range in `written` lies inside
/// `0..n` and has been fully initialised in `buf`'s spare capacity.
/// Only [`ReadBuf::place`] adds to `written`, and only after the read.
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    n: usize,
    /// Initialised byte ranges `[start, end)`, in write order; a write
    /// that starts where the previous one ended extends it.
    written: Vec<(usize, usize)>,
}

impl ReadBuf {
    /// A destination of `n` bytes in `buf`'s allocation: cleared, grown
    /// only if its capacity is short, and not initialised.
    pub fn new(mut buf: Vec<u8>, n: usize) -> Self {
        buf.clear();
        buf.reserve(n);
        ReadBuf { buf, n, written: Vec::new() }
    }

    /// Is the finished buffer zero bytes long (an empty selection)?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Apply one data-reply body: read each segment's bytes off the front
    /// of `src` straight into its slot, leaving the cursor past the
    /// `blob_len`-byte blob (at the next batch entry). `segs` are
    /// `(element offset, element count)` pairs of `es`-byte elements.
    /// Everything the peer declared is checked before a byte is read, so
    /// a corrupt reply is a format error — never a panic, never a short
    /// or misplaced write that goes unnoticed. Returns the bytes written.
    pub fn place(
        &mut self,
        src: &mut impl ReplySource,
        segs: &[(u64, u64)],
        blob_len: usize,
        es: usize,
    ) -> H5Result<usize> {
        let n = self.n;
        let slot = |&(off, len): &(u64, u64)| -> H5Result<Range<usize>> {
            let bytes = |elems: u64| usize::try_from(elems).ok().and_then(|e| e.checked_mul(es));
            let start = bytes(off).ok_or_else(out_of_bounds)?;
            let end = bytes(len).and_then(|nb| start.checked_add(nb));
            Ok(start..end.filter(|&e| e <= n).ok_or_else(out_of_bounds)?)
        };
        let mut consumed = 0usize;
        for seg in segs {
            let nb = slot(seg)?.len();
            consumed =
                consumed.checked_add(nb).filter(|&c| c <= blob_len).ok_or_else(out_of_bounds)?;
        }
        // Every slot is checked, so `filter_map` drops nothing.
        let slots = segs.iter().filter_map(|seg| slot(seg).ok());
        src.read_ranges(&mut self.buf.spare_capacity_mut()[..n], slots.clone())?;
        for r in slots.filter(|r| !r.is_empty()) {
            match self.written.last_mut() {
                Some(last) if last.1 == r.start => last.1 = r.end,
                _ => self.written.push((r.start, r.end)),
            }
        }
        src.skip(blob_len - consumed)?;
        Ok(consumed)
    }

    /// The finished buffer: every byte either written by a segment or
    /// zero-filled here (the fill value of a region no producer wrote).
    pub fn finish(mut self) -> Vec<u8> {
        // Walk the union of the written ranges in offset order; whatever
        // lies between them (or past the last) was never written.
        self.written.sort_unstable_by_key(|&(start, _)| start);
        let spare = self.buf.spare_capacity_mut();
        let mut covered = 0usize;
        let mut filled = 0usize;
        for &(start, end) in self.written.iter().chain(std::iter::once(&(self.n, self.n))) {
            if start > covered {
                spare[covered..start].fill(std::mem::MaybeUninit::new(0));
                filled += start - covered;
            }
            covered = covered.max(end);
        }
        if filled > 0 {
            obsv::counter_add(obsv::Ctr::BytesZeroFilled, filled as u64);
        }
        assert_eq!(covered, self.n, "the walk must account for every byte");
        // SAFETY: `n <= capacity` by construction. The walk above visited
        // `0..n` left to right: `covered` only ever advances over a range
        // `write` initialised or a gap the walk just zero-filled, and the
        // `(n, n)` sentinel closes the tail, so `covered == n` (asserted)
        // and every byte below it is initialised.
        unsafe { self.buf.set_len(self.n) };
        self.buf
    }
}

/// One read's destinations while its rounds run: the packed result
/// buffers, and the owners each selection's replies have named.
#[derive(Default)]
pub(crate) struct Fetch {
    pub outs: Vec<ReadBuf>,
    /// Per selection: the producer-local owner ranks named so far.
    pub found: Vec<Vec<usize>>,
    /// The producer task's size (owner ranks are checked against it).
    producers: usize,
    /// Element size of the dataset.
    es: usize,
    /// One segment list for every body.
    segs: Vec<(u64, u64)>,
}

impl Fetch {
    pub fn new(outs: Vec<ReadBuf>, producers: usize, es: usize) -> Self {
        let found = vec![Vec::new(); outs.len()];
        Fetch { outs, found, producers, es, segs: Vec::new() }
    }

    /// Read one result-wrapped data reply — the entries of the `asked`
    /// selections, in order — off `src` into the result buffers, adding
    /// each entry's owners to `found` and handing its generation to
    /// `gen`. The fetch path's one parse-and-place: the rank thread runs
    /// it over a reply it holds, the socket reader over one it is
    /// receiving. Returns the bytes placed.
    pub(crate) fn place_reply(
        &mut self,
        src: &mut impl ReplySource,
        asked: impl Iterator<Item = usize> + Clone,
        gen: &mut impl FnMut(u64),
    ) -> H5Result<u64> {
        get_result(src)?;
        let mut reply = BatchReplyReader::over(src, self.producers)?;
        let (entries, count) = (reply.entries(), asked.clone().count());
        if entries != count {
            return Err(H5Error::Format(format!(
                "batch reply carries {entries} entries for {count}"
            )));
        }
        for i in asked.clone() {
            let found = &mut self.found[i];
            reply.owners(|o| {
                if !found.contains(&o) {
                    found.push(o);
                }
            })?;
        }
        let mut placed = 0;
        for i in asked {
            let (g, blob_len) = reply.body(&mut self.segs)?;
            gen(g);
            placed += self.outs[i].place(reply.blob(), &self.segs, blob_len, self.es)? as u64;
        }
        reply.finish()?;
        Ok(placed)
    }
}

/// Where one round's replies are placed. By default the rank thread
/// places each reply `call_many` hands it. A *posted* round instead lends
/// its [`Fetch`] to a sink per call ([`Round::sink`]): the socket reader
/// thread runs the same [`Fetch::place_reply`] on the reply as it comes
/// off the socket, and the rank thread only collects what it made of it
/// ([`Round::settle`]). [`Round::finish`] hands the fetch back.
pub(crate) struct Round<'a> {
    fetch: &'a mut Fetch,
    posted: Option<Arc<Mutex<Placing>>>,
}

/// A posted round's fetch, shared with its sinks.
struct Placing {
    fetch: Fetch,
    /// Per call: the selections its reply answers, in entry order.
    asked: Vec<Vec<usize>>,
    /// Per call: what the reader made of the reply it took.
    taken: Vec<Option<Taken>>,
}

/// One reply as the socket reader placed it.
struct Taken {
    /// The reply's length after its call id.
    len: usize,
    /// Each entry's generation, for the rank thread to note.
    gens: Vec<u64>,
    /// The bytes placed, or why the reply was rejected.
    placed: H5Result<u64>,
}

/// The sink posted for one call of a round (the call's index is `.1`).
struct CallSink(Arc<Mutex<Placing>>, usize);

impl RecvSink for CallSink {
    fn place(&self, body: &mut FrameBody<'_>) {
        let mut placing = self.0.lock();
        let Placing { fetch, asked, taken } = &mut *placing;
        let (len, mut gens) = (body.remaining(), Vec::new());
        let placed = fetch.place_reply(body, asked[self.1].iter().copied(), &mut |g| gens.push(g));
        taken[self.1] = Some(Taken { len, gens, placed });
    }
}

impl<'a> Round<'a> {
    /// A round over `fetch`, posted when `asked` lists, per call, the
    /// selections its reply answers.
    pub fn new(fetch: &'a mut Fetch, asked: Option<Vec<Vec<usize>>>) -> Self {
        let posted = asked.map(|asked| {
            let taken = asked.iter().map(|_| None).collect();
            Arc::new(Mutex::new(Placing { fetch: std::mem::take(fetch), asked, taken }))
        });
        Round { fetch, posted }
    }

    /// The sink to post for call `k`, if the round is posted.
    pub fn sink(&self, k: usize) -> Option<Arc<dyn RecvSink>> {
        let placing = self.posted.as_ref()?;
        Some(Arc::new(CallSink(Arc::clone(placing), k)))
    }

    /// Call `k`'s reply, as `call_many` hands it over: what the socket
    /// reader placed from it, or else — a reply no sink took, such as
    /// every in-proc one — placed here, by the same code. `asked` are the
    /// selections it answers and `gen` takes each entry's generation.
    /// Returns the reply's length and the bytes placed.
    pub(crate) fn settle(
        &mut self,
        k: usize,
        reply: Payload,
        asked: impl Iterator<Item = usize> + Clone,
        gen: &mut impl FnMut(u64),
    ) -> (usize, H5Result<u64>) {
        let mut placing = self.posted.as_ref().map(|p| p.lock());
        let (fetch, taken) = match placing.as_deref_mut() {
            Some(p) => (&mut p.fetch, p.taken[k].take()),
            None => (&mut *self.fetch, None),
        };
        match taken {
            Some(t) => {
                t.gens.into_iter().for_each(gen);
                if let Ok(b) = t.placed {
                    obsv::counter_add(obsv::Ctr::BytesPlaced, b);
                }
                (t.len, t.placed)
            }
            None => (reply.len(), fetch.place_reply(&mut PayloadReader::new(reply), asked, gen)),
        }
    }

    /// End the round. Call once `call_many` has returned: every sink is
    /// withdrawn by then, so nothing writes into the buffers any more.
    pub fn finish(self) {
        if let Some(placing) = self.posted {
            *self.fetch = std::mem::take(&mut placing.lock().fetch);
        }
    }
}

fn out_of_bounds() -> H5Error {
    H5Error::Format("data reply segment out of bounds".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PayloadReader;
    use bytes::Bytes;
    use simmpi::Payload;

    fn reader(parts: &[&[u8]]) -> PayloadReader {
        PayloadReader::new(Payload::from_parts(
            parts.iter().map(|p| Bytes::copy_from_slice(p)).collect(),
        ))
    }

    #[test]
    fn covered_buffer_is_the_scattered_bytes_with_no_fill() {
        let reg = obsv::Registry::new();
        let _g = obsv::install(reg.recorder(0));
        let mut rb = ReadBuf::new(Vec::new(), 8);
        // Out of order, split across parts mid-segment, 2-byte elements.
        let mut pr = reader(&[&[5, 6, 7], &[8, 1], &[2, 3, 4]]);
        rb.place(&mut pr, &[(2, 2), (0, 2)], 8, 2).unwrap();
        assert_eq!(pr.remaining(), 0);
        assert_eq!(rb.finish(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(reg.report().counter(obsv::Ctr::BytesZeroFilled), 0);
    }

    #[test]
    fn gaps_are_zero_filled_and_counted() {
        let reg = obsv::Registry::new();
        let _g = obsv::install(reg.recorder(0));
        let mut rb = ReadBuf::new(Vec::new(), 10);
        // Overlapping writes (the later one wins), a hole in front, one
        // in the middle, one at the tail.
        let mut pr = reader(&[&[1, 1, 1, 2, 2, 9]]);
        rb.place(&mut pr, &[(2, 3), (3, 2), (7, 1)], 6, 1).unwrap();
        assert_eq!(rb.finish(), [0, 0, 1, 2, 2, 0, 0, 9, 0, 0]);
        assert_eq!(reg.report().counter(obsv::Ctr::BytesZeroFilled), 6);

        assert_eq!(ReadBuf::new(Vec::new(), 5).finish(), [0; 5], "nothing written: all fill");
        assert_eq!(reg.report().counter(obsv::Ctr::BytesZeroFilled), 6 + 5);
        assert!(ReadBuf::new(Vec::new(), 0).finish().is_empty());
    }

    #[test]
    fn old_bytes_in_a_recycled_buffer_never_show_through() {
        let reg = obsv::Registry::new();
        let _g = obsv::install(reg.recorder(0));
        let old = vec![0xEEu8; 16];
        let p = old.as_ptr();
        let mut rb = ReadBuf::new(old, 6);
        rb.place(&mut reader(&[&[4, 5]]), &[(2, 2)], 2, 1).unwrap();
        let out = rb.finish();
        assert_eq!(out, [0, 0, 4, 5, 0, 0], "every unwritten byte is fill, not 0xEE");
        assert_eq!((out.as_ptr(), out.capacity()), (p, 16), "the allocation is reused");
        assert_eq!(reg.report().counter(obsv::Ctr::BytesZeroFilled), 4);
    }

    #[test]
    fn blob_bytes_past_the_segments_are_skipped() {
        let mut rb = ReadBuf::new(Vec::new(), 2);
        let mut pr = reader(&[&[7, 8, 0xEE, 0xEE], &[0x42]]);
        rb.place(&mut pr, &[(0, 2)], 4, 1).unwrap();
        assert_eq!(pr.remaining(), 1, "cursor sits at the next batch entry");
        assert_eq!(rb.finish(), [7, 8]);
    }

    #[test]
    fn corrupt_replies_are_format_errors() {
        let bad = |segs: &[(u64, u64)], blob: &[u8], blob_len: usize, es: usize| {
            let mut rb = ReadBuf::new(Vec::new(), 8);
            let err = rb.place(&mut reader(&[blob]), segs, blob_len, es);
            assert!(matches!(err, Err(H5Error::Format(_))), "{segs:?}: {err:?}");
        };
        bad(&[(7, 2)], &[1, 2], 2, 1); // runs past the end of the buffer
        bad(&[(8, 1)], &[1], 1, 1); // starts past it
        bad(&[(0, 4)], &[1, 2, 3, 4], 2, 1); // segments outrun the declared blob
        bad(&[(0, 4)], &[1, 2], 4, 1); // declared blob outruns the frame
        bad(&[(0, 2)], &[1, 2, 3, 4], 4, 8); // element size scales it out of bounds
        bad(&[(u64::MAX, 1)], &[1], 1, 2); // offset overflows
        bad(&[(0, u64::MAX)], &[1], 1, 2); // length overflows
        bad(&[(0, 2), (2, u64::MAX)], &[1, 2], 2, 1); // running total overflows
    }

    /// A valid one-entry data reply, result-wrapped: `blob` placed at
    /// element offset `off` of 1-byte elements.
    fn reply_bytes(off: u64, blob: &[u8]) -> Bytes {
        use crate::protocol::{enc_result_payload, BatchReplyWriter};
        let mut w = BatchReplyWriter::new(1);
        w.owners(&[0]);
        w.body(
            7,
            [(off, blob.len() as u64)].into_iter(),
            blob.len() as u64,
            [Bytes::copy_from_slice(blob)],
        );
        enc_result_payload(Ok(w.finish())).into_bytes()
    }

    /// A finished read of `n` bytes, or the error placing it gave.
    type Read = Result<Vec<u8>, String>;

    fn finished(mut fetch: Fetch, placed: H5Result<u64>) -> Read {
        placed.map_err(|e| format!("{e:?}"))?;
        Ok(fetch.outs.pop().expect("one buffer").finish())
    }

    /// The rank thread's own placement of `reply`, as every in-proc reply
    /// is placed.
    fn placed_here(reply: &Bytes, n: usize) -> Read {
        let mut fetch = Fetch::new(vec![ReadBuf::new(Vec::new(), n)], 1, 1);
        let mut pr = PayloadReader::new(reply.clone().into());
        let placed = fetch.place_reply(&mut pr, 0..1, &mut |_| {});
        finished(fetch, placed)
    }

    /// Each of `replies` answers one call of a posted round over a socket
    /// world: the reader thread places it through the round's sink.
    fn placed_by_sink(replies: Vec<Bytes>, n: usize) -> Vec<Read> {
        use diyblk::rpc::{Call, RpcClient, RpcServer, ServeOutcome};
        let count = replies.len();
        let out = simmpi::World::builder(2).transport(simmpi::TransportKind::Socket).run(|c| {
            if c.rank() == 0 {
                let mut next = replies.clone().into_iter();
                RpcServer::new(&c).serve(|_, _, _| match next.next() {
                    Some(r) if next.len() > 0 => ServeOutcome::Reply(r),
                    last => ServeOutcome::Stop(last),
                });
                return Vec::new();
            }
            (0..count)
                .map(|_| {
                    let mut fetch = Fetch::new(vec![ReadBuf::new(Vec::new(), n)], 1, 1);
                    let mut round = Round::new(&mut fetch, Some(vec![vec![0]]));
                    let call = Call::new(0, 6, b"q").sink(round.sink(0).expect("posted"));
                    let mut placed = Err(H5Error::Vol("no reply".into()));
                    RpcClient::new(&c).call_many(vec![call], None, |k, r| {
                        let reply = r.expect("the server answers every call");
                        let posted = round.posted.as_ref().expect("posted");
                        assert!(posted.lock().taken[k].is_some(), "the reader took the reply");
                        assert!(reply.is_empty(), "the completion carries no body");
                        let (len, p) = round.settle(k, reply, 0..1, &mut |_| {});
                        assert!(len > 0 || p.is_err(), "the frame's length, not the completion's");
                        placed = p;
                    });
                    round.finish();
                    finished(fetch, placed)
                })
                .collect()
        });
        out.results.into_iter().nth(1).expect("the client's reads")
    }

    /// Damaged replies that reach a posted sink: a declared length past
    /// the frame, a frame cut short, trailing bytes, a segment outside
    /// the buffer, an error reply. Each call fails with `Format` (or, for
    /// the error reply, the error it carries) exactly as the rank
    /// thread's own placement of the same bytes does, and the valid reply
    /// after each arrives intact: a rejected body was drained.
    #[test]
    fn a_posted_sink_rejects_what_the_rank_thread_would_and_drains_it() {
        let good = reply_bytes(2, &[1, 2, 3, 4]);
        let mut cut = good.to_vec();
        cut.truncate(cut.len() - 2);
        let trailing = [&good[..], &[0xEE, 0xEE]].concat();
        let mut long_blob = good.to_vec();
        let blob_len_at = good.len() - 4 - 8;
        long_blob[blob_len_at..blob_len_at + 8].copy_from_slice(&1000u64.to_le_bytes());
        let outside = reply_bytes(6, &[1, 2, 3, 4]);
        let not_found = crate::protocol::enc_result(Err(H5Error::NotFound("x".into())));
        let damaged: Vec<Bytes> =
            vec![cut.into(), trailing.into(), long_blob.into(), outside, not_found];
        let mut replies = Vec::new();
        for d in &damaged {
            replies.extend([d.clone(), good.clone()]);
        }
        let got = placed_by_sink(replies.clone(), 8);
        for (i, (reply, got)) in replies.iter().zip(&got).enumerate() {
            assert_eq!(got, &placed_here(reply, 8), "reply {i}: sink and rank thread agree");
            if i % 2 == 1 {
                assert_eq!(got.as_deref(), Ok(&[0, 0, 1, 2, 3, 4, 0, 0][..]), "reply {i} intact");
            } else if i == 8 {
                assert!(got.as_ref().unwrap_err().starts_with("NotFound"), "{got:?}");
            } else {
                assert!(got.as_ref().unwrap_err().starts_with("Format"), "reply {i}: {got:?}");
            }
        }
    }

    /// A reply still on a socket whose frame header declares far more
    /// than the peer sent: `remaining` counts the declared bytes, and
    /// reads past the bytes present fail as a cut-short frame does.
    struct Declared {
        sent: PayloadReader,
        declared: usize,
    }

    impl ReplySource for Declared {
        fn remaining(&self) -> usize {
            self.declared
        }

        fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()> {
            self.declared = self.declared.checked_sub(dst.len()).ok_or_else(out_of_bounds)?;
            self.sent.copy_into(dst)
        }

        fn skip(&mut self, n: usize) -> H5Result<()> {
            self.declared = self.declared.checked_sub(n).ok_or_else(out_of_bounds)?;
            ReplySource::skip(&mut self.sent, n)
        }

        fn read_ranges(
            &mut self,
            dst: &mut [std::mem::MaybeUninit<u8>],
            ranges: impl Iterator<Item = Range<usize>>,
        ) -> H5Result<()> {
            let ranges: Vec<_> = ranges.collect();
            let n = ranges.iter().map(|r| r.len()).sum::<usize>();
            self.declared = self.declared.checked_sub(n).ok_or_else(out_of_bounds)?;
            self.sent.read_ranges(dst, ranges.into_iter())
        }
    }

    /// A header may declare 2^39 bytes (512 GiB) and a peer send a few:
    /// a segment count, an owner count or an error frame checked against
    /// that length sizes nothing, and the read fails as a cut-short reply
    /// does instead of aborting on the allocation.
    #[test]
    fn counts_within_a_declared_length_size_nothing() {
        let huge = 1u64 << 34; // 2^34 segments of 16 bytes fit in 2^39
        let u64s = |v: &[u64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let ok = [1u8]; // the result wrapper's ok discriminant
        let cases: [(&str, Vec<u8>); 4] = [
            ("segment count", [&ok[..], &u64s(&[1, 0, 7, huge, 0, 4])].concat()),
            ("owner count", [&ok[..], &u64s(&[1, huge, 0])].concat()),
            ("entry count", [&ok[..], &u64s(&[huge, 0])].concat()),
            ("error frame", vec![0u8, 3, 0xEE, 0xEE]),
        ];
        for (what, bytes) in cases {
            let mut fetch = Fetch::new(vec![ReadBuf::new(Vec::new(), 8)], 1, 1);
            let sent = reader(&[&bytes]);
            let mut src = Declared { sent, declared: 1 << 39 };
            let got = fetch.place_reply(&mut src, 0..1, &mut |_| {});
            assert!(matches!(got, Err(H5Error::Format(_))), "{what}: {got:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24, ..Default::default() })]

        /// Fuzzed replies through a posted sink: flipped bytes, a frame
        /// cut anywhere, trailing garbage. Whatever the damage, the sink's
        /// result is the rank thread's on the same bytes — the same buffer
        /// or the same error kind — nothing panics, and the valid reply
        /// sent after each damaged one arrives intact.
        #[test]
        fn fuzzed_replies_place_alike_through_a_sink_and_in_memory(
            cases in proptest::collection::vec(
                (0u64..8, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..9),
                 0u8..3, proptest::prelude::any::<usize>(), 1u8..=255),
                1..4,
            ),
        ) {
            let good = reply_bytes(1, &[9, 9]);
            let mut replies = Vec::new();
            for (off, blob, how, at, x) in &cases {
                let mut r = reply_bytes(*off, blob).to_vec();
                match how {
                    0 => { let i = at % r.len(); r[i] ^= x; }
                    1 => r.truncate(at % r.len()),
                    _ => r.extend(std::iter::repeat_n(*x, 1 + at % 9)),
                }
                replies.extend([Bytes::from(r), good.clone()]);
            }
            let got = placed_by_sink(replies.clone(), 8);
            for (reply, got) in replies.iter().zip(&got) {
                let here = placed_here(reply, 8);
                let kind = |r: &Read| r.as_ref().map_err(|e| e.split('(').next().unwrap_or("").to_string()).cloned();
                proptest::prop_assert_eq!(kind(got), kind(&here));
            }
            for got in got.iter().skip(1).step_by(2) {
                proptest::prop_assert_eq!(got.as_deref(), Ok(&[0, 9, 9, 0, 0, 0, 0, 0][..]));
            }
        }
    }
}
