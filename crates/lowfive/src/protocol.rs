//! Wire protocol of the index–serve–query redistribution.
//!
//! Every conversation between consumer ranks (clients) and producer ranks
//! (servers) over the world communicator is one [`Request`] variant:
//! `Metadata` (consumer `file_open`, answered with a [`MetadataReply`]),
//! `DataBatch` (the query of Algorithm 3: all of a consumer's `(dataset,
//! selection)` pairs for one producer and file in one frame, answered by
//! a [`BatchReplyWriter`] and read by a [`BatchReplyReader`]), `Done`
//! (consumer `file_close`), `Shutdown` (producer-internal), the step
//! streaming control plane `StepSub` / `StepNext` / `StepAck` (see
//! `crate::stream`, answered with a [`StepSubReply`], a [`StepNextReply`]
//! and an empty ack). The index exchange among producers (Algorithm 1)
//! is a plain tagged message (`TAG_INDEX`) on the producer task's local
//! communicator, one [`IndexBundle`] per peer.
//!
//! Each data entry is answered with its *redirect* (the owner ranks) and
//! the segments of the producer's regions it selects, addressed in the
//! consumer's packed buffer. Dataset bytes are *lent* into a
//! [`ReplyFrame`] and walked in place with a [`PayloadReader`]: the only
//! copy on the path is the final placement. Every reply a producer serves
//! carries the file's *generation*, which consumers key their caches on.
//!
//! ## One layout per frame
//!
//! Each frame's byte layout is written once in this module: a request's
//! in [`Request::encode`] and [`Request::decode`], a reply's in its
//! type's encoder and decoder. The serve loop matches [`Request`]
//! exhaustively, and a retired or unknown method id is one decode error.
//! The repository's `docs/PROTOCOL.md` maps the layouts; the golden-bytes
//! test in `tests/proptest_protocol.rs` pins them.

use std::mem::MaybeUninit;
use std::ops::Range;

use bytes::Bytes;
use minih5::codec::{Reader, Writer};
use minih5::format::FileMeta;
use minih5::{BBox, H5Error, H5Result, Selection};
use simmpi::{FrameBody, Payload};

/// Fetch the serialized [`FileMeta`] tree of a file.
pub const M_METADATA: u32 = 1;
// Method id 2 was the separate redirect query (its answer now rides on
// every `M_DATA_BATCH` reply), id 3 the single-entry data query and id
// 10 the codec-capability offer (replies ship their bodies raw). All
// three are retired, not renumbered, and fail to decode like an unknown
// id.
/// Consumer `file_close` notification (acked).
pub const M_DONE: u32 = 4;
/// Producer-internal: ask the overlap-mode serve thread to drain and exit.
pub const M_SHUTDOWN: u32 = 5;
/// Data query: all of a consumer's selections for one producer in a
/// single frame, answered in a single reply.
pub const M_DATA_BATCH: u32 = 6;
/// Subscribe to a step series: returns the retained window bounds.
pub const M_STEP_SUB: u32 = 7;
/// Poll for the next step of a series under a subscribe policy.
pub const M_STEP_NEXT: u32 = 8;
/// Cumulative step-consumption acknowledgement (multicast to producers).
pub const M_STEP_ACK: u32 = 9;

/// Tag for the producer-local index exchange (Algorithm 1).
pub const TAG_INDEX: u32 = 0x7F10_0001;

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// How a step subscription walks a series; carried in every
/// [`Request::StepNext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPolicy {
    /// Deliver every retained step in sequence order. Combined with
    /// [`crate::BackPressure::Block`] this is lossless: the consumer sees
    /// the exact sequence the producer published.
    EveryStep,
    /// Always deliver the newest retained step at or past the cursor,
    /// skipping anything older (a dashboard following a simulation).
    LatestStep,
    /// Deliver in order, but allow jumping up to `n` steps ahead of the
    /// cursor when the consumer has fallen behind: the newest retained
    /// step within `cursor + n` is chosen, or the oldest available one
    /// if even that range has been outrun.
    SkipOk(u64),
}

impl StepPolicy {
    /// The wire's `(code, skip)`: codes 0, 1, 2 in declaration order; the
    /// skip bound is always there, zero for the first two.
    fn to_wire(self) -> (u8, u64) {
        match self {
            StepPolicy::EveryStep => (0, 0),
            StepPolicy::LatestStep => (1, 0),
            StepPolicy::SkipOk(n) => (2, n),
        }
    }

    fn from_wire(code: u8, skip: u64) -> H5Result<Self> {
        match code {
            0 => Ok(StepPolicy::EveryStep),
            1 => Ok(StepPolicy::LatestStep),
            2 => Ok(StepPolicy::SkipOk(skip)),
            c => Err(H5Error::Format(format!("unknown step policy code {c}"))),
        }
    }
}

/// The `(dataset, selection)` entries of a [`Request::DataBatch`], in
/// entry order.
#[derive(Debug, Clone)]
pub enum BatchEntries<'a> {
    /// Lent by the consumer that encodes a query: one list, refilled for
    /// each frame of a read.
    Lent(&'a [(&'a str, &'a Selection)]),
    /// Read off a frame by the producer, names borrowed from it.
    Read(Vec<(&'a str, Selection)>),
}

impl<'a> BatchEntries<'a> {
    /// The number of entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            BatchEntries::Lent(e) => e.len(),
            BatchEntries::Read(e) => e.len(),
        }
    }

    /// The entries, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &Selection)> + '_ {
        let (lent, read): (&[_], &[_]) = match self {
            BatchEntries::Lent(e) => (e, &[]),
            BatchEntries::Read(e) => (&[], e),
        };
        lent.iter().map(|&(d, s)| (d, s)).chain(read.iter().map(|(d, s)| (*d, s)))
    }
}

impl PartialEq for BatchEntries<'_> {
    /// The same entries, lent or read.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One request of the transport, its method id implied by the variant.
/// Names are borrowed — from the caller that encodes a request, from the
/// frame one was decoded from — so decoding allocates only a data query's
/// entry list and selections.
///
/// ```
/// use lowfive::protocol::{Request, StepPolicy};
/// for req in [
///     Request::Metadata { file: "a.h5" },
///     Request::Done { file: "a.h5" },
///     Request::StepSub { series: "sim.h5" },
///     Request::StepNext { series: "sim.h5", cursor: 4, policy: StepPolicy::SkipOk(2) },
///     Request::StepAck { series: "sim.h5", cursor: 12 },
/// ] {
///     let frame = req.encode().finish();
///     assert_eq!(Request::decode(req.method(), &frame).unwrap(), req);
/// }
/// // A retired method id is a decode error like any unknown one.
/// assert!(Request::decode(2, b"").is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// `M_METADATA`: a file's metadata tree, answered with a
    /// [`MetadataReply`].
    Metadata {
        /// The file.
        file: &'a str,
    },
    /// `M_DATA_BATCH`: every selection the consumer wants from one
    /// producer for a file, answered with one entry each (see
    /// [`BatchReplyWriter`]), so how selections are grouped into frames
    /// never changes the bytes a consumer assembles.
    DataBatch {
        /// The file.
        file: &'a str,
        /// The `(dataset, selection)` pairs, in reply order.
        entries: BatchEntries<'a>,
    },
    /// `M_DONE`: the consumer closed a file; acked with an empty body.
    Done {
        /// The file.
        file: &'a str,
    },
    /// `M_SHUTDOWN` (notification, producer-internal): no arguments.
    Shutdown,
    /// `M_STEP_SUB`: subscribe to a series, answered with a
    /// [`StepSubReply`].
    StepSub {
        /// The series.
        series: &'a str,
    },
    /// `M_STEP_NEXT`: poll a series, answered with a [`StepNextReply`].
    StepNext {
        /// The series.
        series: &'a str,
        /// Every step below it is consumed: the poll doubles as an ack.
        cursor: u64,
        /// Which retained step at or past the cursor to deliver.
        policy: StepPolicy,
    },
    /// `M_STEP_ACK`: a cumulative, idempotent ack; acked with an empty
    /// body.
    StepAck {
        /// The series.
        series: &'a str,
        /// Every step below it is consumed.
        cursor: u64,
    },
}

impl<'a> Request<'a> {
    /// The RPC method id this request travels under.
    pub fn method(&self) -> u32 {
        match self {
            Request::Metadata { .. } => M_METADATA,
            Request::DataBatch { .. } => M_DATA_BATCH,
            Request::Done { .. } => M_DONE,
            Request::Shutdown => M_SHUTDOWN,
            Request::StepSub { .. } => M_STEP_SUB,
            Request::StepNext { .. } => M_STEP_NEXT,
            Request::StepAck { .. } => M_STEP_ACK,
        }
    }

    /// Encode the arguments, with headroom in front for the RPC header
    /// (`RpcClient::call_frame` / `notify_frame` send the one buffer).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        match self {
            // Three methods are a name alone.
            Request::Metadata { file: name }
            | Request::Done { file: name }
            | Request::StepSub { series: name } => w.put_str(name),
            Request::StepAck { series, cursor } => {
                w.put_str(series);
                w.put_u64(*cursor);
            }
            Request::DataBatch { file, entries } => {
                w.put_str(file);
                w.put_u64(entries.len() as u64);
                for (dset, sel) in entries.iter() {
                    w.put_str(dset);
                    w.put(sel);
                }
            }
            Request::Shutdown => {}
            Request::StepNext { series, cursor, policy } => {
                let (code, skip) = policy.to_wire();
                w.put_str(series);
                w.put_u64(*cursor);
                w.put_u8(code);
                w.put_u64(skip);
            }
        }
        w
    }

    /// Decode the arguments `b` of a request that arrived under `method`,
    /// names borrowed from `b`. An unknown or retired method id, a frame
    /// cut short, a count the frame cannot hold, a bad policy code and
    /// trailing bytes are all [`H5Error::Format`].
    pub fn decode(method: u32, b: &'a [u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let req = match method {
            M_METADATA => Request::Metadata { file: r.get_str_ref()? },
            M_DATA_BATCH => {
                let file = r.get_str_ref()?;
                // An entry is at least a name's length and a selection tag.
                let n = r.get_count(9)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.get_str_ref()?, r.get()?));
                }
                Request::DataBatch { file, entries: BatchEntries::Read(entries) }
            }
            M_DONE => Request::Done { file: r.get_str_ref()? },
            M_SHUTDOWN => Request::Shutdown,
            M_STEP_SUB => Request::StepSub { series: r.get_str_ref()? },
            M_STEP_NEXT => Request::StepNext {
                series: r.get_str_ref()?,
                cursor: r.get_u64()?,
                policy: StepPolicy::from_wire(r.get_u8()?, r.get_u64()?)?,
            },
            M_STEP_ACK => Request::StepAck { series: r.get_str_ref()?, cursor: r.get_u64()? },
            m => return Err(H5Error::Format(format!("unknown RPC method {m}"))),
        };
        expect_eof(&r)?;
        Ok(req)
    }
}

/// Encode a data query from owned entries. The benchmark's protocol
/// layer pass times this signature; it delegates to [`Request::encode`].
///
/// ```
/// use lowfive::protocol::{dec_data_req_batch, enc_data_req_batch};
/// use minih5::Selection;
/// let entries = vec![("grid".to_string(), Selection::block(&[0, 0], &[4, 4]))];
/// let frame = enc_data_req_batch("step0.h5", &entries);
/// let (file, back) = dec_data_req_batch(&frame).unwrap();
/// assert_eq!((file, back[0].0, &back[0].1), ("step0.h5", "grid", &entries[0].1));
/// ```
pub fn enc_data_req_batch(file: &str, entries: &[(String, Selection)]) -> Bytes {
    let lent: Vec<(&str, &Selection)> = entries.iter().map(|(d, s)| (d.as_str(), s)).collect();
    Request::DataBatch { file, entries: BatchEntries::Lent(&lent) }.encode().finish()
}

/// Decode a data query into owned selections. The benchmark's protocol
/// layer pass times this signature; it delegates to [`Request::decode`].
pub fn dec_data_req_batch(b: &[u8]) -> H5Result<(&str, Vec<(&str, Selection)>)> {
    match Request::decode(M_DATA_BATCH, b)? {
        Request::DataBatch { file, entries: BatchEntries::Read(entries) } => Ok((file, entries)),
        other => unreachable!("M_DATA_BATCH decoded as {other:?}"),
    }
}

/// Leftover bytes mean a mis-framed (or padded) message: an error.
fn expect_eof(r: &Reader) -> H5Result<()> {
    if r.remaining() != 0 {
        return Err(H5Error::Format(format!("{} trailing bytes", r.remaining())));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The result wrapper
// ---------------------------------------------------------------------

/// The result wrapper's discriminant: `[RESULT_OK][body]` or
/// `[RESULT_ERR][kind u8][message str]`.
const RESULT_OK: u8 = 1;
const RESULT_ERR: u8 = 0;

/// Error-kind codes of the result wrapper's err branch: the variants that
/// change a consumer's control flow survive the wire instead of
/// collapsing into a generic string.
const EK_GENERIC: u8 = 0;
const EK_NOT_FOUND: u8 = 1;
const EK_PEER_UNAVAILABLE: u8 = 2;
/// A request the producer could not decode: the client sent a bad frame.
const EK_FORMAT: u8 = 3;

/// Replies carry an ok/err discriminant so protocol errors propagate to
/// the consumer instead of deadlocking it. The ok branch is `[1 u8]` and
/// the body, the err branch `[0 u8][kind u8][message str]`. This is the
/// contiguous form of [`result_frame`], copying the body once.
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{enc_result, dec_result};
/// use minih5::H5Error;
/// let ok = enc_result(Ok(Bytes::from_static(b"payload")));
/// assert_eq!(&dec_result(&ok).unwrap()[..], b"payload");
/// let err = enc_result(Err(H5Error::PeerUnavailable("rank 1 dead".into())));
/// assert!(matches!(dec_result(&err).unwrap_err(), H5Error::PeerUnavailable(_)));
/// ```
pub fn enc_result(r: H5Result<Bytes>) -> Bytes {
    result_frame(r.map(|body| Writer::from(&body[..]))).finish()
}

/// The result wrapper around a reply body still open in the `Writer` it
/// was encoded into: the ok discriminant goes into its headroom, an error
/// is framed in a fresh writer. Either way the frame is one buffer with
/// headroom left for a deferred reply's call id
/// (`diyblk::rpc::send_reply_frame`).
pub fn result_frame(r: H5Result<Writer>) -> Writer {
    match r {
        Ok(mut body) => {
            body.prepend(&[RESULT_OK]);
            body
        }
        Err(e) => {
            let (kind, msg) = match &e {
                H5Error::NotFound(n) => (EK_NOT_FOUND, n.clone()),
                H5Error::PeerUnavailable(m) => (EK_PEER_UNAVAILABLE, m.clone()),
                H5Error::Format(m) => (EK_FORMAT, m.clone()),
                other => (EK_GENERIC, other.to_string()),
            };
            let mut w = Writer::new();
            w.put_u8(RESULT_ERR);
            w.put_u8(kind);
            w.put_str(&msg);
            w
        }
    }
}

/// Unwrap a [`enc_result`]-framed reply body. An err frame must end with
/// its message.
pub fn dec_result(b: &Bytes) -> H5Result<Bytes> {
    let mut r = Reader::new(b);
    match r.get_u8()? {
        RESULT_OK => Ok(b.slice(1..)),
        RESULT_ERR => {
            let kind = r.get_u8()?;
            let msg = r.get_str()?;
            expect_eof(&r)?;
            Err(match kind {
                EK_NOT_FOUND => H5Error::NotFound(msg),
                EK_PEER_UNAVAILABLE => H5Error::PeerUnavailable(msg),
                EK_FORMAT => H5Error::Format(msg),
                _ => H5Error::Vol(format!("remote error: {msg}")),
            })
        }
        t => Err(H5Error::Format(format!("bad reply discriminant {t}"))),
    }
}

/// The ok reply with an empty body (an ack): one static byte.
pub const OK_EMPTY: Bytes = Bytes::from_static(&[RESULT_OK]);

/// `body` behind a one-byte part holding `tag`, its parts untouched. The
/// tag part is a static slice in front of the body's own part list, so
/// framing a reply allocates nothing.
fn prefixed(tag: &'static [u8; 1], mut body: Payload) -> Payload {
    body.prepend(Bytes::from_static(tag));
    body
}

/// Parts-preserving [`enc_result`]: the ok discriminant becomes its own
/// one-byte part and the body's parts follow untouched, so a zero-copy
/// reply stays zero-copy through the result wrapper. Flattened, the frame
/// is identical to `enc_result`'s.
pub fn enc_result_payload(r: H5Result<Payload>) -> Payload {
    match r {
        Ok(body) => prefixed(&[RESULT_OK], body),
        Err(e) => result_frame(Err(e)).finish().into(),
    }
}

/// Unwrap a result-framed reply delivered as a [`Payload`] without
/// flattening the ok body: a one-byte peek plus an in-place `advance`.
pub fn dec_result_payload(mut p: Payload) -> H5Result<Payload> {
    let mut d = [0u8; 1];
    if p.copy_prefix(&mut d) && d[0] == RESULT_OK {
        p.advance(1);
        return Ok(p);
    }
    // Empty, an err frame or a bad discriminant: small, single-part.
    dec_result(&p.into_bytes()).map(Payload::from)
}

/// Read the result wrapper's discriminant off the front of `src`: `Ok`
/// before an ok body, the carried error for an err frame. The streaming
/// form of [`dec_result_payload`], for a reply read where it arrives.
pub(crate) fn get_result(src: &mut impl ReplySource) -> H5Result<()> {
    let mut d = [0u8; 1];
    src.read_exact(&mut d)?;
    if d[0] == RESULT_OK {
        return Ok(());
    }
    // An err frame (or a bad discriminant): small, read whole. On a
    // socket `remaining` is what the header declares, not what arrived,
    // so the frame grows window by window as its bytes do.
    let (mut frame, n) = (vec![d[0]], src.remaining());
    get_records(src, n, 1, |w| {
        frame.extend_from_slice(w);
        Ok(())
    })?;
    dec_result(&Bytes::from(frame)).map(drop)
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// The reply to [`Request::Metadata`]: the file's generation, then the
/// serialized [`FileMeta`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataReply {
    /// Generation of the file at reply time.
    pub gen: u64,
    /// The file's metadata tree.
    pub meta: FileMeta,
}

impl MetadataReply {
    /// Encode, with headroom for the result discriminant ([`result_frame`]).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.put_u64(self.gen);
        w.put(&self.meta);
        w
    }

    /// Decode a whole metadata reply body.
    pub fn decode(b: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let reply = MetadataReply { gen: r.get_u64()?, meta: r.get()? };
        expect_eof(&r)?;
        Ok(reply)
    }
}

/// The reply to [`Request::StepSub`]: the retained window start (the
/// oldest step a late joiner can still catch up from), the next sequence
/// number the producer will publish, and whether the series has ended.
///
/// ```
/// use lowfive::protocol::StepSubReply;
/// let reply = StepSubReply { window_start: 3, next_seq: 7, ended: false };
/// assert_eq!(StepSubReply::decode(&reply.encode().finish()).unwrap(), reply);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSubReply {
    /// Oldest retained sequence number.
    pub window_start: u64,
    /// The sequence number the next publish takes.
    pub next_seq: u64,
    /// Has the series ended?
    pub ended: bool,
}

impl StepSubReply {
    /// Encode, with headroom for the result discriminant ([`result_frame`]).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.put_u64(self.window_start);
        w.put_u64(self.next_seq);
        w.put_u8(self.ended as u8);
        w
    }

    /// Decode a whole step-subscribe reply body.
    pub fn decode(b: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let reply = StepSubReply {
            window_start: r.get_u64()?,
            next_seq: r.get_u64()?,
            ended: r.get_u8()? != 0,
        };
        expect_eof(&r)?;
        Ok(reply)
    }
}

/// The reply to [`Request::StepNext`].
///
/// ```
/// use lowfive::protocol::StepNextReply;
/// for reply in [
///     StepNextReply::Pending,
///     StepNextReply::Step { seq: 5, file: "sim.h5@s1".into(), gen: 2, pub_ns: 99 },
///     StepNextReply::Ended { head: 6 },
/// ] {
///     assert_eq!(StepNextReply::decode(&reply.encode().finish()).unwrap(), reply);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepNextReply {
    /// Nothing at or past the cursor is retained yet, and the consumer
    /// asked again while its earlier poll was parked; poll again (that
    /// poll parks).
    Pending,
    /// A step *announce*: the chosen step and where to read it.
    Step {
        /// Sequence number of the announced step.
        seq: u64,
        /// Slot filename holding the step's datasets (open it like any
        /// consumed file).
        file: String,
        /// The producer's generation of the slot file at publish time; a
        /// later read observing a different generation proves the slot
        /// was recycled underneath the announce (drop-oldest mode only).
        gen: u64,
        /// Publish timestamp, `obsv::clock::now_ns` domain (threads share
        /// one process clock, so consumers can histogram step latency).
        pub_ns: u64,
    },
    /// The series ended and nothing at or past the cursor remains; `head`
    /// is the final next-sequence value to acknowledge.
    Ended {
        /// One past the last published sequence number.
        head: u64,
    },
}

impl StepNextReply {
    /// Encode, with headroom for the result discriminant ([`result_frame`]).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        match self {
            StepNextReply::Pending => w.put_u8(0),
            StepNextReply::Step { seq, file, gen, pub_ns } => {
                w.put_u8(1);
                w.put_u64(*seq);
                w.put_str(file);
                w.put_u64(*gen);
                w.put_u64(*pub_ns);
            }
            StepNextReply::Ended { head } => {
                w.put_u8(2);
                w.put_u64(*head);
            }
        }
        w
    }

    /// Decode a whole step-next reply body.
    pub fn decode(b: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let reply = match r.get_u8()? {
            0 => StepNextReply::Pending,
            1 => StepNextReply::Step {
                seq: r.get_u64()?,
                file: r.get_str()?,
                gen: r.get_u64()?,
                pub_ns: r.get_u64()?,
            },
            2 => StepNextReply::Ended { head: r.get_u64()? },
            t => return Err(H5Error::Format(format!("bad step-next discriminant {t}"))),
        };
        expect_eof(&r)?;
        Ok(reply)
    }
}

/// One producer's contribution to another producer's index (Algorithm
/// 1): per dataset, the bounding boxes of the regions the sender holds
/// that fall in the receiver's block of the common decomposition, each
/// tagged with the sender's generation of the file at index time.
/// Entries are written as they are found; the count that leads the
/// bundle goes into the headroom at [`IndexBundle::finish`]. A bundle
/// with no entry — a peer none of the sender's regions reaches — is a
/// static frame and allocates nothing.
///
/// ```
/// use lowfive::protocol::{IndexBundle, IndexEntry};
/// use minih5::BBox;
/// let bbox = BBox::new(vec![0], vec![5]);
/// let mut bundle = IndexBundle::default();
/// bundle.push("f.h5", "grid", 1, &bbox);
/// let frame = bundle.finish();
/// let entries = IndexBundle::decode(&frame).unwrap();
/// assert_eq!(entries, vec![IndexEntry { file: "f.h5", dset: "grid", gen: 1, bbox }]);
/// ```
#[derive(Default)]
pub struct IndexBundle {
    w: Writer,
    n: u64,
}

/// One decoded [`IndexBundle`] entry, names borrowed from the bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry<'a> {
    /// The indexed file.
    pub file: &'a str,
    /// The dataset's path in it.
    pub dset: &'a str,
    /// The sender's generation of the file when it indexed.
    pub gen: u64,
    /// The bounding box of one of the sender's regions.
    pub bbox: BBox,
}

impl IndexBundle {
    /// Append one entry.
    pub fn push(&mut self, file: &str, dset: &str, gen: u64, bbox: &BBox) {
        if self.n == 0 {
            self.w = Writer::new();
        }
        self.w.put_str(file);
        self.w.put_str(dset);
        self.w.put_u64(gen);
        self.w.put(bbox);
        self.n += 1;
    }

    /// The bundle's frame: the entry count, then the entries.
    pub fn finish(mut self) -> Bytes {
        static NO_ENTRIES: [u8; 8] = [0; 8];
        if self.n == 0 {
            return Bytes::from_static(&NO_ENTRIES);
        }
        self.w.prepend(&self.n.to_le_bytes());
        self.w.finish()
    }

    /// Decode a whole bundle.
    pub fn decode(b: &[u8]) -> H5Result<Vec<IndexEntry<'_>>> {
        let mut r = Reader::new(b);
        // An entry is at least two names' lengths, a generation and a tag.
        let n = r.get_count(25)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(IndexEntry {
                file: r.get_str_ref()?,
                dset: r.get_str_ref()?,
                gen: r.get_u64()?,
                bbox: r.get()?,
            });
        }
        expect_eof(&r)?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The data reply (`M_DATA_BATCH`)
// ---------------------------------------------------------------------
//
//   reply = [n u64] { [owners u64s] } × n { body } × n
//   body  = [gen u64][nsegs u64] { [off u64][len u64] } × nsegs
//           [blob_len u64][blob bytes]

/// The reply to [`Request::DataBatch`], written over a [`ReplyFrame`]:
/// the entry count, every entry's owner list, then every entry's body,
/// all in entry order. A body's blob is lent as the region slices it is
/// made of; nothing is copied.
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{BatchReplyReader, BatchReplyWriter};
/// let region = Bytes::from(vec![1u8, 2, 3, 4, 5]);
/// let mut w = BatchReplyWriter::new(1);
/// w.owners(&[0]);
/// w.body(7, [(0, 3)].into_iter(), 3, [region.slice(1..4)]); // lent, not copied
/// let mut r = BatchReplyReader::new(w.finish(), 1).unwrap();
/// assert_eq!(r.entries(), 1);
/// let mut owners = Vec::new();
/// r.owners(|o| owners.push(o)).unwrap();
/// let mut segs = Vec::new();
/// assert_eq!(r.body(&mut segs).unwrap(), (7, 3));
/// let mut blob = [0u8; 3];
/// r.blob().copy_into(&mut blob).unwrap();
/// r.finish().unwrap();
/// assert_eq!((owners, segs, blob), (vec![0], vec![(0, 3)], [2, 3, 4]));
/// ```
pub struct BatchReplyWriter {
    frame: ReplyFrame,
}

impl BatchReplyWriter {
    /// A reply of `entries` entries.
    pub fn new(entries: usize) -> Self {
        let mut frame = ReplyFrame::new();
        frame.put_u64(entries as u64);
        BatchReplyWriter { frame }
    }

    /// The next entry's owner list: the producer-local ranks whose index
    /// boxes the entry's selection hits. Every owner list comes before
    /// the first body.
    pub fn owners(&mut self, owners: &[usize]) {
        self.frame.put_u64(owners.len() as u64);
        owners.iter().for_each(|&o| self.frame.put_u64(o as u64));
    }

    /// The next entry's body: the file's generation `gen`, its segments
    /// `(element offset in the consumer's packed buffer, element count)`,
    /// and its `blob_len`-byte blob lent as the parts of `blob`, in
    /// segment order.
    pub fn body(
        &mut self,
        gen: u64,
        segs: impl ExactSizeIterator<Item = (u64, u64)>,
        blob_len: u64,
        blob: impl IntoIterator<Item = Bytes>,
    ) {
        self.frame.put_u64(gen);
        self.frame.put_u64(segs.len() as u64);
        for (off, len) in segs {
            self.frame.put_u64(off);
            self.frame.put_u64(len);
        }
        self.frame.put_blob_len(blob_len);
        blob.into_iter().for_each(|part| self.frame.lend(part));
    }

    /// The reply's parts.
    pub fn finish(self) -> Payload {
        self.frame.finish()
    }
}

/// Reads a [`BatchReplyWriter`] reply where it is, as the consumer's
/// fetch does: the owner lists entry by entry, then each body's header,
/// its blob left at [`BatchReplyReader::blob`] for the caller to place or
/// skip. The reply is a [`ReplySource`]: a [`PayloadReader`] over a reply
/// in memory, or the socket stream it is still arriving on. Every count
/// is checked against the bytes present and every owner against the
/// producer task.
pub struct BatchReplyReader<S: ReplySource = PayloadReader> {
    src: S,
    producers: usize,
    entries: usize,
}

impl BatchReplyReader {
    /// Start reading `reply`, answered by a task of `producers` ranks.
    pub fn new(reply: Payload, producers: usize) -> H5Result<Self> {
        Self::over(PayloadReader::new(reply), producers)
    }
}

impl<S: ReplySource> BatchReplyReader<S> {
    /// Start reading a reply off `src`, answered by a task of `producers`
    /// ranks.
    pub fn over(mut src: S, producers: usize) -> H5Result<Self> {
        let entries = src.get_count(8)?;
        Ok(BatchReplyReader { src, producers, entries })
    }

    /// The number of entries the reply declares.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Read the next entry's owner list, handing each owner to `f` in
    /// wire order. An owner outside `0..producers` is an
    /// [`H5Error::Format`] here rather than an out-of-bounds index later.
    pub fn owners(&mut self, mut f: impl FnMut(usize)) -> H5Result<()> {
        let k = self.src.get_count(8)?;
        let producers = self.producers;
        get_records(&mut self.src, k, 8, |w| {
            for o in w.chunks_exact(8).map(le_u64) {
                f(usize::try_from(o).ok().filter(|&o| o < producers).ok_or_else(|| {
                    H5Error::Format(format!("owner rank {o} outside a task of {producers}"))
                })?);
            }
            Ok(())
        })
    }

    /// Read the next body's header: its segments into `segs` (cleared
    /// first, so one list serves every entry), then `(generation, blob
    /// length in bytes)`. The blob follows at [`Self::blob`] and must be
    /// read or skipped before the next body.
    pub fn body(&mut self, segs: &mut Vec<(u64, u64)>) -> H5Result<(u64, usize)> {
        body_header(&mut self.src, segs)
    }

    /// The cursor, at the blob of the body just read.
    pub fn blob(&mut self) -> &mut S {
        &mut self.src
    }

    /// Fail unless the whole reply has been read.
    pub fn finish(&self) -> H5Result<()> {
        match self.src.remaining() {
            0 => Ok(()),
            n => Err(H5Error::Format(format!("{n} trailing bytes after reply"))),
        }
    }
}

/// The one reader of a body header (see [`BatchReplyReader::body`]).
/// The segment list grows only with the segments read: on a socket the
/// count is checked against the length the frame's header declares, not
/// against bytes that arrived, so it must size nothing.
fn body_header(src: &mut impl ReplySource, segs: &mut Vec<(u64, u64)>) -> H5Result<(u64, usize)> {
    let gen = src.get_u64()?;
    let n = src.get_count(16)?;
    segs.clear();
    get_records(src, n, 16, |w| {
        segs.extend(w.chunks_exact(16).map(|s| (le_u64(&s[..8]), le_u64(&s[8..]))));
        Ok(())
    })?;
    let blob_len = src.get_u64()? as usize;
    if blob_len > src.remaining() {
        return Err(H5Error::Format(format!(
            "declared blob length {blob_len} exceeds frame ({} bytes left)",
            src.remaining()
        )));
    }
    Ok((gen, blob_len))
}

/// Most bytes of fixed-size header records taken per
/// [`ReplySource::read_exact`]: a reply still on a socket then costs a
/// read per window of records (256 segments, 512 owners), not one per
/// field.
const RECORD_WINDOW: usize = 4096;

/// Read the next `n` records of `unit` bytes (`unit` divides
/// [`RECORD_WINDOW`]), handing them to `f` a window at a time, in order.
/// Nothing is sized by `n`.
fn get_records(
    src: &mut impl ReplySource,
    n: usize,
    unit: usize,
    mut f: impl FnMut(&[u8]) -> H5Result<()>,
) -> H5Result<()> {
    let mut window = [0u8; RECORD_WINDOW];
    let mut left = n;
    while left > 0 {
        let k = left.min(RECORD_WINDOW / unit);
        src.read_exact(&mut window[..k * unit])?;
        f(&window[..k * unit])?;
        left -= k;
    }
    Ok(())
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte field"))
}

/// A decoded body header: `(generation, segments, blob length in bytes)`.
pub type DataReplyHeader = (u64, Vec<(u64, u64)>, usize);

/// [`BatchReplyReader::body`] on a bare cursor, into a fresh segment
/// list. The benchmark's reply-walk pass frames one body alone and reads
/// it through this signature.
pub fn get_data_reply_header(pr: &mut PayloadReader) -> H5Result<DataReplyHeader> {
    let mut segs = Vec::new();
    body_header(pr, &mut segs).map(|(gen, blob_len)| (gen, segs, blob_len))
}

/// Builder for multi-part reply frames: header fields accumulate in a
/// contiguous run, dataset bytes are *lent* as refcounted parts. Flattened,
/// the frame is the bytes written and lent, in order; walk it in place
/// with a [`PayloadReader`]. [`BatchReplyWriter`] is the data reply over
/// it.
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{PayloadReader, ReplyFrame};
/// let region = Bytes::from(vec![1u8, 2, 3, 4, 5]);
/// let mut f = ReplyFrame::new();
/// f.put_u64(7);
/// f.put_blob_len(3);
/// f.lend(region.slice(1..4)); // borrowed, not copied
/// let payload = f.finish();
/// assert_eq!(payload.parts()[1].as_ptr(), region[1..].as_ptr());
/// let mut pr = PayloadReader::new(payload);
/// assert_eq!((pr.get_u64().unwrap(), pr.get_u64().unwrap()), (7, 3));
/// let mut blob = [0u8; 3];
/// pr.copy_into(&mut blob).unwrap();
/// assert_eq!(blob, [2, 3, 4]);
/// ```
#[derive(Default)]
pub struct ReplyFrame {
    hdr: Writer,
    parts: Payload,
}

impl ReplyFrame {
    /// An empty frame.
    pub fn new() -> Self {
        ReplyFrame { hdr: Writer::new(), parts: Payload::new() }
    }

    /// Append a header field to the current contiguous run.
    pub fn put_u64(&mut self, v: u64) {
        if self.hdr.is_empty() {
            // A run after a lent part starts from an empty buffer: size
            // it for a typical entry header in one allocation.
            self.hdr.reserve(64);
        }
        self.hdr.put_u64(v);
    }

    /// Append a length-prefix for the blob that follows via [`lend`]
    /// calls (`lend` itself adds no framing).
    ///
    /// [`lend`]: ReplyFrame::lend
    pub fn put_blob_len(&mut self, len: u64) {
        self.put_u64(len);
    }

    /// Lend a borrowed slice into the frame: the pending header run is
    /// flushed as its own part and `b` joins the frame as the very same
    /// refcounted allocation — no byte of `b` is copied.
    pub fn lend(&mut self, b: Bytes) {
        self.flush_hdr();
        self.parts.push(b);
    }

    fn flush_hdr(&mut self) {
        if !self.hdr.is_empty() {
            self.parts.push(self.hdr.take());
        }
    }

    /// Finish the frame as a multi-part payload.
    pub fn finish(mut self) -> Payload {
        self.flush_hdr();
        self.parts
    }
}

/// Where a reply is read from, front to back: a reply held in memory
/// ([`PayloadReader`]) or one still arriving on a socket
/// ([`simmpi::FrameBody`], as a posted receive sees it). The consumer's
/// one parse-and-place of a data reply runs over either.
pub trait ReplySource {
    /// Bytes not read yet. For a reply still on a socket this is what its
    /// frame header declares, not what has arrived: nothing may be sized
    /// by it, or by a count checked against it.
    fn remaining(&self) -> usize;

    /// Copy the next `dst.len()` bytes into `dst`.
    fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()>;

    /// Pass over the next `n` bytes.
    fn skip(&mut self, n: usize) -> H5Result<()>;

    /// Write the next bytes into `ranges` of `dst`, each range in turn
    /// taking as many bytes as it is long. The caller has checked that
    /// every range lies inside `dst`.
    fn read_ranges(
        &mut self,
        dst: &mut [MaybeUninit<u8>],
        ranges: impl Iterator<Item = Range<usize>>,
    ) -> H5Result<()>;

    /// Read a little-endian `u64`.
    fn get_u64(&mut self) -> H5Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `u64` element count, checking that that many elements of
    /// at least `unit` bytes each fit in what is left — a corrupt count
    /// fails here rather than as a short read later.
    fn get_count(&mut self, unit: usize) -> H5Result<usize> {
        let n = self.get_u64()?;
        if (n as u128) * (unit as u128) > self.remaining() as u128 {
            return Err(H5Error::Format(format!(
                "declared count {n} exceeds frame ({} bytes left)",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

impl<S: ReplySource> ReplySource for &mut S {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()> {
        (**self).read_exact(dst)
    }

    fn skip(&mut self, n: usize) -> H5Result<()> {
        (**self).skip(n)
    }

    fn read_ranges(
        &mut self,
        dst: &mut [MaybeUninit<u8>],
        ranges: impl Iterator<Item = Range<usize>>,
    ) -> H5Result<()> {
        (**self).read_ranges(dst, ranges)
    }
}

impl ReplySource for PayloadReader {
    fn remaining(&self) -> usize {
        self.left
    }

    fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()> {
        self.copy_into(dst)
    }

    fn skip(&mut self, n: usize) -> H5Result<()> {
        PayloadReader::skip(self, n)
    }

    fn read_ranges(
        &mut self,
        dst: &mut [MaybeUninit<u8>],
        ranges: impl Iterator<Item = Range<usize>>,
    ) -> H5Result<()> {
        for r in ranges {
            let mut at = r.start;
            self.read_chunks(r.len(), |chunk| {
                dst[at..at + chunk.len()].write_copy_of_slice(chunk);
                at += chunk.len();
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// A reply still on the socket: what a posted receive reads. Running past
/// the frame, or the link failing mid-frame, is a truncated reply.
impl ReplySource for FrameBody<'_> {
    fn remaining(&self) -> usize {
        FrameBody::remaining(self)
    }

    fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()> {
        FrameBody::read_exact(self, dst).map_err(truncated)
    }

    fn skip(&mut self, n: usize) -> H5Result<()> {
        FrameBody::skip(self, n).map_err(truncated)
    }

    fn read_ranges(
        &mut self,
        dst: &mut [MaybeUninit<u8>],
        ranges: impl Iterator<Item = Range<usize>>,
    ) -> H5Result<()> {
        FrameBody::read_ranges(self, dst, ranges).map_err(truncated)
    }
}

fn truncated(e: std::io::Error) -> H5Error {
    H5Error::Format(format!("truncated reply: {e}"))
}

/// Decoding cursor over a multi-part reply [`Payload`], walking it *in
/// place*: scalar reads peek a few bytes across part boundaries, and
/// [`PayloadReader::copy_into`] scatters blob bytes straight into the
/// caller's buffer — the one copy of the zero-copy fetch path. The cursor
/// is a (part, offset) position and a count of the bytes left, so a field
/// costs the same however many parts the reply has.
pub struct PayloadReader {
    p: Payload,
    /// Index of the part the next byte is in.
    part: usize,
    /// Offset of the next byte within that part.
    off: usize,
    /// Bytes past the cursor.
    left: usize,
}

impl PayloadReader {
    /// Start reading `p` from its first byte.
    pub fn new(p: Payload) -> Self {
        let left = p.len();
        PayloadReader { p, part: 0, off: 0, left }
    }

    /// Read a little-endian `u64` off the front of the payload.
    pub fn get_u64(&mut self) -> H5Result<u64> {
        let mut b = [0u8; 8];
        self.copy_into(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Copy exactly `dst.len()` bytes off the front of the payload into
    /// `dst` and advance past them.
    pub fn copy_into(&mut self, dst: &mut [u8]) -> H5Result<()> {
        let mut filled = 0;
        self.read_chunks(dst.len(), |chunk| {
            dst[filled..filled + chunk.len()].copy_from_slice(chunk);
            filled += chunk.len();
            Ok(())
        })
    }

    /// Hand the next `n` bytes to `sink` in place — one call per part they
    /// span, nothing copied here — and advance past them.
    pub(crate) fn read_chunks(
        &mut self,
        n: usize,
        mut sink: impl FnMut(&[u8]) -> H5Result<()>,
    ) -> H5Result<()> {
        if n > self.left {
            let left = self.left;
            return Err(H5Error::Format(format!(
                "truncated reply payload: need {n} bytes, have {left}"
            )));
        }
        let mut want = n;
        while want > 0 {
            let part = &self.p.parts()[self.part];
            let take = (part.len() - self.off).min(want);
            sink(&part[self.off..self.off + take])?;
            self.step(take);
            want -= take;
        }
        Ok(())
    }

    /// Skip `n` bytes (no copy).
    pub fn skip(&mut self, n: usize) -> H5Result<()> {
        self.read_chunks(n, |_| Ok(()))
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Move the cursor `n` bytes on, within the current part (`n` never
    /// exceeds what is left of it), onto the next part at its end.
    fn step(&mut self, n: usize) {
        self.off += n;
        self.left -= n;
        if self.off == self.p.parts()[self.part].len() {
            self.part += 1;
            self.off = 0;
        }
    }
}

// ---------------------------------------------------------------------
// The off-wire delta-RLE codec
// ---------------------------------------------------------------------
//
// No frame carries what follows: every reply ships its body raw. These
// four names exist only for the four `lowfive.codec.*` rows of the
// benchmark's layer pass, which imports them; ROADMAP item 1(a) deletes
// them with those rows.

/// The prefix byte of a body that follows verbatim.
const CODEC_RAW: u8 = 0;
/// The prefix byte of a delta-RLE body: a wrapping byte delta at an
/// 8-byte element lag (see `DELTA_LAG`), then `[raw_len u64]` and
/// `(count, byte)` runs over the deltas. Smooth fields of `u64`/`f64`
/// elements turn into long zero runs.
pub const CODEC_DELTA_RLE: u8 = 2;
/// Every prefix [`dec_coded`] accepts, one bit per codec id.
pub const CAP_ALL: u64 = 1 << CODEC_RAW | 1 << CODEC_DELTA_RLE;

/// `body` behind a one-byte codec prefix: delta-RLE when `codec` is
/// [`CODEC_DELTA_RLE`] and that shrinks the body, raw otherwise. The raw
/// form keeps the body's parts untouched (the prefix is its own part).
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{dec_coded, encode_coded, CAP_ALL, CODEC_DELTA_RLE};
/// use simmpi::Payload;
/// let body = Payload::from(vec![7u8; 100]);
/// let coded = encode_coded(body, CODEC_DELTA_RLE).into_bytes();
/// assert!(coded.len() < 101, "100 repeated bytes must compress");
/// assert_eq!(&dec_coded(&coded, CAP_ALL).unwrap()[..], &[7u8; 100][..]);
/// ```
pub fn encode_coded(body: Payload, codec: u8) -> Payload {
    let compressed = if codec == CODEC_DELTA_RLE { delta_rle_encode(body.parts()) } else { None };
    match compressed {
        Some(out) => Payload::from(out),
        None => prefixed(&[CODEC_RAW], body),
    }
}

/// Strip the codec prefix off an [`encode_coded`] frame and expand the
/// body. A prefix outside `allowed` (one bit per codec id) is an error.
pub fn dec_coded(b: &Bytes, allowed: u64) -> H5Result<Bytes> {
    let Some(&codec) = b.first() else {
        return Err(H5Error::Format("empty coded frame".into()));
    };
    if !matches!(codec, CODEC_RAW | CODEC_DELTA_RLE) || allowed & (1u64 << codec) == 0 {
        return Err(H5Error::Format(format!("codec {codec} not accepted")));
    }
    match codec {
        CODEC_RAW => Ok(b.slice(1..)),
        _ => delta_rle_decode(&b[1..]),
    }
}

/// The delta transform's lag: each byte is differenced against the byte
/// one *element* back, not its immediate neighbor. Dataset bodies are
/// dominated by 8-byte (`u64`/`f64`) elements, and a smooth field then
/// deltas to long zero runs, which a lag-1 byte delta would destroy (the
/// element period re-introduces a nonzero delta every 8 bytes). The same
/// trick as PNG's `Sub` filter at bpp stride, or HDF5's shuffle+delta.
const DELTA_LAG: usize = 8;

/// Delta-RLE encode the concatenation of `parts`, prefix byte and
/// `raw_len` header included. Returns `None` unless the result is
/// strictly smaller than the raw alternative (`1 + raw_len` bytes).
fn delta_rle_encode(parts: &[Bytes]) -> Option<Vec<u8>> {
    let raw_len: usize = parts.iter().map(|p| p.len()).sum();
    let limit = raw_len + 1;
    let mut out = Vec::with_capacity(64.min(limit));
    out.push(CODEC_DELTA_RLE);
    out.extend_from_slice(&(raw_len as u64).to_le_bytes());
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    let mut run: Option<(u8, usize)> = None;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        let v = b.wrapping_sub(ring[pos]);
        ring[pos] = b;
        pos = (pos + 1) % DELTA_LAG;
        match &mut run {
            Some((val, count)) if *val == v && *count < 255 => *count += 1,
            _ => {
                if let Some((val, count)) = run.take() {
                    out.push(count as u8);
                    out.push(val);
                    // Incompressible input can only grow from here; bail
                    // before ballooning to 2x the raw body.
                    if out.len() + 2 >= limit {
                        return None;
                    }
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((val, count)) = run {
        out.push(count as u8);
        out.push(val);
    }
    (out.len() < limit).then_some(out)
}

/// Expand a delta-RLE body (prefix byte already shed). Every declared
/// quantity is checked against the bytes actually present before
/// allocating: the pair stream must be even, runs must be non-empty, and
/// the expansion must land on `raw_len` exactly.
fn delta_rle_decode(b: &[u8]) -> H5Result<Bytes> {
    let Some((hdr, pairs)) = b.split_first_chunk::<8>().filter(|(_, p)| p.len().is_multiple_of(2))
    else {
        return Err(H5Error::Format(format!("malformed rle frame: {} bytes", b.len())));
    };
    let raw_len = u64::from_le_bytes(*hdr);
    if raw_len as u128 > (pairs.len() as u128 / 2) * 255 {
        return Err(H5Error::Format(format!(
            "rle declared length {raw_len} exceeds {} run pairs",
            pairs.len() / 2
        )));
    }
    let mut out = Vec::with_capacity(raw_len as usize);
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    for pair in pairs.chunks_exact(2) {
        let (count, delta) = (pair[0], pair[1]);
        if count == 0 {
            return Err(H5Error::Format("zero-length rle run".into()));
        }
        if out.len() + count as usize > raw_len as usize {
            return Err(H5Error::Format(format!("rle runs overflow declared length {raw_len}")));
        }
        for _ in 0..count {
            let b = delta.wrapping_add(ring[pos]);
            ring[pos] = b;
            pos = (pos + 1) % DELTA_LAG;
            out.push(b);
        }
    }
    if out.len() as u64 != raw_len {
        return Err(H5Error::Format(format!(
            "rle expanded to {} bytes, declared {raw_len}",
            out.len()
        )));
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let sel = Selection::block(&[0, 4], &[8, 4]);
        for req in [
            Request::Metadata { file: "a.h5" },
            Request::DataBatch { file: "a.h5", entries: BatchEntries::Lent(&[("g", &sel)]) },
            Request::Done { file: "a.h5" },
            Request::Shutdown,
            Request::StepSub { series: "s" },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::EveryStep },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::LatestStep },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::SkipOk(9) },
            Request::StepAck { series: "s", cursor: 5 },
        ] {
            let frame = req.encode().finish();
            assert_eq!(Request::decode(req.method(), &frame).unwrap(), req);
        }
        // Retired and unknown ids, and a bad policy code, fail to decode.
        for method in [2, 3, 10, 0, 11, u32::MAX] {
            let e = Request::decode(method, b"").unwrap_err();
            assert!(matches!(&e, H5Error::Format(m) if m.contains("unknown RPC method")), "{e}");
        }
        let mut bad = Request::StepNext { series: "s", cursor: 0, policy: StepPolicy::EveryStep }
            .encode()
            .finish()
            .to_vec();
        let at = bad.len() - 9;
        bad[at] = 3;
        assert!(Request::decode(M_STEP_NEXT, &bad).is_err(), "policy code 3");
    }

    #[test]
    fn result_wrapper() {
        let ok = enc_result(Ok(Bytes::from_static(b"payload")));
        assert_eq!(&dec_result(&ok).unwrap()[..], b"payload");
        let err = enc_result(Err(H5Error::NotFound("x".into())));
        let e = dec_result(&err).unwrap_err();
        assert!(matches!(&e, H5Error::NotFound(n) if n == "x"), "kind survives: {e}");
        assert!(e.to_string().contains("object not found: x"));
        // The headroom forms are the same frames.
        let mut w = Writer::new();
        w.put_raw(b"payload");
        assert_eq!(result_frame(Ok(w)).finish(), ok);
        assert_eq!(OK_EMPTY, enc_result(Ok(Bytes::new())));
    }

    #[test]
    fn result_wrapper_preserves_peer_unavailable() {
        let err = enc_result(Err(H5Error::PeerUnavailable("producer rank 1 dead".into())));
        let e = dec_result(&err).unwrap_err();
        assert!(matches!(&e, H5Error::PeerUnavailable(m) if m.contains("rank 1")), "{e}");
        // A bad request's format error stays one.
        let err = enc_result(Err(H5Error::Format("bad".into())));
        let e = dec_result(&err).unwrap_err();
        assert!(matches!(&e, H5Error::Format(m) if m == "bad"), "{e}");
        // Generic kinds still collapse into Vol with the remote marker.
        let err = enc_result(Err(H5Error::Vol("boom".into())));
        let e = dec_result(&err).unwrap_err();
        assert!(matches!(&e, H5Error::Vol(m) if m.contains("remote error")), "{e}");
    }

    #[test]
    fn index_bundle_roundtrip() {
        let entries = [
            IndexEntry { file: "f.h5", dset: "g/grid", gen: 1, bbox: BBox::new(vec![0], vec![5]) },
            IndexEntry { file: "f.h5", dset: "g/p", gen: 2, bbox: BBox::new(vec![5], vec![9]) },
        ];
        let mut bundle = IndexBundle::default();
        for e in &entries {
            bundle.push(e.file, e.dset, e.gen, &e.bbox);
        }
        assert_eq!(IndexBundle::decode(&bundle.finish()).unwrap(), entries);
        assert!(IndexBundle::decode(&IndexBundle::default().finish()).unwrap().is_empty());
    }

    /// One batch-reply entry as the tests spell it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Entry {
        gen: u64,
        owners: Vec<usize>,
        segs: Vec<(u64, u64)>,
        blob: Vec<u8>,
    }

    fn entry(gen: u64, owners: &[usize], segs: &[(u64, u64)], blob: &[u8]) -> Entry {
        Entry { gen, owners: owners.to_vec(), segs: segs.to_vec(), blob: blob.to_vec() }
    }

    /// Each entry's blob as one contiguous part.
    fn write_batch(entries: &[Entry]) -> Payload {
        let mut w = BatchReplyWriter::new(entries.len());
        entries.iter().for_each(|e| w.owners(&e.owners));
        for e in entries {
            let blob = Some(Bytes::copy_from_slice(&e.blob)).filter(|b| !b.is_empty());
            w.body(e.gen, e.segs.iter().copied(), e.blob.len() as u64, blob);
        }
        w.finish()
    }

    fn read_batch(p: Payload, producers: usize) -> H5Result<Vec<Entry>> {
        let mut r = BatchReplyReader::new(p, producers)?;
        let mut out = Vec::new();
        for _ in 0..r.entries() {
            let mut e = entry(0, &[], &[], &[]);
            r.owners(|o| e.owners.push(o))?;
            out.push(e);
        }
        for e in &mut out {
            let (gen, blob_len) = r.body(&mut e.segs)?;
            e.gen = gen;
            e.blob = vec![0; blob_len];
            r.blob().copy_into(&mut e.blob)?;
        }
        r.finish()?;
        Ok(out)
    }

    fn read_flat(b: &[u8], producers: usize) -> H5Result<Vec<Entry>> {
        read_batch(Payload::from(Bytes::copy_from_slice(b)), producers)
    }

    #[test]
    fn reply_frame_flattens_to_contiguous_encoding() {
        // A two-entry batch whose first blob is lent as two slices of a
        // region flattens to exactly the frame with that blob contiguous.
        let region = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let mut blob = region.slice(0..4).to_vec();
        blob.extend_from_slice(&region.slice(16..20));
        let entries = [entry(7, &[1, 0], &[(0, 4), (8, 4)], &blob), entry(7, &[], &[], &[])];
        let contiguous = write_batch(&entries);

        let mut w = BatchReplyWriter::new(2);
        w.owners(&[1, 0]);
        w.owners(&[]);
        w.body(7, [(0, 4), (8, 4)].into_iter(), 8, [region.slice(0..4), region.slice(16..20)]);
        w.body(7, std::iter::empty(), 0, []);
        let lent = w.finish();
        assert!(lent.num_parts() > contiguous.num_parts(), "borrowed slices stay separate parts");
        assert_eq!(lent.to_bytes(), contiguous.to_bytes());
        assert_eq!(read_batch(lent, 2).unwrap(), entries);
    }

    #[test]
    fn payload_reader_walks_parts_in_place() {
        let region = Bytes::from(vec![10u8, 11, 12, 13, 14, 15]);
        let mut f = ReplyFrame::new();
        f.put_u64(3); // gen
        f.put_u64(1); // one seg
        f.put_u64(2); // off
        f.put_u64(4); // len
        f.put_blob_len(4);
        f.lend(region.slice(1..5));
        let mut pr = PayloadReader::new(f.finish());
        let (gen, segs, blob_len) = get_data_reply_header(&mut pr).unwrap();
        assert_eq!(gen, 3);
        assert_eq!(segs, vec![(2, 4)]);
        assert_eq!(blob_len, 4);
        let mut dst = [0u8; 4];
        pr.copy_into(&mut dst).unwrap();
        assert_eq!(dst, [11, 12, 13, 14]);
        assert_eq!(pr.remaining(), 0);
        assert!(pr.get_u64().is_err(), "reading past the end must fail cleanly");
    }

    /// A reply cut into 200 parts — cuts inside header fields, owner
    /// lists, segment tables and blobs — reads exactly as the contiguous
    /// frame it flattens to, and a truncated one still fails cleanly.
    #[test]
    fn payload_reader_reads_a_finely_split_reply_identically() {
        let entries: Vec<Entry> = (0..12u64)
            .map(|i| Entry {
                gen: 40 + i,
                owners: (0..(i % 3) as usize).collect(),
                segs: (0..i % 4).map(|k| (k * 7, k + 1)).collect(),
                blob: (0..(i % 4) * (i % 4 + 1) / 2 * 8).map(|b| b as u8).collect(),
            })
            .collect();
        let flat = write_batch(&entries).to_bytes();
        let mut cuts: Vec<usize> = (1..200).map(|k| k * 7919 % flat.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut parts = Vec::new();
        let mut at = 0;
        for &c in cuts.iter().chain([&flat.len()]) {
            parts.push(flat.slice(at..c));
            at = c;
        }
        let split = Payload::from_parts(parts);
        assert!(split.num_parts() > 150, "{} parts", split.num_parts());
        assert_eq!(read_batch(split.clone(), 3).unwrap(), entries);
        let mut short = PayloadReader::new(split);
        short.skip(flat.len() - 3).unwrap();
        assert!(short.get_u64().is_err(), "a field past the end is a clean error");
        assert!(short.skip(4).is_err());
        short.skip(3).unwrap();
        assert_eq!(short.remaining(), 0);
    }

    #[test]
    fn payload_reader_rejects_corrupt_counts() {
        // Absurd segment count.
        let mut f = ReplyFrame::new();
        f.put_u64(0); // gen
        f.put_u64(u64::MAX / 16); // segs
        let mut pr = PayloadReader::new(f.finish());
        assert!(get_data_reply_header(&mut pr).is_err());

        // Blob length pointing past the end of the frame.
        let mut f = ReplyFrame::new();
        f.put_u64(0); // gen
        f.put_u64(0); // segs
        f.put_blob_len(9);
        f.lend(Bytes::from_static(&[1])); // only one byte present
        let mut pr = PayloadReader::new(f.finish());
        assert!(get_data_reply_header(&mut pr).is_err());
    }

    #[test]
    fn result_payload_wrapper() {
        // Ok: the body's parts survive the wrapper untouched.
        let region = Bytes::from(vec![5u8, 6, 7, 8]);
        let mut body = Payload::new();
        body.push(region.slice(0..2));
        body.push(region.slice(2..4));
        let framed = enc_result_payload(Ok(body));
        assert_eq!(framed.num_parts(), 3);
        let back = dec_result_payload(framed.clone()).unwrap();
        assert_eq!(back.num_parts(), 2);
        assert_eq!(back.parts()[0].as_ptr(), region.as_ptr(), "part is borrowed, not copied");
        // Flattened, it matches the contiguous wrapper.
        assert_eq!(&framed.to_bytes()[..], &enc_result(Ok(Bytes::from_static(&[5, 6, 7, 8])))[..]);

        // Err: kinds survive the payload path too.
        let err = enc_result_payload(Err(H5Error::PeerUnavailable("rank 2 dead".into())));
        let e = dec_result_payload(err).unwrap_err();
        assert!(matches!(&e, H5Error::PeerUnavailable(m) if m.contains("rank 2")), "{e}");

        // Empty frame.
        assert!(dec_result_payload(Payload::new()).is_err());
    }

    #[test]
    fn data_req_batch_roundtrip() {
        let entries = vec![
            ("g/grid".to_string(), Selection::block(&[0, 4], &[8, 4])),
            ("g/particles".to_string(), Selection::all()),
            ("g/grid".to_string(), Selection::points(2, &[&[1, 1], &[2, 3]])),
        ];
        let frame = enc_data_req_batch("s.h5", &entries);
        let (file, back) = dec_data_req_batch(&frame).unwrap();
        assert_eq!(file, "s.h5");
        let owned: Vec<_> = back.into_iter().map(|(d, sel)| (d.to_string(), sel)).collect();
        assert_eq!(owned, entries);

        let empty = enc_data_req_batch("empty.h5", &[]);
        let (file, back) = dec_data_req_batch(&empty).unwrap();
        assert_eq!(file, "empty.h5");
        assert!(back.is_empty());
    }

    #[test]
    fn data_reply_batch_roundtrip() {
        let entries = [
            entry(5, &[0, 2], &[(0, 3), (10, 2)], &[1, 2, 3, 4, 5]),
            entry(5, &[], &[], &[]),
            entry(6, &[1], &[(7, 1)], &[9]),
        ];
        assert_eq!(read_batch(write_batch(&entries), 3).unwrap(), entries);
        assert!(read_batch(write_batch(&[]), 3).unwrap().is_empty());
    }

    #[test]
    fn malformed_batch_frames_are_rejected() {
        // Truncated mid-entry: a valid two-entry request cut short.
        let entries =
            vec![("a".to_string(), Selection::all()), ("b".to_string(), Selection::all())];
        let good = enc_data_req_batch("f", &entries);
        for cut in 1..good.len() {
            assert!(dec_data_req_batch(&good[..cut]).is_err(), "cut at {cut} must fail");
        }

        // Absurd declared entry count must be rejected before allocating.
        let mut w = Writer::new();
        w.put_str("f");
        w.put_u64(u64::MAX / 2);
        let huge = w.finish();
        let e = dec_data_req_batch(&huge).unwrap_err();
        assert!(matches!(e, H5Error::Format(_)), "{e}");

        // Same for the reply's outer count and an inner segment count.
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 16);
        let e = read_flat(&w.finish(), 1).unwrap_err();
        assert!(matches!(e, H5Error::Format(_)), "{e}");

        let mut w = Writer::new();
        w.put_u64(1); // one entry...
        w.put_u64(0); // ...no owners...
        w.put_u64(0); // ...at generation 0...
        w.put_u64(u64::MAX / 16); // ...claiming absurdly many segments
        let e = read_flat(&w.finish(), 1).unwrap_err();
        assert!(matches!(e, H5Error::Format(_)), "{e}");

        // Truncated reply blob: entry declares 4 payload bytes, frame has 1.
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u64(0); // no owners
        w.put_u64(0); // gen
        w.put_u64(1);
        w.put_u64(0);
        w.put_u64(4); // seg (off=0, len=4)
        w.put_u64(4); // blob length prefix
        w.put_raw(&[0xAB]); // but only one byte present
        assert!(read_flat(&w.finish(), 1).is_err());
    }

    #[test]
    fn decoders_reject_trailing_garbage() {
        let ack = Request::StepAck { series: "s", cursor: 3 };
        let mut padded = ack.encode().finish().to_vec();
        padded.push(0xFF);
        let e = Request::decode(ack.method(), &padded).unwrap_err();
        assert!(matches!(&e, H5Error::Format(m) if m.contains("trailing")), "{e}");

        let mut padded = StepNextReply::Pending.encode().finish().to_vec();
        padded.extend_from_slice(&[1, 2, 3]);
        assert!(StepNextReply::decode(&padded).is_err());

        let mut padded = write_batch(&[entry(1, &[0], &[(0, 1)], &[9])]).to_bytes().to_vec();
        padded.push(0);
        assert!(read_flat(&padded, 1).is_err());

        let mut padded = enc_result(Err(H5Error::NotFound("x".into()))).to_vec();
        padded.push(0);
        let e = dec_result(&Bytes::from(padded)).unwrap_err();
        assert!(matches!(&e, H5Error::Format(m) if m.contains("trailing")), "{e}");
    }

    #[test]
    fn codec_roundtrips_preserve_bytes() {
        // Delta-RLE earns its keep on *smooth* fields — consecutive
        // elements near-equal, so the delta stream is almost all zeros.
        let smooth: Vec<u8> = (0u64..512).flat_map(|v| (1000 + v / 16).to_le_bytes()).collect();
        for codec in [CODEC_RAW, CODEC_DELTA_RLE] {
            let coded = encode_coded(Payload::from(smooth.clone()), codec).into_bytes();
            assert_eq!(&dec_coded(&coded, CAP_ALL).unwrap()[..], &smooth[..], "codec {codec}");
        }
        let delta = encode_coded(Payload::from(smooth.clone()), CODEC_DELTA_RLE);
        assert!(delta.len() < smooth.len() / 4, "delta {} of {}", delta.len(), smooth.len());
    }

    #[test]
    fn incompressible_bodies_keep_their_lent_parts() {
        // A pseudo-random body cannot shrink: the encoder falls back to
        // raw and ships the original borrowed parts.
        let mut v = Vec::with_capacity(1024);
        let mut x = 0x9E3779B9u32;
        for _ in 0..1024 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            v.push((x >> 24) as u8);
        }
        let region = Bytes::from(v);
        let mut body = Payload::new();
        body.push(region.slice(0..512));
        body.push(region.slice(512..1024));
        let coded = encode_coded(body, CODEC_DELTA_RLE);
        assert_eq!(coded.num_parts(), 3, "prefix + the two original parts");
        assert_eq!(coded.parts()[1].as_ptr(), region.as_ptr(), "part still borrowed");
        assert_eq!(dec_coded(&coded.into_bytes(), CAP_ALL).unwrap(), region);
    }

    #[test]
    fn codec_decoders_reject_malformed_frames() {
        // A codec outside the accepted set, an unknown one, an empty
        // frame.
        let coded = encode_coded(Payload::from(vec![7u8; 100]), CODEC_DELTA_RLE).into_bytes();
        assert!(coded.len() < 100, "compresses");
        assert!(dec_coded(&coded, 1 << CODEC_RAW).is_err(), "codec not accepted");
        assert!(dec_coded(&Bytes::from_static(&[1, 0, 0]), u64::MAX).is_err());
        assert!(dec_coded(&Bytes::from_static(&[64]), u64::MAX).is_err());
        assert!(dec_coded(&Bytes::new(), CAP_ALL).is_err());
        // An odd pair stream, a declared length no run set can reach
        // (the balloon guard), a zero-length run, and runs that do not
        // land exactly on the declared length.
        let cases: [(u64, &[u8]); 4] =
            [(5, &[5, 1, 7]), (u64::MAX, &[255, 1]), (1, &[0, 1, 1, 2]), (3, &[2, 1])];
        for (raw_len, runs) in cases {
            let mut bad = vec![CODEC_DELTA_RLE];
            bad.extend_from_slice(&raw_len.to_le_bytes());
            bad.extend_from_slice(runs);
            assert!(dec_coded(&Bytes::from(bad), CAP_ALL).is_err(), "{raw_len} {runs:?}");
        }
    }
}
