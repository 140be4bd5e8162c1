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
//! and an empty ack), and `CodecOffer` (codec negotiation, below). The
//! index exchange among producers (Algorithm 1) is a plain tagged message
//! (`TAG_INDEX`) on the producer task's local communicator, one
//! [`IndexBundle`] per peer.
//!
//! Each data entry is answered with its *redirect* (the owner ranks) and
//! the segments of the producer's regions it selects, addressed in the
//! consumer's packed buffer. Dataset bytes are *lent* into a
//! [`ReplyFrame`] and walked in place with a [`PayloadReader`]: the only
//! copy on the path is the final placement.
//!
//! The ok body of every data-bearing reply (`M_DATA_BATCH`,
//! `M_STEP_NEXT`) leads with a one-byte codec prefix: the body follows
//! verbatim for [`CODEC_RAW`], compressed for [`CODEC_RLE`] /
//! [`CODEC_DELTA_RLE`], as negotiated per (file, consumer) from
//! capability bitmasks (`CAP_*`); an unnegotiated pair ships raw. Every
//! reply a producer serves carries the file's *generation*, which
//! consumers key their caches on.
//!
//! ## One layout per frame
//!
//! Each frame's byte layout is written once in this module: a request's
//! in [`Request::encode`] and [`Request::decode`], a reply's in its
//! type's encoder and decoder. The serve loop matches [`Request`]
//! exhaustively, and a retired or unknown method id is one decode error.
//! The repository's `docs/PROTOCOL.md` maps the layouts; the golden-bytes
//! test in `tests/proptest_protocol.rs` pins them.

use bytes::Bytes;
use minih5::codec::{Reader, Writer};
use minih5::format::FileMeta;
use minih5::{BBox, H5Error, H5Result, Selection};
use simmpi::Payload;

/// Fetch the serialized [`FileMeta`] tree of a file.
pub const M_METADATA: u32 = 1;
// Method id 2 was the separate redirect query (its answer now rides on
// every `M_DATA_BATCH` reply) and id 3 the single-entry data query. Both
// are retired, not renumbered, and fail to decode like an unknown id.
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
/// Consumer → producer codec-capability advertisement (no reply).
pub const M_CODEC_OFFER: u32 = 10;

/// Tag for the producer-local index exchange (Algorithm 1).
pub const TAG_INDEX: u32 = 0x7F10_0001;

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

/// Codec id: body ships verbatim after the prefix byte.
pub const CODEC_RAW: u8 = 0;
/// Codec id: byte run-length encoding (`[raw_len u64][(count, byte)*]`).
pub const CODEC_RLE: u8 = 1;
/// Codec id: wrapping byte-delta transform at an 8-byte element lag
/// (see `DELTA_LAG`), then RLE over the deltas — smooth grid fields of
/// `u64`/`f64` elements turn into long zero runs.
pub const CODEC_DELTA_RLE: u8 = 2;

/// Capability bit: can receive [`CODEC_RAW`] (always set in practice).
pub const CAP_RAW: u64 = 1 << CODEC_RAW;
/// Capability bit: can receive [`CODEC_RLE`].
pub const CAP_RLE: u64 = 1 << CODEC_RLE;
/// Capability bit: can receive [`CODEC_DELTA_RLE`].
pub const CAP_DELTA_RLE: u64 = 1 << CODEC_DELTA_RLE;
/// Every capability this build understands.
pub const CAP_ALL: u64 = CAP_RAW | CAP_RLE | CAP_DELTA_RLE;

/// Sender-side wire-codec policy for data-bearing reply bodies, set per
/// file pattern via `LowFiveProps::set_wire_codec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Let the sender's cost model decide per frame: compress only when
    /// the modeled link cost of the saved bytes exceeds the modeled
    /// codec cost (in-proc transport therefore always ships raw).
    #[default]
    Auto,
    /// Never compress; bodies ship through the zero-copy lend path.
    Raw,
    /// Prefer byte run-length encoding when it shrinks the body.
    Rle,
    /// Prefer delta-then-RLE when it shrinks the body.
    DeltaRle,
}

impl WireCodec {
    /// The capability bitmask this policy advertises in the metadata /
    /// step-subscribe handshake (raw is always acceptable).
    pub fn caps(self) -> u64 {
        match self {
            WireCodec::Auto => CAP_ALL,
            WireCodec::Raw => CAP_RAW,
            WireCodec::Rle => CAP_RAW | CAP_RLE,
            WireCodec::DeltaRle => CAP_RAW | CAP_DELTA_RLE,
        }
    }
}

/// The compressing codec a sender should try under a negotiated `mask`
/// ([`CODEC_RAW`] when the mask permits nothing better).
pub fn preferred_codec(mask: u64) -> u8 {
    if mask & CAP_DELTA_RLE != 0 {
        CODEC_DELTA_RLE
    } else if mask & CAP_RLE != 0 {
        CODEC_RLE
    } else {
        CODEC_RAW
    }
}

/// `body` behind a one-byte part holding `tag`, its parts untouched. The
/// tag part is a static slice in front of the body's own part list, so
/// framing a reply allocates nothing.
fn prefixed(tag: &'static [u8; 1], mut body: Payload) -> Payload {
    body.prepend(Bytes::from_static(tag));
    body
}

/// Wrap a reply body in the one-byte codec prefix, compressing with
/// `codec` when that actually shrinks the frame. The raw fallback keeps
/// the body's borrowed parts untouched (the prefix is its own tiny
/// part), so lent slices stay zero-copy end to end.
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{decode_coded_payload, encode_coded, CAP_ALL, CODEC_RLE};
/// use simmpi::Payload;
/// let body = Payload::from(vec![7u8; 100]);
/// let coded = encode_coded(body, CODEC_RLE);
/// assert!(coded.len() < 101, "100 repeated bytes must compress");
/// let back = decode_coded_payload(coded, CAP_ALL).unwrap();
/// assert_eq!(&back.to_bytes()[..], &[7u8; 100][..]);
/// ```
pub fn encode_coded(body: Payload, codec: u8) -> Payload {
    let compressed = match codec {
        CODEC_RLE => rle_encode(body.parts(), false, CODEC_RLE),
        CODEC_DELTA_RLE => rle_encode(body.parts(), true, CODEC_DELTA_RLE),
        _ => None,
    };
    match compressed {
        Some(out) => Payload::from(out),
        None => prefixed(&[CODEC_RAW], body),
    }
}

/// [`decode_coded_payload`] of a contiguous frame. The benchmark's codec
/// layer pass times this signature.
pub fn dec_coded(b: &Bytes, allowed: u64) -> H5Result<Bytes> {
    decode_coded_payload(Payload::from(b.clone()), allowed).map(Payload::into_bytes)
}

/// Strip the codec prefix off a coded body, parts preserved: a raw body
/// sheds its prefix byte in place (borrowed parts intact), a compressed
/// body is expanded into a single fresh part. `allowed` is the
/// receiver's own advertised capability mask — a codec outside it is a
/// framing error, since the sender may only use what this receiver
/// offered.
pub fn decode_coded_payload(mut p: Payload, allowed: u64) -> H5Result<Payload> {
    let mut d = [0u8; 1];
    if !p.copy_prefix(&mut d) {
        return Err(H5Error::Format("empty coded frame".into()));
    }
    let codec = d[0];
    if codec > CODEC_DELTA_RLE {
        return Err(H5Error::Format(format!("unknown wire codec {codec}")));
    }
    if allowed & (1u64 << codec) == 0 {
        return Err(H5Error::Format(format!("codec {codec} was not negotiated")));
    }
    p.advance(1);
    match codec {
        CODEC_RAW => Ok(p),
        codec => Ok(Payload::from(rle_decode(p.parts(), codec == CODEC_DELTA_RLE)?)),
    }
}

/// The delta transform's lag: each byte is differenced against the byte
/// one *element* back, not its immediate neighbor. The transport's
/// dataset bodies are dominated by 8-byte (`u64`/`f64`) elements, and a
/// smooth field — consecutive elements near-equal — then deltas to long
/// zero runs, which a lag-1 byte delta would destroy (the element
/// period re-introduces a nonzero delta every 8 bytes). The same trick
/// as PNG's `Sub` filter at bpp stride, or HDF5's shuffle+delta.
const DELTA_LAG: usize = 8;

/// Run-length encode the concatenation of `parts` (after a wrapping
/// lag-[`DELTA_LAG`] delta transform when `delta`), prefix byte and
/// `raw_len` header included. Returns `None` unless the result is
/// strictly smaller than the raw alternative (`1 + raw_len` bytes) — the
/// caller then ships the original parts untouched.
fn rle_encode(parts: &[Bytes], delta: bool, codec: u8) -> Option<Vec<u8>> {
    let raw_len: usize = parts.iter().map(|p| p.len()).sum();
    let limit = raw_len + 1;
    let mut out = Vec::with_capacity(64.min(limit));
    out.push(codec);
    out.extend_from_slice(&(raw_len as u64).to_le_bytes());
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    let mut run: Option<(u8, usize)> = None;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        let v = if delta {
            let d = b.wrapping_sub(ring[pos]);
            ring[pos] = b;
            pos = (pos + 1) % DELTA_LAG;
            d
        } else {
            b
        };
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

/// Expand an RLE (or delta-RLE) body. Every declared quantity is checked
/// against the bytes actually present before allocating: the pair stream
/// must be even, runs must be non-empty, and the expansion must land on
/// `raw_len` exactly.
fn rle_decode(parts: &[Bytes], delta: bool) -> H5Result<Bytes> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if total < 8 || !(total - 8).is_multiple_of(2) {
        return Err(H5Error::Format(format!("malformed rle frame: {total} bytes")));
    }
    let mut it = parts.iter().flat_map(|p| p.iter().copied());
    let mut hdr = [0u8; 8];
    for b in hdr.iter_mut() {
        *b = it.next().expect("length checked above");
    }
    let raw_len = u64::from_le_bytes(hdr);
    let pairs = (total - 8) / 2;
    if raw_len as u128 > (pairs as u128) * 255 {
        return Err(H5Error::Format(format!(
            "rle declared length {raw_len} exceeds {pairs} run pairs"
        )));
    }
    let mut out = Vec::with_capacity(raw_len as usize);
    let mut ring = [0u8; DELTA_LAG];
    let mut pos = 0usize;
    for _ in 0..pairs {
        let count = it.next().expect("length checked above");
        let byte = it.next().expect("length checked above");
        if count == 0 {
            return Err(H5Error::Format("zero-length rle run".into()));
        }
        if out.len() + count as usize > raw_len as usize {
            return Err(H5Error::Format(format!("rle runs overflow declared length {raw_len}")));
        }
        if delta {
            for _ in 0..count {
                let b = byte.wrapping_add(ring[pos]);
                ring[pos] = b;
                pos = (pos + 1) % DELTA_LAG;
                out.push(b);
            }
        } else {
            out.extend(std::iter::repeat_n(byte, count as usize));
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
/// use lowfive::protocol::{Request, StepPolicy, CAP_ALL, CAP_RAW};
/// for req in [
///     Request::Metadata { file: "a.h5", caps: CAP_ALL },
///     Request::CodecOffer { file: "a.h5", caps: CAP_RAW },
///     Request::Done { file: "a.h5" },
///     Request::StepSub { series: "sim.h5", caps: CAP_ALL },
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
        /// The consumer's codec capability bits (`CAP_*`).
        caps: u64,
    },
    /// `M_CODEC_OFFER` (notification): a consumer's caps for a file, sent
    /// to the producers it did not handshake with.
    CodecOffer {
        /// The file.
        file: &'a str,
        /// The consumer's codec capability bits.
        caps: u64,
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
        /// The subscriber's codec capability bits.
        caps: u64,
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
            Request::CodecOffer { .. } => M_CODEC_OFFER,
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
            // Four methods share the `[name str][u64]` layout.
            Request::Metadata { file: name, caps: v }
            | Request::CodecOffer { file: name, caps: v }
            | Request::StepSub { series: name, caps: v }
            | Request::StepAck { series: name, cursor: v } => {
                w.put_str(name);
                w.put_u64(*v);
            }
            Request::DataBatch { file, entries } => {
                w.put_str(file);
                w.put_u64(entries.len() as u64);
                for (dset, sel) in entries.iter() {
                    w.put_str(dset);
                    w.put(sel);
                }
            }
            Request::Done { file } => w.put_str(file),
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
            M_METADATA => Request::Metadata { file: r.get_str_ref()?, caps: r.get_u64()? },
            M_CODEC_OFFER => Request::CodecOffer { file: r.get_str_ref()?, caps: r.get_u64()? },
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
            M_STEP_SUB => Request::StepSub { series: r.get_str_ref()?, caps: r.get_u64()? },
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

/// The contiguous frame of a [`Request::Metadata`]: the file name plus
/// the consumer's codec-capability bitmask (`CAP_*` bits). A delegate to
/// [`Request::encode`] for callers that want one `Bytes`.
///
/// ```
/// use lowfive::protocol::{enc_metadata_req, Request, CAP_ALL, M_METADATA};
/// let frame = enc_metadata_req("a.h5", CAP_ALL);
/// assert_eq!(Request::decode(M_METADATA, &frame).unwrap(), Request::Metadata { file: "a.h5", caps: CAP_ALL });
/// ```
pub fn enc_metadata_req(file: &str, caps: u64) -> Bytes {
    Request::Metadata { file, caps }.encode().finish()
}

/// The contiguous frame of a [`Request::StepSub`]: the series name plus
/// the subscriber's codec-capability bitmask. A delegate to
/// [`Request::encode`].
///
/// ```
/// use lowfive::protocol::{enc_step_sub_req, Request, CAP_RAW, M_STEP_SUB};
/// let frame = enc_step_sub_req("sim.h5", CAP_RAW);
/// assert_eq!(Request::decode(M_STEP_SUB, &frame).unwrap(), Request::StepSub { series: "sim.h5", caps: CAP_RAW });
/// ```
pub fn enc_step_sub_req(series: &str, caps: u64) -> Bytes {
    Request::StepSub { series, caps }.encode().finish()
}

/// The contiguous frame of a [`Request::StepNext`]: the series, the
/// caller's cumulative cursor and the policy (its wire code and skip
/// bound). A delegate to [`Request::encode`].
///
/// ```
/// use lowfive::protocol::{enc_step_next_req, Request, StepPolicy, M_STEP_NEXT};
/// let frame = enc_step_next_req("sim.h5", 4, StepPolicy::SkipOk(2));
/// let req = Request::StepNext { series: "sim.h5", cursor: 4, policy: StepPolicy::SkipOk(2) };
/// assert_eq!(Request::decode(M_STEP_NEXT, &frame).unwrap(), req);
/// ```
pub fn enc_step_next_req(series: &str, cursor: u64, policy: StepPolicy) -> Bytes {
    Request::StepNext { series, cursor, policy }.encode().finish()
}

/// The contiguous frame of a [`Request::StepAck`]: the series and the
/// caller's cumulative cursor. A delegate to [`Request::encode`].
///
/// ```
/// use lowfive::protocol::{enc_step_ack_req, Request, M_STEP_ACK};
/// let frame = enc_step_ack_req("sim.h5", 12);
/// assert_eq!(Request::decode(M_STEP_ACK, &frame).unwrap(), Request::StepAck { series: "sim.h5", cursor: 12 });
/// ```
pub fn enc_step_ack_req(series: &str, cursor: u64) -> Bytes {
    Request::StepAck { series, cursor }.encode().finish()
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
                _ => H5Error::Vol(format!("remote error: {msg}")),
            })
        }
        t => Err(H5Error::Format(format!("bad reply discriminant {t}"))),
    }
}

/// [`result_frame`]'s ok form of a coded body shipped raw: the ok byte
/// and the [`CODEC_RAW`] prefix both go into the headroom, so a small
/// control reply (a step announce) is one buffer from encoder to wire.
pub fn ok_raw_coded(mut body: Writer) -> Writer {
    body.prepend(&[RESULT_OK, CODEC_RAW]);
    body
}

/// The ok reply with an empty body (an ack): one static byte.
pub const OK_EMPTY: Bytes = Bytes::from_static(&[RESULT_OK]);

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

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// The reply to [`Request::Metadata`]: the file's generation, the
/// negotiated codec mask (consumer caps ∩ producer caps), then the
/// serialized [`FileMeta`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataReply {
    /// Generation of the file at reply time.
    pub gen: u64,
    /// The negotiated codec mask for this (file, consumer rank) pair.
    pub codec_mask: u64,
    /// The file's metadata tree.
    pub meta: FileMeta,
}

impl MetadataReply {
    /// Encode, with headroom for the result discriminant ([`result_frame`]).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.put_u64(self.gen);
        w.put_u64(self.codec_mask);
        w.put(&self.meta);
        w
    }

    /// Decode a whole metadata reply body.
    pub fn decode(b: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let reply = MetadataReply { gen: r.get_u64()?, codec_mask: r.get_u64()?, meta: r.get()? };
        expect_eof(&r)?;
        Ok(reply)
    }
}

/// The reply to [`Request::StepSub`]: the retained window start (the
/// oldest step a late joiner can still catch up from), the next sequence
/// number the producer will publish, whether the series has ended, and
/// the negotiated codec mask (subscriber caps ∩ producer caps) governing
/// this pair's step-next reply bodies.
///
/// ```
/// use lowfive::protocol::{StepSubReply, CAP_RAW};
/// let reply = StepSubReply { window_start: 3, next_seq: 7, ended: false, codec_mask: CAP_RAW };
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
    /// The negotiated codec mask for this (series, subscriber) pair.
    pub codec_mask: u64,
}

impl StepSubReply {
    /// Encode, with headroom for the result discriminant ([`result_frame`]).
    pub fn encode(&self) -> Writer {
        let mut w = Writer::new();
        w.put_u64(self.window_start);
        w.put_u64(self.next_seq);
        w.put_u8(self.ended as u8);
        w.put_u64(self.codec_mask);
        w
    }

    /// Decode a whole step-subscribe reply body.
    pub fn decode(b: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(b);
        let reply = StepSubReply {
            window_start: r.get_u64()?,
            next_seq: r.get_u64()?,
            ended: r.get_u8()? != 0,
            codec_mask: r.get_u64()?,
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
    /// Encode, with headroom for the result discriminant and the codec
    /// prefix ([`ok_raw_coded`]).
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

    /// Decode a whole step-next reply body (codec prefix already shed).
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

/// Reads a [`BatchReplyWriter`] reply in place, as the consumer's
/// scatter does: the owner lists entry by entry, then each body's
/// header, its blob left at [`BatchReplyReader::blob`] for the caller
/// to copy or skip. Every count is checked against the bytes present and
/// every owner against the producer task.
pub struct BatchReplyReader {
    pr: PayloadReader,
    producers: usize,
    entries: usize,
}

impl BatchReplyReader {
    /// Start reading `reply`, answered by a task of `producers` ranks.
    pub fn new(reply: Payload, producers: usize) -> H5Result<Self> {
        let mut pr = PayloadReader::new(reply);
        let entries = pr.get_count(8)?;
        Ok(BatchReplyReader { pr, producers, entries })
    }

    /// The number of entries the reply declares.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Read the next entry's owner list, handing each owner to `f` in
    /// wire order. An owner outside `0..producers` is an
    /// [`H5Error::Format`] here rather than an out-of-bounds index later.
    pub fn owners(&mut self, mut f: impl FnMut(usize)) -> H5Result<()> {
        let k = self.pr.get_count(8)?;
        for _ in 0..k {
            let o = self.pr.get_u64()?;
            f(usize::try_from(o).ok().filter(|&o| o < self.producers).ok_or_else(|| {
                H5Error::Format(format!("owner rank {o} outside a task of {}", self.producers))
            })?);
        }
        Ok(())
    }

    /// Read the next body's header: its segments into `segs` (cleared
    /// first, so one list serves every entry), then `(generation, blob
    /// length in bytes)`. The blob follows at [`Self::blob`] and must be
    /// read or skipped before the next body.
    pub fn body(&mut self, segs: &mut Vec<(u64, u64)>) -> H5Result<(u64, usize)> {
        body_header(&mut self.pr, segs)
    }

    /// The cursor, at the blob of the body just read.
    pub fn blob(&mut self) -> &mut PayloadReader {
        &mut self.pr
    }

    /// Fail unless the whole reply has been read.
    pub fn finish(&self) -> H5Result<()> {
        match self.pr.remaining() {
            0 => Ok(()),
            n => Err(H5Error::Format(format!("{n} trailing bytes after reply"))),
        }
    }
}

/// The one reader of a body header (see [`BatchReplyReader::body`]).
fn body_header(pr: &mut PayloadReader, segs: &mut Vec<(u64, u64)>) -> H5Result<(u64, usize)> {
    let gen = pr.get_u64()?;
    let n = pr.get_count(16)?;
    segs.clear();
    segs.reserve(n);
    for _ in 0..n {
        segs.push((pr.get_u64()?, pr.get_u64()?));
    }
    let blob_len = pr.get_u64()? as usize;
    if blob_len > pr.remaining() {
        return Err(H5Error::Format(format!(
            "declared blob length {blob_len} exceeds frame ({} bytes left)",
            pr.remaining()
        )));
    }
    Ok((gen, blob_len))
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

    /// Read a `u64` element count, checking that that many elements of
    /// at least `unit` bytes each fit in what is left — a corrupt count
    /// fails here instead of sizing an allocation.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let sel = Selection::block(&[0, 4], &[8, 4]);
        for req in [
            Request::Metadata { file: "a.h5", caps: CAP_ALL },
            Request::CodecOffer { file: "a.h5", caps: CAP_RAW },
            Request::DataBatch { file: "a.h5", entries: BatchEntries::Lent(&[("g", &sel)]) },
            Request::Done { file: "a.h5" },
            Request::Shutdown,
            Request::StepSub { series: "s", caps: CAP_RAW | CAP_RLE },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::EveryStep },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::LatestStep },
            Request::StepNext { series: "s", cursor: 3, policy: StepPolicy::SkipOk(9) },
            Request::StepAck { series: "s", cursor: 5 },
        ] {
            let frame = req.encode().finish();
            assert_eq!(Request::decode(req.method(), &frame).unwrap(), req);
        }
        // Retired and unknown ids, and a bad policy code, fail to decode.
        for method in [2, 3, 0, 11, u32::MAX] {
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
        // Generic kinds still collapse into Vol with the remote marker.
        let err = enc_result(Err(H5Error::Format("bad".into())));
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
        // Grid-like data: monotone u64 little-endian values — long zero
        // runs in the delta stream.
        let grid: Vec<u8> = (0u64..512).flat_map(|v| v.to_le_bytes()).collect();
        for codec in [CODEC_RAW, CODEC_RLE, CODEC_DELTA_RLE] {
            let coded = encode_coded(Payload::from(grid.clone()), codec);
            let back = decode_coded_payload(coded.clone(), CAP_ALL).unwrap();
            assert_eq!(&back.to_bytes()[..], &grid[..], "codec {codec}");
            let back = dec_coded(&coded.to_bytes(), CAP_ALL).unwrap();
            assert_eq!(&back[..], &grid[..], "codec {codec} contiguous");
        }
        // Little-endian position encoding leaves 6-7 high zero bytes per
        // element, which fold into single runs: plain RLE must beat raw
        // by a clear margin on this shape.
        let rle = encode_coded(Payload::from(grid.clone()), CODEC_RLE);
        assert!(rle.len() <= grid.len() * 2 / 3, "rle {} of {}", rle.len(), grid.len());
        // Delta-RLE earns its keep on *smooth* fields — consecutive
        // elements near-equal, so the delta stream is almost all zeros —
        // where plain RLE sees no runs at all.
        let smooth: Vec<u8> = (0u64..512).flat_map(|v| (1000 + v / 16).to_le_bytes()).collect();
        let delta = encode_coded(Payload::from(smooth.clone()), CODEC_DELTA_RLE);
        assert!(delta.len() < smooth.len() / 4, "delta {} of {}", delta.len(), smooth.len());
        let back = decode_coded_payload(delta, CAP_ALL).unwrap();
        assert_eq!(&back.to_bytes()[..], &smooth[..]);
    }

    #[test]
    fn incompressible_bodies_keep_their_lent_parts() {
        // A pseudo-random body cannot shrink under RLE: the encoder must
        // fall back to raw and ship the original borrowed parts.
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
        let coded = encode_coded(body, CODEC_RLE);
        assert_eq!(coded.num_parts(), 3, "prefix + the two original parts");
        assert_eq!(coded.parts()[1].as_ptr(), region.as_ptr(), "part still borrowed");
        let back = decode_coded_payload(coded, CAP_RAW).unwrap();
        assert_eq!(back.parts()[0].as_ptr(), region.as_ptr(), "raw decode is in-place");
    }

    #[test]
    fn codec_decoders_reject_malformed_frames() {
        // Codec id outside the negotiated mask.
        let coded = encode_coded(Payload::from(vec![7u8; 100]), CODEC_RLE);
        assert!(coded.len() < 100, "compresses");
        assert!(dec_coded(&coded.to_bytes(), CAP_RAW).is_err(), "unnegotiated codec");
        // Unknown codec id.
        assert!(dec_coded(&Bytes::from_static(&[9, 0, 0]), CAP_ALL).is_err());
        // Empty frame.
        assert!(dec_coded(&Bytes::new(), CAP_ALL).is_err());
        assert!(decode_coded_payload(Payload::new(), CAP_ALL).is_err());
        // Odd pair stream.
        let mut bad = vec![CODEC_RLE];
        bad.extend_from_slice(&5u64.to_le_bytes());
        bad.extend_from_slice(&[5, 1, 7]); // one and a half pairs
        assert!(dec_coded(&Bytes::from(bad), CAP_ALL).is_err());
        // Declared length no run set can reach (balloon guard).
        let mut bad = vec![CODEC_RLE];
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        bad.extend_from_slice(&[255, 1]);
        assert!(dec_coded(&Bytes::from(bad), CAP_ALL).is_err());
        // Zero-length run.
        let mut bad = vec![CODEC_RLE];
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&[0, 1, 1, 2]);
        assert!(dec_coded(&Bytes::from(bad), CAP_ALL).is_err());
        // Runs that do not land exactly on the declared length.
        let mut bad = vec![CODEC_RLE];
        bad.extend_from_slice(&3u64.to_le_bytes());
        bad.extend_from_slice(&[2, 1]);
        assert!(dec_coded(&Bytes::from(bad), CAP_ALL).is_err());
    }

    #[test]
    fn preferred_codec_follows_mask() {
        assert_eq!(preferred_codec(CAP_ALL), CODEC_DELTA_RLE);
        assert_eq!(preferred_codec(CAP_RAW | CAP_RLE), CODEC_RLE);
        assert_eq!(preferred_codec(CAP_RAW), CODEC_RAW);
        assert_eq!(preferred_codec(0), CODEC_RAW);
        assert_eq!(WireCodec::Auto.caps(), CAP_ALL);
        assert_eq!(WireCodec::Raw.caps(), CAP_RAW);
        assert_eq!(WireCodec::Rle.caps(), CAP_RAW | CAP_RLE);
        assert_eq!(WireCodec::DeltaRle.caps(), CAP_RAW | CAP_DELTA_RLE);
    }
}
