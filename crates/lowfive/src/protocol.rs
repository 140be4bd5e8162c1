//! Wire protocol of the index–serve–query redistribution.
//!
//! Three RPC methods run between consumer ranks (clients) and producer
//! ranks (servers) over the world communicator:
//!
//! * `M_METADATA` — fetch the serialized metadata tree of a file
//!   (consumer `file_open`),
//! * `M_DATA_BATCH` — the query of Algorithm 3: one frame per producer
//!   carrying **all** `(dataset, selection)` pairs the consumer wants
//!   from that producer for one file (a lone read is a batch of one).
//!   Each entry is answered twice over: with the *redirect* (the
//!   producer ranks its index lists as holding data inside the
//!   selection's bounding box) and with the intersection of the
//!   producer's local regions with the selection, as contiguous
//!   segments each tagged with its element offset in the **consumer's**
//!   packed buffer, so the consumer applies a reply with straight
//!   `memcpy`s,
//! * `M_DONE` — consumer `file_close` notification; producers exit their
//!   serve loop when every consumer has reported done.
//!
//! Three more methods carry the step-streaming control plane (see
//! `crate::stream` and the repository's `docs/STREAMING.md`):
//!
//! * `M_STEP_SUB` — subscribe to a step series: returns the retained
//!   window bounds so a late joiner can catch up from the step index,
//! * `M_STEP_NEXT` — poll for the next step matching a subscribe policy;
//!   the *announce* reply names the step's slot file and generation,
//! * `M_STEP_ACK` — cumulative consumption acknowledgement (`cursor`
//!   covers every step below it), multicast to all producer ranks so the
//!   bounded step queues retire entries in lockstep.
//!
//! One more method carries codec negotiation (see `## Codec prefix`):
//!
//! * `M_CODEC_OFFER` — a consumer rank advertises its codec capability
//!   bitmask for a file to a producer rank it did not handshake with
//!   (fire-and-forget; a lost offer merely leaves that pair on `Raw`).
//!
//! The index exchange among producers (Algorithm 1) uses a plain tagged
//! message (`TAG_INDEX`) on the producer task's local communicator.
//!
//! ## Codec prefix
//!
//! The ok body of every data-bearing reply (`M_DATA_BATCH`,
//! `M_STEP_NEXT`) is wrapped in a one-byte codec prefix: `[codec u8]`
//! followed by the body, verbatim for [`CODEC_RAW`] or compressed for
//! [`CODEC_RLE`] / [`CODEC_DELTA_RLE`]. Which codecs a sender may use
//! toward a given consumer is negotiated at open/subscribe time as a
//! capability bitmask (`CAP_*`) intersected across both sides; an
//! unnegotiated pair falls through to `Raw`. Encoding walks a reply's
//! borrowed parts in place and keeps the raw lent parts whenever
//! compression would not shrink the body, so the zero-copy lend path
//! survives incompressible payloads untouched.
//!
//! ## Generation tags
//!
//! Every reply a producer serves — metadata, each data entry — and every
//! index-bundle entry carries the file's *generation*: a counter the
//! producer bumps on each write to (or truncation of) the file. Consumers
//! key their caches on it; a reply carrying a newer generation than the
//! cached one proves the cache stale and forces invalidation, so an
//! in-place rewrite between consumer reads is observed instead of served
//! from a stale cache.
//!
//! ## Borrowed-slice reply framing
//!
//! Data replies can be assembled as multi-part [`Payload`]s through
//! [`ReplyFrame`]: contiguous header runs (counts, segment tables,
//! length prefixes) accumulate in a [`Writer`] and are flushed as small
//! parts, while dataset bytes are *lent* as refcounted sub-slices of the
//! producer's shallow regions. The flattened byte stream of such a frame
//! is byte-identical to the contiguous encoders below, so either side may
//! use either representation. Consumers walk the parts in place with a
//! [`PayloadReader`] and scatter straight into the destination buffer —
//! the only copy on the whole path is that final placement.
//!
//! The byte-level layout of every frame is specified in the repository's
//! `docs/PROTOCOL.md`; the encoder/decoder pairs in this module are the
//! normative implementation, and each carries a round-trip doctest.

use bytes::Bytes;
use minih5::codec::{Reader, Writer};
use minih5::format::FileMeta;
use minih5::{BBox, H5Error, H5Result, Selection};
use simmpi::Payload;

/// Fetch the serialized [`FileMeta`] tree of a file.
pub const M_METADATA: u32 = 1;
// Method id 2 was the separate redirect query (its answer now rides on
// every `M_DATA_BATCH` reply) and id 3 the single-entry data query. Both
// are retired, not renumbered, and draw the unknown-method error.
/// Consumer `file_close` notification (no reply expected).
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
/// tag part is a slice of one static table and goes in front of the
/// body's own part list, so framing a reply allocates nothing.
fn prefixed(tag: u8, mut body: Payload) -> Payload {
    static TAGS: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            t[i] = i as u8;
            i += 1;
        }
        t
    };
    let tag = usize::from(tag);
    body.prepend(Bytes::from_static(&TAGS[tag..=tag]));
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
        None => prefixed(CODEC_RAW, body),
    }
}

/// Strip the codec prefix off a contiguous coded body, expanding
/// compressed frames. `allowed` is the receiver's own advertised
/// capability mask — a codec outside it is a framing error, since the
/// sender may only use what this receiver offered.
pub fn dec_coded(b: &Bytes, allowed: u64) -> H5Result<Bytes> {
    let Some(&codec) = b.first() else {
        return Err(H5Error::Format("empty coded frame".into()));
    };
    check_codec_allowed(codec, allowed)?;
    match codec {
        CODEC_RAW => Ok(b.slice(1..)),
        codec => rle_decode(&[b.slice(1..)], codec == CODEC_DELTA_RLE),
    }
}

/// Parts-preserving [`dec_coded`]: a raw body just sheds its prefix byte
/// (in-place `advance`, borrowed parts intact); a compressed body is
/// expanded into a single fresh part.
pub fn decode_coded_payload(mut p: Payload, allowed: u64) -> H5Result<Payload> {
    let mut d = [0u8; 1];
    if !p.copy_prefix(&mut d) {
        return Err(H5Error::Format("empty coded frame".into()));
    }
    check_codec_allowed(d[0], allowed)?;
    p.advance(1);
    match d[0] {
        CODEC_RAW => Ok(p),
        codec => Ok(Payload::from(rle_decode(p.parts(), codec == CODEC_DELTA_RLE)?)),
    }
}

fn check_codec_allowed(codec: u8, allowed: u64) -> H5Result<()> {
    if codec > CODEC_DELTA_RLE {
        return Err(H5Error::Format(format!("unknown wire codec {codec}")));
    }
    if allowed & (1u64 << codec) == 0 {
        return Err(H5Error::Format(format!("codec {codec} was not negotiated")));
    }
    Ok(())
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

/// Encode a metadata request (`M_METADATA`): the file name plus the
/// consumer's codec-capability bitmask (`CAP_*` bits) — the producer
/// intersects it with its own and replies with the negotiated mask.
///
/// ```
/// use lowfive::protocol::{enc_metadata_req, dec_metadata_req, CAP_ALL};
/// let frame = enc_metadata_req("a.h5", CAP_ALL);
/// assert_eq!(dec_metadata_req(&frame).unwrap(), ("a.h5", CAP_ALL));
/// ```
pub fn enc_metadata_req(file: &str, caps: u64) -> Bytes {
    metadata_req(file, caps).finish()
}

/// [`enc_metadata_req`] left open, with headroom for the RPC header.
pub(crate) fn metadata_req(file: &str, caps: u64) -> Writer {
    let mut w = Writer::new();
    w.put_str(file);
    w.put_u64(caps);
    w
}

/// Decode a metadata request into `(file, consumer codec caps)`, the name
/// borrowed from the frame.
pub fn dec_metadata_req(b: &[u8]) -> H5Result<(&str, u64)> {
    let mut r = Reader::new(b);
    let file = r.get_str_ref()?;
    let caps = r.get_u64()?;
    expect_eof(&r)?;
    Ok((file, caps))
}

/// Encode a codec offer (`M_CODEC_OFFER`): a consumer rank advertising
/// its capability bitmask for `file` to a producer it did not handshake
/// with directly. Same body as a metadata request; sent as a
/// fire-and-forget notification.
pub fn enc_codec_offer(file: &str, caps: u64) -> Bytes {
    enc_metadata_req(file, caps)
}

/// Decode a codec offer into `(file, consumer codec caps)`.
pub fn dec_codec_offer(b: &[u8]) -> H5Result<(&str, u64)> {
    dec_metadata_req(b)
}

/// Encode a data query (`M_DATA_BATCH`): every `(dataset, selection)`
/// pair the consumer wants from one producer for `file`.
///
/// Each entry is answered independently — the reply carries one
/// [`DataReply`] per entry, in entry order, with segment offsets relative
/// to *that entry's* packed buffer, so how selections are grouped into
/// frames never changes the bytes a consumer assembles.
///
/// ```
/// use lowfive::protocol::{enc_data_req_batch, dec_data_req_batch};
/// use minih5::Selection;
/// let entries = vec![
///     ("grid".to_string(), Selection::block(&[0, 0], &[4, 4])),
///     ("particles".to_string(), Selection::all()),
/// ];
/// let frame = enc_data_req_batch("step0.h5", &entries);
/// let (file, back) = dec_data_req_batch(&frame).unwrap();
/// assert_eq!(file, "step0.h5");
/// assert!(back.iter().map(|(d, s)| (*d, s)).eq(entries.iter().map(|(d, s)| (d.as_str(), s))));
/// ```
pub fn enc_data_req_batch(file: &str, entries: &[(String, Selection)]) -> Bytes {
    let borrowed = entries.iter().map(|(dset, sel)| (dset.as_str(), sel));
    data_req_batch(file, entries.len(), borrowed).finish()
}

/// [`enc_data_req_batch`] encoded from `n` borrowed entries and left
/// open, with headroom for the RPC header.
pub(crate) fn data_req_batch<'a>(
    file: &str,
    n: usize,
    entries: impl Iterator<Item = (&'a str, &'a Selection)>,
) -> Writer {
    let mut w = Writer::new();
    w.put_str(file);
    w.put_u64(n as u64);
    let mut written = 0;
    for (dset, sel) in entries {
        w.put_str(dset);
        w.put(sel);
        written += 1;
    }
    debug_assert_eq!(written, n, "declared entry count");
    w
}

/// Decode a data query, names borrowed from the frame. Rejects frames
/// whose declared entry count could not possibly fit in the remaining
/// bytes, so a corrupt length prefix fails cleanly instead of ballooning
/// an allocation.
pub fn dec_data_req_batch(b: &[u8]) -> H5Result<(&str, Vec<(&str, Selection)>)> {
    let mut r = Reader::new(b);
    let file = r.get_str_ref()?;
    let n = r.get_count(9)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((r.get_str_ref()?, r.get()?));
    }
    expect_eof(&r)?;
    Ok((file, entries))
}

/// Encode an `M_DONE` notification: just the filename.
pub fn enc_done_req(file: &str) -> Bytes {
    done_req(file).finish()
}

/// [`enc_done_req`] left open, with headroom for the RPC header.
pub(crate) fn done_req(file: &str) -> Writer {
    let mut w = Writer::new();
    w.put_str(file);
    w
}

/// Decode an `M_DONE` notification into the filename, borrowed from the
/// frame.
pub fn dec_done_req(b: &[u8]) -> H5Result<&str> {
    let mut r = Reader::new(b);
    let file = r.get_str_ref()?;
    expect_eof(&r)?;
    Ok(file)
}

/// Assert a decoder consumed its whole frame: leftover bytes mean a
/// mis-framed (or padded) message that must not decode silently.
fn expect_eof(r: &Reader) -> H5Result<()> {
    if r.remaining() != 0 {
        return Err(H5Error::Format(format!("{} trailing bytes", r.remaining())));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// Error-kind codes carried in the err branch of [`enc_result`], so the
/// variants that change a consumer's control flow survive the wire (and
/// the metadata-broadcast rebroadcast) instead of collapsing into a
/// generic string.
const EK_GENERIC: u8 = 0;
const EK_NOT_FOUND: u8 = 1;
const EK_PEER_UNAVAILABLE: u8 = 2;

/// Replies carry an ok/err discriminant so protocol errors propagate to
/// the consumer instead of deadlocking it. The err branch is
/// `[kind u8][message str]`.
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
    let mut w = Writer::new();
    match r {
        Ok(body) => {
            w.put_u8(1);
            w.put_raw(&body);
        }
        Err(e) => {
            w.put_u8(0);
            let (kind, msg) = match &e {
                H5Error::NotFound(n) => (EK_NOT_FOUND, n.clone()),
                H5Error::PeerUnavailable(m) => (EK_PEER_UNAVAILABLE, m.clone()),
                other => (EK_GENERIC, other.to_string()),
            };
            w.put_u8(kind);
            w.put_str(&msg);
        }
    }
    w.finish()
}

/// Unwrap a [`enc_result`]-framed reply body.
pub fn dec_result(b: &Bytes) -> H5Result<Bytes> {
    let mut r = Reader::new(b);
    match r.get_u8()? {
        1 => Ok(b.slice(1..)),
        0 => {
            let kind = r.get_u8()?;
            let msg = r.get_str()?;
            Err(match kind {
                EK_NOT_FOUND => H5Error::NotFound(msg),
                EK_PEER_UNAVAILABLE => H5Error::PeerUnavailable(msg),
                _ => H5Error::Vol(format!("remote error: {msg}")),
            })
        }
        t => Err(H5Error::Format(format!("bad reply discriminant {t}"))),
    }
}

/// The ok reply whose body was encoded into `body`: the discriminant goes
/// into the headroom in front of it, so the frame stays one buffer.
/// Flattened, it is identical to `enc_result(Ok(body))`.
pub(crate) fn ok_reply(mut body: Writer) -> Bytes {
    body.prepend(&[1]);
    body.finish()
}

/// The ok reply with an empty body (an ack): one static byte.
pub(crate) const OK_EMPTY: Bytes = Bytes::from_static(&[1]);

/// Parts-preserving [`enc_result`]: the ok discriminant becomes its own
/// one-byte part and the body's parts follow untouched, so a zero-copy
/// reply stays zero-copy through the result wrapper. Flattened, the frame
/// is identical to `enc_result`'s.
pub fn enc_result_payload(r: H5Result<Payload>) -> Payload {
    match r {
        Ok(body) => prefixed(1, body),
        Err(e) => enc_result(Err(e)).into(),
    }
}

/// Unwrap a result-framed reply delivered as a [`Payload`] without
/// flattening the ok body: a one-byte prefix peek plus an in-place
/// `advance`. Error frames are small and single-part; decoding them
/// reuses [`dec_result`].
pub fn dec_result_payload(mut p: Payload) -> H5Result<Payload> {
    let mut d = [0u8; 1];
    if !p.copy_prefix(&mut d) {
        return Err(H5Error::Format("empty reply frame".into()));
    }
    match d[0] {
        1 => {
            p.advance(1);
            Ok(p)
        }
        0 => match dec_result(&p.into_bytes()) {
            Ok(_) => unreachable!("discriminant 0 is the err branch"),
            Err(e) => Err(e),
        },
        t => Err(H5Error::Format(format!("bad reply discriminant {t}"))),
    }
}

/// Encode a metadata reply: the file's generation, the negotiated codec
/// mask (consumer caps ∩ producer caps), then the serialized
/// [`FileMeta`] tree.
pub fn enc_metadata_reply(gen: u64, codec_mask: u64, meta: &FileMeta) -> Bytes {
    metadata_reply(gen, codec_mask, meta).finish()
}

/// [`enc_metadata_reply`] left open, with headroom for the result
/// discriminant.
pub(crate) fn metadata_reply(gen: u64, codec_mask: u64, meta: &FileMeta) -> Writer {
    let mut w = Writer::new();
    w.put_u64(gen);
    w.put_u64(codec_mask);
    w.put(meta);
    w
}

/// Decode a metadata reply into `(generation, negotiated codec mask,
/// tree)`.
pub fn dec_metadata_reply(b: &[u8]) -> H5Result<(u64, u64, FileMeta)> {
    let mut r = Reader::new(b);
    let gen = r.get_u64()?;
    let mask = r.get_u64()?;
    let meta = r.get()?;
    expect_eof(&r)?;
    Ok((gen, mask, meta))
}

/// One entry of a data reply: `owners` answer the redirect, `segs` are
/// `(element offset in the consumer's packed buffer, element length)`,
/// and `blob` is the concatenated payload in segment order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataReply {
    /// Generation of the served file at reply time.
    pub gen: u64,
    /// Producer-local ranks the answering producer's index lists as
    /// holding data of the dataset inside the selection's bounding box.
    pub owners: Vec<usize>,
    /// `(element offset, element length)` pairs addressing the
    /// consumer's packed destination buffer.
    pub segs: Vec<(u64, u64)>,
    /// Concatenated segment payloads, in `segs` order.
    pub blob: Bytes,
}

/// Encode a data reply (`M_DATA_BATCH`): the entry count, every entry's
/// owner list, then one `(gen, segs, blob)` body per entry, all in entry
/// order. The owner lists lead, so each body keeps the layout
/// [`get_data_reply_header`] walks.
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{enc_data_reply_batch, dec_data_reply_batch, DataReply};
/// let replies = vec![
///     DataReply { gen: 2, owners: vec![0, 1], segs: vec![(0, 2)], blob: Bytes::from_static(&[7, 8]) },
///     // An entry may intersect nothing.
///     DataReply { gen: 2, owners: vec![], segs: vec![], blob: Bytes::new() },
/// ];
/// assert_eq!(dec_data_reply_batch(&enc_data_reply_batch(&replies), 2).unwrap(), replies);
/// ```
pub fn enc_data_reply_batch(replies: &[DataReply]) -> Bytes {
    let mut w = Writer::new();
    w.put_u64(replies.len() as u64);
    for r in replies {
        w.put_u64s(&r.owners.iter().map(|&o| o as u64).collect::<Vec<u64>>());
    }
    for r in replies {
        w.put_u64(r.gen);
        w.put_u64(r.segs.len() as u64);
        for &(off, len) in &r.segs {
            w.put_u64(off);
            w.put_u64(len);
        }
        w.put_bytes(&r.blob);
    }
    w.finish()
}

/// Decode a data reply from a task of `producers` ranks into one
/// [`DataReply`] per entry. Every count is validated against the bytes
/// actually present, and every owner against the task size.
pub fn dec_data_reply_batch(b: &[u8], producers: usize) -> H5Result<Vec<DataReply>> {
    let mut pr = PayloadReader::new(Payload::from(Bytes::copy_from_slice(b)));
    let owners = get_batch_owners(&mut pr, producers)?;
    let mut out = Vec::with_capacity(owners.len());
    for owners in owners {
        let (gen, segs, blob_len) = get_data_reply_header(&mut pr)?;
        let mut blob = vec![0u8; blob_len];
        pr.copy_into(&mut blob)?;
        out.push(DataReply { gen, owners, segs, blob: Bytes::from(blob) });
    }
    pr.expect_end()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Zero-copy reply framing
// ---------------------------------------------------------------------

/// Builder for multi-part reply frames: header fields accumulate in a
/// contiguous run, dataset bytes are *lent* as refcounted parts. The
/// flattened frame is byte-identical to what the contiguous encoders
/// above produce, so a `ReplyFrame`-built reply decodes with the same
/// decoders once flattened — or, without flattening, with a
/// [`PayloadReader`].
///
/// ```
/// use bytes::Bytes;
/// use lowfive::protocol::{dec_data_reply_batch, enc_data_reply_batch, DataReply, ReplyFrame};
/// let region = Bytes::from(vec![1u8, 2, 3, 4, 5]);
/// let mut f = ReplyFrame::new();
/// f.put_u64(1); // one entry
/// f.put_u64(1); // its owner list: one rank...
/// f.put_u64(0); // ...rank 0
/// f.put_u64(1); // gen
/// f.put_u64(1); // one segment
/// f.put_u64(0); // off
/// f.put_u64(3); // len
/// f.put_u64(3); // blob length prefix
/// f.lend(region.slice(1..4)); // borrowed, not copied
/// let flat = f.finish().into_bytes();
/// let entry = DataReply { gen: 1, owners: vec![0], segs: vec![(0, 3)], blob: region.slice(1..4) };
/// assert_eq!(&flat[..], &enc_data_reply_batch(&[entry])[..]);
/// assert_eq!(&dec_data_reply_batch(&flat, 1).unwrap()[0].blob[..], &[2, 3, 4]);
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

    /// Total logical length framed so far.
    pub fn len(&self) -> usize {
        self.hdr.len() + self.parts.len()
    }

    /// Has nothing been framed yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish the frame as a multi-part payload.
    pub fn finish(mut self) -> Payload {
        self.flush_hdr();
        self.parts
    }
}

/// Decoding cursor over a multi-part reply [`Payload`], used by the
/// consumer to walk a reply *in place*: scalar reads peek a few bytes
/// across part boundaries (bounded, uncounted copies), and
/// [`PayloadReader::copy_into`] scatters blob bytes straight into the
/// caller's destination buffer — the single unavoidable copy of the
/// zero-copy fetch path.
///
/// The cursor is a (part, offset) position plus a running count of the
/// bytes left: reading never re-slices or drops a part, so walking a reply
/// costs the same per field however many parts it has, and the parts are
/// released together when the reader drops.
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

    /// Read one byte off the front of the payload.
    pub fn get_u8(&mut self) -> H5Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Read a little-endian `u64` off the front of the payload.
    pub fn get_u64(&mut self) -> H5Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Copy exactly `dst.len()` bytes off the front of the payload into
    /// `dst` and advance past them.
    pub fn copy_into(&mut self, dst: &mut [u8]) -> H5Result<()> {
        self.read_exact(dst)
    }

    /// Hand the next `n` bytes to `sink` in place — one call per part they
    /// span, nothing copied here — and advance past them.
    pub(crate) fn read_chunks(
        &mut self,
        n: usize,
        mut sink: impl FnMut(&[u8]) -> H5Result<()>,
    ) -> H5Result<()> {
        if n > self.left {
            return Err(self.truncated(n));
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

    /// Fail unless the whole payload has been read.
    pub(crate) fn expect_end(&self) -> H5Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(H5Error::Format(format!("{n} trailing bytes after reply"))),
        }
    }

    fn read_exact(&mut self, dst: &mut [u8]) -> H5Result<()> {
        let mut filled = 0;
        self.read_chunks(dst.len(), |chunk| {
            dst[filled..filled + chunk.len()].copy_from_slice(chunk);
            filled += chunk.len();
            Ok(())
        })
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

    fn truncated(&self, need: usize) -> H5Error {
        H5Error::Format(format!("truncated reply payload: need {need} bytes, have {}", self.left))
    }
}

/// Read the head of a data reply off a [`PayloadReader`] — the entry
/// count and every entry's owner list — leaving the cursor at the first
/// entry body. The reply comes from a task of `producers` ranks: an owner
/// outside `0..producers`, like a count the frame cannot hold, is a
/// [`H5Error::Format`] here rather than an out-of-bounds index later.
pub fn get_batch_owners(pr: &mut PayloadReader, producers: usize) -> H5Result<Vec<Vec<usize>>> {
    let n = get_batch_len(pr)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut owners = Vec::new();
        get_owner_list(pr, producers, |o| owners.push(o))?;
        out.push(owners);
    }
    Ok(out)
}

/// Read the entry count that leads a data reply.
pub(crate) fn get_batch_len(pr: &mut PayloadReader) -> H5Result<usize> {
    pr.get_count(8)
}

/// Read one entry's owner list, handing each owner to `f` in wire order;
/// an owner outside `0..producers` is a [`H5Error::Format`].
pub(crate) fn get_owner_list(
    pr: &mut PayloadReader,
    producers: usize,
    mut f: impl FnMut(usize),
) -> H5Result<()> {
    let k = pr.get_count(8)?;
    for _ in 0..k {
        let o = pr.get_u64()?;
        f(usize::try_from(o).ok().filter(|&o| o < producers).ok_or_else(|| {
            H5Error::Format(format!("owner rank {o} outside a task of {producers}"))
        })?);
    }
    Ok(())
}

/// A decoded data-reply header: `(generation, segments, blob length in
/// bytes)`.
pub type DataReplyHeader = (u64, Vec<(u64, u64)>, usize);

/// Read one data-reply header off a [`PayloadReader`], leaving the cursor
/// at the first blob byte. The caller scatters `blob_len` bytes via
/// [`PayloadReader::copy_into`] (or skips them) before reading the next
/// entry of a batch. Counts are validated against the bytes actually
/// present, exactly like the contiguous decoders.
pub fn get_data_reply_header(pr: &mut PayloadReader) -> H5Result<DataReplyHeader> {
    let mut segs = Vec::new();
    let (gen, blob_len) = get_data_reply_header_into(pr, &mut segs)?;
    Ok((gen, segs, blob_len))
}

/// [`get_data_reply_header`] into a caller's segment list (cleared
/// first), so that one list serves every entry of a read: returns
/// `(generation, blob length in bytes)`.
pub(crate) fn get_data_reply_header_into(
    pr: &mut PayloadReader,
    segs: &mut Vec<(u64, u64)>,
) -> H5Result<(u64, usize)> {
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

// ---------------------------------------------------------------------
// Index exchange payloads (producer-local)
// ---------------------------------------------------------------------

/// One producer's contribution to another producer's index: per dataset,
/// the bounding boxes of the regions the sender holds that fall in the
/// receiver's block of the common decomposition, each tagged with the
/// sender's generation of the file at index time.
///
/// ```
/// use lowfive::protocol::{enc_index_bundle, dec_index_bundle};
/// use minih5::BBox;
/// let bb = BBox::new(vec![0], vec![5]);
/// let entries = vec![("f.h5".to_string(), "grid".to_string(), 1, bb.clone())];
/// assert_eq!(dec_index_bundle(&enc_index_bundle(&entries)).unwrap(), vec![("f.h5", "grid", 1, bb)]);
/// ```
pub fn enc_index_bundle(entries: &[(String, String, u64, BBox)]) -> Bytes {
    let mut w = Writer::new();
    for (file, dset, gen, bb) in entries {
        put_index_entry(&mut w, file, dset, *gen, bb);
    }
    finish_index_bundle(w, entries.len() as u64)
}

/// Append one entry of an index bundle to `w`, from borrowed names.
pub(crate) fn put_index_entry(w: &mut Writer, file: &str, dset: &str, gen: u64, bb: &BBox) {
    w.put_str(file);
    w.put_str(dset);
    w.put_u64(gen);
    w.put(bb);
}

/// Close a bundle of `n` entries written with [`put_index_entry`]: the
/// count that leads it goes into the headroom in front of them.
pub(crate) fn finish_index_bundle(mut w: Writer, n: u64) -> Bytes {
    w.prepend(&n.to_le_bytes());
    w.finish()
}

/// Decode an index bundle, names borrowed from the frame.
pub fn dec_index_bundle(b: &[u8]) -> H5Result<Vec<(&str, &str, u64, BBox)>> {
    let mut r = Reader::new(b);
    let n = r.get_count(25)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.get_str_ref()?, r.get_str_ref()?, r.get_u64()?, r.get()?));
    }
    expect_eof(&r)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Step streaming (M_STEP_SUB / M_STEP_NEXT / M_STEP_ACK)
// ---------------------------------------------------------------------

/// Wire codes of the subscribe policies carried in `M_STEP_NEXT`
/// requests. `crate::stream::StepPolicy` maps onto these; the skip
/// bound rides next to the code so the frame shape is fixed.
pub const STEP_POLICY_EVERY: u8 = 0;
/// Wire code: deliver the newest retained step at or past the cursor.
pub const STEP_POLICY_LATEST: u8 = 1;
/// Wire code: deliver in order but allow skipping up to `n` steps ahead.
pub const STEP_POLICY_SKIP_OK: u8 = 2;

/// Encode a step-subscribe request (`M_STEP_SUB`): the series name plus
/// the subscriber's codec-capability bitmask (`CAP_*` bits).
///
/// ```
/// use lowfive::protocol::{enc_step_sub_req, dec_step_sub_req, CAP_RAW};
/// let frame = enc_step_sub_req("sim.h5", CAP_RAW);
/// assert_eq!(dec_step_sub_req(&frame).unwrap(), ("sim.h5".into(), CAP_RAW));
/// ```
pub fn enc_step_sub_req(series: &str, caps: u64) -> Bytes {
    step_sub_req(series, caps).finish()
}

/// [`enc_step_sub_req`] left open, with headroom for the RPC header.
pub(crate) fn step_sub_req(series: &str, caps: u64) -> Writer {
    let mut w = Writer::new();
    w.put_str(series);
    w.put_u64(caps);
    w
}

/// Decode a step-subscribe request into `(series, subscriber caps)`.
pub fn dec_step_sub_req(b: &[u8]) -> H5Result<(String, u64)> {
    let mut r = Reader::new(b);
    let series = r.get_str()?;
    let caps = r.get_u64()?;
    expect_eof(&r)?;
    Ok((series, caps))
}

/// Encode a step-subscribe reply: the retained window start (the oldest
/// step a late joiner can still catch up from), the next sequence number
/// the producer will publish, whether the series has ended, and the
/// negotiated codec mask (subscriber caps ∩ producer caps) governing
/// this pair's step-next reply bodies.
///
/// ```
/// use lowfive::protocol::{enc_step_sub_reply, dec_step_sub_reply, CAP_RAW};
/// let frame = enc_step_sub_reply(3, 7, false, CAP_RAW);
/// assert_eq!(dec_step_sub_reply(&frame).unwrap(), (3, 7, false, CAP_RAW));
/// ```
pub fn enc_step_sub_reply(window_start: u64, next_seq: u64, ended: bool, codec_mask: u64) -> Bytes {
    let mut w = Writer::new();
    w.put_u64(window_start);
    w.put_u64(next_seq);
    w.put_u8(ended as u8);
    w.put_u64(codec_mask);
    w.finish()
}

/// Decode a step-subscribe reply into `(window_start, next_seq, ended,
/// negotiated codec mask)`.
pub fn dec_step_sub_reply(b: &[u8]) -> H5Result<(u64, u64, bool, u64)> {
    let mut r = Reader::new(b);
    let out = (r.get_u64()?, r.get_u64()?, r.get_u8()? != 0, r.get_u64()?);
    expect_eof(&r)?;
    Ok(out)
}

/// Encode a step-next request (`M_STEP_NEXT`): the series, the caller's
/// cumulative cursor (every step below it is consumed), the policy wire
/// code, and the skip bound (meaningful for [`STEP_POLICY_SKIP_OK`],
/// zero otherwise).
///
/// ```
/// use lowfive::protocol::{enc_step_next_req, dec_step_next_req, STEP_POLICY_SKIP_OK};
/// let frame = enc_step_next_req("sim.h5", 4, STEP_POLICY_SKIP_OK, 2);
/// assert_eq!(dec_step_next_req(&frame).unwrap(), ("sim.h5".into(), 4, STEP_POLICY_SKIP_OK, 2));
/// ```
pub fn enc_step_next_req(series: &str, cursor: u64, policy: u8, skip: u64) -> Bytes {
    step_next_req(series, cursor, policy, skip).finish()
}

/// [`enc_step_next_req`] left open, with headroom for the RPC header.
pub(crate) fn step_next_req(series: &str, cursor: u64, policy: u8, skip: u64) -> Writer {
    let mut w = Writer::new();
    w.put_str(series);
    w.put_u64(cursor);
    w.put_u8(policy);
    w.put_u64(skip);
    w
}

/// Decode a step-next request into `(series, cursor, policy code, skip)`.
pub fn dec_step_next_req(b: &[u8]) -> H5Result<(String, u64, u8, u64)> {
    let mut r = Reader::new(b);
    let out = (r.get_str()?, r.get_u64()?, r.get_u8()?, r.get_u64()?);
    expect_eof(&r)?;
    Ok(out)
}

/// One `M_STEP_NEXT` reply.
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

const STEP_NEXT_PENDING: u8 = 0;
const STEP_NEXT_STEP: u8 = 1;
const STEP_NEXT_ENDED: u8 = 2;

/// Encode a step-next reply.
///
/// ```
/// use lowfive::protocol::{enc_step_next_reply, dec_step_next_reply, StepNextReply};
/// for reply in [
///     StepNextReply::Pending,
///     StepNextReply::Step { seq: 5, file: "sim.h5@s1".into(), gen: 2, pub_ns: 99 },
///     StepNextReply::Ended { head: 6 },
/// ] {
///     assert_eq!(dec_step_next_reply(&enc_step_next_reply(&reply)).unwrap(), reply);
/// }
/// ```
pub fn enc_step_next_reply(reply: &StepNextReply) -> Bytes {
    let mut w = Writer::new();
    match reply {
        StepNextReply::Pending => w.put_u8(STEP_NEXT_PENDING),
        StepNextReply::Step { seq, file, gen, pub_ns } => {
            w.put_u8(STEP_NEXT_STEP);
            w.put_u64(*seq);
            w.put_str(file);
            w.put_u64(*gen);
            w.put_u64(*pub_ns);
        }
        StepNextReply::Ended { head } => {
            w.put_u8(STEP_NEXT_ENDED);
            w.put_u64(*head);
        }
    }
    w.finish()
}

/// Decode a step-next reply.
pub fn dec_step_next_reply(b: &[u8]) -> H5Result<StepNextReply> {
    let mut r = Reader::new(b);
    let reply = match r.get_u8()? {
        STEP_NEXT_PENDING => StepNextReply::Pending,
        STEP_NEXT_STEP => {
            let seq = r.get_u64()?;
            let file = r.get_str()?;
            let gen = r.get_u64()?;
            let pub_ns = r.get_u64()?;
            StepNextReply::Step { seq, file, gen, pub_ns }
        }
        STEP_NEXT_ENDED => StepNextReply::Ended { head: r.get_u64()? },
        t => return Err(H5Error::Format(format!("bad step-next discriminant {t}"))),
    };
    expect_eof(&r)?;
    Ok(reply)
}

/// Encode a step-ack request (`M_STEP_ACK`): the series and the caller's
/// cumulative cursor. Acks are idempotent max-merges on the producer, so
/// a retransmit (lost ack under a retry policy) is harmless.
///
/// ```
/// use lowfive::protocol::{enc_step_ack_req, dec_step_ack_req};
/// assert_eq!(dec_step_ack_req(&enc_step_ack_req("sim.h5", 12)).unwrap(), ("sim.h5".into(), 12));
/// ```
pub fn enc_step_ack_req(series: &str, cursor: u64) -> Bytes {
    step_ack_req(series, cursor).finish()
}

/// [`enc_step_ack_req`] left open, with headroom for the RPC header.
pub(crate) fn step_ack_req(series: &str, cursor: u64) -> Writer {
    let mut w = Writer::new();
    w.put_str(series);
    w.put_u64(cursor);
    w
}

/// Decode a step-ack request into `(series, cursor)`.
pub fn dec_step_ack_req(b: &[u8]) -> H5Result<(String, u64)> {
    let mut r = Reader::new(b);
    let out = (r.get_str()?, r.get_u64()?);
    expect_eof(&r)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let frame = enc_metadata_req("a.h5", CAP_ALL);
        assert_eq!(dec_metadata_req(&frame).unwrap(), ("a.h5", CAP_ALL));
        assert_eq!(dec_done_req(&enc_done_req("a.h5")).unwrap(), "a.h5");
    }

    #[test]
    fn result_wrapper() {
        let ok = enc_result(Ok(Bytes::from_static(b"payload")));
        assert_eq!(&dec_result(&ok).unwrap()[..], b"payload");
        let err = enc_result(Err(H5Error::NotFound("x".into())));
        let e = dec_result(&err).unwrap_err();
        assert!(matches!(&e, H5Error::NotFound(n) if n == "x"), "kind survives: {e}");
        assert!(e.to_string().contains("object not found: x"));
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
        let entries = vec![
            ("f.h5".to_string(), "g/grid".to_string(), 1, BBox::new(vec![0], vec![5])),
            ("f.h5".to_string(), "g/p".to_string(), 2, BBox::new(vec![5], vec![9])),
        ];
        let frame = enc_index_bundle(&entries);
        let back = dec_index_bundle(&frame).unwrap();
        let owned: Vec<_> =
            back.into_iter().map(|(f, d, g, bb)| (f.to_string(), d.to_string(), g, bb)).collect();
        assert_eq!(owned, entries);
    }

    fn reply(gen: u64, owners: &[usize], segs: &[(u64, u64)], blob: &[u8]) -> DataReply {
        DataReply {
            gen,
            owners: owners.to_vec(),
            segs: segs.to_vec(),
            blob: Bytes::copy_from_slice(blob),
        }
    }

    #[test]
    fn reply_frame_flattens_to_contiguous_encoding() {
        // A two-entry batch built from borrowed slices must flatten to
        // exactly what the contiguous encoder produces for the same data.
        let region = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let mut blob = region.slice(0..4).to_vec();
        blob.extend_from_slice(&region.slice(16..20));
        let entries = [reply(7, &[1, 0], &[(0, 4), (8, 4)], &blob), reply(7, &[], &[], &[])];
        let contiguous = enc_data_reply_batch(&entries);

        let mut f = ReplyFrame::new();
        f.put_u64(2); // entries
        for owners in [&[1u64, 0][..], &[]] {
            f.put_u64(owners.len() as u64);
            owners.iter().for_each(|&o| f.put_u64(o));
        }
        f.put_u64(7); // gen
        f.put_u64(2); // segs
        for &(off, len) in &entries[0].segs {
            f.put_u64(off);
            f.put_u64(len);
        }
        f.put_blob_len(8);
        f.lend(region.slice(0..4));
        f.lend(region.slice(16..20));
        f.put_u64(7); // gen
        f.put_u64(0); // segs
        f.put_blob_len(0);
        let payload = f.finish();
        assert!(payload.num_parts() > 1, "borrowed slices stay separate parts");
        assert_eq!(&payload.to_bytes()[..], &contiguous[..]);
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
        let replies: Vec<DataReply> = (0..12u64)
            .map(|i| DataReply {
                gen: 40 + i,
                owners: (0..(i % 3) as usize).collect(),
                segs: (0..i % 4).map(|k| (k * 7, k + 1)).collect(),
                blob: Bytes::from(
                    (0..(i % 4) * (i % 4 + 1) / 2 * 8).map(|b| b as u8).collect::<Vec<u8>>(),
                ),
            })
            .collect();
        let flat = enc_data_reply_batch(&replies);
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
        let mut pr = PayloadReader::new(split.clone());
        let owners = get_batch_owners(&mut pr, 3).unwrap();
        for (r, owners) in replies.iter().zip(owners) {
            let (gen, segs, blob_len) = get_data_reply_header(&mut pr).unwrap();
            let mut blob = vec![0u8; blob_len];
            pr.copy_into(&mut blob).unwrap();
            assert_eq!(DataReply { gen, owners, segs, blob: Bytes::from(blob) }, *r);
        }
        pr.expect_end().unwrap();
        let mut short = PayloadReader::new(split);
        short.skip(flat.len() - 3).unwrap();
        assert!(short.get_u64().is_err(), "a field past the end is a clean error");
        assert!(short.skip(4).is_err());
        short.skip(3).unwrap();
        short.expect_end().unwrap();
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
        let replies = [
            reply(5, &[0, 2], &[(0, 3), (10, 2)], &[1, 2, 3, 4, 5]),
            reply(5, &[], &[], &[]),
            reply(6, &[1], &[(7, 1)], &[9]),
        ];
        let back = dec_data_reply_batch(&enc_data_reply_batch(&replies), 3).unwrap();
        assert_eq!(back, replies);
        assert!(dec_data_reply_batch(&enc_data_reply_batch(&[]), 3).unwrap().is_empty());
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
        let e = dec_data_reply_batch(&w.finish(), 1).unwrap_err();
        assert!(matches!(e, H5Error::Format(_)), "{e}");

        let mut w = Writer::new();
        w.put_u64(1); // one entry...
        w.put_u64(0); // ...no owners...
        w.put_u64(0); // ...at generation 0...
        w.put_u64(u64::MAX / 16); // ...claiming absurdly many segments
        let e = dec_data_reply_batch(&w.finish(), 1).unwrap_err();
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
        assert!(dec_data_reply_batch(&w.finish(), 1).is_err());
    }

    #[test]
    fn decoders_reject_trailing_garbage() {
        let mut padded = enc_step_ack_req("s", 3).to_vec();
        padded.push(0xFF);
        let e = dec_step_ack_req(&padded).unwrap_err();
        assert!(matches!(&e, H5Error::Format(m) if m.contains("trailing")), "{e}");

        let mut padded = enc_step_next_reply(&StepNextReply::Pending).to_vec();
        padded.extend_from_slice(&[1, 2, 3]);
        assert!(dec_step_next_reply(&padded).is_err());

        let mut padded = enc_data_reply_batch(&[reply(1, &[0], &[(0, 1)], &[9])]).to_vec();
        padded.push(0);
        assert!(dec_data_reply_batch(&padded, 1).is_err());
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
