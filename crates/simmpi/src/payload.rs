//! Multi-part message payloads.
//!
//! A [`Payload`] is an ordered rope of refcounted [`Bytes`] parts whose
//! logical content is the concatenation of the parts. It exists so a
//! sender can *lend* sub-slices of buffers it already owns (LowFive's
//! shallow / zero-copy dataset regions) interleaved with small framing
//! headers, and local rank-to-rank delivery hands the receiver those very
//! allocations — no gather on send, no copy in the mailbox.
//!
//! Receivers that need a contiguous view call [`Payload::to_bytes`] /
//! [`Payload::into_bytes`]: free for payloads of at most one part (a
//! refcount bump), a gather-copy otherwise — and that copy is *accounted*,
//! bumping [`obsv::Ctr::BytesCopied`], so the zero-copy serve path can
//! assert it never happens. Parts-aware receivers (the RPC reply path)
//! instead walk the parts in place.

use bytes::{Bytes, BytesMut};

/// Parts a payload holds without a heap-allocated part list. A control
/// frame is one part, or two (a reply body behind its borrowed call id),
/// and anything longer is a lent data reply of at least four; two inline
/// parts also keep an envelope small enough to hand back by value.
const INLINE: usize = 2;

/// An ordered, refcounted, possibly multi-part message payload.
///
/// Equality and the wire format are defined on the *concatenated* byte
/// stream: two payloads with different part boundaries but the same
/// flattened content are interchangeable on the wire.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    parts: Parts,
}

/// The part list: up to [`INLINE`] parts in place, more on the heap.
/// Unused inline slots hold the empty static `Bytes`, which owns nothing.
#[derive(Debug, Clone)]
enum Parts {
    Inline { len: usize, parts: [Bytes; INLINE] },
    Heap(Vec<Bytes>),
}

impl Default for Parts {
    fn default() -> Self {
        Parts::Inline { len: 0, parts: [Bytes::new(), Bytes::new()] }
    }
}

impl Parts {
    fn as_slice(&self) -> &[Bytes] {
        match self {
            Parts::Inline { len, parts } => &parts[..*len],
            Parts::Heap(v) => v,
        }
    }

    /// Insert `part` at `at`, spilling to the heap once the inline slots
    /// are full.
    fn insert(&mut self, at: usize, part: Bytes) {
        match self {
            Parts::Inline { len, parts } if *len < INLINE => {
                parts[*len] = part;
                parts[at..=*len].rotate_right(1);
                *len += 1;
            }
            Parts::Inline { parts, .. } => {
                // Room for a small lent reply — a header run, a few
                // slices, the tags and call id in front — in one go.
                let mut v = Vec::with_capacity(8);
                v.extend(parts.iter_mut().map(std::mem::take));
                v.insert(at, part);
                *self = Parts::Heap(v);
            }
            Parts::Heap(v) => v.insert(at, part),
        }
    }

    /// Drop the first `k` parts.
    fn drop_front(&mut self, k: usize) {
        match self {
            Parts::Inline { len, parts } => {
                parts[..*len].rotate_left(k);
                for p in &mut parts[*len - k..*len] {
                    *p = Bytes::new();
                }
                *len -= k;
            }
            Parts::Heap(v) => {
                v.drain(..k);
            }
        }
    }
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// The empty payload with room for `parts` parts (up to two need no
    /// heap allocation at all).
    pub fn with_capacity(parts: usize) -> Self {
        if parts <= INLINE {
            Payload::new()
        } else {
            Payload { parts: Parts::Heap(Vec::with_capacity(parts)) }
        }
    }

    /// Build from explicit parts. Empty parts are dropped (they carry no
    /// bytes and would only slow part-walking receivers down).
    pub fn from_parts(parts: Vec<Bytes>) -> Self {
        let mut p = Payload::with_capacity(parts.len());
        for b in parts {
            p.push(b);
        }
        p
    }

    /// Append one part (no copy; empty parts are dropped).
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.parts.insert(self.num_parts(), part);
        }
    }

    /// Put one part in front of the others (no copy; an empty part is
    /// dropped). Framing layers prefix a header this way without building
    /// a new part list.
    pub fn prepend(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.parts.insert(0, part);
        }
    }

    /// Append every part of `other` (no copy).
    pub fn extend(&mut self, other: Payload) {
        match other.parts {
            Parts::Inline { len, parts } => parts.into_iter().take(len).for_each(|p| self.push(p)),
            Parts::Heap(v) => v.into_iter().for_each(|p| self.push(p)),
        }
    }

    /// Total logical length in bytes (sum over parts).
    pub fn len(&self) -> usize {
        self.parts().iter().map(Bytes::len).sum()
    }

    /// True when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.parts().is_empty()
    }

    /// The parts, in order. Never contains an empty part.
    pub fn parts(&self) -> &[Bytes] {
        self.parts.as_slice()
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts().len()
    }

    /// Drop the first `n` logical bytes by slicing parts in place — no
    /// byte is copied.
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        let (whole, rest) = self.locate(n);
        self.parts.drop_front(whole);
        if rest > 0 {
            let first = match &mut self.parts {
                Parts::Inline { parts, .. } => &mut parts[0],
                Parts::Heap(v) => &mut v[0],
            };
            *first = first.slice(rest..);
        }
    }

    /// Where logical byte `n` sits: the number of whole parts before it
    /// and its offset into the next part.
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    fn locate(&self, mut n: usize) -> (usize, usize) {
        for (i, part) in self.parts().iter().enumerate() {
            if n < part.len() {
                return (i, n);
            }
            n -= part.len();
        }
        assert!(n == 0, "advance past end of payload");
        (self.num_parts(), 0)
    }

    /// A contiguous view of the whole payload.
    ///
    /// Zero or one part: free (empty / refcount bump). More: a
    /// gather-copy, accounted under [`obsv::Ctr::BytesCopied`].
    pub fn to_bytes(&self) -> Bytes {
        match self.parts() {
            [] => Bytes::new(),
            [one] => one.clone(),
            parts => {
                let total = self.len();
                obsv::counter_add(obsv::Ctr::BytesCopied, total as u64);
                let mut buf = Vec::with_capacity(total);
                for part in parts {
                    buf.extend_from_slice(part);
                }
                Bytes::from(buf)
            }
        }
    }

    /// Consuming variant of [`Payload::to_bytes`].
    pub fn into_bytes(mut self) -> Bytes {
        match &mut self.parts {
            Parts::Inline { len: 0 | 1, parts } => std::mem::take(&mut parts[0]),
            _ => self.to_bytes(),
        }
    }

    /// Copy the first `dst.len()` logical bytes into `dst` without
    /// flattening. Used by fixed-size header peeks; the copy is bounded by
    /// the header size and not accounted as a payload copy.
    ///
    /// Returns false when the payload is shorter than `dst`.
    pub fn copy_prefix(&self, dst: &mut [u8]) -> bool {
        let mut filled = 0;
        for part in self.parts() {
            if filled == dst.len() {
                break;
            }
            let take = part.len().min(dst.len() - filled);
            dst[filled..filled + take].copy_from_slice(&part[..take]);
            filled += take;
        }
        filled == dst.len()
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        let mut p = Payload::new();
        p.push(b);
        p
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(v).into()
    }
}

impl From<BytesMut> for Payload {
    fn from(b: BytesMut) -> Self {
        b.freeze().into()
    }
}

impl From<&'static [u8]> for Payload {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s).into()
    }
}

impl From<Vec<Bytes>> for Payload {
    fn from(parts: Vec<Bytes>) -> Self {
        Payload::from_parts(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rope(parts: &[&'static [u8]]) -> Payload {
        Payload::from_parts(parts.iter().map(|p| Bytes::from_static(p)).collect())
    }

    #[test]
    fn single_part_to_bytes_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let p = Payload::from(b.clone());
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.to_bytes().as_ptr(), b.as_ptr(), "one part must not copy");
    }

    #[test]
    fn multi_part_flattens_to_concatenation() {
        let p = rope(&[b"ab", b"", b"cde", b"f"]);
        assert_eq!(p.num_parts(), 3, "empty parts dropped");
        assert_eq!(p.len(), 6);
        assert_eq!(&p.to_bytes()[..], b"abcdef");
        assert_eq!(&p.into_bytes()[..], b"abcdef");
    }

    /// `to_bytes` is the copy `BytesCopied` accounts: a multi-part
    /// flatten adds exactly its length, a single part adds nothing.
    #[test]
    fn to_bytes_counts_exactly_its_gather() {
        let copied = |p: &Payload| {
            let reg = obsv::Registry::new();
            {
                let _g = obsv::install(reg.recorder(0));
                p.to_bytes();
            }
            reg.report().counter(obsv::Ctr::BytesCopied)
        };
        let multi = rope(&[b"ab", b"cde", b"f"]);
        assert_eq!(copied(&multi), multi.len() as u64);
        assert_eq!(copied(&rope(&[b"abcdef"])), 0);
    }

    #[test]
    fn advance_slices_across_parts_without_copying() {
        let first = Bytes::from(vec![9u8; 8]);
        let second = Bytes::from(vec![7u8; 4]);
        let mut p = Payload::from_parts(vec![first, second.clone()]);
        p.advance(8);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.to_bytes().as_ptr(), second.as_ptr(), "tail part is shared, not copied");
        let mut q = rope(&[b"abcd", b"efgh"]);
        q.advance(6);
        assert_eq!(&q.to_bytes()[..], b"gh");
        q.advance(2);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        rope(&[b"ab"]).advance(3);
    }

    /// Up to two parts live inline; a third spills to the heap, and
    /// prepending and advancing keep the order either way.
    #[test]
    fn inline_and_spilled_parts_keep_their_order() {
        let mut p = rope(&[b"ef"]);
        p.prepend(Bytes::from_static(b"cd"));
        assert!(matches!(p.parts, Parts::Inline { len: 2, .. }));
        assert_eq!(&p.to_bytes()[..], b"cdef");
        p.prepend(Bytes::from_static(b"ab"));
        assert!(matches!(p.parts, Parts::Heap(_)));
        assert_eq!(&p.to_bytes()[..], b"abcdef");
        p.prepend(Bytes::from_static(b"__"));
        p.push(Bytes::from_static(b"gh"));
        assert!(matches!(p.parts, Parts::Heap(_)));
        assert_eq!(p.num_parts(), 5);
        assert_eq!(&p.to_bytes()[..], b"__abcdefgh");
        p.advance(5);
        assert_eq!(&p.to_bytes()[..], b"defgh");
        let mut q = rope(&[b"ab", b"cd"]);
        q.advance(3);
        assert_eq!(q.num_parts(), 1);
        assert_eq!(&q.to_bytes()[..], b"d");
        q.prepend(Bytes::new());
        assert_eq!(q.num_parts(), 1, "an empty part is dropped");
        let mut joined = rope(&[b"x"]);
        joined.extend(rope(&[b"y", b"z", b"w"]));
        assert_eq!(&joined.into_bytes()[..], b"xyzw");
    }

    #[test]
    fn copy_prefix_spans_parts() {
        let p = rope(&[b"ab", b"cd", b"ef"]);
        let mut hdr = [0u8; 5];
        assert!(p.copy_prefix(&mut hdr));
        assert_eq!(&hdr, b"abcde");
        let mut too_long = [0u8; 7];
        assert!(!p.copy_prefix(&mut too_long));
    }
}
