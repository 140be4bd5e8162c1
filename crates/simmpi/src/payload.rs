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

/// An ordered, refcounted, possibly multi-part message payload.
///
/// Equality and the wire format are defined on the *concatenated* byte
/// stream: two payloads with different part boundaries but the same
/// flattened content are interchangeable on the wire.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    parts: Vec<Bytes>,
}

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// The empty payload with room for `parts` parts.
    pub fn with_capacity(parts: usize) -> Self {
        Payload { parts: Vec::with_capacity(parts) }
    }

    /// Build from explicit parts. Empty parts are dropped (they carry no
    /// bytes and would only slow part-walking receivers down).
    pub fn from_parts(parts: Vec<Bytes>) -> Self {
        let mut p = Payload::new();
        for b in parts {
            p.push(b);
        }
        p
    }

    /// Append one part (no copy; empty parts are dropped).
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.parts.push(part);
        }
    }

    /// Append every part of `other` (no copy).
    pub fn extend(&mut self, other: Payload) {
        self.parts.extend(other.parts);
    }

    /// Total logical length in bytes (sum over parts).
    pub fn len(&self) -> usize {
        self.parts.iter().map(Bytes::len).sum()
    }

    /// True when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The parts, in order. Never contains an empty part.
    pub fn parts(&self) -> &[Bytes] {
        &self.parts
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Drop the first `n` logical bytes by slicing parts in place — no
    /// byte is copied.
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, mut n: usize) {
        let mut keep_from = 0;
        for (i, part) in self.parts.iter_mut().enumerate() {
            if n == 0 {
                keep_from = i;
                break;
            }
            if n >= part.len() {
                n -= part.len();
                keep_from = i + 1;
            } else {
                *part = part.slice(n..);
                n = 0;
                keep_from = i;
                break;
            }
        }
        assert!(n == 0, "advance past end of payload");
        self.parts.drain(..keep_from);
    }

    /// A contiguous view of the whole payload.
    ///
    /// Zero or one part: free (empty / refcount bump). More: a
    /// gather-copy, accounted under [`obsv::Ctr::BytesCopied`].
    pub fn to_bytes(&self) -> Bytes {
        match self.parts.len() {
            0 => Bytes::new(),
            1 => self.parts[0].clone(),
            _ => {
                let total = self.len();
                obsv::counter_add(obsv::Ctr::BytesCopied, total as u64);
                let mut buf = Vec::with_capacity(total);
                for part in &self.parts {
                    buf.extend_from_slice(part);
                }
                Bytes::from(buf)
            }
        }
    }

    /// Consuming variant of [`Payload::to_bytes`].
    pub fn into_bytes(mut self) -> Bytes {
        if self.parts.len() <= 1 {
            self.parts.pop().unwrap_or_default()
        } else {
            self.to_bytes()
        }
    }

    /// Copy the first `dst.len()` logical bytes into `dst` without
    /// flattening. Used by fixed-size header peeks; the copy is bounded by
    /// the header size and not accounted as a payload copy.
    ///
    /// Returns false when the payload is shorter than `dst`.
    pub fn copy_prefix(&self, dst: &mut [u8]) -> bool {
        let mut filled = 0;
        for part in &self.parts {
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
