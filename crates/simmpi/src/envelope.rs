//! Message envelopes and matching selectors.
//!
//! Every in-flight message is an [`Envelope`]: source rank, tag, and
//! payload. Receives match on `(source, tag)` with MPI-style wildcards
//! ([`ANY_SOURCE`], [`ANY_TAG`]).
//!
//! Tags are namespaced by a *context id* so that messages sent on different
//! communicators derived from the same world can never be confused — the
//! same role MPI's hidden per-communicator context plays. User code only
//! sees the 32-bit user tag.

use bytes::Bytes;

use crate::payload::Payload;

/// Full 64-bit wire tag: `(context id << 32) | user tag`.
pub type WireTag = u64;

/// User-visible message tag (low 32 bits of the wire tag).
pub type Tag = u32;

/// Wildcard source selector, analogous to `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: SrcSel = SrcSel::Any;

/// Wildcard tag selector, analogous to `MPI_ANY_TAG`.
pub const ANY_TAG: TagSel = TagSel::Any;

/// Selects which source ranks a receive matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match a message from exactly this rank (communicator-local).
    Rank(usize),
    /// Match a message from any rank.
    Any,
}

impl From<usize> for SrcSel {
    fn from(r: usize) -> Self {
        SrcSel::Rank(r)
    }
}

impl SrcSel {
    pub(crate) fn matches(self, src: usize) -> bool {
        match self {
            SrcSel::Rank(r) => r == src,
            SrcSel::Any => true,
        }
    }
}

/// Selects which tags a receive matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match exactly this tag.
    Tag(Tag),
    /// Match any tag.
    Any,
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

impl TagSel {
    /// `Any` deliberately does not match reserved collective tags (top bit
    /// set): a user wildcard receive must never steal a barrier/bcast
    /// message in flight on the same communicator.
    pub(crate) fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Tag(t) => t == tag,
            TagSel::Any => tag < 0x8000_0000,
        }
    }
}

/// A delivered message: who sent it, under which tag, and its payload.
///
/// `payload` is contiguous: multi-part messages (see
/// [`Payload`]) are flattened on this path — free for single-part
/// messages, an accounted gather-copy otherwise. Parts-aware receivers
/// use [`PartsEnvelope`] via `Comm::recv_parts` and friends instead.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank, in the coordinates of the communicator the receive was
    /// posted on.
    pub src: usize,
    /// User tag the message was sent with.
    pub tag: Tag,
    /// Message body. Cloning is a refcount bump.
    pub payload: Bytes,
}

/// A delivered message with the sender's part structure preserved: the
/// parts the sender lent arrive as the very same refcounted allocations.
#[derive(Debug, Clone)]
pub struct PartsEnvelope {
    /// Sending rank, in the coordinates of the communicator the receive was
    /// posted on.
    pub src: usize,
    /// User tag the message was sent with.
    pub tag: Tag,
    /// Message body as the sender's parts — for a frame a posted
    /// [`crate::RecvSink`] took, only its 8-byte key.
    pub payload: Payload,
    /// Body bytes after the key that a posted sink took in place of
    /// `payload` (0 for every other message): `payload.len() + placed` is
    /// the length the sender sent.
    pub placed: usize,
}

/// Internal representation stored in mailboxes: sources are world ranks and
/// tags carry the communicator context. Payloads keep the sender's part
/// structure end to end; nothing on the delivery path flattens them.
#[derive(Debug)]
pub(crate) struct WireEnvelope {
    pub world_src: usize,
    pub wire_tag: WireTag,
    pub payload: Payload,
    /// `obsv` clock stamp taken at send time, or 0 when the sending
    /// thread had no recorder — lets the receive side attribute
    /// send-to-delivery latency without a second clock.
    pub sent_ns: u64,
    /// See [`PartsEnvelope::placed`].
    pub placed: usize,
}

pub(crate) fn make_wire_tag(ctx: u32, tag: Tag) -> WireTag {
    (u64::from(ctx) << 32) | u64::from(tag)
}

pub(crate) fn split_wire_tag(wire: WireTag) -> (u32, Tag) {
    ((wire >> 32) as u32, (wire & 0xFFFF_FFFF) as Tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tag_roundtrip() {
        let w = make_wire_tag(3, 0xDEAD_BEEF);
        assert_eq!(split_wire_tag(w), (3, 0xDEAD_BEEF));
    }

    #[test]
    fn selectors_match() {
        assert!(SrcSel::Any.matches(5));
        assert!(SrcSel::Rank(5).matches(5));
        assert!(!SrcSel::Rank(4).matches(5));
        assert!(TagSel::Any.matches(9));
        assert!(TagSel::Tag(9).matches(9));
        assert!(!TagSel::Tag(8).matches(9));
    }

    #[test]
    fn selector_conversions() {
        assert_eq!(SrcSel::from(2), SrcSel::Rank(2));
        assert_eq!(TagSel::from(7), TagSel::Tag(7));
    }
}
