//! Wire framing for the socket backend.
//!
//! Every message travels as one length-prefixed frame:
//!
//! ```text
//! [len: u64][tag: u64][src: u32][seq: u32][sent_ns: u64]  then `len` payload bytes
//! ```
//!
//! all little-endian (see docs/PROTOCOL.md §"simmpi socket frames"):
//!
//! * `len` — payload byte count (multi-part [`crate::Payload`]s are
//!   written part by part, so they arrive as `len` contiguous bytes:
//!   the wire form *is* the flattened form),
//! * `tag` — the full 64-bit wire tag (`ctx << 32 | user tag`),
//! * `src` — sending world rank,
//! * `seq` — low 31 bits: per-`(src, dest)` frame counter (consecutive,
//!   checked by the receiver); top bit ([`FRONT_FLAG`]): deliver ahead
//!   of everything queued (the fault injector's reorder),
//! * `sent_ns` — sender's `obsv` clock stamp (0 when unobserved; only
//!   meaningful while both endpoints share a clock — zeroed once worlds
//!   span processes).

/// Byte length of the fixed frame header.
pub(crate) const HDR_LEN: usize = 32;

/// Top bit of `seq`: deliver this frame at the *front* of the
/// destination mailbox (fault-injected reorder).
pub(crate) const FRONT_FLAG: u32 = 0x8000_0000;

/// Mask selecting the sequence counter bits of `seq`.
pub(crate) const SEQ_MASK: u32 = FRONT_FLAG - 1;

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub len: u64,
    pub wire_tag: u64,
    pub src: u32,
    /// `FRONT_FLAG | counter` — use [`FrameHeader::seq_counter`] /
    /// [`FrameHeader::is_front`] to pick it apart.
    pub seq: u32,
    pub sent_ns: u64,
}

impl FrameHeader {
    pub fn encode(&self) -> [u8; HDR_LEN] {
        let mut b = [0u8; HDR_LEN];
        b[0..8].copy_from_slice(&self.len.to_le_bytes());
        b[8..16].copy_from_slice(&self.wire_tag.to_le_bytes());
        b[16..20].copy_from_slice(&self.src.to_le_bytes());
        b[20..24].copy_from_slice(&self.seq.to_le_bytes());
        b[24..32].copy_from_slice(&self.sent_ns.to_le_bytes());
        b
    }

    pub fn decode(b: &[u8; HDR_LEN]) -> FrameHeader {
        FrameHeader {
            len: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            wire_tag: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            src: u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")),
            seq: u32::from_le_bytes(b[20..24].try_into().expect("4 bytes")),
            sent_ns: u64::from_le_bytes(b[24..32].try_into().expect("8 bytes")),
        }
    }

    /// The 31-bit per-`(src, dest)` frame counter.
    pub(crate) fn seq_counter(&self) -> u32 {
        self.seq & SEQ_MASK
    }

    /// Was the frame sent with front-of-queue (reorder) delivery?
    pub(crate) fn is_front(&self) -> bool {
        self.seq & FRONT_FLAG != 0
    }
}

/// The counter that follows `seq` in the 31-bit sequence space.
pub(crate) fn next_seq(seq: u32) -> u32 {
    (seq + 1) & SEQ_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let h = FrameHeader {
            len: 0x0102_0304_0506_0708,
            wire_tag: (7u64 << 32) | 0xBEEF,
            src: 42,
            seq: FRONT_FLAG | 9,
            sent_ns: 123_456_789,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), HDR_LEN);
        let dec = FrameHeader::decode(&enc);
        assert_eq!(dec, h);
        assert!(dec.is_front());
        assert_eq!(dec.seq_counter(), 9);
    }

    #[test]
    fn plain_seq_has_no_front_flag() {
        let h = FrameHeader { len: 0, wire_tag: 0, src: 0, seq: 5, sent_ns: 0 };
        assert!(!h.is_front());
        assert_eq!(h.seq_counter(), 5);
    }

    #[test]
    fn seq_wraps_in_31_bits() {
        assert_eq!(next_seq(0), 1);
        assert_eq!(next_seq(SEQ_MASK), 0);
    }
}
