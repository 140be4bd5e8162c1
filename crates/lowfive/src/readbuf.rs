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
//! The allocation usually comes from the consumer's [`simmpi::BufPool`]:
//! last step's result, recycled once the application dropped it. Its
//! spare capacity then holds old bytes, but it is treated exactly as if it
//! were uninitialised — nothing is read from it, and `finish` still
//! zero-fills (and counts) every byte no segment wrote.

use minih5::{H5Error, H5Result};

use crate::protocol::PayloadReader;

/// A packed destination of `n` bytes under construction.
///
/// Invariant (everything `finish` relies on): `buf.len() == 0`,
/// `buf.capacity() >= n`, and every range in `written` lies inside
/// `0..n` and has been fully initialised in `buf`'s spare capacity.
/// Only [`ReadBuf::write`] adds to `written`, and only after the copy.
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

    /// Copy `src` to byte offset `start` of the destination.
    fn write(&mut self, start: usize, src: &[u8]) -> H5Result<()> {
        let end =
            start.checked_add(src.len()).filter(|&e| e <= self.n).ok_or_else(out_of_bounds)?;
        if src.is_empty() {
            return Ok(());
        }
        self.buf.spare_capacity_mut()[start..end].write_copy_of_slice(src);
        match self.written.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => self.written.push((start, end)),
        }
        Ok(())
    }

    /// Apply one data-reply body: copy each segment's bytes off the front
    /// of `pr` straight into its slot, leaving the cursor past the
    /// `blob_len`-byte blob (at the next batch entry). `segs` are
    /// `(element offset, element count)` pairs of `es`-byte elements.
    /// Everything the peer declared is checked, so a corrupt reply is a
    /// format error — never a panic, never a short or misplaced write
    /// that goes unnoticed.
    pub fn scatter(
        &mut self,
        pr: &mut PayloadReader,
        segs: &[(u64, u64)],
        blob_len: usize,
        es: usize,
    ) -> H5Result<()> {
        let to_bytes = |elems: u64| -> H5Result<usize> {
            usize::try_from(elems).ok().and_then(|e| e.checked_mul(es)).ok_or_else(out_of_bounds)
        };
        let mut consumed = 0usize;
        for &(off, len) in segs {
            let (mut at, nb) = (to_bytes(off)?, to_bytes(len)?);
            consumed =
                consumed.checked_add(nb).filter(|&c| c <= blob_len).ok_or_else(out_of_bounds)?;
            pr.read_chunks(nb, |chunk| {
                self.write(at, chunk)?;
                at += chunk.len();
                Ok(())
            })?;
        }
        pr.skip(blob_len - consumed)
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

fn out_of_bounds() -> H5Error {
    H5Error::Format("data reply segment out of bounds".into())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        rb.scatter(&mut pr, &[(2, 2), (0, 2)], 8, 2).unwrap();
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
        rb.scatter(&mut pr, &[(2, 3), (3, 2), (7, 1)], 6, 1).unwrap();
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
        rb.scatter(&mut reader(&[&[4, 5]]), &[(2, 2)], 2, 1).unwrap();
        let out = rb.finish();
        assert_eq!(out, [0, 0, 4, 5, 0, 0], "every unwritten byte is fill, not 0xEE");
        assert_eq!((out.as_ptr(), out.capacity()), (p, 16), "the allocation is reused");
        assert_eq!(reg.report().counter(obsv::Ctr::BytesZeroFilled), 4);
    }

    #[test]
    fn blob_bytes_past_the_segments_are_skipped() {
        let mut rb = ReadBuf::new(Vec::new(), 2);
        let mut pr = reader(&[&[7, 8, 0xEE, 0xEE], &[0x42]]);
        rb.scatter(&mut pr, &[(0, 2)], 4, 1).unwrap();
        assert_eq!(pr.remaining(), 1, "cursor sits at the next batch entry");
        assert_eq!(rb.finish(), [7, 8]);
    }

    #[test]
    fn corrupt_replies_are_format_errors() {
        let bad = |segs: &[(u64, u64)], blob: &[u8], blob_len: usize, es: usize| {
            let mut rb = ReadBuf::new(Vec::new(), 8);
            let err = rb.scatter(&mut reader(&[blob]), segs, blob_len, es);
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
}
