//! Little binary codec used by the native file format and by LowFive's
//! RPC messages.
//!
//! HDF5 has its own self-describing binary encodings for datatypes and
//! dataspaces; LowFive relies on HDF5's internal serialization routines for
//! those objects. This module plays that role here: a compact, versionless
//! little-endian encoding with length-prefixed strings and vectors, plus
//! `Encode`/`Decode` impls for the data-model types.

use bytes::Bytes;

use crate::error::{H5Error, H5Result};

/// Serializer over a growable byte buffer.
///
/// A writer made by [`Writer::new`] keeps [`Writer::HEADROOM`] free bytes
/// in front of what it writes, so a framing layer further down can put
/// its header there with [`Writer::prepend`] — an RPC request's method
/// and call id, a reply's ok discriminant — and the whole frame still
/// leaves in the one buffer it was encoded into.
#[derive(Clone)]
pub struct Writer {
    buf: Vec<u8>,
    /// Index of the first written byte; everything before it is free
    /// headroom.
    head: usize,
}

impl Default for Writer {
    /// A writer with no headroom and no buffer yet: creating one never
    /// allocates.
    fn default() -> Self {
        Writer { buf: Vec::new(), head: 0 }
    }
}

impl Writer {
    /// Free bytes a [`Writer::new`] keeps in front of its contents: room
    /// for the largest header any layer prepends (an RPC request's
    /// 4-byte method and 8-byte call id).
    pub const HEADROOM: usize = 16;

    /// An empty writer with headroom and with room for a typical control
    /// frame, so that encoding one takes a single allocation instead of
    /// walking the buffer up through 8, 16, 32, … bytes.
    pub fn new() -> Self {
        Writer::with_room(240)
    }

    /// An empty writer with headroom and room for `n` bytes.
    fn with_room(n: usize) -> Self {
        let mut buf = Vec::with_capacity(Self::HEADROOM + n);
        buf.resize(Self::HEADROOM, 0);
        Writer { buf, head: Self::HEADROOM }
    }

    /// Put `v` in front of everything written so far: into the headroom
    /// when it fits (no byte moves), else by shifting the contents.
    pub fn prepend(&mut self, v: &[u8]) {
        if v.len() <= self.head {
            self.head -= v.len();
            self.buf[self.head..self.head + v.len()].copy_from_slice(v);
        } else {
            self.buf.splice(self.head..self.head, v.iter().copied());
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub(crate) fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Append raw bytes with no length prefix (caller knows the framing).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn put<T: Encode>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Make room for at least `n` more bytes.
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }

    /// Bytes written (and prepended) so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze what was written into one refcounted buffer. The buffer is
    /// adopted, not copied; unused headroom stays outside the window.
    pub fn finish(self) -> Bytes {
        if self.is_empty() {
            return Bytes::new();
        }
        let head = self.head;
        Bytes::from(self.buf).slice(head..)
    }

    /// Freeze and hand out everything written so far, leaving the writer
    /// empty and reusable. Frame builders that interleave contiguous
    /// header runs with borrowed payload parts flush the pending header
    /// through this before lending the next part.
    pub fn take(&mut self) -> Bytes {
        std::mem::take(self).finish()
    }
}

impl From<&[u8]> for Writer {
    /// A writer holding a copy of `v`, with headroom in front.
    fn from(v: &[u8]) -> Self {
        let mut w = Writer::with_room(v.len());
        w.put_raw(v);
        w
    }
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer").field("len", &self.len()).field("headroom", &self.head).finish()
    }
}

/// Deserializer over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> H5Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(H5Error::Format(format!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> H5Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u64(&mut self) -> H5Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn get_bytes(&mut self) -> H5Result<&'a [u8]> {
        let n = self.get_u64()? as usize;
        self.take(n)
    }

    pub fn get_str(&mut self) -> H5Result<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// [`Reader::get_str`] borrowed from the input: for a caller that only
    /// looks the name up, no allocation.
    pub fn get_str_ref(&mut self) -> H5Result<&'a str> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| H5Error::Format("invalid UTF-8".into()))
    }

    pub(crate) fn get_u64s(&mut self) -> H5Result<Vec<u64>> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Read a `u64` element count and verify that `count * unit` bytes
    /// (the smallest possible encoding of that many elements) are
    /// actually present. Decoders must call this before sizing any
    /// allocation from a wire-declared count — a corrupt or hostile
    /// frame can otherwise declare petabytes and abort the process in
    /// `Vec::with_capacity` before the per-element reads ever fail.
    pub fn get_count(&mut self, unit: usize) -> H5Result<usize> {
        let n = self.get_u64()?;
        let need = n.checked_mul(unit.max(1) as u64);
        if need.is_none_or(|need| need > self.remaining() as u64) {
            return Err(H5Error::Format(format!(
                "declared count {n} (x{unit} bytes) exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    pub fn get<T: Decode>(&mut self) -> H5Result<T> {
        T::decode(self)
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Types that can write themselves to a [`Writer`].
pub trait Encode {
    fn encode(&self, w: &mut Writer);

    /// Encode into a standalone buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }
}

/// Types that can read themselves from a [`Reader`].
pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self>;

    /// Decode from a standalone buffer (trailing bytes are an error).
    fn from_bytes(buf: &[u8]) -> H5Result<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(H5Error::Format(format!("{} trailing bytes", r.remaining())));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD);
        w.put_u64(u64::MAX);
        w.put_str("héllo");
        w.put_u64s(&[1, 2, 3]);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.take(4).unwrap(), 0xDEADu32.to_le_bytes());
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    /// Prepended bytes land in the headroom, or — past it — still in
    /// front; either way the frame reads back in order.
    #[test]
    fn prepend_fills_headroom_then_shifts() {
        let mut w = Writer::new();
        w.put_u64(7);
        w.prepend(&[1, 2, 3, 4]);
        assert_eq!(w.len(), 12);
        w.prepend(&[9; Writer::HEADROOM]);
        assert_eq!(w.len(), 12 + Writer::HEADROOM);
        let b = w.finish();
        assert_eq!(&b[..Writer::HEADROOM], &[9; Writer::HEADROOM]);
        assert_eq!(&b[Writer::HEADROOM..Writer::HEADROOM + 4], &[1, 2, 3, 4]);
        assert_eq!(Reader::new(&b[Writer::HEADROOM + 4..]).get_u64().unwrap(), 7);
        let mut bare = Writer::default();
        bare.prepend(b"ab");
        bare.put_raw(b"cd");
        assert_eq!(&bare.finish()[..], b"abcd");
        assert!(Writer::new().finish().is_empty());
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.put_u64(5);
        let b = w.finish();
        let mut r = Reader::new(&b[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn get_bytes_respects_length_prefix() {
        let mut w = Writer::new();
        w.put_bytes(b"abc");
        w.put_u8(9);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_u8().unwrap(), 9);
    }
}
