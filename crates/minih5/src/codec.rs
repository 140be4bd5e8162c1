//! Little binary codec used by the native file format and by LowFive's
//! RPC messages.
//!
//! HDF5 has its own self-describing binary encodings for datatypes and
//! dataspaces; LowFive relies on HDF5's internal serialization routines for
//! those objects. This module plays that role here: a compact, versionless
//! little-endian encoding with length-prefixed strings and vectors, plus
//! `Encode`/`Decode` impls for the data-model types.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{H5Error, H5Result};

/// Serializer over a growable byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// An empty writer with room for a typical control frame, so that
    /// encoding one does not walk the buffer up through 8, 16, 32, … bytes.
    pub fn new() -> Self {
        Writer { buf: BytesMut::with_capacity(128) }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.put_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Append raw bytes with no length prefix (caller knows the framing).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    pub fn put<T: Encode>(&mut self, v: &T) {
        v.encode(self);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Freeze and hand out everything written so far, leaving the writer
    /// empty and reusable. Frame builders that interleave contiguous
    /// header runs with borrowed payload parts flush the pending header
    /// through this before lending the next part.
    pub fn take(&mut self) -> Bytes {
        std::mem::take(&mut self.buf).freeze()
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

    pub fn get_u32(&mut self) -> H5Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn get_u64(&mut self) -> H5Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn get_f64(&mut self) -> H5Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn get_bytes(&mut self) -> H5Result<&'a [u8]> {
        let n = self.get_u64()? as usize;
        self.take(n)
    }

    pub fn get_str(&mut self) -> H5Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| H5Error::Format("invalid UTF-8".into()))
    }

    pub fn get_u64s(&mut self) -> H5Result<Vec<u64>> {
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
        w.put_f64(-1.5);
        w.put_str("héllo");
        w.put_u64s(&[1, 2, 3]);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
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
