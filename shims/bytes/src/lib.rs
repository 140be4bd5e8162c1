//! A minimal, offline stand-in for the `bytes` crate.
//!
//! Provides the subset of the real crate's API that this workspace uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, refcounted byte buffer),
//! [`BytesMut`] (a growable builder that freezes into `Bytes`), and the
//! [`BufMut`] write trait. Cloning a `Bytes` is an `Arc` refcount bump and
//! `slice` shares the same allocation, which is what makes shallow-copy
//! (zero-copy) message payloads meaningful inside one address space.

// These crates mirror upstream APIs verbatim, so API-shape lints
// (method names, arg conventions) do not apply to them.
#![allow(clippy::all)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A refcounted, immutable byte buffer. Clones and slices share storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Every empty buffer shares one allocation, made on
    /// first use, so creating one never allocates.
    pub fn new() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Bytes { data: Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))), start: 0, end: 0 }
    }

    /// Copy `src` into a fresh refcounted buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes { data: Arc::from(src), start: 0, end: src.len() }
    }

    /// Wrap a static slice (copied; the real crate borrows, but the
    /// distinction is unobservable through this API).
    pub fn from_static(src: &'static [u8]) -> Self {
        Self::copy_from_slice(src)
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing the same allocation (refcount bump, no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of range for {}", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    pub fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// True when no other `Bytes` (clone or slice) shares this buffer's
    /// allocation.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        // Straight from the `Vec`: going through `into_boxed_slice` would
        // first reallocate to shed spare capacity and then copy again.
        Bytes { data: Arc::from(v), start: 0, end: len }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        let len = b.len();
        Bytes { data: Arc::from(b), start: 0, end: len }
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// Growable byte buffer; freeze it into an immutable [`Bytes`].
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// Write-side trait mirroring the subset of `bytes::BufMut` the workspace
/// uses. Little- and big-endian integer puts plus raw slices.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(Arc::strong_count(&b.data), 2);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
    }

    #[test]
    fn bytesmut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(7);
        m.put_u64_le(9);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.len(), 14);
        assert_eq!(u32::from_le_bytes(b[..4].try_into().unwrap()), 7);
        assert_eq!(&b[12..], b"xy");
    }

    #[test]
    fn equality_and_debug() {
        let b = Bytes::from_static(b"ab");
        assert_eq!(b, Bytes::copy_from_slice(b"ab"));
        assert_eq!(b, &b"ab"[..]);
        assert_eq!(format!("{b:?}"), "b\"ab\"");
    }
}
