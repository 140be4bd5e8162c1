//! A minimal, offline stand-in for the `bytes` crate.
//!
//! Provides the subset of the real crate's API that this workspace uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, refcounted byte buffer),
//! [`BytesMut`] (a growable builder that freezes into `Bytes`), and the
//! [`BufMut`] write trait. Cloning a `Bytes` is an `Arc` refcount bump and
//! `slice` shares the same allocation, which is what makes shallow-copy
//! (zero-copy) message payloads meaningful inside one address space.
//!
//! Like upstream, a `Bytes` *owns what it is given*: `From<Vec<u8>>`,
//! `From<Box<[u8]>>` and [`BytesMut::freeze`] adopt the allocation they
//! are handed (no byte moves), and [`Bytes::from_static`] borrows. Only
//! [`Bytes::copy_from_slice`] copies.

// These crates mirror upstream APIs verbatim, so API-shape lints
// (method names, arg conventions) do not apply to them.
#![allow(clippy::all)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// What a [`Bytes`] window points into.
#[derive(Clone)]
enum Storage {
    /// A borrowed `'static` slice: nothing to count, nothing to free.
    Static(&'static [u8]),
    /// An adopted heap allocation, shared by refcount. The `Vec` is never
    /// touched while shared, so its spare capacity (if any) rides along
    /// until the last handle drops it or takes it back
    /// ([`Bytes::try_into_mut`]).
    Shared(Arc<Vec<u8>>),
}

/// A refcounted, immutable byte buffer. Clones and slices share storage.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Empty buffers own nothing, so creating one never
    /// allocates.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Copy `src` into a fresh refcounted buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Wrap a static slice: borrowed, never copied or allocated.
    pub const fn from_static(src: &'static [u8]) -> Self {
        Bytes { data: Storage::Static(src), start: 0, end: src.len() }
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
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    pub fn as_ref(&self) -> &[u8] {
        match &self.data {
            Storage::Static(s) => &s[self.start..self.end],
            Storage::Shared(v) => &v[self.start..self.end],
        }
    }

    /// True when no other `Bytes` (clone or slice) shares this buffer's
    /// allocation. A static buffer owns no allocation and is never unique
    /// (as upstream).
    pub fn is_unique(&self) -> bool {
        match &self.data {
            Storage::Static(_) => false,
            Storage::Shared(v) => Arc::strong_count(v) == 1,
        }
    }

    /// Take the allocation back as a [`BytesMut`] holding this window's
    /// bytes, if no other handle shares it ([`Bytes::is_unique`]);
    /// otherwise give `self` back unchanged (as upstream).
    ///
    /// The allocation is adopted, never copied, and its whole capacity
    /// survives. A window that is not the whole allocation first has its
    /// bytes moved to the front (one `memmove`, as upstream's conversion to
    /// `Vec` does) and the rest truncated, so the result starts at the
    /// allocation's first byte.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let (start, end) = (self.start, self.end);
        match self.data {
            Storage::Shared(v) => match Arc::try_unwrap(v) {
                Ok(mut buf) => {
                    buf.truncate(end);
                    buf.drain(..start);
                    Ok(BytesMut { buf })
                }
                Err(v) => Err(Bytes { data: Storage::Shared(v), start, end }),
            },
            data => Err(Bytes { data, start, end }),
        }
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
    /// Adopt `v`'s allocation: no byte is copied, `as_ptr()` is preserved.
    /// (`Arc::<[u8]>::from(v)` would allocate a second buffer and memcpy
    /// into it; `into_boxed_slice` would reallocate to shed capacity.)
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            // Nothing to own: every empty buffer is the static one.
            return Bytes::new();
        }
        let len = v.len();
        Bytes { data: Storage::Shared(Arc::new(v)), start: 0, end: len }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    /// Adopt the box's allocation (`Box<[u8]>` → `Vec<u8>` is free).
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
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

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<BytesMut> for Vec<u8> {
    /// The buffer itself, capacity and all: no byte moves.
    fn from(b: BytesMut) -> Self {
        b.buf
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
        assert_eq!(s.as_ptr(), b[1..].as_ptr(), "a slice is a window, not a copy");
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(s2.as_ptr(), b[2..].as_ptr());
    }

    #[test]
    fn from_vec_box_and_freeze_adopt_the_allocation() {
        // Spare capacity must not force a shrink-and-copy either.
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(&[7u8; 10]);
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p, "From<Vec<u8>> must not copy");
        assert_eq!(b.len(), 10);

        let boxed: Box<[u8]> = vec![1u8, 2, 3].into_boxed_slice();
        let p = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), p, "From<Box<[u8]>> must not copy");

        let mut m = BytesMut::with_capacity(32);
        m.put_slice(b"abc");
        let p = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), p, "freeze must not copy");
        assert_eq!(frozen.clone().as_ptr(), p, "clone shares");
        assert_eq!(Bytes::from(String::from("xyz")), &b"xyz"[..]);
    }

    #[test]
    fn is_unique_tracks_clones_and_slices() {
        let b = Bytes::from(vec![0u8; 8]);
        assert!(b.is_unique());
        let c = b.clone();
        assert!(!b.is_unique() && !c.is_unique());
        drop(c);
        assert!(b.is_unique());
        let s = b.slice(2..4);
        assert!(!b.is_unique(), "a slice pins the allocation like a clone");
        drop(b);
        assert!(s.is_unique(), "the last window owns the buffer alone");
    }

    #[test]
    fn try_into_mut_round_trips_the_allocation_with_its_capacity() {
        let mut v = Vec::with_capacity(100);
        v.extend_from_slice(&[3u8; 40]);
        let p = v.as_ptr();
        let b = Bytes::from(v);
        let m = b.try_into_mut().expect("the only handle");
        assert_eq!((m.as_ptr(), m.len(), m.capacity()), (p, 40, 100));
        let back = Vec::from(m);
        assert_eq!((back.as_ptr(), back.len(), back.capacity()), (p, 40, 100));
        assert_eq!(back, [3u8; 40]);
    }

    #[test]
    fn try_into_mut_fails_while_another_handle_lives() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        let b = b.try_into_mut().expect_err("a clone shares the allocation");
        assert_eq!(b, c, "the refused handle comes back unchanged");
        let s = c.slice(1..3);
        drop(c);
        let b = b.try_into_mut().expect_err("a slice pins it too");
        drop(s);
        assert_eq!(&b.try_into_mut().expect("unique again")[..], &[1, 2, 3, 4]);
        assert!(Bytes::from_static(b"ab").try_into_mut().is_err(), "static owns nothing");
        assert!(Bytes::new().try_into_mut().is_err());
    }

    #[test]
    fn try_into_mut_of_a_window_keeps_its_bytes_at_the_front() {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let p = v.as_ptr();
        let window = Bytes::from(v).slice(2..5);
        let m = window.try_into_mut().expect("the window is the last handle");
        assert_eq!(&m[..], &[2, 3, 4]);
        assert_eq!((m.as_ptr(), m.capacity()), (p, 16), "same allocation, whole capacity");
    }

    #[test]
    fn copy_from_slice_does_not_alias_its_source() {
        let src = vec![5u8; 16];
        let b = Bytes::copy_from_slice(&src);
        assert_ne!(b.as_ptr(), src.as_ptr());
        assert_eq!(b, src);
        assert!(b.is_unique());
    }

    #[test]
    fn from_static_borrows() {
        static S: [u8; 4] = [1, 2, 3, 4];
        let b = Bytes::from_static(&S);
        assert_eq!(b.as_ptr(), S.as_ptr(), "from_static must borrow");
        assert_eq!(b.slice(1..3).as_ptr(), S[1..].as_ptr());
        assert_eq!(Bytes::from(&S[..]).as_ptr(), S.as_ptr());
        assert!(!b.is_unique(), "a static buffer owns no allocation");
    }

    #[test]
    fn empty_buffers_share_one_static_and_never_allocate() {
        let a = Bytes::new();
        let from_vec = Bytes::from(Vec::with_capacity(128));
        let frozen = BytesMut::new().freeze();
        let copied = Bytes::copy_from_slice(&[]);
        for e in [&from_vec, &frozen, &copied, &Bytes::default()] {
            assert!(e.is_empty());
            assert_eq!(e.as_ptr(), a.as_ptr(), "every empty buffer is the same static one");
            assert!(!e.is_unique());
        }
        // An empty window of a live buffer is still empty (and still pins it).
        let b = Bytes::from(vec![1u8, 2]);
        let window = b.slice(1..1);
        assert!(window.is_empty());
        assert!(!b.is_unique());
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
