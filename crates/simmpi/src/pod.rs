//! Plain-old-data slice casting for zero-copy message payloads.
//!
//! MPI programs move typed buffers as raw bytes; this module provides the
//! minimal, safe-to-use equivalent: a sealed [`Pod`] trait for primitive
//! numeric types whose byte representation is fully defined, plus
//! `bytes_of`/`from_bytes` helpers. Casting a `&[u64]` to `&[u8]` is free;
//! the reverse direction copies only when the source is misaligned.

use bytes::Bytes;

mod sealed {
    pub trait Sealed {}
}

/// Marker for primitive types that can be viewed as raw bytes.
///
/// # Safety contract (upheld by the sealed impls)
/// Implementors have no padding, no invalid bit patterns, and a stable
/// in-memory layout, so any byte sequence of the right length is a valid
/// value and any value can be exposed as bytes.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Size of one element in bytes (same as `size_of::<Self>()`).
    const SIZE: usize;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Pod for $t { const SIZE: usize = std::mem::size_of::<$t>(); }
    )*};
}

impl_pod!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64, usize, isize);

/// View a typed slice as its underlying bytes (zero-copy).
pub(crate) fn bytes_of<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding, no invalid representations), and the
    // resulting slice covers exactly the same memory region.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// Copy a typed slice into an owned `Bytes` payload.
pub fn to_bytes<T: Pod>(slice: &[T]) -> Bytes {
    Bytes::copy_from_slice(bytes_of(slice))
}

/// Reinterpret a byte slice as a typed slice.
///
/// Copies into a fresh `Vec` because `Bytes` payloads do not guarantee
/// alignment for `T`.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `T::SIZE`.
pub fn from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    assert!(
        bytes.len().is_multiple_of(T::SIZE),
        "byte length {} is not a multiple of element size {}",
        bytes.len(),
        T::SIZE
    );
    let n = bytes.len() / T::SIZE;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: we copy exactly n*SIZE bytes into the Vec's allocation and
    // then set the length; T is Pod so any bit pattern is valid.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        let v = vec![1u64, 2, 3, u64::MAX];
        let b = to_bytes(&v);
        assert_eq!(b.len(), 32);
        assert_eq!(from_bytes::<u64>(&b), v);
    }

    #[test]
    fn roundtrip_f32() {
        let v = vec![1.5f32, -0.25, f32::INFINITY];
        assert_eq!(from_bytes::<f32>(&to_bytes(&v)), v);
    }

    #[test]
    fn bytes_of_is_zero_copy_view() {
        let v = [0x0102030405060708u64];
        let b = bytes_of(&v);
        assert_eq!(b.len(), 8);
        // little-endian on all supported targets
        assert_eq!(b[0], 0x08);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_bytes_rejects_ragged_length() {
        let _ = from_bytes::<u32>(&[1, 2, 3]);
    }

    #[test]
    fn empty_slices() {
        let v: Vec<u32> = vec![];
        assert!(to_bytes(&v).is_empty());
        assert!(from_bytes::<u32>(&[]).is_empty());
    }
}
