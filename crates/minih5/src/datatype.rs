//! Datatypes: the HDF5 type system subset the paper's workloads use,
//! plus compounds and fixed-size arrays/strings for generality.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::{H5Error, H5Result};

/// An element datatype.
///
/// The synthetic benchmarks in the paper use `UInt64` scalars (the grid)
/// and a compound of three `Float32`s (the particles); the cosmology use
/// case adds `Float64` fields. Compounds and arrays cover NetCDF-style
/// records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    Int8,
    Int16,
    Int32,
    Int64,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
    Float32,
    Float64,
    /// Fixed-length byte string (HDF5 `H5T_STRING` with fixed storage).
    FixedString(usize),
    /// Record type with named, ordered fields stored contiguously.
    Compound(Vec<CompoundField>),
    /// Fixed-size inner array, e.g. a 3-vector per element.
    Array(Box<Datatype>, Vec<u64>),
}

/// One field of a [`Datatype::Compound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompoundField {
    pub name: String,
    pub dtype: Datatype,
}

impl Datatype {
    /// A compound of `n` same-typed coordinates, e.g. a 3-d particle:
    /// `Datatype::vector(Datatype::Float32, 3)` — 12 bytes per particle,
    /// all coordinates colocated (the Bredala comparison in the paper
    /// hinges on this colocation surviving redistribution).
    pub fn vector(elem: Datatype, n: u64) -> Datatype {
        Datatype::Array(Box::new(elem), vec![n])
    }

    /// Element size in bytes. Compounds are packed (no padding).
    pub fn size(&self) -> usize {
        match self {
            Datatype::Int8 | Datatype::UInt8 => 1,
            Datatype::Int16 | Datatype::UInt16 => 2,
            Datatype::Int32 | Datatype::UInt32 | Datatype::Float32 => 4,
            Datatype::Int64 | Datatype::UInt64 | Datatype::Float64 => 8,
            Datatype::FixedString(n) => *n,
            Datatype::Compound(fields) => fields.iter().map(|f| f.dtype.size()).sum(),
            Datatype::Array(inner, dims) => inner.size() * dims.iter().product::<u64>() as usize,
        }
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Rust element types with a fixed [`Datatype`] mapping, used by the typed
/// read/write convenience methods on [`crate::Dataset`].
///
/// # Safety contract (upheld by the sealed impls)
/// Implementors are plain-old-data: no padding, no invalid bit patterns.
pub trait H5Type: sealed::Sealed + Copy + Send + Sync + 'static {
    /// The data-model type corresponding to `Self`.
    const DTYPE: Datatype;
}

macro_rules! impl_h5type {
    ($($t:ty => $d:expr),*) => {$(
        impl sealed::Sealed for $t {}
        impl H5Type for $t { const DTYPE: Datatype = $d; }
    )*};
}

impl_h5type!(
    i8 => Datatype::Int8, i16 => Datatype::Int16, i32 => Datatype::Int32, i64 => Datatype::Int64,
    u8 => Datatype::UInt8, u16 => Datatype::UInt16, u32 => Datatype::UInt32, u64 => Datatype::UInt64,
    f32 => Datatype::Float32, f64 => Datatype::Float64
);

/// View a typed slice as raw bytes (zero-copy).
pub fn elems_as_bytes<T: H5Type>(slice: &[T]) -> &[u8] {
    // SAFETY: T is H5Type (sealed POD), the slice view covers the same
    // memory exactly.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// Copy raw bytes into a typed vector.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of the element size.
pub(crate) fn elems_from_bytes<T: H5Type>(bytes: &[u8]) -> Vec<T> {
    let es = std::mem::size_of::<T>();
    assert!(
        bytes.len().is_multiple_of(es),
        "byte length {} not a multiple of element size {es}",
        bytes.len()
    );
    let n = bytes.len() / es;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: T is POD; we copy exactly n elements' worth of bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

const T_I8: u8 = 0;
const T_I16: u8 = 1;
const T_I32: u8 = 2;
const T_I64: u8 = 3;
const T_U8: u8 = 4;
const T_U16: u8 = 5;
const T_U32: u8 = 6;
const T_U64: u8 = 7;
const T_F32: u8 = 8;
const T_F64: u8 = 9;
const T_STR: u8 = 10;
const T_COMPOUND: u8 = 11;
const T_ARRAY: u8 = 12;

impl Encode for Datatype {
    fn encode(&self, w: &mut Writer) {
        match self {
            Datatype::Int8 => w.put_u8(T_I8),
            Datatype::Int16 => w.put_u8(T_I16),
            Datatype::Int32 => w.put_u8(T_I32),
            Datatype::Int64 => w.put_u8(T_I64),
            Datatype::UInt8 => w.put_u8(T_U8),
            Datatype::UInt16 => w.put_u8(T_U16),
            Datatype::UInt32 => w.put_u8(T_U32),
            Datatype::UInt64 => w.put_u8(T_U64),
            Datatype::Float32 => w.put_u8(T_F32),
            Datatype::Float64 => w.put_u8(T_F64),
            Datatype::FixedString(n) => {
                w.put_u8(T_STR);
                w.put_u64(*n as u64);
            }
            Datatype::Compound(fields) => {
                w.put_u8(T_COMPOUND);
                w.put_u64(fields.len() as u64);
                for f in fields {
                    w.put_str(&f.name);
                    f.dtype.encode(w);
                }
            }
            Datatype::Array(inner, dims) => {
                w.put_u8(T_ARRAY);
                inner.encode(w);
                w.put_u64s(dims);
            }
        }
    }
}

impl Decode for Datatype {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self> {
        Ok(match r.get_u8()? {
            T_I8 => Datatype::Int8,
            T_I16 => Datatype::Int16,
            T_I32 => Datatype::Int32,
            T_I64 => Datatype::Int64,
            T_U8 => Datatype::UInt8,
            T_U16 => Datatype::UInt16,
            T_U32 => Datatype::UInt32,
            T_U64 => Datatype::UInt64,
            T_F32 => Datatype::Float32,
            T_F64 => Datatype::Float64,
            T_STR => Datatype::FixedString(r.get_u64()? as usize),
            T_COMPOUND => {
                let n = r.get_count(9)?; // name length prefix + dtype tag
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.get_str()?;
                    let dtype = Datatype::decode(r)?;
                    fields.push(CompoundField { name, dtype });
                }
                Datatype::Compound(fields)
            }
            T_ARRAY => {
                let inner = Datatype::decode(r)?;
                let dims = r.get_u64s()?;
                Datatype::Array(Box::new(inner), dims)
            }
            t => return Err(H5Error::Format(format!("unknown datatype tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(Datatype::UInt64.size(), 8);
        assert_eq!(Datatype::Float32.size(), 4);
        assert_eq!(Datatype::Int8.size(), 1);
        assert_eq!(Datatype::FixedString(17).size(), 17);
    }

    #[test]
    fn particle_type_is_12_bytes() {
        // The paper's particle: a 3-d vector of 32-bit floats.
        let p = Datatype::vector(Datatype::Float32, 3);
        assert_eq!(p.size(), 12);
    }

    #[test]
    fn compound_layout() {
        let c = Datatype::Compound(vec![
            CompoundField { name: "id".into(), dtype: Datatype::UInt64 },
            CompoundField { name: "pos".into(), dtype: Datatype::vector(Datatype::Float32, 3) },
            CompoundField { name: "mass".into(), dtype: Datatype::Float64 },
        ]);
        assert_eq!(c.size(), 8 + 12 + 8);
    }

    #[test]
    fn codec_roundtrip_all_variants() {
        let types = vec![
            Datatype::Int8,
            Datatype::UInt32,
            Datatype::Float64,
            Datatype::FixedString(9),
            Datatype::vector(Datatype::Float32, 3),
            Datatype::Compound(vec![
                CompoundField { name: "a".into(), dtype: Datatype::Int16 },
                CompoundField {
                    name: "nested".into(),
                    dtype: Datatype::Compound(vec![CompoundField {
                        name: "b".into(),
                        dtype: Datatype::Float32,
                    }]),
                },
            ]),
        ];
        for t in types {
            let b = t.to_bytes();
            assert_eq!(Datatype::from_bytes(&b).unwrap(), t);
        }
    }
}
