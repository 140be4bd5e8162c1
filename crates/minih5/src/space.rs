//! Dataspaces: n-dimensional extents, row-major linearization helpers.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::{H5Error, H5Result};

/// Maximum-dimension value meaning "no limit" (HDF5 `H5S_UNLIMITED`).
pub const UNLIMITED: u64 = u64::MAX;

/// The extent of a dataset: a list of dimension sizes (row-major, slowest
/// dimension first, matching HDF5 convention). A rank-0 space is a scalar
/// holding exactly one element. A space created with
/// [`Dataspace::extensible`] can later grow toward its maximum dimensions
/// via `Dataset::extend`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataspace {
    dims: Vec<u64>,
    /// Per-dimension maxima; `None` = fixed shape.
    maxdims: Option<Vec<u64>>,
}

impl Dataspace {
    /// A simple n-dimensional space.
    pub fn simple(dims: &[u64]) -> Self {
        Dataspace { dims: dims.to_vec(), maxdims: None }
    }

    /// An extensible space: `maxdims[i]` bounds dimension `i`
    /// ([`UNLIMITED`] = unbounded). Every `maxdims[i] ≥ dims[i]`.
    pub fn extensible(dims: &[u64], maxdims: &[u64]) -> Self {
        assert_eq!(dims.len(), maxdims.len(), "rank mismatch");
        assert!(dims.iter().zip(maxdims).all(|(d, m)| d <= m), "maxdims must dominate dims");
        Dataspace { dims: dims.to_vec(), maxdims: Some(maxdims.to_vec()) }
    }

    /// A scalar space (one element, rank 0).
    pub fn scalar() -> Self {
        Dataspace { dims: Vec::new(), maxdims: None }
    }

    /// Per-dimension maxima, if the space is extensible.
    pub fn maxdims(&self) -> Option<&[u64]> {
        self.maxdims.as_deref()
    }

    /// Validate a proposed new shape: monotone growth within maxdims;
    /// only the first (slowest-varying) dimension may grow, matching the
    /// HDF5 time-series append pattern and keeping the row-major offsets
    /// of previously written elements stable.
    pub(crate) fn can_extend_to(&self, new_dims: &[u64]) -> crate::error::H5Result<()> {
        use crate::error::H5Error;
        let max = self
            .maxdims
            .as_ref()
            .ok_or_else(|| H5Error::ShapeMismatch("dataset is not extensible".into()))?;
        if new_dims.len() != self.dims.len() {
            return Err(H5Error::ShapeMismatch("extend changes rank".into()));
        }
        for (i, (&nd, (&d, &m))) in new_dims.iter().zip(self.dims.iter().zip(max)).enumerate() {
            if nd < d {
                return Err(H5Error::ShapeMismatch(format!("dim {i} shrinks ({d} → {nd})")));
            }
            if nd > m {
                return Err(H5Error::ShapeMismatch(format!("dim {i} exceeds max {m}")));
            }
            if i > 0 && nd != d {
                return Err(H5Error::ShapeMismatch("only the first dimension may grow".into()));
            }
        }
        Ok(())
    }

    /// Grow the extent (validated by [`Dataspace::can_extend_to`]).
    pub(crate) fn extend_to(&mut self, new_dims: &[u64]) -> crate::error::H5Result<()> {
        self.can_extend_to(new_dims)?;
        self.dims = new_dims.to_vec();
        Ok(())
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn npoints(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Row-major strides in *elements*: `strides[i]` is the linear distance
    /// between consecutive indices in dimension `i`.
    pub fn strides(&self) -> Vec<u64> {
        let mut s = vec![1u64; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.dims[i + 1];
        }
        s
    }

    /// Linear element offset of a coordinate.
    ///
    /// # Panics
    /// Panics (debug) if `coord` has the wrong rank.
    pub(crate) fn linearize(&self, coord: &[u64]) -> u64 {
        debug_assert_eq!(coord.len(), self.dims.len());
        coord.iter().zip(&self.dims).fold(0, |acc, (c, d)| acc * d + c)
    }

    /// Inverse of `Dataspace::linearize`.
    pub fn delinearize(&self, mut linear: u64) -> Vec<u64> {
        let strides = self.strides();
        let mut coord = vec![0u64; self.dims.len()];
        for (i, s) in strides.iter().enumerate() {
            coord[i] = linear / s;
            linear %= s;
        }
        coord
    }
}

impl From<&[u64]> for Dataspace {
    fn from(dims: &[u64]) -> Self {
        Dataspace::simple(dims)
    }
}

impl Encode for Dataspace {
    fn encode(&self, w: &mut Writer) {
        w.put_u64s(&self.dims);
        match &self.maxdims {
            None => w.put_u8(0),
            Some(m) => {
                w.put_u8(1);
                w.put_u64s(m);
            }
        }
    }
}

impl Decode for Dataspace {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self> {
        let dims = r.get_u64s()?;
        if dims.len() > 32 {
            return Err(H5Error::Format("dataspace rank exceeds 32".into()));
        }
        let maxdims = match r.get_u8()? {
            0 => None,
            1 => {
                let m = r.get_u64s()?;
                if m.len() != dims.len() {
                    return Err(H5Error::Format("maxdims rank mismatch".into()));
                }
                Some(m)
            }
            t => return Err(H5Error::Format(format!("bad maxdims flag {t}"))),
        };
        Ok(Dataspace { dims, maxdims })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};

    #[test]
    fn npoints_and_rank() {
        let s = Dataspace::simple(&[4, 5, 6]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.npoints(), 120);
        assert_eq!(Dataspace::scalar().npoints(), 1);
        assert_eq!(Dataspace::scalar().rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Dataspace::simple(&[4, 5, 6]).strides(), vec![30, 6, 1]);
        assert_eq!(Dataspace::simple(&[7]).strides(), vec![1]);
        assert!(Dataspace::scalar().strides().is_empty());
    }

    #[test]
    fn linearize_roundtrip() {
        let s = Dataspace::simple(&[3, 4, 5]);
        for linear in 0..s.npoints() {
            let c = s.delinearize(linear);
            assert_eq!(s.linearize(&c), linear);
            assert!(c.iter().zip(s.dims()).all(|(x, d)| x < d));
        }
    }

    #[test]
    fn codec_roundtrip() {
        let s = Dataspace::simple(&[9, 1, 1024]);
        assert_eq!(Dataspace::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}

#[cfg(test)]
mod extensible_tests {
    use super::*;
    use crate::codec::{Decode, Encode};

    #[test]
    fn extensible_grows_first_dim() {
        let mut s = Dataspace::extensible(&[4, 8], &[UNLIMITED, 8]);
        assert!(s.maxdims().is_some());
        assert!(s.can_extend_to(&[10, 8]).is_ok());
        s.extend_to(&[10, 8]).unwrap();
        assert_eq!(s.dims(), &[10, 8]);
    }

    #[test]
    fn extension_rules_enforced() {
        let s = Dataspace::extensible(&[4, 8], &[16, 16]);
        assert!(s.can_extend_to(&[3, 8]).is_err()); // shrink
        assert!(s.can_extend_to(&[20, 8]).is_err()); // beyond max
        assert!(s.can_extend_to(&[4, 9]).is_err()); // non-leading dim
        assert!(s.can_extend_to(&[4, 8, 1]).is_err()); // rank change
        assert!(Dataspace::simple(&[4]).can_extend_to(&[5]).is_err()); // fixed
    }

    #[test]
    fn extensible_codec_roundtrip() {
        let s = Dataspace::extensible(&[2, 3], &[UNLIMITED, 3]);
        assert_eq!(Dataspace::from_bytes(&s.to_bytes()).unwrap(), s);
        let f = Dataspace::simple(&[7]);
        assert_eq!(Dataspace::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn maxdims_must_dominate() {
        let _ = Dataspace::extensible(&[4], &[2]);
    }
}
