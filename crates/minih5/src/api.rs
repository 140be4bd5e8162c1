//! The user-facing API: `H5`, files, groups, datasets.
//!
//! Applications write against these handles exactly once and never change:
//! swapping the VOL connector (native file I/O ↔ LowFive in-memory
//! transport) happens either explicitly ([`H5::with_vol`]) or ambiently via
//! the thread registry ([`H5::open_default`]), matching the paper's
//! zero-code-change deployment.

use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{elems_as_bytes, elems_from_bytes, Datatype, H5Type};
use crate::error::{H5Error, H5Result};
use crate::native::NativeVol;
use crate::selection::Selection;
use crate::space::Dataspace;
use crate::tree::{ObjKind, Ownership};
use crate::vol::{thread_vol, ObjId, Vol};

/// Library entry point bound to one VOL connector.
#[derive(Clone)]
pub struct H5 {
    vol: Arc<dyn Vol>,
}

impl H5 {
    /// Use the built-in native (file) connector.
    pub fn native() -> H5 {
        H5 { vol: Arc::new(NativeVol::serial()) }
    }

    /// Use an explicit connector.
    pub fn with_vol(vol: Arc<dyn Vol>) -> H5 {
        H5 { vol }
    }

    /// Use the thread-registered connector if one is installed (see
    /// [`crate::vol::set_thread_vol`]), otherwise the native connector.
    /// This is what unmodified task code should call.
    pub fn open_default() -> H5 {
        match thread_vol() {
            Some(vol) => H5 { vol },
            None => H5::native(),
        }
    }

    /// Name of the active connector.
    pub fn vol_name(&self) -> &'static str {
        self.vol.vol_name()
    }

    /// The underlying connector handle.
    pub fn vol(&self) -> &Arc<dyn Vol> {
        &self.vol
    }

    /// Create (truncate) a file.
    pub fn create_file(&self, name: &str) -> H5Result<H5File> {
        let id = self.vol.file_create(name)?;
        Ok(H5File { vol: Arc::clone(&self.vol), id })
    }

    /// Open an existing file read-only.
    pub fn open_file(&self, name: &str) -> H5Result<H5File> {
        let id = self.vol.file_open(name)?;
        Ok(H5File { vol: Arc::clone(&self.vol), id })
    }
}

macro_rules! container_ops {
    ($ty:ty) => {
        impl $ty {
            /// Create a child group.
            pub fn create_group(&self, name: &str) -> H5Result<Group> {
                let id = self.vol.group_create(self.id, name)?;
                Ok(Group { vol: Arc::clone(&self.vol), id })
            }

            /// Open a child group by path.
            pub fn open_group(&self, path: &str) -> H5Result<Group> {
                let id = self.vol.open_path(self.id, path)?;
                match self.vol.obj_kind(id)? {
                    ObjKind::Group | ObjKind::File => Ok(Group { vol: Arc::clone(&self.vol), id }),
                    k => Err(H5Error::WrongKind { expected: "group", found: k.name() }),
                }
            }

            /// Create a child dataset.
            pub fn create_dataset(
                &self,
                name: &str,
                dtype: Datatype,
                space: Dataspace,
            ) -> H5Result<Dataset> {
                let id = self.vol.dataset_create(self.id, name, &dtype, &space)?;
                Ok(Dataset { vol: Arc::clone(&self.vol), id })
            }

            /// Create a child dataset with chunked storage layout
            /// (required for extensible dataspaces on storage
            /// connectors).
            pub fn create_dataset_chunked(
                &self,
                name: &str,
                dtype: Datatype,
                space: Dataspace,
                chunk: &[u64],
            ) -> H5Result<Dataset> {
                let id = self.vol.dataset_create_chunked(self.id, name, &dtype, &space, chunk)?;
                Ok(Dataset { vol: Arc::clone(&self.vol), id })
            }

            /// Open a dataset by path.
            pub fn open_dataset(&self, path: &str) -> H5Result<Dataset> {
                let id = self.vol.open_path(self.id, path)?;
                match self.vol.obj_kind(id)? {
                    ObjKind::Dataset => Ok(Dataset { vol: Arc::clone(&self.vol), id }),
                    k => Err(H5Error::WrongKind { expected: "dataset", found: k.name() }),
                }
            }

            /// List immediate children as `(name, kind)`.
            pub fn list(&self) -> H5Result<Vec<(String, ObjKind)>> {
                self.vol.list(self.id)
            }

            /// Write a typed scalar attribute.
            pub fn set_attr<T: H5Type>(&self, name: &str, value: T) -> H5Result<()> {
                self.vol.attr_write(
                    self.id,
                    name,
                    &T::DTYPE,
                    Bytes::copy_from_slice(elems_as_bytes(&[value])),
                )
            }

            /// Read a typed scalar attribute.
            pub fn attr<T: H5Type>(&self, name: &str) -> H5Result<T> {
                let (dtype, data) = self.vol.attr_read(self.id, name)?;
                if dtype != T::DTYPE {
                    return Err(H5Error::ShapeMismatch(format!(
                        "attribute {name} has type {dtype:?}"
                    )));
                }
                Ok(elems_from_bytes::<T>(&data)[0])
            }
        }
    };
}

/// An open file.
pub struct H5File {
    vol: Arc<dyn Vol>,
    id: ObjId,
}

container_ops!(H5File);

impl H5File {
    /// Close the file. For producers in memory mode this is the signal
    /// that data are ready for consumers.
    pub fn close(self) -> H5Result<()> {
        self.vol.file_close(self.id)
    }
}

/// An open group.
pub struct Group {
    vol: Arc<dyn Vol>,
    id: ObjId,
}

container_ops!(Group);

impl Drop for Group {
    fn drop(&mut self) {
        let _ = self.vol.object_close(self.id);
    }
}

/// An open dataset.
pub struct Dataset {
    vol: Arc<dyn Vol>,
    id: ObjId,
}

impl Dataset {
    /// The dataset's type and space.
    pub fn meta(&self) -> H5Result<(Datatype, Dataspace)> {
        self.vol.dataset_meta(self.id)
    }

    /// Shorthand: the dataspace.
    pub fn space(&self) -> H5Result<Dataspace> {
        Ok(self.meta()?.1)
    }

    /// Grow an extensible dataset to `new_dims` (collective in parallel
    /// programs). Requires chunked layout on storage connectors.
    pub fn extend(&self, new_dims: &[u64]) -> H5Result<()> {
        self.vol.dataset_extend(self.id, new_dims)
    }

    /// The dataset's chunk shape, if chunked.
    pub fn chunk(&self) -> H5Result<Option<Vec<u64>>> {
        self.vol.dataset_chunk(self.id)
    }

    /// Write the entire dataset from a typed slice.
    pub fn write_all<T: H5Type>(&self, data: &[T]) -> H5Result<()> {
        self.write_selection(&Selection::all(), data)
    }

    /// Write the elements selected by `sel` (packed row-major) from a
    /// typed slice. The data are deep-copied (safe default).
    pub fn write_selection<T: H5Type>(&self, sel: &Selection, data: &[T]) -> H5Result<()> {
        self.check_dtype::<T>()?;
        self.vol.dataset_write(
            self.id,
            sel,
            Bytes::copy_from_slice(elems_as_bytes(data)),
            Ownership::Deep,
        )
    }

    /// Write raw packed bytes with explicit ownership. `Ownership::Shallow`
    /// shares the buffer (zero-copy) — the caller must not recycle the
    /// allocation until the file is closed and consumed.
    pub fn write_bytes(&self, sel: &Selection, data: Bytes, ownership: Ownership) -> H5Result<()> {
        self.vol.dataset_write(self.id, sel, data, ownership)
    }

    /// Read the entire dataset into a typed vector.
    pub fn read_all<T: H5Type>(&self) -> H5Result<Vec<T>> {
        self.read_selection(&Selection::all())
    }

    /// Read the elements selected by `sel` into a typed vector (packed
    /// row-major).
    pub fn read_selection<T: H5Type>(&self, sel: &Selection) -> H5Result<Vec<T>> {
        self.check_dtype::<T>()?;
        let bytes = self.vol.dataset_read(self.id, sel)?;
        Ok(elems_from_bytes(&bytes))
    }

    /// Read raw packed bytes.
    pub fn read_bytes(&self, sel: &Selection) -> H5Result<Bytes> {
        self.vol.dataset_read(self.id, sel)
    }

    /// Read several selections at once, returning one packed buffer per
    /// selection (in input order). Transports that batch remote fetches
    /// answer all selections with one round of RPCs; results are
    /// byte-identical to calling [`Dataset::read_bytes`] per selection.
    pub fn read_bytes_multi(&self, sels: &[Selection]) -> H5Result<Vec<Bytes>> {
        self.vol.dataset_read_multi(self.id, sels)
    }

    /// Write a typed scalar attribute on the dataset.
    pub fn set_attr<T: H5Type>(&self, name: &str, value: T) -> H5Result<()> {
        self.vol.attr_write(
            self.id,
            name,
            &T::DTYPE,
            Bytes::copy_from_slice(elems_as_bytes(&[value])),
        )
    }

    /// Read a typed scalar attribute from the dataset.
    pub fn attr<T: H5Type>(&self, name: &str) -> H5Result<T> {
        let (dtype, data) = self.vol.attr_read(self.id, name)?;
        if dtype != T::DTYPE {
            return Err(H5Error::ShapeMismatch(format!("attribute {name} has type {dtype:?}")));
        }
        Ok(elems_from_bytes::<T>(&data)[0])
    }

    fn check_dtype<T: H5Type>(&self) -> H5Result<()> {
        let (dtype, _) = self.meta()?;
        // Element-size compatibility is what the raw byte path needs; the
        // typed path additionally requires the exact scalar type.
        if dtype != T::DTYPE {
            return Err(H5Error::ShapeMismatch(format!(
                "dataset type {dtype:?} does not match element type {:?}",
                T::DTYPE
            )));
        }
        Ok(())
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        let _ = self.vol.object_close(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("minih5-api-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn typed_roundtrip_via_public_api() {
        let h5 = H5::native();
        let path = tmp("api.nh5");
        let f = h5.create_file(&path).unwrap();
        let g = f.create_group("g").unwrap();
        let d = g.create_dataset("x", Datatype::Float64, Dataspace::simple(&[3, 2])).unwrap();
        d.write_all(&[1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        d.set_attr("scale", 2.5f64).unwrap();
        f.close().unwrap();

        let f = h5.open_file(&path).unwrap();
        let d = f.open_dataset("g/x").unwrap();
        assert_eq!(d.read_all::<f64>().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(d.attr::<f64>("scale").unwrap(), 2.5);
        let col = d.read_selection::<f64>(&Selection::block(&[0, 1], &[3, 1])).unwrap();
        assert_eq!(col, vec![2.0, 4.0, 6.0]);
        f.close().unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let h5 = H5::native();
        let path = tmp("mismatch.nh5");
        let f = h5.create_file(&path).unwrap();
        let d = f.create_dataset("x", Datatype::UInt32, Dataspace::simple(&[2])).unwrap();
        assert!(d.write_all(&[1.0f32, 2.0]).is_err());
        assert!(d.write_all(&[1u32, 2]).is_ok());
        f.close().unwrap();
    }

    #[test]
    fn open_dataset_on_group_fails() {
        let h5 = H5::native();
        let path = tmp("kind.nh5");
        let f = h5.create_file(&path).unwrap();
        f.create_group("g").unwrap();
        f.create_dataset("d", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
        assert!(matches!(f.open_dataset("g"), Err(H5Error::WrongKind { .. })));
        assert!(matches!(f.open_group("d"), Err(H5Error::WrongKind { .. })));
        f.close().unwrap();
    }

    #[test]
    fn open_default_uses_thread_registry() {
        use crate::vol::set_thread_vol;
        let native: Arc<dyn Vol> = Arc::new(NativeVol::serial());
        {
            let _g = set_thread_vol(Arc::clone(&native));
            let h5 = H5::open_default();
            assert!(Arc::ptr_eq(h5.vol(), &native));
        }
        // Without a registration we fall back to a fresh native connector.
        let h5 = H5::open_default();
        assert_eq!(h5.vol_name(), "native");
    }

    #[test]
    fn missing_path_is_not_found() {
        let h5 = H5::native();
        let path = tmp("missing.nh5");
        let f = h5.create_file(&path).unwrap();
        assert!(matches!(f.open_dataset("nope"), Err(H5Error::NotFound(_))));
        f.close().unwrap();
    }
}

#[cfg(test)]
mod rich_attr_tests {
    use super::*;

    /// Array and fixed-string attributes persist through the native file
    /// with their datatypes, and the typed scalar accessor rejects them.
    #[test]
    fn vector_and_string_attributes() {
        let dir = std::env::temp_dir().join("minih5-api-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("richattrs.nh5").to_str().unwrap().to_string();
        let h5 = H5::native();
        let vol = h5.vol();
        let origin = Datatype::vector(Datatype::Float64, 3);
        let origin_bytes = Bytes::copy_from_slice(elems_as_bytes(&[0.5f64, 1.5, 2.5]));
        let code = Datatype::FixedString(10);
        let f = vol.file_create(&path).unwrap();
        vol.attr_write(f, "origin", &origin, origin_bytes.clone()).unwrap();
        vol.attr_write(f, "code", &code, Bytes::from_static(b"nyx-sim v1")).unwrap();
        vol.file_close(f).unwrap();

        let f = vol.file_open(&path).unwrap();
        assert_eq!(vol.attr_read(f, "origin").unwrap(), (origin, origin_bytes));
        assert_eq!(vol.attr_read(f, "code").unwrap(), (code, Bytes::from_static(b"nyx-sim v1")));
        vol.file_close(f).unwrap();
        let f = h5.open_file(&path).unwrap();
        assert!(f.attr::<f64>("origin").is_err());
        assert!(f.attr::<f64>("code").is_err());
        f.close().unwrap();
    }
}
