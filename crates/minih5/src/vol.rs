//! The Virtual Object Layer: the dispatch boundary every API call crosses.
//!
//! HDF5 1.12 routes every storage operation through a VOL connector chosen
//! at file-access time (or via environment variables). This module is that
//! boundary for `minih5`: the [`Vol`] trait is the function table, object
//! handles are opaque [`ObjId`]s minted by the connector, and the
//! thread-scoped registry ([`set_thread_vol`]) reproduces the
//! "set two environment variables, change no code" deployment mechanism —
//! in this reproduction a *task* is a thread, so the registry is
//! thread-local.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::Datatype;
use crate::error::H5Result;
use crate::selection::Selection;
use crate::space::Dataspace;
use crate::tree::{ObjKind, Ownership};

/// Opaque object handle minted by a VOL connector (HDF5's `hid_t`).
pub type ObjId = u64;

/// A VOL connector: the complete set of object operations the public API
/// dispatches to.
///
/// Contract notes:
/// * Handles are connector-scoped; passing a handle to a different
///   connector is a usage error (connectors should fail with
///   `H5Error::InvalidHandle` when they can detect it).
/// * `dataset_write` receives the *packed* bytes of the selected elements
///   in row-major (run) order; `dataset_read` returns bytes in the same
///   order.
/// * Metadata operations (create/open) follow HDF5 parallel semantics:
///   in a parallel program they must be performed collectively, with the
///   same arguments in the same order, by every rank of the task.
pub trait Vol: Send + Sync {
    /// Connector name for diagnostics ("native", "lowfive-metadata", …).
    fn vol_name(&self) -> &'static str;

    fn file_create(&self, name: &str) -> H5Result<ObjId>;
    fn file_open(&self, name: &str) -> H5Result<ObjId>;
    /// Close a file. For write-mode files this is the commit point: the
    /// paper's consumers key off file close as the data-ready signal.
    fn file_close(&self, file: ObjId) -> H5Result<()>;

    fn group_create(&self, parent: ObjId, name: &str) -> H5Result<ObjId>;
    /// Open an existing object (group or dataset) by `/`-separated path
    /// relative to `parent`.
    fn open_path(&self, parent: ObjId, path: &str) -> H5Result<ObjId>;

    fn dataset_create(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
    ) -> H5Result<ObjId>;
    /// Create a dataset with chunked storage layout (required for
    /// extensible dataspaces on storage connectors). Connectors without
    /// chunked storage may treat this as a hint.
    fn dataset_create_chunked(
        &self,
        _parent: ObjId,
        _name: &str,
        _dtype: &Datatype,
        _space: &Dataspace,
        _chunk: &[u64],
    ) -> H5Result<ObjId> {
        Err(crate::error::H5Error::Vol("chunked datasets not supported by this connector".into()))
    }
    /// Grow an extensible dataset to `new_dims` (collective in parallel
    /// programs, like all metadata operations).
    fn dataset_extend(&self, _dset: ObjId, _new_dims: &[u64]) -> H5Result<()> {
        Err(crate::error::H5Error::Vol("dataset extension not supported by this connector".into()))
    }
    /// The chunk shape of a dataset, if it has chunked layout.
    fn dataset_chunk(&self, _dset: ObjId) -> H5Result<Option<Vec<u64>>> {
        Ok(None)
    }
    fn dataset_meta(&self, dset: ObjId) -> H5Result<(Datatype, Dataspace)>;
    fn dataset_write(
        &self,
        dset: ObjId,
        file_sel: &Selection,
        data: Bytes,
        ownership: Ownership,
    ) -> H5Result<()>;
    fn dataset_read(&self, dset: ObjId, file_sel: &Selection) -> H5Result<Bytes>;

    /// Read several selections of one dataset in a single call, returning
    /// one packed buffer per selection (in input order).
    ///
    /// The default is a serial loop over [`Vol::dataset_read`]; transports
    /// that can batch or overlap the underlying fetches (e.g. a
    /// distributed VOL issuing one RPC per peer for all selections at
    /// once) override this to do so. Implementations must return buffers
    /// byte-identical to the serial loop.
    fn dataset_read_multi(&self, dset: ObjId, file_sels: &[Selection]) -> H5Result<Vec<Bytes>> {
        file_sels.iter().map(|s| self.dataset_read(dset, s)).collect()
    }

    fn attr_write(&self, obj: ObjId, name: &str, dtype: &Datatype, data: Bytes) -> H5Result<()>;
    fn attr_read(&self, obj: ObjId, name: &str) -> H5Result<(Datatype, Bytes)>;

    /// List the children of a file or group.
    fn list(&self, obj: ObjId) -> H5Result<Vec<(String, ObjKind)>>;
    /// Kind of an object handle.
    fn obj_kind(&self, obj: ObjId) -> H5Result<ObjKind>;

    /// Release a non-file object handle. Default: no-op.
    fn object_close(&self, _obj: ObjId) -> H5Result<()> {
        Ok(())
    }
}

thread_local! {
    static THREAD_VOL: RefCell<Option<Arc<dyn Vol>>> = const { RefCell::new(None) };
}

/// Install `vol` as this thread's default connector and return a guard
/// that restores the previous one when dropped.
///
/// [`crate::H5::open_default`] consults this registry, so a workflow
/// orchestrator can redirect an unmodified task's I/O — the equivalent of
/// HDF5's `HDF5_VOL_CONNECTOR` / `HDF5_PLUGIN_PATH` environment variables.
pub fn set_thread_vol(vol: Arc<dyn Vol>) -> VolGuard {
    let prev = THREAD_VOL.with(|tv| tv.replace(Some(vol)));
    VolGuard { prev }
}

/// This thread's registered connector, if any.
pub(crate) fn thread_vol() -> Option<Arc<dyn Vol>> {
    THREAD_VOL.with(|tv| tv.borrow().clone())
}

/// Restores the previously registered connector on drop.
pub struct VolGuard {
    prev: Option<Arc<dyn Vol>>,
}

impl Drop for VolGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        THREAD_VOL.with(|tv| *tv.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeVol;

    #[test]
    fn thread_registry_scopes_and_restores() {
        assert!(thread_vol().is_none());
        let v1: Arc<dyn Vol> = Arc::new(NativeVol::serial());
        {
            let _g1 = set_thread_vol(Arc::clone(&v1));
            assert!(thread_vol().is_some());
            {
                let v2: Arc<dyn Vol> = Arc::new(NativeVol::serial());
                let _g2 = set_thread_vol(Arc::clone(&v2));
                assert!(Arc::ptr_eq(&thread_vol().unwrap(), &v2));
            }
            // Inner guard restored v1.
            assert!(Arc::ptr_eq(&thread_vol().unwrap(), &v1));
        }
        assert!(thread_vol().is_none());
    }

    #[test]
    fn registry_is_per_thread() {
        let v: Arc<dyn Vol> = Arc::new(NativeVol::serial());
        let _g = set_thread_vol(v);
        std::thread::spawn(|| assert!(thread_vol().is_none())).join().unwrap();
        assert!(thread_vol().is_some());
    }
}
