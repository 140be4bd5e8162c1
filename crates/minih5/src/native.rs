//! The native VOL connector: real file I/O in the crate's own format.
//!
//! This is the analogue of HDF5's native (storage) VOL, including its
//! parallel mode: a parallel task constructs one `NativeVol` per rank with
//! [`NativeVol::parallel`], hands it the task's barrier, and performs
//! metadata calls collectively. Rank 0 writes the header/metadata/trailer;
//! every rank writes its own hyperslabs with positioned writes into the
//! shared file — no cross-rank data shipping, like MPI-IO.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::datatype::Datatype;
use crate::error::{H5Error, H5Result};
use crate::format::{self, ChunkIndex, FileMeta, HEADER_LEN};
use crate::selection::Selection;
use crate::space::Dataspace;
use crate::tree::{Hierarchy, NodeId, ObjKind, Ownership};
use crate::vol::{ObjId, Vol};

type BarrierFn = Arc<dyn Fn() + Send + Sync>;

/// Chunked-layout state of one dataset: chunk shape plus allocated chunk
/// offsets keyed by chunk grid coordinates.
struct ChunkState {
    chunk: Vec<u64>,
    index: HashMap<Vec<u64>, u64>,
}

struct OpenFile {
    handle: Arc<File>,
    hier: Hierarchy,
    root: NodeId,
    /// Data extent offsets per contiguous dataset node.
    offsets: HashMap<NodeId, u64>,
    /// Chunked-layout state per chunked dataset node.
    chunked: HashMap<NodeId, ChunkState>,
    /// Next free byte in the data region (write mode).
    cursor: u64,
    writable: bool,
    path: String,
}

#[derive(Clone, Copy)]
struct ObjRef {
    file: ObjId,
    node: NodeId,
}

#[derive(Default)]
struct State {
    next_id: ObjId,
    files: HashMap<ObjId, OpenFile>,
    objects: HashMap<ObjId, ObjRef>,
}

impl State {
    fn mint(&mut self) -> ObjId {
        self.next_id += 1;
        self.next_id
    }

    fn obj(&self, id: ObjId) -> H5Result<ObjRef> {
        self.objects.get(&id).copied().ok_or(H5Error::InvalidHandle(id))
    }

    fn file_of(&self, r: ObjRef) -> H5Result<&OpenFile> {
        self.files.get(&r.file).ok_or(H5Error::InvalidHandle(r.file))
    }

    fn file_of_mut(&mut self, r: ObjRef) -> H5Result<&mut OpenFile> {
        self.files.get_mut(&r.file).ok_or(H5Error::InvalidHandle(r.file))
    }
}

/// The file-backed VOL connector.
pub struct NativeVol {
    rank: usize,
    barrier: Option<BarrierFn>,
    state: Mutex<State>,
}

impl NativeVol {
    /// A single-process connector (no coordination needed).
    pub fn serial() -> Self {
        NativeVol { rank: 0, barrier: None, state: Mutex::default() }
    }

    /// A connector for rank `rank` of a parallel task. `barrier` must block
    /// until every rank of the task has called it (e.g.
    /// `move || comm.barrier()`).
    pub fn parallel(rank: usize, barrier: impl Fn() + Send + Sync + 'static) -> Self {
        NativeVol { rank, barrier: Some(Arc::new(barrier)), state: Mutex::default() }
    }

    fn sync(&self) {
        if let Some(b) = &self.barrier {
            b();
        }
    }

    /// Collect the file's metadata blob from the in-memory hierarchy.
    fn build_meta(of: &OpenFile) -> H5Result<FileMeta> {
        let chunk_map: HashMap<NodeId, ChunkIndex> = of
            .chunked
            .iter()
            .map(|(&node, cs)| {
                let mut offsets: Vec<(Vec<u64>, u64)> =
                    cs.index.iter().map(|(c, &o)| (c.clone(), o)).collect();
                offsets.sort();
                (node, ChunkIndex { chunk: cs.chunk.clone(), offsets })
            })
            .collect();
        format::export_meta_with_chunks(&of.hier, of.root, Some(&of.offsets), Some(&chunk_map))
    }

    /// Allocate (densely) every chunk of the grid covering `dims` that is
    /// not yet in the index. Deterministic across ranks given identical
    /// collective calls.
    fn allocate_chunks(cs: &mut ChunkState, dims: &[u64], cursor: &mut u64, bytes_per_chunk: u64) {
        let counts: Vec<u64> = dims.iter().zip(&cs.chunk).map(|(&d, &c)| d.div_ceil(c)).collect();
        let mut coord = vec![0u64; dims.len()];
        loop {
            if !cs.index.contains_key(&coord) {
                cs.index.insert(coord.clone(), *cursor);
                *cursor += bytes_per_chunk;
            }
            // Odometer.
            let mut i = coord.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                coord[i] += 1;
                if coord[i] < counts[i] {
                    break;
                }
                coord[i] = 0;
            }
        }
    }
}

/// One positioned-I/O operation of a chunked plan:
/// `(file offset, packed-buffer byte offset, byte length)`.
type IoOp = (u64, usize, usize);

/// Build the positioned-I/O plan mapping a selection onto chunk storage.
/// Every op is contiguous on both sides (selection pieces never cross a
/// chunk row).
fn chunk_plan(
    cs: &ChunkState,
    space: &Dataspace,
    sel: &Selection,
    es: usize,
) -> H5Result<Vec<IoOp>> {
    let dims = space.dims();
    let bb = sel.bbox(space);
    if bb.is_empty() {
        return Ok(Vec::new());
    }
    let sel_runs = sel.runs(space);
    let lo: Vec<u64> = bb.lo.iter().zip(&cs.chunk).map(|(l, c)| l / c).collect();
    let hi: Vec<u64> = bb.hi.iter().zip(&cs.chunk).map(|(h, c)| (h - 1) / c).collect();
    let mut plan = Vec::new();
    let mut coord = lo.clone();
    loop {
        let base = *cs
            .index
            .get(&coord)
            .ok_or_else(|| H5Error::Format(format!("chunk {coord:?} not allocated")))?;
        let origin: Vec<u64> = coord.iter().zip(&cs.chunk).map(|(&k, &c)| k * c).collect();
        let clipped = crate::selection::BBox::new(
            origin.clone(),
            origin.iter().zip(&cs.chunk).zip(dims).map(|((&o, &c), &d)| (o + c).min(d)).collect(),
        );
        if !clipped.is_empty() {
            let chunk_runs = clipped.to_selection().runs(space);
            for ov in crate::selection::overlap_runs(&sel_runs, &chunk_runs) {
                // Element position within the (full-shape) stored chunk.
                let gcoord = space.delinearize(ov.offset);
                let mut pos = 0u64;
                for i in 0..gcoord.len() {
                    pos = pos * cs.chunk[i] + (gcoord[i] - origin[i]);
                }
                plan.push((
                    base + pos * es as u64,
                    (ov.a_off as usize) * es,
                    (ov.len as usize) * es,
                ));
            }
        }
        // Odometer over the chunk-coordinate box [lo, hi].
        let mut i = coord.len();
        loop {
            if i == 0 {
                return Ok(plan);
            }
            i -= 1;
            if coord[i] < hi[i] {
                coord[i] += 1;
                let rest = i + 1..coord.len();
                coord[rest.clone()].copy_from_slice(&lo[rest]);
                break;
            }
        }
    }
}

impl Vol for NativeVol {
    fn vol_name(&self) -> &'static str {
        "native"
    }

    fn file_create(&self, name: &str) -> H5Result<ObjId> {
        let handle = if self.rank == 0 {
            let f =
                OpenOptions::new().read(true).write(true).create(true).truncate(true).open(name)?;
            format::write_header(&f)?;
            self.sync(); // release peers to open the now-existing file
            f
        } else {
            self.sync(); // wait for rank 0 to create it
            OpenOptions::new().read(true).write(true).open(name)?
        };
        let mut st = self.state.lock();
        let mut hier = Hierarchy::new();
        let root = hier.create_file(name)?;
        let id = st.mint();
        st.files.insert(
            id,
            OpenFile {
                handle: Arc::new(handle),
                hier,
                root,
                offsets: HashMap::new(),
                chunked: HashMap::new(),
                cursor: HEADER_LEN,
                writable: true,
                path: name.to_string(),
            },
        );
        st.objects.insert(id, ObjRef { file: id, node: root });
        Ok(id)
    }

    fn file_open(&self, name: &str) -> H5Result<ObjId> {
        let mut f = File::open(name)?;
        let meta = format::read_metadata(&mut f)?;
        let mut hier = Hierarchy::new();
        let root = hier.create_file(name)?;
        let dataset_nodes = format::import_meta(&mut hier, root, &meta)?;
        let offsets: HashMap<NodeId, u64> = meta
            .datasets
            .iter()
            .filter(|d| d.chunks.is_none())
            .map(|d| (dataset_nodes[&d.path], d.offset))
            .collect();
        let chunked: HashMap<NodeId, ChunkState> = meta
            .datasets
            .iter()
            .filter_map(|d| {
                d.chunks.as_ref().map(|ci| {
                    (
                        dataset_nodes[&d.path],
                        ChunkState {
                            chunk: ci.chunk.clone(),
                            index: ci.offsets.iter().cloned().collect(),
                        },
                    )
                })
            })
            .collect();
        let mut st = self.state.lock();
        let id = st.mint();
        st.files.insert(
            id,
            OpenFile {
                handle: Arc::new(f),
                hier,
                root,
                offsets,
                chunked,
                cursor: 0,
                writable: false,
                path: name.to_string(),
            },
        );
        st.objects.insert(id, ObjRef { file: id, node: root });
        Ok(id)
    }

    fn file_close(&self, file: ObjId) -> H5Result<()> {
        // Snapshot what we need, then do I/O outside the lock.
        let (writable, handle, meta, cursor) = {
            let st = self.state.lock();
            let r = st.obj(file)?;
            let of = st.file_of(r)?;
            let meta = of.writable.then(|| Self::build_meta(of)).transpose()?;
            (of.writable, Arc::clone(&of.handle), meta, of.cursor)
        };
        if writable {
            // All ranks must have completed their data writes.
            self.sync();
            if self.rank == 0 {
                format::write_metadata(&handle, cursor, &meta.expect("writable file has meta"))?;
            }
            // Nobody may re-open the file for reading until the metadata
            // and trailer are on disk.
            self.sync();
        }
        let mut st = self.state.lock();
        st.objects.remove(&file);
        if let Some(of) = st.files.remove(&file) {
            let _ = of.path;
        }
        Ok(())
    }

    fn group_create(&self, parent: ObjId, name: &str) -> H5Result<ObjId> {
        let mut st = self.state.lock();
        let r = st.obj(parent)?;
        let of = st.file_of_mut(r)?;
        if !of.writable {
            return Err(H5Error::Vol("file is read-only".into()));
        }
        let node = of.hier.create_group(r.node, name)?;
        let id = st.mint();
        st.objects.insert(id, ObjRef { file: r.file, node });
        Ok(id)
    }

    fn open_path(&self, parent: ObjId, path: &str) -> H5Result<ObjId> {
        let mut st = self.state.lock();
        let r = st.obj(parent)?;
        let of = st.file_of(r)?;
        let node = of.hier.resolve(r.node, path)?;
        let id = st.mint();
        st.objects.insert(id, ObjRef { file: r.file, node });
        Ok(id)
    }

    fn dataset_create(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
    ) -> H5Result<ObjId> {
        let mut st = self.state.lock();
        let r = st.obj(parent)?;
        let of = st.file_of_mut(r)?;
        if !of.writable {
            return Err(H5Error::Vol("file is read-only".into()));
        }
        let node = of.hier.create_dataset(r.node, name, dtype.clone(), space.clone())?;
        let extent = space.npoints() * dtype.size() as u64;
        of.offsets.insert(node, of.cursor);
        of.cursor += extent;
        let id = st.mint();
        st.objects.insert(id, ObjRef { file: r.file, node });
        Ok(id)
    }

    fn dataset_create_chunked(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
        chunk: &[u64],
    ) -> H5Result<ObjId> {
        let mut st = self.state.lock();
        let r = st.obj(parent)?;
        let of = st.file_of_mut(r)?;
        if !of.writable {
            return Err(H5Error::Vol("file is read-only".into()));
        }
        let node = of.hier.create_dataset_chunked(
            r.node,
            name,
            dtype.clone(),
            space.clone(),
            chunk.to_vec(),
        )?;
        let mut cs = ChunkState { chunk: chunk.to_vec(), index: HashMap::new() };
        let bytes_per_chunk = chunk.iter().product::<u64>() * dtype.size() as u64;
        let mut cursor = of.cursor;
        Self::allocate_chunks(&mut cs, space.dims(), &mut cursor, bytes_per_chunk);
        of.cursor = cursor;
        of.chunked.insert(node, cs);
        let id = st.mint();
        st.objects.insert(id, ObjRef { file: r.file, node });
        Ok(id)
    }

    fn dataset_extend(&self, dset: ObjId, new_dims: &[u64]) -> H5Result<()> {
        let mut st = self.state.lock();
        let r = st.obj(dset)?;
        let of = st.file_of_mut(r)?;
        if !of.writable {
            return Err(H5Error::Vol("file is read-only".into()));
        }
        if !of.chunked.contains_key(&r.node) {
            return Err(H5Error::Vol(
                "extension requires chunked layout (create_dataset_chunked)".into(),
            ));
        }
        let (dtype, _) = of.hier.dataset_meta(r.node)?;
        of.hier.extend_dataset(r.node, new_dims)?;
        let cs = of.chunked.get_mut(&r.node).expect("checked above");
        let bytes_per_chunk = cs.chunk.iter().product::<u64>() * dtype.size() as u64;
        let mut cursor = of.cursor;
        Self::allocate_chunks(cs, new_dims, &mut cursor, bytes_per_chunk);
        of.cursor = cursor;
        Ok(())
    }

    fn dataset_chunk(&self, dset: ObjId) -> H5Result<Option<Vec<u64>>> {
        let st = self.state.lock();
        let r = st.obj(dset)?;
        Ok(st.file_of(r)?.chunked.get(&r.node).map(|cs| cs.chunk.clone()))
    }

    fn dataset_meta(&self, dset: ObjId) -> H5Result<(Datatype, Dataspace)> {
        let st = self.state.lock();
        let r = st.obj(dset)?;
        st.file_of(r)?.hier.dataset_meta(r.node)
    }

    fn dataset_write(
        &self,
        dset: ObjId,
        file_sel: &Selection,
        data: Bytes,
        _ownership: Ownership,
    ) -> H5Result<()> {
        let (handle, plan, npoints, es) = {
            let st = self.state.lock();
            let r = st.obj(dset)?;
            let of = st.file_of(r)?;
            if !of.writable {
                return Err(H5Error::Vol("file is read-only".into()));
            }
            let (dtype, space) = of.hier.dataset_meta(r.node)?;
            file_sel.validate(&space)?;
            let es = dtype.size();
            let plan: Vec<IoOp> = match of.chunked.get(&r.node) {
                Some(cs) => chunk_plan(cs, &space, file_sel, es)?,
                None => {
                    let base = of.offsets[&r.node];
                    let mut packed = 0usize;
                    file_sel
                        .runs(&space)
                        .into_iter()
                        .map(|run| {
                            let n = (run.len as usize) * es;
                            let op = (base + run.offset * es as u64, packed, n);
                            packed += n;
                            op
                        })
                        .collect()
                }
            };
            (Arc::clone(&of.handle), plan, file_sel.npoints(&space), es)
        };
        if data.len() as u64 != npoints * es as u64 {
            return Err(H5Error::ShapeMismatch(format!(
                "write buffer is {} bytes, selection needs {}",
                data.len(),
                npoints * es as u64
            )));
        }
        for (file_off, buf_off, n) in plan {
            handle.write_all_at(&data[buf_off..buf_off + n], file_off)?;
        }
        Ok(())
    }

    fn dataset_read(&self, dset: ObjId, file_sel: &Selection) -> H5Result<Bytes> {
        let (handle, plan, npoints, es) = {
            let st = self.state.lock();
            let r = st.obj(dset)?;
            let of = st.file_of(r)?;
            let (dtype, space) = of.hier.dataset_meta(r.node)?;
            file_sel.validate(&space)?;
            let es = dtype.size();
            let plan: Vec<IoOp> = match of.chunked.get(&r.node) {
                Some(cs) => chunk_plan(cs, &space, file_sel, es)?,
                None => {
                    let base = of.offsets[&r.node];
                    let mut packed = 0usize;
                    file_sel
                        .runs(&space)
                        .into_iter()
                        .map(|run| {
                            let n = (run.len as usize) * es;
                            let op = (base + run.offset * es as u64, packed, n);
                            packed += n;
                            op
                        })
                        .collect()
                }
            };
            (Arc::clone(&of.handle), plan, file_sel.npoints(&space), es)
        };
        let mut out = vec![0u8; (npoints as usize) * es];
        for (file_off, buf_off, n) in plan {
            handle.read_exact_at(&mut out[buf_off..buf_off + n], file_off)?;
        }
        Ok(Bytes::from(out))
    }

    fn attr_write(&self, obj: ObjId, name: &str, dtype: &Datatype, data: Bytes) -> H5Result<()> {
        let mut st = self.state.lock();
        let r = st.obj(obj)?;
        let of = st.file_of_mut(r)?;
        if !of.writable {
            return Err(H5Error::Vol("file is read-only".into()));
        }
        of.hier.set_attr(r.node, name, dtype.clone(), data)
    }

    fn attr_read(&self, obj: ObjId, name: &str) -> H5Result<(Datatype, Bytes)> {
        let st = self.state.lock();
        let r = st.obj(obj)?;
        st.file_of(r)?.hier.attr(r.node, name)
    }

    fn list(&self, obj: ObjId) -> H5Result<Vec<(String, ObjKind)>> {
        let st = self.state.lock();
        let r = st.obj(obj)?;
        st.file_of(r)?.hier.children_of(r.node)
    }

    fn obj_kind(&self, obj: ObjId) -> H5Result<ObjKind> {
        let st = self.state.lock();
        let r = st.obj(obj)?;
        Ok(st.file_of(r)?.hier.node(r.node)?.obj_kind())
    }

    fn object_close(&self, obj: ObjId) -> H5Result<()> {
        let mut st = self.state.lock();
        // Closing the file handle itself goes through file_close.
        if st.files.contains_key(&obj) {
            return Ok(());
        }
        st.objects.remove(&obj);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::elems_as_bytes;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("minih5-native-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn serial_write_read_roundtrip() {
        let vol = NativeVol::serial();
        let path = tmp("roundtrip.nh5");
        let f = vol.file_create(&path).unwrap();
        let g = vol.group_create(f, "g1").unwrap();
        let sp = Dataspace::simple(&[4, 4]);
        let d = vol.dataset_create(g, "grid", &Datatype::UInt64, &sp).unwrap();
        let vals: Vec<u64> = (0..16).collect();
        vol.dataset_write(
            d,
            &Selection::all(),
            Bytes::copy_from_slice(elems_as_bytes(&vals)),
            Ownership::Deep,
        )
        .unwrap();
        vol.attr_write(f, "step", &Datatype::UInt32, Bytes::from_static(&[7, 0, 0, 0])).unwrap();
        vol.file_close(f).unwrap();

        let f = vol.file_open(&path).unwrap();
        let d = vol.open_path(f, "g1/grid").unwrap();
        let (dt, sp2) = vol.dataset_meta(d).unwrap();
        assert_eq!(dt, Datatype::UInt64);
        assert_eq!(sp2, sp);
        let back = vol.dataset_read(d, &Selection::all()).unwrap();
        assert_eq!(&back[..], elems_as_bytes(&vals));
        let (adt, ab) = vol.attr_read(f, "step").unwrap();
        assert_eq!(adt, Datatype::UInt32);
        assert_eq!(&ab[..], &[7, 0, 0, 0]);
        vol.file_close(f).unwrap();
    }

    #[test]
    fn hyperslab_write_then_partial_read() {
        let vol = NativeVol::serial();
        let path = tmp("slab.nh5");
        let f = vol.file_create(&path).unwrap();
        let sp = Dataspace::simple(&[4, 6]);
        let d = vol.dataset_create(f, "d", &Datatype::UInt8, &sp).unwrap();
        // Write two disjoint row blocks.
        vol.dataset_write(
            d,
            &Selection::block(&[0, 0], &[2, 6]),
            Bytes::from(vec![1u8; 12]),
            Ownership::Deep,
        )
        .unwrap();
        vol.dataset_write(
            d,
            &Selection::block(&[2, 0], &[2, 6]),
            Bytes::from(vec![2u8; 12]),
            Ownership::Deep,
        )
        .unwrap();
        vol.file_close(f).unwrap();

        let f = vol.file_open(&path).unwrap();
        let d = vol.open_path(f, "d").unwrap();
        let col = vol.dataset_read(d, &Selection::block(&[0, 3], &[4, 1])).unwrap();
        assert_eq!(&col[..], &[1, 1, 2, 2]);
        vol.file_close(f).unwrap();
    }

    #[test]
    fn read_only_files_reject_writes() {
        let vol = NativeVol::serial();
        let path = tmp("ro.nh5");
        let f = vol.file_create(&path).unwrap();
        vol.dataset_create(f, "d", &Datatype::UInt8, &Dataspace::simple(&[1])).unwrap();
        vol.file_close(f).unwrap();
        let f = vol.file_open(&path).unwrap();
        assert!(vol.group_create(f, "g").is_err());
        let d = vol.open_path(f, "d").unwrap();
        assert!(vol
            .dataset_write(d, &Selection::all(), Bytes::from_static(&[0]), Ownership::Deep)
            .is_err());
        vol.file_close(f).unwrap();
    }

    #[test]
    fn closed_handles_are_invalid() {
        let vol = NativeVol::serial();
        let path = tmp("closed.nh5");
        let f = vol.file_create(&path).unwrap();
        vol.dataset_create(f, "d", &Datatype::UInt8, &Dataspace::simple(&[1])).unwrap();
        vol.file_close(f).unwrap();
        assert!(matches!(vol.list(f), Err(H5Error::InvalidHandle(_))));
    }

    #[test]
    fn multiple_datasets_get_disjoint_extents() {
        let vol = NativeVol::serial();
        let path = tmp("extents.nh5");
        let f = vol.file_create(&path).unwrap();
        let d1 = vol.dataset_create(f, "a", &Datatype::UInt8, &Dataspace::simple(&[8])).unwrap();
        let d2 = vol.dataset_create(f, "b", &Datatype::UInt8, &Dataspace::simple(&[8])).unwrap();
        vol.dataset_write(d1, &Selection::all(), Bytes::from(vec![1u8; 8]), Ownership::Deep)
            .unwrap();
        vol.dataset_write(d2, &Selection::all(), Bytes::from(vec![2u8; 8]), Ownership::Deep)
            .unwrap();
        vol.file_close(f).unwrap();
        let f = vol.file_open(&path).unwrap();
        let d1 = vol.open_path(f, "a").unwrap();
        let d2 = vol.open_path(f, "b").unwrap();
        assert_eq!(&vol.dataset_read(d1, &Selection::all()).unwrap()[..], &[1u8; 8]);
        assert_eq!(&vol.dataset_read(d2, &Selection::all()).unwrap()[..], &[2u8; 8]);
        vol.file_close(f).unwrap();
    }

    #[test]
    fn list_and_kinds() {
        let vol = NativeVol::serial();
        let path = tmp("list.nh5");
        let f = vol.file_create(&path).unwrap();
        let g = vol.group_create(f, "g").unwrap();
        vol.dataset_create(g, "d", &Datatype::Float32, &Dataspace::simple(&[2])).unwrap();
        assert_eq!(vol.obj_kind(f).unwrap(), ObjKind::File);
        assert_eq!(vol.obj_kind(g).unwrap(), ObjKind::Group);
        let ls = vol.list(f).unwrap();
        assert_eq!(ls, vec![("g".to_string(), ObjKind::Group)]);
        vol.file_close(f).unwrap();
    }

    #[test]
    fn split_path_cases() {
        use crate::format::split_meta_path;
        assert_eq!(split_meta_path("a/b/c"), ("a/b", "c"));
        assert_eq!(split_meta_path("solo"), ("", "solo"));
    }
}
