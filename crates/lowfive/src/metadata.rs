//! The metadata VOL layer: an in-memory replica of the HDF5 hierarchy.
//!
//! Paper §III-A(b): "we redefine most of the functions in the base layer
//! with their in-memory metadata counterparts … we manage our own tree of
//! HDF5 objects (files, groups, datasets, attributes, etc.) that replicates
//! the user's HDF5 data model."
//!
//! Every operation can simultaneously target the in-memory tree
//! (*memory mode*) and the wrapped storage connector (*passthrough*),
//! per the [`LowFiveProps`] rules, so a producer can stream data to a
//! consumer while also checkpointing to disk — the paper's "combining the
//! two modes".

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use minih5::format::{export_meta, FileMeta};
use minih5::tree::{DataRegion, NodeKind};
use minih5::{
    Dataspace, Datatype, H5Error, H5Result, Hierarchy, NodeId, ObjId, ObjKind, Ownership,
    Selection, Vol,
};

use crate::base::BaseVol;
use crate::props::LowFiveProps;

#[derive(Clone)]
struct Entry {
    /// Node in the in-memory tree, when memory mode is on for the file.
    mem: Option<NodeId>,
    /// Handle in the wrapped storage connector, when passthrough is on.
    file: Option<ObjId>,
    /// Owning file name.
    filename: Arc<str>,
    /// Path relative to the file root (empty for the file itself).
    path: String,
    /// True if this handle comes from `file_create` (a write session);
    /// false for re-opens. The distributed layer serves only after a
    /// write session closes.
    created: bool,
}

#[derive(Default)]
struct MetaState {
    hier: Hierarchy,
    entries: HashMap<ObjId, Entry>,
    next: ObjId,
    /// Per-file write generation: renewed on every mutation of the
    /// in-memory tree (create/truncate, region write, extend, attribute
    /// write). Served to consumers in every reply so their caches can
    /// detect an in-place rewrite between reads.
    gens: HashMap<String, u64>,
    /// The generation handed out last. One counter serves every file of
    /// the VOL, so a name that is retired and created again can never
    /// repeat a tag a consumer has already seen for it.
    last_gen: u64,
}

/// The value stored under `key`, inserted as `V::default()` first if it
/// is missing. Unlike `entry(key.to_string())`, a key that is already
/// present costs no allocation — these maps are touched per message.
pub(crate) fn slot_for<'a, V: Default>(map: &'a mut HashMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

impl MetaState {
    fn bump_gen(&mut self, file: &str) {
        self.last_gen += 1;
        *slot_for(&mut self.gens, file) = self.last_gen;
    }
}

impl MetaState {
    fn mint(&mut self) -> ObjId {
        self.next += 1;
        self.next
    }

    fn entry(&self, id: ObjId) -> H5Result<&Entry> {
        self.entries.get(&id).ok_or(H5Error::InvalidHandle(id))
    }
}

/// The in-memory metadata connector (wraps a base/storage layer).
pub struct MetadataVol {
    base: BaseVol,
    props: LowFiveProps,
    state: Mutex<MetaState>,
}

impl MetadataVol {
    /// Build over an explicit storage connector.
    pub fn new(inner: Arc<dyn Vol>, props: LowFiveProps) -> Self {
        MetadataVol { base: BaseVol::new(inner), props, state: Mutex::default() }
    }

    /// Build over a serial native storage connector.
    pub fn over_native(props: LowFiveProps) -> Self {
        MetadataVol::new(Arc::new(minih5::native::NativeVol::serial()), props)
    }

    /// The active properties.
    pub fn props(&self) -> &LowFiveProps {
        &self.props
    }

    /// Filename owning a handle.
    pub(crate) fn filename_of(&self, id: ObjId) -> H5Result<Arc<str>> {
        Ok(self.state.lock().entry(id)?.filename.clone())
    }

    /// Whether the handle belongs to a `file_create` (write) session.
    pub(crate) fn was_created(&self, id: ObjId) -> H5Result<bool> {
        Ok(self.state.lock().entry(id)?.created)
    }

    /// Current write generation of an in-memory file (0 if the file is
    /// not resident). Every reply the distributed layer sends for the
    /// file carries this tag, so consumer caches can detect in-place
    /// rewrites.
    pub fn generation(&self, name: &str) -> u64 {
        self.state.lock().gens.get(name).copied().unwrap_or(0)
    }

    /// Root node of an in-memory file. The id is unique to this
    /// incarnation of the name: truncating or retiring the file makes it
    /// stale, which is how [`MetadataVol::retire_file`] tells the
    /// snapshot it was asked to drop from a later one of the same name.
    pub(crate) fn file_root(&self, name: &str) -> Option<NodeId> {
        self.state.lock().hier.file(name)
    }

    /// Drop the in-memory tree of `name` and its generation entry, if
    /// `root` is still the file's root. Returns the payload bytes the
    /// tree held, or `None` when the name has since been re-created (or
    /// was already gone) and nothing was touched.
    pub(crate) fn retire_file(&self, name: &str, root: NodeId) -> Option<u64> {
        let mut st = self.state.lock();
        if st.hier.file(name) != Some(root) {
            return None;
        }
        st.gens.remove(name);
        st.hier.remove_file(name).ok()
    }

    /// `(resident files, arena slots, generation entries)` — what this
    /// layer holds per file (diagnostic).
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        let st = self.state.lock();
        (st.hier.file_count(), st.hier.slots(), st.gens.len())
    }

    /// Serialize the metadata tree of an in-memory file (for shipping to
    /// consumers).
    pub fn file_meta(&self, name: &str) -> H5Result<FileMeta> {
        let st = self.state.lock();
        let root = st.hier.file(name).ok_or_else(|| H5Error::NotFound(name.to_string()))?;
        export_meta(&st.hier, root, None)
    }

    /// Visit every dataset of an in-memory file in creation order — its
    /// path, space and recorded regions — in one walk of the tree.
    pub(crate) fn for_each_dataset(
        &self,
        name: &str,
        mut f: impl FnMut(&str, &Dataspace, &[DataRegion]),
    ) -> H5Result<()> {
        let st = self.state.lock();
        let root = st.hier.file(name).ok_or_else(|| H5Error::NotFound(name.to_string()))?;
        st.hier.visit(root, |path, _, node| {
            if let NodeKind::Dataset { space, regions, .. } = &node.kind {
                f(path, space, regions);
            }
        })
    }

    /// Run `f` on a dataset's type, space and recorded regions, by
    /// `(file, path)`, under this layer's lock. `f` should only copy out
    /// what it needs (the regions' `Arc` is one refcount bump): a
    /// producer's writes wait while it runs.
    pub(crate) fn with_dataset<R>(
        &self,
        file: &str,
        path: &str,
        f: impl FnOnce(&Datatype, &Dataspace, &Arc<Vec<DataRegion>>) -> R,
    ) -> H5Result<R> {
        let st = self.state.lock();
        let root = st.hier.file(file).ok_or_else(|| H5Error::NotFound(file.to_string()))?;
        let (dtype, space, regions) = st.hier.dataset_parts(st.hier.resolve(root, path)?)?;
        Ok(f(dtype, space, regions))
    }

    fn child_path(parent: &str, name: &str) -> String {
        if parent.is_empty() {
            name.to_string()
        } else {
            format!("{parent}/{name}")
        }
    }
}

impl Vol for MetadataVol {
    fn vol_name(&self) -> &'static str {
        "lowfive-metadata"
    }

    fn file_create(&self, name: &str) -> H5Result<ObjId> {
        let mem = self.props.memory_for(name);
        let pass = self.props.passthrough_for(name);
        // With both modes off there is nowhere to put the data.
        if !mem && !pass {
            return Err(H5Error::Vol(format!("both memory and passthrough disabled for {name}")));
        }
        let file_id = if pass { Some(self.base.file_create(name)?) } else { None };
        let mut st = self.state.lock();
        let mem_node = if mem {
            // Re-creating a file truncates: drop the old tree entry.
            if st.hier.file(name).is_some() {
                st.hier.remove_file(name)?;
            }
            let node = st.hier.create_file(name)?;
            st.bump_gen(name);
            Some(node)
        } else {
            None
        };
        let id = st.mint();
        st.entries.insert(
            id,
            Entry {
                mem: mem_node,
                file: file_id,
                filename: Arc::from(name),
                path: String::new(),
                created: true,
            },
        );
        Ok(id)
    }

    fn file_open(&self, name: &str) -> H5Result<ObjId> {
        let mut st = self.state.lock();
        // Prefer the in-memory tree (e.g. a producer re-opening its own
        // output); fall back to storage.
        if let Some(root) = st.hier.file(name) {
            let id = st.mint();
            st.entries.insert(
                id,
                Entry {
                    mem: Some(root),
                    file: None,
                    filename: Arc::from(name),
                    path: String::new(),
                    created: false,
                },
            );
            return Ok(id);
        }
        drop(st);
        let file_id = self.base.file_open(name)?;
        let mut st = self.state.lock();
        let id = st.mint();
        st.entries.insert(
            id,
            Entry {
                mem: None,
                file: Some(file_id),
                filename: Arc::from(name),
                path: String::new(),
                created: false,
            },
        );
        Ok(id)
    }

    fn file_close(&self, file: ObjId) -> H5Result<()> {
        let entry = {
            let mut st = self.state.lock();
            let e = st.entry(file)?.clone();
            st.entries.remove(&file);
            e
        };
        if let Some(fid) = entry.file {
            self.base.file_close(fid)?;
        }
        // The in-memory tree deliberately survives close: that is what the
        // distributed layer serves to consumers afterwards (and retires
        // once they are done with it).
        Ok(())
    }

    fn group_create(&self, parent: ObjId, name: &str) -> H5Result<ObjId> {
        let (p_entry, file_child) = {
            let st = self.state.lock();
            let e = st.entry(parent)?.clone();
            (e, None::<ObjId>)
        };
        let _ = file_child;
        let file_id = match p_entry.file {
            Some(pf) => Some(self.base.group_create(pf, name)?),
            None => None,
        };
        let mut st = self.state.lock();
        let mem_node = match p_entry.mem {
            Some(pn) => Some(st.hier.create_group(pn, name)?),
            None => None,
        };
        let id = st.mint();
        st.entries.insert(
            id,
            Entry {
                mem: mem_node,
                file: file_id,
                filename: p_entry.filename.clone(),
                path: Self::child_path(&p_entry.path, name),
                created: p_entry.created,
            },
        );
        Ok(id)
    }

    fn open_path(&self, parent: ObjId, path: &str) -> H5Result<ObjId> {
        let p_entry = self.state.lock().entry(parent)?.clone();
        let file_id = match p_entry.file {
            Some(pf) => Some(self.base.open_path(pf, path)?),
            None => None,
        };
        let mut st = self.state.lock();
        let mem_node = match p_entry.mem {
            Some(pn) => Some(st.hier.resolve(pn, path)?),
            None => None,
        };
        let id = st.mint();
        let joined = path
            .split('/')
            .filter(|s| !s.is_empty())
            .fold(p_entry.path.clone(), |acc, part| Self::child_path(&acc, part));
        st.entries.insert(
            id,
            Entry {
                mem: mem_node,
                file: file_id,
                filename: p_entry.filename.clone(),
                path: joined,
                created: p_entry.created,
            },
        );
        Ok(id)
    }

    fn dataset_create(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
    ) -> H5Result<ObjId> {
        let p_entry = self.state.lock().entry(parent)?.clone();
        let file_id = match p_entry.file {
            Some(pf) => Some(self.base.dataset_create(pf, name, dtype, space)?),
            None => None,
        };
        let mut st = self.state.lock();
        let mem_node = match p_entry.mem {
            Some(pn) => Some(st.hier.create_dataset(pn, name, dtype.clone(), space.clone())?),
            None => None,
        };
        let id = st.mint();
        st.entries.insert(
            id,
            Entry {
                mem: mem_node,
                file: file_id,
                filename: p_entry.filename.clone(),
                path: Self::child_path(&p_entry.path, name),
                created: p_entry.created,
            },
        );
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
        let p_entry = self.state.lock().entry(parent)?.clone();
        let file_id = match p_entry.file {
            Some(pf) => Some(self.base.dataset_create_chunked(pf, name, dtype, space, chunk)?),
            None => None,
        };
        let mut st = self.state.lock();
        let mem_node = match p_entry.mem {
            Some(pn) => Some(st.hier.create_dataset_chunked(
                pn,
                name,
                dtype.clone(),
                space.clone(),
                chunk.to_vec(),
            )?),
            None => None,
        };
        let id = st.mint();
        st.entries.insert(
            id,
            Entry {
                mem: mem_node,
                file: file_id,
                filename: p_entry.filename.clone(),
                path: Self::child_path(&p_entry.path, name),
                created: p_entry.created,
            },
        );
        Ok(id)
    }

    fn dataset_extend(&self, dset: ObjId, new_dims: &[u64]) -> H5Result<()> {
        let e = self.state.lock().entry(dset)?.clone();
        if let Some(f) = e.file {
            self.base.dataset_extend(f, new_dims)?;
        }
        if let Some(node) = e.mem {
            let mut st = self.state.lock();
            st.hier.extend_dataset(node, new_dims)?;
            st.bump_gen(&e.filename);
        }
        Ok(())
    }

    fn dataset_chunk(&self, dset: ObjId) -> H5Result<Option<Vec<u64>>> {
        let e = self.state.lock().entry(dset)?.clone();
        if let Some(node) = e.mem {
            return self.state.lock().hier.dataset_chunk(node);
        }
        match e.file {
            Some(f) => self.base.dataset_chunk(f),
            None => Err(H5Error::InvalidHandle(dset)),
        }
    }

    fn dataset_meta(&self, dset: ObjId) -> H5Result<(Datatype, Dataspace)> {
        let e = self.state.lock().entry(dset)?.clone();
        if let Some(node) = e.mem {
            return self.state.lock().hier.dataset_meta(node);
        }
        match e.file {
            Some(f) => self.base.dataset_meta(f),
            None => Err(H5Error::InvalidHandle(dset)),
        }
    }

    fn dataset_write(
        &self,
        dset: ObjId,
        file_sel: &Selection,
        data: Bytes,
        ownership: Ownership,
    ) -> H5Result<()> {
        let (file, mem, filename, own) = {
            let st = self.state.lock();
            let e = st.entry(dset)?;
            let own = self.props.ownership_for(&e.filename, &e.path, ownership);
            (e.file, e.mem, e.filename.clone(), own)
        };
        if let Some(f) = file {
            self.base.dataset_write(f, file_sel, data.clone(), ownership)?;
        }
        if let Some(node) = mem {
            let mut st = self.state.lock();
            st.hier.write_region(node, file_sel.clone(), data, own)?;
            st.bump_gen(&filename);
        }
        Ok(())
    }

    fn dataset_read(&self, dset: ObjId, file_sel: &Selection) -> H5Result<Bytes> {
        let e = self.state.lock().entry(dset)?.clone();
        if let Some(node) = e.mem {
            return self.state.lock().hier.read_region(node, file_sel);
        }
        match e.file {
            Some(f) => self.base.dataset_read(f, file_sel),
            None => Err(H5Error::InvalidHandle(dset)),
        }
    }

    fn attr_write(&self, obj: ObjId, name: &str, dtype: &Datatype, data: Bytes) -> H5Result<()> {
        let e = self.state.lock().entry(obj)?.clone();
        if let Some(f) = e.file {
            self.base.attr_write(f, name, dtype, data.clone())?;
        }
        if let Some(node) = e.mem {
            let mut st = self.state.lock();
            st.hier.set_attr(node, name, dtype.clone(), data)?;
            st.bump_gen(&e.filename);
        }
        Ok(())
    }

    fn attr_read(&self, obj: ObjId, name: &str) -> H5Result<(Datatype, Bytes)> {
        let e = self.state.lock().entry(obj)?.clone();
        if let Some(node) = e.mem {
            return self.state.lock().hier.attr(node, name);
        }
        match e.file {
            Some(f) => self.base.attr_read(f, name),
            None => Err(H5Error::InvalidHandle(obj)),
        }
    }

    fn list(&self, obj: ObjId) -> H5Result<Vec<(String, ObjKind)>> {
        let e = self.state.lock().entry(obj)?.clone();
        if let Some(node) = e.mem {
            return self.state.lock().hier.children_of(node);
        }
        match e.file {
            Some(f) => self.base.list(f),
            None => Err(H5Error::InvalidHandle(obj)),
        }
    }

    fn obj_kind(&self, obj: ObjId) -> H5Result<ObjKind> {
        let e = self.state.lock().entry(obj)?.clone();
        if let Some(node) = e.mem {
            return Ok(self.state.lock().hier.node(node)?.obj_kind());
        }
        match e.file {
            Some(f) => self.base.obj_kind(f),
            None => Err(H5Error::InvalidHandle(obj)),
        }
    }

    fn object_close(&self, obj: ObjId) -> H5Result<()> {
        let e = {
            let mut st = self.state.lock();
            match st.entries.remove(&obj) {
                Some(e) => e,
                None => return Ok(()),
            }
        };
        if let Some(f) = e.file {
            self.base.object_close(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minih5::H5;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lowfive-meta-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn memory_h5(props: LowFiveProps) -> (H5, Arc<MetadataVol>) {
        let vol = Arc::new(MetadataVol::over_native(props));
        (H5::with_vol(vol.clone() as Arc<dyn Vol>), vol)
    }

    /// The regions recorded for a dataset (clones share the region bytes).
    fn regions(vol: &MetadataVol, file: &str, path: &str) -> Vec<DataRegion> {
        vol.with_dataset(file, path, |_, _, regions| regions.to_vec()).unwrap()
    }

    #[test]
    fn memory_mode_never_touches_disk() {
        let (h5, _vol) = memory_h5(LowFiveProps::new());
        // The "filename" does not exist on disk and never will.
        let f = h5.create_file("purely/in/memory.h5").unwrap();
        let d = f.create_dataset("d", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
        d.write_all(&[1u64, 2, 3, 4]).unwrap();
        assert_eq!(d.read_all::<u64>().unwrap(), vec![1, 2, 3, 4]);
        f.close().unwrap();
        assert!(!std::path::Path::new("purely").exists());
    }

    #[test]
    fn tree_survives_close_for_serving() {
        let (h5, vol) = memory_h5(LowFiveProps::new());
        let f = h5.create_file("mem.h5").unwrap();
        let g = f.create_group("group1").unwrap();
        let d = g.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
        d.write_all(&(0..8).collect::<Vec<u64>>()).unwrap();
        f.close().unwrap();
        let meta = vol.file_meta("mem.h5").unwrap();
        assert_eq!(meta.groups, vec!["group1".to_string()]);
        assert_eq!(meta.datasets.len(), 1);
        assert_eq!(meta.datasets[0].path, "group1/grid");
        let regions = regions(&vol, "mem.h5", "group1/grid");
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].data.len(), 64);
    }

    #[test]
    fn combined_mode_writes_both_targets() {
        let path = tmp("combined.nh5");
        let mut props = LowFiveProps::new();
        props.set_passthrough("*", true); // memory stays on by default
        let (h5, vol) = memory_h5(props);
        let f = h5.create_file(&path).unwrap();
        let d = f.create_dataset("d", Datatype::UInt32, Dataspace::simple(&[3])).unwrap();
        d.write_all(&[7u32, 8, 9]).unwrap();
        f.close().unwrap();
        // On disk, readable by plain native.
        let plain = H5::native();
        let f2 = plain.open_file(&path).unwrap();
        assert_eq!(f2.open_dataset("d").unwrap().read_all::<u32>().unwrap(), vec![7, 8, 9]);
        f2.close().unwrap();
        // And in memory.
        assert_eq!(regions(&vol, &path, "d").len(), 1);
    }

    #[test]
    fn file_only_mode_skips_memory() {
        let path = tmp("fileonly.nh5");
        let mut props = LowFiveProps::new();
        props.set_memory("*", false).set_passthrough("*", true);
        let (h5, vol) = memory_h5(props);
        let f = h5.create_file(&path).unwrap();
        let d = f.create_dataset("d", Datatype::UInt8, Dataspace::simple(&[2])).unwrap();
        d.write_all(&[1u8, 2]).unwrap();
        f.close().unwrap();
        assert!(vol.file_meta(&path).is_err());
        // Reading back goes through storage.
        let f = h5.open_file(&path).unwrap();
        assert_eq!(f.open_dataset("d").unwrap().read_all::<u8>().unwrap(), vec![1, 2]);
        f.close().unwrap();
    }

    #[test]
    fn both_modes_off_is_an_error() {
        let mut props = LowFiveProps::new();
        props.set_memory("*", false);
        let (h5, _vol) = memory_h5(props);
        assert!(h5.create_file("nowhere.h5").is_err());
    }

    #[test]
    fn zerocopy_rule_produces_shallow_regions() {
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "grid", true);
        let (h5, vol) = memory_h5(props);
        let f = h5.create_file("z.h5").unwrap();
        let d = f.create_dataset("grid", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        let buf = Bytes::from(vec![1u8, 2, 3, 4]);
        d.write_bytes(&Selection::all(), buf.clone(), Ownership::Deep).unwrap();
        let regions = regions(&vol, "z.h5", "grid");
        assert_eq!(regions[0].ownership, Ownership::Shallow);
        assert_eq!(regions[0].data.as_ptr(), buf.as_ptr());
        f.close().unwrap();
    }

    #[test]
    fn recreating_a_file_truncates_the_tree() {
        let (h5, vol) = memory_h5(LowFiveProps::new());
        let f = h5.create_file("t.h5").unwrap();
        f.create_dataset("old", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
        f.close().unwrap();
        let f = h5.create_file("t.h5").unwrap();
        f.create_dataset("new", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
        f.close().unwrap();
        let mut names = Vec::new();
        vol.for_each_dataset("t.h5", |path, _, _| names.push(path.to_string())).unwrap();
        assert_eq!(names, vec!["new".to_string()]);
    }

    #[test]
    fn retire_drops_only_the_incarnation_it_was_given() {
        let (h5, vol) = memory_h5(LowFiveProps::new());
        let write = |v: u8| {
            let f = h5.create_file("r.h5").unwrap();
            let d = f.create_dataset("d", Datatype::UInt8, Dataspace::simple(&[2])).unwrap();
            d.write_all(&[v, v]).unwrap();
            drop(d);
            f.close().unwrap();
        };
        write(1);
        let first = vol.file_root("r.h5").unwrap();
        let gen1 = vol.generation("r.h5");
        // Re-created in the meantime: the old root must not retire the new tree.
        write(2);
        let gen2 = vol.generation("r.h5");
        assert!(gen2 > gen1);
        assert_eq!(vol.retire_file("r.h5", first), None);
        assert_eq!(regions(&vol, "r.h5", "d")[0].data[..], [2, 2]);
        // The current root does: tree, bytes and generation all go.
        let second = vol.file_root("r.h5").unwrap();
        assert_eq!(vol.retire_file("r.h5", second), Some(2));
        assert!(vol.file_root("r.h5").is_none());
        assert_eq!(vol.footprint(), (0, 2, 0), "no file, no generation, two reusable slots");
        // A third incarnation of the name never repeats a generation.
        write(3);
        assert!(vol.generation("r.h5") > gen2);
    }

    #[test]
    fn partial_writes_assemble_on_read() {
        let (h5, _vol) = memory_h5(LowFiveProps::new());
        let f = h5.create_file("p.h5").unwrap();
        let d = f.create_dataset("d", Datatype::UInt64, Dataspace::simple(&[2, 4])).unwrap();
        // Two ranks' worth of row writes (simulated serially).
        d.write_selection(&Selection::block(&[0, 0], &[1, 4]), &[0u64, 1, 2, 3]).unwrap();
        d.write_selection(&Selection::block(&[1, 0], &[1, 4]), &[4u64, 5, 6, 7]).unwrap();
        assert_eq!(d.read_all::<u64>().unwrap(), (0..8).collect::<Vec<u64>>());
        let col = d.read_selection::<u64>(&Selection::block(&[0, 2], &[2, 1])).unwrap();
        assert_eq!(col, vec![2, 6]);
        f.close().unwrap();
    }
}
