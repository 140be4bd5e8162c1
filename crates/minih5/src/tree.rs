//! The in-memory metadata hierarchy (paper Fig. 1).
//!
//! LowFive "builds in memory a replica of the HDF5 metadata hierarchy":
//! files contain groups, groups contain datasets, every node can carry
//! attributes, and datasets record the data *regions* written into them —
//! each region a (selection, packed bytes) pair, with deep or shallow
//! ownership exactly as in the figure (`ownership: lowfive` vs
//! `ownership: user`). The same arena also backs the native VOL's view of
//! an on-disk file while it is open.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::Datatype;
use crate::error::{H5Error, H5Result};
use crate::selection::{overlap_runs, Selection};
use crate::space::Dataspace;

/// Handle to a node within a [`Hierarchy`] arena: a slot index plus the
/// slot's generation when the node was allocated. Removing a file bumps
/// the generation of every slot it frees, so a handle kept across
/// [`Hierarchy::remove_file`] turns *stale* — every access through it is
/// an [`H5Error::InvalidHandle`], never the node that reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    slot: u32,
    gen: u32,
}

/// What kind of object a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    File,
    Group,
    Dataset,
}

impl ObjKind {
    pub fn name(self) -> &'static str {
        match self {
            ObjKind::File => "file",
            ObjKind::Group => "group",
            ObjKind::Dataset => "dataset",
        }
    }
}

/// Who owns a written region's bytes (Fig. 1's `ownership` field).
///
/// * `Deep` — LowFive copied the data; the writer may immediately reuse its
///   buffer ("ownership: lowfive").
/// * `Shallow` — only a reference is kept; the writer must keep the buffer
///   unchanged until the consumer has read it ("ownership: user"). In this
///   Rust implementation a shallow region shares the writer's refcounted
///   allocation, so the zero-copy performance benefit is real while the
///   use-after-modify hazard of the C original is ruled out by `Bytes`'
///   immutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ownership {
    Deep,
    Shallow,
}

/// One write operation recorded on a dataset: `data` holds the selected
/// elements packed in run (row-major) order.
#[derive(Debug, Clone)]
pub struct DataRegion {
    pub selection: Selection,
    pub data: Bytes,
    pub ownership: Ownership,
}

/// Node payloads.
#[derive(Debug, Clone)]
pub enum NodeKind {
    File {
        filename: String,
    },
    Group,
    Dataset {
        dtype: Datatype,
        space: Dataspace,
        /// Chunk shape for chunked-layout datasets (storage hint; the
        /// in-memory representation is region-based either way).
        chunk: Option<Vec<u64>>,
        /// Recorded writes, shared: a reader takes the list with one
        /// refcount bump and works on it without the tree. A write while
        /// such a snapshot is out copies the list, never the bytes.
        regions: Arc<Vec<DataRegion>>,
    },
}

/// A tree node: name, links, attributes, payload.
#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    pub attributes: BTreeMap<String, (Datatype, Bytes)>,
    pub kind: NodeKind,
}

impl Node {
    pub fn obj_kind(&self) -> ObjKind {
        match self.kind {
            NodeKind::File { .. } => ObjKind::File,
            NodeKind::Group => ObjKind::Group,
            NodeKind::Dataset { .. } => ObjKind::Dataset,
        }
    }

    /// Bytes this node holds (or, for shallow regions, pins): region data
    /// plus attribute values.
    fn payload_bytes(&self) -> u64 {
        let attrs: usize = self.attributes.values().map(|(_, b)| b.len()).sum();
        let regions: usize = match &self.kind {
            NodeKind::Dataset { regions, .. } => regions.iter().map(|r| r.data.len()).sum(),
            _ => 0,
        };
        (attrs + regions) as u64
    }
}

/// One arena slot: `node` is `None` while the slot sits on the free list.
#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    node: Option<Node>,
}

/// Arena of metadata nodes holding any number of open files.
///
/// Slots freed by [`Hierarchy::remove_file`] are reused by later
/// allocations, so the arena's size follows the *live* trees, not the
/// number of files that ever passed through it.
#[derive(Debug, Default, Clone)]
pub struct Hierarchy {
    slots: Vec<Slot>,
    free: Vec<u32>,
    files: BTreeMap<String, NodeId>,
}

impl Hierarchy {
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.node = Some(node);
                NodeId { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena outgrew u32 slots");
                self.slots.push(Slot { gen: 0, node: Some(node) });
                NodeId { slot, gen: 0 }
            }
        }
    }

    fn stale(id: NodeId) -> H5Error {
        H5Error::InvalidHandle((u64::from(id.gen) << 32) | u64::from(id.slot))
    }

    /// The node behind `id`, or [`H5Error::InvalidHandle`] if its file
    /// has been removed since the handle was minted.
    pub fn node(&self, id: NodeId) -> H5Result<&Node> {
        self.slots
            .get(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.node.as_ref())
            .ok_or_else(|| Self::stale(id))
    }

    /// Mutable counterpart of [`Hierarchy::node`].
    pub(crate) fn node_mut(&mut self, id: NodeId) -> H5Result<&mut Node> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.node.as_mut())
            .ok_or_else(|| Self::stale(id))
    }

    /// Register a new file node.
    pub fn create_file(&mut self, filename: &str) -> H5Result<NodeId> {
        if self.files.contains_key(filename) {
            return Err(H5Error::AlreadyExists(filename.to_string()));
        }
        let id = self.alloc(Node {
            name: filename.to_string(),
            parent: None,
            children: Vec::new(),
            attributes: BTreeMap::new(),
            kind: NodeKind::File { filename: filename.to_string() },
        });
        self.files.insert(filename.to_string(), id);
        Ok(id)
    }

    /// Look up an open file by name.
    pub fn file(&self, filename: &str) -> Option<NodeId> {
        self.files.get(filename).copied()
    }

    /// Number of files in the arena.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Remove a file and free its whole tree at once: every node slot
    /// goes back on the free list and the region and attribute `Bytes`
    /// are dropped. Returns how many payload bytes the tree held. Handles
    /// still open into the tree turn stale (see [`NodeId`]).
    pub fn remove_file(&mut self, filename: &str) -> H5Result<u64> {
        let root =
            self.files.remove(filename).ok_or_else(|| H5Error::NotFound(filename.to_string()))?;
        let mut bytes = 0;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let slot = &mut self.slots[id.slot as usize];
            let node = slot.node.take().expect("a linked node is live");
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(id.slot);
            bytes += node.payload_bytes();
            stack.extend(node.children);
        }
        Ok(bytes)
    }

    fn child_by_name(&self, parent: NodeId, name: &str) -> H5Result<Option<NodeId>> {
        for &c in &self.node(parent)?.children {
            if self.node(c)?.name == name {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    /// Create a group under `parent`.
    pub fn create_group(&mut self, parent: NodeId, name: &str) -> H5Result<NodeId> {
        self.create_child(parent, name, NodeKind::Group)
    }

    /// Create a dataset under `parent`.
    pub fn create_dataset(
        &mut self,
        parent: NodeId,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
    ) -> H5Result<NodeId> {
        self.create_child(
            parent,
            name,
            NodeKind::Dataset { dtype, space, chunk: None, regions: Arc::default() },
        )
    }

    /// Create a chunked-layout dataset under `parent`.
    pub fn create_dataset_chunked(
        &mut self,
        parent: NodeId,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
        chunk: Vec<u64>,
    ) -> H5Result<NodeId> {
        if chunk.len() != space.rank() || chunk.contains(&0) {
            return Err(H5Error::ShapeMismatch(format!(
                "chunk shape {chunk:?} invalid for rank {}",
                space.rank()
            )));
        }
        self.create_child(
            parent,
            name,
            NodeKind::Dataset { dtype, space, chunk: Some(chunk), regions: Arc::default() },
        )
    }

    /// Chunk shape of a dataset (None = contiguous).
    pub fn dataset_chunk(&self, id: NodeId) -> H5Result<Option<Vec<u64>>> {
        match &self.node(id)?.kind {
            NodeKind::Dataset { chunk, .. } => Ok(chunk.clone()),
            _ => Err(self.not_a_dataset(id)),
        }
    }

    /// Grow an extensible dataset's extent (first dimension only; see
    /// `Dataspace::can_extend_to`). Previously written regions keep
    /// their meaning because row-major offsets are stable under
    /// leading-dimension growth.
    pub fn extend_dataset(&mut self, id: NodeId, new_dims: &[u64]) -> H5Result<()> {
        match &mut self.node_mut(id)?.kind {
            NodeKind::Dataset { space, .. } => space.extend_to(new_dims),
            _ => Err(self.not_a_dataset(id)),
        }
    }

    fn create_child(&mut self, parent: NodeId, name: &str, kind: NodeKind) -> H5Result<NodeId> {
        if name.is_empty() || name.contains('/') {
            return Err(H5Error::ShapeMismatch(format!("invalid object name {name:?}")));
        }
        if matches!(self.node(parent)?.kind, NodeKind::Dataset { .. }) {
            return Err(H5Error::WrongKind { expected: "file or group", found: "dataset" });
        }
        if self.child_by_name(parent, name)?.is_some() {
            return Err(H5Error::AlreadyExists(name.to_string()));
        }
        let node = Node {
            name: name.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            attributes: BTreeMap::new(),
            kind,
        };
        let id = self.alloc(node);
        self.node_mut(parent)?.children.push(id);
        Ok(id)
    }

    /// Resolve a `/`-separated path relative to `base`.
    pub fn resolve(&self, base: NodeId, path: &str) -> H5Result<NodeId> {
        let mut cur = base;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = self
                .child_by_name(cur, part)?
                .ok_or_else(|| H5Error::NotFound(path.to_string()))?;
        }
        Ok(cur)
    }

    /// Visit the tree under `root` in pre-order (parents before children,
    /// children in creation order), handing `f` each node with its
    /// `/`-separated path relative to `root` (empty for `root` itself).
    pub fn visit(&self, root: NodeId, mut f: impl FnMut(&str, NodeId, &Node)) -> H5Result<()> {
        // Every path is built in one reused string: a node's path is its
        // parent's path (a prefix of whatever was visited last, since
        // parents come first) plus its own name.
        let mut path = String::new();
        // (node, length of its parent's path); the root has no name here.
        let mut stack = vec![(root, None)];
        while let Some((id, parent_len)) = stack.pop() {
            let node = self.node(id)?;
            if let Some(len) = parent_len {
                path.truncate(len);
                if len > 0 {
                    path.push('/');
                }
                path.push_str(&node.name);
            }
            f(&path, id, node);
            let len = path.len();
            stack.extend(node.children.iter().rev().map(|&c| (c, Some(len))));
        }
        Ok(())
    }

    /// Children of a node as `(name, kind)` pairs.
    pub fn children_of(&self, id: NodeId) -> H5Result<Vec<(String, ObjKind)>> {
        self.node(id)?
            .children
            .iter()
            .map(|&c| self.node(c).map(|n| (n.name.clone(), n.obj_kind())))
            .collect()
    }

    fn not_a_dataset(&self, id: NodeId) -> H5Error {
        match self.node(id) {
            Ok(n) => H5Error::WrongKind { expected: "dataset", found: n.obj_kind().name() },
            Err(e) => e,
        }
    }

    /// A dataset's type, space and recorded regions, borrowed; clone the
    /// regions' `Arc` to keep them past the borrow.
    pub fn dataset_parts(
        &self,
        id: NodeId,
    ) -> H5Result<(&Datatype, &Dataspace, &Arc<Vec<DataRegion>>)> {
        match &self.node(id)?.kind {
            NodeKind::Dataset { dtype, space, regions, .. } => Ok((dtype, space, regions)),
            _ => Err(self.not_a_dataset(id)),
        }
    }

    /// Dataset metadata accessor.
    pub fn dataset_meta(&self, id: NodeId) -> H5Result<(Datatype, Dataspace)> {
        match &self.node(id)?.kind {
            NodeKind::Dataset { dtype, space, .. } => Ok((dtype.clone(), space.clone())),
            _ => Err(self.not_a_dataset(id)),
        }
    }

    /// Record a write: `data` holds the packed selected elements.
    pub fn write_region(
        &mut self,
        id: NodeId,
        selection: Selection,
        data: Bytes,
        ownership: Ownership,
    ) -> H5Result<()> {
        let (dtype, space, _) = self.dataset_parts(id)?;
        selection.validate(space)?;
        let expect = selection.npoints(space) * dtype.size() as u64;
        if data.len() as u64 != expect {
            return Err(H5Error::ShapeMismatch(format!(
                "write of {} bytes into a selection of {} bytes",
                data.len(),
                expect
            )));
        }
        let data = match ownership {
            Ownership::Deep => Bytes::copy_from_slice(&data),
            Ownership::Shallow => data,
        };
        // Pin relative selections to the extent at write time: `All` on an
        // extensible dataset must keep meaning "everything as of this
        // write" after the dataset grows.
        let selection = pin_selection(selection, space);
        match &mut self.node_mut(id)?.kind {
            NodeKind::Dataset { regions, .. } => {
                Arc::make_mut(regions).push(DataRegion { selection, data, ownership });
                Ok(())
            }
            _ => unreachable!("dataset_meta verified the kind"),
        }
    }

    /// Assemble the bytes selected by `sel` from the recorded regions
    /// (later writes win on overlap). Unwritten elements read as zero, as
    /// with HDF5's default fill value.
    pub fn read_region(&self, id: NodeId, sel: &Selection) -> H5Result<Bytes> {
        let (dtype, space) = self.dataset_meta(id)?;
        sel.validate(&space)?;
        let es = dtype.size();
        let want = sel.runs(&space);
        let mut out = vec![0u8; (sel.npoints(&space) as usize) * es];
        if let NodeKind::Dataset { regions, .. } = &self.node(id)?.kind {
            for reg in regions.iter() {
                let have = reg.selection.runs(&space);
                for ov in overlap_runs(&have, &want) {
                    let src = (ov.a_off as usize) * es;
                    let dst = (ov.b_off as usize) * es;
                    let n = (ov.len as usize) * es;
                    out[dst..dst + n].copy_from_slice(&reg.data[src..src + n]);
                }
            }
        }
        Ok(Bytes::from(out))
    }

    /// Regions written to a dataset.
    pub fn regions(&self, id: NodeId) -> H5Result<&[DataRegion]> {
        match &self.node(id)?.kind {
            NodeKind::Dataset { regions, .. } => Ok(regions.as_slice()),
            _ => Err(self.not_a_dataset(id)),
        }
    }

    /// Set an attribute on any object.
    pub fn set_attr(
        &mut self,
        id: NodeId,
        name: &str,
        dtype: Datatype,
        data: Bytes,
    ) -> H5Result<()> {
        self.node_mut(id)?.attributes.insert(name.to_string(), (dtype, data));
        Ok(())
    }

    /// Read an attribute.
    pub fn attr(&self, id: NodeId, name: &str) -> H5Result<(Datatype, Bytes)> {
        self.node(id)?
            .attributes
            .get(name)
            .cloned()
            .ok_or_else(|| H5Error::NotFound(format!("attribute {name}")))
    }

    /// Live nodes in the arena (diagnostic).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots the arena has ever grown to, live or free: its high-water
    /// mark of simultaneously live nodes (diagnostic).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// Replace extent-relative selections (`All`, recursively inside unions)
/// with absolute blocks over the current dims.
fn pin_selection(sel: Selection, space: &Dataspace) -> Selection {
    match sel {
        Selection::All if space.rank() > 0 => {
            Selection::block(&vec![0; space.rank()], space.dims())
        }
        Selection::Union(members) => {
            Selection::Union(members.into_iter().map(|m| pin_selection(m, space)).collect())
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_file(h: &mut Hierarchy) -> (NodeId, NodeId) {
        // Reproduce Fig. 1: step1.h5 / group1 / grid, group2 / particles.
        let f = h.create_file("step1.h5").unwrap();
        let g1 = h.create_group(f, "group1").unwrap();
        let g2 = h.create_group(f, "group2").unwrap();
        let grid =
            h.create_dataset(g1, "grid", Datatype::UInt64, Dataspace::simple(&[4, 4, 4])).unwrap();
        let _particles = h
            .create_dataset(
                g2,
                "particles",
                Datatype::vector(Datatype::Float32, 3),
                Dataspace::simple(&[100]),
            )
            .unwrap();
        (f, grid)
    }

    #[test]
    fn figure1_hierarchy_shape() {
        let mut h = Hierarchy::new();
        let (f, grid) = grid_file(&mut h);
        assert_eq!(h.node(f).unwrap().obj_kind(), ObjKind::File);
        let kids = h.children_of(f).unwrap();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|(_, k)| *k == ObjKind::Group));
        let resolved = h.resolve(f, "group1/grid").unwrap();
        assert_eq!(resolved, grid);
        let (dt, sp) = h.dataset_meta(grid).unwrap();
        assert_eq!(dt, Datatype::UInt64);
        assert_eq!(sp.npoints(), 64);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        h.create_group(f, "g").unwrap();
        assert!(matches!(h.create_group(f, "g"), Err(H5Error::AlreadyExists(_))));
        assert!(matches!(h.create_file("a.h5"), Err(H5Error::AlreadyExists(_))));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        assert!(h.create_group(f, "a/b").is_err());
        assert!(h.create_group(f, "").is_err());
    }

    #[test]
    fn cannot_nest_under_dataset() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        assert!(matches!(h.create_group(d, "g"), Err(H5Error::WrongKind { .. })));
    }

    #[test]
    fn write_read_full() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
        let vals: Vec<u8> = (0..8u64).flat_map(|v| v.to_le_bytes()).collect();
        h.write_region(d, Selection::all(), Bytes::from(vals.clone()), Ownership::Deep).unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &vals[..]);
    }

    #[test]
    fn read_assembles_from_multiple_regions() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[10])).unwrap();
        // Two disjoint writes; one unwritten hole in the middle.
        h.write_region(
            d,
            Selection::block(&[0], &[3]),
            Bytes::from_static(&[1, 2, 3]),
            Ownership::Deep,
        )
        .unwrap();
        h.write_region(
            d,
            Selection::block(&[6], &[2]),
            Bytes::from_static(&[7, 8]),
            Ownership::Deep,
        )
        .unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &[1, 2, 3, 0, 0, 0, 7, 8, 0, 0]);
        // Partial read crossing a region boundary.
        let part = h.read_region(d, &Selection::block(&[2], &[5])).unwrap();
        assert_eq!(&part[..], &[3, 0, 0, 0, 7]);
    }

    #[test]
    fn later_writes_win_on_overlap() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        h.write_region(d, Selection::all(), Bytes::from_static(&[1, 1, 1, 1]), Ownership::Deep)
            .unwrap();
        h.write_region(
            d,
            Selection::block(&[1], &[2]),
            Bytes::from_static(&[9, 9]),
            Ownership::Deep,
        )
        .unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &[1, 9, 9, 1]);
    }

    #[test]
    fn shallow_regions_share_memory_deep_copies() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[3])).unwrap();
        let buf = Bytes::from(vec![5u8, 6, 7]);
        h.write_region(d, Selection::all(), buf.clone(), Ownership::Shallow).unwrap();
        let regions = h.regions(d).unwrap();
        // Shallow: same allocation (pointer equality of the slices).
        assert_eq!(regions[0].data.as_ptr(), buf.as_ptr());
        let mut h2 = Hierarchy::new();
        let f2 = h2.create_file("b.h5").unwrap();
        let d2 = h2.create_dataset(f2, "d", Datatype::UInt8, Dataspace::simple(&[3])).unwrap();
        h2.write_region(d2, Selection::all(), buf.clone(), Ownership::Deep).unwrap();
        assert_ne!(h2.regions(d2).unwrap()[0].data.as_ptr(), buf.as_ptr());
    }

    #[test]
    fn region_snapshot_outlives_a_later_write() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        let buf = Bytes::from(vec![1u8, 2]);
        h.write_region(d, Selection::block(&[0], &[2]), buf.clone(), Ownership::Shallow).unwrap();
        let snapshot = Arc::clone(h.dataset_parts(d).unwrap().2);
        h.write_region(
            d,
            Selection::block(&[2], &[2]),
            Bytes::from_static(&[3, 4]),
            Ownership::Deep,
        )
        .unwrap();
        // The snapshot keeps the list as it was; the tree's list was
        // copied for the write, but not the bytes it lends.
        assert_eq!(snapshot.len(), 1);
        assert_eq!(h.regions(d).unwrap().len(), 2);
        assert_eq!(h.regions(d).unwrap()[0].data.as_ptr(), buf.as_ptr());
        assert_eq!(snapshot[0].data.as_ptr(), buf.as_ptr());
        assert_eq!(&h.read_region(d, &Selection::all()).unwrap()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn write_size_validated() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
        let r = h.write_region(d, Selection::all(), Bytes::from_static(&[0; 7]), Ownership::Deep);
        assert!(matches!(r, Err(H5Error::ShapeMismatch(_))));
    }

    #[test]
    fn attributes_roundtrip() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        h.set_attr(f, "version", Datatype::UInt32, Bytes::from_static(&[1, 0, 0, 0])).unwrap();
        let (dt, b) = h.attr(f, "version").unwrap();
        assert_eq!(dt, Datatype::UInt32);
        assert_eq!(&b[..], &[1, 0, 0, 0]);
        assert!(h.attr(f, "missing").is_err());
    }

    #[test]
    fn remove_file_frees_the_name() {
        let mut h = Hierarchy::new();
        h.create_file("a.h5").unwrap();
        h.remove_file("a.h5").unwrap();
        assert!(h.file("a.h5").is_none());
        assert!(h.create_file("a.h5").is_ok());
        assert!(h.remove_file("zzz").is_err());
    }

    #[test]
    fn remove_file_frees_nodes_and_region_bytes() {
        let mut h = Hierarchy::new();
        // A long-lived neighbour whose nodes must survive the cycling.
        let keep = h.create_file("keep.h5").unwrap();
        let kept = h.create_dataset(keep, "d", Datatype::UInt8, Dataspace::simple(&[2])).unwrap();
        h.write_region(kept, Selection::all(), Bytes::from_static(&[7, 8]), Ownership::Deep)
            .unwrap();
        let lent = Bytes::from(vec![1u8, 2, 3, 4]);
        for cycle in 0..1000 {
            let f = h.create_file("cycle.h5").unwrap();
            let g = h.create_group(f, "g").unwrap();
            let d = h.create_dataset(g, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
            h.write_region(d, Selection::all(), lent.clone(), Ownership::Shallow).unwrap();
            h.set_attr(d, "step", Datatype::UInt8, Bytes::from_static(&[9])).unwrap();
            assert!(!lent.is_unique(), "the region shares the lent buffer");
            assert_eq!(h.remove_file("cycle.h5").unwrap(), 5, "4 region bytes + 1 attribute");
            assert!(lent.is_unique(), "cycle {cycle}: remove_file must drop the region");
            assert_eq!((h.len(), h.slots()), (2, 5), "cycle {cycle}: freed slots are reused");
        }
        assert_eq!(&h.read_region(kept, &Selection::all()).unwrap()[..], &[7, 8]);
    }

    #[test]
    fn stale_handle_is_an_error_not_another_files_node() {
        let mut h = Hierarchy::new();
        let f = h.create_file("old.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
        h.remove_file("old.h5").unwrap();
        // The replacement reuses both freed slots.
        let f2 = h.create_file("new.h5").unwrap();
        let d2 = h.create_dataset(f2, "other", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
        assert_eq!(h.slots(), 2);
        assert_ne!(d, d2);
        assert!(matches!(h.node(d), Err(H5Error::InvalidHandle(_))));
        assert!(matches!(h.dataset_meta(d), Err(H5Error::InvalidHandle(_))));
        assert!(matches!(h.read_region(d, &Selection::all()), Err(H5Error::InvalidHandle(_))));
        let w = h.write_region(d, Selection::all(), Bytes::from_static(&[1]), Ownership::Deep);
        assert!(matches!(w, Err(H5Error::InvalidHandle(_))));
        assert!(matches!(h.create_group(f, "g"), Err(H5Error::InvalidHandle(_))));
        assert!(matches!(h.children_of(f), Err(H5Error::InvalidHandle(_))));
        assert!(h.regions(d2).unwrap().is_empty(), "the new file never saw the stale write");
    }
}
