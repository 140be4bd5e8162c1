//! The native on-disk file format (`.nh5`).
//!
//! Layout:
//!
//! ```text
//! [ header: magic(8) version(4) reserved(4) ]
//! [ data region: one contiguous extent per dataset, in creation order ]
//! [ metadata blob: groups, datasets (path, type, space, extent offset),
//!   attributes ]
//! [ trailer: meta_offset(8) meta_len(8) magic(8) ]
//! ```
//!
//! Dataset extents are assigned deterministically at creation time, so in a
//! parallel program every rank computes identical offsets from the same
//! collective `dataset_create` calls and can then write its own hyperslabs
//! with positioned writes — the moral equivalent of collective MPI-IO into
//! a single shared HDF5 file. Rank 0 writes the header, the metadata blob,
//! and the trailer.

use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;

use bytes::Bytes;

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::datatype::Datatype;
use crate::error::{H5Error, H5Result};
use crate::space::Dataspace;

pub const MAGIC: &[u8; 8] = b"MINIH5F\0";
pub const TRAILER_MAGIC: &[u8; 8] = b"MINIH5T\0";
pub const VERSION: u32 = 1;
/// Size of the fixed header; the data region starts here.
pub const HEADER_LEN: u64 = 16;
const TRAILER_LEN: u64 = 24;

/// Chunked-layout storage map: chunk shape plus the file offset of every
/// allocated chunk, keyed by chunk grid coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkIndex {
    pub chunk: Vec<u64>,
    pub offsets: Vec<(Vec<u64>, u64)>,
}

/// Metadata record for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// Full path from the file root, e.g. `group1/grid`.
    pub path: String,
    pub dtype: Datatype,
    pub space: Dataspace,
    /// Byte offset of the dataset's contiguous extent in the file
    /// (unused for chunked or in-memory datasets).
    pub offset: u64,
    /// Chunked storage map, when the dataset has chunked layout.
    pub chunks: Option<ChunkIndex>,
}

/// Metadata record for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrEntry {
    /// Path of the owning object (empty string = the file root).
    pub owner: String,
    pub name: String,
    pub dtype: Datatype,
    pub data: Bytes,
}

/// The whole metadata blob.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileMeta {
    /// Group paths in creation order (parents precede children).
    pub groups: Vec<String>,
    pub datasets: Vec<DatasetEntry>,
    pub attrs: Vec<AttrEntry>,
}

impl Encode for FileMeta {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.groups.len() as u64);
        for g in &self.groups {
            w.put_str(g);
        }
        w.put_u64(self.datasets.len() as u64);
        for d in &self.datasets {
            w.put_str(&d.path);
            w.put(&d.dtype);
            w.put(&d.space);
            w.put_u64(d.offset);
            match &d.chunks {
                None => w.put_u8(0),
                Some(ci) => {
                    w.put_u8(1);
                    w.put_u64s(&ci.chunk);
                    w.put_u64(ci.offsets.len() as u64);
                    for (coord, off) in &ci.offsets {
                        w.put_u64s(coord);
                        w.put_u64(*off);
                    }
                }
            }
        }
        w.put_u64(self.attrs.len() as u64);
        for a in &self.attrs {
            w.put_str(&a.owner);
            w.put_str(&a.name);
            w.put(&a.dtype);
            w.put_bytes(&a.data);
        }
    }
}

impl Decode for FileMeta {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self> {
        let ng = r.get_count(8)?; // a string is at least its length prefix
        let groups = (0..ng).map(|_| r.get_str()).collect::<H5Result<Vec<_>>>()?;
        let nd = r.get_count(8)?;
        let mut datasets = Vec::with_capacity(nd);
        for _ in 0..nd {
            let path = r.get_str()?;
            let dtype = r.get()?;
            let space = r.get()?;
            let offset = r.get_u64()?;
            let chunks = match r.get_u8()? {
                0 => None,
                1 => {
                    let chunk = r.get_u64s()?;
                    let n = r.get_count(16)?; // coord length prefix + offset
                    let mut offsets = Vec::with_capacity(n);
                    for _ in 0..n {
                        let coord = r.get_u64s()?;
                        let off = r.get_u64()?;
                        offsets.push((coord, off));
                    }
                    Some(ChunkIndex { chunk, offsets })
                }
                t => return Err(H5Error::Format(format!("bad layout tag {t}"))),
            };
            datasets.push(DatasetEntry { path, dtype, space, offset, chunks });
        }
        let na = r.get_count(8)?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            attrs.push(AttrEntry {
                owner: r.get_str()?,
                name: r.get_str()?,
                dtype: r.get()?,
                data: Bytes::copy_from_slice(r.get_bytes()?),
            });
        }
        Ok(FileMeta { groups, datasets, attrs })
    }
}

/// Export the metadata blob of the tree rooted at `root`.
///
/// Dataset `offset`s are taken from `offsets` when provided (native file
/// layout) and zero otherwise (in-memory trees shipped over the wire by
/// the LowFive distributed VOL).
pub fn export_meta(
    hier: &crate::tree::Hierarchy,
    root: crate::tree::NodeId,
    offsets: Option<&std::collections::HashMap<crate::tree::NodeId, u64>>,
) -> H5Result<FileMeta> {
    export_meta_with_chunks(hier, root, offsets, None)
}

/// As [`export_meta`], additionally recording chunked storage maps.
pub(crate) fn export_meta_with_chunks(
    hier: &crate::tree::Hierarchy,
    root: crate::tree::NodeId,
    offsets: Option<&std::collections::HashMap<crate::tree::NodeId, u64>>,
    chunks: Option<&std::collections::HashMap<crate::tree::NodeId, ChunkIndex>>,
) -> H5Result<FileMeta> {
    use crate::tree::NodeKind;
    let mut meta = FileMeta::default();
    // Pre-order: parents precede children, preserving creation order.
    hier.visit(root, |path, id, node| {
        match &node.kind {
            NodeKind::File { .. } => {}
            NodeKind::Group => meta.groups.push(path.to_string()),
            NodeKind::Dataset { dtype, space, chunk, .. } => {
                let offset = offsets.and_then(|m| m.get(&id).copied()).unwrap_or(0);
                // Prefer the storage connector's chunk map; otherwise ship
                // the chunk shape recorded in the tree (offsets are
                // meaningless off-storage).
                let ci = chunks.and_then(|m| m.get(&id).cloned()).or_else(|| {
                    chunk.clone().map(|chunk| ChunkIndex { chunk, offsets: Vec::new() })
                });
                meta.datasets.push(DatasetEntry {
                    path: path.to_string(),
                    dtype: dtype.clone(),
                    space: space.clone(),
                    offset,
                    chunks: ci,
                });
            }
        }
        for (name, (dtype, data)) in node.attributes.iter() {
            meta.attrs.push(AttrEntry {
                owner: path.to_string(),
                name: name.clone(),
                dtype: dtype.clone(),
                data: data.clone(),
            });
        }
    })?;
    Ok(meta)
}

/// Rebuild a tree under `root` from a metadata blob. Returns each
/// dataset's node id keyed by path.
pub fn import_meta(
    hier: &mut crate::tree::Hierarchy,
    root: crate::tree::NodeId,
    meta: &FileMeta,
) -> H5Result<std::collections::HashMap<String, crate::tree::NodeId>> {
    let mut dataset_nodes = std::collections::HashMap::new();
    for g in &meta.groups {
        let (parent_path, leaf) = split_meta_path(g);
        let parent = hier.resolve(root, parent_path)?;
        hier.create_group(parent, leaf)?;
    }
    for d in &meta.datasets {
        let (parent_path, leaf) = split_meta_path(&d.path);
        let parent = hier.resolve(root, parent_path)?;
        let node = match &d.chunks {
            Some(ci) => hier.create_dataset_chunked(
                parent,
                leaf,
                d.dtype.clone(),
                d.space.clone(),
                ci.chunk.clone(),
            )?,
            None => hier.create_dataset(parent, leaf, d.dtype.clone(), d.space.clone())?,
        };
        dataset_nodes.insert(d.path.clone(), node);
    }
    for a in &meta.attrs {
        let owner = hier.resolve(root, &a.owner)?;
        hier.set_attr(owner, &a.name, a.dtype.clone(), a.data.clone())?;
    }
    Ok(dataset_nodes)
}

/// Split `a/b/c` into (`a/b`, `c`); a bare name has an empty parent.
pub(crate) fn split_meta_path(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}

/// Write the fixed header at offset 0.
pub(crate) fn write_header(f: &File) -> H5Result<()> {
    let mut w = Writer::new();
    w.put_raw(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(0);
    f.write_all_at(&w.finish(), 0)?;
    Ok(())
}

/// Append the metadata blob at `at` and the trailer after it.
pub(crate) fn write_metadata(f: &File, at: u64, meta: &FileMeta) -> H5Result<()> {
    let blob = meta.to_bytes();
    f.write_all_at(&blob, at)?;
    let mut w = Writer::new();
    w.put_u64(at);
    w.put_u64(blob.len() as u64);
    w.put_raw(TRAILER_MAGIC);
    f.write_all_at(&w.finish(), at + blob.len() as u64)?;
    f.sync_data()?;
    Ok(())
}

/// Verify the header and read the metadata blob via the trailer.
pub(crate) fn read_metadata(f: &mut File) -> H5Result<FileMeta> {
    let len = f.metadata()?.len();
    if len < HEADER_LEN + TRAILER_LEN {
        return Err(H5Error::Format("file too short to be a minih5 file".into()));
    }
    let mut header = [0u8; HEADER_LEN as usize];
    f.read_exact_at(&mut header, 0)?;
    if &header[..8] != MAGIC {
        return Err(H5Error::Format("bad magic: not a minih5 file".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(H5Error::Format(format!("unsupported format version {version}")));
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    f.read_exact_at(&mut trailer, len - TRAILER_LEN)?;
    if &trailer[16..24] != TRAILER_MAGIC {
        return Err(H5Error::Format("bad trailer magic (file not closed?)".into()));
    }
    let meta_off = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    let meta_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    if meta_off + meta_len + TRAILER_LEN > len {
        return Err(H5Error::Format("trailer points past end of file".into()));
    }
    let mut blob = vec![0u8; meta_len as usize];
    f.read_exact_at(&mut blob, meta_off)?;
    let mut _unused = Vec::new();
    let _ = f.read(&mut _unused); // keep the &mut File signature honest
    FileMeta::from_bytes(&blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> FileMeta {
        FileMeta {
            groups: vec!["group1".into(), "group1/nested".into()],
            datasets: vec![DatasetEntry {
                path: "group1/grid".into(),
                dtype: Datatype::UInt64,
                space: Dataspace::simple(&[4, 4]),
                offset: HEADER_LEN,
                chunks: None,
            }],
            attrs: vec![AttrEntry {
                owner: "".into(),
                name: "step".into(),
                dtype: Datatype::UInt32,
                data: Bytes::from_static(&[2, 0, 0, 0]),
            }],
        }
    }

    #[test]
    fn meta_codec_roundtrip() {
        let m = sample_meta();
        assert_eq!(FileMeta::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn header_data_metadata_trailer_roundtrip() {
        let dir = std::env::temp_dir().join("minih5-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.nh5");
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        write_header(&f).unwrap();
        // 128 bytes of dataset data.
        f.write_all_at(&[0xCD; 128], HEADER_LEN).unwrap();
        let m = sample_meta();
        write_metadata(&f, HEADER_LEN + 128, &m).unwrap();
        drop(f);

        let mut f = File::open(&path).unwrap();
        assert_eq!(read_metadata(&mut f).unwrap(), m);
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("minih5-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bin");
        std::fs::write(&path, vec![7u8; 256]).unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_metadata(&mut f), Err(H5Error::Format(_))));
    }

    #[test]
    fn rejects_truncated_file() {
        let dir = std::env::temp_dir().join("minih5-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.nh5");
        std::fs::write(&path, b"MINIH5F\0").unwrap();
        let mut f = File::open(&path).unwrap();
        assert!(matches!(read_metadata(&mut f), Err(H5Error::Format(_))));
    }
}
