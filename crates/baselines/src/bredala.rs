//! A Bredala/Decaf-style semantic redistribution layer (Figs. 9–10).
//!
//! Bredala's data model is a *container* of annotated fields. Each field
//! carries a redistribution policy:
//!
//! * [`Policy::Contiguous`] — the field is a linear list of fixed-size
//!   items with no spatial meaning beyond global order. Redistribution
//!   only preserves ordering, so intersections are 1-d range overlaps and
//!   items move in contiguous chunks. Fast (the particles curve in
//!   Fig. 9).
//! * [`Policy::BoundingBox`] — items are grid points indexed by
//!   d-dimensional coordinates that must land inside each consumer's
//!   bounding box. Faithful to the measured behavior of Bredala, every
//!   point is tested and serialized individually **with its coordinates**
//!   (semantic annotations travel with the data), which is why the grid
//!   curve in Fig. 9 blows up: per-point intersection work plus
//!   `d × 8`-byte coordinate overhead per element.

use bytes::Bytes;
use simmpi::{Comm, Tag};

use minih5::codec::{Reader, Writer};
use minih5::BBox;

use crate::boxes::{local_offset, BoxCoords};

/// How a field is redistributed. Bredala "supports several redistribution
/// policies: round-robin, contiguous, and bounding box intersections";
/// the two that Fig. 9 measures are reproduced here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    /// Linear list of items; global order preserved.
    Contiguous {
        /// Bytes per item (e.g. 12 for a 3-float particle).
        item_size: usize,
        /// Global item range held locally `[start, end)`.
        range: (u64, u64),
    },
    /// Grid points constrained to bounding boxes.
    BoundingBox {
        /// Bytes per point.
        item_size: usize,
        /// Local box within the global domain.
        bbox: BBox,
    },
}

/// One annotated field of a container.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    pub policy: Policy,
    /// Items/points packed row-major (within the range or box).
    pub data: Bytes,
}

impl Field {
    pub fn contiguous(name: &str, item_size: usize, range: (u64, u64), data: Bytes) -> Field {
        assert_eq!(data.len() as u64, (range.1 - range.0) * item_size as u64);
        Field { name: name.to_string(), policy: Policy::Contiguous { item_size, range }, data }
    }

    pub fn bounding_box(name: &str, item_size: usize, bbox: BBox, data: Bytes) -> Field {
        assert_eq!(data.len() as u64, bbox.npoints() * item_size as u64);
        Field { name: name.to_string(), policy: Policy::BoundingBox { item_size, bbox }, data }
    }
}

/// A Bredala container: fields appended one at a time, each with its
/// redistribution annotations (the paper: "data intended to be moved among
/// tasks are first appended to a container … along with annotations
/// indicating how each field is handled during data redistribution").
#[derive(Debug, Clone, Default)]
pub struct Container {
    pub fields: Vec<Field>,
}

impl Container {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn append(&mut self, field: Field) -> &mut Self {
        self.fields.push(field);
        self
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Producer side of the contiguous policy: split the local item range by
/// the consumers' ranges and ship chunks (efficient memcpy path).
pub fn send_contiguous(world: &Comm, tag: Tag, field: &Field, consumers: &[(usize, (u64, u64))]) {
    let (item_size, range) = match &field.policy {
        Policy::Contiguous { item_size, range } => (*item_size, *range),
        _ => panic!("send_contiguous needs a Contiguous field"),
    };
    for &(rank, (cs, ce)) in consumers {
        let s = range.0.max(cs);
        let e = range.1.min(ce);
        if s >= e {
            continue;
        }
        let off = ((s - range.0) as usize) * item_size;
        let len = ((e - s) as usize) * item_size;
        // Header: global start index of this chunk.
        let mut w = Writer::new();
        w.put_u64(s);
        w.put_bytes(&field.data[off..off + len]);
        world.send(rank, tag, w.finish());
    }
}

/// Consumer side of the contiguous policy.
pub fn recv_contiguous(
    world: &Comm,
    tag: Tag,
    item_size: usize,
    my_range: (u64, u64),
    producers: &[(usize, (u64, u64))],
) -> Vec<u8> {
    let mut out = vec![0u8; ((my_range.1 - my_range.0) as usize) * item_size];
    for &(rank, (ps, pe)) in producers {
        let s = my_range.0.max(ps);
        let e = my_range.1.min(pe);
        if s >= e {
            continue;
        }
        let env = world.recv(rank.into(), tag.into());
        let mut r = Reader::new(&env.payload);
        let gs = r.get_u64().expect("chunk start");
        let chunk = r.get_bytes().expect("chunk body");
        let off = ((gs - my_range.0) as usize) * item_size;
        out[off..off + chunk.len()].copy_from_slice(chunk);
    }
    out
}

/// Producer side of the bounding-box policy: every point of each
/// producer–consumer intersection is serialized individually **with its
/// coordinates** — the per-point semantic path whose index computation and
/// communication dominated Bredala's measured time ("most of that time is
/// spent computing and communicating the indices of intersecting bounding
/// boxes").
pub fn send_bbox(world: &Comm, tag: Tag, field: &Field, consumers: &[(usize, BBox)]) {
    let (item_size, bbox) = match &field.policy {
        Policy::BoundingBox { item_size, bbox } => (*item_size, bbox.clone()),
        _ => panic!("send_bbox needs a BoundingBox field"),
    };
    for (rank, cbox) in consumers {
        let ibox = bbox.intersect(cbox);
        if ibox.is_empty() {
            continue;
        }
        let mut w = Writer::new();
        w.put_u64(ibox.npoints());
        for coord in BoxCoords::new(&ibox) {
            // Coordinates travel with every point (semantic annotations),
            // and the source offset is recomputed per point.
            for &c in &coord {
                w.put_u64(c);
            }
            let off = local_offset(&bbox, &coord) * item_size;
            w.put_raw(&field.data[off..off + item_size]);
        }
        world.send(*rank, tag, w.finish());
    }
}

/// Consumer side of the bounding-box policy: place each received point by
/// its coordinates.
pub fn recv_bbox(
    world: &Comm,
    tag: Tag,
    item_size: usize,
    my_box: &BBox,
    producers: &[(usize, BBox)],
) -> Vec<u8> {
    let rank_dims = my_box.rank();
    let mut out = vec![0u8; (my_box.npoints() as usize) * item_size];
    for (prank, pbox) in producers {
        if pbox.intersect(my_box).is_empty() {
            continue;
        }
        let env = world.recv((*prank).into(), tag.into());
        let mut r = Reader::new(&env.payload);
        let count = r.get_u64().expect("point count");
        let mut coord = vec![0u64; rank_dims];
        for _ in 0..count {
            for c in coord.iter_mut() {
                *c = r.get_u64().expect("coordinate");
            }
            let off = local_offset(my_box, &coord) * item_size;
            for b in 0..item_size {
                out[off + b] = r.get_u8().expect("value byte");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{TaskSpec, TaskWorld};

    /// Figure 10 top: a linear particle list, 3 producers → 2 consumers,
    /// ordering preserved.
    #[test]
    fn contiguous_policy_preserves_order() {
        const ITEM: usize = 12; // 3 x f32, like the paper's particles
        let specs = [TaskSpec::new("p", 3), TaskSpec::new("c", 2)];
        TaskWorld::run(&specs, |tc| {
            let pranges: Vec<(usize, (u64, u64))> = (0..3)
                .map(|r| (tc.world_rank_of(0, r), (r as u64 * 10, r as u64 * 10 + 10)))
                .collect();
            let cranges: Vec<(usize, (u64, u64))> = (0..2)
                .map(|r| (tc.world_rank_of(1, r), (r as u64 * 15, r as u64 * 15 + 15)))
                .collect();
            if tc.task_id == 0 {
                let range = pranges[tc.local.rank()].1;
                let mut data = Vec::new();
                for i in range.0..range.1 {
                    for k in 0..3 {
                        data.extend_from_slice(&(i as f32 + k as f32 * 0.25).to_le_bytes());
                    }
                }
                let f = Field::contiguous("particles", ITEM, range, data.into());
                send_contiguous(&tc.world, 11, &f, &cranges);
            } else {
                let my = cranges[tc.local.rank()].1;
                let got = recv_contiguous(&tc.world, 11, ITEM, my, &pranges);
                for (j, i) in (my.0..my.1).enumerate() {
                    for k in 0..3 {
                        let off = j * ITEM + k * 4;
                        let v = f32::from_le_bytes(got[off..off + 4].try_into().unwrap());
                        // All 3 coordinates of an item stay colocated.
                        assert_eq!(v, i as f32 + k as f32 * 0.25);
                    }
                }
            }
        });
    }

    /// Figure 10 bottom: grid points must land inside the consumers'
    /// boxes.
    #[test]
    fn bbox_policy_places_points_by_coordinates() {
        const N: u64 = 8;
        let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 2)];
        TaskWorld::run(&specs, |tc| {
            // Producers: row halves. Consumers: column halves.
            let pboxes: Vec<(usize, BBox)> = (0..2)
                .map(|r| {
                    (
                        tc.world_rank_of(0, r),
                        BBox::new(vec![r as u64 * 4, 0], vec![r as u64 * 4 + 4, N]),
                    )
                })
                .collect();
            let cboxes: Vec<(usize, BBox)> = (0..2)
                .map(|r| {
                    (
                        tc.world_rank_of(1, r),
                        BBox::new(vec![0, r as u64 * 4], vec![N, r as u64 * 4 + 4]),
                    )
                })
                .collect();
            if tc.task_id == 0 {
                let my = pboxes[tc.local.rank()].1.clone();
                let data: Vec<u8> =
                    BoxCoords::new(&my).flat_map(|c| (c[0] * N + c[1]).to_le_bytes()).collect();
                let f = Field::bounding_box("grid", 8, my, data.into());
                send_bbox(&tc.world, 13, &f, &cboxes);
            } else {
                let my = cboxes[tc.local.rank()].1.clone();
                let got = recv_bbox(&tc.world, 13, 8, &my, &pboxes);
                for (i, c) in BoxCoords::new(&my).enumerate() {
                    let v = u64::from_le_bytes(got[i * 8..i * 8 + 8].try_into().unwrap());
                    assert_eq!(v, c[0] * N + c[1]);
                }
            }
        });
    }

    #[test]
    fn container_api() {
        let mut c = Container::new();
        c.append(Field::contiguous("p", 4, (0, 2), vec![0u8; 8].into()));
        c.append(Field::bounding_box("g", 1, BBox::new(vec![0], vec![3]), vec![1u8, 2, 3].into()));
        assert_eq!(c.fields.len(), 2);
        assert!(c.field("p").is_some());
        assert!(c.field("missing").is_none());
    }

    #[test]
    #[should_panic]
    fn field_size_validated() {
        let _ = Field::contiguous("x", 4, (0, 3), vec![0u8; 8].into());
    }
}
