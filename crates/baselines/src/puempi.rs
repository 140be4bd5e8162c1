//! The hand-written "pure MPI" redistribution (Fig. 7 comparator).
//!
//! Unlike LowFive, both sides know each other's decomposition statically:
//! producers compute the intersection of their local box with every
//! consumer box and ship it; consumers post one receive per intersecting
//! producer. There is no metadata exchange, no indexing, no serve loop —
//! but serialization is **per point**, with coordinate arithmetic on every
//! element, as the paper describes of the comparator code.

use simmpi::{Comm, Tag};

use minih5::BBox;

use crate::boxes::{local_offset, BoxCoords};

/// Producer side: ship the intersection of `(my_box, data)` with each
/// consumer box, one message per consumer with a nonempty intersection.
///
/// `data` holds the elements of `my_box` packed row-major, `es` bytes
/// each. An empty intersection sends nothing (both sides compute the same
/// intersections, so receives match).
pub fn send_grid(
    world: &Comm,
    tag: Tag,
    es: usize,
    my_box: &BBox,
    data: &[u8],
    consumers: &[(usize, BBox)],
) {
    assert_eq!(data.len() as u64, my_box.npoints() * es as u64, "data size matches box");
    for (rank, cbox) in consumers {
        let ibox = my_box.intersect(cbox);
        if ibox.is_empty() {
            continue;
        }
        // One point at a time: offset arithmetic per element.
        let mut buf = Vec::with_capacity((ibox.npoints() as usize) * es);
        for coord in BoxCoords::new(&ibox) {
            let off = local_offset(my_box, &coord) * es;
            buf.extend_from_slice(&data[off..off + es]);
        }
        world.send(*rank, tag, buf);
    }
}

/// Consumer side: receive from every producer whose box intersects
/// `my_box` and scatter, one point at a time, into the packed local
/// buffer. Returns the `my_box` elements packed row-major.
pub fn recv_grid(
    world: &Comm,
    tag: Tag,
    es: usize,
    my_box: &BBox,
    producers: &[(usize, BBox)],
) -> Vec<u8> {
    let mut out = vec![0u8; (my_box.npoints() as usize) * es];
    for (rank, pbox) in producers {
        let ibox = pbox.intersect(my_box);
        if ibox.is_empty() {
            continue;
        }
        let env = world.recv((*rank).into(), tag.into());
        assert_eq!(env.payload.len() as u64, ibox.npoints() * es as u64);
        let mut p = 0usize;
        for coord in BoxCoords::new(&ibox) {
            let off = local_offset(my_box, &coord) * es;
            out[off..off + es].copy_from_slice(&env.payload[p..p + es]);
            p += es;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{TaskSpec, TaskWorld};

    /// 2 producers (rows) → 3 consumers (columns) on a 6x6 byte grid.
    #[test]
    fn row_to_column_exchange() {
        const N: u64 = 6;
        let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 3)];
        TaskWorld::run(&specs, |tc| {
            let prod_boxes: Vec<(usize, BBox)> = (0..2)
                .map(|r| {
                    (
                        tc.world_rank_of(0, r),
                        BBox::new(vec![r as u64 * 3, 0], vec![r as u64 * 3 + 3, N]),
                    )
                })
                .collect();
            let cons_boxes: Vec<(usize, BBox)> = (0..3)
                .map(|r| {
                    (
                        tc.world_rank_of(1, r),
                        BBox::new(vec![0, r as u64 * 2], vec![N, r as u64 * 2 + 2]),
                    )
                })
                .collect();
            if tc.task_id == 0 {
                let my_box = prod_boxes[tc.local.rank()].1.clone();
                // value = global linear index (as u8, small grid).
                let data: Vec<u8> =
                    BoxCoords::new(&my_box).map(|c| (c[0] * N + c[1]) as u8).collect();
                send_grid(&tc.world, 7, 1, &my_box, &data, &cons_boxes);
            } else {
                let my_box = cons_boxes[tc.local.rank()].1.clone();
                let got = recv_grid(&tc.world, 7, 1, &my_box, &prod_boxes);
                let expect: Vec<u8> =
                    BoxCoords::new(&my_box).map(|c| (c[0] * N + c[1]) as u8).collect();
                assert_eq!(got, expect);
            }
        });
    }

    #[test]
    fn multibyte_elements() {
        let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 2)];
        TaskWorld::run(&specs, |tc| {
            let pbox = BBox::new(vec![0], vec![8]);
            let prod = vec![(tc.world_rank_of(0, 0), pbox.clone())];
            let cons: Vec<(usize, BBox)> = (0..2)
                .map(|r| {
                    (tc.world_rank_of(1, r), BBox::new(vec![r as u64 * 4], vec![r as u64 * 4 + 4]))
                })
                .collect();
            if tc.task_id == 0 {
                let data: Vec<u8> = (0..8u64).flat_map(|v| v.to_le_bytes()).collect();
                send_grid(&tc.world, 9, 8, &pbox, &data, &cons);
            } else {
                let my_box = cons[tc.local.rank()].1.clone();
                let got = recv_grid(&tc.world, 9, 8, &my_box, &prod);
                let vals: Vec<u64> =
                    got.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
                let base = tc.local.rank() as u64 * 4;
                assert_eq!(vals, (base..base + 4).collect::<Vec<u64>>());
            }
        });
    }
}
