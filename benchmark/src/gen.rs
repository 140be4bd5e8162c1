//! Seed-derived inputs: grid geometry, payload values, expectations.
//!
//! The product only ever sees the generated buffers. A grid is 3-d `u64`,
//! producers own x-slabs, consumers read cross-cutting y-slabs (Fig. 3 of
//! the paper). Every cell holds `splitmix64(global_index ^ seed)`, except
//! the *stamp* cells — the first cell of every z-row in a producer slab's
//! first x-plane — which hold the step number, so that every consumer,
//! whatever its y-range, can tell a stale step from a fresh one.

use bytes::Bytes;
use minih5::{BBox, Selection};

/// The splitmix64 finalizer: a bijection on `u64`, so distinct cells of
/// one seed hold distinct values.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Geometry of one exchange: `producers` x-slabs of `slab` cells each,
/// read back as `consumers` y-slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    pub producers: usize,
    pub consumers: usize,
    /// Cells per producer along x, y, z.
    pub slab: [u64; 3],
}

impl Grid {
    /// Global dims `[slab.x * producers, slab.y, slab.z]`.
    pub fn dims(&self) -> [u64; 3] {
        [self.slab[0] * self.producers as u64, self.slab[1], self.slab[2]]
    }

    /// Bytes one producer writes per step.
    pub fn slab_bytes(&self) -> usize {
        (self.slab.iter().product::<u64>() * 8) as usize
    }

    /// Producer `p`'s x-slab.
    pub fn producer_box(&self, p: usize) -> BBox {
        let d = self.dims();
        let x0 = self.slab[0] * p as u64;
        BBox::new(vec![x0, 0, 0], vec![x0 + self.slab[0], d[1], d[2]])
    }

    /// Consumer `c`'s y-slab, cutting across every producer.
    pub fn consumer_box(&self, c: usize) -> BBox {
        let d = self.dims();
        let m = self.consumers as u64;
        BBox::new(vec![0, d[1] * c as u64 / m, 0], vec![d[0], d[1] * (c as u64 + 1) / m, d[2]])
    }

    /// What cell `(x, y, z)` holds at `step` under `seed`.
    pub fn expected(&self, seed: u64, step: u64, x: u64, y: u64, z: u64) -> u64 {
        if z == 0 && x.is_multiple_of(self.slab[0]) {
            return step;
        }
        let d = self.dims();
        splitmix64(((x * d[1] + y) * d[2] + z) ^ seed)
    }

    /// Producer `p`'s slab, packed row-major, with the stamp cells at
    /// step 0. Generated once per process; [`Grid::step_writes`] derives
    /// each step's buffers from it.
    pub fn base_slab(&self, seed: u64, p: usize) -> Bytes {
        let bb = self.producer_box(p);
        let mut out = Vec::with_capacity(self.slab_bytes());
        for x in bb.lo[0]..bb.hi[0] {
            for y in bb.lo[1]..bb.hi[1] {
                for z in bb.lo[2]..bb.hi[2] {
                    out.extend_from_slice(&self.expected(seed, 0, x, y, z).to_le_bytes());
                }
            }
        }
        Bytes::from(out)
    }

    /// The dataset writes of producer `p` for `step`: `(selection, packed
    /// bytes)` pairs tiling its slab. The first x-plane is a fresh buffer
    /// carrying the step stamps; the rest of a slab larger than
    /// [`SHARE_ABOVE`] is a refcounted slice of `base`, so a product that
    /// retains served files does not make the *harness* hold one slab
    /// per step.
    pub fn step_writes(&self, base: &Bytes, p: usize, step: u64) -> Vec<(Selection, Bytes)> {
        let bb = self.producer_box(p);
        let [sx, sy, sz] = self.slab;
        let fresh_planes = if base.len() > SHARE_ABOVE { 1 } else { sx };
        let fresh_len = (fresh_planes * sy * sz * 8) as usize;
        let mut fresh = base[..fresh_len].to_vec();
        for row in 0..sy as usize {
            let at = row * sz as usize * 8;
            fresh[at..at + 8].copy_from_slice(&step.to_le_bytes());
        }
        let mut writes =
            vec![(Selection::block(&bb.lo, &[fresh_planes, sy, sz]), Bytes::from(fresh))];
        if fresh_planes < sx {
            writes.push((
                Selection::block(&[bb.lo[0] + 1, 0, 0], &[sx - 1, sy, sz]),
                base.slice(fresh_len..),
            ));
        }
        writes
    }

    /// Consumer `c`'s reads for one step: its y-slab cut along x into
    /// `chunks` boxes at seed-derived cut points. Concatenated in order,
    /// the chunks' packed bytes equal the packed y-slab.
    pub fn consumer_chunks(&self, seed: u64, c: usize, chunks: usize) -> Vec<BBox> {
        let bb = self.consumer_box(c);
        let xs = bb.hi[0];
        assert!(chunks >= 1 && (chunks as u64) <= xs, "more chunks than x-planes");
        let mut cuts = vec![0, xs];
        let mut draw = splitmix64(seed ^ 0xC0FF_EE00 ^ c as u64);
        while cuts.len() < chunks + 1 {
            let cut = 1 + draw % (xs - 1);
            if !cuts.contains(&cut) {
                cuts.push(cut);
            }
            draw = splitmix64(draw);
        }
        cuts.sort_unstable();
        cuts.windows(2)
            .map(|w| BBox::new(vec![w[0], bb.lo[1], 0], vec![w[1], bb.hi[1], bb.hi[2]]))
            .collect()
    }

    /// Coordinates of packed element `i` of box `bb`.
    fn coords(bb: &BBox, i: u64) -> (u64, u64, u64) {
        let ey = bb.hi[1] - bb.lo[1];
        let ez = bb.hi[2] - bb.lo[2];
        (bb.lo[0] + i / (ey * ez), bb.lo[1] + (i / ez) % ey, bb.lo[2] + i % ez)
    }

    fn cell(buf: &[u8], i: u64) -> u64 {
        let at = i as usize * 8;
        u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte cell"))
    }

    /// Compare every byte of `buf`, the packed read of `bb`, with the
    /// expectation.
    pub fn verify_full(&self, seed: u64, step: u64, bb: &BBox, buf: &[u8]) -> bool {
        if buf.len() as u64 != bb.npoints() * 8 {
            return false;
        }
        let mut i = 0;
        for x in bb.lo[0]..bb.hi[0] {
            for y in bb.lo[1]..bb.hi[1] {
                for z in bb.lo[2]..bb.hi[2] {
                    if Self::cell(buf, i) != self.expected(seed, step, x, y, z) {
                        return false;
                    }
                    i += 1;
                }
            }
        }
        true
    }

    /// The cheap check of measured trials: length, the first step stamp
    /// of every producer slab the box touches, and [`SAMPLE_CELLS`]
    /// evenly strided cells.
    pub fn verify_sample(&self, seed: u64, step: u64, bb: &BBox, buf: &[u8]) -> bool {
        let n = bb.npoints();
        if buf.len() as u64 != n * 8 {
            return false;
        }
        let plane = (bb.hi[1] - bb.lo[1]) * (bb.hi[2] - bb.lo[2]);
        let first_slab_plane = bb.lo[0].next_multiple_of(self.slab[0]);
        let stamps = (first_slab_plane..bb.hi[0])
            .step_by(self.slab[0] as usize)
            .map(|x| (x - bb.lo[0]) * plane);
        let stride = (n / SAMPLE_CELLS).max(1);
        let strided = (0..n).step_by(stride as usize).take(SAMPLE_CELLS as usize);
        stamps.chain(strided).all(|i| {
            let (x, y, z) = Self::coords(bb, i);
            Self::cell(buf, i) == self.expected(seed, step, x, y, z)
        })
    }
}

/// Slabs up to this size are rewritten whole each step; larger ones share
/// everything past their first x-plane across steps.
pub const SHARE_ABOVE: usize = 64 << 10;

/// Cells [`Grid::verify_sample`] strides over.
pub const SAMPLE_CELLS: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use minih5::Dataspace;

    const G: Grid = Grid { producers: 2, consumers: 3, slab: [40, 36, 30] };

    fn packed_read(g: &Grid, seed: u64, step: u64, bb: &BBox) -> Vec<u8> {
        let mut out = Vec::new();
        for x in bb.lo[0]..bb.hi[0] {
            for y in bb.lo[1]..bb.hi[1] {
                for z in bb.lo[2]..bb.hi[2] {
                    out.extend_from_slice(&g.expected(seed, step, x, y, z).to_le_bytes());
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(G.base_slab(7, 1), G.base_slab(7, 1));
        assert_ne!(G.base_slab(7, 1), G.base_slab(8, 1));
        assert_eq!(G.consumer_chunks(7, 2, 4), G.consumer_chunks(7, 2, 4));
        assert_ne!(G.consumer_chunks(7, 2, 4), G.consumer_chunks(8, 2, 4));
    }

    #[test]
    fn step_writes_tile_the_slab_and_match_the_expectation() {
        assert!(G.slab_bytes() > SHARE_ABOVE);
        let small = Grid { producers: 2, consumers: 2, slab: [4, 4, 4] };
        for g in [G, small] {
            let space = Dataspace::simple(&g.dims());
            for p in 0..g.producers {
                let base = g.base_slab(11, p);
                let writes = g.step_writes(&base, p, 5);
                let cells: u64 = writes.iter().map(|(s, _)| s.npoints(&space)).sum();
                assert_eq!(cells * 8, g.slab_bytes() as u64);
                let packed: Vec<u8> = writes.iter().flat_map(|(_, b)| b.to_vec()).collect();
                assert_eq!(packed, packed_read(&g, 11, 5, &g.producer_box(p)));
            }
        }
    }

    #[test]
    fn chunks_partition_the_consumer_box_in_order() {
        for c in 0..G.consumers {
            let whole = G.consumer_box(c);
            let chunks = G.consumer_chunks(3, c, 4);
            assert_eq!(chunks.len(), 4);
            assert_eq!(chunks[0].lo, whole.lo);
            assert_eq!(chunks[3].hi, whole.hi);
            for w in chunks.windows(2) {
                assert_eq!(w[0].hi[0], w[1].lo[0]);
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn verification_accepts_the_truth_and_rejects_a_stale_step_or_a_flip() {
        for c in 0..G.consumers {
            let bb = G.consumer_box(c);
            let good = packed_read(&G, 9, 4, &bb);
            assert!(G.verify_full(9, 4, &bb, &good));
            assert!(G.verify_sample(9, 4, &bb, &good));
            let stale = packed_read(&G, 9, 3, &bb);
            assert!(!G.verify_full(9, 4, &bb, &stale));
            assert!(!G.verify_sample(9, 4, &bb, &stale), "consumer {c} must see a stamp");
            assert!(!G.verify_sample(9, 4, &bb, &good[8..]), "short read");
            let mut flipped = good.clone();
            flipped[good.len() / 2] ^= 1;
            assert!(!G.verify_full(9, 4, &bb, &flipped));
        }
    }
}
