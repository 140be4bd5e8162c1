//! Regular block decomposition of a d-dimensional domain.

use minih5::BBox;

use crate::factor::factor_count;

/// Cuts the domain `[0, dims[i])` into a regular grid of blocks whose
/// per-dimension counts come from [`factor_count`] (paper Fig. 4's
/// "common decomposition"). Block global ids (gids) number blocks in
/// row-major order of their grid coordinates; the i-th producer process is
/// responsible for the i-th block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegularDecomposer {
    dims: Vec<u64>,
    /// Blocks per dimension.
    counts: Vec<usize>,
}

impl RegularDecomposer {
    /// Decompose `dims` into exactly `nblocks` blocks.
    ///
    /// # Panics
    /// Panics if `dims` is empty or `nblocks == 0`.
    pub fn new(dims: &[u64], nblocks: usize) -> Self {
        assert!(!dims.is_empty(), "domain must have at least one dimension");
        let counts = factor_count(nblocks, dims.len());
        RegularDecomposer { dims: dims.to_vec(), counts }
    }

    /// Total number of blocks.
    pub fn nblocks(&self) -> usize {
        self.counts.iter().product()
    }

    /// Blocks per dimension.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The domain shape.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Grid coordinates of block `gid` (row-major).
    pub(crate) fn block_coords(&self, gid: usize) -> Vec<usize> {
        assert!(gid < self.nblocks(), "gid {gid} out of range");
        let mut rem = gid;
        let mut coords = vec![0usize; self.counts.len()];
        for i in (0..self.counts.len()).rev() {
            coords[i] = rem % self.counts[i];
            rem /= self.counts[i];
        }
        coords
    }

    /// Bounds of block `gid`: dimension `i` is split into `counts[i]`
    /// near-equal pieces, remainder spread over the leading blocks.
    pub fn block_bounds(&self, gid: usize) -> BBox {
        let coords = self.block_coords(gid);
        let mut lo = Vec::with_capacity(coords.len());
        let mut hi = Vec::with_capacity(coords.len());
        for ((&c, &n), &dim) in coords.iter().zip(&self.counts).zip(&self.dims) {
            lo.push(dim_split(dim, n, c));
            hi.push(dim_split(dim, n, c + 1));
        }
        BBox::new(lo, hi)
    }

    /// Gids of all blocks whose bounds intersect `bb` — the lookup at the
    /// heart of index and query (Algorithms 1 and 3).
    ///
    /// The touched blocks' gids lie between the gid of the first touched
    /// block of every dimension and the gid of the last; each gid in that
    /// span is tested dimension by dimension against the box, so no block
    /// bounds (and no other temporary) are built. When blocks outnumber
    /// cells, the per-dimension test also skips the empty blocks.
    pub fn blocks_intersecting(&self, bb: &BBox) -> Vec<usize> {
        assert_eq!(bb.rank(), self.dims.len(), "bbox rank mismatch");
        let mut out = Vec::new();
        let (mut first, mut last) = (0usize, 0usize);
        for ((&dim, &n), (&lo, &hi)) in
            self.dims.iter().zip(&self.counts).zip(bb.lo.iter().zip(&bb.hi))
        {
            let (lo, hi) = (lo.min(dim), hi.min(dim));
            if lo >= hi {
                return out;
            }
            first = first * n + block_index_of(dim, n, lo);
            last = last * n + block_index_of(dim, n, hi - 1);
        }
        for gid in first..=last {
            // Row-major coordinates, last dimension first.
            let mut rem = gid;
            let hit = (0..self.dims.len()).rev().all(|i| {
                let (n, dim) = (self.counts[i], self.dims[i]);
                let c = rem % n;
                rem /= n;
                dim_split(dim, n, c).max(bb.lo[i]) < dim_split(dim, n, c + 1).min(bb.hi[i])
            });
            if hit {
                out.push(gid);
            }
        }
        out
    }
}

/// Boundary of piece `k` of `n` pieces of a `dim`-long axis.
fn dim_split(dim: u64, n: usize, k: usize) -> u64 {
    (dim * k as u64) / n as u64
}

/// Which of `n` pieces contains index `x` (0 ≤ x < dim).
fn block_index_of(dim: u64, n: usize, x: u64) -> usize {
    // Inverse of dim_split; linear scan avoided via direct formula then
    // boundary correction (integer division truncation).
    let mut k = ((x as u128 * n as u128) / dim as u128) as usize;
    while dim_split(dim, n, k + 1) <= x {
        k += 1;
    }
    while dim_split(dim, n, k) > x {
        k -= 1;
    }
    k.min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_blocks_over_2d_grid() {
        // Paper Fig. 4: 6 producer blocks over a 2-d domain → 3×2 grid.
        let d = RegularDecomposer::new(&[60, 40], 6);
        assert_eq!(d.counts(), &[3, 2]);
        assert_eq!(d.nblocks(), 6);
        let b0 = d.block_bounds(0);
        assert_eq!(b0, BBox::new(vec![0, 0], vec![20, 20]));
        let b5 = d.block_bounds(5);
        assert_eq!(b5, BBox::new(vec![40, 20], vec![60, 40]));
    }

    #[test]
    fn blocks_tile_the_domain_exactly() {
        for nblocks in [1usize, 2, 3, 5, 6, 8, 12, 16] {
            let d = RegularDecomposer::new(&[17, 23], nblocks);
            let total: u64 = (0..d.nblocks()).map(|g| d.block_bounds(g).npoints()).sum();
            assert_eq!(total, 17 * 23, "nblocks={nblocks}");
            // No two blocks overlap.
            for a in 0..d.nblocks() {
                for b in a + 1..d.nblocks() {
                    assert!(
                        !d.block_bounds(a).intersects(&d.block_bounds(b)),
                        "blocks {a} and {b} overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let d = RegularDecomposer::new(&[10, 10, 10], 12);
        for gid in 0..d.nblocks() {
            // Row-major: folding the coordinates back gives the gid.
            let coords = d.block_coords(gid);
            let back = coords.iter().zip(d.counts()).fold(0, |acc, (&c, &n)| acc * n + c);
            assert_eq!(back, gid);
        }
    }

    #[test]
    fn intersecting_blocks_found() {
        let d = RegularDecomposer::new(&[60, 40], 6); // 3x2 blocks of 20x20
                                                      // A box inside block 0 only.
        assert_eq!(d.blocks_intersecting(&BBox::new(vec![5, 5], vec![10, 10])), vec![0]);
        // A box crossing the vertical boundary of blocks 0 and 1.
        assert_eq!(d.blocks_intersecting(&BBox::new(vec![5, 15], vec![10, 25])), vec![0, 1]);
        // A box covering everything.
        assert_eq!(
            d.blocks_intersecting(&BBox::new(vec![0, 0], vec![60, 40])),
            vec![0, 1, 2, 3, 4, 5]
        );
        // Empty box.
        assert!(d.blocks_intersecting(&BBox::new(vec![5, 5], vec![5, 10])).is_empty());
    }

    #[test]
    fn intersecting_matches_bruteforce() {
        let d = RegularDecomposer::new(&[31, 17, 9], 24);
        let boxes = [
            BBox::new(vec![0, 0, 0], vec![31, 17, 9]),
            BBox::new(vec![3, 2, 1], vec![10, 9, 5]),
            BBox::new(vec![30, 16, 8], vec![31, 17, 9]),
            BBox::new(vec![0, 0, 0], vec![1, 1, 1]),
            BBox::new(vec![10, 5, 0], vec![25, 6, 9]),
        ];
        for bb in &boxes {
            let fast = d.blocks_intersecting(bb);
            let brute: Vec<usize> =
                (0..d.nblocks()).filter(|&g| d.block_bounds(g).intersects(bb)).collect();
            assert_eq!(fast, brute, "bb={bb:?}");
        }
    }

    #[test]
    fn clamps_boxes_beyond_domain() {
        let d = RegularDecomposer::new(&[10], 2);
        let all = d.blocks_intersecting(&BBox::new(vec![0], vec![100]));
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn block_index_of_is_inverse_of_split() {
        for (dim, n) in [(10u64, 3usize), (17, 5), (64, 8), (7, 7), (100, 1)] {
            for x in 0..dim {
                let k = block_index_of(dim, n, x);
                assert!(dim_split(dim, n, k) <= x && x < dim_split(dim, n, k + 1));
            }
        }
    }
}
