//! The synthetic benchmark workload of §IV-B.
//!
//! "We generate synthetic data consisting of two datasets: a regular grid
//! of 64-bit unsigned integer scalar values and a list of particles, each
//! particle a 3-d vector of 32-bit floating-point values. … The values of
//! the grid points and particles encode their global position."
//!
//! The grid is 3-d, slab-decomposed along x on the producer side and —
//! to force a genuine redistribution, as in Fig. 3 — along y on the
//! consumer side. Particles are a 1-d list in contiguous chunks on both
//! sides. Three-fourths of the ranks produce, one-fourth consume
//! (plus optional staging ranks for DataSpaces).

use minih5::{BBox, Selection};

/// One weak-scaling configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub producers: usize,
    pub consumers: usize,
    /// Grid points per producer rank (the paper uses 1e6; scaled here).
    pub grid_per_prod: u64,
    /// Particles per producer rank.
    pub particles_per_prod: u64,
}

impl Workload {
    /// The paper's split: 3/4 producers, 1/4 consumers of `total` ranks.
    pub fn paper_split(total: usize, grid_per_prod: u64, particles_per_prod: u64) -> Workload {
        assert!(
            total >= 4 && total.is_multiple_of(4),
            "total ranks must be a positive multiple of 4"
        );
        Workload {
            producers: total * 3 / 4,
            consumers: total / 4,
            grid_per_prod,
            particles_per_prod,
        }
    }

    /// Per-producer subgrid side: the largest `s` with `s³ ≤ grid_per_prod`
    /// (the actual per-producer grid count is `s³`).
    pub(crate) fn subgrid_side(&self) -> u64 {
        let mut s = (self.grid_per_prod as f64).cbrt().round() as u64;
        while s.pow(3) > self.grid_per_prod {
            s -= 1;
        }
        s.max(1)
    }

    /// Global grid dims `[s·n, s, s]`.
    pub fn grid_dims(&self) -> Vec<u64> {
        let s = self.subgrid_side();
        vec![s * self.producers as u64, s, s]
    }

    /// Actual global grid point count.
    pub fn total_grid_points(&self) -> u64 {
        self.grid_dims().iter().product()
    }

    /// Total particles.
    pub fn total_particles(&self) -> u64 {
        self.particles_per_prod * self.producers as u64
    }

    /// Total exchanged payload in bytes (grid u64 + particles 3×f32).
    pub fn total_bytes(&self) -> u64 {
        self.total_grid_points() * 8 + self.total_particles() * 12
    }

    /// Producer `p`'s grid slab (x-decomposed).
    pub fn producer_grid_box(&self, p: usize) -> BBox {
        let d = self.grid_dims();
        let s = self.subgrid_side();
        BBox::new(vec![s * p as u64, 0, 0], vec![s * (p as u64 + 1), d[1], d[2]])
    }

    /// Consumer `c`'s grid slab (y-decomposed — cross-cutting the
    /// producers, Fig. 3 style).
    pub fn consumer_grid_box(&self, c: usize) -> BBox {
        let d = self.grid_dims();
        let m = self.consumers as u64;
        let y0 = d[1] * c as u64 / m;
        let y1 = d[1] * (c as u64 + 1) / m;
        BBox::new(vec![0, y0, 0], vec![d[0], y1, d[2]])
    }

    pub fn producer_grid_sel(&self, p: usize) -> Selection {
        self.producer_grid_box(p).to_selection()
    }

    pub fn consumer_grid_sel(&self, c: usize) -> Selection {
        self.consumer_grid_box(c).to_selection()
    }

    /// Grid values for a box: each value encodes its global linear index.
    pub fn grid_values(&self, bb: &BBox) -> Vec<u64> {
        let d = self.grid_dims();
        let mut out = Vec::with_capacity(bb.npoints() as usize);
        for x in bb.lo[0]..bb.hi[0] {
            for y in bb.lo[1]..bb.hi[1] {
                for z in bb.lo[2]..bb.hi[2] {
                    out.push(x * d[1] * d[2] + y * d[2] + z);
                }
            }
        }
        out
    }

    /// Producer `p`'s particle index range.
    pub fn producer_part_range(&self, p: usize) -> (u64, u64) {
        (self.particles_per_prod * p as u64, self.particles_per_prod * (p as u64 + 1))
    }

    /// Consumer `c`'s particle index range (near-equal contiguous split).
    pub fn consumer_part_range(&self, c: usize) -> (u64, u64) {
        let total = self.total_particles();
        let m = self.consumers as u64;
        (total * c as u64 / m, total * (c as u64 + 1) / m)
    }

    /// Particle payload for an index range: particle `i` is
    /// `(i, i + 0.5, -i)` as `f32`s (position-encoding validation data).
    pub fn particle_bytes(&self, range: (u64, u64)) -> Vec<u8> {
        let mut out = Vec::with_capacity(((range.1 - range.0) * 12) as usize);
        for i in range.0..range.1 {
            out.extend_from_slice(&(i as f32).to_le_bytes());
            out.extend_from_slice(&(i as f32 + 0.5).to_le_bytes());
            out.extend_from_slice(&(-(i as f32)).to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_split_ratios() {
        let w = Workload::paper_split(16, 1000, 1000);
        assert_eq!(w.producers, 12);
        assert_eq!(w.consumers, 4);
    }

    #[test]
    fn producer_boxes_tile_grid() {
        let w = Workload::paper_split(8, 1000, 500);
        let total: u64 = (0..w.producers).map(|p| w.producer_grid_box(p).npoints()).sum();
        assert_eq!(total, w.total_grid_points());
        // Per-producer count is s³ ≤ requested.
        assert!(w.producer_grid_box(0).npoints() <= 1000);
    }

    #[test]
    fn consumer_boxes_tile_grid() {
        let w = Workload::paper_split(8, 1000, 500);
        let total: u64 = (0..w.consumers).map(|c| w.consumer_grid_box(c).npoints()).sum();
        assert_eq!(total, w.total_grid_points());
    }

    #[test]
    fn particle_ranges_partition() {
        let w = Workload::paper_split(8, 1000, 777);
        let last = (0..w.consumers).fold(0u64, |acc, c| {
            let (s, e) = w.consumer_part_range(c);
            assert_eq!(s, acc);
            e
        });
        assert_eq!(last, w.total_particles());
    }

    #[test]
    fn grid_values_encode_position() {
        let w = Workload { producers: 2, consumers: 1, grid_per_prod: 8, particles_per_prod: 4 };
        let d = w.grid_dims();
        assert_eq!(d, vec![4, 2, 2]);
        let bb = w.producer_grid_box(1);
        let vals = w.grid_values(&bb);
        // First value of slab 1 is global index of (2,0,0) = 8.
        assert_eq!(vals[0], 8);
        assert_eq!(vals.len() as u64, bb.npoints());
    }

    #[test]
    fn particle_bytes_encode_index() {
        let w = Workload { producers: 1, consumers: 1, grid_per_prod: 8, particles_per_prod: 4 };
        let b = w.particle_bytes((2, 4));
        assert_eq!(b.len(), 24);
        let x = f32::from_le_bytes(b[0..4].try_into().unwrap());
        assert_eq!(x, 2.0);
        let z = f32::from_le_bytes(b[20..24].try_into().unwrap());
        assert_eq!(z, -3.0);
    }
}
