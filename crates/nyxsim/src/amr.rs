//! A two-level AMReX-style adaptive mesh.
//!
//! The paper's introduction motivates metadata-aware transport with "an
//! adaptive mesh refined (AMR) simulation that computes many datasets,
//! spanning a dozen variables at different resolutions, coupled to an
//! analysis task that consumes only a single variable at one resolution."
//! This module provides that structure: level 0 is the uniform grid;
//! level 1 consists of 2×-refined patches covering cells whose density
//! exceeds a refinement threshold. When a snapshot with refinement is
//! written, the consumer can (and in the benches does) read *only*
//! `level_0/density`, and the unread level-1 datasets never move.

use minih5::{BBox, Dataspace, Datatype, H5Result, H5};

/// One refined patch: a box on the *fine* index space (2× level 0) plus
/// its cell data.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Patch bounds in fine-level coordinates.
    pub bounds: BBox,
    /// Fine-cell densities, row-major within `bounds`.
    pub data: Vec<f64>,
}

/// A two-level AMR hierarchy for one rank's slab.
#[derive(Debug, Clone)]
pub struct AmrHierarchy {
    /// Global level-0 dims.
    pub dims: [u64; 3],
    /// This rank's level-0 slab bounds.
    pub slab: BBox,
    /// Level-0 data (row-major within `slab`).
    pub level0: Vec<f64>,
    /// Refined patches (level 1, fine coordinates).
    pub patches: Vec<Patch>,
}

impl AmrHierarchy {
    /// Build the hierarchy from a slab field: every level-0 cell with
    /// density above `refine_threshold` spawns a 2×2×2 fine patch whose
    /// cells share the coarse density (piecewise-constant prolongation);
    /// adjacent flagged cells produce adjacent patches.
    pub fn build(
        dims: [u64; 3],
        slab: BBox,
        level0: Vec<f64>,
        refine_threshold: f64,
    ) -> AmrHierarchy {
        assert_eq!(level0.len() as u64, slab.npoints());
        let ext: Vec<u64> = (0..3).map(|i| slab.hi[i] - slab.lo[i]).collect();
        let mut patches = Vec::new();
        for (i, &v) in level0.iter().enumerate() {
            if v <= refine_threshold {
                continue;
            }
            let iu = i as u64;
            let x = slab.lo[0] + iu / (ext[1] * ext[2]);
            let y = slab.lo[1] + (iu / ext[2]) % ext[1];
            let z = slab.lo[2] + iu % ext[2];
            let lo = vec![2 * x, 2 * y, 2 * z];
            let hi = vec![2 * x + 2, 2 * y + 2, 2 * z + 2];
            patches.push(Patch { bounds: BBox::new(lo, hi), data: vec![v; 8] });
        }
        AmrHierarchy { dims, slab, level0, patches }
    }

    /// Write the full hierarchy through the H5 API:
    ///
    /// ```text
    /// level_0/density               — the coarse grid (collective)
    /// level_1/density               — the fine grid (sparse writes, one
    ///                                 region per patch)
    /// ```
    ///
    /// Attributes record the refinement ratio. Metadata calls must be
    /// made collectively by all ranks (standard parallel-HDF5 contract).
    pub fn write(&self, h5: &H5, name: &str) -> H5Result<()> {
        self.write_with(h5, name, |_| Ok(()))
    }

    /// As [`AmrHierarchy::write`], additionally invoking `extra` on the
    /// open file before anything else (e.g. to attach workflow
    /// attributes). `extra` must behave identically on every rank.
    pub fn write_with(
        &self,
        h5: &H5,
        name: &str,
        extra: impl FnOnce(&minih5::H5File) -> H5Result<()>,
    ) -> H5Result<()> {
        let f = h5.create_file(name)?;
        extra(&f)?;
        f.set_attr("ref_ratio", 2u32)?;
        f.set_attr("num_levels", 2u32)?;
        let g0 = f.create_group("level_0")?;
        let d0 = g0.create_dataset("density", Datatype::Float64, Dataspace::simple(&self.dims))?;
        d0.write_selection(&self.slab.to_selection(), &self.level0)?;
        let fine_dims: Vec<u64> = self.dims.iter().map(|d| d * 2).collect();
        let g1 = f.create_group("level_1")?;
        let d1 = g1.create_dataset("density", Datatype::Float64, Dataspace::simple(&fine_dims))?;
        for p in &self.patches {
            d1.write_selection(&p.bounds.to_selection(), &p.data)?;
        }
        f.close()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minih5::Selection;

    fn slab_field() -> ([u64; 3], BBox, Vec<f64>) {
        let dims = [8, 8, 8];
        let slab = BBox::new(vec![0, 0, 0], vec![8, 8, 8]);
        let mut rho = vec![1.0f64; 512];
        rho[0] = 10.0; // cell (0,0,0)
        rho[7] = 12.0; // cell (0,0,7)
        (dims, slab, rho)
    }

    #[test]
    fn flags_cells_above_threshold() {
        let (dims, slab, rho) = slab_field();
        let amr = AmrHierarchy::build(dims, slab, rho, 5.0);
        assert_eq!(amr.patches.len(), 2);
        assert_eq!(amr.patches.iter().map(|p| p.bounds.npoints()).sum::<u64>(), 16);
        assert_eq!(amr.patches[0].bounds, BBox::new(vec![0, 0, 0], vec![2, 2, 2]));
        assert_eq!(amr.patches[1].bounds, BBox::new(vec![0, 0, 14], vec![2, 2, 16]));
        assert!(amr.patches.iter().all(|p| p.data.len() == 8));
    }

    #[test]
    fn no_refinement_when_quiet() {
        let dims = [4, 4, 4];
        let slab = BBox::new(vec![0, 0, 0], vec![4, 4, 4]);
        let amr = AmrHierarchy::build(dims, slab, vec![1.0; 64], 5.0);
        assert!(amr.patches.is_empty());
    }

    #[test]
    fn slab_offsets_respected() {
        let dims = [8, 4, 4];
        // Second x-slab [4,8).
        let slab = BBox::new(vec![4, 0, 0], vec![8, 4, 4]);
        let mut rho = vec![0.0; 64];
        rho[0] = 9.0; // local (0,0,0) = global (4,0,0)
        let amr = AmrHierarchy::build(dims, slab, rho, 1.0);
        assert_eq!(amr.patches.len(), 1);
        assert_eq!(amr.patches[0].bounds, BBox::new(vec![8, 0, 0], vec![10, 2, 2]));
    }

    #[test]
    fn writes_two_levels_through_h5() {
        let dir = std::env::temp_dir().join("nyxsim-amr-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("amr.nh5").to_str().unwrap().to_string();
        let (dims, slab, rho) = slab_field();
        let amr = AmrHierarchy::build(dims, slab, rho.clone(), 5.0);
        let h5 = H5::native();
        amr.write(&h5, &path).unwrap();

        let f = h5.open_file(&path).unwrap();
        assert_eq!(f.attr::<u32>("ref_ratio").unwrap(), 2);
        let d0 = f.open_dataset("level_0/density").unwrap();
        assert_eq!(d0.read_all::<f64>().unwrap(), rho);
        let d1 = f.open_dataset("level_1/density").unwrap();
        let (_, sp) = d1.meta().unwrap();
        assert_eq!(sp.dims(), &[16, 16, 16]);
        // A refined cell and an unrefined one.
        let v = d1.read_selection::<f64>(&Selection::block(&[0, 0, 0], &[1, 1, 1])).unwrap();
        assert_eq!(v, vec![10.0]);
        let empty = d1.read_selection::<f64>(&Selection::block(&[8, 8, 8], &[1, 1, 1])).unwrap();
        assert_eq!(empty, vec![0.0]);
        f.close().unwrap();
    }
}
