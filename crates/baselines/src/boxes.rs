//! Box coordinate iteration and local-offset arithmetic shared by the
//! baseline transports.

use minih5::BBox;

/// Row-major iterator over the coordinates inside a box.
pub struct BoxCoords {
    lo: Vec<u64>,
    hi: Vec<u64>,
    cur: Option<Vec<u64>>,
}

impl BoxCoords {
    pub fn new(bb: &BBox) -> Self {
        let cur = if bb.is_empty() { None } else { Some(bb.lo.clone()) };
        BoxCoords { lo: bb.lo.clone(), hi: bb.hi.clone(), cur }
    }
}

impl Iterator for BoxCoords {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        let cur = self.cur.as_mut()?;
        let out = cur.clone();
        // Odometer: increment the last dimension, carrying leftwards.
        let mut i = cur.len();
        loop {
            if i == 0 {
                self.cur = None;
                break;
            }
            i -= 1;
            cur[i] += 1;
            if cur[i] < self.hi[i] {
                break;
            }
            cur[i] = self.lo[i];
        }
        Some(out)
    }
}

/// Element offset of `coord` within the row-major packing of `bb`.
pub(crate) fn local_offset(bb: &BBox, coord: &[u64]) -> usize {
    let mut off = 0usize;
    for (i, &c) in coord.iter().enumerate() {
        let extent = (bb.hi[i] - bb.lo[i]) as usize;
        off = off * extent + (c - bb.lo[i]) as usize;
    }
    off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_row_major() {
        let bb = BBox::new(vec![1, 2], vec![3, 4]);
        let coords: Vec<Vec<u64>> = BoxCoords::new(&bb).collect();
        assert_eq!(coords, vec![vec![1, 2], vec![1, 3], vec![2, 2], vec![2, 3]]);
    }

    #[test]
    fn empty_box_yields_nothing() {
        let bb = BBox::new(vec![2], vec![2]);
        assert_eq!(BoxCoords::new(&bb).count(), 0);
    }

    #[test]
    fn offsets_match_iteration_order() {
        let bb = BBox::new(vec![5, 0, 1], vec![7, 3, 4]);
        for (i, c) in BoxCoords::new(&bb).enumerate() {
            assert_eq!(local_offset(&bb, &c), i);
        }
    }
}
