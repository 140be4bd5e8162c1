//! Selections: HDF5-style hyperslab and point selections, with the algebra
//! LowFive's redistribution is built on.
//!
//! The two load-bearing operations are:
//!
//! * [`Selection::runs`] — decompose a selection into maximal **contiguous
//!   runs** of the row-major linearization of its dataspace. Packing a
//!   selection then becomes a handful of `memcpy`s instead of a per-element
//!   loop; the paper credits exactly this ("LowFive optimizes the
//!   serialization of contiguous regions") for beating hand-written MPI at
//!   small scale (§IV-B-c). Whole trailing dimensions are folded into
//!   their parent before enumeration, so the cost is proportional to the
//!   runs produced, not to the rows of the selection.
//! * [`overlap_runs`] — intersect two sorted run lists while tracking each
//!   side's *packed* offsets. This single primitive implements producer-side
//!   extraction ("which bytes of my packed write match your query") and
//!   consumer-side scatter ("where do the received bytes land in my read
//!   buffer"), for arbitrary selections, not just boxes.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::{H5Error, H5Result};
use crate::space::Dataspace;

/// A maximal contiguous interval `[offset, offset+len)` of the row-major
/// linearization of a dataspace, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub offset: u64,
    pub len: u64,
}

/// A piece of the intersection of two selections: `len` elements at linear
/// `offset`, which sit at packed element offset `a_off` within selection
/// A's packed buffer and `b_off` within selection B's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapRun {
    pub offset: u64,
    pub len: u64,
    pub a_off: u64,
    pub b_off: u64,
}

/// An axis-aligned box with inclusive lower and exclusive upper corners.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BBox {
    pub lo: Vec<u64>,
    pub hi: Vec<u64>,
}

impl BBox {
    /// Construct from corners. `lo.len()` must equal `hi.len()`.
    pub fn new(lo: Vec<u64>, hi: Vec<u64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner ranks differ");
        BBox { lo, hi }
    }

    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// True if any dimension has zero (or negative) extent.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l >= h)
    }

    /// Number of points inside the box (0 if empty).
    pub fn npoints(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Intersection with another box of the same rank. A disjoint pair
    /// yields the **canonical** empty box (`lo = hi = 0⃗`) rather than
    /// whatever `max(lo)/min(hi)` corners the inputs happened to
    /// produce: empty intersections of different inputs compare equal,
    /// hash equally (boxes key consumer caches), and convert to an
    /// in-bounds empty selection.
    pub fn intersect(&self, other: &BBox) -> BBox {
        assert_eq!(self.rank(), other.rank(), "box ranks differ");
        let lo: Vec<u64> = self.lo.iter().zip(&other.lo).map(|(a, b)| *a.max(b)).collect();
        let hi: Vec<u64> = self.hi.iter().zip(&other.hi).map(|(a, b)| *a.min(b)).collect();
        if lo.iter().zip(&hi).any(|(l, h)| l >= h) {
            return BBox { lo: vec![0; self.rank()], hi: vec![0; self.rank()] };
        }
        BBox { lo, hi }
    }

    /// True if the intersection with `other` is non-empty: every
    /// dimension's larger lower corner lies below its smaller upper one.
    /// Compared in place; no box is built.
    pub fn intersects(&self, other: &BBox) -> bool {
        assert_eq!(self.rank(), other.rank(), "box ranks differ");
        (0..self.rank()).all(|i| self.lo[i].max(other.lo[i]) < self.hi[i].min(other.hi[i]))
    }

    /// True if `coord` lies inside the box.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.rank()
            && coord.iter().zip(self.lo.iter().zip(&self.hi)).all(|(c, (l, h))| c >= l && c < h)
    }

    /// The selection covering exactly this box. Any empty box — canonical
    /// or not — maps to the origin-anchored empty block, so the result
    /// validates against every dataspace of the same rank.
    pub fn to_selection(&self) -> Selection {
        if self.is_empty() {
            let zeros = vec![0u64; self.rank()];
            return Selection::block(&zeros, &zeros);
        }
        let sizes: Vec<u64> = self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect();
        Selection::block(&self.lo, &sizes)
    }
}

impl Encode for BBox {
    fn encode(&self, w: &mut Writer) {
        w.put_u64s(&self.lo);
        w.put_u64s(&self.hi);
    }
}

impl Decode for BBox {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self> {
        let lo = r.get_u64s()?;
        let hi = r.get_u64s()?;
        if lo.len() != hi.len() {
            return Err(H5Error::Format("bbox corner ranks differ".into()));
        }
        Ok(BBox { lo, hi })
    }
}

/// Per-dimension hyperslab parameters (HDF5 `H5Sselect_hyperslab`):
/// `count` blocks of `block` consecutive indices, the blocks spaced
/// `stride` apart, starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabDim {
    pub start: u64,
    pub stride: u64,
    pub count: u64,
    pub block: u64,
}

impl SlabDim {
    /// Extent touched by this dimension: last selected index + 1.
    fn upper(&self) -> u64 {
        if self.count == 0 || self.block == 0 {
            return self.start;
        }
        self.start + (self.count - 1) * self.stride + self.block
    }

    /// Number of selected indices in this dimension.
    fn n(&self) -> u64 {
        self.count * self.block
    }
}

/// An element selection within a dataspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every element.
    All,
    /// A regular hyperslab, one [`SlabDim`] per dimension.
    Hyperslab(Vec<SlabDim>),
    /// An explicit list of points, `coords` flattened as `n × rank`.
    ///
    /// Note: unlike HDF5, point selections are *canonicalized to row-major
    /// order* when packed, so that [`Selection::runs`] is always sorted.
    Points { rank: usize, coords: Vec<u64> },
    /// A union of selections (HDF5 `H5S_SELECT_OR`): an element is
    /// selected if any member selects it; overlaps count once. Packing
    /// order is row-major over the union, like every other variant.
    Union(Vec<Selection>),
}

impl Selection {
    /// Everything.
    pub fn all() -> Selection {
        Selection::All
    }

    /// A contiguous box: `size[i]` consecutive indices from `start[i]`.
    pub fn block(start: &[u64], size: &[u64]) -> Selection {
        assert_eq!(start.len(), size.len(), "start/size ranks differ");
        Selection::Hyperslab(
            start
                .iter()
                .zip(size)
                .map(|(&s, &n)| SlabDim { start: s, stride: n.max(1), count: 1, block: n })
                .collect(),
        )
    }

    /// A general strided hyperslab.
    pub fn strided(start: &[u64], stride: &[u64], count: &[u64], block: &[u64]) -> Selection {
        assert!(
            start.len() == stride.len() && start.len() == count.len() && start.len() == block.len(),
            "hyperslab parameter ranks differ"
        );
        Selection::Hyperslab(
            (0..start.len())
                .map(|i| SlabDim {
                    start: start[i],
                    stride: stride[i],
                    count: count[i],
                    block: block[i],
                })
                .collect(),
        )
    }

    /// The union of several selections (nested unions are flattened).
    pub fn union(members: Vec<Selection>) -> Selection {
        let mut flat = Vec::with_capacity(members.len());
        for m in members {
            match m {
                Selection::Union(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("one member")
        } else {
            Selection::Union(flat)
        }
    }

    /// A point selection from coordinate tuples.
    pub fn points(rank: usize, pts: &[&[u64]]) -> Selection {
        let mut coords = Vec::with_capacity(pts.len() * rank);
        for p in pts {
            assert_eq!(p.len(), rank, "point rank mismatch");
            coords.extend_from_slice(p);
        }
        Selection::Points { rank, coords }
    }

    /// Number of selected elements within `space`.
    pub fn npoints(&self, space: &Dataspace) -> u64 {
        match self {
            Selection::All => space.npoints(),
            Selection::Hyperslab(dims) => dims.iter().map(SlabDim::n).product(),
            Selection::Points { rank, coords } => {
                if *rank == 0 {
                    0
                } else {
                    (coords.len() / rank) as u64
                }
            }
            // Overlaps between members count once, so the union's size is
            // only known after run normalization.
            Selection::Union(_) => self.runs(space).iter().map(|r| r.len).sum(),
        }
    }

    /// Check the selection is well-formed and fits inside `space`.
    pub fn validate(&self, space: &Dataspace) -> H5Result<()> {
        let err = |m: String| Err(H5Error::ShapeMismatch(m));
        match self {
            Selection::All => Ok(()),
            Selection::Hyperslab(dims) => {
                if dims.len() != space.rank() {
                    return err(format!(
                        "hyperslab rank {} vs dataspace rank {}",
                        dims.len(),
                        space.rank()
                    ));
                }
                for (i, (d, &ext)) in dims.iter().zip(space.dims()).enumerate() {
                    if d.stride == 0 {
                        return err(format!("dim {i}: stride must be ≥ 1"));
                    }
                    if d.count > 1 && d.block > d.stride {
                        return err(format!("dim {i}: blocks overlap (block > stride)"));
                    }
                    if d.n() > 0 && d.upper() > ext {
                        return err(format!(
                            "dim {i}: selection extends to {} beyond extent {}",
                            d.upper(),
                            ext
                        ));
                    }
                }
                Ok(())
            }
            Selection::Union(members) => {
                for m in members {
                    m.validate(space)?;
                }
                Ok(())
            }
            Selection::Points { rank, coords } => {
                if *rank != space.rank() {
                    return err(format!("point rank {} vs dataspace rank {}", rank, space.rank()));
                }
                if *rank == 0 {
                    return if coords.is_empty() {
                        Ok(())
                    } else {
                        err("rank-0 point selection with coordinates".into())
                    };
                }
                for p in coords.chunks(*rank) {
                    if p.iter().zip(space.dims()).any(|(c, d)| c >= d) {
                        return err(format!("point {p:?} outside extent {:?}", space.dims()));
                    }
                }
                Ok(())
            }
        }
    }

    /// Bounding box of the selection within `space`.
    pub fn bbox(&self, space: &Dataspace) -> BBox {
        match self {
            Selection::All => BBox::new(vec![0; space.rank()], space.dims().to_vec()),
            Selection::Hyperslab(dims) => BBox::new(
                dims.iter().map(|d| d.start).collect(),
                dims.iter().map(SlabDim::upper).collect(),
            ),
            Selection::Union(members) => {
                let mut acc: Option<BBox> = None;
                for m in members {
                    let b = m.bbox(space);
                    if b.is_empty() {
                        continue;
                    }
                    acc = Some(match acc {
                        None => b,
                        Some(a) => BBox::new(
                            a.lo.iter().zip(&b.lo).map(|(x, y)| *x.min(y)).collect(),
                            a.hi.iter().zip(&b.hi).map(|(x, y)| *x.max(y)).collect(),
                        ),
                    });
                }
                acc.unwrap_or_else(|| BBox::new(vec![0; space.rank()], vec![0; space.rank()]))
            }
            Selection::Points { rank, coords } => {
                if coords.is_empty() {
                    return BBox::new(vec![0; *rank], vec![0; *rank]);
                }
                let mut lo = vec![u64::MAX; *rank];
                let mut hi = vec![0u64; *rank];
                for p in coords.chunks(*rank) {
                    for (i, &c) in p.iter().enumerate() {
                        lo[i] = lo[i].min(c);
                        hi[i] = hi[i].max(c + 1);
                    }
                }
                BBox::new(lo, hi)
            }
        }
    }

    /// Whether the selection's bounding box within `space` intersects
    /// `bb`: `self.bbox(space).intersects(bb)`, compared in place for `All`
    /// and hyperslabs (a points or union selection builds its box).
    pub fn bbox_intersects(&self, space: &Dataspace, bb: &BBox) -> bool {
        let overlap = |i: usize, lo: u64, hi: u64| lo.max(bb.lo[i]) < hi.min(bb.hi[i]);
        match self {
            Selection::All => {
                assert_eq!(space.rank(), bb.rank(), "box ranks differ");
                space.dims().iter().enumerate().all(|(i, &d)| overlap(i, 0, d))
            }
            Selection::Hyperslab(dims) => {
                assert_eq!(dims.len(), bb.rank(), "box ranks differ");
                dims.iter().enumerate().all(|(i, d)| overlap(i, d.start, d.upper()))
            }
            _ => self.bbox(space).intersects(bb),
        }
    }

    /// Decompose into sorted, maximal contiguous runs of the row-major
    /// linearization of `space`.
    ///
    /// Packing order is defined to be run order, i.e. row-major order of
    /// the selected elements.
    pub fn runs(&self, space: &Dataspace) -> Vec<Run> {
        match self {
            Selection::All => {
                let n = space.npoints();
                if n == 0 {
                    vec![]
                } else {
                    vec![Run { offset: 0, len: n }]
                }
            }
            Selection::Hyperslab(dims) => hyperslab_runs(dims, space),
            Selection::Union(members) => {
                let mut all: Vec<Run> = members.iter().flat_map(|m| m.runs(space)).collect();
                all.sort_unstable_by_key(|r| r.offset);
                // Merge overlapping and adjacent runs.
                let mut out: Vec<Run> = Vec::with_capacity(all.len());
                for r in all {
                    match out.last_mut() {
                        Some(last) if r.offset <= last.offset + last.len => {
                            let end = (last.offset + last.len).max(r.offset + r.len);
                            last.len = end - last.offset;
                        }
                        _ => out.push(r),
                    }
                }
                out
            }
            Selection::Points { rank, coords } => {
                if *rank == 0 {
                    return vec![];
                }
                let mut offs: Vec<u64> = coords.chunks(*rank).map(|p| space.linearize(p)).collect();
                offs.sort_unstable();
                offs.dedup();
                let mut runs: Vec<Run> = Vec::new();
                for o in offs {
                    push_run(&mut runs, o, 1);
                }
                runs
            }
        }
    }
}

impl Encode for Selection {
    fn encode(&self, w: &mut Writer) {
        match self {
            Selection::All => w.put_u8(0),
            Selection::Hyperslab(dims) => {
                w.put_u8(1);
                w.put_u64(dims.len() as u64);
                for d in dims {
                    w.put_u64(d.start);
                    w.put_u64(d.stride);
                    w.put_u64(d.count);
                    w.put_u64(d.block);
                }
            }
            Selection::Points { rank, coords } => {
                w.put_u8(2);
                w.put_u64(*rank as u64);
                w.put_u64s(coords);
            }
            Selection::Union(members) => {
                w.put_u8(3);
                w.put_u64(members.len() as u64);
                for m in members {
                    m.encode(w);
                }
            }
        }
    }
}

impl Decode for Selection {
    fn decode(r: &mut Reader<'_>) -> H5Result<Self> {
        Ok(match r.get_u8()? {
            0 => Selection::All,
            1 => {
                let n = r.get_count(32)?; // 4 u64s per slab dim
                let mut dims = Vec::with_capacity(n);
                for _ in 0..n {
                    dims.push(SlabDim {
                        start: r.get_u64()?,
                        stride: r.get_u64()?,
                        count: r.get_u64()?,
                        block: r.get_u64()?,
                    });
                }
                Selection::Hyperslab(dims)
            }
            2 => {
                let rank = r.get_u64()? as usize;
                let coords = r.get_u64s()?;
                if rank > 0 && coords.len() % rank != 0 {
                    return Err(H5Error::Format("point coords not a multiple of rank".into()));
                }
                Selection::Points { rank, coords }
            }
            3 => {
                let n = r.get_count(1)?; // a member is at least its tag byte
                if n > 1 << 20 {
                    return Err(H5Error::Format("union too large".into()));
                }
                let members = (0..n).map(|_| Selection::decode(r)).collect::<H5Result<Vec<_>>>()?;
                Selection::Union(members)
            }
            t => return Err(H5Error::Format(format!("unknown selection tag {t}"))),
        })
    }
}

fn push_run(runs: &mut Vec<Run>, offset: u64, len: u64) {
    if len == 0 {
        return;
    }
    if let Some(last) = runs.last_mut() {
        if last.offset + last.len == offset {
            last.len += len;
            return;
        }
    }
    runs.push(Run { offset, len });
}

/// Enumerate the runs of a hyperslab: odometer over the selected indices of
/// all outer dimensions; the innermost dimension contributes `count`
/// segments of `block` consecutive elements; adjacent segments merge.
///
/// Whole trailing dimensions are folded into their parent first: a
/// dimension that starts at 0 and selects its entire extent contiguously
/// turns each selected index of its parent into one run `extent` times
/// longer, so the odometer never walks its rows.
fn hyperslab_runs(dims: &[SlabDim], space: &Dataspace) -> Vec<Run> {
    if dims.is_empty() {
        // Rank-0 hyperslab over a scalar space: one element.
        return vec![Run { offset: 0, len: 1 }];
    }
    if dims.iter().any(|d| d.n() == 0) || space.npoints() == 0 {
        return vec![];
    }
    let whole = |i: usize| {
        let d = dims[i];
        d.start == 0 && (d.count == 1 || d.stride == d.block) && space.dims().get(i) == Some(&d.n())
    };
    let mut kept = dims.len();
    let mut scale = 1u64;
    while kept > 1 && whole(kept - 1) {
        kept -= 1;
        scale *= dims[kept].n();
    }
    let inner = dims[kept - 1];
    let outer = &dims[..kept - 1];
    // Elements per step of the last outer index: a row's base offset is
    // its outer indices in mixed radix over `space.dims()`, times this.
    let row: u64 = space.dims()[kept - 1..].iter().product();

    // Odometer over (k, b) pairs of each outer dimension.
    let mut counters: Vec<(u64, u64)> = vec![(0, 0); outer.len()];
    let mut runs = Vec::new();
    loop {
        // Base linear offset of the current row.
        let base: u64 = counters
            .iter()
            .zip(outer)
            .zip(space.dims())
            .fold(0, |acc, (((k, b), d), &ext)| acc * ext + d.start + k * d.stride + b)
            * row;
        // Inner-dimension segments.
        for j in 0..inner.count {
            let off = base + (inner.start + j * inner.stride) * scale;
            push_run(&mut runs, off, inner.block * scale);
        }
        // Advance the odometer (rightmost outer dimension fastest).
        let mut i = outer.len();
        loop {
            if i == 0 {
                return runs;
            }
            i -= 1;
            let d = outer[i];
            let (ref mut k, ref mut b) = counters[i];
            *b += 1;
            if *b == d.block {
                *b = 0;
                *k += 1;
                if *k == d.count {
                    *k = 0;
                    continue; // carry into the next-slower dimension
                }
            }
            break;
        }
    }
}

/// Intersect two sorted run lists, tracking packed offsets on both sides.
///
/// `a_off`/`b_off` of each output run give the element offset of the
/// overlapping piece within A's and B's packed buffers respectively.
pub fn overlap_runs(a: &[Run], b: &[Run]) -> Vec<OverlapRun> {
    let mut out = Vec::new();
    for_each_overlap(a, b, |o| out.push(o));
    out
}

/// [`overlap_runs`] handed to `f` one piece at a time, in order, for a
/// caller that consumes the pieces as they come instead of keeping them.
pub fn for_each_overlap(a: &[Run], b: &[Run], mut f: impl FnMut(OverlapRun)) {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut a_cum, mut b_cum) = (0u64, 0u64);
    while i < a.len() && j < b.len() {
        let (ra, rb) = (a[i], b[j]);
        let lo = ra.offset.max(rb.offset);
        let hi = (ra.offset + ra.len).min(rb.offset + rb.len);
        if lo < hi {
            f(OverlapRun {
                offset: lo,
                len: hi - lo,
                a_off: a_cum + (lo - ra.offset),
                b_off: b_cum + (lo - rb.offset),
            });
        }
        // Advance whichever run ends first.
        if ra.offset + ra.len <= rb.offset + rb.len {
            a_cum += ra.len;
            i += 1;
        } else {
            b_cum += rb.len;
            j += 1;
        }
    }
}

/// Pack the selected elements of a full row-major buffer into a contiguous
/// buffer, in run (row-major) order.
///
/// `src` must hold exactly `space.npoints() * elem_size` bytes.
pub fn pack(sel: &Selection, space: &Dataspace, elem_size: usize, src: &[u8]) -> Vec<u8> {
    assert_eq!(src.len() as u64, space.npoints() * elem_size as u64, "source buffer size");
    let runs = sel.runs(space);
    let total: u64 = runs.iter().map(|r| r.len).sum();
    let mut out = Vec::with_capacity((total as usize) * elem_size);
    for r in &runs {
        let s = (r.offset as usize) * elem_size;
        let e = s + (r.len as usize) * elem_size;
        out.extend_from_slice(&src[s..e]);
    }
    out
}

/// Scatter a packed buffer (in run order) back into a full row-major
/// buffer. Inverse of [`pack`].
pub fn unpack(sel: &Selection, space: &Dataspace, elem_size: usize, packed: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len() as u64, space.npoints() * elem_size as u64, "destination buffer size");
    let runs = sel.runs(space);
    let total: u64 = runs.iter().map(|r| r.len).sum();
    assert_eq!(packed.len() as u64, total * elem_size as u64, "packed buffer size");
    let mut p = 0usize;
    for r in &runs {
        let n = (r.len as usize) * elem_size;
        let d = (r.offset as usize) * elem_size;
        dst[d..d + n].copy_from_slice(&packed[p..p + n]);
        p += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(dims: &[u64]) -> Dataspace {
        Dataspace::simple(dims)
    }

    #[test]
    fn all_is_one_run() {
        let sp = space(&[4, 5]);
        assert_eq!(Selection::all().runs(&sp), vec![Run { offset: 0, len: 20 }]);
        assert_eq!(Selection::all().npoints(&sp), 20);
    }

    #[test]
    fn block_runs_2d() {
        // 4x6 space, box at (1,2) size (2,3): rows 1,2 cols 2..5.
        let sp = space(&[4, 6]);
        let sel = Selection::block(&[1, 2], &[2, 3]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 8, len: 3 }, Run { offset: 14, len: 3 }]);
        assert_eq!(sel.npoints(&sp), 6);
    }

    #[test]
    fn full_rows_merge_into_one_run() {
        // Box spanning entire trailing dims collapses to a single run.
        let sp = space(&[10, 4, 5]);
        let sel = Selection::block(&[2, 0, 0], &[3, 4, 5]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 40, len: 60 }]);
    }

    #[test]
    fn whole_trailing_dims_fold_into_one_run() {
        // An x-slab of a [192, 96, 96] grid: every plane is whole.
        let sp = space(&[192, 96, 96]);
        let plane = 96 * 96;
        let sel = Selection::block(&[48, 0, 0], &[48, 96, 96]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 48 * plane, len: 48 * plane }]);
        // A y-slab: the rows fold, the planes do not.
        let sel = Selection::block(&[0, 48, 0], &[192, 48, 96]);
        let runs = sel.runs(&sp);
        assert_eq!(runs.len(), 192);
        for (x, r) in runs.iter().enumerate() {
            assert_eq!(*r, Run { offset: x as u64 * plane + 48 * 96, len: 48 * 96 });
        }
        // A strided outer dimension over whole planes: one run per block.
        let sel = Selection::strided(&[1, 0, 0], &[10, 1, 1], &[5, 1, 1], &[3, 96, 96]);
        let runs = sel.runs(&sp);
        let want: Vec<Run> =
            (0..5).map(|c| Run { offset: (1 + 10 * c) * plane, len: 3 * plane }).collect();
        assert_eq!(runs, want);
    }

    #[test]
    fn strided_1d_runs() {
        // start 1, stride 3, count 4, block 2 → {1,2, 4,5, 7,8, 10,11}
        let sp = space(&[12]);
        let sel = Selection::strided(&[1], &[3], &[4], &[2]);
        assert_eq!(
            sel.runs(&sp),
            vec![
                Run { offset: 1, len: 2 },
                Run { offset: 4, len: 2 },
                Run { offset: 7, len: 2 },
                Run { offset: 10, len: 2 }
            ]
        );
        assert_eq!(sel.npoints(&sp), 8);
    }

    #[test]
    fn stride_equal_block_merges() {
        // stride == block → contiguous.
        let sp = space(&[12]);
        let sel = Selection::strided(&[2], &[2], &[4], &[2]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 2, len: 8 }]);
    }

    #[test]
    fn strided_outer_dimension() {
        // 6x4: rows {0, 2, 4}, all columns.
        let sp = space(&[6, 4]);
        let sel = Selection::strided(&[0, 0], &[2, 1], &[3, 4], &[1, 1]);
        assert_eq!(
            sel.runs(&sp),
            vec![Run { offset: 0, len: 4 }, Run { offset: 8, len: 4 }, Run { offset: 16, len: 4 }]
        );
    }

    #[test]
    fn outer_block_gt_one() {
        // 8x2: row pairs {1,2} and {5,6}, all columns → two runs of 4.
        let sp = space(&[8, 2]);
        let sel = Selection::strided(&[1, 0], &[4, 1], &[2, 1], &[2, 2]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 2, len: 4 }, Run { offset: 10, len: 4 }]);
    }

    #[test]
    fn points_runs_sorted_and_merged() {
        let sp = space(&[3, 4]);
        // (2,1)=9, (0,0)=0, (0,1)=1, (2,2)=10 → runs [0,2) and [9,11)
        let sel = Selection::points(2, &[&[2, 1], &[0, 0], &[0, 1], &[2, 2]]);
        assert_eq!(sel.runs(&sp), vec![Run { offset: 0, len: 2 }, Run { offset: 9, len: 2 }]);
    }

    #[test]
    fn scalar_space_all() {
        let sp = Dataspace::scalar();
        assert_eq!(Selection::all().runs(&sp), vec![Run { offset: 0, len: 1 }]);
    }

    #[test]
    fn bboxes() {
        let sp = space(&[6, 8]);
        assert_eq!(Selection::all().bbox(&sp), BBox::new(vec![0, 0], vec![6, 8]));
        let sel = Selection::block(&[1, 2], &[2, 3]);
        assert_eq!(sel.bbox(&sp), BBox::new(vec![1, 2], vec![3, 5]));
        let strided = Selection::strided(&[1], &[3], &[4], &[2]);
        assert_eq!(strided.bbox(&space(&[12])), BBox::new(vec![1], vec![12]));
        let pts = Selection::points(2, &[&[5, 1], &[2, 7]]);
        assert_eq!(pts.bbox(&sp), BBox::new(vec![2, 1], vec![6, 8]));
    }

    #[test]
    fn bbox_ops() {
        let a = BBox::new(vec![0, 0], vec![4, 4]);
        let b = BBox::new(vec![2, 3], vec![6, 8]);
        let i = a.intersect(&b);
        assert_eq!(i, BBox::new(vec![2, 3], vec![4, 4]));
        assert_eq!(i.npoints(), 2);
        assert!(a.intersects(&b));
        let c = BBox::new(vec![4, 0], vec![5, 4]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersect(&c).npoints(), 0);
        assert!(a.contains(&[3, 3]));
        assert!(!a.contains(&[4, 0]));
    }

    #[test]
    fn bbox_to_selection_roundtrip() {
        let sp = space(&[10, 10]);
        let b = BBox::new(vec![2, 3], vec![5, 9]);
        let sel = b.to_selection();
        assert_eq!(sel.bbox(&sp), b);
        assert_eq!(sel.npoints(&sp), b.npoints());
    }

    #[test]
    fn empty_intersection_is_canonical() {
        // Disjoint pairs with very different corners must all normalize
        // to the same empty box (these boxes key consumer caches).
        let a = BBox::new(vec![0, 0], vec![4, 4]);
        let far = BBox::new(vec![100, 200], vec![300, 400]);
        let adjacent = BBox::new(vec![4, 0], vec![8, 4]);
        let canon = BBox::new(vec![0, 0], vec![0, 0]);
        assert_eq!(a.intersect(&far), canon);
        assert_eq!(a.intersect(&adjacent), canon);
        assert_eq!(a.intersect(&far), a.intersect(&adjacent));
        // One empty axis empties the whole intersection, even where the
        // other axis overlaps.
        let mixed = BBox::new(vec![1, 9], vec![3, 12]);
        assert_eq!(a.intersect(&mixed), canon);
        // Non-empty intersections are untouched by the normalization.
        let b = BBox::new(vec![2, 2], vec![6, 6]);
        assert_eq!(a.intersect(&b), BBox::new(vec![2, 2], vec![4, 4]));
    }

    #[test]
    fn empty_bbox_to_selection_validates_everywhere() {
        // A raw (non-canonical) empty box — e.g. built directly from a
        // degenerate query — must still convert to an in-bounds empty
        // selection, not one anchored past the dataspace extent.
        let sp = space(&[4, 4]);
        for empty in [
            BBox::new(vec![0, 0], vec![0, 0]),
            BBox::new(vec![9, 9], vec![9, 9]),
            BBox::new(vec![7, 1], vec![2, 3]),
        ] {
            assert!(empty.is_empty());
            let sel = empty.to_selection();
            assert!(sel.validate(&sp).is_ok(), "{empty:?}");
            assert_eq!(sel.npoints(&sp), 0);
            assert!(sel.runs(&sp).is_empty());
        }
    }

    #[test]
    fn validation() {
        let sp = space(&[4, 4]);
        assert!(Selection::block(&[0, 0], &[4, 4]).validate(&sp).is_ok());
        assert!(Selection::block(&[2, 2], &[3, 1]).validate(&sp).is_err());
        assert!(Selection::block(&[0], &[4]).validate(&sp).is_err()); // rank
        assert!(Selection::points(2, &[&[3, 3]]).validate(&sp).is_ok());
        assert!(Selection::points(2, &[&[4, 0]]).validate(&sp).is_err());
        // Overlapping blocks rejected.
        assert!(Selection::strided(&[0], &[2], &[2], &[3]).validate(&space(&[10])).is_err());
        // Zero stride rejected.
        assert!(Selection::strided(&[0], &[0], &[2], &[1]).validate(&space(&[10])).is_err());
    }

    #[test]
    fn overlap_two_boxes() {
        let sp = space(&[4, 6]);
        // A: rows 0-1 all cols; B: cols 2-4 all rows.
        let a = Selection::block(&[0, 0], &[2, 6]).runs(&sp);
        let b = Selection::block(&[0, 2], &[4, 3]).runs(&sp);
        let ov = overlap_runs(&a, &b);
        // Intersection: rows 0-1, cols 2-4 → linear [2,5) and [8,11).
        assert_eq!(ov.len(), 2);
        assert_eq!(ov[0], OverlapRun { offset: 2, len: 3, a_off: 2, b_off: 0 });
        assert_eq!(ov[1], OverlapRun { offset: 8, len: 3, a_off: 8, b_off: 3 });
    }

    #[test]
    fn overlap_disjoint_is_empty() {
        let sp = space(&[4, 4]);
        let a = Selection::block(&[0, 0], &[2, 4]).runs(&sp);
        let b = Selection::block(&[2, 0], &[2, 4]).runs(&sp);
        assert!(overlap_runs(&a, &b).is_empty());
    }

    #[test]
    fn overlap_total_elements_match_bbox_math() {
        let sp = space(&[8, 8]);
        let a = Selection::block(&[1, 1], &[5, 5]);
        let b = Selection::block(&[3, 3], &[4, 4]);
        let ov = overlap_runs(&a.runs(&sp), &b.runs(&sp));
        let total: u64 = ov.iter().map(|o| o.len).sum();
        assert_eq!(total, a.bbox(&sp).intersect(&b.bbox(&sp)).npoints());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let sp = space(&[4, 5]);
        let src: Vec<u8> = (0..20u8).collect();
        let sel = Selection::block(&[1, 1], &[2, 3]);
        let packed = pack(&sel, &sp, 1, &src);
        assert_eq!(packed, vec![6, 7, 8, 11, 12, 13]);
        let mut dst = vec![0u8; 20];
        unpack(&sel, &sp, 1, &packed, &mut dst);
        for (i, &v) in dst.iter().enumerate() {
            if packed.contains(&(i as u8)) {
                assert_eq!(v, i as u8);
            } else {
                assert_eq!(v, 0);
            }
        }
    }

    #[test]
    fn pack_with_multibyte_elements() {
        let sp = space(&[2, 3]);
        let src: Vec<u64> = vec![10, 11, 12, 20, 21, 22];
        let bytes = simmpi_like_bytes(&src);
        let sel = Selection::block(&[0, 1], &[2, 2]);
        let packed = pack(&sel, &sp, 8, &bytes);
        let vals: Vec<u64> =
            packed.chunks(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![11, 12, 21, 22]);
    }

    fn simmpi_like_bytes(v: &[u64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn selection_codec_roundtrip() {
        let sels = vec![
            Selection::all(),
            Selection::block(&[1, 2], &[3, 4]),
            Selection::strided(&[0, 1], &[2, 3], &[4, 5], &[1, 2]),
            Selection::points(3, &[&[1, 2, 3], &[4, 5, 6]]),
        ];
        for s in sels {
            assert_eq!(Selection::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn empty_selection_edge_cases() {
        let sp = space(&[4, 4]);
        let empty = Selection::block(&[0, 0], &[0, 4]);
        assert_eq!(empty.npoints(&sp), 0);
        assert!(empty.runs(&sp).is_empty());
        let nopts = Selection::Points { rank: 2, coords: vec![] };
        assert_eq!(nopts.npoints(&sp), 0);
        assert!(nopts.runs(&sp).is_empty());
        assert!(nopts.bbox(&sp).is_empty());
    }
}

#[cfg(test)]
mod union_tests {
    use super::*;

    fn space(dims: &[u64]) -> Dataspace {
        Dataspace::simple(dims)
    }

    #[test]
    fn union_merges_overlapping_members() {
        let sp = space(&[16]);
        let u = Selection::union(vec![
            Selection::block(&[0], &[6]),
            Selection::block(&[4], &[4]), // overlaps [4,6)
            Selection::block(&[10], &[2]),
        ]);
        assert_eq!(u.runs(&sp), vec![Run { offset: 0, len: 8 }, Run { offset: 10, len: 2 }]);
        // Overlap counted once.
        assert_eq!(u.npoints(&sp), 10);
    }

    #[test]
    fn union_of_one_collapses() {
        let s = Selection::union(vec![Selection::block(&[1], &[2])]);
        assert!(matches!(s, Selection::Hyperslab(_)));
    }

    #[test]
    fn nested_unions_flatten() {
        let inner =
            Selection::union(vec![Selection::block(&[0], &[1]), Selection::block(&[2], &[1])]);
        let outer = Selection::union(vec![inner, Selection::block(&[4], &[1])]);
        match &outer {
            Selection::Union(m) => assert_eq!(m.len(), 3),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn union_bbox_covers_members() {
        let sp = space(&[8, 8]);
        let u = Selection::union(vec![
            Selection::block(&[0, 0], &[2, 2]),
            Selection::block(&[6, 5], &[2, 3]),
        ]);
        assert_eq!(u.bbox(&sp), BBox::new(vec![0, 0], vec![8, 8]));
    }

    #[test]
    fn union_validate_checks_members() {
        let sp = space(&[4]);
        let good =
            Selection::union(vec![Selection::block(&[0], &[2]), Selection::block(&[2], &[2])]);
        assert!(good.validate(&sp).is_ok());
        let bad = Selection::union(vec![
            Selection::block(&[0], &[2]),
            Selection::block(&[3], &[2]), // out of bounds
        ]);
        assert!(bad.validate(&sp).is_err());
    }

    #[test]
    fn union_pack_and_overlap() {
        let sp = space(&[3, 4]);
        let src: Vec<u8> = (0..12u8).collect();
        // Rows 0 and 2.
        let u = Selection::union(vec![
            Selection::block(&[0, 0], &[1, 4]),
            Selection::block(&[2, 0], &[1, 4]),
        ]);
        let packed = pack(&u, &sp, 1, &src);
        assert_eq!(packed, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        // Overlap with a column.
        let col = Selection::block(&[0, 1], &[3, 1]);
        let ov = overlap_runs(&u.runs(&sp), &col.runs(&sp));
        let total: u64 = ov.iter().map(|o| o.len).sum();
        assert_eq!(total, 2); // rows 0 and 2 of the column
    }

    #[test]
    fn union_codec_roundtrip() {
        let u = Selection::union(vec![
            Selection::block(&[0, 0], &[1, 4]),
            Selection::points(2, &[&[2, 2]]),
        ]);
        assert_eq!(Selection::from_bytes(&u.to_bytes()).unwrap(), u);
    }

    #[test]
    fn empty_union() {
        let sp = space(&[4]);
        let u = Selection::union(vec![]);
        assert_eq!(u.npoints(&sp), 0);
        assert!(u.runs(&sp).is_empty());
        assert!(u.validate(&sp).is_ok());
    }
}
