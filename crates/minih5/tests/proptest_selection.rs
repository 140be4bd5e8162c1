//! Property-based tests of the selection algebra — the invariants the
//! whole transport stack leans on.

use minih5::codec::{Decode, Encode};
use minih5::selection::{overlap_runs, pack, unpack, Run, SlabDim};
use minih5::{Dataspace, Selection};
use proptest::prelude::*;

/// A random dataspace of rank 1–3 with small extents.
fn space_strategy() -> impl Strategy<Value = Dataspace> {
    proptest::collection::vec(1u64..=9, 1..=3).prop_map(|d| Dataspace::simple(&d))
}

/// A random valid hyperslab within the space (may select nothing).
fn slab_strategy(space: Dataspace) -> impl Strategy<Value = (Dataspace, Selection)> {
    let dims = space.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&d| {
            // start < d; stride 1..=d; block ≤ stride; count limited to fit.
            (0..d, 1..=d).prop_flat_map(move |(start, stride)| {
                let max_block = stride.min(d - start);
                (1..=max_block).prop_flat_map(move |block| {
                    let span = d - start;
                    // count blocks fit: start + (count-1)*stride + block ≤ d
                    let max_count = 1 + (span - block) / stride;
                    (1..=max_count).prop_map(move |count| (start, stride, count, block))
                })
            })
        })
        .collect();
    (Just(space), per_dim).prop_map(|(space, params)| {
        let start: Vec<u64> = params.iter().map(|p| p.0).collect();
        let stride: Vec<u64> = params.iter().map(|p| p.1).collect();
        let count: Vec<u64> = params.iter().map(|p| p.2).collect();
        let block: Vec<u64> = params.iter().map(|p| p.3).collect();
        (space, Selection::strided(&start, &stride, &count, &block))
    })
}

fn space_and_slab() -> impl Strategy<Value = (Dataspace, Selection)> {
    space_strategy().prop_flat_map(slab_strategy)
}

/// One dimension's `(start, stride, count, block)` over extent `d`, drawn
/// half the time from the ways to select the whole extent, so that the
/// whole-trailing-dimension fold of `Selection::runs` fires at every depth.
fn slab_dim_strategy(d: u64) -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (0u64..8, 0..d, 1..=d, any::<u64>(), any::<u64>()).prop_map(
        move |(kind, start, stride, r1, r2)| match kind {
            0 => (0, d, 1, d),
            1 => (0, 1, d, 1),
            2 => (0, stride, 1, d),
            3 => {
                let b = (1..=stride).rev().find(|x| d.is_multiple_of(*x)).expect("1 divides d");
                (0, b, d / b, b)
            }
            _ => {
                let block = 1 + r1 % stride.min(d - start);
                let count = 1 + r2 % (1 + (d - start - block) / stride);
                (start, stride, count, block)
            }
        },
    )
}

/// A hyperslab of `space` whose dimensions are often whole.
fn foldable_slab(space: &Dataspace) -> impl Strategy<Value = Selection> {
    let per_dim: Vec<_> = space.dims().iter().map(|&d| slab_dim_strategy(d)).collect();
    per_dim.prop_map(|params| {
        let dims = params
            .into_iter()
            .map(|(start, stride, count, block)| SlabDim { start, stride, count, block })
            .collect();
        Selection::Hyperslab(dims)
    })
}

/// A rank 1–4 space and a [`foldable_slab`] of it.
fn space_and_foldable_slab() -> impl Strategy<Value = (Dataspace, Selection)> {
    proptest::collection::vec(1u64..=6, 1..=4).prop_flat_map(|dims| {
        let space = Dataspace::simple(&dims);
        (Just(space.clone()), foldable_slab(&space))
    })
}

/// Membership from `SlabDim` arithmetic alone, without `runs`. A single
/// block may be longer than its stride, so it is its own case.
fn selects(sel: &Selection, coord: &[u64]) -> bool {
    let in_dim = |d: &SlabDim, x: u64| {
        if x < d.start {
            return false;
        }
        let r = x - d.start;
        if d.count == 1 {
            r < d.block
        } else {
            r / d.stride < d.count && r % d.stride < d.block
        }
    };
    match sel {
        Selection::Hyperslab(dims) => dims.iter().zip(coord).all(|(d, &x)| in_dim(d, x)),
        Selection::Union(members) => members.iter().any(|m| selects(m, coord)),
        other => unreachable!("oracle covers hyperslabs and unions, got {other:?}"),
    }
}

/// The maximal runs of the selected offsets, by visiting every element.
fn oracle_runs(sel: &Selection, space: &Dataspace) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for off in (0..space.npoints()).filter(|&o| selects(sel, &space.delinearize(o))) {
        match runs.last_mut() {
            Some(last) if last.offset + last.len == off => last.len += 1,
            _ => runs.push(Run { offset: off, len: 1 }),
        }
    }
    runs
}

/// Brute-force membership: which linear offsets does a selection cover?
fn element_set(sel: &Selection, space: &Dataspace) -> Vec<u64> {
    let mut out: Vec<u64> =
        sel.runs(space).iter().flat_map(|r| r.offset..r.offset + r.len).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Hyperslabs validate, and their runs are sorted, disjoint, maximal
    /// (no two adjacent runs touch), and cover exactly npoints elements.
    #[test]
    fn runs_are_canonical((space, sel) in space_and_slab()) {
        prop_assert!(sel.validate(&space).is_ok());
        let runs = sel.runs(&space);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, sel.npoints(&space));
        for w in runs.windows(2) {
            prop_assert!(w[0].offset + w[0].len < w[1].offset,
                "runs must be sorted, disjoint, and merged: {:?}", runs);
        }
        for r in &runs {
            prop_assert!(r.len > 0);
            prop_assert!(r.offset + r.len <= space.npoints());
        }
    }

    /// `runs` equals the runs of brute-force membership, for hyperslabs
    /// whose trailing dimensions are often whole.
    #[test]
    fn runs_match_slab_arithmetic((space, sel) in space_and_foldable_slab()) {
        prop_assert!(sel.validate(&space).is_ok());
        prop_assert_eq!(sel.runs(&space), oracle_runs(&sel, &space));
    }

    /// The same for a union of two such hyperslabs over one space.
    #[test]
    fn union_runs_match_slab_arithmetic(
        (space, a, b) in space_and_foldable_slab().prop_flat_map(|(space, a)| {
            let b = foldable_slab(&space);
            (Just(space), Just(a), b)
        }),
    ) {
        let sel = Selection::union(vec![a, b]);
        prop_assert_eq!(sel.runs(&space), oracle_runs(&sel, &space));
    }

    /// The bounding box contains every selected element.
    #[test]
    fn bbox_contains_all_elements((space, sel) in space_and_slab()) {
        let bb = sel.bbox(&space);
        for off in element_set(&sel, &space) {
            let coord = space.delinearize(off);
            prop_assert!(bb.contains(&coord), "{coord:?} outside {bb:?}");
        }
        prop_assert!(bb.npoints() >= sel.npoints(&space));
    }

    /// pack → unpack is the identity on the selected elements and never
    /// touches unselected ones.
    #[test]
    fn pack_unpack_roundtrip((space, sel) in space_and_slab()) {
        let n = space.npoints() as usize;
        let src: Vec<u8> = (0..n).map(|i| (i % 251) as u8 + 1).collect();
        let packed = pack(&sel, &space, 1, &src);
        prop_assert_eq!(packed.len() as u64, sel.npoints(&space));
        let mut dst = vec![0u8; n];
        unpack(&sel, &space, 1, &packed, &mut dst);
        let selected = element_set(&sel, &space);
        for i in 0..n {
            if selected.binary_search(&(i as u64)).is_ok() {
                prop_assert_eq!(dst[i], src[i]);
            } else {
                prop_assert_eq!(dst[i], 0);
            }
        }
    }

    /// overlap_runs equals brute-force set intersection, with correct
    /// packed offsets on both sides.
    #[test]
    fn overlap_matches_bruteforce(
        (space, a) in space_and_slab(),
        seed in 0u64..1000,
    ) {
        // Derive a second selection from the seed: a block offset inside
        // the same space.
        let dims = space.dims().to_vec();
        let start: Vec<u64> = dims.iter().enumerate()
            .map(|(i, &d)| (seed >> (i * 3)) % d)
            .collect();
        let size: Vec<u64> = dims.iter().zip(&start)
            .map(|(&d, &s)| 1 + (seed % (d - s)))
            .collect();
        let b = Selection::block(&start, &size);
        let ra = a.runs(&space);
        let rb = b.runs(&space);
        let ov = overlap_runs(&ra, &rb);
        // Brute force intersection.
        let sa = element_set(&a, &space);
        let sb = element_set(&b, &space);
        let expected: Vec<u64> =
            sa.iter().copied().filter(|x| sb.binary_search(x).is_ok()).collect();
        let got: Vec<u64> = ov.iter().flat_map(|o| o.offset..o.offset + o.len).collect();
        prop_assert_eq!(&got, &expected);
        // Packed-offset consistency: element k of the overlap is element
        // a_off+i of A's packed order and b_off+i of B's.
        let pos = |set: &[u64], x: u64| set.binary_search(&x).expect("member") as u64;
        for o in &ov {
            for i in 0..o.len {
                let x = o.offset + i;
                prop_assert_eq!(pos(&sa, x), o.a_off + i);
                prop_assert_eq!(pos(&sb, x), o.b_off + i);
            }
        }
    }

    /// Selection and dataspace codecs roundtrip.
    #[test]
    fn codec_roundtrip((space, sel) in space_and_slab()) {
        let b = sel.to_bytes();
        prop_assert_eq!(Selection::from_bytes(&b).unwrap(), sel);
        let sb = space.to_bytes();
        prop_assert_eq!(Dataspace::from_bytes(&sb).unwrap(), space);
    }

    /// Point selections canonicalize: runs sorted/merged even from
    /// shuffled, duplicated points.
    #[test]
    fn point_selections_canonicalize(
        dims in proptest::collection::vec(1u64..=6, 1..=3),
        raw in proptest::collection::vec(0u64..1000, 0..40),
    ) {
        let space = Dataspace::simple(&dims);
        let rank = dims.len();
        let coords: Vec<u64> = raw.iter()
            .flat_map(|&r| {
                dims.iter().enumerate().map(move |(i, &d)| (r >> (i * 5)) % d)
            })
            .collect();
        let sel = Selection::Points { rank, coords };
        prop_assert!(sel.validate(&space).is_ok());
        let runs = sel.runs(&space);
        for w in runs.windows(2) {
            prop_assert!(w[0].offset + w[0].len < w[1].offset);
        }
        // Dedup means npoints(runs) ≤ raw point count.
        let total: u64 = runs.iter().map(|r| r.len).sum();
        prop_assert!(total <= raw.len() as u64);
    }
}

#[test]
fn overlap_of_identical_selection_is_identity() {
    let space = Dataspace::simple(&[7, 5]);
    let sel = Selection::strided(&[1, 0], &[2, 2], &[3, 2], &[1, 2]);
    let runs = sel.runs(&space);
    let ov = overlap_runs(&runs, &runs);
    let flat: Vec<Run> = ov.iter().map(|o| Run { offset: o.offset, len: o.len }).collect();
    assert_eq!(flat, runs);
    assert!(ov.iter().all(|o| o.a_off == o.b_off));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// `bbox_intersects` is the box test it replaces — build the
    /// selection's bounding box, intersect — for hyperslabs, `All` and
    /// point selections, against boxes that may be empty, inverted or
    /// reach past the space.
    #[test]
    fn bbox_intersects_matches_the_built_box(
        (space, slab) in space_and_slab(),
        seed in any::<u64>(),
    ) {
        let corner = |i: usize, shift: usize| (seed >> (i * 10 + shift)) % (space.dims()[i] + 3);
        let rank = space.rank();
        let bb = minih5::BBox::new(
            (0..rank).map(|i| corner(i, 0)).collect(),
            (0..rank).map(|i| corner(i, 5)).collect(),
        );
        let point: Vec<u64> = space.dims().iter().map(|&d| seed % d).collect();
        let points = Selection::points(rank, &[&point]);
        for sel in [slab, Selection::all(), points] {
            prop_assert_eq!(sel.bbox_intersects(&space, &bb), sel.bbox(&space).intersects(&bb));
        }
    }
}
