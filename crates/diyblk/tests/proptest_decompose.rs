//! Property-based tests of the decomposition layer: the common
//! decomposition must tile exactly, factor balancedly, and answer
//! intersection queries identically to brute force, for arbitrary domain
//! shapes and block counts.

use diyblk::{factor_count, Assigner, ContiguousAssigner, RegularDecomposer, RoundRobinAssigner};
use minih5::BBox;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// factor_count always multiplies back to n, sorted non-increasing.
    #[test]
    fn factorization_exact_and_sorted(n in 1usize..5000, d in 1usize..5) {
        let f = factor_count(n, d);
        prop_assert_eq!(f.len(), d);
        prop_assert_eq!(f.iter().product::<usize>(), n);
        prop_assert!(f.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Factors are balanced: no factor can be made closer to the geometric
    /// mean by moving a prime 2 from the largest to the smallest factor
    /// (weak local-optimality check: largest/smallest ≤ n for d=1, and for
    /// composite splits the max factor never exceeds smallest*max_prime).
    #[test]
    fn factorization_reasonably_balanced(n in 2usize..5000) {
        let f = factor_count(n, 3);
        let (mx, mn) = (f[0], f[2].max(1));
        // The greedy assignment bounds imbalance by the largest prime
        // factor of n.
        let largest_prime = largest_prime_factor(n);
        prop_assert!(mx <= mn.max(1) * largest_prime.max(2) * 2,
            "factors {f:?} too imbalanced for n={n}");
    }

    /// Blocks tile the domain exactly: disjoint, complete, in-bounds.
    #[test]
    fn blocks_tile_domain(
        dims in proptest::collection::vec(1u64..=40, 1..=3),
        nblocks in 1usize..=24,
    ) {
        let d = RegularDecomposer::new(&dims, nblocks);
        let domain: u64 = dims.iter().product();
        let mut total = 0u64;
        for g in 0..d.nblocks() {
            let b = d.block_bounds(g);
            total += b.npoints();
            for (i, (&lo, &hi)) in b.lo.iter().zip(&b.hi).enumerate() {
                prop_assert!(lo <= hi && hi <= dims[i]);
            }
        }
        prop_assert_eq!(total, domain);
        // Pairwise disjoint.
        for a in 0..d.nblocks() {
            for b in a + 1..d.nblocks() {
                prop_assert!(!d.block_bounds(a).intersects(&d.block_bounds(b)));
            }
        }
    }

    /// blocks_intersecting == brute force for random query boxes.
    #[test]
    fn intersection_query_matches_bruteforce(
        dims in proptest::collection::vec(1u64..=30, 1..=3),
        nblocks in 1usize..=24,
        seed in 0u64..10_000,
    ) {
        let d = RegularDecomposer::new(&dims, nblocks);
        // Derive a query box from the seed.
        let lo: Vec<u64> = dims.iter().enumerate()
            .map(|(i, &dim)| (seed >> (i * 4)) % (dim + 1))
            .collect();
        let hi: Vec<u64> = dims.iter().zip(&lo).enumerate()
            .map(|(i, (&dim, &l))| l + ((seed >> (i * 4 + 12)) % (dim + 1 - l)))
            .collect();
        let q = BBox::new(lo, hi);
        let fast = d.blocks_intersecting(&q);
        let brute: Vec<usize> = (0..d.nblocks())
            .filter(|&g| d.block_bounds(g).intersects(&q))
            .collect();
        prop_assert_eq!(fast, brute);
    }

    /// Both assigners partition gids among ranks consistently.
    #[test]
    fn assigners_partition(nranks in 1usize..=16, nblocks in 1usize..=48) {
        for a in [
            &ContiguousAssigner::new(nranks, nblocks) as &dyn Assigner,
            &RoundRobinAssigner::new(nranks, nblocks) as &dyn Assigner,
        ] {
            let mut owned = vec![false; nblocks];
            for r in 0..nranks {
                for g in a.gids_of(r) {
                    prop_assert!(!owned[g], "gid {g} owned twice");
                    owned[g] = true;
                    prop_assert_eq!(a.rank_of(g), r);
                }
            }
            prop_assert!(owned.iter().all(|&o| o));
        }
    }
}

fn largest_prime_factor(mut n: usize) -> usize {
    let mut best = 1;
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            best = p;
            n /= p;
        }
        p += 1;
    }
    best.max(n)
}

/// A query box of rank `dims.len()` from `seed`: corners anywhere in
/// `0..=dim + 2` per dimension, so some boxes are empty, inverted, or
/// reach past the domain.
fn seeded_box(dims: &[u64], seed: u64) -> BBox {
    let corner = |i: usize, shift: usize| (seed >> (i * 10 + shift)) % (dims[i] + 3);
    let lo = (0..dims.len()).map(|i| corner(i, 0)).collect();
    let hi = (0..dims.len()).map(|i| corner(i, 5)).collect();
    BBox::new(lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The allocation-free queries against the definitions they replace:
    /// `intersects` is "the intersection is not empty", and
    /// `blocks_intersecting` is "every block whose bounds intersect the
    /// box, by that definition", for rank 1–4 and 1–24 blocks.
    #[test]
    fn in_place_queries_match_their_definitions(
        dims in proptest::collection::vec(1u64..=12, 1..=4),
        nblocks in 1usize..=24,
        seed in any::<u64>(),
    ) {
        let d = RegularDecomposer::new(&dims, nblocks);
        let q = seeded_box(&dims, seed);
        let r = seeded_box(&dims, seed.rotate_left(23));
        prop_assert_eq!(q.intersects(&r), !q.intersect(&r).is_empty());
        let brute: Vec<usize> = (0..d.nblocks())
            .filter(|&g| !d.block_bounds(g).intersect(&q).is_empty())
            .collect();
        prop_assert_eq!(d.blocks_intersecting(&q), brute, "dims={:?} n={} q={:?}", dims, nblocks, q);
    }
}
