//! Property-based tests of the collective operations: arbitrary world
//! sizes, roots, and payload shapes — and the spec contract that every
//! rank's results equal values computed directly from the inputs, with
//! and without seeded fault-plan delays.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simmpi::{FaultPlan, World};

/// Deterministic per-(rank, dest, seed) payload with length variety,
/// from empty up to 399 bytes.
fn blob(rank: usize, salt: usize, seed: u64) -> Bytes {
    let len = ((seed as usize).wrapping_mul(2654435761) ^ (rank * 37 + salt * 101)) % 400;
    Bytes::from((0..len).map(|i| (i ^ rank ^ salt ^ seed as usize) as u8).collect::<Vec<u8>>())
}

/// One full collective workout for a rank: gather, scatter, allgather,
/// alltoall, bcast, allreduce (sum), exscan and reduce (max).
type Workout = (Option<Vec<Bytes>>, Bytes, Vec<Bytes>, Vec<Bytes>, Bytes, u64, u64, Option<u64>);

/// Rank `r`'s reduction input.
fn value(r: usize, seed: u64) -> u64 {
    (seed + r as u64 * 13) % 97
}

fn workout(c: &simmpi::Comm, root: usize, seed: u64) -> Workout {
    let me = c.rank();
    let gathered = c.gather_bytes(root, blob(me, 0, seed));
    let scatter_parts =
        (me == root).then(|| (0..c.size()).map(|r| blob(r, 1, seed)).collect::<Vec<Bytes>>());
    let scattered = c.scatter_bytes(root, scatter_parts);
    let allgathered = c.allgather_bytes(blob(me, 2, seed));
    let a2a = c.alltoall_bytes((0..c.size()).map(|d| blob(me, 3 + d, seed)).collect());
    let bc = c.bcast_bytes(root, (me == root).then(|| blob(root, 2, seed)));
    let v = value(me, seed);
    let red = c.allreduce_one::<u64, _>(v, |a, b| a + b);
    let ex = c.exscan_u64(v);
    let r1 = c.reduce_one::<u64, _>(root, v, std::cmp::max);
    (gathered, scattered, allgathered, a2a, bc, red, ex, r1)
}

/// What rank `me` of `n` must get from [`workout`], computed from the
/// inputs alone.
fn spec(n: usize, root: usize, seed: u64, me: usize) -> Workout {
    let values = (0..n).map(|r| value(r, seed));
    (
        (me == root).then(|| (0..n).map(|r| blob(r, 0, seed)).collect()),
        blob(me, 1, seed),
        (0..n).map(|r| blob(r, 2, seed)).collect(),
        (0..n).map(|src| blob(src, 3 + me, seed)).collect(),
        blob(root, 2, seed),
        values.clone().sum(),
        values.clone().take(me).sum(),
        (me == root).then(|| values.max().expect("at least one rank")),
    )
}

/// Run the workout with or without a seeded fault plan and check every
/// rank against [`spec`].
fn check_config(n: usize, root: usize, seed: u64, fault_seed: Option<u64>) {
    let b = World::builder(n);
    let got: Vec<Workout> = if let Some(fs) = fault_seed {
        let out = b
            .fault_plan(FaultPlan::new(fs).delay(0.5, Duration::from_micros(300)).reorder(0.5))
            .run_chaos(move |c| workout(&c, root, seed));
        assert!(out.deaths.is_empty(), "benign faults must not kill ranks");
        out.results.into_iter().map(|r| r.expect("every rank finishes")).collect()
    } else {
        b.run(move |c| workout(&c, root, seed)).results
    };
    for (me, w) in got.into_iter().enumerate() {
        assert_eq!(
            w,
            spec(n, root, seed, me),
            "rank {me} of {n}, root {root}, fault seed {fault_seed:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Broadcast delivers the root's exact payload to every rank, for any
    /// size, root, and payload length.
    #[test]
    fn bcast_delivers_everywhere(
        n in 1usize..10,
        root_seed in 0usize..100,
        len in 0usize..2000,
    ) {
        let root = root_seed % n;
        World::run(n, move |c| {
            let data = (c.rank() == root)
                .then(|| Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()));
            let got = c.bcast_bytes(root, data);
            assert_eq!(got.len(), len);
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        });
    }

    /// gather → scatter is the identity permutation on per-rank payloads.
    #[test]
    fn gather_scatter_roundtrip(n in 1usize..9, root_seed in 0usize..100) {
        let root = root_seed % n;
        World::run(n, move |c| {
            let mine = Bytes::from(vec![c.rank() as u8; c.rank() + 1]);
            let gathered = c.gather_bytes(root, mine.clone());
            let parts = gathered.inspect(|g| {
                // Root validates and scatters everything back.
                for (r, b) in g.iter().enumerate() {
                    assert_eq!(b.len(), r + 1);
                    assert!(b.iter().all(|&x| x == r as u8));
                }
            });
            let back = c.scatter_bytes(root, parts);
            assert_eq!(back, mine);
        });
    }

    /// allreduce equals the fold of allgather, for random per-rank values.
    #[test]
    fn allreduce_equals_folded_allgather(n in 1usize..9, seed in 0u64..10_000) {
        World::run(n, move |c| {
            let v = seed.wrapping_mul(31).wrapping_add(c.rank() as u64 * 7919) % 1000;
            let sum = c.allreduce_one::<u64, _>(v, |a, b| a + b);
            let all = c.allgather_one::<u64>(v);
            assert_eq!(sum, all.iter().sum::<u64>());
            let max = c.allreduce_one::<u64, _>(v, std::cmp::max);
            assert_eq!(max, *all.iter().max().expect("nonempty"));
        });
    }

    /// alltoall is a matrix transpose of the per-rank part lists.
    #[test]
    fn alltoall_transposes(n in 1usize..8, seed in 0u64..10_000) {
        World::run(n, move |c| {
            let parts: Vec<Bytes> = (0..n)
                .map(|d| {
                    let tag = (seed % 251) as u8;
                    Bytes::from(vec![tag, c.rank() as u8, d as u8])
                })
                .collect();
            let got = c.alltoall_bytes(parts);
            for (src, b) in got.iter().enumerate() {
                assert_eq!(&b[..], &[(seed % 251) as u8, src as u8, c.rank() as u8]);
            }
        });
    }

    /// exscan is consistent with the allgather prefix.
    #[test]
    fn exscan_prefix_property(n in 1usize..9, seed in 0u64..10_000) {
        World::run(n, move |c| {
            let v = (seed + c.rank() as u64 * 13) % 97;
            let pre = c.exscan_u64(v);
            let all = c.allgather_one::<u64>(v);
            assert_eq!(pre, all[..c.rank()].iter().sum::<u64>());
        });
    }

    /// The spec contract: every collective returns on every rank exactly
    /// what the inputs determine, for any geometry, root, and payload
    /// shape (empty included).
    #[test]
    fn collectives_match_the_spec(
        n in 1usize..8,
        root_seed in 0usize..100,
        seed in 0u64..10_000,
    ) {
        let root = root_seed % n;
        check_config(n, root, seed, None);
    }

    /// The same contract under seeded fault-plan delays and reorders: the
    /// schedules are specified by *what* arrives, not *when*.
    #[test]
    fn collectives_match_the_spec_under_faults(
        n in 2usize..7,
        root_seed in 0usize..100,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        let root = root_seed % n;
        check_config(n, root, seed, Some(fault_seed));
    }
}
