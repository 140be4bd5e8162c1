//! Wire message counts of one collective call, pinned per schedule:
//! gather ships `n-1` messages up the binomial tree, broadcast `n-1` down
//! it, the Bruck allgather `n·⌈lg n⌉` (one per rank per round), and the
//! pairwise all-to-all `n(n-1)`. The payload size picks no schedule: an
//! 8 B and a 1 MiB broadcast, or a 128 B and a 1 MiB allgather, send the
//! same count. An attached registry counts each call once per rank.

use bytes::Bytes;
use simmpi::World;

/// `⌈lg n⌉`: the number of Bruck dissemination rounds.
fn rounds(n: usize) -> u64 {
    u64::from(usize::BITS - (n - 1).leading_zeros())
}

/// Run `op` once on every rank of an `n`-rank observed world; returns
/// the wire message count and the registry report.
fn one_call(n: usize, op: fn(&simmpi::Comm)) -> (u64, obsv::Report) {
    let reg = obsv::Registry::new();
    let out = World::builder(n).observe(reg.clone()).run(move |c| op(&c));
    (out.stats.messages, reg.report())
}

const MIB: usize = 1 << 20;

fn block(c: &simmpi::Comm) -> Bytes {
    Bytes::from(vec![c.rank() as u8; 128])
}

/// Rank 0's broadcast payload of `len` bytes; `None` on every other rank.
fn from_root(c: &simmpi::Comm, len: usize) -> Option<Bytes> {
    (c.rank() == 0).then(|| Bytes::from(vec![7u8; len]))
}

#[test]
fn one_call_sends_its_schedule_message_count() {
    for n in [6usize, 64] {
        let n64 = n as u64;

        let (msgs, rep) = one_call(n, |c| {
            c.gather_bytes(0, block(c));
        });
        assert_eq!(msgs, n64 - 1, "gather at n={n}");
        assert_eq!(rep.counter(obsv::Ctr::CollGather), n64, "coll_gather at n={n}");

        let (msgs, rep) = one_call(n, |c| {
            c.bcast_bytes(0, from_root(c, 8));
        });
        assert_eq!(msgs, n64 - 1, "8 B bcast at n={n}");
        assert_eq!(rep.counter(obsv::Ctr::CollBcast), n64, "coll_bcast at n={n}");

        let (msgs, _) = one_call(n, |c| {
            c.bcast_bytes(0, from_root(c, MIB));
        });
        assert_eq!(msgs, n64 - 1, "1 MiB bcast at n={n}");

        let (msgs, rep) = one_call(n, |c| {
            c.allgather_bytes(block(c));
        });
        assert_eq!(msgs, n64 * rounds(n), "Bruck allgather at n={n}");
        assert_eq!(rep.counter(obsv::Ctr::CollAllgather), n64, "coll_allgather at n={n}");

        let (msgs, rep) = one_call(n, |c| {
            c.alltoall_bytes(vec![block(c); c.size()]);
        });
        assert_eq!(msgs, n64 * (n64 - 1), "alltoall at n={n}");
        assert_eq!(rep.counter(obsv::Ctr::CollAlltoall), n64, "coll_alltoall at n={n}");
    }
    assert_eq!(64 * rounds(64), 384);

    // A 1 MiB block per rank takes the same Bruck schedule. At n = 6
    // only: over the socket every rank receives n-1 blocks, 4 GiB in all
    // at n = 64.
    let (msgs, _) = one_call(6, |c| {
        c.allgather_bytes(Bytes::from(vec![c.rank() as u8; MIB]));
    });
    assert_eq!(msgs, 6 * rounds(6), "1 MiB Bruck allgather at n=6");
}
