//! Randomized stress tests of the message substrate: storms of tagged
//! messages between many ranks, mixed with collectives, must deliver
//! every payload exactly once with pairwise FIFO preserved.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmpi::{TaskSpec, TaskWorld, World, ANY_SOURCE, ANY_TAG};

/// Every rank sends a random number of messages to random peers; each
/// payload encodes (src, seq). Receivers drain exactly the announced
/// counts and verify per-source sequence order (FIFO per sender).
#[test]
fn random_message_storm_delivers_everything() {
    for seed in [1u64, 7, 42] {
        let n = 12;
        World::run(n, move |c| {
            let mut rng = StdRng::seed_from_u64(seed ^ (c.rank() as u64) << 32);
            let msgs_per_peer = 40;
            // Announce: everyone sends `msgs_per_peer` to every peer.
            for dest in 0..n {
                if dest == c.rank() {
                    continue;
                }
                for seq in 0..msgs_per_peer {
                    // Random payload sizes; first 16 bytes encode identity.
                    let extra = rng.gen_range(0..64);
                    let mut payload = Vec::with_capacity(16 + extra);
                    payload.extend_from_slice(&(c.rank() as u64).to_le_bytes());
                    payload.extend_from_slice(&(seq as u64).to_le_bytes());
                    payload.extend(std::iter::repeat_n(0xEE, extra));
                    c.send(dest, 3, payload);
                }
            }
            // Drain: (n-1) * msgs_per_peer messages, tracking per-source
            // sequence numbers.
            let mut next_seq = vec![0u64; n];
            for _ in 0..(n - 1) * msgs_per_peer {
                let env = c.recv(ANY_SOURCE, 3.into());
                let src = u64::from_le_bytes(env.payload[..8].try_into().unwrap()) as usize;
                let seq = u64::from_le_bytes(env.payload[8..16].try_into().unwrap());
                assert_eq!(env.src, src, "sender identity");
                assert_eq!(seq, next_seq[src], "FIFO violated from {src}");
                next_seq[src] += 1;
            }
            assert!(c.try_recv(ANY_SOURCE, ANY_TAG).is_none(), "leftover messages");
        });
    }
}

/// Interleave p2p traffic with collectives on split communicators —
/// context isolation must hold under load.
#[test]
fn collectives_and_p2p_interleaved() {
    World::run(9, |c| {
        let sub = c.split(c.rank() % 3, c.rank());
        for round in 0..20u64 {
            // P2P on the world comm.
            let next = (c.rank() + 1) % c.size();
            c.send_u64s(next, 5, &[round * 100 + c.rank() as u64]);
            // Collective on the sub comm.
            let sum = sub.allreduce_one::<u64, _>(round, |a, b| a + b);
            assert_eq!(sum, round * sub.size() as u64);
            // Matching receive.
            let prev = (c.rank() + c.size() - 1) % c.size();
            let (_, v) = c.recv_u64s(prev.into(), 5.into());
            assert_eq!(v[0], round * 100 + prev as u64);
            // World barrier each 5 rounds.
            if round % 5 == 0 {
                c.barrier();
            }
        }
    });
}

/// Task worlds under churn: run many small task worlds back to back
/// (leak/teardown check).
#[test]
fn repeated_task_worlds() {
    for i in 0..30 {
        let specs = [TaskSpec::new("a", 1 + i % 3), TaskSpec::new("b", 1 + (i / 3) % 2)];
        let ids = TaskWorld::run(&specs, |tc| {
            tc.world.barrier();
            tc.task_id
        });
        assert_eq!(ids.len(), specs[0].procs + specs[1].procs);
    }
}

/// Wildcard receives under concurrent senders never lose or duplicate.
#[test]
fn wildcard_fan_in() {
    World::run(16, |c| {
        if c.rank() == 0 {
            let mut seen = [0u32; 16];
            for _ in 0..15 * 10 {
                let env = c.recv(ANY_SOURCE, ANY_TAG);
                seen[env.src] += 1;
                assert_eq!(env.tag as usize, env.src);
            }
            assert!(seen[1..].iter().all(|&s| s == 10));
        } else {
            for _ in 0..10 {
                c.send(0, c.rank() as u32, vec![0u8; c.rank()]);
            }
        }
    });
}
