//! The mailbox's spin-then-park wait, read through its counters: a
//! ping-pong, whose replies arrive within the spin cap, is mostly served
//! by spinning; a receive whose sender is slower than the cap learns to
//! park at once. Counts land on the receiving rank's lane.

use std::time::Duration;

use bytes::Bytes;
use obsv::Ctr;
use simmpi::{TransportKind, World};

/// `(spin hits, parks)` on `rank`'s lanes.
fn on_rank(rep: &obsv::Report, rank: usize) -> (u64, u64) {
    rep.lanes.iter().filter(|l| l.rank == rank).fold((0, 0), |(h, p), l| {
        (h + l.counters[Ctr::MailboxSpinHits as usize], p + l.counters[Ctr::MailboxParks as usize])
    })
}

/// Total `(spin hits, parks)` across every lane.
fn total(rep: &obsv::Report) -> (u64, u64) {
    (rep.counter(Ctr::MailboxSpinHits), rep.counter(Ctr::MailboxParks))
}

/// One 2-rank ping-pong world: `(spin hits, parks)` recorded after the
/// warm-up round trips. The world is in-proc whatever the environment
/// selects: the test's premise is a round trip well inside the spin cap,
/// and a socket round trip sits at the cap itself.
fn ping_pong_after_warmup() -> (u64, u64) {
    const WARMUP: usize = 50;
    const ROUNDS: usize = 500;
    let reg = obsv::Registry::new();
    let reg2 = reg.clone();
    let world = World::builder(2).transport(TransportKind::InProc);
    let out = world.observe(reg.clone()).run(move |c| {
        let peer = 1 - c.rank();
        let mut after_warmup = (0, 0);
        for i in 0..WARMUP + ROUNDS {
            if i == WARMUP {
                c.barrier();
                after_warmup = total(&reg2.report());
                c.barrier();
            }
            if c.rank() == 0 {
                c.send(peer, 1, Bytes::from_static(b"ping"));
                c.recv(peer.into(), 1.into());
            } else {
                c.recv(peer.into(), 1.into());
                c.send(peer, 1, Bytes::from_static(b"pong"));
            }
        }
        after_warmup
    });
    let warm = out.results[0];
    let (hits, parks) = total(&reg.report());
    (hits - warm.0, parks - warm.1)
}

#[test]
fn a_ping_pong_is_served_by_spinning() {
    // A host whose cores are all busy with other work parks by design: a
    // yield hands the CPU away for a whole time slice, the spins miss and
    // the selector learns to park. So a round may lose to a burst of
    // outside load; one of ten must win.
    let mut rounds = Vec::new();
    for _ in 0..10 {
        let (hits, parks) = ping_pong_after_warmup();
        if hits > parks {
            return;
        }
        rounds.push((hits, parks));
    }
    panic!("after warm-up, spin hits vs parks per round: {rounds:?}");
}

#[test]
fn a_receive_slower_than_the_cap_stops_spinning() {
    const WARMUP: usize = 5;
    const SENDS: usize = 20;
    let reg = obsv::Registry::new();
    let reg2 = reg.clone();
    let out = World::builder(2).observe(reg.clone()).run(move |c| {
        let mut counts = Vec::new();
        for i in 0..WARMUP + SENDS {
            if c.rank() == 0 {
                // The sender is the slow side: each message comes well
                // after the receiver's spin cap.
                std::thread::sleep(Duration::from_millis(2));
                c.send(1, 3, Bytes::from_static(b"slow"));
            } else {
                c.recv(0.into(), 3.into());
                if i + 1 >= WARMUP {
                    counts.push(on_rank(&reg2.report(), 1));
                }
            }
        }
        counts
    });
    let counts = &out.results[1];
    let (first, last) = (counts[0], counts[counts.len() - 1]);
    assert_eq!(last.0, first.0, "spin hits stay flat after warm-up: {counts:?}");
    assert!(last.1 >= first.1 + SENDS as u64 / 2, "later receives park: {counts:?}");
    assert_eq!(on_rank(&reg.report(), 0), (0, 0), "the sender received nothing");
}
