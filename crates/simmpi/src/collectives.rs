//! Collective operations over a [`Comm`].
//!
//! All collectives are built from point-to-point messages on reserved tags
//! (top bit set), so they share the pairwise-FIFO guarantees of the
//! transport. Each operation has one schedule: binomial-tree gather /
//! scatter / reduce, Bruck-dissemination allgather, recursive-doubling
//! allreduce and exclusive scan, and a pairwise-exchange all-to-all that
//! completes receives in *arrival order* (any-source) instead of rank
//! order, so a straggling sender does not head-of-line-block every
//! receiver. No schedule depends on the payload size.
//!
//! Reductions assume an operator that is commutative and associative in
//! the mathematical sense (e.g. integer sum/min/max — the usual MPI
//! requirement); `tests/proptest_collectives.rs` checks every result
//! against values computed directly from the inputs, across world
//! geometry, payload shapes and fault seeds.
//!
//! Tree interior nodes aggregate subtree payloads as multi-part
//! [`Payload`] frames (a small length header plus the original refcounted
//! blocks), so no data byte is copied on the way up or down the tree.

use bytes::{BufMut, Bytes, BytesMut};

use crate::comm::Comm;
use crate::envelope::Tag;
use crate::payload::Payload;
use crate::pod::{self, Pod};

/// Tags at or above this value are reserved for collective internals.
pub(crate) const COLLECTIVE_TAG_BASE: Tag = 0x8000_0000;

const TAG_BARRIER: Tag = COLLECTIVE_TAG_BASE; // + round number (≤ 64)
const TAG_BCAST: Tag = COLLECTIVE_TAG_BASE + 0x100;
const TAG_GATHER: Tag = COLLECTIVE_TAG_BASE + 0x101;
const TAG_SCATTER: Tag = COLLECTIVE_TAG_BASE + 0x102;
const TAG_REDUCE: Tag = COLLECTIVE_TAG_BASE + 0x105;
const TAG_ALLREDUCE_FOLD: Tag = COLLECTIVE_TAG_BASE + 0x106;
const TAG_ALLREDUCE_OUT: Tag = COLLECTIVE_TAG_BASE + 0x107;
/// Any-source all-to-all: + (epoch mod 256), see [`Comm::next_coll_epoch`].
const TAG_ALLTOALL_BASE: Tag = COLLECTIVE_TAG_BASE + 0x200;
const TAG_ALLGATHER: Tag = COLLECTIVE_TAG_BASE + 0x300; // + round (≤ 64)
const TAG_ALLREDUCE: Tag = COLLECTIVE_TAG_BASE + 0x340; // + round (≤ 64)
const TAG_EXSCAN: Tag = COLLECTIVE_TAG_BASE + 0x380; // + round (≤ 64)

/// The class of `tag` that a receive's spin history is kept under
/// ([`crate::mailbox::SpinPredictor`]): an all-to-all's per-call epoch is
/// folded out, so every exchange shares one history instead of landing in
/// a slot it never used. Every other tag is its own class. Matching still
/// uses the exact tag.
pub(crate) fn tag_class(tag: Tag) -> Tag {
    if (TAG_ALLTOALL_BASE..TAG_ALLTOALL_BASE + 0x100).contains(&tag) {
        TAG_ALLTOALL_BASE
    } else {
        tag
    }
}

/// Counter bump + payload/latency histograms around one collective call.
struct CollTimer {
    start_ns: Option<u64>,
}

fn coll_timer(ctr: obsv::Ctr, bytes: usize) -> CollTimer {
    obsv::counter_add(ctr, 1);
    if obsv::active() {
        obsv::hist_record(obsv::Hist::CollBytes, bytes as u64);
        CollTimer { start_ns: Some(obsv::clock::now_ns()) }
    } else {
        CollTimer { start_ns: None }
    }
}

impl Drop for CollTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start_ns {
            obsv::hist_record(
                obsv::Hist::CollLatencyNs,
                obsv::clock::now_ns().saturating_sub(start),
            );
        }
    }
}

impl Comm {
    /// Dissemination barrier: every rank blocks until all ranks arrive.
    pub fn barrier(&self) {
        let _t = coll_timer(obsv::Ctr::CollBarrier, 0);
        let n = self.size();
        if n == 1 {
            return;
        }
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            self.send_internal(to, TAG_BARRIER + k, Bytes::new().into());
            let _ = self.recv(from.into(), (TAG_BARRIER + k).into());
            dist <<= 1;
            k += 1;
        }
    }

    /// Binomial-tree broadcast. `root` passes `Some(data)`; everyone
    /// receives the broadcast value. The payload travels as it is: an
    /// interior node forwards the payload it received to each child, a
    /// refcount bump rather than a copy.
    pub fn bcast_bytes(&self, root: usize, data: Option<Bytes>) -> Bytes {
        let _t = coll_timer(obsv::Ctr::CollBcast, data.as_ref().map_or(0, Bytes::len));
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        // Forwarding masks: the root covers every bit below the tree top;
        // an interior node covers the bits below its lowest set bit.
        let (payload, mut mask) = if vrank == 0 {
            let mut top = 1usize;
            while top < n {
                top <<= 1;
            }
            (Payload::from(data.expect("broadcast root must supply data")), top >> 1)
        } else {
            let lowbit = vrank & vrank.wrapping_neg();
            let parent = (vrank - lowbit + root) % n;
            (self.recv_parts(parent.into(), TAG_BCAST.into()).payload, lowbit >> 1)
        };
        while mask > 0 {
            if vrank + mask < n {
                let child = (vrank + mask + root) % n;
                self.send_internal(child, TAG_BCAST, payload.clone());
            }
            mask >>= 1;
        }
        payload.into_bytes()
    }

    /// Broadcast a typed value from `root`.
    pub fn bcast_one<T: Pod>(&self, root: usize, value: Option<T>) -> T {
        let payload = value.map(|v| pod::to_bytes(&[v]));
        pod::from_bytes::<T>(&self.bcast_bytes(root, payload))[0]
    }

    /// Gather every rank's payload at `root` (variable lengths allowed).
    /// Returns `Some(vec indexed by rank)` at root, `None` elsewhere.
    ///
    /// Schedule: a binomial tree. Interior nodes aggregate their subtree's
    /// blocks into one framed message, so the root completes in `⌈lg n⌉`
    /// receives instead of `n-1`.
    pub fn gather_bytes(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        let _t = coll_timer(obsv::Ctr::CollGather, data.len());
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        // Invariant: `blocks[i]` is the payload of vrank `vrank + i`; a
        // subtree is always a contiguous vrank range.
        let mut blocks: Vec<Bytes> = vec![data];
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % n;
                self.send_internal(parent, TAG_GATHER, frame_blocks(&blocks));
                return None;
            }
            let vchild = vrank + mask;
            if vchild < n {
                let child = (vchild + root) % n;
                let env = self.recv_parts(child.into(), TAG_GATHER.into());
                blocks.extend(unframe_blocks(env.payload));
            }
            mask <<= 1;
        }
        debug_assert_eq!(vrank, 0, "only the root survives every round");
        let mut out = vec![Bytes::new(); n];
        for (vr, b) in blocks.into_iter().enumerate() {
            out[(vr + root) % n] = b;
        }
        Some(out)
    }

    /// Scatter one payload to each rank from `root`; returns this rank's
    /// piece. `parts` must be `Some` (length = size) at root.
    ///
    /// Schedule: the gather tree run in reverse — the root ships each
    /// child its whole framed subtree, halving at every level.
    pub fn scatter_bytes(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        let _t = coll_timer(
            obsv::Ctr::CollScatter,
            parts.as_ref().map_or(0, |p| p.iter().map(Bytes::len).sum()),
        );
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        // `blocks[i]` is the payload destined for vrank `vrank + i`.
        let (mut blocks, mut mask) = if vrank == 0 {
            let parts = parts.expect("scatter root must supply parts");
            assert_eq!(parts.len(), n, "scatter needs one part per rank");
            let mut v = vec![Bytes::new(); n];
            for (r, p) in parts.into_iter().enumerate() {
                v[(r + n - root) % n] = p;
            }
            let mut top = 1usize;
            while top < n {
                top <<= 1;
            }
            (v, top >> 1)
        } else {
            let lowbit = vrank & vrank.wrapping_neg();
            let parent = (vrank - lowbit + root) % n;
            let env = self.recv_parts(parent.into(), TAG_SCATTER.into());
            (unframe_blocks(env.payload), lowbit >> 1)
        };
        while mask > 0 {
            if vrank + mask < n && blocks.len() > mask {
                let child = (vrank + mask + root) % n;
                self.send_internal(child, TAG_SCATTER, frame_blocks(&blocks[mask..]));
                blocks.truncate(mask);
            }
            mask >>= 1;
        }
        debug_assert_eq!(blocks.len(), 1, "one block left: this rank's piece");
        blocks.swap_remove(0)
    }

    /// Personalized all-to-all: send `parts[i]` to rank `i`, receive one
    /// payload from every rank (variable lengths — `MPI_Alltoallv`).
    /// Returns payloads indexed by source rank.
    ///
    /// Schedule: a pairwise-exchange send order (round `r` targets rank
    /// `me + r`), with receives completed in **arrival order** via
    /// any-source matching — a straggling sender delays only its own
    /// payload, not the whole receive loop. Each call is tagged with a
    /// per-communicator epoch so a fast rank's next exchange can never
    /// satisfy a slow rank's current one.
    pub fn alltoall_bytes(&self, mut parts: Vec<Bytes>) -> Vec<Bytes> {
        let _t = coll_timer(obsv::Ctr::CollAlltoall, parts.iter().map(Bytes::len).sum());
        assert_eq!(parts.len(), self.size(), "one part per rank");
        let n = self.size();
        let me = self.rank();
        let tag = TAG_ALLTOALL_BASE + (self.next_coll_epoch() & 0xFF);
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[me] = std::mem::take(&mut parts[me]);
        // Staggered pairwise schedule: in round r every rank targets
        // rank me+r, so no destination is hammered by all senders at once.
        for round in 1..n {
            let dest = (me + round) % n;
            self.send_internal(dest, tag, std::mem::take(&mut parts[dest]).into());
        }
        for _ in 1..n {
            let env = self.recv_parts_collective_any(tag.into());
            out[env.src] = env.payload.into_bytes();
        }
        out
    }

    /// All ranks obtain every rank's payload, indexed by rank.
    ///
    /// Schedule: Bruck dissemination — `⌈lg n⌉` rounds, doubling the
    /// shipped block set each round.
    pub fn allgather_bytes(&self, data: Bytes) -> Vec<Bytes> {
        let _t = coll_timer(obsv::Ctr::CollAllgather, data.len());
        let n = self.size();
        let me = self.rank();
        // `blocks[j]` is the payload of rank `me + j` (mod n).
        let mut blocks: Vec<Bytes> = vec![data];
        let mut dist = 1usize;
        let mut round: Tag = 0;
        while dist < n {
            let cnt = dist.min(n - dist);
            let dest = (me + n - dist) % n;
            let src = (me + dist) % n;
            self.send_internal(dest, TAG_ALLGATHER + round, frame_blocks(&blocks[..cnt]));
            let env = self.recv_parts(src.into(), (TAG_ALLGATHER + round).into());
            blocks.extend(unframe_blocks(env.payload));
            dist <<= 1;
            round += 1;
        }
        debug_assert_eq!(blocks.len(), n);
        let mut out = vec![Bytes::new(); n];
        for (j, b) in blocks.into_iter().enumerate() {
            out[(me + j) % n] = b;
        }
        out
    }

    /// All-gather a single typed value per rank.
    pub fn allgather_one<T: Pod>(&self, value: T) -> Vec<T> {
        self.allgather_bytes(pod::to_bytes(&[value]))
            .iter()
            .map(|b| pod::from_bytes::<T>(b)[0])
            .collect()
    }

    /// Reduce one typed value per rank with `op`; result at `root`.
    ///
    /// `op` must be commutative and associative (the MPI reduction
    /// contract): the binomial tree combines subtrees out of rank order.
    pub fn reduce_one<T: Pod, F: Fn(T, T) -> T>(&self, root: usize, value: T, op: F) -> Option<T> {
        let _t = coll_timer(obsv::Ctr::CollReduce, std::mem::size_of::<T>());
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < n {
            if vrank & mask != 0 {
                let parent = (vrank - mask + root) % n;
                self.send_internal(parent, TAG_REDUCE, pod::to_bytes(&[acc]).into());
                return None;
            }
            if vrank + mask < n {
                let child = (vrank + mask + root) % n;
                let env = self.recv(child.into(), TAG_REDUCE.into());
                acc = op(acc, pod::from_bytes::<T>(&env.payload)[0]);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduce one typed value per rank with `op` (same commutative +
    /// associative contract as [`Comm::reduce_one`]).
    ///
    /// Schedule: recursive doubling — `⌈lg n⌉` exchange rounds, every
    /// rank finishing with the result, no broadcast needed. Ranks past the
    /// largest power of two fold into a partner first and get the result
    /// shipped back.
    pub fn allreduce_one<T: Pod, F: Fn(T, T) -> T>(&self, value: T, op: F) -> T {
        let _t = coll_timer(obsv::Ctr::CollReduce, std::mem::size_of::<T>());
        let n = self.size();
        if n == 1 {
            return value;
        }
        let me = self.rank();
        let p = 1usize << (usize::BITS - 1 - n.leading_zeros()); // largest pow2 ≤ n
        let extras = n - p;
        let mut acc = value;
        if me >= p {
            // Fold into the partner below the power-of-two boundary, then
            // wait for the finished result.
            self.send_internal(me - p, TAG_ALLREDUCE_FOLD, pod::to_bytes(&[acc]).into());
            let env = self.recv((me - p).into(), TAG_ALLREDUCE_OUT.into());
            return pod::from_bytes::<T>(&env.payload)[0];
        }
        if me < extras {
            let env = self.recv((me + p).into(), TAG_ALLREDUCE_FOLD.into());
            acc = op(acc, pod::from_bytes::<T>(&env.payload)[0]);
        }
        let mut dist = 1usize;
        let mut k: Tag = 0;
        while dist < p {
            let peer = me ^ dist;
            self.send_internal(peer, TAG_ALLREDUCE + k, pod::to_bytes(&[acc]).into());
            let env = self.recv(peer.into(), (TAG_ALLREDUCE + k).into());
            acc = op(acc, pod::from_bytes::<T>(&env.payload)[0]);
            dist <<= 1;
            k += 1;
        }
        if me < extras {
            self.send_internal(me + p, TAG_ALLREDUCE_OUT, pod::to_bytes(&[acc]).into());
        }
        acc
    }

    /// Exclusive prefix sum of `value` over ranks (rank 0 gets 0).
    ///
    /// Schedule: recursive-doubling scan — in round `k` rank `r`
    /// ships its running total to `r + 2^k` and folds the total arriving
    /// from `r - 2^k`, finishing in `⌈lg n⌉` rounds instead of
    /// allgathering every value.
    pub fn exscan_u64(&self, value: u64) -> u64 {
        let _t = coll_timer(obsv::Ctr::CollExscan, std::mem::size_of::<u64>());
        let n = self.size();
        let me = self.rank();
        let mut have = value; // inclusive running total of (me-2^k, me]
        let mut result = 0u64; // exclusive prefix accumulated so far
        let mut dist = 1usize;
        let mut k: Tag = 0;
        while dist < n {
            if me + dist < n {
                self.send_internal(me + dist, TAG_EXSCAN + k, pod::to_bytes(&[have]).into());
            }
            if me >= dist {
                let env = self.recv((me - dist).into(), (TAG_EXSCAN + k).into());
                let v = pod::from_bytes::<u64>(&env.payload)[0];
                result += v;
                have += v;
            }
            dist <<= 1;
            k += 1;
        }
        result
    }

    /// Element-wise all-reduce of equal-length typed vectors
    /// (`MPI_Allreduce` on an array): every rank gets
    /// `op(v₀[i], v₁[i], …)` per element.
    pub fn allreduce_vec<T: Pod, F: Fn(T, T) -> T>(&self, values: &[T], op: F) -> Vec<T> {
        let gathered = self.allgather_bytes(pod::to_bytes(values));
        let mut acc: Vec<T> = pod::from_bytes(&gathered[0]);
        for b in &gathered[1..] {
            let v: Vec<T> = pod::from_bytes(b);
            assert_eq!(v.len(), acc.len(), "allreduce_vec length mismatch across ranks");
            for (a, x) in acc.iter_mut().zip(v) {
                *a = op(*a, x);
            }
        }
        acc
    }
}

/// Frame a block list as a multi-part [`Payload`]: one header part
/// (`[count u64][len u64]...`) followed by every non-empty block as its
/// own refcounted part — no payload byte is copied. The tree and
/// dissemination collectives aggregate block sets with this frame.
fn frame_blocks(blocks: &[Bytes]) -> Payload {
    let mut hdr = BytesMut::with_capacity(8 + 8 * blocks.len());
    hdr.put_u64_le(blocks.len() as u64);
    for b in blocks {
        hdr.put_u64_le(b.len() as u64);
    }
    let mut p: Payload = hdr.freeze().into();
    for b in blocks {
        p.push(b.clone());
    }
    p
}

/// Inverse of [`frame_blocks`]. Over the in-proc transport the delivered
/// parts *are* the sender's blocks (empty blocks were dropped on send and
/// are restored from the length table), so unframing is pure bookkeeping.
/// Over a wire transport the payload arrives in its contiguous flattened
/// form; blocks are then sub-slices of one buffer. Both paths are
/// zero-copy — a slice of a refcounted buffer is a refcount bump.
fn unframe_blocks(mut p: Payload) -> Vec<Bytes> {
    let mut cnt = [0u8; 8];
    assert!(p.copy_prefix(&mut cnt), "framed block count");
    let count = u64::from_le_bytes(cnt) as usize;
    let hdr_len = 8 + 8 * count;
    let mut hdr = vec![0u8; hdr_len];
    assert!(p.copy_prefix(&mut hdr), "framed block lengths");
    p.advance(hdr_len);
    let len_at = |i: usize| {
        let at = 8 + 8 * i;
        u64::from_le_bytes(hdr[at..at + 8].try_into().expect("8 bytes")) as usize
    };
    let aligned = p.parts().iter().map(Bytes::len).eq((0..count).map(len_at).filter(|&l| l != 0));
    let mut out = Vec::with_capacity(count);
    if aligned {
        let mut parts = p.parts().iter();
        for i in 0..count {
            if len_at(i) == 0 {
                out.push(Bytes::new());
            } else {
                out.push(parts.next().expect("one part per non-empty block").clone());
            }
        }
    } else {
        // Contiguous (wire) form: one part holding every block in order.
        // `into_bytes` is free here — flattening already happened on the
        // wire — and each block is a shared sub-slice.
        let data = p.into_bytes();
        let mut off = 0;
        for i in 0..count {
            let len = len_at(i);
            out.push(data.slice(off..off + len));
            off += len;
        }
        assert_eq!(off, data.len(), "frame table covers the delivered bytes");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::time::Duration;

    #[test]
    fn barrier_all_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            World::run(n, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1usize, 2, 5, 9] {
            for root in 0..n {
                World::run(n, move |c| {
                    let data = if c.rank() == root {
                        Some(Bytes::from(format!("hello-{root}")))
                    } else {
                        None
                    };
                    let got = c.bcast_bytes(root, data);
                    assert_eq!(&got[..], format!("hello-{root}").as_bytes());
                });
            }
        }
    }

    #[test]
    fn gather_preserves_rank_order_and_lengths() {
        World::run(5, |c| {
            let mine = Bytes::from(vec![c.rank() as u8; c.rank() + 1]);
            if let Some(all) = c.gather_bytes(2, mine) {
                assert_eq!(c.rank(), 2);
                for (r, b) in all.iter().enumerate() {
                    assert_eq!(b.len(), r + 1);
                    assert!(b.iter().all(|&x| x == r as u8));
                }
            }
        });
    }

    #[test]
    fn gather_from_every_root_every_size() {
        for n in [1usize, 2, 3, 4, 6, 7, 8, 9] {
            for root in 0..n {
                World::run(n, move |c| {
                    let mine = Bytes::from(vec![c.rank() as u8; (c.rank() * 3) % 5]);
                    let got = c.gather_bytes(root, mine);
                    if c.rank() == root {
                        let all = got.expect("root result");
                        for (r, b) in all.iter().enumerate() {
                            assert_eq!(b.len(), (r * 3) % 5, "rank {r} length");
                            assert!(b.iter().all(|&x| x == r as u8));
                        }
                    } else {
                        assert!(got.is_none());
                    }
                });
            }
        }
    }

    #[test]
    fn scatter_delivers_each_part() {
        World::run(4, |c| {
            let parts =
                (c.rank() == 1).then(|| (0..4).map(|r| Bytes::from(vec![r as u8; 3])).collect());
            let mine = c.scatter_bytes(1, parts);
            assert_eq!(&mine[..], &[c.rank() as u8; 3]);
        });
    }

    #[test]
    fn scatter_from_every_root_every_size() {
        for n in [1usize, 2, 3, 5, 8, 9] {
            for root in 0..n {
                World::run(n, move |c| {
                    let parts = (c.rank() == root)
                        .then(|| (0..n).map(|r| Bytes::from(vec![r as u8; r % 4])).collect());
                    let mine = c.scatter_bytes(root, parts);
                    assert_eq!(&mine[..], &vec![c.rank() as u8; c.rank() % 4][..]);
                });
            }
        }
    }

    #[test]
    fn allgather_matches_ranks() {
        World::run(6, |c| {
            let all = c.allgather_one::<u64>(c.rank() as u64 * 7);
            assert_eq!(all, (0..6).map(|r| r * 7).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn reductions() {
        World::run(7, |c| {
            let sum = c.allreduce_one::<u64, _>(c.rank() as u64, |a, b| a + b);
            assert_eq!(sum, 21);
            let max = c.allreduce_one::<u64, _>(c.rank() as u64, std::cmp::max);
            assert_eq!(max, 6);
            let min_at_3 = c.reduce_one::<u64, _>(3, c.rank() as u64 + 10, std::cmp::min);
            if c.rank() == 3 {
                assert_eq!(min_at_3, Some(10));
            } else {
                assert!(min_at_3.is_none());
            }
        });
    }

    #[test]
    fn allreduce_every_size() {
        for n in 1usize..10 {
            World::run(n, move |c| {
                let sum = c.allreduce_one::<u64, _>(c.rank() as u64 + 1, |a, b| a + b);
                assert_eq!(sum, (n * (n + 1) / 2) as u64);
            });
        }
    }

    #[test]
    fn exscan_is_exclusive_prefix_sum() {
        for n in [1usize, 2, 3, 5, 7, 8] {
            World::run(n, |c| {
                let v = (c.rank() as u64 + 1) * 2; // 2,4,6,8,…
                let pre = c.exscan_u64(v);
                let expect: u64 = (0..c.rank()).map(|r| (r as u64 + 1) * 2).sum();
                assert_eq!(pre, expect);
            });
        }
    }

    #[test]
    fn collectives_on_split_comms() {
        World::run(8, |c| {
            let sub = c.split(c.rank() % 2, c.rank());
            let sum = sub.allreduce_one::<u64, _>(c.rank() as u64, |a, b| a + b);
            let expect: u64 = (0..8).filter(|r| r % 2 == c.rank() % 2).sum::<usize>() as u64;
            assert_eq!(sum, expect);
        });
    }

    #[test]
    fn alltoall_exchanges_personalized_payloads() {
        World::run(5, |c| {
            // parts[d] = [my_rank, d] as bytes.
            let parts: Vec<Bytes> =
                (0..5).map(|d| Bytes::from(vec![c.rank() as u8, d as u8])).collect();
            let got = c.alltoall_bytes(parts);
            for (src, b) in got.iter().enumerate() {
                assert_eq!(&b[..], &[src as u8, c.rank() as u8]);
            }
        });
    }

    #[test]
    fn alltoall_with_empty_parts() {
        World::run(3, |c| {
            let parts: Vec<Bytes> = (0..3)
                .map(|d| if d == 0 { Bytes::new() } else { Bytes::from(vec![d as u8; d]) })
                .collect();
            let got = c.alltoall_bytes(parts);
            // Every source sent me the part destined to my rank: empty for
            // rank 0, `rank` bytes of value `rank` otherwise.
            if c.rank() == 0 {
                assert!(got.iter().all(|b| b.is_empty()));
            } else {
                assert!(got
                    .iter()
                    .all(|b| b.len() == c.rank() && b.iter().all(|&x| x == c.rank() as u8)));
            }
        });
    }

    #[test]
    fn repeated_alltoalls_do_not_cross() {
        World::run(4, |c| {
            for round in 0..10u8 {
                let parts: Vec<Bytes> =
                    (0..4).map(|_| Bytes::from(vec![round, c.rank() as u8])).collect();
                let got = c.alltoall_bytes(parts);
                for (src, b) in got.iter().enumerate() {
                    assert_eq!(&b[..], &[round, src as u8]);
                }
            }
        });
    }

    #[test]
    fn allreduce_vec_elementwise() {
        World::run(4, |c| {
            let mine: Vec<u64> = (0..6).map(|i| (c.rank() as u64 + 1) * (i + 1)).collect();
            let sums = c.allreduce_vec(&mine, |a: u64, b| a + b);
            // Σ_r (r+1)(i+1) = 10(i+1) for 4 ranks.
            assert_eq!(sums, (0..6).map(|i| 10 * (i + 1)).collect::<Vec<u64>>());
            let maxs = c.allreduce_vec(&mine, std::cmp::max::<u64>);
            assert_eq!(maxs, (0..6).map(|i| 4 * (i + 1)).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn frame_roundtrip() {
        // The wire form: a socket transport delivers the frame flattened
        // into one contiguous part, and each block is a slice of it.
        let parts = vec![Bytes::from_static(b"a"), Bytes::new(), Bytes::from_static(b"xyz")];
        let flat = Payload::from(frame_blocks(&parts).into_bytes());
        assert_eq!(unframe_blocks(flat), parts);
    }

    #[test]
    fn frame_blocks_roundtrip_is_zero_copy() {
        let a = Bytes::from(vec![1u8; 5]);
        let blocks = vec![a.clone(), Bytes::new(), Bytes::from_static(b"xyz")];
        let framed = frame_blocks(&blocks);
        assert_eq!(framed.num_parts(), 3, "header + two non-empty blocks");
        let back = unframe_blocks(framed);
        assert_eq!(back, blocks);
        assert_eq!(back[0].as_ptr(), a.as_ptr(), "blocks are shared, not copied");
    }

    #[test]
    fn bcast_large_payload() {
        World::run(4, |c| {
            let data = (c.rank() == 0).then(|| Bytes::from(vec![0xAB; 1 << 20]));
            let got = c.bcast_bytes(0, data);
            assert_eq!(got.len(), 1 << 20);
            assert!(got.iter().all(|&b| b == 0xAB));
        });
    }

    #[test]
    fn pairwise_alltoall_tolerates_a_straggler() {
        // Rank 0 sleeps before sending; arrival-order receives let every
        // other rank drain its peers meanwhile. All payloads still land.
        World::run(5, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            let parts: Vec<Bytes> =
                (0..5).map(|d| Bytes::from(vec![c.rank() as u8, d as u8])).collect();
            let got = c.alltoall_bytes(parts);
            for (src, b) in got.iter().enumerate() {
                assert_eq!(&b[..], &[src as u8, c.rank() as u8]);
            }
        });
    }
}
