//! Payload-sized buffers, recycled once their last reader lets go.
//!
//! A consumer's read result and a socket frame's body are each a fresh
//! allocation the size of the data. The application drops last step's
//! result before (or soon after) it asks for the next one, and the mailbox
//! drops a body once its bytes are scattered, so the same few allocations
//! could carry every step. [`BufPool`] lets them: [`BufPool::track`]
//! remembers a handed-out buffer, and [`BufPool::take`] hands it out again
//! once no other handle — clone or slice, on any thread — is left. The
//! pool's own handle keeps the memory alive in between, which is what makes
//! a steady-state step allocate no payload bytes and keeps peak RSS off the
//! allocator's arena layout.
//!
//! The aggregation buffers of Ertl et al.'s HDF5 I/O kernel (PAPERS.md)
//! are reused across steps the same way.

use std::collections::VecDeque;

use bytes::Bytes;
use parking_lot::Mutex;

/// A bounded set of recyclable byte buffers (see the module docs).
///
/// Requests under [`BufPool::MIN_LEN`] bytes go straight to the allocator
/// and are never tracked, so control frames and small reads cost what they
/// did. A tracked buffer is reused only for a request `n` its capacity
/// fits within `n..=2n`, so a small request never pins a large buffer. At
/// most [`BufPool::MAX_TRACKED`] buffers are tracked, the oldest dropped
/// first.
#[derive(Default)]
pub struct BufPool {
    /// Whole buffers this pool handed out, oldest first.
    tracked: Mutex<VecDeque<Bytes>>,
}

impl BufPool {
    /// Smallest request the pool serves or tracks.
    pub const MIN_LEN: usize = 64 << 10;
    /// Most buffers tracked at once: a read of four chunks, plus the four
    /// its caller still holds from the previous step.
    pub const MAX_TRACKED: usize = 8;

    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of length 0 and capacity at least `n`: a tracked one that
    /// nothing else holds any more, or else a fresh allocation. Its spare
    /// capacity may hold a previous user's bytes; treat it as
    /// uninitialised.
    pub fn take(&self, n: usize) -> Vec<u8> {
        if n >= Self::MIN_LEN {
            let fits = n..=n.saturating_mul(2);
            let mut tracked = self.tracked.lock();
            let mut i = 0;
            while i < tracked.len() {
                // The length is a lower bound on the capacity, so this
                // skips what is too big without touching it. Uniqueness is
                // decided here, under the lock: with the pool's handle the
                // only one, nobody can clone it back into use.
                if tracked[i].len() <= *fits.end() && tracked[i].is_unique() {
                    let b = tracked.remove(i).expect("index below the length");
                    match b.try_into_mut() {
                        Ok(m) if fits.contains(&m.capacity()) => {
                            let mut v = Vec::from(m);
                            v.clear();
                            return v;
                        }
                        Ok(m) => tracked.insert(i, m.freeze()),
                        Err(b) => tracked.insert(i, b),
                    }
                }
                i += 1;
            }
        }
        Vec::with_capacity(n)
    }

    /// Remember `b` so a later [`BufPool::take`] can reuse it, and return
    /// it. `b` must be a whole buffer (not a slice of a larger one), as
    /// every `Bytes::from(vec)` is. Under [`BufPool::MIN_LEN`] bytes it is
    /// returned untracked.
    pub fn track(&self, b: Bytes) -> Bytes {
        if b.len() >= Self::MIN_LEN {
            let mut tracked = self.tracked.lock();
            if tracked.len() == Self::MAX_TRACKED {
                tracked.pop_front();
            }
            tracked.push_back(b.clone());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = BufPool::MIN_LEN;

    /// Fill a buffer taken from `pool` with `len` bytes of `fill`, track
    /// it, and return it with the address of its allocation.
    fn lend(pool: &BufPool, n: usize, len: usize, fill: u8) -> (Bytes, usize) {
        let mut v = pool.take(n);
        assert!(v.is_empty() && v.capacity() >= n);
        v.resize(len, fill);
        let b = pool.track(Bytes::from(v));
        let p = b.as_ptr() as usize;
        (b, p)
    }

    /// The address of the buffer `pool.take(n)` hands out (and drops).
    fn taken(pool: &BufPool, n: usize) -> usize {
        let v = pool.take(n);
        v.as_ptr() as usize
    }

    #[test]
    fn a_dropped_buffer_is_reused_and_a_held_one_never_is() {
        let pool = BufPool::new();
        let (a, pa) = lend(&pool, N, N, 1);
        let (b, pb) = lend(&pool, N, N, 2);
        assert_ne!(pa, pb, "`a` is still held");
        drop(a);
        let v = pool.take(N);
        assert_eq!(v.as_ptr() as usize, pa, "the dropped buffer comes back");
        assert!(v.is_empty() && v.capacity() >= N);
        assert_ne!(taken(&pool, N), pb, "`b` is still held");
        drop(b);
    }

    #[test]
    fn a_slice_or_a_clone_on_another_thread_pins_the_buffer() {
        let pool = BufPool::new();
        let (a, pa) = lend(&pool, N, N, 1);
        let window = a.slice(10..20);
        drop(a);
        assert_ne!(taken(&pool, N), pa, "a slice still reads it");
        drop(window);

        let (b, pb) = lend(&pool, N, N, 2);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let mine = b.clone();
                drop(b);
                held_tx.send(()).expect("the test waits for this");
                release_rx.recv().expect("the test releases the clone");
                mine.iter().all(|&x| x == 2)
            });
            held_rx.recv().expect("the reader holds its clone");
            let v = pool.take(N);
            assert_ne!(v.as_ptr() as usize, pb, "a clone on another thread pins it");
            release_tx.send(()).expect("the reader is waiting");
            assert!(reader.join().expect("reader"), "its bytes were never overwritten");
        });
        assert_eq!(taken(&pool, N), pb, "released, it comes back");
    }

    #[test]
    fn capacity_must_fall_within_n_to_2n() {
        let pool = BufPool::new();
        let (big, pbig) = lend(&pool, 4 * N, 4 * N, 1);
        drop(big);
        assert_ne!(taken(&pool, N), pbig, "too big for a request of N");
        assert_ne!(taken(&pool, 8 * N), pbig, "too small for 8N");
        assert_eq!(taken(&pool, 2 * N), pbig, "4N is within 2N..=4N");

        // Capacity, not length, decides: a short result in a large buffer
        // stays out of reach of a request its length alone would fit.
        let (short, pshort) = lend(&pool, 4 * N, N, 3);
        drop(short);
        assert_ne!(taken(&pool, N), pshort, "capacity 4N > 2N");
        assert_eq!(taken(&pool, 3 * N), pshort, "kept, and found later");
    }

    #[test]
    fn at_most_eight_are_tracked_and_the_oldest_goes_first() {
        let pool = BufPool::new();
        let lent: Vec<(Bytes, usize)> =
            (0..=BufPool::MAX_TRACKED).map(|i| lend(&pool, N, N, i as u8)).collect();
        let ptrs: Vec<usize> = lent.iter().map(|&(_, p)| p).collect();
        drop(lent);
        let reused: Vec<usize> = (0..BufPool::MAX_TRACKED).map(|_| taken(&pool, N)).collect();
        assert_eq!(reused, ptrs[1..], "the oldest was dropped; the rest come back in order");
    }

    #[test]
    fn small_requests_and_buffers_are_not_tracked() {
        let pool = BufPool::new();
        let small = pool.take(N - 1);
        assert!(small.is_empty() && small.capacity() >= N - 1);
        drop(pool.track(Bytes::from(vec![7u8; N - 1])));
        assert!(pool.tracked.lock().is_empty(), "under MIN_LEN bytes: not tracked");
    }
}
