//! Log2-bucket histograms for latencies and sizes.
//!
//! Recording is one atomic add into a power-of-two bucket plus count/sum
//! totals — no allocation, no locks. Bucket `0` holds the value 0; bucket
//! `i ≥ 1` holds values in `[2^(i-1), 2^i)`. 65 buckets cover the full
//! `u64` range.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit position.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_hi(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Shared-writer histogram used on the hot path.
#[derive(Debug)]
pub struct AtomicHist {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHist {
    /// Record one value: three relaxed atomic adds.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copy the current totals into a plain-data snapshot.
    pub fn snapshot(&self) -> HistData {
        HistData {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot; merging snapshots is associative, commutative, and
/// lossless (verified by proptest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistData {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping, like the atomic writer).
    pub sum: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData { buckets: [0; NUM_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistData {
    /// Record one value into the plain-data form.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        // Wrapping, matching the relaxed `fetch_add` in `AtomicHist`: a
        // pathological sum overflow must not poison merging.
        self.sum = self.sum.wrapping_add(value);
    }

    /// Fold `other`'s observations into this snapshot (lossless).
    pub fn merge(&mut self, other: &HistData) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo bound of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn atomic_and_plain_agree() {
        let a = AtomicHist::default();
        let mut p = HistData::default();
        for v in [0u64, 1, 7, 1024, 99999] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
        assert_eq!(p.count, 5);
        assert_eq!(p.sum, 101031);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HistData::default();
        let mut b = HistData::default();
        a.record(3);
        b.record(300);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 303);
        for v in [0, 3, 300] {
            assert_eq!(a.buckets[bucket_index(v)], 1, "{v}");
        }
    }
}
