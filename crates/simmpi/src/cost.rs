//! Optional interconnect cost model.
//!
//! Shared-memory thread channels are faster and flatter than a Dragonfly
//! network. Experiments that want to emulate network behavior (e.g. to make
//! the memory-mode weak-scaling curve "rise slowly" like the paper's Fig. 5)
//! can attach a [`CostModel`]: each delivered message charges a fixed
//! latency plus a per-byte cost, slept on the receiving side after the
//! match. The default (no cost model) charges nothing.
//!
//! The cost model also drives the one size switch in the collectives
//! (see `simmpi::collectives`), as real MPI implementations switch
//! schedules by message size: payloads below
//! [`CostModel::large_payload_threshold`] are latency-bound and take the
//! log-time tree / recursive-doubling schedules; payloads at or above it
//! are bandwidth-bound and take the ring allgather and the segmented
//! broadcast. Without a cost model nothing switches.

use std::time::Duration;

/// Segment size floor/ceiling for the pipelined broadcast: segments far
/// below a KiB drown in framing, far above a MiB stop pipelining.
const SEGMENT_FLOOR: usize = 64;
const SEGMENT_CEIL: usize = 1 << 20;

/// Linear latency/bandwidth message cost: `latency + bytes * per_byte_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-message cost.
    pub latency: Duration,
    /// Cost per payload byte, in nanoseconds (fractional values allowed).
    pub per_byte_ns: f64,
}

impl CostModel {
    /// A rough interconnect-like model: 1 µs latency, 10 GB/s bandwidth
    /// (0.1 ns per byte).
    pub fn interconnect() -> Self {
        CostModel { latency: Duration::from_micros(1), per_byte_ns: 0.1 }
    }

    /// Total simulated transfer time for a message of `bytes` payload bytes.
    pub fn delay(&self, bytes: usize) -> Duration {
        let transfer_ns = (self.per_byte_ns * bytes as f64).round() as u64;
        self.latency + Duration::from_nanos(transfer_ns)
    }

    /// Payload size (bytes) at which the transfer term equals the fixed
    /// latency — the crossover where a collective stops being
    /// latency-bound and the bandwidth-optimal schedules (ring allgather,
    /// segmented broadcast) start paying off. A pure-latency model
    /// (`per_byte_ns == 0`) never crosses over.
    pub fn large_payload_threshold(&self) -> usize {
        if self.per_byte_ns <= 0.0 {
            return usize::MAX;
        }
        let bytes = self.latency.as_nanos() as f64 / self.per_byte_ns;
        if bytes >= usize::MAX as f64 {
            usize::MAX
        } else {
            (bytes.max(1.0)) as usize
        }
    }

    /// Segment size for the pipelined broadcast: one threshold's worth of
    /// bytes per segment (so segment transfer time ≈ per-hop latency,
    /// the classic pipelining sweet spot), clamped to a sane range.
    pub fn segment_bytes(&self) -> usize {
        self.large_payload_threshold().clamp(SEGMENT_FLOOR, SEGMENT_CEIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_linear_in_bytes() {
        let cm = CostModel { latency: Duration::from_nanos(100), per_byte_ns: 2.0 };
        assert_eq!(cm.delay(0), Duration::from_nanos(100));
        assert_eq!(cm.delay(50), Duration::from_nanos(200));
    }

    #[test]
    fn interconnect_model_is_sane() {
        let cm = CostModel::interconnect();
        // 1 GiB at 10 GB/s ≈ 0.107 s (plus 1 µs latency)
        let d = cm.delay(1 << 30);
        assert!(d > Duration::from_millis(100) && d < Duration::from_millis(120));
    }

    #[test]
    fn threshold_is_the_latency_bandwidth_crossover() {
        let cm = CostModel::interconnect();
        // 1 µs / 0.1 ns-per-byte = 10_000 bytes.
        assert_eq!(cm.large_payload_threshold(), 10_000);
        let pure_latency = CostModel { latency: Duration::from_micros(5), per_byte_ns: 0.0 };
        assert_eq!(pure_latency.large_payload_threshold(), usize::MAX);
        assert_eq!(pure_latency.segment_bytes(), SEGMENT_CEIL);
    }
}
