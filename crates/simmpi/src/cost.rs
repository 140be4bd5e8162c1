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

/// Fraction of the raw body the wire codecs are assumed to ship for
/// compressible data — the planning estimate [`CostModel::compression_worthwhile`]
/// weighs against the codec's CPU cost (actual ratios are measured, not
/// assumed: the encoder falls back to raw when it fails to shrink).
pub const CODEC_ASSUMED_RATIO: f64 = 0.5;
/// Modeled encoder cost, ns per raw body byte (one streaming RLE pass).
pub const CODEC_ENCODE_NS_PER_BYTE: f64 = 0.15;
/// Modeled decoder cost, ns per raw body byte (one expansion pass).
pub const CODEC_DECODE_NS_PER_BYTE: f64 = 0.15;

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

    /// Modeled CPU cost of compressing *and* decompressing a body of
    /// `bytes` raw bytes, in ns (both ends sit on the transfer's critical
    /// path).
    pub fn codec_ns(&self, bytes: usize) -> f64 {
        (CODEC_ENCODE_NS_PER_BYTE + CODEC_DECODE_NS_PER_BYTE) * bytes as f64
    }

    /// Should a sender bother compressing a body of `bytes` raw bytes
    /// under this link model? Yes iff the payload is bandwidth-bound
    /// (at or past [`CostModel::large_payload_threshold`]) and the
    /// modeled wire time saved — `per_byte_ns × (1 − ratio) × bytes`,
    /// with the planning ratio [`CODEC_ASSUMED_RATIO`] — exceeds the
    /// modeled codec CPU cost. A fast interconnect (0.1 ns/B) never
    /// clears the bar, so in-proc and interconnect-modeled transports
    /// keep the zero-copy raw path; a ~1 GB/s staging link does.
    ///
    /// Senders that have *observed* realized ratios on a link should
    /// prefer [`CostModel::compression_worthwhile_with_ratio`] with a
    /// [`RatioEwma`] estimate: this constant-ratio form is the cold-start
    /// planning rule.
    pub fn compression_worthwhile(&self, bytes: usize) -> bool {
        self.compression_worthwhile_with_ratio(bytes, CODEC_ASSUMED_RATIO)
    }

    /// [`CostModel::compression_worthwhile`] with an explicit compression
    /// `ratio` estimate (`bytes_on_wire / bytes_pre_codec`, lower is
    /// better) instead of the planning constant — the feedback hook for
    /// per-link [`RatioEwma`] estimates of what the codec actually
    /// achieves on this data.
    pub fn compression_worthwhile_with_ratio(&self, bytes: usize, ratio: f64) -> bool {
        bytes >= self.large_payload_threshold()
            && self.per_byte_ns * (1.0 - ratio) * bytes as f64 > self.codec_ns(bytes)
    }
}

/// Smoothing factor for [`RatioEwma`]: heavy enough that a handful of
/// frames dominates the cold-start prior, light enough to ride out one
/// outlier frame.
const RATIO_EWMA_ALPHA: f64 = 0.3;

/// Exponentially-weighted moving average of *realized* compression ratios
/// (`bytes_on_wire / bytes_pre_codec`) on one producer→consumer link.
///
/// Until the first observation it reports the planning constant
/// [`CODEC_ASSUMED_RATIO`], so cold-start behavior is identical to
/// [`CostModel::compression_worthwhile`]; each observed frame then pulls
/// the estimate toward what the codec actually achieves on this data, and
/// [`CostModel::compression_worthwhile_with_ratio`] plans with that
/// instead. Incompressible data (ratio ≈ 1) talks the planner out of
/// wasting encode passes; highly compressible data (ratio ≪ 0.5) lowers
/// the byte threshold at which compression starts paying.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RatioEwma {
    estimate: Option<f64>,
}

impl RatioEwma {
    /// A fresh estimator reporting the cold-start planning ratio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one realized frame ratio (`on_wire / pre_codec`, clamped to
    /// `[0, 1]` — the encoder ships raw rather than expand) into the
    /// estimate.
    pub fn observe(&mut self, ratio: f64) {
        let r = ratio.clamp(0.0, 1.0);
        self.estimate = Some(match self.estimate {
            None => r,
            Some(e) => RATIO_EWMA_ALPHA * r + (1.0 - RATIO_EWMA_ALPHA) * e,
        });
    }

    /// Current ratio estimate; [`CODEC_ASSUMED_RATIO`] before any
    /// observation.
    pub fn ratio(&self) -> f64 {
        self.estimate.unwrap_or(CODEC_ASSUMED_RATIO)
    }

    /// Whether at least one frame has been observed.
    pub fn observed(&self) -> bool {
        self.estimate.is_some()
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

    #[test]
    fn compression_pays_only_on_slow_links() {
        // Fast interconnect: 0.1 ns/B × 0.5 saved < 0.3 ns/B codec cost —
        // never compress, the zero-copy raw path stays untouched.
        let fast = CostModel::interconnect();
        assert!(!fast.compression_worthwhile(1 << 20));
        // ~1 GB/s staging-grade link: 1.0 ns/B × 0.5 saved > 0.3 ns/B.
        let slow = CostModel { latency: Duration::from_micros(2), per_byte_ns: 1.0 };
        assert!(slow.compression_worthwhile(1 << 20));
        // Latency-bound payloads below the crossover never compress.
        assert!(!slow.compression_worthwhile(1000));
        // A pure-latency model (in-proc-like) never compresses anything.
        let pure = CostModel { latency: Duration::from_micros(5), per_byte_ns: 0.0 };
        assert!(!pure.compression_worthwhile(1 << 30));
    }

    #[test]
    fn ratio_ewma_converges_to_realized_ratios() {
        // Cold start: the estimator *is* the planning constant.
        let mut ewma = RatioEwma::new();
        assert!(!ewma.observed());
        assert_eq!(ewma.ratio(), CODEC_ASSUMED_RATIO);

        // Feed a stream of frames that actually compress to 10% — the
        // estimate must converge to the realized ratio within a handful
        // of observations.
        for _ in 0..20 {
            ewma.observe(0.1);
        }
        assert!(ewma.observed());
        assert!((ewma.ratio() - 0.1).abs() < 0.01, "estimate {} far from 0.1", ewma.ratio());

        // And back: incompressible frames (shipped raw, ratio ~1) pull
        // the estimate toward 1 just as fast.
        for _ in 0..20 {
            ewma.observe(1.0);
        }
        assert!((ewma.ratio() - 1.0).abs() < 0.01, "estimate {} far from 1.0", ewma.ratio());

        // Out-of-range observations are clamped, keeping the estimate a
        // valid ratio.
        ewma.observe(7.5);
        assert!(ewma.ratio() <= 1.0);
    }

    #[test]
    fn realized_ratio_feedback_flips_the_planning_decision() {
        // A link where the constant-ratio rule says "compress" …
        let slow = CostModel { latency: Duration::from_micros(2), per_byte_ns: 1.0 };
        let bytes = 1 << 20;
        assert!(slow.compression_worthwhile(bytes));

        // … stops compressing once the EWMA learns the data is nearly
        // incompressible (saved wire time no longer covers codec CPU) …
        let mut ewma = RatioEwma::new();
        for _ in 0..20 {
            ewma.observe(0.95);
        }
        assert!(!slow.compression_worthwhile_with_ratio(bytes, ewma.ratio()));

        // … and a *faster* link that the constant rule writes off starts
        // compressing once the EWMA reports a far better realized ratio:
        // 0.4 ns/B × (1 − 0.5) = 0.2 < 0.3 codec, but × (1 − 0.1) = 0.36.
        let mid = CostModel { latency: Duration::from_micros(2), per_byte_ns: 0.4 };
        assert!(!mid.compression_worthwhile(bytes));
        let mut learned = RatioEwma::new();
        for _ in 0..20 {
            learned.observe(0.1);
        }
        assert!(mid.compression_worthwhile_with_ratio(bytes, learned.ratio()));
    }
}
