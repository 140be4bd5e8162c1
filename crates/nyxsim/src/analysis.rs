//! Field analysis kernels beyond halo finding: the kinds of statistics a
//! cosmology "spectra" consumer computes from a density snapshot.
//!
//! The kernel is rank-local with a cheap reduction, so a consumer task can
//! run it on its slab and combine with [`simmpi::Comm::allreduce_vec`] —
//! the analysis workload used by the fan-out example.

/// Histogram of density values over `bins` logarithmically-ish spaced
/// buckets: bucket 0 holds zeros, bucket `k ≥ 1` holds
/// `(mean·2^(k-2), mean·2^(k-1)]` (the first bucket catching everything
/// below the mean). The final bucket is open-ended.
pub fn density_histogram(rho: &[f64], mean: f64, bins: usize) -> Vec<u64> {
    assert!(bins >= 2, "need at least a zero bucket and one value bucket");
    assert!(mean > 0.0, "mean density must be positive");
    let mut hist = vec![0u64; bins];
    for &v in rho {
        if v <= 0.0 {
            hist[0] += 1;
            continue;
        }
        // k such that v ≤ mean·2^(k-1); clamp to the last bucket.
        let ratio = v / mean;
        let k = if ratio <= 1.0 { 1 } else { 2 + ratio.log2().ceil() as usize - 1 };
        hist[k.min(bins - 1)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_overdensity() {
        //            zero  ≤mean (1,2]  (2,4]  open
        let rho = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0];
        let hist = density_histogram(&rho, 1.0, 5);
        assert_eq!(hist.iter().sum::<u64>() as usize, rho.len());
        assert_eq!(hist[0], 1); // the zero
        assert_eq!(hist[1], 2); // 0.5, 1.0
        assert_eq!(hist[2], 2); // 1.5, 2.0
        assert_eq!(hist[3], 1); // 3.0
        assert_eq!(hist[4], 1); // 100 clamped to the open bucket
    }

    #[test]
    fn histogram_on_simulated_field_is_heavy_tailed() {
        use crate::sim::{NyxSim, SimConfig};
        let cfg =
            SimConfig { grid: 24, nranks: 1, particles_per_rank: 40_000, centers: 3, seed: 3 };
        let sim = NyxSim::new(cfg, 0);
        let rho = sim.deposit();
        let mean = 40_000.0 / rho.len() as f64;
        let hist = density_histogram(&rho, mean, 12);
        // A clustered field populates the high-overdensity tail.
        assert!(hist[8..].iter().sum::<u64>() > 0, "{hist:?}");
        // And most cells sit at or below the mean.
        assert!(hist[0] + hist[1] > rho.len() as u64 / 2, "{hist:?}");
    }
}
