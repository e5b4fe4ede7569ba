//! Shared wall-clock measurement helpers for the overhead benches in
//! `perf` and `tails`.
//!
//! Every bench that compares two configurations (instrumented vs bare)
//! must interleave its arms over repeated rounds and reduce with the
//! median — a single unwarmed run per arm lets first-touch page faults,
//! allocator growth, and CPU frequency ramp land on whichever arm
//! happens to run first, which is how a trace-overhead bench once
//! reported a *negative* overhead. Engine throughput itself is measured
//! by the bench ledger in `perfledger/`.

/// Median of a sample, in place. For even sizes this is the upper
/// median — for wall-clock samples the distinction is noise, and the
/// upper median never selects an impossibly fast outlier.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Fractional slowdown of an instrumented configuration relative to its
/// base: `1 - instrumented_sps / base_sps`.
///
/// Depends only on the *ratio* of the two rates, so it is invariant
/// under any common rescaling (different slot counts, different clock
/// units) — the unit test below pins that property. Returns `NaN` when
/// the base rate is unusable rather than fabricating a sign.
pub fn overhead_frac(base_sps: f64, instrumented_sps: f64) -> f64 {
    if base_sps.is_finite() && base_sps > 0.0 && instrumented_sps.is_finite() {
        1.0 - instrumented_sps / base_sps
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_free_and_outlier_resistant() {
        let mut xs = vec![9.0, 1.0, 2.0];
        assert_eq!(median(&mut xs), 2.0);
        // A wild cold-start outlier in a 7-round sample moves nothing.
        let mut warm = vec![1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 50.0];
        assert!((median(&mut warm) - 1.0).abs() < 0.02);
    }

    #[test]
    fn overhead_estimator_is_scale_invariant() {
        // The estimate must depend only on the rate *ratio*: measuring
        // in slots/sec vs kslots/sec, or over 2k vs 16k slots, cannot
        // change the reported overhead.
        let base = 100_000.0;
        let instr = 80_000.0;
        let expect = overhead_frac(base, instr);
        assert!((expect - 0.2).abs() < 1e-12);
        for scale in [1e-3, 0.5, 8.0, 1e6] {
            let got = overhead_frac(base * scale, instr * scale);
            assert!(
                (got - expect).abs() < 1e-12,
                "scale {scale}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn overhead_signs_and_degenerate_inputs() {
        assert!(overhead_frac(100.0, 110.0) < 0.0); // instrumented faster
        assert_eq!(overhead_frac(100.0, 100.0), 0.0);
        assert!(overhead_frac(0.0, 100.0).is_nan());
        assert!(overhead_frac(f64::NAN, 100.0).is_nan());
        assert!(overhead_frac(100.0, f64::NAN).is_nan());
    }
}
