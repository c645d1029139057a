//! Exact sample statistics. Every latency percentile the benchmark
//! reports comes from here, over timestamps the benchmark took itself —
//! never from the log₂-bucketed `mant_trace::Hist::quantile`, which can
//! be off by an octave.

/// The `q`-quantile (`q ∈ [0, 1]`) of `samples`, linearly interpolated
/// between the two order statistics around rank `q · (n − 1)` (the
/// numpy default). `None` for an empty sample. Runs in O(n) with two
/// selections instead of a full sort.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or a sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    let rank = q * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN sample");
    let (_, &mut lo_val, upper) = v.select_nth_unstable_by(lo, cmp);
    if frac == 0.0 || upper.is_empty() {
        return Some(lo_val);
    }
    let hi_val = upper.iter().copied().fold(f64::INFINITY, f64::min);
    Some(lo_val + (hi_val - lo_val) * frac)
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean (`None` when empty).
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: full sort, then interpolate at rank q·(n−1).
    fn brute_force(samples: &[f64], q: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = q * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    #[test]
    fn matches_brute_force_sort() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 7, 10, 11, 100, 101, 997] {
            // Include ties: values are drawn from a small range.
            let samples: Vec<f64> = (0..n).map(|_| (next() % 50) as f64 * 0.25).collect();
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let got = percentile(&samples, q).unwrap();
                let want = brute_force(&samples, q);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "n={n} q={q}: {got} != {want}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.9), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
