//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; `0`
/// for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}
