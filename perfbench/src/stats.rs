//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0–100] of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps 99.9% of 10 000 at rank 9990, not 9991.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `p` has at least ten samples beyond it.
pub fn supports(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; `None` below twenty samples.
pub fn highest_tail(samples: &[f64]) -> Option<Tail> {
    let p = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| supports(samples.len(), p))?;
    Some(Tail {
        percentile: p,
        value: percentile(samples, p)?,
        samples: samples.len(),
    })
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
