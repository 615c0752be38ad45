//! Order statistics for timings: the median, plus the highest
//! percentile that still has at least ten samples beyond it.

/// Percentile ladder searched for the reported tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// A sorted sample of one timing.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// One reported percentile: which one, its value and the sample count
/// behind it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

impl Pct {
    /// `p99 of n=1200`, the provenance note printed beside a value.
    pub fn note(&self) -> String {
        format!("p{} of n={}", self.pct, self.n)
    }
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; NaN when empty.
    pub fn pct(&self, p: f64) -> f64 {
        match self.sorted.len() {
            0 => f64::NAN,
            n => self.sorted[rank(p, n)],
        }
    }

    pub fn median(&self) -> Pct {
        Pct {
            pct: 50.0,
            value: self.pct(50.0),
            n: self.len(),
        }
    }

    /// The highest ladder percentile with at least ten samples beyond
    /// it; the median when the sample is too small for any.
    pub fn tail(&self) -> Pct {
        let n = self.len();
        let pct = TAIL_LADDER
            .into_iter()
            .find(|&p| n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND)
            .unwrap_or(50.0);
        Pct {
            pct,
            value: self.pct(pct),
            n,
        }
    }
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        let t = d.tail();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        let d = Dist::new((1..=200).map(f64::from).collect());
        assert_eq!(d.tail().pct, 95.0);
        let d = Dist::new((1..=12).map(f64::from).collect());
        assert_eq!(d.tail().pct, 50.0);
        assert_eq!(d.median().value, 6.0);
    }
}
