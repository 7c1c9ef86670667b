//! Exact-sample statistics: every latency is kept as a raw sample, so a
//! percentile is read off the sorted samples instead of a bucketed
//! histogram.

/// Raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    /// Room for `n` more samples, so the allocation does not depend on
    /// how many arrive.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// The samples, in insertion order until a quantile sorts them.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile, or `None` unless at least ten samples lie
    /// beyond it (a percentile resting on fewer is not reported).
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < 10 {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }

    /// The median (reported from any non-empty sample set: it is the
    /// summary statistic of repeated whole-run measurements).
    pub fn median(&mut self) -> Option<f64> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        self.sort();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.median(), Some(50.5));
    }
}
