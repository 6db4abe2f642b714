//! Order statistics over latency samples, and the seeded generator the
//! workloads draw their inputs from.

/// Samples that must lie beyond a `_tail` metric's order statistic.
pub const TAIL_BEYOND: usize = 10;

/// Smallest sample count whose tail order statistic sits at or above the
/// median: below it a "tail" would read the same as the median.
pub const MIN_TAIL_SAMPLES: usize = 2 * (TAIL_BEYOND + 1);

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest order statistic with exactly [`TAIL_BEYOND`] samples
/// beyond it, and the percentile it sits at. `None` when there are fewer
/// than [`MIN_TAIL_SAMPLES`] samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let idx = n - TAIL_BEYOND - 1;
    Some((sorted(samples)[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// SplitMix64: a small, seedable generator. The benchmark's inputs are a
/// pure function of `--seed`, so they must not depend on any library's
/// generator changing between versions.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct trade-off values, one per stratum of `[lo, hi)`, in
    /// shuffled order: every seed covers `[lo, hi)` the same way, so the
    /// mix of cheap and expensive replies does not vary between seeds.
    pub fn stratified_ps(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let width = (hi - lo) / n as f64;
        let mut ps: Vec<f64> = (0..n)
            .map(|k| lo + width * (k as f64 + 0.1 + 0.8 * self.unit()))
            .collect();
        self.shuffle(&mut ps);
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct) = tail(&samples).expect("100 samples carry a tail");
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), TAIL_BEYOND);
        assert_eq!(pct, 90.0);
        assert!(tail(&samples[..MIN_TAIL_SAMPLES - 1]).is_none());
        let (v, _) = tail(&samples[..MIN_TAIL_SAMPLES]).expect("minimum count");
        assert!(v >= median(&samples[..MIN_TAIL_SAMPLES]).expect("non-empty"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn stratified_ps_are_distinct_and_cover_every_stratum() {
        let mut rng = Rng::new(7, 1);
        let mut ps = rng.stratified_ps(10, 0.0, 1.0);
        ps.sort_by(f64::total_cmp);
        for (k, p) in ps.iter().enumerate() {
            assert!(*p > k as f64 / 10.0 && *p < (k + 1) as f64 / 10.0);
        }
    }
}
