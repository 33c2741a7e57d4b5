//! Order statistics over timing samples.

/// Quartiles and count of a sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Self {
            p25: quantile(&s, 0.25),
            p50: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            n: s.len(),
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of an unsorted sample set.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Least-squares slope of `ys` against `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let (mx, my) = (mean(xs), mean(ys));
    let (mut num, mut den) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6d37_7065_7266_6265)
    }

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

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.p25, s.p50, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(quantile_of(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn slope_of_a_line() {
        assert!((slope(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0, 1.0], &[0.0, 5.0]), 0.0);
    }
}
