//! E1 — the paper's Fig. 1: mentions of accelerators for autonomous
//! systems in top venues, 2014-2023.
//!
//! **Substitution.** We cannot query Google Scholar, and the figure's
//! observable is a *shape*: near-zero counts in 2014 rising super-linearly
//! to 2023. We regenerate it mechanistically with a logistic
//! field-adoption model (research interest saturating toward a carrying
//! capacity) driving a per-venue Poisson publication process.

use crate::report::{Report, Table};
use rand::{Rng, SeedableRng};

/// First year of the modeled window (matching Fig. 1's x-axis).
pub(crate) const FIRST_YEAR: u32 = 2014;
/// Last year of the modeled window.
pub(crate) const LAST_YEAR: u32 = 2023;

/// Parameters of the bibliometric model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GrowthModel {
    /// Carrying capacity: mentions per year once the field matures.
    pub capacity: f64,
    /// Logistic growth rate per year.
    pub rate: f64,
    /// Inflection year of adoption.
    pub midpoint: f64,
    /// Number of publishing venues (Poisson arrivals are summed across
    /// venues).
    pub venues: usize,
}

impl Default for GrowthModel {
    fn default() -> Self {
        Self { capacity: 140.0, rate: 0.65, midpoint: 2020.0, venues: 12 }
    }
}

impl GrowthModel {
    /// Expected mentions in `year` under the logistic adoption curve.
    #[must_use]
    pub(crate) fn expected(&self, year: u32) -> f64 {
        let t = f64::from(year);
        self.capacity / (1.0 + (-self.rate * (t - self.midpoint)).exp())
    }

    /// Draws the yearly counts, deterministic in `seed`.
    #[must_use]
    pub(crate) fn sample_series(&self, seed: u64) -> Vec<(u32, u64)> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (FIRST_YEAR..=LAST_YEAR)
            .map(|year| {
                let lambda_per_venue = self.expected(year) / self.venues as f64;
                let total: u64 =
                    (0..self.venues).map(|_| poisson(&mut rng, lambda_per_venue)).sum();
                (year, total)
            })
            .collect()
    }
}

/// Knuth's Poisson sampler (adequate for the small per-venue rates here).
fn poisson(rng: &mut impl Rng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// The E1 result: the yearly publication-mention series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GrowthResult {
    /// Yearly `(year, mentions)` counts.
    pub series: Vec<(u32, u64)>,
    /// Ratio of the last to the first nonzero year's count.
    pub growth_factor: f64,
}

impl GrowthResult {
    /// Renders the Fig. 1 equivalent.
    #[must_use]
    pub(crate) fn report(&self) -> Report {
        let mut report = Report::new("E1 — publication growth (paper Fig. 1)");
        let mut t = Table::new("mentions per year", vec!["year", "mentions"]);
        for &(year, n) in &self.series {
            t.push_row(vec![year.to_string(), n.to_string()]);
        }
        report.push_table(t);
        report.push_note(format!(
            "growth factor {:.1}x from {FIRST_YEAR} to {LAST_YEAR} (paper shape: steep monotone rise)",
            self.growth_factor
        ));
        report
    }
}

/// Runs E1 with the default model.
#[must_use]
pub(crate) fn run(seed: u64) -> GrowthResult {
    let model = GrowthModel::default();
    let series = model.sample_series(seed);
    let first = series.iter().find(|(_, n)| *n > 0).map_or(1, |&(_, n)| n.max(1));
    let last = series.last().map_or(0, |&(_, n)| n);
    GrowthResult { series, growth_factor: last as f64 / first as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_curve_is_increasing_and_saturating() {
        let m = GrowthModel::default();
        let mut prev = 0.0;
        for year in FIRST_YEAR..=LAST_YEAR {
            let e = m.expected(year);
            assert!(e > prev, "logistic is increasing");
            prev = e;
        }
        assert!(m.expected(2035) < m.capacity);
        assert!(m.expected(2035) > 0.95 * m.capacity, "saturates toward capacity");
    }

    #[test]
    fn series_reproduces_growth_shape() {
        let r = run(42);
        assert_eq!(r.series.len(), 10);
        // Early years are tiny compared to late years.
        let early: u64 = r.series[..3].iter().map(|&(_, n)| n).sum();
        let late: u64 = r.series[7..].iter().map(|&(_, n)| n).sum();
        assert!(late > early * 5, "late {late} vs early {early}");
        assert!(r.growth_factor > 5.0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).series, run(8).series);
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson(&mut rng, 4.0)).sum::<u64>() as f64 / f64::from(n);
        assert!((mean - 4.0).abs() < 0.1, "got {mean}");
    }

    #[test]
    fn zero_lambda_yields_zero() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn report_has_ten_rows() {
        let report = run(1).report();
        assert_eq!(report.tables()[0].rows().len(), 10);
    }
}
