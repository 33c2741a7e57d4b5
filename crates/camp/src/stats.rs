//! Streaming coverage statistics: mergeable per-stratum sketches and
//! Wilson score intervals.
//!
//! A campaign never materializes its scenarios, so everything the
//! final report needs must fit in O(strata) state. Each stratum keeps
//! one [`StratumSketch`] — six saturating integer accumulators. The
//! choice of integers is load-bearing: saturating addition of
//! non-negative integers is exactly associative and commutative, so
//! per-worker partial sketches merge to bit-identical totals in any
//! order, at any thread count. Floating-point accumulation would not
//! give that guarantee.

use m7_scen::ScenOutcome;
use m7_serve::DiskCodec;

/// z for a 95% Wilson score interval.
const WILSON_Z: f64 = 1.96;

/// Encoded size of a [`StratumSketch`] on disk: six little-endian
/// `u64` words.
pub(crate) const SKETCH_BYTES: usize = 48;

/// Mergeable success/failure sketch for one campaign stratum.
///
/// Fractional observations are fixed-point scaled on entry
/// (microseconds for mission time, parts-per-million for difficulty)
/// so every field is an integer and merging stays exact.
///
/// # Examples
///
/// ```
/// use m7_camp::StratumSketch;
///
/// let mut a = StratumSketch::default();
/// let mut b = StratumSketch::default();
/// a.trials = 3;
/// a.successes = 2;
/// b.trials = 5;
/// b.successes = 1;
/// let mut ab = a;
/// ab.merge(&b);
/// let mut ba = b;
/// ba.merge(&a);
/// assert_eq!(ab, ba); // merge order never matters
/// assert_eq!(ab.trials, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StratumSketch {
    /// Scenarios evaluated.
    pub trials: u64,
    /// Missions that finished before their deadline.
    pub successes: u64,
    /// Courses covered, but after the deadline.
    pub deadline_misses: u64,
    /// Missions that never covered the course (battery / planner).
    pub incompletes: u64,
    /// Total mission time, microseconds.
    pub time_us: u64,
    /// Total scenario difficulty, parts-per-million.
    pub difficulty_ppm: u64,
}

impl StratumSketch {
    /// Folds one evaluation outcome into the sketch.
    pub fn record(&mut self, out: &ScenOutcome, difficulty: f64) {
        self.trials = self.trials.saturating_add(1);
        if out.success {
            self.successes = self.successes.saturating_add(1);
        }
        if out.deadline_miss {
            self.deadline_misses = self.deadline_misses.saturating_add(1);
        }
        if !out.completed {
            self.incompletes = self.incompletes.saturating_add(1);
        }
        self.time_us = self.time_us.saturating_add((out.time_s.max(0.0) * 1e6).round() as u64);
        self.difficulty_ppm =
            self.difficulty_ppm.saturating_add((difficulty.clamp(0.0, 1.0) * 1e6).round() as u64);
    }

    /// Componentwise saturating merge — exactly associative and
    /// commutative, so worker partials combine in any order.
    pub fn merge(&mut self, other: &Self) {
        self.trials = self.trials.saturating_add(other.trials);
        self.successes = self.successes.saturating_add(other.successes);
        self.deadline_misses = self.deadline_misses.saturating_add(other.deadline_misses);
        self.incompletes = self.incompletes.saturating_add(other.incompletes);
        self.time_us = self.time_us.saturating_add(other.time_us);
        self.difficulty_ppm = self.difficulty_ppm.saturating_add(other.difficulty_ppm);
    }

    /// Observed success rate, or 0 when the stratum is untouched.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Mean scenario difficulty seen by this stratum (0 when empty).
    #[must_use]
    pub fn mean_difficulty(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.difficulty_ppm as f64 / self.trials as f64 / 1e6
        }
    }

    /// 95% Wilson interval on the stratum's success probability.
    #[must_use]
    pub fn wilson(&self) -> (f64, f64) {
        wilson_interval(self.successes, self.trials)
    }
}

impl DiskCodec for StratumSketch {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.trials,
            self.successes,
            self.deadline_misses,
            self.incompletes,
            self.time_us,
            self.difficulty_ppm,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != SKETCH_BYTES {
            return None;
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            u64::from_le_bytes(b)
        };
        Some(Self {
            trials: word(0),
            successes: word(1),
            deadline_misses: word(2),
            incompletes: word(3),
            time_us: word(4),
            difficulty_ppm: word(5),
        })
    }
}

/// 95% Wilson score interval for `successes` out of `trials`.
///
/// The Wilson interval stays inside `[0, 1]` and behaves sanely at the
/// extremes where the naive normal interval collapses; an empty
/// stratum returns the vacuous `(0, 1)`.
#[must_use]
pub(crate) fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = (successes.min(trials)) as f64 / n;
    let z2 = WILSON_Z * WILSON_Z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = WILSON_Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).clamp(0.0, 1.0), (center + half).clamp(0.0, 1.0))
}

/// Width of the 95% Wilson interval — the per-stratum uncertainty the
/// coverage score and the importance-splitting weights both consume.
#[must_use]
pub(crate) fn wilson_width(successes: u64, trials: u64) -> f64 {
    let (lo, hi) = wilson_interval(successes, trials);
    hi - lo
}

/// Scalar coverage score over a set of stratum sketches: the mean of
/// `1 − wilson_width` across strata. 0 means nothing has been probed;
/// approaching 1 means every stratum's success probability is pinned
/// down tightly.
#[must_use]
pub(crate) fn coverage_score(sketches: &[StratumSketch]) -> f64 {
    if sketches.is_empty() {
        return 0.0;
    }
    let sum: f64 = sketches.iter().map(|s| 1.0 - wilson_width(s.successes, s.trials)).sum();
    sum / sketches.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn more_trials_tighten_the_interval() {
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson_interval(9, 10);
        assert!(lo > 0.5 && hi < 1.0);
        let (lo2, hi2) = wilson_interval(90, 100);
        assert!(hi2 - lo2 < hi - lo);
    }

    proptest! {
        /// Wilson bounds always stay inside [0, 1] and keep lo <= hi.
        #[test]
        fn wilson_bounds_are_within_unit_interval(
            trials in 0u64..100_000,
            frac in 0.0f64..=1.0,
        ) {
            let successes = (trials as f64 * frac).round() as u64;
            let (lo, hi) = wilson_interval(successes, trials);
            prop_assert!((0.0..=1.0).contains(&lo), "lo {lo} for {successes}/{trials}");
            prop_assert!((0.0..=1.0).contains(&hi), "hi {hi} for {successes}/{trials}");
            prop_assert!(lo <= hi, "inverted interval for {successes}/{trials}");
        }

        /// At a fixed success rate, more trials never widen the interval.
        #[test]
        fn wilson_width_narrows_monotonically_with_n(
            base in 1u64..500,
            frac in 0.0f64..=1.0,
        ) {
            let mut prev = f64::INFINITY;
            for scale in [1u64, 2, 4, 8, 16] {
                let n = base * scale;
                let s = (n as f64 * frac).round() as u64;
                let w = wilson_width(s.min(n), n);
                prop_assert!(
                    w <= prev + 1e-12,
                    "width grew from {prev} to {w} at n={n}"
                );
                prev = w;
            }
        }
    }

    #[test]
    fn wilson_bounds_stay_in_unit_interval() {
        for (s, n) in [(0, 0), (0, 1), (1, 1), (5, 10), (999, 1000)] {
            let (lo, hi) = wilson_interval(s, n);
            assert!((0.0..=1.0).contains(&lo), "lo out of range for {s}/{n}");
            assert!((0.0..=1.0).contains(&hi), "hi out of range for {s}/{n}");
            assert!(lo <= hi, "inverted interval for {s}/{n}");
        }
    }

    #[test]
    fn wilson_narrows_with_sample_size() {
        let mut prev = wilson_width(1, 2);
        for k in [2u64, 8, 32, 128] {
            let w = wilson_width(k, 2 * k);
            assert!(w < prev, "width must shrink at n={}", 2 * k);
            prev = w;
        }
    }

    #[test]
    fn sketch_roundtrips_through_disk_codec() {
        let s = StratumSketch {
            trials: 7,
            successes: 4,
            deadline_misses: 2,
            incompletes: 1,
            time_us: 123_456_789,
            difficulty_ppm: 3_500_000,
        };
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        assert_eq!(bytes.len(), SKETCH_BYTES);
        assert_eq!(StratumSketch::decode(&bytes), Some(s));
        assert_eq!(StratumSketch::decode(&bytes[..40]), None);
    }

    #[test]
    fn coverage_rises_as_strata_fill_in() {
        let empty = StratumSketch::default();
        let probed = StratumSketch { trials: 50, successes: 25, ..StratumSketch::default() };
        let sparse = coverage_score(&[empty, empty]);
        let dense = coverage_score(&[probed, probed]);
        assert_eq!(sparse, 0.0);
        assert!(dense > 0.5);
    }
}
