//! Discrete design spaces: named dimensions with enumerated levels.

use rand::Rng;

/// One dimension of a design space: a name plus its discrete levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    name: String,
    levels: Vec<f64>,
}

impl Dimension {
    /// Creates a dimension.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "a dimension needs at least one level");
        Self { name: name.into(), levels }
    }

    /// Dimension name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The discrete levels.
    #[must_use]
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }
}

/// A point in a design space, stored as one level index per dimension.
pub(crate) type PointIndex = Vec<usize>;

/// A discrete, enumerable design space.
///
/// # Examples
///
/// ```
/// use m7_dse::{DesignSpace, Dimension};
///
/// let space = DesignSpace::new(vec![
///     Dimension::new("lanes", vec![1.0, 4.0, 16.0]),
///     Dimension::new("sram_kib", vec![64.0, 256.0]),
/// ]);
/// assert_eq!(space.cardinality(), 6);
/// let values = space.values(&[2, 1]);
/// assert_eq!(values, vec![16.0, 256.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    dimensions: Vec<Dimension>,
}

impl DesignSpace {
    /// Creates a space from its dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions` is empty.
    #[must_use]
    pub fn new(dimensions: Vec<Dimension>) -> Self {
        assert!(!dimensions.is_empty(), "a design space needs at least one dimension");
        Self { dimensions }
    }

    /// The dimensions.
    #[must_use]
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Number of dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dimensions.len()
    }

    /// Returns `true` if the space has no dimensions (never true for a
    /// constructed space).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dimensions.is_empty()
    }

    /// Total number of design points.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.dimensions.iter().map(|d| d.levels().len()).product()
    }

    /// The concrete level values at `point`.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong arity or an index is out of range.
    #[must_use]
    pub fn values(&self, point: &[usize]) -> Vec<f64> {
        assert_eq!(point.len(), self.len(), "point arity mismatch");
        point
            .iter()
            .zip(&self.dimensions)
            .map(|(&i, d)| {
                assert!(i < d.levels().len(), "level index out of range for {}", d.name());
                d.levels()[i]
            })
            .collect()
    }

    /// Enumerates every point in row-major order.
    #[must_use]
    pub fn enumerate(&self) -> Vec<PointIndex> {
        let mut out = Vec::with_capacity(self.cardinality());
        let mut current = vec![0usize; self.len()];
        loop {
            out.push(current.clone());
            // Odometer increment.
            let mut dim = self.len();
            loop {
                if dim == 0 {
                    return out;
                }
                dim -= 1;
                current[dim] += 1;
                if current[dim] < self.dimensions[dim].levels().len() {
                    break;
                }
                current[dim] = 0;
                if dim == 0 {
                    return out;
                }
            }
        }
    }

    /// Draws a uniformly random point.
    #[must_use]
    pub fn sample(&self, rng: &mut impl Rng) -> PointIndex {
        self.dimensions.iter().map(|d| rng.gen_range(0..d.levels().len())).collect()
    }

    /// Returns a neighbor of `point`: one dimension nudged by ±1 level
    /// (clamped). Used by annealing and genetic mutation.
    #[must_use]
    pub fn neighbor(&self, point: &[usize], rng: &mut impl Rng) -> PointIndex {
        let mut out = point.to_vec();
        let dim = rng.gen_range(0..self.len());
        let max = self.dimensions[dim].levels().len() - 1;
        if max == 0 {
            return out;
        }
        let up = rng.gen_bool(0.5);
        out[dim] = if up { (out[dim] + 1).min(max) } else { out[dim].saturating_sub(1) };
        out
    }

    /// Uniform crossover of two parents.
    ///
    /// # Panics
    ///
    /// Panics if the parents have the wrong arity.
    #[must_use]
    pub fn crossover(&self, a: &[usize], b: &[usize], rng: &mut impl Rng) -> PointIndex {
        assert_eq!(a.len(), self.len(), "parent arity mismatch");
        assert_eq!(b.len(), self.len(), "parent arity mismatch");
        a.iter().zip(b).map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![
            Dimension::new("a", vec![1.0, 2.0, 3.0]),
            Dimension::new("b", vec![10.0, 20.0]),
            Dimension::new("c", vec![0.5]),
        ])
    }

    #[test]
    fn cardinality_and_enumeration() {
        let s = space();
        assert_eq!(s.cardinality(), 6);
        let all = s.enumerate();
        assert_eq!(all.len(), 6);
        // All distinct.
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        // First and last in row-major order.
        assert_eq!(all[0], vec![0, 0, 0]);
        assert_eq!(all[5], vec![2, 1, 0]);
    }

    #[test]
    fn values_lookup() {
        let s = space();
        assert_eq!(s.values(&[1, 0, 0]), vec![2.0, 10.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn values_rejects_wrong_arity() {
        let _ = space().values(&[0, 0]);
    }

    #[test]
    fn sample_is_in_range() {
        let s = space();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let p = s.sample(&mut rng);
            for (i, d) in s.dimensions().iter().enumerate() {
                assert!(p[i] < d.levels().len());
            }
        }
    }

    #[test]
    fn neighbor_moves_one_step() {
        let s = space();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let p = vec![1, 0, 0];
        for _ in 0..50 {
            let n = s.neighbor(&p, &mut rng);
            let moved: usize = p.iter().zip(&n).filter(|(a, b)| a != b).count();
            assert!(moved <= 1, "at most one dimension moves");
            for (i, d) in s.dimensions().iter().enumerate() {
                assert!(n[i] < d.levels().len());
            }
        }
    }

    #[test]
    fn crossover_mixes_parents() {
        let s = space();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = vec![0, 0, 0];
        let b = vec![2, 1, 0];
        for _ in 0..20 {
            let child = s.crossover(&a, &b, &mut rng);
            for (i, &g) in child.iter().enumerate() {
                assert!(g == a[i] || g == b[i]);
            }
        }
    }
}
