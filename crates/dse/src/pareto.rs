//! Pareto-front extraction for multi-objective design comparison.
//!
//! The paper's Challenge 2 insists that accelerator quality is
//! multi-dimensional (latency *and* energy *and* accuracy *and* cost); the
//! Pareto front is the honest summary of such trade spaces.

/// Indices of the non-dominated points among `points`, where every
/// objective is minimized.
///
/// A point dominates another if it is no worse in every objective and
/// strictly better in at least one. Ties (identical points) are all kept.
///
/// # Examples
///
/// ```
/// use m7_dse::pareto_front;
///
/// let designs = vec![
///     vec![1.0, 10.0], // fast but hungry — on the front
///     vec![5.0, 2.0],  // slow but frugal — on the front
///     vec![4.0, 11.0], // dominated by the first
/// ];
/// let front = pareto_front(&designs);
/// assert_eq!(front, vec![0, 1]);
/// ```
///
/// # Panics
///
/// Panics if points have inconsistent dimensionality.
#[must_use]
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "inconsistent objective dimensionality");
    let mut front = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let no_worse = q.iter().zip(p).all(|(a, b)| a <= b);
            let strictly_better = q.iter().zip(p).any(|(a, b)| a < b);
            if no_worse && strictly_better {
                continue 'outer; // p is dominated by q
            }
        }
        front.push(i);
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn single_point_is_front() {
        assert_eq!(pareto_front(&[vec![3.0, 4.0]]), vec![0]);
    }

    #[test]
    fn identical_points_all_kept() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(pareto_front(&pts), vec![0, 1]);
    }

    #[test]
    fn clear_domination() {
        let pts = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![0.5, 3.0]];
        assert_eq!(pareto_front(&pts), vec![0, 2]);
    }

    #[test]
    fn three_objectives() {
        let pts = vec![
            vec![1.0, 5.0, 5.0],
            vec![5.0, 1.0, 5.0],
            vec![5.0, 5.0, 1.0],
            vec![6.0, 6.0, 6.0], // dominated by all
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
    }

    proptest! {
        #[test]
        fn prop_front_members_are_mutually_nondominated(
            pts in prop::collection::vec(prop::collection::vec(0.0..10.0f64, 2), 1..30),
        ) {
            let front = pareto_front(&pts);
            prop_assert!(!front.is_empty());
            for &i in &front {
                for &j in &front {
                    if i == j { continue; }
                    let dominates = pts[j].iter().zip(&pts[i]).all(|(a, b)| a <= b)
                        && pts[j].iter().zip(&pts[i]).any(|(a, b)| a < b);
                    prop_assert!(!dominates, "front member {j} dominates front member {i}");
                }
            }
        }

        #[test]
        fn prop_every_point_dominated_by_some_front_member_or_on_front(
            pts in prop::collection::vec(prop::collection::vec(0.0..10.0f64, 2), 1..30),
        ) {
            let front = pareto_front(&pts);
            for (i, p) in pts.iter().enumerate() {
                if front.contains(&i) { continue; }
                let covered = front.iter().any(|&j| {
                    pts[j].iter().zip(p).all(|(a, b)| a <= b)
                        && pts[j].iter().zip(p).any(|(a, b)| a < b)
                });
                prop_assert!(covered, "non-front point {i} not dominated by any front member");
            }
        }
    }
}
