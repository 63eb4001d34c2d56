//! Sample statistics: medians, the "ten samples beyond" percentile rule and
//! the quartile spread the regression bounds are judged against.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

/// The median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample or has
/// already failed the run.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with fewer than eleven samples, where
/// no percentile above the median is supported by the sample.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len() - 11;
    let percentile = 100.0 * (rank + 1) as f64 / sorted.len() as f64;
    Some((percentile, sorted[rank]))
}

/// The quartiles `(q1, q2, q3)` of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the benchmark contract judges spreads with. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let position = i * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The interquartile distance as a share of the median — the run-to-run
/// spread a bound must exceed for a comparison to resolve. 0 for a single
/// value.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The undisturbed cost of an operation that was repeated step for step:
/// each step's fastest time over the repetitions, summed. Interference from
/// the host only ever adds time, and adds it to different steps in different
/// repetitions, so the sum of the per-step minima sheds most of it where the
/// fastest whole repetition sheds none. A change to the code moves a step in
/// every repetition, so it shows in full. With one step per repetition this
/// is the fastest repetition.
#[derive(Default)]
pub struct Floor {
    steps: Vec<f64>,
}

impl Floor {
    /// Folds one repetition in. `false` (and nothing folded) if it has a
    /// different number of steps than the ones before it: not the same work.
    pub fn fold(&mut self, steps: &[f64]) -> bool {
        if self.steps.is_empty() {
            self.steps = steps.to_vec();
        } else if self.steps.len() != steps.len() {
            return false;
        } else {
            for (floor, &step) in self.steps.iter_mut().zip(steps) {
                *floor = floor.min(step);
            }
        }
        true
    }

    pub fn total(&self) -> f64 {
        self.steps.iter().sum()
    }

    pub fn steps(&self) -> usize {
        self.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_sums_per_step_minima_and_refuses_other_shapes() {
        let mut floor = Floor::default();
        assert!(floor.fold(&[3.0, 1.0, 9.0]));
        assert!(floor.fold(&[2.0, 5.0, 4.0]));
        assert!(floor.fold(&[7.0, 2.0, 6.0]));
        assert_eq!((floor.total(), floor.steps()), (2.0 + 1.0 + 4.0, 3));
        assert!(!floor.fold(&[1.0, 1.0]));
        assert_eq!(floor.total(), 7.0);
        // One step per repetition: the fastest repetition.
        let mut single = Floor::default();
        for wall in [12.5, 11.0, 14.0] {
            assert!(single.fold(&[wall]));
        }
        assert_eq!(single.total(), 11.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // Eleven samples support only the minimum; 100 samples support p90.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.1), Some(1.0));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        // 110 samples: rank 99, exactly ten values (101..=110) beyond it.
        let more: Vec<f64> = (1..=110).map(f64::from).collect();
        let (percentile, value) = tail(&more).unwrap();
        assert_eq!(value, 100.0);
        assert!((percentile - 90.909).abs() < 0.01);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(spread(&values), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
