//! Threshold schedules — the generalization the paper's conclusion suggests:
//! "Using adaptive threshold values ... had a significant effect ... This
//! idea could have been expanded further to include even more threshold
//! values for varying sizes of graphs."
//!
//! A schedule maps the current (contracted) graph's vertex count to the
//! per-iteration modularity threshold of its optimization phase. The paper's
//! scheme is the two-level special case (`th_bin` above 100k vertices,
//! `th_final` below). It is the one owner of that rule: the GPU driver and
//! the sequential and CPU-parallel baselines all look their thresholds up
//! here.

/// A piecewise-constant mapping from graph size to iteration threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdSchedule {
    /// `(vertex_limit, threshold)` pairs, sorted by descending limit: the
    /// threshold applies while the graph has *more* than `vertex_limit`
    /// vertices.
    levels: Vec<(usize, f64)>,
    /// Threshold once the graph is at or below every limit.
    final_threshold: f64,
}

impl ThresholdSchedule {
    /// The paper's two-level scheme: `coarse` above `limit` vertices,
    /// `fine` below.
    pub fn two_level(coarse: f64, fine: f64, limit: usize) -> Self {
        Self { levels: vec![(limit, coarse)], final_threshold: fine }
    }

    /// A multi-level schedule. `levels` holds `(vertex_limit, threshold)`
    /// pairs (any order; sorted internally); `final_threshold` applies below
    /// the smallest limit.
    ///
    /// # Panics
    ///
    /// Panics if two levels share a limit or any threshold is not positive.
    pub fn multi_level(mut levels: Vec<(usize, f64)>, final_threshold: f64) -> Self {
        assert!(final_threshold > 0.0, "thresholds must be positive");
        assert!(levels.iter().all(|&(_, t)| t > 0.0), "thresholds must be positive");
        levels.sort_unstable_by_key(|&(limit, _)| std::cmp::Reverse(limit));
        assert!(levels.windows(2).all(|w| w[0].0 != w[1].0), "duplicate vertex limits in schedule");
        Self { levels, final_threshold }
    }

    /// A geometric ladder: `steps` thresholds from `coarse` down towards
    /// `fine`, switching at geometrically decreasing vertex limits starting
    /// at `top_limit`. The "even more threshold values" extension.
    pub fn geometric(coarse: f64, fine: f64, top_limit: usize, steps: usize) -> Self {
        assert!(steps >= 1);
        assert!(coarse > fine && fine > 0.0);
        let ratio = (fine / coarse).powf(1.0 / steps as f64);
        let mut levels = Vec::with_capacity(steps);
        let mut limit = top_limit;
        let mut th = coarse;
        for _ in 0..steps {
            levels.push((limit, th));
            limit /= 4;
            th *= ratio;
            if limit == 0 {
                break;
            }
        }
        Self::multi_level(levels, fine)
    }

    /// The threshold to use for a graph with `n` vertices.
    pub fn threshold_for(&self, n: usize) -> f64 {
        for &(limit, th) in &self.levels {
            if n > limit {
                return th;
            }
        }
        self.final_threshold
    }

    /// The number of distinct levels (including the final threshold).
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_matches_paper_semantics() {
        let s = ThresholdSchedule::two_level(1e-2, 1e-6, 100_000);
        assert_eq!(s.threshold_for(1_000_000), 1e-2);
        assert_eq!(s.threshold_for(100_001), 1e-2);
        assert_eq!(s.threshold_for(100_000), 1e-6);
        assert_eq!(s.threshold_for(10), 1e-6);
        assert_eq!(s.num_levels(), 2);
    }

    #[test]
    fn multi_level_ordering_is_normalized() {
        let s = ThresholdSchedule::multi_level(vec![(1_000, 1e-3), (100_000, 1e-1)], 1e-6);
        assert_eq!(s.threshold_for(200_000), 1e-1);
        assert_eq!(s.threshold_for(50_000), 1e-3);
        assert_eq!(s.threshold_for(500), 1e-6);
    }

    #[test]
    fn geometric_ladder_decreases() {
        let s = ThresholdSchedule::geometric(1e-1, 1e-6, 1_000_000, 4);
        let mut last = f64::INFINITY;
        for n in [10_000_000, 500_000, 100_000, 20_000, 1_000, 10] {
            let t = s.threshold_for(n);
            assert!(t <= last + 1e-12, "threshold must not increase as graphs shrink");
            last = t;
        }
        assert_eq!(s.threshold_for(1), 1e-6);
    }

    #[test]
    fn geometric_truncates_when_limit_bottoms_out() {
        // top_limit = 16 divides to 4, then 1, then 0: the ladder stops after
        // three levels even though six steps were requested. The break happens
        // *after* pushing the level whose division produced 0, so limits
        // 16, 4 and 1 are all present.
        let s = ThresholdSchedule::geometric(1e-1, 1e-6, 16, 6);
        assert_eq!(s.num_levels(), 4); // three ladder levels + final threshold
        assert_eq!(s.threshold_for(17), 1e-1);
        // Level thresholds follow the ratio computed for the *requested* six
        // steps, so the second level is coarse * (fine/coarse)^(1/6).
        let ratio = (1e-6f64 / 1e-1).powf(1.0 / 6.0);
        assert!((s.threshold_for(10) - 1e-1 * ratio).abs() < 1e-15);
        assert!((s.threshold_for(2) - 1e-1 * ratio * ratio).abs() < 1e-15);
        // n == 1 is at or below every limit: the final threshold applies.
        assert_eq!(s.threshold_for(1), 1e-6);
    }

    #[test]
    fn geometric_single_step_is_two_level() {
        let s = ThresholdSchedule::geometric(1e-2, 1e-6, 100_000, 1);
        assert_eq!(s.num_levels(), 2);
        assert_eq!(s.threshold_for(100_001), 1e-2);
        assert_eq!(s.threshold_for(100_000), 1e-6);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_limits() {
        ThresholdSchedule::multi_level(vec![(10, 1e-2), (10, 1e-3)], 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_threshold() {
        ThresholdSchedule::multi_level(vec![(10, 0.0)], 1e-6);
    }
}
