//! Width schedules: the group-width twin of the threshold schedule
//! ([`cd_graph::ThresholdSchedule`]). A [`WidthSchedule`] is a
//! piecewise-constant mapping from a task's work measure to the
//! thread-group width that processes it, backed by a validated
//! [`BucketSpec`] table — the kernel bucket tables of the optimization and
//! aggregation phases.

use crate::config::BucketSpec;

/// A piecewise-constant mapping from a task's work measure (vertex degree in
/// the optimization phase, community degree sum in the aggregation phase) to
/// the width of the thread group processing it — the group-width counterpart
/// of [`cd_graph::ThresholdSchedule`], backed by a [`BucketSpec`] table.
///
/// The constructor validates the whole table shape at compile time, so a
/// malformed bucket ladder is a build error, not a runtime panic in a kernel
/// driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WidthSchedule {
    table: &'static [BucketSpec],
}

impl WidthSchedule {
    /// Wraps a bucket table as a width schedule.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) unless the table is
    /// non-empty, strictly ascending in `max_work`, and terminated by an
    /// open-ended bucket — the invariants every bucket lookup below relies
    /// on.
    pub const fn new(table: &'static [BucketSpec]) -> Self {
        assert!(!table.is_empty(), "a width schedule needs at least one bucket");
        let mut i = 1;
        while i < table.len() {
            assert!(
                table[i - 1].max_work < table[i].max_work,
                "bucket bounds must be strictly ascending"
            );
            i += 1;
        }
        assert!(table[table.len() - 1].is_open_ended(), "the last bucket must be open-ended");
        Self { table }
    }

    /// Index of the bucket handling a task of the given work measure: the
    /// first bucket whose bound admits it. Total because the last bucket is
    /// open-ended.
    pub fn bucket_for(&self, work: usize) -> usize {
        self.table.iter().position(|b| work <= b.max_work).expect("validated table ends open-ended")
    }

    /// The thread-group width assigned to a task of the given work measure —
    /// the bucket analogue of [`cd_graph::ThresholdSchedule::threshold_for`].
    pub fn width_for(&self, work: usize) -> usize {
        self.table[self.bucket_for(work)].lanes
    }

    /// The underlying bucket table.
    pub fn buckets(&self) -> &'static [BucketSpec] {
        self.table
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_schedule_matches_paper_bucket_tables() {
        let opt = WidthSchedule::new(&crate::config::MODOPT_BUCKETS);
        assert_eq!(opt.num_buckets(), 7);
        assert_eq!(opt.bucket_for(1), 0);
        assert_eq!(opt.bucket_for(4), 0);
        assert_eq!(opt.bucket_for(5), 1);
        assert_eq!(opt.bucket_for(84), 4);
        assert_eq!(opt.bucket_for(320), 6);
        assert_eq!(opt.bucket_for(usize::MAX), 6);
        assert_eq!(opt.width_for(16), 16);
        assert_eq!(opt.width_for(1_000_000), 128);

        let agg = WidthSchedule::new(&crate::config::AGG_BUCKETS);
        assert_eq!(agg.width_for(127), 32);
        assert_eq!(agg.width_for(128), 128);
        assert_eq!(agg.buckets(), &crate::config::AGG_BUCKETS);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn width_schedule_rejects_unsorted_tables() {
        static OUT_OF_ORDER: [BucketSpec; 3] =
            [BucketSpec::new(32, 32), BucketSpec::new(8, 8), BucketSpec::open_ended(128)];
        let _ = WidthSchedule::new(&OUT_OF_ORDER);
    }

    #[test]
    #[should_panic(expected = "open-ended")]
    fn width_schedule_rejects_bounded_tails() {
        static BOUNDED: [BucketSpec; 1] = [BucketSpec::new(32, 32)];
        let _ = WidthSchedule::new(&BOUNDED);
    }
}
