//! Per-partition workload metrics.
//!
//! "Some of the important counters used are: Partition-specific
//! IMRS-memory used, number of rows stored in-memory for a partition,
//! total number of operations which accessed row stored in-memory for
//! the partition (re-use count), number of operations performed on
//! pages in the partition, number of operations on page-store which
//! observed contention" (§V.A). Memory/row counts live with the IMRS
//! store; everything rate-like lives here, on sharded per-CPU counters
//! so the hot path never bounces a cache line.

use btrim_common::ShardedCounter;

/// Commits by which logs the transaction appended to. The four sum to
/// `committed_txns`, and under `durable_commits` a commit pays one
/// barrier per log it wrote: `imrs_only / committed` is the share of a
/// workload that can be a one-flush commit.
#[derive(Debug, Default)]
pub struct CommitShapes {
    /// sysimrslogs only: the batch frame is the commit record.
    pub imrs_only: ShardedCounter,
    /// syslogs only.
    pub page_only: ShardedCounter,
    /// Both logs, sysimrslogs first.
    pub mixed: ShardedCounter,
    /// No log at all.
    pub read_only: ShardedCounter,
}

impl CommitShapes {
    /// Count one commit that appended to the logs named.
    pub fn count(&self, wrote_imrs: bool, wrote_sys: bool) {
        match (wrote_imrs, wrote_sys) {
            (true, false) => self.imrs_only.inc(),
            (false, true) => self.page_only.inc(),
            (true, true) => self.mixed.inc(),
            (false, false) => self.read_only.inc(),
        }
    }
}

/// Counters for one partition.
#[derive(Debug, Default)]
pub struct PartitionMetrics {
    /// SELECTs served from IMRS rows (re-use).
    pub imrs_select: ShardedCounter,
    /// UPDATEs applied to IMRS rows (re-use).
    pub imrs_update: ShardedCounter,
    /// DELETEs applied to IMRS rows (re-use).
    pub imrs_delete: ShardedCounter,
    /// INSERTs stored directly in the IMRS.
    pub imrs_insert: ShardedCounter,
    /// Operations served by the page store.
    pub page_ops: ShardedCounter,
    /// Page-store operations that observed latch contention.
    pub page_contention: ShardedCounter,
    /// New rows brought into the IMRS (insert + migrate + cache) —
    /// "new IMRS usage by a partition" (§V.C).
    pub rows_in: ShardedCounter,
    /// Rows relocated to the page store by pack.
    pub rows_packed: ShardedCounter,
    /// Bytes released by pack.
    pub bytes_packed: ShardedCounter,
    /// Rows pack inspected but skipped because they were hot (§VIII's
    /// NumRowsSkipped).
    pub rows_skipped_hot: ShardedCounter,
    /// Rows frozen into the partition's extents.
    pub rows_frozen: ShardedCounter,
    /// Rows that left the partition's extents: thawed for a write (an
    /// update or a delete), or dissolved to pages with a mostly-dead
    /// extent. Frozen = live in extents + thawed.
    pub rows_thawed: ShardedCounter,
    /// Of those, rows dissolved to pages with a mostly-dead extent.
    pub rows_dissolved: ShardedCounter,
}

impl PartitionMetrics {
    /// Load every counter exactly once into a coherent
    /// [`PartitionSample`]. All derived rates (re-use, IMRS ops,
    /// reuse-per-row) must come from one sample: computing them from
    /// separate `ShardedCounter::load`s lets a concurrent updater slip
    /// between the loads, so e.g. `imrs_ops()` could come out *smaller*
    /// than a `reuse_ops()` read a moment earlier — a mid-update
    /// counter mix the tuner would act on.
    pub fn sample(&self) -> PartitionSample {
        PartitionSample {
            imrs_select: self.imrs_select.load(),
            imrs_update: self.imrs_update.load(),
            imrs_delete: self.imrs_delete.load(),
            imrs_insert: self.imrs_insert.load(),
            page_ops: self.page_ops.load(),
            page_contention: self.page_contention.load(),
            rows_in: self.rows_in.load(),
            rows_packed: self.rows_packed.load(),
            bytes_packed: self.bytes_packed.load(),
            rows_skipped_hot: self.rows_skipped_hot.load(),
        }
    }

    /// Re-use operations: S + U + D on in-memory rows (§VI.C's SUD).
    /// Convenience over one sample; callers needing several derived
    /// values must take a single [`PartitionMetrics::sample`] instead.
    pub fn reuse_ops(&self) -> u64 {
        self.sample().reuse_ops()
    }

    /// All IMRS operations including inserts (hit-rate numerator).
    /// Derived from one sample, so it can never understate a
    /// concurrently-read `reuse_ops` component.
    pub fn imrs_ops(&self) -> u64 {
        self.sample().imrs_ops()
    }
}

/// Point-in-time copy of a partition's counters, loaded once per use
/// (§V.B: the tuner diffs consecutive window samples). Every derived
/// rate is a method over the same sample, so the arithmetic identity
/// `imrs_ops() == reuse_ops() + imrs_insert` holds *exactly*, no
/// matter how hot the counters are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionSample {
    /// SELECTs served from IMRS rows.
    pub imrs_select: u64,
    /// UPDATEs applied to IMRS rows.
    pub imrs_update: u64,
    /// DELETEs applied to IMRS rows.
    pub imrs_delete: u64,
    /// IMRS inserts.
    pub imrs_insert: u64,
    /// Page-store ops.
    pub page_ops: u64,
    /// Contended page-store ops.
    pub page_contention: u64,
    /// New rows brought into the IMRS.
    pub rows_in: u64,
    /// Rows packed out.
    pub rows_packed: u64,
    /// Bytes packed out.
    pub bytes_packed: u64,
    /// Rows skipped as hot by pack.
    pub rows_skipped_hot: u64,
}

impl PartitionSample {
    /// Re-use ops (S+U+D on IMRS rows) of this sample.
    pub fn reuse_ops(&self) -> u64 {
        self.imrs_select + self.imrs_update + self.imrs_delete
    }

    /// All IMRS ops including inserts, from the same sample.
    pub fn imrs_ops(&self) -> u64 {
        self.reuse_ops() + self.imrs_insert
    }

    /// Delta `self - earlier` (saturating).
    pub fn delta_since(&self, earlier: &PartitionSample) -> PartitionSample {
        PartitionSample {
            imrs_select: self.imrs_select.saturating_sub(earlier.imrs_select),
            imrs_update: self.imrs_update.saturating_sub(earlier.imrs_update),
            imrs_delete: self.imrs_delete.saturating_sub(earlier.imrs_delete),
            imrs_insert: self.imrs_insert.saturating_sub(earlier.imrs_insert),
            page_ops: self.page_ops.saturating_sub(earlier.page_ops),
            page_contention: self.page_contention.saturating_sub(earlier.page_contention),
            rows_in: self.rows_in.saturating_sub(earlier.rows_in),
            rows_packed: self.rows_packed.saturating_sub(earlier.rows_packed),
            bytes_packed: self.bytes_packed.saturating_sub(earlier.bytes_packed),
            rows_skipped_hot: self
                .rows_skipped_hot
                .saturating_sub(earlier.rows_skipped_hot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reuse_excludes_inserts() {
        let m = PartitionMetrics::default();
        m.imrs_select.add(3);
        m.imrs_update.add(2);
        m.imrs_delete.add(1);
        m.imrs_insert.add(100);
        assert_eq!(m.reuse_ops(), 6);
        assert_eq!(m.imrs_ops(), 106);
    }

    #[test]
    fn sample_deltas() {
        let m = PartitionMetrics::default();
        m.imrs_select.add(10);
        let s1 = m.sample();
        m.imrs_select.add(7);
        m.rows_in.add(3);
        let s2 = m.sample();
        let d = s2.delta_since(&s1);
        assert_eq!(d.reuse_ops(), 7);
        assert_eq!(d.rows_in, 3);
        assert_eq!(d.page_ops, 0);
    }

    /// Regression: derived rates must come from ONE sample. The old
    /// `imrs_ops()` summed four separate `ShardedCounter::load`s on the
    /// live block, so a reader racing an updater could observe
    /// `imrs_ops < reuse_ops + imrs_insert` across two calls, or a
    /// reuse mix where components moved between the loads. A
    /// `PartitionSample` makes the identity structural; this test
    /// hammers the sample path under concurrent increments and checks
    /// the identity plus cross-sample monotonicity on every read.
    #[test]
    fn sample_is_internally_consistent_under_concurrency() {
        let m = Arc::new(PartitionMetrics::default());
        let stop = Arc::new(btrim_common::atomics::Relaxed::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load() {
                        // One logical "IMRS op" touches several
                        // counters — the mix a torn read would split.
                        m.imrs_select.inc();
                        m.imrs_update.inc();
                        m.imrs_delete.inc();
                        m.imrs_insert.inc();
                    }
                });
            }
            let mut prev = PartitionSample::default();
            for _ in 0..20_000 {
                let s = m.sample();
                // Identity holds exactly within one sample.
                assert_eq!(s.imrs_ops(), s.reuse_ops() + s.imrs_insert);
                // Counters are monotone across samples.
                assert!(s.imrs_select >= prev.imrs_select);
                assert!(s.reuse_ops() >= prev.reuse_ops());
                assert!(s.imrs_ops() >= prev.imrs_ops());
                prev = s;
            }
            stop.store(true);
        });
    }
}
