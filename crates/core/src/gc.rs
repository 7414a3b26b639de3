//! IMRS garbage collection (§II) with piggy-backed queue maintenance
//! (§VI.B).
//!
//! Transactions register the rows they touched at commit; GC later
//! visits each row to (a) enqueue newly-arrived rows at the tail of
//! their partition's ILM queue — "GC threads insert a newly created
//! IMRS row at the tail of the ILM-queue" — (b) truncate version chains
//! below the oldest active snapshot, and (c) fully remove rows whose
//! latest committed version is an old tombstone. None of this happens
//! in a transaction's execution path.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::{PartitionId, RowId, Timestamp};
use btrim_imrs::{ImrsStore, RidMap, RowOrigin};

use crate::catalog::Partition;

/// Outcome of one GC tick.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Rows visited.
    pub processed: u64,
    /// Rows newly placed in an ILM queue.
    pub enqueued: u64,
    /// Version-chain bytes reclaimed.
    pub bytes_freed: u64,
    /// Rows removed entirely (dead tombstones).
    pub rows_removed: u64,
}

/// Pending-row registry plus lifetime counters.
#[derive(Default)]
pub struct GcRegistry {
    pending: Mutex<VecDeque<RowId>>,
    processed: Relaxed<u64>,
    bytes_freed: Relaxed<u64>,
    rows_removed: Relaxed<u64>,
}

impl GcRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one row for a future GC visit.
    pub fn register(&self, row: RowId) {
        self.pending.lock().push_back(row);
    }

    /// Register a batch.
    pub fn register_many(&self, rows: impl IntoIterator<Item = RowId>) {
        let mut q = self.pending.lock();
        q.extend(rows);
    }

    /// Rows awaiting a GC visit.
    pub fn backlog(&self) -> usize {
        self.pending.lock().len()
    }

    /// Lifetime rows visited.
    pub fn processed(&self) -> u64 {
        self.processed.load()
    }

    /// Lifetime bytes reclaimed from version chains.
    pub fn bytes_freed(&self) -> u64 {
        self.bytes_freed.load()
    }

    /// Lifetime rows fully removed.
    pub fn rows_removed(&self) -> u64 {
        self.rows_removed.load()
    }

    /// Process up to `limit` registered rows, popped under one lock.
    /// `partition` resolves a row's partition id to the record holding
    /// its ILM queues (`Catalog::partition`), once per run of rows of
    /// one partition; a run of rows bound for one queue enters it under
    /// one lock. `now` (the commit clock)
    /// timestamps quarantined nodes of removed rows; it is read after
    /// each removal detaches the chain head, so a reader that captured
    /// the head necessarily began at or before the resulting timestamp
    /// and reclamation at a later horizon cannot free memory under its
    /// feet.
    pub fn tick(
        &self,
        store: &ImrsStore,
        partition: impl Fn(PartitionId) -> Option<Arc<Partition>>,
        ridmap: &RidMap,
        oldest_active: Timestamp,
        now: impl Fn() -> Timestamp,
        limit: usize,
    ) -> GcReport {
        let mut report = GcReport::default();
        let rows: Vec<RowId> = {
            let mut pending = self.pending.lock();
            let n = limit.min(pending.len());
            pending.drain(..n).collect()
        };
        // Newly arrived rows, in registration order, with their queue.
        let mut arrived: Vec<(PartitionId, RowOrigin, RowId)> = Vec::new();
        for row_id in rows {
            report.processed += 1;
            let Some(row) = store.get(row_id) else {
                continue; // already packed or removed
            };
            // (a) Queue maintenance: first visit enqueues at the tail.
            if ridmap.try_mark_enqueued(row_id) {
                arrived.push((row.partition, row.origin, row_id));
            }
            // (b) Version truncation below the snapshot horizon.
            report.bytes_freed += store.truncate_row(&row, oldest_active) as u64;
            // (c) Dead-tombstone removal: the delete is committed, old
            // enough that no snapshot can see the pre-image, and the
            // chain is fully truncated.
            let dead = row.latest_committed().is_some_and(|v| {
                v.op == btrim_imrs::VersionOp::Delete
                    && v.commit_ts.is_some_and(|ts| ts <= oldest_active)
            }) && row.version_count() == 1;
            if dead {
                // The tombstone's Delete record is already durable, and
                // replaying it reconstructs the same end state: no new
                // record is owed.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "GC removes a dead tombstone whose delete is already logged"
                )]
                store.remove_row(row_id, &now);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "GC removes a dead tombstone whose delete is already logged"
                )]
                ridmap.remove(row_id);
                report.rows_removed += 1;
            }
        }
        // Each run of one queue's rows enters it under one lock; its
        // partition is resolved once per run of the partition's rows.
        let mut resolved: Option<(PartitionId, Option<Arc<Partition>>)> = None;
        for run in arrived.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (id, origin) = (run[0].0, run[0].1);
            if resolved.as_ref().is_none_or(|r| r.0 != id) {
                resolved = Some((id, partition(id)));
            }
            if let Some((_, Some(p))) = &resolved {
                p.queues.push_tail_many(origin, run.iter().map(|a| a.2));
                report.enqueued += run.len() as u64;
            }
        }
        self.processed.fetch_add(report.processed);
        self.bytes_freed.fetch_add(report.bytes_freed);
        self.rows_removed.fetch_add(report.rows_removed);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_common::{TableId, TxnId};
    use btrim_imrs::{RowLocation, VersionOp};

    /// A store, a lookup over partitions 0 and 3, the RID-Map, a GC.
    fn setup() -> (
        ImrsStore,
        [Arc<Partition>; 2],
        std::sync::Arc<RidMap>,
        GcRegistry,
    ) {
        let ridmap = std::sync::Arc::new(RidMap::new());
        (
            ImrsStore::new(1024 * 1024, 64 * 1024, std::sync::Arc::clone(&ridmap)),
            [0, 3].map(|p| Arc::new(Partition::new(PartitionId(p), TableId(0)))),
            ridmap,
            GcRegistry::new(),
        )
    }

    fn lookup(parts: &[Arc<Partition>; 2]) -> impl Fn(PartitionId) -> Option<Arc<Partition>> + '_ {
        |id| parts.iter().find(|p| p.id == id).cloned()
    }

    #[test]
    fn first_visit_enqueues_row() {
        let (store, parts, ridmap, gc) = setup();
        let row = store
            .insert_row_committed(
                RowId(1),
                PartitionId(3),
                RowOrigin::Inserted,
                TxnId(1),
                b"data",
                Timestamp(5),
            )
            .unwrap()
            .0;
        ridmap.set(RowId(1), RowLocation::Imrs);
        gc.register(RowId(1));
        gc.register(RowId(1)); // duplicate registration
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(10),
            || Timestamp(10),
            100,
        );
        assert_eq!(r.processed, 2);
        assert_eq!(r.enqueued, 1, "row enqueued exactly once");
        assert_eq!(parts[1].queues.len(), 1);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn a_tick_enqueues_each_row_in_its_partitions_queue_in_registration_order() {
        let (store, parts, ridmap, gc) = setup();
        let homes = [0, 3, 3, 0, 0, 3, 0];
        for (i, &p) in homes.iter().enumerate() {
            let row = RowId(i as u64 + 1);
            store
                .insert_row_committed(
                    row,
                    PartitionId(p),
                    RowOrigin::Inserted,
                    TxnId(1),
                    b"data",
                    Timestamp(5),
                )
                .unwrap();
            ridmap.set(row, RowLocation::Imrs);
            gc.register(row);
        }
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(10),
            || Timestamp(10),
            100,
        );
        assert_eq!(r.enqueued, homes.len() as u64);
        for (part, p) in parts.iter().zip([0, 3]) {
            let want: Vec<RowId> = (homes.iter().enumerate())
                .filter(|&(_, &h)| h == p)
                .map(|(i, _)| RowId(i as u64 + 1))
                .collect();
            assert_eq!(
                part.queues.snapshot(RowOrigin::Inserted),
                want,
                "partition {p}"
            );
        }
    }

    #[test]
    fn truncates_old_versions() {
        let (store, parts, ridmap, gc) = setup();
        let row = store
            .insert_row_committed(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                &[1u8; 64],
                Timestamp(5),
            )
            .unwrap()
            .0;
        let v = store
            .add_version(&row, TxnId(2), VersionOp::Update, Some(&[2u8; 64]))
            .unwrap();
        v.stamp(Timestamp(8));
        gc.register(RowId(1));
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(20),
            || Timestamp(20),
            100,
        );
        assert!(r.bytes_freed > 0);
        assert_eq!(row.version_count(), 1);
        assert_eq!(gc.bytes_freed(), r.bytes_freed);
    }

    #[test]
    fn removes_dead_tombstones_but_not_live_ones() {
        let (store, parts, ridmap, gc) = setup();
        let row = store
            .insert_row_committed(
                RowId(7),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                b"x",
                Timestamp(5),
            )
            .unwrap()
            .0;
        ridmap.set(RowId(7), RowLocation::Imrs);
        let tomb = store
            .add_version(&row, TxnId(2), VersionOp::Delete, None)
            .unwrap();
        tomb.stamp(Timestamp(10));
        // A snapshot at 7 still needs the pre-image: not removable.
        gc.register(RowId(7));
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(7),
            || Timestamp(12),
            100,
        );
        assert_eq!(r.rows_removed, 0);
        assert!(store.get(RowId(7)).is_some());
        // Horizon past the tombstone: chain truncates to the tombstone
        // and the row is removed.
        gc.register(RowId(7));
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(50),
            || Timestamp(50),
            100,
        );
        assert_eq!(r.rows_removed, 1);
        assert!(store.get(RowId(7)).is_none());
        assert_eq!(ridmap.get(RowId(7)), None);
    }

    #[test]
    fn stale_registrations_are_harmless() {
        let (store, parts, ridmap, gc) = setup();
        gc.register(RowId(404));
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(1),
            || Timestamp(1),
            100,
        );
        assert_eq!(r.processed, 1);
        assert_eq!(r.enqueued, 0);
        assert_eq!(r.rows_removed, 0);
    }

    #[test]
    fn limit_bounds_work_per_tick() {
        let (store, parts, ridmap, gc) = setup();
        for i in 0..10u64 {
            store
                .insert_row_committed(
                    RowId(i),
                    PartitionId(0),
                    RowOrigin::Inserted,
                    TxnId(1),
                    b"d",
                    Timestamp(1),
                )
                .unwrap();
            gc.register(RowId(i));
        }
        let r = gc.tick(
            &store,
            lookup(&parts),
            &ridmap,
            Timestamp(5),
            || Timestamp(5),
            4,
        );
        assert_eq!(r.processed, 4);
        assert_eq!(gc.backlog(), 6);
    }
}
