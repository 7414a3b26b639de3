//! Partition-level relaxed LRU queues (§VI.B).
//!
//! Three queues per partition — one per row origin (inserted, migrated,
//! cached) — because hotness characteristics differ per origin. Cold
//! rows accumulate at the head; pack pops from the head and, when it
//! finds a hot row, moves it to the tail instead of packing it. Queue
//! maintenance is performed by background threads (GC enqueues, pack
//! rotates), never in a transaction's execution path.
//!
//! The queues are *relaxed*: entries are row ids, may be stale (the row
//! can be packed, deleted, or GC'd while queued), and are validated
//! against the store on pop. This keeps the transaction path free of
//! any queue bookkeeping.

use std::collections::VecDeque;

use parking_lot::Mutex;

use btrim_common::RowId;
use btrim_imrs::RowOrigin;

/// All queues of one partition.
#[derive(Debug, Default)]
pub struct PartitionQueues {
    inserted: Mutex<VecDeque<RowId>>,
    migrated: Mutex<VecDeque<RowId>>,
    cached: Mutex<VecDeque<RowId>>,
}

impl PartitionQueues {
    fn queue(&self, origin: RowOrigin) -> &Mutex<VecDeque<RowId>> {
        match origin {
            RowOrigin::Inserted => &self.inserted,
            RowOrigin::Migrated => &self.migrated,
            RowOrigin::Cached => &self.cached,
        }
    }

    /// Append a (newly created) row at the tail.
    pub fn push_tail(&self, origin: RowOrigin, row: RowId) {
        self.queue(origin).lock().push_back(row);
    }

    /// Append (newly created) rows at the tail, in order, under one lock.
    pub fn push_tail_many(&self, origin: RowOrigin, rows: impl IntoIterator<Item = RowId>) {
        self.queue(origin).lock().extend(rows);
    }

    /// Pop the coldest candidate. Origins are drained in the order
    /// cached → migrated → inserted: cached rows have a page-store copy
    /// path already proven cheap to rebuild, and insert-origin rows are
    /// the likeliest to be re-touched shortly after arrival.
    pub fn pop_head(&self) -> Option<(RowId, RowOrigin)> {
        for origin in [RowOrigin::Cached, RowOrigin::Migrated, RowOrigin::Inserted] {
            if let Some(row) = self.queue(origin).lock().pop_front() {
                return Some((row, origin));
            }
        }
        None
    }

    /// Rows across all three queues.
    pub fn len(&self) -> usize {
        self.inserted.lock().len() + self.migrated.lock().len() + self.cached.lock().len()
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of one origin queue, head first (Fig. 8 coldness probe).
    pub fn snapshot(&self, origin: RowOrigin) -> Vec<RowId> {
        self.queue(origin).lock().iter().copied().collect()
    }

    /// Snapshot of all queues concatenated (head-first per origin).
    pub fn snapshot_all(&self) -> Vec<RowId> {
        let mut out = self.snapshot(RowOrigin::Cached);
        out.extend(self.snapshot(RowOrigin::Migrated));
        out.extend(self.snapshot(RowOrigin::Inserted));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_an_origin() {
        let q = PartitionQueues::default();
        q.push_tail(RowOrigin::Inserted, RowId(1));
        q.push_tail(RowOrigin::Inserted, RowId(2));
        q.push_tail(RowOrigin::Inserted, RowId(3));
        assert_eq!(q.pop_head(), Some((RowId(1), RowOrigin::Inserted)));
        assert_eq!(q.pop_head(), Some((RowId(2), RowOrigin::Inserted)));
        // Hot-row rotation: back to the tail.
        q.push_tail(RowOrigin::Inserted, RowId(2));
        assert_eq!(q.pop_head(), Some((RowId(3), RowOrigin::Inserted)));
        assert_eq!(q.pop_head(), Some((RowId(2), RowOrigin::Inserted)));
        assert!(q.is_empty());
    }

    #[test]
    fn origin_priority_cached_first() {
        let q = PartitionQueues::default();
        q.push_tail(RowOrigin::Inserted, RowId(1));
        q.push_tail(RowOrigin::Migrated, RowId(2));
        q.push_tail(RowOrigin::Cached, RowId(3));
        assert_eq!(q.pop_head().unwrap().0, RowId(3));
        assert_eq!(q.pop_head().unwrap().0, RowId(2));
        assert_eq!(q.pop_head().unwrap().0, RowId(1));
    }

    #[test]
    fn snapshots_preserve_order() {
        let q = PartitionQueues::default();
        for i in 0..5 {
            q.push_tail(RowOrigin::Migrated, RowId(i));
        }
        assert_eq!(
            q.snapshot(RowOrigin::Migrated),
            (0..5).map(RowId).collect::<Vec<_>>()
        );
        assert_eq!(q.snapshot(RowOrigin::Cached), vec![]);
        assert_eq!(q.snapshot_all().len(), 5);
    }
}
