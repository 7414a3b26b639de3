//! The in-memory row.
//!
//! A row resident in the IMRS is its RID-Map entry: chain head,
//! partition, *origin* queue (inserted / migrated / cached, §VI.B),
//! queue claim, last-access timestamp (§V.A: "per-row access timestamps
//! ... updated occasionally") and re-use counter all live there, and
//! the chain itself in the [`VersionArena`](crate::arena::VersionArena).
//! [`ImrsRow`] is a borrowed view over that entry — `store.get(row_id)`
//! builds one from two atomic loads — carrying the *writer-side* chain
//! operations: push, rollback, truncation, teardown. Those serialize on
//! the store's chain stripe for the RowId; snapshot readers walk the
//! chain concurrently without it and never build a view at all.

use std::sync::Arc;

use btrim_common::atomics::AcqRel;
use btrim_common::{PartitionId, RowId, Timestamp, TxnId};

use crate::alloc::FragHandle;
use crate::arena::{VersionRef, VersionView};
use crate::store::ImrsStore;
use crate::version::VersionOp;

/// Which operation first brought a row into the IMRS. Each origin has
/// its own relaxed-LRU queue per partition (§VI.B), because hotness
/// characteristics differ per origin. The discriminant is the two-bit
/// code a RID-Map entry stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowOrigin {
    /// Inserted directly into the IMRS (no page-store footprint yet).
    Inserted = 0,
    /// Updated from the page store into the IMRS (migration).
    Migrated = 1,
    /// Selected from the page store and cached in the IMRS.
    Cached = 2,
}

/// A view of a row resident in the IMRS (see the module docs). A view
/// can outlive the residency it was built from; every operation then
/// finds an empty chain and does nothing.
#[derive(Clone, Copy)]
pub struct ImrsRow<'a> {
    pub(crate) store: &'a ImrsStore,
    /// Stable logical row id.
    pub row_id: RowId,
    /// Owning partition.
    pub partition: PartitionId,
    /// How the row entered the IMRS.
    pub origin: RowOrigin,
}

impl ImrsRow<'_> {
    fn head_cell(&self) -> &AcqRel<u64> {
        self.store.ridmap().head_cell(self.row_id)
    }

    fn head(&self) -> u64 {
        self.store.ridmap().head(self.row_id)
    }

    /// Push a new version at the head of the chain. `commit_ts` is
    /// `Some` only for pre-stamped versions (recovery replay).
    pub(crate) fn push_version(
        &self,
        txn: TxnId,
        op: VersionOp,
        handle: Option<FragHandle>,
        commit_ts: Option<Timestamp>,
    ) -> VersionRef {
        let arena = self.store.arena();
        let _g = self.store.chain(self.row_id);
        let link = arena.push(self.head_cell(), txn, op, handle, commit_ts);
        VersionRef::new(Arc::clone(arena), link)
    }

    /// Newest version visible to `(snapshot, reader)`; `None` if the row
    /// did not exist yet at that snapshot. Lock-free.
    pub fn visible_version(&self, snapshot: Timestamp, reader: TxnId) -> Option<VersionView> {
        self.store
            .arena()
            .visible_from(self.head(), snapshot, reader)
    }

    /// Newest committed version regardless of snapshot (pack and GC use
    /// this: they operate on the latest committed image). Lock-free.
    pub fn latest_committed(&self) -> Option<VersionView> {
        self.store
            .arena()
            .latest_committed_from(self.head())
            .map(|(_, v)| v)
    }

    /// Remove versions created by an aborted transaction. Fragments are
    /// freed immediately (an uncommitted version of another transaction
    /// is never visible, so no reader loads its handle); the *nodes*
    /// are quarantined, because a reader may have captured a head link
    /// just before the unlink. `now` is a closure so the quarantine
    /// timestamp is read **after** the unlinks: any reader registering a
    /// newer snapshot from then on finds the rewired chain, so the
    /// horizon passing the timestamp proves no walker holds these nodes.
    /// Returns bytes released, and whether the rollback emptied the
    /// chain (the transaction's own insert: the row is gone).
    pub(crate) fn rollback_txn(&self, txn: TxnId, now: impl Fn() -> Timestamp) -> (usize, bool) {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.chain(self.row_id);
        let head_cell = self.head_cell();
        let mut freed = 0;
        let mut unlinked = Vec::new();
        let mut parent = 0u64; // 0 = the head cell itself
        let mut link = head_cell.load();
        while link != 0 {
            let v = arena.view(link);
            let next = arena.prev(link);
            if v.txn == txn && v.commit_ts.is_none() {
                if parent == 0 {
                    head_cell.store(next);
                } else {
                    arena.set_prev(parent, next);
                }
                if let Some(h) = v.handle {
                    freed += h.alloc_len();
                    alloc.free(h);
                }
                unlinked.push(link);
            } else {
                parent = link;
            }
            link = next;
        }
        let emptied = !unlinked.is_empty() && head_cell.load() == 0;
        if !unlinked.is_empty() {
            let ts = now();
            for link in unlinked {
                arena.retire_node(link, ts);
            }
        }
        (freed, emptied)
    }

    /// Garbage-collect: drop versions that can never be seen again —
    /// everything older than the newest version committed at or before
    /// `oldest_active`. Both nodes and fragments are freed immediately:
    /// every active snapshot is ≥ `oldest_active`, so every walk stops
    /// at or above the keep point and never stands on a truncated node.
    /// Returns bytes released.
    ///
    /// This is the work the paper's IMRS-GC threads perform to "reclaim
    /// memory from older versions without affecting transaction
    /// performance" (§II).
    pub(crate) fn truncate_versions(&self, oldest_active: Timestamp) -> usize {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.chain(self.row_id);
        let mut keep = self.head();
        while keep != 0 {
            if arena.commit_ts(keep).is_some_and(|ts| ts <= oldest_active) {
                break;
            }
            keep = arena.prev(keep);
        }
        if keep == 0 {
            return 0; // nothing old enough to cut below
        }
        let mut tail = arena.prev(keep);
        if tail == 0 {
            return 0;
        }
        arena.set_prev(keep, 0);
        let mut freed = 0;
        while tail != 0 {
            let v = arena.view(tail);
            let next = arena.prev(tail);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.free(h);
            }
            arena.free_node(tail);
            tail = next;
        }
        freed
    }

    /// Fold over the chain, newest first, under the chain stripe: a
    /// structural walk must not race truncation.
    fn fold_chain<T>(&self, init: T, mut f: impl FnMut(T, VersionView) -> T) -> T {
        let arena = self.store.arena();
        let _g = self.store.chain(self.row_id);
        let mut acc = init;
        let mut link = self.head();
        while link != 0 {
            acc = f(acc, arena.view(link));
            link = arena.prev(link);
        }
        acc
    }

    /// Number of versions currently chained.
    pub fn version_count(&self) -> usize {
        self.fold_chain(0, |n, _| n + 1)
    }

    /// Chain summary, newest first: `(commit_ts, op)` per version
    /// (debugging / diagnostics).
    pub fn chain_summary(&self) -> Vec<(Option<Timestamp>, VersionOp)> {
        self.fold_chain(Vec::new(), |mut out, v| {
            out.push((v.commit_ts, v.op));
            out
        })
    }

    /// Total IMRS bytes pinned by this row's chain.
    pub fn memory(&self) -> usize {
        self.fold_chain(0, |bytes, v| bytes + v.memory())
    }

    /// Drop the whole chain: the row leaves the IMRS (pack, GC of a
    /// deleted row, undo of an insert). A reader may be mid-walk, so
    /// nodes *and* fragments are quarantined until the snapshot horizon
    /// passes — this closes the torn-read race where pack recycled an
    /// image a straggling reader had already resolved. `now` is a
    /// closure evaluated **after** the head swap: every snapshot that
    /// could have captured the old head is ≤ the resulting timestamp,
    /// so the horizon passing it proves no walker remains. Returns
    /// bytes released (from the store's accounting immediately;
    /// physical reuse is deferred), or `None` when there was no chain —
    /// another teardown got there first.
    pub(crate) fn free_all(&self, now: impl Fn() -> Timestamp) -> Option<usize> {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.chain(self.row_id);
        let mut link = self.head_cell().swap(0);
        if link == 0 {
            return None;
        }
        let ts = now();
        let mut freed = 0;
        while link != 0 {
            let v = arena.view(link);
            let next = arena.prev(link);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.retire(h, ts);
            }
            arena.retire_node(link, ts);
            link = next;
        }
        Some(freed)
    }
}

impl std::fmt::Debug for ImrsRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImrsRow")
            .field("row_id", &self.row_id)
            .field("partition", &self.partition)
            .field("origin", &self.origin)
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ridmap::RidMap;

    /// One store; rows are built through it.
    struct Fixture {
        store: ImrsStore,
    }

    fn fixture() -> Fixture {
        Fixture {
            store: ImrsStore::new(1024 * 1024, 64 * 1024, Arc::new(RidMap::new())),
        }
    }

    impl Fixture {
        /// A view of a fresh RowId with an empty chain (the tests push
        /// every version themselves).
        fn row(&self, origin: RowOrigin) -> ImrsRow<'_> {
            let ridmap = self.store.ridmap();
            let row_id = ridmap.allocate_row_id();
            ridmap.arrive(row_id, PartitionId(0), origin, Timestamp(10));
            ImrsRow {
                store: &self.store,
                row_id,
                partition: PartitionId(0),
                origin,
            }
        }

        fn alloc(&self) -> &crate::alloc::FragmentAllocator {
            self.store.allocator()
        }

        fn push_committed(&self, row: &ImrsRow, txn: u64, ts: u64, data: &[u8]) -> VersionRef {
            let h = self.alloc().alloc(data).unwrap();
            row.push_version(TxnId(txn), VersionOp::Update, Some(h), Some(Timestamp(ts)))
        }

        fn load(&self, v: &VersionView) -> Vec<u8> {
            self.alloc().load(v.handle.unwrap())
        }
    }

    #[test]
    fn snapshot_read_sees_correct_version() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        f.push_committed(&row, 2, 20, b"v2");
        f.push_committed(&row, 3, 30, b"v3");

        let read = |snap: u64| {
            row.visible_version(Timestamp(snap), TxnId(99))
                .map(|v| f.load(&v))
        };
        assert_eq!(read(5), None);
        assert_eq!(read(10).unwrap(), b"v1");
        assert_eq!(read(25).unwrap(), b"v2");
        assert_eq!(read(30).unwrap(), b"v3");
        assert_eq!(read(999).unwrap(), b"v3");
    }

    #[test]
    fn own_uncommitted_writes_visible_only_to_writer() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"committed");
        let h = f.alloc().alloc(b"pending").unwrap();
        row.push_version(TxnId(7), VersionOp::Update, Some(h), None);

        let mine = row.visible_version(Timestamp(10), TxnId(7)).unwrap();
        assert_eq!(f.load(&mine), b"pending");
        let theirs = row.visible_version(Timestamp(10), TxnId(8)).unwrap();
        assert_eq!(f.load(&theirs), b"committed");
    }

    #[test]
    fn stamping_a_version_ref_publishes_it() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        let h = f.alloc().alloc(b"new").unwrap();
        let vref = row.push_version(TxnId(7), VersionOp::Insert, Some(h), None);
        assert!(row.visible_version(Timestamp(100), TxnId(8)).is_none());
        vref.stamp(Timestamp(50));
        let seen = row.visible_version(Timestamp(100), TxnId(8)).unwrap();
        assert_eq!(seen.commit_ts, Some(Timestamp(50)));
        assert_eq!(f.load(&seen), b"new");
    }

    #[test]
    fn truncate_reclaims_old_versions_only() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        f.push_committed(&row, 2, 20, b"v2");
        f.push_committed(&row, 3, 30, b"v3");
        assert_eq!(row.version_count(), 3);

        // Oldest active snapshot at 25: v2 (ts 20) is still needed,
        // v1 is unreachable.
        let freed = row.truncate_versions(Timestamp(25));
        assert!(freed > 0);
        assert_eq!(row.version_count(), 2);
        // Snapshot at 25 still reads v2.
        let v = row.visible_version(Timestamp(25), TxnId(99)).unwrap();
        assert_eq!(f.load(&v), b"v2");

        // Oldest active at 100: only v3 remains.
        row.truncate_versions(Timestamp(100));
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn rollback_removes_only_that_txns_uncommitted_versions() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        let h = f.alloc().alloc(b"doomed").unwrap();
        row.push_version(TxnId(5), VersionOp::Update, Some(h), None);
        let used_before = f.alloc().used_bytes();
        let (freed, emptied) = row.rollback_txn(TxnId(5), || Timestamp(11));
        assert!(!emptied);
        assert!(freed > 0);
        assert_eq!(f.alloc().used_bytes(), used_before - freed as u64);
        assert_eq!(row.version_count(), 1);
        let v = row.visible_version(Timestamp(10), TxnId(5)).unwrap();
        assert_eq!(f.load(&v), b"v1");
    }

    #[test]
    fn rollback_quarantines_nodes_for_straggling_readers() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        row.push_version(TxnId(5), VersionOp::Update, None, None);
        assert_eq!(f.store.arena().quarantined_nodes(), 0);
        row.rollback_txn(TxnId(5), || Timestamp(11));
        assert_eq!(f.store.arena().quarantined_nodes(), 1);
        // The node only recycles once the horizon passes the rollback.
        assert_eq!(f.store.arena().reclaim(Timestamp(11)), 0);
        assert_eq!(f.store.arena().reclaim(Timestamp(12)), 1);
    }

    #[test]
    fn tombstone_marks_row_deleted() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        let deleted = || {
            row.latest_committed()
                .is_some_and(|v| v.op == VersionOp::Delete)
        };
        assert!(!deleted());
        row.push_version(TxnId(2), VersionOp::Delete, None, Some(Timestamp(20)));
        assert!(deleted());
        // Snapshot before the delete still sees the row.
        let v = row.visible_version(Timestamp(15), TxnId(99)).unwrap();
        assert_eq!(v.op, VersionOp::Update);
    }

    #[test]
    fn touch_updates_hotness() {
        let f = fixture();
        let row = f.row(RowOrigin::Cached);
        let (ridmap, id) = (f.store.ridmap(), row.row_id);
        assert_eq!(ridmap.last_access(id), Timestamp(10), "arrival seeds it");
        ridmap.touch(id, Timestamp(42));
        ridmap.touch(id, Timestamp(43));
        assert_eq!(ridmap.last_access(id), Timestamp(43));
    }

    #[test]
    fn free_all_quarantines_everything() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"version one");
        f.push_committed(&row, 2, 20, b"version two");
        assert!(row.memory() > 0);
        assert!(row.free_all(|| Timestamp(21)).is_some());
        assert_eq!(row.memory(), 0);
        // Accounting drops immediately; physical reuse waits for the
        // horizon to pass the teardown timestamp.
        assert_eq!(f.alloc().used_bytes(), 0);
        assert!(f.alloc().quarantined_bytes() > 0);
        assert_eq!(f.store.arena().quarantined_nodes(), 2);
        f.alloc().reclaim(Timestamp(22));
        f.store.arena().reclaim(Timestamp(22));
        assert_eq!(f.alloc().quarantined_bytes(), 0);
        assert_eq!(f.store.arena().quarantined_nodes(), 0);
    }
}
