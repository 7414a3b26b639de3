//! The in-memory row.
//!
//! An [`ImrsRow`] fronts one row's version chain plus the ILM
//! bookkeeping the paper attaches to each row: the *origin* queue it
//! belongs to (inserted / migrated / cached, §VI.B), a loosely-updated
//! last-access timestamp (§V.A: "per-row access timestamps ... updated
//! occasionally"), and a re-use counter.
//!
//! The chain itself lives in the [`VersionArena`] and its head link in
//! the row's RID-Map entry, so the snapshot read path resolves a row
//! with atomics only — it never fetches this object. `ImrsRow` is the
//! *writer-side* façade: its `chain` mutex serializes structural chain
//! changes (push, rollback, truncation, teardown) against each other,
//! while readers walk concurrently without it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::{PartitionId, RowId, Timestamp, TxnId};

use crate::alloc::FragmentAllocator;
use crate::arena::{VersionArena, VersionRef, VersionView};
use crate::ridmap::RidMap;
use crate::version::VersionOp;

/// Which operation first brought a row into the IMRS. Each origin has
/// its own relaxed-LRU queue per partition (§VI.B), because hotness
/// characteristics differ per origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowOrigin {
    /// Inserted directly into the IMRS (no page-store footprint yet).
    Inserted,
    /// Updated from the page store into the IMRS (migration).
    Migrated,
    /// Selected from the page store and cached in the IMRS.
    Cached,
}

/// A row resident in the IMRS.
pub struct ImrsRow {
    /// Stable logical row id.
    pub row_id: RowId,
    /// Owning partition.
    pub partition: PartitionId,
    /// How the row entered the IMRS.
    pub origin: RowOrigin,
    /// Serializes structural chain changes; never taken by readers.
    chain: Mutex<()>,
    /// Whether the row currently sits in an ILM queue (set by GC when it
    /// enqueues the row; prevents duplicate queue entries).
    enqueued: AtomicBool,
    ridmap: Arc<RidMap>,
    arena: Arc<VersionArena>,
}

impl ImrsRow {
    /// Create a row façade (no versions yet; the store pushes the first
    /// one). Records the partition and seeds the access timestamp in
    /// the RID-Map entry *before* the row becomes reachable.
    pub fn new(
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        ridmap: Arc<RidMap>,
        arena: Arc<VersionArena>,
        now: Timestamp,
    ) -> Arc<Self> {
        ridmap.set_partition(row_id, partition);
        ridmap.set_last_access(row_id, now);
        Arc::new(ImrsRow {
            row_id,
            partition,
            origin,
            chain: Mutex::new(()),
            enqueued: AtomicBool::new(false),
            ridmap,
            arena,
        })
    }

    /// Claim queue membership. Returns `true` when the caller should
    /// enqueue the row (it was not in a queue before).
    pub fn try_mark_enqueued(&self) -> bool {
        btrim_common::atomics::witness(
            "crates/imrs/src/row.rs",
            "enqueued",
            btrim_common::atomics::AtomicOp::Rmw,
            Ordering::AcqRel,
        );
        !self.enqueued.swap(true, Ordering::AcqRel)
    }

    /// Release queue membership (row popped and not re-queued).
    pub fn clear_enqueued(&self) {
        self.enqueued.store(false, Ordering::Release);
    }

    /// Record an access for hotness tracking (cheap; relaxed stores).
    pub fn touch(&self, now: Timestamp) {
        self.ridmap.touch(self.row_id, now);
    }

    /// Last recorded access timestamp.
    pub fn last_access(&self) -> Timestamp {
        self.ridmap.last_access(self.row_id)
    }

    /// Total re-use operations recorded on this row.
    pub fn reuse_count(&self) -> u64 {
        self.ridmap.reuse_count(self.row_id)
    }

    /// Push a new version at the head of the chain. `commit_ts` is
    /// `Some` only for pre-stamped versions (recovery replay).
    pub fn push_version(
        &self,
        txn: TxnId,
        op: VersionOp,
        handle: Option<crate::alloc::FragHandle>,
        commit_ts: Option<Timestamp>,
    ) -> VersionRef {
        let _g = self.chain.lock();
        let link = self.arena.push(
            self.ridmap.head_cell(self.row_id),
            txn,
            op,
            handle,
            commit_ts,
        );
        VersionRef::new(Arc::clone(&self.arena), link)
    }

    /// Newest version visible to `(snapshot, reader)`; `None` if the row
    /// did not exist yet at that snapshot. Lock-free.
    pub fn visible_version(&self, snapshot: Timestamp, reader: TxnId) -> Option<VersionView> {
        self.arena
            .visible_from(self.ridmap.head(self.row_id), snapshot, reader)
    }

    /// Newest committed version regardless of snapshot (pack and GC use
    /// this: they operate on the latest committed image). Lock-free.
    pub fn latest_committed(&self) -> Option<VersionView> {
        self.arena
            .latest_committed_from(self.ridmap.head(self.row_id))
            .map(|(_, v)| v)
    }

    /// Newest version (possibly uncommitted). Used by write conflict
    /// detection.
    pub fn newest(&self) -> Option<VersionView> {
        match self.ridmap.head(self.row_id) {
            0 => None,
            link => Some(self.arena.view(link)),
        }
    }

    /// Remove versions created by an aborted transaction. Fragments are
    /// freed immediately (an uncommitted version of another transaction
    /// is never visible, so no reader loads its handle); the *nodes*
    /// are quarantined, because a reader may have captured a head link
    /// just before the unlink. `now` is a closure so the quarantine
    /// timestamp is read **after** the unlinks: any reader registering a
    /// newer snapshot from then on finds the rewired chain, so the
    /// horizon passing the timestamp proves no walker holds these nodes.
    /// Returns bytes released.
    pub fn rollback_txn(
        &self,
        txn: TxnId,
        alloc: &FragmentAllocator,
        now: impl Fn() -> Timestamp,
    ) -> usize {
        let _g = self.chain.lock();
        let head_cell = self.ridmap.head_cell(self.row_id);
        let mut freed = 0;
        let mut unlinked = Vec::new();
        let mut parent = 0u64; // 0 = the head cell itself
        let mut link = head_cell.load(Ordering::Acquire);
        while link != 0 {
            let v = self.arena.view(link);
            let next = self.arena.prev(link);
            if v.txn == txn && v.commit_ts.is_none() {
                if parent == 0 {
                    head_cell.store(next, Ordering::Release);
                } else {
                    self.arena.set_prev(parent, next);
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
        if !unlinked.is_empty() {
            let ts = now();
            for link in unlinked {
                self.arena.retire_node(link, ts);
            }
        }
        freed
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
    pub fn truncate_versions(&self, oldest_active: Timestamp, alloc: &FragmentAllocator) -> usize {
        let _g = self.chain.lock();
        let mut keep = self.ridmap.head(self.row_id);
        while keep != 0 {
            if self
                .arena
                .commit_ts(keep)
                .is_some_and(|ts| ts <= oldest_active)
            {
                break;
            }
            keep = self.arena.prev(keep);
        }
        if keep == 0 {
            return 0; // nothing old enough to cut below
        }
        let mut tail = self.arena.prev(keep);
        if tail == 0 {
            return 0;
        }
        self.arena.set_prev(keep, 0);
        let mut freed = 0;
        while tail != 0 {
            let v = self.arena.view(tail);
            let next = self.arena.prev(tail);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.free(h);
            }
            self.arena.free_node(tail);
            tail = next;
        }
        freed
    }

    /// Whether the latest committed version is a delete tombstone.
    pub fn is_deleted(&self) -> bool {
        self.latest_committed()
            .is_some_and(|v| v.op == VersionOp::Delete)
    }

    /// Number of versions currently chained (tests / stats). Takes the
    /// chain mutex: a structural walk must not race truncation.
    pub fn version_count(&self) -> usize {
        let _g = self.chain.lock();
        let mut n = 0;
        let mut link = self.ridmap.head(self.row_id);
        while link != 0 {
            n += 1;
            link = self.arena.prev(link);
        }
        n
    }

    /// Chain summary, newest first: `(commit_ts, op)` per version
    /// (debugging / diagnostics).
    pub fn chain_summary(&self) -> Vec<(Option<Timestamp>, VersionOp)> {
        let _g = self.chain.lock();
        let mut out = Vec::new();
        let mut link = self.ridmap.head(self.row_id);
        while link != 0 {
            let v = self.arena.view(link);
            out.push((v.commit_ts, v.op));
            link = self.arena.prev(link);
        }
        out
    }

    /// Total IMRS bytes pinned by this row's chain.
    pub fn memory(&self) -> usize {
        let _g = self.chain.lock();
        let mut bytes = 0;
        let mut link = self.ridmap.head(self.row_id);
        while link != 0 {
            bytes += self.arena.view(link).memory();
            link = self.arena.prev(link);
        }
        bytes
    }

    /// Drop the whole chain. Called when the row leaves the IMRS (pack,
    /// or GC of a deleted row). A reader may be mid-walk, so nodes
    /// *and* fragments are quarantined until the snapshot horizon
    /// passes — this closes the torn-read race where pack recycled an
    /// image a straggling reader had already resolved. `now` is a
    /// closure evaluated **after** the head swap: every snapshot that
    /// could have captured the old head is ≤ the resulting timestamp,
    /// so the horizon passing it proves no walker remains. Returns
    /// bytes released (from the store's accounting immediately;
    /// physical reuse is deferred).
    pub fn free_all(&self, alloc: &FragmentAllocator, now: impl Fn() -> Timestamp) -> usize {
        let _g = self.chain.lock();
        let mut link = self.ridmap.head_cell(self.row_id).swap(0, Ordering::AcqRel);
        let ts = now();
        let mut freed = 0;
        while link != 0 {
            let v = self.arena.view(link);
            let next = self.arena.prev(link);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.retire(h, ts);
            }
            self.arena.retire_node(link, ts);
            link = next;
        }
        freed
    }
}

impl std::fmt::Debug for ImrsRow {
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

    struct Fixture {
        ridmap: Arc<RidMap>,
        arena: Arc<VersionArena>,
        alloc: FragmentAllocator,
    }

    fn fixture() -> Fixture {
        Fixture {
            ridmap: Arc::new(RidMap::new()),
            arena: Arc::new(VersionArena::new()),
            alloc: FragmentAllocator::new(1024 * 1024, 64 * 1024),
        }
    }

    impl Fixture {
        fn row(&self, origin: RowOrigin) -> Arc<ImrsRow> {
            let id = self.ridmap.allocate_row_id();
            ImrsRow::new(
                id,
                PartitionId(0),
                origin,
                Arc::clone(&self.ridmap),
                Arc::clone(&self.arena),
                Timestamp(10),
            )
        }

        fn push_committed(&self, row: &ImrsRow, txn: u64, ts: u64, data: &[u8]) -> VersionRef {
            let h = self.alloc.alloc(data).unwrap();
            row.push_version(TxnId(txn), VersionOp::Update, Some(h), Some(Timestamp(ts)))
        }

        fn load(&self, v: &VersionView) -> Vec<u8> {
            self.alloc.load(v.handle.unwrap())
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
        let h = f.alloc.alloc(b"pending").unwrap();
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
        let h = f.alloc.alloc(b"new").unwrap();
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
        let freed = row.truncate_versions(Timestamp(25), &f.alloc);
        assert!(freed > 0);
        assert_eq!(row.version_count(), 2);
        // Snapshot at 25 still reads v2.
        let v = row.visible_version(Timestamp(25), TxnId(99)).unwrap();
        assert_eq!(f.load(&v), b"v2");

        // Oldest active at 100: only v3 remains.
        row.truncate_versions(Timestamp(100), &f.alloc);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn rollback_removes_only_that_txns_uncommitted_versions() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        let h = f.alloc.alloc(b"doomed").unwrap();
        row.push_version(TxnId(5), VersionOp::Update, Some(h), None);
        let used_before = f.alloc.used_bytes();
        let freed = row.rollback_txn(TxnId(5), &f.alloc, || Timestamp(11));
        assert!(freed > 0);
        assert_eq!(f.alloc.used_bytes(), used_before - freed as u64);
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
        assert_eq!(f.arena.quarantined_nodes(), 0);
        row.rollback_txn(TxnId(5), &f.alloc, || Timestamp(11));
        assert_eq!(f.arena.quarantined_nodes(), 1);
        // The node only recycles once the horizon passes the rollback.
        assert_eq!(f.arena.reclaim(Timestamp(11)), 0);
        assert_eq!(f.arena.reclaim(Timestamp(12)), 1);
    }

    #[test]
    fn tombstone_marks_row_deleted() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"v1");
        assert!(!row.is_deleted());
        row.push_version(TxnId(2), VersionOp::Delete, None, Some(Timestamp(20)));
        assert!(row.is_deleted());
        // Snapshot before the delete still sees the row.
        let v = row.visible_version(Timestamp(15), TxnId(99)).unwrap();
        assert_eq!(v.op, VersionOp::Update);
    }

    #[test]
    fn touch_updates_hotness() {
        let f = fixture();
        let row = f.row(RowOrigin::Cached);
        assert_eq!(row.reuse_count(), 0);
        row.touch(Timestamp(42));
        row.touch(Timestamp(43));
        assert_eq!(row.last_access(), Timestamp(43));
        assert_eq!(row.reuse_count(), 2);
    }

    #[test]
    fn free_all_quarantines_everything() {
        let f = fixture();
        let row = f.row(RowOrigin::Inserted);
        f.push_committed(&row, 1, 10, b"version one");
        f.push_committed(&row, 2, 20, b"version two");
        assert!(row.memory() > 0);
        row.free_all(&f.alloc, || Timestamp(21));
        assert_eq!(row.memory(), 0);
        // Accounting drops immediately; physical reuse waits for the
        // horizon to pass the teardown timestamp.
        assert_eq!(f.alloc.used_bytes(), 0);
        assert!(f.alloc.quarantined_bytes() > 0);
        assert_eq!(f.arena.quarantined_nodes(), 2);
        f.alloc.reclaim(Timestamp(22));
        f.arena.reclaim(Timestamp(22));
        assert_eq!(f.alloc.quarantined_bytes(), 0);
        assert_eq!(f.arena.quarantined_nodes(), 0);
    }
}
