//! The IMRS store: allocator, version arena, chain stripes and
//! per-partition memory accounting.
//!
//! [`ImrsStore`] owns the fragment allocator and the version arena and
//! shares the RID-Map, whose entries are the directory of resident rows
//! (a row is resident while its entry's chain head is non-zero; see
//! [`ridmap`](crate::ridmap)). Every mutation goes through the store so
//! the per-partition counters — "Partition-specific IMRS-memory used,
//! number of rows stored in-memory for a partition" (§V.A) — never
//! drift from the allocator. Those counters are the raw input to the
//! Cache Utilization Index and the pack-cycle byte apportioning
//! (§VI.C).
//!
//! Structural chain changes (push, rollback, truncation, teardown)
//! serialize on one of [`CHAIN_STRIPES`] mutexes picked by RowId — by
//! RowId, not per arrival, so a row that left and came back and a stale
//! GC or pack visit to its previous stay contend on the *same* lock for
//! the one head cell they share. The snapshot read path takes none of
//! this: it resolves rows through the entry's head link and the arena,
//! both lock-free. Teardown paths therefore take a `now` timestamp so
//! freed chain nodes and fragments quarantine until the snapshot
//! horizon passes (see [`reclaim`](ImrsStore::reclaim)).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{lock_rank, Mutex, MutexGuard, RwLock};

use btrim_common::atomics::Relaxed;
use btrim_common::{BtrimError, PartitionId, Result, RowId, Timestamp, TxnId};

use crate::alloc::{FragHandle, FragmentAllocator};
use crate::arena::{VersionArena, VersionRef, VersionView};
use crate::ridmap::RidMap;
use crate::row::{ImrsRow, RowOrigin};
use crate::sweep::Sweep;
use crate::version::VersionOp;

/// Chain-lock stripes.
const CHAIN_STRIPES: usize = 64;

/// Per-partition IMRS usage counters.
#[derive(Debug, Default)]
pub struct PartitionUsage {
    bytes: Relaxed<i64>,
    rows: Relaxed<i64>,
}

impl PartitionUsage {
    /// IMRS bytes attributed to the partition.
    pub fn bytes(&self) -> u64 {
        self.bytes.load().max(0) as u64
    }

    /// IMRS-resident row count for the partition.
    pub fn rows(&self) -> u64 {
        self.rows.load().max(0) as u64
    }
}

/// What [`ImrsStore::visible`] found.
#[derive(Clone, Copy, Debug)]
pub enum Visible {
    /// The visible version and its image.
    Image(VersionView, FragHandle),
    /// No version is visible: deleted at the snapshot, or first
    /// inserted after it.
    Hidden,
    /// The row left the IMRS since the caller saw it there: resolve it
    /// again.
    Moved,
}

/// The in-memory row store.
pub struct ImrsStore {
    alloc: Arc<FragmentAllocator>,
    arena: Arc<VersionArena>,
    ridmap: Arc<RidMap>,
    chain: [Mutex<()>; CHAIN_STRIPES],
    usage: RwLock<HashMap<PartitionId, Arc<PartitionUsage>>>,
}

impl ImrsStore {
    /// Create a store with a memory budget. The RID-Map is shared with
    /// the engine: its entries are the rows.
    pub fn new(budget_bytes: u64, chunk_size: u32, ridmap: Arc<RidMap>) -> Self {
        ImrsStore {
            alloc: Arc::new(FragmentAllocator::new(budget_bytes, chunk_size)),
            arena: Arc::new(VersionArena::new()),
            ridmap,
            chain: std::array::from_fn(|_| Mutex::with_rank(lock_rank::IMRS_CHAIN, ())),
            usage: RwLock::new(HashMap::new()),
        }
    }

    /// The fragment allocator.
    pub fn allocator(&self) -> &Arc<FragmentAllocator> {
        &self.alloc
    }

    /// The version arena (the snapshot read path walks it directly).
    pub fn arena(&self) -> &Arc<VersionArena> {
        &self.arena
    }

    pub(crate) fn ridmap(&self) -> &RidMap {
        &self.ridmap
    }

    fn view(&self, row_id: RowId, partition: PartitionId, origin: RowOrigin) -> ImrsRow<'_> {
        ImrsRow {
            store: self,
            row_id,
            partition,
            origin,
        }
    }

    /// Lock the chain stripe of `row`. Held only inside one chain
    /// operation of [`ImrsRow`]; never two at once.
    pub(crate) fn chain(&self, row: RowId) -> MutexGuard<'_, ()> {
        self.chain[row.0 as usize % CHAIN_STRIPES].lock()
    }

    /// IMRS bytes in use (all partitions).
    pub fn used_bytes(&self) -> u64 {
        self.alloc.used_bytes()
    }

    /// Cache utilization in [0, 1] relative to the configured budget
    /// (includes quarantined bytes awaiting the snapshot horizon).
    pub fn utilization(&self) -> f64 {
        self.alloc.utilization()
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.alloc.budget()
    }

    /// Recycle quarantined chain nodes and fragments whose retirement
    /// timestamp the snapshot `horizon` has strictly passed. Returns
    /// (nodes, bytes) recycled.
    pub fn reclaim(&self, horizon: Timestamp) -> (usize, u64) {
        let nodes = self.arena.reclaim(horizon);
        let bytes = self.alloc.reclaim(horizon);
        (nodes, bytes)
    }

    /// Usage counters for a partition (created on first use).
    pub fn usage(&self, partition: PartitionId) -> Arc<PartitionUsage> {
        if let Some(u) = self.usage.read().get(&partition) {
            return Arc::clone(u);
        }
        let mut map = self.usage.write();
        Arc::clone(map.entry(partition).or_default())
    }

    /// Snapshot of every partition's usage as `(partition, bytes,
    /// rows)`, in partition-id order — pack apportions over it, and
    /// its decisions must not depend on hash-map order.
    pub fn all_usage(&self) -> Vec<(PartitionId, u64, u64)> {
        let mut all: Vec<_> = self
            .usage
            .read()
            .iter()
            .map(|(&p, u)| (p, u.bytes(), u.rows()))
            .collect();
        all.sort_unstable_by_key(|&(p, ..)| p);
        all
    }

    /// Bring a row into the IMRS with its first (uncommitted) version.
    /// The row must not be resident already. Returns the row plus the
    /// version reference to stamp at commit.
    pub fn insert_row(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        self.insert_with(row_id, partition, origin, txn, data, now, None)
    }

    /// Same as [`insert_row`](Self::insert_row) but with a pre-stamped
    /// version (recovery replay).
    pub fn insert_row_committed(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        ts: Timestamp,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        self.insert_with(row_id, partition, origin, txn, data, ts, Some(ts))
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the one body behind insert_row and insert_row_committed"
    )]
    fn insert_with(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
        commit_ts: Option<Timestamp>,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        let handle = self.alloc.alloc(data)?;
        let bytes = handle.alloc_len() as i64;
        // Entry first, chain head second: whoever sees the head sees
        // the partition, the origin and a cleared queue claim.
        self.ridmap.arrive(row_id, partition, origin, now);
        let row = self.view(row_id, partition, origin);
        let vref = row.push_version(txn, VersionOp::Insert, Some(handle), commit_ts);
        if origin != RowOrigin::Inserted {
            self.ridmap.count_arrival();
        }
        let u = self.usage(partition);
        u.bytes.fetch_add(bytes);
        u.rows.fetch_add(1);
        Ok((row, vref))
    }

    /// Add an (uncommitted) version to a resident row.
    pub fn add_version(
        &self,
        row: &ImrsRow<'_>,
        txn: TxnId,
        op: VersionOp,
        data: Option<&[u8]>,
    ) -> Result<VersionRef> {
        let handle = match data {
            Some(d) => Some(self.alloc.alloc(d)?),
            None => None,
        };
        let bytes = handle.map_or(0, |h| h.alloc_len()) as i64;
        let vref = row.push_version(txn, op, handle, None);
        self.usage(row.partition).bytes.fetch_add(bytes);
        Ok(vref)
    }

    /// The version of `row_id` visible to `(snapshot, reader)`, found
    /// lock-free from the RID-Map entry's chain head and the arena. The
    /// caller saw the row's location say `Imrs`.
    ///
    /// The walk is safe against concurrent rollback, truncation and
    /// pack: nodes and fragments are quarantined, and reclamation needs
    /// the horizon to pass their retirement — impossible while `reader`
    /// is a registered, live snapshot. So the handle stays readable
    /// until the reader ends.
    #[inline]
    pub fn visible(&self, row_id: RowId, snapshot: Timestamp, reader: TxnId) -> Result<Visible> {
        let head = self.ridmap.head(row_id);
        if head == 0 {
            // The chain drained between the caller's location read and
            // this one: the row was packed or removed.
            return Ok(Visible::Moved);
        }
        match self.arena.visible_from(head, snapshot, reader) {
            Some(v) if v.op != VersionOp::Delete => match v.handle {
                Some(h) => Ok(Visible::Image(v, h)),
                None => Err(BtrimError::Corrupt("version without image".into())),
            },
            // Deleted at the snapshot, or the row's oldest version is
            // newer than the snapshot.
            _ => Ok(Visible::Hidden),
        }
    }

    /// A batched reader of the resident rows at one snapshot (see
    /// [`Sweep`]).
    pub fn sweep(&self, snapshot: Timestamp, reader: TxnId) -> Sweep<'_> {
        Sweep::new(self, snapshot, reader)
    }

    /// A view of `row_id` if it is resident.
    pub fn get(&self, row_id: RowId) -> Option<ImrsRow<'_>> {
        let (partition, origin) = self.ridmap.resident(row_id)?;
        Some(self.view(row_id, partition, origin))
    }

    /// Remove a row (pack completion, GC of a fully-dead row, undo of
    /// an insert). Its chain is quarantined — accounting drops
    /// immediately, physical reuse waits for the snapshot horizon —
    /// because a lock-free reader may still be walking it. `now` is a
    /// closure (usually the commit clock) read *after* the chain head
    /// is detached; see [`ImrsRow::free_all`]. Returns the row if it
    /// was resident.
    pub fn remove_row(&self, row_id: RowId, now: impl Fn() -> Timestamp) -> Option<ImrsRow<'_>> {
        let row = self.get(row_id)?;
        let freed = row.free_all(now)? as i64;
        let u = self.usage(row.partition);
        u.bytes.fetch_sub(freed);
        u.rows.fetch_sub(1);
        Some(row)
    }

    /// Roll back a transaction's versions on a row, with accounting.
    /// `now` (read after the unlinks) timestamps the node quarantine.
    /// Returns whether that emptied the chain — the row was the
    /// transaction's own insert and is no longer resident.
    pub fn rollback_row(&self, row: &ImrsRow<'_>, txn: TxnId, now: impl Fn() -> Timestamp) -> bool {
        let (freed, emptied) = row.rollback_txn(txn, now);
        if freed > 0 || emptied {
            let u = self.usage(row.partition);
            u.bytes.fetch_sub(freed as i64);
            u.rows.fetch_sub(emptied as i64);
        }
        emptied
    }

    /// GC one row's chain below the oldest-active snapshot, with
    /// accounting. Returns bytes freed.
    pub fn truncate_row(&self, row: &ImrsRow<'_>, oldest_active: Timestamp) -> usize {
        let freed = row.truncate_versions(oldest_active);
        if freed > 0 {
            self.usage(row.partition).bytes.fetch_sub(freed as i64);
        }
        freed
    }

    /// Number of resident rows across all partitions.
    pub fn row_count(&self) -> usize {
        self.usage.read().values().map(|u| u.rows() as usize).sum()
    }

    /// Visit every resident row in RowId order (queue rebuild after
    /// recovery, probes).
    pub fn for_each_row(&self, mut f: impl FnMut(ImrsRow<'_>)) {
        self.ridmap
            .for_each_resident(|row_id, partition, origin| f(self.view(row_id, partition, origin)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ImrsStore {
        ImrsStore::new(1024 * 1024, 64 * 1024, Arc::new(RidMap::new()))
    }

    #[test]
    fn insert_and_get() {
        let s = store();
        let (row, _) = s
            .insert_row(
                RowId(1),
                PartitionId(2),
                RowOrigin::Inserted,
                TxnId(1),
                b"hello",
                Timestamp(1),
            )
            .unwrap();
        assert_eq!(row.row_id, RowId(1));
        let got = s.get(RowId(1)).unwrap();
        assert_eq!(got.partition, PartitionId(2));
        assert_eq!(s.row_count(), 1);
    }

    #[test]
    fn usage_accounting_tracks_inserts_and_removes() {
        let s = store();
        for i in 0..10u64 {
            s.insert_row(
                RowId(i),
                PartitionId(1),
                RowOrigin::Inserted,
                TxnId(1),
                &[0u8; 100],
                Timestamp(1),
            )
            .unwrap();
        }
        let u = s.usage(PartitionId(1));
        assert_eq!(u.rows(), 10);
        assert_eq!(u.bytes(), s.used_bytes());
        assert!(u.bytes() >= 1000);

        for i in 0..5u64 {
            s.remove_row(RowId(i), || Timestamp(2)).unwrap();
        }
        assert_eq!(u.rows(), 5);
        assert_eq!(u.bytes(), s.used_bytes());
    }

    #[test]
    fn add_version_grows_partition_bytes() {
        let s = store();
        let (row, _) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                b"v1",
                Timestamp(1),
            )
            .unwrap();
        let before = s.usage(PartitionId(0)).bytes();
        s.add_version(&row, TxnId(2), VersionOp::Update, Some(b"version two"))
            .unwrap();
        assert!(s.usage(PartitionId(0)).bytes() > before);
        assert_eq!(row.version_count(), 2);
    }

    #[test]
    fn truncate_row_returns_bytes_to_partition() {
        let s = store();
        let (row, v1) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                &[1u8; 64],
                Timestamp(1),
            )
            .unwrap();
        v1.stamp(Timestamp(5));
        let v2 = s
            .add_version(&row, TxnId(2), VersionOp::Update, Some(&[2u8; 64]))
            .unwrap();
        v2.stamp(Timestamp(10));
        let before = s.usage(PartitionId(0)).bytes();
        let freed = s.truncate_row(&row, Timestamp(50));
        assert!(freed > 0);
        assert_eq!(s.usage(PartitionId(0)).bytes(), before - freed as u64);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn rollback_restores_accounting() {
        let s = store();
        let (row, v1) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                b"base",
                Timestamp(1),
            )
            .unwrap();
        v1.stamp(Timestamp(2));
        let before = s.usage(PartitionId(0)).bytes();
        s.add_version(&row, TxnId(9), VersionOp::Update, Some(&[0u8; 200]))
            .unwrap();
        s.rollback_row(&row, TxnId(9), || Timestamp(3));
        assert_eq!(s.usage(PartitionId(0)).bytes(), before);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let s = ImrsStore::new(16 * 1024, 16 * 1024, Arc::new(RidMap::new()));
        let mut i = 0u64;
        loop {
            match s.insert_row(
                RowId(i),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                &vec![0u8; 1024],
                Timestamp(1),
            ) {
                Ok(_) => i += 1,
                Err(btrim_common::BtrimError::ImrsFull { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(i, 16);
    }

    #[test]
    fn removed_row_bytes_recycle_after_horizon() {
        let s = store();
        s.insert_row(
            RowId(1),
            PartitionId(0),
            RowOrigin::Inserted,
            TxnId(1),
            &[7u8; 128],
            Timestamp(1),
        )
        .unwrap();
        s.remove_row(RowId(1), || Timestamp(5)).unwrap();
        assert_eq!(s.used_bytes(), 0);
        assert!(s.allocator().quarantined_bytes() > 0);
        let (nodes, bytes) = s.reclaim(Timestamp(6));
        assert_eq!(nodes, 1);
        assert!(bytes > 0);
        assert_eq!(s.allocator().quarantined_bytes(), 0);
    }

    #[test]
    fn for_each_row_visits_all() {
        let s = store();
        for i in 0..50u64 {
            s.insert_row(
                RowId(i),
                PartitionId((i % 3) as u32),
                RowOrigin::Inserted,
                TxnId(1),
                b"x",
                Timestamp(1),
            )
            .unwrap();
        }
        let mut seen = 0;
        s.for_each_row(|_| seen += 1);
        assert_eq!(seen, 50);
        let total: u64 = s.all_usage().iter().map(|(_, _, rows)| rows).sum();
        assert_eq!(total, 50);
    }
}
