//! The IMRS row directory with per-partition memory accounting.
//!
//! [`ImrsStore`] owns the fragment allocator, the version arena and a
//! sharded map from `RowId` to [`ImrsRow`]. Every mutation goes through
//! the store so the per-partition counters — "Partition-specific
//! IMRS-memory used, number of rows stored in-memory for a partition"
//! (§V.A) — never drift from the allocator. Those counters are the raw
//! input to the Cache Utilization Index and the pack-cycle byte
//! apportioning (§VI.C).
//!
//! The store shards are a *writer-side* directory: the snapshot read
//! path never touches them — it resolves rows through the RID-Map entry
//! (head link) and the arena, both lock-free. Teardown paths therefore
//! take a `now` timestamp so freed chain nodes and fragments quarantine
//! until the snapshot horizon passes (see [`reclaim`](ImrsStore::reclaim)).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use btrim_common::{PartitionId, Result, RowId, Timestamp, TxnId};

use crate::alloc::FragmentAllocator;
use crate::arena::{VersionArena, VersionRef};
use crate::ridmap::RidMap;
use crate::row::{ImrsRow, RowOrigin};
use crate::version::VersionOp;

const SHARDS: usize = 64;

/// Per-partition IMRS usage counters.
#[derive(Debug, Default)]
pub struct PartitionUsage {
    bytes: AtomicI64,
    rows: AtomicI64,
}

impl PartitionUsage {
    /// IMRS bytes attributed to the partition.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed).max(0) as u64
    }

    /// IMRS-resident row count for the partition.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed).max(0) as u64
    }
}

/// The in-memory row store.
pub struct ImrsStore {
    alloc: Arc<FragmentAllocator>,
    arena: Arc<VersionArena>,
    ridmap: Arc<RidMap>,
    shards: Vec<RwLock<HashMap<RowId, Arc<ImrsRow>>>>,
    usage: RwLock<HashMap<PartitionId, Arc<PartitionUsage>>>,
}

impl ImrsStore {
    /// Create a store with a memory budget. The RID-Map is shared with
    /// the engine: version-chain heads live in its entries.
    pub fn new(budget_bytes: u64, chunk_size: u32, ridmap: Arc<RidMap>) -> Self {
        ImrsStore {
            alloc: Arc::new(FragmentAllocator::new(budget_bytes, chunk_size)),
            arena: Arc::new(VersionArena::new()),
            ridmap,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
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

    /// Retarget the memory budget (the arbiter's knob). Shrinking is
    /// lazy: admission tightens via the higher utilization reading and
    /// GC / pack / freeze drain the overage; nothing is evicted here.
    pub fn set_budget(&self, budget_bytes: u64) {
        self.alloc.set_budget(budget_bytes);
    }

    /// Recycle quarantined chain nodes and fragments whose retirement
    /// timestamp the snapshot `horizon` has strictly passed. Returns
    /// (nodes, bytes) recycled.
    pub fn reclaim(&self, horizon: Timestamp) -> (usize, u64) {
        let nodes = self.arena.reclaim(horizon);
        let bytes = self.alloc.reclaim(horizon);
        (nodes, bytes)
    }

    #[inline]
    fn shard(&self, row: RowId) -> &RwLock<HashMap<RowId, Arc<ImrsRow>>> {
        let h = (row.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.shards[h % SHARDS]
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
    /// Returns the row plus the version reference to stamp at commit.
    pub fn insert_row(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
    ) -> Result<(Arc<ImrsRow>, VersionRef)> {
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
    ) -> Result<(Arc<ImrsRow>, VersionRef)> {
        self.insert_with(row_id, partition, origin, txn, data, ts, Some(ts))
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_with(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
        commit_ts: Option<Timestamp>,
    ) -> Result<(Arc<ImrsRow>, VersionRef)> {
        let handle = self.alloc.alloc(data)?;
        let bytes = handle.alloc_len() as i64;
        let row = ImrsRow::new(
            row_id,
            partition,
            origin,
            Arc::clone(&self.ridmap),
            Arc::clone(&self.arena),
            now,
        );
        let vref = row.push_version(txn, VersionOp::Insert, Some(handle), commit_ts);
        self.shard(row_id).write().insert(row_id, Arc::clone(&row));
        let u = self.usage(partition);
        u.bytes.fetch_add(bytes, Ordering::Relaxed);
        u.rows.fetch_add(1, Ordering::Relaxed);
        Ok((row, vref))
    }

    /// Add an (uncommitted) version to a resident row.
    pub fn add_version(
        &self,
        row: &ImrsRow,
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
        self.usage(row.partition)
            .bytes
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(vref)
    }

    /// Fetch a resident row.
    pub fn get(&self, row_id: RowId) -> Option<Arc<ImrsRow>> {
        self.shard(row_id).read().get(&row_id).cloned()
    }

    /// Whether the row is resident.
    pub fn contains(&self, row_id: RowId) -> bool {
        self.shard(row_id).read().contains_key(&row_id)
    }

    /// Remove a row (pack completion, or GC of a fully-dead row). Its
    /// chain is quarantined — accounting drops immediately, physical
    /// reuse waits for the snapshot horizon — because a lock-free
    /// reader may still be walking it. `now` is a closure (usually the
    /// commit clock) read *after* the chain head is detached; see
    /// [`ImrsRow::free_all`]. Returns the row if it was resident.
    pub fn remove_row(&self, row_id: RowId, now: impl Fn() -> Timestamp) -> Option<Arc<ImrsRow>> {
        let row = self.shard(row_id).write().remove(&row_id)?;
        let freed = row.free_all(&self.alloc, now) as i64;
        let u = self.usage(row.partition);
        u.bytes.fetch_sub(freed, Ordering::Relaxed);
        u.rows.fetch_sub(1, Ordering::Relaxed);
        Some(row)
    }

    /// Roll back a transaction's versions on a row, with accounting.
    /// `now` (read after the unlinks) timestamps the node quarantine.
    pub fn rollback_row(&self, row: &ImrsRow, txn: TxnId, now: impl Fn() -> Timestamp) {
        let freed = row.rollback_txn(txn, &self.alloc, now) as i64;
        if freed > 0 {
            self.usage(row.partition)
                .bytes
                .fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// GC one row's chain below the oldest-active snapshot, with
    /// accounting. Returns bytes freed.
    pub fn truncate_row(&self, row: &ImrsRow, oldest_active: Timestamp) -> usize {
        let freed = row.truncate_versions(oldest_active, &self.alloc);
        if freed > 0 {
            self.usage(row.partition)
                .bytes
                .fetch_sub(freed as i64, Ordering::Relaxed);
        }
        freed
    }

    /// Number of resident rows across all partitions.
    pub fn row_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Visit every resident row (stats, tests, queue rebuild).
    pub fn for_each_row(&self, mut f: impl FnMut(&Arc<ImrsRow>)) {
        for shard in &self.shards {
            for row in shard.read().values() {
                f(row);
            }
        }
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
        assert!(s.contains(RowId(1)));
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
