//! Before-image side store for page-store rows.
//!
//! Page-store updates are applied **in place**, so without help a
//! snapshot reader that lands on a page slot would see whatever bytes
//! the most recent writer left there — a value from the reader's
//! future. The side store is that help: writers stash the *before*
//! image of every page-slot change here **before** mutating the page,
//! keyed by `(PageId, SlotId)`; snapshot readers read the page bytes
//! first, then consult the store to roll the value back to their
//! snapshot.
//!
//! # Entry semantics
//!
//! Each entry records one change to one slot: the row it belonged to,
//! the writing transaction, the commit timestamp (0 while the writer is
//! still in flight — treated as +∞ by visibility, since any future
//! commit necessarily publishes after every existing snapshot), and the
//! image the slot held *before* the change (`None` = the row did not
//! exist, used for inserts and for rows packed out of the IMRS whose
//! single version is newer than some active snapshot).
//!
//! For a reader at snapshot `S`, the value of a slot is the before
//! image of the **earliest** change with commit timestamp `> S` — that
//! change overwrote exactly the state `S` should see. No such entry
//! means the current page bytes are old enough to use as-is. Entries
//! are filtered by `RowId` so a recycled slot never leaks a previous
//! occupant's images into the wrong row.
//!
//! # Lifecycle
//!
//! Writers stash pending entries at DML time; commit stamps them with
//! the commit timestamp **before** the timestamp is published (so any
//! reader whose snapshot can see the commit also sees the stamps);
//! abort drops them after the page undo has restored the bytes.
//! Maintenance purges entries with `ts ≤ oldest_active_snapshot` — no
//! live snapshot can need them — which also bounds the store: its
//! footprint is the before-image volume of the active-snapshot window,
//! not of history. Purging the last entry of a deleted row clears the
//! row's RID-Map tombstone.
//!
//! Shard locks carry rank `SIDE_STORE` (45): above the RID-Map and the
//! buffer frames (readers pin the page first, then consult the store),
//! below the WAL.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use btrim_common::{PageId, RowId, SlotId, Timestamp, TxnId};
use btrim_imrs::{RidMap, RowLocation};
use parking_lot::{lock_rank, RwLock};

/// Shard count; keys are spread by page id so consecutive slots of one
/// page share a shard (one lock for a page's worth of stashes).
const SHARDS: usize = 16;

/// Fixed per-entry accounting overhead (key, vec slot, bookkeeping).
const ENTRY_OVERHEAD: u64 = 64;

/// One stashed change to a page slot.
struct SideEntry {
    /// Row the slot belonged to when the change happened.
    row: RowId,
    /// Writing transaction.
    txn: TxnId,
    /// Commit timestamp; 0 = writer still uncommitted (reads as +∞).
    ts: AtomicU64,
    /// Slot image before the change; `None` = row absent at that time.
    before: Option<Vec<u8>>,
    /// True when the change was a row delete (the row's RID-Map entry
    /// is a tombstone that must be cleared when this entry is purged).
    tombstone: bool,
}

impl SideEntry {
    fn bytes(&self) -> u64 {
        ENTRY_OVERHEAD + self.before.as_ref().map_or(0, |b| b.len() as u64)
    }

    /// Effective commit timestamp for visibility (pending = +∞).
    fn effective_ts(&self) -> u64 {
        match self.ts.load(Ordering::Acquire) {
            0 => u64::MAX,
            t => t,
        }
    }
}

/// Result of a snapshot lookup against the side store.
pub(crate) enum SideImage {
    /// No entry overrides the page: current page bytes are visible.
    UsePage,
    /// The row did not exist at the reader's snapshot.
    Absent,
    /// The row's value at the reader's snapshot.
    Image(Vec<u8>),
}

type Shard = HashMap<(PageId, SlotId), Vec<SideEntry>>;

/// The sharded before-image store. One per engine, in `Shared`.
pub(crate) struct SideStore {
    shards: Vec<RwLock<Shard>>,
    bytes: AtomicU64,
    entries: AtomicU64,
}

impl SideStore {
    pub(crate) fn new() -> Self {
        SideStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::with_rank(lock_rank::SIDE_STORE, HashMap::new()))
                .collect(),
            bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    fn shard(&self, page: PageId) -> &RwLock<Shard> {
        &self.shards[page.0 as usize % SHARDS]
    }

    /// Stash a pending before-image for an in-flight transaction. Must
    /// be called **before** the page bytes are mutated; the caller
    /// records the key in its transaction for commit-stamping/abort.
    pub(crate) fn stash(
        &self,
        page: PageId,
        slot: SlotId,
        row: RowId,
        txn: TxnId,
        before: Option<Vec<u8>>,
        tombstone: bool,
    ) {
        self.push(
            page,
            slot,
            SideEntry {
                row,
                txn,
                ts: AtomicU64::new(0),
                before,
                tombstone,
            },
        );
    }

    /// Stash an already-committed entry (pack's absent markers: the
    /// packed version's commit timestamp is known and final).
    pub(crate) fn stash_committed(
        &self,
        page: PageId,
        slot: SlotId,
        row: RowId,
        txn: TxnId,
        ts: Timestamp,
        before: Option<Vec<u8>>,
    ) {
        debug_assert!(ts.0 != 0, "committed stash needs a real timestamp");
        self.push(
            page,
            slot,
            SideEntry {
                row,
                txn,
                ts: AtomicU64::new(ts.0),
                before,
                tombstone: false,
            },
        );
    }

    fn push(&self, page: PageId, slot: SlotId, entry: SideEntry) {
        self.bytes.fetch_add(entry.bytes(), Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.shard(page)
            .write()
            .entry((page, slot))
            .or_default()
            .push(entry);
    }

    /// Stamp every pending entry `txn` stashed under `keys` with its
    /// commit timestamp. Must run **before** the timestamp is published
    /// to the clock, so a reader whose snapshot admits the commit can
    /// never observe the entry still pending.
    pub(crate) fn stamp(&self, keys: &[(PageId, SlotId)], txn: TxnId, ts: Timestamp) {
        for &(page, slot) in keys {
            let shard = self.shard(page).read();
            if let Some(list) = shard.get(&(page, slot)) {
                for e in list {
                    // lint: allow(atomics-ordering) -- pending(0)→stamped
                    // is only ever written by the owning txn's thread;
                    // this load just filters our own pending entries.
                    if e.txn == txn && e.ts.load(Ordering::Relaxed) == 0 {
                        e.ts.store(ts.0, Ordering::Release);
                    }
                }
            }
        }
    }

    /// Drop `txn`'s pending entries under `keys` (abort). Must run
    /// **after** the page undo restored the before images to the pages.
    pub(crate) fn drop_pending(&self, keys: &[(PageId, SlotId)], txn: TxnId) {
        for &(page, slot) in keys {
            let mut shard = self.shard(page).write();
            if let Some(list) = shard.get_mut(&(page, slot)) {
                list.retain(|e| {
                    // lint: allow(atomics-ordering) -- abort path: only the
                    // owning txn stamps its entries, and it is the caller,
                    // so 0-vs-stamped needs no cross-thread ordering.
                    let drop = e.txn == txn && e.ts.load(Ordering::Relaxed) == 0;
                    if drop {
                        self.bytes.fetch_sub(e.bytes(), Ordering::Relaxed);
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                    }
                    !drop
                });
                if list.is_empty() {
                    shard.remove(&(page, slot));
                }
            }
        }
    }

    /// The value of `(page, slot)` for `row` as of `snapshot`: the
    /// before image of the earliest change newer than the snapshot, or
    /// [`SideImage::UsePage`] when no stash overrides the page bytes.
    /// A reader that changed the slot itself always gets the page bytes
    /// — its own write is the newest thing there (it holds the row's
    /// exclusive lock), whatever older history is stashed beside it.
    pub(crate) fn lookup(
        &self,
        page: PageId,
        slot: SlotId,
        row: RowId,
        snapshot: Timestamp,
        reader: TxnId,
    ) -> SideImage {
        let shard = self.shard(page).read();
        let Some(list) = shard.get(&(page, slot)) else {
            return SideImage::UsePage;
        };
        let mut best: Option<(&SideEntry, u64)> = None;
        for e in list {
            if e.row != row {
                continue;
            }
            if e.txn == reader {
                return SideImage::UsePage;
            }
            let eff = e.effective_ts();
            if eff <= snapshot.0 {
                continue;
            }
            // Strict `<` keeps the earliest-stashed entry on timestamp
            // ties (one transaction changing a slot twice).
            if best.is_none_or(|(_, b)| eff < b) {
                best = Some((e, eff));
            }
        }
        match best {
            None => SideImage::UsePage,
            Some((e, _)) => match &e.before {
                None => SideImage::Absent,
                Some(img) => SideImage::Image(img.clone()),
            },
        }
    }

    /// Newest *stamped* commit timestamp recorded for `row` under
    /// `(page, slot)`, ignoring pending entries. Migration uses this as
    /// a history gate: the page image may only be re-stamped at the
    /// snapshot horizon if the row's last change is at or below it —
    /// any change newer than the horizon left a stamped entry here
    /// (in-place updates stash before-images, pack stashes absent
    /// markers), and purge cannot remove entries above the horizon.
    pub(crate) fn newest_stamped_ts(
        &self,
        page: PageId,
        slot: SlotId,
        row: RowId,
    ) -> Option<Timestamp> {
        let shard = self.shard(page).read();
        shard
            .get(&(page, slot))?
            .iter()
            .filter(|e| e.row == row)
            .filter_map(|e| match e.ts.load(Ordering::Acquire) {
                0 => None,
                t => Some(t),
            })
            .max()
            .map(Timestamp)
    }

    /// Drop every entry with a commit timestamp at or below `horizon` —
    /// no active snapshot can need those images. Clears the RID-Map
    /// tombstone of rows whose delete entry is purged. Returns
    /// `(entries_dropped, bytes_dropped)`.
    pub(crate) fn purge(&self, horizon: Timestamp, ridmap: &RidMap) -> (usize, u64) {
        let mut dropped = 0usize;
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|_, list| {
                list.retain(|e| {
                    // lint: allow(atomics-ordering) -- the shard write lock
                    // held here orders us after any stamp() that ran under
                    // the same lock, so the Release stamp is visible.
                    let ts = e.ts.load(Ordering::Relaxed);
                    let drop = ts != 0 && ts <= horizon.0;
                    if drop {
                        dropped += 1;
                        freed += e.bytes();
                        if e.tombstone {
                            if let Some(RowLocation::Tombstone(..)) = ridmap.get(e.row) {
                                // lint: allow(wal-before-mutation) -- purge
                                // clears the tombstone of a delete whose
                                // record fell below the snapshot horizon;
                                // the Delete WAL record is already durable.
                                ridmap.remove(e.row);
                            }
                        }
                    }
                    !drop
                });
                !list.is_empty()
            });
        }
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
        self.entries.fetch_sub(dropped as u64, Ordering::Relaxed);
        (dropped, freed)
    }

    /// Rows whose most recent change under their slot was a delete,
    /// with the delete's stash still present. Analytic scans enumerate
    /// these so a row deleted *after* the scan's snapshot (RID-Map now
    /// a tombstone, primary index entry already removed) is still
    /// visited and served from its stash.
    pub(crate) fn tombstoned_rows(&self) -> Vec<(PageId, SlotId, RowId)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (&(page, slot), list) in shard.iter() {
                for e in list {
                    if e.tombstone {
                        out.push((page, slot, e.row));
                    }
                }
            }
        }
        out
    }

    /// Payload + overhead bytes currently stashed.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of stashed entries.
    pub(crate) fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> (PageId, SlotId) {
        (PageId(7), SlotId(3))
    }

    #[test]
    fn pending_entry_overrides_every_snapshot() {
        let s = SideStore::new();
        let (p, sl) = key();
        s.stash(p, sl, RowId(1), TxnId(9), Some(vec![1, 2]), false);
        match s.lookup(p, sl, RowId(1), Timestamp(1_000_000), TxnId(2)) {
            SideImage::Image(img) => assert_eq!(img, vec![1, 2]),
            _ => panic!("pending stash must override"),
        }
        // ... but not for the writer itself.
        assert!(matches!(
            s.lookup(p, sl, RowId(1), Timestamp(5), TxnId(9)),
            SideImage::UsePage
        ));
    }

    #[test]
    fn earliest_newer_change_wins() {
        let s = SideStore::new();
        let (p, sl) = key();
        // Value A until ts 10, B until ts 20, page bytes after.
        s.stash_committed(p, sl, RowId(1), TxnId(1), Timestamp(10), Some(vec![b'A']));
        s.stash_committed(p, sl, RowId(1), TxnId(2), Timestamp(20), Some(vec![b'B']));
        let read = |snap: u64| s.lookup(p, sl, RowId(1), Timestamp(snap), TxnId(99));
        assert!(matches!(read(5), SideImage::Image(ref v) if v == &vec![b'A']));
        assert!(matches!(read(10), SideImage::Image(ref v) if v == &vec![b'B']));
        assert!(matches!(read(15), SideImage::Image(ref v) if v == &vec![b'B']));
        assert!(matches!(read(20), SideImage::UsePage));
    }

    #[test]
    fn entries_filtered_by_row_on_slot_reuse() {
        let s = SideStore::new();
        let (p, sl) = key();
        // Row 1 deleted at ts 50 (slot freed), row 2 inserted into the
        // recycled slot at ts 60.
        s.stash_committed(p, sl, RowId(1), TxnId(1), Timestamp(50), Some(vec![b'X']));
        s.stash_committed(p, sl, RowId(2), TxnId(2), Timestamp(60), None);
        assert!(matches!(
            s.lookup(p, sl, RowId(1), Timestamp(40), TxnId(9)),
            SideImage::Image(ref v) if v == &vec![b'X']
        ));
        assert!(matches!(
            s.lookup(p, sl, RowId(2), Timestamp(55), TxnId(9)),
            SideImage::Absent
        ));
        assert!(matches!(
            s.lookup(p, sl, RowId(2), Timestamp(60), TxnId(9)),
            SideImage::UsePage
        ));
    }

    #[test]
    fn purge_frees_and_clears_tombstones() {
        let s = SideStore::new();
        let ridmap = RidMap::new();
        let (p, sl) = key();
        ridmap.set(RowId(1), RowLocation::Tombstone(p, sl));
        s.stash(p, sl, RowId(1), TxnId(1), Some(vec![0; 100]), true);
        s.stamp(&[(p, sl)], TxnId(1), Timestamp(50));
        s.stash(p, sl, RowId(2), TxnId(2), Some(vec![0; 10]), false);
        s.stamp(&[(p, sl)], TxnId(2), Timestamp(500));
        assert_eq!(s.entries(), 2);

        // Horizon below both: nothing purged.
        assert_eq!(s.purge(Timestamp(49), &ridmap).0, 0);
        // Horizon covers the first: entry dropped, tombstone cleared.
        let (n, bytes) = s.purge(Timestamp(50), &ridmap);
        assert_eq!(n, 1);
        assert!(bytes >= 100);
        assert!(ridmap.get(RowId(1)).is_none());
        assert_eq!(s.entries(), 1);
        assert!(matches!(
            s.lookup(p, sl, RowId(2), Timestamp(100), TxnId(9)),
            SideImage::Image(_)
        ));
    }

    #[test]
    fn abort_drops_only_the_writers_pending_entries() {
        let s = SideStore::new();
        let (p, sl) = key();
        s.stash(p, sl, RowId(1), TxnId(1), Some(vec![b'P']), false);
        s.stash_committed(p, sl, RowId(1), TxnId(2), Timestamp(30), Some(vec![b'C']));
        s.drop_pending(&[(p, sl)], TxnId(1));
        assert_eq!(s.entries(), 1);
        assert!(matches!(
            s.lookup(p, sl, RowId(1), Timestamp(10), TxnId(9)),
            SideImage::Image(ref v) if v == &vec![b'C']
        ));
        assert_eq!(s.purge(Timestamp(1_000), &RidMap::new()).0, 1);
        assert_eq!(s.entries(), 0);
        assert_eq!(s.bytes(), 0);
    }
}
