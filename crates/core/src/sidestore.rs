//! Before-image side store for page-store rows.
//!
//! Page-store updates are applied **in place**, so without help a
//! snapshot reader that lands on a page slot would see whatever bytes
//! the most recent writer left there — a value from the reader's
//! future. The side store is that help: writers stash the *before*
//! image of every change to a page row here **before** mutating the
//! page, keyed by the row's `RowId`; snapshot readers read the page
//! bytes first, then consult the store to roll the value back to their
//! snapshot.
//!
//! The key is the row, not its address, because a page row's address is
//! not stable: an update that outgrows its page relocates the row, and
//! an abort re-homes a before-image wherever there is room. History
//! keyed by `RowId` follows the row through all of that by construction
//! (`RowId`s are never reused). It is per-row *state*, not a second
//! directory: only the RID-Map says where a row lives.
//!
//! # Entry semantics
//!
//! Each entry records one change to one row: the writing transaction,
//! the commit timestamp (0 while the writer is still in flight —
//! treated as +∞ by visibility, since any future commit necessarily
//! publishes after every existing snapshot), and the image the row held
//! *before* the change (`None` = the row did not exist, used for
//! inserts and for rows packed out of the IMRS whose single version is
//! newer than some active snapshot).
//!
//! For a reader at snapshot `S`, the value of a row is the before image
//! of the **earliest** change with commit timestamp `> S` — that change
//! overwrote exactly the state `S` should see. No such entry means the
//! current page bytes are old enough to use as-is.
//!
//! # Lifecycle
//!
//! A writer stashes one pending entry per page change, at DML time
//! (`txn_ctx::Write::Page`); commit stamps them with the commit
//! timestamp **before** the timestamp is published (so any reader whose
//! snapshot can see the commit also sees the stamps); abort reads each
//! back, newest first, as the image to restore, and drops it once the
//! page holds that image again. Maintenance purges entries with `ts ≤
//! oldest_active_snapshot` — no live snapshot can need them — which
//! also bounds the store: its footprint is the before-image volume of
//! the active-snapshot window, not of history. Purging the entry of a
//! row's delete clears the row's RID-Map tombstone.
//!
//! Shard locks carry rank `SIDE_STORE` (45): above the RID-Map and the
//! buffer frames (readers pin the page first, then consult the store),
//! below the WAL.

use std::collections::HashMap;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{RowId, Timestamp, TxnId};
use btrim_imrs::{RidMap, RowLocation};
use parking_lot::{lock_rank, RwLock};

/// Shard count; RowIds are allocated sequentially, so consecutive rows
/// spread evenly.
const SHARDS: usize = 16;

/// Fixed per-entry accounting overhead (key, vec slot, bookkeeping).
const ENTRY_OVERHEAD: u64 = 64;

/// One stashed change to a page row.
struct SideEntry {
    /// Writing transaction.
    txn: TxnId,
    /// Commit timestamp; 0 = writer still uncommitted (reads as +∞).
    ts: AcqRel<u64>,
    /// Row image before the change; `None` = row absent at that time.
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
        match self.ts.load() {
            0 => u64::MAX,
            t => t,
        }
    }

    /// Whether this is `txn`'s own still-unstamped entry.
    fn pending_of(&self, txn: TxnId) -> bool {
        self.txn == txn && self.ts.load() == 0
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

/// A row's changes, in stash order.
type Shard = HashMap<RowId, Vec<SideEntry>>;

/// The sharded before-image store. One per engine, in `Shared`.
pub(crate) struct SideStore {
    shards: Vec<RwLock<Shard>>,
    bytes: Relaxed<u64>,
    entries: Relaxed<u64>,
}

impl SideStore {
    pub(crate) fn new() -> Self {
        SideStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::with_rank(lock_rank::SIDE_STORE, HashMap::new()))
                .collect(),
            bytes: Relaxed::new(0),
            entries: Relaxed::new(0),
        }
    }

    fn shard(&self, row: RowId) -> &RwLock<Shard> {
        &self.shards[row.0 as usize % SHARDS]
    }

    /// Stash a pending before-image for an in-flight transaction. Must
    /// be called **before** the page bytes are mutated; the caller
    /// records a `Write::Page` for commit-stamping/abort.
    pub(crate) fn stash(&self, row: RowId, txn: TxnId, before: Option<Vec<u8>>, tombstone: bool) {
        self.push(
            row,
            SideEntry {
                txn,
                ts: AcqRel::new(0),
                before,
                tombstone,
            },
        );
    }

    /// Stash an already-committed entry (pack's absent markers: the
    /// packed version's commit timestamp is known and final).
    pub(crate) fn stash_committed(
        &self,
        row: RowId,
        txn: TxnId,
        ts: Timestamp,
        before: Option<Vec<u8>>,
    ) {
        debug_assert!(ts.0 != 0, "committed stash needs a real timestamp");
        self.push(
            row,
            SideEntry {
                txn,
                ts: AcqRel::new(ts.0),
                before,
                tombstone: false,
            },
        );
    }

    fn push(&self, row: RowId, entry: SideEntry) {
        self.bytes.fetch_add(entry.bytes());
        self.entries.fetch_add(1);
        self.shard(row).write().entry(row).or_default().push(entry);
    }

    /// Stamp `txn`'s pending entries for `row` with its commit
    /// timestamp. Must run **before** the timestamp is published to the
    /// clock, so a reader whose snapshot admits the commit can never
    /// observe the entry still pending.
    pub(crate) fn stamp(&self, row: RowId, txn: TxnId, ts: Timestamp) {
        let shard = self.shard(row).read();
        for e in shard.get(&row).into_iter().flatten() {
            if e.pending_of(txn) {
                e.ts.store(ts.0);
            }
        }
    }

    /// The before-image of `txn`'s newest pending change to `row`: what
    /// abort has to put back (`Some(None)`: the row did not exist).
    /// `None` when `txn` has nothing pending there.
    pub(crate) fn newest_pending(&self, row: RowId, txn: TxnId) -> Option<Option<Vec<u8>>> {
        let shard = self.shard(row).read();
        let e = shard.get(&row)?.iter().rev().find(|e| e.pending_of(txn))?;
        Some(e.before.clone())
    }

    /// Drop `txn`'s newest pending entry for `row` (abort). Must run
    /// **after** the page holds that entry's before image again.
    pub(crate) fn drop_newest_pending(&self, row: RowId, txn: TxnId) {
        let mut shard = self.shard(row).write();
        let Some(list) = shard.get_mut(&row) else {
            return;
        };
        if let Some(i) = list.iter().rposition(|e| e.pending_of(txn)) {
            let e = list.remove(i);
            self.bytes.fetch_sub(e.bytes());
            self.entries.fetch_sub(1);
        }
        if list.is_empty() {
            shard.remove(&row);
        }
    }

    /// The value of `row` as of `snapshot`: the before image of the
    /// earliest change newer than the snapshot, or
    /// [`SideImage::UsePage`] when no stash overrides the page bytes.
    /// A reader that changed the row itself always gets the page bytes
    /// — its own write is the newest thing there (it holds the row's
    /// exclusive lock), whatever older history is stashed beside it.
    pub(crate) fn lookup(&self, row: RowId, snapshot: Timestamp, reader: TxnId) -> SideImage {
        let shard = self.shard(row).read();
        let Some(list) = shard.get(&row) else {
            return SideImage::UsePage;
        };
        let mut best: Option<(&SideEntry, u64)> = None;
        for e in list {
            if e.txn == reader {
                return SideImage::UsePage;
            }
            let eff = e.effective_ts();
            if eff <= snapshot.0 {
                continue;
            }
            // Strict `<` keeps the earliest-stashed entry on timestamp
            // ties (one transaction changing a row twice).
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

    /// Commit timestamp of the newest change recorded for `row`, a
    /// pending one counting as +∞. Movement uses this as a history
    /// gate: the page image may only be re-stamped at the snapshot
    /// horizon if the row's last change is at or below it — any change
    /// newer than the horizon left an entry here (page updates stash
    /// before-images, pack stashes absent markers), purge cannot remove
    /// entries above the horizon, and a pending entry means the page
    /// bytes are not committed at all.
    pub(crate) fn newest_change_ts(&self, row: RowId) -> Option<Timestamp> {
        let shard = self.shard(row).read();
        let newest = shard.get(&row)?.iter().map(SideEntry::effective_ts).max();
        newest.map(Timestamp)
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
            shard.retain(|&row, list| {
                list.retain(|e| {
                    let ts = e.ts.load();
                    let drop = ts != 0 && ts <= horizon.0;
                    if drop {
                        dropped += 1;
                        freed += e.bytes();
                        if e.tombstone {
                            if let Some(RowLocation::Tombstone(..)) = ridmap.get(row) {
                                #[expect(
                                    clippy::disallowed_methods,
                                    reason = "purge clears the tombstone of a delete whose \
                                              record fell below the snapshot horizon"
                                )]
                                ridmap.remove(row);
                            }
                        }
                    }
                    !drop
                });
                !list.is_empty()
            });
        }
        self.bytes.fetch_sub(freed);
        self.entries.fetch_sub(dropped as u64);
        (dropped, freed)
    }

    /// Rows with a delete's stash still present. Analytic scans
    /// enumerate these so a row deleted *after* the scan's snapshot
    /// (RID-Map now a tombstone, primary index entry already removed)
    /// is still visited and served from its stash.
    pub(crate) fn tombstoned_rows(&self) -> Vec<RowId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (&row, list) in shard.iter() {
                if list.iter().any(|e| e.tombstone) {
                    out.push(row);
                }
            }
        }
        out
    }

    /// Payload + overhead bytes currently stashed.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load()
    }

    /// Number of stashed entries.
    pub(crate) fn entries(&self) -> u64 {
        self.entries.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: RowId = RowId(1);

    #[test]
    fn pending_entry_overrides_every_snapshot() {
        let s = SideStore::new();
        s.stash(ROW, TxnId(9), Some(vec![1, 2]), false);
        match s.lookup(ROW, Timestamp(1_000_000), TxnId(2)) {
            SideImage::Image(img) => assert_eq!(img, vec![1, 2]),
            _ => panic!("pending stash must override"),
        }
        // ... but not for the writer itself.
        assert!(matches!(
            s.lookup(ROW, Timestamp(5), TxnId(9)),
            SideImage::UsePage
        ));
        // ... and it pins the row to its page.
        assert_eq!(s.newest_change_ts(ROW), Some(Timestamp(u64::MAX)));
        assert_eq!(s.newest_change_ts(RowId(2)), None);
    }

    #[test]
    fn earliest_newer_change_wins() {
        let s = SideStore::new();
        // Value A until ts 10, B until ts 20, page bytes after.
        s.stash_committed(ROW, TxnId(1), Timestamp(10), Some(vec![b'A']));
        s.stash_committed(ROW, TxnId(2), Timestamp(20), Some(vec![b'B']));
        let read = |snap: u64| s.lookup(ROW, Timestamp(snap), TxnId(99));
        assert!(matches!(read(5), SideImage::Image(ref v) if v == &vec![b'A']));
        assert!(matches!(read(10), SideImage::Image(ref v) if v == &vec![b'B']));
        assert!(matches!(read(15), SideImage::Image(ref v) if v == &vec![b'B']));
        assert!(matches!(read(20), SideImage::UsePage));
        assert_eq!(s.newest_change_ts(ROW), Some(Timestamp(20)));
    }

    #[test]
    fn purge_frees_and_clears_tombstones() {
        let s = SideStore::new();
        let ridmap = RidMap::new();
        ridmap.set(
            ROW,
            RowLocation::Tombstone(btrim_common::PageId(7), btrim_common::SlotId(3)),
        );
        s.stash(ROW, TxnId(1), Some(vec![0; 100]), true);
        s.stamp(ROW, TxnId(1), Timestamp(50));
        s.stash(RowId(2), TxnId(2), Some(vec![0; 10]), false);
        s.stamp(RowId(2), TxnId(2), Timestamp(500));
        assert_eq!(s.entries(), 2);
        assert_eq!(s.tombstoned_rows(), vec![ROW]);

        // Horizon below both: nothing purged.
        assert_eq!(s.purge(Timestamp(49), &ridmap).0, 0);
        // Horizon covers the first: entry dropped, tombstone cleared.
        let (n, bytes) = s.purge(Timestamp(50), &ridmap);
        assert_eq!(n, 1);
        assert!(bytes >= 100);
        assert!(ridmap.get(ROW).is_none());
        assert_eq!(s.entries(), 1);
        assert!(matches!(
            s.lookup(RowId(2), Timestamp(100), TxnId(9)),
            SideImage::Image(_)
        ));
    }

    #[test]
    fn abort_reads_back_and_drops_the_writers_pending_entries_newest_first() {
        let s = SideStore::new();
        s.stash_committed(ROW, TxnId(2), Timestamp(30), Some(vec![b'C']));
        s.stash(ROW, TxnId(1), Some(vec![b'P']), false);
        s.stash(ROW, TxnId(1), Some(vec![b'Q']), false);
        assert_eq!(
            s.newest_pending(ROW, TxnId(2)),
            None,
            "stamped, not pending"
        );
        for want in [b'Q', b'P'] {
            assert_eq!(s.newest_pending(ROW, TxnId(1)), Some(Some(vec![want])));
            s.drop_newest_pending(ROW, TxnId(1));
        }
        assert_eq!(s.newest_pending(ROW, TxnId(1)), None);
        assert_eq!(s.entries(), 1);
        assert!(matches!(
            s.lookup(ROW, Timestamp(10), TxnId(9)),
            SideImage::Image(ref v) if v == &vec![b'C']
        ));
        assert_eq!(s.purge(Timestamp(1_000), &RidMap::new()).0, 1);
        assert_eq!(s.entries(), 0);
        assert_eq!(s.bytes(), 0);
    }
}
