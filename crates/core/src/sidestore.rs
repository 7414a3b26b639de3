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
//! page holds that image again.
//!
//! The store is retired in commit order, not by maintenance. Stamping
//! queues the commit's rows under its timestamp (pack queues its absent
//! markers under theirs), before any log append, so a commit whose
//! append fails is retired all the same. An entry goes once its own
//! timestamp is at or below `oldest_active_snapshot` — no live snapshot
//! can need it: each commit retires about as much of the queue's front
//! as it queued, and GC's pass whatever is due anywhere in the queue. The
//! footprint is the before-image volume of the active-snapshot window,
//! whatever the maintenance cadence. Retiring the entry of a row's
//! delete clears the row's RID-Map tombstone.
//!
//! A row with one change holds a list of capacity one, and
//! [`ENTRY_BYTES`] is what an entry costs: its slot in that list, its
//! row's map slot and its queue slot.
//!
//! Shard locks carry rank `SIDE_STORE` (45): above the RID-Map and the
//! buffer frames (readers pin the page first, then consult the store),
//! below the WAL. The retirement queue is an unranked leaf: no shard
//! lock is held while it is, nor it while one is.

use std::collections::{HashMap, VecDeque};
use std::mem::size_of;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{RowId, Timestamp, TxnId};
use btrim_imrs::{RidMap, RowLocation};
use parking_lot::{lock_rank, Mutex, RwLock};

use crate::txn_ctx::Write;

/// Shard count; RowIds are allocated sequentially, so consecutive rows
/// spread evenly.
const SHARDS: usize = 16;

/// What the store holds for one entry besides its image: its slot in
/// the row's list, the row's map slot (shared when a row has several
/// entries) and its retirement-queue slot.
pub const ENTRY_BYTES: u64 = (size_of::<SideEntry>()
    + size_of::<(RowId, Vec<SideEntry>)>()
    + size_of::<(u64, RowId)>()) as u64;

/// One stashed change to a page row.
struct SideEntry {
    /// Writing transaction.
    txn: TxnId,
    /// Commit timestamp; 0 = writer still uncommitted (reads as +∞).
    ts: AcqRel<u64>,
    /// Row image before the change; `None` = row absent at that time.
    before: Option<Vec<u8>>,
    /// True when the change was a row delete (the row's RID-Map entry
    /// is a tombstone that must be cleared when this entry is retired).
    tombstone: bool,
}

impl SideEntry {
    fn bytes(&self) -> u64 {
        ENTRY_BYTES + self.before.as_ref().map_or(0, |b| b.len() as u64)
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
    /// Stamped entries awaiting the horizon, `(commit ts, row)`, in the
    /// order they were stamped: the retirement queue.
    queue: Mutex<VecDeque<(u64, RowId)>>,
    bytes: Relaxed<u64>,
    entries: Relaxed<u64>,
}

impl SideStore {
    pub(crate) fn new() -> Self {
        SideStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::with_rank(lock_rank::SIDE_STORE, HashMap::new()))
                .collect(),
            queue: Mutex::new(VecDeque::new()),
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
    /// packed version's commit timestamp is known and final) and queue
    /// it for retirement.
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
        self.queue.lock().push_back((ts.0, row));
    }

    fn push(&self, row: RowId, entry: SideEntry) {
        self.bytes.fetch_add(entry.bytes());
        self.entries.fetch_add(1);
        let mut shard = self.shard(row).write();
        let list = shard.entry(row).or_insert_with(|| Vec::with_capacity(1));
        list.push(entry);
    }

    /// Stamp `txn`'s pending entries for the page rows it wrote with
    /// its commit timestamp and queue the rows for retirement; returns
    /// how many were queued. Must run **before** the timestamp is
    /// published to the clock, so a reader whose snapshot admits the
    /// commit can never observe an entry still pending — and before any
    /// log append, since nothing but the queue retires a stamped entry.
    pub(crate) fn stamp(&self, writes: &[Write], txn: TxnId, ts: Timestamp) -> usize {
        let rows = writes.iter().filter_map(|w| match *w {
            Write::Page { row, .. } => Some(row),
            _ => None,
        });
        for row in rows.clone() {
            let shard = self.shard(row).read();
            for e in shard.get(&row).into_iter().flatten() {
                if e.pending_of(txn) {
                    e.ts.store(ts.0);
                }
            }
        }
        let queued = rows.clone().count();
        if queued > 0 {
            self.queue.lock().extend(rows.map(|row| (ts.0, row)));
        }
        queued
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
    /// before-images, pack stashes absent markers), retirement cannot
    /// remove entries above the horizon, and a pending entry means the page
    /// bytes are not committed at all.
    pub(crate) fn newest_change_ts(&self, row: RowId) -> Option<Timestamp> {
        let shard = self.shard(row).read();
        let newest = shard.get(&row)?.iter().map(SideEntry::effective_ts).max();
        newest.map(Timestamp)
    }

    /// Retire the queued entries whose commit timestamp is at or below
    /// `horizon` — no active snapshot can need those images. With a
    /// `budget` (a commit), only from the queue's front: that many slots
    /// and the rest of the commit the last one belongs to, stopping at
    /// the first slot above the horizon (the front may be out of
    /// timestamp order: commits queue after they reserve, pack's markers
    /// carry older commits). Without one (GC's pass), every due slot.
    pub(crate) fn retire(&self, horizon: Timestamp, budget: Option<usize>, ridmap: &RidMap) {
        let due: VecDeque<(u64, RowId)> = {
            let mut queue = self.queue.lock();
            match budget {
                None => {
                    let (due, kept) = queue.drain(..).partition(|&(ts, _)| ts <= horizon.0);
                    *queue = kept;
                    due
                }
                Some(budget) => {
                    let due = |n: usize, ts| {
                        ts <= horizon.0 && (n < budget.max(1) || queue[n - 1].0 == ts)
                    };
                    let n = (0..queue.len()).take_while(|&n| due(n, queue[n].0)).count();
                    queue.drain(..n).collect()
                }
            }
        };
        self.retire_rows(due, horizon, ridmap);
    }

    /// Drop the rows' stamped entries at or below `horizon` (a row
    /// queued twice finds nothing the second time), clearing a row's
    /// RID-Map tombstone with the entry of its delete.
    fn retire_rows(&self, due: VecDeque<(u64, RowId)>, horizon: Timestamp, ridmap: &RidMap) {
        for (_, row) in due {
            let mut shard = self.shard(row).write();
            let Some(list) = shard.get_mut(&row) else {
                continue;
            };
            let len = list.len();
            list.retain(|e| {
                let ts = e.ts.load();
                if ts == 0 || ts > horizon.0 {
                    return true;
                }
                self.bytes.fetch_sub(e.bytes());
                if e.tombstone && matches!(ridmap.get(row), Some(RowLocation::Tombstone(..))) {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "retirement clears the tombstone of a delete whose \
                                  record fell below the snapshot horizon"
                    )]
                    ridmap.remove(row);
                }
                false
            });
            self.entries.fetch_sub((len - list.len()) as u64);
            if list.is_empty() {
                shard.remove(&row);
            }
        }
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

    /// Entries stamped with a commit timestamp, pending ones excluded
    /// (a walk of every shard: tests and probes only).
    pub(crate) fn stamped(&self) -> u64 {
        let stamped = |shard: &RwLock<Shard>| {
            let shard = shard.read();
            shard
                .values()
                .flatten()
                .filter(|e| e.ts.load() != 0)
                .count() as u64
        };
        self.shards.iter().map(stamped).sum()
    }

    /// Images plus [`ENTRY_BYTES`] an entry, currently stashed.
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

    /// A committed change: stashed, then stamped and queued at `ts`.
    fn commit(s: &SideStore, row: RowId, ts: u64, before: Option<Vec<u8>>, tombstone: bool) {
        s.stash(row, TxnId(ts), before, tombstone);
        let partition = btrim_common::PartitionId(0);
        let writes = [Write::Page { row, partition }];
        assert_eq!(s.stamp(&writes, TxnId(ts), Timestamp(ts)), 1);
    }

    #[test]
    fn batches_retire_in_timestamp_order_up_to_the_horizon() {
        let (s, ridmap) = (SideStore::new(), RidMap::new());
        for (ts, rows) in [(10, 1..4), (20, 4..7), (30, 7..10)] {
            for row in rows {
                commit(&s, RowId(row), ts, None, false);
            }
        }
        assert_eq!((s.entries(), s.bytes()), (9, 9 * ENTRY_BYTES));
        // A budget of one slot still takes the rest of its commit, and
        // stops at the horizon whatever the budget.
        s.retire(Timestamp(25), Some(1), &ridmap);
        assert_eq!(s.entries(), 6);
        s.retire(Timestamp(25), Some(100), &ridmap);
        assert_eq!(s.entries(), 3);
        assert_eq!(s.newest_change_ts(RowId(7)), Some(Timestamp(30)));
        s.retire(Timestamp(30), None, &ridmap);
        assert_eq!((s.entries(), s.bytes()), (0, 0));
        assert_eq!(s.stamped(), 0);
    }

    #[test]
    fn a_held_horizon_keeps_entries() {
        let (s, ridmap) = (SideStore::new(), RidMap::new());
        commit(&s, ROW, 10, Some(vec![b'A']), false);
        commit(&s, ROW, 20, Some(vec![b'B']), false);
        for _ in 0..3 {
            s.retire(Timestamp(9), Some(10), &ridmap);
            s.retire(Timestamp(9), None, &ridmap);
        }
        assert_eq!(s.entries(), 2);
        assert_eq!(s.bytes(), 2 * ENTRY_BYTES + 2);
        let read = |snap| s.lookup(ROW, Timestamp(snap), TxnId(99));
        assert!(matches!(read(9), SideImage::Image(ref v) if v == &vec![b'A']));
        // Past the first commit only: its entry goes, the second stays.
        s.retire(Timestamp(15), None, &ridmap);
        assert_eq!(s.entries(), 1);
        assert!(matches!(read(15), SideImage::Image(ref v) if v == &vec![b'B']));
    }

    #[test]
    fn an_out_of_order_queue_front_does_not_retire_early() {
        let (s, ridmap) = (SideStore::new(), RidMap::new());
        // The commit at 12 queued before the one at 11, and a pack
        // marker of a commit at 5 queued last.
        commit(&s, RowId(1), 12, None, false);
        commit(&s, RowId(2), 11, None, false);
        s.stash_committed(RowId(3), TxnId(5), Timestamp(5), None);
        // A commit retires nothing past a front above the horizon...
        s.retire(Timestamp(11), Some(10), &ridmap);
        assert_eq!(s.entries(), 3);
        assert_eq!(s.newest_change_ts(RowId(1)), Some(Timestamp(12)));
        // ... GC's pass takes what is due behind it, and only that.
        s.retire(Timestamp(11), None, &ridmap);
        assert_eq!(s.entries(), 1);
        assert_eq!(s.newest_change_ts(RowId(1)), Some(Timestamp(12)));
        s.retire(Timestamp(12), Some(1), &ridmap);
        assert_eq!(s.entries(), 0);
    }

    #[test]
    fn a_deletes_tombstone_clears_once() {
        let (s, ridmap) = (SideStore::new(), RidMap::new());
        let (page, slot) = (btrim_common::PageId(7), btrim_common::SlotId(3));
        ridmap.set(ROW, RowLocation::Tombstone(page, slot));
        commit(&s, ROW, 50, Some(vec![0; 100]), true);
        // The row is queued twice (a second queue slot for it).
        s.stash_committed(ROW, TxnId(1), Timestamp(40), None);
        assert_eq!(s.tombstoned_rows(), vec![ROW]);
        assert_eq!(s.bytes(), 2 * ENTRY_BYTES + 100);
        s.retire(Timestamp(49), None, &ridmap);
        assert_eq!(s.entries(), 1);
        assert!(ridmap.get(ROW).is_some(), "the delete is above the horizon");
        s.retire(Timestamp(50), Some(1), &ridmap);
        assert!(ridmap.get(ROW).is_none());
        assert_eq!((s.entries(), s.bytes()), (0, 0));
        // A row id taken again after the clear keeps its location: the
        // queue holds nothing more for the row.
        ridmap.set(ROW, RowLocation::Tombstone(page, slot));
        s.retire(Timestamp(100), None, &ridmap);
        assert!(ridmap.get(ROW).is_some());
    }

    #[test]
    fn a_failed_commits_entries_are_retired_by_gc() {
        let (s, ridmap) = (SideStore::new(), RidMap::new());
        // Stamped and queued; the commit failed before it retired
        // anything, and no later commit comes.
        commit(&s, ROW, 10, Some(vec![1, 2, 3]), false);
        s.stash(RowId(2), TxnId(11), None, false);
        assert_eq!(s.stamped(), 1);
        s.retire(Timestamp(10), None, &ridmap);
        assert_eq!(s.stamped(), 0);
        // An open writer's pending entry is not the queue's.
        assert_eq!(s.entries(), 1);
        assert_eq!(s.bytes(), ENTRY_BYTES);
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
        s.retire(Timestamp(1_000), None, &RidMap::new());
        assert_eq!(s.entries(), 0);
        assert_eq!(s.bytes(), 0);
    }
}
