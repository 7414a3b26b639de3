//! Crash recovery (§II), hardened against torn and corrupt media.
//!
//! The two logs are recovered independently, in lock-step order:
//!
//! 1. **syslogs** (page store): the decodable prefix is salvaged (a
//!    torn tail is truncated at the first bad frame and reported),
//!    analysis classifies transactions, then a forward redo pass from
//!    the certified checkpoint's syslogs floor repeats history for
//!    committed work and a backward undo pass rolls back in-flight
//!    losers using the logged before-images. Redo is idempotent:
//!    slot-directed inserts skip already-live slots, deletes skip dead
//!    slots.
//! 2. Heap pages are scanned to rebuild heap page lists, the RID-Map,
//!    and all B+tree indexes (indexes are rebuilt rather than replayed,
//!    extending the paper's treatment of the non-logged hash indexes).
//!    Pages whose on-device image fails its checksum — a torn write —
//!    are reformatted as free and counted, never served.
//! 3. **sysimrslogs** (IMRS): the newest certified checkpoint image
//!    goes in, then a single forward redo-only replay of what the image
//!    does not hold — records were written at commit time with their
//!    commit timestamps, so no undo pass exists. As in the paper,
//!    "checkpoint does not flush any data [for the IMRS]" to pages: the
//!    IMRS is recovered from sysimrslogs alone, whose prefix below the
//!    image a checkpoint truncates.
//! 4. One row, one home: a heap copy the RID-Map no longer names is
//!    retired, and a checkpoint certifies it (see "Winner gating").
//!
//! (The salvaged sysimrslogs is *read* before step 1 — the checkpoint
//! it certifies carries the syslogs floor, and its batches and arrival
//! records are verdicts step 1 needs — and replayed in step 3.)
//!
//! **Winner gating.** sysimrslogs is the commit log of everything that
//! lives in the IMRS: a user batch or a move's arrival record on the
//! media is the verdict; syslogs `Begin`/`Commit` gate only
//! transactions that wrote page records.
//!
//! * An IMRS-only user transaction never writes syslogs. Its records
//!   reach sysimrslogs at commit as one checksum-covered batch frame — all
//!   of them or none — and under durable commits that log's barrier is
//!   the only one it waits for. No syslogs evidence means committed
//!   (the reading checkpoint truncation already forced: it drops old
//!   `Begin`/`Commit` pairs, so absence never meant "in flight").
//! * A transaction that changed a page announced itself (`Begin` before
//!   its first page record), and its syslogs `Commit` decides it. Seen
//!   to begin but not to commit, or seen to abort, it loses on both
//!   logs: page records undone, IMRS records skipped. A mixed one (page
//!   and IMRS records) appends its batch and then its `Commit`, and
//!   each says the other exists: its batch's records carry
//!   [`MIXED_TXN_BIT`](btrim_wal::MIXED_TXN_BIT), its `Commit`
//!   `imrs_batch`. Another
//!   transaction's barrier may make one durable without the other, so
//!   it is kept only whole: a mixed batch without a syslogs `Commit`
//!   is skipped (its `Begin` may be lost too), and a `Commit` whose
//!   batch is neither in the salvaged log nor held by the image loses
//!   ([`LogAnalysis::lose_unbacked_commits`]).
//! * A page → IMRS move (cache, migrate) is committed by its **arrival
//!   record**, the sysimrslogs `Insert{origin: Migrated | Cached}`.
//!   Foreground moves never flush, so when a dependent IMRS-only commit
//!   is acknowledged the arrival is durable (it precedes the batch in
//!   the same log) while the move's syslogs half — `Begin`,
//!   `Delete{old}`, `Commit` — may be missing or cut short. Two rules
//!   make the arrival sufficient: its owner is a winner whatever
//!   syslogs says ([`moves_committed_by_arrival`]: a `Delete{old}` on
//!   the media is redone, not undone), and a heap copy the RID-Map no
//!   longer names once both logs have replayed is retired
//!   (`retire_unnamed_page_copies`: the `Delete{old}` never made it).
//!   But the arrival carries the image its page copy had, and with no
//!   syslogs record of the move left that copy may be of a pack or a
//!   commit the logs lost: such an arrival counts only over the image
//!   recovery already holds for the row (`Engine::holds`).
//! * A move to a page (pack: IMRS → page; thaw: extent → page) departs
//!   on sysimrslogs (`Pack`, `ExtentRowGone`) and arrives on syslogs
//!   (`Insert`) beside its `Commit`, and flushes neither. The departure
//!   counts only when that `Commit` was salvaged
//!   ([`LogAnalysis::loses`]): an IMRS-only commit's barrier can make
//!   it durable alone, and the row then stays where it was. A later
//!   cache or migrate of the row may have kept its arrival, which then
//!   replaces the resident row. A row a lost pack left behind also
//!   holds IMRS room that records after it may have used, so the
//!   replay may grow the IMRS past its budget (`MoveGate::commit`
//!   bounds by how much: no acknowledged commit needs that room).
//!
//! The converse of both move rules — a syslogs half durable, the
//! sysimrslogs half not — is what the move gate prevents: every move
//! publishes its last sysimrslogs LSN before its `Commit`, and every
//! syslogs sync settles sysimrslogs up to it first (`MoveGate::close`).
//!
//! **The image.** A checkpoint writes one record pair, on sysimrslogs,
//! and it certifies both logs ([`newest_image`] finds it). Its
//! `CheckpointBegin` carries its snapshot `S`, both logs' floors and
//! the id allocators; the image that follows holds every row visible at
//! `S` and every live frozen extent, and counts only once its
//! `CheckpointEnd` is on the media — by then every page change below
//! the syslogs floor is on the device, so redo starts there. The image
//! holds every sysimrslogs record below its floor and every user commit
//! at or below `S` (the checkpoint waited for those to append, and made
//! their syslogs halves durable first); everything else above the
//! floor — user commits after `S`, and every internal record, all
//! written after the sweep — replays on top of it.
//!
//! A loser's or an aborted transaction's verdict lives in syslogs, and
//! a checkpoint truncates that evidence only once its certified image —
//! taken after the records it would judge — holds them below its floor.
//! A recovery that undid losers runs such a checkpoint before the
//! engine opens, and bumps the transaction-id allocators past every id
//! seen in either log and in the image, so a verdict can never leak
//! onto a fresh transaction.
//!
//! The engine's catalog is re-declared by the caller (schema closure);
//! index pages from the previous incarnation become dead space on the
//! device, which is the usual cost of rebuild-style index recovery.
#![expect(
    clippy::disallowed_methods,
    reason = "recovery applies records read back from the log: the record is already there"
)]

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use btrim_common::{BtrimError, Lsn, PageId, PartitionId, Result, RowId, SlotId, Timestamp, TxnId};
use btrim_imrs::{RowLocation, RowOrigin};
use btrim_pagestore::page::PageType;
use btrim_pagestore::{DiskBackend, PageGuard, SlottedPage};
use btrim_wal::{
    analyze_page_log, newest_image, ImageMark, ImrsLogRecord, LogAnalysis, LogSink, PageLogRecord,
    RowOriginTag,
};

use btrim_obs::OpClass;

use crate::catalog::TableDesc;
use crate::config::EngineConfig;
use crate::engine::{unwrap_row, Engine, View};

/// What recovery salvaged and what it had to drop. All counters are
/// zero after a clean start or an undamaged recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Page-store log records replayed (decodable prefix).
    pub syslog_salvaged: u64,
    /// Page-store log records dropped at the first corrupt frame.
    pub syslog_dropped: u64,
    /// IMRS log records replayed (decodable prefix).
    pub imrslog_salvaged: u64,
    /// IMRS log records dropped at the first corrupt frame.
    pub imrslog_dropped: u64,
    /// Heap pages whose checksum failed during the rebuild scan; the
    /// page was reset (its rows are reported lost, not silently served).
    pub pages_reset: u64,
    /// IMRS log records skipped because their transaction lost.
    pub imrs_records_skipped: u64,
    /// Redo workers that replayed the page log (1 = serial).
    pub replay_workers: u64,
    /// Page-log change records actually redone (forward pass).
    pub syslog_redo_replayed: u64,
    /// Page-log change records skipped by the checkpoint redo floor —
    /// after a fuzzy checkpoint only the post-low-water suffix replays.
    pub syslog_redo_skipped: u64,
    /// IMRS log records re-applied to the in-memory row store.
    pub imrs_records_replayed: u64,
    /// Heap copies the RID-Map no longer named once both logs had
    /// replayed — the departure half of a move the crash cut off —
    /// retired so that every row has one home.
    pub page_copies_retired: u64,
    /// Wall-clock microseconds in the salvage + analysis pass.
    pub analysis_micros: u64,
    /// Wall-clock microseconds in the forward page redo (all workers).
    pub page_redo_micros: u64,
    /// Wall-clock microseconds in the heap-scan rebuild.
    pub heap_rebuild_micros: u64,
    /// Wall-clock microseconds replaying the IMRS log.
    pub imrs_replay_micros: u64,
}

/// Internal pack/caching pseudo-transaction ids set this bit.
const INTERNAL_TXN_BIT: u64 = 1 << 63;

/// Where a change record (`Insert`, `Update`, `Delete`) changes a
/// slot: `(partition, page, slot, image after, image before)`.
type SlotChange<'r> = (
    PartitionId,
    PageId,
    SlotId,
    Option<&'r [u8]>,
    Option<&'r [u8]>,
);

fn slot_change(rec: &PageLogRecord) -> Option<SlotChange<'_>> {
    Some(match rec {
        PageLogRecord::Insert {
            partition,
            page,
            slot,
            data,
            ..
        } => (*partition, *page, *slot, Some(data), None),
        PageLogRecord::Update {
            partition,
            page,
            slot,
            old,
            new,
            ..
        } => (*partition, *page, *slot, Some(new), Some(old)),
        PageLogRecord::Delete {
            partition,
            page,
            slot,
            old,
            ..
        } => (*partition, *page, *slot, None, Some(old)),
        _ => return None,
    })
}

/// The page → IMRS moves (cache, migrate) the salvaged sysimrslogs
/// commits: internal transactions that own an arrival `Insert`. The
/// move's syslogs half — `Begin`,
/// `Delete{old}`, `Commit` — is never flushed by the move and, since an
/// IMRS-only commit puts its barrier on sysimrslogs alone, may be
/// missing or cut short when a transaction that depends on the move is
/// already acknowledged.
fn moves_committed_by_arrival(imrs_log: &[(Lsn, ImrsLogRecord)]) -> HashSet<TxnId> {
    let arrivals = imrs_log.iter().filter_map(|(_lsn, rec)| match rec {
        ImrsLogRecord::Insert { txn, origin, .. }
            if *origin != RowOriginTag::Inserted && txn.0 & INTERNAL_TXN_BIT != 0 =>
        {
            Some(*txn)
        }
        _ => None,
    });
    arrivals.collect()
}

fn row_origin(tag: RowOriginTag) -> RowOrigin {
    match tag {
        RowOriginTag::Inserted => RowOrigin::Inserted,
        RowOriginTag::Migrated => RowOrigin::Migrated,
        RowOriginTag::Cached => RowOrigin::Cached,
    }
}

impl Engine {
    /// What the last recovery salvaged/dropped (all-zero on a clean
    /// start or an undamaged recovery).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.sh.recovery.lock().clone()
    }

    /// Recover an engine from its devices. `schema` re-declares the
    /// catalog exactly as the original run did (same tables in the same
    /// order, so partition ids line up). Salvage statistics are left in
    /// the engine's [`RecoveryReport`].
    pub fn recover(
        cfg: EngineConfig,
        disk: Arc<dyn DiskBackend>,
        syslog: Arc<dyn LogSink>,
        imrslog: Arc<dyn LogSink>,
        schema: impl FnOnce(&Engine) -> Result<()>,
    ) -> Result<Engine> {
        let engine = Engine::with_devices(cfg, disk, syslog, imrslog);
        schema(&engine)?;
        // sysimrslogs is read first: it holds the certified checkpoint,
        // and its records overrule the syslogs verdicts of the moves
        // that own arrivals and of the commits whose batch is gone.
        let imrs_log = engine.sh.imrslog.read_all_salvage()?;
        let image = newest_image(&imrs_log.0);
        let analysis = engine.replay_page_log(&imrs_log.0, image.as_ref())?;
        let heap_locs = engine.rebuild_from_heaps()?;
        engine.replay_imrs_log(&analysis, image.as_ref(), &heap_locs, imrs_log)?;
        engine.retire_unnamed_page_copies(&heap_locs, !analysis.losers.is_empty())?;
        engine.finish_recovery();
        Ok(engine)
    }

    /// Feed a transaction id seen in a log into the id-floor bookkeeping
    /// so no future transaction (client or internal pack) reuses it.
    fn note_txn_floor(&self, id: TxnId) {
        if id.0 & INTERNAL_TXN_BIT != 0 {
            self.sh.pack.bump_internal_floor(id.0 & !INTERNAL_TXN_BIT);
        } else {
            self.sh.txns.bump_txn_floor(id);
        }
    }

    /// Fan record shards across scoped worker threads: each shard
    /// replays in order on exactly one worker (shard assignment is what
    /// guarantees per-object order), empty shards spawn nothing, and
    /// the first worker error fails the whole pass. Each worker's
    /// wall-clock lands in the `RecoveryReplay` histogram.
    fn run_replay_workers<R: Sync>(
        &self,
        shards: Vec<Vec<&R>>,
        apply: impl Fn(&R) -> Result<()> + Sync,
    ) -> Result<()> {
        std::thread::scope(|scope| {
            let apply = &apply;
            let handles: Vec<_> = shards
                .into_iter()
                .filter(|s| !s.is_empty())
                .map(|shard| {
                    scope.spawn(move || -> Result<()> {
                        let t = self.sh.obs.start();
                        for rec in shard {
                            apply(rec)?;
                        }
                        self.sh.obs.record_since(OpClass::RecoveryReplay, t);
                        Ok(())
                    })
                })
                .collect();
            let mut first_err = Ok(());
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "a panicking worker means a half-replayed store; \
                              recovery must stop loudly rather than open for business"
                )]
                let res = h.join().expect("replay worker panicked");
                if res.is_err() && first_err.is_ok() {
                    first_err = res;
                }
            }
            first_err
        })
    }

    /// Fetch a page for redo, tolerating a corrupt on-device image: a
    /// checksum mismatch falls back to an unverified fetch and reports
    /// `corrupt = true` so the caller reformats before applying. The
    /// reset is counted in the recovery report.
    fn fetch_for_redo(&self, page: PageId) -> Result<(PageGuard<'_>, bool)> {
        match self.sh.cache.fetch(page) {
            Ok(g) => Ok((g, false)),
            Err(BtrimError::ChecksumMismatch(_)) => {
                let g = self.sh.cache.fetch_unchecked(page)?;
                self.sh.recovery.lock().pages_reset += 1;
                Ok((g, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Replay workers for the partitioned redo passes: the configured
    /// count, or (at 0 = auto) the machine's parallelism capped at 8.
    fn recovery_worker_count(&self) -> usize {
        match self.sh.cfg.recovery_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            n => n.max(1),
        }
    }

    /// Redo winners forward from the certified `image`'s syslogs floor,
    /// undo losers backward. The salvaged sysimrslogs `imrs_log` settles
    /// two kinds of verdict: a move that owns an arrival there wins (see
    /// [`moves_committed_by_arrival`]), and a commit whose batch is
    /// neither there nor in the image loses.
    fn replay_page_log(
        &self,
        imrs_log: &[(Lsn, ImrsLogRecord)],
        image: Option<&ImageMark>,
    ) -> Result<LogAnalysis> {
        let analysis_start = std::time::Instant::now();
        let (records, dropped) = self.sh.syslog.read_all_salvage()?;
        for (_lsn, rec) in &records {
            self.note_txn_floor(rec.txn());
        }
        let mut analysis = analyze_page_log(&records);
        for txn in moves_committed_by_arrival(imrs_log) {
            // The arrival record is the verdict: the `Delete{old}` is
            // redone, not undone, and the arrival replayed, not skipped.
            if analysis.losers.remove(&txn) {
                analysis.winners.insert(txn, Timestamp::ZERO);
            }
        }
        analysis.lose_unbacked_commits(imrs_log, image);
        let workers = self.recovery_worker_count();
        {
            let mut rep = self.sh.recovery.lock();
            rep.syslog_salvaged = records.len() as u64;
            rep.syslog_dropped = dropped;
            rep.replay_workers = workers as u64;
            rep.analysis_micros = analysis_start.elapsed().as_micros() as u64;
        }
        // Redo may start at the certified syslogs floor: every page
        // change below it is durable — the checkpoint flushed its
        // dirty-page table before its End (anything below the floor was
        // already applied to a page by then, see `Engine::checkpoint`).
        // Replaying earlier records would be harmless (redo is
        // idempotent) but wasteful.
        let redo_floor = image.map_or(Lsn::ZERO, |m| m.header.sys_floor);
        // Forward redo of committed transactions (repeat history),
        // sharded by PageId: every record of a given page lands on the
        // same worker in log order, so per-page replay order — the only
        // order redo depends on — is preserved while distinct pages
        // replay concurrently.
        let redo_start = std::time::Instant::now();
        // An abort's undo is in no log, and a checkpoint may have written
        // the aborted change before the abort undid it in memory: undo it
        // again where its `Abort` stands, so later winners find the page
        // as they did. (`true`: undo.)
        let mut shards: Vec<Vec<(bool, &PageLogRecord)>> =
            (0..workers).map(|_| Vec::new()).collect();
        let mut aborted: HashMap<TxnId, Vec<(PageId, &PageLogRecord)>> = HashMap::new();
        let (mut redo_replayed, mut redo_skipped) = (0u64, 0u64);
        for (lsn, rec) in &records {
            let txn = rec.txn();
            let undo = analysis.aborted.contains(&txn);
            if let PageLogRecord::Abort { .. } = rec {
                let changes = aborted.remove(&txn).unwrap_or_default();
                for (page, rec) in changes.into_iter().rev().filter(|_| *lsn >= redo_floor) {
                    shards[(page.0 as usize) % workers].push((true, rec));
                }
                continue;
            }
            let Some((_, page, ..)) = slot_change(rec) else {
                continue;
            };
            if undo {
                aborted.entry(txn).or_default().push((page, rec));
            } else if !analysis.winners.contains_key(&txn) {
                continue;
            } else if *lsn < redo_floor {
                redo_skipped += 1;
            } else {
                redo_replayed += 1;
                shards[(page.0 as usize) % workers].push((false, rec));
            }
        }
        let replay = |&(undo, rec): &(bool, &PageLogRecord)| match (undo, slot_change(rec)) {
            (true, _) => self.undo_change(rec),
            (false, Some((partition, page, slot, after, before))) => {
                self.put_slot(partition, page, slot, after, before.is_some())
            }
            (false, None) => Ok(()),
        };
        let shards = shards.iter().map(|s| s.iter().collect()).collect();
        self.run_replay_workers(shards, replay)?;
        {
            let mut rep = self.sh.recovery.lock();
            rep.syslog_redo_replayed = redo_replayed;
            rep.syslog_redo_skipped = redo_skipped;
            rep.page_redo_micros = redo_start.elapsed().as_micros() as u64;
        }
        // Backward undo of losers using before-images.
        for (_lsn, rec) in records.iter().rev() {
            if analysis.losers.contains(&rec.txn()) {
                self.undo_change(rec)?;
            }
        }
        self.sh.clock.advance_to(analysis.max_commit_ts);
        Ok(analysis)
    }

    /// Undo one change record where its slot still holds what the
    /// change left — so an undo repeats harmlessly, and never touches a
    /// slot a later change has since given to another image.
    fn undo_change(&self, rec: &PageLogRecord) -> Result<()> {
        let Some((partition, page, slot, after, before)) = slot_change(rec) else {
            return Ok(());
        };
        let (guard, corrupt) = self.fetch_for_redo(page)?;
        if !corrupt && !guard.with_page_read(|p| p.get(slot) == after) {
            return Ok(());
        }
        drop(guard);
        self.put_slot(partition, page, slot, before, true)
    }

    /// Make a recovering page's slot hold `image` (over a live one only
    /// with `replace`: an insert is idempotent), or empty it. A never
    /// flushed page is still zeroed on the device, and a torn one is
    /// garbage: either is formatted first.
    fn put_slot(
        &self,
        partition: PartitionId,
        page: PageId,
        slot: SlotId,
        image: Option<&[u8]>,
        replace: bool,
    ) -> Result<()> {
        let (guard, corrupt) = self.fetch_for_redo(page)?;
        guard.with_write(|buf| {
            if corrupt || PageType::from_u8(buf[0]) == PageType::Free {
                SlottedPage::init(buf, PageType::Heap, page, partition);
            }
            let mut p = SlottedPage::new(buf);
            match image {
                Some(image) if !(replace && p.update(slot, image)) => {
                    let _ = p.insert_at(slot, image);
                }
                Some(_) => {}
                None => {
                    let _ = p.delete(slot);
                }
            }
        });
        Ok(())
    }

    /// Scan all heap pages: re-attach them to their tables' heaps,
    /// rebuild the RID-Map and indexes, and remember each row's page
    /// location (needed by Pack-record replay). Pages whose device
    /// image fails its checksum and that no redo record repaired are
    /// reformatted as free — their contents are unrecoverable, and a
    /// torn page must never be served as data.
    fn rebuild_from_heaps(&self) -> Result<HashMap<RowId, (PageId, SlotId)>> {
        let rebuild_start = std::time::Instant::now();
        let num_pages = self.sh.cache.backend().num_pages();
        let mut by_partition: HashMap<PartitionId, Vec<PageId>> = HashMap::new();
        for raw in 0..num_pages {
            let pid = PageId(raw);
            let guard = match self.sh.cache.fetch(pid) {
                Ok(g) => g,
                Err(BtrimError::ChecksumMismatch(_)) => {
                    let g = self.sh.cache.fetch_unchecked(pid)?;
                    g.with_write(|buf| {
                        SlottedPage::init(buf, PageType::Free, pid, PartitionId(0));
                    });
                    self.sh.recovery.lock().pages_reset += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let (ptype, partition) = guard.with_page_read(|v| (v.page_type(), v.partition()));
            if ptype == PageType::Heap {
                by_partition.entry(partition).or_default().push(pid);
            }
        }
        let mut heap_locs = HashMap::new();
        let mut max_row_id = RowId(0);
        for (partition, pages) in by_partition {
            let Some(part) = self.sh.catalog.partition(partition) else {
                continue; // heap of a table the schema no longer declares
            };
            let Some(table) = self.sh.catalog.table(part.table) else {
                continue;
            };
            part.heap.adopt_pages(pages, &self.sh.cache)?;
            let mut rows = Vec::new();
            part.heap.scan(&self.sh.cache, |page, slot, payload| {
                if let Ok((row_id, data)) = unwrap_row(payload) {
                    heap_locs.insert(row_id, (page, slot));
                    max_row_id = max_row_id.max(row_id);
                    self.sh.ridmap.set(row_id, RowLocation::Page(page, slot));
                    rows.push((row_id, data.to_vec()));
                }
                true
            })?;
            // Indexed once the scan has dropped the heap page's latch: a
            // B+tree fetch may have to evict, and frame under frame
            // breaks the lock hierarchy.
            for (row_id, data) in &rows {
                self.index_row(&table, *row_id, data, false);
            }
        }
        self.sh.ridmap.bump_row_id_floor(max_row_id);
        self.sh.recovery.lock().heap_rebuild_micros = rebuild_start.elapsed().as_micros() as u64;
        Ok(heap_locs)
    }

    /// (Re-)insert a row into all of its table's indexes. Replay order
    /// is oldest-first, so on a key conflict the *later* record wins:
    /// the stale RowId's entry is replaced (the stale row's own
    /// Delete/Pack record has already retired or will retire its other
    /// state). Except, for a replayed record (`replayed`), a row the
    /// RID-Map places on a page: the rebuilt heap is the final page
    /// state, so that row is live once replay ends, and the record
    /// naming another row under its key is older — that row left, by a
    /// record still to come (a thaw, say, before a delete and a
    /// re-insert of the key on a page), whose unindexing would
    /// otherwise take the key's only entry with it.
    fn index_row(&self, table: &TableDesc, row_id: RowId, data: &[u8], replayed: bool) {
        let key = (table.primary_key)(data);
        let on_page = |row| matches!(self.sh.ridmap.get(row), Some(RowLocation::Page(..)));
        match table.primary.get(&key) {
            Ok(Some(existing)) if existing == row_id => {}
            Ok(Some(live)) if replayed && on_page(live) => {}
            Ok(Some(stale)) => {
                let _ = table.primary.delete(&key, Some(stale));
                let _ = table.primary.insert(&key, row_id);
            }
            _ => {
                let _ = table.primary.insert(&key, row_id);
            }
        }
        for sec in table.secondaries.read().iter() {
            let skey = (sec.extractor)(data);
            // Non-unique insert of an existing (key, rid) pair is a
            // no-op by construction.
            let _ = sec.tree.insert(&skey, row_id);
        }
    }

    /// Forward redo-only replay of the IMRS log, gated by the syslogs
    /// verdicts: the records of transactions that lost are skipped
    /// ([`LogAnalysis::loses`]). With a certified checkpoint `image` in the log, the
    /// image goes in first and only the records it does not hold replay
    /// on top of it.
    fn replay_imrs_log(
        &self,
        analysis: &LogAnalysis,
        image: Option<&ImageMark>,
        heap_locs: &HashMap<RowId, (PageId, SlotId)>,
        (records, dropped): (Vec<(Lsn, ImrsLogRecord)>, u64),
    ) -> Result<()> {
        let replay_start = std::time::Instant::now();
        {
            let mut rep = self.sh.recovery.lock();
            rep.imrslog_salvaged = records.len() as u64;
            rep.imrslog_dropped = dropped;
        }
        let mut skipped = 0u64;
        let mut max_ts = Timestamp::ZERO;
        let mut max_row_id = RowId(0);
        // The image's id allocators: the records that would have taught
        // recovery them may be truncated.
        if let Some(h) = image.map(|m| m.header) {
            max_ts = h.snapshot;
            max_row_id = RowId(h.next_row.0.saturating_sub(1));
            self.note_txn_floor(TxnId(h.next_txn.0.saturating_sub(1)));
            self.sh
                .pack
                .bump_internal_floor(h.next_internal.saturating_sub(1));
            if let Some(last) = h.next_extent.checked_sub(1) {
                self.sh.extents.bump_floor(last);
            }
        }
        // Surviving records are grouped by partition. A partition is the
        // replay-order unit: partition ids are a pure function of the
        // primary key, so all records that could ever touch the same row,
        // hash entry, or unique-index key share a partition — replaying
        // whole partitions on separate workers keeps every order that
        // matters while the partitions proceed concurrently. The image
        // leads every partition: records replayed on top of it may sit
        // between its own in the log.
        let mut by_partition: HashMap<PartitionId, Vec<&ImrsLogRecord>> = HashMap::new();
        for (lsn, rec) in &records {
            let partition = match rec {
                ImrsLogRecord::ImageRow { partition, .. }
                | ImrsLogRecord::ImageExtent { partition, .. } => partition,
                _ => continue,
            };
            if image.is_some_and(|m| m.begin < *lsn && *lsn < m.end) {
                by_partition.entry(*partition).or_default().push(rec);
            }
        }
        for (lsn, rec) in &records {
            // Markers and image records carry no transaction.
            let Some(txn_id) = rec.txn() else { continue };
            self.note_txn_floor(txn_id);
            max_ts = max_ts.max(rec.ts());
            max_row_id = max_row_id.max(rec.row());
            // The image holds everything below its floor, and every user
            // commit at or below its snapshot. An internal record above
            // the floor was written after the sweep — the move gate was
            // closed through it — and its timestamp is no commit's.
            let internal = txn_id.0 & INTERNAL_TXN_BIT != 0;
            let held = |m: &ImageMark| {
                *lsn < m.header.imrs_floor || !internal && rec.ts() <= m.header.snapshot
            };
            if image.is_some_and(held) {
                continue;
            }
            if analysis.loses(rec) {
                skipped += 1;
                continue;
            }
            let partition = match rec {
                ImrsLogRecord::Insert { partition, .. }
                | ImrsLogRecord::Update { partition, .. }
                | ImrsLogRecord::Delete { partition, .. }
                | ImrsLogRecord::Pack { partition, .. }
                | ImrsLogRecord::Freeze { partition, .. }
                | ImrsLogRecord::ExtentRowGone { partition, .. } => *partition,
                _ => continue,
            };
            by_partition.entry(partition).or_default().push(rec);
        }
        let replayed: u64 = by_partition.values().map(|v| v.len() as u64).sum();
        let workers = self.recovery_worker_count();
        // Deterministic round-robin of partitions over workers.
        let mut parts: Vec<_> = by_partition.into_iter().collect();
        parts.sort_by_key(|(p, _)| p.0);
        let mut shards: Vec<Vec<&ImrsLogRecord>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, (_p, recs)) in parts.into_iter().enumerate() {
            shards[i % workers].extend(recs);
        }
        // The logs can hold more than the budget did at any one time: an
        // unacknowledged commit's records, durable beside a pack that
        // lost its `Commit` (DESIGN.md "Row movement"). Pack drains the
        // excess once the engine is open.
        self.sh.store.allocator().overdraw(true);
        let applied = self.run_replay_workers(shards, |rec| {
            self.apply_imrs_record(rec, analysis, heap_locs)
        });
        self.sh.store.allocator().overdraw(false);
        applied?;
        // An extent every row of which left by the end of replay (an
        // image's extent a later dissolve or the last thaw emptied)
        // leaves the directory, as it did at run time.
        self.sh.extents.remove_empty();
        {
            let mut rep = self.sh.recovery.lock();
            rep.imrs_records_skipped = skipped;
            rep.imrs_records_replayed = replayed;
            rep.imrs_replay_micros = replay_start.elapsed().as_micros() as u64;
        }
        self.sh.clock.advance_to(max_ts);
        self.sh.ridmap.bump_row_id_floor(max_row_id);
        Ok(())
    }

    /// Re-apply one surviving (winner) IMRS log record to the row
    /// store, indexes, and RID-Map. Called from one replay worker per
    /// partition; everything it touches is either row/key-scoped (and
    /// thus partition-local) or internally synchronized.
    fn apply_imrs_record(
        &self,
        rec: &ImrsLogRecord,
        analysis: &LogAnalysis,
        heap_locs: &HashMap<RowId, (PageId, SlotId)>,
    ) -> Result<()> {
        let txn = rec.txn().unwrap_or(TxnId(0));
        match rec {
            ImrsLogRecord::Insert {
                ts,
                partition,
                row,
                origin,
                data,
                ..
            } => {
                // A cache's or migration's arrival carries the image its
                // page copy had. With no syslogs record of its move left,
                // that copy may be of a pack or a commit the logs lost:
                // the arrival counts only over the image recovery holds.
                let unsettled =
                    *origin != RowOriginTag::Inserted && !analysis.winners.contains_key(&txn);
                if !unsettled || self.holds(*partition, *row, data)? {
                    let origin = row_origin(*origin);
                    self.replay_imrs_arrival(txn, *ts, *partition, *row, origin, data)?;
                }
            }
            ImrsLogRecord::ImageRow {
                ts,
                partition,
                row,
                origin,
                data,
            } => {
                let origin = row_origin(*origin);
                self.replay_imrs_arrival(TxnId(0), *ts, *partition, *row, origin, data)?;
            }
            ImrsLogRecord::Update {
                ts,
                partition,
                row,
                data,
                ..
            } => match self.sh.store.get(*row) {
                Some(imrs_row) => {
                    let old = imrs_row.latest_committed().and_then(|v| v.handle);
                    let old = old.map(|h| self.sh.store.allocator().load(h));
                    let op = btrim_imrs::VersionOp::Update;
                    let v = self.sh.store.add_version(&imrs_row, txn, op, Some(data))?;
                    v.stamp(*ts);
                    if let Some(table) = self.sh.catalog.table_of_partition(*partition) {
                        // The entries of the image this one replaces go.
                        if let Some(old) = old {
                            Self::unindex_row(&table, *row, &old);
                        }
                        self.index_row(&table, *row, data, true);
                    }
                }
                // Defensive: an update without a resident row (should
                // not happen in an intact log).
                None => {
                    let origin = RowOrigin::Inserted;
                    self.replay_imrs_arrival(txn, *ts, *partition, *row, origin, data)?;
                }
            },
            ImrsLogRecord::Delete { partition, row, .. } => {
                let table = self.sh.catalog.table_of_partition(*partition);
                let image = self.drop_imrs_row(table.as_deref(), *row);
                if let (Some(table), Some(image)) = (&table, image) {
                    Self::unindex_row(table, *row, &image);
                }
                self.sh.ridmap.remove(*row);
            }
            ImrsLogRecord::Pack { partition, row, .. } => {
                let table = self.sh.catalog.table_of_partition(*partition);
                let image = self.drop_imrs_row(table.as_deref(), *row);
                self.replay_page_arrival(&table, *row, RowLocation::Imrs, || image, heap_locs)?;
            }
            ImrsLogRecord::Freeze {
                partition,
                extent,
                data,
                ..
            } => self.replay_extent(*partition, *extent, data, &[], heap_locs)?,
            ImrsLogRecord::ImageExtent {
                partition,
                extent,
                dead,
                data,
            } => self.replay_extent(*partition, *extent, data, dead, heap_locs)?,
            ImrsLogRecord::ExtentRowGone {
                partition,
                row,
                extent,
                idx,
                ..
            } => {
                let table = self.sh.catalog.table_of_partition(*partition);
                let i = *idx as usize;
                let ext = self.sh.extents.get(*extent);
                let ext = ext.filter(|ext| ext.row_id(i) == Some(*row));
                if ext.as_ref().is_some_and(|ext| ext.mark_gone(i)) {
                    let part = table.as_ref().and_then(|t| t.partition(*partition));
                    part.inspect(|p| p.metrics.rows_thawed.inc());
                }
                let image = || {
                    let layout = table.as_ref()?.layout.as_ref();
                    crate::freeze::extent_row_bytes(layout, ext.as_ref()?, i)
                };
                let old = RowLocation::Frozen(*extent, *idx);
                self.replay_page_arrival(&table, *row, old, image, heap_locs)?;
            }
            #[expect(
                clippy::unreachable,
                reason = "markers never reach the per-partition shards (the \
                          classification pass drops them); reaching this arm is a \
                          recovery-logic bug worth a loud stop"
            )]
            ImrsLogRecord::CheckpointBegin(_) | ImrsLogRecord::CheckpointEnd { .. } => {
                unreachable!("filtered by the caller")
            }
        }
        Ok(())
    }

    /// Install a replayed extent (a winner's `Freeze`, or one of the
    /// image). Its `dead` slots stay dead; so does the slot of a row a
    /// heap holds — a thaw that won re-inserted it: page state, already
    /// rebuilt and indexed, is then authoritative. Every other row is
    /// named frozen and indexed.
    fn replay_extent(
        &self,
        partition: PartitionId,
        extent: u32,
        data: &[u8],
        dead: &[u16],
        heap_locs: &HashMap<RowId, (PageId, SlotId)>,
    ) -> Result<()> {
        let Some(table) = self.sh.catalog.table_of_partition(partition) else {
            return Ok(());
        };
        let ext = btrim_pagestore::FrozenExtent::decode(data)?;
        if ext.id() != extent {
            return Err(BtrimError::Corrupt(format!(
                "extent record id {} does not match payload id {}",
                extent,
                ext.id()
            )));
        }
        let ext = Arc::new(ext);
        self.sh.extents.bump_floor(extent);
        let Some(part) = table.partition(partition) else {
            return Ok(());
        };
        let mut left = 0;
        for &i in dead {
            left += u64::from(ext.mark_gone(i as usize));
        }
        for i in 0..ext.row_count() {
            let Some(row) = ext.row_id(i) else { continue };
            // No later insert may take a frozen row's id.
            self.sh.ridmap.bump_row_id_floor(row);
            if !ext.is_live(i) {
                continue;
            }
            if heap_locs.contains_key(&row) {
                left += u64::from(ext.mark_gone(i));
                continue;
            }
            let Some(bytes) = crate::freeze::extent_row_bytes(table.layout.as_ref(), &ext, i)
            else {
                return Err(BtrimError::Corrupt(format!(
                    "extent {} slot {} unreadable during replay",
                    extent, i
                )));
            };
            self.sh
                .ridmap
                .set(row, RowLocation::Frozen(extent, i as u16));
            self.index_row(&table, row, &bytes, true);
        }
        // The partition's freeze counts (frozen = live + thawed): every
        // slot was frozen once, and the dead ones left (a thaw's own
        // record, later in the log, then finds its slot dead).
        part.metrics.rows_frozen.add(ext.live_count() + left);
        part.metrics.rows_thawed.add(left);
        self.sh.extents.install(ext)
    }

    /// A winner's image arriving in the IMRS (a client insert, or the
    /// arrival half of a cache/migrate move): resident row, RID-Map,
    /// hash fast path, B+tree entries. It replaces a row already
    /// resident: a pack that lost its `Commit` left the row in the IMRS,
    /// and a later cache or migrate of it kept its arrival.
    fn replay_imrs_arrival(
        &self,
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        origin: RowOrigin,
        data: &[u8],
    ) -> Result<()> {
        let Some(table) = self.sh.catalog.table_of_partition(partition) else {
            return Ok(());
        };
        if let Some(old) = self.drop_imrs_row(Some(&table), row) {
            Self::unindex_row(&table, row, &old);
        }
        self.sh
            .store
            .insert_row_committed(row, partition, origin, txn, data, ts)?;
        self.sh.ridmap.set(row, RowLocation::Imrs);
        table.hash.insert(&(table.primary_key)(data), row);
        self.index_row(&table, row, data, true);
        Ok(())
    }

    /// Whether recovery holds `data` as `row`'s latest image, in
    /// whichever tier the row is.
    fn holds(&self, partition: PartitionId, row: RowId, data: &[u8]) -> Result<bool> {
        let Some(table) = self.sh.catalog.table_of_partition(partition) else {
            return Ok(false);
        };
        let (latest, view) = (Timestamp(u64::MAX), View::Snapshot);
        let seen = self.resolve_with(&table, row, latest, TxnId(0), view, |img| *img == *data)?;
        Ok(matches!(seen, Some((Some(true), _))))
    }

    /// The page-arrival half of a winner's `Pack` / `ExtentRowGone`:
    /// the row left `old` for a heap slot. If the heap still holds it —
    /// syslogs redo re-inserted the copy and the heap rebuild indexed
    /// it — adopt that address. The heap's image is the row's final
    /// one, so a secondary entry only `image` has goes: a page update
    /// after the move (a thawed row is updated on its page) changed
    /// that key. Otherwise the row was subsequently
    /// deleted from the page store (or moved on; a later record then
    /// recreates everything): the index entries built from `image` and
    /// the RID-Map entry must go, or they would shadow a later
    /// re-insert of the same key under a new RowId.
    fn replay_page_arrival(
        &self,
        table: &Option<Arc<TableDesc>>,
        row: RowId,
        old: RowLocation,
        image: impl FnOnce() -> Option<Vec<u8>>,
        heap_locs: &HashMap<RowId, (PageId, SlotId)>,
    ) -> Result<()> {
        if let Some(&(page, slot)) = heap_locs.get(&row) {
            self.sh.ridmap.set(row, RowLocation::Page(page, slot));
            let Some(table) = table.as_ref().filter(|t| !t.secondaries.read().is_empty()) else {
                return Ok(());
            };
            let Some(image) = image() else {
                return Ok(());
            };
            let guard = self.sh.cache.fetch(page)?;
            let payload = guard.with_page_read(|p| p.get(slot).map(<[u8]>::to_vec));
            drop(guard);
            let now = payload.as_deref().map(unwrap_row).transpose()?;
            for sec in table.secondaries.read().iter() {
                let key = (sec.extractor)(&image);
                if now.is_none_or(|(_, data)| (sec.extractor)(data) != key) {
                    let _ = sec.tree.delete(&key, Some(row));
                }
            }
            return Ok(());
        }
        if let (Some(table), Some(image)) = (table, image()) {
            Self::unindex_row(table, row, &image);
        }
        if self.sh.ridmap.get(row) == Some(old) {
            self.sh.ridmap.remove(row);
        }
        Ok(())
    }

    /// Drop a row's B+tree entries (the inverse of [`Self::index_row`]).
    fn unindex_row(table: &TableDesc, row: RowId, data: &[u8]) {
        let _ = table.primary.delete(&(table.primary_key)(data), Some(row));
        for sec in table.secondaries.read().iter() {
            let _ = sec.tree.delete(&(sec.extractor)(data), Some(row));
        }
    }

    /// Remove a row from the IMRS during replay, hash fast path included
    /// (it spans IMRS rows only). Returns the row's last committed
    /// image: a *delete*, or an arrival that replaces the row, retires
    /// the B+tree entries built from it too, while a *pack* keeps them —
    /// the row still exists, on a page. No reader exists during replay,
    /// so the row's memory is released at once: the inserts the log
    /// holds after a delete or a pack may need its room.
    fn drop_imrs_row(&self, table: Option<&TableDesc>, row: RowId) -> Option<Vec<u8>> {
        let imrs_row = self.sh.store.get(row)?;
        let handle = imrs_row.latest_committed().and_then(|v| v.handle);
        let image = handle.map(|h| self.sh.store.allocator().load(h));
        if let (Some(table), Some(image)) = (table, &image) {
            table.hash.remove(&(table.primary_key)(image));
        }
        self.sh.store.remove_row(row, || self.sh.clock.now());
        self.sh.store.reclaim(Timestamp(u64::MAX));
        image
    }

    /// One row, one home. With both logs replayed the RID-Map is the
    /// authority on where each row lives, so a heap copy it does not
    /// name is a departure the crash cut off: the syslogs `Delete{old}`
    /// of a move whose arrival record committed it (or the redone
    /// `Insert` of a pack whose syslogs records spilled to the media
    /// ahead of its `Pack`). Retire the copy — and, because the
    /// retirement is in no log, certify it with a checkpoint: the pages
    /// are written back and the syslogs records that put the copies
    /// there are truncated, so no later redo can re-create one in a slot
    /// that has since been given to another row. A loser's undo (`undone`) is in no log either: the
    /// same checkpoint keeps a later recovery from undoing it again,
    /// over a slot or a row a later winner has since written, and puts
    /// the loser's IMRS records below a certified image's floor.
    fn retire_unnamed_page_copies(
        &self,
        heap_locs: &HashMap<RowId, (PageId, SlotId)>,
        undone: bool,
    ) -> Result<()> {
        let mut retired = 0;
        for (&row, &(page, slot)) in heap_locs {
            if self.sh.ridmap.get(row) == Some(RowLocation::Page(page, slot)) {
                continue;
            }
            let partition = self.sh.cache.fetch(page)?.with_page_read(|v| v.partition());
            let Some(part) = self.sh.catalog.partition(partition) else {
                continue;
            };
            part.heap.delete(&self.sh.cache, page, slot)?;
            retired += 1;
        }
        self.sh.recovery.lock().page_copies_retired = retired;
        if retired > 0 || undone {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Final recovery steps: rebuild the ILM queues.
    fn finish_recovery(&self) {
        // Re-register every resident row so GC rebuilds the ILM queues.
        let mut rows = Vec::new();
        self.sh.store.for_each_row(|r| rows.push(r.row_id));
        self.sh.gc.register_many(rows);
        let oldest = self.sh.txns.oldest_active_snapshot();
        self.sh.gc.tick(
            &self.sh.store,
            |p| self.sh.catalog.partition(p),
            &self.sh.ridmap,
            oldest,
            || self.sh.clock.now(),
            usize::MAX,
        );
    }
}
