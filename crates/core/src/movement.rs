//! Row movement: the one path a row takes between tiers.
//!
//! The paper's life cycle is one verb — a row changes home under its
//! row lock, inside a small internally-committed transaction, while DML
//! keeps running (§II "no double buffering", §IV cache/migrate,
//! §VI–§VII.B pack). Cache, migrate, pack, freeze and thaw are all that
//! verb: [`relocate`] is the only function that takes a life-cycle
//! edge, and the only one that writes a mini-transaction's `Begin` and
//! `Commit`. *Which* rows move — TSF, budgets, candidate scans, what to
//! do with a row that would not move — stays with the callers
//! (`engine.rs`, `pack.rs`, `freeze.rs`).
//!
//! The ordering argument, once (DESIGN.md "Row movement" has the
//! per-direction table): the destination copy is staged unpublished;
//! every log record is appended before any published state changes, so
//! a failed append unstages and leaves the row where it was; the
//! RID-Map flips before the source copy is retired, so a lock-free
//! reader is at most one retry away from the row; the row locks are
//! held until the `Commit` is in the log, so no later transaction's
//! commit can precede it; a move's last record is on sysimrslogs and
//! every syslogs sync settles it first ([`MoveGate`]), so a durable
//! `Commit` has the whole move durable behind it; and recovery gates
//! every record on that `Commit` — a page → IMRS move's on its arrival
//! record, which may be durable long before — so a crash at any point
//! lands on exactly one home.

use std::sync::Arc;

use parking_lot::{lock_rank::MOVE_GATE, RwLock, RwLockReadGuard, RwLockWriteGuard};

use btrim_common::atomics::{Relaxed, SeqCst};
use btrim_common::{BtrimError, Lsn, Result, RowId, Timestamp, TxnId};
use btrim_imrs::{RowLocation, RowOrigin};
use btrim_pagestore::{FrozenExtent, HeapFile};
use btrim_txn::LockMode;
use btrim_wal::{ImrsLogRecord, LogWriter, PageLogRecord, RowOriginTag};

use crate::catalog::{Partition, TableDesc};
use crate::engine::{unwrap_row, wrap_row, Engine, Shared};
use crate::freeze::{build_columns, extent_row_bytes};
use crate::logged::Logged;

/// A closed [`MoveGate`]: it opens again on drop.
pub(crate) type Closed<'g> = RwLockWriteGuard<'g, ()>;

/// What every syslogs sync — commit, freeze batch, checkpoint — closes
/// against the other moves (cache, migrate, pack, thaw). Those never
/// flush, so a move's two halves sit volatile on two logs, and a
/// syslogs sync must not make its syslogs half — departure, arrival or
/// verdict — durable while its sysimrslogs record is not. A move
/// publishes the LSN of its last sysimrslogs record before it appends
/// its `Commit`, and leaves the gate after; a sync closes the gate
/// (exclusive: the moves already past it finish first), settles their
/// sysimrslogs records, and keeps the gate closed through its device
/// sync; no move gets past meanwhile — a cache or migrate skips (a move
/// is opportunistic), a pack or thaw waits.
///
/// A pack's `Commit` needs a bound of its own: its rows' IMRS room is
/// reused by later inserts, which commit on sysimrslogs alone, and
/// recovery replays those only beside the departures that made room
/// for them. So a durable commit that writes sysimrslogs alone syncs
/// syslogs too while a pack's `Commit` is not yet durable ([`commit`]).
///
/// [`commit`]: MoveGate::commit
pub(crate) struct MoveGate {
    /// sysimrslogs LSN of the newest record a move past the gate wrote.
    arrival: SeqCst<u64>,
    /// syslogs LSN of the newest pack's `Begin`, published before its
    /// rows leave the IMRS. A sync that makes it durable started after
    /// the pack left the gate, so it holds the pack's `Commit` too.
    packed: SeqCst<u64>,
    /// Shared by the moves past it, exclusive to a sync.
    gate: RwLock<()>,
    /// Caches and migrations that found the gate closed (lifetime).
    pub skipped: Relaxed<u64>,
}

impl MoveGate {
    pub fn new() -> Self {
        MoveGate {
            arrival: SeqCst::new(0),
            packed: SeqCst::new(0),
            gate: RwLock::with_rank(MOVE_GATE, ()),
            skipped: Relaxed::new(0),
        }
    }

    /// Let a move to `to` past the gate until the pass drops. `None`: a
    /// sync holds the gate and the move, a cache or migrate, skips; a
    /// move to a page (pack, thaw) waits for it.
    pub fn pass(&self, to: To) -> Option<RwLockReadGuard<'_, ()>> {
        let waits = matches!(to, To::Page);
        let pass = self.gate.try_read();
        let pass = pass.or_else(|| waits.then(|| self.gate.read()));
        self.skipped.fetch_add(u64::from(pass.is_none()));
        pass
    }

    /// Close the gate for a syslogs sync and make durable on
    /// sysimrslogs every record of the moves that got past it — the
    /// whole log when `all`. The gate opens again when the guard drops,
    /// after the sync.
    pub fn close(&self, imrslog: &LogWriter<ImrsLogRecord>, all: bool) -> Result<Closed<'_>> {
        let closed = self.gate.write();
        let everything = all.then(|| imrslog.sink().record_count());
        imrslog.flush_to(Lsn(everything.unwrap_or_else(|| self.arrival.load())))?;
        Ok(closed)
    }

    /// Both logs durable, through the gate: sysimrslogs as [`close`]
    /// leaves it, then syslogs.
    ///
    /// [`close`]: MoveGate::close
    pub fn sync(
        &self,
        imrslog: &LogWriter<ImrsLogRecord>,
        syslog: &LogWriter<PageLogRecord>,
        all: bool,
    ) -> Result<()> {
        let _closed = self.close(imrslog, all)?;
        syslog.flush()
    }

    /// A durable commit's barriers: one per log it appended to, through
    /// the gate when one is syslogs — and syslogs too for a commit that
    /// wrote sysimrslogs alone while a pack's `Commit` is volatile (the
    /// inserts it holds may sit in the room that pack made).
    pub fn commit(
        &self,
        imrslog: &LogWriter<ImrsLogRecord>,
        syslog: &LogWriter<PageLogRecord>,
        wrote_imrs: bool,
        wrote_sys: bool,
    ) -> Result<()> {
        let packing = wrote_imrs && self.packed.load() > syslog.durable_lsn().0;
        match (wrote_imrs, wrote_sys || packing) {
            (_, true) => self.sync(imrslog, syslog, wrote_imrs),
            (true, false) => imrslog.flush(),
            (false, false) => Ok(()),
        }
    }
}

/// Destination tier of a move; the source is what the RID-Map says.
#[derive(Clone, Copy)]
pub(crate) enum To {
    /// Page → IMRS: §IV caching or migration, per the origin.
    Imrs(RowOrigin),
    /// IMRS → page (pack), frozen extent → page (thaw).
    Page,
    /// Page → one new frozen extent holding the whole batch, built only
    /// when at least `min_rows` sources pass the gate.
    Extent { min_rows: usize },
}

/// What a [`relocate`] call did, for the caller's counters.
#[derive(Default)]
pub(crate) struct Moved {
    /// Rows that changed home.
    pub rows: u64,
    /// Bytes the source tier released (IMRS memory, or image bytes).
    pub bytes: u64,
    /// Rows skipped because their conditional lock was denied.
    pub contended: u64,
    /// Rows the horizon gate pinned to their page.
    pub gated: u64,
    /// The extent a freeze batch installed.
    pub extent: Option<Arc<FrozenExtent>>,
}

/// One row on its way out of `from`.
struct Source {
    row: RowId,
    from: RowLocation,
    /// The staged copy's address; `None` until staged.
    dest: Option<RowLocation>,
    /// The committed image being moved, in its page form: the `old` of
    /// a page source's `Delete`, the `data` of a page destination's
    /// `Insert`.
    payload: Vec<u8>,
    /// Bytes the source tier releases (IMRS memory, or image bytes).
    bytes: u64,
    /// IMRS source whose commit some live snapshot predates.
    marker: Option<Timestamp>,
}

impl Source {
    fn data(&self) -> &[u8] {
        &self.payload[8..] // past `wrap_row`'s RowId prefix
    }
}

pub(crate) fn origin_tag(origin: RowOrigin) -> RowOriginTag {
    match origin {
        RowOrigin::Inserted => RowOriginTag::Inserted,
        RowOrigin::Migrated => RowOriginTag::Migrated,
        RowOrigin::Cached => RowOriginTag::Cached,
    }
}

/// Append the syslogs row record `build` makes around `payload`, which
/// it lends to the record for the append and gets back unchanged.
fn append_sys_lending(
    sh: &Shared,
    payload: &mut Vec<u8>,
    build: impl FnOnce(Vec<u8>) -> PageLogRecord,
) -> Result<Logged> {
    let rec = build(std::mem::take(payload));
    let appended = sh.append_sys(&rec);
    if let PageLogRecord::Insert { data: lent, .. } | PageLogRecord::Delete { old: lent, .. } = rec
    {
        *payload = lent;
    }
    appended
}

/// Move `rows` (distinct) of one partition to `to` as one internally-
/// committed mini-transaction. Each row comes with the location the
/// caller saw; a row the RID-Map no longer places there, or that the
/// gate pins, stays put and is not counted. Page and IMRS destinations
/// take each row on its own; an extent destination takes the batch as
/// one unit.
///
/// The rows' exclusive locks cover the whole move. With `lock` they are
/// taken here, conditionally, under the mini-transaction's own id, and
/// a row anyone else holds is skipped (`Moved::contended`) — a busy row
/// is not cold, and an opportunistic move must never piggy-back on its
/// caller's lock. Without it the caller's transaction holds them.
///
/// `Err` from staging (`ImrsFull`, a heap I/O error) or from a log
/// append means nothing was logged that counts and nothing published:
/// the staged copies are gone and, after a failed append, the engine
/// is read-only.
pub(crate) fn relocate(
    engine: &Engine,
    table: &TableDesc,
    partition: &Partition,
    rows: &[(RowId, RowLocation)],
    to: To,
    lock: bool,
) -> Result<Moved> {
    let sh = &engine.sh;
    // Movement writes both logs; a read-only engine must not start any.
    sh.health.check_writable()?;
    // One identity for the move: lock owner and log transaction.
    let txn = sh.pack.internal_txn_id();
    let mut held = rows.to_vec();
    if lock {
        held.retain(|&(row, _)| sh.locks.try_lock(txn, row, LockMode::Exclusive));
    }
    let moved = relocate_locked(engine, txn, table, partition, &held, to);
    if lock {
        for &(row, _) in &held {
            sh.locks.unlock(txn, row);
        }
    }
    moved.map(|moved| Moved {
        contended: (rows.len() - held.len()) as u64,
        ..moved
    })
}

/// Drop a destination copy staged for a move whose records did not all
/// reach the log. (An extent that was never installed has nothing to
/// mark.)
#[expect(
    clippy::disallowed_methods,
    reason = "unstaging a copy the RID-Map never named"
)]
fn unstage(sh: &Shared, heap: &HeapFile, row: RowId, staged: RowLocation) {
    match staged {
        RowLocation::Imrs => {
            sh.store.remove_row(row, || sh.clock.now());
        }
        RowLocation::Page(page, slot) => {
            if let Err(e) = heap.delete(&sh.cache, page, slot) {
                sh.health.note_storage_error("movement", &e);
            }
        }
        RowLocation::Frozen(..) | RowLocation::Tombstone(..) => {}
    }
}

/// The four phases of [`relocate`] — revalidate and gate, stage, log,
/// publish then retire — between the envelope's `Begin` and `Commit`.
fn relocate_locked(
    engine: &Engine,
    txn: TxnId,
    table: &TableDesc,
    part: &Partition,
    rows: &[(RowId, RowLocation)],
    to: To,
) -> Result<Moved> {
    let sh = &engine.sh;
    let (heap, partition) = (&part.heap, part.id);
    let horizon = sh.txns.oldest_active_snapshot();
    let mut out = Moved::default();

    // ---- Revalidate + gate ------------------------------------------
    let mut sources: Vec<Source> = Vec::with_capacity(rows.len());
    for &(row, from) in rows {
        if sh.ridmap.get(row) != Some(from) {
            continue;
        }
        let mut marker = None;
        let (bytes, payload) = match (from, to) {
            (RowLocation::Page(page, slot), To::Imrs(_) | To::Extent { .. }) => {
                let Some(payload) = heap.get(&sh.cache, page, slot)? else {
                    continue;
                };
                if unwrap_row(&payload)?.0 != row {
                    continue;
                }
                // The horizon gate. In its new home the image is
                // stamped at (IMRS) or served regardless of (extent)
                // the horizon, which is only truthful if the row's last
                // change is committed and at or below it. A newer change
                // always left a side-store entry under the row (page
                // updates stash before-images wherever they put the
                // row, pack stashes absent markers, purge cannot touch
                // entries above the horizon; the mover's own pending
                // change counts as +∞), so such a row stays on its page
                // — the side store keeps serving its history — until
                // the horizon passes; the row lock keeps the check
                // stable.
                let newest = sh.side.newest_change_ts(row);
                if newest.is_some_and(|t| t > horizon) {
                    out.gated += 1;
                    continue;
                }
                (payload.len() as u64 - 8, payload)
            }
            (RowLocation::Imrs, To::Page) => {
                let Some(r) = sh.store.get(row) else {
                    continue;
                };
                // Only a settled row packs: uncommitted data means
                // active DML, live older versions may still be needed
                // by snapshot readers, and a tombstone is GC's to drop.
                let Some(v) = r.latest_committed() else {
                    continue;
                };
                let Some(h) = v.handle.filter(|_| r.version_count() == 1) else {
                    continue;
                };
                // A single version newer than some live snapshot can
                // only be a fresh insert: those snapshots must keep
                // reading the row as absent (see publish).
                marker = v.commit_ts.filter(|&t| t > horizon);
                let payload = sh
                    .store
                    .allocator()
                    .with_bytes(h, |data| wrap_row(row, data));
                (r.memory() as u64, payload)
            }
            (RowLocation::Frozen(ext_id, idx), To::Page) => {
                let Some(ext) = engine.frozen_slot(ext_id, idx, row) else {
                    continue;
                };
                let Some(data) = extent_row_bytes(table.layout.as_ref(), &ext, idx as usize) else {
                    return Err(BtrimError::Corrupt(format!(
                        "frozen row {row} unreadable from extent {ext_id} slot {idx}"
                    )));
                };
                (data.len() as u64, wrap_row(row, &data))
            }
            _ => continue,
        };
        sources.push(Source {
            row,
            from,
            dest: None,
            payload,
            bytes,
            marker,
        });
    }
    if sources.is_empty() || matches!(to, To::Extent { min_rows } if sources.len() < min_rows) {
        return Ok(out);
    }

    // A freeze batch holds the move gate closed from here to its flush:
    // its extent copies committed images that must not reach the media
    // ahead of the rest of their commit, so both logs are settled before
    // its first append. And a checkpoint, which closes the gate too,
    // never images the extents with a batch half done. Every other move
    // passed the gate shared (its caller holds the pass).
    let freeze = matches!(to, To::Extent { .. });
    let closed = freeze.then(|| sh.moves.close(&sh.imrslog, true));
    let closed = closed.transpose()?;
    if freeze {
        sh.syslog.flush()?;
    }
    let mut extent = None;
    let logged: Result<Logged> = (|| {
        // ---- Stage: an unpublished destination copy ------------------
        // The RID-Map still says `from` and the row is locked, so nobody
        // can observe the copy. Staging comes before the log because it
        // can fail while the engine stays writable (`ImrsFull` sends
        // the caller down the page path): a loser `Delete` left behind
        // then could be undone at recovery after a later winner
        // legitimately deleted the slot, resurrecting the row.
        match to {
            To::Imrs(origin) => {
                for s in sources.iter_mut() {
                    let (row, data) = (s.row, s.data());
                    sh.store
                        .insert_row_committed(row, partition, origin, txn, data, horizon)?;
                    s.dest = Some(RowLocation::Imrs);
                }
            }
            To::Page => {
                for s in sources.iter_mut() {
                    let (page, slot) = heap.insert(&sh.cache, &s.payload)?;
                    s.dest = Some(RowLocation::Page(page, slot));
                }
            }
            To::Extent { .. } => {
                let images: Vec<Vec<u8>> = sources.iter().map(|s| s.data().to_vec()).collect();
                let raw_len = sources.iter().map(|s| s.bytes).sum();
                let columns = build_columns(table.layout.as_ref(), &images);
                let row_ids = sources.iter().map(|s| s.row).collect();
                let id = sh.extents.allocate_id();
                let ext = FrozenExtent::build(id, table.id, partition, row_ids, columns, raw_len)?;
                for (i, s) in sources.iter_mut().enumerate() {
                    s.dest = Some(RowLocation::Frozen(id, i as u16));
                }
                extent = Some(ext);
            }
        }
        // ---- Log: every record before any published mutation ---------
        // Leaving a page = syslogs `Delete{old}`, arriving on one =
        // syslogs `Insert`; the other tier's half goes to sysimrslogs.
        // The reverse order once lost an acknowledged row: the slot
        // deletion reached the device via eviction while its `Delete`
        // record died in a torn log tail, leaving no redo anywhere.
        let mut logged = sh.append_sys(&PageLogRecord::Begin { txn })?;
        if sources.iter().any(|s| s.from == RowLocation::Imrs) {
            // A pack: published before its rows leave the IMRS.
            sh.moves.packed.fetch_max(logged.lsn().0);
        }
        for s in sources.iter_mut() {
            let row = s.row;
            if let RowLocation::Page(page, slot) = s.from {
                logged = append_sys_lending(sh, &mut s.payload, |old| PageLogRecord::Delete {
                    txn,
                    partition,
                    row,
                    page,
                    slot,
                    old,
                })?;
            }
            if let Some(RowLocation::Page(page, slot)) = s.dest {
                logged = append_sys_lending(sh, &mut s.payload, |data| PageLogRecord::Insert {
                    txn,
                    partition,
                    row,
                    page,
                    slot,
                    data,
                })?;
            }
            let ts = sh.clock.now();
            logged = match (s.from, to) {
                (_, To::Imrs(origin)) => sh.append_imrs_with(|out| {
                    let origin = origin_tag(origin);
                    ImrsLogRecord::encode_insert(
                        out,
                        txn,
                        horizon,
                        partition,
                        row,
                        origin,
                        s.data(),
                    )
                })?,
                (RowLocation::Imrs, To::Page) => sh.append_imrs(&ImrsLogRecord::Pack {
                    txn,
                    ts,
                    partition,
                    row,
                })?,
                (RowLocation::Frozen(extent, idx), To::Page) => {
                    sh.append_imrs(&ImrsLogRecord::ExtentRowGone {
                        txn,
                        ts,
                        partition,
                        row,
                        extent,
                        idx,
                    })?
                }
                // Page → extent: the batch's one `Freeze` record below.
                _ => continue,
            };
        }
        if let Some(ext) = &extent {
            logged = sh.append_imrs(&ImrsLogRecord::Freeze {
                txn,
                ts: sh.clock.now(),
                partition,
                extent: ext.id(),
                data: ext.encode(),
            })?;
        }
        Ok(logged)
    })();
    // Unstage on failure. After a failed append the engine is read-only
    // and recovery undoes the logged loser idempotently (`insert_at`
    // no-ops on a live slot), but a page copy left behind could reach the
    // device and be adopted by the next heap rebuild.
    let logged = logged.inspect_err(|_| {
        for s in &sources {
            if let Some(staged) = s.dest {
                unstage(sh, heap, s.row, staged);
            }
        }
    })?;
    // Retire the source copy of `row` at `loc` once its new home is
    // published.
    let drop_copy = |row: RowId, loc: RowLocation| match loc {
        RowLocation::Imrs => logged.remove_row(&sh.store, row, || sh.clock.now()),
        RowLocation::Page(page, slot) => {
            if let Err(e) = logged.heap_delete(heap, &sh.cache, page, slot) {
                sh.health.note_storage_error("movement", &e);
            }
        }
        RowLocation::Frozen(ext_id, idx) => {
            if let Some(ext) = sh.extents.get(ext_id) {
                logged.mark_gone(&ext, idx as usize);
            }
        }
        RowLocation::Tombstone(..) => {}
    };

    // ---- Publish, then retire ----------------------------------------
    // The extent goes in before any RID-Map entry names it, so a reader
    // that catches a Frozen location always resolves it.
    if let Some(ext) = extent {
        let ext = Arc::new(ext);
        sh.extents.install(Arc::clone(&ext))?;
        out.extent = Some(ext);
    }
    for s in &sources {
        let Some(dest) = s.dest else { continue };
        // New home first: a reader that caught the stale location finds
        // a dead slot (or a drained chain), retries the RID-Map once,
        // and lands here. Retiring first would leave a window where the
        // row is unreachable. The hash index spans IMRS rows only.
        match (s.from, dest) {
            (_, RowLocation::Imrs) => {
                table.hash.insert(&(table.primary_key)(s.data()), s.row);
                sh.gc.register(s.row);
                part.metrics.rows_in.inc();
            }
            (RowLocation::Imrs, RowLocation::Page(..)) => {
                // The absent marker must be in the side store before
                // the RID-Map publishes the page location.
                if let Some(ts) = s.marker {
                    sh.side.stash_committed(s.row, txn, ts, None);
                }
                table.hash.remove(&(table.primary_key)(s.data()));
            }
            _ => {}
        }
        logged.ridmap_set(&sh.ridmap, s.row, dest);
        // No double buffering (§II): the source copy goes. A failure is
        // noted, never unwound — the move is already in both logs, the
        // stale copy holds the same committed bytes, and redo removes
        // it after a crash.
        drop_copy(s.row, s.from);
        out.rows += 1;
        out.bytes += s.bytes;
    }

    // ---- Commit -------------------------------------------------------
    // A page → IMRS move is committed by its arrival record: recovery
    // replays a sysimrslogs `Insert{Migrated|Cached}` whatever syslogs
    // says of its transaction and finishes the departure itself. Every
    // other direction needs this `Commit` on the media, or the
    // mini-transaction is a loser and is rolled back — consistent, just
    // wasted work: a `Pack` or `ExtentRowGone` counts only beside its
    // `Commit`. (After a failed append the engine is read-only.)
    //
    // Who flushes. A move past the gate (cache, migrate, pack, thaw)
    // never does: a flush per move would sink durable-commit
    // throughput. Its last record is on sysimrslogs and becomes durable
    // with the next barrier there; its LSN is published before the
    // `Commit` and before the move leaves the gate, so any later syslogs
    // sync settles it first — syslogs never gets ahead.
    if !freeze {
        sh.moves.arrival.fetch_max(logged.lsn().0);
    }
    let ts = sh.clock.tick();
    // A move's sysimrslogs records are no user batch: recovery weighs
    // them by the movement rules ("Row movement" in DESIGN.md).
    sh.append_sys(&PageLogRecord::Commit {
        txn,
        ts,
        imrs_batch: false,
    })?;
    let Some(_closed) = closed else {
        return Ok(out);
    };
    // A freeze batch flushes once, arrival log first: its arrival copy,
    // the sysimrslogs `Freeze`, must be durable before the verdict and
    // the page deletes on syslogs, or a crash between the two flushes
    // redoes the deletes with nothing to hold the rows.
    let flushed = sh.imrslog.flush().and_then(|()| sh.syslog.flush());
    sh.health.note("movement flush", &flushed);
    Ok(out)
}

impl Engine {
    /// Pre-warm a table: move every page-store row into the IMRS (the
    /// "pre-warmed IMRS caches" feature the paper's conclusion proposes,
    /// §X). Typically paired with [`crate::TableOpts::pinned`]. Returns the
    /// number of rows brought in; rows that are locked or no longer on a
    /// page are skipped.
    pub fn prewarm(&self, table: &TableDesc) -> Result<usize> {
        let mut warmed = 0;
        for partition in &table.partitions {
            // Collect the rows first: moving them mutates the heap we
            // would otherwise be scanning.
            let mut rows: Vec<(RowId, RowLocation)> = Vec::new();
            partition.heap.scan(&self.sh.cache, |page, slot, payload| {
                if let Ok((row_id, _)) = unwrap_row(payload) {
                    rows.push((row_id, RowLocation::Page(page, slot)));
                }
                true
            })?;
            for at in rows {
                let to = To::Imrs(RowOrigin::Cached);
                if let Ok(true) = self.move_row(table, partition, at, to, true) {
                    warmed += 1;
                }
            }
        }
        Ok(warmed)
    }
}
