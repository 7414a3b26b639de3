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
use btrim_wal::{ImrsLogRecord, LogWriter, PageLogRecord, RecordBuf, RowOriginTag};

use crate::catalog::{Partition, TableDesc};
use crate::engine::{unwrap_row, Engine, Shared};
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
    /// syslogs LSN of the newest pack's row batch (its `Begin` and
    /// `Insert` records), published before its rows leave the IMRS. A
    /// sync that makes it durable started after the pack left the gate,
    /// so it holds the pack's `Commit` too.
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
    /// Where the committed image being moved sits in the batch's arena,
    /// in its page form (RowId prefix, then the row): the `old` of a page
    /// source's `Delete`, the `data` of a page destination's `Insert`.
    span: (usize, usize),
    /// Bytes the source tier releases (IMRS memory, or image bytes).
    bytes: u64,
    /// IMRS source whose commit some live snapshot predates.
    marker: Option<Timestamp>,
}

impl Source {
    fn payload<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.span.0..self.span.1]
    }

    fn data<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.span.0 + 8..self.span.1] // past the RowId prefix
    }
}

/// Append `parts` to `arena` as one image; returns its span.
fn append(arena: &mut Vec<u8>, parts: &[&[u8]]) -> (usize, usize) {
    let start = arena.len();
    parts.iter().for_each(|part| arena.extend_from_slice(part));
    (start, arena.len())
}

pub(crate) fn origin_tag(origin: RowOrigin) -> RowOriginTag {
    match origin {
        RowOrigin::Inserted => RowOriginTag::Inserted,
        RowOrigin::Migrated => RowOriginTag::Migrated,
        RowOrigin::Cached => RowOriginTag::Cached,
    }
}

/// Move `rows` (distinct) of one partition to `to` as one internally-
/// committed mini-transaction. Each row comes with the location the
/// caller saw; a row the RID-Map no longer places there, or that the
/// gate pins, stays put and is not counted. An IMRS destination takes
/// each row on its own, a page destination the batch a page at a time,
/// an extent destination the batch as one unit.
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
/// A phase takes the whole batch: page sources are read and retired a
/// page at a time, page destinations staged through
/// [`HeapFile::insert_batch`], and each log takes one atomic batch.
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
    // Every image moved goes into one arena, in its page form; a page
    // source's is read a page at a time.
    let mut arena: Vec<u8> = Vec::new();
    let placed = |&(row, from): &(RowId, RowLocation)| sh.ridmap.get(row) == Some(from);
    let mut on_page: Vec<Option<(usize, usize)>> = vec![None; rows.len()];
    if matches!(to, To::Imrs(_) | To::Extent { .. }) {
        let (idx, at): (Vec<usize>, Vec<_>) = (rows.iter().enumerate())
            .filter_map(|(i, &(_, from))| match from {
                RowLocation::Page(page, slot) if placed(&rows[i]) => Some((i, (page, slot))),
                _ => None,
            })
            .unzip();
        heap.read_many(&sh.cache, &at, |k, payload| {
            if unwrap_row(payload)?.0 == rows[idx[k]].0 {
                on_page[idx[k]] = Some(append(&mut arena, &[payload]));
            }
            Ok(())
        })?;
    }
    let mut sources: Vec<Source> = Vec::with_capacity(rows.len());
    for (i, &(row, from)) in rows.iter().enumerate() {
        let mut marker = None;
        let (bytes, span) = match (from, to) {
            (RowLocation::Page(..), To::Imrs(_) | To::Extent { .. }) => {
                let Some(span) = on_page[i] else {
                    continue;
                };
                // The horizon gate. In its new home the image is
                // stamped at (IMRS) or served regardless of (extent)
                // the horizon, which is only truthful if the row's last
                // change is committed and at or below it. A newer change
                // always left a side-store entry under the row (page
                // updates stash before-images wherever they put the
                // row, pack stashes absent markers, retirement cannot touch
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
                ((span.1 - span.0 - 8) as u64, span)
            }
            (RowLocation::Imrs, To::Page) => {
                let Some(r) = sh.store.get(row).filter(|_| placed(&rows[i])) else {
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
                let span = (sh.store.allocator())
                    .with_bytes(h, |data| append(&mut arena, &[&row.0.to_le_bytes(), data]));
                (r.memory() as u64, span)
            }
            (RowLocation::Frozen(ext_id, idx), To::Page) => {
                let ext = engine.frozen_slot(ext_id, idx, row);
                let Some(ext) = ext.filter(|_| placed(&rows[i])) else {
                    continue;
                };
                let Some(data) = extent_row_bytes(table.layout.as_ref(), &ext, idx as usize) else {
                    return Err(BtrimError::Corrupt(format!(
                        "frozen row {row} unreadable from extent {ext_id} slot {idx}"
                    )));
                };
                let span = append(&mut arena, &[&row.0.to_le_bytes(), &data]);
                (data.len() as u64, span)
            }
            _ => continue,
        };
        sources.push(Source {
            row,
            from,
            dest: None,
            span,
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
                    let data = s.data(&arena);
                    sh.store
                        .insert_row_committed(s.row, partition, origin, txn, data, horizon)?;
                    s.dest = Some(RowLocation::Imrs);
                }
            }
            To::Page => {
                let payloads: Vec<&[u8]> = sources.iter().map(|s| s.payload(&arena)).collect();
                let mut placed = vec![None; sources.len()];
                let staged = heap.insert_batch(&sh.cache, &payloads, &mut placed);
                for (s, at) in sources.iter_mut().zip(placed) {
                    s.dest = at.map(|(page, slot)| RowLocation::Page(page, slot));
                }
                staged?;
            }
            To::Extent { .. } => {
                let images: Vec<&[u8]> = sources.iter().map(|s| s.data(&arena)).collect();
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
        // Each log takes its share of the move as one atomic batch:
        // syslogs the `Begin` and the row records, sysimrslogs the rest.
        let (mut sys, mut imrs) = (RecordBuf::default(), RecordBuf::default());
        sys.push(&PageLogRecord::Begin { txn });
        let ts = sh.clock.now();
        for s in &sources {
            let (row, payload) = (s.row, s.payload(&arena));
            let of = (txn, partition, row);
            if let RowLocation::Page(page, slot) = s.from {
                sys.push_with(|o| PageLogRecord::encode_delete(o, of, (page, slot), payload));
            }
            if let Some(RowLocation::Page(page, slot)) = s.dest {
                sys.push_with(|o| PageLogRecord::encode_insert(o, of, (page, slot), payload));
            }
            let departure = match (s.from, to) {
                (_, To::Imrs(origin)) => {
                    let (origin, data) = (origin_tag(origin), s.data(&arena));
                    imrs.push_with(|o| {
                        ImrsLogRecord::encode_insert(o, txn, horizon, partition, row, origin, data)
                    });
                    continue;
                }
                (RowLocation::Imrs, To::Page) => ImrsLogRecord::Pack {
                    txn,
                    ts,
                    partition,
                    row,
                },
                (RowLocation::Frozen(extent, idx), To::Page) => ImrsLogRecord::ExtentRowGone {
                    txn,
                    ts,
                    partition,
                    row,
                    extent,
                    idx,
                },
                // Page → extent: the batch's one `Freeze` record below.
                _ => continue,
            };
            imrs.push(&departure);
        }
        if let Some(ext) = &extent {
            let (extent, data) = (ext.id(), ext.encode());
            let freeze = ImrsLogRecord::Freeze {
                txn,
                ts,
                partition,
                extent,
                data,
            };
            imrs.push(&freeze);
        }
        let departed = sh.append_sys_batch(txn, &sys.records())?;
        if sources.iter().any(|s| s.from == RowLocation::Imrs) {
            // A pack: published before its rows leave the IMRS.
            sh.moves.packed.fetch_max(departed.lsn().0);
        }
        sh.append_imrs_batch(&imrs.records())
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

    // ---- Publish, then retire ----------------------------------------
    // The extent goes in before any RID-Map entry names it, so a reader
    // that catches a Frozen location always resolves it.
    if let Some(ext) = extent {
        let ext = Arc::new(ext);
        sh.extents.install(Arc::clone(&ext))?;
        out.extent = Some(ext);
    }
    let moved = || sources.iter().filter_map(|s| Some((s, s.dest?)));
    for (s, dest) in moved() {
        let data = s.data(&arena);
        // New home first: a reader that caught the stale location finds
        // the same committed image there (or, once it is retired, a dead
        // slot or a drained chain), retries the RID-Map once, and lands
        // here. Retiring first would leave a window where the row is
        // unreachable. The hash index spans IMRS rows only.
        match (s.from, dest) {
            (_, RowLocation::Imrs) => {
                table.hash.insert(&(table.primary_key)(data), s.row);
                part.metrics.rows_in.inc();
            }
            (RowLocation::Imrs, RowLocation::Page(..)) => {
                // The absent marker must be in the side store before
                // the RID-Map publishes the page location.
                if let Some(ts) = s.marker {
                    sh.side.stash_committed(s.row, txn, ts, None);
                }
                table.hash.remove(&(table.primary_key)(data));
            }
            _ => {}
        }
        logged.ridmap_set(&sh.ridmap, s.row, dest);
        out.rows += 1;
        out.bytes += s.bytes;
    }
    let arrived = moved().filter(|m| m.1 == RowLocation::Imrs);
    sh.gc.register_many(arrived.map(|(s, _)| s.row));
    // No double buffering (§II): the source copies go, page sources a
    // page at a time. A failure is noted, never unwound — the move is
    // already in both logs, the stale copy holds the same committed
    // bytes, and redo removes it after a crash.
    let mut on_pages = Vec::new();
    for (s, _) in moved() {
        match s.from {
            RowLocation::Imrs => logged.remove_row(&sh.store, s.row, || sh.clock.now()),
            RowLocation::Page(page, slot) => on_pages.push((page, slot)),
            RowLocation::Frozen(ext_id, idx) => {
                // A thaw: the extent cannot leave the directory while
                // this row is live in it.
                let ext = sh.extents.get(ext_id);
                if ext.is_some_and(|ext| logged.mark_gone(&ext, idx as usize)) {
                    part.metrics.rows_thawed.inc();
                }
            }
            RowLocation::Tombstone(..) => {}
        }
    }
    if let Err(e) = logged.heap_delete(heap, &sh.cache, &mut on_pages) {
        sh.health.note_storage_error("movement", &e);
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
