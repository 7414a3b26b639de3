//! WAL-first as a type: the log receipt.
//!
//! A row's log record comes before the destructive step that re-homes
//! or kills the row (§II, §IV, §VI): a failed append must leave
//! committed data untouched, and recovery must be able to replay or
//! discard what the log says. `clippy.toml` lists the destructive
//! methods (`RidMap::{set, remove, compare_and_set}`,
//! `HeapFile::{delete, delete_many, try_update_in_place,
//! try_update_in_place_logged}`, `ImrsStore::remove_row`,
//! `FrozenExtent::mark_gone`) and this crate denies
//! `clippy::disallowed_methods`. A call goes through a wrapper below,
//! each of which takes a [`Logged`] — and a `Logged` exists only once an
//! append has returned `Ok` — or sits under an `expect` of the lint
//! whose `reason` names why no record is owed (a location nothing was
//! at, a copy the RID-Map never named, an undo, recovery, the
//! retirement of a durable delete).
//!
//! A destructive method with no logged caller has no wrapper; the first
//! logged path that needs one adds it here.

use btrim_common::{Lsn, PageId, Result, RowId, SlotId, Timestamp, TxnId};
use btrim_imrs::{ImrsStore, RidMap, RowLocation};
use btrim_pagestore::{BufferCache, FrozenExtent, HeapFile};
use btrim_wal::{ImrsLogRecord, PageLogRecord};

use crate::engine::Shared;

/// Receipt for a record in the log's append order: its LSN (the last
/// one, for a batch). The field is private to this module, so only the
/// `Shared::append_*` funnels below mint one, and only on `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Logged(Lsn);

impl Logged {
    pub(crate) fn lsn(self) -> Lsn {
        self.0
    }

    /// [`RidMap::set`] behind its record.
    #[expect(clippy::disallowed_methods, reason = "the receipt is the record")]
    pub(crate) fn ridmap_set(self, ridmap: &RidMap, row: RowId, loc: RowLocation) {
        ridmap.set(row, loc);
    }

    /// [`HeapFile::delete_many`] behind its records.
    #[expect(clippy::disallowed_methods, reason = "the receipt is the record")]
    pub(crate) fn heap_delete(
        self,
        heap: &HeapFile,
        cache: &BufferCache,
        at: &mut [(PageId, SlotId)],
    ) -> Result<usize> {
        heap.delete_many(cache, at)
    }

    /// [`ImrsStore::remove_row`] behind its record.
    #[expect(clippy::disallowed_methods, reason = "the receipt is the record")]
    pub(crate) fn remove_row(self, store: &ImrsStore, row: RowId, now: impl Fn() -> Timestamp) {
        store.remove_row(row, now);
    }

    /// [`FrozenExtent::mark_gone`] behind its record: whether this call
    /// retired the slot.
    #[expect(clippy::disallowed_methods, reason = "the receipt is the record")]
    pub(crate) fn mark_gone(self, ext: &FrozenExtent, idx: usize) -> bool {
        ext.mark_gone(idx)
    }
}

/// [`HeapFile::try_update_in_place_logged`] whose log step is an append:
/// the bytes change only after `log` has returned a receipt.
#[expect(clippy::disallowed_methods, reason = "`log` mints the receipt")]
pub(crate) fn update_in_place(
    heap: &HeapFile,
    cache: &BufferCache,
    (page, slot): (PageId, SlotId),
    data: &[u8],
    log: impl FnOnce() -> Result<Logged>,
) -> Result<bool> {
    heap.try_update_in_place_logged(cache, page, slot, data, || log().map(|_| ()))
}

impl Shared {
    /// Append to the page-store log. A failed append may have left a
    /// torn frame on the device; recovery truncates the log at the
    /// first bad frame, so appending *more* records behind the tear
    /// would silently drop them. The only safe reaction is to stop
    /// writing: the engine goes read-only — and this wrapper itself
    /// enforces it, because in-flight work (a pack cycle mid-batch, a
    /// commit mid-drain, a checkpoint) reaches here without passing
    /// the operation-level `check_writable` gate. The append goes
    /// through the checkpointer, which tracks the transactions alive
    /// on this log.
    pub(crate) fn append_sys(&self, rec: &PageLogRecord) -> Result<Logged> {
        self.health.check_writable()?;
        self.ckpt
            .append(&self.syslog, rec)
            .map(Logged)
            .or_else(|e| self.health.fail_stop("syslogs append", e))
    }

    /// Append to the page-store log, as one atomic batch through the
    /// checkpointer, `payloads`: `txn`'s encoded `Begin` and records of
    /// `txn` after it. Same failure policy as [`append_sys`](Self::append_sys).
    pub(crate) fn append_sys_batch(&self, txn: TxnId, payloads: &[&[u8]]) -> Result<Logged> {
        self.health.check_writable()?;
        self.ckpt
            .append_batch(&self.syslog, txn, payloads)
            .map(Logged)
            .or_else(|e| self.health.fail_stop("syslogs batch append", e))
    }

    /// Append to the IMRS log; same failure policy as [`append_sys`](Self::append_sys).
    pub(crate) fn append_imrs(&self, rec: &ImrsLogRecord) -> Result<Logged> {
        self.health.check_writable()?;
        self.imrslog
            .append(rec)
            .map(Logged)
            .or_else(|e| self.health.fail_stop("sysimrslogs append", e))
    }

    /// Append a committing transaction's staged records to the IMRS log
    /// as **one atomic batch** (one lock acquisition on the sink; a
    /// crash persists all of the records or none). Same failure policy
    /// as [`append_sys`](Self::append_sys) — note that unlike a failed
    /// single append, a failed batch cannot leave a *partial*
    /// transaction behind a torn tail, but the tail itself may still be
    /// torn, so the engine still goes read-only.
    pub(crate) fn append_imrs_batch(&self, payloads: &[&[u8]]) -> Result<Logged> {
        self.health.check_writable()?;
        self.imrslog
            .append_batch(payloads)
            .map(|range| Logged(range.last))
            .or_else(|e| self.health.fail_stop("sysimrslogs batch append", e))
    }
}
