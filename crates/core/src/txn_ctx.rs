//! Transaction context.
//!
//! A [`Transaction`] collects what the commit/abort boundary needs:
//! the row locks to release, the redo-only log records to emit (IMRS
//! changes are logged at commit, §II), and one ordered **write set** —
//! each change the transaction made, remembered once ([`Write`]).
//! Commit walks the set forward (stamp IMRS versions and side-store
//! before-images with the commit timestamp, hand IMRS rows to GC/queue
//! maintenance); abort walks it backward (page-store changes are undone
//! physically; IMRS changes by dropping uncommitted versions).

use btrim_common::{PartitionId, RowId, TableId, Timestamp, TxnId};
use btrim_imrs::VersionRef;
use btrim_txn::TxnHandle;
use btrim_wal::{ImrsLogRecord, RecordBuf, RowOriginTag};

/// The transaction's staged `sysimrslogs` redo, serialized at DML time.
///
/// Each IMRS change is encoded into this buffer the moment it happens
/// (with a placeholder commit timestamp), so the commit critical path
/// does no per-record encoding: it stamps the real timestamp over each
/// record's `ts` field, splits the buffer into payload slices, and
/// hands them to one atomic `append_batch`.
#[derive(Debug, Default)]
pub(crate) struct ImrsRedoBuf(RecordBuf);

impl ImrsRedoBuf {
    /// Stage an IMRS insert (placeholder timestamp), encoded straight
    /// from the borrowed row image.
    pub(crate) fn push_insert(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        row: RowId,
        origin: RowOriginTag,
        data: &[u8],
    ) {
        let ts = Timestamp(0);
        (self.0)
            .push_with(|o| ImrsLogRecord::encode_insert(o, txn, ts, partition, row, origin, data));
    }

    /// Stage an IMRS update (placeholder timestamp), encoded straight
    /// from the borrowed row image.
    pub(crate) fn push_update(
        &mut self,
        txn: TxnId,
        partition: PartitionId,
        row: RowId,
        data: &[u8],
    ) {
        let ts = Timestamp(0);
        (self.0).push_with(|o| ImrsLogRecord::encode_update(o, txn, ts, partition, row, data));
    }

    /// Stage an IMRS delete (placeholder timestamp).
    pub(crate) fn push_delete(&mut self, txn: TxnId, partition: PartitionId, row: RowId) {
        let ts = Timestamp(0);
        self.0.push(&ImrsLogRecord::Delete {
            txn,
            ts,
            partition,
            row,
        });
    }

    /// True when no records are staged.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Patch the commit timestamp into every staged record, and mark
    /// each `mixed` when the transaction wrote syslogs too
    /// ([`ImrsLogRecord::stamp_commit`]).
    pub(crate) fn stamp(&mut self, ts: Timestamp, mixed: bool) {
        (self.0).for_each_mut(|rec| ImrsLogRecord::stamp_commit(rec, ts, mixed));
    }

    /// The staged records as payload slices, in DML order — the exact
    /// shape `LogSink::append_batch` takes.
    pub(crate) fn records(&self) -> Vec<&[u8]> {
        self.0.records()
    }
}

/// Which of a table's indexes a [`Write::KeyAdded`] / [`Write::KeyRemoved`]
/// entry names.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IndexRef {
    /// The primary B+tree and the hash index beside it (the hash spans
    /// IMRS rows only; both map the same key to the same row).
    Primary,
    /// The table's `n`-th secondary index.
    Secondary(usize),
}

/// One change a transaction made — one entry of its write set.
///
/// Rows are named by `RowId` only: where a row lives is the RID-Map's
/// to say, at commit and at abort as at DML time.
#[derive(Debug)]
pub(crate) enum Write {
    /// An uncommitted version pushed onto `row`'s IMRS chain — the
    /// chain's first when this transaction inserted the row. Commit
    /// stamps it and hands the row to GC; abort unlinks it (a chain
    /// that empties is the transaction's own insert: the row goes).
    Imrs { row: RowId, version: VersionRef },
    /// A page-resident row's slot filled, overwritten or emptied. The
    /// change's before-image is the pending side-store entry stashed
    /// just before it: commit stamps that entry, abort puts its image
    /// back — wherever the row is by then — and drops it.
    Page { row: RowId, partition: PartitionId },
    /// An index key added (abort removes it).
    KeyAdded {
        table: TableId,
        index: IndexRef,
        key: Vec<u8>,
        row: RowId,
    },
    /// An index key removed (abort re-adds it).
    KeyRemoved {
        table: TableId,
        index: IndexRef,
        key: Vec<u8>,
        row: RowId,
    },
}

/// A client transaction.
pub struct Transaction {
    /// Identity + snapshot.
    pub(crate) handle: TxnHandle,
    /// Row locks taken (released at commit/abort). A row may repeat:
    /// the lock manager is re-entrant, and `unlock` by a transaction
    /// that no longer holds the row changes nothing.
    pub(crate) locks: Vec<RowId>,
    /// The write set: every change, once, in the order it was made.
    /// Commit walks it forward, abort backward.
    pub(crate) writes: Vec<Write>,
    /// Staged redo-only log records (serialized at DML time), emitted
    /// as one atomic batch at commit.
    pub(crate) imrs_redo: ImrsRedoBuf,
    /// Whether any redo-undo (page-store) records were written; decides
    /// whether a Commit/Abort record goes to syslogs.
    pub(crate) wrote_syslog: bool,
    /// Set once commit/abort ran (drop-guard hygiene).
    pub(crate) finished: bool,
}

impl Transaction {
    pub(crate) fn new(handle: TxnHandle) -> Self {
        Transaction {
            handle,
            locks: Vec::new(),
            writes: Vec::new(),
            imrs_redo: ImrsRedoBuf::default(),
            wrote_syslog: false,
            finished: false,
        }
    }

    /// Transaction id.
    pub fn id(&self) -> btrim_common::TxnId {
        self.handle.id
    }

    /// Snapshot timestamp this transaction reads at.
    pub fn snapshot(&self) -> btrim_common::Timestamp {
        self.handle.snapshot
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        // A transaction dropped without commit/abort is a programming
        // error in release of locks; surface it loudly in debug builds.
        debug_assert!(
            self.finished || self.locks.is_empty(),
            "transaction {:?} dropped while holding locks — call commit() or abort()",
            self.handle.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_wal::Encodable;

    /// Stamping a placeholder-ts buffer must produce byte-identical
    /// output to encoding with the real timestamp directly — this pins
    /// `stamp_commit` against any drift in the record encoder, for redo
    /// staged from borrowed images and from built records alike.
    #[test]
    fn stamp_layout_matches_encoder() {
        let txn = TxnId(42);
        let ts = Timestamp(0xDEAD_BEEF_1234_5678);
        let p = PartitionId(3);
        let mut buf = ImrsRedoBuf::default();
        buf.push_insert(txn, p, RowId(7), RowOriginTag::Inserted, &[1, 2, 3]);
        buf.push_update(txn, p, RowId(8), &[4, 5]);
        buf.push_delete(txn, p, RowId(9));
        buf.0.push(&ImrsLogRecord::Pack {
            txn,
            ts: Timestamp(0),
            partition: p,
            row: RowId(10),
        });
        assert_eq!(buf.records().len(), 4);
        buf.stamp(ts, false);
        let want: Vec<Vec<u8>> = vec![
            ImrsLogRecord::Insert {
                txn,
                ts,
                partition: p,
                row: RowId(7),
                origin: RowOriginTag::Inserted,
                data: vec![1, 2, 3],
            }
            .encode(),
            ImrsLogRecord::Update {
                txn,
                ts,
                partition: p,
                row: RowId(8),
                data: vec![4, 5],
            }
            .encode(),
            ImrsLogRecord::Delete {
                txn,
                ts,
                partition: p,
                row: RowId(9),
            }
            .encode(),
            ImrsLogRecord::Pack {
                txn,
                ts,
                partition: p,
                row: RowId(10),
            }
            .encode(),
        ];
        let got = buf.records();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(*g, w.as_slice());
        }
        // And every staged record decodes back with the stamped ts;
        // stamped mixed, with the mixed bit in its id and nothing else.
        for g in got {
            let rec = ImrsLogRecord::decode(g).unwrap();
            assert_eq!((rec.ts(), rec.txn(), rec.mixed()), (ts, Some(txn), false));
        }
        buf.stamp(ts, true);
        for g in buf.records() {
            let rec = ImrsLogRecord::decode(g).unwrap();
            assert_eq!((rec.ts(), rec.txn(), rec.mixed()), (ts, Some(txn), true));
        }
    }

    #[test]
    fn restamping_overwrites_cleanly() {
        let mut buf = ImrsRedoBuf::default();
        buf.push_delete(TxnId(1), PartitionId(0), RowId(2));
        buf.stamp(Timestamp(111), false);
        buf.stamp(Timestamp(222), false);
        let rec = ImrsLogRecord::decode(buf.records()[0]).unwrap();
        assert_eq!(rec.ts(), Timestamp(222));
        assert!(!buf.is_empty());
    }
}
