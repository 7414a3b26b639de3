//! Log-record vocabulary for the two transaction logs.
//!
//! Page-store records ([`PageLogRecord`]) carry before-images for undo;
//! IMRS records ([`ImrsLogRecord`]) are redo-only and are written at
//! commit time, already stamped with the commit timestamp.

use btrim_common::codec::{Decoder, Encoder};
use btrim_common::{BtrimError, Lsn, PageId, PartitionId, Result, RowId, SlotId, Timestamp, TxnId};

/// A record type that can be framed into a log sink.
pub trait Encodable: Sized {
    /// Exact number of bytes [`encode_into`](Self::encode_into) appends.
    fn encoded_len(&self) -> usize;
    /// Append the encoding to `out`, reserving its exact length once
    /// up front, so the buffer grows at most once per record.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Serialize into a fresh buffer of exactly the encoded length.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }
    /// Deserialize from bytes.
    fn decode(data: &[u8]) -> Result<Self>;
}

/// Records encoded back to back for one atomic
/// [`append_batch`](crate::LogSink::append_batch): a transaction's
/// staged redo, or one log's share of a row move.
#[derive(Debug, Default)]
pub struct RecordBuf {
    buf: Vec<u8>,
    /// End offset of each record in `buf` (record `i` spans
    /// `ends[i-1]..ends[i]`).
    ends: Vec<usize>,
}

impl RecordBuf {
    /// Append the one record `encode` writes.
    pub fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.buf);
        self.ends.push(self.buf.len());
    }

    /// Append a built record.
    pub fn push(&mut self, rec: &impl Encodable) {
        self.push_with(|out| rec.encode_into(out));
    }

    /// True when no record is staged.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The records as payload slices, in order: the shape
    /// `append_batch` takes.
    pub fn records(&self) -> Vec<&[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(a, &b)| &self.buf[a..b])
            .collect()
    }

    /// Rewrite each record in place (a commit stamping its timestamp).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut [u8])) {
        let mut start = 0;
        for &end in &self.ends {
            f(&mut self.buf[start..end]);
            start = end;
        }
    }
}

/// Encoded width of a `put_bytes` field: its `u32` length, then the bytes.
const fn bytes_len(data: &[u8]) -> usize {
    4 + data.len()
}

/// `tag`, `txn`, `partition`, `row`, `page`, `slot`: the head of every
/// page-store row record.
const PAGE_ROW_HEAD: usize = 1 + 8 + 4 + 8 + 4 + 2;

/// `tag`, `txn`, `ts`, `partition`, `row`: the head of every IMRS row
/// record (`ts` at byte 9, where commit stamps it).
const IMRS_ROW_HEAD: usize = 1 + 8 + 8 + 4 + 8;

/// `tag`, `ts`, `partition`, `row`, `origin`: the head of an image row.
const IMAGE_ROW_HEAD: usize = 1 + 8 + 4 + 8 + 1;

/// Set in the `txn` field of a user IMRS record whose transaction also
/// wrote syslogs (a mixed transaction): its syslogs `Commit` decides the
/// record, which loses without one. [`ImrsLogRecord::txn`] clears it.
/// The converse flag is `PageLogRecord::Commit`'s `imrs_batch`. Client
/// transaction ids count up from 1 and internal ones set bit 63, so no
/// id ever has it.
pub const MIXED_TXN_BIT: u64 = 1 << 62;

/// Compact tag mirroring the IMRS `RowOrigin` enum in log records
/// (wal does not depend on imrs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum RowOriginTag {
    /// Row first inserted in the IMRS.
    Inserted = 0,
    /// Row migrated (update) from the page store.
    Migrated = 1,
    /// Row cached (select) from the page store.
    Cached = 2,
}

impl RowOriginTag {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(RowOriginTag::Inserted),
            1 => Ok(RowOriginTag::Migrated),
            2 => Ok(RowOriginTag::Cached),
            _ => Err(BtrimError::Corrupt(format!("bad origin tag {v}"))),
        }
    }
}

/// Records of the redo-undo page-store log (`syslogs`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PageLogRecord {
    /// Transaction start.
    Begin { txn: TxnId },
    /// Transaction commit; `ts` is the database commit timestamp.
    /// `imrs_batch`: the transaction appended a sysimrslogs batch before
    /// this record, which recovery must find (or find held by the
    /// image) for the commit to stand.
    Commit {
        txn: TxnId,
        ts: Timestamp,
        imrs_batch: bool,
    },
    /// Transaction rollback completed.
    Abort { txn: TxnId },
    /// Row inserted on a heap page.
    Insert {
        txn: TxnId,
        partition: PartitionId,
        row: RowId,
        page: PageId,
        slot: SlotId,
        data: Vec<u8>,
    },
    /// Row updated in place (before- and after-image).
    Update {
        txn: TxnId,
        partition: PartitionId,
        row: RowId,
        page: PageId,
        slot: SlotId,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    /// Row deleted from a heap page (before-image for undo).
    Delete {
        txn: TxnId,
        partition: PartitionId,
        row: RowId,
        page: PageId,
        slot: SlotId,
        old: Vec<u8>,
    },
}

impl Encodable for PageLogRecord {
    fn encoded_len(&self) -> usize {
        match self {
            PageLogRecord::Begin { .. } | PageLogRecord::Abort { .. } => 1 + 8,
            PageLogRecord::Commit { .. } => 1 + 8 + 8 + 1,
            PageLogRecord::Insert { data, .. } => PAGE_ROW_HEAD + bytes_len(data),
            PageLogRecord::Update { old, new, .. } => {
                PAGE_ROW_HEAD + bytes_len(old) + bytes_len(new)
            }
            PageLogRecord::Delete { old, .. } => PAGE_ROW_HEAD + bytes_len(old),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let mut e = Encoder::append_to(out);
        match self {
            PageLogRecord::Begin { txn } => {
                e.put_u8(0);
                e.put_u64(txn.0);
            }
            PageLogRecord::Commit {
                txn,
                ts,
                imrs_batch,
            } => {
                e.put_u8(1);
                e.put_u64(txn.0);
                e.put_u64(ts.0);
                e.put_u8(u8::from(*imrs_batch));
            }
            PageLogRecord::Abort { txn } => {
                e.put_u8(2);
                e.put_u64(txn.0);
            }
            PageLogRecord::Insert {
                txn,
                partition,
                row,
                page,
                slot,
                data,
            } => Self::encode_insert(out, (*txn, *partition, *row), (*page, *slot), data),
            PageLogRecord::Update {
                txn,
                partition,
                row,
                page,
                slot,
                old,
                new,
            } => {
                e.put_u8(4);
                e.put_u64(txn.0);
                e.put_u32(partition.0);
                e.put_u64(row.0);
                e.put_u32(page.0);
                e.put_u16(slot.0);
                e.put_bytes(old);
                e.put_bytes(new);
            }
            PageLogRecord::Delete {
                txn,
                partition,
                row,
                page,
                slot,
                old,
            } => Self::encode_delete(out, (*txn, *partition, *row), (*page, *slot), old),
        }
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(data);
        let tag = d.get_u8()?;
        Ok(match tag {
            0 => PageLogRecord::Begin {
                txn: TxnId(d.get_u64()?),
            },
            1 => PageLogRecord::Commit {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                imrs_batch: d.get_u8()? != 0,
            },
            2 => PageLogRecord::Abort {
                txn: TxnId(d.get_u64()?),
            },
            3 => PageLogRecord::Insert {
                txn: TxnId(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                page: PageId(d.get_u32()?),
                slot: SlotId(d.get_u16()?),
                data: d.get_bytes()?,
            },
            4 => PageLogRecord::Update {
                txn: TxnId(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                page: PageId(d.get_u32()?),
                slot: SlotId(d.get_u16()?),
                old: d.get_bytes()?,
                new: d.get_bytes()?,
            },
            5 => PageLogRecord::Delete {
                txn: TxnId(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                page: PageId(d.get_u32()?),
                slot: SlotId(d.get_u16()?),
                old: d.get_bytes()?,
            },
            t => return Err(BtrimError::Corrupt(format!("bad page log tag {t}"))),
        })
    }
}

impl PageLogRecord {
    /// Append `Insert { txn, partition, row, page, slot, data }` (`tag`
    /// 3) or `Delete { .., old: data }` (`tag` 5) with the image
    /// borrowed: the bytes the owned record encodes to.
    fn encode_row(
        out: &mut Vec<u8>,
        tag: u8,
        (txn, partition, row): (TxnId, PartitionId, RowId),
        (page, slot): (PageId, SlotId),
        data: &[u8],
    ) {
        out.reserve(PAGE_ROW_HEAD + bytes_len(data));
        let mut e = Encoder::append_to(out);
        e.put_u8(tag);
        e.put_u64(txn.0);
        e.put_u32(partition.0);
        e.put_u64(row.0);
        e.put_u32(page.0);
        e.put_u16(slot.0);
        e.put_bytes(data);
    }

    /// Append `Insert { txn, partition, row, page, slot, data }` with the
    /// image borrowed.
    pub fn encode_insert(
        out: &mut Vec<u8>,
        (txn, partition, row): (TxnId, PartitionId, RowId),
        at: (PageId, SlotId),
        data: &[u8],
    ) {
        Self::encode_row(out, 3, (txn, partition, row), at, data);
    }

    /// Append `Delete { txn, partition, row, page, slot, old }` with the
    /// before-image borrowed.
    pub fn encode_delete(
        out: &mut Vec<u8>,
        (txn, partition, row): (TxnId, PartitionId, RowId),
        at: (PageId, SlotId),
        old: &[u8],
    ) {
        Self::encode_row(out, 5, (txn, partition, row), at, old);
    }

    /// Transaction this record belongs to: every page-store record has
    /// one.
    pub fn txn(&self) -> TxnId {
        match self {
            PageLogRecord::Begin { txn }
            | PageLogRecord::Commit { txn, .. }
            | PageLogRecord::Abort { txn }
            | PageLogRecord::Insert { txn, .. }
            | PageLogRecord::Update { txn, .. }
            | PageLogRecord::Delete { txn, .. } => *txn,
        }
    }
}

/// Records of the redo-only IMRS log (`sysimrslogs`). Every row record
/// is written at commit with its commit timestamp; recovery loads the
/// newest checkpoint image and replays forward from there.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImrsLogRecord {
    /// Row entered the IMRS (insert, migration, or caching) with image.
    Insert {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        origin: RowOriginTag,
        data: Vec<u8>,
    },
    /// New committed image of an IMRS row.
    Update {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        data: Vec<u8>,
    },
    /// Committed delete of an IMRS row.
    Delete {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
    },
    /// Row packed out of the IMRS (the paired page-store insert lives
    /// in syslogs). Carries the pack transaction's id so replay can
    /// gate the record on the syslog commit outcome of that
    /// transaction, exactly like DML records.
    Pack {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
    },
    /// A batch of page-resident rows re-encoded into an immutable
    /// columnar frozen extent. `data` is the complete encoded extent
    /// (magic through checksum, self-validating); the paired page-store
    /// deletes live in syslogs under the same freeze transaction, so
    /// replay gates this record on that transaction's syslog verdict,
    /// exactly like Pack in the opposite direction.
    Freeze {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        extent: u32,
        data: Vec<u8>,
    },
    /// A single slot of a frozen extent stopped being the current
    /// version of its row: the row was thawed back to the IMRS for an
    /// update, or deleted outright. Redo re-marks the slot dead.
    ExtentRowGone {
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        extent: u32,
        idx: u16,
    },
    /// A checkpoint opens — the only checkpoint record of either log.
    /// The `ImageRow` and `ImageExtent` records up to the matching
    /// [`CheckpointEnd`](ImrsLogRecord::CheckpointEnd) hold every row
    /// visible at the header's snapshot and every live frozen extent.
    CheckpointBegin(ImageHeader),
    /// One row of the image: its version visible at the snapshot, with
    /// that version's commit timestamp and the row's origin.
    ImageRow {
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        origin: RowOriginTag,
        data: Vec<u8>,
    },
    /// One live frozen extent of the image: its encoded bytes (as a
    /// `Freeze` record carries them) and its dead slots.
    ImageExtent {
        partition: PartitionId,
        extent: u32,
        dead: Vec<u16>,
        data: Vec<u8>,
    },
    /// The checkpoint of the `CheckpointBegin` at `begin_lsn` is done:
    /// its image is complete, every page-store record of a transaction
    /// the image holds was durable first, and every page change below
    /// the header's `sys_floor` is on the device. Only the pair
    /// certifies, and it certifies both logs.
    CheckpointEnd { begin_lsn: Lsn },
}

/// What a checkpoint certifies besides the image's rows. Recovery finds
/// the newest certified pair ([`newest_image`](crate::newest_image)),
/// redoes syslogs from `sys_floor` on, loads the image and replays,
/// from `imrs_floor` on, the user records newer than `snapshot` and
/// every internal one. The `next_*` fields are the id allocators at
/// `snapshot`: the records that would have taught recovery them may be
/// truncated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ImageHeader {
    /// The commit clock when the image was fixed.
    pub snapshot: Timestamp,
    /// The first sysimrslogs LSN the checkpoint kept.
    pub imrs_floor: Lsn,
    /// The first syslogs LSN the checkpoint kept: every page change
    /// below it was on the device before the pair's End.
    pub sys_floor: Lsn,
    pub next_row: RowId,
    pub next_txn: TxnId,
    pub next_internal: u64,
    pub next_extent: u32,
}

/// Append the head every IMRS row record starts with.
fn put_imrs_row_head(
    e: &mut Encoder<&mut Vec<u8>>,
    tag: u8,
    txn: TxnId,
    ts: Timestamp,
    partition: PartitionId,
    row: RowId,
) {
    e.put_u8(tag);
    e.put_u64(txn.0);
    e.put_u64(ts.0);
    e.put_u32(partition.0);
    e.put_u64(row.0);
}

impl ImrsLogRecord {
    /// Append `Insert { txn, ts, partition, row, origin, data }` with the
    /// image borrowed: the bytes the owned record encodes to, without
    /// first copying `data` into one.
    pub fn encode_insert(
        out: &mut Vec<u8>,
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        origin: RowOriginTag,
        data: &[u8],
    ) {
        out.reserve(IMRS_ROW_HEAD + 1 + bytes_len(data));
        let mut e = Encoder::append_to(out);
        put_imrs_row_head(&mut e, 0, txn, ts, partition, row);
        e.put_u8(origin as u8);
        e.put_bytes(data);
    }

    /// Append `Update { txn, ts, partition, row, data }` with the image
    /// borrowed (see [`encode_insert`](Self::encode_insert)).
    pub fn encode_update(
        out: &mut Vec<u8>,
        txn: TxnId,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        data: &[u8],
    ) {
        out.reserve(IMRS_ROW_HEAD + bytes_len(data));
        let mut e = Encoder::append_to(out);
        put_imrs_row_head(&mut e, 1, txn, ts, partition, row);
        e.put_bytes(data);
    }

    /// Stamp a row record encoded before its commit (`Insert`, `Update`,
    /// `Delete`, with a placeholder timestamp): write the commit `ts`
    /// and, for a `mixed` transaction, set [`MIXED_TXN_BIT`] in its id.
    /// The bytes become those of the record built with them.
    pub fn stamp_commit(rec: &mut [u8], ts: Timestamp, mixed: bool) {
        // `tag`, `txn` (little-endian: its last byte holds the mixed
        // bit), then `ts`.
        if let Some(head) = rec.get_mut(..IMRS_ROW_HEAD) {
            head[9..17].copy_from_slice(&ts.0.to_le_bytes());
            if mixed {
                head[8] |= (MIXED_TXN_BIT >> 56) as u8;
            }
        }
    }

    /// Append `ImageRow { ts, partition, row, origin, data }` with the
    /// image borrowed (see [`encode_insert`](Self::encode_insert)).
    pub fn encode_image_row(
        out: &mut Vec<u8>,
        ts: Timestamp,
        partition: PartitionId,
        row: RowId,
        origin: RowOriginTag,
        data: &[u8],
    ) {
        out.reserve(IMAGE_ROW_HEAD + bytes_len(data));
        let mut e = Encoder::append_to(out);
        e.put_u8(8);
        e.put_u64(ts.0);
        e.put_u32(partition.0);
        e.put_u64(row.0);
        e.put_u8(origin as u8);
        e.put_bytes(data);
    }
}

impl Encodable for ImrsLogRecord {
    fn encoded_len(&self) -> usize {
        match self {
            ImrsLogRecord::Insert { data, .. } => IMRS_ROW_HEAD + 1 + bytes_len(data),
            ImrsLogRecord::Update { data, .. } => IMRS_ROW_HEAD + bytes_len(data),
            ImrsLogRecord::Delete { .. } | ImrsLogRecord::Pack { .. } => IMRS_ROW_HEAD,
            ImrsLogRecord::Freeze { data, .. } => 1 + 8 + 8 + 4 + 4 + bytes_len(data),
            ImrsLogRecord::ExtentRowGone { .. } => IMRS_ROW_HEAD + 4 + 2,
            ImrsLogRecord::CheckpointBegin(_) => 1 + 8 * 6 + 4,
            ImrsLogRecord::ImageRow { data, .. } => IMAGE_ROW_HEAD + bytes_len(data),
            ImrsLogRecord::ImageExtent { dead, data, .. } => {
                1 + 4 + 4 + 4 + 2 * dead.len() + bytes_len(data)
            }
            ImrsLogRecord::CheckpointEnd { .. } => 1 + 8,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let mut e = Encoder::append_to(out);
        match self {
            ImrsLogRecord::Insert {
                txn,
                ts,
                partition,
                row,
                origin,
                data,
            } => Self::encode_insert(out, *txn, *ts, *partition, *row, *origin, data),
            ImrsLogRecord::Update {
                txn,
                ts,
                partition,
                row,
                data,
            } => Self::encode_update(out, *txn, *ts, *partition, *row, data),
            ImrsLogRecord::Delete {
                txn,
                ts,
                partition,
                row,
            } => put_imrs_row_head(&mut e, 2, *txn, *ts, *partition, *row),
            ImrsLogRecord::Pack {
                txn,
                ts,
                partition,
                row,
            } => put_imrs_row_head(&mut e, 3, *txn, *ts, *partition, *row),
            ImrsLogRecord::Freeze {
                txn,
                ts,
                partition,
                extent,
                data,
            } => {
                e.put_u8(5);
                e.put_u64(txn.0);
                e.put_u64(ts.0);
                e.put_u32(partition.0);
                e.put_u32(*extent);
                e.put_bytes(data);
            }
            ImrsLogRecord::ExtentRowGone {
                txn,
                ts,
                partition,
                row,
                extent,
                idx,
            } => {
                put_imrs_row_head(&mut e, 6, *txn, *ts, *partition, *row);
                e.put_u32(*extent);
                e.put_u16(*idx);
            }
            ImrsLogRecord::CheckpointBegin(h) => {
                e.put_u8(7);
                e.put_u64(h.snapshot.0);
                e.put_u64(h.imrs_floor.0);
                e.put_u64(h.sys_floor.0);
                e.put_u64(h.next_row.0);
                e.put_u64(h.next_txn.0);
                e.put_u64(h.next_internal);
                e.put_u32(h.next_extent);
            }
            ImrsLogRecord::ImageRow {
                ts,
                partition,
                row,
                origin,
                data,
            } => Self::encode_image_row(out, *ts, *partition, *row, *origin, data),
            ImrsLogRecord::ImageExtent {
                partition,
                extent,
                dead,
                data,
            } => {
                e.put_u8(9);
                e.put_u32(partition.0);
                e.put_u32(*extent);
                e.put_u32(dead.len() as u32);
                for &i in dead {
                    e.put_u16(i);
                }
                e.put_bytes(data);
            }
            ImrsLogRecord::CheckpointEnd { begin_lsn } => {
                e.put_u8(10);
                e.put_u64(begin_lsn.0);
            }
        }
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let mut d = Decoder::new(data);
        let tag = d.get_u8()?;
        Ok(match tag {
            0 => ImrsLogRecord::Insert {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                origin: RowOriginTag::from_u8(d.get_u8()?)?,
                data: d.get_bytes()?,
            },
            1 => ImrsLogRecord::Update {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                data: d.get_bytes()?,
            },
            2 => ImrsLogRecord::Delete {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
            },
            3 => ImrsLogRecord::Pack {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
            },
            5 => ImrsLogRecord::Freeze {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                extent: d.get_u32()?,
                data: d.get_bytes()?,
            },
            6 => ImrsLogRecord::ExtentRowGone {
                txn: TxnId(d.get_u64()?),
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                extent: d.get_u32()?,
                idx: d.get_u16()?,
            },
            7 => ImrsLogRecord::CheckpointBegin(ImageHeader {
                snapshot: Timestamp(d.get_u64()?),
                imrs_floor: Lsn(d.get_u64()?),
                sys_floor: Lsn(d.get_u64()?),
                next_row: RowId(d.get_u64()?),
                next_txn: TxnId(d.get_u64()?),
                next_internal: d.get_u64()?,
                next_extent: d.get_u32()?,
            }),
            8 => ImrsLogRecord::ImageRow {
                ts: Timestamp(d.get_u64()?),
                partition: PartitionId(d.get_u32()?),
                row: RowId(d.get_u64()?),
                origin: RowOriginTag::from_u8(d.get_u8()?)?,
                data: d.get_bytes()?,
            },
            9 => {
                let partition = PartitionId(d.get_u32()?);
                let extent = d.get_u32()?;
                let n = d.get_u32()? as usize;
                let mut dead = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    dead.push(d.get_u16()?);
                }
                ImrsLogRecord::ImageExtent {
                    partition,
                    extent,
                    dead,
                    data: d.get_bytes()?,
                }
            }
            10 => ImrsLogRecord::CheckpointEnd {
                begin_lsn: Lsn(d.get_u64()?),
            },
            t => return Err(BtrimError::Corrupt(format!("bad imrs log tag {t}"))),
        })
    }
}

impl ImrsLogRecord {
    /// Transaction that produced the record (`None` for the checkpoint
    /// records and the image), [`MIXED_TXN_BIT`] cleared.
    pub fn txn(&self) -> Option<TxnId> {
        self.raw_txn().map(|t| TxnId(t.0 & !MIXED_TXN_BIT))
    }

    /// Whether the record's transaction also wrote syslogs
    /// ([`MIXED_TXN_BIT`]).
    pub fn mixed(&self) -> bool {
        self.raw_txn().is_some_and(|t| t.0 & MIXED_TXN_BIT != 0)
    }

    fn raw_txn(&self) -> Option<TxnId> {
        match self {
            ImrsLogRecord::Insert { txn, .. }
            | ImrsLogRecord::Update { txn, .. }
            | ImrsLogRecord::Delete { txn, .. }
            | ImrsLogRecord::Pack { txn, .. }
            | ImrsLogRecord::Freeze { txn, .. }
            | ImrsLogRecord::ExtentRowGone { txn, .. } => Some(*txn),
            ImrsLogRecord::CheckpointBegin(_)
            | ImrsLogRecord::ImageRow { .. }
            | ImrsLogRecord::ImageExtent { .. }
            | ImrsLogRecord::CheckpointEnd { .. } => None,
        }
    }

    /// Commit timestamp carried by the record (`ZERO` for the markers
    /// and an image extent).
    pub fn ts(&self) -> Timestamp {
        match self {
            ImrsLogRecord::Insert { ts, .. }
            | ImrsLogRecord::Update { ts, .. }
            | ImrsLogRecord::Delete { ts, .. }
            | ImrsLogRecord::Pack { ts, .. }
            | ImrsLogRecord::Freeze { ts, .. }
            | ImrsLogRecord::ExtentRowGone { ts, .. }
            | ImrsLogRecord::ImageRow { ts, .. } => *ts,
            ImrsLogRecord::CheckpointBegin(_)
            | ImrsLogRecord::ImageExtent { .. }
            | ImrsLogRecord::CheckpointEnd { .. } => Timestamp::ZERO,
        }
    }

    /// Row the record concerns (`RowId(0)` for the markers and for
    /// `Freeze` and `ImageExtent`, which carry a batch of rows).
    pub fn row(&self) -> RowId {
        match self {
            ImrsLogRecord::Insert { row, .. }
            | ImrsLogRecord::Update { row, .. }
            | ImrsLogRecord::Delete { row, .. }
            | ImrsLogRecord::Pack { row, .. }
            | ImrsLogRecord::ExtentRowGone { row, .. }
            | ImrsLogRecord::ImageRow { row, .. } => *row,
            ImrsLogRecord::Freeze { .. }
            | ImrsLogRecord::CheckpointBegin(_)
            | ImrsLogRecord::ImageExtent { .. }
            | ImrsLogRecord::CheckpointEnd { .. } => RowId(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_page(r: PageLogRecord) {
        let bytes = r.encode();
        assert_eq!(PageLogRecord::decode(&bytes).unwrap(), r);
    }

    fn roundtrip_imrs(r: ImrsLogRecord) {
        let bytes = r.encode();
        assert_eq!(ImrsLogRecord::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn page_records_roundtrip() {
        roundtrip_page(PageLogRecord::Begin { txn: TxnId(7) });
        for imrs_batch in [false, true] {
            roundtrip_page(PageLogRecord::Commit {
                txn: TxnId(7),
                ts: Timestamp(99),
                imrs_batch,
            });
        }
        roundtrip_page(PageLogRecord::Abort { txn: TxnId(7) });
        roundtrip_page(PageLogRecord::Insert {
            txn: TxnId(1),
            partition: PartitionId(2),
            row: RowId(3),
            page: PageId(4),
            slot: SlotId(5),
            data: vec![1, 2, 3],
        });
        roundtrip_page(PageLogRecord::Update {
            txn: TxnId(1),
            partition: PartitionId(2),
            row: RowId(3),
            page: PageId(4),
            slot: SlotId(5),
            old: vec![9],
            new: vec![1, 2, 3],
        });
        roundtrip_page(PageLogRecord::Delete {
            txn: TxnId(1),
            partition: PartitionId(2),
            row: RowId(3),
            page: PageId(4),
            slot: SlotId(5),
            old: vec![7, 7],
        });
    }

    #[test]
    fn imrs_records_roundtrip() {
        roundtrip_imrs(ImrsLogRecord::Insert {
            txn: TxnId(1),
            ts: Timestamp(10),
            partition: PartitionId(2),
            row: RowId(3),
            origin: RowOriginTag::Migrated,
            data: b"image".to_vec(),
        });
        roundtrip_imrs(ImrsLogRecord::Update {
            txn: TxnId(1),
            ts: Timestamp(11),
            partition: PartitionId(2),
            row: RowId(3),
            data: b"image2".to_vec(),
        });
        roundtrip_imrs(ImrsLogRecord::Delete {
            txn: TxnId(1),
            ts: Timestamp(12),
            partition: PartitionId(2),
            row: RowId(3),
        });
        roundtrip_imrs(ImrsLogRecord::Pack {
            txn: TxnId(9),
            ts: Timestamp(13),
            partition: PartitionId(2),
            row: RowId(3),
        });
        roundtrip_imrs(ImrsLogRecord::Freeze {
            txn: TxnId(1 << 63 | 7),
            ts: Timestamp(14),
            partition: PartitionId(2),
            extent: 11,
            data: vec![0xBB; 300],
        });
        roundtrip_imrs(ImrsLogRecord::ExtentRowGone {
            txn: TxnId(5),
            ts: Timestamp(15),
            partition: PartitionId(2),
            row: RowId(77),
            extent: 11,
            idx: 42,
        });
        roundtrip_imrs(ImrsLogRecord::CheckpointBegin(ImageHeader {
            snapshot: Timestamp(16),
            imrs_floor: Lsn(400),
            sys_floor: Lsn(90),
            next_row: RowId(9_000),
            next_txn: TxnId(321),
            next_internal: 77,
            next_extent: 12,
        }));
        roundtrip_imrs(ImrsLogRecord::ImageRow {
            ts: Timestamp(15),
            partition: PartitionId(2),
            row: RowId(78),
            origin: RowOriginTag::Cached,
            data: b"row".to_vec(),
        });
        roundtrip_imrs(ImrsLogRecord::ImageExtent {
            partition: PartitionId(2),
            extent: 11,
            dead: vec![0, 42],
            data: vec![0xBB; 30],
        });
        roundtrip_imrs(ImrsLogRecord::CheckpointEnd {
            begin_lsn: Lsn(401),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PageLogRecord::decode(&[99]).is_err());
        assert!(ImrsLogRecord::decode(&[99]).is_err());
        assert!(PageLogRecord::decode(&[]).is_err());
    }

    #[test]
    fn retired_checkpoint_tag_is_a_typed_corrupt_error() {
        // Page tag 6 was the stop-the-world checkpoint record, 7 and 8
        // the page log's own checkpoint pair, and IMRS tag 4 recovery's
        // loser list; no writer emits them any more, so a log carrying
        // one is from another format and must be refused, not skipped.
        fn corrupt<R: std::fmt::Debug>(got: Result<R>, tag: u8) {
            match got {
                Err(BtrimError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("tag {tag}")), "{msg}")
                }
                other => panic!("tag {tag}: expected Corrupt, got {other:?}"),
            }
        }
        for tag in [6, 7, 8] {
            let mut rec = vec![tag];
            rec.extend_from_slice(&[0; 16]);
            corrupt(PageLogRecord::decode(&rec), tag);
        }
        let mut rec = vec![4];
        rec.extend_from_slice(&[0; 16]);
        corrupt(ImrsLogRecord::decode(&rec), 4);
    }

    #[test]
    fn txn_and_accessors() {
        assert_eq!(PageLogRecord::Begin { txn: TxnId(4) }.txn(), TxnId(4));
        let r = ImrsLogRecord::Pack {
            txn: TxnId(8),
            ts: Timestamp(5),
            partition: PartitionId(1),
            row: RowId(2),
        };
        assert_eq!(r.txn(), Some(TxnId(8)));
        assert_eq!(r.ts(), Timestamp(5));
        assert_eq!(r.row(), RowId(2));
        assert!(!r.mixed());
        let m = ImrsLogRecord::Delete {
            txn: TxnId(8 | MIXED_TXN_BIT),
            ts: Timestamp(5),
            partition: PartitionId(1),
            row: RowId(2),
        };
        assert_eq!(m.txn(), Some(TxnId(8)));
        assert!(m.mixed());
        let d = ImrsLogRecord::CheckpointEnd { begin_lsn: Lsn(3) };
        assert_eq!(d.txn(), None);
        assert_eq!(d.ts(), Timestamp::ZERO);
        let f = ImrsLogRecord::Freeze {
            txn: TxnId(6),
            ts: Timestamp(7),
            partition: PartitionId(1),
            extent: 3,
            data: vec![],
        };
        assert_eq!(f.txn(), Some(TxnId(6)));
        assert_eq!(f.ts(), Timestamp(7));
        assert_eq!(f.row(), RowId(0), "freeze carries a batch, not one row");
        let g = ImrsLogRecord::ExtentRowGone {
            txn: TxnId(6),
            ts: Timestamp(8),
            partition: PartitionId(1),
            row: RowId(9),
            extent: 3,
            idx: 0,
        };
        assert_eq!(g.txn(), Some(TxnId(6)));
        assert_eq!(g.row(), RowId(9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoders must never panic on arbitrary byte soup — a corrupt
        /// log tail surfaces as `Err(Corrupt)`, not a crash during
        /// recovery.
        #[test]
        fn page_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = PageLogRecord::decode(&bytes);
        }

        #[test]
        fn imrs_record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ImrsLogRecord::decode(&bytes);
        }

        /// Round-trip stability under arbitrary payload contents.
        #[test]
        fn page_insert_roundtrips_any_payload(
            txn in any::<u64>(), part in any::<u32>(), row in any::<u64>(),
            page in any::<u32>(), slot in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let rec = PageLogRecord::Insert {
                txn: TxnId(txn),
                partition: PartitionId(part),
                row: RowId(row),
                page: PageId(page),
                slot: SlotId(slot),
                data,
            };
            prop_assert_eq!(PageLogRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    /// 64 cases, or what `PROPTEST_CASES` asks for (CI: 256).
    fn cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        asked.and_then(|n| n.parse().ok()).unwrap_or(64)
    }

    /// Page record `variant` (mod 6), its numbers drawn from `n`, its
    /// byte fields `a` and `b`.
    fn page_record(variant: u8, n: u64, a: Vec<u8>, b: Vec<u8>) -> PageLogRecord {
        let (txn, partition, row) = (
            TxnId(n),
            PartitionId(n as u32 ^ 7),
            RowId(n.rotate_left(17)),
        );
        let (page, slot) = (PageId((n >> 32) as u32), SlotId(n as u16));
        match variant % 6 {
            0 => PageLogRecord::Begin { txn },
            1 => PageLogRecord::Commit {
                txn,
                ts: Timestamp(!n),
                imrs_batch: n & 1 == 1,
            },
            2 => PageLogRecord::Abort { txn },
            3 => PageLogRecord::Insert {
                txn,
                partition,
                row,
                page,
                slot,
                data: a,
            },
            4 => PageLogRecord::Update {
                txn,
                partition,
                row,
                page,
                slot,
                old: a,
                new: b,
            },
            _ => PageLogRecord::Delete {
                txn,
                partition,
                row,
                page,
                slot,
                old: a,
            },
        }
    }

    /// IMRS record `variant` (mod 10), as [`page_record`].
    fn imrs_record(variant: u8, n: u64, a: Vec<u8>) -> ImrsLogRecord {
        let (txn, ts, partition, row) = (
            TxnId(n),
            Timestamp(!n),
            PartitionId(n as u32),
            RowId(n ^ 0x55),
        );
        let origin = [
            RowOriginTag::Inserted,
            RowOriginTag::Migrated,
            RowOriginTag::Cached,
        ][n as usize % 3];
        match variant % 10 {
            0 => ImrsLogRecord::Insert {
                txn,
                ts,
                partition,
                row,
                origin,
                data: a,
            },
            1 => ImrsLogRecord::Update {
                txn,
                ts,
                partition,
                row,
                data: a,
            },
            2 => ImrsLogRecord::Delete {
                txn,
                ts,
                partition,
                row,
            },
            3 => ImrsLogRecord::Pack {
                txn,
                ts,
                partition,
                row,
            },
            4 => ImrsLogRecord::Freeze {
                txn,
                ts,
                partition,
                extent: n as u32,
                data: a,
            },
            5 => ImrsLogRecord::ExtentRowGone {
                txn,
                ts,
                partition,
                row,
                extent: 3,
                idx: n as u16,
            },
            6 => ImrsLogRecord::CheckpointBegin(ImageHeader {
                snapshot: ts,
                imrs_floor: Lsn(n >> 3),
                sys_floor: Lsn(n >> 5),
                next_row: row,
                next_txn: txn,
                next_internal: n >> 1,
                next_extent: n as u32,
            }),
            7 => ImrsLogRecord::ImageRow {
                ts,
                partition,
                row,
                origin,
                data: a,
            },
            8 => ImrsLogRecord::ImageExtent {
                partition,
                extent: n as u32,
                dead: a.iter().map(|&i| u16::from(i) * 7).collect(),
                data: a,
            },
            _ => ImrsLogRecord::CheckpointEnd { begin_lsn: Lsn(n) },
        }
    }

    /// `encode_into` appends exactly `encode()`'s bytes after what the
    /// buffer held, inside one reservation of `encoded_len()` bytes, and
    /// `decode` gives the record back.
    fn check_encoding<R: Encodable + PartialEq + std::fmt::Debug>(
        rec: &R,
        prefix: &[u8],
    ) -> std::result::Result<(), TestCaseError> {
        let bytes = rec.encode();
        prop_assert_eq!(bytes.len(), rec.encoded_len());
        prop_assert_eq!(bytes.capacity(), bytes.len(), "one exact reservation");
        let mut out = prefix.to_vec();
        out.reserve_exact(rec.encoded_len());
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        rec.encode_into(&mut out);
        prop_assert!(
            (out.as_ptr(), out.capacity()) == (ptr, cap),
            "grew past the reserve: {rec:?}"
        );
        prop_assert_eq!(&out[..prefix.len()], prefix);
        prop_assert_eq!(&out[prefix.len()..], &bytes[..]);
        prop_assert_eq!(&R::decode(&bytes).unwrap(), rec);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Every variant of both logs, with random numbers and payloads.
        #[test]
        fn encode_into_appends_encode_in_one_reservation(
            variant in any::<u8>(), n in any::<u64>(),
            a in proptest::collection::vec(any::<u8>(), 0..600),
            b in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let prefix = &b[..b.len() % 40];
            check_encoding(&page_record(variant, n, a.clone(), b.clone()), prefix)?;
            let imrs = imrs_record(variant, n, a);
            check_encoding(&imrs, prefix)?;
            // The borrowed-image encoders write the owned record's bytes.
            let mut borrowed = prefix.to_vec();
            match &imrs {
                ImrsLogRecord::Insert { txn, ts, partition, row, origin, data } => {
                    ImrsLogRecord::encode_insert(&mut borrowed, *txn, *ts, *partition, *row, *origin, data);
                }
                ImrsLogRecord::Update { txn, ts, partition, row, data } => {
                    ImrsLogRecord::encode_update(&mut borrowed, *txn, *ts, *partition, *row, data);
                }
                ImrsLogRecord::ImageRow { ts, partition, row, origin, data } => {
                    ImrsLogRecord::encode_image_row(&mut borrowed, *ts, *partition, *row, *origin, data);
                }
                other => other.encode_into(&mut borrowed),
            }
            prop_assert_eq!(&borrowed[prefix.len()..], &imrs.encode()[..]);
        }
    }
}
