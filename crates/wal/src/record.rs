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
    Commit { txn: TxnId, ts: Timestamp },
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
    /// Fuzzy checkpoint opened. `low_water` is the redo floor this
    /// checkpoint will certify **once its matching
    /// [`CheckpointEnd`](PageLogRecord::CheckpointEnd) lands**: the
    /// minimum of this record's own LSN and the first-record LSN of
    /// every transaction in flight when the checkpoint began
    /// (`Lsn::ZERO` encodes "no in-flight writers — use this record's
    /// own LSN"). `dirty_pages` is the dirty-page table snapshotted at
    /// begin; the checkpoint flushes exactly these pages, in batches,
    /// without quiescing writers. A Begin with no matching End is a
    /// torn checkpoint and certifies nothing.
    CheckpointBegin {
        low_water: Lsn,
        dirty_pages: Vec<PageId>,
    },
    /// Fuzzy checkpoint closed: every page named in the
    /// [`CheckpointBegin`](PageLogRecord::CheckpointBegin) at
    /// `begin_lsn` has been written back and synced. Only the pair
    /// (matched by `begin_lsn`) moves the redo floor.
    CheckpointEnd { begin_lsn: Lsn },
}

impl Encodable for PageLogRecord {
    fn encoded_len(&self) -> usize {
        match self {
            PageLogRecord::Begin { .. } | PageLogRecord::Abort { .. } => 1 + 8,
            PageLogRecord::Commit { .. } => 1 + 8 + 8,
            PageLogRecord::Insert { data, .. } => PAGE_ROW_HEAD + bytes_len(data),
            PageLogRecord::Update { old, new, .. } => {
                PAGE_ROW_HEAD + bytes_len(old) + bytes_len(new)
            }
            PageLogRecord::Delete { old, .. } => PAGE_ROW_HEAD + bytes_len(old),
            PageLogRecord::CheckpointBegin { dirty_pages, .. } => 1 + 8 + 4 + 4 * dirty_pages.len(),
            PageLogRecord::CheckpointEnd { .. } => 1 + 8,
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
            PageLogRecord::Commit { txn, ts } => {
                e.put_u8(1);
                e.put_u64(txn.0);
                e.put_u64(ts.0);
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
            } => {
                e.put_u8(3);
                e.put_u64(txn.0);
                e.put_u32(partition.0);
                e.put_u64(row.0);
                e.put_u32(page.0);
                e.put_u16(slot.0);
                e.put_bytes(data);
            }
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
            } => {
                e.put_u8(5);
                e.put_u64(txn.0);
                e.put_u32(partition.0);
                e.put_u64(row.0);
                e.put_u32(page.0);
                e.put_u16(slot.0);
                e.put_bytes(old);
            }
            PageLogRecord::CheckpointBegin {
                low_water,
                dirty_pages,
            } => {
                e.put_u8(7);
                e.put_u64(low_water.0);
                e.put_u32(dirty_pages.len() as u32);
                for p in dirty_pages {
                    e.put_u32(p.0);
                }
            }
            PageLogRecord::CheckpointEnd { begin_lsn } => {
                e.put_u8(8);
                e.put_u64(begin_lsn.0);
            }
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
            7 => {
                let low_water = Lsn(d.get_u64()?);
                let n = d.get_u32()? as usize;
                let mut dirty_pages = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    dirty_pages.push(PageId(d.get_u32()?));
                }
                PageLogRecord::CheckpointBegin {
                    low_water,
                    dirty_pages,
                }
            }
            8 => PageLogRecord::CheckpointEnd {
                begin_lsn: Lsn(d.get_u64()?),
            },
            t => return Err(BtrimError::Corrupt(format!("bad page log tag {t}"))),
        })
    }
}

impl PageLogRecord {
    /// Transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            PageLogRecord::Begin { txn }
            | PageLogRecord::Commit { txn, .. }
            | PageLogRecord::Abort { txn }
            | PageLogRecord::Insert { txn, .. }
            | PageLogRecord::Update { txn, .. }
            | PageLogRecord::Delete { txn, .. } => Some(*txn),
            PageLogRecord::CheckpointBegin { .. } | PageLogRecord::CheckpointEnd { .. } => None,
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
    /// Written by recovery: the listed transactions lost (crashed
    /// in-flight or aborted) and their earlier records in this log must
    /// never replay. The page-store log — where Begin/Commit evidence
    /// lives — is truncated at every checkpoint, so the loser verdict
    /// has to be made durable here or a *second* recovery would mistake
    /// stale loser records for committed work. A checkpoint truncates
    /// this log too, but only below its own image: a `Discard` goes
    /// with the loser records it poisons, all of which precede it.
    /// Transaction ids are never reused across incarnations (recovery
    /// bumps the id floors above everything in both logs and in the
    /// image), so poisoning an id is safe forever.
    Discard { txns: Vec<TxnId> },
    /// A checkpoint's IMRS image opens: the `ImageRow` and
    /// `ImageExtent` records up to the matching
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
    /// The image of the `CheckpointBegin` at `begin_lsn` is complete and
    /// every page-store record of a transaction it holds was durable
    /// first. Only the pair certifies an image.
    CheckpointEnd { begin_lsn: Lsn },
}

/// What a checkpoint's IMRS image holds besides its rows. Recovery
/// loads the image of the newest certified pair and replays, from
/// `floor` on, the user records newer than `snapshot` and every
/// internal one. The `next_*` fields are the id allocators at
/// `snapshot`: the records that would have taught recovery them may be
/// truncated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ImageHeader {
    /// The commit clock when the image was fixed.
    pub snapshot: Timestamp,
    /// The first LSN the checkpoint kept.
    pub floor: Lsn,
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
            ImrsLogRecord::Discard { txns } => 1 + 4 + 8 * txns.len(),
            ImrsLogRecord::CheckpointBegin(_) => 1 + 8 * 5 + 4,
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
            ImrsLogRecord::Discard { txns } => {
                e.put_u8(4);
                e.put_u32(txns.len() as u32);
                for t in txns {
                    e.put_u64(t.0);
                }
            }
            ImrsLogRecord::CheckpointBegin(h) => {
                e.put_u8(7);
                e.put_u64(h.snapshot.0);
                e.put_u64(h.floor.0);
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
            4 => {
                let n = d.get_u32()? as usize;
                let mut txns = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    txns.push(TxnId(d.get_u64()?));
                }
                ImrsLogRecord::Discard { txns }
            }
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
                floor: Lsn(d.get_u64()?),
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
    /// Transaction that produced the record (`None` for the markers
    /// recovery and checkpoints write, and for the image).
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            ImrsLogRecord::Insert { txn, .. }
            | ImrsLogRecord::Update { txn, .. }
            | ImrsLogRecord::Delete { txn, .. }
            | ImrsLogRecord::Pack { txn, .. }
            | ImrsLogRecord::Freeze { txn, .. }
            | ImrsLogRecord::ExtentRowGone { txn, .. } => Some(*txn),
            ImrsLogRecord::Discard { .. }
            | ImrsLogRecord::CheckpointBegin(_)
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
            ImrsLogRecord::Discard { .. }
            | ImrsLogRecord::CheckpointBegin(_)
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
            ImrsLogRecord::Discard { .. }
            | ImrsLogRecord::Freeze { .. }
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
        roundtrip_page(PageLogRecord::Commit {
            txn: TxnId(7),
            ts: Timestamp(99),
        });
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
        roundtrip_page(PageLogRecord::CheckpointBegin {
            low_water: Lsn(42),
            dirty_pages: vec![PageId(1), PageId(9), PageId(4000)],
        });
        roundtrip_page(PageLogRecord::CheckpointBegin {
            low_water: Lsn::ZERO,
            dirty_pages: vec![],
        });
        roundtrip_page(PageLogRecord::CheckpointEnd { begin_lsn: Lsn(43) });
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
        roundtrip_imrs(ImrsLogRecord::Discard {
            txns: vec![TxnId(4), TxnId(9), TxnId(1 << 63 | 5)],
        });
        roundtrip_imrs(ImrsLogRecord::Discard { txns: vec![] });
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
            floor: Lsn(400),
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
        // Tag 6 was the stop-the-world checkpoint record; no writer
        // emits it any more, so a log carrying one is from another
        // format and must be refused, not skipped.
        match PageLogRecord::decode(&[6]) {
            Err(BtrimError::Corrupt(msg)) => assert!(msg.contains("tag 6"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn txn_and_accessors() {
        assert_eq!(
            PageLogRecord::CheckpointBegin {
                low_water: Lsn(1),
                dirty_pages: vec![],
            }
            .txn(),
            None
        );
        assert_eq!(
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(1) }.txn(),
            None
        );
        assert_eq!(PageLogRecord::Begin { txn: TxnId(4) }.txn(), Some(TxnId(4)));
        let r = ImrsLogRecord::Pack {
            txn: TxnId(8),
            ts: Timestamp(5),
            partition: PartitionId(1),
            row: RowId(2),
        };
        assert_eq!(r.txn(), Some(TxnId(8)));
        assert_eq!(r.ts(), Timestamp(5));
        assert_eq!(r.row(), RowId(2));
        let d = ImrsLogRecord::Discard {
            txns: vec![TxnId(3)],
        };
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

    /// Page record `variant` (mod 9), its numbers drawn from `n`, its
    /// byte fields `a` and `b`.
    fn page_record(variant: u8, n: u64, a: Vec<u8>, b: Vec<u8>) -> PageLogRecord {
        let (txn, partition, row) = (
            TxnId(n),
            PartitionId(n as u32 ^ 7),
            RowId(n.rotate_left(17)),
        );
        let (page, slot) = (PageId((n >> 32) as u32), SlotId(n as u16));
        match variant % 9 {
            0 => PageLogRecord::Begin { txn },
            1 => PageLogRecord::Commit {
                txn,
                ts: Timestamp(!n),
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
            5 => PageLogRecord::Delete {
                txn,
                partition,
                row,
                page,
                slot,
                old: a,
            },
            6 => PageLogRecord::CheckpointBegin {
                low_water: Lsn(n),
                dirty_pages: a.iter().map(|&p| PageId(p as u32 * 31)).collect(),
            },
            7 => PageLogRecord::CheckpointBegin {
                low_water: Lsn::ZERO,
                dirty_pages: vec![],
            },
            _ => PageLogRecord::CheckpointEnd { begin_lsn: Lsn(n) },
        }
    }

    /// IMRS record `variant` (mod 12), as [`page_record`].
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
        match variant % 12 {
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
            6 => ImrsLogRecord::Discard {
                txns: a.iter().map(|&t| TxnId(n ^ t as u64)).collect(),
            },
            7 => ImrsLogRecord::CheckpointBegin(ImageHeader {
                snapshot: ts,
                floor: Lsn(n >> 3),
                next_row: row,
                next_txn: txn,
                next_internal: n >> 1,
                next_extent: n as u32,
            }),
            8 => ImrsLogRecord::ImageRow {
                ts,
                partition,
                row,
                origin,
                data: a,
            },
            9 => ImrsLogRecord::ImageExtent {
                partition,
                extent: n as u32,
                dead: a.iter().map(|&i| u16::from(i) * 7).collect(),
                data: a,
            },
            10 => ImrsLogRecord::CheckpointEnd { begin_lsn: Lsn(n) },
            _ => ImrsLogRecord::Discard { txns: vec![] },
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
