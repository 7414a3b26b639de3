//! The checkpoint over both logs and the state only it reads: the table
//! of transactions alive on the page log (its truncation floor), the
//! table of commits still appending (the image's snapshot), its gate,
//! its trigger, and its counters.

use std::collections::HashMap;

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::{Lsn, Result, Timestamp, TxnId};
use btrim_imrs::Swept;
use btrim_obs::{CheckpointTrace, IlmTraceEvent, OpClass};
use btrim_txn::TxnManager;
use btrim_wal::{ImageHeader, ImrsLogRecord, LogSink, LogWriter, PageLogRecord};

use crate::engine::{Engine, Shared};
use crate::movement::origin_tag;

/// Dirty pages written back per checkpoint flush batch.
pub const CHECKPOINT_FLUSH_BATCH: usize = 128;
/// Pause between flush batches — the rate limiter that keeps checkpoint
/// I/O from monopolizing the device against foreground writes.
pub const CHECKPOINT_BATCH_PAUSE: std::time::Duration = std::time::Duration::from_micros(50);
/// [`Actor::Checkpoint`](crate::Actor::Checkpoint) checkpoints once the
/// logs have taken in this many times the IMRS's used bytes since the
/// last one.
pub const CHECKPOINT_LOG_MULTIPLE: u64 = 4;
/// ... and at least this many bytes: a small database never trips it.
pub const CHECKPOINT_MIN_LOG_BYTES: u64 = 8 << 20;

pub(crate) struct Checkpointer {
    /// Serializes checkpointers (shutdown vs explicit vs the
    /// maintenance actor, which takes it under the maintenance gate).
    gate: Mutex<()>,
    /// Lifetime checkpoint count (trace ordinals).
    ordinal: Relaxed<u64>,
    /// Highest LSN ever handed to `truncate_prefix`, per log (syslogs,
    /// sysimrslogs): the delta per checkpoint is the number of records
    /// that truncation recycled.
    truncated_upto: [Relaxed<u64>; 2],
    /// Both logs' retained bytes when the last checkpoint finished: the
    /// trigger counts what they took in since.
    retained_after: Relaxed<u64>,
    /// First syslogs LSN of every transaction currently alive on the
    /// page log (Begin appended, Commit/Abort not yet). The checkpoint
    /// reads the minimum as its low-water truncation mark.
    txn_floor: Mutex<HashMap<TxnId, Lsn>>,
    /// Commit timestamps reserved whose records are not all appended
    /// yet. The image's snapshot waits for every one at or below it.
    committing: Mutex<Vec<Timestamp>>,
}

impl Checkpointer {
    pub fn new() -> Self {
        Checkpointer {
            gate: Mutex::with_rank(parking_lot::lock_rank::CHECKPOINT_GATE, ()),
            ordinal: Relaxed::new(0),
            truncated_upto: [Relaxed::new(0), Relaxed::new(0)],
            retained_after: Relaxed::new(0),
            txn_floor: Mutex::with_rank(parking_lot::lock_rank::TXN_LOG_FLOOR, HashMap::new()),
            committing: Mutex::with_rank(parking_lot::lock_rank::COMMIT_TABLE, Vec::new()),
        }
    }

    /// Append `rec` to syslogs, keeping the floor table right around
    /// the append. A `Begin` is pre-registered with `record_count() + 1`
    /// — a lower bound on the LSN the append is about to receive — so a
    /// checkpoint reading the table between the insert and the append
    /// still picks a floor at or below the transaction's first record
    /// and cannot truncate its undo images away. The transaction leaves
    /// the table only after its outcome record is in the log — by then
    /// every page it dirtied has been mutated (DML and undo both write
    /// the page before the outcome append), so the checkpoint's
    /// dirty-page enumeration is guaranteed to see them.
    pub fn append(&self, syslog: &LogWriter<PageLogRecord>, rec: &PageLogRecord) -> Result<Lsn> {
        if let PageLogRecord::Begin { txn } = rec {
            let bound = Lsn(syslog.sink().record_count() + 1);
            self.txn_floor.lock().entry(*txn).or_insert(bound);
        }
        let appended = syslog.append(rec);
        match (rec, &appended) {
            (PageLogRecord::Commit { txn, .. } | PageLogRecord::Abort { txn }, Ok(_))
            // A `Begin` that never (reliably) made the log: the engine
            // goes read-only, so no later checkpoint truncates anything.
            | (PageLogRecord::Begin { txn }, Err(_)) => {
                self.txn_floor.lock().remove(txn);
            }
            _ => {}
        }
        appended
    }

    /// Append to syslogs, as one atomic batch, `payloads`: the encoded
    /// `Begin` of `txn` and records of `txn` after it. The floor table
    /// takes the batch as [`append`](Self::append) takes its `Begin`.
    pub fn append_batch(
        &self,
        syslog: &LogWriter<PageLogRecord>,
        txn: TxnId,
        payloads: &[&[u8]],
    ) -> Result<Lsn> {
        let bound = Lsn(syslog.sink().record_count() + 1);
        self.txn_floor.lock().entry(txn).or_insert(bound);
        let appended = syslog.append_batch(payloads).map(|range| range.last);
        if appended.is_err() {
            self.txn_floor.lock().remove(&txn);
        }
        appended
    }

    /// Reserve a commit timestamp, entered in the table of commits still
    /// appending until [`appended`](Self::appended).
    pub fn reserve_commit(&self, txns: &TxnManager) -> Timestamp {
        let mut committing = self.committing.lock();
        let ts = txns.reserve_commit();
        committing.push(ts);
        ts
    }

    /// The commit at `ts` has appended its records to both logs (or
    /// failed to): a checkpoint no longer waits for it.
    pub fn appended(&self, ts: Timestamp) {
        let mut committing = self.committing.lock();
        if let Some(i) = committing.iter().position(|&t| t == ts) {
            committing.swap_remove(i);
        }
    }

    /// Open the image's reader: a registered snapshot `S` — so GC keeps
    /// every version visible at `S` until it is released — once every
    /// commit at or below `S` has appended to both logs. Commits that
    /// reserve later get timestamps above `S`.
    fn open_image_reader(&self, txns: &TxnManager) -> btrim_txn::TxnHandle {
        let reader = {
            let _committing = self.committing.lock();
            txns.begin()
        };
        let s = reader.snapshot;
        while self.committing.lock().iter().any(|&t| t <= s) {
            std::thread::yield_now();
        }
        reader
    }
}

/// Image records a checkpoint gathers into one sysimrslogs batch append.
const IMAGE_BATCH_BYTES: usize = 256 << 10;

/// Encoded image records waiting for their batch append.
#[derive(Default)]
struct ImageBatch {
    /// The records, back to back.
    buf: Vec<u8>,
    /// Where each record in `buf` ends.
    ends: Vec<usize>,
    rows: u64,
    bytes: u64,
}

impl ImageBatch {
    /// The record just encoded at the end of `buf` is complete; append
    /// the batch once it is large enough.
    fn end_record(&mut self, sh: &Shared) -> Result<()> {
        self.ends.push(self.buf.len());
        self.append_full(sh)
    }

    /// Append each full batch: the records up to the first that brings
    /// it to [`IMAGE_BATCH_BYTES`] — the split [`end_record`] makes one
    /// record at a time, so records that ended several at once append
    /// the same batches.
    ///
    /// [`end_record`]: Self::end_record
    fn append_full(&mut self, sh: &Shared) -> Result<()> {
        while let Some(i) = self.ends.iter().position(|&e| e >= IMAGE_BATCH_BYTES) {
            self.append_first(sh, i + 1)?;
        }
        Ok(())
    }

    /// Append what is left.
    fn append(&mut self, sh: &Shared) -> Result<()> {
        self.append_first(sh, self.ends.len())
    }

    /// Append the first `n` records as one batch.
    fn append_first(&mut self, sh: &Shared, n: usize) -> Result<()> {
        let Some(&cut) = n.checked_sub(1).and_then(|last| self.ends.get(last)) else {
            return Ok(());
        };
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let records: Vec<&[u8]> = starts
            .zip(&self.ends[..n])
            .map(|(a, &b)| &self.buf[a..b])
            .collect();
        sh.append_imrs_batch(&records)?;
        self.bytes += cut as u64;
        self.buf.drain(..cut);
        self.ends.drain(..n);
        self.ends.iter_mut().for_each(|e| *e -= cut);
        Ok(())
    }
}

/// Truncate `log` through `floor - 1`; returns the records that went.
fn truncate_below(log: &dyn LogSink, upto: &Relaxed<u64>, floor: Lsn) -> Result<u64> {
    let Some(last) = floor.0.checked_sub(1).filter(|&l| l > 0) else {
        return Ok(0);
    };
    log.truncate_prefix(Lsn(last))?;
    Ok(last.saturating_sub(upto.fetch_max(last)))
}

impl Engine {
    /// Checkpoint both logs: make dirty pages durable, write an image of
    /// the IMRS into sysimrslogs, and recycle each log's prefix no
    /// recovery will ever read (DESIGN.md "Restart & checkpointing").
    ///
    /// Fuzzy and incremental: writers keep running throughout, pages
    /// flush in small rate-limited batches. Row movement does not: the
    /// move gate is closed from before the image's snapshot is fixed
    /// until both logs are truncated. One record pair, on sysimrslogs,
    /// certifies the checkpoint for both logs. The ordering is the
    /// whole correctness argument — each step licenses the next:
    ///
    /// 1. Read the syslogs floor: the minimum first-LSN over
    ///    transactions alive on the page log, bounded above by
    ///    `record_count() + 1`. Enumerate the dirty-page table **after**
    ///    it: any page dirtied by a record below the floor is either in
    ///    the enumeration or already clean on disk.
    /// 2. Close the move gate (no cache, migrate, thaw, pack or freeze
    ///    is in flight; every finished one is on both logs). Read the
    ///    sysimrslogs floor, then fix the snapshot `S`: every commit at
    ///    or below `S` has appended to both logs, every later one gets
    ///    a timestamp above `S` and appends above both floors. Append
    ///    sysimrslogs `CheckpointBegin { S, both floors, id allocators }`.
    /// 3. Make the records of every commit at or below `S` durable,
    ///    sysimrslogs first: the image will hold their IMRS halves, so
    ///    their page halves must not be lost behind it.
    /// 4. Image: one RowId-ordered sweep writes the version of each
    ///    resident row visible at `S`, then each live frozen extent.
    /// 5. Flush the enumerated pages in rate-limited batches, syslogs
    ///    first (the records behind the pages), then sync the device.
    /// 6. Append `CheckpointEnd` and make it durable. Recovery certifies
    ///    a checkpoint only when End matches Begin, so a crash anywhere
    ///    before falls back to the previous one, both floors with it.
    /// 7. Truncate each log below its floor, the gate still closed: a
    ///    truncation may rewrite — and so make durable — the log's
    ///    tail, which must not carry a move's syslogs half ahead of its
    ///    arrival.
    pub fn checkpoint(&self) -> Result<()> {
        let sh = &self.sh;
        let ck = &sh.ckpt;
        let result: Result<CheckpointTrace> = (|| {
            let _gate = ck.gate.lock();
            let next_lsn = Lsn(sh.syslog.sink().record_count() + 1);
            let sys_floor = ck
                .txn_floor
                .lock()
                .values()
                .fold(next_lsn, |m, &l| m.min(l));
            let dirty = sh.cache.dirty_page_ids();
            let closed = sh.moves.close(&sh.imrslog, true)?;
            let imrs_floor = Lsn(sh.imrslog.sink().record_count() + 1);
            let reader = ck.open_image_reader(&sh.txns);
            let snapshot = reader.snapshot;
            let settled = Lsn(sh.imrslog.sink().record_count());
            let image_begin = sh.append_imrs(&ImrsLogRecord::CheckpointBegin(ImageHeader {
                snapshot,
                imrs_floor,
                sys_floor,
                next_row: sh.ridmap.next_row_id(),
                next_txn: sh.txns.next_txn_id(),
                next_internal: sh.pack.next_internal(),
                next_extent: sh.extents.next_id(),
            }));
            let image = image_begin.and_then(|begin| {
                sh.imrslog.flush_to(settled)?;
                sh.syslog.flush()?;
                let image = self.write_image(snapshot)?;
                Ok((begin.lsn(), image))
            });
            sh.txns.release(reader);
            let (image_begin, (image_rows, image_bytes)) = image?;
            let mut pages_flushed = 0u64;
            let mut batches = 0u64;
            let mut stall_nanos = 0u64;
            for chunk in dirty.chunks(CHECKPOINT_FLUSH_BATCH) {
                let t = sh.obs.start();
                pages_flushed += sh.cache.flush_pages(chunk)? as u64;
                sh.obs.record_since(OpClass::CheckpointFlush, t);
                batches += 1;
                let pause = std::time::Instant::now();
                std::thread::sleep(CHECKPOINT_BATCH_PAUSE);
                stall_nanos += pause.elapsed().as_nanos() as u64;
            }
            sh.syslog.flush()?;
            sh.cache.sync_backend()?;
            sh.append_imrs(&ImrsLogRecord::CheckpointEnd {
                begin_lsn: image_begin,
            })?;
            sh.imrslog.flush()?;
            let imrslog_truncated = truncate_below(
                sh.imrslog.sink().as_ref(),
                &ck.truncated_upto[1],
                imrs_floor,
            )?;
            let syslog_truncated =
                truncate_below(sh.syslog.sink().as_ref(), &ck.truncated_upto[0], sys_floor)?;
            drop(closed);
            ck.retained_after.store(self.log_resident_bytes());
            Ok(CheckpointTrace {
                ordinal: ck.ordinal.fetch_add(1),
                dirty_pages: dirty.len() as u64,
                pages_flushed,
                batches,
                low_water_lsn: sys_floor.0,
                syslog_truncated,
                imrslog_truncated,
                image_rows,
                image_bytes,
                stall_nanos,
            })
        })();
        let result = result.map(|trace| sh.obs.trace.push(IlmTraceEvent::Checkpoint(trace)));
        sh.health.note("checkpoint", &result);
        result
    }

    /// Write the IMRS image at `snapshot`: the visible version of every
    /// resident row in RowId order, then every frozen extent with a live
    /// slot, [`IMAGE_BATCH_BYTES`] of records per log append. Returns the
    /// rows and the image bytes written. The rows come from the store's
    /// batched reader; each log append waits until a sweep batch has
    /// released its chunk latches.
    fn write_image(&self, snapshot: Timestamp) -> Result<(u64, u64)> {
        let sh = &self.sh;
        let mut batch = ImageBatch::default();
        let mut rows = sh.store.sweep(snapshot, TxnId(0));
        while rows.next_batch(|_, _| true)? {
            rows.read(|row, partition, origin, swept| {
                if let Swept::Visible(v, data) = swept {
                    let Some(ts) = v.commit_ts else {
                        return Ok(());
                    };
                    let (origin, out) = (origin_tag(origin), &mut batch.buf);
                    ImrsLogRecord::encode_image_row(out, ts, partition, row, origin, data);
                    batch.ends.push(batch.buf.len());
                    batch.rows += 1;
                }
                Ok(())
            })?;
            batch.append_full(sh)?;
        }
        let mut extents = Vec::new();
        sh.extents.for_each(|ext| {
            if ext.live_count() > 0 {
                extents.push(ext.clone());
            }
        });
        for ext in extents {
            let dead = (0..ext.row_count()).filter(|&i| !ext.is_live(i));
            let rec = ImrsLogRecord::ImageExtent {
                partition: ext.partition(),
                extent: ext.id(),
                dead: dead.map(|i| i as u16).collect(),
                data: ext.encode(),
            };
            btrim_wal::Encodable::encode_into(&rec, &mut batch.buf);
            batch.end_record(sh)?;
        }
        batch.append(sh)?;
        Ok((batch.rows, batch.bytes))
    }

    /// Bytes both logs retain now.
    pub(crate) fn log_resident_bytes(&self) -> u64 {
        self.sh.syslog.sink().byte_size() + self.sh.imrslog.sink().byte_size()
    }

    /// Whether the logs have taken in [`CHECKPOINT_LOG_MULTIPLE`] times
    /// the IMRS's used bytes, and more than [`CHECKPOINT_MIN_LOG_BYTES`],
    /// since the last checkpoint. Neither dirty pages nor frozen extents
    /// count (DESIGN.md "Restart & checkpointing" has why).
    pub(crate) fn checkpoint_due(&self) -> bool {
        let sh = &self.sh;
        let taken_in = self
            .log_resident_bytes()
            .saturating_sub(sh.ckpt.retained_after.load());
        let live = CHECKPOINT_LOG_MULTIPLE * sh.store.used_bytes();
        taken_in > CHECKPOINT_MIN_LOG_BYTES.max(live)
    }
}
