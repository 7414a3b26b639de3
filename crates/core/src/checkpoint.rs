//! The fuzzy checkpoint and the state only it reads: the table of
//! transactions alive on the page log (its truncation floor), its
//! gate, and its counters.

use std::collections::HashMap;

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::{Lsn, Result, TxnId};
use btrim_obs::{CheckpointTrace, IlmTraceEvent, OpClass};
use btrim_wal::{LogWriter, PageLogRecord};

use crate::engine::Engine;

/// Dirty pages written back per checkpoint flush batch.
pub const CHECKPOINT_FLUSH_BATCH: usize = 128;
/// Pause between flush batches — the rate limiter that keeps checkpoint
/// I/O from monopolizing the device against foreground writes.
pub const CHECKPOINT_BATCH_PAUSE: std::time::Duration = std::time::Duration::from_micros(50);

pub(crate) struct Checkpointer {
    /// Serializes checkpointers (shutdown vs explicit vs background);
    /// never held while the maintenance gate is, and vice versa.
    gate: Mutex<()>,
    /// Lifetime checkpoint count (trace ordinals).
    ordinal: Relaxed<u64>,
    /// Highest LSN ever handed to `truncate_prefix` — the delta per
    /// checkpoint is the number of records that truncation recycled.
    last_truncate_upto: Relaxed<u64>,
    /// First syslogs LSN of every transaction currently alive on the
    /// page log (Begin appended, Commit/Abort not yet). The checkpoint
    /// reads the minimum as its low-water truncation mark.
    txn_floor: Mutex<HashMap<TxnId, Lsn>>,
}

impl Checkpointer {
    pub fn new() -> Self {
        Checkpointer {
            gate: Mutex::with_rank(parking_lot::lock_rank::ENGINE_STATE, ()),
            ordinal: Relaxed::new(0),
            last_truncate_upto: Relaxed::new(0),
            txn_floor: Mutex::with_rank(parking_lot::lock_rank::TXN_LOG_FLOOR, HashMap::new()),
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
}

impl Engine {
    /// Checkpoint: make dirty pages durable and recycle the syslogs
    /// prefix no recovery will ever read. IMRS data is *not* flushed
    /// (§II) — it is recovered from sysimrslogs alone, which therefore
    /// cannot be truncated here.
    ///
    /// Fuzzy and incremental: writers keep running throughout, pages
    /// flush in small rate-limited batches, and the prefix below the
    /// low-water mark is recycled on *every* checkpoint. The ordering
    /// is the whole correctness argument — each step licenses the next:
    ///
    /// 1. Read the low-water floor: the minimum first-LSN over
    ///    transactions alive on the page log, bounded above by
    ///    `record_count() + 1` (so a transaction that begins *after*
    ///    this read necessarily has all its records above the floor).
    /// 2. Enumerate the dirty-page table **after** the floor read: any
    ///    page dirtied by a record below the floor was mutated before
    ///    its transaction's outcome append, which finished before the
    ///    floor read — so the page is either in this enumeration or
    ///    already clean on disk.
    /// 3. Append `CheckpointBegin { low_water, dirty_pages }`; flush
    ///    the enumerated pages in rate-limited batches — writers keep
    ///    committing and re-dirtying pages the whole time, which is
    ///    fine: redo above the floor covers everything newer.
    /// 4. Sync the page device, then append `CheckpointEnd`. Analysis
    ///    certifies the pair only when End matches Begin, so a crash
    ///    anywhere in between falls back to the previous checkpoint.
    /// 5. Only after End is durable, truncate the prefix below the
    ///    floor: every dropped record is redone (its page is durable)
    ///    and belongs to no transaction that could still need undo.
    pub fn checkpoint(&self) -> Result<()> {
        let sh = &self.sh;
        let ck = &sh.ckpt;
        let result: Result<()> = (|| {
            let _gate = ck.gate.lock();
            let next_lsn = Lsn(sh.syslog.sink().record_count() + 1);
            let floor = ck
                .txn_floor
                .lock()
                .values()
                .fold(next_lsn, |m, &l| m.min(l));
            let dirty = sh.cache.dirty_page_ids();
            let begin_lsn = sh
                .append_sys(&PageLogRecord::CheckpointBegin {
                    low_water: floor,
                    dirty_pages: dirty.clone(),
                })?
                .lsn();
            // No page reaches the device ahead of the records that
            // describe it: a cut between the two would leave a change
            // no log holds (an uncommitted row, a departed row whose
            // arrival was lost). The move gate stays closed until the
            // device sync, so no cache, migrate or thaw changes a page
            // meanwhile; both logs go first (the records behind the
            // dirty pages), and syslogs again before the device sync
            // (those of writers that kept going; see DESIGN.md
            // "Restart & checkpointing" for a device that persists a
            // write before its sync).
            let closed = sh.moves.close(&sh.imrslog, true)?;
            sh.syslog.flush()?;
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
            drop(closed);
            sh.append_sys(&PageLogRecord::CheckpointEnd { begin_lsn })?;
            // sysimrslogs first, as a commit and a freeze batch flush,
            // through the move gate: a foreground move's syslogs half
            // must not become durable ahead of its sysimrslogs half.
            sh.moves.sync(&sh.imrslog, &sh.syslog, true)?;
            let mut truncated_records = 0u64;
            if floor.0 > 1 {
                let upto = floor.0 - 1;
                sh.syslog.sink().truncate_prefix(Lsn(upto))?;
                let prev = ck.last_truncate_upto.fetch_max(upto);
                truncated_records = upto.saturating_sub(prev);
            }
            let ordinal = ck.ordinal.fetch_add(1);
            sh.obs
                .trace
                .push(IlmTraceEvent::Checkpoint(CheckpointTrace {
                    ordinal,
                    dirty_pages: dirty.len() as u64,
                    pages_flushed,
                    batches,
                    low_water_lsn: floor.0,
                    truncated_records,
                    stall_nanos,
                }));
            Ok(())
        })();
        sh.health.note("checkpoint", &result);
        result
    }
}
