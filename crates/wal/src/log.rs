//! Append-only log sinks with checksummed framing.
//!
//! Frame layout: `[len: u32][checksum: u32][payload: len bytes]`, the
//! checksum being [`btrim_common::checksum`]'s. A reader
//! stops at the first truncated or corrupt frame, which makes a torn
//! tail after a crash harmless (the incomplete record was, by
//! definition, unacknowledged).

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::{Condvar, Mutex};

use btrim_common::atomics::Relaxed;
use btrim_common::checksum::checksum;
use btrim_common::{Lsn, Result};

/// The frames' checksum under the name the benchmark's frozen probe
/// (`wal.crc32_ns_per_kib`) calls it by; it is no longer CRC-32.
pub use btrim_common::checksum::checksum as crc32;

/// A contiguous LSN range reserved by one [`LogSink::append_batch`]
/// call (`first..=last`, both inclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsnRange {
    /// LSN of the first record in the batch.
    pub first: Lsn,
    /// LSN of the last record in the batch.
    pub last: Lsn,
}

impl LsnRange {
    /// Number of records in the range.
    pub fn len(&self) -> u64 {
        self.last.0 - self.first.0 + 1
    }

    /// True when the range covers no records (never produced by a
    /// successful `append_batch`, which rejects empty batches).
    pub fn is_empty(&self) -> bool {
        self.last.0 < self.first.0
    }
}

/// An append-only, crash-consistent byte log.
pub trait LogSink: Send + Sync {
    /// Append one framed record; returns its LSN (sequence number).
    fn append(&self, payload: &[u8]) -> Result<Lsn>;
    /// Append several records as **one atomic unit**: a crash either
    /// persists every record in the batch or none of them, never a
    /// prefix. One lock acquisition reserves the whole LSN range.
    /// Empty batches are rejected (`Invalid`).
    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange>;
    /// Durably flush all appended records.
    fn flush(&self) -> Result<()>;
    /// Read every intact record in order (recovery). LSNs are stable
    /// across truncation: a truncated prefix leaves a gap at the front.
    fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>>;
    /// Number of records appended over the log's lifetime (monotonic;
    /// not reduced by truncation).
    fn record_count(&self) -> u64;
    /// Bytes currently retained (frames included).
    fn byte_size(&self) -> u64;
    /// Drop every record with `lsn <= upto` (log recycling after a
    /// checkpoint). LSNs of the surviving records are unchanged.
    fn truncate_prefix(&self, upto: Lsn) -> Result<()>;
}

/// In-memory log (tests and deterministic experiments).
///
/// Records are stored back to back in fixed-capacity chunks that are
/// never reallocated (a record larger than a chunk gets one of its own),
/// with one `(chunk, offset, len)` index entry per record. Truncation
/// drops index entries and every chunk no surviving record lives in.
pub struct MemLog {
    inner: Mutex<MemLogInner>,
    /// Times the data mutex was taken by an append path (`append` or
    /// `append_batch`) — the observable half of the "one lock
    /// acquisition per committing transaction" contract.
    append_locks: Relaxed<u64>,
}

impl Default for MemLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Capacity of one [`MemLog`] chunk.
const MEM_CHUNK: usize = 256 * 1024;

/// Where one [`MemLog`] record lives: `chunk` counts chunks over the
/// log's lifetime, so truncation leaves it unchanged.
#[derive(Clone, Copy)]
struct MemRecord {
    chunk: u64,
    offset: u32,
    len: u32,
}

#[derive(Default)]
struct MemLogInner {
    /// LSN of the first retained record minus one (grows on truncate).
    base: u64,
    /// Retained records in LSN order.
    index: VecDeque<MemRecord>,
    /// Lifetime number of `chunks[0]`.
    first_chunk: u64,
    chunks: VecDeque<Vec<u8>>,
    bytes: u64,
}

impl MemLogInner {
    /// Copy `payload` behind the last record, opening a chunk when the
    /// current one lacks room.
    fn push(&mut self, payload: &[u8]) -> Result<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| btrim_common::BtrimError::Invalid("log record too large".into()))?;
        let fits = self
            .chunks
            .back()
            .is_some_and(|c| c.capacity() - c.len() >= payload.len());
        if !fits {
            self.chunks
                .push_back(Vec::with_capacity(MEM_CHUNK.max(payload.len())));
        }
        let chunk = self.first_chunk + self.chunks.len() as u64 - 1;
        let tail = self.chunks.back_mut().ok_or_else(|| {
            btrim_common::BtrimError::Corrupt("in-memory log lost its tail chunk".into())
        })?;
        let offset = tail.len() as u32;
        tail.extend_from_slice(payload);
        self.index.push_back(MemRecord { chunk, offset, len });
        self.bytes += payload.len() as u64 + 8;
        Ok(())
    }

    fn lsn_of_last(&self) -> u64 {
        self.base + self.index.len() as u64
    }

    fn payload(&self, r: MemRecord) -> &[u8] {
        let chunk = &self.chunks[(r.chunk - self.first_chunk) as usize];
        &chunk[r.offset as usize..r.offset as usize + r.len as usize]
    }
}

impl MemLog {
    /// Create an empty in-memory log.
    pub fn new() -> Self {
        MemLog {
            inner: Mutex::with_rank(parking_lot::lock_rank::WAL_LOG, MemLogInner::default()),
            append_locks: Relaxed::new(0),
        }
    }

    /// Number of data-mutex acquisitions taken by append paths.
    pub fn append_lock_acquisitions(&self) -> u64 {
        self.append_locks.load()
    }
}

impl LogSink for MemLog {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.append_locks.fetch_add(1);
        let mut inner = self.inner.lock();
        inner.push(payload)?;
        Ok(Lsn(inner.lsn_of_last()))
    }

    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        if payloads.is_empty() {
            return Err(btrim_common::BtrimError::Invalid("empty log batch".into()));
        }
        if payloads.iter().any(|p| u32::try_from(p.len()).is_err()) {
            return Err(btrim_common::BtrimError::Invalid(
                "log record too large".into(),
            ));
        }
        self.append_locks.fetch_add(1);
        // One critical section copies the whole batch: no reader sees a
        // prefix of it.
        let mut inner = self.inner.lock();
        let first = inner.lsn_of_last() + 1;
        for p in payloads {
            inner.push(p)?;
        }
        Ok(LsnRange {
            first: Lsn(first),
            last: Lsn(inner.lsn_of_last()),
        })
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
        let inner = self.inner.lock();
        Ok(inner
            .index
            .iter()
            .enumerate()
            .map(|(i, &r)| (Lsn(inner.base + i as u64 + 1), inner.payload(r).to_vec()))
            .collect())
    }

    fn record_count(&self) -> u64 {
        self.inner.lock().lsn_of_last()
    }

    fn byte_size(&self) -> u64 {
        self.inner.lock().bytes
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        let mut inner = self.inner.lock();
        let drop_n = upto
            .0
            .saturating_sub(inner.base)
            .min(inner.index.len() as u64) as usize;
        let dropped_bytes: u64 = inner.index.drain(..drop_n).map(|r| r.len as u64 + 8).sum();
        inner.bytes -= dropped_bytes;
        inner.base += drop_n as u64;
        // Keep the chunk of the first survivor and every later one; with
        // no survivor, keep only the tail chunk appends continue in.
        let keep_from = match inner.index.front() {
            Some(r) => r.chunk,
            None => inner.first_chunk + inner.chunks.len().saturating_sub(1) as u64,
        };
        let drop_chunks = (keep_from - inner.first_chunk) as usize;
        inner.chunks.drain(..drop_chunks);
        inner.first_chunk = keep_from;
        Ok(())
    }
}

/// File-backed log.
///
/// Layout: a 16-byte header `[magic u64][base_lsn u64]` followed by
/// checksum-framed records. `base_lsn` is the LSN of the last truncated
/// record (0 for a fresh log); it keeps LSNs stable across
/// [`truncate_prefix`](LogSink::truncate_prefix), which rewrites the
/// file through a temp file + atomic rename.
///
/// Besides per-record frames the body holds batch frames
/// (`[sentinel u32 = 0xFFFF_FFFF][n_records u32][total_len u32]`
/// `[checksum u32][len_i u32 × n][payloads]`, the checksum over
/// everything after its field). A torn or corrupt batch frame drops the
/// whole batch — never a prefix of its records. A file whose header
/// carries any other magic — an older format's included — is rejected
/// as `Corrupt`, never truncated as if its frames were torn.
pub struct FileLog {
    inner: Mutex<FileLogInner>,
    /// See [`MemLog::append_lock_acquisitions`].
    append_locks: Relaxed<u64>,
}

const FILE_MAGIC: u64 = 0x4254_5249_4D57_4134; // "BTRIMWA4"
const HEADER_LEN: u64 = 16;
/// Marks a batch frame where a per-record frame would put its length.
/// Single-record appends reject payloads this large, so the sentinel
/// is unambiguous.
const BATCH_SENTINEL: u32 = 0xFFFF_FFFF;
const BATCH_HEADER_LEN: usize = 16;

struct FileLogInner {
    path: std::path::PathBuf,
    /// Kept positioned at end-of-file between appends, so the append
    /// fast path is pure buffered writes — no seek, no syscall until
    /// the buffer fills or a flush (commit boundary) drains it.
    writer: BufWriter<File>,
    base: u64,
    count: u64,
    bytes: u64,
}

/// Little-endian `u32` at `off`, or `None` past the end. Frame parsing
/// treats a `None` as a torn tail, so short reads stop the scan instead
/// of panicking.
fn read_u32_le(data: &[u8], off: usize) -> Option<u32> {
    data.get(off..)
        .and_then(|tail| tail.first_chunk::<4>())
        .map(|b| u32::from_le_bytes(*b))
}

/// Parse every intact frame (per-record and batch) from a raw log
/// body. Returns the payloads in LSN order and the byte
/// offset where the intact prefix ends; parsing stops at the first
/// torn or corrupt frame, dropping a torn *batch* wholesale.
fn parse_frames(data: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 8 <= data.len() {
        let Some(len) = read_u32_le(data, off) else {
            break;
        };
        if len == BATCH_SENTINEL {
            let (Some(n), Some(total), Some(sum)) = (
                read_u32_le(data, off + 4),
                read_u32_le(data, off + 8),
                read_u32_le(data, off + 12),
            ) else {
                break; // torn batch header
            };
            let (n, total) = (n as usize, total as usize);
            let body_start = off + BATCH_HEADER_LEN;
            if n == 0 || total < n * 4 || body_start + total > data.len() {
                break; // torn or nonsense batch: drop it whole
            }
            let body = &data[body_start..body_start + total];
            if checksum(body) != sum {
                break; // corrupt batch: drop it whole
            }
            // Body: n record lengths, then the concatenated payloads.
            let lens: Vec<usize> = (0..n)
                .filter_map(|i| read_u32_le(body, i * 4))
                .map(|l| l as usize)
                .collect();
            if lens.len() != n || n * 4 + lens.iter().sum::<usize>() != total {
                break; // lengths disagree with the body size
            }
            let mut p = n * 4;
            for l in lens {
                out.push(body[p..p + l].to_vec());
                p += l;
            }
            off = body_start + total;
        } else {
            let len = len as usize;
            let Some(sum) = read_u32_le(data, off + 4) else {
                break;
            };
            if off + 8 + len > data.len() {
                break; // torn tail
            }
            let payload = &data[off + 8..off + 8 + len];
            if checksum(payload) != sum {
                break; // corrupt tail
            }
            out.push(payload.to_vec());
            off += 8 + len;
        }
    }
    (out, off)
}

/// Build a batch frame around pre-encoded payloads. Called by the
/// committing thread *before* the log mutex is taken: all checksum work and
/// header assembly happens outside the critical section.
fn build_batch_frame(payloads: &[&[u8]]) -> Vec<u8> {
    let body_len = payloads.len() * 4 + payloads.iter().map(|p| p.len()).sum::<usize>();
    let mut frame = Vec::with_capacity(BATCH_HEADER_LEN + body_len);
    frame.extend_from_slice(&BATCH_SENTINEL.to_le_bytes());
    frame.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]); // checksum patched below
    for p in payloads {
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
    }
    for p in payloads {
        frame.extend_from_slice(p);
    }
    let sum = checksum(&frame[BATCH_HEADER_LEN..]);
    frame[12..16].copy_from_slice(&sum.to_le_bytes());
    frame
}

impl FileLog {
    /// Open (or create) a log file, scanning existing intact records to
    /// position the sequence counter.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let base = if len < HEADER_LEN {
            // Fresh log: write the header.
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&FILE_MAGIC.to_le_bytes())?;
            file.write_all(&0u64.to_le_bytes())?;
            0
        } else {
            let mut magic_b = [0u8; 8];
            let mut base_b = [0u8; 8];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut magic_b)?;
            file.read_exact(&mut base_b)?;
            if u64::from_le_bytes(magic_b) != FILE_MAGIC {
                return Err(btrim_common::BtrimError::Corrupt(
                    "log file header magic mismatch".into(),
                ));
            }
            u64::from_le_bytes(base_b)
        };
        let (count, end) = Self::scan(&mut file)?;
        // Truncate any torn tail so future appends start clean.
        file.set_len(end)?;
        file.seek(SeekFrom::End(0))?;
        Ok(FileLog {
            inner: Mutex::with_rank(
                parking_lot::lock_rank::WAL_LOG,
                FileLogInner {
                    path: path.to_path_buf(),
                    writer: BufWriter::new(file),
                    base,
                    count: base + count,
                    bytes: end - HEADER_LEN,
                },
            ),
            append_locks: Relaxed::new(0),
        })
    }

    /// Number of data-mutex acquisitions taken by append paths.
    pub fn append_lock_acquisitions(&self) -> u64 {
        self.append_locks.load()
    }

    /// Count intact records and the byte offset where they end.
    fn scan(file: &mut File) -> Result<(u64, u64)> {
        file.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let (records, end) = parse_frames(&data);
        Ok((records.len() as u64, HEADER_LEN + end as u64))
    }

    /// Read every intact record with its LSN (lock held by caller).
    /// Drains the write buffer, reads through the raw file, and leaves
    /// the cursor back at end-of-file for the next append.
    fn read_locked(inner: &mut FileLogInner) -> Result<Vec<(Lsn, Vec<u8>)>> {
        inner.writer.flush()?;
        let file = inner.writer.get_mut();
        file.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        file.seek(SeekFrom::End(0))?;
        let (records, _) = parse_frames(&data);
        Ok(records
            .into_iter()
            .enumerate()
            .map(|(i, payload)| (Lsn(inner.base + i as u64 + 1), payload))
            .collect())
    }

    /// After a failed append the `BufWriter` may hold — and the file
    /// may already contain — part of a frame. Drop the buffered bytes
    /// *without flushing* and truncate the file back to the end of the
    /// last intact record, so a later successful flush cannot persist
    /// a torn frame: recovery stops at the first corrupt frame and
    /// would otherwise silently discard every acknowledged record
    /// behind it. Best-effort: if the writer cannot be rebuilt the
    /// original append error still reaches the caller.
    fn discard_partial_append(inner: &mut FileLogInner) {
        let good_end = HEADER_LEN + inner.bytes;
        let spare = match inner.writer.get_ref().try_clone() {
            Ok(f) => f,
            Err(_) => match OpenOptions::new().read(true).write(true).open(&inner.path) {
                Ok(f) => f,
                Err(_) => return,
            },
        };
        // `into_parts` discards the buffer without flushing it.
        let old = std::mem::replace(&mut inner.writer, BufWriter::new(spare));
        let (file, _partial_frame) = old.into_parts();
        let _ = file.set_len(good_end);
        let _ = inner.writer.get_mut().seek(SeekFrom::Start(good_end));
    }
}

impl LogSink for FileLog {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        if payload.len() as u64 >= BATCH_SENTINEL as u64 {
            return Err(btrim_common::BtrimError::Invalid(
                "log record too large".into(),
            ));
        }
        // Frame header on the stack, built before the lock; the cursor
        // is already at end-of-file, so the critical section is two
        // buffered writes and nothing else.
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&checksum(payload).to_le_bytes());
        self.append_locks.fetch_add(1);
        let mut inner = self.inner.lock();
        let wrote = inner
            .writer
            .write_all(&header)
            .and_then(|()| inner.writer.write_all(payload));
        if let Err(e) = wrote {
            Self::discard_partial_append(&mut inner);
            return Err(e.into());
        }
        inner.count += 1;
        inner.bytes += payload.len() as u64 + 8;
        Ok(Lsn(inner.count))
    }

    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        if payloads.is_empty() {
            return Err(btrim_common::BtrimError::Invalid("empty log batch".into()));
        }
        // The whole frame — lengths, payloads, checksum — is assembled by
        // the committing thread before the mutex is taken.
        let frame = build_batch_frame(payloads);
        self.append_locks.fetch_add(1);
        let mut inner = self.inner.lock();
        // One buffered write under the lock: the lock makes the batch atomic.
        if let Err(e) = inner.writer.write_all(&frame) {
            Self::discard_partial_append(&mut inner);
            return Err(e.into());
        }
        let first = inner.count + 1;
        inner.count += payloads.len() as u64;
        inner.bytes += frame.len() as u64;
        Ok(LsnRange {
            first: Lsn(first),
            last: Lsn(inner.count),
        })
    }

    fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.writer.flush()?;
        inner.writer.get_ref().sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
        let mut inner = self.inner.lock();
        Self::read_locked(&mut inner)
    }

    fn record_count(&self) -> u64 {
        self.inner.lock().count
    }

    fn byte_size(&self) -> u64 {
        self.inner.lock().bytes
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        let mut inner = self.inner.lock();
        if upto.0 <= inner.base {
            return Ok(()); // nothing to drop
        }
        let keep: Vec<(Lsn, Vec<u8>)> = Self::read_locked(&mut inner)?
            .into_iter()
            .filter(|(lsn, _)| *lsn > upto)
            .collect();
        let new_base = upto.0.min(inner.count);
        // Rewrite through a temp file, then rename into place.
        let tmp_path = inner.path.with_extension("wal.tmp");
        {
            let mut tmp = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            tmp.write_all(&FILE_MAGIC.to_le_bytes())?;
            tmp.write_all(&new_base.to_le_bytes())?;
            let mut bytes = 0u64;
            for (_, payload) in &keep {
                tmp.write_all(&(payload.len() as u32).to_le_bytes())?;
                tmp.write_all(&checksum(payload).to_le_bytes())?;
                tmp.write_all(payload)?;
                bytes += payload.len() as u64 + 8;
            }
            tmp.sync_data()?;
            inner.bytes = bytes;
        }
        std::fs::rename(&tmp_path, &inner.path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&inner.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.writer = BufWriter::new(file);
        inner.base = new_base;
        Ok(())
    }
}

/// A scratch buffer larger than this (a big `Freeze` record's) is not
/// kept for the thread's next append.
const SCRATCH_KEEP: usize = 64 * 1024;

thread_local! {
    /// Per-thread encode buffer of [`LogWriter::append`].
    static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's empty scratch buffer (a fresh one should
/// `f` somehow re-enter).
fn with_scratch<T>(f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            let out = f(&mut buf);
            if buf.capacity() > SCRATCH_KEEP {
                *buf = Vec::new();
            }
            out
        }
        Err(_) => f(&mut Vec::new()),
    })
}

/// Leader/follower state of a [`LogWriter`]'s barrier.
#[derive(Default)]
struct Barrier {
    /// Every record up to this LSN is durable.
    durable: u64,
    /// Whether a leader is syncing now.
    syncing: bool,
}

/// Typed writer over a sink: encodes records, and owns the log's one
/// durability barrier ([`flush_to`](Self::flush_to)).
pub struct LogWriter<R> {
    sink: std::sync::Arc<dyn LogSink>,
    barrier: Mutex<Barrier>,
    synced: Condvar,
    /// Optional latency histograms (nanoseconds) for appends and device
    /// syncs; attached by the engine's observability layer. Held as
    /// bare histograms so this crate stays independent of `btrim-obs`.
    append_hist: Option<std::sync::Arc<btrim_common::LatencyHistogram>>,
    flush_hist: Option<std::sync::Arc<btrim_common::LatencyHistogram>>,
    _marker: std::marker::PhantomData<fn(R)>,
}

impl<R> LogWriter<R>
where
    R: crate::record::Encodable,
{
    /// Wrap a sink. Nothing counts as durable until the first barrier:
    /// a reopened sink's records may still sit in a volatile cache.
    pub fn new(sink: std::sync::Arc<dyn LogSink>) -> Self {
        LogWriter {
            sink,
            barrier: Mutex::with_rank(parking_lot::lock_rank::GROUP_COMMIT, Barrier::default()),
            synced: Condvar::new(),
            append_hist: None,
            flush_hist: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Attach append/sync latency histograms (builder style, like the
    /// buffer cache's `with_io_retry`).
    pub fn with_histograms(
        mut self,
        append: Option<std::sync::Arc<btrim_common::LatencyHistogram>>,
        flush: Option<std::sync::Arc<btrim_common::LatencyHistogram>>,
    ) -> Self {
        self.append_hist = append;
        self.flush_hist = flush;
        self
    }

    /// The underlying sink.
    pub fn sink(&self) -> &std::sync::Arc<dyn LogSink> {
        &self.sink
    }

    /// Append one record, encoded into this thread's reused buffer.
    pub fn append(&self, record: &R) -> Result<Lsn> {
        let t = self.append_hist.as_ref().map(|_| std::time::Instant::now());
        let out = with_scratch(|buf| {
            record.encode_into(buf);
            self.sink.append(buf)
        });
        if let (Some(h), Some(t)) = (&self.append_hist, t) {
            h.record(t.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Append pre-encoded records as one atomic batch (one latency
    /// sample covers the whole batch — it is one sink operation).
    pub fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        let t = self.append_hist.as_ref().map(|_| std::time::Instant::now());
        let out = self.sink.append_batch(payloads);
        if let (Some(h), Some(t)) = (&self.append_hist, t) {
            h.record(t.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Make every record appended so far durable, whoever appended it
    /// (straight through [`sink`](Self::sink) included).
    pub fn flush(&self) -> Result<()> {
        // The sink's last LSN, read before the barrier lock: the sink's
        // own lock ranks below it.
        self.flush_to(Lsn(self.sink.record_count()))
    }

    /// Every record up to `lsn` durable so far.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.barrier.lock().durable)
    }

    /// Return once every record up to `lsn` is durable. A caller that
    /// finds no sync in flight leads: one device sync covers every
    /// record appended by the time it starts, concurrent callers whose
    /// records it covers return without one, and the rest wait to lead
    /// the next. A caller already covered never touches the device. A
    /// failed sync fails its leader; each waiter then retries it. `lsn`
    /// is one this log has handed out (or zero).
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        let mut b = self.barrier.lock();
        while b.durable < lsn.0 {
            if b.syncing {
                self.synced.wait(&mut b);
                continue;
            }
            b.syncing = true;
            drop(b);
            let covers = self.sink.record_count();
            let t = self.flush_hist.as_ref().map(|_| std::time::Instant::now());
            let result = self.sink.flush();
            if let (Some(h), Some(t)) = (&self.flush_hist, t) {
                h.record(t.elapsed().as_nanos() as u64);
            }
            b = self.barrier.lock();
            b.syncing = false;
            if result.is_ok() {
                b.durable = b.durable.max(covers);
            }
            self.synced.notify_all();
            result?;
        }
        Ok(())
    }

    /// Decode every intact record.
    pub fn read_all(&self) -> Result<Vec<(Lsn, R)>> {
        self.sink
            .read_all()?
            .into_iter()
            .map(|(lsn, bytes)| R::decode(&bytes).map(|r| (lsn, r)))
            .collect()
    }

    /// Decode records until the first one that fails, returning the
    /// decodable prefix plus the number of records dropped behind it.
    ///
    /// Frame-level corruption is already truncated by the sink's checksum
    /// contract; this extends the same truncate-at-first-bad-record
    /// policy to the decode layer, so recovery can salvage the intact
    /// prefix of a log whose tail carries a corrupt (but checksum-framed)
    /// record instead of failing wholesale.
    pub fn read_all_salvage(&self) -> Result<(Vec<(Lsn, R)>, u64)> {
        let raw = self.sink.read_all()?;
        let total = raw.len();
        let mut out = Vec::with_capacity(total);
        for (lsn, bytes) in raw {
            match R::decode(&bytes) {
                Ok(r) => out.push((lsn, r)),
                Err(_) => break,
            }
        }
        let dropped = (total - out.len()) as u64;
        Ok((out, dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memlog_append_read_roundtrip() {
        let log = MemLog::new();
        assert_eq!(log.append(b"one").unwrap(), Lsn(1));
        assert_eq!(log.append(b"two").unwrap(), Lsn(2));
        let all = log.read_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (Lsn(1), b"one".to_vec()));
        assert_eq!(all[1], (Lsn(2), b"two".to_vec()));
        assert_eq!(log.record_count(), 2);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("btrim-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn filelog_roundtrip_and_reopen() {
        let path = tmp("log1.wal");
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta").unwrap();
            log.flush().unwrap();
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.record_count(), 2);
            let all = log.read_all().unwrap();
            assert_eq!(all[1].1, b"beta");
            // Appends continue the sequence.
            assert_eq!(log.append(b"gamma").unwrap(), Lsn(3));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filelog_tolerates_torn_tail() {
        let path = tmp("log2.wal");
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"good record").unwrap();
            log.flush().unwrap();
        }
        // Simulate a torn write: append garbage half-frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[42u8; 7]).unwrap();
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.record_count(), 1, "torn tail ignored");
            let all = log.read_all().unwrap();
            assert_eq!(all.len(), 1);
            assert_eq!(all[0].1, b"good record");
            // New appends after the truncated tail still read back.
            log.append(b"after crash").unwrap();
            assert_eq!(log.read_all().unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_leaves_no_torn_frame_behind() {
        let path = tmp("log5.wal");
        let log = FileLog::open(&path).unwrap();
        log.append(b"keep").unwrap();
        log.flush().unwrap();
        {
            // Simulate an append that failed mid-frame: part of the
            // frame already flushed to the file, part still buffered.
            let mut inner = log.inner.lock();
            inner.writer.write_all(&[0xAB; 5]).unwrap();
            inner.writer.flush().unwrap();
            inner.writer.write_all(&[0xCD; 3]).unwrap();
            FileLog::discard_partial_append(&mut inner);
        }
        // Later appends land right after the last intact record, and
        // neither the live reader nor a reopen scan sees torn bytes.
        log.append(b"after").unwrap();
        log.flush().unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(
            all,
            vec![(Lsn(1), b"keep".to_vec()), (Lsn(2), b"after".to_vec())]
        );
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.record_count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_all_salvage_truncates_at_first_bad_decode() {
        use crate::record::PageLogRecord;
        use btrim_common::TxnId;
        let sink = std::sync::Arc::new(MemLog::new());
        let w: LogWriter<PageLogRecord> = LogWriter::new(sink.clone());
        w.append(&PageLogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.append(&PageLogRecord::Abort { txn: TxnId(1) }).unwrap();
        // A checksum-framed but undecodable record mid-log (e.g. written by
        // a lying device), followed by a good one.
        sink.append(&[0xFF, 0xFF]).unwrap();
        w.append(&PageLogRecord::Begin { txn: TxnId(2) }).unwrap();

        assert!(w.read_all().is_err(), "strict read fails wholesale");
        let (salvaged, dropped) = w.read_all_salvage().unwrap();
        assert_eq!(salvaged.len(), 2, "intact prefix survives");
        assert_eq!(dropped, 2, "bad record and everything behind it drop");
        assert_eq!(salvaged[1].1, PageLogRecord::Abort { txn: TxnId(1) });
    }

    #[test]
    fn filelog_detects_corrupt_payload() {
        let path = tmp("log3.wal");
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"aaaa").unwrap();
            log.append(b"bbbb").unwrap();
            log.flush().unwrap();
        }
        // Flip a byte in the second record's payload.
        {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut data = Vec::new();
            f.read_to_end(&mut data).unwrap();
            let last = data.len() - 1;
            data[last] ^= 0xFF;
            f.seek(SeekFrom::Start(0)).unwrap();
            f.write_all(&data).unwrap();
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.record_count(), 1, "corrupt record dropped");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("btrim-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn memlog_batch_roundtrip_and_single_lock() {
        let log = MemLog::new();
        log.append(b"solo").unwrap();
        let locks_before = log.append_lock_acquisitions();
        let range = log
            .append_batch(&[b"a".as_ref(), b"bb".as_ref(), b"ccc".as_ref()])
            .unwrap();
        assert_eq!(
            range,
            LsnRange {
                first: Lsn(2),
                last: Lsn(4)
            }
        );
        assert_eq!(range.len(), 3);
        assert_eq!(
            log.append_lock_acquisitions() - locks_before,
            1,
            "one lock acquisition for the whole batch"
        );
        let all = log.read_all().unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[2], (Lsn(3), b"bb".to_vec()));
        // Sequence continues after the batch.
        assert_eq!(log.append(b"tail").unwrap(), Lsn(5));
        assert!(log.append_batch(&[]).is_err(), "empty batch rejected");
    }

    #[test]
    fn filelog_batch_roundtrip_reopen_and_single_lock() {
        let path = tmp("b1.wal");
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"pre").unwrap();
            let locks_before = log.append_lock_acquisitions();
            let range = log
                .append_batch(&[b"one".as_ref(), b"two".as_ref(), b"three".as_ref()])
                .unwrap();
            assert_eq!(
                range,
                LsnRange {
                    first: Lsn(2),
                    last: Lsn(4)
                }
            );
            assert_eq!(log.append_lock_acquisitions() - locks_before, 1);
            log.append(b"post").unwrap();
            log.flush().unwrap();
            assert_eq!(log.read_all().unwrap().len(), 5);
        }
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.record_count(), 5);
        let all = log.read_all().unwrap();
        assert_eq!(all[1], (Lsn(2), b"one".to_vec()));
        assert_eq!(all[4], (Lsn(5), b"post".to_vec()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_batch_drops_whole_batch_never_a_prefix() {
        let path = tmp("b2.wal");
        let full_len;
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"keeper").unwrap();
            log.flush().unwrap();
            log.append_batch(&[
                b"r1-aaaa".as_ref(),
                b"r2-bbbb".as_ref(),
                b"r3-cccc".as_ref(),
            ])
            .unwrap();
            log.flush().unwrap();
            full_len = std::fs::metadata(&path).unwrap().len();
        }
        // Tear the batch frame at every possible byte boundary — after
        // the sentinel, inside the header, after one payload, one byte
        // short of complete. The whole batch must vanish every time;
        // the record before it must survive.
        let batch_start = full_len - (BATCH_HEADER_LEN as u64 + 3 * 4 + 3 * 7);
        for cut in batch_start..full_len {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let log = FileLog::open(&path).unwrap();
            let all = log.read_all().unwrap();
            assert_eq!(all.len(), 1, "cut at {cut}: batch must drop whole");
            assert_eq!(all[0].1, b"keeper");
            // Restore the full file for the next cut.
            drop(log);
            let log = FileLog::open(&path).unwrap();
            log.append_batch(&[
                b"r1-aaaa".as_ref(),
                b"r2-bbbb".as_ref(),
                b"r3-cccc".as_ref(),
            ])
            .unwrap();
            log.flush().unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_batch_crc_drops_whole_batch() {
        let path = tmp("b3.wal");
        {
            let log = FileLog::open(&path).unwrap();
            log.append(b"first").unwrap();
            log.append_batch(&[b"xx".as_ref(), b"yy".as_ref()]).unwrap();
            log.flush().unwrap();
        }
        // Flip a byte in the batch body (the last payload byte).
        {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let end = f.metadata().unwrap().len();
            f.seek(SeekFrom::Start(end - 1)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(end - 1)).unwrap();
            f.write_all(&[b[0] ^ 0xFF]).unwrap();
        }
        let log = FileLog::open(&path).unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(all.len(), 1, "both batch records gone, not just one");
        assert_eq!(all[0].1, b"first");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_header_magic_is_corrupt() {
        // The retired pre-batching magic ("BTRIMWAL") stands in for any
        // header this build does not write: a typed error, never a
        // guess at the framing behind it.
        let path = tmp("b4.wal");
        let mut file = 0x4254_5249_4D57_414Cu64.to_le_bytes().to_vec();
        file.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            FileLog::open(&path),
            Err(btrim_common::BtrimError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// A log the CRC-32 build wrote ("BTRIMWA2", intact frames) fails
    /// loudly and stays as it was: read with this build's checksum every
    /// frame would look torn, and `open` would truncate them all.
    #[test]
    fn a_crc32_framed_log_is_corrupt_and_left_untouched() {
        fn crc32_bitwise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let path = tmp("b5.wal");
        let mut file = 0x4254_5249_4D57_4132u64.to_le_bytes().to_vec();
        file.extend_from_slice(&0u64.to_le_bytes());
        for payload in [b"first".as_ref(), b"second".as_ref()] {
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(&crc32_bitwise(payload).to_le_bytes());
            file.extend_from_slice(payload);
        }
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            FileLog::open(&path),
            Err(btrim_common::BtrimError::Corrupt(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            file,
            "the old log is kept whole"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// A log the previous record vocabulary wrote ("BTRIMWA3", frames
    /// intact under this build's checksum) fails loudly and stays as it
    /// was: salvage would cut it at its first retired record (a page
    /// log's checkpoint pair, an IMRS log's loser list) and drop the rest.
    #[test]
    fn a_log_of_the_retired_record_kinds_is_corrupt_and_left_untouched() {
        let path = tmp("b6.wal");
        let mut file = 0x4254_5249_4D57_4133u64.to_le_bytes().to_vec();
        file.extend_from_slice(&0u64.to_le_bytes());
        for payload in [[7u8; 13].as_ref(), [8u8; 9].as_ref()] {
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(&checksum(payload).to_le_bytes());
            file.extend_from_slice(payload);
        }
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            FileLog::open(&path),
            Err(btrim_common::BtrimError::Corrupt(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            file,
            "the old log is kept whole"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_single_record_rejected() {
        // The sentinel value must stay unambiguous: a single append may
        // never write a length that collides with it. (Allocating a real
        // 4 GiB payload is not testable; the guard is on the length.)
        let log = MemLog::new();
        // MemLog has no framing, so only FileLog guards; check the
        // batch path still counts records correctly near the boundary.
        let range = log.append_batch(&[b"ok".as_ref()]).unwrap();
        assert_eq!(range.first, range.last);
    }

    #[test]
    fn truncate_prefix_preserves_batch_survivors() {
        let path = tmp("b7.wal");
        let log = FileLog::open(&path).unwrap();
        log.append(b"a").unwrap();
        log.append_batch(&[b"b".as_ref(), b"c".as_ref(), b"d".as_ref()])
            .unwrap();
        // Truncate through the middle of what was a batch: survivors
        // keep their LSNs (the rewrite re-frames them per-record, which
        // is fine — they are durable, acknowledged records by then).
        log.truncate_prefix(Lsn(3)).unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(all, vec![(Lsn(4), b"d".to_vec())]);
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), vec![(Lsn(4), b"d".to_vec())]);
        assert_eq!(log.append(b"e").unwrap(), Lsn(5));
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod truncation_tests {
    use super::*;

    #[test]
    fn memlog_truncation_keeps_lsns_stable() {
        let log = MemLog::new();
        for i in 0..10u8 {
            log.append(&[i]).unwrap();
        }
        log.truncate_prefix(Lsn(4)).unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], (Lsn(5), vec![4u8]));
        assert_eq!(all[5], (Lsn(10), vec![9u8]));
        // Appends continue the global sequence.
        assert_eq!(log.append(b"x").unwrap(), Lsn(11));
        assert_eq!(log.record_count(), 11);
        // Truncating an already-dropped prefix is a no-op.
        log.truncate_prefix(Lsn(2)).unwrap();
        assert_eq!(log.read_all().unwrap().len(), 7);
    }

    /// Records of a third of a chunk and one larger than a chunk: the
    /// log spans several chunks, truncation drops them whole, and the
    /// survivors keep their LSNs, bytes and accounting.
    #[test]
    fn memlog_chunks_truncate_whole_and_keep_lsns_and_bytes() {
        let log = MemLog::new();
        let third = MEM_CHUNK / 3;
        let rec = |i: usize, len: usize| vec![i as u8; len];
        for i in 0..7 {
            log.append(&rec(i, third)).unwrap();
        }
        let big = rec(99, MEM_CHUNK + 5);
        assert_eq!(log.append(&big).unwrap(), Lsn(8), "larger than a chunk");
        let range = log
            .append_batch(&[&rec(8, 10)[..], &rec(9, 0)[..], &rec(10, third)[..]])
            .unwrap();
        assert_eq!((range.first, range.last), (Lsn(9), Lsn(11)));
        let frame = |len: usize| len as u64 + 8;
        let total = 7 * frame(third) + frame(big.len()) + frame(10) + frame(0) + frame(third);
        assert_eq!(log.byte_size(), total);
        assert!(log.inner.lock().chunks.len() >= 4);

        // Through the middle of the second chunk.
        log.truncate_prefix(Lsn(5)).unwrap();
        let all = log.read_all().unwrap();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], (Lsn(6), rec(5, third)));
        assert_eq!(all[2], (Lsn(8), big.clone()));
        assert_eq!(all[3], (Lsn(9), rec(8, 10)));
        assert_eq!(all[4], (Lsn(10), vec![]));
        assert_eq!(log.byte_size(), total - 5 * frame(third));
        assert_eq!(log.record_count(), 11);
        assert_eq!(
            log.inner.lock().first_chunk,
            1,
            "the first chunk went whole"
        );

        // Through the big record; appends continue the sequence.
        log.truncate_prefix(Lsn(8)).unwrap();
        assert_eq!(log.read_all().unwrap()[0], (Lsn(9), rec(8, 10)));
        assert_eq!(log.append(b"tail").unwrap(), Lsn(12));
        assert_eq!(
            log.byte_size(),
            frame(10) + frame(0) + frame(third) + frame(4)
        );

        // Everything: the log is empty, LSNs still count on.
        log.truncate_prefix(Lsn(12)).unwrap();
        assert!(log.read_all().unwrap().is_empty());
        assert_eq!((log.byte_size(), log.inner.lock().chunks.len()), (0, 1));
        assert_eq!(log.append(b"again").unwrap(), Lsn(13));
        assert_eq!(log.read_all().unwrap(), vec![(Lsn(13), b"again".to_vec())]);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("btrim-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn filelog_truncation_survives_reopen() {
        let path = tmp("t1.wal");
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..10u8 {
                log.append(&[i; 3]).unwrap();
            }
            let bytes_before = log.byte_size();
            log.truncate_prefix(Lsn(7)).unwrap();
            assert!(log.byte_size() < bytes_before, "bytes reclaimed");
            let all = log.read_all().unwrap();
            assert_eq!(all.len(), 3);
            assert_eq!(all[0], (Lsn(8), vec![7u8; 3]));
            // Appends keep the sequence after truncation.
            assert_eq!(log.append(b"new").unwrap(), Lsn(11));
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.record_count(), 11);
            let all = log.read_all().unwrap();
            assert_eq!(all.first().unwrap().0, Lsn(8));
            assert_eq!(all.last().unwrap(), &(Lsn(11), b"new".to_vec()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filelog_truncate_everything_then_append() {
        let path = tmp("t2.wal");
        let log = FileLog::open(&path).unwrap();
        for i in 0..5u8 {
            log.append(&[i]).unwrap();
        }
        log.truncate_prefix(Lsn(5)).unwrap();
        assert!(log.read_all().unwrap().is_empty());
        assert_eq!(log.append(b"a").unwrap(), Lsn(6));
        assert_eq!(log.read_all().unwrap(), vec![(Lsn(6), b"a".to_vec())]);
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::record::PageLogRecord;
    use btrim_common::atomics::SeqCst;
    use std::sync::Arc;

    /// A sink that counts device syncs, notes how many records each one
    /// saw, and makes each take `delay`, so that concurrent committers
    /// pile up behind the leader.
    struct CountingSink {
        inner: MemLog,
        delay: std::time::Duration,
        flushes: Relaxed<u64>,
        seen_at_flush: Relaxed<u64>,
    }

    impl CountingSink {
        fn new(delay_ms: u64) -> Arc<Self> {
            Arc::new(CountingSink {
                inner: MemLog::new(),
                delay: std::time::Duration::from_millis(delay_ms),
                flushes: Relaxed::new(0),
                seen_at_flush: Relaxed::new(0),
            })
        }
    }

    impl LogSink for CountingSink {
        fn append(&self, payload: &[u8]) -> Result<Lsn> {
            self.inner.append(payload)
        }
        fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
            self.inner.append_batch(payloads)
        }
        fn flush(&self) -> Result<()> {
            self.flushes.fetch_add(1);
            self.seen_at_flush.store(self.inner.record_count());
            std::thread::sleep(self.delay);
            self.inner.flush()
        }
        fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
            self.inner.read_all()
        }
        fn record_count(&self) -> u64 {
            self.inner.record_count()
        }
        fn byte_size(&self) -> u64 {
            self.inner.byte_size()
        }
        fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
            self.inner.truncate_prefix(upto)
        }
    }

    fn writer(sink: &Arc<impl LogSink + 'static>) -> LogWriter<PageLogRecord> {
        LogWriter::new(sink.clone())
    }

    #[test]
    fn single_committer_flushes_once() {
        let sink = CountingSink::new(5);
        let w = writer(&sink);
        sink.append(b"r").unwrap();
        w.flush().unwrap();
        assert_eq!(sink.flushes.load(), 1);
        assert_eq!(w.durable_lsn(), Lsn(1));
    }

    #[test]
    fn concurrent_commits_share_syncs() {
        let sink = CountingSink::new(5);
        let w = writer(&sink);
        let committers = 16;
        let per = 10;
        std::thread::scope(|s| {
            for t in 0..committers {
                let (w, sink) = (&w, &sink);
                s.spawn(move || {
                    for i in 0..per {
                        sink.append(&[t as u8, i as u8]).unwrap();
                        w.flush().unwrap();
                    }
                });
            }
        });
        let total_commits = (committers * per) as u64;
        let syncs = sink.flushes.load();
        assert!(syncs >= 1);
        assert!(
            syncs < total_commits / 2,
            "group commit must coalesce: {syncs} syncs for {total_commits} commits"
        );
        assert_eq!(sink.record_count(), total_commits);
        assert_eq!(w.durable_lsn(), Lsn(total_commits));
    }

    /// A sink whose flushes block until the device "dies", then fail —
    /// and keep failing — so concurrent committers are caught mid-sync.
    struct DyingSink {
        inner: MemLog,
        dead: SeqCst<bool>,
        entered: SeqCst<u64>,
    }

    impl LogSink for DyingSink {
        fn append(&self, payload: &[u8]) -> Result<Lsn> {
            self.inner.append(payload)
        }
        fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
            self.inner.append_batch(payloads)
        }
        fn flush(&self) -> Result<()> {
            self.entered.fetch_add(1);
            // Hold the leader in the sync until the device dies.
            while !self.dead.load() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(btrim_common::BtrimError::Io(std::io::Error::other(
                "log device died mid-sync",
            )))
        }
        fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
            self.inner.read_all()
        }
        fn record_count(&self) -> u64 {
            self.inner.record_count()
        }
        fn byte_size(&self) -> u64 {
            self.inner.byte_size()
        }
        fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
            self.inner.truncate_prefix(upto)
        }
    }

    #[test]
    fn device_death_mid_sync_errors_leader_and_all_followers() {
        let sink = Arc::new(DyingSink {
            inner: MemLog::new(),
            dead: SeqCst::new(false),
            entered: SeqCst::new(0),
        });
        let w = Arc::new(writer(&sink));
        let committers = 8;
        let (tx, rx) = std::sync::mpsc::channel::<Result<()>>();
        let mut handles = Vec::new();
        for t in 0..committers {
            let w = Arc::clone(&w);
            let sink = Arc::clone(&sink);
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                sink.append(&[t as u8]).unwrap();
                let _ = tx.send(w.flush());
            }));
        }
        drop(tx);
        // Let a leader enter the sync and followers pile up on the
        // condvar, then kill the device.
        while sink.entered.load() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        sink.dead.store(true);
        // Every committer must return an error *promptly* — nobody may
        // hang on the condvar waiting for a flush that will never come.
        let deadline = std::time::Duration::from_secs(10);
        for _ in 0..committers {
            match rx.recv_timeout(deadline) {
                Ok(res) => assert!(res.is_err(), "sync died: the barrier must fail"),
                Err(_) => panic!("a committer is stranded on the condvar"),
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        // Followers that woke to a failed leader retried as leaders
        // themselves and hit the dead device; the sync was attempted at
        // least once, nobody was left syncing and nothing counts as
        // durable.
        assert!(sink.entered.load() >= 1);
        assert!(!w.barrier.lock().syncing);
        assert_eq!(w.durable_lsn(), Lsn(0));
    }

    #[test]
    fn a_barrier_covers_a_batchs_lsn_range() {
        // A batch reserves its whole LSN range before the barrier reads
        // the sink's last LSN, so one sync covers every record of it.
        let sink = CountingSink::new(0);
        let w = writer(&sink);
        let range = sink
            .append_batch(&[b"a".as_ref(), b"b".as_ref(), b"c".as_ref(), b"d".as_ref()])
            .unwrap();
        w.flush_to(range.last).unwrap();
        assert!(
            sink.seen_at_flush.load() >= range.last.0,
            "sync must cover the whole batch LSN range"
        );
        assert_eq!(w.durable_lsn(), range.last);
    }

    #[test]
    fn sequential_commits_each_get_their_own_sync() {
        let sink = CountingSink::new(0);
        let w = writer(&sink);
        for i in 0..5u8 {
            sink.append(&[i]).unwrap();
            w.flush().unwrap();
        }
        // No concurrency to coalesce: every commit sync is real.
        assert_eq!(sink.flushes.load(), 5);
    }

    #[test]
    fn a_barrier_with_nothing_new_to_cover_issues_no_sync() {
        let sink = CountingSink::new(0);
        let w = writer(&sink);
        // An empty log is durable as it stands.
        w.flush().unwrap();
        assert_eq!(sink.flushes.load(), 0);
        let txn = btrim_common::TxnId(1);
        let first = w.append(&PageLogRecord::Begin { txn }).unwrap();
        let second = w.append(&PageLogRecord::Abort { txn }).unwrap();
        // Waiting for the first record syncs both.
        w.flush_to(first).unwrap();
        assert_eq!(sink.flushes.load(), 1);
        w.flush_to(second).unwrap();
        w.flush().unwrap();
        w.flush_to(Lsn::ZERO).unwrap();
        assert_eq!(sink.flushes.load(), 1, "nothing appended since the sync");
        assert_eq!(w.durable_lsn(), second);
    }

    #[test]
    fn a_barrier_credits_records_appended_straight_through_the_sink() {
        let sink = CountingSink::new(0);
        let w = writer(&sink);
        w.sink().append(b"raw").unwrap();
        w.sink()
            .append_batch(&[b"x".as_ref(), b"y".as_ref()])
            .unwrap();
        w.flush().unwrap();
        assert_eq!((sink.flushes.load(), w.durable_lsn()), (1, Lsn(3)));
        w.flush_to(Lsn(3)).unwrap();
        assert_eq!(sink.flushes.load(), 1);
    }
}
