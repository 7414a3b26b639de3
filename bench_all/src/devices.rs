//! Benchmark-owned wrappers around the engine's two device traits.
//!
//! [`SpanLog`] wraps a [`LogSink`] and [`SpanDisk`] a [`DiskBackend`].
//! Each does three jobs from outside the engine:
//!
//! * **count** — calls, records and bytes, always on (relaxed adds), so
//!   the exact per-transaction counts are the same in both runs;
//! * **time** — with the shared [`Tracer`] on, every call becomes a
//!   child span of the open top-level span; with it off the call passes
//!   straight through after one branch;
//! * **crash** — remember what the device had made durable at the last
//!   completed `flush()` / `sync()`, and on [`crash`](SpanLog::crash)
//!   throw away everything newer: a log is cut back to the records it
//!   held at the last flush, and every page written since the last sync
//!   gets its pre-image back. Keeping pre-images costs a lock, a map
//!   look-up and sometimes a page copy per write, so a disk keeps them
//!   only when it was opened to be crashed; otherwise a write is counted
//!   and forwarded.
//!
//! The devices underneath are the engine's in-memory ones. A real
//! `fsync` on this host's virtual disk moved `tpcc_durable`'s latencies
//! by 25–30 % between runs of the same build, more than any bound could
//! resolve, so the durability barrier is simulated instead: a completed
//! `flush()` / `sync()` busy-waits for a fixed [`barrier`](SpanLog::open)
//! time. What is measured is how often the engine pays the barrier, not
//! how fast this sandbox's disk happens to be.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use btrim_common::{BtrimError, Lsn, PageId, Result};
use btrim_pagestore::{DiskBackend, MemDisk, PAGE_SIZE};
use btrim_wal::{LogSink, LsnRange, MemLog};

use crate::trace::{Kind, Tracer};

/// The simulated durability barrier: spin until `barrier` has passed
/// since `since`. Spinning, not sleeping: a sleep's wake-up jitter is as
/// large as the barrier itself, and the one client thread has nothing
/// else to run.
fn wait_out(barrier: Duration, since: Instant) {
    while since.elapsed() < barrier {
        std::hint::spin_loop();
    }
}

/// Always-on counters of a [`SpanLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogCounts {
    /// `append` + `append_batch` calls.
    pub append_calls: u64,
    /// Records appended.
    pub records: u64,
    /// Payload bytes appended (frames excluded).
    pub bytes: u64,
    /// Completed `flush` calls.
    pub flushes: u64,
}

/// A [`LogSink`] that counts, optionally times, and can crash.
pub struct SpanLog {
    inner: MemLog,
    tracer: Arc<Tracer>,
    barrier: Duration,
    append_calls: AtomicU64,
    records: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
    /// `record_count()` of the inner log when the last completed flush
    /// began: every record up to here is durable.
    durable_records: AtomicU64,
}

impl SpanLog {
    /// A fresh log whose every completed `flush()` takes at least
    /// `barrier`.
    pub fn open(tracer: Arc<Tracer>, barrier: Duration) -> SpanLog {
        Self::wrap(MemLog::new(), tracer, barrier)
    }

    fn wrap(inner: MemLog, tracer: Arc<Tracer>, barrier: Duration) -> SpanLog {
        let durable_records = inner.record_count();
        SpanLog {
            inner,
            tracer,
            barrier,
            append_calls: AtomicU64::new(0),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            durable_records: AtomicU64::new(durable_records),
        }
    }

    /// The always-on counters.
    pub fn counts(&self) -> LogCounts {
        LogCounts {
            append_calls: self.append_calls.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Records known durable (appended before the last completed flush).
    pub fn durable_records(&self) -> u64 {
        self.durable_records.load(Ordering::Relaxed)
    }

    /// Lose power: drop every record appended after the last completed
    /// flush and hand back the log as a restart would find it. Taking
    /// `self` by value proves the crashed engine no longer holds it.
    pub fn crash(self) -> Result<SpanLog> {
        let durable_records = self.durable_records();
        let kept = self.inner.read_all()?;
        // LSNs are stable across prefix truncation: rebuild the same
        // numbering by re-creating the truncated prefix.
        let base = kept
            .first()
            .map_or(self.inner.record_count(), |(l, _)| l.0 - 1);
        let survivor = MemLog::new();
        for _ in 0..base {
            survivor.append(&[])?;
        }
        if base > 0 {
            survivor.truncate_prefix(Lsn(base))?;
        }
        for (lsn, payload) in kept {
            if lsn.0 <= durable_records {
                survivor.append(&payload)?;
            }
        }
        Ok(Self::wrap(survivor, self.tracer, self.barrier))
    }
}

impl LogSink for SpanLog {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.append_calls.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.tracer
                .child(Kind::LogAppend, || self.inner.append(payload))
        } else {
            self.inner.append(payload)
        }
    }

    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        self.append_calls.fetch_add(1, Ordering::Relaxed);
        self.records
            .fetch_add(payloads.len() as u64, Ordering::Relaxed);
        let bytes: usize = payloads.iter().map(|p| p.len()).sum();
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.tracer
                .child(Kind::LogAppend, || self.inner.append_batch(payloads))
        } else {
            self.inner.append_batch(payloads)
        }
    }

    fn flush(&self) -> Result<()> {
        // Sampled before the flush starts: whatever was appended by then
        // is durable once it returns.
        let records = self.inner.record_count();
        let flush = || -> Result<()> {
            let t0 = Instant::now();
            self.inner.flush()?;
            wait_out(self.barrier, t0);
            Ok(())
        };
        if self.tracer.enabled() {
            self.tracer.child(Kind::LogFlush, flush)?;
        } else {
            flush()?;
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.durable_records.store(records, Ordering::Relaxed);
        Ok(())
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
        // The durable mark is an LSN, which truncation does not move.
        self.inner.truncate_prefix(upto)
    }
}

/// Always-on counters of a [`SpanDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCounts {
    /// `read_page` calls the engine made.
    pub reads: u64,
    /// `write_page` calls.
    pub writes: u64,
    /// Completed `sync` calls.
    pub syncs: u64,
    /// Pages allocated.
    pub allocs: u64,
    /// Extra inner reads the wrapper made to save pre-images.
    pub preimage_reads: u64,
}

/// A [`DiskBackend`] that counts, optionally times, and can crash.
pub struct SpanDisk {
    inner: Arc<dyn DiskBackend>,
    tracer: Arc<Tracer>,
    barrier: Duration,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    allocs: AtomicU64,
    preimage_reads: AtomicU64,
    /// Content, as of the last completed sync, of every page written
    /// since then; `None` on a device that will never be crashed.
    preimages: Option<Mutex<Preimages>>,
}

type Preimages = HashMap<u32, Box<[u8]>>;

// Every update leaves the map valid, so a poisoned lock is safe to reuse.
fn locked(map: &Mutex<Preimages>) -> std::sync::MutexGuard<'_, Preimages> {
    map.lock().unwrap_or_else(|e| e.into_inner())
}

impl SpanDisk {
    /// A fresh device whose every completed `sync()` takes at least
    /// `barrier`. Only a `crashable` one keeps pre-images and can
    /// [`crash`](SpanDisk::crash).
    pub fn open(tracer: Arc<Tracer>, barrier: Duration, crashable: bool) -> SpanDisk {
        Self::wrap(Arc::new(MemDisk::new()), tracer, barrier, crashable)
    }

    /// Wrap an existing device.
    pub fn wrap(
        inner: Arc<dyn DiskBackend>,
        tracer: Arc<Tracer>,
        barrier: Duration,
        crashable: bool,
    ) -> SpanDisk {
        SpanDisk {
            inner,
            tracer,
            barrier,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            preimage_reads: AtomicU64::new(0),
            preimages: crashable.then(Mutex::default),
        }
    }

    /// The always-on counters.
    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            preimage_reads: self.preimage_reads.load(Ordering::Relaxed),
        }
    }

    /// Pages written since the last completed sync, as far as the device
    /// tracks them.
    pub fn unsynced_pages(&self) -> usize {
        self.preimages.as_ref().map_or(0, |map| locked(map).len())
    }

    /// Lose power: every page written since the last completed sync
    /// goes back to what the device held at that sync. Returns how many
    /// pages were rolled back.
    pub fn crash(&self) -> Result<usize> {
        let map = self.preimages.as_ref().ok_or_else(|| {
            BtrimError::Invalid("crash of a disk that was not opened crashable".into())
        })?;
        let lost = std::mem::take(&mut *locked(map));
        for (id, image) in &lost {
            self.inner.write_page(PageId(*id), image)?;
        }
        self.inner.sync()?;
        Ok(lost.len())
    }

    fn save_preimage(&self, map: &Mutex<Preimages>, id: PageId) -> Result<()> {
        if let std::collections::hash_map::Entry::Vacant(slot) = locked(map).entry(id.0) {
            let mut image = vec![0u8; PAGE_SIZE].into_boxed_slice();
            self.inner.read_page(id, &mut image)?;
            self.preimage_reads.fetch_add(1, Ordering::Relaxed);
            slot.insert(image);
        }
        Ok(())
    }
}

impl DiskBackend for SpanDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.tracer
                .child(Kind::DiskRead, || self.inner.read_page(id, buf))
        } else {
            self.inner.read_page(id, buf)
        }
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != PAGE_SIZE {
            return Err(BtrimError::ShortBuffer {
                expected: PAGE_SIZE,
                got: buf.len(),
            });
        }
        if let Some(map) = &self.preimages {
            self.save_preimage(map, id)?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.tracer
                .child(Kind::DiskWrite, || self.inner.write_page(id, buf))
        } else {
            self.inner.write_page(id, buf)
        }
    }

    fn allocate_page(&self) -> Result<PageId> {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        // Pages written while the sync runs must keep their pre-images,
        // so the set is taken first and put back if the sync fails.
        let covered = self
            .preimages
            .as_ref()
            .map(|map| std::mem::take(&mut *locked(map)));
        let sync = || -> Result<()> {
            let t0 = Instant::now();
            self.inner.sync()?;
            wait_out(self.barrier, t0);
            Ok(())
        };
        let synced = if self.tracer.enabled() {
            self.tracer.child(Kind::DiskSync, sync)
        } else {
            sync()
        };
        match synced {
            Ok(()) => {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if let (Some(map), Some(covered)) = (&self.preimages, covered) {
                    let mut map = locked(map);
                    for (id, image) in covered {
                        map.entry(id).or_insert(image);
                    }
                }
                Err(e)
            }
        }
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_BARRIER: Duration = Duration::ZERO;

    fn payloads(log: &dyn LogSink) -> Vec<Vec<u8>> {
        log.read_all()
            .unwrap()
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    #[test]
    fn crash_drops_the_unflushed_tail() {
        let log = SpanLog::open(Arc::new(Tracer::new()), NO_BARRIER);
        log.append(b"one").unwrap();
        log.append_batch(&[b"two", b"three"]).unwrap();
        log.flush().unwrap();
        log.append(b"lost").unwrap();
        log.append_batch(&[b"also", b"lost"]).unwrap();
        assert_eq!(log.counts().records, 6);
        assert_eq!(log.counts().append_calls, 4);
        assert_eq!(log.counts().records, log.record_count());
        assert_eq!(log.durable_records(), 3);

        let log = log.crash().unwrap();
        assert_eq!(
            payloads(&log),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        // The survivor keeps numbering where the durable prefix ended.
        assert_eq!(log.append(b"after").unwrap(), Lsn(4));
    }

    #[test]
    fn crash_after_prefix_truncation_keeps_lsns() {
        let log = SpanLog::open(Arc::new(Tracer::new()), NO_BARRIER);
        for i in 0..6u8 {
            log.append(&[i]).unwrap();
        }
        log.flush().unwrap();
        log.truncate_prefix(Lsn(4)).unwrap();
        log.append(&[9]).unwrap(); // never flushed
        let log = log.crash().unwrap();
        let kept = log.read_all().unwrap();
        assert_eq!(
            kept,
            vec![(Lsn(5), vec![4u8]), (Lsn(6), vec![5u8])],
            "truncated prefix stays gone, unflushed tail is dropped"
        );
        assert_eq!(log.append(&[7]).unwrap(), Lsn(7));
    }

    #[test]
    fn crash_restores_the_image_of_the_last_sync() {
        let inner: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let disk = SpanDisk::wrap(
            Arc::clone(&inner),
            Arc::new(Tracer::new()),
            NO_BARRIER,
            true,
        );
        let a = disk.allocate_page().unwrap();
        let b = disk.allocate_page().unwrap();
        let page = |fill: u8| vec![fill; PAGE_SIZE];
        disk.write_page(a, &page(1)).unwrap();
        disk.sync().unwrap();
        assert_eq!(disk.unsynced_pages(), 0);
        disk.write_page(a, &page(2)).unwrap();
        disk.write_page(a, &page(3)).unwrap();
        disk.write_page(b, &page(4)).unwrap();
        assert_eq!(disk.unsynced_pages(), 2);

        let mut buf = page(0);
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page(3), "before the crash the newest write reads back");

        assert_eq!(disk.crash().unwrap(), 2);
        disk.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, page(1), "synced image survives, later writes do not");
        disk.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, page(0), "a page never synced reads as allocated");

        let c = disk.counts();
        assert_eq!((c.reads, c.writes, c.syncs, c.allocs), (3, 4, 1, 2));
        assert_eq!(c.preimage_reads, 3, "a, then a and b after the sync");
        // The engine-visible counts equal the inner device's, once the
        // wrapper's own pre-image reads and crash write-backs are set
        // aside.
        assert_eq!(inner.reads(), c.reads + c.preimage_reads);
        assert_eq!(inner.writes(), c.writes + 2);
        assert_eq!(disk.reads(), c.reads);
        assert_eq!(disk.writes(), c.writes);
    }

    #[test]
    fn a_disk_not_opened_crashable_only_counts_and_forwards() {
        let inner: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let disk = SpanDisk::wrap(
            Arc::clone(&inner),
            Arc::new(Tracer::new()),
            NO_BARRIER,
            false,
        );
        let p = disk.allocate_page().unwrap();
        disk.write_page(p, &vec![1; PAGE_SIZE]).unwrap();
        disk.write_page(p, &vec![2; PAGE_SIZE]).unwrap();
        disk.sync().unwrap();
        let c = disk.counts();
        assert_eq!((c.writes, c.syncs, c.preimage_reads), (2, 1, 0));
        assert_eq!((inner.reads(), inner.writes()), (0, 2));
        assert_eq!(disk.unsynced_pages(), 0);
        assert!(disk.crash().is_err(), "nothing to roll back with");
    }

    #[test]
    fn a_completed_barrier_takes_at_least_its_time() {
        let barrier = Duration::from_micros(300);
        let tracer = Arc::new(Tracer::new());
        let log = SpanLog::open(Arc::clone(&tracer), barrier);
        let disk = SpanDisk::open(tracer, barrier, false);
        let t0 = Instant::now();
        log.append(b"x").unwrap();
        assert!(t0.elapsed() < barrier, "an append pays no barrier");
        let t0 = Instant::now();
        log.flush().unwrap();
        assert!(t0.elapsed() >= barrier);
        let t0 = Instant::now();
        disk.sync().unwrap();
        assert!(t0.elapsed() >= barrier);
    }

    #[test]
    fn tracing_records_one_child_span_per_device_call() {
        let tracer = Arc::new(Tracer::new());
        let log = SpanLog::open(Arc::clone(&tracer), NO_BARRIER);
        let disk = SpanDisk::open(Arc::clone(&tracer), NO_BARRIER, false);
        let p = disk.allocate_page().unwrap();
        // Off: nothing recorded, counters still tick.
        log.append(b"x").unwrap();
        disk.write_page(p, &vec![1; PAGE_SIZE]).unwrap();
        assert!(tracer.drain().is_empty());
        tracer.set_enabled(true);
        log.append(b"y").unwrap();
        log.flush().unwrap();
        disk.write_page(p, &vec![2; PAGE_SIZE]).unwrap();
        disk.read_page(p, &mut vec![0; PAGE_SIZE]).unwrap();
        disk.sync().unwrap();
        let kinds: Vec<Kind> = tracer.drain().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Kind::LogAppend,
                Kind::LogFlush,
                Kind::DiskWrite,
                Kind::DiskRead,
                Kind::DiskSync
            ]
        );
        assert_eq!(log.counts().records, 2);
        assert_eq!(disk.counts().writes, 2);
    }
}
