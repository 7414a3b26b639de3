//! Test doubles shared by the root integration suites, and the one
//! schedule explorer (`explorer`) they are configurations of.
#![allow(dead_code, reason = "each suite uses its own subset")]

pub mod explorer;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use btrim_common::{Lsn, PageId, Result};
use btrim_faults::{FaultPlan, FaultState};
use btrim_pagestore::{DiskBackend, FileDisk};
use btrim_wal::{LogSink, LsnRange, MemLog};

/// The power switch of one machine: the fault harness's fail-stop (a
/// cut at device op `k` fails every device op from then on, disk and
/// both logs alike), plus a cut after a number of log flushes.
pub struct Power {
    pub faults: Arc<FaultState>,
    /// Cut the power once this many more flushes have completed.
    pub cut_after_flushes: AtomicU64,
}

impl Power {
    pub fn new(plan: FaultPlan) -> Arc<Power> {
        Arc::new(Power {
            faults: FaultState::new(plan),
            cut_after_flushes: AtomicU64::new(u64::MAX),
        })
    }

    pub fn off(&self) -> bool {
        self.faults.crashed()
    }
}

/// What a paused flush runs before it completes.
type Pause = Box<dyn FnOnce() + Send>;

/// A [`LogSink`] whose appends are volatile until flushed: once the
/// power is off nothing more becomes durable, and [`VolatileLog::reboot`]
/// is what the next boot finds. The fault harness cannot play this part
/// — its logs are `MemLog`s, durable at append. A flush covers every
/// record appended before it completes, those appended while it was
/// paused included.
pub struct VolatileLog {
    inner: MemLog,
    durable: AtomicU64,
    /// Unflushed records the device kept anyway at the cut (a
    /// `BufWriter` spills without being asked); `u64::MAX`: all of them,
    /// a device durable at append.
    pub spilled: AtomicU64,
    flushes: AtomicU64,
    power: Arc<Power>,
    pause: Mutex<Option<Pause>>,
}

impl VolatileLog {
    pub fn new(power: &Arc<Power>) -> Arc<Self> {
        Arc::new(VolatileLog {
            inner: MemLog::new(),
            durable: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            power: Arc::clone(power),
            pause: Mutex::new(None),
        })
    }

    /// `flush` calls that reached the device (a barrier each).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::SeqCst)
    }

    /// Append calls that reached the log: a batch is one.
    pub fn appends(&self) -> u64 {
        self.inner.append_lock_acquisitions()
    }

    /// Records known durable: appended before the last completed flush.
    pub fn durable_records(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Run `pause` inside the next flush, before it completes.
    pub fn pause_next_flush(&self, pause: Option<Pause>) {
        *self.pause.lock().unwrap() = pause;
    }

    /// What a reboot finds, as a log of its own under `power`: the
    /// durable prefix (plus what spilled), every record of it durable,
    /// each at the LSN it had — a truncated prefix stays truncated.
    pub fn reboot(&self, power: &Arc<Power>) -> Arc<VolatileLog> {
        let spilled = self.spilled.load(Ordering::SeqCst);
        let keep = self.durable_records().saturating_add(spilled);
        let records = self.inner.read_all().unwrap();
        let base = records
            .first()
            .map_or(self.record_count(), |(at, _)| at.0 - 1);
        let kept = records.into_iter().filter(|(at, _)| at.0 <= keep);
        Self::durable_from(power, base.min(keep), kept.map(|(_, p)| p))
    }

    /// A log holding `payloads`, all durable, from LSN 1.
    pub fn durable(power: &Arc<Power>, payloads: &[Vec<u8>]) -> Arc<VolatileLog> {
        Self::durable_from(power, 0, payloads.iter().cloned())
    }

    fn durable_from(
        power: &Arc<Power>,
        base: u64,
        payloads: impl Iterator<Item = Vec<u8>>,
    ) -> Arc<VolatileLog> {
        let log = VolatileLog::new(power);
        for _ in 0..base {
            log.inner.append(&[]).unwrap();
        }
        log.inner.truncate_prefix(Lsn(base)).unwrap();
        for payload in payloads {
            log.inner.append(&payload).unwrap();
        }
        log.durable.store(log.record_count(), Ordering::SeqCst);
        log
    }
}

impl LogSink for VolatileLog {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.inner.append(payload)
    }
    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        self.inner.append_batch(payloads)
    }
    fn flush(&self) -> Result<()> {
        let pause = self.pause.lock().unwrap().take();
        if let Some(pause) = pause {
            pause();
        }
        self.flushes.fetch_add(1, Ordering::SeqCst);
        // A cut while the flush was paused: the barrier never returns.
        if self.power.off() {
            let cut = std::io::Error::other("power cut inside the flush");
            return Err(btrim_common::BtrimError::Io(cut));
        }
        self.durable
            .store(self.inner.record_count(), Ordering::SeqCst);
        if self.power.cut_after_flushes.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.power.faults.crash_now();
        }
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
    /// A truncation rewrites the retained records (a file-backed log
    /// writes them to a new file and syncs it), so it makes them all
    /// durable, as a flush does.
    fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        self.inner.truncate_prefix(upto)?;
        if !self.power.off() {
            self.durable
                .store(self.inner.record_count(), Ordering::SeqCst);
        }
        Ok(())
    }
}

/// A disk (a write is durable once it returns) whose next page write
/// can pause, as a [`VolatileLog`] flush can: the pause runs before the
/// write reaches the device. It wraps any [`DiskBackend`].
pub struct PausableDisk {
    inner: Arc<dyn DiskBackend>,
    pause: Mutex<Option<Pause>>,
}

impl PausableDisk {
    pub fn new(inner: Arc<dyn DiskBackend>) -> Self {
        PausableDisk {
            inner,
            pause: Mutex::new(None),
        }
    }

    /// Run `pause` inside the next page write, before it lands.
    pub fn pause_next_write(&self, pause: Option<Pause>) {
        *self.pause.lock().unwrap() = pause;
    }
}

/// A [`FileDisk`] on a fresh file, unlinked at once: the device lives
/// as long as its handle, and a run leaves no file behind.
pub fn file_disk() -> Arc<dyn DiskBackend> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let name = format!("btrim-explorer-{}-{n}.db", std::process::id());
    let path = std::env::temp_dir().join(name);
    let disk = FileDisk::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    Arc::new(disk)
}

impl DiskBackend for PausableDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let pause = self.pause.lock().unwrap().take();
        if let Some(pause) = pause {
            pause();
        }
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn reads(&self) -> u64 {
        self.inner.reads()
    }
    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}
