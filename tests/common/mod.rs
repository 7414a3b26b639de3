//! Test doubles shared by the root integration suites.
#![allow(dead_code, reason = "each suite uses its own subset")]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use btrim_common::{Lsn, Result};
use btrim_wal::{LogSink, LsnRange, MemLog};

/// A [`LogSink`] whose appends are volatile until flushed, with a
/// power switch shared by both logs: once cut, nothing more becomes
/// durable, and [`VolatileLog::media`] is what a reboot finds. The
/// fault harness cannot play this part — its logs are `MemLog`s,
/// durable at append.
pub struct VolatileLog {
    inner: MemLog,
    durable: AtomicU64,
    flushes: AtomicU64,
    power: Arc<Power>,
}

#[derive(Default)]
pub struct Power {
    /// Cut the power once this many more flushes have completed.
    pub cut_after_flushes: AtomicU64,
    pub off: AtomicBool,
}

impl Power {
    /// A supply no flush count will cut: only [`Power::cut`] does.
    pub fn steady() -> Arc<Power> {
        let power = Arc::new(Power::default());
        power.cut_after_flushes.store(u64::MAX, Ordering::SeqCst);
        power
    }

    /// Cut the power now.
    pub fn cut(&self) {
        self.off.store(true, Ordering::SeqCst);
    }
}

impl VolatileLog {
    pub fn new(power: &Arc<Power>) -> Arc<Self> {
        Arc::new(VolatileLog {
            inner: MemLog::new(),
            durable: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            power: Arc::clone(power),
        })
    }

    /// `flush` calls that reached the device (a barrier each).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::SeqCst)
    }

    /// Records known durable: appended before the last completed flush.
    pub fn durable_records(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// What a reboot finds: the flushed prefix.
    pub fn media(&self) -> Arc<dyn LogSink> {
        self.media_upto(self.durable_records())
    }

    /// What a reboot finds when the device also kept the unflushed
    /// records up to `lsn` — a `BufWriter` spills without being asked.
    pub fn media_upto(&self, lsn: u64) -> Arc<dyn LogSink> {
        let media = MemLog::new();
        for (at, payload) in self.inner.read_all().unwrap() {
            if at.0 <= lsn {
                media.append(&payload).unwrap();
            }
        }
        Arc::new(media)
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
        self.flushes.fetch_add(1, Ordering::SeqCst);
        if !self.power.off.load(Ordering::SeqCst) {
            self.durable
                .store(self.inner.record_count(), Ordering::SeqCst);
            if self.power.cut_after_flushes.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.power.off.store(true, Ordering::SeqCst);
            }
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
    fn truncate_prefix(&self, _upto: Lsn) -> Result<()> {
        Ok(()) // keeps LSN = position, which `media` relies on
    }
}
