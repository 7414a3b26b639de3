//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent id, kind, start, end)`. Top-level spans are
//! opened by the workload loop around public `Engine` / `Driver` calls;
//! child spans are recorded by the device wrappers in
//! [`devices`](crate::devices), which tag each call with the top-level
//! span that was open when it ran. Spans stay in memory for the whole
//! run and are reduced to per-kind totals when the workload ends —
//! nothing touches disk while timing.
//!
//! The recorder is a switch as much as a log: with tracing off, the
//! device wrappers take one branch and pass straight through, which is
//! what lets a traced run alternate traced and untraced groups of
//! transactions and report the difference as its own overhead.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span measured. Top-level kinds come first; device kinds are
/// always children.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// One `Driver::run_one` call.
    Txn,
    /// One benchmark-issued `Engine::run_maintenance`.
    Maint,
    /// One `Engine::checkpoint`.
    Checkpoint,
    /// One analytic scan.
    Scan,
    /// One `Engine::get_snapshot`.
    SnapshotRead,
    /// `LogSink::append` / `append_batch`.
    LogAppend,
    /// `LogSink::flush`.
    LogFlush,
    /// `DiskBackend::read_page`.
    DiskRead,
    /// `DiskBackend::write_page`.
    DiskWrite,
    /// `DiskBackend::sync`.
    DiskSync,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 10;
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u32,
    /// Enclosing top-level span, 0 for none.
    pub parent: u32,
    /// What was measured.
    pub kind: Kind,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The recorder. Shared between the workload loop and the device
/// wrappers; recovery workers call into the wrappers from several
/// threads, hence the mutex around the log.
pub struct Tracer {
    on: AtomicBool,
    next_id: AtomicU32,
    parent: AtomicU32,
    spans: Mutex<Vec<Span>>,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder with tracing off.
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            parent: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Reserve room up front so the log never reallocates mid-run.
    pub fn reserve(&self, spans: usize) {
        self.lock().reserve(spans);
    }

    /// Whether spans are being recorded right now.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Switch recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic while pushing a span leaves the vector valid.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `call` with two clock reads and return its result and its
    /// nanoseconds — what every run pays for an end-to-end latency.
    /// With tracing on, the same interval is also recorded as a
    /// top-level span of `kind`, and device calls made inside it are
    /// tagged as its children.
    #[inline]
    pub fn timed<R>(&self, kind: Kind, call: impl FnOnce() -> R) -> (R, u64) {
        let traced = self.enabled();
        let id = if traced {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.parent.store(id, Ordering::Relaxed);
            id
        } else {
            0
        };
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if traced {
            self.parent.store(0, Ordering::Relaxed);
            let span = Span {
                id,
                parent: 0,
                kind,
                start: self.since_epoch(start),
                end: self.since_epoch(end),
            };
            self.lock().push(span);
        }
        let nanos = end.saturating_duration_since(start).as_nanos() as u64;
        (out, nanos)
    }

    /// Time `f` as a child of whatever top-level span is open.
    #[inline]
    pub fn child<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent.load(Ordering::Relaxed),
            kind,
            start: self.since_epoch(start),
            end: self.since_epoch(end),
        };
        self.lock().push(span);
        out
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Per-kind totals of a span log.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Spans of each kind.
    pub count: [u64; Kind::COUNT],
    /// Total duration of each kind, ns.
    pub nanos: [u64; Kind::COUNT],
}

impl SpanTotals {
    /// Reduce a span log.
    pub fn from_spans(spans: &[Span]) -> SpanTotals {
        let mut t = SpanTotals::default();
        for s in spans {
            t.count[s.kind as usize] += 1;
            t.nanos[s.kind as usize] += s.nanos();
        }
        t
    }

    /// Mean duration of a kind in nanoseconds (0 when it never ran).
    pub fn mean_nanos(&self, kind: Kind) -> f64 {
        let n = self.count[kind as usize];
        if n == 0 {
            0.0
        } else {
            self.nanos[kind as usize] as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_charged_to_the_open_span() {
        let t = Tracer::new();
        t.set_enabled(true);
        let ((), nanos) = t.timed(Kind::Txn, || {
            t.child(Kind::LogAppend, || std::hint::black_box(1 + 1));
            t.child(Kind::LogFlush, || std::hint::black_box(2 + 2));
        });
        // Outside any span.
        t.child(Kind::DiskRead, || ());
        let spans = t.drain();
        assert_eq!(spans.len(), 4);
        let txn = spans[2];
        assert_eq!((txn.kind, txn.nanos()), (Kind::Txn, nanos));
        assert!(spans[..2].iter().all(|s| s.parent == txn.id));
        assert_eq!(spans[3].parent, 0);
        let totals = SpanTotals::from_spans(&spans);
        assert_eq!(totals.count[Kind::Txn as usize], 1);
        assert_eq!(totals.nanos[Kind::Txn as usize], nanos);
        assert_eq!(totals.mean_nanos(Kind::DiskRead), spans[3].nanos() as f64);
        assert!(t.drain().is_empty());
    }
}
