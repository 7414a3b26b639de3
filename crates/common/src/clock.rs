//! Monotonic logical clock.
//!
//! The paper's hotness machinery is expressed entirely in units of the
//! *database commit timestamp* — "an atomic counter which is incremented
//! when a transaction in the database completes" (§VI.D). `LogicalClock`
//! is that counter. Using logical time instead of wall-clock time also
//! makes every experiment in `btrim-bench` deterministic.
//!
//! # Reservation vs. publication
//!
//! Snapshot reads pin their visibility horizon to `now()` at begin. If a
//! committing transaction made its timestamp visible to `now()` *before*
//! stamping that timestamp onto its versions, a reader beginning in the
//! window would hold a snapshot that covers the commit yet observe only
//! part of it — a torn snapshot. The clock therefore splits commit into
//! two steps:
//!
//! 1. [`reserve`](LogicalClock::reserve) allocates the next timestamp
//!    without making it visible; the committer stamps every version,
//!    redo record, and side-store entry with it.
//! 2. [`publish`](LogicalClock::publish) makes it visible to `now()`.
//!    Publication is in timestamp order: a publish waits (brief spin —
//!    the window covers only memory stores, never I/O) for all smaller
//!    reservations to publish first, so `now() == t` guarantees every
//!    transaction with commit timestamp ≤ `t` is fully stamped.
//!
//! [`tick`](LogicalClock::tick) remains for callers with nothing to
//! stamp between the two steps.

use crate::atomics::AcqRel;
use crate::ids::Timestamp;

/// A shared, monotonically increasing logical clock.
#[derive(Debug, Default)]
pub struct LogicalClock {
    /// Highest timestamp handed out by [`reserve`](Self::reserve).
    allocated: AcqRel<u64>,
    /// Highest timestamp visible to [`now`](Self::now). Invariant:
    /// `published ≤ allocated`, except transiently inside `advance_to`.
    published: AcqRel<u64>,
}

impl LogicalClock {
    /// Create a clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the current timestamp without advancing. Only published
    /// timestamps are visible: every transaction with a commit timestamp
    /// ≤ the returned value has finished stamping its versions.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.published.load())
    }

    /// Allocate the next commit timestamp without making it visible to
    /// [`now`](Self::now). The caller must eventually
    /// [`publish`](Self::publish) it (commit has no fallible step
    /// between the two — stamping is memory-only).
    #[inline]
    pub fn reserve(&self) -> Timestamp {
        Timestamp(self.allocated.fetch_add(1) + 1)
    }

    /// Make a reserved timestamp visible. Publishes in timestamp order:
    /// spins until every smaller reservation has published (or the clock
    /// was advanced past `ts` by recovery).
    #[inline]
    pub fn publish(&self, ts: Timestamp) {
        debug_assert!(
            ts.0 <= self.allocated.load(),
            "publish({}) beyond allocated {}",
            ts.0,
            self.allocated.load()
        );
        loop {
            match self.published.compare_exchange(ts.0 - 1, ts.0) {
                Ok(_) => return,
                Err(cur) => {
                    if cur >= ts.0 {
                        // Recovery advanced past us; nothing to do.
                        return;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Advance the clock and return the *new* timestamp: a
    /// reserve+publish pair for callers with nothing to stamp in
    /// between (internal maintenance transactions, tests).
    #[inline]
    pub fn tick(&self) -> Timestamp {
        let ts = self.reserve();
        self.publish(ts);
        ts
    }

    /// Ensure the clock is at least `ts` (recovery replay; no concurrent
    /// reservations are in flight during recovery).
    pub fn advance_to(&self, ts: Timestamp) {
        self.allocated.fetch_max(ts.0);
        self.published.fetch_max(ts.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tick_is_monotonic() {
        let c = LogicalClock::new();
        assert_eq!(c.now(), Timestamp(0));
        assert_eq!(c.tick(), Timestamp(1));
        assert_eq!(c.tick(), Timestamp(2));
        assert_eq!(c.now(), Timestamp(2));
    }

    #[test]
    fn advance_to_never_regresses() {
        let c = LogicalClock::new();
        c.advance_to(Timestamp(50));
        c.advance_to(Timestamp(10));
        assert_eq!(c.now(), Timestamp(50));
        c.advance_to(Timestamp(99));
        assert_eq!(c.now(), Timestamp(99));
    }

    #[test]
    fn reserved_timestamps_stay_invisible_until_published() {
        let c = LogicalClock::new();
        let t1 = c.reserve();
        assert_eq!(t1, Timestamp(1));
        assert_eq!(c.now(), Timestamp(0), "reservation must not be visible");
        let t2 = c.reserve();
        assert_eq!(t2, Timestamp(2));
        c.publish(t1);
        assert_eq!(c.now(), Timestamp(1), "t2 unpublished: now() stops at t1");
        c.publish(t2);
        assert_eq!(c.now(), Timestamp(2));
    }

    #[test]
    fn publication_is_in_timestamp_order() {
        // Reserve two timestamps, publish the larger one from another
        // thread: it must wait until the smaller one publishes.
        let c = Arc::new(LogicalClock::new());
        let t1 = c.reserve();
        let t2 = c.reserve();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.publish(t2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(c.now(), Timestamp(0), "t2 must not publish before t1");
        c.publish(t1);
        h.join().unwrap();
        assert_eq!(c.now(), t2);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(LogicalClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..1000).map(|_| c.tick().0).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 1000);
        assert_eq!(c.now(), Timestamp(8 * 1000));
    }

    #[test]
    fn concurrent_reserve_publish_pairs_interleave_safely() {
        let c = Arc::new(LogicalClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let ts = c.reserve();
                        // Simulate stamping work between the halves.
                        std::hint::spin_loop();
                        c.publish(ts);
                        assert!(c.now() >= ts);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), Timestamp(8 * 500));
    }
}
