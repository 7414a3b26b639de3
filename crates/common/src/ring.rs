//! Bounded ring buffer for structured trace events.
//!
//! Unlike the latency histograms, ILM decision traces are produced on
//! cold paths (one tuner window per second, a handful of pack cycles
//! per maintenance tick), so a short mutex-protected deque is the right
//! tool: pushes are rare, and the lock guarantees events are never torn
//! or interleaved (satellite: the 8-thread hammer test in `btrim-obs`).
//! When the ring is full the oldest event is dropped and counted, so a
//! reader can always tell whether the window it sees is complete. The
//! counters live under the same lock as the events, so
//! [`recent`](TraceRing::recent) reads all three at one instant.

use parking_lot::Mutex;
use std::collections::VecDeque;

pub struct TraceRing<T> {
    inner: Mutex<Ring<T>>,
    capacity: usize,
}

struct Ring<T> {
    events: VecDeque<T>,
    pushed: u64,
    dropped: u64,
}

impl<T: Clone> TraceRing<T> {
    /// A capacity of 0 disables the ring entirely: pushes are no-ops
    /// and are not counted as drops.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(4096)),
                pushed: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn push(&self, event: T) {
        if self.capacity == 0 {
            return;
        }
        let mut r = self.inner.lock();
        if r.events.len() == self.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(event);
        r.pushed += 1;
    }

    /// Number of events ever pushed (including ones since evicted).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Number of events evicted to make room. Zero means `events()`
    /// returns the complete history.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Copy out the retained events, oldest first.
    pub fn events(&self) -> Vec<T> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Copy out up to the `n` most recent events, oldest first, with the
    /// [`pushed`](Self::pushed) and [`dropped`](Self::dropped) counts
    /// taken in the same critical section, so the three agree.
    pub fn recent(&self, n: usize) -> (Vec<T>, u64, u64) {
        let r = self.inner.lock();
        let skip = r.events.len().saturating_sub(n);
        let events = r.events.iter().skip(skip).cloned().collect();
        (events, r.pushed, r.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_and_counts_drops() {
        let r = TraceRing::new(3);
        for i in 0..5u32 {
            r.push(i);
        }
        assert_eq!(r.events(), vec![2, 3, 4]);
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let r = TraceRing::new(0);
        r.push(1u32);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.pushed(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn recent_returns_tail_in_order() {
        let r = TraceRing::new(10);
        for i in 0..6u32 {
            r.push(i);
        }
        assert_eq!(r.recent(3), (vec![3, 4, 5], 6, 0));
        assert_eq!(r.recent(100).0, vec![0, 1, 2, 3, 4, 5]);
    }
}
