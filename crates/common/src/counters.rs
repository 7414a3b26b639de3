//! Cache-friendly sharded statistics counters (§V.A of the paper).
//!
//! Maintaining workload counters with a single shared atomic causes
//! cache-line invalidation storms on multi-core machines. The paper's
//! remedy is per-CPU counters: each core updates its own cache line and a
//! reader aggregates across all lines. We reproduce that with a fixed
//! array of cache-line-padded atomics; a thread picks its shard from a
//! thread-local slot assigned round-robin, which approximates per-CPU
//! affinity without OS support.
//!
//! `bench_all`'s `common.sharded_counter_inc_ns` probe times the
//! sharded increment.

use std::sync::LazyLock;

use crate::atomics::Relaxed;

/// Number of shards. A power of two a little above typical core counts;
/// 64 shards * 64 B = 4 KiB per counter, acceptable for the per-partition
/// metric blocks the ILM subsystem keeps.
pub const SHARDS: usize = 64;

/// One cache line worth of counter.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(Relaxed<u64>);

/// A monotonically increasing (or signed-delta) counter sharded across
/// cache lines.
///
/// `add`/`sub` are wait-free on the shard; `load` sums all shards and is
/// O(SHARDS). Loads are racy-by-design snapshots, which is exactly what
/// the ILM tuner wants: it reads counters once per tuning window and only
/// cares about window-to-window deltas (§V.B).
pub struct ShardedCounter {
    shards: Box<[PaddedAtomic; SHARDS]>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

/// Hands each thread its shard once (only uniqueness mod `SHARDS`
/// matters, not order).
static NEXT_THREAD_SLOT: LazyLock<Relaxed<usize>> = LazyLock::new(Relaxed::default);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1) % SHARDS;
}

#[inline]
fn my_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

impl ShardedCounter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        // `Default` is not implemented for [T; 64] via derive on stable
        // without T: Copy, so build explicitly.
        let shards: Box<[PaddedAtomic; SHARDS]> = {
            let v: Vec<PaddedAtomic> = (0..SHARDS).map(|_| PaddedAtomic::default()).collect();
            match v.into_boxed_slice().try_into() {
                Ok(b) => b,
                Err(_) => unreachable!("vec length is SHARDS"),
            }
        };
        ShardedCounter { shards }
    }

    /// Add `n` on the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[my_slot()].0.fetch_add(n);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract `n`. Sharded counters may transiently go "negative" on a
    /// single shard; the aggregate uses wrapping arithmetic so the total
    /// is correct as long as logical adds >= subs.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.shards[my_slot()].0.fetch_sub(n);
    }

    /// Aggregate the current value across all shards.
    pub fn load(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load()))
    }

    /// Reset every shard to zero. Only used by tests and experiment
    /// harness resets; concurrent adds during reset may survive.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.0.store(0);
        }
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedCounter({})", self.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero() {
        let c = ShardedCounter::new();
        assert_eq!(c.load(), 0);
    }

    #[test]
    fn add_and_load_single_thread() {
        let c = ShardedCounter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.load(), 42);
    }

    #[test]
    fn sub_wraps_correctly_in_aggregate() {
        let c = ShardedCounter::new();
        c.add(100);
        c.sub(30);
        assert_eq!(c.load(), 70);
    }

    #[test]
    fn reset_zeroes() {
        let c = ShardedCounter::new();
        c.add(5);
        c.reset();
        assert_eq!(c.load(), 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(ShardedCounter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), threads as u64 * per_thread);
    }

    #[test]
    fn mixed_add_sub_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let adders: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(3);
                    }
                })
            })
            .collect();
        for h in adders {
            h.join().unwrap();
        }
        let subbers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.sub(1);
                    }
                })
            })
            .collect();
        for h in subbers {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 4 * 1000 * 3 - 4 * 1000);
    }

    #[test]
    fn debug_prints_total() {
        let c = ShardedCounter::new();
        c.add(9);
        assert_eq!(format!("{c:?}"), "ShardedCounter(9)");
    }
}
