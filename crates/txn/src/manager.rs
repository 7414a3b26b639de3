//! Transaction lifecycle management.
//!
//! # The lock-free transaction registry
//!
//! Snapshot reads must never block writers (or each other), so `begin`,
//! `commit`, `abort`, and the GC-horizon scan all run on atomics for
//! the common case: a fixed array of registry *slots*, each one
//! `SeqCst<u64>` holding `reservation + 1` while a transaction is in
//! flight (0 = free). Only when more transactions are concurrently
//! active than there are slots does `begin` spill into a ranked mutex
//! overflow table.
//!
//! ## Why the horizon can never pass an active snapshot
//!
//! `begin` runs the *reservation protocol*:
//!
//! 1. `r = clock.now()` — the reservation;
//! 2. CAS a free slot `0 → r+1` (SeqCst);
//! 3. `fence(SeqCst)`;
//! 4. `snapshot = clock.now()` — so `r ≤ snapshot`.
//!
//! The horizon scan reads `c = clock.now()`, fences (SeqCst), then
//! scans the slots, returning the minimum reservation capped at `c`.
//! For any in-flight transaction there are two cases in the
//! sequentially-consistent order:
//!
//! * the scan **sees** its slot → horizon ≤ r ≤ snapshot;
//! * the scan **misses** it → the CAS (step 2) ordered after the scan's
//!   slot read, hence after the scan's fence and clock read; the
//!   transaction's snapshot read (step 4) is later still, and the clock
//!   is monotone, so snapshot ≥ c ≥ horizon.
//!
//! Either way `horizon ≤ snapshot` for every active transaction, and
//! transactions that begin entirely after the scan read the clock after
//! `c` was read, so their snapshots are ≥ `c` too. A horizon, once
//! valid, is therefore valid forever — which is why the scan publishes
//! through a `fetch_max` cache and the watermark is monotone.
//!
//! The overflow path mirrors the same shape under its mutex: the
//! presence counter is bumped (SeqCst) *before* the snapshot is read,
//! so a scan that observes the counter at zero proves the overflow
//! transaction's snapshot is ≥ the scan's cap.
//!
//! ## Commit is split in two
//!
//! [`reserve_commit`](TxnManager::reserve_commit) allocates the commit
//! timestamp without making it visible; the engine stamps every version
//! with it; [`finish_commit`](TxnManager::finish_commit) publishes the
//! timestamp and deregisters. A reader beginning mid-commit therefore
//! either gets a snapshot below the commit timestamp (sees none of the
//! transaction) or begins after publication (sees all of it) — never a
//! torn snapshot. Deregistration strictly after publication keeps the
//! horizon conservative throughout.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{lock_rank, Mutex};

use btrim_common::atomics::{fence, AcqRel, Relaxed, SeqCst};
use btrim_common::{LogicalClock, Timestamp, TxnId};

/// Number of lock-free registry slots. More concurrent transactions
/// than this spill to the (ranked, mutex-protected) overflow table.
const SLOTS: usize = 64;

/// Sentinel slot index: the transaction lives in the overflow table.
const OVERFLOW_SLOT: u32 = u32::MAX;

/// A live transaction: identity, snapshot timestamp, and where the
/// registry tracks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHandle {
    /// Unique transaction id.
    pub id: TxnId,
    /// Begin timestamp: this transaction sees versions committed at or
    /// before this point.
    pub snapshot: Timestamp,
    /// Registry slot index, or `u32::MAX` for the overflow table.
    slot: u32,
}

/// Transaction manager: ids, snapshots, the commit clock, and the
/// oldest-active watermark over the lock-free registry.
pub struct TxnManager {
    clock: Arc<LogicalClock>,
    next_txn: Relaxed<u64>,
    committed: Relaxed<u64>,
    aborted: Relaxed<u64>,
    /// Registry slots: 0 = free, else `reservation.0 + 1`.
    slots: Box<[SeqCst<u64>]>,
    /// Spill table for bursts beyond `SLOTS` concurrent transactions.
    overflow: Mutex<HashMap<TxnId, Timestamp>>,
    /// Occupancy of `overflow`, published SeqCst *before* the spilled
    /// transaction reads its snapshot (see the module proof).
    overflow_len: SeqCst<usize>,
    /// Monotone cache of published horizons (`fetch_max` on scan).
    cached_horizon: AcqRel<u64>,
}

impl TxnManager {
    /// Create a manager over a shared commit clock.
    pub fn new(clock: Arc<LogicalClock>) -> Self {
        TxnManager {
            clock,
            next_txn: Relaxed::new(1),
            committed: Relaxed::new(0),
            aborted: Relaxed::new(0),
            slots: (0..SLOTS).map(|_| SeqCst::new(0)).collect(),
            overflow: Mutex::with_rank(lock_rank::TXN_REGISTRY, HashMap::new()),
            overflow_len: SeqCst::new(0),
            cached_horizon: AcqRel::new(0),
        }
    }

    /// The shared commit clock.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// Start a transaction with a snapshot at the current timestamp.
    ///
    /// Lock-free in the common case: the reservation protocol (see the
    /// module docs) CASes a free slot before reading the snapshot, so
    /// the horizon scan can never overtake the snapshot this handle
    /// carries. Falls back to the ranked overflow mutex only when all
    /// slots are taken.
    pub fn begin(&self) -> TxnHandle {
        let id = TxnId(self.next_txn.fetch_add(1));
        let r = self.clock.now();
        let start = (id.0 as usize).wrapping_mul(0x9E37_79B9) % SLOTS;
        for i in 0..SLOTS {
            let idx = (start + i) % SLOTS;
            if self.slots[idx].compare_exchange(0, r.0 + 1).is_ok() {
                fence();
                let snapshot = self.clock.now();
                return TxnHandle {
                    id,
                    snapshot,
                    slot: idx as u32,
                };
            }
        }
        // Every slot taken: spill. The presence counter goes up before
        // the snapshot read, mirroring the slot CAS ordering.
        let mut ov = self.overflow.lock();
        self.overflow_len.fetch_add(1);
        fence();
        let snapshot = self.clock.now();
        ov.insert(id, snapshot);
        TxnHandle {
            id,
            snapshot,
            slot: OVERFLOW_SLOT,
        }
    }

    fn deregister(&self, txn: TxnHandle) {
        if txn.slot == OVERFLOW_SLOT {
            let mut ov = self.overflow.lock();
            if ov.remove(&txn.id).is_some() {
                self.overflow_len.fetch_sub(1);
            }
        } else {
            self.slots[txn.slot as usize].store(0);
        }
    }

    /// Reserve the commit timestamp without publishing it. The caller
    /// stamps the transaction's versions (memory-only, infallible) and
    /// then calls [`finish_commit`](Self::finish_commit).
    pub fn reserve_commit(&self) -> Timestamp {
        self.clock.reserve()
    }

    /// Publish a reserved commit timestamp and retire the transaction.
    /// Deregistration happens strictly after publication so the
    /// watermark stays conservative while the commit is in flight.
    pub fn finish_commit(&self, txn: TxnHandle, ts: Timestamp) {
        self.clock.publish(ts);
        self.deregister(txn);
        self.committed.fetch_add(1);
    }

    /// Commit: advances the database commit timestamp and returns it.
    /// A [`reserve_commit`](Self::reserve_commit) +
    /// [`finish_commit`](Self::finish_commit) pair for transactions
    /// with nothing to stamp in between (internal maintenance
    /// transactions, tests).
    pub fn commit(&self, txn: TxnHandle) -> Timestamp {
        let ts = self.reserve_commit();
        self.finish_commit(txn, ts);
        ts
    }

    /// Abort: no timestamp is consumed.
    pub fn abort(&self, txn: TxnHandle) {
        self.deregister(txn);
        self.aborted.fetch_add(1);
    }

    /// Retire a read-only snapshot transaction: deregisters without
    /// counting toward commits or aborts (it wrote nothing).
    pub fn release(&self, txn: TxnHandle) {
        self.deregister(txn);
    }

    /// Snapshot of the oldest active transaction, or `now` when idle.
    /// Versions committed at or before this point and superseded are
    /// unreachable — the GC horizon. Monotone: each scan publishes into
    /// a `fetch_max` cache (a valid horizon is a forever-valid lower
    /// bound; see the module docs).
    pub fn oldest_active_snapshot(&self) -> Timestamp {
        let cap = self.clock.now();
        fence();
        let mut min = cap.0;
        for slot in self.slots.iter() {
            let v = slot.load();
            if v != 0 {
                min = min.min(v - 1);
            }
        }
        if self.overflow_len.load() > 0 {
            let ov = self.overflow.lock();
            for ts in ov.values() {
                min = min.min(ts.0);
            }
        }
        let prev = self.cached_horizon.fetch_max(min);
        Timestamp(prev.max(min))
    }

    /// Number of in-flight transactions (including read-only
    /// snapshots) — the registry-size gauge.
    pub fn active_count(&self) -> usize {
        let slots = self.slots.iter().filter(|slot| slot.load() != 0).count();
        slots + self.overflow_len.load()
    }

    /// Total committed transactions — the epoch counter that drives ILM
    /// tuning windows ("wakes up after some large number of
    /// transactions complete", §V.B).
    pub fn committed_count(&self) -> u64 {
        self.committed.load()
    }

    /// Total aborted transactions.
    pub fn aborted_count(&self) -> u64 {
        self.aborted.load()
    }

    /// The id the next [`begin`](Self::begin) hands out.
    pub fn next_txn_id(&self) -> TxnId {
        TxnId(self.next_txn.load())
    }

    /// Raise the id allocator above `floor`. Recovery calls this with
    /// the highest transaction id found in either log so ids are never
    /// reused across incarnations — replay gates records by id, and a
    /// reused id would let a past incarnation's verdict (committed,
    /// discarded) leak onto a fresh transaction's records.
    pub fn bump_txn_floor(&self, floor: TxnId) {
        let min_next = floor.0.saturating_add(1);
        self.next_txn.fetch_max(min_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> TxnManager {
        TxnManager::new(Arc::new(LogicalClock::new()))
    }

    #[test]
    fn begin_commit_lifecycle() {
        let m = mgr();
        let t1 = m.begin();
        assert_eq!(t1.snapshot, Timestamp(0));
        assert_eq!(m.active_count(), 1);
        let ts = m.commit(t1);
        assert_eq!(ts, Timestamp(1));
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.committed_count(), 1);
        // Next txn sees the new timestamp.
        let t2 = m.begin();
        assert_eq!(t2.snapshot, Timestamp(1));
        m.abort(t2);
        assert_eq!(m.aborted_count(), 1);
        assert_eq!(m.committed_count(), 1);
    }

    #[test]
    fn txn_ids_are_unique() {
        let m = mgr();
        let a = m.begin();
        let b = m.begin();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn oldest_active_tracks_minimum() {
        let m = mgr();
        let t1 = m.begin(); // snapshot 0
        m.commit(m.begin()); // ts -> 1
        m.commit(m.begin()); // ts -> 2
        let t2 = m.begin(); // snapshot 2
        assert_eq!(m.oldest_active_snapshot(), Timestamp(0));
        m.commit(t1);
        assert_eq!(m.oldest_active_snapshot(), Timestamp(2));
        m.commit(t2);
        // Idle: watermark rides the clock.
        assert_eq!(m.oldest_active_snapshot(), m.clock().now());
    }

    #[test]
    fn release_retires_read_only_without_counting() {
        let m = mgr();
        let snap = m.begin();
        m.release(snap);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.committed_count(), 0);
        assert_eq!(m.aborted_count(), 0);
    }

    #[test]
    fn reserve_finish_split_hides_ts_until_stamped() {
        let m = mgr();
        let t = m.begin();
        let ts = m.reserve_commit();
        assert_eq!(ts, Timestamp(1));
        // The reserved timestamp is invisible: a concurrent begin still
        // snapshots below it, so it cannot see half a transaction.
        let reader = m.begin();
        assert_eq!(reader.snapshot, Timestamp(0));
        m.finish_commit(t, ts);
        assert_eq!(m.clock().now(), Timestamp(1));
        assert_eq!(m.begin().snapshot, Timestamp(1));
        // The in-flight commit kept the horizon at the reader's level.
        assert!(m.oldest_active_snapshot() <= reader.snapshot);
        m.release(reader);
    }

    #[test]
    fn overflow_beyond_slot_capacity() {
        let m = mgr();
        // Occupy every slot and then some: the spill must be invisible
        // to callers and still tracked by the watermark.
        let handles: Vec<_> = (0..(SLOTS + 16)).map(|_| m.begin()).collect();
        assert_eq!(m.active_count(), SLOTS + 16);
        assert!(handles.iter().filter(|h| h.slot == OVERFLOW_SLOT).count() >= 16);
        m.commit(m.begin()); // clock -> 1
        assert_eq!(m.oldest_active_snapshot(), Timestamp(0));
        for h in handles {
            m.commit(h);
        }
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.oldest_active_snapshot(), m.clock().now());
    }

    #[test]
    fn horizon_is_monotone_under_churn() {
        let m = Arc::new(mgr());
        let stop = Arc::new(Relaxed::new(false));
        let churners: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load() {
                        let t = m.begin();
                        m.commit(t);
                    }
                })
            })
            .collect();
        let mut last = Timestamp(0);
        for _ in 0..2000 {
            let h = m.oldest_active_snapshot();
            assert!(h >= last, "horizon regressed: {h:?} < {last:?}");
            last = h;
        }
        stop.store(true);
        for c in churners {
            c.join().unwrap();
        }
    }

    #[test]
    fn horizon_never_passes_an_active_snapshot() {
        // 4 begin/commit churners + a scanner thread; every handle the
        // churners ever hold must satisfy horizon ≤ snapshot.
        let m = Arc::new(mgr());
        let stop = Arc::new(Relaxed::new(false));
        let churners: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load() {
                        let t = m.begin();
                        let h = m.oldest_active_snapshot();
                        assert!(
                            h <= t.snapshot,
                            "horizon {h:?} passed active snapshot {:?}",
                            t.snapshot
                        );
                        m.commit(t);
                    }
                })
            })
            .collect();
        for _ in 0..5000 {
            m.oldest_active_snapshot();
        }
        stop.store(true);
        for c in churners {
            c.join().unwrap();
        }
    }

    #[test]
    fn concurrent_begins_and_commits() {
        let m = Arc::new(mgr());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = m.begin();
                        m.commit(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.committed_count(), 8 * 500);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.clock().now(), Timestamp(8 * 500));
    }
}
