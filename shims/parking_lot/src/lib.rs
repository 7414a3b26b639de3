//! Offline shim for `parking_lot` 0.12: the subset of its API this
//! workspace uses, implemented over `std::sync` primitives.
//!
//! Differences from the real crate that matter here:
//! * no poisoning — a panic while holding a lock does not poison it
//!   (matches parking_lot semantics; implemented by unwrapping the
//!   poison error and taking the inner guard);
//! * guards are wrappers so [`Condvar::wait`] can take `&mut MutexGuard`
//!   the way parking_lot's does;
//! * an opt-in **lock-rank witness** (debug builds only): locks built
//!   with [`Mutex::with_rank`]/[`RwLock::with_rank`] carry a rank from
//!   [`lock_rank`], the engine's declared hierarchy, and every blocking
//!   acquisition asserts that the thread holds nothing of an equal or
//!   higher rank. Locks built with plain `new()` have rank 0 and are
//!   invisible to the witness. Release builds compile the rank fields
//!   and every check away.

use std::sync::{self, PoisonError};
use std::time::Instant;

pub mod lock_rank;

/// Per-thread stack of held ranks. Blocking acquisitions assert rank
/// monotonicity *before* they can block — the witness fires on the
/// ordering violation itself, not on the (schedule-dependent) deadlock
/// it could cause.
#[cfg(debug_assertions)]
mod witness {
    use std::cell::{Cell, RefCell};

    thread_local! {
        static HELD: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
        static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    }

    /// Lifetime count of ranked acquisitions on this thread (blocking
    /// and successful `try_*` alike). Lock-free-path tests assert this
    /// stays flat across a workload.
    pub fn ranked_acquisitions() -> u64 {
        ACQUIRED.with(|c| c.get())
    }

    /// Assert the hierarchy allows acquiring `rank` now, then record it.
    pub fn check_acquire(rank: u16) {
        if rank == 0 {
            return;
        }
        ACQUIRED.with(|c| c.set(c.get() + 1));
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            let worst = held.iter().copied().max().unwrap_or(0);
            assert!(
                rank > worst,
                "lock-rank violation: acquiring {} (rank {rank}) while holding {} (rank \
                 {worst}); declared order: {}",
                super::lock_rank::rank_name(rank),
                super::lock_rank::rank_name(worst),
                order_string(),
            );
            held.push(rank);
        });
    }

    /// Record an acquisition without checking (successful `try_*`, or a
    /// condvar re-acquire whose original acquisition was checked).
    pub fn note_acquire(rank: u16) {
        if rank == 0 {
            return;
        }
        ACQUIRED.with(|c| c.set(c.get() + 1));
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    /// Remove the most recent record of `rank` (guard drop, or a condvar
    /// releasing the lock for the duration of a wait).
    pub fn release(rank: u16) {
        if rank == 0 {
            return;
        }
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }

    fn order_string() -> String {
        super::lock_rank::LOCK_RANKS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" < ")
    }
}

/// Lifetime count of *ranked* lock acquisitions performed by the
/// calling thread (blocking and successful `try_*` alike; unranked
/// locks are invisible, exactly as they are to the rank witness).
///
/// Debug builds only — release builds always return 0. Lock-free-path
/// tests snapshot this before and after a workload to prove a code path
/// acquired no classified lock at all.
#[inline]
pub fn ranked_acquisitions() -> u64 {
    #[cfg(debug_assertions)]
    {
        witness::ranked_acquisitions()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Mutual exclusion primitive (no poisoning).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u16,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u16,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new (unranked) mutex.
    pub const fn new(value: T) -> Self {
        Self::with_rank(0, value)
    }

    /// Create a mutex tagged with a [`lock_rank`] rank. Debug builds
    /// assert the hierarchy on every blocking `lock()`; release builds
    /// discard the rank entirely.
    pub const fn with_rank(rank: u16, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check_acquire(self.rank);
        MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        witness::note_acquire(self.rank);
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: Some(g),
        })
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during condvar wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

/// Reader-writer lock (no poisoning).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u16,
    inner: sync::RwLock<T>,
}

/// Shared-access guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u16,
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-access guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u16,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new (unranked) reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self::with_rank(0, value)
    }

    /// Create a reader-writer lock tagged with a [`lock_rank`] rank.
    /// See [`Mutex::with_rank`].
    pub const fn with_rank(rank: u16, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        RwLock {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check_acquire(self.rank);
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire exclusive access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::check_acquire(self.rank);
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Try to acquire shared access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let g = match self.inner.try_read() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        witness::note_acquire(self.rank);
        Some(RwLockReadGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: g,
        })
    }

    /// Try to acquire exclusive access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let g = match self.inner.try_write() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        witness::note_acquire(self.rank);
        Some(RwLockWriteGuard {
            #[cfg(debug_assertions)]
            rank: self.rank,
            inner: g,
        })
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness::release(self.rank);
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, releasing the guard's lock while waiting.
    /// The witness drops the guard's rank for the duration of the wait
    /// — the thread genuinely holds nothing while parked — and records
    /// the re-acquisition unchecked (the original acquisition already
    /// passed the hierarchy check).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard already taken");
        #[cfg(debug_assertions)]
        witness::release(guard.rank);
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        witness::note_acquire(guard.rank);
        guard.inner = Some(inner);
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let inner = guard.inner.take().expect("guard already taken");
        #[cfg(debug_assertions)]
        witness::release(guard.rank);
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        #[cfg(debug_assertions)]
        witness::note_acquire(guard.rank);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip_and_try_lock() {
        let m = Mutex::new(1);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().unwrap(), 2);
    }

    #[test]
    fn rwlock_readers_exclude_writer() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.try_read().unwrap();
        assert!(l.try_write().is_none());
        assert_eq!(*r1 + *r2, 10);
        drop((r1, r2));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[cfg(debug_assertions)]
    mod witness_tests {
        use super::super::*;

        #[test]
        fn in_order_acquisition_passes() {
            let low = Mutex::with_rank(lock_rank::BUFFER_SHARD, ());
            let high = Mutex::with_rank(lock_rank::WAL_LOG, ());
            let _a = low.lock();
            let _b = high.lock();
        }

        #[test]
        fn out_of_order_acquisition_panics() {
            let result = std::thread::spawn(|| {
                let low = Mutex::with_rank(lock_rank::BUFFER_SHARD, ());
                let high = Mutex::with_rank(lock_rank::WAL_LOG, ());
                let _b = high.lock();
                let _a = low.lock(); // violates buffer-shard < wal-log
            })
            .join();
            assert!(result.is_err(), "witness must catch the inversion");
        }

        #[test]
        fn equal_rank_nesting_panics() {
            let result = std::thread::spawn(|| {
                let a = RwLock::with_rank(lock_rank::FRAME, ());
                let b = RwLock::with_rank(lock_rank::FRAME, ());
                let _ga = a.read();
                let _gb = b.read(); // two frames on one thread
            })
            .join();
            assert!(result.is_err());
        }

        #[test]
        fn release_unwinds_out_of_order_drops() {
            let a = Mutex::with_rank(lock_rank::ENGINE_STATE, ());
            let b = Mutex::with_rank(lock_rank::IMRS_CHAIN, ());
            let ga = a.lock();
            let gb = b.lock();
            drop(ga); // out-of-order drop is legal
            drop(gb);
            // Stack is clean again: a fresh in-order pair must pass.
            let _ga = a.lock();
            let _gb = b.lock();
        }

        #[test]
        fn try_lock_is_unchecked_and_released_on_drop() {
            let high = Mutex::with_rank(lock_rank::GROUP_COMMIT, ());
            let low = Mutex::with_rank(lock_rank::ENGINE_STATE, ());
            let gh = high.lock();
            // try_* may acquire against the order without panicking…
            let gl = low.try_lock().expect("uncontended");
            drop(gl);
            drop(gh);
            // …and its release must leave the stack balanced.
            let _a = low.lock();
            let _b = high.lock();
        }

        #[test]
        fn acquisition_counter_sees_only_ranked_locks() {
            let before = ranked_acquisitions();
            let unranked = Mutex::new(());
            drop(unranked.lock());
            let _ = unranked.try_lock().map(drop);
            assert_eq!(ranked_acquisitions(), before, "unranked locks are invisible");
            let ranked = Mutex::with_rank(lock_rank::ENGINE_STATE, ());
            drop(ranked.lock());
            drop(ranked.try_lock().expect("uncontended"));
            assert_eq!(ranked_acquisitions(), before + 2);
        }

        #[test]
        fn condvar_wait_releases_rank_while_parked() {
            use std::sync::Arc;
            // A waiter parked on a rank-60 lock must not trip the
            // witness when the waking thread's work happens on other
            // ranks — and after wake, the guard's rank is restored.
            let pair = Arc::new((
                Mutex::with_rank(lock_rank::GROUP_COMMIT, false),
                Condvar::new(),
            ));
            let p2 = Arc::clone(&pair);
            let h = std::thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut done = m.lock();
                while !*done {
                    cv.wait(&mut done);
                }
                // Guard re-acquired: acquiring a lower rank now panics.
                let low = Mutex::with_rank(lock_rank::WAL_LOG, ());
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _g = low.lock();
                }));
                assert!(r.is_err(), "rank restored after wait");
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
            h.join().unwrap();
        }
    }
}
