//! Sharded row lock manager.
//!
//! Row-level locks are what keep online data movement safe (§VII.B):
//! DMLs move rows between stores while holding row locks; pack threads
//! request *conditional* locks and simply skip rows they cannot get, so
//! active DMLs never block pack and pack never blocks DMLs for long
//! (pack transactions are small and commit frequently).
//!
//! Modes: shared (read-committed scanners) and exclusive (writers,
//! pack). Blocking acquisition takes a timeout; expiry surfaces as
//! [`BtrimError::LockNotGranted`], which doubles as a coarse deadlock
//! breaker.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use btrim_common::{BtrimError, Result, RowId, TxnId};

/// Lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared: many readers.
    Shared,
    /// Exclusive: one writer.
    Exclusive,
}

#[derive(Debug, Default)]
struct LockEntry {
    /// Holders in shared mode (contains exactly one id in exclusive
    /// mode).
    holders: Vec<TxnId>,
    exclusive: bool,
}

impl LockEntry {
    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        if self.holders.is_empty() {
            return true;
        }
        match mode {
            LockMode::Shared => {
                !self.exclusive || (self.holders.len() == 1 && self.holders[0] == txn)
            }
            LockMode::Exclusive => self.holders.len() == 1 && self.holders[0] == txn,
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if !self.holders.contains(&txn) {
                    self.holders.push(txn);
                }
                // A holder that already has exclusive keeps it.
            }
            LockMode::Exclusive => {
                if self.holders.is_empty() {
                    self.holders.push(txn);
                } else {
                    debug_assert_eq!(self.holders, vec![txn], "upgrade requires sole holder");
                }
                self.exclusive = true;
            }
        }
    }
}

struct Shard {
    table: Mutex<HashMap<RowId, LockEntry>>,
    cv: Condvar,
}

const SHARDS: usize = 64;

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    default_timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(Duration::from_millis(500))
    }
}

impl LockManager {
    /// Create a manager with a default blocking timeout.
    pub fn new(default_timeout: Duration) -> Self {
        LockManager {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    table: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            default_timeout,
        }
    }

    #[inline]
    fn shard(&self, row: RowId) -> &Shard {
        let h = (row.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.shards[h % SHARDS]
    }

    /// Acquire a lock, blocking up to the default timeout.
    pub fn lock(&self, txn: TxnId, row: RowId, mode: LockMode) -> Result<()> {
        self.lock_timeout(txn, row, mode, self.default_timeout)
    }

    /// Acquire a lock, blocking up to `timeout`.
    pub fn lock_timeout(
        &self,
        txn: TxnId,
        row: RowId,
        mode: LockMode,
        timeout: Duration,
    ) -> Result<()> {
        let shard = self.shard(row);
        let mut table = shard.table.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let entry = table.entry(row).or_default();
            if entry.can_grant(txn, mode) {
                entry.grant(txn, mode);
                return Ok(());
            }
            let holder = entry.holders.first().copied();
            if shard.cv.wait_until(&mut table, deadline).timed_out() {
                return Err(BtrimError::LockNotGranted { row, holder });
            }
        }
    }

    /// Conditional (try) lock: never blocks. This is the primitive pack
    /// threads use — "Pack threads request a conditional lock on rows.
    /// If a row-lock cannot be granted, row is skipped for pack"
    /// (§VII.B).
    pub fn try_lock(&self, txn: TxnId, row: RowId, mode: LockMode) -> bool {
        let shard = self.shard(row);
        let mut table = shard.table.lock();
        let entry = table.entry(row).or_default();
        if entry.can_grant(txn, mode) {
            entry.grant(txn, mode);
            true
        } else {
            false
        }
    }

    /// Release one lock. A no-op if `txn` does not hold it.
    pub fn unlock(&self, txn: TxnId, row: RowId) {
        let shard = self.shard(row);
        let mut table = shard.table.lock();
        let Some(entry) = table.get_mut(&row) else {
            return;
        };
        let held = entry.holders.len();
        entry.holders.retain(|&t| t != txn);
        if entry.holders.len() == held {
            // Not a holder (a transaction's lock list may name a row
            // twice): whoever holds the lock now keeps it as it is.
            return;
        }
        if entry.holders.is_empty() {
            table.remove(&row);
        } else {
            // A holder left; remaining shared holders (possible after a
            // failed upgrade path) demote the entry.
            entry.exclusive = false;
        }
        drop(table);
        shard.cv.notify_all();
    }

    /// Release a batch of locks (commit/abort of strict 2PL txns).
    pub fn unlock_all<'a>(&self, txn: TxnId, rows: impl IntoIterator<Item = &'a RowId>) {
        for &row in rows {
            self.unlock(txn, row);
        }
    }

    /// Whether `txn` currently holds a lock on `row` (tests).
    pub fn holds(&self, txn: TxnId, row: RowId) -> bool {
        let shard = self.shard(row);
        let table = shard.table.lock();
        table.get(&row).is_some_and(|e| e.holders.contains(&txn))
    }

    /// Number of rows with at least one lock (tests/stats).
    pub fn locked_rows(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(50))
    }

    #[test]
    fn exclusive_excludes() {
        let m = mgr();
        assert!(m.try_lock(TxnId(1), RowId(1), LockMode::Exclusive));
        assert!(!m.try_lock(TxnId(2), RowId(1), LockMode::Exclusive));
        assert!(!m.try_lock(TxnId(2), RowId(1), LockMode::Shared));
        // Reentrant for the holder.
        assert!(m.try_lock(TxnId(1), RowId(1), LockMode::Exclusive));
        m.unlock(TxnId(1), RowId(1));
        assert!(m.try_lock(TxnId(2), RowId(1), LockMode::Exclusive));
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        assert!(m.try_lock(TxnId(1), RowId(1), LockMode::Shared));
        assert!(m.try_lock(TxnId(2), RowId(1), LockMode::Shared));
        // Exclusive blocked while two readers hold.
        assert!(!m.try_lock(TxnId(3), RowId(1), LockMode::Exclusive));
        m.unlock(TxnId(1), RowId(1));
        m.unlock(TxnId(2), RowId(1));
        assert!(m.try_lock(TxnId(3), RowId(1), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_when_sole_shared_holder() {
        let m = mgr();
        assert!(m.try_lock(TxnId(1), RowId(1), LockMode::Shared));
        assert!(m.try_lock(TxnId(1), RowId(1), LockMode::Exclusive));
        assert!(!m.try_lock(TxnId(2), RowId(1), LockMode::Shared));
    }

    #[test]
    fn blocking_lock_times_out_with_holder_info() {
        let m = mgr();
        assert!(m.try_lock(TxnId(1), RowId(7), LockMode::Exclusive));
        let err = m.lock(TxnId(2), RowId(7), LockMode::Exclusive).unwrap_err();
        match err {
            BtrimError::LockNotGranted { row, holder } => {
                assert_eq!(row, RowId(7));
                assert_eq!(holder, Some(TxnId(1)));
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn blocking_lock_wakes_on_release() {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        assert!(m.try_lock(TxnId(1), RowId(9), LockMode::Exclusive));
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || m2.lock(TxnId(2), RowId(9), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        m.unlock(TxnId(1), RowId(9));
        waiter.join().unwrap().unwrap();
        assert!(m.holds(TxnId(2), RowId(9)));
    }

    #[test]
    fn unlock_all_releases_everything() {
        let m = mgr();
        let rows = [RowId(1), RowId(2), RowId(3)];
        for r in rows {
            assert!(m.try_lock(TxnId(5), r, LockMode::Exclusive));
        }
        assert_eq!(m.locked_rows(), 3);
        m.unlock_all(TxnId(5), rows.iter());
        assert_eq!(m.locked_rows(), 0);
    }

    /// A transaction that wrote a row twice names it twice in its lock
    /// list. Its second unlock lands after the next writer took the row
    /// and must leave that writer's exclusive lock alone.
    #[test]
    fn duplicate_unlock_leaves_the_next_holder_exclusive() {
        let m = mgr();
        let (a, b, c, row) = (TxnId(1), TxnId(2), TxnId(3), RowId(1));
        assert!(m.try_lock(a, row, LockMode::Exclusive));
        assert!(m.try_lock(a, row, LockMode::Exclusive));
        m.unlock(a, row);
        assert!(m.try_lock(b, row, LockMode::Exclusive));
        m.unlock(a, row);
        assert!(!m.try_lock(c, row, LockMode::Shared), "B still excludes");
        assert!(m.try_lock(b, row, LockMode::Exclusive), "B re-enters");
        m.unlock_all(b, [row, row].iter());
        assert_eq!(m.locked_rows(), 0);
    }

    #[test]
    fn contended_counter_stays_consistent() {
        // 8 threads increment a shared "row" under the lock manager; the
        // final count proves mutual exclusion.
        let m = Arc::new(LockManager::new(Duration::from_secs(10)));
        let counter = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let txn = TxnId(t * 1000 + i);
                        m.lock(txn, RowId(42), LockMode::Exclusive).unwrap();
                        *counter.lock() += 1;
                        m.unlock(txn, RowId(42));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8 * 200);
        assert_eq!(m.locked_rows(), 0);
    }
}
