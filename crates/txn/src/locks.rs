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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

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

/// The multiplier of [`RowIdHasher`] and of the shard pick (2^64 / φ).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes a `RowId` with one multiply. RowIds are handed out by the
/// engine, never chosen by a client, so nothing can aim collisions at
/// the table the way SipHash guards against.
#[derive(Default)]
struct RowIdHasher(u64);

impl Hasher for RowIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(GOLDEN);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(GOLDEN);
    }
}

/// One locked row. It exists only while someone holds the row, and an
/// exclusive lock has exactly one holder: an exclusive grant needs the
/// row to itself, a shared one needs it not exclusive.
#[derive(Debug)]
struct LockEntry {
    /// The first holder, stored inline.
    holder: TxnId,
    /// Shared co-holders beyond `holder` (an empty `Vec` owns no memory).
    others: Vec<TxnId>,
    exclusive: bool,
}

impl LockEntry {
    fn new(txn: TxnId, mode: LockMode) -> Self {
        LockEntry {
            holder: txn,
            others: Vec::new(),
            exclusive: mode == LockMode::Exclusive,
        }
    }

    fn holds(&self, txn: TxnId) -> bool {
        self.holder == txn || self.others.contains(&txn)
    }

    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        let sole = self.holder == txn && self.others.is_empty();
        match mode {
            LockMode::Shared => !self.exclusive || sole,
            LockMode::Exclusive => sole,
        }
    }

    /// Grant a lock [`can_grant`](Self::can_grant) allowed. A holder
    /// that already has exclusive keeps it; an exclusive grant is the
    /// sole holder's upgrade.
    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if !self.holds(txn) {
            self.others.push(txn);
        }
        if mode == LockMode::Exclusive {
            self.exclusive = true;
        }
    }

    /// Drop `txn` from the holders: `None` when it held nothing,
    /// `Some(true)` when nobody holds the row any more.
    fn release(&mut self, txn: TxnId) -> Option<bool> {
        if self.holder == txn {
            let Some(next) = self.others.pop() else {
                return Some(true);
            };
            self.holder = next;
        } else {
            let i = self.others.iter().position(|&t| t == txn)?;
            self.others.swap_remove(i);
        }
        Some(false)
    }
}

#[derive(Default)]
struct ShardTable {
    rows: HashMap<RowId, LockEntry, BuildHasherDefault<RowIdHasher>>,
    /// Threads blocked in `cv` on this shard: an unlock wakes them only
    /// when there are any, so an uncontended release makes no syscall.
    waiters: u32,
}

struct Shard {
    table: Mutex<ShardTable>,
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
                    table: Mutex::new(ShardTable::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            default_timeout,
        }
    }

    #[inline]
    fn shard(&self, row: RowId) -> &Shard {
        let h = (row.0.wrapping_mul(GOLDEN) >> 32) as usize;
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
        // The clock is read only by a request that has to wait.
        let mut deadline = None;
        loop {
            let holder = match table.rows.entry(row) {
                Entry::Vacant(slot) => {
                    slot.insert(LockEntry::new(txn, mode));
                    return Ok(());
                }
                Entry::Occupied(mut held) if held.get().can_grant(txn, mode) => {
                    held.get_mut().grant(txn, mode);
                    return Ok(());
                }
                Entry::Occupied(held) => held.get().holder,
            };
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            table.waiters += 1;
            let timed_out = shard.cv.wait_until(&mut table, deadline).timed_out();
            table.waiters -= 1;
            if timed_out {
                return Err(BtrimError::LockNotGranted {
                    row,
                    holder: Some(holder),
                });
            }
        }
    }

    /// Conditional (try) lock: never blocks. This is the primitive pack
    /// threads use — "Pack threads request a conditional lock on rows.
    /// If a row-lock cannot be granted, row is skipped for pack"
    /// (§VII.B).
    pub fn try_lock(&self, txn: TxnId, row: RowId, mode: LockMode) -> bool {
        let mut table = self.shard(row).table.lock();
        match table.rows.entry(row) {
            Entry::Vacant(slot) => {
                slot.insert(LockEntry::new(txn, mode));
                true
            }
            Entry::Occupied(mut held) if held.get().can_grant(txn, mode) => {
                held.get_mut().grant(txn, mode);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Release one lock. A no-op if `txn` does not hold it (a
    /// transaction's lock list may name a row twice: whoever holds the
    /// lock now keeps it as it is).
    pub fn unlock(&self, txn: TxnId, row: RowId) {
        let shard = self.shard(row);
        let mut table = shard.table.lock();
        let Some(entry) = table.rows.get_mut(&row) else {
            return;
        };
        match entry.release(txn) {
            None => return,
            Some(true) => {
                table.rows.remove(&row);
            }
            Some(false) => {}
        }
        let wake = table.waiters > 0;
        drop(table);
        if wake {
            shard.cv.notify_all();
        }
    }

    /// Release a batch of locks (commit/abort of strict 2PL txns).
    pub fn unlock_all<'a>(&self, txn: TxnId, rows: impl IntoIterator<Item = &'a RowId>) {
        for &row in rows {
            self.unlock(txn, row);
        }
    }

    /// Whether `txn` currently holds a lock on `row` (tests).
    pub fn holds(&self, txn: TxnId, row: RowId) -> bool {
        let table = self.shard(row).table.lock();
        table.rows.get(&row).is_some_and(|e| e.holds(txn))
    }

    /// Number of rows with at least one lock (tests/stats).
    pub fn locked_rows(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().rows.len()).sum()
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

    /// A waiter queued behind two shared holders is woken when the last
    /// one leaves — not by the first release, which leaves it blocked,
    /// and not by a timeout: it gets the lock well inside its deadline.
    #[test]
    fn waiter_behind_shared_holders_wakes_when_the_last_leaves() {
        let m = Arc::new(LockManager::new(Duration::from_secs(30)));
        let row = RowId(5);
        assert!(m.try_lock(TxnId(1), row, LockMode::Shared));
        assert!(m.try_lock(TxnId(2), row, LockMode::Shared));
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            let t = std::time::Instant::now();
            m2.lock(TxnId(3), row, LockMode::Exclusive)
                .map(|()| t.elapsed())
        });
        // The waiter has counted itself on the shard before it sleeps.
        while m.shard(row).table.lock().waiters == 0 {
            std::thread::yield_now();
        }
        m.unlock(TxnId(1), row);
        assert!(!m.holds(TxnId(3), row), "one shared holder is left");
        m.unlock(TxnId(2), row);
        let waited = waiter.join().unwrap().unwrap();
        assert!(waited < Duration::from_secs(10), "woken, not timed out");
        assert!(m.holds(TxnId(3), row));
        assert_eq!(m.shard(row).table.lock().waiters, 0);
    }
}

#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// 64 cases, or what `PROPTEST_CASES` asks for (CI: 256).
    fn cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        asked.and_then(|n| n.parse().ok()).unwrap_or(64)
    }

    /// The reference: each locked row's holders and exclusive flag.
    #[derive(Default)]
    struct Model(BTreeMap<u64, (BTreeSet<u64>, bool)>);

    impl Model {
        fn can_grant(&self, txn: u64, row: u64, mode: LockMode) -> bool {
            let Some((holders, exclusive)) = self.0.get(&row) else {
                return true;
            };
            let sole = holders.len() == 1 && holders.contains(&txn);
            match mode {
                LockMode::Shared => !exclusive || sole,
                LockMode::Exclusive => sole,
            }
        }

        fn lock(&mut self, txn: u64, row: u64, mode: LockMode) -> bool {
            if !self.can_grant(txn, row, mode) {
                return false;
            }
            let (holders, exclusive) = self.0.entry(row).or_default();
            holders.insert(txn);
            *exclusive |= mode == LockMode::Exclusive;
            true
        }

        fn unlock(&mut self, txn: u64, row: u64) {
            let Some((holders, exclusive)) = self.0.get_mut(&row) else {
                return;
            };
            if holders.remove(&txn) {
                *exclusive = false;
                if holders.is_empty() {
                    self.0.remove(&row);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        TryLock(u64, u64, bool),
        LockNoWait(u64, u64, bool),
        Unlock(u64, u64),
        UnlockAll(u64, Vec<u64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        let (txn, row) = (1..4u64, 0..4u64);
        prop_oneof![
            (txn.clone(), row.clone(), any::<bool>()).prop_map(|(t, r, x)| Op::TryLock(t, r, x)),
            (txn.clone(), row.clone(), any::<bool>()).prop_map(|(t, r, x)| Op::LockNoWait(t, r, x)),
            (txn.clone(), row.clone()).prop_map(|(t, r)| Op::Unlock(t, r)),
            (txn, proptest::collection::vec(row, 0..6)).prop_map(|(t, rs)| Op::UnlockAll(t, rs)),
        ]
    }

    fn mode(exclusive: bool) -> LockMode {
        if exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Random lock traffic of 3 transactions over 4 rows grants,
        /// refuses and releases exactly as the reference says, and
        /// leaves the same holders behind after every step.
        #[test]
        fn lock_manager_matches_the_reference(ops in proptest::collection::vec(op(), 1..80)) {
            let m = LockManager::new(Duration::from_millis(50));
            let mut model = Model::default();
            for op in &ops {
                match op {
                    Op::TryLock(t, r, x) => {
                        let want = model.lock(*t, *r, mode(*x));
                        prop_assert_eq!(m.try_lock(TxnId(*t), RowId(*r), mode(*x)), want, "{:?}", op);
                    }
                    Op::LockNoWait(t, r, x) => {
                        let got = m.lock_timeout(TxnId(*t), RowId(*r), mode(*x), Duration::ZERO);
                        let holders = model.0.get(r).map(|h| h.0.clone()).unwrap_or_default();
                        let want = model.lock(*t, *r, mode(*x));
                        match got {
                            Ok(()) => prop_assert!(want, "{:?} granted", op),
                            Err(BtrimError::LockNotGranted { row, holder: Some(h) }) => {
                                prop_assert!(!want, "{:?} refused", op);
                                prop_assert_eq!(row, RowId(*r));
                                prop_assert!(holders.contains(&h.0), "{:?}: {:?} holds nothing", op, h);
                            }
                            Err(e) => prop_assert!(false, "{:?}: {}", op, e),
                        }
                    }
                    Op::Unlock(t, r) => {
                        m.unlock(TxnId(*t), RowId(*r));
                        model.unlock(*t, *r);
                    }
                    Op::UnlockAll(t, rs) => {
                        let rows: Vec<RowId> = rs.iter().map(|&r| RowId(r)).collect();
                        m.unlock_all(TxnId(*t), rows.iter());
                        for r in rs {
                            model.unlock(*t, *r);
                        }
                    }
                }
                prop_assert_eq!(m.locked_rows(), model.0.len());
                for r in 0..4u64 {
                    let shard = m.shard(RowId(r)).table.lock();
                    let entry = shard.rows.get(&RowId(r));
                    prop_assert_eq!(entry.map(|e| e.exclusive), model.0.get(&r).map(|h| h.1));
                    for t in 1..4u64 {
                        let held = model.0.get(&r).is_some_and(|h| h.0.contains(&t));
                        prop_assert_eq!(entry.is_some_and(|e| e.holds(TxnId(t))), held, "txn {} row {}", t, r);
                    }
                }
            }
        }
    }
}
