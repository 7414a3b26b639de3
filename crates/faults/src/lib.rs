//! Deterministic fault injection for the storage stack (test support).
//!
//! [`FaultDisk`] wraps any [`DiskBackend`] and [`FaultLog`] wraps any
//! [`LogSink`]; both consult a shared [`FaultState`] built from a
//! seeded [`FaultPlan`], so a whole device set (page device + both
//! logs) misbehaves under one reproducible schedule:
//!
//! - **Transient errors**: seeded-probability read/write/sync failures,
//!   capped by an error budget (so workloads eventually make progress).
//! - **Torn page writes**: the Nth page write persists only the first
//!   `torn_prefix_bytes` of the new image over the old one and then
//!   *reports success* — a lying device. Detection is the checksum's
//!   job at fetch or recovery time.
//! - **Partial log appends**: a truncated payload reaches the sink but
//!   the caller gets an error — the record is framed (checksum-valid) yet
//!   undecodable, exercising decode-level salvage.
//! - **Log-device death**: after N successful appends every later
//!   append/flush fails, permanently — the engine must degrade to
//!   read-only, not hang or panic.
//! - **Fail-stop**: after K total device operations the shared crash
//!   switch flips and *every* wrapped device fails everything —
//!   a whole-machine crash at a single instant.
//!
//! Injected faults never touch `read_all`/`truncate_prefix` plumbing:
//! recovery reads go straight through, matching the model of a reboot
//! onto the surviving media.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use btrim_common::{BtrimError, Lsn, PageId, Result};
use btrim_pagestore::{DiskBackend, PAGE_SIZE};
use btrim_wal::LogSink;

/// A deterministic schedule of storage faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed; the same plan + seed reproduces the same fault
    /// schedule for the same operation sequence.
    pub seed: u64,
    /// Probability that a page read fails transiently.
    pub read_error_prob: f64,
    /// Probability that a page write fails transiently.
    pub write_error_prob: f64,
    /// Probability that a disk/log sync or flush fails transiently.
    pub sync_error_prob: f64,
    /// Probability that a log append persists only a truncated payload
    /// while reporting failure to the caller.
    pub partial_append_prob: f64,
    /// Cap on the total number of probabilistic faults injected.
    pub error_budget: u64,
    /// Tear the Nth page write (0-based, counted across the plan's
    /// devices): persist `torn_prefix_bytes` of the new image over the
    /// old page and report success.
    pub torn_write_at: Option<u64>,
    /// Prefix of the new image that survives a torn write.
    pub torn_prefix_bytes: usize,
    /// Log device dies permanently after this many successful appends.
    pub fail_appends_after: Option<u64>,
    /// Tear the Nth *batch* append (0-based, counted across the plan's
    /// wrapped logs): the caller gets an error, and the seeded RNG
    /// decides whether the media kept the whole batch or none of it —
    /// the only two outcomes a checksum-covered batch frame allows. A batch
    /// can never persist a prefix of its records; byte-level tears of
    /// the frame itself are exercised at the `FileLog` layer.
    pub torn_batch_at: Option<u64>,
    /// Fail-stop the whole device set after this many total operations.
    pub fail_stop_after_ops: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            read_error_prob: 0.0,
            write_error_prob: 0.0,
            sync_error_prob: 0.0,
            partial_append_prob: 0.0,
            error_budget: 0,
            torn_write_at: None,
            torn_prefix_bytes: 512,
            fail_appends_after: None,
            torn_batch_at: None,
            fail_stop_after_ops: None,
        }
    }
}

/// Counters of faults actually injected, for test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transient read errors injected.
    pub read_errors: u64,
    /// Transient write errors injected.
    pub write_errors: u64,
    /// Transient sync/flush errors injected.
    pub sync_errors: u64,
    /// Torn page writes performed (reported as success).
    pub torn_writes: u64,
    /// Partial log appends performed (reported as failure).
    pub partial_appends: u64,
    /// Torn batch appends performed (reported as failure).
    pub torn_batches: u64,
    /// Appends rejected by a dead log device.
    pub dead_appends: u64,
}

/// Shared fault engine: one per plan, shared by every wrapped device so
/// budgets, the op counter, and the crash switch are global.
pub struct FaultState {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    ops: AtomicU64,
    /// Dynamically armed fail-stop: absolute op index at which the
    /// crash switch flips (`u64::MAX` = disarmed). Lets a test observe
    /// the system, then schedule a crash "N device ops from now" —
    /// e.g. mid-checkpoint — without knowing absolute counts up front.
    dynamic_fail_stop: AtomicU64,
    page_writes: AtomicU64,
    log_appends: AtomicU64,
    log_batches: AtomicU64,
    budget_left: AtomicU64,
    crashed: AtomicBool,
    log_dead: AtomicBool,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    sync_errors: AtomicU64,
    torn_writes: AtomicU64,
    partial_appends: AtomicU64,
    torn_batches: AtomicU64,
    dead_appends: AtomicU64,
}

fn injected(what: &str) -> BtrimError {
    BtrimError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

impl FaultState {
    /// Build the shared state for one plan.
    pub fn new(plan: FaultPlan) -> Arc<FaultState> {
        Arc::new(FaultState {
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            budget_left: AtomicU64::new(plan.error_budget),
            ops: AtomicU64::new(0),
            dynamic_fail_stop: AtomicU64::new(u64::MAX),
            page_writes: AtomicU64::new(0),
            log_appends: AtomicU64::new(0),
            log_batches: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            log_dead: AtomicBool::new(false),
            read_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            sync_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            partial_appends: AtomicU64::new(0),
            torn_batches: AtomicU64::new(0),
            dead_appends: AtomicU64::new(0),
            plan,
        })
    }

    /// Whether the fail-stop switch has flipped.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Total device operations ticked so far (reads, writes, appends,
    /// flushes, truncations — everything that consults the plan).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Arm a fail-stop `ops_from_now` device operations from the
    /// current count: op index `ops() + ops_from_now` and everything
    /// after it fails on every wrapped device. Arming again re-targets
    /// the crash; a plan-level `fail_stop_after_ops` still applies
    /// independently (whichever trips first wins).
    pub fn fail_stop_in(&self, ops_from_now: u64) {
        let at = self.ops().saturating_add(ops_from_now);
        self.dynamic_fail_stop.store(at, Ordering::Release);
    }

    /// Flip the fail-stop switch immediately (all wrapped devices fail
    /// everything from now on).
    pub fn crash_now(&self) {
        self.crashed.store(true, Ordering::Release);
    }

    /// Whether the log device has died permanently.
    pub fn log_dead(&self) -> bool {
        self.log_dead.load(Ordering::Acquire)
    }

    /// Faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            sync_errors: self.sync_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            partial_appends: self.partial_appends.load(Ordering::Relaxed),
            torn_batches: self.torn_batches.load(Ordering::Relaxed),
            dead_appends: self.dead_appends.load(Ordering::Relaxed),
        }
    }

    /// Count one device operation; flips the crash switch at the
    /// configured op index. Returns an error if the device set is
    /// (now) crashed.
    fn tick(&self) -> Result<()> {
        let op = self.ops.fetch_add(1, Ordering::AcqRel);
        if let Some(k) = self.plan.fail_stop_after_ops {
            if op >= k {
                self.crashed.store(true, Ordering::Release);
            }
        }
        if op >= self.dynamic_fail_stop.load(Ordering::Acquire) {
            self.crashed.store(true, Ordering::Release);
        }
        if self.crashed() {
            return Err(injected("fail-stop"));
        }
        Ok(())
    }

    /// Draw a probabilistic fault if the budget allows.
    fn draw(&self, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        if !self.rng.lock().gen_bool(prob) {
            return false;
        }
        self.budget_left
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok()
    }
}

/// A [`DiskBackend`] wrapper that injects the plan's disk faults.
pub struct FaultDisk {
    inner: Arc<dyn DiskBackend>,
    state: Arc<FaultState>,
}

impl FaultDisk {
    /// Wrap a backend.
    pub fn new(inner: Arc<dyn DiskBackend>, state: Arc<FaultState>) -> Self {
        FaultDisk { inner, state }
    }

    /// The shared fault state.
    pub fn state(&self) -> &Arc<FaultState> {
        &self.state
    }
}

impl DiskBackend for FaultDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.state.tick()?;
        if self.state.draw(self.state.plan.read_error_prob) {
            self.state.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(injected("transient read"));
        }
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.state.tick()?;
        let widx = self.state.page_writes.fetch_add(1, Ordering::AcqRel);
        if self.state.plan.torn_write_at == Some(widx) && buf.len() == PAGE_SIZE {
            // The lying device: persist a torn image, report success.
            let n = self.state.plan.torn_prefix_bytes.min(PAGE_SIZE);
            let mut torn = vec![0u8; PAGE_SIZE];
            // Old image (a page never written reads back as zeros).
            if self.inner.read_page(id, &mut torn).is_err() {
                torn.fill(0);
            }
            torn[..n].copy_from_slice(&buf[..n]);
            self.inner.write_page(id, &torn)?;
            self.state.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if self.state.draw(self.state.plan.write_error_prob) {
            self.state.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(injected("transient write"));
        }
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&self) -> Result<PageId> {
        self.state.tick()?;
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        self.state.tick()?;
        if self.state.draw(self.state.plan.sync_error_prob) {
            self.state.sync_errors.fetch_add(1, Ordering::Relaxed);
            return Err(injected("transient sync"));
        }
        self.inner.sync()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

/// A [`LogSink`] wrapper that injects the plan's log faults.
pub struct FaultLog {
    inner: Arc<dyn LogSink>,
    state: Arc<FaultState>,
}

impl FaultLog {
    /// Wrap a sink.
    pub fn new(inner: Arc<dyn LogSink>, state: Arc<FaultState>) -> Self {
        FaultLog { inner, state }
    }

    fn check_dead(&self) -> Result<()> {
        if self.state.log_dead() {
            self.state.dead_appends.fetch_add(1, Ordering::Relaxed);
            return Err(injected("log device dead"));
        }
        Ok(())
    }
}

impl LogSink for FaultLog {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.state.tick()?;
        self.check_dead()?;
        let aidx = self.state.log_appends.fetch_add(1, Ordering::AcqRel);
        if let Some(k) = self.state.plan.fail_appends_after {
            if aidx >= k {
                self.state.log_dead.store(true, Ordering::Release);
                self.state.dead_appends.fetch_add(1, Ordering::Relaxed);
                return Err(injected("log device dead"));
            }
        }
        if self.state.draw(self.state.plan.partial_append_prob) && payload.len() > 1 {
            // Persist a truncated payload (checksum-framed over the short
            // bytes — undecodable) and fail the caller.
            let _ = self.inner.append(&payload[..payload.len() / 2]);
            self.state.partial_appends.fetch_add(1, Ordering::Relaxed);
            return Err(injected("partial append"));
        }
        self.inner.append(payload)
    }

    fn append_batch(&self, payloads: &[&[u8]]) -> Result<btrim_wal::LsnRange> {
        self.state.tick()?;
        self.check_dead()?;
        // A batch counts as one append toward the death trigger (one
        // frame, one device write), and the death never splits it: a
        // batch that trips the trigger persists nothing.
        let aidx = self.state.log_appends.fetch_add(1, Ordering::AcqRel);
        if let Some(k) = self.state.plan.fail_appends_after {
            if aidx >= k {
                self.state.log_dead.store(true, Ordering::Release);
                self.state.dead_appends.fetch_add(1, Ordering::Relaxed);
                return Err(injected("log device dead"));
            }
        }
        let bidx = self.state.log_batches.fetch_add(1, Ordering::AcqRel);
        if self.state.plan.torn_batch_at == Some(bidx) {
            // The frame's checksum covers every record, so a tear leaves the
            // media holding either the whole batch or nothing — never a
            // prefix of its records. The seeded RNG picks which; the
            // caller sees an error either way (the ack never happened).
            let keep_all = self.state.rng.lock().gen_bool(0.5);
            if keep_all {
                let _ = self.inner.append_batch(payloads);
            }
            self.state.torn_batches.fetch_add(1, Ordering::Relaxed);
            return Err(injected("torn batch append"));
        }
        // `partial_append_prob` deliberately does not apply here: a
        // truncated *record* cannot exist inside a checksum-covered batch
        // frame. Transient whole-batch failures come from the death and
        // torn-batch triggers above.
        self.inner.append_batch(payloads)
    }

    fn flush(&self) -> Result<()> {
        self.state.tick()?;
        self.check_dead()?;
        if self.state.draw(self.state.plan.sync_error_prob) {
            self.state.sync_errors.fetch_add(1, Ordering::Relaxed);
            return Err(injected("transient flush"));
        }
        self.inner.flush()
    }

    fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
        // Recovery reads go straight through: a reboot reads whatever
        // survived on the media.
        self.inner.read_all()
    }

    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    fn byte_size(&self) -> u64 {
        self.inner.byte_size()
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        self.state.tick()?;
        self.inner.truncate_prefix(upto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_pagestore::{stamp_page_checksum, verify_page_checksum, MemDisk};
    use btrim_wal::MemLog;

    fn heap_page(fill: u8) -> Vec<u8> {
        let mut buf = vec![fill; PAGE_SIZE];
        buf[0] = 1; // PageType::Heap so the checksum is not exempt
        stamp_page_checksum(&mut buf);
        buf
    }

    #[test]
    fn passthrough_when_plan_is_empty() {
        let state = FaultState::new(FaultPlan::default());
        let disk = FaultDisk::new(Arc::new(MemDisk::new()), state.clone());
        let p = disk.allocate_page().unwrap();
        let w = heap_page(7);
        disk.write_page(p, &w).unwrap();
        let mut r = vec![0u8; PAGE_SIZE];
        disk.read_page(p, &mut r).unwrap();
        assert_eq!(r, w);
        disk.sync().unwrap();
        assert_eq!(state.counters(), FaultCounters::default());
    }

    #[test]
    fn transient_errors_are_deterministic_and_budgeted() {
        let plan = FaultPlan {
            seed: 42,
            read_error_prob: 0.5,
            error_budget: 3,
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| {
            let state = FaultState::new(plan);
            let disk = FaultDisk::new(Arc::new(MemDisk::new()), state.clone());
            let p = disk.allocate_page().unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            let outcomes: Vec<bool> = (0..64)
                .map(|_| disk.read_page(p, &mut buf).is_ok())
                .collect();
            (outcomes, state.counters())
        };
        let (a, ca) = run(plan.clone());
        let (b, cb) = run(plan);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(ca, cb);
        assert_eq!(ca.read_errors, 3, "budget caps injections");
        assert!(a.iter().filter(|ok| !**ok).count() == 3);
    }

    #[test]
    fn torn_write_is_silent_and_checksum_detected() {
        let plan = FaultPlan {
            torn_write_at: Some(1),
            torn_prefix_bytes: 100,
            ..FaultPlan::default()
        };
        let inner = Arc::new(MemDisk::new());
        let state = FaultState::new(plan);
        let disk = FaultDisk::new(inner.clone(), state.clone());
        let p = disk.allocate_page().unwrap();
        let v1 = heap_page(0xAA);
        disk.write_page(p, &v1).unwrap(); // write 0: intact
        let v2 = heap_page(0xBB);
        disk.write_page(p, &v2).unwrap(); // write 1: torn, still Ok
        assert_eq!(state.counters().torn_writes, 1);

        let mut r = vec![0u8; PAGE_SIZE];
        inner.read_page(p, &mut r).unwrap();
        assert_eq!(&r[..100], &v2[..100], "new prefix landed");
        assert_eq!(&r[100..], &v1[100..], "old tail survived");
        assert!(
            !verify_page_checksum(&r),
            "torn page must fail verification"
        );
    }

    #[test]
    fn fail_stop_kills_every_device_at_one_instant() {
        let plan = FaultPlan {
            fail_stop_after_ops: Some(5),
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        let disk = FaultDisk::new(Arc::new(MemDisk::new()), state.clone());
        let log = FaultLog::new(Arc::new(MemLog::new()), state.clone());
        let p = disk.allocate_page().unwrap(); // op 0
        let w = heap_page(1);
        disk.write_page(p, &w).unwrap(); // op 1
        log.append(b"a").unwrap(); // op 2
        log.append(b"b").unwrap(); // op 3
        disk.sync().unwrap(); // op 4
                              // Op 5 crosses the threshold: everything fails from here on,
                              // on both devices.
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(disk.read_page(p, &mut buf).is_err());
        assert!(log.append(b"c").is_err());
        assert!(disk.write_page(p, &w).is_err());
        assert!(log.flush().is_err());
        assert!(state.crashed());
        // Recovery-style reads still see what landed before the crash.
        assert_eq!(log.read_all().unwrap().len(), 2);
    }

    #[test]
    fn log_death_after_n_appends_is_permanent() {
        let plan = FaultPlan {
            fail_appends_after: Some(2),
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        let log = FaultLog::new(Arc::new(MemLog::new()), state.clone());
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        for _ in 0..5 {
            assert!(log.append(b"never").is_err());
            assert!(log.flush().is_err());
        }
        assert!(state.log_dead());
        assert!(state.counters().dead_appends >= 5);
    }

    #[test]
    fn partial_append_persists_garbage_but_reports_failure() {
        let plan = FaultPlan {
            seed: 7,
            partial_append_prob: 1.0,
            error_budget: 1,
            ..FaultPlan::default()
        };
        let inner = Arc::new(MemLog::new());
        let state = FaultState::new(plan);
        let log = FaultLog::new(inner.clone(), state.clone());
        let payload = b"0123456789abcdef".to_vec();
        assert!(log.append(&payload).is_err());
        assert_eq!(state.counters().partial_appends, 1);
        let on_media = inner.read_all().unwrap();
        assert_eq!(on_media.len(), 1);
        assert_eq!(on_media[0].1, payload[..payload.len() / 2].to_vec());
        // Budget exhausted: the next append goes through intact.
        assert!(log.append(&payload).is_ok());
        assert_eq!(inner.read_all().unwrap().len(), 2);
    }

    #[test]
    fn torn_batch_is_all_or_nothing_and_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan {
                seed,
                torn_batch_at: Some(1),
                ..FaultPlan::default()
            };
            let inner = Arc::new(MemLog::new());
            let state = FaultState::new(plan);
            let log = FaultLog::new(inner.clone(), state.clone());
            log.append_batch(&[b"a0".as_ref(), b"a1".as_ref()]).unwrap();
            // Batch 1 is torn: error to the caller, media keeps all of
            // it or none of it.
            assert!(log
                .append_batch(&[b"b0".as_ref(), b"b1".as_ref(), b"b2".as_ref()])
                .is_err());
            assert_eq!(state.counters().torn_batches, 1);
            let n = inner.read_all().unwrap().len();
            assert!(n == 2 || n == 5, "all-or-nothing, got {n} records");
            // Later batches go through intact.
            log.append_batch(&[b"c0".as_ref()]).unwrap();
            n
        };
        // Deterministic per seed; different seeds reach both outcomes.
        for seed in 0..16 {
            assert_eq!(run(seed), run(seed));
        }
        let outcomes: std::collections::BTreeSet<usize> = (0..16).map(run).collect();
        assert_eq!(outcomes.len(), 2, "both tear outcomes exercised");
    }

    #[test]
    fn dead_log_rejects_batches_without_splitting_them() {
        let plan = FaultPlan {
            fail_appends_after: Some(1),
            ..FaultPlan::default()
        };
        let inner = Arc::new(MemLog::new());
        let state = FaultState::new(plan);
        let log = FaultLog::new(inner.clone(), state.clone());
        log.append(b"one").unwrap();
        assert!(log.append_batch(&[b"x".as_ref(), b"y".as_ref()]).is_err());
        assert!(state.log_dead());
        assert_eq!(
            inner.read_all().unwrap().len(),
            1,
            "dying device persisted no part of the batch"
        );
    }

    #[test]
    fn dynamic_fail_stop_counts_from_now() {
        let state = FaultState::new(FaultPlan::default());
        let disk = FaultDisk::new(Arc::new(MemDisk::new()), state.clone());
        let log = FaultLog::new(Arc::new(MemLog::new()), state.clone());
        let p = disk.allocate_page().unwrap(); // op 0
        log.append(b"a").unwrap(); // op 1
        assert_eq!(state.ops(), 2);
        // Crash two ops from now: ops 2 and 3 succeed, op 4 fails.
        state.fail_stop_in(2);
        let w = heap_page(3);
        disk.write_page(p, &w).unwrap(); // op 2
        log.append(b"b").unwrap(); // op 3
        assert!(disk.sync().is_err()); // op 4: crash
        assert!(state.crashed());
        assert!(log.append(b"c").is_err());
        // Recovery-style reads still pass through.
        assert_eq!(log.read_all().unwrap().len(), 2);
    }

    #[test]
    fn crash_now_flips_the_switch() {
        let state = FaultState::new(FaultPlan::default());
        let disk = FaultDisk::new(Arc::new(MemDisk::new()), state.clone());
        disk.allocate_page().unwrap();
        state.crash_now();
        assert!(disk.allocate_page().is_err());
        assert!(disk.sync().is_err());
    }
}
