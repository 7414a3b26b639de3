//! The staged, batch-serialized commit pipeline.
//!
//! Engine-level contracts of the stage-and-batch refactor:
//!
//! * a committing transaction's IMRS records reach `sysimrslogs` via
//!   **one** lock acquisition (asserted with the sink's lock counter);
//! * `OpClass::CommitSerialize` captures the commit-path serialization
//!   remnant (timestamp stamping + slice building);
//! * failed commits still land in the `Commit` latency class;
//! * log-device death mid-sync under group commit errors every
//!   committer promptly and flips the engine ReadOnly exactly once;
//! * failing syncs escalate health at the engine's own thresholds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::health::{HEALTH_DEGRADE_AFTER, HEALTH_READONLY_AFTER};
use btrim_core::{Engine, EngineConfig, EngineMode, HealthState, OpClass};
use btrim_pagestore::MemDisk;
use btrim_wal::{LogSink, LsnRange, MemLog};

fn mkrow(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn opts(name: &str) -> TableOpts {
    TableOpts {
        name: name.into(),
        imrs_enabled: true,
        pinned: false,
        partitioner: Partitioner::Single,
        primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
        layout: None,
    }
}

fn cfg() -> EngineConfig {
    EngineConfig {
        // IlmOff pins every row in the IMRS, so each write stages
        // exactly one sysimrslogs record — no pack/tuning noise.
        mode: EngineMode::IlmOff,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: 1_000_000,
        ..Default::default()
    }
}

#[test]
fn multi_record_commit_takes_one_log_lock() {
    let sys = Arc::new(MemLog::new());
    let imrs = Arc::new(MemLog::new());
    let e = Engine::with_devices(cfg(), Arc::new(MemDisk::new()), sys.clone(), imrs.clone());
    let t = e.create_table(opts("t")).unwrap();

    let mut txn = e.begin();
    for i in 0..8u64 {
        e.insert(&mut txn, &t, &mkrow(i, &[7u8; 40])).unwrap();
    }
    let locks_before = imrs.append_lock_acquisitions();
    let records_before = imrs.record_count();
    e.commit(txn).unwrap();
    assert_eq!(
        imrs.append_lock_acquisitions() - locks_before,
        1,
        "8 staged records, one sysimrslogs lock acquisition"
    );
    assert_eq!(imrs.record_count() - records_before, 8);

    // The serialization remnant was timed under its own class, inside
    // the overall Commit measurement.
    let sums = e.obs().summaries();
    let count_of = |class: OpClass| {
        sums.iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| s.count)
            .unwrap_or(0)
    };
    assert!(count_of(OpClass::CommitSerialize) >= 1);
    assert!(count_of(OpClass::Commit) >= 1);
}

/// A log that can be killed: appends (single and batch) fail while
/// `dead`, syncs while `sync_fails` — each failure on its own, so a
/// test can pick the one it isolates.
struct KillableLog {
    inner: MemLog,
    dead: AtomicBool,
    sync_fails: AtomicBool,
}

impl KillableLog {
    fn new() -> Self {
        KillableLog {
            inner: MemLog::new(),
            dead: AtomicBool::new(false),
            sync_fails: AtomicBool::new(false),
        }
    }
    fn fail_if(&self, flag: &AtomicBool) -> btrim_common::Result<()> {
        if flag.load(Ordering::SeqCst) {
            return Err(btrim_common::BtrimError::Io(std::io::Error::other(
                "log device dead",
            )));
        }
        Ok(())
    }
}

impl LogSink for KillableLog {
    fn append(&self, payload: &[u8]) -> btrim_common::Result<btrim_common::Lsn> {
        self.fail_if(&self.dead)?;
        self.inner.append(payload)
    }
    fn append_batch(&self, payloads: &[&[u8]]) -> btrim_common::Result<LsnRange> {
        self.fail_if(&self.dead)?;
        self.inner.append_batch(payloads)
    }
    fn flush(&self) -> btrim_common::Result<()> {
        self.fail_if(&self.sync_fails)?;
        self.inner.flush()
    }
    fn read_all(&self) -> btrim_common::Result<Vec<(btrim_common::Lsn, Vec<u8>)>> {
        self.inner.read_all()
    }
    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }
    fn byte_size(&self) -> u64 {
        self.inner.byte_size()
    }
    fn truncate_prefix(&self, upto: btrim_common::Lsn) -> btrim_common::Result<()> {
        self.inner.truncate_prefix(upto)
    }
}

#[test]
fn failed_commit_is_recorded_in_the_commit_latency_class() {
    let sys = Arc::new(MemLog::new());
    let imrs = Arc::new(KillableLog::new());
    let e = Engine::with_devices(cfg(), Arc::new(MemDisk::new()), sys, imrs.clone());
    let t = e.create_table(opts("t")).unwrap();

    let commit_count = |e: &Engine| {
        e.obs()
            .summaries()
            .iter()
            .find(|(c, _)| *c == OpClass::Commit)
            .map(|(_, s)| s.count)
            .unwrap_or(0)
    };

    // A successful commit establishes the baseline count.
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, &[1u8; 16])).unwrap();
    e.commit(txn).unwrap();
    let base = commit_count(&e);
    assert!(base >= 1);

    // Kill the device mid-transaction: the batch append fails and the
    // commit errors — but it must still show up in the histogram,
    // because failed commits are exactly the slow/broken tail the
    // latency data exists to expose.
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(2, &[2u8; 16])).unwrap();
    imrs.dead.store(true, Ordering::SeqCst);
    assert!(e.commit(txn).is_err());
    assert_eq!(
        commit_count(&e),
        base + 1,
        "failed commit must not vanish from the Commit class"
    );
    // And the failed append flipped the engine read-only (torn-tail
    // policy), which subsequent writes observe.
    assert!(!e.health().writable());
}

#[test]
fn group_commit_device_death_errors_all_committers_and_flips_readonly_once() {
    let sys = Arc::new(MemLog::new());
    let imrs = Arc::new(KillableLog::new());
    let e = Arc::new(Engine::with_devices(
        EngineConfig {
            durable_commits: true,
            ..cfg()
        },
        Arc::new(MemDisk::new()),
        sys,
        imrs.clone(),
    ));
    let t = e.create_table(opts("t")).unwrap();

    // Concurrent committers; the device dies partway through.
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let e = Arc::clone(&e);
            let t = Arc::clone(&t);
            let imrs = Arc::clone(&imrs);
            s.spawn(move || {
                for i in 0..25u64 {
                    let mut txn = e.begin();
                    let key = w * 1_000 + i;
                    match e.insert(&mut txn, &t, &mkrow(key, &[3u8; 16])) {
                        Ok(_) => {
                            let _ = e.commit(txn);
                        }
                        Err(_) => e.abort(txn),
                    }
                    if i == 10 {
                        imrs.dead.store(true, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    // Promptness: nobody hung on the group-commit condvar. The bound is
    // generous — the point is "finished", not "fast".
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "committers must not strand on a dead device"
    );
    // ReadOnly exactly once: the state is sticky and the first reason
    // wins, so whatever reason is visible now must stay.
    let reason_now = match e.health() {
        HealthState::ReadOnly { reason } => reason,
        h => panic!("expected ReadOnly, got {h:?}"),
    };
    let mut txn = e.begin();
    assert!(e.insert(&mut txn, &t, &mkrow(9_999, &[1u8; 8])).is_err());
    e.abort(txn);
    let reason_later = match e.health() {
        HealthState::ReadOnly { reason } => reason,
        h => panic!("expected ReadOnly, got {h:?}"),
    };
    assert_eq!(reason_now, reason_later, "ReadOnly flipped more than once");
}

/// Storage errors escalate at the engine's own thresholds: Degraded at
/// `HEALTH_DEGRADE_AFTER` consecutive ones, ReadOnly at
/// `HEALTH_READONLY_AFTER`; one success heals Degraded, nothing heals
/// ReadOnly. The errors are failed commit syncs (appends keep working,
/// so the torn-tail policy's immediate write stop stays out of it).
#[test]
fn failing_syncs_degrade_then_stop_writes_and_only_degraded_heals() {
    let imrs = Arc::new(KillableLog::new());
    let e = Engine::with_devices(
        EngineConfig {
            durable_commits: true,
            ..cfg()
        },
        Arc::new(MemDisk::new()),
        Arc::new(MemLog::new()),
        imrs.clone(),
    );
    let t = e.create_table(opts("t")).unwrap();
    let mut next_key = 0u64;
    let mut commit_one = || {
        let mut txn = e.begin();
        next_key += 1;
        e.insert(&mut txn, &t, &mkrow(next_key, &[5u8; 16]))?;
        e.commit(txn)
    };

    imrs.sync_fails.store(true, Ordering::SeqCst);
    for n in 1..=HEALTH_DEGRADE_AFTER {
        assert_eq!(e.health(), HealthState::Healthy, "before error {n}");
        assert!(commit_one().is_err());
    }
    assert!(matches!(e.health(), HealthState::Degraded { .. }));

    imrs.sync_fails.store(false, Ordering::SeqCst);
    commit_one().unwrap();
    assert_eq!(e.health(), HealthState::Healthy, "one success heals");

    imrs.sync_fails.store(true, Ordering::SeqCst);
    for n in 1..=HEALTH_READONLY_AFTER {
        assert!(e.health().writable(), "before error {n}");
        assert!(commit_one().is_err());
        if (HEALTH_DEGRADE_AFTER..HEALTH_READONLY_AFTER).contains(&n) {
            assert!(matches!(e.health(), HealthState::Degraded { .. }));
        }
    }
    assert!(matches!(e.health(), HealthState::ReadOnly { .. }));

    // Sticky: the device is fine again, the engine still refuses.
    imrs.sync_fails.store(false, Ordering::SeqCst);
    assert!(matches!(
        commit_one(),
        Err(btrim_common::BtrimError::ReadOnly(_))
    ));
    assert_eq!(
        e.snapshot().storage_errors,
        HEALTH_DEGRADE_AFTER + HEALTH_READONLY_AFTER
    );
}
