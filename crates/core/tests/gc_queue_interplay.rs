//! GC ↔ ILM-queue interplay (§VI.B "Queue Maintenance offloaded from
//! transactions"): every row visits the queues through GC, membership
//! is exactly-once, and version churn never leaks memory.

use std::sync::Arc;

use btrim_core::catalog::TableOpts;
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{Engine, EngineConfig, EngineMode, RowId};
use btrim_pagestore::{DiskBackend, MemDisk, PAGE_SIZE};
use btrim_wal::{LogSink, MemLog};

fn mkrow(key: u64, v: u8) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&[v; 40]);
    r
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        maintenance_interval_txns: u64::MAX / 2, // manual maintenance
        ..Default::default()
    })
}

#[test]
fn every_committed_row_reaches_the_queue_exactly_once() {
    let e = engine();
    let t = e
        .create_table(TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec())))
        .unwrap();
    let mut txn = e.begin();
    for i in 0..500u64 {
        e.insert(&mut txn, &t, &mkrow(i, 1)).unwrap();
    }
    e.commit(txn).unwrap();
    e.run_maintenance();
    let snap = e.snapshot();
    assert_eq!(snap.queue_total, 500, "one queue entry per row");
    assert_eq!(snap.gc_backlog, 0, "GC drained");

    // Updating rows re-registers them with GC, but the queue membership
    // flag prevents duplicates.
    let mut txn = e.begin();
    for i in 0..500u64 {
        e.update(&mut txn, &t, &i.to_be_bytes(), &mkrow(i, 2))
            .unwrap();
    }
    e.commit(txn).unwrap();
    e.run_maintenance();
    assert_eq!(
        e.snapshot().queue_total,
        500,
        "still exactly one entry per row"
    );
}

#[test]
fn version_churn_is_reclaimed_by_gc() {
    let e = engine();
    let t = e
        .create_table(TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec())))
        .unwrap();
    let mut txn = e.begin();
    for i in 0..50u64 {
        e.insert(&mut txn, &t, &mkrow(i, 0)).unwrap();
    }
    e.commit(txn).unwrap();
    e.run_maintenance();
    let settled = e.snapshot().imrs_used_bytes;

    // 40 update rounds: without GC this would be 40x the memory.
    for round in 1..=40u8 {
        let mut txn = e.begin();
        for i in 0..50u64 {
            e.update(&mut txn, &t, &i.to_be_bytes(), &mkrow(i, round))
                .unwrap();
        }
        e.commit(txn).unwrap();
        e.run_maintenance();
    }
    let after = e.snapshot().imrs_used_bytes;
    assert!(
        after <= settled * 2,
        "GC bounds version churn: {settled} -> {after} bytes"
    );
    assert!(e.snapshot().gc_bytes_freed > 0);

    // All rows still readable with the latest value.
    let txn = e.begin();
    for i in 0..50u64 {
        let row = e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap();
        assert_eq!(row[8], 40);
    }
    e.commit(txn).unwrap();
}

#[test]
fn deleted_rows_are_fully_reclaimed() {
    let e = engine();
    let t = e
        .create_table(TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec())))
        .unwrap();
    let mut txn = e.begin();
    for i in 0..200u64 {
        e.insert(&mut txn, &t, &mkrow(i, 1)).unwrap();
    }
    e.commit(txn).unwrap();
    e.run_maintenance();

    let mut txn = e.begin();
    for i in 0..200u64 {
        assert!(e.delete(&mut txn, &t, &i.to_be_bytes()).unwrap());
    }
    e.commit(txn).unwrap();
    // Two maintenance passes: the first truncates chains, the second
    // collects the now-dead tombstones.
    e.run_maintenance();
    e.run_maintenance();
    let snap = e.snapshot();
    assert_eq!(snap.imrs_rows, 0, "tombstoned rows collected");
    assert_eq!(snap.imrs_used_bytes, 0, "all fragment memory returned");
}

/// A copy of a device set, page by page and record by record (no log
/// was truncated, so the copies keep their LSNs).
fn clone_devices(disk: &MemDisk, logs: [&MemLog; 2]) -> (Arc<MemDisk>, [Arc<MemLog>; 2]) {
    let disk_copy = MemDisk::new();
    let mut buf = vec![0u8; PAGE_SIZE];
    for _ in 0..disk.num_pages() {
        let id = disk_copy.allocate_page().unwrap();
        disk.read_page(id, &mut buf).unwrap();
        disk_copy.write_page(id, &buf).unwrap();
    }
    let log_copies = logs.map(|log| {
        let copy = MemLog::new();
        for (_, payload) in log.read_all().unwrap() {
            copy.append(&payload).unwrap();
        }
        Arc::new(copy)
    });
    (Arc::new(disk_copy), log_copies)
}

/// Recovery re-registers every resident row with GC, and GC enqueues in
/// registration order — so the cold-first order pack inherits is a
/// function of the two logs, not of a hash seed: two recoveries of the
/// same devices build the same queues, RowId-ordered within an origin.
#[test]
fn recovery_rebuilds_the_same_queues_every_time() {
    let cfg = EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    };
    let opts = || TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec()));
    let (disk, syslog, imrslog) = (
        Arc::new(MemDisk::new()),
        Arc::new(MemLog::new()),
        Arc::new(MemLog::new()),
    );
    {
        let e = Engine::with_devices(cfg.clone(), disk.clone(), syslog.clone(), imrslog.clone());
        let t = e.create_table(opts()).unwrap();
        let mut txn = e.begin();
        for i in 0..300u64 {
            e.insert(&mut txn, &t, &mkrow(i, 1)).unwrap();
        }
        e.commit(txn).unwrap();
        // Pack everything out, then bring some rows back through each
        // door, so all three origin queues are populated.
        e.run_maintenance();
        for _ in 0..200 {
            if e.snapshot().imrs_rows == 0 {
                break;
            }
            pack_cycle(&e, PackLevel::Aggressive);
        }
        let mut txn = e.begin();
        for i in 0..100u64 {
            assert!(e.get(&txn, &t, &i.to_be_bytes()).unwrap().is_some());
            let key = (100 + i).to_be_bytes();
            assert!(e.update(&mut txn, &t, &key, &mkrow(100 + i, 2)).unwrap());
        }
        for i in 0..400u64 {
            e.insert(&mut txn, &t, &mkrow(1_000 + i, 3)).unwrap();
        }
        e.commit(txn).unwrap();
    } // crash

    let recovered_queues = || -> Vec<Vec<RowId>> {
        let (disk, [syslog, imrslog]) = clone_devices(&disk, [&syslog, &imrslog]);
        let e = Engine::recover(cfg.clone(), disk, syslog, imrslog, |e| {
            e.create_table(opts()).map(|_| ())
        })
        .unwrap();
        let t = e.table("t").unwrap();
        t.partitions
            .iter()
            .map(|p| p.queues.snapshot_all())
            .collect()
    };
    let first = recovered_queues();
    assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 600);
    assert_eq!(first, recovered_queues());
}
