//! Regression test for three online-data-movement races that were found
//! by this harness and fixed:
//!
//! 1. `TxnManager::begin` read its snapshot before registering in the
//!    active set — a preemption in between let GC truncate versions the
//!    snapshot still needed.
//! 2. Migration / relocating updates deleted the page copy before
//!    repointing the RID-Map, leaving a window with no reachable copy.
//! 3. A reader could load a row's chain head from its RID-Map entry
//!    just as pack drained the chain; an empty chain must mean "retry
//!    via RID-Map", not "invisible".
//!
//! The workload hammers three RMW writers, a full-scan reader, and an
//! aggressive packer over a hot key range; any scan that does not see
//! all 1000 rows is a failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use btrim::catalog::TableOpts;
use btrim::pack::{pack_cycle, PackLevel};
use btrim::{Engine, EngineConfig, EngineMode};

fn mkrow(key: u64, val: u64) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(&val.to_be_bytes());
    v.extend_from_slice(&[0xCD; 48]);
    v
}

#[test]
fn concurrent_movement_never_hides_rows() {
    for round in 0..4 {
        let engine = Arc::new(Engine::new(EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 4 * 1024 * 1024,
            imrs_chunk_size: 512 * 1024,
            buffer_frames: 2048,
            maintenance_interval_txns: 16,
            ..Default::default()
        }));
        let table = engine
            .create_table(TableOpts::new(
                "stress",
                Arc::new(|row: &[u8]| row[..8].to_vec()),
            ))
            .unwrap();
        let mut txn = engine.begin();
        for i in 0..1_000u64 {
            engine.insert(&mut txn, &table, &mkrow(i, 0)).unwrap();
        }
        engine.commit(txn).unwrap();
        engine.run_maintenance();

        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let engine = Arc::clone(&engine);
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        i = (i * 48271 + t) % 1_000;
                        let mut txn = engine.begin();
                        let r = engine.update_rmw(&mut txn, &table, &i.to_be_bytes(), |cur| {
                            let v = u64::from_be_bytes(cur[8..16].try_into().unwrap());
                            mkrow(i, v + 1)
                        });
                        match r {
                            Ok(Some(_)) => {
                                engine.commit(txn).unwrap();
                            }
                            _ => engine.abort(txn),
                        }
                    }
                });
            }
            {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        pack_cycle(&engine, PackLevel::Aggressive);
                        engine.run_maintenance();
                    }
                });
            }
            {
                let engine = Arc::clone(&engine);
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let txn = engine.begin();
                        let mut seen = std::collections::HashSet::new();
                        engine
                            .scan_range(&txn, &table, &[], None, |k, _, _| {
                                seen.insert(u64::from_be_bytes(k[..8].try_into().unwrap()));
                                true
                            })
                            .unwrap();
                        if seen.len() != 1_000 {
                            let missing: Vec<u64> = (0..1_000u64)
                                .filter(|i| !seen.contains(i))
                                .take(4)
                                .collect();
                            for i in &missing {
                                let key = i.to_be_bytes();
                                eprintln!(
                                    "scan miss key {i} (snap {:?}): {}",
                                    txn.snapshot(),
                                    engine.debug_row(&table, &key),
                                );
                            }
                            panic!("concurrent scan saw {} of 1000 rows", seen.len());
                        }
                        engine.commit(txn).unwrap();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1_200));
            stop.store(true, Ordering::Relaxed);
        });

        // Final scan vs point-get cross-check.
        let txn = engine.begin();
        let mut scanned = std::collections::HashSet::new();
        engine
            .scan_range(&txn, &table, &[], None, |k, _, _| {
                scanned.insert(u64::from_be_bytes(k[..8].try_into().unwrap()));
                true
            })
            .unwrap();
        if scanned.len() != 1_000 {
            for i in 0..1_000u64 {
                if !scanned.contains(&i) {
                    let key = i.to_be_bytes();
                    let got = engine.get(&txn, &table, &key).unwrap();
                    let loc = engine.locate(&table, &key).unwrap();
                    let hash_rid = table.hash.get(&key);
                    let primary_rid = table.primary.get(&key).unwrap();
                    eprintln!(
                        "round {round}: key {i} MISSING FROM SCAN; get={:?} ridmap={loc:?} hash={hash_rid:?} primary={primary_rid:?}",
                        got.map(|g| g.len())
                    );
                }
            }
            panic!("scan lost rows at round {round}");
        }
        for i in 0..1_000u64 {
            let key = i.to_be_bytes();
            let got = engine.get(&txn, &table, &key).unwrap();
            if got.is_none() {
                let loc = engine.locate(&table, &key).unwrap();
                let hash_rid = table.hash.get(&key);
                let primary_rid = table.primary.get(&key).unwrap();
                eprintln!(
                    "round {round}: key {i} LOST; ridmap={loc:?} hash={hash_rid:?} primary={primary_rid:?}"
                );
                // Retry in a brand-new transaction.
                let t2 = engine.begin();
                let retry = engine.get(&t2, &table, &key).unwrap();
                eprintln!("  retry in fresh txn: {:?}", retry.map(|r| r.len()));
                engine.commit(t2).unwrap();
                panic!("diagnosed at round {round}");
            }
        }
        engine.commit(txn).unwrap();
    }
}
