//! MVCC snapshot-read correctness and the lock-free-reader contract.
//!
//! Three layers of evidence that snapshot reads are both *consistent*
//! and *lock-free*:
//!
//! 1. A property test drives a random single-threaded history —
//!    inserts, updates, deletes, aborts, pack cycles, maintenance —
//!    while holding up to four snapshots open, each frozen against a
//!    sequential oracle captured at `begin_snapshot` time. Every probe
//!    of every live snapshot must reproduce the oracle exactly, no
//!    matter how many times the row has since been updated, deleted,
//!    packed to the page store, or re-inserted.
//! 2. A deterministic walk of one row through its whole life cycle
//!    (IMRS → packed → updated in place → deleted) with a snapshot
//!    pinned at each stage, checking the side-store before-image path
//!    and tombstone chasing explicitly.
//! 3. An 8-thread readers-vs-writers stress test: writers update whole
//!    row groups transactionally while readers assert group-atomic
//!    snapshots (no torn reads) — and, in debug builds, the lock-rank
//!    witness proves the reader threads acquired **zero** ranked locks
//!    across the entire run: begin/read/end is atomics all the way
//!    down.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use btrim_core::catalog::TableOpts;
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{Actor, Engine, EngineConfig, EngineMode, RowId, SnapshotTxn};

fn mkrow(key: u64, val: u64) -> Vec<u8> {
    mkrow_padded(key, val, 24)
}

fn mkrow_padded(key: u64, val: u64, pad: usize) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_be_bytes());
    r.resize(r.len() + pad, 0xAB);
    r
}

/// A row of random length: mostly small, one in four up to ~3 KB, so
/// that page-resident rows are updated in place, outgrow their page
/// (relocate), and — when an abort puts a long image back after others
/// took the space — no longer fit where they were.
fn mkrow_random_len(key: u64, rng: &mut u64) -> Vec<u8> {
    let val = xorshift(rng);
    let pad = match xorshift(rng) % 4 {
        0 => 64 + xorshift(rng) % 2_936,
        _ => 8 + xorshift(rng) % 56,
    };
    mkrow_padded(key, val, pad as usize)
}

fn opts() -> TableOpts {
    TableOpts::new("mvcc", Arc::new(|row: &[u8]| row[..8].to_vec()))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

// ---------------------------------------------------------------------
// 1. Random histories vs. a sequential oracle
// ---------------------------------------------------------------------

/// 10 cases, or what `PROPTEST_CASES` asks for (CI: 128).
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    fn snapshot_read_matches_sequential_oracle(seed in any::<u64>()) {
        let mut rng = seed | 1;
        let engine = Engine::new(EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 256 * 1024,
            imrs_chunk_size: 64 * 1024,
            buffer_frames: 64,
            // Maintenance and pack are injected explicitly by the
            // history so their interleaving is part of the test.
            maintenance_interval_txns: u64::MAX / 2,
            ..Default::default()
        });
        engine.create_table(opts()).unwrap();
        let table = engine.table("mvcc").unwrap();

        // Committed state: key -> (rid, row bytes); a BTreeMap so the
        // history is a pure function of the seed. `ever` holds every
        // RowId the history ever allocated, including aborted inserts —
        // snapshots must agree those read as absent too.
        let mut committed: BTreeMap<u64, (RowId, Vec<u8>)> = BTreeMap::new();
        let mut ever: Vec<RowId> = Vec::new();
        // Open snapshots with their frozen oracle (rid -> image). Rids
        // allocated after the freeze must read as None through it.
        let mut snaps: Vec<(SnapshotTxn, HashMap<RowId, Vec<u8>>)> = Vec::new();

        for step in 0..300u32 {
            let op = xorshift(&mut rng) % 100;
            let key = xorshift(&mut rng) % 48;
            match op {
                0..=34 => {
                    // Insert (an absent key if this one is taken).
                    let key = (0..48)
                        .map(|d| (key + d) % 48)
                        .find(|k| !committed.contains_key(k))
                        .unwrap_or(key);
                    let row = mkrow_random_len(key, &mut rng);
                    let mut txn = engine.begin();
                    match engine.insert(&mut txn, &table, &row) {
                        Ok(rid) => {
                            engine.commit(txn).unwrap();
                            ever.push(rid);
                            committed.insert(key, (rid, row));
                        }
                        Err(_) => engine.abort(txn), // all 48 keys taken
                    }
                }
                35..=59 => {
                    if let Some((&key, _)) = committed.iter().nth(key as usize % committed.len().max(1)) {
                        let row = mkrow_random_len(key, &mut rng);
                        let mut txn = engine.begin();
                        assert!(engine.update(&mut txn, &table, &key.to_be_bytes(), &row).unwrap());
                        engine.commit(txn).unwrap();
                        committed.get_mut(&key).unwrap().1 = row;
                    }
                }
                60..=71 => {
                    if let Some((&key, _)) = committed.iter().nth(key as usize % committed.len().max(1)) {
                        let mut txn = engine.begin();
                        assert!(engine.delete(&mut txn, &table, &key.to_be_bytes()).unwrap());
                        engine.commit(txn).unwrap();
                        committed.remove(&key);
                    }
                }
                72..=79 => {
                    // Stage work, then abort: nothing may surface, but
                    // the allocated rid joins the always-absent set.
                    let mut txn = engine.begin();
                    if let Ok(rid) = engine.insert(&mut txn, &table, &mkrow_random_len(key + 1_000, &mut rng)) {
                        ever.push(rid);
                    }
                    let _ = engine.update(&mut txn, &table, &key.to_be_bytes(), &mkrow_random_len(key, &mut rng));
                    if xorshift(&mut rng).is_multiple_of(2) {
                        // Pack takes whatever page space a shrinking
                        // update freed before the abort wants it back.
                        engine.run_maintenance();
                        pack_cycle(&engine, PackLevel::Aggressive);
                    }
                    engine.abort(txn);
                }
                80..=85 => {
                    if snaps.len() < 4 {
                        let frozen: HashMap<RowId, Vec<u8>> = committed
                            .values()
                            .map(|(rid, row)| (*rid, row.clone()))
                            .collect();
                        snaps.push((engine.begin_snapshot(), frozen));
                    }
                }
                86..=91 => {
                    if !snaps.is_empty() {
                        let i = (xorshift(&mut rng) as usize) % snaps.len();
                        let (snap, _) = snaps.swap_remove(i);
                        engine.end_snapshot(snap);
                    }
                }
                _ => {
                    // Life-cycle churn under the open snapshots: GC,
                    // version-chain truncation, packing to the page
                    // store, side-store stash/retirement.
                    engine.run_maintenance();
                    pack_cycle(&engine, PackLevel::Aggressive);
                }
            }

            // Probe every open snapshot against its frozen oracle.
            for (snap, frozen) in &snaps {
                for _ in 0..3 {
                    if ever.is_empty() {
                        break;
                    }
                    let rid = ever[(xorshift(&mut rng) as usize) % ever.len()];
                    let got = engine.read_row_snapshot(snap, &table, rid).unwrap();
                    prop_assert_eq!(
                        &got, &frozen.get(&rid).cloned(),
                        "step {}: rid {:?} diverged from the frozen oracle", step, rid
                    );
                }
            }
        }

        for (snap, _) in snaps.drain(..) {
            engine.end_snapshot(snap);
        }

        // A fresh snapshot sees exactly the final committed state.
        let snap = engine.begin_snapshot();
        for (key, (rid, row)) in &committed {
            let got = engine.read_row_snapshot(&snap, &table, *rid).unwrap();
            prop_assert_eq!(got.as_ref(), Some(row), "final state of key {}", key);
        }
        engine.end_snapshot(snap);

        // With no snapshot pinning a horizon, one more commit plus
        // maintenance drains the side store completely — the store is
        // bounded by the watermark, not by history length.
        let mut txn = engine.begin();
        let _ = engine.insert(&mut txn, &table, &mkrow(9_999, 1));
        engine.commit(txn).unwrap();
        engine.run_maintenance();
        prop_assert_eq!(engine.snapshot().side_store_entries, 0);
        prop_assert_eq!(engine.snapshot().txns_active, 0);
    }
}

// ---------------------------------------------------------------------
// 2. One row's life cycle with a snapshot pinned at every stage
// ---------------------------------------------------------------------

#[test]
fn snapshot_survives_pack_update_and_delete() {
    let engine = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 256 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    engine.create_table(opts()).unwrap();
    let table = engine.table("mvcc").unwrap();

    let v1 = mkrow(7, 100);
    let mut txn = engine.begin();
    let rid = engine.insert(&mut txn, &table, &v1).unwrap();
    engine.commit(txn).unwrap();

    // Pin the row's first committed state, then pack it cold: the
    // snapshot must follow the row into the page store.
    let s1 = engine.begin_snapshot();
    assert_eq!(
        engine.read_row_snapshot(&s1, &table, rid).unwrap(),
        Some(v1.clone())
    );
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    assert_eq!(
        engine.read_row_snapshot(&s1, &table, rid).unwrap(),
        Some(v1.clone())
    );

    // Update the (now page-resident) row: s1 must keep reading the
    // before-image out of the side store while a fresh snapshot sees v2.
    let v2 = mkrow(7, 200);
    let mut txn = engine.begin();
    assert!(engine
        .update(&mut txn, &table, &7u64.to_be_bytes(), &v2)
        .unwrap());
    engine.commit(txn).unwrap();
    let s2 = engine.begin_snapshot();
    assert_eq!(
        engine.read_row_snapshot(&s1, &table, rid).unwrap(),
        Some(v1.clone())
    );
    assert_eq!(
        engine.read_row_snapshot(&s2, &table, rid).unwrap(),
        Some(v2.clone())
    );

    // Pack again (the update may have migrated the row hot), then
    // delete it: older snapshots chase the tombstone's before-images,
    // a post-delete snapshot sees nothing.
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    let mut txn = engine.begin();
    assert!(engine
        .delete(&mut txn, &table, &7u64.to_be_bytes())
        .unwrap());
    engine.commit(txn).unwrap();
    let s3 = engine.begin_snapshot();
    assert_eq!(
        engine.read_row_snapshot(&s1, &table, rid).unwrap(),
        Some(v1)
    );
    assert_eq!(
        engine.read_row_snapshot(&s2, &table, rid).unwrap(),
        Some(v2)
    );
    assert_eq!(engine.read_row_snapshot(&s3, &table, rid).unwrap(), None);

    // Retire the snapshots oldest-first; the watermark advances and the
    // side store drains to empty behind it.
    engine.end_snapshot(s1);
    engine.end_snapshot(s2);
    engine.end_snapshot(s3);
    let mut txn = engine.begin();
    engine.insert(&mut txn, &table, &mkrow(8, 1)).unwrap();
    engine.commit(txn).unwrap();
    engine.run_maintenance();
    assert_eq!(engine.snapshot().side_store_entries, 0);
}

// ---------------------------------------------------------------------
// The side store holds the snapshot window, whatever the maintenance
// ---------------------------------------------------------------------

fn page_only() -> Engine {
    let engine = Engine::new(EngineConfig {
        mode: EngineMode::PageOnly,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    engine.create_table(opts()).unwrap();
    engine
}

/// The TPC-C loader's pattern: 20 transactions of 1 000 page inserts,
/// each begun before the previous one commits, and no maintenance. The
/// open transaction holds the horizon below the commit before it, so a
/// commit can retire only the batch before its own: the store never
/// holds more than two batches.
#[test]
fn a_loader_without_maintenance_keeps_two_batches_in_the_side_store() {
    let engine = page_only();
    let table = engine.table("mvcc").unwrap();
    let entries = || engine.snapshot().side_store_entries;
    let mut txn = engine.begin();
    for batch in 0..20u64 {
        let mut rows = Vec::new();
        for i in 0..1_000 {
            rows.push(
                engine
                    .insert(&mut txn, &table, &mkrow(batch * 1_000 + i, batch))
                    .unwrap(),
            );
            if i % 100 == 99 {
                assert!(entries() <= 2_000, "batch {batch}: {} entries", entries());
            }
        }
        let before = engine.begin_snapshot();
        let done = std::mem::replace(&mut txn, engine.begin());
        engine.commit(done).unwrap();
        assert!(entries() <= 2_000, "batch {batch}: {} entries", entries());
        for &rid in rows.iter().step_by(97) {
            let got = engine.read_row_snapshot(&before, &table, rid).unwrap();
            assert_eq!(got, None, "batch {batch}: a snapshot before its commit");
        }
        engine.end_snapshot(before);
    }
    assert_eq!(
        entries(),
        1_000,
        "the last batch waits for the open transaction"
    );
    engine.commit(txn).unwrap();
    assert_eq!(entries(), 1_000, "a read-only commit retires nothing");
    engine.step(Actor::Gc);
    assert_eq!(entries(), 0);
}

/// A held snapshot keeps every entry above it, and they leave at the
/// first commit after it ends (as much as that commit queued) or at
/// the first GC step (all of them).
#[test]
fn a_held_snapshots_entries_leave_at_the_first_commit_or_gc_step_after_it() {
    let engine = page_only();
    let table = engine.table("mvcc").unwrap();
    let entries = || engine.snapshot().side_store_entries;
    let commit_updates = |keys: std::ops::Range<u64>, val: u64| {
        let mut txn = engine.begin();
        for key in keys {
            let row = mkrow(key, val);
            assert!(engine
                .update(&mut txn, &table, &key.to_be_bytes(), &row)
                .unwrap());
        }
        engine.commit(txn).unwrap();
    };
    let mut txn = engine.begin();
    for key in 0..8 {
        engine.insert(&mut txn, &table, &mkrow(key, 0)).unwrap();
    }
    engine.commit(txn).unwrap();
    assert_eq!(entries(), 0, "no snapshot held: a commit retires its own");

    let held = engine.begin_snapshot();
    commit_updates(0..4, 1);
    assert_eq!(entries(), 4);
    engine.step(Actor::Gc);
    assert_eq!(entries(), 4, "GC keeps what the snapshot can see");
    engine.end_snapshot(held);
    let other = engine.begin_snapshot();
    commit_updates(4..8, 1);
    assert_eq!(
        entries(),
        4,
        "the held snapshot's entries left, this commit's stay"
    );
    engine.end_snapshot(other);

    let held = engine.begin_snapshot();
    for val in 2..5 {
        commit_updates(0..8, val);
    }
    assert_eq!(
        entries(),
        24,
        "the first commit took the 4 below the horizon"
    );
    let key = 3u64.to_be_bytes();
    assert_eq!(
        engine.get(&engine.begin(), &table, &key).unwrap(),
        Some(mkrow(3, 4))
    );
    let rid = table.primary.get(&key).unwrap().unwrap();
    let got = engine.read_row_snapshot(&held, &table, rid).unwrap();
    assert_eq!(got, Some(mkrow(3, 1)));
    engine.end_snapshot(held);
    engine.step(Actor::Gc);
    assert_eq!(entries(), 0);
    assert_eq!(engine.snapshot().side_store_bytes, 0);
}

// ---------------------------------------------------------------------
// 3. Readers vs. writers: group-atomic snapshots, zero reader locks
// ---------------------------------------------------------------------

const GROUPS: u64 = 48;
const GROUP_ROWS: u64 = 4;

/// Four writer threads update whole 4-row groups transactionally (all
/// rows of a group carry the same stamp) while four reader threads
/// assert every snapshot sees a group-consistent state. In debug
/// builds the lock-rank witness additionally proves the reader threads
/// performed **zero** ranked lock acquisitions — what "lock-free read
/// path" has to mean.
#[test]
fn eight_thread_readers_vs_writers_no_torn_reads_no_reader_locks() {
    let engine = Arc::new(Engine::new(EngineConfig {
        // IlmOff pins rows in the IMRS: readers stay on the pure-atomics
        // version-chain arm while GC truncates chains underneath them.
        mode: EngineMode::IlmOff,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: 64,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("mvcc").unwrap();

    // Seed every group in one transaction so stamp 0 is group-uniform,
    // collecting RowIds for the readers (who must not touch an index).
    let mut rids: Vec<RowId> = Vec::new();
    let mut txn = engine.begin();
    for key in 0..GROUPS * GROUP_ROWS {
        rids.push(engine.insert(&mut txn, &table, &mkrow(key, 0)).unwrap());
    }
    engine.commit(txn).unwrap();
    let rids = Arc::new(rids);

    let stop = Arc::new(AtomicBool::new(false));
    let stamp = Arc::new(AtomicU64::new(1));
    let torn = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let engine = Arc::clone(&engine);
            let table = Arc::clone(&table);
            let stamp = Arc::clone(&stamp);
            std::thread::spawn(move || {
                let mut rng = 0x5EED_0001 + w as u64;
                for _ in 0..800 {
                    let group = xorshift(&mut rng) % GROUPS;
                    let v = stamp.fetch_add(1, Ordering::Relaxed);
                    let mut txn = engine.begin();
                    let mut ok = true;
                    for j in 0..GROUP_ROWS {
                        let key = group * GROUP_ROWS + j;
                        match engine.update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, v)) {
                            Ok(true) => {}
                            // Row-lock conflict with a sibling writer:
                            // abandon the whole group update.
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        engine.commit(txn).unwrap();
                    } else {
                        engine.abort(txn);
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let table = Arc::clone(&table);
            let rids = Arc::clone(&rids);
            let stop = Arc::clone(&stop);
            let torn = Arc::clone(&torn);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut rng = 0xBEEF_0001 + r as u64;
                let locks_before = parking_lot::ranked_acquisitions();
                while !stop.load(Ordering::Relaxed) {
                    let group = xorshift(&mut rng) % GROUPS;
                    let snap = engine.begin_snapshot();
                    let mut stamps = [0u64; GROUP_ROWS as usize];
                    for j in 0..GROUP_ROWS {
                        let rid = rids[(group * GROUP_ROWS + j) as usize];
                        let row = engine
                            .read_row_snapshot(&snap, &table, rid)
                            .unwrap()
                            .expect("pinned row vanished");
                        stamps[j as usize] = u64::from_be_bytes(row[8..16].try_into().unwrap());
                    }
                    engine.end_snapshot(snap);
                    if stamps.iter().any(|&s| s != stamps[0]) {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(GROUP_ROWS, Ordering::Relaxed);
                }
                parking_lot::ranked_acquisitions() - locks_before
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let reader_lock_acquisitions = r.join().unwrap();
        if cfg!(debug_assertions) {
            assert_eq!(
                reader_lock_acquisitions, 0,
                "a snapshot reader acquired a ranked lock — the read path is not lock-free"
            );
        }
    }

    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn group reads observed");
    assert!(reads.load(Ordering::Relaxed) > 0, "readers never ran");

    // Registry fully drained; no read-only transaction leaked a slot.
    assert_eq!(engine.snapshot().txns_active, 0);
}
