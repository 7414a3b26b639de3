//! The RID-Map entry is the only directory of IMRS rows: a model test
//! over the store's whole write surface, and a threaded test of one
//! RowId leaving, re-arriving and being GC'd under a live reader.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use btrim_common::{LogicalClock, PartitionId, RowId, Timestamp, TxnId};
use btrim_imrs::{ImrsStore, RidMap, RowOrigin, VersionOp, VersionRef};
use btrim_txn::TxnManager;

const ORIGINS: [RowOrigin; 3] = [RowOrigin::Inserted, RowOrigin::Migrated, RowOrigin::Cached];

/// What the model knows of one version: `(txn, commit_ts, op)`.
type ModelVersion = (TxnId, Option<Timestamp>, VersionOp);

/// A resident row: chain newest first, as `chain_summary` reports it.
#[derive(Debug)]
struct ModelRow {
    partition: PartitionId,
    origin: RowOrigin,
    enqueued: bool,
    chain: Vec<ModelVersion>,
    /// The transaction holding the "row lock", with its unstamped
    /// versions — at most one writer per row, as in the engine.
    open: Option<(TxnId, Vec<VersionRef>)>,
}

/// 256 cases when `PROPTEST_CASES` asks; 64 otherwise.
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(64)
}

/// The model's version of `ImrsRow::truncate_versions`: cut everything
/// below the newest version committed at or before `horizon`.
fn truncate_model(chain: &mut Vec<ModelVersion>, horizon: Timestamp) {
    if let Some(keep) = chain
        .iter()
        .position(|(_, ts, _)| ts.is_some_and(|ts| ts <= horizon))
    {
        chain.truncate(keep + 1);
    }
}

/// Every observable of the directory against the model.
fn check(store: &ImrsStore, ridmap: &RidMap, model: &BTreeMap<RowId, ModelRow>, ids: u64) {
    for id in (1..=ids).map(RowId) {
        let (got, want) = (store.get(id), model.get(&id));
        assert_eq!(got.is_some(), want.is_some(), "{id:?} residency");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(
                (got.partition, got.origin),
                (want.partition, want.origin),
                "{id:?}"
            );
            let chain: Vec<_> = want.chain.iter().map(|&(_, ts, op)| (ts, op)).collect();
            assert_eq!(got.chain_summary(), chain, "{id:?} chain");
            assert_eq!(ridmap.partition(id), Some(want.partition));
        }
    }
    assert_eq!(store.row_count(), model.len());
    // The sweep: exactly the model's rows, in RowId order.
    let mut swept = Vec::new();
    let mut recount: BTreeMap<PartitionId, (u64, u64)> = BTreeMap::new();
    store.for_each_row(|row| {
        swept.push(row.row_id);
        let u = recount.entry(row.partition).or_default();
        u.0 += row.memory() as u64;
        u.1 += 1;
    });
    assert_eq!(swept, model.keys().copied().collect::<Vec<_>>());
    for (p, bytes, rows) in store.all_usage() {
        let want = recount.get(&p).copied().unwrap_or_default();
        assert_eq!((bytes, rows), want, "usage of {p:?} against a recount");
    }
    let total: u64 = recount.values().map(|u| u.0).sum();
    assert_eq!(store.used_bytes(), total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    /// insert / add_version / stamp / rollback / truncate / remove /
    /// re-insert with another origin / GC visit, over eight RowIds.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec((0u8..8, 1u64..9, any::<u8>()), 1..160)) {
        const IDS: u64 = 8;
        let ridmap = Arc::new(RidMap::new());
        let store = ImrsStore::new(1024 * 1024, 64 * 1024, Arc::clone(&ridmap));
        let mut model: BTreeMap<RowId, ModelRow> = BTreeMap::new();
        let (mut clock, mut next_txn) = (10u64, 1u64);
        for (kind, id, x) in ops {
            let id = RowId(id);
            clock += 1;
            let data = vec![x; 16 + x as usize];
            match (kind, model.get_mut(&id)) {
                // Arrival — the first, or a re-arrival after the row left.
                (0 | 1, None) => {
                    let txn = TxnId(next_txn);
                    next_txn += 1;
                    let partition = PartitionId((id.0 % 3) as u32);
                    let origin = ORIGINS[x as usize % 3];
                    let (row, vref) = store
                        .insert_row(id, partition, origin, txn, &data, Timestamp(clock))
                        .unwrap();
                    prop_assert_eq!((row.row_id, row.partition, row.origin), (id, partition, origin));
                    model.insert(id, ModelRow {
                        partition,
                        origin,
                        enqueued: false,
                        chain: vec![(txn, None, VersionOp::Insert)],
                        open: Some((txn, vec![vref])),
                    });
                }
                // Another version under the row's open transaction.
                (0 | 1, Some(m)) => {
                    let row = store.get(id).unwrap();
                    let (txn, vrefs) = m.open.get_or_insert_with(|| {
                        next_txn += 1;
                        (TxnId(next_txn - 1), Vec::new())
                    });
                    let (op, image) = match x % 4 {
                        0 => (VersionOp::Delete, None),
                        _ => (VersionOp::Update, Some(&data[..])),
                    };
                    vrefs.push(store.add_version(&row, *txn, op, image).unwrap());
                    m.chain.insert(0, (*txn, None, op));
                }
                // Commit the open transaction: one timestamp for all.
                (2, Some(m)) => {
                    if let Some((txn, vrefs)) = m.open.take() {
                        vrefs.iter().for_each(|v| v.stamp(Timestamp(clock)));
                        for v in m.chain.iter_mut().filter(|v| v.0 == txn) {
                            v.1 = Some(Timestamp(clock));
                        }
                    }
                }
                // Abort it. Rolling back the row's own insert empties
                // the chain: the row is gone.
                (3, Some(m)) => {
                    if let Some((txn, _)) = m.open.take() {
                        let row = store.get(id).unwrap();
                        store.rollback_row(&row, txn, || Timestamp(clock));
                        m.chain.retain(|v| v.0 != txn);
                        if m.chain.is_empty() {
                            model.remove(&id);
                        }
                    }
                }
                (4, Some(m)) => {
                    let horizon = Timestamp(clock - (x % 4) as u64);
                    let row = store.get(id).unwrap();
                    store.truncate_row(&row, horizon);
                    truncate_model(&mut m.chain, horizon);
                }
                (5, Some(_)) => {
                    prop_assert!(store.remove_row(id, || Timestamp(clock)).is_some());
                    model.remove(&id);
                }
                // A GC visit: the first after an arrival enqueues, a
                // duplicate registration does not.
                (6, Some(m)) => {
                    prop_assert_eq!(ridmap.try_mark_enqueued(id), !m.enqueued);
                    m.enqueued = true;
                }
                // Pack found the row unpackable and handed it back.
                (7, Some(m)) => {
                    ridmap.clear_enqueued(id);
                    m.enqueued = false;
                }
                // Nothing resident to act on: every teardown is a no-op.
                (_, None) => {
                    prop_assert!(store.get(id).is_none());
                    prop_assert!(store.remove_row(id, || Timestamp(clock)).is_none());
                }
                _ => unreachable!("kind is 0..8"),
            }
            if x % 8 == 0 {
                store.reclaim(Timestamp(clock));
            }
            check(&store, &ridmap, &model, IDS);
        }
        for id in std::mem::take(&mut model).into_keys() {
            store.remove_row(id, || Timestamp(clock));
        }
        check(&store, &ridmap, &model, IDS);
        prop_assert_eq!(store.used_bytes(), 0);
        store.reclaim(Timestamp(clock + 1));
        prop_assert_eq!(store.allocator().quarantined_bytes(), 0);
        prop_assert_eq!(store.arena().quarantined_nodes(), 0);
    }
}

/// One RowId under every writer-side operation at once: a writer
/// pushing and rolling back (or committing), a GC loop truncating and
/// reclaiming through views that go stale under it, and a mover that
/// removes the row and re-inserts it under the next origin — while a
/// registered snapshot reader walks the chain. Writer and mover exclude
/// each other as the engine's row lock makes them; GC and the reader
/// take nothing. Every image is one repeated byte, so a fragment
/// recycled under the reader shows as a torn image.
#[test]
fn one_row_id_survives_writer_gc_and_rearrival() {
    const ID: RowId = RowId(1);
    const PART: PartitionId = PartitionId(0);
    let ridmap = Arc::new(RidMap::new());
    let store = ImrsStore::new(4 * 1024 * 1024, 64 * 1024, Arc::clone(&ridmap));
    let txns = TxnManager::new(Arc::new(LogicalClock::new()));
    let row_lock = std::sync::Mutex::new(());
    let done = AtomicBool::new(false);
    let start = Barrier::new(4);
    let image = |k: u64| vec![k as u8; 64];

    let arrive = |origin: RowOrigin, k: u64| {
        let ts = txns.reserve_commit();
        store
            .insert_row_committed(ID, PART, origin, TxnId(0), &image(k), ts)
            .unwrap();
        txns.clock().publish(ts);
    };
    arrive(RowOrigin::Inserted, 0);

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            for k in 0..2_000u64 {
                let _row_lock = row_lock.lock().unwrap();
                let row = store
                    .get(ID)
                    .expect("the mover re-inserts before unlocking");
                let txn = txns.begin();
                let v = store
                    .add_version(&row, txn.id, VersionOp::Update, Some(&image(k)))
                    .unwrap();
                if k % 4 == 0 {
                    let ts = txns.reserve_commit();
                    v.stamp(ts);
                    txns.finish_commit(txn, ts);
                } else {
                    store.rollback_row(&row, txn.id, || txns.clock().now());
                    txns.abort(txn);
                }
            }
        });
        let mover = s.spawn(|| {
            start.wait();
            for k in 0..500u64 {
                let _row_lock = row_lock.lock().unwrap();
                assert!(store.remove_row(ID, || txns.clock().now()).is_some());
                assert!(store.get(ID).is_none());
                arrive(ORIGINS[k as usize % 3], k);
                let row = store.get(ID).unwrap();
                assert_eq!(row.origin, ORIGINS[k as usize % 3]);
                assert!(ridmap.try_mark_enqueued(ID), "arrival clears the claim");
            }
        });
        s.spawn(|| {
            start.wait();
            while !done.load(Ordering::Acquire) {
                if let Some(row) = store.get(ID) {
                    store.truncate_row(&row, txns.oldest_active_snapshot());
                }
                store.reclaim(txns.oldest_active_snapshot());
            }
        });
        s.spawn(|| {
            start.wait();
            let mut newest_seen = Timestamp(0);
            while !done.load(Ordering::Acquire) {
                let txn = txns.begin();
                let head = ridmap.head(ID);
                if let Some(v) = store.arena().visible_from(head, txn.snapshot, txn.id) {
                    let ts = v
                        .commit_ts
                        .expect("another transaction's version is committed");
                    assert!(ts <= txn.snapshot);
                    assert!(ts >= newest_seen, "a later snapshot saw an older version");
                    newest_seen = ts;
                    let handle = v.handle.expect("no delete in this test");
                    store.allocator().with_bytes(handle, |b| {
                        assert_eq!(b.len(), 64);
                        assert!(b.iter().all(|&x| x == b[0]), "torn image {b:?}");
                    });
                }
                txns.release(txn);
            }
        });
        // Stop the two open-ended loops before looking at the verdicts:
        // a failed assertion must not leave them spinning.
        let verdicts = [writer.join(), mover.join()];
        done.store(true, Ordering::Release);
        verdicts.into_iter().for_each(|v| v.unwrap());
    });

    // Quiescent: one row, and after a last GC pass one version.
    let row = store.get(ID).unwrap();
    store.truncate_row(&row, txns.clock().now());
    assert_eq!(row.version_count(), 1);
    assert_eq!(store.row_count(), 1);
    assert_eq!(store.used_bytes(), row.memory() as u64);
    assert_eq!(store.all_usage(), vec![(PART, row.memory() as u64, 1)]);
    store.remove_row(ID, || txns.clock().now());
    assert_eq!((store.used_bytes(), store.row_count()), (0, 0));
    store.reclaim(Timestamp(txns.clock().now().0 + 1));
    assert_eq!(store.allocator().quarantined_bytes(), 0);
    assert_eq!(store.arena().quarantined_nodes(), 0);
}
