//! Engine-level integration tests: ISUD over the hybrid store, ILM
//! placement, migration/caching, pack, abort, and crash recovery.

use std::sync::Arc;

use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{Engine, EngineConfig, EngineMode, RowLocation, RowOrigin};
use btrim_pagestore::MemDisk;
use btrim_wal::MemLog;

/// Rows: 8-byte BE key || payload. The key doubles as the primary key.
fn mkrow(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn key_of(row: &[u8]) -> Vec<u8> {
    row[..8].to_vec()
}

fn opts(name: &str) -> TableOpts {
    TableOpts {
        name: name.into(),
        imrs_enabled: true,
        pinned: false,
        partitioner: Partitioner::Single,
        primary_key: Arc::new(key_of),
        layout: None,
    }
}

fn engine(mode: EngineMode) -> Engine {
    Engine::new(EngineConfig {
        mode,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 512,
        ..Default::default()
    })
}

/// GC, then aggressive pack cycles (each packs a fraction) until no row
/// is left in the IMRS. Returns the bytes packed.
fn pack_everything(e: &Engine) -> u64 {
    e.run_maintenance(); // GC populates the ILM queues, truncates chains
    let mut total = 0;
    for _ in 0..200 {
        if e.snapshot().imrs_rows == 0 {
            break;
        }
        total += pack_cycle(e, PackLevel::Aggressive);
    }
    assert_eq!(e.snapshot().imrs_rows, 0, "all rows packed to page store");
    total
}

#[test]
fn insert_get_roundtrip_all_modes() {
    for mode in [EngineMode::PageOnly, EngineMode::IlmOff, EngineMode::IlmOn] {
        let e = engine(mode);
        let t = e.create_table(opts("t")).unwrap();
        let mut txn = e.begin();
        for i in 0..100u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"hello")).unwrap();
        }
        e.commit(txn).unwrap();

        let txn = e.begin();
        for i in 0..100u64 {
            let row = e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap();
            assert_eq!(&row[8..], b"hello", "mode {mode:?}");
        }
        assert!(e.get(&txn, &t, &999u64.to_be_bytes()).unwrap().is_none());
        e.commit(txn).unwrap();

        let snap = e.snapshot();
        match mode {
            EngineMode::PageOnly => {
                assert_eq!(snap.imrs_rows, 0, "PageOnly never uses the IMRS");
                assert!(snap.page_ops > 0);
            }
            _ => {
                assert_eq!(snap.imrs_rows, 100, "inserts go to the IMRS");
                assert!(snap.imrs_hit_rate() > 0.99);
            }
        }
    }
}

#[test]
fn update_and_delete_imrs() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"v1")).unwrap();
    e.commit(txn).unwrap();

    let mut txn = e.begin();
    assert!(e
        .update(&mut txn, &t, &1u64.to_be_bytes(), &mkrow(1, b"v2"))
        .unwrap());
    e.commit(txn).unwrap();

    let txn = e.begin();
    assert_eq!(
        &e.get(&txn, &t, &1u64.to_be_bytes()).unwrap().unwrap()[8..],
        b"v2"
    );
    e.commit(txn).unwrap();

    let mut txn = e.begin();
    assert!(e.delete(&mut txn, &t, &1u64.to_be_bytes()).unwrap());
    e.commit(txn).unwrap();

    let txn = e.begin();
    assert!(e.get(&txn, &t, &1u64.to_be_bytes()).unwrap().is_none());
    e.commit(txn).unwrap();
    // Idempotent delete of a missing key.
    let mut txn = e.begin();
    assert!(!e.delete(&mut txn, &t, &1u64.to_be_bytes()).unwrap());
    e.commit(txn).unwrap();
}

#[test]
fn snapshot_isolation_reader_does_not_see_later_commits() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"old")).unwrap();
    e.commit(txn).unwrap();

    let reader = e.begin(); // snapshot before the update
    let mut writer = e.begin();
    assert!(e
        .update(&mut writer, &t, &1u64.to_be_bytes(), &mkrow(1, b"new"))
        .unwrap());
    e.commit(writer).unwrap();

    // Reader still sees the old version.
    let row = e.get(&reader, &t, &1u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(&row[8..], b"old");
    e.commit(reader).unwrap();

    // A fresh reader sees the new one.
    let fresh = e.begin();
    let row = e.get(&fresh, &t, &1u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(&row[8..], b"new");
    e.commit(fresh).unwrap();
}

#[test]
fn abort_rolls_back_everything() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    // Committed baseline.
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"keep")).unwrap();
    e.commit(txn).unwrap();

    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(2, b"doomed")).unwrap();
    assert!(e
        .update(&mut txn, &t, &1u64.to_be_bytes(), &mkrow(1, b"dirty"))
        .unwrap());
    assert!(e.delete(&mut txn, &t, &1u64.to_be_bytes()).unwrap());
    e.abort(txn);

    let txn = e.begin();
    assert!(e.get(&txn, &t, &2u64.to_be_bytes()).unwrap().is_none());
    let row = e.get(&txn, &t, &1u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(&row[8..], b"keep");
    e.commit(txn).unwrap();
}

/// Insert → update → abort in ONE transaction: undoing the update's
/// write-set entry unlinks both versions (the chain empties: the row
/// goes), and the insert's entry then finds no row left. Nothing leaks
/// and nothing is counted twice.
#[test]
fn abort_of_insert_then_update_leaves_the_imrs_as_it_was() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"keep")).unwrap();
    e.commit(txn).unwrap();
    let before = e.snapshot();

    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(2, b"doomed")).unwrap();
    assert!(e
        .update(
            &mut txn,
            &t,
            &2u64.to_be_bytes(),
            &mkrow(2, b"doomed twice")
        )
        .unwrap());
    assert_eq!(e.snapshot().imrs_rows, before.imrs_rows + 1);
    e.abort(txn);

    let after = e.snapshot();
    assert_eq!(after.imrs_rows, before.imrs_rows);
    assert_eq!(after.imrs_used_bytes, before.imrs_used_bytes);
    let part = |s: &btrim_core::EngineSnapshot| {
        let p = &s.tables[0].partitions[0];
        (p.imrs_rows, p.imrs_bytes)
    };
    assert_eq!(part(&after), part(&before));
    let txn = e.begin();
    assert!(e.get(&txn, &t, &2u64.to_be_bytes()).unwrap().is_none());
    e.commit(txn).unwrap();
}

/// A RowId that left the IMRS and came back, with a queue entry of its
/// first stay still around: pack discards the stale entry and moves the
/// row once.
#[test]
fn repacked_row_with_a_stale_queue_entry_moves_once() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    for i in 0..50u64 {
        e.insert(&mut txn, &t, &mkrow(i, &[7u8; 64])).unwrap();
    }
    e.commit(txn).unwrap();
    pack_everything(&e);
    assert_eq!(e.snapshot().rows_packed, 50);

    // What a GC visit that raced the pack would have left behind.
    let key = 7u64.to_be_bytes();
    let rid = t.primary.get(&key).unwrap().unwrap();
    t.partitions[0].queues.push_tail(RowOrigin::Inserted, rid);

    // Back into the IMRS (an update migrates), then updated in place.
    for v in [8u8, 9] {
        let mut txn = e.begin();
        assert!(e.update(&mut txn, &t, &key, &mkrow(7, &[v; 64])).unwrap());
        e.commit(txn).unwrap();
    }
    assert_eq!(e.locate(&t, &key).unwrap(), Some(RowLocation::Imrs));
    assert_eq!(e.snapshot().imrs_rows, 1);
    pack_everything(&e);

    let snap = e.snapshot();
    assert_eq!(snap.rows_packed, 51, "the second stay packed once");
    assert_eq!(snap.queue_total, 0, "both entries consumed");
    assert!(matches!(
        e.locate(&t, &key).unwrap(),
        Some(RowLocation::Page(..))
    ));
    let txn = e.begin();
    assert_eq!(&e.get(&txn, &t, &key).unwrap().unwrap()[8..], &[9u8; 64]);
    e.commit(txn).unwrap();
}

#[test]
fn abort_rolls_back_page_store_changes() {
    let e = engine(EngineMode::PageOnly);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"base")).unwrap();
    e.commit(txn).unwrap();

    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(2, b"temp")).unwrap();
    assert!(e
        .update(&mut txn, &t, &1u64.to_be_bytes(), &mkrow(1, b"mod"))
        .unwrap());
    e.abort(txn);

    let txn = e.begin();
    assert!(e.get(&txn, &t, &2u64.to_be_bytes()).unwrap().is_none());
    assert_eq!(
        &e.get(&txn, &t, &1u64.to_be_bytes()).unwrap().unwrap()[8..],
        b"base"
    );
    e.commit(txn).unwrap();
}

/// Aborting an in-place shrink after other transactions took the freed
/// space: the before-image no longer fits its page, so the undo has to
/// re-home it — and say so in the RID-Map. (It used to drop the new
/// address, and the committed row was gone.)
#[test]
fn abort_of_an_update_whose_before_image_no_longer_fits_keeps_the_row() {
    let e = engine(EngineMode::PageOnly);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    for k in 0..60 {
        e.insert(&mut txn, &t, &mkrow(k, &[k as u8; 100])).unwrap();
    }
    e.commit(txn).unwrap();
    let k3 = 3u64.to_be_bytes();
    let before = e.locate(&t, &k3).unwrap();

    let mut a = e.begin();
    assert!(e.update(&mut a, &t, &k3, &mkrow(3, &[0xEE; 10])).unwrap());
    assert_eq!(e.locate(&t, &k3).unwrap(), before, "the shrink is in place");
    let mut b = e.begin();
    for k in 1_000..1_200 {
        e.insert(&mut b, &t, &mkrow(k, &[0xBB; 20])).unwrap();
    }
    e.commit(b).unwrap();
    e.abort(a);

    let txn = e.begin();
    assert_eq!(
        e.get(&txn, &t, &k3).unwrap(),
        Some(mkrow(3, &[3; 100])),
        "the committed row survives the abort, whole"
    );
    for k in (0..60u64).chain(1_000..1_200) {
        assert!(e.get(&txn, &t, &k.to_be_bytes()).unwrap().is_some(), "{k}");
    }
    e.commit(txn).unwrap();
    let at = e.locate(&t, &k3).unwrap();
    assert!(matches!(at, Some(RowLocation::Page(..))), "{at:?}");
    assert_ne!(at, before, "the recipe must force a re-homing undo");
}

#[test]
fn update_rmw_sees_latest_committed() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("counter")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, &0u64.to_be_bytes()))
        .unwrap();
    e.commit(txn).unwrap();

    // Sequential increments through RMW never lose updates, even
    // though each txn's snapshot predates the previous commit.
    for _ in 0..10 {
        let stale = e.begin(); // old snapshot, kept open
        let mut w = e.begin();
        e.update_rmw(&mut w, &t, &1u64.to_be_bytes(), |cur| {
            let n = u64::from_be_bytes(cur[8..16].try_into().unwrap());
            mkrow(1, &(n + 1).to_be_bytes())
        })
        .unwrap()
        .unwrap();
        e.commit(w).unwrap();
        e.commit(stale).unwrap();
    }
    let txn = e.begin();
    let row = e.get(&txn, &t, &1u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(u64::from_be_bytes(row[8..16].try_into().unwrap()), 10);
    e.commit(txn).unwrap();
}

#[test]
fn page_rows_migrate_on_update_and_cache_on_select() {
    // Start in PageOnly-ish state by disabling placement: use IlmOn but
    // insert under reject... simpler: insert in PageOnly mode is not
    // possible per-engine. Instead: insert into IMRS, pack everything
    // out, then observe re-migration.
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    for i in 0..50u64 {
        e.insert(&mut txn, &t, &mkrow(i, &[7u8; 64])).unwrap();
    }
    e.commit(txn).unwrap();
    // Force-pack everything (aggressive ignores hotness).
    assert!(pack_everything(&e) > 0);

    // All rows still readable (from the page store).
    let txn = e.begin();
    let row = e.get(&txn, &t, &7u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(&row[8..], &[7u8; 64]);
    e.commit(txn).unwrap();
    // The point select *cached* the row back into the IMRS (§IV).
    assert!(e.snapshot().imrs_rows >= 1, "select caches hot row");

    // An update migrates another page row.
    let mut txn = e.begin();
    assert!(e
        .update(&mut txn, &t, &9u64.to_be_bytes(), &mkrow(9, &[9u8; 64]))
        .unwrap());
    e.commit(txn).unwrap();
    assert!(e.snapshot().imrs_rows >= 2, "update migrates page row");

    let txn = e.begin();
    let row = e.get(&txn, &t, &9u64.to_be_bytes()).unwrap().unwrap();
    assert_eq!(&row[8..], &[9u8; 64]);
    e.commit(txn).unwrap();
}

#[test]
fn secondary_index_lookup_and_maintenance() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("customer")).unwrap();
    // Secondary key: bytes 8..12 of the row ("group id").
    e.create_secondary_index(&t, "by_group", Arc::new(|r: &[u8]| r[8..12].to_vec()))
        .unwrap();

    let mut txn = e.begin();
    for i in 0..30u64 {
        let group = (i % 3) as u32;
        let mut row = mkrow(i, &group.to_be_bytes());
        row.extend_from_slice(b"payload");
        e.insert(&mut txn, &t, &row).unwrap();
    }
    e.commit(txn).unwrap();

    let txn = e.begin();
    let hits = e
        .get_by_index(&txn, &t, "by_group", &1u32.to_be_bytes())
        .unwrap();
    assert_eq!(hits.len(), 10);
    e.commit(txn).unwrap();

    // Update that moves a row to another group.
    let mut txn = e.begin();
    let mut row = mkrow(1, &9u32.to_be_bytes());
    row.extend_from_slice(b"payload");
    assert!(e.update(&mut txn, &t, &1u64.to_be_bytes(), &row).unwrap());
    e.commit(txn).unwrap();

    let txn = e.begin();
    assert_eq!(
        e.get_by_index(&txn, &t, "by_group", &1u32.to_be_bytes())
            .unwrap()
            .len(),
        9
    );
    assert_eq!(
        e.get_by_index(&txn, &t, "by_group", &9u32.to_be_bytes())
            .unwrap()
            .len(),
        1
    );
    e.commit(txn).unwrap();

    // Delete removes the secondary entry.
    let mut txn = e.begin();
    assert!(e.delete(&mut txn, &t, &1u64.to_be_bytes()).unwrap());
    e.commit(txn).unwrap();
    let txn = e.begin();
    assert!(e
        .get_by_index(&txn, &t, "by_group", &9u32.to_be_bytes())
        .unwrap()
        .is_empty());
    e.commit(txn).unwrap();
}

/// Range scans collect index hits in chunks that grow from 16 to 256:
/// these ranges span several chunks, and the secondary index holds more
/// rows under one key than a chunk, so a resumed scan must skip exactly
/// the rows it already handed out under the key it resumes at.
#[test]
fn range_scan_over_mixed_stores() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("orders")).unwrap();
    e.create_secondary_index(&t, "by_parity", Arc::new(|r: &[u8]| vec![r[8] % 2]))
        .unwrap();
    let mut txn = e.begin();
    for i in 0..800u64 {
        e.insert(&mut txn, &t, &mkrow(i, &[i as u8])).unwrap();
    }
    e.commit(txn).unwrap();
    e.run_maintenance();
    // Pack roughly half out.
    for _ in 0..100 {
        pack_cycle(&e, PackLevel::Aggressive);
        if e.snapshot().imrs_rows <= 400 {
            break;
        }
    }
    let in_imrs = e.snapshot().imrs_rows;
    assert!(in_imrs < 800, "some rows packed");

    let txn = e.begin();
    let key = |row: &[u8]| u64::from_be_bytes(row[..8].try_into().unwrap());
    let mut seen = Vec::new();
    e.scan_range(
        &txn,
        &t,
        &10u64.to_be_bytes(),
        Some(700u64.to_be_bytes().as_ref()),
        |_, _, row| {
            seen.push(key(row));
            true
        },
    )
    .unwrap();
    let want: Vec<u64> = (10..700).collect();
    assert_eq!(seen, want, "scan spans both stores");
    let mut first = Vec::new();
    e.scan_range(&txn, &t, &[], None, |_, _, row| {
        first.push(key(row));
        first.len() < 300
    })
    .unwrap();
    assert_eq!(first, (0..300).collect::<Vec<_>>(), "stops where told");
    let mut odd = Vec::new();
    e.scan_secondary_range(&txn, &t, "by_parity", &[1], Some(&[2]), |k, _, row| {
        assert_eq!(k, [1]);
        odd.push(key(row));
        true
    })
    .unwrap();
    odd.sort_unstable();
    let want: Vec<u64> = (0..800u64).filter(|i| i % 2 == 1).collect();
    assert_eq!(odd, want, "every row under the key exactly once");
    e.commit(txn).unwrap();
}

#[test]
fn duplicate_primary_key_rejected() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(5, b"a")).unwrap();
    assert!(e.insert(&mut txn, &t, &mkrow(5, b"b")).is_err());
    e.abort(txn);
}

#[test]
fn reject_new_backpressure_routes_to_page_store() {
    // Tiny IMRS: fill past the reject threshold, inserts must degrade
    // to the page store without failing.
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 256 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: 1,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    for i in 0..2000u64 {
        let mut txn = e.begin();
        e.insert(&mut txn, &t, &mkrow(i, &[1u8; 128])).unwrap();
        e.commit(txn).unwrap();
    }
    let snap = e.snapshot();
    // The engine survived 2000 * 144B ≈ 280 KiB of inserts on a 256 KiB
    // budget: either pack drained cold rows to the page store, or the
    // reject-new/ImrsFull paths routed inserts there directly. Both are
    // §VI.A behaviours; neither may fail the transaction.
    assert!(
        snap.rows_packed > 0 || snap.page_ops > 0,
        "overflow must reach the page store (packed={} page_ops={})",
        snap.rows_packed,
        snap.page_ops
    );
    assert!(snap.imrs_used_bytes <= snap.imrs_budget);
    // Everything still readable.
    let txn = e.begin();
    for i in (0..2000u64).step_by(191) {
        assert!(e.get(&txn, &t, &i.to_be_bytes()).unwrap().is_some());
    }
    e.commit(txn).unwrap();
}

#[test]
fn recovery_restores_imrs_and_page_rows() {
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    let cfg = EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 512,
        ..Default::default()
    };
    {
        let e = Engine::with_devices(cfg.clone(), disk.clone(), syslog.clone(), imrslog.clone());
        let t = e.create_table(opts("t")).unwrap();
        let mut txn = e.begin();
        for i in 0..60u64 {
            e.insert(&mut txn, &t, &mkrow(i, &[i as u8; 32])).unwrap();
        }
        e.commit(txn).unwrap();
        // Update some, delete some.
        let mut txn = e.begin();
        for i in 0..10u64 {
            e.update(&mut txn, &t, &i.to_be_bytes(), &mkrow(i, &[0xAB; 16]))
                .unwrap();
        }
        for i in 50..60u64 {
            e.delete(&mut txn, &t, &i.to_be_bytes()).unwrap();
        }
        e.commit(txn).unwrap();
        e.run_maintenance();
        // Pack some rows to the page store.
        for _ in 0..10 {
            pack_cycle(&e, PackLevel::Aggressive);
        }
        // An in-flight loser at crash time.
        let mut loser = e.begin();
        e.insert(&mut loser, &t, &mkrow(999, b"loser")).unwrap();
        #[expect(clippy::mem_forget, reason = "simulate a crash: no commit, no abort")]
        std::mem::forget(loser);
        e.checkpoint().unwrap(); // flush pages + logs
    } // engine dropped = crash

    let e = Engine::recover(cfg, disk, syslog, imrslog, |e| {
        e.create_table(opts("t")).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    let txn = e.begin();
    for i in 0..10u64 {
        let row = e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap();
        assert_eq!(&row[8..], &[0xAB; 16], "updated rows survive");
    }
    for i in 10..50u64 {
        let row = e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap();
        assert_eq!(&row[8..], &[i as u8; 32], "plain rows survive");
    }
    for i in 50..60u64 {
        assert!(
            e.get(&txn, &t, &i.to_be_bytes()).unwrap().is_none(),
            "deleted rows stay deleted"
        );
    }
    assert!(
        e.get(&txn, &t, &999u64.to_be_bytes()).unwrap().is_none(),
        "loser insert rolled back"
    );
    e.commit(txn).unwrap();
}

#[test]
fn recovery_with_unflushed_pages_relies_on_redo() {
    // No checkpoint: dirty pages never reach the device; redo must
    // reconstruct them from the log alone.
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    let cfg = EngineConfig {
        mode: EngineMode::PageOnly,
        buffer_frames: 512,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        ..Default::default()
    };
    {
        let e = Engine::with_devices(cfg.clone(), disk.clone(), syslog.clone(), imrslog.clone());
        let t = e.create_table(opts("t")).unwrap();
        let mut txn = e.begin();
        for i in 0..30u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"page-data")).unwrap();
        }
        e.commit(txn).unwrap();
        // Crash without checkpoint. (MemLog retains appends; a real
        // deployment would flush the log at commit.)
    }
    let e = Engine::recover(cfg, disk, syslog, imrslog, |e| {
        e.create_table(opts("t")).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    let txn = e.begin();
    for i in 0..30u64 {
        let row = e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap();
        assert_eq!(&row[8..], b"page-data");
    }
    e.commit(txn).unwrap();
}

#[test]
fn multi_partition_table_routes_by_key_prefix() {
    let e = engine(EngineMode::IlmOn);
    let t = e
        .create_table(TableOpts {
            name: "stock".into(),
            imrs_enabled: true,
            pinned: false,
            partitioner: Partitioner::KeyPrefixU32 { parts: 4 },
            primary_key: Arc::new(key_of),
            layout: None,
        })
        .unwrap();
    let mut txn = e.begin();
    for w in 0..4u32 {
        for i in 0..25u64 {
            let key = ((w as u64) << 32) | i;
            e.insert(&mut txn, &t, &mkrow(key, &[w as u8])).unwrap();
        }
    }
    e.commit(txn).unwrap();
    let snap = e.snapshot();
    let tbl = snap.table("stock").unwrap();
    assert_eq!(tbl.partitions.len(), 4);
    // Keys lead with the warehouse-id word, so each partition got rows.
    for p in &tbl.partitions {
        assert!(p.imrs_rows > 0, "partition {p:?} populated");
    }
}

#[test]
fn concurrent_transactions_from_many_threads() {
    let e = Arc::new(engine(EngineMode::IlmOn));
    let t = e.create_table(opts("t")).unwrap();
    let handles: Vec<_> = (0..8u64)
        .map(|w| {
            let e = Arc::clone(&e);
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = w * 10_000 + i;
                    let mut txn = e.begin();
                    e.insert(&mut txn, &t, &mkrow(key, &[w as u8; 16])).unwrap();
                    e.commit(txn).unwrap();
                    let mut txn = e.begin();
                    e.update_rmw(&mut txn, &t, &key.to_be_bytes(), |cur| {
                        let mut v = cur.to_vec();
                        v.push(0xEE);
                        v
                    })
                    .unwrap()
                    .unwrap();
                    e.commit(txn).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = e.snapshot();
    assert_eq!(snap.committed_txns, 8 * 200 * 2);
    let txn = e.begin();
    for w in 0..8u64 {
        let key = w * 10_000 + 199;
        let row = e.get(&txn, &t, &key.to_be_bytes()).unwrap().unwrap();
        assert_eq!(*row.last().unwrap(), 0xEE);
    }
    e.commit(txn).unwrap();
}

/// The `customer.by_name` shape: every secondary key three times, in
/// three passes, over several leaves — so some runs of duplicates
/// straddle a leaf split. Each lookup sees all three rows, and deleting
/// one row of every run finds its index entry (a missed one would stay
/// behind and show in `len()` after the re-insert).
#[test]
fn duplicate_secondary_keys_survive_leaf_splits() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("customer")).unwrap();
    e.create_secondary_index(&t, "by_group", Arc::new(|r: &[u8]| r[8..12].to_vec()))
        .unwrap();
    const GROUPS: u64 = 1000;
    let row = |i: u64| mkrow(i, &((i % GROUPS) as u32).to_be_bytes());
    let by_group = |g: u64| {
        let txn = e.begin();
        let hits = e
            .get_by_index(&txn, &t, "by_group", &(g as u32).to_be_bytes())
            .unwrap();
        e.commit(txn).unwrap();
        hits.len()
    };
    let index_len = || t.secondaries.read()[0].tree.len().unwrap();

    let mut txn = e.begin();
    for i in 0..3 * GROUPS {
        e.insert(&mut txn, &t, &row(i)).unwrap();
    }
    e.commit(txn).unwrap();
    assert!(t.secondaries.read()[0].tree.height().unwrap() >= 2);
    assert_eq!((0..GROUPS).filter(|&g| by_group(g) != 3).count(), 0);

    let mut txn = e.begin();
    for g in 0..GROUPS {
        assert!(e.delete(&mut txn, &t, &g.to_be_bytes()).unwrap());
    }
    e.commit(txn).unwrap();
    assert_eq!(index_len(), 2 * GROUPS as usize);
    let mut txn = e.begin();
    for g in 0..GROUPS {
        e.insert(&mut txn, &t, &row(g)).unwrap();
    }
    e.commit(txn).unwrap();
    assert_eq!(index_len(), 3 * GROUPS as usize);
    assert_eq!((0..GROUPS).filter(|&g| by_group(g) != 3).count(), 0);
}

#[test]
fn unique_secondary_index_rejects_duplicates() {
    let e = engine(EngineMode::IlmOn);
    let t = e.create_table(opts("users")).unwrap();
    // Unique secondary on bytes 8..16 (an "email hash").
    e.create_unique_secondary_index(&t, "by_email", Arc::new(|r: &[u8]| r[8..16].to_vec()))
        .unwrap();
    let row = |id: u64, email: u64| {
        let mut v = id.to_be_bytes().to_vec();
        v.extend_from_slice(&email.to_be_bytes());
        v
    };
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &row(1, 100)).unwrap();
    e.insert(&mut txn, &t, &row(2, 200)).unwrap();
    // Same email, different primary key: rejected by the unique index.
    let err = e.insert(&mut txn, &t, &row(3, 100)).unwrap_err();
    assert!(matches!(err, btrim_core::BtrimError::DuplicateKey(_)));
    e.abort(txn);

    // Duplicate index names are rejected too.
    assert!(e
        .create_secondary_index(&t, "by_email", Arc::new(|r: &[u8]| r.to_vec()))
        .is_err());
}
