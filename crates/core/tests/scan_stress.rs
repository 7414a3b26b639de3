//! HTAP stress: analytic scans racing committed writers.
//!
//! Four writer threads rewrite whole 4-row groups transactionally,
//! always preserving each group's `val` sum, while four scanner
//! threads run snapshot [`analytic_scan`]s over the same table — which
//! also holds a fully frozen columnar prefix. Every scan must see the
//! invariant total (no torn aggregates: a scan that mixed two
//! generations of one group would break the sum), the exact row count,
//! and the full frozen prefix on the columnar fast path. In debug
//! builds the lock-rank witness additionally proves the scanner
//! threads acquired **zero** ranked locks: with empty heaps and a
//! drained side store, the analytic read path is lock-free end to end.
//!
//! A second test keeps the rows moving instead: a mover thread packs,
//! freezes and rewrites groups (which migrates packed rows back to the
//! IMRS and thaws frozen ones) while scanners hold the same invariants.
//! Three more race scans against dissolves and against writes that
//! empty extents on another thread, and extent-directory readers
//! against the removal of the extents they hold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use btrim_core::catalog::{FieldKind, RowLayout, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::Actor;
use btrim_core::{Engine, EngineConfig, EngineMode, ScanSpec};

const FROZEN_ROWS: u64 = 64;
const GROUPS: u64 = 32;
const GROUP_ROWS: u64 = 4;
const GROUP_SUM: u64 = 10_000;
const WRITER_KEY_BASE: u64 = 1_000;

fn opts() -> TableOpts {
    TableOpts::new("hts", Arc::new(|row: &[u8]| row[..8].to_vec())).with_layout(RowLayout::new(&[
        ("k_hi", FieldKind::BeU32),
        ("k_lo", FieldKind::BeU32),
        ("val", FieldKind::U64),
    ]))
}

fn mkrow(key: u64, val: u64) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r
}

/// Row `j` of group `g` at generation `x`: rows 2i/2i+1 pair up as
/// x / GROUP_SUM - x, so every group sums to 2 × GROUP_SUM.
fn group_row(g: u64, j: u64, x: u64) -> (u64, Vec<u8>) {
    let key = WRITER_KEY_BASE + g * GROUP_ROWS + j;
    let val = if j.is_multiple_of(2) {
        x
    } else {
        GROUP_SUM - x
    };
    (key, mkrow(key, val))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[test]
fn writers_vs_scanners_no_torn_aggregates_no_scanner_locks() {
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 64,
        // No auto-maintenance: the writer rows must stay IMRS-resident
        // so the scan never needs the (lock-taking) page pass.
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 64,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();

    // Phase 1: a cold prefix, packed to pages and frozen columnar.
    let frozen_sum: u64 = (0..FROZEN_ROWS).map(|k| k * 3).sum();
    let mut txn = engine.begin();
    for k in 0..FROZEN_ROWS {
        engine.insert(&mut txn, &table, &mkrow(k, k * 3)).unwrap();
    }
    engine.commit(txn).unwrap();
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    while engine.step(Actor::Freeze) > 0 {}
    assert_eq!(
        engine.snapshot().rows_frozen,
        FROZEN_ROWS,
        "the whole cold prefix must freeze before the stress starts"
    );
    // Drain any straggling side-store tombstones from the migration so
    // the scanners' side check short-circuits without locking.
    engine.run_maintenance();

    // Phase 2: hot group rows, inserted after the freeze so they are
    // IMRS-resident and stay there (no maintenance runs below). Rows
    // 2j/2j+1 of a group pair up as x / GROUP_SUM - x, so each group —
    // and therefore the table — has a constant `val` sum.
    let mut txn = engine.begin();
    for g in 0..GROUPS {
        for j in 0..GROUP_ROWS {
            let key = WRITER_KEY_BASE + g * GROUP_ROWS + j;
            let val = if j % 2 == 0 { 0 } else { GROUP_SUM };
            engine.insert(&mut txn, &table, &mkrow(key, val)).unwrap();
        }
    }
    engine.commit(txn).unwrap();

    let total_rows = FROZEN_ROWS + GROUPS * GROUP_ROWS;
    let total_sum = (frozen_sum + GROUPS * 2 * GROUP_SUM) as u128;
    let spec = Arc::new(ScanSpec {
        filters: vec![("val".into(), 0, u64::MAX)],
        sums: vec!["val".into()],
    });

    let stop = Arc::new(AtomicBool::new(false));
    let scans = Arc::new(AtomicU64::new(0));

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let engine = Arc::clone(&engine);
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut rng = 0x5CA1_AB1E + w as u64;
                for _ in 0..600 {
                    let g = xorshift(&mut rng) % GROUPS;
                    let x = xorshift(&mut rng) % GROUP_SUM;
                    let mut txn = engine.begin();
                    let mut ok = true;
                    for j in 0..GROUP_ROWS {
                        let key = WRITER_KEY_BASE + g * GROUP_ROWS + j;
                        let val = if j % 2 == 0 { x } else { GROUP_SUM - x };
                        match engine.update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, val))
                        {
                            Ok(true) => {}
                            // Row-lock conflict with a sibling writer:
                            // abandon the whole group rewrite.
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

    let scanners: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let table = Arc::clone(&table);
            let spec = Arc::clone(&spec);
            let stop = Arc::clone(&stop);
            let scans = Arc::clone(&scans);
            std::thread::spawn(move || {
                let locks_before = parking_lot::ranked_acquisitions();
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.begin_snapshot();
                    let res = engine.analytic_scan(&snap, &table, &spec).unwrap();
                    engine.end_snapshot(snap);
                    assert_eq!(res.rows_scanned, total_rows, "rows appeared or vanished");
                    assert_eq!(res.rows_matched, total_rows);
                    assert_eq!(
                        res.sums[0], total_sum,
                        "torn aggregate: a scan mixed two generations of a group"
                    );
                    assert_eq!(
                        res.frozen_rows, FROZEN_ROWS,
                        "the frozen prefix must stay on the columnar fast path"
                    );
                    scans.fetch_add(1, Ordering::Relaxed);
                }
                parking_lot::ranked_acquisitions() - locks_before
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for s in scanners {
        let scanner_lock_acquisitions = s.join().unwrap();
        if cfg!(debug_assertions) {
            assert_eq!(
                scanner_lock_acquisitions, 0,
                "a scanner acquired a ranked lock — the analytic read path is not lock-free"
            );
        }
    }

    assert!(scans.load(Ordering::Relaxed) > 0, "scanners never ran");
    assert_eq!(engine.snapshot().txns_active, 0);
}

/// Scans racing every movement direction: the test thread packs the
/// IMRS (`pack_cycle(Aggressive)`), freezes pages (`step(Actor::Freeze)`) and
/// rewrites groups — an update migrates a packed row back to the IMRS
/// and thaws a frozen one — while scanners check that every scan sees
/// each row exactly once and every group at one generation.
#[test]
fn scans_racing_pack_freeze_thaw_and_migration_see_every_row_once() {
    const ROUNDS: u64 = 150;
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 16,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();
    let mut txn = engine.begin();
    for g in 0..GROUPS {
        for j in 0..GROUP_ROWS {
            engine
                .insert(&mut txn, &table, &group_row(g, j, 0).1)
                .unwrap();
        }
    }
    engine.commit(txn).unwrap();
    let total_rows = GROUPS * GROUP_ROWS;
    let total_sum = (GROUPS * 2 * GROUP_SUM) as u128;
    let spec = Arc::new(ScanSpec {
        filters: vec![("val".into(), 0, u64::MAX)],
        sums: vec!["val".into()],
    });

    let stop = Arc::new(AtomicBool::new(false));
    // Tickets of scans begun, and one past the highest ticket of a scan
    // finished: the mover waits on them so that scans provably run in
    // every round, however the two vCPUs are scheduled.
    let started = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));

    // Per scanner: scans, then rows served by each source, the
    // fallback resolutions (rows found moved mid-scan) and the scans
    // that swept the RID-Map twice (a row arrived while they ran).
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let (engine, table) = (Arc::clone(&engine), Arc::clone(&table));
            let (spec, stop) = (Arc::clone(&spec), Arc::clone(&stop));
            let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
            std::thread::spawn(move || {
                let mut seen = [0u64; 6];
                while !stop.load(Ordering::Relaxed) {
                    let ticket = started.fetch_add(1, Ordering::SeqCst);
                    let snap = engine.begin_snapshot();
                    let res = engine.analytic_scan(&snap, &table, &spec).unwrap();
                    engine.end_snapshot(snap);
                    assert_eq!(res.rows_scanned, total_rows, "rows appeared or vanished");
                    assert_eq!(
                        res.sums[0], total_sum,
                        "a scan mixed two generations of a group"
                    );
                    let served = res.imrs_rows + res.page_rows + res.frozen_rows;
                    assert_eq!(served, total_rows, "{res:?}");
                    for (n, v) in seen.iter_mut().zip([
                        1,
                        res.imrs_rows,
                        res.page_rows,
                        res.frozen_rows,
                        res.moved_rows,
                        (res.sweeps == 2) as u64,
                    ]) {
                        *n += v;
                    }
                    finished.fetch_max(ticket + 1, Ordering::SeqCst);
                }
                seen
            })
        })
        .collect();

    // The mover. Before each round moves anything it waits until a scan
    // that began after the previous round has finished: the first round
    // finds every row in the IMRS, later ones find rows packed to pages
    // and frozen, so the scans meet every tier deterministically.
    let mut rng = 0x0DD_BA11_u64;
    for _ in 0..ROUNDS {
        let want = started.load(Ordering::SeqCst) + 1;
        while finished.load(Ordering::SeqCst) < want && !scanners.iter().any(|s| s.is_finished()) {
            std::thread::yield_now();
        }
        engine.run_maintenance();
        pack_cycle(&engine, PackLevel::Aggressive);
        engine.step(Actor::Freeze);
        for _ in 0..4 {
            let g = xorshift(&mut rng) % GROUPS;
            let x = xorshift(&mut rng) % GROUP_SUM;
            let mut txn = engine.begin();
            for j in 0..GROUP_ROWS {
                let (key, row) = group_row(g, j, x);
                assert!(engine
                    .update(&mut txn, &table, &key.to_be_bytes(), &row)
                    .unwrap());
            }
            engine.commit(txn).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut seen = [0u64; 6];
    for s in scanners {
        for (n, v) in seen.iter_mut().zip(s.join().unwrap()) {
            *n += v;
        }
    }
    let [scans, imrs, page, frozen, moved, swept_twice] = seen;
    let snap = engine.snapshot();
    println!(
        "{scans} scans ({swept_twice} swept twice): rows from imrs {imrs}, pages {page}, \
         extents {frozen}; {moved} fallback resolutions; engine packed {}, froze {}, thawed {}",
        snap.rows_packed, snap.rows_frozen, snap.rows_thawed
    );
    assert!(scans > 0, "scanners never ran");
    assert!(snap.rows_packed > 0 && snap.rows_frozen > 0 && snap.rows_thawed > 0);
    assert!(
        imrs > 0 && page + frozen > 0,
        "scans must have met more than one tier"
    );
    assert!(
        swept_twice > 0,
        "no scan saw a row arrive: the second sweep went untested"
    );
    assert_eq!(snap.txns_active, 0);
}

/// Fresh inserts beside scans: a new row has no page copy for the
/// page pass to miss, so a scan that ran while rows were inserted still
/// sweeps the RID-Map once, and sees every row committed before its
/// snapshot.
#[test]
fn scans_beside_fresh_inserts_sweep_once() {
    const SCANS: u64 = 100;
    // Few enough that the scans stay short in debug builds.
    const INSERTS: u64 = 5_000;
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();
    let mut txn = engine.begin();
    for k in 0..GROUPS * GROUP_ROWS {
        engine.insert(&mut txn, &table, &mkrow(k, k)).unwrap();
    }
    engine.commit(txn).unwrap();
    let spec = ScanSpec {
        filters: vec![("val".into(), 0, u64::MAX)],
        sums: vec!["val".into()],
    };

    // Rows inserted and committed so far.
    let inserted = Arc::new(AtomicU64::new(0));
    let inserter = {
        let (engine, table) = (Arc::clone(&engine), Arc::clone(&table));
        let inserted = Arc::clone(&inserted);
        std::thread::spawn(move || {
            for key in WRITER_KEY_BASE..WRITER_KEY_BASE + INSERTS {
                let mut txn = engine.begin();
                engine.insert(&mut txn, &table, &mkrow(key, 1)).unwrap();
                engine.commit(txn).unwrap();
                inserted.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // Scans that ran while a row was inserted: at least `SCANS`, and on
    // until the inserter is done.
    let (mut scans, mut overlapped) = (0, 0);
    while scans < SCANS || !inserter.is_finished() {
        scans += 1;
        let before = inserted.load(Ordering::SeqCst);
        let snap = engine.begin_snapshot();
        let res = engine.analytic_scan(&snap, &table, &spec).unwrap();
        engine.end_snapshot(snap);
        assert_eq!(res.sweeps, 1, "fresh inserts made the scan sweep twice");
        assert!(
            res.rows_scanned >= GROUPS * GROUP_ROWS + before,
            "a row committed before the snapshot was missed"
        );
        overlapped += u64::from(inserted.load(Ordering::SeqCst) != before);
    }
    inserter.join().unwrap();
    assert!(overlapped > 0, "no scan ran beside an insert");
}

/// Scans racing dissolves: the table starts fully frozen in extents of
/// 14 rows; the mover rewrites groups (each write thaws its rows to
/// pages) and steps the Freeze actor, which dissolves every extent
/// left with fewer than a quarter of its rows live and takes the empty
/// ones out of the directory. Every scan must still see each row once
/// and every group at one generation; once the scanners stop, no
/// extent without a live row is left installed.
#[test]
fn scans_racing_dissolves_see_every_row_once() {
    const ROUNDS: u64 = 60;
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        // Groups of four never line up with extents of 14, so writes
        // leave extents partly live and the dissolve rule has work.
        freeze_max_rows: 14,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();
    let mut txn = engine.begin();
    for g in 0..GROUPS {
        for j in 0..GROUP_ROWS {
            let row = group_row(g, j, 0).1;
            engine.insert(&mut txn, &table, &row).unwrap();
        }
    }
    engine.commit(txn).unwrap();
    let total_rows = GROUPS * GROUP_ROWS;
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    while engine.step(Actor::Freeze) > 0 {}
    assert_eq!(engine.snapshot().rows_frozen, total_rows, "all frozen");
    let total_sum = (GROUPS * 2 * GROUP_SUM) as u128;
    let spec = Arc::new(ScanSpec {
        filters: vec![("val".into(), 0, u64::MAX)],
        sums: vec!["val".into()],
    });

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicU64::new(0));
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let (engine, table) = (Arc::clone(&engine), Arc::clone(&table));
            let (spec, stop) = (Arc::clone(&spec), Arc::clone(&stop));
            let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
            std::thread::spawn(move || {
                let (mut scans, mut frozen) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let ticket = started.fetch_add(1, Ordering::SeqCst);
                    let snap = engine.begin_snapshot();
                    let res = engine.analytic_scan(&snap, &table, &spec).unwrap();
                    engine.end_snapshot(snap);
                    assert_eq!(res.rows_scanned, total_rows, "rows appeared or vanished");
                    assert_eq!(res.sums[0], total_sum, "a scan mixed two generations");
                    let served = res.imrs_rows + res.page_rows + res.frozen_rows;
                    assert_eq!(served, total_rows, "{res:?}");
                    scans += 1;
                    frozen += res.frozen_rows;
                    finished.fetch_max(ticket + 1, Ordering::SeqCst);
                }
                (scans, frozen)
            })
        })
        .collect();

    let mut rng = 0xD155_0173_u64;
    for _ in 0..ROUNDS {
        let want = started.load(Ordering::SeqCst) + 1;
        while finished.load(Ordering::SeqCst) < want && !scanners.iter().any(|s| s.is_finished()) {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            let g = xorshift(&mut rng) % GROUPS;
            let x = xorshift(&mut rng) % GROUP_SUM;
            let mut txn = engine.begin();
            for j in 0..GROUP_ROWS {
                let (key, row) = group_row(g, j, x);
                assert!(engine
                    .update(&mut txn, &table, &key.to_be_bytes(), &row)
                    .unwrap());
            }
            engine.commit(txn).unwrap();
        }
        engine.step(Actor::Freeze);
    }
    stop.store(true, Ordering::Relaxed);
    let (mut scans, mut frozen) = (0, 0);
    for s in scanners {
        let (n, f) = s.join().unwrap();
        scans += n;
        frozen += f;
    }
    // No scan is pinned now: the emptied extents leave the directory.
    engine.step(Actor::Freeze);
    let snap = engine.snapshot();
    let mut holding = 0;
    engine.extent_store().for_each(|ext| {
        assert!(ext.live_count() > 0, "extent {} is empty", ext.id());
        holding += 1;
    });
    println!(
        "{scans} scans ({frozen} rows served frozen); thawed {} of which dissolved {}; \
         {} extents installed",
        snap.rows_thawed, snap.rows_dissolved, snap.frozen_extents
    );
    assert!(scans > 0 && frozen > 0, "scanners never met an extent");
    assert!(snap.rows_dissolved > 0, "no extent dissolved");
    assert_eq!(snap.frozen_extents, holding);
    assert!(
        snap.frozen_extents < total_rows / 14,
        "no extent left the directory"
    );
}

/// Scans racing writes that empty extents while the Freeze actor takes
/// empty extents out of the directory, each on its own thread. The
/// table starts frozen in extents of one group each; a writer thread
/// rewrites every group once, which thaws the group's rows to pages
/// (where the write leaves them) and so empties its extent. An extent
/// that empties while a scan runs must stay listed until that scan's
/// frozen pass: a row the scan's page pass missed is still served from
/// there. The extent ids start high, so every Freeze tick walks a long
/// run of never-used ids before it reaches them — a wide window for a
/// write to empty an extent between the tick's pin check and its
/// removal.
#[test]
fn scans_racing_thaws_on_another_thread_see_every_row_once() {
    const DRAIN_GROUPS: u64 = 256;
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: GROUP_ROWS as usize,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();
    let mut txn = engine.begin();
    for g in 0..DRAIN_GROUPS {
        for j in 0..GROUP_ROWS {
            engine
                .insert(&mut txn, &table, &group_row(g, j, 0).1)
                .unwrap();
        }
    }
    engine.commit(txn).unwrap();
    let total_rows = DRAIN_GROUPS * GROUP_ROWS;
    let total_sum = (DRAIN_GROUPS * 2 * GROUP_SUM) as u128;
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    // Sized so the walk lasts some milliseconds in either build.
    let unused_ids = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    };
    engine.extent_store().bump_floor(unused_ids);
    while engine.step(Actor::Freeze) > 0 {}
    assert_eq!(engine.snapshot().rows_frozen, total_rows, "all frozen");
    let installed = engine.snapshot().frozen_extents;
    let spec = Arc::new(ScanSpec {
        filters: vec![("val".into(), 0, u64::MAX)],
        sums: vec!["val".into()],
    });

    let stop = Arc::new(AtomicBool::new(false));
    let scanner = {
        let (engine, table) = (Arc::clone(&engine), Arc::clone(&table));
        let (spec, stop) = (Arc::clone(&spec), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = engine.begin_snapshot();
                let res = engine.analytic_scan(&snap, &table, &spec).unwrap();
                engine.end_snapshot(snap);
                assert_eq!(res.rows_scanned, total_rows, "rows appeared or vanished");
                assert_eq!(res.sums[0], total_sum, "a scan mixed two generations");
                scans += 1;
                // A gap between scans, so a Freeze tick can find no scan
                // pinned and the next scan pins inside its walk.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            scans
        })
    };
    let writer = {
        let (engine, table) = (Arc::clone(&engine), Arc::clone(&table));
        std::thread::spawn(move || {
            let mut rng = 0x7A3D_0017_u64;
            let mut order: Vec<u64> = (0..DRAIN_GROUPS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
            }
            for g in order {
                let x = xorshift(&mut rng) % GROUP_SUM;
                let mut txn = engine.begin();
                for j in 0..GROUP_ROWS {
                    let (key, row) = group_row(g, j, x);
                    assert!(engine
                        .update(&mut txn, &table, &key.to_be_bytes(), &row)
                        .unwrap());
                }
                engine.commit(txn).unwrap();
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };
    let mut ticks = 0u64;
    while !writer.is_finished() {
        engine.step(Actor::Freeze);
        ticks += 1;
    }
    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let scans = scanner.join().unwrap();
    engine.step(Actor::Freeze);
    let snap = engine.snapshot();
    println!(
        "{scans} scans, {ticks} Freeze ticks; {} of {installed} extents left, {} rows thawed",
        snap.frozen_extents, snap.rows_thawed
    );
    assert!(scans > 0 && ticks > 0);
    assert!(
        snap.frozen_extents < installed,
        "no extent left the directory"
    );
}

/// Extent-directory reads beside removals: a reader thread looks
/// extents up and walks the directory while the test thread empties
/// them and steps the Freeze actor. The reader takes no ranked lock
/// (debug builds count them); an extent it holds across its removal
/// reads back intact, and its id looks up as `None` after.
#[test]
fn an_extent_held_across_its_removal_reads_intact() {
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 16,
        ..Default::default()
    }));
    engine.create_table(opts()).unwrap();
    let table = engine.table("hts").unwrap();
    let mut txn = engine.begin();
    for k in 0..64 {
        engine.insert(&mut txn, &table, &mkrow(k, k * 3)).unwrap();
    }
    engine.commit(txn).unwrap();
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    while engine.step(Actor::Freeze) > 0 {}
    let ids: Vec<u32> = {
        let mut ids = Vec::new();
        engine.extent_store().for_each(|e| ids.push(e.id()));
        ids
    };
    assert_eq!(ids.len(), 4, "64 rows in extents of 16");
    let held = engine.extent_store().get(ids[0]).unwrap();
    let rows: Vec<u64> = (0..held.row_count())
        .map(|i| held.column("val").unwrap().get_u64(i).unwrap())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
        std::thread::spawn(move || {
            let locks_before = parking_lot::ranked_acquisitions();
            let mut lookups = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for &id in &ids {
                    lookups += u64::from(engine.extent_store().get(id).is_some());
                }
                engine.extent_store().for_each(|e| {
                    assert!(e.row_count() > 0);
                });
                let _pin = engine.extent_store().pin();
            }
            (lookups, parking_lot::ranked_acquisitions() - locks_before)
        })
    };
    // Delete every row of the held extent (each delete thaws its row
    // first), then step the Freeze actor until the empty extent is out.
    let keys: Vec<Vec<u8>> = (0..held.row_count())
        .map(|i| {
            let hi = held.column("k_hi").unwrap().get_u64(i).unwrap() as u32;
            let lo = held.column("k_lo").unwrap().get_u64(i).unwrap() as u32;
            [hi.to_be_bytes(), lo.to_be_bytes()].concat()
        })
        .collect();
    let mut txn = engine.begin();
    for key in &keys {
        assert!(engine.delete(&mut txn, &table, key).unwrap());
    }
    engine.commit(txn).unwrap();
    assert_eq!(held.live_count(), 0);
    while engine.extent_store().get(held.id()).is_some() {
        engine.step(Actor::Freeze);
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let (lookups, reader_locks) = reader.join().unwrap();
    assert!(lookups > 0, "the reader never ran");
    if cfg!(debug_assertions) {
        assert_eq!(
            reader_locks, 0,
            "an extent-directory read took a ranked lock"
        );
    }
    assert_eq!(engine.snapshot().frozen_extents, 3);
    let again: Vec<u64> = (0..held.row_count())
        .map(|i| held.column("val").unwrap().get_u64(i).unwrap())
        .collect();
    assert_eq!(again, rows, "the held extent changed under its reader");
}
