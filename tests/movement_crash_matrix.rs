//! Row movement × crash: every direction, every device-op offset.
//!
//! Cache, migrate, pack, freeze and thaw all run through one path
//! (`btrim_core`'s `movement::relocate`), so one matrix covers them.
//! For each direction the move runs once fault-free to learn how many
//! device operations it takes, then once per offset `k in 0..=n` with a
//! fail-stop armed `k` operations in; the machine reboots on the inner
//! devices and the survivor must hold **one row, one home**: every
//! acknowledged row readable (point read and range scan) exactly once
//! with its exact image, `locate` naming one tier, no tier holding a
//! copy the RID-Map does not point at, and the same move runnable again
//! to completion.
//!
//! Two companions ride along, each pinning one bug of the hand-copied
//! movement paths this matrix's subject replaced:
//!
//! * pack leaked its staged page copy when a log append failed after
//!   the heap insert (`pack_does_not_leak_its_staged_copy_…`);
//! * freeze flushed syslogs (commit verdict + page deletes) before
//!   sysimrslogs (the extent), so a power cut between the two flushes
//!   lost the batch (`power_cut_between_the_two_flushes_…`). The fault
//!   harness cannot see that — its logs are `MemLog`s, durable at
//!   append — so the test brings [`VolatileLog`] (`tests/common`).

mod common;

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use btrim::catalog::{FieldKind, RowLayout, TableDesc, TableOpts};
use btrim::pack::{pack_cycle, PackLevel};
use btrim::Actor;
use btrim::{Engine, EngineConfig, EngineMode, RowLocation};
use btrim_common::Result;
use btrim_faults::{FaultDisk, FaultLog, FaultPlan, FaultState};
use btrim_pagestore::{DiskBackend, MemDisk};
use btrim_wal::{LogSink, MemLog};

use common::{Power, VolatileLog};

const ROWS: u64 = 6;

fn row(key: u64, val: u64) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r
}

fn opts(name: &str) -> TableOpts {
    TableOpts::new(name, Arc::new(|r: &[u8]| r[..8].to_vec())).with_layout(RowLayout::new(&[
        ("k_hi", FieldKind::BeU32),
        ("k_lo", FieldKind::BeU32),
        ("val", FieldKind::U64),
    ]))
}

fn cfg() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 512 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        // Manual maintenance only: the test decides when rows move, so
        // a fail-stop offset aims at the move alone.
        maintenance_interval_txns: u64::MAX / 2,
        durable_commits: true,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 64,
        ..Default::default()
    }
}

struct Devices {
    disk: Arc<dyn DiskBackend>,
    syslog: Arc<dyn LogSink>,
    imrslog: Arc<dyn LogSink>,
}

impl Devices {
    fn mem() -> Self {
        Devices {
            disk: Arc::new(MemDisk::new()),
            syslog: Arc::new(MemLog::new()),
            imrslog: Arc::new(MemLog::new()),
        }
    }

    /// Reboot: recover a fresh engine from what is on the media.
    fn recover(&self, label: &str) -> (Engine, Arc<TableDesc>) {
        let engine = Engine::recover(
            cfg(),
            self.disk.clone(),
            self.syslog.clone(),
            self.imrslog.clone(),
            |e| e.create_table(opts("t")).map(|_| ()),
        )
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        let table = engine.table("t").unwrap();
        (engine, table)
    }
}

/// An engine on fault-wrapped devices, its table, and the media.
fn faulted(plan: FaultPlan) -> (Engine, Arc<TableDesc>, Arc<FaultState>, Devices) {
    let inner = Devices::mem();
    let state = FaultState::new(plan);
    let engine = Engine::with_devices(
        cfg(),
        Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
    );
    let table = engine.create_table(opts("t")).unwrap();
    (engine, table, state, inner)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    Cache,
    Migrate,
    Pack,
    Freeze,
    Thaw,
}

use Direction::*;

type Model = HashMap<u64, u64>;

/// Insert the rows (acknowledged, one transaction each). `Err` only
/// under an injected fault.
fn insert_rows(engine: &Engine, table: &TableDesc) -> Result<Model> {
    let mut model = Model::new();
    for key in 0..ROWS {
        let mut txn = engine.begin();
        engine.insert(&mut txn, table, &row(key, key * 7))?;
        engine.commit(txn)?;
        model.insert(key, key * 7);
    }
    engine.run_maintenance(); // GC feeds the ILM queues pack reads
    Ok(model)
}

fn pack_all(engine: &Engine) {
    while pack_cycle(engine, PackLevel::Aggressive) > 0 {}
}

/// Fault-free: put the acknowledged rows on the tier `dir` moves them
/// out of.
fn prepare(engine: &Engine, table: &TableDesc, dir: Direction) -> Model {
    let model = insert_rows(engine, table).unwrap();
    if dir != Pack {
        pack_all(engine);
    }
    if dir == Thaw {
        assert_eq!(engine.step(Actor::Freeze), ROWS);
    }
    model
}

/// The move under test. Cache, pack and freeze change no value;
/// migrate and thaw ride on a transaction that updates every row to
/// `new[key]` — returns whether that transaction was acknowledged.
fn run_move(engine: &Engine, table: &TableDesc, dir: Direction, new: &Model) -> bool {
    match dir {
        Pack => pack_all(engine),
        Freeze => {
            engine.step(Actor::Freeze);
        }
        Cache => {
            let txn = engine.begin();
            for key in 0..ROWS {
                let _ = engine.get(&txn, table, &key.to_be_bytes()); // typed failure tolerated
            }
            let _ = engine.commit(txn);
        }
        Migrate | Thaw => {
            let mut txn = engine.begin();
            for key in 0..ROWS {
                let image = row(key, new[&key]);
                if !matches!(
                    engine.update(&mut txn, table, &key.to_be_bytes(), &image),
                    Ok(true)
                ) {
                    engine.abort(txn);
                    return false;
                }
            }
            return engine.commit(txn).is_ok();
        }
    }
    true
}

/// One home per row: `locate` names a tier for every row of `expect`,
/// and every tier holds exactly the rows the RID-Map places there.
/// Returns how many rows live on each tier.
fn homes(label: &str, engine: &Engine, table: &TableDesc, expect: &Model) -> [u64; 3] {
    let [mut imrs, mut page, mut frozen] = [0u64; 3];
    for key in expect.keys() {
        match engine.locate(table, &key.to_be_bytes()).unwrap() {
            Some(RowLocation::Imrs) => imrs += 1,
            Some(RowLocation::Page(..)) => page += 1,
            Some(RowLocation::Frozen(..)) => frozen += 1,
            other => panic!("{label}: key {key} has no home ({other:?})"),
        }
    }
    let heaps = table.partitions.iter().map(|p| &p.heap);
    let heap_live: u64 = heaps.map(|heap| heap.live_rows()).sum();
    let mut extent_live = 0;
    engine.extent_store().for_each(|ext| {
        if ext.table() == table.id {
            extent_live += ext.live_count();
        }
    });
    let held = [engine.snapshot().imrs_rows as u64, heap_live, extent_live];
    assert_eq!(
        held,
        [imrs, page, frozen],
        "{label}: [imrs, page, frozen] copies held vs. rows the RID-Map places there"
    );
    held
}

/// One row, one home, one image: [`homes`], and every row of `expect`
/// returned by `scan_range` and by a point read exactly once with its
/// exact image. The point read is `get` — which caches page rows as it
/// goes, so the homes are checked again afterwards — or, with `quiet`,
/// its side-effect-free snapshot twin, which leaves the rows where the
/// crash left them for the rerun that follows.
fn check(label: &str, engine: &Engine, table: &TableDesc, expect: &Model, quiet: bool) -> [u64; 3] {
    let held = homes(label, engine, table, expect);
    let txn = engine.begin();
    let mut seen = 0;
    engine
        .scan_range(&txn, table, &[], None, |k, _, image| {
            let key = u64::from_be_bytes(k[..8].try_into().unwrap());
            assert_eq!(image, row(key, expect[&key]), "{label}: scan saw key {key}");
            seen += 1;
            true
        })
        .unwrap();
    assert_eq!(seen, expect.len(), "{label}: scan lost or duplicated a row");
    let snap = engine.begin_snapshot();
    for (&key, &val) in expect {
        let key = key.to_be_bytes();
        let got = match quiet {
            true => engine.get_snapshot(&snap, table, &key).unwrap(),
            false => engine.get(&txn, table, &key).unwrap(),
        };
        assert_eq!(
            got,
            Some(row(u64::from_be_bytes(key), val)),
            "{label}: point read"
        );
    }
    engine.end_snapshot(snap);
    engine.commit(txn).unwrap();
    homes(label, engine, table, expect);
    held
}

/// Run `dir` once with a fail-stop armed `fail_in` device ops into the
/// move (`None`: fault-free). Returns the ops the move took and whether
/// the crash switch flipped.
fn run_case(dir: Direction, fail_in: Option<u64>) -> (u64, bool) {
    let label = format!("{dir:?} fail_in={fail_in:?}");
    let (engine, table, state, inner) = faulted(FaultPlan::default());
    let old = prepare(&engine, &table, dir);
    let new: Model = old.iter().map(|(&k, &v)| (k, v + 1_000)).collect();

    let before = state.ops();
    if let Some(k) = fail_in {
        state.fail_stop_in(k);
    }
    let acked = run_move(&engine, &table, dir, &new);
    let (ops, crashed) = (state.ops() - before, state.crashed());
    drop(engine);

    let (engine, table) = inner.recover(&label);
    let survivor = match dir {
        Migrate | Thaw if acked => new.clone(),
        // Unacknowledged: the transaction is atomic, so all or nothing.
        Migrate | Thaw => {
            let txn = engine.begin();
            let got = engine.get(&txn, &table, &0u64.to_be_bytes()).unwrap();
            engine.commit(txn).unwrap();
            if got == Some(row(0, new[&0])) {
                new.clone()
            } else {
                old.clone()
            }
        }
        Cache | Pack | Freeze => old.clone(),
    };
    check(&label, &engine, &table, &survivor, true);

    // The survivor runs the same move again, to completion.
    let again: Model = survivor.iter().map(|(&k, &v)| (k, v + 5)).collect();
    assert!(run_move(&engine, &table, dir, &again), "{label}: rerun");
    let (label, expect) = (
        format!("{label} rerun"),
        match dir {
            Migrate | Thaw => &again,
            Cache | Pack | Freeze => &survivor,
        },
    );
    let [imrs, page, frozen] = check(&label, &engine, &table, expect, false);
    match dir {
        Cache | Migrate => assert_eq!(imrs, ROWS, "{label}: rows left outside the IMRS"),
        Pack => assert_eq!(page, ROWS, "{label}: rows left off the pages"),
        Freeze => assert_eq!(frozen, ROWS, "{label}: rows left unfrozen"),
        Thaw => assert_eq!(frozen, 0, "{label}: rows left frozen"),
    }
    (ops, crashed)
}

#[test]
fn every_direction_survives_a_crash_at_every_device_op() {
    for dir in [Cache, Migrate, Pack, Freeze, Thaw] {
        let (n, crashed) = run_case(dir, None);
        assert!(
            !crashed && n > 0,
            "{dir:?}: the fault-free move did no device op"
        );
        let mid_move = (0..=n).filter(|&k| run_case(dir, Some(k)).1).count() as u64;
        assert!(
            mid_move >= n.min(4),
            "{dir:?}: only {mid_move} of {n} offsets crashed inside the move"
        );
    }
}

/// Wider than the buffer cache: reading it back evicts (writes back)
/// every dirty heap page of the table under test.
const FILLER_ROWS: u64 = 640;

fn filler_opts() -> TableOpts {
    let mut opts = TableOpts::new("filler", Arc::new(|r: &[u8]| r[..8].to_vec()));
    opts.imrs_enabled = false; // page-only
    opts
}

/// The parent's `pack_one_locked` inserted the page copy, then returned
/// the append error without removing it: an orphan that reaches the
/// device at eviction is adopted by the next recovery's heap rebuild.
/// Sweep the log's death over every append of a pack batch.
#[test]
fn pack_does_not_leak_its_staged_copy_when_the_log_dies() {
    // `Some(n)`: kill the log device after `n` appends.
    let run = |die_after: Option<u64>| -> (u64, u64, bool) {
        let label = format!("log dies after {die_after:?} appends");
        let (engine, table, state, inner) = faulted(FaultPlan {
            fail_appends_after: die_after,
            ..FaultPlan::default()
        });
        let filler = engine.create_table(filler_opts()).unwrap();
        let model = insert_rows(&engine, &table).unwrap();
        let mut txn = engine.begin();
        for key in 0..FILLER_ROWS {
            let mut image = key.to_be_bytes().to_vec();
            image.resize(1_000, 0xF1);
            engine.insert(&mut txn, &filler, &image).unwrap();
        }
        engine.commit(txn).unwrap();
        // Every append so far was one record (single-row transactions).
        let appends = |d: &Devices| d.syslog.record_count() + d.imrslog.record_count();
        let before = appends(&inner);

        pack_all(&engine);
        let after = appends(&inner);
        let txn = engine.begin();
        for key in 0..FILLER_ROWS {
            engine.get(&txn, &filler, &key.to_be_bytes()).unwrap();
        }
        engine.commit(txn).unwrap();
        let died = state.log_dead();
        drop(engine);

        let recovered = Engine::recover(
            cfg(),
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
            |e| {
                e.create_table(opts("t"))?;
                e.create_table(filler_opts()).map(|_| ())
            },
        )
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        let table = recovered.table("t").unwrap();
        check(&label, &recovered, &table, &model, false);
        (before, after, died)
    };
    let (before, after, died) = run(None);
    assert!(!died && after > before);
    for die_after in before..after {
        assert!(run(Some(die_after)).2, "the log outlived the pack batch");
    }
}

/// A background batch flushes both logs at commit. Cut the power after
/// the first of the two flushes: whichever log went first is all the
/// reboot has. No acknowledged row may be lost — for freeze that
/// requires the extent (sysimrslogs) to be durable before the verdict
/// and the page deletes (syslogs).
#[test]
fn power_cut_between_the_two_flushes_of_a_batch_loses_no_row() {
    for dir in [Freeze, Pack] {
        let label = format!("{dir:?}, power cut after the batch's first flush");
        let power = Arc::new(Power::default());
        power.cut_after_flushes.store(u64::MAX, Ordering::SeqCst);
        let disk: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let (syslog, imrslog) = (VolatileLog::new(&power), VolatileLog::new(&power));
        let engine = Engine::with_devices(cfg(), disk.clone(), syslog.clone(), imrslog.clone());
        let table = engine.create_table(opts("t")).unwrap();
        let model = prepare(&engine, &table, dir);
        engine.checkpoint().unwrap();

        power.cut_after_flushes.store(1, Ordering::SeqCst);
        run_move(&engine, &table, dir, &model);
        assert!(power.off.load(Ordering::SeqCst), "{label}: no flush seen");
        drop(engine);

        let media = Devices {
            disk,
            syslog: syslog.media(),
            imrslog: imrslog.media(),
        };
        let (engine, table) = media.recover(&label);
        let txn = engine.begin();
        for (&key, &val) in &model {
            let got = engine.get(&txn, &table, &key.to_be_bytes()).unwrap();
            assert_eq!(got, Some(row(key, val)), "{label}: get({key})");
        }
        engine.commit(txn).unwrap();
    }
}

/// A select caches a page row — a foreground move, which never flushes
/// — and a pack batch of another partition then puts a barrier on
/// syslogs. Unless sysimrslogs is flushed first, that barrier makes the
/// cache move's `Delete{old}` and `Commit` durable while its arrival
/// record is still volatile, and recovery redoes the page delete with
/// nothing left to hold the row.
#[test]
fn a_pack_batch_does_not_outrun_a_cached_rows_arrival_record() {
    for durable_commits in [true, false] {
        let label = format!("durable_commits={durable_commits}");
        let cfg = EngineConfig {
            durable_commits,
            freeze_enabled: false, // row 0 stays on its page until cached
            ..cfg()
        };
        let tables = |e: &Engine| -> Result<()> {
            // `u` first, so its partition packs first.
            e.create_table(opts("u"))?;
            e.create_table(opts("t")).map(|_| ())
        };
        let power = Power::steady();
        let disk: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let (syslog, imrslog) = (VolatileLog::new(&power), VolatileLog::new(&power));
        let engine =
            Engine::with_devices(cfg.clone(), disk.clone(), syslog.clone(), imrslog.clone());
        tables(&engine).unwrap();
        let (u, t) = (engine.table("u").unwrap(), engine.table("t").unwrap());
        let model = insert_rows(&engine, &t).unwrap();
        pack_all(&engine);
        engine.checkpoint().unwrap();
        for key in 0..64 {
            let mut txn = engine.begin();
            engine.insert(&mut txn, &u, &row(key, key)).unwrap();
            engine.commit(txn).unwrap();
        }
        engine.run_maintenance();
        // Cache row 0 of `t`.
        let txn = engine.begin();
        assert!(engine.get(&txn, &t, &0u64.to_be_bytes()).unwrap().is_some());
        engine.commit(txn).unwrap();
        assert_eq!(
            engine.locate(&t, &0u64.to_be_bytes()).unwrap(),
            Some(RowLocation::Imrs),
            "{label}: the select cached the row"
        );

        power.cut_after_flushes.store(1, Ordering::SeqCst);
        pack_cycle(&engine, PackLevel::Aggressive);
        assert!(power.off.load(Ordering::SeqCst), "{label}: no flush seen");
        drop(engine);

        let engine = Engine::recover(cfg, disk, syslog.media(), imrslog.media(), tables)
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        let t = engine.table("t").unwrap();
        let txn = engine.begin();
        for (&key, &val) in &model {
            let got = engine.get(&txn, &t, &key.to_be_bytes()).unwrap();
            assert_eq!(got, Some(row(key, val)), "{label}: get({key})");
        }
        engine.commit(txn).unwrap();
    }
}
