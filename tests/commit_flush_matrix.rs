//! Commit × flush × power cut, per transaction shape.
//!
//! Under `durable_commits` a transaction waits for one device barrier
//! per log it appended to, and an IMRS-only transaction appends to
//! sysimrslogs alone: its one atomic batch frame is the commit record,
//! syslogs never hears of it. This matrix holds every shape of
//! transaction to (a) its flush count on each log, and (b) the promise
//! the barriers are there for — the power is cut on both logs the
//! moment `commit` returns `Ok`, every unflushed byte is gone, and the
//! reboot must find the committed image: by `get`, by `scan_range`, by
//! `locate`, and held **once** across heap slots, IMRS rows and live
//! extent slots.
//!
//! The cases that need care are the ones where a foreground move
//! (cache, migrate, thaw — they never flush) sits between the last
//! barrier and the commit: its two halves are on two logs, and only one
//! of them may have reached the media. The fault harness cannot see any
//! of this — its logs are durable at append — hence `VolatileLog`.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use btrim::catalog::{FieldKind, RowLayout, TableDesc, TableOpts};
use btrim::pack::{pack_cycle, PackLevel};
use btrim::Actor;
use btrim::{Engine, EngineConfig, EngineMode, RowLocation, TxnId};
use btrim_pagestore::{DiskBackend, MemDisk};
use btrim_wal::{ImrsLogRecord, LogSink, LogWriter, MemLog, PageLogRecord};

use common::{Power, VolatileLog};

fn row(key: u64, val: u64) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r
}

/// The two tables of every rig: `hot` may use the IMRS, `cold` may not
/// (its partitions' IMRS use is disabled, so it is page-only even under
/// `IlmOn`).
const TABLES: [&str; 2] = ["hot", "cold"];

fn schema(engine: &Engine) -> btrim::Result<()> {
    for name in TABLES {
        let mut opts = TableOpts::new(name, Arc::new(|r: &[u8]| r[..8].to_vec())).with_layout(
            RowLayout::new(&[
                ("k_hi", FieldKind::BeU32),
                ("k_lo", FieldKind::BeU32),
                ("val", FieldKind::U64),
            ]),
        );
        opts.imrs_enabled = name == "hot";
        engine.create_table(opts)?;
    }
    Ok(())
}

fn cfg(mode: EngineMode) -> EngineConfig {
    EngineConfig {
        mode,
        imrs_budget: 512 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        // Manual maintenance only: rows move when the test says so.
        maintenance_interval_txns: u64::MAX / 2,
        durable_commits: true,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 64,
        ..Default::default()
    }
}

/// What the database must hold, per table: key → value, `None` for a
/// key that must be absent.
type Model = BTreeMap<(&'static str, u64), Option<u64>>;

/// What a reboot finds.
struct Media {
    mode: EngineMode,
    disk: Arc<dyn DiskBackend>,
    syslog: Arc<dyn LogSink>,
    imrslog: Arc<dyn LogSink>,
}

impl Media {
    fn recover(&self, label: &str) -> Engine {
        Engine::recover(
            cfg(self.mode),
            self.disk.clone(),
            self.syslog.clone(),
            self.imrslog.clone(),
            schema,
        )
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"))
    }

    /// Reboot twice — recovery must be repeatable over what an earlier
    /// recovery left — and hold each survivor to `model`. Returns the
    /// heap copies each recovery had to retire: a retirement is for
    /// good, so the second has none.
    fn reboot_twice(&self, label: &str, model: &Model) -> [u64; 2] {
        [1, 2].map(|n| {
            let label = format!("{label}, reboot {n}");
            let engine = self.recover(&label);
            verify(&label, &engine, model);
            engine.recovery_report().page_copies_retired
        })
    }
}

/// An engine on volatile logs.
struct Rig {
    mode: EngineMode,
    power: Arc<Power>,
    disk: Arc<dyn DiskBackend>,
    syslog: Arc<VolatileLog>,
    imrslog: Arc<VolatileLog>,
    engine: Engine,
}

impl Rig {
    fn new(mode: EngineMode) -> Rig {
        let power = Power::steady();
        let disk: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let (syslog, imrslog) = (VolatileLog::new(&power), VolatileLog::new(&power));
        let engine = Engine::with_devices(cfg(mode), disk.clone(), syslog.clone(), imrslog.clone());
        schema(&engine).unwrap();
        Rig {
            mode,
            power,
            disk,
            syslog,
            imrslog,
            engine,
        }
    }

    fn table(&self, name: &str) -> Arc<TableDesc> {
        self.engine.table(name).unwrap()
    }

    /// Barriers so far on `(sysimrslogs, syslogs)`.
    fn flushes(&self) -> (u64, u64) {
        (self.imrslog.flushes(), self.syslog.flushes())
    }

    /// Acknowledged single-row transactions, then everything durable.
    fn load(&self, table: &'static str, rows: &[(u64, u64)], model: &mut Model) {
        let t = self.table(table);
        for &(key, val) in rows {
            let mut txn = self.engine.begin();
            self.engine.insert(&mut txn, &t, &row(key, val)).unwrap();
            self.engine.commit(txn).unwrap();
            model.insert((table, key), Some(val));
        }
        self.engine.checkpoint().unwrap();
    }

    /// Move every IMRS row of the rig to its page, then everything
    /// durable.
    fn pack_all(&self) {
        self.engine.run_maintenance(); // GC feeds the ILM queues pack reads
        while pack_cycle(&self.engine, PackLevel::Aggressive) > 0 {}
        self.engine.checkpoint().unwrap();
    }

    fn home(&self, table: &str, key: u64) -> Option<RowLocation> {
        let t = self.table(table);
        self.engine.locate(&t, &key.to_be_bytes()).unwrap()
    }

    /// syslogs records past `since` appended under `txn`.
    fn syslog_appends_by(&self, txn: TxnId, since: u64) -> usize {
        let log: LogWriter<PageLogRecord> = LogWriter::new(self.syslog.clone());
        let records = log.read_all().unwrap();
        let mine = |(lsn, rec): &(btrim_common::Lsn, PageLogRecord)| {
            lsn.0 > since && rec.txn() == Some(txn)
        };
        records.iter().filter(|r| mine(r)).count()
    }

    /// Cut the power — every unflushed byte of both logs is gone — and
    /// hand over what the devices kept.
    fn power_cut(self) -> Media {
        self.power.cut();
        let Rig {
            mode,
            disk,
            syslog,
            imrslog,
            engine,
            ..
        } = self;
        drop(engine);
        Media {
            mode,
            disk,
            syslog: syslog.media(),
            imrslog: imrslog.media(),
        }
    }
}

/// One row, one home, one image: every key of `model` read back by
/// `get_snapshot` and by `scan_range` with its exact image (or not at
/// all), `locate` naming one tier for it, and each tier holding exactly
/// the copies the RID-Map places there. Side-effect free — a `get`
/// would cache page rows and move what the crash left.
fn verify(label: &str, engine: &Engine, model: &Model) {
    let [mut imrs, mut page, mut frozen] = [0u64; 3];
    let (mut heap_live, mut extent_live) = (0, 0);
    let snap = engine.begin_snapshot();
    let txn = engine.begin();
    for name in TABLES {
        let table = engine.table(name).unwrap();
        let expect = |key: u64| model.get(&(name, key)).copied().flatten();
        for (&(_, key), &val) in model.iter().filter(|((t, _), _)| *t == name) {
            let k = key.to_be_bytes();
            let got = engine.get_snapshot(&snap, &table, &k).unwrap();
            assert_eq!(got, val.map(|v| row(key, v)), "{label}: get {name}/{key}");
            match (engine.locate(&table, &k).unwrap(), val) {
                (Some(RowLocation::Imrs), Some(_)) => imrs += 1,
                (Some(RowLocation::Page(..)), Some(_)) => page += 1,
                (Some(RowLocation::Frozen(..)), Some(_)) => frozen += 1,
                (None, None) => {}
                (home, _) => panic!("{label}: {name}/{key} is at {home:?}, model says {val:?}"),
            }
        }
        let mut seen = 0;
        engine
            .scan_range(&txn, &table, &[], None, |k, _, image| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = expect(key).unwrap_or_else(|| panic!("{label}: scan met {name}/{key}"));
                assert_eq!(image, row(key, val), "{label}: scan {name}/{key}");
                seen += 1;
                true
            })
            .unwrap();
        let live = model.iter().filter(|((t, _), v)| *t == name && v.is_some());
        assert_eq!(seen, live.count(), "{label}: scan of {name} lost a row");
        heap_live += table
            .partitions
            .iter()
            .map(|p| p.heap.live_rows())
            .sum::<u64>();
    }
    engine.commit(txn).unwrap();
    engine.end_snapshot(snap);
    engine
        .extent_store()
        .for_each(|ext| extent_live += ext.live_count());
    assert_eq!(
        [engine.snapshot().imrs_rows as u64, heap_live, extent_live],
        [imrs, page, frozen],
        "{label}: [imrs, page, frozen] copies held vs. rows the RID-Map places there"
    );
}

/// The shapes a transaction can take, by the logs it appends to.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Insert into the IMRS.
    ImrsInsert,
    /// Update of an IMRS-resident row.
    ImrsUpdate,
    /// Update of a page row: the prologue migrates it (a move of the
    /// transaction's own making), then the IMRS is updated.
    MigratingUpdate,
    /// Update of a row an earlier read-only transaction cached — that
    /// transaction flushed nothing, so the move is in neither log's
    /// durable prefix when this one commits.
    UpdateOfCachedRow,
    /// Insert and update under `EngineMode::PageOnly`.
    PageOnlyMode,
    /// The same under `IlmOn`, on a table whose IMRS use is disabled.
    ImrsDisabledTable,
    /// One IMRS row and one page row.
    Mixed,
    /// Point reads, one of which caches a page row.
    ReadOnly,
    /// An IMRS insert and an IMRS update, aborted.
    ImrsAbort,
}

impl Shape {
    /// Barriers the commit waits for on `(sysimrslogs, syslogs)`.
    fn flushes(self) -> (u64, u64) {
        match self {
            Shape::ImrsInsert
            | Shape::ImrsUpdate
            | Shape::MigratingUpdate
            | Shape::UpdateOfCachedRow => (1, 0),
            Shape::PageOnlyMode | Shape::ImrsDisabledTable => (0, 1),
            Shape::Mixed => (1, 1),
            Shape::ReadOnly | Shape::ImrsAbort => (0, 0),
        }
    }

    fn mode(self) -> EngineMode {
        match self {
            Shape::PageOnlyMode => EngineMode::PageOnly,
            _ => EngineMode::IlmOn,
        }
    }
}

/// Run `shape` on a fresh rig: set the stage (all of it durable), run
/// the one transaction under test, hold it to its flush count, cut the
/// power as `commit` returns, reboot.
fn run_shape(shape: Shape) {
    let label = format!("{shape:?}");
    let rig = Rig::new(shape.mode());
    let (hot, cold) = (rig.table("hot"), rig.table("cold"));
    let mut model = Model::new();
    let e = &rig.engine;
    let key = |k: u64| k.to_be_bytes();

    // ---- Stage -------------------------------------------------------
    rig.load("hot", &[(1, 10), (2, 20)], &mut model);
    rig.load("cold", &[(1, 10)], &mut model);
    match shape {
        Shape::MigratingUpdate | Shape::UpdateOfCachedRow | Shape::ReadOnly => {
            rig.pack_all();
            assert!(matches!(rig.home("hot", 1), Some(RowLocation::Page(..))));
        }
        _ => {}
    }
    if let Shape::UpdateOfCachedRow = shape {
        let before = rig.flushes();
        let txn = e.begin();
        assert_eq!(e.get(&txn, &hot, &key(1)).unwrap(), Some(row(1, 10)));
        e.commit(txn).unwrap();
        assert_eq!(
            rig.home("hot", 1),
            Some(RowLocation::Imrs),
            "{label}: cached"
        );
        assert_eq!(rig.flushes(), before, "{label}: the caching reader flushed");
    }

    // ---- The transaction under test -----------------------------------
    let before = rig.flushes();
    let sys_before = rig.syslog.record_count();
    let mut txn = e.begin();
    let id = txn.id();
    let mut put = |table: &'static str, k: u64, v: u64| {
        model.insert((table, k), Some(v));
    };
    match shape {
        Shape::ImrsInsert => {
            e.insert(&mut txn, &hot, &row(3, 30)).unwrap();
            put("hot", 3, 30);
        }
        Shape::ImrsUpdate | Shape::MigratingUpdate | Shape::UpdateOfCachedRow => {
            assert!(e.update(&mut txn, &hot, &key(1), &row(1, 11)).unwrap());
            put("hot", 1, 11);
        }
        Shape::PageOnlyMode => {
            e.insert(&mut txn, &hot, &row(3, 30)).unwrap();
            assert!(e.update(&mut txn, &hot, &key(1), &row(1, 11)).unwrap());
            put("hot", 3, 30);
            put("hot", 1, 11);
        }
        Shape::ImrsDisabledTable => {
            e.insert(&mut txn, &cold, &row(3, 30)).unwrap();
            assert!(e.update(&mut txn, &cold, &key(1), &row(1, 11)).unwrap());
            put("cold", 3, 30);
            put("cold", 1, 11);
        }
        Shape::Mixed => {
            e.insert(&mut txn, &hot, &row(3, 30)).unwrap();
            assert!(e.update(&mut txn, &cold, &key(1), &row(1, 11)).unwrap());
            put("hot", 3, 30);
            put("cold", 1, 11);
        }
        Shape::ReadOnly => {
            assert_eq!(e.get(&txn, &hot, &key(1)).unwrap(), Some(row(1, 10)));
            assert_eq!(e.get(&txn, &cold, &key(1)).unwrap(), Some(row(1, 10)));
        }
        Shape::ImrsAbort => {
            e.insert(&mut txn, &hot, &row(3, 30)).unwrap();
            assert!(e.update(&mut txn, &hot, &key(1), &row(1, 11)).unwrap());
            model.insert(("hot", 3), None);
        }
    }
    match shape {
        Shape::ImrsAbort => e.abort(txn),
        _ => {
            e.commit(txn).unwrap();
        }
    }

    // ---- (a) One barrier per log the transaction appended to ----------
    let after = rig.flushes();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        shape.flushes(),
        "{label}: (sysimrslogs, syslogs) barriers at commit"
    );
    if shape.flushes().1 == 0 {
        assert_eq!(
            rig.syslog_appends_by(id, sys_before),
            0,
            "{label}: syslogs appends by a transaction with no page record"
        );
    }
    if let Shape::MigratingUpdate | Shape::ReadOnly = shape {
        assert_eq!(
            rig.home("hot", 1),
            Some(RowLocation::Imrs),
            "{label}: moved"
        );
        assert!(
            rig.syslog.record_count() > sys_before,
            "{label}: the move wrote its syslogs half"
        );
    }

    // ---- (b) Power cut as `commit` returns ----------------------------
    let retired = rig.power_cut().reboot_twice(&label, &model);
    // A move committed by its arrival record, syslogs half lost with
    // the power: the first reboot finishes the departure, for good.
    let moved = matches!(shape, Shape::MigratingUpdate | Shape::UpdateOfCachedRow);
    assert_eq!(
        retired,
        [u64::from(moved), 0],
        "{label}: page copies retired"
    );
}

/// One test per shape, so a failure names its row of the matrix.
macro_rules! one_barrier_per_log_written_and_the_commit_survives_a_power_cut {
    ($($test:ident: $shape:ident,)*) => {$(
        #[test]
        fn $test() {
            run_shape(Shape::$shape);
        }
    )*};
}

one_barrier_per_log_written_and_the_commit_survives_a_power_cut! {
    shape_imrs_insert: ImrsInsert,
    shape_imrs_update: ImrsUpdate,
    shape_migrating_update: MigratingUpdate,
    shape_update_of_cached_row: UpdateOfCachedRow,
    shape_page_only_mode: PageOnlyMode,
    shape_imrs_disabled_table: ImrsDisabledTable,
    shape_mixed: Mixed,
    shape_read_only: ReadOnly,
    shape_imrs_abort: ImrsAbort,
}

/// A `BufWriter` spills without being asked: of the three syslogs
/// records of a migration (`Begin`, `Delete{old}`, `Commit`) any prefix
/// may be on the media when the dependent IMRS-only commit — which put
/// its barrier on sysimrslogs alone — is acknowledged. The arrival
/// record commits the move whichever it is: the row is in the IMRS with
/// the user's image, once.
#[test]
fn the_arrival_record_commits_a_move_whatever_prefix_of_its_syslogs_half_survives() {
    for kept in 0..=3u64 {
        let label = format!("{kept} of the move's 3 syslogs records kept");
        let rig = Rig::new(EngineMode::IlmOn);
        let mut model = Model::new();
        rig.load("hot", &[(1, 10), (2, 20)], &mut model);
        rig.pack_all();
        let hot = rig.table("hot");
        let sys_durable = rig.syslog.record_count();
        assert_eq!(sys_durable, rig.syslog.durable_records());

        let mut txn = rig.engine.begin();
        let image = row(1, 11);
        assert!(rig
            .engine
            .update(&mut txn, &hot, &1u64.to_be_bytes(), &image)
            .unwrap());
        rig.engine.commit(txn).unwrap();
        model.insert(("hot", 1), Some(11));

        // The move's half is all syslogs got, and none of it is flushed.
        let log: LogWriter<PageLogRecord> = LogWriter::new(rig.syslog.clone());
        let tail: Vec<PageLogRecord> = log
            .read_all()
            .unwrap()
            .split_off(sys_durable as usize)
            .into_iter()
            .map(|(_, rec)| rec)
            .collect();
        assert!(
            matches!(
                tail[..],
                [
                    PageLogRecord::Begin { .. },
                    PageLogRecord::Delete { .. },
                    PageLogRecord::Commit { .. }
                ]
            ),
            "{label}: syslogs tail is {tail:?}"
        );
        assert_eq!(rig.syslog.durable_records(), sys_durable);

        let spilled = rig.syslog.media_upto(sys_durable + kept);
        let media = Media {
            syslog: spilled,
            ..rig.power_cut()
        };
        let retired = media.reboot_twice(&label, &model);
        // With the `Delete` on the media redo empties the slot; without
        // it recovery retires the copy itself, once.
        assert_eq!(retired, [u64::from(kept < 2), 0], "{label}: copies retired");
        let engine = media.recover(&label);
        let hot = engine.table("hot").unwrap();
        let home = engine.locate(&hot, &1u64.to_be_bytes()).unwrap();
        assert_eq!(home, Some(RowLocation::Imrs), "{label}: home");
    }
}

/// Foreground moves never flush, so a move's two halves sit unflushed
/// on two logs until some commit puts a barrier there. A commit that
/// writes only syslogs must not make the syslogs half durable alone:
/// replayed as a winner, the move's `Delete{old}` (or a thaw's
/// `Insert`) would run with no arrival (or departure) record behind it
/// — the cached row gone from both tiers, the thawed row on a page
/// *and* live in its extent. So that commit waits for sysimrslogs
/// first, like every commit did before IMRS-only ones stopped writing
/// syslogs — unless a barrier there already covered the move, as a
/// checkpoint's does: then it pays no sysimrslogs sync at all.
#[test]
fn a_syslogs_barrier_never_outruns_the_other_half_of_a_move() {
    for label in ["cache", "thaw", "cache, then checkpoint"] {
        let rig = Rig::new(EngineMode::IlmOn);
        let mut model = Model::new();
        rig.load("hot", &[(1, 10), (2, 20)], &mut model);
        rig.load("cold", &[(1, 10)], &mut model);
        rig.pack_all();
        let (hot, cold) = (rig.table("hot"), rig.table("cold"));
        let e = &rig.engine;
        let key = 1u64.to_be_bytes();
        let mut txn;
        if label == "thaw" {
            // A write that thaws its row leaves it on its page: the
            // transaction's own records are all on syslogs.
            assert_eq!(e.step(Actor::Freeze), 2, "{label}: rows frozen");
            e.checkpoint().unwrap();
            assert!(matches!(rig.home("hot", 1), Some(RowLocation::Frozen(..))));
            txn = e.begin();
            assert!(e.update(&mut txn, &hot, &key, &row(1, 11)).unwrap());
            assert!(matches!(rig.home("hot", 1), Some(RowLocation::Page(..))));
            model.insert(("hot", 1), Some(11));
        } else {
            // A reader caches a row; a page-only writer commits next.
            let before = rig.flushes();
            let reader = e.begin();
            e.get(&reader, &hot, &key).unwrap();
            e.commit(reader).unwrap();
            assert_eq!(rig.home("hot", 1), Some(RowLocation::Imrs));
            assert_eq!(rig.flushes(), before, "{label}: the reader flushed");
            if label == "cache, then checkpoint" {
                e.checkpoint().unwrap();
            }
            txn = e.begin();
            assert!(e.update(&mut txn, &cold, &key, &row(1, 11)).unwrap());
            model.insert(("cold", 1), Some(11));
        }
        let before = rig.flushes();
        e.commit(txn).unwrap();
        let after = rig.flushes();
        let imrs_barriers = if label == "cache, then checkpoint" {
            0
        } else {
            1
        };
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (imrs_barriers, 1),
            "{label}: (sysimrslogs, syslogs) barriers at commit"
        );
        // Both halves of the move are durable: nothing left to retire.
        let retired = rig.power_cut().reboot_twice(label, &model);
        assert_eq!(retired, [0, 0], "{label}: page copies retired");
    }
}

/// The retirement rule is not about page → IMRS moves only: whatever
/// heap copy the RID-Map does not name after replay goes. A pack batch
/// flushes syslogs (its `Insert`s) and then sysimrslogs (its `Pack`
/// records); cut between the two, the rows are back in the IMRS and
/// their redone page copies used to stay behind as orphans.
#[test]
fn a_pack_batch_cut_between_its_two_flushes_leaves_no_page_orphan() {
    let rig = Rig::new(EngineMode::IlmOn);
    let mut model = Model::new();
    rig.load("hot", &[(1, 10), (2, 20), (3, 30)], &mut model);
    rig.engine.run_maintenance();
    rig.power
        .cut_after_flushes
        .store(1, std::sync::atomic::Ordering::SeqCst);
    while pack_cycle(&rig.engine, PackLevel::Aggressive) > 0 {}
    assert!(
        rig.power.off.load(std::sync::atomic::Ordering::SeqCst),
        "no flush seen"
    );
    assert!(matches!(rig.home("hot", 1), Some(RowLocation::Page(..))));
    let retired = rig.power_cut().reboot_twice("pack", &model);
    assert_eq!(retired, [3, 0], "page copies retired");
}

/// A log pair written by the parent of the one-flush commit announces
/// every writing transaction in syslogs, IMRS-only ones included. Those
/// `Begin`/`Commit` pairs are evidence nobody needs: the same database
/// comes back with them as without.
#[test]
fn a_parent_shaped_log_pair_recovers_to_the_same_database() {
    let rig = Rig::new(EngineMode::IlmOn);
    let mut model = Model::new();
    rig.load("hot", &[(1, 10), (2, 20)], &mut model);
    rig.load("cold", &[(1, 10)], &mut model);
    let (hot, cold) = (rig.table("hot"), rig.table("cold"));
    let e = &rig.engine;
    for (k, v) in [(1u64, 11u64), (2, 21), (1, 12)] {
        let mut txn = e.begin();
        assert!(e
            .update(&mut txn, &hot, &k.to_be_bytes(), &row(k, v))
            .unwrap());
        if v == 21 {
            assert!(e
                .update(&mut txn, &cold, &1u64.to_be_bytes(), &row(1, v))
                .unwrap());
            model.insert(("cold", 1), Some(v));
        }
        e.commit(txn).unwrap();
        model.insert(("hot", k), Some(v));
    }
    let mut txn = e.begin();
    assert!(e.delete(&mut txn, &hot, &2u64.to_be_bytes()).unwrap());
    e.commit(txn).unwrap();
    model.insert(("hot", 2), None);

    let media = rig.power_cut();
    // The parent's syslogs: ours, plus a `Begin`/`Commit` pair for
    // every user transaction that only sysimrslogs knows.
    let ours: LogWriter<PageLogRecord> = LogWriter::new(media.syslog.clone());
    let ours = ours.read_all().unwrap();
    let imrs: LogWriter<ImrsLogRecord> = LogWriter::new(media.imrslog.clone());
    let parent: LogWriter<PageLogRecord> = LogWriter::new(Arc::new(MemLog::new()));
    let mut announced: Vec<TxnId> = ours.iter().filter_map(|(_, rec)| rec.txn()).collect();
    let mut pairs = 0;
    for (_, rec) in imrs.read_all().unwrap() {
        let Some(txn) = rec.txn().filter(|txn| !announced.contains(txn)) else {
            continue;
        };
        announced.push(txn);
        parent.append(&PageLogRecord::Begin { txn }).unwrap();
        let ts = rec.ts();
        parent.append(&PageLogRecord::Commit { txn, ts }).unwrap();
        pairs += 1;
    }
    assert_eq!(pairs, 5, "IMRS-only transactions to announce");
    for (_, rec) in &ours {
        parent.append(rec).unwrap();
    }
    let parent_media = Media {
        mode: media.mode,
        disk: media.disk.clone(),
        syslog: parent.sink().clone(),
        imrslog: media.imrslog.clone(),
    };
    media.reboot_twice("our log pair", &model);
    parent_media.reboot_twice("parent-shaped log pair", &model);
}
