//! One visible image per snapshot, whatever the read path and wherever
//! the row lives.
//!
//! The engine has one row resolver; this matrix is its contract. For
//! each home a row can have {IMRS, page, tombstoned page, frozen
//! extent} × each history another transaction can put it through
//! {uncommitted change, change committed after the reader began,
//! aborted change, uncommitted insert}, a read-write transaction and a
//! snapshot opened at the same instant must report the **same** image
//! through every read path — `get`, `get_snapshot`, `scan_range`,
//! `analytic_scan`, and the RowId-addressed `read_row` /
//! `read_row_snapshot` — and the writer must always read its own
//! pending write.
//!
//! On the tombstoned-page home the change is a delete. Index entries
//! are not versioned (DESIGN.md "Caveat — index visibility"): a delete
//! unhooks the key at once, so the three key-addressed paths cannot
//! reach the row any more and are only held to agree with one another;
//! the RowId-addressed paths and the analytic scan still owe the reader
//! its snapshot's image.

use std::sync::Arc;

use btrim::catalog::{FieldKind, RowLayout, TableDesc, TableOpts};
use btrim::pack::{pack_cycle, PackLevel};
use btrim::Actor;
use btrim::{
    Engine, EngineConfig, EngineMode, RowId, RowLocation, ScanSpec, SnapshotTxn, Transaction,
};

const ROWS: u64 = 64;
/// The seeded row every history targets.
const TARGET: u64 = 3;
/// A key no seeded row has (the uncommitted-insert history).
const FRESH: u64 = 500;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Home {
    Imrs,
    Page,
    Tombstone,
    Frozen,
}

#[derive(Clone, Copy, Debug)]
enum History {
    Uncommitted,
    CommittedAfterReaderBegan,
    Aborted,
    UncommittedInsert,
}

fn mkrow(key: u64, val: u64) -> Vec<u8> {
    mkrow_padded(key, val, 8)
}

/// A row whose `pad` field is `pad` bytes long.
fn mkrow_padded(key: u64, val: u64, pad: usize) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r.extend_from_slice(&(pad as u32).to_le_bytes());
    r.resize(r.len() + pad, 0x5A);
    r
}

fn val_of(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[8..16].try_into().unwrap())
}

fn seeded(key: u64) -> u64 {
    100 + key
}

/// An empty engine and its one table.
fn new_engine(mode: EngineMode, freeze: bool) -> (Engine, Arc<TableDesc>) {
    let e = Engine::new(EngineConfig {
        mode,
        imrs_budget: 256 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: freeze,
        freeze_min_rows: 2,
        freeze_max_rows: 32,
        ..Default::default()
    });
    let layout = RowLayout::new(&[
        ("k_hi", FieldKind::BeU32),
        ("k_lo", FieldKind::BeU32),
        ("val", FieldKind::U64),
        ("pad", FieldKind::Str),
    ]);
    let table = e
        .create_table(
            TableOpts::new("m", Arc::new(|row: &[u8]| row[..8].to_vec())).with_layout(layout),
        )
        .unwrap();
    (e, table)
}

/// Insert and commit the seeded rows.
fn seed(e: &Engine, table: &TableDesc) -> Vec<RowId> {
    let mut txn = e.begin();
    let rids = (0..ROWS)
        .map(|k| e.insert(&mut txn, table, &mkrow(k, seeded(k))).unwrap())
        .collect();
    e.commit(txn).unwrap();
    rids
}

/// An engine whose seeded rows all live in `home` (`Tombstone` starts
/// as `Page`; the history deletes).
fn setup(home: Home) -> (Engine, Arc<TableDesc>, Vec<RowId>) {
    let mode = match home {
        Home::Imrs => EngineMode::IlmOff,
        Home::Page | Home::Tombstone => EngineMode::PageOnly,
        Home::Frozen => EngineMode::IlmOn,
    };
    let (e, table) = new_engine(mode, home == Home::Frozen);
    let rids = seed(&e, &table);
    if home == Home::Frozen {
        e.run_maintenance();
        while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
        while e.step(Actor::Freeze) > 0 {}
    }
    let at = e.locate(&table, &TARGET.to_be_bytes()).unwrap();
    match home {
        Home::Imrs => assert_eq!(at, Some(RowLocation::Imrs)),
        Home::Page | Home::Tombstone => assert!(matches!(at, Some(RowLocation::Page(..)))),
        Home::Frozen => assert!(matches!(at, Some(RowLocation::Frozen(..)))),
    }
    (e, table, rids)
}

/// A read-write transaction and a snapshot opened at the same instant.
struct Readers {
    txn: Transaction,
    snap: SnapshotTxn,
}

impl Readers {
    fn open(e: &Engine) -> Readers {
        Readers {
            txn: e.begin(),
            snap: e.begin_snapshot(),
        }
    }

    fn close(self, e: &Engine) {
        e.abort(self.txn);
        e.end_snapshot(self.snap);
    }

    /// The `val` of `key` as each key-addressed path reports it:
    /// `[get, get_snapshot, scan_range]`.
    fn by_key(&self, e: &Engine, t: &TableDesc, key: u64) -> [Option<u64>; 3] {
        let k = key.to_be_bytes();
        let hi = (key + 1).to_be_bytes();
        let mut ranged = None;
        e.scan_range(&self.txn, t, &k, Some(&hi), |_, _, row| {
            ranged = Some(val_of(row));
            true
        })
        .unwrap();
        [
            e.get(&self.txn, t, &k).unwrap().map(|r| val_of(&r)),
            e.get_snapshot(&self.snap, t, &k)
                .unwrap()
                .map(|r| val_of(&r)),
            ranged,
        ]
    }

    /// The same through the paths that do not go through an index:
    /// `[analytic_scan, read_row, read_row_snapshot]`.
    fn by_row(&self, e: &Engine, t: &TableDesc, key: u64, rid: RowId) -> [Option<u64>; 3] {
        let spec = ScanSpec {
            filters: vec![("k_lo".into(), key, key)],
            sums: vec!["val".into()],
        };
        let scan = e.analytic_scan(&self.snap, t, &spec).unwrap();
        assert!(scan.rows_matched <= 1, "one row per key: {scan:?}");
        [
            (scan.rows_matched == 1).then(|| scan.sums[0] as u64),
            e.read_row(&self.txn, t, rid, false)
                .unwrap()
                .map(|r| val_of(&r)),
            e.read_row_snapshot(&self.snap, t, rid)
                .unwrap()
                .map(|r| val_of(&r)),
        ]
    }

    /// Every path reports `want`. `reachable_by_key` is false once a
    /// delete has unhooked the key: the key-addressed paths then only
    /// have to agree.
    fn expect(
        &self,
        e: &Engine,
        t: &TableDesc,
        (key, rid): (u64, RowId),
        want: Option<u64>,
        reachable_by_key: bool,
        ctx: &str,
    ) {
        let by_key = self.by_key(e, t, key);
        let by_row = self.by_row(e, t, key, rid);
        assert_eq!(
            by_row, [want; 3],
            "{ctx}: [analytic_scan, read_row, read_row_snapshot]"
        );
        if reachable_by_key {
            assert_eq!(by_key, [want; 3], "{ctx}: [get, get_snapshot, scan_range]");
        } else {
            assert_eq!(by_key, [by_key[0]; 3], "{ctx}: key-addressed paths agree");
        }
    }
}

/// The writer's change on this home: an update to 200, or — on the
/// tombstoned-page home — a delete. Returns what the row then holds.
fn change(e: &Engine, t: &TableDesc, w: &mut Transaction, home: Home, key: u64) -> Option<u64> {
    let k = key.to_be_bytes();
    if home == Home::Tombstone {
        assert!(e.delete(w, t, &k).unwrap());
        None
    } else {
        assert!(e.update(w, t, &k, &mkrow(key, 200)).unwrap());
        Some(200)
    }
}

fn run_cell(home: Home, history: History) {
    let ctx = format!("{home:?} × {history:?}");
    let (e, t, rids) = setup(home);
    let target = (TARGET, rids[TARGET as usize]);
    let old = Some(seeded(TARGET));

    // Readers that began before the writer did anything.
    let early = Readers::open(&e);
    early.expect(&e, &t, target, old, true, &format!("{ctx}: untouched"));

    let mut w = e.begin();
    let (subject, before, after) = match history {
        History::UncommittedInsert => {
            let rid = e.insert(&mut w, &t, &mkrow(FRESH, 900)).unwrap();
            let after = if home == Home::Tombstone {
                // A tombstone over a row nobody ever saw committed.
                assert!(e.delete(&mut w, &t, &FRESH.to_be_bytes()).unwrap());
                None
            } else {
                Some(900)
            };
            ((FRESH, rid), None, after)
        }
        _ => (target, old, change(&e, &t, &mut w, home, TARGET)),
    };
    if home == Home::Tombstone {
        let at = e.locate(&t, &subject.0.to_be_bytes()).unwrap();
        assert_eq!(at, None, "{ctx}: a delete unhooks the key at once");
    }
    let reachable = home != Home::Tombstone;

    // The writer reads its own pending write, through every path that
    // takes a read-write transaction.
    let k = subject.0.to_be_bytes();
    assert_eq!(
        e.get(&w, &t, &k).unwrap().map(|r| val_of(&r)),
        after,
        "{ctx}: writer's get"
    );
    assert_eq!(
        e.read_row(&w, &t, subject.1, false)
            .unwrap()
            .map(|r| val_of(&r)),
        after,
        "{ctx}: writer's read_row"
    );

    // Readers that began while the change was pending.
    let during = Readers::open(&e);
    for (r, when) in [(&early, "began before"), (&during, "began during")] {
        r.expect(
            &e,
            &t,
            subject,
            before,
            reachable,
            &format!("{ctx}: pending, reader {when}"),
        );
    }

    let settled = match history {
        History::Aborted => {
            e.abort(w);
            before
        }
        _ => {
            e.commit(w).unwrap();
            after
        }
    };
    // Whatever the outcome, nobody who began before it sees a change…
    let reachable_now = reachable || matches!(history, History::Aborted);
    for (r, when) in [(&early, "began before"), (&during, "began during")] {
        r.expect(
            &e,
            &t,
            subject,
            before,
            reachable_now,
            &format!("{ctx}: settled, reader {when}"),
        );
    }
    // …and everybody who begins after it sees the outcome.
    let late = Readers::open(&e);
    late.expect(
        &e,
        &t,
        subject,
        settled,
        true,
        &format!("{ctx}: settled, reader began after"),
    );
    // Untouched neighbours never moved.
    let neighbour = (TARGET + 1, rids[TARGET as usize + 1]);
    late.expect(
        &e,
        &t,
        neighbour,
        Some(seeded(TARGET + 1)),
        true,
        &format!("{ctx}: neighbour"),
    );
    for r in [early, during, late] {
        r.close(&e);
    }
}

#[test]
fn every_read_path_reports_the_same_image_in_every_cell() {
    for home in [Home::Imrs, Home::Page, Home::Tombstone, Home::Frozen] {
        for history in [
            History::Uncommitted,
            History::CommittedAfterReaderBegan,
            History::Aborted,
            History::UncommittedInsert,
        ] {
            run_cell(home, history);
        }
    }
}

/// A writer's own pending write wins over *newer committed* history on
/// the same slot: the side store then holds another transaction's
/// before-image stamped after the writer's snapshot, and the writer
/// must still read what it wrote.
#[test]
fn writer_reads_its_own_write_over_history_newer_than_its_snapshot() {
    for home in [Home::Imrs, Home::Page, Home::Frozen] {
        let (e, t, rids) = setup(home);
        let k = TARGET.to_be_bytes();
        let mut w = e.begin();
        // Another transaction commits a change after `w` began.
        let mut c = e.begin();
        assert!(e.update(&mut c, &t, &k, &mkrow(TARGET, 150)).unwrap());
        e.commit(c).unwrap();
        assert_eq!(
            e.get(&w, &t, &k).unwrap().map(|r| val_of(&r)),
            Some(seeded(TARGET)),
            "{home:?}: snapshot-consistent read before writing"
        );
        // update_rmw is the latest-committed primitive: it builds on 150.
        let new = e
            .update_rmw(&mut w, &t, &k, |row| mkrow(TARGET, val_of(row) + 1))
            .unwrap()
            .unwrap();
        assert_eq!(val_of(&new), 151, "{home:?}: rmw sees the latest commit");
        assert_eq!(
            e.get(&w, &t, &k).unwrap().map(|r| val_of(&r)),
            Some(151),
            "{home:?}: get after own write"
        );
        assert_eq!(
            e.read_row(&w, &t, rids[TARGET as usize], false)
                .unwrap()
                .map(|r| val_of(&r)),
            Some(151),
            "{home:?}: read_row after own write"
        );
        e.commit(w).unwrap();
    }
}

/// One committed update of `key` to `row`.
fn commit_update(e: &Engine, t: &TableDesc, key: u64, row: &[u8]) {
    let mut w = e.begin();
    assert!(e.update(&mut w, t, &key.to_be_bytes(), row).unwrap());
    e.commit(w).unwrap();
}

/// A page row's history follows the row through a relocating update:
/// a snapshot older than two committed updates — the first in place,
/// the second too big for the row's page — still reads the original.
/// (With history keyed by address it read the first update's image at
/// the new address: a value from its future.)
///
/// The `IlmOn` arm gets its rows onto pages pinned there (packed under
/// a snapshot older than their insert), and also holds the horizon
/// gate to the relocated row: it neither migrates nor freezes while a
/// snapshot still needs its history.
#[test]
fn history_follows_a_page_row_through_a_relocating_update() {
    for mode in [EngineMode::PageOnly, EngineMode::IlmOn] {
        let ilm = mode == EngineMode::IlmOn;
        let ctx = |what: &str| format!("{mode:?}: {what}");
        let (e, t) = new_engine(mode, ilm);
        // Opened before the rows exist: reads every one as absent.
        let before_seed = Readers::open(&e);
        let rids = seed(&e, &t);
        if ilm {
            e.run_maintenance();
            while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
        }
        let target = (TARGET, rids[TARGET as usize]);
        let k = TARGET.to_be_bytes();
        let home = e.locate(&t, &k).unwrap();
        assert!(matches!(home, Some(RowLocation::Page(..))), "{home:?}");

        let s = Readers::open(&e);
        let old = Some(seeded(TARGET));
        commit_update(&e, &t, TARGET, &mkrow(TARGET, 150));
        assert_eq!(e.locate(&t, &k).unwrap(), home, "{}", ctx("in place"));
        let mid = Readers::open(&e);
        commit_update(&e, &t, TARGET, &mkrow_padded(TARGET, 160, 7_000));
        let moved = e.locate(&t, &k).unwrap();
        assert!(matches!(moved, Some(RowLocation::Page(..))), "{moved:?}");
        assert_ne!(moved, home, "{}", ctx("7 000 bytes cannot fit in place"));

        before_seed.expect(
            &e,
            &t,
            target,
            None,
            true,
            &ctx("reader older than the row"),
        );
        s.expect(
            &e,
            &t,
            target,
            old,
            true,
            &ctx("reader older than both updates"),
        );
        mid.expect(
            &e,
            &t,
            target,
            Some(150),
            true,
            &ctx("reader between the updates"),
        );
        let late = Readers::open(&e);
        late.expect(&e, &t, target, Some(160), true, &ctx("reader after both"));

        if ilm {
            // Only `s` and `mid` still pin history; the reads above were
            // point selects (§IV: cache the row) and every one was gated.
            before_seed.close(&e);
            late.close(&e);
            e.run_maintenance();
            let txn = e.begin();
            assert_eq!(e.get(&txn, &t, &k).unwrap().map(|r| val_of(&r)), Some(160));
            e.abort(txn);
            while e.step(Actor::Freeze) > 0 {}
            assert_eq!(
                e.locate(&t, &k).unwrap(),
                moved,
                "{}",
                ctx("pinned to its page")
            );
            s.expect(&e, &t, target, old, true, &ctx("after the gate held"));
            s.close(&e);
            mid.close(&e);
            // Nobody needs the history any more: the gate opens.
            e.run_maintenance();
            let txn = e.begin();
            assert_eq!(e.get(&txn, &t, &k).unwrap().map(|r| val_of(&r)), Some(160));
            e.abort(txn);
            let at = e.locate(&t, &k).unwrap();
            assert_eq!(
                at,
                Some(RowLocation::Imrs),
                "{}",
                ctx("cached once unpinned")
            );
        } else {
            for r in [before_seed, s, mid, late] {
                r.close(&e);
            }
        }
    }
}

/// A page row's history follows the row through an aborted delete whose
/// slot another transaction took meanwhile: the abort re-homes the row,
/// and a snapshot older than the row's last committed update still
/// reads the original there. (With history keyed by address the new
/// home had none, and the snapshot read the update: its future.)
#[test]
fn history_follows_a_page_row_through_an_aborted_delete_that_lost_its_slot() {
    let (e, t, rids) = setup(Home::Page);
    let target = (TARGET, rids[TARGET as usize]);
    let k = TARGET.to_be_bytes();
    let home = e.locate(&t, &k).unwrap();

    let s = Readers::open(&e);
    commit_update(&e, &t, TARGET, &mkrow(TARGET, 150));
    assert_eq!(e.locate(&t, &k).unwrap(), home, "in place");

    let mut del = e.begin();
    assert!(e.delete(&mut del, &t, &k).unwrap());
    // Same-sized rows: the first of them takes the dead slot.
    let mut other = e.begin();
    let fresh: Vec<RowId> = (FRESH..FRESH + 8)
        .map(|key| e.insert(&mut other, &t, &mkrow(key, 900)).unwrap())
        .collect();
    e.commit(other).unwrap();
    e.abort(del);

    let at = e.locate(&t, &k).unwrap();
    assert!(matches!(at, Some(RowLocation::Page(..))), "{at:?}");
    assert_ne!(at, home, "the recipe must take the row's old slot");
    s.expect(
        &e,
        &t,
        target,
        Some(seeded(TARGET)),
        true,
        "reader older than the update",
    );
    let late = Readers::open(&e);
    late.expect(&e, &t, target, Some(150), true, "reader after the abort");
    late.expect(
        &e,
        &t,
        (FRESH, fresh[0]),
        Some(900),
        true,
        "the slot's new owner",
    );
    for r in [s, late] {
        r.close(&e);
    }
}
