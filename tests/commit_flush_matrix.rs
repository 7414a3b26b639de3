//! Commit × flush × power cut, per transaction shape: configurations of
//! the schedule explorer (`tests/common/explorer.rs`).
//!
//! Under `durable_commits` a transaction waits for one device barrier
//! per log it appended to, and an IMRS-only one appends to sysimrslogs
//! alone. Each shape is held to its (sysimrslogs, syslogs) barrier
//! count; then the power is cut as `commit` returns and the explorer
//! reboots twice and holds the survivors to its model. The shapes that
//! need care have a foreground move (cache, migrate, thaw: they never
//! flush) between the last barrier and the commit, its two halves on
//! two logs.

mod common;

use std::sync::atomic::Ordering;

use btrim::{Actor, EngineMode, RowLocation, TxnId};
use btrim_wal::{Encodable, ImrsLogRecord, LogSink, PageLogRecord};

use common::explorer::{config, Explorer, Step::*, AUX, COLD, HOT};
use common::{Power, VolatileLog};

/// `hot` rows 1 and 2 and `cold` row 1, acknowledged and checkpointed;
/// with `packed`, on their pages.
fn stage(mode: EngineMode, packed: bool) -> Explorer {
    let mut ex = Explorer::new(config(mode));
    ex.load(HOT, [(1, 10), (2, 20)]);
    ex.load(COLD, [(1, 10)]);
    ex.run(Checkpoint);
    if packed {
        ex.run_all(&[PackAll, Checkpoint]);
        assert!(matches!(ex.home(HOT, 1), Some(RowLocation::Page(..))));
    }
    ex
}

/// The shapes a transaction can take, by the logs it appends to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    ImrsInsert,
    ImrsUpdate,
    /// Update of a page row: the prologue migrates it.
    MigratingUpdate,
    /// Update of a row an earlier read-only transaction cached — that
    /// one flushed nothing, so the move is in neither durable prefix.
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

fn run_shape(shape: Shape) {
    use Shape::*;
    let mode = [EngineMode::IlmOn, EngineMode::PageOnly][usize::from(shape == PageOnlyMode)];
    let mut ex = stage(
        mode,
        matches!(shape, MigratingUpdate | UpdateOfCachedRow | ReadOnly),
    );
    if shape == UpdateOfCachedRow {
        let before = ex.flushes();
        ex.run_all(&[Get(1, HOT, 1), Commit(1)]);
        assert_eq!(ex.home(HOT, 1), Some(RowLocation::Imrs), "cached");
        assert_eq!(ex.flushes(), before, "the caching reader flushed");
    }
    let (insert, update) = (Insert(0, HOT, 3, 30, 0), Update(0, HOT, 1, 11, 0));
    let cold = [Insert(0, COLD, 3, 30, 0), Update(0, COLD, 1, 11, 0)];
    let (steps, barriers) = match shape {
        ImrsInsert => (vec![insert], (1, 0)),
        ImrsUpdate | MigratingUpdate | UpdateOfCachedRow => (vec![update], (1, 0)),
        PageOnlyMode => (vec![insert, update], (0, 1)),
        ImrsDisabledTable => (cold.to_vec(), (0, 1)),
        Mixed => (vec![insert, cold[1].clone()], (1, 1)),
        ReadOnly => (vec![Get(0, HOT, 1), Get(0, COLD, 1)], (0, 0)),
        ImrsAbort => (vec![insert, update], (0, 0)),
    };
    // Counted from before `Begin` to after the commit: the DML's own
    // moves (the migration, the reads' caching) never flush.
    let (sys_before, before) = (ex.logs.0.record_count(), ex.flushes());
    ex.run(Begin(0));
    let txn = ex.txn_id(0);
    ex.run_all(&steps);
    ex.run(if shape == ImrsAbort {
        Abort(0)
    } else {
        Commit(0)
    });
    let after = ex.flushes();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        barriers,
        "{shape:?}: (sysimrslogs, syslogs) barriers"
    );
    let mine = ex
        .syslog()
        .into_iter()
        .filter(|(lsn, rec)| lsn.0 > sys_before && rec.txn() == txn);
    assert!(
        barriers.1 > 0 || mine.count() == 0,
        "{shape:?}: syslogs appends"
    );
    if let MigratingUpdate | ReadOnly = shape {
        assert_eq!(ex.home(HOT, 1), Some(RowLocation::Imrs), "{shape:?}: moved");
        assert!(
            ex.logs.0.record_count() > sys_before,
            "{shape:?}: no syslogs half"
        );
    }
    // A move committed by its arrival record, its syslogs half lost with
    // the power: the first reboot finishes the departure, for good.
    ex.run(Cut);
    let moved = u64::from(matches!(shape, MigratingUpdate | UpdateOfCachedRow));
    assert_eq!(ex.reboot(), [moved, 0], "{shape:?}: page copies retired");
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

/// A `BufWriter` spills without being asked: of a migration's three
/// syslogs records (`Begin`, `Delete{old}`, `Commit`) any prefix may be
/// on the media when the IMRS-only commit that depends on it is
/// acknowledged. The arrival record commits the move whichever it is.
#[test]
fn the_arrival_record_commits_a_move_whatever_prefix_of_its_syslogs_half_survives() {
    for kept in 0..=3u64 {
        let mut ex = stage(EngineMode::IlmOn, true);
        let durable = ex.logs.0.record_count();
        assert_eq!(durable, ex.logs.0.durable_records());
        ex.run_all(&[Update(0, HOT, 1, 11, 0), Commit(0)]);
        // The move's half is all syslogs got, and none of it is flushed.
        let tail = ex.syslog().into_iter().filter(|(lsn, _)| lsn.0 > durable);
        let tail: Vec<PageLogRecord> = tail.map(|(_, rec)| rec).collect();
        use PageLogRecord::{Begin as B, Commit as C, Delete as D};
        assert!(
            matches!(tail[..], [B { .. }, D { .. }, C { .. }]),
            "{tail:?}"
        );
        assert_eq!(ex.logs.0.durable_records(), durable);
        ex.logs.0.spilled.store(kept, Ordering::SeqCst);
        ex.run(Cut);
        // With the `Delete` on the media redo empties the slot; without
        // it recovery retires the copy itself, once.
        assert_eq!(
            ex.reboot(),
            [u64::from(kept < 2), 0],
            "{kept} kept: retired"
        );
        assert_eq!(
            ex.home(HOT, 1),
            Some(RowLocation::Imrs),
            "{kept} kept: home"
        );
    }
}

/// A commit that writes only syslogs must not make a foreground move's
/// syslogs half durable alone: its sync settles the move's sysimrslogs
/// record first — unless a barrier there already covered the move, as a
/// checkpoint's does: then it pays no sysimrslogs sync at all.
#[test]
fn a_syslogs_barrier_never_outruns_the_other_half_of_a_move() {
    for label in ["cache", "thaw", "cache, then checkpoint"] {
        let mut ex = stage(EngineMode::IlmOn, true);
        if label == "thaw" {
            // A write that thaws its row leaves it on its page: the
            // transaction's own records are all on syslogs.
            ex.run_all(&[Act(Actor::Freeze), Checkpoint, Update(0, HOT, 1, 11, 0)]);
            assert!(matches!(ex.home(HOT, 2), Some(RowLocation::Frozen(..))));
            assert!(matches!(ex.home(HOT, 1), Some(RowLocation::Page(..))));
        } else {
            // A reader caches a row; a page-only writer commits next.
            let before = ex.flushes();
            ex.run_all(&[Get(1, HOT, 1), Commit(1)]);
            assert_eq!(ex.home(HOT, 1), Some(RowLocation::Imrs));
            assert_eq!(ex.flushes(), before, "{label}: the reader flushed");
            if label == "cache, then checkpoint" {
                ex.run(Checkpoint);
            }
            ex.run(Update(0, COLD, 1, 11, 0));
        }
        let imrs = u64::from(label != "cache, then checkpoint");
        assert_eq!(ex.run(Commit(0)).flushes, (imrs, 1), "{label}: barriers");
        // Both halves of the move are durable: nothing left to retire.
        ex.run(Cut);
        assert_eq!(ex.reboot(), [0, 0], "{label}: page copies retired");
    }
}

/// A pack batch pays no barrier: its `Pack` records ride the next
/// sysimrslogs one, its syslogs records and `Commit` the next syslogs
/// sync, which settles the `Pack` records first. A commit that writes
/// sysimrslogs alone pays that syslogs sync too while the pack's
/// `Commit` is volatile (the next test has why), and only then.
#[test]
fn a_pack_batch_pays_no_barrier_and_the_next_commit_settles_it() {
    let page_only = |v| [Update(0, COLD, 1, v, 0), Commit(0)];
    let imrs_only = |k| [Insert(0, AUX, k, 10, 0), Commit(0)];
    // The commits after the pack, each with the barriers it pays.
    let runs = [
        vec![(page_only(11), (1, 1)), (page_only(12), (0, 1))],
        vec![(imrs_only(1), (1, 1)), (imrs_only(2), (1, 0))],
    ];
    for commits in runs {
        let mut ex = stage(EngineMode::IlmOn, false);
        assert_eq!(ex.run(PackAll).flushes, (0, 0), "the pack batch flushed");
        assert!(matches!(ex.home(HOT, 1), Some(RowLocation::Page(..))));
        for (steps, barriers) in commits {
            let before = ex.flushes();
            ex.run_all(&steps);
            let after = ex.flushes();
            let paid = (after.0 - before.0, after.1 - before.1);
            assert_eq!(paid, barriers, "{steps:?}: (sysimrslogs, syslogs) barriers");
        }
    }
}

/// Whatever heap copy the RID-Map does not name after replay goes. A
/// pack batch flushes nothing, so cut the power inside the barrier
/// that follows it. After an IMRS-only commit's sysimrslogs sync its
/// `Pack` records are durable and none of its syslogs records: the rows
/// are back in the IMRS and no page copy survives. After a page-only
/// commit's sync both halves are durable: the rows are on their pages.
/// And when syslogs spills to the media with no barrier at all, the
/// `Commit` survives without its `Pack` records: the rows are back in
/// the IMRS and their redone page copies are retired, once.
#[test]
fn a_pack_batch_cut_inside_the_next_barrier_leaves_no_page_orphan() {
    let imrs_only = vec![Insert(0, AUX, 1, 10, 0), CutAfterFlushes(1), Commit(0)];
    let page_only = vec![Update(0, COLD, 1, 11, 0), CutAfterFlushes(2), Commit(0)];
    let cases = [
        (imrs_only, false, [3, 0, 0], [0, 0]),
        (page_only, false, [0, 3, 0], [0, 0]),
        (vec![Cut], true, [3, 0, 0], [3, 0]),
    ];
    for (barrier, spilled, homes, retired) in cases {
        let mut ex = Explorer::new(config(EngineMode::IlmOn));
        ex.load(HOT, [(1, 10), (2, 20), (3, 30)]);
        ex.load(COLD, [(1, 10)]);
        ex.run_all(&[Checkpoint, PackAll]);
        assert_eq!(ex.homes(HOT), [0, 3, 0], "packed");
        if spilled {
            ex.logs.0.spilled.store(u64::MAX, Ordering::SeqCst);
        }
        ex.run_all(&barrier);
        assert!(ex.power.off(), "{barrier:?}: no flush seen");
        assert_eq!(ex.reboot(), retired, "{barrier:?}: page copies retired");
        assert_eq!(ex.homes(HOT), homes, "{barrier:?}: homes");
    }
}

/// Pack makes room in the IMRS for the inserts after it, and those
/// commit on sysimrslogs alone. Recovery replays every acknowledged
/// insert against the same budget, so it needs the departures that made
/// room for them: a pack's `Commit` must be durable before a commit
/// that may have used its space is acknowledged.
#[test]
fn imrs_only_inserts_past_the_budget_come_back_with_the_packs_that_made_room() {
    let mut cfg = config(EngineMode::IlmOn);
    cfg.imrs_budget = 128 * 1024;
    let mut ex = Explorer::new(cfg);
    ex.run(Checkpoint);
    for k in 0..384u64 {
        ex.run_all(&[Insert(0, HOT, k, k, 900), Commit(0)]);
        if k % 16 == 15 {
            ex.run(PackAll);
        }
    }
    // More packed rows than the IMRS holds.
    assert!(ex.homes(HOT)[1] * 900 > 128 * 1024, "{:?}", ex.homes(HOT));
    ex.reboot();
    assert_eq!(ex.homes(HOT).iter().sum::<u64>(), 384, "rows after reboot");
    let imrs = ex.engine.snapshot();
    assert!(
        imrs.imrs_chunk_bytes <= imrs.imrs_budget,
        "replay overdrew the IMRS"
    );
}

/// The bound has one window: a cut inside the settling commit's own two
/// syncs, its inserts and the pack's `Pack` records durable, the pack's
/// `Commit` not. That commit was never acknowledged, but its records
/// replay, and so do the rows the pack failed to move: replay overdraws
/// the IMRS budget rather than fail, and pack drains it after boot.
#[test]
fn a_cut_inside_the_commit_that_settles_a_pack_overdraws_the_imrs_rather_than_fail() {
    let mut cfg = config(EngineMode::IlmOn);
    cfg.imrs_budget = 128 * 1024;
    let mut ex = Explorer::new(cfg);
    ex.run(Checkpoint);
    let fill = |from: u64| (from..from + 96).map(|k| Insert(0, HOT, k, k, 900));
    ex.run_all(fill(0).chain([Commit(0), PackAll, Act(Actor::Gc)]));
    ex.run_all(fill(96));
    assert_eq!(ex.homes(HOT), [0, 96, 0], "the first fill packed");
    let used = ex.engine.snapshot().imrs_used_bytes;
    assert!(
        used > 80 * 1024,
        "the second fill sits in the room pack made: {used}"
    );
    ex.run_all(&[CutAfterFlushes(1), Commit(0)]);
    assert!(ex.power.off(), "no flush seen");
    ex.reboot();
    let homes = ex.homes(HOT);
    assert_eq!(homes[0] + homes[1], 192, "{homes:?}");
    let imrs = ex.engine.snapshot();
    assert!(
        imrs.imrs_chunk_bytes > imrs.imrs_budget,
        "replay fit the budget"
    );
    ex.run_all(&[PackAll, Act(Actor::Gc)]);
    assert!(ex.engine.snapshot().imrs_used_bytes <= imrs.imrs_budget);
}

/// A log pair written by the parent of the one-flush commit announces
/// every writing transaction in syslogs, IMRS-only ones included. Those
/// `Begin`/`Commit` pairs are evidence nobody needs: the same database
/// comes back with them as without.
#[test]
fn a_parent_shaped_log_pair_recovers_to_the_same_database() {
    let mut ex = stage(EngineMode::IlmOn, false);
    for (k, v) in [(1u64, 11u64), (2, 21), (1, 12)] {
        ex.run(Update(0, HOT, k, v, 0));
        if v == 21 {
            ex.run(Update(0, COLD, 1, v, 0));
        }
        ex.run(Commit(0));
    }
    ex.run_all(&[Delete(0, HOT, 2), Commit(0), Cut]);
    let (ours, imrs) = (ex.syslog(), ex.logs.1.read_all().unwrap());
    // The parent's syslogs: a `Begin`/`Commit` pair for every user
    // transaction that only sysimrslogs knows, then ours.
    let mut announced: Vec<TxnId> = ours.iter().map(|(_, rec)| rec.txn()).collect();
    let mut parent = vec![];
    for rec in imrs
        .iter()
        .map(|(_, rec)| ImrsLogRecord::decode(rec).unwrap())
    {
        let Some(txn) = rec.txn().filter(|txn| !announced.contains(txn)) else {
            continue;
        };
        announced.push(txn);
        parent.push(PageLogRecord::Begin { txn }.encode());
        let (ts, imrs_batch) = (rec.ts(), false);
        parent.push(
            PageLogRecord::Commit {
                txn,
                ts,
                imrs_batch,
            }
            .encode(),
        );
    }
    // The load's two went below the stage checkpoint's image.
    assert_eq!(parent.len(), 2 * 3, "IMRS-only transactions to announce");
    parent.extend(ours.iter().map(|(_, rec)| rec.encode()));
    ex.reboot();
    let power = Power::new(Default::default());
    let imrs: Vec<Vec<u8>> = imrs.into_iter().map(|(_, rec)| rec).collect();
    ex.logs = (
        VolatileLog::durable(&power, &parent),
        VolatileLog::durable(&power, &imrs),
    );
    ex.reboot();
}
