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

use common::explorer::{config, Explorer, Step::*, COLD, HOT};
use common::{Power, VolatileLog};

/// `hot` rows 1 and 2 and `cold` row 1, acknowledged and checkpointed;
/// with `packed`, on their pages.
fn stage(mode: EngineMode, packed: bool) -> Explorer {
    let mut ex = Explorer::new(config(mode));
    ex.load(HOT, &[(1, 10), (2, 20)]);
    ex.load(COLD, &[(1, 10)]);
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

/// Whatever heap copy the RID-Map does not name after replay goes. A
/// pack batch flushes syslogs (its `Insert`s) and then sysimrslogs (its
/// `Pack` records); cut between the two, the rows are back in the IMRS
/// and their redone page copies used to stay behind as orphans.
#[test]
fn a_pack_batch_cut_between_its_two_flushes_leaves_no_page_orphan() {
    let mut ex = Explorer::new(config(EngineMode::IlmOn));
    ex.load(HOT, &[(1, 10), (2, 20), (3, 30)]);
    ex.run_all(&[Checkpoint, CutAfterFlushes(1), PackAll]);
    assert!(ex.power.off(), "no flush seen");
    assert!(matches!(ex.home(HOT, 1), Some(RowLocation::Page(..))));
    assert_eq!(ex.reboot(), [3, 0], "page copies retired");
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
