//! Row movement × crash, every direction at every device op:
//! configurations of the schedule explorer (`tests/common/explorer.rs`).
//!
//! Cache, migrate, pack, freeze and thaw all run through one path
//! (`movement::relocate`), so one grid covers them. Each direction runs
//! once fault-free to learn how many device operations it takes, then
//! once per offset `k in 0..=n` with the power cut `k` operations in;
//! the explorer reboots and holds the survivor to one row, one home,
//! one image, and the same move then runs again to completion. Four
//! companions pin bugs the movement paths had.

mod common;

use btrim::pack::{pack_partition, PackLevel};
use btrim::{Actor, EngineConfig, EngineMode};
use btrim_faults::FaultPlan;

use common::explorer::{config, Explorer, Step, Step::*, AUX, COLD, HOT, TABLES};

const ROWS: u64 = 6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    Cache,
    Migrate,
    Pack,
    Freeze,
    Thaw,
}

use Direction::*;

/// `ROWS` acknowledged rows of `hot` on the tier `dir` moves them out of.
fn prepared(mut ex: Explorer, dir: Direction) -> Explorer {
    ex.load(HOT, (0..ROWS).map(|k| (k, k * 7)));
    ex.run(Act(Actor::Gc)); // GC feeds the ILM queues pack reads
    if dir != Pack {
        // A pack batch flushes nothing: the next syslogs sync, a
        // page-only commit's, makes the rows durable on their pages.
        // The grid's reboots replay that batch from the log.
        ex.run_all(&[PackAll, Insert(0, COLD, 10_000, 0, 0), Commit(0)]);
    }
    if dir == Thaw {
        ex.run(Act(Actor::Freeze));
        assert_eq!(ex.homes(HOT)[2], ROWS, "frozen");
    }
    ex
}

fn ilm_on() -> Explorer {
    Explorer::new(config(EngineMode::IlmOn))
}

/// The move. Migrate and thaw ride on a transaction adding `bump`.
fn the_move(dir: Direction, bump: u64) -> Vec<Step> {
    let each = |step: &dyn Fn(u64) -> Step| (0..ROWS).map(step).chain([Commit(0)]).collect();
    match dir {
        Pack => vec![PackAll],
        Freeze => vec![Act(Actor::Freeze)],
        Cache => each(&|k| Get(0, HOT, k)),
        Migrate | Thaw => each(&|k| Update(0, HOT, k, k * 7 + bump, 0)),
    }
}

/// Run `dir` with the power cut `cut_in` device ops into the move
/// (`None`: fault-free), reboot, and run it again. Returns the ops the
/// move took and whether the power went off inside it.
fn run_case(dir: Direction, cut_in: Option<u64>) -> (u64, bool) {
    let mut ex = prepared(ilm_on(), dir);
    let before = ex.power.faults.ops();
    ex.run_all(cut_in.map(CutIn).into_iter().chain(the_move(dir, 1_000)));
    let (ops, crashed) = (ex.power.faults.ops() - before, ex.power.off());
    ex.reboot();
    // A transaction is atomic: all rows moved on, or none.
    let bumped = (0..ROWS)
        .filter(|&k| ex.value(HOT, k) != Some(k * 7))
        .count() as u64;
    assert!(
        bumped == 0 || bumped == ROWS,
        "{dir:?} at {cut_in:?}: {bumped} bumped"
    );
    ex.run_all(the_move(dir, 5));
    let [imrs, page, frozen] = ex.homes(HOT);
    let done = match dir {
        Cache | Migrate => imrs == ROWS,
        Pack => page == ROWS,
        Freeze => frozen == ROWS,
        Thaw => frozen == 0,
    };
    assert!(
        done,
        "{dir:?} at {cut_in:?}: the rerun left {:?}",
        [imrs, page, frozen]
    );
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
            "{dir:?}: {mid_move} of {n} cuts fell inside"
        );
    }
}

/// The parent of `relocate` inserted pack's page copy, then returned
/// the append error without removing it: an orphan on a page. Sweep the
/// log's death over every append of a pack batch; a filler table wider
/// than the buffer cache, read back, writes every dirty page back.
#[test]
fn pack_does_not_leak_its_staged_copy_when_the_log_dies() {
    let run = |fail_appends_after: Option<u64>| {
        let plan = FaultPlan {
            fail_appends_after,
            ..FaultPlan::default()
        };
        let mut ex = prepared(Explorer::with_faults(config(EngineMode::IlmOn), plan), Pack);
        ex.checked = false;
        ex.run_all((0..640).map(|k| Insert(0, COLD, 100 + k, k, 980)));
        ex.run(Commit(0));
        // The death trigger counts append calls, a batch as one.
        let appends = |ex: &Explorer| ex.logs.0.appends() + ex.logs.1.appends();
        let before = appends(&ex);
        ex.checked = true;
        ex.run(PackAll);
        let after = appends(&ex);
        ex.checked = false;
        ex.run_all((0..640).map(|k| Get(0, COLD, 100 + k)));
        ex.run(Commit(0));
        let died = ex.power.faults.log_dead();
        ex.checked = true;
        ex.reboot();
        (before, after, died)
    };
    let (before, after, died) = run(None);
    assert!(!died && after > before);
    for die_after in before..after {
        assert!(run(Some(die_after)).2, "the log outlived the pack batch");
    }
}

/// Each log takes a move's share of its records in one append: syslogs
/// the `Begin` and row records as one batch, then the `Commit`;
/// sysimrslogs one batch. A 64-row pack batch, a freeze batch and a
/// migration each take two syslogs appends and one sysimrslogs append.
#[test]
fn a_move_appends_each_log_once_before_its_commit() {
    let appends = |ex: &Explorer| (ex.logs.0.appends(), ex.logs.1.appends());
    let across = |ex: &mut Explorer, steps: &[Step]| {
        let before = appends(ex);
        ex.run_all(steps);
        let after = appends(ex);
        (after.0 - before.0, after.1 - before.1)
    };
    let mut ex = ilm_on();
    ex.load(HOT, (0..64).map(|k| (k, k * 7)));
    ex.run(Act(Actor::Gc));
    let before = appends(&ex);
    let hot = ex.engine.table(TABLES[HOT].0).unwrap();
    let part = &hot.partitions[0];
    pack_partition(&ex.engine, part, 1 << 30, PackLevel::Aggressive);
    let after = appends(&ex);
    let pack = (after.0 - before.0, after.1 - before.1);
    assert_eq!(pack, (2, 1), "a 64-row pack batch");
    assert_eq!(ex.homes(HOT), [0, 64, 0]);

    let mut ex = prepared(ilm_on(), Freeze);
    assert_eq!(
        across(&mut ex, &the_move(Freeze, 0)),
        (2, 1),
        "a freeze batch"
    );
    assert_eq!(ex.homes(HOT), [0, 0, ROWS]);

    let mut ex = prepared(ilm_on(), Migrate);
    let migrate = Update(0, HOT, 0, 1, 0);
    assert_eq!(across(&mut ex, &[migrate]), (2, 1), "a migration");
    ex.run(Commit(0));
    assert_eq!(ex.homes(HOT), [1, ROWS - 1, 0]);
}

/// A freeze batch flushes both logs at commit. Cut the power after the
/// first of the two flushes: no acknowledged row may be lost — that
/// needs the extent (sysimrslogs) durable before the verdict and the
/// page deletes (syslogs). A pack batch flushes nothing, so its cut goes
/// inside the barrier that follows it, both ways: after an IMRS-only
/// commit's sysimrslogs sync (its `Pack` records durable, its syslogs
/// records not: the rows stay in the IMRS), and after a page-only
/// commit's sync (both halves durable: the rows are on their pages).
#[test]
fn power_cut_between_the_two_flushes_of_a_batch_loses_no_row() {
    let mut ex = prepared(ilm_on(), Freeze);
    ex.run_all(&[Checkpoint, CutAfterFlushes(1)]);
    ex.run_all(the_move(Freeze, 0));
    assert!(ex.power.off(), "Freeze: no flush seen");
    ex.reboot();
    let imrs_only = (Insert(0, AUX, 0, 0, 0), 1, [ROWS, 0, 0]);
    let page_only = (Insert(0, COLD, 0, 0, 0), 2, [0, ROWS, 0]);
    for (write, flushes, homes) in [imrs_only, page_only] {
        let mut ex = prepared(ilm_on(), Pack);
        ex.run_all(&[Checkpoint, PackAll]);
        ex.run_all(&[write.clone(), CutAfterFlushes(flushes), Commit(0)]);
        assert!(ex.power.off(), "Pack, then {write:?}: no flush seen");
        ex.reboot();
        assert_eq!(ex.homes(HOT), homes, "Pack, then {write:?}");
    }
}

/// A select caches a page row — a foreground move, which never flushes
/// — and a pack batch follows; neither pays a barrier. Cut the power
/// inside the next one, both ways: after its sysimrslogs sync, and after
/// its syslogs sync. Unless every syslogs sync settles the cache's
/// sysimrslogs record and the pack's `Pack` records first, the move's
/// `Delete{old}` and `Commit` become durable alone, and recovery redoes
/// the page delete with nothing left to hold the row.
#[test]
fn a_pack_batch_does_not_outrun_a_cached_rows_arrival_record() {
    for durable_commits in [true, false] {
        // With durable commits the next barrier is an IMRS-only commit's
        // (one sync) or a page-only one's (two); without, a checkpoint's.
        let barriers = match durable_commits {
            true => [
                (vec![Insert(0, AUX, 100, 0, 0), Commit(0)], 1),
                (vec![Insert(0, COLD, 100, 0, 0), Commit(0)], 2),
            ],
            false => [(vec![Checkpoint], 1), (vec![Checkpoint], 2)],
        };
        for (barrier, n) in barriers {
            // Freeze off: row 0 stays on its page until cached.
            let cfg = EngineConfig {
                durable_commits,
                freeze_enabled: false,
                ..config(EngineMode::IlmOn)
            };
            let mut ex = prepared(Explorer::new(cfg), Cache);
            ex.load(AUX, (0..64).map(|k| (k, k)));
            ex.run_all(&[Act(Actor::Gc), Get(0, HOT, 0), Commit(0)]);
            assert_eq!(ex.homes(HOT)[0], 1, "the select cached the row");
            assert_eq!(ex.run(PackAll).flushes, (0, 0), "the pack batch flushed");
            ex.run(CutAfterFlushes(n));
            ex.run_all(&barrier);
            assert!(
                ex.power.off(),
                "durable_commits={durable_commits}, {barrier:?}: no flush seen"
            );
            ex.reboot();
        }
    }
}

/// A thaw appends its departure (`ExtentRowGone`) to sysimrslogs and
/// its arrival and verdict to syslogs, and flushes neither; the settle
/// before the next syslogs sync makes the departure durable first. A
/// cut before that sync completes leaves a departure with no arrival:
/// recovery skips it, since it counts only beside its `Commit`, and the
/// row stays frozen.
#[test]
fn a_thaw_cut_after_its_departure_keeps_its_row() {
    let mut ex = prepared(ilm_on(), Thaw);
    ex.run_all(&[Update(0, HOT, 0, 1, 0), CutAfterFlushes(1), Commit(0)]);
    assert!(ex.power.off(), "no flush seen");
    ex.reboot();
    assert_eq!(ex.homes(HOT), [0, 0, ROWS]);
}

/// Eight rows of `hot` frozen in one extent, seven of them thawed by an
/// update: the extent is left with one live row of eight, and the
/// partition stops freezing (seven of its eight frozen rows left).
fn mostly_dead() -> Explorer {
    let mut ex = ilm_on();
    ex.load(HOT, (0..8).map(|k| (k, k * 7)));
    ex.run(Act(Actor::Gc));
    ex.run_all(&[PackAll, Insert(0, COLD, 10_000, 0, 0), Commit(0)]);
    ex.run(Act(Actor::Freeze));
    assert_eq!(ex.homes(HOT)[2], 8, "frozen");
    let thaw: Vec<Step> = (0..7).map(|k| Update(0, HOT, k, k * 7 + 1, 0)).collect();
    ex.run_all([thaw, vec![Commit(0)]].concat());
    assert_eq!(ex.homes(HOT)[2], 1, "one live row left");
    ex
}

/// The Freeze actor's dissolve, settled by the syslogs sync of the next
/// durable commit, an insert of `cold` `key` (a dissolve is a thaw: it
/// flushes nothing itself).
fn the_dissolve(key: u64) -> Vec<Step> {
    vec![Act(Actor::Freeze), Insert(0, COLD, key, 0, 0), Commit(0)]
}

/// A dissolve thaws the last live row of a mostly-dead extent to a page
/// and the emptied extent leaves the directory. Cut the power at every
/// device op of the dissolve and the commit that settles it: the
/// explorer holds the survivor to one row, one home, one image, and the
/// dissolve, run again, leaves no `hot` row and no `hot` extent.
#[test]
fn a_cut_at_every_device_op_of_a_dissolve_keeps_each_row_one_home() {
    let mut cuts = 0;
    for k in 0.. {
        let mut ex = mostly_dead();
        ex.run_all([[CutIn(k)].as_slice(), &the_dissolve(10_001)].concat());
        let cut = ex.power.off();
        ex.reboot();
        ex.run_all(the_dissolve(10_002));
        assert_eq!(ex.homes(HOT)[2], 0, "cut at {k}: a row stayed frozen");
        // `cold`'s page rows may freeze meanwhile; `hot` has no extent.
        let hot = ex.engine.table(TABLES[HOT].0).unwrap().id;
        (ex.engine.extent_store()).for_each(|e| assert_ne!(e.table(), hot, "cut at {k}"));
        if !cut {
            break;
        }
        cuts += 1;
    }
    assert!(cuts >= 3, "only {cuts} cuts fell inside the dissolve");
}

/// The checkpoint image holds the extent with all eight rows live; the
/// thaws and the dissolve after it empty the extent, which leaves the
/// directory at run time. Recovery installs the image's extent, replays
/// each row's departure over it, and drops it again: it ends replay
/// with no live row.
#[test]
fn recovery_drops_an_imaged_extent_that_was_dissolved_since() {
    let mut ex = ilm_on();
    ex.load(HOT, (0..8).map(|k| (k, k * 7)));
    ex.run(Act(Actor::Gc));
    ex.run_all(&[PackAll, Insert(0, COLD, 10_000, 0, 0), Commit(0)]);
    ex.run_all(&[Act(Actor::Freeze), Checkpoint]);
    let mut ids = Vec::new();
    ex.engine.extent_store().for_each(|e| ids.push(e.id()));
    assert_eq!(ids.len(), 1, "one extent, in the image");
    let thaw: Vec<Step> = (0..7).map(|k| Update(0, HOT, k, k * 7 + 1, 0)).collect();
    ex.run_all([thaw, vec![Commit(0)]].concat());
    ex.run_all(the_dissolve(10_001));
    assert_eq!(ex.engine.snapshot().rows_dissolved, 1);
    assert!(ex.engine.extent_store().get(ids[0]).is_none(), "removed");
    ex.run(Cut);
    ex.reboot();
    assert!(ex.engine.extent_store().get(ids[0]).is_none(), "dropped");
    assert_eq!(ex.homes(HOT)[2], 0);
}

/// A freeze batch cut after its first flush: the `Freeze` on
/// sysimrslogs is durable, its whole syslogs half — `Begin`, page
/// deletes, `Commit` — is not. The rows stay on their pages, and the
/// batch must stay lost: when those rows are deleted and the power is
/// cut again, the next recovery may not install the extent with them
/// live. It did while a `Freeze` won without its `Commit`, its slots
/// retired only because the heap held the rows at the first recovery.
#[test]
fn a_freeze_batch_whose_syslogs_half_was_lost_stays_lost() {
    let mut ex = prepared(ilm_on(), Freeze);
    ex.run_all(&[Checkpoint, CutAfterFlushes(1)]);
    ex.run_all(the_move(Freeze, 0));
    assert!(ex.power.off(), "no flush seen");
    ex.reboot();
    assert_eq!(ex.homes(HOT), [0, ROWS, 0], "the batch was lost");
    let deletes: Vec<Step> = (0..ROWS).map(|k| Delete(0, HOT, k)).collect();
    ex.run_all([deletes, vec![Commit(0), Cut]].concat());
    ex.reboot();
    assert_eq!(ex.homes(HOT), [0, 0, 0], "deleted rows came back");
}

/// A freeze batch with the power cut at each of its device ops: every
/// reboot finds the rows on their pages (the batch lost) or all in one
/// complete extent (the batch won), never a mix, and both occur; the
/// survivor freezes them again.
#[test]
fn crash_during_freeze_leaves_pages_or_a_complete_extent() {
    let (n, _) = run_case(Freeze, None);
    let (mut lost, mut won) = (0, 0);
    for k in 0..=n {
        let mut ex = prepared(ilm_on(), Freeze);
        ex.run_all(&[CutIn(k), Act(Actor::Freeze)]);
        ex.reboot();
        match ex.homes(HOT) {
            [0, ROWS, 0] => lost += 1,
            [0, 0, ROWS] => won += 1,
            homes => panic!("cut at {k}: [imrs, page, frozen] {homes:?}"),
        }
        ex.run(Act(Actor::Freeze));
        assert_eq!(ex.homes(HOT), [0, 0, ROWS], "cut at {k}: refrozen");
    }
    assert!(lost > 0 && won > 0, "{lost} lost, {won} won");
}
