//! The schedule explorer (`tests/common/explorer.rs`): random schedules
//! from seeds — the general mix, a freezing one that thaws and
//! dissolves extents, and a faulted one under a device fault plan drawn
//! per seed — the schedules it pinned, the device faults it is run
//! under one at a time, and its determinism.
//!
//! `PROPTEST_CASES=N` runs `N` seeds of each mix (default 8);
//! `RUST_SEED=S` runs the one schedule of seed `S` of the general or
//! the faulted mix (CI draws a fresh one of each per run). A failing
//! seed replays with `RUST_SEED=<seed> cargo test --test explorer
//! randomized_seed_from_env -- --nocapture` (or
//! `randomized_faulted_seed_from_env`, which prints the plan).

mod common;

use btrim::{Actor, BtrimError, EngineConfig, EngineMode, HealthState, RowLocation};
use btrim_faults::{FaultCounters, FaultPlan};
use btrim_wal::{ImrsLogRecord, LogSink, LogWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::explorer::{config, explore, row, Explorer, Profile, Step, Step::*};
use common::explorer::{AUX, COLD, HOT, TABLES};
use common::Power;
use std::sync::atomic::Ordering;

const PROFILE: Profile = Profile {
    steps: 120,
    keys: 12,
    max_pad: 64,
    cuts: true,
    clients: 2,
};

fn seeds() -> u64 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(8)
}

fn env_seed(default: u64) -> u64 {
    let seed = std::env::var("RUST_SEED").ok().and_then(|s| s.parse().ok());
    let seed = seed.unwrap_or(default);
    println!("explorer seed: RUST_SEED={seed}");
    seed
}

#[test]
fn random_schedules_hold_the_four_checks() {
    for seed in 0..seeds() {
        println!("seed {seed}");
        explore(seed, PROFILE, None);
    }
}

#[test]
fn randomized_seed_from_env() {
    let ex = explore(env_seed(0xE1_7E57), PROFILE, None);
    println!("schedule digest {:016x}", ex.digest());
}

/// The device faults of `seed`'s schedule: transient read, write and
/// sync errors under a budget, a torn page write, partial and torn log
/// appends, a log device that dies — each drawn or not.
fn draw_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
    FaultPlan {
        seed,
        read_error_prob: rng.gen_range(0.0..0.05),
        write_error_prob: rng.gen_range(0.0..0.05),
        sync_error_prob: rng.gen_range(0.0..0.02),
        partial_append_prob: rng.gen_range(0.0..0.01),
        error_budget: rng.gen_range(0..30),
        torn_write_at: rng.gen_bool(0.5).then(|| rng.gen_range(0..20)),
        torn_prefix_bytes: rng.gen_range(64..4096),
        fail_appends_after: rng.gen_bool(0.3).then(|| rng.gen_range(0..60)),
        torn_batch_at: rng.gen_bool(0.4).then(|| rng.gen_range(0..30)),
        fail_stop_after_ops: rng.gen_bool(0.5).then(|| rng.gen_range(20..300)),
    }
}

/// A faulted schedule draws no power cut: its plan holds until a reboot,
/// so a cut is the plan's fail-stop (and one inside the recovery after
/// it), and the schedule ends with a reboot.
const FAULTED: Profile = Profile {
    cuts: false,
    ..PROFILE
};

/// The faulted mix's schedule of `seed`, under `plan`.
fn explore_faulted(seed: u64, plan: FaultPlan) -> Explorer {
    let mut ex = explore(seed, FAULTED, Some(plan));
    ex.reboot();
    ex
}

#[test]
fn random_faulted_schedules_hold_the_four_checks() {
    for seed in 0..seeds() {
        println!("seed {seed}");
        explore_faulted(seed, draw_plan(seed));
    }
}

#[test]
fn randomized_faulted_seed_from_env() {
    let seed = env_seed(0xFA_17ED);
    println!("fault plan: {:?}", draw_plan(seed));
    let ex = explore_faulted(seed, draw_plan(seed));
    println!("schedule digest {:016x}", ex.digest());
}

/// The faulted mix under `plan` alone, over four seeds: the four checks
/// hold, and the fault fired on both disk families (odd seeds run on a
/// file).
fn fires_on_both_disk_families(plan: FaultPlan, fired: fn(FaultCounters) -> u64) {
    let mut count = [0; 2];
    for seed in 0..4 {
        let plan = FaultPlan {
            seed,
            ..plan.clone()
        };
        count[seed as usize % 2] += fired(explore_faulted(seed, plan).planned.counters());
    }
    assert!(count.iter().all(|&n| n > 0), "{plan:?}: {count:?} injected");
}

/// Transient read, write and sync errors under a budget: each call is
/// retried or fails with a typed error, and a failed commit comes back
/// whole or not at all.
#[test]
fn transient_disk_errors_are_retried_or_typed() {
    let plan = FaultPlan {
        read_error_prob: 0.05,
        write_error_prob: 0.05,
        sync_error_prob: 0.02,
        error_budget: 40,
        ..FaultPlan::default()
    };
    fires_on_both_disk_families(plan, |n| n.read_errors + n.write_errors + n.sync_errors);
}

/// Log appends that keep a prefix of their bytes and fail: recovery
/// truncates the log at the torn record and keeps what came before it.
#[test]
fn partial_log_appends_truncate_cleanly() {
    let plan = FaultPlan {
        partial_append_prob: 0.1,
        error_budget: 3,
        ..FaultPlan::default()
    };
    fires_on_both_disk_families(plan, |n| n.partial_appends);
}

/// The fourth batch append is torn: its commit is acknowledged whole,
/// refused with a typed error, or unsure until the reboot keeps all of
/// it or none.
#[test]
fn torn_batch_appends_hold_the_three_way_contract() {
    let plan = FaultPlan {
        torn_batch_at: Some(3),
        ..FaultPlan::default()
    };
    fires_on_both_disk_families(plan, |n| n.torn_batches);
}

/// The freezing configuration: one client on an `IlmOn` engine, every
/// few steps a pack and a Freeze step, so rows go to pages and into
/// extents and client writes thaw them back out — extents go mostly dead
/// and dissolve, and emptied ones leave the directory — with power cuts
/// inside any of it. Returns the schedule's digest and the rows the
/// engines dissolved.
fn explore_freezing(seed: u64) -> (u64, u64) {
    // Six keys a table, so an extent of five or more rows — the
    // smallest one with a live row that a dissolve takes — is common.
    let profile = Profile {
        steps: 300,
        keys: 18,
        clients: 1,
        ..PROFILE
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ex = Explorer::new(EngineConfig {
        durable_commits: rng.gen_bool(0.5),
        freeze_min_rows: 5,
        freeze_max_rows: 8,
        ..config(EngineMode::IlmOn)
    });
    let mut dissolved = 0;
    for _ in 0..profile.steps {
        let step = |ex: &Explorer, rng: &mut StdRng| match rng.gen_range(0..20) {
            0..=1 => PackAll,
            2..=3 => Act(Actor::Freeze),
            4 => Checkpoint,
            5..=8 => Commit(0),
            // Writes, mostly: a frozen row leaves its extent by one.
            _ => (0..3)
                .map(|_| ex.draw_client(rng, profile))
                .find(|step| !matches!(step, Get(..)))
                .unwrap_or(Get(0, HOT, 0)),
        };
        let cut = rng.gen_bool(0.05);
        let next = step(&ex, &mut rng);
        if cut {
            ex.run_all(&[CutIn(rng.gen_range(0..40)), next, Cut]);
        } else {
            ex.run(next);
        }
        if ex.power.off() {
            dissolved += ex.engine.snapshot().rows_dissolved;
            ex.reboot();
        }
    }
    (ex.digest(), dissolved + ex.engine.snapshot().rows_dissolved)
}

#[test]
fn random_freezing_schedules_hold_the_four_checks() {
    let dissolved: u64 = (0..seeds())
        .map(|seed| {
            println!("seed {seed}");
            explore_freezing(seed).1
        })
        .sum();
    assert!(dissolved > 0, "no schedule dissolved an extent");
}

#[test]
fn the_same_seed_gives_the_same_schedule() {
    let digest = |seed| explore(seed, PROFILE, None).digest();
    let faulted = |seed| explore_faulted(seed, draw_plan(seed)).digest();
    for seed in [1, 7] {
        assert_eq!(digest(seed), digest(seed), "seed {seed}");
        assert_eq!(faulted(seed), faulted(seed), "seed {seed}");
        assert_eq!(
            explore_freezing(seed),
            explore_freezing(seed),
            "seed {seed}"
        );
    }
}

/// The stage of DESIGN.md "Row movement" item (a): `hot` holds rows 1
/// and 2, `cold` row 1, all of it packed to pages and checkpointed.
fn stage(durable_commits: bool) -> Explorer {
    stage_under(durable_commits, FaultPlan::default())
}

fn stage_under(durable_commits: bool, plan: FaultPlan) -> Explorer {
    let cfg = EngineConfig {
        durable_commits,
        ..config(EngineMode::IlmOn)
    };
    let mut ex = Explorer::with_faults(cfg, plan);
    ex.load(HOT, [(1, 10), (2, 20)]);
    ex.load(COLD, [(1, 10)]);
    ex.run_all(&[PackAll, Checkpoint]);
    assert!(matches!(ex.home(HOT, 1), Some(RowLocation::Page(..))));
    ex
}

/// Client B reads `hot` 1 — a select caches it — and commits read-only,
/// inside the syslogs sync of client A's step; the power is cut as that
/// sync completes. Before the move gate, B's cache appended its
/// sysimrslogs arrival after A had settled that log, and its syslogs
/// `Delete`/`Commit` before A's sync completed: the reboot redid the
/// page delete with nothing behind it, and the row was gone.
fn cache_inside_a_syslogs_sync(durable_commits: bool, a: Vec<Step>) {
    let mut ex = stage(durable_commits);
    let (last, first) = a.split_last().unwrap();
    ex.run_all(first);
    let b = vec![Get(1, HOT, 1), Commit(1)];
    ex.run(CutAfterFlushes(1));
    let out = ex.run(During(Box::new(last.clone()), b));
    assert!(out.paused && ex.power.off(), "{out:?}");
    ex.reboot();
}

#[test]
fn a_page_only_commit_does_not_carry_a_cache_move_it_did_not_settle() {
    let a = vec![Update(0, COLD, 1, 11, 0), Commit(0)];
    cache_inside_a_syslogs_sync(true, a);
}

/// A checkpoint syncs syslogs only when there is something to sync:
/// A's unsynced page change.
#[test]
fn a_checkpoint_does_not_carry_a_cache_move_it_did_not_settle() {
    let a = vec![Update(0, COLD, 1, 11, 0), Commit(0), Checkpoint];
    cache_inside_a_syslogs_sync(false, a);
}

/// A checkpoint's one record pair is on sysimrslogs: it syncs syslogs
/// only for what commits left unsynced there, once.
#[test]
fn a_checkpoint_syncs_syslogs_at_most_once() {
    for durable_commits in [false, true] {
        let mut ex = stage(durable_commits);
        assert_eq!(ex.run(Checkpoint).flushes.1, 0, "idle");
        ex.run_all(&[Update(0, COLD, 1, 11, 0), Commit(0)]);
        let synced = ex.run(Checkpoint).flushes.1;
        assert_eq!(synced, u64::from(!durable_commits), "{durable_commits}");
    }
}

/// Client B's steps inside the first page write of a checkpoint's flush
/// loop, the power cut at each device op from there until the
/// checkpoint completes. The loop writes `cold`'s page and `hot`'s,
/// dirtied by other rows than `hot` 1 and `cold` 1, which redo from the
/// last checkpoint does not touch.
fn inside_a_checkpoints_page_writes(b: &[Step]) {
    for k in 0.. {
        let mut ex = stage(false);
        ex.run_all(&[
            Insert(0, COLD, 2, 20, 0),
            Update(0, HOT, 2, 21, 0),
            Commit(0),
        ]);
        let b = [b, &[CutIn(k)]].concat();
        let out = ex.run(DuringWrite(Box::new(Checkpoint), b));
        assert!(out.paused, "{out:?}");
        let cut = ex.power.off();
        ex.reboot();
        if !cut {
            break;
        }
    }
}

/// B reads `hot` 1, which a select caches. While the loop ran with the
/// move gate open, the cache deleted the row's page slot, the loop wrote
/// that page, and a cut before the checkpoint's closing sync lost both
/// halves of the move: the row was gone.
#[test]
fn a_cache_inside_a_checkpoints_page_writes_keeps_its_row() {
    inside_a_checkpoints_page_writes(&[Get(1, HOT, 1), Commit(1)]);
}

/// Open (DESIGN.md "Restart & checkpointing"): B updates `cold` 1 and
/// does not commit. The loop writes its page with the new image while
/// the update's syslogs record is still volatile; on a device that keeps
/// a write before its sync, a cut then keeps the uncommitted image with
/// no record to undo it. Run with `--ignored`.
#[test]
#[ignore = "open: a page written back can carry a change whose record is volatile"]
fn an_uncommitted_update_written_by_a_checkpoint_does_not_come_back() {
    inside_a_checkpoints_page_writes(&[Update(1, COLD, 1, 12, 0)]);
}

/// An 8-frame `PageOnly` explorer, checks off, where client 0 updated
/// `hot` 3 to 999 in place and has not committed; `between` runs next,
/// then client 1's reads push the row's page out of the cache.
fn an_update_evicted(between: &[Step]) -> Explorer {
    let mut ex = Explorer::new(EngineConfig {
        buffer_frames: 8,
        ..config(EngineMode::PageOnly)
    });
    ex.checked = false;
    let load = (0..120).map(|k| Insert(0, HOT, k, k * 7, 980));
    ex.run_all(load.chain([Commit(0)]));
    ex.run_all([&[Update(0, HOT, 3, 999, 0)], between].concat());
    let written = ex.page_writes();
    ex.run_all((20..120).map(|k| Get(1, HOT, k)));
    assert!(ex.page_writes() > written, "nothing was written back");
    ex
}

/// Open (DESIGN.md "Row movement" (c)): the eviction writes `hot` 3's
/// uncommitted image while the update's syslogs record is still
/// volatile, and a cut keeps the image with no record to undo it.
/// Run with `--ignored`.
#[test]
#[ignore = "open: an evicted page can carry a change whose record is volatile"]
fn an_uncommitted_update_written_by_an_eviction_does_not_come_back() {
    let mut ex = an_update_evicted(&[]);
    ex.checked = true;
    ex.reboot();
    assert_eq!(ex.value(HOT, 3), Some(21));
}

/// Client B's mixed transaction commits inside the checkpoint's first
/// syslogs sync — after sysimrslogs `CheckpointBegin`, before the image
/// sweep — and the power is cut at each device op of the checkpoint,
/// both halves, in turn. `hot` 2 migrated just before (its arrival goes
/// below the image's floor), `cold` 1 left a dirty page. Every reboot
/// keeps every acknowledged commit, and the second retires nothing.
/// Each log keeps `spill` unflushed records at the cut. Returns the
/// `CheckpointBegin`s the cuts left with no `CheckpointEnd`.
fn checkpoint_sweep(spill: u64) -> usize {
    // Pairs the media holds begun and not ended.
    let torn = |ex: &Explorer| {
        let kept = ex.logs.1.reboot(&Power::new(FaultPlan::default()));
        let records = LogWriter::<ImrsLogRecord>::new(kept).read_all().unwrap();
        let begun = (records.iter()).filter(|r| matches!(r.1, ImrsLogRecord::CheckpointBegin(_)));
        let ended = (records.iter()).filter(|r| matches!(r.1, ImrsLogRecord::CheckpointEnd { .. }));
        begun.count() - ended.count()
    };
    let (mut paused, mut torn_pairs) = (false, 0);
    for k in 0.. {
        let mut ex = stage(false);
        ex.logs.0.spilled.store(spill, Ordering::SeqCst);
        ex.logs.1.spilled.store(spill, Ordering::SeqCst);
        ex.run_all(&[
            Update(0, COLD, 1, 11, 0),
            Update(0, HOT, 2, 21, 0),
            Commit(0),
            CutIn(k),
        ]);
        let b = vec![
            Update(1, HOT, 1, 12, 0),
            Insert(1, HOT, 3, 30, 0),
            Commit(1),
        ];
        let out = ex.run(During(Box::new(Checkpoint), b));
        paused |= out.paused;
        let cut = ex.power.off();
        torn_pairs += torn(&ex);
        ex.reboot();
        if !cut {
            assert!(out.paused, "{out:?}");
            break;
        }
    }
    assert!(paused);
    torn_pairs
}

/// The sweep on volatile logs: a cut loses every unflushed record.
#[test]
fn a_cut_at_every_device_op_of_a_checkpoint_keeps_what_was_acknowledged() {
    checkpoint_sweep(0);
}

/// The sweep on logs that keep every append at the cut: some cuts leave
/// a `CheckpointBegin` with no `CheckpointEnd`, and recovery falls back
/// to the stage's complete pair.
#[test]
fn crash_during_checkpoint_holds_acknowledged_state() {
    let torn_pairs = checkpoint_sweep(u64::MAX);
    assert!(torn_pairs > 0, "no cut left a pair begun and not ended");
}

/// A power cut after a checkpoint: the reboot recovers from the log a
/// device holds, its prefix truncated.
#[test]
fn power_cut_after_a_checkpoint_recovers_from_the_truncated_log() {
    for durable_commits in [true, false] {
        let mut ex = stage(durable_commits);
        let steps = [
            Update(0, COLD, 1, 11, 0),
            Update(0, HOT, 2, 21, 0),
            Commit(0),
            Checkpoint,
        ];
        ex.run_all(&steps);
        // No transaction was alive: the checkpoint kept nothing.
        let (kept, appended) = (ex.logs.0.read_all().unwrap(), ex.logs.0.record_count());
        assert!(
            kept.is_empty() && appended > 0,
            "the checkpoint truncated syslogs: {} of {appended} kept",
            kept.len()
        );
        ex.run_all(&[Insert(1, COLD, 5, 50, 0), Commit(1), Cut]);
        ex.reboot();
    }
}

/// An uncommitted delete keeps its page slot: another transaction's
/// insert goes elsewhere and commits, and the power is cut. When the
/// delete freed the slot at once, the insert took it, and recovery —
/// redoing winners only — found the slot still live with the loser's
/// deleted row and dropped the insert.
#[test]
fn an_insert_into_a_slot_an_uncommitted_delete_freed_survives() {
    let mut ex = Explorer::new(config(EngineMode::PageOnly));
    ex.load(HOT, [(3, 30)]);
    ex.run_all(&[Checkpoint, Delete(1, HOT, 3)]);
    ex.run_all(&[Insert(0, HOT, 1, 10, 0), Commit(0), Cut]);
    ex.reboot();
}

/// Client A leaves a page change in syslogs, unsynced; client B's mixed
/// transaction — `hot` 1 is on a page, `hot` 3 goes to the IMRS —
/// commits inside the checkpoint's syslogs sync of it, and the power is
/// cut as that sync completes. B appended its sysimrslogs batch and
/// then its syslogs `Commit`, and the checkpoint's sync made the
/// `Commit` durable while the batch, past the image's snapshot, was
/// still volatile: the reboot redid the page half and lost the IMRS
/// half.
#[test]
fn a_mixed_commit_is_not_torn_by_anothers_syslogs_sync() {
    let mut ex = stage(false);
    ex.run_all(&[Update(0, COLD, 1, 11, 0), Commit(0), CutAfterFlushes(1)]);
    let b = vec![
        Update(1, HOT, 1, 12, 0),
        Insert(1, HOT, 3, 30, 0),
        Commit(1),
    ];
    let out = ex.run(During(Box::new(Checkpoint), b));
    assert!(out.paused && ex.power.off(), "{out:?}");
    ex.reboot();
    let (hot1, hot3) = (ex.value(HOT, 1), ex.value(HOT, 3));
    assert!(
        matches!((hot1, hot3), (Some(12), Some(30)) | (Some(10), None)),
        "hot 1 = {hot1:?}, hot 3 = {hot3:?}"
    );
}

/// A mixed commit, then a batch that copies its images — a pack (`aux`
/// 9 to a page), a freeze (`cold` 1 and 2 to an extent) — and a
/// checkpoint, whose device syncs the power cut follows, one after
/// another. When each batch synced its own logs, one log went before
/// the commit was durable on both: a pack's syslogs, with the commit's
/// `Commit` but not its batch; a freeze's sysimrslogs, its extent before
/// the commit's syslogs records. The copies kept part of the commit
/// after the reboot lost the rest. A pack now syncs nothing: the cut
/// falls in the checkpoint's syncs, which settle sysimrslogs first.
#[test]
fn a_background_batch_does_not_keep_part_of_a_commit() {
    for batch in [PackAll, Act(Actor::Freeze)] {
        for n in 1..=4 {
            let mut ex = Explorer::new(EngineConfig {
                durable_commits: false,
                ..config(EngineMode::IlmOn)
            });
            ex.run_all(&[
                Insert(1, AUX, 9, 90, 0),
                Insert(1, HOT, 3, 30, 0),
                Insert(1, COLD, 1, 10, 0),
                Insert(1, COLD, 2, 20, 0),
                Commit(1),
                CutAfterFlushes(n),
                batch.clone(),
                Checkpoint,
            ]);
            ex.reboot();
        }
    }
}

/// A pack batch moves `hot` 1 and 2 to pages, a select caches 1 back,
/// and an IMRS-only commit's sysimrslogs sync makes the pack's `Pack`
/// records and the cache's arrival durable; the power is cut before any
/// syslogs sync. The pack lost its `Commit`, so both rows stay in the
/// IMRS, and the cache's arrival, which commits it, lands on a row that
/// is already resident: replay must replace it, not add a second copy.
#[test]
fn an_arrival_replaces_the_row_a_lost_pack_left_resident() {
    let mut ex = Explorer::new(config(EngineMode::IlmOn));
    ex.load(HOT, [(1, 10), (2, 20)]);
    ex.run_all(&[Checkpoint, PackAll, Get(1, HOT, 1), Commit(1)]);
    assert_eq!(ex.homes(HOT), [1, 1, 0], "packed, then cached");
    ex.run_all(&[Insert(0, AUX, 1, 10, 0), CutAfterFlushes(1), Commit(0)]);
    assert!(ex.power.off(), "no flush seen");
    ex.reboot();
    assert_eq!(ex.homes(HOT), [2, 0, 0]);
    let copies = ex.engine.snapshot().imrs_rows as u64;
    assert_eq!(copies, ex.homes(AUX)[0] + 2, "one IMRS copy per row");
}

/// A frozen row thawed by its delete, and its key inserted again as a
/// new row on a page: recovery rebuilt the heap first — the new row
/// took the key's index entry — then replayed the extent, whose row
/// took the key back, and the thaw's record, which dropped the frozen
/// row's entry and so left the key with none. The acknowledged insert
/// read back as absent.
#[test]
fn a_key_re_inserted_after_its_frozen_row_was_deleted_survives_a_reboot() {
    let mut ex = Explorer::new(config(EngineMode::IlmOn));
    ex.load(COLD, [(1, 10), (2, 20), (3, 30), (4, 40)]);
    ex.run(Act(Actor::Freeze));
    assert_eq!(ex.homes(COLD)[2], 4, "frozen");
    ex.run_all(&[Delete(0, COLD, 1), Commit(0)]);
    ex.run_all(&[Insert(0, COLD, 1, 99, 0), Commit(0)]);
    ex.run(Cut);
    ex.reboot();
    assert_eq!(ex.value(COLD, 1), Some(99));
}

/// Client 1 commits over `hot` 0 after client 0's snapshot, and client
/// 0's read-modify-write builds on that commit. The IMRS took the image
/// whose secondary entries the write replaces from client 0's snapshot:
/// the entry of client 1's image stayed, naming the row.
#[test]
fn a_read_modify_write_over_a_newer_commit_replaces_its_index_entry() {
    let mut ex = Explorer::new(config(EngineMode::IlmOn));
    ex.load(HOT, [(0, 10)]);
    ex.run_all(&[Begin(0), Update(1, HOT, 0, 20, 0), Commit(1)]);
    ex.run_all(&[Rmw(0, HOT, 0, 1), Commit(0)]);
}

/// The faulted mix's way to the state below: a torn log batch — of a
/// commit, a pack, or a cache of the commit's IMRS row — turns the
/// engine read-only with nothing synced, and a checkpoint settles
/// sysimrslogs before its first append fails, so syslogs never follows.
#[test]
fn a_torn_batch_then_a_checkpoint_keeps_each_commit_whole() {
    for (seed, at) in (0..2).flat_map(|seed| (0..6).map(move |at| (seed, at))) {
        let plan = FaultPlan {
            seed,
            torn_batch_at: Some(at),
            ..FaultPlan::default()
        };
        let cfg = EngineConfig {
            durable_commits: false,
            ..config(EngineMode::IlmOn)
        };
        let mut ex = Explorer::with_faults(cfg, plan);
        ex.run_all(&[
            Insert(0, HOT, 10, 10, 0),
            Insert(0, COLD, 3, 30, 0),
            Commit(0),
        ]);
        ex.run_all(&[PackAll, Get(1, HOT, 10), Commit(1), Insert(0, AUX, 1, 1, 0)]);
        ex.run_all(&[Commit(0), Checkpoint]);
        ex.reboot();
    }
}

/// A commit that is not durable puts `hot` 10 in the IMRS and `cold` 3
/// on a page; a pack moves `hot` 10 to a page, a read caches it back,
/// and the power is cut at each device op of a checkpoint. A cut after
/// the checkpoint's sysimrslogs flush, before its syslogs sync, kept the
/// cache's arrival — which commits the move by itself and carried the
/// commit's image — while the commit's `Commit` was lost: `hot` 10
/// survived, `cold` 3 did not.
#[test]
fn a_cached_image_of_a_lost_commit_does_not_come_back() {
    for k in 0.. {
        let mut ex = Explorer::new(EngineConfig {
            durable_commits: false,
            ..config(EngineMode::IlmOn)
        });
        ex.run_all(&[
            Insert(0, HOT, 10, 10, 0),
            Insert(0, COLD, 3, 30, 0),
            Commit(0),
        ]);
        ex.run_all(&[PackAll, Get(1, HOT, 10), Commit(1), CutIn(k), Checkpoint]);
        let cut = ex.power.off();
        ex.reboot();
        if !cut {
            break;
        }
    }
}

/// The first page a checkpoint writes is torn — the device keeps a
/// prefix of the new image over the old one and reports success — and
/// the power is cut at each device op from there, the write's
/// read-back among them. A torn page that reaches the media is never
/// served: recovery resets it and redoes it from the log. The faulted
/// mix tears its first page write on both disk families.
#[test]
fn torn_page_writes_are_never_served() {
    let torn = FaultPlan {
        torn_write_at: Some(0),
        ..FaultPlan::default()
    };
    fires_on_both_disk_families(torn, |n| n.torn_writes);
    let staged = |plan| {
        let mut ex = stage_under(false, plan);
        ex.run_all(&[
            Insert(0, COLD, 2, 20, 0),
            Update(0, COLD, 1, 11, 0),
            Commit(0),
        ]);
        ex
    };
    let first = staged(FaultPlan::default()).page_writes();
    let mut reset = 0;
    for k in 0.. {
        let mut ex = staged(FaultPlan {
            torn_write_at: Some(first),
            ..FaultPlan::default()
        });
        ex.run_all(&[CutIn(k), Checkpoint]);
        let cut = ex.power.off();
        ex.reboot();
        reset += ex.engine.recovery_report().pages_reset;
        if !cut {
            break;
        }
    }
    assert!(reset > 0, "no torn page reached recovery");
}

/// The log device dies after 20 appends: the engine turns read-only,
/// says so in its health and its snapshot, refuses a write with a typed
/// error and serves reads (the checks after every step); a reboot keeps
/// every acknowledged commit. The faulted mix's log dies after 30
/// appends on both disk families.
#[test]
fn log_device_death_degrades_to_read_only() {
    let dies = FaultPlan {
        fail_appends_after: Some(30),
        ..FaultPlan::default()
    };
    fires_on_both_disk_families(dies, |n| n.dead_appends);
    let plan = FaultPlan {
        fail_appends_after: Some(20),
        ..FaultPlan::default()
    };
    let mut ex = Explorer::with_faults(config(EngineMode::IlmOn), plan);
    ex.load(HOT, (0..20).map(|k| (k, k * 7)));
    ex.load(COLD, (0..20).map(|k| (k, k * 7)));
    assert!(ex.planned.log_dead(), "the log device never died");
    let health = ex.engine.health();
    assert!(matches!(health, HealthState::ReadOnly { .. }), "{health}");
    let json = ex.engine.snapshot().to_json();
    assert!(json.contains("\"health\":\"read-only ("), "{json}");
    let (e, mut txn) = (&ex.engine, ex.engine.begin());
    let err = e.insert(&mut txn, &e.table(TABLES[HOT].0).unwrap(), &row(99, 1, 0));
    assert!(matches!(err, Err(BtrimError::ReadOnly(_))), "{err:?}");
    e.abort(txn);
    ex.reboot();
    assert_eq!(
        ex.value(HOT, 19),
        Some(19 * 7),
        "acknowledged before the death"
    );
}

/// An abort that cannot put a page row's before-image back (its page
/// was evicted from an 8-frame cache, and the power is off) does not
/// pretend it did: the stashed image stays for readers, the engine
/// stops writing, no `Abort` is logged — and the reboot undoes the
/// transaction from the log's own before-image, which client 1's
/// commit made durable before the eviction (a page written back ahead
/// of its record is DESIGN.md "Row movement" (c)).
#[test]
fn abort_whose_undo_fails_keeps_the_before_image_and_stops_writes() {
    let mut ex = an_update_evicted(&[Insert(1, AUX, 0, 0, 0), Commit(1)]);
    let stashed = ex.engine.snapshot().side_store_entries;
    ex.run_all(&[Cut, Abort(0)]);
    let health = ex.engine.health();
    assert!(matches!(health, HealthState::ReadOnly { .. }), "{health}");
    let kept = ex.engine.snapshot().side_store_entries;
    assert_eq!(kept, stashed, "the only copy of the before-image must stay");
    ex.checked = true;
    ex.reboot();
    assert_eq!(ex.value(HOT, 3), Some(21));
}

/// A reboot whose recovery is cut at device op `k`, for each `k` until
/// one finishes, then the reboot after it: recovery re-enters over the
/// media a half-finished one wrote to, and the survivor takes a write
/// and a checkpoint.
#[test]
fn double_crash_during_recovery_is_reenterable() {
    let mut died = 0;
    for k in 0.. {
        let mut ex = stage(true);
        ex.run_all(&[Update(0, COLD, 1, 11, 0), Update(0, HOT, 2, 21, 0)]);
        ex.run_all(&[Insert(0, HOT, 3, 30, 0), Commit(0), PackAll, Cut]);
        let cut = ex.cut_recovery_in(k);
        ex.reboot();
        ex.run_all(&[Update(0, HOT, 1, 12, 0), Commit(0), Checkpoint]);
        if !cut {
            break;
        }
        died += 1;
    }
    assert!(died >= 3, "{died} recoveries died");
}
