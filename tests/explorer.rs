//! The schedule explorer (`tests/common/explorer.rs`): random schedules
//! from seeds — the general mix, and a freezing one that thaws and
//! dissolves extents — the schedules it pinned, and its determinism.
//!
//! `PROPTEST_CASES=N` runs `N` seeds of each mix (default 8); `RUST_SEED=S` runs
//! the one schedule of seed `S` (CI draws a fresh one per run). A
//! failing seed replays with `RUST_SEED=<seed> cargo test --test
//! explorer randomized_seed_from_env -- --nocapture`.

mod common;

use btrim::{Actor, EngineConfig, EngineMode, RowLocation};
use btrim_wal::LogSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::explorer::{config, explore, Explorer, Profile, Step, Step::*, AUX, COLD, HOT};

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

#[test]
fn random_schedules_hold_the_four_checks() {
    for seed in 0..seeds() {
        println!("seed {seed}");
        explore(seed, PROFILE);
    }
}

#[test]
fn randomized_seed_from_env() {
    let seed = std::env::var("RUST_SEED").ok().and_then(|s| s.parse().ok());
    let seed = seed.unwrap_or(0xE1_7E57);
    println!("explorer seed: RUST_SEED={seed}");
    println!("schedule digest {:016x}", explore(seed, PROFILE));
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
    for seed in [1, 7] {
        assert_eq!(
            explore(seed, PROFILE),
            explore(seed, PROFILE),
            "seed {seed}"
        );
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
    let mut ex = Explorer::new(EngineConfig {
        durable_commits,
        ..config(EngineMode::IlmOn)
    });
    ex.load(HOT, &[(1, 10), (2, 20)]);
    ex.load(COLD, &[(1, 10)]);
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

/// Client B's mixed transaction commits inside the checkpoint's first
/// syslogs sync — after sysimrslogs `CheckpointBegin`, before the image
/// sweep — and the power is cut at each device op of the checkpoint,
/// both halves, in turn. `hot` 2 migrated just before (its arrival goes
/// below the image's floor), `cold` 1 left a dirty page. Every reboot
/// keeps every acknowledged commit, and the second retires nothing.
#[test]
fn a_cut_at_every_device_op_of_a_checkpoint_keeps_what_was_acknowledged() {
    let mut paused = false;
    for k in 0.. {
        let mut ex = stage(false);
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
        ex.reboot();
        if !cut {
            assert!(out.paused, "{out:?}");
            break;
        }
    }
    assert!(paused);
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
    ex.load(HOT, &[(3, 30)]);
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
    ex.load(HOT, &[(1, 10), (2, 20)]);
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
    ex.load(COLD, &[(1, 10), (2, 20), (3, 30), (4, 40)]);
    ex.run(Act(Actor::Freeze));
    assert_eq!(ex.homes(COLD)[2], 4, "frozen");
    ex.run_all(&[Delete(0, COLD, 1), Commit(0)]);
    ex.run_all(&[Insert(0, COLD, 1, 99, 0), Commit(0)]);
    ex.run(Cut);
    ex.reboot();
    assert_eq!(ex.value(COLD, 1), Some(99));
}
