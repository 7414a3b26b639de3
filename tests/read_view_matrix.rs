//! One visible image per snapshot, whatever the read path and wherever
//! the row lives: configurations of the schedule explorer
//! (`tests/common/explorer.rs`), whose checks read every key through
//! every path — `get` (where it cannot cache), `get_snapshot`,
//! `scan_range`, `analytic_scan`, `read_row`, `read_row_snapshot` and
//! the secondary index — at every held snapshot and transaction.
//!
//! For each home a row can have {IMRS, page, tombstoned page, frozen
//! extent} × each history another transaction can put it through
//! {uncommitted change, change committed after the reader began,
//! aborted change, uncommitted insert}, readers that began before,
//! during and after the change must all read the model's image, and the
//! writer its own pending write. On the tombstoned-page home the change
//! is a delete, which unhooks the key at once (DESIGN.md "Caveat — index
//! visibility"): the key-addressed paths may then miss the row, the
//! RowId-addressed paths and the analytic scan may not.

mod common;

use btrim::{Actor, EngineConfig, EngineMode, RowLocation};

use common::explorer::{config, Explorer, Step::*, HOT};

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

/// A table whose `ROWS` rows (values `100 + key`) all live in `home`
/// (`Tombstone` starts as `Page`; the history deletes).
fn staged(home: Home) -> Explorer {
    let mode = match home {
        Home::Imrs => EngineMode::IlmOff,
        Home::Page | Home::Tombstone => EngineMode::PageOnly,
        Home::Frozen => EngineMode::IlmOn,
    };
    let cfg = EngineConfig {
        freeze_enabled: home == Home::Frozen,
        imrs_budget: 256 * 1024,
        ..config(mode)
    };
    let mut ex = Explorer::new(cfg);
    ex.checked = false;
    ex.run_all((0..ROWS).map(|k| Insert(0, HOT, k, 100 + k, 8)));
    ex.checked = true;
    ex.run(Commit(0));
    if home == Home::Frozen {
        ex.run_all(&[PackAll, Act(Actor::Freeze), Act(Actor::Freeze)]);
    }
    let at = ex.home(HOT, TARGET);
    let placed = match home {
        Home::Imrs => at == Some(RowLocation::Imrs),
        Home::Page | Home::Tombstone => matches!(at, Some(RowLocation::Page(..))),
        Home::Frozen => matches!(at, Some(RowLocation::Frozen(..))),
    };
    assert!(placed, "{home:?}: the target is at {at:?}");
    ex
}

fn run_cell(home: Home, history: History) {
    let mut ex = staged(home);
    // Readers that begin before the writer did anything.
    ex.run_all(&[Snap, Begin(1)]);
    let subject = match history {
        History::UncommittedInsert => {
            ex.run(Insert(0, HOT, FRESH, 900, 8));
            if home == Home::Tombstone {
                // A tombstone over a row nobody ever saw committed.
                ex.run(Delete(0, HOT, FRESH));
            }
            FRESH
        }
        _ if home == Home::Tombstone => {
            ex.run(Delete(0, HOT, TARGET));
            TARGET
        }
        _ => {
            ex.run(Update(0, HOT, TARGET, 200, 8));
            TARGET
        }
    };
    if home == Home::Tombstone {
        let at = ex.home(HOT, subject);
        assert_eq!(
            at, None,
            "{home:?} × {history:?}: a delete unhooks the key at once"
        );
    }
    // The writer reads its own pending write; readers begin meanwhile.
    ex.run_all(&[Get(0, HOT, subject), Snap]);
    ex.run(match history {
        History::Aborted => Abort(0),
        _ => Commit(0),
    });
    ex.run_all(&[Snap, Begin(0), Get(0, HOT, TARGET + 1)]);
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
        let mut ex = staged(home);
        ex.run(Begin(0));
        // Another transaction commits a change after the writer began.
        ex.run_all(&[Update(1, HOT, TARGET, 150, 8), Commit(1)]);
        // Snapshot-consistent before writing; `update_rmw` is the
        // latest-committed primitive: it builds on 150.
        ex.run(Get(0, HOT, TARGET));
        let new = ex.run(Rmw(0, HOT, TARGET, 1)).read;
        assert_eq!(
            new.map(|r| r[8]),
            Some(151),
            "{home:?}: rmw sees the latest commit"
        );
        ex.run_all(&[Get(0, HOT, TARGET), Commit(0)]);
    }
}

/// A page row's history follows the row through a relocating update:
/// a snapshot older than two committed updates — the first in place,
/// the second too big for the row's page — still reads the original.
/// The `IlmOn` arm also holds the horizon gate to the relocated row: it
/// neither caches nor freezes while a snapshot still needs its history.
#[test]
fn history_follows_a_page_row_through_a_relocating_update() {
    for mode in [EngineMode::PageOnly, EngineMode::IlmOn] {
        let ilm = mode == EngineMode::IlmOn;
        let mut ex = Explorer::new(EngineConfig {
            freeze_enabled: ilm,
            ..config(mode)
        });
        // Held before the rows exist: reads every one as absent.
        ex.run(Snap);
        ex.checked = false;
        ex.run_all((0..ROWS).map(|k| Insert(0, HOT, k, 100 + k, 8)));
        ex.checked = true;
        ex.run(Commit(0));
        if ilm {
            ex.run(PackAll);
        }
        let home = ex.home(HOT, TARGET);
        assert!(
            matches!(home, Some(RowLocation::Page(..))),
            "{mode:?}: {home:?}"
        );
        ex.run_all(&[Snap, Update(0, HOT, TARGET, 150, 8), Commit(0)]);
        assert_eq!(ex.home(HOT, TARGET), home, "{mode:?}: in place");
        ex.run_all(&[Snap, Update(0, HOT, TARGET, 160, 7_000), Commit(0), Snap]);
        let moved = ex.home(HOT, TARGET);
        assert!(
            matches!(moved, Some(RowLocation::Page(..))),
            "{mode:?}: {moved:?}"
        );
        assert_ne!(moved, home, "{mode:?}: 7 000 bytes cannot fit in place");
        if ilm {
            // Only the snapshots older than the updates pin history; a
            // point select (§IV: cache the row) and freeze are gated.
            let maintenance = Actor::ALL.map(Act);
            ex.run(Release);
            ex.run_all(&maintenance);
            ex.run_all(&[Get(0, HOT, TARGET), Abort(0), Act(Actor::Freeze)]);
            assert_eq!(ex.home(HOT, TARGET), moved, "{mode:?}: pinned to its page");
            // Nobody needs the history any more: the gate opens.
            ex.run_all(&[Release, Release, Release]);
            ex.run_all(&maintenance);
            ex.run_all(&[Get(0, HOT, TARGET), Abort(0)]);
            let at = ex.home(HOT, TARGET);
            assert_eq!(
                at,
                Some(RowLocation::Imrs),
                "{mode:?}: cached once unpinned"
            );
        }
    }
}

/// A page row's history follows the row through an aborted delete while
/// other transactions insert beside it: the delete keeps the row's slot
/// until it commits (the abort puts the row back in place, and a
/// snapshot older than its last committed update still reads the
/// original there); once a delete commits, the slot is free.
#[test]
fn history_follows_a_page_row_through_an_aborted_delete_that_lost_its_slot() {
    let mut ex = staged(Home::Page);
    let home = ex.home(HOT, TARGET);
    ex.run_all(&[Snap, Update(0, HOT, TARGET, 150, 8), Commit(0)]);
    assert_eq!(ex.home(HOT, TARGET), home, "in place");
    ex.run(Delete(0, HOT, TARGET));
    // Same-sized rows: none of them may take the deleted row's slot.
    ex.run_all((FRESH..FRESH + 8).map(|k| Insert(1, HOT, k, 900, 8)));
    ex.run_all(&[Commit(1), Abort(0)]);
    assert_eq!(
        ex.home(HOT, TARGET),
        home,
        "the slot waited for the verdict"
    );
    ex.run_all(&[Snap, Delete(0, HOT, TARGET), Commit(0)]);
    ex.run_all(&[Insert(1, HOT, FRESH + 8, 900, 8), Commit(1)]);
    let at = ex.home(HOT, FRESH + 8);
    assert_eq!(at, home, "a committed delete frees its slot");
}
