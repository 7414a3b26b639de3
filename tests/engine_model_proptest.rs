//! The whole engine against the explorer's model
//! (`tests/common/explorer.rs`): random schedules of inserts, updates,
//! read-modify-writes, deletes, commits, aborts, held snapshots, every
//! maintenance actor, pack and checkpoints, from two clients and with
//! steps run inside one another's log flushes — no power cuts. Row
//! lengths are drawn per write (20 B … 3 KB), so page rows update in
//! place, outgrow their page and come back on abort to a page with no
//! room for them; the engine mode is drawn per schedule.

mod common;

use common::explorer::{explore, Profile};

/// 24 schedules, or what `PROPTEST_CASES` asks for.
fn cases() -> u64 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

#[test]
fn engine_matches_committed_model() {
    let profile = Profile {
        steps: 60,
        keys: 40,
        max_pad: 3_000,
        cuts: false,
        clients: 2,
    };
    for seed in 0..cases() {
        explore(seed | 1 << 32, profile, None);
    }
}
