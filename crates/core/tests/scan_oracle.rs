//! HTAP scan-vs-oracle tests: the columnar analytic scan must agree
//! byte-for-byte (sums, match counts, coverage) with a row-at-a-time
//! oracle at every pinned snapshot, no matter how the rows are spread
//! across the IMRS, slotted pages, and frozen columnar extents — and
//! no matter how much freeze/thaw/pack churn happens while snapshots
//! stay pinned.
//!
//! 1. A deterministic walk drives one table through the full freeze
//!    life cycle (IMRS → packed → frozen → thawed by update/delete)
//!    with scans checked at each stage.
//! 2. A property test runs ≥300-step random histories — inserts,
//!    updates, deletes, aborts, pack cycles, freeze ticks — holding up
//!    to four snapshots open, each pinned to a frozen oracle; every
//!    analytic scan of every live snapshot must reproduce the oracle's
//!    aggregates exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use btrim_core::catalog::{FieldKind, RowLayout, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::Actor;
use btrim_core::{Engine, EngineConfig, EngineMode, ScanSpec, SnapshotTxn};

fn layout() -> RowLayout {
    RowLayout::new(&[
        ("k_hi", FieldKind::BeU32),
        ("k_lo", FieldKind::BeU32),
        ("val", FieldKind::U64),
        ("flag", FieldKind::U32),
        ("pad", FieldKind::Str),
    ])
}

fn opts() -> TableOpts {
    TableOpts::new("ht", Arc::new(|row: &[u8]| row[..8].to_vec())).with_layout(layout())
}

fn mkrow(key: u64, val: u64, flag: u32, pad: usize) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r.extend_from_slice(&flag.to_le_bytes());
    r.extend_from_slice(&(pad as u32).to_le_bytes());
    r.extend(std::iter::repeat_n(0x5A, pad));
    r
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 256 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 32,
        ..Default::default()
    })
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Row-at-a-time oracle: evaluate the spec over a model `key → (val,
/// flag)` map exactly as the scan defines it.
fn oracle(model: &BTreeMap<u64, (u64, u32)>, lo: u64, hi: u64) -> (u64, u64, u128, u128) {
    let mut matched = 0u64;
    let mut sum_val = 0u128;
    let mut sum_flag = 0u128;
    for &(val, flag) in model.values() {
        if lo <= val && val <= hi {
            matched += 1;
            sum_val += val as u128;
            sum_flag += flag as u128;
        }
    }
    (model.len() as u64, matched, sum_val, sum_flag)
}

fn spec(lo: u64, hi: u64) -> ScanSpec {
    ScanSpec {
        filters: vec![("val".into(), lo, hi)],
        sums: vec!["val".into(), "flag".into()],
    }
}

fn check_scan(
    engine: &Engine,
    table: &btrim_core::catalog::TableDesc,
    snap: &SnapshotTxn,
    model: &BTreeMap<u64, (u64, u32)>,
    lo: u64,
    hi: u64,
    ctx: &str,
) {
    let got = engine.analytic_scan(snap, table, &spec(lo, hi)).unwrap();
    let (scanned, matched, sum_val, sum_flag) = oracle(model, lo, hi);
    assert_eq!(
        got.sweeps, 1,
        "{ctx}: nothing arrived, yet the scan swept twice"
    );
    assert_eq!(got.rows_scanned, scanned, "{ctx}: rows_scanned");
    assert_eq!(got.rows_matched, matched, "{ctx}: rows_matched");
    assert_eq!(got.sums, vec![sum_val, sum_flag], "{ctx}: sums");
}

// ---------------------------------------------------------------------
// 1. Deterministic freeze life cycle
// ---------------------------------------------------------------------

#[test]
fn scan_tracks_rows_through_freeze_and_thaw() {
    let e = engine();
    e.create_table(opts()).unwrap();
    let table = e.table("ht").unwrap();

    // 64 rows, all hot in the IMRS.
    let mut model: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    let mut txn = e.begin();
    for k in 0..64u64 {
        let (val, flag) = (k * 10, (k % 4) as u32);
        e.insert(&mut txn, &table, &mkrow(k, val, flag, 16))
            .unwrap();
        model.insert(k, (val, flag));
    }
    e.commit(txn).unwrap();
    let s = e.begin_snapshot();
    check_scan(&e, &table, &s, &model, 0, u64::MAX, "imrs only");
    check_scan(&e, &table, &s, &model, 100, 300, "imrs filtered");
    e.end_snapshot(s);

    // Cold: pack everything to pages, then freeze the pages.
    e.run_maintenance();
    while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
    let s = e.begin_snapshot();
    check_scan(&e, &table, &s, &model, 0, u64::MAX, "page resident");
    e.end_snapshot(s);

    // One tick freezes at most one extent per partition; drain fully.
    let mut frozen = 0;
    loop {
        let n = e.step(Actor::Freeze);
        if n == 0 {
            break;
        }
        frozen += n;
    }
    assert!(
        frozen >= 33,
        "expected the cold rows to freeze, got {frozen}"
    );
    let snap_stats = e.snapshot();
    assert!(
        snap_stats.frozen_extents >= 2,
        "freeze_max_rows=32 splits extents"
    );
    assert_eq!(snap_stats.rows_frozen, frozen);
    assert!(
        snap_stats.frozen_encoded_bytes < snap_stats.frozen_raw_bytes,
        "columnar encoding must compress the uniform rows"
    );
    let s = e.begin_snapshot();
    check_scan(&e, &table, &s, &model, 0, u64::MAX, "frozen");
    check_scan(&e, &table, &s, &model, 200, 400, "frozen filtered");
    // Zone-map prune path: no extent holds vals above 630.
    check_scan(&e, &table, &s, &model, 10_000, 20_000, "frozen pruned");
    let res = e.analytic_scan(&s, &table, &spec(0, u64::MAX)).unwrap();
    assert_eq!(res.frozen_rows, frozen, "all rows served columnar");

    // Point reads still work against frozen rows.
    let row = e.get_snapshot(&s, &table, &7u64.to_be_bytes()).unwrap();
    assert_eq!(row, Some(mkrow(7, 70, 3, 16)));
    e.end_snapshot(s);

    // Thaw by update: the row leaves its extent, the scan follows.
    let mut txn = e.begin();
    assert!(e
        .update(
            &mut txn,
            &table,
            &7u64.to_be_bytes(),
            &mkrow(7, 7_000, 1, 16)
        )
        .unwrap());
    e.commit(txn).unwrap();
    model.insert(7, (7_000, 1));
    // Thaw by delete: gone from every tier.
    let mut txn = e.begin();
    assert!(e.delete(&mut txn, &table, &9u64.to_be_bytes()).unwrap());
    e.commit(txn).unwrap();
    model.remove(&9);
    let s = e.begin_snapshot();
    check_scan(&e, &table, &s, &model, 0, u64::MAX, "after thaw");
    check_scan(&e, &table, &s, &model, 7_000, 7_000, "thawed row matched");
    e.end_snapshot(s);
    assert!(e.snapshot().rows_thawed >= 2);

    // A snapshot pinned *before* a freeze keeps reading the same data
    // after the freeze retires the pages under it.
    let pre = e.begin_snapshot();
    let pre_model = model.clone();
    e.run_maintenance();
    while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
    e.step(Actor::Freeze);
    check_scan(
        &e,
        &table,
        &pre,
        &pre_model,
        0,
        u64::MAX,
        "pinned across freeze",
    );
    e.end_snapshot(pre);
}

// ---------------------------------------------------------------------
// 2. Random histories vs. pinned oracles
// ---------------------------------------------------------------------

/// 6 cases, or what `PROPTEST_CASES` asks for (CI: 48).
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    fn analytic_scans_match_pinned_oracles(seed in any::<u64>()) {
        let mut rng = seed | 1;
        let e = engine();
        e.create_table(opts()).unwrap();
        let table = e.table("ht").unwrap();

        type Pinned = (SnapshotTxn, BTreeMap<u64, (u64, u32)>);
        let mut model: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        let mut snaps: Vec<Pinned> = Vec::new();

        for step in 0..330u32 {
            let op = xorshift(&mut rng) % 100;
            let key = xorshift(&mut rng) % 40;
            match op {
                0..=29 => {
                    let key = (0..40)
                        .map(|d| (key + d) % 40)
                        .find(|k| !model.contains_key(k))
                        .unwrap_or(key);
                    let val = xorshift(&mut rng) % 1024;
                    let flag = (xorshift(&mut rng) % 8) as u32;
                    let pad = (xorshift(&mut rng) % 24) as usize;
                    let mut txn = e.begin();
                    match e.insert(&mut txn, &table, &mkrow(key, val, flag, pad)) {
                        Ok(_) => {
                            e.commit(txn).unwrap();
                            model.insert(key, (val, flag));
                        }
                        Err(_) => e.abort(txn),
                    }
                }
                30..=49 => {
                    if let Some((&key, _)) =
                        model.iter().nth(key as usize % model.len().max(1))
                    {
                        let val = xorshift(&mut rng) % 1024;
                        let flag = (xorshift(&mut rng) % 8) as u32;
                        let pad = (xorshift(&mut rng) % 24) as usize;
                        let mut txn = e.begin();
                        prop_assert!(e
                            .update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, val, flag, pad))
                            .unwrap());
                        e.commit(txn).unwrap();
                        model.insert(key, (val, flag));
                    }
                }
                50..=61 => {
                    if let Some((&key, _)) =
                        model.iter().nth(key as usize % model.len().max(1))
                    {
                        let mut txn = e.begin();
                        prop_assert!(e.delete(&mut txn, &table, &key.to_be_bytes()).unwrap());
                        e.commit(txn).unwrap();
                        model.remove(&key);
                    }
                }
                62..=69 => {
                    // Staged work that aborts: invisible to every scan.
                    let mut txn = e.begin();
                    let _ = e.insert(&mut txn, &table, &mkrow(key + 1_000, 7, 0, 8));
                    let _ = e.update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, 999_999, 9, 8));
                    e.abort(txn);
                }
                70..=75 => {
                    if snaps.len() < 4 {
                        snaps.push((e.begin_snapshot(), model.clone()));
                    }
                }
                76..=81 => {
                    if !snaps.is_empty() {
                        let i = (xorshift(&mut rng) as usize) % snaps.len();
                        let (snap, _) = snaps.swap_remove(i);
                        e.end_snapshot(snap);
                    }
                }
                82..=89 => {
                    e.run_maintenance();
                    pack_cycle(&e, PackLevel::Aggressive);
                }
                _ => {
                    // Cold path churn: pack to pages, then freeze the
                    // pages to extents (thaws race it via the update
                    // and delete arms above).
                    e.run_maintenance();
                    pack_cycle(&e, PackLevel::Aggressive);
                    e.step(Actor::Freeze);
                }
            }

            // Every pinned snapshot re-aggregates to its frozen oracle.
            for (snap, frozen) in &snaps {
                let a = xorshift(&mut rng) % 1024;
                let b = xorshift(&mut rng) % 1024;
                let (lo, hi) = (a.min(b), a.max(b));
                let got = e.analytic_scan(snap, &table, &spec(lo, hi)).unwrap();
                let (scanned, matched, sum_val, sum_flag) = oracle(frozen, lo, hi);
                prop_assert_eq!(got.sweeps, 1, "step {}: a quiet engine swept twice", step);
                prop_assert_eq!(got.rows_scanned, scanned, "step {}: rows_scanned", step);
                prop_assert_eq!(got.rows_matched, matched, "step {}: rows_matched", step);
                prop_assert_eq!(got.sums, vec![sum_val, sum_flag], "step {}: sums", step);
            }
        }

        for (snap, _) in snaps.drain(..) {
            e.end_snapshot(snap);
        }
        // Final state: a fresh snapshot agrees with the final model,
        // full-range and filtered.
        let snap = e.begin_snapshot();
        let got = e.analytic_scan(&snap, &table, &spec(0, u64::MAX)).unwrap();
        let (scanned, matched, sum_val, sum_flag) = oracle(&model, 0, u64::MAX);
        prop_assert_eq!(got.rows_scanned, scanned);
        prop_assert_eq!(got.rows_matched, matched);
        prop_assert_eq!(got.sums, vec![sum_val, sum_flag]);
        e.end_snapshot(snap);
        prop_assert_eq!(e.snapshot().txns_active, 0);
    }
}
