//! HTAP analytic-scan benchmark: columnar frozen extents vs.
//! row-at-a-time evaluation over TPC-C ORDER-LINE.
//!
//! Loads a TPC-C database, packs ORDER-LINE cold and freezes it into
//! columnar extents, then times the same filtered aggregate (the
//! CH-benCHmark delivered-quantity query) two ways:
//!
//! * `analytic_scan` — the engine's snapshot scan, serving frozen rows
//!   straight from the bit-packed `delivery_d` / `quantity` columns
//!   with zone-map pruning;
//! * row-at-a-time — a primary-index range scan decoding every full
//!   ORDER-LINE row and evaluating the same predicate in the client.
//!
//! Also reports the freeze compression ratio (raw row bytes vs.
//! encoded extent bytes) for the acceptance target of ≥2×.

use std::time::Instant;

use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::Actor;
use btrim_core::{Engine, EngineConfig, EngineMode};
use btrim_tpcc::analytics;
use btrim_tpcc::loader::{load, LoadSpec};
use btrim_tpcc::schema::OrderLine;

fn main() {
    let engine = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 16 * 1024 * 1024,
        buffer_frames: 4096,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 32,
        freeze_max_rows: 4096,
        ..Default::default()
    });
    let spec = LoadSpec {
        warehouses: 2,
        items: 1_000,
        customers_per_district: 60,
        orders_per_district: 120,
        seed: 42,
    };
    let tables = load(&engine, &spec).unwrap();

    // Cool ORDER-LINE all the way down: IMRS → pages → frozen extents.
    engine.run_maintenance();
    while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
    loop {
        let mut n = 0;
        for p in &tables.order_line.partitions {
            n += btrim_core::freeze::freeze_partition(&engine, &tables.order_line, p);
        }
        if n == 0 {
            break;
        }
    }
    // Capture compression stats now, while ORDER-LINE is the only
    // frozen table (the later sweep adds opaque extents from tables
    // without declared layouts, which would muddy the ratio).
    let snap_stats = engine.snapshot();
    engine.step(Actor::Freeze); // sweep any other table with cold pages
    println!("# HTAP analytic scan — ORDER-LINE, delivered-quantity aggregate");
    println!(
        "frozen: {} extents, {} rows, {:.1} KiB raw -> {:.1} KiB encoded ({:.2}x compression)",
        snap_stats.frozen_extents,
        snap_stats.rows_frozen,
        snap_stats.frozen_raw_bytes as f64 / 1024.0,
        snap_stats.frozen_encoded_bytes as f64 / 1024.0,
        snap_stats.frozen_raw_bytes as f64 / snap_stats.frozen_encoded_bytes.max(1) as f64
    );

    const ITERS: u32 = 50;
    let snap = engine.begin_snapshot();

    // Columnar: the engine's analytic scan.
    let mut col = Default::default();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        col = analytics::delivered_quantity(&engine, &snap, &tables).unwrap();
    }
    let columnar = t0.elapsed() / ITERS;

    // Row-at-a-time: decode every row, evaluate in the client.
    let txn = engine.begin();
    let mut row_matched = 0u64;
    let mut row_sum = 0u128;
    let mut row_scanned = 0u64;
    let t1 = Instant::now();
    for _ in 0..ITERS {
        row_matched = 0;
        row_sum = 0;
        row_scanned = 0;
        engine
            .scan_range(&txn, &tables.order_line, &[], None, |_k, _rid, row| {
                let ol = OrderLine::decode(row).unwrap();
                row_scanned += 1;
                if ol.delivery_d >= 1 {
                    row_matched += 1;
                    row_sum += ol.quantity as u128;
                }
                true
            })
            .unwrap();
    }
    let row_at_a_time = t1.elapsed() / ITERS;
    engine.commit(txn).unwrap();
    engine.end_snapshot(snap);

    assert_eq!(col.rows_scanned, row_scanned, "coverage diverged");
    assert_eq!(col.rows_matched, row_matched, "match counts diverged");
    assert_eq!(col.sums[0], row_sum, "aggregates diverged");

    println!("path\trows_scanned\trows_frozen_served\tus_per_scan\tspeedup");
    let c_us = columnar.as_secs_f64() * 1e6;
    let r_us = row_at_a_time.as_secs_f64() * 1e6;
    println!(
        "analytic_scan\t{}\t{}\t{c_us:.1}\t1.00",
        col.rows_scanned, col.frozen_rows
    );
    println!(
        "row_at_a_time\t{row_scanned}\t0\t{r_us:.1}\t{:.2}",
        r_us / c_us
    );
}
