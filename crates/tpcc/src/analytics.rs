//! CH-benCHmark-style analytic queries over the TPC-C schema.
//!
//! Each query is a filtered aggregate evaluated by the engine's
//! snapshot-isolated [`analytic_scan`](Engine::analytic_scan), which
//! merges frozen columnar extents, IMRS deltas, and page-resident rows
//! at one MVCC snapshot — the HTAP read path running concurrently with
//! the OLTP transaction mix.
//!
//! The shapes follow the CH-benCHmark's adaptation of TPC-H queries to
//! live TPC-C tables: delivered-lineitem aggregates over `order_line`
//! (Q1/Q6 family) and a table-wide low-stock count over `stock`
//! (StockLevel generalized from one district to the warehouse).

use btrim_core::{Engine, Result, ScanResult, ScanSpec, SnapshotTxn};

use crate::schema::Tables;

/// Q1 family: volume of delivered order lines — every line with a
/// non-NULL delivery date (`delivery_d >= 1`), summing `quantity`.
pub fn delivered_quantity_spec() -> ScanSpec {
    ScanSpec {
        filters: vec![("delivery_d".into(), 1, u64::MAX)],
        sums: vec!["quantity".into()],
    }
}

/// Q6 family: undelivered lines (`delivery_d = 0`, still in the
/// new-order backlog), summing `quantity` and counting matches.
pub fn pending_quantity_spec() -> ScanSpec {
    ScanSpec {
        filters: vec![("delivery_d".into(), 0, 0)],
        sums: vec!["quantity".into()],
    }
}

/// StockLevel family: items whose stock fell below `threshold`,
/// engine-wide rather than per-district, summing remaining `quantity`.
pub fn low_stock_spec(threshold: u32) -> ScanSpec {
    ScanSpec {
        filters: vec![("quantity".into(), 0, threshold.saturating_sub(1) as u64)],
        sums: vec!["quantity".into()],
    }
}

/// Run the delivered-quantity aggregate at `snap`.
pub fn delivered_quantity(
    engine: &Engine,
    snap: &SnapshotTxn,
    tables: &Tables,
) -> Result<ScanResult> {
    engine.analytic_scan(snap, &tables.order_line, &delivered_quantity_spec())
}

/// Run the pending-quantity aggregate at `snap`.
pub fn pending_quantity(
    engine: &Engine,
    snap: &SnapshotTxn,
    tables: &Tables,
) -> Result<ScanResult> {
    engine.analytic_scan(snap, &tables.order_line, &pending_quantity_spec())
}

/// Run the low-stock aggregate at `snap`.
pub fn low_stock(
    engine: &Engine,
    snap: &SnapshotTxn,
    tables: &Tables,
    threshold: u32,
) -> Result<ScanResult> {
    engine.analytic_scan(snap, &tables.stock, &low_stock_spec(threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load, LoadSpec};
    use crate::schema::OrderLine;
    use btrim_core::freeze::freeze_partition;
    use btrim_core::pack::{pack_cycle, PackLevel};
    use btrim_core::{EngineConfig, EngineMode};

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            mode: EngineMode::IlmOn,
            freeze_enabled: true,
            freeze_min_rows: 16,
            ..EngineConfig::with_mode(EngineMode::IlmOn, 32 * 1024 * 1024)
        })
    }

    /// Row-at-a-time oracle over the primary index: ORDER-LINE rows
    /// scanned, delivered rows, and their summed quantity.
    fn row_decode_delivered(engine: &Engine, tables: &Tables) -> (u64, u64, u128) {
        let txn = engine.begin();
        let (mut scanned, mut delivered_rows, mut delivered) = (0u64, 0u64, 0u128);
        engine
            .scan_range(&txn, &tables.order_line, &[], None, |_k, _rid, row| {
                let ol = OrderLine::decode(row).unwrap();
                scanned += 1;
                if ol.delivery_d >= 1 {
                    delivered += ol.quantity as u128;
                    delivered_rows += 1;
                }
                true
            })
            .unwrap();
        engine.commit(txn).unwrap();
        (scanned, delivered_rows, delivered)
    }

    #[test]
    fn queries_agree_with_row_decode() {
        let engine = small_engine();
        let spec = LoadSpec {
            warehouses: 1,
            items: 200,
            customers_per_district: 20,
            orders_per_district: 30,
            seed: 7,
        };
        let tables = load(&engine, &spec).unwrap();
        let (scanned, delivered_rows, delivered) = row_decode_delivered(&engine, &tables);

        let snap = engine.begin_snapshot();
        let d = delivered_quantity(&engine, &snap, &tables).unwrap();
        assert_eq!(d.rows_matched, delivered_rows);
        assert_eq!(d.sums[0], delivered);
        let p = pending_quantity(&engine, &snap, &tables).unwrap();
        assert_eq!(p.rows_matched, scanned - delivered_rows);
        assert_eq!(d.rows_scanned, scanned);

        // Every loaded stock row has quantity in 10..=100.
        let s = low_stock(&engine, &snap, &tables, 1_000).unwrap();
        assert_eq!(s.rows_matched, s.rows_scanned);
        assert!(s.rows_scanned > 0);
        engine.end_snapshot(snap);

        // Cool ORDER-LINE all the way down (IMRS → pages → frozen
        // extents), after a maintenance pass whose GC lets the loaded
        // rows past the freeze's horizon gate: the scan serves frozen
        // rows from their columns and still agrees with the oracle, and
        // the columns compress the rows at least 2×.
        engine.run_maintenance();
        while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}
        while (tables.order_line.partitions.iter())
            .map(|p| freeze_partition(&engine, &tables.order_line, p))
            .sum::<u64>()
            > 0
        {}
        let stats = engine.snapshot();
        let snap = engine.begin_snapshot();
        let d = delivered_quantity(&engine, &snap, &tables).unwrap();
        engine.end_snapshot(snap);
        assert!(d.frozen_rows > 0, "no row was served frozen");
        let oracle = row_decode_delivered(&engine, &tables);
        assert_eq!((d.rows_scanned, d.rows_matched, d.sums[0]), oracle);
        let ratio = stats.frozen_raw_bytes as f64 / stats.frozen_encoded_bytes as f64;
        assert!(ratio >= 2.0, "freeze compression {ratio:.2}x");
    }
}
