//! Correctness checks the benchmark runs as part of every command.
//!
//! The TPC-C conditions are the ones `tests/tpcc_consistency.rs`
//! asserts, reworked to *collect* violations: a failed check counts
//! into the run's `failed` total and turns `correct` false instead of
//! aborting the process mid-measurement.

use btrim_core::{Engine, Result, RowLocation, ScanResult};
use btrim_tpcc::loader::{LoadSpec, DISTRICTS_PER_WAREHOUSE};
use btrim_tpcc::schema::{
    Customer, District, NewOrder, Order, OrderLine, Stock, Tables, Warehouse,
};

/// Violations found so far, each one line.
#[derive(Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// Record an engine error met while checking.
    pub fn error(&mut self, ctx: &str, e: impl std::fmt::Display) {
        self.0.push(format!("{ctx}: {e}"));
    }

    /// Number of violations.
    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }
}

fn district(
    engine: &Engine,
    t: &Tables,
    txn: &btrim_core::Transaction,
    w: u32,
    d: u32,
) -> Result<Option<District>> {
    match engine.get(txn, &t.district, &District::key(w, d))? {
        Some(row) => District::decode(&row).map(Some),
        None => Ok(None),
    }
}

/// Σ `D_NEXT_O_ID` over every district: load + committed NewOrders.
pub fn next_o_id_sum(engine: &Engine, t: &Tables, spec: &LoadSpec) -> Result<u64> {
    let txn = engine.begin();
    let mut sum = 0u64;
    for w in 1..=spec.warehouses {
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            if let Some(row) = district(engine, t, &txn, w, d)? {
                sum += row.next_o_id as u64;
            }
        }
    }
    engine.commit(txn)?;
    Ok(sum)
}

/// What Σ `D_NEXT_O_ID` is right after the load.
pub fn loaded_next_o_id_sum(spec: &LoadSpec) -> u64 {
    (spec.warehouses * DISTRICTS_PER_WAREHOUSE) as u64 * (spec.orders_per_district as u64 + 1)
}

/// TPC-C consistency conditions 1–4 plus "no customer lost".
pub fn tpcc_consistency(engine: &Engine, t: &Tables, spec: &LoadSpec, out: &mut Failures) {
    if let Err(e) = check_ytd(engine, t, spec, out) {
        out.error("check_ytd", e);
    }
    if let Err(e) = check_orders(engine, t, spec, out) {
        out.error("check_orders", e);
    }
    if let Err(e) = check_customers(engine, t, spec, out) {
        out.error("check_customers", e);
    }
}

/// Condition 1: `W_YTD = Σ D_YTD` per warehouse (as deltas from the
/// loader's priming values).
fn check_ytd(engine: &Engine, t: &Tables, spec: &LoadSpec, out: &mut Failures) -> Result<()> {
    let txn = engine.begin();
    for w in 1..=spec.warehouses {
        let Some(row) = engine.get(&txn, &t.warehouse, &Warehouse::key(w))? else {
            out.check(false, || format!("warehouse {w} missing"));
            continue;
        };
        let w_delta = Warehouse::decode(&row)?.ytd - 300_000.0;
        let mut d_sum = 0.0;
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            match district(engine, t, &txn, w, d)? {
                Some(row) => d_sum += row.ytd - 30_000.0,
                None => out.check(false, || format!("district {w}/{d} missing")),
            }
        }
        out.check((w_delta - d_sum).abs() < 0.01, || {
            format!("warehouse {w}: W_YTD delta {w_delta} != Σ D_YTD deltas {d_sum}")
        });
    }
    engine.commit(txn).map(drop)
}

/// Conditions 2–4: `D_NEXT_O_ID − 1` is the newest order in `orders`
/// and `new_order`, order ids have no gaps, `new_order` ids are a
/// contiguous suffix, and the newest orders have `ol_cnt` lines.
fn check_orders(engine: &Engine, t: &Tables, spec: &LoadSpec, out: &mut Failures) -> Result<()> {
    let txn = engine.begin();
    for w in 1..=spec.warehouses {
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            let Some(dist) = district(engine, t, &txn, w, d)? else {
                continue; // reported by check_ytd
            };
            let mut max_o = 0u32;
            let mut count = 0u32;
            let mut newest: Vec<Order> = Vec::new();
            let mut decode_err = None;
            engine.scan_range(
                &txn,
                &t.orders,
                &Order::key(w, d, 0),
                Some(&Order::key(w, d, u32::MAX)),
                |_, _, row| match Order::decode(row) {
                    Ok(o) => {
                        max_o = max_o.max(o.o_id);
                        count += 1;
                        if newest.len() == 5 {
                            newest.remove(0);
                        }
                        newest.push(o);
                        true
                    }
                    Err(e) => {
                        decode_err = Some(e);
                        false
                    }
                },
            )?;
            if let Some(e) = decode_err {
                return Err(e);
            }
            out.check(dist.next_o_id - 1 == max_o, || {
                format!(
                    "{w}/{d}: next_o_id {} but newest order {max_o}",
                    dist.next_o_id
                )
            });
            out.check(count == max_o, || {
                format!("{w}/{d}: {count} orders but newest id {max_o} (gap)")
            });
            for o in &newest {
                let mut lines = 0u32;
                engine.scan_range(
                    &txn,
                    &t.order_line,
                    &OrderLine::key(w, d, o.o_id, 0),
                    Some(&OrderLine::key(w, d, o.o_id, u32::MAX)),
                    |_, _, _| {
                        lines += 1;
                        true
                    },
                )?;
                out.check(lines == o.ol_cnt, || {
                    format!(
                        "{w}/{d}: order {} has {lines} lines, ol_cnt {}",
                        o.o_id, o.ol_cnt
                    )
                });
            }
            let mut no_ids = Vec::new();
            engine.scan_range(
                &txn,
                &t.new_order,
                &NewOrder::key(w, d, 0),
                Some(&NewOrder::key(w, d, u32::MAX)),
                |_, _, row| {
                    if let Ok(no) = NewOrder::decode(row) {
                        no_ids.push(no.o_id);
                    }
                    true
                },
            )?;
            out.check(no_ids.windows(2).all(|p| p[1] == p[0] + 1), || {
                format!("{w}/{d}: new_order ids not contiguous")
            });
            if let Some(&last) = no_ids.last() {
                out.check(last == max_o, || {
                    format!("{w}/{d}: newest new_order {last} != newest order {max_o}")
                });
            }
        }
    }
    engine.commit(txn).map(drop)
}

/// Every customer is still there with a finite balance.
fn check_customers(engine: &Engine, t: &Tables, spec: &LoadSpec, out: &mut Failures) -> Result<()> {
    let txn = engine.begin();
    let mut seen = 0u32;
    let mut bad = 0u32;
    engine.scan_range(&txn, &t.customer, &[], None, |_, _, row| {
        match Customer::decode(row) {
            Ok(c) if c.balance.is_finite() && c.payment_cnt >= 1 => {}
            _ => bad += 1,
        }
        seen += 1;
        true
    })?;
    let expect = spec.warehouses * DISTRICTS_PER_WAREHOUSE * spec.customers_per_district;
    out.check(seen == expect, || {
        format!("{seen} customers, expected {expect}")
    });
    out.check(bad == 0, || {
        format!("{bad} customers with a broken balance or payment count")
    });
    engine.commit(txn).map(drop)
}

/// One row, one home: a sample of keys from every tier-moving table
/// must each resolve through `Engine::locate` to exactly one live tier
/// and be readable there. Returns how many keys were sampled.
pub fn one_home_per_row(engine: &Engine, t: &Tables, spec: &LoadSpec, out: &mut Failures) -> u64 {
    let mut sampled = 0u64;
    let txn = engine.begin();
    let mut probe = |table: &btrim_core::TableDesc, key: Vec<u8>, what: String| {
        sampled += 1;
        let located = engine.locate(table, &key);
        let read = engine.get(&txn, table, &key);
        match (located, read) {
            (
                Ok(Some(RowLocation::Imrs | RowLocation::Page(..) | RowLocation::Frozen(..))),
                Ok(Some(_)),
            ) => {}
            (loc, read) => out.check(false, || {
                format!(
                    "{what}: locate {loc:?}, read {:?}",
                    read.map(|r| r.map(|b| b.len()))
                )
            }),
        }
    };
    for w in 1..=spec.warehouses {
        for i in (1..=spec.items).step_by(37) {
            probe(&t.stock, Stock::key(w, i), format!("stock {w}/{i}"));
        }
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            probe(
                &t.district,
                District::key(w, d),
                format!("district {w}/{d}"),
            );
            for c in (1..=spec.customers_per_district).step_by(23) {
                probe(
                    &t.customer,
                    Customer::key(w, d, c),
                    format!("customer {w}/{d}/{c}"),
                );
            }
            for o in (1..=spec.orders_per_district).step_by(29) {
                probe(&t.orders, Order::key(w, d, o), format!("order {w}/{d}/{o}"));
                probe(
                    &t.order_line,
                    OrderLine::key(w, d, o, 1),
                    format!("order_line {w}/{d}/{o}/1"),
                );
            }
        }
    }
    if let Err(e) = engine.commit(txn) {
        out.error("one_home_per_row commit", e);
    }
    sampled
}

/// The stock quantity below which `low_stock` counts an item.
pub const LOW_STOCK_THRESHOLD: u32 = 15;

/// Both analytic scans of one HTAP round, at one snapshot.
pub struct ScanPair {
    /// `analytics::delivered_quantity`.
    pub delivered: ScanResult,
    /// `analytics::low_stock`.
    pub low_stock: ScanResult,
}

/// Compare both scans with a row-at-a-time `scan_range` oracle. Only
/// valid while nothing commits between the snapshot and the oracle's
/// own transaction — true here, where one client drives the engine.
pub fn scan_oracle(engine: &Engine, t: &Tables, got: &ScanPair, out: &mut Failures) {
    /// Rows scanned, rows matched, sum of the aggregated column.
    type Totals = (u64, u64, u128);
    let run = || -> Result<(Totals, Totals)> {
        let txn = engine.begin();
        let (mut rows, mut matched, mut sum) = (0u64, 0u64, 0u128);
        engine.scan_range(&txn, &t.order_line, &[], None, |_, _, row| {
            if let Ok(ol) = OrderLine::decode(row) {
                rows += 1;
                if ol.delivery_d >= 1 {
                    matched += 1;
                    sum += ol.quantity as u128;
                }
            }
            true
        })?;
        let (mut s_rows, mut s_matched, mut s_sum) = (0u64, 0u64, 0u128);
        engine.scan_range(&txn, &t.stock, &[], None, |_, _, row| {
            if let Ok(s) = Stock::decode(row) {
                s_rows += 1;
                if s.quantity < LOW_STOCK_THRESHOLD {
                    s_matched += 1;
                    s_sum += s.quantity as u128;
                }
            }
            true
        })?;
        engine.commit(txn)?;
        Ok(((rows, matched, sum), (s_rows, s_matched, s_sum)))
    };
    match run() {
        Err(e) => out.error("scan oracle", e),
        Ok((ol, st)) => {
            let d = &got.delivered;
            out.check(
                (d.rows_scanned, d.rows_matched, d.sums.first().copied())
                    == (ol.0, ol.1, Some(ol.2)),
                || format!("delivered_quantity {d:?} != oracle {ol:?}"),
            );
            let s = &got.low_stock;
            out.check(
                (s.rows_scanned, s.rows_matched, s.sums.first().copied())
                    == (st.0, st.1, Some(st.2)),
                || format!("low_stock {s:?} != oracle {st:?}"),
            );
        }
    }
}
