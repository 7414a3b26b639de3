//! Fig. 8: percentage of cold rows in every 10% band of the ILM queues.
//!
//! Expected shape: for frequently-accessed tables (warehouse, district,
//! stock) every band is similarly hot; for history/order_line the head
//! bands are overwhelmingly cold and coldness drops toward the tail —
//! the queues are "well-behaved" (§VIII.D.5).

use btrim_bench::{build, default_config, f3, run_epochs, TABLES};
use btrim_core::EngineMode;

fn main() {
    // Probe with pack held off but everything else — GC, queue
    // maintenance, TSF learning at the *real* steady threshold —
    // running normally: the queues then hold the full population and
    // the TSF classifies rows in place, which is the state the paper's
    // snapshot captures. (If pack ran, it would have already drained
    // the cold queue heads we want to observe.)
    // Sizing: the learned Ʈ covers `steady × cache-fill` worth of
    // transactions, so the run must write noticeably more than that
    // for any row to age out, while staying under one full cache fill
    // (pack is off, so overflow would divert inserts to the page
    // store). steady = 0.5 and 8 epochs give a run of ≈ 1.6 Ʈ at ≈ 80%
    // of the budget.
    let mut cfg = default_config(EngineMode::IlmOn);
    cfg.pack_enabled = false;
    cfg.steady = 0.50;
    cfg.imrs_budget = 12 * 1024 * 1024;
    cfg.epochs = 8;
    let (engine, driver) = build(&cfg);
    let _records = run_epochs(&driver, &cfg);

    println!("# Fig 8 — % cold rows per queue decile (head → tail)");
    let mut cols = vec!["table".to_string()];
    cols.extend((1..=10).map(|d| format!("d{d}")));
    println!("{}", cols.join("\t"));
    for name in TABLES {
        let Some(table) = engine.table(name) else {
            continue;
        };
        // Average the bands across the table's partitions, weighting
        // equally (partition queues are per-partition in the design).
        let mut acc = [0.0f64; 10];
        let mut n = 0usize;
        for p in &table.partitions {
            let bands = engine.queue_coldness_bands(p, 10);
            if bands.iter().any(|&b| b > 0.0) {
                for (a, b) in acc.iter_mut().zip(bands) {
                    *a += b;
                }
                n += 1;
            }
        }
        if n > 0 {
            for a in acc.iter_mut() {
                *a /= n as f64;
            }
        }
        let mut cells = vec![name.to_string()];
        cells.extend(acc.iter().map(|&v| f3(v)));
        println!("{}", cells.join("\t"));
    }
}
