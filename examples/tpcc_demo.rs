//! TPC-C on BTrim: load a small database, run the standard mix, and
//! print the workload profile the ILM heuristics see (the paper's
//! Table 1) plus engine statistics.
//!
//! ```sh
//! cargo run --release --example tpcc_demo
//! ```

use std::sync::Arc;

use btrim::tpcc::driver::Driver;
use btrim::tpcc::loader::{load, LoadSpec};
use btrim::tpcc::profile;
use btrim::{Engine, EngineConfig, EngineMode};

fn main() -> btrim::Result<()> {
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 24 * 1024 * 1024,
        imrs_chunk_size: 2 * 1024 * 1024,
        buffer_frames: 4096,
        ..Default::default()
    }));
    let spec = LoadSpec {
        warehouses: 2,
        items: 500,
        customers_per_district: 60,
        orders_per_district: 60,
        seed: 42,
    };
    println!("loading TPC-C at {} warehouses…", spec.warehouses);
    let tables = Arc::new(load(&engine, &spec)?);
    let driver = Driver::new(Arc::clone(&engine), tables, &spec);

    println!("running 5,000 transactions of the standard mix…");
    let stats = driver.run(5_000, 2, 7);
    println!(
        "committed {} ({:.0} TPM), user aborts {}, engine aborts {}",
        stats.total_committed(),
        stats.tpm(),
        stats.user_aborts.iter().sum::<u64>(),
        stats.engine_aborts.iter().sum::<u64>(),
    );
    println!(
        "per type (NewOrder/Payment/OrderStatus/Delivery/StockLevel): {:?}",
        stats.committed
    );
    println!("latency: {}", stats.latency_line());

    println!("\nworkload profile (paper's Table 1):");
    print!("{}", profile::render(&profile::table_profiles(&engine)));

    // Engine statistics: per-table footprints, per-class latency
    // summaries and the recent ILM decision trace.
    println!("\nengine snapshot (JSON):");
    println!("{}", engine.snapshot().to_json());
    Ok(())
}
