//! Reader latency vs. writer count under MVCC snapshot reads.
//!
//! Read-mostly TPC-C slice: 4 OrderStatus-style readers (4 customer
//! point reads per snapshot) run against 1/4/8 Payment-style writers
//! (4 customer balance updates per transaction, locks held to commit).
//! Expected shape: snapshot-read p99 stays flat as writers scale —
//! readers touch no locks (EXPERIMENTS.md "MVCC read scaling").
//!
//! ```sh
//! cargo run --release -p btrim-bench --bin mvcc_read_scaling
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use btrim_core::{Engine, EngineConfig, EngineMode};
use btrim_tpcc::loader::{load, LoadSpec};
use btrim_tpcc::schema::Customer;

const WAREHOUSES: u32 = 1;
const DISTRICTS: u32 = 10;
const CUSTOMERS: u32 = 60;
const READERS: usize = 4;
const READS_PER_SNAPSHOT: u32 = 4;
const WRITES_PER_TXN: u32 = 4;
const RUN: Duration = Duration::from_millis(1500);

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1_000.0 // ns → µs
}

struct Cell {
    reads: u64,
    writes: u64,
    p50_us: f64,
    p99_us: f64,
}

fn run_cell(writers: usize) -> Cell {
    let engine = Arc::new(Engine::new(EngineConfig {
        mode: EngineMode::IlmOff,
        imrs_budget: 256 * 1024 * 1024,
        imrs_chunk_size: 2 * 1024 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: 64,
        ..Default::default()
    }));
    let spec = LoadSpec {
        warehouses: WAREHOUSES,
        items: 200,
        customers_per_district: CUSTOMERS,
        orders_per_district: 30,
        seed: 0x5CA1E,
    };
    let tables = Arc::new(load(&engine, &spec).expect("load TPC-C"));

    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let engine = Arc::clone(&engine);
            let tables = Arc::clone(&tables);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (w as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    let d = (xorshift(&mut rng) % DISTRICTS as u64) as u32 + 1;
                    let mut txn = engine.begin();
                    let mut ok = true;
                    for _ in 0..WRITES_PER_TXN {
                        let c = (xorshift(&mut rng) % CUSTOMERS as u64) as u32 + 1;
                        let key = Customer::key(1, d, c);
                        let res = engine.update_rmw(&mut txn, &tables.customer, &key, |row| {
                            let mut cust = Customer::decode(row).expect("decode customer");
                            cust.balance += 1.0;
                            cust.payment_cnt += 1;
                            cust.encode()
                        });
                        if res.is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        engine.abort(txn); // lock conflict: retry fresh
                    } else if engine.commit(txn).is_ok() {
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..READERS)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let tables = Arc::clone(&tables);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ (r as u64 + 1);
                let mut lat_ns: Vec<u64> = Vec::with_capacity(1 << 16);
                while !stop.load(Ordering::Relaxed) {
                    let d = (xorshift(&mut rng) % DISTRICTS as u64) as u32 + 1;
                    let t0 = Instant::now();
                    let snap = engine.begin_snapshot();
                    for _ in 0..READS_PER_SNAPSHOT {
                        let c = (xorshift(&mut rng) % CUSTOMERS as u64) as u32 + 1;
                        let key = Customer::key(1, d, c);
                        let row = engine
                            .get_snapshot(&snap, &tables.customer, &key)
                            .expect("snapshot read")
                            .expect("customer present");
                        debug_assert!(Customer::decode(&row).is_ok());
                    }
                    engine.end_snapshot(snap);
                    lat_ns.push(t0.elapsed().as_nanos() as u64);
                }
                lat_ns
            })
        })
        .collect();

    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    for h in writer_handles {
        h.join().unwrap();
    }
    let mut lat: Vec<u64> = reader_handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    lat.sort_unstable();
    let cell = Cell {
        reads: lat.len() as u64,
        writes: writes.load(Ordering::Relaxed),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    };
    let _ = engine.shutdown();
    cell
}

fn main() {
    println!("# MVCC read scaling — 4 snapshot readers vs 1/4/8 writers");
    println!("# read txn = {READS_PER_SNAPSHOT} customer point reads; write txn = {WRITES_PER_TXN} balance updates");
    println!("read_path\twriters\treader_p50_us\treader_p99_us\tread_txns\twrite_txns");
    for writers in [1usize, 4, 8] {
        let cell = run_cell(writers);
        let (p50, p99) = (cell.p50_us, cell.p99_us);
        println!(
            "mvcc\t{writers}\t{p50:.3}\t{p99:.3}\t{}\t{}",
            cell.reads, cell.writes
        );
    }
}
