//! Recovery wall-clock: serial vs partitioned parallel replay, with
//! and without a mid-run fuzzy checkpoint bounding the redo suffix.
//!
//! The dataset is deliberately larger than the buffer pool (256 frames
//! against tens of thousands of rows packed onto pages), so page redo
//! and the heap rebuild do real eviction work instead of hitting a
//! warm cache. Each cell rebuilds the crashed media from scratch with
//! the identical single-threaded workload, then times `Engine::recover`
//! at 1/4/8 replay workers. Measured on a 2-vCPU host, parallel replay
//! loses: two workers replayed one log 1.7× *slower* than one (3.5 s
//! against 2.0 s). The fuzzy-checkpoint rows replay only the
//! post-low-water suffix (compare `syslog_replayed`).
//!
//! ```sh
//! cargo run --release -p btrim-bench --bin recovery_time
//! ```

use std::sync::Arc;
use std::time::Instant;

use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{Engine, EngineConfig, EngineMode};
use btrim_pagestore::MemDisk;
use btrim_wal::MemLog;

const ROWS: u64 = 60_000;
const UPDATES: u64 = 30_000;
const TXN_CHUNK: u64 = 500;
const PARTS: u32 = 8;

fn mkrow(key: u64, v: u64) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&v.to_be_bytes());
    r.extend_from_slice(&[0x42; 48]);
    r
}

fn opts() -> TableOpts {
    TableOpts {
        name: "restart".into(),
        imrs_enabled: true,
        pinned: false,
        partitioner: Partitioner::HashKey { parts: PARTS },
        primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
        layout: None,
    }
}

fn cfg(workers: usize) -> EngineConfig {
    EngineConfig {
        mode: EngineMode::IlmOn,
        // Small IMRS budget + small buffer pool: most rows live on
        // pages, and the pool holds only a sliver of them.
        imrs_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2, // maintenance driven inline below
        recovery_workers: workers,
        ..Default::default()
    }
}

/// Run the deterministic workload onto fresh devices and crash (drop
/// without shutdown), leaving media for recovery to chew on.
fn build_media(checkpoint: bool) -> (Arc<MemDisk>, Arc<MemLog>, Arc<MemLog>) {
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    let e = Engine::with_devices(cfg(1), disk.clone(), syslog.clone(), imrslog.clone());
    let t = e.create_table(opts()).expect("create table");
    let mut key = 0u64;
    while key < ROWS {
        let mut txn = e.begin();
        for _ in 0..TXN_CHUNK {
            e.insert(&mut txn, &t, &mkrow(key, key.wrapping_mul(0x9E37)))
                .expect("insert");
            key += 1;
        }
        e.commit(txn).expect("commit inserts");
        if key.is_multiple_of(10_000) {
            // Push cold rows onto pages: page-log records to redo and a
            // heap to rebuild.
            e.run_maintenance();
            pack_cycle(&e, PackLevel::Aggressive);
        }
    }
    if checkpoint {
        e.checkpoint().expect("fuzzy checkpoint");
    }
    let mut i = 0u64;
    while i < UPDATES {
        let mut txn = e.begin();
        for _ in 0..TXN_CHUNK {
            let k = (i * 7919) % ROWS;
            e.update(&mut txn, &t, &k.to_be_bytes(), &mkrow(k, i))
                .expect("update");
            i += 1;
        }
        e.commit(txn).expect("commit updates");
    }
    drop(e); // crash: no shutdown, no final checkpoint
    (disk, syslog, imrslog)
}

fn main() {
    println!("# Recovery time — serial vs partitioned parallel replay");
    println!(
        "# {ROWS} rows + {UPDATES} updates over {PARTS} partitions; pool 256 frames (dataset ≫ pool)"
    );
    println!("checkpoint\tworkers\trecover_ms\tanalysis_us\tpage_redo_us\theap_rebuild_us\timrs_replay_us\tsyslog_replayed\timrs_replayed");
    for checkpoint in [false, true] {
        for workers in [1usize, 4, 8] {
            let (disk, syslog, imrslog) = build_media(checkpoint);
            let t0 = Instant::now();
            let e = Engine::recover(cfg(workers), disk, syslog, imrslog, |e| {
                e.create_table(opts()).map(|_| ())
            })
            .expect("recover");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let r = e.recovery_report();
            let variant = if checkpoint { "fuzzy" } else { "none" };
            println!(
                "{}",
                [
                    variant.to_string(),
                    workers.to_string(),
                    format!("{ms:.3}"),
                    r.analysis_micros.to_string(),
                    r.page_redo_micros.to_string(),
                    r.heap_rebuild_micros.to_string(),
                    r.imrs_replay_micros.to_string(),
                    r.syslog_redo_replayed.to_string(),
                    r.imrs_records_replayed.to_string(),
                ]
                .join("\t")
            );
            if let Ok(dir) = std::env::var("BTRIM_JSON_DIR") {
                let path = std::path::Path::new(&dir)
                    .join(format!("recovery_time_{variant}_w{workers}.json"));
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, e.snapshot().to_json()))
                    .expect("write JSON snapshot");
            }
            let _ = e.shutdown();
        }
    }
}
