//! Layer probes: each workspace crate's public functions, called
//! directly on a standalone instance and timed from outside.
//!
//! The instances take the workload's parameters — cache frames, IMRS
//! budget and chunk size — and the row images the workload
//! really stores (sampled from the loaded tables), so a probe number is
//! the cost of that layer *as this workload uses it*: the B+tree and
//! heap probes miss in `tpcc_page_spill`'s small cache and hit
//! everywhere else. Probes run after the workload, in the traced run
//! only, and each gets a fixed slice of time; the number reported is
//! the median over batches of nanoseconds per operation.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use btrim_common::{
    LatencyHistogram, LogicalClock, PageId, PartitionId, RowId, ShardedCounter, SlotId, TableId,
    Timestamp, TxnId,
};
use btrim_core::{EngineConfig, Obs, OpClass};
use btrim_imrs::{FragmentAllocator, ImrsStore, RidMap, RowLocation, RowOrigin, VersionOp};
use btrim_index::{BTreeIndex, HashIndex};
use btrim_pagestore::{BufferCache, ColumnData, DiskBackend, FrozenExtent, HeapFile, MemDisk};
use btrim_tpcc::schema::{OrderLine, Stock};
use btrim_txn::{LockManager, LockMode, TxnManager};
use btrim_wal::{Encodable, ImrsLogRecord, PageLogRecord};

use crate::stats::median;
use crate::workload::RowShapes;

/// Named probe results, nanoseconds unless the name says otherwise.
pub type Probes = std::collections::BTreeMap<&'static str, f64>;

/// What the probes need to know about the workload.
pub struct ProbeEnv<'a> {
    /// The workload's engine configuration.
    pub cfg: &'a EngineConfig,
    /// Share of the loaded database's pages the workload's cache holds,
    /// at most 1.
    pub cache_share: f64,
    /// Row images from the loaded tables.
    pub shapes: &'a RowShapes,
    /// Time given to each probe.
    pub slice: Duration,
}

const BATCH: usize = 256;
/// Keys in the index probes: the loaded `order_line` table's size.
const INDEX_KEYS: u32 = 60_000;
/// Rows in the heap probes.
const HEAP_ROWS: usize = 20_000;

/// Time `op` in batches of [`BATCH`] calls for `slice`; median over
/// batches of nanoseconds per call.
fn per_op(slice: Duration, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    batches(slice, BATCH, |_| {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            op(i);
            i = i.wrapping_add(1);
        }
        t0.elapsed().as_nanos() as u64
    })
}

/// For operations that need untimed work between batches: `batch(n)`
/// runs batch `n` of `calls` operations and returns the nanoseconds to
/// charge to it. Median over batches of nanoseconds per operation.
fn batches(slice: Duration, calls: usize, mut batch: impl FnMut(usize) -> u64) -> f64 {
    let deadline = Instant::now() + slice;
    let mut per_call = Vec::new();
    let mut n = 0usize;
    loop {
        per_call.push(batch(n) as f64 / calls as f64);
        n += 1;
        if n >= 3 && Instant::now() >= deadline {
            return median(&per_call);
        }
    }
}

fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

fn index_key(i: u32) -> [u8; 16] {
    // (w, d, o, ol) big-endian, the order_line key shape.
    let mut k = [0u8; 16];
    k[..4].copy_from_slice(&(1 + i / 30_000).to_be_bytes());
    k[4..8].copy_from_slice(&(1 + (i / 3_000) % 10).to_be_bytes());
    k[8..12].copy_from_slice(&(1 + (i / 10) % 300).to_be_bytes());
    k[12..].copy_from_slice(&(1 + i % 10).to_be_bytes());
    k
}

/// A pseudo-random walk over `0..n` that visits every residue.
fn stride(i: usize, n: usize) -> usize {
    (i.wrapping_mul(7_919)) % n
}

fn probe_disk() -> Arc<dyn DiskBackend> {
    Arc::new(MemDisk::new())
}

/// A cache over `pages` probe pages that holds the share of them the
/// workload's cache holds of its database.
fn shrink_to_share(cache: &BufferCache, env: &ProbeEnv<'_>) {
    let pages = cache.backend().num_pages() as f64;
    let frames = ((pages * env.cache_share).ceil() as usize).max(8);
    if frames < cache.capacity() {
        cache.set_capacity(frames);
    }
}

/// Run every probe.
pub fn run(env: &ProbeEnv<'_>) -> Result<Probes, String> {
    let mut out = Probes::new();
    let e = |what: &str, err: btrim_common::BtrimError| format!("probe {what}: {err}");
    let slice = env.slice;
    let stock_row: &[u8] = &env.shapes.stock;
    let part = PartitionId(0);

    // ---- imrs ------------------------------------------------------
    {
        let ridmap = RidMap::new();
        let rows: Vec<RowId> = (0..65_536u32)
            .map(|i| {
                let r = ridmap.allocate_row_id();
                ridmap.set(r, RowLocation::Page(PageId(i), SlotId(1)));
                r
            })
            .collect();
        out.insert(
            "imrs.ridmap_get_ns",
            per_op(slice, |i| {
                black_box(ridmap.get(rows[stride(i, rows.len())]));
            }),
        );
        let (a, b) = (
            RowLocation::Page(PageId(7), SlotId(1)),
            RowLocation::Page(PageId(7), SlotId(2)),
        );
        ridmap.set(rows[0], a);
        out.insert(
            "imrs.ridmap_cas_ns",
            per_op(slice, |i| {
                let (from, to) = if i % 2 == 0 { (a, b) } else { (b, a) };
                black_box(ridmap.compare_and_set(rows[0], from, to));
            }),
        );
    }
    {
        let alloc = FragmentAllocator::new(env.cfg.imrs_budget, env.cfg.imrs_chunk_size);
        let mut failed = None;
        out.insert(
            "imrs.alloc_free_ns",
            per_op(slice, |_| match alloc.alloc(stock_row) {
                Ok(h) => alloc.free(h),
                Err(err) => failed = Some(err),
            }),
        );
        if let Some(err) = failed {
            return Err(e("alloc", err));
        }
    }
    {
        let ridmap = Arc::new(RidMap::new());
        let store = ImrsStore::new(
            env.cfg.imrs_budget,
            env.cfg.imrs_chunk_size,
            Arc::clone(&ridmap),
        );
        let txn = TxnId(1);
        let mut clock = 10u64;
        let mut failed = None;
        out.insert(
            "imrs.store_insert_ns",
            batches(slice, BATCH, |_| {
                let ids: Vec<RowId> = (0..BATCH).map(|_| ridmap.allocate_row_id()).collect();
                let ns = timed(|| {
                    for &id in &ids {
                        if let Err(err) = store.insert_row(
                            id,
                            part,
                            RowOrigin::Inserted,
                            txn,
                            stock_row,
                            Timestamp(clock),
                        ) {
                            failed = Some(err);
                        }
                    }
                });
                clock += 1;
                for id in ids {
                    store.remove_row(id, || Timestamp(clock));
                }
                clock += 1;
                store.reclaim(Timestamp(clock));
                ns
            }),
        );
        let id = ridmap.allocate_row_id();
        let (row, first) = store
            .insert_row(
                id,
                part,
                RowOrigin::Inserted,
                txn,
                stock_row,
                Timestamp(clock),
            )
            .map_err(|err| e("insert_row", err))?;
        first.stamp(Timestamp(clock));
        let writer = TxnId(2);
        out.insert(
            "imrs.add_version_ns",
            batches(slice, BATCH, |_| {
                let ns = timed(|| {
                    for _ in 0..BATCH {
                        if let Err(err) =
                            store.add_version(&row, writer, VersionOp::Update, Some(stock_row))
                        {
                            failed = Some(err);
                        }
                    }
                });
                clock += 1;
                store.rollback_row(&row, writer, || Timestamp(clock));
                clock += 1;
                store.reclaim(Timestamp(clock));
                ns
            }),
        );
        if let Some(err) = failed {
            return Err(e("imrs store", err));
        }
        // One committed version, then eight: a reader whose snapshot
        // predates the seven newer ones walks the whole chain.
        let old_snapshot = Timestamp(clock);
        let reader = TxnId(3);
        out.insert(
            "imrs.visible_chain1_ns",
            per_op(slice, |_| {
                black_box(row.visible_version(old_snapshot, reader));
            }),
        );
        for _ in 0..7 {
            clock += 1;
            store
                .add_version(&row, writer, VersionOp::Update, Some(stock_row))
                .map_err(|err| e("add_version", err))?
                .stamp(Timestamp(clock));
        }
        out.insert(
            "imrs.visible_chain8_ns",
            per_op(slice, |_| {
                black_box(row.visible_version(old_snapshot, reader));
            }),
        );
    }

    // ---- index -----------------------------------------------------
    {
        let hash = HashIndex::new();
        for i in 0..INDEX_KEYS {
            hash.insert(&index_key(i), RowId(i as u64));
        }
        out.insert(
            "index.hash_get_ns",
            per_op(slice, |i| {
                black_box(hash.get(&index_key(stride(i, INDEX_KEYS as usize) as u32)));
            }),
        );

        let cache = Arc::new(BufferCache::new(
            probe_disk(),
            env.cfg.buffer_frames.max(4_096),
        ));
        let tree =
            BTreeIndex::new(Arc::clone(&cache), part, true).map_err(|err| e("btree", err))?;
        // Even keys only: the odd ones are what the insert probe adds.
        for i in (0..INDEX_KEYS * 2).step_by(2) {
            tree.insert(&spread_key(i), RowId(i as u64))
                .map_err(|err| e("btree build", err))?;
        }
        cache.flush_all().map_err(|err| e("btree flush", err))?;
        shrink_to_share(&cache, env);
        let mut failed = None;
        out.insert(
            "index.btree_get_ns",
            per_op(slice, |i| {
                let k = spread_key(2 * stride(i, INDEX_KEYS as usize) as u32);
                match tree.get(&k) {
                    Ok(r) => {
                        black_box(r);
                    }
                    Err(err) => failed = Some(err),
                }
            }),
        );
        let mut delete_ns = Vec::new();
        out.insert(
            "index.btree_insert_ns",
            batches(slice, BATCH, |n| {
                let keys: Vec<[u8; 16]> = (0..BATCH)
                    .map(|j| spread_key(2 * stride(n * BATCH + j, INDEX_KEYS as usize) as u32 + 1))
                    .collect();
                let ns = timed(|| {
                    for k in &keys {
                        if let Err(err) = tree.insert(k, RowId(1)) {
                            failed = Some(err);
                        }
                    }
                });
                delete_ns.push(
                    timed(|| {
                        for k in &keys {
                            if let Err(err) = tree.delete(k, None) {
                                failed = Some(err);
                            }
                        }
                    }) as f64
                        / BATCH as f64,
                );
                ns
            }),
        );
        out.insert("index.btree_delete_ns", median(&delete_ns));
        // StockLevel's shape: the lines of the last 20 orders.
        const SCAN_ROWS: u32 = 200;
        let mut rows_seen = 0u64;
        let scan_ns = per_op(slice / 4, |i| {
            let start = 2 * (stride(i, (INDEX_KEYS - SCAN_ROWS) as usize) as u32);
            let (lo, hi) = (spread_key(start), spread_key(start + 2 * SCAN_ROWS));
            if let Err(err) = tree.scan_range(&lo, Some(&hi), |_, r| {
                black_box(r);
                rows_seen += 1;
                true
            }) {
                failed = Some(err);
            }
        });
        out.insert("index.btree_scan_ns_per_row", scan_ns / SCAN_ROWS as f64);
        black_box(rows_seen);
        out.insert(
            "index.btree_height",
            tree.height().map_err(|err| e("btree height", err))? as f64,
        );
        if let Some(err) = failed {
            return Err(e("btree", err));
        }
    }

    // ---- pagestore -------------------------------------------------
    {
        let cache = BufferCache::new(probe_disk(), env.cfg.buffer_frames.max(4_096));
        let heap = HeapFile::new(part);
        let mut addrs = Vec::with_capacity(HEAP_ROWS);
        for _ in 0..HEAP_ROWS {
            addrs.push(
                heap.insert(&cache, stock_row)
                    .map_err(|err| e("heap build", err))?,
            );
        }
        cache.flush_all().map_err(|err| e("heap flush", err))?;
        let hot = addrs[0].0;
        let mut failed = None;
        out.insert(
            "pagestore.fetch_hit_ns",
            per_op(slice, |_| match cache.fetch(hot) {
                Ok(g) => {
                    black_box(g.page_id());
                }
                Err(err) => failed = Some(err),
            }),
        );
        shrink_to_share(&cache, env);
        out.insert(
            "pagestore.heap_get_ns",
            per_op(slice, |i| {
                let (p, s) = addrs[stride(i, addrs.len())];
                match heap.get(&cache, p, s) {
                    Ok(r) => {
                        black_box(r);
                    }
                    Err(err) => failed = Some(err),
                }
            }),
        );
        out.insert(
            "pagestore.heap_update_ns",
            per_op(slice, |i| {
                let (p, s) = addrs[stride(i, addrs.len())];
                match heap.try_update_in_place(&cache, p, s, stock_row) {
                    Ok(ok) => {
                        black_box(ok);
                    }
                    Err(err) => failed = Some(err),
                }
            }),
        );
        out.insert(
            "pagestore.heap_insert_ns",
            batches(slice, BATCH, |_| {
                let mut added = Vec::with_capacity(BATCH);
                let ns = timed(|| {
                    for _ in 0..BATCH {
                        match heap.insert(&cache, stock_row) {
                            Ok(a) => added.push(a),
                            Err(err) => failed = Some(err),
                        }
                    }
                });
                for (p, s) in added {
                    if let Err(err) = heap.delete(&cache, p, s) {
                        failed = Some(err);
                    }
                }
                ns
            }),
        );
        // Every fetch a miss: cycle through far more pages than frames.
        let disk = probe_disk();
        let small = BufferCache::new(Arc::clone(&disk), 64);
        let mut pids = Vec::new();
        for _ in 0..1_024 {
            let g = small
                .new_page(btrim_pagestore::page::PageType::Heap, part)
                .map_err(|err| e("miss build", err))?;
            pids.push(g.page_id());
        }
        small.flush_all().map_err(|err| e("miss flush", err))?;
        out.insert(
            "pagestore.fetch_miss_ns",
            per_op(slice, |i| match small.fetch(pids[i % pids.len()]) {
                Ok(g) => {
                    black_box(g.page_id());
                }
                Err(err) => failed = Some(err),
            }),
        );
        if let Some(err) = failed {
            return Err(e("pagestore", err));
        }
    }
    {
        let layout = OrderLine::layout();
        let rows = &env.shapes.order_lines;
        let n = rows.len();
        let shred = || -> Option<Vec<(String, ColumnData)>> {
            let mut cols: Vec<(String, ColumnData)> = layout
                .fields
                .iter()
                .map(|(name, kind)| {
                    let data = if kind.is_numeric() {
                        ColumnData::U64(Vec::with_capacity(n))
                    } else {
                        ColumnData::Bytes(Vec::with_capacity(n))
                    };
                    (name.clone(), data)
                })
                .collect();
            for row in rows {
                for (col, v) in cols.iter_mut().zip(layout.split(row)?) {
                    match (&mut col.1, v) {
                        (ColumnData::U64(c), btrim_core::FieldValue::U64(v)) => c.push(v),
                        (ColumnData::Bytes(c), btrim_core::FieldValue::Bytes(v)) => c.push(v),
                        _ => return None,
                    }
                }
            }
            Some(cols)
        };
        let raw_len: u64 = rows.iter().map(|r| r.len() as u64).sum();
        let row_ids: Vec<RowId> = (0..n as u64).map(RowId).collect();
        let build = || {
            let cols = shred().ok_or("order_line rows do not match their layout")?;
            FrozenExtent::build(1, TableId(1), part, row_ids.clone(), cols, raw_len)
                .map_err(|err| e("extent build", err))
        };
        let encoded = build()?.encode();
        let mut failed = None;
        // One batch is one whole extent; the operation is one row.
        out.insert(
            "pagestore.extent_encode_ns_per_row",
            batches(slice, n.max(1), |_| {
                timed(|| match build() {
                    Ok(ext) => {
                        black_box(ext.encode());
                    }
                    Err(err) => failed = Some(err),
                })
            }),
        );
        let mut decode_failed = None;
        out.insert(
            "pagestore.extent_decode_ns_per_row",
            batches(slice, n.max(1), |_| {
                timed(|| match FrozenExtent::decode(&encoded) {
                    Ok(ext) => {
                        black_box(ext.row_count());
                    }
                    Err(err) => decode_failed = Some(err),
                })
            }),
        );
        if let Some(err) = failed {
            return Err(err);
        }
        if let Some(err) = decode_failed {
            return Err(e("extent decode", err));
        }
    }

    // ---- wal -------------------------------------------------------
    {
        let imrs = ImrsLogRecord::Update {
            txn: TxnId(9),
            ts: Timestamp(9),
            partition: part,
            row: RowId(9),
            data: stock_row.to_vec(),
        };
        out.insert(
            "wal.encode_imrs_ns",
            per_op(slice, |_| {
                black_box(black_box(&imrs).encode());
            }),
        );
        let page = PageLogRecord::Update {
            txn: TxnId(9),
            partition: part,
            row: RowId(9),
            page: PageId(9),
            slot: SlotId(9),
            old: stock_row.to_vec(),
            new: stock_row.to_vec(),
        };
        out.insert(
            "wal.encode_page_ns",
            per_op(slice, |_| {
                black_box(black_box(&page).encode());
            }),
        );
        let block = vec![0xA5u8; 8 * 1024];
        out.insert(
            "wal.crc32_ns_per_kib",
            per_op(slice, |_| {
                black_box(btrim_wal::log::crc32(black_box(&block)));
            }) / 8.0,
        );
    }

    // ---- txn -------------------------------------------------------
    {
        let locks = LockManager::default();
        let mut failed = None;
        out.insert(
            "txn.lock_unlock_ns",
            per_op(slice, |i| {
                let row = RowId(i as u64 % 1_024);
                match locks.lock(TxnId(1), row, LockMode::Exclusive) {
                    Ok(()) => locks.unlock(TxnId(1), row),
                    Err(err) => failed = Some(err),
                }
            }),
        );
        if let Some(err) = failed {
            return Err(e("lock", err));
        }
        let txns = TxnManager::new(Arc::new(LogicalClock::new()));
        out.insert(
            "txn.begin_finish_ns",
            per_op(slice, |_| {
                let h = txns.begin();
                black_box(txns.commit(h));
            }),
        );
        let open: Vec<_> = (0..4).map(|_| txns.begin()).collect();
        out.insert(
            "txn.oldest_snapshot_ns",
            per_op(slice, |_| {
                black_box(txns.oldest_active_snapshot());
            }),
        );
        for h in open {
            txns.release(h);
        }
    }

    // ---- common ----------------------------------------------------
    {
        let clock = LogicalClock::new();
        out.insert(
            "common.clock_reserve_publish_ns",
            per_op(slice, |_| {
                let ts = clock.reserve();
                clock.publish(ts);
            }),
        );
        let stock = Stock::decode(stock_row).map_err(|err| e("stock decode", err))?;
        out.insert(
            "common.codec_row_encode_ns",
            per_op(slice, |_| {
                black_box(black_box(&stock).encode());
            }),
        );
        out.insert(
            "common.codec_row_decode_ns",
            per_op(slice, |_| {
                black_box(Stock::decode(black_box(stock_row)).is_ok());
            }),
        );
        let counter = ShardedCounter::new();
        out.insert(
            "common.sharded_counter_inc_ns",
            per_op(slice, |_| counter.inc()),
        );
        black_box(counter.load());
    }

    // ---- obs -------------------------------------------------------
    {
        let hist = LatencyHistogram::new();
        out.insert(
            "obs.record_ns",
            per_op(slice, |i| hist.record(black_box((i as u64) << 4))),
        );
        let obs = Obs::new(true, 0);
        out.insert(
            "obs.timed_pair_ns",
            per_op(slice, |_| {
                let t = obs.start();
                obs.record_since(OpClass::Commit, black_box(t));
            }),
        );
    }
    Ok(out)
}

/// Index key `i` of a sequence with room between neighbours: even `i`
/// are loaded, odd `i` are what the insert probe adds and removes.
fn spread_key(i: u32) -> [u8; 16] {
    let mut k = index_key(i / 2);
    // The last field leaves its low bit to tell the two apart.
    let ol = u32::from_be_bytes([k[12], k[13], k[14], k[15]]) * 2 + (i % 2);
    k[12..].copy_from_slice(&ol.to_be_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_ordered_and_distinct() {
        let keys: Vec<[u8; 16]> = (0..2_000).map(spread_key).collect();
        assert!(keys.windows(2).all(|p| p[0] < p[1]));
        assert!(index_key(0) < index_key(INDEX_KEYS - 1));
    }

    #[test]
    fn stride_visits_every_residue() {
        let n = INDEX_KEYS as usize;
        let mut seen = vec![false; n];
        for i in 0..n {
            seen[stride(i, n)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
