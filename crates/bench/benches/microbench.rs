//! Criterion micro-benchmarks for the design choices DESIGN.md calls
//! out as ablations:
//!
//! * sharded per-CPU counters vs a single shared atomic (§V.A's
//!   motivation);
//! * best-fit fragment allocator throughput;
//! * IMRS point operations vs page-store point operations (§III's
//!   contention/locality motivation);
//! * hash-index fast path vs B+tree point lookup (§II);
//! * relaxed-LRU queue maintenance cost (§VI.B — must be cheap because
//!   GC performs it for every row).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use btrim_common::ShardedCounter;
use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::{Engine, EngineConfig, EngineMode};
use btrim_imrs::FragmentAllocator;
use btrim_index::{BTreeIndex, HashIndex};
use btrim_pagestore::{BufferCache, MemDisk};

fn bench_counters(c: &mut Criterion) {
    let mut g = c.benchmark_group("counters");
    g.sample_size(20);

    // Single shared atomic, 8 threads hammering one cache line.
    g.bench_function("shared_atomic_8thr", |b| {
        b.iter(|| {
            let counter = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        for _ in 0..20_000 {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            counter.load(Ordering::Relaxed)
        })
    });

    // Sharded counter, same work.
    g.bench_function("sharded_counter_8thr", |b| {
        b.iter(|| {
            let counter = Arc::new(ShardedCounter::new());
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        for _ in 0..20_000 {
                            counter.inc();
                        }
                    });
                }
            });
            counter.load()
        })
    });
    g.finish();
}

fn bench_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("fragment_allocator");
    g.sample_size(20);
    let payload = vec![0xABu8; 120];

    g.bench_function("alloc_free_cycle", |b| {
        let a = FragmentAllocator::new(64 * 1024 * 1024, 4 * 1024 * 1024);
        b.iter(|| {
            let h = a.alloc(&payload).unwrap();
            a.free(h);
        })
    });

    g.bench_function("alloc_churn_mixed_sizes", |b| {
        let a = FragmentAllocator::new(64 * 1024 * 1024, 4 * 1024 * 1024);
        let mut held = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            let size = 32 + (i * 37) % 400;
            i += 1;
            held.push(a.alloc(&vec![1u8; size]).unwrap());
            if held.len() > 256 {
                a.free(held.swap_remove(i % 256));
            }
        })
    });
    g.finish();
}

fn make_engine(mode: EngineMode) -> (Arc<Engine>, Arc<btrim_core::catalog::TableDesc>) {
    let engine = Arc::new(Engine::new(EngineConfig {
        mode,
        imrs_budget: 64 * 1024 * 1024,
        imrs_chunk_size: 4 * 1024 * 1024,
        buffer_frames: 4096,
        ..Default::default()
    }));
    let table = engine
        .create_table(TableOpts {
            name: "bench".into(),
            imrs_enabled: true,
            pinned: false,
            partitioner: Partitioner::Single,
            primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
            layout: None,
        })
        .unwrap();
    let mut txn = engine.begin();
    for i in 0..10_000u64 {
        let mut row = i.to_be_bytes().to_vec();
        row.extend_from_slice(&[7u8; 100]);
        engine.insert(&mut txn, &table, &row).unwrap();
    }
    engine.commit(txn).unwrap();
    (engine, table)
}

fn bench_point_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("point_ops");
    g.sample_size(20);

    // IMRS-resident point selects (ILM_OFF keeps everything resident).
    let (e_imrs, t_imrs) = make_engine(EngineMode::IlmOff);
    g.bench_function("select_imrs", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || e_imrs.begin(),
            |txn| {
                i = (i + 7919) % 10_000;
                let r = e_imrs.get(&txn, &t_imrs, &i.to_be_bytes()).unwrap();
                e_imrs.commit(txn).unwrap();
                r
            },
            BatchSize::SmallInput,
        )
    });

    // Same selects through the lock-free snapshot path: no row locks,
    // no metrics bumps — the gap vs `select_imrs` is the cost the
    // locking read pays even without any writer contention.
    g.bench_function("select_snapshot_imrs", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || e_imrs.begin_snapshot(),
            |snap| {
                i = (i + 7919) % 10_000;
                let r = e_imrs
                    .get_snapshot(&snap, &t_imrs, &i.to_be_bytes())
                    .unwrap();
                e_imrs.end_snapshot(snap);
                r
            },
            BatchSize::SmallInput,
        )
    });

    // Page-store point selects.
    let (e_page, t_page) = make_engine(EngineMode::PageOnly);
    g.bench_function("select_pagestore", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || e_page.begin(),
            |txn| {
                i = (i + 7919) % 10_000;
                let r = e_page.get(&txn, &t_page, &i.to_be_bytes()).unwrap();
                e_page.commit(txn).unwrap();
                r
            },
            BatchSize::SmallInput,
        )
    });

    // Update paths.
    let (e_imrs2, t_imrs2) = make_engine(EngineMode::IlmOff);
    g.bench_function("update_imrs", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || e_imrs2.begin(),
            |mut txn| {
                i = (i + 7919) % 10_000;
                let mut row = i.to_be_bytes().to_vec();
                row.extend_from_slice(&[9u8; 100]);
                e_imrs2
                    .update(&mut txn, &t_imrs2, &i.to_be_bytes(), &row)
                    .unwrap();
                e_imrs2.commit(txn).unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    let (e_page2, t_page2) = make_engine(EngineMode::PageOnly);
    g.bench_function("update_pagestore", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || e_page2.begin(),
            |mut txn| {
                i = (i + 7919) % 10_000;
                let mut row = i.to_be_bytes().to_vec();
                row.extend_from_slice(&[9u8; 100]);
                e_page2
                    .update(&mut txn, &t_page2, &i.to_be_bytes(), &row)
                    .unwrap();
                e_page2.commit(txn).unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_indexes(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_lookup");
    g.sample_size(20);
    let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 4096));
    let btree = BTreeIndex::new(cache, btrim_common::PartitionId(0), true).unwrap();
    let hash = HashIndex::new();
    for i in 0..50_000u64 {
        let k = i.to_be_bytes();
        btree.insert(&k, btrim_common::RowId(i)).unwrap();
        hash.insert(&k, btrim_common::RowId(i));
    }
    g.bench_function("btree_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 104729) % 50_000;
            btree.get(&i.to_be_bytes()).unwrap()
        })
    });
    g.bench_function("hash_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 104729) % 50_000;
            hash.get(&i.to_be_bytes())
        })
    });
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("ilm_queues");
    g.sample_size(20);
    use btrim_core::queues::PartitionQueues;
    use btrim_imrs::RowOrigin;

    g.bench_function("push_pop_rotate", |b| {
        let q = PartitionQueues::default();
        for i in 0..1_000u64 {
            q.push_tail(RowOrigin::Inserted, btrim_common::RowId(i));
        }
        b.iter(|| {
            // The steady-state pack pattern: pop the head, rotate it to
            // the tail (hot-row case).
            if let Some((row, origin)) = q.pop_head() {
                q.push_tail(origin, row);
            }
        })
    });
    g.finish();
}

fn bench_commit_path(c: &mut Criterion) {
    // Full transaction cost: one insert + commit, including WAL append
    // and (for the IMRS) version creation + redo-only logging.
    let mut g = c.benchmark_group("commit_path");
    g.sample_size(20);
    for (label, mode) in [
        ("insert_txn_imrs", EngineMode::IlmOff),
        ("insert_txn_page", EngineMode::PageOnly),
    ] {
        let (engine, table) = make_engine(mode);
        let mut key = 1_000_000u64;
        g.bench_function(label, |b| {
            b.iter(|| {
                key += 1;
                let mut row = key.to_be_bytes().to_vec();
                row.extend_from_slice(&[5u8; 100]);
                let mut txn = engine.begin();
                engine.insert(&mut txn, &table, &row).unwrap();
                engine.commit(txn).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_commit_batching(c: &mut Criterion) {
    // The stage-and-batch commit pipeline: multi-record transactions
    // committing concurrently, so the cost under test is sysimrslogs
    // lock traffic (one acquisition per commit). Fresh engine per
    // iteration keeps memory bounded and the IMRS state identical
    // across samples.
    use btrim_wal::MemLog;

    const TXNS_PER_THREAD: u64 = 50;
    const ROWS_PER_TXN: u64 = 8;

    let mut g = c.benchmark_group("commit_batching");
    g.sample_size(10);
    for threads in [1u64, 4, 8] {
        g.bench_function(format!("batched_{threads}thr"), |b| {
            b.iter_batched(
                || {
                    let engine = Arc::new(Engine::with_devices(
                        EngineConfig {
                            mode: EngineMode::IlmOff,
                            imrs_budget: 64 * 1024 * 1024,
                            maintenance_interval_txns: 1_000_000,
                            ..Default::default()
                        },
                        Arc::new(MemDisk::new()),
                        Arc::new(MemLog::new()),
                        Arc::new(MemLog::new()),
                    ));
                    let table = engine
                        .create_table(TableOpts {
                            name: "bench".into(),
                            imrs_enabled: true,
                            pinned: false,
                            partitioner: Partitioner::Single,
                            primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
                            layout: None,
                        })
                        .unwrap();
                    (engine, table)
                },
                |(engine, table)| {
                    std::thread::scope(|s| {
                        for t in 0..threads {
                            let engine = Arc::clone(&engine);
                            let table = Arc::clone(&table);
                            s.spawn(move || {
                                for i in 0..TXNS_PER_THREAD {
                                    let mut txn = engine.begin();
                                    for j in 0..ROWS_PER_TXN {
                                        let key = t * 1_000_000 + i * ROWS_PER_TXN + j;
                                        let mut row = key.to_be_bytes().to_vec();
                                        row.extend_from_slice(&[5u8; 40]);
                                        engine.insert(&mut txn, &table, &row).unwrap();
                                    }
                                    engine.commit(txn).unwrap();
                                }
                            });
                        }
                    });
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    // The observability hot path in isolation: one histogram record,
    // and the full start/record_since pair the engine pays per
    // operation — enabled and disabled. The disabled pair must be
    // near-free (no clock read), and the enabled pair must stay two
    // orders of magnitude under the cheapest engine operation.
    use btrim_common::LatencyHistogram;
    use btrim_core::{Obs, OpClass};

    let mut g = c.benchmark_group("obs");
    let h = LatencyHistogram::new();
    let mut v = 0u64;
    g.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h.record(black_box(v >> 40));
        })
    });
    let on = Obs::new(true, 1024);
    g.bench_function("timed_record_enabled", |b| {
        b.iter(|| {
            let t = on.start();
            on.record_since(OpClass::Commit, black_box(t));
        })
    });
    let off = Obs::new(false, 0);
    g.bench_function("timed_record_disabled", |b| {
        b.iter(|| {
            let t = off.start();
            off.record_since(OpClass::Commit, black_box(t));
        })
    });
    g.finish();
}

fn bench_buffer_cache(c: &mut Criterion) {
    // Concurrent hit-path throughput of the sharded buffer cache vs the
    // pre-shard design, where every hit serialized on one process-wide
    // mutex. All pages stay resident, so the benchmark isolates lookup +
    // pin cost under lock contention (no disk I/O, no eviction).
    use btrim_common::{PageId, PartitionId};
    use btrim_pagestore::PageType;
    use std::collections::HashMap;
    use std::sync::{Mutex, RwLock};

    const PAGES: usize = 512;
    const OPS_PER_THREAD: usize = 4_000;

    type SharedPage = Arc<RwLock<Box<[u8]>>>;

    /// The old design in miniature: one mutex guards the whole page
    /// table, and every fetch — hit or miss — takes it.
    struct GlobalMutexCache {
        map: Mutex<HashMap<PageId, SharedPage>>,
    }

    impl GlobalMutexCache {
        fn fetch(&self, id: PageId) -> SharedPage {
            Arc::clone(self.map.lock().unwrap().get(&id).expect("resident"))
        }
    }

    let mut g = c.benchmark_group("buffer_cache");
    g.sample_size(10);

    let sharded = Arc::new(BufferCache::with_shards(
        Arc::new(MemDisk::new()),
        PAGES * 2,
        8,
    ));
    let ids: Arc<Vec<PageId>> = Arc::new(
        (0..PAGES)
            .map(|_| {
                sharded
                    .new_page(PageType::Heap, PartitionId(0))
                    .unwrap()
                    .page_id()
            })
            .collect(),
    );

    let global = Arc::new(GlobalMutexCache {
        map: Mutex::new(
            ids.iter()
                .map(|&id| {
                    (
                        id,
                        Arc::new(RwLock::new(
                            vec![0u8; btrim_pagestore::PAGE_SIZE].into_boxed_slice(),
                        )),
                    )
                })
                .collect(),
        ),
    });

    for threads in [1usize, 4, 8] {
        g.bench_function(format!("global_mutex_hit_{threads}thr"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let global = Arc::clone(&global);
                        let ids = Arc::clone(&ids);
                        s.spawn(move || {
                            let mut x = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                            let mut acc = 0u64;
                            for _ in 0..OPS_PER_THREAD {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let id = ids[(x % PAGES as u64) as usize];
                                let page = global.fetch(id);
                                acc += page.read().unwrap()[0] as u64;
                            }
                            black_box(acc)
                        });
                    }
                })
            })
        });

        g.bench_function(format!("sharded_hit_{threads}thr"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let cache = Arc::clone(&sharded);
                        let ids = Arc::clone(&ids);
                        s.spawn(move || {
                            let mut x = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                            let mut acc = 0u64;
                            for _ in 0..OPS_PER_THREAD {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let id = ids[(x % PAGES as u64) as usize];
                                let guard = cache.fetch(id).unwrap();
                                acc += guard.with_read(|buf| buf[0]) as u64;
                            }
                            black_box(acc)
                        });
                    }
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_counters,
    bench_allocator,
    bench_point_ops,
    bench_indexes,
    bench_queues,
    bench_commit_path,
    bench_commit_batching,
    bench_obs,
    bench_buffer_cache
);
criterion_main!(benches);
