//! Checkpoint semantics (§II): checkpoints flush page-store state and
//! bound redo, but never flush IMRS data — the IMRS is always rebuilt
//! from the redo-only log.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use btrim_common::PageId;
use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::checkpoint::CHECKPOINT_FLUSH_BATCH;
use btrim_core::{Engine, EngineConfig, EngineMode, IlmTraceEvent};
use btrim_pagestore::{DiskBackend, MemDisk};
use btrim_wal::{newest_image, ImrsLogRecord, LogWriter, MemLog};

fn mkrow(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn opts() -> TableOpts {
    TableOpts {
        name: "t".into(),
        imrs_enabled: true,
        pinned: false,
        partitioner: Partitioner::Single,
        primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
        layout: None,
    }
}

fn cfg(mode: EngineMode) -> EngineConfig {
    EngineConfig {
        mode,
        imrs_budget: 4 * 1024 * 1024,
        imrs_chunk_size: 512 * 1024,
        buffer_frames: 512,
        ..Default::default()
    }
}

#[test]
fn recovery_with_mid_run_checkpoint_is_exact() {
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    {
        let e = Engine::with_devices(
            cfg(EngineMode::PageOnly),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        );
        let t = e.create_table(opts()).unwrap();
        // Pre-checkpoint work.
        let mut txn = e.begin();
        for i in 0..40u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"before")).unwrap();
        }
        e.commit(txn).unwrap();
        e.checkpoint().unwrap();
        // Post-checkpoint work: updates over checkpointed rows plus new
        // inserts, never flushed.
        let mut txn = e.begin();
        for i in 0..20u64 {
            e.update(&mut txn, &t, &i.to_be_bytes(), &mkrow(i, b"after!"))
                .unwrap();
        }
        for i in 40..60u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"late")).unwrap();
        }
        e.commit(txn).unwrap();
        // Crash without a second checkpoint.
    }
    // Sanity: sysimrslogs really holds a certified checkpoint, and its
    // syslogs floor is past the pre-checkpoint transaction (`Begin`, 40
    // inserts, `Commit`), so redo starts after it.
    {
        let reader: LogWriter<ImrsLogRecord> = LogWriter::new(imrslog.clone());
        let image = newest_image(&reader.read_all().unwrap());
        let image = image.expect("checkpoint certified");
        assert_eq!(image.header.sys_floor, btrim_common::Lsn(43));
    }
    let e = Engine::recover(cfg(EngineMode::PageOnly), disk, syslog, imrslog, |e| {
        e.create_table(opts()).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    let txn = e.begin();
    for i in 0..20u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"after!",
            "post-checkpoint update {i}"
        );
    }
    for i in 20..40u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"before",
            "checkpointed row {i}"
        );
    }
    for i in 40..60u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"late",
            "post-checkpoint insert {i}"
        );
    }
    e.commit(txn).unwrap();
}

#[test]
fn checkpoint_never_flushes_imrs_data() {
    // An IlmOn engine with everything resident in the IMRS: checkpoint
    // flushes pages + logs, but the device must contain NO heap rows —
    // the IMRS recovers from its redo-only log alone (§II).
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    {
        let e = Engine::with_devices(
            cfg(EngineMode::IlmOn),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        );
        let t = e.create_table(opts()).unwrap();
        let mut txn = e.begin();
        for i in 0..50u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"imrs-only")).unwrap();
        }
        e.commit(txn).unwrap();
        e.checkpoint().unwrap();
        assert_eq!(e.snapshot().imrs_rows, 50);
    }
    // Recover: all 50 rows come back from sysimrslogs.
    let e = Engine::recover(cfg(EngineMode::IlmOn), disk, syslog, imrslog, |e| {
        e.create_table(opts()).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    assert_eq!(
        e.snapshot().imrs_rows,
        50,
        "IMRS rebuilt from redo-only log"
    );
    let txn = e.begin();
    for i in 0..50u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"imrs-only"
        );
    }
    e.commit(txn).unwrap();
}

#[test]
fn durable_commits_flush_logs_eagerly() {
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    let e = Engine::with_devices(
        EngineConfig {
            durable_commits: true,
            ..cfg(EngineMode::IlmOn)
        },
        Arc::new(MemDisk::new()),
        syslog.clone(),
        imrslog.clone(),
    );
    let t = e.create_table(opts()).unwrap();
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(1, b"x")).unwrap();
    e.commit(txn).unwrap();
    // MemLog flush is a no-op, so this only asserts the records exist
    // immediately post-commit (the flush path ran without error).
    use btrim_wal::LogSink;
    assert!(imrslog.record_count() >= 1);
}

/// Regression for the quiesced-only truncation gap: the old
/// stop-the-world checkpoint recycled the syslog prefix only when
/// `active_count() == 0`, so a busy engine never reclaimed log space.
/// The fuzzy checkpoint truncates up to the low-water mark — the first
/// log record of the oldest in-flight transaction — with writers still
/// active.
#[test]
fn fuzzy_checkpoint_truncates_with_a_writer_in_flight() {
    use btrim_wal::LogSink;
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    {
        let e = Engine::with_devices(
            cfg(EngineMode::PageOnly),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        );
        let t = e.create_table(opts()).unwrap();
        let mut txn = e.begin();
        for i in 0..200u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"bulk--")).unwrap();
        }
        e.commit(txn).unwrap();

        // Held open across the checkpoint: the engine is NOT quiesced.
        let mut open = e.begin();
        e.insert(&mut open, &t, &mkrow(10_000, b"opentx")).unwrap();

        let bytes_before = syslog.byte_size();
        e.checkpoint().unwrap();
        assert!(
            syslog.byte_size() < bytes_before / 2,
            "checkpoint under load must recycle the prefix ({} -> {})",
            bytes_before,
            syslog.byte_size()
        );

        e.commit(open).unwrap();
        // Crash without shutdown.
    }
    let e = Engine::recover(cfg(EngineMode::PageOnly), disk, syslog, imrslog, |e| {
        e.create_table(opts()).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    let txn = e.begin();
    for i in 0..200u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"bulk--",
            "checkpointed row {i}"
        );
    }
    assert_eq!(
        &e.get(&txn, &t, &10_000u64.to_be_bytes()).unwrap().unwrap()[8..],
        b"opentx",
        "the in-flight transaction's insert survives the truncation"
    );
    e.commit(txn).unwrap();
}

/// A page device that holds one page write of the checkpoint thread
/// until `ready()`: the first write of a seeded page from the second
/// flush batch on. A hold longer than `HOLD_LIMIT` gives up and is
/// recorded, so a checkpoint that stalls writers fails the test instead
/// of hanging it.
struct HeldWrite {
    inner: MemDisk,
    hold: Mutex<Option<Hold>>,
    timed_out: AtomicBool,
}

struct Hold {
    thread: std::thread::ThreadId,
    /// Writes of this thread to let through first.
    skip: usize,
    /// Only pages below this id (the seeded ones) are held.
    below: u32,
    ready: Box<dyn Fn() -> bool + Send>,
}

const HOLD_LIMIT: Duration = Duration::from_secs(30);

impl DiskBackend for HeldWrite {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> btrim_common::Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> btrim_common::Result<()> {
        let held = {
            let mut hold = self.hold.lock().unwrap();
            match hold.as_mut() {
                Some(h) if h.thread == std::thread::current().id() && h.skip > 0 => {
                    h.skip -= 1;
                    None
                }
                Some(h) if h.thread == std::thread::current().id() && id.0 < h.below => hold.take(),
                _ => None,
            }
        };
        if let Some(h) = held {
            let start = Instant::now();
            while !(h.ready)() {
                if start.elapsed() > HOLD_LIMIT {
                    self.timed_out.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> btrim_common::Result<PageId> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn sync(&self) -> btrim_common::Result<()> {
        self.inner.sync()
    }
    fn reads(&self) -> u64 {
        self.inner.reads()
    }
    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

/// The fuzzy checkpoint never quiesces: eight writer threads must keep
/// committing while the checkpoint's rate-limited flush batches run.
/// The checkpoint thread's first write of the second batch is held
/// until the writers have committed eight more transactions, so the
/// overlap does not depend on how the host schedules the threads.
#[test]
fn writers_make_progress_during_a_fuzzy_checkpoint() {
    let disk = Arc::new(HeldWrite {
        inner: MemDisk::new(),
        hold: Mutex::new(None),
        timed_out: AtomicBool::new(false),
    });
    // The premise: the checkpoint below is the one that writes the
    // seeded pages back. So the cache holds the seeded pages and the
    // writers' growth (nothing is evicted, which would write a seeded
    // page back first), and no commit runs maintenance inline: the seed
    // alone puts more than `CHECKPOINT_MIN_LOG_BYTES` into the logs, so a
    // writer's commit would otherwise run the maintenance checkpoint,
    // which raced this one and, when it won, left it two dirty pages.
    let e = Engine::with_devices(
        EngineConfig {
            buffer_frames: 16 * CHECKPOINT_FLUSH_BATCH,
            maintenance_interval_txns: u64::MAX,
            ..cfg(EngineMode::PageOnly)
        },
        Arc::clone(&disk) as Arc<dyn DiskBackend>,
        Arc::new(MemLog::new()),
        Arc::new(MemLog::new()),
    );
    let t = e.create_table(opts()).unwrap();
    // Seed several flush batches of dirty pages (about eight ~1 KiB
    // rows fill one), all cached.
    {
        let mut txn = e.begin();
        for i in 0..8 * 8 * CHECKPOINT_FLUSH_BATCH as u64 {
            e.insert(&mut txn, &t, &mkrow(i, &[b's'; 1000])).unwrap();
        }
        e.commit(txn).unwrap();
    }
    let seeded = disk.num_pages();
    // The writers have a table of their own, so none of them ever needs
    // the latch of the seeded page whose write is held.
    let w = e
        .create_table(TableOpts {
            name: "w".into(),
            ..opts()
        })
        .unwrap();
    let stop = AtomicBool::new(false);
    let counters: Arc<Vec<AtomicU64>> = Arc::new((0..8).map(|_| AtomicU64::new(0)).collect());
    let total = {
        let counters = Arc::clone(&counters);
        move || {
            counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<u64>()
        }
    };
    std::thread::scope(|s| {
        let (e, w, stop, counters) = (&e, &w, &stop, &counters);
        for wr in 0..8u64 {
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = 1_000_000 * (wr + 1) + n;
                    let mut txn = e.begin();
                    e.insert(&mut txn, w, &mkrow(key, b"writer")).unwrap();
                    e.commit(txn).unwrap();
                    counters[wr as usize].fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
            });
        }
        // Let every writer get going before checkpointing under load.
        while total() < 64 {
            std::thread::yield_now();
        }
        let before = total();
        let evictions = e.snapshot().buffer.evictions;
        *disk.hold.lock().unwrap() = Some(Hold {
            thread: std::thread::current().id(),
            skip: CHECKPOINT_FLUSH_BATCH,
            below: seeded,
            ready: Box::new({
                let total = total.clone();
                move || total() >= before + 8
            }),
        });
        let ckpt = e.checkpoint();
        let after = total();
        stop.store(true, Ordering::Relaxed);
        ckpt.unwrap();
        assert_eq!(
            e.snapshot().buffer.evictions,
            evictions,
            "the window evicted a page"
        );
        let checkpoints = e.obs().trace.events().into_iter();
        let checkpoints = checkpoints.filter(|ev| matches!(ev, IlmTraceEvent::Checkpoint(_)));
        assert_eq!(
            checkpoints.count(),
            1,
            "another checkpoint ran in the window"
        );
        assert!(
            disk.hold.lock().unwrap().is_none(),
            "the checkpoint wrote no seeded page after its first batch"
        );
        assert!(
            !disk.timed_out.load(Ordering::Relaxed),
            "writers committed fewer than 8 transactions in {HOLD_LIMIT:?} of a held checkpoint write"
        );
        let batches = e.obs().trace.events().into_iter().find_map(|ev| match ev {
            IlmTraceEvent::Checkpoint(c) => Some(c.batches),
            _ => None,
        });
        assert!(
            batches.unwrap_or(0) > 4,
            "checkpoint too short: {batches:?}"
        );
        assert!(
            after >= before + 8,
            "writers stalled during the checkpoint window ({before} -> {after})"
        );
    });
    for (w, c) in counters.iter().enumerate() {
        assert!(
            c.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "writer {w} never committed"
        );
    }
}

/// After a fuzzy checkpoint, redo covers only the post-low-water
/// suffix — asserted through the [`RecoveryReport`] counters, not just
/// the recovered values.
#[test]
fn redo_after_fuzzy_checkpoint_replays_only_the_suffix() {
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    {
        let e = Engine::with_devices(
            cfg(EngineMode::PageOnly),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        );
        let t = e.create_table(opts()).unwrap();
        // 60 pre-checkpoint change records...
        let mut txn = e.begin();
        for i in 0..60u64 {
            e.insert(&mut txn, &t, &mkrow(i, b"before")).unwrap();
        }
        e.commit(txn).unwrap();
        e.checkpoint().unwrap();
        // ...and exactly 15 after it.
        let mut txn = e.begin();
        for i in 0..15u64 {
            e.update(&mut txn, &t, &i.to_be_bytes(), &mkrow(i, b"after!"))
                .unwrap();
        }
        e.commit(txn).unwrap();
        // Crash without a second checkpoint.
    }
    let e = Engine::recover(
        EngineConfig {
            recovery_workers: 4,
            ..cfg(EngineMode::PageOnly)
        },
        disk,
        syslog,
        imrslog,
        |e| e.create_table(opts()).map(|_| ()),
    )
    .unwrap();
    let r = e.recovery_report();
    assert_eq!(
        r.syslog_redo_skipped, 0,
        "the checkpoint truncates the prefix; nothing should be left to skip: {r:?}"
    );
    assert_eq!(
        r.syslog_redo_replayed, 15,
        "redo must cover exactly the post-checkpoint suffix: {r:?}"
    );
    assert!(r.replay_workers >= 1, "worker count missing: {r:?}");
    let t = e.table("t").unwrap();
    let txn = e.begin();
    for i in 0..15u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"after!"
        );
    }
    for i in 15..60u64 {
        assert_eq!(
            &e.get(&txn, &t, &i.to_be_bytes()).unwrap().unwrap()[8..],
            b"before"
        );
    }
    e.commit(txn).unwrap();
}

/// Serial and parallel replay agree, and recovery is idempotent: the
/// same crashed media recovered with 1 worker, then recovered *again*
/// with 8 (including the first recovery's own writes), lands in the
/// same committed state.
#[test]
fn parallel_recovery_matches_serial_and_is_idempotent() {
    use btrim_core::pack::{pack_cycle, PackLevel};
    use std::collections::BTreeMap;

    fn opts_parts() -> TableOpts {
        TableOpts {
            name: "t".into(),
            imrs_enabled: true,
            pinned: false,
            partitioner: Partitioner::HashKey { parts: 8 },
            primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
            layout: None,
        }
    }
    fn scan(e: &Engine) -> BTreeMap<u64, Vec<u8>> {
        let t = e.table("t").unwrap();
        let txn = e.begin();
        let mut out = BTreeMap::new();
        e.scan_range(&txn, &t, &[], None, |k, _, row| {
            out.insert(u64::from_be_bytes(k[..8].try_into().unwrap()), row.to_vec());
            true
        })
        .unwrap();
        e.commit(txn).unwrap();
        out
    }

    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());
    let mut expect: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    {
        let e = Engine::with_devices(
            cfg(EngineMode::IlmOn),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        );
        let t = e.create_table(opts_parts()).unwrap();
        for i in 0..300u64 {
            let row = mkrow(i, b"v1----");
            let mut txn = e.begin();
            e.insert(&mut txn, &t, &row).unwrap();
            e.commit(txn).unwrap();
            expect.insert(i, row);
        }
        // Push a slice of the rows onto pages so both the page log and
        // the IMRS log carry real replay work across all 8 partitions.
        e.run_maintenance();
        pack_cycle(&e, PackLevel::Aggressive);
        for i in 0..150u64 {
            let row = mkrow(i, b"v2----");
            let mut txn = e.begin();
            assert!(e.update(&mut txn, &t, &i.to_be_bytes(), &row).unwrap());
            e.commit(txn).unwrap();
            expect.insert(i, row);
        }
        for i in 280..300u64 {
            let mut txn = e.begin();
            assert!(e.delete(&mut txn, &t, &i.to_be_bytes()).unwrap());
            e.commit(txn).unwrap();
            expect.remove(&i);
        }
        // Crash without shutdown.
    }
    let serial = {
        let e = Engine::recover(
            EngineConfig {
                recovery_workers: 1,
                ..cfg(EngineMode::IlmOn)
            },
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
            |e| e.create_table(opts_parts()).map(|_| ()),
        )
        .unwrap();
        assert_eq!(e.recovery_report().replay_workers, 1);
        scan(&e)
        // Dropped without shutdown: the second recovery also proves
        // replay is re-enterable over a previous recovery's writes.
    };
    let parallel = {
        let e = Engine::recover(
            EngineConfig {
                recovery_workers: 8,
                ..cfg(EngineMode::IlmOn)
            },
            disk,
            syslog,
            imrslog,
            |e| e.create_table(opts_parts()).map(|_| ()),
        )
        .unwrap();
        let r = e.recovery_report();
        assert_eq!(r.replay_workers, 8);
        assert!(
            r.imrs_records_replayed > 0,
            "IMRS replay was exercised: {r:?}"
        );
        scan(&e)
    };
    assert_eq!(serial, expect, "serial recovery state");
    assert_eq!(parallel, expect, "parallel recovery state");
}
