//! Pack-subsystem behaviour tests (§VI): apportioning, levels,
//! backpressure, and the TSF interplay.

use std::sync::Arc;

use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{Actor, Engine, EngineConfig, EngineMode, IlmTraceEvent};

fn mkrow(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn opts(name: &str) -> TableOpts {
    TableOpts {
        name: name.into(),
        imrs_enabled: true,
        pinned: false,
        partitioner: Partitioner::Single,
        primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
        layout: None,
    }
}

fn engine(budget: u64) -> Engine {
    Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: budget,
        imrs_chunk_size: (budget / 4).max(64 * 1024) as u32,
        buffer_frames: 1024,
        // Keep maintenance manual for determinism.
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    })
}

/// Fill a table with `rows` rows of ~`size` bytes, keys offset by
/// `base`.
fn fill(e: &Engine, t: &btrim_core::catalog::TableDesc, base: u64, rows: u64, size: usize) {
    let mut txn = e.begin();
    for i in 0..rows {
        e.insert(&mut txn, t, &mkrow(base + i, &vec![0xAA; size]))
            .unwrap();
    }
    e.commit(txn).unwrap();
}

/// Touch every row of a table `times` times (drives reuse counters and
/// last-access timestamps).
fn touch_all(e: &Engine, t: &btrim_core::catalog::TableDesc, base: u64, rows: u64, times: u32) {
    for _ in 0..times {
        let txn = e.begin();
        for i in 0..rows {
            e.get(&txn, t, &(base + i).to_be_bytes()).unwrap().unwrap();
        }
        e.commit(txn).unwrap();
    }
}

#[test]
fn pack_apportioning_targets_cold_fat_partitions() {
    // Two equally fat tables; one hot (high reuse), one cold.
    let e = engine(4 * 1024 * 1024);
    let hot = e.create_table(opts("hot")).unwrap();
    let cold = e.create_table(opts("cold")).unwrap();
    fill(&e, &hot, 0, 500, 100);
    fill(&e, &cold, 100_000, 500, 100);
    touch_all(&e, &hot, 0, 500, 20); // hot reuse ≈ 20/row; cold ≈ 0
    e.run_maintenance(); // GC → queues

    // Several steady cycles: PI math must tax the cold partition.
    for _ in 0..10 {
        pack_cycle(&e, PackLevel::Steady);
    }
    let snap = e.snapshot();
    let hot_packed = snap.table("hot").unwrap().rows_packed();
    let cold_packed = snap.table("cold").unwrap().rows_packed();
    assert!(
        cold_packed > 10 * hot_packed.max(1),
        "cold partition must absorb the pack tax (hot {hot_packed}, cold {cold_packed})"
    );
    // Hot rows that were inspected got rotated, not packed.
    assert!(snap.table("hot").unwrap().imrs_rows() >= 450);
}

#[test]
fn aggressive_pack_ignores_hotness() {
    let e = engine(4 * 1024 * 1024);
    let t = e.create_table(opts("t")).unwrap();
    fill(&e, &t, 0, 300, 100);
    touch_all(&e, &t, 0, 300, 10); // every row recently accessed = hot
    e.run_maintenance();

    // Steady pack: TSF protects everything (reuse rate is high and all
    // accesses are recent).
    let freed_steady = pack_cycle(&e, PackLevel::Steady);
    assert_eq!(freed_steady, 0, "steady pack skips hot rows");
    assert!(e.snapshot().rows_skipped_hot > 0);

    // Aggressive pack waives the heuristics (§VI.A).
    let mut freed = 0;
    for _ in 0..50 {
        freed += pack_cycle(&e, PackLevel::Aggressive);
        if e.snapshot().imrs_rows == 0 {
            break;
        }
    }
    assert!(freed > 0);
    assert_eq!(e.snapshot().imrs_rows, 0, "aggressive drains everything");
}

#[test]
fn pack_tick_holds_utilization_at_steady_threshold() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 1024,
        steady_utilization: 0.60,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    // Fill to ~85% of the 1 MiB budget (checked before any maintenance
    // runs — the very first pack tick starts draining).
    fill(&e, &t, 0, 8_000, 96);
    let u = e.snapshot().imrs_utilization;
    assert!(u > 0.8, "fill reached only {u:.3}");

    for _ in 0..20 {
        e.run_maintenance(); // GC feeds the queues, then a pack step drains
        e.step(Actor::Pack);
    }
    let util = e.snapshot().imrs_utilization;
    assert!(
        util <= 0.62,
        "pack steps must drain to the steady threshold (now {util:.2})"
    );
    assert!(
        util >= 0.58,
        "pack must stop at the steady threshold, not below it (now {util:.3})"
    );
}

/// A steady insert stream, one maintenance tick per batch of inserts:
/// each tick packs about what arrived since the last one, and the IMRS
/// stays on the steady line instead of being packed 5 % below it every
/// few ticks.
#[test]
fn every_tick_packs_what_arrived() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 1024,
        steady_utilization: 0.60,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    let snap = e.snapshot();
    let line = (0.60 * snap.imrs_budget as f64) as u64;
    // Start just under the line; the first few ticks cross it.
    fill(&e, &t, 0, 4_000, 96);
    e.run_maintenance();
    assert!(e.snapshot().imrs_used_bytes < line);

    // One tick's inflow is 1.5 pack transactions (64 rows each) and a
    // quarter of a 5 % cycle.
    let mut per_tick = Vec::new();
    for tick in 0..80u64 {
        let before = e.snapshot();
        fill(&e, &t, 1_000_000 + tick * 96, 96, 96);
        let inflow = e.snapshot().imrs_used_bytes - before.imrs_used_bytes;
        e.run_maintenance();
        let s = e.snapshot();
        per_tick.push(s.bytes_packed - before.bytes_packed);
        // Once the line is reached (well before tick 20), it holds.
        let used = s.imrs_used_bytes;
        assert!(
            used <= line + inflow,
            "tick {tick}: {used} B live, above the line {line} + one tick's {inflow}"
        );
        assert!(
            tick < 20 || used + inflow >= line,
            "tick {tick}: {used} B live, more than one tick's {inflow} below the line {line}"
        );
    }
    let steady = &per_tick[20..];
    let mean = steady.iter().sum::<u64>() / steady.len() as u64;
    let max = *steady.iter().max().unwrap();
    assert!(mean > 0, "pack never ran: {per_tick:?}");
    assert!(
        max <= 2 * mean,
        "a tick packed {max} B against a mean of {mean} B per tick: {per_tick:?}"
    );
}

/// History-like partitions (inserted, never read again) have UI = ε, so
/// their PI is ≈ 1 whatever they hold. Such a partition must not take a
/// whole cycle to pack the few bytes it has: its share is capped at
/// what it holds, and the rest goes to the others.
#[test]
fn a_zero_reuse_partition_does_not_swallow_a_cycle() {
    let e = engine(4 * 1024 * 1024);
    let warm = e.create_table(opts("warm")).unwrap();
    let log = e.create_table(opts("log")).unwrap();
    fill(&e, &warm, 0, 2_000, 100);
    touch_all(&e, &warm, 0, 2_000, 1);
    fill(&e, &log, 100_000, 20, 100);
    e.run_maintenance();

    let freed = pack_cycle(&e, PackLevel::Aggressive);
    let Some(IlmTraceEvent::Pack(cycle)) = e.obs().trace.events().pop() else {
        panic!("the cycle was not traced");
    };
    let snap = e.snapshot();
    assert_eq!(snap.table("log").unwrap().imrs_rows(), 0, "log drained");
    assert!(
        freed >= cycle.num_bytes_to_pack,
        "packed {freed} B of a {} B cycle",
        cycle.num_bytes_to_pack
    );
    assert!(snap.table("warm").unwrap().rows_packed() > 0);
}

#[test]
fn reject_new_engages_and_releases() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 1024,
        steady_utilization: 0.50,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    // Push utilization above reject-new (= (aggr + 1)/2 = 0.875),
    // checked before any maintenance runs.
    fill(&e, &t, 0, 8_500, 96);
    assert!(e.snapshot().imrs_utilization > 0.88);
    // A pack step first sets the backpressure flag…
    e.run_maintenance();
    e.step(Actor::Pack);
    // …and keeps draining; after enough ticks utilization is at steady
    // and the flag is released: new inserts go to the IMRS again.
    for _ in 0..30 {
        e.step(Actor::Pack);
        e.run_maintenance();
    }
    assert!(e.snapshot().imrs_utilization <= 0.52);
    let rows_before = e.snapshot().imrs_rows;
    let mut txn = e.begin();
    e.insert(&mut txn, &t, &mkrow(999_999, &[1u8; 64])).unwrap();
    e.commit(txn).unwrap();
    assert_eq!(
        e.snapshot().imrs_rows,
        rows_before + 1,
        "insert lands in the IMRS once pressure is gone"
    );
}

#[test]
fn packed_deleted_rows_are_dropped_not_relocated() {
    let e = engine(4 * 1024 * 1024);
    let t = e.create_table(opts("t")).unwrap();
    fill(&e, &t, 0, 100, 64);
    // Delete half; GC hasn't collected them when pack arrives.
    let mut txn = e.begin();
    for i in (0..100u64).step_by(2) {
        assert!(e.delete(&mut txn, &t, &i.to_be_bytes()).unwrap());
    }
    e.commit(txn).unwrap();
    e.run_maintenance();
    for _ in 0..50 {
        if pack_cycle(&e, PackLevel::Aggressive) == 0 {
            break;
        }
    }
    // Every surviving row readable from the page store; deleted rows
    // stay deleted.
    let txn = e.begin();
    for i in 0..100u64 {
        let got = e.get(&txn, &t, &i.to_be_bytes()).unwrap();
        assert_eq!(got.is_some(), i % 2 == 1, "key {i}");
    }
    e.commit(txn).unwrap();
    // Only the 50 survivors remain reachable (tombstones were dropped,
    // not relocated to the page store).
    let mut n = 0;
    let txn = e.begin();
    e.scan_range(&txn, &t, &[], None, |_, _, _| {
        n += 1;
        true
    })
    .unwrap();
    e.commit(txn).unwrap();
    assert_eq!(n, 50);
}

#[test]
fn pinned_partition_gets_no_pack_target() {
    let e = engine(2 * 1024 * 1024);
    let pinned = e.create_table(opts("keep").pinned()).unwrap();
    fill(&e, &pinned, 0, 1_000, 100);
    e.run_maintenance();
    for _ in 0..20 {
        pack_cycle(&e, PackLevel::Aggressive);
    }
    assert_eq!(e.snapshot().table("keep").unwrap().rows_packed(), 0);
    assert_eq!(e.snapshot().table("keep").unwrap().imrs_rows(), 1_000);
}

#[test]
fn uniform_naive_policy_packs_hot_partitions_too() {
    // Same hot/cold setup as the apportioning test, but under the
    // naive uniform policy the hot partition is taxed equally — the
    // §VI.C downside the PI design exists to avoid. (Aggressive level
    // isolates the apportioning effect from TSF protection.)
    let run = |policy: btrim_core::config::PackPolicy| -> (u64, u64) {
        let e = Engine::new(EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 4 * 1024 * 1024,
            imrs_chunk_size: 1024 * 1024,
            buffer_frames: 1024,
            maintenance_interval_txns: u64::MAX / 2,
            pack_policy: policy,
            ..Default::default()
        });
        let hot = e.create_table(opts("hot")).unwrap();
        let cold = e.create_table(opts("cold")).unwrap();
        fill(&e, &hot, 0, 500, 100);
        fill(&e, &cold, 100_000, 500, 100);
        touch_all(&e, &hot, 0, 500, 20);
        e.run_maintenance();
        for _ in 0..4 {
            pack_cycle(&e, PackLevel::Aggressive);
        }
        let snap = e.snapshot();
        (
            snap.table("hot").unwrap().rows_packed(),
            snap.table("cold").unwrap().rows_packed(),
        )
    };
    let (hot_pi, cold_pi) = run(btrim_core::config::PackPolicy::Partitioned);
    let (hot_uni, cold_uni) = run(btrim_core::config::PackPolicy::UniformNaive);
    // PI: virtually nothing from the hot partition.
    assert!(
        cold_pi > 20 * hot_pi.max(1),
        "PI taxes the cold partition (hot {hot_pi}, cold {cold_pi})"
    );
    // Uniform: the hot partition loses a comparable number of rows.
    assert!(
        hot_uni * 3 >= cold_uni,
        "uniform taxes hot ≈ cold (hot {hot_uni}, cold {cold_uni})"
    );
    assert!(
        hot_uni > 10 * hot_pi.max(1),
        "uniform packs far more hot rows than PI (uniform {hot_uni}, pi {hot_pi})"
    );
}

#[test]
fn tsf_ablation_knob_waives_hotness_at_steady_level() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 4 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        tsf_enabled: false,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    fill(&e, &t, 0, 300, 100);
    touch_all(&e, &t, 0, 300, 10); // recently accessed = hot by recency
    e.run_maintenance();
    // With the TSF disabled, even a *steady* cycle packs the hot rows.
    let freed = pack_cycle(&e, PackLevel::Steady);
    assert!(freed > 0, "steady pack ignores hotness without the TSF");
    assert_eq!(e.snapshot().rows_skipped_hot, 0);
}

/// An engine that was shut down can be started again: the restarted
/// background threads still pack. (While they run, the commit-path
/// maintenance hook is off, so nothing else would.)
#[test]
fn background_threads_pack_again_after_a_shutdown() {
    let e = engine(1024 * 1024);
    let t = e.create_table(opts("t")).unwrap();
    e.spawn_background();
    e.shutdown().unwrap();
    e.spawn_background();
    fill(&e, &t, 0, 8_000, 96); // ~85% of the budget, steady is 70%
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while e.snapshot().rows_packed == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "restarted maintenance threads never packed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    e.shutdown().unwrap();
}

/// A page device whose next `allocate_page` fails once, when armed.
#[derive(Default)]
struct FlakyAlloc {
    inner: btrim_pagestore::MemDisk,
    fail_next: std::sync::atomic::AtomicBool,
}

impl btrim_pagestore::DiskBackend for FlakyAlloc {
    fn read_page(&self, id: btrim_common::PageId, buf: &mut [u8]) -> btrim_common::Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: btrim_common::PageId, buf: &[u8]) -> btrim_common::Result<()> {
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> btrim_common::Result<btrim_common::PageId> {
        if self
            .fail_next
            .swap(false, std::sync::atomic::Ordering::SeqCst)
        {
            return Err(btrim_common::BtrimError::Io(std::io::Error::other(
                "allocation refused",
            )));
        }
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

/// A pack batch whose staging fails after some of its rows landed on a
/// page (the heap cannot open the next page) unstages every copy it
/// placed: the page holds only the rows the RID-Map puts there, the
/// engine stays writable, and a reboot finds every row once.
#[test]
fn a_staging_failure_in_mid_batch_unstages_every_placed_copy() {
    use btrim_core::pack::pack_partition;
    use btrim_wal::MemLog;

    let disk = Arc::new(FlakyAlloc::default());
    let (syslog, imrslog) = (Arc::new(MemLog::new()), Arc::new(MemLog::new()));
    let cfg = || EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 4 << 20,
        imrs_chunk_size: 1 << 20,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    };
    let e = Engine::with_devices(cfg(), disk.clone(), syslog.clone(), imrslog.clone());
    let t = e.create_table(opts("t")).unwrap();
    let part = &t.partitions[0];
    // Two rows first: a page with room for about five more.
    fill(&e, &t, 0, 2, 1000);
    e.step(Actor::Gc);
    pack_partition(&e, part, 1 << 30, PackLevel::Aggressive);
    let on_pages = part.heap.live_rows();
    assert_eq!((on_pages, part.heap.num_pages()), (2, 1));
    fill(&e, &t, 2, 62, 1000);
    e.step(Actor::Gc);
    disk.fail_next
        .store(true, std::sync::atomic::Ordering::SeqCst);
    let freed = pack_partition(&e, part, 1 << 30, PackLevel::Aggressive);
    assert!(
        !disk.fail_next.load(std::sync::atomic::Ordering::SeqCst),
        "the batch never asked for a page"
    );
    assert_eq!(freed, 0, "the failed batch moved rows");
    assert_eq!(
        part.heap.live_rows(),
        on_pages,
        "a staged copy stayed on its page"
    );
    assert!(e.health().writable(), "{:?}", e.health());
    // The rows, back in the queues after a GC visit, pack on the next
    // try, and every page reaches the device.
    e.step(Actor::Gc);
    pack_partition(&e, part, 1 << 30, PackLevel::Aggressive);
    assert_eq!(part.heap.live_rows(), 64);
    e.checkpoint().unwrap();
    drop(e);
    let e = Engine::recover(cfg(), disk, syslog, imrslog, |e| {
        e.create_table(opts("t")).map(|_| ())
    })
    .unwrap();
    let t = e.table("t").unwrap();
    assert_eq!(
        t.partitions[0].heap.live_rows(),
        64,
        "an orphan after reboot"
    );
    let txn = e.begin();
    for k in 0..64u64 {
        assert!(
            e.get(&txn, &t, &k.to_be_bytes()).unwrap().is_some(),
            "row {k}"
        );
    }
    e.commit(txn).unwrap();
}

/// Packing a whole partition asks for `u64::MAX` bytes: the inspection
/// budget saturates instead of overflowing, and every row moves.
#[test]
fn packing_a_whole_partition_with_u64_max_moves_every_row() {
    use btrim_core::pack::pack_partition;

    let e = engine(4 << 20);
    let t = e.create_table(opts("t")).unwrap();
    let part = &t.partitions[0];
    fill(&e, &t, 0, 64, 200);
    e.step(Actor::Gc);
    let freed = pack_partition(&e, part, u64::MAX, PackLevel::Aggressive);
    assert!(freed > 0, "nothing packed");
    assert_eq!(part.heap.live_rows(), 64);
    assert_eq!(e.snapshot().imrs_rows, 0, "a row stayed in the IMRS");
}
