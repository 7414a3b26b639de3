//! Satellite: deterministic trace-vs-snapshot consistency.
//!
//! Runs seeded inline workloads (deterministic maintenance, no
//! background threads) and asserts that the ILM decision trace is a
//! faithful explanation of what the engine actually did:
//!
//! * every tuner disable/re-enable visible in [`EngineSnapshot`] has a
//!   matching trace event, and the inputs recorded in that event really
//!   satisfy the rule it cites;
//! * every pack cycle's per-partition trace bytes sum to the cycle's
//!   `bytes_packed`, and the cycles sum to the engine-wide counter.

use std::sync::Arc;

use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{
    Actor, Engine, EngineConfig, EngineMode, IlmTraceEvent, RowLocation, TunerAction,
    SIDE_STORE_ENTRY_BYTES,
};

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

#[test]
fn tuner_trace_explains_every_toggle() {
    let cfg = EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 2048,
        maintenance_interval_txns: 8,
        tuning_window_txns: 64,
        hysteresis_windows: 2,
        tuning_utilization_floor: 0.10,
        min_new_rows_for_disable: 16,
        min_partition_footprint: 0.01,
        low_reuse_threshold: 0.5,
        reuse_reenable_factor: 2.0,
        // Large enough that nothing is evicted: the trace must be the
        // complete history for the toggle accounting below.
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    };
    let low_reuse_threshold = cfg.low_reuse_threshold;
    let min_new_rows = cfg.min_new_rows_for_disable;
    let util_floor = cfg.tuning_utilization_floor;
    let min_footprint = cfg.min_partition_footprint;
    let contention_threshold = btrim_core::tuner::CONTENTION_REENABLE_THRESHOLD;
    let reenable_factor = cfg.reuse_reenable_factor;
    let hysteresis = cfg.hysteresis_windows;
    let e = Engine::new(cfg);
    let log = e.create_table(opts("log")).unwrap();
    let conf = e.create_table(opts("conf")).unwrap();
    {
        let mut txn = e.begin();
        for i in 0..32u64 {
            e.insert(&mut txn, &conf, &mkrow(i, &[7u8; 64])).unwrap();
        }
        e.commit(txn).unwrap();
    }

    // Phase 1: insert-only `log` under pressure → tuner disables it.
    let mut next_key = 1_000u64;
    for _ in 0..2_000 {
        let mut txn = e.begin();
        e.insert(&mut txn, &log, &mkrow(next_key, &[1u8; 160]))
            .unwrap();
        next_key += 1;
        e.get(&txn, &conf, &(next_key % 32).to_be_bytes())
            .unwrap()
            .unwrap();
        e.commit(txn).unwrap();
    }
    assert!(
        !e.snapshot().table("log").unwrap().partitions[0].ilm_enabled,
        "workload must drive the disable under test"
    );

    // Phase 2: heavy reads of `log` rows → re-enabled on demand growth.
    for round in 0..3_000u64 {
        let txn = e.begin();
        for k in 0..8u64 {
            let key = (1_000 + (round * 8 + k) % 1_500).to_be_bytes();
            let _ = e.get(&txn, &log, &key).unwrap();
        }
        e.commit(txn).unwrap();
        if e.snapshot().table("log").unwrap().partitions[0].ilm_enabled {
            break;
        }
    }
    let snap = e.snapshot();
    assert!(snap.table("log").unwrap().partitions[0].ilm_enabled);

    // The trace is complete (nothing evicted) …
    let obs = e.obs();
    assert_eq!(obs.trace.dropped(), 0, "ring sized too small for the run");
    let tuner_events: Vec<_> = obs
        .trace
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            IlmTraceEvent::Tuner(t) => Some(t),
            _ => None,
        })
        .collect();

    // … and every toggle the snapshot reports has a trace event: the
    // per-partition `ilm_toggles` counters and the `is_toggle` events
    // must agree exactly.
    let snapshot_toggles: u64 = snap
        .tables
        .iter()
        .flat_map(|t| t.partitions.iter())
        .map(|p| p.ilm_toggles)
        .sum();
    let traced_toggles = tuner_events.iter().filter(|t| t.action.is_toggle()).count() as u64;
    assert!(snapshot_toggles >= 3, "disable ×2 + re-enable expected");
    assert_eq!(snapshot_toggles, traced_toggles);

    // Each traced verdict carries inputs that satisfy its cited rule.
    let budget = snap.imrs_budget;
    for t in &tuner_events {
        assert!(t.votes >= 1 && t.votes <= t.votes_needed);
        assert_eq!(t.votes_needed, hysteresis);
        let applied = t.action.is_toggle();
        if applied {
            assert_eq!(t.votes, t.votes_needed, "toggle before hysteresis met");
        } else {
            assert!(t.votes < t.votes_needed, "vote event after threshold");
        }
        match t.action {
            TunerAction::VoteDisable | TunerAction::DisabledStage1 | TunerAction::DisabledFull => {
                assert_eq!(t.rule, "low-reuse");
                assert!(
                    t.avg_reuse < low_reuse_threshold,
                    "disable with reuse {} ≥ threshold",
                    t.avg_reuse
                );
                assert!(t.rows_in >= min_new_rows, "disable without growth");
                assert!(t.utilization >= util_floor, "disable below floor");
                assert!(
                    t.footprint_bytes >= (min_footprint * budget as f64) as u64,
                    "disable of negligible partition"
                );
            }
            TunerAction::VoteEnable | TunerAction::Reenabled => match t.rule {
                "contention" => {
                    assert!(t.page_contention >= contention_threshold);
                }
                "demand-growth" => {
                    assert!(
                        t.activity as f64 >= reenable_factor * t.activity_baseline.max(1) as f64,
                        "re-enable without demand growth: {} vs baseline {}",
                        t.activity,
                        t.activity_baseline
                    );
                }
                other => panic!("unknown re-enable rule {other}"),
            },
        }
    }
    // Window ordinals never decrease and stay within the windows run.
    let mut prev_window = 0;
    for t in &tuner_events {
        assert!(t.window >= prev_window);
        assert!(t.window <= snap.tuning_windows);
        prev_window = t.window;
    }
}

#[test]
fn pack_trace_bytes_sum_to_bytes_packed() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 4 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    });
    let hot = e.create_table(opts("hot")).unwrap();
    let cold = e.create_table(opts("cold")).unwrap();
    let mut txn = e.begin();
    for i in 0..500u64 {
        e.insert(&mut txn, &hot, &mkrow(i, &[0xAA; 100])).unwrap();
        e.insert(&mut txn, &cold, &mkrow(100_000 + i, &[0xBB; 100]))
            .unwrap();
    }
    e.commit(txn).unwrap();
    // Re-read `hot` rows so the partitions diverge in UI.
    for _ in 0..20 {
        let txn = e.begin();
        for i in 0..500u64 {
            e.get(&txn, &hot, &i.to_be_bytes()).unwrap().unwrap();
        }
        e.commit(txn).unwrap();
    }
    e.run_maintenance(); // GC feeds the ILM queues

    for _ in 0..10 {
        pack_cycle(&e, PackLevel::Steady);
    }

    let snap = e.snapshot();
    let obs = e.obs();
    assert_eq!(obs.trace.dropped(), 0);
    let pack_events: Vec<_> = obs
        .trace
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            IlmTraceEvent::Pack(p) => Some(p),
            _ => None,
        })
        .collect();
    assert!(!pack_events.is_empty(), "cycles must have been traced");
    // One trace event per counted cycle, ordinals strictly increasing.
    assert_eq!(pack_events.len() as u64, snap.pack_cycles);
    for w in pack_events.windows(2) {
        assert!(w[0].cycle < w[1].cycle);
    }
    for p in &pack_events {
        // Per-partition bytes sum exactly to the cycle's total.
        let part_sum: u64 = p.partitions.iter().map(|s| s.bytes_packed).sum();
        assert_eq!(part_sum, p.bytes_packed, "cycle {} bytes mismatch", p.cycle);
        for s in &p.partitions {
            // Unscanned partitions (pi-gated) packed nothing.
            if !s.scanned {
                assert_eq!(s.bytes_packed, 0);
                assert_eq!(s.rows_skipped_hot, 0);
            }
            // Apportioning shares are sane.
            assert!(s.pi >= 0.0 && s.pi <= 1.0 + 1e-9);
        }
        // The PI shares of one cycle sum to 1 (Partitioned policy).
        let pi_sum: f64 = p.partitions.iter().map(|s| s.pi).sum();
        assert!((pi_sum - 1.0).abs() < 1e-6, "PI sum {pi_sum}");
    }
    // And the cycles sum to the engine-wide pack counter.
    let traced_total: u64 = pack_events.iter().map(|p| p.bytes_packed).sum();
    assert_eq!(traced_total, snap.bytes_packed);
    assert!(traced_total > 0, "workload must actually pack bytes");
}

/// The checkpoint actor keeps both logs to live data: after a long
/// inline run that trips it several times, each log's appended records
/// minus the truncated ones the trace reports are the records it
/// retains, and at every maintenance pass the retained bytes stay under
/// the bound DESIGN.md "Restart & checkpointing" states — the trigger's
/// threshold, plus the last image, plus one pass of appends.
#[test]
fn truncation_is_conserved_and_the_logs_stay_bounded() {
    use btrim_core::checkpoint::{CHECKPOINT_LOG_MULTIPLE, CHECKPOINT_MIN_LOG_BYTES};
    use btrim_wal::{LogSink, MemLog};
    let budget = 1u64 << 20;
    let (syslog, imrslog) = (Arc::new(MemLog::new()), Arc::new(MemLog::new()));
    let e = Engine::with_devices(
        EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: budget,
            imrs_chunk_size: 128 * 1024,
            buffer_frames: 1024,
            maintenance_interval_txns: 64,
            obs_trace_capacity: 1 << 16,
            ..Default::default()
        },
        Arc::new(btrim_pagestore::MemDisk::new()),
        syslog.clone(),
        imrslog.clone(),
    );
    let t = e.create_table(opts("t")).unwrap();
    let keys = 1_500u64;
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let (mut image, mut peak) = (0u64, 0u64);
    for i in 0..40_000u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let row = mkrow(s % keys, &[i as u8; 500]);
        let mut txn = e.begin();
        if i < keys {
            e.insert(&mut txn, &t, &mkrow(i, &[0; 500])).unwrap();
        } else {
            e.update(&mut txn, &t, &row[..8], &row).unwrap();
        }
        e.commit(txn).unwrap();
        let resident = syslog.byte_size() + imrslog.byte_size();
        if i % 64 == 0 {
            let snap = e.snapshot();
            let reported = snap.syslog_resident_bytes + snap.imrslog_resident_bytes;
            assert_eq!(reported, resident);
            for ev in &snap.ilm_trace {
                if let IlmTraceEvent::Checkpoint(c) = ev {
                    image = image.max(c.image_bytes);
                }
            }
        }
        // The image before the first checkpoint is no bigger than the
        // budget; a pass of 64 commits appends well under 1 MiB.
        let threshold = CHECKPOINT_MIN_LOG_BYTES.max(CHECKPOINT_LOG_MULTIPLE * budget);
        let bound = threshold + image.max(budget) + (1 << 20);
        assert!(
            resident <= bound,
            "txn {i}: {resident} B retained, bound {bound}"
        );
        peak = peak.max(resident);
    }
    let (mut truncated, mut checkpoints) = ((0u64, 0u64), 0);
    for ev in e.obs().trace.events() {
        if let IlmTraceEvent::Checkpoint(c) = ev {
            truncated = (
                truncated.0 + c.syslog_truncated,
                truncated.1 + c.imrslog_truncated,
            );
            checkpoints += 1;
        }
    }
    assert_eq!(e.obs().trace.dropped(), 0);
    assert!(checkpoints >= 2, "{checkpoints} checkpoints, peak {peak} B");
    for (log, truncated, name) in [
        (&syslog, truncated.0, "syslogs"),
        (&imrslog, truncated.1, "sysimrslogs"),
    ] {
        let retained = log.read_all().unwrap().len() as u64;
        assert!(truncated > 0, "{name} truncated nothing");
        assert_eq!(log.record_count() - truncated, retained, "{name}");
    }
}

/// A maintenance tick sizes its pack cycle to the steady line: every
/// tick-driven cycle packs `min(5 % of live bytes, over_steady_bytes)`,
/// the live bytes being the line, that overshoot and what partitions
/// already owed; and the snapshot's export carries the cycles' sizing.
#[test]
fn tick_cycles_are_sized_to_the_steady_line() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 2048,
        steady_utilization: 0.60,
        maintenance_interval_txns: u64::MAX / 2,
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    });
    let hot = e.create_table(opts("hot")).unwrap();
    let log = e.create_table(opts("log")).unwrap();
    // Far above the line: the first tick's cycles are capped at 5 %.
    let mut txn = e.begin();
    for i in 0..8_000u64 {
        e.insert(&mut txn, &hot, &mkrow(i, &[0xAA; 96])).unwrap();
    }
    e.commit(txn).unwrap();
    for tick in 0..60u64 {
        let mut txn = e.begin();
        for i in 0..96 {
            e.insert(&mut txn, &log, &mkrow(tick * 96 + i, &[0xBB; 96]))
                .unwrap();
        }
        for i in 0..64u64 {
            let _ = e.get(&txn, &hot, &(7_000 + i).to_be_bytes()).unwrap();
        }
        e.commit(txn).unwrap();
        e.run_maintenance();
    }

    let snap = e.snapshot();
    assert_eq!(e.obs().trace.dropped(), 0);
    let line = (0.60 * snap.imrs_budget as f64) as u64;
    let (mut capped, mut to_line) = (0, 0);
    for ev in e.obs().trace.events() {
        let IlmTraceEvent::Pack(p) = ev else { continue };
        let owed: u64 = p.partitions.iter().map(|s| s.owed_bytes).sum();
        let five_pct = ((line + p.over_steady_bytes + owed) as f64 * 0.05) as u64;
        assert_eq!(
            p.num_bytes_to_pack,
            five_pct.min(p.over_steady_bytes),
            "cycle {}",
            p.cycle
        );
        match five_pct < p.over_steady_bytes {
            true => capped += 1,
            false => to_line += 1,
        }
    }
    assert!(
        capped > 0 && to_line > 20,
        "{capped} capped, {to_line} to the line"
    );
    assert!(snap.to_json().contains("\"over_steady_bytes\":"));
}

/// Engine-wide activity and pack totals are the sums of the
/// per-partition counters of the same snapshot — exactly, while clients
/// and maintenance run, because there is one counter per fact and a
/// snapshot reads it once. And the decision trace only ever names data
/// partitions: an index partition's id (they share the id space) never
/// acquires a verdict. At quiescence, after all that packing, every byte
/// of the IMRS chunks is used, quarantined or free.
#[test]
fn engine_totals_are_partition_sums_while_clients_and_maintenance_run() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        // Smaller than the data, so pack runs and inserts spill to pages.
        imrs_budget: 512 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 1024,
        // Maintenance has its own thread below.
        maintenance_interval_txns: u64::MAX / 2,
        tuning_window_txns: 64,
        hysteresis_windows: 2,
        // Above the steady threshold: the tuner votes only once pack is
        // already working, so both leave traces.
        tuning_utilization_floor: 0.72,
        min_new_rows_for_disable: 16,
        min_partition_footprint: 0.01,
        low_reuse_threshold: 0.5,
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    });
    let wide = e
        .create_table(TableOpts {
            partitioner: Partitioner::HashKey { parts: 4 },
            ..opts("wide")
        })
        .unwrap();
    let narrow = e.create_table(opts("narrow")).unwrap();

    let check = |snap: &btrim_core::EngineSnapshot| {
        let parts = || snap.tables.iter().flat_map(|t| &t.partitions);
        let sum = |f: fn(&btrim_core::stats::PartitionSnapshot) -> u64| parts().map(f).sum::<u64>();
        assert_eq!(snap.rows_packed, sum(|p| p.rows_packed));
        assert_eq!(snap.bytes_packed, sum(|p| p.bytes_packed));
        assert_eq!(snap.rows_skipped_hot, sum(|p| p.rows_skipped_hot));
        assert_eq!(snap.imrs_ops, sum(|p| p.reuse_ops + p.imrs_inserts));
        assert_eq!(snap.page_ops, sum(|p| p.page_ops));
        assert_eq!(snap.queue_total as u64, sum(|p| p.queue_len as u64));
    };

    let stop = AtomicBool::new(false);
    let snapshots = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|c| {
                let (e, wide, narrow) = (&e, &wide, &narrow);
                s.spawn(move || {
                    for i in 0..3_000u64 {
                        let key = (c << 40) | i;
                        let mut txn = e.begin();
                        e.insert(&mut txn, wide, &mkrow(key, &[c as u8; 120]))
                            .unwrap();
                        if i % 4 == 0 {
                            e.insert(&mut txn, narrow, &mkrow(key, &[9; 40])).unwrap();
                        }
                        // An old row: by now packed, so the read charges
                        // a page op and may cache the row back.
                        let old = ((c << 40) | (i / 2)).to_be_bytes();
                        assert!(e.get(&txn, wide, &old).unwrap().is_some());
                        e.commit(txn).unwrap();
                    }
                })
            })
            .collect();
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                e.run_maintenance();
            }
        });
        let mut snapshots = 0u64;
        while !clients.iter().all(|c| c.is_finished()) {
            check(&e.snapshot());
            snapshots += 1;
        }
        stop.store(true, Ordering::Relaxed);
        snapshots
    });
    assert!(snapshots > 0, "no snapshot was taken while the clients ran");

    let snap = e.snapshot();
    check(&snap);
    assert!(
        snap.rows_packed > 0 && snap.page_ops > 0 && snap.queue_total > 0,
        "packed {} page_ops {} queued {} util {}",
        snap.rows_packed,
        snap.page_ops,
        snap.queue_total,
        snap.imrs_utilization
    );
    assert_eq!(e.obs().trace.dropped(), 0);
    let data_partitions: Vec<u64> = snap
        .tables
        .iter()
        .flat_map(|t| &t.partitions)
        .map(|p| p.partition.0 as u64)
        .collect();
    assert_eq!(data_partitions, [1, 2, 3, 4, 6], "5 and 7 are the indexes'");
    let (mut tuner_events, mut pack_events) = (0, 0);
    for ev in e.obs().trace.events() {
        let named: Vec<u64> = match ev {
            IlmTraceEvent::Tuner(t) => {
                tuner_events += 1;
                vec![t.partition]
            }
            IlmTraceEvent::Pack(p) => {
                pack_events += 1;
                p.partitions.iter().map(|s| s.partition).collect()
            }
            _ => continue,
        };
        for p in named {
            assert!(data_partitions.contains(&p), "trace names partition {p}");
        }
    }
    assert!(tuner_events > 0 && pack_events > 0, "both must be traced");

    // One row directory: at quiescence a sweep of it, the per-partition
    // counters and the engine total count the same rows, and each is
    // where the RID-Map says.
    e.run_maintenance();
    let snap = e.snapshot();
    let residents = e.imrs_residents();
    let by_partition = snap.tables.iter().flat_map(|t| &t.partitions);
    assert!(!residents.is_empty());
    assert_eq!(residents.len(), snap.imrs_rows);
    assert_eq!(
        residents.len() as u64,
        by_partition.map(|p| p.imrs_rows).sum::<u64>()
    );
    assert!(residents.windows(2).all(|w| w[0].0 < w[1].0), "RowId order");
    for (row, loc) in residents {
        assert_eq!(loc, Some(RowLocation::Imrs), "{row:?}");
    }
    assert_eq!(
        snap.imrs_chunk_bytes,
        snap.imrs_used_bytes + snap.imrs_quarantined_bytes + snap.imrs_free_bytes,
        "chunk = used + quarantined + free"
    );
    assert!(snap.imrs_free_bytes > 0 && snap.imrs_chunk_bytes <= snap.imrs_budget);
    let json = snap.to_json();
    assert!(json.contains(&format!("\"imrs_free_bytes\":{}", snap.imrs_free_bytes)));
    assert!(json.contains(&format!("\"imrs_chunk_bytes\":{}", snap.imrs_chunk_bytes)));
}

/// Every `get` / `read_row` issued lands in exactly one select class —
/// hits on either tier, index misses, and rows that resolve to nothing
/// (deleted, tombstoned) alike. A read that vanished from the
/// histograms would make `count` useless as a denominator.
#[test]
fn every_select_is_counted_exactly_once() {
    use btrim_core::OpClass;
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    let mut txn = e.begin();
    let rids: Vec<_> = (0..400u64)
        .map(|i| e.insert(&mut txn, &t, &mkrow(i, &[0xCC; 64])).unwrap())
        .collect();
    e.commit(txn).unwrap();
    // Spread the rows over both tiers.
    e.run_maintenance();
    while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
    let snap = e.snapshot();
    assert!(snap.rows_packed > 0, "some rows must be page-resident");

    let selects = |e: &Engine| -> (u64, u64) {
        let count_of = |class: OpClass| {
            e.obs()
                .summaries()
                .iter()
                .find(|(c, _)| *c == class)
                .map_or(0, |(_, s)| s.count)
        };
        (count_of(OpClass::SelectImrs), count_of(OpClass::SelectPage))
    };
    let (imrs0, page0) = selects(&e);
    let mut issued = 0u64;

    // Delete a few rows from each tier, uncommitted: their keys are
    // unhooked at once, their RowIds resolve to nothing for the deleter.
    let mut w = e.begin();
    for i in (0..400u64).step_by(40) {
        assert!(e.delete(&mut w, &t, &i.to_be_bytes()).unwrap());
    }
    let r = e.begin();
    for i in 0..400u64 {
        let hit = e.get(&r, &t, &i.to_be_bytes()).unwrap();
        assert_eq!(hit.is_some(), i % 40 != 0, "key {i}");
        issued += 1;
    }
    for i in 1_000..1_050u64 {
        assert!(e.get(&r, &t, &i.to_be_bytes()).unwrap().is_none());
        issued += 1;
    }
    for (i, rid) in rids.iter().enumerate() {
        let seen = e.read_row(&r, &t, *rid, false).unwrap();
        assert!(seen.is_some(), "row {i}: the delete is not committed");
        assert!(e.read_row(&w, &t, *rid, false).unwrap().is_some() == (i % 40 != 0));
        issued += 2;
    }
    e.commit(r).unwrap();
    e.commit(w).unwrap();

    let (imrs1, page1) = selects(&e);
    assert!(imrs1 > imrs0 && page1 > page0, "both tiers were read");
    assert_eq!(
        (imrs1 - imrs0) + (page1 - page0),
        issued,
        "Σ select-class counts must equal the reads issued"
    );
}

/// `SnapshotRead` counts snapshot point reads — `get_snapshot` and
/// `read_row_snapshot` — and nothing else: an analytic scan's row
/// resolutions, on every tier, belong to its one `AnalyticScan` span.
/// Were they counted, the class would describe scan rows, which
/// outnumber point reads a thousandfold on an HTAP mix.
#[test]
fn scans_leave_the_snapshot_read_count_alone() {
    use btrim_core::catalog::{FieldKind, RowLayout};
    use btrim_core::{OpClass, ScanSpec};
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let layout = RowLayout::new(&[
        ("k_hi", FieldKind::BeU32),
        ("k_lo", FieldKind::BeU32),
        ("v", FieldKind::U64),
    ]);
    let t = e.create_table(opts("t").with_layout(layout)).unwrap();
    // Rows on both tiers: the scan evaluates the IMRS rows in its
    // sweep and resolves the page rows as candidates.
    const N: u64 = 400;
    let insert = |keys: std::ops::Range<u64>| {
        let mut txn = e.begin();
        let rids: Vec<_> = keys
            .map(|i| e.insert(&mut txn, &t, &mkrow(i, &i.to_le_bytes())).unwrap())
            .collect();
        e.commit(txn).unwrap();
        rids
    };
    let rids = insert(0..N / 2);
    e.run_maintenance();
    while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
    insert(N / 2..N);

    let count_of = |class: OpClass| {
        e.obs()
            .summaries()
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0, |(_, s)| s.count)
    };
    let snap = e.begin_snapshot();
    let (reads0, scans0) = (
        count_of(OpClass::SnapshotRead),
        count_of(OpClass::AnalyticScan),
    );
    let spec = ScanSpec {
        filters: Vec::new(),
        sums: vec!["v".into()],
    };
    let res = e.analytic_scan(&snap, &t, &spec).unwrap();
    assert_eq!(res.rows_scanned, N);
    assert!(
        res.imrs_rows > 0 && res.page_rows > 0,
        "both tiers were scanned: {res:?}"
    );
    assert_eq!(
        count_of(OpClass::SnapshotRead),
        reads0,
        "a scan is not a snapshot read"
    );
    assert_eq!(count_of(OpClass::AnalyticScan), scans0 + 1);

    assert!(e
        .get_snapshot(&snap, &t, &7u64.to_be_bytes())
        .unwrap()
        .is_some());
    assert_eq!(count_of(OpClass::SnapshotRead), reads0 + 1);
    assert!(e.read_row_snapshot(&snap, &t, rids[9]).unwrap().is_some());
    assert_eq!(count_of(OpClass::SnapshotRead), reads0 + 2);
    e.end_snapshot(snap);
}

/// `committed_txns` / `aborted_txns` count *user* transactions: what
/// `Engine::commit` acknowledged and what `Engine::abort` rolled back.
/// Row movement runs as internal mini-transactions in every direction
/// here — cache, migrate (including attempts the full IMRS turns
/// away), pack, freeze, thaw — and none of it may tick either counter:
/// `committed_txns` paces maintenance and the tuner window, and
/// `aborted_txns` is reported as user rollbacks.
#[test]
fn txn_counters_count_user_transactions_only() {
    use btrim_core::Actor;
    use btrim_core::OpClass;
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        // Smaller than the data: inserts spill to pages, and migrations
        // of spilled rows meet a full IMRS.
        imrs_budget: 128 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 1024,
        // Maintenance only between rounds: within one, nothing packs
        // and pack's reject-new backpressure stays off, so the second
        // pass of updates really does fill the IMRS.
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 8,
        ..Default::default()
    });
    let t = e.create_table(opts("t")).unwrap();
    // [commits acknowledged, aborts], by this test's own count.
    let tally = std::cell::Cell::new([0u64; 2]);
    let count = |i: usize| {
        let mut t = tally.get();
        t[i] += 1;
        tally.set(t);
    };
    let write = |key: u64, fill: u8, insert: bool, keep: bool| {
        let mut txn = e.begin();
        let image = mkrow(key, &[fill; 120]);
        // A full IMRS turns a migration away silently (the write
        // proceeds on the page), but fails the update of a row already
        // resident — roll that one back like any failed statement.
        let done = match insert {
            true => e.insert(&mut txn, &t, &image).map(|_| true),
            false => e.update(&mut txn, &t, &key.to_be_bytes(), &image),
        };
        if keep && done.is_ok_and(|found| found) {
            e.commit(txn).unwrap();
            count(0);
        } else {
            e.abort(txn);
            count(1);
        }
    };
    for key in 0..1_500u64 {
        write(key, 1, true, true);
        if key % 10 == 0 {
            write(1_000_000 + key, 1, true, false);
        }
    }
    for round in 0..4u8 {
        // Everything cold goes to pages, then into extents …
        e.run_maintenance();
        while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
        while e.step(Actor::Freeze) > 0 {}
        // … and writes bring rows back, with the odd rollback: the
        // first update of a frozen row thaws it, the second migrates it
        // (or is turned away by the full IMRS and stays on its page).
        for pass in 0..2 {
            for key in 0..1_500u64 {
                write(key, 2 + round, false, (key + pass) % 9 != 0);
            }
        }
        // Point reads try to cache what the IMRS had no room for.
        let txn = e.begin();
        for key in 0..1_500u64 {
            e.get(&txn, &t, &key.to_be_bytes()).unwrap().unwrap();
        }
        e.commit(txn).unwrap();
        count(0);
    }
    let snap = e.snapshot();
    let summaries = e.obs().summaries();
    let migrations = summaries.iter().find(|(c, _)| *c == OpClass::Migration);
    assert!(
        migrations.is_some_and(|(_, s)| s.count > 0),
        "no cache/migrate"
    );
    assert!(snap.rows_packed > 0 && snap.rows_frozen > 0 && snap.rows_thawed > 0);
    let [commits, aborts] = tally.get();
    assert_eq!(
        snap.committed_txns, commits,
        "Engine::commit calls that returned Ok"
    );
    assert_eq!(snap.aborted_txns, aborts, "Engine::abort calls");
}

/// A log device that counts its barriers.
#[derive(Default)]
struct CountedLog {
    inner: btrim_wal::MemLog,
    flushes: std::sync::atomic::AtomicU64,
}

impl btrim_wal::LogSink for CountedLog {
    fn append(&self, payload: &[u8]) -> btrim_core::Result<btrim_common::Lsn> {
        self.inner.append(payload)
    }
    fn append_batch(&self, payloads: &[&[u8]]) -> btrim_core::Result<btrim_wal::LsnRange> {
        self.inner.append_batch(payloads)
    }
    fn flush(&self) -> btrim_core::Result<()> {
        self.flushes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.flush()
    }
    fn read_all(&self) -> btrim_core::Result<Vec<(btrim_common::Lsn, Vec<u8>)>> {
        self.inner.read_all()
    }
    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }
    fn byte_size(&self) -> u64 {
        self.inner.byte_size()
    }
    fn truncate_prefix(&self, upto: btrim_common::Lsn) -> btrim_core::Result<()> {
        self.inner.truncate_prefix(upto)
    }
}

/// The commit-shape counters are conserved against `committed_txns`,
/// and under `durable_commits` they bound the barriers a workload
/// pays: one per log a commit wrote. The one barrier a commit pays for
/// records not its own — sysimrslogs ahead of syslogs while a
/// foreground move's sysimrslogs half is volatile — can only add to a
/// page-only commit, so `imrs_only / committed_txns` is the share of a
/// workload that is a one-flush commit.
#[test]
fn commit_shapes_sum_to_commits_and_bound_the_barriers() {
    let (syslog, imrslog) = (
        Arc::new(CountedLog::default()),
        Arc::new(CountedLog::default()),
    );
    let e = Engine::with_devices(
        EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 4 * 1024 * 1024,
            imrs_chunk_size: 128 * 1024,
            buffer_frames: 1024,
            durable_commits: true,
            // No inline maintenance: the only background batches and
            // checkpoints are the ones staged below, before the
            // counters are read.
            maintenance_interval_txns: u64::MAX / 2,
            ..Default::default()
        },
        Arc::new(btrim_pagestore::MemDisk::new()),
        syslog.clone(),
        imrslog.clone(),
    );
    let hot = e.create_table(opts("hot")).unwrap();
    let cold = e
        .create_table(TableOpts {
            imrs_enabled: false,
            ..opts("cold")
        })
        .unwrap();
    let key = |k: u64| k.to_be_bytes();
    // Stage: every `hot` row on its page, everything durable.
    for k in 0..200u64 {
        let mut txn = e.begin();
        e.insert(&mut txn, &hot, &mkrow(k, &[1; 40])).unwrap();
        e.insert(&mut txn, &cold, &mkrow(k, &[1; 40])).unwrap();
        e.commit(txn).unwrap();
    }
    e.run_maintenance();
    while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
    e.checkpoint().unwrap();

    let flushes = || {
        let load = |log: &CountedLog| log.flushes.load(std::sync::atomic::Ordering::Relaxed);
        (load(&imrslog), load(&syslog))
    };
    let (before, flushes_before) = (e.snapshot(), flushes());
    let mut aborted = 0;
    for k in 0..200u64 {
        let mut txn = e.begin();
        match k % 5 {
            // Read-only; the `get` caches the row and flushes nothing,
            // so the page-only commit next finds the move volatile.
            0 => assert!(e.get(&txn, &hot, &key(k)).unwrap().is_some()),
            // Page-only.
            1 => assert!(e
                .update(&mut txn, &cold, &key(k), &mkrow(k, &[2; 40]))
                .unwrap()),
            // IMRS-only: the prologue migrates the row.
            2 => assert!(e
                .update(&mut txn, &hot, &key(k), &mkrow(k, &[2; 40]))
                .unwrap()),
            // Mixed.
            3 => {
                e.insert(&mut txn, &hot, &mkrow(1_000 + k, &[2; 40]))
                    .unwrap();
                assert!(e.delete(&mut txn, &cold, &key(k)).unwrap());
            }
            // Rolled back.
            _ => {
                e.insert(&mut txn, &hot, &mkrow(2_000 + k, &[2; 40]))
                    .unwrap();
                e.abort(txn);
                aborted += 1;
                continue;
            }
        }
        e.commit(txn).unwrap();
    }
    let (after, flushes_after) = (e.snapshot(), flushes());

    let shapes = |s: &btrim_core::EngineSnapshot| {
        [
            s.commits_imrs_only,
            s.commits_page_only,
            s.commits_mixed,
            s.commits_read_only,
        ]
    };
    for snap in [&before, &after] {
        assert_eq!(
            shapes(snap).iter().sum::<u64>(),
            snap.committed_txns,
            "every commit has exactly one shape: {:?}",
            shapes(snap)
        );
    }
    let delta: Vec<u64> = std::iter::zip(shapes(&after), shapes(&before))
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(delta, [40, 40, 40, 40], "the mix above, {aborted} aborted");
    let [imrs_only, page_only, mixed, _read_only] = delta[..] else {
        unreachable!()
    };
    let imrs_barriers = flushes_after.0 - flushes_before.0;
    let sys_barriers = flushes_after.1 - flushes_before.1;
    // One client, no background batch, no checkpoint in the window:
    // nothing shares a barrier and nothing else asks for one.
    assert_eq!(sys_barriers, page_only + mixed, "syslogs barriers");
    assert!(
        (imrs_only + mixed..=imrs_only + mixed + page_only).contains(&imrs_barriers),
        "sysimrslogs barriers {imrs_barriers} vs {delta:?}"
    );
    assert!(
        imrs_barriers > imrs_only + mixed,
        "no page-only commit met a volatile move: the mix no longer exercises that barrier"
    );
}

/// The JSON export carries the counters the dashboard shows, the
/// buffer's I/O-error and contention counts and the GC backlog among
/// them. Distinct values, so a key printing the wrong field fails too.
#[test]
fn json_export_carries_every_snapshot_counter() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 1024 * 1024,
        imrs_chunk_size: 128 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let mut snap = e.snapshot();
    snap.gc_backlog = 9_001;
    let b = &mut snap.buffer;
    b.flushes = 9_002;
    b.latch_contention = 9_003;
    b.shard_lock_contention = 9_004;
    b.io_waits = 9_005;
    b.io_errors = 9_006;
    b.io_retries = 9_007;
    b.checksum_failures = 9_008;
    let json = snap.to_json();
    btrim_core::obs_json::validate(&json).unwrap();
    assert!(json.contains("\"gc_backlog\":9001"), "{json}");
    let at = json.find("\"buffer\":{").expect("buffer object");
    let buffer = &json[at..at + json[at..].find('}').unwrap()];
    for (key, value) in [
        ("flushes", 9_002),
        ("latch_contention", 9_003),
        ("shard_lock_contention", 9_004),
        ("io_waits", 9_005),
        ("io_errors", 9_006),
        ("io_retries", 9_007),
        ("checksum_failures", 9_008),
    ] {
        assert!(
            buffer.contains(&format!("\"{key}\":{value}")),
            "{key} in {buffer}"
        );
    }
}

/// Every row a partition froze is live in one of its installed extents
/// or counted as having left them (thawed for a write, or dissolved):
/// frozen = live + thawed, per partition, through freezes, thaws,
/// deletes, dissolves and directory removals. The freeze verdict and
/// each dissolve are traced with the counts they read, and the traces
/// add up to the snapshot's counters.
#[test]
fn frozen_rows_are_live_in_extents_or_thawed_per_partition() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 4 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        buffer_frames: 1024,
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 4,
        freeze_max_rows: 30,
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    });
    let t = e
        .create_table(TableOpts {
            partitioner: Partitioner::HashKey { parts: 4 },
            ..opts("cold")
        })
        .unwrap();
    let conserved = |e: &Engine| {
        let snap = e.snapshot();
        let table = snap.tables.iter().find(|t| t.name == "cold").unwrap();
        for p in &table.partitions {
            let mut live = 0;
            e.extent_store().for_each(|ext| {
                if ext.partition() == p.partition {
                    live += ext.live_count();
                }
            });
            assert_eq!(
                p.rows_frozen,
                live + p.rows_thawed,
                "partition {}: frozen = live in extents + thawed",
                p.partition.0
            );
        }
        let mut installed = 0;
        e.extent_store().for_each(|_| installed += 1);
        assert_eq!(snap.frozen_extents, installed, "installed extents");
        snap
    };
    let mut txn = e.begin();
    for key in 0..600u64 {
        e.insert(&mut txn, &t, &mkrow(key, &[1; 40])).unwrap();
    }
    e.commit(txn).unwrap();
    let mut rng = 0x0B5_F00D_u64;
    for round in 0..6u64 {
        e.run_maintenance();
        while pack_cycle(&e, PackLevel::Aggressive) > 0 {}
        e.step(btrim_core::Actor::Freeze);
        conserved(&e);
        // Writes thaw a scattering of frozen rows; a few go for good.
        let mut txn = e.begin();
        for _ in 0..150 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = rng % 600;
            if round % 2 == 1 && key.is_multiple_of(7) {
                e.delete(&mut txn, &t, &key.to_be_bytes()).unwrap();
            } else {
                e.update(&mut txn, &t, &key.to_be_bytes(), &mkrow(key, &[2; 40]))
                    .unwrap();
            }
        }
        e.commit(txn).unwrap();
        conserved(&e);
    }
    for _ in 0..4 {
        e.step(btrim_core::Actor::Freeze);
    }
    let snap = conserved(&e);
    assert!(snap.rows_frozen > 0 && snap.rows_thawed > 0, "{snap:?}");

    let mut dissolved = 0;
    let mut stopped = Vec::new();
    for ev in &snap.ilm_trace {
        match ev {
            IlmTraceEvent::Dissolve(d) => {
                assert!(
                    4 * d.rows_live < d.rows,
                    "dissolved a quarter-live extent: {d:?}"
                );
                assert!(d.rows_thawed + d.rows_skipped_hot <= d.rows_live, "{d:?}");
                dissolved += d.rows_thawed;
            }
            IlmTraceEvent::FreezeVerdict(v) => {
                assert!(4 * v.rows_thawed > v.rows_frozen, "{v:?}");
                assert!(!stopped.contains(&v.partition), "a verdict is traced once");
                stopped.push(v.partition);
            }
            _ => {}
        }
    }
    assert_eq!(
        dissolved, snap.rows_dissolved,
        "dissolve traces sum to the counter"
    );
    assert!(
        dissolved > 0 && !stopped.is_empty(),
        "no dissolve, or no verdict"
    );
    let table = snap.tables.iter().find(|t| t.name == "cold").unwrap();
    for p in &table.partitions {
        let stops = 4 * p.rows_thawed > p.rows_frozen;
        assert_eq!(
            stopped.contains(&(p.partition.0 as u64)),
            stops,
            "partition {} traced its verdict iff it stopped freezing",
            p.partition.0
        );
    }
}

/// The side store's bytes are what its entries hold: each entry's
/// `SIDE_STORE_ENTRY_BYTES` plus its before-image (none for an
/// insert's absent marker); an abort takes its entries with it. With
/// no snapshot open, one GC step drains entries and bytes to 0.
#[test]
fn side_store_bytes_are_the_sum_of_entry_costs_and_drain_at_quiesce() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::PageOnly,
        buffer_frames: 256,
        maintenance_interval_txns: u64::MAX / 2,
        ..Default::default()
    });
    let t = e.create_table(opts("side")).unwrap();
    let side = |e: &Engine| {
        let s = e.snapshot();
        (s.side_store_entries, s.side_store_bytes)
    };
    let held = e.begin_snapshot();
    let (mut entries, mut bytes) = (0, 0);
    let mut images = std::collections::BTreeMap::new();
    let mut txn = e.begin();
    for key in 0..40u64 {
        let row = mkrow(key, &vec![7; (key * 7 % 90) as usize]);
        e.insert(&mut txn, &t, &row).unwrap();
        images.insert(key, row);
        (entries, bytes) = (entries + 1, bytes + SIDE_STORE_ENTRY_BYTES);
    }
    e.commit(txn).unwrap();
    for round in 0..3u64 {
        let mut txn = e.begin();
        for key in (round..40).step_by(3) {
            let row = mkrow(key, &vec![round as u8; ((key + round * 31) % 200) as usize]);
            assert!(e.update(&mut txn, &t, &key.to_be_bytes(), &row).unwrap());
            let before = images.insert(key, row).unwrap();
            (entries, bytes) = (
                entries + 1,
                bytes + SIDE_STORE_ENTRY_BYTES + before.len() as u64,
            );
        }
        e.commit(txn).unwrap();
    }
    let mut txn = e.begin();
    for key in (0..40u64).step_by(5) {
        assert!(e.delete(&mut txn, &t, &key.to_be_bytes()).unwrap());
        let before = images.remove(&key).unwrap();
        (entries, bytes) = (
            entries + 1,
            bytes + SIDE_STORE_ENTRY_BYTES + before.len() as u64,
        );
    }
    e.commit(txn).unwrap();
    let mut txn = e.begin();
    assert!(e
        .update(&mut txn, &t, &1u64.to_be_bytes(), &mkrow(1, &[9; 300]))
        .unwrap());
    assert_eq!(side(&e).0, entries + 1);
    e.abort(txn);
    assert_eq!(side(&e), (entries, bytes));
    e.end_snapshot(held);
    e.step(Actor::Gc);
    assert_eq!(side(&e), (0, 0));
    assert_eq!(e.side_store_stamped_entries(), 0);
}
