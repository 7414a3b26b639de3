//! Fault torture: the crash-torture workload run on top of the
//! fault-injection harness ([`btrim_faults`]), across a matrix of
//! seeded fault plans and both device families (MemDisk and FileDisk).
//!
//! The contract under injected faults is three-way — every operation
//! must either
//!
//! 1. complete and acknowledge, or
//! 2. fail with a *typed* error without acknowledging a commit, or
//! 3. (after a crash + recovery on the surviving media) leave the
//!    database in a state matching the model of acknowledged commits,
//!
//! with zero panics and zero silent data loss. An unacknowledged
//! commit (case 2 at commit time) is *indeterminate*: the crash may
//! have landed before or after durability, so the model accepts either
//! outcome and resolves the ambiguity by observation after recovery.
//!
//! Torn pages must never be served as data: a value diverging from
//! every acceptable outcome of its key would catch exactly that.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use btrim::catalog::TableOpts;
use btrim::pack::{pack_cycle, PackLevel};
use btrim::{BtrimError, Engine, EngineConfig, EngineMode, HealthState};
use btrim_faults::{FaultDisk, FaultLog, FaultPlan, FaultState};
use btrim_pagestore::{DiskBackend, FileDisk, MemDisk};
use btrim_wal::{LogSink, MemLog};

fn mkrow(key: u64, v: u64) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&v.to_be_bytes());
    r.extend_from_slice(&[0x5F; 16]);
    r
}

fn opts() -> TableOpts {
    TableOpts::new("faulted", Arc::new(|r: &[u8]| r[..8].to_vec()))
}

fn cfg() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 512 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: 32,
        durable_commits: true,
        ..Default::default()
    }
}

/// Acceptable outcomes per key: `None` = absent, `Some(v)` = present
/// with value v. A key missing from the map is determinately absent.
/// More than one entry means an unacknowledged commit left the key's
/// fate to the crash; recovery resolves it by observation.
type Model = HashMap<u64, BTreeSet<Option<u64>>>;

fn acceptable(model: &Model, key: u64) -> BTreeSet<Option<u64>> {
    model
        .get(&key)
        .cloned()
        .unwrap_or_else(|| BTreeSet::from([None]))
}

fn set_exact(model: &mut Model, key: u64, val: Option<u64>) {
    match val {
        Some(v) => {
            model.insert(key, BTreeSet::from([Some(v)]));
        }
        None => {
            model.remove(&key);
        }
    }
}

/// Mark a key indeterminate: the op observed the key present (or
/// absent, for `observed_present = false`) before an unacknowledged
/// commit that would have produced `new`.
fn set_either(model: &mut Model, key: u64, observed_present: bool, new: Option<u64>) {
    let mut s = acceptable(model, key);
    // The observation collapses the prior ambiguity.
    s.retain(|o| o.is_some() == observed_present);
    if s.is_empty() {
        // Defensive: observation contradicting the model is caught at
        // verification; keep the observed branch representable.
        s.insert(new);
    }
    s.insert(new);
    model.insert(key, s);
}

struct Devices {
    disk: Arc<dyn DiskBackend>,
    syslog: Arc<dyn LogSink>,
    imrslog: Arc<dyn LogSink>,
}

fn inner_devices(label: &str, file_disk: bool) -> Devices {
    let disk: Arc<dyn DiskBackend> = if file_disk {
        let dir = std::env::temp_dir().join(format!(
            "btrim-fault-torture-{}-{label}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.db");
        let _ = std::fs::remove_file(&path);
        Arc::new(FileDisk::open(&path).unwrap())
    } else {
        Arc::new(MemDisk::new())
    };
    Devices {
        disk,
        syslog: Arc::new(MemLog::new()),
        imrslog: Arc::new(MemLog::new()),
    }
}

/// Run the faulted workload, crash, recover on the raw inner devices,
/// and verify the three-way contract. Returns the fault state (for
/// plan-specific assertions) and the recovered engine + exact model
/// (already verified and extended by a clean post-recovery workload).
fn run_plan(label: &str, plan: FaultPlan, file_disk: bool) -> Arc<FaultState> {
    let inner = inner_devices(label, file_disk);
    let state = FaultState::new(plan.clone());
    let engine = Engine::with_devices(
        cfg(),
        Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
    );
    engine.create_table(opts()).unwrap();
    let table = engine.table("faulted").unwrap();

    let mut model: Model = Model::new();
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xF417_70C7);
    for i in 0..600u32 {
        if state.crashed() {
            break;
        }
        if i % 25 == 24 {
            // Snapshot probes against the live faulted engine: an
            // unacknowledged commit is already published in memory, so
            // the acceptable-outcome set covers whatever a snapshot can
            // see. Reads may fail under injected storage errors; only a
            // successful read is checked.
            let snap = engine.begin_snapshot();
            for _ in 0..5 {
                let k = rng.gen_range(0..120u64);
                if let Ok(got) = engine.get_snapshot(&snap, &table, &k.to_be_bytes()) {
                    let got = got.map(|row| u64::from_be_bytes(row[8..16].try_into().unwrap()));
                    let acc = acceptable(&model, k);
                    assert!(
                        acc.contains(&got),
                        "plan {label}: snapshot read of key {k} saw {got:?}, acceptable {acc:?}"
                    );
                }
            }
            engine.end_snapshot(snap);
        }
        let op: u8 = rng.gen_range(0..10);
        let key = rng.gen_range(0..120u64);
        let mut txn = engine.begin();
        match op {
            0..=4 => {
                let v = rng.gen::<u64>();
                match engine.insert(&mut txn, &table, &mkrow(key, v)) {
                    // Insert succeeding means the engine observed the
                    // key absent.
                    Ok(_) => match engine.commit(txn) {
                        Ok(_) => set_exact(&mut model, key, Some(v)),
                        Err(_) => set_either(&mut model, key, false, Some(v)),
                    },
                    // Duplicate key, read-only, or storage error: no
                    // state change either way.
                    Err(_) => engine.abort(txn),
                }
            }
            5..=7 => {
                let v = rng.gen::<u64>();
                match engine.update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, v)) {
                    Ok(updated) => match engine.commit(txn) {
                        Ok(_) => set_exact(&mut model, key, if updated { Some(v) } else { None }),
                        Err(_) => {
                            if updated {
                                set_either(&mut model, key, true, Some(v));
                            } else {
                                // Observed absent; nothing was written.
                                set_exact(&mut model, key, None);
                            }
                        }
                    },
                    Err(_) => engine.abort(txn),
                }
            }
            8 => match engine.delete(&mut txn, &table, &key.to_be_bytes()) {
                Ok(deleted) => match engine.commit(txn) {
                    // Present or absent before, an acknowledged delete
                    // (or observed-absent no-op) ends with the key gone.
                    Ok(_) => set_exact(&mut model, key, None),
                    Err(_) => {
                        if deleted {
                            set_either(&mut model, key, true, None);
                        } else {
                            set_exact(&mut model, key, None);
                        }
                    }
                },
                Err(_) => engine.abort(txn),
            },
            _ => {
                // An aborted multi-op transaction the model ignores; its
                // rows must never surface after recovery.
                let _ = engine.insert(&mut txn, &table, &mkrow(key + 10_000, 1));
                let _ = engine.update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, 424_242));
                engine.abort(txn);
            }
        }
        if i % 150 == 149 {
            engine.run_maintenance();
            pack_cycle(&engine, PackLevel::Aggressive);
            let _ = engine.checkpoint(); // may fail under faults: typed, tolerated
        }
    }
    // Crash: drop without shutdown, then reboot onto the raw media.
    drop(engine);

    let recovered = Engine::recover(
        cfg(),
        inner.disk.clone(),
        inner.syslog.clone(),
        inner.imrslog.clone(),
        |e| e.create_table(opts()).map(|_| ()),
    )
    .unwrap_or_else(|e| panic!("plan {label}: recovery failed: {e}"));
    let table = recovered.table("faulted").unwrap();

    // Every observed row must be an acceptable outcome of its key, and
    // every key the model says is determinately present must be there.
    let mut observed: HashMap<u64, u64> = HashMap::new();
    {
        let txn = recovered.begin();
        recovered
            .scan_range(&txn, &table, &[], None, |k, _, row| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = u64::from_be_bytes(row[8..16].try_into().unwrap());
                observed.insert(key, val);
                true
            })
            .unwrap();
        recovered.commit(txn).unwrap();
    }
    for (k, v) in &observed {
        let acc = acceptable(&model, *k);
        assert!(
            acc.contains(&Some(*v)),
            "plan {label}: key {k} recovered as {v}, acceptable outcomes {acc:?}"
        );
    }
    for (k, acc) in &model {
        if !acc.contains(&None) && !observed.contains_key(k) {
            panic!(
                "plan {label}: acknowledged key {k} lost (acceptable {acc:?})\n  \
                 row: {}\n  recovery: {:?}\n  faults: {:?}",
                recovered.debug_row(&table, &k.to_be_bytes()),
                recovered.recovery_report(),
                state.counters()
            );
        }
    }

    // The recovered engine must be fully operational: run a clean,
    // fault-free workload against the now-exact model.
    let mut exact = observed;
    for _ in 0..150 {
        let key = rng.gen_range(0..120u64);
        let v = rng.gen::<u64>();
        let mut txn = recovered.begin();
        if exact.contains_key(&key) {
            assert!(recovered
                .update(&mut txn, &table, &key.to_be_bytes(), &mkrow(key, v))
                .unwrap());
        } else {
            recovered.insert(&mut txn, &table, &mkrow(key, v)).unwrap();
        }
        recovered.commit(txn).unwrap();
        exact.insert(key, v);
    }
    // Snapshot reads must also work on the recovered engine: with no
    // concurrent writers a fresh snapshot sees exactly the latest
    // committed state.
    {
        let snap = recovered.begin_snapshot();
        for (k, v) in &exact {
            let got = recovered
                .get_snapshot(&snap, &table, &k.to_be_bytes())
                .unwrap()
                .map(|row| u64::from_be_bytes(row[8..16].try_into().unwrap()));
            assert_eq!(
                got,
                Some(*v),
                "plan {label}: post-recovery snapshot read of key {k}"
            );
        }
        recovered.end_snapshot(snap);
    }
    recovered.checkpoint().unwrap();
    {
        let txn = recovered.begin();
        let mut seen = 0usize;
        recovered
            .scan_range(&txn, &table, &[], None, |k, _, row| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = u64::from_be_bytes(row[8..16].try_into().unwrap());
                assert_eq!(exact.get(&key), Some(&val), "plan {label}: post-recovery");
                seen += 1;
                true
            })
            .unwrap();
        recovered.commit(txn).unwrap();
        assert_eq!(seen, exact.len(), "plan {label}: post-recovery row count");
    }

    // The observability export survives crash + recovery: the JSON
    // snapshot must still be well-formed for downstream tooling.
    let json = recovered.snapshot().to_json();
    btrim::obs_json::validate(&json)
        .unwrap_or_else(|e| panic!("plan {label}: post-recovery snapshot JSON invalid: {e}"));
    state
}

#[test]
fn transient_disk_errors_are_retried_or_typed() {
    for file_disk in [false, true] {
        let plan = FaultPlan {
            seed: 0x00A1_1CE5,
            read_error_prob: 0.05,
            write_error_prob: 0.05,
            sync_error_prob: 0.02,
            error_budget: 40,
            ..FaultPlan::default()
        };
        let state = run_plan("transient", plan, file_disk);
        assert!(
            state.counters().read_errors
                + state.counters().write_errors
                + state.counters().sync_errors
                > 0,
            "plan injected nothing"
        );
    }
}

#[test]
fn torn_page_writes_are_never_served() {
    for (i, file_disk) in [false, true].into_iter().enumerate() {
        let plan = FaultPlan {
            seed: 0x70A2 + i as u64,
            torn_write_at: Some(0),
            torn_prefix_bytes: 512,
            ..FaultPlan::default()
        };
        let state = run_plan("torn", plan, file_disk);
        assert!(
            state.counters().torn_writes >= 1,
            "the workload never wrote a page; the tear was not exercised"
        );
    }
}

#[test]
fn partial_log_appends_truncate_cleanly() {
    for file_disk in [false, true] {
        let plan = FaultPlan {
            seed: 0x9A27,
            partial_append_prob: 0.02,
            error_budget: 3,
            ..FaultPlan::default()
        };
        let state = run_plan("partial-append", plan, file_disk);
        assert!(
            state.counters().partial_appends >= 1,
            "no partial append injected"
        );
    }
}

#[test]
fn log_device_death_degrades_to_read_only() {
    let inner = inner_devices("log-death", false);
    let plan = FaultPlan {
        fail_appends_after: Some(150),
        ..FaultPlan::default()
    };
    let state = FaultState::new(plan);
    let engine = Engine::with_devices(
        cfg(),
        Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
    );
    engine.create_table(opts()).unwrap();
    let table = engine.table("faulted").unwrap();

    let mut acknowledged: HashMap<u64, u64> = HashMap::new();
    for key in 0..200u64 {
        let mut txn = engine.begin();
        match engine.insert(&mut txn, &table, &mkrow(key, key * 7)) {
            Ok(_) => {
                if engine.commit(txn).is_ok() {
                    acknowledged.insert(key, key * 7);
                }
            }
            Err(_) => engine.abort(txn),
        }
    }
    assert!(state.log_dead(), "the log device never died");
    assert!(
        !acknowledged.is_empty(),
        "nothing committed before the log died"
    );

    // The persistent append failure must be visible as health state...
    assert!(
        matches!(engine.health(), HealthState::ReadOnly { .. }),
        "expected read-only health, got {}",
        engine.health()
    );
    let snap = engine.snapshot();
    assert!(matches!(snap.health, HealthState::ReadOnly { .. }));
    assert!(snap.render_report().contains("read-only"));

    // ...writes must fail with the typed error...
    let mut txn = engine.begin();
    let err = engine
        .insert(&mut txn, &table, &mkrow(50_000, 1))
        .unwrap_err();
    assert!(
        matches!(err, BtrimError::ReadOnly(_)),
        "expected ReadOnly, got {err}"
    );
    engine.abort(txn);

    // ...while reads keep working.
    let txn = engine.begin();
    for (k, v) in &acknowledged {
        let row = engine
            .get(&txn, &table, &k.to_be_bytes())
            .unwrap()
            .unwrap_or_else(|| panic!("acknowledged key {k} unreadable"));
        assert_eq!(u64::from_be_bytes(row[8..16].try_into().unwrap()), *v);
    }
    engine.commit(txn).unwrap();

    // Crash + recover on the surviving media: all acknowledged commits
    // are intact.
    drop(engine);
    let recovered = Engine::recover(cfg(), inner.disk, inner.syslog, inner.imrslog, |e| {
        e.create_table(opts()).map(|_| ())
    })
    .unwrap();
    let table = recovered.table("faulted").unwrap();
    let txn = recovered.begin();
    let mut count = 0usize;
    recovered
        .scan_range(&txn, &table, &[], None, |k, _, row| {
            let key = u64::from_be_bytes(k[..8].try_into().unwrap());
            let val = u64::from_be_bytes(row[8..16].try_into().unwrap());
            assert_eq!(acknowledged.get(&key), Some(&val));
            count += 1;
            true
        })
        .unwrap();
    recovered.commit(txn).unwrap();
    assert_eq!(count, acknowledged.len());
}

/// An abort that cannot put a page row's before-image back (its page
/// was evicted and the device died) must not pretend it did: the
/// stashed image stays for readers, the engine stops writing, no
/// `Abort` verdict is logged — and the restart undoes the transaction
/// as a loser from the log's own before-image.
#[test]
fn abort_whose_undo_fails_keeps_the_before_image_and_stops_writes() {
    let cfg = || EngineConfig {
        mode: EngineMode::PageOnly,
        buffer_frames: 8,
        ..cfg()
    };
    let big = |key: u64, v: u64| {
        let mut r = mkrow(key, v);
        r.resize(1_000, 0x5F);
        r
    };
    let inner = inner_devices("abort-undo", false);
    let state = FaultState::new(FaultPlan::default());
    let engine = Engine::with_devices(
        cfg(),
        Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
        Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
    );
    let table = engine.create_table(opts()).unwrap();
    let mut txn = engine.begin();
    for key in 0..120u64 {
        engine.insert(&mut txn, &table, &big(key, key * 7)).unwrap();
    }
    engine.commit(txn).unwrap();

    let mut a = engine.begin();
    let k3 = 3u64.to_be_bytes();
    assert!(engine.update(&mut a, &table, &k3, &mkrow(3, 999)).unwrap());
    // Push row 3's page (our bytes on it) out of the 8-frame cache.
    let reader = engine.begin();
    for key in 20..120u64 {
        assert!(engine
            .get(&reader, &table, &key.to_be_bytes())
            .unwrap()
            .is_some());
    }
    engine.commit(reader).unwrap();
    let stashed = engine.snapshot().side_store_entries;
    state.crash_now();
    engine.abort(a);

    assert!(
        matches!(engine.health(), HealthState::ReadOnly { .. }),
        "expected read-only health, got {}",
        engine.health()
    );
    assert_eq!(
        engine.snapshot().side_store_entries,
        stashed,
        "the only copy of the before-image must stay"
    );

    drop(engine);
    let recovered = Engine::recover(cfg(), inner.disk, inner.syslog, inner.imrslog, |e| {
        e.create_table(opts()).map(|_| ())
    })
    .unwrap();
    let table = recovered.table("faulted").unwrap();
    let txn = recovered.begin();
    for key in 0..120u64 {
        let row = recovered.get(&txn, &table, &key.to_be_bytes()).unwrap();
        assert_eq!(row, Some(big(key, key * 7)), "key {key}");
    }
    recovered.commit(txn).unwrap();
}

#[test]
fn torn_batch_appends_hold_the_three_way_contract() {
    for (i, file_disk) in [false, true].into_iter().enumerate() {
        let plan = FaultPlan {
            seed: 0xBA7C + i as u64,
            torn_batch_at: Some(3),
            ..FaultPlan::default()
        };
        let state = run_plan("torn-batch", plan, file_disk);
        assert!(
            state.counters().torn_batches >= 1,
            "the workload never hit the torn batch; nothing was exercised"
        );
    }
}

/// The whole point of the batch frame: a transaction whose commit was
/// torn must recover with *all* of its rows or *none* of them. Each
/// workload transaction inserts three keys, so any partially-recovered
/// group is a smoking gun.
#[test]
fn torn_batch_never_splits_a_transaction() {
    for (i, file_disk) in [false, true].into_iter().enumerate() {
        let label = format!("torn-batch-atomic-{i}");
        let inner = inner_devices(&label, file_disk);
        let plan = FaultPlan {
            seed: 0xA70_B17C + i as u64,
            torn_batch_at: Some(5),
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        // IlmOff pins every row in the IMRS, so each transaction stages
        // exactly its three inserts into one sysimrslogs batch.
        let cfg = EngineConfig {
            mode: EngineMode::IlmOff,
            maintenance_interval_txns: 1_000_000,
            ..cfg()
        };
        let engine = Engine::with_devices(
            cfg.clone(),
            Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
        );
        engine.create_table(opts()).unwrap();
        let table = engine.table("faulted").unwrap();

        let mut acked: BTreeSet<u64> = BTreeSet::new();
        let mut unacked: BTreeSet<u64> = BTreeSet::new();
        for grp in 0..20u64 {
            let mut txn = engine.begin();
            let mut staged = true;
            for j in 0..3u64 {
                if engine
                    .insert(&mut txn, &table, &mkrow(grp * 3 + j, grp))
                    .is_err()
                {
                    staged = false;
                    break;
                }
            }
            if !staged {
                engine.abort(txn);
                continue;
            }
            match engine.commit(txn) {
                Ok(_) => {
                    acked.insert(grp);
                }
                Err(_) => {
                    unacked.insert(grp);
                }
            }
        }
        assert!(
            state.counters().torn_batches >= 1,
            "plan {label}: the tear never fired"
        );
        assert!(!acked.is_empty(), "plan {label}: nothing committed");
        assert!(!unacked.is_empty(), "plan {label}: nothing was torn");

        // Crash and reboot on the raw media.
        drop(engine);
        let recovered = Engine::recover(
            cfg,
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
            |e| e.create_table(opts()).map(|_| ()),
        )
        .unwrap();
        let table = recovered.table("faulted").unwrap();
        let txn = recovered.begin();
        for grp in 0..20u64 {
            let present = (0..3u64)
                .filter(|j| {
                    recovered
                        .get(&txn, &table, &(grp * 3 + j).to_be_bytes())
                        .unwrap()
                        .is_some()
                })
                .count();
            if acked.contains(&grp) {
                assert_eq!(present, 3, "plan {label}: acknowledged txn {grp} lost rows");
            } else {
                // Unacknowledged (torn or never staged): the batch frame
                // guarantees all-or-nothing, never a prefix.
                assert!(
                    present == 0 || present == 3,
                    "plan {label}: txn {grp} recovered {present}/3 rows — \
                     a torn batch split a transaction"
                );
            }
        }
        recovered.commit(txn).unwrap();
    }
}

#[test]
fn fail_stop_crash_recovers_to_acknowledged_state() {
    for (i, file_disk) in [false, true].into_iter().enumerate() {
        // The run takes about 780 (memory disk) and 810 (file disk)
        // device ops, a move's records one append per log: the switch
        // flips about four fifths of the way in.
        let plan = FaultPlan {
            seed: 0xDEAD + i as u64,
            fail_stop_after_ops: Some(650),
            ..FaultPlan::default()
        };
        let state = run_plan("fail-stop", plan, file_disk);
        assert!(state.crashed(), "the fail-stop switch never flipped");
    }
}

/// Crash *inside* the checkpoint pipeline, swept across device-op
/// offsets so the fail-stop lands at every interesting point: before
/// the `CheckpointBegin` record, inside the image, between the
/// rate-limited flush batches, before `CheckpointEnd`, during the
/// prefix truncation, or after completion. One complete Begin/End pair
/// is on disk before the faulted checkpoint, so a torn second pair must
/// fall back to it.
/// Every commit here is acknowledged fault-free, so recovery must
/// reproduce the exact committed state — no three-way slack.
#[test]
fn crash_during_checkpoint_holds_acknowledged_state() {
    use btrim_wal::{newest_image, ImrsLogRecord, LogWriter};

    let mut mid_checkpoint_crashes = 0u32;
    let mut torn_pairs_recovered = 0u64;
    for (case, ops_in) in [1u64, 2, 3, 4, 6, 9, 14, 22, 40, 4_000]
        .into_iter()
        .enumerate()
    {
        let label = format!("ckpt-crash-{case}");
        let inner = inner_devices(&label, false);
        let state = FaultState::new(FaultPlan::default());
        let engine = Engine::with_devices(
            cfg(),
            Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
        );
        engine.create_table(opts()).unwrap();
        let table = engine.table("faulted").unwrap();

        let mut exact: HashMap<u64, u64> = HashMap::new();
        for key in 0..80u64 {
            let mut txn = engine.begin();
            engine
                .insert(&mut txn, &table, &mkrow(key, key * 3))
                .unwrap();
            engine.commit(txn).unwrap();
            exact.insert(key, key * 3);
        }
        engine.run_maintenance();
        pack_cycle(&engine, PackLevel::Aggressive);
        engine.checkpoint().unwrap(); // complete pair #1: the fallback

        for key in 0..40u64 {
            let mut txn = engine.begin();
            assert!(engine
                .update(
                    &mut txn,
                    &table,
                    &key.to_be_bytes(),
                    &mkrow(key, key * 7 + 1)
                )
                .unwrap());
            engine.commit(txn).unwrap();
            exact.insert(key, key * 7 + 1);
        }
        for key in 80..120u64 {
            let mut txn = engine.begin();
            engine.insert(&mut txn, &table, &mkrow(key, key)).unwrap();
            engine.commit(txn).unwrap();
            exact.insert(key, key);
        }
        engine.run_maintenance();
        pack_cycle(&engine, PackLevel::Aggressive); // dirty pages for pair #2

        state.fail_stop_in(ops_in);
        let _ = engine.checkpoint(); // typed failure tolerated
        if state.crashed() {
            mid_checkpoint_crashes += 1;
        }
        drop(engine);

        // What did the tear leave behind? A Begin without its End
        // (counted across the sweep so the test proves a torn pair was
        // actually exercised), and the first pair to fall back to.
        let reader: LogWriter<ImrsLogRecord> = LogWriter::new(inner.imrslog.clone());
        let records = reader.read_all().unwrap();
        assert!(newest_image(&records).is_some(), "plan {label}: no pair");
        let count =
            |kind: fn(&ImrsLogRecord) -> bool| records.iter().filter(|r| kind(&r.1)).count();
        let begins = count(|r| matches!(r, ImrsLogRecord::CheckpointBegin(_)));
        let ends = count(|r| matches!(r, ImrsLogRecord::CheckpointEnd { .. }));
        torn_pairs_recovered += (begins - ends) as u64;

        let recovered = Engine::recover(
            cfg(),
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
            |e| e.create_table(opts()).map(|_| ()),
        )
        .unwrap_or_else(|e| panic!("plan {label}: recovery failed: {e}"));
        let table = recovered.table("faulted").unwrap();
        let mut seen = 0usize;
        let txn = recovered.begin();
        recovered
            .scan_range(&txn, &table, &[], None, |k, _, row| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = u64::from_be_bytes(row[8..16].try_into().unwrap());
                assert_eq!(exact.get(&key), Some(&val), "plan {label}: key {key}");
                seen += 1;
                true
            })
            .unwrap();
        recovered.commit(txn).unwrap();
        assert_eq!(seen, exact.len(), "plan {label}: acknowledged rows lost");

        // The survivor is fully operational, checkpoint included.
        let mut txn = recovered.begin();
        assert!(recovered
            .update(&mut txn, &table, &0u64.to_be_bytes(), &mkrow(0, 999))
            .unwrap());
        recovered.commit(txn).unwrap();
        recovered.checkpoint().unwrap();
    }
    assert!(
        mid_checkpoint_crashes >= 3,
        "the sweep barely touched the checkpoint pipeline ({mid_checkpoint_crashes} crashes)"
    );
    assert!(
        torn_pairs_recovered >= 1,
        "no offset produced a torn Begin/End pair; widen the sweep"
    );
}

/// Double crash: the first reboot's recovery is itself killed by a
/// fail-stop mid-replay, then a second reboot on the raw media must
/// succeed — recovery is idempotent and re-enterable even over media a
/// half-finished recovery already wrote to.
#[test]
fn double_crash_during_recovery_is_reenterable() {
    let mut first_recovery_died = 0u32;
    for (case, ops_in) in [0u64, 1, 2, 4, 8, 16, 32, 64, 128].into_iter().enumerate() {
        let label = format!("double-crash-{case}");
        let inner = inner_devices(&label, false);

        // Crash #1: a clean workload dropped without shutdown. Every
        // commit is acknowledged, so the surviving model is exact.
        let engine = Engine::with_devices(
            cfg(),
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
        );
        engine.create_table(opts()).unwrap();
        let table = engine.table("faulted").unwrap();
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for key in 0..150u64 {
            let mut txn = engine.begin();
            engine
                .insert(&mut txn, &table, &mkrow(key, key ^ 0xABCD))
                .unwrap();
            engine.commit(txn).unwrap();
            exact.insert(key, key ^ 0xABCD);
            if key % 50 == 49 {
                // Real page-redo work for the recovery to crash inside.
                engine.run_maintenance();
                pack_cycle(&engine, PackLevel::Aggressive);
            }
        }
        drop(engine);

        // Crash #2: recovery over fault-wrapped devices, armed to die
        // `ops_in` device ops in. A typed error — never a panic, never
        // an engine claiming success.
        let rstate = FaultState::new(FaultPlan::default());
        rstate.fail_stop_in(ops_in);
        match Engine::recover(
            cfg(),
            Arc::new(FaultDisk::new(inner.disk.clone(), rstate.clone())),
            Arc::new(FaultLog::new(inner.syslog.clone(), rstate.clone())),
            Arc::new(FaultLog::new(inner.imrslog.clone(), rstate.clone())),
            |e| e.create_table(opts()).map(|_| ()),
        ) {
            Err(_) => first_recovery_died += 1,
            // Recovery finished under the op budget: dropping it still
            // exercises recover-after-recover below.
            Ok(e) => drop(e),
        }

        // Reboot #2 on the raw media: must land on the exact state.
        let recovered = Engine::recover(
            cfg(),
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
            |e| e.create_table(opts()).map(|_| ()),
        )
        .unwrap_or_else(|e| panic!("plan {label}: second recovery failed: {e}"));
        let table = recovered.table("faulted").unwrap();
        let mut seen = 0usize;
        let txn = recovered.begin();
        recovered
            .scan_range(&txn, &table, &[], None, |k, _, row| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = u64::from_be_bytes(row[8..16].try_into().unwrap());
                assert_eq!(exact.get(&key), Some(&val), "plan {label}: key {key}");
                seen += 1;
                true
            })
            .unwrap();
        recovered.commit(txn).unwrap();
        assert_eq!(seen, exact.len(), "plan {label}: acknowledged rows lost");

        let mut txn = recovered.begin();
        assert!(recovered
            .update(&mut txn, &table, &5u64.to_be_bytes(), &mkrow(5, 31_337))
            .unwrap());
        recovered.commit(txn).unwrap();
        recovered.checkpoint().unwrap();
    }
    assert!(
        first_recovery_died >= 3,
        "the sweep never killed a recovery mid-replay ({first_recovery_died} deaths)"
    );
}

/// Crash *inside* the freeze pipeline, swept across device-op offsets
/// so the fail-stop lands at every interesting point: before the
/// `Begin` record, among the per-row `Delete` records, before or after
/// the `Freeze` record (which carries the whole encoded extent),
/// around the `Commit`, during the flush, or after completion. The
/// freeze batch is an internal transaction, so recovery must land on
/// exactly one of two states — the rows still on their old slotted
/// pages (loser) or a complete installed extent (winner) — never a
/// half-frozen mix, and never a lost or duplicated row. Every commit
/// here is acknowledged fault-free, so there is no three-way slack:
/// scans and analytic aggregates must reproduce the exact model.
#[test]
fn crash_during_freeze_leaves_pages_or_a_complete_extent() {
    use btrim::catalog::{FieldKind, RowLayout, TableOpts};
    use btrim::Actor;
    use btrim::ScanSpec;

    fn fopts() -> TableOpts {
        TableOpts::new("frosty", Arc::new(|r: &[u8]| r[..8].to_vec())).with_layout(RowLayout::new(
            &[
                ("k_hi", FieldKind::BeU32),
                ("k_lo", FieldKind::BeU32),
                ("val", FieldKind::U64),
            ],
        ))
    }
    fn frow(key: u64, val: u64) -> Vec<u8> {
        let mut r = key.to_be_bytes().to_vec();
        r.extend_from_slice(&val.to_le_bytes());
        r
    }
    let fcfg = || EngineConfig {
        // Manual maintenance only: the test controls exactly when rows
        // move, so the fail-stop offset aims at the freeze alone.
        maintenance_interval_txns: u64::MAX / 2,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 64,
        ..cfg()
    };

    let mut mid_freeze_crashes = 0u32;
    let mut losers = 0u32; // recovery found the rows back on pages
    let mut winners = 0u32; // recovery reinstalled a complete extent
    for (case, ops_in) in [1u64, 2, 3, 4, 6, 9, 14, 22, 40, 4_000]
        .into_iter()
        .enumerate()
    {
        let label = format!("freeze-crash-{case}");
        let inner = inner_devices(&label, false);
        let state = FaultState::new(FaultPlan::default());
        let engine = Engine::with_devices(
            fcfg(),
            Arc::new(FaultDisk::new(inner.disk.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.syslog.clone(), state.clone())),
            Arc::new(FaultLog::new(inner.imrslog.clone(), state.clone())),
        );
        engine.create_table(fopts()).unwrap();
        let table = engine.table("frosty").unwrap();

        let mut exact: HashMap<u64, u64> = HashMap::new();
        for key in 0..48u64 {
            let mut txn = engine.begin();
            engine
                .insert(&mut txn, &table, &frow(key, key * 5))
                .unwrap();
            engine.commit(txn).unwrap();
            exact.insert(key, key * 5);
        }
        // Cold path: everything packed to slotted pages, fault-free.
        engine.run_maintenance();
        while pack_cycle(&engine, PackLevel::Aggressive) > 0 {}

        state.fail_stop_in(ops_in);
        let _ = engine.step(Actor::Freeze); // typed failure tolerated
        if state.crashed() {
            mid_freeze_crashes += 1;
        }
        drop(engine);

        let recovered = Engine::recover(
            fcfg(),
            inner.disk.clone(),
            inner.syslog.clone(),
            inner.imrslog.clone(),
            |e| e.create_table(fopts()).map(|_| ()),
        )
        .unwrap_or_else(|e| panic!("plan {label}: recovery failed: {e}"));
        let table = recovered.table("frosty").unwrap();

        // Index scan: exactly the acknowledged rows, no loss, no dupes.
        let mut seen = 0usize;
        let txn = recovered.begin();
        recovered
            .scan_range(&txn, &table, &[], None, |k, _, row| {
                let key = u64::from_be_bytes(k[..8].try_into().unwrap());
                let val = u64::from_le_bytes(row[8..16].try_into().unwrap());
                assert_eq!(exact.get(&key), Some(&val), "plan {label}: key {key}");
                seen += 1;
                true
            })
            .unwrap();
        recovered.commit(txn).unwrap();
        assert_eq!(seen, exact.len(), "plan {label}: acknowledged rows lost");

        // Analytic scan merges every tier with per-row dedup: a row
        // living both on a page and in an extent (or in neither) would
        // break the count or the sum.
        let snap = recovered.begin_snapshot();
        let res = recovered
            .analytic_scan(
                &snap,
                &table,
                &ScanSpec {
                    filters: vec![("val".into(), 0, u64::MAX)],
                    sums: vec!["val".into()],
                },
            )
            .unwrap();
        recovered.end_snapshot(snap);
        assert_eq!(res.rows_scanned, exact.len() as u64, "plan {label}");
        assert_eq!(res.rows_matched, exact.len() as u64, "plan {label}");
        assert_eq!(
            res.sums[0],
            exact.values().map(|&v| v as u128).sum::<u128>(),
            "plan {label}: aggregate diverged after the crash"
        );

        // All-or-nothing per batch: a discarded Freeze record leaves
        // the rows on their pages (zero columnar hits), a replayed one
        // reinstalls the whole extent. The exact count + sum above
        // already rule out a half-frozen mix; here we pin that both
        // outcomes exist across the sweep and that extents and
        // columnar service agree.
        let snap_stats = recovered.snapshot();
        if res.frozen_rows == 0 {
            losers += 1;
        } else {
            assert!(
                snap_stats.frozen_extents >= 1,
                "plan {label}: columnar rows served with no installed extent"
            );
            winners += 1;
        }

        // The survivor is fully operational across the freeze life
        // cycle: thaw a row by update, then freeze again.
        let mut txn = recovered.begin();
        assert!(recovered
            .update(&mut txn, &table, &3u64.to_be_bytes(), &frow(3, 31_337))
            .unwrap());
        recovered.commit(txn).unwrap();
        recovered.run_maintenance();
        while pack_cycle(&recovered, PackLevel::Aggressive) > 0 {}
        while recovered.step(Actor::Freeze) > 0 {}
        assert!(
            recovered.snapshot().frozen_extents > 0,
            "plan {label}: post-recovery freeze never installed an extent"
        );
        recovered.checkpoint().unwrap();
    }
    assert!(
        mid_freeze_crashes >= 3,
        "the sweep barely touched the freeze pipeline ({mid_freeze_crashes} crashes)"
    );
    assert!(losers >= 1, "no offset left the rows on their pages");
    assert!(winners >= 1, "no offset completed the freeze");
}

/// One randomized plan per run: `RUST_SEED` (env) picks the schedule,
/// and the chosen seed is always printed so any failure is replayable
/// with `RUST_SEED=<seed> cargo test --test fault_torture randomized`.
#[test]
fn randomized_plan_from_env_seed() {
    let seed: u64 = std::env::var("RUST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB0B0_5EED);
    println!("fault_torture randomized plan seed: {seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = FaultPlan {
        seed,
        read_error_prob: rng.gen_range(0.0..0.05),
        write_error_prob: rng.gen_range(0.0..0.05),
        sync_error_prob: rng.gen_range(0.0..0.02),
        partial_append_prob: rng.gen_range(0.0..0.01),
        error_budget: rng.gen_range(0..30),
        torn_write_at: if rng.gen_bool(0.5) {
            Some(rng.gen_range(0..20))
        } else {
            None
        },
        torn_prefix_bytes: rng.gen_range(64..4096),
        fail_appends_after: if rng.gen_bool(0.3) {
            Some(rng.gen_range(100..2000))
        } else {
            None
        },
        torn_batch_at: if rng.gen_bool(0.4) {
            Some(rng.gen_range(0..60))
        } else {
            None
        },
        fail_stop_after_ops: if rng.gen_bool(0.5) {
            Some(rng.gen_range(500..5000))
        } else {
            None
        },
    };
    println!("fault_torture randomized plan: {plan:?}");
    run_plan("randomized-mem", plan.clone(), false);
    run_plan("randomized-file", plan, true);
}
