//! Crash recovery under a real TPC-C workload: run the mix, crash with
//! dirty state everywhere, recover from the two logs, and verify the
//! database is byte-identical where it must be.

use std::sync::Arc;

use std::collections::BTreeMap;

use btrim::tpcc::driver::Driver;
use btrim::tpcc::loader::{load, LoadSpec, DISTRICTS_PER_WAREHOUSE};
use btrim::tpcc::schema::{Customer, District, Tables};
use btrim::{Engine, EngineConfig, EngineMode, IlmTraceEvent, RowId};
use btrim_pagestore::MemDisk;
use btrim_wal::{LogSink, MemLog};

fn spec() -> LoadSpec {
    LoadSpec {
        warehouses: 1,
        items: 200,
        customers_per_district: 25,
        orders_per_district: 25,
        seed: 777,
    }
}

fn cfg() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 6 * 1024 * 1024,
        imrs_chunk_size: 1024 * 1024,
        buffer_frames: 2048,
        maintenance_interval_txns: 32,
        ..Default::default()
    }
}

#[test]
fn tpcc_state_survives_crash_and_recovery() {
    let disk = Arc::new(MemDisk::new());
    let syslog = Arc::new(MemLog::new());
    let imrslog = Arc::new(MemLog::new());

    // Reference state captured just before the crash.
    let mut district_images: Vec<Vec<u8>> = Vec::new();
    let mut customer_samples: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let committed_before;

    {
        let engine = Arc::new(Engine::with_devices(
            cfg(),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        ));
        let s = spec();
        let tables = Arc::new(load(&engine, &s).unwrap());
        let driver = Driver::new(Arc::clone(&engine), tables, &s);
        let stats = driver.run(800, 1, 4242);
        assert!(stats.total_committed() > 700);
        committed_before = engine.snapshot().committed_txns;

        // Force plenty of packed rows so recovery must reconcile both
        // stores and the Pack records.
        engine.run_maintenance();

        // Capture reference images.
        let t = driver.tables();
        let txn = engine.begin();
        for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
            district_images.push(
                engine
                    .get(&txn, &t.district, &District::key(1, d_id))
                    .unwrap()
                    .unwrap(),
            );
        }
        for c_id in 1..=25u32 {
            let key = Customer::key(1, 3, c_id);
            let row = engine.get(&txn, &t.customer, &key).unwrap().unwrap();
            customer_samples.push((key, row));
        }
        engine.commit(txn).unwrap();
        // Crash without checkpoint: buffer-cache dirty pages are lost,
        // the IMRS is lost; only the devices + logs survive. (MemLog
        // retains unflushed appends, standing in for a log device with
        // commit-time flush.)
    }

    let engine = Engine::recover(cfg(), disk, syslog, imrslog, |e| {
        Tables::create(e, spec().warehouses).map(|_| ())
    })
    .unwrap();

    let district = engine.table("district").unwrap();
    let customer = engine.table("customer").unwrap();
    let orders = engine.table("orders").unwrap();

    let txn = engine.begin();
    // Districts (the hottest counters) recovered exactly.
    for (i, expect) in district_images.iter().enumerate() {
        let d_id = i as u32 + 1;
        let got = engine
            .get(&txn, &district, &District::key(1, d_id))
            .unwrap()
            .unwrap_or_else(|| panic!("district {d_id} lost"));
        assert_eq!(&got, expect, "district {d_id} image");
    }
    // Sampled customers byte-identical.
    for (key, expect) in &customer_samples {
        let got = engine.get(&txn, &customer, key).unwrap().unwrap();
        assert_eq!(&got, expect, "customer image");
    }
    // Order-id chains still contiguous per district (recovery kept
    // winners, dropped any in-flight tail).
    for d_id in 1..=DISTRICTS_PER_WAREHOUSE {
        let d = District::decode(
            &engine
                .get(&txn, &district, &District::key(1, d_id))
                .unwrap()
                .unwrap(),
        )
        .unwrap();
        let lo = btrim::tpcc::schema::Order::key(1, d_id, 0);
        let hi = btrim::tpcc::schema::Order::key(1, d_id, u32::MAX);
        let mut count = 0u32;
        engine
            .scan_range(&txn, &orders, &lo, Some(&hi), |_, _, _| {
                count += 1;
                true
            })
            .unwrap();
        assert_eq!(count, d.next_o_id - 1, "district {d_id} orders intact");
    }
    engine.commit(txn).unwrap();

    // The recovered engine keeps working: run more transactions.
    let s = spec();
    let tables = Arc::new(Tables {
        warehouse: engine.table("warehouse").unwrap(),
        district,
        customer,
        history: engine.table("history").unwrap(),
        new_order: engine.table("new_order").unwrap(),
        orders,
        order_line: engine.table("order_line").unwrap(),
        item: engine.table("item").unwrap(),
        stock: engine.table("stock").unwrap(),
    });
    let engine = Arc::new(engine);
    let driver = Driver::new(Arc::clone(&engine), tables, &s);
    let stats = driver.run(200, 1, 5353);
    assert!(
        stats.total_committed() > 150,
        "post-recovery workload commits: {stats:?}"
    );
    assert!(engine.snapshot().committed_txns >= stats.total_committed());
    let _ = committed_before;
}

fn reopen(engine: &Engine) -> Arc<Tables> {
    let t = |name: &str| engine.table(name).unwrap();
    Arc::new(Tables {
        warehouse: t("warehouse"),
        district: t("district"),
        customer: t("customer"),
        history: t("history"),
        new_order: t("new_order"),
        orders: t("orders"),
        order_line: t("order_line"),
        item: t("item"),
        stock: t("stock"),
    })
}

/// Every district, district 3's customers, and every order line with
/// its RowId, as a fresh transaction reads them.
type State = (
    Vec<Vec<u8>>,
    Vec<Vec<u8>>,
    BTreeMap<Vec<u8>, (RowId, Vec<u8>)>,
);

fn state(engine: &Engine) -> State {
    let t = reopen(engine);
    let txn = engine.begin();
    let get = |table, key: Vec<u8>| engine.get(&txn, table, &key).unwrap().unwrap();
    let districts = (1..=DISTRICTS_PER_WAREHOUSE)
        .map(|d| get(&t.district, District::key(1, d)))
        .collect();
    let customers = (1..=25u32)
        .map(|c| get(&t.customer, Customer::key(1, 3, c)))
        .collect();
    let mut lines = BTreeMap::new();
    engine
        .scan_range(&txn, &t.order_line, &[], None, |k, rid, row| {
            lines.insert(k.to_vec(), (rid, row.to_vec()));
            true
        })
        .unwrap();
    engine.commit(txn).unwrap();
    (districts, customers, lines)
}

/// A checkpoint bounds what recovery replays to its image and what was
/// logged after it, and what it truncated is not missed: the state
/// comes back byte-identical at the test's own 6 MiB IMRS budget, and
/// again after a checkpoint of the recovered engine, with new ids above
/// every old one. The crash leaves a page transaction in flight, so the
/// first recovery undoes a loser and checkpoints over it.
#[test]
fn recovery_replays_the_checkpoint_image_and_the_suffix_only() {
    let disk = Arc::new(MemDisk::new());
    let (syslog, imrslog) = (Arc::new(MemLog::new()), Arc::new(MemLog::new()));
    let s = spec();
    let (before, image_rows, suffix, last_txn) = {
        let engine = Arc::new(Engine::with_devices(
            cfg(),
            disk.clone(),
            syslog.clone(),
            imrslog.clone(),
        ));
        let tables = Arc::new(load(&engine, &s).unwrap());
        let driver = Driver::new(Arc::clone(&engine), tables, &s);
        driver.run(800, 1, 4242);
        engine.checkpoint().unwrap();
        let image_rows = engine
            .snapshot()
            .ilm_trace
            .iter()
            .rev()
            .find_map(|ev| match ev {
                IlmTraceEvent::Checkpoint(c) => Some(c.image_rows),
                _ => None,
            })
            .unwrap();
        assert!(image_rows > 0, "the image holds the IMRS");
        let at = (syslog.record_count(), imrslog.record_count());
        let stats = driver.run(200, 1, 5151);
        assert!(stats.total_committed() > 150, "{stats:?}");
        let suffix = (syslog.record_count() - at.0, imrslog.record_count() - at.1);
        let before = state(&engine);
        // In flight at the crash: a page change with no outcome.
        let mut txn = engine.begin();
        let t = driver.tables();
        let key = Customer::key(1, 3, 1);
        let row = engine.get(&txn, &t.customer, &key).unwrap().unwrap();
        engine.update(&mut txn, &t.customer, &key, &row).unwrap();
        let last_txn = txn.id();
        std::mem::forget(txn);
        (before, image_rows, suffix, last_txn)
    };
    let recover = || {
        Engine::recover(cfg(), disk.clone(), syslog.clone(), imrslog.clone(), |e| {
            Tables::create(e, spec().warehouses).map(|_| ())
        })
        .unwrap()
    };

    let engine = recover();
    let rep = engine.recovery_report();
    assert!(
        rep.imrs_records_replayed <= image_rows + suffix.1,
        "{rep:?}: image {image_rows} rows + {} records logged since",
        suffix.1
    );
    assert!(rep.syslog_redo_replayed <= suffix.0, "{rep:?}");
    assert!(state(&engine) == before, "first recovery");

    engine.checkpoint().unwrap();
    drop(engine);
    let engine = Arc::new(recover());
    assert!(
        state(&engine) == before,
        "recovery after a truncating checkpoint"
    );
    let fresh = engine.begin();
    assert!(fresh.id() > last_txn, "{:?} reuses an id", fresh.id());
    engine.abort(fresh);
    let max_rid = before.2.values().map(|v| v.0).max().unwrap();
    let driver = Driver::new(Arc::clone(&engine), reopen(&engine), &s);
    assert!(driver.run(100, 1, 6161).total_committed() > 75);
    for (key, (rid, _)) in state(&engine).2 {
        assert!(
            before.2.contains_key(&key) || rid > max_rid,
            "a new order line took RowId {rid:?}"
        );
    }
}
