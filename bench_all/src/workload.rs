//! One workload run: set-up, the timed section with its read rounds,
//! the correctness checks, and crash → recover → verify.
//!
//! Load shape: one process, one closed-loop client thread, no
//! background threads. The engine's own inline maintenance is switched
//! off (`maintenance_interval_txns = u64::MAX / 2`) and the loop calls
//! `Engine::run_maintenance()` after every 64th attempted transaction,
//! so maintenance is deterministic, timed from outside as its own span,
//! kept out of per-transaction latencies and kept in wall-clock TPM.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use btrim_core::{Engine, EngineConfig, OpClass, RecoveryReport, SnapshotTxn};
use btrim_tpcc::analytics;
use btrim_tpcc::driver::{Driver, TxnType};
use btrim_tpcc::loader::{load, LoadSpec, DISTRICTS_PER_WAREHOUSE};
use btrim_tpcc::random::{nurand_customer, nurand_item};
use btrim_tpcc::schema::{Customer, Stock, Tables};
use btrim_tpcc::txns::Outcome;

use crate::checks::{self, Failures, ScanPair, LOW_STOCK_THRESHOLD};
use crate::devices::{SpanDisk, SpanLog};
use crate::spec::{
    Workload, BLOCK_TXNS, GROUP_BLOCKS, GROUP_TXNS, ORACLE_EVERY, READS_PER_ROUND, SEGMENTS,
};
use crate::trace::{Kind, SpanTotals, Tracer};

/// How a run is parameterised from the command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every generated input: the load and the transaction mix.
    pub seed: u64,
    /// Seconds the timed section is sized for.
    pub seconds: f64,
    /// Traced run: spans, device timing, layer probes.
    pub trace: bool,
    /// Counts ÷ 100 on a tenth-size database (smoke tests).
    pub quick: bool,
}

/// Set-ups per run; `setup_s` is their median. The first one carries
/// the workload, the later ones are timed and dropped. Three, so that
/// one set-up that lost its vCPU for a while does not move the median;
/// not more: a run is about 20 s on a quiet host, the driver makes 92 of
/// them in 3420 s, and this host has run at half speed for a quarter of
/// an hour at a time.
const SETUPS: usize = 3;

/// Count and exact sum (ns) of every `OpClass` histogram.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    /// Values recorded per class.
    pub count: [u64; OpClass::COUNT],
    /// Their sum in nanoseconds.
    pub nanos: [u64; OpClass::COUNT],
}

impl OpTimes {
    fn read(engine: &Engine) -> OpTimes {
        let mut t = OpTimes::default();
        for c in OpClass::ALL {
            let h = engine.obs().hist(c).snapshot();
            t.count[c as usize] = h.count;
            t.nanos[c as usize] = h.sum;
        }
        t
    }

    fn add_delta(&mut self, from: &OpTimes, to: &OpTimes) {
        for i in 0..OpClass::COUNT {
            self.count[i] += to.count[i] - from.count[i];
            self.nanos[i] += to.nanos[i] - from.nanos[i];
        }
    }

    /// Delta `to − from`.
    pub fn between(from: &OpTimes, to: &OpTimes) -> OpTimes {
        let mut d = OpTimes::default();
        d.add_delta(from, to);
        d
    }

    /// Mean nanoseconds of a class (0 when it never fired).
    pub fn mean(&self, c: OpClass) -> f64 {
        match self.count[c as usize] {
            0 => 0.0,
            n => self.nanos[c as usize] as f64 / n as f64,
        }
    }

    /// Total nanoseconds over several classes.
    pub fn total(&self, classes: &[OpClass]) -> u64 {
        classes.iter().map(|&c| self.nanos[c as usize]).sum()
    }

    /// Total count over several classes.
    pub fn calls(&self, classes: &[OpClass]) -> u64 {
        classes.iter().map(|&c| self.count[c as usize]).sum()
    }
}

/// The three wrapped devices of one engine.
pub struct Devices {
    /// Page device.
    pub disk: Arc<SpanDisk>,
    /// Page-store log.
    pub syslog: Arc<SpanLog>,
    /// IMRS log.
    pub imrslog: Arc<SpanLog>,
}

impl Devices {
    /// The disk keeps the pre-images a crash rolls back to only for a
    /// workload that ends with crash → recover.
    fn open(w: &Workload, tracer: &Arc<Tracer>) -> Devices {
        let barrier = Duration::from_micros(w.barrier_us);
        Devices {
            disk: Arc::new(SpanDisk::open(
                Arc::clone(tracer),
                barrier,
                w.durable_commits,
            )),
            syslog: Arc::new(SpanLog::open(Arc::clone(tracer), barrier)),
            imrslog: Arc::new(SpanLog::open(Arc::clone(tracer), barrier)),
        }
    }

    fn engine(&self, cfg: EngineConfig) -> Engine {
        Engine::with_devices(
            cfg,
            Arc::clone(&self.disk) as _,
            Arc::clone(&self.syslog) as _,
            Arc::clone(&self.imrslog) as _,
        )
    }
}

/// The engine and device counters the per-layer metrics are deltas of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Row operations served by the IMRS.
    ImrsOps,
    /// Row operations served by the page store.
    PageOps,
    /// Buffer-cache fetches served from a resident frame.
    BufHits,
    /// Buffer-cache fetches that read the device.
    BufMisses,
    /// Frames evicted.
    BufEvictions,
    /// Dirty pages written back.
    BufFlushes,
    /// `read_page` calls.
    DiskReads,
    /// `write_page` calls.
    DiskWrites,
    /// Completed `sync` calls.
    DiskSyncs,
    /// `append` + `append_batch` calls, both logs.
    LogAppendCalls,
    /// Records appended, both logs.
    LogRecords,
    /// Payload bytes appended, both logs.
    LogBytes,
    /// Completed `flush` calls, both logs.
    LogFlushes,
    /// Rows packed out of the IMRS.
    RowsPacked,
    /// Rows pack visited and skipped as hot.
    RowsSkippedHot,
    /// Bytes GC reclaimed from version chains.
    GcBytesFreed,
    /// Tuning windows run.
    TuningWindows,
    /// Partition enable/disable transitions.
    IlmToggles,
    /// Rows frozen into extents.
    RowsFrozen,
    /// Rows thawed out of extents.
    RowsThawed,
    /// Transactions the engine rolled back (user rollbacks included).
    AbortedTxns,
}

const COUNTS: usize = Count::AbortedTxns as usize + 1;

/// Histogram totals and counters at one moment, or a delta of two.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Per-`OpClass` count and time.
    pub ops: OpTimes,
    counts: [u64; COUNTS],
}

impl Tally {
    fn read(engine: &Engine, devices: &Devices) -> Tally {
        let s = engine.snapshot();
        let (disk, sys, imrs) = (
            devices.disk.counts(),
            devices.syslog.counts(),
            devices.imrslog.counts(),
        );
        let mut counts = [0u64; COUNTS];
        let mut set = |c: Count, v: u64| counts[c as usize] = v;
        set(Count::ImrsOps, s.imrs_ops);
        set(Count::PageOps, s.page_ops);
        set(Count::BufHits, s.buffer.hits);
        set(Count::BufMisses, s.buffer.misses);
        set(Count::BufEvictions, s.buffer.evictions);
        set(Count::BufFlushes, s.buffer.flushes);
        set(Count::DiskReads, disk.reads);
        set(Count::DiskWrites, disk.writes);
        set(Count::DiskSyncs, disk.syncs);
        set(Count::LogAppendCalls, sys.append_calls + imrs.append_calls);
        set(Count::LogRecords, sys.records + imrs.records);
        set(Count::LogBytes, sys.bytes + imrs.bytes);
        set(Count::LogFlushes, sys.flushes + imrs.flushes);
        set(Count::RowsPacked, s.rows_packed);
        set(Count::RowsSkippedHot, s.rows_skipped_hot);
        set(Count::GcBytesFreed, s.gc_bytes_freed);
        set(Count::TuningWindows, s.tuning_windows);
        set(
            Count::IlmToggles,
            s.tables
                .iter()
                .flat_map(|t| &t.partitions)
                .map(|p| p.ilm_toggles)
                .sum(),
        );
        set(Count::RowsFrozen, s.rows_frozen);
        set(Count::RowsThawed, s.rows_thawed);
        set(Count::AbortedTxns, s.aborted_txns);
        Tally {
            ops: OpTimes::read(engine),
            counts,
        }
    }

    /// `self − earlier`, field by field.
    fn since(&self, earlier: &Tally) -> Tally {
        let mut d = Tally {
            ops: OpTimes::between(&earlier.ops, &self.ops),
            counts: self.counts,
        };
        for (d, e) in d.counts.iter_mut().zip(earlier.counts) {
            *d -= e;
        }
        d
    }

    fn add(&mut self, other: &Tally) {
        self.ops.add_delta(&OpTimes::default(), &other.ops);
        for (s, o) in self.counts.iter_mut().zip(other.counts) {
            *s += o;
        }
    }

    /// One counter.
    pub fn get(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }
}

/// Everything one run measured; [`metrics`](crate::metrics) turns it
/// into named numbers.
pub struct RunData {
    /// The workload.
    pub workload: &'static Workload,
    /// Seconds per set-up.
    pub setup_secs: Vec<f64>,
    /// Seconds `Engine::recover` took on the database the timed section
    /// left, and what it reported, where the workload ends with that
    /// crash.
    pub recovery: Option<(f64, RecoveryReport)>,
    /// Transactions attempted in the timed section.
    pub attempted: u64,
    /// Of those, committed.
    pub committed: u64,
    /// Of those, rolled back by TPC-C's 1 % rule (not failures).
    pub user_aborts: u64,
    /// Of those, aborted by the engine (failures).
    pub engine_aborts: u64,
    /// Latency per transaction type, mix order, ns.
    pub txn_lat: [Vec<u64>; 5],
    /// Per `run_maintenance()` call, ns.
    pub maint_lat: Vec<u64>,
    /// Per block: 64 transactions and the maintenance call after them,
    /// ns.
    pub block_ns: Vec<u64>,
    /// Per `checkpoint()` call, ns.
    pub checkpoint_ns: Vec<u64>,
    /// Pages written back by those checkpoints.
    pub checkpoint_pages: u64,
    /// Per read round, both analytic scans together, ns.
    pub scan_round_ns: Vec<u64>,
    /// Rows the scans evaluated.
    pub scan_rows: u64,
    /// Of those, served from frozen extents.
    pub scan_frozen_rows: u64,
    /// Per `get_snapshot` call, ns.
    pub snapshot_read_ns: Vec<u64>,
    /// Wall time per group, ns (oracle checks excluded).
    pub group_wall_ns: Vec<u64>,
    /// Of that, spent in `checkpoint()`, ns.
    pub group_checkpoint_ns: Vec<u64>,
    /// Transactions committed per group.
    pub group_committed: Vec<u64>,
    /// Whether the group ran traced.
    pub group_traced: Vec<bool>,
    /// Largest `imrs_used_bytes` sampled once per group.
    pub imrs_peak_bytes: u64,
    /// Mean `imrs_utilization` over those samples.
    pub imrs_util_mean: f64,
    /// Largest `side_store_entries` over those samples.
    pub side_store_peak: u64,
    /// IMRS bytes and rows when the timed section ended.
    pub imrs_end: (u64, u64),
    /// Raw and encoded bytes of the frozen extents at that moment.
    pub frozen_end: (u64, u64),
    /// Pages the device held when the timed section began: the loaded
    /// database in page form.
    pub loaded_pages: u32,
    /// Counter and histogram deltas over the timed section, oracle
    /// checks excluded.
    pub timed: Tally,
    /// Histogram deltas over the traced groups only, oracle excluded.
    pub ops_traced: OpTimes,
    /// Span totals of the traced groups.
    pub spans_timed: SpanTotals,
    /// `VmHWM` when the workload and its checks are done, before any
    /// crash and before the repeat set-ups, MiB.
    pub peak_rss_mib: f64,
    /// Correctness checks that failed, acknowledged transactions lost,
    /// engine errors.
    pub failures: Failures,
    /// Individual checks and reads whose result was verified.
    pub verified: u64,
    /// Row images sampled from the loaded tables for the layer probes.
    pub shapes: RowShapes,
}

/// Row images taken from the loaded tables, so the layer probes run on
/// the shapes the workload really stores.
#[derive(Clone, Debug, Default)]
pub struct RowShapes {
    /// One `stock` row.
    pub stock: Vec<u8>,
    /// A batch of `order_line` rows.
    pub order_lines: Vec<Vec<u8>>,
}

fn type_index(t: TxnType) -> usize {
    match t {
        TxnType::NewOrder => 0,
        TxnType::Payment => 1,
        TxnType::OrderStatus => 2,
        TxnType::Delivery => 3,
        TxnType::StockLevel => 4,
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The engine configuration of a workload: the ILM knobs as the
/// repository's figure harness sets them (`btrim_bench::build` has them
/// as literals inside a function that returns a running engine on its
/// own devices with background threads, so they are repeated here, not
/// taken from it), the shipped defaults for everything else
/// (observability included) — but one replay worker,
/// like the one client: on this host's two shared vCPUs the default of
/// two workers replayed the same log 1.7× slower than one (3.5 s
/// against 2.0 s) and anywhere from 2.3 s to 4.9 s at one seed.
pub fn engine_config(w: &Workload) -> EngineConfig {
    EngineConfig {
        mode: w.mode,
        imrs_budget: w.imrs_budget_mib << 20,
        imrs_chunk_size: 2 << 20,
        buffer_frames: w.buffer_frames,
        steady_utilization: 0.70,
        maintenance_interval_txns: u64::MAX / 2,
        tuning_window_txns: 2_000,
        tuning_utilization_floor: 0.80,
        hysteresis_windows: 3,
        low_reuse_threshold: 4.0,
        durable_commits: w.durable_commits,
        freeze_enabled: w.freeze,
        freeze_min_rows: 32,
        freeze_max_rows: 4096,
        recovery_workers: 1,
        ..Default::default()
    }
}

/// The configuration the crashed engine is recovered with: the
/// workload's, with room to replay in. `Engine::recover` replays the
/// whole IMRS log without ever reclaiming the fragments that replayed
/// packs and updates retire, so it needs a budget as large as the log's
/// cumulative traffic, not as large as the data; with the run's 12 MiB
/// it fails with `ImrsFull`. Chunks are allocated on demand, so the cap
/// costs nothing until replay uses it.
pub fn recovery_config(w: &Workload) -> EngineConfig {
    EngineConfig {
        imrs_budget: 1 << 30,
        ..engine_config(w)
    }
}

/// The TPC-C population every workload loads.
pub fn load_spec(opts: &Options) -> LoadSpec {
    let scale = if opts.quick { 10 } else { 1 };
    LoadSpec {
        warehouses: 2,
        items: 2_000 / scale,
        customers_per_district: 300 / scale,
        orders_per_district: 300 / scale,
        seed: opts.seed,
    }
}

/// Groups in the timed section: whole segments, each a whole number of
/// traced/untraced ABBA quadruples.
pub fn timed_groups(w: &Workload, opts: &Options) -> u64 {
    let groups = (w.groups_per_second * opts.seconds).round() as u64;
    let groups = if opts.quick { groups / 100 } else { groups };
    groups.max(1).next_multiple_of(SEGMENTS as u64)
}

struct Built {
    engine: Arc<Engine>,
    driver: Driver,
    devices: Devices,
    /// NewOrders committed so far (warm-up included).
    new_orders: u64,
}

/// The closed-loop client: one transaction of the standard mix per
/// step, timed from outside.
struct Client<'a> {
    driver: &'a Driver,
    tracer: &'a Tracer,
    rng: StdRng,
}

impl Client<'_> {
    fn step(&mut self) -> (TxnType, Outcome, u64) {
        let t = Driver::pick(&mut self.rng);
        let (out, ns) = self
            .tracer
            .timed(Kind::Txn, || self.driver.run_one(t, &mut self.rng));
        (t, out, ns)
    }
}

fn build(w: &'static Workload, opts: &Options, tracer: &Arc<Tracer>) -> Result<Built, String> {
    let devices = Devices::open(w, tracer);
    let engine = Arc::new(devices.engine(engine_config(w)));
    let spec = load_spec(opts);
    let tables = Arc::new(load(&engine, &spec).map_err(|e| format!("load: {e}"))?);
    let driver = Driver::new(Arc::clone(&engine), tables, &spec);
    let warmup = if opts.quick {
        BLOCK_TXNS
    } else {
        w.warmup_txns
    };
    let mut client = Client {
        driver: &driver,
        tracer,
        rng: StdRng::seed_from_u64(opts.seed ^ 0x7761_726D),
    };
    let mut new_orders = 0;
    for i in 1..=warmup {
        let (t, out, ..) = client.step();
        if out == Outcome::EngineAbort {
            return Err(format!("warm-up: {t:?} aborted by the engine"));
        }
        new_orders += u64::from(t == TxnType::NewOrder && out == Outcome::Committed);
        if i % BLOCK_TXNS == 0 {
            engine.run_maintenance();
        }
    }
    Ok(Built {
        engine,
        driver,
        devices,
        new_orders,
    })
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The read rounds: point reads at a held snapshot, then two analytic
/// scans at a fresh one.
struct Reads<'a> {
    engine: &'a Engine,
    devices: &'a Devices,
    tables: &'a Tables,
    spec: &'a LoadSpec,
    tracer: &'a Tracer,
    rng: StdRng,
    rounds: usize,
    scan_round_ns: Vec<u64>,
    scan_rows: u64,
    scan_frozen_rows: u64,
    snapshot_read_ns: Vec<u64>,
    verified: u64,
    /// What the oracle checks cost: kept out of every reported number.
    oracle_ns: u64,
    oracle: Tally,
    oracle_traced: OpTimes,
}

impl Reads<'_> {
    /// Run one round; `held` is the snapshot the point reads use.
    fn round(&mut self, held: SnapshotTxn, failures: &mut Failures) {
        for i in 0..READS_PER_ROUND {
            let w = self.rng.gen_range(1..=self.spec.warehouses);
            let (table, key) = if i % 2 == 0 {
                let d = self.rng.gen_range(1..=DISTRICTS_PER_WAREHOUSE);
                let c = nurand_customer(&mut self.rng, self.spec.customers_per_district);
                (&self.tables.customer, Customer::key(w, d, c))
            } else {
                let item = nurand_item(&mut self.rng, self.spec.items);
                (&self.tables.stock, Stock::key(w, item))
            };
            let (got, ns) = self.tracer.timed(Kind::SnapshotRead, || {
                self.engine.get_snapshot(&held, table, &key)
            });
            self.snapshot_read_ns.push(ns);
            self.verified += 1;
            match got {
                Ok(Some(_)) => {}
                Ok(None) => failures
                    .0
                    .push(format!("snapshot read: {} row missing", table.name)),
                Err(e) => failures.error("snapshot read", e),
            }
        }
        self.engine.end_snapshot(held);

        let fresh = self.engine.begin_snapshot();
        let (delivered, ns_a) = self.tracer.timed(Kind::Scan, || {
            analytics::delivered_quantity(self.engine, &fresh, self.tables)
        });
        let (low_stock, ns_b) = self.tracer.timed(Kind::Scan, || {
            analytics::low_stock(self.engine, &fresh, self.tables, LOW_STOCK_THRESHOLD)
        });
        self.scan_round_ns.push(ns_a + ns_b);
        match (delivered, low_stock) {
            (Ok(delivered), Ok(low_stock)) => {
                for r in [&delivered, &low_stock] {
                    self.scan_rows += r.rows_scanned;
                    self.scan_frozen_rows += r.frozen_rows;
                }
                if self.rounds.is_multiple_of(ORACLE_EVERY) {
                    let pair = ScanPair {
                        delivered,
                        low_stock,
                    };
                    self.check_against_oracle(&pair, failures);
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    failures.error("analytic scan", e);
                }
            }
        }
        self.engine.end_snapshot(fresh);
        self.rounds += 1;
    }

    /// The oracle reads every row of two tables through the engine, so
    /// its time and its counter movements are recorded to be taken out
    /// of the section's.
    fn check_against_oracle(&mut self, pair: &ScanPair, failures: &mut Failures) {
        let traced = self.tracer.enabled();
        self.tracer.set_enabled(false);
        let before = Tally::read(self.engine, self.devices);
        let t0 = Instant::now();
        checks::scan_oracle(self.engine, self.tables, pair, failures);
        self.oracle_ns += nanos(t0, Instant::now());
        let cost = Tally::read(self.engine, self.devices).since(&before);
        self.oracle.add(&cost);
        if traced {
            self.oracle_traced.add_delta(&OpTimes::default(), &cost.ops);
        }
        self.verified += 2;
        self.tracer.set_enabled(traced);
    }
}

fn sample_shapes(engine: &Engine, tables: &Tables) -> btrim_core::Result<RowShapes> {
    let txn = engine.begin();
    let mut shapes = RowShapes::default();
    if let Some(row) = engine.get(&txn, &tables.stock, &Stock::key(1, 1))? {
        shapes.stock = row;
    }
    engine.scan_range(&txn, &tables.order_line, &[], None, |_, _, row| {
        shapes.order_lines.push(row.to_vec());
        shapes.order_lines.len() < 2_048
    })?;
    engine.commit(txn)?;
    Ok(shapes)
}

fn verify(engine: &Engine, tables: &Tables, spec: &LoadSpec, failures: &mut Failures) -> u64 {
    checks::tpcc_consistency(engine, tables, spec, failures);
    // Three condition groups per district, plus the sampled rows.
    (spec.warehouses * DISTRICTS_PER_WAREHOUSE * 3) as u64
        + checks::one_home_per_row(engine, tables, spec, failures)
}

fn reopen_tables(engine: &Engine) -> Result<Tables, String> {
    let t = |name: &str| {
        engine
            .table(name)
            .ok_or_else(|| format!("table {name} missing after recovery"))
    };
    Ok(Tables {
        warehouse: t("warehouse")?,
        district: t("district")?,
        customer: t("customer")?,
        history: t("history")?,
        new_order: t("new_order")?,
        orders: t("orders")?,
        order_line: t("order_line")?,
        item: t("item")?,
        stock: t("stock")?,
    })
}

fn sole_owner<T>(arc: Arc<T>, what: &str) -> Result<T, String> {
    Arc::try_unwrap(arc).map_err(|_| format!("{what} still shared after the engine was dropped"))
}

/// What a crash → recover → verify cycle found.
struct Recovered {
    /// Seconds `Engine::recover` took.
    secs: f64,
    report: RecoveryReport,
    /// Checks whose result was verified.
    verified: u64,
}

/// Crash the engine of `built`, which flushed both logs at every commit,
/// recover it from what its devices had made durable, and verify the
/// result: the TPC-C conditions, one home per row, and not one
/// acknowledged NewOrder lost.
fn crash_recover_verify(
    w: &Workload,
    spec: &LoadSpec,
    built: Built,
    failures: &mut Failures,
) -> Result<Recovered, String> {
    let Built {
        engine,
        driver,
        devices,
        new_orders,
    } = built;
    let next_o_id_before = checks::next_o_id_sum(&engine, driver.tables(), spec)
        .map_err(|e| format!("read districts: {e}"))?;

    // Crash: drop the engine without shutdown, then make the devices
    // forget everything after their last completed flush / sync.
    drop(driver);
    drop(sole_owner(engine, "engine")?);
    let Devices {
        disk,
        syslog,
        imrslog,
    } = devices;
    disk.crash().map_err(|e| format!("crash disk: {e}"))?;
    let crash_log = |log: Arc<SpanLog>, what: &str| {
        sole_owner(log, what)?
            .crash()
            .map(Arc::new)
            .map_err(|e| format!("crash {what}: {e}"))
    };
    let devices = Devices {
        disk,
        syslog: crash_log(syslog, "syslog")?,
        imrslog: crash_log(imrslog, "imrslog")?,
    };

    let t0 = Instant::now();
    let recovered = Engine::recover(
        recovery_config(w),
        Arc::clone(&devices.disk) as _,
        Arc::clone(&devices.syslog) as _,
        Arc::clone(&devices.imrslog) as _,
        |e| Tables::create(e, spec.warehouses).map(|_| ()),
    );
    let secs = t0.elapsed().as_secs_f64();
    let recovered = recovered.map_err(|e| format!("recover: {e}"))?;

    let tables = reopen_tables(&recovered)?;
    let verified = verify(&recovered, &tables, spec, failures) + 1;
    let expected = checks::loaded_next_o_id_sum(spec) + new_orders;
    match checks::next_o_id_sum(&recovered, &tables, spec) {
        Ok(after) if after == expected && after == next_o_id_before => {}
        Ok(after) => failures.0.push(format!(
            "acknowledged NewOrders lost: Σ D_NEXT_O_ID {after} after recovery, \
             {next_o_id_before} before the crash, load + acknowledged = {expected}"
        )),
        Err(e) => failures.error("read districts after recovery", e),
    }
    Ok(Recovered {
        secs,
        report: recovered.recovery_report(),
        verified,
    })
}

/// Run one workload end to end.
pub fn run(w: &'static Workload, opts: &Options) -> Result<RunData, String> {
    let tracer = Arc::new(Tracer::new());
    let spec = load_spec(opts);
    let groups = timed_groups(w, opts);
    if opts.trace {
        tracer.reserve((groups * GROUP_TXNS * 8) as usize);
    }

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let t0 = Instant::now();
    let Built {
        engine,
        driver,
        devices,
        mut new_orders,
    } = build(w, opts, &tracer)?;
    setup_secs.push(t0.elapsed().as_secs_f64());
    let tables = Arc::clone(driver.tables());

    let mut failures = Failures::default();
    let mut client = Client {
        driver: &driver,
        tracer: &tracer,
        rng: StdRng::seed_from_u64(opts.seed ^ 0x0074_696D_6564),
    };
    let mut reads = Reads {
        engine: &engine,
        devices: &devices,
        tables: &tables,
        spec: &spec,
        tracer: &tracer,
        rng: StdRng::seed_from_u64(opts.seed ^ 0x7265_6164),
        rounds: 0,
        scan_round_ns: Vec::new(),
        scan_rows: 0,
        scan_frozen_rows: 0,
        snapshot_read_ns: Vec::new(),
        verified: 0,
        oracle_ns: 0,
        oracle: Tally::default(),
        oracle_traced: OpTimes::default(),
    };

    let mut txn_lat: [Vec<u64>; 5] = Default::default();
    let blocks = (groups * GROUP_BLOCKS) as usize;
    let mut maint_lat = Vec::with_capacity(blocks);
    let mut block_ns = Vec::with_capacity(blocks);
    let mut checkpoint_ns = Vec::new();
    let mut checkpoint_pages = 0u64;
    let (mut committed, mut user_aborts, mut engine_aborts) = (0u64, 0u64, 0u64);
    let mut group_wall_ns = Vec::with_capacity(groups as usize);
    let mut group_checkpoint_ns = vec![0u64; groups as usize];
    let mut group_committed = Vec::with_capacity(groups as usize);
    let mut group_traced = Vec::with_capacity(groups as usize);
    let (mut imrs_peak_bytes, mut util_sum, mut side_store_peak) = (0u64, 0.0f64, 0u64);
    let mut ops_traced = OpTimes::default();
    let mut ops_at_toggle = OpTimes::default();

    let loaded_pages = {
        use btrim_pagestore::DiskBackend;
        devices.disk.num_pages()
    };
    let start = Tally::read(&engine, &devices);

    for g in 0..groups {
        // ABBA: a linear drift in speed (the database grows) cancels
        // between the traced and the untraced groups.
        let traced = opts.trace && matches!(g % 4, 1 | 2);
        if traced != tracer.enabled() {
            let now = OpTimes::read(&engine);
            if !traced {
                ops_traced.add_delta(&ops_at_toggle, &now);
            }
            ops_at_toggle = now;
            tracer.set_enabled(traced);
        }
        let committed_before = committed;
        let oracle_before = reads.oracle_ns;
        let g0 = Instant::now();
        let held = w.reads_in_timed.then(|| engine.begin_snapshot());
        for _ in 0..GROUP_BLOCKS {
            let b0 = Instant::now();
            for _ in 0..BLOCK_TXNS {
                let (t, out, ns) = client.step();
                txn_lat[type_index(t)].push(ns);
                match out {
                    Outcome::Committed => {
                        committed += 1;
                        new_orders += u64::from(t == TxnType::NewOrder);
                    }
                    Outcome::UserAbort => user_aborts += 1,
                    Outcome::EngineAbort => engine_aborts += 1,
                }
            }
            let ((), ns) = tracer.timed(Kind::Maint, || engine.run_maintenance());
            maint_lat.push(ns);
            block_ns.push(nanos(b0, Instant::now()));
        }
        // Two groups before each multiple, which the ABBA pattern runs
        // traced, so a traced run sees its checkpoints' device calls.
        if w.checkpoint_every_groups
            .is_some_and(|every| g % every == every - 2)
        {
            let flushed_before = engine.snapshot().buffer.flushes;
            let (done, ns) = tracer.timed(Kind::Checkpoint, || engine.checkpoint());
            checkpoint_ns.push(ns);
            group_checkpoint_ns[g as usize] = ns;
            if let Err(e) = done {
                failures.error("checkpoint", e);
            }
            checkpoint_pages += engine.snapshot().buffer.flushes - flushed_before;
        }
        let s = engine.snapshot();
        imrs_peak_bytes = imrs_peak_bytes.max(s.imrs_used_bytes);
        util_sum += s.imrs_utilization;
        side_store_peak = side_store_peak.max(s.side_store_entries);
        if let Some(held) = held {
            reads.round(held, &mut failures);
        }
        let oracle_ns = reads.oracle_ns - oracle_before;
        group_wall_ns.push(nanos(g0, Instant::now()).saturating_sub(oracle_ns));
        group_committed.push(committed - committed_before);
        group_traced.push(traced);
    }
    if tracer.enabled() {
        ops_traced.add_delta(&ops_at_toggle, &OpTimes::read(&engine));
        tracer.set_enabled(false);
    }
    let end = Tally::read(&engine, &devices);
    let end_snap = engine.snapshot();
    let spans_timed = SpanTotals::from_spans(&tracer.drain());
    // Take the oracle's own reads back out of the section's numbers.
    let mut timed = end.since(&start);
    timed = timed.since(&reads.oracle);
    let ops_traced = OpTimes::between(&reads.oracle_traced, &ops_traced);

    let mut verified = verify(&engine, &tables, &spec, &mut failures);
    let shapes = if opts.trace {
        sample_shapes(&engine, &tables).map_err(|e| format!("sample rows: {e}"))?
    } else {
        RowShapes::default()
    };
    let Reads {
        scan_round_ns,
        scan_rows,
        scan_frozen_rows,
        snapshot_read_ns,
        verified: reads_verified,
        ..
    } = reads;
    verified += reads_verified;

    // Memory is read here: a replay holds every retired fragment of its
    // log, which says nothing about the run.
    let peak_rss_mib = peak_rss_mib();

    // The workload that acknowledges every commit is the one that has
    // to prove it: crash after the last transaction and expect every
    // acknowledged one back. Replay costs about as long as the section
    // took, which the other workloads spend on a longer section.
    drop(tables);
    let built = Built {
        engine,
        driver,
        devices,
        new_orders,
    };
    let recovery = if w.durable_commits {
        let recovered = crash_recover_verify(w, &spec, built, &mut failures)?;
        verified += recovered.verified;
        Some((recovered.secs, recovered.report))
    } else {
        drop(built);
        None
    };

    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let built = build(w, opts, &tracer)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        drop(built);
    }

    Ok(RunData {
        workload: w,
        setup_secs,
        recovery,
        attempted: groups * GROUP_TXNS,
        committed,
        user_aborts,
        engine_aborts,
        txn_lat,
        maint_lat,
        block_ns,
        checkpoint_ns,
        checkpoint_pages,
        scan_round_ns,
        scan_rows,
        scan_frozen_rows,
        snapshot_read_ns,
        group_wall_ns,
        group_committed,
        group_checkpoint_ns,
        group_traced,
        imrs_peak_bytes,
        imrs_util_mean: util_sum / groups as f64,
        side_store_peak,
        imrs_end: (end_snap.imrs_used_bytes, end_snap.imrs_rows as u64),
        frozen_end: (end_snap.frozen_raw_bytes, end_snap.frozen_encoded_bytes),
        loaded_pages,
        timed,
        ops_traced,
        spans_timed,
        peak_rss_mib,
        failures,
        verified,
        shapes,
    })
}
