//! The benchmark's vocabulary: every workload and metric name, with its
//! unit, direction, source and the end-to-end metric it should move.
//! `BENCHMARK.json` declares the same names; `tests/declared.rs` holds
//! the two together.

use btrim_core::EngineMode;

/// Transactions per group: eight blocks of 64, each block followed by
/// one `run_maintenance()` call. Groups are the unit of everything the
/// loop does besides transactions — tracing toggles, memory samples,
/// checkpoints, HTAP rounds.
pub const BLOCK_TXNS: u64 = 64;
/// Blocks per group.
pub const GROUP_BLOCKS: u64 = 8;
/// Transactions per group.
pub const GROUP_TXNS: u64 = BLOCK_TXNS * GROUP_BLOCKS;
/// Equal-count segments a timed section is cut into:
/// `tpcc.tpm_last_over_first` compares the last with the first.
pub const SEGMENTS: usize = 8;
/// Snapshot point reads per read round.
pub const READS_PER_ROUND: usize = 200;
/// Every n-th read round compares both scans with the row-at-a-time
/// oracle.
pub const ORACLE_EVERY: usize = 16;

/// One workload: an engine configuration and a load shape.
#[derive(Debug)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// Storage mode.
    pub mode: EngineMode,
    /// IMRS budget in MiB.
    pub imrs_budget_mib: u64,
    /// Buffer-cache frames of 8 KiB.
    pub buffer_frames: usize,
    /// Microseconds every completed log `flush()` and disk `sync()`
    /// takes: the simulated durability barrier of the in-memory devices.
    pub barrier_us: u64,
    /// Flush both logs at every commit, and prove it: the run ends with
    /// crash → recover → verify on the database the timed section left,
    /// and that recovery is the one the `core.recovery_*` metrics time.
    pub durable_commits: bool,
    /// HTAP freeze on.
    pub freeze: bool,
    /// Read rounds (held snapshot, point reads, two scans), one per
    /// group of the timed section.
    pub reads_in_timed: bool,
    /// `Engine::checkpoint()` once in every this many groups (a multiple
    /// of four, at least four).
    pub checkpoint_every_groups: Option<u64>,
    /// Warm-up transactions, part of set-up.
    pub warmup_txns: u64,
    /// Groups timed per second of `--seconds`, sized on the reference
    /// host so the timed section lasts about that long. The work is a
    /// fixed count, so both sides of a comparison do identical work.
    pub groups_per_second: f64,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpcc_imrs",
        why: "Paper's headline config: ILM_ON, 12 MiB IMRS the data outgrows, page store fully cached, memory devices; core DML, imrs, index, txn and pack/GC do the work, device I/O none",
        mode: EngineMode::IlmOn,
        imrs_budget_mib: 12,
        buffer_frames: 16_384,
        barrier_us: 0,
        durable_commits: false,
        freeze: false,
        reads_in_timed: false,
        checkpoint_every_groups: None,
        warmup_txns: 2_048,
        groups_per_second: 7.2,
    },
    Workload {
        name: "tpcc_page_spill",
        why: "Cache smaller than data: PageOnly with 256 frames (2 MiB, ~8% of the database); buffer misses, eviction, write-back and B+tree page probes do the work, imrs none",
        mode: EngineMode::PageOnly,
        imrs_budget_mib: 12,
        buffer_frames: 256,
        barrier_us: 0,
        durable_commits: false,
        freeze: false,
        reads_in_timed: false,
        checkpoint_every_groups: None,
        warmup_txns: 1_024,
        groups_per_second: 2.4,
    },
    Workload {
        name: "tpcc_durable",
        why: "As tpcc_imrs with both logs flushed at every commit, a simulated 100 us durability barrier per flush/sync and periodic checkpoints; the commit path, wal flush and checkpoint write-back do the work",
        mode: EngineMode::IlmOn,
        imrs_budget_mib: 12,
        buffer_frames: 16_384,
        barrier_us: 100,
        durable_commits: true,
        freeze: false,
        reads_in_timed: false,
        checkpoint_every_groups: Some(8),
        warmup_txns: 1_024,
        // A shorter section than the others: this workload alone ends
        // with a recovery of everything the section logged, which takes
        // two thirds as long as the section did.
        groups_per_second: 2.4,
    },
    Workload {
        name: "htap_mixed",
        why: "As tpcc_imrs plus freeze, with snapshot point reads and two analytic scans after every 512 txns; same layers read beside writes: version chains, side store, frozen extents",
        mode: EngineMode::IlmOn,
        imrs_budget_mib: 12,
        buffer_frames: 16_384,
        barrier_us: 0,
        durable_commits: false,
        freeze: true,
        reads_in_timed: true,
        checkpoint_every_groups: None,
        warmup_txns: 2_048,
        groups_per_second: 4.5,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, what: "engine build + TPC-C load + warm-up; median of the run's three set-ups" },
    EndToEnd { name: "tpm", unit: "1/min", better: Higher, bound: 0.25, what: "committed txns per wall-clock minute of the timed section, maintenance, checkpoints and in-section reads included" },
    EndToEnd { name: "new_order_p50_us", unit: "us", better: Lower, bound: 0.25, what: "around Driver::run_one(NewOrder), median over the timed section" },
    EndToEnd { name: "payment_p50_us", unit: "us", better: Lower, bound: 0.25, what: "around Driver::run_one(Payment)" },
    EndToEnd { name: "block_p95_ms", unit: "ms", better: Lower, bound: 0.25, what: "per block of 64 transactions plus the run_maintenance() call that follows them: the throughput dip a client sees while pack / GC / freeze run" },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.05, what: "VmHWM of the process when the workload and its checks end, before any crash or repeat set-up" },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Bench-owned `SpanLog` / `SpanDisk` wrappers.
    W,
    /// Bench spans around public `Engine` / `Driver` calls.
    S,
    /// `engine.obs()` histograms, count and sum per `OpClass`.
    H,
    /// Counter deltas over the timed section; exact.
    C,
    /// Layer probe: the crate's public functions on a standalone
    /// instance.
    P,
}

/// A per-layer metric, reported with `--trace 1`; never gated.
#[derive(Debug)]
pub struct PerLayer {
    /// `<layer>.<name>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Sources, in the order they contribute.
    pub src: &'static [Source],
    /// End-to-end metric(s) it should move, and on which workload.
    pub moves: &'static str,
}

use Source::{C, H, P, S, W};

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    src: &'static [Source],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        src,
        moves,
    }
}

const TPM_IMRS: &str = "tpm on tpcc_imrs";
const DML_IMRS: &str = "*_p50_us, tpm on tpcc_imrs and htap_mixed; no change on tpcc_page_spill";
const DML_PAGE: &str = "*_p50_us, tpm on tpcc_page_spill; barely on tpcc_imrs";
const COMMIT: &str = "payment_p50_us, new_order_p50_us on tpcc_durable, then tpcc_imrs";
const LIFE: &str = "block_p95_ms, tpm on tpcc_imrs; zero on tpcc_page_spill";
const FREEZE: &str = "core.scan_p50_ms, and through it tpm, on htap_mixed; zero elsewhere";
const RESTART: &str =
    "block_p95_ms, tpm on tpcc_durable (checkpoints); recovery is timed there only and not gated";
const READS: &str = "tpm on htap_mixed, where a third of the section is read rounds";
const IMRS: &str = "new_order_p50_us, payment_p50_us on tpcc_imrs; nothing on tpcc_page_spill";
const INDEX: &str =
    "all *_p50_us, strongest on tpcc_page_spill and on tpcc.delivery_p50_us (range scans)";
const PAGE: &str = "tpm, *_p50_us on tpcc_page_spill; hit path a visible share on tpcc_imrs";
const DISK: &str = "tpm on tpcc_page_spill (miss + write-back), tpcc_durable (checkpoints)";
const EXTENT: &str = "core.scan_p50_ms, and through it tpm, on htap_mixed";
const WAL_FLUSH: &str =
    "payment_p50_us, new_order_p50_us, tpm on tpcc_durable; about zero elsewhere";
const WAL_APPEND: &str = "*_p50_us on every workload, a little";
const TXN: &str = "payment_p50_us on tpcc_imrs";
const COMMON: &str = "*_p50_us on tpcc_imrs";
const NONE: &str = "none; says whether the traced shares can be trusted";
const BUDGET: &str = "the remainder that should shrink as spans move inside the engine";

/// The per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[PerLayer] = &[
    // tpcc
    layer("tpcc.txn_self_share", "share", Lower, &[S, H], TPM_IMRS),
    layer("tpcc.tpm_last_over_first", "ratio", Higher, &[S], TPM_IMRS),
    // demoted from end to end: between runs these spread 1.5 to 2 times
    // as wide as the medians that stayed, past any bound the contract
    // allows
    layer("tpcc.new_order_p99_us", "us", Lower, &[S], "was end to end; follows new_order_p50_us and block_p95_ms"),
    layer("tpcc.payment_p99_us", "us", Lower, &[S], "was end to end; follows payment_p50_us, first on tpcc_durable"),
    layer("tpcc.order_status_p50_us", "us", Lower, &[S], "was end to end; index range scan + point reads"),
    layer("tpcc.delivery_p50_us", "us", Lower, &[S], "was end to end; ten range scans, deletes and updates: memory-bound, so it swings furthest when the host slows"),
    layer("tpcc.stock_level_p50_us", "us", Lower, &[S], "was end to end; 200-row index range scan"),
    // core DML
    layer("core.select_imrs_ns", "ns", Lower, &[H], DML_IMRS),
    layer("core.update_imrs_ns", "ns", Lower, &[H], DML_IMRS),
    layer("core.insert_imrs_ns", "ns", Lower, &[H], DML_IMRS),
    layer("core.delete_imrs_ns", "ns", Lower, &[H], DML_IMRS),
    layer("core.select_page_ns", "ns", Lower, &[H], DML_PAGE),
    layer("core.update_page_ns", "ns", Lower, &[H], DML_PAGE),
    layer("core.insert_page_ns", "ns", Lower, &[H], DML_PAGE),
    layer("core.delete_page_ns", "ns", Lower, &[H], DML_PAGE),
    layer("core.ops_per_txn", "count", Lower, &[H, C], "tpm everywhere"),
    layer("core.dml_share", "share", Lower, &[H], "tpm everywhere"),
    layer("core.imrs_hit_rate", "ratio", Higher, &[C], "tpm on tpcc_imrs (about 0.98); 0 on tpcc_page_spill"),
    layer("core.migration_ns", "ns", Lower, &[H], DML_IMRS),
    layer("core.migrations_per_ktxn", "count", Lower, &[H, C], DML_IMRS),
    // core commit
    layer("core.commit_ns", "ns", Lower, &[H], COMMIT),
    layer("core.commit_serialize_ns", "ns", Lower, &[H], COMMIT),
    layer("core.commit_share", "share", Lower, &[H], COMMIT),
    // core life cycle
    layer("core.maint_share", "share", Lower, &[S], LIFE),
    layer("core.pack_cycle_us", "us", Lower, &[H], LIFE),
    layer("core.pack_rows_per_ktxn", "count", Lower, &[C], LIFE),
    layer("core.pack_skip_ratio", "ratio", Lower, &[C], LIFE),
    layer("core.gc_pass_us", "us", Lower, &[H], "block_p95_ms everywhere"),
    layer("core.gc_bytes_per_txn", "B", Lower, &[C], "peak_rss_mib on tpcc_imrs"),
    layer("core.tuning_windows", "count", Lower, &[C], LIFE),
    layer("core.ilm_toggles", "count", Lower, &[C], LIFE),
    layer("core.imrs_util_mean", "ratio", Lower, &[C], "peak_rss_mib on tpcc_imrs (about 0.70)"),
    layer("core.freeze_rows_per_ktxn", "count", Higher, &[C], FREEZE),
    layer("core.thaw_rows_per_ktxn", "count", Lower, &[C], FREEZE),
    layer("core.freeze_compression", "ratio", Higher, &[C], FREEZE),
    layer("core.side_store_peak_entries", "count", Lower, &[C], FREEZE),
    // core restart
    layer("core.checkpoint_ms", "ms", Lower, &[S], RESTART),
    layer("core.checkpoint_pages", "count", Lower, &[C], RESTART),
    layer("core.recovery_s", "s", Lower, &[S], "was end to end; Engine::recover of everything tpcc_durable's section logged, 0 on the workloads that do not end with a crash"),
    layer("core.recovery_analysis_ms", "ms", Lower, &[C], RESTART),
    layer("core.recovery_redo_ms", "ms", Lower, &[C], RESTART),
    layer("core.recovery_undo_ms", "ms", Lower, &[S, C], RESTART),
    layer("core.recovery_records_replayed", "count", Lower, &[C], RESTART),
    // core reads
    layer("core.scan_p50_ms", "ms", Lower, &[S], "was end to end; per read round, both analytic scans together; htap_mixed only, so it cannot be a metric every workload reports"),
    layer("core.scan_ns_per_row", "ns", Lower, &[S, C], READS),
    layer("core.scan_frozen_frac", "ratio", Higher, &[C], READS),
    layer("core.snapshot_read_p50_us", "us", Lower, &[S], "was end to end; per get_snapshot at the held snapshot; htap_mixed only"),
    layer("core.snapshot_read_ns", "ns", Lower, &[H], READS),
    // imrs
    layer("imrs.ridmap_get_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.ridmap_cas_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.alloc_free_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.store_insert_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.add_version_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.visible_chain1_ns", "ns", Lower, &[P], IMRS),
    layer("imrs.visible_chain8_ns", "ns", Lower, &[P], "core.snapshot_read_p50_us on htap_mixed"),
    layer("imrs.bytes_per_row", "B", Lower, &[C], "peak_rss_mib on tpcc_imrs"),
    layer("imrs.peak_mib", "MiB", Lower, &[C], "peak_rss_mib on tpcc_imrs: the paper's cache needed for parity; 0 on tpcc_page_spill, so not gated"),
    // index
    layer("index.hash_get_ns", "ns", Lower, &[P], IMRS),
    layer("index.btree_get_ns", "ns", Lower, &[P], INDEX),
    layer("index.btree_insert_ns", "ns", Lower, &[P], INDEX),
    layer("index.btree_delete_ns", "ns", Lower, &[P], INDEX),
    layer("index.btree_scan_ns_per_row", "ns", Lower, &[P], INDEX),
    layer("index.btree_height", "count", Lower, &[P], INDEX),
    // pagestore
    layer("pagestore.fetch_hit_ns", "ns", Lower, &[P], PAGE),
    layer("pagestore.fetch_miss_ns", "ns", Lower, &[P], PAGE),
    layer("pagestore.hit_rate", "ratio", Higher, &[C], "tpm on tpcc_page_spill; 1 on tpcc_imrs"),
    layer("pagestore.fetches_per_txn", "count", Lower, &[C], PAGE),
    layer("pagestore.evictions_per_txn", "count", Lower, &[C], "tpm on tpcc_page_spill; 0 on tpcc_imrs"),
    layer("pagestore.writebacks_per_txn", "count", Lower, &[C], DISK),
    layer("pagestore.heap_insert_ns", "ns", Lower, &[P], PAGE),
    layer("pagestore.heap_get_ns", "ns", Lower, &[P], PAGE),
    layer("pagestore.heap_update_ns", "ns", Lower, &[P], PAGE),
    layer("pagestore.extent_encode_ns_per_row", "ns", Lower, &[P], EXTENT),
    layer("pagestore.extent_decode_ns_per_row", "ns", Lower, &[P], EXTENT),
    layer("pagestore.disk_reads_per_txn", "count", Lower, &[W, C], DISK),
    layer("pagestore.disk_writes_per_txn", "count", Lower, &[W, C], DISK),
    layer("pagestore.disk_read_us", "us", Lower, &[W], DISK),
    layer("pagestore.disk_write_us", "us", Lower, &[W], DISK),
    layer("pagestore.disk_syncs", "count", Lower, &[W, C], DISK),
    layer("pagestore.disk_sync_us", "us", Lower, &[W], DISK),
    layer("pagestore.disk_share", "share", Lower, &[W], DISK),
    // wal
    layer("wal.appends_per_txn", "count", Lower, &[W, C], WAL_APPEND),
    layer("wal.bytes_per_txn", "B", Lower, &[W, C], "tpm on tpcc_durable; write amplification everywhere"),
    layer("wal.batch_records_mean", "count", Higher, &[W, C], WAL_APPEND),
    layer("wal.append_ns", "ns", Lower, &[W], WAL_APPEND),
    layer("wal.append_share", "share", Lower, &[W], WAL_APPEND),
    layer("wal.flushes_per_txn", "count", Lower, &[W, C], WAL_FLUSH),
    layer("wal.flush_us", "us", Lower, &[W], WAL_FLUSH),
    layer("wal.flush_share", "share", Lower, &[W], WAL_FLUSH),
    layer("wal.encode_imrs_ns", "ns", Lower, &[P], WAL_APPEND),
    layer("wal.encode_page_ns", "ns", Lower, &[P], WAL_APPEND),
    layer("wal.crc32_ns_per_kib", "ns", Lower, &[P], WAL_APPEND),
    // txn
    layer("txn.lock_unlock_ns", "ns", Lower, &[P], TXN),
    layer("txn.begin_finish_ns", "ns", Lower, &[P], TXN),
    layer("txn.oldest_snapshot_ns", "ns", Lower, &[P], TXN),
    layer("txn.aborts_per_ktxn", "count", Lower, &[C], "tpm everywhere (user rollbacks only, about 4.5)"),
    // common
    layer("common.clock_reserve_publish_ns", "ns", Lower, &[P], COMMON),
    layer("common.codec_row_encode_ns", "ns", Lower, &[P], COMMON),
    layer("common.codec_row_decode_ns", "ns", Lower, &[P], COMMON),
    layer("common.sharded_counter_inc_ns", "ns", Lower, &[P], COMMON),
    // obs
    layer("obs.record_ns", "ns", Lower, &[P], NONE),
    layer("obs.timed_pair_ns", "ns", Lower, &[P], NONE),
    layer("obs.trace_overhead_frac", "share", Lower, &[S], NONE),
    layer("core.maint_stall_p95_us", "us", Lower, &[S], LIFE),
    layer("core.maint_stall_p99_us", "us", Lower, &[S], LIFE),
    layer("core.maint_stall_max_us", "us", Lower, &[S], LIFE),
    // budget
    layer("budget.attributed_share", "share", Higher, &[S, H, W], BUDGET),
    layer("budget.unattributed_share", "share", Lower, &[S, H, W], BUDGET),
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above; `tests/declared.rs`
/// fails, and prints this text, when the file at the repository root
/// differs from it.
pub fn benchmark_json() -> String {
    use crate::json::{num, string};
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench_all/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                string(w.name),
                string(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str()),
                num(m.bound)
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bench_all\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(string).join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}
