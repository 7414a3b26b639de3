//! `btrim-obs`: the engine's observability layer.
//!
//! Three pieces, mirroring what the paper's evaluation (§VIII) needed
//! to *measure* and what its control loops (§V, §VI) needed to
//! *explain*:
//!
//! 1. A per-operation-class registry of lock-free log-scale latency
//!    histograms ([`Obs`] over [`btrim_common::LatencyHistogram`]) —
//!    ISUD split by IMRS-vs-page-store path, commit, WAL append/fsync,
//!    buffer-cache miss fetches, migration, pack cycles, GC passes,
//!    and tuning windows.
//! 2. An ILM decision trace ([`IlmTraceEvent`] in a
//!    [`btrim_common::TraceRing`]): every tuner verdict with the rule
//!    that fired and the inputs it saw, and every pack cycle with its
//!    `NumBytesToPack` apportioning (UI/CUI/PI) and TSF-bypass
//!    decisions.
//! 3. JSON export helpers ([`json`]) so benches and the TPC-C driver
//!    can report latency percentiles alongside throughput without
//!    serde.
//!
//! Cost model: when latency recording is disabled, [`Obs::start`]
//! returns `None` without reading the clock, so a disabled engine pays
//! one branch per instrumented operation. When enabled, each record is
//! two `Instant::now()` calls plus four relaxed atomic RMWs (measured
//! in EXPERIMENTS.md).

#![forbid(unsafe_code)]

pub mod json;

use std::sync::Arc;
use std::time::Instant;

use btrim_common::{HistSummary, LatencyHistogram, TraceRing};

/// Operation classes with dedicated latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum OpClass {
    /// INSERT placed in the IMRS.
    InsertImrs,
    /// INSERT routed to the page store.
    InsertPage,
    /// SELECT served from an IMRS row (re-use).
    SelectImrs,
    /// SELECT served from the page store.
    SelectPage,
    /// Snapshot (MVCC) read by a read-only transaction: version-chain
    /// walk on the IMRS path, page bytes + before-image side store on
    /// the page path. Tracked separately from `SelectImrs`/`SelectPage`
    /// because this is the lock-free path whose tail latency must stay
    /// flat as writers scale.
    SnapshotRead,
    /// UPDATE applied to an IMRS row.
    UpdateImrs,
    /// UPDATE applied in the page store.
    UpdatePage,
    /// DELETE of an IMRS row.
    DeleteImrs,
    /// DELETE of a page-store row.
    DeletePage,
    /// Whole commit call (log drain + group flush when durable).
    Commit,
    /// Commit-time serialization work inside `Commit`: stamping the
    /// commit timestamp into the transaction's staged WAL buffer and
    /// building the batch slices. The per-record encode itself happens
    /// at DML time (inside the ISUD classes), so this measures exactly
    /// what is left of serialization on the commit critical path.
    CommitSerialize,
    /// One WAL record append (either log).
    WalAppend,
    /// One WAL flush/fsync (group-commit leader or direct flush).
    WalFsync,
    /// Buffer-cache miss: disk fetch + frame install (hits untimed).
    BufferMiss,
    /// Page-store → IMRS movement (migration or select-caching).
    Migration,
    /// One pack cycle (§VI.B).
    PackCycle,
    /// One GC pass.
    GcPass,
    /// One tuning window (§V.B).
    TuningWindow,
    /// One fuzzy-checkpoint flush batch (dirty pages written back
    /// without quiescing writers).
    CheckpointFlush,
    /// One recovery replay worker's shard of forward redo (page-log
    /// redo or IMRS replay).
    RecoveryReplay,
    /// One snapshot-isolated analytic scan merging frozen extents,
    /// IMRS deltas, and page-resident rows.
    AnalyticScan,
}

impl OpClass {
    /// Number of classes; sizes the histogram table.
    pub const COUNT: usize = 21;

    /// All classes, in display order.
    pub const ALL: [OpClass; Self::COUNT] = [
        OpClass::InsertImrs,
        OpClass::InsertPage,
        OpClass::SelectImrs,
        OpClass::SelectPage,
        OpClass::SnapshotRead,
        OpClass::UpdateImrs,
        OpClass::UpdatePage,
        OpClass::DeleteImrs,
        OpClass::DeletePage,
        OpClass::Commit,
        OpClass::CommitSerialize,
        OpClass::WalAppend,
        OpClass::WalFsync,
        OpClass::BufferMiss,
        OpClass::Migration,
        OpClass::PackCycle,
        OpClass::GcPass,
        OpClass::TuningWindow,
        OpClass::CheckpointFlush,
        OpClass::RecoveryReplay,
        OpClass::AnalyticScan,
    ];

    /// Stable machine-readable name (JSON keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::InsertImrs => "insert_imrs",
            OpClass::InsertPage => "insert_page",
            OpClass::SelectImrs => "select_imrs",
            OpClass::SelectPage => "select_page",
            OpClass::SnapshotRead => "snapshot_read",
            OpClass::UpdateImrs => "update_imrs",
            OpClass::UpdatePage => "update_page",
            OpClass::DeleteImrs => "delete_imrs",
            OpClass::DeletePage => "delete_page",
            OpClass::Commit => "commit",
            OpClass::CommitSerialize => "commit_serialize",
            OpClass::WalAppend => "wal_append",
            OpClass::WalFsync => "wal_fsync",
            OpClass::BufferMiss => "buffer_miss_fetch",
            OpClass::Migration => "migration",
            OpClass::PackCycle => "pack_cycle",
            OpClass::GcPass => "gc_pass",
            OpClass::TuningWindow => "tuning_window",
            OpClass::CheckpointFlush => "checkpoint_flush",
            OpClass::RecoveryReplay => "recovery_replay",
            OpClass::AnalyticScan => "analytic_scan",
        }
    }
}

/// The observability hub: one histogram per [`OpClass`] plus the ILM
/// decision trace. Shared via `Arc` between the engine facade, its
/// background threads, and the WAL/buffer-cache hooks (which hold
/// plain `Arc<LatencyHistogram>` clones so the lower crates never
/// depend on this one).
pub struct Obs {
    latency_enabled: bool,
    hists: [Arc<LatencyHistogram>; OpClass::COUNT],
    /// Bounded ring of tuner verdicts and pack-cycle summaries.
    pub trace: TraceRing<IlmTraceEvent>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(true, 1024)
    }
}

impl Obs {
    pub fn new(latency_enabled: bool, trace_capacity: usize) -> Self {
        Obs {
            latency_enabled,
            hists: std::array::from_fn(|_| Arc::new(LatencyHistogram::new())),
            trace: TraceRing::new(trace_capacity),
        }
    }

    /// Everything off: no clock reads, no trace retention.
    pub fn disabled() -> Self {
        Self::new(false, 0)
    }

    pub fn latency_enabled(&self) -> bool {
        self.latency_enabled
    }

    /// Start timing an operation. `None` (no clock read at all) when
    /// latency recording is disabled — the caller just threads the
    /// `Option` through to [`Obs::record_since`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.latency_enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the elapsed nanoseconds since `started` under `class`.
    #[inline]
    pub fn record_since(&self, class: OpClass, started: Option<Instant>) {
        if let Some(t) = started {
            self.hists[class as usize].record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Record an externally measured value (nanoseconds) under `class`.
    #[inline]
    pub fn record_nanos(&self, class: OpClass, nanos: u64) {
        if self.latency_enabled {
            self.hists[class as usize].record(nanos);
        }
    }

    /// The histogram behind a class — cloned into WAL / buffer-cache
    /// hooks, merged by multi-engine benches.
    pub fn hist(&self, class: OpClass) -> &Arc<LatencyHistogram> {
        &self.hists[class as usize]
    }

    /// Summaries of every class that recorded at least one value.
    pub fn summaries(&self) -> Vec<(OpClass, HistSummary)> {
        OpClass::ALL
            .iter()
            .filter_map(|&c| {
                let s = self.hists[c as usize].summary();
                (s.count > 0).then_some((c, s))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// ILM decision trace events
// ---------------------------------------------------------------------

/// What a tuner verdict did to a partition's ILM state (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerAction {
    /// A disable vote was cast (hysteresis still counting).
    VoteDisable,
    /// Stage 1 applied: select-caching and update-migration off.
    DisabledStage1,
    /// Stage 2 applied: inserts off too — partition fully disabled.
    DisabledFull,
    /// An enable vote was cast (hysteresis still counting).
    VoteEnable,
    /// All IMRS use re-enabled.
    Reenabled,
}

impl TunerAction {
    pub fn name(self) -> &'static str {
        match self {
            TunerAction::VoteDisable => "vote_disable",
            TunerAction::DisabledStage1 => "disabled_stage1",
            TunerAction::DisabledFull => "disabled_full",
            TunerAction::VoteEnable => "vote_enable",
            TunerAction::Reenabled => "reenabled",
        }
    }

    /// Whether this action toggled the partition's ILM state (matches
    /// `PartitionIlmState::toggles`).
    pub fn is_toggle(self) -> bool {
        matches!(
            self,
            TunerAction::DisabledStage1 | TunerAction::DisabledFull | TunerAction::Reenabled
        )
    }
}

/// One tuner verdict: the rule that fired and every input it read.
/// Hold verdicts (no vote, no transition) are not traced — they carry
/// no decision and would flood the bounded ring.
#[derive(Clone, Debug)]
pub struct TunerTrace {
    /// Tuning window ordinal (1-based, `Tuner::windows_run` after).
    pub window: u64,
    /// Partition the verdict applies to.
    pub partition: u64,
    pub action: TunerAction,
    /// Which §V rule fired: `low-reuse` (disable path), `contention`
    /// or `demand-growth` (re-enable path).
    pub rule: &'static str,
    /// Window delta of re-use ops (S+U+D on IMRS rows).
    pub reuse_ops: u64,
    /// Window delta of new rows brought into the IMRS.
    pub rows_in: u64,
    /// Window delta of page-store ops.
    pub page_ops: u64,
    /// Window delta of contended page-store ops.
    pub page_contention: u64,
    /// Re-use per resident row this window (`low-reuse` input).
    pub avg_reuse: f64,
    /// Partition IMRS footprint in bytes (guard input).
    pub footprint_bytes: u64,
    /// IMRS-resident rows in the partition.
    pub resident_rows: u64,
    /// Overall IMRS utilization at verdict time (guard input).
    pub utilization: f64,
    /// Re-use + page ops this window (`demand-growth` numerator).
    pub activity: u64,
    /// Activity in the window the partition was disabled (baseline).
    pub activity_baseline: u64,
    /// Consecutive same-direction votes including this one.
    pub votes: u32,
    /// Votes required before the verdict is applied (hysteresis).
    pub votes_needed: u32,
}

/// Per-partition slice of one pack cycle (§VI.C apportioning).
#[derive(Clone, Debug)]
pub struct PackPartitionTrace {
    pub partition: u64,
    /// Usefulness index `SUD_ρ / Σ SUD` (0 under the uniform policy).
    pub ui: f64,
    /// Cache-utilization index `mem_ρ / Σ mem` (0 under uniform).
    pub cui: f64,
    /// Packability index — this partition's share of the cycle.
    pub pi: f64,
    /// Bytes earlier ticks apportioned to the partition and it still
    /// owed when the cycle started (less than one pack transaction).
    pub owed_bytes: u64,
    /// Byte target apportioned to the partition.
    pub target_bytes: u64,
    /// Bytes actually packed out.
    pub bytes_packed: u64,
    /// Rows inspected but rotated back as hot.
    pub rows_skipped_hot: u64,
    /// Whether the TSF was bypassed for this partition (low re-use
    /// rate, §VI.D.2) — when true, recency could not protect rows.
    pub tsf_bypassed: bool,
    /// False when the `pi < 0.01` gate skipped the partition without
    /// scanning its queue.
    pub scanned: bool,
}

/// One pack cycle: the global byte budget and how it was spent.
#[derive(Clone, Debug)]
pub struct PackCycleTrace {
    /// Cycle ordinal (`PackState::cycles` after this cycle).
    pub cycle: u64,
    /// Pack level: `steady` or `aggressive`.
    pub level: &'static str,
    /// IMRS utilization when the cycle started.
    pub utilization: f64,
    /// Live IMRS bytes above the steady line when the cycle started,
    /// less what partitions already owe (Σ `owed_bytes`): a maintenance
    /// tick's cycle packs `min(5 % of use, this)`.
    pub over_steady_bytes: u64,
    /// `NumBytesToPack` for the cycle.
    pub num_bytes_to_pack: u64,
    /// Bytes actually packed across all partitions.
    pub bytes_packed: u64,
    pub partitions: Vec<PackPartitionTrace>,
}

/// One fuzzy checkpoint, begin to end: how much it wrote, in how many
/// rate-limited batches, the low-water LSN it certified, and how long
/// the flushing stalled the checkpoint thread (writers are never
/// stalled — that is the contract this trace exists to audit).
#[derive(Clone, Debug)]
pub struct CheckpointTrace {
    /// Checkpoint ordinal (1-based over the engine's lifetime).
    pub ordinal: u64,
    /// Dirty pages enumerated at begin.
    pub dirty_pages: u64,
    /// Pages actually written back (≤ `dirty_pages`: pages evicted or
    /// cleaned mid-checkpoint are skipped).
    pub pages_flushed: u64,
    /// Flush batches issued.
    pub batches: u64,
    /// Redo low-water LSN the completed pair certified.
    pub low_water_lsn: u64,
    /// Syslogs records dropped by the post-checkpoint prefix truncation.
    pub syslog_truncated: u64,
    /// Sysimrslogs records dropped by it: everything below the image.
    pub imrslog_truncated: u64,
    /// Rows in the IMRS image.
    pub image_rows: u64,
    /// Bytes of the image's records (rows and frozen extents).
    pub image_bytes: u64,
    /// Wall time the checkpoint thread spent flushing + syncing
    /// (excludes the deliberate inter-batch pauses).
    pub stall_nanos: u64,
}

/// One freeze decision: a batch of cold page-resident rows promoted
/// into an immutable compressed columnar extent, with the compression
/// achieved and why candidate rows were passed over.
#[derive(Clone, Debug)]
pub struct FreezeTrace {
    /// Extent id assigned to the new extent.
    pub extent: u64,
    /// Partition the rows were harvested from.
    pub partition: u64,
    /// Rows frozen into the extent.
    pub rows: u64,
    /// Uncompressed row-image bytes represented by the extent.
    pub raw_bytes: u64,
    /// Encoded (dictionary + bit-packed) extent size on the log.
    pub encoded_bytes: u64,
    /// Candidates skipped because their row lock was held.
    pub rows_skipped_hot: u64,
    /// Candidates skipped because a snapshot older than their newest
    /// stamped version was still pinned.
    pub rows_skipped_recent: u64,
    /// Whether the extent used the declared per-column layout (true)
    /// or fell back to a single opaque byte column (false).
    pub schema_columns: bool,
}

/// Freeze's verdict on one partition: it stops freezing once more than
/// a quarter of the rows it ever froze have left its extents. Traced
/// when a partition stops, with the counts the verdict read.
#[derive(Clone, Debug)]
pub struct FreezeVerdictTrace {
    /// The partition.
    pub partition: u64,
    /// Rows it ever froze.
    pub rows_frozen: u64,
    /// Of those, rows that left its extents (thawed or dissolved).
    pub rows_thawed: u64,
}

/// One dissolve: an extent with fewer than a quarter of its rows live
/// thawed them to pages in one batch.
#[derive(Clone, Debug)]
pub struct DissolveTrace {
    /// The extent.
    pub extent: u64,
    /// Its partition.
    pub partition: u64,
    /// Rows the extent was built with.
    pub rows: u64,
    /// Rows live in it when the dissolve read it.
    pub rows_live: u64,
    /// Rows the batch thawed to pages.
    pub rows_thawed: u64,
    /// Live rows skipped because their row lock was held.
    pub rows_skipped_hot: u64,
}

/// An entry in the ILM decision trace ring.
#[derive(Clone, Debug)]
pub enum IlmTraceEvent {
    Tuner(TunerTrace),
    Pack(PackCycleTrace),
    Checkpoint(CheckpointTrace),
    Freeze(FreezeTrace),
    FreezeVerdict(FreezeVerdictTrace),
    Dissolve(DissolveTrace),
}

impl IlmTraceEvent {
    /// Machine-readable JSON object for this event.
    pub fn to_json(&self) -> String {
        match self {
            IlmTraceEvent::Tuner(t) => format!(
                concat!(
                    "{{\"kind\":\"tuner\",\"window\":{},\"partition\":{},",
                    "\"action\":\"{}\",\"rule\":\"{}\",\"reuse_ops\":{},",
                    "\"rows_in\":{},\"page_ops\":{},\"page_contention\":{},",
                    "\"avg_reuse\":{},\"footprint_bytes\":{},\"resident_rows\":{},",
                    "\"utilization\":{},\"activity\":{},\"activity_baseline\":{},",
                    "\"votes\":{},\"votes_needed\":{}}}"
                ),
                t.window,
                t.partition,
                t.action.name(),
                json::escape(t.rule),
                t.reuse_ops,
                t.rows_in,
                t.page_ops,
                t.page_contention,
                json::num(t.avg_reuse),
                t.footprint_bytes,
                t.resident_rows,
                json::num(t.utilization),
                t.activity,
                t.activity_baseline,
                t.votes,
                t.votes_needed,
            ),
            IlmTraceEvent::Pack(p) => {
                let parts: Vec<String> = p
                    .partitions
                    .iter()
                    .map(|s| {
                        format!(
                            concat!(
                                "{{\"partition\":{},\"ui\":{},\"cui\":{},\"pi\":{},",
                                "\"owed_bytes\":{},\"target_bytes\":{},\"bytes_packed\":{},",
                                "\"rows_skipped_hot\":{},\"tsf_bypassed\":{},",
                                "\"scanned\":{}}}"
                            ),
                            s.partition,
                            json::num(s.ui),
                            json::num(s.cui),
                            json::num(s.pi),
                            s.owed_bytes,
                            s.target_bytes,
                            s.bytes_packed,
                            s.rows_skipped_hot,
                            s.tsf_bypassed,
                            s.scanned,
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "{{\"kind\":\"pack\",\"cycle\":{},\"level\":\"{}\",",
                        "\"utilization\":{},\"over_steady_bytes\":{},",
                        "\"num_bytes_to_pack\":{},\"bytes_packed\":{},",
                        "\"partitions\":[{}]}}"
                    ),
                    p.cycle,
                    p.level,
                    json::num(p.utilization),
                    p.over_steady_bytes,
                    p.num_bytes_to_pack,
                    p.bytes_packed,
                    parts.join(","),
                )
            }
            IlmTraceEvent::Checkpoint(c) => format!(
                concat!(
                    "{{\"kind\":\"checkpoint\",\"ordinal\":{},\"dirty_pages\":{},",
                    "\"pages_flushed\":{},\"batches\":{},\"low_water_lsn\":{},",
                    "\"syslog_truncated\":{},\"imrslog_truncated\":{},",
                    "\"image_rows\":{},\"image_bytes\":{},\"stall_nanos\":{}}}"
                ),
                c.ordinal,
                c.dirty_pages,
                c.pages_flushed,
                c.batches,
                c.low_water_lsn,
                c.syslog_truncated,
                c.imrslog_truncated,
                c.image_rows,
                c.image_bytes,
                c.stall_nanos,
            ),
            IlmTraceEvent::Freeze(f) => format!(
                concat!(
                    "{{\"kind\":\"freeze\",\"extent\":{},\"partition\":{},",
                    "\"rows\":{},\"raw_bytes\":{},\"encoded_bytes\":{},",
                    "\"rows_skipped_hot\":{},\"rows_skipped_recent\":{},",
                    "\"schema_columns\":{}}}"
                ),
                f.extent,
                f.partition,
                f.rows,
                f.raw_bytes,
                f.encoded_bytes,
                f.rows_skipped_hot,
                f.rows_skipped_recent,
                f.schema_columns,
            ),
            IlmTraceEvent::FreezeVerdict(v) => format!(
                concat!(
                    "{{\"kind\":\"freeze_verdict\",\"partition\":{},",
                    "\"rows_frozen\":{},\"rows_thawed\":{},\"freezing\":false}}"
                ),
                v.partition, v.rows_frozen, v.rows_thawed,
            ),
            IlmTraceEvent::Dissolve(d) => format!(
                concat!(
                    "{{\"kind\":\"dissolve\",\"extent\":{},\"partition\":{},",
                    "\"rows\":{},\"rows_live\":{},\"rows_thawed\":{},",
                    "\"rows_skipped_hot\":{}}}"
                ),
                d.extent, d.partition, d.rows, d.rows_live, d.rows_thawed, d.rows_skipped_hot,
            ),
        }
    }
}

/// JSON object for one class's [`HistSummary`] (nanosecond unit).
pub fn summary_to_json(class: OpClass, s: &HistSummary) -> String {
    format!(
        concat!(
            "{{\"class\":\"{}\",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},",
            "\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}"
        ),
        class.name(),
        s.count,
        s.mean,
        s.p50,
        s.p95,
        s.p99,
        s.max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ALL` is the enum in declaration order: entry `i` is the variant
    /// whose discriminant is `i`, so a variant left out of `ALL` shifts
    /// every later one and fails here — or, left out at the end, has no
    /// slot in the `COUNT`-long histogram table and panics the first
    /// time it is recorded.
    #[test]
    fn all_classes_have_unique_names_and_indices() {
        assert_eq!(OpClass::COUNT, OpClass::ALL.len());
        let names: std::collections::HashSet<&str> =
            OpClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpClass::COUNT);
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        assert!(obs.start().is_none());
        obs.record_since(OpClass::Commit, obs.start());
        obs.record_nanos(OpClass::Commit, 123);
        assert!(obs.summaries().is_empty());
        obs.trace.push(IlmTraceEvent::Pack(PackCycleTrace {
            cycle: 1,
            level: "steady",
            utilization: 0.5,
            over_steady_bytes: 0,
            num_bytes_to_pack: 10,
            bytes_packed: 0,
            partitions: vec![],
        }));
        assert!(obs.trace.is_empty());
    }

    #[test]
    fn enabled_obs_records_and_summarizes() {
        let obs = Obs::new(true, 16);
        let t = obs.start();
        assert!(t.is_some());
        obs.record_since(OpClass::SelectImrs, t);
        obs.record_nanos(OpClass::SelectImrs, 1_000);
        obs.record_nanos(OpClass::Commit, 5_000);
        let sums = obs.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].0, OpClass::SelectImrs);
        assert_eq!(sums[0].1.count, 2);
        assert_eq!(sums[1].0, OpClass::Commit);
    }

    #[test]
    fn trace_events_serialize_to_valid_json() {
        let tuner = IlmTraceEvent::Tuner(TunerTrace {
            window: 3,
            partition: 7,
            action: TunerAction::DisabledStage1,
            rule: "low-reuse",
            reuse_ops: 1,
            rows_in: 100,
            page_ops: 5,
            page_contention: 0,
            avg_reuse: 0.01,
            footprint_bytes: 4096,
            resident_rows: 80,
            utilization: 0.83,
            activity: 6,
            activity_baseline: 0,
            votes: 2,
            votes_needed: 2,
        });
        let pack = IlmTraceEvent::Pack(PackCycleTrace {
            cycle: 9,
            level: "aggressive",
            utilization: 0.91,
            over_steady_bytes: 2_200_000,
            num_bytes_to_pack: 65536,
            bytes_packed: 60000,
            partitions: vec![PackPartitionTrace {
                partition: 7,
                ui: 0.25,
                cui: 0.75,
                pi: 0.9,
                owed_bytes: 1_200,
                target_bytes: 58982,
                bytes_packed: 60000,
                rows_skipped_hot: 3,
                tsf_bypassed: true,
                scanned: true,
            }],
        });
        let ckpt = IlmTraceEvent::Checkpoint(CheckpointTrace {
            ordinal: 4,
            dirty_pages: 120,
            pages_flushed: 118,
            batches: 2,
            low_water_lsn: 501,
            syslog_truncated: 480,
            imrslog_truncated: 1_200,
            image_rows: 300,
            image_bytes: 48_000,
            stall_nanos: 2_000_000,
        });
        let freeze = IlmTraceEvent::Freeze(FreezeTrace {
            extent: 3,
            partition: 9,
            rows: 512,
            raw_bytes: 40_960,
            encoded_bytes: 12_288,
            rows_skipped_hot: 2,
            rows_skipped_recent: 1,
            schema_columns: true,
        });
        let verdict = IlmTraceEvent::FreezeVerdict(FreezeVerdictTrace {
            partition: 9,
            rows_frozen: 400,
            rows_thawed: 101,
        });
        let dissolve = IlmTraceEvent::Dissolve(DissolveTrace {
            extent: 3,
            partition: 9,
            rows: 512,
            rows_live: 100,
            rows_thawed: 99,
            rows_skipped_hot: 1,
        });
        assert!(pack.to_json().contains("\"over_steady_bytes\":2200000,"));
        for ev in [tuner, pack, ckpt, freeze, verdict, dissolve] {
            let js = ev.to_json();
            json::validate(&js).unwrap_or_else(|e| panic!("{e}: {js}"));
        }
        let s = HistSummary {
            count: 10,
            mean: 100,
            p50: 90,
            p95: 200,
            p99: 300,
            max: 400,
        };
        json::validate(&summary_to_json(OpClass::Commit, &s)).unwrap();
    }
}
