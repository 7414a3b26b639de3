//! From what a run measured to the named numbers of
//! [`spec`](crate::spec).

use std::collections::BTreeMap;

use btrim_core::OpClass;

use crate::probes::Probes;
use crate::spec::{END_TO_END, PER_LAYER, SEGMENTS};
use crate::stats::{median, quantile};
use crate::trace::Kind;
use crate::workload::{Count, RunData};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from [`spec`](crate::spec).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from [`spec`](crate::spec).
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// The engine classes a transaction spends its time in.
const DML: [OpClass; 8] = [
    OpClass::SelectImrs,
    OpClass::UpdateImrs,
    OpClass::InsertImrs,
    OpClass::DeleteImrs,
    OpClass::SelectPage,
    OpClass::UpdatePage,
    OpClass::InsertPage,
    OpClass::DeletePage,
];
const DEVICE: [Kind; 5] = [
    Kind::LogAppend,
    Kind::LogFlush,
    Kind::DiskRead,
    Kind::DiskWrite,
    Kind::DiskSync,
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(ns: &[u64]) -> f64 {
    ratio(ns.iter().sum::<u64>() as f64, ns.len() as f64)
}

/// Committed transactions per minute over some of the groups.
fn tpm(d: &RunData, pick: impl Fn(usize) -> bool) -> f64 {
    let (mut committed, mut wall) = (0u64, 0u64);
    for g in (0..d.group_wall_ns.len()).filter(|&g| pick(g)) {
        committed += d.group_committed[g];
        wall += d.group_wall_ns[g];
    }
    ratio(committed as f64 * 60e9, wall as f64)
}

/// TPM of each equal-count segment of the timed section.
fn segment_tpms(d: &RunData) -> Vec<f64> {
    let groups = d.group_wall_ns.len();
    (0..SEGMENTS)
        .map(|s| tpm(d, |g| g * SEGMENTS / groups == s))
        .filter(|&t| t > 0.0)
        .collect()
}

/// The `q`-quantile of `ns` scaled down by `per` (1e3 for µs, 1e6 for
/// ms), with its sample count.
fn quantile_in(ns: &[u64], q: f64, per: f64) -> (f64, u64) {
    (quantile(ns, q) as f64 / per, ns.len() as u64)
}

type Values = BTreeMap<&'static str, (f64, u64)>;

fn in_spec_order<'a>(
    mut values: Values,
    spec: impl Iterator<Item = (&'static str, &'static str)> + 'a,
) -> Result<Vec<Metric>, String> {
    let out = spec
        .map(|(name, unit)| {
            let (value, samples) = values
                .remove(name)
                .ok_or_else(|| format!("metric {name} declared but not computed"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            Ok(Metric {
                name,
                value,
                unit,
                samples,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} computed but not declared")),
        None => Ok(out),
    }
}

/// The end-to-end metrics of a run.
pub fn end_to_end(d: &RunData) -> Result<Vec<Metric>, String> {
    let mut v = Values::new();
    v.insert(
        "setup_s",
        (median(&d.setup_secs), d.setup_secs.len() as u64),
    );
    v.insert("tpm", (tpm(d, |_| true), d.attempted));
    v.insert("new_order_p50_us", quantile_in(&d.txn_lat[0], 0.5, 1e3));
    v.insert("payment_p50_us", quantile_in(&d.txn_lat[1], 0.5, 1e3));
    v.insert("block_p95_ms", quantile_in(&d.block_ns, 0.95, 1e6));
    v.insert("peak_rss_mib", (d.peak_rss_mib, 1));
    in_spec_order(v, END_TO_END.iter().map(|m| (m.name, m.unit)))
}

/// The per-layer metrics of a traced run.
pub fn per_layer(d: &RunData, probes: &Probes) -> Result<Vec<Metric>, String> {
    let mut v = Values::new();
    let txns = d.attempted as f64;
    let ops = &d.timed.ops;
    let count = |c: Count| d.timed.get(c) as f64;
    let wall: f64 = d.group_wall_ns.iter().sum::<u64>() as f64;
    let traced_wall: f64 = d
        .group_wall_ns
        .iter()
        .zip(&d.group_traced)
        .filter(|(_, &t)| t)
        .map(|(&w, _)| w as f64)
        .sum();
    let spans = &d.spans_timed;
    let span_ns = |k: Kind| spans.nanos[k as usize] as f64;
    let mut put = |name: &'static str, value: f64, samples: u64| {
        v.insert(name, (value, samples));
    };

    // tpcc
    let mut top = DML.to_vec();
    top.push(OpClass::Commit);
    let engine_in_txn = d.ops_traced.total(&top) as f64;
    put(
        "tpcc.txn_self_share",
        ratio(span_ns(Kind::Txn) - engine_in_txn, traced_wall),
        spans.count[Kind::Txn as usize],
    );
    let tpms = segment_tpms(d);
    put(
        "tpcc.tpm_last_over_first",
        ratio(*tpms.last().unwrap_or(&0.0), *tpms.first().unwrap_or(&0.0)),
        d.attempted,
    );
    for (name, i, q) in [
        ("tpcc.new_order_p99_us", 0, 0.99),
        ("tpcc.payment_p99_us", 1, 0.99),
        ("tpcc.order_status_p50_us", 2, 0.5),
        ("tpcc.delivery_p50_us", 3, 0.5),
        ("tpcc.stock_level_p50_us", 4, 0.5),
    ] {
        let (us, n) = quantile_in(&d.txn_lat[i], q, 1e3);
        put(name, us, n);
    }

    // core DML
    for (name, class) in [
        ("core.select_imrs_ns", OpClass::SelectImrs),
        ("core.update_imrs_ns", OpClass::UpdateImrs),
        ("core.insert_imrs_ns", OpClass::InsertImrs),
        ("core.delete_imrs_ns", OpClass::DeleteImrs),
        ("core.select_page_ns", OpClass::SelectPage),
        ("core.update_page_ns", OpClass::UpdatePage),
        ("core.insert_page_ns", OpClass::InsertPage),
        ("core.delete_page_ns", OpClass::DeletePage),
        ("core.migration_ns", OpClass::Migration),
        ("core.commit_ns", OpClass::Commit),
        ("core.commit_serialize_ns", OpClass::CommitSerialize),
    ] {
        put(name, ops.mean(class), ops.count[class as usize]);
    }
    let dml_calls = ops.calls(&DML);
    put("core.ops_per_txn", ratio(dml_calls as f64, txns), dml_calls);
    put(
        "core.dml_share",
        ratio(ops.total(&DML) as f64, wall),
        dml_calls,
    );
    put(
        "core.imrs_hit_rate",
        ratio(
            count(Count::ImrsOps),
            count(Count::ImrsOps) + count(Count::PageOps),
        ),
        d.timed.get(Count::ImrsOps) + d.timed.get(Count::PageOps),
    );
    let migrations = ops.count[OpClass::Migration as usize];
    put(
        "core.migrations_per_ktxn",
        ratio(migrations as f64 * 1e3, txns),
        migrations,
    );
    put(
        "core.commit_share",
        ratio(ops.total(&[OpClass::Commit]) as f64, wall),
        ops.count[OpClass::Commit as usize],
    );

    // core life cycle
    let maint_calls = d.maint_lat.len() as u64;
    put(
        "core.maint_share",
        ratio(d.maint_lat.iter().sum::<u64>() as f64, wall),
        maint_calls,
    );
    for (name, q) in [
        ("core.maint_stall_p95_us", 0.95),
        ("core.maint_stall_p99_us", 0.99),
        ("core.maint_stall_max_us", 1.0),
    ] {
        put(name, quantile_in(&d.maint_lat, q, 1e3).0, maint_calls);
    }
    put(
        "core.pack_cycle_us",
        ops.mean(OpClass::PackCycle) / 1e3,
        ops.count[OpClass::PackCycle as usize],
    );
    let (packed, skipped) = (count(Count::RowsPacked), count(Count::RowsSkippedHot));
    put(
        "core.pack_rows_per_ktxn",
        ratio(packed * 1e3, txns),
        packed as u64,
    );
    put(
        "core.pack_skip_ratio",
        ratio(skipped, packed + skipped),
        (packed + skipped) as u64,
    );
    put(
        "core.gc_pass_us",
        ops.mean(OpClass::GcPass) / 1e3,
        ops.count[OpClass::GcPass as usize],
    );
    put(
        "core.gc_bytes_per_txn",
        ratio(count(Count::GcBytesFreed), txns),
        d.attempted,
    );
    put("core.tuning_windows", count(Count::TuningWindows), 1);
    put("core.ilm_toggles", count(Count::IlmToggles), 1);
    let groups = d.group_wall_ns.len() as u64;
    put("core.imrs_util_mean", d.imrs_util_mean, groups);
    let frozen = count(Count::RowsFrozen);
    put(
        "core.freeze_rows_per_ktxn",
        ratio(frozen * 1e3, txns),
        frozen as u64,
    );
    let thawed = count(Count::RowsThawed);
    put(
        "core.thaw_rows_per_ktxn",
        ratio(thawed * 1e3, txns),
        thawed as u64,
    );
    put(
        "core.freeze_compression",
        ratio(d.frozen_end.0 as f64, d.frozen_end.1 as f64),
        1,
    );
    put(
        "core.side_store_peak_entries",
        d.side_store_peak as f64,
        groups,
    );

    // core restart
    let checkpoints = d.checkpoint_ns.len() as u64;
    put(
        "core.checkpoint_ms",
        mean(&d.checkpoint_ns) / 1e6,
        checkpoints,
    );
    put(
        "core.checkpoint_pages",
        ratio(d.checkpoint_pages as f64, checkpoints as f64),
        checkpoints,
    );
    // Zero where the workload does not end with a crash.
    let recovered = u64::from(d.recovery.is_some());
    let (recovery_secs, r) = d.recovery.clone().unwrap_or_default();
    let forward_us = r.page_redo_micros + r.heap_rebuild_micros + r.imrs_replay_micros;
    put("core.recovery_s", recovery_secs, recovered);
    put(
        "core.recovery_analysis_ms",
        r.analysis_micros as f64 / 1e3,
        recovered,
    );
    put("core.recovery_redo_ms", forward_us as f64 / 1e3, recovered);
    put(
        "core.recovery_undo_ms",
        (recovery_secs * 1e3 - (r.analysis_micros + forward_us) as f64 / 1e3).max(0.0),
        recovered,
    );
    put(
        "core.recovery_records_replayed",
        (r.syslog_redo_replayed + r.imrs_records_replayed) as f64,
        recovered,
    );

    // core reads: zero where the workload has no read rounds.
    let (ms, n) = quantile_in(&d.scan_round_ns, 0.5, 1e6);
    put("core.scan_p50_ms", ms, n);
    let scan_ns: u64 = d.scan_round_ns.iter().sum();
    put(
        "core.scan_ns_per_row",
        ratio(scan_ns as f64, d.scan_rows as f64),
        d.scan_rows,
    );
    put(
        "core.scan_frozen_frac",
        ratio(d.scan_frozen_rows as f64, d.scan_rows as f64),
        d.scan_rows,
    );
    let (us, n) = quantile_in(&d.snapshot_read_ns, 0.5, 1e3);
    put("core.snapshot_read_p50_us", us, n);
    put(
        "core.snapshot_read_ns",
        ops.mean(OpClass::SnapshotRead),
        ops.count[OpClass::SnapshotRead as usize],
    );

    // imrs
    put(
        "imrs.bytes_per_row",
        ratio(d.imrs_end.0 as f64, d.imrs_end.1 as f64),
        d.imrs_end.1,
    );
    put(
        "imrs.peak_mib",
        d.imrs_peak_bytes as f64 / (1u64 << 20) as f64,
        groups,
    );

    // pagestore
    let fetches = count(Count::BufHits) + count(Count::BufMisses);
    put(
        "pagestore.hit_rate",
        ratio(count(Count::BufHits), fetches),
        fetches as u64,
    );
    put(
        "pagestore.fetches_per_txn",
        ratio(fetches, txns),
        fetches as u64,
    );
    put(
        "pagestore.evictions_per_txn",
        ratio(count(Count::BufEvictions), txns),
        d.timed.get(Count::BufEvictions),
    );
    put(
        "pagestore.writebacks_per_txn",
        ratio(count(Count::BufFlushes), txns),
        d.timed.get(Count::BufFlushes),
    );
    put(
        "pagestore.disk_reads_per_txn",
        ratio(count(Count::DiskReads), txns),
        d.timed.get(Count::DiskReads),
    );
    put(
        "pagestore.disk_writes_per_txn",
        ratio(count(Count::DiskWrites), txns),
        d.timed.get(Count::DiskWrites),
    );
    put("pagestore.disk_syncs", count(Count::DiskSyncs), 1);
    for (name, kind) in [
        ("pagestore.disk_read_us", Kind::DiskRead),
        ("pagestore.disk_write_us", Kind::DiskWrite),
        ("pagestore.disk_sync_us", Kind::DiskSync),
        ("wal.flush_us", Kind::LogFlush),
    ] {
        put(
            name,
            spans.mean_nanos(kind) / 1e3,
            spans.count[kind as usize],
        );
    }
    let disk_ns = span_ns(Kind::DiskRead) + span_ns(Kind::DiskWrite) + span_ns(Kind::DiskSync);
    put(
        "pagestore.disk_share",
        ratio(disk_ns, traced_wall),
        [Kind::DiskRead, Kind::DiskWrite, Kind::DiskSync]
            .iter()
            .map(|&k| spans.count[k as usize])
            .sum(),
    );

    // wal
    let appends = d.timed.get(Count::LogAppendCalls);
    put("wal.appends_per_txn", ratio(appends as f64, txns), appends);
    put(
        "wal.bytes_per_txn",
        ratio(count(Count::LogBytes), d.committed as f64),
        d.committed,
    );
    put(
        "wal.batch_records_mean",
        ratio(count(Count::LogRecords), appends as f64),
        appends,
    );
    put(
        "wal.append_ns",
        spans.mean_nanos(Kind::LogAppend),
        spans.count[Kind::LogAppend as usize],
    );
    put(
        "wal.append_share",
        ratio(span_ns(Kind::LogAppend), traced_wall),
        spans.count[Kind::LogAppend as usize],
    );
    put(
        "wal.flushes_per_txn",
        ratio(count(Count::LogFlushes), txns),
        d.timed.get(Count::LogFlushes),
    );
    put(
        "wal.flush_share",
        ratio(span_ns(Kind::LogFlush), traced_wall),
        spans.count[Kind::LogFlush as usize],
    );

    // txn
    put(
        "txn.aborts_per_ktxn",
        ratio(count(Count::AbortedTxns) * 1e3, txns),
        d.timed.get(Count::AbortedTxns),
    );

    // obs: checkpoints fall in traced groups by design, so their time
    // is left out of both sides of the comparison. One overhead per ABBA
    // quadruple of groups, then the median: a single group that lost its
    // vCPU for a while would otherwise decide the sign of a pooled rate.
    let rate = |groups: std::ops::Range<usize>, traced: bool| {
        let (mut committed, mut ns) = (0u64, 0u64);
        for g in groups.filter(|&g| d.group_traced[g] == traced) {
            committed += d.group_committed[g];
            ns += d.group_wall_ns[g] - d.group_checkpoint_ns[g];
        }
        ratio(committed as f64, ns as f64)
    };
    let overheads: Vec<f64> = (0..d.group_wall_ns.len() / 4)
        .map(|q| 4 * q..4 * q + 4)
        .map(|quad| 1.0 - ratio(rate(quad.clone(), true), rate(quad, false)))
        .collect();
    put(
        "obs.trace_overhead_frac",
        median(&overheads),
        overheads.len() as u64,
    );

    // budget: time charged to a named engine layer. Maintenance,
    // checkpoints, scans and snapshot reads are engine calls from end
    // to end; inside a transaction only the time the engine's own
    // classes cover is attributed, and the driver's share plus engine
    // code no class covers is the remainder.
    let whole_spans = [
        Kind::Maint,
        Kind::Checkpoint,
        Kind::Scan,
        Kind::SnapshotRead,
    ];
    let attributed = whole_spans.iter().map(|&k| span_ns(k)).sum::<f64>() + engine_in_txn;
    let attributed_share = ratio(attributed, traced_wall);
    let span_count: u64 = spans.count.iter().sum();
    put("budget.attributed_share", attributed_share, span_count);
    put(
        "budget.unattributed_share",
        1.0 - attributed_share,
        span_count,
    );
    // Device time is nested in the classes above; it must never exceed
    // them, or the wrappers and the histograms disagree about time.
    let device_ns: f64 = DEVICE.iter().map(|&k| span_ns(k)).sum();
    if device_ns > attributed + span_ns(Kind::Txn) {
        return Err("device spans cover more time than the spans enclosing them".into());
    }

    // Probes fill in the rest.
    for m in PER_LAYER
        .iter()
        .filter(|m| m.src == [crate::spec::Source::P])
    {
        let value = probes
            .get(m.name)
            .ok_or_else(|| format!("probe {} did not run", m.name))?;
        v.insert(m.name, (*value, 0));
    }
    in_spec_order(v, PER_LAYER.iter().map(|m| (m.name, m.unit)))
}
