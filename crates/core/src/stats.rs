//! Experiment-facing statistics snapshots.
//!
//! Everything §VIII's figures plot is derivable from one
//! [`EngineSnapshot`]: cache utilization (Fig. 2, 9), per-table IMRS
//! footprints (Fig. 3, 4), pack volume (Fig. 5, 7, 10), re-use counts
//! (Fig. 6), and the IMRS hit rate (Fig. 1).

use btrim_common::{HistSummary, PartitionId, Result, RowId, TableId};
use btrim_imrs::RowLocation;
use btrim_obs::{json, summary_to_json, IlmTraceEvent, OpClass};

use btrim_pagestore::BufferStatsSnapshot;

use crate::catalog::{Partition, TableDesc};
use crate::engine::Engine;
use crate::recovery::RecoveryReport;

/// Per-partition statistics.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot {
    /// Partition id.
    pub partition: PartitionId,
    /// IMRS bytes attributed to the partition.
    pub imrs_bytes: u64,
    /// IMRS-resident rows.
    pub imrs_rows: u64,
    /// Cumulative re-use operations (S+U+D on IMRS rows).
    pub reuse_ops: u64,
    /// Cumulative IMRS inserts.
    pub imrs_inserts: u64,
    /// Cumulative page-store operations.
    pub page_ops: u64,
    /// Cumulative contended page-store operations.
    pub page_contention: u64,
    /// New rows brought into the IMRS.
    pub rows_in: u64,
    /// Rows packed out.
    pub rows_packed: u64,
    /// Bytes packed out.
    pub bytes_packed: u64,
    /// Rows pack skipped as hot.
    pub rows_skipped_hot: u64,
    /// Rows frozen into the partition's extents.
    pub rows_frozen: u64,
    /// Of those, rows that left its extents (thawed or dissolved).
    pub rows_thawed: u64,
    /// Of those, rows dissolved with a mostly-dead extent.
    pub rows_dissolved: u64,
    /// Whether ILM currently allows new IMRS use.
    pub ilm_enabled: bool,
    /// Enable/disable transitions the tuner applied to this partition.
    pub ilm_toggles: u64,
    /// ILM queue length (all origins).
    pub queue_len: usize,
}

/// Per-table statistics (partitions aggregated).
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Table id.
    pub table: TableId,
    /// Table name.
    pub name: String,
    /// Per-partition detail.
    pub partitions: Vec<PartitionSnapshot>,
}

impl TableSnapshot {
    /// IMRS bytes across partitions.
    pub fn imrs_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.imrs_bytes).sum()
    }

    /// IMRS rows across partitions.
    pub fn imrs_rows(&self) -> u64 {
        self.partitions.iter().map(|p| p.imrs_rows).sum()
    }

    /// Re-use ops across partitions.
    pub fn reuse_ops(&self) -> u64 {
        self.partitions.iter().map(|p| p.reuse_ops).sum()
    }

    /// Rows packed across partitions.
    pub fn rows_packed(&self) -> u64 {
        self.partitions.iter().map(|p| p.rows_packed).sum()
    }

    /// Average re-use per resident row (Fig. 6's metric).
    pub fn avg_reuse_per_row(&self) -> f64 {
        let rows = self.imrs_rows().max(1);
        self.reuse_ops() as f64 / rows as f64
    }
}

/// Engine-wide snapshot.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Committed transactions.
    pub committed_txns: u64,
    /// Aborted transactions.
    pub aborted_txns: u64,
    /// Commits that wrote sysimrslogs only: one atomic batch is the
    /// commit record, one barrier under `durable_commits`. With the
    /// three below it sums to `committed_txns`.
    pub commits_imrs_only: u64,
    /// Commits that wrote syslogs only (one barrier).
    pub commits_page_only: u64,
    /// Commits that wrote both logs (two barriers, sysimrslogs first).
    pub commits_mixed: u64,
    /// Commits that wrote no log (no barrier).
    pub commits_read_only: u64,
    /// Current database commit timestamp.
    pub commit_ts: u64,
    /// IMRS bytes in use.
    pub imrs_used_bytes: u64,
    /// IMRS budget.
    pub imrs_budget: u64,
    /// IMRS utilization in [0, 1].
    pub imrs_utilization: f64,
    /// Bytes of the IMRS chunks created so far. Equals used +
    /// quarantined + free while no allocator call is in flight.
    pub imrs_chunk_bytes: u64,
    /// Free bytes inside created IMRS chunks.
    pub imrs_free_bytes: u64,
    /// IMRS bytes retired but not reusable until the snapshot horizon
    /// passes them.
    pub imrs_quarantined_bytes: u64,
    /// IMRS resident rows.
    pub imrs_rows: usize,
    /// Total operations served by the IMRS.
    pub imrs_ops: u64,
    /// Total operations served by the page store.
    pub page_ops: u64,
    /// Pack cycles run.
    pub pack_cycles: u64,
    /// Rows packed out (lifetime).
    pub rows_packed: u64,
    /// Bytes packed out (lifetime).
    pub bytes_packed: u64,
    /// Rows pack skipped as hot (lifetime).
    pub rows_skipped_hot: u64,
    /// Frozen columnar extents installed now (an extent with no live
    /// row leaves the directory).
    pub frozen_extents: u64,
    /// Rows frozen into extents (lifetime).
    pub rows_frozen: u64,
    /// Rows that left extents (lifetime): thawed for a write, or
    /// dissolved to pages.
    pub rows_thawed: u64,
    /// Of those, rows dissolved with a mostly-dead extent.
    pub rows_dissolved: u64,
    /// Caches and migrations skipped because a log sync held the move
    /// gate (lifetime; see `movement::MoveGate`).
    pub moves_skipped: u64,
    /// Uncompressed row-image bytes of every extent ever installed.
    pub frozen_raw_bytes: u64,
    /// Encoded bytes of every extent ever installed.
    pub frozen_encoded_bytes: u64,
    /// Bytes syslogs retains: appended and not yet truncated by a
    /// checkpoint (frames included).
    pub syslog_resident_bytes: u64,
    /// Bytes sysimrslogs retains: the last checkpoint's image and what
    /// was appended since.
    pub imrslog_resident_bytes: u64,
    /// Current learned TSF Ʈ.
    pub tsf_tau: u64,
    /// Tuning windows executed.
    pub tuning_windows: u64,
    /// GC: bytes reclaimed from version chains.
    pub gc_bytes_freed: u64,
    /// GC: rows awaiting a GC visit.
    pub gc_backlog: usize,
    /// Transactions currently registered (snapshot holders included).
    pub txns_active: usize,
    /// Before-image side-store entries awaiting the snapshot horizon.
    pub side_store_entries: u64,
    /// Before-image side-store footprint in bytes: the images plus
    /// [`SIDE_STORE_ENTRY_BYTES`](crate::SIDE_STORE_ENTRY_BYTES) an entry.
    pub side_store_bytes: u64,
    /// Total ILM-queue entries across all partitions.
    pub queue_total: usize,
    /// Buffer cache counters (including `io_errors`, `io_retries`, and
    /// `checksum_failures`).
    pub buffer: btrim_pagestore::buffer::BufferStatsSnapshot,
    /// Current engine health (storage-error escalation state).
    pub health: crate::health::HealthState,
    /// Storage errors observed outside the buffer cache (log appends,
    /// flushes, pack, checkpoint).
    pub storage_errors: u64,
    /// Salvage statistics from the last recovery of this engine
    /// (all-zero for an engine that was not recovered).
    pub recovery: crate::recovery::RecoveryReport,
    /// Per-table detail.
    pub tables: Vec<TableSnapshot>,
    /// Latency summaries (nanoseconds) for every operation class that
    /// recorded at least one value. Empty when `obs_latency` is off.
    pub latency: Vec<(OpClass, HistSummary)>,
    /// Most recent ILM decision-trace events (tuner verdicts and pack
    /// cycles), oldest first. Capped at 256 per snapshot.
    pub ilm_trace: Vec<IlmTraceEvent>,
    /// Lifetime trace events pushed (including evicted ones), read in
    /// the same ring acquisition as `ilm_trace`.
    pub ilm_trace_pushed: u64,
    /// Trace events evicted from the ring. The ring retains
    /// `ilm_trace_pushed - ilm_trace_dropped` events; `ilm_trace` shows
    /// the newest of them.
    pub ilm_trace_dropped: u64,
}

impl EngineSnapshot {
    /// Fraction of all row operations served by the IMRS (the paper's
    /// "% operations in the IMRS (hit rate)", Fig. 1).
    pub fn imrs_hit_rate(&self) -> f64 {
        let total = self.imrs_ops + self.page_ops;
        if total == 0 {
            return 0.0;
        }
        self.imrs_ops as f64 / total as f64
    }

    /// Table detail by name.
    pub fn table(&self, name: &str) -> Option<&TableSnapshot> {
        self.tables.iter().find(|t| t.name == name)
    }

    pub(crate) fn collect(engine: &Engine) -> EngineSnapshot {
        let sh = &engine.sh;
        let mut tables = Vec::new();
        for table in sh.catalog.tables() {
            let mut parts = Vec::new();
            for p in &table.partitions {
                // One coherent sample per partition: every derived
                // value below agrees with every other (no mid-update
                // counter mixes across separate loads).
                let s = p.metrics.sample();
                let usage = sh.store.usage(p.id);
                parts.push(PartitionSnapshot {
                    partition: p.id,
                    imrs_bytes: usage.bytes(),
                    imrs_rows: usage.rows(),
                    reuse_ops: s.reuse_ops(),
                    imrs_inserts: s.imrs_insert,
                    page_ops: s.page_ops,
                    page_contention: s.page_contention,
                    rows_in: s.rows_in,
                    rows_packed: s.rows_packed,
                    bytes_packed: s.bytes_packed,
                    rows_skipped_hot: s.rows_skipped_hot,
                    rows_frozen: p.metrics.rows_frozen.load(),
                    rows_thawed: p.metrics.rows_thawed.load(),
                    rows_dissolved: p.metrics.rows_dissolved.load(),
                    ilm_enabled: p.ilm.enabled(),
                    ilm_toggles: p.ilm.toggles(),
                    queue_len: p.queues.len(),
                });
            }
            tables.push(TableSnapshot {
                table: table.id,
                name: table.name.clone(),
                partitions: parts,
            });
        }
        // Engine-wide totals are the sums of the per-partition values
        // sampled above: one counter each, read once.
        let total = |f: fn(&PartitionSnapshot) -> u64| -> u64 {
            tables.iter().flat_map(|t| &t.partitions).map(f).sum()
        };
        let (ilm_trace, ilm_trace_pushed, ilm_trace_dropped) = sh.obs.trace.recent(256);
        let alloc = sh.store.allocator();
        EngineSnapshot {
            committed_txns: sh.txns.committed_count(),
            aborted_txns: sh.txns.aborted_count(),
            commits_imrs_only: sh.commit_shapes.imrs_only.load(),
            commits_page_only: sh.commit_shapes.page_only.load(),
            commits_mixed: sh.commit_shapes.mixed.load(),
            commits_read_only: sh.commit_shapes.read_only.load(),
            commit_ts: sh.clock.now().0,
            imrs_used_bytes: sh.store.used_bytes(),
            imrs_budget: sh.store.budget(),
            imrs_utilization: sh.store.utilization(),
            imrs_chunk_bytes: alloc.chunk_bytes(),
            imrs_free_bytes: alloc.free_bytes(),
            imrs_quarantined_bytes: alloc.quarantined_bytes(),
            imrs_rows: sh.store.row_count(),
            imrs_ops: total(|p| p.reuse_ops + p.imrs_inserts),
            page_ops: total(|p| p.page_ops),
            pack_cycles: sh.pack.cycles(),
            rows_packed: total(|p| p.rows_packed),
            bytes_packed: total(|p| p.bytes_packed),
            rows_skipped_hot: total(|p| p.rows_skipped_hot),
            frozen_extents: sh.extents.count(),
            rows_frozen: total(|p| p.rows_frozen),
            rows_thawed: total(|p| p.rows_thawed),
            rows_dissolved: total(|p| p.rows_dissolved),
            moves_skipped: sh.moves.skipped.load(),
            frozen_raw_bytes: sh.extents.raw_bytes(),
            frozen_encoded_bytes: sh.extents.encoded_bytes(),
            syslog_resident_bytes: sh.syslog.sink().byte_size(),
            imrslog_resident_bytes: sh.imrslog.sink().byte_size(),
            tsf_tau: sh.tsf.tau(),
            tuning_windows: sh.tuner.windows_run(),
            gc_bytes_freed: sh.gc.bytes_freed(),
            gc_backlog: sh.gc.backlog(),
            txns_active: sh.txns.active_count(),
            side_store_entries: sh.side.entries(),
            side_store_bytes: sh.side.bytes(),
            queue_total: total(|p| p.queue_len as u64) as usize,
            buffer: sh.cache.stats(),
            health: sh.health.state(),
            storage_errors: sh.health.storage_errors(),
            recovery: sh.recovery.lock().clone(),
            tables,
            latency: sh.obs.summaries(),
            ilm_trace,
            ilm_trace_pushed,
            ilm_trace_dropped,
        }
    }
}

impl EngineSnapshot {
    /// Machine-readable JSON dump: headline counters, per-class latency
    /// summaries (nanoseconds), the retained ILM decision trace, and
    /// per-table footprints. Guaranteed parseable — the obs test suite
    /// and the schedule explorer (after every reboot) run it through a
    /// strict validator.
    ///
    /// Complete by construction: the snapshot structs are destructured
    /// without `..`, so a new field does not compile until it is bound
    /// here, and a bound field left out of the JSON is an unused
    /// variable (`-D warnings`).
    pub fn to_json(&self) -> String {
        let EngineSnapshot {
            committed_txns,
            aborted_txns,
            commits_imrs_only,
            commits_page_only,
            commits_mixed,
            commits_read_only,
            commit_ts,
            imrs_used_bytes,
            imrs_budget,
            imrs_utilization,
            imrs_chunk_bytes,
            imrs_free_bytes,
            imrs_quarantined_bytes,
            imrs_rows,
            imrs_ops,
            page_ops,
            pack_cycles,
            rows_packed,
            bytes_packed,
            rows_skipped_hot,
            frozen_extents,
            rows_frozen,
            rows_thawed,
            rows_dissolved,
            moves_skipped,
            frozen_raw_bytes,
            frozen_encoded_bytes,
            syslog_resident_bytes,
            imrslog_resident_bytes,
            tsf_tau,
            tuning_windows,
            gc_bytes_freed,
            gc_backlog,
            txns_active,
            side_store_entries,
            side_store_bytes,
            queue_total,
            buffer,
            health,
            storage_errors,
            recovery,
            tables,
            latency,
            ilm_trace,
            ilm_trace_pushed,
            ilm_trace_dropped,
        } = self;
        let BufferStatsSnapshot {
            hits,
            misses,
            evictions,
            flushes,
            latch_contention,
            shard_lock_contention,
            io_waits,
            io_errors,
            io_retries,
            checksum_failures,
            capacity,
            shrink_debt,
            capacity_shifts,
        } = buffer;
        let RecoveryReport {
            syslog_salvaged,
            syslog_dropped,
            imrslog_salvaged,
            imrslog_dropped,
            pages_reset,
            imrs_records_skipped,
            replay_workers,
            syslog_redo_replayed,
            syslog_redo_skipped,
            imrs_records_replayed,
            page_copies_retired,
            analysis_micros,
            page_redo_micros,
            heap_rebuild_micros,
            imrs_replay_micros,
        } = recovery;
        let latency: Vec<String> = latency
            .iter()
            .map(|(c, s)| summary_to_json(*c, s))
            .collect();
        let trace: Vec<String> = ilm_trace.iter().map(|e| e.to_json()).collect();
        let tables: Vec<String> = tables
            .iter()
            .map(|t| {
                let parts: Vec<String> = t
                    .partitions
                    .iter()
                    .map(|p| {
                        format!(
                            concat!(
                                "{{\"partition\":{},\"imrs_bytes\":{},\"imrs_rows\":{},",
                                "\"reuse_ops\":{},\"imrs_inserts\":{},\"page_ops\":{},",
                                "\"page_contention\":{},\"rows_in\":{},\"rows_packed\":{},",
                                "\"bytes_packed\":{},\"rows_skipped_hot\":{},",
                                "\"rows_frozen\":{},\"rows_thawed\":{},\"rows_dissolved\":{},",
                                "\"ilm_enabled\":{},\"ilm_toggles\":{},\"queue_len\":{}}}"
                            ),
                            p.partition.0,
                            p.imrs_bytes,
                            p.imrs_rows,
                            p.reuse_ops,
                            p.imrs_inserts,
                            p.page_ops,
                            p.page_contention,
                            p.rows_in,
                            p.rows_packed,
                            p.bytes_packed,
                            p.rows_skipped_hot,
                            p.rows_frozen,
                            p.rows_thawed,
                            p.rows_dissolved,
                            p.ilm_enabled,
                            p.ilm_toggles,
                            p.queue_len,
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"partitions\":[{}]}}",
                    json::escape(&t.name),
                    parts.join(","),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"committed_txns\":{},\"aborted_txns\":{},\"commit_ts\":{},",
                "\"commits_imrs_only\":{},\"commits_page_only\":{},",
                "\"commits_mixed\":{},\"commits_read_only\":{},",
                "\"imrs_used_bytes\":{},\"imrs_budget\":{},\"imrs_utilization\":{},",
                "\"imrs_chunk_bytes\":{},\"imrs_free_bytes\":{},\"imrs_quarantined_bytes\":{},",
                "\"imrs_rows\":{},\"imrs_ops\":{},\"page_ops\":{},\"imrs_hit_rate\":{},",
                "\"pack_cycles\":{},\"rows_packed\":{},\"bytes_packed\":{},",
                "\"rows_skipped_hot\":{},\"frozen_extents\":{},\"rows_frozen\":{},",
                "\"rows_thawed\":{},\"rows_dissolved\":{},\"moves_skipped\":{},",
                "\"frozen_raw_bytes\":{},\"frozen_encoded_bytes\":{},",
                "\"syslog_resident_bytes\":{},\"imrslog_resident_bytes\":{},",
                "\"tsf_tau\":{},\"tuning_windows\":{},",
                "\"buffer\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"flushes\":{},",
                "\"latch_contention\":{},\"shard_lock_contention\":{},\"io_waits\":{},",
                "\"io_errors\":{},\"io_retries\":{},\"checksum_failures\":{},",
                "\"capacity\":{},\"shrink_debt\":{},\"capacity_shifts\":{}}},",
                "\"gc_bytes_freed\":{},\"gc_backlog\":{},\"queue_total\":{},",
                "\"storage_errors\":{},",
                "\"txns_active\":{},\"side_store_entries\":{},\"side_store_bytes\":{},",
                "\"health\":\"{}\",",
                "\"recovery\":{{\"syslog_salvaged\":{},\"syslog_dropped\":{},",
                "\"imrslog_salvaged\":{},\"imrslog_dropped\":{},\"pages_reset\":{},",
                "\"imrs_records_skipped\":{},\"replay_workers\":{},",
                "\"syslog_redo_replayed\":{},\"syslog_redo_skipped\":{},",
                "\"imrs_records_replayed\":{},\"page_copies_retired\":{},",
                "\"analysis_micros\":{},",
                "\"page_redo_micros\":{},\"heap_rebuild_micros\":{},",
                "\"imrs_replay_micros\":{}}},",
                "\"latency_ns\":[{}],",
                "\"ilm_trace\":{{\"pushed\":{},\"dropped\":{},\"events\":[{}]}},",
                "\"tables\":[{}]}}"
            ),
            committed_txns,
            aborted_txns,
            commit_ts,
            commits_imrs_only,
            commits_page_only,
            commits_mixed,
            commits_read_only,
            imrs_used_bytes,
            imrs_budget,
            json::num(*imrs_utilization),
            imrs_chunk_bytes,
            imrs_free_bytes,
            imrs_quarantined_bytes,
            imrs_rows,
            imrs_ops,
            page_ops,
            json::num(self.imrs_hit_rate()),
            pack_cycles,
            rows_packed,
            bytes_packed,
            rows_skipped_hot,
            frozen_extents,
            rows_frozen,
            rows_thawed,
            rows_dissolved,
            moves_skipped,
            frozen_raw_bytes,
            frozen_encoded_bytes,
            syslog_resident_bytes,
            imrslog_resident_bytes,
            tsf_tau,
            tuning_windows,
            hits,
            misses,
            evictions,
            flushes,
            latch_contention,
            shard_lock_contention,
            io_waits,
            io_errors,
            io_retries,
            checksum_failures,
            capacity,
            shrink_debt,
            capacity_shifts,
            gc_bytes_freed,
            gc_backlog,
            queue_total,
            storage_errors,
            txns_active,
            side_store_entries,
            side_store_bytes,
            json::escape(&health.to_string()),
            syslog_salvaged,
            syslog_dropped,
            imrslog_salvaged,
            imrslog_dropped,
            pages_reset,
            imrs_records_skipped,
            replay_workers,
            syslog_redo_replayed,
            syslog_redo_skipped,
            imrs_records_replayed,
            page_copies_retired,
            analysis_micros,
            page_redo_micros,
            heap_rebuild_micros,
            imrs_replay_micros,
            latency.join(","),
            ilm_trace_pushed,
            ilm_trace_dropped,
            trace.join(","),
            tables.join(","),
        )
    }
}

/// Introspection probes (examples, tests, experiment drivers).
impl Engine {
    /// Debug dump of a row's physical state (diagnostics only).
    #[doc(hidden)]
    pub fn debug_row(&self, table: &TableDesc, key: &[u8]) -> String {
        let Ok(Some(rid)) = table.primary.get(key) else {
            return "no primary entry".into();
        };
        let loc = self.sh.ridmap.get(rid);
        let chain = self.sh.store.get(rid).map(|r| r.chain_summary());
        let last_access = self.sh.ridmap.last_access(rid);
        format!(
            "rid={rid:?} loc={loc:?} chain={chain:?} last_access={last_access:?} now={:?}",
            self.sh.clock.now()
        )
    }

    /// Where a row currently lives (introspection: examples, tests,
    /// experiment probes). `None` when the key does not exist.
    pub fn locate(&self, table: &TableDesc, key: &[u8]) -> Result<Option<RowLocation>> {
        match table.primary.get(key)? {
            Some(rid) => Ok(self.sh.ridmap.get(rid)),
            None => Ok(None),
        }
    }

    /// A sweep of the row directory: every IMRS-resident row with the
    /// location the RID-Map gives it, in RowId order. At quiescence the
    /// location is `Imrs` for each and the length is
    /// `EngineSnapshot::imrs_rows`.
    #[doc(hidden)]
    pub fn imrs_residents(&self) -> Vec<(RowId, Option<RowLocation>)> {
        let mut rows = Vec::new();
        let ridmap = &self.sh.ridmap;
        self.sh
            .store
            .for_each_row(|row| rows.push((row.row_id, ridmap.get(row.row_id))));
        rows
    }

    /// Side-store entries stamped with a commit timestamp. With no
    /// snapshot open, one GC step leaves none: only a pending entry (an
    /// open writer's, or an abort's whose undo failed) outlives it.
    #[doc(hidden)]
    pub fn side_store_stamped_entries(&self) -> u64 {
        self.sh.side.stamped()
    }

    /// Fig.-8 probe: walk a partition's ILM queue head→tail, split it
    /// into `buckets` equal bands, and report the percentage of *cold*
    /// rows (per the current TSF recency test) in each band. A
    /// well-behaved relaxed LRU queue has cold rows concentrated at the
    /// head (§VIII.D.2).
    pub fn queue_coldness_bands(&self, partition: &Partition, buckets: usize) -> Vec<f64> {
        let sh = &self.sh;
        let now = sh.clock.now();
        let rows = partition.queues.snapshot_all();
        if rows.is_empty() || buckets == 0 {
            return vec![0.0; buckets];
        }
        let flags: Vec<bool> = rows
            .iter()
            .filter(|&&rid| sh.store.get(rid).is_some())
            .map(|&rid| !sh.tsf.is_recent(sh.ridmap.last_access(rid), now))
            .collect();
        if flags.is_empty() {
            return vec![0.0; buckets];
        }
        let per = flags.len().div_ceil(buckets);
        (0..buckets)
            .map(|b| {
                let band = &flags[(b * per).min(flags.len())..((b + 1) * per).min(flags.len())];
                if band.is_empty() {
                    0.0
                } else {
                    100.0 * band.iter().filter(|&&c| c).count() as f64 / band.len() as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableOpts;
    use crate::{EngineConfig, EngineMode, HealthState};
    use btrim_obs::CheckpointTrace;
    use std::sync::Arc;

    #[test]
    fn snapshot_names_every_table_and_headline_numbers() {
        let e = Engine::new(EngineConfig::with_mode(EngineMode::IlmOn, 8 * 1024 * 1024));
        let t = e
            .create_table(TableOpts::new(
                "events",
                Arc::new(|r: &[u8]| r[..8].to_vec()),
            ))
            .unwrap();
        let mut txn = e.begin();
        for i in 0..10u64 {
            let mut row = i.to_be_bytes().to_vec();
            row.extend_from_slice(b"payload");
            e.insert(&mut txn, &t, &row).unwrap();
        }
        e.commit(txn).unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.table("events").map(|t| t.imrs_rows()), Some(10));
        assert_eq!(snap.committed_txns, 1);
        assert_eq!(snap.imrs_hit_rate(), 1.0);
        assert_eq!(snap.health, HealthState::Healthy);
        assert_eq!(snap.buffer.checksum_failures, 0);
        // No recovery happened: its report is all zeros.
        assert_eq!(snap.recovery, RecoveryReport::default());
        // Latency recording is on by default: the inserts and the
        // commit must have produced summaries.
        assert!(snap
            .latency
            .iter()
            .any(|(c, s)| *c == OpClass::Commit && s.count >= 1));
        let js = snap.to_json();
        for field in [
            "\"name\":\"events\"",
            "\"committed_txns\":1,",
            "\"health\":\"healthy\"",
        ] {
            assert!(js.contains(field), "{field} not in {js}");
        }
    }

    #[test]
    fn snapshot_json_is_valid_and_complete() {
        let e = Engine::new(EngineConfig::with_mode(EngineMode::IlmOn, 8 * 1024 * 1024));
        let t = e
            .create_table(TableOpts::new(
                "orders\"quoted", // name needing JSON escaping
                Arc::new(|r: &[u8]| r[..8].to_vec()),
            ))
            .unwrap();
        let mut txn = e.begin();
        for i in 0..50u64 {
            let mut row = i.to_be_bytes().to_vec();
            row.extend_from_slice(b"payload");
            e.insert(&mut txn, &t, &row).unwrap();
        }
        e.commit(txn).unwrap();
        e.run_maintenance();
        let js = e.snapshot().to_json();
        json::validate(&js).unwrap_or_else(|err| panic!("{err}\n{js}"));
        assert!(js.contains("\"latency_ns\":["));
        assert!(js.contains("\"ilm_trace\":{"));
        assert!(js.contains("\"class\":\"insert_imrs\""));
    }

    #[test]
    fn trace_counts_add_up() {
        let e = Engine::new(EngineConfig::with_mode(EngineMode::IlmOn, 8 * 1024 * 1024));
        for ordinal in 1..=300 {
            e.obs()
                .trace
                .push(IlmTraceEvent::Checkpoint(CheckpointTrace {
                    ordinal,
                    dirty_pages: 0,
                    pages_flushed: 0,
                    batches: 0,
                    low_water_lsn: 0,
                    syslog_truncated: 0,
                    imrslog_truncated: 0,
                    image_rows: 0,
                    image_bytes: 0,
                    stall_nanos: 0,
                }));
        }
        let snap = e.snapshot();
        // All 300 fit in the default ring: none evicted, all retained,
        // the newest 256 shown.
        assert_eq!(snap.ilm_trace_pushed, 300);
        assert_eq!(snap.ilm_trace_dropped, 0);
        assert_eq!(snap.ilm_trace.len(), 256);
        let js = snap.to_json();
        assert!(
            js.contains("\"ilm_trace\":{\"pushed\":300,\"dropped\":0,"),
            "{js}"
        );
        assert_eq!(js.matches("\"kind\":\"checkpoint\"").count(), 256, "{js}");
    }

    #[test]
    fn disabled_obs_yields_empty_latency_and_trace() {
        let cfg = EngineConfig {
            obs_latency: false,
            obs_trace_capacity: 0,
            ..EngineConfig::with_mode(EngineMode::IlmOn, 8 * 1024 * 1024)
        };
        let e = Engine::new(cfg);
        let t = e
            .create_table(TableOpts::new(
                "quiet",
                Arc::new(|r: &[u8]| r[..8].to_vec()),
            ))
            .unwrap();
        let mut txn = e.begin();
        e.insert(&mut txn, &t, &42u64.to_be_bytes()).unwrap();
        e.commit(txn).unwrap();
        let snap = e.snapshot();
        assert!(snap.latency.is_empty());
        assert!(snap.ilm_trace.is_empty());
        assert_eq!(snap.ilm_trace_pushed, 0);
        let js = snap.to_json();
        json::validate(&js).unwrap();
        assert!(js.contains("\"latency_ns\":[],"), "{js}");
    }
}
