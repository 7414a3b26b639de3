//! The Pack subsystem (§VI): harvest cold rows from the IMRS and
//! relocate them to the page store.
//!
//! Pack engages only above the *steady cache utilization* threshold and
//! works in *pack cycles*: each cycle packs a small percentage of
//! current utilization (`NumBytesToPack`), apportioned across
//! partitions by the Packability Index:
//!
//! ```text
//! UI_ρ  = SUD_ρ / Σ SUD            (usefulness: re-use of resident rows)
//! CUI_ρ = mem_ρ / Σ mem            (relative footprint)
//! PI_ρ  = (CUI_ρ / UI_ρ) / Σ (CUI/UI)
//! PACK_BYTES_ρ = NumBytesToPack × PI_ρ
//! ```
//!
//! Within a partition, candidates come from the head of the relaxed
//! LRU queues; hot rows (per the TSF, §VI.D) are rotated to the tail
//! instead of packed. Above the *aggressive* threshold the hotness
//! check is waived; above the *reject-new* threshold the engine stops
//! placing new rows in the IMRS entirely (§VI.A).
//!
//! Rows are moved in small pack transactions that take conditional row
//! locks and commit frequently (§VII.B).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use btrim_common::{RowId, TxnId};
use btrim_imrs::RowLocation;
use btrim_obs::{IlmTraceEvent, OpClass, PackCycleTrace, PackPartitionTrace};

use crate::catalog::Partition;
use crate::engine::Engine;
use crate::movement::{relocate, Moved, To};

/// Fraction of current utilization to pack per pack cycle
/// (`NumBytesToPack`, §VI.C: "some small percentage of current IMRS
/// cache utilization").
const PACK_CYCLE_FRACTION: f64 = 0.05;

/// Rows per pack transaction ("Each pack transaction packs only a
/// small number of rows and commits frequently", §VII.B).
const PACK_TXN_ROWS: usize = 64;

/// Pack level for the current tick.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackLevel {
    /// Below the steady threshold: pack idle.
    Idle,
    /// Steady-state pack: only ILM-cold rows are packed.
    Steady,
    /// Aggressive pack: hotness heuristics waived (§VI.A).
    Aggressive,
}

/// Shared pack-subsystem state and lifetime counters. Rows and bytes
/// packed or skipped are counted per partition (`PartitionMetrics`);
/// the engine-wide figures are their sums.
pub struct PackState {
    reject_new: AtomicBool,
    cycles: AtomicU64,
    pack_txn_commits: AtomicU64,
    /// Internal ids for pack/mover pseudo-transactions (top bit set so
    /// they never collide with client transactions).
    next_internal: AtomicU64,
}

impl Default for PackState {
    fn default() -> Self {
        Self::new()
    }
}

impl PackState {
    /// Fresh state.
    pub fn new() -> Self {
        PackState {
            reject_new: AtomicBool::new(false),
            cycles: AtomicU64::new(0),
            pack_txn_commits: AtomicU64::new(0),
            next_internal: AtomicU64::new(1),
        }
    }

    /// Whether the engine should stop placing new rows in the IMRS.
    pub fn reject_new(&self) -> bool {
        self.reject_new.load(Ordering::Relaxed)
    }

    /// Pack cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Pack transactions committed.
    pub fn pack_txn_commits(&self) -> u64 {
        self.pack_txn_commits.load(Ordering::Relaxed)
    }

    /// Allocate an internal pseudo-transaction id (lock owner for pack
    /// and opportunistic caching).
    pub(crate) fn internal_txn_id(&self) -> TxnId {
        TxnId((1 << 63) | self.next_internal.fetch_add(1, Ordering::Relaxed))
    }

    /// Raise the internal-id counter above `counter_floor` (the counter
    /// part of the highest internal id seen in the logs). Recovery calls
    /// this so pack pseudo-transaction ids are never reused across
    /// incarnations — a reused id would let a prior incarnation's
    /// discard verdict apply to a fresh pack transaction's records.
    pub(crate) fn bump_internal_floor(&self, counter_floor: u64) {
        self.next_internal
            .fetch_max(counter_floor.saturating_add(1), Ordering::Relaxed);
    }
}

/// Decide the pack level for a utilization reading.
pub fn level_for(util: f64, steady: f64, aggressive: f64) -> PackLevel {
    if util < steady {
        PackLevel::Idle
    } else if util < aggressive {
        PackLevel::Steady
    } else {
        PackLevel::Aggressive
    }
}

/// One pack tick: evaluate thresholds and run pack cycles while the
/// cache sits above the steady threshold (the paper's pack threads run
/// continuously whenever utilization exceeds it). Stops as soon as the
/// utilization drops below the threshold or a cycle makes no progress
/// (everything remaining is hot). Returns bytes packed.
pub fn pack_tick(engine: &Engine) -> u64 {
    let sh = &engine.sh;
    let cfg = &sh.cfg;
    if !cfg.pack_enabled {
        return 0;
    }
    let mut total = 0u64;
    // Bounded loop: each cycle targets PACK_CYCLE_FRACTION of current
    // use, so ~32 productive cycles can drain the entire overshoot.
    for _ in 0..32 {
        let util = sh.store.utilization();
        // Backpressure (§VI.A): stop storing new rows while utilization
        // is extreme; release as soon as pack brings it down. This uses
        // *total* utilization (quarantined bytes included): memory a
        // straggling snapshot reader pins is still memory.
        sh.pack
            .reject_new
            .store(util >= cfg.reject_new_utilization(), Ordering::Relaxed);
        // The drain level, by contrast, is gauged on *live* bytes only —
        // quarantined chains are already packed/freed and waiting out
        // the snapshot horizon; packing cannot shrink them, so counting
        // them would make pack overshoot far below the steady threshold.
        let live_util = sh.store.used_bytes() as f64 / sh.store.budget().max(1) as f64;
        let level = level_for(
            live_util,
            cfg.steady_utilization,
            cfg.aggressive_utilization(),
        );
        if level == PackLevel::Idle {
            break;
        }
        let freed = pack_cycle(engine, level);
        total += freed;
        if freed == 0 {
            break; // only hot (or locked) rows remain
        }
    }
    total
}

/// Execute one pack cycle at the given level. Returns bytes packed.
pub fn pack_cycle(engine: &Engine, level: PackLevel) -> u64 {
    let sh = &engine.sh;
    // Pack is pure data movement; on a read-only engine it must not
    // start. Beyond the (gated) log appends, even dirtying heap pages
    // risks evicting unlogged state behind a torn log tail.
    if sh.health.check_writable().is_err() {
        return 0;
    }
    let timer = sh.obs.start();
    let cfg = &sh.cfg;
    let util = sh.store.utilization();
    let used = sh.store.used_bytes();
    let num_bytes_to_pack = (used as f64 * PACK_CYCLE_FRACTION) as u64;
    if num_bytes_to_pack == 0 {
        return 0;
    }

    // In partition-id order: the shares, their sum and the clock ticks
    // each partition's pack consumes must not depend on map order.
    let usage: Vec<(Arc<Partition>, u64)> = sh
        .store
        .all_usage()
        .into_iter()
        .filter_map(|(p, bytes, _rows)| Some((sh.catalog.partition(p)?, bytes)))
        .collect();
    if usage.is_empty() {
        return 0;
    }
    let total_mem: u64 = usage.iter().map(|(_, b)| *b).sum();
    if total_mem == 0 {
        return 0;
    }
    // Per-partition apportioning inputs `(partition, ui, cui, pi)`; the
    // uniform strawman has no UI/CUI notion and reports them as 0.
    let shares: Vec<(Arc<Partition>, f64, f64, f64)> = match cfg.pack_policy {
        crate::config::PackPolicy::Partitioned => {
            // ---- Apportioning: UI, CUI, PI (§VI.C) ------------------
            let reuse: Vec<(Arc<Partition>, u64, u64)> = usage
                .into_iter()
                .map(|(p, bytes)| {
                    let r = p.metrics.reuse_ops();
                    (p, bytes, r)
                })
                .collect();
            let total_reuse: u64 = reuse.iter().map(|(_, _, r)| *r).sum();
            // ratio_ρ = CUI/UI; with an epsilon so zero-reuse partitions
            // get a large (but finite) packability.
            const EPS: f64 = 1e-6;
            let ratios: Vec<(Arc<Partition>, f64, f64, f64)> = reuse
                .into_iter()
                .map(|(p, bytes, r)| {
                    let cui = bytes as f64 / total_mem as f64;
                    let ui = if total_reuse == 0 {
                        EPS
                    } else {
                        (r as f64 / total_reuse as f64).max(EPS)
                    };
                    (p, ui, cui, cui / ui)
                })
                .collect();
            let ratio_sum: f64 = ratios.iter().map(|(_, _, _, r)| r).sum();
            if ratio_sum <= 0.0 {
                return 0;
            }
            ratios
                .into_iter()
                .map(|(p, ui, cui, ratio)| (p, ui, cui, ratio / ratio_sum))
                .collect()
        }
        crate::config::PackPolicy::UniformNaive => {
            // The strawman: every active partition gets an equal slice
            // regardless of footprint or re-use (§VI.C's counterexample).
            let n = usage.len() as f64;
            usage
                .into_iter()
                .map(|(p, _)| (p, 0.0, 0.0, 1.0 / n))
                .collect()
        }
    };

    let tracing = sh.obs.trace.is_enabled();
    let mut part_traces: Vec<PackPartitionTrace> = Vec::new();
    let mut total_packed = 0u64;
    for (p, ui, cui, pi) in shares {
        let target = (num_bytes_to_pack as f64 * pi) as u64;
        // Partitions apportioned a negligible share of this cycle (the
        // hot ones, by construction of PI) are not even scanned.
        if target == 0 || pi < 0.01 {
            if tracing {
                part_traces.push(PackPartitionTrace {
                    partition: p.id.0 as u64,
                    ui,
                    cui,
                    pi,
                    target_bytes: target,
                    bytes_packed: 0,
                    rows_skipped_hot: 0,
                    tsf_bypassed: false,
                    scanned: false,
                });
            }
            continue;
        }
        // Sample before/after so the trace carries exactly this
        // partition's slice of the cycle.
        let before = tracing.then(|| p.metrics.sample());
        let freed = pack_partition(engine, &p, target, level);
        total_packed += freed;
        if let Some(before) = before {
            let after = p.metrics.sample();
            let d = after.delta_since(&before);
            // Mirror of pack_partition's TSF applicability input
            // (§VI.D.2): a low re-use rate bypasses the recency filter.
            let reuse_rate = before.reuse_ops() as f64 / before.rows_in.max(1) as f64;
            part_traces.push(PackPartitionTrace {
                partition: p.id.0 as u64,
                ui,
                cui,
                pi,
                target_bytes: target,
                bytes_packed: freed,
                rows_skipped_hot: d.rows_skipped_hot,
                tsf_bypassed: reuse_rate < cfg.low_reuse_threshold,
                scanned: true,
            });
        }
    }
    let cycle = sh.pack.cycles.fetch_add(1, Ordering::Relaxed) + 1;
    if tracing {
        sh.obs.trace.push(IlmTraceEvent::Pack(PackCycleTrace {
            cycle,
            level: match level {
                PackLevel::Idle => "idle",
                PackLevel::Steady => "steady",
                PackLevel::Aggressive => "aggressive",
            },
            utilization: util,
            num_bytes_to_pack,
            bytes_packed: total_packed,
            partitions: part_traces,
        }));
    }
    sh.obs.record_since(OpClass::PackCycle, timer);
    total_packed
}

/// Pack up to `target_bytes` of cold rows from one partition. Returns
/// bytes released.
pub fn pack_partition(
    engine: &Engine,
    partition: &Partition,
    target_bytes: u64,
    level: PackLevel,
) -> u64 {
    let sh = &engine.sh;
    let cfg = &sh.cfg;
    let Some(table) = sh.catalog.table(partition.table) else {
        return 0;
    };
    if table.pinned {
        return 0; // fully memory-resident: ILM override (§X)
    }
    let (queues, metrics) = (&partition.queues, &partition.metrics);
    let now = sh.clock.now();

    // Partition-aware TSF applicability (§VI.D.2): re-use operations
    // relative to the rows ever brought into the IMRS for this
    // partition. Using the cumulative inflow as the denominator keeps
    // the rate stable while pack shrinks the resident set — dividing by
    // the *current* resident count would inflate the rate as packing
    // progresses and wrongly re-arm the TSF for cold partitions.
    let rows_in = metrics.rows_in.load().max(1);
    let reuse_rate = metrics.reuse_ops() as f64 / rows_in as f64;

    let mut freed = 0u64;
    // Inspection budget: proportional to the byte target so that
    // hot-dominated queues are probed, not fully rotated, each cycle —
    // "low book-keeping overhead" (§VI.B) — and never more than one
    // full queue pass (hot rows rotate to the tail and must not be
    // revisited within the pass).
    let per_row_guess = 128u64;
    let mut budget_rows = ((4 * target_bytes / per_row_guess) as usize)
        .clamp(32, queues.len().max(32))
        .min(queues.len());
    // The relaxed LRU keeps cold rows at the head; a run of consecutive
    // hot rows means the cold prefix is exhausted — stop probing rather
    // than rotating the whole (hot) queue through.
    const HOT_RUN_LIMIT: u32 = 16;
    let mut hot_run = 0u32;
    let mut batch: Vec<(RowId, RowLocation)> = Vec::with_capacity(PACK_TXN_ROWS);

    while freed < target_bytes && budget_rows > 0 && hot_run < HOT_RUN_LIMIT {
        let Some((row_id, origin)) = queues.pop_head() else {
            break;
        };
        let Some(row) = sh.store.get(row_id) else {
            continue; // stale queue entry: free to discard, no budget
        };
        budget_rows -= 1;
        if row.partition != partition.id {
            continue;
        }
        // Hotness check (waived under aggressive pack, §VI.A, and by
        // the TSF ablation knob).
        if level == PackLevel::Steady
            && cfg.tsf_enabled
            && sh.tsf.is_hot(
                sh.ridmap.last_access(row_id),
                now,
                reuse_rate,
                cfg.low_reuse_threshold,
            )
        {
            // Hot: rotate to the tail — this is the only queue shuffle
            // the design ever performs (§VI.B).
            queues.push_tail(origin, row_id);
            metrics.rows_skipped_hot.inc();
            hot_run += 1;
            continue;
        }
        hot_run = 0;
        // A RowId that left the IMRS and came back can sit in the queue
        // twice (one entry stale); it moves once per batch.
        if !batch.contains(&(row_id, RowLocation::Imrs)) {
            batch.push((row_id, RowLocation::Imrs));
        }
        if batch.len() >= PACK_TXN_ROWS {
            freed += pack_rows(engine, &table, partition, &batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        freed += pack_rows(engine, &table, partition, &batch);
    }
    freed
}

/// One pack transaction: a small batch relocated under conditional
/// locks, with one commit timestamp and one durable flush (§VII.B).
fn pack_rows(
    engine: &Engine,
    table: &crate::catalog::TableDesc,
    partition: &Partition,
    batch: &[(RowId, RowLocation)],
) -> u64 {
    let sh = &engine.sh;
    // Pack is best-effort, but storage errors still count against
    // engine health.
    let moved = relocate(engine, table, partition, batch, To::Page, true).unwrap_or_else(|e| {
        sh.health.note_storage_error("pack", &e);
        Moved::default()
    });
    // Whatever kept a row resident — lock denied (busy with DML),
    // uncommitted data, live older versions, a tombstone, a storage
    // error — coverage is never silently lost: the row goes back to GC,
    // whose visit truncates its chain below the snapshot horizon, drops
    // it if it is a dead tombstone, and otherwise re-enqueues it at the
    // queue tail. Re-queueing directly would make pack re-inspect the
    // same unpackable row every cycle until its chain settles.
    for &(row_id, _) in batch {
        if sh.store.get(row_id).is_some() {
            sh.ridmap.clear_enqueued(row_id);
            sh.gc.register(row_id);
        }
    }
    if moved.rows > 0 {
        partition.metrics.rows_packed.add(moved.rows);
        partition.metrics.bytes_packed.add(moved.bytes);
        sh.pack.pack_txn_commits.fetch_add(1, Ordering::Relaxed);
    }
    moved.bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_follow_thresholds() {
        // steady 0.7 → aggressive 0.85.
        assert_eq!(level_for(0.5, 0.7, 0.85), PackLevel::Idle);
        assert_eq!(level_for(0.7, 0.7, 0.85), PackLevel::Steady);
        assert_eq!(level_for(0.84, 0.7, 0.85), PackLevel::Steady);
        assert_eq!(level_for(0.85, 0.7, 0.85), PackLevel::Aggressive);
        assert_eq!(level_for(0.99, 0.7, 0.85), PackLevel::Aggressive);
    }

    #[test]
    fn internal_ids_have_top_bit() {
        let s = PackState::new();
        let a = s.internal_txn_id();
        let b = s.internal_txn_id();
        assert_ne!(a, b);
        assert!(a.0 & (1 << 63) != 0);
    }
}
