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
//! PACK_BYTES_ρ = min(NumBytesToPack × PI_ρ, mem_ρ)
//! ```
//!
//! A maintenance tick sizes its cycle to the live bytes above the
//! steady line (never more than the 5 %), so each tick packs what
//! arrived since the last one, in whole pack transactions: a partition
//! owes the remainder of its share to the next tick. A share is capped
//! at what the partition holds — a zero-reuse partition's PI is ≈ 1
//! whatever its size — and what capped or short partitions leave is
//! re-apportioned once among the partitions that took their share.
//!
//! Within a partition, candidates come from the head of the relaxed
//! LRU queues; hot rows (per the TSF, §VI.D) are rotated to the tail
//! instead of packed. Above the *aggressive* threshold the hotness
//! check is waived; above the *reject-new* threshold the engine stops
//! placing new rows in the IMRS entirely (§VI.A).
//!
//! Rows are moved in small pack transactions that take conditional row
//! locks and commit frequently (§VII.B).

use std::sync::Arc;

use btrim_common::atomics::Relaxed;
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
    reject_new: Relaxed<bool>,
    cycles: Relaxed<u64>,
    pack_txn_commits: Relaxed<u64>,
    /// Internal ids for pack/mover pseudo-transactions (top bit set so
    /// they never collide with client transactions).
    next_internal: Relaxed<u64>,
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
            reject_new: Relaxed::new(false),
            cycles: Relaxed::new(0),
            pack_txn_commits: Relaxed::new(0),
            next_internal: Relaxed::new(1),
        }
    }

    /// Whether the engine should stop placing new rows in the IMRS.
    pub fn reject_new(&self) -> bool {
        self.reject_new.load()
    }

    /// Pack cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles.load()
    }

    /// Pack transactions committed.
    pub fn pack_txn_commits(&self) -> u64 {
        self.pack_txn_commits.load()
    }

    /// Allocate an internal pseudo-transaction id (lock owner for pack
    /// and opportunistic caching).
    pub(crate) fn internal_txn_id(&self) -> TxnId {
        TxnId((1 << 63) | self.next_internal.fetch_add(1))
    }

    /// The counter part of the next internal id.
    pub(crate) fn next_internal(&self) -> u64 {
        self.next_internal.load()
    }

    /// Raise the internal-id counter above `counter_floor` (the counter
    /// part of the highest internal id seen in the logs). Recovery calls
    /// this so pack pseudo-transaction ids are never reused across
    /// incarnations — a reused id would let a prior incarnation's
    /// syslogs verdict (a `Commit`, or a `Begin` left without one) apply
    /// to a fresh move's records.
    pub(crate) fn bump_internal_floor(&self, counter_floor: u64) {
        self.next_internal
            .fetch_max(counter_floor.saturating_add(1));
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

/// One pack tick: pack what arrived since the last tick. Each cycle is
/// sized to the live bytes above the steady line, so the IMRS is held
/// *at* the steady threshold — the paper's pack threads run whenever
/// utilization exceeds it — rather than packed 5 % below it in one burst
/// every few ticks. Only a cycle that the 5 % cap limited (far above the
/// line) and that made progress is followed by another. Returns bytes
/// packed.
pub(crate) fn pack_tick(engine: &Engine) -> u64 {
    let sh = &engine.sh;
    let cfg = &sh.cfg;
    let mut total = 0u64;
    // Bounded loop: ~32 cycles of 5 % drain any overshoot.
    for _ in 0..32 {
        let util = sh.store.utilization();
        // Backpressure (§VI.A): stop storing new rows while utilization
        // is extreme; release as soon as pack brings it down. This uses
        // *total* utilization (quarantined bytes included): memory a
        // straggling snapshot reader pins is still memory.
        sh.pack
            .reject_new
            .store(util >= cfg.reject_new_utilization());
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
        let freed = run_cycle(engine, level, true);
        total += freed;
        // A cycle sized to the line is the tick's last: what it could
        // not pack (hot or locked rows) waits for the next tick. Only a
        // cycle capped at 5 % of use is followed by another.
        let sized_to_line = live_util - cfg.steady_utilization <= PACK_CYCLE_FRACTION * live_util;
        if freed == 0 || sized_to_line {
            break;
        }
    }
    total
}

/// Execute one pack cycle of `NumBytesToPack` (5 % of use) at the given
/// level, whatever the utilization. Returns bytes packed.
pub fn pack_cycle(engine: &Engine, level: PackLevel) -> u64 {
    run_cycle(engine, level, false)
}

/// One partition's part in a pack cycle.
struct Share {
    p: Arc<Partition>,
    ui: f64,
    cui: f64,
    /// Packability index: the partition's fraction of the cycle.
    pi: f64,
    /// IMRS bytes the partition held when the cycle started.
    resident: u64,
    /// Bytes of one full pack transaction of the partition's rows; a
    /// share is packed in whole ones and the rest owed (0: no carry).
    batch: u64,
    /// Bytes owed: carried in from earlier ticks, then what this cycle
    /// leaves for the next.
    owed: u64,
    /// Bytes offered (after the residency cap), over both passes.
    target: u64,
    packed: u64,
    scanned: bool,
    /// Took its first-pass share in full: takes part in the second.
    met: bool,
}

impl Share {
    /// Offer the partition `bytes` more of the cycle, apportioned by
    /// fraction `pi`, capped at what it still holds. Partitions offered
    /// a negligible fraction (the hot ones, by construction of PI) are
    /// not even scanned. What it owes is packed in whole transactions;
    /// a remainder waits for the next tick. Returns whether the
    /// partition took the whole offer: not capped, and not short if
    /// scanned.
    fn offer(&mut self, engine: &Engine, level: PackLevel, bytes: u64, pi: f64) -> bool {
        let target = bytes.min(self.resident.saturating_sub(self.packed + self.owed));
        self.target += target;
        if target == 0 || pi < 0.01 {
            return target == bytes;
        }
        self.owed += target;
        let whole = self.owed - self.owed % self.batch.max(1);
        if whole == 0 {
            return target == bytes;
        }
        self.scanned = true;
        let freed = pack_partition(engine, &self.p, whole, level);
        self.packed += freed;
        // Short: only hot or locked rows were left; the debt lapses and
        // its bytes, still over the line, are apportioned afresh.
        let short = freed < whole;
        self.owed = if short {
            0
        } else {
            self.owed.saturating_sub(freed)
        };
        target == bytes && !short
    }
}

/// One pack cycle. A tick's cycle (`to_steady`) packs at most the live
/// bytes over the steady line that no partition owes yet, and at the
/// steady level carries shares smaller than one pack transaction to
/// the next tick. Returns bytes packed.
fn run_cycle(engine: &Engine, level: PackLevel, to_steady: bool) -> u64 {
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
    let carry = to_steady && level == PackLevel::Steady;

    // In partition-id order: the shares, their sum and the clock ticks
    // each partition's pack consumes must not depend on map order.
    let usage: Vec<(Arc<Partition>, u64, u64)> = sh
        .store
        .all_usage()
        .into_iter()
        .filter_map(|(p, bytes, rows)| Some((sh.catalog.partition(p)?, bytes, rows)))
        .collect();
    let total_mem: u64 = usage.iter().map(|(_, b, _)| *b).sum();
    if total_mem == 0 {
        return 0;
    }
    let share = |p: Arc<Partition>, resident, rows: u64, ui, cui, pi| Share {
        batch: match carry {
            true => PACK_TXN_ROWS as u64 * resident / rows.max(1),
            false => 0,
        },
        owed: match to_steady {
            true => p.pack_owed.load(),
            false => 0,
        },
        p,
        ui,
        cui,
        pi,
        resident,
        target: 0,
        packed: 0,
        scanned: false,
        met: false,
    };
    // Per-partition apportioning inputs; the uniform strawman has no
    // UI/CUI notion and reports them as 0.
    let mut shares: Vec<Share> = match cfg.pack_policy {
        crate::config::PackPolicy::Partitioned => {
            // ---- Apportioning: UI, CUI, PI (§VI.C) ------------------
            let reuse: Vec<u64> = usage.iter().map(|(p, ..)| p.metrics.reuse_ops()).collect();
            let total_reuse: u64 = reuse.iter().sum();
            // ratio_ρ = CUI/UI; with an epsilon so zero-reuse partitions
            // get a large (but finite) packability.
            const EPS: f64 = 1e-6;
            let mut ratios: Vec<Share> = std::iter::zip(usage, reuse)
                .map(|((p, bytes, rows), r)| {
                    let cui = bytes as f64 / total_mem as f64;
                    let ui = if total_reuse == 0 {
                        EPS
                    } else {
                        (r as f64 / total_reuse as f64).max(EPS)
                    };
                    share(p, bytes, rows, ui, cui, cui / ui)
                })
                .collect();
            let ratio_sum: f64 = ratios.iter().map(|s| s.pi).sum();
            if ratio_sum <= 0.0 {
                return 0;
            }
            for s in &mut ratios {
                s.pi /= ratio_sum;
            }
            ratios
        }
        crate::config::PackPolicy::UniformNaive => {
            // The strawman: every active partition gets an equal slice
            // regardless of footprint or re-use (§VI.C's counterexample).
            let n = usage.len() as f64;
            usage
                .into_iter()
                .map(|(p, bytes, rows)| share(p, bytes, rows, 0.0, 0.0, 1.0 / n))
                .collect()
        }
    };

    let owed_in: u64 = shares.iter().map(|s| s.owed).sum();
    let steady_line = (cfg.steady_utilization * sh.store.budget() as f64) as u64;
    let over_steady_bytes = used.saturating_sub(steady_line + owed_in);
    let mut num_bytes_to_pack = (used as f64 * PACK_CYCLE_FRACTION) as u64;
    if to_steady {
        num_bytes_to_pack = num_bytes_to_pack.min(over_steady_bytes);
    }
    if num_bytes_to_pack == 0 {
        return 0;
    }
    let tracing = sh.obs.trace.is_enabled();
    // Sample before/after so the trace carries exactly each partition's
    // slice of the cycle.
    let before: Vec<_> = match tracing {
        true => shares
            .iter()
            .map(|s| (s.owed, s.p.metrics.sample()))
            .collect(),
        false => Vec::new(),
    };
    for s in &mut shares {
        let bytes = (num_bytes_to_pack as f64 * s.pi) as u64;
        s.met = s.offer(engine, level, bytes, s.pi);
    }
    // What the capped and the short partitions left goes, once and by
    // PI, to the partitions that took their share. A share is taken when
    // packed or owed; a short partition's lapsed debt is left over too.
    let taken: u64 = shares.iter().map(|s| s.packed + s.owed).sum();
    let leftover = (num_bytes_to_pack + owed_in).saturating_sub(taken);
    let met_pi: f64 = shares.iter().filter(|s| s.met).map(|s| s.pi).sum();
    if leftover > 0 && met_pi > 0.0 {
        for s in shares.iter_mut().filter(|s| s.met) {
            let pi = s.pi / met_pi;
            s.offer(engine, level, (leftover as f64 * pi) as u64, pi);
        }
    }
    if to_steady {
        for s in &shares {
            s.p.pack_owed.store(s.owed);
        }
    }
    let total_packed: u64 = shares.iter().map(|s| s.packed).sum();
    let cycle = sh.pack.cycles.fetch_add(1) + 1;
    if tracing {
        let partitions = std::iter::zip(&shares, &before)
            .map(|(s, (owed_in, before))| {
                let d = s.p.metrics.sample().delta_since(before);
                // Mirror of pack_partition's TSF applicability input
                // (§VI.D.2): a low re-use rate bypasses the recency filter.
                let reuse_rate = before.reuse_ops() as f64 / before.rows_in.max(1) as f64;
                PackPartitionTrace {
                    partition: s.p.id.0 as u64,
                    ui: s.ui,
                    cui: s.cui,
                    pi: s.pi,
                    owed_bytes: *owed_in,
                    target_bytes: s.target,
                    bytes_packed: s.packed,
                    rows_skipped_hot: if s.scanned { d.rows_skipped_hot } else { 0 },
                    tsf_bypassed: s.scanned && reuse_rate < cfg.low_reuse_threshold,
                    scanned: s.scanned,
                }
            })
            .collect();
        sh.obs.trace.push(IlmTraceEvent::Pack(PackCycleTrace {
            cycle,
            level: match level {
                PackLevel::Idle => "idle",
                PackLevel::Steady => "steady",
                PackLevel::Aggressive => "aggressive",
            },
            utilization: util,
            over_steady_bytes,
            num_bytes_to_pack,
            bytes_packed: total_packed,
            partitions,
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
    let mut budget_rows = ((target_bytes.saturating_mul(4) / per_row_guess) as usize)
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
/// locks, with one commit timestamp (§VII.B). Like every move past the
/// move gate it flushes nothing: its `Commit` reaches the media with
/// the next syslogs sync, which settles its `Pack` records first.
fn pack_rows(
    engine: &Engine,
    table: &crate::catalog::TableDesc,
    partition: &Partition,
    batch: &[(RowId, RowLocation)],
) -> u64 {
    let sh = &engine.sh;
    let _pass = sh.moves.pass(To::Page);
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
        sh.pack.pack_txn_commits.fetch_add(1);
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
