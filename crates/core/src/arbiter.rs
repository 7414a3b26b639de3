//! Unified memory arbiter: dynamic IMRS ↔ buffer-cache budget.
//!
//! The §V.D tuner decides *which rows* deserve IMRS residency; this
//! module generalizes the idea to *how much memory* each pool deserves
//! (ROADMAP item 3, after the adaptive memory tuner of "Breaking Down
//! Memory Walls"). Both pools are carved from one globally accounted
//! `total_memory_budget`, and every [`WINDOW_TXNS`] commits the
//! arbiter compares their **marginal utilities**:
//!
//! * **IMRS**: window delta of operations on IMRS-*enabled* partitions
//!   that nonetheless fell through to the page store, per MiB of IMRS
//!   budget. Each such op is a row ILM would keep resident if the
//!   budget allowed — the IMRS's own "miss counter" (its hit-rate gain
//!   from growth).
//! * **Buffer cache**: window delta of buffer misses per MiB of cache
//!   budget.
//!
//! Both sides are weighted by the measured p50 miss-fetch latency (the
//! obs `BufferMiss` histogram): a buffered miss costs one device read,
//! and a hot row squeezed out of the IMRS comes back as roughly one
//! such read, so the same weight puts the two signals in the same
//! unit (microseconds of avoided I/O per MiB per window). The two
//! signals self-balance: over-shrinking the IMRS squeezes hot rows
//! into page ops, raising its own marginal utility until the flow
//! reverses — the budget settles where the marginal utilities agree.
//!
//! The side ahead by more than [`VOTE_MARGIN`] earns a vote; a mixed
//! or quiet window resets both counters (the tuner's hysteresis rule).
//! Once [`HYSTERESIS_WINDOWS`] consecutive votes agree, budget moves:
//! at most [`MAX_SHIFT_FRACTION`] of the total per shift, never below
//! either pool's floor, quantized down to whole IMRS chunks (so both
//! pools change by exactly the same byte count — the IMRS allocator
//! rounds budgets up to chunk granularity, and an unquantized shift
//! would leak bytes into the total); a clamped shift below one chunk
//! is deferred and the vote is kept. None of this is configurable: the
//! size of a step comes from the measured signal, not from settings.
//! Shrinking is always lazy — the
//! IMRS drains its overage through GC/pack/freeze, the buffer cache
//! through shrink debt — so no DML operation ever blocks on a budget
//! move.
//!
//! Every vote and shift is traced to the ILM ring as an
//! [`ArbiterTrace`] carrying the exact inputs the verdict read; the
//! `arbiter_scenario` consistency test replays them against this rule.

use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_imrs::ImrsStore;
use btrim_obs::{ArbiterAction, ArbiterTrace, IlmTraceEvent, Obs, OpClass};
use btrim_pagestore::{BufferCache, PAGE_SIZE};

use crate::catalog::Catalog;
use crate::config::EngineConfig;

/// Factor by which one side's marginal utility must exceed the other's
/// before a vote is cast; anything closer is a hold.
pub const VOTE_MARGIN: f64 = 1.25;

/// Fraction of `total_memory_budget` the IMRS starts with.
pub const INITIAL_IMRS_FRACTION: f64 = 0.5;
/// Window length in committed transactions.
pub const WINDOW_TXNS: u64 = 256;
/// Consecutive same-direction votes required before budget actually
/// moves (hysteresis against thrash, same idea as §V.B's tuner).
pub const HYSTERESIS_WINDOWS: u32 = 3;
/// Per-shift cap as a fraction of `total_memory_budget`.
pub const MAX_SHIFT_FRACTION: f64 = 0.05;
/// Floor on the IMRS share of the total budget; the arbiter never
/// shrinks the IMRS below it (nor below one allocator chunk).
pub const IMRS_FLOOR: f64 = 0.05;
/// Floor on the buffer-cache share of the total budget (nor below 8
/// frames).
pub const BUFFER_FLOOR: f64 = 0.10;

/// Miss weight used before the miss histogram has any samples (or with
/// latency recording off): a nominal 20 µs device read.
pub const DEFAULT_MISS_NS: u64 = 20_000;

/// The initial (IMRS bytes, buffer frames) split of a unified budget:
/// the IMRS takes [`INITIAL_IMRS_FRACTION`] (at least one allocator
/// chunk), the buffer cache the remainder in whole frames (at least 8).
pub fn initial_split(cfg: &EngineConfig) -> (u64, usize) {
    let imrs = ((cfg.total_memory_budget as f64 * INITIAL_IMRS_FRACTION) as u64)
        .max(cfg.imrs_chunk_size as u64);
    let frames = (cfg.total_memory_budget.saturating_sub(imrs) / PAGE_SIZE as u64).max(8) as usize;
    (imrs, frames)
}

/// Largest single shift, in bytes.
pub fn max_shift_bytes(cfg: &EngineConfig) -> u64 {
    (cfg.total_memory_budget as f64 * MAX_SHIFT_FRACTION) as u64
}

/// Smallest IMRS budget the arbiter may shrink to, in bytes.
pub fn imrs_floor_bytes(cfg: &EngineConfig) -> u64 {
    ((cfg.total_memory_budget as f64 * IMRS_FLOOR) as u64).max(cfg.imrs_chunk_size as u64)
}

/// Smallest buffer-cache budget the arbiter may shrink to, in bytes.
pub fn buffer_floor_bytes(cfg: &EngineConfig) -> u64 {
    ((cfg.total_memory_budget as f64 * BUFFER_FLOOR) as u64).max(8 * PAGE_SIZE as u64)
}

/// Counter values at the previous window boundary plus the hysteresis
/// vote state. Guarded by the `window` mutex (rank `MEM_ARBITER`),
/// taken only from maintenance — never on the DML path, never held
/// across a budget apply (which may do eviction I/O).
#[derive(Default)]
struct WindowState {
    last_imrs_miss_ops: u64,
    last_hits: u64,
    last_misses: u64,
    imrs_votes: u32,
    buffer_votes: u32,
}

/// The memory arbiter. One per engine, driven from maintenance.
pub struct MemoryArbiter {
    window: Mutex<WindowState>,
    last_window_at: AcqRel<u64>,
    windows_run: Relaxed<u64>,
    shifts_applied: Relaxed<u64>,
    bytes_to_imrs: Relaxed<u64>,
    bytes_to_buffer: Relaxed<u64>,
    obs: Arc<Obs>,
}

impl MemoryArbiter {
    pub fn with_obs(obs: Arc<Obs>) -> Self {
        MemoryArbiter {
            window: Mutex::with_rank(parking_lot::lock_rank::MEM_ARBITER, WindowState::default()),
            last_window_at: AcqRel::new(0),
            windows_run: Relaxed::new(0),
            shifts_applied: Relaxed::new(0),
            bytes_to_imrs: Relaxed::new(0),
            bytes_to_buffer: Relaxed::new(0),
            obs,
        }
    }

    /// Arbiter windows executed so far.
    pub fn windows_run(&self) -> u64 {
        self.windows_run.load()
    }

    /// Budget shifts actually applied (vote windows excluded).
    pub fn shifts_applied(&self) -> u64 {
        self.shifts_applied.load()
    }

    /// Total bytes moved into the IMRS over the engine's lifetime.
    pub fn bytes_to_imrs(&self) -> u64 {
        self.bytes_to_imrs.load()
    }

    /// Total bytes moved into the buffer cache.
    pub fn bytes_to_buffer(&self) -> u64 {
        self.bytes_to_buffer.load()
    }

    /// Run a window if one is due at `committed_txns`. Returns whether
    /// a window ran. The caller has checked that the unified budget is
    /// active.
    pub fn maybe_run(
        &self,
        cfg: &EngineConfig,
        committed_txns: u64,
        catalog: &Catalog,
        store: &ImrsStore,
        cache: &BufferCache,
    ) -> bool {
        let last = self.last_window_at.load();
        if committed_txns.saturating_sub(last) < WINDOW_TXNS {
            return false;
        }
        if self
            .last_window_at
            .compare_exchange(last, committed_txns)
            .is_err()
        {
            return false; // another thread claimed this window
        }
        let timer = self.obs.start();
        let window = self.windows_run.load() + 1;

        // One coherent read of every input the verdict will cite. Page
        // ops on IMRS-enabled partitions are rows ILM would keep
        // resident with more budget — the IMRS's miss counter.
        let imrs_miss_total: u64 = catalog
            .tables()
            .iter()
            .filter(|t| t.imrs_enabled)
            .flat_map(|t| t.partitions.iter())
            .map(|p| p.metrics.page_ops.load())
            .sum();
        let bstats = cache.stats();
        let imrs_bytes = store.budget();
        let buffer_bytes = cache.capacity() as u64 * PAGE_SIZE as u64;
        let utilization = store.utilization();
        let miss = self.obs.hist(OpClass::BufferMiss).summary();
        let miss_ns = if miss.count > 0 {
            miss.p50
        } else {
            DEFAULT_MISS_NS
        };

        // What this window decided: computed under the `window` lock,
        // applied after it is released.
        let verdict = {
            let mut st = self.window.lock();
            let imrs_missed = imrs_miss_total.saturating_sub(st.last_imrs_miss_ops);
            let hits = bstats.hits.saturating_sub(st.last_hits);
            let misses = bstats.misses.saturating_sub(st.last_misses);
            st.last_imrs_miss_ops = imrs_miss_total;
            st.last_hits = bstats.hits;
            st.last_misses = bstats.misses;

            let miss_us = (miss_ns as f64 / 1_000.0).max(1.0);
            let imrs_mib = (imrs_bytes as f64 / (1024.0 * 1024.0)).max(1.0);
            let buffer_mib = (buffer_bytes as f64 / (1024.0 * 1024.0)).max(1.0);
            let imrs_mu = imrs_missed as f64 * miss_us / imrs_mib;
            let buffer_mu = misses as f64 * miss_us / buffer_mib;

            let vote_imrs = imrs_mu > 0.0 && imrs_mu > VOTE_MARGIN * buffer_mu;
            let vote_buffer = buffer_mu > 0.0 && buffer_mu > VOTE_MARGIN * imrs_mu;
            // Streaks saturate at the hysteresis bar: a deferred shift
            // (floor headroom below one chunk) keeps its standing vote
            // without letting the count grow past what it can cite.
            if vote_imrs {
                st.buffer_votes = 0;
                st.imrs_votes = (st.imrs_votes + 1).min(HYSTERESIS_WINDOWS);
            } else if vote_buffer {
                st.imrs_votes = 0;
                st.buffer_votes = (st.buffer_votes + 1).min(HYSTERESIS_WINDOWS);
            } else {
                // Mixed or quiet window: hysteresis starts over.
                st.imrs_votes = 0;
                st.buffer_votes = 0;
            }
            if !vote_imrs && !vote_buffer {
                None
            } else {
                let (votes, to_imrs) = if vote_imrs {
                    (st.imrs_votes, true)
                } else {
                    (st.buffer_votes, false)
                };
                let mut shift_bytes = 0u64;
                let mut action = if to_imrs {
                    ArbiterAction::VoteImrs
                } else {
                    ArbiterAction::VoteBuffer
                };
                if votes >= HYSTERESIS_WINDOWS {
                    // Clamp to the shrinking pool's floor headroom,
                    // then quantize down to whole IMRS chunks: the
                    // allocator rounds budgets up to chunk granularity,
                    // so only chunk-multiple shifts keep the two pools'
                    // total exactly conserved.
                    let headroom = if to_imrs {
                        buffer_bytes.saturating_sub(buffer_floor_bytes(cfg))
                    } else {
                        imrs_bytes.saturating_sub(imrs_floor_bytes(cfg))
                    };
                    let chunk = u64::from(cfg.imrs_chunk_size).max(1);
                    let clamped = max_shift_bytes(cfg).min(headroom) / chunk * chunk;
                    if clamped > 0 {
                        shift_bytes = clamped;
                        action = if to_imrs {
                            ArbiterAction::ShiftToImrs
                        } else {
                            ArbiterAction::ShiftToBuffer
                        };
                        st.imrs_votes = 0;
                        st.buffer_votes = 0;
                    }
                    // Else: less than one chunk of headroom. The
                    // (saturated) vote streak stands and the shift is
                    // deferred until headroom reappears.
                }
                Some(ArbiterTrace {
                    window,
                    action,
                    imrs_miss_ops: imrs_missed,
                    buffer_hits: hits,
                    buffer_misses: misses,
                    miss_ns,
                    imrs_bytes,
                    buffer_bytes,
                    imrs_utilization: utilization,
                    imrs_mu,
                    buffer_mu,
                    shift_bytes,
                    // Read back once the shift has been applied.
                    imrs_bytes_after: 0,
                    buffer_frames_after: 0,
                    votes,
                    votes_needed: HYSTERESIS_WINDOWS,
                })
            }
        };

        // Apply with the window lock released: a buffer shrink may
        // evict (shard locks + write-back I/O).
        if let Some(mut v) = verdict {
            if v.shift_bytes > 0 {
                match v.action {
                    ArbiterAction::ShiftToImrs => {
                        cache.set_capacity(
                            (buffer_bytes.saturating_sub(v.shift_bytes) / PAGE_SIZE as u64)
                                as usize,
                        );
                        store.set_budget(imrs_bytes + v.shift_bytes);
                        self.bytes_to_imrs.fetch_add(v.shift_bytes);
                    }
                    ArbiterAction::ShiftToBuffer => {
                        store.set_budget(imrs_bytes.saturating_sub(v.shift_bytes));
                        cache.set_capacity(
                            ((buffer_bytes + v.shift_bytes) / PAGE_SIZE as u64) as usize,
                        );
                        self.bytes_to_buffer.fetch_add(v.shift_bytes);
                    }
                    _ => {}
                }
                self.shifts_applied.fetch_add(1);
            }
            v.imrs_bytes_after = store.budget();
            v.buffer_frames_after = cache.capacity() as u64;
            self.obs.trace.push(IlmTraceEvent::Arbiter(v));
        }

        self.windows_run.fetch_add(1);
        self.obs.record_since(OpClass::TuningWindow, timer);
        true
    }
}
