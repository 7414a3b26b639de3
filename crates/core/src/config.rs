//! Engine configuration.

/// Storage strategy, matching the experiment setups of §VIII.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// Baseline: every operation uses the page store; the IMRS is
    /// unused. This is the "TPCC run on the page-store with the
    /// database fully-cached in the buffer cache" reference.
    PageOnly,
    /// ILM_OFF: every accessed row is stored in the IMRS, no pack, no
    /// tuning — cache utilization grows without bound (configure a
    /// large budget).
    IlmOff,
    /// ILM_ON: full ILM heuristics, partition tuning, and pack.
    IlmOn,
}

/// How a pack cycle apportions `NumBytesToPack` across partitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackPolicy {
    /// The paper's design: Usefulness / Cache-Utilization / Packability
    /// indexes tax fat, cold partitions (§VI.C).
    Partitioned,
    /// The naive strawman the paper calls out: distribute the bytes
    /// uniformly across all active partitions — "this has the downside
    /// that all or most of the rows from some small partition (e.g.
    /// warehouse) are unnecessarily packed, even though they are hot"
    /// (§VI.C). Kept as an ablation baseline.
    UniformNaive,
}

/// All engine knobs. `Default` gives a laptop-scale IlmOn setup.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Storage strategy.
    pub mode: EngineMode,
    /// IMRS cache budget in bytes.
    pub imrs_budget: u64,
    /// Fragment allocator chunk size in bytes.
    pub imrs_chunk_size: u32,
    /// Buffer cache capacity in frames (8 KiB each).
    pub buffer_frames: usize,
    /// Steady cache utilization threshold in [0, 1] (§VI.A). Pack
    /// engages above this value; the system hovers around it.
    pub steady_utilization: f64,
    /// Tuning window length in committed transactions (§V.B).
    pub tuning_window_txns: u64,
    /// Consecutive same-direction votes required before a partition's
    /// IMRS use is toggled (hysteresis, §V.B).
    pub hysteresis_windows: u32,
    /// Reuse-per-row below which a partition is a disable candidate and
    /// the TSF is bypassed during pack (§V.C, §VI.D.2).
    pub low_reuse_threshold: f64,
    /// Partitions using less than this fraction of the IMRS budget are
    /// never disabled (§V.C "Partition IMRS utilization", default 1%).
    pub min_partition_footprint: f64,
    /// Below this cache utilization no partition is disabled (§V.C
    /// "IMRS cache utilization" guard).
    pub tuning_utilization_floor: f64,
    /// Minimum new rows brought into the IMRS during a window for a
    /// partition to be a disable candidate (§V.C "New IMRS usage").
    pub min_new_rows_for_disable: u64,
    /// Reuse increase factor (vs. the window when the partition was
    /// disabled) that re-enables a partition (§V.D).
    pub reuse_reenable_factor: f64,
    /// Run maintenance (GC, tuning, pack) inline every N commits when no
    /// background threads are spawned. Keeps single-threaded runs
    /// deterministic.
    pub maintenance_interval_txns: u64,
    /// Pack-cycle apportioning policy (ablation knob).
    pub pack_policy: PackPolicy,
    /// Master switch for the pack subsystem (probes and ablations can
    /// hold pack off while GC, tuning, and TSF learning keep running).
    pub pack_enabled: bool,
    /// Ablation: disable the Timestamp Filter (§VI.D). Steady-state
    /// pack then treats every queued row as cold, so recently-accessed
    /// rows get packed and immediately migrate back on their next
    /// touch — the thrash the TSF exists to prevent.
    pub tsf_enabled: bool,
    /// Flush both logs at every commit (durability over throughput).
    /// Experiments leave this off and flush at pack/checkpoint
    /// boundaries; the file-backed durability tests turn it on.
    pub durable_commits: bool,
    /// Worker threads for partitioned forward replay during recovery.
    /// 0 picks automatically from available parallelism (capped at 8);
    /// 1 forces serial replay.
    pub recovery_workers: usize,
    /// HTAP freeze: let pack maintenance promote whole batches of cold
    /// page-resident rows into immutable compressed columnar extents
    /// served to analytic scans. Off (the default) keeps the two-tier
    /// IMRS/page-store life cycle — freeze is opt-in the same way
    /// `durable_commits` is, so OLTP-only setups never pay for it.
    pub freeze_enabled: bool,
    /// Minimum cold rows a partition must yield before a freeze batch
    /// is worth an extent (tiny extents waste the columnar framing).
    pub freeze_min_rows: usize,
    /// Maximum rows per frozen extent (capped by the format's
    /// `MAX_EXTENT_ROWS`).
    pub freeze_max_rows: usize,
    /// Unified memory budget in bytes shared by the IMRS and the buffer
    /// cache. 0 (the default) keeps the legacy fixed split: the pools
    /// are sized independently from `imrs_budget` and `buffer_frames`
    /// and the memory arbiter stays off. Non-zero activates the
    /// arbiter (`crate::arbiter`, whose window, hysteresis, step cap
    /// and floors are constants there): the pools start from its
    /// initial split and the split moves at runtime along the
    /// marginal-utility signal. `imrs_budget` and `buffer_frames` are
    /// ignored then.
    pub total_memory_budget: u64,
    /// Record per-operation-class latency histograms (`btrim-obs`).
    /// When off, the hot paths skip the clock reads entirely — one
    /// branch per operation.
    pub obs_latency: bool,
    /// Capacity of the ILM decision-trace ring (tuner verdicts, pack
    /// cycles). 0 disables tracing.
    pub obs_trace_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 256 * 1024 * 1024,
            imrs_chunk_size: 4 * 1024 * 1024,
            buffer_frames: 4096,
            steady_utilization: 0.70,
            tuning_window_txns: 2_000,
            hysteresis_windows: 2,
            low_reuse_threshold: 0.5,
            min_partition_footprint: 0.01,
            tuning_utilization_floor: 0.50,
            min_new_rows_for_disable: 64,
            reuse_reenable_factor: 2.0,
            maintenance_interval_txns: 256,
            pack_policy: PackPolicy::Partitioned,
            pack_enabled: true,
            tsf_enabled: true,
            durable_commits: false,
            recovery_workers: 0,
            freeze_enabled: false,
            freeze_min_rows: 32,
            freeze_max_rows: 4096,
            total_memory_budget: 0,
            obs_latency: true,
            obs_trace_capacity: 1024,
        }
    }
}

impl EngineConfig {
    /// Convenience: a config in a given mode with an IMRS budget.
    pub fn with_mode(mode: EngineMode, imrs_budget: u64) -> Self {
        EngineConfig {
            mode,
            imrs_budget,
            ..Default::default()
        }
    }

    /// Utilization above which pack switches to aggressive mode: more
    /// than half the gap between the steady threshold and full (§VI.A).
    pub fn aggressive_utilization(&self) -> f64 {
        self.steady_utilization + (1.0 - self.steady_utilization) / 2.0
    }

    /// Utilization above which the engine temporarily stops storing new
    /// rows in the IMRS and routes operations to the page store
    /// (§VI.A: ensures pack only has to drain existing cold data).
    pub fn reject_new_utilization(&self) -> f64 {
        (self.aggressive_utilization() + 1.0) / 2.0
    }

    /// Whether the unified budget (and with it the memory arbiter) is
    /// active. Legacy fixed-split configs leave it off.
    pub fn arbiter_active(&self) -> bool {
        self.total_memory_budget > 0
    }

    /// Resolve the initial (IMRS bytes, buffer frames) split.
    ///
    /// With `total_memory_budget == 0` this is the legacy fixed split —
    /// exactly the independent `imrs_budget` and `buffer_frames` knobs;
    /// otherwise the arbiter's initial split of the total.
    pub fn memory_split(&self) -> (u64, usize) {
        if self.arbiter_active() {
            crate::arbiter::initial_split(self)
        } else {
            (self.imrs_budget, self.buffer_frames)
        }
    }

    /// Validate invariants; panic early on nonsense configs.
    pub fn validate(&self) {
        assert!(
            (0.1..=0.95).contains(&self.steady_utilization),
            "steady_utilization out of range"
        );
        assert!(self.tuning_window_txns > 0);
        assert!(self.imrs_budget >= self.imrs_chunk_size as u64);
        assert!(self.buffer_frames >= 8);
        assert!(
            self.obs_trace_capacity <= 1 << 20,
            "obs_trace_capacity unreasonably large (cap: 1 MiB of events)"
        );
        assert!(
            self.recovery_workers <= 256,
            "recovery_workers unreasonably large"
        );
        assert!(
            self.freeze_min_rows >= 1 && self.freeze_min_rows <= self.freeze_max_rows,
            "freeze row bounds must satisfy 1 ≤ min ≤ max"
        );
        assert!(
            self.freeze_max_rows <= btrim_pagestore::MAX_EXTENT_ROWS,
            "freeze_max_rows exceeds the extent format's row cap"
        );
        if self.arbiter_active() {
            // memory_split clamps each pool up to its minimum viable
            // size, so the total must actually cover both minima or the
            // split would silently over-commit.
            assert!(
                self.total_memory_budget
                    >= self.imrs_chunk_size as u64 + 8 * btrim_pagestore::PAGE_SIZE as u64,
                "total_memory_budget too small for one IMRS chunk plus 8 frames"
            );
            // Shifts are quantized down to whole IMRS chunks (budget
            // conservation); a per-shift cap below one chunk would
            // quantize every shift to zero and freeze the arbiter.
            assert!(
                crate::arbiter::max_shift_bytes(self) >= self.imrs_chunk_size as u64,
                "the arbiter's per-shift cap of total_memory_budget is below one IMRS \
                 chunk; no shift could ever apply"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        EngineConfig::default().validate();
    }

    #[test]
    fn thresholds_are_ordered() {
        let c = EngineConfig::default();
        assert!(c.steady_utilization < c.aggressive_utilization());
        assert!(c.aggressive_utilization() < c.reject_new_utilization());
        assert!(c.reject_new_utilization() < 1.0);
    }

    #[test]
    fn aggressive_threshold_matches_paper_rule() {
        // steady 70% → aggressive at 85% (half the remaining gap).
        let c = EngineConfig {
            steady_utilization: 0.70,
            ..Default::default()
        };
        assert!((c.aggressive_utilization() - 0.85).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn freeze_bounds_inverted_panics() {
        EngineConfig {
            freeze_enabled: true,
            freeze_min_rows: 100,
            freeze_max_rows: 10,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn bad_config_panics() {
        EngineConfig {
            steady_utilization: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn unified_budget_splits_evenly_above_both_floors() {
        let total = 128 * 1024 * 1024u64;
        let c = EngineConfig {
            total_memory_budget: total,
            ..Default::default()
        };
        c.validate();
        assert!(c.arbiter_active());
        let (imrs, frames) = c.memory_split();
        assert_eq!(imrs, total / 2);
        assert_eq!(frames, (total / 2) as usize / btrim_pagestore::PAGE_SIZE);
        assert!(crate::arbiter::imrs_floor_bytes(&c) < imrs);
        assert!(crate::arbiter::buffer_floor_bytes(&c) < total - imrs);
    }

    #[test]
    #[should_panic]
    fn arbiter_total_budget_too_small_panics() {
        EngineConfig {
            // One chunk is 4 MiB by default; 1 MiB cannot cover it.
            total_memory_budget: 1024 * 1024,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn arbiter_shift_cap_below_chunk_panics() {
        EngineConfig {
            // 5% of 64 MiB is 3.2 MiB — below the default 4 MiB chunk,
            // so chunk quantization would zero out every shift.
            total_memory_budget: 64 * 1024 * 1024,
            ..Default::default()
        }
        .validate();
    }
}
