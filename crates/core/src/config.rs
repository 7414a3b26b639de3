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
            tsf_enabled: true,
            durable_commits: false,
            recovery_workers: 0,
            freeze_enabled: false,
            freeze_min_rows: 32,
            freeze_max_rows: 4096,
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
}
