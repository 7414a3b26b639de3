//! Auto IMRS partition tuning (§V).
//!
//! A background pass runs once per *tuning window* (a fixed number of
//! committed transactions). For every data partition it compares this
//! window's counters with the previous window's and votes to disable or
//! re-enable IMRS use for that partition. A vote must repeat for
//! `hysteresis_windows` consecutive windows before it is applied,
//! avoiding flapping on dynamic workloads (§V.B).
//!
//! Disable heuristics (§V.C) — all must hold:
//! * overall IMRS utilization is above the tuning floor (plenty of free
//!   memory ⇒ no reason to disable anything);
//! * the partition's footprint exceeds the minimum fraction of the
//!   budget (tiny partitions are never disabled);
//! * the partition brought enough *new* rows into the IMRS this window
//!   (slow-growing partitions are left alone);
//! * average re-use per resident row in the window is below the
//!   threshold.
//!
//! Enable heuristics (§V.D) — either suffices:
//! * page-store operations on the partition observed contention;
//! * partition activity (re-use + page ops) grew by the configured
//!   factor relative to the window in which it was disabled.

use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_imrs::ImrsStore;
use btrim_obs::{IlmTraceEvent, Obs, OpClass, TunerAction, TunerTrace};

use crate::catalog::{Catalog, Partition};
use crate::config::EngineConfig;

/// Page-store contention events in one window that vote to re-enable a
/// disabled partition (§V.D).
pub const CONTENTION_REENABLE_THRESHOLD: u64 = 16;

/// Per-partition ILM enablement state.
#[derive(Debug)]
pub struct PartitionIlmState {
    /// New inserts may go to the IMRS.
    insert_enabled: Relaxed<bool>,
    /// Page-store rows may migrate to the IMRS on update.
    migrate_enabled: Relaxed<bool>,
    /// Page-store rows may be cached in the IMRS on select.
    cache_enabled: Relaxed<bool>,
    disable_votes: Relaxed<u32>,
    enable_votes: Relaxed<u32>,
    /// Partition activity (reuse + page ops) in the window where the
    /// partition was disabled; baseline for re-enable.
    activity_at_disable: Mutex<Option<u64>>,
    /// Enable/disable transitions (stats).
    toggles: Relaxed<u64>,
}

impl Default for PartitionIlmState {
    fn default() -> Self {
        PartitionIlmState {
            insert_enabled: Relaxed::new(true),
            migrate_enabled: Relaxed::new(true),
            cache_enabled: Relaxed::new(true),
            disable_votes: Relaxed::new(0),
            enable_votes: Relaxed::new(0),
            activity_at_disable: Mutex::new(None),
            toggles: Relaxed::new(0),
        }
    }
}

impl PartitionIlmState {
    /// Whether new inserts may use the IMRS.
    pub fn allows_insert(&self) -> bool {
        self.insert_enabled.load()
    }

    /// Whether updates may migrate page rows into the IMRS.
    pub fn allows_migrate(&self) -> bool {
        self.migrate_enabled.load()
    }

    /// Whether selects may cache page rows into the IMRS.
    pub fn allows_cache(&self) -> bool {
        self.cache_enabled.load()
    }

    /// Whether any IMRS use is enabled.
    pub fn enabled(&self) -> bool {
        self.allows_insert() || self.allows_migrate() || self.allows_cache()
    }

    /// Number of enable/disable transitions.
    pub fn toggles(&self) -> u64 {
        self.toggles.load()
    }

    /// Staged disablement per ISUD class (§V: "disables ... use of
    /// in-memory storage for certain ISUD operations on certain
    /// partitions"). The first stage turns off the *speculative*
    /// placements — select-caching and update-migration of page rows —
    /// whose payoff is exactly what the low re-use signal refutes; a
    /// repeated verdict then also stops directing new inserts to the
    /// IMRS. Returns `true` once the partition is fully disabled.
    fn escalate_disable(&self) -> bool {
        self.toggles.fetch_add(1);
        if self.allows_cache() || self.allows_migrate() {
            self.cache_enabled.store(false);
            self.migrate_enabled.store(false);
            false
        } else {
            self.insert_enabled.store(false);
            true
        }
    }

    fn enable_all(&self) {
        self.insert_enabled.store(true);
        self.migrate_enabled.store(true);
        self.cache_enabled.store(true);
        self.toggles.fetch_add(1);
    }
}

/// The auto-tuner: the window clock. Its verdicts live on the
/// [`Partition`] records (`ilm`, `last_sample`).
#[derive(Default)]
pub struct Tuner {
    last_window_at: AcqRel<u64>,
    windows_run: Relaxed<u64>,
    /// Optional observability hub: verdict tracing + window latency.
    obs: Option<Arc<Obs>>,
}

impl Tuner {
    /// Empty tuner (all partitions enabled by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuner wired to an observability hub: every verdict (vote or
    /// transition) is traced, and window latency is recorded.
    pub fn with_obs(obs: Arc<Obs>) -> Self {
        Tuner {
            obs: Some(obs),
            ..Self::default()
        }
    }

    /// Tuning windows executed so far.
    pub fn windows_run(&self) -> u64 {
        self.windows_run.load()
    }

    /// Run a window over `catalog`'s tables if one is due at
    /// `committed_txns`; pinned tables override ILM tuning (§X).
    /// Returns whether a window ran.
    pub fn maybe_run(
        &self,
        cfg: &EngineConfig,
        committed_txns: u64,
        catalog: &Catalog,
        store: &ImrsStore,
    ) -> bool {
        let last = self.last_window_at.load();
        if committed_txns.saturating_sub(last) < cfg.tuning_window_txns {
            return false;
        }
        if self
            .last_window_at
            .compare_exchange(last, committed_txns)
            .is_err()
        {
            return false; // another thread claimed this window
        }
        let tables = catalog.tables();
        let tuned = tables.iter().filter(|t| !t.pinned);
        self.run_window(cfg, tuned.flat_map(|t| &t.partitions), store);
        true
    }

    /// Execute one tuning window unconditionally (tests drive this).
    pub fn run_window<'a>(
        &self,
        cfg: &EngineConfig,
        partitions: impl IntoIterator<Item = &'a Arc<Partition>>,
        store: &ImrsStore,
    ) {
        let timer = self.obs.as_ref().and_then(|o| o.start());
        let window = self.windows_run.load() + 1;
        let util = store.utilization();
        let budget = store.budget();
        for part in partitions {
            // One coherent sample per partition per window: every
            // derived rate below (re-use, activity, reuse-per-row)
            // comes from the same set of counter loads.
            let sample = part.metrics.sample();
            let prev = std::mem::replace(&mut *part.last_sample.lock(), sample);
            let delta = sample.delta_since(&prev);
            let (p, state) = (part.id, &part.ilm);
            let usage = store.usage(p);
            let activity = delta.reuse_ops() + delta.page_ops;
            // Closure capturing every input the verdict read, so each
            // traced decision carries the evidence for the rule it
            // cites (the consistency test replays these).
            let trace = |action: TunerAction, rule, baseline: u64, votes: u32| {
                if let Some(obs) = &self.obs {
                    obs.trace.push(IlmTraceEvent::Tuner(TunerTrace {
                        window,
                        partition: p.0 as u64,
                        action,
                        rule,
                        reuse_ops: delta.reuse_ops(),
                        rows_in: delta.rows_in,
                        page_ops: delta.page_ops,
                        page_contention: delta.page_contention,
                        avg_reuse: delta.reuse_ops() as f64 / usage.rows().max(1) as f64,
                        footprint_bytes: usage.bytes(),
                        resident_rows: usage.rows(),
                        utilization: util,
                        activity,
                        activity_baseline: baseline,
                        votes,
                        votes_needed: cfg.hysteresis_windows,
                    }));
                }
            };
            if state.enabled() {
                let guard_util = util >= cfg.tuning_utilization_floor;
                let guard_footprint =
                    usage.bytes() >= (cfg.min_partition_footprint * budget as f64) as u64;
                let guard_growth = delta.rows_in >= cfg.min_new_rows_for_disable;
                let avg_reuse = delta.reuse_ops() as f64 / usage.rows().max(1) as f64;
                let vote_disable = guard_util
                    && guard_footprint
                    && guard_growth
                    && avg_reuse < cfg.low_reuse_threshold;
                state.enable_votes.store(0);
                if vote_disable {
                    let votes = state.disable_votes.fetch_add(1) + 1;
                    if votes >= cfg.hysteresis_windows {
                        let fully = state.escalate_disable();
                        state.disable_votes.store(0);
                        if fully {
                            *state.activity_at_disable.lock() = Some(activity);
                        }
                        let action = if fully {
                            TunerAction::DisabledFull
                        } else {
                            TunerAction::DisabledStage1
                        };
                        trace(action, "low-reuse", 0, votes);
                    } else {
                        trace(TunerAction::VoteDisable, "low-reuse", 0, votes);
                    }
                } else {
                    state.disable_votes.store(0);
                }
            } else {
                let contention = delta.page_contention >= CONTENTION_REENABLE_THRESHOLD;
                let baseline = state.activity_at_disable.lock().unwrap_or(0).max(1);
                let demand_growth = activity as f64 >= cfg.reuse_reenable_factor * baseline as f64;
                state.disable_votes.store(0);
                if contention || demand_growth {
                    let rule = if contention {
                        "contention"
                    } else {
                        "demand-growth"
                    };
                    let votes = state.enable_votes.fetch_add(1) + 1;
                    if votes >= cfg.hysteresis_windows {
                        state.enable_all();
                        state.enable_votes.store(0);
                        *state.activity_at_disable.lock() = None;
                        trace(TunerAction::Reenabled, rule, baseline, votes);
                    } else {
                        trace(TunerAction::VoteEnable, rule, baseline, votes);
                    }
                } else {
                    state.enable_votes.store(0);
                }
            }
        }
        self.windows_run.fetch_add(1);
        if let Some(obs) = &self.obs {
            obs.record_since(OpClass::TuningWindow, timer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_common::{PartitionId, RowId, TableId, Timestamp, TxnId};
    use btrim_imrs::RowOrigin;

    fn cfg() -> EngineConfig {
        EngineConfig {
            tuning_window_txns: 100,
            hysteresis_windows: 2,
            low_reuse_threshold: 0.5,
            min_partition_footprint: 0.001,
            tuning_utilization_floor: 0.0, // disable the floor for tests
            min_new_rows_for_disable: 4,
            reuse_reenable_factor: 2.0,
            ..Default::default()
        }
    }

    fn partition(id: u32) -> Arc<Partition> {
        Arc::new(Partition::new(PartitionId(id), TableId(0)))
    }

    /// Populate a store partition with `rows` rows so footprint guards
    /// pass.
    fn fill(store: &ImrsStore, p: PartitionId, rows: u64) {
        for i in 0..rows {
            store
                .insert_row_committed(
                    RowId(p.0 as u64 * 1_000_000 + i),
                    p,
                    RowOrigin::Inserted,
                    TxnId(1),
                    &[0u8; 64],
                    Timestamp(1),
                )
                .unwrap();
        }
    }

    #[test]
    fn low_reuse_growing_partition_is_disabled_in_stages() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(1);
        fill(&store, part.id, 100);

        // Window 1: many new rows, no reuse → first disable vote.
        part.metrics.rows_in.add(50);
        tuner.run_window(&cfg, [&part], &store);
        assert!(part.ilm.allows_cache(), "one vote is not enough");

        // Window 2: second vote → stage 1: the speculative placements
        // (caching, migration) are disabled, inserts still allowed.
        part.metrics.rows_in.add(50);
        tuner.run_window(&cfg, [&part], &store);
        let st = &part.ilm;
        assert!(!st.allows_cache() && !st.allows_migrate());
        assert!(st.allows_insert(), "stage 1 keeps inserts in the IMRS");
        assert!(st.enabled());

        // Windows 3+4: verdict repeats → stage 2: fully disabled.
        for _ in 0..2 {
            part.metrics.rows_in.add(50);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(!part.ilm.enabled());
        assert_eq!(part.ilm.toggles(), 2);
    }

    #[test]
    fn high_reuse_partition_stays_enabled() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(2);
        fill(&store, part.id, 10);
        for _ in 0..3 {
            part.metrics.rows_in.add(50);
            part.metrics.imrs_select.add(1_000); // avg reuse 100/row
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(part.ilm.enabled());
    }

    #[test]
    fn tiny_or_slow_partitions_are_never_disabled() {
        let cfg = EngineConfig {
            min_partition_footprint: 0.5, // footprint guard very strict
            ..cfg()
        };
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(3);
        fill(&store, part.id, 10); // tiny footprint
        for _ in 0..5 {
            part.metrics.rows_in.add(100);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(part.ilm.enabled(), "footprint guard protects");

        // Slow growth guard: large partition, no new rows.
        let cfg2 = cfg2_with_growth_guard();
        let part_q = partition(4);
        fill(&store, part_q.id, 200);
        for _ in 0..5 {
            tuner.run_window(&cfg2, [&part_q], &store);
        }
        assert!(part_q.ilm.enabled(), "growth guard protects");
    }

    fn cfg2_with_growth_guard() -> EngineConfig {
        EngineConfig {
            min_new_rows_for_disable: 64,
            tuning_utilization_floor: 0.0,
            min_partition_footprint: 0.0001,
            ..cfg()
        }
    }

    #[test]
    fn utilization_floor_guards_fresh_servers() {
        // Same disable-worthy pattern, but the floor requires 99% util:
        // nothing is disabled right after boot (§V.C's guard).
        let cfg = EngineConfig {
            tuning_utilization_floor: 0.99,
            ..cfg()
        };
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(5);
        fill(&store, part.id, 100);
        for _ in 0..4 {
            part.metrics.rows_in.add(100);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(part.ilm.enabled());
    }

    #[test]
    fn contention_reenables_disabled_partition() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(6);
        fill(&store, part.id, 100);
        // Disable via four low-reuse windows (two escalation stages).
        for _ in 0..4 {
            part.metrics.rows_in.add(50);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(!part.ilm.enabled());
        // Two contended windows re-enable everything at once.
        for _ in 0..2 {
            part.metrics.page_contention.add(20);
            part.metrics.page_ops.add(100);
            tuner.run_window(&cfg, [&part], &store);
        }
        let st = &part.ilm;
        assert!(st.allows_insert() && st.allows_migrate() && st.allows_cache());
        assert_eq!(st.toggles(), 3);
    }

    #[test]
    fn demand_growth_reenables() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(7);
        fill(&store, part.id, 100);
        // Disable fully (two escalation stages) with a known activity
        // baseline.
        for _ in 0..4 {
            part.metrics.rows_in.add(50);
            part.metrics.imrs_select.add(10);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(!part.ilm.enabled());
        // Activity explodes (page ops, since IMRS is off) for two
        // windows: re-enabled.
        for _ in 0..2 {
            part.metrics.page_ops.add(500);
            tuner.run_window(&cfg, [&part], &store);
        }
        assert!(part.ilm.enabled());
    }

    #[test]
    fn maybe_run_respects_window_boundaries() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let catalog = Catalog::new();
        assert!(!tuner.maybe_run(&cfg, 50, &catalog, &store));
        assert!(tuner.maybe_run(&cfg, 100, &catalog, &store));
        assert!(!tuner.maybe_run(&cfg, 150, &catalog, &store));
        assert!(tuner.maybe_run(&cfg, 200, &catalog, &store));
        assert_eq!(tuner.windows_run(), 2);
    }

    #[test]
    fn hysteresis_resets_on_mixed_votes() {
        let cfg = cfg();
        let store = ImrsStore::new(
            1024 * 1024,
            64 * 1024,
            std::sync::Arc::new(btrim_imrs::RidMap::new()),
        );
        let tuner = Tuner::new();
        let part = partition(8);
        fill(&store, part.id, 100);
        // Vote, then a healthy window, then vote again: never disabled.
        part.metrics.rows_in.add(50);
        tuner.run_window(&cfg, [&part], &store);
        part.metrics.rows_in.add(50);
        part.metrics.imrs_select.add(10_000);
        tuner.run_window(&cfg, [&part], &store);
        part.metrics.rows_in.add(50);
        tuner.run_window(&cfg, [&part], &store);
        assert!(part.ilm.enabled(), "non-consecutive votes reset");
    }
}
