//! The Timestamp Filter (TSF), §VI.D.
//!
//! Ʈ approximates the number of transactions that grow IMRS utilization
//! by the steady-utilization percentage: a row accessed within the last
//! Ʈ transactions is *hot* and must not be packed. Ʈ is learned online:
//! when a learning cycle starts, current utilization `u₀` and commit
//! timestamp `t₀` are recorded; when utilization reaches `u₀ + δ` at
//! timestamp `t₁`,
//!
//! ```text
//! Ʈ = (t₁ − t₀) × steady / δ
//! ```
//!
//! and the system re-learns periodically to follow the workload. Pack
//! holds utilization on the steady line, so the engine feeds the learner
//! utilization gross of the bytes pack has moved out.
//!
//! Partition awareness: partitions whose reuse rate is very low skip
//! the filter entirely — their rows are packed regardless of recency,
//! because keeping them resident buys nothing (§VI.D.2, the *history*
//! table example).

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::Timestamp;

/// Small utilization increase used to learn the TSF (§VI.D.1,
/// "e.g. 1-5%"): the engine's `learn_delta`.
pub(crate) const LEARN_DELTA: f64 = 0.02;
/// The engine re-learns the TSF after this many committed transactions.
pub(crate) const RELEARN_TXNS: u64 = 10_000;

#[derive(Debug, Clone, Copy)]
struct LearnCycle {
    start_util: f64,
    start_ts: Timestamp,
    started_at_txns: u64,
}

/// Learner + filter state.
pub struct TsfLearner {
    /// Current Ʈ in commit-timestamp units.
    tau: Relaxed<u64>,
    /// Steady utilization target (Ρ in the paper's formula).
    steady: f64,
    /// Utilization delta that closes a learning cycle (δ).
    learn_delta: f64,
    /// Re-learn after this many committed transactions.
    relearn_txns: u64,
    cycle: Mutex<Option<LearnCycle>>,
    last_learned_at: Relaxed<u64>,
    learn_count: Relaxed<u64>,
}

impl TsfLearner {
    /// Create a learner. `initial_tau` is used until the first learning
    /// cycle completes (a tuning-window-sized guess is a good default).
    pub fn new(steady: f64, learn_delta: f64, relearn_txns: u64, initial_tau: u64) -> Self {
        TsfLearner {
            tau: Relaxed::new(initial_tau),
            steady,
            learn_delta,
            relearn_txns,
            cycle: Mutex::new(None),
            last_learned_at: Relaxed::new(0),
            learn_count: Relaxed::new(0),
        }
    }

    /// Current Ʈ.
    pub fn tau(&self) -> u64 {
        self.tau.load()
    }

    /// Completed learning cycles (tests/stats).
    pub fn learn_count(&self) -> u64 {
        self.learn_count.load()
    }

    /// Advance the learner. Called from the maintenance path with the
    /// current utilization, commit timestamp, and committed-transaction
    /// count.
    pub fn observe(&self, utilization: f64, now: Timestamp, committed_txns: u64) {
        let mut cycle = self.cycle.lock();
        match *cycle {
            None => {
                let due = committed_txns.saturating_sub(self.last_learned_at.load())
                    >= self.relearn_txns
                    || self.learn_count.load() == 0;
                if due {
                    *cycle = Some(LearnCycle {
                        start_util: utilization,
                        start_ts: now,
                        started_at_txns: committed_txns,
                    });
                }
            }
            Some(c) => {
                // Epsilon guards float rounding on threshold compares.
                if utilization >= c.start_util + self.learn_delta - 1e-9 {
                    let elapsed = now.delta_since(c.start_ts).max(1);
                    let tau = (elapsed as f64 * self.steady / self.learn_delta).round() as u64;
                    self.tau.store(tau.max(1));
                    self.last_learned_at.store(committed_txns);
                    self.learn_count.fetch_add(1);
                    *cycle = None;
                } else if utilization + self.learn_delta < c.start_util {
                    // Utilization fell (pack drained the cache):
                    // restart the cycle from the new level.
                    *cycle = Some(LearnCycle {
                        start_util: utilization,
                        start_ts: now,
                        started_at_txns: c.started_at_txns,
                    });
                }
            }
        }
    }

    /// Recency check: is the row hot? "A row which is being operated by
    /// any of the last Ʈ transactions should not be packed" (§VI.D.1).
    pub fn is_recent(&self, last_access: Timestamp, now: Timestamp) -> bool {
        now.delta_since(last_access) <= self.tau()
    }

    /// Full partition-aware hotness check (§VI.D.2): the filter applies
    /// only when the partition's reuse rate is high enough; low-reuse
    /// partitions are packed regardless of recency.
    pub fn is_hot(
        &self,
        last_access: Timestamp,
        now: Timestamp,
        partition_reuse_rate: f64,
        low_reuse_threshold: f64,
    ) -> bool {
        if partition_reuse_rate < low_reuse_threshold {
            return false;
        }
        self.is_recent(last_access, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn learner() -> TsfLearner {
        TsfLearner::new(0.70, 0.02, 1_000, 100)
    }

    #[test]
    fn initial_tau_used_before_learning() {
        let l = learner();
        assert_eq!(l.tau(), 100);
        assert!(l.is_recent(Timestamp(950), Timestamp(1000)));
        assert!(!l.is_recent(Timestamp(800), Timestamp(1000)));
    }

    #[test]
    fn learning_matches_formula() {
        let l = learner();
        // Cycle opens immediately (no prior learn).
        l.observe(0.10, Timestamp(1_000), 10);
        // 2% growth after 200 timestamps closes the cycle:
        // tau = 200 * 0.70 / 0.02 = 7000.
        l.observe(0.12, Timestamp(1_200), 210);
        assert_eq!(l.tau(), 7_000);
        assert_eq!(l.learn_count(), 1);
    }

    #[test]
    fn relearn_only_after_interval() {
        let l = learner();
        l.observe(0.10, Timestamp(0), 0);
        l.observe(0.12, Timestamp(100), 100); // learned at txns=100
        let tau1 = l.tau();
        // Too soon: no new cycle opens, utilization growth is ignored.
        l.observe(0.20, Timestamp(200), 500);
        l.observe(0.30, Timestamp(300), 900);
        assert_eq!(l.tau(), tau1);
        // After the interval a new cycle opens and closes.
        l.observe(0.30, Timestamp(400), 1_200);
        l.observe(0.32, Timestamp(480), 1_300);
        assert_eq!(l.learn_count(), 2);
        assert_eq!(l.tau(), (80.0 * 0.70 / 0.02f64).round() as u64);
    }

    #[test]
    fn falling_utilization_restarts_cycle() {
        let l = learner();
        l.observe(0.50, Timestamp(0), 0);
        // Pack drained the cache: cycle restarts at the lower level.
        l.observe(0.40, Timestamp(100), 50);
        // Growth measured from the restart point.
        l.observe(0.42, Timestamp(250), 120);
        assert_eq!(l.tau(), (150.0 * 0.70 / 0.02f64).round() as u64);
    }

    #[test]
    fn low_reuse_partitions_bypass_filter() {
        let l = learner();
        // Row accessed *just now* — recency says hot...
        let hot_by_recency = l.is_hot(Timestamp(999), Timestamp(1_000), 10.0, 0.5);
        assert!(hot_by_recency);
        // ...but a low-reuse partition ignores the filter (§VI.D.2's
        // history-table example: recently inserted yet packable).
        let bypassed = l.is_hot(Timestamp(999), Timestamp(1_000), 0.1, 0.5);
        assert!(!bypassed);
    }
}
