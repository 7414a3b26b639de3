//! The maintenance clock: when GC, TSF learning, the tuning window,
//! pack and freeze run — inline every `maintenance_interval_txns`
//! commits (fully deterministic, the default) or on background threads.

use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::Result;
use btrim_obs::OpClass;

use crate::config::EngineMode;
use crate::engine::Engine;
use crate::health::HealthState;

/// Background maintenance threads [`Engine::spawn_background`] starts.
const PACK_THREADS: usize = 2;

pub(crate) struct Maintenance {
    gate: Mutex<()>,
    /// Committed-transaction count at the last inline pass.
    last_run: Relaxed<u64>,
    /// Set while background threads are running (they exit when it
    /// clears); disables the inline (commit-path) hook so client
    /// transactions never pay for pack/GC work, as in the paper's
    /// deployment.
    background: Relaxed<bool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Maintenance {
    pub fn new() -> Self {
        Maintenance {
            gate: Mutex::with_rank(parking_lot::lock_rank::ENGINE_STATE, ()),
            last_run: Relaxed::new(0),
            background: Relaxed::new(false),
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl Engine {
    /// Run one maintenance pass if due (inline deterministic mode).
    pub(crate) fn maybe_maintenance(&self) {
        let m = &self.sh.maint;
        if m.background.load() {
            return; // background threads own maintenance
        }
        let committed = self.sh.txns.committed_count();
        let last = m.last_run.load();
        if committed.saturating_sub(last) < self.sh.cfg.maintenance_interval_txns {
            return;
        }
        if let Some(_gate) = m.gate.try_lock() {
            m.last_run.store(committed);
            self.run_maintenance();
        }
    }

    /// One full maintenance pass: GC, TSF learning, tuning window,
    /// pack. Public so experiment drivers can tick deterministically.
    pub fn run_maintenance(&self) {
        let sh = &self.sh;
        let oldest = sh.txns.oldest_active_snapshot();
        let gc_start = sh.obs.start();
        sh.gc.tick(
            &sh.store,
            |p| sh.catalog.partition(p),
            &sh.ridmap,
            oldest,
            || sh.clock.now(),
            16_384,
        );
        // Quarantined version nodes / fragments and side-store images
        // are reclaimed once the snapshot horizon has passed them — no
        // registered reader can still be standing on any of it.
        sh.store.reclaim(oldest);
        sh.side.purge(oldest, &sh.ridmap);
        sh.obs.record_since(OpClass::GcPass, gc_start);
        if sh.cfg.mode != EngineMode::IlmOn {
            return;
        }
        let committed = sh.txns.committed_count();
        // §VI.D learns how fast the IMRS fills. Pack holds utilization
        // at the steady line every tick, so the learner reads it gross
        // of what pack has moved out.
        let packed: u64 = sh
            .catalog
            .tables()
            .iter()
            .flat_map(|t| &t.partitions)
            .map(|p| p.metrics.bytes_packed.load())
            .sum();
        let gross = (sh.store.used_bytes() + packed) as f64 / sh.store.budget().max(1) as f64;
        sh.tsf.observe(gross, sh.clock.now(), committed);
        sh.tuner
            .maybe_run(&sh.cfg, committed, &sh.catalog, &sh.store);
        // Pack writes both logs and the page store; a read-only engine
        // skips it (GC, TSF, and tuning above are purely in-memory).
        if sh.health.check_writable().is_ok() {
            crate::pack::pack_tick(self);
            // Freeze runs after pack so the rows pack just landed on
            // pages are freeze candidates on a later tick, once cold.
            if sh.cfg.freeze_enabled {
                crate::freeze::freeze_tick(self);
            }
        }
    }

    /// Spawn background maintenance threads (GC + pack). The paper runs
    /// these continuously; inline mode is the deterministic default.
    /// A no-op while they are already running; after a
    /// [`shutdown`](Self::shutdown) it starts them again.
    pub fn spawn_background(&self) {
        let m = &self.sh.maint;
        let mut threads = m.threads.lock();
        if !threads.is_empty() {
            return;
        }
        m.background.store(true);
        for i in 0..PACK_THREADS {
            let engine = Engine {
                sh: Arc::clone(&self.sh),
            };
            #[expect(
                clippy::expect_used,
                reason = "thread spawn fails only on resource exhaustion at startup; \
                          an engine without maintenance would silently stop packing"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("btrim-maint-{i}"))
                .spawn(move || {
                    while engine.sh.maint.background.load() {
                        engine.run_maintenance();
                        // Back off when storage is misbehaving: hammering
                        // a failing device from the maintenance loop only
                        // amplifies the error storm.
                        let sleep_ms = match engine.sh.health.state() {
                            HealthState::Healthy => 5,
                            HealthState::Degraded { .. } => 50,
                            HealthState::ReadOnly { .. } => 200,
                        };
                        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                    }
                })
                .expect("spawn maintenance thread");
            threads.push(handle);
        }
    }

    /// Stop background threads and flush logs + dirty pages.
    pub fn shutdown(&self) -> Result<()> {
        let m = &self.sh.maint;
        {
            // Under the lock, so a concurrent spawn cannot re-arm the
            // flag between the store and the joins.
            let mut threads = m.threads.lock();
            m.background.store(false);
            for t in threads.drain(..) {
                let _ = t.join();
            }
        }
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_twice_starts_one_set_of_threads_and_shutdown_joins_it() {
        let e = Engine::new(crate::config::EngineConfig::default());
        e.spawn_background();
        e.spawn_background();
        assert_eq!(e.sh.maint.threads.lock().len(), PACK_THREADS);
        e.shutdown().unwrap();
        assert!(e.sh.maint.threads.lock().is_empty());
    }

    /// §VI.D's learner times how long the IMRS takes to grow by δ. Pack
    /// holds utilization on the steady line, so the learner reads growth
    /// gross of what pack moved out: Ʈ still re-learns, to about what a
    /// learner measures from the same stream with pack idle.
    #[test]
    fn tsf_relearns_while_pack_holds_the_line() {
        use crate::catalog::TableOpts;
        use crate::config::{EngineConfig, EngineMode};
        use crate::tsf::RELEARN_TXNS;
        // One single-row insert per transaction, a maintenance tick
        // every 16 of them.
        let run = |pack_enabled: bool, rows: u64| {
            let e = Engine::new(EngineConfig {
                mode: EngineMode::IlmOn,
                imrs_budget: 1 << 20,
                imrs_chunk_size: 128 << 10,
                buffer_frames: 1024,
                steady_utilization: 0.60,
                pack_enabled,
                maintenance_interval_txns: 16,
                ..Default::default()
            });
            let t = e
                .create_table(TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec())))
                .unwrap();
            for key in 0..rows {
                let mut row = key.to_be_bytes().to_vec();
                row.extend_from_slice(&[7; 96]);
                let mut txn = e.begin();
                e.insert(&mut txn, &t, &row).unwrap();
                e.commit(txn).unwrap();
            }
            (e.sh.tsf.learn_count(), e.sh.tsf.tau(), e.snapshot())
        };
        let (learned, idle_tau, snap) = run(false, 400);
        assert_eq!((learned, snap.rows_packed), (1, 0));
        // Past RELEARN_TXNS the IMRS has sat on the line for thousands of
        // transactions when the second learning cycle opens.
        let (learned, tau, snap) = run(true, RELEARN_TXNS + 1_000);
        assert!(snap.rows_packed > 0 && snap.imrs_utilization < 0.62);
        assert_eq!(learned, 2, "Ʈ did not re-learn while pack held the line");
        let off = (tau as f64 - idle_tau as f64).abs() / idle_tau as f64;
        assert!(off <= 0.25, "Ʈ {tau} against {idle_tau} with pack idle");
    }
}
