//! The maintenance clock: when GC, TSF learning, the tuning window,
//! pack and freeze run — inline every `maintenance_interval_txns`
//! commits (fully deterministic, the default) or on background threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

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
    last_run: AtomicU64,
    /// Set while background threads are running (they exit when it
    /// clears); disables the inline (commit-path) hook so client
    /// transactions never pay for pack/GC work, as in the paper's
    /// deployment.
    background: AtomicBool,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Maintenance {
    pub fn new() -> Self {
        Maintenance {
            gate: Mutex::with_rank(parking_lot::lock_rank::ENGINE_STATE, ()),
            last_run: AtomicU64::new(0),
            background: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl Engine {
    /// Run one maintenance pass if due (inline deterministic mode).
    pub(crate) fn maybe_maintenance(&self) {
        let m = &self.sh.maint;
        if m.background.load(Ordering::Relaxed) {
            return; // background threads own maintenance
        }
        let committed = self.sh.txns.committed_count();
        let last = m.last_run.load(Ordering::Relaxed);
        if committed.saturating_sub(last) < self.sh.cfg.maintenance_interval_txns {
            return;
        }
        if let Some(_gate) = m.gate.try_lock() {
            m.last_run.store(committed, Ordering::Relaxed);
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
        // The memory arbiter runs in every mode (its no-op guard is the
        // unified budget, not ILM): window-boundary work only, never on
        // the DML path.
        if sh.cfg.arbiter_active() {
            sh.arbiter.maybe_run(
                &sh.cfg,
                sh.txns.committed_count(),
                &sh.catalog,
                &sh.store,
                &sh.cache,
            );
        }
        if sh.cfg.mode != EngineMode::IlmOn {
            return;
        }
        let committed = sh.txns.committed_count();
        sh.tsf
            .observe(sh.store.utilization(), sh.clock.now(), committed);
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
        m.background.store(true, Ordering::Relaxed);
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
                    while engine.sh.maint.background.load(Ordering::Relaxed) {
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
            m.background.store(false, Ordering::Relaxed);
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
}
