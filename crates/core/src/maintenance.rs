//! The maintenance actors — GC, the tuner (TSF learning and the tuning
//! window), pack, freeze and the checkpoint — and when they run: one
//! [`Engine::step`] each, a pass over all of them inline every
//! `maintenance_interval_txns` commits (fully deterministic, the
//! default) or on background threads.

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

/// Rows one GC step visits at most.
const GC_ROWS_PER_STEP: usize = 16_384;

/// One of the engine's background actors. [`Engine::step`] runs one;
/// [`Engine::run_maintenance`] runs each in [`Actor::ALL`] order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Actor {
    /// Version-chain GC: feeds the ILM queues, reclaims what the
    /// snapshot horizon has passed.
    Gc,
    /// TSF learning (§VI.D) and the partition tuning window (§V).
    Tuner,
    /// Pack (§VI): holds IMRS utilization at the steady line.
    Pack,
    /// HTAP freeze of cold page rows into columnar extents.
    Freeze,
    /// [`Engine::checkpoint`], once the logs have taken in enough since
    /// the last one (`crate::checkpoint::CHECKPOINT_LOG_MULTIPLE`).
    Checkpoint,
}

impl Actor {
    /// Every actor, in the order one maintenance pass runs them.
    pub const ALL: [Actor; 5] = [
        Actor::Gc,
        Actor::Tuner,
        Actor::Pack,
        Actor::Freeze,
        Actor::Checkpoint,
    ];
}

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

    /// One full maintenance pass: every [`Actor`] once, in
    /// [`Actor::ALL`] order. Public so experiment drivers can tick
    /// deterministically.
    pub fn run_maintenance(&self) {
        for actor in Actor::ALL {
            self.step(actor);
        }
    }

    /// Run one actor once, if its gate lets it. Returns the work it did:
    /// rows GC visited, 1 for a tuning window that ran, bytes packed,
    /// rows frozen, 1 for a checkpoint that completed. The tuner, pack
    /// and freeze run only under `IlmOn`; pack, freeze and the
    /// checkpoint write the logs and the page store, so a read-only
    /// engine skips them (GC and the tuner are purely in-memory).
    pub fn step(&self, actor: Actor) -> u64 {
        let sh = &self.sh;
        let ilm = sh.cfg.mode == EngineMode::IlmOn;
        match actor {
            Actor::Gc => {
                let oldest = sh.txns.oldest_active_snapshot();
                let gc_start = sh.obs.start();
                let report = sh.gc.tick(
                    &sh.store,
                    |p| sh.catalog.partition(p),
                    &sh.ridmap,
                    oldest,
                    || sh.clock.now(),
                    GC_ROWS_PER_STEP,
                );
                // Quarantined version nodes / fragments and side-store
                // images are reclaimed once the snapshot horizon has
                // passed them — no registered reader can still be
                // standing on any of it.
                sh.store.reclaim(oldest);
                sh.side.retire(oldest, None, &sh.ridmap);
                sh.obs.record_since(OpClass::GcPass, gc_start);
                report.processed
            }
            Actor::Tuner if ilm => {
                let committed = sh.txns.committed_count();
                // §VI.D learns how fast the IMRS fills. Pack holds
                // utilization at the steady line every tick, so the
                // learner reads it gross of what pack has moved out.
                let packed: u64 = sh
                    .catalog
                    .tables()
                    .iter()
                    .flat_map(|t| &t.partitions)
                    .map(|p| p.metrics.bytes_packed.load())
                    .sum();
                let gross =
                    (sh.store.used_bytes() + packed) as f64 / sh.store.budget().max(1) as f64;
                sh.tsf.observe(gross, sh.clock.now(), committed);
                u64::from(
                    sh.tuner
                        .maybe_run(&sh.cfg, committed, &sh.catalog, &sh.store),
                )
            }
            Actor::Pack if ilm && sh.health.check_writable().is_ok() => {
                crate::pack::pack_tick(self)
            }
            // Freeze steps after pack so the rows pack just landed on
            // pages are freeze candidates on a later tick, once cold.
            Actor::Freeze if ilm && sh.health.check_writable().is_ok() => {
                crate::freeze::freeze_tick(self)
            }
            Actor::Checkpoint if sh.health.check_writable().is_ok() && self.checkpoint_due() => {
                u64::from(self.checkpoint().is_ok())
            }
            Actor::Tuner | Actor::Pack | Actor::Freeze | Actor::Checkpoint => 0,
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
    use crate::catalog::TableOpts;
    use crate::config::EngineConfig;

    /// An engine whose maintenance runs only when a test steps it: a
    /// 1 MiB IMRS the workload outgrows, freeze on, latency off so that
    /// snapshots hold counters only.
    fn manual(mode: EngineMode) -> Engine {
        Engine::new(EngineConfig {
            mode,
            imrs_budget: 1 << 20,
            imrs_chunk_size: 128 << 10,
            buffer_frames: 1024,
            steady_utilization: 0.50,
            tuning_window_txns: 256,
            // Reuse per row stays below this, so pack bypasses the TSF.
            low_reuse_threshold: 4.0,
            maintenance_interval_txns: u64::MAX / 2,
            freeze_enabled: true,
            freeze_min_rows: 8,
            obs_latency: false,
            ..Default::default()
        })
    }

    /// Seeded single-threaded DML, one 128–639-byte row per transaction:
    /// 5 in 8 insert, 2 in 8 update, 1 in 8 delete. `tick(e, i)` runs
    /// after every 32nd commit `i`.
    fn workload(e: &Engine, txns: u64, mut tick: impl FnMut(&Engine, u64)) {
        let t = e
            .create_table(TableOpts::new("t", Arc::new(|r: &[u8]| r[..8].to_vec())))
            .unwrap();
        let row = |key: u64, s: u64| {
            let mut row = key.to_be_bytes().to_vec();
            row.resize(128 + (s % 512) as usize, s as u8);
            row
        };
        let mut live: Vec<u64> = Vec::new();
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for i in 1..=txns {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let at = (s >> 16) as usize % live.len().max(1);
            let mut txn = e.begin();
            match (s >> 8) % 8 {
                5 | 6 if !live.is_empty() => {
                    let key = live[at];
                    assert!(e
                        .update(&mut txn, &t, &key.to_be_bytes(), &row(key, s))
                        .unwrap());
                }
                7 if !live.is_empty() => {
                    let key = live.swap_remove(at);
                    assert!(e.delete(&mut txn, &t, &key.to_be_bytes()).unwrap());
                }
                _ => {
                    e.insert(&mut txn, &t, &row(i, s)).unwrap();
                    live.push(i);
                }
            }
            e.commit(txn).unwrap();
            if i % 32 == 0 {
                tick(e, i);
            }
        }
    }

    /// GC and the tuner every tick, one pack step at commit 3 008: by
    /// the end some rows are on pages (freeze has candidates) and the
    /// IMRS is above the steady line again (pack has work).
    fn backlog(mode: EngineMode) -> Engine {
        let e = manual(mode);
        workload(&e, 4_000, |e, i| {
            e.step(Actor::Gc);
            e.step(Actor::Tuner);
            if i == 3_008 {
                e.step(Actor::Pack);
            }
        });
        e
    }

    #[test]
    fn stepping_every_actor_is_one_maintenance_pass() {
        let passes = manual(EngineMode::IlmOn);
        workload(&passes, 4_000, |e, _| e.run_maintenance());
        let steps = manual(EngineMode::IlmOn);
        workload(&steps, 4_000, |e, _| {
            for actor in Actor::ALL {
                e.step(actor);
            }
        });
        let snap = passes.snapshot();
        assert!(snap.gc_bytes_freed > 0 && snap.tuning_windows > 0);
        assert!(snap.rows_packed > 0 && snap.rows_frozen > 0);
        assert_eq!(snap.to_json(), steps.snapshot().to_json());
    }

    #[test]
    fn pack_and_freeze_steps_change_nothing_on_a_read_only_engine() {
        // The same history on a writable engine: both actors have work.
        let writable = backlog(EngineMode::IlmOn);
        assert!(writable.step(Actor::Pack) > 0);
        assert!(writable.step(Actor::Freeze) > 0);

        let e = backlog(EngineMode::IlmOn);
        let _ = e.sh.health.fail_stop::<()>(
            "test",
            btrim_common::BtrimError::Io(std::io::Error::other("device gone")),
        );
        let before = e.snapshot().to_json();
        assert_eq!(e.step(Actor::Pack), 0);
        assert_eq!(e.step(Actor::Freeze), 0);
        assert_eq!(e.snapshot().to_json(), before);
    }

    #[test]
    fn only_gc_steps_outside_ilm_on() {
        for mode in [EngineMode::IlmOff, EngineMode::PageOnly] {
            let e = backlog(mode);
            let before = e.snapshot().to_json();
            for actor in [Actor::Tuner, Actor::Pack, Actor::Freeze] {
                assert_eq!(e.step(actor), 0, "{actor:?} stepped under {mode:?}");
            }
            assert_eq!(e.snapshot().to_json(), before, "{mode:?}");
        }
    }

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
        // One single-row insert per transaction; every 16 of them, one
        // step of each of `actors`.
        let run = |actors: &[Actor], rows: u64| {
            let e = Engine::new(EngineConfig {
                mode: EngineMode::IlmOn,
                imrs_budget: 1 << 20,
                imrs_chunk_size: 128 << 10,
                buffer_frames: 1024,
                steady_utilization: 0.60,
                maintenance_interval_txns: u64::MAX / 2,
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
                if (key + 1) % 16 == 0 {
                    for &actor in actors {
                        e.step(actor);
                    }
                }
            }
            (e.sh.tsf.learn_count(), e.sh.tsf.tau(), e.snapshot())
        };
        // Pack is held off by never stepping it.
        let (learned, idle_tau, snap) = run(&[Actor::Gc, Actor::Tuner], 400);
        assert_eq!((learned, snap.rows_packed), (1, 0));
        // Past RELEARN_TXNS the IMRS has sat on the line for thousands of
        // transactions when the second learning cycle opens.
        let (learned, tau, snap) = run(&Actor::ALL, RELEARN_TXNS + 1_000);
        assert!(snap.rows_packed > 0 && snap.imrs_utilization < 0.62);
        assert_eq!(learned, 2, "Ʈ did not re-learn while pack held the line");
        let off = (tau as f64 - idle_tau as f64).abs() / idle_tau as f64;
        assert!(off <= 0.25, "Ʈ {tau} against {idle_tau} with pack idle");
    }
}
