//! One seeded schedule explorer over one reference model.
//!
//! The reference is a versioned map: per key, its committed history,
//! each version visible to a snapshot by one predicate over
//! `(begin, end, snapshot)` ([`visible`], the `is_tuple_visible` idiom).
//! The steps are DML, commit and abort from two logical clients, held
//! snapshots, `Engine::step(actor)` for each [`Actor`], a pack to the
//! fixpoint, `checkpoint()`, a power cut (now, at device op `k`, or
//! after `n` log flushes) and a reboot, which may itself be cut inside
//! its first recovery. One [`Power`] switch covers the disk and both
//! logs; the logs are [`VolatileLog`]s, so a cut loses their unflushed
//! tails. The disk is a [`MemDisk`] or a `FileDisk`.
//!
//! A [`FaultPlan`] adds device faults to the first boot: transient
//! read, write and sync errors, a torn page write, partial and torn log
//! appends, a log that dies. Under one, an engine call may fail with a
//! typed error: the step's transaction is rolled back, a failed commit
//! may or may not survive the next reboot (all of it or none), and a
//! check skips a read that failed. Nothing else is excused.
//!
//! One client runs at a time. [`Step::During`] runs a step and, inside
//! its first syslogs flush, hands control over: the other steps run to
//! completion on a second thread, which is joined before the paused
//! flush completes (when no flush pauses, they run after the step). A
//! step that would wait on what the paused one holds (its row locks,
//! the barrier or the move gate in flight) is not enabled there; one
//! that blocks anyway fails the schedule.
//!
//! Four checks run after every step (while the power is on) and every
//! reboot: every read path matches the model at every held snapshot;
//! `locate` finds one home per key, and each tier holds exactly the
//! copies the RID-Map names; acknowledged commits survive a reboot, each
//! transaction whole or not at all; a second reboot changes nothing. A
//! reboot also validates the engine's JSON export. Schedules are
//! deterministic: the same seed gives the same steps, outcomes and
//! [`Explorer::digest`]. Three random mixes draw them: the general one
//! ([`explore`]), a freezing one and a faulted one, which draws a fault
//! plan per seed (both in `tests/explorer.rs`). `EXPLORER_TRACE=1`
//! prints each step and its outcome.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use btrim::catalog::{FieldKind, RowLayout, TableDesc, TableOpts};
use btrim::pack::{pack_cycle, PackLevel};
use btrim::{Actor, Engine, EngineConfig, EngineMode, RowId, RowLocation, ScanSpec};
use btrim::{SnapshotTxn, Transaction, TxnId};
use btrim_faults::{FaultDisk, FaultLog, FaultPlan, FaultState};
use btrim_pagestore::{DiskBackend, MemDisk};
use btrim_wal::{LogSink, LogWriter, PageLogRecord};

use super::{file_disk, PausableDisk, Power, VolatileLog};

/// Every stage's tables: name, and whether it may use the IMRS. `aux`
/// is created first, so its partition packs first.
pub const TABLES: [(&str, bool); 3] = [("aux", true), ("hot", true), ("cold", false)];
pub const AUX: usize = 0;
pub const HOT: usize = 1;
pub const COLD: usize = 2;

/// A row: key (big-endian), value, and a string of `pad` bytes.
pub fn row(key: u64, val: u64, pad: usize) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&val.to_le_bytes());
    r.extend_from_slice(&(pad as u32).to_le_bytes());
    r.resize(r.len() + pad, 0x5A);
    r
}

fn key_of(image: &[u8]) -> u64 {
    u64::from_be_bytes(image[..8].try_into().unwrap())
}

fn val_of(image: &[u8]) -> u64 {
    u64::from_le_bytes(image[8..16].try_into().unwrap())
}

/// A version is visible to `snapshot` from its `begin` until the next
/// version's (`end`).
fn visible(begin: u64, end: u64, snapshot: u64) -> bool {
    begin <= snapshot && snapshot < end
}

/// The engine every stage runs: `mode`, durable commits, freeze on,
/// rows moving only when a step says so.
pub fn config(mode: EngineMode) -> EngineConfig {
    EngineConfig {
        mode,
        imrs_budget: 512 * 1024,
        imrs_chunk_size: 64 * 1024,
        buffer_frames: 64,
        maintenance_interval_txns: u64::MAX / 2,
        durable_commits: true,
        freeze_enabled: true,
        freeze_min_rows: 2,
        freeze_max_rows: 64,
        ..Default::default()
    }
}

fn schema(engine: &Engine) -> btrim::Result<()> {
    for (name, imrs) in TABLES {
        let layout = RowLayout::new(&[
            ("k_hi", FieldKind::BeU32),
            ("k_lo", FieldKind::BeU32),
            ("val", FieldKind::U64),
            ("pad", FieldKind::Str),
        ]);
        let mut opts = TableOpts::new(name, Arc::new(|r: &[u8]| r[..8].to_vec()));
        opts = opts.with_layout(layout);
        opts.imrs_enabled = imrs;
        let table = engine.create_table(opts)?;
        engine.create_secondary_index(&table, "by_byte", Arc::new(|r: &[u8]| r[8..9].to_vec()))?;
    }
    Ok(())
}

fn table(e: &Engine, t: usize) -> Arc<TableDesc> {
    e.table(TABLES[t].0).unwrap()
}

fn locate(e: &Engine, (t, k): Key) -> Option<RowLocation> {
    e.locate(&table(e, t), &k.to_be_bytes()).unwrap()
}

/// Whether `plan` injects a device fault besides the power switch.
fn injects(plan: &FaultPlan) -> bool {
    let odds = plan.read_error_prob + plan.write_error_prob + plan.sync_error_prob;
    odds + plan.partial_append_prob > 0.0 && plan.error_budget > 0
        || plan.torn_write_at.is_some()
        || plan.torn_batch_at.is_some()
        || plan.fail_appends_after.is_some()
}

/// What a read returned; under a fault plan (`faults`) a typed error
/// skips it.
fn served<T>(faults: bool, label: &str, got: btrim::Result<T>) -> Option<T> {
    got.map_err(|err| assert!(faults, "{label}: {err}")).ok()
}

#[derive(Clone, Debug)]
pub enum Step {
    /// Client `c` begins (a DML or a read begins it too).
    Begin(usize),
    /// `(client, table, key, value, pad)`
    Insert(usize, usize, u64, u64, usize),
    Update(usize, usize, u64, u64, usize),
    /// `update_rmw` adding to the latest committed value.
    Rmw(usize, usize, u64, u64),
    Delete(usize, usize, u64),
    Get(usize, usize, u64),
    Commit(usize),
    Abort(usize),
    /// Hold a snapshot; release the oldest held one.
    Snap,
    Release,
    Act(Actor),
    /// GC, then pack until nothing is left to pack.
    PackAll,
    Checkpoint,
    /// Run the first; inside its first syslogs flush, the rest.
    During(Box<Step>, Vec<Step>),
    /// The same, inside its first page write (a checkpoint's flush
    /// loop) — the page being written stays latched meanwhile.
    DuringWrite(Box<Step>, Vec<Step>),
    Cut,
    CutIn(u64),
    CutAfterFlushes(u64),
}

/// What a step did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Device barriers on (sysimrslogs, syslogs) during the step.
    pub flushes: (u64, u64),
    /// What a read (or `update_rmw`) returned.
    pub read: Option<Vec<u8>>,
    /// Whether a `During` step's flush paused.
    pub paused: bool,
}

type Key = (usize, u64);
/// A row and an image of it (`None`: deleted).
type Image = (RowId, Option<Vec<u8>>);
/// What read paths returned, by path.
type Reads = Vec<(&'static str, Option<Vec<u8>>)>;

#[derive(Clone, Debug)]
struct Version {
    begin: u64,
    rid: RowId,
    image: Option<Vec<u8>>,
}

#[derive(Default)]
struct Client {
    txn: Option<Transaction>,
    /// A snapshot opened with the transaction: both read at `at`.
    snap: Option<SnapshotTxn>,
    at: u64,
    writes: BTreeMap<Key, Image>,
}

impl Drop for Client {
    /// A schedule may end (or fail) with a transaction open; the engine
    /// goes with it.
    fn drop(&mut self) {
        std::mem::forget(self.txn.take());
    }
}

/// The model, and the clients and snapshots reading it.
#[derive(Default)]
struct World {
    /// Committed history per key, oldest first.
    keys: BTreeMap<Key, Vec<Version>>,
    /// Commits so far: the snapshot a transaction begun now reads.
    seq: u64,
    /// Commits up to here are durable (acknowledged under
    /// `durable_commits`, or covered by barriers on both logs) — but
    /// for the `unsure` ones.
    durable: u64,
    /// Commits whose `commit` failed: until a reboot, they may or may
    /// not have reached the media.
    unsure: BTreeSet<u64>,
    clients: [Client; 2],
    held: Vec<(u64, SnapshotTxn)>,
    durable_commits: bool,
}

impl World {
    fn at(&self, key: Key, snapshot: u64) -> Option<&Version> {
        let history = self.keys.get(&key)?;
        let end = |i: usize| history.get(i + 1).map_or(u64::MAX, |n| n.begin);
        let visible_at = |&i: &usize| visible(history[i].begin, end(i), snapshot);
        (0..history.len()).find(visible_at).map(|i| &history[i])
    }

    fn latest(&self, key: Key) -> Option<&Version> {
        self.keys.get(&key)?.last()
    }

    /// What reader `c` (`None`: a snapshot at `at`) sees of `key`: its
    /// own write, else its snapshot's version.
    fn view(&self, c: Option<usize>, key: Key, at: u64) -> Option<Image> {
        let own = c.and_then(|c| self.clients[c].writes.get(&key).cloned());
        own.or_else(|| self.at(key, at).map(|v| (v.rid, v.image.clone())))
    }

    /// Whether `key` was written (deleted, with `deletes`) after
    /// snapshot `at`, or is pending. Index entries are not versioned
    /// (DESIGN.md "Caveat — index visibility"): a delete unhooks a key
    /// at once, and a secondary entry follows every change, so a read
    /// through an index at such a snapshot may miss the row.
    fn changed_after(&self, key: Key, at: u64, deletes: bool) -> bool {
        let counts = |image: &Option<Vec<u8>>| !deletes || image.is_none();
        let mut pending = self.clients.iter().filter_map(|cl| cl.writes.get(&key));
        let history = self.keys.get(&key).map_or(&[][..], |h| &h[..]);
        pending.any(|(_, image)| counts(image))
            || history.iter().any(|v| v.begin > at && counts(&v.image))
    }

    /// Whether the client other than `c` has a pending write of `key`.
    fn locked(&self, c: usize, key: Key) -> bool {
        self.clients[1 - c].writes.contains_key(&key)
    }

    /// Take client `c`'s transaction, beginning one if it has none.
    fn txn(&mut self, e: &Engine, c: usize) -> Transaction {
        if self.clients[c].txn.is_none() {
            let (txn, snap) = (Some(e.begin()), Some(e.begin_snapshot()));
            let at = self.seq;
            self.clients[c] = Client {
                txn,
                snap,
                at,
                writes: BTreeMap::new(),
            };
        }
        self.clients[c].txn.take().unwrap()
    }

    /// End client `c`'s snapshot; hand over its transaction and writes.
    fn end(&mut self, e: &Engine, c: usize) -> (Option<Transaction>, BTreeMap<Key, Image>) {
        let client = &mut self.clients[c];
        if let Some(snap) = client.snap.take() {
            e.end_snapshot(snap);
        }
        (client.txn.take(), std::mem::take(&mut client.writes))
    }
}

/// Run a step that needs no reboot against `e`, keeping the model in
/// step. An engine error fails the schedule while the power is on,
/// unless `faults` planned one.
fn exec(e: &Engine, world: &Mutex<World>, step: &Step, power: &Power, faults: bool) -> Outcome {
    let mut out = Outcome::default();
    let fail = |what: String| {
        assert!(faults || power.off(), "{step:?}: {what}");
        if std::env::var_os("EXPLORER_TRACE").is_some() {
            eprintln!("  {step:?} failed: {what}");
        }
    };
    match *step {
        Step::Begin(c) => {
            let mut w = world.lock().unwrap();
            let txn = w.txn(e, c);
            w.clients[c].txn = Some(txn);
        }
        Step::Insert(c, t, k, ..)
        | Step::Update(c, t, k, ..)
        | Step::Rmw(c, t, k, _)
        | Step::Delete(c, t, k)
        | Step::Get(c, t, k) => {
            let (mut txn, view, latest, may_miss) = {
                let mut w = world.lock().unwrap();
                let (txn, at) = (w.txn(e, c), w.clients[c].at);
                let latest = w.clients[c].writes.get(&(t, k)).cloned();
                let latest = latest.or_else(|| w.latest((t, k)).map(|v| (v.rid, v.image.clone())));
                (
                    txn,
                    w.view(Some(c), (t, k), at),
                    latest,
                    w.changed_after((t, k), at, true),
                )
            };
            let (tab, key) = (table(e, t), k.to_be_bytes());
            let rid = view.as_ref().map(|v| v.0);
            let exists = view.as_ref().is_some_and(|v| v.1.is_some());
            let mut verdict = Ok(());
            let mut expect = |got: &dyn std::fmt::Debug, ok: bool| {
                if !ok {
                    verdict = Err(format!("{step:?}: got {got:?}, model {view:?}"));
                }
            };
            let written = match *step {
                Step::Insert(.., v, pad) => {
                    let image = row(k, v, pad);
                    e.insert(&mut txn, &tab, &image)
                        .map(|rid| Some((rid, Some(image))))
                }
                Step::Update(.., v, pad) => {
                    e.update(&mut txn, &tab, &key, &row(k, v, pad)).map(|done| {
                        expect(&done, done == exists);
                        done.then(|| (rid.unwrap(), Some(row(k, v, pad))))
                    })
                }
                Step::Rmw(.., add) => {
                    // Built on the latest commit, of a row the snapshot sees.
                    let bump = |old: &[u8]| row(k, val_of(old) + add, old.len() - 20);
                    let want = latest.clone().and_then(|v| v.1).filter(|_| exists);
                    let want = want.map(|old| bump(&old));
                    e.update_rmw(&mut txn, &tab, &key, bump).map(|new| {
                        expect(&new, new == want);
                        out.read = new.clone();
                        new.map(|new| (latest.unwrap().0, Some(new)))
                    })
                }
                Step::Delete(..) => e.delete(&mut txn, &tab, &key).map(|done| {
                    expect(&done, done == exists);
                    done.then(|| (rid.unwrap(), None))
                }),
                _ => e.get(&txn, &tab, &key).map(|got| {
                    let want = view.clone().and_then(|v| v.1);
                    expect(&got, got == want || got.is_none() && may_miss);
                    out.read = got;
                    None
                }),
            };
            let mut w = world.lock().unwrap();
            w.clients[c].txn = Some(txn);
            if let Err(msg) = verdict {
                drop(w);
                exec(e, world, &Step::Abort(c), power, faults);
                panic!("{msg}");
            }
            match written {
                Ok(write) => w.clients[c]
                    .writes
                    .extend(write.map(|write| ((t, k), write))),
                Err(err) => {
                    e.abort(w.end(e, c).0.unwrap());
                    fail(format!("{err}"));
                }
            }
        }
        Step::Commit(c) | Step::Abort(c) => {
            let (txn, seq, wrote) = {
                let mut w = world.lock().unwrap();
                let (txn, writes) = w.end(e, c);
                // A commit counts in the model before it returns: a
                // reader that begins while it is paused in a flush sees
                // it, as the engine's readers do.
                let wrote = matches!(step, Step::Commit(_)) && !writes.is_empty();
                if wrote {
                    w.seq += 1;
                    let begin = w.seq;
                    for (key, (rid, image)) in writes {
                        w.keys
                            .entry(key)
                            .or_default()
                            .push(Version { begin, rid, image });
                    }
                }
                (txn, w.seq, wrote)
            };
            match (txn, step) {
                (Some(txn), Step::Abort(_)) => e.abort(txn),
                (Some(txn), _) => {
                    let done = e.commit(txn);
                    let mut w = world.lock().unwrap();
                    match done {
                        Ok(_) if w.durable_commits => w.durable = w.durable.max(seq),
                        Ok(_) => {}
                        Err(err) => {
                            w.unsure.extend(wrote.then_some(seq));
                            drop(w);
                            fail(format!("{err}"));
                        }
                    }
                }
                (None, _) => {}
            }
        }
        Step::Snap => {
            let mut w = world.lock().unwrap();
            let at = w.seq;
            w.held.push((at, e.begin_snapshot()));
        }
        Step::Release => {
            let mut w = world.lock().unwrap();
            if !w.held.is_empty() {
                e.end_snapshot(w.held.remove(0).1);
            }
        }
        Step::Act(actor) => {
            e.step(actor);
        }
        Step::PackAll => {
            e.step(Actor::Gc);
            while pack_cycle(e, PackLevel::Aggressive) > 0 {}
        }
        Step::Checkpoint => {
            if let Err(err) = e.checkpoint() {
                fail(format!("{err}"));
            }
        }
        Step::Cut => power.faults.crash_now(),
        Step::CutIn(k) => power.faults.fail_stop_in(k),
        Step::CutAfterFlushes(n) => power.cut_after_flushes.store(n, Ordering::SeqCst),
        Step::During(..) | Step::DuringWrite(..) => unreachable!("{step:?} is the explorer's"),
    }
    out
}

/// What may run inside a flush (or page write) paused by `first`
/// without waiting on what it holds: a committer's row locks (a pack or
/// freeze batch holds some too, so no writes inside one), the log
/// barrier in flight, the move gate (a thaw waits for it).
fn enabled_inside(w: &World, e: &Engine, first: &Step, step: &Step) -> bool {
    let paused_by = match *first {
        Step::Commit(c) => Some(c),
        _ => None,
    };
    let writes = matches!(first, Step::Commit(_) | Step::Checkpoint);
    let other = |s: usize| paused_by != Some(s);
    let free = |key: Key| !paused_by.is_some_and(|p| w.locked(1 - p, key));
    match *step {
        Step::Get(s, ..) | Step::Abort(s) | Step::Begin(s) => other(s),
        Step::Insert(s, t, k, ..) => other(s) && free((t, k)),
        Step::Update(s, t, k, ..) | Step::Rmw(s, t, k, _) | Step::Delete(s, t, k) => {
            // A row whose home a fault hid may be frozen.
            let at = e.locate(&table(e, t), &k.to_be_bytes());
            let frozen = at.map_or(true, |at| matches!(at, Some(RowLocation::Frozen(..))));
            writes && other(s) && !frozen && free((t, k))
        }
        Step::Commit(s) => other(s) && (!w.durable_commits || w.clients[s].writes.is_empty()),
        Step::Cut | Step::CutIn(_) => true,
        _ => false,
    }
}

/// An engine on `disk` and `logs` under `power`: a fresh database, or
/// (`recover`) what recovery makes of the media.
fn boot(
    cfg: &EngineConfig,
    disk: &Arc<PausableDisk>,
    power: &Power,
    logs: &(Arc<VolatileLog>, Arc<VolatileLog>),
    recover: bool,
) -> btrim::Result<Engine> {
    let faults = &power.faults;
    let disk: Arc<dyn DiskBackend> = Arc::new(FaultDisk::new(disk.clone(), faults.clone()));
    let syslog = Arc::new(FaultLog::new(logs.0.clone(), faults.clone()));
    let imrslog = Arc::new(FaultLog::new(logs.1.clone(), faults.clone()));
    if recover {
        return Engine::recover(cfg.clone(), disk, syslog, imrslog, schema);
    }
    let engine = Engine::with_devices(cfg.clone(), disk, syslog, imrslog);
    schema(&engine)?;
    Ok(engine)
}

pub struct Explorer {
    pub engine: Arc<Engine>,
    cfg: EngineConfig,
    /// Device faults besides the power switch, until the first reboot.
    plan: FaultPlan,
    /// The first boot's fault state: what the plan injected.
    pub planned: Arc<FaultState>,
    world: Arc<Mutex<World>>,
    disk: Arc<PausableDisk>,
    pub power: Arc<Power>,
    /// `(syslogs, sysimrslogs)`
    pub logs: (Arc<VolatileLog>, Arc<VolatileLog>),
    digest: DefaultHasher,
    /// Run the checks after each step (a stage may load without them).
    pub checked: bool,
}

impl Explorer {
    pub fn new(cfg: EngineConfig) -> Explorer {
        Explorer::with_faults(cfg, FaultPlan::default())
    }

    pub fn with_faults(cfg: EngineConfig, plan: FaultPlan) -> Explorer {
        Explorer::on_disk(cfg, plan, Arc::new(MemDisk::new()))
    }

    pub fn on_disk(cfg: EngineConfig, plan: FaultPlan, disk: Arc<dyn DiskBackend>) -> Explorer {
        let power = Power::new(plan.clone());
        let world = World {
            durable_commits: cfg.durable_commits,
            ..World::default()
        };
        let (disk, logs) = (
            Arc::new(PausableDisk::new(disk)),
            (VolatileLog::new(&power), VolatileLog::new(&power)),
        );
        Explorer {
            engine: Arc::new(boot(&cfg, &disk, &power, &logs, false).unwrap()),
            world: Arc::new(Mutex::new(world)),
            digest: DefaultHasher::new(),
            checked: true,
            planned: power.faults.clone(),
            cfg,
            plan,
            disk,
            power,
            logs,
        }
    }

    /// Barriers so far on (sysimrslogs, syslogs).
    pub fn flushes(&self) -> (u64, u64) {
        (self.logs.1.flushes(), self.logs.0.flushes())
    }

    /// Page writes that reached the disk so far.
    pub fn page_writes(&self) -> u64 {
        self.disk.writes()
    }

    pub fn home(&self, t: usize, k: u64) -> Option<RowLocation> {
        locate(&self.engine, (t, k))
    }

    /// The id of client `c`'s open transaction.
    pub fn txn_id(&self, c: usize) -> TxnId {
        self.world.lock().unwrap().clients[c]
            .txn
            .as_ref()
            .unwrap()
            .id()
    }

    /// The value of `t`/`k` a snapshot taken now reads.
    pub fn value(&self, t: usize, k: u64) -> Option<u64> {
        let snap = self.engine.begin_snapshot();
        let got = self
            .engine
            .get_snapshot(&snap, &table(&self.engine, t), &k.to_be_bytes());
        self.engine.end_snapshot(snap);
        got.unwrap().map(|image| val_of(&image))
    }

    /// Rows of table `t` per tier, by `locate`: `[imrs, page, frozen]`.
    pub fn homes(&self, t: usize) -> [u64; 3] {
        let keys: Vec<Key> = self.world.lock().unwrap().keys.keys().copied().collect();
        let mut homes = [0; 3];
        for key in keys.into_iter().filter(|key| key.0 == t) {
            tally(&mut homes, locate(&self.engine, key));
        }
        homes
    }

    /// syslogs, decoded.
    pub fn syslog(&self) -> Vec<(btrim_common::Lsn, PageLogRecord)> {
        LogWriter::<PageLogRecord>::new(self.logs.0.clone())
            .read_all()
            .unwrap()
    }

    /// A digest of every step run and what it did.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Acknowledged single-row inserts of `(key, value)` into `t`.
    pub fn load(&mut self, t: usize, rows: impl IntoIterator<Item = (u64, u64)>) {
        for (k, v) in rows {
            self.run_all([Step::Insert(0, t, k, v, 0), Step::Commit(0)]);
        }
    }

    pub fn run_all(&mut self, steps: impl IntoIterator<Item = impl Borrow<Step>>) {
        for step in steps {
            self.run(step.borrow().clone());
        }
    }

    /// Run one step, then the checks.
    pub fn run(&mut self, step: Step) -> Outcome {
        let before = self.flushes();
        let touched = self.touched(&step);
        let faults = injects(&self.plan);
        let mut out = match &step {
            Step::During(first, rest) => self.during(first, rest.clone(), faults, false),
            Step::DuringWrite(first, rest) => self.during(first, rest.clone(), faults, true),
            step => exec(&self.engine, &self.world, step, &self.power, faults),
        };
        let after = self.flushes();
        out.flushes = (after.0 - before.0, after.1 - before.1);
        let line = format!("{step:?} {out:?}");
        if std::env::var_os("EXPLORER_TRACE").is_some() {
            eprintln!("{line}");
        }
        line.hash(&mut self.digest);
        if !self.power.off() {
            let settled = |l: &VolatileLog| l.durable_records() == l.record_count();
            if settled(&self.logs.0) && settled(&self.logs.1) {
                let mut w = self.world.lock().unwrap();
                w.durable = w.seq;
            }
            if self.checked {
                self.check(
                    &format!("after {step:?}"),
                    false,
                    &touched.0,
                    touched.1.as_deref(),
                );
            }
        }
        out
    }

    /// What `step` may change: index bytes, and the keys it writes (or
    /// a transaction it ends wrote); `None`: any key.
    fn touched(&self, step: &Step) -> (Vec<u8>, Option<Vec<Key>>) {
        let w = self.world.lock().unwrap();
        // The index byte of the committed image a write replaces.
        let was = |key: Key| Some(w.latest(key)?.image.as_ref()?[8]);
        match *step {
            Step::Insert(_, t, k, v, _) | Step::Update(_, t, k, v, _) => {
                let bytes = [Some(v as u8), was((t, k))];
                (bytes.into_iter().flatten().collect(), Some(vec![(t, k)]))
            }
            Step::Rmw(_, t, k, _) | Step::Delete(_, t, k) => {
                (was((t, k)).into_iter().collect(), Some(vec![(t, k)]))
            }
            Step::Get(_, t, k) => (vec![], Some(vec![(t, k)])),
            Step::Commit(c) | Step::Abort(c) => {
                let writes = &w.clients[c].writes;
                let bytes = writes.iter().flat_map(|(&key, (_, image))| {
                    [image.as_ref().map(|image| image[8]), was(key)]
                });
                (
                    bytes.flatten().collect(),
                    Some(writes.keys().copied().collect()),
                )
            }
            Step::Begin(_) | Step::Snap | Step::Release => (vec![], Some(vec![])),
            _ => (vec![], None),
        }
    }

    fn during(&mut self, first: &Step, rest: Vec<Step>, faults: bool, write: bool) -> Outcome {
        for step in &rest {
            let ok = enabled_inside(&self.world.lock().unwrap(), &self.engine, first, step);
            assert!(ok, "{step:?} is not enabled inside {first:?}");
        }
        let (engine, world, power) = (self.engine.clone(), self.world.clone(), self.power.clone());
        let (paused, was_paused) = mpsc::channel();
        let inside = rest.clone();
        let pause = Box::new(move || {
            let (done, finished) = mpsc::channel();
            let second = std::thread::spawn(move || {
                for step in &inside {
                    exec(&engine, &world, step, &power, faults);
                }
                done.send(()).unwrap();
            });
            let ran = finished.recv_timeout(Duration::from_secs(60));
            paused.send(()).unwrap();
            ran.expect("a step inside the paused flush blocked or failed");
            second.join().unwrap();
        });
        if write {
            self.disk.pause_next_write(Some(pause));
        } else {
            self.logs.0.pause_next_flush(Some(pause));
        }
        let mut out = exec(&self.engine, &self.world, first, &self.power, faults);
        self.disk.pause_next_write(None);
        self.logs.0.pause_next_flush(None);
        out.paused = was_paused.try_recv().is_ok();
        if !out.paused {
            for step in &rest {
                exec(&self.engine, &self.world, step, &self.power, faults);
            }
        }
        out
    }

    /// Cut the power (if a step has not) and reboot twice from what the
    /// media kept: every survivor must be one the model allows — an
    /// acknowledged commit's image or a later one — and the second
    /// reboot must find exactly what the first did. Returns the page
    /// copies each recovery retired (the second none: it is for good).
    pub fn reboot(&mut self) -> [u64; 2] {
        self.crash();
        let retired = [1, 2].map(|n| {
            self.power.faults.crash_now();
            self.power_on();
            let label = format!("reboot {n}");
            let engine = boot(&self.cfg, &self.disk, &self.power, &self.logs, true);
            let engine = engine.unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            self.engine = Arc::new(engine);
            self.adopt_survivors(&label);
            self.check(&label, true, &[], None);
            let json = self.engine.snapshot().to_json();
            let valid = btrim::obs_json::validate(&json);
            valid.unwrap_or_else(|e| panic!("{label}: snapshot JSON: {e}"));
            self.engine.recovery_report().page_copies_retired
        });
        assert_eq!(retired[1], 0, "the second reboot retired page copies");
        format!("reboot {retired:?}").hash(&mut self.digest);
        retired
    }

    /// Boot from the media with the power cut `k` device ops into
    /// recovery, then cut it (if recovery finished first): a
    /// [`reboot`](Self::reboot) then starts from what this one left.
    /// Returns whether the cut fell inside recovery.
    pub fn cut_recovery_in(&mut self, k: u64) -> bool {
        self.crash();
        self.power_on();
        self.power.faults.fail_stop_in(k);
        let died = boot(&self.cfg, &self.disk, &self.power, &self.logs, true).is_err();
        self.power.faults.crash_now();
        format!("recovery cut at {k}: {died}").hash(&mut self.digest);
        died
    }

    /// Cut the power; what the clients held goes with the engine.
    fn crash(&mut self) {
        self.power.faults.crash_now();
        self.quiesce();
    }

    /// Abort the clients' transactions and end the held snapshots. With
    /// no snapshot left open, one GC step retires every stamped
    /// side-store entry, a failed commit's too (stamping queued it):
    /// only the pending stash of an abort whose undo failed may stay.
    fn quiesce(&mut self) {
        let mut w = self.world.lock().unwrap();
        for c in 0..2 {
            if let Some(txn) = w.end(&self.engine, c).0 {
                self.engine.abort(txn);
            }
        }
        for (_, snap) in std::mem::take(&mut w.held) {
            self.engine.end_snapshot(snap);
        }
        self.engine.step(Actor::Gc);
        let stamped = self.engine.side_store_stamped_entries();
        assert_eq!(stamped, 0, "stamped side-store entries outlived a GC step");
    }

    /// Power on, with no fault plan: the logs are what the media kept.
    fn power_on(&mut self) {
        let power = Power::new(FaultPlan::default());
        self.logs = (self.logs.0.reboot(&power), self.logs.1.reboot(&power));
        self.power = power;
        self.plan = FaultPlan::default();
    }

    /// Hold what recovery brought back to the model, then make it the
    /// model: per key, the newest durable version or any later one; per
    /// transaction, all of its images (or later ones) or none of them.
    fn adopt_survivors(&mut self, label: &str) {
        let e = &self.engine;
        let mut w = self.world.lock().unwrap();
        let (snap, txn) = (e.begin_snapshot(), e.begin());
        let mut scanned = 0;
        for t in 0..TABLES.len() {
            e.scan_range(&txn, &table(e, t), &[], None, |k, _, _| {
                let key = (t, key_of(k));
                assert!(w.keys.contains_key(&key), "{label}: {key:?} from nowhere");
                scanned += 1;
                true
            })
            .unwrap();
        }
        let (durable, unsure, mut live) = (w.durable, std::mem::take(&mut w.unsure), 0);
        let sure = |v: &Version| v.begin <= durable && !unsure.contains(&v.begin);
        // Per commit not yet durable (by its `begin`): the keys showing
        // its image, no other's, and the keys showing an older version.
        let mut commits: BTreeMap<u64, (Vec<Key>, Vec<Key>)> = BTreeMap::new();
        for (&(t, k), history) in w.keys.iter_mut() {
            let got = e
                .get_snapshot(&snap, &table(e, t), &k.to_be_bytes())
                .unwrap();
            let floor = history.iter().rposition(sure);
            let allowed = &history[floor.unwrap_or(0)..];
            let lost = floor.is_none() && got.is_none();
            // The commits whose image `got` is; 0: the key before its
            // first version, absent.
            let mut shows: Vec<u64> = (allowed.iter())
                .filter(|v| v.image == got)
                .map(|v| v.begin)
                .collect();
            shows.extend(lost.then_some(0));
            for v in allowed.iter().filter(|v| !sure(v)) {
                let (kept, older) = commits.entry(v.begin).or_default();
                if shows == [v.begin] {
                    kept.push((t, k));
                } else if shows.iter().all(|&b| b < v.begin) {
                    older.push((t, k));
                }
            }
            let at = allowed.iter().rposition(|v| v.image == got);
            assert!(
                at.is_some() || lost,
                "{label}: {t}/{k} is {got:?}, model {history:?}"
            );
            let survivor = at.map(|i| Version {
                begin: 0,
                ..allowed[i].clone()
            });
            *history = survivor.into_iter().collect();
            live += u64::from(got.is_some());
        }
        for (begin, (kept, older)) in commits {
            assert!(
                kept.is_empty() || older.is_empty(),
                "{label}: commit {begin} survived in part: {kept:?} kept it, {older:?} did not"
            );
        }
        w.keys
            .retain(|_, history| history.iter().any(|v| v.image.is_some()));
        w.durable = w.seq;
        assert_eq!(scanned, live, "{label}: scans vs point reads");
        e.commit(txn).unwrap();
        e.end_snapshot(snap);
    }

    /// The read and home checks. Point reads cover the keys `point`
    /// names (every key with `None`) and a window that rotates through
    /// the rest; the tables those keys are in are scanned whole, and
    /// their index bytes `touched` looked up. `exact`: at rest, each
    /// tier holds exactly the copies the RID-Map names (with no
    /// transaction open, a dead IMRS row may wait for GC).
    pub fn check(&self, label: &str, exact: bool, touched: &[u8], point: Option<&[Key]>) {
        let (e, faults) = (&self.engine, injects(&self.plan));
        let locate = |(t, k): Key| served(faults, label, e.locate(&table(e, t), &k.to_be_bytes()));
        let w = self.world.lock().unwrap();
        let fresh = (e.begin(), e.begin_snapshot());
        let mut readers: Vec<(Option<usize>, Option<&Transaction>, &SnapshotTxn, u64)> = vec![];
        for (c, cl) in w.clients.iter().enumerate() {
            if let (Some(txn), Some(snap)) = (&cl.txn, &cl.snap) {
                readers.push((Some(c), Some(txn), snap, cl.at));
            }
        }
        readers.push((None, Some(&fresh.0), &fresh.1, w.seq));
        readers.extend(w.held.iter().map(|(at, snap)| (None, None, snap, *at)));
        let mut keys: BTreeSet<Key> = w.keys.keys().copied().collect();
        keys.extend(w.clients.iter().flat_map(|cl| cl.writes.keys()));
        let keys: Vec<Key> = keys.into_iter().collect();
        let full = point.is_none() || keys.is_empty();
        let in_point = |t: &usize| point.is_none_or(|point| point.iter().any(|k| k.0 == *t));
        let tables: Vec<usize> = (0..TABLES.len()).filter(in_point).collect();
        let window = (self.digest.finish() as usize..)
            .take(4)
            .map(|i| keys[i % keys.len()]);
        let point: BTreeSet<Key> = match point {
            Some(point) if !full => point.iter().copied().chain(window).collect(),
            _ => keys.iter().copied().collect(),
        };
        // One RowId names one key.
        let mut rids = BTreeMap::new();
        for &key in &keys {
            let pending = w.clients.iter().find_map(|cl| cl.writes.get(&key));
            let rid = pending.map(|p| p.0).or_else(|| Some(w.latest(key)?.rid));
            let other = rid.and_then(|rid| rids.insert(rid, key));
            assert!(
                other.is_none(),
                "{label}: {rid:?} names {key:?} and {other:?}"
            );
        }
        // What each reader's key-addressed paths returned, per key: they
        // agree with each other even where a delete lets them miss.
        let mut by_key: BTreeMap<(usize, Key), Reads> = BTreeMap::new();
        let mut read =
            |r: Option<usize>, want: Option<&Vec<u8>>, got: Option<Vec<u8>>, key, at, path| {
                let missed = got.is_none() && w.changed_after(key, at, true);
                assert!(
                    got.as_ref() == want || missed,
                    "{label}: {path} {key:?} at {at}: {got:?}"
                );
                if let Some(r) = r {
                    by_key.entry((r, key)).or_default().push((path, got));
                }
            };
        for (r, &(c, txn, snap, at)) in readers.iter().enumerate() {
            for &key in keys.iter().filter(|key| point.contains(key)) {
                let (tab, k) = (table(e, key.0), key.1.to_be_bytes());
                let v = w.at(key, at);
                let want = v.and_then(|v| v.image.as_ref());
                // A snapshot does not see its reader's own write.
                let own = c.is_some_and(|c| w.clients[c].writes.contains_key(&key));
                if let Some(got) = served(faults, label, e.get_snapshot(snap, &tab, &k)) {
                    read((!own).then_some(r), want, got, key, at, "get_snapshot");
                }
                let by_rid = v.map(|v| e.read_row_snapshot(snap, &tab, v.rid));
                if let Some(got) = by_rid.and_then(|got| served(faults, label, got)) {
                    assert_eq!(got.as_ref(), want, "{label}: read_row_snapshot {key:?}");
                }
                let (Some(txn), Some((rid, want))) = (txn, w.view(c, key, at)) else {
                    continue;
                };
                if let Some(got) = served(faults, label, e.read_row(txn, &tab, rid, false)) {
                    assert_eq!(got, want, "{label}: read_row {key:?} by {c:?}");
                }
                // `get` of a page row may cache it (§IV), and a check
                // moves nothing: it reads every other row.
                let imrs = match e.config().mode {
                    EngineMode::PageOnly => false,
                    EngineMode::IlmOff => true,
                    EngineMode::IlmOn => TABLES[key.0].1,
                };
                let Some(home) = locate(key) else { continue };
                if !(imrs && matches!(home, Some(RowLocation::Page(..)))) {
                    if let Some(got) = served(faults, label, e.get(txn, &tab, &k)) {
                        read(Some(r), want.as_ref(), got, key, at, "get");
                    }
                    let moved = locate(key).is_some_and(|now| now != home);
                    assert!(!moved, "{label}: get moved {key:?} from {home:?}");
                }
            }
            for &t in &tables {
                let (tab, mut sum) = (table(e, t), (0u64, 0u128));
                let mut bytes: BTreeSet<u8> = touched.iter().copied().collect();
                for &key in keys.iter().filter(|k| k.0 == t) {
                    let Some(image) = w.at(key, at).and_then(|v| v.image.as_ref()) else {
                        continue;
                    };
                    sum = (sum.0 + 1, sum.1 + val_of(image) as u128);
                    if bytes.len() < touched.len() + 2 {
                        bytes.insert(image[8]);
                    }
                }
                let spec = ScanSpec {
                    filters: vec![],
                    sums: vec!["val".into()],
                };
                if let Some(scan) = served(faults, label, e.analytic_scan(snap, &tab, &spec)) {
                    let got = (scan.rows_matched, scan.sums[0]);
                    assert_eq!(got, sum, "{label}: analytic scan of {t}");
                }
                let Some(txn) = txn else { continue };
                let mut scanned = BTreeMap::new();
                let ran = e.scan_range(txn, &tab, &[], None, |k, _, image| {
                    scanned.insert((t, key_of(k)), image.to_vec());
                    true
                });
                let view = |key: Key| w.view(c, key, at).and_then(|v| v.1);
                if served(faults, label, ran).is_some() {
                    for &key in keys.iter().filter(|k| k.0 == t) {
                        let got = scanned.remove(&key);
                        read(Some(r), view(key).as_ref(), got, key, at, "scan_range");
                    }
                    let met = &scanned;
                    assert!(met.is_empty(), "{label}: scan_range by {c:?} met {met:?}");
                }
                // A secondary entry names a row whose image has its byte —
                // or one written since this snapshot.
                for b in bytes {
                    let got = e.get_by_index(txn, &tab, "by_byte", &[b]);
                    let Some(got) = served(faults, label, got) else {
                        continue;
                    };
                    let got: Vec<Vec<u8>> = got.into_iter().map(|r| r.1).collect();
                    for r in &got {
                        let key = (t, key_of(r));
                        let fits = r[8] == b || w.changed_after(key, at, false);
                        assert!(
                            fits && view(key).as_ref() == Some(r),
                            "{label}: by_byte {b}: {r:?}"
                        );
                    }
                    for &key in keys.iter().filter(|k| k.0 == t) {
                        let sure =
                            view(key).filter(|i| i[8] == b && !w.changed_after(key, at, false));
                        let lost = sure.filter(|image| !got.contains(image));
                        assert!(lost.is_none(), "{label}: by_byte {b} lost {key:?}");
                    }
                }
            }
        }
        for ((_, key), got) in &by_key {
            let agree = got.iter().all(|g| g.1 == got[0].1);
            assert!(agree, "{label}: read paths disagree on {key:?}: {got:?}");
        }
        // Homes: a key with a committed image and no pending delete
        // lives somewhere, and never at a tombstone.
        let (mut homes, mut hidden) = ([0u64; 3], false);
        for &key in &point {
            let Some(at) = locate(key) else {
                hidden = true;
                continue;
            };
            let pending = w
                .clients
                .iter()
                .find_map(|cl| Some(cl.writes.get(&key)?.1.is_some()));
            let committed = w.latest(key).is_some_and(|v| v.image.is_some());
            let homeless = at.is_none() && pending.unwrap_or(committed);
            let tomb = matches!(at, Some(RowLocation::Tombstone(..)));
            assert!(!homeless && !tomb, "{label}: {key:?} is at {at:?}");
            tally(&mut homes, at);
        }
        if !hidden && (exact || full && w.clients.iter().all(|cl| cl.txn.is_none())) {
            let mut extent_live = 0;
            e.extent_store()
                .for_each(|ext| extent_live += ext.live_count());
            let heaps = (0..TABLES.len()).flat_map(|t| table(e, t).partitions.clone());
            let heap_live = heaps.map(|p| p.heap.live_rows()).sum();
            let held = [e.snapshot().imrs_rows as u64, heap_live, extent_live];
            // A failed commit leaves the page slots its deletes kept:
            // they go only behind its `Commit` record.
            let pages = held[1] == homes[1] || !w.unsure.is_empty() && held[1] > homes[1];
            let imrs = held[0] == homes[0] || !exact && held[0] > homes[0];
            let ok = imrs && pages && held[2] == homes[2];
            assert!(
                ok,
                "{label}: [imrs, page, frozen] copies held {held:?}, named {homes:?}"
            );
        }
        drop(readers);
        e.abort(fresh.0);
        e.end_snapshot(fresh.1);
    }
}

/// The key a write step writes.
fn written(step: &Step) -> Option<Key> {
    match *step {
        Step::Insert(_, t, k, ..) | Step::Update(_, t, k, ..) => Some((t, k)),
        Step::Rmw(_, t, k, _) | Step::Delete(_, t, k) => Some((t, k)),
        _ => None,
    }
}

fn tally(homes: &mut [u64; 3], at: Option<RowLocation>) {
    match at {
        Some(RowLocation::Imrs) => homes[0] += 1,
        Some(RowLocation::Page(..)) => homes[1] += 1,
        Some(RowLocation::Frozen(..)) => homes[2] += 1,
        _ => {}
    }
}

/// Profile of a random schedule.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub steps: usize,
    pub keys: u64,
    /// Longest pad drawn: rows of 20 bytes to 20 + this, a quarter of
    /// them longer than 64.
    pub max_pad: usize,
    /// Power cuts and reboots among the steps.
    pub cuts: bool,
    /// Clients that take turns: 1 or 2.
    pub clients: usize,
}

/// Run the random schedule of `seed`: its engine mode, durable commits
/// and steps are all drawn from the seed, and under a fault `plan` cuts
/// inside recovery too; a faulted schedule of an odd seed runs on a
/// `FileDisk`. Returns the explorer, its last engine running.
pub fn explore(seed: u64, profile: Profile, plan: Option<FaultPlan>) -> Explorer {
    let mut rng = StdRng::seed_from_u64(seed);
    let modes = [
        EngineMode::IlmOn,
        EngineMode::IlmOn,
        EngineMode::PageOnly,
        EngineMode::IlmOff,
    ];
    let mode = modes[rng.gen_range(0..4)];
    let durable_commits = rng.gen_bool(0.5);
    let cfg = EngineConfig {
        durable_commits,
        ..config(mode)
    };
    let faulted = plan.is_some();
    let mut ex = match plan {
        None => Explorer::new(cfg),
        Some(plan) if seed % 2 == 1 => Explorer::on_disk(cfg, plan, file_disk()),
        Some(plan) => Explorer::with_faults(cfg, plan),
    };
    for _ in 0..profile.steps {
        for step in ex.draw(&mut rng, profile) {
            ex.run(step);
        }
        if ex.power.off() {
            if faulted && rng.gen_bool(0.25) {
                ex.cut_recovery_in(rng.gen_range(0..64));
            }
            ex.reboot();
        }
    }
    ex.quiesce();
    ex
}

impl Explorer {
    /// A client step drawn from `rng`.
    pub fn draw_client(&self, rng: &mut StdRng, p: Profile) -> Step {
        let c = rng.gen_range(0..p.clients);
        self.draw_client_step(rng, p, c, None)
    }

    /// A step of client `c` — one enabled inside the flush the step
    /// `inside` paused, when there is one. Updates and deletes go to
    /// rows nobody committed a change of since the client's snapshot.
    fn draw_client_step(
        &self,
        rng: &mut StdRng,
        p: Profile,
        c: usize,
        inside: Option<&Step>,
    ) -> Step {
        let w = self.world.lock().unwrap();
        let (t, k) = (rng.gen_range(0..TABLES.len()), rng.gen_range(0..p.keys));
        let long = rng.gen_bool(0.25);
        let pad = rng.gen_range(0..=if long { p.max_pad } else { p.max_pad.min(44) });
        let v = rng.gen_range(0..1_000);
        let (at, own) = (w.clients[c].at, w.clients[c].writes.contains_key(&(t, k)));
        let view = w.view(Some(c), (t, k), at).and_then(|v| v.1).is_some();
        let fresh = w.latest((t, k)).is_none_or(|v| v.begin <= at) || own;
        let latest = w.latest((t, k)).filter(|v| v.image.is_some());
        let step = match rng.gen_range(0..10) {
            _ if w.locked(c, (t, k)) => Step::Get(c, t, k),
            0..=2 if latest.is_none() && !view => Step::Insert(c, t, k, v, pad),
            3..=4 if view && fresh => Step::Update(c, t, k, v, pad),
            5 if view && fresh => Step::Delete(c, t, k),
            // On a row its snapshot sees: the tiers disagree on one it
            // does not (the IMRS refuses it, a page builds on it).
            6 if view && latest.is_some() => Step::Rmw(c, t, k, 1),
            7 if rng.gen_bool(0.5) => Step::Commit(c),
            8 if rng.gen_bool(0.2) => Step::Abort(c),
            _ => Step::Get(c, t, k),
        };
        match inside {
            Some(first) if !enabled_inside(&w, &self.engine, first, &step) => Step::Get(c, t, k),
            _ => step,
        }
    }

    fn draw(&self, rng: &mut StdRng, p: Profile) -> Vec<Step> {
        let c = rng.gen_range(0..p.clients);
        match rng.gen_range(0..100) {
            0..=69 => vec![self.draw_client_step(rng, p, c, None)],
            70..=79 => vec![Step::Commit(c)],
            80..=83 => vec![Step::Act(Actor::ALL[rng.gen_range(0..Actor::ALL.len())])],
            84 => vec![Step::PackAll],
            85 => vec![Step::Checkpoint],
            86..=87 => vec![Step::Snap],
            88..=89 => vec![Step::Release],
            90..=95 => {
                // A pack flushes nothing: it goes before a commit, whose
                // syslogs sync settles it.
                let (pack, first) = [
                    (false, Step::Commit(c)),
                    (false, Step::Checkpoint),
                    (true, Step::Commit(c)),
                    (false, Step::Act(Actor::Freeze)),
                ][rng.gen_range(0..4)]
                .clone();
                let mut rest: Vec<Step> = vec![];
                for _ in 0..rng.gen_range(1..4) {
                    let step = self.draw_client_step(rng, p, 1 - c, Some(&first));
                    // A durable commit of what an earlier step wrote
                    // would wait on the paused sync; a second write of
                    // one key was drawn against a model the first has
                    // not changed yet.
                    let wrote = rest.iter().any(|s| !matches!(s, Step::Get(..)));
                    let again =
                        written(&step).is_some_and(|k| rest.iter().any(|s| written(s) == Some(k)));
                    rest.push(match step {
                        Step::Commit(s) if self.cfg.durable_commits && wrote => {
                            Step::Get(s, HOT, 0)
                        }
                        _ if again => Step::Get(1 - c, HOT, 0),
                        step => step,
                    });
                }
                let during = Step::During(Box::new(first), rest);
                [pack.then_some(Step::PackAll), Some(during)]
                    .into_iter()
                    .flatten()
                    .collect()
            }
            _ if p.cuts => {
                let next = self.draw(rng, Profile { cuts: false, ..p });
                [
                    vec![Step::CutIn(rng.gen_range(0..40))],
                    next,
                    vec![Step::Cut],
                ]
                .concat()
            }
            _ => vec![Step::Get(c, HOT, 0)],
        }
    }
}
