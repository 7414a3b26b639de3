//! The BTrim engine: ISUD execution over the hybrid store.
//!
//! Every row is addressed by a stable `RowId`; indexes map keys to
//! `RowId`s and the RID-Map resolves the physical home. The ILM rules
//! of §IV are applied inline:
//!
//! * new inserts go to the IMRS (no page-store footprint);
//! * a page-store row accessed through the unique (primary) index is
//!   considered hot — updates *migrate* it, selects *cache* it;
//! * per-partition enablement flags from the auto-tuner (§V) and the
//!   pack subsystem's reject-new backpressure (§VI.A) gate all of the
//!   above.
//!
//! Everything that is not DML has its own owner: [`crate::health`],
//! [`crate::checkpoint`], `crate::maintenance`, [`crate::recovery`].

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::{BtrimError, LogicalClock, PageId, Result, RowId, SlotId, Timestamp, TxnId};
use btrim_imrs::{ImrsStore, RidMap, RowLocation, RowOrigin, VersionOp, Visible};
use btrim_obs::{Obs, OpClass};
use btrim_pagestore::{BufferCache, DiskBackend, FrozenExtent, MemDisk};
use btrim_txn::{LockManager, LockMode, TxnHandle, TxnManager};
use btrim_wal::{ImrsLogRecord, LogSink, LogWriter, MemLog, PageLogRecord, RowOriginTag};

use crate::catalog::{Catalog, KeyExtractor, Partition, TableDesc, TableOpts};
use crate::checkpoint::Checkpointer;
use crate::config::{EngineConfig, EngineMode};
use crate::freeze::extent_row_bytes;
use crate::gc::GcRegistry;
use crate::health::Health;
use crate::logged;
use crate::maintenance::Maintenance;
use crate::metrics::CommitShapes;
use crate::movement::{relocate, MoveGate, To};
use crate::pack::PackState;
use crate::recovery::RecoveryReport;
use crate::sidestore::{SideImage, SideStore};
use crate::stats::EngineSnapshot;
use crate::tsf::TsfLearner;
use crate::tuner::{PartitionIlmState, Tuner};
use crate::txn_ctx::{IndexRef, Transaction, Write};

/// Everything shared between the engine facade, background threads, and
/// the pack/tuner/GC subsystems.
pub(crate) struct Shared {
    pub cfg: EngineConfig,
    pub cache: Arc<BufferCache>,
    pub store: ImrsStore,
    /// Shared with the store. An entry is a row's location and, while
    /// the row is in the IMRS, the row itself — the only row directory.
    pub ridmap: Arc<RidMap>,
    /// Before-image side store for page-resident rows (snapshot reads).
    pub side: SideStore,
    pub catalog: Catalog,
    /// Commits by the logs they wrote (see [`CommitShapes`]).
    pub commit_shapes: CommitShapes,
    pub txns: TxnManager,
    pub locks: LockManager,
    pub clock: Arc<LogicalClock>,
    pub syslog: LogWriter<PageLogRecord>,
    pub imrslog: LogWriter<ImrsLogRecord>,
    /// What every syslogs sync closes against the moves that never
    /// flush: cache, migrate, pack, thaw (see `movement.rs`).
    pub moves: MoveGate,
    pub tsf: TsfLearner,
    pub gc: GcRegistry,
    pub tuner: Tuner,
    pub pack: PackState,
    /// Immutable columnar extents holding frozen rows (HTAP tier).
    pub extents: btrim_pagestore::ExtentStore,
    /// Latency histograms + ILM decision trace. The WAL and buffer
    /// cache hold bare `Arc<LatencyHistogram>` clones of individual
    /// classes; everything in this crate records through here.
    pub obs: Arc<Obs>,
    pub maint: Maintenance,
    pub health: Health,
    pub ckpt: Checkpointer,
    /// What the last recovery salvaged/dropped (zeroes on clean start).
    pub recovery: Mutex<RecoveryReport>,
}

/// Read back and compare every page write-back: catches torn or lying
/// writes while the redo log still covers the page, at one device read
/// per write-back (pages are written only on eviction, pack, checkpoint).
const VERIFY_PAGE_WRITES: bool = true;

/// Most index hits a range scan collects before it reads their rows.
/// A scan collects [`FIRST_SCAN_CHUNK`] first and four times as many
/// each round after, so Delivery's oldest-new-order probe, which uses
/// one row, does not gather its district's whole queue, and the last 20
/// orders' lines take three rounds.
const SCAN_CHUNK: usize = 256;
/// One order's lines (TPC-C: 5 to 15) fit the first chunk: each more
/// round descends the index again.
const FIRST_SCAN_CHUNK: usize = 16;

/// The engine.
pub struct Engine {
    pub(crate) sh: Arc<Shared>,
}

/// Prefix every page-store row with its stable RowId so recovery can
/// rebuild the RID-Map and indexes from a heap scan.
pub(crate) fn wrap_row(row_id: RowId, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + data.len());
    out.extend_from_slice(&row_id.0.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// A read-only snapshot transaction.
///
/// Holds a begin-timestamp and a slot in the transaction registry, so
/// the GC/pack horizon cannot advance past the snapshot while it is
/// live. It takes no locks, writes no log records, and is retired with
/// [`Engine::end_snapshot`] without touching the commit/abort counters.
///
/// Reads through this handle are **lock-free on the IMRS path**:
/// RID-Map resolution, version-chain walk, and fragment load are all
/// atomics; page-resident rows additionally pin the page and consult
/// the before-image side store.
pub struct SnapshotTxn {
    pub(crate) handle: TxnHandle,
}

impl SnapshotTxn {
    /// Registry identity of this snapshot reader.
    pub fn id(&self) -> TxnId {
        self.handle.id
    }

    /// The begin-timestamp all reads through this handle observe.
    pub fn snapshot(&self) -> Timestamp {
        self.handle.snapshot
    }
}

/// What a read may do besides return bytes. Visibility never depends
/// on the view — it is a function of `(snapshot, reader)` alone.
#[derive(Clone, Copy)]
pub(crate) enum View {
    /// A read-write transaction's read: touches the row (the ILM
    /// hotness signal), ticks partition metrics, and — on `point_access`,
    /// i.e. through the unique index — caches a page-resident row (§IV).
    Txn { point_access: bool },
    /// A snapshot reader: no side effects, and on the IMRS arm no
    /// ranked lock at all.
    Snapshot,
    /// A writer's read under the row's exclusive lock (its pre-image,
    /// or `update_rmw`'s latest-committed image): no side effects, no
    /// retry — the lock pins the location, so "moved" can only mean gone.
    Current,
}

/// Where the write prologue left a row: one of the two mutable tiers.
enum WriteHome<'t> {
    Imrs,
    Page(&'t Partition, PageId, SlotId),
}

/// Split a page-store payload into (RowId, user bytes).
pub(crate) fn unwrap_row(payload: &[u8]) -> Result<(RowId, &[u8])> {
    let Some((id_bytes, data)) = payload.split_first_chunk::<8>() else {
        return Err(BtrimError::Corrupt("page row shorter than header".into()));
    };
    Ok((RowId(u64::from_le_bytes(*id_bytes)), data))
}

impl Engine {
    /// Create an engine on in-memory devices (deterministic default).
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_devices(
            cfg,
            Arc::new(MemDisk::new()),
            Arc::new(MemLog::new()),
            Arc::new(MemLog::new()),
        )
    }

    /// Create an engine over explicit devices (file-backed runs,
    /// recovery tests).
    pub fn with_devices(
        cfg: EngineConfig,
        disk: Arc<dyn DiskBackend>,
        syslog: Arc<dyn LogSink>,
        imrslog: Arc<dyn LogSink>,
    ) -> Self {
        cfg.validate();
        let clock = Arc::new(LogicalClock::new());
        let tsf = TsfLearner::new(
            cfg.steady_utilization,
            crate::tsf::LEARN_DELTA,
            crate::tsf::RELEARN_TXNS,
            cfg.tuning_window_txns,
        );
        let obs = Arc::new(Obs::new(cfg.obs_latency, cfg.obs_trace_capacity));
        // Lower crates get per-class histogram clones, never the hub:
        // `None` when latency is off, so their hot paths skip the clock
        // reads the same way the engine's do.
        let hook = |class: OpClass| cfg.obs_latency.then(|| Arc::clone(obs.hist(class)));
        let ridmap = Arc::new(RidMap::new());
        let sh = Shared {
            cache: Arc::new(
                BufferCache::new(disk, cfg.buffer_frames)
                    .with_write_verification(VERIFY_PAGE_WRITES)
                    .with_miss_histogram(hook(OpClass::BufferMiss)),
            ),
            store: ImrsStore::new(cfg.imrs_budget, cfg.imrs_chunk_size, Arc::clone(&ridmap)),
            ridmap,
            side: SideStore::new(),
            catalog: Catalog::new(),
            commit_shapes: CommitShapes::default(),
            txns: TxnManager::new(Arc::clone(&clock)),
            locks: LockManager::default(),
            clock,
            syslog: LogWriter::new(syslog)
                .with_histograms(hook(OpClass::WalAppend), hook(OpClass::WalFsync)),
            imrslog: LogWriter::new(imrslog)
                .with_histograms(hook(OpClass::WalAppend), hook(OpClass::WalFsync)),
            moves: MoveGate::new(),
            tsf,
            gc: GcRegistry::new(),
            tuner: Tuner::with_obs(Arc::clone(&obs)),
            pack: PackState::new(),
            extents: btrim_pagestore::ExtentStore::new(),
            obs,
            maint: Maintenance::new(),
            health: Health::new(),
            ckpt: Checkpointer::new(),
            recovery: Mutex::new(RecoveryReport::default()),
            cfg,
        };
        Engine { sh: Arc::new(sh) }
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.sh.cfg
    }

    /// Create a table.
    pub fn create_table(&self, opts: TableOpts) -> Result<Arc<TableDesc>> {
        self.sh.catalog.create_table(&self.sh.cache, opts)
    }

    /// Add a (non-unique) secondary index to a table.
    pub fn create_secondary_index(
        &self,
        table: &TableDesc,
        name: &str,
        extractor: KeyExtractor,
    ) -> Result<()> {
        self.sh
            .catalog
            .create_secondary_index(&self.sh.cache, table, name, false, extractor)
    }

    /// Add a unique secondary index: inserts and updates whose extracted
    /// key collides with an existing row fail with
    /// [`BtrimError::DuplicateKey`].
    pub fn create_unique_secondary_index(
        &self,
        table: &TableDesc,
        name: &str,
        extractor: KeyExtractor,
    ) -> Result<()> {
        self.sh
            .catalog
            .create_secondary_index(&self.sh.cache, table, name, true, extractor)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<Arc<TableDesc>> {
        self.sh.catalog.table_by_name(name)
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(self.sh.txns.begin())
    }

    // ------------------------------------------------------------------
    // Placement decisions (§IV)
    // ------------------------------------------------------------------

    /// May `partition` take a row into the IMRS for the operation
    /// `allows` names (insert, migrate, or cache)? Pack's reject-new
    /// backpressure (§VI.A) and the tuner's verdict (§V) gate all three.
    fn imrs_allowed(
        &self,
        table: &TableDesc,
        partition: &Partition,
        allows: fn(&PartitionIlmState) -> bool,
    ) -> bool {
        match self.sh.cfg.mode {
            EngineMode::PageOnly => false,
            EngineMode::IlmOff => true,
            EngineMode::IlmOn => {
                table.imrs_enabled && !self.sh.pack.reject_new() && allows(&partition.ilm)
            }
        }
    }

    // ------------------------------------------------------------------
    // ISUD
    // ------------------------------------------------------------------

    /// Insert a row. The primary key is extracted from the payload.
    pub fn insert(&self, txn: &mut Transaction, table: &TableDesc, row: &[u8]) -> Result<RowId> {
        let sh = &self.sh;
        sh.health.check_writable()?;
        let op_start = sh.obs.start();
        let key = (table.primary_key)(row);
        let part = table.partition_of(&key);
        let row_id = sh.ridmap.allocate_row_id();

        table.primary.insert(&key, row_id)?;
        // The key is remembered once, moved, after the row is placed —
        // and whether or not placing worked: an abort after a failed
        // insert still has to unhook it.
        let placed = self.place_new_row(txn, table, part, &key, row_id, row);
        txn.writes.push(Write::KeyAdded {
            table: table.id,
            index: IndexRef::Primary,
            key,
            row: row_id,
        });
        let class = placed?;
        self.maintain_secondaries(txn, table, row_id, None, Some(row))?;
        sh.obs.record_since(class, op_start);
        Ok(row_id)
    }

    /// Lock a new row and give it its first home: the IMRS when ILM
    /// allows (§IV), else a page. Returns the insert's class — where the
    /// row actually landed, not where ILM first aimed it.
    fn place_new_row(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        part: &Partition,
        key: &[u8],
        row_id: RowId,
        row: &[u8],
    ) -> Result<OpClass> {
        let sh = &self.sh;
        let (id, partition) = (txn.handle.id, part.id);
        sh.locks.lock(id, row_id, LockMode::Exclusive)?;
        txn.locks.push(row_id);

        if self.imrs_allowed(table, part, PartitionIlmState::allows_insert) {
            let origin = RowOrigin::Inserted;
            match sh
                .store
                .insert_row(row_id, partition, origin, id, row, sh.clock.now())
            {
                Ok((_, version)) => {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a fresh RowId's first location overwrites nothing; \
                                  its IMRS redo is staged below and logged at commit (§II)"
                    )]
                    sh.ridmap.set(row_id, RowLocation::Imrs);
                    table.hash.insert(key, row_id);
                    txn.writes.push(Write::Imrs {
                        row: row_id,
                        version,
                    });
                    let tag = RowOriginTag::Inserted;
                    txn.imrs_redo.push_insert(id, partition, row_id, tag, row);
                    part.metrics.imrs_insert.inc();
                    part.metrics.rows_in.inc();
                    return Ok(OpClass::InsertImrs);
                }
                // Graceful degradation (§VI.A): route to the page store
                // instead of failing the transaction.
                Err(BtrimError::ImrsFull { .. }) if sh.cfg.mode == EngineMode::IlmOn => {}
                Err(e) => return Err(e),
            }
        }
        let payload = wrap_row(row_id, row);
        let (page, slot) = self.charge_page_op(part, || part.heap.insert(&sh.cache, &payload))?;
        // Absent marker for snapshot readers: until this insert commits
        // (and for any snapshot older than its commit), the row does
        // not exist, even though its bytes sit on the page. Stashed
        // before the RID-Map publishes the location.
        sh.side.stash(row_id, id, None, false);
        txn.writes.push(Write::Page {
            row: row_id,
            partition,
        });
        // Only a transaction that changes a page announces itself in
        // syslogs: `Begin`/`Commit` gate its page records. An IMRS-only
        // transaction has no verdict there at all — its one atomic
        // sysimrslogs batch on the media is the commit.
        let logged = self.ensure_begin(txn).and_then(|()| {
            sh.append_sys(&PageLogRecord::Insert {
                txn: id,
                partition,
                row: row_id,
                page,
                slot,
                data: payload,
            })
        });
        // The RID-Map publishes the location only once the Insert record
        // is in the log; a copy it never named is dropped here, where it
        // was staged (abort finds no row to remove).
        let logged = logged.inspect_err(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "unstaging a copy the RID-Map never named"
            )]
            let _ = part.heap.delete(&sh.cache, page, slot);
        })?;
        logged.ridmap_set(&sh.ridmap, row_id, RowLocation::Page(page, slot));
        Ok(OpClass::InsertPage)
    }

    /// Resolve a primary key to its RowId: the non-logged hash index
    /// first (it spans IMRS rows only and never touches the B+tree),
    /// then the primary B+tree.
    fn row_id_of(&self, table: &TableDesc, key: &[u8]) -> Result<Option<RowId>> {
        if self.sh.cfg.mode != EngineMode::PageOnly {
            if let Some(row_id) = table.hash.get(key) {
                return Ok(Some(row_id));
            }
        }
        table.primary.get(key)
    }

    /// Point select by primary key. Applies the hash-index fast path
    /// and, for page-resident rows, the §IV caching rule. Snapshot-
    /// consistent: the transaction's own writes, else what had committed
    /// when it began ([`update_rmw`](Self::update_rmw) reads the latest).
    pub fn get(&self, txn: &Transaction, table: &TableDesc, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let row_id = self.row_id_of(table, key)?;
        let view = View::Txn { point_access: true };
        self.read_view(table, row_id, &txn.handle, view)
            .map(|r| r.0)
    }

    /// Read a row by RowId, resolving its location through the RID-Map.
    /// `point_access` marks unique-index-driven access (the §IV hotness
    /// signal that triggers caching).
    pub fn read_row(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        row_id: RowId,
        point_access: bool,
    ) -> Result<Option<Vec<u8>>> {
        let view = View::Txn { point_access };
        self.read_view(table, Some(row_id), &txn.handle, view)
            .map(|r| r.0)
    }

    /// The one read entry point: resolve `row_id` until the row holds
    /// still, and record a `Txn` read's latency once, whatever the
    /// outcome (a `Snapshot` read's caller records it). `row_id = None`
    /// is an index miss, still counted, as a page select (a B+tree
    /// probe). Returns the image and whether the IMRS served it.
    ///
    /// Lock-free readers race online data movement; every retry
    /// reflects a *completed* movement, so a handful of attempts suffices
    /// unless pack and migration ping-pong a contended row. Then the
    /// paper's rule applies: "Scanners which need consistent data handle
    /// this by looking up the row after acquiring a lock. Since data
    /// movement needs locks on the rows, scanners can safely access the
    /// row" (§VII.B) — a shared lock freezes the location.
    pub(crate) fn read_view(
        &self,
        table: &TableDesc,
        row_id: Option<RowId>,
        reader: &TxnHandle,
        view: View,
    ) -> Result<(Option<Vec<u8>>, bool)> {
        self.read_view_with(table, row_id, reader, view, |img| img.into_owned())
    }

    /// [`Engine::read_view`], lending the image to `f` instead of
    /// returning it (`f` runs at most once per resolution attempt and
    /// only the last run's result is kept).
    pub(crate) fn read_view_with<R>(
        &self,
        table: &TableDesc,
        row_id: Option<RowId>,
        reader: &TxnHandle,
        view: View,
        mut f: impl FnMut(Cow<'_, [u8]>) -> R,
    ) -> Result<(Option<R>, bool)> {
        let op_start = self.sh.obs.start();
        let mut resolve =
            |row_id| self.resolve_with(table, row_id, reader.snapshot, reader.id, view, &mut f);
        let mut found = None;
        if let Some(row_id) = row_id {
            for _attempt in 0..4 {
                found = resolve(row_id)?;
                if found.is_some() {
                    break;
                }
            }
            if found.is_none() {
                let owner = self.sh.pack.internal_txn_id();
                self.sh.locks.lock_timeout(
                    owner,
                    row_id,
                    LockMode::Shared,
                    std::time::Duration::from_millis(500),
                )?;
                let settled = resolve(row_id);
                self.sh.locks.unlock(owner, row_id);
                found = settled?; // still `None`: cannot move under the lock, so gone
            }
        }
        let (image, from_imrs) = found.unwrap_or((None, false));
        let class = match view {
            View::Snapshot => return Ok((image, from_imrs)),
            _ if from_imrs => OpClass::SelectImrs,
            _ => OpClass::SelectPage,
        };
        self.sh.obs.record_since(class, op_start);
        Ok((image, from_imrs))
    }

    /// [`Engine::resolve_with`], keeping the image (copied if lent).
    fn resolve(
        &self,
        table: &TableDesc,
        row_id: RowId,
        snapshot: Timestamp,
        reader: TxnId,
        view: View,
    ) -> Result<Option<(Option<Vec<u8>>, bool)>> {
        self.resolve_with(table, row_id, snapshot, reader, view, |img| {
            img.into_owned()
        })
    }

    /// The row resolver: RID-Map → home → the image `reader` sees at
    /// `snapshot`, handed to `f` — lent where it lives, owned where the
    /// home materialized it. Every read in the engine goes through this
    /// one match, so relocation between tiers is invisible to
    /// transactions by construction: the bytes depend on `(snapshot,
    /// reader)` alone, `view` selects side effects (see [`View`]).
    /// Returns `f`'s result (`None`: no such row at the snapshot; `f`
    /// did not run) and whether the IMRS served it — or `None` when the
    /// row moved between the RID-Map read and the store access: resolve
    /// again.
    pub(crate) fn resolve_with<R>(
        &self,
        table: &TableDesc,
        row_id: RowId,
        snapshot: Timestamp,
        reader: TxnId,
        view: View,
        f: impl FnOnce(Cow<'_, [u8]>) -> R,
    ) -> Result<Option<(Option<R>, bool)>> {
        let sh = &self.sh;
        let txn_view = matches!(view, View::Txn { .. });
        let (image, from_imrs) = match sh.ridmap.get(row_id) {
            None => (None, false),
            Some(RowLocation::Imrs) => {
                // Served from atomics: location, chain head and the
                // visible version lock-free, image bytes from the
                // fragment allocator.
                let image = match sh.store.visible(row_id, snapshot, reader)? {
                    Visible::Image(_, h) => {
                        Some(sh.store.allocator().with_bytes(h, |b| f(Cow::Borrowed(b))))
                    }
                    Visible::Hidden => None,
                    Visible::Moved => return Ok(None),
                };
                if txn_view && image.is_some() {
                    // Hotness + partition metrics.
                    sh.ridmap.touch(row_id, sh.clock.now());
                    let id = sh.ridmap.partition(row_id);
                    if let Some(part) = id.and_then(|id| table.partition(id)) {
                        part.metrics.imrs_select.inc();
                    }
                }
                (image, true)
            }
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                let heap = &partition.heap;
                // Page bytes FIRST, side store second: a writer stashes
                // before it mutates, so a reader that saw the new bytes
                // is guaranteed to see the stash. The opposite order
                // could miss both.
                let payload = if txn_view {
                    self.charge_page_op(partition, || heap.get(&sh.cache, page, slot))?
                } else {
                    heap.get(&sh.cache, page, slot)?
                };
                let image = match sh.side.lookup(row_id, snapshot, reader) {
                    SideImage::Absent => None,
                    SideImage::Image(img) => Some(f(Cow::Owned(img))),
                    SideImage::UsePage => {
                        let Some(payload) = payload else {
                            return Ok(None); // dead slot
                        };
                        let (rid, data) = unwrap_row(&payload)?;
                        if rid != row_id {
                            return Ok(None); // slot recycled by another row
                        }
                        Some(f(Cow::Borrowed(data)))
                    }
                };
                if matches!(view, View::Txn { point_access: true })
                    && image.is_some()
                    && self.imrs_allowed(table, partition, PartitionIlmState::allows_cache)
                {
                    // §IV: a select through the unique index caches the
                    // row. Opportunistic; failure is harmless.
                    let at = (row_id, RowLocation::Page(page, slot));
                    let _ = self.move_row(table, partition, at, To::Imrs(RowOrigin::Cached), true);
                }
                (image, false)
            }
            Some(RowLocation::Tombstone(..)) => {
                // The slot is dead, but the deleted image may still be
                // visible at this snapshot. No overriding stash: the
                // delete is older than the snapshot (or the reader's own).
                match sh.side.lookup(row_id, snapshot, reader) {
                    SideImage::Image(img) => (Some(f(Cow::Owned(img))), false),
                    SideImage::Absent | SideImage::UsePage => (None, false),
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                // The freeze-time horizon gate proved no live (or
                // future) snapshot needs an older or newer image than
                // the frozen one: serve it unconditionally. A dead slot
                // means the row thawed back to a page concurrently.
                let Some(ext) = self.frozen_slot(ext, idx, row_id) else {
                    return Ok(None);
                };
                let image = extent_row_bytes(table.layout.as_ref(), &ext, idx as usize);
                (image.map(|img| f(Cow::Owned(img))), false)
            }
        };
        Ok(Some((image, from_imrs)))
    }

    /// Run one page-store operation for `partition` and charge it: a
    /// `page_ops` tick, plus a `page_contention` tick when a frame latch
    /// or shard lock was contended on the way (§V.D's re-enable signal).
    fn charge_page_op<T>(
        &self,
        partition: &Partition,
        op: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.sh.cache.take_thread_contention();
        let out = op()?;
        let m = &partition.metrics;
        m.page_ops.inc();
        if self.sh.cache.take_thread_contention() > 0 {
            m.page_contention.inc();
        }
        Ok(out)
    }

    fn partition_of_page<'t>(&self, table: &'t TableDesc, page: PageId) -> Result<&'t Partition> {
        let guard = self.sh.cache.fetch(page)?;
        let p = guard.with_page_read(|v| v.partition());
        // Defensive: the page must belong to one of the table's
        // partitions.
        match table.partition(p) {
            Some(partition) => Ok(partition),
            None => Err(BtrimError::Corrupt(format!(
                "page {page} belongs to partition {p}, not to table {}",
                table.name
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot reads (read-only MVCC transactions)
    // ------------------------------------------------------------------

    /// Begin a read-only snapshot transaction. Cheap: one registry slot
    /// reservation and one clock read; no locks, no log records.
    pub fn begin_snapshot(&self) -> SnapshotTxn {
        SnapshotTxn {
            handle: self.sh.txns.begin(),
        }
    }

    /// Retire a snapshot transaction, releasing its registry slot so
    /// the GC/pack/side-store horizon can advance past its snapshot.
    pub fn end_snapshot(&self, snap: SnapshotTxn) {
        self.sh.txns.release(snap.handle);
    }

    /// Point select by primary key at the snapshot.
    pub fn get_snapshot(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        let row_id = self.row_id_of(table, key)?;
        let op_start = self.sh.obs.start();
        let (image, _) = self.read_view(table, row_id, &snap.handle, View::Snapshot)?;
        self.sh.obs.record_since(OpClass::SnapshotRead, op_start);
        Ok(image)
    }

    /// Read a row by RowId as of the snapshot. The access never takes a
    /// row or engine lock, never bumps partition metrics, and never
    /// triggers caching/migration — readers must not block or be
    /// blocked by writers, and must not cause data movement.
    pub fn read_row_snapshot(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        row_id: RowId,
    ) -> Result<Option<Vec<u8>>> {
        let op_start = self.sh.obs.start();
        let (image, _) = self.read_view(table, Some(row_id), &snap.handle, View::Snapshot)?;
        self.sh.obs.record_since(OpClass::SnapshotRead, op_start);
        Ok(image)
    }

    /// Update a row by primary key. Returns `false` when the key does
    /// not exist (or is invisible).
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        key: &[u8],
        new_row: &[u8],
    ) -> Result<bool> {
        let Some((row_id, home)) = self.write_home(txn, table, key, true)? else {
            return Ok(false);
        };
        self.write_at(txn, table, key, row_id, home, Some(new_row))
    }

    /// Read-modify-write by primary key: locks the row, reads the
    /// *latest committed* image (or this transaction's own pending
    /// image), applies `f`, and writes the result. This is the correct
    /// primitive for counter-style updates (TPC-C `d_next_o_id`, stock
    /// quantities): a snapshot read here would lose updates.
    ///
    /// Returns the new image, or `None` when the key does not exist.
    pub fn update_rmw(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<Option<Vec<u8>>> {
        let Some((row_id, home)) = self.write_home(txn, table, key, true)? else {
            return Ok(None);
        };
        // Under the exclusive lock nobody else has a pending version:
        // "every commit, plus my own writes" is the image to overwrite.
        let latest = Timestamp(u64::MAX);
        let current = self.resolve(table, row_id, latest, txn.handle.id, View::Current)?;
        let Some((Some(current), _)) = current else {
            return Ok(None);
        };
        let new_row = f(&current);
        let updated = self.write_at(txn, table, key, row_id, home, Some(&new_row))?;
        Ok(updated.then_some(new_row))
    }

    /// Delete a row by primary key. Returns `false` if absent.
    pub fn delete(&self, txn: &mut Transaction, table: &TableDesc, key: &[u8]) -> Result<bool> {
        let Some((row_id, home)) = self.write_home(txn, table, key, false)? else {
            return Ok(false);
        };
        self.write_at(txn, table, key, row_id, home, None)
    }

    /// The one write prologue: key → RowId (hash, then primary), the
    /// row's exclusive lock, then a mutable home — a frozen row is
    /// thawed to a slotted page; with `migrate` a page row moves into
    /// the IMRS if ILM says so (§IV: an update through the unique index
    /// migrates the row). `None`: no such row.
    fn write_home<'t>(
        &self,
        txn: &mut Transaction,
        table: &'t TableDesc,
        key: &[u8],
        migrate: bool,
    ) -> Result<Option<(RowId, WriteHome<'t>)>> {
        let sh = &self.sh;
        sh.health.check_writable()?;
        let Some(row_id) = self.row_id_of(table, key)? else {
            return Ok(None);
        };
        sh.locks.lock(txn.handle.id, row_id, LockMode::Exclusive)?;
        txn.locks.push(row_id);
        let (partition, page, slot) = match sh.ridmap.get(row_id) {
            None | Some(RowLocation::Tombstone(..)) => return Ok(None),
            Some(RowLocation::Imrs) => return Ok(Some((row_id, WriteHome::Imrs))),
            Some(RowLocation::Page(page, slot)) => {
                (self.partition_of_page(table, page)?, page, slot)
            }
            // Thaw (an internally-committed mini-transaction, like
            // migration) lands the row on a page, and there it stays for
            // this write: one movement per operation. If it is updated
            // again it migrates then, as any page row does.
            Some(from @ RowLocation::Frozen(ext, _)) => {
                let id = sh.extents.get(ext).map(|e| e.partition());
                let Some(partition) = id.and_then(|id| table.partition(id)) else {
                    return Ok(None);
                };
                self.move_row(table, partition, (row_id, from), To::Page, false)?;
                let Some(RowLocation::Page(page, slot)) = sh.ridmap.get(row_id) else {
                    return Ok(None); // the extent slot was already dead
                };
                return Ok(Some((row_id, WriteHome::Page(partition, page, slot))));
            }
        };
        if migrate && self.imrs_allowed(table, partition, PartitionIlmState::allows_migrate) {
            let at = (row_id, RowLocation::Page(page, slot));
            match self.move_row(table, partition, at, To::Imrs(RowOrigin::Migrated), false) {
                Ok(true) => return Ok(Some((row_id, WriteHome::Imrs))),
                // History-pinned, or the IMRS is full: stay on the page.
                Ok(false) | Err(BtrimError::ImrsFull { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Some((row_id, WriteHome::Page(partition, page, slot))))
    }

    /// The one write dispatch: apply an update (`Some(new_row)`) or a
    /// delete (`None`) where the prologue left the row.
    fn write_at(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        key: &[u8],
        row_id: RowId,
        home: WriteHome,
        new_row: Option<&[u8]>,
    ) -> Result<bool> {
        let sh = &self.sh;
        let op_start = sh.obs.start();
        let class = match (&home, new_row) {
            (WriteHome::Imrs, Some(_)) => OpClass::UpdateImrs,
            (WriteHome::Imrs, None) => OpClass::DeleteImrs,
            (WriteHome::Page(..), Some(_)) => OpClass::UpdatePage,
            (WriteHome::Page(..), None) => OpClass::DeletePage,
        };
        let old = match home {
            WriteHome::Imrs => {
                let Some(row) = sh.store.get(row_id) else {
                    return Ok(false);
                };
                let Some(part) = table.partition(row.partition) else {
                    return Ok(false);
                };
                // A row this transaction cannot see is not there to be
                // written; the secondary entries are the latest image's,
                // which a commit since the snapshot may have written.
                let (snapshot, id) = (txn.handle.snapshot, txn.handle.id);
                let seen = self.resolve_with(table, row_id, snapshot, id, View::Current, |_| ())?;
                let old = self.resolve(table, row_id, Timestamp(u64::MAX), id, View::Current)?;
                let (Some((Some(()), _)), Some((Some(old), _))) = (seen, old) else {
                    return Ok(false);
                };
                let op = match new_row {
                    Some(_) => VersionOp::Update,
                    None => VersionOp::Delete,
                };
                let version = sh.store.add_version(&row, id, op, new_row)?;
                txn.writes.push(Write::Imrs {
                    row: row_id,
                    version,
                });
                match new_row {
                    Some(new_row) => {
                        txn.imrs_redo
                            .push_update(id, row.partition, row_id, new_row);
                        sh.ridmap.touch(row_id, sh.clock.now());
                        part.metrics.imrs_update.inc();
                    }
                    None => {
                        txn.imrs_redo.push_delete(id, row.partition, row_id);
                        part.metrics.imrs_delete.inc();
                    }
                }
                old
            }
            WriteHome::Page(partition, page, slot) => {
                let heap = &partition.heap;
                let at = (partition, page, slot);
                let old = self.charge_page_op(partition, || {
                    let Some(old_payload) = heap.get(&sh.cache, page, slot)? else {
                        return Ok(None);
                    };
                    let old = unwrap_row(&old_payload)?.1.to_vec();
                    // Snapshot readers roll page changes back through
                    // the side store: stash the before image BEFORE the
                    // page bytes change, so a reader that observes the
                    // new bytes (it read the page after us, under the
                    // frame latch) also observes the stash.
                    let id = txn.handle.id;
                    sh.side
                        .stash(row_id, id, Some(old.clone()), new_row.is_none());
                    txn.writes.push(Write::Page {
                        row: row_id,
                        partition: partition.id,
                    });
                    match new_row {
                        Some(new_row) => self.update_page(txn, row_id, at, old_payload, new_row)?,
                        None => self.delete_page(txn, row_id, at, old_payload)?,
                    }
                    Ok(Some(old))
                })?;
                let Some(old) = old else {
                    return Ok(false);
                };
                old
            }
        };
        if new_row.is_none() {
            // Index removal is immediate (see DESIGN.md trade-offs); the
            // hash index spans IMRS rows only, a page row is not in it.
            let in_tree = table.primary.delete(key, Some(row_id))?;
            if table.hash.remove(key).is_some() || in_tree {
                txn.writes.push(Write::KeyRemoved {
                    table: table.id,
                    index: IndexRef::Primary,
                    key: key.to_vec(),
                    row: row_id,
                });
            }
        }
        self.maintain_secondaries(txn, table, row_id, Some(&old), new_row)?;
        sh.obs.record_since(class, op_start);
        Ok(true)
    }

    /// Overwrite a page-resident row whose before image the caller has
    /// stashed: in place when the new image fits, else by relocation
    /// within the partition's heap (the stash is keyed by the row and
    /// needs no telling).
    fn update_page(
        &self,
        txn: &mut Transaction,
        row_id: RowId,
        (part, page, slot): (&Partition, PageId, SlotId),
        old_payload: Vec<u8>,
        new_row: &[u8],
    ) -> Result<()> {
        let sh = &self.sh;
        let (heap, partition, id) = (&part.heap, part.id, txn.handle.id);
        let new_payload = wrap_row(row_id, new_row);
        self.ensure_begin(txn)?;
        // WAL-first: the Update record is appended from under the
        // frame's write latch, after the fit probe and before the page
        // bytes change. A failed append leaves the page untouched; a
        // mis-fit returns false without logging and the relocation arm
        // below writes its own records.
        let in_place =
            logged::update_in_place(heap, &sh.cache, (page, slot), &new_payload, || {
                sh.append_sys(&PageLogRecord::Update {
                    txn: id,
                    partition,
                    row: row_id,
                    page,
                    slot,
                    old: old_payload.clone(),
                    new: new_payload.clone(),
                })
            })?;
        if in_place {
            return Ok(());
        }
        // Relocation. The new copy is staged unpublished: additive
        // (recovery discards it if the txn never commits), so it may
        // precede the appends. WAL-first: both records precede the
        // destructive steps (the RID-Map flip and the old slot's
        // delete).
        let (new_page, new_slot) = heap.insert(&sh.cache, &new_payload)?;
        let logged = sh
            .append_sys(&PageLogRecord::Delete {
                txn: id,
                partition,
                row: row_id,
                page,
                slot,
                old: old_payload,
            })
            .and_then(|_| {
                sh.append_sys(&PageLogRecord::Insert {
                    txn: id,
                    partition,
                    row: row_id,
                    page: new_page,
                    slot: new_slot,
                    data: new_payload,
                })
            });
        // Unstage on failure: the row is still whole at its old address,
        // and a copy the RID-Map never named is nobody's to undo later.
        let logged = logged.inspect_err(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "unstaging a copy the RID-Map never named"
            )]
            let _ = heap.delete(&sh.cache, new_page, new_slot);
        })?;
        // Repoint, only then delete the old copy — a concurrent reader
        // that raced the RID-Map read finds either the old live slot
        // or, after one retry, the new location; never a dead end.
        logged.ridmap_set(&sh.ridmap, row_id, RowLocation::Page(new_page, new_slot));
        logged.heap_delete(heap, &sh.cache, &mut [(page, slot)])?;
        Ok(())
    }

    /// Delete a page-resident row whose image the caller has stashed,
    /// leaving a tombstone.
    fn delete_page(
        &self,
        txn: &mut Transaction,
        row_id: RowId,
        (part, page, slot): (&Partition, PageId, SlotId),
        old_payload: Vec<u8>,
    ) -> Result<()> {
        let sh = &self.sh;
        // The deleted image stays reachable for older snapshots: the
        // caller stashed it, and the RID-Map keeps a tombstone instead
        // of unmapping the row. The tombstone is cleared when the stash
        // ages past the snapshot horizon.
        // WAL-first: the Delete record must be durable-ordered before
        // the slot dies or the RID-Map flips, so a crash between the
        // two can always be replayed.
        self.ensure_begin(txn)?;
        let logged = sh.append_sys(&PageLogRecord::Delete {
            txn: txn.handle.id,
            partition: part.id,
            row: row_id,
            page,
            slot,
            old: old_payload,
        })?;
        // Readers consult the stash from here on. The slot keeps the
        // row until the delete commits (`Engine::commit`): freed now,
        // another transaction's insert could take it, and if a cut
        // then made this one a loser, redo would meet the deleted row
        // still in the slot and drop that insert.
        logged.ridmap_set(&sh.ridmap, row_id, RowLocation::Tombstone(page, slot));
        Ok(())
    }

    /// Keep secondary indexes aligned when a row appears (`old_row` is
    /// `None`), changes, or disappears (`new_row` is `None`).
    fn maintain_secondaries(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        row_id: RowId,
        old_row: Option<&[u8]>,
        new_row: Option<&[u8]>,
    ) -> Result<()> {
        for (idx, sec) in table.secondaries.read().iter().enumerate() {
            let old_key = old_row.map(|r| (sec.extractor)(r));
            let new_key = new_row.map(|r| (sec.extractor)(r));
            if old_key == new_key {
                continue;
            }
            if let Some(key) = old_key {
                if sec.tree.delete(&key, Some(row_id))? {
                    txn.writes.push(Write::KeyRemoved {
                        table: table.id,
                        index: IndexRef::Secondary(idx),
                        key,
                        row: row_id,
                    });
                }
            }
            if let Some(key) = new_key {
                sec.tree.insert(&key, row_id)?;
                txn.writes.push(Write::KeyAdded {
                    table: table.id,
                    index: IndexRef::Secondary(idx),
                    key,
                    row: row_id,
                });
            }
        }
        Ok(())
    }

    /// Look up rows via a secondary index. Returns visible `(RowId,
    /// row)` pairs.
    pub fn get_by_index(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        index: &str,
        key: &[u8],
    ) -> Result<Vec<(RowId, Vec<u8>)>> {
        let row_ids = {
            let secs = table.secondaries.read();
            let sec = secs
                .iter()
                .find(|s| s.name == index)
                .ok_or_else(|| BtrimError::Invalid(format!("no index {index}")))?;
            sec.tree.get_all(key)?
        };
        let mut out = Vec::with_capacity(row_ids.len());
        for rid in row_ids {
            if let Some(row) = self.read_row(txn, table, rid, false)? {
                out.push((rid, row));
            }
        }
        Ok(out)
    }

    /// Range scan over a secondary index: visible rows with index keys
    /// in `[lo, hi)`. `f` receives `(index_key, row_id, row)` and stops
    /// the scan by returning `false`.
    pub fn scan_secondary_range(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        index: &str,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], RowId, &[u8]) -> bool,
    ) -> Result<()> {
        self.scan_index(txn, table, lo, f, |from, limit, visit| {
            let secs = table.secondaries.read();
            match secs.iter().find(|s| s.name == index) {
                Some(sec) => sec.tree.scan_range_at_most(from, hi, limit, visit),
                None => Err(BtrimError::Invalid(format!("no index {index}"))),
            }
        })
    }

    /// Range scan over the primary index: visible rows with keys in
    /// `[lo, hi)`. `f` returning `false` stops the scan.
    pub fn scan_range(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], RowId, &[u8]) -> bool,
    ) -> Result<()> {
        self.scan_index(txn, table, lo, f, |from, limit, visit| {
            table.primary.scan_range_at_most(from, hi, limit, visit)
        })
    }

    /// The range-scan loop. `scan(from, limit, visit)` walks at most
    /// `limit` index entries from key `from` up to the caller's bound
    /// while `visit` says go on. Hits are collected a chunk at a time
    /// (×4 from [`FIRST_SCAN_CHUNK`] up to [`SCAN_CHUNK`]), keys back to
    /// back in one arena: no index latch is held while rows are read,
    /// and a scan its caller stops early never collects, or copies out
    /// of the index, the whole range. Each row reaches `f` through one
    /// reused buffer, outside every latch and lock.
    fn scan_index(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        lo: &[u8],
        mut f: impl FnMut(&[u8], RowId, &[u8]) -> bool,
        scan: impl Fn(&[u8], usize, &mut dyn FnMut(&[u8], RowId) -> bool) -> Result<()>,
    ) -> Result<()> {
        // Hit `i`'s key is `keys[hits[i].0..hits[i].1]`.
        let (mut keys, mut hits) = (Vec::new(), Vec::<(usize, usize, RowId)>::new());
        let (mut from, mut row) = (lo.to_vec(), Vec::new());
        // RowIds already handed out under key `from`: a resumed scan
        // starts at that key again and skips them (a secondary index may
        // hold many rows under one key).
        let (mut seen_at_from, mut chunk) = (Vec::<RowId>::new(), FIRST_SCAN_CHUNK);
        loop {
            keys.clear();
            hits.clear();
            let mut more = false;
            // Enough entries for one hit past the chunk after skipping
            // those already handed out.
            let limit = chunk + 1 + seen_at_from.len();
            scan(&from, limit, &mut |k, rid| {
                if k == from.as_slice() && seen_at_from.contains(&rid) {
                    return true;
                }
                more = hits.len() == chunk;
                if !more {
                    keys.extend_from_slice(k);
                    hits.push((keys.len() - k.len(), keys.len(), rid));
                }
                !more
            })?;
            let view = View::Txn {
                point_access: false,
            };
            for &(start, end, rid) in &hits {
                let fill = |img: Cow<'_, [u8]>| {
                    row.clear();
                    row.extend_from_slice(&img);
                };
                let (found, _) = self.read_view_with(table, Some(rid), &txn.handle, view, fill)?;
                if found.is_some() && !f(&keys[start..end], rid, &row) {
                    return Ok(());
                }
            }
            let Some(&(start, end, _)) = hits.last().filter(|_| more) else {
                return Ok(());
            };
            chunk = (chunk * 4).min(SCAN_CHUNK);
            // Resume at the last key handed out.
            if keys[start..end] != *from {
                from.clear();
                from.extend_from_slice(&keys[start..end]);
                seen_at_from.clear();
            }
            let at_from = hits.iter().filter(|h| keys[h.0..h.1] == *from);
            seen_at_from.extend(at_from.map(|h| h.2));
        }
    }

    // ------------------------------------------------------------------
    // Foreground data movement: cache, migrate, thaw
    // ------------------------------------------------------------------

    /// Run one foreground move of a row out of the location the caller
    /// saw (see [`crate::movement`]); returns whether the row moved.
    /// With `lock` the caller does not hold the row lock (select/cache
    /// path, pre-warm) and the move takes a conditional one. `Ok(false)`:
    /// the row stays where it was (gone, contended, or pinned to its
    /// page by snapshot history) and the caller keeps using that path.
    pub(crate) fn move_row(
        &self,
        table: &TableDesc,
        partition: &Partition,
        at: (RowId, RowLocation),
        to: To,
        lock: bool,
    ) -> Result<bool> {
        let op_start = self.sh.obs.start();
        // Past the move gate first: a cache or migrate skips while a
        // syslogs sync holds it, a thaw waits (see `MoveGate`).
        let pass = self.sh.moves.pass(to);
        let Some(_pass) = pass else { return Ok(false) };
        let moved = relocate(self, table, partition, &[at], to, lock)?.rows > 0;
        if moved && matches!(to, To::Imrs(_)) {
            self.sh.obs.record_since(OpClass::Migration, op_start);
        }
        Ok(moved)
    }

    /// The extent holding `row_id` at `(ext_id, idx)`. `None` when the
    /// slot is dead (row thawed concurrently), the extent left the
    /// directory (every row of it did), or the slot holds another row —
    /// re-resolve through the RID-Map.
    pub(crate) fn frozen_slot(
        &self,
        ext_id: u32,
        idx: u16,
        row_id: RowId,
    ) -> Option<Arc<FrozenExtent>> {
        let ext = self.sh.extents.get(ext_id)?;
        let i = idx as usize;
        (ext.row_id(i) == Some(row_id) && ext.is_live(i)).then_some(ext)
    }

    /// The frozen-extent directory (read-only view for scans, stats,
    /// and tests).
    pub fn extent_store(&self) -> &btrim_pagestore::ExtentStore {
        &self.sh.extents
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    fn ensure_begin(&self, txn: &mut Transaction) -> Result<()> {
        if !txn.wrote_syslog {
            self.sh
                .append_sys(&PageLogRecord::Begin { txn: txn.handle.id })?;
            txn.wrote_syslog = true;
        }
        Ok(())
    }

    /// Commit a transaction, returning its commit timestamp.
    ///
    /// On `Err` the commit was **not acknowledged**: the log write or
    /// flush failed, so after a crash the transaction may or may not
    /// survive (its records may have partially reached the device).
    /// Locks are always released and the engine stays usable; a failed
    /// log *append* additionally turns the engine read-only, because
    /// the log tail may be torn (see [`Shared::append_sys`]).
    pub fn commit(&self, mut txn: Transaction) -> Result<Timestamp> {
        let op_start = self.sh.obs.start();
        let id = txn.handle.id;
        // Reserve the commit timestamp, walk the write set once forward
        // stamping every artifact the transaction created (version
        // chains, side-store entries), and only then publish the
        // timestamp to the clock. A snapshot reader whose
        // begin-timestamp admits this commit therefore began *after*
        // publication — and publication happens after every stamp, so
        // the reader can never catch a version still carrying the
        // placeholder and wrongly skip (or a side entry still pending
        // and wrongly apply) it. Nothing but stamping happens in here:
        // later reservations cannot publish until this one has.
        // The slots our deletes kept (`delete_page`; our row lock kept
        // anyone else out of them), read while our tombstones are sure
        // to stand: retirement may clear them once the commit is published.
        let mut kept: Vec<_> = txn
            .writes
            .iter()
            .filter_map(|w| match *w {
                Write::Page { row, partition } => match self.sh.ridmap.get(row) {
                    Some(RowLocation::Tombstone(page, slot)) => {
                        Some((row, partition, (page, slot)))
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect();
        kept.sort_unstable_by_key(|k| k.0);
        kept.dedup_by_key(|k| k.0);
        // Reserved through the checkpointer: a checkpoint's image waits
        // until every commit at or below its snapshot has appended.
        let ts = self.sh.ckpt.reserve_commit(&self.sh.txns);
        for w in &txn.writes {
            if let Write::Imrs { version, .. } = w {
                version.stamp(ts);
            }
        }
        let queued = self.sh.side.stamp(&txn.writes, id, ts);
        self.sh.txns.finish_commit(txn.handle, ts);
        // What this transaction logs decides everything below: which
        // logs it appends to, which it waits for, and which commit-shape
        // counter it lands in.
        let (wrote_imrs, wrote_sys) = (!txn.imrs_redo.is_empty(), txn.wrote_syslog);
        self.sh.commit_shapes.count(wrote_imrs, wrote_sys);
        let appended: Result<()> = (|| {
            if wrote_imrs {
                // The records were serialized at DML time; what's left
                // on the commit path is stamping the commit timestamp
                // into each staged record and slicing the buffer.
                let ser_start = self.sh.obs.start();
                txn.imrs_redo.stamp(ts, wrote_sys);
                let records = txn.imrs_redo.records();
                self.sh
                    .obs
                    .record_since(OpClass::CommitSerialize, ser_start);
                // One atomic batch append: one lock acquisition on the
                // log, and a torn tail can never keep a prefix of this
                // transaction's records. For an IMRS-only transaction
                // this frame *is* the commit record — no syslogs
                // verdict exists for recovery to consult.
                self.sh.append_imrs_batch(&records)?;
            }
            if wrote_sys {
                let logged = self.sh.append_sys(&PageLogRecord::Commit {
                    txn: id,
                    ts,
                    imrs_batch: wrote_imrs,
                })?;
                // Behind the verdict, the slots our deletes kept go.
                for &(_, partition, (page, slot)) in &kept {
                    if let Some(part) = self.sh.catalog.partition(partition) {
                        logged.heap_delete(&part.heap, &self.sh.cache, &mut [(page, slot)])?;
                    }
                }
            }
            Ok(())
        })();
        // Before the barrier: a checkpoint waiting for this commit holds
        // the move gate the barrier passes.
        self.sh.ckpt.appended(ts);
        let logged = appended.and_then(|()| {
            if self.sh.cfg.durable_commits {
                // Each log's barrier is its group commit, and a
                // transaction waits only for a log it appended to (none
                // for a read-only one: it must commit cleanly even when
                // the log device is gone), or a pack left volatile.
                // sysimrslogs goes first, through the move gate: a
                // durable syslogs `Commit` has every move's IMRS records
                // durable behind it (not always its own batch: recovery
                // then undoes it).
                let sh = &self.sh;
                sh.moves
                    .commit(&sh.imrslog, &sh.syslog, wrote_imrs, wrote_sys)?;
            }
            Ok(())
        });
        self.sh.health.note("commit", &logged);
        // Cleanup happens regardless of the log outcome — a failed
        // commit must never leave its locks behind, and its versions
        // are in the chains all the same: the write set hands its IMRS
        // rows to GC/queue maintenance, one queue lock per transaction.
        let imrs_rows = txn.writes.iter().filter_map(|w| match w {
            Write::Imrs { row, .. } => Some(*row),
            _ => None,
        });
        self.sh.gc.register_many(imrs_rows);
        self.sh.locks.unlock_all(id, txn.locks.iter());
        txn.locks.clear();
        txn.finished = true;
        // The commit histogram measures the commit itself (stamp, batch
        // append, group flush) on *both* outcomes — failed commits are
        // commits too, and dropping them hid exactly the slow tail
        // (timed-out syncs, dying devices) a latency histogram exists
        // to show. The amortized inline-maintenance tick is timed under
        // its own classes.
        self.sh.obs.record_since(OpClass::Commit, op_start);
        // The side store retires in commit order: about what this commit
        // queued, from the queue's front. A held snapshot's backlog is
        // GC's, not this transaction's.
        if queued > 0 {
            let horizon = self.sh.txns.oldest_active_snapshot();
            self.sh.side.retire(horizon, Some(queued), &self.sh.ridmap);
        }
        logged?;
        self.maybe_maintenance();
        Ok(ts)
    }

    /// Abort a transaction: walk the write set once backward, undoing
    /// each change against the state the later ones left restored —
    /// page-store changes physically, IMRS changes by dropping
    /// uncommitted versions, index entries by the inverse operation.
    pub fn abort(&self, mut txn: Transaction) {
        let id = txn.handle.id;
        for w in std::mem::take(&mut txn.writes).into_iter().rev() {
            self.apply_undo(id, w);
        }
        if txn.wrote_syslog {
            // Best-effort: if the Abort record cannot be written the
            // transaction is classified as a loser at recovery and
            // undone there — same outcome, just more work later.
            let _ = self.sh.append_sys(&PageLogRecord::Abort { txn: id });
        }
        self.sh.txns.abort(txn.handle);
        self.sh.locks.unlock_all(id, txn.locks.iter());
        txn.locks.clear();
        txn.finished = true;
    }

    /// Undo one write-set entry of transaction `id`, which still holds
    /// the row's exclusive lock: nobody else has moved or changed it.
    #[expect(
        clippy::disallowed_methods,
        reason = "undo restores the state before a change the log already covers \
                  or never acknowledged"
    )]
    fn apply_undo(&self, id: TxnId, w: Write) {
        let sh = &self.sh;
        match w {
            Write::Imrs { row, .. } => {
                // Every version of ours on the chain goes at once (a
                // second entry for the row finds none left).
                if let Some(r) = sh.store.get(row) {
                    if sh.store.rollback_row(&r, id, || sh.clock.now()) {
                        sh.ridmap.remove(row); // our own insert: the row is gone
                    }
                }
            }
            Write::Page { row, partition } => {
                let part = sh.catalog.partition(partition);
                let before = sh.side.newest_pending(row, id);
                if let (Some(part), Some(before)) = (part, before) {
                    if let Err(e) = self.restore_page_row(&part, row, before) {
                        // The page keeps our bytes, so the stash stays:
                        // readers go on rolling them back. No more
                        // writes, and no `Abort` record either — restart
                        // undoes this transaction as a loser.
                        let _ = sh.health.fail_stop::<()>("abort undo", e);
                        return;
                    }
                }
                // Only now: until the page held the before-image again,
                // readers needed the stash to roll our bytes back.
                sh.side.drop_newest_pending(row, id);
            }
            Write::KeyAdded {
                table,
                index,
                key,
                row,
            } => {
                let Some(table) = sh.catalog.table(table) else {
                    return;
                };
                match index {
                    IndexRef::Primary => {
                        let _ = table.primary.delete(&key, Some(row));
                        table.hash.remove(&key);
                    }
                    IndexRef::Secondary(idx) => {
                        if let Some(sec) = table.secondaries.read().get(idx) {
                            let _ = sec.tree.delete(&key, Some(row));
                        }
                    }
                }
            }
            Write::KeyRemoved {
                table,
                index,
                key,
                row,
            } => {
                let Some(table) = sh.catalog.table(table) else {
                    return;
                };
                match index {
                    IndexRef::Primary => {
                        let _ = table.primary.insert(&key, row);
                        // The hash index spans IMRS rows only.
                        if sh.ridmap.get(row) == Some(RowLocation::Imrs) {
                            table.hash.insert(&key, row);
                        }
                    }
                    IndexRef::Secondary(idx) => {
                        if let Some(sec) = table.secondaries.read().get(idx) {
                            let _ = sec.tree.insert(&key, row);
                        }
                    }
                }
            }
        }
    }

    /// Give page row `row` back the image it held before a change
    /// (`None`: it did not exist), wherever the RID-Map says the row is
    /// now — its address at the time of the change may be dead, or
    /// another row's. In place when the image fits; else, and after a
    /// delete, it is re-homed within the heap and the RID-Map repointed
    /// before the old copy goes.
    #[expect(
        clippy::disallowed_methods,
        reason = "undo restores the state before a change the log already covers \
                  or never acknowledged"
    )]
    fn restore_page_row(
        &self,
        part: &Partition,
        row: RowId,
        before: Option<Vec<u8>>,
    ) -> Result<()> {
        let sh = &self.sh;
        let heap = &part.heap;
        let at = match sh.ridmap.get(row) {
            // Our delete keeps the row in its slot until commit.
            Some(RowLocation::Page(page, slot) | RowLocation::Tombstone(page, slot)) => {
                Some((page, slot))
            }
            _ => None, // never published
        };
        match before {
            None => {
                sh.ridmap.remove(row);
            }
            Some(before) => {
                let payload = wrap_row(row, &before);
                if let Some((page, slot)) = at {
                    if heap.try_update_in_place(&sh.cache, page, slot, &payload)? {
                        sh.ridmap.set(row, RowLocation::Page(page, slot));
                        return Ok(());
                    }
                }
                let (page, slot) = heap.insert(&sh.cache, &payload)?;
                sh.ridmap.set(row, RowLocation::Page(page, slot));
            }
        }
        // The RID-Map no longer names the copy at `at`: retire it.
        if let Some((page, slot)) = at {
            heap.delete(&sh.cache, page, slot)?;
        }
        Ok(())
    }

    /// Experiment-facing statistics snapshot.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::collect(self)
    }

    /// The observability hub: per-class latency histograms and the ILM
    /// decision trace (drivers read percentiles and recent events from
    /// here; [`EngineSnapshot`] carries a rendered copy).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.sh.obs
    }
}
