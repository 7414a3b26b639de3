//! Sharded buffer cache with clock replacement, I/O outside the shard
//! latch, and latch-contention accounting.
//!
//! The cache is split into N shards, each an independently locked page
//! table plus clock state; a page's shard is fixed by a hash of its id.
//! Fetching a page pins its frame (pinned frames are never evicted);
//! the returned [`PageGuard`] unpins on drop. Replacement is the clock
//! (second-chance) algorithm over the unpinned frames of one shard.
//!
//! **No disk I/O happens under a shard lock.** A miss installs a frame
//! in `Pending` state, releases the shard, and reads from disk holding
//! only the frame's own latch; concurrent fetchers of the same page
//! wait on that frame, not the shard, so a slow read of page A never
//! blocks a hit on page B. Eviction likewise marks its victim
//! `Evicting`, drops the shard lock to write the page back, and only
//! then completes the removal — aborting if the page was re-pinned or
//! re-dirtied during the flush.
//!
//! Capacity is a single global frame budget. Each shard has a base
//! quota of `capacity / shards` frames plus a small borrow headroom;
//! a shard may exceed its quota as long as the global budget holds,
//! and eviction pressure is applied to the over-quota (home) shard
//! first, so shards drift back toward their quota. The per-shard cap
//! (quota + headroom) is a soft target, not a hard bound: concurrent
//! misses can overshoot it briefly, and pin pressure can hold a shard
//! above it — only the global budget is enforced exactly.
//!
//! Page-latch acquisition first *tries* the latch and counts a
//! contention event when it must block — this is the page-store
//! contention signal the ILM partition tuner consumes (§III, §V.D):
//! "operations on page-store which observed contention". Shard-lock
//! contention is tracked separately and does **not** feed the tuner;
//! it measures the cache's own bookkeeping overhead.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{BtrimError, PageId, PartitionId, Result};

use crate::disk::DiskBackend;
use crate::page::{
    stamp_page_checksum, verify_page_checksum, PageType, PageView, SlottedPage, PAGE_SIZE,
};

/// Frame is installed but its disk read is still in flight.
const STATE_PENDING: u8 = 0;
/// Frame data is valid.
const STATE_READY: u8 = 1;
/// The disk read failed; the frame has been unmapped.
const STATE_FAILED: u8 = 2;
/// An evictor is writing the (valid) data back outside the shard lock.
const STATE_EVICTING: u8 = 3;

/// One resident page frame.
struct Frame {
    page_id: PageId,
    data: RwLock<Box<[u8]>>,
    pin: AcqRel<u32>,
    referenced: Relaxed<bool>,
    dirty: AcqRel<bool>,
    state: AcqRel<u8>,
    /// Pairs with `io_cv` so fetchers can sleep until a pending read
    /// completes; protects nothing but the wait itself.
    io: Mutex<()>,
    io_cv: Condvar,
}

impl Frame {
    fn new(page_id: PageId, data: Box<[u8]>, state: u8, dirty: bool) -> Arc<Frame> {
        Arc::new(Frame {
            page_id,
            data: RwLock::with_rank(parking_lot::lock_rank::FRAME, data),
            pin: AcqRel::new(1),
            referenced: Relaxed::new(true),
            dirty: AcqRel::new(dirty),
            state: AcqRel::new(state),
            io: Mutex::with_rank(parking_lot::lock_rank::FRAME, ()),
            io_cv: Condvar::new(),
        })
    }

    /// Block until the frame leaves `Pending`; returns the final state.
    fn wait_ready(&self) -> u8 {
        let mut g = self.io.lock();
        loop {
            let s = self.state.load();
            if s != STATE_PENDING {
                return s;
            }
            self.io_cv.wait(&mut g);
        }
    }

    /// Publish a state transition and wake any waiting fetchers.
    fn set_state(&self, s: u8) {
        let _g = self.io.lock();
        self.state.store(s);
        self.io_cv.notify_all();
    }
}

/// Counters exported by the cache.
#[derive(Debug, Default)]
pub struct BufferStats {
    hits: Relaxed<u64>,
    misses: Relaxed<u64>,
    evictions: Relaxed<u64>,
    flushes: Relaxed<u64>,
    latch_contention: Relaxed<u64>,
    io_waits: Relaxed<u64>,
    io_errors: Relaxed<u64>,
    io_retries: Relaxed<u64>,
    checksum_failures: Relaxed<u64>,
    capacity_shifts: Relaxed<u64>,
}

/// Point-in-time snapshot of [`BufferStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStatsSnapshot {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back.
    pub flushes: u64,
    /// Page-latch acquisitions that had to block (the tuner's §V.D
    /// contention signal).
    pub latch_contention: u64,
    /// Shard-lock acquisitions that had to block, summed over shards.
    /// Cache bookkeeping overhead; not part of the tuner signal.
    pub shard_lock_contention: u64,
    /// Fetches that waited for another thread's in-flight disk read of
    /// the same page.
    pub io_waits: u64,
    /// Device read/write calls that returned an error (before retry
    /// accounting: every failed attempt counts).
    pub io_errors: u64,
    /// Failed device calls that were retried (transient-error policy).
    pub io_retries: u64,
    /// Pages whose checksum did not match on fetch (torn write or
    /// corruption); such pages are never served as valid data.
    pub checksum_failures: u64,
    /// Current global frame budget (moves only through `set_capacity`).
    pub capacity: u64,
    /// Frames resident beyond the budget after a shrink — pins holding
    /// reclamation back; drains to zero as they release.
    pub shrink_debt: u64,
    /// `set_capacity` calls served.
    pub capacity_shifts: u64,
}

/// Per-shard occupancy and contention, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStat {
    /// Frames resident in this shard.
    pub resident: usize,
    /// Blocking acquisitions of this shard's lock.
    pub lock_contention: u64,
}

thread_local! {
    /// Latch-contention events observed by the current thread since the
    /// last [`BufferCache::take_thread_contention`] call. Lets the
    /// engine attribute contention to the partition whose operation
    /// observed it (§V.D's re-enable signal).
    static THREAD_CONTENTION: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Page buffers a thread's write-backs stamp and verify in.
#[derive(Default)]
struct WriteScratch {
    /// The page as written: the frame's bytes with the checksum stamped.
    page: Vec<u8>,
    /// The device's copy, read back when writes are verified.
    check: Vec<u8>,
}

thread_local! {
    /// Reused by every write-back on this thread.
    static WRITE_SCRATCH: std::cell::RefCell<WriteScratch> = std::cell::RefCell::default();
}

/// Page buffers of evicted frames a shard keeps for its next misses.
const SPARE_PAGES: usize = 8;

fn zeroed_page() -> Box<[u8]> {
    vec![0u8; PAGE_SIZE].into_boxed_slice()
}

/// One independently locked slice of the cache.
struct Shard {
    inner: Mutex<ShardInner>,
    lock_contention: Relaxed<u64>,
}

struct ShardInner {
    /// Resident frames in clock order; eviction uses `swap_remove`, so
    /// the order is a rotation-with-substitution rather than strict
    /// insertion order (second-chance bits still protect hot pages).
    frames: Vec<Arc<Frame>>,
    /// Page id -> index into `frames`.
    map: HashMap<PageId, usize>,
    hand: usize,
    /// Page buffers of evicted frames, at most [`SPARE_PAGES`]; a miss
    /// reads into one, a new page formats one, instead of allocating.
    /// A read that succeeds overwrites the whole page and formatting
    /// zeroes it, so their old bytes never show.
    spare: Vec<Box<[u8]>>,
}

impl ShardInner {
    /// O(1) removal of the frame at `idx`, fixing up the moved entry's
    /// map slot and the clock hand.
    fn remove_at(&mut self, idx: usize) {
        let frame = self.frames.swap_remove(idx);
        self.map.remove(&frame.page_id);
        if idx < self.frames.len() {
            let moved = self.frames[idx].page_id;
            self.map.insert(moved, idx);
        }
        if self.hand > idx {
            self.hand -= 1;
        }
    }
}

/// Outcome of one eviction attempt on one shard.
enum EvictOutcome {
    /// A frame was removed and the global budget credited.
    Evicted,
    /// A victim was chosen but re-pinned/re-dirtied during write-back;
    /// it was restored. Progress was made (its reference state aged).
    Aborted,
    /// No evictable frame in this shard right now.
    Nothing,
}

/// The buffer cache.
pub struct BufferCache {
    backend: Arc<dyn DiskBackend>,
    /// Global frame budget. Atomic so `set_capacity` can retarget it
    /// at runtime: growing takes effect on the next reserve; a
    /// shrink leaves `resident` above `capacity` (the *shrink debt*)
    /// and is drained lazily by eviction — pinned frames are never
    /// failed, they simply hold their part of the debt until unpinned.
    capacity: AcqRel<usize>,
    /// Frames currently charged against `capacity` (resident plus
    /// pending installs).
    resident: AcqRel<usize>,
    shards: Box<[Shard]>,
    /// Soft per-shard bound: base quota plus borrow headroom. "Soft"
    /// twice over: concurrent misses check it under separate lock
    /// acquisitions and may briefly overshoot in unison, and a shard
    /// whose over-cap frames are all pinned is allowed past it as long
    /// as the global budget holds. Eviction pressure targets the home
    /// shard first, pulling over-cap shards back down. Recomputed by
    /// [`BufferCache::set_capacity`], hence atomic.
    shard_cap: AcqRel<usize>,
    stats: BufferStats,
    /// Bounded retry policy for transient device errors: total attempts
    /// per logical read/write, and the base backoff between attempts
    /// (scaled linearly by attempt number).
    retry_attempts: u32,
    retry_backoff: std::time::Duration,
    verify_writes: bool,
    /// Optional latency histogram (nanoseconds) for the miss path:
    /// room-making + device read + frame install. The hit path is
    /// never timed — misses are where the latency story lives, and the
    /// hot hit path must stay untouched.
    miss_hist: Option<Arc<btrim_common::LatencyHistogram>>,
}

/// Default attempts per device call (1 initial + 2 retries).
const DEFAULT_IO_RETRY_ATTEMPTS: u32 = 3;
/// Default base backoff between retries.
const DEFAULT_IO_RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_micros(200);

/// Whether an error is worth retrying. Only raw device I/O failures
/// are considered transient; typed errors (missing page, short buffer,
/// checksum mismatch) are deterministic and retrying cannot help.
fn is_transient(e: &BtrimError) -> bool {
    matches!(e, BtrimError::Io(_))
}

/// Bound on reserve/evict rounds before giving up; only reachable under
/// pathological contention where other threads keep stealing every
/// freed slot.
const MAX_ROOM_ROUNDS: usize = 64;

impl BufferCache {
    /// Create a cache of `capacity` frames over `backend`, with an
    /// automatically chosen shard count (1 for small caches, up to 16
    /// for large ones).
    pub fn new(backend: Arc<dyn DiskBackend>, capacity: usize) -> Self {
        Self::with_shards(backend, capacity, 0)
    }

    /// Create a cache with an explicit shard count; `shards == 0`
    /// selects automatically.
    pub fn with_shards(backend: Arc<dyn DiskBackend>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer cache needs at least one frame");
        let n = if shards == 0 {
            auto_shards(capacity)
        } else {
            shards
        };
        assert!(n <= capacity, "more shards than frames");
        let quota = capacity / n;
        let shard_cap = soft_shard_cap(capacity, n);
        let shards = (0..n)
            .map(|_| Shard {
                inner: Mutex::with_rank(
                    parking_lot::lock_rank::BUFFER_SHARD,
                    ShardInner {
                        frames: Vec::with_capacity(quota + 1),
                        map: HashMap::with_capacity(quota + 1),
                        hand: 0,
                        spare: Vec::new(),
                    },
                ),
                lock_contention: Relaxed::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        BufferCache {
            backend,
            capacity: AcqRel::new(capacity),
            resident: AcqRel::new(0),
            shards,
            shard_cap: AcqRel::new(shard_cap),
            stats: BufferStats::default(),
            retry_attempts: DEFAULT_IO_RETRY_ATTEMPTS,
            retry_backoff: DEFAULT_IO_RETRY_BACKOFF,
            verify_writes: false,
            miss_hist: None,
        }
    }

    /// Attach a miss-fetch latency histogram (builder style). Records
    /// nanoseconds per successful miss resolution; the hit path is
    /// unaffected.
    pub fn with_miss_histogram(
        mut self,
        hist: Option<Arc<btrim_common::LatencyHistogram>>,
    ) -> Self {
        self.miss_hist = hist;
        self
    }

    /// Override the transient-error retry policy (builder style).
    /// `attempts` is the total number of device calls per logical
    /// operation; 1 disables retries entirely.
    pub fn with_io_retry(mut self, attempts: u32, backoff: std::time::Duration) -> Self {
        self.retry_attempts = attempts.max(1);
        self.retry_backoff = backoff;
        self
    }

    /// Enable read-back verification of page write-backs (builder
    /// style). After a successful device write the page is read back
    /// and compared byte-for-byte; a mismatch — a torn or otherwise
    /// lying write the device acknowledged — is treated as a transient
    /// error and retried. Detecting the tear *here*, while the redo log
    /// still covers the page, is what keeps a later checkpoint from
    /// truncating the only evidence that could repair it.
    pub fn with_write_verification(mut self, on: bool) -> Self {
        self.verify_writes = on;
        self
    }

    /// Read a page with bounded retry on transient device errors.
    fn read_with_retry(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let mut attempt = 1u32;
        loop {
            match self.backend.read_page(id, buf) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.stats.io_errors.fetch_add(1);
                    if !is_transient(&e) || attempt >= self.retry_attempts {
                        return Err(e);
                    }
                    self.stats.io_retries.fetch_add(1);
                    std::thread::sleep(self.retry_backoff * attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// Write a page with bounded retry on transient device errors.
    /// Callers hold the frame's *read* latch across this call: that
    /// write-orders flushes against page writers (an older in-flight
    /// flush can never overwrite a newer image on the device), while
    /// concurrent readers stay unblocked. The checksum and format epoch
    /// are stamped on a private copy so readers of the frame never see
    /// the checksum field mutate under them.
    fn write_with_retry(&self, id: PageId, data: &[u8]) -> Result<()> {
        WRITE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.write_stamped(id, data, &mut scratch),
            Err(_) => self.write_stamped(id, data, &mut WriteScratch::default()),
        })
    }

    /// [`write_with_retry`](Self::write_with_retry) with the stamped copy
    /// and the verification read-back in `scratch`'s buffers.
    fn write_stamped(&self, id: PageId, data: &[u8], scratch: &mut WriteScratch) -> Result<()> {
        let WriteScratch { page: tmp, check } = scratch;
        tmp.clear();
        tmp.extend_from_slice(data);
        stamp_page_checksum(tmp);
        let mut attempt = 1u32;
        loop {
            let wrote = self.backend.write_page(id, tmp).and_then(|()| {
                if !self.verify_writes {
                    return Ok(());
                }
                check.resize(tmp.len(), 0);
                self.backend.read_page(id, check)?;
                if check != tmp {
                    return Err(BtrimError::Io(std::io::Error::other(format!(
                        "write verification failed for page {}: device image \
                         differs from the acknowledged write (torn write?)",
                        id.0
                    ))));
                }
                Ok(())
            });
            match wrote {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.stats.io_errors.fetch_add(1);
                    if !is_transient(&e) || attempt >= self.retry_attempts {
                        return Err(e);
                    }
                    self.stats.io_retries.fetch_add(1);
                    std::thread::sleep(self.retry_backoff * attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// The underlying device.
    pub fn backend(&self) -> &Arc<dyn DiskBackend> {
        &self.backend
    }

    /// Cache capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity.load()
    }

    /// Retarget the global frame budget at runtime.
    ///
    /// Growing takes effect immediately: the next reserve sees the
    /// larger budget. Shrinking never fails a pinned frame: the new
    /// (lower) capacity is published first, a best-effort eviction
    /// sweep drains what it can right away, and whatever remains —
    /// frames that are pinned, referenced, or mid-I/O — stays resident
    /// as *shrink debt* ([`BufferCache::shrink_debt`]) that ordinary
    /// eviction pressure pays down as pins are released. Write-back
    /// errors during the sweep leave the victim resident (counted in
    /// `io_errors`) rather than failing the capacity change.
    ///
    /// Returns the shrink debt remaining after the sweep (0 on grow).
    pub fn set_capacity(&self, frames: usize) -> usize {
        let frames = frames.max(1);
        let n = self.shards.len();
        self.capacity.store(frames);
        self.shard_cap.store(soft_shard_cap(frames, n));
        self.stats.capacity_shifts.fetch_add(1);
        self.drain_shrink_debt();
        self.shrink_debt()
    }

    /// Frames resident beyond the current capacity — the unpaid part of
    /// a shrink. Zero except after [`BufferCache::set_capacity`]
    /// lowered the budget below what pins and in-flight I/O allow
    /// eviction to reclaim immediately.
    pub fn shrink_debt(&self) -> usize {
        self.resident.load().saturating_sub(self.capacity.load())
    }

    /// Best-effort eviction sweep until `resident <= capacity` or no
    /// shard can make progress (everything left is pinned, referenced,
    /// or mid-I/O). Never blocks on pins; write-back failures skip the
    /// victim. Bounded so a frame that keeps getting re-pinned
    /// mid-flush cannot spin this loop forever.
    fn drain_shrink_debt(&self) {
        let n = self.shards.len();
        let mut rounds = 2 * self.resident.load() + 2 * n;
        let mut start = 0usize;
        while rounds > 0 && self.shrink_debt() > 0 {
            let mut progressed = false;
            for k in 0..n {
                rounds = rounds.saturating_sub(1);
                match self.evict_one((start + k) % n) {
                    Ok(EvictOutcome::Evicted | EvictOutcome::Aborted) => {
                        start = (start + k + 1) % n;
                        progressed = true;
                        break;
                    }
                    // Write-back failure: the victim stays resident and
                    // the error is already counted; keep sweeping other
                    // shards.
                    Ok(EvictOutcome::Nothing) | Err(_) => {}
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Currently resident frames (including in-flight installs).
    pub fn resident(&self) -> usize {
        self.resident.load()
    }

    /// Frames currently pinned by outstanding guards.
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = self.lock_shard(s);
                inner.frames.iter().filter(|f| f.pin.load() > 0).count()
            })
            .sum()
    }

    /// Statistics counters.
    pub fn stats(&self) -> BufferStatsSnapshot {
        let mut s = BufferStatsSnapshot {
            hits: self.stats.hits.load(),
            misses: self.stats.misses.load(),
            evictions: self.stats.evictions.load(),
            flushes: self.stats.flushes.load(),
            latch_contention: self.stats.latch_contention.load(),
            shard_lock_contention: 0,
            io_waits: self.stats.io_waits.load(),
            io_errors: self.stats.io_errors.load(),
            io_retries: self.stats.io_retries.load(),
            checksum_failures: self.stats.checksum_failures.load(),
            capacity: self.capacity() as u64,
            shrink_debt: self.shrink_debt() as u64,
            capacity_shifts: self.stats.capacity_shifts.load(),
        };
        for shard in self.shards.iter() {
            s.shard_lock_contention += shard.lock_contention.load();
        }
        s
    }

    /// Per-shard occupancy and lock-contention counters.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .map(|s| ShardStat {
                resident: self.lock_shard(s).frames.len(),
                lock_contention: s.lock_contention.load(),
            })
            .collect()
    }

    /// Latch-contention events seen by the *calling thread* since the
    /// previous call; resets the thread-local counter. Callers bracket a
    /// page operation with this to attribute contention to the partition
    /// being operated on. Only page-latch blocking counts here — shard
    /// locks and I/O waits never feed this signal.
    pub fn take_thread_contention(&self) -> u64 {
        THREAD_CONTENTION.with(|c| c.replace(0))
    }

    fn shard_of(&self, id: PageId) -> usize {
        // Fibonacci hashing spreads sequential page ids across shards.
        let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Acquire a shard lock, counting a contention event if it blocks.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardInner> {
        match shard.inner.try_lock() {
            Some(g) => g,
            None => {
                shard.lock_contention.fetch_add(1);
                shard.inner.lock()
            }
        }
    }

    /// Charge one frame against the global budget if it fits.
    fn try_reserve(&self) -> bool {
        let cap = self.capacity.load();
        self.resident
            .fetch_update(|cur| (cur < cap).then_some(cur + 1))
            .is_ok()
    }

    /// Pin an existing page into the cache, reading from disk on miss.
    /// Pages read from the device are checksum-verified; a mismatch is
    /// reported as [`BtrimError::ChecksumMismatch`] and the bytes are
    /// never served.
    pub fn fetch(&self, id: PageId) -> Result<PageGuard<'_>> {
        self.fetch_inner(id, true)
    }

    /// Pin a page *without* checksum verification. Recovery-only: the
    /// caller takes responsibility for verifying (or reformatting) the
    /// bytes before anything else can fetch them.
    pub fn fetch_unchecked(&self, id: PageId) -> Result<PageGuard<'_>> {
        self.fetch_inner(id, false)
    }

    fn fetch_inner(&self, id: PageId, verify: bool) -> Result<PageGuard<'_>> {
        let si = self.shard_of(id);
        let shard = &self.shards[si];
        loop {
            // Hit path: pin under the shard lock so eviction's pin check
            // is linearized against us, then get off the lock.
            let hit = {
                let inner = self.lock_shard(shard);
                inner.map.get(&id).map(|&idx| {
                    let f = &inner.frames[idx];
                    f.pin.fetch_add(1);
                    f.referenced.store(true);
                    Arc::clone(f)
                })
            };
            if let Some(frame) = hit {
                match frame.state.load() {
                    // `Evicting` data is still valid; our pin makes the
                    // evictor abort when it re-checks.
                    STATE_READY | STATE_EVICTING => {
                        self.stats.hits.fetch_add(1);
                        return Ok(PageGuard { cache: self, frame });
                    }
                    _ => {
                        // Another thread's read is in flight; wait on
                        // the frame, not the shard. The hit is counted
                        // only once the read lands, so one logical
                        // fetch counts exactly one of hit/miss (an
                        // io_wait overlays the hit; a failed read
                        // retries and counts as the retry's miss).
                        self.stats.io_waits.fetch_add(1);
                        if frame.wait_ready() == STATE_FAILED {
                            frame.pin.fetch_sub(1);
                            continue;
                        }
                        self.stats.hits.fetch_add(1);
                        return Ok(PageGuard { cache: self, frame });
                    }
                }
            }

            // Miss: reserve a frame, install it Pending, then read with
            // no shard lock held.
            self.stats.misses.fetch_add(1);
            let miss_start = self.miss_hist.as_ref().map(|_| std::time::Instant::now());
            self.make_room(si)?;
            let frame = {
                let mut inner = self.lock_shard(shard);
                if inner.map.contains_key(&id) {
                    // Lost the install race; return the slot and join
                    // the winner's frame via the hit path.
                    drop(inner);
                    self.resident.fetch_sub(1);
                    continue;
                }
                let data = inner.spare.pop().unwrap_or_else(zeroed_page);
                let frame = Frame::new(id, data, STATE_PENDING, false);
                let idx = inner.frames.len();
                inner.frames.push(Arc::clone(&frame));
                inner.map.insert(id, idx);
                frame
            };
            let read = {
                let mut data = frame.data.write();
                self.read_with_retry(id, &mut data).and_then(|()| {
                    if verify && !verify_page_checksum(&data) {
                        self.stats.checksum_failures.fetch_add(1);
                        Err(BtrimError::ChecksumMismatch(id))
                    } else {
                        Ok(())
                    }
                })
            };
            match read {
                Ok(()) => {
                    frame.set_state(STATE_READY);
                    if let (Some(h), Some(t)) = (&self.miss_hist, miss_start) {
                        h.record(t.elapsed().as_nanos() as u64);
                    }
                    return Ok(PageGuard { cache: self, frame });
                }
                Err(e) => {
                    {
                        let mut inner = self.lock_shard(shard);
                        // The pending frame was installed above and only
                        // this thread may remove it; missing means the
                        // shard map is corrupt, so keep the frame and
                        // surface the read error.
                        if let Some(&idx) = inner.map.get(&id) {
                            inner.remove_at(idx);
                        }
                    }
                    self.resident.fetch_sub(1);
                    frame.set_state(STATE_FAILED);
                    frame.pin.fetch_sub(1);
                    return Err(e);
                }
            }
        }
    }

    /// Allocate a brand-new formatted page and pin it.
    pub fn new_page(&self, page_type: PageType, partition: PartitionId) -> Result<PageGuard<'_>> {
        let id = self.backend.allocate_page()?;
        let si = self.shard_of(id);
        self.make_room(si)?;
        let mut inner = self.lock_shard(&self.shards[si]);
        let mut data = inner.spare.pop().unwrap_or_else(zeroed_page);
        SlottedPage::init(&mut data, page_type, id, partition);
        let frame = Frame::new(id, data, STATE_READY, true);
        debug_assert!(!inner.map.contains_key(&id), "fresh page id already mapped");
        let idx = inner.frames.len();
        inner.frames.push(Arc::clone(&frame));
        inner.map.insert(id, idx);
        drop(inner);
        Ok(PageGuard { cache: self, frame })
    }

    /// Reserve one frame's worth of global budget, evicting as needed.
    /// Eviction pressure goes to the home shard first so over-quota
    /// shards shrink back toward `capacity / shards`.
    fn make_room(&self, home: usize) -> Result<()> {
        // An eviction write-back that fails (the victim is re-marked
        // dirty and stays resident) is not fatal by itself: another
        // shard may still hold an evictable clean frame. The error is
        // remembered and surfaced only if no progress is possible at
        // all — that way one bad write never turns a healthy cache
        // with free room into a fetch failure.
        let mut last_io_err: Option<BtrimError> = None;
        for _ in 0..MAX_ROOM_ROUNDS {
            // Per-shard overflow bound: borrowing pauses at shard_cap
            // so over-quota shards shed load before dipping into the
            // global budget again.
            let over = self.lock_shard(&self.shards[home]).frames.len() >= self.shard_cap.load();
            if over {
                match self.evict_one(home) {
                    Ok(EvictOutcome::Evicted | EvictOutcome::Aborted) => continue,
                    // Everything over-cap in the home shard is pinned
                    // or mid-I/O: the cap is soft under pin pressure,
                    // so fall through to the global budget rather than
                    // failing while other shards still have room.
                    Ok(EvictOutcome::Nothing) => {}
                    Err(e) => last_io_err = Some(e),
                }
            }
            if self.try_reserve() {
                return Ok(());
            }
            let n = self.shards.len();
            let mut progressed = false;
            for k in 0..n {
                match self.evict_one((home + k) % n) {
                    Ok(EvictOutcome::Evicted | EvictOutcome::Aborted) => {
                        progressed = true;
                        break;
                    }
                    Ok(EvictOutcome::Nothing) => {}
                    Err(e) => last_io_err = Some(e),
                }
            }
            if !progressed {
                return Err(match last_io_err {
                    Some(e) => e,
                    None => BtrimError::BufferExhausted {
                        pinned: self.pinned_frames(),
                        capacity: self.capacity.load(),
                    },
                });
            }
        }
        Err(match last_io_err {
            Some(e) => e,
            None => BtrimError::BufferExhausted {
                pinned: self.pinned_frames(),
                capacity: self.capacity.load(),
            },
        })
    }

    /// Clock sweep over one shard: pick an unpinned, unreferenced,
    /// `Ready` victim, write it back *outside* the shard lock, then
    /// complete the removal — unless the page was re-pinned or
    /// re-dirtied mid-flush, in which case the eviction aborts and the
    /// frame stays resident.
    fn evict_one(&self, si: usize) -> Result<EvictOutcome> {
        let shard = &self.shards[si];
        let victim = {
            let mut inner = self.lock_shard(shard);
            let len = inner.frames.len();
            if len == 0 {
                return Ok(EvictOutcome::Nothing);
            }
            let mut found = None;
            // Two full sweeps: first clears reference bits, second evicts.
            for _ in 0..2 * len {
                let hand = inner.hand % len;
                inner.hand = hand + 1;
                let frame = &inner.frames[hand];
                if frame.state.load() != STATE_READY {
                    continue;
                }
                if frame.pin.load() > 0 {
                    continue;
                }
                if frame.referenced.swap(false) {
                    continue;
                }
                frame.state.store(STATE_EVICTING);
                found = Some(Arc::clone(frame));
                break;
            }
            match found {
                Some(f) => f,
                None => return Ok(EvictOutcome::Nothing),
            }
        };

        // Write-back with no shard lock held: hits on other pages of
        // this shard proceed during the flush. On failure (after the
        // bounded retries) the frame is re-marked dirty and stays
        // resident — the cache never drops the only copy of a page.
        if victim.dirty.swap(false) {
            let wrote = {
                let data = victim.data.read();
                self.write_with_retry(victim.page_id, &data)
            };
            if let Err(e) = wrote {
                victim.dirty.store(true);
                victim.set_state(STATE_READY);
                return Err(e);
            }
            self.stats.flushes.fetch_add(1);
        }

        let mut inner = self.lock_shard(shard);
        if victim.pin.load() > 0 || victim.dirty.load() {
            // Re-fetched (or re-dirtied) during the flush: keep it.
            victim.set_state(STATE_READY);
            return Ok(EvictOutcome::Aborted);
        }
        // The victim was chosen from this shard's map under the same
        // lock discipline; it cannot have been removed while STATE_IO
        // was published. Treat a miss as map corruption.
        let idx = *inner.map.get(&victim.page_id).ok_or_else(|| {
            BtrimError::Corrupt("evicting frame not resident in its shard map".into())
        })?;
        inner.remove_at(idx);
        // Keep the page buffer unless someone still has the frame (a
        // guard that just unpinned it, a flush that cloned it).
        if inner.spare.len() < SPARE_PAGES {
            if let Ok(frame) = Arc::try_unwrap(victim) {
                inner.spare.push(frame.data.into_inner());
            }
        }
        drop(inner);
        self.resident.fetch_sub(1);
        self.stats.evictions.fetch_add(1);
        Ok(EvictOutcome::Evicted)
    }

    /// Write back every dirty page (checkpoint support). Pages stay
    /// resident. Flushes run without any shard lock held.
    ///
    /// Each frame is pinned under the shard lock before its dirty bit
    /// is cleared. The pin keeps eviction from racing the checkpoint
    /// write: `evict_one` skips pinned frames when choosing a victim
    /// and re-checks the pin before removal, so a frame whose
    /// checkpoint write is in flight can neither be dropped from the
    /// cache (which could resurface stale disk bytes on re-fetch) nor
    /// have an older eviction write-back land after ours.
    pub fn flush_all(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let frames: Vec<Arc<Frame>> = {
                let inner = self.lock_shard(shard);
                inner
                    .frames
                    .iter()
                    .map(|f| {
                        f.pin.fetch_add(1);
                        Arc::clone(f)
                    })
                    .collect()
            };
            let mut flush_err = None;
            for frame in &frames {
                // Pending frames are never dirty; Evicting frames had
                // their dirty bit claimed by the evictor's own
                // write-back, whose removal our pin now aborts.
                if frame.dirty.swap(false) {
                    let wrote = {
                        let data = frame.data.read();
                        self.write_with_retry(frame.page_id, &data)
                    };
                    if let Err(e) = wrote {
                        frame.dirty.store(true);
                        flush_err = Some(e);
                        break;
                    }
                    self.stats.flushes.fetch_add(1);
                }
            }
            for frame in &frames {
                frame.pin.fetch_sub(1);
            }
            if let Some(e) = flush_err {
                return Err(e);
            }
        }
        self.backend.sync()
    }

    /// Page ids of every dirty resident frame — the dirty-page table a
    /// fuzzy checkpoint snapshots at begin. One shard lock at a time;
    /// the result is a moment-in-time view, which is all a fuzzy
    /// checkpoint needs (pages dirtied after the snapshot carry log
    /// records above the checkpoint's low-water LSN).
    pub fn dirty_page_ids(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let inner = self.lock_shard(shard);
            out.extend(
                inner
                    .frames
                    .iter()
                    .filter(|f| f.dirty.load())
                    .map(|f| f.page_id),
            );
        }
        out
    }

    /// Write back the named pages (one fuzzy-checkpoint batch),
    /// returning how many were actually flushed. Pages stay resident;
    /// writers are never quiesced — the shard lock is held only to pin,
    /// each write runs lock-free under the frame latch, exactly the
    /// [`flush_all`](Self::flush_all) discipline. A page that was
    /// evicted (its eviction write-back already persisted it) or
    /// cleaned since enumeration is skipped. Does **not** sync the
    /// backend; the checkpoint syncs once after its last batch.
    pub fn flush_pages(&self, pages: &[PageId]) -> Result<usize> {
        let mut flushed = 0usize;
        for &id in pages {
            let shard = &self.shards[self.shard_of(id)];
            let frame = {
                let inner = self.lock_shard(shard);
                inner.map.get(&id).map(|&idx| {
                    let f = &inner.frames[idx];
                    f.pin.fetch_add(1);
                    Arc::clone(f)
                })
            };
            let Some(frame) = frame else { continue };
            let mut flush_err = None;
            if frame.dirty.swap(false) {
                let wrote = {
                    let data = frame.data.read();
                    self.write_with_retry(frame.page_id, &data)
                };
                match wrote {
                    Ok(()) => {
                        self.stats.flushes.fetch_add(1);
                        flushed += 1;
                    }
                    Err(e) => {
                        frame.dirty.store(true);
                        flush_err = Some(e);
                    }
                }
            }
            frame.pin.fetch_sub(1);
            if let Some(e) = flush_err {
                return Err(e);
            }
        }
        Ok(flushed)
    }

    /// Durably sync the backing device (the fuzzy checkpoint's single
    /// sync after its last [`flush_pages`](Self::flush_pages) batch).
    pub fn sync_backend(&self) -> Result<()> {
        self.backend.sync()
    }
}

/// Soft per-shard bound for a given global capacity: base quota plus a
/// 25% (min 2) borrow headroom, never above the global capacity.
fn soft_shard_cap(capacity: usize, shards: usize) -> usize {
    if shards <= 1 {
        return capacity;
    }
    let quota = capacity / shards;
    (quota + (quota / 4).max(2)).min(capacity)
}

/// Largest power of two ≤ capacity/32, clamped to [1, 16]; tiny caches
/// stay unsharded so replacement behaves exactly like a single clock.
fn auto_shards(capacity: usize) -> usize {
    if capacity < 64 {
        return 1;
    }
    let target = (capacity / 32).clamp(1, 16);
    1 << (usize::BITS - 1 - target.leading_zeros())
}

/// A pinned page. Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    cache: &'a BufferCache,
    frame: Arc<Frame>,
}

impl PageGuard<'_> {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.frame.page_id
    }

    /// Run `f` with shared (read) access to the page bytes. Counts a
    /// contention event if the latch had to block.
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let guard = match self.frame.data.try_read() {
            Some(g) => g,
            None => {
                self.cache.stats.latch_contention.fetch_add(1);
                THREAD_CONTENTION.with(|c| c.set(c.get() + 1));
                self.frame.data.read()
            }
        };
        f(&guard)
    }

    /// Run `f` with exclusive (write) access to the page bytes and mark
    /// the page dirty. Counts a contention event if the latch blocked.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut guard = match self.frame.data.try_write() {
            Some(g) => g,
            None => {
                self.cache.stats.latch_contention.fetch_add(1);
                THREAD_CONTENTION.with(|c| c.set(c.get() + 1));
                self.frame.data.write()
            }
        };
        self.frame.dirty.store(true);
        f(&mut guard)
    }

    /// Convenience: read access through a [`PageView`].
    pub fn with_page_read<R>(&self, f: impl FnOnce(&PageView<'_>) -> R) -> R {
        self.with_read(|buf| f(&PageView::new(buf)))
    }

    /// Convenience: write access through a [`SlottedPage`] view.
    pub fn with_page_write<R>(&self, f: impl FnOnce(&mut SlottedPage<'_>) -> R) -> R {
        self.with_write(|buf| {
            let mut page = SlottedPage::new(buf);
            f(&mut page)
        })
    }
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.frame.page_id)
            .field("pins", &self.frame.pin)
            .finish()
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn cache(frames: usize) -> BufferCache {
        BufferCache::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn new_page_then_fetch_hits() {
        let c = cache(4);
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(1)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"row-one").unwrap();
            });
            g.page_id()
        };
        let g = c.fetch(id).unwrap();
        g.with_page_read(|p| {
            assert_eq!(p.get(btrim_common::SlotId(0)).unwrap(), b"row-one");
            assert_eq!(p.partition(), PartitionId(1));
        });
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn eviction_and_reload_preserves_data() {
        let c = cache(2);
        let mut ids = Vec::new();
        for i in 0..5u8 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[i; 16]).unwrap();
            });
            ids.push(g.page_id());
        }
        assert!(c.resident() <= 2);
        // Every page readable, including evicted ones.
        for (i, id) in ids.iter().enumerate() {
            let g = c.fetch(*id).unwrap();
            g.with_page_read(|p| {
                assert_eq!(p.get(btrim_common::SlotId(0)).unwrap(), &[i as u8; 16]);
            });
        }
        let s = c.stats();
        assert!(s.evictions >= 3);
        assert!(s.flushes >= 3, "dirty evictions must write back");
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let c = cache(2);
        let g1 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        let g2 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        // Cache full of pinned pages: another allocation must fail, and
        // the error distinguishes "pin leak" from "cache too small".
        match c.new_page(PageType::Heap, PartitionId(0)) {
            Err(BtrimError::BufferExhausted { pinned, capacity }) => {
                assert_eq!(pinned, 2);
                assert_eq!(capacity, 2);
            }
            Err(other) => panic!("expected BufferExhausted, got {other:?}"),
            Ok(_) => panic!("expected BufferExhausted, got a page"),
        }
        drop(g2);
        // Now there is an evictable frame.
        let g3 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        assert_ne!(g1.page_id(), g3.page_id());
    }

    #[test]
    fn set_capacity_grow_takes_effect_immediately() {
        let c = cache(2);
        let _g1 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        let _g2 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        assert!(matches!(
            c.new_page(PageType::Heap, PartitionId(0)),
            Err(BtrimError::BufferExhausted { .. })
        ));
        assert_eq!(c.set_capacity(4), 0);
        assert_eq!(c.capacity(), 4);
        // The freshly granted frames are usable at once, pins intact.
        let _g3 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        let _g4 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        assert_eq!(c.stats().capacity_shifts, 1);
    }

    #[test]
    fn set_capacity_shrink_evicts_unpinned_lazily() {
        let c = cache(8);
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[i; 16]).unwrap();
            });
            ids.push(g.page_id());
        }
        assert_eq!(c.resident(), 8);
        // Nothing pinned: the shrink sweep drains the debt in full,
        // writing dirty victims back on the way out.
        assert_eq!(c.set_capacity(3), 0);
        assert!(c.resident() <= 3);
        assert_eq!(c.shrink_debt(), 0);
        // Evicted pages reload intact.
        for (i, id) in ids.iter().enumerate() {
            let g = c.fetch(*id).unwrap();
            g.with_page_read(|p| {
                assert_eq!(p.get(btrim_common::SlotId(0)).unwrap(), &[i as u8; 16]);
            });
        }
    }

    #[test]
    fn set_capacity_shrink_below_pins_leaves_debt_then_drains() {
        let c = cache(4);
        let g1 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        let g2 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        let g3 = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        // Shrink below the pinned count: pins must survive, the
        // uncovered frames stay resident as shrink debt.
        let debt = c.set_capacity(1);
        assert_eq!(debt, 2);
        assert_eq!(c.shrink_debt(), 2);
        assert_eq!(c.stats().shrink_debt, 2);
        // The pinned frames are still fully usable.
        g1.with_page_write(|p| {
            p.insert(b"still-writable").unwrap();
        });
        // Each unpin lets eviction pay one frame of debt down.
        drop(g2);
        c.drain_shrink_debt();
        assert_eq!(c.shrink_debt(), 1);
        drop(g3);
        c.drain_shrink_debt();
        assert_eq!(c.shrink_debt(), 0);
        // The last pinned frame fits inside the new capacity and stays.
        assert_eq!(c.resident(), 1);
        drop(g1);
    }

    #[test]
    fn dirty_page_ids_and_batched_flush() {
        let backend = Arc::new(MemDisk::new());
        let c = BufferCache::new(backend.clone(), 8);
        let mut ids = Vec::new();
        for i in 0..4u8 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[i; 8]).unwrap();
            });
            ids.push(g.page_id());
        }
        let mut dirty = c.dirty_page_ids();
        dirty.sort();
        let mut want = ids.clone();
        want.sort();
        assert_eq!(dirty, want);

        // Flush in two batches; a made-up id (never resident) and a
        // repeated id (already clean on the second pass) are skipped.
        let flushed = c.flush_pages(&[ids[0], ids[1], PageId(9999)]).unwrap();
        assert_eq!(flushed, 2);
        assert_eq!(c.dirty_page_ids().len(), 2);
        let flushed = c.flush_pages(&[ids[0], ids[2], ids[3]]).unwrap();
        assert_eq!(flushed, 2);
        c.sync_backend().unwrap();
        assert!(c.dirty_page_ids().is_empty());
        // Pages stayed resident and the bytes reached the device.
        assert_eq!(c.resident(), 4);
        for (i, id) in ids.iter().enumerate() {
            let mut raw = vec![0u8; PAGE_SIZE];
            backend.read_page(*id, &mut raw).unwrap();
            let page = SlottedPage::new(&mut raw);
            assert_eq!(page.get(btrim_common::SlotId(0)).unwrap(), &[i as u8; 8]);
        }
    }

    #[test]
    fn flush_pages_keeps_writers_running() {
        // A frame being flushed stays writable: flush_pages must never
        // hold the shard lock across the device write, so a concurrent
        // writer re-dirtying the page cannot stall behind the flush.
        let c = Arc::new(cache(8));
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"v0").unwrap();
            });
            g.page_id()
        };
        let stop = Arc::new(Relaxed::new(false));
        let writes = Arc::new(Relaxed::new(0u64));
        let writer = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            std::thread::spawn(move || {
                while !stop.load() {
                    let g = c.fetch(id).unwrap();
                    g.with_page_write(|p| {
                        assert!(p.update(btrim_common::SlotId(0), b"vN"));
                    });
                    writes.fetch_add(1);
                }
            })
        };
        // Keep flushing until the writer has got a write in between
        // flushes: 200 flushes of a memory device can be over before
        // the writer thread is first scheduled.
        let mut flushes = 0u64;
        while flushes < 200 || writes.load() == 0 {
            c.flush_pages(&[id]).unwrap();
            flushes += 1;
            assert!(
                flushes < 50_000_000,
                "writer must make progress during flushes"
            );
        }
        stop.store(true);
        writer.join().unwrap();
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let backend = Arc::new(MemDisk::new());
        let c = BufferCache::new(backend.clone(), 4);
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"durable").unwrap();
            });
            g.page_id()
        };
        c.flush_all().unwrap();
        // Bypass the cache: data must be on the device.
        let mut raw = vec![0u8; PAGE_SIZE];
        backend.read_page(id, &mut raw).unwrap();
        let page = SlottedPage::new(&mut raw);
        assert_eq!(page.get(btrim_common::SlotId(0)).unwrap(), b"durable");
    }

    #[test]
    fn concurrent_fetches_share_one_frame() {
        let c = Arc::new(cache(8));
        let id = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let g = c.fetch(id).unwrap();
                        g.with_page_write(|p| {
                            p.insert(&[i as u8]).map(|s| p.delete(s));
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = c.fetch(id).unwrap();
        g.with_page_read(|p| assert_eq!(p.live_rows(), 0));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_pages() {
        let c = cache(3);
        let _a = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        let b = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        let d = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        // First pressure event: sweeps clear every reference bit and
        // evict the oldest page (`a`); `b` and `d` stay with bits clear.
        let _e = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        // Re-reference `b` so it earns a second chance.
        drop(c.fetch(b).unwrap());
        // Second pressure event: `b`'s bit is set (spared), and `d`
        // (bit clear) is the victim.
        let _f = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        let before = c.stats().misses;
        drop(c.fetch(b).unwrap());
        assert_eq!(c.stats().misses, before, "page `b` stayed resident");
        drop(c.fetch(d).unwrap());
        assert_eq!(c.stats().misses, before + 1, "page `d` was the victim");
    }

    #[test]
    fn auto_shard_count_scales_with_capacity() {
        assert_eq!(auto_shards(2), 1);
        assert_eq!(auto_shards(63), 1);
        assert_eq!(auto_shards(64), 2);
        assert_eq!(auto_shards(256), 8);
        assert_eq!(auto_shards(4096), 16);
        assert_eq!(cache(4096).shard_count(), 16);
        assert_eq!(cache(8).shard_count(), 1);
    }

    #[test]
    fn explicit_sharding_spreads_pages() {
        let c = BufferCache::with_shards(Arc::new(MemDisk::new()), 128, 4);
        assert_eq!(c.shard_count(), 4);
        let mut ids = Vec::new();
        for _ in 0..64 {
            ids.push(
                c.new_page(PageType::Heap, PartitionId(0))
                    .unwrap()
                    .page_id(),
            );
        }
        let stats = c.shard_stats();
        assert_eq!(stats.iter().map(|s| s.resident).sum::<usize>(), 64);
        let populated = stats.iter().filter(|s| s.resident > 0).count();
        assert!(populated >= 3, "pages clustered into {populated} shards");
        // Everything still readable through the sharded map.
        for id in ids {
            drop(c.fetch(id).unwrap());
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn sharded_cache_respects_global_capacity() {
        let c = BufferCache::with_shards(Arc::new(MemDisk::new()), 32, 4);
        let mut ids = Vec::new();
        for i in 0..200u8 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[i; 8]).unwrap();
            });
            ids.push(g.page_id());
        }
        assert!(c.resident() <= 32, "resident {} > capacity", c.resident());
        for (i, id) in ids.iter().enumerate() {
            let g = c.fetch(*id).unwrap();
            g.with_page_read(|p| {
                assert_eq!(p.get(btrim_common::SlotId(0)).unwrap(), &[i as u8; 8]);
            });
        }
        assert_eq!(c.pinned_frames(), 0);
    }

    #[test]
    fn pinned_shard_borrows_past_soft_cap_when_global_room_exists() {
        // 4 shards over 64 frames: quota 16, soft cap 20. Pin well past
        // one shard's cap; with global room to spare every allocation
        // must succeed instead of reporting BufferExhausted just
        // because the home shard cannot evict.
        let c = BufferCache::with_shards(Arc::new(MemDisk::new()), 64, 4);
        let mut held = Vec::new();
        while held.len() < 30 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            if c.shard_of(g.page_id()) == 0 {
                held.push(g); // keep shard-0 pages pinned
            } // other shards' guards drop here and stay evictable
        }
        assert!(
            c.shard_stats()[0].resident > c.shard_cap.load(),
            "test must actually push shard 0 past its soft cap"
        );
        assert!(c.resident() <= c.capacity());
        drop(held);
        assert_eq!(c.pinned_frames(), 0);
    }

    /// Test double: delegates to a MemDisk but fails the next N reads
    /// and/or writes with transient I/O errors.
    struct FlakyDisk {
        inner: MemDisk,
        fail_reads: AcqRel<u64>,
        fail_writes: AcqRel<u64>,
    }

    impl FlakyDisk {
        fn new() -> Self {
            FlakyDisk {
                inner: MemDisk::new(),
                fail_reads: AcqRel::new(0),
                fail_writes: AcqRel::new(0),
            }
        }
        fn take_budget(counter: &AcqRel<u64>) -> bool {
            counter.fetch_update(|c| c.checked_sub(1)).is_ok()
        }
    }

    impl DiskBackend for FlakyDisk {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            if Self::take_budget(&self.fail_reads) {
                return Err(std::io::Error::other("injected read error").into());
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            if Self::take_budget(&self.fail_writes) {
                return Err(std::io::Error::other("injected write error").into());
            }
            self.inner.write_page(id, buf)
        }
        fn allocate_page(&self) -> Result<PageId> {
            self.inner.allocate_page()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn reads(&self) -> u64 {
            self.inner.reads()
        }
        fn writes(&self) -> u64 {
            self.inner.writes()
        }
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let backend = Arc::new(FlakyDisk::new());
        let c = BufferCache::new(backend.clone(), 4)
            .with_io_retry(3, std::time::Duration::from_micros(10));
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"survives retries").unwrap();
            });
            g.page_id()
        };
        c.flush_all().unwrap();
        // Evict the frame so the next fetch must read the device.
        while c.resident() > 0 {
            if let EvictOutcome::Nothing = c.evict_one(c.shard_of(id)).unwrap() {
                panic!("nothing evictable");
            }
        }
        backend.fail_reads.store(2);
        let g = c.fetch(id).unwrap();
        g.with_page_read(|v| {
            assert_eq!(v.get(btrim_common::SlotId(0)).unwrap(), b"survives retries");
        });
        let s = c.stats();
        assert_eq!(s.io_errors, 2);
        assert_eq!(s.io_retries, 2);
    }

    #[test]
    fn read_errors_past_retry_budget_propagate() {
        let backend = Arc::new(FlakyDisk::new());
        let c = BufferCache::new(backend.clone(), 4)
            .with_io_retry(3, std::time::Duration::from_micros(10));
        let id = c
            .new_page(PageType::Heap, PartitionId(0))
            .unwrap()
            .page_id();
        c.flush_all().unwrap();
        while c.resident() > 0 {
            c.evict_one(c.shard_of(id)).unwrap();
        }
        backend.fail_reads.store(100);
        let err = c.fetch(id).unwrap_err();
        assert!(matches!(err, BtrimError::Io(_)));
        assert_eq!(c.resident(), 0);
        assert_eq!(c.pinned_frames(), 0);
        assert_eq!(c.stats().io_retries, 2, "3 attempts = 2 retries");
    }

    #[test]
    fn torn_page_detected_on_fetch_never_served() {
        let backend = Arc::new(MemDisk::new());
        let c = BufferCache::new(backend.clone(), 4);
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"precious payload").unwrap();
            });
            g.page_id()
        };
        c.flush_all().unwrap();
        while c.resident() > 0 {
            c.evict_one(c.shard_of(id)).unwrap();
        }
        // Corrupt the device bytes behind the cache's back (simulated
        // torn write: the tail of the page reverts to zeros).
        let mut raw = vec![0u8; PAGE_SIZE];
        backend.read_page(id, &mut raw).unwrap();
        for b in raw[PAGE_SIZE / 2..].iter_mut() {
            *b = 0;
        }
        backend.write_page(id, &raw).unwrap();

        let err = c.fetch(id).unwrap_err();
        assert!(matches!(err, BtrimError::ChecksumMismatch(p) if p == id));
        assert_eq!(c.stats().checksum_failures, 1);
        assert_eq!(c.resident(), 0, "corrupt page must not stay cached");
        // The salvage path can still look at the raw bytes.
        let g = c.fetch_unchecked(id).unwrap();
        g.with_read(|buf| assert!(!verify_page_checksum(buf)));
    }

    #[test]
    fn failed_writeback_remarks_dirty_and_data_survives() {
        let backend = Arc::new(FlakyDisk::new());
        let c = BufferCache::new(backend.clone(), 4)
            .with_io_retry(2, std::time::Duration::from_micros(10));
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(b"only copy").unwrap();
            });
            g.page_id()
        };
        // Every write fails: eviction must keep the frame (re-marked
        // dirty), never dropping the only copy.
        backend.fail_writes.store(u64::MAX);
        let err = c.evict_one(c.shard_of(id)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BtrimError::Io(_)));
        assert_eq!(c.resident(), 1, "frame dropped despite failed write-back");
        // Device heals: flush persists the still-dirty page.
        backend.fail_writes.store(0);
        c.flush_all().unwrap();
        let mut raw = vec![0u8; PAGE_SIZE];
        backend.read_page(id, &mut raw).unwrap();
        assert!(verify_page_checksum(&raw));
        let page = SlottedPage::new(&mut raw);
        assert_eq!(page.get(btrim_common::SlotId(0)).unwrap(), b"only copy");
    }

    #[test]
    fn pages_on_device_carry_valid_checksums() {
        let backend = Arc::new(MemDisk::new());
        let c = BufferCache::new(backend.clone(), 2);
        let mut ids = Vec::new();
        for i in 0..6u8 {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[i; 24]).unwrap();
            });
            ids.push(g.page_id());
        }
        c.flush_all().unwrap();
        let mut raw = vec![0u8; PAGE_SIZE];
        for id in ids {
            backend.read_page(id, &mut raw).unwrap();
            assert!(verify_page_checksum(&raw), "unstamped page on device");
        }
    }

    /// Test double: a lying device that tears the next write — only the
    /// first 512 bytes of the new image land, yet it reports success.
    struct TearingDisk {
        inner: MemDisk,
        tear_writes: AcqRel<u64>,
    }

    impl DiskBackend for TearingDisk {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            if FlakyDisk::take_budget(&self.tear_writes) {
                let mut torn = vec![0u8; buf.len()];
                let _ = self.inner.read_page(id, &mut torn);
                let n = 512.min(buf.len());
                torn[..n].copy_from_slice(&buf[..n]);
                return self.inner.write_page(id, &torn);
            }
            self.inner.write_page(id, buf)
        }
        fn allocate_page(&self) -> Result<PageId> {
            self.inner.allocate_page()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn reads(&self) -> u64 {
            self.inner.reads()
        }
        fn writes(&self) -> u64 {
            self.inner.writes()
        }
    }

    #[test]
    fn write_verification_heals_a_torn_write() {
        let backend = Arc::new(TearingDisk {
            inner: MemDisk::new(),
            tear_writes: AcqRel::new(0),
        });
        let c = BufferCache::new(backend.clone(), 4)
            .with_io_retry(3, std::time::Duration::from_micros(10))
            .with_write_verification(true);
        let id = {
            let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
            g.with_page_write(|p| {
                p.insert(&[0xCD; 2000]).unwrap(); // payload well past the tear point
            });
            g.page_id()
        };
        backend.tear_writes.store(1);
        c.flush_all().unwrap();
        // The tear was detected by read-back and the write retried: the
        // device image is intact and checksummed.
        let mut raw = vec![0u8; PAGE_SIZE];
        backend.inner.read_page(id, &mut raw).unwrap();
        assert!(verify_page_checksum(&raw), "torn image left on device");
        let page = SlottedPage::new(&mut raw);
        assert_eq!(
            page.get(btrim_common::SlotId(0)).unwrap(),
            &[0xCD; 2000][..]
        );
        let s = c.stats();
        assert_eq!(s.io_errors, 1, "the tear counts as an I/O error");
        assert_eq!(s.io_retries, 1);
    }

    #[test]
    fn failed_read_propagates_and_leaves_cache_clean() {
        let c = cache(4);
        // Page id that was never allocated: the backend read fails.
        let err = c.fetch(PageId(u32::MAX)).unwrap_err();
        assert!(!matches!(err, BtrimError::BufferExhausted { .. }));
        assert_eq!(c.resident(), 0);
        assert_eq!(c.pinned_frames(), 0);
        // The cache still works afterwards.
        let g = c.new_page(PageType::Heap, PartitionId(0)).unwrap();
        drop(g);
        assert_eq!(c.resident(), 1);
    }
}
