//! Fragment memory manager: exact-fit lists over a best-fit tree.
//!
//! "A key sub-system supporting the IMRS is a high-performance
//! fragment-memory manager which is highly optimized for best-fit
//! low-latency memory allocation and reclamation on multiple cores"
//! (§II). This implementation manages a budget of fixed-size chunks,
//! each a byte arena. Every free byte of a created chunk is in exactly
//! one of two places:
//!
//! * a freed or reclaimed block of at most `LIST_LIMIT` (2 KiB) — a
//!   row image — is pushed onto the exact-fit list of its 16-byte size
//!   class, with no coalescing; a bitmap marks the non-empty classes;
//! * every other free block (larger frees, chunk tails, split
//!   remainders) is in the best-fit tree, tracked twice: by size in an
//!   ordered set, so best fit is one range query, and by address per
//!   chunk, so a block entering the tree coalesces with both tree
//!   neighbours.
//!
//! `alloc` pops the exact class, else takes a best fit from the tree,
//! else splits the smallest larger listed block, else grows a chunk.
//! Listed blocks are merged only when the budget is exhausted: `alloc`
//! then *consolidates* — moves every listed block into the tree,
//! coalescing neighbours — and retries once before reporting
//! `ImrsFull` (or, while recovery replays, growing past the budget:
//! [`FragmentAllocator::overdraw`]). A running counter keeps the free bytes, so
//! `chunk_bytes = used + quarantined + free` whenever no call is in
//! flight.
//!
//! Row images are immutable once written (updates create new versions),
//! so an allocation is written exactly once at `alloc` time and read
//! many times.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use btrim_common::atomics::Relaxed;
use btrim_common::{BtrimError, Result, Timestamp};

/// Allocation granularity; all block sizes are multiples of this.
const ALIGN: u32 = 16;
/// A remainder smaller than this is not split off as a free block.
const MIN_SPLIT: u32 = 16;
/// Free blocks up to this size go on exact-fit lists, one per `ALIGN`
/// bytes: 128 classes, one bit each in a `u128`.
const LIST_LIMIT: u32 = 128 * ALIGN;
const CLASSES: usize = (LIST_LIMIT / ALIGN) as usize;

/// Handle to one allocated fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FragHandle {
    chunk: u32,
    offset: u32,
    /// Bytes reserved (aligned size; what `free` returns to the pool).
    alloc_len: u32,
    /// Bytes of payload actually stored.
    data_len: u32,
}

impl FragHandle {
    /// Payload length in bytes.
    pub fn data_len(&self) -> usize {
        self.data_len as usize
    }

    /// Reserved length in bytes (>= payload, aligned).
    pub fn alloc_len(&self) -> usize {
        self.alloc_len as usize
    }

    /// Pack into two words so version-arena nodes can hold a handle in
    /// plain atomics (the lock-free read path loads it back with
    /// [`unpack`](Self::unpack)).
    pub(crate) fn pack(self) -> (u64, u64) {
        (
            ((self.chunk as u64) << 32) | self.offset as u64,
            ((self.alloc_len as u64) << 32) | self.data_len as u64,
        )
    }

    /// Inverse of [`pack`](Self::pack).
    pub(crate) fn unpack(a: u64, b: u64) -> FragHandle {
        FragHandle {
            chunk: (a >> 32) as u32,
            offset: a as u32,
            alloc_len: (b >> 32) as u32,
            data_len: b as u32,
        }
    }
}

struct AllocState {
    /// `lists[c]`: free `(chunk, offset)` blocks of `(c + 1) * ALIGN`
    /// bytes.
    lists: Vec<Vec<(u32, u32)>>,
    /// Bit `c` set iff `lists[c]` is non-empty.
    listed: u128,
    /// (len, chunk, offset) — ordered by length for best-fit.
    free_by_size: BTreeSet<(u32, u32, u32)>,
    /// chunk → offset → len; ordered by offset for coalescing.
    free_by_addr: HashMap<u32, BTreeMap<u32, u32>>,
    /// Bytes free in created chunks, listed or in the tree.
    free_bytes: u64,
    chunks_created: u32,
}

impl AllocState {
    /// Exact-fit class of a `len`-byte block, if blocks that size are
    /// listed.
    fn class(len: u32) -> Option<usize> {
        match len {
            ALIGN..=LIST_LIMIT if len.is_multiple_of(ALIGN) => Some((len / ALIGN - 1) as usize),
            _ => None,
        }
    }

    fn push_listed(&mut self, class: usize, chunk: u32, offset: u32) {
        self.lists[class].push((chunk, offset));
        self.listed |= 1 << class;
    }

    fn pop_listed(&mut self, class: usize) -> Option<(u32, u32)> {
        let block = self.lists[class].pop()?;
        if self.lists[class].is_empty() {
            self.listed &= !(1 << class);
        }
        Some(block)
    }

    /// Return a free block to the pool: onto its list if it has a
    /// class, else into the tree.
    fn release(&mut self, chunk: u32, offset: u32, len: u32) {
        self.free_bytes += len as u64;
        match Self::class(len) {
            Some(class) => self.push_listed(class, chunk, offset),
            None => self.insert_coalesced(chunk, offset, len),
        }
    }

    /// Take `need` (aligned) bytes from the free space of created
    /// chunks: exact class, then best fit in the tree, then a split of
    /// the smallest larger listed block. `(chunk, offset, alloc_len)`.
    fn take(&mut self, need: u32) -> Option<(u32, u32, u32)> {
        let block = match Self::class(need).and_then(|c| self.pop_listed(c)) {
            Some((chunk, offset)) => (chunk, offset, need),
            None => self
                .take_best_fit(need)
                .or_else(|| self.split_listed(need))?,
        };
        self.free_bytes -= block.2 as u64;
        Some(block)
    }

    /// Best-fit: smallest tree block with len >= need. Splits the
    /// remainder back into the tree.
    fn take_best_fit(&mut self, need: u32) -> Option<(u32, u32, u32)> {
        let &(len, chunk, offset) = self.free_by_size.range((need, 0, 0)..).next()?;
        // The size and addr indices are maintained in lockstep; a
        // missing addr-side entry would mean allocator corruption, so
        // report "no fit" without desyncing them further.
        self.free_by_addr.get_mut(&chunk)?.remove(&offset);
        self.free_by_size.remove(&(len, chunk, offset));
        let rem = len - need;
        if rem >= MIN_SPLIT {
            // The block had no free tree neighbour, so neither has the
            // remainder: no coalescing needed.
            self.insert_free(chunk, offset + need, rem);
            Some((chunk, offset, need))
        } else {
            // Allocate the whole block; over-allocation is tracked in
            // alloc_len so free returns it all.
            Some((chunk, offset, len))
        }
    }

    /// Serve `need` from the smallest listed block larger than it; the
    /// remainder goes onto its own list.
    fn split_listed(&mut self, need: u32) -> Option<(u32, u32, u32)> {
        let class = Self::class(need)?;
        // Two shifts: `class + 1` may be 128, too wide for one.
        let larger = self.listed & (u128::MAX << class << 1);
        if larger == 0 {
            return None;
        }
        let big = larger.trailing_zeros() as usize;
        let (chunk, offset) = self.pop_listed(big)?;
        self.push_listed(big - class - 1, chunk, offset + need);
        Some((chunk, offset, need))
    }

    /// Move every listed block into the tree, coalescing neighbours:
    /// afterwards each free run of a chunk is one tree block.
    fn consolidate(&mut self) {
        while self.listed != 0 {
            let class = self.listed.trailing_zeros() as usize;
            self.listed &= self.listed - 1;
            let len = (class as u32 + 1) * ALIGN;
            for (chunk, offset) in std::mem::take(&mut self.lists[class]) {
                self.insert_coalesced(chunk, offset, len);
            }
        }
    }

    fn insert_free(&mut self, chunk: u32, offset: u32, len: u32) {
        self.free_by_size.insert((len, chunk, offset));
        self.free_by_addr
            .entry(chunk)
            .or_default()
            .insert(offset, len);
    }

    /// Insert a block into the tree, merging it with free tree
    /// neighbours on both sides.
    fn insert_coalesced(&mut self, chunk: u32, mut offset: u32, mut len: u32) {
        let by_addr = self.free_by_addr.entry(chunk).or_default();
        // Coalesce with predecessor.
        let pred = by_addr.range(..offset).next_back().map(|(&o, &l)| (o, l));
        if let Some((poff, plen)) = pred {
            if poff + plen == offset {
                by_addr.remove(&poff);
                self.free_by_size.remove(&(plen, chunk, poff));
                offset = poff;
                len += plen;
            }
        }
        // Coalesce with successor.
        if let Some(nlen) = by_addr.remove(&(offset + len)) {
            self.free_by_size.remove(&(nlen, chunk, offset + len));
            len += nlen;
        }
        self.insert_free(chunk, offset, len);
    }
}

/// One chunk's byte arena.
type Chunk = Arc<RwLock<Box<[u8]>>>;

/// Exact-fit / best-fit allocator over a budget of lazily-created
/// chunks.
pub struct FragmentAllocator {
    chunk_size: u32,
    /// Budget ceiling in chunks, fixed at construction.
    max_chunks: u32,
    chunks: RwLock<Vec<Chunk>>,
    state: Mutex<AllocState>,
    used: Relaxed<u64>,
    /// Fragments whose owner retired them while lock-free readers might
    /// still hold the handle: `(retire timestamp, handle)`, reclaimed
    /// once the snapshot horizon proves those readers are gone.
    quarantine: Mutex<VecDeque<(u64, FragHandle)>>,
    quarantined: Relaxed<u64>,
    /// Growth past the budget allowed (see [`FragmentAllocator::overdraw`]).
    overdraw: Relaxed<bool>,
}

impl FragmentAllocator {
    /// Create an allocator with a total budget of `budget_bytes`,
    /// carved into chunks of `chunk_size` bytes (rounded up to at least
    /// one chunk).
    pub fn new(budget_bytes: u64, chunk_size: u32) -> Self {
        assert!(chunk_size >= 1024, "chunk size unreasonably small");
        let max_chunks = budget_bytes.div_ceil(chunk_size as u64).max(1) as u32;
        FragmentAllocator {
            chunk_size,
            max_chunks,
            chunks: RwLock::new(Vec::new()),
            state: Mutex::new(AllocState {
                lists: vec![Vec::new(); CLASSES],
                listed: 0,
                free_by_size: BTreeSet::new(),
                free_by_addr: HashMap::new(),
                free_bytes: 0,
                chunks_created: 0,
            }),
            used: Relaxed::new(0),
            quarantine: Mutex::new(VecDeque::new()),
            quarantined: Relaxed::new(0),
            overdraw: Relaxed::new(false),
        }
    }

    /// Let `alloc` grow past the budget, one chunk at a time, when
    /// nothing else fits (`false`: stop it there again; chunks already
    /// created stay). Recovery replays what a crash left on the logs,
    /// which can hold more than the budget did at any one time.
    pub fn overdraw(&self, on: bool) {
        self.overdraw.store(on);
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.chunk_size as u64 * self.max_chunks as u64
    }

    /// Payload-plus-padding bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used.load()
    }

    /// Bytes retired but not yet reclaimable (waiting for the snapshot
    /// horizon to pass their retirement timestamp).
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined.load()
    }

    /// Bytes of the chunks created so far.
    pub fn chunk_bytes(&self) -> u64 {
        self.state.lock().chunks_created as u64 * self.chunk_size as u64
    }

    /// Free bytes in created chunks, listed or in the tree. With
    /// [`used_bytes`](Self::used_bytes) and
    /// [`quarantined_bytes`](Self::quarantined_bytes) it sums to
    /// [`chunk_bytes`](Self::chunk_bytes) while no call is in flight.
    pub fn free_bytes(&self) -> u64 {
        self.state.lock().free_bytes
    }

    /// Used bytes as a fraction of the budget, in [0, 1]. Quarantined
    /// bytes count: they are not reusable yet, and the utilization
    /// signal drives ILM pressure decisions.
    pub fn utilization(&self) -> f64 {
        (self.used_bytes() + self.quarantined_bytes()) as f64 / self.budget() as f64
    }

    fn aligned(len: usize) -> u32 {
        ((len as u32).max(1)).div_ceil(ALIGN) * ALIGN
    }

    /// Allocate space for `data` and copy it in.
    pub fn alloc(&self, data: &[u8]) -> Result<FragHandle> {
        let need = Self::aligned(data.len());
        if need > self.chunk_size {
            return Err(BtrimError::Invalid(format!(
                "allocation of {} bytes exceeds chunk size {}",
                data.len(),
                self.chunk_size
            )));
        }
        let (chunk, offset, alloc_len) = {
            let mut st = self.state.lock();
            match st.take(need) {
                Some(block) => block,
                None => self.grow_or_consolidate(&mut st, need, data.len())?,
            }
        };
        // Copy payload outside the allocator lock.
        {
            let chunks = self.chunks.read();
            let mut arena = chunks[chunk as usize].write();
            arena[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        self.used.fetch_add(alloc_len as u64);
        Ok(FragHandle {
            chunk,
            offset,
            alloc_len,
            data_len: data.len() as u32,
        })
    }

    /// `alloc` when no free block of a created chunk fits: grow by one
    /// chunk if the budget allows, else consolidate and retry, else grow
    /// past the budget while [`overdraw`](Self::overdraw) is on.
    fn grow_or_consolidate(
        &self,
        st: &mut AllocState,
        need: u32,
        requested: usize,
    ) -> Result<(u32, u32, u32)> {
        if st.chunks_created >= self.max_chunks {
            st.consolidate();
            if let Some(got) = st.take(need) {
                return Ok(got);
            }
        }
        if st.chunks_created < self.max_chunks || self.overdraw.load() {
            let idx = st.chunks_created;
            st.chunks_created += 1;
            self.chunks.write().push(Arc::new(RwLock::new(
                vec![0u8; self.chunk_size as usize].into_boxed_slice(),
            )));
            st.free_bytes += self.chunk_size as u64;
            st.insert_free(idx, 0, self.chunk_size);
            // A fresh chunk satisfies any allocation that passed the
            // `need > chunk_size` guard; failing here means the free
            // indices are corrupt.
            return st
                .take(need)
                .ok_or_else(|| BtrimError::Corrupt("fresh IMRS chunk failed best-fit".into()));
        }
        Err(BtrimError::ImrsFull {
            requested,
            // Consolidated, every free run is one tree block: the
            // largest is the most any request could get.
            available: st
                .free_by_size
                .last()
                .map_or(0, |&(len, _, _)| len as usize),
        })
    }

    /// Return a fragment to the pool (a row-sized one to its exact-fit
    /// list, a larger one into the tree, coalescing).
    ///
    /// Only legal when no concurrent reader can still hold the handle —
    /// rollback of uncommitted versions (invisible to the lock-free
    /// walk, which checks visibility before loading a handle) and GC
    /// truncation below the snapshot horizon (unreachable: every active
    /// snapshot stops at a newer version). Anything a reader might
    /// still be copying must go through [`retire`](Self::retire)
    /// instead.
    pub fn free(&self, h: FragHandle) {
        self.used.fetch_sub(h.alloc_len as u64);
        self.state.lock().release(h.chunk, h.offset, h.alloc_len);
    }

    /// Retire a fragment that lock-free readers may still be loading
    /// (pack / row removal free the latest committed image). The bytes
    /// leave `used` immediately but stay unavailable in quarantine
    /// until [`reclaim`](Self::reclaim) proves the readers are gone.
    ///
    /// `now` is the clock at retirement: any reader that captured the
    /// handle was active then, so its snapshot is ≤ `now`, and once the
    /// horizon (≤ every active snapshot) moves *past* `now`, that
    /// reader has finished.
    pub fn retire(&self, h: FragHandle, now: Timestamp) {
        self.used.fetch_sub(h.alloc_len as u64);
        self.quarantined.fetch_add(h.alloc_len as u64);
        self.quarantine.lock().push_back((now.0, h));
    }

    /// Release every quarantined fragment of the prefix retired strictly
    /// below `horizon`: drained under one quarantine lock, released
    /// under one state lock. Returns bytes made reusable.
    pub fn reclaim(&self, horizon: Timestamp) -> u64 {
        let expired: Vec<FragHandle> = {
            let mut q = self.quarantine.lock();
            let n = q
                .iter()
                .position(|&(ts, _)| ts >= horizon.0)
                .unwrap_or(q.len());
            q.drain(..n).map(|(_, h)| h).collect()
        };
        if expired.is_empty() {
            return 0;
        }
        let freed = expired.iter().map(|h| h.alloc_len as u64).sum();
        self.quarantined.fetch_sub(freed);
        let mut st = self.state.lock();
        for h in expired {
            st.release(h.chunk, h.offset, h.alloc_len);
        }
        freed
    }

    /// Run `f` over the stored payload.
    pub fn with_bytes<R>(&self, h: FragHandle, f: impl FnOnce(&[u8]) -> R) -> R {
        let chunks = self.chunks.read();
        let arena = chunks[h.chunk as usize].read();
        f(&arena[h.offset as usize..h.offset as usize + h.data_len as usize])
    }

    /// Copy the stored payload out.
    pub fn load(&self, h: FragHandle) -> Vec<u8> {
        self.with_bytes(h, <[u8]>::to_vec)
    }

    /// Take one shared latch on each chunk that `handles` lie in, and
    /// lend `f` their payloads through [`Latched::bytes`]. The latches
    /// are taken in chunk order, so two readers cannot deadlock behind
    /// writers queued on their chunks. `f` must take no lock: an `alloc`
    /// that lands in one of these chunks, or adds a chunk, waits until
    /// `f` returns.
    pub fn with_latched<R>(
        &self,
        handles: impl IntoIterator<Item = FragHandle>,
        f: impl FnOnce(&Latched<'_>) -> R,
    ) -> R {
        let mut ids: Vec<u32> = handles.into_iter().map(|h| h.chunk).collect();
        ids.sort_unstable();
        ids.dedup();
        let chunks = self.chunks.read();
        let latched = Latched {
            chunks: ids
                .into_iter()
                .filter_map(|c| Some((c, chunks.get(c as usize)?.read())))
                .collect(),
        };
        f(&latched)
    }
}

/// Chunks under a shared latch ([`FragmentAllocator::with_latched`]).
pub struct Latched<'a> {
    /// `(chunk id, latch)`, ascending by id.
    chunks: Vec<(u32, RwLockReadGuard<'a, Box<[u8]>>)>,
}

impl Latched<'_> {
    /// The payload of `h`; `None` when its chunk is not latched.
    pub fn bytes(&self, h: FragHandle) -> Option<&[u8]> {
        let i = self.chunks.binary_search_by_key(&h.chunk, |c| c.0).ok()?;
        let start = h.offset as usize;
        self.chunks[i].1.get(start..start + h.data_len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_kb() -> FragmentAllocator {
        FragmentAllocator::new(64 * 1024, 16 * 1024)
    }

    #[test]
    fn alloc_roundtrip() {
        let a = alloc_kb();
        let h = a.alloc(b"row payload").unwrap();
        assert_eq!(a.load(h), b"row payload");
        assert_eq!(h.data_len(), 11);
        assert_eq!(h.alloc_len(), 16);
        assert_eq!(a.used_bytes(), 16);
    }

    #[test]
    fn latched_reads_see_every_chunk_of_a_batch() {
        let a = FragmentAllocator::new(64 * 1024, 16 * 1024);
        let big = a.alloc(&[9u8; 16 * 1024 - 32]).unwrap();
        let small = a.alloc(&[7u8; 100]).unwrap();
        let tail = a.alloc(b"first chunk").unwrap();
        assert_eq!((big.chunk, small.chunk, tail.chunk), (0, 1, 0));
        a.with_latched([small, tail, big, small], |l| {
            assert_eq!(l.bytes(small), Some(&[7u8; 100][..]));
            assert_eq!(l.bytes(tail), Some(&b"first chunk"[..]));
            assert_eq!(l.bytes(big).map(<[u8]>::len), Some(big.data_len()));
        });
        a.with_latched([tail], |l| assert_eq!(l.bytes(small), None));
    }

    #[test]
    fn free_returns_memory() {
        let a = alloc_kb();
        let h = a.alloc(&[1u8; 100]).unwrap();
        let used = a.used_bytes();
        a.free(h);
        assert_eq!(a.used_bytes(), used - h.alloc_len() as u64);
        assert_eq!(a.free_bytes(), a.chunk_bytes());
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_block() {
        let a = alloc_kb();
        // Carve the arena into blocks of different sizes and free two.
        let h_small = a.alloc(&[0u8; 64]).unwrap();
        let _sep1 = a.alloc(&[0u8; 32]).unwrap();
        let h_big = a.alloc(&[0u8; 512]).unwrap();
        let _sep2 = a.alloc(&[0u8; 32]).unwrap();
        a.free(h_small);
        a.free(h_big);
        // A 60-byte request must land in the 64-byte hole, not the 512.
        let h = a.alloc(&[7u8; 60]).unwrap();
        assert_eq!(h.offset, h_small.offset);
        assert_eq!(h.chunk, h_small.chunk);
    }

    #[test]
    fn consolidation_merges_listed_neighbours_once_the_budget_is_exhausted() {
        let a = FragmentAllocator::new(16 * 1024, 16 * 1024);
        let h1 = a.alloc(&[0u8; 100]).unwrap();
        let h2 = a.alloc(&[0u8; 100]).unwrap();
        let h3 = a.alloc(&[0u8; 100]).unwrap();
        let merged = (h1.alloc_len + h2.alloc_len + h3.alloc_len) as usize;
        // The rest of the only chunk the budget allows.
        let _rest = a.alloc(&vec![0u8; 16 * 1024 - merged]).unwrap();
        // Freed row-sized blocks go onto their list unmerged …
        a.free(h2);
        a.free(h1);
        a.free(h3);
        assert_eq!(a.free_bytes(), merged as u64);
        // … and nothing else can serve their combined size, so `alloc`
        // consolidates: the three merge where h1 began.
        let h = a.alloc(&vec![1u8; merged]).unwrap();
        assert_eq!((h.chunk, h.offset), (h1.chunk, h1.offset));
        assert_eq!(a.free_bytes(), 0);
    }

    #[test]
    fn a_larger_listed_block_is_split_before_a_chunk_grows() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let big = a.alloc(&[0u8; 512]).unwrap();
        let _rest = a.alloc(&vec![0u8; 16 * 1024 - 512]).unwrap();
        a.free(big);
        let h = a.alloc(&[0u8; 64]).unwrap();
        assert_eq!((h.chunk, h.offset), (big.chunk, big.offset));
        assert_eq!(a.chunk_bytes(), 16 * 1024, "no chunk grown");
        // The remainder is listed: the next 448 bytes come from it.
        let h = a.alloc(&[0u8; 448]).unwrap();
        assert_eq!(h.offset, big.offset + 64);
        assert_eq!(a.free_bytes(), 0);
    }

    #[test]
    fn imrs_full_reports_the_largest_block_it_could_have_served() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let held: Vec<_> = std::iter::from_fn(|| a.alloc(&[0u8; 1024]).ok()).collect();
        assert_eq!(held.len(), 32);
        // A retired block has left `used` but serves nobody yet.
        a.retire(held[7], Timestamp(5));
        match a.alloc(&[0u8; 1024]) {
            Err(BtrimError::ImrsFull {
                requested,
                available,
            }) => {
                assert_eq!(requested, 1024);
                assert!(available < requested, "{available} bytes available");
            }
            other => panic!("expected ImrsFull, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_imrs_full() {
        // A budget that is not a whole number of chunks rounds up to
        // one: 17 KiB buys the same two 16 KiB chunks as 32 KiB.
        for budget in [32 * 1024, 17 * 1024] {
            let a = FragmentAllocator::new(budget, 16 * 1024);
            assert_eq!(a.budget(), 32 * 1024);
            let mut held = Vec::new();
            loop {
                match a.alloc(&[0u8; 1024]) {
                    Ok(h) => held.push(h),
                    Err(BtrimError::ImrsFull { .. }) => break,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert_eq!(held.len(), 32); // 32 KiB / 1 KiB
            assert_eq!(a.chunk_bytes(), 32 * 1024, "growth stops at max_chunks");
            // Freeing one makes room again.
            a.free(held.pop().unwrap());
            assert!(a.alloc(&[0u8; 1024]).is_ok());
        }
    }

    #[test]
    fn overdraw_grows_past_the_budget_only_while_on() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let full = |a: &FragmentAllocator| {
            matches!(a.alloc(&[0u8; 1024]), Err(BtrimError::ImrsFull { .. }))
        };
        while !full(&a) {}
        a.overdraw(true);
        for _ in 0..20 {
            assert!(a.alloc(&[0u8; 1024]).is_ok());
        }
        assert_eq!(a.chunk_bytes(), 64 * 1024, "one chunk at a time");
        a.overdraw(false);
        while !full(&a) {}
        assert_eq!(a.chunk_bytes(), 64 * 1024, "growth stops again");
        assert_eq!(a.used_bytes() + a.free_bytes(), a.chunk_bytes());
    }

    #[test]
    fn quarantine_defers_reuse_until_horizon_passes() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let h = a.alloc(&[7u8; 1000]).unwrap();
        let used = a.used_bytes();
        a.retire(h, Timestamp(10));
        // Leaves `used` immediately, but is not reusable…
        assert_eq!(a.used_bytes(), used - h.alloc_len() as u64);
        assert_eq!(a.quarantined_bytes(), h.alloc_len() as u64);
        // …and the payload is still readable by a straggling reader.
        assert_eq!(a.load(h), vec![7u8; 1000]);
        // A horizon at the retirement timestamp is not enough (a reader
        // active at retirement could hold snapshot == 10).
        assert_eq!(a.reclaim(Timestamp(10)), 0);
        assert_eq!(a.quarantined_bytes(), h.alloc_len() as u64);
        // Strictly past it: reclaimed.
        assert_eq!(a.reclaim(Timestamp(11)), h.alloc_len() as u64);
        assert_eq!(a.quarantined_bytes(), 0);
        // The block is allocatable again.
        let h2 = a.alloc(&[8u8; 1000]).unwrap();
        assert_eq!(h2.offset, h.offset);
    }

    #[test]
    fn utilization_counts_quarantined_bytes() {
        let a = FragmentAllocator::new(100 * 1024, 10 * 1024);
        let h = a.alloc(&vec![0u8; 10 * 1024]).unwrap();
        let before = a.utilization();
        a.retire(h, Timestamp(1));
        assert_eq!(a.utilization(), before, "pressure signal unchanged");
        a.reclaim(Timestamp(2));
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn oversized_allocation_rejected() {
        let a = alloc_kb();
        assert!(matches!(
            a.alloc(&vec![0u8; 17 * 1024]),
            Err(BtrimError::Invalid(_))
        ));
    }

    #[test]
    fn utilization_tracks_budget() {
        let a = FragmentAllocator::new(100 * 1024, 10 * 1024);
        assert_eq!(a.utilization(), 0.0);
        let _h = a.alloc(&vec![0u8; 10 * 1024]).unwrap();
        assert!((a.utilization() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn concurrent_alloc_free_is_consistent() {
        let a = std::sync::Arc::new(FragmentAllocator::new(8 * 1024 * 1024, 256 * 1024));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..500usize {
                        let data = vec![t as u8; (i % 200) + 1];
                        held.push((a.alloc(&data).unwrap(), data));
                        if i % 3 == 0 {
                            let (h, d) = held.swap_remove(i % held.len());
                            assert_eq!(a.load(h), d);
                            a.free(h);
                        }
                    }
                    for (h, d) in held {
                        assert_eq!(a.load(h), d);
                        a.free(h);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.used_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// 64 cases, or what `PROPTEST_CASES` asks for (CI: 512).
    fn cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        asked.and_then(|n| n.parse().ok()).unwrap_or(64)
    }

    const CHUNK: u32 = 4096;
    const MAX_CHUNKS: u64 = 4;

    /// The largest free run in the allocator's created chunks, from the
    /// model's occupied blocks (live and quarantined), which must not
    /// overlap.
    fn largest_free_run(a: &FragmentAllocator, occupied: &[FragHandle]) -> u32 {
        let chunks = (a.chunk_bytes() / CHUNK as u64) as u32;
        let mut largest = 0;
        for chunk in 0..chunks {
            let mut blocks: Vec<_> = occupied
                .iter()
                .filter(|h| h.chunk == chunk)
                .map(|h| (h.offset, h.alloc_len))
                .collect();
            blocks.sort_unstable();
            let mut cursor = 0;
            for (offset, len) in blocks.into_iter().chain([(CHUNK, 0)]) {
                assert!(offset >= cursor, "blocks overlap at {chunk}:{offset}");
                largest = largest.max(offset - cursor);
                cursor = offset + len;
            }
        }
        largest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]
        /// Alloc, free, retire and reclaim in arbitrary interleavings,
        /// over a budget small enough to run out: payloads stay intact,
        /// `chunk = used + quarantined + free` after every step, and
        /// `ImrsFull` comes only when no chunk can be created and no
        /// free run of the created ones fits — reporting the largest.
        #[test]
        fn allocator_matches_model(
            ops in proptest::collection::vec((0u8..5, 1usize..3000), 1..200)
        ) {
            let a = FragmentAllocator::new(MAX_CHUNKS * CHUNK as u64, CHUNK);
            let mut live: Vec<(FragHandle, Vec<u8>)> = Vec::new();
            let mut quarantine: VecDeque<(u64, FragHandle)> = VecDeque::new();
            for (now, (op, size)) in (1u64..).zip(ops) {
                match op {
                    2 | 3 if !live.is_empty() => {
                        let (h, d) = live.swap_remove(size % live.len());
                        prop_assert_eq!(a.load(h), d);
                        if op == 2 {
                            a.free(h);
                        } else {
                            a.retire(h, Timestamp(now));
                            quarantine.push_back((now, h));
                        }
                    }
                    4 => {
                        let horizon = now.saturating_sub(size as u64 % 8);
                        let mut expect = 0;
                        while quarantine.front().is_some_and(|&(ts, _)| ts < horizon) {
                            expect += quarantine.pop_front().map_or(0, |(_, h)| h.alloc_len as u64);
                        }
                        prop_assert_eq!(a.reclaim(Timestamp(horizon)), expect);
                    }
                    _ => {
                        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                        match a.alloc(&data) {
                            Ok(h) => live.push((h, data)),
                            Err(BtrimError::ImrsFull { requested, available }) => {
                                let occupied: Vec<FragHandle> = live
                                    .iter()
                                    .map(|(h, _)| *h)
                                    .chain(quarantine.iter().map(|(_, h)| *h))
                                    .collect();
                                let largest = largest_free_run(&a, &occupied);
                                prop_assert_eq!(requested, size);
                                prop_assert_eq!(a.chunk_bytes(), MAX_CHUNKS * CHUNK as u64);
                                prop_assert!(largest < FragmentAllocator::aligned(size));
                                prop_assert_eq!(available, largest as usize);
                            }
                            Err(e) => prop_assert!(false, "unexpected error {}", e),
                        }
                    }
                }
                // Every live payload stays intact, and the space is
                // conserved, after each step.
                for (h, d) in &live {
                    prop_assert_eq!(&a.load(*h), d);
                }
                let used: u64 = live.iter().map(|(h, _)| h.alloc_len as u64).sum();
                let quarantined: u64 = quarantine.iter().map(|(_, h)| h.alloc_len as u64).sum();
                prop_assert_eq!(a.used_bytes(), used);
                prop_assert_eq!(a.quarantined_bytes(), quarantined);
                prop_assert_eq!(
                    a.chunk_bytes(),
                    a.used_bytes() + a.quarantined_bytes() + a.free_bytes()
                );
            }
            for (h, d) in live {
                prop_assert_eq!(a.load(h), d);
                a.free(h);
            }
            a.reclaim(Timestamp(u64::MAX));
            prop_assert_eq!(a.used_bytes(), 0);
            prop_assert_eq!(a.free_bytes(), a.chunk_bytes());
        }
    }
}
