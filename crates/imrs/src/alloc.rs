//! Best-fit fragment memory manager.
//!
//! "A key sub-system supporting the IMRS is a high-performance
//! fragment-memory manager which is highly optimized for best-fit
//! low-latency memory allocation and reclamation on multiple cores"
//! (§II). This implementation manages a budget of fixed-size chunks,
//! each a byte arena. Free space is tracked twice:
//!
//! * by size, in an ordered set — best-fit lookup is one range query;
//! * by address, per chunk — frees coalesce with both neighbours.
//!
//! Row images are immutable once written (updates create new versions),
//! so an allocation is written exactly once at `alloc` time and read
//! many times.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{BtrimError, Result, Timestamp};

/// Allocation granularity; all block sizes are multiples of this.
const ALIGN: u32 = 16;
/// A remainder smaller than this is not split off as a free block.
const MIN_SPLIT: u32 = 16;

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
    /// (len, chunk, offset) — ordered by length for best-fit.
    free_by_size: BTreeSet<(u32, u32, u32)>,
    /// chunk → offset → len; ordered by offset for coalescing.
    free_by_addr: HashMap<u32, BTreeMap<u32, u32>>,
    chunks_created: u32,
}

/// One chunk's byte arena.
type Chunk = Arc<RwLock<Box<[u8]>>>;

/// Best-fit allocator over a budget of lazily-created chunks.
pub struct FragmentAllocator {
    chunk_size: u32,
    /// Budget ceiling in chunks. Atomic so the memory arbiter can raise
    /// or lower it at runtime: raising lets `alloc` grow again
    /// immediately; lowering below `chunks_created` stops further chunk
    /// growth while existing free space stays usable, and GC/pack drain
    /// the overage (utilization may read above 1.0 meanwhile).
    max_chunks: AcqRel<u32>,
    chunks: RwLock<Vec<Chunk>>,
    state: Mutex<AllocState>,
    used: Relaxed<u64>,
    alloc_calls: Relaxed<u64>,
    free_calls: Relaxed<u64>,
    /// Fragments whose owner retired them while lock-free readers might
    /// still hold the handle: `(retire timestamp, handle)`, reclaimed
    /// once the snapshot horizon proves those readers are gone.
    quarantine: Mutex<VecDeque<(u64, FragHandle)>>,
    quarantined: Relaxed<u64>,
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
            max_chunks: AcqRel::new(max_chunks),
            chunks: RwLock::new(Vec::new()),
            state: Mutex::new(AllocState {
                free_by_size: BTreeSet::new(),
                free_by_addr: HashMap::new(),
                chunks_created: 0,
            }),
            used: Relaxed::new(0),
            alloc_calls: Relaxed::new(0),
            free_calls: Relaxed::new(0),
            quarantine: Mutex::new(VecDeque::new()),
            quarantined: Relaxed::new(0),
        }
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.chunk_size as u64 * self.max_chunks.load() as u64
    }

    /// Retarget the budget to `budget_bytes` (rounded up to at least one
    /// chunk). Growing takes effect on the next `alloc`; shrinking never
    /// frees live chunks — it only blocks further growth, leaving
    /// GC / pack / freeze to drain the overage.
    pub fn set_budget(&self, budget_bytes: u64) {
        let max_chunks = budget_bytes.div_ceil(self.chunk_size as u64).max(1) as u32;
        self.max_chunks.store(max_chunks);
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

    /// Used bytes as a fraction of the budget, in [0, 1]. Quarantined
    /// bytes count: they are not reusable yet, and the utilization
    /// signal drives ILM pressure decisions.
    pub fn utilization(&self) -> f64 {
        (self.used_bytes() + self.quarantined_bytes()) as f64 / self.budget() as f64
    }

    /// Total `alloc` calls served.
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls.load()
    }

    /// Total `free` calls served.
    pub fn free_calls(&self) -> u64 {
        self.free_calls.load()
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
            match self.take_best_fit(&mut st, need) {
                Some(block) => block,
                None => {
                    // Grow by one chunk if the budget allows.
                    if st.chunks_created >= self.max_chunks.load() {
                        return Err(BtrimError::ImrsFull {
                            requested: data.len(),
                            // Saturating: a shrunk budget may sit below
                            // the bytes still in use while GC drains.
                            available: self.budget().saturating_sub(self.used_bytes()) as usize,
                        });
                    }
                    let idx = st.chunks_created;
                    st.chunks_created += 1;
                    self.chunks.write().push(Arc::new(RwLock::new(
                        vec![0u8; self.chunk_size as usize].into_boxed_slice(),
                    )));
                    Self::insert_free(&mut st, idx, 0, self.chunk_size);
                    // A fresh chunk satisfies any allocation that passed
                    // the `need > chunk_size` guard above; failing here
                    // means the free indices are corrupt.
                    self.take_best_fit(&mut st, need).ok_or_else(|| {
                        BtrimError::Corrupt("fresh IMRS chunk failed best-fit".into())
                    })?
                }
            }
        };
        // Copy payload outside the allocator lock.
        {
            let chunks = self.chunks.read();
            let mut arena = chunks[chunk as usize].write();
            arena[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        self.used.fetch_add(alloc_len as u64);
        self.alloc_calls.fetch_add(1);
        Ok(FragHandle {
            chunk,
            offset,
            alloc_len,
            data_len: data.len() as u32,
        })
    }

    /// Best-fit: smallest free block with len >= need. Splits the
    /// remainder back into the pool.
    fn take_best_fit(&self, st: &mut AllocState, need: u32) -> Option<(u32, u32, u32)> {
        let &(len, chunk, offset) = st.free_by_size.range((need, 0, 0)..).next()?;
        // The size and addr indices are maintained in lockstep; a
        // missing addr-side entry would mean allocator corruption, so
        // report "no fit" without desyncing them further.
        st.free_by_addr.get_mut(&chunk)?.remove(&offset);
        st.free_by_size.remove(&(len, chunk, offset));
        let rem = len - need;
        if rem >= MIN_SPLIT {
            Self::insert_free(st, chunk, offset + need, rem);
            Some((chunk, offset, need))
        } else {
            // Allocate the whole block; over-allocation is tracked in
            // alloc_len so free returns it all.
            Some((chunk, offset, len))
        }
    }

    fn insert_free(st: &mut AllocState, chunk: u32, offset: u32, len: u32) {
        st.free_by_size.insert((len, chunk, offset));
        st.free_by_addr
            .entry(chunk)
            .or_default()
            .insert(offset, len);
    }

    /// Return a fragment to the pool, coalescing with free neighbours.
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
        self.release_block(h);
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

    /// Release every quarantined fragment whose retirement timestamp is
    /// strictly below `horizon`. Returns bytes made reusable.
    pub fn reclaim(&self, horizon: Timestamp) -> u64 {
        let mut freed = 0u64;
        loop {
            let h = {
                let mut q = self.quarantine.lock();
                match q.front() {
                    Some(&(ts, _)) if ts < horizon.0 => q.pop_front().map(|(_, h)| h),
                    _ => None,
                }
            };
            let Some(h) = h else { break };
            self.quarantined.fetch_sub(h.alloc_len as u64);
            freed += h.alloc_len as u64;
            self.release_block(h);
        }
        freed
    }

    fn release_block(&self, h: FragHandle) {
        let mut st = self.state.lock();
        let mut offset = h.offset;
        let mut len = h.alloc_len;
        // Coalesce with predecessor.
        let pred = st
            .free_by_addr
            .get(&h.chunk)
            .and_then(|m| m.range(..offset).next_back().map(|(&o, &l)| (o, l)));
        if let Some((poff, plen)) = pred {
            if poff + plen == offset {
                // `pred` came from this map an instant ago under the
                // same lock; the `if let` avoids a panic path anyway.
                if let Some(m) = st.free_by_addr.get_mut(&h.chunk) {
                    m.remove(&poff);
                }
                st.free_by_size.remove(&(plen, h.chunk, poff));
                offset = poff;
                len += plen;
            }
        }
        // Coalesce with successor.
        let succ = st
            .free_by_addr
            .get(&h.chunk)
            .and_then(|m| m.range(offset + len..).next().map(|(&o, &l)| (o, l)));
        if let Some((noff, nlen)) = succ {
            if offset + len == noff {
                if let Some(m) = st.free_by_addr.get_mut(&h.chunk) {
                    m.remove(&noff);
                }
                st.free_by_size.remove(&(nlen, h.chunk, noff));
                len += nlen;
            }
        }
        Self::insert_free(&mut st, h.chunk, offset, len);
        self.free_calls.fetch_add(1);
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

    /// Free bytes inside already-created chunks (fragmentation probe).
    pub fn free_bytes_in_chunks(&self) -> u64 {
        let st = self.state.lock();
        st.free_by_size.iter().map(|&(len, _, _)| len as u64).sum()
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
    fn free_returns_memory() {
        let a = alloc_kb();
        let h = a.alloc(&[1u8; 100]).unwrap();
        let used = a.used_bytes();
        a.free(h);
        assert_eq!(a.used_bytes(), used - h.alloc_len() as u64);
        assert_eq!(a.free_calls(), 1);
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
    fn coalescing_merges_neighbours() {
        let a = alloc_kb();
        let h1 = a.alloc(&[0u8; 100]).unwrap();
        let h2 = a.alloc(&[0u8; 100]).unwrap();
        let h3 = a.alloc(&[0u8; 100]).unwrap();
        let _guard = a.alloc(&[0u8; 16]).unwrap();
        // Free middle, then sides: all four merge into one big block.
        a.free(h2);
        a.free(h1);
        a.free(h3);
        let merged = h1.alloc_len + h2.alloc_len + h3.alloc_len;
        // A request of the merged size fits exactly where h1 began.
        let h = a.alloc(&vec![1u8; merged as usize]).unwrap();
        assert_eq!(h.offset, h1.offset);
    }

    #[test]
    fn budget_exhaustion_is_imrs_full() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let mut held = Vec::new();
        loop {
            match a.alloc(&[0u8; 1024]) {
                Ok(h) => held.push(h),
                Err(BtrimError::ImrsFull { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(held.len(), 32); // 32 KiB / 1 KiB
                                    // Freeing one makes room again.
        a.free(held.pop().unwrap());
        assert!(a.alloc(&[0u8; 1024]).is_ok());
    }

    #[test]
    fn set_budget_grows_and_shrinks_without_evicting() {
        let a = FragmentAllocator::new(32 * 1024, 16 * 1024);
        let mut held = Vec::new();
        while let Ok(h) = a.alloc(&[0u8; 1024]) {
            held.push(h);
        }
        assert_eq!(held.len(), 32);
        // Raising the budget immediately unblocks growth.
        a.set_budget(64 * 1024);
        assert_eq!(a.budget(), 64 * 1024);
        assert!(a.alloc(&[0u8; 1024]).is_ok());
        // Shrinking below current use never touches live data: existing
        // fragments stay readable and freeable, only growth stops.
        a.set_budget(16 * 1024);
        assert_eq!(a.budget(), 16 * 1024);
        assert!(a.utilization() > 1.0, "overage is visible as pressure");
        assert!(matches!(
            a.alloc(&vec![0u8; 16 * 1024]),
            Err(BtrimError::ImrsFull { .. })
        ));
        // Freed space inside already-created chunks is still usable.
        let h = held.pop().unwrap();
        a.free(h);
        assert!(a.alloc(&[0u8; 1024]).is_ok());
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
    use std::collections::HashMap;

    proptest! {
        /// Alloc/free in arbitrary interleavings never corrupts payloads
        /// and always returns to zero use.
        #[test]
        fn allocator_matches_model(
            ops in proptest::collection::vec((any::<bool>(), 1usize..2000), 1..200)
        ) {
            let a = FragmentAllocator::new(1024 * 1024, 256 * 1024);
            let mut live: HashMap<u64, (FragHandle, Vec<u8>)> = HashMap::new();
            let mut next_tag = 0u64;
            for (is_alloc, size) in ops {
                if is_alloc || live.is_empty() {
                    let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                    if let Ok(h) = a.alloc(&data) {
                        live.insert(next_tag, (h, data));
                        next_tag += 1;
                    }
                } else {
                    let k = *live.keys().next().unwrap();
                    let (h, d) = live.remove(&k).unwrap();
                    prop_assert_eq!(a.load(h), d);
                    a.free(h);
                }
                // Every live payload stays intact after each step.
                for (h, d) in live.values() {
                    prop_assert_eq!(&a.load(*h), d);
                }
            }
            for (h, d) in live.into_values() {
                prop_assert_eq!(a.load(h), d);
                a.free(h);
            }
            prop_assert_eq!(a.used_bytes(), 0);
        }
    }
}
