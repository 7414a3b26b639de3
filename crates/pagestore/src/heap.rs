//! Per-partition heap files.
//!
//! A heap file is a chain of slotted heap pages owned by one partition.
//! Rows are addressed by `(PageId, SlotId)`; the engine's RID-Map keeps
//! the mapping from logical `RowId` to this physical address, so the
//! heap itself is oblivious to row identity.
//!
//! A tiny free-space map remembers how much room each page had after the
//! last touch, so inserts do not scan the chain.

use std::collections::{BTreeMap, BTreeSet};

use parking_lot::Mutex;

use btrim_common::atomics::Relaxed;
use btrim_common::{BtrimError, PageId, PartitionId, Result, SlotId};

use crate::buffer::BufferCache;
use crate::page::PageType;

/// A heap file: unordered row storage for one partition.
pub struct HeapFile {
    partition: PartitionId,
    inner: Mutex<HeapInner>,
    /// Live-row count, maintained on insert/delete/relocation. Lets
    /// scans skip the buffer cache entirely for empty heaps — the
    /// analytic scan path relies on this to stay latch-free once a
    /// partition is fully frozen.
    live_rows: Relaxed<u64>,
}

struct HeapInner {
    /// All pages of this heap, in allocation order.
    pages: Vec<PageId>,
    /// Approximate free bytes per page (maintained opportunistically).
    fsm: BTreeMap<PageId, usize>,
    /// Secondary index `(free_bytes, page)` so insert finds a candidate
    /// page in O(log n) instead of scanning the whole map.
    by_free: BTreeSet<(usize, PageId)>,
}

impl HeapInner {
    fn set_free(&mut self, pid: PageId, free: usize) {
        if let Some(old) = self.fsm.insert(pid, free) {
            self.by_free.remove(&(old, pid));
        }
        self.by_free.insert((free, pid));
    }
}

impl HeapFile {
    /// Create an empty heap for `partition`.
    pub fn new(partition: PartitionId) -> Self {
        HeapFile {
            partition,
            inner: Mutex::new(HeapInner {
                pages: Vec::new(),
                fsm: BTreeMap::new(),
                by_free: BTreeSet::new(),
            }),
            live_rows: Relaxed::new(0),
        }
    }

    /// The owning partition.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Replace this heap's page list (recovery: re-attach the pages
    /// found on disk for this partition). Rebuilds the free-space map.
    pub fn adopt_pages(&self, pages: Vec<PageId>, cache: &BufferCache) -> Result<()> {
        let mut frees = Vec::with_capacity(pages.len());
        let mut rows = 0u64;
        for &pid in &pages {
            let g = cache.fetch(pid)?;
            let (free, live) = g.with_page_read(|p| (p.total_free(), p.iter_rows().count() as u64));
            frees.push((pid, free));
            rows += live;
        }
        self.live_rows.store(rows);
        let mut inner = self.inner.lock();
        inner.pages = pages;
        inner.fsm.clear();
        inner.by_free.clear();
        for (pid, free) in frees {
            inner.set_free(pid, free);
        }
        Ok(())
    }

    /// Number of pages in the heap.
    pub fn num_pages(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Snapshot of the heap's page list (scan planning, recovery dumps).
    pub fn pages(&self) -> Vec<PageId> {
        self.inner.lock().pages.clone()
    }

    /// Live-row count without touching a single page (pure atomic read).
    pub fn live_rows(&self) -> u64 {
        self.live_rows.load()
    }

    /// Insert a row payload, returning its physical address.
    pub fn insert(&self, cache: &BufferCache, data: &[u8]) -> Result<(PageId, SlotId)> {
        if data.len() > crate::page::MAX_ROW_SIZE {
            return Err(BtrimError::Invalid(format!(
                "row of {} bytes exceeds page capacity",
                data.len()
            )));
        }
        // Candidate pages with enough space, best-fit-first via the
        // by-free index (O(log n), not a map scan).
        let need = data.len() + crate::page::SLOT_ENTRY_SIZE;
        for _ in 0..4 {
            let candidate = {
                let inner = self.inner.lock();
                inner
                    .by_free
                    .range((need, PageId(0))..)
                    .next()
                    .map(|&(_, pid)| pid)
            };
            let Some(pid) = candidate else { break };
            let guard = cache.fetch(pid)?;
            let (slot, free) = guard.with_page_write(|p| {
                let slot = p.insert(data);
                (slot, p.total_free())
            });
            self.inner.lock().set_free(pid, free);
            if let Some(slot) = slot {
                self.live_rows.fetch_add(1);
                return Ok((pid, slot));
            }
        }
        // No page had room: extend the heap.
        let guard = cache.new_page(PageType::Heap, self.partition)?;
        let pid = guard.page_id();
        let (slot, free) = guard.with_page_write(|p| {
            let slot = p.insert(data);
            (slot, p.total_free())
        });
        {
            let mut inner = self.inner.lock();
            // Link the chain: previous tail points at the new page.
            if let Some(&tail) = inner.pages.last() {
                let tail_guard = cache.fetch(tail)?;
                tail_guard.with_page_write(|p| p.set_next_page(pid));
            }
            inner.pages.push(pid);
            inner.set_free(pid, free);
        }
        // A fresh page holds any legal row; a `None` here means the
        // caller handed us a row larger than a page, which no layer
        // above ever produces — but surface it as an error, not a panic.
        // (The empty page stays linked into the chain for future use.)
        let slot = slot.ok_or_else(|| BtrimError::Invalid("row exceeds page capacity".into()))?;
        self.live_rows.fetch_add(1);
        Ok((pid, slot))
    }

    /// Read a row payload by physical address.
    pub fn get(&self, cache: &BufferCache, pid: PageId, slot: SlotId) -> Result<Option<Vec<u8>>> {
        let guard = cache.fetch(pid)?;
        Ok(guard.with_page_read(|p| p.get(slot).map(<[u8]>::to_vec)))
    }

    /// Update a row strictly in place. Returns `Ok(false)` when the new
    /// payload no longer fits on its page (the caller relocates with
    /// control over RID-Map publication ordering).
    pub fn try_update_in_place(
        &self,
        cache: &BufferCache,
        pid: PageId,
        slot: SlotId,
        data: &[u8],
    ) -> Result<bool> {
        let guard = cache.fetch(pid)?;
        let (ok, free) = guard.with_page_write(|p| (p.update(slot, data), p.total_free()));
        self.inner.lock().set_free(pid, free);
        Ok(ok)
    }

    /// Update a row strictly in place, WAL-first: probe the fit under
    /// the frame's write latch, invoke `log` (the caller's WAL append)
    /// while the latch pins the outcome, and only then overwrite the
    /// bytes. Returns `Ok(false)` — without logging — when the payload
    /// no longer fits (the caller relocates under its own log records).
    /// A failed `log` leaves the page untouched.
    ///
    /// Latch order: FRAME precedes WAL_LOG in the declared hierarchy,
    /// so appending under the frame latch is legal — and it is what
    /// makes "no page byte changes before its record enters the log's
    /// append order" hold even against concurrent writers racing for
    /// the same page's free space.
    pub fn try_update_in_place_logged(
        &self,
        cache: &BufferCache,
        pid: PageId,
        slot: SlotId,
        data: &[u8],
        log: impl FnOnce() -> Result<()>,
    ) -> Result<bool> {
        let guard = cache.fetch(pid)?;
        let (res, free) = guard.with_page_write(|p| {
            if !p.update_fits(slot, data.len()) {
                return (Ok(false), p.total_free());
            }
            if let Err(e) = log() {
                return (Err(e), p.total_free());
            }
            (Ok(p.update(slot, data)), p.total_free())
        });
        self.inner.lock().set_free(pid, free);
        res
    }

    /// Delete a row. Returns the freed payload length.
    pub fn delete(&self, cache: &BufferCache, pid: PageId, slot: SlotId) -> Result<usize> {
        let guard = cache.fetch(pid)?;
        let (len, free) = guard.with_page_write(|p| (p.delete(slot), p.total_free()));
        self.inner.lock().set_free(pid, free);
        if len.is_some() {
            self.live_rows.fetch_sub(1);
        }
        len.ok_or(BtrimError::Invalid(format!(
            "delete of dead slot {slot} on {pid}"
        )))
    }

    /// Full scan: invoke `f` for every live row. `f` returning `false`
    /// stops the scan early.
    pub fn scan(
        &self,
        cache: &BufferCache,
        mut f: impl FnMut(PageId, SlotId, &[u8]) -> bool,
    ) -> Result<()> {
        if self.live_rows() == 0 {
            return Ok(());
        }
        let pages = self.pages();
        for pid in pages {
            let guard = cache.fetch(pid)?;
            let keep_going = guard.with_page_read(|p| {
                for (slot, data) in p.iter_rows() {
                    if !f(pid, slot, data) {
                        return false;
                    }
                }
                true
            });
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Total live rows (scans the heap; for stats and tests).
    pub fn count_rows(&self, cache: &BufferCache) -> Result<usize> {
        let mut n = 0;
        self.scan(cache, |_, _, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::Arc;

    fn setup() -> (Arc<BufferCache>, HeapFile) {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 64));
        (cache, HeapFile::new(PartitionId(7)))
    }

    #[test]
    fn insert_and_get() {
        let (cache, heap) = setup();
        let (pid, slot) = heap.insert(&cache, b"first row").unwrap();
        assert_eq!(
            heap.get(&cache, pid, slot).unwrap().unwrap(),
            b"first row".to_vec()
        );
    }

    #[test]
    fn inserts_spill_to_new_pages_and_chain_links() {
        let (cache, heap) = setup();
        let row = vec![1u8; 1000];
        for _ in 0..30 {
            heap.insert(&cache, &row).unwrap();
        }
        assert!(heap.num_pages() >= 4);
        assert_eq!(heap.count_rows(&cache).unwrap(), 30);
        // Chain is linked in order.
        let pages = heap.pages();
        for w in pages.windows(2) {
            let g = cache.fetch(w[0]).unwrap();
            let next = g.with_page_read(|p| p.next_page());
            assert_eq!(next, w[1]);
        }
    }

    #[test]
    fn update_in_place_until_the_page_is_full() {
        let (cache, heap) = setup();
        // Fill page 0 almost completely.
        let (pid0, slot0) = heap.insert(&cache, &[2u8; 100]).unwrap();
        while heap.num_pages() == 1 {
            heap.insert(&cache, &vec![3u8; 500]).unwrap();
        }
        // A small image fits where the row is.
        assert!(heap
            .try_update_in_place(&cache, pid0, slot0, b"tiny")
            .unwrap());
        assert_eq!(heap.get(&cache, pid0, slot0).unwrap().unwrap(), b"tiny");
        // A huge one does not, and leaves the row untouched: relocating
        // is the caller's move (it owns the RID-Map publication order).
        let big = vec![9u8; 7000];
        assert!(!heap.try_update_in_place(&cache, pid0, slot0, &big).unwrap());
        assert_eq!(heap.get(&cache, pid0, slot0).unwrap().unwrap(), b"tiny");
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let (cache, heap) = setup();
        let mut addrs = Vec::new();
        for i in 0..20u8 {
            addrs.push(heap.insert(&cache, &vec![i; 300]).unwrap());
        }
        let pages_before = heap.num_pages();
        for (pid, slot) in &addrs {
            heap.delete(&cache, *pid, *slot).unwrap();
        }
        assert_eq!(heap.count_rows(&cache).unwrap(), 0);
        // Re-inserting the same volume should not grow the heap.
        for i in 0..20u8 {
            heap.insert(&cache, &vec![i; 300]).unwrap();
        }
        assert_eq!(heap.num_pages(), pages_before);
    }

    #[test]
    fn scan_stops_early() {
        let (cache, heap) = setup();
        for i in 0..10u8 {
            heap.insert(&cache, &[i]).unwrap();
        }
        let mut seen = 0;
        heap.scan(&cache, |_, _, _| {
            seen += 1;
            seen < 3
        })
        .unwrap();
        assert_eq!(seen, 3);
    }

    #[test]
    fn live_rows_tracks_mutations_without_page_reads() {
        let (cache, heap) = setup();
        assert_eq!(heap.live_rows(), 0);
        let mut addrs = Vec::new();
        for i in 0..12u8 {
            addrs.push(heap.insert(&cache, &vec![i; 400]).unwrap());
        }
        assert_eq!(heap.live_rows(), 12);
        // A relocation (insert the new copy, delete the old) keeps the
        // count stable.
        let (pid, slot) = addrs[0];
        heap.insert(&cache, &vec![0u8; 7000]).unwrap();
        heap.delete(&cache, pid, slot).unwrap();
        assert_eq!(heap.live_rows(), 12);
        for (pid, slot) in &addrs[1..] {
            heap.delete(&cache, *pid, *slot).unwrap();
        }
        assert_eq!(heap.live_rows(), 1);
        assert_eq!(heap.count_rows(&cache).unwrap(), 1);
        // adopt_pages recomputes from the pages themselves.
        let pages = heap.pages();
        let rebuilt = HeapFile::new(PartitionId(7));
        rebuilt.adopt_pages(pages, &cache).unwrap();
        assert_eq!(rebuilt.live_rows(), 1);
    }

    #[test]
    fn double_delete_is_an_error() {
        let (cache, heap) = setup();
        let (pid, slot) = heap.insert(&cache, b"x").unwrap();
        heap.delete(&cache, pid, slot).unwrap();
        assert!(heap.delete(&cache, pid, slot).is_err());
    }
}
