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

use crate::buffer::{BufferCache, PageGuard};
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

/// A page a batch plans to visit: one the heap has, or the `k`-th page
/// the batch opens. Opened pages order after existing ones, as their ids
/// will.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Target {
    Page(PageId),
    Fresh(usize),
}

/// Free bytes of a page no row has touched.
const EMPTY_PAGE_FREE: usize = crate::page::PAGE_SIZE - crate::page::HEADER_SIZE;

/// The free-space map as a plan has left it: the heap's `by_free` under
/// the pages the plan has filled.
struct Sim<'a> {
    by_free: &'a BTreeSet<(usize, PageId)>,
    touched: Vec<(usize, Target)>,
    opened: usize,
}

impl Sim<'_> {
    /// The map's entries with at least `need` free bytes, fullest first,
    /// that the plan has not touched.
    fn untouched(&self, need: usize) -> impl DoubleEndedIterator<Item = (usize, Target)> + '_ {
        let entries = self.by_free.range((need, PageId(0))..);
        let entries = entries.map(|&(free, pid)| (free, Target::Page(pid)));
        entries.filter(|&(_, t)| self.touched.iter().all(|e| e.1 != t))
    }

    /// The fullest page with at least `need` free bytes.
    fn best_fit(&self, need: usize) -> Option<(usize, Target)> {
        let touched = self.touched.iter().filter(|e| e.0 >= need).copied();
        self.untouched(need).next().into_iter().chain(touched).min()
    }

    /// The emptiest page.
    fn emptiest(&self) -> Option<(usize, Target)> {
        let touched = self.touched.iter().copied();
        self.untouched(0)
            .next_back()
            .into_iter()
            .chain(touched)
            .max()
    }

    fn open(&mut self) -> (usize, Target) {
        self.opened += 1;
        (EMPTY_PAGE_FREE, Target::Fresh(self.opened - 1))
    }

    fn set(&mut self, free: usize, t: Target) {
        match self.touched.iter_mut().find(|e| e.1 == t) {
            Some(e) => e.0 = free,
            None => self.touched.push((free, t)),
        }
    }
}

/// Add row `i` to the visit of `t`, the first one to `t` opening it.
fn visit(visits: &mut Vec<(Target, Vec<usize>)>, t: Target, i: usize) {
    match visits.iter_mut().find(|v| v.0 == t) {
        Some(v) => v.1.push(i),
        None => visits.push((t, vec![i])),
    }
}

/// Plan a batch of rows needing `needs` bytes each (see
/// [`HeapFile::insert_batch`]): the pages to visit, in order, each with
/// the indices of the rows it takes.
fn plan_batch(by_free: &BTreeSet<(usize, PageId)>, needs: &[usize]) -> Vec<(Target, Vec<usize>)> {
    let fresh = || Sim {
        by_free,
        touched: Vec::new(),
        opened: 0,
    };
    // Concentrated: runs of rows per page.
    let (mut sim, mut visits) = (fresh(), Vec::new());
    let mut next = 0;
    while next < needs.len() {
        let remainder = needs[next..].iter().sum();
        let (mut free, t) = sim
            .best_fit(remainder)
            .or_else(|| sim.emptiest().filter(|e| e.0 >= needs[next]))
            .unwrap_or_else(|| sim.open());
        while next < needs.len() && needs[next] <= free {
            free -= needs[next];
            visit(&mut visits, t, next);
            next += 1;
        }
        sim.set(free, t);
    }
    if sim.opened == 0 {
        return visits;
    }
    let concentrated = sim.opened;
    // Row at a time, best fit: what one `insert` per row would open.
    let mut sim = fresh();
    let mut best: Vec<(Target, Vec<usize>)> = Vec::new();
    for (i, &need) in needs.iter().enumerate() {
        let (free, t) = sim.best_fit(need).unwrap_or_else(|| sim.open());
        sim.set(free - need, t);
        visit(&mut best, t, i);
    }
    if concentrated <= sim.opened {
        visits
    } else {
        best
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

    /// Insert a row payload, returning its physical address: the
    /// fullest page with room, else a new one. (Not a batch of one:
    /// [`insert_batch`](Self::insert_batch)'s planner makes a single
    /// insert markedly slower, EXPERIMENTS.md.)
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
            let (slot, free) = guard.with_page_write(|p| (p.insert(data), p.total_free()));
            self.inner.lock().set_free(pid, free);
            if let Some(slot) = slot {
                self.live_rows.fetch_add(1);
                return Ok((pid, slot));
            }
        }
        // No page had room: extend the heap.
        let guard = self.open_page(cache)?;
        let pid = guard.page_id();
        let (slot, free) = guard.with_page_write(|p| (p.insert(data), p.total_free()));
        drop(guard);
        self.inner.lock().set_free(pid, free);
        // A fresh page holds any legal row (checked above); the empty
        // page stays linked for future use.
        let slot = slot.ok_or_else(|| BtrimError::Invalid("row exceeds page capacity".into()))?;
        self.live_rows.fetch_add(1);
        Ok((pid, slot))
    }

    /// Insert row payloads as one batch, a page per visit: one fetch,
    /// one write latch and one free-space update per page. The batch is
    /// planned on the free-space map first. The preferred plan fills the
    /// smallest page that takes the whole remainder, else the emptiest
    /// page, else a new one, and moves on when the next row does not
    /// fit, so the batch lands on few pages, each compacted at most
    /// once. It is taken unless it opens more pages than placing each
    /// row on its best-fit page, one at a time, would; then that plan
    /// is taken, still one visit per page. `placed[i]` is set when
    /// `rows[i]` lands: on `Err`, the set entries are the copies already
    /// staged, for the caller to undo.
    pub fn insert_batch(
        &self,
        cache: &BufferCache,
        rows: &[&[u8]],
        placed: &mut [Option<(PageId, SlotId)>],
    ) -> Result<()> {
        if let Some(r) = rows.iter().find(|r| r.len() > crate::page::MAX_ROW_SIZE) {
            return Err(BtrimError::Invalid(format!(
                "row of {} bytes exceeds page capacity",
                r.len()
            )));
        }
        let mut pending: Vec<usize> = (0..rows.len()).collect();
        // A page another writer filled since the plan was made sends its
        // rows round again; after three rounds they go to new pages.
        for round in 0.. {
            if pending.is_empty() {
                break;
            }
            let needs: Vec<usize> = pending
                .iter()
                .map(|&i| rows[i].len() + crate::page::SLOT_ENTRY_SIZE)
                .collect();
            let visits = {
                let inner = self.inner.lock();
                // A map with no pages: every row to a new one.
                static NONE: BTreeSet<(usize, PageId)> = BTreeSet::new();
                plan_batch(if round < 3 { &inner.by_free } else { &NONE }, &needs)
            };
            let mut left = Vec::new();
            for (target, members) in visits {
                let (guard, fresh) = match target {
                    Target::Page(pid) => (cache.fetch(pid)?, false),
                    Target::Fresh(_) => (self.open_page(cache)?, true),
                };
                let pid = guard.page_id();
                let (landed, free) = guard.with_page_write(|p| {
                    let (mut landed, mut cursor) = (0, 0);
                    for &m in &members {
                        let i = pending[m];
                        match p.insert_from(rows[i], &mut cursor) {
                            Some(slot) => {
                                placed[i] = Some((pid, slot));
                                landed += 1;
                            }
                            None => left.push(i),
                        }
                    }
                    (landed, p.total_free())
                });
                drop(guard);
                self.live_rows.fetch_add(landed);
                self.inner.lock().set_free(pid, free);
                if fresh && landed == 0 {
                    // A fresh page holds any legal row (checked above);
                    // the empty page stays linked for future use.
                    return Err(BtrimError::Invalid("row exceeds page capacity".into()));
                }
            }
            pending = left;
        }
        Ok(())
    }

    /// Extend the heap by one page, linked into the chain before any row
    /// lands on it, so a row is never placed on a page the chain does
    /// not reach. The caller enters it in the free-space map once its
    /// rows are on it: until then no other insert can pick it.
    fn open_page<'c>(&self, cache: &'c BufferCache) -> Result<PageGuard<'c>> {
        let guard = cache.new_page(PageType::Heap, self.partition)?;
        let pid = guard.page_id();
        let mut inner = self.inner.lock();
        // Link the chain: the previous tail points at the new page.
        if let Some(&tail) = inner.pages.last() {
            cache.fetch(tail)?.with_page_write(|p| p.set_next_page(pid));
        }
        inner.pages.push(pid);
        Ok(guard)
    }

    /// Read the rows at `at`, a page at a time: one fetch and one read
    /// latch per page. `f` gets each live row's index in `at` and its
    /// payload, under the latch; a dead slot is skipped.
    pub fn read_many(
        &self,
        cache: &BufferCache,
        at: &[(PageId, SlotId)],
        mut f: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut order: Vec<usize> = (0..at.len()).collect();
        order.sort_unstable_by_key(|&i| at[i].0);
        for group in order.chunk_by(|&a, &b| at[a].0 == at[b].0) {
            let guard = cache.fetch(at[group[0]].0)?;
            guard.with_page_read(|p| {
                let mut live = group.iter().filter_map(|&i| Some((i, p.get(at[i].1)?)));
                live.try_for_each(|(i, payload)| f(i, payload))
            })?;
        }
        Ok(())
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

    /// Delete a row: a [`delete_many`](Self::delete_many) of one.
    pub fn delete(&self, cache: &BufferCache, pid: PageId, slot: SlotId) -> Result<()> {
        self.delete_many(cache, &mut [(pid, slot)]).map(drop)
    }

    /// Delete the rows at `at` (sorted here), a page at a time: one
    /// fetch, one write latch and one free-space update per page.
    /// Returns how many were live; a dead slot among them is an error,
    /// after the live ones are gone.
    pub fn delete_many(&self, cache: &BufferCache, at: &mut [(PageId, SlotId)]) -> Result<usize> {
        at.sort_unstable();
        let mut live = 0;
        for group in at.chunk_by(|a, b| a.0 == b.0) {
            let guard = cache.fetch(group[0].0)?;
            let (n, free) = guard.with_page_write(|p| {
                let n = group.iter().filter(|&&(_, slot)| p.delete(slot).is_some());
                (n.count(), p.total_free())
            });
            self.inner.lock().set_free(group[0].0, free);
            self.live_rows.fetch_sub(n as u64);
            live += n;
        }
        if live < at.len() {
            return Err(BtrimError::Invalid(format!(
                "delete of {} dead slot(s) on {:?}",
                at.len() - live,
                at.first().map(|a| a.0)
            )));
        }
        Ok(live)
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

    /// Every page's free-space entry equals its page's total free bytes,
    /// and the by-free index holds exactly those entries.
    fn assert_fsm_consistent(cache: &BufferCache, heap: &HeapFile) {
        let inner = heap.inner.lock();
        assert_eq!(inner.fsm.len(), inner.pages.len());
        assert_eq!(inner.by_free.len(), inner.fsm.len());
        for &pid in &inner.pages {
            let free = cache.fetch(pid).unwrap().with_page_read(|p| p.total_free());
            assert_eq!(inner.fsm.get(&pid), Some(&free), "fsm of {pid}");
            assert!(inner.by_free.contains(&(free, pid)));
        }
    }

    /// 64 cases, or what `PROPTEST_CASES` asks for.
    fn cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        asked.and_then(|n| n.parse().ok()).unwrap_or(64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases()))]

        /// `insert_batch` against one-at-a-time `insert` on a twin heap
        /// that a random history of inserts and deletes shaped alike.
        #[test]
        fn insert_batch_matches_one_at_a_time_inserts(
            history in proptest::collection::vec((1usize..1500, proptest::prelude::any::<bool>()), 0..60),
            batch in proptest::collection::vec(1usize..2500, 1..70),
        ) {
            let (cache_a, batched) = setup();
            let (cache_b, single) = setup();
            for (i, &(len, keep)) in history.iter().enumerate() {
                let row = vec![i as u8; len];
                let a = batched.insert(&cache_a, &row).unwrap();
                let b = single.insert(&cache_b, &row).unwrap();
                if !keep {
                    batched.delete(&cache_a, a.0, a.1).unwrap();
                    single.delete(&cache_b, b.0, b.1).unwrap();
                }
            }
            let rows: Vec<Vec<u8>> = batch
                .iter()
                .enumerate()
                .map(|(i, &len)| vec![(i as u8).wrapping_mul(31); len])
                .collect();
            let slices: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
            let mut placed = vec![None; rows.len()];
            batched.insert_batch(&cache_a, &slices, &mut placed).unwrap();
            for row in &rows {
                single.insert(&cache_b, row).unwrap();
            }

            for (row, at) in rows.iter().zip(&placed) {
                let (pid, slot) = at.unwrap();
                let got = batched.get(&cache_a, pid, slot).unwrap();
                proptest::prop_assert_eq!(got.as_deref(), Some(row.as_slice()));
            }
            for pid in batched.pages() {
                let used = cache_a.fetch(pid).unwrap().with_page_read(|p| {
                    p.iter_rows().map(|(_, r)| r.len() + crate::page::SLOT_ENTRY_SIZE).sum::<usize>()
                });
                proptest::prop_assert!(used <= crate::page::PAGE_SIZE - crate::page::HEADER_SIZE);
            }
            assert_fsm_consistent(&cache_a, &batched);
            proptest::prop_assert_eq!(batched.live_rows(), single.live_rows());
            proptest::prop_assert_eq!(batched.count_rows(&cache_a).unwrap() as u64, batched.live_rows());
            proptest::prop_assert!(
                batched.num_pages() <= single.num_pages(),
                "batch {} pages, one at a time {}",
                batched.num_pages(),
                single.num_pages()
            );
        }
    }

    #[test]
    fn read_many_and_delete_many_visit_each_page_once() {
        let (cache, heap) = setup();
        let mut addrs: Vec<_> = (0..6u8)
            .map(|i| heap.insert(&cache, &[i; 200]).unwrap())
            .collect();
        let mut read = Vec::new();
        heap.read_many(&cache, &addrs[..4], |i, row| {
            read.push((i, row[0]));
            Ok(())
        })
        .unwrap();
        read.sort();
        assert_eq!(read, [(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(heap.delete_many(&cache, &mut addrs[..4]).unwrap(), 4);
        assert_eq!(heap.live_rows(), 2);
        assert_fsm_consistent(&cache, &heap);
        assert!(heap.delete_many(&cache, &mut addrs[..1]).is_err());
        assert_eq!(heap.live_rows(), 2);
    }

    /// A device whose next read of one chosen page fails.
    struct FailingRead {
        inner: MemDisk,
        page: Mutex<Option<PageId>>,
    }

    impl crate::disk::DiskBackend for FailingRead {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            if self.page.lock().take_if(|p| *p == id).is_some() {
                return Err(std::io::Error::other("injected read error").into());
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
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

    /// A batch whose new page cannot be linked (the tail page fails to
    /// read) places no row off the chain: once the caller deletes the
    /// copies it was told of, the free-space map covers exactly the
    /// chain's pages.
    #[test]
    fn a_failed_page_link_places_no_row_off_the_chain() {
        let disk = Arc::new(FailingRead {
            inner: MemDisk::new(),
            page: Mutex::new(None),
        });
        let cache =
            BufferCache::with_shards(disk.clone(), 2, 1).with_io_retry(1, Default::default());
        let heap = HeapFile::new(PartitionId(7));
        heap.insert(&cache, &[1u8; 6000]).unwrap();
        let (tail, _) = heap.insert(&cache, &[1u8; 7000]).unwrap();
        // Two pages outside the heap push the tail out of the cache.
        for _ in 0..2 {
            cache.new_page(PageType::Heap, PartitionId(7)).unwrap();
        }
        *disk.page.lock() = Some(tail);
        // The small row lands on the first page; the big one needs a new
        // page, whose link reads the tail.
        let (small, big) = ([2u8; 1500], [3u8; 3000]);
        let mut placed = [None, None];
        let batch = heap.insert_batch(&cache, &[&small, &big], &mut placed);
        assert!(batch.is_err() && disk.page.lock().is_none());
        assert!(placed[0].is_some());
        let mut staged: Vec<_> = placed.iter().flatten().copied().collect();
        heap.delete_many(&cache, &mut staged).unwrap();
        assert_eq!(heap.num_pages(), 2);
        assert_eq!(heap.live_rows(), 2);
        assert_fsm_consistent(&cache, &heap);
    }

    #[test]
    fn double_delete_is_an_error() {
        let (cache, heap) = setup();
        let (pid, slot) = heap.insert(&cache, b"x").unwrap();
        heap.delete(&cache, pid, slot).unwrap();
        assert!(heap.delete(&cache, pid, slot).is_err());
    }
}
