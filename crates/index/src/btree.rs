//! Page-based B+tree whose nodes *are* slotted pages.
//!
//! One buffer-cache page per node, one cell per entry, the slot
//! directory kept in key order: lookups binary-search the raw page and
//! an insert or delete edits one cell and shifts directory entries —
//! nothing is decoded, rebuilt or re-encoded. The pages are cached,
//! evicted and flushed like any other page-store page.
//!
//! ```text
//! leaf  cell   key ‖ rid u64                    chained through next_page
//! inner cell   key ‖ rid u64 ‖ child u32        cell 0: empty key, rid 0 ("−∞")
//! ```
//!
//! Entries are ordered by `(key, rid)`. A non-unique tree routes, finds
//! and deletes by the full pair, so a run of duplicates that straddles
//! a split stays reachable: separators carry the rid of the first entry
//! to their right. A unique tree orders by key alone (its separators and
//! probes carry rid 0). An inner cell's child holds the entries at or
//! above the cell's pair and below the next cell's.
//!
//! A node splits only when a cell does not fit. An entry that extends an
//! ascending run — it sorts right behind the last cell written to its
//! page — leaves that page nine tenths full (room for a straggler, no
//! half-empty pages behind an ascending load) and the run goes on in
//! the new page; everything else splits at half the bytes. Deletes
//! leave holes that the page compacts when contiguous space runs out;
//! underfull nodes are tolerated and never merged, a common trade-off
//! for OLTP trees whose tables rarely shrink.
//!
//! Concurrency: one tree-level reader-writer latch, and under it one
//! frame latch at a time — a split copies the node out, fills the new
//! page, then trims the old one. (The engine's hash index is the
//! latch-free fast path for point lookups of IMRS rows, §II.)

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::RwLock;

use btrim_common::{BtrimError, PageId, PartitionId, Result, RowId, SlotId};
use btrim_pagestore::page::{
    Page, PageType, PageView, SlottedPage, HEADER_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE,
};
use btrim_pagestore::BufferCache;

use PageType::{BTreeInner as Inner, BTreeLeaf as Leaf};

/// Maximum key length accepted.
pub const MAX_KEY_LEN: usize = 1024;
/// Bytes (cells and directory) an ascending run leaves on each page it
/// fills: nine tenths, so a key that arrives later fits without a split.
const RUN_FILL: usize = (PAGE_SIZE - HEADER_SIZE) * 9 / 10;

/// Bytes that follow the key in a cell of a `kind` page: the rid, and in
/// an inner cell the child.
fn suffix(kind: PageType) -> usize {
    8 + 4 * (kind == Inner) as usize
}

/// Cell `i` of the `kind` page `p`. A slot that is missing, or shorter
/// than what follows a key, is [`BtrimError::Corrupt`]: a damaged page
/// fails the operation, it does not route it somewhere.
fn cell(p: &Page<impl Deref<Target = [u8]>>, i: u16, kind: PageType) -> Result<&[u8]> {
    let whole = p.get(SlotId(i)).filter(|c| c.len() >= suffix(kind));
    whole.ok_or_else(|| BtrimError::Corrupt(format!("btree page {}: cell {i}", p.page_id())))
}

/// The ordering pair of a cell that [`cell`] vouched for: its key and
/// the rid behind it.
fn split_cell(cell: &[u8], kind: PageType) -> (&[u8], u64) {
    let (key, rest) = cell.split_at(cell.len() - suffix(kind));
    let mut rid = [0; 8];
    rid.copy_from_slice(&rest[..8]);
    (key, u64::from_le_bytes(rid))
}

/// Cell `i` of `p` as its ordering pair.
fn pair(p: &Page<impl Deref<Target = [u8]>>, i: u16, kind: PageType) -> Result<(&[u8], u64)> {
    Ok(split_cell(cell(p, i, kind)?, kind))
}

/// Child page of inner cell `i`.
fn child(p: &Page<impl Deref<Target = [u8]>>, i: u16) -> Result<PageId> {
    let cell = cell(p, i, Inner)?;
    let mut id = [0; 4];
    id.copy_from_slice(&cell[cell.len() - 4..]);
    Ok(PageId(u32::from_le_bytes(id)))
}

/// In a leaf, the first directory position whose pair is `>= (key,
/// rid)`; in an inner node, the first whose pair is `>` (the cell before
/// it routes there).
fn search(
    p: &Page<impl Deref<Target = [u8]>>,
    kind: PageType,
    key: &[u8],
    rid: u64,
) -> Result<u16> {
    let (mut lo, mut hi) = (0, p.slot_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (k, r) = pair(p, mid, kind)?;
        let ord = k.cmp(key).then(r.cmp(&rid));
        if ord.is_lt() || (kind == Inner && ord.is_eq()) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Write the cell `key ‖ rid [‖ child]` at directory position `pos`.
/// `false` when the page has no room for it.
fn put(p: &mut SlottedPage<'_>, pos: u16, key: &[u8], rid: u64, child: Option<PageId>) -> bool {
    let len = key.len() + suffix(if child.is_some() { Inner } else { Leaf });
    let Some(cell) = p.insert_ordered(pos, len) else {
        return false;
    };
    cell[..key.len()].copy_from_slice(key);
    cell[key.len()..key.len() + 8].copy_from_slice(&rid.to_le_bytes());
    if let Some(c) = child {
        cell[key.len() + 8..].copy_from_slice(&c.0.to_le_bytes());
    }
    true
}

/// Root page and height; the lock around it is the tree latch.
struct Root {
    page: PageId,
    height: usize,
}

/// What a split hands its parent: the first pair of the new right page.
struct Separator {
    key: Vec<u8>,
    rid: u64,
    right: PageId,
}

/// A page-based B+tree index.
pub struct BTreeIndex {
    cache: Arc<BufferCache>,
    partition: PartitionId,
    unique: bool,
    root: RwLock<Root>,
}

impl BTreeIndex {
    /// Create an empty tree whose pages are tagged with `partition`.
    pub fn new(cache: Arc<BufferCache>, partition: PartitionId, unique: bool) -> Result<Self> {
        let page = cache.new_page(Leaf, partition)?.page_id();
        Ok(BTreeIndex {
            cache,
            partition,
            unique,
            root: RwLock::new(Root { page, height: 1 }),
        })
    }

    /// The rid an entry is ordered by: a unique tree orders by key alone.
    fn tie(&self, rid: RowId) -> u64 {
        if self.unique {
            0
        } else {
            rid.0
        }
    }

    /// Run `f` over page `pid` under its shared latch.
    fn read<R>(&self, pid: PageId, f: impl FnOnce(&PageView<'_>) -> Result<R>) -> Result<R> {
        self.cache.fetch(pid)?.with_page_read(f)
    }

    /// As [`Self::read`], under the exclusive latch; dirties the page.
    fn write<R>(&self, pid: PageId, f: impl FnOnce(&mut SlottedPage<'_>) -> R) -> Result<R> {
        Ok(self.cache.fetch(pid)?.with_page_write(f))
    }

    /// The node `depth` levels below the root on the way to `(key, rid)`.
    fn descend(&self, root: &Root, key: &[u8], rid: u64, depth: usize) -> Result<PageId> {
        let mut pid = root.page;
        for _ in 0..depth {
            pid = self.read(pid, |p| {
                child(p, search(p, Inner, key, rid)?.saturating_sub(1))
            })?;
        }
        Ok(pid)
    }

    /// Leaf, position and rid of the first entry `>= (key, rid)`, if its
    /// key is `key`. A non-unique tree follows the leaf chain past
    /// exhausted leaves: the run may start on the next one.
    fn seek(&self, root: &Root, key: &[u8], rid: u64) -> Result<Option<(PageId, u16, RowId)>> {
        let mut pid = self.descend(root, key, rid, root.height - 1)?;
        loop {
            let (hit, next) = self.read(pid, |p| {
                let pos = search(p, Leaf, key, rid)?;
                if pos == p.slot_count() {
                    return Ok((None, p.next_page()));
                }
                let (k, r) = pair(p, pos, Leaf)?;
                Ok((
                    Some((k == key).then_some((pid, pos, RowId(r)))),
                    p.next_page(),
                ))
            })?;
            match hit {
                Some(found) => return Ok(found),
                None if self.unique || next.is_null() => return Ok(None),
                None => pid = next,
            }
        }
    }

    /// Insert `key → rid`. Errors with [`BtrimError::DuplicateKey`] on a
    /// unique tree when the key already exists; inserting a pair a
    /// non-unique tree already holds is a no-op.
    pub fn insert(&self, key: &[u8], rid: RowId) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(BtrimError::Invalid(format!(
                "key of {} bytes exceeds MAX_KEY_LEN",
                key.len()
            )));
        }
        let mut root = self.root.write();
        let tie = self.tie(rid);
        let mut depth = root.height - 1;
        let leaf = self.descend(&root, key, tie, depth)?;
        // Probe under the shared latch — the tree latch keeps the leaf as
        // it is until the write below — so an insert that is refused, or
        // finds its pair in place, dirties nothing.
        let guard = self.cache.fetch(leaf)?;
        let pos = guard.with_page_read(|p| {
            let pos = search(p, Leaf, key, tie)?;
            if pos < p.slot_count() {
                let (k, r) = pair(p, pos, Leaf)?;
                if k == key && self.unique {
                    return Err(BtrimError::DuplicateKey(format!("{key:?}")));
                } else if k == key && r == rid.0 {
                    return Ok(None);
                }
            }
            Ok(Some(pos))
        })?;
        let Some(pos) = pos else {
            return Ok(());
        };
        if guard.with_page_write(|p| put(p, pos, key, rid.0, None)) {
            return Ok(());
        }
        drop(guard);
        // Split, then hand each level's separator to the level above
        // (found by descending again: splits are rare, paths are not
        // recorded).
        let mut sep = self.split(leaf, Leaf, pos, key, rid.0, None)?;
        while depth > 0 {
            depth -= 1;
            let parent = self.descend(&root, key, tie, depth)?;
            let pos = self.read(parent, |p| search(p, Inner, &sep.key, sep.rid))?;
            if self.write(parent, |p| put(p, pos, &sep.key, sep.rid, Some(sep.right)))? {
                return Ok(());
            }
            sep = self.split(parent, Inner, pos, &sep.key, sep.rid, Some(sep.right))?;
        }
        // The root itself split: a new root above both halves.
        let guard = self.cache.new_page(Inner, self.partition)?;
        guard.with_page_write(|p| {
            put(p, 0, &[], 0, Some(root.page));
            put(p, 1, &sep.key, sep.rid, Some(sep.right));
        });
        root.page = guard.page_id();
        root.height += 1;
        Ok(())
    }

    /// Split full node `pid` around the cell `key ‖ rid [‖ child]` that
    /// belongs at `pos`, placing that cell too. Runs under the tree's
    /// write latch and holds one frame latch at a time.
    fn split(
        &self,
        pid: PageId,
        kind: PageType,
        pos: u16,
        key: &[u8],
        rid: u64,
        child_of_new: Option<PageId>,
    ) -> Result<Separator> {
        let mut copy = [0u8; PAGE_SIZE];
        self.cache
            .fetch(pid)?
            .with_read(|buf| copy.copy_from_slice(buf));
        let old = PageView::new(&copy);
        let count = old.slot_count();
        let cells = (0..count).map(|i| cell(&old, i, kind));
        let cells = cells.collect::<Result<Vec<_>>>()?;
        let size = |i: u16| cells[i as usize].len() + SLOT_ENTRY_SIZE;
        // An entry that extends an ascending run — it sorts behind the
        // last cell written here — leaves this page `RUN_FILL` full and
        // never cuts beyond its own position, so the run goes on behind
        // it; anything else halves the bytes.
        let run = pos == count || (pos > 0 && old.is_newest(pos - 1));
        let (goal, limit) = if run {
            (RUN_FILL, pos)
        } else {
            (
                (0..count).map(size).sum::<usize>() / 2,
                count.saturating_sub(1),
            )
        };
        // `cut`: the old cells from there on move to the right page.
        let (mut cut, mut bytes) = (0, 0);
        while cut < limit && bytes < goal {
            bytes += size(cut);
            cut += 1;
        }
        // The new cell stays here when it sorts below the cut — or at
        // it, if old cells follow and their leaving makes room.
        let moved: usize = (cut..count).map(size).sum();
        let need = key.len() + suffix(kind) + SLOT_ENTRY_SIZE;
        let left = pos < cut || (pos == cut && pos < count && old.total_free() + moved >= need);

        let guard = self.cache.new_page(kind, self.partition)?;
        let right = guard.page_id();
        let sep = guard.with_page_write(|r| {
            let mut ok = cells[cut as usize..].iter().zip(0..).all(|(cell, at)| {
                r.insert_ordered(at, cell.len())
                    .map(|dst| dst.copy_from_slice(cell))
                    .is_some()
            });
            ok &= left || put(r, pos - cut, key, rid, child_of_new);
            r.set_next_page(old.next_page());
            let (first_key, first_rid) = pair(r, 0, kind).ok()?;
            let sep = Separator {
                key: first_key.to_vec(),
                rid: if kind == Leaf {
                    self.tie(RowId(first_rid))
                } else {
                    first_rid
                },
                right,
            };
            if kind == Inner {
                // The separator moves up; below it the cell is "−∞".
                let first_child = child(r, 0).ok()?;
                ok &= r.remove_ordered(0) && put(r, 0, &[], 0, Some(first_child));
            }
            ok.then_some(sep)
        });
        drop(guard);
        // Unreachable while a page holds two cells of the longest key.
        let misfit = || BtrimError::Corrupt(format!("btree page {pid}: split half does not fit"));
        let sep = sep.ok_or_else(misfit)?;
        let placed = self.write(pid, |l| {
            for i in (cut..count).rev() {
                l.remove_ordered(i);
            }
            if kind == Leaf {
                l.set_next_page(right);
            }
            !left || put(l, pos, key, rid, child_of_new)
        })?;
        placed.then_some(sep).ok_or_else(misfit)
    }

    /// Point lookup: the first entry for `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<RowId>> {
        let root = self.root.read();
        Ok(self.seek(&root, key, 0)?.map(|(_, _, rid)| rid))
    }

    /// All `RowId`s for `key`, in rid order (non-unique trees; the run
    /// may cross leaves).
    pub fn get_all(&self, key: &[u8]) -> Result<Vec<RowId>> {
        let mut out = Vec::new();
        self.scan(
            key,
            |k| k != key,
            usize::MAX,
            |_, rid| {
                out.push(rid);
                true
            },
        )?;
        Ok(out)
    }

    /// Remove an entry. On unique trees `rid` may be `None` (remove by
    /// key); on non-unique trees the exact `(key, rid)` pair is removed
    /// (`None`: the first entry for `key`). Returns whether anything
    /// was removed.
    pub fn delete(&self, key: &[u8], rid: Option<RowId>) -> Result<bool> {
        let root = self.root.write();
        let tie = rid.map_or(0, |r| self.tie(r));
        match self.seek(&root, key, tie)? {
            Some((leaf, pos, found)) if rid.is_none_or(|r| r == found) => {
                self.write(leaf, |p| p.remove_ordered(pos))
            }
            _ => Ok(false),
        }
    }

    /// Scan keys in `[lo, hi)` (`hi = None` scans to the end), calling
    /// `f(key, rid)`; `f` returning `false` stops the scan.
    pub fn scan_range(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        self.scan_range_at_most(lo, hi, usize::MAX, f)
    }

    /// [`scan_range`](Self::scan_range) over at most `limit` entries: a
    /// caller that wants only the first few copies no more of a leaf.
    pub fn scan_range_at_most(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        self.scan(lo, |k| hi.is_some_and(|hi| k >= hi), limit, f)
    }

    /// At most `limit` entries from the first key `>= lo` up to the
    /// first key `past` accepts. Each leaf's share is copied into one
    /// reused buffer (`len u16 ‖ cell`, back to back) and `f` runs
    /// outside the latch.
    fn scan(
        &self,
        lo: &[u8],
        past: impl Fn(&[u8]) -> bool,
        mut limit: usize,
        mut f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        let root = self.root.read();
        let mut pid = self.descend(&root, lo, 0, root.height - 1)?;
        let mut cells = Vec::new();
        loop {
            cells.clear();
            let next = self.read(pid, |p| {
                for i in search(p, Leaf, lo, 0)?..p.slot_count() {
                    let cell = cell(p, i, Leaf)?;
                    if limit == 0 || past(split_cell(cell, Leaf).0) {
                        return Ok(None);
                    }
                    limit -= 1;
                    cells.extend_from_slice(&(cell.len() as u16).to_le_bytes());
                    cells.extend_from_slice(cell);
                }
                Ok(Some(p.next_page()).filter(|next| !next.is_null()))
            })?;
            let mut rest = cells.as_slice();
            while let Some((len, tail)) = rest.split_first_chunk() {
                let (cell, tail) = tail.split_at(u16::from_le_bytes(*len) as usize);
                let (key, rid) = split_cell(cell, Leaf);
                if !f(key, RowId(rid)) {
                    return Ok(());
                }
                rest = tail;
            }
            match next {
                Some(next) => pid = next,
                None => return Ok(()),
            }
        }
    }

    /// Total entries (walks the leaf chain; tests and stats).
    pub fn len(&self) -> Result<usize> {
        let root = self.root.read();
        let mut pid = self.descend(&root, &[], 0, root.height - 1)?;
        let mut n = 0;
        while !pid.is_null() {
            let (count, next) = self.read(pid, |p| Ok((p.slot_count(), p.next_page())))?;
            n += count as usize;
            pid = next;
        }
        Ok(n)
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (root to leaf), for stats and split testing.
    pub fn height(&self) -> Result<usize> {
        Ok(self.root.read().height)
    }
}

#[cfg(test)]
type Pair = (Vec<u8>, u64);

#[cfg(test)]
impl BTreeIndex {
    /// Walk the whole tree and panic on a broken structural invariant:
    /// node kinds match the height, every directory is strictly sorted,
    /// every pair lies within its parent's separators, cells neither
    /// overlap nor leak (`dead_bytes` accounts for every hole), and the
    /// leaf chain is the in-order leaf sequence. Returns the leaf count
    /// and the mean leaf fill.
    fn check_invariants(&self) -> (usize, f64) {
        let root = self.root.read();
        // Per leaf, in key order: its page, its successor, bytes in use.
        let mut leaves = Vec::new();
        self.check_node(root.page, root.height, None, None, &mut leaves);
        let chained = leaves.windows(2).all(|w| w[0].1 == w[1].0);
        assert!(chained && leaves.last().unwrap().1.is_null(), "leaf chain");
        let used: usize = leaves.iter().map(|l| l.2).sum();
        let room = leaves.len() * (PAGE_SIZE - HEADER_SIZE);
        (leaves.len(), used as f64 / room as f64)
    }

    fn check_node(
        &self,
        pid: PageId,
        levels: usize,
        lo: Option<&Pair>,
        hi: Option<&Pair>,
        leaves: &mut Vec<(PageId, PageId, usize)>,
    ) {
        let kind = if levels == 1 { Leaf } else { Inner };
        let mut copy = vec![0u8; PAGE_SIZE];
        let guard = self.cache.fetch(pid).unwrap();
        guard.with_read(|buf| copy.copy_from_slice(buf));
        drop(guard);
        let p = PageView::new(&copy);
        assert_eq!(p.page_type(), kind, "page {pid}");
        let n = p.slot_count();

        let mut spans: Vec<(usize, usize)> = (0..n)
            .map(|i| p.get(SlotId(i)).expect("an index page has no tombstones"))
            .map(|cell| (cell.as_ptr() as usize - copy.as_ptr() as usize, cell.len()))
            .collect();
        spans.sort();
        let free_start = PAGE_SIZE - SLOT_ENTRY_SIZE * n as usize - p.contiguous_free();
        let (mut end, mut live) = (HEADER_SIZE, 0);
        for &(off, len) in &spans {
            assert!(off >= end, "page {pid}: cells overlap");
            (end, live) = (off + len, live + len);
        }
        let dead = p.total_free() - p.contiguous_free();
        assert_eq!(HEADER_SIZE + live + dead, free_start, "page {pid}: holes");

        let ordering = |(k, r): (&[u8], u64)| match kind {
            Leaf => (k.to_vec(), self.tie(RowId(r))),
            _ => (k.to_vec(), r),
        };
        let pairs: Vec<Pair> = (0..n)
            .map(|i| ordering(pair(&p, i, kind).unwrap()))
            .collect();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "page {pid}: order");
        let bounded = |pr: &Pair| lo.is_none_or(|lo| lo <= pr) && hi.is_none_or(|hi| pr < hi);
        if kind == Leaf {
            assert!(
                pairs.iter().all(bounded),
                "page {pid}: outside its separators"
            );
            leaves.push((pid, p.next_page(), live + SLOT_ENTRY_SIZE * n as usize));
            return;
        }
        assert_eq!(pairs[0], (vec![], 0), "page {pid}: cell 0 is not −∞");
        assert!(
            pairs[1..].iter().all(bounded),
            "page {pid}: outside its separators"
        );
        for (i, pr) in pairs.iter().enumerate() {
            let lo = if i == 0 { lo } else { Some(pr) };
            self.check_node(
                child(&p, i as u16).unwrap(),
                levels - 1,
                lo,
                pairs.get(i + 1).or(hi),
                leaves,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_pagestore::MemDisk;

    fn tree(unique: bool) -> BTreeIndex {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 256));
        BTreeIndex::new(cache, PartitionId(99), unique).unwrap()
    }

    fn key(n: u64) -> Vec<u8> {
        n.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_small() {
        let t = tree(true);
        t.insert(&key(5), RowId(50)).unwrap();
        t.insert(&key(1), RowId(10)).unwrap();
        t.insert(&key(9), RowId(90)).unwrap();
        assert_eq!(t.get(&key(1)).unwrap(), Some(RowId(10)));
        assert_eq!(t.get(&key(5)).unwrap(), Some(RowId(50)));
        assert_eq!(t.get(&key(9)).unwrap(), Some(RowId(90)));
        assert_eq!(t.get(&key(2)).unwrap(), None);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let t = tree(true);
        t.insert(&key(1), RowId(10)).unwrap();
        assert!(matches!(
            t.insert(&key(1), RowId(11)),
            Err(BtrimError::DuplicateKey(_))
        ));
    }

    #[test]
    fn non_unique_collects_all() {
        let t = tree(false);
        for i in 0..10 {
            t.insert(&key(7), RowId(i)).unwrap();
        }
        t.insert(&key(8), RowId(100)).unwrap();
        let mut rids = t.get_all(&key(7)).unwrap();
        rids.sort();
        assert_eq!(rids, (0..10).map(RowId).collect::<Vec<_>>());
        assert_eq!(t.get_all(&key(6)).unwrap(), vec![]);
    }

    /// The `customer.by_name` shape: 3 000 keys × 3 duplicates, so some
    /// runs straddle a leaf split. With separators that carried the key
    /// alone, 21 of these `get_all`s came back short and 21 deletes
    /// missed their entry.
    #[test]
    fn duplicate_runs_survive_leaf_splits() {
        let t = tree(false);
        for dup in 0..3u64 {
            for k in 0..3000u64 {
                t.insert(&key(k), RowId(k * 3 + dup)).unwrap();
            }
        }
        assert!(t.check_invariants().0 >= 2);
        let short = (0..3000u64)
            .filter(|&k| {
                t.get_all(&key(k)).unwrap() != (0..3).map(|d| RowId(k * 3 + d)).collect::<Vec<_>>()
            })
            .count();
        assert_eq!(short, 0, "keys whose get_all lost a duplicate");
        let missed = (0..3000u64)
            .filter(|&k| !t.delete(&key(k), Some(RowId(k * 3))).unwrap())
            .count();
        assert_eq!(missed, 0, "deletes that did not find their pair");
        assert_eq!(t.len().unwrap(), 6000);
        t.check_invariants();
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree(true);
        let n = 5000u64;
        // Insert in adversarial (reversed) order.
        for i in (0..n).rev() {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "splits must have happened");
        assert_eq!(t.len().unwrap(), n as usize);
        // All lookups succeed.
        for i in (0..n).step_by(97) {
            assert_eq!(t.get(&key(i)).unwrap(), Some(RowId(i)));
        }
        // Full scan is sorted.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_range(&[], None, |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            prev = Some(k.to_vec());
            true
        })
        .unwrap();
        t.check_invariants();
    }

    #[test]
    fn range_scan_honours_bounds() {
        let t = tree(true);
        for i in 0..100 {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_range(&key(10), Some(&key(20)), |_, rid| {
            seen.push(rid.0);
            true
        })
        .unwrap();
        assert_eq!(seen, (10..20).collect::<Vec<_>>());
        // Early stop.
        let mut count = 0;
        t.scan_range(&key(0), None, |_, _| {
            count += 1;
            count < 5
        })
        .unwrap();
        assert_eq!(count, 5);
        // A limit stops the walk inside a leaf and across leaves alike.
        let t = tree(true);
        for i in 0..2000 {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        for (lo, limit) in [(3, 7), (0, 1500), (1990, 50)] {
            let mut seen = Vec::new();
            t.scan_range_at_most(&key(lo), None, limit, |_, rid| {
                seen.push(rid.0);
                true
            })
            .unwrap();
            let want: Vec<u64> = (lo..2000).take(limit).collect();
            assert_eq!(seen, want, "from {lo}, at most {limit}");
        }
    }

    #[test]
    fn delete_by_key_and_pair() {
        let t = tree(false);
        t.insert(&key(1), RowId(10)).unwrap();
        t.insert(&key(1), RowId(11)).unwrap();
        // Remove a specific pair.
        assert!(t.delete(&key(1), Some(RowId(10))).unwrap());
        assert_eq!(t.get_all(&key(1)).unwrap(), vec![RowId(11)]);
        // Remove missing pair.
        assert!(!t.delete(&key(1), Some(RowId(10))).unwrap());
        // Remove by key.
        assert!(t.delete(&key(1), None).unwrap());
        assert!(t.get_all(&key(1)).unwrap().is_empty());
    }

    #[test]
    fn delete_after_splits() {
        let t = tree(true);
        let n = 3000u64;
        for i in 0..n {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        for i in (0..n).step_by(2) {
            assert!(t.delete(&key(i), None).unwrap(), "delete {i}");
        }
        assert_eq!(t.len().unwrap(), (n / 2) as usize);
        for i in 0..n {
            let expect = if i % 2 == 0 { None } else { Some(RowId(i)) };
            assert_eq!(t.get(&key(i)).unwrap(), expect, "key {i}");
        }
    }

    #[test]
    fn variable_length_string_keys() {
        let t = tree(true);
        let names = ["BARBAR", "OUGHT", "ABLE", "PRES", "ESE", "ANTI", "CALLY"];
        for (i, n) in names.iter().enumerate() {
            let k = crate::keys::KeyBuilder::new().push_str(n).build();
            t.insert(&k, RowId(i as u64)).unwrap();
        }
        for (i, n) in names.iter().enumerate() {
            let k = crate::keys::KeyBuilder::new().push_str(n).build();
            assert_eq!(t.get(&k).unwrap(), Some(RowId(i as u64)));
        }
    }

    /// A cell too short for its rid fails the operation; it is not read
    /// as some default pair.
    #[test]
    fn short_cell_is_corrupt() {
        let t = tree(true);
        t.insert(&key(1), RowId(1)).unwrap();
        let root = t.root.read().page;
        let damaged = t.write(root, |p| {
            p.remove_ordered(0) && p.insert_ordered(0, 3).is_some()
        });
        assert!(damaged.unwrap());
        assert!(matches!(t.get(&key(1)), Err(BtrimError::Corrupt(_))));
        assert!(matches!(
            t.insert(&key(2), RowId(2)),
            Err(BtrimError::Corrupt(_))
        ));
    }

    /// A page holds seven `MAX_KEY_LEN` cells, so a split always has
    /// cells for both halves; one byte more is refused.
    #[test]
    fn longest_keys_split_and_longer_ones_are_invalid() {
        let long = |i: u64| [key(i), vec![0xEE; MAX_KEY_LEN - 8]].concat();
        let t = tree(true);
        for i in 0..7 {
            t.insert(&long(i * 37 % 100), RowId(i)).unwrap();
        }
        assert_eq!(t.height().unwrap(), 1, "seven longest cells fit one page");
        for i in 7..100 {
            t.insert(&long(i * 37 % 100), RowId(i)).unwrap();
            t.check_invariants();
        }
        assert!(
            t.height().unwrap() >= 3,
            "inner nodes of longest keys split too"
        );
        for i in 0..100 {
            assert_eq!(t.get(&long(i * 37 % 100)).unwrap(), Some(RowId(i)));
        }
        assert!(matches!(
            t.insert(&vec![0; MAX_KEY_LEN + 1], RowId(0)),
            Err(BtrimError::Invalid(_))
        ));
    }

    /// Pages an ascending load leaves behind are full, also when the runs
    /// interleave (`order_line`: one run per district, each continuing
    /// in front of the next district's first key); random inserts
    /// settle near ln 2.
    #[test]
    fn ascending_runs_leave_full_leaves() {
        let line = |d: u32, o: u32, ol: u32| [0u32, d, o, ol].map(u32::to_be_bytes).concat();
        let t = tree(true);
        let mut next_order = [0u32; 20];
        let mut new_order = |d: usize| {
            next_order[d] += 1;
            (0..10).for_each(|ol| {
                t.insert(&line(d as u32, next_order[d], ol), RowId(0))
                    .unwrap()
            });
        };
        let mut lcg = 12345u64;
        let mut random = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        (0..20 * 300).for_each(|o| new_order(o / 300));
        (0..6000).for_each(|_| new_order(random() as usize % 20));
        let (leaves, fill) = t.check_invariants();
        assert_eq!(t.len().unwrap(), 120_000);
        assert!(
            fill >= 0.85,
            "order_line shape: {leaves} leaves, fill {fill:.2}"
        );

        let t = tree(true);
        (0..50_000).for_each(|_| drop(t.insert(&line(0, random(), 0), RowId(0))));
        let (leaves, fill) = t.check_invariants();
        assert!(
            fill >= 0.45,
            "random inserts: {leaves} leaves, fill {fill:.2}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btrim_pagestore::MemDisk;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// A tree over an 8-frame cache, and a step that evicts its pages:
    /// run between operations, every edit must survive write-back and a
    /// checksum-verified re-read.
    fn small_cache_tree(unique: bool) -> (BTreeIndex, impl Fn()) {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 8));
        let t = BTreeIndex::new(Arc::clone(&cache), PartitionId(0), unique).unwrap();
        (t, move || {
            cache.set_capacity(1);
            cache.set_capacity(8);
        })
    }

    /// 32 cases, or what `PROPTEST_CASES` asks for (CI: 256).
    fn cases() -> u32 {
        let asked = std::env::var("PROPTEST_CASES").ok();
        asked.and_then(|n| n.parse().ok()).unwrap_or(32)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]
        /// The unique tree behaves like BTreeMap<Vec<u8>, u64> under any
        /// interleaving of inserts, deletes, and lookups.
        #[test]
        fn btree_matches_model(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..150, any::<u64>()), 1..250)
        ) {
            let (t, evict) = small_cache_tree(true);
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            // 8 to 458 bytes: some seventy live keys span several pages.
            let key = |k: u64| [k.to_be_bytes().to_vec(), vec![0xAB; (k % 4) as usize * 150]].concat();
            for (is_insert, k, v) in ops {
                let kb = key(k);
                if is_insert {
                    match t.insert(&kb, RowId(v)) {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&kb));
                            model.insert(kb, v);
                        }
                        Err(BtrimError::DuplicateKey(_)) => {
                            prop_assert!(model.contains_key(&kb));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                } else {
                    let removed = t.delete(&kb, None).unwrap();
                    prop_assert_eq!(removed, model.remove(&kb).is_some());
                }
                evict();
                t.check_invariants();
            }
            // Final state matches exactly.
            prop_assert_eq!(t.len().unwrap(), model.len());
            for kb in (0..150).map(key) {
                prop_assert_eq!(t.get(&kb).unwrap(), model.get(&kb).map(|v| RowId(*v)));
            }
            // Scan order matches model order.
            let mut scanned = Vec::new();
            t.scan_range(&[], None, |k, rid| { scanned.push((k.to_vec(), rid.0)); true }).unwrap();
            let expect: Vec<(Vec<u8>, u64)> =
                model.into_iter().collect();
            prop_assert_eq!(scanned, expect);
        }

        /// The non-unique tree behaves like BTreeSet<(Vec<u8>, u64)>:
        /// few distinct keys of 0 to MAX_KEY_LEN bytes, many duplicates.
        #[test]
        fn non_unique_btree_matches_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u8..3, 0usize..6, 0u64..12), 1..200)
        ) {
            const LENS: [usize; 6] = [0, 1, 9, 130, 600, MAX_KEY_LEN];
            let (t, evict) = small_cache_tree(false);
            let mut model: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
            for (op, byte, len, rid) in ops {
                let kb = vec![byte; LENS[len]];
                let run = |m: &BTreeSet<(Vec<u8>, u64)>| -> Vec<RowId> {
                    m.range((kb.clone(), 0)..=(kb.clone(), u64::MAX)).map(|e| RowId(e.1)).collect()
                };
                match op {
                    0 | 1 => {
                        t.insert(&kb, RowId(rid)).unwrap();
                        model.insert((kb.clone(), rid));
                    }
                    2 => {
                        let removed = t.delete(&kb, Some(RowId(rid))).unwrap();
                        prop_assert_eq!(removed, model.remove(&(kb.clone(), rid)));
                    }
                    _ => {
                        let first = run(&model).first().copied();
                        prop_assert_eq!(t.delete(&kb, None).unwrap(), first.is_some());
                        first.map(|r| model.remove(&(kb.clone(), r.0)));
                    }
                }
                evict();
                t.check_invariants();
                prop_assert_eq!(t.get_all(&kb).unwrap(), run(&model));
                prop_assert_eq!(t.get(&kb).unwrap(), run(&model).first().copied());
            }
            prop_assert_eq!(t.len().unwrap(), model.len());
            let mut scanned = Vec::new();
            t.scan_range(&[], None, |k, rid| { scanned.push((k.to_vec(), rid.0)); true }).unwrap();
            prop_assert_eq!(scanned, model.into_iter().collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use btrim_pagestore::MemDisk;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Readers racing a writer that drives splits: every key inserted
    /// before a read began must be found, and scans must stay sorted.
    #[test]
    fn readers_survive_concurrent_splits() {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 1024));
        let tree = Arc::new(BTreeIndex::new(cache, PartitionId(0), true).unwrap());
        let inserted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            {
                let tree = Arc::clone(&tree);
                let inserted = Arc::clone(&inserted);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) && i < 20_000 {
                        tree.insert(&i.to_be_bytes(), RowId(i)).unwrap();
                        inserted.store(i + 1, Ordering::Release);
                        i += 1;
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..3 {
                let tree = Arc::clone(&tree);
                let inserted = Arc::clone(&inserted);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let n = inserted.load(Ordering::Acquire);
                        if n == 0 {
                            continue;
                        }
                        // Point lookups over the settled prefix.
                        for k in (0..n).step_by((n as usize / 7).max(1)) {
                            assert_eq!(
                                tree.get(&k.to_be_bytes()).unwrap(),
                                Some(RowId(k)),
                                "key {k} of settled prefix {n}"
                            );
                        }
                        // Scans stay sorted even mid-split.
                        let mut prev: Option<Vec<u8>> = None;
                        tree.scan_range(&[], None, |k, _| {
                            if let Some(p) = &prev {
                                assert!(p.as_slice() <= k, "scan out of order");
                            }
                            prev = Some(k.to_vec());
                            true
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(tree.len().unwrap(), 20_000);
        assert!(tree.height().unwrap() >= 2, "splits happened");
        let (_, fill) = tree.check_invariants();
        assert!(
            fill >= 0.85,
            "one ascending run fills its leaves: {fill:.2}"
        );
    }
}
