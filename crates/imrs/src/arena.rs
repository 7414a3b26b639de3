//! The version arena: lock-free version chains in safe Rust.
//!
//! The workspace forbids `unsafe`, which rules out hazard pointers and
//! atomic `Arc` swaps — so version chains are built from *indices* into
//! a chunked, append-only arena of all-atomic nodes. A chain is a
//! singly-linked list, newest first: the row's RID-Map entry holds the
//! head link, each node holds a `prev` link.
//!
//! # Links
//!
//! A link is `node index + 1`; 0 means "none". Chunks of nodes are
//! created on demand in a [`LazyDir`], so resolving a link is two
//! shifts and two loads — never a lock.
//!
//! # Publication protocol
//!
//! Writers (serialized per row by the row's chain mutex) initialize a
//! node's fields, then publish it with a `Release` store of the new
//! head link. Readers `Acquire`-load the head (or a
//! `prev` link) and therefore observe fully-initialized nodes. The only
//! field mutated after publication is `commit_ts` (stamped once at
//! commit, `Release`/`Acquire`).
//!
//! # Reclamation
//!
//! Freed nodes go back to a freelist, but a node a lock-free reader
//! might still be *standing on* must not be recycled under it. Three
//! cases:
//!
//! * **Rollback** pops uncommitted nodes from the head. A reader may
//!   have captured the head link just before — so the node is
//!   *retired* (quarantined until the snapshot horizon passes the
//!   retirement timestamp), but its fragment is freed immediately: the
//!   walk checks visibility before touching a handle, and an
//!   uncommitted node of another transaction is never visible.
//! * **Truncation** (GC) frees nodes *below* the keep point — the
//!   newest version committed at or before the horizon. Every active
//!   snapshot is ≥ the horizon, so every walk stops at or above the
//!   keep point and can never stand on a truncated node: both node and
//!   fragment are freed immediately.
//! * **Row removal** (pack, GC of a dead row) frees the whole chain
//!   while a reader may be mid-walk: nodes *and* fragments are
//!   retired. This closes a pre-existing torn-read race where pack
//!   could recycle an image a reader had already resolved.

use std::sync::Arc;

use parking_lot::Mutex;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{LazyDir, Timestamp, TxnId};

use crate::alloc::FragHandle;
use crate::version::{visible_to, VersionOp};

/// log2 of nodes per chunk.
const CHUNK_BITS: usize = 13;
/// Nodes per chunk.
const CHUNK_NODES: usize = 1 << CHUNK_BITS;
/// Maximum number of chunks (caps the arena at ~268M live versions).
const MAX_CHUNKS: usize = 1 << 15;

/// `meta` layout: bits 0–1 the op code, bit 2 "has handle".
const META_HANDLE: u64 = 0b100;

/// One version: every field atomic so readers need no lock. `txn`,
/// `meta`, `ha`/`hb` (the packed [`FragHandle`]) and `prev` are frozen
/// once the node is published; `commit_ts` is stamped once at commit
/// (0 = uncommitted).
#[derive(Debug, Default)]
struct Node {
    txn: Relaxed<u64>,
    commit_ts: AcqRel<u64>,
    meta: AcqRel<u64>,
    ha: Relaxed<u64>,
    hb: Relaxed<u64>,
    prev: AcqRel<u64>,
}

/// Writer-side recycling state (unranked leaf mutex; never touched by
/// readers).
#[derive(Default)]
struct Recycle {
    free: Vec<u64>,
    /// `(retire timestamp, node index)` — recycled once the horizon
    /// passes the timestamp, proving no reader still stands there.
    quarantine: std::collections::VecDeque<(u64, u64)>,
}

/// A decoded version, loaded once from a node (single coherent view
/// for the caller; no re-reads).
#[derive(Clone, Copy, Debug)]
pub struct VersionView {
    /// Transaction that created the version.
    pub txn: TxnId,
    /// Commit timestamp; `None` while in flight.
    pub commit_ts: Option<Timestamp>,
    /// Operation that produced the version.
    pub op: VersionOp,
    /// Row image in the fragment allocator; `None` for tombstones.
    pub handle: Option<FragHandle>,
}

/// Chunked append-only arena of version nodes.
pub struct VersionArena {
    chunks: LazyDir<Box<[Node]>>,
    /// High-water mark of allocated node indices.
    len: Relaxed<u64>,
    recycle: Mutex<Recycle>,
}

impl Default for VersionArena {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        VersionArena {
            chunks: LazyDir::new(MAX_CHUNKS),
            len: Relaxed::new(0),
            recycle: Mutex::new(Recycle::default()),
        }
    }

    fn node(&self, link: u64) -> &Node {
        debug_assert_ne!(link, 0, "null link dereference");
        let idx = (link - 1) as usize;
        #[expect(
            clippy::expect_used,
            reason = "a link only exists because alloc_node initialized its chunk; \
                      reaching here is memory corruption, not an I/O-reachable state"
        )]
        let chunk =
            (self.chunks.get(idx >> CHUNK_BITS)).expect("link into uninitialized arena chunk");
        &chunk[idx & (CHUNK_NODES - 1)]
    }

    fn alloc_node(&self) -> u64 {
        if let Some(idx) = self.recycle.lock().free.pop() {
            return idx + 1;
        }
        let idx = self.len.fetch_add(1);
        let c = (idx as usize) >> CHUNK_BITS;
        assert!(c < MAX_CHUNKS, "version arena exhausted");
        self.chunks
            .get_or_init(c, || (0..CHUNK_NODES).map(|_| Node::default()).collect());
        idx + 1
    }

    /// Push a new version onto a chain and publish it as the new head.
    /// `commit_ts` is `Some` for pre-stamped versions (recovery replay).
    /// The caller must hold the row's chain mutex (writers are
    /// serialized per row); readers racing this see either the old or
    /// the fully-initialized new head. Returns the new head link.
    pub fn push(
        &self,
        head: &AcqRel<u64>,
        txn: TxnId,
        op: VersionOp,
        handle: Option<FragHandle>,
        commit_ts: Option<Timestamp>,
    ) -> u64 {
        debug_assert!(
            op != VersionOp::Delete || handle.is_none(),
            "tombstones carry no image"
        );
        let link = self.alloc_node();
        let n = self.node(link);
        n.txn.store(txn.0);
        n.commit_ts.store(commit_ts.map_or(0, |ts| ts.0));
        let (meta, ha, hb) = match handle {
            Some(h) => {
                let (a, b) = h.pack();
                (op.code() | META_HANDLE, a, b)
            }
            None => (op.code(), 0, 0),
        };
        n.meta.store(meta);
        n.ha.store(ha);
        n.hb.store(hb);
        n.prev.store(head.load());
        head.store(link);
        link
    }

    /// Load a node into one coherent view.
    pub fn view(&self, link: u64) -> VersionView {
        let n = self.node(link);
        let meta = n.meta.load();
        let handle = if meta & META_HANDLE != 0 {
            Some(FragHandle::unpack(n.ha.load(), n.hb.load()))
        } else {
            None
        };
        VersionView {
            txn: TxnId(n.txn.load()),
            commit_ts: match n.commit_ts.load() {
                0 => None,
                ts => Some(Timestamp(ts)),
            },
            op: VersionOp::from_code(meta),
            handle,
        }
    }

    /// The `prev` link of a node (0 = end of chain).
    pub fn prev(&self, link: u64) -> u64 {
        self.node(link).prev.load()
    }

    /// Re-link a node past unlinked successors (rollback, truncation).
    /// Caller must hold the row's chain mutex; readers standing on an
    /// unlinked node still follow its unchanged `prev` into the
    /// surviving chain.
    pub fn set_prev(&self, link: u64, prev: u64) {
        self.node(link).prev.store(prev);
    }

    /// Stamp the commit timestamp (called once, at transaction commit).
    pub fn stamp(&self, link: u64, ts: Timestamp) {
        debug_assert_ne!(ts.0, 0, "commit ts 0 is reserved");
        self.node(link).commit_ts.store(ts.0);
    }

    /// Commit timestamp of a node, if stamped.
    pub fn commit_ts(&self, link: u64) -> Option<Timestamp> {
        match self.node(link).commit_ts.load() {
            0 => None,
            ts => Some(Timestamp(ts)),
        }
    }

    /// Load the first node of each chain in `heads` (0: none) and
    /// return a value that depends on every load. A batch reader calls
    /// it before it walks the chains, so their cache misses overlap.
    pub fn warm(&self, heads: impl Iterator<Item = u64>) -> u64 {
        heads.filter(|&l| l != 0).fold(0, |acc, l| {
            let n = self.node(l);
            acc ^ n.txn.load() ^ n.prev.load()
        })
    }

    /// The lock-free visibility walk: newest version on the chain at
    /// `head` visible to `(snapshot, reader)`. Checks visibility
    /// *before* loading the image handle — an invisible node's fragment
    /// may already be freed.
    pub fn visible_from(
        &self,
        head: u64,
        snapshot: Timestamp,
        reader: TxnId,
    ) -> Option<VersionView> {
        let mut link = head;
        while link != 0 {
            let n = self.node(link);
            let writer = TxnId(n.txn.load());
            let ts = match n.commit_ts.load() {
                0 => None,
                ts => Some(Timestamp(ts)),
            };
            if visible_to(ts, writer, snapshot, reader) {
                return Some(self.view(link));
            }
            link = n.prev.load();
        }
        None
    }

    /// Newest committed version on the chain (pack and GC operate on
    /// the latest committed image). Never walks below the first
    /// committed node, so it cannot race GC truncation.
    pub fn latest_committed_from(&self, head: u64) -> Option<(u64, VersionView)> {
        let mut link = head;
        while link != 0 {
            let n = self.node(link);
            if n.commit_ts.load() != 0 {
                return Some((link, self.view(link)));
            }
            link = n.prev.load();
        }
        None
    }

    /// Return a node to the freelist immediately. Only legal for nodes
    /// no reader can be standing on (truncated below the keep point).
    pub fn free_node(&self, link: u64) {
        self.recycle.lock().free.push(link - 1);
    }

    /// Quarantine a node a reader might still be standing on; it
    /// rejoins the freelist once [`reclaim`](Self::reclaim) sees the
    /// horizon pass `now`.
    pub fn retire_node(&self, link: u64, now: Timestamp) {
        self.recycle.lock().quarantine.push_back((now.0, link - 1));
    }

    /// Recycle every quarantined node retired strictly before
    /// `horizon`. Returns nodes recycled.
    pub fn reclaim(&self, horizon: Timestamp) -> usize {
        let mut r = self.recycle.lock();
        let mut n = 0;
        while let Some(&(ts, idx)) = r.quarantine.front() {
            if ts >= horizon.0 {
                break;
            }
            r.quarantine.pop_front();
            r.free.push(idx);
            n += 1;
        }
        n
    }

    /// Nodes waiting in quarantine (stats/tests).
    pub fn quarantined_nodes(&self) -> usize {
        self.recycle.lock().quarantine.len()
    }
}

/// A cheap, owned reference to one version node — what write paths hold
/// between DML time and commit-time stamping.
#[derive(Clone)]
pub struct VersionRef {
    arena: Arc<VersionArena>,
    link: u64,
}

impl VersionRef {
    /// Wrap an arena link.
    pub fn new(arena: Arc<VersionArena>, link: u64) -> Self {
        debug_assert_ne!(link, 0);
        VersionRef { arena, link }
    }

    /// The raw arena link.
    pub fn link(&self) -> u64 {
        self.link
    }

    /// Stamp the commit timestamp (called once, at transaction commit).
    pub fn stamp(&self, ts: Timestamp) {
        self.arena.stamp(self.link, ts);
    }

    /// Commit timestamp, if stamped.
    pub fn commit_ts(&self) -> Option<Timestamp> {
        self.arena.commit_ts(self.link)
    }

    /// Load the full version view.
    pub fn view(&self) -> VersionView {
        self.arena.view(self.link)
    }

    /// Creating transaction.
    pub fn txn(&self) -> TxnId {
        self.view().txn
    }

    /// Operation that produced the version.
    pub fn op(&self) -> VersionOp {
        self.view().op
    }

    /// Image handle, `None` for tombstones.
    pub fn handle(&self) -> Option<FragHandle> {
        self.view().handle
    }
}

impl std::fmt::Debug for VersionRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionRef")
            .field("link", &self.link)
            .field("view", &self.view())
            .finish()
    }
}

impl VersionView {
    /// Bytes of IMRS memory pinned by this version.
    pub fn memory(&self) -> usize {
        self.handle.map_or(0, |h| h.alloc_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> VersionArena {
        VersionArena::new()
    }

    #[test]
    fn push_and_walk_newest_first() {
        let a = arena();
        let head = AcqRel::new(0);
        for (i, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let l = a.push(&head, TxnId(i), VersionOp::Update, None, None);
            a.stamp(l, Timestamp(ts));
        }
        let read = |snap: u64| {
            a.visible_from(head.load(), Timestamp(snap), TxnId(99))
                .map(|v| v.commit_ts.unwrap().0)
        };
        assert_eq!(read(5), None);
        assert_eq!(read(10), Some(10));
        assert_eq!(read(25), Some(20));
        assert_eq!(read(30), Some(30));
        assert_eq!(read(999), Some(30));
    }

    #[test]
    fn own_uncommitted_writes_visible_only_to_writer() {
        let a = arena();
        let head = AcqRel::new(0);
        let l1 = a.push(&head, TxnId(1), VersionOp::Insert, None, None);
        a.stamp(l1, Timestamp(10));
        a.push(&head, TxnId(7), VersionOp::Update, None, None);
        let h = head.load();
        let mine = a.visible_from(h, Timestamp(10), TxnId(7)).unwrap();
        assert_eq!(mine.commit_ts, None);
        let theirs = a.visible_from(h, Timestamp(10), TxnId(8)).unwrap();
        assert_eq!(theirs.commit_ts, Some(Timestamp(10)));
    }

    #[test]
    fn latest_committed_skips_in_flight_head() {
        let a = arena();
        let head = AcqRel::new(0);
        let l1 = a.push(&head, TxnId(1), VersionOp::Insert, None, None);
        a.stamp(l1, Timestamp(5));
        a.push(&head, TxnId(2), VersionOp::Update, None, None); // in flight
        let (link, v) = a.latest_committed_from(head.load()).unwrap();
        assert_eq!(link, l1);
        assert_eq!(v.commit_ts, Some(Timestamp(5)));
    }

    #[test]
    fn quarantined_nodes_keep_fields_until_reclaimed() {
        let a = arena();
        let head = AcqRel::new(0);
        let l = a.push(&head, TxnId(3), VersionOp::Update, None, None);
        a.stamp(l, Timestamp(7));
        a.retire_node(l, Timestamp(9));
        // A straggling reader standing on the node still sees the old
        // self-consistent fields.
        assert_eq!(a.view(l).commit_ts, Some(Timestamp(7)));
        assert_eq!(a.reclaim(Timestamp(9)), 0, "horizon must pass strictly");
        assert_eq!(a.quarantined_nodes(), 1);
        assert_eq!(a.reclaim(Timestamp(10)), 1);
        assert_eq!(a.quarantined_nodes(), 0);
        // Recycled: the next push reuses the node slot.
        let head2 = AcqRel::new(0);
        let l2 = a.push(&head2, TxnId(4), VersionOp::Insert, None, None);
        assert_eq!(l2, l);
    }

    #[test]
    fn freed_nodes_recycle_immediately() {
        let a = arena();
        let head = AcqRel::new(0);
        let l = a.push(&head, TxnId(1), VersionOp::Insert, None, None);
        head.store(0);
        a.free_node(l);
        let l2 = a.push(&head, TxnId(2), VersionOp::Insert, None, None);
        assert_eq!(l2, l);
    }

    #[test]
    fn concurrent_readers_vs_stamping_writer() {
        // One writer pushes + stamps versions; readers walk the chain
        // continuously and must only ever see fully-formed versions
        // whose commit_ts is consistent with visibility.
        let a = Arc::new(arena());
        let head = Arc::new(AcqRel::new(0));
        let stop = Arc::new(Relaxed::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                let head = Arc::clone(&head);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // An id outside the writer's `1..2000`: were it one
                    // of them, that version — unstamped — would be the
                    // reader's own write, visible with no commit_ts.
                    let nobody = TxnId(u64::MAX);
                    while !stop.load() {
                        let snap = Timestamp(u64::MAX);
                        if let Some(v) = a.visible_from(head.load(), snap, nobody) {
                            // Visible to a max snapshot ⇒ committed.
                            assert!(v.commit_ts.is_some());
                            assert_eq!(v.op, VersionOp::Update);
                        }
                    }
                })
            })
            .collect();
        for i in 1..2000u64 {
            let l = a.push(&head, TxnId(i), VersionOp::Update, None, None);
            a.stamp(l, Timestamp(i));
        }
        stop.store(true);
        for r in readers {
            r.join().unwrap();
        }
    }
}
